"""Exact statevector simulation of qubit dynamics and signal generation.

Everything here works on dense amplitude vectors; Hamiltonians enter
either as dense Hermitian matrices (for diagonalization) or as
:class:`~modmd.pauli.PauliSum` operators applied matrix-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum
from .errors import DegenerateInputError

NORM_ATOL = 1e-10
HERMITICITY_RTOL = 1e-10
# Rows per strip of the Hermiticity check: its only temporaries are strips.
_HERMITICITY_STRIP = 64
# Samples per column block of an exact signal's phase sum: its phase
# temporaries hold D x _PHASE_BLOCK entries, however long the signal.
_PHASE_BLOCK = 32


@dataclass(frozen=True, slots=True)
class StateVector:
    """A normalized pure state on ``n_qubits`` qubits.

    Qubit 0 maps to the most significant bit of the basis index, matching
    the Pauli-label convention, so ``amplitudes[int(bits, 2)]`` is the
    amplitude of the basis state labeled by ``bits``.
    """

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes for "
                f"{self.n_qubits} qubits, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm!r} is not 1 within {NORM_ATOL}")

    @classmethod
    def normalized(cls, n_qubits: int, raw: np.ndarray) -> "StateVector":
        """Build from an unnormalized amplitude vector."""
        raw = np.asarray(raw, dtype=complex)
        norm = np.linalg.norm(raw)
        if norm == 0.0:
            raise DegenerateInputError("cannot normalize the zero vector")
        return cls(n_qubits, raw / norm)


@dataclass(frozen=True, slots=True)
class SpectralDecomposition:
    """Eigensystem of a Hermitian operator.

    ``energies`` ascend; ``eigenvectors[:, n]`` is the unit eigenvector
    for ``energies[n]``. The eigenvectors keep the dtype of the matrix
    they came from: real (float64) for a real symmetric matrix, complex
    otherwise.
    """

    energies: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        vectors = self.eigenvectors
        dtype = float if np.isrealobj(vectors) else complex
        object.__setattr__(self, "energies", np.asarray(self.energies, dtype=float))
        object.__setattr__(self, "eigenvectors", np.asarray(vectors, dtype=dtype))
        if self.energies.ndim != 1 or self.eigenvectors.shape != (
            len(self.energies),
            len(self.energies),
        ):
            raise ValueError("eigenvector matrix must be square and match energies")
        if np.any(np.diff(self.energies) < 0):
            raise ValueError("energies must ascend")

    @property
    def dimension(self) -> int:
        return len(self.energies)


@dataclass(frozen=True, slots=True)
class MultiObservableSignal:
    """Time series of expectation values for several observables.

    ``values[i, k]`` is observable ``i`` at time ``k * dt``. In ``"real"``
    mode the array is real (the measurable part of the overlap); in
    ``"complex"`` mode it keeps both quadratures.
    """

    n_observables: int
    dt: float
    values: np.ndarray
    mode: str = "real"

    def __post_init__(self):
        if self.mode not in ("real", "complex"):
            raise ValueError(f"mode must be 'real' or 'complex', got {self.mode!r}")
        dtype = float if self.mode == "real" else complex
        vals = np.asarray(self.values, dtype=dtype)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 2 or vals.shape[0] != self.n_observables:
            raise ValueError(
                f"values must be (n_observables, n_steps), got {vals.shape}"
            )
        if not self.dt > 0:
            raise ValueError(f"dt must be positive, got {self.dt}")

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]

    def prefix(self, n_steps: int) -> "MultiObservableSignal":
        """The first ``n_steps`` samples of every observable."""
        if not 1 <= n_steps <= self.n_steps:
            raise ValueError(f"n_steps must lie in [1, {self.n_steps}]")
        return MultiObservableSignal(
            self.n_observables, self.dt, self.values[:, :n_steps].copy(), self.mode
        )


def diagonalize(matrix: np.ndarray) -> SpectralDecomposition:
    """Full eigensystem of a dense Hermitian matrix, from one ``eigh``.

    Rejects non-Hermitian input (relative Frobenius deviation above
    1e-10) rather than silently symmetrizing it. A matrix with no
    imaginary part (TFIM, or any Pauli sum whose terms all carry an even
    number of Y factors) takes the real-symmetric solver, several times
    faster than the complex one, and keeps a real eigenbasis.

    This is the plain solver: ``harness.build_problem`` calls it once per
    block of :func:`~modmd.pauli._symmetry_blocks`, and ``Problem.spec``,
    the oracle of that block path, once on the whole register's matrix.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    if np.iscomplexobj(matrix) and not np.any(matrix.imag):
        matrix = matrix.real
    scale = max(float(np.linalg.norm(matrix)), 1.0)
    if _antihermitian_sq(matrix) > (HERMITICITY_RTOL * scale) ** 2:
        raise ValueError("matrix is not Hermitian within tolerance")
    energies, vectors = np.linalg.eigh(matrix)
    return SpectralDecomposition(energies, vectors)


def _antihermitian_sq(matrix: np.ndarray) -> float:
    """``|M - M^H|_F^2``, one strip of rows of the upper triangle at a time.

    Each strip's diagonal block holds both members of its entry pairs; the
    rest of the strip holds one member of pairs whose other lies below the
    diagonal, so it counts twice.
    """
    n = len(matrix)
    total = 0.0
    for i in range(0, n, _HERMITICITY_STRIP):
        j = min(i + _HERMITICITY_STRIP, n)
        diff = matrix[i:j, i:] - matrix[i:, i:j].conj().T
        block = diff[:, : j - i]
        total += 2.0 * np.vdot(diff, diff).real - np.vdot(block, block).real
    return total


def evolve(spec: SpectralDecomposition, state: StateVector, t: float) -> StateVector:
    """Apply ``exp(-i H t)`` through the eigenbasis of ``H``.

    The coefficients ``V^dag psi`` are formed as ``conj(conj(psi) @ V)``,
    which never copies the eigenvector matrix; a real ``V`` meets the
    complex state in real products (:func:`_matmul`).
    """
    v = spec.eigenvectors
    coeffs = _matmul(state.amplitudes.conj(), v).conj()
    coeffs *= np.exp(-1j * spec.energies * t)
    return StateVector(state.n_qubits, _matmul(v, coeffs))


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for any two vector or matrix factors, in real
    products when one factor is real and the other complex.

    numpy casts the real factor of a mixed product to a complex copy: a
    D x D one for a real eigenbasis, a snapshot-sized one for the solver's
    real ``U_r`` and ``B``. Here the real and imaginary parts of the
    complex factor share one real product instead.
    """
    if np.iscomplexobj(a) == np.iscomplexobj(b):
        return a @ b
    if not np.iscomplexobj(a):
        return _matmul(b.T, a.T).T
    parts = np.stack([a.real, a.imag]) @ b
    return parts[0] + 1j * parts[1]


def trotter_evolve(
    psum: PauliSum, state: StateVector, t: float, r: int
) -> StateVector:
    """First-order Trotter approximation of ``exp(-i H t)``.

    One step multiplies the exponentials of the terms in the order they
    appear in the sum (first term leftmost in the operator product, so
    the last term acts on the state first); the step repeats ``r`` times
    with interval ``t / r``.
    """
    if r < 1:
        raise ValueError(f"step count must be >= 1, got {r}")
    if state.n_qubits != psum.n_qubits:
        raise ValueError("state and operator register widths differ")
    theta = [c * t / r for c in psum.coefficients]
    amps = state.amplitudes.copy()
    factors = [PauliSum(psum.n_qubits, (1.0,), (s,)) for s in psum.strings]
    for _ in range(r):
        for ang, factor in zip(reversed(theta), reversed(factors)):
            amps = math.cos(ang) * amps - 1j * math.sin(ang) * factor.apply(amps)
    return StateVector(state.n_qubits, amps)


def build_reference_superposition(
    n_qubits: int, bitstrings: "list[str]"
) -> StateVector:
    """Equal-amplitude superposition of distinct computational basis states."""
    if not bitstrings:
        raise ValueError("need at least one bitstring")
    if len(set(bitstrings)) != len(bitstrings):
        raise ValueError("duplicate bitstrings in reference state")
    amps = np.zeros(1 << n_qubits, dtype=complex)
    for b in bitstrings:
        if len(b) != n_qubits or set(b) - {"0", "1"}:
            raise ValueError(f"bad bitstring {b!r} for {n_qubits} qubits")
        amps[int(b, 2)] = 1.0
    return StateVector(n_qubits, amps / math.sqrt(len(bitstrings)))


def composite_state(
    phi_perp: StateVector,
    phi0: StateVector,
    spec: SpectralDecomposition,
    t: float,
) -> StateVector:
    """Ancilla-entangled probe ``(|0>|phi_perp> + |1>|phi0(t)>)/sqrt(2)``
    on ``n + 1`` qubits.

    The ancilla is the leading qubit; ``phi0`` evolves for time ``t``
    under the Hamiltonian whose eigensystem is ``spec``.
    """
    if phi_perp.n_qubits != phi0.n_qubits:
        raise ValueError("reference and orthogonal states differ in width")
    evolved = evolve(spec, phi0, t)
    n = 1 << phi0.n_qubits
    amps = np.empty(2 * n, dtype=complex)
    amps[:n] = phi_perp.amplitudes / math.sqrt(2.0)
    amps[n:] = evolved.amplitudes / math.sqrt(2.0)
    return StateVector(phi0.n_qubits + 1, amps)


def exact_signal(
    spec: SpectralDecomposition,
    phi0: StateVector,
    observables: "list[PauliSum]",
    dt: float,
    k_max: int,
    mode: str = "real",
) -> MultiObservableSignal:
    """Noise-free overlap signals ``<phi0| O_i exp(-i H k dt) |phi0>``.

    Evaluated through the eigenbasis: with ``b = V^dag phi0`` and
    ``w_i = V^dag O_i phi0`` the signal is a sum of pure phases,
    ``sum_n conj(w_i[n]) b[n] exp(-i E_n k dt)``. One product
    ``conj([phi0, O_1 phi0, ...]) @ V`` gives every ``conj(b)`` and
    ``conj(w_i)`` without copying ``V`` (in real products for a real
    ``V``, :func:`_matmul`). The phases are summed in blocks
    of ``_PHASE_BLOCK`` samples: block ``j`` starting at step ``s_j`` is
    ``(c * exp(-i E dt s_j)) @ exp(-i E dt m)`` over ``m`` in the block,
    each shift its own ``exp`` (no drift from repeated products), so no
    ``D x (k_max + 1)`` table is ever held.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not observables:
        raise ValueError("need at least one observable")
    stack = np.empty((len(observables) + 1, spec.dimension), dtype=complex)
    stack[0] = phi0.amplitudes
    for i, obs in enumerate(observables):
        if obs.n_qubits != phi0.n_qubits:
            raise ValueError(f"observable {i} register width mismatch")
        stack[i + 1] = obs.apply(phi0.amplitudes)
    projected = _matmul(stack.conj(), spec.eigenvectors)
    values = _phase_sums(spec.energies, projected, dt, k_max)
    values = values.real if mode == "real" else values
    return MultiObservableSignal(len(observables), dt, values, mode)


def _phase_sums(energies, projected: np.ndarray, dt: float, k_max: int) -> np.ndarray:
    """:func:`exact_signal`'s complex rows from ``conj(stack) @ V``, the
    conjugate projections of its stack ``[phi0, O_1 phi0, ...]`` on the
    eigenvectors of ``energies``."""
    coeffs = projected[1:] * projected[0].conj()
    rate = -1j * dt * energies
    n_steps = k_max + 1
    width = min(_PHASE_BLOCK, n_steps)
    base = np.exp(np.multiply.outer(rate, np.arange(width)))
    values = np.empty((len(projected) - 1, n_steps), dtype=complex)
    for start in range(0, n_steps, width):
        stop = min(start + width, n_steps)
        shifted = coeffs * np.exp(rate * start)
        values[:, start:stop] = shifted @ base[:, : stop - start]
    return values
