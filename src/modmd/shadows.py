"""Randomized-measurement estimation of overlap signals.

The probe is an ancilla-entangled state whose density matrix, paired with
a rank-two observable built from the reference state, has the real (or
imaginary) part of the overlap signal as its expectation value. Random
global rotations followed by computational-basis readout give an
unbiased single-shot estimator of that expectation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import PauliSum
from .simulate import (
    MultiObservableSignal,
    SpectralDecomposition,
    StateVector,
    exact_signal,
)

_STEP_BLOCK = 32  # time steps drawn from one generator: bounds a call's memory
_PIVOT_TOL = 1e-10  # squared Cholesky pivots below this times |f_j|^2 are zero


@dataclass(frozen=True, slots=True)
class RankTwoObservable:
    """Hermitian rank-two operator ``u v* + v u*`` (or its ``i u v* + h.c.``
    variant) on the ancilla-extended register.

    ``u`` occupies the ancilla-1 block and ``v`` the ancilla-0 block, so
    the supports are disjoint and the trace vanishes identically.
    ``part`` selects whether expectations give the real or imaginary
    signal quadrature.
    """

    n_system_qubits: int
    u: np.ndarray
    v: np.ndarray
    part: str

    def __post_init__(self):
        if self.part not in ("real", "imag"):
            raise ValueError(f"part must be 'real' or 'imag', got {self.part!r}")
        dim = 1 << (self.n_system_qubits + 1)
        u = np.asarray(self.u, dtype=complex)
        v = np.asarray(self.v, dtype=complex)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        if u.shape != (dim,) or v.shape != (dim,):
            raise ValueError(f"u and v must have length {dim}")
        half = dim // 2
        if np.linalg.norm(u[:half]) > 1e-12 * max(np.linalg.norm(u), 1.0):
            raise ValueError("u must live in the ancilla-1 block")
        if np.linalg.norm(v[half:]) > 1e-12 * max(np.linalg.norm(v), 1.0):
            raise ValueError("v must live in the ancilla-0 block")

    @property
    def dim(self) -> int:
        return 1 << (self.n_system_qubits + 1)

    @property
    def trace_square(self) -> float:
        """``Tr[Gamma^2]`` in closed form; drives the variance bound."""
        overlap = np.vdot(self.u, self.v)
        norms = np.linalg.norm(self.u) ** 2 * np.linalg.norm(self.v) ** 2
        return float(2.0 * (abs(overlap) ** 2 + norms))

    def dense(self) -> np.ndarray:
        outer = np.outer(self.u, self.v.conj())
        if self.part == "imag":
            outer = 1j * outer
        return outer + outer.conj().T

    def expectation(self, amplitudes: np.ndarray) -> float:
        """``<psi| Gamma |psi>`` for a pure state, without densifying."""
        x = np.asarray(amplitudes)
        return float(self._quadrature(np.vdot(x, self.u), np.vdot(x, self.v)))

    def _quadrature(self, xu, xv):
        """``<x| Gamma |x>`` from the overlaps ``<x|u>`` and ``<x|v>``."""
        z = xu * np.conj(xv)
        return 2.0 * z.real if self.part == "real" else -2.0 * z.imag


def build_gamma(
    observable: PauliSum,
    phi0: StateVector,
    phi_perp: StateVector,
    part: str = "real",
) -> RankTwoObservable:
    """Rank-two observable whose expectation on the ancilla probe is the
    chosen quadrature of ``<phi0| O exp(-i H t) |phi0>``.

    ``u = |1>(O |phi0>)`` and ``v = |0>|phi_perp>`` live in opposite
    ancilla blocks, so the operator is traceless by construction.
    """
    if observable.n_qubits != phi0.n_qubits or phi0.n_qubits != phi_perp.n_qubits:
        raise ValueError("observable and states must share one register width")
    n = 1 << phi0.n_qubits
    u = np.zeros(2 * n, dtype=complex)
    u[n:] = observable.apply(phi0.amplitudes)
    v = np.zeros(2 * n, dtype=complex)
    v[:n] = phi_perp.amplitudes
    return RankTwoObservable(phi0.n_qubits, u, v, part)


def sample_shadows(state: StateVector, n_samples: int, seed: int) -> np.ndarray:
    """Randomized measurements of an ancilla probe state, as a
    ``(n_samples, D)`` array whose rows are the measured rows ``<b|U``.

    Under a Haar ``U`` and Born outcome ``b`` the conjugated row
    ``c = conj(<b|U)`` is uniform on the sphere reweighted by ``D |<c|psi>|^2``,
    so it is drawn directly as ``c = alpha psi + sqrt(1 - |alpha|^2) w``:
    ``|alpha|^2 ~ Beta(2, D - 1)``, uniform phase, ``w`` uniform on the
    sphere of ``psi``'s complement; O(n_samples * D) from one generator.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    dim = 1 << state.n_qubits
    psi = state.amplitudes / np.linalg.norm(state.amplitudes)
    rng = np.random.default_rng(seed)
    weight = rng.beta(2.0, dim - 1.0, size=n_samples)
    phase = np.exp(2j * np.pi * rng.random(n_samples))
    w = rng.standard_normal((n_samples, dim)) + 1j * rng.standard_normal((n_samples, dim))
    w -= np.outer(w @ psi.conj(), psi)
    w /= np.linalg.norm(w, axis=1, keepdims=True)
    c = (np.sqrt(weight) * phase)[:, None] * psi + np.sqrt(1.0 - weight)[:, None] * w
    return c.conj()


def _estimate_batch(rows, gammas: "list[RankTwoObservable]") -> np.ndarray:
    """Mean single-shot estimates of several observables from one batch.

    ``rows`` holds one measured row ``r = <b|U`` per shot; a shot gives
    ``(D+1) <b|U Gamma U*|b>`` (``Gamma`` is traceless), where
    ``<b|U u> = r @ u``.
    """
    rows = np.asarray(rows, dtype=complex)
    if rows.ndim != 2:
        raise ValueError(f"rows must be a (shots, D) array, got shape {rows.shape}")
    if len(rows) == 0:
        raise ValueError("need at least one sample")
    dim = rows.shape[1]
    if any(g.dim != dim for g in gammas):
        raise ValueError("observable register width differs from samples")
    return (dim + 1) * np.array(
        [np.mean(g._quadrature(rows @ g.u, rows @ g.v)) for g in gammas]
    )


def estimate_trace(rows, gamma: RankTwoObservable) -> float:
    """Unbiased estimate of ``Tr[rho Gamma]`` from recorded measurement rows.

    Inverts the depolarizing action of the random rotations:
    each row contributes ``(D+1) <b|U Gamma U*|b> - Tr[Gamma]``.
    """
    return float(_estimate_batch(rows, [gamma])[0])


def variance_bound(gamma: RankTwoObservable) -> float:
    """Upper bound ``3 Tr[Gamma^2]`` on the single-shot estimator variance."""
    return 3.0 * gamma.trace_square


def shadow_signal(
    spec: SpectralDecomposition,
    phi0: StateVector,
    phi_perp: StateVector,
    observables: "list[PauliSum]",
    dt: float,
    k_max: int,
    n_samples: int,
    seed: int,
    mode: str = "real",
) -> MultiObservableSignal:
    """Overlap signals estimated from randomized measurements by
    :func:`_sample_signal`, from the exact overlaps of one complex
    :func:`~modmd.simulate.exact_signal` call per observable."""
    if not observables:
        raise ValueError("need at least one observable")
    # one call per observable, so companions leave each one's rounding alone
    rows = [exact_signal(spec, phi0, [o], dt, k_max, "complex").values[0] for o in observables]
    exact = MultiObservableSignal(len(rows), dt, np.array(rows), "complex")
    u = [build_gamma(o, phi0, phi_perp).u for o in observables]
    gram = np.array([[np.vdot(g, h) for g in u] for h in u])  # [i, j] = <u_j|u_i>
    return _sample_signal(exact, gram, phi0.n_qubits, n_samples, seed, mode)


def _sample_signal(
    exact: MultiObservableSignal, gram, n_qubits, n_samples, seed, mode
) -> MultiObservableSignal:
    """Randomized-measurement estimate of the complex signals ``exact``, over
    as many steps, on the ``2^(n+1)`` amplitudes of the ancilla-extended
    ``n_qubits`` register.

    One batch of ``n_samples`` shots per time step serves all observables
    (and both quadratures in complex mode). A shot reads only the overlaps
    ``<c|f>`` of its row (:func:`sample_shadows`) with ``f = [v, u_1, ...]``
    (:func:`build_gamma`), whose exact law (README, "Classical-shadow
    signals") needs only the signals and the Gram matrix of ``f``: ``v`` is
    a unit vector in the other ancilla block from every ``u_i``, so that is
    ``[[1, 0], [0, gram]]`` with ``gram[i, j] = <u_j|u_i>``. It is drawn in
    O(shots * m^2) per step. Steps are drawn in blocks of ``_STEP_BLOCK``,
    block ``b`` from ``SeedSequence(seed, spawn_key=(b,))``, component ``j``
    after those before it, so adding observables leaves earlier rows
    bit-identical.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if mode not in ("real", "complex"):
        raise ValueError(f"mode must be 'real' or 'complex', got {mode!r}")
    gram = np.pad(np.asarray(gram, complex), ((1, 0), (1, 0)))  # of [v, u_1, ...]
    gram[0, 0] = 1.0
    m, n_steps, dim = len(gram), exact.n_steps, 2 << n_qubits
    # <psi_k|f>: 1 / sqrt(2), then conj(s_i(k)) / sqrt(2)
    q_all = np.column_stack([np.ones(n_steps), exact.values.T.conj()]) / math.sqrt(2)
    values = np.empty((m - 1, n_steps), dtype=float if mode == "real" else complex)
    for block, start in enumerate(range(0, n_steps, _STEP_BLOCK)):
        steps, q = slice(start, start + _STEP_BLOCK), q_all[start : start + _STEP_BLOCK]
        shape = (len(q), n_samples)
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(block,)))
        weight = rng.beta(2.0, dim - 1.0, size=shape)
        a = np.sqrt(weight) * np.exp(2j * np.pi * rng.random(shape))
        rest, stick = np.sqrt(1.0 - weight), np.ones(shape)
        chol, z = np.zeros((len(q), m, m), dtype=complex), []
        for j in range(m):
            cut = rng.beta(1.0, dim - 2.0 - j, size=shape) if j < dim - 2 else 1.0
            z.append(np.sqrt(stick * cut) * np.exp(2j * np.pi * rng.random(shape)))
            stick *= 1.0 - cut
            row, gj = chol[:, j], gram[j, : j + 1] - q[:, j, None] * q[:, : j + 1].conj()
            for l in range(j):
                dot = np.sum(row[:, :l] * chol[:, l, :l].conj(), axis=1)
                diag = chol[:, l, l]
                np.divide(gj[:, l] - dot, diag, out=row[:, l], where=diag != 0)
            pivot = gj[:, j].real - np.sum(np.abs(row[:, :j]) ** 2, axis=1)
            row[:, j] = np.sqrt(np.where(pivot > _PIVOT_TOL * gram[j, j].real, pivot, 0.0))
            mix = sum(z[l] * row[:, l, None] for l in range(j + 1))
            overlap = a * q[:, j, None] + rest * mix
            if j == 0:
                on_v = overlap
            else:  # (D+1) 2Re / -2Im of <c|u_j> <c|v>*, as one complex mean
                est = 2 * (dim + 1) * np.mean(overlap.conj() * on_v, axis=1)
                values[j - 1, steps] = est.real if mode == "real" else est
    return MultiObservableSignal(m - 1, exact.dt, values, mode)


def _block_bytes(n_observables: int, n_samples: int) -> int:
    """Peak bytes of one :func:`_sample_signal` step block: the m = I + 1
    draws ``z`` and 9 more complex (steps, shots) arrays (tracemalloc read
    7.6-8.6)."""
    return (n_observables + 10) * _STEP_BLOCK * n_samples * 16


def gaussian_noise_channel(
    signal: MultiObservableSignal, epsilon: float, seed: int
) -> MultiObservableSignal:
    """Add centered Gaussian noise of scale ``epsilon`` to every signal part.

    Zero strength returns the values bit-for-bit. Draws are deterministic
    under ``seed``: the real-part field is drawn first, then, for a
    complex signal, the imaginary-part field.
    """
    if not (math.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError(f"epsilon must be finite and >= 0, got {epsilon}")
    values = signal.values.copy()
    if epsilon > 0.0:
        rng = np.random.default_rng(seed)
        values = values + epsilon * rng.standard_normal(values.shape)
        if signal.mode != "real":
            values = values + 1j * epsilon * rng.standard_normal(values.shape)
    return MultiObservableSignal(signal.n_observables, signal.dt, values, signal.mode)
