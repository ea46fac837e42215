"""Pauli-string algebra for qubit Hamiltonians and observables.

Operators are represented as real-weighted sums of Pauli strings. A string
is encoded by two bitmasks (X-type and Z-type supports); Y carries both
bits. Qubit 0 is the leftmost character of a text label and maps to the
most significant bit of a computational-basis index, so ``int(bits, 2)``
of a bitstring label is the index of the matching basis state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, PauliParseError, ResourceCapError

AXES = "IXYZ"

# Dense matrices above this many qubits are refused outright.
DENSE_QUBIT_CAP = 14


@dataclass(frozen=True, slots=True)
class PauliString:
    """A single Pauli string on ``n_qubits`` qubits.

    Parameters
    ----------
    n_qubits : int
        Register width.
    x_mask, z_mask : int
        Bitmasks over basis-index bit positions. A qubit with an X factor
        sets only ``x_mask``, Z only ``z_mask``, Y both.
    """

    n_qubits: int
    x_mask: int
    z_mask: int

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError(f"n_qubits must be >= 1, got {self.n_qubits}")
        full = (1 << self.n_qubits) - 1
        if not (0 <= self.x_mask <= full and 0 <= self.z_mask <= full):
            raise ValueError("mask exceeds register width")

    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a text label such as ``"IXZY"`` (qubit 0 leftmost)."""
        if not label:
            raise ValueError("empty Pauli label")
        n = len(label)
        x = z = 0
        for i, c in enumerate(label):
            bit = 1 << (n - 1 - i)
            if c == "X":
                x |= bit
            elif c == "Y":
                x |= bit
                z |= bit
            elif c == "Z":
                z |= bit
            elif c != "I":
                raise ValueError(f"invalid Pauli axis {c!r} in label {label!r}")
        return cls(n, x, z)

    @classmethod
    def identity(cls, n_qubits: int) -> "PauliString":
        return cls(n_qubits, 0, 0)

    @classmethod
    def single(cls, n_qubits: int, qubit: int, axis: str) -> "PauliString":
        """One non-identity axis (``"X"``, ``"Y"`` or ``"Z"``) on ``qubit``."""
        if not 0 <= qubit < n_qubits:
            raise ValueError(f"qubit {qubit} outside register of {n_qubits}")
        bit = 1 << (n_qubits - 1 - qubit)
        if axis == "X":
            return cls(n_qubits, bit, 0)
        if axis == "Y":
            return cls(n_qubits, bit, bit)
        if axis == "Z":
            return cls(n_qubits, 0, bit)
        raise ValueError(f"invalid axis {axis!r}")

    @property
    def label(self) -> str:
        chars = []
        for i in range(self.n_qubits):
            bit = 1 << (self.n_qubits - 1 - i)
            x, z = bool(self.x_mask & bit), bool(self.z_mask & bit)
            chars.append("Y" if x and z else "X" if x else "Z" if z else "I")
        return "".join(chars)

    @property
    def weight(self) -> int:
        """Number of non-identity tensor factors."""
        return (self.x_mask | self.z_mask).bit_count()

    @property
    def is_identity(self) -> bool:
        return self.x_mask == 0 and self.z_mask == 0

    @property
    def sort_key(self) -> tuple[int, int]:
        """Canonical encoding used to break ties deterministically."""
        return (self.x_mask, self.z_mask)

    def __str__(self) -> str:
        return self.label


def _parity(indices: np.ndarray, mask: int) -> np.ndarray:
    """Parity of ``indices & mask`` bit counts, as 0/1 int array."""
    acc = np.zeros_like(indices)
    while mask:
        low = mask & -mask
        acc ^= (indices // low) & 1
        mask ^= low
    return acc


def apply_pauli_string(string: PauliString, amplitudes: np.ndarray) -> np.ndarray:
    """Apply a Pauli string to a raw amplitude vector without densifying.

    Each string acts as a signed/phased permutation of the computational
    basis, so the cost is linear in the vector length.
    """
    n = 1 << string.n_qubits
    if amplitudes.shape != (n,):
        raise ValueError(
            f"amplitude vector of length {amplitudes.shape} does not match "
            f"{string.n_qubits} qubits"
        )
    idx = np.arange(n)
    n_y = (string.x_mask & string.z_mask).bit_count()
    phase = (1j) ** n_y * (-1.0) ** _parity(idx, string.z_mask)
    out = np.empty(n, dtype=complex)
    out[idx ^ string.x_mask] = phase * amplitudes
    return out


@dataclass(frozen=True, slots=True)
class PauliSum:
    """A real-weighted sum of distinct Pauli strings on a fixed register.

    Duplicate strings are merged (coefficients summed) at construction,
    preserving first-appearance order. The empty sum is the zero operator.
    """

    n_qubits: int
    coefficients: tuple[float, ...]
    strings: tuple[PauliString, ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("n_qubits must be >= 1")
        if len(self.coefficients) != len(self.strings):
            raise ValueError("coefficient/string count mismatch")
        for s in self.strings:
            if s.n_qubits != self.n_qubits:
                raise ValueError("mixed register widths in one sum")
        seen = {}
        for c, s in zip(self.coefficients, self.strings):
            if not math.isfinite(c):
                raise ValueError(f"non-finite coefficient {c!r}")
            if s in seen:
                seen[s] += float(c)
            else:
                seen[s] = float(c)
        if len(seen) != len(self.strings):
            object.__setattr__(self, "coefficients", tuple(seen.values()))
            object.__setattr__(self, "strings", tuple(seen.keys()))
        else:
            object.__setattr__(
                self, "coefficients", tuple(float(c) for c in self.coefficients)
            )

    @classmethod
    def from_terms(
        cls, n_qubits: int, terms: "list[tuple[float, PauliString]]"
    ) -> "PauliSum":
        coeffs = tuple(c for c, _ in terms)
        strings = tuple(s for _, s in terms)
        return cls(n_qubits, coeffs, strings)

    @property
    def num_terms(self) -> int:
        return len(self.strings)

    @property
    def terms(self) -> tuple[tuple[float, PauliString], ...]:
        return tuple(zip(self.coefficients, self.strings))

    @property
    def weight_l1(self) -> float:
        """Sum of coefficient magnitudes; an upper bound on the 2-norm."""
        return float(sum(abs(c) for c in self.coefficients))

    def scaled(self, factor: float) -> "PauliSum":
        return PauliSum(
            self.n_qubits,
            tuple(factor * c for c in self.coefficients),
            self.strings,
        )

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """Matrix-free action on a raw amplitude vector."""
        out = np.zeros(1 << self.n_qubits, dtype=complex)
        for c, s in zip(self.coefficients, self.strings):
            out += c * apply_pauli_string(s, amplitudes)
        return out


def parse_pauli_sum(text: str) -> PauliSum:
    """Parse the line-oriented ``<coefficient> <label>`` text format.

    ``#`` starts a comment, blank lines are skipped, labels must share one
    register width, and duplicate strings merge by summing coefficients.
    Raises :class:`PauliParseError` with the 1-based line number on any
    malformed line.
    """
    terms: list[tuple[float, PauliString]] = []
    n_qubits = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise PauliParseError(
                lineno, f"expected '<coefficient> <label>', got {raw.strip()!r}"
            )
        try:
            coeff = float(parts[0])
        except ValueError:
            coeff = math.nan
        if not math.isfinite(coeff):
            raise PauliParseError(lineno, f"bad coefficient {parts[0]!r}")
        try:
            string = PauliString.from_label(parts[1])
        except ValueError as exc:
            raise PauliParseError(lineno, str(exc)) from None
        if n_qubits is None:
            n_qubits = string.n_qubits
        elif string.n_qubits != n_qubits:
            raise PauliParseError(
                lineno,
                f"label width {string.n_qubits} differs from first width {n_qubits}",
            )
        terms.append((coeff, string))
    if n_qubits is None:
        raise PauliParseError(1, "no Pauli terms found")
    return PauliSum.from_terms(n_qubits, terms)


def format_pauli_sum(psum: PauliSum) -> str:
    """Inverse of :func:`parse_pauli_sum` up to term order and merging."""
    lines = [f"{c!r} {s.label}" for c, s in psum.terms]
    return "\n".join(lines) + "\n"


def build_tfim(n_qubits: int, coupling: float, field: float) -> PauliSum:
    """Open-boundary transverse-field Ising chain.

    ``H = -coupling * sum_i Z_i Z_{i+1} - field * sum_i X_i`` with
    ``2 * n_qubits - 1`` terms when both couplings are nonzero; a zero
    coupling or field drops its term group entirely. Requires
    ``n_qubits >= 2``.
    """
    if n_qubits < 2:
        raise ValueError(f"TFIM chain needs at least 2 qubits, got {n_qubits}")
    terms: list[tuple[float, PauliString]] = []
    if coupling != 0.0:
        for i in range(n_qubits - 1):
            bits = (1 << (n_qubits - 1 - i)) | (1 << (n_qubits - 2 - i))
            terms.append((-coupling, PauliString(n_qubits, 0, bits)))
    if field != 0.0:
        for i in range(n_qubits):
            terms.append((-field, PauliString.single(n_qubits, i, "X")))
    if not terms:
        raise DegenerateInputError("coupling and field cannot both be zero")
    return PauliSum.from_terms(n_qubits, terms)


def to_dense(psum: PauliSum) -> np.ndarray:
    """Dense complex matrix of a Pauli sum.

    Refuses registers above :data:`DENSE_QUBIT_CAP` qubits. Each string
    contributes one nonzero per column, so assembly is O(terms * 2^n).
    """
    if psum.n_qubits > DENSE_QUBIT_CAP:
        raise ResourceCapError(
            f"dense matrix on {psum.n_qubits} qubits exceeds the "
            f"{DENSE_QUBIT_CAP}-qubit cap"
        )
    n = 1 << psum.n_qubits
    out = np.zeros((n, n), dtype=complex)
    idx = np.arange(n)
    for c, s in zip(psum.coefficients, psum.strings):
        n_y = (s.x_mask & s.z_mask).bit_count()
        vals = c * (1j) ** n_y * (-1.0) ** _parity(idx, s.z_mask)
        out[idx ^ s.x_mask, idx] += vals
    return out


def sort_by_weight(psum: PauliSum) -> PauliSum:
    """Reorder terms by descending |coefficient|.

    Ties break by ascending canonical string encoding so the order is a
    pure function of the operator.
    """
    order = sorted(
        psum.terms, key=lambda t: (-abs(t[0]), t[1].sort_key)
    )
    return PauliSum.from_terms(psum.n_qubits, order)


def partial_sum_observables(psum: PauliSum, count: int) -> list[PauliSum]:
    """Nested partial sums of a Hamiltonian, largest terms first.

    The first observable is the full operator; each subsequent one drops
    the smallest-|coefficient| remaining term. ``count`` may exceed the
    term count by one, in which case the last observable is the zero
    operator.
    """
    m = psum.num_terms
    if not 1 <= count <= m + 1:
        raise ValueError(f"count must lie in [1, {m + 1}], got {count}")
    ordered = sort_by_weight(psum)
    out = []
    for j in range(count):
        keep = ordered.terms[: m - j]
        out.append(PauliSum.from_terms(psum.n_qubits, list(keep)))
    return out


def random_one_local(n_qubits: int, count: int, seed: int) -> list[PauliSum]:
    """Draw distinct single-qubit Pauli observables, coefficient 1.

    The pool has ``3 * n_qubits`` entries (X, Y, Z on each qubit); draws
    are uniform without replacement and deterministic under ``seed``.
    """
    pool = 3 * n_qubits
    if not 1 <= count <= pool:
        raise ValueError(f"count must lie in [1, {pool}], got {count}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(pool, size=count, replace=False)
    out = []
    for p in picks:
        string = PauliString.single(n_qubits, int(p) // 3, AXES[1 + int(p) % 3])
        out.append(PauliSum(n_qubits, (1.0,), (string,)))
    return out


@dataclass(frozen=True, slots=True)
class AffineShift:
    """Invertible linear map between original and rescaled energy axes.

    ``shifted = scale * original``; :meth:`to_original` undoes the map.
    """

    scale: float

    def __post_init__(self):
        if self.scale == 0.0 or not math.isfinite(self.scale):
            raise ValueError(f"scale must be finite and nonzero, got {self.scale}")

    def to_shifted(self, energy):
        return self.scale * np.asarray(energy)

    def to_original(self, energy):
        return np.asarray(energy) / self.scale


def shift_and_scale(
    psum: PauliSum, safety_fraction: float = 0.9
) -> tuple[PauliSum, AffineShift]:
    """Rescale a Hamiltonian into ``[-C*pi, C*pi]``.

    Parameters
    ----------
    psum : PauliSum
        Operator to transform. Its coefficient 1-norm, which always
        dominates the 2-norm, bounds the spectral radius.
    safety_fraction : float
        ``C`` in ``(0, 1)``; the transformed spectrum stays strictly
        inside ``[-C*pi, C*pi]`` so eigenphases cannot wrap.

    Returns
    -------
    (PauliSum, AffineShift)
        The transformed operator and the map from original to shifted
        energies (invert with :meth:`AffineShift.to_original`).
    """
    if not 0.0 < safety_fraction < 1.0:
        raise ValueError(f"safety_fraction must lie in (0, 1), got {safety_fraction}")
    half_range = psum.weight_l1
    if half_range <= 0.0:
        raise DegenerateInputError(
            "spectral bound must be positive; the zero operator cannot be rescaled"
        )
    scale = safety_fraction * math.pi / half_range
    return psum.scaled(scale), AffineShift(scale=scale)
