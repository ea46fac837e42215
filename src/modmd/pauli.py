"""Pauli-string algebra for qubit Hamiltonians and observables.

Operators are represented as real-weighted sums of Pauli strings. A string
is encoded by two bitmasks (X-type and Z-type supports); Y carries both
bits. Qubit 0 is the leftmost character of a text label and maps to the
most significant bit of a computational-basis index, so ``int(bits, 2)``
of a bitstring label is the index of the matching basis state.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInputError, PauliParseError, ResourceCapError

AXES = "IXYZ"


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
    """Dense matrix of a Pauli sum: real when every string has an even
    number of Y factors (so a real phase), complex otherwise.

    Refuses, before allocating, a register too wide for
    :func:`_check_dense_memory`. Each string contributes one nonzero per
    column, so assembly is O(terms * 2^n).
    """
    _check_dense_memory(psum.n_qubits)
    n = 1 << psum.n_qubits
    y_counts = [(s.x_mask & s.z_mask).bit_count() for s in psum.strings]
    real = all(n_y % 2 == 0 for n_y in y_counts)
    out = np.zeros((n, n), dtype=float if real else complex)
    idx = np.arange(n)
    for c, s, n_y in zip(psum.coefficients, psum.strings, y_counts):
        phase = (-1.0) ** (n_y // 2) if real else (1j) ** n_y
        out[idx ^ s.x_mask, idx] += c * phase * (-1.0) ** _parity(idx, s.z_mask)
    return out


def _check_dense_memory(n_qubits: int) -> None:
    """Refuse a register whose matrix and eigenbasis (counted as two complex
    ``2^n x 2^n`` arrays) would not fit in physical memory.

    The count covers a complex sum and over-counts a real one: its matrix
    and eigenbasis are real, and the spin-flip split frees the matrix
    before it allocates the basis."""
    need, have = 2 * 16 * 4**n_qubits, _physical_memory_bytes()
    if need > have:
        raise ResourceCapError(
            f"dense matrix and eigenbasis on {n_qubits} qubits need "
            f"{need / 1e9:.1f} GB, more than the {have / 1e9:.1f} GB of "
            "physical memory"
        )


def _largest_magnitude(m: np.ndarray) -> float:
    """``max |m_ij|`` (0 if empty), with no temporary the size of ``m``:
    from the extremes of a real matrix, in strips of 64 rows of a complex
    one."""
    if np.iscomplexobj(m):
        strips = range(0, len(m), 64)
        return max((np.abs(m[i : i + 64]).max(initial=0.0) for i in strips), default=0.0)
    return max(m.max(initial=0.0), -m.min(initial=0.0))


def _physical_memory_bytes() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


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


@functools.cache
def one_local_pool(n_qubits: int) -> "tuple[PauliSum, ...]":
    """The ``3 * n_qubits`` single-qubit Paulis X, Y, Z on each qubit in
    turn, coefficient 1; built once per register width."""
    return tuple(
        PauliSum(n_qubits, (1.0,), (PauliString.single(n_qubits, q, axis),))
        for q in range(n_qubits)
        for axis in AXES[1:]
    )


def random_one_local(n_qubits: int, count: int, seed: int) -> list[PauliSum]:
    """Draw distinct single-qubit Pauli observables, coefficient 1.

    Draws are entries of :func:`one_local_pool`, uniform without
    replacement and deterministic under ``seed``.
    """
    pool = one_local_pool(n_qubits)
    if not 1 <= count <= len(pool):
        raise ValueError(f"count must lie in [1, {len(pool)}], got {count}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(pool), size=count, replace=False)
    return [pool[p] for p in picks]


def shift_and_scale(
    psum: PauliSum, safety_fraction: float = 0.9
) -> tuple[PauliSum, float]:
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
    (PauliSum, float)
        The transformed operator and the factor ``scale`` that maps
        original energies onto it (``shifted = scale * original``).
    """
    if not 0.0 < safety_fraction < 1.0:
        raise ValueError(f"safety_fraction must lie in (0, 1), got {safety_fraction}")
    half_range = psum.weight_l1
    if not 0.0 < half_range < math.inf:
        raise DegenerateInputError(
            f"spectral bound must be positive and finite, got {half_range}"
        )
    scale = safety_fraction * math.pi / half_range
    return psum.scaled(scale), scale
