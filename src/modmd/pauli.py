"""Pauli-string algebra for qubit Hamiltonians and observables.

Operators are represented as real-weighted sums of Pauli strings. A string
is encoded by two bitmasks (X-type and Z-type supports); Y carries both
bits. Qubit 0 is the leftmost character of a text label and maps to the
most significant bit of a computational-basis index, so ``int(bits, 2)``
of a bitstring label is the index of the matching basis state.
"""

from __future__ import annotations

import functools
import itertools
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


def _parity(indices: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Parity of the bit counts of ``indices & masks``, as a 0/1 int array;
    the two broadcast. Halving shifts fold every bit onto the lowest."""
    bits, shift, top = indices & masks, 1, int(masks.max(initial=0))
    while shift < top.bit_length():
        bits ^= bits >> shift
        shift *= 2
    return bits & 1


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
            seen[s] = seen[s] + float(c) if s in seen else float(c)
        object.__setattr__(self, "coefficients", tuple(seen.values()))
        object.__setattr__(self, "strings", tuple(seen))

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
        """Matrix-free action on a raw amplitude vector, each string a phased
        permutation of the basis (:func:`_entries`), summed in string order."""
        states = np.arange(1 << self.n_qubits)
        targets, values = _entries(self.terms, states)
        out = np.zeros(len(states), dtype=complex)
        for target, value in zip(targets, values * amplitudes):
            out[target] += value  # a string permutes the basis: no target repeats
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
    """Dense matrix of a Pauli sum, real when every string has an even number
    of Y factors; each entry sums its strings' :func:`_entries` in string order,
    O(terms * 2^n). :func:`_check_dense_memory` refuses a too wide register first."""
    _check_dense_memory(1 << psum.n_qubits)
    states = np.arange(1 << psum.n_qubits)
    targets, values = _entries(psum.terms, states)
    dense = np.zeros((len(states), len(states)), dtype=values.dtype)
    np.add.at(dense, (targets, states), values)
    return dense


def _sector_states(n_qubits: int, particles: int) -> np.ndarray:
    """The basis indices holding ``particles`` ones, ascending."""
    bits = [1 << q for q in range(n_qubits)]
    return np.array(sorted(map(sum, itertools.combinations(bits, particles))), dtype=np.int64)


def _entries(terms, columns: np.ndarray):
    """``(targets, values)``, each ``(terms, columns)``: term ``i``, a
    ``(coefficient, string)``, sends basis state ``columns[j]`` to
    ``targets[i, j]`` with amplitude ``values[i, j]`` (real when every string
    has an even number of Y factors)."""
    y_counts = [(s.x_mask & s.z_mask).bit_count() for _, s in terms]
    real = all(n_y % 2 == 0 for n_y in y_counts)
    factors = np.array([
        c * ((-1.0) ** (n_y // 2) if real else (1j) ** n_y)
        for (c, _), n_y in zip(terms, y_counts)
    ], dtype=float if real else complex)
    x_masks, z_masks = (
        np.array([getattr(s, mask) for _, s in terms], dtype=np.int64)[:, None]
        for mask in ("x_mask", "z_mask")
    )
    return columns ^ x_masks, factors[:, None] * (-1.0) ** _parity(columns, z_masks)


def _locate(rows: np.ndarray, targets: np.ndarray):
    """``(at, inside)``, each shaped as ``targets``: ``inside`` marks a
    target found among the ascending ``rows``, at ``at``."""
    at = np.minimum(np.searchsorted(rows, targets), len(rows) - 1)
    return at, rows[at] == targets


def _probes(observables, references: np.ndarray):
    """``(reach, rows)``: ``rows[i]`` holds ``observables[i] |phi>``, for
    ``phi`` the equal superposition of the basis states ``references``, on
    ``reach``, the ascending states a string sends a reference to. One
    :func:`_entries` pass; each amplitude adds its terms in string order,
    so the rows are :meth:`PauliSum.apply`'s entries bit for bit."""
    terms = [term for o in observables for term in o.terms]
    owner = np.repeat(np.arange(len(observables)), [o.num_terms for o in observables])
    reach = np.sort(np.bitwise_xor.outer([s.x_mask for _, s in terms], references), axis=None)
    reach = reach[np.diff(reach, prepend=-1) != 0]  # np.unique would load numpy.ma
    targets, values = _entries(terms, references)
    at, _ = _locate(reach, targets)
    rows = np.zeros((len(observables), len(reach)), dtype=complex)
    amplitude = 1.0 / math.sqrt(len(references))  # multiplied in, as in apply(phi)
    np.add.at(rows, (owner[:, None], at), values * amplitude)
    return reach, rows


def _leak(psum: PauliSum, states: np.ndarray) -> float:
    """The largest magnitude of an entry of the matrix of ``psum`` from the
    ascending ``states`` to any other state, summed per (row, column) across
    strings: strings that cancel (as ``XX + YY`` do) leak nothing."""
    targets, values = _entries(psum.terms, states)
    _, inside = _locate(states, targets)
    index = np.broadcast_to(np.arange(len(states)), targets.shape)
    _, where = np.unique(targets[~inside] * len(states) + index[~inside], return_inverse=True)
    leaked = values[~inside]
    net = np.hypot(np.bincount(where, leaked.real), np.bincount(where, leaked.imag))
    return float(net.max(initial=0.0))


def _reflected(n_qubits: int, states):
    """Basis indices (an int or an array) with their qubit order reversed."""
    out = states & 0
    for q in range(n_qubits):
        out |= ((states >> q) & 1) << (n_qubits - 1 - q)
    return out


def _symmetry_blocks(psum: PauliSum, states: np.ndarray):
    """Yield ``(block, images, weights)`` per symmetry sector of ``psum`` on
    the ascending basis ``states``, whose eigenvectors together are those
    of the matrix ``H`` of ``psum`` on ``states``.

    The symmetries are read exactly from the strings. The spin flip ``X^n``
    commutes with ``H`` when every string has an even number of Z and Y
    factors; the reversal of qubit order when it maps the ``{string:
    coefficient}`` map onto itself. Each is kept only if it maps ``states``
    onto themselves (a particle sector keeps the flip only at half filling)
    and acts on them as no element found before it.
    They generate an abelian group ``G`` of order 1, 2 or 4, and every
    character ``chi`` of ``G`` (Sandvik, AIP Conf. Proc. 1297, 135 (2010))
    gives one block, over the orbit representatives ``r`` (the lowest
    state of each orbit) whose stabilizer ``chi`` is trivial on:

        ``block[a, b] = |G| / (N_a N_b) sum_g chi(g) <r_a|H|g r_b>``,

    with ``N_r = sqrt(|G| |Stab_r|)``. Its basis vectors are ``sum_g chi(g)
    |g r_a> / N_a``: ``images[g, a]`` is the position of ``g r_a`` in
    ``states`` and ``weights[g, a]`` is ``chi(g) / N_a``. Each block's
    matrix is built only when the previous one has been taken.
    """
    n, m = psum.n_qubits, len(states)
    generators = []
    if all(s.z_mask.bit_count() % 2 == 0 for s in psum.strings):
        generators.append(states ^ ((1 << n) - 1))
    terms = {(s.x_mask, s.z_mask): c for c, s in psum.terms}
    mirrored = {(_reflected(n, x), _reflected(n, z)): c for (x, z), c in terms.items()}
    if mirrored == terms:
        generators.append(_reflected(n, states))
    images = [np.arange(m)]  # positions of g(states), one row per element g
    for image in generators:
        if np.array_equal(np.sort(image), states):
            image = np.searchsorted(states, image)
            if not any(np.array_equal(image, g) for g in images):
                images += [image[g] for g in images]
    images = np.array(images)
    order = len(images)
    reps = np.flatnonzero(images.min(axis=0) == np.arange(m))
    stabilized = images[:, reps] == reps
    counts = stabilized.sum(axis=0)
    # <r_a|H|g r_b> of every string, element g and pair of representatives
    targets, values = _entries(psum.terms, states[images[:, reps].ravel()])
    at, inside = _locate(states[reps], targets)
    rows, values = at[inside], values[inside]
    group, columns = np.divmod(np.nonzero(inside)[1], len(reps))
    for signs in itertools.product((1.0, -1.0), repeat=order.bit_length() - 1):
        chi = np.ones(1)
        for sign in signs:
            chi = np.concatenate([chi, sign * chi])
        admitted = chi @ stabilized == counts
        if not admitted.any():
            continue
        norms = np.sqrt(order * counts[admitted])
        local, inside = np.cumsum(admitted) - 1, admitted[rows] & admitted[columns]
        block = np.zeros((len(norms), len(norms)), dtype=values.dtype)
        at = (local[rows[inside]], local[columns[inside]])
        np.add.at(block, at, chi[group[inside]] * values[inside])
        block *= order / np.multiply.outer(norms, norms)
        del local, inside, at
        yield block, images[:, reps[admitted]], chi[:, None] / norms
        del block


def _check_dense_memory(dimension: int) -> None:
    """Refuse a dense matrix and eigenbasis, counted as two complex
    ``dimension x dimension`` arrays, that need more than physical memory.
    That over-counts a real sum, whose blocks and eigenvectors are real,
    and a sum with a symmetry, which is solved in blocks of about a half
    or a quarter of the dimension."""
    need, have = 2 * 16 * dimension**2, _physical_memory_bytes()
    if need > have:
        raise ResourceCapError(
            f"a dense matrix and eigenbasis of dimension {dimension} need "
            f"{need / 1e9:.1f} GB, more than the {have / 1e9:.1f} GB of physical memory"
        )


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
