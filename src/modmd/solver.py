"""Block-Hankel least-squares spectral estimation from multi-observable signals.

The pipeline stacks time-shifted copies of every observable's series into
a Hankel matrix pair, fits the one-step linear propagator through a
rank-truncated pseudo-inverse, and reads eigenenergies off the phases of
the propagator's eigenvalues. A single observable reduces the method to
classic single-signal harmonic retrieval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateInputError, EigenvalueShortfallError
from .simulate import MultiObservableSignal, _matmul

# Left/right eigenvector pairings with |l||r| / |<l|r>| above this are
# reported as ill-conditioned (near-defective propagator). The left rows are
# the rows of the inverse right-eigenvector matrix; a pairing past 1e14 (an
# exact Jordan block gives about 1/eps) or an exactly singular eigenvector
# matrix reports the condition as inf.
CONDITION_FLAG = 1e8

# Relative cutoffs at or above this take the pseudo-inverse from the
# eigendecomposition of the smaller Gram matrix; smaller ones take the full
# SVD. The Gram squares the condition number, so a singular value
# ``t * sigma_1`` carries a relative error of about ``eps / t^2``. This is the
# smallest power of ten at which every retained singular value of a dense
# 14-decade spectrum still agrees with the SVD's to sqrt(eps); the oracle
# test in tests/test_solver.py checks that it holds here and fails a decade
# lower.
GRAM_MIN_THRESHOLD = 1e-4

# Rows of the model ``A x`` that :func:`residual`, and of a complex Gram
# that :func:`_gram`, forms at a time: a block is a small fraction of the
# snapshots at a sweep's sizes, and large enough for one matrix product per
# block.
BLOCK_ROWS = 64


@dataclass(frozen=True, slots=True)
class HankelPair:
    """Time-aligned snapshot matrices ``x`` and its one-step shift ``xp``.

    Row ``a * n_observables + i`` of ``x`` holds observable ``i`` delayed
    by ``a`` steps; column ``k`` is time ``k * dt``. From
    :func:`build_hankel` both are read-only column windows of one
    ``K + 2``-column array, so they share memory.
    """

    x: np.ndarray
    xp: np.ndarray
    n_observables: int


@dataclass(frozen=True, slots=True)
class TruncatedPinv:
    """Rank-truncated pseudo-inverse in factored SVD form.

    ``left`` is ``U_r``, ``right`` is ``V_r^H`` and ``inv_singular`` is
    ``1 / sigma_r``. ``singular_values`` holds all ``min(m, n)`` of them,
    descending. On the Gram path (a threshold of at least
    ``GRAM_MIN_THRESHOLD``) they are square roots of the Gram eigenvalues
    clipped at zero: those below about ``sqrt(eps) * sigma_1`` are not
    accurate values and only count against the threshold.
    """

    left: np.ndarray
    inv_singular: np.ndarray
    right: np.ndarray
    singular_values: np.ndarray
    rank: int

    def as_matrix(self) -> np.ndarray:
        return (self.right.conj().T * self.inv_singular) @ self.left.conj().T


@dataclass(frozen=True, slots=True)
class ModmdEstimate:
    """Spectral estimate extracted from the fitted propagator.

    Arrays are aligned: entry ``n`` holds the ``n``-th retained
    eigenvalue (descending phase, i.e. ascending energy), its energy
    ``-arg(lambda_n) / dt``, its modulus, and the matched left
    eigenvector row. The least-squares truncation of a fit is described
    by its :class:`TruncatedPinv` (``fit.pinv``).
    """

    eigenvalues: np.ndarray
    energies: np.ndarray
    magnitudes: np.ndarray
    left_vectors: np.ndarray
    eigenvector_condition: float
    ill_conditioned: bool


def build_hankel(signal: MultiObservableSignal, d: int, K: int) -> HankelPair:
    """Stack ``d`` time shifts of every observable into a snapshot pair.

    Requires ``signal.n_steps >= K + d + 1`` so that both matrices have
    ``K + 1`` fully populated columns. ``x`` and ``xp`` are the first and
    last ``K + 1`` columns of one read-only block-Hankel array.
    """
    if d < 1 or K < 1:
        raise ValueError(f"need d >= 1 and K >= 1, got d={d}, K={K}")
    needed = K + d + 1
    if signal.n_steps < needed:
        raise ValueError(
            f"signal has {signal.n_steps} samples but d={d}, K={K} "
            f"requires {needed}"
        )
    n_obs = signal.n_observables
    vals = signal.values
    stack = np.empty((d * n_obs, K + 2), dtype=vals.dtype)
    for a in range(d):
        stack[a * n_obs : (a + 1) * n_obs] = vals[:, a : a + K + 2]
    stack.flags.writeable = False  # a write through xp would change x
    return HankelPair(x=stack[:, :-1], xp=stack[:, 1:], n_observables=n_obs)


def truncated_pinv(matrix: np.ndarray, threshold: float) -> TruncatedPinv:
    """Pseudo-inverse keeping singular values strictly above
    ``threshold * sigma_max``.

    A value exactly at the cutoff is discarded. The factored form keeps
    the full singular spectrum for diagnostics. A threshold of at least
    ``GRAM_MIN_THRESHOLD`` takes the method of snapshots: the ``eigh`` of
    the smaller Gram matrix, ``x^H x`` for a tall ``x`` or ``x x^H`` for a
    wide one, gives ``sigma^2`` and one singular basis, and the other is
    ``x V_r / sigma_r`` or ``U_r^H x / sigma_r``. Smaller thresholds, and
    matrices whose squares leave the float range, take the full SVD.
    """
    _check_threshold(threshold)
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    solved = None
    if threshold >= GRAM_MIN_THRESHOLD:
        solved = _gram_basis(_gram(matrix), threshold)
    return _pinv(matrix, threshold, solved)


def _fit_window(
    signal: MultiObservableSignal,
    d: int,
    K: int,
    threshold: float,
    lap: "Callable[[str], None]" = lambda stage: None,
) -> "tuple[HankelPair, PropagatorFit]":
    """The Hankel pair of a window and its fit: ``build_hankel(signal, d,
    K)`` and ``fit_propagator(pair, truncated_pinv(pair.x, threshold))``,
    bit for bit, without the snapshot stack alive during the Gram ``eigh``.

    On the Gram path the stack is built for its Gram, released, and built
    again for the lift, so the fit's high-water mark is one stack or the
    Gram solve, not both. The SVD fallback builds it once and holds it
    through the SVD. ``lap(stage)`` is called as each stage ends:
    ``"hankel_s"`` after each stack is built, ``"pinv_s"`` after the Gram
    solve and after the lift and propagator fit.
    """
    _check_threshold(threshold)
    solved = None
    if threshold >= GRAM_MIN_THRESHOLD:
        x = build_hankel(signal, d, K).x
        lap("hankel_s")
        gram = _gram(x)
        del x  # releases the stack: only its Gram is alive during the eigh
        solved = _gram_basis(gram, threshold)
        lap("pinv_s")
    pair = build_hankel(signal, d, K)
    lap("hankel_s")
    fit = fit_propagator(pair, _pinv(pair.x, threshold, solved))
    lap("pinv_s")
    return pair, fit


def _fit_bytes(rows: int, K: int) -> int:
    """Estimated bytes of :func:`_fit_window` on a real window of ``rows``
    snapshot rows (``d`` shifts of every observable) and ``K + 1`` columns,
    in 8-byte reals: the snapshot stack, ``rows x (K + 2)``, plus the Gram
    of side ``n = min(rows, K + 1)``, the ``eigh``'s copy of it, its
    eigenvectors and its ``2n^2 + 6n`` workspace. The lift's factors,
    ``rows x rank`` each, are not counted: a sweep's fit keeps a few levels
    above the noise, not a rank near ``n``."""
    n = min(rows, K + 1)
    return 8 * (rows * (K + 2) + 5 * n * n + 6 * n)


def _check_threshold(threshold: float) -> None:
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")


def _gram(matrix: np.ndarray) -> np.ndarray:
    """The smaller Gram matrix: ``x^H x`` for a tall ``x``, ``x x^H`` for
    a wide one. Entries that overflow are left for :func:`_gram_basis`.

    A real ``x`` takes one product. A complex one is formed
    ``BLOCK_ROWS`` Gram rows at a time, each from the conjugate of one
    block of ``x``'s columns (tall) or rows (wide), so that no conjugate
    copy of the whole of ``x`` is made."""
    tall = matrix.shape[0] >= matrix.shape[1]
    side = matrix.T if tall else matrix  # its rows index the Gram's
    with np.errstate(over="ignore", invalid="ignore"):
        if not np.iscomplexobj(matrix):
            return side @ side.T
        gram = np.empty((len(side), len(side)), matrix.dtype)
        for start in range(0, len(side), BLOCK_ROWS):
            rows = slice(start, start + BLOCK_ROWS)
            np.matmul(side[rows].conj(), side.T, out=gram[rows])
    # conj(side) side^T is x^H x for a tall x and conj(x x^H) for a wide one
    return gram if tall else np.conjugate(gram, out=gram)


def _gram_basis(
    gram: np.ndarray, threshold: float
) -> "tuple[np.ndarray, np.ndarray] | None":
    """``(sigma, W_r)`` from the ``eigh`` of a Gram matrix: the singular
    values, descending, and the ``r`` leading eigenvectors, ``V_r`` of a
    tall ``x`` or ``U_r`` of a wide one. None when the squares leave the
    float range: ``trace(gram) = sum(sigma^2)`` bounds every Gram entry, so
    a finite trace means no entry overflowed, and its lower bound keeps
    every retained ``sigma^2`` above underflow. The zero matrix and
    non-finite input fail it too, and reach the SVD's errors."""
    total = abs(np.trace(gram))
    if not len(gram) * np.finfo(gram.dtype).tiny < threshold**2 * total < np.inf:
        return None
    eigvals, vectors = np.linalg.eigh(gram)
    s = np.sqrt(np.clip(eigvals[::-1], 0.0, None))
    rank = int(np.count_nonzero(s > threshold * s[0]))
    return s, vectors[:, ::-1][:, :rank].copy()  # frees the other eigenvectors


def _pinv(
    matrix: np.ndarray,
    threshold: float,
    solved: "tuple[np.ndarray, np.ndarray] | None",
) -> TruncatedPinv:
    """:func:`truncated_pinv` of ``matrix`` from its Gram solve
    (:func:`_gram_basis`), the other singular basis lifted as
    ``x V_r / sigma_r`` or ``U_r^H x / sigma_r``; or, with ``solved``
    None, from the full SVD."""
    if solved is None:
        u, s, vh = np.linalg.svd(matrix, full_matrices=False)
        if s[0] == 0.0:
            raise DegenerateInputError("all-zero matrix has no pseudo-inverse")
        rank = int(np.count_nonzero(s > threshold * s[0]))
        left, right = u[:, :rank], vh[:rank]
    else:
        s, basis = solved
        rank = basis.shape[1]
        if matrix.shape[0] >= matrix.shape[1]:
            left, right = matrix @ basis, basis.conj().T
            left /= s[:rank]
        else:
            left, right = basis, basis.conj().T @ matrix
            right /= s[:rank, None]
    return TruncatedPinv(
        left=left,
        inv_singular=1.0 / s[:rank],
        right=right,
        singular_values=s,
        rank=rank,
    )


@dataclass(frozen=True, slots=True)
class PropagatorFit:
    """Least-squares propagator ``A = xp x^+ = B U_r^H``, kept factored.

    ``b_matrix`` is ``B = xp V_r S_r^-1``; ``reduced`` is the ``r x r``
    exact-DMD operator ``U_r^H B``, whose spectrum is the nonzero one of ``A``.
    """

    pinv: TruncatedPinv
    b_matrix: np.ndarray
    reduced: np.ndarray

    @property
    def rank(self) -> int:
        return self.pinv.rank


def fit_propagator(pair: HankelPair, pinv: TruncatedPinv) -> PropagatorFit:
    """Least-squares propagator of a snapshot pair, given the truncated
    pseudo-inverse of ``pair.x`` from :func:`truncated_pinv`."""
    if pinv.left.shape[0] != pair.x.shape[0] or pinv.right.shape[1] != pair.x.shape[1]:
        raise ValueError("pseudo-inverse shape does not match the snapshot pair")
    b_matrix = pair.xp @ pinv.right.conj().T
    b_matrix *= pinv.inv_singular
    return PropagatorFit(
        pinv=pinv, b_matrix=b_matrix, reduced=pinv.left.conj().T @ b_matrix
    )


def extract_eigen(
    propagator: "np.ndarray | PropagatorFit",
    dt: float,
    n_eig: int,
    magnitude_floor: float = 0.2,
    merge_conjugates: bool = False,
) -> ModmdEstimate:
    """Eigenvalues, energies and left eigenvectors of the propagator.

    ``propagator`` is a square matrix ``A`` or a :class:`PropagatorFit`,
    whose ``r x r`` reduced eigenproblem is solved and lifted (left rows
    ``y U_r^H``, right vectors ``B v``); ``A``'s zero eigenvalues beyond
    rank ``r`` are not reported.
    One ``np.linalg.eig`` gives the eigenvalues and right vectors ``V``; the
    left rows ``y`` are the selected rows of ``V^-1``, which satisfy
    ``y A = lambda y`` and are biorthonormal to ``V``.

    Eigenvalues with modulus below ``magnitude_floor`` are dropped as
    noise artifacts; survivors are ordered by descending phase on the
    principal branch, so index 0 is the lowest energy. Raises
    :class:`EigenvalueShortfallError` (carrying the survivors) when
    fewer than ``n_eig`` remain. With ``merge_conjugates`` set, the
    operator must be real (a real-signal fit), and of each conjugate pair
    of its spectrum only the member with nonnegative imaginary part, the
    negative-energy branch the low-lying spectrum occupies after
    recentering, is reported: LAPACK returns the pairs of a real matrix
    exactly conjugate and its real eigenvalues with zero imaginary part.

    Left rows are scaled biorthonormal to the right eigenvectors when
    the pairing is well conditioned; a near-defective pairing sets
    ``ill_conditioned`` instead of failing. ``eigenvector_condition`` is
    the largest ``|y||v| / |y v|`` over the reported modes, and ``inf`` when
    one exceeds 1e14 or ``V`` is exactly singular (whose left rows then
    come from ``pinv(V)``).
    """
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if n_eig < 1:
        raise ValueError(f"n_eig must be >= 1, got {n_eig}")
    fit = propagator if isinstance(propagator, PropagatorFit) else None
    matrix = propagator if fit is None else fit.reduced
    if merge_conjugates and np.iscomplexobj(matrix):
        raise ValueError("merging conjugate pairs needs a real operator")
    w, vr = np.linalg.eig(matrix)
    keep = np.flatnonzero(np.abs(w) >= magnitude_floor)
    if merge_conjugates:
        keep = keep[w[keep].imag >= 0]
    keep = keep[np.argsort(-np.angle(w[keep]), kind="stable")]
    if len(keep) < n_eig:
        raise EigenvalueShortfallError(n_eig, w[keep], -np.angle(w[keep]) / dt)
    keep = keep[:n_eig]
    try:
        left_rows, singular = np.linalg.inv(vr)[keep], False
    except np.linalg.LinAlgError:
        left_rows, singular = np.linalg.pinv(vr)[keep], True
    w, vr = w[keep], vr[:, keep]
    if fit is not None:
        # real products for real factors: no complex copy of U_r or B
        left_rows = _matmul(left_rows, fit.pinv.left.conj().T)
        vr = _matmul(fit.b_matrix, vr)
        norms = np.linalg.norm(vr, axis=0)  # unit columns, as eig returns
        vr = vr / np.where(norms > 0.0, norms, 1.0)

    pairing = np.sum(left_rows * vr.T, axis=1)
    size = np.linalg.norm(left_rows, axis=1) * np.linalg.norm(vr, axis=0)
    paired = np.abs(pairing) >= 1e-14 * size
    left_rows[paired] /= pairing[paired, None]
    condition = math.inf
    if paired.all() and not singular:
        condition = np.max(size / np.abs(pairing), initial=1.0)

    return ModmdEstimate(
        eigenvalues=w,
        energies=-np.angle(w) / dt,
        magnitudes=np.abs(w),
        left_vectors=left_rows,
        eigenvector_condition=float(condition),
        ill_conditioned=bool(condition > CONDITION_FLAG),
    )


def residual(fit: PropagatorFit, pair: HankelPair) -> float:
    """Relative fit residual ``|xp - A x|_F / |xp|_F``, with ``A x`` formed
    as ``(xp V_r) V_r^H = B S_r V_r^H``; unlike ``|xp|^2 - |xp V_r|^2``,
    the direct difference does not cancel when the residual is small.

    The model is formed and subtracted ``BLOCK_ROWS`` rows at a
    time, one block alive at once, so no array of the snapshots' size is
    allocated."""
    pinv = fit.pinv
    denom = math.sqrt(_sum_of_squares(pair.xp))
    if denom == 0.0:
        raise DegenerateInputError("all-zero shifted matrix has no residual")
    singular = pinv.singular_values[: pinv.rank]
    total = 0.0
    for start in range(0, len(fit.b_matrix), BLOCK_ROWS):
        rows = slice(start, start + BLOCK_ROWS)
        fitted = (fit.b_matrix[rows] * singular) @ pinv.right
        fitted -= pair.xp[rows]  # the norm of A x - xp equals that of xp - A x
        total += _sum_of_squares(fitted)
        del fitted  # before the next block is formed
    return math.sqrt(total) / denom


def _sum_of_squares(matrix: np.ndarray) -> float:
    """``|matrix|_F^2``, summed by ``einsum`` over a real view (each row's
    real and imaginary parts side by side). It reads a strided row window
    in place, where ``np.linalg.norm`` would copy it to ravel it."""
    parts = matrix.view(float)
    return float(np.einsum("ij,ij->", parts, parts))


def forecast(
    propagator: "np.ndarray | PropagatorFit", pair: HankelPair, horizon: int
) -> np.ndarray:
    """Extrapolate the signal by iterating the fitted propagator.

    Starting from the final snapshot column, each multiplication advances
    one step and the trailing observable block is read off. Column ``m``
    of the result is absolute step ``K + d + m``: column 0 coincides with
    the final observed sample when the fit is consistent, and later
    columns extend beyond the data. A zero horizon yields an empty block.

    ``propagator`` is a square matrix ``A`` or a :class:`PropagatorFit`.
    A fit iterates its ``r x r`` operator instead: since ``A = B U_r^H``,
    step ``m`` is ``B Ã^m z`` with ``z = U_r^H x_last``, so only the
    trailing rows of ``B`` are ever read. The first ``w = isqrt(horizon)``
    states are stepped one by one; each next ``w`` are one product of
    ``Ã^w`` with the ``w`` before them.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    n_obs = pair.n_observables
    x_last = pair.x[:, -1]
    if isinstance(propagator, PropagatorFit):
        if propagator.b_matrix.shape[0] != len(x_last):
            raise ValueError("fit state dimension does not match the snapshot pair")
        step, read = propagator.reduced, propagator.b_matrix[-n_obs:]
        z = propagator.pinv.left.conj().T @ x_last
    else:
        step = np.asarray(propagator)
        if step.shape != (len(x_last), len(x_last)):
            raise ValueError("propagator shape does not match the snapshot pair")
        read = None
        z = step @ x_last
    states = np.empty((len(z), horizon), dtype=z.dtype)
    width = math.isqrt(horizon)
    for m in range(width):
        states[:, m] = z
        z = step @ z
    if width < horizon:
        power = np.linalg.matrix_power(step, width)
        for start in range(width, horizon, width):
            stop = min(start + width, horizon)
            states[:, start:stop] = power @ states[:, start - width : stop - width]
    return states[-n_obs:] if read is None else read @ states


def select_time_step(e_min_bound: float, e_max_bound: float) -> float:
    """Sampling interval guaranteeing unambiguous eigenphases.

    ``dt = 2 pi / (2 range)``: the phases ``E dt`` of energies inside the
    bounds then span ``dt * range = pi``, half a turn, so no two levels
    alias.
    """
    spread = e_max_bound - e_min_bound
    if not 0.0 < spread < math.inf:
        raise ValueError(f"need e_max_bound > e_min_bound, got spread {spread}")
    return math.pi / spread


def ground_energy_error_bound(
    d: int,
    dt: float,
    e0: float,
    e1: float,
    e_max: float,
    overlap_sq: float,
) -> float:
    """A priori bound on the noiseless ground-energy error.

    Combines the spectral spread, the reference state's squared overlap
    with the ground state, and a gap-driven convergence factor that
    sharpens geometrically with the number of time shifts ``d``; at
    ``d = 1`` the gap factor drops out entirely.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not dt > 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if not (e0 < e1 <= e_max):
        raise ValueError(f"need e0 < e1 <= e_max, got {(e0, e1, e_max)}")
    if not 0.0 < overlap_sq <= 1.0:
        raise ValueError(f"overlap_sq must lie in (0, 1], got {overlap_sq}")
    amplification = 1.0 + 3.0 * (e1 - e0) * dt / (2.0 * math.pi)
    tan_sq = (1.0 - overlap_sq) / overlap_sq
    return (
        abs(math.sin((e_max - e0) * dt))
        / (amplification ** (2 * (d - 1)) * dt)
        * tan_sq
    )
