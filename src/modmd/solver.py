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

import numpy as np

from .errors import DegenerateInputError, EigenvalueShortfallError
from .simulate import MultiObservableSignal

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


@dataclass(frozen=True, slots=True)
class HankelPair:
    """Time-aligned snapshot matrices ``x`` and its one-step shift ``xp``.

    Row ``a * n_observables + i`` of ``x`` holds observable ``i`` delayed
    by ``a`` steps; column ``k`` is time ``k * dt``.
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
    ``K + 1`` fully populated columns.
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
    x = np.empty((d * n_obs, K + 1), dtype=vals.dtype)
    xp = np.empty_like(x)
    for a in range(d):
        x[a * n_obs : (a + 1) * n_obs] = vals[:, a : a + K + 1]
        xp[a * n_obs : (a + 1) * n_obs] = vals[:, a + 1 : a + K + 2]
    return HankelPair(x=x, xp=xp, n_observables=n_obs)


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
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0, 1), got {threshold}")
    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    factors = None
    if threshold >= GRAM_MIN_THRESHOLD:
        factors = _gram_factors(matrix, threshold)
    if factors is None:
        u, s, vh = np.linalg.svd(matrix, full_matrices=False)
        if s[0] == 0.0:
            raise DegenerateInputError("all-zero matrix has no pseudo-inverse")
        rank = int(np.count_nonzero(s > threshold * s[0]))
        factors = u[:, :rank], s, vh[:rank]
    left, s, right = factors
    rank = left.shape[1]
    return TruncatedPinv(
        left=left,
        inv_singular=1.0 / s[:rank],
        right=right,
        singular_values=s,
        rank=rank,
    )


def _gram_factors(
    matrix: np.ndarray, threshold: float
) -> "tuple[np.ndarray, np.ndarray, np.ndarray] | None":
    """``(U_r, sigma, V_r^H)`` of :func:`truncated_pinv` by the method of
    snapshots, or None when the squares leave the float range:
    ``trace(gram) = sum(sigma^2)`` bounds every Gram entry, so a finite
    trace means no entry overflowed, and its lower bound keeps every
    retained ``sigma^2`` above underflow. The zero matrix and non-finite
    input fail it too, and reach the SVD's errors."""
    tall = matrix.shape[0] >= matrix.shape[1]
    adjoint = matrix.conj().T
    with np.errstate(over="ignore", invalid="ignore"):
        gram = adjoint @ matrix if tall else matrix @ adjoint
    total = abs(np.trace(gram))
    if not len(gram) * np.finfo(gram.dtype).tiny < threshold**2 * total < np.inf:
        return None
    eigvals, vectors = np.linalg.eigh(gram)
    s = np.sqrt(np.clip(eigvals[::-1], 0.0, None))
    rank = int(np.count_nonzero(s > threshold * s[0]))
    basis = vectors[:, ::-1][:, :rank]
    if tall:
        return (matrix @ basis) / s[:rank], s, basis.conj().T
    return basis, s, (basis.conj().T @ matrix) / s[:rank, None]


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

    def propagator(self) -> np.ndarray:
        """The full square propagator ``A = B U_r^H``."""
        return self.b_matrix @ self.pinv.left.conj().T


def fit_propagator(pair: HankelPair, pinv: TruncatedPinv) -> PropagatorFit:
    """Least-squares propagator of a snapshot pair, given the truncated
    pseudo-inverse of ``pair.x`` from :func:`truncated_pinv`."""
    if pinv.left.shape[0] != pair.x.shape[0] or pinv.right.shape[1] != pair.x.shape[1]:
        raise ValueError("pseudo-inverse shape does not match the snapshot pair")
    b_matrix = (pair.xp @ pinv.right.conj().T) * pinv.inv_singular
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
        left_rows, vr = left_rows @ fit.pinv.left.conj().T, fit.b_matrix @ vr
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
    the direct difference does not cancel when the residual is small."""
    denom = np.linalg.norm(pair.xp)
    if denom == 0.0:
        raise DegenerateInputError("all-zero shifted matrix has no residual")
    pinv = fit.pinv
    fitted = (fit.b_matrix * pinv.singular_values[: pinv.rank]) @ pinv.right
    return float(np.linalg.norm(pair.xp - fitted) / denom)


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
    trailing rows of ``B`` are ever read.
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
    for m in range(horizon):
        states[:, m] = z
        z = step @ z
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
