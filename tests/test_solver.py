"""Tests for the block-Hankel least-squares spectral estimator."""

import math
import weakref

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, strategies as st

from modmd import (
    DegenerateInputError,
    EigenvalueShortfallError,
    ExperimentConfig,
    HankelPair,
    MultiObservableSignal,
    PauliString,
    PauliSum,
    build_hankel,
    build_observables,
    build_problem,
    build_reference_superposition,
    build_tfim,
    diagonalize,
    exact_signal,
    extract_eigen,
    fit_propagator,
    forecast,
    ground_energy_error_bound,
    measure_signal,
    residual,
    select_time_step,
    shift_and_scale,
    to_dense,
    truncated_pinv,
)
from modmd.harness import depth_for_window
from modmd.solver import (
    CONDITION_FLAG,
    GRAM_MIN_THRESHOLD,
    RESIDUAL_BLOCK_ROWS,
    PropagatorFit,
    TruncatedPinv,
    _fit_window,
    _gram,
    _gram_basis,
)


def mode_signal(phases, coeffs, dt, n_steps):
    """Multi-observable sum-of-phases signal ``sum_j c_ij e^{-i E_j k dt}``."""
    phases = np.asarray(phases, dtype=float)
    coeffs = np.atleast_2d(np.asarray(coeffs, dtype=complex))
    k = np.arange(n_steps)
    basis = np.exp(-1j * np.outer(phases, k * dt))
    return MultiObservableSignal(
        coeffs.shape[0], dt, coeffs @ basis, mode="complex"
    )


# Phases of a conjugate pair cancel to this tolerance in merge_by_loop.
CONJUGATE_PHASE_ATOL = 1e-8


def merge_by_loop(eigenvalues):
    """Greedy pairwise conjugate merge by phase tolerance: the reference for
    the realness rule of ``extract_eigen`` on a real operator."""
    args = np.angle(eigenvalues)
    keep = np.ones(len(eigenvalues), dtype=bool)
    used = np.zeros(len(eigenvalues), dtype=bool)
    for i in range(len(eigenvalues)):
        if used[i] or args[i] >= 0:
            continue
        for j in range(len(eigenvalues)):
            if j == i or used[j] or args[j] < 0:
                continue
            if abs(args[i] + args[j]) <= CONJUGATE_PHASE_ATOL:
                keep[i] = False
                used[i] = used[j] = True
                break
    return keep


def rotation(theta):
    """Real 2 x 2 block with the conjugate eigenvalues ``exp(+-i theta)``."""
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def turned(blocks, seed):
    """Real block-diagonal operator in a random orthonormal basis."""
    a = scipy.linalg.block_diag(*blocks)
    q = np.linalg.qr(np.random.default_rng(seed).standard_normal(a.shape))[0]
    return q @ a @ q.T


def fitted(pair, threshold):
    return fit_propagator(pair, truncated_pinv(pair.x, threshold))


def fit_chain(signal, d, K, threshold, n_eig):
    """The single fit entry: Hankel pair, truncated pseudo-inverse,
    propagator fit and eigensolve, merging conjugate pairs of a real
    signal. Returns the fit and its estimate."""
    fit = fitted(build_hankel(signal, d, K), threshold)
    estimate = extract_eigen(
        fit, signal.dt, n_eig, merge_conjugates=signal.mode == "real"
    )
    return fit, estimate


def full_propagator(pair, threshold):
    """The fit's full square propagator ``A = B U_r^H``."""
    return pair.xp @ fitted(pair, threshold).pinv.as_matrix()


def tfim6_problem():
    """Scaled 6-qubit chain with a sparse reference, ~0.34 ground overlap."""
    h = build_tfim(6, 1.0, 1.0)
    scaled, scale = shift_and_scale(h)
    spec = diagonalize(to_dense(scaled))
    phi0 = build_reference_superposition(
        6, ["000000", "111111", "100000", "000111"]
    )
    return spec, scale, phi0


class TestBuildHankel:
    def test_single_observable_layout(self):
        signal = MultiObservableSignal(
            1, 1.0, np.arange(4, dtype=float)[None, :], mode="real"
        )
        pair = build_hankel(signal, d=2, K=1)
        np.testing.assert_array_equal(pair.x, [[0.0, 1.0], [1.0, 2.0]])
        np.testing.assert_array_equal(pair.xp, [[1.0, 2.0], [2.0, 3.0]])

    def test_block_row_ordering(self):
        # row a * n_obs + i must hold observable i delayed by a steps
        vals = np.arange(10.0).reshape(2, 5)
        signal = MultiObservableSignal(2, 0.5, vals, mode="real")
        pair = build_hankel(signal, d=2, K=2)
        assert pair.x.shape == (4, 3)
        np.testing.assert_array_equal(pair.x[0], vals[0, 0:3])
        np.testing.assert_array_equal(pair.x[1], vals[1, 0:3])
        np.testing.assert_array_equal(pair.x[2], vals[0, 1:4])
        np.testing.assert_array_equal(pair.x[3], vals[1, 1:4])
        np.testing.assert_array_equal(pair.xp[2], vals[0, 2:5])

    def test_shift_relation(self):
        rng = np.random.default_rng(0)
        vals = rng.standard_normal((3, 12))
        signal = MultiObservableSignal(3, 0.7, vals, mode="real")
        pair = build_hankel(signal, d=3, K=7)
        np.testing.assert_array_equal(pair.x[:, 1:], pair.xp[:, :-1])

    def test_pair_is_two_read_only_windows_of_one_array(self):
        signal = MultiObservableSignal(2, 0.5, np.arange(20.0).reshape(2, 10))
        pair = build_hankel(signal, d=3, K=5)
        assert np.shares_memory(pair.x, pair.xp)
        for view in (pair.x, pair.xp):
            with pytest.raises(ValueError, match="read-only"):
                view[0, 0] = -1.0

    def test_allocates_one_snapshot_array(self, traced_peak):
        """``x`` and ``xp`` share one array of ``K + 2`` columns, not two
        of ``K + 1``."""
        signal = MultiObservableSignal(6, 1.0, np.ones((6, 701)))
        pair, peak = traced_peak(build_hankel, signal, 200, 500)
        assert peak <= 1.05 * pair.x.nbytes

    def test_insufficient_samples_rejected(self):
        signal = MultiObservableSignal(1, 1.0, np.ones((1, 5)), mode="real")
        with pytest.raises(ValueError, match="requires 6"):
            build_hankel(signal, d=2, K=3)

    def test_invalid_window_rejected(self):
        signal = MultiObservableSignal(1, 1.0, np.ones((1, 8)), mode="real")
        with pytest.raises(ValueError):
            build_hankel(signal, d=0, K=3)
        with pytest.raises(ValueError):
            build_hankel(signal, d=2, K=0)


class TestTruncatedPinv:
    def test_rank_counts_strictly_above_cutoff(self):
        m = np.diag([1.0, 0.5, 1e-6])
        pinv = truncated_pinv(m, 1e-2)
        assert pinv.rank == 2
        np.testing.assert_allclose(pinv.singular_values, [1.0, 0.5, 1e-6])

    def test_boundary_value_discarded(self):
        # sigma exactly at threshold * sigma_max must be dropped
        pinv = truncated_pinv(np.diag([1.0, 0.01]), 0.01)
        assert pinv.rank == 1

    def test_matches_dense_pinv_when_full_rank(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((5, 8))
        pinv = truncated_pinv(m, 1e-12)
        np.testing.assert_allclose(
            pinv.as_matrix(), np.linalg.pinv(m), atol=1e-10
        )

    def test_projector_identity_at_small_threshold(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 9)) + 1j * rng.standard_normal((4, 9))
        pinv = truncated_pinv(m, 1e-13)
        np.testing.assert_allclose(m @ pinv.as_matrix() @ m, m, atol=1e-10)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateInputError):
            truncated_pinv(np.zeros((3, 3)), 1e-2)

    def test_rank_monotone_in_threshold(self):
        rng = np.random.default_rng(3)
        u, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        m = u @ np.diag([1.0, 0.3, 0.1, 0.03, 0.01, 0.003]) @ u.T
        ranks = [truncated_pinv(m, t).rank for t in (1e-4, 5e-3, 5e-2, 0.5)]
        assert ranks == sorted(ranks, reverse=True)
        assert ranks[0] == 6 and ranks[-1] == 1

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            truncated_pinv(np.eye(2), 0.0)
        with pytest.raises(ValueError):
            truncated_pinv(np.eye(2), 1.0)
        with pytest.raises(ValueError):
            truncated_pinv(np.ones(3), 0.1)


def svd_pinv(matrix, threshold):
    """The full-SVD truncated pseudo-inverse: the oracle of the Gram path."""
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    rank = int(np.count_nonzero(s > threshold * s[0]))
    return TruncatedPinv(u[:, :rank], 1.0 / s[:rank], vh[:rank], s, rank)


def random_orthonormal(rng, rows, cols, complex_valued):
    z = rng.standard_normal((rows, cols))
    if complex_valued:
        z = z + 1j * rng.standard_normal((rows, cols))
    return np.linalg.qr(z)[0]


def with_singular_values(rng, rows, cols, singular, complex_valued):
    """A ``rows x cols`` matrix with the given singular values and random
    singular bases."""
    k = len(singular)
    u = random_orthonormal(rng, rows, k, complex_valued)
    v = random_orthonormal(rng, cols, k, complex_valued)
    return (u * singular) @ v.conj().T


def noisy_mode_pair(seed, real, tall):
    """Hankel pair of a few well-separated, slightly damped modes under
    Gaussian noise of 1e-8 to 1e-4; ``tall`` picks more rows than columns."""
    return build_hankel(*noisy_mode_window(seed, real, tall))


def noisy_mode_window(seed, real, tall):
    """The signal and ``(d, K)`` window of :func:`noisy_mode_pair`."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    low, high = (0.2, 2.9) if real else (-2.9, 2.9)
    while True:
        phases = np.sort(rng.uniform(low, high, size=m))
        if m == 1 or np.min(np.diff(phases)) > 0.2:
            break
    damping = rng.uniform(0.97, 1.0, size=m)
    n_obs = int(rng.integers(1, 4))
    coeffs = rng.uniform(0.3, 1.0, size=(n_obs, m)) * np.exp(
        2j * np.pi * rng.uniform(size=(n_obs, m))
    )
    if real:
        phases = np.concatenate([phases, -phases])
        damping = np.concatenate([damping, damping])
        coeffs = np.concatenate([coeffs, coeffs.conj()], axis=1)
    short, long = int(rng.integers(15, 40)), int(rng.integers(60, 100))
    rows, cols = (long, short) if tall else (short, long)
    d, K = max(1, rows // n_obs), cols - 1
    k = np.arange(K + d + 1)
    values = coeffs @ ((damping[:, None] ** k) * np.exp(-1j * np.outer(phases, k)))
    noise = rng.standard_normal(values.shape) + 1j * rng.standard_normal(values.shape)
    values = values + 10 ** rng.uniform(-8, -4) * noise
    if real:
        values = values.real
    signal = MultiObservableSignal(
        n_obs, 1.0, values, mode="real" if real else "complex"
    )
    return signal, d, K


def eigenvalue_distance(a, b):
    """Largest distance from an eigenvalue of either set to the other set."""
    gaps = np.abs(a[:, None] - b[None, :])
    return max(gaps.min(axis=1).max(), gaps.min(axis=0).max())


class TestGramPinv:
    """The method-of-snapshots path against the full-SVD oracle."""

    @given(
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.booleans(),
        st.sampled_from([1e-2, 1e-3]),
    )
    def test_fit_matches_svd_oracle(self, seed, real, tall, threshold):
        pair = noisy_mode_pair(seed, real, tall)
        assert (pair.x.shape[0] > pair.x.shape[1]) == tall
        gram = truncated_pinv(pair.x, threshold)
        oracle = svd_pinv(pair.x, threshold)
        assert gram.rank == oracle.rank
        assert gram.singular_values.shape == oracle.singular_values.shape
        eig_gram = np.linalg.eigvals(fit_propagator(pair, gram).reduced)
        eig_oracle = np.linalg.eigvals(fit_propagator(pair, oracle).reduced)
        assert eigenvalue_distance(eig_gram, eig_oracle) <= 1e-10
        x = pair.x
        projected = x @ oracle.as_matrix() @ x
        assert np.linalg.norm(x @ gram.as_matrix() @ x - projected) <= 1e-10 * (
            np.linalg.norm(x)
        )

    @pytest.mark.parametrize("threshold", [1e-2, 1e-3, GRAM_MIN_THRESHOLD])
    @pytest.mark.parametrize("complex_valued", [False, True])
    @pytest.mark.parametrize("shape", [(90, 30), (30, 90)])
    def test_cluster_straddling_threshold(self, threshold, complex_valued, shape):
        # four values above and four below the cut, the nearest 1e-4 from it
        offsets = np.array([1e-2, 1e-3, 3e-4, 1e-4, -1e-4, -3e-4, -1e-3, -1e-2])
        singular = np.concatenate([[1.0, 0.5, 0.2], threshold * (1.0 + offsets)])
        singular = np.concatenate([singular, np.logspace(-7, -12, 6) * threshold])
        rng = np.random.default_rng(11)
        x = with_singular_values(rng, *shape, singular, complex_valued)
        gram = truncated_pinv(x, threshold)
        assert gram.rank == svd_pinv(x, threshold).rank == 7
        np.testing.assert_allclose(
            gram.singular_values[:7], singular[:7], rtol=1e-8, atol=0
        )
        np.testing.assert_allclose(
            gram.left.conj().T @ gram.left, np.eye(7), rtol=0, atol=1e-6
        )
        np.testing.assert_allclose(
            gram.right @ gram.right.conj().T, np.eye(7), rtol=0, atol=1e-6
        )

    def test_dispatch_on_threshold(self, monkeypatch):
        calls = []
        svd, eigh = np.linalg.svd, np.linalg.eigh

        def counted_svd(matrix, *args, **kwargs):
            calls.append(("svd", matrix.shape))
            return svd(matrix, *args, **kwargs)

        def counted_eigh(matrix, *args, **kwargs):
            calls.append(("eigh", matrix.shape))
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        x = np.random.default_rng(4).standard_normal((12, 5))
        truncated_pinv(x, GRAM_MIN_THRESHOLD / 2)
        assert calls == [("svd", (12, 5))]
        calls.clear()
        truncated_pinv(x, GRAM_MIN_THRESHOLD)
        truncated_pinv(x.T, 1e-2)
        # the Gram is always the smaller one
        assert calls == [("eigh", (5, 5)), ("eigh", (5, 5))]

    def test_out_of_range_squares_take_the_svd(self):
        x = np.random.default_rng(5).standard_normal((12, 5))
        for scale in (1e-170, 1e200):
            assert _gram_basis(_gram(x * scale), 1e-2) is None
            pinv = truncated_pinv(x * scale, 1e-2)
            np.testing.assert_allclose(
                pinv.singular_values, svd_pinv(x * scale, 1e-2).singular_values
            )
        with pytest.raises(DegenerateInputError):
            truncated_pinv(np.zeros((4, 3)), 1e-2)

    def test_cutoff_is_smallest_accurate_decade(self):
        """Sets GRAM_MIN_THRESHOLD: on dense 14-decade spectra every retained
        singular value from the Gram agrees with the SVD's to sqrt(eps) at the
        constant, and not a decade below it."""
        rng = np.random.default_rng(0)
        matrices = [
            with_singular_values(rng, *shape, np.logspace(0, -14, 40), cplx)
            for _ in range(4)
            for shape in ((120, 40), (40, 120))
            for cplx in (False, True)
        ]

        def worst_error(threshold):
            worst = 0.0
            for x in matrices:
                singular, basis = _gram_basis(_gram(x), threshold)
                oracle = svd_pinv(x, threshold)
                assert basis.shape[1] == oracle.rank
                kept = oracle.singular_values[: oracle.rank]
                error = np.abs(singular[: oracle.rank] - kept) / kept
                worst = max(worst, float(error.max()))
            return worst

        tolerance = math.sqrt(np.finfo(float).eps)
        assert worst_error(GRAM_MIN_THRESHOLD) <= tolerance
        assert worst_error(GRAM_MIN_THRESHOLD / 10) > tolerance


# (seed, real, tall) of noisy_mode_window: tall and wide windows, each real
# and complex.
FIT_WINDOWS = [(1, True, True), (2, True, False), (3, False, True), (4, False, False)]
FIT_WINDOW_IDS = ["tall-real", "wide-real", "tall-complex", "wide-complex"]


class TestFitWindow:
    """The sweep's fit entry: the public pair and fit, bit for bit, with no
    snapshot stack alive while the Gram is solved."""

    @pytest.mark.parametrize("window", FIT_WINDOWS, ids=FIT_WINDOW_IDS)
    @pytest.mark.parametrize("threshold", [1e-2, GRAM_MIN_THRESHOLD / 10])
    def test_matches_the_public_path_bit_for_bit(self, window, threshold):
        signal, d, K = noisy_mode_window(*window)
        pair, fit = _fit_window(signal, d, K, threshold)
        expected = build_hankel(signal, d, K)
        oracle = fit_propagator(expected, truncated_pinv(expected.x, threshold))
        np.testing.assert_array_equal(pair.x, expected.x)
        np.testing.assert_array_equal(pair.xp, expected.xp)
        assert pair.n_observables == expected.n_observables
        assert fit.rank == oracle.rank
        for name in ("left", "inv_singular", "right", "singular_values"):
            np.testing.assert_array_equal(
                getattr(fit.pinv, name), getattr(oracle.pinv, name)
            )
        np.testing.assert_array_equal(fit.b_matrix, oracle.b_matrix)
        np.testing.assert_array_equal(fit.reduced, oracle.reduced)

    @pytest.mark.parametrize("window", FIT_WINDOWS, ids=FIT_WINDOW_IDS)
    def test_no_stack_alive_during_the_gram_eigh(self, window, monkeypatch):
        """Every stack ``build_hankel`` returned is dead when ``eigh`` runs.
        The SVD fallback (a threshold below ``GRAM_MIN_THRESHOLD``) holds
        its stack through the SVD, by design."""
        from modmd import solver

        stacks, alive = [], []
        build, eigh = solver.build_hankel, np.linalg.eigh

        def tracked_build(*args):
            pair = build(*args)
            stacks.append(weakref.ref(pair.x.base))
            return pair

        def checked_eigh(matrix, *args, **kwargs):
            alive.append(sum(ref() is not None for ref in stacks))
            return eigh(matrix, *args, **kwargs)

        monkeypatch.setattr(solver, "build_hankel", tracked_build)
        monkeypatch.setattr(np.linalg, "eigh", checked_eigh)
        signal, d, K = noisy_mode_window(*window)
        pair, _ = _fit_window(signal, d, K, 1e-2)
        assert alive == [0]
        assert len(stacks) == 2 and stacks[-1]() is pair.x.base

    @pytest.mark.parametrize(
        "threshold, stages",
        [
            (1e-2, ["hankel_s", "pinv_s", "hankel_s", "pinv_s"]),
            (GRAM_MIN_THRESHOLD / 10, ["hankel_s", "pinv_s"]),
        ],
    )
    def test_laps_each_stage_as_it_ends(self, threshold, stages):
        signal, d, K = noisy_mode_window(5, True, True)
        laps = []
        _fit_window(signal, d, K, threshold, laps.append)
        assert laps == stages

    def test_invalid_arguments_rejected(self):
        signal, d, K = noisy_mode_window(6, True, False)
        for threshold in (0.0, 1.0):
            with pytest.raises(ValueError, match="threshold"):
                _fit_window(signal, d, K, threshold)
        with pytest.raises(ValueError, match="requires"):
            _fit_window(signal, d, signal.n_steps, 1e-2)


class TestFitPropagator:
    def test_single_mode_recovers_multiplier(self):
        lam = np.exp(-1j * 0.8) * 0.999
        signal = mode_signal([0.8], [[1.0]], 1.0, 8)
        vals = signal.values * (0.999 ** np.arange(8))
        signal = MultiObservableSignal(1, 1.0, vals, mode="complex")
        pair = build_hankel(signal, d=1, K=5)
        a = full_propagator(pair, 1e-10)
        assert a.shape == (1, 1)
        assert a[0, 0] == pytest.approx(lam, abs=1e-9)

    def test_two_modes_match_linear_prediction_roots(self):
        """Cross-check against the companion-polynomial route: the same
        eigenvalues must arise as roots of the order-2 linear prediction."""
        phases = [0.5, 1.3]
        signal = mode_signal(phases, [[1.0, 0.6]], 1.0, 12)
        s = signal.values[0]
        pair = build_hankel(signal, d=2, K=6)
        a = full_propagator(pair, 1e-10)
        eig = np.sort_complex(np.linalg.eigvals(a))

        lhs = np.array([[s[0], s[1]], [s[1], s[2]]])
        rhs = np.array([s[2], s[3]])
        c = np.linalg.solve(lhs, rhs)
        roots = np.sort_complex(np.roots([1.0, -c[1], -c[0]]))
        np.testing.assert_allclose(eig, roots, atol=1e-8)

    def test_factors_reproduce_pseudo_inverse_product(self):
        rng = np.random.default_rng(4)
        signal = MultiObservableSignal(
            2, 1.0, rng.standard_normal((2, 20)), mode="real"
        )
        pair = build_hankel(signal, d=3, K=12)
        pinv = truncated_pinv(pair.x, 1e-2)
        fit = fit_propagator(pair, pinv)
        assert fit.rank == pinv.rank
        assert fit.b_matrix.shape == (6, pinv.rank)
        assert fit.reduced.shape == (pinv.rank, pinv.rank)
        projected = pinv.left.conj().T @ pair.xp @ pinv.as_matrix() @ pinv.left
        np.testing.assert_allclose(fit.reduced, projected, atol=1e-12)

    def test_pinv_of_another_matrix_rejected(self):
        signal = mode_signal([0.4], [[1.0]], 1.0, 12)
        pair = build_hankel(signal, d=2, K=6)
        with pytest.raises(ValueError):
            fit_propagator(pair, truncated_pinv(pair.x[:, :-1], 1e-2))


class TestExtractEigen:
    def test_diagonal_propagator(self):
        a = np.diag([np.exp(-1j * 0.3), np.exp(-1j * 0.7)])
        est = extract_eigen(a, dt=1.0, n_eig=2)
        np.testing.assert_allclose(est.energies, [0.3, 0.7], atol=1e-12)
        np.testing.assert_allclose(est.magnitudes, [1.0, 1.0], atol=1e-12)
        assert not est.ill_conditioned

    def test_energy_scaling_with_dt(self):
        a = np.diag([np.exp(-1j * 0.3)])
        est = extract_eigen(a, dt=0.5, n_eig=1)
        assert est.energies[0] == pytest.approx(0.6)

    def test_magnitude_floor_drops_noise_modes(self):
        a = np.diag([np.exp(-1j * 0.5), 0.1])
        est = extract_eigen(a, dt=1.0, n_eig=1, magnitude_floor=0.2)
        assert len(est.eigenvalues) == 1
        assert est.energies[0] == pytest.approx(0.5)

    def test_shortfall_carries_survivors(self):
        a = np.diag([np.exp(-1j * 0.5), 0.05])
        with pytest.raises(EigenvalueShortfallError) as info:
            extract_eigen(a, dt=2.0, n_eig=2)
        err = info.value
        assert err.requested == 2
        assert len(err.survivors) == 1
        assert err.energies[0] == pytest.approx(0.25)

    def test_conjugate_pair_merge_keeps_nonnegative_phase(self):
        a = rotation(0.4)
        est = extract_eigen(a, dt=1.0, n_eig=1, merge_conjugates=True)
        assert len(est.eigenvalues) == 1
        # the nonnegative-phase member encodes the negative energy branch
        assert est.energies[0] == pytest.approx(-0.4)

    def test_unpaired_negative_real_eigenvalue_kept(self):
        a = turned([[[-1.0]], rotation(0.4)], seed=3)
        est = extract_eigen(a, dt=1.0, n_eig=2, merge_conjugates=True)
        np.testing.assert_allclose(est.energies, [-math.pi, -0.4], atol=1e-12)

    def test_conjugate_pair_near_minus_one_merged(self):
        a = turned([rotation(math.pi - 1e-9)], seed=4)
        est = extract_eigen(a, dt=1.0, n_eig=1, merge_conjugates=True)
        assert est.energies[0] == pytest.approx(-(math.pi - 1e-9), abs=1e-12)
        with pytest.raises(EigenvalueShortfallError):
            extract_eigen(a, dt=1.0, n_eig=2, merge_conjugates=True)

    def test_merge_needs_a_real_operator(self):
        a = np.diag([np.exp(1j * 0.4), np.exp(-1j * 0.4)])
        with pytest.raises(ValueError, match="real operator"):
            extract_eigen(a, dt=1.0, n_eig=1, merge_conjugates=True)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.3, 1.1, 2.5, math.pi]),
                st.floats(-1e-10, 1e-10),
            ),
            min_size=1,
            max_size=8,
        ),
        st.integers(0, 2**32 - 1),
    )
    def test_merge_matches_pairwise_loop(self, draws, seed):
        """Real operators whose eigenphases lie in clusters far apart, pair
        members within 1e-10 of their center, in a random basis: the
        realness rule keeps what the greedy loop keeps."""
        blocks = [
            rotation(center + jit) if 0.0 < center < math.pi else [[math.cos(center)]]
            for center, jit in draws
        ]
        a = turned(blocks, seed)
        w = np.linalg.eig(a)[0]
        kept = w[merge_by_loop(w)]
        est = extract_eigen(
            a, dt=1.0, n_eig=len(kept), magnitude_floor=0.0, merge_conjugates=True
        )
        np.testing.assert_array_equal(
            np.sort_complex(est.eigenvalues), np.sort_complex(kept)
        )
        with pytest.raises(EigenvalueShortfallError):
            extract_eigen(
                a, dt=1.0, n_eig=len(kept) + 1, magnitude_floor=0.0, merge_conjugates=True
            )

    def test_left_vectors_satisfy_eigen_relation(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        lam = np.exp(-1j * np.array([0.2, 0.6, 1.1, 1.9]))
        a = v @ np.diag(lam) @ np.linalg.inv(v)
        est = extract_eigen(a, dt=1.0, n_eig=4)
        for j in range(4):
            row = est.left_vectors[j]
            np.testing.assert_allclose(
                row @ a, est.eigenvalues[j] * row, atol=1e-9
            )

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            extract_eigen(np.eye(2, dtype=complex), dt=0.0, n_eig=1)
        with pytest.raises(ValueError):
            extract_eigen(np.eye(2, dtype=complex), dt=1.0, n_eig=0)


def assert_rows_match_up_to_phase(rows, oracle_rows):
    """Each row equals its oracle up to a unit phase, within 1e-8 of the
    oracle's norm."""
    assert len(rows) == len(oracle_rows)
    for mine, oracle in zip(rows, oracle_rows):
        overlap = np.vdot(mine, oracle)
        assert abs(overlap) > 0
        np.testing.assert_allclose(
            mine * overlap / abs(overlap),
            oracle,
            rtol=0,
            atol=1e-8 * np.linalg.norm(oracle),
        )


def assert_matches_full_matrix(pair, threshold, dt, n_eig, merge_conjugates, exact=None):
    """The reduced eigensolve against the full-matrix oracle
    ``extract_eigen(xp @ pinv(x))``: same eigenvalues, left rows equal up
    to a unit phase, same conditioning and residual. Given ``exact``, the
    eigenvalues are checked against those instead: the full matrix's own
    eigensolve is the less accurate of the two."""
    pinv = truncated_pinv(pair.x, threshold)
    fit = fit_propagator(pair, pinv)
    reduced = extract_eigen(fit, dt, n_eig, merge_conjugates=merge_conjugates)
    a_matrix = pair.xp @ pinv.as_matrix()
    full = extract_eigen(a_matrix, dt, n_eig, merge_conjugates=merge_conjugates)
    np.testing.assert_allclose(
        reduced.eigenvalues, full.eigenvalues if exact is None else exact, rtol=0, atol=1e-10
    )
    assert_rows_match_up_to_phase(reduced.left_vectors, full.left_vectors)
    assert reduced.eigenvector_condition == pytest.approx(
        full.eigenvector_condition, rel=1e-6
    )
    assert reduced.ill_conditioned == full.ill_conditioned
    oracle = np.linalg.norm(pair.xp - a_matrix @ pair.x) / np.linalg.norm(pair.xp)
    assert residual(fit, pair) == pytest.approx(oracle, rel=0, abs=1e-12)


def random_mode_pair(seed, real):
    """Noiseless multi-observable pair from a few well-separated, slightly
    damped modes (a real signal carries each mode with its conjugate), and
    the propagator eigenvalues ``damping * exp(-i * phase)`` an eigenvalue
    fit reports: in descending phase, of a conjugate pair only the member
    with positive imaginary part."""
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 5))
    low, high = (0.2, 2.9) if real else (-2.9, 2.9)
    while True:
        phases = np.sort(rng.uniform(low, high, size=m))
        if m == 1 or np.min(np.diff(phases)) > 0.2:
            break
    damping = rng.uniform(0.97, 1.0, size=m)
    n_obs = int(rng.integers(1, 4))
    coeffs = rng.uniform(0.3, 1.0, size=(n_obs, m)) * np.exp(
        2j * np.pi * rng.uniform(size=(n_obs, m))
    )
    if real:
        phases = np.concatenate([phases, -phases])
        damping = np.concatenate([damping, damping])
        coeffs = np.concatenate([coeffs, coeffs.conj()], axis=1)
    d = math.ceil(len(phases) / n_obs) + int(rng.integers(0, 4))
    K = 2 * len(phases) + d + int(rng.integers(0, 10))
    k = np.arange(K + d + 1)
    modes = (damping[:, None] ** k) * np.exp(-1j * np.outer(phases, k))
    values = coeffs @ modes
    if real:
        values = values.real
    signal = MultiObservableSignal(
        n_obs, 1.0, values, mode="real" if real else "complex"
    )
    exact = damping * np.exp(-1j * phases)
    exact = exact[exact.imag > 0] if real else exact
    return build_hankel(signal, d, K), exact[np.argsort(-np.angle(exact))]


class TestReducedEigenproblem:
    """The fit's ``r x r`` eigensolve reproduces the full propagator's."""

    def test_ten_qubit_chain_matches_full_matrix(self):
        config = ExperimentConfig(
            tfim_qubits=10,
            reference_bitstrings=(
                "0" * 10, "1" * 10, "1" + "0" * 9,
                "0" * 5 + "1" * 5, "0" * 4 + "1" * 6, "0" * 3 + "1" * 7,
            ),
            n_observables=6,
            dt=1.0,
            k_grid=(145,),
            noise_epsilon=1e-3,
            svd_threshold=1e-2,
            n_eig=4,
        )
        K = config.k_grid[0]
        d = depth_for_window(K, config.k_over_d)
        problem = build_problem(config, K + d)
        observables = build_observables(config, problem, seed=7)
        signal = measure_signal(config, problem, observables, K + d + 1, seed=8)
        pair = build_hankel(signal, d, K)
        assert_matches_full_matrix(pair, 1e-2, problem.dt, 4, merge_conjugates=True)

    def test_spin_chain_identity_observable(self):
        spec, _, phi0 = tfim6_problem()
        ident = PauliSum.from_terms(6, [(1.0, PauliString.identity(6))])
        signal = exact_signal(spec, phi0, [ident], 1.0, 141, mode="real")
        pair = build_hankel(signal, 40, 100)
        # 1e-6 keeps 30 of 40 directions; below that the retained noise
        # directions make both eigensolves sensitive to rounding
        assert_matches_full_matrix(pair, 1e-6, 1.0, 2, merge_conjugates=True)

    def test_noisy_complex_multi_observable(self):
        rng = np.random.default_rng(21)
        coeffs = rng.standard_normal((2, 3)) + 0.5
        signal = mode_signal([0.3, 0.9, 1.7], coeffs, 1.0, 60)
        noise = 1e-3 * rng.standard_normal((2, 60))
        noisy = MultiObservableSignal(2, 1.0, signal.values + noise, mode="complex")
        pair = build_hankel(noisy, 8, 40)
        assert_matches_full_matrix(pair, 1e-2, 1.0, 3, merge_conjugates=False)

    @given(st.integers(0, 2**32 - 1), st.booleans())
    @example(3246, True)
    @example(12892018, True)
    def test_random_low_rank_pairs(self, seed, real):
        """The reduced fit finds the generator's modes; at these two seeds
        the full matrix's eigenvalues are up to 5.4e-10 off them."""
        pair, exact = random_mode_pair(seed, real)
        assert_matches_full_matrix(
            pair, 1e-10, 1.0, len(exact), merge_conjugates=real, exact=exact
        )


def geev_extract(propagator, magnitude_floor=0.2, merge_conjugates=False):
    """Oracle of :func:`extract_eigen`: scipy's geev left eigenvectors,
    computed apart from the right ones, then selected, lifted and scaled as
    ``extract_eigen`` does. Returns every survivor's eigenvalue, its
    biorthonormal left row and the largest pairing condition (``inf`` when
    a pairing vanishes)."""
    fit = propagator if isinstance(propagator, PropagatorFit) else None
    matrix = propagator if fit is None else fit.reduced
    w, vl, vr = scipy.linalg.eig(matrix, left=True, right=True)
    keep = np.flatnonzero(np.abs(w) >= magnitude_floor)
    if merge_conjugates:
        keep = keep[merge_by_loop(w[keep])]
    keep = keep[np.argsort(-np.angle(w[keep]), kind="stable")]
    w, vl, vr = w[keep], vl[:, keep], vr[:, keep]
    if fit is not None:
        vl, vr = fit.pinv.left @ vl, fit.b_matrix @ vr
        vr = vr / np.linalg.norm(vr, axis=0)
    rows = vl.conj().T
    pairing = np.sum(rows * vr.T, axis=1)
    size = np.linalg.norm(rows, axis=1) * np.linalg.norm(vr, axis=0)
    if np.any(np.abs(pairing) < 1e-14 * size):
        return w, rows, math.inf
    condition = np.max(size / np.abs(pairing), initial=1.0)
    return w, rows / pairing[:, None], float(condition)


def assert_matches_geev(propagator, dt, merge_conjugates=False):
    """``extract_eigen`` on every survivor against :func:`geev_extract`
    (a shortfall when there is none): eigenvalues to 1e-12 relative, the
    same ``ill_conditioned`` flag, and below ``CONDITION_FLAG`` left rows
    equal up to a unit phase and the condition to 1e-6 relative."""
    w, rows, condition = geev_extract(propagator, merge_conjugates=merge_conjugates)
    if not len(w):
        with pytest.raises(EigenvalueShortfallError):
            extract_eigen(propagator, dt, 1, merge_conjugates=merge_conjugates)
        return
    est = extract_eigen(propagator, dt, len(w), merge_conjugates=merge_conjugates)
    np.testing.assert_allclose(est.eigenvalues, w, rtol=1e-12, atol=0)
    assert est.ill_conditioned == (condition > CONDITION_FLAG)
    if est.ill_conditioned:
        return
    assert est.eigenvector_condition == pytest.approx(condition, rel=1e-6)
    assert_rows_match_up_to_phase(est.left_vectors, rows)


def random_propagator(seed, real):
    """A dense ``n x n`` Gaussian matrix scaled to a spectral radius near 1."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 13))
    a = rng.standard_normal((n, n))
    if not real:
        a = a + 1j * rng.standard_normal((n, n))
    return a / math.sqrt(n * (1 if real else 2))


class TestGeevOracle:
    """Left rows from the inverse of numpy's right eigenvectors reproduce
    scipy's separately computed geev left eigenvectors."""

    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("seed", range(10))
    def test_random_matrices(self, seed, real):
        a = random_propagator(seed, real)
        assert_matches_geev(a, 1.0)
        if real:
            assert_matches_geev(a, 1.0, merge_conjugates=True)

    @pytest.mark.parametrize("threshold", [1e-2, 1e-3])
    @pytest.mark.parametrize("real", [False, True])
    @pytest.mark.parametrize("seed", range(5))
    def test_noisy_hankel_fits(self, seed, real, threshold):
        fit = fitted(noisy_mode_pair(seed, real, tall=seed % 2 == 0), threshold)
        assert_matches_geev(fit, 1.0, merge_conjugates=real)

    @given(
        st.integers(0, 2**32 - 1),
        st.booleans(),
        st.sampled_from(["matrix", "tall fit", "wide fit"]),
    )
    def test_property(self, seed, real, kind):
        if kind == "matrix":
            propagator = random_propagator(seed, real)
        else:
            pair = noisy_mode_pair(seed, real, tall=kind == "tall fit")
            propagator = fitted(pair, 1e-2)
        assert_matches_geev(propagator, 1.0, merge_conjugates=real)

    def test_jordan_block_flagged(self):
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert geev_extract(jordan)[2] > CONDITION_FLAG
        est = extract_eigen(jordan, dt=1.0, n_eig=2)
        assert est.ill_conditioned
        assert est.eigenvector_condition > CONDITION_FLAG

    def test_singular_right_vectors_flagged(self, monkeypatch):
        lam = np.exp(-1j * np.array([0.3, 0.3]))
        singular = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
        monkeypatch.setattr(np.linalg, "eig", lambda matrix: (lam, singular))
        est = extract_eigen(np.diag(lam), dt=1.0, n_eig=2)
        assert est.ill_conditioned
        assert est.eigenvector_condition == math.inf
        np.testing.assert_allclose(est.energies, [0.3, 0.3], atol=1e-12)
        assert np.isfinite(est.left_vectors).all()


class TestRunModmd:
    """MODMD end to end through the four-call chain of :func:`fit_chain`."""

    def test_exact_recovery_property(self):
        """Noiseless multi-mode signals give back every generating phase."""
        rng = np.random.default_rng(101)
        for _ in range(10):
            n_obs = int(rng.integers(1, 4))
            m = int(rng.integers(1, 6))
            while True:
                phases = np.sort(rng.uniform(-3.0, 3.0, size=m))
                if m == 1 or np.min(np.diff(phases)) > 1e-3:
                    break
            coeffs = rng.standard_normal((n_obs, m)) + 1j * rng.standard_normal(
                (n_obs, m)
            )
            coeffs[np.abs(coeffs) < 0.3] += 0.5
            d = max(math.ceil(m / n_obs), 1) + int(rng.integers(0, 3))
            K = max(2 * m, d) + 5
            signal = mode_signal(phases, coeffs, 1.0, K + d + 1)
            _, est = fit_chain(signal, d, K, 1e-10, m)
            np.testing.assert_allclose(np.sort(est.energies), phases, atol=1e-7)

    def test_energies_sorted_ascending(self):
        signal = mode_signal([0.3, 0.9, 1.4], [[1.0, 0.8, 0.6]], 1.0, 30)
        _, est = fit_chain(signal, 3, 20, 1e-10, 3)
        assert np.all(np.diff(est.energies) > 0)

    def test_rank_diagnostics_populated(self):
        signal = mode_signal([0.3, 0.9], [[1.0, 0.8]], 1.0, 30)
        fit, _ = fit_chain(signal, 2, 20, 1e-10, 2)
        assert fit.pinv.rank == 2
        assert len(fit.pinv.singular_values) == 2

    def test_observable_permutation_invariance(self):
        rng = np.random.default_rng(11)
        phases = [0.4, 1.0, 1.7]
        coeffs = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        signal = mode_signal(phases, coeffs, 1.0, 24)
        perm = MultiObservableSignal(
            3, 1.0, signal.values[[2, 0, 1]], mode="complex"
        )
        np.testing.assert_allclose(
            fit_chain(signal, 2, 16, 1e-10, 3)[1].energies,
            fit_chain(perm, 2, 16, 1e-10, 3)[1].energies,
            atol=1e-8,
        )

    def test_energy_shift_equivariance(self):
        """Adding a constant to the generator shifts every estimate by it.

        The shifted signal is the original multiplied by a global phase
        ramp exp(-i c k dt)."""
        rng = np.random.default_rng(12)
        phases = np.array([0.2, 0.8])
        coeffs = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        signal = mode_signal(phases, coeffs, 1.0, 20)
        c = 0.45
        ramp = np.exp(-1j * c * np.arange(20))
        shifted = MultiObservableSignal(
            2, 1.0, signal.values * ramp, mode="complex"
        )
        base = fit_chain(signal, 2, 12, 1e-10, 2)[1].energies
        moved = fit_chain(shifted, 2, 12, 1e-10, 2)[1].energies
        np.testing.assert_allclose(moved, base + c, atol=1e-8)

    def test_retained_rank_monotone_in_threshold(self):
        rng = np.random.default_rng(13)
        phases = np.sort(rng.uniform(-2.0, 2.0, size=5))
        coeffs = rng.standard_normal((2, 5)) * [[1.0], [0.5]]
        signal = mode_signal(phases, coeffs, 1.0, 40)
        noisy = MultiObservableSignal(
            2,
            1.0,
            signal.values + 1e-5 * rng.standard_normal((2, 40)),
            mode="complex",
        )
        ranks = []
        for thr in (1e-8, 1e-4, 1e-2, 0.3):
            fit, _ = fit_chain(noisy, 4, 30, thr, 1)
            ranks.append(fit.pinv.rank)
        assert ranks == sorted(ranks, reverse=True)

    def test_aggressive_threshold_raises_shortfall(self):
        signal = mode_signal([0.3, 0.9, 1.5], [[1.0, 0.7, 0.5]], 1.0, 30)
        with pytest.raises(EigenvalueShortfallError):
            fit_chain(signal, 3, 20, 0.999, 3)

    def test_real_mode_ground_energy_on_spin_chain(self):
        """Physical end-to-end check: recentered 6-qubit chain, identity
        observable, real signal; ground energy back to solver precision."""
        spec, scale, phi0 = tfim6_problem()
        ident = PauliSum.from_terms(6, [(1.0, PauliString.identity(6))])
        signal = exact_signal(spec, phi0, [ident], 1.0, 141, mode="real")
        _, est = fit_chain(signal, 40, 100, 1e-12, 1)
        physical = est.energies[0] / scale
        exact_e0 = spec.energies[0] / scale
        assert abs(physical - exact_e0) <= 1e-6

    def test_ground_energy_never_far_below_true_minimum(self):
        """Estimated phases stay within the generating phase hull, so the
        lowest estimate cannot undershoot E0 in the noiseless case."""
        rng = np.random.default_rng(14)
        for _ in range(8):
            m = int(rng.integers(2, 5))
            phases = np.sort(rng.uniform(-2.5, 2.5, size=m))
            if np.min(np.diff(phases)) < 1e-2:
                continue
            coeffs = rng.standard_normal((2, m)) + 0.5
            signal = mode_signal(phases, coeffs, 1.0, 30)
            _, est = fit_chain(signal, m, 20, 1e-10, 1)
            assert est.energies[0] >= phases[0] - 1e-6


class TestSolverMemory:
    """Peaks at a 10-qubit convergence sweep's largest cell (6 observables,
    d = 200, K = 500), on a real signal of many modes whose fit keeps a
    rank of about two thirds of the K + 1 columns."""

    @pytest.fixture(scope="class")
    def pair(self):
        rng = np.random.default_rng(18)
        signal = mode_signal(
            rng.uniform(-2.5, 2.5, 225), rng.standard_normal((6, 225)), 1.0, 701
        )
        noise = 1e-3 * rng.standard_normal(signal.values.shape)
        values = signal.values.real + noise
        return build_hankel(MultiObservableSignal(6, 1.0, values), d=200, K=500)

    def test_fit_holds_its_factors_and_little_else(self, pair, traced_peak):
        """The fit keeps ``U_r``, ``B`` and ``V_r``; ``B`` is scaled in
        place, and the Gram eigenvectors beyond rank ``r`` are freed."""
        fit, peak = traced_peak(
            lambda: fit_propagator(pair, truncated_pinv(pair.x, 1e-2))
        )
        assert 0.5 < fit.rank / pair.x.shape[1] < 0.8
        assert peak < 2.2 * pair.x.nbytes

    def test_lifting_makes_no_complex_copy(self, pair, traced_peak):
        """The real ``U_r`` and ``B`` meet the complex eigenvectors in real
        products: a complex copy of ``B`` alone would take twice its bytes."""
        fit = fit_propagator(pair, truncated_pinv(pair.x, 1e-2))
        estimate, peak = traced_peak(extract_eigen, fit, 1.0, 3, merge_conjugates=True)
        assert len(estimate.energies) == 3
        assert peak < 1.5 * fit.b_matrix.nbytes


class TestResidual:
    def test_consistent_fit_has_negligible_residual(self):
        signal = mode_signal([0.4, 1.2], [[1.0, 0.7]], 1.0, 24)
        pair = build_hankel(signal, d=2, K=16)
        assert residual(fitted(pair, 1e-12), pair) <= 1e-10

    def test_zero_propagator_gives_unit_residual(self):
        # xp is orthogonal to the row space of x, so the fit is A = 0
        pair = HankelPair(
            x=np.array([[1.0, 0.0]]), xp=np.array([[0.0, 2.0]]), n_observables=1
        )
        fit = fitted(pair, 1e-12)
        np.testing.assert_array_equal(pair.xp @ fit.pinv.as_matrix(), np.zeros((1, 1)))
        assert residual(fit, pair) == pytest.approx(1.0)

    def test_noise_raises_residual(self):
        rng = np.random.default_rng(15)
        signal = mode_signal([0.4, 1.2], [[1.0, 0.7]], 1.0, 40)
        noisy = MultiObservableSignal(
            1,
            1.0,
            signal.values + 0.05 * rng.standard_normal((1, 40)),
            mode="complex",
        )
        clean_pair = build_hankel(signal, d=2, K=30)
        noisy_pair = build_hankel(noisy, d=2, K=30)
        assert residual(fitted(noisy_pair, 1e-12), noisy_pair) > residual(
            fitted(clean_pair, 1e-12), clean_pair
        )

    @staticmethod
    def noisy_mode_pair(real, d=20, K=360):
        rng = np.random.default_rng(16)
        signal = mode_signal([0.4, 1.2, -0.7], rng.standard_normal((3, 3)), 1.0, K + d + 20)
        values = signal.values + 1e-3 * rng.standard_normal(signal.values.shape)
        if real:
            signal = MultiObservableSignal(3, 1.0, values.real, mode="real")
        else:
            signal = MultiObservableSignal(3, 1.0, values, mode="complex")
        return build_hankel(signal, d=d, K=K)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_matches_the_out_of_place_difference(self, real):
        """The row blocks sum the squares in another order than one norm of
        the whole difference, so the two agree to rounding, not bit for bit."""
        pair = self.noisy_mode_pair(real)
        fit = fitted(pair, 1e-2)
        pinv = fit.pinv
        model = (fit.b_matrix * pinv.singular_values[: pinv.rank]) @ pinv.right
        # |xp|_F as einsum's sum of squares of a real view, read in place
        parts = pair.xp.view(float)
        norm = math.sqrt(np.einsum("ij,ij->", parts, parts))
        assert norm == pytest.approx(np.linalg.norm(pair.xp), rel=1e-14)
        oracle = float(np.linalg.norm(pair.xp - model) / norm)
        assert residual(fit, pair) == pytest.approx(oracle, rel=1e-14, abs=0)

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    def test_allocates_one_snapshot_sized_array(self, real, traced_peak):
        """At most one row block of the model ``A x`` is alive, a quarter of
        the snapshots here, and no snapshot-sized array is allocated: the
        difference is taken in place, the previous block is freed before the
        next is formed, and ``|xp|`` is summed without copying the strided
        ``xp`` (``einsum``'s buffer, 64 kB, is about a tenth of a block)."""
        pair = self.noisy_mode_pair(real, d=80, K=1200)
        assert not pair.xp.flags.c_contiguous
        fit = fitted(pair, 1e-2)
        assert fit.rank <= 10  # so the rank-sized factors stay small
        block = RESIDUAL_BLOCK_ROWS * pair.x.shape[1] * pair.x.itemsize
        assert 3 * block < pair.x.nbytes
        _, peak = traced_peak(residual, fit, pair)
        assert peak < 1.2 * block

    def test_zero_target_rejected(self):
        pair = HankelPair(x=np.ones((1, 3)), xp=np.zeros((1, 3)), n_observables=1)
        with pytest.raises(DegenerateInputError):
            residual(fitted(pair, 0.5), pair)


class TestForecast:
    @staticmethod
    def fitted(signal, d, K):
        pair = build_hankel(signal, d, K)
        return full_propagator(pair, 1e-12), pair

    def test_zero_horizon_empty_block(self):
        signal = mode_signal([0.4], [[1.0]], 1.0, 10)
        a, pair = self.fitted(signal, 1, 6)
        out = forecast(a, pair, 0)
        assert out.shape == (1, 0)

    def test_first_column_matches_last_sample_when_consistent(self):
        signal = mode_signal([0.4, 1.1], [[1.0, 0.6], [0.3, 0.9]], 1.0, 20)
        a, pair = self.fitted(signal, 2, 10)
        out = forecast(a, pair, 1)
        # column 0 is absolute step K + d = 12, the final observed sample
        np.testing.assert_allclose(out[:, 0], signal.values[:, 12], atol=1e-9)

    def test_consistent_extrapolation_reproduces_future(self):
        phases = [0.4, 1.1, 2.0]
        coeffs = [[1.0, 0.6, 0.2], [0.3, 0.9, 0.5]]
        long = mode_signal(phases, coeffs, 1.0, 60)
        short = MultiObservableSignal(
            2, 1.0, long.values[:, :21], mode="complex"
        )
        a, pair = self.fitted(short, 3, 17)
        out = forecast(a, pair, 40)
        np.testing.assert_allclose(out, long.values[:, 20:60], atol=1e-7)

    def test_propagator_shape_checked(self):
        signal = mode_signal([0.4], [[1.0]], 1.0, 10)
        _, pair = self.fitted(signal, 2, 6)
        with pytest.raises(ValueError):
            forecast(np.eye(3), pair, 4)

    def test_negative_horizon_rejected(self):
        signal = mode_signal([0.4], [[1.0]], 1.0, 10)
        a, pair = self.fitted(signal, 1, 6)
        with pytest.raises(ValueError):
            forecast(a, pair, -1)

    @staticmethod
    def assert_fit_matches_full_matrix(pair, threshold, horizon):
        fit = fitted(pair, threshold)
        reduced = forecast(fit, pair, horizon)
        full = forecast(pair.xp @ fit.pinv.as_matrix(), pair, horizon)
        assert reduced.shape == full.shape == (pair.n_observables, horizon)
        assert np.linalg.norm(reduced - full) <= 1e-10 * np.linalg.norm(full)

    def test_fit_path_matches_full_matrix_noisy(self):
        rng = np.random.default_rng(41)
        coeffs = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
        clean = mode_signal([-1.2, 0.3, 0.9, 1.7], coeffs, 1.0, 80)
        noisy = clean.values + 1e-3 * rng.standard_normal((6, 80))
        pair = build_hankel(MultiObservableSignal(6, 1.0, noisy.real, mode="real"), 10, 60)
        fit = fitted(pair, 1e-2)
        assert 0 < fit.rank < pair.x.shape[0]
        self.assert_fit_matches_full_matrix(pair, 1e-2, 200)

    @pytest.mark.parametrize("seed", [3, 17, 29])
    @pytest.mark.parametrize("real", [True, False])
    def test_fit_path_matches_full_matrix_low_rank(self, seed, real):
        pair, _ = random_mode_pair(seed, real)
        self.assert_fit_matches_full_matrix(pair, 1e-10, 120)

    @staticmethod
    def forecast_by_steps(propagator, pair, horizon):
        """The oracle: one matrix-vector product per step."""
        x_last = pair.x[:, -1]
        if isinstance(propagator, PropagatorFit):
            step, z = propagator.reduced, propagator.pinv.left.conj().T @ x_last
        else:
            step = propagator
            z = step @ x_last
        states = np.empty((len(z), horizon), dtype=z.dtype)
        for m in range(horizon):
            states[:, m] = z
            z = step @ z
        if isinstance(propagator, PropagatorFit):
            return propagator.b_matrix[-pair.n_observables :] @ states
        return states[-pair.n_observables :]

    @pytest.mark.parametrize("real", [True, False], ids=["real", "complex"])
    @pytest.mark.parametrize("square", [False, True], ids=["fit", "matrix"])
    @pytest.mark.parametrize("horizon", [0, 1, 2, 3, 16, 17, 50, 201])
    def test_blocks_match_single_steps(self, real, square, horizon):
        """Horizons 0 and 1, one full block past the first (``w = 1``, 2),
        a perfect square and one step past it, and non-square ones whose
        last block is partial."""
        pair = noisy_mode_pair(7, real, tall=False)
        fit = fitted(pair, 1e-2)
        propagator = pair.xp @ fit.pinv.as_matrix() if square else fit
        out = forecast(propagator, pair, horizon)
        oracle = self.forecast_by_steps(propagator, pair, horizon)
        assert out.shape == oracle.shape == (pair.n_observables, horizon)
        assert np.linalg.norm(out - oracle) <= 1e-12 * np.linalg.norm(oracle)

    def test_fit_shape_checked(self):
        signal = mode_signal([0.4], [[1.0]], 1.0, 12)
        other = fitted(build_hankel(signal, 1, 6), 1e-12)
        with pytest.raises(ValueError):
            forecast(other, build_hankel(signal, 2, 6), 4)
        assert forecast(other, build_hankel(signal, 1, 6), 0).shape == (1, 0)


class TestSelectTimeStep:
    def test_no_gap_information_fallback(self):
        # spread pi -> dt = 2 pi / (2 pi) = 1
        assert select_time_step(-math.pi / 2, math.pi / 2) == pytest.approx(1.0)

    def test_symmetric_ninety_percent_window(self):
        dt = select_time_step(-0.9 * math.pi, 0.9 * math.pi)
        assert dt == pytest.approx(1.0 / 1.8)

    def test_no_wraparound_guarantee(self):
        rng = np.random.default_rng(16)
        for _ in range(20):
            lo, hi = np.sort(rng.uniform(-10, 10, size=2))
            if hi - lo < 1e-3:
                continue
            dt = select_time_step(lo, hi)
            assert dt * (hi - lo) < 2.0 * math.pi

    def test_invalid_arguments_rejected(self):
        for lo, hi in ((1.0, 1.0), (1.0, 0.0), (0.0, math.inf), (0.0, math.nan)):
            with pytest.raises(ValueError):
                select_time_step(lo, hi)


class TestGroundEnergyErrorBound:
    def test_perfect_overlap_gives_zero(self):
        assert ground_energy_error_bound(3, 0.5, -1.0, -0.2, 1.0, 1.0) == 0.0

    def test_single_shift_closed_form(self):
        # at d=1 the gap amplification drops out entirely
        e0, e1, emax, dt, overlap = -1.0, -0.3, 1.5, 0.4, 0.6
        expected = abs(math.sin((emax - e0) * dt)) / dt * (1 - overlap) / overlap
        got = ground_energy_error_bound(1, dt, e0, e1, emax, overlap)
        assert got == pytest.approx(expected)

    def test_bound_shrinks_geometrically_with_shifts(self):
        vals = [
            ground_energy_error_bound(d, 0.5, -1.0, -0.2, 1.2, 0.5)
            for d in range(1, 8)
        ]
        ratios = np.array(vals[:-1]) / np.array(vals[1:])
        amplification = (1.0 + 3.0 * 0.8 * 0.5 / (2 * math.pi)) ** 2
        np.testing.assert_allclose(ratios, amplification, rtol=1e-12)

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            ground_energy_error_bound(0, 0.5, -1.0, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            ground_energy_error_bound(2, 0.0, -1.0, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            ground_energy_error_bound(2, 0.5, 0.0, 0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            ground_energy_error_bound(2, 0.5, -1.0, 0.0, 1.0, 0.0)
