"""Tests for randomized-measurement signal estimation."""

import numpy as np
import pytest

from modmd import (
    MultiObservableSignal,
    NoiseSpec,
    RankTwoObservable,
    StateVector,
    build_gamma,
    build_reference_superposition,
    build_tfim,
    composite_state,
    diagonalize,
    estimate_trace,
    exact_signal,
    gaussian_noise_channel,
    haar_unitary,
    random_one_local,
    sample_shadows,
    shadow_signal,
    shot_budget,
    to_dense,
    variance_bound,
)
from modmd.pauli import PauliString, PauliSum
from modmd.shadows import ShadowSample


def identity_sum(n_qubits):
    return PauliSum.from_terms(n_qubits, [(1.0, PauliString.identity(n_qubits))])


def three_qubit_probe():
    """Chain spectrum, sparse reference, and a companion orthogonal to it."""
    spec = diagonalize(to_dense(build_tfim(3, 1.0, 1.0)))
    phi0 = build_reference_superposition(3, ["000", "111", "100"])
    e3 = np.zeros(8, dtype=complex)
    e3[3] = 1.0
    raw = e3 - np.vdot(phi0.amplitudes, e3) * phi0.amplitudes
    perp = StateVector.normalized(3, raw)
    return spec, phi0, perp


def two_qubit_probe():
    spec = diagonalize(to_dense(build_tfim(2, 1.0, 1.0)))
    phi0 = build_reference_superposition(2, ["00", "11"])
    perp = build_reference_superposition(2, ["01"])
    return spec, phi0, perp


class TestRankTwoObservable:
    def setup_method(self):
        rng = np.random.default_rng(0)
        u = np.zeros(8, dtype=complex)
        u[4:] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v = np.zeros(8, dtype=complex)
        v[:4] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        v[:4] /= np.linalg.norm(v[:4])
        self.u, self.v = u, v

    def test_trace_is_exactly_zero(self):
        gamma = RankTwoObservable(2, self.u, self.v, "real")
        assert gamma.trace == 0.0
        assert abs(np.trace(gamma.dense())) <= 1e-12

    def test_dense_is_hermitian_rank_two(self):
        gamma = RankTwoObservable(2, self.u, self.v, "real")
        dense = gamma.dense()
        np.testing.assert_allclose(dense, dense.conj().T, atol=1e-12)
        assert np.linalg.matrix_rank(dense, tol=1e-10) == 2

    def test_trace_square_matches_dense(self):
        for part in ("real", "imag"):
            gamma = RankTwoObservable(2, self.u, self.v, part)
            dense = gamma.dense()
            assert gamma.trace_square == pytest.approx(
                np.trace(dense @ dense).real, abs=1e-10
            )

    def test_expectation_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(1)
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        amps /= np.linalg.norm(amps)
        for part in ("real", "imag"):
            gamma = RankTwoObservable(2, self.u, self.v, part)
            expected = np.vdot(amps, gamma.dense() @ amps).real
            assert gamma.expectation(amps) == pytest.approx(expected, abs=1e-12)

    def test_block_constraints_enforced(self):
        with pytest.raises(ValueError, match="ancilla-1"):
            RankTwoObservable(2, self.v, self.v, "real")
        with pytest.raises(ValueError, match="ancilla-0"):
            RankTwoObservable(2, self.u, self.u, "real")
        with pytest.raises(ValueError, match="part"):
            RankTwoObservable(2, self.u, self.v, "abs")


class TestBuildGamma:
    def test_expectation_on_probe_equals_real_signal(self):
        spec, phi0, perp = three_qubit_probe()
        obs = random_one_local(3, 1, seed=4)[0]
        gamma = build_gamma(obs, phi0, perp, part="real")
        truth = exact_signal(spec, phi0, [obs], 0.7, 2, mode="complex")
        for k in range(3):
            state = composite_state(perp, phi0, spec, k * 0.7)
            assert gamma.expectation(state.amplitudes) == pytest.approx(
                truth.values[0, k].real, abs=1e-12
            )

    def test_imag_part_gives_other_quadrature(self):
        spec, phi0, perp = three_qubit_probe()
        obs = random_one_local(3, 1, seed=4)[0]
        gamma = build_gamma(obs, phi0, perp, part="imag")
        truth = exact_signal(spec, phi0, [obs], 0.7, 2, mode="complex")
        for k in range(3):
            state = composite_state(perp, phi0, spec, k * 0.7)
            assert gamma.expectation(state.amplitudes) == pytest.approx(
                truth.values[0, k].imag, abs=1e-12
            )

    def test_unit_pauli_observable_trace_square(self):
        # disjoint blocks make <u|v> = 0; unit Pauli keeps |u| = |v| = 1,
        # so Tr[Gamma^2] = 2, below the generic rank-two cap of 4
        _, phi0, perp = three_qubit_probe()
        for obs in random_one_local(3, 3, seed=6):
            gamma = build_gamma(obs, phi0, perp, part="real")
            assert gamma.trace_square == pytest.approx(2.0, abs=1e-12)
            assert gamma.trace_square <= 4.0

    def test_register_width_mismatch_rejected(self):
        _, phi0, perp = three_qubit_probe()
        with pytest.raises(ValueError):
            build_gamma(identity_sum(2), phi0, perp)


class TestHaarUnitary:
    def test_unitarity(self):
        rng = np.random.default_rng(2)
        for dim in (2, 5, 16):
            u = haar_unitary(dim, rng)
            np.testing.assert_allclose(
                u @ u.conj().T, np.eye(dim), atol=1e-10
            )

    def test_deterministic_under_seeded_generator(self):
        u1 = haar_unitary(8, np.random.default_rng(3))
        u2 = haar_unitary(8, np.random.default_rng(3))
        np.testing.assert_array_equal(u1, u2)

    def test_first_entry_moment(self):
        # |U_00|^2 averages to 1/dim under the invariant measure
        rng = np.random.default_rng(8)
        vals = [abs(haar_unitary(4, rng)[0, 0]) ** 2 for _ in range(200)]
        assert abs(np.mean(vals) - 0.25) <= 0.055


class TestSampleShadows:
    def test_outcomes_within_register(self):
        # every measured row is a unit vector of the 3-qubit register
        spec, phi0, perp = two_qubit_probe()
        state = composite_state(perp, phi0, spec, 0.3)
        samples = sample_shadows(state, 50, seed=1)
        assert len(samples) == 50
        rows = np.stack([s.row for s in samples])
        assert rows.shape == (50, 8)
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    def test_deterministic_per_seed(self):
        spec, phi0, perp = two_qubit_probe()
        state = composite_state(perp, phi0, spec, 0.3)
        a = np.stack([s.row for s in sample_shadows(state, 20, seed=7)])
        b = np.stack([s.row for s in sample_shadows(state, 20, seed=7)])
        c = np.stack([s.row for s in sample_shadows(state, 20, seed=8)])
        np.testing.assert_array_equal(a, b)
        assert not np.any(np.all(a == c, axis=1))

    def test_identity_rotation_samples_computational_weights(self):
        # with no rotation the rows are basis vectors e_b, and the only
        # reachable outcomes b carry amplitude
        spec, phi0, perp = two_qubit_probe()
        state = composite_state(perp, phi0, spec, 0.0)
        support = set(np.flatnonzero(np.abs(state.amplitudes) > 1e-12))
        hook = lambda dim, rng: np.eye(dim, dtype=complex)
        samples = sample_shadows(state, 200, seed=2, unitary_fn=hook)
        outcomes = {int(np.flatnonzero(s.row)[0]) for s in samples}
        assert all(np.count_nonzero(s.row) == 1 for s in samples)
        assert outcomes <= support

    def test_born_statistics_at_fixed_rotation(self):
        """Outcome histogram against the rotated Born weights, 4 sigma."""
        spec, phi0, perp = two_qubit_probe()
        state = composite_state(perp, phi0, spec, 0.7)
        fixed = haar_unitary(8, np.random.default_rng(42))
        hook = lambda dim, rng: fixed
        probs = np.abs(fixed @ state.amplitudes) ** 2
        probs /= probs.sum()
        q = 10_000
        samples = sample_shadows(state, q, seed=777, unitary_fn=hook)
        # each recorded row is the rotation's row at the observed outcome
        rows = np.stack([s.row for s in samples])
        matches = np.all(rows[:, None, :] == fixed[None, :, :], axis=2)
        assert np.all(matches.sum(axis=1) == 1)
        counts = np.bincount(np.argmax(matches, axis=1), minlength=8)
        z = np.abs(counts - q * probs) / np.sqrt(q * probs * (1 - probs))
        assert z.max() <= 4.0

    def test_sample_count_validated(self):
        spec, phi0, perp = two_qubit_probe()
        state = composite_state(perp, phi0, spec, 0.0)
        with pytest.raises(ValueError):
            sample_shadows(state, 0, seed=1)

    def test_outcome_range_validated(self):
        # a record must be one row of a rotation on a qubit register
        with pytest.raises(ValueError):
            ShadowSample(np.ones(6, dtype=complex))
        with pytest.raises(ValueError):
            ShadowSample(np.ones(1, dtype=complex))
        with pytest.raises(ValueError):
            ShadowSample(np.eye(8, dtype=complex))


class TestDirectSampler:
    """The default row sampler against the Haar oracle (``unitary_fn``)."""

    Q = 6000

    def draws(self, unitary_fn):
        spec, phi0, perp = three_qubit_probe()
        state = composite_state(perp, phi0, spec, 0.7)
        samples = sample_shadows(state, self.Q, 97, unitary_fn)
        return state.amplitudes, np.stack([s.row for s in samples]), phi0, perp

    @staticmethod
    def mean_and_se(values):
        return values.mean(), values.std(ddof=1) / np.sqrt(len(values))

    def test_single_shot_mean_and_variance_match_oracle(self):
        psi, direct, phi0, perp = self.draws(None)
        _, oracle, _, _ = self.draws(haar_unitary)
        obs = random_one_local(3, 1, seed=4)[0]
        for part in ("real", "imag"):
            gamma = build_gamma(obs, phi0, perp, part=part)
            shots = [
                17 * gamma._quadrature(rows @ gamma.u, rows @ gamma.v)
                for rows in (direct, oracle)
            ]
            (m1, se1), (m2, se2) = (self.mean_and_se(x) for x in shots)
            assert abs(m1 - m2) <= 4.0 * np.hypot(se1, se2)
            (v1, sv1), (v2, sv2) = (
                self.mean_and_se((x - x.mean()) ** 2) for x in shots
            )
            assert abs(v1 - v2) <= 4.0 * np.hypot(sv1, sv2)

    def test_rows_unit_norm_with_reweighted_overlap(self):
        # |<c|psi>|^2 ~ Beta(2, D-1) under both samplers, mean 2/(D+1)
        for unitary_fn in (None, haar_unitary):
            psi, rows, _, _ = self.draws(unitary_fn)
            np.testing.assert_allclose(
                np.linalg.norm(rows, axis=1), 1.0, atol=1e-12
            )
            mean, se = self.mean_and_se(np.abs(rows @ psi) ** 2)
            assert abs(mean - 2.0 / 17) <= 4.0 * se


class TestEstimateTrace:
    def test_within_five_sigma_of_exact(self):
        spec, phi0, perp = three_qubit_probe()
        obs = random_one_local(3, 1, seed=4)[0]
        gamma = build_gamma(obs, phi0, perp, part="real")
        state = composite_state(perp, phi0, spec, 0.7)
        exact = gamma.expectation(state.amplitudes)
        samples = sample_shadows(state, 10_000, seed=2024)
        est = estimate_trace(samples, gamma)
        assert abs(est - exact) <= 5.0 * np.sqrt(variance_bound(gamma) / 10_000)

    def test_linear_in_observable_scale(self):
        spec, phi0, perp = three_qubit_probe()
        obs = random_one_local(3, 1, seed=4)[0]
        gamma = build_gamma(obs, phi0, perp, part="real")
        doubled = RankTwoObservable(3, 2.0 * gamma.u, gamma.v, "real")
        state = composite_state(perp, phi0, spec, 0.5)
        samples = sample_shadows(state, 40, seed=3)
        assert estimate_trace(samples, doubled) == pytest.approx(
            2.0 * estimate_trace(samples, gamma), abs=1e-12
        )

    def test_concatenated_batches_average(self):
        spec, phi0, perp = three_qubit_probe()
        obs = random_one_local(3, 1, seed=4)[0]
        gamma = build_gamma(obs, phi0, perp, part="real")
        state = composite_state(perp, phi0, spec, 0.5)
        a = sample_shadows(state, 30, seed=4)
        b = sample_shadows(state, 10, seed=5)
        merged = estimate_trace(a + b, gamma)
        expected = (30 * estimate_trace(a, gamma) + 10 * estimate_trace(b, gamma)) / 40
        assert merged == pytest.approx(expected, abs=1e-12)

    def test_maximally_mixed_state_averages_to_zero(self):
        """Uniform outcomes with Haar rotations emulate the maximally
        mixed state, whose expectation of a traceless operator vanishes."""
        _, phi0, perp = three_qubit_probe()
        obs = random_one_local(3, 1, seed=4)[0]
        gamma = build_gamma(obs, phi0, perp, part="real")
        rng = np.random.default_rng(5)
        n = 2000
        samples = [ShadowSample(haar_unitary(16, rng)[i % 16]) for i in range(n)]
        est = estimate_trace(samples, gamma)
        assert abs(est) <= 5.0 * np.sqrt(variance_bound(gamma) / n)

    def test_enumerated_outcomes_give_exact_zero(self):
        # identity rotations with every outcome once (rows e_b): the
        # estimate reduces to (D+1)/D * Tr[Gamma] = 0 with no statistical error
        _, phi0, perp = three_qubit_probe()
        obs = random_one_local(3, 1, seed=4)[0]
        gamma = build_gamma(obs, phi0, perp, part="real")
        samples = [ShadowSample(row) for row in np.eye(16, dtype=complex)]
        assert estimate_trace(samples, gamma) == pytest.approx(0.0, abs=1e-12)

    def test_empty_batch_rejected(self):
        _, phi0, perp = three_qubit_probe()
        gamma = build_gamma(identity_sum(3), phi0, perp)
        with pytest.raises(ValueError):
            estimate_trace([], gamma)

    def test_register_width_mismatch_rejected(self):
        _, phi0, perp = three_qubit_probe()
        gamma = build_gamma(identity_sum(3), phi0, perp)
        with pytest.raises(ValueError):
            estimate_trace([ShadowSample(np.eye(8, dtype=complex)[1])], gamma)


class TestVarianceBound:
    def test_unit_pauli_value(self):
        _, phi0, perp = three_qubit_probe()
        obs = random_one_local(3, 1, seed=4)[0]
        assert variance_bound(build_gamma(obs, phi0, perp)) == pytest.approx(6.0)

    def test_three_times_trace_square(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            u = np.zeros(8, dtype=complex)
            u[4:] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            v = np.zeros(8, dtype=complex)
            v[:4] = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            gamma = RankTwoObservable(2, u, v, "real")
            dense = gamma.dense()
            assert variance_bound(gamma) == pytest.approx(
                3.0 * np.trace(dense @ dense).real, abs=1e-9
            )


class TestShotBudget:
    def test_quadratic_in_inverse_tolerance(self):
        fine = shot_budget(4, 2.0, 0.1)
        coarse = shot_budget(4, 2.0, 0.2)
        assert 3.9 <= fine / coarse <= 4.1

    def test_single_observable_floor(self):
        # the log factor saturates at ln 2 below two observables
        assert shot_budget(1, 1.0, 1.0) == shot_budget(2, 1.0, 1.0) == 24

    def test_monotone_in_observable_count(self):
        budgets = [shot_budget(i, 1.0, 0.5) for i in (2, 4, 16, 256)]
        assert budgets == sorted(budgets)

    def test_empirical_coverage(self):
        """The budgeted batch hits the target accuracy for >= 90% of
        repetitions on a two-observable 3-qubit instance."""
        spec, phi0, perp = three_qubit_probe()
        obs_pair = random_one_local(3, 2, seed=9)
        q = shot_budget(2, 1.0, 1.5)
        assert q == 11
        gammas = [build_gamma(o, phi0, perp) for o in obs_pair]
        state = composite_state(perp, phi0, spec, 0.7)
        exacts = [g.expectation(state.amplitudes) for g in gammas]
        hits = 0
        for rep in range(100):
            samples = sample_shadows(state, q, 8000 + rep)
            errs = [
                abs(estimate_trace(samples, g) - ex)
                for g, ex in zip(gammas, exacts)
            ]
            hits += max(errs) <= 1.5
        assert hits >= 90

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            shot_budget(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            shot_budget(1, 0.0, 1.0)
        with pytest.raises(ValueError):
            shot_budget(1, 1.0, 0.0)
        with pytest.raises(ValueError):
            shot_budget(1, 1.0, 1.0, constant=0.0)


class TestShadowSignal:
    def test_rows_independent_of_companion_observables(self):
        # all observables share each step's measurement batch, so adding
        # observables must not perturb existing rows in any bit
        spec, phi0, perp = two_qubit_probe()
        obs = random_one_local(2, 2, seed=3)
        alone = shadow_signal(spec, phi0, perp, obs[:1], 0.7, 4, 30, seed=21)
        together = shadow_signal(spec, phi0, perp, obs, 0.7, 4, 30, seed=21)
        np.testing.assert_array_equal(alone.values[0], together.values[0])

    def test_complex_mode_extends_real_mode(self):
        spec, phi0, perp = two_qubit_probe()
        obs = [identity_sum(2)]
        real = shadow_signal(spec, phi0, perp, obs, 0.7, 4, 30, seed=22)
        both = shadow_signal(
            spec, phi0, perp, obs, 0.7, 4, 30, seed=22, mode="complex"
        )
        np.testing.assert_array_equal(real.values, both.values.real)

    def test_one_batch_per_time_step(self):
        spec, phi0, perp = two_qubit_probe()
        calls = []

        def counting(dim, rng):
            calls.append(dim)
            return haar_unitary(dim, rng)

        shadow_signal(
            spec, phi0, perp, [identity_sum(2)], 0.7, 3, 25, seed=23,
            unitary_fn=counting,
        )
        single = len(calls)
        calls.clear()
        shadow_signal(
            spec, phi0, perp, random_one_local(2, 3, seed=1), 0.7, 3, 25,
            seed=23, unitary_fn=counting,
        )
        # the oracle draws one rotation per shot, Q shots per step
        assert single == len(calls) == 25 * 4

    def test_deterministic_per_seed(self):
        spec, phi0, perp = two_qubit_probe()
        a = shadow_signal(spec, phi0, perp, [identity_sum(2)], 0.7, 3, 20, seed=5)
        b = shadow_signal(spec, phi0, perp, [identity_sum(2)], 0.7, 3, 20, seed=5)
        np.testing.assert_array_equal(a.values, b.values)

    def test_entrywise_error_within_variance_budget(self):
        spec, phi0, perp = two_qubit_probe()
        obs = [identity_sum(2), random_one_local(2, 1, seed=3)[0]]
        truth = exact_signal(spec, phi0, obs, 0.7, 9, mode="real")
        est = shadow_signal(spec, phi0, perp, obs, 0.7, 9, 2000, seed=31_415)
        rms = np.sqrt(np.mean((est.values - truth.values) ** 2))
        cap = max(variance_bound(build_gamma(o, phi0, perp)) for o in obs)
        assert rms <= np.sqrt(cap / 2000)

    def test_rms_error_scales_as_inverse_root_samples(self):
        """Quadrupling the per-step batch halves the RMS entry error
        (2 +/- 25%), pooling two observables, ten steps, three seeds."""
        spec, phi0, perp = two_qubit_probe()
        obs = [identity_sum(2), random_one_local(2, 1, seed=3)[0]]
        truth = exact_signal(spec, phi0, obs, 0.7, 9, mode="real")
        errs_small, errs_big = [], []
        for rep in range(3):
            small = shadow_signal(
                spec, phi0, perp, obs, 0.7, 9, 400, seed=11_000 + rep
            )
            big = shadow_signal(
                spec, phi0, perp, obs, 0.7, 9, 1600, seed=12_000 + rep
            )
            errs_small.append(small.values - truth.values)
            errs_big.append(big.values - truth.values)
        rms_small = np.sqrt(np.mean(np.square(errs_small)))
        rms_big = np.sqrt(np.mean(np.square(errs_big)))
        assert 1.5 <= rms_small / rms_big <= 2.5

    def test_invalid_arguments_rejected(self):
        spec, phi0, perp = two_qubit_probe()
        with pytest.raises(ValueError):
            shadow_signal(spec, phi0, perp, [], 0.7, 3, 10, seed=1)
        with pytest.raises(ValueError):
            shadow_signal(
                spec, phi0, perp, [identity_sum(2)], 0.7, -1, 10, seed=1
            )
        with pytest.raises(ValueError):
            shadow_signal(
                spec, phi0, perp, [identity_sum(2)], 0.7, 3, 10, seed=1,
                mode="abs",
            )


class TestGaussianNoiseChannel:
    @staticmethod
    def flat_signal(mode="real"):
        vals = np.zeros((100, 1000))
        if mode == "complex":
            vals = vals.astype(complex)
        return MultiObservableSignal(100, 1.0, vals, mode=mode)

    def test_zero_strength_copies_bitwise(self):
        rng = np.random.default_rng(10)
        vals = rng.standard_normal((3, 7))
        signal = MultiObservableSignal(3, 1.0, vals, mode="real")
        out = gaussian_noise_channel(signal, NoiseSpec(0.0, seed=1))
        assert out is not signal
        np.testing.assert_array_equal(out.values, signal.values)

    def test_sample_deviation_matches_strength(self):
        noisy = gaussian_noise_channel(
            self.flat_signal(), NoiseSpec(0.02, seed=17, target="both")
        )
        assert abs(np.std(noisy.values) / 0.02 - 1.0) <= 0.05
        assert abs(np.mean(noisy.values)) <= 5 * 0.02 / np.sqrt(100_000)

    def test_real_signal_ignores_imag_target(self):
        rng = np.random.default_rng(11)
        vals = rng.standard_normal((2, 9))
        signal = MultiObservableSignal(2, 1.0, vals, mode="real")
        out = gaussian_noise_channel(signal, NoiseSpec(0.1, seed=3, target="imag"))
        np.testing.assert_array_equal(out.values, signal.values)

    def test_complex_targets_hit_selected_quadratures(self):
        signal = self.flat_signal("complex")
        re_only = gaussian_noise_channel(signal, NoiseSpec(0.1, 4, target="real"))
        im_only = gaussian_noise_channel(signal, NoiseSpec(0.1, 4, target="imag"))
        both = gaussian_noise_channel(signal, NoiseSpec(0.1, 4, target="both"))
        assert np.all(re_only.values.imag == 0.0)
        assert np.all(im_only.values.real == 0.0)
        # the real-part field draws first from the seeded stream
        np.testing.assert_array_equal(both.values.real, re_only.values.real)

    def test_deterministic_per_seed(self):
        signal = self.flat_signal()
        a = gaussian_noise_channel(signal, NoiseSpec(0.5, seed=6))
        b = gaussian_noise_channel(signal, NoiseSpec(0.5, seed=6))
        np.testing.assert_array_equal(a.values, b.values)

    def test_noise_spec_validated(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1, seed=0)
        with pytest.raises(ValueError):
            NoiseSpec(float("nan"), seed=0)
        with pytest.raises(ValueError):
            NoiseSpec(0.1, seed=0, target="everything")
