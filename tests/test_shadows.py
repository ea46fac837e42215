"""Tests for randomized-measurement signal estimation."""

import numpy as np
import pytest

from modmd import (
    MultiObservableSignal,
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
    random_one_local,
    sample_shadows,
    shadow_signal,
    to_dense,
    variance_bound,
)
from modmd.pauli import PauliString, PauliSum, one_local_pool
from modmd.shadows import _block_bytes, _estimate_batch


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


def alternating_probe(n_qubits):
    """Energies 0 and pi at dt = 1: the probe alternates between its t = 0
    state, where the identity's Gram is singular, and a generic one, so one
    ``shadow_signal`` call of single shots samples two fixed states. The
    companion is a basis state made orthogonal to the reference."""
    dim = 1 << n_qubits
    basis, _ = np.linalg.qr(np.random.default_rng(n_qubits).standard_normal((dim, dim)))
    spec = diagonalize(np.pi * basis[:, : dim // 2] @ basis[:, : dim // 2].T)
    refs = ["0" * n_qubits, "1" * n_qubits, "1" + "0" * (n_qubits - 1)]
    phi0 = build_reference_superposition(n_qubits, refs)
    e3 = np.zeros(dim, dtype=complex)
    e3[3] = 1.0
    raw = e3 - np.vdot(phi0.amplitudes, e3) * phi0.amplitudes
    return spec, phi0, StateVector.normalized(n_qubits, raw)


def haar_unitary(dim, rng):
    """Haar-distributed unitary via QR of a complex Gaussian matrix."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    return q * (diag / np.abs(diag))


def haar_shadows(state, n_samples, seed, unitary_fn=haar_unitary):
    """The explicit randomized-measurement protocol, the oracle of
    ``sample_shadows``' row law (Huang, Kueng and Preskill, arXiv
    2002.08953): per shot draw ``U = unitary_fn(D, rng)``, sample ``b`` by
    the Born rule and record the row ``U[b]``."""
    dim = 1 << state.n_qubits
    psi = state.amplitudes / np.linalg.norm(state.amplitudes)
    rng = np.random.default_rng(seed)
    rows = np.empty((n_samples, dim), dtype=complex)
    for i in range(n_samples):
        u = unitary_fn(dim, rng)
        probs = np.abs(u @ psi) ** 2
        rows[i] = u[rng.choice(dim, p=probs / probs.sum())]
    return rows


def row_signal(spec, phi0, perp, observables, dt, k_max, n_samples, seed):
    """Complex signals from the per-step row path, the overlap sampler's
    oracle: ``composite_state`` -> ``sample_shadows`` -> ``_estimate_batch``."""
    gammas = [build_gamma(o, phi0, perp, p) for p in ("real", "imag") for o in observables]
    n_obs = len(observables)
    values = np.empty((n_obs, k_max + 1), dtype=complex)
    for k in range(k_max + 1):
        state = composite_state(perp, phi0, spec, k * dt)
        est = _estimate_batch(sample_shadows(state, n_samples, seed + k), gammas)
        values[:, k] = est[:n_obs] + 1j * est[n_obs:]
    return values


def row_shots(state, phi0, perp, observables, n_samples, seed, sampler=sample_shadows):
    """Single-shot estimates of the row path, real quadratures then
    imaginary ones, as a ``(2 I, n_samples)`` array."""
    rows = sampler(state, n_samples, seed)
    gammas = [build_gamma(o, phi0, perp, p) for p in ("real", "imag") for o in observables]
    return np.array([(g.dim + 1) * g._quadrature(rows @ g.u, rows @ g.v) for g in gammas])


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
    def test_probe_is_a_state_on_one_more_qubit(self):
        spec, phi0, perp = two_qubit_probe()
        state = composite_state(perp, phi0, spec, 0.3)
        assert isinstance(state, StateVector)
        assert state.n_qubits == 3

    def test_outcomes_within_register(self):
        # every measured row is a unit vector of the 3-qubit register
        spec, phi0, perp = two_qubit_probe()
        state = composite_state(perp, phi0, spec, 0.3)
        rows = sample_shadows(state, 50, seed=1)
        assert rows.shape == (50, 8)
        assert rows.dtype == complex
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    def test_deterministic_per_seed(self):
        spec, phi0, perp = two_qubit_probe()
        state = composite_state(perp, phi0, spec, 0.3)
        a = sample_shadows(state, 20, seed=7)
        b = sample_shadows(state, 20, seed=7)
        c = sample_shadows(state, 20, seed=8)
        np.testing.assert_array_equal(a, b)
        assert not np.any(np.all(a == c, axis=1))

    def test_identity_rotation_samples_computational_weights(self):
        # with no rotation the rows are basis vectors e_b, and the only
        # reachable outcomes b carry amplitude
        spec, phi0, perp = two_qubit_probe()
        state = composite_state(perp, phi0, spec, 0.0)
        support = set(np.flatnonzero(np.abs(state.amplitudes) > 1e-12))
        hook = lambda dim, rng: np.eye(dim, dtype=complex)
        rows = haar_shadows(state, 200, seed=2, unitary_fn=hook)
        outcomes = {int(np.flatnonzero(row)[0]) for row in rows}
        assert all(np.count_nonzero(row) == 1 for row in rows)
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
        # each recorded row is the rotation's row at the observed outcome
        rows = haar_shadows(state, q, seed=777, unitary_fn=hook)
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


class TestDirectSampler:
    """The default row sampler against the Haar oracle (``haar_shadows``)."""

    Q = 6000

    def draws(self, sampler):
        spec, phi0, perp = three_qubit_probe()
        state = composite_state(perp, phi0, spec, 0.7)
        rows = sampler(state, self.Q, 97)
        return state.amplitudes, rows, phi0, perp

    @staticmethod
    def mean_and_se(values):
        return values.mean(), values.std(ddof=1) / np.sqrt(len(values))

    def test_single_shot_mean_and_variance_match_oracle(self):
        psi, direct, phi0, perp = self.draws(sample_shadows)
        _, oracle, _, _ = self.draws(haar_shadows)
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
        for sampler in (sample_shadows, haar_shadows):
            psi, rows, _, _ = self.draws(sampler)
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
        rows = sample_shadows(state, 10_000, seed=2024)
        est = estimate_trace(rows, gamma)
        assert abs(est - exact) <= 5.0 * np.sqrt(variance_bound(gamma) / 10_000)

    def test_linear_in_observable_scale(self):
        spec, phi0, perp = three_qubit_probe()
        obs = random_one_local(3, 1, seed=4)[0]
        gamma = build_gamma(obs, phi0, perp, part="real")
        doubled = RankTwoObservable(3, 2.0 * gamma.u, gamma.v, "real")
        state = composite_state(perp, phi0, spec, 0.5)
        rows = sample_shadows(state, 40, seed=3)
        assert estimate_trace(rows, doubled) == pytest.approx(
            2.0 * estimate_trace(rows, gamma), abs=1e-12
        )

    def test_concatenated_batches_average(self):
        spec, phi0, perp = three_qubit_probe()
        obs = random_one_local(3, 1, seed=4)[0]
        gamma = build_gamma(obs, phi0, perp, part="real")
        state = composite_state(perp, phi0, spec, 0.5)
        a = sample_shadows(state, 30, seed=4)
        b = sample_shadows(state, 10, seed=5)
        merged = estimate_trace(np.concatenate([a, b]), gamma)
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
        rows = np.array([haar_unitary(16, rng)[i % 16] for i in range(n)])
        est = estimate_trace(rows, gamma)
        assert abs(est) <= 5.0 * np.sqrt(variance_bound(gamma) / n)

    def test_enumerated_outcomes_give_exact_zero(self):
        # identity rotations with every outcome once (rows e_b): the
        # estimate reduces to (D+1)/D * Tr[Gamma] = 0 with no statistical error
        _, phi0, perp = three_qubit_probe()
        obs = random_one_local(3, 1, seed=4)[0]
        gamma = build_gamma(obs, phi0, perp, part="real")
        rows = np.eye(16, dtype=complex)
        assert estimate_trace(rows, gamma) == pytest.approx(0.0, abs=1e-12)

    def test_empty_batch_rejected(self):
        _, phi0, perp = three_qubit_probe()
        gamma = build_gamma(identity_sum(3), phi0, perp)
        with pytest.raises(ValueError):
            estimate_trace([], gamma)

    def test_register_width_mismatch_rejected(self):
        _, phi0, perp = three_qubit_probe()
        gamma = build_gamma(identity_sum(3), phi0, perp)
        with pytest.raises(ValueError):
            estimate_trace([np.eye(8, dtype=complex)[1]], gamma)

    def test_malformed_rows_rejected(self):
        # the batch must be a non-empty (shots, D) array, one row per shot
        _, phi0, perp = three_qubit_probe()
        gamma = build_gamma(identity_sum(3), phi0, perp)
        for rows in (
            np.ones(16, dtype=complex),
            np.ones((2, 1, 16), dtype=complex),
            np.ones((0, 16), dtype=complex),
            np.ones((3, 6), dtype=complex),
            [np.ones(16), np.ones(8)],
        ):
            with pytest.raises(ValueError):
                estimate_trace(rows, gamma)

    def test_list_of_rows_equals_array(self):
        spec, phi0, perp = three_qubit_probe()
        gamma = build_gamma(identity_sum(3), phi0, perp)
        rows = sample_shadows(composite_state(perp, phi0, spec, 0.5), 5, seed=6)
        assert estimate_trace(list(rows), gamma) == estimate_trace(rows, gamma)
        assert estimate_trace([rows[0]], gamma) == estimate_trace(rows[:1], gamma)


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

    def test_companions_leave_rows_alone_across_step_blocks(self):
        # 71 steps make three step blocks, each from its own generator
        spec, phi0, perp = two_qubit_probe()
        obs = random_one_local(2, 3, seed=3)
        signals = [
            shadow_signal(spec, phi0, perp, obs[:n], 0.7, 70, 5, seed=24, mode="complex")
            for n in (1, 2, 3)
        ]
        np.testing.assert_array_equal(signals[0].values[0], signals[2].values[0])
        np.testing.assert_array_equal(signals[1].values, signals[2].values[:2])

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
        with pytest.raises(ValueError):
            shadow_signal(spec, phi0, perp, [identity_sum(2)], 0.7, 3, 0, seed=1)


class TestOverlapSampler:
    """``shadow_signal``'s overlap sampler against the row path it replaced."""

    @staticmethod
    def split(values):
        return np.concatenate([values.real, values.imag])

    @pytest.mark.parametrize("n_qubits", [3, 6])
    def test_single_shots_match_row_oracle(self, n_qubits):
        """20000 single shots of the identity and three one-local
        observables, both quadratures, at a singular and a generic state.
        Variance ratios read 0.97-1.07 in a probe (row against row
        0.95-1.05); correlation differences 0.019-0.040 (row against row
        0.020-0.038)."""
        spec, phi0, perp = alternating_probe(n_qubits)
        obs = [identity_sum(n_qubits)] + random_one_local(n_qubits, 3, seed=5)
        q = 10_000
        shots = shadow_signal(spec, phi0, perp, obs, 1.0, 2 * q - 1, 1, seed=77, mode="complex")
        for parity in (0, 1):
            state = composite_state(perp, phi0, spec, float(parity))
            new = self.split(shots.values[:, parity::2])
            row, other = (row_shots(state, phi0, perp, obs, q, seed) for seed in (5, 6))
            se = np.hypot(new.std(axis=1), row.std(axis=1)) / np.sqrt(q)
            assert np.all(np.abs(new.mean(axis=1) - row.mean(axis=1)) <= 4.0 * se)
            ratio = new.var(axis=1) / row.var(axis=1)
            assert np.all((0.9 <= ratio) & (ratio <= 1.1)), ratio
            drift = np.abs(np.corrcoef(new) - np.corrcoef(row)).max()
            own = np.abs(np.corrcoef(other) - np.corrcoef(row)).max()
            assert drift <= own + 0.03, (drift, own)

    def test_single_shots_match_haar_oracle(self):
        # the explicit protocol: a Haar rotation and a Born outcome per shot
        spec, phi0, perp = alternating_probe(2)
        obs = [identity_sum(2)] + random_one_local(2, 2, seed=5)
        q = 3000
        shots = shadow_signal(spec, phi0, perp, obs, 1.0, 2 * q - 1, 1, seed=78, mode="complex")
        for parity in (0, 1):
            state = composite_state(perp, phi0, spec, float(parity))
            new = self.split(shots.values[:, parity::2])
            haar = row_shots(state, phi0, perp, obs, q, 7, haar_shadows)
            for x, y in zip(new, haar):
                (m1, se1), (m2, se2) = (TestDirectSampler.mean_and_se(v) for v in (x, y))
                assert abs(m1 - m2) <= 4.0 * np.hypot(se1, se2)
                (v1, sv1), (v2, sv2) = (
                    TestDirectSampler.mean_and_se((v - v.mean()) ** 2) for v in (x, y)
                )
                assert abs(v1 - v2) <= 4.0 * np.hypot(sv1, sv2)

    @pytest.mark.parametrize(
        "n_qubits, observables, k_max",
        [
            # psi_0 = (u + v)/sqrt(2) for the identity: a zero pivot at k = 0
            (3, [identity_sum(3)], 0),
            # v and the six one-local u_i: m = 7 = D - 1, the u_i in 4 dimensions
            (2, list(one_local_pool(2)), 2),
        ],
        ids=["identity-at-step-0", "m-is-D-minus-1"],
    )
    def test_rank_deficient_steps_finite_and_unbiased(self, n_qubits, observables, k_max):
        spec, phi0, perp = three_qubit_probe() if n_qubits == 3 else two_qubit_probe()
        q = 20_000
        est = shadow_signal(
            spec, phi0, perp, observables, 0.7, k_max, q, seed=8, mode="complex"
        ).values
        oracle = row_signal(spec, phi0, perp, observables, 0.7, k_max, q, seed=9)
        assert np.all(np.isfinite(est))
        # each part of either estimate has variance at most variance_bound / q
        bound = max(variance_bound(build_gamma(o, phi0, perp)) for o in observables)
        tol = 4.0 * np.sqrt(2.0 * bound / q)
        assert np.all(np.abs(est.real - oracle.real) <= tol)
        assert np.all(np.abs(est.imag - oracle.imag) <= tol)

    def test_peak_memory_within_the_step_block_estimate(self, traced_peak):
        # the shot-block cap counts this estimate; a peak read 0.95-0.97 of it
        spec, phi0, perp = three_qubit_probe()
        for count in (1, 6):
            obs = random_one_local(3, count, seed=2)
            _, peak = traced_peak(shadow_signal, spec, phi0, perp, obs, 0.7, 100, 4000, 3)
            assert 0.75 * _block_bytes(count, 4000) <= peak <= _block_bytes(count, 4000)


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
        out = gaussian_noise_channel(signal, 0.0, seed=1)
        assert out is not signal
        np.testing.assert_array_equal(out.values, signal.values)

    def test_sample_deviation_matches_strength(self):
        noisy = gaussian_noise_channel(self.flat_signal(), 0.02, seed=17)
        assert abs(np.std(noisy.values) / 0.02 - 1.0) <= 0.05
        assert abs(np.mean(noisy.values)) <= 5 * 0.02 / np.sqrt(100_000)

    def test_real_signal_ignores_imag_target(self):
        # a real signal has no imaginary part: it gets the real field alone
        signal = self.flat_signal()
        out = gaussian_noise_channel(signal, 0.1, seed=3)
        assert out.values.dtype == float
        expected = 0.1 * np.random.default_rng(3).standard_normal((100, 1000))
        np.testing.assert_array_equal(out.values, expected)

    def test_complex_signal_noisy_in_both_parts_real_first(self):
        signal = self.flat_signal("complex")
        out = gaussian_noise_channel(signal, 0.1, seed=4)
        rng = np.random.default_rng(4)
        real_field = 0.1 * rng.standard_normal((100, 1000))
        imag_field = 0.1 * rng.standard_normal((100, 1000))
        np.testing.assert_array_equal(out.values.real, real_field)
        np.testing.assert_array_equal(out.values.imag, imag_field)

    def test_deterministic_per_seed(self):
        signal = self.flat_signal()
        a = gaussian_noise_channel(signal, 0.5, seed=6)
        b = gaussian_noise_channel(signal, 0.5, seed=6)
        np.testing.assert_array_equal(a.values, b.values)

    def test_noise_spec_validated(self):
        signal = self.flat_signal()
        for epsilon in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                gaussian_noise_channel(signal, epsilon, seed=0)


# Malformed observables: system qubits, the lengths of u and v, the error
# and its message.
_MALFORMED = [
    (2, 4, 8, "u and v must have length 8"),
    (2, 8, 16, "u and v must have length 8"),
    (1, 8, 8, "u and v must have length 4"),
]


@pytest.mark.parametrize("n_system, u_length, v_length, message", _MALFORMED)
def test_malformed_observable_is_refused(n_system, u_length, v_length, message):
    with pytest.raises(ValueError) as error:
        RankTwoObservable(n_system, np.zeros(u_length), np.zeros(v_length), "real")
    assert type(error.value) is ValueError
    assert str(error.value) == message
