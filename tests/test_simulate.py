"""Tests for exact dynamics, Trotterization, and signal generation."""

import math

import numpy as np
import pytest
import scipy.linalg

from modmd import (
    DegenerateInputError,
    MultiObservableSignal,
    PauliString,
    PauliSum,
    SpectralDecomposition,
    StateVector,
    build_reference_superposition,
    build_tfim,
    composite_state,
    diagonalize,
    evolve,
    exact_signal,
    shift_and_scale,
    to_dense,
    trotter_evolve,
)
from modmd.harness import _solve
from modmd.simulate import HERMITICITY_RTOL, _phase_sums


def identity_sum(n_qubits):
    return PauliSum.from_terms(n_qubits, [(1.0, PauliString.identity(n_qubits))])


def random_state(n_qubits, rng):
    amps = rng.standard_normal(1 << n_qubits) + 1j * rng.standard_normal(
        1 << n_qubits
    )
    return StateVector.normalized(n_qubits, amps)


def random_hermitian_sum(n_qubits, rng, n_terms=5):
    axes = list("IXYZ")
    labels = set()
    while len(labels) < n_terms:
        labels.add("".join(rng.choice(axes, size=n_qubits)))
    return PauliSum.from_terms(
        n_qubits,
        [
            (float(rng.standard_normal()), PauliString.from_label(lab))
            for lab in sorted(labels)
        ],
    )


def complex_hermitian_sum(n_qubits, rng):
    """A random Pauli sum with terms of one and three Y factors, so its
    matrix has imaginary entries."""
    labels = ["Y" + "X" * (n_qubits - 1), "YYY" + "Z" * (n_qubits - 3)]
    extra = random_hermitian_sum(n_qubits, rng, n_terms=4)
    terms = [(float(rng.standard_normal()), PauliString.from_label(lab)) for lab in labels]
    return PauliSum.from_terms(n_qubits, terms + list(zip(extra.coefficients, extra.strings)))


def complex_eigh_oracle(matrix):
    """Eigensystem from the complex Hermitian solver, whatever the entries."""
    energies, vectors = np.linalg.eigh(np.asarray(matrix, dtype=complex))
    return SpectralDecomposition(energies, vectors)


def solver_calls(monkeypatch, matrix):
    """``diagonalize(matrix)`` and the dtype and size of each matrix its
    eigensolver received."""
    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        seen.append((np.asarray(a).dtype, len(a)))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    spec = diagonalize(matrix)
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return spec, seen


def block_solve(monkeypatch, psum):
    """The eigensystem of ``psum`` over the whole register from its
    symmetry blocks (``harness._solve`` of the identity stack), and the
    dtype and size of each block its eigensolver received."""
    seen = []
    eigh = np.linalg.eigh

    def recording_eigh(a, *args, **kwargs):
        seen.append((np.asarray(a).dtype, len(a)))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    dimension = 1 << psum.n_qubits
    spec = SpectralDecomposition(*_solve(psum, np.arange(dimension), np.eye(dimension)))
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    return spec, seen


def centrosymmetric(matrix):
    """``(M + J M J) / 2`` with ``J`` the index reversal. Each entry and
    its mirror sum the same two numbers, so the result equals its
    reversal exactly."""
    return (matrix + matrix[::-1, ::-1]) / 2.0


def flip_symmetric_sum(n_qubits, rng, complex_valued, n_terms=12):
    """A random Pauli sum that commutes with the spin flip ``X^n`` (every
    string has an even count of Z and Y factors), so its matrix equals its
    index reversal; complex when one string has an odd count of Y."""
    labels = {"YZ" + "X" * (n_qubits - 2)} if complex_valued else set()
    while len(labels) < n_terms:
        label = "".join(rng.choice(list("IXYZ"), size=n_qubits))
        if (label.count("Y") + label.count("Z")) % 2 == 0 and (
            complex_valued or label.count("Y") % 2 == 0
        ):
            labels.add(label)
    terms = [(float(rng.standard_normal()), PauliString.from_label(lab)) for lab in sorted(labels)]
    return PauliSum.from_terms(n_qubits, terms)


class TestStateVector:
    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVector(1, np.array([1.0, 1.0], dtype=complex))

    def test_normalized_constructor(self):
        state = StateVector.normalized(1, np.array([3.0, 4.0], dtype=complex))
        np.testing.assert_allclose(np.abs(state.amplitudes), [0.6, 0.8])


class TestDiagonalize:
    def test_diagonal_input(self):
        spec = diagonalize(np.diag([1.0, -1.0]).astype(complex))
        np.testing.assert_allclose(spec.energies, [-1.0, 1.0])

    def test_pauli_x_eigvecs(self):
        spec = diagonalize(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        np.testing.assert_allclose(spec.energies, [-1.0, 1.0])
        minus, plus = spec.eigenvectors[:, 0], spec.eigenvectors[:, 1]
        # eigenvectors defined up to phase; compare squared overlaps
        target_minus = np.array([1.0, -1.0]) / math.sqrt(2.0)
        target_plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert abs(np.vdot(target_minus, minus)) == pytest.approx(1.0)
        assert abs(np.vdot(target_plus, plus)) == pytest.approx(1.0)

    def test_tfim_two_qubit_spectrum(self):
        spec = diagonalize(to_dense(build_tfim(2, 1.0, 1.0)))
        root5 = math.sqrt(5.0)
        np.testing.assert_allclose(
            spec.energies, [-root5, -1.0, 1.0, root5], atol=1e-12
        )

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            dim = int(rng.integers(2, 17))
            z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
                (dim, dim)
            )
            h = (z + z.conj().T) / 2.0
            spec = diagonalize(h)
            assert np.all(np.diff(spec.energies) >= -1e-12)
            rebuilt = (
                spec.eigenvectors
                @ np.diag(spec.energies)
                @ spec.eigenvectors.conj().T
            )
            assert np.linalg.norm(rebuilt - h) <= 1e-8 * np.linalg.norm(h)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            diagonalize(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    @pytest.mark.parametrize("complex_valued", [False, True])
    def test_hermiticity_tolerance_is_relative_frobenius(self, complex_valued):
        # 150 rows: two full strips and a partial one
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal((2, 150, 150))
        if complex_valued:
            z, skew = a + 1j * b, 1j * (b + b.T)
        else:
            z, skew = a, b - b.T
        h = z + z.conj().T
        # M = H + c S has M - M^H = 2 c S, and |M| = |H| to first order in c
        for factor, accepted in ((0.99, True), (1.01, False)):
            c = factor * HERMITICITY_RTOL * np.linalg.norm(h) / (
                2.0 * np.linalg.norm(skew)
            )
            matrix = h + c * skew
            assert np.iscomplexobj(matrix) == complex_valued
            if accepted:
                diagonalize(matrix)
            else:
                with pytest.raises(ValueError, match="not Hermitian"):
                    diagonalize(matrix)

    @pytest.mark.parametrize(
        "psum, calls",
        [
            # spin-flip and mirror symmetric: still one real solve
            (build_tfim(6, 1.0, 0.8), [(float, 64)]),
            # XYYZI has an odd count of Y and Z factors: one full solve
            (PauliSum.from_terms(
                5,
                [
                    (0.7, PauliString.from_label("XYYZI")),
                    (-1.1, PauliString.from_label("YIYII")),
                    (0.4, PauliString.from_label("ZZIXX")),
                    (0.9, PauliString.from_label("IYXYZ")),
                    (-0.3, PauliString.from_label("IIIIZ")),
                ],
            ), [(float, 32)]),
        ],
        ids=["tfim", "even-y"],
    )
    def test_real_matrix_takes_real_solver(self, monkeypatch, psum, calls):
        matrix = to_dense(psum)
        assert not np.any(matrix.imag)
        oracle = complex_eigh_oracle(matrix)
        spec, seen = solver_calls(monkeypatch, matrix)
        assert seen == [(np.dtype(dtype), size) for dtype, size in calls]
        scale = np.max(np.abs(oracle.energies))
        np.testing.assert_allclose(spec.energies, oracle.energies, rtol=0, atol=1e-12 * scale)
        rng = np.random.default_rng(31)
        n = psum.n_qubits
        phi0 = random_state(n, rng)
        obs = [identity_sum(n), random_hermitian_sum(n, rng, n_terms=3)]
        got = exact_signal(spec, phi0, obs, 0.3, 40, mode="complex")
        want = exact_signal(oracle, phi0, obs, 0.3, 40, mode="complex")
        np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12)

    def test_complex_matrix_takes_complex_solver(self, monkeypatch):
        matrix = to_dense(complex_hermitian_sum(4, np.random.default_rng(32)))
        assert np.any(matrix.imag)
        oracle = complex_eigh_oracle(matrix)
        spec, seen = solver_calls(monkeypatch, matrix)
        assert seen == [(np.dtype(complex), 16)]
        np.testing.assert_array_equal(spec.energies, oracle.energies)


class TestSpinFlipSplit:
    """A Pauli sum that commutes with the spin flip ``X^n`` (its matrix
    equals its index reversal) is solved in symmetry blocks by
    ``harness._solve``; the full complex ``eigh`` is the oracle of both its
    lifted basis and its projected signals. :func:`diagonalize` itself
    makes one solve of any matrix."""

    @staticmethod
    def assert_matches_oracle(psum, spec, seed):
        matrix, n_qubits = to_dense(psum), psum.n_qubits
        oracle = complex_eigh_oracle(matrix)
        scale = max(np.max(np.abs(oracle.energies)), 1.0)
        np.testing.assert_allclose(
            spec.energies, oracle.energies, rtol=0, atol=1e-12 * scale
        )
        vectors = spec.eigenvectors
        np.testing.assert_allclose(
            vectors.conj().T @ vectors, np.eye(len(matrix)), rtol=0, atol=1e-12
        )
        # The signal sums whole eigenspaces, so it is the same for any
        # basis of a degenerate level.
        rng = np.random.default_rng(seed)
        phi0 = random_state(n_qubits, rng)
        obs = [identity_sum(n_qubits), random_hermitian_sum(n_qubits, rng, n_terms=3)]
        for mode in ("real", "complex"):
            got = exact_signal(spec, phi0, obs, 0.3, 40, mode=mode)
            want = exact_signal(oracle, phi0, obs, 0.3, 40, mode=mode)
            np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12)
        # the projection path, which forms no eigenbasis
        stack = np.array([phi0.amplitudes] + [o.apply(phi0.amplitudes) for o in obs])
        energies, projected = _solve(psum, np.arange(len(matrix)), stack)
        np.testing.assert_array_equal(energies, spec.energies)
        np.testing.assert_allclose(
            _phase_sums(energies, projected, 0.3, 40), want.values, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize("field", [0.7, 0.0], ids=["h=0.7", "h=0"])
    @pytest.mark.parametrize("n_qubits", range(2, 11))
    def test_tfim_chain(self, monkeypatch, n_qubits, field):
        """The flip and the mirror give four real blocks (one is empty at
        two qubits); the largest holds one state per orbit of the four."""
        psum = build_tfim(n_qubits, 1.0, field)
        spec, seen = block_solve(monkeypatch, psum)
        sizes = [size for _, size in seen]
        assert {dtype for dtype, _ in seen} == {np.dtype(float)}
        assert len(seen) == (3 if n_qubits == 2 else 4)
        assert sum(sizes) == 1 << n_qubits
        # Burnside: 2^n states, 2^ceil(n/2) palindromes, and for even n
        # 2^(n/2) states that the flip and the mirror map onto themselves
        fixed = 2 ** ((n_qubits + 1) // 2) + (2 ** (n_qubits // 2) if n_qubits % 2 == 0 else 0)
        assert sizes[0] == max(sizes) == ((1 << n_qubits) + fixed) // 4
        self.assert_matches_oracle(psum, spec, seed=n_qubits)

    @pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
    def test_random_centrosymmetric(self, monkeypatch, complex_valued):
        psum = flip_symmetric_sum(5, np.random.default_rng(41), complex_valued)
        matrix = to_dense(psum)
        assert np.array_equal(matrix, matrix[::-1, ::-1])
        assert np.iscomplexobj(matrix) == complex_valued
        spec, seen = block_solve(monkeypatch, psum)
        dtype = np.dtype(complex if complex_valued else float)
        assert seen == [(dtype, 16), (dtype, 16)]
        self.assert_matches_oracle(psum, spec, seed=42)

    def test_projection_holds_no_basis(self, traced_peak):
        """A stack of a few rows is projected block by block, and each
        block's eigenvectors are dropped once projected: at 9 qubits the
        peak stays below half of one real ``8 * 4^n``-byte matrix."""
        n = 9
        stack = np.random.default_rng(47).standard_normal((3, 1 << n)) + 0j
        (energies, projected), peak = traced_peak(
            _solve, build_tfim(n, 1.0, 0.7), np.arange(1 << n), stack
        )
        assert projected.shape == (3, 1 << n) and len(energies) == 1 << n
        assert peak < 0.5 * 8 * 4**n

    def test_one_ulp_off_takes_full_solve(self, monkeypatch):
        """A uniform Z field breaks the flip and keeps the mirror; one
        field coefficient one ulp off breaks the mirror too."""
        n = 5
        terms = list(build_tfim(n, 1.0, 0.7).terms)
        terms += [(0.3, PauliString.single(n, q, "Z")) for q in range(n)]
        _, seen = block_solve(monkeypatch, PauliSum.from_terms(n, terms))
        assert seen == [(np.dtype(float), 20), (np.dtype(float), 12)]
        terms[-1] = (np.nextafter(0.3, 1.0), terms[-1][1])
        psum = PauliSum.from_terms(n, terms)
        spec, seen = block_solve(monkeypatch, psum)
        assert seen == [(np.dtype(float), 32)]
        self.assert_matches_oracle(psum, spec, seed=43)

    def test_odd_dimension_takes_full_solve(self, monkeypatch):
        rng = np.random.default_rng(44)
        z = rng.standard_normal((7, 7))
        matrix = centrosymmetric(z + z.T)
        assert np.array_equal(matrix, matrix[::-1, ::-1])
        spec, seen = solver_calls(monkeypatch, matrix)
        assert seen == [(np.dtype(float), 7)]
        oracle = complex_eigh_oracle(matrix)
        np.testing.assert_allclose(spec.energies, oracle.energies, rtol=0, atol=1e-12)


class TestRealEigenbasis:
    """A real matrix keeps a real eigenbasis on both solver paths, and
    every consumer of it agrees with the complex ``eigh`` oracle."""

    EVEN_Y = PauliSum.from_terms(
        4,
        [
            (0.7, PauliString.from_label("XYYZ")),
            (-1.1, PauliString.from_label("YIYI")),
            (0.4, PauliString.from_label("ZZIX")),
            (-0.3, PauliString.from_label("IIIZ")),
        ],
    )

    @pytest.mark.parametrize(
        "psum, n_solves",
        [(build_tfim(5, 1.0, 0.7), 4), (EVEN_Y, 1)],
        ids=["split", "full"],
    )
    def test_real_sum_gives_float_basis(self, monkeypatch, psum, n_solves):
        assert to_dense(psum).dtype == np.float64
        spec, seen = block_solve(monkeypatch, psum)
        assert len(seen) == n_solves
        assert spec.eigenvectors.dtype == np.float64

    @pytest.mark.parametrize("split", [True, False], ids=["split", "full"])
    def test_complex_sum_keeps_complex_basis(self, monkeypatch, split):
        rng = np.random.default_rng(45)
        if split:
            psum = flip_symmetric_sum(4, rng, complex_valued=True)
        else:
            psum = complex_hermitian_sum(4, rng)
        assert np.iscomplexobj(to_dense(psum))
        spec, seen = block_solve(monkeypatch, psum)
        assert len(seen) == (2 if split else 1)
        assert spec.eigenvectors.dtype == np.complex128

    @pytest.mark.parametrize(
        "psum", [build_tfim(5, 1.0, 0.7), EVEN_Y], ids=["split", "full"]
    )
    def test_consumers_match_complex_oracle(self, psum):
        matrix = to_dense(psum)
        spec = SpectralDecomposition(*_solve(psum, np.arange(len(matrix)), np.eye(len(matrix))))
        oracle = complex_eigh_oracle(matrix)
        n = psum.n_qubits
        rng = np.random.default_rng(46)
        phi0, phi_perp = random_state(n, rng), random_state(n, rng)
        obs = [identity_sum(n), random_hermitian_sum(n, rng, n_terms=3), psum]
        for mode in ("real", "complex"):
            got = exact_signal(spec, phi0, obs, 0.3, 40, mode=mode)
            want = exact_signal(oracle, phi0, obs, 0.3, 40, mode=mode)
            np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12)
        for t in (0.0, 0.9, 7.3):
            got = composite_state(phi_perp, phi0, spec, t)
            want = composite_state(phi_perp, phi0, oracle, t)
            np.testing.assert_allclose(
                got.amplitudes, want.amplitudes, rtol=0, atol=1e-12
            )

    def test_evolve_allocates_no_basis_sized_array(self, traced_peak):
        """A complex state meets a real basis in real products: numpy's
        mixed product would first copy the basis to complex."""
        spec = diagonalize(to_dense(build_tfim(8, 1.0, 0.7)))
        state = random_state(8, np.random.default_rng(47))
        assert spec.eigenvectors.dtype == np.float64
        _, peak = traced_peak(evolve, spec, state, 0.7)
        assert peak < spec.eigenvectors.nbytes / 8


class TestEvolve:
    def test_complex_hamiltonian_matches_matrix_exponential(self):
        rng = np.random.default_rng(33)
        h = to_dense(complex_hermitian_sum(4, rng))
        spec = diagonalize(h)
        state = random_state(4, rng)
        for t in (0.0, 0.4, 2.3):
            expected = scipy.linalg.expm(-1j * t * h) @ state.amplitudes
            evolved = evolve(spec, state, t)
            np.testing.assert_allclose(evolved.amplitudes, expected, rtol=0, atol=1e-12)

    def test_zero_time_is_identity(self):
        rng = np.random.default_rng(1)
        spec = diagonalize(to_dense(build_tfim(3, 1.0, 1.0)))
        state = random_state(3, rng)
        evolved = evolve(spec, state, 0.0)
        np.testing.assert_allclose(evolved.amplitudes, state.amplitudes, atol=1e-12)

    def test_eigenstate_picks_up_phase(self):
        spec = diagonalize(to_dense(build_tfim(2, 1.0, 1.0)))
        for n in range(4):
            eig = StateVector(2, spec.eigenvectors[:, n].copy())
            evolved = evolve(spec, eig, 0.37)
            phase = np.vdot(eig.amplitudes, evolved.amplitudes)
            assert phase == pytest.approx(
                np.exp(-1j * spec.energies[n] * 0.37), abs=1e-12
            )

    def test_group_property(self):
        rng = np.random.default_rng(2)
        spec = diagonalize(to_dense(build_tfim(3, 1.0, 0.6)))
        state = random_state(3, rng)
        for _ in range(5):
            t1, t2 = rng.uniform(-2.0, 2.0, size=2)
            once = evolve(spec, state, t1 + t2)
            twice = evolve(spec, evolve(spec, state, t1), t2)
            np.testing.assert_allclose(
                once.amplitudes, twice.amplitudes, atol=1e-9
            )

    def test_unitary_over_many_steps(self):
        rng = np.random.default_rng(3)
        spec = diagonalize(to_dense(build_tfim(2, 1.0, 0.9)))
        state = random_state(2, rng)
        for _ in range(1000):
            state = evolve(spec, state, 0.05)
        assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-10

    def test_dimension_mismatch_rejected(self):
        spec = diagonalize(to_dense(build_tfim(2, 1.0, 1.0)))
        with pytest.raises(ValueError):
            evolve(spec, StateVector(1, np.array([1.0, 0.0], dtype=complex)), 1.0)


class TestTrotterEvolve:
    def test_single_term_exact_for_any_r(self):
        rng = np.random.default_rng(4)
        psum = PauliSum.from_terms(
            2, [(0.8, PauliString.from_label("XY"))]
        )
        spec = diagonalize(to_dense(psum))
        state = random_state(2, rng)
        for r in (1, 3, 10):
            approx = trotter_evolve(psum, state, 0.9, r)
            exact = evolve(spec, state, 0.9)
            np.testing.assert_allclose(
                approx.amplitudes, exact.amplitudes, atol=1e-12
            )

    def test_commuting_terms_exact(self):
        rng = np.random.default_rng(6)
        psum = PauliSum.from_terms(
            3,
            [
                (0.5, PauliString.from_label("ZZI")),
                (-0.7, PauliString.from_label("IZZ")),
                (0.3, PauliString.from_label("ZIZ")),
            ],
        )
        spec = diagonalize(to_dense(psum))
        state = random_state(3, rng)
        approx = trotter_evolve(psum, state, 1.3, 1)
        exact = evolve(spec, state, 1.3)
        np.testing.assert_allclose(approx.amplitudes, exact.amplitudes, atol=1e-10)

    def test_first_order_convergence_ratio(self):
        """Halving the step size halves the operator-norm error."""
        h = build_tfim(3, 1.0, 1.0)
        spec = diagonalize(to_dense(h))
        t = 0.5
        exact_u = (
            spec.eigenvectors
            @ np.diag(np.exp(-1j * spec.energies * t))
            @ spec.eigenvectors.conj().T
        )

        def trotter_unitary(r):
            cols = []
            for b in range(8):
                amps = np.zeros(8, dtype=complex)
                amps[b] = 1.0
                cols.append(
                    trotter_evolve(h, StateVector(3, amps), t, r).amplitudes
                )
            return np.array(cols).T

        errors = {r: np.linalg.norm(trotter_unitary(r) - exact_u, 2) for r in (4, 8, 16)}
        assert 1.6 <= errors[4] / errors[8] <= 2.4
        assert 1.6 <= errors[8] / errors[16] <= 2.4

    def test_norm_preserved(self):
        rng = np.random.default_rng(8)
        h = build_tfim(3, 1.0, 0.4)
        state = random_state(3, rng)
        out = trotter_evolve(h, state, 2.0, 7)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) <= 1e-12

    def test_invalid_step_count_rejected(self):
        h = build_tfim(2, 1.0, 1.0)
        state = StateVector(2, np.eye(4, dtype=complex)[0])
        with pytest.raises(ValueError):
            trotter_evolve(h, state, 1.0, 0)


class TestBuildReferenceSuperposition:
    def test_single_bitstring(self):
        state = build_reference_superposition(2, ["00"])
        np.testing.assert_array_equal(state.amplitudes, [1, 0, 0, 0])

    def test_two_bitstrings_equal_amplitudes(self):
        state = build_reference_superposition(2, ["00", "11"])
        np.testing.assert_allclose(
            state.amplitudes,
            [1.0 / math.sqrt(2.0), 0.0, 0.0, 1.0 / math.sqrt(2.0)],
        )

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            build_reference_superposition(2, ["01", "01"])

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            build_reference_superposition(2, ["011"])

    def test_low_eigenstate_overlap_is_small_but_sufficient(self):
        """The sparse reference keeps only order-1e-1 total weight on the
        lowest four eigenstates, mirroring the regime the solver targets."""
        L = 10
        refs = [
            "0" * L,
            "1" * L,
            "1" + "0" * (L - 1),
            "0" * 5 + "1" * 5,
            "0" * 4 + "1" * 6,
            "0" * 3 + "1" * 7,
        ]
        phi0 = build_reference_superposition(L, refs)
        spec = diagonalize(to_dense(build_tfim(L, 1.0, 1.0)))
        overlap_sum = sum(
            abs(np.vdot(spec.eigenvectors[:, n], phi0.amplitudes)) ** 2
            for n in range(4)
        )
        assert 0.01 <= overlap_sum <= 0.5


class TestCompositeState:
    def test_two_amplitude_structure_at_time_zero(self):
        spec = diagonalize(to_dense(build_tfim(2, 1.0, 1.0)))
        phi_perp = build_reference_superposition(2, ["00"])
        phi0 = build_reference_superposition(2, ["11"])
        state = composite_state(phi_perp, phi0, spec, 0.0)
        nonzero = np.flatnonzero(np.abs(state.amplitudes) > 1e-12)
        # ancilla-0 block holds |00>, ancilla-1 block holds |11>
        np.testing.assert_array_equal(nonzero, [0, 7])
        np.testing.assert_allclose(
            np.abs(state.amplitudes[nonzero]), 1.0 / math.sqrt(2.0)
        )

    def test_unit_norm_for_generic_inputs(self):
        rng = np.random.default_rng(12)
        spec = diagonalize(to_dense(build_tfim(3, 1.0, 0.8)))
        for _ in range(5):
            state = composite_state(
                random_state(3, rng), random_state(3, rng), spec, rng.uniform(0, 3)
            )
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) <= 1e-10

    def test_ancilla_one_block_is_evolved_reference(self):
        rng = np.random.default_rng(13)
        spec = diagonalize(to_dense(build_tfim(3, 1.0, 0.8)))
        phi_perp = random_state(3, rng)
        phi0 = random_state(3, rng)
        t = 1.7
        state = composite_state(phi_perp, phi0, spec, t)
        evolved = evolve(spec, phi0, t)
        np.testing.assert_allclose(
            state.amplitudes[8:], evolved.amplitudes / math.sqrt(2.0), atol=1e-12
        )
        np.testing.assert_allclose(
            state.amplitudes[:8], phi_perp.amplitudes / math.sqrt(2.0), atol=1e-12
        )

    def test_dimension_mismatch_rejected(self):
        spec = diagonalize(to_dense(build_tfim(2, 1.0, 1.0)))
        phi0 = build_reference_superposition(2, ["00"])
        small = StateVector(1, np.array([1.0, 0.0], dtype=complex))
        with pytest.raises(ValueError):
            composite_state(small, phi0, spec, 0.0)


class TestExactSignal:
    def test_identity_observable_at_time_zero(self):
        spec = diagonalize(to_dense(build_tfim(2, 1.0, 1.0)))
        phi0 = build_reference_superposition(2, ["00", "11"])
        signal = exact_signal(spec, phi0, [identity_sum(2)], 0.5, 0, mode="complex")
        assert signal.values[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_eigenstate_gives_pure_phase(self):
        spec = diagonalize(to_dense(build_tfim(2, 1.0, 1.0)))
        n, dt = 1, 0.4
        phi0 = StateVector(2, spec.eigenvectors[:, n].copy())
        signal = exact_signal(spec, phi0, [identity_sum(2)], dt, 6, mode="complex")
        k = np.arange(7)
        np.testing.assert_allclose(
            signal.values[0], np.exp(-1j * spec.energies[n] * k * dt), atol=1e-12
        )

    def test_ferromagnetic_ground_state_signal(self):
        # H = -ZZ has E = -1 on |00>, so the complex signal rotates as
        # exp(+i k dt)
        psum = PauliSum.from_terms(2, [(-1.0, PauliString.from_label("ZZ"))])
        spec = diagonalize(to_dense(psum))
        phi0 = build_reference_superposition(2, ["00"])
        dt = 0.3
        signal = exact_signal(spec, phi0, [identity_sum(2)], dt, 5, mode="complex")
        np.testing.assert_allclose(
            signal.values[0], np.exp(1j * np.arange(6) * dt), atol=1e-12
        )

    def test_real_mode_is_elementwise_real_part(self):
        rng = np.random.default_rng(21)
        spec = diagonalize(to_dense(build_tfim(3, 1.0, 0.7)))
        phi0 = random_state(3, rng)
        obs = [identity_sum(3), build_tfim(3, 1.0, 0.7)]
        full = exact_signal(spec, phi0, obs, 0.45, 9, mode="complex")
        real = exact_signal(spec, phi0, obs, 0.45, 9, mode="real")
        assert real.mode == "real"
        np.testing.assert_allclose(real.values, full.values.real, atol=1e-12)

    def test_matches_direct_matrix_vector_path(self):
        """Eigenbasis evaluation agrees with literal evolve-then-project
        (matrix exponential), for a real Hamiltonian and for a complex one
        with complex observables."""
        rng = np.random.default_rng(22)
        h = random_hermitian_sum(3, rng)
        real_case = (h, [h, identity_sum(3)], random_state(3, rng))
        h = complex_hermitian_sum(3, rng)
        obs = [h, complex_hermitian_sum(3, rng), identity_sum(3)]
        assert all(np.any(to_dense(o).imag) for o in obs[:2])
        complex_case = (h, obs, random_state(3, rng))
        dt, k_max = 0.6, 8
        for h, obs, phi0 in (real_case, complex_case):
            dense = to_dense(h)
            spec = diagonalize(dense)
            signal = exact_signal(spec, phi0, obs, dt, k_max, mode="complex")
            for k in range(k_max + 1):
                evolved = scipy.linalg.expm(-1j * k * dt * dense) @ phi0.amplitudes
                for i, o in enumerate(obs):
                    direct = np.vdot(phi0.amplitudes, o.apply(evolved))
                    assert signal.values[i, k] == pytest.approx(direct, abs=1e-9)

    def test_identity_signal_equals_overlap_autocorrelation(self):
        rng = np.random.default_rng(23)
        spec = diagonalize(to_dense(build_tfim(3, 1.0, 1.2)))
        phi0 = random_state(3, rng)
        dt, k_max = 0.8, 12
        signal = exact_signal(spec, phi0, [identity_sum(3)], dt, k_max, mode="complex")
        alpha_sq = np.abs(spec.eigenvectors.conj().T @ phi0.amplitudes) ** 2
        for k in range(k_max + 1):
            expected = np.sum(alpha_sq * np.exp(-1j * spec.energies * k * dt))
            assert signal.values[0, k] == pytest.approx(expected, abs=1e-10)
            overlap = np.vdot(
                phi0.amplitudes, evolve(spec, phi0, k * dt).amplitudes
            )
            assert signal.values[0, k] == pytest.approx(overlap, abs=1e-10)

    def test_amplitude_bounded_by_observable_weight(self):
        rng = np.random.default_rng(24)
        for _ in range(10):
            h = random_hermitian_sum(3, rng)
            obs = random_hermitian_sum(3, rng, n_terms=3)
            spec = diagonalize(to_dense(h))
            phi0 = random_state(3, rng)
            signal = exact_signal(spec, phi0, [obs], 0.5, 20, mode="complex")
            assert np.max(np.abs(signal.values)) <= obs.weight_l1 + 1e-10

    @pytest.mark.parametrize("mode", ["complex", "real"])
    @pytest.mark.parametrize("k_max", [0, 1, 31, 32, 33, 700])
    def test_column_blocks_match_direct_phase_sum(self, k_max, mode):
        """The blocks of 32 samples meet without a gap or an overlap, and
        700 steps of shifts build up no drift: every sample matches the
        full ``exp`` table within 1e-12 of the coefficients' 1-norm."""
        rng = np.random.default_rng(25)
        h, _ = shift_and_scale(complex_hermitian_sum(4, rng))
        spec = diagonalize(to_dense(h))
        phi0 = random_state(4, rng)
        obs = [identity_sum(4), complex_hermitian_sum(4, rng)]
        dt = 1.0
        got = exact_signal(spec, phi0, obs, dt, k_max, mode=mode)
        v = spec.eigenvectors
        b = v.conj().T @ phi0.amplitudes
        coeffs = np.array([(v.conj().T @ o.apply(phi0.amplitudes)).conj() * b for o in obs])
        table = np.exp(-1j * dt * np.outer(spec.energies, np.arange(k_max + 1)))
        want = coeffs @ table
        if mode == "real":
            want = want.real
        assert got.values.shape == want.shape == (2, k_max + 1)
        bound = 1e-12 * np.abs(coeffs).sum(axis=1, keepdims=True)
        assert np.all(np.abs(got.values - want) <= bound)

    def test_invalid_arguments_rejected(self):
        spec = diagonalize(to_dense(build_tfim(2, 1.0, 1.0)))
        phi0 = build_reference_superposition(2, ["00"])
        with pytest.raises(ValueError):
            exact_signal(spec, phi0, [identity_sum(2)], 0.0, 3)
        with pytest.raises(ValueError):
            exact_signal(spec, phi0, [identity_sum(2)], 0.5, -1)
        with pytest.raises(ValueError):
            exact_signal(spec, phi0, [], 0.5, 3)


class TestMultiObservableSignal:
    def test_prefix_truncates_steps(self):
        spec = diagonalize(to_dense(build_tfim(2, 1.0, 1.0)))
        phi0 = build_reference_superposition(2, ["00", "11"])
        signal = exact_signal(spec, phi0, [identity_sum(2)], 0.5, 10)
        short = signal.prefix(4)
        assert short.n_steps == 4
        np.testing.assert_array_equal(short.values, signal.values[:, :4])

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            from modmd import MultiObservableSignal

            MultiObservableSignal(2, 0.5, np.zeros((3, 4)), mode="real")


def _unit_signal():
    return MultiObservableSignal(1, 0.1, np.zeros((1, 3)))


# Malformed states, spectra, signals and calls: each builder, the error
# and its message.
_MALFORMED = [
    (
        lambda: StateVector(1, np.ones(3)),
        ValueError,
        "expected 2 amplitudes for 1 qubits, got shape (3,)",
    ),
    (
        lambda: StateVector.normalized(1, np.zeros(2)),
        DegenerateInputError,
        "cannot normalize the zero vector",
    ),
    (
        lambda: SpectralDecomposition(np.zeros(2), np.eye(3)),
        ValueError,
        "eigenvector matrix must be square and match energies",
    ),
    (
        lambda: SpectralDecomposition(np.array([1.0, 0.0]), np.eye(2)),
        ValueError,
        "energies must ascend",
    ),
    (
        lambda: MultiObservableSignal(1, 0.1, np.zeros((1, 3)), "both"),
        ValueError,
        "mode must be 'real' or 'complex', got 'both'",
    ),
    (
        lambda: MultiObservableSignal(1, 0.0, np.zeros((1, 3))),
        ValueError,
        "dt must be positive, got 0.0",
    ),
    (lambda: _unit_signal().prefix(4), ValueError, "n_steps must lie in [1, 3]"),
    (lambda: _unit_signal().prefix(0), ValueError, "n_steps must lie in [1, 3]"),
    (
        lambda: diagonalize(np.zeros((2, 3))),
        ValueError,
        "expected a square matrix, got shape (2, 3)",
    ),
    (
        lambda: trotter_evolve(
            identity_sum(2), build_reference_superposition(1, ["0"]), 1.0, 1
        ),
        ValueError,
        "state and operator register widths differ",
    ),
    (
        lambda: build_reference_superposition(2, []),
        ValueError,
        "need at least one bitstring",
    ),
    (
        lambda: exact_signal(
            diagonalize(np.eye(2)),
            build_reference_superposition(1, ["0"]),
            [identity_sum(1), identity_sum(2)],
            0.1,
            3,
        ),
        ValueError,
        "observable 1 register width mismatch",
    ),
]


@pytest.mark.parametrize("build, kind, message", _MALFORMED)
def test_malformed_input_is_refused(build, kind, message):
    with pytest.raises(kind) as error:
        build()
    assert type(error.value) is kind
    assert str(error.value) == message
