"""Tests for Pauli-sum construction, parsing, and spectral rescaling."""

import math

import numpy as np
import pytest

from modmd import (
    DegenerateInputError,
    PauliParseError,
    PauliString,
    PauliSum,
    ResourceCapError,
    build_tfim,
    format_pauli_sum,
    parse_pauli_sum,
    partial_sum_observables,
    random_one_local,
    shift_and_scale,
    sort_by_weight,
    to_dense,
)
from modmd import pauli

PAULI_MATRICES = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def dense_from_labels(n_qubits, terms):
    """Independent kron-product realization used as a dense oracle."""
    dim = 1 << n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, label in terms:
        factor = np.eye(1, dtype=complex)
        for axis in label:
            factor = np.kron(factor, PAULI_MATRICES[axis])
        out += coeff * factor
    return out


def term_multiset(psum):
    return sorted((c, s.label) for c, s in psum.terms)


class TestPauliString:
    def test_label_round_trip(self):
        for label in ("IXYZ", "ZZZ", "I", "YX"):
            assert PauliString.from_label(label).label == label

    def test_equality_is_canonical(self):
        a = PauliString.from_label("XZ")
        b = PauliString(2, a.x_mask, a.z_mask)
        assert a == b

    def test_single_places_axis_on_requested_qubit(self):
        s = PauliString.single(3, 1, "Y")
        assert s.label == "IYI"

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XA")
        with pytest.raises(ValueError):
            PauliString.from_label("")


class TestParsePauliSum:
    def test_three_term_two_qubit_input(self):
        psum = parse_pauli_sum("-1.0 ZZ\n-1.0 XI\n-1.0 IX")
        assert psum.n_qubits == 2
        assert psum.num_terms == 3
        assert term_multiset(psum) == [(-1.0, "IX"), (-1.0, "XI"), (-1.0, "ZZ")]

    def test_duplicate_terms_merge(self):
        psum = parse_pauli_sum("1.0 Z\n1.0 Z")
        assert psum.num_terms == 1
        assert term_multiset(psum) == [(2.0, "Z")]

    def test_illegal_axis_reports_line_one(self):
        with pytest.raises(PauliParseError, match="line 1"):
            parse_pauli_sum("1.0 ZA")

    def test_bad_coefficient_reports_line_number(self):
        for bad in ("nope", "nan", "inf", "-inf"):
            with pytest.raises(PauliParseError, match=f"line 2: bad coefficient '{bad}'"):
                parse_pauli_sum(f"1.0 Z\n{bad} Z")

    def test_inconsistent_widths_report_offending_line(self):
        with pytest.raises(PauliParseError, match="line 3"):
            parse_pauli_sum("1.0 ZZ\n2.0 XX\n3.0 X")

    def test_comments_and_blank_lines_skipped(self):
        text = "# header\n\n1.0 ZZ\n  # inline comment line\n-0.5 XI\n"
        psum = parse_pauli_sum(text)
        assert psum.num_terms == 2

    def test_empty_input_rejected(self):
        with pytest.raises(PauliParseError, match="line 1"):
            parse_pauli_sum("# only a comment\n")

    def test_format_parse_round_trip(self):
        rng = np.random.default_rng(11)
        axes = "IXYZ"
        for _ in range(20):
            n = int(rng.integers(1, 5))
            labels = set()
            while len(labels) < 3:
                labels.add("".join(rng.choice(list(axes), size=n)))
            terms = [
                (float(rng.standard_normal()), PauliString.from_label(lab))
                for lab in sorted(labels)
            ]
            psum = PauliSum.from_terms(n, terms)
            again = parse_pauli_sum(format_pauli_sum(psum))
            assert term_multiset(again) == term_multiset(psum)


class TestBuildTfim:
    def test_zero_field_keeps_coupling_only(self):
        psum = build_tfim(2, 1.0, 0.0)
        assert term_multiset(psum) == [(-1.0, "ZZ")]

    def test_three_qubit_terms(self):
        psum = build_tfim(3, 1.0, 1.0)
        assert psum.num_terms == 5
        assert term_multiset(psum) == [
            (-1.0, "IIX"),
            (-1.0, "IXI"),
            (-1.0, "IZZ"),
            (-1.0, "XII"),
            (-1.0, "ZZI"),
        ]

    def test_term_count_matches_chain_length(self):
        for n in (2, 4, 7):
            assert build_tfim(n, 0.7, 0.3).num_terms == 2 * n - 1

    def test_two_qubit_spectrum(self):
        # characteristic polynomial of the dense 4x4 factors as
        # (1 - x)(1 + x)(x^2 - 5), giving {-sqrt5, -1, 1, sqrt5}
        energies = np.linalg.eigvalsh(to_dense(build_tfim(2, 1.0, 1.0)))
        root5 = math.sqrt(5.0)
        np.testing.assert_allclose(energies, [-root5, -1.0, 1.0, root5], atol=1e-12)

    def test_short_chain_rejected(self):
        with pytest.raises(ValueError):
            build_tfim(1, 1.0, 1.0)

    def test_fully_degenerate_couplings_rejected(self):
        with pytest.raises(DegenerateInputError):
            build_tfim(3, 0.0, 0.0)


class TestToDense:
    def test_single_z(self):
        psum = PauliSum.from_terms(1, [(1.0, PauliString.from_label("Z"))])
        np.testing.assert_array_equal(to_dense(psum), np.diag([1.0, -1.0]))

    def test_single_x(self):
        psum = PauliSum.from_terms(1, [(1.0, PauliString.from_label("X"))])
        np.testing.assert_array_equal(to_dense(psum), [[0.0, 1.0], [1.0, 0.0]])

    def test_matches_kron_oracle_on_random_sums(self):
        rng = np.random.default_rng(23)
        axes = list("IXYZ")
        for _ in range(15):
            n = int(rng.integers(1, 5))
            labels = {"".join(rng.choice(axes, size=n)) for _ in range(4)}
            terms = [(float(rng.standard_normal()), lab) for lab in sorted(labels)]
            psum = PauliSum.from_terms(
                n, [(c, PauliString.from_label(lab)) for c, lab in terms]
            )
            np.testing.assert_allclose(
                to_dense(psum), dense_from_labels(n, terms), atol=1e-12
            )

    def test_hermitian_for_real_coefficients(self):
        rng = np.random.default_rng(7)
        axes = list("IXYZ")
        for _ in range(10):
            n = int(rng.integers(1, 6))
            labels = {"".join(rng.choice(axes, size=n)) for _ in range(5)}
            psum = PauliSum.from_terms(
                n,
                [
                    (float(rng.standard_normal()), PauliString.from_label(lab))
                    for lab in sorted(labels)
                ],
            )
            dense = to_dense(psum)
            assert np.max(np.abs(dense - dense.conj().T)) <= 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(3)
        a = build_tfim(3, 1.0, 0.5)
        b = PauliSum.from_terms(
            3,
            [
                (0.8, PauliString.from_label("XYZ")),
                (-0.2, PauliString.from_label("IZI")),
            ],
        )
        alpha, beta = rng.standard_normal(2)
        combined = PauliSum.from_terms(
            3,
            [(alpha * c, s) for c, s in a.terms]
            + [(beta * c, s) for c, s in b.terms],
        )
        np.testing.assert_allclose(
            to_dense(combined),
            alpha * to_dense(a) + beta * to_dense(b),
            atol=1e-12,
        )

    @pytest.mark.parametrize(
        "psum, dtype",
        [
            (build_tfim(4, 1.0, 0.7), float),
            (parse_pauli_sum("1.0 XYY\n0.5 ZZI\n-0.7 IXX\n0.3 YIY\n"), float),
            (parse_pauli_sum("0.5 XXII\n0.5 YYII\n0.5 IIXX\n0.5 IIYY\n"), float),
            (parse_pauli_sum("1.0 XYZ\n0.5 ZZI\n-0.7 IXX\n0.3 YII\n"), complex),
        ],
        ids=["tfim", "even-y", "hopping", "odd-y"],
    )
    def test_real_sum_gives_real_matrix(self, psum, dtype):
        """A sum whose strings all carry an even number of Y factors has
        a real matrix, with the entries of the complex construction."""
        dense = to_dense(psum)
        assert dense.dtype == np.dtype(dtype)
        terms = [(c, s.label) for c, s in psum.terms]
        np.testing.assert_array_equal(dense, dense_from_labels(psum.n_qubits, terms))

    def test_register_above_cap_rejected(self, monkeypatch):
        monkeypatch.setattr(pauli, "_physical_memory_bytes", lambda: 2**30)
        psum = PauliSum.from_terms(
            15, [(1.0, PauliString.single(15, 0, "Z"))]
        )
        with pytest.raises(ResourceCapError):
            to_dense(psum)

    @pytest.mark.parametrize("n_qubits, refused", [(13, False), (14, True)])
    def test_cap_counts_matrix_and_eigenbasis(self, monkeypatch, n_qubits, refused):
        """On 7.8 GB, 13 qubits (2 x 1.07 GB) pass and 14 (2 x 4.3 GB) are
        refused before any allocation."""

        class Allocated(Exception):
            pass

        def no_allocation(*args, **kwargs):
            raise Allocated

        monkeypatch.setattr(pauli, "_physical_memory_bytes", lambda: int(7.8e9))
        monkeypatch.setattr(pauli.np, "zeros", no_allocation)
        psum = build_tfim(n_qubits, 1.0, 1.0)
        with pytest.raises(ResourceCapError if refused else Allocated):
            to_dense(psum)


class TestSectorBlock:
    """``_leak`` is the largest entry of :func:`to_dense`'s matrix from a
    particle sector to the rest (the sector's own block is checked through
    ``harness._solve`` in ``TestSymmetryBlocks``)."""

    def test_sector_states_ascend(self):
        np.testing.assert_array_equal(pauli._sector_states(4, 2), [3, 5, 6, 9, 10, 12])
        np.testing.assert_array_equal(pauli._sector_states(3, 0), [0])

    @pytest.mark.parametrize(
        "text, conserving",
        [
            ("0.5 XXI\n0.5 YYI\n0.5 IXX\n0.5 IYY\n0.3 ZII\n-0.2 IIZ\n", True),
            ("0.5 XYI\n-0.5 YXI\n0.7 IXY\n-0.7 IYX\n0.3 IZI\n", True),
            ("0.5 XXI\n-0.5 YYI\n0.5 IXX\n-0.5 IYY\n0.3 ZII\n", False),
            ("0.5 XXI\n0.5 IXX\n0.3 ZZI\n", False),
        ],
        ids=["xx+yy", "xy-yx-complex", "xx-yy", "xx"],
    )
    @pytest.mark.parametrize("particles", [0, 1, 2, 3])
    def test_block_and_leak_are_read_off_the_dense_matrix(self, text, conserving, particles):
        psum = parse_pauli_sum(text)
        dense = to_dense(psum)
        states = pauli._sector_states(3, particles)
        outside = np.setdiff1d(np.arange(8), states)
        leak = pauli._leak(psum, states)
        assert leak == np.abs(dense[np.ix_(outside, states)]).max(initial=0.0)
        assert (leak == 0.0) == conserving

    def test_whole_register_leaks_nothing(self):
        psum, states = build_tfim(3, 1.0, 0.5), np.arange(8)
        assert pauli._leak(psum, states) == 0.0


def random_sum(rng, n_qubits, n_terms):
    """A sum of distinct random strings with normal coefficients, and its
    ``(coefficient, label)`` terms for :func:`dense_from_labels`."""
    labels = sorted({"".join(rng.choice(list("IXYZ"), size=n_qubits)) for _ in range(n_terms)})
    terms = [(float(rng.standard_normal()), label) for label in labels]
    return PauliSum.from_terms(
        n_qubits, [(c, PauliString.from_label(label)) for c, label in terms]
    ), terms


class TestApply:
    """``PauliSum.apply`` against the kron-product matrix."""

    def test_matches_kron_oracle_on_random_sums(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            n = int(rng.integers(1, 6))
            psum, terms = random_sum(rng, n, int(rng.integers(1, 6)))
            amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            np.testing.assert_allclose(
                psum.apply(amps), dense_from_labels(n, terms) @ amps, rtol=0, atol=1e-13
            )

    def test_single_string_is_a_phased_permutation(self):
        """One string with coefficient 1 moves each amplitude, times 1, -1,
        i or -i, to its target: exact, as the matrix product is."""
        rng = np.random.default_rng(5)
        amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        for label in ("IIII", "XIII", "IYIZ", "YYYY", "ZXYI"):
            psum = PauliSum.from_terms(4, [(1.0, PauliString.from_label(label))])
            np.testing.assert_array_equal(
                psum.apply(amps), dense_from_labels(4, [(1.0, label)]) @ amps
            )

    def test_zero_operator_gives_zero(self):
        assert not np.any(PauliSum(3, (), ()).apply(np.ones(8)))


class TestProbes:
    """``_probes`` holds ``O |phi>`` of a reference superposition on the
    states the references reach: the entries of ``O.apply``, bit for bit."""

    @pytest.mark.parametrize("references", [[0], [5, 0, 12], [3, 9]])
    def test_rows_are_the_applied_vector_on_its_reach(self, references):
        rng = np.random.default_rng(len(references))
        observables = [
            random_sum(rng, 4, int(rng.integers(1, 6)))[0] for _ in range(6)
        ] + list(pauli.one_local_pool(4)) + [PauliSum(4, (), ())]
        refs = np.array(references)
        phi = np.zeros(16, complex)
        phi[refs] = 1.0 / math.sqrt(len(refs))
        reach, rows = pauli._probes(observables, refs)
        assert np.all(np.diff(reach) > 0)
        for observable, row in zip(observables, rows):
            full = observable.apply(phi)
            np.testing.assert_array_equal(row, full[reach])
            assert not np.any(np.delete(full, reach))
            kron = dense_from_labels(4, [(c, s.label) for c, s in observable.terms]) @ phi
            np.testing.assert_allclose(row, kron[reach], rtol=0, atol=1e-15)

    def test_reach_is_the_references_moved_by_each_x_mask(self):
        observables = [parse_pauli_sum("1.0 XIII\n0.5 IIYZ\n"), parse_pauli_sum("1.0 IIII\n")]
        reach, _ = pauli._probes(observables, np.array([0, 3]))
        np.testing.assert_array_equal(reach, [0, 1, 2, 3, 8, 11])


class TestSortByWeight:
    def test_magnitude_descending(self):
        psum = PauliSum.from_terms(
            1,
            [
                (0.1, PauliString.from_label("X")),
                (-2.0, PauliString.from_label("Z")),
            ],
        )
        sorted_terms = sort_by_weight(psum).terms
        assert [s.label for _, s in sorted_terms] == ["Z", "X"]
        assert [c for c, _ in sorted_terms] == [-2.0, 0.1]

    def test_idempotent(self):
        psum = sort_by_weight(build_tfim(4, 1.3, 0.4))
        assert sort_by_weight(psum).terms == psum.terms

    def test_tie_breaks_by_canonical_encoding(self):
        # Z encodes before X (z_mask only vs x_mask only), so equal
        # magnitudes keep Z first
        psum = PauliSum.from_terms(
            1,
            [
                (1.0, PauliString.from_label("X")),
                (-1.0, PauliString.from_label("Z")),
            ],
        )
        assert [s.label for _, s in sort_by_weight(psum).terms] == ["Z", "X"]

    def test_permutation_preserves_coefficient_multiset(self):
        rng = np.random.default_rng(17)
        axes = list("IXYZ")
        for _ in range(10):
            n = int(rng.integers(1, 5))
            labels = {"".join(rng.choice(axes, size=n)) for _ in range(6)}
            psum = PauliSum.from_terms(
                n,
                [
                    (float(rng.standard_normal()), PauliString.from_label(lab))
                    for lab in sorted(labels)
                ],
            )
            assert term_multiset(sort_by_weight(psum)) == term_multiset(psum)


class TestPartialSumObservables:
    def test_first_observable_is_the_full_sum(self):
        h = build_tfim(3, 1.0, 0.7)
        pools = partial_sum_observables(h, 3)
        assert term_multiset(pools[0]) == term_multiset(h)

    def test_drops_one_smallest_term_per_step(self):
        h = build_tfim(2, 1.0, 0.5)
        pools = partial_sum_observables(h, 2)
        assert term_multiset(pools[0]) == term_multiset(h)
        # the two field terms tie at |coeff| = 0.5; the canonical tie rule
        # keeps IX and drops XI first
        assert term_multiset(pools[1]) == [(-1.0, "ZZ"), (-0.5, "IX")]

    def test_single_observable_pool(self):
        h = build_tfim(4, 0.9, 0.2)
        pools = partial_sum_observables(h, 1)
        assert len(pools) == 1
        assert term_multiset(pools[0]) == term_multiset(h)

    def test_three_term_cardinalities(self):
        h = build_tfim(2, 1.0, 0.5)
        pools = partial_sum_observables(h, 3)
        assert [p.num_terms for p in pools] == [3, 2, 1]

    def test_count_past_term_count_reaches_empty_sum(self):
        h = build_tfim(2, 1.0, 0.5)
        pools = partial_sum_observables(h, 4)
        assert len(pools) == 4
        assert np.allclose(to_dense(pools[-1]), 0.0)

    def test_count_out_of_range_rejected(self):
        h = build_tfim(2, 1.0, 0.5)
        with pytest.raises(ValueError):
            partial_sum_observables(h, 0)
        with pytest.raises(ValueError):
            partial_sum_observables(h, 5)


class TestRandomOneLocal:
    def test_single_qubit_exhausts_axes(self):
        pool = random_one_local(1, 3, seed=9)
        labels = sorted(p.terms[0][1].label for p in pool)
        assert labels == ["X", "Y", "Z"]

    def test_deterministic_under_seed(self):
        first = random_one_local(15, 6, seed=1234)
        second = random_one_local(15, 6, seed=1234)
        assert [term_multiset(p) for p in first] == [
            term_multiset(p) for p in second
        ]

    def test_every_term_has_weight_one(self):
        for seed in range(5):
            for psum in random_one_local(4, 7, seed=seed):
                assert psum.num_terms == 1
                coeff, string = psum.terms[0]
                assert coeff == 1.0
                assert len(string.label.replace("I", "")) == 1

    def test_no_replacement_within_one_call(self):
        pool = random_one_local(2, 6, seed=0)
        labels = [p.terms[0][1].label for p in pool]
        assert len(set(labels)) == 6

    def test_oversized_pool_rejected(self):
        with pytest.raises(ValueError):
            random_one_local(2, 7, seed=0)

    def test_pool_is_x_y_z_on_each_qubit_in_turn(self):
        pool = pauli.one_local_pool(3)
        assert [p.strings[0].label for p in pool] == [
            "XII", "YII", "ZII", "IXI", "IYI", "IZI", "IIX", "IIY", "IIZ"
        ]
        assert all(p.coefficients == (1.0,) for p in pool)
        assert pauli.one_local_pool(3) is pool  # built once per width

    @pytest.mark.parametrize("seed", range(6))
    def test_draws_are_pool_entries_in_rng_order(self, seed):
        """The same ``rng.choice`` draw picks the same observables, in the
        same order, as building each draw's string from its index."""
        n, count = 5, 7
        picks = np.random.default_rng(seed).choice(3 * n, size=count, replace=False)
        expected = [
            PauliSum(n, (1.0,), (PauliString.single(n, int(p) // 3, "XYZ"[int(p) % 3]),))
            for p in picks
        ]
        drawn = random_one_local(n, count, seed=seed)
        assert drawn == expected
        pool = pauli.one_local_pool(n)
        assert all(any(d is p for p in pool) for d in drawn)


class TestShiftAndScale:
    def test_scale_from_weight_one_norm(self):
        psum = PauliSum.from_terms(
            2,
            [
                (2.5, PauliString.from_label("ZZ")),
                (-1.5, PauliString.from_label("XI")),
            ],
        )
        shifted, scale = shift_and_scale(psum, safety_fraction=0.5)
        assert scale == pytest.approx(math.pi / 8.0)
        energies = np.linalg.eigvalsh(to_dense(shifted))
        assert np.all(np.abs(energies) <= math.pi / 2.0 + 1e-12)

    def test_tfim_extremals_scale_exactly(self):
        psum = build_tfim(3, 1.0, 1.0)
        shifted, scale = shift_and_scale(psum)
        original = np.linalg.eigvalsh(to_dense(psum))
        rescaled = np.linalg.eigvalsh(to_dense(shifted))
        np.testing.assert_allclose(
            rescaled[[0, -1]], scale * original[[0, -1]], atol=1e-10
        )

    def test_spectrum_always_inside_envelope(self):
        rng = np.random.default_rng(31)
        axes = list("IXYZ")
        for _ in range(12):
            n = int(rng.integers(2, 7))
            labels = {"".join(rng.choice(axes, size=n)) for _ in range(6)}
            psum = PauliSum.from_terms(
                n,
                [
                    (float(rng.standard_normal()), PauliString.from_label(lab))
                    for lab in sorted(labels)
                ],
            )
            c = float(rng.uniform(0.2, 0.95))
            shifted, _ = shift_and_scale(psum, safety_fraction=c)
            energies = np.linalg.eigvalsh(to_dense(shifted))
            assert np.all(np.abs(energies) <= c * math.pi + 1e-10)

    def test_invalid_arguments_rejected(self):
        psum = build_tfim(2, 1.0, 1.0)
        with pytest.raises(ValueError):
            shift_and_scale(psum, safety_fraction=0.0)
        with pytest.raises(ValueError):
            shift_and_scale(psum, safety_fraction=1.0)

    def test_zero_operator_rejected(self):
        psum = PauliSum.from_terms(
            2, [(0.0, PauliString.from_label("ZZ"))]
        )
        with pytest.raises(DegenerateInputError):
            shift_and_scale(psum)

    def test_overflowing_bound_rejected(self):
        """A 1-norm that overflows would give a zero scale."""
        psum = PauliSum.from_terms(
            1,
            [
                (1e308, PauliString.from_label("Z")),
                (1e308, PauliString.from_label("X")),
            ],
        )
        with pytest.raises(DegenerateInputError, match="got inf"):
            shift_and_scale(psum)



# Malformed strings and sums: each builder, the error and its message.
_MALFORMED = [
    (lambda: PauliString(0, 0, 0), "n_qubits must be >= 1, got 0"),
    (lambda: PauliString(2, 4, 0), "mask exceeds register width"),
    (lambda: PauliString.single(2, 2, "X"), "qubit 2 outside register of 2"),
    (lambda: PauliString.single(2, 0, "W"), "invalid axis 'W'"),
    (lambda: PauliSum(0, (), ()), "n_qubits must be >= 1"),
    (lambda: PauliSum(1, (1.0,), ()), "coefficient/string count mismatch"),
    (
        lambda: PauliSum(2, (1.0,), (PauliString(1, 0, 0),)),
        "mixed register widths in one sum",
    ),
    (
        lambda: PauliSum(1, (math.nan,), (PauliString(1, 0, 0),)),
        "non-finite coefficient nan",
    ),
]


@pytest.mark.parametrize("build, message", _MALFORMED)
def test_malformed_input_is_refused(build, message):
    with pytest.raises(ValueError) as error:
        build()
    assert type(error.value) is ValueError
    assert str(error.value) == message
