"""Tests for experiment configuration, sweep drivers, outputs, and the CLI."""

import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import modmd
from modmd import (
    ConfigError,
    EigenvalueShortfallError,
    ExperimentConfig,
    OUTPUT_DIR_ENV,
    PauliParseError,
    PauliString,
    PauliSum,
    ResourceCapError,
    SpectralDecomposition,
    SweepResult,
    build_observables,
    build_problem,
    build_reference_superposition,
    build_tfim,
    config_from_dict,
    config_to_dict,
    derive_seed,
    diagonalize,
    emit_outputs,
    exact_signal,
    extract_eigen,
    build_hankel,
    fit_propagator,
    format_pauli_sum,
    gaussian_noise_channel,
    load_config,
    measure_signal,
    parse_pauli_sum,
    partial_sum_observables,
    replay_manifest,
    residual,
    resolve_output_dir,
    run_convergence_sweep,
    run_forecast_experiment,
    run_gap_sweep,
    run_noise_sweep,
    run_single_solve,
    select_time_step,
    shift_and_scale,
    to_dense,
    truncated_pinv,
)
from modmd import cli, harness, pauli, shadows
from modmd.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_SHORTFALL,
    build_parser,
    main,
)
from modmd.harness import (
    OBSERVABLE_POLICIES,
    depth_for_window,
    identity_observable,
    parse_observable_file,
    resolve_time_step,
    split_fit_window,
    threshold_for,
)
from modmd.simulate import _phase_sums


ONE_NORM = "Hamiltonian coefficient 1-norm must be finite and nonzero"


def small_config(**overrides):
    """3-qubit chain whose signal the fit window can represent exactly."""
    base = dict(
        tfim_qubits=3,
        reference_bitstrings=("000", "100"),
        n_observables=2,
        k_grid=(16,),
        k_over_d=2.0,
        svd_threshold=1e-6,
        noise_epsilon=1e-8,
        trials=2,
        master_seed=5,
        n_eig=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def hopping_chain(n_qubits):
    """XX+YY nearest-neighbour hopping: it conserves the particle number and
    is degenerate across sectors."""
    lines = []
    for i in range(n_qubits - 1):
        for axis in "XY":
            lines.append(f"0.5 {'I' * i}{axis * 2}{'I' * (n_qubits - i - 2)}")
    return "\n".join(lines) + "\n"


def fielded_chain(n_qubits, yy=0.5):
    """``0.5 XX + yy YY`` on each bond (hopping, which conserves the
    particle number, at the default) in unequal Z fields."""
    lines = []
    for i in range(n_qubits - 1):
        for axis, coeff in (("X", 0.5), ("Y", yy)):
            if coeff:
                lines.append(f"{coeff!r} {'I' * i}{axis * 2}{'I' * (n_qubits - i - 2)}")
    for q in range(n_qubits):
        lines.append(f"{0.2 + 0.05 * q!r} {'I' * q}Z{'I' * (n_qubits - q - 1)}")
    return "\n".join(lines) + "\n"


def write_config_file(path, **overrides):
    path.write_text(json.dumps(config_to_dict(small_config(**overrides))))
    return path


def diagonal_hamiltonian_file(tmp_path):
    """Nondegenerate diagonal operator, so sector filtering is unambiguous."""
    path = tmp_path / "diag.txt"
    path.write_text("1.0 ZII\n0.5 IZI\n0.25 IIZ\n")
    return path


@pytest.fixture(scope="module")
def small_sweep():
    return run_convergence_sweep(small_config(k_grid=(16, 24)))


class TestExperimentConfig:
    def test_defaults_resolve(self):
        config = small_config()
        assert config.observable_policy == "random-1-local"
        assert config.magnitude_floor == 0.2
        assert config.workers == 1

    def test_exactly_one_hamiltonian_source(self, tmp_path):
        with pytest.raises(ConfigError, match="exactly one"):
            small_config(tfim_qubits=None)
        hfile = diagonal_hamiltonian_file(tmp_path)
        with pytest.raises(ConfigError, match="exactly one"):
            small_config(hamiltonian_file=str(hfile))

    def test_tfim_needs_two_qubits(self):
        with pytest.raises(ConfigError, match="tfim_qubits"):
            small_config(tfim_qubits=1, reference_bitstrings=("0",))

    def test_missing_hamiltonian_file(self):
        with pytest.raises(ConfigError, match="not found"):
            small_config(tfim_qubits=None, hamiltonian_file="/nonexistent.txt")

    def test_reference_bitstrings_required(self):
        with pytest.raises(ConfigError, match="reference_bitstrings"):
            small_config(reference_bitstrings=())
        with pytest.raises(ConfigError, match="duplicates"):
            small_config(reference_bitstrings=("000", "000"))

    def test_unknown_policy(self):
        with pytest.raises(ConfigError, match="observable_policy"):
            small_config(observable_policy="everything")

    def test_identity_only_fixes_observable_count(self):
        with pytest.raises(ConfigError, match="identity-only"):
            small_config(observable_policy="identity-only", n_observables=2)
        config = small_config(observable_policy="identity-only", n_observables=1)
        assert config.n_observables == 1

    def test_explicit_policy_pairs_with_file(self, tmp_path):
        with pytest.raises(ConfigError, match="observable_file"):
            small_config(observable_policy="explicit")
        obs = tmp_path / "obs.txt"
        obs.write_text("1.0 ZII\n")
        with pytest.raises(ConfigError, match="observable_file"):
            small_config(observable_file=str(obs))

    def test_grid_validation(self):
        with pytest.raises(ConfigError, match="k_grid"):
            small_config(k_grid=())
        with pytest.raises(ConfigError, match="k_over_d"):
            small_config(k_over_d=1.0)
        with pytest.raises(ConfigError, match="too small"):
            small_config(k_grid=(1,))

    def test_scalar_validation(self):
        with pytest.raises(ConfigError, match="dt"):
            small_config(dt=0.0)
        with pytest.raises(ConfigError, match="svd_threshold"):
            small_config(svd_threshold=1.0)
        with pytest.raises(ConfigError, match="noise_epsilon"):
            small_config(noise_epsilon=-1e-3)
        with pytest.raises(ConfigError, match="noise_epsilon"):
            small_config(noise_epsilon=float("inf"))
        with pytest.raises(ConfigError, match="tfim_coupling must be finite"):
            small_config(tfim_coupling=float("nan"))
        with pytest.raises(ConfigError, match="tfim_field must be finite"):
            small_config(tfim_field=float("-inf"))
        with pytest.raises(ConfigError, match="tfim_coupling must be finite"):
            small_config(tfim_coupling=10**400)  # beyond the float range
        with pytest.raises(ConfigError, match="trials"):
            small_config(trials=0)
        with pytest.raises(ConfigError, match="n_eig"):
            small_config(n_eig=0)
        with pytest.raises(ConfigError, match="magnitude_floor"):
            small_config(magnitude_floor=1.0)
        with pytest.raises(ConfigError, match="safety_fraction"):
            small_config(safety_fraction=1.0)
        with pytest.raises(ConfigError, match="workers"):
            small_config(workers=0)
        with pytest.raises(ConfigError, match="output_dir"):
            small_config(output_dir="")
        with pytest.raises(ConfigError, match="particle_number"):
            small_config(particle_number=-1)
        with pytest.raises(ConfigError, match="^master_seed must be >= 0, got -1$"):
            small_config(master_seed=-1)
        with pytest.raises(ConfigError, match="^64 qubits do not fit an int64 basis index"):
            small_config(tfim_qubits=64)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"n_observables": 0}, "n_observables must be >= 1, got 0"),
            (
                {"observable_policy": "explicit", "observable_file": "/missing/obs.txt"},
                "observable_file not found: /missing/obs.txt",
            ),
        ],
    )
    def test_observable_refusals(self, overrides, message):
        with pytest.raises(ConfigError) as error:
            small_config(**overrides)
        assert type(error.value) is ConfigError
        assert str(error.value) == message

    @pytest.mark.parametrize(
        "field,value",
        [
            ("trials", 1.5),
            ("workers", 1.5),
            ("n_eig", 2.0),
            ("master_seed", "5"),
            ("trials", True),
            ("tfim_qubits", False),
            ("shadow_samples", 10.5),
            ("noise_epsilon", True),
            ("dt", "0.1"),
            ("svd_threshold", "1e-3"),
            ("k_over_d", None),
        ],
    )
    def test_numeric_field_kinds(self, field, value):
        data = config_to_dict(small_config())
        data[field] = value
        with pytest.raises(ConfigError, match=f"{field} must be"):
            config_from_dict(data)

    @pytest.mark.parametrize("entry", [10.7, 16.0, True, "16"])
    def test_k_grid_entries_are_integers(self, entry):
        data = config_to_dict(small_config())
        data["k_grid"] = [16, entry]
        with pytest.raises(ConfigError, match="k_grid entry must be an integer"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "field,value,message",
        [
            ("reference_bitstrings", [1000], "reference_bitstrings entry must be"),
            ("reference_bitstrings", ["000", None], "reference_bitstrings entry must"),
            ("observable_policy", 5, "observable_policy must be a string"),
            ("signal_source", None, "signal_source must be a string"),
            ("output_dir", ["out"], "output_dir must be a string"),
            ("hamiltonian_file", 7, "hamiltonian_file must be a string"),
            ("observable_file", True, "observable_file must be a string"),
        ],
    )
    def test_string_field_kinds(self, field, value, message):
        data = config_to_dict(small_config())
        data[field] = value
        with pytest.raises(ConfigError, match=message):
            config_from_dict(data)

    def test_numpy_scalars_and_optional_nulls_accepted(self):
        config = small_config(
            trials=np.int64(2), k_grid=(np.int64(16),), noise_epsilon=np.float64(1e-8),
            dt=None, svd_threshold=None, k_over_d=2,
        )
        assert config.trials == 2 and config.k_over_d == 2
        assert type(config.k_over_d) is int  # kept, so a manifest still writes 2

    def test_numpy_built_configuration_finishes(self, tmp_path):
        fields = dict(
            tfim_qubits=np.int64(4), tfim_field=np.float32(0.75), dt=np.float32(1.0),
            reference_bitstrings=[np.str_("0000"), "1111"], k_grid=(np.int64(20),),
            trials=np.int64(1), n_eig=np.int64(2), magnitude_floor=np.float64(0.2),
        )
        config = ExperimentConfig(**fields)
        for name, value in dataclasses.asdict(config).items():
            for v in value if isinstance(value, tuple) else (value,):
                assert type(v) in (int, float, str, type(None)), name
        assert config == ExperimentConfig(
            tfim_qubits=4, tfim_field=0.75, dt=1.0, reference_bitstrings=("0000", "1111"),
            k_grid=(20,), trials=1, n_eig=2, magnitude_floor=0.2,
        )
        written = emit_outputs(run_convergence_sweep(config), tmp_path)
        assert sorted(p.name for p in written) == [
            "sweep-k_level_0.svg", "sweep-k_level_1.svg", "sweep-k_manifest.json",
            "sweep-k_results.csv", "sweep-k_schema.txt", "sweep-k_timing.csv",
        ]
        manifest = json.loads((tmp_path / "sweep-k_manifest.json").read_text())
        assert manifest["config"] == config_to_dict(config)

    def test_an_int_in_a_float_field_is_kept(self, tmp_path):
        path = write_config_file(tmp_path / "cfg.json", tfim_field=1, trials=1)
        assert '"tfim_field": 1,' in path.read_text()
        emit_outputs(run_convergence_sweep(load_config(path)), tmp_path)
        manifest = (tmp_path / "sweep-k_manifest.json").read_text()
        assert '"tfim_field": 1,' in manifest

    def test_auto_threshold_stays_below_one(self):
        config = small_config(svd_threshold=None, noise_epsilon=0.099)
        assert threshold_for(config) < 1.0
        with pytest.raises(ConfigError, match=r"10 \* noise_epsilon"):
            small_config(svd_threshold=None, noise_epsilon=0.1)
        assert small_config(svd_threshold=1e-2, noise_epsilon=0.2).noise_epsilon == 0.2

    def test_shadow_source_pairs_with_samples(self):
        with pytest.raises(ConfigError, match="shadow_samples"):
            small_config(signal_source="shadow")
        with pytest.raises(ConfigError, match="shadow_samples"):
            small_config(shadow_samples=100)
        with pytest.raises(ConfigError, match="shadow_samples"):
            small_config(signal_source="shadow", shadow_samples=0)
        config = small_config(signal_source="shadow", shadow_samples=100)
        assert config.shadow_samples == 100

    def test_unknown_signal_source(self):
        with pytest.raises(ConfigError, match="signal_source"):
            small_config(signal_source="oracle")


class TestConfigSerialization:
    def test_round_trip(self):
        config = small_config(k_grid=(16, 24), dt=0.3)
        assert config_from_dict(config_to_dict(config)) == config

    def test_dict_uses_lists_for_tuples(self):
        data = config_to_dict(small_config())
        assert data["k_grid"] == [16]
        assert data["reference_bitstrings"] == ["000", "100"]

    def test_unknown_field_rejected(self):
        data = config_to_dict(small_config())
        data["shots"] = 100
        with pytest.raises(ConfigError, match="shots"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "data, names", [({1: 2}, "1"), ({1: 2, "a": 3}, "1, a"), ({(1,): 2}, "(1,)")]
    )
    def test_non_string_keys_rejected(self, data, names):
        with pytest.raises(ConfigError) as error:
            config_from_dict(data)
        assert str(error.value) == f"unknown configuration fields: {names}"

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="mapping"):
            config_from_dict([1, 2, 3])

    def test_tuple_field_must_be_list(self):
        data = config_to_dict(small_config())
        data["k_grid"] = "16"
        with pytest.raises(ConfigError, match="k_grid must be a list"):
            config_from_dict(data)

    def test_load_config_file(self, tmp_path):
        path = write_config_file(tmp_path / "cfg.json", master_seed=9)
        assert load_config(path) == small_config(master_seed=9)

    def test_load_config_accepts_manifest(self, tmp_path, small_sweep):
        emit_outputs(small_sweep, tmp_path)
        config = load_config(tmp_path / "sweep-k_manifest.json")
        assert config == small_sweep.config

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{ nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(bad)


class TestSeedsAndWindows:
    def test_derive_seed_deterministic(self):
        assert derive_seed(5, 1, 3, 2) == derive_seed(5, 1, 3, 2)

    def test_derive_seed_separates_cells(self):
        seeds = {
            derive_seed(master, point, trial, stream)
            for master in (0, 1)
            for point in range(3)
            for trial in range(4)
            for stream in range(3)
        }
        assert len(seeds) == 2 * 3 * 4 * 3

    def test_depth_for_window(self):
        assert depth_for_window(12, 2.5) == 5
        assert depth_for_window(16, 2.0) == 8
        assert depth_for_window(2, 2.5) == 1

    def test_split_fit_window(self):
        assert split_fit_window(24, 2.0) == (8, 16)
        assert split_fit_window(70, 2.5) == (20, 50)
        d, K = split_fit_window(2, 2.0)
        assert (d, K) == (1, 1)

    def test_split_sums_back(self):
        for k_star in range(2, 200):
            d, K = split_fit_window(k_star, 2.5)
            assert d >= 1 and K >= 1 and d + K == k_star

    def test_split_too_short(self):
        with pytest.raises(ConfigError, match="too short"):
            split_fit_window(1, 2.0)

    def test_threshold_explicit(self):
        assert threshold_for(small_config(noise_epsilon=0.5)) == 1e-6

    def test_threshold_derived(self):
        config = small_config(svd_threshold=None, noise_epsilon=1e-3)
        assert threshold_for(config) == pytest.approx(1e-2)
        assert threshold_for(dataclasses.replace(config, noise_epsilon=0.0)) == 1e-12


class TestResolveOutputDir:
    def test_uses_config_value(self, monkeypatch, tmp_path):
        monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
        config = small_config(output_dir=str(tmp_path / "runs"))
        assert resolve_output_dir(config) == tmp_path / "runs"

    def test_environment_override(self, monkeypatch, tmp_path):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "elsewhere"))
        assert resolve_output_dir(small_config()) == tmp_path / "elsewhere"

    def test_empty_override_ignored(self, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, "")
        assert resolve_output_dir(small_config(output_dir="runs")).name == "runs"


class TestBuildProblem:
    def test_physical_energies_match_dense_oracle(self):
        problem = build_problem(small_config())
        dense = to_dense(build_tfim(3, 1.0, 1.0))
        exact = np.linalg.eigvalsh(dense)
        assert np.allclose(problem.exact_energies, exact, atol=1e-9)

    def test_default_time_step(self):
        problem = build_problem(small_config())
        assert problem.dt == select_time_step(-0.9 * math.pi, 0.9 * math.pi)
        assert problem.dt == pytest.approx(1.0 / 1.8)

    def test_explicit_time_step(self):
        assert build_problem(small_config(dt=0.31)).dt == 0.31

    def test_shifted_spectrum_within_envelope(self):
        problem = build_problem(small_config())
        assert np.max(np.abs(problem.spec.energies)) <= 0.9 * math.pi + 1e-9

    def test_reference_companion_orthonormal(self):
        problem = build_problem(small_config())
        assert np.linalg.norm(problem.phi_perp.amplitudes) == pytest.approx(1.0)
        overlap = np.vdot(problem.phi_perp.amplitudes, problem.phi0.amplitudes)
        assert abs(overlap) < 1e-12

    def test_particle_sector_filter(self, tmp_path):
        hfile = diagonal_hamiltonian_file(tmp_path)
        config = small_config(
            tfim_qubits=None,
            hamiltonian_file=str(hfile),
            particle_number=1,
            reference_bitstrings=("001",),
        )
        problem = build_problem(config)
        # popcount-1 diagonal entries of z0 + z1/2 + z2/4, sorted
        assert problem.exact_energies == pytest.approx((-0.25, 0.75, 1.25))

    def test_particle_sector_too_small(self, tmp_path):
        hfile = diagonal_hamiltonian_file(tmp_path)
        config = small_config(
            tfim_qubits=None,
            hamiltonian_file=str(hfile),
            particle_number=3,
            reference_bitstrings=("111",),
        )
        with pytest.raises(ConfigError, match="holds only 1"):
            build_problem(config)

    @pytest.mark.parametrize("n_qubits, sector", [(4, 2), (6, 2), (6, 3), (6, 4)])
    def test_particle_sector_energies_are_the_sector_block(
        self, tmp_path, n_qubits, sector
    ):
        """The XX+YY hopping chain is degenerate across sectors, where an
        eigenvector of the full matrix may mix them."""
        hfile = tmp_path / "hopping.txt"
        hfile.write_text(hopping_chain(n_qubits))
        config = small_config(
            tfim_qubits=None,
            hamiltonian_file=str(hfile),
            particle_number=sector,
            reference_bitstrings=("1" * sector + "0" * (n_qubits - sector),),
        )
        dense = to_dense(parse_pauli_sum(hfile.read_text()))
        inside = [i for i in range(1 << n_qubits) if bin(i).count("1") == sector]
        oracle = np.linalg.eigvalsh(dense[np.ix_(inside, inside)])
        np.testing.assert_allclose(
            build_problem(config).exact_energies, oracle, rtol=0, atol=1e-12
        )

    @pytest.mark.parametrize(
        "n_qubits, sector", [(6, 3), (6, 2), (8, 4), (8, 5), (10, 5), (10, 3)]
    )
    def test_particle_sector_signals_match_the_full_matrix(
        self, tmp_path, n_qubits, sector
    ):
        """A sector run takes its signals from its block alone; the full
        matrix's eigensystem is the oracle. The X and Y observables map the
        reference out of the sector, where the sector run's rows are 0."""
        hfile = tmp_path / "chain.txt"
        hfile.write_text(fielded_chain(n_qubits))
        ones, zeros = "1" * sector, "0" * (n_qubits - sector)
        config = small_config(
            tfim_qubits=None,
            hamiltonian_file=str(hfile),
            particle_number=sector,
            reference_bitstrings=(ones + zeros, zeros + ones),
        )
        problem = build_problem(config, 60)
        assert len(problem.signals) == 3 * n_qubits + 1
        shifted, _ = shift_and_scale(parse_pauli_sum(hfile.read_text()), 0.9)
        oracle = exact_signal(
            diagonalize(to_dense(shifted)), problem.phi0, list(problem.signals),
            problem.dt, 60, mode="complex",
        )
        got = np.array(list(problem.signals.values()))
        np.testing.assert_allclose(got, oracle.values, rtol=0, atol=1e-12)

    def test_sector_oracle_agrees_with_the_sweep_problem(self, tmp_path):
        """A sector run's dense oracle spans the whole register, ``spec``
        and ``phi0`` alike, so it gives the sweep problem's signals, and
        ``shadow_signal`` samples through it."""
        hfile = tmp_path / "hopping.txt"
        hfile.write_text(hopping_chain(4))
        config = small_config(
            tfim_qubits=None, hamiltonian_file=str(hfile), particle_number=1,
            reference_bitstrings=("1000", "0010"),
        )
        problem = build_problem(config, 40)
        pool = list(problem.signals)
        oracle = exact_signal(problem.spec, problem.phi0, pool, problem.dt, 40, "complex")
        got = np.array(list(problem.signals.values()))
        np.testing.assert_allclose(got, oracle.values, rtol=0, atol=1e-10)
        estimate = shadows.shadow_signal(
            problem.spec, problem.phi0, problem.phi_perp, pool, problem.dt, 40, 16, seed=3
        )
        assert estimate.values.shape == (len(pool), 41)
        assert np.all(np.isfinite(estimate.values))

    def test_sector_run_builds_no_full_matrix(self, tmp_path, monkeypatch, traced_peak):
        """At 12 qubits and half filling the run solves 924 levels, not
        4096: no ``2^n x 2^n`` matrix is assembled, and the peak stays below
        a quarter of one real ``8 * 4^n``-byte array."""
        n = 12

        def no_dense(psum):
            raise AssertionError("a sector run built the full matrix")

        monkeypatch.setattr(pauli, "to_dense", no_dense)
        hfile = tmp_path / "chain.txt"
        hfile.write_text(fielded_chain(n))
        config = small_config(
            tfim_qubits=None,
            hamiltonian_file=str(hfile),
            particle_number=n // 2,
            reference_bitstrings=("1" * 6 + "0" * 6, "10" * 6),
        )
        problem, peak = traced_peak(build_problem, config, 420)
        assert peak < 8 * 4**n / 4
        assert len(problem.exact_energies) == math.comb(n, n // 2)
        assert all(row.shape == (421,) for row in problem.signals.values())

    def test_particle_sector_needs_number_conserving_hamiltonian(self, tmp_path):
        hfile = tmp_path / "h.txt"
        hfile.write_text("1.0 XII\n0.5 ZZI\n")
        config = small_config(
            tfim_qubits=None,
            hamiltonian_file=str(hfile),
            particle_number=1,
            reference_bitstrings=("001",),
        )
        with pytest.raises(ConfigError, match="number-conserving"):
            build_problem(config)

    def test_no_dense_matrix_without_a_sector(self, monkeypatch):
        """The whole register, too, is solved one symmetry block at a
        time, with and without ``k_max``: the 3-qubit TFIM's four blocks,
        and never its 8 x 8 matrix."""

        def no_dense(psum):
            raise AssertionError("build_problem built the full matrix")

        solved = []

        def counted(matrix):
            solved.append(len(matrix))
            return diagonalize(matrix)

        monkeypatch.setattr(pauli, "to_dense", no_dense)
        monkeypatch.setattr(harness, "diagonalize", counted)
        for k_max in (None, 30):
            build_problem(small_config(), k_max)
        assert solved == [3, 1, 3, 1] * 2

    def test_holds_one_matrix_sized_array_at_a_time(self, traced_peak):
        """``build_problem`` holds no ``8 * 4^n``-byte array at all, and
        reading the dense oracle holds the real TFIM matrix and its real
        eigenbasis, never a complex copy of either."""
        n = 9
        config = small_config(tfim_qubits=n, reference_bitstrings=("0" * n,))
        problem, peak = traced_peak(build_problem, config)
        assert peak < 8 * 4**n
        spec, peak = traced_peak(lambda: problem.spec)
        assert peak < 2.5 * 8 * 4**n
        assert spec.eigenvectors.dtype == np.float64

    def test_oracle_is_the_plain_dense_solve_made_when_read(self, monkeypatch):
        """``Problem.spec`` is ``diagonalize(to_dense(hamiltonian))`` of the
        rescaled sum, bit for bit, computed on its first read and kept."""
        problem = build_problem(small_config(), 20)
        calls = []

        def counted(psum):
            calls.append(psum)
            return to_dense(psum)

        monkeypatch.setattr(pauli, "to_dense", counted)
        spec = problem.spec
        assert problem.spec is spec and calls == [problem.hamiltonian]
        want = diagonalize(to_dense(problem.hamiltonian))
        assert spec.eigenvectors.dtype == np.float64
        np.testing.assert_array_equal(spec.energies, want.energies)
        np.testing.assert_array_equal(spec.eigenvectors, want.eigenvectors)
        np.testing.assert_allclose(
            spec.energies / problem.scale, problem.exact_energies, rtol=0, atol=1e-12
        )

    def test_sweep_problem_holds_no_basis_whatever_its_source(self):
        """No problem holds an eigenbasis or a ``2^n``-long state, with or
        without ``k_max``, whatever its source: its dense oracle is built
        only when read."""
        for config in (
            small_config(),
            small_config(signal_source="shadow", shadow_samples=16, noise_epsilon=0.0),
        ):
            for k_max in (None, 40):
                problem = build_problem(config, k_max)
                assert not {"spec", "phi0", "phi_perp"} & set(vars(problem))
                assert bool(problem.signals) == (k_max is not None)
            assert problem.spec.dimension == 8
            assert problem.phi0.n_qubits == problem.phi_perp.n_qubits == 3

    def test_full_spectrum_too_small(self):
        config = small_config(tfim_qubits=2, reference_bitstrings=("00",), n_eig=5)
        with pytest.raises(ConfigError, match="spectrum holds only 4 levels, need 5"):
            build_problem(config)

    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                dict(tfim_qubits=2, reference_bitstrings=("00",), n_eig=5),
                "the spectrum holds only 4 levels, need 5",
            ),
            (
                dict(particle_number=0, reference_bitstrings=("000",), n_eig=2),
                "particle sector 0 holds only 1 levels, need 2",
            ),
        ],
        ids=["spectrum", "sector"],
    )
    def test_level_shortfall_pays_no_eigensolve(self, monkeypatch, overrides, message):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("eigensolve before the level count")

        monkeypatch.setattr(harness, "diagonalize", no_eigensolve)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_eigensolve)
        with pytest.raises(ConfigError, match=message):
            build_problem(small_config(**overrides))

    @pytest.mark.parametrize(
        "text, calls",
        [
            # odd Y counts: complex, and not spin-flip symmetric
            ("1.0 XYZ\n0.5 ZZI\n-0.7 IXX\n0.3 YII\n", [(complex, 8)]),
            # even Y counts, even Y+Z counts: real, two half-size blocks
            ("1.0 XYY\n0.5 ZZI\n-0.7 IXX\n0.3 YIY\n", [(float, 4), (float, 4)]),
        ],
        ids=["odd-y", "even-y"],
    )
    def test_hamiltonian_file_solver_path(self, tmp_path, monkeypatch, text, calls):
        hfile = tmp_path / "h.txt"
        hfile.write_text(text)
        config = small_config(tfim_qubits=None, hamiltonian_file=str(hfile))
        seen, eigh = [], np.linalg.eigh

        def recording_eigh(a, *args, **kwargs):
            seen.append((np.asarray(a).dtype, len(a)))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
        problem = build_problem(config)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        assert seen == [(np.dtype(dtype), size) for dtype, size in calls]
        # Oracle: the complex Hermitian solver on the same rescaled matrix.
        shifted, factor = shift_and_scale(
            parse_pauli_sum(text), safety_fraction=config.safety_fraction
        )
        oracle = SpectralDecomposition(*eigh(to_dense(shifted).astype(complex)))
        physical = oracle.energies / factor
        scale = np.max(np.abs(physical))
        np.testing.assert_allclose(
            problem.exact_energies, physical, rtol=0, atol=1e-12 * scale
        )
        observables = build_observables(config, problem, seed=3)
        got = exact_signal(problem.spec, problem.phi0, observables, problem.dt, 40)
        want = exact_signal(oracle, problem.phi0, observables, problem.dt, 40)
        np.testing.assert_allclose(got.values, want.values, rtol=0, atol=1e-12)

    def test_reference_width_checked(self):
        with pytest.raises(ConfigError, match="does not address"):
            build_problem(small_config(reference_bitstrings=("0000",)))
        with pytest.raises(ConfigError, match="does not address"):
            build_problem(small_config(reference_bitstrings=("0a0",)))

    def test_tfim_field_changes_spectrum(self):
        low = build_problem(small_config(tfim_field=0.5))
        high = build_problem(small_config(tfim_field=1.5))
        assert low.exact_energies[0] != high.exact_energies[0]

    def test_explicit_observables_resolved(self, tmp_path):
        obs = tmp_path / "obs.txt"
        obs.write_text("1.0 ZII\n\n0.5 IXI\n-0.5 IIX\n")
        config = small_config(
            observable_policy="explicit",
            observable_file=str(obs),
            n_observables=2,
        )
        problem = build_problem(config)
        assert len(problem.observables) == 2
        assert problem.observables[1].num_terms == 2

    def test_random_policy_has_no_explicit_pool(self):
        """The random policy's pool is every single-qubit Pauli, not a file."""
        problem = build_problem(small_config(n_observables=2))
        assert problem.observables == pauli.one_local_pool(3)
        assert len(problem.observables) == 9


def chain(n_qubits, bonds, fields=(), x_field=0.7):
    """``-sum_i bonds[i] Z_i Z_{i+1} - x_field sum_i X_i + sum_i fields[i] Z_i``."""
    terms = [(-b, PauliString(n_qubits, 0, 3 << (n_qubits - 2 - i))) for i, b in enumerate(bonds)]
    terms += [(-x_field, PauliString.single(n_qubits, q, "X")) for q in range(n_qubits)]
    terms += [(f, PauliString.single(n_qubits, q, "Z")) for q, f in enumerate(fields)]
    return PauliSum.from_terms(n_qubits, terms)


class TestSymmetryBlocks:
    """``harness._solve`` solves a run's basis states one symmetry block
    (``pauli._symmetry_blocks``) at a time. The complex ``eigh`` of the full
    matrix on those states is the oracle: energies within 1e-12 x scale,
    and the phase sums of unit vectors within 1e-12, for a projected stack
    and for the basis that the identity stack gives."""

    @staticmethod
    def solve(psum, states, seed=0):
        """Check both stacks against the oracle; return the group order and
        the block sizes."""
        dense = to_dense(psum)[np.ix_(states, states)]
        energies, vectors = np.linalg.eigh(dense.astype(complex))
        scale = max(np.max(np.abs(energies)), 1.0)
        rng = np.random.default_rng(seed)
        stack = rng.standard_normal((4, len(states))) + 1j * rng.standard_normal((4, len(states)))
        stack /= np.linalg.norm(stack, axis=1, keepdims=True)
        want = _phase_sums(energies, stack.conj() @ vectors, 0.3, 60)
        got, projected = harness._solve(psum, states, stack)
        np.testing.assert_allclose(got, energies, rtol=0, atol=1e-12 * scale)
        np.testing.assert_allclose(
            _phase_sums(got, projected, 0.3, 60), want, rtol=0, atol=1e-12
        )
        eye = np.eye(len(states))
        lifted, basis = harness._solve(psum, states, eye)
        np.testing.assert_array_equal(lifted, got)
        np.testing.assert_allclose(basis.conj().T @ basis, eye, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            _phase_sums(lifted, stack.conj() @ basis, 0.3, 60), want, rtol=0, atol=1e-12
        )
        blocks = [(len(images), len(b)) for b, images, _ in pauli._symmetry_blocks(psum, states)]
        assert sum(size for _, size in blocks) == len(states)
        return blocks[0][0], [size for _, size in blocks]

    @pytest.mark.parametrize("n_qubits", range(2, 11))
    def test_tfim_without_coupling(self, n_qubits):
        order, sizes = self.solve(build_tfim(n_qubits, 0.0, 0.8), np.arange(1 << n_qubits))
        assert order == 4 and len(sizes) == (3 if n_qubits == 2 else 4)

    @pytest.mark.parametrize("n_qubits", [4, 5, 8])
    def test_uniform_z_field_keeps_the_mirror_alone(self, n_qubits):
        psum = chain(n_qubits, [1.0] * (n_qubits - 1), [0.3] * n_qubits)
        order, sizes = self.solve(psum, np.arange(1 << n_qubits))
        palindromes = 2 ** ((n_qubits + 1) // 2)
        assert order == 2
        assert sizes == [(2**n_qubits + palindromes) // 2, (2**n_qubits - palindromes) // 2]

    @pytest.mark.parametrize("n_qubits", [4, 5, 8])
    def test_unequal_bonds_keep_the_flip_alone(self, n_qubits):
        psum = chain(n_qubits, [1.0 + 0.1 * i for i in range(n_qubits - 1)])
        order, sizes = self.solve(psum, np.arange(1 << n_qubits))
        assert order == 2 and sizes == [2 ** (n_qubits - 1)] * 2

    def test_one_ulp_off_coupling_takes_no_mirror_split(self):
        bonds = [1.0] * 5
        assert self.solve(chain(6, bonds), np.arange(64))[0] == 4
        bonds[0] = np.nextafter(1.0, 2.0)
        assert self.solve(chain(6, bonds), np.arange(64)) == (2, [32, 32])

    @pytest.mark.parametrize(
        "text, order",
        [
            ("0.7 XYZI\n-0.3 IZYX\n0.5 ZIIZ\n0.2 YXZI\n0.4 IIIZ\n", 1),
            ("0.7 XYZI\n-0.3 IZYX\n0.5 ZIIZ\n0.2 YXZI\n", 2),
            ("0.7 YZXX\n0.7 XXZY\n-0.4 XIIX\n0.3 ZYYZ\n", 4),
        ],
        ids=["neither", "odd-y-flip", "odd-y-both"],
    )
    def test_complex_sums(self, text, order):
        psum = parse_pauli_sum(text)
        assert np.iscomplexobj(to_dense(psum))
        assert self.solve(psum, np.arange(16))[0] == order

    def test_a_sum_without_symmetry_keeps_the_plain_solve_bit_for_bit(self):
        """One block is the matrix itself: energies and projections are
        those of ``diagonalize(to_dense(psum))``, so such runs replay."""
        psum = chain(6, [1.0, 1.1, 0.9, 1.3, 0.8], [0.3] * 6)
        spec = diagonalize(to_dense(psum))
        stack = np.random.default_rng(3).standard_normal((3, 64)) + 0j
        energies, projected = harness._solve(psum, np.arange(64), stack)
        np.testing.assert_array_equal(energies, spec.energies)
        np.testing.assert_array_equal(projected, stack.conj() @ spec.eigenvectors)

    @pytest.mark.parametrize(
        "n_qubits, particles, order",
        [(6, 3, 4), (6, 2, 2), (8, 4, 4), (8, 3, 2), (8, 0, 1)],
    )
    def test_hopping_sectors(self, n_qubits, particles, order):
        """The flip maps sector N onto n - N: only a half-filled sector
        keeps it. The mirror keeps every sector."""
        psum = parse_pauli_sum(hopping_chain(n_qubits))
        states = pauli._sector_states(n_qubits, particles)
        assert self.solve(psum, states)[0] == order

    def test_unequal_fields_break_both_in_a_sector(self):
        psum = parse_pauli_sum(fielded_chain(8))
        assert self.solve(psum, pauli._sector_states(8, 4)) == (1, [70])

    def test_sweep_problem_peak(self, traced_peak):
        """With or without ``k_max`` no ``2^n x 2^n`` array, and no
        eigenbasis of the whole register, is formed: a 10-qubit TFIM stays
        below half of one real matrix (``8 * 4^n`` bytes)."""
        n = 10
        config = small_config(tfim_qubits=n, reference_bitstrings=("0" * n, "1" * n))
        for k_max in (None, 300):
            problem, peak = traced_peak(build_problem, config, k_max)
            assert "spec" not in vars(problem) and len(problem.exact_energies) == 2**n
            assert peak < 4 * 4**n


class TestObservablePools:
    def test_identity_only(self):
        config = small_config(observable_policy="identity-only", n_observables=1)
        problem = build_problem(config)
        pool = build_observables(config, problem, seed=3)
        assert len(pool) == 1
        dense = to_dense(pool[0])
        assert np.array_equal(dense, np.eye(8))

    def test_random_one_local_deterministic(self):
        config = small_config(n_observables=4)
        problem = build_problem(config)
        first = build_observables(config, problem, seed=11)
        second = build_observables(config, problem, seed=11)
        other = build_observables(config, problem, seed=12)
        assert len(first) == 4
        assert [o.terms for o in first] == [o.terms for o in second]
        assert [o.terms for o in first] != [o.terms for o in other]

    def test_partial_sums_policy(self):
        config = small_config(
            observable_policy="hamiltonian-partial-sums", n_observables=3
        )
        problem = build_problem(config)
        pool = build_observables(config, problem, seed=0)
        assert [o.num_terms for o in pool] == [5, 4, 3]
        assert np.allclose(to_dense(pool[0]), to_dense(build_tfim(3, 1.0, 1.0)))

    def test_explicit_pool_comes_from_file(self, tmp_path):
        obs = tmp_path / "obs.txt"
        obs.write_text("1.0 ZII\n\n1.0 IZI\n")
        config = small_config(
            observable_policy="explicit", observable_file=str(obs), n_observables=2
        )
        problem = build_problem(config)
        pool = build_observables(config, problem, seed=7)
        assert [o.strings[0].label for o in pool] == ["ZII", "IZI"]


class TestProblemSignals:
    """``Problem.signals`` holds each observable a cell can measure,
    computed once per problem."""

    @pytest.fixture
    def policy_configs(self, tmp_path):
        obs = tmp_path / "obs.txt"
        obs.write_text("1.0 ZII\n\n0.5 IXI\n-0.5 IIX\n\n1.0 III\n")
        return {
            "identity-only": small_config(observable_policy="identity-only", n_observables=1),
            "random-1-local": small_config(n_observables=4),
            "hamiltonian-partial-sums": small_config(
                observable_policy="hamiltonian-partial-sums", n_observables=6
            ),
            "explicit": small_config(
                observable_policy="explicit", observable_file=str(obs), n_observables=3
            ),
        }

    @pytest.mark.parametrize("policy", OBSERVABLE_POLICIES)
    def test_rows_match_the_exact_signal_oracle(self, policy, policy_configs):
        config = policy_configs[policy]
        problem = build_problem(config, 40)
        identity = identity_observable(3)
        expected = {
            "identity-only": lambda: [identity],
            "random-1-local": lambda: list(pauli.one_local_pool(3)) + [identity],
            # the sixth partial sum is the zero operator
            "hamiltonian-partial-sums": lambda: partial_sum_observables(
                build_tfim(3, 1.0, 1.0), 6
            ) + [identity],
            # the file's third observable is the identity itself
            "explicit": lambda: list(problem.observables),
        }[policy]()
        assert list(problem.signals) == expected
        for obs, row in problem.signals.items():
            oracle = exact_signal(problem.spec, problem.phi0, [obs], problem.dt, 40, mode="complex")
            assert row.shape == (41,) and row.dtype == complex
            scale = max(obs.weight_l1, 1.0)
            np.testing.assert_allclose(row, oracle.values[0], rtol=0, atol=1e-12 * scale)
        for seed in range(5):
            for obs in build_observables(config, problem, seed):
                assert obs in problem.signals

    @pytest.mark.parametrize("policy", OBSERVABLE_POLICIES)
    def test_cells_draw_only_from_the_problem_pool(self, policy, policy_configs):
        config = policy_configs[policy]
        problem = build_problem(config)
        for seed in range(5):
            drawn = build_observables(config, problem, seed)
            assert len(drawn) == config.n_observables
            assert all(obs in problem.observables for obs in drawn)

    def test_no_k_max_computes_nothing(self, monkeypatch):
        def no_signal(*args, **kwargs):
            raise AssertionError("exact signal without k_max")

        monkeypatch.setattr(harness, "_phase_sums", no_signal)
        assert build_problem(small_config()).signals == {}

    def test_problem_holds_no_level_by_step_array(self):
        k_max = 100
        config = small_config(n_observables=2)
        problem = build_problem(config, k_max)
        arrays = [getattr(problem, f.name) for f in dataclasses.fields(problem)]
        arrays += list(problem.signals.values())
        dim = problem.spec.dimension
        arrays += [problem.spec.energies, problem.spec.eigenvectors]
        for value in arrays:
            if isinstance(value, np.ndarray):
                assert value.size < dim * (k_max + 1)
        assert all(row.shape == (k_max + 1,) for row in problem.signals.values())


class TestProbeStates:
    """A problem holds ``phi0`` and each ``O_i phi0`` as their amplitudes on
    the states the references reach: its stack rows and ``gram`` against
    the ``2^n``-long vectors of the dense oracle."""

    @pytest.fixture
    def probe_configs(self, tmp_path):
        obs = tmp_path / "obs.txt"
        obs.write_text("0.7 XYI\n-0.3 ZIZ\n0.2 IXX\n\n1.0 YII\n0.4 IZZ\n\n1.0 III\n")
        chain = tmp_path / "chain.txt"
        chain.write_text(hopping_chain(4))
        return {
            "random-1-local": small_config(
                n_observables=4, reference_bitstrings=("000", "110", "011")
            ),
            # a 3-qubit TFIM has 5 terms, so the sixth partial sum is zero
            "partial-sums": small_config(
                observable_policy="hamiltonian-partial-sums", n_observables=6
            ),
            "explicit": small_config(
                observable_policy="explicit", observable_file=str(obs), n_observables=3
            ),
            # X and Y move the one particle out of the sector
            "sector": small_config(
                tfim_qubits=None, hamiltonian_file=str(chain), particle_number=1,
                reference_bitstrings=("1000", "0010"),
            ),
        }

    @pytest.mark.parametrize("case", ["random-1-local", "partial-sums", "explicit", "sector"])
    def test_stack_rows_are_the_applied_vectors_on_the_run_states(
        self, case, probe_configs, monkeypatch
    ):
        config = probe_configs[case]
        stacks, solve = [], harness._solve

        def recording_solve(psum, states, stack):
            stacks.append((states, stack))
            return solve(psum, states, stack)

        monkeypatch.setattr(harness, "_solve", recording_solve)
        problem = build_problem(config, 20)
        ((states, stack),) = stacks
        pool = harness._probe_pool(problem.observables, problem.n_qubits)
        assert list(problem.signals) == pool
        amps = problem.phi0.amplitudes
        np.testing.assert_array_equal(stack[0], amps[states])
        for observable, row in zip(pool, stack[1:]):
            np.testing.assert_array_equal(row, observable.apply(amps)[states])

    @pytest.mark.parametrize("case", ["random-1-local", "partial-sums", "explicit", "sector"])
    def test_gram_is_the_overlaps_of_the_rank_two_vectors(self, case, probe_configs):
        config = probe_configs[case]
        problem, dense = build_problem(config, 20), build_problem(config)
        pool = harness._probe_pool(problem.observables, problem.n_qubits)
        u = [shadows.build_gamma(o, problem.phi0, problem.phi_perp).u for o in pool]
        want = np.array([[np.vdot(u_j, u_i) for u_j in u] for u_i in u])
        assert problem.gram.shape == (len(pool), len(pool))
        np.testing.assert_allclose(problem.gram, want, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(dense.gram, problem.gram)
        if case == "partial-sums":  # the zero operator closes the pool
            assert pool[-2].num_terms == 0 and not np.any(problem.gram[-2])
        if case == "sector":  # unit vectors all, though X and Y leave the sector
            np.testing.assert_allclose(np.diag(problem.gram), 1.0, rtol=0, atol=1e-15)
            leaving = [o for o in pool if o.strings[0].x_mask]
            assert len(leaving) == 8
            assert not any(np.any(problem.signals[o]) for o in leaving)


    @pytest.mark.parametrize("source", ["exact+gaussian", "shadow"])
    def test_sector_run_holds_less_than_one_register_vector(self, source, tmp_path):
        """A 20-qubit chain at N = 1: its problem (61 probe states) and a
        cell peak far below one vector of 2^20 amplitudes (16.8 MB)."""
        hfile = tmp_path / "chain.txt"
        hfile.write_text(hopping_chain(20))
        config = small_config(
            tfim_qubits=None, hamiltonian_file=str(hfile), particle_number=1,
            reference_bitstrings=("1" + "0" * 19,), n_eig=1, k_grid=(40,),
            signal_source=source, shadow_samples=8 if source == "shadow" else None,
        )
        run_single_solve(config)  # warm: imports and caches stay out of the peak
        tracemalloc.start()
        try:
            problem = build_problem(config, 200)
            run_single_solve(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(problem.signals) == 61
        assert peak < 2e6


class TestParseObservableFile:
    def test_blank_line_separated_blocks(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("1.0 XX\n0.5 ZZ\n\n# comment only in block two\n-1.0 YY\n")
        pools = parse_observable_file(str(path), 2, 2)
        assert [p.num_terms for p in pools] == [2, 1]

    def test_count_mismatch(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("1.0 XX\n\n1.0 ZZ\n")
        with pytest.raises(ConfigError, match="provides 2"):
            parse_observable_file(str(path), 2, 3)

    def test_width_mismatch(self, tmp_path):
        path = tmp_path / "obs.txt"
        path.write_text("1.0 XXX\n")
        with pytest.raises(ConfigError, match="does not match"):
            parse_observable_file(str(path), 2, 1)


def real_rows(problem, observables, n_steps):
    """The real parts of the problem's exact rows of ``observables``."""
    rows = np.stack([problem.signals[o][:n_steps].real for o in observables])
    return modmd.MultiObservableSignal(len(observables), problem.dt, rows)


class TestMeasureSignal:
    def test_noiseless_matches_exact_signal(self):
        config = small_config(noise_epsilon=0.0)
        problem = build_problem(config, 10)
        pool = build_observables(config, problem, seed=2)
        measured = measure_signal(config, problem, pool, 11, seed=4)
        assert np.array_equal(measured.values, real_rows(problem, pool, 11).values)
        assert measured.mode == "real"
        assert measured.dt == problem.dt
        oracle = exact_signal(problem.spec, problem.phi0, pool, problem.dt, 10)
        np.testing.assert_allclose(measured.values, oracle.values, rtol=0, atol=1e-12)

    def test_noise_is_seed_deterministic(self):
        config = small_config(noise_epsilon=1e-2)
        problem = build_problem(config, 10)
        pool = build_observables(config, problem, seed=2)
        a = measure_signal(config, problem, pool, 11, seed=4)
        b = measure_signal(config, problem, pool, 11, seed=4)
        c = measure_signal(config, problem, pool, 11, seed=5)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_given_clean_signal_draws_the_same_noise(self):
        """The noise is the channel's at the configured level, on the
        problem's clean rows cut to the window, which stay untouched."""
        config = small_config(noise_epsilon=1e-2)
        problem = build_problem(config, 20)
        pool = build_observables(config, problem, seed=2)
        before = {o: row.copy() for o, row in problem.signals.items()}
        measured = measure_signal(config, problem, pool, 11, seed=4)
        want = gaussian_noise_channel(real_rows(problem, pool, 11), 1e-2, 4)
        assert np.array_equal(measured.values, want.values)
        assert all(np.array_equal(problem.signals[o], row) for o, row in before.items())

    def test_complex_clean_signal_draws_the_noise_of_its_real_part(self):
        """The problem's rows are complex: the Gaussian source measures
        their real part, bit for bit as the channel does."""
        config = small_config(noise_epsilon=1e-2)
        problem = build_problem(config, 10)
        pool = build_observables(config, problem, seed=2)
        assert all(problem.signals[o].dtype == complex for o in pool)
        measured = measure_signal(config, problem, pool, 11, seed=4)
        want = gaussian_noise_channel(real_rows(problem, pool, 11), 1e-2, 4)
        assert measured.mode == "real"
        assert np.array_equal(measured.values, want.values)

    def test_problem_without_the_rows_refused(self):
        """A problem built without ``k_max``, or with one too short for the
        window, holds no rows to measure, and either source says so."""
        for source in ("exact+gaussian", "shadow"):
            shots = 16 if source == "shadow" else None
            config = small_config(signal_source=source, shadow_samples=shots, noise_epsilon=0.0)
            pool = build_observables(config, build_problem(config, 10), seed=2)
            with pytest.raises(ValueError, match="holds exact signals of 0 samples, not 11"):
                measure_signal(config, build_problem(config), pool, 11, seed=4)
            with pytest.raises(ValueError, match="holds exact signals of 11 samples, not 12"):
                measure_signal(config, build_problem(config, 10), pool, 12, seed=4)

    def test_shadow_source(self):
        config = small_config(
            tfim_qubits=2,
            reference_bitstrings=("00", "11"),
            observable_policy="identity-only",
            n_observables=1,
            signal_source="shadow",
            shadow_samples=16,
        )
        problem = build_problem(config, 2)
        pool = build_observables(config, problem, seed=2)
        a = measure_signal(config, problem, pool, 3, seed=9)
        b = measure_signal(config, problem, pool, 3, seed=9)
        assert a.values.shape == (1, 3) and a.mode == "real"
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, real_rows(problem, pool, 3).values)
        assert np.max(np.abs(a.values)) <= 9.0  # (dim + 1) per-sample cap

    def test_shadow_source_refuses_an_observable_outside_the_pool(self):
        """Both sources read the problem's rows, and the shadow source the
        Gram of its probe pool, so an observable outside it is named, not
        looked up."""
        stranger = parse_pauli_sum("0.5 XXI\n")
        observables = [identity_observable(3), stranger]
        for source in ("exact+gaussian", "shadow"):
            shots = 16 if source == "shadow" else None
            config = small_config(signal_source=source, shadow_samples=shots, noise_epsilon=0.0)
            problem = build_problem(config, 4)
            with pytest.raises(ValueError, match="'0.5 XXI' is not in the problem's pool"):
                measure_signal(config, problem, observables, 5, seed=9)

    def test_shadow_source_samples_the_complex_rows(self, monkeypatch):
        """The shadow source hands the sampler the problem's complex rows,
        cut to the window, and the rows and columns of ``problem.gram`` of
        its observables."""
        config = small_config(signal_source="shadow", shadow_samples=16, noise_epsilon=0.0)
        problem = build_problem(config, 20)
        pool = list(problem.signals)
        observables = [pool[4], pool[1]]
        seen = []

        def recording(exact, gram, n_qubits, *args):
            seen.append((exact, gram, n_qubits))
            return shadows._sample_signal(exact, gram, n_qubits, *args)

        monkeypatch.setattr(harness, "_sample_signal", recording)
        measure_signal(config, problem, observables, 11, seed=9)
        ((exact, gram, n_qubits),) = seen
        assert exact.mode == "complex" and n_qubits == 3
        want = np.stack([problem.signals[o][:11] for o in observables])
        assert np.any(want.imag) and np.array_equal(exact.values, want)
        np.testing.assert_array_equal(gram, problem.gram[np.ix_([4, 1], [4, 1])])

    def test_shadow_source_samples_the_problem_signals(self):
        """A sweep problem's pooled overlaps give the per-observable
        ``shadow_signal`` oracle's estimate over three step blocks, and a
        cell's first row does not depend on its companions."""
        config = small_config(signal_source="shadow", shadow_samples=16, noise_epsilon=0.0)
        k_max, seed = 70, 9
        problem = build_problem(config, k_max)
        pool = build_observables(config, problem, seed=2) + [identity_observable(3)]

        def measured(observables):
            return measure_signal(config, problem, observables, k_max + 1, seed).values

        oracle = modmd.shadow_signal(
            problem.spec, problem.phi0, problem.phi_perp, pool, problem.dt, k_max,
            config.shadow_samples, seed,
        )
        got = measured(pool)
        assert got.shape == (3, k_max + 1)
        np.testing.assert_allclose(got, oracle.values, rtol=0, atol=1e-12)
        np.testing.assert_array_equal(measured(pool[:1])[0], got[0])


class TestSweepDrivers:
    def test_convergence_rows_and_order(self, small_sweep):
        config = small_sweep.config
        assert small_sweep.sweep == "sweep-k"
        assert small_sweep.points == (16.0, 24.0)
        assert len(small_sweep.rows) == 2 * config.trials * 2
        expected = [
            (pi, trial, method)
            for pi in range(2)
            for trial in range(config.trials)
            for method in ("modmd", "odmd")
        ]
        assert [(r.point_index, r.trial, r.method) for r in small_sweep.rows] == expected

    def test_row_shapes(self, small_sweep):
        for row in small_sweep.rows:
            assert len(row.energies) == 2
            assert len(row.abs_errors) == 2
            assert row.retained_rank >= 1
            assert row.wall_time_s >= 0.0

    def test_recovery_at_low_noise(self, small_sweep):
        worst = max(
            max(r.abs_errors) for r in small_sweep.rows if r.method == "modmd"
        )
        assert worst < 1e-6

    def test_exact_energies_shared_across_k_points(self, small_sweep):
        assert small_sweep.exact_energies[0] == small_sweep.exact_energies[1]
        assert len(small_sweep.exact_energies[0]) == 2

    def test_odmd_row_matches_manual_pipeline(self, small_sweep):
        config = small_sweep.config
        K = 24
        d = depth_for_window(K, config.k_over_d)
        # The baseline's truth is the identity's row of the problem's exact
        # signals, whose samples do not depend on how long the signal is.
        problem = build_problem(config, K + d)
        seed = derive_seed(config.master_seed, 1, 1, 2)  # stream 2 is the baseline
        signal = measure_signal(config, problem, [identity_observable(3)], K + d + 1, seed)
        pair = build_hankel(signal, d, K)
        pinv = truncated_pinv(pair.x, config.svd_threshold)
        fit = fit_propagator(pair, pinv)
        estimate = extract_eigen(
            fit, problem.dt, config.n_eig, merge_conjugates=True
        )
        physical = estimate.energies / problem.scale
        row = next(
            r
            for r in small_sweep.rows
            if r.point_index == 1 and r.trial == 1 and r.method == "odmd"
        )
        assert row.energies == tuple(float(v) for v in physical)
        assert row.retained_rank == pinv.rank
        assert row.residual == residual(fit, pair)

    def test_aggregates_match_recomputed_statistics(self, small_sweep):
        aggs = small_sweep.aggregates()
        assert len(aggs) == 4
        agg = next(a for a in aggs if a.point_index == 0 and a.method == "modmd")
        group = [
            r
            for r in small_sweep.rows
            if r.point_index == 0 and r.method == "modmd"
        ]
        errors = np.array([r.abs_errors for r in group])
        assert agg.n_trials == len(group)
        assert agg.mean_errors == pytest.approx(tuple(errors.mean(axis=0)))
        assert agg.std_errors == pytest.approx(tuple(errors.std(axis=0)))
        assert agg.mean_rank == pytest.approx(
            np.mean([r.retained_rank for r in group])
        )

    def test_gap_sweep_guards(self, tmp_path):
        hfile = diagonal_hamiltonian_file(tmp_path)
        file_config = small_config(
            tfim_qubits=None,
            hamiltonian_file=str(hfile),
            reference_bitstrings=("001",),
        )
        with pytest.raises(ConfigError, match="TFIM"):
            run_gap_sweep(file_config, (0.5,))
        with pytest.raises(ConfigError, match="single fixed K"):
            run_gap_sweep(small_config(k_grid=(16, 24)), (0.5,))
        with pytest.raises(ConfigError, match="h_grid"):
            run_gap_sweep(small_config(), ())

    def test_gap_sweep_rebuilds_spectrum_per_point(self):
        result = run_gap_sweep(small_config(trials=1), (0.9, 1.1))
        assert result.sweep == "sweep-gap"
        assert result.points == (0.9, 1.1)
        assert result.exact_energies[0] != result.exact_energies[1]
        for h, energies in zip(result.points, result.exact_energies):
            problem = build_problem(small_config(tfim_field=h))
            assert energies == problem.exact_energies[:2]
        assert result.sweep_args == {"h_grid": (0.9, 1.1)}
        assert len(result.rows) == 2 * 1 * 2

    def test_noise_sweep_guards(self):
        with pytest.raises(ConfigError, match="single fixed K"):
            run_noise_sweep(small_config(k_grid=(16, 24)), (1e-3,))
        with pytest.raises(ConfigError, match="eps_grid"):
            run_noise_sweep(small_config(), ())
        with pytest.raises(ConfigError, match="finite"):
            run_noise_sweep(small_config(), (-1e-3,))

    def test_noise_sweep_uses_grid_levels(self):
        result = run_noise_sweep(small_config(svd_threshold=None), (0.0, 1e-3))
        noiseless = max(
            max(r.abs_errors)
            for r in result.rows
            if r.method == "modmd" and r.point_index == 0
        )
        noisy = max(
            max(r.abs_errors)
            for r in result.rows
            if r.method == "modmd" and r.point_index == 1
        )
        assert noiseless < 1e-10
        assert noisy > 1e-6
        assert result.sweep_args == {"eps_grid": (0.0, 1e-3)}

    def test_forecast_guards(self):
        with pytest.raises(ConfigError, match="kstar_grid"):
            run_forecast_experiment(small_config(), (), 5)
        with pytest.raises(ConfigError, match="horizon"):
            run_forecast_experiment(small_config(), (24,), 0)
        with pytest.raises(ConfigError, match="too short"):
            run_forecast_experiment(small_config(), (1,), 5)

    def test_forecast_rows(self):
        config = small_config(svd_threshold=None, noise_epsilon=0.0)
        result = run_forecast_experiment(config, (24, 36), 5)
        assert isinstance(result, SweepResult)
        assert result.sweep_args == {"kstar_grid": (24, 36), "horizon": 5}
        agg = result.aggregates()[0]
        assert (agg.point_value, agg.method, agg.n_trials) == (24.0, "modmd", 2)
        first = [r.rmse_mean for r in result.rows if r.point_index == 0][::2]
        assert agg[4] == agg.mean_rmse == float(np.mean(first))
        assert len(result.rows) == 2 * config.trials * 2
        for row in result.rows:
            expected_len = 2 if row.method == "modmd" else 1
            assert len(row.rmse) == expected_len
            assert row.rmse_mean == pytest.approx(np.mean(row.rmse))

    def test_forecast_records_each_points_exact_energies(self):
        result = run_forecast_experiment(small_config(trials=1), (24, 36), 5)
        expected = build_problem(small_config()).exact_energies[:2]
        assert result.exact_energies == (expected, expected)

    def test_driver_arguments_checked_like_fields(self):
        result = run_forecast_experiment(
            small_config(trials=1), (np.int64(24),), np.int64(5)
        )
        assert result.sweep_args == {"kstar_grid": (24,), "horizon": 5}
        assert type(result.sweep_args["kstar_grid"][0]) is int
        assert type(result.sweep_args["horizon"]) is int
        result = run_gap_sweep(small_config(trials=1), [np.float64(0.9)])
        assert result.sweep_args == {"h_grid": (0.9,)}
        assert type(result.sweep_args["h_grid"][0]) is float
        for h_grid, message in [
            ((True,), "sweep_args.h_grid entry must be a number, got True"),
            ((0.9, "1.1"), "sweep_args.h_grid entry must be a number, got '1.1'"),
            ((0.9, math.nan), "sweep_args.h_grid entry must be finite, got nan"),
            (0.9, "sweep_args.h_grid must be a list"),
            (np.array([0.9]), "sweep_args.h_grid must be a list"),
            ([], "sweep_args.h_grid must not be empty"),
            (None, "sweep_args.h_grid is missing"),
        ]:
            with pytest.raises(ConfigError, match=re.escape(message) + "$"):
                run_gap_sweep(small_config(), h_grid)
        for horizon, message in [
            (True, "sweep_args.horizon must be an integer, got True"),
            (2.0, "sweep_args.horizon must be an integer, got 2.0"),
            ((5,), "sweep_args.horizon must be an integer, got (5,)"),
        ]:
            with pytest.raises(ConfigError, match=re.escape(message) + "$"):
                run_forecast_experiment(small_config(), (24,), horizon)
        with pytest.raises(ConfigError, match="horizon must be >= 1, got -1"):
            run_forecast_experiment(small_config(), (24,), -1)
        with pytest.raises(ConfigError, match="horizn is not an argument of forecast"):
            harness._run_sweep(
                "forecast", small_config(), kstar_grid=(24,), horizon=5, horizn=50
            )

    @pytest.mark.parametrize(
        "kind, k_grid, args, message",
        [
            ("forecast", (16,), {"kstar_grid": (24, 1), "horizon": 5}, "too short"),
            ("sweep-noise", (16,), {"eps_grid": (1e-3, 0.1)}, r"10 \* noise_epsilon"),
            ("sweep-gap", (16, 24), {"h_grid": (0.9,)}, "single fixed K"),
        ],
        ids=["forecast-window", "noise-threshold", "gap-k-grid"],
    )
    def test_bad_grid_point_refused_before_any_cell(
        self, kind, k_grid, args, message, monkeypatch
    ):
        def no_cells(plan, workers):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "_run_plan", no_cells)
        config = small_config(svd_threshold=None, k_grid=k_grid)
        with pytest.raises(ConfigError, match=message):
            harness._run_sweep(kind, config, **args)

    def test_forecast_recovers_consistent_signal(self):
        config = small_config(svd_threshold=None, noise_epsilon=0.0)
        result = run_forecast_experiment(config, (24,), 10)
        worst = max(r.rmse_mean for r in result.rows if r.method == "modmd")
        assert worst < 1e-10

    def test_single_solve(self):
        modmd_row, odmd_row = run_single_solve(
            small_config(svd_threshold=None, noise_epsilon=0.0)
        )
        assert modmd_row.method == "modmd"
        assert odmd_row.method == "odmd"
        assert modmd_row.point_index == 0 and modmd_row.trial == 0
        assert max(modmd_row.abs_errors) < 1e-10

    def test_sweep_diagonalizes_once(self, monkeypatch):
        calls = []

        def counting_build_problem(*args, **kwargs):
            calls.append(args)
            return build_problem(*args, **kwargs)

        monkeypatch.setattr(harness, "build_problem", counting_build_problem)
        result = run_convergence_sweep(small_config(k_grid=(16, 24)))
        assert len(calls) == 1
        shared = build_problem(small_config()).exact_energies[:2]
        assert result.exact_energies == (shared, shared)

    def test_serial_sweeps_leave_no_module_state(self):
        """A serial sweep passes its plan and problems from call to call:
        no module attribute of ``harness`` changes, and none holds a plan
        or a problem. Only a pool worker's initializer sets state."""

        def holds_sweep(value):
            if isinstance(value, (harness._SweepPlan, harness.Problem)):
                return True
            if isinstance(value, dict):
                value = list(value.values())
            return isinstance(value, (tuple, list)) and any(map(holds_sweep, value))

        before = {name: id(value) for name, value in vars(harness).items()}
        run_convergence_sweep(small_config(trials=1))
        run_gap_sweep(small_config(trials=1), (0.9, 1.0, 1.1))
        run_single_solve(small_config())
        assert {name: id(value) for name, value in vars(harness).items()} == before
        assert not any(map(holds_sweep, vars(harness).values()))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_gap_sweep_builds_each_problem_once_here(self, workers, tmp_path, monkeypatch):
        """Each field's problem is built once, in the calling process and
        before the first cell; a pool worker builds none. A worker's call
        would append its own process id to the file."""
        log = tmp_path / "built"

        def recording_build_problem(*args, **kwargs):
            with log.open("a") as fh:
                fh.write(f"{os.getpid()}\n")
            return build_problem(*args, **kwargs)

        monkeypatch.setattr(harness, "build_problem", recording_build_problem)
        run_gap_sweep(small_config(trials=3, workers=workers), (0.9, 1.0, 1.1))
        assert log.read_text().split() == [str(os.getpid())] * 3

    def test_serial_sweeps_run_from_two_threads(self):
        """Two different serial sweeps, run at once from two threads, each
        give the rows they give alone."""
        sweeps = (
            lambda: run_convergence_sweep(small_config(k_grid=(16, 24), trials=2)),
            lambda: run_gap_sweep(small_config(trials=2), (0.9, 1.0, 1.1)),
        )

        def strip(result):
            return [dataclasses.replace(r, wall_time_s=0.0) for r in result.rows]

        alone = [strip(sweep()) for sweep in sweeps]
        start, together, errors = threading.Barrier(len(sweeps)), [[], []], []

        def run(index):
            start.wait()
            try:
                for _ in range(3):
                    together[index].append(strip(sweeps[index]()))
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(sweeps))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert together == [[rows] * 3 for rows in alone]

    def test_sweep_problem_carries_the_longest_signals(self, monkeypatch):
        lengths = []

        def recording_build_problem(*args, **kwargs):
            problem = build_problem(*args, **kwargs)
            lengths.append({len(row) for row in problem.signals.values()})
            return problem

        monkeypatch.setattr(harness, "build_problem", recording_build_problem)
        run_convergence_sweep(small_config(k_grid=(16, 24), trials=1))
        run_forecast_experiment(small_config(trials=1), (20, 30), 7)
        # K + d + 1 samples at K = 24, d = 12; k* + horizon + 1 at k* = 30
        assert lengths == [{37}, {38}]

    @pytest.mark.parametrize("kind", list(harness.SWEEP_KINDS))
    def test_cell_takes_truth_from_one_exact_signal(self, kind, monkeypatch):
        calls = []

        def counting_phase_sums(spec, stack, *args):
            calls.append(len(stack) - 1)  # the observables below phi0
            return _phase_sums(spec, stack, *args)

        monkeypatch.setattr(harness, "_phase_sums", counting_phase_sums)
        config = small_config(trials=2, n_observables=3)
        result = {
            "sweep-k": lambda: run_convergence_sweep(
                dataclasses.replace(config, k_grid=(16, 24))
            ),
            "sweep-gap": lambda: run_gap_sweep(config, (0.9, 1.1)),
            "sweep-noise": lambda: run_noise_sweep(config, (1e-8, 1e-6)),
            "forecast": lambda: run_forecast_experiment(config, (20, 30), 7),
        }[kind]()
        assert result.sweep == kind
        # one call per problem (one per field of a gap sweep), on the 3n
        # single-qubit Paulis plus the identity; no call per cell
        assert calls == [3 * 3 + 1] * (2 if kind == "sweep-gap" else 1)
        assert len(result.rows) == 8

    def test_single_solve_takes_truth_from_one_exact_signal(self, monkeypatch):
        calls = []

        def counting_phase_sums(spec, stack, dt, k_max):
            calls.append((len(stack) - 1, k_max))  # the observables below phi0
            return _phase_sums(spec, stack, dt, k_max)

        monkeypatch.setattr(harness, "_phase_sums", counting_phase_sums)
        run_single_solve(small_config(k_grid=(16, 24)))
        assert calls == [(3 * 3 + 1, 16 + 8)]  # K + d at the first K

    def test_forecast_baseline_truth_matches_identity_signal(self):
        config = small_config(trials=1, noise_epsilon=0.0)
        result = run_forecast_experiment(config, (20,), 7)
        problem = build_problem(config, 27)
        truth = exact_signal(
            problem.spec, problem.phi0, [identity_observable(3)], problem.dt, 27
        )
        d, K = split_fit_window(20, config.k_over_d)
        measured = measure_signal(config, problem, [identity_observable(3)], 21, 0)
        pair = build_hankel(measured, d, K)
        fit = fit_propagator(pair, truncated_pinv(pair.x, config.svd_threshold))
        predicted = harness.forecast(fit, pair, 8)[:, 1:]
        rmse = np.sqrt(np.mean((predicted - truth.values[:, 21:]) ** 2))
        (odmd,) = [r for r in result.rows if r.method == "odmd"]
        assert odmd.rmse[0] == pytest.approx(rmse, rel=1e-8, abs=1e-14)

    @pytest.mark.parametrize("source", ["exact+gaussian", "shadow"])
    def test_every_fit_window_is_real(self, source, monkeypatch):
        """Both sources measure real rows, so the fits of every sweep kind,
        and of ``solve``, see float64 windows."""
        seen, fit_window = [], harness._fit_window

        def recording(signal, *args):
            seen.append(signal.values.dtype)
            return fit_window(signal, *args)

        monkeypatch.setattr(harness, "_fit_window", recording)
        shots = 64 if source == "shadow" else None
        config = small_config(trials=1, signal_source=source, shadow_samples=shots)
        args = {
            "sweep-k": {},
            "sweep-gap": {"h_grid": (0.9,)},
            "sweep-noise": {"eps_grid": (1e-8,)},
            "forecast": {"kstar_grid": (24,), "horizon": 5},
        }
        for kind in harness.SWEEP_KINDS:
            harness._run_sweep(kind, config, **args[kind])
        run_single_solve(config)
        assert seen == [np.dtype(np.float64)] * 2 * (len(args) + 1)

    def test_parallel_workers_reproduce_serial_rows(self):
        serial = run_convergence_sweep(small_config())
        parallel = run_convergence_sweep(small_config(workers=2))

        def strip(rows):
            return [dataclasses.replace(r, wall_time_s=0.0) for r in rows]

        assert strip(parallel.rows) == strip(serial.rows)

    def test_parallel_workers_reproduce_serial_gap_and_forecast_rows(self):
        def outputs(workers):
            config = small_config(workers=workers)
            gap = run_gap_sweep(config, (0.9, 1.1))
            fc = run_forecast_experiment(config, (20, 30), 7)
            rows = [dataclasses.replace(r, wall_time_s=0.0) for r in gap.rows + fc.rows]
            return rows, gap.exact_energies

        assert outputs(2) == outputs(1)

    def test_pool_starts_no_more_workers_than_cells(self, monkeypatch):
        """A pool starts all of its processes at once, so it is sized to the
        cells; the recorder runs the cells here and starts none."""
        sizes = []

        class Recorder:
            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                pass

            def map(self, fn, tasks, chunksize):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(harness, "_POOL_SWEEP", None)  # the initializer sets it here
        config = small_config(k_grid=(16, 20, 24), trials=1)
        serial = run_convergence_sweep(config)
        pooled = run_convergence_sweep(dataclasses.replace(config, workers=512))
        assert sizes == [3]

        def strip(rows):
            return [dataclasses.replace(r, wall_time_s=0.0) for r in rows]

        assert strip(pooled.rows) == strip(serial.rows)


class TestEmitOutputs:
    def test_sweep_file_inventory(self, small_sweep, tmp_path):
        written = emit_outputs(small_sweep, tmp_path / "out")
        names = {p.name for p in written}
        assert names == {
            "sweep-k_results.csv",
            "sweep-k_timing.csv",
            "sweep-k_schema.txt",
            "sweep-k_manifest.json",
            "sweep-k_level_0.svg",
            "sweep-k_level_1.svg",
        }
        for path in written:
            assert path.is_file()

    def test_results_table_layout(self, small_sweep, tmp_path):
        emit_outputs(small_sweep, tmp_path)
        with (tmp_path / "sweep-k_results.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "kind",
            "point_index",
            "point_value",
            "trial",
            "method",
            "n_trials",
            "energy_0",
            "energy_1",
            "abs_error_0",
            "abs_error_1",
            "residual",
            "retained_rank",
        ]
        kinds = [r[0] for r in rows[1:]]
        assert kinds.count("trial") == len(small_sweep.rows)
        assert kinds.count("mean") == 4
        assert kinds.count("std") == 4

    def test_floats_round_trip_exactly(self, small_sweep, tmp_path):
        emit_outputs(small_sweep, tmp_path)
        with (tmp_path / "sweep-k_results.csv").open() as fh:
            rows = list(csv.reader(fh))
        first = rows[1]
        assert first[0] == "trial"
        assert float(first[6]) == small_sweep.rows[0].energies[0]
        assert float(first[10]) == small_sweep.rows[0].residual

    @pytest.mark.parametrize(
        "kind, flags",
        [
            ("sweep-k", []),
            ("sweep-gap", ["--h-grid", "0.5,0.8"]),
            ("sweep-noise", ["--eps-grid", "1e-8,1e-6"]),
            ("forecast", ["--kstar-grid", "24", "--horizon", "5"]),
        ],
    )
    def test_every_results_cell_is_a_number(self, kind, flags, tmp_path):
        """Trial and aggregate rows alike: every column but the two text
        ones holds an int or float literal, or nothing."""
        assert len(harness.SWEEP_KINDS) == 4
        path = write_config_file(tmp_path / "cfg.json")
        out = tmp_path / "out"
        assert main([kind, "--config", str(path), "--output-dir", str(out)] + flags) == 0
        with (out / f"{kind}_results.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert {"trial", "mean", "std"} <= {row["kind"] for row in rows}
        for row in rows:
            for column, cell in row.items():
                if column not in ("kind", "method") and cell:
                    float(cell)

    def test_manifest_payload(self, small_sweep, tmp_path):
        emit_outputs(small_sweep, tmp_path)
        data = json.loads((tmp_path / "sweep-k_manifest.json").read_text())
        assert set(data) == {
            "sweep",
            "sweep_args",
            "config",
            "points",
            "versions",
            "exact_energies",
        }
        assert data["sweep"] == "sweep-k"
        assert config_from_dict(data["config"]) == small_sweep.config
        assert set(data["versions"]) == {"python", "numpy", "modmd"}

    def test_schema_documents_results_file(self, small_sweep, tmp_path):
        emit_outputs(small_sweep, tmp_path)
        text = (tmp_path / "sweep-k_schema.txt").read_text()
        assert "sweep-k_results.csv" in text
        assert "timing" in text

    @pytest.mark.parametrize(
        "kind, stages",
        [
            ("sweep-k", ["eig_s", "residual_s"]),
            ("forecast", ["forecast_s"]),
        ],
    )
    def test_timing_table_has_stage_columns(self, kind, stages, small_sweep, tmp_path):
        if kind == "forecast":
            config = small_config(noise_epsilon=0.0, svd_threshold=None)
            result = run_forecast_experiment(config, (24,), 5)
        else:
            result = small_sweep
        emit_outputs(result, tmp_path)
        with (tmp_path / f"{kind}_timing.csv").open() as fh:
            rows = list(csv.reader(fh))
        stages = ["signal_s", "hankel_s", "pinv_s", *stages]
        assert rows[0] == ["point_index", "trial", "method", "wall_time_s", *stages]
        assert len(rows) == 1 + len(result.rows)
        for row in rows[1:]:
            wall, *parts = map(float, row[3:])
            assert min(parts) >= 0.0
            assert sum(parts) <= wall
        schema = (tmp_path / f"{kind}_schema.txt").read_text()
        assert all(stage in schema for stage in stages)

    def test_plots_cover_both_methods(self, small_sweep, tmp_path):
        emit_outputs(small_sweep, tmp_path)
        svg = (tmp_path / "sweep-k_level_0.svg").read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 2
        assert "modmd" in svg and "odmd" in svg

    def test_forecast_file_inventory(self, tmp_path):
        config = small_config(noise_epsilon=0.0, svd_threshold=None)
        result = run_forecast_experiment(config, (24,), 5)
        written = emit_outputs(result, tmp_path)
        names = {p.name for p in written}
        assert names == {
            "forecast_results.csv",
            "forecast_timing.csv",
            "forecast_schema.txt",
            "forecast_manifest.json",
            "forecast_rmse.svg",
        }

    def test_forecast_baseline_rows_pad_rmse_columns(self, tmp_path):
        config = small_config(noise_epsilon=0.0, svd_threshold=None)
        result = run_forecast_experiment(config, (24,), 5)
        emit_outputs(result, tmp_path)
        with (tmp_path / "forecast_results.csv").open() as fh:
            rows = list(csv.reader(fh))
        header = rows[0]
        assert header[-2:] == ["rmse_0", "rmse_1"]
        odmd_trial = next(r for r in rows[1:] if r[0] == "trial" and r[4] == "odmd")
        assert odmd_trial[-1] == ""
        modmd_trial = next(r for r in rows[1:] if r[0] == "trial" and r[4] == "modmd")
        assert modmd_trial[-1] != ""

    def test_replay_reproduces_rows(self, small_sweep, tmp_path):
        emit_outputs(small_sweep, tmp_path)
        replayed = replay_manifest(tmp_path / "sweep-k_manifest.json")

        def strip(rows):
            return [dataclasses.replace(r, wall_time_s=0.0) for r in rows]

        assert strip(replayed.rows) == strip(small_sweep.rows)

    @pytest.mark.parametrize(
        "kind", ["sweep-k", "sweep-gap", "sweep-noise", "forecast"]
    )
    def test_replay_reproduces_bytes(self, kind, small_sweep, tmp_path):
        first = tmp_path / "a"
        second = tmp_path / "b"
        if kind == "sweep-k":
            result = small_sweep
        elif kind == "sweep-gap":
            result = run_gap_sweep(small_config(), (0.7, 1.3))
        elif kind == "sweep-noise":
            result = run_noise_sweep(small_config(svd_threshold=None), (1e-4, 1e-2))
        else:
            config = small_config(noise_epsilon=1e-3)
            result = run_forecast_experiment(config, (24, 30), 6)
        written = emit_outputs(result, first)
        replayed = replay_manifest(first / f"{kind}_manifest.json")
        emit_outputs(replayed, second)
        compared = 0
        for path in sorted(first.iterdir()):
            if path.name.endswith("_timing.csv"):
                continue
            assert (second / path.name).read_bytes() == path.read_bytes()
            compared += 1
        assert compared == len(written) - 1

    def test_shadow_replay_reproduces_bytes(self, tmp_path):
        sweep = run_convergence_sweep(
            small_config(signal_source="shadow", shadow_samples=20)
        )
        emit_outputs(sweep, tmp_path / "a")
        replayed = replay_manifest(tmp_path / "a" / "sweep-k_manifest.json")
        assert replayed.config == sweep.config
        emit_outputs(replayed, tmp_path / "b")
        compared = 0
        for path in sorted((tmp_path / "a").iterdir()):
            if path.name.endswith("_timing.csv"):
                continue
            assert (tmp_path / "b" / path.name).read_bytes() == path.read_bytes()
            compared += 1
        assert compared == 5

    def test_replay_of_a_plain_configuration_refused(self, tmp_path):
        path = write_config_file(tmp_path / "cfg.json")
        with pytest.raises(ConfigError, match=re.escape(f"{path} is not a run manifest") + "$"):
            replay_manifest(path)

    def test_replay_manifest_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            replay_manifest(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("[]")
        with pytest.raises(ConfigError, match="not a run manifest"):
            replay_manifest(bad)
        unknown = tmp_path / "unknown.json"
        unknown.write_text(
            json.dumps(
                {
                    "sweep": "sweep-sideways",
                    "config": config_to_dict(small_config()),
                    "sweep_args": {},
                }
            )
        )
        with pytest.raises(ConfigError, match="unknown sweep kind"):
            replay_manifest(unknown)

    @pytest.mark.parametrize(
        "sweep, sweep_args, match",
        [
            ("sweep-gap", {}, "h_grid is missing$"),
            ("sweep-gap", {"h_grid": 0.5}, "h_grid must be a list$"),
            ("sweep-noise", {"eps_grid": [1e-3, "x"]}, "eps_grid entry must be a number, got 'x'"),
            ("sweep-noise", {"eps_grid": [True]}, "eps_grid entry must be a number, got True"),
            ("forecast", {"kstar_grid": [24]}, "horizon is missing$"),
            (
                "forecast",
                {"kstar_grid": [24.5], "horizon": 5},
                "kstar_grid entry must be an integer, got 24.5",
            ),
            (
                "forecast",
                {"kstar_grid": [24], "horizon": [5]},
                r"horizon must be an integer, got \[5\]",
            ),
            ("sweep-k", [], "must be mappings"),
            (
                "forecast",
                {"kstar_grid": [24], "horizon": 5, "horizn": 50},
                "sweep_args.horizn is not an argument of forecast",
            ),
            ("sweep-k", {"h_grid": [0.5]}, "sweep_args.h_grid is not an argument"),
            ("sweep-gap", {"h_grid": []}, "sweep_args.h_grid must not be empty$"),
        ],
    )
    def test_malformed_manifest_grids_rejected(
        self, tmp_path, sweep, sweep_args, match
    ):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "sweep": sweep,
                    "config": config_to_dict(small_config()),
                    "sweep_args": sweep_args,
                }
            )
        )
        with pytest.raises(ConfigError, match=match):
            replay_manifest(path)
        with pytest.raises(ConfigError, match=match):
            load_config(path)

    def test_manifest_records_and_checks_input_hashes(self, tmp_path):
        hfile = tmp_path / "h.txt"
        hfile.write_text(format_pauli_sum(build_tfim(3, 1.0, 1.0)) + "\n")
        config = small_config(tfim_qubits=None, hamiltonian_file=str(hfile), trials=1)
        emit_outputs(run_convergence_sweep(config), tmp_path / "a")
        manifest = tmp_path / "a" / "sweep-k_manifest.json"
        recorded = json.loads(manifest.read_text())["input_sha256"]
        digest = hashlib.sha256(hfile.read_bytes()).hexdigest()
        assert recorded == {"hamiltonian_file": digest}
        emit_outputs(replay_manifest(manifest), tmp_path / "b")
        for name in ("sweep-k_results.csv", "sweep-k_manifest.json"):
            replayed = (tmp_path / "b" / name).read_bytes()
            assert replayed == (tmp_path / "a" / name).read_bytes()
        hfile.write_text(hfile.read_text().replace("1.0 ", "1.5 ", 1))
        with pytest.raises(ConfigError, match="hamiltonian_file .* does not match"):
            replay_manifest(manifest)
        with pytest.raises(ConfigError, match="does not match the sha256"):
            load_config(manifest)
        hfile.unlink()
        with pytest.raises(ConfigError, match="does not match the sha256"):
            replay_manifest(manifest)


def register_shot_kind(monkeypatch):
    """Register a shot-count sweep in :data:`SWEEP_KINDS` only, for the
    test; returns its name."""
    kind = harness.SweepKind(
        lambda n: {"shadow_samples": int(n)}, {"n_grid": tuple[int, ...]}, "shots N",
        "error versus shot count",
    )
    monkeypatch.setitem(harness.SWEEP_KINDS, "sweep-shots", kind)
    return "sweep-shots"


# Bases of the per-field guard, as overrides of small_config: a 4-qubit
# one-particle hopping chain from a file, that chain probed through an
# observable file, and the shadow source.
_FILE_BASE = {
    "tfim_qubits": None, "hamiltonian_file": "hop.txt",
    "reference_bitstrings": ("1000", "0100"),
}
_EXPLICIT_BASE = {**_FILE_BASE, "observable_policy": "explicit", "observable_file": "obs.txt"}
_SHADOW_BASE = {"signal_source": "shadow", "shadow_samples": 10}

# One valid alternative per ExperimentConfig field: the base the guard
# starts from, and what the changed point sets (the field, with what keeps
# it valid). The files are copies, so their points differ in name alone.
FIELD_ALTERNATIVES = {
    "tfim_qubits": ({}, {"tfim_qubits": 4, "reference_bitstrings": ("0000", "1000")}),
    "tfim_coupling": ({}, {"tfim_coupling": 0.5}),
    "tfim_field": ({}, {"tfim_field": 0.7}),
    "hamiltonian_file": (_FILE_BASE, {"hamiltonian_file": "hop_copy.txt"}),
    "particle_number": (_FILE_BASE, {"particle_number": 1}),
    "reference_bitstrings": ({}, {"reference_bitstrings": ("000",)}),
    "observable_policy": ({}, {"observable_policy": "hamiltonian-partial-sums"}),
    "n_observables": ({}, {"n_observables": 3}),
    "observable_file": (_EXPLICIT_BASE, {"observable_file": "obs_copy.txt"}),
    "dt": ({}, {"dt": 0.5}),
    "k_grid": ({}, {"k_grid": (24,)}),
    "k_over_d": ({}, {"k_over_d": 2.5}),
    "svd_threshold": ({}, {"svd_threshold": None}),
    "noise_epsilon": ({}, {"noise_epsilon": 1e-6}),
    "signal_source": ({}, _SHADOW_BASE),
    "shadow_samples": (_SHADOW_BASE, {"shadow_samples": 20}),
    "trials": ({}, {"trials": 3}),
    "master_seed": ({}, {"master_seed": 6}),
    "n_eig": ({}, {"n_eig": 3}),
    "magnitude_floor": ({}, {"magnitude_floor": 0.3}),
    "safety_fraction": ({}, {"safety_fraction": 0.8}),
    "output_dir": ({}, {"output_dir": "elsewhere"}),
    "workers": ({}, {"workers": 2}),
}


def register_field_kind(monkeypatch, changed):
    """Register a kind whose grid value 1 sets ``changed`` and 0 sets
    nothing, for the test; returns its name."""
    kind = harness.SweepKind(lambda v: changed if v else {}, {"v_grid": tuple[int, ...]}, "v", "v")
    monkeypatch.setitem(harness.SWEEP_KINDS, "sweep-field", kind)
    return "sweep-field"


@pytest.fixture
def field_files(tmp_path, monkeypatch):
    """Work in ``tmp_path``, which holds the files the guard's bases name."""
    monkeypatch.chdir(tmp_path)
    for stem in ("hop", "hop_copy"):
        Path(f"{stem}.txt").write_text(hopping_chain(4))
    for stem in ("obs", "obs_copy"):
        Path(f"{stem}.txt").write_text("0.5 XXII\n0.5 YYII\n\n1.0 ZIII\n")


def assert_same_problem(a, b):
    """Every :class:`Problem` field equal, the exact signals included."""
    for name in (f.name for f in dataclasses.fields(harness.Problem)):
        left, right = getattr(a, name), getattr(b, name)
        if name == "signals":
            assert left.keys() == right.keys()
            for key in left:
                np.testing.assert_array_equal(left[key], right[key])
        elif isinstance(left, np.ndarray):
            np.testing.assert_array_equal(left, right)
        else:
            assert left == right, name


class TestSweepKinds:
    def test_every_point_is_resolved_before_the_first_cell(self, monkeypatch):
        """A point that shares the first point's problem still meets
        the shot-block cap before any cell runs."""
        kind = register_shot_kind(monkeypatch)
        monkeypatch.setattr(pauli, "_physical_memory_bytes", lambda: 10**7)
        cells = []
        cell = harness._cell
        monkeypatch.setattr(harness, "_cell", lambda *a: cells.append(a[2]) or cell(*a))
        config = small_config(trials=1, signal_source="shadow", shadow_samples=10)
        with pytest.raises(ResourceCapError, match="5000 shots of 2 observables"):
            harness._run_sweep(kind, config, n_grid=[10, 5000])
        assert cells == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_kind_that_sets_dt_runs_each_point_on_its_own_problem(
        self, monkeypatch, workers
    ):
        """A kind that sets ``dt``, one :data:`SWEEP_KINDS` entry, gives each
        point the rows that a one-point sweep at its value gives. The policy
        is deterministic and the signals noiseless, so rows do not depend on
        the point-indexed seeds."""
        kind = harness.SweepKind(lambda v: {"dt": v}, {"dt_grid": tuple[float, ...]}, "dt", "dt")
        monkeypatch.setitem(harness.SWEEP_KINDS, "sweep-dt", kind)
        built = []

        def counting_build_problem(*args, **kwargs):
            built.append(args[0].dt)
            return build_problem(*args, **kwargs)

        monkeypatch.setattr(harness, "build_problem", counting_build_problem)
        config = small_config(
            tfim_qubits=4, reference_bitstrings=("0000", "1000"), trials=1,
            observable_policy="hamiltonian-partial-sums", noise_epsilon=0.0,
            workers=workers,
        )
        swept = harness._run_sweep("sweep-dt", config, dt_grid=[1.0, 0.5])
        if workers == 1:
            assert built == [1.0, 0.5]  # one problem per point
        for index, dt in enumerate((1.0, 0.5)):
            alone = harness._run_sweep("sweep-dt", config, dt_grid=[dt])
            assert swept.exact_energies[index] == alone.exact_energies[0]
            rows = [r for r in swept.rows if r.point_index == index]
            assert len(rows) == len(alone.rows) == 2
            for row, single in zip(rows, alone.rows):
                assert dataclasses.replace(row, point_index=0, wall_time_s=0.0) == (
                    dataclasses.replace(single, wall_time_s=0.0)
                )

    @pytest.mark.parametrize("name", sorted(FIELD_ALTERNATIVES))
    def test_points_with_equal_inputs_share_equal_problems(
        self, name, field_files, monkeypatch
    ):
        """For every configuration field, a point with that field changed
        shares the base point's problem (``plan.problems``) only if the two
        build equal problems; a field that :func:`build_problem` reads but
        the plan's key misses fails here."""
        base, changed = FIELD_ALTERNATIVES[name]
        assert name in changed
        kind = register_field_kind(monkeypatch, changed)
        plan = harness._plan(kind, small_config(**base), [0, 1])
        assert plan.problems in ((0, 0), (0, 1))
        if plan.problems == (0, 0):
            assert_same_problem(*(build_problem(c, 40) for c in plan.configs))

    @pytest.mark.parametrize("name", sorted(FIELD_ALTERNATIVES))
    def test_a_point_reads_only_its_own_configuration(
        self, name, field_files, monkeypatch
    ):
        """For every configuration field, a point that sets it gets, field
        by field, the rows (``wall_time_s`` aside) and reference levels of
        the same point in a sweep whose base already holds the change: no
        cell or level reads a value of the base that the point overrode."""
        base, changed = FIELD_ALTERNATIVES[name]
        kind = register_field_kind(monkeypatch, changed)
        swept, held = (
            harness._run_sweep(kind, small_config(**config), v_grid=[0, 1])
            for config in (base, {**base, **changed})
        )
        assert swept.exact_energies[1] == held.exact_energies[1]

        def point_1(result):
            rows = [r for r in result.rows if r.point_index == 1]
            return [dataclasses.replace(r, wall_time_s=0.0) for r in rows]

        assert point_1(swept) == point_1(held)

    def test_a_kind_that_sets_n_eig_pads_the_levels_a_point_lacks(
        self, tmp_path, monkeypatch
    ):
        """The results table is as wide as the largest level count: a point
        with fewer levels leaves the rest of its cells empty and a gap in
        those levels' plots, and its manifest replays byte for byte."""
        kind = harness.SweepKind(lambda n: {"n_eig": int(n)}, {"n_grid": tuple[int, ...]}, "n", "n")
        monkeypatch.setitem(harness.SWEEP_KINDS, "sweep-levels", kind)
        result = harness._run_sweep("sweep-levels", small_config(), n_grid=[1, 3])
        written = emit_outputs(result, tmp_path / "a")
        assert [len(e) for e in result.exact_energies] == [1, 3]
        suffixes = ["results.csv", "timing.csv", "schema.txt", "manifest.json"]
        suffixes += [f"level_{level}.svg" for level in range(3)]
        assert [p.name for p in written] == [f"sweep-levels_{s}" for s in suffixes]
        with (tmp_path / "a" / "sweep-levels_results.csv").open() as fh:
            table = list(csv.DictReader(fh))
        levels = [c for c in table[0] if c.startswith(("energy_", "abs_error_"))]
        assert levels == [f"{c}_{i}" for c in ("energy", "abs_error") for i in range(3)]
        for row in table:
            lacking = ("energy_1", "energy_2", "abs_error_1", "abs_error_2")
            assert all(row[c] == "" for c in lacking) == (row["point_index"] == "0")
        svg = (tmp_path / "a" / "sweep-levels_level_2.svg").read_text()
        lines = re.findall(r'polyline points="([^"]*)"', svg)
        assert len(lines) == 2 and all(len(line.split()) == 1 for line in lines)
        manifest = tmp_path / "a" / "sweep-levels_manifest.json"
        emit_outputs(replay_manifest(manifest), tmp_path / "b")
        for path in written:
            if not path.name.endswith("timing.csv"):
                assert (tmp_path / "b" / path.name).read_bytes() == path.read_bytes()

    def test_a_tfim_parameter_on_a_file_source_is_refused_before_any_cell(
        self, tmp_path, monkeypatch
    ):
        """A point that sets the coupling of a Hamiltonian read from a file
        would run the file's operator at every point; it is refused."""
        kind = harness.SweepKind(lambda J: {"tfim_coupling": J}, {"j_grid": tuple[float, ...]}, "J", "J")
        monkeypatch.setitem(harness.SWEEP_KINDS, "sweep-coupling", kind)

        def no_cells(plan, workers):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(harness, "_run_plan", no_cells)
        hfile = tmp_path / "h.txt"
        hfile.write_text(format_pauli_sum(build_tfim(3, 1.0, 1.0)) + "\n")
        config = small_config(tfim_qubits=None, hamiltonian_file=str(hfile))
        with pytest.raises(ConfigError, match="sweep-coupling sets a TFIM parameter"):
            harness._run_sweep("sweep-coupling", config, j_grid=[0.5, 2.0])

    def test_every_field_has_an_alternative(self):
        """A new configuration field must be classified by the guard above."""
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert set(FIELD_ALTERNATIVES) == fields


class TestCli:
    def test_validate_config(self, tmp_path, capsys):
        path = write_config_file(tmp_path / "cfg.json")
        assert main(["validate-config", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "configuration valid" in out
        assert "qubits: 3" in out
        assert "0.5555555555555556" in out  # derived dt for the default envelope

    def test_validate_config_auto_threshold(self, tmp_path, capsys):
        path = write_config_file(tmp_path / "cfg.json")
        rc = main(["validate-config", "--config", str(path), "--svd-threshold", "auto"])
        assert rc == EXIT_OK
        assert "1e-07" in capsys.readouterr().out  # ten times noise_epsilon

    def test_flag_overrides_config_file(self, tmp_path, capsys):
        path = write_config_file(tmp_path / "cfg.json")
        rc = main(["validate-config", "--config", str(path), "--dt", "0.25"])
        assert rc == EXIT_OK
        assert "dt: 0.25" in capsys.readouterr().out

    def test_solve(self, tmp_path, capsys):
        path = write_config_file(tmp_path / "cfg.json", noise_epsilon=0.0)
        assert main(["solve", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "modmd: energies [" in out
        assert "odmd: energies [" in out
        assert "rank" in out

    def test_config_error_exit_code(self, capsys):
        assert main(["validate-config", "--tfim-qubits", "3"]) == EXIT_CONFIG
        assert "error:" in capsys.readouterr().err

    def test_bad_threshold_exit_code(self, tmp_path, capsys):
        path = write_config_file(tmp_path / "cfg.json")
        rc = main(["solve", "--config", str(path), "--svd-threshold", "lots"])
        assert rc == EXIT_CONFIG
        assert "expects a number or 'auto'" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "h.txt"
        bad.write_text("1.0\n")
        rc = main(
            ["validate-config", "--hamiltonian-file", str(bad), "--reference", "000"]
        )
        assert rc == EXIT_CONFIG
        assert "line 1" in capsys.readouterr().err

    def test_resource_cap_exit_code(self, monkeypatch, tmp_path, capsys):
        def no_allocation(*args, **kwargs):
            raise AssertionError("allocated a dense matrix above the cap")

        # 14 qubits: a 4.3 GB matrix and as large an eigenbasis
        monkeypatch.setattr(pauli, "_physical_memory_bytes", lambda: int(7.8e9))
        monkeypatch.setattr(pauli.np, "zeros", no_allocation)
        out = tmp_path / "out"
        for verb in ("validate-config", "solve", "sweep-k"):
            argv = [verb, "--tfim-qubits", "14", "--reference", "0" * 14]
            assert main(argv + ["--output-dir", str(out)]) == EXIT_RESOURCE, verb
            err = capsys.readouterr().err
            assert "GB of physical memory" in err and err.count("\n") == 1
            assert not out.exists()

    def test_shortfall_exit_code(self, tmp_path, capsys):
        path = write_config_file(tmp_path / "cfg.json")
        rc = main(["solve", "--config", str(path), "--svd-threshold", "0.9999999"])
        assert rc == EXIT_SHORTFALL
        err = capsys.readouterr().err
        assert "survived" in err
        assert "solve point" in err

    @pytest.mark.parametrize(
        "error",
        [
            EigenvalueShortfallError(4, np.array([0.5j]), np.array([-1.0]), "cell 3"),
            PauliParseError(2, "bad coefficient 'x'"),
        ],
        ids=["shortfall", "parse"],
    )
    def test_errors_survive_pickle_round_trip(self, error):
        """A worker process's error reaches the parent intact."""
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        assert vars(copy).keys() == vars(error).keys()

    def test_shortfall_exit_code_with_workers(self, tmp_path, capsys):
        path = write_config_file(
            tmp_path / "cfg.json", trials=1, output_dir=str(tmp_path / "out")
        )
        argv = ["sweep-k", "--config", str(path), "--svd-threshold", "0.9999999"]
        assert main(argv + ["--workers", "2"]) == EXIT_SHORTFALL
        err = capsys.readouterr().err
        assert err.startswith("error: requested 2 eigenvalues") and err.count("\n") == 1
        assert "sweep-k point 16.0, trial 0, modmd" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_malformed_observable_file_exit_code(self, workers, tmp_path, capsys):
        obs = tmp_path / "obs.txt"
        obs.write_text("1.0 ZII\n\n0.5 IXI\n-0.5 QQQ\n")
        path = write_config_file(
            tmp_path / "cfg.json",
            trials=1,
            observable_policy="explicit",
            observable_file=str(obs),
            output_dir=str(tmp_path / "out" / "nested"),
            workers=workers,
        )
        assert main(["sweep-k", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: line 2: ")
        assert not (tmp_path / "out").exists()

    def test_failed_sweep_keeps_an_existing_directory(self, tmp_path, capsys):
        (tmp_path / "out").mkdir()
        path = write_config_file(
            tmp_path / "cfg.json", trials=1, output_dir=str(tmp_path / "out" / "run")
        )
        argv = ["sweep-gap", "--config", str(path), "--h-grid", "nan"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: sweep_args.h_grid entry must be finite, got nan\n"
        assert (tmp_path / "out").is_dir()
        assert not (tmp_path / "out" / "run").exists()

    def test_sweep_k_writes_outputs(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "out"))
        path = write_config_file(tmp_path / "cfg.json", trials=1)
        assert main(["sweep-k", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.count("wrote") == 6
        assert (tmp_path / "out" / "sweep-k_results.csv").is_file()

    def test_unwritable_output_dir_exits_before_sweep(self, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory\n")
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(blocker / "out"))
        calls = []
        monkeypatch.setattr("modmd.cli._run_sweep", lambda *a, **k: calls.append(a))
        path = write_config_file(tmp_path / "cfg.json", trials=1)
        assert main(["sweep-k", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory")
        assert err.count("\n") == 1
        assert calls == []

    def test_emit_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        def failing_emit(result, directory):
            raise OSError(f"cannot write outputs under {directory}: disk full")

        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "out"))
        monkeypatch.setattr("modmd.cli.emit_outputs", failing_emit)
        path = write_config_file(tmp_path / "cfg.json", trials=1)
        assert main(["sweep-k", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: cannot write outputs under {tmp_path / 'out'}: disk full\n"

    def test_unwritable_output_file_exit_code(self, tmp_path, capsys):
        out = tmp_path / "out"
        (out / "sweep-k_results.csv").mkdir(parents=True)
        path = write_config_file(tmp_path / "cfg.json", trials=1, output_dir=str(out))
        assert main(["sweep-k", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write outputs under {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "field,value",
        [
            ("trials", 1.5),
            ("workers", 1.5),
            ("k_grid", [10.7]),
            ("reference_bitstrings", [1000]),
        ],
    )
    def test_mistyped_config_field_exits_before_output_dir(
        self, field, value, tmp_path, capsys
    ):
        data = config_to_dict(small_config(output_dir=str(tmp_path / "out")))
        data[field] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        assert main(["sweep-k", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "reference, hamiltonian, message",
        [
            ("00a0", None, "reference bitstring '00a0' does not address 4 qubits"),
            ("000", None, "reference bitstring '000' does not address 4 qubits"),
            ("0000", "1.0 ZIII\nnan XIII\n", "line 2: bad coefficient 'nan'"),
            ("0000", "1e308 ZIII\n1e308 ZIII\n", f"{ONE_NORM}, got inf"),
            ("0000", "1e308 ZIII\n1e308 XIII\n", f"{ONE_NORM}, got inf"),
            ("0000", "0.0 ZIII\n", f"{ONE_NORM}, got 0.0"),
        ],
        ids=[
            "bad-character",
            "too-short",
            "nan-coefficient",
            "merged-overflow",
            "one-norm-overflow",
            "zero-operator",
        ],
    )
    def test_bad_model_exits_before_output_dir(
        self, reference, hamiltonian, message, tmp_path, capsys
    ):
        model = {"tfim_qubits": 4}
        if hamiltonian is not None:
            (tmp_path / "h.txt").write_text(hamiltonian)
            model = {"tfim_qubits": None, "hamiltonian_file": str(tmp_path / "h.txt")}
        path = write_config_file(
            tmp_path / "cfg.json",
            reference_bitstrings=(reference,),
            output_dir=str(tmp_path / "out"),
            **model,
        )
        assert main(["sweep-k", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()
        assert main(["validate-config", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sweep-gap", "--h-grid", "0.5,nan"], "sweep_args.h_grid entry must be finite, got nan"),
            (["sweep-k", "--tfim-field", "inf"], "tfim_field must be finite, got inf"),
            (["solve", "--dt", "inf"], "dt must be finite, got inf"),
            (["sweep-k", "--k-over-d", "inf"], "k_over_d must be finite, got inf"),
        ],
        ids=["h-grid-nan", "tfim-field-inf", "dt-inf", "k-over-d-inf"],
    )
    def test_non_finite_field_exit_code(self, argv, message, tmp_path, capsys):
        path = write_config_file(
            tmp_path / "cfg.json", trials=1, output_dir=str(tmp_path / "out")
        )
        assert main(argv[:1] + ["--config", str(path)] + argv[1:]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                "sweep-noise --tfim-qubits 4 --reference 0000 --reference 1111 "
                "--k-grid 20 --trials 1 --n-eig 2 --svd-threshold auto "
                "--eps-grid 0.001,0.1",
                "svd_threshold null derives a cutoff of 10 * noise_epsilon",
            ),
            (
                "sweep-k --tfim-qubits 4 --reference 0000 --k-grid 20 --trials 1 "
                "--svd-threshold auto --noise-epsilon 0.2",
                "svd_threshold null derives a cutoff of 10 * noise_epsilon",
            ),
            (
                "solve --tfim-qubits 4 --reference 0000 --k-grid 20 "
                "--svd-threshold auto --noise-epsilon 0.2",
                "svd_threshold null derives a cutoff of 10 * noise_epsilon",
            ),
            (
                "validate-config --tfim-qubits 4 --reference 0000 "
                "--svd-threshold auto --noise-epsilon 0.2",
                "svd_threshold null derives a cutoff of 10 * noise_epsilon",
            ),
            (
                "sweep-k --tfim-qubits 2 --reference 00 --reference 11 "
                "--n-observables 6 --k-grid 40 --trials 2 --n-eig 5 "
                "--noise-epsilon 0 --svd-threshold 1e-6",
                "the spectrum holds only 4 levels, need 5",
            ),
            (
                "validate-config --tfim-qubits 2 --reference 00 --n-eig 5",
                "the spectrum holds only 4 levels, need 5",
            ),
            (
                "sweep-gap --tfim-qubits 4 --reference 0000 --k-grid 20 --trials 1 "
                "--tfim-coupling 0 --h-grid 1,0",
                "tfim_coupling and tfim_field cannot both be zero",
            ),
        ],
        ids=[
            "noise-grid-auto", "sweep-k-auto", "solve-auto", "validate-auto", "n-eig",
            "validate-n-eig", "gap-grid-zero-couplings",
        ],
    )
    def test_impossible_run_exits_before_output(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(argv.split() + ["--output-dir", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_non_conserving_sector_exit_code(self, workers, tmp_path, capsys):
        (tmp_path / "h.txt").write_text("1.0 XII\n0.5 ZZI\n")
        path = write_config_file(
            tmp_path / "cfg.json",
            tfim_qubits=None,
            hamiltonian_file=str(tmp_path / "h.txt"),
            particle_number=1,
            reference_bitstrings=("001",),
            workers=workers,
            output_dir=str(tmp_path / "out"),
        )
        assert main(["sweep-k", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: particle_number needs a number-conserving")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_validate_refuses_non_conserving_sector(self, tmp_path, capsys):
        (tmp_path / "h.txt").write_text("1.0 XII\n0.5 ZZI\n")
        argv = [
            "validate-config", "--hamiltonian-file", str(tmp_path / "h.txt"),
            "--particle-number", "1", "--reference", "001", "--n-eig", "2",
        ]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: particle_number needs a number-conserving")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["validate-config", "sweep-k"])
    @pytest.mark.parametrize(
        "yy, conserving", [(0.5, True), (-0.5, False), (0.0, False)],
        ids=["xx+yy", "xx-yy", "xx"],
    )
    def test_conservation_is_checked_across_terms(
        self, verb, yy, conserving, tmp_path, capsys
    ):
        """XX and YY each move a particle pair in or out of the sector, and
        only in XX+YY do those amplitudes cancel."""
        hfile = tmp_path / "chain.txt"
        hfile.write_text(fielded_chain(4, yy))
        out = tmp_path / "out"
        argv = [
            verb, "--hamiltonian-file", str(hfile), "--particle-number", "2",
            "--reference", "1100", "--reference", "0011", "--n-eig", "2",
            "--k-grid", "16", "--trials", "1", "--output-dir", str(out),
        ]
        code = main(argv)
        err = capsys.readouterr().err
        if conserving:
            assert code == EXIT_OK and err == ""
        else:
            assert code == EXIT_CONFIG and not out.exists()
            assert err == (
                "error: particle_number needs a number-conserving Hamiltonian; "
                "this one couples sector 2 to others\n"
            )

    @pytest.mark.parametrize(
        "sector, code", [(7, EXIT_OK), (None, EXIT_RESOURCE)], ids=["sector", "full"]
    )
    def test_cap_counts_the_solved_dimension(
        self, sector, code, tmp_path, monkeypatch, capsys
    ):
        """On 7.8 GB a 14-qubit run is refused (2 x 4.3 GB), and its
        half-filled sector (3432 levels, 0.38 GB) passes; neither allocates
        a matrix to find out."""

        def no_allocation(*args, **kwargs):
            raise AssertionError("validate-config allocated a matrix")

        monkeypatch.setattr(pauli, "_physical_memory_bytes", lambda: int(7.8e9))
        monkeypatch.setattr(pauli.np, "zeros", no_allocation)
        hfile = tmp_path / "chain.txt"
        hfile.write_text(fielded_chain(14))
        argv = [
            "validate-config", "--hamiltonian-file", str(hfile),
            "--reference", "1" * 7 + "0" * 7,
        ]
        if sector is not None:
            argv += ["--particle-number", str(sector)]
        assert main(argv) == code
        if code == EXIT_RESOURCE:
            assert capsys.readouterr().err == (
                "error: a dense matrix and eigenbasis of dimension 16384 need 8.6 GB, "
                "more than the 7.8 GB of physical memory\n"
            )

    @pytest.mark.parametrize("n_qubits, code", [(20, EXIT_OK), (30, EXIT_RESOURCE)])
    def test_cap_counts_the_state_vectors(self, n_qubits, code, tmp_path, monkeypatch):
        """A one-particle chain builds its problem (n levels) without any
        ``2^n``-long vector. The dense oracle's ``phi0`` and ``phi_perp``
        span the whole register and sit behind its matrix's cap: on 100 TB
        20 qubits (a 35 TB matrix and basis) pass and both vectors are
        built, and at 30 qubits ``spec``, ``phi0`` and ``phi_perp`` are
        refused (the CLI's exit 3) before anything is built."""
        built = []

        def superposition(n_qubits, bitstrings):
            if n_qubits == 30:
                raise AssertionError("a 2^30-long vector was built")
            built.append(bitstrings)
            return build_reference_superposition(n_qubits, bitstrings)

        monkeypatch.setattr(pauli, "_physical_memory_bytes", lambda: int(1e14))
        monkeypatch.setattr(harness, "build_reference_superposition", superposition)
        hfile = tmp_path / "chain.txt"
        hfile.write_text(hopping_chain(n_qubits))
        reference = "1" + "0" * (n_qubits - 1)
        config = small_config(
            tfim_qubits=None, hamiltonian_file=str(hfile), particle_number=1,
            reference_bitstrings=(reference,),
        )
        problem = build_problem(config, 20)
        assert len(problem.exact_energies) == n_qubits
        assert len(problem.signals) == 3 * n_qubits + 1 and built == []
        if code == EXIT_RESOURCE:
            for name in ("spec", "phi0", "phi_perp"):
                with pytest.raises(ResourceCapError) as refused:
                    getattr(problem, name)
                assert str(refused.value) == (
                    "a dense matrix and eigenbasis of dimension 1073741824 need "
                    "36893488147.4 GB, more than the 100000.0 GB of physical memory"
                )
            return
        assert problem.phi0.n_qubits == problem.phi_perp.n_qubits == n_qubits
        assert built == [[reference], ["0" * n_qubits]]  # phi_perp: first state off phi0

    def test_register_wider_than_an_int64_index_refused(self, tmp_path, capsys):
        hfile = tmp_path / "chain.txt"
        hfile.write_text(hopping_chain(64))
        argv = [
            "validate-config", "--hamiltonian-file", str(hfile),
            "--reference", "1" + "0" * 63, "--particle-number", "1",
        ]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: 64 qubits do not fit an int64 basis index (at most 63)\n"
        )

    @pytest.mark.parametrize("source", ["exact+gaussian", "shadow"])
    @pytest.mark.parametrize("verb", ["sweep-k", "solve"])
    def test_runs_form_no_register_vector(self, verb, source, tmp_path, monkeypatch):
        """Neither source builds a ``2^n``-long probe state on a run's path:
        every way to form one (``PauliSum.apply``, the rank-two vectors, a
        reference superposition) fails here."""

        def forbidden(*args, **kwargs):
            raise AssertionError("a register-long vector was formed")

        monkeypatch.setattr(PauliSum, "apply", forbidden)
        monkeypatch.setattr(shadows, "build_gamma", forbidden)
        monkeypatch.setattr(harness, "build_reference_superposition", forbidden)
        monkeypatch.setattr(modmd.simulate, "build_reference_superposition", forbidden)
        argv = [
            verb, "--tfim-qubits", "3", "--reference", "000", "--reference", "110",
            "--k-grid", "16,24", "--trials", "1", "--n-eig", "2",
            "--output-dir", str(tmp_path / "out"),
        ]
        if source == "shadow":
            argv += ["--signal-source", "shadow", "--shadow-samples", "16"]
        assert main(argv) == EXIT_OK

    @pytest.mark.parametrize("source", ["exact+gaussian", "shadow"])
    def test_sector_run_holds_no_register_vector(self, source, tmp_path, monkeypatch, capsys):
        """A 30-qubit chain at N = 1 (30 levels) passes the cap whatever
        the 7.8 GB of memory, and ``solve`` runs on both sources: a run
        holds its probe states on the few states the reference reaches."""
        monkeypatch.setattr(pauli, "_physical_memory_bytes", lambda: int(7.8e9))
        hfile = tmp_path / "chain.txt"
        hfile.write_text(hopping_chain(30))
        argv = [
            "--hamiltonian-file", str(hfile), "--reference", "1" + "0" * 29,
            "--particle-number", "1", "--k-grid", "40", "--n-eig", "1",
            "--output-dir", str(tmp_path / "out"),
        ]
        if source == "shadow":
            argv += ["--signal-source", "shadow", "--shadow-samples", "8"]
        assert main(["validate-config", *argv]) == EXIT_OK
        assert main(["solve", *argv]) == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "verb, workers", [("sweep-k", 1), ("sweep-k", 2), ("solve", 1)]
    )
    def test_degenerate_signal_exit_code(self, verb, workers, tmp_path, capsys):
        """An all-zero observable gives an all-zero snapshot matrix, which has
        no pseudo-inverse: one error line, exit 2, and no output left."""
        obs = tmp_path / "obs.txt"
        obs.write_text("0.0 III\n")
        argv = [
            verb, "--tfim-qubits", "3", "--reference", "000",
            "--observable-policy", "explicit", "--observable-file", str(obs),
            "--n-observables", "1", "--noise-epsilon", "0", "--k-grid", "16",
            "--trials", "2", "--workers", str(workers),
            "--output-dir", str(tmp_path / "out" / "nested"),
        ]
        assert main(argv) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: all-zero matrix has no pseudo-inverse\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "verb", ["validate-config", "solve", "sweep-k", "forecast", "replay"]
    )
    def test_reference_outside_the_sector_exit_code(self, verb, workers, tmp_path, capsys):
        """A reference outside the particle sector has no weight on the
        sector's levels; every entry point refuses it before any output."""
        hfile = tmp_path / "h.txt"
        hfile.write_text(hopping_chain(4).replace("0.5", "1.0") + "0.3 ZIII\n")
        out = tmp_path / "out"
        if verb == "replay":
            config = config_to_dict(
                small_config(
                    tfim_qubits=None,
                    hamiltonian_file=str(hfile),
                    particle_number=2,
                    reference_bitstrings=("1100",),
                    workers=workers,
                    output_dir=str(out),
                )
            )
            config["reference_bitstrings"] = ["0000", "1000"]
            manifest = tmp_path / "m.json"
            manifest.write_text(
                json.dumps({"sweep": "sweep-k", "config": config, "sweep_args": {}})
            )
            argv = ["sweep-k", "--config", str(manifest)]
        else:
            argv = [
                verb, "--hamiltonian-file", str(hfile), "--particle-number", "2",
                "--reference", "0000", "--reference", "1000",
                "--workers", str(workers), "--output-dir", str(out),
            ]
            if verb == "forecast":
                argv += ["--kstar-grid", "20", "--horizon", "5"]
        assert main(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: reference bitstring '0000' lies outside particle sector 2\n"
        assert not out.exists()

    def test_unknown_manifest_sweep_arg_exit_code(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "sweep": "forecast",
                    "config": config_to_dict(small_config()),
                    "sweep_args": {"kstar_grid": [24], "horizon": 5, "horizn": 50},
                }
            )
        )
        assert main(["forecast", "--config", str(path)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == "error: sweep_args.horizn is not an argument of forecast\n"

    @pytest.mark.parametrize("source", ["exact+gaussian", "shadow"])
    def test_no_run_reads_the_dense_oracle(self, source, tmp_path, monkeypatch):
        """Every verb, and a replay of each sweep's manifest, runs on its
        problem's signals alone: with the dense oracle made to raise, each
        exits 0."""

        def no_oracle(problem):
            raise AssertionError("a run read the dense oracle")

        for name in ("spec", "phi0", "phi_perp"):
            monkeypatch.setattr(harness.Problem, name, property(no_oracle))
        shots = 64 if source == "shadow" else None
        path = write_config_file(
            tmp_path / "cfg.json", trials=1, workers=1, signal_source=source,
            shadow_samples=shots,
        )
        out = tmp_path / "out"
        runs = {
            "sweep-k": [],
            "sweep-gap": ["--h-grid", "0.9,1.1"],
            "sweep-noise": ["--eps-grid", "1e-8,1e-6"],
            "forecast": ["--kstar-grid", "24", "--horizon", "5"],
        }
        for kind, flags in runs.items():
            argv = [kind, "--config", str(path), "--output-dir", str(out / kind)]
            assert main(argv + flags) == EXIT_OK
            manifest = out / kind / f"{kind}_manifest.json"
            replay = [kind, "--config", str(manifest), "--output-dir", str(out / "replay")]
            assert main(replay) == EXIT_OK
        assert main(["solve", "--config", str(path)]) == EXIT_OK

    def test_every_sweep_kind_is_wired(self, tmp_path, monkeypatch):
        """A kind is its :data:`SWEEP_KINDS` entry alone: each kind, one
        registered here included, is a CLI verb taking its driver arguments
        that writes a manifest, which replays through the CLI and the
        library."""
        register_shot_kind(monkeypatch)
        monkeypatch.setattr(
            harness, "_run_plan", lambda plan, workers: ([], ((),) * len(plan.points))
        )
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "out"))
        path = write_config_file(
            tmp_path / "cfg.json", trials=1, signal_source="shadow", shadow_samples=10
        )
        for kind, declared in harness.SWEEP_KINDS.items():
            assert declared.x_label
            flags = []
            for name in declared.args:  # 2 is a valid grid entry and horizon
                flags += ["--" + name.replace("_", "-"), "2"]
            assert main([kind, "--config", str(path)] + flags) == EXIT_OK
            manifest = tmp_path / "out" / f"{kind}_manifest.json"
            assert json.loads(manifest.read_text())["sweep"] == kind
            assert main([kind, "--config", str(manifest)]) == EXIT_OK
            assert replay_manifest(manifest).sweep == kind

    def test_gap_sweep_of_a_file_source_exit_code(self, tmp_path, capsys):
        hfile = tmp_path / "h.txt"
        hfile.write_text(format_pauli_sum(build_tfim(3, 1.0, 1.0)) + "\n")
        out = tmp_path / "out"
        argv = ["sweep-gap", "--hamiltonian-file", str(hfile), "--reference", "000"]
        argv += ["--k-grid", "16", "--h-grid", "0.5,1", "--output-dir", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "sweep-gap sets a TFIM parameter" in capsys.readouterr().err
        assert not out.exists()

    def test_malformed_list_flag_exit_code(self, tmp_path, capsys):
        path = write_config_file(tmp_path / "cfg.json")
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep-k", "--config", str(path), "--k-grid", "10,x"])
        assert exit_info.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "expected comma-separated int values, got '10,x'" in err

    def test_sweep_gap_requires_grid(self, tmp_path, capsys):
        path = write_config_file(tmp_path / "cfg.json")
        assert main(["sweep-gap", "--config", str(path)]) == EXIT_CONFIG
        assert "--h-grid is required" in capsys.readouterr().err

    def test_malformed_manifest_grid_exit_code(self, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(
            json.dumps(
                {
                    "sweep": "sweep-gap",
                    "config": config_to_dict(small_config()),
                    "sweep_args": {"h_grid": 0.5},
                }
            )
        )
        assert main(["sweep-gap", "--config", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "error: sweep_args.h_grid must be a list\n"

    def test_edited_input_file_refused_exit_code(self, tmp_path, monkeypatch, capsys):
        hfile = tmp_path / "h.txt"
        hfile.write_text(format_pauli_sum(build_tfim(3, 1.0, 1.0)) + "\n")
        path = write_config_file(
            tmp_path / "cfg.json",
            tfim_qubits=None,
            hamiltonian_file=str(hfile),
            trials=1,
        )
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "out"))
        assert main(["sweep-k", "--config", str(path)]) == EXIT_OK
        manifest = tmp_path / "out" / "sweep-k_manifest.json"
        assert main(["sweep-k", "--config", str(manifest)]) == EXIT_OK
        hfile.write_text(hfile.read_text() + "0.25 ZII\n")
        capsys.readouterr()
        assert main(["sweep-k", "--config", str(manifest)]) == EXIT_CONFIG
        assert "refusing to replay" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb",
        ["sweep-k", "sweep-gap", "sweep-noise", "forecast", "solve", "validate-config"],
    )
    def test_every_field_and_sweep_arg_has_a_flag(self, verb):
        dests = vars(build_parser().parse_args([verb]))
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        kind = harness.SWEEP_KINDS.get(verb)
        extra = set(kind.args if kind else {}) | {"config", "verb", "handler"}
        assert set(dests) == names | extra

    @pytest.mark.parametrize(
        "verb, flags, values",
        [
            ("sweep-k", "", {}),
            ("sweep-gap", "--h-grid 0.5,1", {"h_grid": (0.5, 1.0)}),
            ("sweep-noise", "--eps-grid 0,1e-3", {"eps_grid": (0.0, 1e-3)}),
            (
                "forecast",
                "--kstar-grid 24,32 --horizon 5",
                {"kstar_grid": (24, 32), "horizon": 5},
            ),
            ("solve", "", {}),
            ("validate-config", "", {}),
        ],
    )
    def test_every_flag_parses_to_its_value(self, verb, flags, values):
        argv = (
            "--config c.json --tfim-qubits 4 --tfim-coupling 0.5 --tfim-field 2 "
            "--hamiltonian-file h.txt --particle-number 2 --reference 0011 "
            "--reference 0101 --observable-policy explicit --n-observables 3 "
            "--observable-file o.txt --dt 0.1 --k-grid 8,12 --k-over-d 3 "
            "--svd-threshold auto --noise-epsilon 0.01 --signal-source shadow "
            "--shadow-samples 100 --trials 2 --master-seed 7 --n-eig 2 "
            "--magnitude-floor 0.1 --safety-fraction 0.8 --output-dir out "
            "--workers 3 " + flags
        ).split()
        parsed = vars(build_parser().parse_args([verb] + argv))
        assert parsed.pop("handler") is not None
        expected = {
            "verb": verb,
            "config": "c.json",
            "tfim_qubits": 4,
            "tfim_coupling": 0.5,
            "tfim_field": 2.0,
            "hamiltonian_file": "h.txt",
            "particle_number": 2,
            "reference_bitstrings": ["0011", "0101"],
            "observable_policy": "explicit",
            "n_observables": 3,
            "observable_file": "o.txt",
            "dt": 0.1,
            "k_grid": (8, 12),
            "k_over_d": 3.0,
            "svd_threshold": "auto",
            "noise_epsilon": 0.01,
            "signal_source": "shadow",
            "shadow_samples": 100,
            "trials": 2,
            "master_seed": 7,
            "n_eig": 2,
            "magnitude_floor": 0.1,
            "safety_fraction": 0.8,
            "output_dir": "out",
            "workers": 3,
            **values,
        }
        assert parsed == expected
        # 2 == 2.0, so the types are compared through the reprs
        assert {k: repr(v) for k, v in parsed.items()} == {
            k: repr(v) for k, v in expected.items()
        }

    def test_forecast_with_flag_grids(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "out"))
        path = write_config_file(
            tmp_path / "cfg.json", trials=1, noise_epsilon=0.0, svd_threshold=None
        )
        rc = main(
            [
                "forecast",
                "--config",
                str(path),
                "--kstar-grid",
                "24",
                "--horizon",
                "5",
            ]
        )
        assert rc == EXIT_OK
        assert (tmp_path / "out" / "forecast_rmse.svg").is_file()

    def test_manifest_replay_is_bit_identical(self, tmp_path, monkeypatch, capsys):
        first = tmp_path / "a"
        second = tmp_path / "b"
        path = write_config_file(tmp_path / "cfg.json", svd_threshold=None)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(first))
        assert (
            main(["sweep-noise", "--config", str(path), "--eps-grid", "0,0.001"])
            == EXIT_OK
        )
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(second))
        rc = main(
            ["sweep-noise", "--config", str(first / "sweep-noise_manifest.json")]
        )
        assert rc == EXIT_OK
        compared = 0
        for file in sorted(first.iterdir()):
            if file.name.endswith("_timing.csv"):
                continue
            assert (second / file.name).read_bytes() == file.read_bytes()
            compared += 1
        assert compared >= 5


# Configurations a run refuses: the CLI flags, the exit code and the one
# error line every entry point prints.
_REFUSED = {
    "random-pool": (
        "--tfim-qubits 2 --reference 00 --reference 11 --n-observables 7",
        EXIT_CONFIG,
        "random-1-local offers 6 observables, not 7",
    ),
    "partial-sum-pool": (
        "--tfim-qubits 2 --reference 00 --reference 11 --n-observables 5 "
        "--observable-policy hamiltonian-partial-sums",
        EXIT_CONFIG,
        "hamiltonian-partial-sums offers 4 observables, not 5",
    ),
    "n-eig": (
        "--tfim-qubits 2 --reference 00 --n-eig 5",
        EXIT_CONFIG,
        "the spectrum holds only 4 levels, need 5",
    ),
    "sector": (
        "--hamiltonian-file {hfile} --particle-number 1 --reference 001 --n-eig 2",
        EXIT_CONFIG,
        "particle_number needs a number-conserving Hamiltonian; this one "
        "couples sector 1 to others",
    ),
    # physical memory reads 0.1 GB
    "shot-block": (
        "--tfim-qubits 4 --reference 0000 --signal-source shadow "
        "--shadow-samples 100000",
        EXIT_RESOURCE,
        "100000 shots of 6 observables need 0.8 GB per step block, more than "
        "the 0.1 GB of physical memory",
    ),
    "master-seed": (
        "--tfim-qubits 2 --reference 00 --master-seed -1",
        EXIT_CONFIG,
        "master_seed must be >= 0, got -1",
    ),
    "tfim-zero": (
        "--tfim-qubits 4 --reference 0000 --tfim-coupling 0 --tfim-field 0",
        EXIT_CONFIG,
        "tfim_coupling and tfim_field cannot both be zero",
    ),
    "policy": (
        "--tfim-qubits 2 --reference 00 --observable-policy bogus",
        EXIT_CONFIG,
        f"observable_policy must be one of {OBSERVABLE_POLICIES}, got 'bogus'",
    ),
    "source": (
        "--tfim-qubits 2 --reference 00 --signal-source bogus",
        EXIT_CONFIG,
        f"signal_source must be one of {harness.SIGNAL_SOURCES}, got 'bogus'",
    ),
}


# Inputs refused before any cell runs, as flags: {bad} names a file that
# holds the byte 0xff, {gap} a sweep-gap manifest whose h_grid holds nan.
# Each row's message is the start of the one error line.
_UNREADABLE = {
    "hamiltonian-file": ("--hamiltonian-file {bad} --reference 000", "cannot read {bad}: "),
    "observable-file": (
        "--tfim-qubits 2 --reference 00 --observable-policy explicit "
        "--n-observables 1 --observable-file {bad}",
        "cannot read {bad}: ",
    ),
    "config-file": ("--config {bad}", "cannot read {bad}: "),
    "tfim-qubits": (
        "--tfim-qubits 64 --reference 0",
        "64 qubits do not fit an int64 basis index (at most 63)",
    ),
    "h-grid": ("--config {gap}", "sweep_args.h_grid entry must be finite, got nan"),
}


class TestRefusalParity:
    """Every entry point resolves a configuration through the same checks."""

    @pytest.mark.parametrize("row", sorted(_UNREADABLE))
    def test_unreadable_input_exits_2_at_every_entry_point(self, row, tmp_path, capsys):
        flags, message = _UNREADABLE[row]
        bad, gap, out = tmp_path / "bad.txt", tmp_path / "gap.json", tmp_path / "out"
        bad.write_bytes(b"\xff\n")
        gap.write_text(json.dumps({
            "sweep": "sweep-gap",
            "config": config_to_dict(small_config()),
            "sweep_args": {"h_grid": [math.nan]},
        }))
        flags = flags.format(bad=bad, gap=gap).split() + [
            "--k-grid", "8", "--trials", "1", "--output-dir", str(out),
        ]
        message = message.format(bad=bad)
        # a replay of the flags as a manifest; a --config file is replayed
        args = build_parser().parse_args(["sweep-k"] + flags)
        replay = ["sweep-gap", "--config", str(args.config)]
        if not args.config:
            config = {
                name: getattr(args, name)
                for name in harness._FIELD_HINTS
                if getattr(args, name) is not None
            }
            manifest = tmp_path / "m.json"
            manifest.write_text(json.dumps({"sweep": "sweep-k", "config": config}))
            replay = ["sweep-k", "--config", str(manifest)]
        for argv in (["validate-config"] + flags, ["solve"] + flags, ["sweep-k"] + flags, replay):
            assert main(argv) == EXIT_CONFIG, argv[0]
            err = capsys.readouterr().err
            assert err.startswith(f"error: {message}") and err.count("\n") == 1, err
            assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("row", sorted(_REFUSED))
    def test_every_entry_point_refuses_alike(
        self, row, workers, tmp_path, monkeypatch, capsys
    ):
        flags, code, message = _REFUSED[row]
        (tmp_path / "h.txt").write_text("1.0 XII\n0.5 ZZI\n")
        out = tmp_path / "out"
        flags = flags.format(hfile=tmp_path / "h.txt").split() + [
            "--k-grid", "8", "--trials", "1", "--workers", str(workers),
            "--output-dir", str(out),
        ]
        monkeypatch.setattr(pauli, "_physical_memory_bytes", lambda: 10**8)
        # the flags as a manifest's config, which the replay checks
        args = build_parser().parse_args(["sweep-k"] + flags)
        config = {
            f.name: getattr(args, f.name)
            for f in dataclasses.fields(ExperimentConfig)
            if getattr(args, f.name) is not None
        }
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps({"sweep": "sweep-k", "config": config}))
        # validate-config first: it neither diagonalizes nor samples
        for argv in (
            ["validate-config"] + flags,
            ["solve"] + flags,
            ["sweep-k"] + flags,
            ["sweep-k", "--config", str(manifest)],
        ):
            assert main(argv) == code, argv[0]
            assert capsys.readouterr().err == f"error: {message}\n"
            assert not out.exists()

    def test_a_fit_window_beyond_memory_exits_3(self, monkeypatch, capsys):
        """On a 10-qubit chain probed by 6 observables and 7.8 GB of
        physical memory, K = 20000 (d = 8000) is refused: its stack alone
        is 7.7 GB and its Gram 3.2 GB. K = 500 passes."""
        monkeypatch.setattr(pauli, "_physical_memory_bytes", lambda: int(7.8e9))
        references = ["0" * 10, "1" * 10, "1" + "0" * 9, "0" * 5 + "1" * 5]
        argv = ["validate-config", "--tfim-qubits", "10", "--n-observables", "6"]
        argv += [arg for bits in references for arg in ("--reference", bits)]
        assert main(argv + ["--k-grid", "500"]) == EXIT_OK
        assert capsys.readouterr().out.startswith("configuration valid\n")
        assert main(argv + ["--k-grid", "500,20000"]) == EXIT_RESOURCE
        assert capsys.readouterr().err == (
            "error: a fit window of K=20000, d=8000 over 6 observables needs 23.7 GB, "
            "more than the 7.8 GB of physical memory\n"
        )

    @pytest.mark.parametrize(
        "kind, k_grid, args",
        [
            ("sweep-k", (16, 20000), {}),
            ("forecast", (16,), {"kstar_grid": (24, 30000), "horizon": 5}),
            ("solve", (20000, 16), None),
        ],
        ids=["sweep-k", "forecast", "solve"],
    )
    def test_every_fit_window_is_checked_before_any_cell(
        self, kind, k_grid, args, monkeypatch
    ):
        """A sweep checks each point's window, a forecast's k* split too,
        and ``solve`` its first K, before any problem is built."""

        def no_problem(*args, **kwargs):
            raise AssertionError("a problem was built")

        monkeypatch.setattr(harness, "build_problem", no_problem)
        monkeypatch.setattr(pauli, "_physical_memory_bytes", lambda: int(7.8e9))
        config = small_config(k_grid=k_grid, n_observables=6)
        with pytest.raises(ResourceCapError, match="^a fit window of K=20000, d=10000 "):
            if args is None:
                run_single_solve(config)
            else:
                harness._run_sweep(kind, config, **args)

    def test_validate_config_never_diagonalizes(self, tmp_path, monkeypatch, capsys):
        def no_eigensolve(*args, **kwargs):
            raise AssertionError("validate-config diagonalized")

        monkeypatch.setattr(harness, "diagonalize", no_eigensolve)
        path = write_config_file(tmp_path / "cfg.json")
        assert main(["validate-config", "--config", str(path)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("configuration valid\n")

    def test_validate_config_builds_no_matrix(self, monkeypatch, capsys):
        """Levels and the memory cap are counted from the register width."""

        def no_allocation(*args, **kwargs):
            raise AssertionError("validate-config allocated a dense matrix")

        # 13 qubits pass the cap on 7.8 GB of physical memory
        monkeypatch.setattr(pauli, "_physical_memory_bytes", lambda: int(7.8e9))
        monkeypatch.setattr(pauli.np, "zeros", no_allocation)
        argv = ["validate-config", "--tfim-qubits", "13", "--reference", "0" * 13]
        assert main(argv) == EXIT_OK
        assert capsys.readouterr().out.startswith("configuration valid\n")


class TestPublicApi:
    README = Path(__file__).resolve().parent.parent / "README.md"

    def readme_imports(self):
        blocks = re.findall(r"```python\n(.*?)```", self.README.read_text(), re.S)
        return [
            statement
            for block in blocks
            for statement in re.findall(r"^from modmd import \([^)]*\)", block, re.M)
        ]

    def test_readme_imports_resolve(self):
        statements = self.readme_imports()
        assert statements
        for statement in statements:
            exec(statement, {})
            names = re.findall(r"\w+", statement.split("(", 1)[1])
            assert set(names) <= set(modmd.__all__), statement

    def test_all_entries_resolve_once(self):
        assert len(modmd.__all__) == len(set(modmd.__all__))
        for name in modmd.__all__:
            assert hasattr(modmd, name), name


# Run in a fresh interpreter: imports modmd, runs every sweep verb and a
# solve through the CLI, and reports the modules the runs added, every scipy
# and concurrent.futures module loaded, and the OpenBLAS libraries mapped
# into the process.
_IMPORT_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import modmd
from modmd.cli import main

before = set(sys.modules)
codes = [
    main(["sweep-k", "--config", sys.argv[2]]),
    main(["sweep-gap", "--config", sys.argv[2], "--k-grid", "16", "--h-grid", "0.9,1.1"]),
    main(["sweep-noise", "--config", sys.argv[2], "--k-grid", "16", "--eps-grid", "1e-8,1e-6"]),
    main(["forecast", "--config", sys.argv[2], "--kstar-grid", "24", "--horizon", "5"]),
    main(["solve", "--config", sys.argv[2]]),
    main(["sweep-k", "--config", sys.argv[3]]),
    main([
        "sweep-k", "--config", sys.argv[3],
        "--observable-policy", "explicit", "--observable-file", sys.argv[4],
    ]),
    main(["sweep-k", "--config", sys.argv[5]]),
]
try:
    with open("/proc/self/maps") as maps:
        blas = sorted({
            line.split()[-1] for line in maps
            if "openblas" in line.rsplit("/", 1)[-1].lower()
        })
except OSError:
    blas = None
print(json.dumps({
    "codes": codes,
    "added": sorted(set(sys.modules) - before),
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
    "futures": sorted(m for m in sys.modules if m.startswith("concurrent.futures")),
    "blas": blas,
}))
"""


class TestImportGuard:
    def test_sweeps_load_no_scipy_and_no_new_modules(self, tmp_path):
        src = Path(modmd.__file__).resolve().parents[1]
        config = write_config_file(tmp_path / "cfg.json", trials=1, k_grid=(16, 24))
        # a one-particle sector of a hopping chain read from a file, probed by
        # the default policy and by an observable file, then replayed
        chain, observables = tmp_path / "chain.txt", tmp_path / "obs.txt"
        chain.write_text(hopping_chain(4))
        observables.write_text("0.5 XXII\n0.5 YYII\n\n1.0 ZIII\n")
        sector = write_config_file(
            tmp_path / "sector.json", tfim_qubits=None, hamiltonian_file=str(chain),
            particle_number=1, reference_bitstrings=("1000", "0100"), trials=1,
        )
        manifest = tmp_path / "out" / "sweep-k_manifest.json"
        env = dict(os.environ, **{OUTPUT_DIR_ENV: str(tmp_path / "out")})
        argv = [str(src), str(config), str(sector), str(observables), str(manifest)]
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads(proc.stdout.splitlines()[-1])
        assert report["codes"] == [EXIT_OK] * 8
        assert json.loads(manifest.read_text())["config"]["observable_file"] == str(observables)
        assert report["scipy"] == []
        assert report["added"] == []
        # every run is at one worker, so no process pool is imported
        assert report["futures"] == []
        if report["blas"] is not None:
            assert len(report["blas"]) <= 1, report["blas"]
