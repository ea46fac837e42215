"""Experiment configuration, parameter sweeps, and reproducible outputs."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import numbers
import os
import platform
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np
import numpy.random  # loaded lazily by numpy; keep its import out of timed sweeps

from . import __version__, pauli
from .errors import ConfigError, EigenvalueShortfallError, ResourceCapError
from .pauli import (
    PauliString,
    PauliSum,
    build_tfim,
    one_local_pool,
    parse_pauli_sum,
    partial_sum_observables,
    random_one_local,
    shift_and_scale,
    to_dense,
)
from .shadows import gaussian_noise_channel, shadow_signal
from .simulate import (
    MultiObservableSignal,
    SpectralDecomposition,
    StateVector,
    build_reference_superposition,
    diagonalize,
    exact_signal,
)
from .solver import (
    build_hankel,
    extract_eigen,
    fit_propagator,
    forecast,
    residual,
    select_time_step,
    truncated_pinv,
)

OBSERVABLE_POLICIES = (
    "identity-only",
    "random-1-local",
    "hamiltonian-partial-sums",
    "explicit",
)
SIGNAL_SOURCES = ("exact+gaussian", "shadow")


class SweepKind(NamedTuple):
    """Declaration of one sweep kind, which is also a CLI verb.

    ``point`` maps a grid value to the configuration fields it sets, so
    each grid point runs on its own validated configuration (a forecast's
    fit-window lengths set none). ``args`` are the driver arguments the
    manifest records in ``sweep_args`` (the CLI flag of each has the same
    name): a ``*_grid`` is a list of values of the given type (a kind
    without one sweeps ``k_grid``), anything else a single value.
    ``x_label`` and ``log_x`` describe the plots' x axis, ``help`` the verb.
    """

    point: "Callable[[float], dict]"
    args: dict
    x_label: str
    help: str
    log_x: bool = False


SWEEP_KINDS = {
    "sweep-k": SweepKind(
        lambda K: {"k_grid": (int(K),)}, {}, "snapshots K", "error versus snapshot count"
    ),
    "sweep-gap": SweepKind(
        lambda h: {"tfim_field": h}, {"h_grid": float}, "transverse field h",
        "error versus spectral gap at fixed K",
    ),
    "sweep-noise": SweepKind(
        lambda eps: {"noise_epsilon": eps}, {"eps_grid": float}, "noise level",
        "error versus noise level at fixed K", True,
    ),
    "forecast": SweepKind(
        lambda k_star: {}, {"kstar_grid": int, "horizon": int}, "fit-window length k*",
        "held-out signal prediction",
    ),
}

# Configuration fields naming input files; a manifest records their sha256
# so a replay can refuse inputs edited since the run.
_INPUT_FILE_FIELDS = ("hamiltonian_file", "observable_file")

OUTPUT_DIR_ENV = "MODMD_OUTPUT_DIR"

# Threshold floor so the derived 10*epsilon policy stays a valid relative
# cutoff when epsilon is zero.
AUTO_THRESHOLD_FLOOR = 1e-12

# Pseudo-random streams drawn per (point, trial). Keeping the multi- and
# single-observable pipelines on separate streams makes the baseline
# column reproducible on its own.
_STREAM_OBSERVABLES = 0
_STREAM_MODMD = 1
_STREAM_ODMD = 2

_METHODS = ("modmd", "odmd")

# Per-stage columns of *_timing.csv, in the order a cell runs them.
_EIGEN_STAGES = ("signal_s", "hankel_s", "pinv_s", "eig_s", "residual_s")
_FORECAST_STAGES = ("signal_s", "hankel_s", "pinv_s", "forecast_s")


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved description of one experiment family.

    The Hamiltonian comes either from transverse-field Ising parameters
    or from a Pauli-sum text file (exactly one of the two). All sweep
    drivers consume the same configuration; grids specific to one sweep
    (field values, noise levels, fit-window lengths) are passed to the
    driver directly and recorded in the run manifest. A grid value that
    sets a field (:data:`SWEEP_KINDS`) is validated like that field.
    """

    tfim_qubits: "int | None" = None
    tfim_coupling: float = 1.0
    tfim_field: float = 1.0
    hamiltonian_file: "str | None" = None
    particle_number: "int | None" = None
    reference_bitstrings: "tuple[str, ...]" = ()
    observable_policy: str = "random-1-local"
    n_observables: int = 6
    observable_file: "str | None" = None
    dt: "float | None" = None
    k_grid: "tuple[int, ...]" = (50, 125, 250, 375, 500)
    k_over_d: float = 2.5
    svd_threshold: "float | None" = 1e-2
    noise_epsilon: float = 1e-3
    signal_source: str = "exact+gaussian"
    shadow_samples: "int | None" = None
    trials: int = 20
    master_seed: int = 0
    n_eig: int = 4
    magnitude_floor: float = 0.2
    safety_fraction: float = 0.9
    output_dir: str = "results"
    workers: int = 1

    def __post_init__(self):
        _check_field_kinds(self)
        if (self.tfim_qubits is None) == (self.hamiltonian_file is None):
            raise ConfigError(
                "exactly one of tfim_qubits and hamiltonian_file must be set"
            )
        if self.tfim_qubits is not None and self.tfim_qubits < 2:
            raise ConfigError(f"tfim_qubits must be >= 2, got {self.tfim_qubits}")
        if self.tfim_qubits is not None and self.tfim_coupling == self.tfim_field == 0.0:
            raise ConfigError("tfim_coupling and tfim_field cannot both be zero")
        if self.hamiltonian_file is not None and not Path(self.hamiltonian_file).is_file():
            raise ConfigError(f"hamiltonian_file not found: {self.hamiltonian_file}")
        if self.particle_number is not None and self.particle_number < 0:
            raise ConfigError(
                f"particle_number must be >= 0, got {self.particle_number}"
            )
        if not self.reference_bitstrings:
            raise ConfigError("reference_bitstrings must not be empty")
        if len(set(self.reference_bitstrings)) != len(self.reference_bitstrings):
            raise ConfigError("reference_bitstrings contains duplicates")
        if self.particle_number is not None:
            for bits in self.reference_bitstrings:
                if bits.count("1") != self.particle_number:
                    raise ConfigError(
                        f"reference bitstring {bits!r} lies outside particle "
                        f"sector {self.particle_number}"
                    )
        if self.observable_policy not in OBSERVABLE_POLICIES:
            raise ConfigError(
                f"observable_policy must be one of {OBSERVABLE_POLICIES}, "
                f"got {self.observable_policy!r}"
            )
        if self.n_observables < 1:
            raise ConfigError(f"n_observables must be >= 1, got {self.n_observables}")
        if self.observable_policy == "identity-only" and self.n_observables != 1:
            raise ConfigError("identity-only policy fixes n_observables to 1")
        if (self.observable_policy == "explicit") != (self.observable_file is not None):
            raise ConfigError(
                "observable_file is required for (and only for) the explicit policy"
            )
        if self.observable_file is not None and not Path(self.observable_file).is_file():
            raise ConfigError(f"observable_file not found: {self.observable_file}")
        if self.dt is not None and not self.dt > 0:
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if not self.k_grid:
            raise ConfigError("k_grid must not be empty")
        if not self.k_over_d > 1.0:
            raise ConfigError(f"k_over_d must exceed 1, got {self.k_over_d}")
        for k in self.k_grid:
            if int(k) < 2:
                raise ConfigError(f"k_grid entry {k} is too small for K/d splitting")
        if self.svd_threshold is not None and not 0.0 < self.svd_threshold < 1.0:
            raise ConfigError(
                f"svd_threshold must lie in (0, 1) or be null, got {self.svd_threshold}"
            )
        if not self.noise_epsilon >= 0.0:
            raise ConfigError(
                f"noise_epsilon must be finite and >= 0, got {self.noise_epsilon}"
            )
        if self.svd_threshold is None and not 10.0 * self.noise_epsilon < 1.0:
            raise ConfigError(
                "svd_threshold null derives a cutoff of 10 * noise_epsilon, which "
                f"must lie below 1; got noise_epsilon {self.noise_epsilon}"
            )
        if self.signal_source not in SIGNAL_SOURCES:
            raise ConfigError(
                f"signal_source must be one of {SIGNAL_SOURCES}, "
                f"got {self.signal_source!r}"
            )
        if (self.signal_source == "shadow") != (self.shadow_samples is not None):
            raise ConfigError(
                "shadow_samples is required for (and only for) the shadow source"
            )
        if self.shadow_samples is not None and self.shadow_samples < 1:
            raise ConfigError(f"shadow_samples must be >= 1, got {self.shadow_samples}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if self.n_eig < 1:
            raise ConfigError(f"n_eig must be >= 1, got {self.n_eig}")
        if not 0.0 <= self.magnitude_floor < 1.0:
            raise ConfigError(
                f"magnitude_floor must lie in [0, 1), got {self.magnitude_floor}"
            )
        if not 0.0 < self.safety_fraction < 1.0:
            raise ConfigError(
                f"safety_fraction must lie in (0, 1), got {self.safety_fraction}"
            )
        if not self.output_dir:
            raise ConfigError("output_dir must not be empty")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")


_FIELD_KINDS = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    str: (str, "a string"),
}


def _check_field_kinds(config: ExperimentConfig) -> None:
    """Refuse a value of the wrong kind in a field annotated ``int``,
    ``float`` or ``str``, and in an entry of a ``tuple[...]`` field, before
    any value check: a boolean, string or fraction where a number is due (a
    JSON 1.5 would otherwise fail late or be truncated), a non-string where
    a string is, or a nan, an infinity or a number beyond the float range
    where a float is. ``None`` passes where annotated."""
    checks = []
    for name, hint in _FIELD_HINTS.items():
        value = getattr(config, name)
        if type(None) in get_args(hint):
            if value is None:
                continue
            hint = get_args(hint)[0]
        if get_origin(hint) is tuple:
            checks += [(f"{name} entry", get_args(hint)[0], entry) for entry in value]
        else:
            checks.append((name, hint, value))
    for name, hint, value in checks:
        kind, noun = _FIELD_KINDS[hint]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"{name} must be {noun}, got {value!r}")
        if hint is float and not abs(value) <= sys.float_info.max:
            raise ConfigError(f"{name} must be finite, got {value}")


# Read once: resolving the annotations costs more than the rest of a
# configuration's checks, and a sweep builds one configuration per point.
_FIELD_HINTS = get_type_hints(ExperimentConfig)
_CONFIG_FIELDS = set(_FIELD_HINTS)
_TUPLE_FIELDS = {name for name, h in _FIELD_HINTS.items() if get_origin(h) is tuple}


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a configuration from plain JSON-compatible data."""
    if not isinstance(data, dict):
        raise ConfigError(f"configuration must be a mapping, got {type(data).__name__}")
    unknown = sorted(set(data) - _CONFIG_FIELDS)
    if unknown:
        raise ConfigError(f"unknown configuration fields: {', '.join(unknown)}")
    kwargs = dict(data)
    for name in _TUPLE_FIELDS & set(kwargs):
        value = kwargs[name]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list")
        kwargs[name] = tuple(value)
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-compatible mirror of :func:`config_from_dict`."""
    out = dataclasses.asdict(config)
    for name in _TUPLE_FIELDS:
        out[name] = list(out[name])
    return out


def _sha256(path) -> "str | None":
    """Hex digest of a file's bytes, or ``None`` when it cannot be read."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except (OSError, TypeError):
        return None


def _driver_args(kind: str, args: dict) -> dict:
    """A sweep kind's driver arguments from a call or a manifest, as the
    manifest records them: a key the kind does not declare is refused, a
    ``*_grid`` is a non-empty list, each value is checked like a
    configuration field of its type, and an ``int`` is >= 1."""
    declared = SWEEP_KINDS[kind].args
    unknown = sorted(set(args) - set(declared))
    if unknown:
        raise ConfigError(f"sweep_args.{unknown[0]} is not an argument of {kind}")
    typed = {}
    for name, hint in declared.items():
        value = args.get(name)
        grid, listed = name.endswith("_grid"), isinstance(value, (list, tuple))
        values = value if listed else [value]
        number = _FIELD_KINDS[hint][0]
        if grid != listed or not values or any(
            isinstance(v, bool) or not isinstance(v, number) for v in values
        ):
            raise ConfigError(f"sweep_args.{name} is missing or malformed: {value!r}")
        if not grid and hint is int and value < 1:
            raise ConfigError(f"sweep_args.{name} must be >= 1, got {value}")
        typed[name] = [hint(v) for v in values] if grid else hint(value)
    return typed


def read_run_file(path: "str | Path") -> "tuple[dict, str | None, dict]":
    """Read a JSON configuration file or run manifest.

    Returns the configuration mapping, the sweep kind (``None`` for a plain
    configuration) and the manifest's driver arguments typed per
    :data:`SWEEP_KINDS`. A manifest is refused when an input file whose
    sha256 it recorded has changed since.
    """
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} is not a run manifest or a configuration mapping")
    if "config" not in data or "sweep" not in data:
        return data, None, {}
    config, sweep = data["config"], data["sweep"]
    args = data.get("sweep_args", {})
    recorded = data.get("input_sha256", {})
    if not all(isinstance(part, dict) for part in (config, args, recorded)):
        raise ConfigError(f"{path}: config, sweep_args, input_sha256 must be mappings")
    if not isinstance(sweep, str) or sweep not in SWEEP_KINDS:
        raise ConfigError(f"unknown sweep kind {sweep!r} in manifest")
    for name in _INPUT_FILE_FIELDS:
        if name in recorded and _sha256(config.get(name)) != recorded[name]:
            raise ConfigError(
                f"{name} {config.get(name)!r} does not match the sha256 recorded "
                f"in {path}; refusing to replay"
            )
    return config, sweep, _driver_args(sweep, args)


def load_config(path: "str | Path") -> ExperimentConfig:
    """Read a JSON configuration file.

    A run manifest is accepted too; its embedded ``config`` block is
    used so any sweep can be replayed from its own manifest.
    """
    return config_from_dict(read_run_file(path)[0])


def resolve_output_dir(config: ExperimentConfig) -> Path:
    """Output directory, honoring the environment override."""
    return Path(os.environ.get(OUTPUT_DIR_ENV) or config.output_dir)


def derive_seed(master_seed: int, point_index: int, trial: int, stream: int) -> int:
    """Deterministic child seed for one (grid point, trial, stream) cell."""
    seq = np.random.SeedSequence(master_seed, spawn_key=(point_index, trial, stream))
    return int(seq.generate_state(1)[0])


def depth_for_window(K: int, k_over_d: float) -> int:
    """Number of time shifts paired with ``K`` snapshots."""
    return max(1, round(K / k_over_d))


def split_fit_window(k_star: int, k_over_d: float) -> "tuple[int, int]":
    """Split a fit-window length ``k* = K + d`` into ``(d, K)``."""
    d = max(1, round(k_star / (k_over_d + 1.0)))
    if k_star - d < 1:
        raise ConfigError(f"fit window {k_star} is too short to split")
    return d, k_star - d


def threshold_for(config: ExperimentConfig) -> float:
    """Resolved SVD cutoff: explicit value, or ten times the noise level."""
    if config.svd_threshold is not None:
        return config.svd_threshold
    return max(10.0 * config.noise_epsilon, AUTO_THRESHOLD_FLOOR)


def identity_observable(n_qubits: int) -> PauliSum:
    return PauliSum(n_qubits, (1.0,), (PauliString.identity(n_qubits),))


@dataclass(frozen=True)
class Problem:
    """Resolved physical model shared by every cell of a sweep.

    ``observables`` is the policy's pool (see :func:`resolve_inputs`), which
    :func:`build_observables` draws from or returns. ``signals`` maps each
    of them, and the identity of the single-observable baseline, to its real
    exact signal, one row of the problem's ``k_max + 1`` samples; it is
    empty without ``k_max``.
    """

    n_qubits: int
    spec: SpectralDecomposition
    scale: float
    phi0: StateVector
    phi_perp: StateVector
    dt: float
    exact_energies: "tuple[float, ...]"
    observables: "tuple[PauliSum, ...]"
    signals: "dict[PauliSum, np.ndarray]" = field(default_factory=dict)


def _orthogonal_companion(phi0: StateVector) -> StateVector:
    """A deterministic unit state orthogonal to the reference.

    Gram-Schmidt residual of the first basis vector that is not parallel
    to the reference; for any unit state at least one of the first two
    basis vectors qualifies.
    """
    amps = phi0.amplitudes
    for j in range(len(amps)):
        residual_vec = -amps * np.conj(amps[j])
        residual_vec[j] += 1.0
        norm = np.linalg.norm(residual_vec)
        if norm > 1e-8:
            return StateVector(phi0.n_qubits, residual_vec / norm)
    raise ValueError("reference state spans the full register")  # pragma: no cover


def parse_observable_file(path: str, n_qubits: int, count: int) -> "tuple[PauliSum, ...]":
    """Blank-line-separated Pauli sums, one block per observable."""
    text = Path(path).read_text()
    blocks = [b for b in re.split(r"\n\s*\n", text) if b.strip()]
    if len(blocks) != count:
        raise ConfigError(
            f"observable file {path} provides {len(blocks)} observables, "
            f"configuration declares {count}"
        )
    out = []
    for block in blocks:
        psum = parse_pauli_sum(block)
        if psum.n_qubits != n_qubits:
            raise ConfigError(
                f"observable width {psum.n_qubits} does not match the "
                f"{n_qubits}-qubit Hamiltonian"
            )
        out.append(psum)
    return tuple(out)


def _sector_block(dense: np.ndarray, sector: int) -> np.ndarray:
    """The block of ``dense`` on the basis states holding ``sector`` ones.

    The number operator is diagonal in the computational basis, so that
    block is the sector's Hamiltonian when no entry couples it to the rest;
    otherwise the Hamiltonian does not conserve the number and is refused.
    """
    inside = np.array([i.bit_count() == sector for i in range(len(dense))])
    coupling = pauli._largest_magnitude(dense[np.ix_(inside, ~inside)])
    if coupling > 1e-12 * pauli._largest_magnitude(dense):
        raise ConfigError(
            "particle_number needs a number-conserving Hamiltonian; this one "
            f"couples sector {sector} to others"
        )
    return dense[np.ix_(inside, inside)]


def resolve_hamiltonian(config: ExperimentConfig) -> PauliSum:
    """Load the configured operator and validate reference addressing."""
    if config.tfim_qubits is not None:
        hamiltonian = build_tfim(
            config.tfim_qubits, config.tfim_coupling, config.tfim_field
        )
    else:
        hamiltonian = parse_pauli_sum(Path(config.hamiltonian_file).read_text())
    if not 0.0 < hamiltonian.weight_l1 < math.inf:
        raise ConfigError(
            "Hamiltonian coefficient 1-norm must be finite and nonzero, "
            f"got {hamiltonian.weight_l1}"
        )
    n_qubits = hamiltonian.n_qubits
    for bits in config.reference_bitstrings:
        if len(bits) != n_qubits or set(bits) - {"0", "1"}:
            raise ConfigError(
                f"reference bitstring {bits!r} does not address {n_qubits} qubits"
            )
    return hamiltonian


def resolve_time_step(config: ExperimentConfig) -> float:
    """Explicit step, or one derived from the rescaled spectral envelope."""
    if config.dt is not None:
        return config.dt
    envelope = config.safety_fraction * math.pi
    return select_time_step(-envelope, envelope)


def resolve_inputs(config: ExperimentConfig):
    """Everything ``config`` fixes short of the spectrum, checked as every
    run checks it: ``(shifted, scale, observables, dt)``.

    ``shifted`` is the rescaled Hamiltonian (``scale`` maps physical
    energies onto it) and ``observables`` the policy's pool: the 3n
    single-qubit Paulis a random policy draws from, or the fixed list of
    any other policy. Refused are a pool smaller than ``n_observables``, a
    shadow shot block or a dense matrix larger than physical memory, and a
    spectrum or particle sector of fewer than ``n_eig`` levels. Levels are
    counted from the register width; a matrix is built only to check that
    a particle sector's Hamiltonian conserves the number.
    """
    hamiltonian = resolve_hamiltonian(config)
    n_qubits, policy = hamiltonian.n_qubits, config.observable_policy
    count = config.n_observables
    if policy == "random-1-local":
        observables = one_local_pool(n_qubits)
    elif policy == "hamiltonian-partial-sums":
        offered = min(count, hamiltonian.num_terms + 1)
        observables = tuple(partial_sum_observables(hamiltonian, offered))
    elif policy == "explicit":
        observables = parse_observable_file(config.observable_file, n_qubits, count)
    else:
        observables = (identity_observable(n_qubits),)
    if len(observables) < count:
        raise ConfigError(f"{policy} offers {len(observables)} observables, not {count}")
    if config.shadow_samples is not None:
        # sample_shadows and _estimate_batch hold about four complex
        # (shots, 2^(n+1)) arrays at once in every time step.
        need = 4 * 16 * config.shadow_samples * 2 ** (n_qubits + 1)
        have = pauli._physical_memory_bytes()
        if need > have:
            raise ResourceCapError(
                f"a block of {config.shadow_samples} shots on {n_qubits} qubits "
                f"needs {need / 1e9:.1f} GB, more than the {have / 1e9:.1f} GB "
                "of physical memory"
            )
    shifted, scale = shift_and_scale(hamiltonian, config.safety_fraction)
    pauli._check_dense_memory(n_qubits)
    sector = config.particle_number
    count, where = 2**n_qubits, "the spectrum"
    if sector is not None:
        count, where = math.comb(n_qubits, sector), f"particle sector {sector}"
    if count < config.n_eig:
        raise ConfigError(f"{where} holds only {count} levels, need {config.n_eig}")
    if sector is not None:
        _sector_block(to_dense(shifted), sector)
    return shifted, scale, observables, resolve_time_step(config)


def build_problem(config: ExperimentConfig, k_max: "int | None" = None) -> Problem:
    """Diagonalize the (rescaled) Hamiltonian and resolve run-wide state.

    With ``k_max`` set, the problem carries the exact signal over
    ``k_max + 1`` samples of its observables and the identity, from one
    :func:`~modmd.simulate.exact_signal` call.
    """
    shifted, scale, observables, dt = resolve_inputs(config)
    n_qubits, sector = shifted.n_qubits, config.particle_number
    if sector is not None:
        levels = np.linalg.eigvalsh(_sector_block(to_dense(shifted), sector))
    spec = diagonalize(to_dense(shifted))  # held nowhere else: freed before the basis
    if sector is None:
        levels = spec.energies
    phi0 = build_reference_superposition(n_qubits, list(config.reference_bitstrings))
    signals = {}
    if k_max is not None:
        pool = list(dict.fromkeys(observables + (identity_observable(n_qubits),)))
        truth = exact_signal(spec, phi0, pool, dt, k_max, mode="real").values
        signals = dict(zip(pool, truth))
    return Problem(
        n_qubits=n_qubits,
        spec=spec,
        scale=scale,
        phi0=phi0,
        phi_perp=_orthogonal_companion(phi0),
        dt=dt,
        exact_energies=tuple(float(e) for e in levels / scale),
        observables=observables,
        signals=signals,
    )


def build_observables(
    config: ExperimentConfig, problem: Problem, seed: int
) -> "list[PauliSum]":
    """Observables of one cell: a random policy draws ``n_observables`` of
    ``problem.observables`` under ``seed``, any other returns them all."""
    if config.observable_policy == "random-1-local":
        return random_one_local(problem.n_qubits, config.n_observables, seed=seed)
    return list(problem.observables)


def measure_signal(
    config: ExperimentConfig,
    problem: Problem,
    observables: "list[PauliSum]",
    clean: MultiObservableSignal,
    seed: int,
) -> MultiObservableSignal:
    """Real-mode signal of ``observables`` from the configured source.

    ``clean`` is their exact signal: the Gaussian source adds noise of the
    configured level to it, and the shadow source estimates a signal over
    as many steps.
    """
    if clean.n_observables != len(observables):
        raise ValueError(
            f"clean signal holds {clean.n_observables} observables, "
            f"not {len(observables)}"
        )
    if config.signal_source == "shadow":
        return shadow_signal(
            problem.spec,
            problem.phi0,
            problem.phi_perp,
            observables,
            problem.dt,
            clean.n_steps - 1,
            config.shadow_samples,
            seed,
            mode="real",
        )
    return gaussian_noise_channel(clean, config.noise_epsilon, seed)


@dataclass(frozen=True)
class SweepRow:
    """One pipeline evaluation at one grid point and trial."""

    point_index: int
    point_value: float
    trial: int
    method: str
    energies: "tuple[float, ...]"
    abs_errors: "tuple[float, ...]"
    residual: float
    retained_rank: int
    wall_time_s: float
    # Seconds per *_timing.csv stage column; left out of row equality.
    stage_s: dict = field(compare=False)


@dataclass(frozen=True)
class AggregateRow:
    """Across-trial statistics for one grid point and method."""

    point_index: int
    point_value: float
    method: str
    n_trials: int
    mean_energies: "tuple[float, ...]"
    mean_errors: "tuple[float, ...]"
    std_errors: "tuple[float, ...]"
    mean_residual: float
    mean_rank: float


def _groups(points, rows):
    """``(index, value, method, rows)`` per grid point and method, in that
    order, for every pair that has rows."""
    for pi, point in enumerate(points):
        for method in _METHODS:
            group = [r for r in rows if r.point_index == pi and r.method == method]
            if group:
                yield pi, point, method, group


@dataclass(frozen=True)
class ForecastRow:
    """Held-out prediction quality for one fit window and trial."""

    point_index: int
    k_star: int
    trial: int
    method: str
    rmse: "tuple[float, ...]"
    rmse_mean: float
    wall_time_s: float
    # Seconds per *_timing.csv stage column; left out of row equality.
    stage_s: dict = field(compare=False)


class ForecastAggregate(NamedTuple):
    """Across-trial statistics of the observable-averaged RMSE for one fit
    window and method."""

    point_index: int
    point_value: float
    method: str
    n_trials: int
    mean_rmse: float
    std_rmse: float


def _eigen_aggregate(pi, point, method, group) -> AggregateRow:
    energies = np.array([g.energies for g in group])
    errors = np.array([g.abs_errors for g in group])
    return AggregateRow(
        point_index=pi,
        point_value=point,
        method=method,
        n_trials=len(group),
        mean_energies=tuple(map(float, energies.mean(axis=0))),
        mean_errors=tuple(map(float, errors.mean(axis=0))),
        std_errors=tuple(map(float, errors.std(axis=0))),
        mean_residual=float(np.mean([g.residual for g in group])),
        mean_rank=float(np.mean([g.retained_rank for g in group])),
    )


def _forecast_aggregate(pi, point, method, group) -> ForecastAggregate:
    vals = [r.rmse_mean for r in group]
    return ForecastAggregate(
        point_index=pi,
        point_value=point,
        method=method,
        n_trials=len(vals),
        mean_rmse=float(np.mean(vals)),
        std_rmse=float(np.std(vals)),
    )


@dataclass(frozen=True)
class SweepResult:
    """Raw rows plus provenance for one sweep of any kind, with the
    reference levels of each grid point's problem."""

    sweep: str
    config: ExperimentConfig
    points: "tuple[float, ...]"
    sweep_args: dict
    exact_energies: "tuple[tuple[float, ...], ...]"
    rows: "tuple[SweepRow | ForecastRow, ...]"

    def aggregates(self) -> "tuple[AggregateRow | ForecastAggregate, ...]":
        """Across-trial statistics per grid point and method."""
        forecast = self.sweep == "forecast"
        aggregate = _forecast_aggregate if forecast else _eigen_aggregate
        return tuple(aggregate(*g) for g in _groups(self.points, self.rows))


class _Laps:
    """Wall-clock seconds of consecutive stages, each timed from the end
    of the one before (the first from construction)."""

    def __init__(self):
        self.start = self._last = time.perf_counter()
        self.seconds: "dict[str, float]" = {}

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.seconds[stage] = now - self._last
        self._last = now

    def total(self) -> float:
        return time.perf_counter() - self.start


def _eigen_row(head, config, problem, fit, pair, held_out, laps) -> SweepRow:
    """Score a fit by its eigenvalues' distance from the exact levels.

    Both scorers take the row's ``(point_index, value, trial, method)``,
    the cell's configuration and problem, the fit and its Hankel pair, the
    held-out samples (none outside a forecast) and the method's laps.
    """
    estimate = extract_eigen(
        fit,
        problem.dt,
        config.n_eig,
        magnitude_floor=config.magnitude_floor,
        merge_conjugates=True,
    )
    laps.lap("eig_s")
    fit_residual = residual(fit, pair)
    laps.lap("residual_s")
    physical = estimate.energies / problem.scale
    errors = np.abs(physical - np.asarray(problem.exact_energies[: config.n_eig]))
    point_index, value, trial, method = head
    return SweepRow(
        point_index=point_index,
        point_value=float(value),
        trial=trial,
        method=method,
        energies=tuple(float(v) for v in physical),
        abs_errors=tuple(float(v) for v in errors),
        residual=fit_residual,
        retained_rank=fit.rank,
        wall_time_s=laps.total(),
        stage_s=laps.seconds,
    )


def _forecast_row(head, config, problem, fit, pair, held_out, laps) -> ForecastRow:
    """Score a fit by the RMSE of its predictions of the held-out tail."""
    predicted = forecast(fit, pair, held_out.shape[1] + 1)[:, 1:]
    laps.lap("forecast_s")
    rmse = np.sqrt(np.mean((predicted - held_out) ** 2, axis=1))
    point_index, value, trial, method = head
    return ForecastRow(
        point_index=point_index,
        k_star=int(value),
        trial=trial,
        method=method,
        rmse=tuple(float(v) for v in rmse),
        rmse_mean=float(np.mean(rmse)),
        wall_time_s=laps.total(),
        stage_s=laps.seconds,
    )


@dataclass(frozen=True)
class _SweepPlan:
    """Picklable description of all cells a sweep will execute: its grid
    values and, per value, the configuration its cells run on and their
    ``(d, K)`` window."""

    kind: str
    config: ExperimentConfig
    points: "tuple[float, ...]"
    configs: "tuple[ExperimentConfig, ...]"
    windows: "tuple[tuple[int, int], ...]"
    horizon: int = 0


def _plan(kind: str, config: ExperimentConfig, points, horizon: int = 0) -> _SweepPlan:
    """A sweep's plan, each grid point's configuration set per
    :data:`SWEEP_KINDS` (and validated like the field it sets). A forecast
    splits each fit-window length k*; each point of an eigenvalue sweep must
    hold a single K, which it pairs with its depth."""
    points = tuple(float(p) for p in points)
    point = SWEEP_KINDS[kind].point
    configs = tuple(dataclasses.replace(config, **point(p)) for p in points)
    if kind == "forecast":
        windows = tuple(split_fit_window(int(p), config.k_over_d) for p in points)
    elif any(len(c.k_grid) != 1 for c in configs):
        raise ConfigError(f"{kind} needs a single fixed K, got k_grid {config.k_grid}")
    else:
        ks = [c.k_grid[0] for c in configs]
        windows = tuple((depth_for_window(K, config.k_over_d), K) for K in ks)
    return _SweepPlan(kind, config, points, configs, windows, horizon)


def _longest_signal(plan: _SweepPlan) -> int:
    """Largest ``k_max`` of any exact signal the plan's cells generate."""
    return max(K + d for d, K in plan.windows) + plan.horizon


def _evaluate_cell(plan: _SweepPlan, problem: Problem, point_index: int, trial: int):
    """Both methods' rows of one (point, trial) cell.

    The problem's exact signals hold both methods' clean samples, and a
    forecast's held-out tail: the cell stacks the rows of the modmd
    observables, then the identity, and the modmd row's ``signal_s`` also
    times that. Each method then measures its samples, builds the Hankel
    pair, fits and scores the fit.
    """
    config, value = plan.configs[point_index], plan.points[point_index]
    d, K = plan.windows[point_index]
    score = _forecast_row if plan.kind == "forecast" else _eigen_row
    obs_seed = derive_seed(config.master_seed, point_index, trial, _STREAM_OBSERVABLES)
    pools = {
        "modmd": (build_observables(config, problem, obs_seed), _STREAM_MODMD),
        "odmd": ([identity_observable(problem.n_qubits)], _STREAM_ODMD),
    }
    laps = _Laps()
    n_steps = K + d + plan.horizon + 1
    observed = pools["modmd"][0] + pools["odmd"][0]
    truth = np.stack([problem.signals[o][:n_steps] for o in observed])
    blocks = {"modmd": truth[:-1], "odmd": truth[-1:]}
    rows = []
    for method in _METHODS:
        observables, stream = pools[method]
        fitted, held_out = np.split(blocks[method], [K + d + 1], axis=1)
        clean = MultiObservableSignal(len(observables), problem.dt, fitted)
        seed = derive_seed(config.master_seed, point_index, trial, stream)
        signal = measure_signal(config, problem, observables, clean, seed)
        laps.lap("signal_s")
        pair = build_hankel(signal, d, K)
        laps.lap("hankel_s")
        fit = fit_propagator(pair, truncated_pinv(pair.x, threshold_for(config)))
        laps.lap("pinv_s")
        head = (point_index, value, trial, method)
        try:
            rows.append(score(head, config, problem, fit, pair, held_out, laps))
        except EigenvalueShortfallError as exc:
            raise EigenvalueShortfallError(
                exc.requested,
                exc.survivors,
                exc.energies,
                context=f"{plan.kind} point {value!r}, trial {trial}, {method}",
            ) from exc
        laps = _Laps()
    return rows


# Worker-process state: the plan is installed once per worker, and the
# latest problem, keyed by its transverse field (the only problem input a
# sweep varies), is kept. Tasks arrive in (point, trial) order, so each
# worker diagonalizes at most once per Hamiltonian and holds one eigenbasis
# at a time.
_WORKER_PLAN: "_SweepPlan | None" = None
_WORKER_PROBLEM: "tuple[float, Problem] | None" = None


def _init_worker(plan: "_SweepPlan | None") -> None:
    global _WORKER_PLAN, _WORKER_PROBLEM
    _WORKER_PLAN = plan
    _WORKER_PROBLEM = None


def _worker_problem(point_index: int) -> Problem:
    global _WORKER_PROBLEM
    config = _WORKER_PLAN.configs[point_index]
    if _WORKER_PROBLEM is None or _WORKER_PROBLEM[0] != config.tfim_field:
        _WORKER_PROBLEM = None  # release the previous eigenbasis before the next
        problem = build_problem(config, _longest_signal(_WORKER_PLAN))
        _WORKER_PROBLEM = (config.tfim_field, problem)
    return _WORKER_PROBLEM[1]


def _worker_task(task: "tuple[int, int]"):
    """One cell's rows, plus the reference energies of its problem."""
    point_index, trial = task
    problem = _worker_problem(point_index)
    rows = _evaluate_cell(_WORKER_PLAN, problem, point_index, trial)
    return task, rows, problem.exact_energies[: _WORKER_PLAN.config.n_eig]


def _run_plan(plan: _SweepPlan) -> "tuple[list, tuple[tuple[float, ...], ...]]":
    """Rows of all cells in (point, trial) order for any worker count, and
    each point's reference energies from the problem its cells ran on."""
    tasks = [
        (pi, trial)
        for pi in range(len(plan.points))
        for trial in range(plan.config.trials)
    ]
    if plan.config.workers == 1:
        _init_worker(plan)
        try:
            outputs = [_worker_task(task) for task in tasks]
        finally:
            _init_worker(None)  # release the sweep's problem (dense eigenvectors)
    else:
        with ProcessPoolExecutor(
            max_workers=plan.config.workers,
            initializer=_init_worker,
            initargs=(plan,),
        ) as pool:
            outputs = list(pool.map(_worker_task, tasks, chunksize=1))
    # Both maps keep the (point, trial) order of ``tasks``.
    rows = [row for _, cell_rows, _ in outputs for row in cell_rows]
    exact = {pi: energies for (pi, _), _, energies in outputs}
    return rows, tuple(exact[pi] for pi in range(len(plan.points)))


def _run_sweep(kind: str, config: ExperimentConfig, **args) -> SweepResult:
    """Run a sweep of any kind in :data:`SWEEP_KINDS` on its driver
    arguments: check them, plan every grid point, run its cells."""
    sweep_args = _driver_args(kind, args)
    if kind == "sweep-gap" and config.tfim_qubits is None:
        raise ConfigError("the gap sweep varies the transverse field of a TFIM source")
    grids = [v for name, v in sweep_args.items() if name.endswith("_grid")]
    grid = grids[0] if grids else config.k_grid
    plan = _plan(kind, config, grid, sweep_args.get("horizon", 0))
    rows, exact = _run_plan(plan)
    return SweepResult(kind, config, plan.points, sweep_args, exact, tuple(rows))


def run_convergence_sweep(config: ExperimentConfig) -> SweepResult:
    """Error versus snapshot count for both pipelines on shared seeds."""
    return _run_sweep("sweep-k", config)


def run_gap_sweep(config: ExperimentConfig, h_grid: "tuple[float, ...]") -> SweepResult:
    """Error versus transverse field (hence spectral gap) at fixed K."""
    return _run_sweep("sweep-gap", config, h_grid=h_grid)


def run_noise_sweep(
    config: ExperimentConfig, eps_grid: "tuple[float, ...]"
) -> SweepResult:
    """Error versus noise level at fixed K.

    Under the derived-threshold policy (``svd_threshold: null``) each
    grid point regularizes at ten times its own noise level.
    """
    return _run_sweep("sweep-noise", config, eps_grid=eps_grid)


def run_forecast_experiment(
    config: ExperimentConfig, kstar_grid: "tuple[int, ...]", horizon: int
) -> SweepResult:
    """Held-out signal prediction for a grid of fit-window lengths."""
    return _run_sweep("forecast", config, kstar_grid=kstar_grid, horizon=horizon)


def run_single_solve(config: ExperimentConfig) -> "tuple[SweepRow, SweepRow]":
    """One-shot evaluation at the first configured K (trial 0)."""
    plan = _plan("sweep-k", config, config.k_grid[:1])
    plan = dataclasses.replace(plan, kind="solve")  # names solve in a shortfall
    rows = _evaluate_cell(plan, build_problem(config, _longest_signal(plan)), 0, 0)
    return rows[0], rows[1]


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, header: "list[str]", rows: "list[list]") -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_value(v) for v in row])


_SVG_COLORS = {"modmd": "#1f77b4", "odmd": "#d62728"}


def _svg_line_plot(
    path: Path,
    title: str,
    x_label: str,
    y_label: str,
    xs: "tuple[float, ...]",
    series: "list[tuple[str, list[float]]]",
    log_x: bool,
) -> None:
    """Minimal standalone vector plot, logarithmic in y, with deterministic
    bytes."""
    width, height = 640.0, 480.0
    left, right, top, bottom = 70.0, 20.0, 40.0, 50.0

    def keep(x, y):
        return (not log_x or x > 0) and y > 0

    pts = [
        (x, y)
        for _, ys in series
        for x, y in zip(xs, ys)
        if keep(x, y) and math.isfinite(x) and math.isfinite(y)
    ]
    if not pts:
        pts = [(1.0, 1.0)]
    tx = [math.log10(p[0]) if log_x else p[0] for p in pts]
    ty = [math.log10(p[1]) for p in pts]
    x_lo, x_hi = min(tx), max(tx)
    y_lo, y_hi = min(ty), max(ty)
    if x_hi - x_lo < 1e-12:
        x_lo, x_hi = x_lo - 0.5, x_hi + 0.5
    if y_hi - y_lo < 1e-12:
        y_lo, y_hi = y_lo - 0.5, y_hi + 0.5

    def to_px(x, y):
        u = (math.log10(x) if log_x else x) - x_lo
        v = math.log10(y) - y_lo
        px = left + u / (x_hi - x_lo) * (width - left - right)
        py = height - bottom - v / (y_hi - y_lo) * (height - top - bottom)
        return px, py

    def tick_label(value, log_axis):
        return f"{10 ** value:.3g}" if log_axis else f"{value:.4g}"

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="15">{title}</text>',
        f'<text x="{width / 2:.1f}" y="{height - 12:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{y_label}</text>',
        f'<rect x="{left:.1f}" y="{top:.1f}" width="{width - left - right:.1f}" '
        f'height="{height - top - bottom:.1f}" fill="none" stroke="black"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * (x_hi - x_lo)
        yv = y_lo + frac * (y_hi - y_lo)
        px = left + frac * (width - left - right)
        py = height - bottom - frac * (height - top - bottom)
        lines.append(
            f'<text x="{px:.1f}" y="{height - bottom + 16:.1f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="10">'
            f"{tick_label(xv, log_x)}</text>"
        )
        lines.append(
            f'<text x="{left - 6:.1f}" y="{py + 3:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{tick_label(yv, True)}</text>'
        )
    for si, (name, ys) in enumerate(series):
        coords = [
            to_px(x, y) for x, y in zip(xs, ys) if keep(x, y) and math.isfinite(y)
        ]
        if coords:
            points = " ".join(f"{px:.2f},{py:.2f}" for px, py in coords)
            color = _SVG_COLORS.get(name, "#2ca02c")
            lines.append(
                f'<polyline points="{points}" fill="none" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
            ly = top + 16 + 16 * si
            lines.append(
                f'<line x1="{width - 150:.1f}" y1="{ly:.1f}" '
                f'x2="{width - 126:.1f}" y2="{ly:.1f}" stroke="{color}" '
                f'stroke-width="1.5"/>'
            )
            lines.append(
                f'<text x="{width - 120:.1f}" y="{ly + 4:.1f}" '
                f'font-family="sans-serif" font-size="11">{name}</text>'
            )
    lines.append("</svg>")
    path.write_text("\n".join(lines) + "\n")


_SCHEMA_NOTE = """\
Values are written with repr() so parsing them back yields the exact
float64 bit patterns. The companion *_timing.csv records wall-clock
seconds per cell and method: wall_time_s for the whole evaluation, then
its stages in order, signal_s (signal, and a forecast's held-out truth),
hankel_s (snapshot matrices), pinv_s (truncated pseudo-inverse and
propagator fit), and either eig_s (eigenvalue extraction) and residual_s
(fit residual) in an eigenvalue sweep, or forecast_s (propagator
iteration) in a forecast. The stages sum to at most wall_time_s. It is
the only output file excluded from the bit-identical replay guarantee.
"""


def _manifest_payload(result) -> dict:
    payload = {
        "sweep": result.sweep,
        "sweep_args": result.sweep_args,
        "config": config_to_dict(result.config),
        "points": list(result.points),
        "exact_energies": [list(e) for e in result.exact_energies],
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "modmd": __version__,
        },
    }
    for name in _INPUT_FILE_FIELDS:
        if getattr(result.config, name) is not None:
            digest = _sha256(getattr(result.config, name))
            payload.setdefault("input_sha256", {})[name] = digest
    return payload


def _series(aggs, value) -> "list[tuple[str, list[float]]]":
    """Per method with aggregates, its name and ``value`` of each one."""
    methods = [m for m in _METHODS if any(a.method == m for a in aggs)]
    return [(m, [value(a) for a in aggs if a.method == m]) for m in methods]


def _sweep_layout(result: SweepResult):
    """Results header and rows, schema column lines and plots
    ``(suffix, title, y_label, series)`` of an eigenvalue sweep."""
    n = result.config.n_eig
    header = (
        ["kind", "point_index", "point_value", "trial", "method", "n_trials"]
        + [f"energy_{i}" for i in range(n)]
        + [f"abs_error_{i}" for i in range(n)]
        + ["residual", "retained_rank"]
    )
    rows = []
    for r in result.rows:
        rows.append(
            ["trial", r.point_index, r.point_value, r.trial, r.method, ""]
            + list(r.energies)
            + list(r.abs_errors)
            + [r.residual, r.retained_rank]
        )
    aggs = result.aggregates()
    for agg in aggs:
        rows.append(
            ["mean", agg.point_index, agg.point_value, "", agg.method, agg.n_trials]
            + list(agg.mean_energies)
            + list(agg.mean_errors)
            + [agg.mean_residual, agg.mean_rank]
        )
        rows.append(
            ["std", agg.point_index, agg.point_value, "", agg.method, agg.n_trials]
            + [""] * n
            + list(agg.std_errors)
            + ["", ""]
        )
    columns = (
        "  kind          trial | mean | std (aggregates across trials)\n"
        "  point_index   0-based position in the sweep grid\n"
        "  point_value   grid value (K, transverse field, or noise level)\n"
        "  trial         trial index; empty on aggregate rows\n"
        "  method        modmd (multi-observable) | odmd (single-observable)\n"
        "  n_trials      trial count behind an aggregate row; empty otherwise\n"
        f"  energy_i      retained energy estimates, i < {n}, physical units\n"
        f"  abs_error_i   |estimate - exact|, exact from dense diagonalization\n"
        "  residual      relative least-squares fit residual\n"
        "  retained_rank singular values kept by the threshold\n"
    )
    plots = [
        (
            f"level_{level}",
            f"absolute error, level {level}",
            "mean absolute error",
            _series(aggs, lambda a: a.mean_errors[level]),
        )
        for level in range(n)
    ]
    return header, rows, columns, plots


def _forecast_layout(result: SweepResult):
    """Results header and rows, schema column lines and plot of a
    forecasting experiment, as :func:`_sweep_layout`."""
    n_obs = result.config.n_observables
    header = (
        ["kind", "point_index", "k_star", "trial", "method", "n_trials", "rmse_mean"]
        + [f"rmse_{i}" for i in range(n_obs)]
    )
    rows = []
    for r in result.rows:
        padded = list(r.rmse) + [""] * (n_obs - len(r.rmse))
        rows.append(
            ["trial", r.point_index, r.k_star, r.trial, r.method, "", r.rmse_mean]
            + padded
        )
    aggs = result.aggregates()
    for agg in aggs:
        base = [agg.point_index, int(agg.point_value), "", agg.method, agg.n_trials]
        rows.append(["mean"] + base + [agg.mean_rmse] + [""] * n_obs)
        rows.append(["std"] + base + [agg.std_rmse] + [""] * n_obs)
    columns = (
        "  kind       trial | mean | std (aggregates across trials)\n"
        "  point_index 0-based position in the k* grid\n"
        "  k_star     fit-window length; fitting uses samples 0..k*\n"
        "  trial      trial index; empty on aggregate rows\n"
        "  method     modmd | odmd (single-observable baseline)\n"
        "  n_trials   trial count behind an aggregate row; empty otherwise\n"
        "  rmse_mean  RMSE over the "
        f"{result.sweep_args['horizon']} held-out steps, averaged\n"
        "             over that method's observables\n"
        "  rmse_i     per-observable RMSE; single-observable rows leave\n"
        "             columns beyond rmse_0 empty\n"
    )
    series = _series(aggs, lambda a: a.mean_rmse)
    plot = ("rmse", "held-out forecast error", "mean RMSE", series)
    return header, rows, columns, [plot]


def emit_outputs(result, directory: "str | Path") -> "list[Path]":
    """Write tables, schema, manifest, and plots for one sweep result.

    Everything except the timing table is a pure function of the resolved
    configuration, so replaying the manifest reproduces the files
    byte for byte.
    """
    directory = Path(directory)
    if result.sweep == "forecast":
        layout, stages = _forecast_layout, _FORECAST_STAGES
    else:
        layout, stages = _sweep_layout, _EIGEN_STAGES
    header, rows, columns, plots = layout(result)
    name = result.sweep
    results_path = directory / f"{name}_results.csv"
    timing_path = directory / f"{name}_timing.csv"
    schema_path = directory / f"{name}_schema.txt"
    manifest_path = directory / f"{name}_manifest.json"
    try:
        directory.mkdir(parents=True, exist_ok=True)
        _write_csv(results_path, header, rows)
        _write_csv(
            timing_path,
            ["point_index", "trial", "method", "wall_time_s", *stages],
            [
                [r.point_index, r.trial, r.method, r.wall_time_s]
                + [r.stage_s[stage] for stage in stages]
                for r in result.rows
            ],
        )
        schema_path.write_text(
            f"Columns of {results_path.name}:\n" + columns + "\n" + _SCHEMA_NOTE
        )
        manifest_path.write_text(
            json.dumps(_manifest_payload(result), indent=2, sort_keys=True) + "\n"
        )
        written = [results_path, timing_path, schema_path, manifest_path]
        kind = SWEEP_KINDS[name]
        for suffix, title, y_label, series in plots:
            path = directory / f"{name}_{suffix}.svg"
            _svg_line_plot(
                path, title, kind.x_label, y_label, result.points, series, kind.log_x
            )
            written.append(path)
        return written
    except OSError as exc:
        raise OSError(f"cannot write outputs under {directory}: {exc}") from exc


def replay_manifest(path: "str | Path"):
    """Re-run the sweep recorded in a manifest file."""
    config, sweep, sweep_args = read_run_file(path)
    if sweep is None:
        raise ConfigError(f"{path} is not a run manifest")
    return _run_sweep(sweep, config_from_dict(config), **sweep_args)
