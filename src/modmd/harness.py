"""Experiment configuration, parameter sweeps, and reproducible outputs."""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import math
import numbers
import os
import platform
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

import numpy as np
import numpy.random  # loaded lazily by numpy; keep its import out of timed sweeps

from . import __version__, pauli, shadows
from .errors import ConfigError, EigenvalueShortfallError, ResourceCapError
from .pauli import (
    PauliString,
    PauliSum,
    build_tfim,
    format_pauli_sum,
    one_local_pool,
    parse_pauli_sum,
    partial_sum_observables,
    random_one_local,
    shift_and_scale,
)
from .shadows import _sample_signal, gaussian_noise_channel
from .simulate import (
    MultiObservableSignal,
    SpectralDecomposition,
    StateVector,
    _matmul,
    _phase_sums,
    build_reference_superposition,
    diagonalize,
)
from .solver import (
    _fit_bytes,
    _fit_window,
    extract_eigen,
    forecast,
    residual,
    select_time_step,
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
    each grid point runs on its own validated configuration, the only one
    its cells, reference levels and results columns read (a forecast's
    fit-window lengths set none). ``args`` are the driver arguments the
    manifest records in ``sweep_args`` (the CLI flag of each has the same
    name), annotated as configuration fields are and held to the same
    rule (:func:`_typed`): the ``tuple[...]`` one is the grid (a kind
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
        lambda h: {"tfim_field": h}, {"h_grid": tuple[float, ...]}, "transverse field h",
        "error versus spectral gap at fixed K",
    ),
    "sweep-noise": SweepKind(
        lambda eps: {"noise_epsilon": eps}, {"eps_grid": tuple[float, ...]}, "noise level",
        "error versus noise level at fixed K", True,
    ),
    "forecast": SweepKind(
        lambda k_star: {}, {"kstar_grid": tuple[int, ...], "horizon": int},
        "fit-window length k*", "held-out signal prediction",
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
        for name, hint in _FIELD_HINTS.items():
            object.__setattr__(self, name, _typed(name, hint, getattr(self, name)))
        if (self.tfim_qubits is None) == (self.hamiltonian_file is None):
            raise ConfigError(
                "exactly one of tfim_qubits and hamiltonian_file must be set"
            )
        if self.tfim_qubits is not None and self.tfim_qubits < 2:
            raise ConfigError(f"tfim_qubits must be >= 2, got {self.tfim_qubits}")
        if self.tfim_qubits is not None:
            _check_width(self.tfim_qubits)  # before a build that is O(n^2)
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
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
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


_KINDS = {
    int: (numbers.Integral, "an integer"),
    float: (numbers.Real, "a number"),
    str: (str, "a string"),
}


def _typed(name: str, hint, value):
    """``value`` of a field or sweep argument, from any source, checked
    against its annotation ``hint`` and returned as stored. ``None`` passes
    where annotated; a list or tuple becomes a tuple of entries checked
    alike (a numpy array is refused); a boolean or a value of the wrong kind
    (a JSON 1.5 where an integer is due) is refused; a numpy scalar becomes
    ``hint(value)`` and a Python ``int`` in a float field stays; a float
    must be finite."""
    if type(None) in get_args(hint):
        if value is None:
            return None
        hint = get_args(hint)[0]
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list")
        return tuple(_typed(f"{name} entry", get_args(hint)[0], entry) for entry in value)
    kind, noun = _KINDS[hint]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ConfigError(f"{name} must be {noun}, got {value!r}")
    if type(value) not in (int, float, str):
        value = hint(value)
    if hint is float and not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name} must be finite, got {value}")
    return value


def _check_width(n_qubits: int) -> None:
    if n_qubits > 63:  # basis indices are int64
        raise ConfigError(f"{n_qubits} qubits do not fit an int64 basis index (at most 63)")


# Read once: resolving the annotations costs more than the rest of a
# configuration's checks, and a sweep builds one configuration per point.
_FIELD_HINTS = get_type_hints(ExperimentConfig)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a configuration from plain JSON-compatible data."""
    if not isinstance(data, dict):
        raise ConfigError(f"configuration must be a mapping, got {type(data).__name__}")
    unknown = sorted(map(str, data.keys() - _FIELD_HINTS.keys()))
    if unknown:
        raise ConfigError(f"unknown configuration fields: {', '.join(unknown)}")
    return ExperimentConfig(**data)


def config_to_dict(config: ExperimentConfig) -> dict:
    """JSON-compatible mirror of :func:`config_from_dict`."""
    return {k: list(v) if isinstance(v, tuple) else v for k, v in dataclasses.asdict(config).items()}


def _sha256(path) -> "str | None":
    """Hex digest of a file's bytes, or ``None`` when it cannot be read."""
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except (OSError, TypeError):
        return None


def _driver_args(kind: str, args: dict) -> dict:
    """A sweep kind's driver arguments from a call or a manifest, as the
    manifest records them: a key the kind does not declare is refused, and
    each declared argument must be present, is stored by :func:`_typed` as
    ``sweep_args.<name>``, and is a non-empty grid or an ``int`` >= 1."""
    declared = SWEEP_KINDS[kind].args
    unknown = sorted(set(args) - set(declared))
    if unknown:
        raise ConfigError(f"sweep_args.{unknown[0]} is not an argument of {kind}")
    typed = {}
    for name, hint in declared.items():
        if args.get(name) is None:
            raise ConfigError(f"sweep_args.{name} is missing")
        value = typed[name] = _typed(f"sweep_args.{name}", hint, args[name])
        if value == ():
            raise ConfigError(f"sweep_args.{name} must not be empty")
        if hint is int and value < 1:
            raise ConfigError(f"sweep_args.{name} must be >= 1, got {value}")
    return typed


def _read_text(path) -> str:
    """The text of the file at ``path``; one that cannot be read or
    decoded is refused."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None


def read_run_file(path: "str | Path") -> "tuple[dict, str | None, dict]":
    """Read a JSON configuration file or run manifest.

    Returns the configuration mapping, the sweep kind (``None`` for a plain
    configuration) and the manifest's driver arguments typed per
    :data:`SWEEP_KINDS`. A manifest is refused when an input file whose
    sha256 it recorded has changed since.
    """
    try:
        data = json.loads(_read_text(path))
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


def _check_window(config: ExperimentConfig, d: int, K: int) -> None:
    """Refuse a fit window of ``d`` shifts and ``K`` snapshots whose fit
    over ``n_observables`` needs more than physical memory
    (:func:`solver._fit_bytes`)."""
    need, have = _fit_bytes(d * config.n_observables, K), pauli._physical_memory_bytes()
    if need > have:
        raise ResourceCapError(
            f"a fit window of K={K}, d={d} over {config.n_observables} observables "
            f"needs {need / 1e9:.1f} GB, more than the {have / 1e9:.1f} GB of physical memory"
        )


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
    :func:`build_observables` draws from or returns. With the baseline's
    identity it is the probe pool (:func:`_probe_pool`), over which ``gram``
    holds ``<O_j phi0|O_i phi0>`` at ``[i, j]`` and ``signals`` (empty
    without ``k_max``) each complex exact signal over ``k_max + 1`` samples.
    ``hamiltonian`` is the rescaled sum and ``references`` the bitstrings
    of ``phi0``. ``spec``, ``phi0`` and ``phi_perp`` are the dense oracle,
    which no sweep reads: built when first read, over the whole register
    (a particle-sector run's too), and refused first if the register's
    matrix does not fit in memory (:func:`pauli._check_dense_memory`).
    """

    n_qubits: int
    scale: float
    dt: float
    exact_energies: "tuple[float, ...]"
    observables: "tuple[PauliSum, ...]"
    gram: np.ndarray
    hamiltonian: PauliSum
    references: "tuple[str, ...]"
    signals: "dict[PauliSum, np.ndarray]" = field(default_factory=dict)

    @functools.cached_property
    def spec(self) -> SpectralDecomposition:
        """The whole register's eigensystem, from one dense ``eigh``."""
        return diagonalize(pauli.to_dense(self.hamiltonian))

    @functools.cached_property
    def phi0(self) -> StateVector:
        """The reference state: the equal superposition of ``references``."""
        pauli._check_dense_memory(1 << self.n_qubits)  # refused with the oracle's matrix
        return build_reference_superposition(self.n_qubits, list(self.references))

    @functools.cached_property
    def phi_perp(self) -> StateVector:
        """The lowest basis state that is not a reference."""
        pauli._check_dense_memory(1 << self.n_qubits)
        taken = {int(bits, 2) for bits in self.references}
        free = min(set(range(len(taken) + 1)) - taken)
        return build_reference_superposition(self.n_qubits, [f"{free:0{self.n_qubits}b}"])


def parse_observable_file(path: str, n_qubits: int, count: int) -> "tuple[PauliSum, ...]":
    """Blank-line-separated Pauli sums, one block per observable."""
    text = _read_text(path)
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


def resolve_hamiltonian(config: ExperimentConfig) -> PauliSum:
    """Load the configured operator and validate reference addressing."""
    if config.tfim_qubits is not None:
        hamiltonian = build_tfim(
            config.tfim_qubits, config.tfim_coupling, config.tfim_field
        )
    else:
        hamiltonian = parse_pauli_sum(_read_text(config.hamiltonian_file))
    if not 0.0 < hamiltonian.weight_l1 < math.inf:
        raise ConfigError(
            "Hamiltonian coefficient 1-norm must be finite and nonzero, "
            f"got {hamiltonian.weight_l1}"
        )
    n_qubits = hamiltonian.n_qubits
    _check_width(n_qubits)
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
    shadow shot block or a dense matrix and eigenbasis larger than physical
    memory, and a spectrum or particle sector of fewer than ``n_eig``
    levels. Levels and the matrix count the dimension a run solves, ``2^n``
    or ``C(n, N)``; a sweep holds no longer vector (:func:`build_problem`).
    No matrix is built, and a sector's coupling is read from the strings.
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
        need = shadows._block_bytes(count, config.shadow_samples)
        have = pauli._physical_memory_bytes()
        if need > have:
            raise ResourceCapError(
                f"{config.shadow_samples} shots of {count} observables need "
                f"{need / 1e9:.1f} GB per step block, more than the "
                f"{have / 1e9:.1f} GB of physical memory"
            )
    shifted, scale = shift_and_scale(hamiltonian, config.safety_fraction)
    sector = config.particle_number
    count, where = 2**n_qubits, "the spectrum"
    if sector is not None:
        count, where = math.comb(n_qubits, sector), f"particle sector {sector}"
    pauli._check_dense_memory(count)
    if count < config.n_eig:
        raise ConfigError(f"{where} holds only {count} levels, need {config.n_eig}")
    if sector is not None:
        if pauli._leak(shifted, pauli._sector_states(n_qubits, sector)) > 1e-12 * shifted.weight_l1:
            raise ConfigError(
                "particle_number needs a number-conserving Hamiltonian; this one "
                f"couples sector {sector} to others"
            )
    return shifted, scale, observables, resolve_time_step(config)


def build_problem(config: ExperimentConfig, k_max: "int | None" = None) -> Problem:
    """Solve the (rescaled) Hamiltonian and resolve run-wide state.

    The run's basis states are the whole register or, in a particle-sector
    run, the sector's (``exp(-iHt) phi0`` never leaves it), and
    :func:`_solve` solves them one symmetry block at a time. Each
    ``O_i phi0`` of the probe pool is held on the few states the references
    reach (:func:`pauli._probes`), which give ``gram``, and the stack
    ``[phi0, O_1 phi0, ...]`` on the run's states is projected on each
    block's eigenvectors. With ``k_max`` set, one phase sum over those
    projections gives the signals. No eigenbasis and no matrix of the whole
    basis is formed; the stack and its projections are ``(1 + |pool|) x
    len(states)`` complex, ``2^n`` columns on a full-register run. Of
    ``config`` it reads only :func:`resolve_inputs`'s result,
    ``particle_number`` and ``reference_bitstrings``; points equal in these
    share a problem (:func:`_plan`).
    """
    shifted, scale, observables, dt = resolve_inputs(config)
    n_qubits, sector = shifted.n_qubits, config.particle_number
    states = np.arange(2**n_qubits) if sector is None else pauli._sector_states(n_qubits, sector)
    pool = _probe_pool(observables, n_qubits)
    references = np.array([int(bits, 2) for bits in config.reference_bitstrings])
    reach, probes = pauli._probes(pool, references)
    # [phi0, O_1 phi0, ...] on the run's states; phi0 is the identity's row
    rows = [pool.index(identity_observable(n_qubits)), *range(len(pool))]
    at, inside = pauli._locate(states, reach)  # a sector run drops what leaves it
    stack = np.zeros((len(rows), len(states)), complex)
    stack[:, at[inside]] = probes[np.ix_(rows, inside)]
    levels, projected = _solve(shifted, states, stack)
    signals = {}
    if k_max is not None:
        signals = dict(zip(pool, _phase_sums(levels, projected, dt, k_max)))
    return Problem(
        n_qubits=n_qubits,
        scale=scale,
        dt=dt,
        exact_energies=tuple(float(e) for e in levels / scale),
        observables=observables,
        gram=probes @ probes.conj().T,
        hamiltonian=shifted,
        references=config.reference_bitstrings,
        signals=signals,
    )


def _probe_pool(observables, n_qubits: int) -> "list[PauliSum]":
    """The policy's pool and the identity of the baseline, without repeats."""
    return list(dict.fromkeys(tuple(observables) + (identity_observable(n_qubits),)))


def _solve(psum: PauliSum, states: np.ndarray, stack: np.ndarray):
    """``(energies, columns)`` of the matrix ``H`` of ``psum`` on the
    ascending basis ``states``, one :func:`pauli._symmetry_blocks` block and
    one :func:`diagonalize` call at a time; no ``H`` or eigenbasis is formed
    for the whole basis.

    The energies ascend (a stable sort of the blocks' levels) and, in their
    order, the columns are ``conj(stack) @ V`` for the unit eigenvectors
    ``V``: the conjugate projections of each row of ``stack`` (a vector over
    ``states``), which :func:`_phase_sums` takes. ``np.eye(len(states))``
    as the stack gives ``V`` itself.
    """
    levels, parts = [], []
    for block, images, weights in pauli._symmetry_blocks(psum, states):
        solved = diagonalize(block)
        del block  # and the generator drops its own before building the next
        levels.append(solved.energies)
        coordinates = weights[0] * stack[:, images[0]]
        for image, weight in zip(images[1:], weights[1:]):
            coordinates += weight * stack[:, image]
        parts.append(_matmul(coordinates.conj(), solved.eigenvectors))
    energies = np.concatenate(levels)
    order = np.argsort(energies, kind="stable")
    return energies[order], np.concatenate(parts, axis=1)[:, order]


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
    n_steps: int,
    seed: int,
) -> MultiObservableSignal:
    """Real-mode signal of ``observables`` over ``n_steps`` samples from the
    configured source, read from their exact rows in ``problem.signals``.

    The Gaussian source adds noise of the configured level to their real
    parts; the shadow source samples from the complex rows and the rows of
    ``problem.gram`` (:func:`shadows._sample_signal`). A problem without
    signals of ``n_steps`` samples (built without ``k_max``, or with a
    shorter one) and an observable outside its probe pool are refused.
    """
    held = len(next(iter(problem.signals.values()), ()))
    if n_steps > held:
        raise ValueError(
            f"the problem holds exact signals of {held} samples, not {n_steps}; "
            f"build it with k_max >= {n_steps - 1}"
        )
    pool = list(problem.signals)
    missing = [format_pauli_sum(o).strip() for o in observables if o not in problem.signals]
    if missing:
        raise ValueError(f"observable {missing[0]!r} is not in the problem's pool")
    rows = [problem.signals[o][:n_steps] for o in observables]
    if config.signal_source == "shadow":
        exact = MultiObservableSignal(len(rows), problem.dt, np.stack(rows), "complex")
        at = [pool.index(o) for o in observables]
        gram = problem.gram[np.ix_(at, at)]
        return _sample_signal(exact, gram, problem.n_qubits, config.shadow_samples, seed, "real")
    clean = MultiObservableSignal(len(rows), problem.dt, np.stack([row.real for row in rows]))
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
        """End a lap of ``stage``; a stage lapped again adds up its laps."""
        now = time.perf_counter()
        self.seconds[stage] = self.seconds.get(stage, 0.0) + now - self._last
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
    values and, per value, the only configuration its cells read, their
    ``(d, K)`` window and, in ``problems``, the first point whose inputs to
    :func:`build_problem` are equal to its own, whose problem it shares."""

    kind: str
    points: "tuple[float, ...]"
    configs: "tuple[ExperimentConfig, ...]"
    windows: "tuple[tuple[int, int], ...]"
    problems: "tuple[int, ...]"
    horizon: int = 0


def _plan(kind: str, config: ExperimentConfig, points, horizon: int = 0) -> _SweepPlan:
    """A sweep's plan, each grid point's configuration set per
    :data:`SWEEP_KINDS` and checked by :func:`resolve_inputs`, and its fit
    window by :func:`_check_window`, before any cell runs; a TFIM parameter
    set on a file source is refused. A forecast splits each k* at its
    point's ``k_over_d``; each eigenvalue-sweep point must hold a single K,
    which it pairs with its depth at its ``k_over_d``."""
    points = tuple(float(p) for p in points)
    sets = [SWEEP_KINDS[kind].point(p) for p in points]
    configs = tuple(dataclasses.replace(config, **fields) for fields in sets)
    for fields, c in zip(sets, configs):
        if c.tfim_qubits is None and {"tfim_coupling", "tfim_field"} & fields.keys():
            raise ConfigError(f"{kind} sets a TFIM parameter on a hamiltonian_file source")
        if kind != "forecast" and len(c.k_grid) != 1:
            raise ConfigError(f"{kind} needs a single fixed K, got k_grid {c.k_grid}")
    if kind == "forecast":
        windows = tuple(split_fit_window(int(p), c.k_over_d) for p, c in zip(points, configs))
    else:
        windows = tuple((depth_for_window(c.k_grid[0], c.k_over_d), c.k_grid[0]) for c in configs)
    inputs = [(resolve_inputs(c), c.particle_number, c.reference_bitstrings) for c in configs]
    for (d, K), c in zip(windows, configs):
        _check_window(c, d, K)
    problems = tuple(inputs.index(key) for key in inputs)
    return _SweepPlan(kind, points, configs, windows, problems, horizon)


def _longest_signal(plan: _SweepPlan) -> int:
    """Largest ``k_max`` of any exact signal the plan's cells generate."""
    return max(K + d for d, K in plan.windows) + plan.horizon


def _problems(plan: _SweepPlan) -> "dict[int, Problem]":
    """Each distinct problem of the plan, keyed by its entry in
    ``plan.problems`` and built once, with the signals of the longest
    window."""
    k_max = _longest_signal(plan)
    firsts = sorted(set(plan.problems))
    return {first: build_problem(plan.configs[first], k_max) for first in firsts}


def _cell(plan: _SweepPlan, problems: "dict[int, Problem]", task: "tuple[int, int]"):
    """Both methods' rows of one ``(point_index, trial)`` cell, on its
    point's problem in ``problems`` (:func:`_problems`).

    Each method measures its observables over the fit window from the
    problem's exact signals (:func:`measure_signal`), takes the real part
    of their held-out tail (a forecast's; empty otherwise), builds the
    Hankel pair, fits and scores the fit.
    """
    point_index, trial = task
    problem = problems[plan.problems[point_index]]
    config, value = plan.configs[point_index], plan.points[point_index]
    d, K = plan.windows[point_index]
    score = _forecast_row if plan.kind == "forecast" else _eigen_row
    obs_seed = derive_seed(config.master_seed, point_index, trial, _STREAM_OBSERVABLES)
    pools = {
        "modmd": (build_observables(config, problem, obs_seed), _STREAM_MODMD),
        "odmd": ([identity_observable(problem.n_qubits)], _STREAM_ODMD),
    }
    n_fit, rows = K + d + 1, []
    for method in _METHODS:
        laps = _Laps()
        observables, stream = pools[method]
        seed = derive_seed(config.master_seed, point_index, trial, stream)
        signal = measure_signal(config, problem, observables, n_fit, seed)
        tails = [problem.signals[o][n_fit : n_fit + plan.horizon].real for o in observables]
        laps.lap("signal_s")
        pair, fit = _fit_window(signal, d, K, threshold_for(config), laps.lap)
        head = (point_index, value, trial, method)
        try:
            rows.append(score(head, config, problem, fit, pair, np.array(tails), laps))
        except EigenvalueShortfallError as exc:
            raise EigenvalueShortfallError(
                exc.requested,
                exc.survivors,
                exc.energies,
                context=f"{plan.kind} point {value!r}, trial {trial}, {method}",
            ) from exc
    return rows


# A pool worker's ``(plan, problems)``, set by its initializer; no other
# process sets it.
_POOL_SWEEP: "tuple[_SweepPlan, dict[int, Problem]] | None" = None


def _init_worker(plan: _SweepPlan, problems: "dict[int, Problem]") -> None:
    global _POOL_SWEEP
    _POOL_SWEEP = (plan, problems)


def _pool_cell(task: "tuple[int, int]"):
    return _cell(*_POOL_SWEEP, task)


def _run_plan(plan: _SweepPlan, workers: int) -> "tuple[list, tuple[tuple[float, ...], ...]]":
    """Rows of all cells, each point's ``trials`` of them, in (point,
    trial) order on ``workers`` processes (1 runs them here), and each
    point's reference energies. Every problem is built here before the
    first cell, and a pool's workers receive them."""
    problems = _problems(plan)
    tasks = [(pi, trial) for pi, c in enumerate(plan.configs) for trial in range(c.trials)]
    if workers == 1:
        outputs = [_cell(plan, problems, task) for task in tasks]
    else:
        # imported here: a serial sweep loads no process pool machinery
        from concurrent.futures import ProcessPoolExecutor

        size = min(workers, len(tasks))  # a pool starts all its processes at once
        with ProcessPoolExecutor(size, initializer=_init_worker, initargs=(plan, problems)) as pool:
            outputs = list(pool.map(_pool_cell, tasks, chunksize=1))
    # Both maps keep the (point, trial) order of ``tasks``.
    rows = [row for cell_rows in outputs for row in cell_rows]
    exact = (
        problems[first].exact_energies[: c.n_eig] for first, c in zip(plan.problems, plan.configs)
    )
    return rows, tuple(exact)


def _run_sweep(kind: str, config: ExperimentConfig, **args) -> SweepResult:
    """Run a sweep of any kind in :data:`SWEEP_KINDS` on its driver
    arguments: check them, plan every grid point, run its cells."""
    sweep_args = _driver_args(kind, args)
    declared = SWEEP_KINDS[kind].args
    grids = [v for name, v in sweep_args.items() if get_origin(declared[name]) is tuple]
    grid = grids[0] if grids else config.k_grid
    plan = _plan(kind, config, grid, sweep_args.get("horizon", 0))
    rows, exact = _run_plan(plan, config.workers)
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
    rows = _cell(plan, _problems(plan), (0, 0))
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
hankel_s (building the snapshot matrices: twice when the pseudo-inverse
takes the Gram matrix, once for the Gram and once for the lift, so that
they are not held during its eigensolve), pinv_s (truncated
pseudo-inverse, from the Gram matrix's eigensolve and the lift or from
the SVD, and propagator fit), and either eig_s (eigenvalue extraction)
and residual_s (fit residual) in an eigenvalue sweep, or forecast_s
(propagator iteration) in a forecast. The stages sum to at most
wall_time_s. It is the only output file excluded from the bit-identical
replay guarantee.
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


def _padded(values, width: int) -> list:
    """``values`` followed by empty cells up to ``width`` columns."""
    return list(values) + [""] * (width - len(values))


def _sweep_layout(result: SweepResult):
    """Results header and rows, schema column lines and plots
    ``(suffix, title, y_label, series)`` of an eigenvalue sweep, with empty
    cells (and plot gaps) where a point has fewer levels than the largest."""
    n = max((len(r.energies) for r in result.rows), default=0)
    header = (
        ["kind", "point_index", "point_value", "trial", "method", "n_trials"]
        + [f"energy_{i}" for i in range(n)]
        + [f"abs_error_{i}" for i in range(n)]
        + ["residual", "retained_rank"]
    )
    rows = [
        ["trial", r.point_index, r.point_value, r.trial, r.method, ""]
        + _padded(r.energies, n) + _padded(r.abs_errors, n)
        + [r.residual, r.retained_rank]
        for r in result.rows
    ]
    aggs = result.aggregates()
    for agg in aggs:
        rows.append(
            ["mean", agg.point_index, agg.point_value, "", agg.method, agg.n_trials]
            + _padded(agg.mean_energies, n)
            + _padded(agg.mean_errors, n)
            + [agg.mean_residual, agg.mean_rank]
        )
        rows.append(
            ["std", agg.point_index, agg.point_value, "", agg.method, agg.n_trials]
            + [""] * n
            + _padded(agg.std_errors, n)
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
            _series(aggs, lambda a: (a.mean_errors + (math.nan,) * n)[level]),
        )
        for level in range(n)
    ]
    return header, rows, columns, plots


def _forecast_layout(result: SweepResult):
    """Results header and rows, schema column lines and plot of a
    forecasting experiment, as :func:`_sweep_layout`."""
    n_obs = max((len(r.rmse) for r in result.rows), default=0)
    header = (
        ["kind", "point_index", "k_star", "trial", "method", "n_trials", "rmse_mean"]
        + [f"rmse_{i}" for i in range(n_obs)]
    )
    rows = [
        ["trial", r.point_index, r.k_star, r.trial, r.method, "", r.rmse_mean]
        + _padded(r.rmse, n_obs)
        for r in result.rows
    ]
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
