"""Command-line interface for running and replaying experiments."""

from __future__ import annotations

import argparse
import dataclasses
import locale  # loaded lazily by argparse's gettext; keep its import out of timed sweeps
import sys

from .errors import (
    ConfigError,
    DegenerateInputError,
    EigenvalueShortfallError,
    PauliParseError,
    ResourceCapError,
)
from .harness import (
    OBSERVABLE_POLICIES,
    SIGNAL_SOURCES,
    SWEEP_KINDS,
    ExperimentConfig,
    _run_sweep,
    config_from_dict,
    emit_outputs,
    read_run_file,
    resolve_inputs,
    resolve_output_dir,
    run_single_solve,
    threshold_for,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_SHORTFALL = 4

# Driver arguments used when neither a flag nor a manifest sets them.
_SWEEP_DEFAULTS = {"horizon": 200}


def _csv(kind):
    """argparse type of a comma-separated list of ``kind`` values."""

    def parse(text: str) -> tuple:
        try:
            return tuple(kind(part) for part in text.split(","))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected comma-separated {kind.__name__} values, got {text!r}"
            ) from None

    return parse


def _add_config_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config",
        metavar="PATH",
        help="JSON configuration file; a run manifest is accepted and its "
        "embedded config and grids are reused",
    )
    model = parser.add_argument_group("model")
    model.add_argument("--tfim-qubits", type=int)
    model.add_argument("--tfim-coupling", type=float)
    model.add_argument("--tfim-field", type=float)
    model.add_argument("--hamiltonian-file")
    model.add_argument(
        "--particle-number",
        type=int,
        help="restrict reference eigenvalues to this particle-number sector",
    )
    model.add_argument(
        "--reference",
        action="append",
        dest="reference_bitstrings",
        metavar="BITS",
        help="reference basis bitstring; repeat to superpose several",
    )
    probes = parser.add_argument_group("observables and signal")
    probes.add_argument("--observable-policy", choices=OBSERVABLE_POLICIES)
    probes.add_argument("--n-observables", type=int)
    probes.add_argument("--observable-file")
    probes.add_argument("--signal-source", choices=SIGNAL_SOURCES)
    probes.add_argument("--shadow-samples", type=int)
    probes.add_argument("--noise-epsilon", type=float)
    solver = parser.add_argument_group("solver")
    solver.add_argument("--dt", type=float)
    solver.add_argument("--k-grid", type=_csv(int), metavar="K1,K2,...")
    solver.add_argument("--k-over-d", type=float)
    solver.add_argument(
        "--svd-threshold",
        metavar="VALUE|auto",
        help="relative SVD cutoff, or 'auto' for ten times the noise level",
    )
    solver.add_argument("--n-eig", type=int)
    solver.add_argument("--magnitude-floor", type=float)
    solver.add_argument("--safety-fraction", type=float)
    run = parser.add_argument_group("run")
    run.add_argument("--trials", type=int)
    run.add_argument("--master-seed", type=int)
    run.add_argument("--workers", type=int)
    run.add_argument("--output-dir")


def _svd_threshold(text: str) -> "float | None":
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise ConfigError(
            f"--svd-threshold expects a number or 'auto', got {text!r}"
        ) from None


def _config_from_args(args: argparse.Namespace) -> "tuple[ExperimentConfig, dict]":
    """Configuration from ``--config`` overridden by flags, plus the
    driver arguments of a manifest given as ``--config``."""
    base, _, sweep_args = read_run_file(args.config) if args.config else ({}, None, {})
    for field in dataclasses.fields(ExperimentConfig):
        value = getattr(args, field.name)
        if value is None:
            continue
        if field.name == "svd_threshold":
            value = _svd_threshold(value)
        base[field.name] = value
    return config_from_dict(base), sweep_args


def _sweep_arg(args, sweep_args: dict, name: str):
    """A driver argument from its flag, else the manifest, else its default."""
    for value in (getattr(args, name), sweep_args.get(name), _SWEEP_DEFAULTS.get(name)):
        if value is not None:
            return value
    raise ConfigError(f"--{name.replace('_', '-')} is required (or supply a manifest)")


def _handle_sweep(args) -> int:
    config, sweep_args = _config_from_args(args)
    kwargs = {n: _sweep_arg(args, sweep_args, n) for n in SWEEP_KINDS[args.verb].args}
    directory = resolve_output_dir(config)
    created = [level for level in (directory, *directory.parents) if not level.exists()]
    try:
        # Before the sweep, so an unusable directory costs no finished cells.
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {directory}: {exc}") from None
    try:
        result = _run_sweep(args.verb, config, **kwargs)
    except BaseException:
        # A failed sweep leaves no directory behind: remove, deepest first,
        # the levels made above that are still empty.
        for level in created:
            try:
                level.rmdir()
            except OSError:
                break
        raise
    try:
        written = emit_outputs(result, directory)
    except OSError as exc:
        raise ConfigError(str(exc)) from None
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _handle_solve(args) -> int:
    config, _ = _config_from_args(args)
    for row in run_single_solve(config):
        energies = " ".join(f"{e:+.10f}" for e in row.energies)
        errors = " ".join(f"{e:.3e}" for e in row.abs_errors)
        print(f"{row.method}: energies [{energies}]")
        print(
            f"{row.method}: abs errors [{errors}]  residual {row.residual:.3e}  "
            f"rank {row.retained_rank}"
        )
    return EXIT_OK


def _handle_validate(args) -> int:
    config, _ = _config_from_args(args)
    shifted, *_, dt = resolve_inputs(config)
    print("configuration valid")
    print(f"  qubits: {shifted.n_qubits}  terms: {shifted.num_terms}")
    print(f"  dt: {dt!r}  svd threshold: {threshold_for(config)!r}")
    print(f"  output dir: {resolve_output_dir(config)}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modmd",
        description="Eigenvalue estimation experiments on simulated "
        "multi-observable real-time signals.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    verbs = {kind: (_handle_sweep, k.help, k.args) for kind, k in SWEEP_KINDS.items()}
    verbs["solve"] = (_handle_solve, "single eigenvalue estimate at the first K", {})
    verbs["validate-config"] = (_handle_validate, "check a configuration and exit", {})
    for verb, (handler, text, sweep_args) in verbs.items():
        verb_parser = sub.add_parser(verb, help=text)
        _add_config_arguments(verb_parser)
        verb_parser.set_defaults(handler=handler)
        for name, kind in sweep_args.items():
            flag, letter = "--" + name.replace("_", "-"), name[0].upper()
            if name.endswith("_grid"):
                metavar = f"{letter}1,{letter}2,..."
                verb_parser.add_argument(flag, type=_csv(kind), metavar=metavar)
            else:
                verb_parser.add_argument(flag, type=kind)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, DegenerateInputError, PauliParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except EigenvalueShortfallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SHORTFALL


if __name__ == "__main__":
    sys.exit(main())
