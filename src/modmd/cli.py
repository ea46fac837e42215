"""Command-line interface for running and replaying experiments."""

from __future__ import annotations

import argparse
import locale  # loaded lazily by argparse's gettext; keep its import out of timed sweeps
import sys
from typing import get_args, get_origin

from .errors import (
    ConfigError,
    DegenerateInputError,
    EigenvalueShortfallError,
    PauliParseError,
    ResourceCapError,
)
from .harness import (
    _FIELD_HINTS,
    SWEEP_KINDS,
    ExperimentConfig,
    _check_window,
    _environment_notes,
    _run_sweep,
    _thread_budget,
    config_from_dict,
    depth_for_window,
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


# The flags that leave the rule of :func:`_flag`: a repeatable reference,
# and a threshold that also takes "auto".
_EXCEPTIONS = {
    "reference_bitstrings": ("--reference", {
        "action": "append", "metavar": "BITS",
        "help": "reference basis bitstring; repeat to superpose several",
    }),
    "svd_threshold": ("--svd-threshold", {
        "metavar": "VALUE|auto",
        "help": "relative SVD cutoff, or 'auto' for ten times the noise level",
    }),
}


def _flag(name: str, hint) -> "tuple[str, dict]":
    """``(flag, add_argument keywords)`` of a configuration field or a sweep
    argument annotated ``hint``: ``--<name with dashes>`` of the hint's type
    (the inner type of an optional, the entry type of a tuple), a tuple as
    a comma-separated list, except as :data:`_EXCEPTIONS` says."""
    if name in _EXCEPTIONS:
        flag, spec = _EXCEPTIONS[name]
        return flag, dict(spec, dest=name)
    kind = (get_args(hint) or (hint,))[0]
    spec = {"dest": name, "type": kind}
    if get_origin(hint) is tuple:
        letter = name[0].upper()
        spec.update(type=_csv(kind), metavar=f"{letter}1,{letter}2,...")
    return "--" + name.replace("_", "-"), spec


# Built once: a sweep's timed run parses its own command line.
_CONFIG_FLAGS = [
    ("--config", {
        "metavar": "PATH",
        "help": "JSON configuration file; a run manifest is accepted and its "
        "embedded config and grids are reused",
    }),
    *(_flag(name, hint) for name, hint in _FIELD_HINTS.items()),
]


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
    driver arguments of a manifest given as ``--config``, whose recorded
    environment fields that differ from this process's are noted on
    stderr."""
    base, sweep_args, versions = {}, {}, {}
    if args.config:
        base, _, sweep_args, versions = read_run_file(args.config)
    for note in _environment_notes(versions):
        print(f"note: {note}", file=sys.stderr)
    for name in _FIELD_HINTS:
        value = getattr(args, name)
        if value is None:
            continue
        if name == "svd_threshold":
            value = _svd_threshold(value)
        base[name] = value
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
    budget, cores, blas_threads = _thread_budget()
    if config.workers > budget:  # after the cells, so a refused run prints one line
        note = f"{budget} cells at once: {cores} cores at {blas_threads} BLAS threads each"
        print(f"note: workers {config.workers} runs {note}", file=sys.stderr)
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
    for K in config.k_grid:
        _check_window(config, depth_for_window(K, config.k_over_d), K)
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
        verb_parser.set_defaults(handler=handler)
        sweep_flags = [_flag(name, kind) for name, kind in sweep_args.items()]
        # A group's add_argument skips the parser's per-flag help formatting.
        for title, flags in (("configuration", _CONFIG_FLAGS), ("sweep", sweep_flags)):
            group = verb_parser.add_argument_group(title)
            for flag, spec in flags:
                group.add_argument(flag, **spec)
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
