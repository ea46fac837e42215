"""End-to-end benchmark of the modmd pipeline.

Runs one workload for a fixed time as a closed loop of CLI sweeps, each
in a fresh interpreter driving ``modmd.cli.main`` on a configuration file
the benchmark writes (seeded by ``--seed``). Every sweep's emitted files
are checked for correctness. The last line of standard output is one
JSON object with the check counts and the metrics: the end-to-end ones
with ``--trace 0``, and with ``--trace 1`` the per-layer ones from sweeps
run under the span recorder, alternating with untraced sweeps so the
tracing overhead is measured too.

    python3 bench/run.py --workload converge10 --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

``--smoke`` runs every workload at tiny sizes, both traced and untraced,
and checks the benchmark itself: every metric named in BENCHMARK.json is
emitted with its unit, and a wrong energy injected into an output raises
the failed-check count.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_tmp"
# A single sweep never comes near this; it only bounds a hung child.
CHILD_TIMEOUT_S = 120.0

END_TO_END_UNITS = {"setup_s": "s", "sweep_s": "s", "peak_rss_mb": "MB"}


def _git_commit(root: Path) -> "str | None":
    """Commit of a git checkout, read without running git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ram_mb = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                ram_mb = int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_mb": ram_mb,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": _git_commit(ROOT),
        "seed": seed,
    }


def _child_env(run_dir: Path) -> dict:
    env = dict(os.environ)
    # The CLI honours this override, which would send outputs elsewhere.
    env.pop("MODMD_OUTPUT_DIR", None)
    env["TMPDIR"] = str(run_dir)
    return env


def run_child(run_dir: Path, index: int, workload, config_path: Path, trace: bool) -> dict:
    """One sweep in a fresh interpreter; returns its report and file paths."""
    out_dir = run_dir / f"out{index}"
    request = {
        "src": str(SRC),
        "config": str(config_path),
        "argv": [workload.verb, "--config", str(config_path), "--output-dir", str(out_dir),
                 *workload.extra_argv],
        "trace_path": str(run_dir / f"spans{index}.json") if trace else None,
        "report_path": str(run_dir / f"report{index}.json"),
        "run_id": f"{workload.name}-{index}",
    }
    request_path = run_dir / f"request{index}.json"
    request_path.write_text(json.dumps(request))
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "child.py"), str(request_path)],
            cwd=ROOT, env=_child_env(run_dir), capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"exit_code": -1, "out_dir": out_dir, "stderr": "timed out"}
    report_path = Path(request["report_path"])
    if proc.returncode != 0 or not report_path.is_file():
        return {"exit_code": proc.returncode or 1, "out_dir": out_dir, "stderr": proc.stderr}
    report = json.loads(report_path.read_text())
    report["setup_s"] = report.pop("setup_done") - started
    report["out_dir"] = out_dir
    report["stderr"] = proc.stderr
    if trace and report["exit_code"] == 0:
        report["trace"] = json.loads(Path(request["trace_path"]).read_text())
    return report


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _prepare(workload, run_dir: Path):
    """Fresh run directory holding the workload's configuration file."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(workload.config, indent=2))
    return config_path, checks.reference_energies(workload.config)


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    workload = WORKLOADS[name](seed, smoke)
    config = workload.config
    run_dir = SCRATCH / f"{name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    try:
        config_path, reference = _prepare(workload, run_dir)
        # Untimed warm-up: compiles bytecode and fills the file cache.
        subprocess.run(
            [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(SRC)!r}); import modmd.cli"],
            cwd=ROOT, env=_child_env(run_dir), check=True, timeout=CHILD_TIMEOUT_S,
        )

        score = checks.Score()
        plain, traced, e0_errors, cells = [], [], [], []
        round_s = []
        deadline = time.monotonic() + seconds
        index = 0
        while True:
            round_start = time.monotonic()
            for with_trace in ((False, True) if trace else (False,)):
                report = run_child(run_dir, index, workload, config_path, with_trace)
                index += 1
                sweep_score, errors, n_cells = checks.score_sweep(
                    workload, report["out_dir"], report["exit_code"], reference
                )
                score.add(sweep_score)
                e0_errors.extend(errors)
                cells.append(n_cells)
                if report["exit_code"] != 0:
                    print(report["stderr"], file=sys.stderr)
                    continue
                (traced if with_trace else plain).append(report)
                shutil.rmtree(report["out_dir"], ignore_errors=True)
            round_s.append(time.monotonic() - round_start)
            if time.monotonic() + _median(round_s) > deadline:
                break

        if workload.shadow_check_steps:
            if str(SRC) not in sys.path:
                sys.path.insert(0, str(SRC))
            score.add(checks.score_shadow_estimator(config, workload.shadow_check_steps))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for message in score.messages[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    if trace:
        values = spans.layer_metrics([r["trace"] for r in traced])
        plain_sweep = _median([r["sweep_s"] for r in plain])
        traced_sweep = _median([r["sweep_s"] for r in traced])
        values["solver.e0_err_p50"] = _median(e0_errors)
        values["harness.cells"] = _median(cells)
        values["trace.overhead_frac"] = traced_sweep / plain_sweep - 1.0 if plain_sweep else 0.0
        values["fail_frac"] = score.failed / score.attempted
        units = spans.LAYER_UNITS
        ranking = spans.largest_self_times([r["trace"] for r in traced])
    else:
        values = {
            "setup_s": _median([r["setup_s"] for r in plain]),
            "sweep_s": _median([r["sweep_s"] for r in plain]),
            "peak_rss_mb": _median([r["peak_rss_mb"] for r in plain]),
        }
        units = END_TO_END_UNITS
        ranking = []
    return {
        "correct": score.failed == 0 and bool(plain) and (bool(traced) or not trace),
        "attempted": score.attempted,
        "failed": score.failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()},
        "sweep_s_samples": [r["sweep_s"] for r in plain],
        "largest_self_s": ranking,
    }


def _tamper_check() -> "list[str]":
    """An injected wrong energy, or a failed exit, must raise failed checks."""
    workload = WORKLOADS["converge10"](3, smoke=True)
    run_dir = SCRATCH / f"smoke-tamper-{os.getpid()}"
    problems = []
    try:
        config_path, reference = _prepare(workload, run_dir)
        report = run_child(run_dir, 0, workload, config_path, False)
        out_dir = report["out_dir"]
        clean, _, _ = checks.score_sweep(workload, out_dir, report["exit_code"], reference)
        results = out_dir / "sweep-k_results.csv"
        with results.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        target = next(r for r in rows if r["kind"] == "trial" and r["method"] == "modmd")
        target["energy_0"] = repr(float(target["energy_0"]) + 0.5)
        with results.open("w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]), lineterminator="\n")
            writer.writeheader()
            writer.writerows(rows)
        tampered, _, _ = checks.score_sweep(workload, out_dir, 0, reference)
        crashed, _, _ = checks.score_sweep(workload, out_dir, 1, reference)
        if clean.failed:
            problems.append(f"clean smoke sweep failed checks: {clean.messages}")
        if tampered.failed <= clean.failed:
            problems.append("an injected wrong energy did not raise the failed count")
        if crashed.failed != crashed.attempted or crashed.attempted != clean.attempted:
            problems.append("a nonzero exit did not fail every check of the sweep")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return problems


def smoke() -> int:
    """Tiny end-to-end runs of every workload, checked against BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = _tamper_check()
    for name in WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run_workload(name, seed=3, seconds=0, trace=trace, smoke=True)
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted:
                problems.append(f"{name} trace={int(trace)}: metrics {got} != {wanted}")
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: checks failed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "modmd" / "__init__.py").is_file():
        print(f"error: no modmd sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")

    print(json.dumps({"environment": environment(args.seed)}))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    for name, seconds in result["largest_self_s"]:
        print(f"self time {name} = {seconds:.4g} s")
    samples = " ".join(f"{v:.3f}" for v in result["sweep_s_samples"])
    print(f"sweep_s per untraced sweep: {samples}")
    print(f"{result['failed']} of {result['attempted']} checks failed")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
