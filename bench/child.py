"""One benchmark sweep in a fresh interpreter.

``run.py`` starts this script once per measured sweep with the path of a
request file. The script imports ``modmd`` from the checkout's ``src``,
validates the workload configuration and builds the problem once (the
set-up every sweep pays), then calls ``modmd.cli.main`` and writes a
report: the monotonic time set-up finished, the wall time of the CLI
call, its exit code and the process's peak resident memory. With tracing
on, the CLI call runs under a span recorder whose spans are written out
after the call returns.

    python3 bench/child.py REQUEST.json
"""

from __future__ import annotations

import contextlib
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def main(request_path: str) -> int:
    request = json.loads(Path(request_path).read_text())
    src = Path(request["src"])
    sys.path.insert(0, str(src))
    import modmd
    from modmd import cli, harness

    if src not in Path(modmd.__file__).resolve().parents:
        print(f"modmd imported from {modmd.__file__}, not from {src}", file=sys.stderr)
        return 2
    config = harness.load_config(request["config"])
    harness.build_problem(config)
    setup_done = time.monotonic()

    recorder = None
    if request["trace_path"]:
        import spans

        recorder = spans.SpanRecorder(request["run_id"])
        spans.install(recorder)
    root_span = recorder.span("cli.main") if recorder else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with root_span:
            code = cli.main(request["argv"])
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        code = 1
    sweep_s = time.perf_counter() - start
    if recorder is not None:
        recorder.restore()
        recorder.dump(Path(request["trace_path"]))

    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(request["report_path"]).write_text(
        json.dumps(
            {
                "setup_done": setup_done,
                "sweep_s": sweep_s,
                "exit_code": code,
                "peak_rss_mb": peak_kib / 1024.0,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
