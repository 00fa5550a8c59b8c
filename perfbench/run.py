"""Benchmark entry point: one workload run, checked, summarized as one JSON line.

    python3 perfbench/run.py --workload prime-scan --seed 1 --seconds 25 --trace 0

Run from anywhere; the checkout is the directory above this file and its
``src/smolab`` is what gets measured.  The run:

1. runs the workload in a fresh process (``session.py``) for about
   ``--seconds`` seconds, in ``.perfbench_work/<workload>/`` of the checkout,
   timing ``import smolab`` in fresh interpreters between iterations;
2. checks every report of every iteration (golden copy plus oracles);
3. prints a readable summary, the machine facts, and as its last line
   ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
   with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Exit status is 0 when a result was printed, 2 when the checkout has no smolab
sources, and 1 when the workload process failed or ran out of time.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import workloads  # noqa: E402

SESSION_TIMEOUT_S = 165.0

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mib": "MiB", "setup_s": "s",
                    "success_rate": "ratio"}


def child_env() -> dict[str, str]:
    """The environment every smolab process of the benchmark runs in."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["SOURCE_DATE_EPOCH"] = "0"  # report timestamps
    env.pop("SMOLAB_WORKERS", None)  # the CLI default, one worker
    return env


def run_session(args, workdir: Path, env: dict[str, str], timeout: float) -> dict:
    out = workdir / "result.json"
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--src", str(SRC), "--out", str(out)]
    with subprocess.Popen(cmd, cwd=workdir, env=env, stdout=sys.stderr) as proc:
        try:
            proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"workload process exceeded {timeout:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with status {proc.returncode}")
    return json.loads(out.read_text())


def check_iterations(workload, session: dict, workdir: Path) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages) over every command of every iteration."""
    golden = check.load_golden(workload.name)
    attempted = failed = 0
    messages = []
    for it in session["iterations"]:
        directory = workdir / it["dir"]
        for i, (command, failure) in enumerate(zip(workload.commands, it["failures"])):
            attempted += 1
            errors = [failure] if failure else check.check_command(
                command, directory, f"report-{i}.json", golden)
            if errors:
                failed += 1
                messages.append(f"{it['dir']} {command.key}: {'; '.join(errors)}")
    return attempted, failed, messages


def end_to_end(session: dict, attempted: int, failed: int) -> dict:
    plain = [it for it in session["iterations"] if not it["traced"]]
    values = {
        "wall_s": statistics.median(it["wall_s"] for it in plain),
        "cpu_s": statistics.median(it["cpu_s"] for it in plain),
        "peak_rss_mib": session["peak_rss_mib"],
        "setup_s": session["setup_s"],
        "success_rate": 1.0 - failed / attempted,
    }
    return {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in values.items()}


def per_layer(session: dict) -> dict:
    from tracer import PER_LAYER_UNITS

    values = session["per_layer"]
    if values.keys() != PER_LAYER_UNITS.keys():
        raise RuntimeError(f"per-layer metrics {sorted(values)} != {sorted(PER_LAYER_UNITS)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in sorted(PER_LAYER_UNITS.items())}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.perf_counter()
    if not (SRC / "smolab" / "__init__.py").is_file():
        sys.stderr.write(f"no smolab sources under {SRC}; run from a checkout of the repository\n")
        return 2
    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = child_env()
    try:
        timeout = SESSION_TIMEOUT_S - (time.perf_counter() - started)
        session = run_session(args, workdir, env, timeout)
    except RuntimeError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    workload = workloads.build(args.workload, args.seed)
    attempted, failed, messages = check_iterations(workload, session, workdir)
    for message in messages:
        sys.stderr.write(f"check failed: {message}\n")

    metrics = per_layer(session) if args.trace else end_to_end(session, attempted, failed)
    n = len(session["iterations"])
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}: {n} iterations, {attempted} commands, {failed} failed "
          f"(error_rate {failed / attempted:g})")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"machine": session["machine"]}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
