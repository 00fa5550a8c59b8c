"""Self-test of the benchmark's own machinery (not of smolab).

    python3 perfbench/selftest.py

Checks, against the checkout's ``src/smolab``:

1. two runs of a workload with the same seed write byte-identical reports and
   files for every command, and pass their checks;
2. a planted fault (one count in one report changed by one) fails exactly
   that command, so ``error_rate`` rises;
3. the metric names and units a run prints are the ones ``BENCHMARK.json``
   declares.

Exits 0 when all hold.  Takes a few minutes.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

FAULT_COMMAND = "frobstats n11.txt --x 100000000"


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"selftest failed: {message}")


def planted_fault(seed: int) -> None:
    """One count changed by one in a report of the last run must raise error_rate."""
    workdir = run.ROOT / ".perfbench_work" / "prime-scan"
    session = json.loads((workdir / "result.json").read_text())
    workload = workloads.build("prime-scan", seed)
    attempted, failed, _ = run.check_iterations(workload, session, workdir)
    expect(failed == 0, f"{failed} of {attempted} commands failed before the fault")
    index = next(i for i, c in enumerate(workload.commands) if c.key == FAULT_COMMAND)
    path = workdir / "it0" / f"report-{index}.json"
    report = json.loads(path.read_text())
    report["results"]["counts"][0] += 1
    path.write_text(json.dumps(report))
    attempted, failed, messages = run.check_iterations(workload, session, workdir)
    expect(failed == 1, f"planted fault gave {failed} failed commands, not 1")
    print(f"planted fault caught, error_rate {failed / attempted:g}: {messages[0]}")


def run_once(workload: str, seed: int, trace: int = 0) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def digests(workload: str) -> dict[str, str]:
    workdir = run.ROOT / ".perfbench_work" / workload / "it0"
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(workdir.iterdir())}


def same_seed_same_bytes(workload: str, seed: int) -> None:
    first = run_once(workload, seed)
    before = digests(workload)
    second = run_once(workload, seed)
    after = digests(workload)
    expect(first["correct"] and second["correct"], "a run failed its checks")
    expect(before == after, f"report bytes differ: {set(before.items()) ^ set(after.items())}")
    print(f"{workload} seed {seed}: {len(before)} files byte-identical across two runs")


def declared_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        got = {k: v["unit"] for k, v in run_once("prime-scan", 0, trace)["metrics"].items()}
        want = {m["name"]: m["unit"] for m in spec[section]}
        expect(got == want, f"{section}: printed {got} != declared {want}")
    print("printed metrics match BENCHMARK.json")


SEED = 7


def main() -> int:
    for workload in workloads.WORKLOADS:
        same_seed_same_bytes(workload, SEED)
    planted_fault(SEED)
    declared_metrics()
    return 0


if __name__ == "__main__":
    sys.exit(main())
