"""Take the golden reports the correctness checks compare against.

    python3 perfbench/golden.py [workload ...]

Runs every golden-checked command any seed can choose, once, against the
checkout's ``src/smolab``, checks each report with its oracles, and writes
``perfbench/golden/<workload>.json.gz``.  Run it only at a commit whose
reports are known to be right; a golden copy taken from wrong output makes
the benchmark accept wrong output.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

GOLDEN_FILES = ("tau.csv",)


def take(name: str) -> dict:
    workload = workloads.WORKLOADS[name][1]()
    workdir = run.ROOT / ".perfbench_work" / "golden" / name
    shutil.rmtree(workdir, ignore_errors=True)
    workloads.write_inputs(workload, workdir)
    reports, files = {}, {}
    for i, command in enumerate(workload.commands):
        argv = [sys.executable, "-m", "smolab.cli", "--output", f"report-{i}.json", *command.argv]
        subprocess.run(argv, cwd=workdir, env=run.child_env(), check=True)
        reports[command.key] = json.loads((workdir / f"report-{i}.json").read_text())
    for file_name in GOLDEN_FILES:
        if (workdir / file_name).exists():
            files[file_name] = hashlib.sha256((workdir / file_name).read_bytes()).hexdigest()
    golden = {"reports": reports, "files": files}
    for i, command in enumerate(workload.commands):
        errors = check.check_command(command, workdir, f"report-{i}.json", golden)
        if errors:
            raise SystemExit(f"{name}: {command.key}: {errors}")
    return golden


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    check.GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        golden = take(name)
        data = json.dumps(golden, sort_keys=True, separators=(",", ":")).encode()
        check.golden_path(name).write_bytes(gzip.compress(data, mtime=0))
        print(f"{name}: {len(golden['reports'])} reports, {len(golden['files'])} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
