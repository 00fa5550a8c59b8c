"""One workload run in a fresh process: time the CLI commands, optionally traced.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
Each iteration runs the workload's commands in-process through
``smolab.cli.main`` in its own directory ``it<k>`` (inputs written there
before the clock starts), so every report and generated file stays on disk
for ``run.py`` to check.  Between untraced iterations, fresh interpreters
time ``import smolab`` (the set-up time).  With ``--trace 1``, a first
untraced iteration warms the process up (it is markedly slower than later
ones), then traced and untraced iterations alternate; the traced iteration
of median wall time gives the per-layer metrics, and the side probes run
after the last iteration.  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

MIN_ITERATIONS = 3
# set-up is timed between iterations, so its samples span the same minutes
# of machine time as the iterations do
IMPORTS_PER_ITERATION = 2


def run_command(main, argv: list[str]) -> str | None:
    """None on success, else why the command failed (the clock keeps running)."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception:
        traceback.print_exc()
        return "raised " + traceback.format_exc().strip().splitlines()[-1]
    return None if code == 0 else f"exit status {code}"


def run_iteration(workload, directory: Path, main) -> dict:
    """Run every command once in ``directory``; wall and CPU cover the commands only."""
    workloads.write_inputs(workload, directory)
    home = os.getcwd()
    os.chdir(directory)
    try:
        failures, ends = [], []
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        for i, command in enumerate(workload.commands):
            failures.append(run_command(main, ["--output", f"report-{i}.json", *command.argv]))
            ends.append(time.perf_counter())
        cpu = time.process_time() - cpu0
    finally:
        os.chdir(home)
    command_s = [b - a for a, b in zip([wall0, *ends], ends)]
    return {"dir": directory.name, "wall_s": ends[-1] - wall0, "cpu_s": cpu,
            "command_s": command_s, "failures": failures}


def time_import() -> float:
    """Seconds from starting a fresh interpreter to ``import smolab`` finished."""
    code = "import smolab, sys; sys.stdout.write('ok\\n'); sys.stdout.flush()"
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        proc.wait()
    if line != b"ok\n" or proc.returncode != 0:
        raise RuntimeError("import smolab failed in a fresh interpreter")
    return elapsed


def machine_facts() -> dict:
    import numpy as np

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "blas_threads": _blas_threads(np),
    }


def _blas_threads(np) -> int | None:
    """Thread count reported by the OpenBLAS that numpy bundles, if it is found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


# -- side probes (traced runs only) -------------------------------------------------

PROBE_SIEVE_LIMIT = 10**8
PROBE_SIEVE_REPEATS = 3
PROBE_MASK_LIMIT = 1 << 21
PROBE_MASK_REPEATS = 7


def probe_parallel_efficiency() -> float:
    """prime_count(1e8) at 1 vs 2 workers: t1 / (2 t2); 1.0 is perfect scaling."""
    from smolab.sieve import prime_count

    times = {1: [], 2: []}
    for _ in range(PROBE_SIEVE_REPEATS):
        for workers in (1, 2):
            t0 = time.perf_counter()
            prime_count(PROBE_SIEVE_LIMIT, workers=workers)
            times[workers].append(time.perf_counter() - t0)
    return statistics.median(times[1]) / (2 * statistics.median(times[2]))


def probe_mask_ns_per_prime() -> dict[str, float]:
    """Selector mask cost per offered prime, one selector of each kind, fixed primes."""
    from smolab.fields import FieldSpec
    from smolab.selectors import (Complement, CongruenceSelector, DegreeSelector,
                                  ExplicitList, Intersection, Union)
    from smolab.sieve import prime_array

    primes = prime_array(PROBE_MASK_LIMIT)
    cubic = DegreeSelector(FieldSpec(7, (6,)), 1)
    mod8 = CongruenceSelector(8, frozenset({1}))
    selectors = {
        "mod": mod8,
        "degree": cubic,
        "list": ExplicitList(tuple(int(p) for p in primes[primes <= workloads.SATAKE_LIMIT])),
        "compound": Intersection(Union(mod8, CongruenceSelector(8, frozenset({3}))),
                                 Complement(cubic)),
    }
    out = {}
    for kind, selector in selectors.items():
        times = []
        for _ in range(PROBE_MASK_REPEATS):
            t0 = time.perf_counter_ns()
            selector.mask(primes)
            times.append(time.perf_counter_ns() - t0)
        out[f"selectors.mask_ns_per_prime.{kind}"] = statistics.median(times) / len(primes)
    return out


# -- the run ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True, help="the smolab source tree to measure")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    import smolab
    import smolab.cli

    src = Path(args.src).resolve()
    if src not in Path(smolab.__file__).resolve().parents:
        sys.stderr.write(f"imported smolab from {smolab.__file__}, not from {src}\n")
        return 2
    workload = workloads.build(args.workload, args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()

    iterations = []
    imports = []
    traced_layers = []
    traced_spans = []
    start = time.perf_counter()
    while True:
        k = len(iterations)
        traced = tracer is not None and k % 2 == 1
        main_fn = smolab.cli.main
        if traced:
            tracer.reset()
            tracer.install()
            main_fn = tracer.wrap("cli.command", smolab.cli.main)
        try:
            it = run_iteration(workload, Path(f"it{k}"), main_fn)
        finally:
            if traced:
                tracer.uninstall()
        it["traced"] = traced
        if traced:
            traced_layers.append(tracer.layer_metrics(it["wall_s"]))
            traced_spans.append(tracer.spans())
        iterations.append(it)
        if not args.trace:
            imports.extend(time_import() for _ in range(IMPORTS_PER_ITERATION))
        elapsed = time.perf_counter() - start
        if len(iterations) >= MIN_ITERATIONS and elapsed + it["wall_s"] > args.seconds:
            break

    result = {
        "workload": workload.name,
        "seed": args.seed,
        "iterations": iterations,
        "setup_s": statistics.median(imports) if imports else None,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "machine": machine_facts(),
    }
    if tracer is not None:
        result["per_layer"] = summarize_traced(iterations, traced_layers)
        write_spans(traced_spans, Path(args.out).with_name("spans.npz"))
    Path(args.out).write_text(json.dumps(result))
    return 0


def summarize_traced(iterations, traced_layers) -> dict:
    """The traced iteration of median wall time, the tracing overhead, the side probes.

    One iteration's figures are reported whole, not per-metric medians, so
    the self times plus ``cli.unattributed_s`` still add up to its wall time.
    """
    traced = [it["wall_s"] for it in iterations if it["traced"]]
    plain = [it["wall_s"] for it in iterations[1:] if not it["traced"]]
    chosen = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    layers = dict(traced_layers[chosen])
    layers["trace.overhead_s"] = traced[chosen] - statistics.median(plain)
    layers["sieve.parallel_efficiency"] = 0.0
    if layers["sieve.segments"] > 0:
        layers["sieve.parallel_efficiency"] = probe_parallel_efficiency()
    kinds = ("mod", "degree", "list", "compound")
    layers.update({f"selectors.mask_ns_per_prime.{k}": 0.0 for k in kinds})
    if layers["selectors.mask_calls"] + layers["selectors.contains_calls"] > 0:
        layers.update(probe_mask_ns_per_prime())
    return layers


def write_spans(traced_spans, path: Path) -> None:
    import numpy as np
    from tracer import SPAN_NAMES

    arrays = {"span_names": np.array(SPAN_NAMES)}
    for k, spans in enumerate(traced_spans):
        arrays.update({f"iteration{k}_{key}": value for key, value in spans.items()})
    np.savez_compressed(path, **arrays)


if __name__ == "__main__":
    sys.exit(main())
