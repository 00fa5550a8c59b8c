"""Outside-in tracing of smolab: spans recorded around calls into each module.

The tracer replaces, for the duration of a traced iteration, the public names
each smolab module imports from another one (``smolab.density.segment_map``,
``smolab.euler.iter_prime_segments``, ...), the selector ``mask``/``contains``
methods, the ``RepresentationData`` callbacks and ``numpy.linalg.eig``, with
wrappers that record a span (name, start, end, parent) and a few counts.  The
program itself is not edited.  Spans stay in memory and are written out when
the run ends; layer self times are span durations minus their children.

Spans are kept on one stack, so a traced run must use one worker thread.
"""

from __future__ import annotations

import math
from array import array
from time import perf_counter_ns

import numpy as np

# span name -> the per-layer self-time metric its self time adds to
SPAN_METRIC = {
    "cli.command": "cli.unattributed_s",
    "sieve.segment_map": "sieve.self_s",
    "sieve.next": "sieve.self_s",
    "sieve.prime_array": "sieve.self_s",
    "selectors.mask": "selectors.mask_s",
    "selectors.contains": "selectors.contains_s",
    "density.kernel": "density.kernel_s",
    "experiments.kernel": "experiments.kernel_s",
    "experiments.scan": "experiments.scan_self_s",
    "hecke.callback": "hecke.callback_s",
    "hecke.parse": "hecke.parse_s",
    "euler.local": "euler.local_s",
    "euler.log_expansion": "euler.log_expansion_s",
    "tau.discriminant": "tau.discriminant_s",
    "tau.poly_mul": "tau.poly_mul_s",
    "groups.build": "groups.build_s",
    "groups.conjugacy": "groups.conjugacy_s",
    "characters.table": "characters.table_self_s",
    "characters.eig": "characters.eig_s",
    "characters.extremal": "characters.extremal_s",
    "report.emit": "report.emit_s",
}
SPAN_NAMES = tuple(SPAN_METRIC)
SELF_METRICS = tuple(dict.fromkeys(m for m in SPAN_METRIC.values() if m != "cli.unattributed_s"))

# every per-layer metric a traced run reports, with its unit
PER_LAYER_UNITS = {
    **{metric: "s" for metric in SELF_METRICS},
    "cli.unattributed_s": "s",
    "trace.overhead_s": "s",
    "sieve.segments": "count",
    "sieve.primes": "count",
    "sieve.primes_per_s": "1/s",
    "sieve.parallel_efficiency": "ratio",
    "selectors.mask_calls": "count",
    "selectors.selectivity": "ratio",
    "selectors.contains_calls": "count",
    **{f"selectors.mask_ns_per_prime.{kind}": "ns" for kind in ("mod", "degree", "list", "compound")},
    "hecke.callback_calls": "count",
    "euler.local_calls": "count",
    "euler.log_coefficients": "count",
    "tau.poly_mul_calls": "count",
    "characters.attempts": "count",
    "report.bytes": "B",
}

COUNTS = ("sieve.segments", "sieve.primes", "selectors.mask_calls", "selectors.offered",
          "selectors.selected", "selectors.contains_calls", "hecke.callback_calls",
          "euler.local_calls", "euler.log_coefficients", "tau.poly_mul_calls",
          "characters.attempts", "report.bytes")


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        self._id = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._selector_ids = {self._id["selectors.mask"], self._id["selectors.contains"]}
        self.reset()
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.name = array("h")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts = dict.fromkeys(COUNTS, 0)

    # -- spans ---------------------------------------------------------------------

    def begin(self, name_id: int) -> int:
        i = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, span: str, fn, after=None):
        """``fn`` inside a span; ``after(span index, args, result)`` counts."""
        name_id = self._id[span]

        def traced(*args, **kwargs):
            i = self.begin(name_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.finish(i)
            if after is not None:
                after(i, args, out)
            return out

        return traced

    def _outermost_selector(self, i: int) -> bool:
        parent = self.parent[i]
        return parent < 0 or self.name[parent] not in self._selector_ids

    # -- patching ------------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _patch_span(self, owner, attr: str, span: str, after=None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patch(owner, attr, self.wrap(span, original, after))

    def install(self) -> None:
        import smolab.characters
        import smolab.cli
        import smolab.density
        import smolab.euler
        import smolab.experiments
        import smolab.groups
        import smolab.hecke
        import smolab.selectors
        import smolab.sieve
        import smolab.tau

        counts = self.counts

        def count(key):
            def after(i, args, out):
                counts[key] += 1
            return after

        # sieve: every place a module imports a prime walker from smolab.sieve
        for module, kernel in ((smolab.density, "density.kernel"),
                               (smolab.experiments, "experiments.kernel")):
            self._patch(module, "segment_map", self._traced_segment_map(kernel))
        for module in (smolab.euler, smolab.experiments):
            self._patch(module, "iter_prime_segments", self._traced_iter_prime_segments())
        span = smolab.sieve.SEGMENT_SPAN

        def count_prime_array(i, args, out):
            counts["sieve.primes"] += len(out)
            counts["sieve.segments"] += max(0, math.ceil((int(args[0]) - 1) / span))

        for module in (smolab.tau, smolab.experiments):
            self._patch_span(module, "prime_array", "sieve.prime_array", count_prime_array)

        # selectors: mask on every concrete selector class, contains on the base
        def count_mask(i, args, out):
            if self._outermost_selector(i):
                counts["selectors.mask_calls"] += 1
                counts["selectors.offered"] += len(args[1])
                counts["selectors.selected"] += int(np.count_nonzero(out))

        for cls in _subclasses(smolab.selectors.PrimeSelector):
            if "mask" in cls.__dict__:
                self._patch_span(cls, "mask", "selectors.mask", count_mask)
        self._patch_span(smolab.selectors.PrimeSelector, "contains", "selectors.contains",
                         count("selectors.contains_calls"))

        # hecke: per-prime callbacks and the eigenvalue-file parser
        for method in ("coefficient", "satake", "local_factor"):
            self._patch_span(smolab.hecke.RepresentationData, method, "hecke.callback",
                             count("hecke.callback_calls"))
        self._patch_span(smolab.cli, "load_hecke", "hecke.parse")

        # euler: local factor arithmetic wherever it is imported, and log expansion
        for module in (smolab.euler, smolab.experiments, smolab.hecke):
            for name in ("eval_local", "rankin_selberg_local"):
                if hasattr(module, name):
                    self._patch_span(module, name, "euler.local", count("euler.local_calls"))

        def count_log(i, args, out):
            counts["euler.log_coefficients"] += len(out.coefficients)

        for module in (smolab.euler, smolab.experiments):
            self._patch_span(module, "log_expansion", "euler.log_expansion", count_log)

        # experiments: the per-prime scans
        for name in ("compare_local", "z_ratio", "tempered_bound_check"):
            self._patch_span(smolab.experiments, name, "experiments.scan")

        # tau
        self._patch_span(smolab.tau, "discriminant_coefficients", "tau.discriminant")
        self._patch_span(smolab.tau, "poly_mul_trunc", "tau.poly_mul",
                         count("tau.poly_mul_calls"))

        # groups and characters
        self._patch_span(smolab.groups, "catalog", "groups.build")
        self._patch_span(smolab.groups.FiniteGroup, "conjugacy_classes", "groups.conjugacy")
        self._patch_span(smolab.characters, "character_table", "characters.table")
        self._patch_span(smolab.characters, "extremal_search", "characters.extremal")
        self._patch_span(np.linalg, "eig", "characters.eig", count("characters.attempts"))

        # report
        def count_bytes(i, args, out):
            counts["report.bytes"] += len(out.encode())

        self._patch_span(smolab.cli, "emit", "report.emit", count_bytes)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _traced_segment_map(self, kernel_span: str):
        import smolab.sieve

        original = smolab.sieve.segment_map
        counts = self.counts

        def count_segment(i, args, out):
            counts["sieve.segments"] += 1
            counts["sieve.primes"] += len(args[0])

        def segment_map(limit, fn, workers=None):
            return original(limit, self.wrap(kernel_span, fn, count_segment), workers=workers)

        return self.wrap("sieve.segment_map", segment_map)

    def _traced_iter_prime_segments(self):
        import smolab.sieve

        original = smolab.sieve.iter_prime_segments
        next_id = self._id["sieve.next"]
        counts = self.counts

        def iter_prime_segments(limit):
            segments = original(limit)
            while True:
                i = self.begin(next_id)
                try:
                    seg = next(segments)
                except StopIteration:
                    return
                finally:
                    self.finish(i)
                counts["sieve.segments"] += 1
                counts["sieve.primes"] += len(seg)
                yield seg

        return iter_prime_segments

    # -- results -------------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {"name": np.frombuffer(self.name, dtype=np.int16).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
                "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
                "end_ns": np.frombuffer(self.end, dtype=np.int64).copy()}

    def layer_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer self times and counts of the spans recorded since ``reset``."""
        spans = self.spans()
        duration = (spans["end_ns"] - spans["start_ns"]).astype(np.float64) / 1e9
        parent = spans["parent"]
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent],
                               minlength=len(duration))
        own = duration - children
        by_name = np.bincount(spans["name"], weights=own, minlength=len(SPAN_NAMES))
        out = dict.fromkeys(SELF_METRICS, 0.0)
        for name, metric in SPAN_METRIC.items():
            if metric in out:
                out[metric] += float(by_name[self._id[name]])
        c = self.counts
        out.update({
            "sieve.segments": c["sieve.segments"],
            "sieve.primes": c["sieve.primes"],
            "sieve.primes_per_s": (c["sieve.primes"] / out["sieve.self_s"]
                                   if out["sieve.self_s"] > 0 else 0.0),
            "selectors.mask_calls": c["selectors.mask_calls"],
            "selectors.selectivity": (c["selectors.selected"] / c["selectors.offered"]
                                      if c["selectors.offered"] else 0.0),
            "selectors.contains_calls": c["selectors.contains_calls"],
            "hecke.callback_calls": c["hecke.callback_calls"],
            "euler.local_calls": c["euler.local_calls"],
            "euler.log_coefficients": c["euler.log_coefficients"],
            "tau.poly_mul_calls": c["tau.poly_mul_calls"],
            "characters.attempts": c["characters.attempts"],
            "report.bytes": c["report.bytes"],
        })
        # everything no layer span covers: command self time plus the gaps between commands
        out["cli.unattributed_s"] = wall_s - sum(out[m] for m in SELF_METRICS)
        return out


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out
