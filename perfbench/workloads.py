"""The benchmark's workloads: inputs generated from a seed, and the CLI commands run on them.

Each workload is a list of ``Command``s.  A command's report is compared with
a golden report when ``golden`` is set (the golden key is the argv joined by
spaces, so every seed variant has its own golden entry) and is passed through
its ``oracles``, which check properties that hold independently of any
earlier run.  The program sees only the generated input files; the seed never
reaches it except through them and through the synthetic source seeds it
names on the command line.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from pathlib import Path

import check

# prime counts used by the oracles: pi(10^6), pi(10^7), pi(10^8)
PRIME_PI = {10**6: 78498, 10**7: 664579, 10**8: 5761455}

FIELD_N11 = "n11.txt"       # N=11, H trivial: the degree-10 cyclotomic field
FIELD_N7_H6 = "n7h6.txt"    # N=7, H=<6>: the cubic subfield of Q(zeta_7)
SATAKE_CSV = "satake.csv"

MOD4 = (1, 3)
MOD8 = (1, 3, 5, 7)
MOD8_PAIRS = tuple(combinations(MOD8, 2))

TAU_LIMIT = 20_000
SATAKE_LIMIT = 20_000
POSITIVITY_MAX_INDEX = 1_000_000


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    golden: bool = True
    oracles: tuple = ()

    @property
    def key(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    commands: tuple[Command, ...]
    # input files written into every iteration directory before it is timed
    inputs: dict[str, str] = field(default_factory=dict)


# -- prime-scan -------------------------------------------------------------------


def _reference_counts(grid, ramified):
    return [PRIME_PI[x] - sum(1 for p in ramified if p <= x) for x in grid]


def natural_mod4(r: int) -> Command:
    grid = (10**6, 10**7, 10**8)
    return Command(("density", "natural", "--selector", f"mod:4:{r}", "--x", "1e6,1e7,1e8"),
                   oracles=(partial(check.natural_reference_counts,
                                    expected=_reference_counts(grid, {2})),))


def dirichlet_mod8(r: int) -> Command:
    return Command(("density", "dirichlet", "--selector", f"mod:8:{r}",
                    "--s", "1.5,1.25,1.1", "--cutoff", "100000000"))


def frobstats_n11() -> Command:
    return Command(("frobstats", FIELD_N11, "--x", "100000000"),
                   oracles=(partial(check.frobstats_total,
                                    expected=PRIME_PI[10**8] - 1),))


def poleorder_mod4(r: int) -> Command:
    return Command(("smo", "poleorder", "--selector", f"mod:4:{r}", "--eps", "1/16,1/12,1/8"))


def natural_compound(a: int, b: int) -> Command:
    grid = (10**7, 10**8)
    selector = f"(mod:8:{a} or mod:8:{b}) and not degree:{FIELD_N7_H6}:1"
    return Command(("density", "natural", "--selector", selector, "--x", "1e7,1e8"),
                   oracles=(partial(check.natural_reference_counts,
                                    expected=_reference_counts(grid, {2, 7})),))


PRIME_SCAN_INPUTS = {FIELD_N11: "N=11\n", FIELD_N7_H6: "N=7\nH=6\n"}


def prime_scan(seed: int) -> Workload:
    rng = random.Random(f"prime-scan:{seed}")
    commands = (
        natural_mod4(rng.choice(MOD4)),
        dirichlet_mod8(rng.choice(MOD8)),
        frobstats_n11(),
        poleorder_mod4(rng.choice(MOD4)),
        natural_compound(*rng.choice(MOD8_PAIRS)),
    )
    return Workload("prime-scan", commands, dict(PRIME_SCAN_INPUTS))


def prime_scan_golden() -> Workload:
    """Every command any seed can choose, for taking golden reports."""
    commands = ([natural_mod4(r) for r in MOD4] + [dirichlet_mod8(r) for r in MOD8]
                + [frobstats_n11()] + [poleorder_mod4(r) for r in MOD4]
                + [natural_compound(a, b) for a, b in MOD8_PAIRS])
    return Workload("prime-scan", tuple(commands), dict(PRIME_SCAN_INPUTS))


# -- coefficient-scan ---------------------------------------------------------------


def _small_primes(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i::i] = bytes(len(range(i * i, limit + 1, i)))
    return [i for i, f in enumerate(flags) if f]


def self_pairing_csv(seed: int) -> str:
    """Satake rows of A x conj(A) for a tempered degree-2 A with seeded angles.

    A has parameters e^{+-i theta_p}, so the pairing has {1, e^{2i theta},
    e^{-2i theta}, 1}; its log coefficients (2 + 2 cos(2 m theta)) / m are
    nonnegative, so the product is of positive type for every seed.
    """
    rng = random.Random(f"satake:{seed}")
    lines = ["p,q,a1_re,a1_im,a2_re,a2_im,a3_re,a3_im,a4_re,a4_im"]
    for p in _small_primes(SATAKE_LIMIT):
        theta = rng.uniform(0.0, math.pi)
        c, s = math.cos(2 * theta), math.sin(2 * theta)
        values = (1.0, 0.0, c, s, c, -s, 1.0, 0.0)
        lines.append(",".join([str(p), str(p)] + [repr(v) for v in values]))
    return "\n".join(lines) + "\n"


def gen_tau() -> Command:
    return Command(("data", "gen-tau", "--limit", str(TAU_LIMIT), "--out", "tau.csv"),
                   oracles=(check.tau_file,))


def tempered_tau() -> Command:
    return Command(("smo", "tempered", "--data", "tau.csv", "--selector", "mod:8:1"))


def positivity() -> Command:
    return Command(("euler", "positivity", "--data", SATAKE_CSV,
                    "--max-index", str(POSITIVITY_MAX_INDEX)),
                   oracles=(check.positive_type,))


def coefficient_scan(seed: int) -> Workload:
    rng = random.Random(f"coefficient-scan:{seed}")
    s = rng.randrange(1, 10**6)
    tau_primes = len(_small_primes(TAU_LIMIT))
    commands = (
        gen_tau(),
        Command(("smo", "compare", "--data", "tau.csv", "--data2", f"synthetic:{s}",
                 "--x", str(TAU_LIMIT)), golden=False,
                oracles=(partial(check.compare_invariants, compared=tau_primes),)),
        Command(("smo", "compare", "--data", f"synthetic:{s}", "--data2", f"synthetic:{s + 1}",
                 "--x", "1000000"), golden=False,
                oracles=(partial(check.compare_invariants, compared=PRIME_PI[10**6]),)),
        Command(("smo", "zratio", "--data", "tau.csv", "--data2", f"synthetic:{s}",
                 "--selector", "all", "--s", "1.25,1.5"), golden=False,
                oracles=(partial(check.zratio_invariants,
                                 primes_used=len(_small_primes(10**4))),)),
        tempered_tau(),
        positivity(),
    )
    return Workload("coefficient-scan", commands, {SATAKE_CSV: self_pairing_csv(seed)})


def coefficient_scan_golden() -> Workload:
    return Workload("coefficient-scan", (gen_tau(), tempered_tau(), positivity()),
                    {SATAKE_CSV: self_pairing_csv(0)})


# -- character-tables -------------------------------------------------------------

TABLE_GROUPS = ("q8_power_family(3)", "direct_product(q8_power_family(2),dihedral(5))",
                "cyclic(120)", "symmetric(6)")


def character_tables(seed: int) -> Workload:
    """Catalog groups only: no generated inputs, so the seed changes nothing.

    The command order stays fixed too: shuffling it moved peak memory by 20%
    between seeds through heap reuse, with the same work done.
    """
    commands = [Command(("charlab", "table", g), oracles=(check.character_table,))
                for g in TABLE_GROUPS]
    commands.append(Command(("charlab", "extremal", "q8_power_family(3)", "--degree", "8"),
                            oracles=(partial(check.extremal_fraction, expected="127/128"),)))
    commands.append(Command(("charlab", "extremal", "dihedral(60)", "--degree", "2")))
    return Workload("character-tables", tuple(commands))


# name -> (the workload for a seed, every golden-checked command any seed can choose)
WORKLOADS = {
    "prime-scan": (prime_scan, prime_scan_golden),
    "coefficient-scan": (coefficient_scan, coefficient_scan_golden),
    "character-tables": (character_tables, lambda: character_tables(0)),
}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name][0](seed)


def write_inputs(workload: Workload, directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in workload.inputs.items():
        (directory / name).write_text(text)
