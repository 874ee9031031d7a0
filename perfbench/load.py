"""Seeded operation streams for the three workloads.

Each stream is an endless iterator of rounds, lists of plain tuples made from
the seed alone, so the same seed always issues the same operations in the
same order.  A round covers the workload's whole input set once, in a fresh
random order, and a run measures whole rounds: runs of different seeds then
carry the same mix and differ in order, in the values of lambda and in which
catalog faults are injected.

Lambda is drawn only where the paper certifies the result (see
``oracle.certified_regions``), as p/q with q up to ``MAX_DEN``: repeats of one
(case, degree, lambda) are rare, so a cache keyed by lambda cannot pass for a
faster engine.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import math
import random
from fractions import Fraction

from oracle import CASE_IDS, COROLLARIES, ROWS, certified_regions

F = Fraction
MAX_DEN = 97
THREEFOLD_PER_SCAN_ROUND = 6  # 54 delta queries + 6 threefold bounds: about one in ten
LOWER_REGIME_SHARE = 1 / 3  # for rows that have a lower-bound regime
DIGEST_OPS = 1000


def draw_lambda(rng: random.Random, lo: Fraction, hi: Fraction, hi_included: bool, lo_included: bool = True) -> Fraction:
    """A rational p/q in the interval, 2 <= q <= MAX_DEN, uniform over q then p."""
    while True:
        q = rng.randint(2, MAX_DEN)
        p_lo, p_hi = math.ceil(lo * q), math.floor(hi * q)
        if not lo_included and p_lo == lo * q:
            p_lo += 1
        if not hi_included and p_hi == hi * q:
            p_hi -= 1
        if p_lo <= p_hi:
            return F(rng.randint(p_lo, p_hi), q)


def _region(rng: random.Random, case: str, d: int):
    regions = certified_regions(case, d)
    if len(regions) > 1 and rng.random() < LOWER_REGIME_SHARE:
        return regions[1]
    return regions[0]


def scan_rounds(seed: int):
    """Rounds of ("delta", case, d, lambda) over all 54 rows plus ("threefold", index)."""
    rng = random.Random(f"scan:{seed}")
    while True:
        batch = []
        for case, d, *_ in ROWS:
            lo, hi, hi_included = _region(rng, case, d)
            batch.append(("delta", case, d, draw_lambda(rng, lo, hi, hi_included)))
        batch += [("threefold", rng.randrange(len(COROLLARIES))) for _ in range(THREEFOLD_PER_SCAN_ROUND)]
        rng.shuffle(batch)
        yield batch


def fault_descriptors(cases) -> list[tuple]:
    """Every single-number catalog fault of the fault-injection families:
    E.E and E.L intersection entries, m_C, k_E, m_L, and both parts of each
    different coefficient of the first variant."""
    out = []
    for case_id in sorted(cases):
        spec = cases[case_id]
        out += [("fault", case_id, "E.E"), ("fault", case_id, "m_C"), ("fault", case_id, "k_E")]
        if "L" in spec.model.curves:
            out.append(("fault", case_id, "E.L"))
        if spec.m_L is not None:
            out.append(("fault", case_id, "m_L"))
        for index in range(len(spec.variants[0].points)):
            out += [("fault", case_id, f"coeff{index}.0"), ("fault", case_id, f"coeff{index}.1")]
    return out


def apply_fault(spec, family: str):
    """The catalog entry with one transcribed number changed."""
    if family in ("E.E", "E.L"):
        gram = [list(row) for row in spec.model.gram]
        if family == "E.E":
            gram[0][0] += F(1, 7)
        else:
            gram[0][1] += F(1, 9)
            gram[1][0] += F(1, 9)
        return dataclasses.replace(spec, model=dataclasses.replace(spec.model, gram=tuple(map(tuple, gram))))
    if family in ("m_C", "k_E", "m_L"):
        return dataclasses.replace(spec, **{family: getattr(spec, family) + 1})
    index, part = map(int, family.removeprefix("coeff").split("."))
    var = spec.variants[0]
    coeff = list(var.points[index].coeff)
    coeff[part] += F(1, 8)
    points = list(var.points)
    points[index] = dataclasses.replace(points[index], coeff=tuple(coeff))
    return dataclasses.replace(spec, variants=(dataclasses.replace(var, points=tuple(points)),) + spec.variants[1:])


def verify_rounds(seed: int, faults: list[tuple]):
    """Rounds of ("case", id) for every case, the threefold section, the
    corollary suite, and one fault per case, its family drawn by the seed."""
    rng = random.Random(f"verify:{seed}")
    by_case: dict[str, list[tuple]] = {}
    for fault in faults:
        by_case.setdefault(fault[1], []).append(fault)
    while True:
        batch = [("case", case) for case in sorted(CASE_IDS)]
        batch += [("threefold_section",), ("corollary",)]
        batch += [rng.choice(by_case[case]) for case in sorted(by_case)]
        rng.shuffle(batch)
        yield batch


# one CLI round: mostly delta, then the other read-only subcommands
CLI_ROUND = ("delta",) * 12 + ("threefold",) * 2 + ("closed-form",) * 2 + ("scan",) * 2 + ("list", "table")


def cli_rounds(seed: int):
    """Rounds of the cli workload; ``cli_argv`` turns one operation into arguments."""
    rng = random.Random(f"cli:{seed}")
    while True:
        batch = []
        for kind in CLI_ROUND:
            if kind in ("delta", "closed-form", "scan"):
                case, d, *_ = rng.choice(ROWS)
                lo, hi, hi_included = _region(rng, case, d)
            if kind == "delta":  # the command accepts 0 < lambda < 3/d only
                batch.append(("delta", case, d, draw_lambda(rng, lo, hi, hi_included, lo_included=lo > 0)))
            elif kind == "closed-form":
                batch.append(("closed-form", case, d))
            elif kind == "scan":
                a = b = draw_lambda(rng, lo, hi, hi_included)
                while b == a:
                    b = draw_lambda(rng, lo, hi, hi_included)
                batch.append(("scan", case, d, min(a, b), max(a, b), rng.randint(3, 9)))
            elif kind == "threefold":
                batch.append(("threefold", rng.randrange(len(COROLLARIES))))
            else:
                batch.append((kind,))
        rng.shuffle(batch)
        yield batch


def cli_argv(op) -> list[str]:
    kind = op[0]
    if kind == "delta":
        args = ["delta", "--case", op[1], "--degree", str(op[2]), "--lambda", str(op[3])]
    elif kind == "closed-form":
        args = ["closed-form", "--case", op[1], "--degree", str(op[2])]
    elif kind == "scan":
        _, case, d, a, b, samples = op
        args = ["scan", "--case", case, "--degree", str(d), "--from", str(a), "--to", str(b), "--samples", str(samples)]
    elif kind == "threefold":
        _, threefold_kind, s, m, lam, cone, _, _ = COROLLARIES[op[1]]
        args = ["threefold", threefold_kind, "--lambda", str(lam), "--cone", cone]
        args += [] if s is None else ["--s", str(s)]
        args += [] if m is None else ["--m", str(m)]
    else:
        args = [kind]
    return args + ["--format", "json"]


def digest(ops) -> str:
    """sha256 over the canonical text of a sequence of operations."""
    h = hashlib.sha256()
    for op in ops:
        h.update(("|".join(map(str, op)) + "\n").encode())
    return h.hexdigest()[:16]


def load_digest(rounds) -> str:
    """Digest of the first DIGEST_OPS operations of fresh rounds."""
    return digest(itertools.islice(itertools.chain.from_iterable(rounds), DIGEST_OPS))
