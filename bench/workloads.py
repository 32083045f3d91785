"""Seeded job lists for the benchmark workloads, and the checks on their answers.

A job is a short list of ``extmod`` command lines run in order (for example
``build`` then ``decompose``) plus a check that reads their standard output
and compares it with an answer the benchmark works out itself from the
generating expression.  The program under test only ever sees the generated
expressions and the documents it writes itself.

Each workload is a fixed mix of job families.  A family fixes the kind of
job and a range of sizes; the job count sets the sizes, and the summand
shapes of a module job are a fixed function of its size.  The seed picks the
rest: generator degrees, a degree offset for the whole sum, the summand
order, scramble and oracle seeds, and the job order.  So two seeds give
different inputs that cost the same, and run-to-run spread reflects the host
rather than the draw.  No two jobs in one run share an input, so a cache
spanning jobs cannot show a gain a one-shot CLI user would not see.
"""

from __future__ import annotations

import json
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable

# job_tail_s is the highest job time with ten jobs beyond it; with twenty
# jobs or more it lies at or above the median
MIN_JOBS = 20

# a module job's degree offset is drawn from range(OFFSETS)
OFFSETS = 32


@dataclass(frozen=True)
class Job:
    kind: str
    calls: tuple[tuple[str, ...], ...]
    check: Callable[[list[str]], str | None]


@dataclass(frozen=True)
class Family:
    """Jobs of one kind whose size runs evenly over ``sizes``.

    ``share`` is the family's number of jobs per round of the workload, and
    ``nominal_s`` the mean time of one of its jobs at the baseline commit;
    together they only size a run.
    """

    kind: str
    sizes: tuple[int, int]
    share: int
    nominal_s: float
    make: Callable[[random.Random, set, int, str], Job]

    def ladder(self, count: int) -> list[int]:
        """Sizes at the midpoints of ``count`` equal slices of the range.

        The sizes depend only on the job count, so every seed does the same
        amount of work and the order statistics of job times fall on sizes
        rather than on the extremes of one size's draws.
        """
        lo, hi = self.sizes
        return [round(lo - 0.5 + (hi - lo + 1) * (i + 0.5) / count) for i in range(count)]


# ---------------------------------------------------------------------------
# paper_check: the counterexample suite on distinct stages


def _paper_check(field: int, gap: int, sizes: tuple[int, int], share: int,
                 nominal_s: float) -> Family:
    """Stages N over ``sizes``; each job draws its own generator degrees.

    Degrees (d1, d1 + gap) with d1 not a multiple of the gap give the same
    per-degree block sizes for every d1, so the draw changes the input but not
    the amount of work, and no two jobs of one run share a stage.
    """
    pool = [d for d in range(1, 100) if d % gap][:32]

    def make(rng: random.Random, used: set, n: int, _work: str) -> Job:
        d1 = rng.choice([d for d in pool if (field, n, d) not in used])
        used.add((field, n, d1))
        d2 = d1 + gap
        argv = ("--report", "json", "paper-check", "--N", str(n),
                "--jmax", str(n + 2), "--field", str(field),
                "--degs", f"{d1},{d2}")
        return Job(f"paper-check F{field} N={n}", (argv,),
                   lambda outs: _check_paper(outs[0], n, field, d1, d2))

    return Family(f"paper-check F{field}", sizes, share, nominal_s, make)


def _check_paper(out: str, n: int, field: int, d1: int, d2: int) -> str | None:
    report = json.loads(out)
    if report.get("pass") is not True:
        failed = [i["id"] for i in report.get("items", []) if not i.get("pass")]
        return f"pass is not true (failing items {failed})"
    params = report["params"]
    want = {"stage_size": n, "j_max": n + 2, "field": field, "deg_e1": d1, "deg_e2": d2}
    got = {k: params.get(k) for k in want}
    if got != want:
        return f"report params {got} != {want}"
    items = {i["id"]: i["data"] for i in report["items"]}
    dims = [max(0, n + 1 - j) for j in range(n + 3)]
    if items.get("degree-zero-dims", {}).get("dims") != dims:
        return "degree-zero dims differ from max(0, N+1-j)"
    census = {f"L({k},0,1)@0": 1 for k in range(n + 1)}
    if items.get("census", {}).get("multiset") != census:
        return "census is not one L(n,0,1)@0 for each n <= N"
    return None


# ---------------------------------------------------------------------------
# module jobs: build a scrambled sum, then decompose / oracle / split-free


def _flash_terms(kind: str, dim: int, max_n: int, width: int, offset: int) -> list[str]:
    """L(n,e,e')@s terms whose dimensions add up to exactly ``dim``.

    The shapes and relative shifts are a fixed function of the family and the
    dimension, so a job of one size does the same work under every seed; the
    seed moves the whole sum by ``offset`` degrees, which changes no block
    size, and picks the summand order and the scramble.
    """
    rng = random.Random(f"{kind}:{dim}")
    terms = []
    while dim > 0:
        n, e, e2 = rng.randrange(max_n + 1), rng.randrange(2), rng.randrange(2)
        size = 2 * n + 1 + e + e2
        if size <= dim:
            terms.append(f"L({n},{e},{e2})@{rng.randrange(width) + offset}")
            dim -= size
    return terms


def _scrambled(rng: random.Random, terms: list[str]) -> str:
    return f"randomize({' + '.join(rng.sample(terms, len(terms)))}, {rng.randrange(1, 2**31)})"


def _multiset_problem(payload: dict, terms: list[str]) -> str | None:
    want = dict(Counter(t for t in terms if t.startswith("L(")))
    if payload.get("multiset") != want:
        return f"multiset {payload.get('multiset')} != generating terms {want}"
    if payload.get("certified") is not True:
        return "certified is not true"
    return None


def _decompose(field: int, sizes: tuple[int, int], share: int, nominal_s: float,
               max_n: int, width: int, oracle: bool = False) -> Family:
    """Scrambled flash sums of dimension over ``sizes``, decomposed and certified.

    With ``oracle`` the idempotent oracle cross-checks every job, with its
    bound set to the module's dimension.
    """
    kind = f"{'oracle' if oracle else 'decompose'} F{field}"

    def make(rng: random.Random, _used: set, dim: int, work: str) -> Job:
        terms = _flash_terms(kind, dim, max_n, width, rng.randrange(OFFSETS))
        doc = f"{work}.txt"
        build = ("build", _scrambled(rng, terms), "--field", str(field), "-o", doc)
        dec = ["--report", "json", "decompose", doc, "--certify"]
        if oracle:
            dec[:0] = ["--seed", str(rng.randrange(2**31))]
            dec += ["--oracle", "--oracle-bound", str(dim)]

        def check(outs: list[str]) -> str | None:
            payload = json.loads(outs[1])
            if oracle and payload.get("oracle_agrees") is not True:
                return "oracle_agrees is not true"
            return _multiset_problem(payload, terms)

        return Job(f"{kind} dim={dim}", (build, tuple(dec)), check)

    return Family(kind, sizes, share, nominal_s, make)


def _split_free(field: int, free: int, sizes: tuple[int, int], share: int,
                nominal_s: float, width: int) -> Family:
    """Variant-A sums: ``free`` free summands packed into ``width`` degrees,
    plus flash summands whose dimensions add up to a size over ``sizes``.

    The retraction system split-free solves has sum_d (free dim x module dim)
    unknowns; packing the free summands into few degrees makes it large.
    """
    kind = f"split-free F{field}"

    def make(rng: random.Random, _used: set, flash_dim: int, work: str) -> Job:
        offset = rng.randrange(OFFSETS)
        frees = [f"free@{i % width + offset}" for i in range(free)]
        terms = frees + _flash_terms(kind, flash_dim, 3, width, offset)
        doc, comp = f"{work}.txt", f"{work}-complement.txt"
        build = ("build", _scrambled(rng, terms), "--field", str(field),
                 "--variant", "A", "-o", doc)
        split = ("--report", "json", "split-free", doc, "--complement-out", comp)
        dec = ("--report", "json", "decompose", comp, "--certify")

        def check(outs: list[str]) -> str | None:
            payload = json.loads(outs[1])
            if payload.get("certified") is not True:
                return "split-free certified is not true"
            ranks = dict(Counter(t[len("free@"):] for t in frees))
            if payload.get("free_ranks") != ranks:
                return f"free_ranks {payload.get('free_ranks')} != {ranks}"
            return _multiset_problem(json.loads(outs[2]), terms)

        return Job(f"{kind} dim={4 * free + flash_dim}", (build, split, dec), check)

    return Family(kind, sizes, share, nominal_s, make)


# Nominal times are reference seconds at the baseline commit (2 cores,
# Python 3.11.7).  They only size a run: an error there changes how long a
# run takes, not what it measures.  The mixes put the median and the tail job
# among many jobs of nearly equal time (F2 stages of neighbouring N,
# mid-sized decompositions, the Q split-free jobs), where those order
# statistics are steady; where job times sit far apart they jump between
# runs.
WORKLOADS: dict[str, tuple[Family, ...]] = {
    # F2-heavy filtration traces on many small per-degree blocks; no documents
    "paper_check": (
        _paper_check(2, 2, (10, 17), 4, 0.46),
        _paper_check(5, 3, (8, 12), 1, 0.14),
        _paper_check(0, 2, (5, 8), 1, 0.12),
    ),
    # F2 scramble, documents up to 110 KB, chain sweep and certificate; no traces
    "decompose": (
        _decompose(2, (280, 560), 1, 0.35, 6, 24),
    ),
    # few large dense systems over F5 and Q; no F2 work and no traces
    "cross_check": (
        _decompose(5, (28, 36), 1, 0.17, 3, 10, oracle=True),
        _split_free(0, 4, (26, 30), 4, 0.5, 4),
        _split_free(5, 12, (60, 84), 1, 1.6, 4),
    ),
}


def make_jobs(workload: str, seed: int, seconds: float, work_prefix: str) -> list[Job]:
    """The seeded job list: whole rounds of the families until the nominal
    time reaches ``seconds`` and there are at least ``MIN_JOBS`` jobs."""
    families = WORKLOADS[workload]
    per_round = sum(f.share for f in families)
    round_s = sum(f.share * f.nominal_s for f in families)
    rounds = max(-(-MIN_JOBS // per_round), round(seconds / round_s))
    rng = random.Random(f"{workload}:{seed}")
    used: set = set()
    jobs = []
    for family in families:
        for size in family.ladder(family.share * rounds):
            jobs.append(family.make(rng, used, size, f"{work_prefix}{len(jobs)}"))
    rng.shuffle(jobs)
    return jobs
