"""The executable counterexample argument, one check item at a time.

Builds finite stages of the direct sum of all closed flashes L(n,0,1),
runs every dimension, membership and exclusion check of the splitting
argument, and assembles a structured report.  Both steps of the paper's
argument live here: ``exclusion_probe`` decides which flash shapes can reach
degree zero, and ``flash_multiplicity_at_degree`` counts the closed flashes
there as dim F_n - dim F_{n+1}, where e1 is zero.  The closed flashes'
items and the stage items read one annihilator walk of the stage, and the
window and ``flash_multiplicity_at_degree`` dimensions off their own; the
open-end probes trace their flashes with ``filtration_trace``, whose
pull-backs ``operators`` caches.  The genuinely infinite product is out of
computational reach; every quantitative statement below concerns a finite
stage, where it is exact.  The right-infinite flash the suite contrasts
with the stage is read exactly, off its fixed five- or six-dimensional
quotient L(2, eps, 0) (``_right_infinite_window``).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice
from math import inf
from typing import Any

from .decompose import InternalError, multiplicities
from .linalg import SubspaceBasis, quotient_dim
from .modules import E1, AlgebraParams, FlashShape, Module, direct_sum, make_flash
from .operators import _annihilators, filtration_trace


@dataclass(frozen=True)
class SuiteParams:
    """Stage size, filtration depth and the algebra."""

    stage_size: int
    j_max: int
    algebra: AlgebraParams

    def __post_init__(self) -> None:
        if self.stage_size < 0:
            raise ValueError("stage size must be non-negative")
        if self.j_max < self.stage_size + 1:
            raise ValueError("j_max must be at least stage_size + 1 so the "
                             "degree-zero chain visibly reaches zero")


@dataclass(frozen=True)
class CheckItem:
    item_id: str
    claim: str
    data: Any
    passed: bool


@dataclass(frozen=True)
class SuiteReport:
    params: dict
    items: tuple[CheckItem, ...]

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)

    def first_failure(self) -> CheckItem | None:
        return next((item for item in self.items if not item.passed), None)

    def to_json_dict(self) -> dict:
        return {
            "params": self.params,
            "items": [{"id": i.item_id, "quote": i.claim, "data": i.data,
                       "pass": i.passed} for i in self.items],
            "pass": self.passed,
        }


@dataclass(frozen=True)
class ExclusionProbe:
    e1_at_bottom_nonzero: bool
    stable_intersection_at_bottom_nonzero: bool


def _right_infinite_window(left_top: bool, params: AlgebraParams) -> tuple[Module, list[int]]:
    """L(2, left_top, 0), and the degrees d <= gap its first chain step moves:
    F_1 <= F_0, so those where round 1 of the annihilator walk adds a functional.

    L(2, left_top, 0) is the right-infinite flash modulo the span of x_k
    (k >= 3) and y_k (k >= 2).  At d <= gap, F_1(d) = e2^{-1}(e1 F_0(d + gap))
    reads e2 from degree d and e1 from d + gap, which hold only x_0, x_1, x_2,
    y_{-1} and y_0, none quotiented; both land in degree d + |e2|, where the
    dropped x_k receive nothing, so the preimage is the flash's own.  The shift
    x_k -> x_{k+1} carries the step at x_1 to every later bottom, and e2 kills
    the tops, so with no degree moved every F_j is the whole infinite flash.
    """
    mod = make_flash(FlashShape.l(2, left_top, 0), params)
    # one dict, grown in place: after two yields it holds G_1
    *_, ann = islice(_annihilators(mod), 2)
    return mod, [d for d in mod.dims_by_degree if d <= params.gap and ann.get(d)]


def exclusion_probe(shape: FlashShape, params: AlgebraParams) -> ExclusionProbe:
    """The two degree-zero probes deciding which shapes can reach the bottom.

    The shape is rebased at degree 0; a right-infinite flash is read off
    ``_right_infinite_window`` exactly.
    """
    based = FlashShape(shape.kind, shape.bottoms, shape.left_top,
                       shape.right_top, 0)
    if based.kind == "right_infinite":
        mod, moved = _right_infinite_window(based.left_top, params)
        if moved:
            raise InternalError("the first chain step moves the right-infinite flash "
                                f"at degrees {moved}")
        # every F_j is the whole flash, and x_0 spans its degree 0
        stable_nonzero = True
    elif based.kind == "finite":
        mod = make_flash(based, params)
        stable_nonzero = filtration_trace(mod).stable[0].dim > 0
    else:
        raise ValueError("probe applies to finite or right-infinite shapes")
    return ExclusionProbe(not mod.action(E1, 0).is_zero(), stable_nonzero)


def flash_multiplicity_at_degree(m: Module, d: int, n: int) -> int:
    """Multiplicity of the closed flash L(n,0,1) based at degree d.

    Valid when only such flashes touch degree d; the two exclusion probes are
    checked first and reported on failure.  With e1 zero on degree d, ker e1
    is the whole degree, so the count is dim F_n(d) - dim F_{n+1}(d), read
    with the stable dimension off the annihilator walk, not a whole trace.
    """
    if n < 0:
        raise ValueError("flash length n must be non-negative")
    if not m.action(E1, d).is_zero():
        raise ValueError(f"exclusion failed: e1 does not vanish on degree {d}")
    if not m.dim(d):
        return 0
    ranks, _ = _annihilator_ranks(m, d)
    if ranks[-1] != m.dim(d):
        raise ValueError("exclusion failed: the stable filtration intersection "
                         f"is nonzero at degree {d}")
    # dim F_j(d) = dim M_d - rank G_j(d)
    last = len(ranks) - 1
    return ranks[min(n + 1, last)] - ranks[min(n, last)]


def _annihilator_ranks(m: Module, d: int) -> tuple[list[int], list]:
    """rank G_j(d) of G_j = ann F_j for each term of the chain through its
    first repeat, off ``operators._annihilators``, and the functionals of the
    last G(d) in the order added: G_j(d) is spanned by the first
    rank G_j(d) of them."""
    ranks = []
    for ann in _annihilators(m):
        ranks.append(len(ann.get(d, ())))
    return ranks, ann.get(d, [])


def _closed_flash_items(sp: SuiteParams) -> tuple[Module, list[CheckItem], list[int], list]:
    """The stage, its two closed-flash items, and rank G_j(0) through the first
    repeat with degree 0's functionals in the order added, off one walk.

    The stage's blocks are block diagonal, so each functional the walk adds
    lies on one flash, and the walk adds independent ones, so a flash's
    count is its rank.  On L(n,0,1), G_j = ann F_j is spanned by the x_k^*
    with n + 1 - k <= j: F_j is as expected when by round j the flash holds
    j functionals, each a multiple of one x_k^* due by then.  Past the
    walk's end its last state holds.
    """
    # the stage: the sum of the closed flashes L(n,0,1), n <= N
    size = sp.stage_size + 1
    stage = direct_sum([make_flash(FlashShape.l(n, 0, 1), sp.algebra) for n in range(size)])
    fam = stage.field._family
    # per flash, the rounds its functionals were added and were due; out[n],
    # the first round that adds a functional touching x_0 of flash n
    added, out = [([], []) for _ in range(size)], [inf] * size
    ranks, seen = [], {}
    for j, ann in enumerate(_annihilators(stage)):
        for d, funcs in ann.items():
            for g in funcs[seen.get(d, 0):]:
                s = fam.support(g)
                # "s{n}.x{k}", or "x{k}" where direct_sum returned the one flash
                flash, _, name = stage.labels[d][next(iter(s))].rpartition(".")
                n = int(flash[1:]) if flash else 0
                rounds, dues = added[n]
                rounds.append(j)
                # x_k^* is due at round n + 1 - k; a top's or a mixed functional never is
                dues.append(n + 1 - int(name[1:]) if name[0] == "x" and len(s) == 1 else inf)
                if d == 0:
                    # degree 0 holds x_0 of each flash, in flash order
                    for i in s:
                        out[i] = min(out[i], j)
            seen[d] = len(funcs)
        ranks.append(len(ann.get(0, ())))
    shape_failures = []
    for n, (rounds, dues) in enumerate(added):
        need = list(accumulate(dues, max))
        shape_failures += [[n, j] for j in range(1, n + 1)
                           if bisect_right(rounds, j) != j or need[j - 1] > j]
    # x_0 alone spans degree 0: it lies in F_j exactly when j < out[n]
    member_failures = [[n, j] for n, o in enumerate(out)
                       for j in range(min(n + 1, o), min(max(n + 1, o), sp.j_max + 1))]
    return stage, [
        CheckItem(
            "filtration-shape",
            "on the closed flash with bottoms x_0..x_n, F_j is spanned by every "
            "top together with x_0..x_{n-j}, for 0 < j <= n",
            {"cases": sum(range(size)), "failures": shape_failures},
            not shape_failures),
        CheckItem(
            "membership",
            "x_0 of the closed flash L(n,0,1) lies in F_j exactly when j <= n",
            {"cases": size * (sp.j_max + 1), "failures": member_failures},
            not member_failures)], ranks, ann.get(0, [])


def run_checks(sp: SuiteParams) -> SuiteReport:
    """Run all nine check items, walking each module's chain only once.

    The closed-flash items and the stage items read one annihilator walk of
    the stage (``operators._annihilators``), which pulls nothing back and
    makes no preimage through the stage's blocks; the window reads which
    degrees its first round moves.  The open-end probes trace their flashes
    with ``filtration_trace``, whose pull-backs ``operators`` caches: their
    blocks and targets repeat, so they pull back one distinct triple in all.
    """
    alg = sp.algebra
    stage, items, walked, funcs = _closed_flash_items(sp)

    # every stage item below the census reads degree 0 alone, off the annihilators
    # G_j = ann F_j: dim F_j(0) = dim M_0 - rank G_j(0)
    ranks = [walked[min(j, len(walked) - 1)] for j in range(sp.j_max + 1)]
    vec = [stage.dim(0) - r for r in ranks]
    expected = [max(0, sp.stage_size + 1 - j) for j in range(sp.j_max + 1)]
    items.append(CheckItem(
        "degree-zero-dims",
        "dim of the degree-zero part of F_j on the stage equals "
        "max(0, N+1-j) for j = 0..j_max",
        {"dims": vec, "expected": expected},
        vec == expected))

    # annihilators reverse inclusion, and dim F_j / F_{j+1} = dim G_{j+1} / G_j
    spans = {r: SubspaceBasis.from_spanning(stage.field, stage.dim(0), funcs[:r], _raw=True)
             for r in ranks[:sp.stage_size + 2]}
    diffs = [quotient_dim(spans[ranks[j + 1]], spans[ranks[j]])
             for j in range(sp.stage_size + 1)]
    items.append(CheckItem(
        "quotient-dims",
        "each consecutive degree-zero filtration quotient on the stage is "
        "one-dimensional for j = 0..N",
        {"diffs": diffs},
        all(d == 1 for d in diffs)))

    stable = stage.dim(0) - walked[-1]
    items.append(CheckItem(
        "intersection",
        "the stable term of the filtration chain vanishes in degree zero "
        "on the stage",
        {"dim": stable},
        stable == 0))

    e1_deg0 = stage.action(E1, 0).rank()
    items.append(CheckItem(
        "e1-degree-zero",
        "e1 kills the entire degree-zero part of the stage",
        {"image_dim": e1_deg0},
        e1_deg0 == 0))

    _, moved = _right_infinite_window(False, alg)
    items.append(CheckItem(
        "infinite-flash-contrast",
        "on the right-infinite flash the first chain step moves no degree, "
        "so x_0 lies in F_j for every j",
        {"moved": moved},
        not moved))

    # x_0 alone spans degree 0 of L(n,0,0)@0, so the probe's flag is the dimension
    open_end_dims = [int(exclusion_probe(FlashShape.l(n, 0, 0), alg)
                         .stable_intersection_at_bottom_nonzero)
                     for n in range(sp.stage_size + 1)]
    items.append(CheckItem(
        "open-end-exclusion",
        "for flashes with an open right end the stable intersection is "
        "nonzero at the bottom degree, so none of them reaches degree zero "
        "of the stage",
        {"dims": open_end_dims},
        all(d > 0 for d in open_end_dims)))

    census = multiplicities(stage)
    expected_census = {FlashShape.l(n, 0, 1): 1 for n in range(sp.stage_size + 1)}
    clean = all(sh.kind == "finite" and not sh.left_top for sh in census)
    items.append(CheckItem(
        "census",
        "the stage decomposes into exactly one closed flash L(n,0,1) for "
        "each n = 0..N, with no left-top or right-infinite summand",
        {"multiset": {str(k): v for k, v in sorted(census.items())},
         "no_forbidden_shapes": clean},
        dict(census) == expected_census and clean))

    params_desc = {
        "stage_size": sp.stage_size,
        "j_max": sp.j_max,
        "field": alg.field.characteristic,
        "deg_e1": alg.deg_e1,
        "deg_e2": alg.deg_e2,
        "variant": alg.variant,
    }
    return SuiteReport(params_desc, tuple(items))
