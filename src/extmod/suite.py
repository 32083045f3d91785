"""The executable counterexample argument, one check item at a time.

Builds finite stages of the direct sum of all closed flashes L(n,0,1),
runs every dimension, membership and exclusion check of the splitting
argument, and assembles a structured report.  Both steps of the paper's
argument live here: ``exclusion_probe`` decides which flash shapes can reach
degree zero, and ``flash_multiplicity_at_degree`` counts the closed flashes
there as dim F_n - dim F_{n+1}, where e1 is zero.  The genuinely infinite
product is out of computational reach; every quantitative statement below
concerns a finite stage, where it is exact.  The one infinite flash the suite
contrasts with the stage is cut at degree j_max * gap + |e2|, derived from the
stage parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import is_not
from typing import Any

from .decompose import multiplicities
from .linalg import SubspaceBasis, quotient_dim
from .modules import (E1, AlgebraParams, FlashShape, Module, direct_sum, make_flash,
                      truncated_infinite_flash)
from .operators import _terms, filtration_trace, stable_intersection


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

    @property
    def trunc_degree(self) -> int:
        """The right-infinite flash's cutoff: it keeps the tops joining x_0 to x_{j_max+1}."""
        return self.j_max * self.algebra.gap + self.algebra.deg_e2


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


def exclusion_probe(shape: FlashShape, params: AlgebraParams) -> ExclusionProbe:
    """The two degree-zero probes deciding which shapes can reach the bottom.

    The shape is rebased at degree 0; a right-infinite flash is realized by
    its truncation at eight bottoms' worth of degrees, 8 * gap + |e2|.
    """
    based = FlashShape(shape.kind, shape.bottoms, shape.left_top,
                       shape.right_top, 0)
    if based.kind == "right_infinite":
        cutoff = 8 * params.gap + params.deg_e2
        mod = truncated_infinite_flash(based.left_top, cutoff, params).module
    elif based.kind == "finite":
        mod = make_flash(based, params)
    else:
        raise ValueError("probe applies to finite or right-infinite shapes")
    e1_nonzero = not mod.action(E1, 0).is_zero()
    stable_nonzero = stable_intersection(mod)[0].dim > 0
    return ExclusionProbe(e1_nonzero, stable_nonzero)


def flash_multiplicity_at_degree(m: Module, d: int, n: int) -> int:
    """Multiplicity of the closed flash L(n,0,1) based at degree d.

    Valid when only such flashes touch degree d; the two exclusion probes are
    checked first and reported on failure.  With e1 zero on degree d, ker e1
    is the whole degree, so the count is dim F_n(d) - dim F_{n+1}(d).
    """
    if not m.action(E1, d).is_zero():
        raise ValueError(f"exclusion failed: e1 does not vanish on degree {d}")
    if not m.dim(d):
        return 0
    trace = filtration_trace(m)
    if trace.stable[d].dim:
        raise ValueError("exclusion failed: the stable filtration intersection "
                         f"is nonzero at degree {d}")
    return trace[n][d].dim - trace[n + 1][d].dim


def _degree_zero(terms, j_max: int) -> tuple[list[SubspaceBasis], SubspaceBasis]:
    """Degree 0 of F_0 .. F_{j_max} and of the stable term.

    ``terms`` is a chain out to its first repeated term, read one term at a
    time; only each term's degree-0 slice is kept.
    """
    zero = [t[0] for t in terms]
    return [zero[min(j, len(zero) - 1)] for j in range(j_max + 1)], zero[-1]


def _closed_flash_items(sp: SuiteParams) -> tuple[Module, list[CheckItem]]:
    """The stage, and two items read off each summand's trace as soon as it is made.

    Step j compares only the degrees where the expected F_j or the trace's object
    moved, or where step j-1 failed: the rest hold the objects matched at j-1.
    """
    mods, shape_failures, member_failures = [], [], []
    for n in range(sp.stage_size + 1):
        mod = make_flash(FlashShape.l(n, 0, 1), sp.algebra)
        trace = filtration_trace(mod)
        field, dims = mod.field, mod.dims_by_degree
        # a flash's labels are distinct and name its whole basis
        at = {label: (d, i) for d, ls in mod.labels.items() for i, label in enumerate(ls)}
        expected = {d: SubspaceBasis.full(field, k) for d, k in dims.items()}
        prev, failed = {}, []  # so step 1 compares every degree
        for j in range(1, n + 1):
            moved, i = at[f"x{n - j + 1}"]
            expected[moved] = SubspaceBasis.coordinate(
                field, dims[moved], [k for k in expected[moved].pivot_rows if k != i])
            cur = trace[j]
            replaced = compress(cur, map(is_not, cur.values(), map(prev.get, cur)))
            failed = [d for d in {moved, *failed, *replaced} if cur.get(d) != expected.get(d)]
            # step 1 compared every degree, ambient dimension included, and an
            # uncompared degree holds its object from j-1: only keys can go wrong unseen
            if failed or cur.keys() != dims.keys():
                shape_failures.append([n, j])
            prev = cur
        # x_0 alone spans degree 0, so it lies in F_j exactly when F_j(0) is nonzero
        zero, _ = _degree_zero(trace.subspaces, sp.j_max)
        member_failures += [[n, j] for j, sub in enumerate(zero) if (sub.dim > 0) != (j <= n)]
        mods.append(mod)
    # counterexample_stage, from the flashes already made
    return direct_sum(mods), [
        CheckItem(
            "filtration-shape",
            "on the closed flash with bottoms x_0..x_n, F_j is spanned by every "
            "top together with x_0..x_{n-j}, for 0 < j <= n",
            {"cases": sum(range(sp.stage_size + 1)), "failures": shape_failures},
            not shape_failures),
        CheckItem(
            "membership",
            "x_0 of the closed flash L(n,0,1) lies in F_j exactly when j <= n",
            {"cases": (sp.stage_size + 1) * (sp.j_max + 1),
             "failures": member_failures},
            not member_failures)]


def run_checks(sp: SuiteParams) -> SuiteReport:
    """Run all nine check items, walking each module's chain only once."""
    alg = sp.algebra
    stage, items = _closed_flash_items(sp)

    # every stage item below the census reads degree 0 alone: walk the chain, keep no term
    zero, stable = _degree_zero(_terms(stage), sp.j_max)
    vec = [sub.dim for sub in zero]
    expected = [max(0, sp.stage_size + 1 - j) for j in range(sp.j_max + 1)]
    items.append(CheckItem(
        "degree-zero-dims",
        "dim of the degree-zero part of F_j on the stage equals "
        "max(0, N+1-j) for j = 0..j_max",
        {"dims": vec, "expected": expected},
        vec == expected))

    diffs = [quotient_dim(zero[j], zero[j + 1]) for j in range(sp.stage_size + 1)]
    items.append(CheckItem(
        "quotient-dims",
        "each consecutive degree-zero filtration quotient on the stage is "
        "one-dimensional for j = 0..N",
        {"diffs": diffs},
        all(d == 1 for d in diffs)))

    items.append(CheckItem(
        "intersection",
        "the stable term of the filtration chain vanishes in degree zero "
        "on the stage",
        {"dim": stable.dim},
        stable.dim == 0))

    e1_deg0 = stage.action(E1, 0).rank()
    items.append(CheckItem(
        "e1-degree-zero",
        "e1 kills the entire degree-zero part of the stage",
        {"image_dim": e1_deg0},
        e1_deg0 == 0))

    trunc = truncated_infinite_flash(False, sp.trunc_degree, alg)
    # with no left top, x_0 alone spans degree 0 of the truncation too
    zero, _ = _degree_zero(_terms(trunc.module), sp.j_max)
    stuck = [j for j, sub in enumerate(zero) if not sub.dim]
    items.append(CheckItem(
        "infinite-flash-contrast",
        "after truncating the right-infinite flash, x_0 stays in F_j for "
        "every j <= j_max (the truncation realizes an open-ended flash)",
        {"missing_at": stuck,
         "realized": [str(s) for s in trunc.realized],
         "note": "finite truncation of the right-infinite flash; "
                 "open right ends make the chain stall at the whole module"},
        not stuck))

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
        "trunc_degree": sp.trunc_degree,
        "field": alg.field.characteristic,
        "deg_e1": alg.deg_e1,
        "deg_e2": alg.deg_e2,
        "variant": alg.variant,
    }
    return SuiteReport(params_desc, tuple(items))
