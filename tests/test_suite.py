import json
import weakref

import pytest

from extmod import modules, operators, suite
from extmod.decompose import multiplicities
from extmod.linalg import SubspaceBasis
from extmod.modules import (FlashShape, counterexample_stage, default_params,
                            make_flash, truncated_infinite_flash)
from extmod.operators import FiltrationTrace, _terms, filtration, filtration_trace
from extmod.suite import (ExclusionProbe, SuiteParams, exclusion_probe,
                          run_checks)
from helpers import basis_vector, label_position, reference_flash_failures

P = default_params()


def test_small_run_all_items_pass():
    report = run_checks(SuiteParams(4, 6, P))
    assert report.passed
    assert [i.item_id for i in report.items] == [
        "filtration-shape", "membership", "degree-zero-dims", "quotient-dims",
        "intersection", "e1-degree-zero", "infinite-flash-contrast",
        "open-end-exclusion", "census"]
    assert report.items[2].data["dims"] == [5, 4, 3, 2, 1, 0, 0]
    assert report.first_failure() is None


def test_stage_zero():
    report = run_checks(SuiteParams(0, 1, P))
    assert report.passed
    assert report.items[2].data["dims"] == [1, 0]


@pytest.mark.parametrize("char", [2, 5])
@pytest.mark.parametrize("degs", [(1, 3), (2, 5)])
def test_field_and_degree_independence(char, degs):
    report = run_checks(SuiteParams(3, 5, default_params(char, *degs)))
    assert report.passed, report.first_failure()


def _membership_path_dims(sp):
    # second, independent route to the same vector: per-summand membership of
    # x_0, counted over the summands, with a separate chain for every term
    counts = []
    for j in range(sp.j_max + 1):
        total = 0
        for n in range(sp.stage_size + 1):
            mod = make_flash(FlashShape.l(n, 0, 1), sp.algebra)
            x0 = basis_vector(mod, "x0")
            if filtration(mod, j)[0].contains_vector(x0):
                total += 1
        counts.append(total)
    return counts


def test_degree_zero_dims_two_paths_agree():
    # the walked chain of the direct sum against per-summand membership
    sp = SuiteParams(4, 6, P)
    zero, _ = suite._degree_zero(_terms(counterexample_stage(sp.stage_size, sp.algebra)),
                                 sp.j_max)
    assert [sub.dim for sub in zero] == _membership_path_dims(sp)


class _Held(dict):
    """A term copy that takes a weak reference, as a plain dict does not."""


def test_the_stage_chain_is_walked_not_stored(monkeypatch):
    # the stage items read degree 0 alone: while the chain is walked only the
    # term read and the one it steps from are alive, and the stage is never traced
    sp = SuiteParams(6, 8, P)
    stages, traced, alive = [], [], []
    real_sum, real_trace = suite.direct_sum, suite.filtration_trace

    def summed(mods):
        stages.append(real_sum(mods))
        return stages[-1]

    def trace(m):
        traced.append(m)
        return real_trace(m)

    def walked(m):
        held = []
        for term in _terms(m):
            held.append(weakref.ref(kept := _Held(term)))
            if stages and m is stages[0]:
                alive.append(sum(ref() is not None for ref in held))
            yield kept

    monkeypatch.setattr(suite, "direct_sum", summed)
    monkeypatch.setattr(suite, "filtration_trace", trace)
    # filtration_trace walks the chain through operators._terms
    monkeypatch.setattr(operators, "_terms", walked)
    monkeypatch.setattr(suite, "_terms", walked, raising=False)
    assert run_checks(sp).passed
    assert len(alive) >= sp.stage_size + 2
    assert max(alive) <= 2
    assert all(m is not stages[0] for m in traced)


# the algebras the flash items are tested over
ALGEBRAS = pytest.mark.parametrize(
    "char, degs", [(2, (1, 3)), (3, (1, 3)), (5, (2, 5)), (0, (1, 3))],
    ids=["F2", "F3", "F5", "Q"])


@ALGEBRAS
def test_x0_alone_spans_degree_zero(char, degs):
    # why membership, the contrast and open-end-exclusion read x_0 in F_j as dim F_j(0) > 0
    params = default_params(char, *degs)
    mods = [make_flash(FlashShape.l(n, 0, 1), params) for n in range(9)]
    mods += [make_flash(FlashShape.l(n, 0, 0), params) for n in range(9)]
    mods += [truncated_infinite_flash(False, SuiteParams(n, n + 1, params).trunc_degree,
                                      params).module for n in range(9)]
    for m in mods:
        assert m.dim(0) == 1
        assert label_position(m, "x0") == (0, 0)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_stage_is_summed_from_the_flashes_already_made(monkeypatch, n):
    # N+1 closed flashes, summed into the stage, N+1 open flashes and one
    # for the truncated right-infinite flash
    calls = [0]
    real = modules.make_flash

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(modules, "make_flash", counted)
    monkeypatch.setattr(suite, "make_flash", counted)
    assert run_checks(SuiteParams(n, n + 1, P)).passed
    assert calls[0] == 2 * n + 3


def test_a_wrong_flash_trace_fails_both_flash_items(monkeypatch):
    # L(2,0,1) gets its chain shifted by one step: F'_j = F_{j+1}, so
    # F'_1 and F'_2 miss their expected span and x_0 leaves F'_j at j = 2
    wrong = make_flash(FlashShape.l(2, 0, 1), P)

    def traced(m):
        trace = filtration_trace(m)
        if m == wrong:
            return FiltrationTrace(trace.subspaces[1:], trace.stable_index - 1)
        return trace

    monkeypatch.setattr(suite, "filtration_trace", traced)
    doc = run_checks(SuiteParams(4, 6, P)).to_json_dict()
    items = {item["id"]: item for item in doc["items"]}
    assert items["filtration-shape"]["data"] == {"cases": 10,
                                                 "failures": [[2, 1], [2, 2]]}
    assert items["membership"]["data"] == {"cases": 35, "failures": [[2, 2]]}
    assert not items["filtration-shape"]["pass"]
    assert not items["membership"]["pass"]
    assert all(item["pass"] for item in doc["items"][2:])
    assert doc["pass"] is False


def _replaced(trace, d, js):
    """trace with one wrong object, the zero subspace, at degree d of every term in js."""
    terms = list(trace.subspaces)
    t = terms[0]
    wrong = SubspaceBasis.zero(t[d].field, t[d].ambient_dim)
    for j in js:
        terms[j] = {**terms[j], d: wrong}
    return FiltrationTrace(tuple(terms), trace.stable_index)


def _without(trace, d, j):
    """trace whose term j lacks degree d's key."""
    terms = list(trace.subspaces)
    terms[j] = {k: s for k, s in terms[j].items() if k != d}
    return FiltrationTrace(tuple(terms), trace.stable_index)


def _degree(m, label):
    return label_position(m, label)[0]


# each maps (flash, n, its trace) to the trace the suite is handed
PERTURBATIONS = {
    "correct": lambda m, n, t: t,
    "shifted": lambda m, n, t: (FiltrationTrace(t.subspaces[1:], t.stable_index - 1)
                                if n == 2 else t),
    # wrong at one j as a fresh object, and right again at j + 1
    "one-term": lambda m, n, t: _replaced(t, _degree(m, "x1"), [2]) if n == 4 else t,
    # one wrong object shared by j and j + 1, where neither the trace nor the
    # expectation moves: only the failure carried from j finds it at j + 1
    "carried": lambda m, n, t: _replaced(t, _degree(m, "x1"), [1, 2]) if n == 4 else t,
    # one wrong degree-0 object shared by j and j + 1, which membership tests once
    "degree-zero": lambda m, n, t: _replaced(t, _degree(m, "x0"), [1, 2]) if n == 4 else t,
    # wrong from j = 2 on at a top, which the expectation never drops
    "unmoved-degree": lambda m, n, t: (_replaced(t, _degree(m, f"y{n}"),
                                                 range(2, len(t.subspaces)))
                                       if n == 4 else t),
    # one term lacks a degree: no degree compares unequal, the key set differs
    "missing-degree": lambda m, n, t: _without(t, _degree(m, "x1"), 2) if n == 4 else t,
    # wrong from F_0 on, which is never reported itself
    "from-f0": lambda m, n, t: _replaced(t, _degree(m, "y0"), [0, 1]) if n == 4 else t,
}


@pytest.mark.parametrize("perturbation", sorted(PERTURBATIONS))
@ALGEBRAS
def test_flash_items_match_the_full_comparison(monkeypatch, char, degs, perturbation):
    # the flash items compare only the degrees that move; the reference
    # compares every degree of every term, on the same traces
    sp = SuiteParams(5, 7, default_params(char, *degs))
    perturb = PERTURBATIONS[perturbation]
    want_shape, want_member = [], []

    def traced(m):
        n = len(want_shape)
        trace = perturb(m, n, filtration_trace(m))
        shape, member = reference_flash_failures(m, trace, n, sp.j_max)
        want_shape.append(shape)
        want_member.append(member)
        return trace

    monkeypatch.setattr(suite, "filtration_trace", traced)
    _, items = suite._closed_flash_items(sp)
    shape, member = (item.data["failures"] for item in items)
    assert shape == sum(want_shape, [])
    assert member == sum(want_member, [])
    assert bool(shape) == (perturbation != "correct")


def test_flash_items_cost_is_linear_in_n(monkeypatch):
    # coordinate subspaces built and subspaces compared by the two flash
    # items, and vector membership tests, flash by flash, leaving out the traces
    counts, tracing, at_trace = [0, 0], [False], []
    real_coordinate, real_eq = SubspaceBasis.coordinate.__func__, SubspaceBasis.__eq__
    real_contains = SubspaceBasis.contains_vector

    def coordinate(cls, *args):
        counts[0] += not tracing[0]
        return real_coordinate(cls, *args)

    def eq(a, b):
        counts[0] += not tracing[0]
        return real_eq(a, b)

    def contains_vector(sub, *args, **kwargs):
        counts[1] += 1
        return real_contains(sub, *args, **kwargs)

    def traced(m):
        at_trace.append(list(counts))
        tracing[0] = True
        try:
            return filtration_trace(m)
        finally:
            tracing[0] = False

    monkeypatch.setattr(SubspaceBasis, "coordinate", classmethod(coordinate))
    monkeypatch.setattr(SubspaceBasis, "__eq__", eq)
    monkeypatch.setattr(SubspaceBasis, "contains_vector", contains_vector)
    monkeypatch.setattr(suite, "filtration_trace", traced)
    _, items = suite._closed_flash_items(SuiteParams(8, 10, P))
    assert all(item.passed for item in items)
    at_trace.append(list(counts))
    per_flash = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(at_trace, at_trace[1:])]
    # the full comparison makes 4 n (n + 1) such calls, 288 at n = 8, and
    # j_max + 1 = 11 membership tests; membership reads dim F_j(0) instead
    assert all(calls <= 6 * (n + 1) and tests == 0
               for n, (calls, tests) in enumerate(per_flash)), per_flash


def test_no_trace_outlives_the_items_that_read_it(monkeypatch):
    # at most one closed flash's trace is alive when the next is made, and no
    # trace at all when the census decomposes the stage
    sp = SuiteParams(5, 7, P)
    closed = [make_flash(FlashShape.l(n, 0, 1), P) for n in range(sp.stage_size + 1)]
    made, alive_at_flash, alive_at_census = [], [], []

    def alive():
        return sum(ref() is not None for ref in made)

    def traced(m):
        if m in closed:
            alive_at_flash.append(alive())
        trace = filtration_trace(m)
        made.append(weakref.ref(trace))
        return trace

    def census(m):
        alive_at_census.append(alive())
        return multiplicities(m)

    monkeypatch.setattr(suite, "filtration_trace", traced)
    monkeypatch.setattr(suite, "multiplicities", census)
    assert run_checks(sp).passed
    assert len(alive_at_flash) == sp.stage_size + 1
    assert max(alive_at_flash) <= 1
    assert alive_at_census == [0]


def test_report_is_deterministic():
    a = run_checks(SuiteParams(2, 4, P))
    b = run_checks(SuiteParams(2, 4, P))
    assert a == b
    assert json.dumps(a.to_json_dict(), sort_keys=True) == \
        json.dumps(b.to_json_dict(), sort_keys=True)


def test_json_shape():
    doc = run_checks(SuiteParams(1, 2, P)).to_json_dict()
    assert set(doc) == {"params", "items", "pass"}
    assert doc["pass"] is True
    for item in doc["items"]:
        assert set(item) == {"id", "quote", "data", "pass"}


def test_params_invariants():
    with pytest.raises(ValueError):
        SuiteParams(-1, 3, P)
    with pytest.raises(ValueError):
        SuiteParams(3, 3, P)  # chain would not visibly reach zero
    assert SuiteParams(2, 4, P).trunc_degree == 4 * P.gap + P.deg_e2
    with pytest.raises(TypeError):
        SuiteParams(2, 4, P, 3)  # the truncation is derived, not set


@pytest.mark.parametrize("n", range(4))
def test_exclusion_probe_closed_flashes(n):
    assert exclusion_probe(FlashShape.l(n, 0, 1), P) == \
        ExclusionProbe(False, False)


@pytest.mark.parametrize("n", range(4))
def test_exclusion_probe_open_end(n):
    assert exclusion_probe(FlashShape.l(n, 0, 0), P) == \
        ExclusionProbe(False, True)


@pytest.mark.parametrize("shape", [
    FlashShape.finite(3, True, False),
    FlashShape.finite(2, True, True),
    FlashShape.right_infinite(True),
])
def test_exclusion_probe_left_tops(shape):
    assert exclusion_probe(shape, P).e1_at_bottom_nonzero


def test_exclusion_probe_ignores_shift():
    probe = exclusion_probe(FlashShape.l(2, 0, 1, shift=9), P)
    assert probe == ExclusionProbe(False, False)


def test_exclusion_probe_rejects_free():
    with pytest.raises(ValueError):
        exclusion_probe(FlashShape.free(0), P)
