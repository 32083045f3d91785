from itertools import islice
import json
import weakref

import pytest

from extmod import modules, operators, suite
from extmod.decompose import InternalError, multiplicities
from extmod.linalg import Matrix, SubspaceBasis, kernel
from extmod.modules import (E2, FlashShape, default_params, make_flash,
                            random_basis_change, truncated_infinite_flash)
from extmod.operators import FiltrationTrace, _annihilators, filtration, filtration_trace
from extmod.suite import (ExclusionProbe, SuiteParams, exclusion_probe,
                          run_checks)
from helpers import (basis_vector, count_pullbacks, counterexample_stage, label_position,
                     reference_flash_failures)

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
    # the walked chains of the direct sum, primal and dual, against
    # per-summand membership
    sp = SuiteParams(4, 6, P)
    stage = counterexample_stage(sp.stage_size, sp.algebra)
    trace = filtration_trace(stage)
    zero = [trace[j][0] for j in range(sp.j_max + 1)]
    ranks, _ = suite._annihilator_ranks(stage, 0)
    dual = [stage.dim(0) - ranks[min(j, len(ranks) - 1)] for j in range(sp.j_max + 1)]
    assert [sub.dim for sub in zero] == dual == _membership_path_dims(sp)


def test_the_suite_pulls_back_each_distinct_flash_step_once(monkeypatch):
    # one step at a time, the open-end probes make 105 pull-backs at N = 14.
    # They share one cache keyed on values, and every flash takes its blocks
    # from one table, so all of them make 1: the kernel of the e2 block at a
    # degree e1 does not reach.  The closed flashes, the stage's items and the
    # window read the annihilator walk, which pulls nothing back
    calls = count_pullbacks(monkeypatch)
    n = 14
    assert run_checks(SuiteParams(n, n + 2, P)).passed
    assert len(calls) == 1
    info = operators._pulled.cache_info()
    assert (info.misses, info.hits) == (1, 104)


def test_the_flash_chains_share_one_dict_and_the_stage_gets_none(monkeypatch):
    # only the N + 1 open-end probes trace their chains, through the one
    # pull-back cache, and later probes find their triple there; the closed
    # flashes, the stage and the window never enter the primal walk
    sp = SuiteParams(5, 7, P)
    stages, traced, keys = [], [], []
    real_sum, real_trace, real_pulled = (suite.direct_sum, suite.filtration_trace,
                                         operators._pulled)

    def summed(mods):
        stages.append(real_sum(mods))
        return stages[-1]

    def trace(m):
        traced.append(m)
        return real_trace(m)

    def pulled(*key):
        keys.append(key)
        return real_pulled(*key)

    monkeypatch.setattr(suite, "direct_sum", summed)
    monkeypatch.setattr(suite, "filtration_trace", trace)
    monkeypatch.setattr(operators, "_pulled", pulled)
    real_pulled.cache_clear()
    assert run_checks(sp).passed
    [stage] = stages
    assert traced == [make_flash(FlashShape.l(n, 0, 0), P) for n in range(sp.stage_size + 1)]
    blocks = {id(b) for b in stage.action_items(E2).values()}
    assert keys and not any(id(b) in blocks for b, _, _ in keys)
    info = real_pulled.cache_info()
    assert info.misses == 1 and info.hits == len(keys) - 1


class _Held(dict):
    """A copy of the walk's dict that takes a weak reference, as a plain dict does not."""


def test_the_stage_chain_is_walked_not_stored(monkeypatch):
    # the stage items read degree 0 alone: the annihilator walk grows one dict
    # in place, step after step, and by the census the suite keeps only the
    # ranks and degree 0's functionals, not the dict; the stage is never traced
    sp = SuiteParams(6, 8, P)
    stages, traced, yielded, ids, at_census = [], [], [], [], []
    real_sum, real_trace, real_census = (suite.direct_sum, suite.filtration_trace,
                                         suite.multiplicities)

    def summed(mods):
        stages.append(real_sum(mods))
        return stages[-1]

    def trace(m):
        traced.append(m)
        return real_trace(m)

    def walked(m):
        held = _Held()
        for ann in _annihilators(m):
            held.update(ann)
            if m is stages[0]:
                yielded.append(weakref.ref(held))
                ids.append(id(ann))
            yield held

    def census(m):
        at_census.extend(ref() for ref in yielded)
        return real_census(m)

    monkeypatch.setattr(suite, "direct_sum", summed)
    monkeypatch.setattr(suite, "filtration_trace", trace)
    monkeypatch.setattr(suite, "_annihilators", walked)
    monkeypatch.setattr(suite, "multiplicities", census)
    assert run_checks(sp).passed
    # F_0 .. F_{N+1}, then the repeat: one object, alive through the walk, each step
    assert len(yielded) == sp.stage_size + 3 and len(set(ids)) == 1
    assert at_census == [None] * len(yielded)
    assert all(m is not stages[0] for m in traced)


def test_the_stage_items_build_no_forward_pass_on_the_e2_blocks(monkeypatch):
    # the annihilator walk makes no preimage through the stage's e2 blocks:
    # none of them reaches the family's preimage, where the forward pass of
    # its tagged columns would be built
    sp = SuiteParams(8, 10, P)
    blocks, pulled = [], []
    real_census = suite.multiplicities
    cls = type(P.field._family)
    real_preimage = cls.preimage

    def census(m):
        blocks.extend(m.action_items(E2).values())
        return real_census(m)

    def preimage(fam, m, u):
        pulled.append(m)
        return real_preimage(fam, m, u)

    monkeypatch.setattr(suite, "multiplicities", census)
    monkeypatch.setattr(cls, "preimage", preimage)
    assert run_checks(sp).passed
    assert blocks and pulled
    assert not any(b is m for b in blocks for m in pulled)


# the algebras the flash items are tested over
ALGEBRAS = pytest.mark.parametrize(
    "char, degs", [(2, (1, 3)), (3, (1, 3)), (5, (2, 5)), (0, (1, 3))],
    ids=["F2", "F3", "F5", "Q"])


@ALGEBRAS
def test_x0_alone_spans_degree_zero(char, degs):
    # why membership and open-end-exclusion read x_0 in F_j as dim F_j(0) > 0,
    # and the right-infinite probe reads x_0 in every F_j as F_j(0) nonzero
    params = default_params(char, *degs)
    mods = [make_flash(FlashShape.l(n, 0, 1), params) for n in range(9)]
    mods += [make_flash(FlashShape.l(n, 0, 0), params) for n in range(9)]
    mods += [suite._right_infinite_window(left, params)[0] for left in (False, True)]
    for m in mods:
        assert m.dim(0) == 1
        assert label_position(m, "x0") == (0, 0)


@pytest.mark.parametrize("n", [0, 1, 5])
def test_stage_is_summed_from_the_flashes_already_made(monkeypatch, n):
    # N+1 closed flashes, summed into the stage, N+1 open flashes and one
    # for the right-infinite flash's window
    calls = [0]
    real = modules.make_flash

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(modules, "make_flash", counted)
    monkeypatch.setattr(suite, "make_flash", counted)
    assert run_checks(SuiteParams(n, n + 1, P)).passed
    assert calls[0] == 2 * n + 3


def _label(stage, d, g):
    """The label of the first coordinate a functional at degree d touches."""
    return stage.labels[d][next(iter(stage.field._family.support(g)))]


def _schedule(stage):
    """The stage's walk as (round, degree, functional) for each functional it adds."""
    sched, seen = [], {}
    for j, ann in enumerate(_annihilators(stage)):
        sched += [(j, d, g) for d, funcs in ann.items() for g in funcs[seen.get(d, 0):]]
        seen = {d: len(funcs) for d, funcs in ann.items()}
    return sched


def _replayed(stage, sched):
    """A walk that adds each scheduled functional at its round, ends on a round
    that adds nothing, as the walk does, and grows one dict in place."""
    ann = {d: [] for d in stage.action_items(E2)}
    for j in range(max((k for k, _, _ in sched), default=0) + 2):
        for k, d, g in sched:
            if k == j:
                ann.setdefault(d, []).append(g)
        yield ann


def _flash_chains(stage, sched, size):
    """Each flash's chain as the scheduled functionals define it: F_j(d) is the
    part on the flash's coordinates of the stage's F_j(d), the kernel of G_j(d).
    Its annihilator is the functionals of G_j(d) that touch no other flash."""
    field, fam = stage.field, stage.field._family
    rounds = max((k for k, _, _ in sched), default=0) + 1
    terms = [[{} for _ in range(rounds)] for _ in range(size)]
    for d, dim in stage.dims_by_degree.items():
        # the flash of each coordinate: a lone flash's labels carry no "s0." prefix
        owner = [int(label.partition(".")[0][1:]) if size > 1 else 0
                 for label in stage.labels[d]]
        for j in range(rounds):
            rows = [fam.unpack(g, dim) for k, e, g in sched if e == d and k <= j]
            vecs = kernel(Matrix(field, rows, ncols=dim)).vectors()
            for n in set(owner):
                at = [i for i, o in enumerate(owner) if o == n]
                terms[n][j][d] = SubspaceBasis.from_spanning(
                    field, len(at), [tuple(v[i] for i in at) for v in vecs])
    return [FiltrationTrace(tuple(t), rounds - 1) for t in terms]


def _each(move):
    """The perturbation that moves each functional to round move(label, j), and
    drops it where that is None."""
    return lambda stage, sched: [(k, d, g) for j, d, g in sched
                                 for k in [move(_label(stage, d, g), j)] if k is not None]


def _with_top(stage, sched):
    # a functional on the top y_1 of flash 4 from round 2 on, which no expected G_j holds
    d, i = label_position(stage, "s4.y1")
    return sched + [(2, d, stage.field._family.unit(i, stage.dim(d)))]


def _two_flashes(stage, sched):
    # x_2 of flashes 4 and 5 share a degree: flash 4's functional there touches
    # both, and flash 5's is dropped, so neither part lies in G_j alone
    (d, i), (_, k) = label_position(stage, "s4.x2"), label_position(stage, "s5.x2")
    mixed = stage.field._family.coerce([int(c in (i, k)) for c in range(stage.dim(d))])
    return [(j, e, mixed if label == "s4.x2" else g) for j, e, g in sched
            for label in [_label(stage, e, g)] if label != "s5.x2"]


# each maps the stage's walk to the walk the suite is handed: (stage size, perturbation)
PERTURBATIONS = {
    "correct": (5, _each(lambda label, j: j)),
    # flash 2's functionals each one round late
    "shifted": (5, _each(lambda label, j: j + 1 if label.startswith("s2.") else j)),
    # one functional of flash 4 one round early: wrong at one j, right again at j + 1
    "one-term": (5, _each(lambda label, j: j - 1 if label == "s4.x2" else j)),
    # one functional of flash 4 dropped: the failure is carried through every later round
    "carried": (5, _each(lambda label, j: None if label == "s4.x2" else j)),
    # x_0 of flash 4 one round early, which membership reads
    "degree-zero": (5, _each(lambda label, j: j - 1 if label == "s4.x0" else j)),
    # x_0 of flash 5 never added: x_0 stays in F_j past round n + 1, up to j_max
    "x0-dropped": (5, _each(lambda label, j: None if label == "s5.x0" else j)),
    # a functional on a top, which the expectation never drops
    "unmoved-degree": (5, _with_top),
    "two-flashes": (5, _two_flashes),
    # direct_sum returns the one flash unchanged
    "stage-zero": (0, _each(lambda label, j: j)),
}


@pytest.mark.parametrize("perturbation", sorted(PERTURBATIONS))
@ALGEBRAS
def test_flash_items_match_the_full_comparison(monkeypatch, char, degs, perturbation):
    # the flash items count the functionals the stage walk adds to each flash;
    # the reference compares every degree of every term of each flash's chain,
    # as the same functionals define it
    size, perturb = PERTURBATIONS[perturbation]
    sp = SuiteParams(size, size + 2, default_params(char, *degs))
    stage = counterexample_stage(size, sp.algebra)
    sched = perturb(stage, _schedule(stage))
    # the walk's invariant: each functional is added once and stays independent
    for d, dim in stage.dims_by_degree.items():
        rows = [stage.field._family.unpack(g, dim) for _, e, g in sched if e == d]
        assert Matrix(stage.field, rows, ncols=dim).rank() == len(rows)

    def walked(m):
        assert m == stage
        return _replayed(stage, sched)

    monkeypatch.setattr(suite, "_annihilators", walked)
    _, items, _, _ = suite._closed_flash_items(sp)
    shape, member = (item.data["failures"] for item in items)
    want = [reference_flash_failures(make_flash(FlashShape.l(n, 0, 1), sp.algebra),
                                     chain, n, sp.j_max)
            for n, chain in enumerate(_flash_chains(stage, sched, size + 1))]
    assert shape == sum((s for s, _ in want), [])
    assert member == sum((m for _, m in want), [])
    assert bool(shape + member) == (perturbation not in ("correct", "stage-zero"))


def test_a_wrong_flash_trace_fails_both_flash_items(monkeypatch):
    # the stage walk traces L(2,0,1)'s chain one round early, so F_1 and F_2
    # miss their expected span and x_0 leaves F_j at j = 2.  The stage items
    # read the same walk, so degree 0 loses one dimension a round early
    sp = SuiteParams(4, 6, P)
    stage = counterexample_stage(sp.stage_size, P)
    sched = _each(lambda label, j: j - 1 if label.startswith("s2.") else j)(
        stage, _schedule(stage))
    real = _annihilators
    monkeypatch.setattr(suite, "_annihilators",
                        lambda m: _replayed(stage, sched) if m == stage else real(m))
    doc = run_checks(sp).to_json_dict()
    items = {item["id"]: item for item in doc["items"]}
    assert items["filtration-shape"]["data"] == {"cases": 10,
                                                 "failures": [[2, 1], [2, 2]]}
    assert items["membership"]["data"] == {"cases": 35, "failures": [[2, 2]]}
    assert items["degree-zero-dims"]["data"]["dims"] == [5, 4, 2, 2, 1, 0, 0]
    assert [item["id"] for item in doc["items"] if not item["pass"]] == [
        "filtration-shape", "membership", "degree-zero-dims", "quotient-dims"]
    assert doc["pass"] is False


def test_flash_items_cost_is_linear_in_n(monkeypatch):
    # the flash items read each functional the stage walk adds once, through
    # one family support, and build and compare no subspace: comparing every
    # degree of every term made 4 n (n + 1) such calls per flash
    fam = P.field._family
    counts = {"support": 0, "subspace": 0}
    real_support, real_from, real_eq = (fam.support, SubspaceBasis._from_family.__func__,
                                        SubspaceBasis.__eq__)
    walks = []

    def support(*args):
        counts["support"] += 1
        return real_support(*args)

    def from_family(cls, *args):
        counts["subspace"] += 1
        return real_from(cls, *args)

    def eq(a, b):
        counts["subspace"] += 1
        return real_eq(a, b)

    def walked(m):
        for ann in _annihilators(m):
            yield ann
        walks.append(sum(map(len, ann.values())))

    monkeypatch.setattr(fam, "support", support)
    monkeypatch.setattr(SubspaceBasis, "_from_family", classmethod(from_family))
    monkeypatch.setattr(SubspaceBasis, "__eq__", eq)
    monkeypatch.setattr(suite, "_annihilators", walked)
    _, items, _, _ = suite._closed_flash_items(SuiteParams(8, 10, P))
    assert all(item.passed for item in items)
    # one functional per bottom x_k of each L(n,0,1), n <= 8
    assert walks == [45]
    assert counts == {"support": 45, "subspace": 0}


def test_no_trace_outlives_the_items_that_read_it(monkeypatch):
    # no closed flash is traced at all, and no probe's trace is alive when the
    # census decomposes the stage
    sp = SuiteParams(5, 7, P)
    closed = [make_flash(FlashShape.l(n, 0, 1), P) for n in range(sp.stage_size + 1)]
    made, alive_at_census = [], []

    def traced(m):
        assert m not in closed
        trace = filtration_trace(m)
        made.append(weakref.ref(trace))
        return trace

    def census(m):
        alive_at_census.append(sum(ref() is not None for ref in made))
        return multiplicities(m)

    monkeypatch.setattr(suite, "filtration_trace", traced)
    monkeypatch.setattr(suite, "multiplicities", census)
    assert run_checks(sp).passed
    assert len(made) == sp.stage_size + 1
    assert alive_at_census == [0]


def test_report_is_deterministic():
    a = run_checks(SuiteParams(2, 4, P))
    b = run_checks(SuiteParams(2, 4, P))
    assert a == b
    assert json.dumps(a.to_json_dict(), sort_keys=True) == \
        json.dumps(b.to_json_dict(), sort_keys=True)


@pytest.mark.parametrize("char, degs", [(2, (1, 3)), (5, (2, 5)), (17, (1, 3)), (0, (1, 3))],
                         ids=["F2", "F5", "F17", "Q"])
def test_report_is_the_same_from_a_cleared_and_a_warm_cache(char, degs):
    # the pull-back cache outlives a run: a second run finds every flash
    # triple there, and a run after a larger one finds a cache the larger
    # one filled, yet each writes the same report
    params = default_params(char, *degs)
    sp = SuiteParams(6, 8, params)
    operators._pulled.cache_clear()
    cold = json.dumps(run_checks(sp).to_json_dict(), sort_keys=True)
    warm = json.dumps(run_checks(sp).to_json_dict(), sort_keys=True)
    assert operators._pulled.cache_info().hits
    run_checks(SuiteParams(12, 14, params))
    after = json.dumps(run_checks(sp).to_json_dict(), sort_keys=True)
    assert cold == warm == after


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
    with pytest.raises(TypeError):
        SuiteParams(2, 4, P, 3)  # no parameter sets a truncation degree


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


@ALGEBRAS
@pytest.mark.parametrize("left_top", [False, True])
def test_exclusion_probe_right_infinite(char, degs, left_top):
    probe = exclusion_probe(FlashShape.right_infinite(left_top, shift=5),
                            default_params(char, *degs))
    assert probe == ExclusionProbe(left_top, True)


def test_exclusion_probe_ignores_shift():
    probe = exclusion_probe(FlashShape.l(2, 0, 1, shift=9), P)
    assert probe == ExclusionProbe(False, False)


def test_exclusion_probe_rejects_free():
    with pytest.raises(ValueError):
        exclusion_probe(FlashShape.free(0), P)


# degrees where the window holds x_0, x_1 and a top (gap 1), where |e1| > gap
# puts the left top past x_1, where |e1| = gap puts it beside x_1, where
# |e2| is not a multiple of the gap, and where |e2| is many gaps long
WINDOW_DEGS = [(1, 3), (2, 5), (3, 4), (2, 3), (1, 2), (4, 9), (1, 11), (7, 8),
               (5, 12), (3, 10), (9, 11)]


@pytest.mark.parametrize("degs", [*WINDOW_DEGS, (97, 99), (1000000, 1000003)])
def test_the_window_is_the_fixed_quotient(degs):
    # L(2, eps, 0): x_0, x_1, x_2, y_0, y_1 and, with a left top, y_{-1}
    params = default_params(2, *degs)
    for left_top in (False, True):
        window, moved = suite._right_infinite_window(left_top, params)
        assert window == make_flash(FlashShape.l(2, left_top, 0), params)
        assert window.total_dim == 5 + left_top
        assert moved == []


@pytest.mark.parametrize("degs", WINDOW_DEGS)
@pytest.mark.parametrize("char", [2, 5, 0], ids=["F2", "F5", "Q"])
def test_the_window_agrees_with_longer_truncations(char, degs):
    # the first chain step reads degrees d, d + gap and d + |e2|, so on a cut at
    # C it is exact at every d with d + |e2| <= C; there, on cuts at C = W ..
    # W + 29 past W = |e2| + gap, and on scrambles of them, it must fix every
    # degree, as it does on the right-infinite flash, and at d <= gap its F_1
    # must be the fixed window's
    params = default_params(char, *degs)
    gap, deg_e2 = params.gap, params.deg_e2
    for left_top in (False, True):
        window, moved = suite._right_infinite_window(left_top, params)
        assert window.total_dim == 5 + left_top
        assert moved == []
        w1 = filtration_trace(window)[1]
        low = [d for d in window.degrees if d <= gap]
        for cut in range(deg_e2 + gap, deg_e2 + gap + 30):
            m = truncated_infinite_flash(left_top, cut, params)
            for mod in (m, random_basis_change(m, cut)):
                f0, f1 = islice(filtration_trace(mod), 2)
                exact = [d for d in mod.degrees if d + deg_e2 <= cut]
                assert exact and all(f1[d] == f0[d] for d in exact)
                assert [f1[d].dim for d in low] == [w1[d].dim for d in low]
            # the window and the cut share their basis at d <= gap
            f1 = filtration_trace(m)[1]
            assert [f1[d] for d in low] == [w1[d] for d in low]


@pytest.mark.parametrize("wrong", [0, P.gap])
def test_a_wrong_window_chain_fails_the_contrast(monkeypatch, wrong):
    # the window's G_1 = ann F_1 gains a functional at one degree the window
    # holds exactly, so F_1 loses it: the contrast item reports it, and the
    # probe of a right-infinite flash raises rather than report a guess.  The
    # open-end flash L(2,0,0) equals the window but reads its chain through
    # the suite's whole trace, so it keeps passing
    window = make_flash(FlashShape.l(2, 0, 0), P)

    def walked(m):
        rounds = _annihilators(m)
        if m != window:
            yield from rounds
            return
        yield next(rounds)
        g1 = next(rounds)
        unit = m.field._family.unit(0, m.dim(wrong))
        yield {**g1, wrong: [*g1.get(wrong, ()), unit]}

    monkeypatch.setattr(suite, "_annihilators", walked)
    doc = run_checks(SuiteParams(4, 6, P)).to_json_dict()
    items = {item["id"]: item for item in doc["items"]}
    assert items["infinite-flash-contrast"]["data"] == {"moved": [wrong]}
    assert not items["infinite-flash-contrast"]["pass"]
    assert all(item["pass"] for item in doc["items"] if item["id"] != "infinite-flash-contrast")
    assert doc["pass"] is False
    with pytest.raises(InternalError, match=rf"flash at degrees \[{wrong}\]"):
        exclusion_probe(FlashShape.right_infinite(False), P)


@ALGEBRAS
def test_the_contrast_does_not_depend_on_jmax(char, degs):
    params = default_params(char, *degs)
    items = [run_checks(SuiteParams(3, j_max, params)).items[6] for j_max in (4, 103)]
    assert items[0] == items[1]
    assert items[0].data == {"moved": []} and items[0].passed
