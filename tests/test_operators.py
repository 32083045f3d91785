import random
from fractions import Fraction
from itertools import islice, product

import pytest

from extmod import operators
from extmod.linalg import Matrix, SubspaceBasis
from extmod.modules import (E1, E2, FlashShape, Module, default_params, direct_sum,
                            make_flash, make_free, random_basis_change, shift,
                            truncate_above, truncated_infinite_flash, with_variant)
from extmod.operators import (_annihilators, filtration, filtration_trace,
                              margolis_homology, socle)
from helpers import (act_image, basis_vector, contains, count_coerce, count_pullbacks,
                     count_span, counterexample_stage, dims, flash_sum, from_labels, full,
                     label_position, op_preimage, parent_dims, radical,
                     random_flash_shapes, random_variant_b_module, reference_chain,
                     zero_subspace)

P = default_params()
PA = default_params(variant="A")


def span(m, *labels):
    return from_labels(m, labels)


@pytest.mark.parametrize("characteristic", [2, 5, 17, 0], ids=["F2", "F5", "F17", "Q"])
def test_from_labels_needs_no_elimination(monkeypatch, characteristic):
    rng = random.Random(43)
    params = default_params(characteristic)
    calls = count_span(monkeypatch, params.field)
    for k in range(20):
        m = flash_sum(random_flash_shapes(rng, count_max=5), params)
        names = [label for ls in m.labels.values() for label in ls]
        # every label, or a draw with repeats that leaves some degrees out
        labels = names if k % 5 == 0 else rng.choices(names, k=rng.randint(0, len(names)))
        calls[0] = 0
        got = from_labels(m, labels)
        assert calls[0] == 0
        vectors = {}
        for label in labels:
            d, _ = label_position(m, label)
            vectors.setdefault(d, []).append(basis_vector(m, label))
        want = {d: SubspaceBasis.from_spanning(m.field, n, vectors.get(d, []))
                for d, n in m.dims_by_degree.items()}
        assert ({d: (s.vectors(), s.pivot_rows) for d, s in got.items()}
                == {d: (s.vectors(), s.pivot_rows) for d, s in want.items()})


def test_from_labels_keeps_label_errors():
    m = make_flash(FlashShape.l(2, 0, 1), P)
    with pytest.raises(KeyError, match="no basis vector labeled 'z9'"):
        from_labels(m, ["x0", "z9"])
    bare = random_basis_change(m, 3)
    with pytest.raises(KeyError, match="carries no basis labels"):
        from_labels(bare, ["x0"])
    assert not dims(from_labels(bare, []))


def test_act_image_examples():
    m2 = make_flash(FlashShape.l(2, 0, 1), P)
    assert act_image(m2, E1, full(m2)) == span(m2, "y0", "y1")
    m1 = make_flash(FlashShape.l(1, 0, 1), P)
    assert act_image(m1, E2, full(m1)) == span(m1, "y0", "y1")
    assert not dims(act_image(m1, E1, zero_subspace(m1)))


def test_op_preimage_examples():
    for n in (1, 2, 3):
        m = make_flash(FlashShape.l(n, 0, 1), P)
        e1m = act_image(m, E1, full(m))
        pre = op_preimage(m, E2, e1m)
        everything_but_xn = [f"x{i}" for i in range(n)] + \
            [f"y{i}" for i in range(n + 1)]
        assert pre == span(m, *everything_but_xn)
    m1 = make_flash(FlashShape.l(1, 0, 1), P)
    assert op_preimage(m1, E2, full(m1)) == full(m1)
    assert op_preimage(m1, E2, zero_subspace(m1)) == span(m1, "y0", "y1")


def test_filtration_examples():
    m2 = make_flash(FlashShape.l(2, 0, 1), P)
    assert filtration(m2, 0) == full(m2)
    assert filtration(m2, 1) == span(m2, "x0", "x1", "y0", "y1", "y2")
    tops = span(m2, "y0", "y1", "y2")
    for j in (3, 4, 5):
        assert filtration(m2, j) == tops


def test_filtration_chain_decreases_and_stabilizes():
    rng = random.Random(5)
    cases = [flash_sum(random_flash_shapes(rng, 4, 4, 6), P) for _ in range(3)]
    cases += [random_variant_b_module(P, 8, seed) for seed in (1, 2)]
    cases += [random_basis_change(cases[0], 9)]
    for m in cases:
        trace = filtration_trace(m)
        for j in range(len(trace.subspaces) - 1):
            assert contains(trace.subspaces[j], trace.subspaces[j + 1])
        assert trace.stable_index <= m.total_dim
        assert trace.subspaces[trace.stable_index] == \
            trace.subspaces[trace.stable_index + 1]


@pytest.mark.parametrize("bad", [1.5, Fraction(3, 2), "1"], ids=["float", "Fraction", "str"])
def test_a_term_index_must_be_an_integer(bad):
    # a non-integer names no term: it must raise, not run the chain to its
    # end and read the stable term, which at degree 0 is 0 where F_1 is 1
    m = make_flash(FlashShape.l(3, 0, 1), P)
    trace = filtration_trace(m)
    with pytest.raises(TypeError):
        filtration(m, bad)
    with pytest.raises(TypeError):
        trace[bad]
    with pytest.raises(TypeError):
        trace[len(trace.subspaces) + 0.5]
    assert filtration(m, 1)[0].dim == filtration(m, True)[0].dim == 1
    assert trace[1] is trace[True] and trace[1][0].dim == 1
    assert filtration(m, 1) == trace[1]


@pytest.mark.parametrize("degs", [(1, 3), (2, 5), (1, 2), (3, 4)])
@pytest.mark.parametrize("char", [2, 3, 5, 13, 17, 0], ids=["F2", "F3", "F5", "F13", "F17", "Q"])
def test_filtration_reads_the_trace_off_the_walk(monkeypatch, char, degs):
    # F_j as the kernel of G_j = ann F_j equals the trace's term j, subspace
    # for subspace, at every j up to two past the stable index, on drawn
    # modules, scrambled flash sums and a scrambled variant-A sum with free
    # summands; and it makes no pull-back
    params = default_params(char, *degs)
    rng = random.Random(97 * char + 11 * degs[0] + degs[1])
    cases = [random_variant_b_module(params, 24, rng.randrange(10**6)) for _ in range(8)]
    cases += [random_basis_change(flash_sum(random_flash_shapes(rng, 8, 6, 8), params),
                                  rng.randrange(10**6)) for _ in range(6)]
    pa = params.with_variant("A")
    for _ in range(2):
        parts = [make_free(rng.randint(0, 6), pa) for _ in range(2)]
        parts.append(with_variant(flash_sum(random_flash_shapes(rng, 3, 4, 6), params), "A"))
        cases.append(random_basis_change(direct_sum(parts, pa), rng.randrange(10**6)))
    traces = [filtration_trace(m) for m in cases]

    def pulled(*args):
        raise AssertionError("filtration pulled a degree back")

    monkeypatch.setattr(operators, "_pulled", pulled)
    for m, trace in zip(cases, traces):
        for j in range(trace.stable_index + 3):
            assert filtration(m, j) == trace[j], j


def test_the_pull_back_cache_stays_bounded():
    # the unscrambled stage at N = 24 pulls back 25 + 300 distinct triples,
    # more than the cache holds
    bound = operators._pulled.cache_parameters()["maxsize"]
    filtration_trace(counterexample_stage(24, P))
    info = operators._pulled.cache_info()
    assert info.misses == 25 + 300 > bound
    assert info.currsize <= bound


def test_a_trace_iterates_its_terms_and_rejects_negative_indices():
    # indexing past the end returns the stable term, so iteration must not
    # fall back on indexing: it would never end
    trace = filtration_trace(make_flash(FlashShape.l(1, 0, 1), P))
    assert list(islice(iter(trace), len(trace.subspaces) + 1)) == list(trace.subspaces)
    with pytest.raises(ValueError, match="non-negative"):
        trace[-1]


@pytest.mark.parametrize("degs", [(1, 2), (1, 3), (2, 5)])
@pytest.mark.parametrize("char", [2, 5, 17, 0])
def test_chain_matches_full_recomputation(char, degs):
    params = default_params(char, *degs)
    rng = random.Random(char * 100 + degs[1])
    cases = [random_variant_b_module(params, 12, rng.randrange(10**6))
             for _ in range(2)]
    cases += [random_basis_change(flash_sum(random_flash_shapes(rng, 4, 4, 6),
                                            params), rng.randrange(10**6))
              for _ in range(2)]
    cases.append(counterexample_stage(4, params))
    cases += [truncated_infinite_flash(left, 6 * params.gap + params.deg_e2,
                                       params) for left in (False, True)]
    # cuts leave degrees e2 kills and e2 blocks with no e1 block at d + gap,
    # so the chain skips degrees and pulls back zero targets
    for _ in range(2):
        m = flash_sum(random_flash_shapes(rng, 5, 5, 6), params)
        cases += [truncate_above(m, rng.choice(m.degrees)),
                  random_basis_change(truncate_above(m, max(m.degrees) - params.deg_e1),
                                      rng.randrange(10**6))]
    # free summands over variant A, where e1 e2 does not vanish
    pa = params.with_variant("A")
    for _ in range(2):
        parts = [make_free(rng.randint(0, 6), pa) for _ in range(rng.randint(1, 3))]
        parts.append(with_variant(flash_sum(random_flash_shapes(rng, 3, 4, 6), params), "A"))
        cases.append(random_basis_change(direct_sum(parts, pa), rng.randrange(10**6)))
    # single flashes hold one block object per shape, which shift and cuts
    # pass through, so a step pulls back each distinct (e2 block, e1 block,
    # target) once and hands its result to every degree that has them
    for n in range(13):
        for eps, eps2 in product((0, 1), repeat=2):
            m = make_flash(FlashShape.l(n, eps, eps2), params)
            top = max(m.degrees)
            cases += [m, shift(m, 7), truncate_above(m, top - params.deg_e1),
                      truncate_above(shift(m, -5), top // 2 - 5)]
    for m in cases:
        ref = reference_chain(m)
        trace = filtration_trace(m)
        assert trace.subspaces == tuple(ref)
        assert trace.stable_index == len(ref) - 2
        for j in range(len(ref) + 2):
            assert filtration(m, j) == ref[min(j, len(ref) - 1)]
        assert trace.stable == ref[-1]


@pytest.mark.parametrize("char", [2, 5, 17, 0])
def test_chains_that_share_one_pull_back_dict_match_the_reference(monkeypatch, char):
    # one cache, keyed on values, shared by the chains of many modules over one
    # algebra: flashes and their cuts, random modules and scrambled flash sums.
    # Equal triples from different modules share a pull-back, and each chain
    # still equals its full recomputation; walked again at once, a chain pulls
    # nothing back
    params = default_params(char)
    rng = random.Random(char + 7)
    cases = [make_flash(FlashShape.l(n, eps, eps2), params)
             for n in range(6) for eps, eps2 in product((0, 1), repeat=2)]
    cases += [truncate_above(m, max(m.degrees) - params.deg_e1) for m in cases[4:12]]
    cases += [random_variant_b_module(params, 10, rng.randrange(10**6)) for _ in range(3)]
    cases += [random_basis_change(flash_sum(random_flash_shapes(rng, 3, 3, 4), params),
                                  rng.randrange(10**6)) for _ in range(2)]
    calls = count_pullbacks(monkeypatch)
    for m in cases:
        ref = reference_chain(m)
        trace = filtration_trace(m)
        assert trace.subspaces == tuple(ref)
        assert trace.stable_index == len(ref) - 2
        calls.clear()
        assert filtration_trace(m).subspaces == tuple(ref)
        assert calls == []
    # the flashes repeat one another's blocks, so their chains pull back fewer
    # triples together than one at a time
    alone = 0
    for m in cases[:24]:
        operators._pulled.cache_clear()
        calls.clear()
        filtration_trace(m)
        alone += len(calls)
    operators._pulled.cache_clear()
    calls.clear()
    for m in cases[:24]:
        filtration_trace(m)
    assert len(calls) < alone


@pytest.mark.parametrize("degs", [(1, 3), (2, 5), (1, 2), (3, 4)])
@pytest.mark.parametrize("char", [2, 5, 17, 0], ids=["F2", "F5", "F17", "Q"])
def test_annihilator_walk_matches_the_primal_chain(char, degs):
    # dim F_j(d) = dim M_d - rank G_j(d) for G_j = ann F_j, at every degree and
    # every step, with as many terms as the primal walk and the full
    # recomputation, on drawn modules, scrambled flash sums and their cuts
    params = default_params(char, *degs)
    rng = random.Random(31 * char + 7 * degs[0] + degs[1])
    cases = [random_variant_b_module(params, 14, rng.randrange(10**6)) for _ in range(4)]
    for _ in range(3):
        m = flash_sum(random_flash_shapes(rng, 5, 4, 6), params)
        cases += [random_basis_change(m, rng.randrange(10**6)),
                  random_basis_change(truncate_above(m, max(m.degrees) - params.deg_e1),
                                      rng.randrange(10**6))]
    cases.append(counterexample_stage(5, params))
    no_e1 = killed = 0
    for m in cases:
        e1, e2 = m.action_items(E1), m.action_items(E2)
        no_e1 += any(d + params.gap not in e1 for d in e2)
        killed += any(d not in e2 for d in m.degrees)
        ref = reference_chain(m)
        primal = [{d: sub.dim for d, sub in term.items()} for term in filtration_trace(m)]
        dual = [{d: n - len(ann.get(d, ())) for d, n in m.dims_by_degree.items()}
                for ann in _annihilators(m)]
        assert dual == primal == [{d: sub.dim for d, sub in term.items()} for term in ref]
    # the cuts leave e2 blocks with no e1 block at d + gap and degrees e2 kills
    assert no_e1 and killed


def test_chain_recomputes_only_moved_degrees(monkeypatch):
    # step 1 pulls back each degree e2 acts on once; step j >= 2 pulls back
    # degree d only if F_{j-1}(d + gap) moved at step j - 1 and e1 acts there
    calls = count_pullbacks(monkeypatch)
    n = 10
    stage = counterexample_stage(n, P)
    e1, e2 = stage.action_items(E1), stage.action_items(E2)
    terms = filtration_trace(stage).subspaces
    assert len(terms) == n + 3
    # a term shares the object of every degree that did not move
    later = sum(terms[i][d + P.gap] is not terms[i - 1][d + P.gap]
                for i in range(1, len(terms) - 1) for d in e2 if d + P.gap in e1)
    # e2 acts on the stage's n + 1 bottom degrees, 0, gap, ..., n * gap, and the
    # later steps pull back n (n + 1) / 2 degrees in all
    assert len(calls) == len(e2) + later == n + 1 + n * (n + 1) // 2
    assert all(any(a is b for b in e2.values()) for a in calls)


def test_filtration_builds_only_terms_up_to_j(monkeypatch):
    # one long flash moves one degree per step for n + 1 steps; term j must
    # cost its own j rounds of the annihilator walk, not the whole chain, and
    # no pull-back at all
    n = 40
    m = make_flash(FlashShape.l(n, 0, 1), P)
    trace = filtration_trace(m)
    assert len(trace.subspaces) == n + 3
    rounds = []

    def walked(mod):
        for ann in _annihilators(mod):
            rounds.append(ann)
            yield ann

    def pulled(*args):
        raise AssertionError("filtration pulled a degree back")

    monkeypatch.setattr(operators, "_annihilators", walked)
    monkeypatch.setattr(operators, "_pulled", pulled)
    for j in (0, 1, 2, 5, n + 1, n + 9):
        rounds.clear()
        assert filtration(m, j) == trace[j]
        # the walk stops at its first repeat, G_{n+2} = G_{n+1}
        assert len(rounds) == min(j, n + 2) + 1, j


@pytest.mark.parametrize("characteristic", [2, 5, 17, 0], ids=["F2", "F5", "F17", "Q"])
def test_a_shared_block_pair_meets_two_targets_in_one_step(monkeypatch, characteristic):
    # two chains B0 -> T0 <- B1 -> T1 with 2-dimensional degrees, 100 degrees
    # apart, hold the same identity object as e2 at B0 and as e1 at B1; e2 at
    # B1 is the identity in one chain and a projection in the other.  Step 1
    # sends F_1(B1) to 0 in one chain and to a line in the other, so step 2
    # pulls B0 back through the same two blocks onto two different targets,
    # which a key without its target would merge
    params = default_params(characteristic)
    field = params.field
    one = Matrix.identity(field, 2)
    proj = Matrix(field, [[1, 0], [0, 0]])
    b0, b1 = 0, params.gap
    t0, t1 = b0 + params.deg_e2, b1 + params.deg_e2
    dims = {d + at: 2 for d in (b0, b1, t0, t1) for at in (0, 100)}
    m = Module(params, dims, {b1: one, b1 + 100: one},
               {b0: one, b1: one, b0 + 100: one, b1 + 100: proj})
    calls = count_pullbacks(monkeypatch)
    trace = filtration_trace(m)
    ref = reference_chain(m)
    assert trace.subspaces == tuple(ref)
    assert (trace[2][b0].dim, trace[2][b0 + 100].dim) == (0, 1)
    # through the identity, step 1 pulls back B0 and B0 + 100 once between
    # them and B1 onto zero, and step 2 pulls back B0 and B0 + 100 each
    assert [id(a) for a in calls].count(id(one)) == 1 + 1 + 2


@pytest.mark.parametrize("characteristic", [2, 5, 17, 0], ids=["F2", "F5", "F17", "Q"])
def test_equal_blocks_held_as_distinct_objects_share_one_pull_back(monkeypatch, characteristic):
    # two copies, 100 degrees apart, of x -e2-> y <-e1- z, each built from
    # matrix objects of its own: step 1 meets equal triples at x and x + 100,
    # so it pulls back once and both degrees share the result
    params = default_params(characteristic)
    field = params.field
    x, z = 0, params.gap
    y = x + params.deg_e2
    dims = {d + at: 2 for d in (x, y, z) for at in (0, 100)}
    e1 = {z + at: Matrix(field, [[1, 0], [0, 0]]) for at in (0, 100)}
    e2 = {x + at: Matrix.identity(field, 2) for at in (0, 100)}
    assert e2[x] == e2[x + 100] and e2[x] is not e2[x + 100]
    m = Module(params, dims, e1, e2)
    calls = count_pullbacks(monkeypatch)
    trace = filtration_trace(m)
    assert trace.subspaces == tuple(reference_chain(m))
    assert len(calls) == 1
    assert trace[1][x] is trace[1][x + 100] and trace[1][x].dim == 1


@pytest.mark.parametrize("characteristic", [2, 5, 17, 0], ids=["F2", "F5", "F17", "Q"])
def test_degrees_e2_kills_keep_f0_and_span_nothing(monkeypatch, characteristic):
    # e2^{-1} of anything is the whole degree where e2 has no block: such a
    # degree keeps F_0's object in every term and costs the chain no span
    params = default_params(characteristic)
    stage = counterexample_stage(6, params)
    # and a summand e2 kills throughout, x with e1 x = y, far above the stage
    tops = Module(params, {40: 1, 40 + params.deg_e1: 1},
                  {40: Matrix(params.field, [[1]])}, {})
    m = direct_sum([stage, tops], params)
    killed = [d for d in m.degrees if d not in m.action_items(E2)]
    assert {40, 40 + params.deg_e1} < set(killed)
    calls = count_span(monkeypatch, params.field)
    # each trace from a cleared pull-back cache, so both make their own spans
    operators._pulled.cache_clear()
    alone = filtration_trace(stage)
    spans, calls[0] = calls[0], 0
    operators._pulled.cache_clear()
    trace = filtration_trace(m)
    assert calls[0] == spans
    assert all(t[d] is trace[0][d] for t in trace.subspaces for d in killed)
    assert [{d: t[d] for d in stage.degrees} for t in trace.subspaces] == list(alone.subspaces)
    # F_0 is one full space per dimension, shared by every degree of that dimension
    f0 = trace[0]
    assert all(f0[d] == SubspaceBasis.full(params.field, n) for d, n in m.dims_by_degree.items())
    assert len({id(sub) for sub in f0.values()}) == len(set(m.dims_by_degree.values()))


def test_filtration_trace_coerces_only_scalars(monkeypatch):
    # the chain works only on vectors that apply, vectors() and elimination
    # made canonical, so nothing is coerced
    calls = count_coerce(monkeypatch)
    filtration_trace(counterexample_stage(10, default_params()))
    assert calls[0] == 0


def test_filtration_trace_elimination_count(monkeypatch):
    # the chain pulls back 11 + 55 degrees of this stage, and e1 has a block
    # for all but one of them; in every layout a pull-back spans the e1-image
    # with one from_spanning, then the preimage with one span made in the
    # family with no from_spanning
    spans = 66 + 65
    for characteristic in (2, 5, 17, 0):
        params = default_params(characteristic)
        calls = count_span(monkeypatch, params.field)
        made = [0]
        from_spanning = SubspaceBasis.from_spanning.__func__
        monkeypatch.setattr(SubspaceBasis, "from_spanning", classmethod(
            lambda cls, *args, **kw: made.__setitem__(0, made[0] + 1)
            or from_spanning(cls, *args, **kw)))
        filtration_trace(counterexample_stage(10, params))
        assert calls[0] == spans, characteristic
        assert made[0] == spans - 66, characteristic
        monkeypatch.undo()


def test_preimage_image_adjunction():
    rng = random.Random(6)
    for seed in range(5):
        m = random_variant_b_module(P, 8, 100 + seed)
        u = {d: SubspaceBasis.coordinate(m.field, n, [rng.randrange(n)] if rng.random() < 0.6
                                         else [])
             for d, n in m.dims_by_degree.items()}
        assert contains(op_preimage(m, E2, act_image(m, E2, u)), u)
        assert contains(u, act_image(m, E2, op_preimage(m, E2, u)))


@pytest.mark.parametrize("n", range(13))
def test_bottom_membership_law(n):
    # the canonical x0 belongs to F_j exactly while j <= n
    m = make_flash(FlashShape.l(n, 0, 1), P)
    x0 = basis_vector(m, "x0")
    trace = filtration_trace(m)
    for j in range(n + 3):
        assert trace[j][0].contains_vector(x0) == (j <= n)


def test_open_ended_flash_never_expels_x0():
    for n in (0, 1, 2, 4):
        m = make_flash(FlashShape.l(n, 0, 0), P)
        x0 = basis_vector(m, "x0")
        trace = filtration_trace(m)
        for j in range(2 * n + 4):
            assert trace[j][0].contains_vector(x0)
        assert trace.stable == full(m)


def test_stable_intersection_examples():
    stage = counterexample_stage(3, P)
    assert filtration_trace(stage).stable[0].dim == 0
    from extmod.modules import zero_module
    assert not dims(filtration_trace(zero_module(P)).stable)


def test_degree_slices_are_dict_entries():
    # a graded subspace holds every degree of its module and no other
    m = make_flash(FlashShape.l(3, 0, 1), P)
    assert full(m)[0].dim == 1
    assert 100 not in full(m) and 100 not in filtration(m, 2)
    stage = counterexample_stage(4, P)
    assert filtration(stage, 2)[0].dim == 3


def test_socle_and_radical():
    m1 = make_flash(FlashShape.l(1, 0, 1), P)
    assert socle(m1) == span(m1, "y0", "y1")
    simple = make_flash(FlashShape.simple(), P)
    assert socle(simple) == full(simple)
    free = make_free(0, PA)
    assert radical(free) == from_labels(
        free, ["e1g", "e2g", "e1e2g"])
    for seed in range(4):
        m = random_variant_b_module(P, 9, 200 + seed)
        assert contains(socle(m), radical(m))


def test_margolis_examples():
    free = make_free(0, PA)
    assert margolis_homology(free, E1) == {}
    assert margolis_homology(free, E2) == {}
    for n in range(9):
        m = make_flash(FlashShape.l(n, 0, 1), P)
        assert margolis_homology(m, E2) == {}
        assert margolis_homology(m, E1) == {0: 1, n * P.gap + P.deg_e2: 1}
    m2 = make_flash(FlashShape.l(2, 0, 1), P)
    assert margolis_homology(m2, E1) == {0: 1, 7: 1}


def test_margolis_additive_and_invariant():
    rng = random.Random(8)
    for seed in range(4):
        shapes = random_flash_shapes(rng, 4, 4, 5)
        mods = [make_flash(s, P) for s in shapes]
        total = direct_sum(mods, P)
        for which in (E1, E2):
            summed = {}
            for m in mods:
                for d, k in margolis_homology(m, which).items():
                    summed[d] = summed.get(d, 0) + k
            assert margolis_homology(total, which) == summed
            scrambled = random_basis_change(total, 300 + seed)
            assert margolis_homology(scrambled, which) == summed


@pytest.mark.parametrize("which", [E1, E2])
def test_margolis_ranks_each_block_once(monkeypatch, which):
    # a block's rank serves both the kernel at its source and the image at its target
    m = random_basis_change(flash_sum(random_flash_shapes(random.Random(9), 6, 5, 6), P), 11)
    want = margolis_homology(m, which)
    ranked, real_rank = [], Matrix.rank

    def rank(a):
        ranked.append(a)  # held, so no two blocks share an id
        return real_rank(a)

    monkeypatch.setattr(Matrix, "rank", rank)
    assert margolis_homology(m, which) == want
    assert len({id(a) for a in ranked}) == len(ranked) <= len(m.action_items(which))


def _placed(field, n, offset, sub):
    """The vectors of ``sub`` written at coordinates offset .. in dimension n."""
    return [(field.zero,) * offset + v + (field.zero,) * (n - offset - len(v))
            for v in sub.vectors()]


@pytest.mark.parametrize("char", [2, 5, 0], ids=["F2", "F5", "Q"])
def test_filtration_commutes_with_direct_sums(char):
    # every F_j of a + b is F_j(a) + F_j(b), each at its direct_sum offset,
    # and the sum's chain stops moving when the slower summand's does
    params = default_params(char)
    field = params.field
    rng = random.Random(char)
    for seed in range(4):
        drawn = [random_variant_b_module(params, 16, 2 * seed + k) for k in (0, 1)]
        scrambled = [random_basis_change(flash_sum(random_flash_shapes(rng, 4, 4, 5), params),
                                         2 * seed + k) for k in (0, 1)]
        for a, b in (drawn, scrambled):
            total = direct_sum([a, b])
            ta, tb, tt = (filtration_trace(m) for m in (a, b, total))
            assert tt.stable_index == max(ta.stable_index, tb.stable_index)
            for j in range(tt.stable_index + 2):
                for d, n in total.dims_by_degree.items():
                    vecs = []
                    if d in a.dims_by_degree:
                        vecs += _placed(field, n, 0, ta[j][d])
                    if d in b.dims_by_degree:
                        vecs += _placed(field, n, n - b.dim(d), tb[j][d])
                    assert tt[j][d] == SubspaceBasis.from_spanning(field, n, vecs)


def test_operators_commute_with_shift():
    m = flash_sum([FlashShape.l(2, 0, 1), FlashShape.finite(2, True, False, 1)], P)
    moved = shift(m, 5)
    for j in (0, 1, 2, 3):
        left = filtration(moved, j)
        right = filtration(m, j)
        assert dims(left) == {d + 5: k for d, k in dims(right).items()}
        assert all(left[d + 5] == right[d] for d in right)
    assert margolis_homology(moved, E1) == \
        {d + 5: k for d, k in margolis_homology(m, E1).items()}


def test_ambient_mismatch_rejected():
    m1 = make_flash(FlashShape.l(1, 0, 1), P)
    m2 = make_flash(FlashShape.l(2, 0, 1), P)
    with pytest.raises(ValueError):
        act_image(m2, E1, full(m1))


def test_carrier_is_read_off_the_spaces():
    # every constructor and operator yields a subspace of the module's own
    # carrier, read off the ambient dimensions of its spaces
    m = random_basis_change(flash_sum(random_flash_shapes(random.Random(8), 4, 4, 6), P), 3)
    u = full(m)
    made = [u, zero_subspace(m), act_image(m, E1, u), op_preimage(m, E2, u),
            socle(m), radical(m), *filtration_trace(m).subspaces]
    assert all(parent_dims(v) == m.dims_by_degree for v in made)
    # one degree's ambient dimension differs: unequal, and not comparable
    d = max(m.dims_by_degree, key=m.dim)
    wider = {**u, d: SubspaceBasis.zero(m.field, m.dim(d) + 1)}
    narrower = {**u, d: SubspaceBasis.zero(m.field, m.dim(d))}
    assert wider != narrower
    with pytest.raises(ValueError, match="different carriers"):
        contains(wider, narrower)
