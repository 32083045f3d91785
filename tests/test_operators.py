import random

import pytest

from extmod import operators
from extmod.linalg import Matrix, SubspaceBasis
from extmod.modules import (E1, E2, FlashShape, Module, default_params, direct_sum,
                            make_flash, make_free, random_basis_change, shift,
                            truncate_above, truncated_infinite_flash, with_variant)
from extmod.operators import (filtration, filtration_trace, margolis_homology,
                              socle, stable_intersection)
from extmod.modules import counterexample_stage
from helpers import (act_image, basis_vector, contains, count_coerce, count_span,
                     dims, flash_sum, from_labels, full, label_position,
                     op_preimage, parent_dims, radical, random_flash_shapes,
                     random_variant_b_module, reference_chain, zero_subspace)

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
    for m in cases:
        ref = reference_chain(m)
        trace = filtration_trace(m)
        assert trace.subspaces == tuple(ref)
        assert trace.stable_index == len(ref) - 2
        for j in range(len(ref) + 2):
            assert filtration(m, j) == ref[min(j, len(ref) - 1)]
        assert stable_intersection(m) == ref[-1]


def count_pullbacks(monkeypatch):
    """Record the e2 block of every pull-back the chain makes from now on.

    A step pulls a degree back through ``pullback``, or through
    ``preimage_space`` where e1 has no block to take images with.
    """
    calls = []
    for name in ("pullback", "preimage_space"):
        def counted(a, *rest, real=getattr(operators, name)):
            calls.append(a)
            return real(a, *rest)

        monkeypatch.setattr(operators, name, counted)
    return calls


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
    # cost its own j steps, not the whole chain
    calls = count_pullbacks(monkeypatch)
    n = 40
    m = make_flash(FlashShape.l(n, 0, 1), P)
    e2 = m.action_items(E2)
    assert len(filtration_trace(m).subspaces) == n + 3
    assert len(calls) == len(e2) + n
    for j in (0, 1, 2, 5):
        calls.clear()
        filtration(m, j)
        # step 1 pulls back the n + 1 bottoms, which e2 acts on, and each
        # later step the one that moved
        assert len(calls) == (len(e2) + j - 1 if j else 0) == (n + j if j else 0), j


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
    alone = filtration_trace(stage)
    spans, calls[0] = calls[0], 0
    trace = filtration_trace(m)
    assert calls[0] == spans
    assert all(t[d] is trace[0][d] for t in trace.subspaces for d in killed)
    assert [{d: t[d] for d in stage.degrees} for t in trace.subspaces] == list(alone.subspaces)


def test_filtration_trace_coerces_only_scalars(monkeypatch):
    # the chain works only on vectors that apply, vectors() and elimination
    # made canonical, so nothing is coerced
    calls = count_coerce(monkeypatch)
    filtration_trace(counterexample_stage(10, default_params()))
    assert calls[0] == 0


def test_filtration_trace_elimination_count(monkeypatch):
    # the chain pulls back 11 + 55 degrees of this stage, and e1 has a block
    # for all but one of them; the byte layouts put the e1-images straight
    # into the preimage's span, one span a pull-back, and the tuple layouts
    # span each image first
    for characteristic, spans in ((2, 66), (5, 66), (17, 66 + 65), (0, 66 + 65)):
        params = default_params(characteristic)
        calls = count_span(monkeypatch, params.field)
        filtration_trace(counterexample_stage(10, params))
        assert calls[0] == spans, characteristic
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
        assert stable_intersection(m) == full(m)


def test_stable_intersection_examples():
    stage = counterexample_stage(3, P)
    assert stable_intersection(stage)[0].dim == 0
    from extmod.modules import zero_module
    assert not dims(stable_intersection(zero_module(P)))


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
