import random

import pytest

from extmod import modules
from extmod.decompose import decompose, multiplicities, verify_decomposition
from extmod.linalg import Field, Matrix
from extmod.modules import (E1, E2, AlgebraParams, FlashShape, Module,
                            default_params, direct_sum, make_flash, make_free,
                            random_basis_change, shift, truncate_above,
                            truncated_infinite_flash, validate, with_variant,
                            zero_module)
from helpers import (counterexample_stage, label_position, random_flash_shapes,
                     reference_direct_sum, reference_flash, reference_product,
                     reference_random_basis_change, reference_relation_violations,
                     scramble_test_module)

P = default_params()
PA = default_params(variant="A")

DEGREE_PAIRS = [(1, 3), (2, 5), (1, 2), (3, 4)]
CHARACTERISTICS = [2, 5, 0]


def test_params_validation():
    with pytest.raises(ValueError):
        AlgebraParams(Field(2), 3, 1)
    with pytest.raises(ValueError):
        AlgebraParams(Field(2), 0, 2)
    with pytest.raises(ValueError):
        AlgebraParams(Field(2), 1, 3, "C")


def test_sigma():
    assert default_params(2, 1, 3).sigma == 1          # char 2 flattens the sign
    assert default_params(5, 1, 3).sigma == 4          # odd * odd -> -1
    assert default_params(5, 2, 5).sigma == 1          # even product -> +1
    assert default_params(0, 1, 3).sigma == -1


def test_flash_m1_actions():
    m = make_flash(FlashShape.l(1, 0, 1), P)
    assert m.dims_by_degree == {0: 1, 2: 1, 3: 1, 5: 1}
    # e2 x0 = y0, e1 x1 = y0, e2 x1 = y1, e1 x0 = 0
    assert m.action(E2, 0) == Matrix(P.field, [[1]])
    assert m.action(E1, 2) == Matrix(P.field, [[1]])
    assert m.action(E2, 2) == Matrix(P.field, [[1]])
    assert m.action(E1, 0).is_zero()
    assert not validate(m)


def test_flash_simple_at_5():
    m = make_flash(FlashShape.simple(5), P)
    assert m.dims_by_degree == {5: 1}
    assert m.action(E1, 5).is_zero() and m.action(E2, 5).is_zero()


def test_flash_m2_degree_table():
    m = make_flash(FlashShape.l(2, 0, 1), P)
    assert m.dims_by_degree == {0: 1, 2: 1, 3: 1, 4: 1, 5: 1, 7: 1}
    assert m.total_dim == 6


@pytest.mark.parametrize("char", CHARACTERISTICS)
@pytest.mark.parametrize("degs", DEGREE_PAIRS)
def test_flash_shape_dimension_law(char, degs):
    params = default_params(char, *degs)
    rng = random.Random(hash((char, degs)) & 0xFFFF)
    for bottoms in range(1, 6):
        for lt in (False, True):
            for rt in (False, True):
                shape = FlashShape.finite(bottoms, lt, rt, rng.randint(-3, 6))
                m = make_flash(shape, params)
                assert not validate(m)
                assert m.total_dim == 2 * bottoms - 1 + lt + rt == shape.total_dim
                # every bottom sits on the arithmetic ladder
                for i in range(bottoms):
                    d, _ = label_position(m, f"x{i}")
                    assert d == shape.shift + i * params.gap


def test_free_module():
    m = make_free(0, PA)
    assert m.dims_by_degree == {0: 1, 1: 1, 3: 1, 4: 1}
    assert not validate(m)
    # e1 applied to the e1-layer vector dies
    d, _ = label_position(m, "e1g")
    assert m.action(E1, d).is_zero()


def test_free_requires_variant_a():
    with pytest.raises(ValueError):
        make_free(0, P)


@pytest.mark.parametrize("char", CHARACTERISTICS)
@pytest.mark.parametrize("degs", DEGREE_PAIRS)
def test_free_valid_for_any_sign(char, degs):
    params = default_params(char, *degs, variant="A")
    assert not validate(make_free(2, params))


def test_direct_sum_dims():
    m = direct_sum([make_flash(FlashShape.l(0, 0, 1), P),
                    make_flash(FlashShape.l(1, 0, 1), P)])
    assert m.dims_by_degree == {0: 2, 2: 1, 3: 2, 5: 1}


def test_direct_sum_empty_and_mismatch():
    assert direct_sum([], P).total_dim == 0
    with pytest.raises(ValueError):
        direct_sum([])
    with pytest.raises(ValueError):
        direct_sum([make_flash(FlashShape.simple(), P),
                    make_flash(FlashShape.simple(), default_params(5))])


def _list_built_sum_blocks(mods, which):
    """The blocks of direct_sum(mods) for one action, placed entry by entry in lists."""
    field, step = mods[0].field, mods[0].params.action_degree(which)
    dims, offsets = {}, []
    for m in mods:
        off = {}
        for d, n in m.dims_by_degree.items():
            off[d] = dims.get(d, 0)
            dims[d] = off[d] + n
        offsets.append(off)
    out = {}
    for m, off in zip(mods, offsets):
        for d, a in m.action_items(which).items():
            rows = out.setdefault(d, [[field.zero] * dims[d] for _ in range(dims[d + step])])
            for i, row in enumerate(a.rows):
                rows[off[d + step] + i][off[d]:off[d] + a.ncols] = row
    return {d: Matrix(field, rows, ncols=dims[d]) for d, rows in out.items()}


@pytest.mark.parametrize("char", CHARACTERISTICS)
def test_direct_sum_matches_list_built_blocks(char):
    # scrambled sums of shifted flashes leave each other's degrees empty or
    # share them, and the zero module is empty in every degree
    rng = random.Random(61)
    params = default_params(char)
    for _ in range(8):
        mods = [random_basis_change(direct_sum([make_flash(shape, params) for shape in
                                                random_flash_shapes(rng, 3, 3, 6)], params),
                                    rng.randrange(1000))
                for _ in range(rng.randint(1, 4))]
        mods.insert(rng.randrange(len(mods) + 1), zero_module(params))
        total = direct_sum(mods)
        assert total.dims_by_degree == direct_sum(mods[::-1]).dims_by_degree
        for which in (E1, E2):
            assert total.action_items(which) == _list_built_sum_blocks(mods, which)


def test_direct_sum_associativity_on_dims():
    a = make_flash(FlashShape.l(1, 0, 1), P)
    b = make_flash(FlashShape.finite(2, True, False), P)
    c = make_flash(FlashShape.simple(4), P)
    left = direct_sum([direct_sum([a, b]), c])
    right = direct_sum([a, direct_sum([b, c])])
    assert left.dims_by_degree == right.dims_by_degree
    for which in (E1, E2):
        for d in left.degrees:
            assert left.action(which, d).rank() == right.action(which, d).rank()


@pytest.mark.parametrize("char", CHARACTERISTICS)
def test_direct_sum_is_block_diagonal(char):
    # summands over variant A with odd degrees carry the scalar sigma = -1, and
    # some degrees hold a summand with no action there
    params = default_params(char, 1, 3, "A")
    mods = [make_flash(FlashShape.l(2, 0, 1), params), make_free(1, params),
            shift(make_flash(FlashShape.finite(2, True, False), params), 3),
            make_flash(FlashShape.simple(2), params), make_free(0, params)]
    total = direct_sum(mods)
    _, blocks = reference_direct_sum(mods)
    assert {(which, d): total.action(which, d) for which, d in blocks} == blocks


def _ordered_parts(m):
    """m's dimensions, blocks and labels as ordered item lists."""
    return (list(m.dims_by_degree.items()),
            [list(m.action_items(which).items()) for which in (E1, E2)],
            None if m.labels is None else list(m.labels.items()))


def assert_in_normal_form(m):
    # the checked constructor, given the parts of a module built raw, must
    # keep them as they are, in the same order
    checked = Module(m.params, m.dims_by_degree, m.action_items(E1), m.action_items(E2),
                     labels=m.labels)
    assert _ordered_parts(m) == _ordered_parts(checked)


def test_checked_constructor_names_a_wrong_shaped_block():
    f = P.field
    with pytest.raises(ValueError, match=r"^action matrix at degree 0 has shape \(1, 2\), "
                                         r"expected \(1, 1\)$"):
        Module(P, {0: 1, 1: 1}, {0: Matrix(f, [[1, 1]])}, {})
    with pytest.raises(ValueError, match=r"^action matrix at degree 2 has shape \(1, 1\), "
                                         r"expected \(0, 1\)$"):
        Module(P, {0: 1, 2: 1, 3: 1}, {}, {0: Matrix(f, [[1]]), 2: Matrix(f, [[1]])})


def test_checked_constructor_counts_labels_in_every_degree():
    with pytest.raises(ValueError, match="^label count mismatch at degree 0$"):
        Module(P, {0: 2}, {}, {}, labels={0: ("a",)})
    with pytest.raises(ValueError, match="^label count mismatch at degree 1$"):
        Module(P, {0: 1, 1: 1}, {}, {}, labels={0: ("a",)})


def test_checked_constructor_drops_zero_blocks_and_nonpositive_dimensions():
    # degrees given out of order, dimensions 0 and -2, and all-zero blocks,
    # two of them with no rows or columns; labels as lists, and a label
    # entry at a degree of dimension 0
    f = P.field
    one = Matrix(f, [[1]])
    m = Module(P, {5: 1, 1: 1, 2: 0, 0: 1, 3: -2},
               {1: Matrix.zeros(f, 0, 1), 0: one, 5: Matrix.zeros(f, 0, 1)},
               {2: Matrix.zeros(f, 1, 0), 0: Matrix.zeros(f, 0, 1)},
               labels={5: ["c"], 2: (), 1: ["b"], 0: ["a"]})
    assert _ordered_parts(m) == ([(0, 1), (1, 1), (5, 1)], [[(0, one)], []],
                                 [(0, ("a",)), (1, ("b",)), (5, ("c",))])
    assert_in_normal_form(m)


@pytest.mark.parametrize("char", [2, 5, 17, 0])
@pytest.mark.parametrize("degs", DEGREE_PAIRS)
def test_make_flash_matches_reference(char, degs):
    # every block row written once as a unit vector or zero must give the
    # module the arrow-and-label construction gave, labels in the same order;
    # a block depends only on its source and target dimensions, so the flash
    # holds one object per block shape, under either action; the flash and
    # its scramble, both built raw, are in the checked constructor's form
    params = default_params(char, *degs)
    for bottoms in range(1, 8):
        for lt in (False, True):
            for rt in (False, True):
                for at in (-3, 0, 5):
                    shape = FlashShape.finite(bottoms, lt, rt, at)
                    m, ref = make_flash(shape, params), reference_flash(shape, params)
                    assert_in_normal_form(m)
                    assert_in_normal_form(random_basis_change(m, bottoms))
                    blocks = [b for which in (E1, E2) for b in m.action_items(which).values()]
                    assert len({id(b) for b in blocks}) == len({b.shape for b in blocks}) <= 4
                    assert m.dims_by_degree == ref.dims_by_degree
                    for which in (E1, E2):
                        assert m.action_items(which) == ref.action_items(which)
                        assert all(m.action(which, d) == ref.action(which, d)
                                   for d in range(at - 10, at + 40))
                    assert list(m.labels.items()) == list(ref.labels.items())
                    assert validate(m) == validate(ref) == []


@pytest.mark.parametrize("char", [2, 5, 17, 0])
def test_flashes_take_their_blocks_from_one_table(char):
    # a block depends only on the field and the dimensions, 1 or 2, of its
    # source and target, so every flash over a field, whatever its shape,
    # degrees or algebra, holds one of the same four objects, and a
    # factorization a block keeps serves them all
    found = {}
    for degs in DEGREE_PAIRS:
        params = default_params(char, *degs)
        for bottoms in range(1, 6):
            for lt in (False, True):
                for rt in (False, True):
                    m = make_flash(FlashShape.finite(bottoms, lt, rt, 3), params)
                    for which in (E1, E2):
                        for b in m.action_items(which).values():
                            assert found.setdefault(b.shape, b) is b
    assert sorted(found) == [(1, 1), (1, 2), (2, 1), (2, 2)]


@pytest.mark.parametrize("char", [2, 5, 17, 0])
@pytest.mark.parametrize("degs", [(1, 2), (3, 4), (1, 3), (2, 5)])
def test_direct_sum_labels_and_blocks_match_per_degree_reference(char, degs):
    # (1, 2) and (3, 4) put tops and bottoms of flashes at neighbouring shifts
    # in one degree, so the summands' degrees interleave; a scrambled summand
    # has no labels, and then neither has the sum; the sum is built raw, from
    # summands given in no degree order, in the checked constructor's form
    params = default_params(char, *degs)
    rng = random.Random(char * 10 + degs[0])
    for _ in range(6):
        mods = [make_flash(shape, params) for shape in random_flash_shapes(rng, 6, 4, 5)]
        for labelled in (True, False):
            if not labelled:
                k = rng.randrange(len(mods))
                mods[k] = random_basis_change(mods[k], rng.randrange(100))
                assert mods[k].labels is None
            total = direct_sum(mods)
            assert_in_normal_form(total)
            labels, blocks = reference_direct_sum(mods)
            assert total.labels == labels
            assert {(which, d): total.action(which, d) for which, d in blocks} == blocks


@pytest.mark.parametrize("char", CHARACTERISTICS)
def test_random_invertible_draws_like_a_rank_test(char):
    # each degree's change of basis is the first per-entry draw of full rank:
    # change[d + step] @ scrambled == block @ change[d] for every block, with
    # many singular draws rejected over F2
    field = Field(char)
    dims = (1, 2, 5, 2, 1, 5) + ((1, 2, 3, 1, 2, 3) if char == 2 else ())
    m = scramble_test_module(char, dims)
    for seed in range(4):
        ref = random.Random(seed)
        change = {}
        for d, n in m.dims_by_degree.items():
            while True:
                if char:
                    rows = [[ref.randrange(char) for _ in range(n)] for _ in range(n)]
                else:
                    rows = [[ref.randint(-3, 3) for _ in range(n)] for _ in range(n)]
                change[d] = Matrix(field, rows, ncols=n)
                if change[d].rank() == n:
                    break
        scrambled = random_basis_change(m, seed)
        for which, step in ((E1, m.params.deg_e1), (E2, m.params.deg_e2)):
            for d, block in m.action_items(which).items():
                assert (reference_product(change[d + step], scrambled.action(which, d))
                        == reference_product(block, change[d]))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 128, 255, 256, 1000, 4294967311])
def test_draws_match_randrange(n):
    # the stream's values are those of one randrange(n) per value on
    # Random(seed), in requests that end inside and past a read-ahead chunk
    # of 4096 words
    take, ref = modules._draws(n, n), random.Random(n)
    for count in (0, 1, 2, 31, 500, 3000, 5000, 9000):
        assert list(take(count)) == [ref.randrange(n) for _ in range(count)]


@pytest.mark.parametrize("char", [2, 3, 5, 7, 13, 17, 0, 257, 4294967311])
def test_random_invertible_matches_per_entry_reference(char):
    # a seeded scramble equals the one that one randrange or randint per
    # entry gives, degree after degree on one Random(seed); over F2 the
    # degrees of dimension 65 and 70 draw more values than a read-ahead chunk
    sizes = list(range(1, 15)) + ([65, 70] if char == 2 else [])
    m = scramble_test_module(char, sizes)
    for seed in range(3):
        scrambled = random_basis_change(m, seed)
        assert scrambled == reference_random_basis_change(m, seed)
        assert_in_normal_form(scrambled)


def test_shift():
    m = shift(make_flash(FlashShape.l(1, 0, 1), P), 4)
    assert m.dims_by_degree == {4: 1, 6: 1, 7: 1, 9: 1}
    again = shift(shift(m, 3), -3)
    assert again == m


def test_counterexample_stage():
    assert counterexample_stage(0, P).total_dim == 2
    assert counterexample_stage(4, P).dim(0) == 5
    assert counterexample_stage(2, P).total_dim == 12
    with pytest.raises(ValueError):
        counterexample_stage(-1, P)


def test_truncated_infinite_flash_d21():
    m = truncated_infinite_flash(False, 21, P)
    assert m.dim(20) == 1 and m.dim(21) == 1 and m.dim(22) == 0
    assert m.total_dim == 21  # x0..x10 plus y0..y9
    assert multiplicities(m) == {FlashShape.finite(11, False, False): 1}
    assert not validate(m)


def test_truncated_infinite_flash_small():
    t0 = truncated_infinite_flash(False, 0, P)
    assert t0.dims_by_degree == {0: 1}
    assert multiplicities(t0) == {FlashShape.simple(0): 1}
    t3 = truncated_infinite_flash(False, 3, P)
    assert t3.dims_by_degree == {0: 1, 2: 1, 3: 1}
    assert multiplicities(t3) == {FlashShape.finite(2, False, False): 1}
    assert truncated_infinite_flash(False, -1, P).total_dim == 0


def test_truncated_infinite_flash_strays():
    # with degrees (1, 4) the cutoff can strand bottoms past the last top
    params = default_params(2, 1, 4)
    m = truncated_infinite_flash(False, 6, params)
    # bottoms at 0, 3, 6; tops at 4 (7 is cut) -> main flash x0,x1,y0 + simple x2
    assert multiplicities(m) == {FlashShape.finite(2, False, False): 1,
                                 FlashShape.simple(6): 1}
    assert not validate(m)


def test_truncate_above():
    m2 = make_flash(FlashShape.l(2, 0, 1), P)
    cut = truncate_above(m2, 4)
    assert cut.dims_by_degree == {0: 1, 2: 1, 3: 1, 4: 1}
    assert not validate(cut)
    assert truncate_above(m2, 7) == m2
    assert truncate_above(m2, -1).total_dim == 0
    both = truncate_above(truncate_above(m2, 5), 3)
    assert both == truncate_above(m2, 3)


def test_random_basis_change_properties():
    rng = random.Random(0)
    base = direct_sum([make_flash(FlashShape.l(2, 0, 1), P),
                       make_flash(FlashShape.finite(2, True, True), P)])
    for seed in range(5):
        scrambled = random_basis_change(base, seed)
        assert not validate(scrambled)
        assert scrambled.dims_by_degree == base.dims_by_degree
        assert scrambled.labels is None
        for which in (E1, E2):
            for d in base.degrees:
                assert scrambled.action(which, d).rank() == base.action(which, d).rank()
    assert random_basis_change(base, 3) == random_basis_change(base, 3)
    assert random_basis_change(zero_module(P), 1).total_dim == 0


def test_validate_catches_broken_relations():
    f = P.field
    bad = Module(P, {0: 1, 1: 1, 2: 1},
                 {0: Matrix(f, [[1]]), 1: Matrix(f, [[1]])}, {})
    violations = validate(bad)
    assert [(v.relation, v.degree) for v in violations] == [("e1e1", 0)]

    mixed = Module(P, {0: 1, 1: 1, 4: 1},
                   {0: Matrix(f, [[1]])},
                   {1: Matrix(f, [[1]])})
    assert [(v.relation, v.degree) for v in validate(mixed)] == [("e2e1", 0)]


def _broken_modules():
    f, one = P.field, Matrix(P.field, [[1]])
    p3 = default_params(3, variant="A")  # sigma = -1 = 2 over F3
    f3 = p3.field
    yield pytest.param(Module(P, {0: 1, 1: 1, 2: 1}, {0: one, 1: one}, {}), ["e1e1"],
                       id="e1e1")
    yield pytest.param(Module(P, {0: 1, 3: 1, 6: 1}, {}, {0: one, 3: one}), ["e2e2"],
                       id="e2e2")
    yield pytest.param(Module(P, {0: 1, 3: 1, 4: 1}, {3: one}, {0: one}), ["e1e2"],
                       id="e1e2")
    yield pytest.param(Module(P, {0: 1, 1: 1, 4: 1}, {0: one}, {1: one}), ["e2e1"],
                       id="e2e1")
    # e1 e2 is nonzero while e2 e1 has an absent factor
    yield pytest.param(Module(PA, {0: 1, 3: 1, 4: 1}, {3: one}, {0: one}),
                       ["e1e2-commute"], id="commute-absent")
    # both sides stored: e2 e1 = 1 against sigma e1 e2 = 2, then 2 against 2
    for c, expected in ((1, ["e1e2-commute"]), (2, [])):
        yield pytest.param(Module(p3, {0: 1, 1: 1, 3: 1, 4: 1},
                                  {0: Matrix(f3, [[1]]), 3: Matrix(f3, [[1]])},
                                  {0: Matrix(f3, [[1]]), 1: Matrix(f3, [[c]])}),
                           expected, id=f"commute-{c}")
    # both factors stored, product zero
    yield pytest.param(Module(P, {0: 2, 1: 2, 2: 1},
                              {0: Matrix(f, [[1, 0], [0, 0]]), 1: Matrix(f, [[0, 1]])}, {}),
                       [], id="zero-product")


@pytest.mark.parametrize("m, expected", _broken_modules())
def test_relation_violations_match_the_product_of_every_pair(m, expected):
    found = modules._relation_violations(m)
    assert found == reference_relation_violations(m)
    assert [v.relation for v in found] == expected


@pytest.mark.parametrize("char", [2, 3, 0])
@pytest.mark.parametrize("variant", ["A", "B"])
def test_relation_violations_match_reference_on_random_blocks(char, variant):
    # random blocks, about a third of them absent, entries in {-1, 0, 1}
    params = default_params(char, variant=variant)
    rng = random.Random(f"{char}{variant}")
    seen = set()
    for _ in range(80):
        dims = {d: rng.randint(0, 2) for d in range(8)}

        def blocks(step):
            return {d: Matrix(params.field, [[rng.randint(-1, 1) for _ in range(n)]
                                             for _ in range(dims.get(d + step, 0))])
                    for d, n in dims.items()
                    if n and dims.get(d + step) and rng.random() < 0.65}

        m = Module(params, dims, blocks(params.deg_e1), blocks(params.deg_e2))
        found = modules._relation_violations(m)
        assert found == reference_relation_violations(m)
        seen.update(v.relation for v in found)
    assert seen == ({"e1e1", "e2e2", "e1e2", "e2e1"} if variant == "B"
                    else {"e1e1", "e2e2", "e1e2-commute"})


def test_relation_check_skips_absent_blocks(monkeypatch):
    # every relation product on a closed flash has an absent factor
    products = []
    real = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__",
                        lambda a, b: products.append(1) or real(a, b))
    for params in (P, PA):
        flash = make_flash(FlashShape.l(3, 0, 1), params)
        products.clear()
        assert modules._relation_violations(flash) == []
        assert len(products) == 0
        assert reference_relation_violations(flash) == []
        assert len(products) == 32  # four products in each of eight degrees


@pytest.mark.parametrize("char", [2, 5, 17, 0])
def test_absent_blocks_share_one_zero(char):
    m = make_flash(FlashShape.l(2, 0, 1), default_params(char))
    # x_0 (degree 0) has no e1 block, y_0 (degree 3) none onto x_2 (degree
    # 4), and y_2 (degree 7) no block at all
    for which, d in ((E1, 0), (E1, 3), (E2, 7)):
        zero = m.action(which, d)
        assert zero is m.action(which, d)
        assert zero == Matrix.zeros(m.field, m.dim(d + m.params.action_degree(which)),
                                    m.dim(d))
        assert zero.transpose() == Matrix.zeros(m.field, zero.ncols, zero.nrows)
        assert zero.is_zero() and not m.action_items(which).get(d)
    assert m.action(E1, 0) is m.action(E2, 7)  # both of shape (0, 1)


def test_certificate_builds_one_zero_per_shape(monkeypatch):
    stage = counterexample_stage(64, P)
    dec = decompose(stage)
    shapes, built = set(), []
    zero_block, zeros = modules._zero_block, Matrix.zeros.__func__
    monkeypatch.setattr(modules, "_zero_block",
                        lambda f, r, c: shapes.add((r, c)) or zero_block(f, r, c))
    monkeypatch.setattr(Matrix, "zeros",
                        classmethod(lambda cls, *args: built.append(args) or zeros(cls, *args)))
    zero_block.cache_clear()
    assert verify_decomposition(stage, dec)
    assert 0 < len(built) <= len(shapes)


def test_variant_conversion():
    m1 = make_flash(FlashShape.l(1, 0, 1), P)
    inflated = with_variant(m1, "A")
    assert inflated.params.variant == "A"
    assert with_variant(inflated, "B") == m1
    # the free module genuinely uses e1e2, so it cannot become variant B
    with pytest.raises(ValueError):
        with_variant(make_free(0, PA), "B")
