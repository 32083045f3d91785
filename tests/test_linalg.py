import random
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest

from extmod.linalg import (PRIME_TEST_BOUND, Field, Matrix, SubspaceBasis, _Entries,
                           _is_prime, _PackedF2, _PackedFp, _Rationals, _row_reduce, hstack,
                           image, intersect, kernel, preimage_space, quotient_dim,
                           standard_complement, sum_space)
from helpers import (count_coerce, count_fraction_arithmetic, count_fraction_new, count_span,
                     random_fraction_matrix, random_matrix, random_subspace,
                     reference_apply, reference_image_of, reference_intersect,
                     reference_kernel, reference_preimage, reference_product,
                     reference_row_reduce, reference_span)

F2 = Field(2)
F3, F5, F7, F11, F13, F17 = map(Field, (3, 5, 7, 11, 13, 17))
QQ = Field(0)
# F5 runs on packed bytes like F2, F17 on tuples like Q
FIELDS = [F2, F5, F17, QQ]
IDS = ["F2", "F5", "F17", "Q"]
# the odd primes whose vectors are packed
PACKED_ODD = [F3, F5, F7, F11, F13]


def test_field_rejects_composite_characteristic():
    with pytest.raises(ValueError):
        Field(6)
    with pytest.raises(ValueError):
        Field(1)


def test_is_prime_is_exact_below_the_bound():
    def trial_division(n):
        return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

    assert [n for n in range(-3, 20000) if _is_prime(n) != trial_division(n)] == []
    # the least strong pseudoprimes to the first 4, 8, 11 and 12 prime bases,
    # and primes across the tested range
    for n in (3215031751, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not _is_prime(n)
    for n in (2**31 - 1, 2**61 - 1, 10**24 + 7):
        assert _is_prime(n)
    # the bound is the least strong pseudoprime to the first 13 prime bases:
    # the test calls it prime, which is why a field refuses it
    assert _is_prime(PRIME_TEST_BOUND)
    with pytest.raises(ValueError, match="at or above"):
        Field(PRIME_TEST_BOUND)


def test_field_arithmetic_is_canonical():
    assert F5.coerce(12) == 2
    assert F5.inv(2) == 3
    assert QQ.coerce(3) * QQ.inv(QQ.coerce(6)) == QQ.coerce(1) / 2


def test_rref_duplicate_rows_f2():
    m = Matrix(F2, [[1, 1], [1, 1]])
    assert m.rref() == Matrix(F2, [[1, 1], [0, 0]])


def test_rref_identity_fixed_point():
    ident = Matrix.identity(F2, 3)
    assert ident.rref() == ident


def test_rref_full_rank_rational():
    # determinant 2 over the rationals, so reduction reaches the identity
    m = Matrix(QQ, [[2, 4], [1, 3]])
    assert m.rref() == Matrix.identity(QQ, 2)


def test_rref_idempotent_and_canonical():
    rng = random.Random(7)
    for field in FIELDS:
        for _ in range(20):
            m = random_matrix(field, rng.randint(1, 5), rng.randint(1, 5), rng)
            r = m.rref()
            assert r.rref() == r
            # a random invertible left factor must not change the row space
            n = m.nrows
            while True:
                left = random_matrix(field, n, n, rng)
                if left.rank() == n:
                    break
            assert (left @ m).rref() == r


def _draw(field, nrows, ncols, rng):
    """random_matrix, with fractional entries over Q."""
    if field.characteristic:
        return random_matrix(field, nrows, ncols, rng)
    return random_fraction_matrix(nrows, ncols, rng)


def _same_shape_from_every_constructor(field, nrows, ncols, rng):
    m = _draw(field, nrows, ncols, rng)
    out = [m, Matrix.zeros(field, nrows, ncols), m.scaled(3),
           Matrix.from_cols(field, m.cols(), nrows=nrows),
           # results of @ arrive with their packed rows already cached
           Matrix.identity(field, nrows) @ m,
           _draw(field, nrows, 3, rng) @ _draw(field, 3, ncols, rng)]
    if ncols:
        out.append(hstack([_draw(field, nrows, 1, rng),
                           _draw(field, nrows, ncols - 1, rng)]))
    if nrows == ncols:
        out.append(Matrix.identity(field, nrows))
    return out


# (rows, inner, columns): empty, 1 x n, n x 1 and wider than 64 columns
PRODUCT_SHAPES = [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 7, 1), (1, 1, 9),
                  (9, 1, 1), (7, 1, 5), (5, 5, 5), (4, 70, 3), (3, 4, 70),
                  (2, 130, 66), (66, 2, 2)]


def _all_fractions(rows):
    return all(type(x) is Fraction for row in rows for x in row)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_products_match_entrywise_reference(field):
    rng = random.Random(19)
    for nrows, inner, ncols in PRODUCT_SHAPES:
        lefts = _same_shape_from_every_constructor(field, nrows, inner, rng)
        rights = _same_shape_from_every_constructor(field, inner, ncols, rng)
        for a in lefts:
            for b in rights:
                got = a @ b
                assert got == reference_product(a, b)
                assert field.characteristic or _all_fractions(got.rows)
            for _ in range(2):  # the second call reads the cached rows
                v = _draw(field, 1, inner, rng).rows[0]
                got = a.apply(v)
                assert got == reference_apply(a, v)
                assert field.characteristic or _all_fractions([got])


# (rows, width): empty, 1 x 1, 1 x n, n x 1, square, wider than 64, and
# wider or taller than square
ELIM_SHAPES = [(0, 0), (0, 4), (1, 1), (1, 9), (9, 1), (4, 4), (12, 12), (3, 70),
               (70, 3), (20, 130), (8, 12), (12, 8), (16, 48), (5, 5)]


def _eliminate_both(field, rows):
    # full width: the list reference over every column of the rows
    n = len(rows[0]) if rows else 0
    want = [list(r) for r in rows]
    want_piv = reference_row_reduce(field, want, n)
    if field.characteristic:
        got = [list(r) for r in rows]
        piv = _row_reduce(field, got)
    else:
        # Q eliminates in its family's span, which returns only the pivot
        # rows, each primitive over a positive denominator
        fam = field._family
        red, piv = fam.span([fam.pack(r) for r in rows], n)
        assert all(den > 0 and gcd(den, *nums) == 1 for nums, den in red)
        got = ([list(fam.unpack(v, n)) for v in red]
               + [[field.zero] * n for _ in range(len(rows) - len(piv))])
    assert piv == want_piv
    assert got == want
    # over Q every row comes back as Fractions, zero rows included
    assert field.characteristic or _all_fractions(got)
    return piv, got


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_elimination_matches_list_reference(field):
    rng = random.Random(11)
    for nrows, width in ELIM_SHAPES:
        for rank in (None, 0, 1, 3):
            if rank is None:
                m = random_matrix(field, nrows, width, rng)
            else:
                # a product through rank columns: dependent rows and zero columns
                m = random_matrix(field, nrows, rank, rng) @ random_matrix(field, rank, width, rng)
            _eliminate_both(field, m.rows)


def test_rational_elimination_from_fractions_matches_list_reference():
    rng = random.Random(13)
    for nrows, width in ELIM_SHAPES:
        for rank in (None, 0, 1, 3):
            if rank is None:
                m = random_fraction_matrix(nrows, width, rng)
            else:
                m = random_fraction_matrix(nrows, rank, rng) @ random_fraction_matrix(
                    rank, width, rng)
            _eliminate_both(QQ, m.rows)


def test_rational_products_and_eliminations_run_no_fraction_arithmetic(monkeypatch):
    # over Q they work on integer numerators; Fraction only builds the
    # entries they return
    rng = random.Random(53)
    cases = []
    for nrows, ncols in ((0, 3), (3, 0), (1, 1), (5, 5), (6, 9), (9, 6), (12, 12)):
        for rank in (None, 2):
            a = (random_fraction_matrix(nrows, ncols, rng) if rank is None else
                 random_fraction_matrix(nrows, rank, rng)
                 @ random_fraction_matrix(rank, ncols, rng))
            cases.append((a, random_fraction_matrix(ncols, 4, rng),
                          random_fraction_matrix(1, ncols, rng).rows[0],
                          random_fraction_matrix(nrows, 2, rng),
                          SubspaceBasis.from_spanning(
                              QQ, nrows, random_fraction_matrix(2, nrows, rng).rows)))
    calls = count_fraction_arithmetic(monkeypatch)
    for a, b, v, rhs, u in cases:
        a @ b, a.apply(v), a.rank(), a.solve(rhs), kernel(a), preimage_space(a, u)
        if a.nrows == a.ncols:
            a.inverse()
    assert calls[0] == 0


def test_rational_kernels_build_no_fraction(monkeypatch):
    # a Q vector is integers over one denominator from end to end, so the
    # kernels build no Fraction on inputs already built: the family's apply
    # is m @ v short of the public view, which unpacks to Fractions
    rng = random.Random(59)
    fam = QQ._family
    cases = []
    for nrows, ncols in ((0, 3), (3, 0), (1, 1), (5, 5), (6, 9), (9, 6), (12, 12)):
        for rank in (None, 2):
            a = (random_fraction_matrix(nrows, ncols, rng) if rank is None else
                 random_fraction_matrix(nrows, rank, rng)
                 @ random_fraction_matrix(rank, ncols, rng))
            u, w = (SubspaceBasis.from_spanning(QQ, n, random_fraction_matrix(2, n, rng).rows)
                    for n in (nrows, ncols))
            row, other = random_fraction_matrix(2, ncols, rng)._rows
            cases.append((a, random_fraction_matrix(ncols, 4, rng), row, other,
                          random_fraction_matrix(nrows, 2, rng), u, w, Fraction(-3, 7)))
    built = count_fraction_new(monkeypatch)
    arithmetic = count_fraction_arithmetic(monkeypatch)
    for a, b, v, x, rhs, u, w, c in cases:
        a @ b, fam.apply(a, v), a.rank(), a.solve(rhs), kernel(a), preimage_space(a, u)
        im = image(a)
        image(a, w), intersect(u, im), sum_space(u, im), im.contains_subspace(u)
        fam.add_scaled(v, x, c), fam.scale(v, c), fam.reduce(w, v)
        if a.ncols:
            fam.apply(a, fam.unit(0, a.ncols))  # a sparse vector combines columns
        if a.nrows == a.ncols:
            a.inverse()
    assert (built[0], arithmetic[0]) == (0, 0)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_elimination_keeps_inconsistent_augmented_rows(field):
    rng = random.Random(12)
    seen = 0
    for n, extra in ((1, 1), (4, 1), (9, 3), (30, 40), (12, 70)):
        for _ in range(3):
            # [A | B] with A of rank at most 2 leaves rows that reduce to [0 | *],
            # which keep a pivot in B's columns
            a = random_matrix(field, n, 2, rng) @ random_matrix(field, 2, n, rng)
            aug = hstack([a, random_matrix(field, n, extra, rng)])
            piv, rows = _eliminate_both(field, aug.rows)
            seen += bool(piv) and piv[-1] >= n
    assert seen


def test_kernel_examples():
    assert kernel(Matrix.zeros(F2, 2, 2)).dim == 2
    assert kernel(Matrix.identity(F2, 2)).dim == 0
    assert kernel(Matrix(F2, [[1, 1]])).vectors() == [(1, 1)]


def test_public_constructors_canonicalise():
    assert SubspaceBasis.from_spanning(F5, 2, [(7, -1)]).vectors() == [(1, 2)]
    assert Matrix.from_cols(F5, [(7, -1)]).rows == ((2,), (4,))
    assert Matrix.from_cols(QQ, [(1, 2)]).rows == ((1,), (2,))
    assert all(type(x) is Fraction for row in Matrix.from_cols(QQ, [(1, 2)]).rows
               for x in row)


def test_kernel_is_killed_by_map():
    rng = random.Random(11)
    for field in FIELDS:
        for _ in range(15):
            m = random_matrix(field, rng.randint(0, 4), rng.randint(1, 5), rng)
            ker = kernel(m)
            assert ker.dim == m.ncols - m.rank()
            for v in ker.vectors():
                assert not any(m.apply(v))


def _random_block(field, nrows, ncols, rng):
    """A random block, a rank-deficient product, or one with repeated columns."""
    kind = rng.randrange(3)
    if kind == 1:
        rank = rng.randint(0, 2)
        return random_matrix(field, nrows, rank, rng) @ random_matrix(field, rank, ncols, rng)
    m = random_matrix(field, nrows, ncols, rng)
    if kind == 2:
        cols = m.cols()
        return Matrix.from_cols(field, [rng.choice(cols[:2]) for _ in cols], nrows=nrows)
    return m


def _assert_same(got, want, packed=False):
    # pivot_rows too: __eq__ ignores them, yet reduce_vector and
    # standard_complement read them
    assert ((got.ambient_dim, got.vectors(), got.pivot_rows)
            == (want.ambient_dim, want.vectors(), want.pivot_rows))
    # want was built from tuples, got from vectors in the family layout
    assert got == want and hash(got) == hash(want)
    if packed:
        # a result keeps its rows in the family layout only: packed for p <= 13
        assert got._rows == tuple(map(got.field._family.pack, got.vectors()))


def _check_against_references(m, u_extra, rng):
    """kernel, image, preimage, image of a subspace and intersection against
    their references, for zero, full, image and random targets."""
    field, nrows, ncols = m.field, m.nrows, m.ncols
    _assert_same(kernel(m), reference_kernel(m), True)
    _assert_same(image(m), reference_image_of(m, SubspaceBasis.full(field, ncols)), True)
    domain = [SubspaceBasis.zero(field, ncols), SubspaceBasis.full(field, ncols),
              kernel(m), random_subspace(field, ncols, rng)]
    for w in domain:
        _assert_same(image(m, w), reference_image_of(m, w), True)
    targets = [SubspaceBasis.zero(field, nrows), SubspaceBasis.full(field, nrows),
               image(m), *u_extra]
    for u in targets:
        _assert_same(preimage_space(m, u), reference_preimage(m, u), True)
        for v in targets:
            _assert_same(intersect(u, v), reference_intersect(u, v), True)


@pytest.mark.parametrize("field", [F2, F3, F5, F17, QQ], ids=["F2", "F3", "F5", "F17", "Q"])
def test_subspace_operations_match_references(field):
    rng = random.Random(31)
    for _ in range(80):
        nrows, ncols = rng.randint(0, 7), rng.randint(0, 7)
        m = _random_block(field, nrows, ncols, rng)
        _check_against_references(m, [random_subspace(field, nrows, rng)], rng)


def test_f2_wide_subspace_operations_match_references():
    # packed rows and columns wider than 64 entries, next to empty shapes
    rng = random.Random(41)
    shapes = [(0, 0), (0, 70), (70, 0), (1, 90), (90, 1), (65, 66), (80, 72), (72, 130)]
    for nrows, ncols in shapes:
        m = _random_block(F2, nrows, ncols, rng)
        low_rank = random_subspace(F2, nrows, rng, max_gens=3)
        _check_against_references(m, [random_subspace(F2, nrows, rng), low_rank], rng)


def test_f2_equality_and_basis_matrix_read_packed_rows():
    # an F2 result keeps packed rows and unpacks them only when asked
    a = SubspaceBasis.from_spanning(F2, 3, [(1, 1, 0)])
    b = SubspaceBasis.from_spanning(F2, 3, [(1, 0, 1)])
    assert a.pivot_rows == b.pivot_rows and a != b
    listed = SubspaceBasis(F2, 3, ((1, 1, 0),), (0,))
    assert a == listed and listed == a and hash(a) == hash(listed)
    assert (SubspaceBasis.coordinate(F2, 3, [0, 2])
            == SubspaceBasis.from_spanning(F2, 3, [(0, 0, 1), (1, 0, 0)]))
    u = SubspaceBasis.from_spanning(F2, 4, [(1, 1, 0, 1), (0, 1, 1, 0), (0, 1, 1, 1)])
    bu = u.basis_matrix()
    # the column cache is the echelon rows, kept as they are
    assert bu._columns() is u._rows
    assert bu._columns() == tuple(map(F2._family.pack, bu.cols()))


def test_f2_from_spanning_matches_list_elimination():
    # over F2 spans are reduced by XOR on packed rows
    rng = random.Random(47)
    for ambient in (0, 1, 5, 64, 65, 100):
        for gens in (0, 1, ambient // 2, ambient + 3):
            vectors = [random_matrix(F2, 1, ambient, rng).rows[0] for _ in range(gens)]
            _assert_same(SubspaceBasis.from_spanning(F2, ambient, vectors),
                         reference_span(F2, ambient, vectors), True)


def test_kernel_and_preimage_eliminate_once(monkeypatch):
    # each is one call of the family's span, over every layout
    rng = random.Random(37)
    for field in [F2, F3, F5, F13, F17, QQ]:
        calls = count_span(monkeypatch, field)
        for _ in range(10):
            m = _random_block(field, rng.randint(0, 6), rng.randint(0, 6), rng)
            u = random_subspace(field, m.nrows, rng)
            calls[0] = 0
            kernel(m)
            assert calls[0] == 1
            calls[0] = 0
            preimage_space(m, u)
            assert calls[0] == 1
        monkeypatch.undo()


def test_f2_image_and_preimage_eliminate_once_in_from_spanning(monkeypatch):
    # from_spanning is the one F2 span elimination, so each call shows there
    rng = random.Random(41)
    calls = [0]
    span = SubspaceBasis.from_spanning.__func__

    def counted(cls, *args, **kwargs):
        calls[0] += 1
        return span(cls, *args, **kwargs)

    monkeypatch.setattr(SubspaceBasis, "from_spanning", classmethod(counted))
    for _ in range(10):
        m = _random_block(F2, rng.randint(0, 6), rng.randint(0, 6), rng)
        u = random_subspace(F2, m.nrows, rng)
        w = random_subspace(F2, m.ncols, rng)
        calls[0] = 0
        preimage_space(m, u)
        assert calls[0] == 1
        calls[0] = 0
        image(m, w)
        assert calls[0] == 1


def test_image_examples():
    assert image(Matrix.zeros(F2, 2, 2)).dim == 0
    assert image(Matrix(F2, [[1, 0], [1, 0]])).vectors() == [(1, 1)]
    onto = image(Matrix(F5, [[1, 2], [3, 2]]))
    assert onto.dim == onto.ambient_dim
    swap = Matrix(F2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    line = SubspaceBasis.from_spanning(F2, 3, [(1, 0, 0)])
    assert image(swap, line).vectors() == [(0, 1, 0)]
    assert image(swap, SubspaceBasis.zero(F2, 3)).dim == 0
    with pytest.raises(ValueError):
        image(swap, SubspaceBasis.full(F2, 2))


def test_preimage_examples():
    ident = Matrix.identity(F2, 2)
    full = SubspaceBasis.full(F2, 2)
    zero = SubspaceBasis.zero(F2, 2)
    line = SubspaceBasis.from_spanning(F2, 2, [(1, 0)])
    pulled = preimage_space(ident, full)
    assert pulled.dim == pulled.ambient_dim
    assert preimage_space(ident, zero) == kernel(ident)
    assert preimage_space(ident, line) == line


def test_preimage_galois_properties():
    rng = random.Random(13)
    for field in FIELDS:
        for _ in range(15):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 4)
            m = random_matrix(field, nrows, ncols, rng)
            u = random_subspace(field, nrows, rng)
            pre = preimage_space(m, u)
            assert pre.contains_subspace(kernel(m))
            for v in pre.vectors():
                assert u.contains_vector(m.apply(v))
            # pulling back the full image recovers the whole domain
            pulled = preimage_space(m, image(m))
            assert pulled.dim == pulled.ambient_dim


def test_preimage_dimension_mismatch():
    m = Matrix.identity(F2, 2)
    with pytest.raises(ValueError):
        preimage_space(m, SubspaceBasis.full(F2, 3))


def test_lattice_examples():
    u = SubspaceBasis.from_spanning(F2, 3, [(1, 0, 0), (0, 1, 0)])
    v = SubspaceBasis.from_spanning(F2, 3, [(0, 1, 0), (0, 0, 1)])
    assert intersect(u, u) == u
    assert intersect(u, v).vectors() == [(0, 1, 0)]
    assert quotient_dim(SubspaceBasis.full(F2, 3), SubspaceBasis.zero(F2, 3)) == 3


def test_lattice_dimension_formula():
    rng = random.Random(17)
    for field in FIELDS:
        for _ in range(20):
            ambient = rng.randint(1, 6)
            u = random_subspace(field, ambient, rng)
            v = random_subspace(field, ambient, rng)
            both = intersect(u, v)
            total = sum_space(u, v)
            assert u.dim + v.dim == both.dim + total.dim
            assert u.contains_subspace(both)
            assert total.contains_subspace(v)


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_membership_of_canonical_data_coerces_nothing(monkeypatch, field):
    rng = random.Random(53)
    pairs = []
    for _ in range(20):
        u = random_subspace(field, 6, rng)
        pairs.append((sum_space(u, random_subspace(field, 6, rng)), u))
    calls = count_coerce(monkeypatch)
    for big, small in pairs:
        assert quotient_dim(big, small) == big.dim - small.dim
    assert calls[0] == 0


def test_membership_coerces_outside_vectors():
    assert SubspaceBasis.from_spanning(F2, 1, [(1,)]).contains_vector((3,))
    assert not SubspaceBasis.zero(F2, 1).contains_vector((3,))
    assert SubspaceBasis.from_spanning(F5, 2, [(1, 2)]).contains_vector((6, -3))
    assert SubspaceBasis.from_spanning(F2, 2, [(1, 1)]).reduce_vector((3, 0)) == (0, 1)
    with pytest.raises(ValueError):
        SubspaceBasis.full(F2, 2).contains_vector((1, 0, 0))


def test_quotient_requires_containment():
    u = SubspaceBasis.from_spanning(F2, 2, [(1, 0)])
    v = SubspaceBasis.from_spanning(F2, 2, [(0, 1)])
    with pytest.raises(ValueError):
        quotient_dim(u, v)
    with pytest.raises(ValueError):
        intersect(u, SubspaceBasis.full(F2, 3))


def test_canonical_basis_is_representation_independent():
    rng = random.Random(19)
    for field in FIELDS:
        for _ in range(15):
            ambient = rng.randint(1, 5)
            u = random_subspace(field, ambient, rng)
            if u.dim == 0:
                continue
            # re-span by random invertible combinations of the basis
            while True:
                mix = random_matrix(field, u.dim, u.dim, rng)
                if mix.rank() == u.dim:
                    break
            mixed = (u.basis_matrix() @ mix).cols()
            again = SubspaceBasis.from_spanning(field, ambient, mixed)
            assert again == u


def test_standard_complement():
    rng = random.Random(23)
    for field in FIELDS:
        for _ in range(15):
            ambient = rng.randint(1, 5)
            u = random_subspace(field, ambient, rng)
            comp = standard_complement(u)
            assert len(comp) == ambient - u.dim
            joined = sum_space(u, SubspaceBasis.from_spanning(field, ambient, comp))
            assert joined.dim == joined.ambient_dim


def test_solve_and_inverse():
    rng = random.Random(29)
    for field in FIELDS:
        for _ in range(15):
            n = rng.randint(1, 4)
            m = random_matrix(field, n, n, rng)
            inv = m.inverse()
            if m.rank() < n:
                assert inv is None
                continue
            assert m @ inv == Matrix.identity(field, n)
            rhs = random_matrix(field, n, 2, rng)
            sol = m.solve(rhs)
            assert m @ sol == rhs


def test_f2_inverse_and_rank_match_list_reference():
    # random, singular (a product through fewer columns) and wider-than-64
    # blocks; the inverse keeps its rows packed
    rng = random.Random(31)
    seen_singular = seen_invertible = 0
    for n in (0, 1, 2, 3, 8, 30, 65, 70):
        for inner in (None, max(n - 1, 0), n // 3):
            for _ in range(2):
                if inner is None:
                    m = random_matrix(F2, n, n, rng)
                else:
                    m = random_matrix(F2, n, inner, rng) @ random_matrix(F2, inner, n, rng)
                aug = [list(row) + [int(i == j) for j in range(n)]
                       for i, row in enumerate(m.rows)]
                rank = len(reference_row_reduce(F2, aug, n))
                assert m.rank() == rank
                inv = m.inverse()
                if rank < n:
                    assert inv is None
                    seen_singular += 1
                    continue
                seen_invertible += 1
                assert inv == Matrix(F2, [row[n:] for row in aug], ncols=n)
                assert inv._rows == tuple(map(F2._family.pack, inv.rows))
        for nrows, ncols in ((n, 2 * n + 1), (2 * n + 1, n)):
            m = random_matrix(F2, nrows, ncols, rng)
            assert m.rank() == len(reference_row_reduce(F2, [list(r) for r in m.rows], ncols))
    assert seen_singular and seen_invertible


def _reference_solve(field, a, b):
    """X with a @ X = b read off the list elimination of [a | b], or None."""
    n = a.ncols
    aug = [list(r1) + list(r2) for r1, r2 in zip(a.rows, b.rows)]
    piv = reference_row_reduce(field, aug, n)
    if any(any(row[n:]) for row in aug[len(piv):]):
        return None
    x = [[field.zero] * b.ncols for _ in range(n)]
    for i, pc in enumerate(piv):
        x[pc] = aug[i][n:]
    return Matrix(field, x, ncols=b.ncols)


# (rows, columns): empty either way, 1 x n, n x 1, square, and wider or
# taller than 64 entries; Q stays small, as its entries grow
FP_SOLVE_SHAPES = [(0, 0), (0, 5), (5, 0), (1, 7), (7, 1), (6, 6), (3, 70), (70, 3),
                   (66, 66), (20, 130)]
SOLVE_SHAPES = {**{f: FP_SOLVE_SHAPES for f in [F2, *PACKED_ODD, F17]},
                QQ: [(0, 0), (0, 5), (5, 0), (1, 7), (7, 1), (6, 6), (3, 70), (70, 3),
                     (12, 12)]}


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_matrix_eliminations_match_list_reference(field):
    # rref_pivots, rank, inverse, solve and solve_vector against the list
    # elimination, on random and rank-deficient blocks with consistent and
    # inconsistent right-hand sides
    rng = random.Random(59)
    seen = {"none": 0, "solved": 0, "singular": 0, "inverse": 0}
    for nrows, ncols in SOLVE_SHAPES[field]:
        for rank in (None, 0, 2):
            if rank is None:
                m = random_matrix(field, nrows, ncols, rng)
            else:
                m = random_matrix(field, nrows, rank, rng) @ random_matrix(field, rank, ncols, rng)
            rows = [list(r) for r in m.rows]
            piv = reference_row_reduce(field, rows, ncols)
            assert m.rref_pivots() == (Matrix(field, rows, ncols=ncols), tuple(piv))
            assert m.rank() == len(piv)
            if nrows == ncols:
                aug = [list(r) + [field.one if j == i else field.zero for j in range(nrows)]
                       for i, r in enumerate(m.rows)]
                full = len(reference_row_reduce(field, aug, nrows)) == nrows
                want = Matrix(field, [r[nrows:] for r in aug], ncols=nrows) if full else None
                assert m.inverse() == want
                seen["inverse" if full else "singular"] += 1
            for rhs in (random_matrix(field, nrows, 3, rng),
                        m @ random_matrix(field, ncols, 2, rng),
                        random_matrix(field, nrows, 0, rng)):
                want = _reference_solve(field, m, rhs)
                assert m.solve(rhs) == want
                seen["none" if want is None else "solved"] += 1
            vec = random_matrix(field, 1, nrows, rng).rows[0]
            want = _reference_solve(field, m, Matrix.from_cols(field, [vec], nrows=nrows))
            assert m.solve_vector(vec) == (None if want is None else want.col(0))
    assert all(seen.values()), seen


@pytest.mark.parametrize("field", [F2, F5, F13, F17, QQ], ids=["F2", "F5", "F13", "F17", "Q"])
def test_each_matrix_elimination_is_one_family_span(monkeypatch, field):
    # on random and rank-deficient blocks, with consistent and inconsistent
    # right-hand sides, singular and invertible
    rng = random.Random(61)
    calls = count_span(monkeypatch, field)

    def once(op, *args):
        calls[0] = 0
        out = op(*args)
        assert calls[0] == 1
        return out

    seen = {"singular": 0, "inverse": 0, "none": 0, "solved": 0}
    for nrows, ncols in SOLVE_SHAPES[field]:
        for rank in (None, 0, 2):
            if rank is None:
                m = random_matrix(field, nrows, ncols, rng)
            else:
                m = random_matrix(field, nrows, rank, rng) @ random_matrix(field, rank, ncols, rng)
            once(m.rref_pivots)
            once(m.rank)
            once(m.kernel_matrix)
            for rhs in (random_matrix(field, nrows, 3, rng),
                        m @ random_matrix(field, ncols, 2, rng)):
                seen["none" if once(m.solve, rhs) is None else "solved"] += 1
            if nrows == ncols:
                seen["singular" if once(m.inverse) is None else "inverse"] += 1
    assert all(seen.values()), seen


def _plain_solve(field, a, b, n):
    """X with a @ X = b, for lists of entries with n columns in a, by the list
    elimination of [a | b]; None if inconsistent."""
    width = len(b[0]) if b else 0
    aug = [list(r1) + list(r2) for r1, r2 in zip(a, b)]
    piv = reference_row_reduce(field, aug, n)
    if any(any(row[n:]) for row in aug[len(piv):]):
        return None
    x = [(field.zero,) * width] * n
    for row, pc in zip(aug, piv):
        x[pc] = tuple(row[n:])
    return tuple(x)


def _check_views(m, ref, ncols):
    """Every tuple view, entry, equality, hash, transpose and is_zero of m
    against ref, the rows of m as plain tuples of canonical entries."""
    field = m.field
    p = field.characteristic
    refcols = tuple(zip(*ref)) if ref else ((),) * ncols
    assert m.shape == (len(ref), ncols)
    assert all(type(x) is int and 0 <= x < p if p else type(x) is Fraction
               for row in ref for x in row)
    assert m.rows == ref
    assert tuple(m.cols()) == refcols
    assert tuple(m.col(j) for j in range(ncols)) == refcols
    # each entry as a document writes it: an int, or "a/b" in lowest terms
    written = m.written_cols()
    assert [tuple(map(str, col)) for col in written] == [tuple(map(str, col))
                                                         for col in refcols]
    assert all(type(x) is (int if Fraction(y).denominator == 1 else str)
               for col, refcol in zip(written, refcols) for x, y in zip(col, refcol))
    assert all(m[i, j] == x and type(m[i, j]) is type(x)
               for i, row in enumerate(ref) for j, x in enumerate(row))
    plain = Matrix(field, ref, ncols=ncols)
    assert m == plain and hash(m) == hash(plain)
    assert m.transpose().rows == refcols and m.transpose() == Matrix(field, refcols,
                                                                     ncols=len(ref))
    assert m.is_zero() == (not any(map(any, ref)))


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_matrix_views_match_plain_tuples(field):
    # a matrix keeps its rows once, in the family layout; what it shows must be
    # what a matrix of plain tuples would show, from every constructor and for
    # empty shapes either way
    rng = random.Random(67)
    c = field.coerce

    def raw(nrows, ncols):
        return [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(nrows)]

    def canon(rows):
        return tuple(tuple(map(c, row)) for row in rows)

    def unit_rows(n):
        return tuple(tuple(c(int(i == j)) for j in range(n)) for i in range(n))

    seen = {"solved": 0, "none": 0, "inverse": 0, "singular": 0}
    for nrows, ncols in ((0, 0), (0, 4), (4, 0), (1, 5), (5, 1), (4, 4), (9, 70), (70, 9)):
        rows = raw(nrows, ncols)
        _check_views(Matrix(field, rows, ncols=ncols), canon(rows), ncols)
        cols = raw(ncols, nrows)
        _check_views(Matrix.from_cols(field, cols, nrows=nrows),
                     tuple(zip(*canon(cols))) if cols else ((),) * nrows, ncols)
        _check_views(Matrix.zeros(field, nrows, ncols), ((c(0),) * ncols,) * nrows, ncols)
        _check_views(Matrix.identity(field, nrows), unit_rows(nrows), nrows)
        a, b = canon(raw(nrows, ncols)), canon(raw(ncols, 3))
        prod = tuple(tuple(c(sum(x * row[k] for x, row in zip(arow, b))) for k in range(3))
                     for arow in a)
        _check_views(Matrix(field, a, ncols=ncols) @ Matrix(field, b, ncols=3), prod, 3)
        m = Matrix(field, a, ncols=ncols)
        for rhs in (canon(raw(nrows, 2)), prod, canon(raw(nrows, 0))):
            want = _plain_solve(field, a, rhs, ncols)
            got = m.solve(Matrix(field, rhs, ncols=len(rhs[0]) if rhs else 0))
            if want is None:
                assert got is None
            else:
                _check_views(got, want, len(rhs[0]) if rhs else 0)
            seen["none" if want is None else "solved"] += 1
        # square: as drawn, and singular with its first row repeated last
        for sq in ((a, a[:-1] + a[:1]) if nrows == ncols else ()):
            want = _plain_solve(field, sq, unit_rows(nrows), nrows)
            got = Matrix(field, sq, ncols=ncols).inverse()
            if len(reference_row_reduce(field, [list(r) for r in sq], nrows)) < nrows:
                assert got is None
                seen["singular"] += 1
            else:
                _check_views(got, want, nrows)
                seen["inverse"] += 1
        u = random_subspace(field, nrows, rng)
        _check_views(u.basis_matrix(),
                     tuple(zip(*u.vectors())) if u.dim else ((),) * nrows, u.dim)
    assert all(seen.values()), seen


def test_f2_identity_inverse_and_products_unpack_nothing(monkeypatch):
    # rows stay packed from construction through elimination and product
    calls = [0]
    unpack = _PackedF2.unpack

    def counted(v, n):
        calls[0] += 1
        return unpack(v, n)

    monkeypatch.setattr(_PackedF2, "unpack", staticmethod(counted))
    rng = random.Random(71)
    for n in (0, 1, 5, 70):
        inv = Matrix.identity(F2, n).inverse()
        m = random_matrix(F2, n, n + 3, rng)
        calls[0] = 0
        assert inv == Matrix.identity(F2, n)
        prod = inv @ m @ m.transpose()
        assert prod == m @ m.transpose()
        assert calls[0] == 0
    # the views unpack, so the counter sees them
    assert prod.rows and calls[0] == n


def test_families_answer_the_same_calls_with_one_elimination():
    families = (_PackedF2, _PackedFp, _Entries, _Rationals)
    public = [{name for name in dir(cls) if not name.startswith("_")} for cls in families]
    assert public[0] == public[1] == public[2] == public[3]
    assert "span" in public[0]
    assert not any(hasattr(cls, "eliminate") for cls in families)
    # F2 shares the byte layout and keeps its own XOR row updates
    assert issubclass(_PackedF2, _PackedFp)
    assert {"add_scaled", "scale", "_combine", "reduce", "span"} <= set(vars(_PackedF2))


def test_layout_follows_the_characteristic():
    # bytes while a lane of a + c * b, at most (p - 1) + (p - 1)**2, fits in one
    assert type(F2._family) is _PackedF2
    assert all(type(Field(p)._family) is _PackedFp for p in (3, 5, 7, 11, 13))
    # integer rows over one denominator for Q, tuples of entries for p >= 17
    assert type(QQ._family) is _Rationals
    assert all(type(Field(p)._family) is _Entries for p in (17, 19, 257, 2**31 - 1))


# -- packed odd primes -----------------------------------------------------------


def _odd_blocks(field, nrows, ncols, rng):
    """A random block, one of rank at most 2, one with every entry p - 1, and
    one of entries 1 and p - 1, where a row update a + c * b fills a lane up
    to (p - 1) + (p - 1)**2 (156 at p = 13)."""
    top = field.characteristic - 1
    return [random_matrix(field, nrows, ncols, rng),
            random_matrix(field, nrows, 2, rng) @ random_matrix(field, 2, ncols, rng),
            Matrix(field, [[top] * ncols] * nrows, ncols=ncols),
            Matrix(field, [[rng.choice((1, top)) for _ in range(ncols)] for _ in range(nrows)],
                   ncols=ncols)]


def _list_kernel(field, rows, n):
    """The null space of rows of length n: a vector per free column of the list
    elimination, canonicalised by the list elimination."""
    rows = [list(r) for r in rows]
    piv = reference_row_reduce(field, rows, n)
    vecs = []
    for fc in (c for c in range(n) if c not in piv):
        v = [field.zero] * n
        v[fc] = field.one
        for row, pc in zip(rows, piv):
            v[pc] = field.neg(row[fc])
        vecs.append(v)
    return reference_span(field, n, vecs)


def _list_preimage(field, m, u):
    """{v : m @ v in u} as the heads of the list kernel of [m | B], B a basis of u."""
    basis = u.vectors()
    aug = [list(row) + [b[i] for b in basis] for i, row in enumerate(m.rows)]
    heads = [v[:m.ncols] for v in _list_kernel(field, aug, m.ncols + u.dim).vectors()]
    return reference_span(field, m.ncols, heads)


def _list_residue(field, u, vec):
    """vec less, for each echelon row of u, its entry at the row's pivot times the row."""
    p = field.characteristic
    v = [x % p for x in vec]
    for row, pr in zip(u.vectors(), u.pivot_rows):
        c = v[pr]
        v = [(x - c * y) % p for x, y in zip(v, row)]
    return tuple(v)


# long combinations, which pass the accumulator's reduce points (after 63
# terms at p = 3, 15 at p = 5 and 1 at p = 13): rows of 300 entries for m @ v
# and products, and rank 66 for residues and back substitution
LONG_SHAPES = [(4, 300), (66, 70)]


@pytest.mark.parametrize("field", PACKED_ODD, ids=["F3", "F5", "F7", "F11", "F13"])
def test_packed_odd_primes_match_list_reference(field):
    # span, rref_pivots, solve, inverse, kernel, preimage_space, @, apply,
    # reduce_vector and contains_subspace against the list elimination and
    # the entrywise references
    rng = random.Random(79 + field.characteristic)
    top = field.characteristic - 1
    seen = {"none": 0, "solved": 0, "singular": 0, "inverse": 0}
    for nrows, ncols in ELIM_SHAPES + LONG_SHAPES:
        for m in _odd_blocks(field, nrows, ncols, rng):
            rows = [list(r) for r in m.rows]
            piv = reference_row_reduce(field, rows, ncols)
            assert m.rref_pivots() == (Matrix(field, rows, ncols=ncols), tuple(piv))
            span = SubspaceBasis.from_spanning(field, ncols, m.rows)
            _assert_same(span, SubspaceBasis(field, ncols, rows[:len(piv)], piv), True)
            if ncols - nrows <= 40:  # the list kernel is slow where it is wide
                _assert_same(kernel(m), _list_kernel(field, m.rows, ncols), True)
                for u in (random_subspace(field, nrows, rng, max_gens=3),
                          SubspaceBasis.from_spanning(field, nrows, m.cols()[:2])):
                    _assert_same(preimage_space(m, u), _list_preimage(field, m, u), True)
            for rhs in (random_matrix(field, nrows, 3, rng),
                        m @ random_matrix(field, ncols, 2, rng)):
                want = _reference_solve(field, m, rhs)
                assert m.solve(rhs) == want
                seen["none" if want is None else "solved"] += 1
            if nrows == ncols:
                ident = Matrix.identity(field, nrows)
                want = _reference_solve(field, m, ident)
                assert m.inverse() == want
                seen["singular" if want is None else "inverse"] += 1
            for v in (random_matrix(field, 1, ncols, rng).rows[0], (top,) * ncols):
                assert m.apply(v) == reference_apply(m, v)
            for b in (random_matrix(field, ncols, 3, rng),
                      Matrix(field, [[top] * 3] * ncols, ncols=3)):
                assert m @ b == reference_product(m, b)
            for w in (random_matrix(field, 1, ncols, rng).rows[0], (top,) * ncols):
                assert span.reduce_vector(w) == _list_residue(field, span, w)
            other = SubspaceBasis.from_spanning(field, ncols, m.rows[:2]
                                                + random_matrix(field, 1, ncols, rng).rows)
            both = [list(r) for r in span.vectors() + other.vectors()]
            contained = len(reference_row_reduce(field, both, ncols)) == span.dim
            assert span.contains_subspace(other) == contained
    assert all(seen.values()), seen


@pytest.mark.parametrize("field", [F11, F13], ids=["F11", "F13"])
def test_long_combinations_match_list_reference(field):
    # at p = 11 and 13 a lane has room for one or two terms c * b between
    # reductions: long combinations of one coefficient and of top lanes, and
    # eliminations and products with many terms, against the list elimination
    # and the entrywise product
    p = field.characteristic
    fam = field._family
    rng = random.Random(89 + p)
    n = 40
    vectors = [fam.pack([rng.randrange(p) for _ in range(n)]) for _ in range(300)]
    top = [fam.pack([p - 1] * n)] * 300
    for coeffs in ([p - 1] * 300, [1] * 300, [rng.choice((1, p - 1)) for _ in range(300)],
                   [rng.randrange(p) for _ in range(300)], [0] * 299 + [5]):
        for vecs in (vectors, top):
            want = tuple(sum(c * x for c, x in zip(coeffs, col)) % p
                         for col in zip(*(fam.unpack(v, n) for v in vecs)))
            assert fam.unpack(fam._combine(vecs, coeffs), n) == want
    for nrows, ncols in ((16, 16), (64, 64), (70, 90), (30, 200)):
        for m in [random_matrix(field, nrows, ncols, rng),
                  Matrix(field, [[rng.choice((1, p - 1)) for _ in range(ncols)]
                                 for _ in range(nrows)], ncols=ncols)]:
            rows = [list(r) for r in m.rows]
            piv = reference_row_reduce(field, rows, ncols)
            assert m.rref_pivots() == (Matrix(field, rows, ncols=ncols), tuple(piv))
            b = random_matrix(field, ncols, 5, rng)
            assert m @ b == reference_product(m, b)


@pytest.mark.parametrize("field", PACKED_ODD, ids=["F3", "F5", "F7", "F11", "F13"])
def test_packed_odd_primes_store_reduced_lanes(field):
    # equality and hashing compare packed ints, so every stored lane must be
    # the canonical residue: below p, and no lane past the vector's length
    p = field.characteristic
    fam = field._family

    def reduced(vectors, n):
        return all(v.bit_length() <= 8 * n and max(v.to_bytes(n, "little"), default=0) < p
                   for v in vectors)

    rng = random.Random(83 + p)
    for nrows, ncols in ((1, 1), (5, 9), (9, 300), (40, 40)):
        worst = Matrix(field, [[p - 1] * ncols] * nrows, ncols=ncols)
        for m in (random_matrix(field, nrows, ncols, rng), worst):
            assert reduced(m._rows, ncols)
            assert reduced(SubspaceBasis.from_spanning(field, ncols, m.rows)._rows, ncols)
            assert reduced(m.rref_pivots()[0]._rows, ncols)
            for b in (random_matrix(field, ncols, 4, rng),
                      Matrix(field, [[p - 1] * 4] * ncols, ncols=4)):
                assert reduced((m @ b)._rows, 4)
            for v in (random_matrix(field, 1, ncols, rng).rows[0], (p - 1,) * ncols):
                assert reduced([fam.apply(m, fam.pack(v))], nrows)
            for c in range(p):
                assert reduced(m.scaled(c)._rows, ncols)
                assert reduced([fam.add_scaled(a, b, c) for a, b in zip(m._rows, worst._rows)],
                               ncols)
            assert reduced((m + worst)._rows, ncols) and reduced((m - worst)._rows, ncols)


def test_packed_coerce_reduces_outside_values():
    # bytes packs entries in [0, 256) and translate reduces them; anything
    # else is coerced entry by entry
    assert Matrix(F5, [[7, -1]]).rows == ((2, 4),)
    assert Matrix(F13, [[255, 13, 26, 14]]).rows == ((8, 0, 0, 1),)
    assert Matrix(F13, [[300, -14, Fraction(1, 2)]]).rows == ((1, 12, 7),)
    assert Matrix(F2, [[3, 2, 255, True]]).rows == ((1, 0, 1, 1),)
    assert SubspaceBasis.from_spanning(F7, 2, [(8, 255)]).vectors() == [(1, 3)]
    assert SubspaceBasis.from_spanning(F7, 2, [(1, 3)]).contains_vector((-6, 10))
    assert SubspaceBasis.from_spanning(F11, 2, [(1, 0)]).reduce_vector((12, 256)) == (0, 3)


class _Three:
    """An integer that is not an int: it has ``__index__``."""

    def __index__(self):
        return 3


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_coerce_takes_only_integers_and_fractions(field):
    p = field.characteristic
    row = [3, True, _Three(), Fraction(3, 7)]
    want = ((3 % p, 1, 3 % p, 3 * pow(7, -1, p) % p) if p
            else (Fraction(3), Fraction(1), Fraction(3), Fraction(3, 7)))
    assert Matrix(field, [row]).rows == (want,)
    assert Matrix.from_cols(field, [row]).cols() == [want]
    assert SubspaceBasis.from_spanning(field, 4, [row]).contains_vector(want)
    # nothing is truncated or approximated, not even an integral float
    for bad in (0.5, 2.9, 2.0, 0.1, Decimal("1"), Decimal("0.1"), "1"):
        with pytest.raises(TypeError, match="integers or Fractions"):
            field.coerce(bad)
        with pytest.raises(TypeError, match="integers or Fractions"):
            Matrix(field, [[1, bad]])
        with pytest.raises(TypeError, match="integers or Fractions"):
            SubspaceBasis.from_spanning(field, 2, [(1, 0), (bad, 1)])


def test_matrix_rejects_ragged_rows_and_a_wrong_column_count():
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix(F5, [[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix(F5, ((1, 2), (3,)), _raw=True)
    with pytest.raises(ValueError, match="ncols does not match row length"):
        Matrix(F5, [[1, 2], [3, 4]], ncols=3)
    # columns are checked as the rows of the transpose
    with pytest.raises(ValueError, match="ragged rows"):
        Matrix.from_cols(F2, [[1, 0], [1]])
    with pytest.raises(ValueError, match="explicit column count"):
        Matrix(F5, [])


def test_solve_detects_inconsistency():
    m = Matrix(F2, [[1, 0], [1, 0]])
    rhs = Matrix.from_cols(F2, [(1, 0)])
    assert m.solve(rhs) is None


def test_empty_shapes():
    z = Matrix.zeros(F2, 0, 3)
    ker = kernel(z)
    assert ker.dim == ker.ambient_dim
    assert image(z).ambient_dim == 0
    assert z.rref().shape == (0, 3)
    tall = Matrix.zeros(F2, 3, 0)
    assert image(tall).dim == 0
    assert hstack([tall, Matrix.identity(F2, 3)]).shape == (3, 3)
