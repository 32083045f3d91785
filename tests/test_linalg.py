import ast
import inspect
import os
import random
import re
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd
from operator import and_, xor
from pathlib import Path

import pytest

from extmod import linalg, operators
from extmod.linalg import (PRIME_TEST_BOUND, Field, Matrix, SubspaceBasis, _is_prime, image,
                           intersect, kernel, preimage_space, quotient_dim, standard_complement,
                           sum_space, vstack)
from extmod.linalg import _bits
from extmod.linalg._bits import _Bits
from extmod.linalg._bytes import _PackedFp
from extmod.linalg._tuples import _Entries, _IntRows, _Rationals
from helpers import (count_coerce, count_fraction_arithmetic, count_fraction_new, count_span,
                     hstack, random_fraction_matrix, random_matrix, random_subspace,
                     reference_apply, reference_image_of, reference_intersect,
                     reference_kernel, reference_kernel_matrix, reference_pivot_steps,
                     reference_preimage, reference_product, reference_row_reduce,
                     reference_span)

F2 = Field(2)
F3, F5, F7, F11, F13, F17 = map(Field, (3, 5, 7, 11, 13, 17))
QQ = Field(0)
# F2 runs on packed bits, F5 on packed bytes, F17 on tuples like Q
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


@pytest.mark.parametrize("field", [F17, QQ], ids=["F17", "Q"])
def test_tuple_apply_matches_the_reference_on_both_routes(field):
    # m @ v, one dot product per row, on unit vectors, vectors exactly half
    # nonzero and dense ones, and over Q on matrices of mixed denominators
    rng = random.Random(61)
    fam = field._family

    def entry():
        return (rng.randrange(1, 17) if field.characteristic
                else Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 9)))

    for nrows, ncols in ((1, 1), (3, 2), (5, 6), (4, 7), (6, 12), (3, 70), (0, 4)):
        mats = [random_matrix(field, nrows, ncols, rng)]
        if not field.characteristic:
            mats.append(random_fraction_matrix(nrows, ncols, rng))
        vecs = [[int(i == j) for j in range(ncols)] for i in range(ncols)]
        for _ in range(3):
            half = set(rng.sample(range(ncols), ncols // 2))
            vecs.append([entry() if j in half else 0 for j in range(ncols)])
            vecs.append([entry() for _ in range(ncols)])
        for m in mats:
            for vec in vecs:
                got = fam.apply(m, fam.coerce(vec))
                want = reference_product(m, Matrix.from_cols(field, [vec], nrows=ncols))
                assert fam.unpack(got, nrows) == want.col(0)
                if not field.characteristic:
                    nums, den = got
                    assert den > 0 and gcd(den, *nums) == 1


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
    # one span, which returns only the pivot rows: the tuple layout's at
    # every prime, the packed ones included, and Q's family's, each row
    # primitive over a positive denominator
    fam = field._family if field.characteristic == 0 else _Entries(field)
    red, piv = fam.span([fam.pack(r) for r in rows], n)
    assert field.characteristic or all(den > 0 and gcd(den, *nums) == 1 for nums, den in red)
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
        fam.add_scaled(v, x, c), fam.scale(v, c)
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
    """kernel, image, preimage, image of a subspace, intersection, residue and
    containment against their references, for zero, full, image and random
    targets."""
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
        for w in (*m.cols(), random_matrix(field, 1, nrows, rng).rows[0]):
            assert u.reduce_vector(w) == _list_residue(field, u, w)
        for v in targets:
            _assert_same(intersect(u, v), reference_intersect(u, v), True)
            both = [list(r) for r in u.vectors() + v.vectors()]
            contained = len(reference_row_reduce(field, both, nrows)) == u.dim
            assert u.contains_subspace(v) == contained


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


def test_f2_image_and_preimage_eliminate_once(monkeypatch):
    # an image is one from_spanning; a preimage spans its tagged vectors in
    # the family's span directly, with no from_spanning
    rng = random.Random(41)
    calls, spans = [0], count_span(monkeypatch, F2)
    from_spanning = SubspaceBasis.from_spanning.__func__

    def counted(cls, *args, **kwargs):
        calls[0] += 1
        return from_spanning(cls, *args, **kwargs)

    monkeypatch.setattr(SubspaceBasis, "from_spanning", classmethod(counted))
    for _ in range(10):
        m = _random_block(F2, rng.randint(0, 6), rng.randint(0, 6), rng)
        u = random_subspace(F2, m.nrows, rng)
        w = random_subspace(F2, m.ncols, rng)
        for op, args, made in ((preimage_space, (m, u), 0), (image, (m, w), 1)):
            calls[0] = spans[0] = 0
            op(*args)
            assert (calls[0], spans[0]) == (made, 1), op.__name__


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


def _sliced_calls(monkeypatch):
    """Count the blocks the bit layout slices, in a one-element list: a
    product or an inverse that runs bit-sliced packs its block once through
    ``_bits._sliced``, and the row loop never does."""
    calls = [0]
    sliced = _bits._sliced

    def counted(rows, s):
        calls[0] += 1
        return sliced(rows, s)

    monkeypatch.setattr(_bits, "_sliced", counted)
    return calls


def _list_inverse(m):
    """The inverse of an F2 matrix read off the list elimination of [m | I],
    or None if it is singular."""
    n = m.nrows
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m.rows)]
    if len(reference_row_reduce(F2, aug, n)) < n:
        return None
    return Matrix(F2, [row[n:] for row in aug], ncols=n)


def _bit_matrix(nrows, ncols, rng, density=0.5):
    return Matrix(F2, [[int(rng.random() < density) for _ in range(ncols)]
                       for _ in range(nrows)], ncols=ncols)


def test_f2_sliced_product_matches_the_reference_on_both_sides_of_its_bound(monkeypatch):
    # the row loop on empty factors, a 1 x 1, identities, permutations and
    # partial permutations on the left (a flash's unit rows), a sparse left
    # factor and a wide right one; bit-sliced on dense left factors, with
    # identities and permutations on the right; and densities across the
    # bound at three sizes, each meeting both paths.  A row must pass 3 set
    # bits plus a share of a.ncols times the slot width (``_bits._slices``)
    rng = random.Random(151)
    calls = _sliced_calls(monkeypatch)

    def check(a, b, sliced):
        calls[0] = 0
        got = a @ b
        assert got == reference_product(a, b)
        assert got._rows == tuple(map(F2._family.pack, got.rows))
        if sliced is not None:
            assert calls[0] == sliced, (a.shape, b.shape)
        return calls[0]

    for nrows, inner, ncols in ((0, 3, 4), (4, 0, 3), (3, 4, 0), (1, 1, 1)):
        check(_bit_matrix(nrows, inner, rng), _bit_matrix(inner, ncols, rng), 0)
    check(Matrix(F2, [[1]]), Matrix(F2, [[1]]), 0)
    for n in (12, 40):
        dense, perm = _bit_matrix(n, n, rng), list(range(n))
        rng.shuffle(perm)
        partial = [j if rng.random() < 0.7 else None for j in perm]
        for unit_rows in (Matrix.identity(F2, n), Matrix.units(F2, n, perm),
                          Matrix.units(F2, n, partial)):
            check(unit_rows, dense, 0)
            check(dense, unit_rows, 1)
        check(dense, dense, 1)
        check(_bit_matrix(n, n, rng, 0.05), dense, 0)
    # a 16 x 16 left factor with 3 set bits per row, and with 4
    for per_row, sliced in ((3, 0), (4, 1)):
        rows = [[int(j in picked) for j in range(16)]
                for picked in (rng.sample(range(16), per_row) for _ in range(16))]
        check(Matrix(F2, rows), _bit_matrix(16, 16, rng), sliced)
    # a dense left factor whose slots a wide right factor widens, a full
    # 8 x 8 one, and tall, thin ones: half dense they have 2 set bits per
    # row, and at 0.9 they pass the 3
    check(_bit_matrix(12, 12, rng), _bit_matrix(12, 400, rng), 0)
    check(_bit_matrix(12, 12, rng), _bit_matrix(12, 40, rng), 1)
    check(_bit_matrix(8, 8, rng, 1.0), _bit_matrix(8, 8, rng), 1)
    check(_bit_matrix(3000, 4, rng), _bit_matrix(4, 4, rng), 0)
    check(_bit_matrix(200, 4, rng), _bit_matrix(4, 4, rng), 0)
    check(_bit_matrix(200, 4, rng, 0.9), _bit_matrix(4, 4, rng), 1)
    for n in (9, 24, 33):
        paths = {check(_bit_matrix(n, n, rng, density), _bit_matrix(n, n, rng), None)
                 for density in (0.05, 0.1, 0.15, 0.2, 0.3, 0.5)}
        assert paths == {0, 1}, n


def test_f2_sliced_inverse_matches_the_list_inverse_on_both_sides_of_its_bounds(monkeypatch):
    # the row loop on 0 x 0, both 1 x 1s, identities and permutations (one
    # set bit per row, under the 3 a row must pass), 3 x 3 blocks and dense
    # blocks past the bound, 256 wide; bit-sliced on full lower triangles
    # and on dense blocks invertible, singular at the first column only, at
    # the last column only, with a repeated row and of rank n - 1, from 16
    # to 144 wide.  The inverse counts as n steps of slot width n
    # (``_bits._slices``), so a dense block slices up to about 150
    rng = random.Random(157)
    calls = _sliced_calls(monkeypatch)

    def check(m, sliced, invertible=None):
        calls[0] = 0
        got = m.inverse()
        assert calls[0] == sliced, (m.shape, sliced)
        # past the list reference's reach the row loop stands in for it
        want = _list_inverse(m) if m.nrows <= 40 else linalg._inverse(
            F2._family, m._rows, m.nrows)
        if m.nrows > 40 and want is not None:
            want = Matrix._from_family(F2, want, m.nrows)
        assert got == want
        if invertible is not None:
            assert (got is not None) == invertible, m.shape
        if got is not None:
            assert got._rows == tuple(map(F2._family.pack, got.rows))
            assert got @ m == Matrix.identity(F2, m.nrows)

    check(Matrix.identity(F2, 0), 0, True)
    check(Matrix(F2, [[0]]), 0, False)
    check(Matrix(F2, [[1]]), 0, True)
    for n in (8, 32):
        perm = list(range(n))
        rng.shuffle(perm)
        for m in (Matrix.identity(F2, n), Matrix.units(F2, n, perm)):
            check(m, 0, True)
        # a permutation with one more bit stays invertible and sparse
        rows = [[int(j == perm[i] or (i, j) == (0, perm[1])) for j in range(n)]
                for i in range(n)]
        check(Matrix(F2, rows), 0, True)
        check(Matrix(F2, [[int(j <= i) for j in range(n)] for i in range(n)]), 1, True)

    def invertible(n):
        while True:
            m = _bit_matrix(n, n, rng)
            if _list_inverse(m) is not None if n <= 40 else m.rank() == n:
                return m

    for n, sliced in ((3, 0), (16, 1), (31, 1), (40, 1), (144, 1), (256, 0)):
        a = invertible(n)
        check(a, sliced, True)
        rows = [list(r) for r in a.rows]
        # a zero first column stops the elimination at once; a last column
        # that sums the first two stops it only at the last column
        check(Matrix(F2, [[0] + r[1:] for r in rows]), sliced, False)
        check(Matrix(F2, [r[:-1] + [r[0] ^ r[1]] for r in rows]), sliced, False)
        # a repeated row, and a product through n - 1 columns
        check(Matrix(F2, rows[:-1] + [rows[0]]), sliced, False)
        check(_bit_matrix(n, n - 1, rng) @ _bit_matrix(n - 1, n, rng), sliced, False)


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
    # right-hand sides, singular and invertible; a rank makes no span on any
    # layout, as it is the forward pass alone, and over F2 an inverse,
    # singular or not, makes none either: it is the tagged forward pass of
    # the unit vectors' coordinates or, on a dense block, bit-sliced
    # Gauss–Jordan on [A | I]; on bytes and tuples it is the one span of
    # those coordinates
    rng = random.Random(61)
    calls = count_span(monkeypatch, field)
    bits = isinstance(field._family, _Bits)

    def once(op, *args):
        calls[0] = 0
        out = op(*args)
        spanless = op.__name__ == "rank" or bits and op.__name__ == "inverse"
        assert calls[0] == (0 if spanless else 1)
        return out

    seen = {"singular": 0, "inverse": 0, "none": 0, "solved": 0}
    for nrows, ncols in SOLVE_SHAPES[field]:
        for rank in (None, 0, 2):
            if rank is None:
                m = random_matrix(field, nrows, ncols, rng)
            else:
                m = random_matrix(field, nrows, rank, rng) @ random_matrix(field, rank, ncols, rng)
            assert once(m.rank) == len(once(m.rref_pivots)[1])
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
    # each entry as a document writes it: an int, or "a/b" in lowest terms;
    # a zero column is None
    written = m.written_cols()
    assert [col and tuple(map(str, col)) for col in written] == [
        tuple(map(str, col)) if any(col) else None for col in refcols]
    assert all(type(x) is (int if Fraction(y).denominator == 1 else str)
               for col, refcol in zip(written, refcols) if col for x, y in zip(col, refcol))
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
    unpack = _Bits.unpack

    def counted(v, n):
        calls[0] += 1
        return unpack(v, n)

    monkeypatch.setattr(_Bits, "unpack", staticmethod(counted))
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


# the calls each vector layout answers, and its one flag (``binary``: every
# entry is 0 or 1); Matrix, SubspaceBasis, the subspace operations, the chain
# sweep and the document reader make no other
FAMILY_CALLS = {"add_delayed", "add_scaled", "apply", "coerce", "coordinates", "entry",
                "insert", "inverse", "join", "nonzero", "pack", "pack_rows", "pivot_steps",
                "preimage", "product", "rank", "scale", "settle", "span", "support", "tail",
                "tally", "tally_units", "transpose", "unit", "unpack", "written", "binary"}


def _pivot_columns(field, nrows, ncols, rng):
    """Columns of entries with zero columns, repeated columns (which clear to
    zero) and non-unit pivots, most entries zero."""
    def scalar():
        if field.characteristic:
            return rng.randrange(1, field.characteristic)
        return Fraction(rng.choice([-7, -2, -1, 1, 3, 5]), rng.randint(1, 6))

    cols = []
    for _ in range(ncols):
        pick = rng.random()
        if pick < 0.15:
            cols.append([field.zero] * nrows)
        elif pick < 0.3 and cols:
            c = scalar()
            cols.append([field.mul(c, x) for x in rng.choice(cols)])
        else:
            density = rng.choice([1 / nrows, 0.1, 0.4])
            cols.append([scalar() if rng.random() < density else field.zero
                         for _ in range(nrows)])
    return cols


@pytest.mark.parametrize("field", [F2, F3, F5, F13, F17, QQ],
                         ids=["F2", "F3", "F5", "F13", "F17", "Q"])
def test_pivot_steps_equal_list_reference(field):
    fam = field._family
    rng = random.Random(field.characteristic + 89)
    unscaled = 0
    for nrows, ncols in ((1, 3), (5, 8), (20, 30), (70, 90), (130, 40)):
        for _ in range(4):
            cols = _pivot_columns(field, nrows, ncols, rng)
            want, want_cols = reference_pivot_steps(field, cols)
            packed = [fam.coerce(col) for col in cols]
            got = fam.pivot_steps(packed)
            assert got == want
            assert [fam.unpack(v, nrows) for v in packed] == want_cols
            unscaled += sum(inv != field.one for _, _, inv, _, _ in got)
            # a due column is zero at every earlier pivot row
            for k, (ci, _, _, _, _) in enumerate(got):
                assert not any(want_cols[ci][pr] for _, pr, _, _, _ in got[:k])
    assert (unscaled > 0) == (field.characteristic != 2)


@pytest.mark.parametrize("field", [F2, F3, F13, F17, QQ], ids=["F2", "F3", "F13", "F17", "Q"])
def test_delayed_updates_settle_to_the_updates(field):
    # a run of add_delayed, settled once, is the same run of add_scaled; over
    # Q the delayed sum keeps its common factor until it is settled
    fam, rng = field._family, random.Random(field.characteristic + 29)

    def scalar():
        if field.characteristic:
            return rng.randrange(1, field.characteristic)
        return Fraction(rng.choice([-7, -2, -1, 1, 3, 5]), rng.randint(1, 6))

    for n in (1, 4, 40):
        vecs = [fam.coerce([scalar() if rng.random() < 0.6 else 0 for _ in range(n)])
                for _ in range(6)]
        got = want = vecs[0]
        for v in vecs[1:]:
            c = scalar()
            got, want = fam.add_delayed(got, v, c), fam.add_scaled(want, v, c)
        assert fam.settle(got) == want
        assert fam.settle(want) == want
    if field is QQ:
        half = fam.coerce([Fraction(1, 2), Fraction(1, 2)])
        delayed = fam.add_delayed(half, fam.coerce([Fraction(1, 2), Fraction(-1, 2)]), 1)
        assert delayed == ((2, 0), 2) and fam.settle(delayed) == fam.pack([1, 0])


@pytest.mark.parametrize("field", [F2, F3, F13, F17, QQ], ids=["F2", "F3", "F13", "F17", "Q"])
def test_support_is_the_nonzero_entries_lowest_first(field):
    fam = field._family
    rng = random.Random(field.characteristic + 71)
    for n in (0, 1, 7, 64, 200):
        for density in (0.0, 0.1, 0.5, 1.0):
            vec = [(rng.randrange(field.characteristic) if field.characteristic
                    else Fraction(rng.randint(-300, 300), rng.randint(1, 9)))
                   if rng.random() < density else 0 for _ in range(n)]
            v = fam.coerce(vec)
            got = fam.support(v)
            assert list(got.items()) == [(j, x) for j, x in enumerate(fam.unpack(v, n)) if x]
            assert all(fam.entry(v, j) == x for j, x in got.items())


def test_families_answer_the_same_calls_with_one_elimination():
    # a call added to one layout only, or made on a family without every
    # layout answering it, fails here
    families = (_Bits, _PackedFp, _Entries, _Rationals)
    for cls in families:
        assert {name for name in dir(cls) if not name.startswith("_")} == FAMILY_CALLS, cls
    made = set()
    for path in Path(linalg.__file__).parent.parent.rglob("*.py"):
        made.update(re.findall(r"\b(?:fam|_family)\.([a-z]\w*)", path.read_text()))
    # besides the calls, a routine written once over the families reads the
    # one attribute that every layout object holds: the field it was made for
    assert made == FAMILY_CALLS | {"field"}
    assert all(f._family.field is f for f in (F2, F5, F17, QQ))
    assert not any(hasattr(cls, "eliminate") for cls in families)
    # F2 has a layout of its own, in a module that shares nothing with the
    # byte layout, and writes its own XOR row updates
    assert _Bits.__module__ == "extmod.linalg._bits" and _Bits.__bases__ == (object,)
    assert not any(issubclass(_Bits, cls) or issubclass(cls, _Bits) for cls in families[1:])
    assert {"add_scaled", "scale", "_combine", "span", "pivot_steps"} <= set(vars(_Bits))
    bits = ast.parse(Path(inspect.getfile(_Bits)).read_text())
    assert not [node for node in ast.walk(bits) if isinstance(node, ast.ImportFrom)
                and node.module and "_bytes" in node.module]
    # the tuple layouts write their products, m @ v, eliminations,
    # preimages, tallies and tails once, in the base they share
    shared = {"_dots", "apply", "product", "span", "preimage", "tally", "tail", "pivot_steps"}
    assert shared <= set(vars(_IntRows))
    assert shared.isdisjoint({*vars(_Entries), *vars(_Rationals)})
    # the byte and tuple layouts bind the routines written once over the
    # families: the chain sweep's elimination, the coordinates (one span of
    # the transposed [T | V]), the packing of a flat run of rows, and an
    # inverse as the coordinates of the unit vectors, which the bit layout
    # falls back to
    assert _PackedFp.pivot_steps is _IntRows.pivot_steps is linalg._pivot_steps
    assert _PackedFp.coordinates is _IntRows.coordinates is linalg._coordinates
    assert _PackedFp.pack_rows is _IntRows.pack_rows is linalg._pack_rows
    assert _PackedFp.inverse is _IntRows.inverse is linalg._inverse
    assert "_inverse" in _Bits.inverse.__code__.co_names


def test_layout_follows_the_characteristic():
    # bits over F2, and bytes while a lane of a + c * b, at most
    # (p - 1) + (p - 1)**2, fits in one
    assert type(F2._family) is _Bits
    assert all(type(Field(p)._family) is _PackedFp for p in (3, 5, 7, 11, 13))
    # integer rows over one denominator for Q, tuples of entries for p >= 17
    assert type(QQ._family) is _Rationals
    assert all(type(Field(p)._family) is _Entries for p in (17, 19, 257, 2**31 - 1))


# a fresh interpreter that writes no bytecode, so each layout module it loads
# is compiled in it; it prints the layout modules loaded after the package
# import and after one paper-check run with the given arguments
LAYOUTS_LOADED = """
import contextlib, io, json, sys
import extmod
from extmod import cli
def loaded():
    return [name for name in ("extmod.linalg._bits", "extmod.linalg._bytes",
                              "extmod.linalg._tuples") if name in sys.modules]
print(loaded())
out = io.StringIO()
with contextlib.redirect_stdout(out):
    code = cli.main(["--report", "json", "paper-check", "--N", "4", "--jmax", "6", *sys.argv[1:]])
print(code, json.loads(out.getvalue())["pass"], loaded())
"""


@pytest.mark.parametrize("args, layout", [((), "_bits"), (("--field", "5"), "_bytes"),
                                          (("--field", "17"), "_tuples"),
                                          (("--field", "0"), "_tuples")],
                         ids=["F2", "F5", "F17", "Q"])
def test_a_process_loads_only_the_layout_its_field_picks(args, layout):
    env = dict(os.environ, PYTHONPATH=str(Path(linalg.__file__).parents[2]))
    run = subprocess.run([sys.executable, "-B", "-c", LAYOUTS_LOADED, *args], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.splitlines() == ["[]", f"0 True ['extmod.linalg.{layout}']"]


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
    v = list(map(field.coerce, vec))
    for row, pr in zip(u.vectors(), u.pivot_rows):
        c = v[pr]
        v = [field.add(x, field.neg(field.mul(c, y))) for x, y in zip(v, row)]
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


# -- the bit layout over F2 ------------------------------------------------------

# widths on either side of CPython's 30-bit digits, where a vector grows into a
# second or a third digit
BIT_WIDTHS = (0, 1, 29, 30, 31, 60, 61, 200)


def _fit(vectors, n):
    """Whether every vector is a non-negative int with no bit set past entry n - 1."""
    return all(v >= 0 and v.bit_length() <= n for v in vectors)


def _bit_rows(count, n, rng):
    """count random rows of n entries; past four, the last four are the zero
    row, the all-ones row, the first row again and the sum of the first two."""
    rows = [tuple(rng.randrange(2) for _ in range(n)) for _ in range(count)]
    if count > 4:
        rows[-4:] = [(0,) * n, (1,) * n, rows[0], tuple(map(xor, rows[0], rows[1]))]
    return rows


def _units(n):
    """The n unit rows of length n."""
    return [tuple(int(i == j) for j in range(n)) for i in range(n)]


def _list_product(a, b, ncols):
    """The rows of a @ b, lists of 0/1 rows with ncols columns in b, mod 2."""
    cols = [[row[j] for row in b] for j in range(ncols)]
    return [tuple(sum(map(and_, arow, col)) % 2 for col in cols) for arow in a]


@pytest.mark.parametrize("n", BIT_WIDTHS)
def test_bit_layout_packs_and_transposes_like_lists(n):
    # entry j at bit j: pack, unpack, written, entry, support, coerce, join,
    # tail and unit against the entries, transpose against the columns of the
    # lists, and tally of the tally_units against counts mod 2
    fam, rng = F2._family, random.Random(131 + n)
    vectors = _bit_rows(6, n, rng) + _units(n)[:1] + _units(n)[-1:]
    for v in vectors:
        packed = fam.pack(v)
        assert _fit([packed], n)
        assert fam.unpack(packed, n) == v and fam.written(packed, n) == bytes(v)
        assert [fam.entry(packed, j) for j in range(n)] == list(v)
        assert fam.support(packed) == {j: 1 for j, x in enumerate(v) if x}
        assert fam.nonzero(packed) == any(v)
        # ints past [0, 256), negative ones and Fractions with odd denominators
        # reduce to the same vector
        for outside in ([x + 2 * rng.randint(0, 200) for x in v],
                        [x - 2 * rng.randint(1, 200) for x in v],
                        [Fraction(x + 2 * rng.randint(-9, 9), 3) for x in v]):
            assert fam.coerce(outside) == packed
        w = vectors[rng.randrange(len(vectors))]
        joined = fam.join(packed, fam.pack(w), n)
        assert joined == fam.pack(v + w) and fam.tail(joined, n) == fam.pack(w)
    assert [fam.unit(j, n) for j in range(n)] == [fam.pack(v) for v in _units(n)]
    for count in (0, 1, 29, 31, 61):
        rows = _bit_rows(count, n, rng)
        cols = fam.transpose([fam.pack(r) for r in rows], n)
        assert cols == tuple(fam.pack([r[j] for r in rows]) for j in range(n))
        assert _fit(cols, count)
    # a row listed twice cancels
    draws = [[]]
    if n:
        draws += [[0], [0, 0], [n - 1, 0, n - 1, n - 1], [rng.randrange(n) for _ in range(40)]]
    units = fam.tally_units(n)
    assert units == [fam.unit(j, n) for j in range(n)] and fam.binary
    for picks in draws:
        got = fam.tally([units[j] for j in picks], n)
        assert fam.unpack(got, n) == tuple(picks.count(j) % 2 for j in range(n))
        assert _fit([got], n)


@pytest.mark.parametrize("n", BIT_WIDTHS)
def test_bit_layout_matches_list_eliminations_and_products(n):
    # product, apply, span, rank, coordinates and preimage of the family
    # itself, and the chain's pull-backs, against list references, at widths
    # that cross CPython's digits; every vector a call returns fits its width
    fam, rng = F2._family, random.Random(137 + n)
    for count in (0, 1, 29, 31, 61):
        rows = _bit_rows(count, n, rng)
        packed = [fam.pack(r) for r in rows]
        want = reference_span(F2, n, rows)
        got_rows, got_pivots = fam.span(packed, n)
        assert (got_rows, got_pivots) == ([fam.pack(v) for v in want.vectors()],
                                          list(want.pivot_rows))
        assert _fit(got_rows, n) and fam.rank(packed, n) == want.dim
        m = Matrix(F2, rows, ncols=n)
        for inner in (0, 1, 30, 61):
            b = _bit_rows(n, inner, rng)
            got = fam.product(m, Matrix(F2, b, ncols=inner))
            assert got == tuple(map(fam.pack, _list_product(rows, b, inner)))
            assert _fit(got, inner)
        for v in _bit_rows(5, n, rng) + _units(n)[:2]:
            got = fam.apply(m, fam.pack(v))
            assert got == fam.pack(tuple(sum(x & y for x, y in zip(r, v)) % 2 for r in rows))
            assert _fit([got], count)
        # coordinates over an independent basis, a dependent one, and with a
        # vector outside the span
        basis = [fam.pack(v) for v in want.vectors()]
        coeffs = _bit_rows(4, want.dim, rng)
        inside = [fam.pack(c) for c in _list_product(coeffs, want.vectors(), n)]
        got = fam.coordinates(basis, inside, n)
        assert got == [fam.pack(c) for c in coeffs] and _fit(got, want.dim)
        if want.dim >= 2:
            assert fam.coordinates(basis + [basis[0] ^ basis[1]], inside, n) is None
        if want.dim < n:
            free = next(j for j in range(n) if j not in want.pivot_rows)
            assert fam.coordinates(basis, inside + [fam.unit(free, n)], n) is None
        # preimages through m, to zero, random and full targets, and
        # pull-backs through m of images
        for u in (SubspaceBasis.zero(F2, count), random_subspace(F2, count, rng, 8),
                  SubspaceBasis.full(F2, count)):
            _assert_bit_preimage(fam.preimage(m, u), rows, u.vectors(), n)
        for inner in (0, 1, 31):
            arows = _bit_rows(count, inner, rng)
            w = random_subspace(F2, inner, rng, 8)
            image_rows = _list_product(w.vectors(), list(zip(*arows)), count)
            got = operators._pulled(m, Matrix(F2, arows, ncols=inner), w)
            _assert_bit_preimage((list(got.family_rows()), list(got.pivot_rows)),
                                 rows, image_rows, n)


def _assert_bit_preimage(got, rows, target, n):
    """got, the echelon rows and pivots a preimage returned, is the canonical
    basis of {v : m v in the span of target}, m the 0/1 rows of n entries.

    The canonical basis of a subspace is its only reduced echelon one, so it
    is checked without eliminating n vectors of n entries: got is reduced
    echelon, m maps each of its vectors into the target, and it has the
    preimage's dimension, n less the rank of m's columns beyond the target.
    """
    fam, (got_rows, pivots) = F2._family, got
    assert _fit(got_rows, n) and pivots == sorted(set(pivots))
    vectors = [fam.unpack(v, n) for v in got_rows]
    for v, pr in zip(vectors, pivots):
        assert not any(v[:pr]) and [v[q] for q in pivots] == [int(q == pr) for q in pivots]
    dim = reference_span(F2, len(rows), target).dim
    images = _list_product(vectors, list(zip(*rows)), len(rows))
    assert reference_span(F2, len(rows), [*target, *images]).dim == dim
    cols = [tuple(r[j] for r in rows) for j in range(n)]
    assert len(pivots) == n + dim - reference_span(F2, len(rows), cols + list(target)).dim

def _unit_rows(field, nrows, ncols, rng):
    """A block whose rows are zero or a unit vector times a nonzero entry, as
    the action blocks of a flash are."""
    p = field.characteristic
    return Matrix(field, [[rng.randrange(1, p) if j == k else 0 for j in range(ncols)]
                          for k in (rng.randrange(-1, ncols) for _ in range(nrows))],
                  ncols=ncols)


def _pullback_blocks(field, nrows, ncols, rng):
    """A random block, a rank-deficient one, the zero block and one of unit rows."""
    return [random_matrix(field, nrows, ncols, rng),
            random_matrix(field, nrows, 1, rng) @ random_matrix(field, 1, ncols, rng),
            Matrix.zeros(field, nrows, ncols), _unit_rows(field, nrows, ncols, rng)]


def _targets(field, n, rng):
    """Zero, the full space, a random subspace and a coordinate one of F^n."""
    return [SubspaceBasis.zero(field, n), SubspaceBasis.full(field, n),
            random_subspace(field, n, rng),
            SubspaceBasis.coordinate(field, n, sorted(rng.sample(range(n), n // 2)))]


BYTE_FIELDS = [F2, F3, F5, F13]
BYTE_IDS = ["F2", "F3", "F5", "F13"]


@pytest.mark.parametrize("field", BYTE_FIELDS, ids=BYTE_IDS)
def test_head_cut_preimages_match_list_references(field):
    # a byte-layout preimage back-substitutes only the rows past its head:
    # kernel, preimage_space and the chain's pull-back against the list references on
    # random, rank-deficient, zero and unit-row blocks, to zero, full,
    # random and coordinate targets
    rng = random.Random(97 + field.characteristic)
    for nrows, ncols, inner in ((0, 0, 0), (0, 5, 3), (5, 0, 2), (1, 1, 1), (4, 6, 5),
                                (6, 4, 7), (7, 7, 7), (9, 70, 12), (70, 9, 3)):
        for m in _pullback_blocks(field, nrows, ncols, rng):
            _assert_same(kernel(m), reference_kernel(m), True)
            for u in _targets(field, nrows, rng):
                _assert_same(preimage_space(m, u), reference_preimage(m, u), True)
            for a in _pullback_blocks(field, nrows, inner, rng):
                for w in _targets(field, inner, rng):
                    _assert_same(operators._pulled(m, a, w),
                                 reference_preimage(m, reference_image_of(a, w)), True)


def _fresh_tagged_preimage(m, vectors):
    """{v : m @ v in the span of vectors}, from scratch: the rows past m's rows
    in the list elimination of the vectors, zero-padded, and of each column j
    of m with the unit vector e_j appended."""
    field, nrows, ncols = m.field, m.nrows, m.ncols
    pad = (field.zero,) * ncols
    tagged = [tuple(v) + pad for v in vectors]
    tagged += [col + pad[:j] + (field.one,) + pad[j + 1:] for j, col in enumerate(m.cols())]
    span = reference_span(field, nrows + ncols, tagged)
    past = [(v[nrows:], pr - nrows) for v, pr in zip(span.vectors(), span.pivot_rows)
            if pr >= nrows]
    return SubspaceBasis(field, ncols, [v for v, _ in past], [pr for _, pr in past])


@pytest.mark.parametrize("field", [F2, *PACKED_ODD], ids=["F2", "F3", "F5", "F7", "F11", "F13"])
def test_factored_preimages_match_a_fresh_tagged_span(field):
    # a packed preimage or pull-back is the tail of one span of the target's
    # rows and m's tagged columns, whatever ran through m before it: several
    # targets through one matrix object, after its first kernel or not, on
    # random, rank-deficient, zero-row and zero-column blocks
    rng = random.Random(113 + field.characteristic)
    for nrows, ncols in ((0, 0), (0, 4), (4, 0), (1, 1), (3, 7), (7, 3), (6, 6), (9, 40)):
        for first_kernel in (False, True):
            m = _random_block(field, nrows, ncols, rng)
            if first_kernel:
                _assert_same(kernel(m), _fresh_tagged_preimage(m, []), True)
            for u in [*_targets(field, nrows, rng), random_subspace(field, nrows, rng)]:
                _assert_same(preimage_space(m, u), _fresh_tagged_preimage(m, u.vectors()), True)
                inner = rng.randint(0, 6)
                for a in _pullback_blocks(field, nrows, inner, rng):
                    w = random_subspace(field, inner, rng)
                    _assert_same(operators._pulled(m, a, w), _fresh_tagged_preimage(
                        m, [a.apply(v) for v in w.vectors()]), True)
            _assert_same(kernel(m), _fresh_tagged_preimage(m, []), True)


@pytest.mark.parametrize("field", BYTE_FIELDS, ids=BYTE_IDS)
def test_unit_vectors_select_one_column(field):
    # m @ v for the zero vector, unit vectors at the first and last column and
    # single entries 2 .. p - 1 reads one column: over odd p it combines
    # nothing, and over F2, where a unit vector is one set bit, it is that
    # packed column of m; a vector with two nonzero entries still combines
    p, fam = field.characteristic, field._family
    rng = random.Random(101 + p)
    combined, combine = [0], fam._combine
    if p > 2:
        fam._combine = lambda *args: combined.__setitem__(0, combined[0] + 1) or combine(*args)
    try:
        for nrows, ncols in ((0, 1), (1, 1), (5, 1), (4, 9), (3, 70), (70, 3)):
            for m in _pullback_blocks(field, nrows, ncols, rng):
                singles = [(0,) * ncols]
                for j in {0, ncols - 1, rng.randrange(ncols)}:
                    for c in range(1, p):
                        singles.append(tuple(c if k == j else 0 for k in range(ncols)))
                    if p == 2:
                        assert fam.apply(m, fam.unit(j, ncols)) == m._columns()[j]
                combined[0] = 0
                for v in singles:
                    assert m.apply(v) == reference_apply(m, v)
                assert combined[0] == 0
                if ncols > 1:
                    v = (1,) + (0,) * (ncols - 2) + (p - 1,)
                    assert m.apply(v) == reference_apply(m, v)
                    if p == 2:
                        cols = m._columns()
                        assert fam.apply(m, fam.pack(v)) == cols[0] ^ cols[-1]
                    else:
                        assert combined[0] == 1
    finally:
        if p > 2:
            del fam._combine


def _reference_coordinates(field, basis, vectors, n):
    """The coordinates of each vector over the basis vectors, all of length n,
    by the route the chain sweep took before the family call: the list
    elimination of [T | V], T's columns the basis and V's the vectors, whose
    rows are [I | X] exactly when they exist; None otherwise."""
    k, width = len(basis), len(basis) + len(vectors)
    rows = [[v[i] for v in (*basis, *vectors)] for i in range(n)]
    if reference_row_reduce(field, rows, width) != list(range(k)):
        return None
    return [tuple(row[k + j] for row in rows[:k]) for j in range(len(vectors))]


# F3 and F13 too: the byte layout's extremes of lane room, 63 and 1 terms
@pytest.mark.parametrize("field", [*FIELDS, F3, F13], ids=[*IDS, "F3", "F13"])
def test_coordinates_match_the_transposed_span(field):
    # independent, dependent and empty bases, with vectors inside the span,
    # outside it and zero, at lengths past one 64-bit word
    fam = field._family
    rng = random.Random(107 + field.characteristic)
    seen = {True: 0, False: 0}

    def combinations(vectors, n, count):
        span = Matrix.from_cols(field, vectors, nrows=n)
        return [span.apply(c) for c in random_matrix(field, count, len(vectors), rng).rows]

    for n, k, m in ((0, 0, 0), (0, 0, 2), (1, 0, 1), (1, 1, 3), (5, 3, 4), (9, 9, 6),
                    (70, 6, 8), (70, 20, 3)):
        for dependent in (False, True) if k else (False,):
            basis = list(random_matrix(field, k, n, rng).rows)
            if dependent:
                basis[-1:] = combinations(basis[:-1], n, 1)
            inside = combinations(basis, n, m)
            outside = list(random_matrix(field, 1, n, rng).rows)
            for vectors in (inside, inside + outside, [(field.zero,) * n] * m, []):
                want = _reference_coordinates(field, basis, vectors, n)
                got = fam.coordinates([fam.pack(v) for v in basis],
                                      [fam.pack(v) for v in vectors], n)
                assert (got if got is None else [fam.unpack(x, k) for x in got]) == want
                seen[want is None] += 1
    assert all(seen.values()), seen


@pytest.mark.parametrize("field", [*FIELDS, F3, F13], ids=[*IDS, "F3", "F13"])
def test_inverse_stops_at_a_singular_first_or_last_row(field):
    # an inverse is None for a zero first row and for a last row that is the
    # sum of two others, whether it stops at that row (the forward pass over
    # F2) or finds it in one span (bytes and tuples), and for an invertible A
    # (a product of unit triangular factors) a matrix that A times gives the
    # identity, entry by entry
    rng = random.Random(109 + field.characteristic)
    entries = (field.zero,) * 6 + (field.one, field.coerce(-2))

    def unit_triangular(n, lower):
        return Matrix(field, [[field.one if i == j else rng.choice(entries)
                               if (i > j) == lower else field.zero for j in range(n)]
                              for i in range(n)], ncols=n)

    for n in (0, 1, 64, 65):
        a = unit_triangular(n, True) @ unit_triangular(n, False)
        inv = a.inverse()
        assert reference_product(a, inv) == Matrix.identity(field, n)
        if n:
            rows = [list(r) for r in a.rows]
            assert Matrix(field, [[field.zero] * n] + rows[1:], ncols=n).inverse() is None
            if n > 1:
                last = [field.add(x, y) for x, y in zip(rows[0], rows[-2])]
                assert Matrix(field, rows[:-1] + [last], ncols=n).inverse() is None


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_products_take_unit_rows_as_rows_of_the_right_factor(field):
    # rows of the left factor with one nonzero entry holding 1, 2 or p - 1,
    # zero rows and dense rows, against the entry-by-entry product
    p = field.characteristic
    rng = random.Random(113 + p)
    singles = sorted({field.coerce(c) for c in (1, 2, -1)} - {field.zero})
    for nrows, inner, ncols in ((0, 3, 4), (4, 0, 3), (5, 1, 7), (6, 9, 70), (3, 70, 5),
                                (70, 9, 3)):
        b = random_matrix(field, inner, ncols, rng)
        rows = [[field.zero] * inner]
        for j in {0, inner - 1, rng.randrange(inner)} if inner else ():
            rows += [[c if i == j else field.zero for i in range(inner)] for c in singles]
        rows += [list(r) for r in random_matrix(field, 2, inner, rng).rows]
        a = Matrix(field, [rng.choice(rows) for _ in range(nrows)], ncols=inner)
        assert a @ b == reference_product(a, b)


@pytest.mark.parametrize("field", BYTE_FIELDS, ids=BYTE_IDS)
def test_rank_and_quotient_dim_match_the_span(field):
    # a rank and a containment are the forward pass alone on bytes: both
    # against the pivot count of the list elimination
    rng = random.Random(103 + field.characteristic)
    for nrows, ncols in ((0, 0), (0, 4), (4, 0), (1, 1), (6, 6), (9, 70), (70, 9)):
        for m in _pullback_blocks(field, nrows, ncols, rng):
            count = len(reference_row_reduce(field, [list(r) for r in m.rows], ncols))
            assert m.rank() == len(m.rref_pivots()[1]) == count
            for u in _targets(field, ncols, rng):
                for w in (*_targets(field, ncols, rng), image(m.transpose())):
                    both = [list(r) for r in u.vectors() + w.vectors()]
                    if len(reference_row_reduce(field, both, ncols)) == u.dim:
                        assert quotient_dim(u, w) == u.dim - w.dim
                    else:
                        with pytest.raises(ValueError, match="not contained"):
                            quotient_dim(u, w)


def _rank_inputs(field, rng):
    """Blocks of every kind a rank meets: random, rank-deficient, with
    repeated rows, zero and empty, and entries over distinct 400-bit
    denominators, which over Q make every row's denominator their lcm."""
    p = field.characteristic

    def long_entry():
        den = rng.getrandbits(400) | 1
        while p and den % p == 0:
            den += 2
        return Fraction(rng.randint(-9, 9), den)

    def long_matrix(nrows, ncols):
        return Matrix(field, [[long_entry() for _ in range(ncols)] for _ in range(nrows)],
                      ncols=ncols)

    for nrows, ncols in ((0, 0), (0, 5), (4, 0), (1, 1), (6, 6), (9, 14), (14, 9), (40, 70)):
        base = random_matrix(field, nrows, ncols, rng)
        yield base
        for rank in (1, 3):
            yield random_matrix(field, nrows, rank, rng) @ random_matrix(field, rank, ncols, rng)
        yield Matrix(field, [rng.choice(base.rows[:3]) for _ in range(nrows)], ncols=ncols)
        yield Matrix.zeros(field, nrows, ncols)
        if nrows * ncols <= 126:
            yield long_matrix(nrows, 2) @ long_matrix(2, ncols)
        if nrows * ncols <= 36:
            yield long_matrix(nrows, ncols)


@pytest.mark.parametrize("field", [F2, F5, F13, F17, Field(2**61 - 1), QQ],
                         ids=["F2", "F5", "F13", "F17", "M61", "Q"])
def test_rank_is_the_pivot_count_of_the_span_and_the_list_elimination(field):
    # one forward pass serves every layout's rank: the bits, the bytes at
    # their least and largest p, and the tuples at the least tuple prime, a
    # Mersenne prime wider than a machine word, and over Q
    fam = field._family
    rng = random.Random(131 + field.characteristic % 1000)
    for m in _rank_inputs(field, rng):
        count = len(reference_row_reduce(field, [list(r) for r in m.rows], m.ncols))
        assert fam.rank(m._rows, m.ncols) == len(fam.span(m._rows, m.ncols)[1]) == count
        assert m.rank() == count


@pytest.mark.parametrize("field", [F2, F5, QQ], ids=["F2", "F5", "Q"])
def test_power_matches_repeated_products(field):
    # repeated squaring gives the matrix k products by m give
    rng = random.Random(107 + field.characteristic)
    for n in (0, 1, 3, 6):
        m = random_matrix(field, n, n, rng)
        want = Matrix.identity(field, n)
        for k in range(10):
            assert m.power(k) == want, k
            want = want @ m
    with pytest.raises(ValueError):
        random_matrix(field, 2, 3, rng).power(2)
    with pytest.raises(ValueError, match="negative"):
        Matrix(field, [[0, 1], [0, 0]]).power(-1)


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
    # a flat run of values must fill whole rows, on every layout
    for field in (F2, F5, F17, QQ):
        with pytest.raises(ValueError, match="3 values do not fill rows of 2 columns"):
            Matrix.from_flat(field, [1, 2, 3], 2)
        with pytest.raises(ValueError, match="1 values do not fill rows of 0 columns"):
            Matrix.from_flat(field, [1], 0)
        assert Matrix.from_flat(field, [], 0).shape == (0, 0)
        assert Matrix.from_flat(field, [1, 0, 0, 1], 2) == Matrix.identity(field, 2)


@pytest.mark.parametrize("field", [F2, F3, F13, F17, QQ], ids=["F2", "F3", "F13", "F17", "Q"])
def test_pack_rows_packs_each_run_of_a_flat_draw(field):
    # Matrix.from_flat hands the whole flat run to one family call, which
    # packs each row as pack does, past 64 columns too and with no columns
    fam, rng = field._family, random.Random(field.characteristic + 13)
    for nrows, ncols in ((0, 0), (0, 4), (1, 1), (3, 5), (4, 70)):
        rows = [[field.coerce(rng.randrange(-3, 4)) for _ in range(ncols)]
                for _ in range(nrows)]
        assert fam.pack_rows([x for row in rows for x in row], ncols) == list(map(fam.pack, rows))


def test_solve_detects_inconsistency():
    m = Matrix(F2, [[1, 0], [1, 0]])
    rhs = Matrix.from_cols(F2, [(1, 0)])
    assert m.solve(rhs) is None


@pytest.mark.parametrize("field", [F2, F3, F5, F13, F17, QQ],
                         ids=["F2", "F3", "F5", "F13", "F17", "Q"])
def test_kernel_matrix_is_the_free_column_basis(field):
    # the reversed kernel gives the basis the free-column loop gives, column
    # for column: the oracle's endomorphism basis is read off it
    rng = random.Random(field.characteristic + 29)
    cases = [Matrix.zeros(field, 0, 0), Matrix.zeros(field, 0, 4), Matrix.zeros(field, 3, 0),
             Matrix.identity(field, 5), Matrix.zeros(field, 3, 4)]
    for _ in range(40):
        nrows, ncols = rng.randint(0, 8), rng.randint(1, 8)
        cases.append(random_matrix(field, nrows, ncols, rng))
        rank = rng.randint(0, min(nrows, ncols))
        cases.append(random_matrix(field, nrows, rank, rng) @ random_matrix(field, rank, ncols, rng))
    cases += [random_matrix(field, n, n + extra, rng) for n in (1, 3, 6) for extra in (0, 2)]
    ranks = set()
    for m in cases:
        got, want = m.kernel_matrix(), reference_kernel_matrix(m)
        assert (got.shape, got) == (want.shape, want)
        assert got.shape == (m.ncols, m.ncols - m.rank())
        assert (m @ got).is_zero()
        ranks.add((m.rank() == min(m.shape), got.ncols == 0))
    # full rank and rank-deficient, with and without a null space
    assert ranks == {(True, True), (True, False), (False, False)}


@pytest.mark.parametrize("field", FIELDS, ids=IDS)
def test_equal_values_hash_equal_whatever_built_them(field):
    # the chain's pull-backs are keyed on (block, block, subspace) values, so
    # equal matrices and equal subspaces must hash equal however they were made
    rng = random.Random(field.characteristic + 31)
    for nrows, ncols in ((0, 3), (3, 0), (1, 1), (4, 6), (7, 3)):
        m = random_matrix(field, nrows, ncols, rng)
        same = [Matrix(field, m.rows, ncols=ncols), Matrix.from_cols(field, m.cols(), nrows=nrows),
                m.transpose().transpose(), m @ Matrix.identity(field, ncols),
                Matrix.identity(field, nrows) @ m, m + Matrix.zeros(field, nrows, ncols),
                vstack([m.select_rows(range(nrows // 2)), m.select_rows(range(nrows // 2, nrows))])]
        if ncols:
            # runs of no entries cannot tell how many rows they make
            same.append(Matrix.from_flat(field, [x for row in m.rows for x in row], ncols))
        assert all(x == m and hash(x) == hash(m) for x in same)
    assert hash(Matrix.units(field, 3, [2, None, 0])) == hash(Matrix(field, [[0, 0, 1], [0, 0, 0],
                                                                            [1, 0, 0]]))
    assert hash(Matrix.identity(field, 4)) == hash(Matrix.units(field, 4, range(4)))
    for n in (0, 1, 5, 8):
        u = random_subspace(field, n, rng)
        combos = (u.basis_matrix() @ random_matrix(field, u.dim, 3, rng)).cols()
        spanned = [SubspaceBasis.from_spanning(field, n, combos + u.vectors()[::-1]),
                   image(u.basis_matrix()), SubspaceBasis(field, n, u.vectors(), u.pivot_rows)]
        assert all(v == u and hash(v) == hash(u) for v in spanned)
    assert hash(SubspaceBasis.full(field, 4)) == hash(image(Matrix.identity(field, 4)))


def test_a_matrix_hashes_its_rows_once():
    # the hash is kept on the matrix, so a key made again reads it back
    m = Matrix(F5, [[1, 2, 3], [4, 0, 1]])
    assert m._hash is None
    h = hash(m)
    assert m._hash == h == hash(m._rows)
    m._hash = h + 1
    assert hash(m) == h + 1
    # a matrix made from it starts with no hash of its own
    assert m.transpose()._hash is None and m.select_rows([0])._hash is None


def test_empty_shapes():
    z = Matrix.zeros(F2, 0, 3)
    ker = kernel(z)
    assert ker.dim == ker.ambient_dim
    assert image(z).ambient_dim == 0
    assert z.rref().shape == (0, 3)
    tall = Matrix.zeros(F2, 3, 0)
    assert image(tall).dim == 0
    assert hstack([tall, Matrix.identity(F2, 3)]).shape == (3, 3)
