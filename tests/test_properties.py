"""Property tests of the Q vector layout against plain ``Fraction`` arithmetic.

A Q vector is ``(nums, den)``: integers over one positive denominator, with
``gcd(den, *nums) == 1``.  Every call of the layout must agree with the same
computation on tuples of ``Fraction``s, every vector it returns must be in
that normal form, and equal subspaces must give equal objects.  Entries are
drawn as integers, as small fractions, or over distinct denominators near
10**20, where a row's common denominator is far larger than any entry's.
"""

from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from extmod.linalg import Field, Matrix, SubspaceBasis, preimage_space
from helpers import reference_apply, reference_product, reference_row_reduce, reference_span

QQ = Field(0)
FAM = QQ._family

ENTRIES = {
    "integers": st.integers(-4, 4).map(Fraction),
    "small": st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    "large": st.builds(Fraction, st.integers(-9, 9), st.integers(10**20 - 99, 10**20 + 99)),
}
ENTRIES["mixed"] = st.one_of(*ENTRIES.values())
KINDS = st.sampled_from(sorted(ENTRIES))
SCALARS = ENTRIES["mixed"]


def _vectors(kind, n, count):
    return st.lists(st.lists(ENTRIES[kind], min_size=n, max_size=n).map(tuple),
                    min_size=count, max_size=count)


@st.composite
def rows_of(draw, nrows=None, ncols=None, max_dim=5):
    """Rows of Fractions, of one entry kind; with rank bounded by a product, half the time."""
    nrows = draw(st.integers(0, max_dim)) if nrows is None else nrows
    ncols = draw(st.integers(0, max_dim + 1)) if ncols is None else ncols
    kind = draw(KINDS)
    if draw(st.booleans()):
        return draw(_vectors(kind, ncols, nrows))
    rank = draw(st.integers(0, 2))
    left = Matrix(QQ, draw(_vectors(kind, rank, nrows)), ncols=rank)
    right = Matrix(QQ, draw(_vectors(kind, ncols, rank)), ncols=ncols)
    return list(reference_product(left, right).rows)


def _normal(v):
    nums, den = v
    return type(den) is int and den > 0 and gcd(den, *nums) == 1


def _reference_rref(rows, n):
    """The nonzero rows of the reduced echelon form of Fraction rows, and the pivots."""
    rows = [list(r) for r in rows]
    pivots = reference_row_reduce(QQ, rows, n)
    return [tuple(r) for r in rows[:len(pivots)]], pivots


@given(rows_of(), st.data())
def test_entry_calls_match_fractions(rows, data):
    n = len(rows[0]) if rows else 0
    for row in rows:
        v = FAM.pack(row)
        assert _normal(v) and FAM.coerce(row) == v
        assert FAM.unpack(v, n) == row
        assert all(type(x) is Fraction for x in FAM.unpack(v, n))
        assert [FAM.entry(v, j) for j in range(n)] == list(row)
        assert FAM.nonzero(v) == any(row)
        for k in range(n + 1):
            assert _normal(FAM.tail(v, k)) and FAM.unpack(FAM.tail(v, k), n - k) == row[k:]
            assert FAM.join(FAM.pack(row[:k]), FAM.pack(row[k:]), k) == v
    cols = FAM.transpose([FAM.pack(r) for r in rows], n)
    assert all(map(_normal, cols))
    assert [FAM.unpack(c, len(rows)) for c in cols] == list(zip(*rows)) or n * len(rows) == 0
    if n:
        picks = data.draw(st.lists(st.integers(0, n - 1), max_size=8))
        counts = Counter(picks)
        assert FAM.tally(picks, n) == FAM.pack([Fraction(counts[i]) for i in range(n)])
        i = data.draw(st.integers(0, n - 1))
        assert FAM.unit(i, n) == FAM.pack([Fraction(j == i) for j in range(n)])


@given(rows_of(nrows=2), SCALARS, st.booleans())
def test_row_updates_match_fractions(rows, c, zero):
    c = 0 * c if zero else c
    a, b = rows
    pa, pb = FAM.pack(a), FAM.pack(b)
    got = FAM.add_scaled(pa, pb, c)
    assert _normal(got) and got == FAM.pack([x + c * y for x, y in zip(a, b)])
    got = FAM.scale(pa, c)
    assert _normal(got) and got == FAM.pack([c * x for x in a])


@given(st.lists(ENTRIES["large"], min_size=1, max_size=6), st.data())
def test_row_updates_cancel_at_the_primes_of_short_denominators(u, data):
    # a's denominator is several times longer than those of b and c, where
    # add_scaled seeks a common factor only at their primes: the part over
    # p that c * b takes back out, and the factor q that c's numerator
    # shares with b's denominator, must still be divided out
    p, q = (data.draw(st.integers(10**20 - 99, 10**20 + 99)) for _ in range(2))
    k, m = data.draw(st.integers(1, 9)), data.draw(st.integers(-9, 9).filter(bool))
    over_p = tuple(Fraction(m * (j + 1), p) for j in range(len(u)))
    a = FAM.pack([x + y for x, y in zip(u, over_p)])
    got = FAM.add_scaled(a, FAM.pack(over_p), Fraction(-1))
    assert _normal(got) and got == FAM.pack(u)
    over_q = tuple(Fraction(m * j, q) for j in range(len(u)))
    c = Fraction(q * k, m)
    got = FAM.add_scaled(FAM.pack(u), FAM.pack(over_q), c)
    assert _normal(got) and got == FAM.pack([x + c * y for x, y in zip(u, over_q)])
    got = FAM.scale(FAM.pack(over_q), c)
    assert _normal(got) and got == FAM.pack([c * y for y in over_q])


@st.composite
def product_pairs(draw):
    nrows, inner, ncols = (draw(st.integers(0, 5)) for _ in range(3))
    return (Matrix(QQ, draw(rows_of(nrows=nrows, ncols=inner)), ncols=inner),
            Matrix(QQ, draw(rows_of(nrows=inner, ncols=ncols)), ncols=ncols))


@given(product_pairs())
def test_products_match_fractions(pair):
    a, b = pair
    got = a @ b
    assert all(map(_normal, got._rows)) and got == reference_product(a, b)
    # dense vectors run dot products and sparse ones combine columns
    for v in b.cols():
        for w in (v, tuple(x if j == len(v) // 2 else 0 * x for j, x in enumerate(v))):
            out = FAM.apply(a, FAM.pack(w))
            assert _normal(out) and FAM.unpack(out, a.nrows) == reference_apply(a, w)


@given(rows_of(), st.data())
def test_span_and_reduce_match_fractions(rows, data):
    n = len(rows[0]) if rows else data.draw(st.integers(0, 4))
    echelon, pivots = FAM.span([FAM.pack(r) for r in rows], n)
    assert all(map(_normal, echelon))
    assert ([FAM.unpack(v, n) for v in echelon], pivots) == _reference_rref(rows, n)
    sub = SubspaceBasis.from_spanning(QQ, n, rows)
    for v in data.draw(rows_of(nrows=3, ncols=n)):
        want = list(v)
        for row, pr in zip(sub.vectors(), sub.pivot_rows):
            c = v[pr]
            want = [x - c * y for x, y in zip(want, row)]
        got = FAM.reduce(sub, FAM.pack(v))
        assert _normal(got) and FAM.unpack(got, n) == tuple(want)


def _fraction_preimage(m, u):
    """{v : m @ v in u} from the kernel of [m | B], B a basis of u, in Fractions alone."""
    n, width = m.ncols, m.ncols + u.dim
    basis = u.vectors()
    rows = [list(row) + [vec[i] for vec in basis] for i, row in enumerate(m.rows)]
    echelon, pivots = _reference_rref(rows, width)
    heads = []
    for fc in (c for c in range(width) if c not in pivots):
        x = [Fraction(0)] * width
        x[fc] = Fraction(1)
        for row, pc in zip(echelon, pivots):
            x[pc] = -row[fc]
        heads.append(x[:n])
    return reference_span(QQ, n, heads)


@given(rows_of(), st.data())
def test_preimage_matches_fraction_kernel(rows, data):
    ncols = len(rows[0]) if rows else data.draw(st.integers(0, 4))
    m = Matrix(QQ, rows, ncols=ncols)
    u = SubspaceBasis.from_spanning(QQ, m.nrows, data.draw(rows_of(ncols=m.nrows, max_dim=3)))
    got, want = preimage_space(m, u), _fraction_preimage(m, u)
    assert all(map(_normal, got._rows))
    assert (got.vectors(), got.pivot_rows) == (want.vectors(), want.pivot_rows)


@given(rows_of(ncols=5), st.data())
def test_scaled_spanning_sets_give_equal_objects(rows, data):
    # each vector scaled by a nonzero rational, one combination added, and
    # the order reversed: the same subspace, so the same stored rows and hash
    scales = data.draw(st.lists(SCALARS.filter(bool), min_size=len(rows), max_size=len(rows)))
    other = [tuple(c * x for x in row) for c, row in zip(scales, rows)]
    if len(rows) > 1:
        c = data.draw(SCALARS)
        other.append(tuple(x + c * y for x, y in zip(rows[0], rows[1])))
    one = SubspaceBasis.from_spanning(QQ, 5, rows)
    two = SubspaceBasis.from_spanning(QQ, 5, other[::-1])
    assert all(map(_normal, one._rows))
    assert one == two and hash(one) == hash(two) and one._rows == two._rows
    # a matrix from its rows or its columns, with entries as ints where exact
    m = Matrix(QQ, rows, ncols=5)
    exact = [[int(x) if x.denominator == 1 else x for x in col] for col in m.cols()]
    t = Matrix.from_cols(QQ, exact, nrows=len(rows))
    assert t == m and hash(t) == hash(m)
