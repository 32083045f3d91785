"""The tuple layouts: F_p vectors for p >= 17 as tuples, and Q vectors as integer rows.

Over F_p a vector is a tuple of canonical entries (:class:`_Entries`).  Over
Q it is ``(nums, den)`` (:class:`_Rationals`): a tuple of integer numerators
over one positive denominator, with ``gcd(den, *nums) == 1``, a normal form
that keeps equality and hashing exact; FLINT's ``fmpq_mat`` likewise runs
products and eliminations on integer matrices (``fmpz_mat``).

The two layouts share one base, :class:`_IntRows`, which reads a vector as
integer numerators over a denominator (1 over F_p) and writes products,
m @ v, spans, preimages and tallies once.  A span is one Gauss–Jordan
elimination on the numerators: over F_p each pivot row is scaled to 1, and
over Q the elimination is fraction-free on primitive integer rows (Bareiss,
Math. Comp. 1968), so each pivot row comes out as ``(row, pivot)``, already
in normal form.  A product entry is one integer dot product, and m @ v
combines the columns of m that v selects while at most half of v is nonzero.
``coordinates`` are read off one span of the transposed [T | V].  A preimage
is the head of ker [m | B], B the basis matrix of u, read off the integer
echelon rows of one span of [m | B] with its columns reversed; a pivot is 1
over F_p, so a head entry there is one modular negation.  The tagged span of
the byte layouts would have about twice the entries to eliminate.

Over Q a ``Fraction`` is built only where an entry leaves the layout:
``rows``, ``cols()``, ``m[i, j]``, ``apply``, ``SubspaceBasis.vectors()`` and
``reduce_vector`` unpack, and the family's ``entry`` reads one scalar, as
``reduce_vector`` and the sweep's pivot rule do.  Products, eliminations,
containment, preimages and row updates run on integers alone, and
``written_cols()`` writes each entry as a document does straight from them.
``add_delayed`` is ``add_scaled`` without its search for a common factor,
which ``settle`` makes once after a run of updates of one vector, as the
chain sweep does; over F_p, as in the packed layouts, every update is
already reduced, and ``settle`` returns its vector.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import mul

from . import _Q_ZERO, Field, Matrix, SubspaceBasis, _inverse, _pivot_steps


def _normal(nums, den: int, h: int | None = None) -> tuple[tuple, int]:
    """The vector nums / den, for den > 0, in normal form: their common factor divided out.

    Given h, with every prime that can divide den and all of nums at once,
    the common factor is sought only in the part of den made of h's primes,
    which stays small while h does, however large den is.
    """
    part = den
    if h is not None:
        part, r, rest = 1, gcd(den, h), den
        while r != 1:
            part *= r
            rest //= r
            r = gcd(rest, r)
    g = gcd(part, *nums) if part != 1 else 1
    if g == 1:
        return tuple(nums), den
    return tuple([x // g for x in nums]), den // g


def _ratios(nums, dens) -> tuple[tuple, int]:
    """The vector of entries nums[j] / dens[j], each den > 0, in normal form.

    Each entry is brought to lowest terms and the vector written over the
    lcm of their denominators.  That is the normal form: a prime that
    divides the lcm divides it as often as the denominator of some entry,
    whose numerator it does not divide and whose multiplier lcm //
    denominator it does not divide.
    """
    if dens.count(1) == len(dens):
        return tuple(nums), 1
    gs = list(map(gcd, nums, dens))
    qs = [e // g for e, g in zip(dens, gs)]
    den = lcm(*qs)
    return tuple([x // g * (den // q) for x, g, q in zip(nums, gs, qs)]), den


def _scaled_sum(a, b, c) -> tuple[list, int, int]:
    """The numerators and the denominator of a + c * b, for Q vectors a and b
    and a nonzero scalar c, over the lcm of a's denominator and that of
    c * b, and an h with every prime at which they can share a factor."""
    (x, d), (y, e) = a, b
    num, cd = c.numerator, c.denominator
    g = gcd(num, e)
    f = e // g * cd
    h = gcd(d, f)
    s, t = f // h, num // g * (d // h)
    return [s * u + t * w for u, w in zip(x, y)], d // h * f, h * cd


class _IntRows:
    """What the two tuple layouts share: a vector read as integer numerators
    over a denominator, which is 1 over F_p.

    ``_read`` reads a vector that way, ``_write`` writes numerators over one
    denominator back to the layout, and ``_write_ratios`` numerators over a
    denominator each; products, m @ v, eliminations, preimages, tallies and
    tails are written once over those three.  An elimination leaves each
    layout three steps: ``_pivot_row`` normalises a pivot row, ``_clear``
    clears another row at its pivot column and ``_echelon`` writes the
    pivot rows back, which are already normal, without ``_write``'s pass.
    """

    def __init__(self, field: Field):
        self.field = field
        self.p = field.characteristic

    def _split(self, vectors) -> tuple[tuple, tuple]:
        """The numerators and the denominators of the vectors, read in one pass."""
        return tuple(zip(*map(self._read, vectors))) or ((), ())

    def pack_rows(self, values, n: int) -> list:
        """The runs of n entries in values, each packed."""
        pack = self.pack
        return [pack(values[i:i + n]) for i in range(0, len(values), n or 1)]

    def tail(self, v, n: int):
        nums, den = self._read(v)
        return self._write(nums[n:], den)

    def support(self, v) -> dict:
        """The nonzero entries of v by index, lowest index first."""
        return {j: self.entry(v, j) for j, x in enumerate(self._read(v)[0]) if x}

    def tally(self, rows, n: int):
        """The sum of the unit vectors of length n at some rows."""
        vec = [0] * n
        for i, k in Counter(rows).items():
            vec[i] = k
        return self._write(vec, 1)

    def _dots(self, rows, cols) -> tuple:
        """For each of the rows, the vector of its dot products with each of cols.

        Each entry is one integer dot product over the product of the two
        denominators.
        """
        cnums, cdens = self._split(cols)
        write = self._write_ratios
        return tuple(write([sum(map(mul, x, c)) for c in cnums],
                           cdens if d == 1 else [d * e for e in cdens])
                     for x, d in zip(*self._split(rows)))

    def apply(self, m: "Matrix", v):
        """m @ v.

        When at most half of v's entries are nonzero, the columns of m they
        select are combined over the lcm of those columns' denominators, as
        the byte layouts combine packed columns; otherwise each entry is a
        dot product with a row of m.
        """
        nums, den = self._read(v)
        if 2 * nums.count(0) < len(nums):
            return self._dots((v,), m._rows)[0]
        cols = list(map(self._read, compress(m._columns(), nums)))
        common = lcm(*[e for _, e in cols])
        acc = [0] * m.nrows
        for c, (y, e) in zip(compress(nums, nums), cols):
            t = c * (common // e)
            acc = [a + t * w for a, w in zip(acc, y)]
        return self._write(acc, den * common)

    def product(self, a: "Matrix", b: "Matrix") -> tuple:
        return self._dots(a._rows, b._columns())

    def rank(self, vectors, n: int) -> int:
        return len(self.span(vectors, n)[1])

    def span(self, vectors, n: int) -> tuple[list, list[int]]:
        """The reduced echelon rows and pivots of the span, by Gauss–Jordan
        elimination on the vectors' numerators.

        Each pivot row is normalised by ``_pivot_row`` and cleared from every
        other row by ``_clear``, and ``_echelon`` writes the finished pivot
        rows to the layout.  Over F_p the pivot becomes 1; over Q a row stays
        a nonzero integer multiple of the row the F_p steps would give, so
        the pivots agree, and a pivot row comes out primitive over a positive
        pivot, which is its normal form.  A row whose pivot is 1 is already
        normalised in both.
        """
        rows = [x for x, _ in map(self._read, vectors)]
        pivot_row, clear = self._pivot_row, self._clear
        m = len(rows)
        pivots: list[int] = []
        r = 0
        for c in range(n):
            pr = None
            for i in range(r, m):
                if rows[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            top = rows[r]
            if top[c] != 1:
                top = rows[r] = pivot_row(top, c)
            for i in range(m):
                if i != r and rows[i][c]:
                    rows[i] = clear(rows[i], top, c)
            pivots.append(c)
            r += 1
            if r == m:
                break
        return self._echelon(rows[:r], pivots), pivots

    def insert(self, rows: dict, v) -> tuple | None:
        """v's numerators cleared at their first nonzero entry by the rows of a
        forward pass keyed by pivot, through ``_clear``, until they are zero,
        then None, or have a pivot of their own: then the row, normalised by
        ``_pivot_row``, is stored and returned in the layout with that pivot."""
        x, c = self._read(v)[0], -1
        while True:
            c = next((j for j in range(c + 1, len(x)) if x[j]), None)
            if c is None:
                return None
            top = rows.get(c)
            if top is None:
                break
            x = self._clear(x, top, c)
        rows[c] = x = x if x[c] == 1 else self._pivot_row(x, c)
        return self._echelon([x], [c])[0], c

    def coordinates(self, basis, vectors, n: int) -> list | None:
        """The coordinates of each vector over the basis, as on bytes: the
        columns of X in the rows [I | X] of the span of [T | V] transposed,
        T's columns the basis vectors and V's the vectors."""
        k, width = len(basis), len(basis) + len(vectors)
        rows, pivots = self.span(self.transpose([*basis, *vectors], n), width)
        if pivots != list(range(k)):
            return None
        return list(self.transpose(rows, width)[k:])

    inverse = _inverse

    def pivot_steps(self, cols: list) -> list[tuple]:
        """The chain sweep's elimination steps on the columns (``linalg._pivot_steps``)."""
        return _pivot_steps(self.field, cols)

    def preimage(self, m: "Matrix", u: "SubspaceBasis") -> tuple[list, list[int]]:
        """Echelon rows and pivots of {v : m @ v in u}: the heads of ker [m | B].

        B is the basis matrix of u, and each row of [m | B] is brought to
        integers and reversed.  In the reduced echelon rows of those, the
        first u.dim columns, B's, are all pivots, as B's columns are
        independent.  Each free column fc past them gives the kernel vector
        that is 1 at fc and -row[fc] / row[pc] at each pivot column pc of a
        row (over F_p row[pc] is 1); its head, the part past B read back in
        order, is the preimage's echelon row with its pivot at the column fc
        came from.
        """
        k, width = u.dim, m.ncols + u.dim
        brows = self.transpose(u._rows, m.nrows)
        joined, _ = self._split([self.join(x, y, m.ncols) for x, y in zip(m._rows, brows)])
        rows, pivots = self.span([self._write(x[::-1], 1) for x in joined], width)
        past_b = list(zip(self._split(rows)[0], pivots))[bisect_left(pivots, k):]
        free = sorted(set(range(k, width)).difference(pivots), reverse=True)
        out = []
        for fc in free:
            hits = [(x, pc) for x, pc in past_b if x[fc]]
            den = lcm(*[x[pc] for x, pc in hits])
            nums = [0] * m.ncols
            nums[width - 1 - fc] = den
            for x, pc in hits:
                nums[width - 1 - pc] = -x[fc] * (den // x[pc])
            out.append(self._write(nums, den))
        return out, [width - 1 - fc for fc in free]


class _Entries(_IntRows):
    """Vectors over F_p for p >= 17, as tuples of canonical entries."""

    nonzero = any

    @staticmethod
    def pack(vec) -> tuple:
        return tuple(vec)

    @staticmethod
    def unpack(v: tuple, n: int) -> tuple:
        return v

    written = unpack

    def coerce(self, vec) -> tuple:
        return tuple(map(self.field.coerce, vec))

    @staticmethod
    def entry(v: tuple, j: int):
        return v[j]

    @staticmethod
    def unit(i: int, n: int) -> tuple:
        return (0,) * i + (1,) + (0,) * (n - 1 - i)

    @staticmethod
    def join(a: tuple, b: tuple, n: int) -> tuple:
        return a + b

    def add_scaled(self, a: tuple, b: tuple, c) -> tuple:
        """a + c * b."""
        p = self.p
        return tuple([(x + c * y) % p for x, y in zip(a, b)])

    # every entry is reduced mod p at once: no update is left to settle
    add_delayed = add_scaled

    @staticmethod
    def settle(v: tuple) -> tuple:
        return v

    def scale(self, a: tuple, c) -> tuple:
        p = self.p
        return tuple([(c * x) % p for x in a])

    @staticmethod
    def transpose(vectors, n: int) -> tuple[tuple, ...]:
        """The n columns of the vectors of length n written as rows."""
        return tuple(zip(*vectors)) if vectors else ((),) * n

    @staticmethod
    def _read(v: tuple) -> tuple[tuple, int]:
        return v, 1

    def _write(self, nums, den) -> tuple:
        """nums over den, or over dens entry by entry: every denominator is 1 over F_p."""
        p = self.p
        return tuple([x % p for x in nums])

    _write_ratios = _write

    def _pivot_row(self, row, c: int) -> list:
        """The pivot row scaled to 1 at column c."""
        p = self.p
        inv = pow(row[c], -1, p)
        return [(x * inv) % p for x in row]

    def _clear(self, row, top, c: int) -> list:
        """row less its entry at column c times the pivot row top, whose pivot is 1."""
        p, f = self.p, row[c]
        return [(x - f * y) % p for x, y in zip(row, top)]

    @staticmethod
    def _echelon(rows, pivots) -> list[tuple]:
        """The finished pivot rows in the layout; their entries are canonical."""
        return list(map(tuple, rows))


class _Rationals(_IntRows):
    """Q vectors as integer numerators over one positive denominator.

    A vector is ``(nums, den)``: a tuple of ints and an int den > 0 with
    ``gcd(den, *nums) == 1``, entry j being nums[j] / den.  That normal form
    is unique, so equality and hashing of vectors stay exact.  Only
    ``add_delayed`` may return a vector with a common factor left in, which
    ``settle`` divides out.  Every call but ``unpack`` and ``entry`` runs on
    ints; scalars may be ``Fraction``s or ints, read through their numerator
    and denominator.
    """

    @staticmethod
    def nonzero(v) -> bool:
        return any(v[0])

    @staticmethod
    def pack(vec) -> tuple[tuple, int]:
        return _ratios([x.numerator for x in vec], [x.denominator for x in vec])

    @staticmethod
    def unpack(v, n: int) -> tuple:
        nums, den = v
        if den == 1:
            return tuple(map(Fraction, nums))
        return tuple([Fraction(x, den) for x in nums])

    @staticmethod
    def written(v, n: int) -> tuple:
        """The entries as a document writes them: an int, or "a/b" in lowest terms."""
        nums, den = v
        if den == 1:
            return nums
        out = []
        for x in nums:
            g = gcd(x, den)
            out.append(x // g if g == den else f"{x // g}/{den // g}")
        return tuple(out)

    def coerce(self, vec) -> tuple[tuple, int]:
        return self.pack(list(map(self.field.coerce, vec)))

    @staticmethod
    def entry(v, j: int) -> Fraction:
        x = v[0][j]
        return Fraction(x, v[1]) if x else _Q_ZERO

    @staticmethod
    def unit(i: int, n: int) -> tuple[tuple, int]:
        return (0,) * i + (1,) + (0,) * (n - 1 - i), 1

    @staticmethod
    def join(a, b, n: int) -> tuple[tuple, int]:
        """a followed by b over the lcm of their denominators, which keeps the normal form."""
        (x, d), (y, e) = a, b
        if d == e:
            return x + y, d
        den = lcm(d, e)
        return (tuple([u * (den // d) for u in x] + [w * (den // e) for w in y]), den)

    @staticmethod
    def add_scaled(a, b, c) -> tuple[tuple, int]:
        """a + c * b, over the lcm of a's denominator and that of c * b.

        With c's numerator cancelled against b's denominator, the sum can
        share a factor with its denominator only at a prime of both
        denominators or of c's denominator, so ``_normal`` looks for one only
        there: a vector whose denominator has grown large is not run through
        a gcd of its size on every update.
        """
        return _normal(*_scaled_sum(a, b, c)) if c else a

    @staticmethod
    def add_delayed(a, b, c) -> tuple[tuple, int]:
        """a + c * b as ``add_scaled`` forms it, with its common factor left
        in: ``settle`` divides it out once after a run of these."""
        if not c:
            return a
        nums, den, _ = _scaled_sum(a, b, c)
        return tuple(nums), den

    @staticmethod
    def settle(v) -> tuple[tuple, int]:
        """v in normal form: its common factor divided out."""
        return _normal(*v)

    @staticmethod
    def scale(a, c) -> tuple[tuple, int]:
        """c * a; only a prime of c's denominator can be left to cancel."""
        x, d = a
        if not c:
            return (0,) * len(x), 1
        num, cd = c.numerator, c.denominator
        g = gcd(num, d)
        t = num // g
        return _normal([t * u for u in x], d // g * cd, cd)

    @staticmethod
    def transpose(vectors, n: int) -> tuple[tuple, ...]:
        """The n columns of the vectors of length n written as rows."""
        if not vectors:
            return (((), 1),) * n
        nums, dens = zip(*vectors)
        return tuple(_ratios(col, dens) for col in zip(*nums))

    # a vector is (nums, den) already, and tuple returns a tuple as it is
    _read = tuple
    _write = staticmethod(_normal)
    _write_ratios = staticmethod(_ratios)

    @staticmethod
    def _pivot_row(row, c: int) -> list:
        """The pivot row divided by the gcd of its entries, with a positive pivot."""
        g = gcd(*row)
        if row[c] < 0:
            g = -g
        return [x // g for x in row] if g != 1 else row

    @staticmethod
    def _clear(row, top, c: int) -> list:
        """(a/g)*row - (f/g)*top, for a and f the entries at column c of top and
        row and g their gcd, divided by the gcd of its entries (Bareiss)."""
        a, f = top[c], row[c]
        g = gcd(a, f)
        row = [a // g * x - f // g * y for x, y in zip(row, top)]
        g = gcd(*row)
        return [x // g for x in row] if g > 1 else row

    @staticmethod
    def _echelon(rows, pivots) -> list[tuple[tuple, int]]:
        """The finished pivot rows in the layout, each already normal over its pivot."""
        return [(tuple(row), row[c]) for row, c in zip(rows, pivots)]
