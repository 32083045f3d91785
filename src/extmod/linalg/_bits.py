"""The bit layout: F2 vectors as ints, entry j at bit j.

Adding two vectors is one XOR, which never carries, so nothing is ever
reduced, and every nonzero scalar is 1: a nonzero multiple of a vector is the
vector itself.  This is the layout of M4RI (Albrecht, Bard and Hart,
"Algorithm 898: Efficient multiplication of dense matrices over GF(2)", ACM
TOMS 2010).  A vector of at most 30 entries is one CPython digit, where XOR,
``v & -v`` and hashing take their fast paths.  Packing, unpacking and
``transpose`` stay in C: a vector is packed as the binary digits of an int,
``int(s, 2)`` of its entries reversed and translated to digits by
``bytes.translate``, and unpacked from ``bin``; ``pack_rows`` packs a
whole flat run of rows as one int and cuts the rows out of it.

A span clears each vector at its lowest set bit by the row with that pivot,
one XOR, keeping each row under its pivot bit, and back-substitutes the rows
from the last pivot to the first.  A product row is the XOR of the rows of
the right factor that a row of the left one selects, and m @ v the XOR of the
columns of m that v selects, each one ``_combine``.

Products and inverses of dense blocks are bit-sliced, for M4RI's
word-level parallelism: a whole block is one int, with one slot of s bits
per row, row i at bit s * i.  One big-int step then acts on every row at
once: ``whole >> j & starts`` marks, with a 1 at the start of its slot,
each row whose bit j is set, and its product with a vector v of at most s
bits is a copy of v in each marked slot, which never overlap or carry, so
XORing it in adds v to exactly those rows.  A product ``a @ b`` takes one
such multiply-XOR per row of b, and an inverse, Gauss–Jordan on [A | I]
column by column, one per column for each of A's block and its tags.  Each
method keeps the row loop where slicing loses: where the left factor has
few set bits for the block's size (a flash's unit rows, a permutation) and
where the block is large, as each multiply grows with it; the bounds are
measured, and both paths give the same rows.  ``coordinates`` over
independent t_r
forward-reduces the tagged rows [t_r | e_r], stopping at a t_r that reduces
to zero, and reduces each vector through them in ascending pivot order down
to [0 | its coordinates].  The forward pass and ``rank`` are written once
for every layout, over ``insert``, and the preimage
(``linalg._tagged_preimage``: u's rows spanned with each column of m tagged
by its index) once for this layout and the byte one, over ``span``.
``pivot_steps``, the chain sweep's elimination,
takes each column's lowest set bit ``low`` as its pivot, its other set bits
as its row operations, and clears the pivot row from each later column with
one test ``col & low`` and one XOR.
"""

from __future__ import annotations

from functools import reduce
from operator import xor

from . import Field, Matrix, _forward, _inverse, _rank, _tagged_preimage

# an entry x in [0, 256) as the binary digit of x mod 2, and a digit as its entry
_DIGIT = bytes(48 + (x & 1) for x in range(256))
_ENTRY = bytes.maketrans(b"01", b"\x00\x01")

# the largest bit-sliced inverse that beats the row loop on dense blocks,
# singular or not (see ``_Bits.inverse``)
_INVERSE_WIDTH = 112


def _sliced(rows, s: int) -> int:
    """The rows, each of at most s bits, side by side in one int: row i in
    the slot of s bits from bit s * i."""
    whole = 0
    for row in reversed(rows):
        whole = whole << s | row
    return whole


def _slots(whole: int, m: int, s: int) -> list[int]:
    """The m slots of s bits of ``whole``, lowest first: each cut out by a
    shift and a mask."""
    mask = (1 << s) - 1
    return [whole >> k & mask for k in range(0, m * s, s)]


def _starts(m: int, s: int) -> int:
    """A 1 at the first bit of each of m slots of s > 0 bits."""
    return ((1 << m * s) - 1) // ((1 << s) - 1)


class _Bits:
    """F2 vectors as ints, entry j at bit j: every row update is one XOR."""

    nonzero = bool
    binary = True  # every entry is 0 or 1

    def __init__(self, field: Field):
        self.field = field

    @staticmethod
    def pack(vec) -> int:
        """The vector of entries in [0, 256) as an int, each entry taken mod 2."""
        return int(bytes(vec)[::-1].translate(_DIGIT) or b"0", 2)

    @staticmethod
    def pack_rows(values, n: int) -> list[int]:
        """The runs of n entries in values, each packed: all of them packed
        as one int in one conversion, and each run cut out of it by a shift
        and a mask."""
        return _slots(_Bits.pack(values), len(values) // n, n) if n else []

    @staticmethod
    def written(v: int, n: int) -> bytes:
        """The n entries of v as bytes of 0s and 1s, lowest entry first."""
        return bin(v | 1 << n)[:2:-1].encode().translate(_ENTRY)

    @staticmethod
    def unpack(v: int, n: int) -> tuple:
        return tuple(_Bits.written(v, n))

    def coerce(self, vec) -> int:
        """An outside vector, packed with each entry reduced mod 2.

        ``pack`` reads a vector of ints in [0, 256) in C; anything else is
        coerced entry by entry.
        """
        try:
            return self.pack(vec)
        except (TypeError, ValueError):
            return self.pack(map(self.field.coerce, vec))

    @staticmethod
    def entry(v: int, j: int) -> int:
        return v >> j & 1

    @staticmethod
    def support(v: int) -> dict[int, int]:
        """The nonzero entries of v by index, lowest first: a 1 at each set bit."""
        out = {}
        while v:
            low = v & -v
            out[low.bit_length() - 1] = 1
            v ^= low
        return out

    @staticmethod
    def unit(i: int, n: int) -> int:
        return 1 << i

    @staticmethod
    def join(a: int, b: int, n: int) -> int:
        """The vector a of length n followed by b."""
        return a | b << n

    @staticmethod
    def tail(v: int, n: int) -> int:
        return v >> n

    @staticmethod
    def add_scaled(a: int, b: int, c) -> int:
        return a ^ b if c else a

    # an XOR leaves nothing to reduce, so no update is left to settle
    add_delayed = add_scaled

    @staticmethod
    def settle(v: int) -> int:
        return v

    @staticmethod
    def scale(a: int, c) -> int:
        return a if c else 0

    @staticmethod
    def tally_units(n: int) -> list[int]:
        """What ``tally`` takes for each of rows 0 .. n - 1: its unit vector."""
        return list(map((1).__lshift__, range(n)))

    @staticmethod
    def tally(units, n: int) -> int:
        """The sum of some of the ``tally_units`` of length n: one XOR each,
        so a unit listed twice cancels."""
        return reduce(xor, units, 0)

    @staticmethod
    def transpose(vectors, n: int) -> tuple[int, ...]:
        """The n columns of vectors of length n.

        The vectors are written last first as one string of digits, each with
        its entry n - 1 first, so column j is every n-th digit from digit
        n - 1 - j, highest entry first, as ``int(s, 2)`` reads it.
        """
        top = 1 << n
        data = "".join([bin(v | top)[3:] for v in reversed(vectors)])
        return tuple([int(data[k::n] or "0", 2) for k in range(n - 1, -1, -1)])

    @staticmethod
    def _combine(vectors, v: int) -> int:
        """The XOR of vectors[j] over the set bits j of v."""
        acc = 0
        while v:
            low = v & -v
            acc ^= vectors[low.bit_length() - 1]
            v ^= low
        return acc

    def apply(self, m: "Matrix", v: int) -> int:
        """m @ v: the XOR of the packed columns of m that v selects."""
        return self._combine(m._columns(), v)

    def product(self, a: "Matrix", b: "Matrix") -> tuple[int, ...]:
        """The rows of a @ b, row i the XOR of the rows b_j of b that row i of
        a selects.

        Bit-sliced, a's rows sit side by side in slots of s bits, s the wider
        of the two factors, and for each row b_j one multiply-XOR adds b_j
        to every slot whose row selects it: ``whole >> j & starts`` has a 1
        at the start of exactly those slots, and its product with b_j, of at
        most s bits, is their copies of b_j, which never overlap or carry.
        That is a.ncols big-int steps where the row loop takes one XOR per
        set bit of a.  The row loop stays where a has too few set bits for
        the sliced block, of w = a.nrows * s bits, to pay: a few per row
        and per step on small blocks (a flash's unit rows select one row
        each), more as packing and cutting the rows copy a longer block per
        row, and as each step's multiply widens with w and b.ncols.
        """
        arows, brows, m, k, n = a._rows, b._rows, a.nrows, a.ncols, b.ncols
        s = k if k > n else n
        w = m * s
        # the set bits at which the two paths cost the same, fitted to timings
        # of both on blocks up to 256 x 256, sparse and dense, and on tall ones
        # up to 3000 rows; a left factor of at most 64 entries is not counted,
        # as slicing does not pay there even when it is dense
        cut = m + m * w // 2048 + k * (3 + w * (n + 64) // 131072)
        if m * k <= 64 or sum(map(int.bit_count, arows)) <= cut:
            combine = self._combine
            return tuple([combine(brows, arow) for arow in arows])
        whole, starts, acc = _sliced(arows, s), _starts(m, s), 0
        for j, row in enumerate(brows):
            if row:
                acc ^= (whole >> j & starts) * row
        return tuple(_slots(acc, m, s))

    def pivot_steps(self, cols: list[int]) -> list[tuple]:
        """The steps of ``linalg._pivot_steps`` on masks: a column's pivot is
        its lowest set bit ``low`` and its row operations its other set bits,
        and a later column meets the pivot row where ``col & low`` is set and
        is cleared by one XOR.  Every coefficient is 1."""
        steps, n = [], len(cols)
        for ci, col in enumerate(cols):
            if col:
                low = col & -col
                col_ops = [(cj, 1) for cj in range(ci + 1, n) if cols[cj] & low]
                for cj, _ in col_ops:
                    cols[cj] ^= col
                steps.append((ci, low.bit_length() - 1, 1,
                              [*self.support(col ^ low).items()], col_ops))
        return steps

    @staticmethod
    def insert(rows: dict[int, int], v: int) -> tuple[int, int] | None:
        """v cleared at its lowest bit by the rows of a forward pass keyed by
        pivot bit, one XOR each, until it is zero, then None, or has a pivot
        of its own: then it is stored and returned with that pivot's index."""
        while v:
            low = v & -v
            row = rows.get(low)
            if row is None:
                rows[low] = v
                return v, low.bit_length() - 1
            v ^= row
        return None

    _forward, rank, preimage = _forward, _rank, _tagged_preimage

    def inverse(self, rows, n: int) -> list[int] | None:
        """The rows of the inverse of the n x n matrix with these rows, or None
        if it is singular.

        Bit-sliced, Gauss–Jordan runs column by column on [A | I], held as
        two ints with one slot of n bits per row: A's rows and their tags.
        At column c the free rows with bit c set are one AND, and the lowest
        of them, row r, clears bit c from every other row that has it with
        one multiply-XOR, as in ``product``; r is then taken.  A column that
        no free row reaches shows A singular, so A's block is cleared first
        and the tags replay its steps only once A is known invertible.  Row
        c of the inverse is the tag of the row taken at column c.  That is
        two multiplies per column where the row loop (``linalg._inverse``)
        takes one XOR per row update, so the row loop stays where A is
        large, or has fewer than n / 24 set bits per row (a permutation
        from n = 25 on), where its updates are few.
        """
        if not 0 < n <= _INVERSE_WIDTH or sum(map(int.bit_count, rows)) < n * n // 24:
            return _inverse(self, rows, n)
        starts, mask = _starts(n, n), (1 << n) - 1
        block, free, steps = _sliced(rows, n), starts, []
        for c in range(n):
            col = block >> c & starts
            hits = col & free
            if not hits:
                return None
            low = hits & -hits
            at = low.bit_length() - 1
            others = col ^ low
            if others:
                block ^= others * (block >> at & mask)
            free ^= low
            steps.append((others, at))
        tags = _starts(n, n + 1)
        for others, at in steps:
            if others:
                tags ^= others * (tags >> at & mask)
        return [tags >> at & mask for _, at in steps]

    def span(self, vectors, n: int, head: int = 0) -> tuple[list[int], list[int]]:
        """The reduced echelon rows and pivots of the span of the vectors,
        those with pivots at or past entry ``head`` alone.

        After the forward pass, from the last pivot to the first, each row is
        cleared at the later pivots by their rows, which are reduced by then;
        the rows past ``head`` need no row before it.
        """
        rows, cut = self._forward(vectors), 1 << head
        bits = sorted([b for b in rows if b >= cut], reverse=True)
        later = 0  # the pivots after the current one
        for bit in bits:
            v = rows[bit]
            hits = v & later
            while hits:
                low = hits & -hits
                v ^= rows[low]
                hits ^= low
            rows[bit] = v
            later |= bit
        bits.reverse()
        return [rows[b] for b in bits], [b.bit_length() - 1 for b in bits]

    def coordinates(self, basis, vectors, n: int) -> list[int] | None:
        """The coordinates of each vector of length n over the basis vectors t_r,
        or None if those are dependent or a vector lies outside their span: the
        forward-reduced rows [t_r | e_r] clear each vector at its lowest bit,
        in ascending pivot order, down to [0 | its coordinates]."""
        rows = self._forward([t | 1 << n + r for r, t in enumerate(basis)], n)
        if rows is None:
            return None
        head, out = (1 << n) - 1, []
        for v in vectors:
            while v & head:
                row = rows.get(v & -v)
                if row is None:
                    return None
                v ^= row
            out.append(v >> n)
        return out
