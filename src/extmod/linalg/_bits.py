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
columns of m that v selects.  ``coordinates`` over independent t_r
forward-reduces the tagged rows [t_r | e_r], stopping at a t_r that reduces
to zero, and reduces each vector through them in ascending pivot order down
to [0 | its coordinates].  The forward pass, ``rank`` and the preimage
(``linalg._tagged_preimage``: u's rows spanned with each column of m tagged
by its index) are written once for this layout and the byte one, over
``insert`` and ``span``.  ``pivot_steps``, the chain sweep's elimination,
takes each column's lowest set bit ``low`` as its pivot, its other set bits
as its row operations, and clears the pivot row from each later column with
one test ``col & low`` and one XOR.
"""

from __future__ import annotations

from functools import reduce
from operator import xor

from . import Field, Matrix, _forward, _rank, _tagged_preimage

# an entry x in [0, 256) as the binary digit of x mod 2, and a digit as its entry
_DIGIT = bytes(48 + (x & 1) for x in range(256))
_ENTRY = bytes.maketrans(b"01", b"\x00\x01")


class _Bits:
    """F2 vectors as ints, entry j at bit j: every row update is one XOR."""

    nonzero = bool

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
        flat, mask = _Bits.pack(values), (1 << n) - 1
        return [flat >> k & mask for k in range(0, len(values), n or 1)]

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
    def tally(rows, n: int) -> int:
        """The sum of the unit vectors of length n at a list of rows: a row
        listed twice cancels."""
        return reduce(xor, [1 << i for i in rows], 0)

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
        """The rows of a @ b: the XOR of the packed rows of b that a row of a selects."""
        brows, combine = b._rows, self._combine
        return tuple([combine(brows, arow) for arow in a._rows])

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
