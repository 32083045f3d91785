"""The byte layout: F_p vectors for odd p <= 13 as ints, entry j in the byte at bit 8j.

``int.from_bytes`` packs a vector in C.  A row update a + c * b of canonical
vectors is one big-int multiply-add, which carries nothing between bytes
because each lane is at most (p - 1) + (p - 1)**2 < 256; one
``bytes.translate`` with the table of x % p reduces it.  A linear
combination (a product row, m @ v, a back substitution) adds terms c * b to
an accumulator and reduces it only when one more term could take a lane past
255, the delayed reduction of FFLAS-FFPACK (Dumas, Giorgi and Pernet, "Dense
linear algebra over word-size prime fields: the FFLAS and FFPACK packages",
ACM TOMS 2008).  F2 has a layout of its own, one bit per entry
(:mod:`extmod.linalg._bits`).

A span clears each vector at its lowest nonzero entry by the row with that
pivot, one multiply-add, and back-substitutes the rows from the last pivot to
the first.  A product row combines the packed rows of the right factor with
the entries of the left row, and m @ v the packed columns of m with the
entries of v; a vector or a left row with one nonzero entry selects one
column or one right row, scaled.  ``coordinates`` over independent t_r
forward-reduces the tagged rows [t_r | -e_r], stopping at a t_r that reduces
to zero, and reduces each vector through them in ascending pivot order down
to [0 | its coordinates].  The forward pass, ``rank`` and the preimage
(``linalg._tagged_preimage``: u's rows spanned with each column of m tagged
by its index) are written once for this layout and the bit one, over
``insert`` and ``span``, and ``inverse`` (``linalg._inverse``: the
coordinates of the unit vectors) once for this layout and the tuple ones.
"""

from __future__ import annotations

from itertools import compress, islice

from . import Field, Matrix, _forward, _inverse, _pivot_steps, _rank, _tagged_preimage


class _PackedFp:
    """F_p vectors for odd p <= 13 as ints, entry j in the byte (lane) at bit 8j.

    A row update a + c * b is one big-int multiply-add, its lanes at most
    (p - 1) + (p - 1)**2 < 256, reduced by one ``bytes.translate``; a linear
    combination is reduced only when one more term could take a lane past
    255.  Every vector a method returns has its lanes reduced.
    """

    nonzero = bool

    def __init__(self, field: Field):
        self.field = field
        p = self.p = field.characteristic
        self._mod = bytes(x % p for x in range(256))
        self._inv = [0, *(pow(c, -1, p) for c in range(1, p))]
        # the terms c * b, each adding at most (p - 1)**2 to a lane, that an
        # accumulator of reduced lanes takes before a lane could pass 255
        self._room = (256 - p) // (p - 1) ** 2

    @staticmethod
    def pack(vec) -> int:
        return int.from_bytes(bytes(vec), "little")

    def pack_rows(self, values, n: int) -> list[int]:
        """The runs of n entries in values, each packed."""
        pack = self.pack
        return [pack(values[i:i + n]) for i in range(0, len(values), n or 1)]

    @staticmethod
    def unpack(v: int, n: int) -> tuple:
        return tuple(v.to_bytes(n, "little"))

    written = unpack

    def coerce(self, vec) -> int:
        """An outside vector, packed with each entry reduced mod p.

        ``bytes`` packs a vector of ints in [0, 256) in C and ``translate``
        reduces it; anything else is coerced entry by entry.
        """
        try:
            return int.from_bytes(bytes(vec).translate(self._mod), "little")
        except (TypeError, ValueError):
            return self.pack(map(self.field.coerce, vec))

    @staticmethod
    def entry(v: int, j: int) -> int:
        return v >> 8 * j & 255

    @staticmethod
    def support(v: int) -> dict[int, int]:
        """The nonzero entries of v by lane, lowest lane first."""
        return {j: c for j, c in enumerate(v.to_bytes((v.bit_length() + 7) // 8, "little")) if c}

    @staticmethod
    def unit(i: int, n: int) -> int:
        return 1 << 8 * i

    @staticmethod
    def join(a: int, b: int, n: int) -> int:
        """The vector a of length n followed by b."""
        return a | b << 8 * n

    @staticmethod
    def tail(v: int, n: int) -> int:
        return v >> 8 * n

    def _reduced(self, v: int) -> int:
        """v with every lane, each below 256, reduced mod p."""
        return int.from_bytes(v.to_bytes((v.bit_length() + 7) // 8, "little")
                              .translate(self._mod), "little")

    def add_scaled(self, a: int, b: int, c) -> int:
        """a + c * b."""
        return self._reduced(a + c * b) if c else a

    # a lane holds one more term only once reduced, so each update is
    # reduced at once and none is left to settle
    add_delayed = add_scaled

    @staticmethod
    def settle(v: int) -> int:
        return v

    def scale(self, a: int, c) -> int:
        return self._reduced(c * a)

    def tally(self, rows, n: int) -> int:
        """The sum of the unit vectors of length n at some rows.

        A plain ``sum`` of 256 - p of them on top of reduced lanes fits in
        a byte, so it is reduced once per that many rows.
        """
        acc, units = 0, map((1).__lshift__, map((8).__mul__, rows))
        while chunk := list(islice(units, 256 - self.p)):
            acc = self._reduced(sum(chunk, acc))
        return acc

    def _combine(self, vectors, coeffs) -> int:
        """The sum of c * v over the vectors and their coefficients, reduced."""
        acc, room = 0, self._room
        for c, v in zip(compress(coeffs, coeffs), compress(vectors, coeffs)):
            if not room:
                acc, room = self._reduced(acc), self._room
            acc += c * v
            room -= 1
        return self._reduced(acc)

    @staticmethod
    def transpose(vectors, n: int) -> tuple[int, ...]:
        """The n columns of vectors of length n: column j is every n-th byte from byte j."""
        data = b"".join(v.to_bytes(n, "little") for v in vectors)
        return tuple(int.from_bytes(data[j::n], "little") for j in range(n))

    def _combine_by(self, vectors, v: int, n: int) -> int:
        """The sum of c * vectors[j] over the lanes j of v, of length n, that
        hold c: for a v with one nonzero lane, that one vector, scaled."""
        if not v:
            return 0
        lane = ((v & -v).bit_length() - 1) >> 3
        c = v >> 8 * lane
        if c < 256:
            return vectors[lane] if c == 1 else self.scale(vectors[lane], c)
        return self._combine(vectors, v.to_bytes(n, "little"))

    def apply(self, m: "Matrix", v: int) -> int:
        """m @ v: the packed columns of m combined with v's entries."""
        return self._combine_by(m._columns(), v, m.ncols)

    def product(self, a: "Matrix", b: "Matrix") -> tuple[int, ...]:
        """The rows of a @ b: the packed rows of b combined with a row of a's entries."""
        brows, n, combine = b._rows, a.ncols, self._combine_by
        return tuple([combine(brows, arow, n) for arow in a._rows])

    def insert(self, rows: dict[int, int], v: int) -> tuple[int, int] | None:
        """v cleared at its lowest lane, holding c, by adding p - c times the
        row of a forward pass keyed by pivot lane, until it is zero, then
        None, or has a pivot of its own: then it is stored with a 1 there and
        returned with that pivot."""
        p, reduced = self.p, self._reduced
        while v:
            lane = ((v & -v).bit_length() - 1) >> 3
            c = v >> 8 * lane & 255
            row = rows.get(lane)
            if row is None:
                v = rows[lane] = v if c == 1 else reduced(self._inv[c] * v)
                return v, lane
            v = reduced(v + (p - c) * row)
        return None

    _forward, inverse, rank, preimage = _forward, _inverse, _rank, _tagged_preimage

    def span(self, vectors, n: int, head: int = 0) -> tuple[list[int], list[int]]:
        """The reduced echelon rows and pivots of the span of the vectors,
        those with pivots at or past lane ``head`` alone.

        After the forward pass, from the last pivot to the first, each row is
        cleared at the later pivots in one combination of their rows, which
        are reduced by then; the rows past ``head`` need no row before it.
        """
        p, rows = self.p, self._forward(vectors)
        lanes = sorted([k for k in rows if k >= head], reverse=True)
        later = 0  # the lanes of the pivots after the current one
        for lane in lanes:
            v = rows[lane]
            hits = v & later
            terms, coeffs = [v], [1]
            while hits:
                k = ((hits & -hits).bit_length() - 1) >> 3
                c = hits >> 8 * k & 255
                hits ^= c << 8 * k
                terms.append(rows[k])
                coeffs.append(p - c)
            if len(terms) > 1:
                rows[lane] = self._combine(terms, coeffs)
            later |= 255 << 8 * lane
        lanes.reverse()
        return [rows[k] for k in lanes], lanes

    def coordinates(self, basis, vectors, n: int) -> list[int] | None:
        """The coordinates of each vector of length n over the basis vectors t_r,
        or None if those are dependent or a vector lies outside their span: the
        forward-reduced rows [t_r | -e_r] clear each vector at its lowest lane,
        in ascending pivot order, down to [0 | its coordinates]."""
        shift = 8 * n
        rows = self._forward([t | (self.p - 1) << shift + 8 * r for r, t in enumerate(basis)], n)
        if rows is None:
            return None
        p, reduced = self.p, self._reduced
        head, out = (1 << shift) - 1, []
        for v in vectors:
            while v & head:
                lane = ((v & -v).bit_length() - 1) >> 3
                row = rows.get(lane)
                if row is None:
                    return None
                v = reduced(v + (p - (v >> 8 * lane & 255)) * row)
            out.append(v >> shift)
        return out

    def pivot_steps(self, cols: list) -> list[tuple]:
        """The chain sweep's elimination steps on the columns (``linalg._pivot_steps``)."""
        return _pivot_steps(self.field, cols)
