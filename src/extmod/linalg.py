"""Exact dense linear algebra over prime fields and the rationals.

Matrices carry their field and read every entry in canonical reduced form:
the least non-negative residue mod p, or a ``Fraction`` in lowest terms when
the characteristic is 0.  Subspaces are stored as bases in reduced
column-echelon form, which is unique per subspace, so subspace equality is
plain equality of basis matrices.  A kernel comes out canonical from one
elimination, a preimage is the head of a kernel, and an intersection spans
the image of a preimage.  No floating point is used anywhere.

Vectors take one of four layouts, chosen once per ``Field`` from its
characteristic (``Field._family``).  Over F_p for p <= 13 a vector is one int
with entry j in the byte at bit 8j (:class:`_PackedFp`): ``int.from_bytes``
packs it in C.  A row update a + c * b of canonical vectors is one big-int
multiply-add, which carries nothing between bytes because each lane is at
most (p - 1) + (p - 1)**2 < 256; one ``bytes.translate`` with the table of
x % p reduces it.  A linear combination (a product row, m @ v, a back
substitution) adds terms c * b to an accumulator and reduces it only
when one more term could take a lane past 255, the delayed reduction of
FFLAS-FFPACK (Dumas, Giorgi and Pernet, "Dense linear algebra over
word-size prime fields: the FFLAS and FFPACK packages", ACM TOMS 2008).  F2
shares that layout (:class:`_PackedF2`), and adding two vectors there is
one XOR, which never carries.  Over F_p for p >= 17 a vector is a tuple of
canonical entries (:class:`_Entries`).  Over Q it is ``(nums, den)``
(:class:`_Rationals`): a tuple of integer numerators over one positive
denominator, with ``gcd(den, *nums) == 1``, a normal form that keeps
equality and hashing exact; FLINT's ``fmpq_mat`` likewise runs products and
eliminations on integer matrices (``fmpz_mat``).  The family does all that
depends on the layout, and ``Matrix`` eliminations and products,
``SubspaceBasis``, ``image``, ``kernel``, ``preimage_space`` and the chain
sweep of :mod:`extmod.decompose` are written once over it, looking it up
once per call.  A ``Matrix`` keeps its rows, and a ``SubspaceBasis`` its
echelon rows, in the family layout only; ``rows``, ``cols()`` and entry
reads unpack them.  The columns of a ``Matrix`` are one ``transpose`` of its rows, made on
first use and cached for what reads columns: an image, a product on tuples
or on Q rows, m @ v and packed preimages.  ``from_cols`` keeps the columns
it is given as that cache.

Each family has one elimination, ``span``: the reduced echelon rows and
pivots of the span of some vectors.  On bytes each vector is cleared at its
lowest nonzero entry by the row with that pivot, one XOR over F2 and one
multiply-add over odd p, and the rows are back-substituted from the last
pivot to the first.  The tuple layouts share one Gauss–Jordan elimination on
the vectors' numerators, written once in :class:`_IntRows`: over F_p each
pivot row is scaled to 1, and over Q the elimination is fraction-free on
primitive integer rows (Bareiss, Math. Comp. 1968), so each pivot row comes
out as ``(row, pivot)``, already in normal form.  Where only a dimension
is read, the family's ``rank`` is the forward pass alone on bytes and the
pivot count of a span on tuples; ``Matrix.rank`` and containment use it.
Every other ``Matrix`` elimination is one span of its rows: ``rref_pivots``
pads the rows with zero rows, and ``solve`` spans the rows of [A | B] at
full width, which is inconsistent exactly when a pivot falls in B.
``inverse`` reads row i of the inverse as the coordinates of e_i over
A's rows (see ``coordinates`` below); on bytes that is one forward pass of
the tagged rows [A | -I], which stops at the first row whose A part
reduces to zero.

Where the cheapest algorithm differs, the byte and the tuple layouts keep
their own.  On bytes a product row combines the packed rows of the right
factor with the entries of the left row, and m @ v the packed columns of m
with the entries of v; over F2 that is the XOR of the rows or columns
selected, after Albrecht, Bard and Hart, "Algorithm 898: Efficient
multiplication of dense matrices over GF(2)" (ACM TOMS 2010); a vector or
a left row with one nonzero entry selects one column or one right row,
scaled.  ``coordinates`` of vectors over independent t_r forward-reduces
the tagged rows [t_r | -e_r] and reduces each vector through them in
ascending pivot order, which leaves [0 | its coordinates]; the tuple
layouts read them off one span of the transposed [T | V].  A packed
preimage of u under m spans u's rows with each column of m tagged by its
index, and keeps the tags of the vectors whose column part cancels, the
only rows it back-substitutes.  The forward pass of the tagged columns does
not depend on u, so m keeps it from its first preimage, as it keeps its
columns, and each preimage runs only u's rows into a copy, as an LU
factorization is reused across right-hand sides; a pullback, the preimage
under m of u's image under a, runs in the images of u's rows unreduced.
The two tuple layouts share one base, :class:`_IntRows`, which reads a vector as
integer numerators over a denominator (1 over F_p) and writes products,
m @ v, spans, preimages and tallies once.  A product entry is one integer dot
product, and m @ v combines the columns of m that v selects while at most
half of v is nonzero.  A preimage is the head of ker [m | B], B the basis
matrix of u, read off the integer echelon rows of one span of [m | B] with
its columns reversed; a pivot is 1 over F_p, so a head entry there is one
modular negation.  The tagged span would have about twice the entries to
eliminate.  A pullback spans the image first there.  In every family a
kernel is the preimage of zero.

A residue, ``SubspaceBasis.reduce_vector``, is one pass over the echelon
rows in every layout, through the family's ``entry`` and ``add_scaled``: the
rows are reduced, so each row is subtracted once, times the vector's entry at
its pivot.  Containment is a rank: u contains w exactly when their rows
together have u's dimension.

Over Q a ``Fraction`` is built only where an entry leaves the layout:
``rows``, ``cols()``, ``m[i, j]``, ``apply``, ``SubspaceBasis.vectors()`` and
``reduce_vector`` unpack, and the family's ``entry`` reads one scalar, as
``reduce_vector`` and the sweep's pivot rule do.
Products, eliminations, containment, preimages and row updates run on
integers alone, and ``written_cols()`` writes each entry as a document does
straight from the integers.

Entries are coerced to canonical form once, where data enters: ``Matrix(...)``
and the public defaults of ``Matrix.from_cols`` and
``SubspaceBasis.from_spanning`` coerce.  Callers whose entries are already
canonical pass ``_raw=True``: tuples to ``Matrix(...)``, which packs them
(over Q their entries may be ints or ``Fraction``s), and vectors in the
family layout to ``from_cols`` and ``from_spanning``.  The packed layouts
rely on this: they need every entry below p, which also keeps equality and
hashing of packed vectors exact.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress
from math import gcd, lcm
from operator import index, mul, xor


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math.
# Comp. 2017), so no characteristic at or above it is accepted.
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality for n < PRIME_TEST_BOUND."""
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class Field:
    """F_p for a prime p, or the rational numbers when characteristic is 0.

    Elements are plain ints in ``[0, p)`` for prime characteristic and
    ``Fraction`` values in characteristic 0; ``zero`` and ``one`` over Q are
    shared constants, so reading them builds nothing.  The field picks its
    vector layout: packed bytes for p <= 13, with XOR rows over F2, tuples of
    entries for p >= 17, and integer rows over one denominator for Q.
    """

    characteristic: int

    def __post_init__(self) -> None:
        p = self.characteristic
        if p >= PRIME_TEST_BOUND:
            raise ValueError(f"characteristic {p} is at or above {PRIME_TEST_BOUND}, "
                             f"the bound below which primality is tested")
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or a prime, got {p}")
        # the one place that picks a vector layout: bytes while a lane of
        # a + c * b, at most (p - 1) + (p - 1)**2, fits in one
        family = (_PackedF2 if p == 2 else _PackedFp if 0 < p * (p - 1) < 256
                  else _Entries if p else _Rationals)
        object.__setattr__(self, "_family", family(self))

    @property
    def zero(self):
        return 0 if self.characteristic else _Q_ZERO

    @property
    def one(self):
        return 1 if self.characteristic else _Q_ONE

    def coerce(self, value):
        """Reduce an integer or a ``Fraction`` to canonical form.

        An integer is an int, a bool or anything with ``__index__``.  Any
        other value, a float or a ``Decimal`` too, is a ``TypeError``: no
        entry is truncated or approximated.
        """
        p = self.characteristic
        # ints first: isinstance against Fraction, an ABC, is slow when it fails
        if type(value) is not int:
            if isinstance(value, Fraction):
                if p == 0:
                    # a Fraction is immutable, so an exact one is its own copy
                    return value if type(value) is Fraction else Fraction(value)
                if value.denominator % p == 0:
                    raise ZeroDivisionError(f"denominator not invertible mod {p}")
                return value.numerator * pow(value.denominator, -1, p) % p
            try:
                value = index(value)
            except TypeError:
                raise TypeError(f"field entries are integers or Fractions, "
                                f"not {type(value).__name__} {value!r}") from None
        return value % p if p else Fraction(value)

    def add(self, a, b):
        p = self.characteristic
        return (a + b) % p if p else a + b

    def sub(self, a, b):
        p = self.characteristic
        return (a - b) % p if p else a - b

    def mul(self, a, b):
        p = self.characteristic
        return (a * b) % p if p else a * b

    def neg(self, a):
        p = self.characteristic
        return (-a) % p if p else -a

    def inv(self, a):
        p = self.characteristic
        if p:
            return pow(a, -1, p)
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a

    def parse_scalar(self, token: str):
        token = token.strip()
        if "/" in token:
            if self.characteristic:
                raise ValueError(f"fractional coefficient {token!r} in prime characteristic")
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return self.coerce(int(token))


# -- vector layouts ------------------------------------------------------------
#
# The families answer the same calls.  A vector is in family layout and holds
# canonical entries, and n is its length where the layout does not carry it.


class _PackedFp:
    """F_p vectors for p <= 13 as ints, entry j in the byte (lane) at bit 8j.

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

    def scale(self, a: int, c) -> int:
        return self._reduced(c * a)

    def tally(self, rows, n: int) -> int:
        """The sum of the unit vectors of length n at a list of rows.

        A plain ``sum`` of 256 - p of them on top of reduced lanes fits in
        a byte, so it is reduced once per that many rows.
        """
        acc, k = 0, 256 - self.p
        for i in range(0, len(rows), k):
            acc = self._reduced(sum([1 << 8 * r for r in rows[i:i + k]], acc))
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

    def _forward(self, vectors, stop: int | None = None, rows=None) -> dict[int, int] | None:
        """The forward pass of a span: echelon rows keyed by their pivot, the
        lane of their lowest set bit, each stored with a 1 there.

        Each vector is cleared at its lowest lane, holding c, by adding p - c
        times the row with that pivot, until it is zero or has a pivot of its
        own.  Given ``stop``, the pass ends at the first vector whose pivot
        falls at or past that lane, and returns None.  Given ``rows``, the
        forward pass of earlier vectors, the vectors are added to it.
        """
        p, inv, reduced = self.p, self._inv, self._reduced
        rows = {} if rows is None else rows
        for v in vectors:
            while v:
                lane = ((v & -v).bit_length() - 1) >> 3
                c = v >> 8 * lane & 255
                row = rows.get(lane)
                if row is None:
                    if stop is not None and lane >= stop:
                        return None
                    rows[lane] = v if c == 1 else reduced(inv[c] * v)
                    break
                v = reduced(v + (p - c) * row)
        return rows

    def rank(self, vectors, n: int) -> int:
        """The dimension of the span of the vectors: the rows of its forward pass."""
        return len(self._forward(vectors))

    def span(self, vectors, n: int, head: int = 0, rows=None) -> tuple[list[int], list[int]]:
        """The reduced echelon rows and pivots of the span of the vectors, and
        of the forward ``rows`` given, those with pivots at or past lane
        ``head`` alone.

        After the forward pass, from the last pivot to the first, each row is
        cleared at the later pivots in one combination of their rows, which
        are reduced by then; the rows past ``head`` need no row before it.
        """
        p, rows = self.p, self._forward(vectors, None, rows)
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
        head, out = (1 << shift) - 1, []
        for v in vectors:
            v = self._clear_head(v, rows, head)
            if v is None:
                return None
            out.append(v >> shift)
        return out

    def _clear_head(self, v: int, rows, head: int) -> int | None:
        """v cleared at its lowest lane in head by the forward row with that
        pivot until head is zero, or None at a lane that no row clears."""
        p, add_scaled = self.p, self.add_scaled
        while v & head:
            lane = ((v & -v).bit_length() - 1) >> 3
            row = rows.get(lane)
            if row is None:
                return None
            v = add_scaled(v, row, p - (v >> 8 * lane & 255))
        return v

    def preimage(self, m: "Matrix", u: "SubspaceBasis",
                 a: "Matrix | None" = None) -> tuple[list[int], list[int]]:
        """Echelon rows and pivots of {v : m @ v in u}, or in a(u) given a,
        read off one span.

        The span is of u's rows, or of their images under a as they come, and
        of each column j of m with the unit vector e_j appended past its
        nrows entries.  The vectors of that span that are zero in the first
        nrows entries are (0, v) for v in the preimage, so the echelon rows
        with pivots past them are the preimage's, shifted.  The forward pass
        of the tagged columns does not depend on u: m keeps it from its first
        preimage, and each preimage adds u's vectors to a copy.
        """
        vectors = u._rows if a is None else [self.apply(a, r) for r in u._rows]
        shift = 8 * m.nrows
        if m._fwd is None:
            # last column first: a column whose head cancels then has its own tag
            # as its lowest entry, as it only picks up the tags of later columns
            m._fwd = self._forward([col | 1 << shift + 8 * j
                                    for j, col in enumerate(m._columns())][::-1])
        rows, pivots = self.span(vectors, m.nrows + m.ncols, m.nrows, dict(m._fwd))
        return [r >> shift for r in rows], [pr - m.nrows for pr in pivots]


class _PackedF2(_PackedFp):
    """F2 vectors on the same layout, where adding two vectors is one XOR.

    Every nonzero scalar is 1, so a nonzero multiple of a vector is the
    vector itself: ``add_scaled`` is one XOR, ``scale`` keeps its argument
    and a combination is the XOR of the vectors with a nonzero coefficient,
    after Albrecht, Bard and Hart, "Algorithm 898: Efficient multiplication
    of dense matrices over GF(2)" (ACM TOMS 2010).  XOR never carries
    between bytes, so nothing is ever reduced.
    """

    @staticmethod
    def add_scaled(a: int, b: int, c) -> int:
        return a ^ b if c else a

    @staticmethod
    def scale(a: int, c) -> int:
        return a if c else 0

    @staticmethod
    def tally(rows, n: int) -> int:
        return reduce(xor, [1 << 8 * i for i in rows], 0)

    @staticmethod
    def _combine(vectors, coeffs) -> int:
        return reduce(xor, compress(vectors, coeffs), 0)

    @staticmethod
    def _forward(vectors, stop: int | None = None, rows=None) -> dict[int, int] | None:
        """The forward pass of a span: echelon rows keyed by their pivot bit,
        the lowest one they have set.

        Each vector is cleared at its lowest bit by the row with that pivot
        until it is zero or has a pivot of its own.  Given ``stop``, the pass
        ends at the first vector whose pivot falls at or past that entry, and
        returns None; given ``rows``, the vectors are added to them.
        """
        rows = {} if rows is None else rows
        for v in vectors:
            while v:
                low = v & -v
                row = rows.get(low)
                if row is None:
                    if stop is not None and low >> 8 * stop:
                        return None
                    rows[low] = v
                    break
                v ^= row
        return rows

    def span(self, vectors, n: int, head: int = 0, rows=None) -> tuple[list[int], list[int]]:
        """The reduced echelon rows and pivots of the span of the vectors and
        of the forward ``rows`` given, those with pivots at or past entry
        ``head`` alone.

        After the forward pass, from the last pivot to the first, each row is
        cleared at the later pivots by their rows, which are reduced by then.
        """
        rows, cut = self._forward(vectors, None, rows), 1 << 8 * head
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
        return [rows[b] for b in bits], [b.bit_length() // 8 for b in bits]

    @staticmethod
    def _clear_head(v: int, rows, head: int) -> int | None:
        """As on odd p, with the rows keyed by pivot bit: each update is one XOR."""
        while v & head:
            row = rows.get(v & -v)
            if row is None:
                return None
            v ^= row
        return v


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

    def tail(self, v, n: int):
        nums, den = self._read(v)
        return self._write(nums[n:], den)

    def support(self, v) -> dict:
        """The nonzero entries of v by index, lowest index first."""
        return {j: self.entry(v, j) for j, x in enumerate(self._read(v)[0]) if x}

    def tally(self, rows, n: int):
        """The sum of the unit vectors of length n at a list of rows."""
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

    def coordinates(self, basis, vectors, n: int) -> list | None:
        """The coordinates of each vector over the basis, as on bytes: the
        columns of X in the rows [I | X] of the span of [T | V] transposed,
        T's columns the basis vectors and V's the vectors."""
        k, width = len(basis), len(basis) + len(vectors)
        rows, pivots = self.span(self.transpose([*basis, *vectors], n), width)
        if pivots != list(range(k)):
            return None
        return list(self.transpose(rows, width)[k:])

    def preimage(self, m: "Matrix", u: "SubspaceBasis",
                 a: "Matrix | None" = None) -> tuple[list, list[int]]:
        """Echelon rows and pivots of {v : m @ v in u}: the heads of ker [m | B].

        Given a, u is replaced by its image under a first: over integer rows
        an unreduced image widens [m | B] and grows its entries.  B is the
        basis matrix of u, and each row of [m | B] is brought to
        integers and reversed.  In the reduced echelon rows of those, the
        first u.dim columns, B's, are all pivots, as B's columns are
        independent.  Each free column fc past them gives the kernel vector
        that is 1 at fc and -row[fc] / row[pc] at each pivot column pc of a
        row (over F_p row[pc] is 1); its head, the part past B read back in
        order, is the preimage's echelon row with its pivot at the column fc
        came from.
        """
        if a is not None:
            u = image(a, u)
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
    is unique, so equality and hashing of vectors stay exact.  Every call but
    ``unpack`` and ``entry`` runs on ints; scalars may be ``Fraction``s or
    ints, read through their numerator and denominator.
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
        if not c:
            return a
        (x, d), (y, e) = a, b
        num, cd = c.numerator, c.denominator
        g = gcd(num, e)
        f = e // g * cd
        h = gcd(d, f)
        s, t = f // h, num // g * (d // h)
        return _normal([s * u + t * w for u, w in zip(x, y)], d // h * f, h * cd)

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


QQ = Field(0)
GF2 = Field(2)


class Matrix:
    """Immutable dense matrix over a :class:`Field`.

    The rows are kept once, in the field's family layout; ``rows``, ``col``,
    ``cols()`` and ``m[i, j]`` read them as tuples of canonical entries.
    Acts on column vectors (plain tuples): ``m.apply(v)`` computes ``m @ v``.
    """

    # _fcols caches the columns in the family layout, made by one transpose
    # of the rows on first use, _fwd the forward pass of the tagged columns a
    # byte-layout preimage starts from, and _hash the hash of the rows; safe
    # because no method changes the rows
    __slots__ = ("field", "nrows", "ncols", "_rows", "_fcols", "_fwd", "_hash")

    def __init__(self, field: Field, rows, ncols: int | None = None, _raw: bool = False):
        """A matrix from rows of entries; ``_raw`` trusts them to be canonical sequences."""
        rows = tuple(rows if _raw else map(tuple, rows))
        if rows:
            if len(set(map(len, rows))) > 1:
                raise ValueError("ragged rows")
            if ncols is not None and ncols != len(rows[0]):
                raise ValueError("ncols does not match row length")
            ncols = len(rows[0])
        elif ncols is None:
            raise ValueError("empty matrix needs an explicit column count")
        fam = field._family
        self.field, self.nrows, self.ncols = field, len(rows), ncols
        self._rows = tuple(map(fam.pack if _raw else fam.coerce, rows))
        self._fcols = self._fwd = self._hash = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        return cls._from_family(field, (field._family.pack((field.zero,) * ncols),) * nrows,
                                ncols)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls.units(field, n, range(n))

    @classmethod
    def units(cls, field: Field, ncols: int, ones) -> "Matrix":
        """The matrix whose row i is the unit vector at column ones[i], or zero
        where ones[i] is None, written straight in the family layout."""
        fam = field._family
        zero = fam.pack((field.zero,) * ncols)
        return cls._from_family(field, [zero if j is None else fam.unit(j, ncols)
                                        for j in ones], ncols)

    @classmethod
    def from_flat(cls, field: Field, values, ncols: int) -> "Matrix":
        """The matrix whose rows are the runs of ncols canonical entries in values."""
        pack = field._family.pack
        return cls._from_family(field, [pack(values[i:i + ncols])
                                        for i in range(0, len(values), ncols or 1)], ncols)

    @classmethod
    def from_cols(cls, field: Field, cols, nrows: int | None = None,
                  _raw: bool = False) -> "Matrix":
        """The matrix with the given columns, which it keeps as its column cache.

        ``_raw`` trusts them to hold canonical entries already, in the field's
        family layout, and then needs nrows.
        """
        if _raw:
            return cls._from_family(field, cols, nrows).transpose()
        return cls(field, cols, ncols=nrows).transpose()

    @classmethod
    def _from_family(cls, field: Field, rows, ncols: int) -> "Matrix":
        """The matrix with these rows in the field's family layout, which it keeps."""
        out = cls.__new__(cls)
        out.field, out.ncols, out._rows = field, ncols, tuple(rows)
        out._fcols = out._fwd = out._hash = None
        out.nrows = len(out._rows)
        return out

    # -- basic structure -----------------------------------------------------

    def _columns(self) -> tuple:
        """The columns in the family layout, cached on first use."""
        if self._fcols is None:
            self._fcols = self.field._family.transpose(self._rows, self.ncols)
        return self._fcols

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    @property
    def rows(self) -> tuple[tuple, ...]:
        unpack, n = self.field._family.unpack, self.ncols
        return tuple(unpack(r, n) for r in self._rows)

    def __getitem__(self, ij):
        i, j = ij
        return self.field._family.entry(self._rows[i], j)

    def col(self, j) -> tuple:
        return self.field._family.unpack(self._columns()[j], self.nrows)

    def cols(self) -> list[tuple]:
        unpack, n = self.field._family.unpack, self.nrows
        return [unpack(c, n) for c in self._columns()]

    def written_cols(self) -> list[tuple]:
        """The columns with each entry as a document writes it: an int, or
        the string "a/b" in lowest terms; over Q no ``Fraction`` is built."""
        written, n = self.field._family.written, self.nrows
        return [written(c, n) for c in self._columns()]

    def select_rows(self, indices) -> "Matrix":
        """The matrix of the rows at the given indices, in that order."""
        return Matrix._from_family(self.field, [self._rows[i] for i in indices], self.ncols)

    def transpose(self) -> "Matrix":
        out = Matrix._from_family(self.field, self._columns(), self.nrows)
        out._fcols = self._rows
        return out

    def is_zero(self) -> bool:
        return not any(map(self.field._family.nonzero, self._rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.shape == other.shape
                and self._rows == other._rows)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._rows)
        return self._hash

    def __repr__(self) -> str:
        return f"Matrix({self.field.characteristic}, {self.nrows}x{self.ncols})"

    # -- arithmetic ------------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        return Matrix._from_family(self.field, self.field._family.product(self, other),
                                   other.ncols)

    def apply(self, vec) -> tuple:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        fam = self.field._family
        return fam.unpack(fam.apply(self, fam.pack(vec)), self.nrows)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, self.field.one)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._plus(other, self.field.neg(self.field.one))

    def _plus(self, other: "Matrix", c) -> "Matrix":
        """self + c * other."""
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        fam = self.field._family
        rows = [fam.add_scaled(a, b, c) for a, b in zip(self._rows, other._rows)]
        return Matrix._from_family(self.field, rows, self.ncols)

    def scaled(self, c) -> "Matrix":
        fam, c = self.field._family, self.field.coerce(c)
        return Matrix._from_family(self.field, [fam.scale(row, c) for row in self._rows],
                                   self.ncols)

    def power(self, k: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        # repeated squaring: about 2 log2 k products
        out, sq = Matrix.identity(self.field, self.nrows), self
        while k > 0:
            if k & 1:
                out = out @ sq
            k >>= 1
            if k:
                sq = sq @ sq
        return out

    # -- elimination ----------------------------------------------------------

    def rref_pivots(self) -> tuple["Matrix", tuple[int, ...]]:
        fam = self.field._family
        rows, piv = fam.span(self._rows, self.ncols)
        rows += [fam.pack((self.field.zero,) * self.ncols)] * (self.nrows - len(piv))
        return Matrix._from_family(self.field, rows, self.ncols), tuple(piv)

    def rref(self) -> "Matrix":
        """Reduced row-echelon form (canonical for the row space)."""
        return self.rref_pivots()[0]

    def rank(self) -> int:
        return self.field._family.rank(self._rows, self.ncols)

    def kernel_matrix(self) -> "Matrix":
        """Columns span the null space {v : self @ v = 0}: column j of the
        free-column basis is 1 at the j-th free column and 0 at the others.

        Read from its last entry back that basis is the reduced echelon one,
        so it is ``kernel`` of self with its columns reversed, each vector and
        their order reversed back.
        """
        flip = range(self.ncols - 1, -1, -1)
        basis = kernel(self.transpose().select_rows(flip).transpose()).basis_matrix().transpose()
        return basis.select_rows(range(basis.nrows - 1, -1, -1)).transpose().select_rows(flip)

    def solve(self, rhs: "Matrix") -> "Matrix | None":
        """A particular solution X of self @ X = rhs, or None if inconsistent.

        One span of the rows of [self | rhs], joined in the family layout; it
        is inconsistent exactly when a pivot falls in rhs's columns.
        """
        if rhs.nrows != self.nrows:
            raise ValueError("rhs row count mismatch")
        fam = self.field._family
        n = self.ncols
        aug = [fam.join(a, b, n) for a, b in zip(self._rows, rhs._rows)]
        rows, piv = fam.span(aug, n + rhs.ncols)
        if piv and piv[-1] >= n:
            return None
        x = [fam.pack((self.field.zero,) * rhs.ncols)] * n
        for row, pc in zip(rows, piv):
            x[pc] = fam.tail(row, n)
        return Matrix._from_family(self.field, x, rhs.ncols)

    def solve_vector(self, vec) -> tuple | None:
        sol = self.solve(Matrix.from_cols(self.field, [vec]))
        return sol.col(0) if sol is not None else None

    def inverse(self) -> "Matrix | None":
        """The inverse, or None for a singular matrix: row i holds the
        coordinates of e_i over the rows of self, so on bytes one forward pass
        of [self | -I] stops at the first row of self that reduces to zero."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        fam, n = self.field._family, self.nrows
        rows = fam.coordinates(self._rows, [fam.unit(i, n) for i in range(n)], n)
        return None if rows is None else Matrix._from_family(self.field, rows, n)


def vstack(mats: list[Matrix]) -> Matrix:
    """The matrices stacked from top to bottom."""
    if not mats:
        raise ValueError("stack of nothing")
    field, ncols = mats[0].field, mats[0].ncols
    if any(m.ncols != ncols or m.field != field for m in mats):
        raise ValueError("cannot stack matrices of different fields or mismatched sizes")
    return Matrix._from_family(field, [r for m in mats for r in m._rows], ncols)


def place_blocks(field: Field, nrows: int, ncols: int, blocks) -> Matrix:
    """The nrows x ncols matrix holding each (i, j, block) with its top left entry at (i, j).

    Entries no block covers are zero, and no two blocks may share a row.
    Each block row is placed in the family layout between zero vectors joined
    on either side, the tails of one zero row: over F2 that is a shift and an
    OR.
    """
    fam = field._family
    zero = fam.pack((field.zero,) * ncols)
    rows = [zero] * nrows
    for i, j, block in blocks:
        right = j + block.ncols
        before, after = fam.tail(zero, ncols - j), fam.tail(zero, right)
        rows[i:i + block.nrows] = [fam.join(fam.join(before, r, j), after, right)
                                   for r in block._rows]
    return Matrix._from_family(field, rows, ncols)


class SubspaceBasis:
    """A subspace of F^n with a canonical echelon basis.

    The basis is held as the reduced row-echelon form of the spanning vectors
    written as rows, so ``vectors()`` returns the canonical basis and two
    subspaces are equal iff their stored data is equal.  The rows are kept in
    the field's family layout only, and unpacked to tuples when asked for.
    The column-matrix view required by matrix operations is
    ``basis_matrix()``.
    """

    __slots__ = ("field", "ambient_dim", "pivot_rows", "_rows")

    def __init__(self, field: Field, ambient_dim: int, echelon_rows, pivot_rows):
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivot_rows = tuple(pivot_rows)
        self._rows = tuple(map(field._family.pack, echelon_rows))

    @classmethod
    def _from_family(cls, field: Field, ambient_dim: int, rows, pivots) -> "SubspaceBasis":
        """The subspace with these echelon rows, already in the family layout."""
        sub = cls.__new__(cls)
        sub.field, sub.ambient_dim = field, ambient_dim
        sub.pivot_rows, sub._rows = tuple(pivots), tuple(rows)
        return sub

    @classmethod
    def from_spanning(cls, field: Field, ambient_dim: int, vectors,
                      _raw: bool = False) -> "SubspaceBasis":
        """Canonicalize a list of spanning vectors.

        ``_raw`` trusts the vectors to hold canonical entries already, in the
        field's family layout.
        """
        fam = field._family
        if not _raw:
            vectors = list(vectors)
            if any(len(v) != ambient_dim for v in vectors):
                raise ValueError("ambient dimension mismatch")
            vectors = [fam.coerce(v) for v in vectors]
        return cls._from_family(field, ambient_dim, *fam.span(vectors, ambient_dim))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "SubspaceBasis":
        return cls._from_family(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "SubspaceBasis":
        return cls.coordinate(field, ambient_dim, range(ambient_dim))

    @classmethod
    def coordinate(cls, field: Field, ambient_dim: int, indices) -> "SubspaceBasis":
        """The span of the coordinate vectors at increasing distinct indices.

        Such vectors are their own echelon basis, so nothing is eliminated.
        """
        indices = tuple(indices)
        unit = field._family.unit
        return cls._from_family(field, ambient_dim, [unit(i, ambient_dim) for i in indices],
                                indices)

    @property
    def dim(self) -> int:
        return len(self.pivot_rows)

    def vectors(self) -> list[tuple]:
        unpack, n = self.field._family.unpack, self.ambient_dim
        return [unpack(r, n) for r in self._rows]

    def basis_matrix(self) -> Matrix:
        return Matrix.from_cols(self.field, self._rows, nrows=self.ambient_dim, _raw=True)

    def reduce_vector(self, vec) -> tuple:
        """Residue of vec after subtracting its projection onto the basis.

        The rows are reduced, so one pass subtracts each, times v's entry at its pivot.
        """
        if len(vec) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        f = self.field
        fam = f._family
        v = fam.coerce(vec)
        for row, pr in zip(self._rows, self.pivot_rows):
            c = fam.entry(v, pr)
            if c:
                v = fam.add_scaled(v, row, f.neg(c))
        return fam.unpack(v, self.ambient_dim)

    def contains_vector(self, vec) -> bool:
        """Whether vec lies in the span."""
        return not any(self.reduce_vector(vec))

    def contains_subspace(self, other: "SubspaceBasis") -> bool:
        """Whether other lies in the span: whether adding it leaves the dimension."""
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return self.field._family.rank(self._rows + other._rows, self.ambient_dim) == self.dim

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubspaceBasis):
            return NotImplemented
        return (self.field == other.field and self.ambient_dim == other.ambient_dim
                and self._rows == other._rows)

    def __hash__(self) -> int:
        return hash(self.pivot_rows)

    def __repr__(self) -> str:
        return f"SubspaceBasis(dim {self.dim} of F^{self.ambient_dim})"


# -- subspace operations -------------------------------------------------------

def kernel(m: Matrix) -> SubspaceBasis:
    """The null space of m as a subspace of the domain F^ncols: the preimage of zero."""
    return preimage_space(m, SubspaceBasis.zero(m.field, m.nrows))


def image(m: Matrix, u: SubspaceBasis | None = None) -> SubspaceBasis:
    """The span of m applied to u (the whole domain by default), in F^nrows."""
    if u is not None and u.ambient_dim != m.ncols:
        raise ValueError(f"ambient dimension mismatch: map from F^{m.ncols}, "
                         f"subspace of F^{u.ambient_dim}")
    fam = m.field._family
    vecs = m._columns() if u is None else [fam.apply(m, r) for r in u._rows]
    return SubspaceBasis.from_spanning(m.field, m.nrows, vecs, _raw=True)


def preimage_space(m: Matrix, u: SubspaceBasis) -> SubspaceBasis:
    """The subspace {v : m @ v lies in u} of the domain of m."""
    if u.ambient_dim != m.nrows:
        raise ValueError(f"ambient dimension mismatch: map into F^{m.nrows}, "
                         f"subspace of F^{u.ambient_dim}")
    return SubspaceBasis._from_family(m.field, m.ncols, *m.field._family.preimage(m, u))


def pullback(m: Matrix, a: Matrix, u: SubspaceBasis) -> SubspaceBasis:
    """The subspace {v : m @ v lies in a(u)}: one elimination on the byte layouts,
    which span the images of u's rows as they come with the columns of m."""
    if (u.ambient_dim, a.nrows) != (a.ncols, m.nrows):
        raise ValueError("ambient dimension mismatch")
    return SubspaceBasis._from_family(m.field, m.ncols, *m.field._family.preimage(m, u, a))


def intersect(u: SubspaceBasis, v: SubspaceBasis) -> SubspaceBasis:
    """u ∩ v: the image under u's basis matrix of its preimage of v."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    bu = u.basis_matrix()
    return image(bu, preimage_space(bu, v))


def sum_space(u: SubspaceBasis, v: SubspaceBasis) -> SubspaceBasis:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return SubspaceBasis.from_spanning(u.field, u.ambient_dim, u._rows + v._rows, _raw=True)


def quotient_dim(u: SubspaceBasis, v: SubspaceBasis) -> int:
    """dim(u / v) for a contained pair v <= u (checked)."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if not u.contains_subspace(v):
        raise ValueError("quotient_dim: second subspace is not contained in the first")
    return u.dim - v.dim


def standard_complement(u: SubspaceBasis) -> list[tuple]:
    """Coordinate vectors at the non-pivot positions: a complement basis of u."""
    fam, n = u.field._family, u.ambient_dim
    pivots = set(u.pivot_rows)
    return [fam.unpack(fam.unit(i, n), n) for i in range(n) if i not in pivots]
