"""Exact dense linear algebra over prime fields and the rationals.

Matrices carry their field and read every entry in canonical reduced form:
the least non-negative residue mod p, or a ``Fraction`` in lowest terms when
the characteristic is 0.  Subspaces are stored as bases in reduced
column-echelon form, which is unique per subspace, so subspace equality is
plain equality of basis matrices.  A kernel comes out canonical from one
elimination, a preimage is the head of a kernel, and an intersection spans
the image of a preimage.  No floating point is used anywhere.

Vectors take one of four layouts, chosen once per ``Field`` from its
characteristic (``Field._family``), which imports only the module holding
it, so a process compiles only the layouts its fields pick: packed bits over
F2 in :mod:`extmod.linalg._bits`, packed bytes for odd p <= 13 in
:mod:`extmod.linalg._bytes`, tuples for p >= 17 and over Q in
:mod:`extmod.linalg._tuples`.  The families answer the same calls on
vectors of canonical entries, given their length n where the layout does not
carry it, and ``Matrix`` eliminations and products, ``SubspaceBasis``,
``image``, ``kernel``, ``preimage_space`` and the chain sweep of
:mod:`extmod.decompose` are written once over them, looking the family up
once per call.  A ``Matrix`` keeps its rows, and a ``SubspaceBasis`` its
echelon rows, in the family layout only; ``rows``, ``cols()`` and entry
reads unpack them, and ``family_rows()`` of either hands those rows over
as stored, to a caller that keeps working in the layout.  The
columns of a ``Matrix`` are one ``transpose`` of its rows, made on first
use and cached for what reads columns: an image, a product on tuples,
m @ v on bits and bytes, and packed preimages.  ``from_cols`` keeps the
columns it is given as that cache.

Each family has one elimination, ``span``: the reduced echelon rows and
pivots of the span of some vectors.  Where only a dimension is read, the
family's ``rank`` is the forward pass alone, on every layout;
``Matrix.rank`` and containment use it.  Every other ``Matrix`` elimination
is one span of its rows: ``rref_pivots`` pads the rows with zero rows, and
``solve`` spans the rows of [A | B] at full width, which is inconsistent
exactly when a pivot falls in B.  ``inverse`` is the family's: on bytes and
tuples, and on sparse or large blocks over F2, row i of the inverse is the
``coordinates`` of e_i over A's rows, written once here as ``_inverse``; a
dense F2 block runs bit-sliced Gauss–Jordan on [A | I]
(:mod:`extmod.linalg._bits`).  The coordinates are one span of the
transposed [T | V] on bytes and tuples, written once here as
``_coordinates``, and over F2 a forward pass of the tagged rows [t_r | e_r].
In every family a kernel is the preimage of zero.  The forward pass and
``rank`` are written once here for every layout, over the families'
``insert``, which clears a vector by the pivot rows found so far and never
above a pivot.  The bit and byte layouts differ in ``preimage`` only in lane
width, so it is written once here too, over ``span``: a packed preimage
spans u's rows with each column of m tagged by its index.  The chain sweep's
``pivot_steps`` and ``pack_rows`` are written for bits and once here for
the others.

A residue, ``SubspaceBasis.reduce_vector``, is one pass over the echelon
rows in every layout, through the family's ``entry`` and ``add_scaled``: the
rows are reduced, so each row is subtracted once, times the vector's entry at
its pivot.  Containment is a rank: u contains w exactly when their rows
together have u's dimension.

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

from dataclasses import dataclass
from fractions import Fraction
from operator import index


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
    vector layout: packed bits with XOR rows over F2, packed bytes for odd
    p <= 13, tuples of entries for p >= 17, and integer rows over one
    denominator for Q.
    """

    characteristic: int

    def __post_init__(self) -> None:
        p = self.characteristic
        if p >= PRIME_TEST_BOUND:
            raise ValueError(f"characteristic {p} is at or above {PRIME_TEST_BOUND}, "
                             f"the bound below which primality is tested")
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or a prime, got {p}")
        # the one place that picks a vector layout, importing only its module:
        # bits over F2, and bytes while a lane of a + c * b, at most
        # (p - 1) + (p - 1)**2, fits in one
        if p == 2:
            from ._bits import _Bits as family
        elif 0 < p * (p - 1) < 256:
            from ._bytes import _PackedFp as family
        else:
            from ._tuples import _Entries, _Rationals
            family = _Entries if p else _Rationals
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


class Matrix:
    """Immutable dense matrix over a :class:`Field`.

    The rows are kept once, in the field's family layout; ``rows``, ``col``,
    ``cols()`` and ``m[i, j]`` read them as tuples of canonical entries.
    Acts on column vectors (plain tuples): ``m.apply(v)`` computes ``m @ v``.
    """

    # _fcols caches the columns in the family layout, made by one transpose
    # of the rows on first use, and _hash the hash of the rows; safe because
    # no method changes the rows
    __slots__ = ("field", "nrows", "ncols", "_rows", "_fcols", "_hash")

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
        self._fcols = self._hash = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        """The zero matrix, which keeps its columns from the start, so no
        transpose runs on it: like its rows, they share one zero vector."""
        out = cls.units(field, ncols, [None] * nrows)
        out._fcols = cls.units(field, nrows, [None] * ncols)._rows
        return out

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
        if len(values) % ncols if ncols else values:
            raise ValueError(f"{len(values)} values do not fill rows of {ncols} columns")
        return cls._from_family(field, field._family.pack_rows(values, ncols), ncols)

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
        out._fcols = out._hash = None
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

    def written_cols(self) -> list:
        """The columns with each entry as a document writes it: an int, or
        the string "a/b" in lowest terms; over Q no ``Fraction`` is built,
        and over F2 a column is the ``bytes`` of its 0s and 1s.  A zero
        column, found on its packed form, is None."""
        fam, n = self.field._family, self.nrows
        written, nonzero = fam.written, fam.nonzero
        return [written(c, n) if nonzero(c) else None for c in self._columns()]

    def family_rows(self) -> tuple:
        """The rows as stored, in the field's family layout."""
        return self._rows

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
        """The inverse, or None for a singular matrix: the family's
        ``inverse`` of the rows.  Over F2 a dense block runs Gauss–Jordan on
        [self | I] bit-sliced, a whole column cleared at a time, and stops
        at the first column no free row reaches; elsewhere row i holds the
        coordinates of e_i over the rows of self: one span on bytes and
        tuples, and over F2 a forward pass of [self | I] that stops at the
        first row of self that reduces to zero."""
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        rows = self.field._family.inverse(self._rows, self.nrows)
        return None if rows is None else Matrix._from_family(self.field, rows, self.nrows)


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

    def family_rows(self) -> tuple:
        """The canonical basis as stored: echelon rows in the field's family layout."""
        return self._rows

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


# -- the routines the layouts share -------------------------------------------
# bound as methods by the layouts: every one answers a rank with ``_rank``,
# the bit and byte ones, whose calls carry the lane width, a preimage with
# ``_tagged_preimage``; the byte and tuple layouts answer ``coordinates``,
# ``pack_rows`` and ``pivot_steps`` with the routines of those names, and an
# inverse with ``_inverse``, which the bit layout falls back to where it does
# not slice

def _forward(fam, vectors, stop: int | None = None) -> dict | None:
    """The forward pass of a span: echelon rows keyed by pivot, each vector
    ``insert``ed in turn.

    Given ``stop``, the pass ends at the first vector whose pivot falls at
    or past that entry, and returns None.
    """
    rows, insert = {}, fam.insert
    for v in vectors:
        new = insert(rows, v)
        if new and stop is not None and new[1] >= stop:
            return None
    return rows


def _rank(fam, vectors, n: int) -> int:
    """The dimension of the span of the vectors: the rows of its forward pass."""
    return len(fam._forward(vectors))


def _inverse(fam, rows, n: int) -> list | None:
    """The rows of the inverse of the n x n matrix with these rows, or None
    if it is singular: row i holds the coordinates of e_i over the rows."""
    return fam.coordinates(rows, [fam.unit(i, n) for i in range(n)], n)


def _coordinates(fam, basis, vectors, n: int) -> list | None:
    """The coordinates of each vector of length n over the basis vectors, or
    None if those are dependent or a vector lies outside their span: the
    columns of X in the rows [I | X] of one span of [T | V] transposed, T's
    columns the basis vectors and V's the vectors."""
    k, width = len(basis), len(basis) + len(vectors)
    rows, pivots = fam.span(fam.transpose([*basis, *vectors], n), width)
    if pivots != list(range(k)):
        return None
    return list(fam.transpose(rows, width)[k:])


def _pack_rows(fam, values, n: int) -> list:
    """The runs of n entries in values, each packed."""
    pack = fam.pack
    return [pack(values[i:i + n]) for i in range(0, len(values), n or 1)]


def _tagged_preimage(fam, m: Matrix, u: SubspaceBasis) -> tuple[list, list[int]]:
    """Echelon rows and pivots of {v : m @ v in u}, read off one span.

    The span is of each column j of m with the unit vector e_j appended past
    its nrows entries, and of u's rows.  The vectors of that span that are
    zero in the first nrows entries are (0, v) for v in the preimage, so the
    echelon rows with pivots past them are the preimage's, shifted, and the
    span back-substitutes those alone.
    """
    n, k, join, unit = m.nrows, m.ncols, fam.join, fam.unit
    # last column first: a column whose head cancels then has its own tag as
    # its lowest entry, as it only picks up the tags of later columns
    tagged = [join(col, unit(j, k), n) for j, col in enumerate(m._columns())][::-1]
    rows, pivots = fam.span(tagged + list(u._rows), n + k, n)
    return [fam.tail(r, n) for r in rows], [pr - n for pr in pivots]


# -- the chain sweep's elimination ---------------------------------------------

def _pivot_steps(fam, cols: list) -> list[tuple]:
    """The steps that bring the columns ``cols`` to a partial identity.

    Column ci's pivot is its lowest nonzero entry, at row pr, and its step is
    ``(ci, pr, inv, row_ops, col_ops)``: inv normalises the pivot,
    ``row_ops`` holds (ri, entry times inv) for each other nonzero entry, and
    ``col_ops`` (cj, c) for each later column cj nonzero at row pr, which c
    times the normalised column clears there, in place.  A zero column is
    passed over.
    """
    field = fam.field
    one, entry, add_scaled, steps = field.one, fam.entry, fam.add_scaled, []
    for ci, v in enumerate(cols):
        col = fam.support(v)
        if not col:
            continue
        pr, x = next(iter(col.items()))
        inv = one if x == one else field.inv(x)
        pcol = v if inv == one else fam.scale(v, inv)
        col_ops = []
        for cj in range(ci + 1, len(cols)):
            c = entry(cols[cj], pr)
            if c:
                c = field.neg(c)
                cols[cj] = add_scaled(cols[cj], pcol, c)
                col_ops.append((cj, c))
        row_ops = [(ri, field.mul(y, inv)) for ri, y in col.items() if ri != pr]
        steps.append((ci, pr, inv, row_ops, col_ops))
    return steps
