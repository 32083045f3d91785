"""Exact dense linear algebra over prime fields and the rationals.

Matrices carry their field and keep every entry in canonical reduced form:
the least non-negative residue mod p, or a ``Fraction`` in lowest terms when
the characteristic is 0.  Subspaces are stored as bases in reduced
column-echelon form, which is unique per subspace, so subspace equality is
plain equality of basis matrices.  A kernel comes out canonical from one
elimination, a preimage is the head of a kernel, and an intersection spans
the image of a preimage.  No floating point is used anywhere.

Over F2, ``Matrix @`` and ``Matrix.apply`` work on packed rows: each row is
one Python int with column j in the byte at bit 8j (see ``_pack``), cached on
the immutable matrix.  A product row is the XOR of the right factor's packed
rows that the left row selects, and an entry of ``m.apply(v)`` is the parity
of the set bits in ``row & v``, after Albrecht, Bard and Hart, "Algorithm
898: Efficient multiplication of dense matrices over GF(2)" (ACM TOMS 2010).
Over F2 a matrix also caches its packed columns, and a ``SubspaceBasis``
its packed echelon rows, so subspaces stay packed.  Every F2 span, image
and preimage is one ``SubspaceBasis.from_spanning`` of packed vectors:
``image(m, u)`` spans the XORs of the columns of m that each basis vector of
u selects, and ``preimage_space(m, u)`` spans u's rows together with each
column of m tagged by its index, and reads the preimage off the vectors
whose column part cancels; ``kernel(m)`` is the preimage of zero.  Each
result is built once in canonical form and keeps its packed rows, which are
unpacked only when asked for, and membership tests reduce packed vectors.
``Matrix`` eliminations run one Gauss-Jordan loop on packed rows
(:func:`_eliminate_f2`): the pivot search tests one bit per row, and each
row update is a single XOR of packed ints.  ``rank`` runs it on the cached
packed rows and unpacks nothing, and ``inverse`` runs it on those rows each
tagged with its identity entry and unpacks only the inverse.  Only ``solve``
and ``rref_pivots`` still pack and unpack every row once per elimination.
That pays on dense blocks, such as those of scrambled modules; on very
sparse blocks, where few rows are ever updated, packing and unpacking every
row costs more than list rows would.  Over F_p for odd p and over Q,
elimination works on lists of entries.

Entries are coerced to canonical form once, where data enters: ``Matrix(...)``
and the public defaults of ``Matrix.from_cols`` and
``SubspaceBasis.from_spanning`` coerce.  Internal callers whose vectors come
from ``apply``, ``vectors()``, ``cols()`` or an elimination are already
canonical and pass ``_raw=True``.  The packed F2 elimination relies on this:
it needs every entry to be 0 or 1.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import compress
from operator import xor


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


@dataclass(frozen=True)
class Field:
    """F_p for a prime p, or the rational numbers when characteristic is 0.

    Elements are plain ints in ``[0, p)`` for prime characteristic and
    ``Fraction`` values in characteristic 0.
    """

    characteristic: int

    def __post_init__(self) -> None:
        p = self.characteristic
        if p >= PRIME_TEST_BOUND:
            raise ValueError(f"characteristic {p} is at or above {PRIME_TEST_BOUND}, "
                             f"the bound below which primality is tested")
        if p != 0 and not _is_prime(p):
            raise ValueError(f"characteristic must be 0 or a prime, got {p}")

    @property
    def zero(self):
        return 0 if self.characteristic else Fraction(0)

    @property
    def one(self):
        return 1 if self.characteristic else Fraction(1)

    def coerce(self, value):
        """Reduce an integer (or exact rational) to canonical form."""
        p = self.characteristic
        if p == 0:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator % p == 0:
                raise ZeroDivisionError(f"denominator not invertible mod {p}")
            return value.numerator * pow(value.denominator, -1, p) % p
        return int(value) % p

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

    def format_scalar(self, a) -> str:
        if self.characteristic:
            return str(a)
        f = Fraction(a)
        return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"

    def parse_scalar(self, token: str):
        token = token.strip()
        if "/" in token:
            if self.characteristic:
                raise ValueError(f"fractional coefficient {token!r} in prime characteristic")
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return self.coerce(int(token))


QQ = Field(0)
GF2 = Field(2)


def _row_reduce(field: Field, rows: list[list], n_pivot_cols: int) -> list[int]:
    """In-place reduced row echelon over the first n_pivot_cols columns.

    Row operations always apply to the full row width, so callers can append
    augmented columns.  Returns the pivot column indices.  Over F2 the rows
    are packed (:func:`_row_reduce_f2`) and must hold canonical entries.
    """
    p = field.characteristic
    if p == 2:
        return _row_reduce_f2(rows, n_pivot_cols)
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(min(n_pivot_cols, n)):
        pr = None
        for i in range(r, m):
            if rows[i][c]:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        a = rows[r][c]
        if a != field.one:
            inv = field.inv(a)
            if p:
                rows[r] = [(x * inv) % p for x in rows[r]]
            else:
                rows[r] = [x * inv for x in rows[r]]
        top = rows[r]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                if p:
                    rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
                else:
                    rows[i] = [x - f * y for x, y in zip(rows[i], top)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def _row_reduce_f2(rows: list[list], n_pivot_cols: int) -> list[int]:
    """:func:`_row_reduce` over F2 on packed rows, with the same pivots and swaps.

    The rows must hold the entries 0 and 1 only; they are packed, reduced
    by :func:`_eliminate_f2` and unpacked in place.
    """
    n = len(rows[0]) if rows else 0
    packed = [_pack(row) for row in rows]
    pivots = _eliminate_f2(packed, min(n_pivot_cols, n))
    rows[:] = [list(x.to_bytes(n, "little")) for x in packed]
    return pivots


def _eliminate_f2(packed: list[int], n_pivot_cols: int) -> list[int]:
    """In-place reduced row echelon of packed F2 rows over their first n_pivot_cols entries.

    The pivot search tests one bit per row and each row update is one XOR.
    Returns the pivot column indices.
    """
    m = len(packed)
    pivots: list[int] = []
    r = 0
    for c in range(n_pivot_cols):
        if r == m:
            break
        bit = 1 << (8 * c)
        for pr in range(r, m):
            if packed[pr] & bit:
                break
        else:
            continue
        top = packed[pr]
        packed[pr] = packed[r]
        # clearing column c also zeroes the pivot row itself, so it goes back
        packed[:] = [x ^ top if x & bit else x for x in packed]
        packed[r] = top
        pivots.append(c)
        r += 1
    return pivots


def _pack(row) -> int:
    """An F2 row or vector as one int, entry j in the byte at bit 8j.

    One byte per entry lets ``int.from_bytes`` and ``int.to_bytes`` pack and
    unpack without a Python-level loop; XOR never carries between bytes.
    """
    return int.from_bytes(bytes(row), "little")


def _unpack(packed: int, n: int) -> tuple:
    return tuple(packed.to_bytes(n, "little"))


def _unit_rows(field: Field, n: int, indices) -> tuple:
    """The coordinate vectors of F^n at the given indices."""
    z, o = (field.zero,), (field.one,)
    return tuple(z * i + o + z * (n - 1 - i) for i in indices)


class Matrix:
    """Immutable dense matrix over a :class:`Field`.

    Acts on column vectors (plain tuples): ``m.apply(v)`` computes ``m @ v``.
    """

    # _packed and _packed_c cache _pack of each row and each column for F2
    # work; they are safe to keep because no method changes rows after
    # construction
    __slots__ = ("field", "nrows", "ncols", "rows", "_packed", "_packed_c")

    def __init__(self, field: Field, rows, ncols: int | None = None, _raw: bool = False):
        self.field = field
        self._packed = None
        self._packed_c = None
        if _raw:
            self.rows = rows
        else:
            self.rows = tuple(tuple(field.coerce(x) for x in row) for row in rows)
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols does not match row length")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            self.ncols = ncols

    # -- constructors --------------------------------------------------------

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "Matrix":
        z = field.zero
        return cls(field, tuple((z,) * ncols for _ in range(nrows)), ncols=ncols, _raw=True)

    @classmethod
    def identity(cls, field: Field, n: int) -> "Matrix":
        return cls(field, _unit_rows(field, n, range(n)), ncols=n, _raw=True)

    @classmethod
    def from_cols(cls, field: Field, cols, nrows: int | None = None,
                  _raw: bool = False) -> "Matrix":
        """The matrix with the given columns; ``_raw`` trusts them to be canonical."""
        if not _raw:
            cols = [tuple(field.coerce(x) for x in col) for col in cols]
        if cols:
            nrows = len(cols[0])
            return cls(field, tuple(zip(*cols)), ncols=len(cols), _raw=True)
        if nrows is None:
            raise ValueError("empty column list needs an explicit row count")
        return cls.zeros(field, nrows, 0)

    # -- basic structure -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def row(self, i) -> tuple:
        return self.rows[i]

    def col(self, j) -> tuple:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list[tuple]:
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> "Matrix":
        if self.nrows == 0 or self.ncols == 0:
            return Matrix.zeros(self.field, self.ncols, self.nrows)
        return Matrix(self.field, tuple(zip(*self.rows)), ncols=self.nrows, _raw=True)

    def is_zero(self) -> bool:
        return not any(map(any, self.rows))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.shape == other.shape
                and self.rows == other.rows)

    def __hash__(self) -> int:
        return hash((self.field, self.ncols, self.rows))

    def __repr__(self) -> str:
        return f"Matrix({self.field.characteristic}, {self.nrows}x{self.ncols})"

    def _packed_rows(self) -> tuple[int, ...]:
        """The rows packed by :func:`_pack`, computed on first use (F2 only)."""
        if self._packed is None:
            self._packed = tuple(map(_pack, self.rows))
        return self._packed

    def _packed_cols(self) -> tuple[int, ...]:
        """The columns packed by :func:`_pack`, computed on first use (F2 only)."""
        if self._packed_c is None:
            self._packed_c = (tuple(map(_pack, zip(*self.rows))) if self.nrows
                              else (0,) * self.ncols)
        return self._packed_c

    # -- arithmetic ------------------------------------------------------------

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        p = self.field.characteristic
        if p == 2:
            brows = other._packed_rows()
            n = other.ncols
            packed = tuple(reduce(xor, compress(brows, arow), 0) for arow in self.rows)
            out = Matrix(self.field, tuple(_unpack(r, n) for r in packed), ncols=n, _raw=True)
            out._packed = packed
            return out
        bcols = other.cols()
        if p:
            rows = tuple(
                tuple(sum(a * b for a, b in zip(arow, bcol)) % p for bcol in bcols)
                for arow in self.rows)
        else:
            rows = tuple(
                tuple(sum((a * b for a, b in zip(arow, bcol)), Fraction(0)) for bcol in bcols)
                for arow in self.rows)
        return Matrix(self.field, rows, ncols=other.ncols, _raw=True)

    def apply(self, vec) -> tuple:
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        p = self.field.characteristic
        if p == 2:
            v = _pack(vec)
            return tuple((row & v).bit_count() & 1 for row in self._packed_rows())
        if p:
            return tuple(sum(a * b for a, b in zip(row, vec)) % p for row in self.rows)
        return tuple(sum((a * b for a, b in zip(row, vec)), Fraction(0)) for row in self.rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        f = self.field
        rows = tuple(tuple(f.add(a, b) for a, b in zip(r1, r2))
                     for r1, r2 in zip(self.rows, other.rows))
        return Matrix(f, rows, ncols=self.ncols, _raw=True)

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        f = self.field
        rows = tuple(tuple(f.sub(a, b) for a, b in zip(r1, r2))
                     for r1, r2 in zip(self.rows, other.rows))
        return Matrix(f, rows, ncols=self.ncols, _raw=True)

    def scaled(self, c) -> "Matrix":
        f = self.field
        c = f.coerce(c)
        rows = tuple(tuple(f.mul(c, x) for x in row) for row in self.rows)
        return Matrix(f, rows, ncols=self.ncols, _raw=True)

    def power(self, k: int) -> "Matrix":
        if self.nrows != self.ncols:
            raise ValueError("power of a non-square matrix")
        out = Matrix.identity(self.field, self.nrows)
        for _ in range(k):
            out = out @ self
        return out

    # -- elimination ----------------------------------------------------------

    def rref_pivots(self) -> tuple["Matrix", tuple[int, ...]]:
        rows = [list(r) for r in self.rows]
        piv = _row_reduce(self.field, rows, self.ncols)
        return Matrix(self.field, tuple(tuple(r) for r in rows),
                      ncols=self.ncols, _raw=True), tuple(piv)

    def rref(self) -> "Matrix":
        """Reduced row-echelon form (canonical for the row space)."""
        return self.rref_pivots()[0]

    def rank(self) -> int:
        if self.field.characteristic == 2:
            return len(_eliminate_f2(list(self._packed_rows()), self.ncols))
        return len(self.rref_pivots()[1])

    def kernel_matrix(self) -> "Matrix":
        """Columns span the null space {v : self @ v = 0}."""
        red, piv = self.rref_pivots()
        free = [c for c in range(self.ncols) if c not in piv]
        f = self.field
        cols = []
        for fc in free:
            v = [f.zero] * self.ncols
            v[fc] = f.one
            for i, pc in enumerate(piv):
                v[pc] = f.neg(red[i, fc])
            cols.append(tuple(v))
        return Matrix.from_cols(f, cols, nrows=self.ncols, _raw=True)

    def solve(self, rhs: "Matrix") -> "Matrix | None":
        """A particular solution X of self @ X = rhs, or None if inconsistent."""
        if rhs.nrows != self.nrows:
            raise ValueError("rhs row count mismatch")
        n = self.ncols
        aug = [list(r1) + list(r2) for r1, r2 in zip(self.rows, rhs.rows)]
        piv = _row_reduce(self.field, aug, n)
        for row in aug[len(piv):]:
            if any(row[n:]):
                return None
        f = self.field
        xrows = [[f.zero] * rhs.ncols for _ in range(n)]
        for i, pc in enumerate(piv):
            xrows[pc] = aug[i][n:]
        return Matrix(f, tuple(tuple(r) for r in xrows), ncols=rhs.ncols, _raw=True)

    def solve_vector(self, vec) -> tuple | None:
        sol = self.solve(Matrix.from_cols(self.field, [vec]))
        return sol.col(0) if sol is not None else None

    def inverse(self) -> "Matrix | None":
        if self.nrows != self.ncols:
            raise ValueError("inverse of a non-square matrix")
        n = self.nrows
        # [A | I] reduces to [I | A^-1] exactly when A has full rank
        if self.field.characteristic == 2:
            shift = 8 * n
            aug = [row | 1 << shift + 8 * i for i, row in enumerate(self._packed_rows())]
            if len(_eliminate_f2(aug, n)) != n:
                return None
            packed = tuple(r >> shift for r in aug)
            out = Matrix(self.field, tuple(_unpack(r, n) for r in packed), ncols=n, _raw=True)
            out._packed = packed
            return out
        aug = [list(r1) + list(r2)
               for r1, r2 in zip(self.rows, Matrix.identity(self.field, n).rows)]
        if len(_row_reduce(self.field, aug, n)) != n:
            return None
        return Matrix(self.field, tuple(tuple(r[n:]) for r in aug), ncols=n, _raw=True)


def hstack(mats: list[Matrix]) -> Matrix:
    if not mats:
        raise ValueError("hstack of nothing")
    field = mats[0].field
    nrows = mats[0].nrows
    if any(m.nrows != nrows or m.field != field for m in mats):
        raise ValueError("hstack row count / field mismatch")
    rows = tuple(tuple(x for m in mats for x in m.rows[i]) for i in range(nrows))
    return Matrix(field, rows, ncols=sum(m.ncols for m in mats), _raw=True)


class SubspaceBasis:
    """A subspace of F^n with a canonical echelon basis.

    The basis is held as the reduced row-echelon form of the spanning vectors
    written as rows, so ``vectors()`` returns the canonical basis and two
    subspaces are equal iff their stored data is equal.  The column-matrix
    view required by matrix operations is ``basis_matrix()``.
    """

    # over F2, _packed holds _pack of each echelon row; either of _rows and
    # _packed is derived from the other on first use
    __slots__ = ("field", "ambient_dim", "pivot_rows", "_rows", "_packed")

    def __init__(self, field: Field, ambient_dim: int, echelon_rows: tuple, pivot_rows: tuple):
        self.field = field
        self.ambient_dim = ambient_dim
        self.pivot_rows = pivot_rows
        self._rows = echelon_rows
        self._packed = None

    @classmethod
    def from_spanning(cls, field: Field, ambient_dim: int, vectors,
                      _raw: bool = False, _packed: bool = False) -> "SubspaceBasis":
        """Canonicalize a list of spanning vectors.

        ``_raw`` trusts the vectors to hold canonical entries already, and
        ``_packed`` takes F2 vectors packed by :func:`_pack`.
        """
        if _packed:
            return _span_f2(field, ambient_dim, vectors)
        vecs = vectors if _raw else [tuple(field.coerce(x) for x in v) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("ambient dimension mismatch")
        if field.characteristic == 2:
            return _span_f2(field, ambient_dim, map(_pack, vecs))
        rows = [list(v) for v in vecs]
        piv = _row_reduce(field, rows, ambient_dim)
        kept = tuple(tuple(r) for r in rows[:len(piv)])
        return cls(field, ambient_dim, kept, tuple(piv))

    @classmethod
    def zero(cls, field: Field, ambient_dim: int) -> "SubspaceBasis":
        return cls(field, ambient_dim, (), ())

    @classmethod
    def full(cls, field: Field, ambient_dim: int) -> "SubspaceBasis":
        return cls.coordinate(field, ambient_dim, range(ambient_dim))

    @classmethod
    def coordinate(cls, field: Field, ambient_dim: int, indices) -> "SubspaceBasis":
        """The span of the coordinate vectors at increasing distinct indices.

        Such vectors are their own echelon basis, so nothing is eliminated.
        """
        indices = tuple(indices)
        if field.characteristic == 2:
            return cls._from_packed(field, ambient_dim, [1 << 8 * i for i in indices], indices)
        return cls(field, ambient_dim, _unit_rows(field, ambient_dim, indices), indices)

    @classmethod
    def _from_packed(cls, field: Field, ambient_dim: int, packed, pivots) -> "SubspaceBasis":
        """The subspace with these packed F2 echelon rows, unpacked on first use."""
        sub = cls(field, ambient_dim, None, tuple(pivots))
        sub._packed = tuple(packed)
        return sub

    @property
    def echelon_rows(self) -> tuple:
        if self._rows is None:
            self._rows = tuple(_unpack(r, self.ambient_dim) for r in self._packed)
        return self._rows

    @property
    def dim(self) -> int:
        return len(self.pivot_rows)

    def vectors(self) -> list[tuple]:
        return list(self.echelon_rows)

    def basis_matrix(self) -> Matrix:
        m = Matrix.from_cols(self.field, self.echelon_rows, nrows=self.ambient_dim, _raw=True)
        m._packed_c = self._packed  # its columns are the echelon rows
        return m

    def is_zero(self) -> bool:
        return self.dim == 0

    def is_full(self) -> bool:
        return self.dim == self.ambient_dim

    def _packed_rows(self) -> tuple[int, ...]:
        """The echelon rows packed by :func:`_pack`, computed on first use (F2 only)."""
        if self._packed is None:
            self._packed = tuple(map(_pack, self.echelon_rows))
        return self._packed

    def _reduce_packed(self, v: int) -> int:
        """Residue of a packed F2 vector; one pass, as the rows are reduced."""
        for row, pr in zip(self._packed_rows(), self.pivot_rows):
            if v >> (8 * pr) & 1:
                v ^= row
        return v

    def reduce_vector(self, vec, _raw: bool = False) -> tuple:
        """Residue of vec after subtracting its projection onto the basis.

        ``_raw`` trusts vec to hold canonical entries already.
        """
        if len(vec) != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        f = self.field
        if not _raw:
            vec = tuple(f.coerce(x) for x in vec)
        if f.characteristic == 2:
            return _unpack(self._reduce_packed(_pack(vec)), self.ambient_dim)
        w = vec
        for row, pr in zip(self.echelon_rows, self.pivot_rows):
            c = w[pr]
            if c:
                w = [f.sub(x, f.mul(c, y)) for x, y in zip(w, row)]
        return tuple(w)

    def contains_vector(self, vec, _raw: bool = False) -> bool:
        """Membership of vec; ``_raw`` trusts it to hold canonical entries."""
        return not any(self.reduce_vector(vec, _raw))

    def contains_subspace(self, other: "SubspaceBasis") -> bool:
        if other.ambient_dim != self.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.field.characteristic == 2:
            return not any(map(self._reduce_packed, other._packed_rows()))
        return all(self.contains_vector(v, _raw=True) for v in other.echelon_rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SubspaceBasis):
            return NotImplemented
        if self._packed is not None and other._packed is not None:
            mine, theirs = self._packed, other._packed
        else:
            mine, theirs = self.echelon_rows, other.echelon_rows
        return (self.field == other.field and self.ambient_dim == other.ambient_dim
                and mine == theirs)

    def __hash__(self) -> int:
        # equal subspaces share their pivots, whichever form holds their rows
        return hash((self.field, self.ambient_dim, self.pivot_rows))

    def __repr__(self) -> str:
        return f"SubspaceBasis(dim {self.dim} of F^{self.ambient_dim})"


# -- subspace operations -------------------------------------------------------

def kernel(m: Matrix) -> SubspaceBasis:
    """The null space of m as a subspace of the domain F^ncols.

    Over F2 it is the preimage of zero, one span of m's packed columns.
    Elsewhere, with the columns reversed, each free column's kernel vector is
    nonzero only there and at pivot columns before it.  Read back in order,
    these vectors are the reduced echelon basis, each led by a 1 at its free
    column.
    """
    if m.field.characteristic == 2:
        return preimage_space(m, SubspaceBasis.zero(m.field, m.nrows))
    flipped = Matrix(m.field, tuple(row[::-1] for row in m.rows), ncols=m.ncols, _raw=True)
    rows = tuple(col[::-1] for col in reversed(flipped.kernel_matrix().cols()))
    return SubspaceBasis(m.field, m.ncols, rows, tuple(r.index(m.field.one) for r in rows))


def _span_f2(field: Field, ambient_dim: int, vectors) -> SubspaceBasis:
    """The span of packed F2 vectors, in reduced echelon form.

    Rows are keyed by their pivot bit, the lowest one they have set.  Each
    vector is cleared at its lowest bit by the row with that pivot until it
    is zero or has a pivot of its own.  Then, from the last pivot to the
    first, each row is cleared at the later pivots by their rows, which are
    reduced by then.
    """
    rows: dict[int, int] = {}
    for v in vectors:
        while v:
            low = v & -v
            row = rows.get(low)
            if row is None:
                rows[low] = v
                break
            v ^= row
    bits = sorted(rows, reverse=True)
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
    return SubspaceBasis._from_packed(field, ambient_dim, [rows[b] for b in bits],
                                      [b.bit_length() // 8 for b in bits])


def image(m: Matrix, u: SubspaceBasis | None = None) -> SubspaceBasis:
    """The span of m applied to u (the whole domain by default), in F^nrows.

    Over F2 each basis vector of u selects the packed columns of m to XOR.
    """
    if u is not None and u.ambient_dim != m.ncols:
        raise ValueError(f"ambient dimension mismatch: map from F^{m.ncols}, "
                         f"subspace of F^{u.ambient_dim}")
    if m.field.characteristic == 2:
        cols = m._packed_cols()
        vecs = cols if u is None else [reduce(xor, compress(cols, v), 0)
                                       for v in u.echelon_rows]
        return SubspaceBasis.from_spanning(m.field, m.nrows, vecs, _packed=True)
    vecs = m.cols() if u is None else [m.apply(v) for v in u.echelon_rows]
    return SubspaceBasis.from_spanning(m.field, m.nrows, vecs, _raw=True)


def preimage_space(m: Matrix, u: SubspaceBasis) -> SubspaceBasis:
    """The subspace {v : m @ v lies in u} of the domain of m.

    It is the heads of ker [m | B], B the basis matrix of u.  Only the zero
    kernel vector has a zero head, as B's columns are independent, so the
    kernel's echelon basis has the preimage's as heads, with the same pivots.

    Over F2 it is read off one span of packed vectors: u's rows, and each
    column j of m with the unit vector e_j appended past its nrows entries.
    The vectors of that span that are zero in the first nrows entries are
    (0, v) for v in the preimage, so the echelon rows with pivots past them
    are the preimage's, shifted.
    """
    if u.ambient_dim != m.nrows:
        raise ValueError(f"ambient dimension mismatch: map into F^{m.nrows}, "
                         f"subspace of F^{u.ambient_dim}")
    if m.field.characteristic == 2:
        shift = 8 * m.nrows
        tagged = [col | 1 << shift + 8 * j for j, col in enumerate(m._packed_cols())]
        # last column first: a column whose head cancels then has its own tag as
        # its lowest bit, as it only picks up the tags of later columns
        tagged.reverse()
        span = SubspaceBasis.from_spanning(m.field, m.nrows + m.ncols,
                                           [*u._packed_rows(), *tagged], _packed=True)
        head = bisect_left(span.pivot_rows, m.nrows)
        return SubspaceBasis._from_packed(m.field, m.ncols,
                                          [r >> shift for r in span._packed[head:]],
                                          [pr - m.nrows for pr in span.pivot_rows[head:]])
    ker = kernel(hstack([m, u.basis_matrix()]))
    return SubspaceBasis(m.field, m.ncols, tuple(r[:m.ncols] for r in ker.echelon_rows),
                         ker.pivot_rows)


def intersect(u: SubspaceBasis, v: SubspaceBasis) -> SubspaceBasis:
    """u ∩ v: the image under u's basis matrix of its preimage of v."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    bu = u.basis_matrix()
    return image(bu, preimage_space(bu, v))


def sum_space(u: SubspaceBasis, v: SubspaceBasis) -> SubspaceBasis:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    return SubspaceBasis.from_spanning(u.field, u.ambient_dim,
                                       u.vectors() + v.vectors(), _raw=True)


def quotient_dim(u: SubspaceBasis, v: SubspaceBasis) -> int:
    """dim(u / v) for a contained pair v <= u (checked)."""
    if u.ambient_dim != v.ambient_dim:
        raise ValueError("ambient dimension mismatch")
    if not u.contains_subspace(v):
        raise ValueError("quotient_dim: second subspace is not contained in the first")
    return u.dim - v.dim


def standard_complement(u: SubspaceBasis) -> list[tuple]:
    """Coordinate vectors at the non-pivot positions: a complement basis of u."""
    f = u.field
    comp = []
    for i in range(u.ambient_dim):
        if i not in u.pivot_rows:
            v = [f.zero] * u.ambient_dim
            v[i] = f.one
            comp.append(tuple(v))
    return comp
