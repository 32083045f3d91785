"""Graded modules over a two-generator exterior algebra.

The algebra has generators e1, e2 in positive degrees |e1| < |e2| with
e1^2 = e2^2 = 0 and graded commutation e2*e1 = sigma * e1*e2, where
sigma = (-1)^(|e1|*|e2|) taken in the coefficient field.  Variant "A" is the
full algebra; variant "B" is the quotient in which e1*e2 acts as zero.

A module is a finitely supported graded vector space together with two
families of action matrices raising degree by |e1| and |e2|.  Constructors
here build the string modules of the theory ("lightning flashes"), free
modules, direct sums, shifts, truncations, and seeded basis scrambles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache, lru_cache

from .linalg import Field, Matrix, place_blocks

E1 = "e1"
E2 = "e2"


@dataclass(frozen=True)
class AlgebraParams:
    """Field, generator degrees and algebra variant."""

    field: Field
    deg_e1: int
    deg_e2: int
    variant: str = "B"

    def __post_init__(self) -> None:
        if not (0 < self.deg_e1 < self.deg_e2):
            raise ValueError(
                f"generator degrees must satisfy 0 < |e1| < |e2|, "
                f"got {self.deg_e1}, {self.deg_e2}")
        if self.variant not in ("A", "B"):
            raise ValueError(f"variant must be 'A' or 'B', got {self.variant!r}")

    @property
    def gap(self) -> int:
        return self.deg_e2 - self.deg_e1

    @property
    def sigma(self):
        """(-1)^(|e1||e2|) as a field element; equals 1 in characteristic 2."""
        one = self.field.one
        if (self.deg_e1 * self.deg_e2) % 2 == 0:
            return one
        return self.field.neg(one)

    def action_degree(self, which: str) -> int:
        if which == E1:
            return self.deg_e1
        if which == E2:
            return self.deg_e2
        raise ValueError(f"unknown action {which!r}")

    def with_variant(self, variant: str) -> "AlgebraParams":
        return AlgebraParams(self.field, self.deg_e1, self.deg_e2, variant)


def default_params(characteristic: int = 2, deg_e1: int = 1, deg_e2: int = 3,
                   variant: str = "B") -> AlgebraParams:
    return AlgebraParams(Field(characteristic), deg_e1, deg_e2, variant)


@dataclass(frozen=True, order=True)
class FlashShape:
    """Canonical combinatorial description of an indecomposable summand.

    ``finite`` flashes have ``bottoms`` generator-layer vectors x_0..x_{b-1}
    and socle-layer tops y_i; ``left_top``/``right_top`` say whether the walk
    ends with a dangling top on that side.  ``shift`` is the degree of x_0
    (or of the generator, for the ``free`` kind).  The printable name follows
    the L(n, eps, eps') convention with n = bottoms - 1.
    """

    kind: str = "finite"  # "finite" | "right_infinite" | "free"
    bottoms: int = 1
    left_top: bool = False
    right_top: bool = False
    shift: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("finite", "right_infinite", "free"):
            raise ValueError(f"unknown shape kind {self.kind!r}")
        if self.kind == "finite" and self.bottoms < 1:
            raise ValueError("a finite flash needs at least one bottom")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def finite(cls, bottoms: int, left_top: bool, right_top: bool,
               shift: int = 0) -> "FlashShape":
        return cls("finite", bottoms, bool(left_top), bool(right_top), shift)

    @classmethod
    def l(cls, n: int, eps: int, eps2: int, shift: int = 0) -> "FlashShape":
        """The flash L(n, eps, eps') based at ``shift``."""
        return cls.finite(n + 1, bool(eps), bool(eps2), shift)

    @classmethod
    def simple(cls, shift: int = 0) -> "FlashShape":
        return cls.finite(1, False, False, shift)

    @classmethod
    def right_infinite(cls, left_top: bool, shift: int = 0) -> "FlashShape":
        return cls("right_infinite", 0, bool(left_top), False, shift)

    @classmethod
    def free(cls, shift: int = 0) -> "FlashShape":
        return cls("free", 0, False, False, shift)

    # -- structure -------------------------------------------------------------

    def top_indices(self) -> list[int]:
        if self.kind != "finite":
            raise ValueError("top_indices is defined for finite shapes")
        idx = [-1] if self.left_top else []
        idx += list(range(self.bottoms - 1))
        if self.right_top:
            idx.append(self.bottoms - 1)
        return idx

    @property
    def total_dim(self) -> int:
        if self.kind != "finite":
            raise ValueError("total_dim is defined for finite shapes")
        return 2 * self.bottoms - 1 + int(self.left_top) + int(self.right_top)

    def bottom_degree(self, i: int, params: AlgebraParams) -> int:
        return self.shift + i * params.gap

    def top_degree(self, i: int, params: AlgebraParams) -> int:
        # works for i = -1: shift - gap + |e2| = shift + |e1|
        return self.shift + i * params.gap + params.deg_e2

    def dims(self, params: AlgebraParams) -> dict[int, int]:
        if self.kind == "free":
            d = self.shift
            return {d: 1, d + params.deg_e1: 1, d + params.deg_e2: 1,
                    d + params.deg_e1 + params.deg_e2: 1}
        if self.kind != "finite":
            raise ValueError("dims is defined for finite and free shapes")
        out: dict[int, int] = {}
        for i in range(self.bottoms):
            deg = self.bottom_degree(i, params)
            out[deg] = out.get(deg, 0) + 1
        for i in self.top_indices():
            deg = self.top_degree(i, params)
            out[deg] = out.get(deg, 0) + 1
        return out

    def __str__(self) -> str:
        if self.kind == "free":
            return f"free@{self.shift}"
        if self.kind == "right_infinite":
            return f"L(inf,{int(self.left_top)})@{self.shift}"
        return (f"L({self.bottoms - 1},{int(self.left_top)},{int(self.right_top)})"
                f"@{self.shift}")


@dataclass(frozen=True)
class Violation:
    """A failed module axiom: which relation broke and at which source degree."""

    relation: str
    degree: int

    def __str__(self) -> str:
        return f"{self.relation} fails at degree {self.degree}"


class Module:
    """A graded module: carrier dimensions plus the two action families.

    ``actions[which][d]`` maps the degree-d slice to degree d + |which|;
    absent matrices are zero.  Optional per-degree basis labels are carried
    by the canonical constructors and dropped by basis scrambles; algorithms
    must not depend on them.

    The parts are checked once, where they enter.  ``Module(...)``, which
    ``parse_module`` and every caller outside this module use, puts them in
    normal form: dimensions in ascending degree order and positive only,
    every block of shape (dim(d + |which|), dim(d)) and nonzero, stored in
    degree order, and labels, if given, a tuple of dim(d) names in every
    degree.  The constructors here that build their parts in that form
    (``make_flash``, ``direct_sum``, ``random_basis_change``) pass the
    private ``_raw=True``, which stores them unchecked.
    """

    # _violations caches validate(self).  That is sound because a Module is
    # never mutated after construction: no code writes dims_by_degree, _a1
    # or _a2 once __init__ has returned.
    __slots__ = ("params", "dims_by_degree", "_a1", "_a2", "labels", "_violations")

    def __init__(self, params: AlgebraParams, dims: dict[int, int],
                 a1: dict[int, Matrix], a2: dict[int, Matrix],
                 labels: dict[int, tuple[str, ...]] | None = None, _raw: bool = False):
        self.params = params
        self._violations: tuple[Violation, ...] | None = None
        if _raw:
            self.dims_by_degree, self._a1, self._a2, self.labels = dims, a1, a2, labels
            return
        self.dims_by_degree = {d: n for d, n in sorted(dims.items()) if n > 0}
        self._a1 = self._normalize_actions(a1, params.deg_e1)
        self._a2 = self._normalize_actions(a2, params.deg_e2)
        if labels is not None:
            # labels name the whole basis of each degree; others are dropped
            labels = {d: tuple(labels.get(d, ())) for d in self.dims_by_degree}
            for d, ls in labels.items():
                if len(ls) != self.dim(d):
                    raise ValueError(f"label count mismatch at degree {d}")
        self.labels = labels

    def _normalize_actions(self, mats: dict[int, Matrix], step: int) -> dict[int, Matrix]:
        out = {}
        for d, mat in sorted(mats.items()):
            want = (self.dim(d + step), self.dim(d))
            if mat.shape != want:
                raise ValueError(
                    f"action matrix at degree {d} has shape {mat.shape}, expected {want}")
            if not mat.is_zero():
                out[d] = mat
        return out

    # -- views ----------------------------------------------------------------

    @property
    def field(self) -> Field:
        return self.params.field

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self.dims_by_degree)

    def dim(self, d: int) -> int:
        return self.dims_by_degree.get(d, 0)

    @property
    def total_dim(self) -> int:
        return sum(self.dims_by_degree.values())

    def action(self, which: str, d: int) -> Matrix:
        step = self.params.action_degree(which)
        stored = (self._a1 if which == E1 else self._a2).get(d)
        if stored is not None:
            return stored
        return _zero_block(self.field, self.dim(d + step), self.dim(d))

    def action_items(self, which: str) -> dict[int, Matrix]:
        return dict(self._a1 if which == E1 else self._a2)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Module):
            return NotImplemented
        return (self.params == other.params
                and self.dims_by_degree == other.dims_by_degree
                and self._a1 == other._a1 and self._a2 == other._a2)

    __hash__ = None  # mutable-looking container; identity hashing would mislead

    def __repr__(self) -> str:
        return f"Module(dims={self.dims_by_degree})"


def validate(m: Module) -> list[Violation]:
    """All failed axioms; empty exactly when m is a legal module.

    The relation products run once per module; later calls return a fresh
    list of the cached violations.
    """
    if m._violations is None:
        m._violations = tuple(_relation_violations(m))
    return list(m._violations)


def _relation_violations(m: Module) -> list[Violation]:
    p = m.params
    stored = {E1: m._a1, E2: m._a2}

    def product(outer: str, inner: str, d: int) -> Matrix | None:
        # outer after inner from degree d, or None when it is zero; an absent
        # block is zero, so the product runs only when both factors are stored
        first = stored[inner].get(d)
        second = stored[outer].get(d + p.action_degree(inner))
        if first is None or second is None or (prod := second @ first).is_zero():
            return None
        return prod

    out: list[Violation] = []
    for d in m.degrees:
        e1e2, e2e1 = product(E1, E2, d), product(E2, E1, d)
        checks = [("e1e1", product(E1, E1, d) is not None),
                  ("e2e2", product(E2, E2, d) is not None)]
        if p.variant == "B":
            checks += [("e1e2", e1e2 is not None), ("e2e1", e2e1 is not None)]
        else:
            # graded commutation e2 e1 = sigma e1 e2, where None is zero
            checks.append(("e1e2-commute", (e1e2 is None) != (e2e1 is None) or (
                e1e2 is not None and e2e1 != e1e2.scaled(p.sigma))))
        out += [Violation(name, d) for name, failed in checks if failed]
    return out


def zero_module(params: AlgebraParams) -> Module:
    return Module(params, {}, {}, {}, labels={})


def _top_label(i: int) -> str:
    return f"y{i}" if i >= 0 else "ym1"


def make_flash(shape: FlashShape, params: AlgebraParams) -> Module:
    """The canonical string module of a finite shape.

    Basis x_0..x_{b-1} (bottoms) and y_i (tops) with e1 x_{i+1} = e2 x_i = y_i,
    a dangling y_{-1} = e1 x_0 when the left end is a top, and e2 x_{b-1} =
    y_{b-1} exactly when the right end is one.  A degree holds at most one
    bottom and one top, in that order, and no action sends two basis vectors
    to one, so each block row is written once, as a unit vector or zero.
    A block depends only on the field and the dimensions of its source and
    target degrees, each 1 or 2, so every flash takes its blocks from one
    table of four immutable objects per field (``_unit_blocks``), and a
    factorization a block keeps serves every flash that holds it.

    Bottoms step by the gap and so do tops, so degrees, labels and blocks
    come out in degree order from arithmetic on the shift, the gap and |e2|,
    in the normal form ``Module`` checks for, and the module is built raw.
    """
    if shape.kind != "finite":
        raise ValueError("make_flash builds finite shapes; "
                         "truncate a right-infinite flash instead")
    b, base, g = shape.bottoms, shape.shift, params.gap
    tops = range(-1 if shape.left_top else 0, b if shape.right_top else b - 1)
    # y_i lies |e2| = q gap + r above x_i: in x_{i+q}'s degree, after it, when
    # r = 0, and else between x_{i+q} and x_{i+q+1}; the tops past x_{b-1}
    # follow it, however large q is
    q = params.deg_e2 // g
    labels: dict[int, tuple[str, ...]] = {}
    for j in range(b):
        labels[base + j * g] = (f"x{j}",)
        if j - q in tops:
            d = base + (j - q) * g + params.deg_e2
            labels[d] = labels.get(d, ()) + (_top_label(j - q),)
    for i in range(max(tops.start, b - q), tops.stop):
        labels[base + i * g + params.deg_e2] = (_top_label(i),)
    dims = {d: len(ls) for d, ls in labels.items()}
    blocks = _unit_blocks(params.field)

    def arrows(step: int, sources: range) -> dict[int, Matrix]:
        # x_i to y_i under e2, x_{i+1} to y_i under e1
        return {d: blocks[dims[d], dims[d + step]] for d in range(
            base + sources.start * g, base + sources.stop * g, g)}

    return Module(params, dims, arrows(params.deg_e1, range(tops.start + 1, b)),
                  arrows(params.deg_e2, range(0, tops.stop)), labels=labels, _raw=True)


@cache
def _unit_blocks(field: Field) -> dict[tuple[int, int], Matrix]:
    """The flash blocks over a field by the dimensions, 1 or 2, of source and
    target: x_i, the first vector of its degree, to y, the last of its own."""
    return {(s, t): Matrix.units(field, s, [None] * (t - 1) + [0])
            for s in (1, 2) for t in (1, 2)}


@lru_cache(maxsize=1024)
def _zero_block(field: Field, nrows: int, ncols: int) -> Matrix:
    """The zero block an absent action reads as, one per field and shape, as
    ``_unit_blocks`` shares the flash blocks: no method changes a matrix, and
    a zero holds one row and one column, so a shared one costs little."""
    return Matrix.zeros(field, nrows, ncols)


def make_free(gen_degree: int, params: AlgebraParams) -> Module:
    """The free cyclic module on one generator in the given degree (variant A).

    Over variant B the free module is the flash with one bottom and two tops.
    """
    if params.variant != "A":
        raise ValueError("free modules on four basis vectors exist over variant A; "
                         "use make_flash(FlashShape.finite(1, True, True)) over B")
    field = params.field
    d1, d2 = params.deg_e1, params.deg_e2
    d = gen_degree
    degs = [d, d + d1, d + d2, d + d1 + d2]
    dims = {deg: 1 for deg in degs}
    one = Matrix(field, ((field.one,),))
    a1 = {d: one, d + d2: one}
    a2 = {d: one, d + d1: Matrix(field, ((params.sigma,),))}
    labels = {d: ("g",), d + d1: ("e1g",), d + d2: ("e2g",), d + d1 + d2: ("e1e2g",)}
    return Module(params, dims, a1, a2, labels=labels)


def direct_sum(mods: list[Module], params: AlgebraParams | None = None) -> Module:
    """Block-diagonal direct sum; carrier dimensions add degreewise.

    Each summand's stored blocks and labels are placed once, under its own
    degrees, so the cost is linear in the summands' degrees.
    """
    if not mods:
        if params is None:
            raise ValueError("empty direct sum needs explicit algebra parameters")
        return zero_module(params)
    params = mods[0].params
    if any(m.params != params for m in mods):
        raise ValueError("direct sum of modules over different algebras")
    if len(mods) == 1:
        return mods[0]
    # offsets[k][d]: where summand k's degree-d coordinates start in the sum
    dims: dict[int, int] = {}
    offsets = []
    for m in mods:
        off = {}
        for d, n in m.dims_by_degree.items():
            off[d] = dims.get(d, 0)
            dims[d] = off[d] + n
        offsets.append(off)
    dims = dict(sorted(dims.items()))
    field = params.field

    def block(which: str, step: int) -> dict[int, Matrix]:
        # only stored (nonzero) blocks are placed; every other entry stays zero
        placed: dict[int, list] = {}
        for m, off in zip(mods, offsets):
            for d, a in m.action_items(which).items():
                placed.setdefault(d, []).append((off[d + step], off[d], a))
        return {d: place_blocks(field, dims[d + step], dims[d], blocks)
                for d, blocks in sorted(placed.items())}

    labels = None
    if all(m.labels is not None for m in mods):
        names: dict[int, list[str]] = {d: [] for d in dims}
        for i, m in enumerate(mods):
            for d, ls in m.labels.items():
                names[d].extend([f"s{i}.{lab}" for lab in ls])
        labels = {d: tuple(ls) for d, ls in names.items()}
    # the summands are in normal form, so their sum is: placed nonzero blocks
    # are nonzero, and each degree's labels name its whole basis
    return Module(params, dims, block(E1, params.deg_e1), block(E2, params.deg_e2),
                  labels=labels, _raw=True)


def shift(m: Module, d: int) -> Module:
    """Translate every degree by d."""
    return Module(m.params,
                  {deg + d: n for deg, n in m.dims_by_degree.items()},
                  {deg + d: mat for deg, mat in m.action_items(E1).items()},
                  {deg + d: mat for deg, mat in m.action_items(E2).items()},
                  labels=None if m.labels is None
                  else {deg + d: ls for deg, ls in m.labels.items()})


def truncate_above(m: Module, max_degree: int) -> Module:
    """Quotient by the span of all degrees above the cutoff.

    That span is a submodule because both actions raise degree, so the induced
    maps are just the surviving blocks.
    """
    dims = {d: n for d, n in m.dims_by_degree.items() if d <= max_degree}

    def cut(which: str, step: int) -> dict[int, Matrix]:
        return {d: mat for d, mat in m.action_items(which).items()
                if d <= max_degree and d + step <= max_degree}

    labels = None
    if m.labels is not None:
        labels = {d: ls for d, ls in m.labels.items() if d <= max_degree}
    return Module(m.params, dims, cut(E1, m.params.deg_e1), cut(E2, m.params.deg_e2),
                  labels=labels)


def truncated_infinite_flash(left_top: bool, max_degree: int,
                             params: AlgebraParams) -> Module:
    """Quotient of the right-infinite flash by all degrees above the cutoff.

    The result is finite: the flash x_0 .. x_m, m = max_degree // gap, with a
    top after every bottom, cut above ``max_degree``.
    """
    if max_degree < 0:
        return zero_module(params)
    flash = FlashShape.finite(max_degree // params.gap + 1, left_top, True)
    return truncate_above(make_flash(flash, params), max_degree)


@cache
def _draw_tables(n: int) -> tuple[bytes, bytes]:
    """``bytes.translate`` arguments that turn a word's top byte into randrange(n)'s draw.

    The table keeps the byte's top k = n.bit_length() bits; the delete set
    holds the bytes whose draw is >= n, which randrange rejects.
    """
    k = n.bit_length()
    table = bytes(b >> (8 - k) for b in range(256))
    return table, bytes(b for b in range(256) if table[b] >= n)


def _draws(seed: int, n: int):
    """A function that returns the values of the next ``count`` calls of
    ``random.Random(seed).randrange(n)``: ``bytes`` for n < 256, else a list.

    randrange(n) takes the top k = n.bit_length() bits of one 32-bit
    Mersenne Twister word, and takes another word while the value is >= n.
    For n < 256 those bits lie in the word's top byte, and
    ``getrandbits(32 * w)`` returns w words, little-endian, in one call.  A
    call per value costs far more: randrange(2) takes two bits and rejects
    half the words, so it loops.  So the generator is read ahead at least
    4096 words at a time.  It is made here from the seed and reached only
    through the function returned, so the words read past the last value
    used change nothing a caller can see.
    """
    rng = random.Random(seed)
    if n >= 256:
        return lambda count: [rng.randrange(n) for _ in range(count)]
    table, delete = _draw_tables(n)
    ahead = b""

    def take(count: int) -> bytes:
        nonlocal ahead
        while len(ahead) < count:
            words = max(4096, count - len(ahead))
            data = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
            ahead += data[3::4].translate(table, delete)
        out, ahead = ahead[:count], ahead[count:]
        return out

    return take


def _random_invertible(field: Field, n: int, draw) -> tuple[Matrix, Matrix]:
    """A random invertible n x n matrix and its inverse, from the values of
    ``draw`` (see ``_draws``).

    Candidates are drawn row by row, each entry as ``randrange(p)`` over F_p
    and ``randint(-3, 3)`` over Q would draw it, so the values are those of
    one call per entry.  ``Matrix.inverse`` rejects a singular draw in the
    elimination that inverts an invertible one: over F2, where a dense draw
    is bit-sliced, at the first column no free row reaches, before its tags
    are touched, and elsewhere in the forward pass of [A | -I].  The inverse
    is unique, so which path runs changes neither it nor the draws.
    """
    p = field.characteristic
    for _ in range(10000):
        # both draws are already canonical field elements: an int is an
        # exact rational, and randint(-3, 3) is -3 + randrange(7)
        values = draw(n * n)
        if not p:
            values = [v - 3 for v in values]
        mat = Matrix.from_flat(field, values, n)
        inv = mat.inverse()
        if inv is not None:
            return mat, inv
    raise RuntimeError("failed to sample an invertible matrix")


def random_basis_change(m: Module, seed: int) -> Module:
    """Conjugate all actions by a seeded random degreewise change of basis.

    The result is isomorphic to the input; labels are dropped because the
    canonical basis no longer means anything.  The entries are the values
    one ``random.Random(seed).randrange`` call each would give, degree after
    degree, so a seed always yields the same module.  Those values come from
    one stream that reads its generator ahead (see ``_draws``); the generator
    lives only inside this call, so what it reads past the last value used
    is never seen.
    """
    draw = _draws(seed, m.field.characteristic or 7)
    change, inverse = {}, {}
    for d, n in m.dims_by_degree.items():
        change[d], inverse[d] = _random_invertible(m.field, n, draw)

    def conj(which: str, step: int) -> dict[int, Matrix]:
        # an absent block is zero and stays zero; a @ change[d] first, as a
        # flash sum's blocks, one unit or zero per row, select its rows
        return {d: inverse[d + step] @ (a @ change[d])
                for d, a in m.action_items(which).items()}

    # conjugating a nonzero block by invertible matrices leaves it nonzero
    return Module(m.params, dict(m.dims_by_degree),
                  conj(E1, m.params.deg_e1), conj(E2, m.params.deg_e2), _raw=True)


def with_variant(m: Module, variant: str) -> Module:
    """Reinterpret the same action data over the other algebra variant.

    Going to variant B demands that both composites e1e2 and e2e1 already act
    as zero; going to A is always legal for a valid B-module.
    """
    out = Module(m.params.with_variant(variant), dict(m.dims_by_degree),
                 m.action_items(E1), m.action_items(E2), labels=m.labels)
    bad = validate(out)
    if bad:
        raise ValueError(f"module is not valid over variant {variant}: "
                         + "; ".join(map(str, bad)))
    return out
