"""Constructive direct-sum decomposition into lightning flashes.

Over variant B (where both composites of the generators act as zero) a module
splits canonically into a socle layer W and a complement layer V, and the two
actions become a pair of degree-shifting maps V -> W.  Because the shifts
differ, that pair falls apart into independent alternating chains

    T_{k-1}   T_k   T_{k+1}
        \\    /  \\   /
         B_k     B_{k+1}        B_k = V in degree r + k*gap,
                                T_k = W in degree r + k*gap + |e2|,

one chain per residue class r of the degree mod gap = |e2| - |e1|.  Each
chain is reduced left to right by exact elimination.  Partially built
summands ("strands") grow one vertex at a time; when several strands compete
for a pivot, entries may only be cleared in directions that an automorphism
of the already-processed part can compensate.  That admissibility is a total
order on the open ends: a strand whose left end is a dangling top beats every
bottom-ended strand, longer beats shorter among bottom-ended ones and shorter
beats longer among top-ended ones.  Both half-steps (e1 onto the previous
tops, e2 onto the next tops) run the same elimination with one pivot rule:
the codomain strands go strongest first and the domain strands weakest
first, and each pivot clears its row from every later column.  A due column
is then zero at every row already taken, so its pivot, its lowest nonzero
entry, is the strongest codomain strand it reaches: every clearing runs from
a weaker strand into a stronger one.
Each chain position owns a fixed run of lanes, from the running sum of the
widths before it, and a strand is one vector over the lanes of its
positions, in the family layout of the module's field.  Every clearing is one
checked ``_Strand.absorb``, one family call: the pivot's codomain strand
absorbs each codomain strand a step's row operations name, and each later
column's domain strand the normalised pivot one.  Those calls delay the
normalisation of a Q vector: the codomain strand is settled once per step,
and the domain strands once per match, since they take many operations.
For :func:`decompose`, every clearing updates the strand's realization, so
the finished strands are an explicit certified basis of the module and each
strand reads off directly as one flash summand, unpacked once.  A strand's
shape depends only on where it starts and ends, and the matching reads only
the vector at each strand's right end, so :func:`multiplicities` runs the
same sweep keeping the lanes of that one position per strand.

The idempotent oracle is an independent second route used for
cross-validation: it knows nothing about strings and splits along Fitting
decompositions of graded endomorphisms found by exact linear algebra.

Over variant A, free summands split off first.  Free modules over E(e1, e2)
are injective, so the free part F spanned by lifts of the e1e2-image is a
summand, and a complement is read off its socle: in each degree, the vectors
v for which v, e1 v, e2 v and e1e2 v vanish at the pivot coordinates of the
e1e2-image in their degrees (see :func:`split_free`).
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

from .linalg import (Field, Matrix, SubspaceBasis, image, kernel,
                     standard_complement, sum_space, vstack)
from .modules import (E1, E2, FlashShape, Module, direct_sum, make_free,
                      validate, zero_module)
from .operators import socle


# ---------------------------------------------------------------------------
# result types


@dataclass(frozen=True)
class Summand:
    """One flash summand with its realization inside the parent module.

    ``bottoms[i]`` is the carrier vector playing x_i; ``tops`` holds pairs
    (index, vector) with index -1 for a dangling left top.
    """

    shape: FlashShape
    bottoms: tuple[tuple, ...]
    tops: tuple[tuple[int, tuple], ...]


@dataclass(frozen=True)
class Decomposition:
    summands: tuple[Summand, ...]

    def multiset(self) -> Counter:
        return Counter(s.shape for s in self.summands)

    def format(self) -> str:
        counts = self.multiset()
        if not counts:
            return "zero module"
        return "\n".join(f"{shape} x{mult}"
                         for shape, mult in sorted(counts.items()))


class InternalError(AssertionError):
    """A failed invariant check: a defect of this package, not of its input.

    Raised explicitly, so that ``python -O`` keeps the check.
    """


class OracleInconclusive(RuntimeError):
    """The oracle sampled its candidate endomorphisms and none of them split
    a module that is not a flash; another seed draws other candidates."""


@dataclass(frozen=True)
class VerifyResult:
    ok: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _summand_sort_key(s: Summand):
    sh = s.shape
    return (sh.shift, sh.bottoms, sh.left_top, sh.right_top)


# ---------------------------------------------------------------------------
# the chain sweep


class _Chain:
    """The lanes of one chain, which its strands share, and its first position.

    With ``widths``, chain position pos holds its vector, of ``widths[pos]``
    entries, at lanes ``offsets[pos]`` onward: the running sum of the widths
    of the positions before it.  ``zero`` is one zero row of all the lanes
    in the family layout, whose tails pad a strand that starts later than
    the one it is added to.  Without them the chain keeps no ``history``: a
    strand keeps its right end alone, at lane 0, so any two strands that
    meet share their first lane, and no offset is read and nothing padded.
    """

    __slots__ = ("fam", "first", "widths", "offsets", "size", "zero", "history")

    def __init__(self, field: Field, first: int, widths: dict[int, int] | None = None):
        self.fam, self.first, self.widths = field._family, first, widths
        self.history = widths is not None
        self.offsets, self.size = {}, 0
        if self.history:
            for pos in sorted(widths):
                self.offsets[pos] = self.size
                self.size += widths[pos]
            self.zero = self.fam.pack((field.zero,) * self.size)


class _Strand:
    """A summand under construction: a contiguous run of chain positions.

    Even positions 2k are bottoms B_k, odd positions 2k+1 are tops T_k.
    ``strength`` is the admissibility class of the open strand: who may
    absorb whom during elimination.  It depends on the left end alone, which
    never moves, so it is set once.

    A strand is one vector over its chain's lanes, ``lanes``, in the family
    layout of the module's field (packed ints over F_p for p <= 13, tuples
    elsewhere): the vectors of its positions from the one at chain lane
    ``base`` to its right end, which starts at lane ``last``, in its own
    frame, lane ``base`` first.  With the chain's ``history`` that run starts
    at the left end, so it is the realization, and every update runs along
    the whole overlap of two strands, one family ``add_delayed`` after the
    other strand's vector is cut or padded to the same first lane; the
    family's ``settle`` then normalises a Q strand once per run of updates
    (over Q all the strand's positions share one denominator).  Without it,
    the run is the right end alone: the vector the matching reads.  Every
    update acts on each position on its own, so that vector comes out the
    same either way, and so do the pivots and the ends.
    """

    __slots__ = ("chain", "left_pos", "right_pos", "base", "last", "lanes", "strength")

    def __init__(self, chain: _Chain, pos: int, vector):
        self.chain = chain
        self.left_pos = self.right_pos = pos
        self.base = self.last = chain.offsets[pos] if chain.history else 0
        self.lanes = vector
        # dangling-top left ends beat bottom ends; among tops the later start
        # wins, among bottoms the earlier one does: ints from the chain's
        # first position, tops from 1 up and bottoms from 0 down
        self.strength = pos - chain.first + 1 if pos % 2 else chain.first - pos

    def right_end(self):
        """The vector at the right end, the one the matching reads."""
        return self.lanes if self.last == self.base else self._lanes_from(self.last)

    def vectors(self) -> dict[int, tuple]:
        """The vectors by position, unpacked: one unpack of the lanes, sliced
        at the chain's offsets.  Only a chain with history has them."""
        chain, base = self.chain, self.base
        offsets, widths = chain.offsets, chain.widths
        flat = chain.fam.unpack(self.lanes, self.last + widths[self.right_pos] - base)
        out = {}
        for pos in range(self.left_pos, self.right_pos + 1):
            at = offsets[pos] - base
            out[pos] = flat[at:at + widths[pos]]
        return out

    def join(self, other: "_Strand") -> None:
        """Append the strand that starts right after this one ends."""
        if other.left_pos != self.right_pos + 1:
            raise InternalError("joined strands are not adjacent")
        if self.chain.history:
            self.lanes = self.chain.fam.join(self.lanes, other.lanes, other.base - self.base)
        else:
            self.lanes, self.base = other.lanes, other.base
        self.right_pos, self.last = other.right_pos, other.last

    def _lanes_from(self, base: int):
        """The lanes from chain lane ``base`` on: cut at the front, or padded
        there with zeros."""
        chain, k = self.chain, self.base - base
        if k < 0:
            return chain.fam.tail(self.lanes, -k)
        return chain.fam.join(chain.fam.tail(chain.zero, chain.size - k), self.lanes, k)

    def absorb(self, other: "_Strand", c, add) -> None:
        """Add c times other along the overlap with ``add``, the family's
        ``add_delayed``, left for the caller to settle: a clearing, which runs
        only from a strand with the same right end that is no stronger."""
        if other.right_pos != self.right_pos or self.strength < other.strength:
            raise InternalError("inadmissible elimination")
        base = self.base
        self.lanes = add(self.lanes, other.lanes if other.base == base
                         else other._lanes_from(base), c)


def _match(field: Field, act: Matrix, cod: list[_Strand],
           dom: list[_Strand]) -> list[tuple[_Strand, _Strand]]:
    """Pair domain strands with codomain strands through one action.

    ``cols[c]`` holds the coordinates of ``act`` applied to the right end
    of domain strand c over the right ends of the codomain strands, entry r
    for codomain strand r, as a vector in the field's family layout: column
    c of a matrix ``a``.  Row operations make a codomain strand absorb
    another, column operations make a domain strand absorb another and
    normalisation scales the domain strand, until ``a`` is a partial
    identity.  The family's ``pivot_steps`` runs them on the columns, which
    come due in order, weakest domain strand first, and this replays each
    step on the strands, one ``absorb`` per operation: the pivot's codomain
    strand absorbs those its row operations name, and each later column's
    domain strand the normalised pivot one.  A due column is zero at every
    taken row, so its pivot is its lowest nonzero entry: the strongest
    codomain strand it reaches.  Returns the (codomain, domain) pivot pairs:
    ``act`` maps the domain strand's right end onto the codomain strand's.
    """
    if not dom:
        return []
    fam = field._family
    # sorted is stable, so strands of equal strength keep their order
    cod = sorted(cod, key=lambda s: s.strength, reverse=True)
    dom = sorted(dom, key=lambda s: s.strength)
    imgs = [fam.apply(act, s.right_end()) for s in dom]
    ends = [s.right_end() for s in cod]
    cols = fam.coordinates(ends, imgs, act.nrows)
    if cols is None:
        raise InternalError("socle coordinates must exist" if cod
                            else "action image escapes the socle layer")
    one, add, pairs, unsettled = field.one, fam.add_delayed, [], False
    for ci, pr, inv, row_ops, col_ops in fam.pivot_steps(cols):
        target, source = cod[pr], dom[ci]
        if row_ops:
            for i, c in row_ops:
                target.absorb(cod[i], c, add)
            target.lanes = fam.settle(target.lanes)
        if inv != one:
            source.lanes = fam.scale(source.lanes, inv)
        for j, c in col_ops:
            dom[j].absorb(source, c, add)
        unsettled = unsettled or inv != one or bool(col_ops)
        pairs.append((target, source))
    # a domain strand takes one column operation from each earlier pivot
    # that reaches it, each added unsettled: it is settled once, here
    if unsettled:
        for s in dom:
            s.lanes = fam.settle(s.lanes)
    return pairs


def _degree(residue: int, pos: int, params) -> int:
    """The degree of chain position pos: B_k at 2k is V in degree
    residue + k*gap, and T_k at 2k + 1 is W in that degree plus |e2|."""
    return residue + (pos // 2) * params.gap + pos % 2 * params.deg_e2


def _sweep_chain(m: Module, residue: int, vecs: dict[int, list],
                 history: bool = True) -> list[_Strand]:
    """Reduce one chain; ``vecs[pos]`` are its vectors at chain position pos.

    Returns the finished strands, each one vector over the chain's lanes in
    the field's family layout.  With ``history`` each strand keeps its
    realization; without it, only its right end, which is all the matching
    reads.
    """
    field = m.field
    chain = _Chain(field, min(vecs), {pos: m.dim(_degree(residue, pos, m.params))
                                      for pos in vecs} if history else None)
    strands: list[_Strand] = []
    open_: list[_Strand] = []
    # a position with no vectors after one with none has nothing to match, so
    # only the occupied positions run, each with the one after it, which
    # checks that the strands open there are closed
    for pos in sorted({*vecs, *(p + 1 for p in vecs)}):
        fresh = [_Strand(chain, pos, v) for v in vecs.get(pos, [])]
        if pos % 2 == 0:
            # bottoms: e1 maps the fresh strands onto the open tops
            act = m.action(E1, _degree(residue, pos, m.params))
            pairs = _match(field, act, open_, fresh)
        else:
            # tops: e2 maps the open bottoms onto the fresh strands
            act = m.action(E2, _degree(residue, pos - 1, m.params))
            pairs = [(b, t) for t, b in _match(field, act, fresh, open_)]
        joined = {}
        for left, new in pairs:
            left.join(new)
            joined[new] = left
        strands.extend(s for s in fresh if s not in joined)
        open_ = [joined.get(s, s) for s in fresh]
    return strands


def _strand_shape(strand: _Strand, residue: int, params) -> FlashShape:
    """The flash shape a finished strand reads off as, from its ends alone:
    its even positions are the bottoms, and an odd end is a dangling top."""
    left, right = strand.left_pos, strand.right_pos
    first = left + left % 2
    if first > right:
        # a socle vector nothing maps onto: a simple summand
        return FlashShape.simple(_degree(residue, left, params))
    return FlashShape.finite((right - first) // 2 + 1, left_top=left % 2,
                             right_top=right % 2, shift=_degree(residue, first, params))


def _summand_from_strand(strand: _Strand, residue: int, params) -> Summand:
    """The summand a finished strand with history reads off as, its vectors
    unpacked."""
    vectors = strand.vectors()
    shape = _strand_shape(strand, residue, params)
    left, right = strand.left_pos, strand.right_pos
    if left == right:
        # a lone bottom or a lone top: a simple summand
        return Summand(shape, (vectors[left],), ())
    first = left + left % 2
    bottoms = tuple(vectors[p] for p in range(first, right + 1, 2))
    tops = tuple(((p - first - 1) // 2, vectors[p]) for p in range(left | 1, right + 1, 2))
    return Summand(shape, bottoms, tops)


def _require_valid(m: Module) -> None:
    bad = validate(m)
    if bad:
        raise ValueError("invalid module: " + "; ".join(map(str, bad)))


def _chains(m: Module) -> dict[int, dict[int, list]]:
    """The vectors of each chain position, by residue, of a valid variant-B
    module, in the family layout, which the sweep keeps: the bottoms are the
    unit vectors off the socle's pivots, a complement of it, and the tops the
    socle's echelon rows as stored."""
    if m.params.variant != "B":
        raise ValueError("decompose works over variant B; run split_free first")
    _require_valid(m)
    g = m.params.gap
    fam = m.field._family
    soc = socle(m)
    chains: dict[int, dict[int, list]] = {}
    for d in m.degrees:
        n, pivots = m.dim(d), set(soc[d].pivot_rows)
        bott = [fam.unit(i, n) for i in range(n) if i not in pivots]
        if bott:
            chains.setdefault(d % g, {})[2 * (d // g)] = bott
        tops = soc[d].family_rows()
        if tops:
            b = d - m.params.deg_e2
            chains.setdefault(b % g, {})[2 * (b // g) + 1] = tops
    return chains


def decompose(m: Module) -> Decomposition:
    """Split a valid finite variant-B module into lightning flashes.

    The returned multiset of shapes is an isomorphism invariant; the summand
    vectors are an explicit basis realization checkable with
    :func:`verify_decomposition`.
    """
    chains = _chains(m)
    summands = [_summand_from_strand(s, r, m.params)
                for r in sorted(chains) for s in _sweep_chain(m, r, chains[r])]
    return Decomposition(tuple(sorted(summands, key=_summand_sort_key)))


def multiplicities(m: Module) -> Counter:
    """The multiset of flash shapes (with shifts) of a variant-B module.

    It equals ``decompose(m).multiset()``, but the sweep keeps one vector per
    strand and builds no summand: a strand's ends give its shape.
    """
    chains = _chains(m)
    return Counter(_strand_shape(s, r, m.params)
                   for r in chains for s in _sweep_chain(m, r, chains[r], history=False))


def verify_decomposition(m: Module, dec: Decomposition) -> VerifyResult:
    """Certificate check: degreewise basis plus the exact flash relations.

    Each realization vector is coerced once, where it enters, into the family
    layout of the module's field, where the relations are checked.
    """
    params, field = m.params, m.field
    fam = field._family
    problems: list[str] = []
    by_degree: dict[int, list] = {d: [] for d in m.degrees}

    def enter(deg: int, vec):
        """vec in canonical form and family layout, or None if it does not fit degree deg."""
        if m.dim(deg) != len(vec) or m.dim(deg) == 0:
            return None
        return fam.coerce(vec)

    def put(tag: str, deg: int, vec) -> None:
        if vec is None:
            problems.append(f"{tag}: vector does not fit degree {deg}")
        else:
            by_degree[deg].append(vec)

    entered = []  # (index, shape, bottoms, tops) of the summands whose relations are checked
    for si, s in enumerate(dec.summands):
        sh = s.shape
        if sh.kind != "finite":
            problems.append(f"summand {si}: non-finite shape {sh}")
            continue
        if len(s.bottoms) != sh.bottoms:
            problems.append(f"summand {si}: vector count does not match {sh}")
            continue
        xs = [enter(sh.bottom_degree(i, params), v) for i, v in enumerate(s.bottoms)]
        ys = [(i, enter(sh.top_degree(i, params), v)) for i, v in s.tops]
        entered.append((si, sh, xs, ys))
        if sorted(i for i, _ in ys) != sh.top_indices():
            problems.append(f"summand {si}: vector count does not match {sh}")
            continue
        for i, x in enumerate(xs):
            put(f"summand {si} x{i}", sh.bottom_degree(i, params), x)
        for i, y in ys:
            put(f"summand {si} y{i}", sh.top_degree(i, params), y)
    for d, vecs in by_degree.items():
        n = m.dim(d)
        if len(vecs) != n:
            problems.append(f"degree {d}: {len(vecs)} vectors for dimension {n}")
        elif fam.rank(vecs, n) != n:
            problems.append(f"degree {d}: realization vectors are dependent")
    # a vector that does not fit its degree has no image to check
    for si, sh, xs, ys in entered:
        tops = dict(ys)
        for i, x in enumerate(xs):
            if x is None:
                continue
            d = sh.bottom_degree(i, params)
            for which, ti in ((E1, i - 1), (E2, i)):
                got = fam.apply(m.action(which, d), x)
                if ti not in tops:
                    if fam.nonzero(got):
                        problems.append(f"summand {si}: {which} x{i} should vanish")
                elif got != tops[ti]:
                    problems.append(f"summand {si}: {which} x{i} != y{ti}")
        for ti, y in ys:
            d = sh.top_degree(ti, params)
            if y is not None and any(fam.nonzero(fam.apply(m.action(which, d), y))
                                     for which in (E1, E2)):
                problems.append(f"summand {si}: y{ti} is not in the socle")
    return VerifyResult(not problems, tuple(problems))


# ---------------------------------------------------------------------------
# the independent idempotent oracle


def _hom_system(m: Module) -> tuple[list[list], int]:
    """The equations phi_{d+|e|} e = e phi_d on a degree-0 map phi: m -> m.

    The unknowns are the entries of the blocks phi_d (row-major) in the order
    of ``m.degrees``.  Returns the equation rows and the number of unknowns.
    """
    field = m.field
    offsets = {}
    nvars = 0
    for d in m.degrees:
        offsets[d] = nvars
        nvars += m.dim(d) ** 2
    rows: list[list] = []
    for d in m.degrees:
        nd = m.dim(d)
        for which in (E1, E2):
            t = d + m.params.action_degree(which)
            nt = m.dim(t)
            act = m.action(which, d)
            if act.is_zero():
                continue
            act_rows, act_cols = act.rows, act.cols()
            for i in range(nt):
                for j in range(nd):
                    # t != d, so each unknown appears once per equation
                    row = [field.zero] * nvars
                    for k, a in enumerate(act_cols[j]):
                        if a:
                            row[offsets[t] + i * nt + k] = a
                    for k, a in enumerate(act_rows[i]):
                        if a:
                            row[offsets[d] + k * nd + j] = field.neg(a)
                    rows.append(row)
    return rows, nvars


def _hom_blocks(m: Module, flat) -> dict[int, Matrix]:
    """Cut a solution vector of :func:`_hom_system` into its blocks phi_d."""
    out = {}
    pos = 0
    for d in m.degrees:
        nd = m.dim(d)
        out[d] = Matrix.from_flat(m.field, flat[pos:pos + nd * nd], nd)
        pos += nd * nd
    return out


def endomorphism_basis(m: Module) -> list[dict[int, Matrix]]:
    """A basis of the space of degree-0 graded module endomorphisms."""
    rows, nvars = _hom_system(m)
    # _hom_system writes block entries and their Field.neg: canonical
    ker = Matrix(m.field, rows, ncols=nvars, _raw=True).kernel_matrix()
    return [_hom_blocks(m, col) for col in ker.cols()]


def _phi_combine(field: Field, terms: list[tuple[object, dict]]) -> dict[int, Matrix]:
    out: dict[int, Matrix] = {}
    for c, phi in terms:
        for d, mat in phi.items():
            scaled = mat.scaled(c)
            out[d] = scaled if d not in out else out[d] + scaled
    return out


def _fitting_split(m: Module, phi: dict[int, Matrix]):
    """Split M = ker(phi^N) + im(phi^N) when both sides are proper.

    By Fitting's lemma the kernel and image of phi_d^k stop changing by
    k = n = dim M_d.  Both sides are proper exactly when some phi_d is
    neither invertible (rank n) nor nilpotent (phi_d^n = 0), or when both
    kinds occur.  Most candidates split nothing, so that is decided first,
    and kernels and images are built only for a split.
    """
    # None for an invertible degree, True for a nilpotent one, False for neither
    kinds = {None if phi[d].rank() == n else phi[d].power(n).is_zero()
             for d, n in m.dims_by_degree.items()}
    if False not in kinds and len(kinds) < 2:
        return None
    kspaces, ispaces = {}, {}
    for d, n in m.dims_by_degree.items():
        power = phi[d].power(n)
        k, i = kernel(power), image(power)
        if k.dim + i.dim != n or sum_space(k, i).dim != n:
            raise InternalError("Fitting decomposition failed to be direct")
        kspaces[d], ispaces[d] = k, i
    return kspaces, ispaces


def _module_from_subspace(m: Module, spaces: dict[int, SubspaceBasis]):
    """A submodule presented on its own basis, plus the embedding matrices."""
    dims = {d: s.dim for d, s in spaces.items() if s.dim}
    emb = {d: spaces[d].basis_matrix() for d in dims}

    def induced(which: str) -> dict[int, Matrix]:
        step = m.params.action_degree(which)
        out = {}
        for d in dims:
            if dims.get(d + step, 0) == 0:
                continue
            sol = emb[d + step].solve(m.action(which, d) @ emb[d])
            if sol is None:
                raise InternalError("subspace is not closed under the actions")
            out[d] = sol
        return out

    return Module(m.params, dims, induced(E1), induced(E2)), emb


def _enumerated(p: int, r: int) -> bool:
    """Whether the candidates are every combination of r endomorphisms over F_p, not a sample."""
    return p > 0 and p ** r <= 4096


def _split_candidates(m: Module, endos: list[dict[int, Matrix]],
                      rng: random.Random):
    field = m.field
    p = field.characteristic
    yield from endos
    for i in range(len(endos)):
        for j in range(i + 1, len(endos)):
            yield _phi_combine(field, [(field.one, endos[i]), (field.one, endos[j])])
    for i in range(len(endos)):
        for j in range(len(endos)):
            if i != j:
                yield {d: endos[i][d] @ endos[j][d] for d in endos[i]}
    r = len(endos)
    if _enumerated(p, r):
        for coeffs in itertools.product(range(p), repeat=r):
            if any(coeffs):
                yield _phi_combine(field, list(zip(coeffs, endos)))
        return
    for _ in range(200):
        coeffs = [rng.randrange(p) if p else rng.randint(-2, 2) for _ in range(r)]
        if any(coeffs):
            yield _phi_combine(field, list(zip(coeffs, endos)))


def _canonical_leaf(cur: Module, emb: dict[int, Matrix]) -> Summand:
    """Read the flash shape off an indecomposable and pick canonical vectors."""
    params = cur.params
    if cur.total_dim == 1:
        (d,) = cur.degrees
        return Summand(FlashShape.simple(d), (emb[d].col(0),), ())
    soc = socle(cur)
    bdegs = [d for d in cur.degrees if soc[d].dim < cur.dim(d)]
    if not bdegs:
        raise InternalError("socle-only module of dimension > 1 is decomposable")
    g = params.gap
    shift = min(bdegs)
    b = sum(cur.dim(d) - soc[d].dim for d in bdegs)
    if bdegs != [shift + i * g for i in range(b)]:
        raise InternalError("leaf generators do not sit on a single ladder")
    left_top = not cur.action(E1, shift).is_zero()
    right_top = not cur.action(E2, shift + (b - 1) * g).is_zero()
    shape = FlashShape.finite(b, left_top, right_top, shift)
    if shape.dims(params) != cur.dims_by_degree:
        raise InternalError(f"leaf dimensions do not match shape {shape}")
    xs = [standard_complement(soc[shift])[0]]
    tops: dict[int, tuple] = {}
    if left_top:
        tops[-1] = cur.action(E1, shift).apply(xs[0])
    for i in range(b):
        d = shift + i * g
        y = cur.action(E2, d).apply(xs[i])
        if i < b - 1:
            if not any(y):
                raise InternalError("flash walk broke at a middle top")
            tops[i] = y
            nxt = cur.action(E1, d + g).solve_vector(y)
            if nxt is None:
                raise InternalError("flash walk has no next bottom")
            xs.append(nxt)
        elif right_top:
            tops[i] = y
    bottoms = tuple(emb[shape.bottom_degree(i, params)].apply(x)
                    for i, x in enumerate(xs))
    top_vecs = tuple((i, emb[shape.top_degree(i, params)].apply(v))
                     for i, v in sorted(tops.items()))
    return Summand(shape, bottoms, top_vecs)


def idempotent_oracle(m: Module, max_total_dim: int = 12, seed: int = 0) -> Decomposition:
    """Brute-force decomposition through graded endomorphisms.

    Independent of the string-specific sweep: splits along Fitting
    decompositions of endomorphisms (exhaustively enumerated over small
    coefficient spaces, otherwise sampled), recursing until no candidate
    splits.  The result is verified before it is returned.  A piece that no
    sampled candidate splits and that is not a flash raises
    :class:`OracleInconclusive`.
    """
    if m.params.variant != "B":
        raise ValueError("the oracle works over variant B")
    if m.total_dim > max_total_dim:
        raise ValueError(f"oracle bound exceeded: dimension {m.total_dim} > "
                         f"{max_total_dim}")
    _require_valid(m)
    rng = random.Random(seed)
    out: list[Summand] = []

    def rec(cur: Module, emb: dict[int, Matrix]) -> None:
        if cur.total_dim == 0:
            return
        endos = endomorphism_basis(cur)
        tried = 0
        for phi in _split_candidates(cur, endos, rng):
            tried += 1
            split = _fitting_split(cur, phi)
            if split is None:
                continue
            for spaces in split:
                sub, sub_emb = _module_from_subspace(cur, spaces)
                rec(sub, {d: emb[d] @ sub_emb[d] for d in sub.dims_by_degree})
            return
        try:
            out.append(_canonical_leaf(cur, emb))
        except InternalError as exc:
            if _enumerated(cur.field.characteristic, len(endos)):
                raise
            raise OracleInconclusive(
                f"oracle inconclusive: {tried} candidate endomorphisms, most of them "
                f"drawn at random, split no piece of dimension {cur.total_dim}, and "
                f"that piece is not a flash ({exc}); try another --seed") from None

    rec(m, {d: Matrix.identity(m.field, n) for d, n in m.dims_by_degree.items()})
    dec = Decomposition(tuple(sorted(out, key=_summand_sort_key)))
    check = verify_decomposition(m, dec)
    if not check:
        raise InternalError("oracle certificate failed: " + "; ".join(check.problems))
    return dec


# ---------------------------------------------------------------------------
# free-summand splitting (variant A)


@dataclass(frozen=True)
class FreeSplit:
    """A free direct summand with an explicit complement.

    ``free_ranks[d]`` counts free generators in degree d; the embeddings give
    per-degree column matrices realizing both summands inside the input.
    """

    free_ranks: dict[int, int]
    free_part: Module
    free_embedding: dict[int, Matrix]
    complement: Module
    complement_embedding: dict[int, Matrix]


def split_free(m: Module) -> FreeSplit:
    """Split a variant-A module as free part plus an e1e2-killed complement.

    Generators are lifted from the image of the composite e1 e2 and span a
    free submodule F.  Free modules over E(e1, e2) are injective, so F is a
    summand, and a complement C is read off its socle.  With P_t the pivot
    coordinates of the e1e2-image in degree t, C_d is the common kernel of the
    coordinates P_d of v, P_{d+|e1|} of e1 v, P_{d+|e2|} of e2 v and
    P_{d+|e1|+|e2|} of e1 e2 v, for v in degree d.  It is a complement:

    - The e1e2-image is the socle of F.  Its echelon basis has a 1 at its own
      pivot and 0 at every other pivot, so a nonzero socle vector has a
      nonzero coordinate somewhere in P_t.
    - C is a submodule, because every product of e1 and e2 with a monomial is
      a monomial, up to sign, or zero.  Every nonzero submodule of a free
      module meets its socle, so C meets F only in zero.
    - Degree d has exactly dim F_d conditions, so dim C_d >= dim M_d - dim F_d.
      Hence M = F + C is direct, and e1e2 C lies in C and F, so it is zero.
    """
    if m.params.variant != "A":
        raise ValueError("split_free expects a variant-A module")
    _require_valid(m)
    params = m.params
    field = m.field
    d1, d2 = params.deg_e1, params.deg_e2
    gens: list[tuple[int, tuple]] = []
    composites: dict[int, Matrix] = {}
    pivots: dict[int, tuple[int, ...]] = {}
    for d in m.degrees:
        composite = composites[d] = m.action(E1, d + d2) @ m.action(E2, d)
        socle_part = image(composite)
        pivots[d + d1 + d2] = socle_part.pivot_rows
        if socle_part.dim:
            # one elimination lifts every target: each column of the right-hand
            # side gets the particular solution it would get on its own
            lifts = composite.solve(socle_part.basis_matrix())
            gens.extend((d, lift) for lift in lifts.cols())
    if not gens:
        ident = {d: Matrix.identity(field, n) for d, n in m.dims_by_degree.items()}
        return FreeSplit({}, zero_module(params), {}, m, ident)
    free_part = direct_sum([make_free(d, params) for d, _ in gens])
    iota_cols: dict[int, list[tuple]] = {}
    for d, gv in gens:
        e1v = m.action(E1, d).apply(gv)
        e2v = m.action(E2, d).apply(gv)
        zv = m.action(E1, d + d2).apply(e2v)
        for deg, vec in ((d, gv), (d + d1, e1v), (d + d2, e2v), (d + d1 + d2, zv)):
            iota_cols.setdefault(deg, []).append(vec)
    iota = {d: Matrix.from_cols(field, iota_cols.get(d, []), nrows=m.dim(d))
            for d in m.degrees}
    comp_spaces = {}
    for d, n in m.dims_by_degree.items():
        acts = ((0, Matrix.identity(field, n)), (d1, m.action(E1, d)),
                (d2, m.action(E2, d)), (d1 + d2, composites[d]))
        comp_spaces[d] = kernel(vstack([act.select_rows(pivots.get(d + step, ()))
                                        for step, act in acts]))
        if comp_spaces[d].dim != n - free_part.dim(d):
            raise InternalError("the socle conditions do not cut out a complement")
    complement, comp_emb = _module_from_subspace(m, comp_spaces)
    ranks = dict(Counter(d for d, _ in gens))
    return FreeSplit(ranks, free_part,
                     {d: iota[d] for d in m.degrees if iota[d].ncols},
                     complement, comp_emb)


def verify_split_free(m: Module, fs: FreeSplit) -> VerifyResult:
    """Certificate check for a free splitting."""
    problems: list[str] = []
    field = m.field
    params = m.params
    for d in m.degrees:
        parts = [emb[d] for emb in (fs.free_embedding, fs.complement_embedding) if d in emb]
        count = sum(part.ncols for part in parts)
        if count != m.dim(d):
            problems.append(f"degree {d}: {count} vectors for dimension {m.dim(d)}")
        elif count and vstack([part.transpose() for part in parts]).rank() != count:
            problems.append(f"degree {d}: free + complement is not a direct sum")
    for name, part, emb in (("free", fs.free_part, fs.free_embedding),
                            ("complement", fs.complement, fs.complement_embedding)):
        for d in part.degrees:
            if d not in emb:
                problems.append(f"{name} embedding missing at degree {d}")
                continue
            for which in (E1, E2):
                step = params.action_degree(which)
                target = (emb[d + step] if d + step in emb else
                          Matrix.zeros(field, m.dim(d + step), part.dim(d + step)))
                if m.action(which, d) @ emb[d] != target @ part.action(which, d):
                    problems.append(f"{name} embedding does not commute with {which} at {d}")
    # with both embeddings commuting and jointly a basis, the complement's own
    # e1e2 vanishes exactly when m's does on its image
    d2 = params.deg_e2
    for d in fs.complement.degrees:
        if not (fs.complement.action(E1, d + d2) @ fs.complement.action(E2, d)).is_zero():
            problems.append(f"complement is not killed by e1e2 at degree {d}")
    image_dims = _composite_image_dims(m)
    for d in set(fs.free_ranks) | set(image_dims):
        want = image_dims.get(d, 0)
        if fs.free_ranks.get(d, 0) != want:
            problems.append(f"free rank at degree {d} is {fs.free_ranks.get(d, 0)}, "
                            f"expected {want}")
    return VerifyResult(not problems, tuple(problems))


def _composite_image_dims(m: Module) -> dict[int, int]:
    """dim of the e1e2-image, indexed by the degree of the free generator."""
    out = {}
    for d in m.degrees:
        r = (m.action(E1, d + m.params.deg_e2) @ m.action(E2, d)).rank()
        if r:
            out[d] = r
    return out
