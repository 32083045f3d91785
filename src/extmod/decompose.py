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
the weakest domain strand is matched first, to the strongest codomain strand
it reaches, so every clearing runs from a weaker strand into a stronger one.
Every clearing updates the strand's realization vectors, so the finished
strands are an explicit certified basis of the module and each strand reads
off directly as one flash summand.

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

from .linalg import (Field, Matrix, SubspaceBasis, hstack, image, kernel,
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


class _Strand:
    """A summand under construction: a contiguous run of chain positions.

    Even positions 2k are bottoms B_k, odd positions 2k+1 are tops T_k.
    ``strength`` is the admissibility class of the open strand: who may
    absorb whom during elimination.  While the sweep runs, the vectors are in
    the family layout of the module's field (packed ints over F_p for p <= 13,
    tuples elsewhere), and every update goes through that family.
    """

    __slots__ = ("left_pos", "right_pos", "vectors")

    def __init__(self, pos: int, vector):
        self.left_pos = pos
        self.right_pos = pos
        self.vectors = {pos: vector}

    @property
    def left_is_top(self) -> bool:
        return self.left_pos % 2 == 1

    @property
    def strength(self) -> tuple[int, int]:
        # dangling-top left ends beat bottom ends; among tops the later start
        # wins, among bottoms the earlier one does
        if self.left_is_top:
            return (1, self.left_pos)
        return (0, -self.left_pos)

    def join(self, other: "_Strand") -> None:
        """Append the strand that starts right after this one ends."""
        if other.left_pos != self.right_pos + 1:
            raise InternalError("joined strands are not adjacent")
        self.vectors.update(other.vectors)
        self.right_pos = other.right_pos

    def scale(self, c, family) -> None:
        for pos, vec in self.vectors.items():
            self.vectors[pos] = family.scale(vec, c)

    def absorb(self, other: "_Strand", c, family) -> None:
        """Add c times the other strand's realization along the overlap."""
        if self.right_pos != other.right_pos or self.strength < other.strength:
            raise InternalError("inadmissible elimination")
        mine, theirs = self.vectors, other.vectors
        for pos in range(max(self.left_pos, other.left_pos), self.right_pos + 1):
            mine[pos] = family.add_scaled(mine[pos], theirs[pos], c)


def _pivots(cod: list[_Strand], dom: list[_Strand], column):
    """The pivot rule: (ci, pr) pairs, one at a time.

    Domain strands go weakest first, and each takes the strongest codomain
    strand not yet taken, by ``(strength, -index)``, whose entry
    ``column(ci)[pr]`` is nonzero.  ``column`` is read only when column ci
    is due, after the caller has eliminated the earlier pivots.
    """
    rows = sorted(range(len(cod)), key=lambda r: (cod[r].strength, -r), reverse=True)
    for ci in sorted(range(len(dom)), key=lambda c: dom[c].strength):
        col = column(ci)
        pr = next((r for r in rows if col[r]), None)
        if pr is not None:
            rows.remove(pr)
            yield ci, pr


def _match(field: Field, act: Matrix, cod: list[_Strand],
           dom: list[_Strand]) -> list[tuple[_Strand, _Strand]]:
    """Pair domain strands with codomain strands through one action.

    ``a[r]`` holds row r of the coordinates of ``act`` applied to the last
    vectors of the domain strands over the last vectors of the codomain
    strands, entry c for ``dom[c]``, as a vector in the field's family layout.
    Row operations make a codomain strand absorb another, column operations
    make a domain strand absorb another and normalisation scales the domain
    strand, until ``a`` is a partial identity.  The pivot column is scaled
    only through the coefficients of the row operations, and over F2, where
    every nonzero entry is 1, nothing is scaled at all.  Returns the
    (codomain, domain) pivot pairs: ``act`` maps the domain strand's last
    vector onto the codomain strand's.
    """
    if not dom:
        return []
    fam = field._family
    imgs = [fam.apply(act, s.vectors[s.right_pos]) for s in dom]
    if not cod:
        if any(map(fam.nonzero, imgs)):
            raise InternalError("action image escapes the socle layer")
        return []
    k = len(cod)
    # one span of the rows of [T | B], with the codomain strands' last vectors
    # as the columns of T and the images as those of B
    rows, piv = fam.span(fam.transpose([s.vectors[s.right_pos] for s in cod] + imgs,
                                       act.nrows), k + len(dom))
    # T's columns are independent, so the coordinates exist exactly when T's
    # columns are the pivots; then row r is the unit vector at r followed by a[r]
    if piv != list(range(k)):
        raise InternalError("socle coordinates must exist")
    a = [fam.tail(row, k) for row in rows]
    entry, one = fam.entry, field.one
    pairs = []
    for ci, pr in _pivots(cod, dom, lambda c: [entry(row, c) for row in a]):
        prow = a[pr]
        inv = one
        if entry(prow, ci) != one:
            inv = field.inv(entry(prow, ci))
            dom[ci].scale(inv, fam)
        for ri, row in enumerate(a):
            x = entry(row, ci)
            if ri != pr and x:
                c = field.mul(x, inv)
                cod[pr].absorb(cod[ri], c, fam)
                a[ri] = fam.add_scaled(row, prow, field.neg(c))
        # column ci is now the unit vector at pr, so clearing row pr is the
        # whole column operation
        for cj in range(len(dom)):
            c = entry(prow, cj)
            if cj != ci and c:
                dom[cj].absorb(dom[ci], field.neg(c), fam)
        a[pr] = fam.unit(ci, len(dom))
        pairs.append((cod[pr], dom[ci]))
    return pairs


def _sweep_chain(m: Module, residue: int,
                 vecs: dict[int, list[tuple]]) -> list[Summand]:
    """Reduce one chain; ``vecs[pos]`` are its vectors at chain position pos.

    The strands hold vectors in the field's family layout, unpacked once per
    finished strand.
    """
    field = m.field
    fam = field._family
    strands: list[_Strand] = []
    open_: list[_Strand] = []
    # a position with no vectors after one with none has nothing to match, so
    # only the occupied positions run, each with the one after it, which
    # checks that the strands open there are closed
    for pos in sorted({*vecs, *(p + 1 for p in vecs)}):
        fresh = [_Strand(pos, fam.pack(v)) for v in vecs.get(pos, [])]
        deg = residue + (pos // 2) * m.params.gap
        if pos % 2 == 0:
            # bottoms: e1 maps the fresh strands onto the open tops
            pairs = _match(field, m.action(E1, deg), open_, fresh)
        else:
            # tops: e2 maps the open bottoms onto the fresh strands
            pairs = [(b, t) for t, b in _match(field, m.action(E2, deg), fresh, open_)]
        joined = {}
        for left, new in pairs:
            left.join(new)
            joined[new] = left
        strands.extend(s for s in fresh if s not in joined)
        open_ = [joined.get(s, s) for s in fresh]
    for s in strands:
        s.vectors = {pos: fam.unpack(v, len(vecs[pos][0])) for pos, v in s.vectors.items()}
    return [_summand_from_strand(s, residue, m.params) for s in strands]


def _summand_from_strand(strand: _Strand, residue: int, params) -> Summand:
    """The summand a finished strand, with its vectors unpacked, reads off as."""
    vectors = strand.vectors
    evens = sorted(p for p in vectors if p % 2 == 0)
    odds = sorted(p for p in vectors if p % 2)

    def bottom_deg(pos: int) -> int:
        return residue + (pos // 2) * params.gap

    def top_deg(pos: int) -> int:
        return residue + ((pos - 1) // 2) * params.gap + params.deg_e2

    if not evens:
        # a socle vector nothing maps onto: a simple summand
        (pos,) = odds
        return Summand(FlashShape.simple(top_deg(pos)), (vectors[pos],), ())
    k0 = evens[0] // 2
    shape = FlashShape.finite(len(evens),
                              left_top=strand.left_is_top,
                              right_top=strand.right_pos % 2 == 1,
                              shift=bottom_deg(evens[0]))
    bottoms = tuple(vectors[p] for p in evens)
    tops = tuple(((p - 1) // 2 - k0, vectors[p]) for p in odds)
    return Summand(shape, bottoms, tops)


def _require_valid(m: Module) -> None:
    bad = validate(m)
    if bad:
        raise ValueError("invalid module: " + "; ".join(map(str, bad)))


def decompose(m: Module) -> Decomposition:
    """Split a valid finite variant-B module into lightning flashes.

    The returned multiset of shapes is an isomorphism invariant; the summand
    vectors are an explicit basis realization checkable with
    :func:`verify_decomposition`.
    """
    if m.params.variant != "B":
        raise ValueError("decompose works over variant B; run split_free first")
    _require_valid(m)
    if m.total_dim == 0:
        return Decomposition(())
    g = m.params.gap
    soc = socle(m)
    chains: dict[int, dict[int, list[tuple]]] = {}
    for d in m.degrees:
        bott = standard_complement(soc[d])
        if bott:
            chains.setdefault(d % g, {})[2 * (d // g)] = bott
        tops = soc[d].vectors()
        if tops:
            b = d - m.params.deg_e2
            chains.setdefault(b % g, {})[2 * (b // g) + 1] = tops
    summands: list[Summand] = []
    for r in sorted(chains):
        summands.extend(_sweep_chain(m, r, chains[r]))
    return Decomposition(tuple(sorted(summands, key=_summand_sort_key)))


def multiplicities(m: Module) -> Counter:
    """The multiset of flash shapes (with shifts) of a variant-B module."""
    return decompose(m).multiset()


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
        elif SubspaceBasis.from_spanning(field, n, vecs, _raw=True).dim != n:
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
            for i in range(nt):
                for j in range(nd):
                    row = [field.zero] * nvars
                    for k in range(nt):
                        if act[k, j]:
                            idx = offsets[t] + i * nt + k
                            row[idx] = field.add(row[idx], act[k, j])
                    for k in range(nd):
                        if act[i, k]:
                            idx = offsets[d] + k * nd + j
                            row[idx] = field.sub(row[idx], act[i, k])
                    rows.append(row)
    return rows, nvars


def _hom_blocks(m: Module, flat) -> dict[int, Matrix]:
    """Cut a solution vector of :func:`_hom_system` into its blocks phi_d."""
    out = {}
    pos = 0
    for d in m.degrees:
        nd = m.dim(d)
        out[d] = Matrix(m.field, [flat[pos + i * nd:pos + (i + 1) * nd] for i in range(nd)],
                        ncols=nd, _raw=True)
        pos += nd * nd
    return out


def endomorphism_basis(m: Module) -> list[dict[int, Matrix]]:
    """A basis of the space of degree-0 graded module endomorphisms."""
    rows, nvars = _hom_system(m)
    # _hom_system makes every entry with Field.add and Field.sub: canonical
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
    """Split M = ker(phi^N) + im(phi^N) when both sides are proper."""
    n_total = m.total_dim
    kspaces, ispaces = {}, {}
    kdim = 0
    for d, n in m.dims_by_degree.items():
        # Fitting's lemma: the kernel and image of phi_d^k stop changing by k = n
        power = phi[d].power(n)
        k, i = kernel(power), image(power)
        if k.dim + i.dim != n or sum_space(k, i).dim != n:
            raise InternalError("Fitting decomposition failed to be direct")
        kspaces[d], ispaces[d] = k, i
        kdim += k.dim
    if kdim == 0 or kdim == n_total:
        return None
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
    if p and p ** r <= 4096:
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
    splits.  The result is verified before it is returned.
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
        for phi in _split_candidates(cur, endos, rng):
            split = _fitting_split(cur, phi)
            if split is None:
                continue
            for spaces in split:
                sub, sub_emb = _module_from_subspace(cur, spaces)
                rec(sub, {d: emb[d] @ sub_emb[d] for d in sub.dims_by_degree})
            return
        out.append(_canonical_leaf(cur, emb))

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
        elif count and hstack(parts).rank() != count:
            problems.append(f"degree {d}: free + complement is not a direct sum")
    for name, part, emb in (("free", fs.free_part, fs.free_embedding),
                            ("complement", fs.complement, fs.complement_embedding)):
        for d in part.degrees:
            if d not in emb:
                problems.append(f"{name} embedding missing at degree {d}")
                continue
            for which in (E1, E2):
                step = params.action_degree(which)
                target = emb.get(d + step, Matrix.zeros(field, m.dim(d + step),
                                                        part.dim(d + step)))
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
