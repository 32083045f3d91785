"""Operator calculus on graded modules.

The decreasing filtration F_0 = M, F_j = e2^{-1}(e1 F_{j-1}) with its
stabilization, the socle, and Margolis homology ker(e)/im(e) for either
generator.

A graded subspace is a dict from degree to ``SubspaceBasis``; its carrier is
read off their ambient dimensions.  Two walks answer the chain's questions.
``filtration_trace`` builds every term by images and preimages, for the
suite's open-end probes: a pull-back is the preimage under e2 of an image
under e1.  Flash chains repeat one another's blocks, so they share those
pull-backs through one bounded cache.  ``_annihilators`` grows the
annihilators G_j = ann F_j instead and pulls nothing back:
``filtration(m, j)`` reads F_j off it as the kernel of G_j, the suite's
closed-flash and stage items read one walk of the stage, and its
right-infinite window and ``flash_multiplicity_at_degree`` dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import index

from .linalg import Matrix, SubspaceBasis, image, kernel, preimage_space, vstack
from .modules import E1, E2, Module


@dataclass(frozen=True)
class FiltrationTrace:
    """The chain F_0 >= F_1 >= ... out to its first repeated term, built by
    ``filtration_trace``; ``filtration(m, j)`` reads one term off the
    annihilator walk instead.

    ``subspaces`` ends at index ``stable_index + 1``, the first term equal to
    its predecessor; an integer index past the end returns the stable term.
    Consecutive terms share the SubspaceBasis object of every degree that did
    not move, and within a term degrees may share one object, as F_0 does per
    dimension and a step does for degrees with equal blocks and targets.
    """

    subspaces: tuple[dict[int, SubspaceBasis], ...]
    stable_index: int

    def __getitem__(self, j: int) -> dict[int, SubspaceBasis]:
        j = index(j)
        if j < 0:
            raise ValueError("filtration index must be non-negative")
        # after stabilization every term equals the stable one
        return self.subspaces[j if j < len(self.subspaces) else self.stable_index]

    def __iter__(self):
        return iter(self.subspaces)

    @property
    def stable(self) -> dict[int, SubspaceBasis]:
        return self.subspaces[self.stable_index]


@lru_cache(maxsize=256)
def _pulled(b: Matrix, a: Matrix | None, u: SubspaceBasis | None) -> SubspaceBasis:
    """The preimage under the e2 block b of the image a(u), one image and one
    preimage, or of zero where e1 has no block (a and u None).  Keyed on
    values, so degrees, steps and chains with equal blocks and targets share
    one pull-back and its result object (the suite's open-end probes make
    one in all); a block keeps its hash, so a key reads its rows once."""
    target = SubspaceBasis.zero(b.field, b.nrows) if a is None else image(a, u)
    return preimage_space(b, target)


def _annihilators(m: Module):
    """Yield G_0, G_1, ... for G_j = ann F_j, through the first term equal to
    its predecessor, as one dict grown in place: each degree e2 acts on, to
    the functionals spanning G_j(d) in the order added, rows in the family
    layout; G_j(d) is 0 at a degree e2 kills.  dim F_j(d) is dim M_d less
    their count.

    For a linear map f, ann f^{-1}(W) = f^T(ann W) and ann f(U) =
    (f^T)^{-1}(ann U), so G_j(d) = {mu e2 : mu e1 in G_{j-1}(d + gap)}, which
    grows with j.  Degree d keeps one forward pass (the family's ``insert``)
    of the rows [e1 row i | e2 row i] of its blocks at d + gap and d, to
    which each round adds [g | 0] for the functionals g the last round added
    to G(d + gap).  Its vectors with a zero e1 part are [0 | mu e2] for mu e1
    in G(d + gap), so the rows whose pivot falls past that part have G(d)'s
    functionals as tails: a new one is a row the round adds there.  A round
    reduces only the new functionals, one reduction per functional ever
    added, where the primal chain pulls back every moving degree per step.
    """
    fam, gap = m.field._family, m.params.gap
    e1, e2 = m.action_items(E1), m.action_items(E2)
    ann = {d: [] for d in e2}
    passes, todo = {}, {}
    for d, b in e2.items():
        a, zero = e1.get(d + gap), fam.pack((m.field.zero,) * b.ncols)
        head = 0 if a is None else a.ncols
        passes[d] = {}, head, zero
        todo[d] = (b.family_rows() if a is None else
                   [fam.join(x, y, head) for x, y in zip(a.family_rows(), b.family_rows())])
    yield ann
    while True:
        added = {}
        for d, vectors in todo.items():
            rows, head, _ = passes[d]
            got = [fam.insert(rows, v) for v in vectors]
            new = [fam.tail(v, head) for v, pc in filter(None, got) if pc >= head]
            if new:
                ann[d] += new
                added[d] = new
        yield ann
        if not added:
            return
        # G(t) grew: the degree t - gap reads it where e2 acts there and e1 on t
        todo = {}
        for t, new in added.items():
            if t in e1 and t - gap in e2:
                _, head, zero = passes[t - gap]
                todo[t - gap] = [fam.join(g, zero, head) for g in new]


def filtration_trace(m: Module, j_max: int | None = None) -> FiltrationTrace:
    """F_0, F_1, ... through the first term equal to its predecessor; ``j_max``
    is ignored, kept for ``bench/test_bench.py``.

    F_j(d) = e2^{-1}(e1 F_{j-1}(d + gap)).  A degree e2 kills never moves, so
    it keeps F_0's subspace in every term.  Step 1 computes every degree e2
    acts on: the preimage of zero where e1 has no block at d + gap, one
    elimination, and otherwise the preimage of the image, two.  Step j recomputes such a degree d only if
    F_{j-1}(d + gap) moved at step j-1 and e1 acts there, and reuses every
    other degree's subspace.  Some step moves no degree within total_dim + 1
    steps, because each moving step shrinks a decreasing chain.  F_j shrinks,
    and an echelon form cannot drop a vector, so a step cannot build on the
    last one, as ``_annihilators`` does on the growing dual chain.
    """
    gap = m.params.gap
    e1, e2 = m.action_items(E1), m.action_items(E2)
    # F_0 shares one immutable full space among the degrees of each dimension
    full = {n: SubspaceBasis.full(m.field, n) for n in set(m.dims_by_degree.values())}
    term = {d: full[n] for d, n in m.dims_by_degree.items()}
    chain, todo = [term], list(e2)
    while True:
        prev, term = term, dict(term)
        moved = []
        for d in todo:
            a = e1.get(d + gap)
            sub = _pulled(e2[d], a, None if a is None else prev[d + gap])
            if sub != prev[d]:
                term[d] = sub
                moved.append(d)
        chain.append(term)
        if not moved:
            return FiltrationTrace(tuple(chain), len(chain) - 2)
        todo = [d - gap for d in moved if d in e1 and d - gap in e2]


def filtration(m: Module, j: int) -> dict[int, SubspaceBasis]:
    """Term j of the chain F_0 = M, F_j = e2^{-1}(e1 F_{j-1}), off j rounds of
    ``_annihilators``: F_j(d) is the kernel of G_j(d)'s functionals, or the
    full space, shared per dimension, where G_j(d) is zero.  Past the first
    repeated term every term is the stable one; j must be an integer."""
    j = index(j)
    if j < 0:
        raise ValueError("filtration index must be non-negative")
    # one dict, grown in place: its yield i holds G_i
    for i, ann in enumerate(_annihilators(m)):
        if i == j:
            break
    field, dims = m.field, m.dims_by_degree
    full = {n: SubspaceBasis.full(field, n) for n in set(dims.values())}
    return {d: kernel(Matrix.from_cols(field, ann[d], n, _raw=True).transpose())
            if ann.get(d) else full[n] for d, n in dims.items()}


def socle(m: Module) -> dict[int, SubspaceBasis]:
    """ker e1 intersected with ker e2, degreewise: the kernel of their stored
    blocks stacked, and the whole degree where neither has one."""
    e1, e2 = m.action_items(E1), m.action_items(E2)
    return {d: kernel(vstack([b[d] for b in (e1, e2) if d in b])) if d in e1 or d in e2
            else SubspaceBasis.full(m.field, n) for d, n in m.dims_by_degree.items()}


def margolis_homology(m: Module, which: str) -> dict[int, int]:
    """Degreewise dim ker(e)/im(e); well-defined because e squares to zero.

    Only nonzero entries appear in the result.
    """
    step = m.params.action_degree(which)
    # one rank per block, for the kernel at d and the image at d + step; absent blocks are zero
    ranks = {d: a.rank() for d, a in m.action_items(which).items()}
    out = {}
    for d in m.degrees:
        h = m.dim(d) - ranks.get(d, 0) - ranks.get(d - step, 0)
        if h:
            out[d] = h
    return out

