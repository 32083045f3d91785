"""Operator calculus on graded modules.

The decreasing filtration F_0 = M, F_j = e2^{-1}(e1 F_{j-1}) with its
stabilization, the socle, and Margolis homology ker(e)/im(e) for either
generator.

A graded subspace is a dict from degree to ``SubspaceBasis``; its carrier is
read off their ambient dimensions.  Two generators walk the chain.
``_terms`` builds the terms F_j by images and preimages, for the readers that
need subspaces: ``filtration_trace`` runs it to the first repeated term,
``filtration(m, j)`` stops at term j, and the suite's flash items, probes and
right-infinite window read it.  ``_annihilators`` grows the annihilators
G_j = ann F_j instead, for the readers that need only dimensions: the
suite's stage items and ``flash_multiplicity_at_degree``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import SubspaceBasis, kernel, preimage_space, pullback, vstack
from .modules import E1, E2, Module


@dataclass(frozen=True)
class FiltrationTrace:
    """The chain F_0 >= F_1 >= ... out to its first repeated term.

    ``subspaces`` ends at index ``stable_index + 1``, the first term equal to
    its predecessor; indexing past the end returns the stable term.
    Consecutive terms share the SubspaceBasis object of every degree that did
    not move, and within a term degrees may share one object, as F_0 does per
    dimension and a step does for degrees pulled back from blocks and targets
    of equal value.
    """

    subspaces: tuple[dict[int, SubspaceBasis], ...]
    stable_index: int

    def __getitem__(self, j: int) -> dict[int, SubspaceBasis]:
        if j < 0:
            raise ValueError("filtration index must be non-negative")
        # after stabilization every term equals the stable one
        if j >= len(self.subspaces):
            return self.subspaces[self.stable_index]
        return self.subspaces[j]

    def __iter__(self):
        return iter(self.subspaces)

    @property
    def stable(self) -> dict[int, SubspaceBasis]:
        return self.subspaces[self.stable_index]


def _terms(m: Module, pulled: dict | None = None):
    """Yield F_0, F_1, ... through the first term equal to its predecessor.

    F_j(d) = e2^{-1}(e1 F_{j-1}(d + gap)).  A degree e2 kills never moves, so
    it keeps F_0's subspace in every term.  Step 1 computes every degree e2
    acts on: the preimage of zero where e1 has no block at d + gap, and
    otherwise the preimage of the images, so a step is one elimination on
    the bit and byte layouts.  Step j recomputes such a degree d only if
    F_{j-1}(d + gap) moved at step j-1 and e1 acts there, and reuses every
    other degree's subspace.  Some step moves no degree within total_dim + 1
    steps, because each moving step shrinks a decreasing chain.

    F_j shrinks, and an echelon form cannot drop a vector, so a step cannot
    build on the last one; ``_annihilators`` walks the growing dual chain for
    readers of dimensions alone.

    Degrees whose e2 block, e1 block and F_{j-1}(d + gap) are equal in value
    share one pull-back and its result object; a block keeps its hash, so a
    key costs no pass over its rows after the first.  Without ``pulled`` each
    step has a dict of its own.  A caller that walks many chains over one
    algebra may hand them one dict ``pulled``, through ``filtration_trace`` or
    ``suite.exclusion_probe``: flashes share their blocks and targets, so
    their chains repeat one another, and the dict holds every pull-back.
    """
    gap = m.params.gap
    e1, e2 = m.action_items(E1), m.action_items(E2)
    # F_0 shares one immutable full space among the degrees of each dimension
    full = {n: SubspaceBasis.full(m.field, n) for n in set(m.dims_by_degree.values())}
    term = {d: full[n] for d, n in m.dims_by_degree.items()}
    yield term
    todo = list(e2)
    while True:
        prev, term = term, dict(term)
        moved = []
        memo = {} if pulled is None else pulled
        for d in todo:
            b, a, u = key = e2[d], e1.get(d + gap), prev.get(d + gap)
            sub = memo.get(key)
            if sub is None:
                sub = memo[key] = (
                    preimage_space(b, SubspaceBasis.zero(m.field, b.nrows)) if a is None
                    else pullback(b, a, u))
            if sub != prev[d]:
                term[d] = sub
                moved.append(d)
        yield term
        if not moved:
            return
        todo = [d - gap for d in moved if d in e1 and d - gap in e2]


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


def filtration_trace(m: Module, j_max: int | None = None, *,
                     pulled: dict | None = None) -> FiltrationTrace:
    """The chain to its first repeated term, its pull-backs kept in ``pulled``
    (see ``_terms``); ``j_max`` is ignored, kept for ``bench/test_bench.py``."""
    chain = tuple(_terms(m, pulled))
    return FiltrationTrace(chain, len(chain) - 2)


def filtration(m: Module, j: int) -> dict[int, SubspaceBasis]:
    """Term j of the chain F_0 = M, F_j = e2^{-1}(e1 F_{j-1}); builds only F_0 .. F_j.

    Past the first repeated term every term is the stable one.
    """
    if j < 0:
        raise ValueError("filtration index must be non-negative")
    for i, term in enumerate(_terms(m)):
        if i == j:
            break
    return term


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

