"""Operator calculus on graded modules.

The decreasing filtration F_0 = M, F_j = e2^{-1}(e1 F_{j-1}) with its
stabilization, the socle, and Margolis homology ker(e)/im(e) for either
generator.

A graded subspace is a dict from degree to ``SubspaceBasis``; its carrier is
read off their ambient dimensions.  One generator builds the chain, and it is
the only image and preimage route here: ``filtration_trace`` runs it to the
first repeated term, and ``filtration(m, j)`` stops at term j.
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
    not move.
    """

    subspaces: tuple[dict[int, SubspaceBasis], ...]
    stable_index: int

    def __getitem__(self, j: int) -> dict[int, SubspaceBasis]:
        # after stabilization every term equals the stable one
        if j >= len(self.subspaces):
            return self.subspaces[self.stable_index]
        return self.subspaces[j]

    @property
    def stable(self) -> dict[int, SubspaceBasis]:
        return self.subspaces[self.stable_index]


def _terms(m: Module):
    """Yield F_0, F_1, ... through the first term equal to its predecessor.

    F_j(d) = e2^{-1}(e1 F_{j-1}(d + gap)).  A degree e2 kills never moves, so
    it keeps F_0's subspace in every term.  Step 1 computes every degree e2
    acts on: the preimage of zero where e1 has no block at d + gap, and
    otherwise the preimage of the images, so a step is one elimination on
    the byte layouts.  Step j recomputes such a degree d only if
    F_{j-1}(d + gap) moved at step j-1 and e1 acts there, and reuses every
    other degree's subspace.  Some step moves no degree within total_dim + 1
    steps, because each moving step shrinks a decreasing chain.
    """
    gap = m.params.gap
    e1, e2 = m.action_items(E1), m.action_items(E2)
    term = {d: SubspaceBasis.full(m.field, n) for d, n in m.dims_by_degree.items()}
    yield term
    todo = list(e2)
    while True:
        prev, term = term, dict(term)
        moved = []
        for d in todo:
            a, b = e1.get(d + gap), e2[d]
            sub = (preimage_space(b, SubspaceBasis.zero(m.field, b.nrows)) if a is None
                   else pullback(b, a, prev[d + gap]))
            if sub != prev[d]:
                term[d] = sub
                moved.append(d)
        yield term
        if not moved:
            return
        todo = [d - gap for d in moved if d in e1 and d - gap in e2]


def filtration_trace(m: Module, j_max: int | None = None) -> FiltrationTrace:
    """The chain to its first repeated term; ``j_max`` is ignored, kept for old callers."""
    chain = tuple(_terms(m))
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


def stable_intersection(m: Module) -> dict[int, SubspaceBasis]:
    """The intersection of the whole chain (= its stable term)."""
    return filtration_trace(m).stable


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

