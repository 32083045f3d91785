"""Operator calculus on graded modules.

The decreasing filtration F_0 = M, F_j = e2^{-1}(e1 F_{j-1}) with its
stabilization, degree slices, the socle, and Margolis homology ker(e)/im(e)
for either generator.

A graded subspace is its per-degree spaces; its carrier is read off their
ambient dimensions.  One generator builds the chain, and it is the only
image and preimage route here: ``filtration_trace`` runs it to the first
repeated term, and ``filtration(m, j)`` stops at term j.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .linalg import SubspaceBasis, image, kernel, preimage_space, vstack
from .modules import E1, E2, Module


class GradedSubspace:
    """A per-degree subspace of a module's carrier, canonical in every degree."""

    __slots__ = ("field", "spaces")

    def __init__(self, field, spaces: dict[int, SubspaceBasis]):
        self.field = field
        self.spaces = dict(spaces)

    @classmethod
    def full(cls, m: Module) -> "GradedSubspace":
        return cls(m.field, {d: SubspaceBasis.full(m.field, n)
                             for d, n in m.dims_by_degree.items()})

    def dims(self) -> dict[int, int]:
        return {d: s.dim for d, s in self.spaces.items() if s.dim}

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedSubspace):
            return NotImplemented
        # SubspaceBasis.__eq__ compares the ambient dimensions too
        return self.spaces == other.spaces

    __hash__ = None

    def __repr__(self) -> str:
        return f"GradedSubspace({self.dims()})"


@dataclass(frozen=True)
class FiltrationTrace:
    """The chain F_0 >= F_1 >= ... out to its first repeated term.

    ``subspaces`` ends at index ``stable_index + 1``, the first term equal to
    its predecessor; indexing past the end returns the stable term.
    Consecutive terms share the SubspaceBasis object of every degree that did
    not move.
    """

    subspaces: tuple[GradedSubspace, ...]
    stable_index: int

    def __getitem__(self, j: int) -> GradedSubspace:
        # after stabilization every term equals the stable one
        if j >= len(self.subspaces):
            return self.subspaces[self.stable_index]
        return self.subspaces[j]

    @property
    def stable(self) -> GradedSubspace:
        return self.subspaces[self.stable_index]


def _terms(m: Module):
    """Yield F_0, F_1, ... through the first term equal to its predecessor.

    F_j(d) = e2^{-1}(e1 F_{j-1}(d + gap)).  Step 1 computes every degree.
    Step j recomputes degree d only if F_{j-1}(d + gap) moved at step j-1 and
    reuses every other degree's subspace.  Some step moves no degree within
    total_dim + 1 steps, because each moving step shrinks a decreasing chain.
    """
    p = m.params
    term = GradedSubspace.full(m)
    yield term
    todo = m.degrees
    while True:
        prev = term.spaces
        term = GradedSubspace(m.field, prev)
        moved = []
        for d in todo:
            source = prev.get(d + p.gap)
            n = m.dim(d + p.deg_e2)
            target = SubspaceBasis.zero(m.field, n)
            if source is not None and source.dim and n:
                target = image(m.action(E1, d + p.gap), source)
            sub = preimage_space(m.action(E2, d), target)
            if sub != prev[d]:
                term.spaces[d] = sub
                moved.append(d)
        yield term
        if not moved:
            return
        todo = [d - p.gap for d in moved if d - p.gap in prev]


def filtration_trace(m: Module, j_max: int | None = None) -> FiltrationTrace:
    """The chain to its first repeated term; ``j_max`` is ignored, kept for old callers."""
    chain = tuple(_terms(m))
    return FiltrationTrace(chain, len(chain) - 2)


def filtration(m: Module, j: int) -> GradedSubspace:
    """Term j of the chain F_0 = M, F_j = e2^{-1}(e1 F_{j-1}); builds only F_0 .. F_j."""
    if j < 0:
        raise ValueError("filtration index must be non-negative")
    for term in islice(_terms(m), j + 1):
        pass
    return term


def stable_intersection(m: Module) -> GradedSubspace:
    """The intersection of the whole chain (= its stable term)."""
    return filtration_trace(m).stable


def degree_part(u: GradedSubspace, d: int) -> SubspaceBasis:
    """The degree-d slice of a graded subspace."""
    sub = u.spaces.get(d)
    if sub is not None:
        return sub
    return SubspaceBasis.zero(u.field, 0)


def socle(m: Module) -> GradedSubspace:
    """ker e1 intersected with ker e2, degreewise: the kernel of both stacked."""
    spaces = {d: kernel(vstack([m.action(E1, d), m.action(E2, d)]))
              for d in m.dims_by_degree}
    return GradedSubspace(m.field, spaces)


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

