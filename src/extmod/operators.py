"""Operator calculus on graded modules.

Degreewise subspaces, action images, e2-preimages, the decreasing filtration
F_0 = M, F_j = e2^{-1}(e1 F_{j-1}) with its stabilization, degree slices,
socle and radical, and Margolis homology ker(e)/im(e) for either generator.

A graded subspace is its per-degree spaces; its carrier is read off their
ambient dimensions.  One generator builds the chain: ``filtration_trace``
runs it to the first repeated term, and ``filtration(m, j)`` stops at term j.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .linalg import SubspaceBasis, image, kernel, preimage_space, sum_space, vstack
from .modules import E1, E2, Module


class GradedSubspace:
    """A per-degree subspace of a module's carrier, canonical in every degree."""

    __slots__ = ("field", "spaces")

    def __init__(self, field, spaces: dict[int, SubspaceBasis]):
        self.field = field
        self.spaces = dict(spaces)

    @property
    def parent_dims(self) -> dict[int, int]:
        return {d: s.ambient_dim for d, s in self.spaces.items()}

    # -- constructors -----------------------------------------------------------

    @classmethod
    def full(cls, m: Module) -> "GradedSubspace":
        return cls(m.field, {d: SubspaceBasis.full(m.field, n)
                             for d, n in m.dims_by_degree.items()})

    @classmethod
    def zero(cls, m: Module) -> "GradedSubspace":
        return cls(m.field, {d: SubspaceBasis.zero(m.field, n)
                             for d, n in m.dims_by_degree.items()})

    # -- views -------------------------------------------------------------------

    def dims(self) -> dict[int, int]:
        return {d: s.dim for d, s in self.spaces.items() if s.dim}

    @property
    def total_dim(self) -> int:
        return sum(s.dim for s in self.spaces.values())

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def contains(self, other: "GradedSubspace") -> bool:
        if self.parent_dims != other.parent_dims:
            raise ValueError("subspaces of different carriers")
        return all(self.spaces[d].contains_subspace(other.spaces[d])
                   for d in self.spaces)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedSubspace):
            return NotImplemented
        # SubspaceBasis.__eq__ compares the ambient dimensions too
        return self.spaces == other.spaces

    __hash__ = None

    def __repr__(self) -> str:
        return f"GradedSubspace({self.dims()})"


def _check_ambient(m: Module, u: GradedSubspace) -> None:
    if u.parent_dims != m.dims_by_degree:
        raise ValueError("graded subspace does not live in this module's carrier")


def act_image(m: Module, which: str, u: GradedSubspace) -> GradedSubspace:
    """Degreewise image of u under the chosen action."""
    _check_ambient(m, u)
    step = m.params.action_degree(which)
    spaces = {d: SubspaceBasis.zero(m.field, n) for d, n in m.dims_by_degree.items()}
    for d, sub in u.spaces.items():
        if sub.dim and m.dim(d + step):
            spaces[d + step] = image(m.action(which, d), sub)
    return GradedSubspace(m.field, spaces)


def op_preimage(m: Module, which: str, u: GradedSubspace) -> GradedSubspace:
    """Degreewise {v : (action) v lies in u}; always contains the kernel."""
    _check_ambient(m, u)
    step = m.params.action_degree(which)
    field = m.field
    spaces = {}
    for d, n in m.dims_by_degree.items():
        target = u.spaces.get(d + step,
                              SubspaceBasis.zero(field, m.dim(d + step)))
        spaces[d] = preimage_space(m.action(which, d), target)
    return GradedSubspace(m.field, spaces)


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


def radical(m: Module) -> GradedSubspace:
    """im e1 + im e2, degreewise."""
    p = m.params
    field = m.field
    spaces = {}
    for d, n in m.dims_by_degree.items():
        parts = SubspaceBasis.zero(field, n)
        for which, step in ((E1, p.deg_e1), (E2, p.deg_e2)):
            if m.dim(d - step):
                parts = sum_space(parts, image(m.action(which, d - step)))
        spaces[d] = parts
    return GradedSubspace(m.field, spaces)


def margolis_homology(m: Module, which: str) -> dict[int, int]:
    """Degreewise dim ker(e)/im(e); well-defined because e squares to zero.

    Only nonzero entries appear in the result.
    """
    step = m.params.action_degree(which)
    out = {}
    for d in m.degrees:
        k = m.dim(d) - m.action(which, d).rank()
        i = m.action(which, d - step).rank() if m.dim(d - step) else 0
        if k - i:
            out[d] = k - i
    return out

