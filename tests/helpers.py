"""Seeded random generators shared across the test modules."""

import random
import re
from fractions import Fraction

from extmod import operators
from extmod.decompose import InternalError
from extmod.linalg import (Field, Matrix, SubspaceBasis, image, kernel, preimage_space,
                           standard_complement, sum_space, vstack)
from extmod.modules import (E1, E2, AlgebraParams, FlashShape, Module, Violation,
                            default_params, direct_sum, make_flash, validate)
from extmod.textio import DocumentError


def random_matrix(field, nrows, ncols, rng):
    if field.characteristic:
        rows = [[rng.randrange(field.characteristic) for _ in range(ncols)]
                for _ in range(nrows)]
    else:
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
    return Matrix(field, rows, ncols=ncols)


def random_fraction_matrix(nrows, ncols, rng):
    """A matrix over Q of small fractions, about one entry in fifty over a
    denominator near 10**20."""
    def entry():
        if rng.random() < 0.02:
            return Fraction(rng.randint(-9, 9), 10**20 + rng.randint(-99, 99))
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12))

    return Matrix(Field(0), [[entry() for _ in range(ncols)] for _ in range(nrows)],
                  ncols=ncols)


def reference_product(a, b):
    """a @ b entry by entry as sum(x * y), the formula every field shares."""
    zero = a.field.zero
    rows = [[sum((x * y for x, y in zip(row, col)), zero) for col in b.cols()]
            for row in a.rows]
    return Matrix(a.field, rows, ncols=b.ncols)


def hstack(mats):
    """The matrices side by side: the transpose of their transposes stacked."""
    return vstack([m.transpose() for m in mats]).transpose()


def reference_kernel_matrix(m):
    """``Matrix.kernel_matrix`` by its free columns: for each free column fc
    of the reduced rows, in turn, the vector that is 1 at fc, 0 at the other
    free columns and minus the row's entry at fc at each pivot column."""
    f, n = m.field, m.ncols
    red, piv = m.rref_pivots()
    cols = []
    for fc in (c for c in range(n) if c not in piv):
        v = [f.zero] * n
        v[fc] = f.one
        for i, pc in enumerate(piv):
            v[pc] = f.neg(red[i, fc])
        cols.append(v)
    return Matrix.from_cols(f, cols, nrows=n)


def reference_apply(m, vec):
    """m.apply(vec) entry by entry."""
    return reference_product(m, Matrix.from_cols(m.field, [vec])).col(0)


def reference_row_reduce(field, rows, n_pivot_cols):
    """Reduced row echelon over the first n_pivot_cols columns, on lists of entries.

    The elimination every field used before F2 moved to packed rows: same
    pivot search, same swaps, same row updates, so pivots and every row,
    augmented columns included, must come out equal.
    """
    p = field.characteristic
    m = len(rows)
    n = len(rows[0]) if m else 0
    pivots = []
    r = 0
    for c in range(min(n_pivot_cols, n)):
        pr = next((i for i in range(r, m) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        a = rows[r][c]
        if a != field.one:
            inv = field.inv(a)
            rows[r] = [(x * inv) % p if p else x * inv for x in rows[r]]
        top = rows[r]
        for i in range(m):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p if p else x - f * y
                           for x, y in zip(rows[i], top)]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return pivots


def reference_random_invertible(field, n, rng):
    """``modules._random_invertible`` as it drew before its draws were batched.

    One ``rng.randrange(p)`` per entry over F_p and one ``rng.randint(-3, 3)``
    over Q, row by row, and the inverse read off the list elimination of
    [A | I]; a candidate of lower rank is drawn again.
    """
    p = field.characteristic
    for _ in range(10000):
        if p:
            rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
        else:
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        aug = [row + [field.one if j == i else field.zero for j in range(n)]
               for i, row in enumerate(rows)]
        if len(reference_row_reduce(field, aug, n)) == n:
            return (Matrix(field, rows, ncols=n),
                    Matrix(field, [row[n:] for row in aug], ncols=n))
    raise RuntimeError("failed to sample an invertible matrix")


def reference_random_basis_change(m, seed):
    """``modules.random_basis_change`` with one ``randrange`` or ``randint`` per
    entry: ``reference_random_invertible`` degree after degree on one
    ``Random(seed)``, each block conjugated by entry-by-entry products."""
    rng = random.Random(seed)
    pairs = {d: reference_random_invertible(m.field, n, rng)
             for d, n in m.dims_by_degree.items()}

    def conj(which, step):
        return {d: reference_product(pairs[d + step][1], reference_product(a, pairs[d][0]))
                for d, a in m.action_items(which).items()}

    return Module(m.params, m.dims_by_degree, conj(E1, m.params.deg_e1),
                  conj(E2, m.params.deg_e2))


def scramble_test_module(char, dims, seed=0):
    """A module over F_char, Q for 0, with dims[d] in degree d and a random
    e1 and e2 block out of every degree that has a target: no relation holds,
    but a basis change conjugates every block."""
    params = default_params(char)
    rng = random.Random(seed)
    degs = dict(enumerate(dims))

    def blocks(step):
        return {d: random_matrix(params.field, degs[d + step], n, rng)
                for d, n in degs.items() if d + step in degs}

    return Module(params, degs, blocks(params.deg_e1), blocks(params.deg_e2))


def count_coerce(monkeypatch):
    """Count ``Field.coerce`` calls from now on, in a one-element list."""
    calls = [0]
    real = Field.coerce

    def counted(field, value):
        calls[0] += 1
        return real(field, value)

    monkeypatch.setattr(Field, "coerce", counted)
    return calls


def count_fraction_arithmetic(monkeypatch):
    """Count calls of ``Fraction`` +, - and *, either operand first, in a one-element list."""
    calls = [0]
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        def counted(a, b, real=getattr(Fraction, name)):
            calls[0] += 1
            return real(a, b)

        monkeypatch.setattr(Fraction, name, counted)
    return calls


def count_fraction_new(monkeypatch):
    """Count ``Fraction`` constructions from now on, in a one-element list.

    Every ``Fraction`` a constructor call or an arithmetic operator returns
    goes through ``Fraction.__new__``.
    """
    calls = [0]
    real = Fraction.__new__

    def counted(cls, *args, **kwargs):
        calls[0] += 1
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
    return calls


def count_span(monkeypatch, field, cells=None):
    """Count calls of the ``span`` of field's family from now on, in a one-element list.

    The count covers every field of that family, as each ``Field`` has its own
    family object.  A span cut at a head, as a byte-layout preimage makes, is
    passed the cut and counts as one span.  With ``cells``, each call also
    appends its number of vectors times their length.
    """
    calls = [0]
    cls = type(field._family)
    real = cls.span

    def counted(fam, vectors, n, *head):
        vectors = list(vectors)
        calls[0] += 1
        if cells is not None:
            cells.append(len(vectors) * n)
        return real(fam, vectors, n, *head)

    monkeypatch.setattr(cls, "span", counted)
    return calls


def reference_span(field, ambient_dim, vectors):
    """The canonical basis of a span, by the list elimination over every field."""
    rows = [[field.coerce(x) for x in v] for v in vectors]
    pivots = reference_row_reduce(field, rows, ambient_dim)
    return SubspaceBasis(field, ambient_dim, tuple(tuple(r) for r in rows[:len(pivots)]),
                         tuple(pivots))


def reference_kernel(m):
    """kernel(m) in two eliminations: the forward free-variable basis, then its
    reduced echelon form."""
    return reference_span(m.field, m.ncols, reference_kernel_matrix(m).cols())


def reference_preimage(m, u):
    """{v : m @ v in u} as the canonicalised heads of ker [m | -B], B a basis of u."""
    if u.dim == 0:
        return reference_kernel(m)
    ker = reference_kernel_matrix(hstack([m, u.basis_matrix().scaled(-1)]))
    heads = [col[:m.ncols] for col in ker.cols()]
    return reference_span(m.field, m.ncols, heads)


def reference_intersect(u, v):
    """u ∩ v from the kernel of [Bu | -Bv], mapped through Bu."""
    if u.dim == 0 or v.dim == 0:
        return SubspaceBasis.zero(u.field, u.ambient_dim)
    bu = u.basis_matrix()
    ker = reference_kernel_matrix(hstack([bu, v.basis_matrix().scaled(-1)]))
    vecs = [bu.apply(col[:bu.ncols]) for col in ker.cols()]
    return reference_span(u.field, u.ambient_dim, vecs)


def reference_image_of(m, u):
    """The span of m applied to u: apply each basis vector, then canonicalise."""
    return reference_span(m.field, m.nrows, [m.apply(v) for v in u.vectors()])


def reference_match(field, act, cod, dom):
    """The chain sweep's strand matcher as every field ran it before F2 moved
    to packed vectors: tuple vectors, ``Matrix.solve`` for the coordinates and
    row operations on lists.  Returns the (codomain, domain) pivot pairs, and
    updates the strands' vectors in place as ``decompose._match`` does."""

    def absorb(strand, other, c):
        if strand.right_pos != other.right_pos or strand.strength < other.strength:
            raise AssertionError("inadmissible elimination")
        for pos in range(max(strand.left_pos, other.left_pos), strand.right_pos + 1):
            strand.vectors[pos] = tuple(field.add(x, field.mul(c, y)) for x, y
                                        in zip(strand.vectors[pos], other.vectors[pos]))

    if not dom:
        return []
    imgs = [act.apply(s.vectors[s.right_pos]) for s in dom]
    if not cod:
        if any(map(any, imgs)):
            raise AssertionError("action image escapes the socle layer")
        return []
    tmat = Matrix.from_cols(field, [s.vectors[s.right_pos] for s in cod])
    coeff = tmat.solve(Matrix.from_cols(field, imgs))
    if coeff is None:
        raise AssertionError("socle coordinates must exist")
    a = [list(row) for row in coeff.rows]
    free_rows = set(range(len(cod)))
    pairs = []
    for ci in sorted(range(len(dom)), key=lambda c: dom[c].strength):
        pr = max((ri for ri in free_rows if a[ri][ci]), default=None,
                 key=lambda ri: (cod[ri].strength, -ri))
        if pr is None:
            continue
        if a[pr][ci] != field.one:
            inv = field.inv(a[pr][ci])
            vecs = dom[ci].vectors
            for pos, vec in vecs.items():
                vecs[pos] = tuple(field.mul(inv, x) for x in vec)
            for row in a:
                row[ci] = field.mul(row[ci], inv)
        prow = a[pr]
        for ri, row in enumerate(a):
            c = row[ci]
            if ri != pr and c:
                absorb(cod[pr], cod[ri], c)
                a[ri] = [field.add(x, field.neg(field.mul(c, y))) for x, y in zip(row, prow)]
        for cj, c in enumerate(prow):
            if cj != ci and c:
                absorb(dom[cj], dom[ci], field.neg(c))
                prow[cj] = field.zero
        pairs.append((cod[pr], dom[ci]))
        free_rows.remove(pr)
    return pairs


def reference_pivot_steps(field, cols):
    """The steps of the families' ``pivot_steps`` on lists of entries, and
    the columns they leave: each nonzero column in turn takes its lowest
    nonzero entry as its pivot, and clears that row from every later column
    with its normalised self."""
    cols = [list(col) for col in cols]
    steps = []
    for ci, col in enumerate(cols):
        rows = [r for r, x in enumerate(col) if x]
        if not rows:
            continue
        pr = rows[0]
        inv = field.inv(col[pr])
        pcol = [field.mul(x, inv) for x in col]
        col_ops = []
        for cj in range(ci + 1, len(cols)):
            c = cols[cj][pr]
            if c:
                c = field.neg(c)
                cols[cj] = [field.add(x, field.mul(c, y)) for x, y in zip(cols[cj], pcol)]
                col_ops.append((cj, c))
        steps.append((ci, pr, inv, [(r, pcol[r]) for r in rows[1:]], col_ops))
    return steps, [tuple(col) for col in cols]


def random_subspace(field, ambient, rng, max_gens=None):
    gens = rng.randint(0, max_gens if max_gens is not None else ambient)
    vectors = [random_matrix(field, 1, ambient, rng).rows[0] for _ in range(gens)]
    return SubspaceBasis.from_spanning(field, ambient, vectors)


def random_flash_shapes(rng, count_max=12, bottoms_max=7, shift_max=10):
    return [FlashShape.finite(rng.randint(1, bottoms_max),
                              rng.random() < 0.5,
                              rng.random() < 0.5,
                              rng.randint(0, shift_max))
            for _ in range(rng.randint(1, count_max))]


def flash_sum(shapes, params):
    return direct_sum([make_flash(s, params) for s in shapes], params)


def counterexample_stage(n_max: int, params: AlgebraParams) -> Module:
    """The finite stage: the direct sum of the closed flashes L(n,0,1), n <= n_max."""
    if n_max < 0:
        raise ValueError("stage size must be non-negative")
    return direct_sum([make_flash(FlashShape.l(n, 0, 1), params)
                       for n in range(n_max + 1)])


def reference_flash(shape: FlashShape, params: AlgebraParams) -> Module:
    """``make_flash`` as it built a flash from labelled basis elements and arrows.

    Basis elements are sorted by (degree, layer, index), bottoms in layer 0
    and tops in layer 1; each arrow from a source label to a target label
    sets one entry of a dense list-of-rows block to 1.
    """
    tops = set(shape.top_indices())

    def top(i):
        return f"y{i}" if i >= 0 else "ym1"

    elements = [(f"x{i}", shape.bottom_degree(i, params), 0, i) for i in range(shape.bottoms)]
    elements += [(top(i), shape.top_degree(i, params), 1, i) for i in sorted(tops)]
    a1 = {f"x{i}": top(i - 1) for i in range(shape.bottoms) if i - 1 in tops}
    a2 = {f"x{i}": top(i) for i in range(shape.bottoms) if i in tops}
    by_degree: dict[int, list[str]] = {}
    position: dict[str, tuple[int, int]] = {}
    for label, degree, _, _ in sorted(elements, key=lambda e: (e[1], e[2], e[3])):
        slot = by_degree.setdefault(degree, [])
        position[label] = (degree, len(slot))
        slot.append(label)
    dims = {d: len(ls) for d, ls in by_degree.items()}
    field = params.field

    def build(arrows, step):
        mats: dict[int, list[list]] = {}
        for src, tgt in arrows.items():
            d, j = position[src]
            td, i = position[tgt]
            assert td == d + step, "arrow degree mismatch"
            rows = mats.setdefault(d, [[field.zero] * dims[d]
                                       for _ in range(dims.get(d + step, 0))])
            rows[i][j] = field.one
        return {d: Matrix(field, rows, ncols=dims[d]) for d, rows in mats.items()}

    return Module(params, dims, build(a1, params.deg_e1), build(a2, params.deg_e2),
                  labels={d: tuple(ls) for d, ls in by_degree.items()})


def reference_direct_sum(mods):
    """The labels and the dense blocks of ``direct_sum(mods)``, degree by degree.

    For each degree of the sum, every summand in turn contributes its labels
    there and its block at its offsets; labels are None when a summand has
    none, and a lone summand keeps its own.
    """
    params = mods[0].params
    field = params.field
    degrees = sorted({d for m in mods for d in m.degrees})
    dims = {d: sum(m.dim(d) for m in mods) for d in degrees}
    labels = mods[0].labels if len(mods) == 1 else None
    if len(mods) > 1 and all(m.labels is not None for m in mods):
        labels = {d: tuple(f"s{i}.{lab}" for i, m in enumerate(mods)
                           for lab in m.labels.get(d, ())) for d in degrees}
    blocks = {}
    for which, step in ((E1, params.deg_e1), (E2, params.deg_e2)):
        for d in degrees:
            want = [[field.zero] * dims[d] for _ in range(dims.get(d + step, 0))]
            roff = coff = 0
            for m in mods:
                a = m.action(which, d)
                for i in range(a.nrows):
                    for j in range(a.ncols):
                        want[roff + i][coff + j] = a[i, j]
                roff += m.dim(d + step)
                coff += m.dim(d)
            blocks[which, d] = Matrix(field, want, ncols=dims[d])
    return labels, blocks


def random_variant_b_module(params, max_total_dim, seed, degree_max=7):
    """A random valid variant-B module (not necessarily a flash sum prior).

    Action matrices are sampled ascending through the degrees; each one is
    forced to kill everything that already arrived from below, which is
    exactly the variant-B axiom set.
    """
    rng = random.Random(seed)
    field = params.field
    total = rng.randint(1, max_total_dim)
    dims = {}
    while sum(dims.values()) < total:
        d = rng.randint(0, degree_max)
        dims[d] = dims.get(d, 0) + 1
    a1, a2 = {}, {}
    for d in sorted(dims):
        n = dims[d]
        arriving = SubspaceBasis.zero(field, n)
        for mats, step in ((a1, params.deg_e1), (a2, params.deg_e2)):
            if d - step in mats:
                arriving = sum_space(arriving, image(mats[d - step]))
        comp = standard_complement(arriving)
        for mats, step in ((a1, params.deg_e1), (a2, params.deg_e2)):
            nt = dims.get(d + step, 0)
            if nt == 0 or not comp:
                continue
            basis = Matrix.from_cols(field, arriving.vectors() + comp, nrows=n)
            rnd = random_matrix(field, nt, len(comp), rng)
            mats[d] = hstack([Matrix.zeros(field, nt, arriving.dim), rnd]) \
                @ basis.inverse()
    m = Module(params, dims, a1, a2)
    assert not validate(m)
    return m


def reference_hom_system(m):
    """The equations phi_{d+|e|} e = e phi_d, one ``Matrix`` entry at a time,
    accumulated with Field.add and Field.sub, as ``decompose._hom_system`` made them."""
    field = m.field
    offsets = {}
    nvars = 0
    for d in m.degrees:
        offsets[d] = nvars
        nvars += m.dim(d) ** 2
    rows = []
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
                            row[idx] = field.add(row[idx], field.neg(act[i, k]))
                    rows.append(row)
    return rows, nvars


def reference_fitting_split(m, phi):
    """M = ker(phi^N) + im(phi^N) split when both sides are proper, as
    ``decompose._fitting_split`` made it: the kernel and image of phi_d^n
    built at every degree, n = dim M_d, before the sides are measured."""
    kspaces, ispaces = {}, {}
    kdim = 0
    for d, n in m.dims_by_degree.items():
        power = phi[d].power(n)
        k, i = kernel(power), image(power)
        if k.dim + i.dim != n or sum_space(k, i).dim != n:
            raise InternalError("Fitting decomposition failed to be direct")
        kspaces[d], ispaces[d] = k, i
        kdim += k.dim
    if kdim == 0 or kdim == m.total_dim:
        return None
    return kspaces, ispaces


def count_pullbacks(monkeypatch):
    """Record the e2 block of every pull-back the chain makes from now on.

    A step pulls a degree back through one ``preimage_space``, of the image
    under e1 or of zero where e1 has no block.  The shared pull-back cache is
    cleared first, so a count does not depend on what ran before it.
    """
    operators._pulled.cache_clear()
    calls = []
    real = operators.preimage_space

    def counted(b, u):
        calls.append(b)
        return real(b, u)

    monkeypatch.setattr(operators, "preimage_space", counted)
    return calls


def parent_dims(u: dict[int, SubspaceBasis]) -> dict[int, int]:
    """The carrier of a graded subspace: the ambient dimension of each degree."""
    return {d: s.ambient_dim for d, s in u.items()}


def dims(u: dict[int, SubspaceBasis]) -> dict[int, int]:
    """The nonzero dimensions of a graded subspace, by degree."""
    return {d: s.dim for d, s in u.items() if s.dim}


def full(m: Module) -> dict[int, SubspaceBasis]:
    """The whole of m's carrier."""
    return {d: SubspaceBasis.full(m.field, n) for d, n in m.dims_by_degree.items()}


def zero_subspace(m: Module) -> dict[int, SubspaceBasis]:
    """The zero subspace of m's carrier."""
    return {d: SubspaceBasis.zero(m.field, n) for d, n in m.dims_by_degree.items()}


def contains(u: dict[int, SubspaceBasis], v: dict[int, SubspaceBasis]) -> bool:
    """Whether v lies in u, degree by degree; both must share one carrier."""
    if parent_dims(u) != parent_dims(v):
        raise ValueError("subspaces of different carriers")
    return all(u[d].contains_subspace(v[d]) for d in u)


def _check_ambient(m: Module, u: dict[int, SubspaceBasis]) -> None:
    if parent_dims(u) != m.dims_by_degree:
        raise ValueError("graded subspace does not live in this module's carrier")


def act_image(m: Module, which: str, u: dict[int, SubspaceBasis]) -> dict[int, SubspaceBasis]:
    """Degreewise image of u under the chosen action."""
    _check_ambient(m, u)
    step = m.params.action_degree(which)
    spaces = {d: SubspaceBasis.zero(m.field, n) for d, n in m.dims_by_degree.items()}
    for d, sub in u.items():
        if sub.dim and m.dim(d + step):
            spaces[d + step] = image(m.action(which, d), sub)
    return spaces


def op_preimage(m: Module, which: str, u: dict[int, SubspaceBasis]) -> dict[int, SubspaceBasis]:
    """Degreewise {v : (action) v lies in u}; always contains the kernel."""
    _check_ambient(m, u)
    step = m.params.action_degree(which)
    field = m.field
    spaces = {}
    for d, n in m.dims_by_degree.items():
        target = u.get(d + step, SubspaceBasis.zero(field, m.dim(d + step)))
        spaces[d] = preimage_space(m.action(which, d), target)
    return spaces


def radical(m: Module) -> dict[int, SubspaceBasis]:
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
    return spaces


def reference_chain(m):
    """F_0, F_1, ... through the first repeated term, recomputing every degree.

    The plain definition F_j = e2^{-1}(e1 F_{j-1}) applied to whole graded
    subspaces, for checking the chain that skips unmoved degrees.
    """
    chain = [full(m)]
    while len(chain) < 2 or chain[-1] != chain[-2]:
        chain.append(op_preimage(m, E2, act_image(m, E1, chain[-1])))
    return chain


def label_position(m: Module, label: str) -> tuple[int, int]:
    """(degree, index within degree) of the first basis vector with this label."""
    if m.labels is None:
        raise KeyError("module carries no basis labels")
    for d, ls in m.labels.items():
        if label in ls:
            return d, ls.index(label)
    raise KeyError(f"no basis vector labeled {label!r}")


def basis_vector(m: Module, label: str) -> tuple:
    """The canonical basis vector with this label, in its degree's coordinates."""
    d, i = label_position(m, label)
    f = m.field
    v = [f.zero] * m.dim(d)
    v[i] = f.one
    return tuple(v)


def from_labels(m: Module, labels) -> dict[int, SubspaceBasis]:
    """Span of the named canonical basis vectors, with no elimination.

    Coordinate vectors sorted without repeats are their own echelon basis.
    Labels resolve through one map per call, which keeps the first position
    of a repeated label, as ``label_position`` does.
    """
    positions: dict[str, tuple[int, int]] = {}
    for d, ls in (m.labels or {}).items():
        for i, label in enumerate(ls):
            positions.setdefault(label, (d, i))
    pivots = {d: [] for d in m.dims_by_degree}
    # label_position raises the KeyError for a label the map lacks
    for d, i in sorted({positions.get(label) or label_position(m, label)
                        for label in labels}):
        pivots[d].append(i)
    return {d: SubspaceBasis.coordinate(m.field, n, pivots[d])
            for d, n in m.dims_by_degree.items()}


def reference_flash_failures(mod: Module, trace, n: int, j_max: int):
    """``filtration-shape`` and ``membership`` failures of L(n,0,1), in full.

    Every F_j is compared with its whole expected span in every degree, and
    x_0 is tested against every term: the reference the suite's count of
    each flash's functionals on the stage walk is checked against.
    """
    shape = []
    for j in range(1, n + 1):
        expected = from_labels(mod, [f"y{i}" for i in range(n + 1)]
                               + [f"x{i}" for i in range(n - j + 1)])
        if trace[j] != expected:
            shape.append([n, j])
    x0 = basis_vector(mod, "x0")
    member = [[n, j] for j in range(j_max + 1)
              if trace[j][0].contains_vector(x0) != (j <= n)]
    return shape, member


def reference_relation_violations(m: Module) -> list[Violation]:
    """``modules._relation_violations`` as it multiplied every action pair.

    An absent block stands in as a zero matrix, so every product runs.
    """
    out: list[Violation] = []
    p = m.params
    for d in m.degrees:
        a1_d = m.action(E1, d)
        a2_d = m.action(E2, d)
        if not (m.action(E1, d + p.deg_e1) @ a1_d).is_zero():
            out.append(Violation("e1e1", d))
        if not (m.action(E2, d + p.deg_e2) @ a2_d).is_zero():
            out.append(Violation("e2e2", d))
        e1e2 = m.action(E1, d + p.deg_e2) @ a2_d
        e2e1 = m.action(E2, d + p.deg_e1) @ a1_d
        if p.variant == "B":
            if not e1e2.is_zero():
                out.append(Violation("e1e2", d))
            if not e2e1.is_zero():
                out.append(Violation("e2e1", d))
        elif e2e1 != e1e2.scaled(p.sigma):
            out.append(Violation("e1e2-commute", d))
    return out


_REFERENCE_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*$")


def _reference_split_terms(expr: str) -> list[str]:
    parts = [t.strip() for t in expr.split("+")]
    if any(not t for t in parts):
        raise ValueError("empty term")
    return parts


def reference_parse_module(text: str) -> Module:
    """``textio.parse_module`` as it read documents into dense lists of lists.

    Each action block is a list of rows of entries, every term added with
    ``Field.add``, then packed by ``Matrix``; for checking the parser that
    builds each column in the family layout as it reads.
    """
    header: dict[str, int | str] = {}
    basis: list[tuple[str, int, int]] = []  # (name, degree, line)
    actions: list[tuple[str, str, str, int]] = []  # (op, source, expr, line)
    names: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "field":
            if len(tokens) != 2 or not tokens[1].lstrip("-").isdigit():
                raise DocumentError(lineno, "expected: field <characteristic>")
            try:
                header["field"] = int(tokens[1])
            except ValueError:
                # more digits than int() converts, so far above any tested prime
                raise DocumentError(lineno, f"field characteristic of {len(tokens[1])} "
                                            f"characters is too long") from None
        elif tokens[0] == "deg" and len(tokens) == 3 and tokens[1] in (E1, E2):
            try:
                header[tokens[1]] = int(tokens[2])
            except ValueError:
                raise DocumentError(lineno, f"bad degree for {tokens[1]}") from None
        elif tokens[0] == "algebra":
            if len(tokens) != 2 or tokens[1] not in ("A", "B"):
                raise DocumentError(lineno, "expected: algebra A|B")
            header["variant"] = tokens[1]
        elif tokens[0] == "basis":
            body = line[len("basis"):].strip()
            if not body:
                raise DocumentError(lineno, "empty basis declaration")
            for chunk in body.split(","):
                parts = chunk.split()
                if len(parts) != 2:
                    raise DocumentError(lineno,
                                        f"expected 'name degree', got {chunk.strip()!r}")
                name, deg_s = parts
                if not _REFERENCE_NAME.match(name):
                    raise DocumentError(lineno, f"bad basis name {name!r}")
                try:
                    deg = int(deg_s)
                except ValueError:
                    raise DocumentError(lineno, f"bad degree {deg_s!r}") from None
                if name in names:
                    raise DocumentError(lineno, f"duplicate basis name {name!r}")
                names[name] = lineno
                basis.append((name, deg, lineno))
        elif tokens[0] in (E1, E2):
            if "=" not in line:
                raise DocumentError(lineno, "action line needs '='")
            lhs, expr = line.split("=", 1)
            parts = lhs.split()
            if len(parts) != 2:
                raise DocumentError(lineno, "expected: e1|e2 <name> = <combination>")
            actions.append((parts[0], parts[1], expr.strip(), lineno))
        else:
            raise DocumentError(lineno, f"unrecognized directive {tokens[0]!r}")

    for key, desc in (("field", "field"), (E1, "deg e1"), (E2, "deg e2"),
                      ("variant", "algebra")):
        if key not in header:
            raise DocumentError(1, f"missing header line: {desc}")
    try:
        params = AlgebraParams(Field(int(header["field"])),
                               int(header[E1]), int(header[E2]),
                               str(header["variant"]))
    except ValueError as exc:
        raise DocumentError(1, str(exc)) from None

    by_degree: dict[int, list[str]] = {}
    position: dict[str, tuple[int, int]] = {}
    for name, deg, _ in basis:
        slot = by_degree.setdefault(deg, [])
        position[name] = (deg, len(slot))
        slot.append(name)
    dims = {d: len(ls) for d, ls in by_degree.items()}

    field = params.field
    mats: dict[str, dict[int, list[list]]] = {E1: {}, E2: {}}
    seen: set[tuple[str, str]] = set()
    action_lines: dict[tuple[str, int], int] = {}
    for op, src, expr, lineno in actions:
        if src not in position:
            raise DocumentError(lineno, f"unknown basis name {src!r}")
        if (op, src) in seen:
            raise DocumentError(lineno, f"duplicate action for {op} {src}")
        seen.add((op, src))
        sdeg, scol = position[src]
        action_lines.setdefault((op, sdeg), lineno)
        step = params.action_degree(op)
        tdeg = sdeg + step
        try:
            terms = _reference_split_terms(expr)
        except ValueError:
            raise DocumentError(lineno, f"malformed combination {expr!r}") from None
        rows = mats[op].get(sdeg)
        if rows is None:
            rows = mats[op][sdeg] = [[field.zero] * dims[sdeg]
                                     for _ in range(dims.get(tdeg, 0))]
        for term in terms:
            if "*" in term:
                coeff_s, name = term.split("*", 1)
                name = name.strip()
                try:
                    coeff = field.parse_scalar(coeff_s)
                except (ValueError, ZeroDivisionError):
                    raise DocumentError(lineno, f"bad coefficient {coeff_s!r}") from None
            else:
                coeff, name = field.one, term
            if name not in position:
                raise DocumentError(lineno, f"unknown basis name {name!r}")
            tdeg_got, trow = position[name]
            if tdeg_got != tdeg:
                raise DocumentError(
                    lineno, f"degree inconsistency: {op} raises degree by {step}, "
                    f"but {name!r} sits in degree {tdeg_got}, not {tdeg}")
            rows[trow][scol] = field.add(rows[trow][scol], coeff)
    a1 = {d: Matrix(field, rows, ncols=dims[d], _raw=True) for d, rows in mats[E1].items()}
    a2 = {d: Matrix(field, rows, ncols=dims[d], _raw=True) for d, rows in mats[E2].items()}
    module = Module(params, dims, a1, a2,
                    labels={d: tuple(ls) for d, ls in by_degree.items()})
    for violation in validate(module):
        first = sorted(actions, key=lambda a: a[3])
        lineno = action_lines.get((E1, violation.degree),
                                  action_lines.get((E2, violation.degree),
                                                   first[0][3] if first else 1))
        raise DocumentError(lineno, f"relation violation: {violation}")
    return module
