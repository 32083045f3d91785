"""Text format for module documents, plus DOT diagram emission.

A document looks like::

    field 2
    deg e1 1
    deg e2 3
    algebra B
    basis x0 0
    basis x1 2
    basis y0 3
    basis y1 5
    e1 x1 = y0
    e2 x0 = y0
    e2 x1 = y1

``basis`` lines may also pack several ``name degree`` pairs separated by
commas.  Action lines give the image of one basis vector as a sum of
``coeff*name`` terms (coefficient omitted when 1; ``a/b`` rationals in
characteristic 0).  Undeclared actions are zero.  Each of the four header
lines appears once.  ``#`` starts a comment, and only ``\\n``, ``\\r\\n``
and ``\\r`` end a line.  Printing a module and parsing the result
reproduces it exactly.
"""

from __future__ import annotations

import re
from itertools import compress

from .linalg import Field, Matrix
from .modules import E1, E2, AlgebraParams, Module, validate

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*$")
_OPS = (E1, E2)


class DocumentError(ValueError):
    """A parse or validation failure, pointing at a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


def _split_terms(expr: str) -> list[str]:
    parts = [t.strip() for t in expr.split("+")]
    if any(not t for t in parts):
        raise ValueError("empty term")
    return parts


def parse_module(text: str) -> Module:
    """Parse a module document; validates the result before returning it.

    Each line is split once, by ``partition("=")``: an action line, and a
    plain ``basis <name> <degree>`` line, is read off the split of its left
    part; other lines token by token.  Each column is built once, in the
    field's family layout: a line of coefficient-1 terms spaced ``a + b`` is
    one ``tally`` over the unit table of its target degree, any other line
    is read term by term, and a column no line has set yet is None, so a
    second line for it is a duplicate.
    """
    header: dict[str, tuple[int | str, int]] = {}  # "field", "deg e1", ...: (value, line)
    actions: list[tuple[str, str, str, int]] = []  # (op, source, expr, line)
    by_degree: dict[int, list[str]] = {}
    position: dict[str, tuple[int, int]] = {}  # each name's degree and row there

    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if "#" in raw:
            raw = raw[:raw.index("#")]
        lhs, eq, expr = raw.partition("=")
        parts = lhs.split()
        if len(parts) == 2 and eq and parts[0] in _OPS:
            actions.append((parts[0], parts[1], expr.strip(), lineno))
            continue
        if len(parts) == 3 and parts[0] == "basis" and not eq and "," not in raw:
            chunks = ((parts[1:], None),)
        else:
            line = raw.strip()
            if not line:
                continue
            tokens = line.split()
            head = tokens[0]
            if head in _OPS:
                raise DocumentError(lineno, "expected: e1|e2 <name> = <combination>" if eq
                                    else "action line needs '='")
            if head != "basis":
                key = " ".join(tokens[:2]) if head == "deg" else head
                if key in header:
                    raise DocumentError(lineno, f"duplicate header line: {key}")
                if head == "field":
                    if len(tokens) != 2 or not tokens[1].lstrip("-").isdigit():
                        raise DocumentError(lineno, "expected: field <characteristic>")
                    try:
                        header[key] = (int(tokens[1]), lineno)
                    except ValueError:
                        # more digits than int() converts, so far above any tested prime
                        raise DocumentError(lineno, f"field characteristic of {len(tokens[1])} "
                                                    f"characters is too long") from None
                elif head == "deg":
                    if len(tokens) != 3 or tokens[1] not in _OPS:
                        raise DocumentError(lineno, "expected: deg e1|e2 <degree>")
                    try:
                        header[key] = (int(tokens[2]), lineno)
                    except ValueError:
                        raise DocumentError(lineno, f"bad degree for {tokens[1]}") from None
                elif head == "algebra":
                    if len(tokens) != 2 or tokens[1] not in ("A", "B"):
                        raise DocumentError(lineno, "expected: algebra A|B")
                    header[key] = (tokens[1], lineno)
                else:
                    raise DocumentError(lineno, f"unrecognized directive {head!r}")
                continue
            body = line[len("basis"):].strip()
            if not body:
                raise DocumentError(lineno, "empty basis declaration")
            chunks = [(chunk.split(), chunk) for chunk in body.split(",")]
        for pair, chunk in chunks:
            if len(pair) != 2:
                raise DocumentError(lineno, f"expected 'name degree', got {chunk.strip()!r}")
            name, deg_s = pair
            if not _NAME.match(name):
                raise DocumentError(lineno, f"bad basis name {name!r}")
            try:
                deg = int(deg_s)
            except ValueError:
                raise DocumentError(lineno, f"bad degree {deg_s!r}") from None
            if name in position:
                raise DocumentError(lineno, f"duplicate basis name {name!r}")
            slot = by_degree.setdefault(deg, [])
            position[name] = (deg, len(slot))
            slot.append(name)

    for key in ("field", "deg e1", "deg e2", "algebra"):
        if key not in header:
            raise DocumentError(1, f"missing header line: {key}")
    (p, p_line), (d1, d1_line), (d2, d2_line) = (header["field"], header["deg e1"],
                                                 header["deg e2"])
    try:
        field = Field(p)
    except ValueError as exc:
        raise DocumentError(p_line, str(exc)) from None
    try:
        params = AlgebraParams(field, d1, d2, header["algebra"][0])
    except ValueError as exc:
        # |e1| is at fault when it is not positive, |e2| when it is not above |e1|
        raise DocumentError(d1_line if d1 <= 0 else d2_line, str(exc)) from None

    fam, zero, one = field._family, field.zero, field.one
    tally = fam.tally
    dims = {d: len(ls) for d, ls in by_degree.items()}
    # by degree, each name's entry for ``tally``: its unit vector there
    units = {d: dict(zip(ls, fam.tally_units(len(ls)))) for d, ls in by_degree.items()}
    steps = {E1: params.deg_e1, E2: params.deg_e2}
    # by op and source degree: the columns, None where no line set one yet,
    # and the target degree, its dimension and its unit table
    blocks: dict[str, dict[int, tuple]] = {E1: {}, E2: {}}
    for op, src, expr, lineno in actions:
        at = position.get(src)
        if at is None:
            raise DocumentError(lineno, f"unknown basis name {src!r}")
        sdeg, scol = at
        got = blocks[op].get(sdeg)
        if got is None:
            tdeg = sdeg + steps[op]
            got = blocks[op][sdeg] = ([None] * dims[sdeg], tdeg, dims.get(tdeg, 0),
                                      units.get(tdeg))
        block, tdeg, ntarget, table = got
        if block[scol] is not None:
            raise DocumentError(lineno, f"duplicate action for {op} {src}")
        if table is not None and "*" not in expr:
            try:
                block[scol] = tally(map(table.__getitem__, expr.split(" + ")), ntarget)
                continue
            except KeyError:
                # other spacing, an empty term or a name not in tdeg: the
                # loop below reads it, or names the fault
                pass
        try:
            terms = _split_terms(expr)
        except ValueError:
            raise DocumentError(lineno, f"malformed combination {expr!r}") from None
        col = [zero] * ntarget
        for term in terms:
            if "*" in term:
                coeff_s, name = term.split("*", 1)
                name = name.strip()
                try:
                    coeff = field.parse_scalar(coeff_s)
                except (ValueError, ZeroDivisionError):
                    raise DocumentError(lineno, f"bad coefficient {coeff_s!r}") from None
            else:
                coeff, name = one, term
            if name not in position:
                raise DocumentError(lineno, f"unknown basis name {name!r}")
            tdeg_got, trow = position[name]
            if tdeg_got != tdeg:
                raise DocumentError(
                    lineno, f"degree inconsistency: {op} raises degree by {steps[op]}, "
                    f"but {name!r} sits in degree {tdeg_got}, not {tdeg}")
            col[trow] = field.add(col[trow], coeff) if col[trow] else coeff
        block[scol] = fam.pack(col)
    mats = {op: {d: Matrix.from_cols(field, [fam.pack((zero,) * n) if c is None else c
                                             for c in block], nrows=n, _raw=True)
                 for d, (block, _, n, _) in got.items()} for op, got in blocks.items()}
    module = Module(params, dims, mats[E1], mats[E2],
                    labels={d: tuple(ls) for d, ls in by_degree.items()})
    for violation in validate(module):
        # the first e1 line from the failing degree, else its first e2 line
        at = [ln for want in (E1, E2) for op, src, _, ln in actions
              if op == want and position[src][0] == violation.degree]
        raise DocumentError(at[0] if at else actions[0][3] if actions else 1,
                            f"relation violation: {violation}")
    return module


def _module_labels(m: Module) -> dict[int, tuple[str, ...]]:
    if m.labels is not None:
        return m.labels
    return {d: tuple(f"v{d}_{i}" for i in range(n))
            for d, n in m.dims_by_degree.items()}


def _action_blocks(m: Module, labels: dict, which: str):
    """(sources, targets, columns) for each action block the module stores.

    The columns are the block's columns with each entry as a document
    writes it (``Matrix.written_cols``), aligned with the target labels,
    and None where a column is zero.  Both printers read the actions
    through this.
    """
    step = m.params.action_degree(which)
    for d, act in m.action_items(which).items():
        yield labels[d], labels[d + step], act.written_cols()


def print_module(m: Module) -> str:
    """Canonical document for a module; parsing it back reproduces m.

    One degree's basis lines are one ``join`` of its names.  A zero column
    writes no line, and a column of 0s and 1s is written as the join of its
    target names, which a layout whose entries are all 0 or 1 (``binary``)
    does without counting them; only other columns format each coefficient.
    """
    params = m.params
    labels = _module_labels(m)
    binary = params.field._family.binary
    lines = [f"field {params.field.characteristic}",
             f"deg e1 {params.deg_e1}",
             f"deg e2 {params.deg_e2}",
             f"algebra {params.variant}"]
    for d in m.degrees:
        lines.append("basis " + f" {d}\nbasis ".join(labels[d]) + f" {d}")
    for which in (E1, E2):
        for sources, targets, cols in _action_blocks(m, labels, which):
            n = len(targets)
            for src, col in zip(sources, cols):
                if col is None:
                    continue
                if binary or col.count(0) + col.count(1) == n:
                    terms = compress(targets, col)
                else:
                    terms = (tgt if c == 1 else f"{c}*{tgt}"
                             for tgt, c in zip(targets, col) if c)
                lines.append(f"{which} {src} = " + " + ".join(terms))
    return "\n".join(lines) + "\n"


def to_dot(m: Module) -> str:
    """DOT digraph: one node per basis vector, edges labeled by the action.

    e1 edges are solid, e2 edges bold; node order is deterministic.
    """
    labels = _module_labels(m)
    lines = ["digraph module {", "  rankdir=LR;"]
    for d in m.degrees:
        for name in labels[d]:
            lines.append(f'  "{name}" [label="{name} ({d})"];')
    styles = {E1: "solid", E2: "bold"}
    for which in (E1, E2):
        for sources, targets, cols in _action_blocks(m, labels, which):
            for src, col in zip(sources, cols):
                for tgt, c in zip(targets, col or ()):
                    if c:
                        tag = which if c == 1 else f"{which} ({c})"
                        lines.append(f'  "{src}" -> "{tgt}" '
                                     f'[label="{tag}", style={styles[which]}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
