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
characteristic 0).  Undeclared actions are zero.  ``#`` starts a comment.
Printing a module and parsing the result reproduces it exactly.
"""

from __future__ import annotations

import re

from .linalg import Field, Matrix
from .modules import E1, E2, AlgebraParams, Module, validate

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*$")


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
    """Parse a module document; validates the result before returning it."""
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
                if not _NAME.match(name):
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
            terms = _split_terms(expr)
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


def _module_labels(m: Module) -> dict[int, tuple[str, ...]]:
    if m.labels is not None:
        return m.labels
    return {d: tuple(f"v{d}_{i}" for i in range(n))
            for d, n in m.dims_by_degree.items()}


def _action_columns(m: Module, labels: dict, which: str):
    """(source, terms) for each basis vector the action does not kill.

    terms lists (target, coefficient) for the nonzero entries of the source's
    column, in basis order.  Both printers read the actions through this.
    """
    step = m.params.action_degree(which)
    for d in m.degrees:
        targets = labels.get(d + step, ())
        for src, col in zip(labels[d], m.action(which, d).cols()):
            terms = [(tgt, c) for tgt, c in zip(targets, col) if c]
            if terms:
                yield src, terms


def print_module(m: Module) -> str:
    """Canonical document for a module; parsing it back reproduces m."""
    params = m.params
    labels = _module_labels(m)
    lines = [f"field {params.field.characteristic}",
             f"deg e1 {params.deg_e1}",
             f"deg e2 {params.deg_e2}",
             f"algebra {params.variant}"]
    for d in m.degrees:
        for name in labels[d]:
            lines.append(f"basis {name} {d}")
    field = params.field
    for which in (E1, E2):
        for src, terms in _action_columns(m, labels, which):
            lines.append(f"{which} {src} = " + " + ".join(
                tgt if c == field.one else f"{field.format_scalar(c)}*{tgt}"
                for tgt, c in terms))
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
    field = m.field
    styles = {E1: "solid", E2: "bold"}
    for which in (E1, E2):
        for src, terms in _action_columns(m, labels, which):
            for tgt, c in terms:
                tag = which if c == field.one else f"{which} ({field.format_scalar(c)})"
                lines.append(f'  "{src}" -> "{tgt}" '
                             f'[label="{tag}", style={styles[which]}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
