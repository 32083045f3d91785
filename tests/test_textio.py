import random

import pytest

from extmod.modules import (E1, E2, FlashShape, default_params, make_flash, make_free,
                            random_basis_change, truncated_infinite_flash)
from extmod.textio import (DocumentError, _module_labels, parse_module, print_module,
                           to_dot)
from helpers import (counterexample_stage, flash_sum, random_flash_shapes,
                     reference_parse_module)

P = default_params()

M1_DOC = """field 2
deg e1 1
deg e2 3
algebra B
basis x0 0, x1 2, y0 3, y1 5
e1 x1 = y0
e2 x0 = y0
e2 x1 = y1
"""


def test_parse_m1_document():
    assert parse_module(M1_DOC) == make_flash(FlashShape.l(1, 0, 1), P)


def test_empty_basis_gives_zero_module():
    m = parse_module("field 2\ndeg e1 1\ndeg e2 3\nalgebra B\n")
    assert m.total_dim == 0


def test_comments_and_blank_lines():
    doc = "# a flash\nfield 2\n\ndeg e1 1\ndeg e2 3\nalgebra B\nbasis a 0  # bottom\n"
    assert parse_module(doc).dims_by_degree == {0: 1}


@pytest.mark.parametrize("sep", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                 "\u2029"])
def test_only_newline_and_carriage_return_break_lines(sep):
    # str.splitlines breaks at each of these too; here each stays inside its
    # line: in a comment it is part of the comment, between tokens it is
    # whitespace
    lines = M1_DOC.splitlines()
    lines[4] = lines[4].replace(", ", "," + sep)
    lines[5] += f"  # the e1 line{sep}e1 zz = y0"
    assert parse_module("\n".join(lines)) == make_flash(FlashShape.l(1, 0, 1), P)


def roundtrip_cases():
    p5 = default_params(5)
    p0 = default_params(0)
    pa = default_params(variant="A")
    return [
        make_flash(FlashShape.l(1, 0, 1), P),
        make_flash(FlashShape.finite(3, True, True), P),
        counterexample_stage(3, P),
        make_free(2, pa),
        truncated_infinite_flash(True, 9, P),
        random_basis_change(make_flash(FlashShape.l(2, 0, 1), p5), 5),
        random_basis_change(make_flash(FlashShape.l(2, 0, 1), p0), 6),
        random_basis_change(counterexample_stage(2, P), 7),
    ]


@pytest.mark.parametrize("m", roundtrip_cases(),
                         ids=lambda m: f"dim{m.total_dim}c{m.params.field.characteristic}")
def test_round_trip(m):
    assert parse_module(print_module(m)) == m


def test_print_is_idempotent_after_one_pass():
    messy = "field 2\ndeg e1 1\ndeg e2 3\nalgebra B\nbasis b 3\nbasis a 0\ne2 a = b\n"
    once = print_module(parse_module(messy))
    assert print_module(parse_module(once)) == once


def test_labels_survive_round_trip():
    m = make_flash(FlashShape.l(1, 0, 1), P)
    assert parse_module(print_module(m)).labels == m.labels


def test_degree_inconsistency_is_located():
    doc = M1_DOC.replace("e1 x1 = y0", "e1 x0 = x1")
    with pytest.raises(DocumentError) as err:
        parse_module(doc)
    assert err.value.line == 6
    assert "degree inconsistency" in str(err.value)


def test_unknown_name():
    doc = M1_DOC + "e1 zz = y0\n"
    with pytest.raises(DocumentError, match="unknown basis name 'zz'"):
        parse_module(doc)


def test_duplicate_basis_name():
    with pytest.raises(DocumentError, match="duplicate basis name"):
        parse_module("field 2\ndeg e1 1\ndeg e2 3\nalgebra B\nbasis a 0, a 1\n")


def test_duplicate_action_line():
    doc = M1_DOC + "e2 x0 = y0\n"
    with pytest.raises(DocumentError, match="duplicate action"):
        parse_module(doc)


def test_relation_violation_is_located():
    doc = ("field 2\ndeg e1 1\ndeg e2 3\nalgebra B\n"
           "basis a 0, b 1, c 2\n"
           "e1 a = b\n"
           "e1 b = c\n")
    with pytest.raises(DocumentError) as err:
        parse_module(doc)
    assert "relation violation" in str(err.value)
    assert err.value.line == 6


def test_missing_header():
    with pytest.raises(DocumentError, match="missing header"):
        parse_module("field 2\ndeg e1 1\nalgebra B\n")


def test_bad_syntax_reports_line():
    with pytest.raises(DocumentError) as err:
        parse_module("field 2\ndeg e1 1\ndeg e2 3\nalgebra B\nnonsense here\n")
    assert err.value.line == 5


# every bad-document case with its exact message and line: each of BAD_LINES
# is line 6 of a document that starts with HEAD, over every field family, and
# BAD_DOCUMENTS are whole documents
HEAD = "field {f}\ndeg e1 1\ndeg e2 3\nalgebra B\nbasis x0 0, x1 2, y0 3, y1 5\n"
BAD_LINES = [
    ("trailing plus", "e1 x1 = y0 +", "malformed combination 'y0 +'"),
    ("empty combination", "e1 x1 =", "malformed combination ''"),
    ("empty term", "e1 x1 = y0 + + y1", "malformed combination 'y0 + + y1'"),
    ("bad coefficient", "e1 x1 = a*y0", "bad coefficient 'a'"),
    ("unknown unit name", "e1 x1 = zz", "unknown basis name 'zz'"),
    ("unknown name after known", "e1 x1 = y0 + zz", "unknown basis name 'zz'"),
    ("unknown name unspaced", "e1 x1 = y0+zz", "unknown basis name 'zz'"),
    ("unknown name widely spaced", "e1 x1 = y0  +  zz", "unknown basis name 'zz'"),
    ("empty term unspaced", "e1 x1 = y0++y1", "malformed combination 'y0++y1'"),
    ("unknown scaled name", "e1 x1 = 2*zz", "unknown basis name 'zz'"),
    ("unknown source", "e1 zz = y0", "unknown basis name 'zz'"),
    ("degree inconsistency", "e1 x0 = x1",
     "degree inconsistency: e1 raises degree by 1, but 'x1' sits in degree 2, not 1"),
    ("scaled degree inconsistency", "e1 x1 = y0 + 3*y1",
     "degree inconsistency: e1 raises degree by 1, but 'y1' sits in degree 5, not 3"),
    ("no equals sign", "e1 x1 y0", "action line needs '='"),
    ("two sources", "e1 x1 x0 = y0", "expected: e1|e2 <name> = <combination>"),
    ("unrecognized directive", "nonsense here", "unrecognized directive 'nonsense'"),
]
FRACTIONAL = ("fractional coefficient", "e1 x1 = 1/2*y0", "bad coefficient '1/2'")
BAD_DOCUMENTS = [
    ("duplicate action", HEAD.format(f=2) + "e2 x0 = y0\ne2 x0 = y0\n", 7,
     "duplicate action for e2 x0"),
    ("relation violation", "field 2\ndeg e1 1\ndeg e2 3\nalgebra B\nbasis a 0, b 1, c 2\n"
     "e1 a = b\ne1 b = c\n", 6,
     "relation violation: e1e1 fails at degree 0"),
    # a violation is reported at the first e1 line from its degree, else the first e2 line
    ("relation violation past an e2 line", HEAD.format(f=2).replace("y1 5", "y1 5, c 1")
     + "e2 x0 = y0\ne1 c = x1\ne1 x0 = c\n", 8, "relation violation: e1e1 fails at degree 0"),
    ("relation violation by e2", HEAD.format(f=2).replace("y1 5", "y1 5, z 6")
     + "e2 x1 = y1\ne2 y0 = z\ne2 x0 = y0\n", 8, "relation violation: e2e2 fails at degree 0"),
    ("zero denominator", HEAD.format(f=0) + "e1 x1 = 1/0*y0\n", 6, "bad coefficient '1/0'"),
    ("double fraction", HEAD.format(f=0) + "e1 x1 = 1/2/3*y0\n", 6, "bad coefficient '1/2/3'"),
    ("missing header", "field 2\ndeg e1 1\nalgebra B\n", 1, "missing header line: deg e2"),
    ("field arity", "field 2 3\n", 1, "expected: field <characteristic>"),
    ("field not a number", "field x\n", 1, "expected: field <characteristic>"),
    ("field too long", "field " + "9" * 5000 + "\n", 1,
     "field characteristic of 5000 characters is too long"),
    ("bad degree for e1", "deg e1 x\n", 1, "bad degree for e1"),
    ("bad algebra", "algebra C\n", 1, "expected: algebra A|B"),
    ("empty basis", "basis\n", 1, "empty basis declaration"),
    ("basis arity", "basis a\n", 1, "expected 'name degree', got 'a'"),
    ("bad basis name", "basis 1a 0\n", 1, "bad basis name '1a'"),
    ("bad basis degree", "basis a x\n", 1, "bad degree 'x'"),
    ("duplicate basis name", "basis a 0, a 1\n", 1, "duplicate basis name 'a'"),
    # a repeated header line is refused, not read over the first
    ("duplicate field", HEAD.format(f=5) + "e1 x1 = 3*y0\nfield 2\n", 7,
     "duplicate header line: field"),
    ("duplicate deg e1", HEAD.format(f=2) + "deg e1 1\n", 6, "duplicate header line: deg e1"),
    ("duplicate deg e2", "field 2\ndeg e2 3\ndeg e1 1\ndeg e2 5\n", 4,
     "duplicate header line: deg e2"),
    ("duplicate algebra", "algebra B\nalgebra A\n", 2, "duplicate header line: algebra"),
    ("deg without value", "field 2\ndeg e1 1\ndeg e2\nalgebra B\n", 3,
     "expected: deg e1|e2 <degree>"),
    ("deg extra token", "field 2\ndeg e1 1\ndeg e2 3 4\nalgebra B\n", 3,
     "expected: deg e1|e2 <degree>"),
    ("deg of no generator", "field 2\ndeg e1 1\ndeg e3 3\nalgebra B\n", 3,
     "expected: deg e1|e2 <degree>"),
    # a header value is reported at its own line
    ("field not prime", "deg e1 1\ndeg e2 3\nfield 4\nalgebra B\n", 3,
     "characteristic must be 0 or a prime, got 4"),
    ("degrees out of order", "field 2\ndeg e1 3\ndeg e2 1\nalgebra B\n", 3,
     "generator degrees must satisfy 0 < |e1| < |e2|, got 3, 1"),
    ("degrees equal", "field 2\ndeg e2 2\nalgebra B\ndeg e1 2\n", 2,
     "generator degrees must satisfy 0 < |e1| < |e2|, got 2, 2"),
    ("degree zero", "field 2\ndeg e2 1\ndeg e1 0\nalgebra B\n", 3,
     "generator degrees must satisfy 0 < |e1| < |e2|, got 0, 1"),
    # only \n, \r\n and \r break a line: a form feed is whitespace, and
    # U+0085 in a comment is part of it
    ("form feed inside a line", HEAD.format(f=2).replace(", y0", ",\fy0") + "e1 zz = y0\n", 6,
     "unknown basis name 'zz'"),
    ("next line in a comment", HEAD.format(f=2) + "e1 x1 = y0  # a\x85more\ne1 zz = y0\n", 7,
     "unknown basis name 'zz'"),
    ("lines broken by \\r\\n and \\r", HEAD.format(f=2).replace("\n", "\r\n")
     + "e2 x0 = y0\re2 x0 = y0\r\n", 7, "duplicate action for e2 x0"),
]


def bad_cases():
    for f in (2, 5, 17, 0):
        lines = BAD_LINES if f == 0 else [*BAD_LINES, FRACTIONAL]
        for name, line, message in lines:
            yield pytest.param(HEAD.format(f=f) + line + "\n", 6, message, id=f"{name}-F{f}")
    for name, doc, line, message in BAD_DOCUMENTS:
        yield pytest.param(doc, line, message, id=name)


@pytest.mark.parametrize("doc, line, message", bad_cases())
def test_bad_document_message_and_line(doc, line, message):
    with pytest.raises(DocumentError) as err:
        parse_module(doc)
    assert (err.value.line, err.value.message) == (line, message)
    assert str(err.value) == f"line {line}: {message}"


def _assert_parsers_agree(doc):
    got, want = parse_module(doc), reference_parse_module(doc)
    for op in (E1, E2):
        assert got.action_items(op) == want.action_items(op)
    assert got == want and got.labels == want.labels
    return got


def _spelled(line, rng):
    """The line with its spaces, some of them tabs, doubled at random, after
    some leading spaces half the time, and with a trailing comment that holds
    '=', '+' and '*' half the time."""
    line = "".join(rng.choice((c, c + c, "\t")) if c == " " else c for c in line)
    if rng.random() < 0.5:
        line = " " * rng.randrange(1, 4) + line
    if rng.random() < 0.5:
        line += rng.choice(("#", "  # e1 a = 2*b + c", "\t# note"))
    return line


def _restated(m, rng):
    """A document for m with every action line written another way: terms in
    random order, coefficients off their canonical residue or in lowest terms,
    split into repeated terms, '=' with or without spaces; and every line
    spelled another way by ``_spelled``, ending in \n or \r\n."""
    p = m.field.characteristic
    labels = _module_labels(m)
    head = [line for line in print_module(m).splitlines()
            if not line.startswith(("e1 ", "e2 "))]
    acts = []
    for which in (E1, E2):
        step = m.params.action_degree(which)
        for d, act in m.action_items(which).items():
            targets, sources = labels[d + step], labels[d]
            for src, col in zip(sources, act.cols()):
                terms = []
                for tgt, c in zip(targets, col):
                    if not c:
                        continue
                    way = rng.randrange(3)
                    if way == 0 and p and c < 5:
                        terms += [tgt] * c
                    elif way == 0 and not p:
                        terms += [tgt, f"{c - 1}*{tgt}"]
                    elif way == 1 and p:
                        terms.append(f"{c + p * rng.randrange(1, 30)}*{tgt}")
                    elif way == 1:
                        terms.append(f"{c.numerator * 3}/{c.denominator * 3}*{tgt}")
                    else:
                        terms.append(f"{c - p if p else c}*{tgt}")
                if terms:
                    rng.shuffle(terms)
                    plus = rng.choice(("+", " + ", "  +", "\t+ "))
                    equals = rng.choice(("=", " = ", " =", "\t=\t"))
                    acts.append(f"{which} {src}{equals}{plus.join(terms)}")
    rng.shuffle(acts)
    return "".join(_spelled(line, rng) + rng.choice(("\n", "\r\n")) for line in head + acts)


@pytest.mark.parametrize("p", [2, 3, 5, 13, 17, 0], ids=["F2", "F3", "F5", "F13", "F17", "Q"])
def test_parser_matches_list_reference_on_scrambled_documents(p):
    # the columns built in the family layout against the dense list-of-lists
    # parser, on build documents and on the same modules restated
    params = default_params(p)
    rng = random.Random(101 + p)
    for seed in range(4):
        shapes = random_flash_shapes(rng, count_max=6, bottoms_max=5, shift_max=6)
        m = random_basis_change(flash_sum(shapes, params), seed)
        assert _assert_parsers_agree(print_module(m)) == m
        assert _assert_parsers_agree(_restated(m, rng)) == m


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 0])
@pytest.mark.parametrize("term", ["y", "12*y", "y + z"])
def test_repeated_names_pass_a_lane_room(p, term):
    # p repeats of one term first reach p in a lane; 3000 take a byte lane
    # far past 255 unless the sum is reduced in time, and a reduction one
    # term late takes the lane of y past 255 at every p <= 13.  The lane of
    # z sits next to y's, so a carry shows
    for count in (p or 1, 3000):
        doc = ("field {p}\ndeg e1 1\ndeg e2 3\nalgebra B\nbasis a 0, y 3, z 3\ne2 a = "
               .format(p=p) + " + ".join([term] * count) + "\n")
        m = _assert_parsers_agree(doc)
        coeff = 12 if "*" in term else 1
        want = (coeff * count, count if "z" in term else 0)
        field = m.field
        assert m.action(E2, 0).col(0) == tuple(field.coerce(c) for c in want)


def test_rational_coefficients():
    doc = ("field 0\ndeg e1 1\ndeg e2 3\nalgebra B\n"
           "basis a 0, b 3\n"
           "e2 a = 1/2*b\n")
    m = parse_module(doc)
    assert print_module(m).count("1/2*b") == 1
    with pytest.raises(DocumentError, match="bad coefficient"):
        parse_module(doc.replace("field 0", "field 2"))


def test_to_dot_counts():
    m1 = make_flash(FlashShape.l(1, 0, 1), P)
    dot = to_dot(m1)
    assert dot.count("->") == 3
    assert dot.count("];") == 4 + 3  # node lines plus edge lines
    simple = make_flash(FlashShape.simple(), P)
    dot_simple = to_dot(simple)
    assert dot_simple.count("->") == 0 and dot_simple.count("];") == 1
    from extmod.modules import zero_module
    dot_zero = to_dot(zero_module(P))
    assert dot_zero.count("];") == 0


def test_to_dot_deterministic_with_autolabels():
    m = random_basis_change(make_flash(FlashShape.l(1, 0, 1), P), 1)
    assert m.labels is None
    assert to_dot(m) == to_dot(m)
    assert '"v0_0"' in to_dot(m)


# the document and DOT output of one module per field family, pinned as text:
# multi-term lines, and nonunit coefficients over F5, F17 and Q
GOLDEN_SOURCE = """\
field {f}
deg e1 1
deg e2 3
algebra B
basis a 0, b 0, c 2, y 3, z 3
e1 c = y + {c}*z
e2 a = {c}*y + z
e2 b = {c}*z
"""

DOC_F2 = """\
field 2
deg e1 1
deg e2 3
algebra B
basis a 0
basis b 0
basis c 2
basis y 3
basis z 3
e1 c = y + z
e2 a = y + z
e2 b = z
"""

DOC_F2_DOT = """\
digraph module {
  rankdir=LR;
  "a" [label="a (0)"];
  "b" [label="b (0)"];
  "c" [label="c (2)"];
  "y" [label="y (3)"];
  "z" [label="z (3)"];
  "c" -> "y" [label="e1", style=solid];
  "c" -> "z" [label="e1", style=solid];
  "a" -> "y" [label="e2", style=bold];
  "a" -> "z" [label="e2", style=bold];
  "b" -> "z" [label="e2", style=bold];
}
"""

DOC_F5 = """\
field 5
deg e1 1
deg e2 3
algebra B
basis a 0
basis b 0
basis c 2
basis y 3
basis z 3
e1 c = y + 3*z
e2 a = 3*y + z
e2 b = 3*z
"""

DOC_F5_DOT = """\
digraph module {
  rankdir=LR;
  "a" [label="a (0)"];
  "b" [label="b (0)"];
  "c" [label="c (2)"];
  "y" [label="y (3)"];
  "z" [label="z (3)"];
  "c" -> "y" [label="e1", style=solid];
  "c" -> "z" [label="e1 (3)", style=solid];
  "a" -> "y" [label="e2 (3)", style=bold];
  "a" -> "z" [label="e2", style=bold];
  "b" -> "z" [label="e2 (3)", style=bold];
}
"""

DOC_F17 = """\
field 17
deg e1 1
deg e2 3
algebra B
basis a 0
basis b 0
basis c 2
basis y 3
basis z 3
e1 c = y + 16*z
e2 a = 16*y + z
e2 b = 16*z
"""

DOC_F17_DOT = """\
digraph module {
  rankdir=LR;
  "a" [label="a (0)"];
  "b" [label="b (0)"];
  "c" [label="c (2)"];
  "y" [label="y (3)"];
  "z" [label="z (3)"];
  "c" -> "y" [label="e1", style=solid];
  "c" -> "z" [label="e1 (16)", style=solid];
  "a" -> "y" [label="e2 (16)", style=bold];
  "a" -> "z" [label="e2", style=bold];
  "b" -> "z" [label="e2 (16)", style=bold];
}
"""

DOC_Q = """\
field 0
deg e1 1
deg e2 3
algebra B
basis a 0
basis b 0
basis c 2
basis y 3
basis z 3
e1 c = y + -1/2*z
e2 a = -1/2*y + z
e2 b = -1/2*z
"""

DOC_Q_DOT = """\
digraph module {
  rankdir=LR;
  "a" [label="a (0)"];
  "b" [label="b (0)"];
  "c" [label="c (2)"];
  "y" [label="y (3)"];
  "z" [label="z (3)"];
  "c" -> "y" [label="e1", style=solid];
  "c" -> "z" [label="e1 (-1/2)", style=solid];
  "a" -> "y" [label="e2 (-1/2)", style=bold];
  "a" -> "z" [label="e2", style=bold];
  "b" -> "z" [label="e2 (-1/2)", style=bold];
}
"""


@pytest.mark.parametrize("field, coefficient, document, dot",
                         [(2, "1", DOC_F2, DOC_F2_DOT), (5, "3", DOC_F5, DOC_F5_DOT),
                          (17, "-1", DOC_F17, DOC_F17_DOT), (0, "-1/2", DOC_Q, DOC_Q_DOT)],
                         ids=["F2", "F5", "F17", "Q"])
def test_printers_match_golden_text(field, coefficient, document, dot):
    m = parse_module(GOLDEN_SOURCE.format(f=field, c=coefficient))
    assert print_module(m) == document
    assert to_dot(m) == dot
    assert print_module(parse_module(document)) == document
