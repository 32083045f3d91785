import pytest

from extmod.modules import (FlashShape, counterexample_stage, default_params,
                            make_flash, make_free, random_basis_change,
                            truncated_infinite_flash)
from extmod.textio import DocumentError, parse_module, print_module, to_dot

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


def roundtrip_cases():
    p5 = default_params(5)
    p0 = default_params(0)
    pa = default_params(variant="A")
    return [
        make_flash(FlashShape.l(1, 0, 1), P),
        make_flash(FlashShape.finite(3, True, True), P),
        counterexample_stage(3, P),
        make_free(2, pa),
        truncated_infinite_flash(True, 9, P).module,
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
# multi-term lines, and nonunit coefficients over F5 and Q
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
                          (0, "-1/2", DOC_Q, DOC_Q_DOT)], ids=["F2", "F5", "Q"])
def test_printers_match_golden_text(field, coefficient, document, dot):
    m = parse_module(GOLDEN_SOURCE.format(f=field, c=coefficient))
    assert print_module(m) == document
    assert to_dot(m) == dot
    assert print_module(parse_module(document)) == document
