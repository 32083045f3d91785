import hashlib
import json
import os
from pathlib import Path
import re
import subprocess
import sys
import time
import tracemalloc

import pytest

import extmod
from extmod import cli
from extmod.cli import MAX_NESTING, MAX_RANDOMIZE_DIM, MAX_TERM_DIM, main
from extmod.decompose import InternalError
from extmod.linalg import PRIME_TEST_BOUND
from extmod.modules import FlashShape, default_params, make_flash
from extmod.textio import parse_module, print_module
from helpers import counterexample_stage

P = default_params()
GOLDEN = Path(__file__).parent / "golden"


def write_doc(tmp_path, name, module):
    path = tmp_path / name
    path.write_text(print_module(module))
    return str(path)


def test_build_writes_parseable_document(tmp_path, capsys):
    out = tmp_path / "m.txt"
    assert main(["build", "L(1,0,1)@0", "-o", str(out)]) == 0
    assert parse_module(out.read_text()) == make_flash(FlashShape.l(1, 0, 1), P)


def test_build_stdout_and_sum(capsys):
    assert main(["build", "L(0,0,1)@0 + simple@4"]) == 0
    m = parse_module(capsys.readouterr().out)
    assert m.dims_by_degree == {0: 1, 3: 1, 4: 1}


def test_build_transforms(capsys):
    assert main(["build", "truncate(shift(L(2,0,1)@0, 1), 5)"]) == 0
    m = parse_module(capsys.readouterr().out)
    assert m.dims_by_degree == {1: 1, 3: 1, 4: 1, 5: 1}


def test_build_deterministic_randomize(capsys):
    assert main(["build", "randomize(L(1,0,1)@0 + L(0,0,1)@0, 11)"]) == 0
    first = capsys.readouterr().out
    assert main(["build", "randomize(L(1,0,1)@0 + L(0,0,1)@0, 11)"]) == 0
    assert capsys.readouterr().out == first
    # global seed feeds seedless randomize
    assert main(["--seed", "4", "build", "randomize(L(1,0,1)@0)"]) == 0
    with_global = capsys.readouterr().out
    assert main(["build", "randomize(L(1,0,1)@0, 4)"]) == 0
    assert capsys.readouterr().out == with_global


GOLDEN_BASIS = ("deg e1 1\ndeg e2 3\nalgebra B\n"
                "basis v0_0 0\nbasis v0_1 0\nbasis v2_0 2\n"
                "basis v3_0 3\nbasis v3_1 3\nbasis v5_0 5\n")
GOLDEN_RANDOMIZE = {
    2: "field 2\n" + GOLDEN_BASIS + ("e1 v2_0 = v3_0 + v3_1\n"
                                     "e2 v0_0 = v3_1\n"
                                     "e2 v0_1 = v3_0 + v3_1\n"
                                     "e2 v2_0 = v5_0\n"),
    5: "field 5\n" + GOLDEN_BASIS + ("e1 v2_0 = v3_1\n"
                                     "e2 v0_0 = 3*v3_0 + v3_1\n"
                                     "e2 v0_1 = 3*v3_0\n"
                                     "e2 v2_0 = 3*v5_0\n"),
    17: "field 17\n" + GOLDEN_BASIS + ("e1 v2_0 = 5*v3_0 + 2*v3_1\n"
                                       "e2 v0_0 = 14*v3_0 + 5*v3_1\n"
                                       "e2 v0_1 = 3*v3_0 + v3_1\n"
                                       "e2 v2_0 = 2*v5_0\n"),
    0: "field 0\n" + GOLDEN_BASIS + ("e1 v2_0 = -9*v3_0 + -6*v3_1\n"
                                     "e2 v0_0 = -2*v3_0 + -1*v3_1\n"
                                     "e2 v0_1 = -15*v3_0 + -9*v3_1\n"
                                     "e2 v2_0 = 3*v5_0\n"),
}


@pytest.mark.parametrize("char", sorted(GOLDEN_RANDOMIZE))
def test_build_randomize_golden(capsys, char):
    # a seed names one module for good: the scramble's random stream is pinned
    assert main(["build", "randomize(L(1,0,1)@0 + L(0,0,1)@0, 11)",
                 "--field", str(char)]) == 0
    assert capsys.readouterr().out == GOLDEN_RANDOMIZE[char]


def test_build_randomize_golden_with_many_singular_draws(capsys):
    # degrees of dimension 14 over F2, where about 70% of the drawn matrices
    # are singular and rejected: the stream must still skip exactly their entries
    expr = f"randomize({' + '.join(['L(2,1,1)@0'] * 14)}, 5)"
    assert main(["build", expr, "--field", "2"]) == 0
    out = capsys.readouterr().out
    assert out.count("\nbasis v0_") == 14
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "73a575d14065ada3d946d3b20adf69f7747f8e875e404007832653ea4c1b8357"


OVERLONG = "1" + "0" * 5000


@pytest.mark.parametrize("expr, offset, message", [
    # int() converts at most 4300 digits; a longer number is an input error
    ("L(1,0,1)@" + OVERLONG, 9, "integer 100000000000... has 5001 digits"),
    ("randomize(simple@0, " + OVERLONG + ")", 20, "integer 100000000000... has 5001 digits"),
    # a sign needs digits after it
    ("L(+,0,1)@0", 2, "expected an integer"),
    ("shift(L(1,0,1)@0, -)", 18, "expected an integer"),
    ("L(\u00b2,0,1)@0", 2, "expected an integer"),
    # a flag outside 0/1, or a negative n, is reported at the start of its term
    ("inf(2)@trunc=5", 0, "inf(e) needs flag 0/1"),
    ("simple@0 + inf(-1)@trunc=5", 11, "inf(e) needs flag 0/1"),
    ("L(1,2,0)@0", 0, "L(n,e,e') needs n >= 0 and flags 0/1"),
    ("shift(L(-1,0,1)@0, 1)", 6, "L(n,e,e') needs n >= 0 and flags 0/1"),
], ids=["shift", "seed", "sign-in-flash", "sign-in-shift", "superscript",
        "inf-flag-2", "inf-flag-minus-1", "L-flag-2", "L-n-minus-1"])
def test_build_rejects_bad_integer(capsys, expr, offset, message):
    assert main(["build", expr]) == 2
    err = capsys.readouterr().err
    assert f"offset {offset}: {message}" in err
    assert "Traceback" not in err


# 10**24 + 7 is prime and 10**24 + 9 composite, both below the bound up to
# which primality is tested; 2**89 - 1 is a prime above it
PRIME_CASES = [("2^32+15", 2**32 + 15, None), ("10^24+7", 10**24 + 7, None),
               ("10^24+9", 10**24 + 9, "must be 0 or a prime"),
               ("2^89-1", 2**89 - 1, f"at or above {PRIME_TEST_BOUND}")]


@pytest.mark.parametrize("source, char, message", [
    *[pytest.param(source, str(char), message, id=f"{source}-{name}")
      for source in ("--field", "document") for name, char, message in PRIME_CASES],
    pytest.param("--field", OVERLONG, "invalid int value", id="--field-10^5000"),
    pytest.param("document", OVERLONG, "field characteristic of 5001 characters is too long",
                 id="document-10^5000"),
])
def test_characteristic_primality_is_bounded(tmp_path, capsys, source, char, message):
    start = time.perf_counter()
    if source == "--field":
        code = main(["build", "simple@0", "--field", char])
    else:
        path = tmp_path / "m.txt"
        path.write_text(f"field {char}\ndeg e1 1\ndeg e2 3\nalgebra B\nbasis x 0\n")
        code = main(["decompose", str(path)])
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    if message is None:
        assert code == 0, err
    else:
        assert code == 2 and message in err, err


def test_build_free_infers_variant_a(capsys):
    assert main(["build", "free@0"]) == 0
    assert "algebra A" in capsys.readouterr().out


def test_build_bad_expression(capsys):
    assert main(["build", "L(1,0)@0"]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("expr, term", [
    ("L(100000000,0,0)@0", "L(100000000,0,0)@0"),
    ("inf(0)@trunc=100000000", "inf(0)@trunc=100000000"),
    ("randomize(simple@0 + shift(L(50000,1,1)@2, 1))", "L(50000,1,1)@2"),
])
def test_build_rejects_oversized_term(capsys, expr, term):
    # checked against the term's own numbers, before anything is allocated
    assert main(["build", expr]) == 2
    err = capsys.readouterr().err
    assert f"term {term!r} has dimension" in err
    assert f"above the limit of {MAX_TERM_DIM}" in err


def _traced_main(argv):
    """main(argv), its exit code, its seconds and its peak traced allocation."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return code, time.perf_counter() - start, peak


# L(n,1,1) has 2n + 3 basis vectors, inf(0)@trunc=D with gap 2 has D + 2,
# free@d 4 and simple@d 1
SUM_CASES = [
    (["L(30000,1,1)@0 + L(30000,1,1)@0"], "L(30000,1,1)@0", 60003, 120006),
    (["simple@0 + shift(L(30000,1,1)@0 + L(30000,0,1)@0, 2)"], "L(30000,0,1)@0", 60002, 120006),
    (["randomize(truncate(L(40000,1,1)@0, 3) + inf(0)@trunc=40000, 7)"],
     "inf(0)@trunc=40000", 40002, 120005),
    (["--variant", "A", "L(49998,1,1)@0 + free@3"], "free@3", 4, 100003),
    (["L(49998,1,1)@0 + simple@0 + simple@1"], "simple@1", 1, 100001),
]


@pytest.mark.parametrize("argv, term, dim, total", SUM_CASES,
                         ids=[case[1] for case in SUM_CASES])
def test_build_rejects_an_oversized_sum(capsys, argv, term, dim, total):
    # the running sum is checked against the terms' numbers, at the term that
    # crosses the limit, before anything is built
    code, seconds, peak = _traced_main(["build", *argv])
    assert seconds < 1.0 and peak < 1_000_000
    err = capsys.readouterr().err
    assert code == 2
    assert (f"offset {argv[-1].rindex(term)}: term {term!r} has dimension {dim}, which takes "
            f"the sum to {total}, above the limit of {MAX_TERM_DIM}") in err


@pytest.mark.parametrize("expr, degree", [
    ("randomize(" + " + ".join(["simple@0"] * (MAX_RANDOMIZE_DIM + 1)) + ")", 0),
    ("randomize(simple@0 + shift(" + " + ".join(["simple@3"] * (MAX_RANDOMIZE_DIM + 1))
     + ", 1), 5)", 4),
], ids=["one-degree", "shifted"])
def test_build_rejects_randomizing_an_oversized_degree(capsys, expr, degree):
    # checked before the dense change of basis is drawn
    code, seconds, peak = _traced_main(["build", expr])
    assert seconds < 1.0 and peak < 1_000_000
    err = capsys.readouterr().err
    assert code == 2
    assert (f"offset 0: randomize would scramble degree {degree} of dimension "
            f"{MAX_RANDOMIZE_DIM + 1}, above the limit of {MAX_RANDOMIZE_DIM}") in err


def _nested(transforms, inner="simple@0"):
    """inner inside the transforms, the first outermost, each written as
    (name, argument)."""
    for name, arg in reversed(transforms):
        inner = f"{name}({inner}, {arg})"
    return inner


def test_build_nests_transforms_up_to_the_limit(capsys):
    # checked while parsing, before the recursion of parser or builders runs deep
    assert main(["build", _nested([("shift", 1)] * MAX_NESTING)]) == 0
    assert parse_module(capsys.readouterr().out).dim(MAX_NESTING) == 1
    mixed = [("randomize", 3), ("truncate", 20), ("shift", -1)] * (MAX_NESTING // 3)
    assert main(["build", _nested(mixed, "L(2,1,1)@0")]) == 0
    assert parse_module(capsys.readouterr().out).total_dim == 7
    for depth in (MAX_NESTING + 1, 330, 5000):
        code, seconds, _ = _traced_main(["build", _nested([("shift", 1)] * depth)])
        assert code == 2 and seconds < 1.0
        assert capsys.readouterr().err == (
            f"error: build expression, offset {len('shift(') * MAX_NESTING}: "
            f"transforms nest deeper than the limit of {MAX_NESTING}\n")


def test_build_inf_expression(capsys):
    assert main(["build", "inf(0)@trunc=7"]) == 0
    m = parse_module(capsys.readouterr().out)
    assert m.dim(0) == 1 and m.dim(7) == 1


def test_decompose_m1(tmp_path, capsys):
    path = write_doc(tmp_path, "m1.txt", make_flash(FlashShape.l(1, 0, 1), P))
    assert main(["decompose", path, "--certify", "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "L(1,0,1)@0 x1" in out
    assert "certified: True" in out
    assert "oracle agrees: True" in out


def test_decompose_json(tmp_path, capsys):
    path = write_doc(tmp_path, "m1.txt", make_flash(FlashShape.l(1, 0, 1), P))
    assert main(["--report", "json", "decompose", path]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == {"multiset": {"L(1,0,1)@0": 1}}


def test_filtration_on_stage(tmp_path, capsys):
    path = write_doc(tmp_path, "stage.txt", counterexample_stage(4, P))
    assert main(["filtration", path, "--j", "1", "--degree", "0"]) == 0
    assert capsys.readouterr().out.strip() == "dim 4"
    assert main(["filtration", path, "--j", "1"]) == 0
    assert "deg 0: 4" in capsys.readouterr().out
    # a degree the stage lacks
    assert main(["filtration", path, "--j", "1", "--degree", "999"]) == 0
    assert capsys.readouterr().out == "dim 0\n"
    assert main(["--report", "json", "filtration", path, "--j", "1", "--degree", "999"]) == 0
    assert json.loads(capsys.readouterr().out) == {"j": 1, "degree": 999, "dim": 0}
    # the chain stops at its first repeated term, so any j past it, even one
    # at or above sys.maxsize, reads the stable term: the tops
    for j in ("40", str(sys.maxsize), "99999999999999999999"):
        assert main(["--report", "json", "filtration", path, "--j", j]) == 0
        assert json.loads(capsys.readouterr().out)["dims"] == \
            {"3": 5, "5": 4, "7": 3, "9": 2, "11": 1}


def test_filtration_negative_j_exit_2(tmp_path, capsys):
    path = write_doc(tmp_path, "m1.txt", make_flash(FlashShape.l(1, 0, 1), P))
    assert main(["filtration", path, "--j", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "--j" in captured.err


def test_decompose_oracle_above_bound_exit_2(tmp_path, capsys):
    doc = str(tmp_path / "m.txt")
    assert main(["build", "randomize(L(3,0,1)@0 + L(4,1,1)@2 + L(2,0,0)@1, 5)",
                 "-o", doc]) == 0
    assert main(["decompose", doc, "--oracle"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "24 > 12" in captured.err


def test_decompose_negative_oracle_bound_exit_2(tmp_path, capsys):
    path = write_doc(tmp_path, "m.txt", make_flash(FlashShape.l(1, 0, 1), P))
    assert main(["decompose", path, "--oracle", "--oracle-bound", "-5"]) == 2
    assert capsys.readouterr() == ("", "error: --oracle-bound must be non-negative, got -5\n")
    # the bound is read only with --oracle
    assert main(["decompose", path, "--oracle-bound", "-5"]) == 0


def test_failed_invariant_check_exit_2(tmp_path, capsys, monkeypatch):
    # a failed invariant check is a defect of the package; the run reports it
    # on one line instead of a traceback
    path = write_doc(tmp_path, "m.txt", make_flash(FlashShape.l(2, 0, 1), P))

    def broken(module):
        raise InternalError("strand lost its top")

    monkeypatch.setattr(cli, "decompose", broken)
    assert main(["decompose", path]) == 2
    assert capsys.readouterr() == ("", "error: internal check failed: strand lost its top\n")


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_sampled_q_oracle_that_finds_no_split_is_inconclusive(tmp_path, capsys, seed):
    # the oracle over Q samples its candidates, and on this scrambled sum none
    # of them splits a piece that is not a flash: it exits 2 naming the error
    # as its own, with how many candidates it tried
    doc = str(tmp_path / "m.txt")
    expr = ("randomize(L(0,1,1)@1 + L(2,1,0)@2 + L(2,0,1)@5 + L(0,1,0)@3 "
            "+ L(0,0,1)@1, 287157568)")
    assert main(["build", expr, "--field", "0", "-o", doc]) == 0
    capsys.readouterr()
    code = main(["--report", "json", "--seed", str(seed), "decompose", doc, "--certify",
                 "--oracle", "--oracle-bound", "19"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert re.fullmatch(r"error: oracle inconclusive: \d+ candidate endomorphisms, most of "
                        r"them drawn at random, split no piece of dimension 5, and that "
                        r"piece is not a flash \(leaf dimensions do not match shape "
                        r"L\(1,1,0\)@1\); try another --seed\n", err)


def test_margolis(tmp_path, capsys):
    path = write_doc(tmp_path, "m2.txt", make_flash(FlashShape.l(2, 0, 1), P))
    assert main(["margolis", path, "--op", "e1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["deg 0: 1", "deg 7: 1"]
    assert main(["margolis", path, "--op", "e2"]) == 0
    assert capsys.readouterr().out.strip() == "zero"


def test_split_free(tmp_path, capsys):
    assert main(["build", "randomize(free@0 + L(1,0,1)@0, 3)",
                 "-o", str(tmp_path / "fa.txt")]) == 0
    comp = tmp_path / "comp.txt"
    assert main(["split-free", str(tmp_path / "fa.txt"),
                 "--complement-out", str(comp)]) == 0
    out = capsys.readouterr().out
    assert "free rank @ deg 0: 1" in out
    parsed = parse_module(comp.read_text())
    assert parsed.total_dim == 4


def test_paper_check_passes(capsys):
    assert main(["paper-check", "--N", "2", "--jmax", "4"]) == 0
    out = capsys.readouterr().out
    assert "ALL ITEMS PASS" in out
    assert out.count("[PASS]") == 9


GOLDEN_JSON = [(n, field, degs, name) for n in (6, 20) for field, degs, name in (
    ("2", "1,3", "F2_1-3"), ("5", "2,5", "F5_2-5"), ("17", "1,3", "F17_1-3"),
    ("0", "1,3", "Q_1-3"))]


# the N = 6 rows keep the ids they had before the N = 20 rows joined them
@pytest.mark.parametrize("n, field, degs, name", GOLDEN_JSON,
                         ids=[f"{f}-{d}-{name}" + ("" if n == 6 else f"-N{n}")
                              for n, f, d, name in GOLDEN_JSON])
def test_paper_check_json_golden(capsys, field, degs, name, n):
    assert main(["--report", "json", "paper-check", "--N", str(n), "--jmax", str(n + 2),
                 "--field", field, "--degs", degs]) == 0
    golden = (GOLDEN / f"paper_check_N{n}_{name}.json").read_text()
    assert capsys.readouterr().out == golden


def test_paper_check_text_golden(capsys):
    assert main(["paper-check", "--N", "4", "--jmax", "6"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "paper_check_N4.txt").read_text()


def test_paper_check_json_schema(capsys):
    assert main(["--report", "json", "paper-check", "--N", "1", "--jmax", "2",
                 "--field", "5", "--degs", "2,5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert doc["params"]["field"] == 5
    assert doc["params"]["deg_e1"] == 2
    assert {frozenset(item) for item in doc["items"]} == \
        {frozenset({"id", "quote", "data", "pass"})}


@pytest.mark.parametrize("argv, flag, dim", [
    (["--N", "315", "--jmax", "316"], "--N 315", 316 * 317),
    (["--N", "100000000", "--jmax", "100000001"], "--N 100000000", 100000001 * 100000002),
    # the report lists jmax + 1 dimensions, and --jmax is bounded by itself
    (["--N", "2", "--jmax", "100001"], "--jmax 100001", None),
    (["--N", "4", "--jmax", "100000000"], "--jmax 100000000", None),
    (["--N", "4", "--jmax", "100000000", "--field", "5", "--degs", "2,5"],
     "--jmax 100000000", None),
])
def test_paper_check_rejects_oversized_numbers(capsys, argv, flag, dim):
    # checked against the numbers alone, before anything is built
    code, seconds, peak = _traced_main(["paper-check", *argv])
    assert seconds < 1.0 and peak < 1_000_000
    assert code == 2
    what = "is" if dim is None else f"makes a module of dimension {dim},"
    assert capsys.readouterr().err == f"error: {flag} {what} above the limit of {MAX_TERM_DIM}\n"


def test_paper_check_degrees_size_nothing(capsys):
    # the right-infinite flash is read off L(2,0,0), 5 vectors at any degrees
    code, seconds, peak = _traced_main(["paper-check", "--N", "3", "--jmax", "5",
                                        "--degs", "1000000,1000003"])
    assert seconds < 1.0 and peak < 1_000_000
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 10 and all(line.startswith("[PASS]") for line in lines[:-1])
    assert lines[-1] == "ALL ITEMS PASS"


def test_paper_check_runs_at_the_jmax_limit(capsys):
    assert main(["--report", "json", "paper-check", "--N", "1", "--jmax", str(MAX_TERM_DIM)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["pass"] is True
    assert len(doc["items"][2]["data"]["dims"]) == MAX_TERM_DIM + 1


def test_paper_check_usage_errors(capsys):
    assert main(["paper-check", "--N", "3", "--jmax", "3"]) == 2
    assert main(["paper-check", "--N", "2", "--jmax", "4",
                 "--field", "6"]) == 2
    # the right-infinite flash is read exactly: no option sets a truncation degree
    assert main(["paper-check", "--N", "2", "--jmax", "4", "--trunc", "20"]) == 2
    assert "unrecognized arguments: --trunc 20" in capsys.readouterr().err


def test_parser_is_built_once_per_process(capsys):
    cli._build_parser.cache_clear()
    for _ in range(3):
        assert main(["paper-check", "--N", "1", "--jmax", "2"]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)


@pytest.mark.parametrize("first, code", [
    (["paper-check", "--N", "x", "--jmax", "4"], 2),
    (["no-such-command"], 2),
    (["--help"], 0),
    (["paper-check", "--help"], 0),
    (["--report", "text", "paper-check", "--N", "1", "--jmax", "2",
      "--field", "5", "--degs", "2,5"], 0),
])
def test_a_reused_parser_keeps_nothing_from_the_previous_call(capsys, first, code):
    argv = ["--report", "json", "paper-check", "--N", "2", "--jmax", "4"]
    cli._build_parser.cache_clear()
    assert main(argv) == 0
    fresh = capsys.readouterr().out
    assert main(first) == code
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == fresh


def test_python_dash_m_runs_the_command_line():
    env = dict(os.environ, PYTHONPATH=str(Path(extmod.__file__).parent.parent))
    runs = [subprocess.run([sys.executable, "-m", module, "paper-check", "--N", "2",
                            "--jmax", "3"], env=env, capture_output=True, text=True,
                           timeout=60)
            for module in ("extmod", "extmod.cli")]
    assert [(run.returncode, run.stderr) for run in runs] == [(0, ""), (0, "")]
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.endswith("ALL ITEMS PASS\n")


@pytest.mark.parametrize("report", ["text", "json"])
def test_closed_stdout_exits_2_without_a_traceback(report):
    # the pipe's reader is gone before the first write, as when `| head -c 20`
    # has read its bytes; the error is met in main, not at the exit flush
    env = dict(os.environ, PYTHONPATH=str(Path(extmod.__file__).parent.parent))
    read, write = os.pipe()
    os.close(read)
    try:
        run = subprocess.run([sys.executable, "-m", "extmod", "--report", report,
                              "paper-check", "--N", "2", "--jmax", "3"], stdout=write,
                             stderr=subprocess.PIPE, env=env, text=True, timeout=60)
    finally:
        os.close(write)
    assert (run.returncode, run.stderr) == (
        2, "error: standard output was closed before all output was written\n")
    # stderr shares the closed pipe, as under `2>&1 | head -c 20`: the message
    # is lost, and the exit code is still 2
    for args in (["paper-check", "--N", "2", "--jmax", "3"], ["build", "L(1,0,1)@0"]):
        read, write = os.pipe()
        os.close(read)
        try:
            run = subprocess.run([sys.executable, "-m", "extmod", "--report", report, *args],
                                 stdout=write, stderr=write, env=env, timeout=60)
        finally:
            os.close(write)
        assert run.returncode == 2, args
    # started with fd 1 closed, Python sets sys.stdout to None, so nothing
    # can be written at all
    run = subprocess.run([sys.executable, "-m", "extmod", "--report", report,
                          "paper-check", "--N", "2", "--jmax", "3"], stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, env=env, text=True, timeout=60,
                         preexec_fn=lambda: os.close(1))
    assert (run.returncode, run.stderr) == (2, "error: standard output is closed\n")


def test_cli_deterministic_output(tmp_path, capsys):
    path = write_doc(tmp_path, "m.txt", make_flash(FlashShape.l(2, 0, 1), P))
    assert main(["decompose", path]) == 0
    first = capsys.readouterr().out
    assert main(["decompose", path]) == 0
    assert capsys.readouterr().out == first


def test_malformed_document_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("field 2\ndeg e1 1\ndeg e2 3\nalgebra B\nbasis a 0\ne1 a = a\n")
    assert main(["decompose", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "line 6" in err


def test_missing_file_exit_2(capsys):
    assert main(["decompose", "/nonexistent/nothing.txt"]) == 2


def test_non_utf8_document_exit_2(tmp_path, capsys):
    bad = tmp_path / "bytes.txt"
    bad.write_bytes(bytes(range(128, 256)) * 2)
    assert main(["decompose", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {bad}: ")


def test_variant_a_with_free_part_rejected_by_decompose(tmp_path, capsys):
    assert main(["build", "free@0", "-o", str(tmp_path / "f.txt")]) == 0
    assert main(["decompose", str(tmp_path / "f.txt")]) == 2
    assert "split-free" in capsys.readouterr().err


def test_diagram(tmp_path, capsys):
    path = write_doc(tmp_path, "m1.txt", make_flash(FlashShape.l(1, 0, 1), P))
    assert main(["diagram", path, "--format", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert out.count("->") == 3
    assert main(["diagram", path, "--format", "svg"]) == 2


def test_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
def test_written_documents_get_the_mode_a_plain_write_gives(tmp_path, capsys, umask):
    # a new file gets 0666 less the umask, not the 0600 of the temporary file
    # the write goes through, and an overwritten file keeps its mode
    old = os.umask(umask)
    try:
        new, plain = tmp_path / "new.txt", tmp_path / "plain.txt"
        assert main(["build", "L(1,0,1)@0", "-o", str(new)]) == 0
        plain.write_text("x\n")
        assert new.stat().st_mode & 0o777 == plain.stat().st_mode & 0o777 == 0o666 & ~umask
        for mode in (0o640, 0o604, 0o755):
            new.chmod(mode)
            assert main(["build", "L(2,0,1)@0", "-o", str(new)]) == 0
            assert new.stat().st_mode & 0o777 == mode
            assert parse_module(new.read_text()) == make_flash(FlashShape.l(2, 0, 1), P)
        # a complement document takes the same route
        doc, out = str(tmp_path / "fa.txt"), tmp_path / "complement.txt"
        assert main(["build", "free@0 + L(1,0,1)@0", "-o", doc]) == 0
        assert main(["split-free", doc, "--complement-out", str(out)]) == 0
        assert out.stat().st_mode & 0o777 == 0o666 & ~umask
    finally:
        os.umask(old)
    capsys.readouterr()
    assert not list(tmp_path.glob(".extmod-*"))


def test_written_documents_go_through_a_symbolic_link(tmp_path, capsys):
    # as a plain write does: the link stays a link and its target, named
    # relative to the link, gets the document; a dangling link creates its
    # target; and no temporary file is left beside either
    (tmp_path / "elsewhere").mkdir()
    target, link = tmp_path / "elsewhere" / "target.txt", tmp_path / "link.txt"
    target.write_text("old\n")
    link.symlink_to(Path("elsewhere") / "target.txt")
    assert main(["build", "L(1,0,1)@0", "-o", str(link)]) == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert parse_module(target.read_text()) == make_flash(FlashShape.l(1, 0, 1), P)
    dangling, missing = tmp_path / "dangling.txt", tmp_path / "elsewhere" / "missing.txt"
    dangling.symlink_to(missing)
    assert main(["build", "simple@0", "-o", str(dangling)]) == 0
    assert dangling.is_symlink()
    assert parse_module(missing.read_text()) == make_flash(FlashShape.simple(0), P)
    capsys.readouterr()
    assert not list(tmp_path.rglob(".extmod-*"))


def test_failed_write_leaves_no_file(tmp_path, capsys):
    target = tmp_path / "out" / "x.txt"  # parent missing -> open fails
    code = main(["build", "L(1,0)@0", "-o", str(target)])
    assert code == 2
    assert not target.exists()
    capsys.readouterr()
    # a good expression but an unwritable target also exits 2, file-free, and
    # names the target, not the temporary file the write went through
    assert main(["build", "L(1,0,1)@0", "-o", str(target)]) == 2
    assert not target.exists()
    err = capsys.readouterr().err
    assert err == f"error: cannot write {target}: No such file or directory\n"
    assert ".extmod-" not in err
    # an existing directory as the target: the write fails at the final rename
    doc = str(tmp_path / "fa.txt")
    assert main(["build", "randomize(free@0 + L(1,0,1)@0, 3)", "-o", doc]) == 0
    taken = tmp_path / "taken"
    taken.mkdir()
    (taken / "keep.txt").write_text("kept\n")
    capsys.readouterr()
    for argv in (["build", "simple@0", "-o", str(taken)],
                 ["split-free", doc, "--complement-out", str(taken)]):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {taken}: Is a directory\n"
        assert ".extmod-" not in err
        assert [p.name for p in taken.iterdir()] == ["keep.txt"]
        assert (taken / "keep.txt").read_text() == "kept\n"
        assert not list(tmp_path.glob(".extmod-*"))
