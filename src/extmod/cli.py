"""Command-line driver.

Subcommands: ``build`` (construct modules from shape expressions or a
document), ``decompose``, ``filtration``, ``margolis``, ``split-free``,
``paper-check`` (the full counterexample check suite) and ``diagram``.
Exit codes: 0 success / all checks pass, 1 a check failed, 2 usage or
parse errors.  Output is deterministic for a fixed argv.
"""

from __future__ import annotations

import argparse
from collections.abc import Callable
from functools import cache
import json
import os
import re
import sys
import tempfile

from .decompose import (InternalError, idempotent_oracle, decompose, split_free,
                        verify_decomposition, verify_split_free)
from .linalg import Field
from .modules import (E1, E2, AlgebraParams, FlashShape, Module, direct_sum,
                      make_flash, make_free, random_basis_change, shift,
                      truncate_above, truncated_infinite_flash, with_variant)
from .operators import filtration, margolis_homology
from .suite import SuiteParams, run_checks
from .textio import DocumentError, parse_module, print_module, to_dot


class CliError(Exception):
    """Usage or input failure; maps to exit code 2."""


class CheckFailure(Exception):
    """A verification that ran fine but did not pass; exit code 1."""


def _write_atomic(path: str, text: str) -> None:
    # never leave a partial file behind
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".extmod-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}") from None


def _read_module(path: str) -> Module:
    try:
        with open(path) as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from None
    try:
        return parse_module(text)
    except DocumentError as exc:
        raise CliError(f"{path}: {exc}") from None


def _as_variant_b(m: Module) -> Module:
    if m.params.variant == "B":
        return m
    try:
        return with_variant(m, "B")
    except ValueError:
        raise CliError("module is a variant-A module on which e1e2 acts "
                       "nontrivially; run split-free first") from None


# ---------------------------------------------------------------------------
# shape expression language for `build`

# The most basis vectors one build expression may create.  A term's dimension
# grows with its own numbers, and a sum's with its length, so they are counted
# from the text before anything is built; memory would otherwise run out first.
MAX_TERM_DIM = 100_000
# The largest degree randomize may scramble: it draws a dense n x n change of
# basis, and inverts it, for a degree of dimension n.
MAX_RANDOMIZE_DIM = 256
# \d is what int() reads: decimal digits, not superscripts
INTEGER = re.compile(r"[+-]?\d+")


class _ExprParser:
    """Recursive descent for sums of shape terms and module transforms.

    terms: L(n,e,e')@shift | free@d | simple@d | inf(e)@trunc=D
           | shift(expr, d) | truncate(expr, D) | randomize(expr[, seed])
    joined with '+' for direct sums.
    """

    def __init__(self, text: str, params: AlgebraParams, default_seed: int):
        self.text = text
        self.pos = 0
        self.params = params
        self.default_seed = default_seed

    def fail(self, message: str):
        raise CliError(f"build expression, offset {self.pos}: {message}")

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def eat(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.eat(literal):
            self.fail(f"expected {literal!r}")

    def integer(self) -> int:
        self.skip_ws()
        match = INTEGER.match(self.text, self.pos)
        if match is None:
            self.fail("expected an integer")
        digits = match[0]
        try:
            value = int(digits)
        except ValueError:
            # int() converts at most sys.get_int_max_str_digits() digits
            self.fail(f"integer {digits[:12]}... has {len(digits.lstrip('+-'))} digits, "
                      f"above the limit of {sys.get_int_max_str_digits()}")
        self.pos = match.end()
        return value

    def parse(self) -> Module:
        """The module the whole text describes, built only once every term is checked."""
        _, build = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.fail("trailing input")
        return build()

    def expr(self, used: int = 0) -> tuple[int, Callable[[], Module]]:
        """A sum of terms after ``used`` basis vectors outside it: dimension and builder."""
        dim, build = self.term(used)
        builds = [build]
        while self.eat("+"):
            more, build = self.term(used + dim)
            dim += more
            builds.append(build)
        return dim, lambda: direct_sum([b() for b in builds], self.params)

    def sized(self, start: int, used: int, dim: int, build) -> tuple[int, Callable[[], Module]]:
        """The term that began at ``start``, unless its dimension, after ``used``
        basis vectors before it, takes the sum past MAX_TERM_DIM."""
        if used + dim > MAX_TERM_DIM:
            term = self.text[start:self.pos]
            self.pos = start
            total = f", which takes the sum to {used + dim}" if used else ""
            self.fail(f"term {term!r} has dimension {dim}{total}, "
                      f"above the limit of {MAX_TERM_DIM}")
        return dim, build

    def term(self, used: int) -> tuple[int, Callable[[], Module]]:
        """One term after ``used`` basis vectors: its dimension and its builder.

        Dimensions come from the numbers alone, so the whole expression is
        checked before anything is built.  A transform counts the terms inside
        it, and a truncation the dimension of what it truncates, which is
        built first.
        """
        self.skip_ws()
        start = self.pos
        params = self.params
        if self.eat("L("):
            n = self.integer()
            self.expect(",")
            eps = self.integer()
            self.expect(",")
            eps2 = self.integer()
            self.expect(")")
            self.expect("@")
            at = self.integer()
            if n < 0 or eps not in (0, 1) or eps2 not in (0, 1):
                self.pos = start
                self.fail("L(n,e,e') needs n >= 0 and flags 0/1")
            shape = FlashShape.l(n, eps, eps2, at)
            return self.sized(start, used, shape.total_dim, lambda: make_flash(shape, params))
        if self.eat("free"):
            self.expect("@")
            at = self.integer()
            if params.variant != "A":
                self.fail("free@d needs variant A (pass --variant A)")
            # 1, e1, e2 and e1e2 times the generator
            return self.sized(start, used, 4, lambda: make_free(at, params))
        if self.eat("simple"):
            self.expect("@")
            shape = FlashShape.simple(self.integer())
            return self.sized(start, used, shape.total_dim, lambda: make_flash(shape, params))
        if self.eat("inf("):
            eps = self.integer()
            self.expect(")")
            self.expect("@trunc=")
            cutoff = self.integer()
            if eps not in (0, 1):
                self.pos = start
                self.fail("inf(e) needs flag 0/1")
            # the untruncated flash that truncated_infinite_flash builds first
            dim = (FlashShape.finite(cutoff // params.gap + 1, bool(eps), True).total_dim
                   if cutoff >= 0 else 0)
            return self.sized(start, used, dim, lambda: truncated_infinite_flash(
                bool(eps), cutoff, params).module)
        if self.eat("shift("):
            dim, inner = self.expr(used)
            self.expect(",")
            by = self.integer()
            self.expect(")")
            return dim, lambda: shift(inner(), by)
        if self.eat("truncate("):
            dim, inner = self.expr(used)
            self.expect(",")
            cutoff = self.integer()
            self.expect(")")
            return dim, lambda: truncate_above(inner(), cutoff)
        if self.eat("randomize("):
            dim, inner = self.expr(used)
            seed = self.integer() if self.eat(",") else self.default_seed
            self.expect(")")

            def randomized() -> Module:
                mod = inner()
                d, n = max(mod.dims_by_degree.items(), key=lambda dn: dn[1], default=(0, 0))
                if n > MAX_RANDOMIZE_DIM:
                    self.pos = start
                    self.fail(f"randomize would scramble degree {d} of dimension {n}, "
                              f"above the limit of {MAX_RANDOMIZE_DIM}")
                return random_basis_change(mod, seed)

            return dim, randomized
        self.fail("expected a shape term")


def _parse_degs(text: str) -> tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError("--degs wants two comma-separated integers, e.g. 1,3")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise CliError(f"bad --degs value {text!r}") from None


def _algebra_from_args(args, variant: str = "B") -> AlgebraParams:
    d1, d2 = _parse_degs(args.degs)
    try:
        return AlgebraParams(Field(args.field), d1, d2, variant)
    except ValueError as exc:
        raise CliError(str(exc)) from None


# ---------------------------------------------------------------------------
# subcommands


def _cmd_build(args) -> int:
    variant = args.variant
    if variant is None:
        variant = "A" if "free" in args.expr else "B"
    params = _algebra_from_args(args, variant)
    module = _ExprParser(args.expr, params, args.seed).parse()
    doc = print_module(module)
    if args.output:
        _write_atomic(args.output, doc)
    else:
        sys.stdout.write(doc)
    return 0


def _cmd_decompose(args) -> int:
    module = _as_variant_b(_read_module(args.file))
    dec = decompose(module)
    payload = {"multiset": {str(k): v for k, v in sorted(dec.multiset().items())}}
    if args.certify:
        check = verify_decomposition(module, dec)
        payload["certified"] = check.ok
        if not check.ok:
            payload["problems"] = list(check.problems)
    if args.oracle:
        try:
            oracle = idempotent_oracle(module, max_total_dim=args.oracle_bound,
                                       seed=args.seed)
        except ValueError as exc:
            raise CliError(str(exc)) from None
        payload["oracle_agrees"] = oracle.multiset() == dec.multiset()
    if args.report == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(dec.format())
        if "certified" in payload:
            print(f"certified: {payload['certified']}")
        if "oracle_agrees" in payload:
            print(f"oracle agrees: {payload['oracle_agrees']}")
    if not payload.get("certified", True) or not payload.get("oracle_agrees", True):
        raise CheckFailure("decomposition failed verification")
    return 0


def _cmd_filtration(args) -> int:
    if args.j < 0:
        raise CliError(f"--j must be non-negative, got {args.j}")
    module = _read_module(args.file)
    sub = filtration(module, args.j)
    if args.degree is not None:
        dim = sub[args.degree].dim if args.degree in sub else 0
        if args.report == "json":
            print(json.dumps({"j": args.j, "degree": args.degree, "dim": dim}))
        else:
            print(f"dim {dim}")
        return 0
    dims = {str(d): s.dim for d, s in sorted(sub.items()) if s.dim}
    if args.report == "json":
        print(json.dumps({"j": args.j, "dims": dims}))
    else:
        for d, n in dims.items():
            print(f"deg {d}: {n}")
    return 0


def _cmd_margolis(args) -> int:
    module = _read_module(args.file)
    hom = margolis_homology(module, args.op)
    if args.report == "json":
        print(json.dumps({"op": args.op,
                          "homology": {str(d): n for d, n in sorted(hom.items())}}))
    else:
        if not hom:
            print("zero")
        for d, n in sorted(hom.items()):
            print(f"deg {d}: {n}")
    return 0


def _cmd_split_free(args) -> int:
    module = _read_module(args.file)
    if module.params.variant != "A":
        raise CliError("split-free expects a variant-A document")
    result = split_free(module)
    check = verify_split_free(module, result)
    if args.complement_out:
        _write_atomic(args.complement_out, print_module(result.complement))
    if args.report == "json":
        print(json.dumps({
            "free_ranks": {str(d): r for d, r in sorted(result.free_ranks.items())},
            "certified": check.ok}, sort_keys=True))
    else:
        if not result.free_ranks:
            print("free part: none")
        for d, r in sorted(result.free_ranks.items()):
            print(f"free rank @ deg {d}: {r}")
        print(f"certified: {check.ok}")
    if not check.ok:
        raise CheckFailure("free splitting failed verification")
    return 0


def _cmd_paper_check(args) -> int:
    algebra = _algebra_from_args(args, "B")
    try:
        sp = SuiteParams(args.N, args.jmax, algebra)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    # the largest modules run_checks builds: the stage, and the flash it truncates
    flash = FlashShape.finite(sp.trunc_degree // algebra.gap + 1, False, True)
    trunc = (f"--jmax {args.jmax} and --degs {args.degs} set the default truncation degree "
             f"jmax*gap + |e2| = {sp.trunc_degree}, which")
    for what, dim in ((f"--N {args.N}", (args.N + 1) * (args.N + 2)), (trunc, flash.total_dim)):
        if dim > MAX_TERM_DIM:
            raise CliError(f"{what} makes a module of dimension {dim}, "
                           f"above the limit of {MAX_TERM_DIM}")
    report = run_checks(sp)
    if args.report == "json":
        print(json.dumps(report.to_json_dict(), sort_keys=True))
    else:
        for item in report.items:
            flag = "PASS" if item.passed else "FAIL"
            print(f"[{flag}] {item.item_id}: {json.dumps(item.data, sort_keys=True)}")
        print("ALL ITEMS PASS" if report.passed else
              f"FAILED at item {report.first_failure().item_id}")
    if not report.passed:
        raise CheckFailure(f"first failing item: {report.first_failure().item_id}")
    return 0


def _cmd_diagram(args) -> int:
    module = _read_module(args.file)
    text = to_dot(module)
    if args.output:
        _write_atomic(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------


@cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="extmod",
        description="exact computation with graded modules over "
                    "two-generator exterior algebras")
    parser.add_argument("--report", choices=("text", "json"), default="text")
    parser.add_argument("--seed", type=int, default=0,
                        help="default seed for randomize expressions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common_algebra(p):
        p.add_argument("--field", type=int, default=2)
        p.add_argument("--degs", default="1,3",
                       help="generator degrees, e.g. 1,3")

    p = sub.add_parser("build", help="construct a module and write a document")
    p.add_argument("expr", help="e.g. 'L(2,0,1)@0 + simple@4' or "
                                "'randomize(L(1,0,1)@0 + free@0, 7)'")
    common_algebra(p)
    p.add_argument("--variant", choices=("A", "B"), default=None)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("decompose", help="decompose into lightning flashes")
    p.add_argument("file")
    p.add_argument("--certify", action="store_true",
                   help="verify the realization certificate")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the idempotent oracle")
    p.add_argument("--oracle-bound", type=int, default=12)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("filtration", help="one term of the preimage filtration")
    p.add_argument("file")
    p.add_argument("--j", type=int, required=True)
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(func=_cmd_filtration)

    p = sub.add_parser("margolis", help="homology of one generator's action")
    p.add_argument("file")
    p.add_argument("--op", choices=(E1, E2), required=True)
    p.set_defaults(func=_cmd_margolis)

    p = sub.add_parser("split-free", help="split off the free part (variant A)")
    p.add_argument("file")
    p.add_argument("--complement-out", default=None)
    p.set_defaults(func=_cmd_split_free)

    p = sub.add_parser("paper-check", help="run the counterexample check suite")
    p.add_argument("--N", type=int, required=True, help="stage size")
    p.add_argument("--jmax", type=int, required=True, help="filtration depth")
    common_algebra(p)
    p.set_defaults(func=_cmd_paper_check)

    p = sub.add_parser("diagram", help="emit a zigzag diagram")
    p.add_argument("file")
    p.add_argument("--format", default="dot", choices=("dot",))
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_diagram)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 1
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalError as exc:
        print(f"error: internal check failed: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
