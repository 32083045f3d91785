"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time
from collections import Counter

from extmod.cli import main
from extmod.decompose import (decompose, idempotent_oracle, split_free,
                              verify_decomposition, verify_split_free)
from extmod.modules import (E1, E2, FlashShape, default_params, direct_sum,
                            make_flash, make_free, random_basis_change,
                            truncated_infinite_flash, with_variant)
from extmod.operators import margolis_homology
from extmod.suite import ExclusionProbe, SuiteParams, exclusion_probe, run_checks
from extmod.textio import DocumentError, parse_module, print_module
from helpers import counterexample_stage, flash_sum, random_flash_shapes

P = default_params()


def report(number, name, passed, detail=""):
    flag = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {flag}{suffix}")
    assert passed, f"criterion {number} ({name}) failed"


def test_criterion_1_paper_check_f2():
    start = time.perf_counter()
    rep = run_checks(SuiteParams(8, 10, P))
    elapsed = time.perf_counter() - start
    vector_ok = rep.items[2].data["dims"] == [9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0]
    report(1, "paper-check N=8 F2 degrees (1,3)",
           rep.passed and vector_ok and elapsed < 2.0,
           f"{elapsed:.2f}s, vector {rep.items[2].data['dims']}")


def test_criterion_2_field_degree_independence():
    rep_f5 = run_checks(SuiteParams(8, 10, default_params(5, 2, 5)))
    rep_mixed = run_checks(SuiteParams(8, 10, default_params(5, 1, 3)))
    rep_degs = run_checks(SuiteParams(8, 10, default_params(2, 2, 5)))
    verdicts = [all(i.passed for i in rep.items)
                for rep in (rep_f5, rep_mixed, rep_degs)]
    report(2, "paper-check over F5 and degrees (2,5)", all(verdicts),
           f"verdicts {verdicts}")


def test_criterion_3_decomposition_round_trip():
    start = time.perf_counter()
    failures = 0
    for trial in range(100):
        rng = random.Random(20_000 + trial)
        params = default_params(rng.choice([2, 5]))
        shapes = random_flash_shapes(rng, count_max=12, bottoms_max=7,
                                     shift_max=10)
        scrambled = random_basis_change(flash_sum(shapes, params),
                                        50_000 + trial)
        dec = decompose(scrambled)
        if dec.multiset() != Counter(shapes) or \
                not verify_decomposition(scrambled, dec):
            failures += 1
    elapsed = time.perf_counter() - start
    report(3, "decomposition round-trip 100 trials",
           failures == 0 and elapsed < 30.0,
           f"{100 - failures}/100 in {elapsed:.2f}s")


def test_criterion_4_oracle_equivalence():
    from helpers import random_variant_b_module
    mismatches = 0
    for trial in range(50):
        m = random_variant_b_module(P, 6, 90_000 + trial)
        if decompose(m).multiset() != idempotent_oracle(m, seed=trial).multiset():
            mismatches += 1
    report(4, "oracle equivalence 50 trials dim<=6", mismatches == 0,
           f"{50 - mismatches}/50 agree")


def test_criterion_5_split_free_round_trip():
    bad = 0
    for trial in range(50):
        rng = random.Random(70_000 + trial)
        params = default_params(rng.choice([2, 5]), variant="A")
        free_degrees = [rng.randint(0, 8) for _ in range(rng.randint(0, 4))]
        shapes = random_flash_shapes(rng, count_max=5, bottoms_max=5,
                                     shift_max=8)
        parts = [make_free(d, params) for d in free_degrees]
        parts += [with_variant(make_flash(s, params.with_variant("B")), "A")
                  for s in shapes]
        m = random_basis_change(direct_sum(parts, params), 80_000 + trial)
        fs = split_free(m)
        ranks_ok = fs.free_ranks == dict(Counter(free_degrees))
        comp = fs.complement
        d1, d2 = params.deg_e1, params.deg_e2
        killed = all((comp.action(E1, d + d2) @ comp.action(E2, d)).is_zero()
                     and (comp.action(E2, d + d1) @ comp.action(E1, d)).is_zero()
                     for d in comp.degrees)
        if not (ranks_ok and killed and verify_split_free(m, fs)):
            bad += 1
    report(5, "split_free round-trip 50 trials", bad == 0,
           f"{50 - bad}/50 exact")


def test_criterion_6_margolis_table():
    pa = default_params(variant="A")
    ok = margolis_homology(make_free(0, pa), E1) == {} and \
        margolis_homology(make_free(0, pa), E2) == {}
    for n in range(9):
        m = make_flash(FlashShape.l(n, 0, 1), P)
        ok = ok and margolis_homology(m, E2) == {}
        expected = {0: 1, n * (P.deg_e2 - P.deg_e1) + P.deg_e2: 1}
        ok = ok and margolis_homology(m, E1) == expected
    report(6, "Margolis homology table n=0..8", ok)


def test_criterion_7_exclusion_probes():
    ok = True
    for n in range(9):
        ok = ok and exclusion_probe(FlashShape.l(n, 0, 1), P) == \
            ExclusionProbe(False, False)
        ok = ok and exclusion_probe(FlashShape.l(n, 0, 0), P) == \
            ExclusionProbe(False, True)
    left_tops = [FlashShape.finite(b, True, rt)
                 for b in (1, 2, 4) for rt in (False, True)]
    left_tops.append(FlashShape.right_infinite(True))
    ok = ok and all(exclusion_probe(s, P).e1_at_bottom_nonzero
                    for s in left_tops)
    report(7, "exclusion probes", ok)


def _criterion_8_modules():
    mods = [counterexample_stage(8, P),
            counterexample_stage(3, default_params(5, 2, 5)),
            truncated_infinite_flash(False, 23, P),
            truncated_infinite_flash(True, 14, P),
            make_free(0, default_params(variant="A")),
            make_free(1, default_params(5, 2, 5, variant="A"))]
    for n in range(9):
        mods.append(make_flash(FlashShape.l(n, 0, 1), P))
        mods.append(make_flash(FlashShape.l(n, 0, 0), default_params(5, 2, 5)))
    for b in (1, 2, 3):
        for lt in (False, True):
            for rt in (False, True):
                mods.append(make_flash(FlashShape.finite(b, lt, rt, 2), P))
    rng = random.Random(1)
    mods.append(random_basis_change(counterexample_stage(2, P), 5))
    mods.append(random_basis_change(
        flash_sum(random_flash_shapes(rng, 4, 4, 5), default_params(5)), 6))
    return mods


def test_criterion_8_parser_round_trip(tmp_path, capsys):
    ok = True
    count = 0
    for m in _criterion_8_modules():
        count += 1
        if parse_module(print_module(m)) != m:
            ok = False
    # malformed documents: line-numbered diagnostics and CLI exit code 2
    bad_doc = "field 2\ndeg e1 1\ndeg e2 3\nalgebra B\nbasis a 0\ne1 a = b\n"
    try:
        parse_module(bad_doc)
        ok = False
    except DocumentError as err:
        ok = ok and err.line == 6
    bad_path = tmp_path / "bad.txt"
    bad_path.write_text(bad_doc)
    ok = ok and main(["decompose", str(bad_path)]) == 2
    capsys.readouterr()
    report(8, "parser round-trip", ok, f"{count} modules")
