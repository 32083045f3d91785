import ast
import copy
import importlib
import itertools
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import extmod
from extmod import linalg, modules, operators, suite
from extmod.decompose import (Decomposition, InternalError, OracleInconclusive, Summand,
                              _Chain, _degree, _match, _Strand, decompose,
                              endomorphism_basis,
                              idempotent_oracle, multiplicities, split_free,
                              verify_decomposition, verify_split_free)
from extmod.linalg import Matrix
from extmod.linalg._bits import _Bits
from extmod.modules import (E1, E2, FlashShape, Module, default_params, direct_sum,
                            make_flash, make_free, random_basis_change, shift,
                            validate, with_variant, zero_module)
from extmod.suite import flash_multiplicity_at_degree
from extmod.textio import parse_module, print_module
from helpers import (basis_vector, count_coerce, count_span, counterexample_stage,
                     flash_sum, random_flash_shapes, random_matrix, random_variant_b_module,
                     reference_fitting_split, reference_hom_system, reference_kernel_matrix,
                     reference_match)

P = default_params()
PA = default_params(variant="A")
# the package exports the function decompose under the module's name
decompose_mod = importlib.import_module("extmod.decompose")

ALL_FLAG_SHAPES = [FlashShape.finite(b, lt, rt)
                   for b in (1, 2, 3)
                   for lt in (False, True)
                   for rt in (False, True)]


@pytest.mark.parametrize("shape", ALL_FLAG_SHAPES,
                         ids=[str(s) for s in ALL_FLAG_SHAPES])
def test_canonical_flash_decomposes_to_itself(shape):
    m = make_flash(shape, P)
    dec = decompose(m)
    assert dec.multiset() == Counter([shape])
    assert verify_decomposition(m, dec)


def test_scrambled_pair_round_trip():
    m = direct_sum([make_flash(FlashShape.l(2, 0, 1), P),
                    make_flash(FlashShape.l(0, 0, 1), P)])
    dec = decompose(random_basis_change(m, 42))
    assert dec.multiset() == Counter([FlashShape.l(2, 0, 1), FlashShape.l(0, 0, 1)])


def test_decompose_coerces_no_entry(monkeypatch):
    shapes = random_flash_shapes(random.Random(4))
    m = random_basis_change(flash_sum(shapes, P), 4)
    calls = count_coerce(monkeypatch)
    dec = decompose(m)
    assert calls[0] == 0
    assert dec.multiset() == Counter(shapes)


def test_f2_certificate_coerces_no_entry(monkeypatch):
    # decompose leaves canonical vectors, which the F2 certificate packs whole
    shapes = random_flash_shapes(random.Random(6), count_max=20)
    m = random_basis_change(flash_sum(shapes, P), 6)
    dec = decompose(m)
    calls = count_coerce(monkeypatch)
    assert verify_decomposition(m, dec)
    assert calls[0] == 0


class _Reference:
    """A strand as ``helpers.reference_match`` reads and updates it: its ends,
    its strength and its vectors by position, read off its lanes."""

    def __init__(self, s):
        self.left_pos, self.right_pos, self.strength = s.left_pos, s.right_pos, s.strength
        self.vectors = s.vectors()


def _match_calls(monkeypatch, m):
    """Every ``_match`` call of ``decompose(m)``: the action and copies of
    the strands as they came in."""
    calls = []
    match = decompose_mod._match

    def match_recording(field, act, cod, dom):
        calls.append((act, list(map(copy.copy, cod)), list(map(copy.copy, dom))))
        return match(field, act, cod, dom)

    monkeypatch.setattr(decompose_mod, "_match", match_recording)
    decompose(m)
    monkeypatch.undo()
    return calls


def _strand(chain, pos, vectors):
    """The strand from chain position pos holding the given vectors, one per
    position, built by joins as the sweep builds it."""
    pack = chain.field._family.pack
    out = _Strand(chain, pos, pack(vectors[0]))
    for k, vec in enumerate(vectors[1:], pos + 1):
        out.join(_Strand(chain, k, pack(vec)))
    return out


@pytest.mark.parametrize("char", [2, 5, 17, 0])
def test_chains_hand_the_sweep_family_layout_vectors(monkeypatch, char):
    # decompose packs each chain vector as it reads it, so the sweep packs
    # nothing and no tuple of a vector is held beside its strand's
    params = default_params(char)
    fam = params.field._family
    m = random_basis_change(flash_sum(random_flash_shapes(random.Random(67)), params), 67)
    chains = []
    sweep = decompose_mod._sweep_chain

    def sweep_recording(mod, residue, vecs):
        chains.append((residue, vecs))
        return sweep(mod, residue, vecs)

    monkeypatch.setattr(decompose_mod, "_sweep_chain", sweep_recording)
    decompose(m)
    vectors = [(m.dim(_degree(residue, pos, params)), v)
               for residue, vecs in chains for pos, vs in vecs.items() for v in vs]
    assert len(vectors) == m.total_dim
    assert all(fam.pack(fam.unpack(v, n)) == v for n, v in vectors)
    if char == 2:
        assert all(type(v) is int for _, v in vectors)


@pytest.mark.parametrize("char", [2, 3, 5, 13, 17, 0])
def test_match_equals_list_reference(monkeypatch, char):
    # a strand is one vector over the chain's lanes in the family layout
    # (packed for p <= 13); the reference gets its positions' vectors unpacked
    params = default_params(char)
    field = params.field
    rng = random.Random(61)
    mods = [random_basis_change(flash_sum(random_flash_shapes(rng, count_max=20), params), s)
            for s in range(6)]
    if char == 2:
        # 70 tops y0 in degree 3: more than 64 rows and codomain strands
        wide = [FlashShape.l(rng.randrange(1, 3), rng.randrange(2), rng.randrange(2))
                for _ in range(70)]
        mods.append(random_basis_change(flash_sum(wide, params), 7))
    most_rows = most_cod = 0
    for m in mods:
        for act, cod, dom in _match_calls(monkeypatch, m):
            want_cod = [_Reference(s) for s in cod]
            want_dom = [_Reference(s) for s in dom]
            want = reference_match(field, act, want_cod, want_dom)
            got = _match(field, act, cod, dom)
            assert ([(cod.index(c), dom.index(d)) for c, d in got]
                    == [(want_cod.index(c), want_dom.index(d)) for c, d in want])
            assert ([s.vectors() for s in cod + dom]
                    == [s.vectors for s in want_cod + want_dom])
            # every update left unsettled is settled by the end of the match
            assert all(field._family.settle(s.lanes) == s.lanes for s in cod + dom)
            most_rows, most_cod = max(most_rows, act.nrows), max(most_cod, len(cod))
    if char == 2:
        assert most_rows > 64 and most_cod > 64


def test_f2_census_reads_no_entry(monkeypatch):
    # over F2 the sweep tests a pivot row of the due columns with one mask
    # each, so the census of the stage reads no single entry
    calls = [0]
    entry = _Bits.entry

    def counted(v, j):
        calls[0] += 1
        return entry(v, j)

    monkeypatch.setattr(_Bits, "entry", staticmethod(counted))
    assert multiplicities(counterexample_stage(40, P)) == Counter(
        {FlashShape.l(n, 0, 1): 1 for n in range(41)})
    assert calls[0] == 0


def _scalar(field, rng):
    """A random nonzero scalar of the field."""
    if field.characteristic:
        return rng.randrange(1, field.characteristic)
    return Fraction(rng.choice([-5, -2, -1, 1, 3, 7]), rng.randint(1, 9))


@pytest.mark.parametrize("char", [2, 3, 13, 17, 0])
def test_strand_updates_cut_or_pad_the_other_strand(char):
    # a strand is one vector over the chain's lanes from its first position
    # on; an update with a strand that began earlier cuts that one's lanes at
    # the updated strand's first lane (tail), and with one that began later
    # pads it with zeros up to there, so each position gets its own update
    field = default_params(char).field
    fam, rng = field._family, random.Random(char + 71)
    widths = {0: 2, 1: 3, 2: 1, 3: 4}

    def vectors(first):
        return {pos: tuple(_scalar(field, rng) if rng.random() < 0.7 else field.zero
                           for _ in range(widths[pos])) for pos in range(first, 4)}

    def added(mine, theirs, c):
        """mine plus c times theirs, position by position on theirs."""
        return {pos: tuple(field.add(x, field.mul(c, y)) for x, y in zip(v, theirs[pos]))
                if pos in theirs else v for pos, v in mine.items()}

    def scaled(mine, c):
        return {pos: tuple(field.mul(c, x) for x in v) for pos, v in mine.items()}

    for case in ("absorb earlier", "absorb later", "spread earlier", "spread later"):
        chain = _Chain(field, widths)
        # strengths: a top-started strand beats bottom-started ones, and the
        # bottom-started one from position 0 beats the one from position 2
        want = {"early": vectors(0), "top": vectors(1), "late": vectors(2)}
        got = {name: _strand(chain, min(vecs), list(vecs.values()))
               for name, vecs in want.items()}
        c, inv = _scalar(field, rng), _scalar(field, rng)
        if case == "absorb earlier":
            # top began after early: early's lanes are cut at top's first lane
            got["top"].absorb([got["early"]], [(0, c)])
            want["top"] = added(want["top"], want["early"], c)
        elif case == "absorb later":
            got["early"].absorb([got["late"]], [(0, c)])
            want["early"] = added(want["early"], want["late"], c)
        elif case == "spread earlier":
            got["early"].spread(inv, [got["top"]], [(0, c)])
            want["early"] = scaled(want["early"], inv)
            want["top"] = added(want["top"], want["early"], c)
        else:
            got["late"].spread(inv, [got["early"]], [(0, c)])
            want["late"] = scaled(want["late"], inv)
            want["early"] = added(want["early"], want["late"], c)
        # a column operation leaves its target unsettled, as _match settles
        # each domain strand once at its end
        for name, s in got.items():
            assert s.vectors() == want[name], (case, name)
            s.lanes = fam.settle(s.lanes)
            assert s.lanes == fam.pack([x for v in want[name].values() for x in v])
            assert s.right_end() == fam.pack(want[name][3])


@pytest.mark.parametrize("char", [2, 3, 5, 17, 0])
def test_match_rejects_images_off_the_socle_coordinates(char):
    field = default_params(char).field
    lone, pair = _Chain(field, {0: 1}), _Chain(field, {0: 2, 1: 2})
    with pytest.raises(AssertionError, match="action image escapes the socle layer"):
        _match(field, Matrix(field, [[1]]), [], [_strand(lone, 0, [(1,)])])
    with pytest.raises(AssertionError, match="socle coordinates must exist"):
        _match(field, Matrix.identity(field, 2), [_strand(pair, 1, [(1, 0)])],
               [_strand(pair, 0, [(0, 1)])])


def test_sweep_visits_only_occupied_positions(monkeypatch):
    # two simples 10**5 degrees apart: the sweep matches at each occupied
    # chain position and the one after it, not at every position between
    text = print_module(direct_sum([make_flash(FlashShape.simple(0), P),
                                    make_flash(FlashShape.simple(100000), P)]))
    m = parse_module(text)
    calls = [0]
    match = decompose_mod._match

    def counted(*args):
        calls[0] += 1
        return match(*args)

    monkeypatch.setattr(decompose_mod, "_match", counted)
    dec = decompose(m)
    assert 0 < calls[0] <= 2 * m.total_dim
    assert dec.multiset() == Counter([FlashShape.simple(0), FlashShape.simple(100000)])
    assert verify_decomposition(m, dec)


def test_scrambled_mixed_shapes_round_trip():
    m = direct_sum([make_flash(FlashShape.l(2, 0, 1), P),
                    shift(make_flash(FlashShape.finite(2, True, False), P), 4)])
    scrambled = random_basis_change(m, 7)
    dec = decompose(scrambled)
    assert dec.multiset() == Counter([FlashShape.l(2, 0, 1),
                                      FlashShape.finite(2, True, False, 4)])
    assert verify_decomposition(scrambled, dec)


def test_variant_b_free_flash_is_indecomposable():
    both_tops = make_flash(FlashShape.finite(1, True, True), P)
    assert decompose(both_tops).multiset() == \
        Counter([FlashShape.finite(1, True, True)])
    assert idempotent_oracle(both_tops).multiset() == \
        Counter([FlashShape.finite(1, True, True)])


def test_decompose_requires_variant_b():
    with pytest.raises(ValueError):
        decompose(make_free(0, PA))


def test_zero_module():
    dec = decompose(zero_module(P))
    assert dec.summands == ()
    assert verify_decomposition(zero_module(P), dec)
    assert multiplicities(zero_module(P)) == Counter()


def test_round_trips_over_both_fields():
    # Q needs the domain-side scaling of the sweep on almost every pivot
    cases = itertools.product([2, 3, 5, 0], [(1, 3), (1, 2), (2, 5)], range(3))
    for trial, (p, degs, _) in enumerate(cases):
        rng = random.Random(4000 + trial)
        params = default_params(p, *degs)
        shapes = random_flash_shapes(rng)
        scrambled = random_basis_change(flash_sum(shapes, params), 8000 + trial)
        dec = decompose(scrambled)
        assert dec.multiset() == Counter(shapes)
        assert verify_decomposition(scrambled, dec)


def test_krull_schmidt_invariance_under_rebasing():
    rng = random.Random(77)
    base = flash_sum(random_flash_shapes(rng, 6, 5, 8), P)
    reference = multiplicities(base)
    for seed in range(6):
        assert multiplicities(random_basis_change(base, seed)) == reference


def test_decompose_ignores_summand_order():
    a = make_flash(FlashShape.l(2, 0, 1), P)
    b = make_flash(FlashShape.finite(2, True, False, 1), P)
    c = make_flash(FlashShape.simple(4), P)
    assert multiplicities(direct_sum([a, b, c])) == \
        multiplicities(direct_sum([c, a, b]))


def test_only_finite_shapes_and_dimensions_conserved():
    for trial in range(10):
        rng = random.Random(600 + trial)
        m = random_variant_b_module(default_params(rng.choice([2, 5])), 10,
                                    900 + trial)
        dec = decompose(m)
        assert all(s.shape.kind == "finite" for s in dec.summands)
        total = {}
        for s in dec.summands:
            for d, k in s.shape.dims(m.params).items():
                total[d] = total.get(d, 0) + k
        assert total == m.dims_by_degree
        assert verify_decomposition(m, dec)


def test_verify_rejects_tampering():
    m = random_basis_change(flash_sum([FlashShape.l(1, 0, 1),
                                       FlashShape.simple(0)], P), 3)
    dec = decompose(m)
    assert verify_decomposition(m, dec)

    # zero out one realization vector: no longer a basis
    victim = dec.summands[0]
    zeroed = Summand(victim.shape,
                     ((0,) * len(victim.bottoms[0]),) + victim.bottoms[1:],
                     victim.tops)
    broken = Decomposition((zeroed,) + dec.summands[1:])
    assert not verify_decomposition(m, broken)

    # swap two summands' vectors without swapping shapes: relations break
    a, b = dec.summands[0], dec.summands[1]
    crossed = Decomposition((Summand(a.shape, b.bottoms, a.tops),
                             Summand(b.shape, a.bottoms, b.tops))
                            + dec.summands[2:])
    assert not verify_decomposition(m, crossed)


CERT_SHAPES = [FlashShape.l(1, 0, 1), FlashShape.l(0, 0, 1), FlashShape.l(0, 0, 1, 3)]


def _tampered_certificates(m):
    """Each tampering of a canonical flash sum's certificate, by name.

    The sum of CERT_SHAPES has dimensions {0: 2, 2: 1, 3: 3, 5: 1, 6: 1};
    degree 3 holds two tops and the bottom of the third summand.
    """
    def vec(label):
        return basis_vector(m, label)

    a, b, c = [Summand(sh, tuple(vec(f"s{k}.x{i}") for i in range(sh.bottoms)),
                       tuple((i, vec(f"s{k}.y{i}")) for i in sh.top_indices()))
               for k, sh in enumerate(CERT_SHAPES)]
    field = m.field
    (_, ya), (_, yb) = a.tops[0], b.tops[0]
    mixed = tuple(field.add(x, y) for x, y in zip(ya, yb))

    def uncoerced(s):
        # the same entries plus the characteristic: equal in the field, not as ints
        def lift(v):
            return tuple(x + field.characteristic for x in v)
        return Summand(s.shape, tuple(map(lift, s.bottoms)),
                       tuple((i, lift(v)) for i, v in s.tops))

    return {
        "intact": [a, b, c],
        "uncoerced": [uncoerced(a), uncoerced(b), uncoerced(c)],
        "misfit bottom": [Summand(a.shape, (a.bottoms[0], a.bottoms[1] + (0,)), a.tops), b, c],
        "misfit top": [a, Summand(b.shape, b.bottoms, ((0, yb[:-1]),)), c],
        "vector count": [Summand(a.shape, a.bottoms, a.tops[:1]), b, c],
        "non-finite": [a, b, Summand(FlashShape.right_infinite(False, 3), c.bottoms, c.tops)],
        "dependent": [a, Summand(b.shape, a.bottoms[:1], b.tops), c],
        "wrong image": [a, Summand(b.shape, b.bottoms, ((0, mixed),)), c],
        "zero top": [a, Summand(b.shape, b.bottoms, ((0, (0,) * len(yb)),)), c],
        "should vanish": [Summand(FlashShape.l(1, 0, 0), a.bottoms, a.tops[:1]),
                          Summand(FlashShape.simple(5), (a.tops[1][1],), ()), b, c],
        "top off the socle": [a, Summand(b.shape, b.bottoms, ((0, c.bottoms[0]),)),
                              Summand(c.shape, (yb,), c.tops)],
    }


CERT_PROBLEMS = {
    "intact": (),
    "uncoerced": (),
    "misfit bottom": ("summand 0 x1: vector does not fit degree 2",
                      "degree 2: 0 vectors for dimension 1"),
    "misfit top": ("summand 1 y0: vector does not fit degree 3",
                   "degree 3: 2 vectors for dimension 3",
                   "summand 1: e2 x0 != y0"),
    "vector count": ("summand 0: vector count does not match L(1,0,1)@0",
                     "degree 0: 1 vectors for dimension 2",
                     "degree 2: 0 vectors for dimension 1",
                     "degree 3: 2 vectors for dimension 3",
                     "degree 5: 0 vectors for dimension 1",
                     "summand 0: e2 x1 should vanish"),
    "non-finite": ("summand 2: non-finite shape L(inf,0)@3",
                   "degree 3: 2 vectors for dimension 3",
                   "degree 6: 0 vectors for dimension 1"),
    "dependent": ("degree 0: realization vectors are dependent",
                  "summand 1: e2 x0 != y0"),
    "wrong image": ("summand 1: e2 x0 != y0",),
    "zero top": ("degree 3: realization vectors are dependent",
                 "summand 1: e2 x0 != y0"),
    "should vanish": ("summand 0: e2 x1 should vanish",),
    "top off the socle": ("summand 1: e2 x0 != y0",
                          "summand 1: y0 is not in the socle",
                          "summand 2: e2 x0 != y0"),
}


@pytest.mark.parametrize("case", CERT_PROBLEMS)
@pytest.mark.parametrize("char", [2, 3])
def test_verify_reports_each_problem(char, case):
    # every problem is reported, in order, and none raises: a vector that does
    # not fit its degree is reported, not applied
    params = default_params(char)
    m = flash_sum(CERT_SHAPES, params)
    dec = Decomposition(tuple(_tampered_certificates(m)[case]))
    got = verify_decomposition(m, dec)
    assert got.problems == CERT_PROBLEMS[case]
    assert got.ok == (case in ("intact", "uncoerced"))


def test_oracle_trivial_cases():
    m1 = make_flash(FlashShape.l(1, 0, 1), P)
    assert idempotent_oracle(m1).multiset() == Counter([FlashShape.l(1, 0, 1)])
    twins = direct_sum([make_flash(FlashShape.simple(), P),
                        make_flash(FlashShape.simple(), P)])
    assert idempotent_oracle(twins).multiset() == \
        Counter({FlashShape.simple(): 2})


def test_oracle_bound():
    big = counterexample_stage(3, P)
    with pytest.raises(ValueError):
        idempotent_oracle(big, max_total_dim=12)


def test_oracle_leaf_that_is_no_flash_is_inconclusive_only_when_sampled(monkeypatch):
    # an unsplit piece that is not a flash is a defect when every combination
    # of endomorphisms was tried (F2 here), and inconclusive when they were
    # sampled (Q)
    def no_flash(cur, emb):
        raise InternalError("leaf is no flash")

    monkeypatch.setattr(decompose_mod, "_canonical_leaf", no_flash)
    m = make_flash(FlashShape.l(1, 0, 1), P)
    with pytest.raises(InternalError, match="leaf is no flash"):
        idempotent_oracle(m)
    with pytest.raises(OracleInconclusive, match=r"^oracle inconclusive: \d+ candidate .* "
                                                 r"\(leaf is no flash\); try another --seed$"):
        idempotent_oracle(make_flash(FlashShape.l(1, 0, 1), default_params(0)))


def test_oracle_matches_decompose():
    for params in (P, default_params(5)):
        for trial in range(20):
            m = random_variant_b_module(params, 6, 7100 + trial)
            assert decompose(m).multiset() == \
                idempotent_oracle(m, seed=trial).multiset()


@pytest.mark.parametrize("char", [2, 5, 0], ids=["F2", "F5", "Q"])
def test_fitting_split_matches_the_reference(char):
    # the split decided degree by degree before any space is built against the
    # kernels and images built at every degree: the oracle's candidates on
    # scrambled flash sums, and random blocks that are invertible, nilpotent,
    # of neither kind or a mixture of those across degrees
    params = default_params(char)
    field = params.field
    rng = random.Random(61 + char)
    kinds = {"none": 0, "split": 0}
    for trial in range(6):
        m = random_basis_change(flash_sum(random_flash_shapes(rng, 4, 3, 4), params), trial)
        endos = endomorphism_basis(m)
        phis = list(itertools.islice(decompose_mod._split_candidates(m, endos, rng), 60))
        for _ in range(20):
            phi = {}
            for d, n in m.dims_by_degree.items():
                pick = rng.randrange(4)
                strict = [[rng.randrange(3) if j > i else 0 for j in range(n)] for i in range(n)]
                phi[d] = (Matrix.identity(field, n) if pick == 0
                          else Matrix(field, strict) if pick == 1
                          else Matrix.zeros(field, n, n) if pick == 2
                          else random_matrix(field, n, n, rng))
            phis.append(phi)
        for phi in phis:
            got, want = decompose_mod._fitting_split(m, phi), reference_fitting_split(m, phi)
            assert got == want
            kinds["none" if got is None else "split"] += 1
    assert all(kinds.values()), kinds


def _flatten(phi):
    return tuple(x for d in sorted(phi) for row in phi[d].rows for x in row)


def test_endomorphism_basis():
    for trial in range(12):
        rng = random.Random(7300 + trial)
        params = default_params(rng.choice([2, 5, 0]))
        m = random_variant_b_module(params, 8, 7400 + trial)
        basis = endomorphism_basis(m)
        for phi in basis:
            for which in (E1, E2):
                for d in m.degrees:
                    t = d + params.action_degree(which)
                    if m.dim(t):
                        assert phi[t] @ m.action(which, d) == \
                            m.action(which, d) @ phi[d]
        ident = {d: Matrix.identity(params.field, n)
                 for d, n in m.dims_by_degree.items()}
        span = Matrix.from_cols(params.field, [_flatten(phi) for phi in basis])
        assert span.solve_vector(_flatten(ident)) is not None
        assert len(endomorphism_basis(random_basis_change(m, trial))) == len(basis)


@pytest.mark.parametrize("char", [5, 17, 0], ids=["F5", "F17", "Q"])
def test_endomorphism_basis_coerces_no_entry(monkeypatch, char):
    # the equation rows are made canonical, so the oracle's system is not coerced
    params = default_params(char)
    shapes = [FlashShape.l(1, 0, 1), FlashShape.l(1, 0, 1, 2), FlashShape.l(0, 1, 0, 1),
              FlashShape.l(0, 0, 1, 3)]
    m = random_basis_change(flash_sum(shapes, params), 9)
    calls = count_coerce(monkeypatch)
    basis = endomorphism_basis(m)
    assert calls[0] == 0
    monkeypatch.undo()
    rows, nvars = decompose_mod._hom_system(m)
    coerced = Matrix(m.field, rows, ncols=nvars).kernel_matrix()
    assert basis == [decompose_mod._hom_blocks(m, col) for col in coerced.cols()]
    assert idempotent_oracle(m, seed=5).multiset() == Counter(shapes)


@pytest.mark.parametrize("char", [2, 5, 17, 0], ids=["F2", "F5", "F17", "Q"])
def test_endomorphism_basis_is_the_free_column_basis(char):
    # the oracle draws its candidates from this basis in order, so it must be
    # the free-column null basis of the equations, vector for vector
    params = default_params(char)
    for seed in range(8):
        m = random_variant_b_module(params, 16, seed)
        rows, nvars = reference_hom_system(m)
        ker = reference_kernel_matrix(Matrix(m.field, rows, ncols=nvars))
        assert endomorphism_basis(m) == [decompose_mod._hom_blocks(m, col) for col in ker.cols()]


@pytest.mark.parametrize("char", [2, 5, 17, 0], ids=["F2", "F5", "F17", "Q"])
def test_hom_system_matches_the_entrywise_reference(char):
    # the same equation rows, entry for entry and type for type, so
    # endomorphism_basis and the oracle's candidate stream do not change
    params = default_params(char)
    for seed in range(6):
        rng = random.Random(seed)
        mods = [random_variant_b_module(params, 20, seed),
                random_basis_change(flash_sum(random_flash_shapes(rng, 5, 4, 5), params), seed)]
        for m in mods:
            rows = decompose_mod._hom_system(m)
            assert rows == reference_hom_system(m)
            assert repr(rows) == repr(reference_hom_system(m))


def test_multiplicities_examples():
    stage = counterexample_stage(3, P)
    assert multiplicities(stage) == Counter(
        {FlashShape.l(n, 0, 1): 1 for n in range(4)})
    m1 = make_flash(FlashShape.l(1, 0, 1), P)
    assert multiplicities(direct_sum([m1, m1])) == \
        Counter({FlashShape.l(1, 0, 1): 2})
    moved = shift(direct_sum([m1, m1]), 6)
    assert multiplicities(moved) == Counter({FlashShape.l(1, 0, 1, 6): 2})


# a left-top, a right-top and a simple summand beside the drawn ones
ENDED_SHAPES = [FlashShape.finite(2, True, False, 1), FlashShape.finite(3, False, True, 2),
                FlashShape.simple(4)]


@pytest.mark.parametrize("char", [2, 3, 13, 17, 0])
@pytest.mark.parametrize("degs", [(1, 3), (2, 5), (1, 2), (3, 4)])
def test_multiplicities_equal_the_decomposition_multiset(char, degs):
    # the census keeps no realization, yet counts what decompose finds
    params = default_params(char, *degs)
    for seed in range(4):
        rng = random.Random(100 * char + 10 * degs[0] + seed)
        shapes = random_flash_shapes(rng) + ENDED_SHAPES
        scrambled = random_basis_change(flash_sum(shapes, params), seed)
        assert multiplicities(scrambled) == Counter(shapes)
        for m in (random_variant_b_module(params, 14, 300 + seed), scrambled):
            assert multiplicities(m) == decompose(m).multiset()


@pytest.mark.parametrize("char", [2, 5, 0])
def test_multiplicities_build_no_realization(monkeypatch, char):
    params = default_params(char)
    shapes = random_flash_shapes(random.Random(char), count_max=20) + ENDED_SHAPES
    m = random_basis_change(flash_sum(shapes, params), 5)

    def forbidden(*args):
        raise AssertionError("the census built a realization")

    monkeypatch.setattr(type(params.field._family), "unpack", staticmethod(forbidden))
    monkeypatch.setattr(decompose_mod, "_summand_from_strand", forbidden)
    right_ends = []
    sweep, match = decompose_mod._sweep_chain, decompose_mod._match

    # a strand's lanes start at its right end: they hold that one vector
    def sweep_recording(mod, residue, vecs, history=True):
        finished = sweep(mod, residue, vecs, history)
        right_ends.extend(s.base == s.last for s in finished)
        return finished

    def match_recording(field, act, cod, dom):
        pairs = match(field, act, cod, dom)
        right_ends.extend(s.base == s.last for s in cod + dom)
        return pairs

    monkeypatch.setattr(decompose_mod, "_sweep_chain", sweep_recording)
    monkeypatch.setattr(decompose_mod, "_match", match_recording)
    assert multiplicities(m) == Counter(shapes)
    assert len(right_ends) > m.total_dim and all(right_ends)


def test_multiplicities_reject_what_decompose_rejects():
    f = P.field
    # e1 e1 acts as the identity from degree 0 to degree 2
    bad = Module(P, {0: 1, 1: 1, 2: 1}, {0: Matrix(f, [[1]]), 1: Matrix(f, [[1]])}, {})
    for m in (make_free(0, PA), bad):
        messages = []
        for entry in (decompose, multiplicities):
            with pytest.raises(ValueError) as err:
                entry(m)
            messages.append(str(err.value))
        assert messages[0] == messages[1]


def test_flash_multiplicity_at_degree():
    stage = counterexample_stage(4, P)
    for n in range(5):
        assert flash_multiplicity_at_degree(stage, 0, n) == 1
    assert flash_multiplicity_at_degree(stage, 0, 5) == 0
    m33 = direct_sum([make_flash(FlashShape.l(3, 0, 1), P)] * 2)
    assert flash_multiplicity_at_degree(m33, 0, 3) == 2
    assert flash_multiplicity_at_degree(m33, 0, 1) == 0
    assert flash_multiplicity_at_degree(zero_module(P), 0, 2) == 0


def test_flash_multiplicity_exclusions():
    left_top = make_flash(FlashShape.finite(2, True, False), P)
    with pytest.raises(ValueError, match="e1"):
        flash_multiplicity_at_degree(left_top, 0, 1)
    open_end = make_flash(FlashShape.l(2, 0, 0), P)
    with pytest.raises(ValueError, match="stable"):
        flash_multiplicity_at_degree(open_end, 0, 2)
    with pytest.raises(ValueError, match="flash length"):
        flash_multiplicity_at_degree(counterexample_stage(3, P), 0, -1)


@pytest.mark.parametrize("char, degs", [(2, (1, 3)), (5, (2, 5)), (0, (1, 3))],
                         ids=["F2", "F5", "Q"])
def test_flash_multiplicity_matches_the_primal_count(char, degs):
    # the count read off the annihilator walk against dim F_n - dim F_{n+1}
    # on the primal trace, on the stage at N = 12 and on a scrambled copy
    stage = counterexample_stage(12, default_params(char, *degs))
    for m in (stage, random_basis_change(stage, 5)):
        trace = operators.filtration_trace(m)
        assert trace.stable[0].dim == 0
        primal = [trace[n][0].dim - trace[n + 1][0].dim for n in range(16)]
        assert [flash_multiplicity_at_degree(m, 0, n) for n in range(16)] == primal
        assert primal == [1] * 13 + [0] * 3


def test_flash_multiplicity_spans_nothing_outside_its_trace(monkeypatch):
    # e1 vanishes on the degree, so ker e1 is the whole degree and the count
    # reads dim F_n - dim F_{n+1} off the trace: no kernel, no intersection
    outside, tracing = [0], [False]
    real_trace = suite.filtration_trace

    def counted(real):
        def preimage(*args):
            outside[0] += not tracing[0]
            return real(*args)
        return preimage

    def traced(m):
        tracing[0] = True
        try:
            return real_trace(m)
        finally:
            tracing[0] = False

    for module in (linalg, operators):
        monkeypatch.setattr(module, "preimage_space", counted(module.preimage_space))
    monkeypatch.setattr(suite, "filtration_trace", traced)
    stage = counterexample_stage(4, P)
    assert [flash_multiplicity_at_degree(stage, 0, n) for n in range(6)] == [1] * 5 + [0]
    assert outside == [0]


# -- split_free ---------------------------------------------------------------


def test_split_free_examples():
    free = make_free(0, PA)
    fs = split_free(free)
    assert fs.free_ranks == {0: 1}
    assert fs.complement.total_dim == 0
    assert verify_split_free(free, fs)

    flat = with_variant(make_flash(FlashShape.l(1, 0, 1), P), "A")
    fs2 = split_free(flat)
    assert fs2.free_ranks == {}
    assert fs2.complement == flat
    assert verify_split_free(flat, fs2)


def test_split_free_round_trip():
    flat = with_variant(make_flash(FlashShape.l(1, 0, 1), P), "A")
    m = random_basis_change(direct_sum([make_free(0, PA), flat]), 21)
    fs = split_free(m)
    assert fs.free_ranks == {0: 1}
    assert verify_split_free(m, fs)
    recovered = multiplicities(with_variant(fs.complement, "B"))
    assert recovered == Counter([FlashShape.l(1, 0, 1)])


def test_verify_split_free_reports_a_bad_basis():
    flat = with_variant(make_flash(FlashShape.l(1, 0, 1), P), "A")
    m = random_basis_change(direct_sum([make_free(0, PA), flat]), 21)
    fs = split_free(m)
    # degree 0 holds one free and one complement vector
    free0, comp = fs.free_embedding[0], fs.complement_embedding
    twice = verify_split_free(m, replace(fs, complement_embedding={**comp, 0: free0}))
    assert "degree 0: free + complement is not a direct sum" in twice.problems
    emptied = {**comp, 0: Matrix.zeros(m.field, 2, 0)}
    short = verify_split_free(m, replace(fs, complement_embedding=emptied))
    assert "degree 0: 1 vectors for dimension 2" in short.problems
    # a certificate missing a degree of the complement is reported, not a crash
    dropped = {d: e for d, e in comp.items() if d != 0}
    missing = verify_split_free(m, replace(fs, complement_embedding=dropped))
    assert missing.ok is False
    assert "complement embedding missing at degree 0" in missing.problems


def test_verify_split_free_reports_a_wrong_complement():
    flash = with_variant(make_flash(FlashShape.l(2, 0, 1), P), "A")
    m = random_basis_change(direct_sum([make_free(0, PA), flash]), 5)
    fs = split_free(m)
    # the same carrier, but neither generator acts
    inert = Module(PA, fs.complement.dims_by_degree, {}, {})
    check = verify_split_free(m, replace(fs, complement=inert))
    assert check.ok is False
    assert any(p.startswith("complement embedding does not commute with e")
               for p in check.problems)


def test_split_free_random_trials():
    for trial in range(24):
        rng = random.Random(3500 + trial)
        # (1, 3) gives sigma = -1 away from characteristic 2
        degs = ((1, 2), (1, 3), (2, 5))[trial % 3]
        params = default_params((2, 3, 5, 0)[trial % 4], *degs, variant="A")
        pb = params.with_variant("B")
        # free summands over at most two degrees, so several share one
        slots = [rng.randint(0, 6) for _ in range(2)]
        free_degrees = [rng.choice(slots) for _ in range(rng.randint(0, 4))]
        rest = [make_flash(s, pb) for s in random_flash_shapes(rng, 4, 4, 6)]
        if trial % 2:
            rest.append(random_variant_b_module(pb, 12, 5300 + trial))
        rest_b = direct_sum(rest, pb)
        parts = [make_free(d, params) for d in free_degrees]
        m = random_basis_change(direct_sum(parts + [with_variant(rest_b, "A")], params),
                                5100 + trial)
        fs = split_free(m)
        assert fs.free_ranks == dict(Counter(free_degrees))
        assert verify_split_free(m, fs)
        # the complement is e1e2-killed and has the remainder's flashes
        comp = with_variant(fs.complement, "B")
        assert multiplicities(comp) == multiplicities(rest_b)


def test_split_free_eliminations_stay_degree_sized(monkeypatch):
    # the complement comes from one small kernel per degree, never from one
    # system over all degrees at once; a span's cells are its vectors times
    # their length
    params = default_params(5, variant="A")
    pb = params.with_variant("B")
    shapes = [FlashShape.l(n, e, e2, s) for n, e, e2, s in
              ((3, 1, 0, 0), (2, 0, 1, 1), (4, 1, 1, 2), (1, 0, 0, 3), (2, 1, 1, 0))]
    parts = [make_free(i % 4, params) for i in range(12)]
    parts += [with_variant(make_flash(s, pb), "A") for s in shapes]
    m = random_basis_change(direct_sum(parts, params), 11)
    cells = []
    calls = count_span(monkeypatch, params.field, cells)
    fs = split_free(m)
    assert fs.free_ranks == {0: 3, 1: 3, 2: 3, 3: 3}
    assert max(cells) <= 3 * max(m.dims_by_degree.values()) ** 2
    # the certificate reads only ranks, each the forward pass alone on bytes
    calls[0] = 0
    assert verify_split_free(m, fs)
    assert calls[0] == 0
    monkeypatch.undo()


def test_split_free_requires_variant_a():
    with pytest.raises(ValueError):
        split_free(make_flash(FlashShape.l(1, 0, 1), P))


# -- validation -------------------------------------------------------------------


def test_parsed_module_checks_relations_once(monkeypatch):
    calls = []
    check = modules._relation_violations
    monkeypatch.setattr(modules, "_relation_violations",
                        lambda m: calls.append(m) or check(m))
    flashes = random_basis_change(flash_sum(random_flash_shapes(random.Random(5)), P), 5)
    for m, entry in ((flashes, decompose),
                     (make_flash(FlashShape.l(1, 0, 1), P), idempotent_oracle),
                     (direct_sum([make_free(0, PA), make_free(2, PA)]), split_free)):
        calls.clear()
        entry(parse_module(print_module(m)))
        assert len(calls) == 1, entry.__name__


def test_invalid_module_raises_at_every_entry_point():
    f = P.field
    for params, entry in ((P, decompose), (P, idempotent_oracle), (PA, split_free),
                          (P, lambda m: with_variant(m, "A"))):
        # e1 e1 acts as the identity from degree 0 to degree 2
        bad = Module(params, {0: 1, 1: 1, 2: 1},
                     {0: Matrix(f, [[1]]), 1: Matrix(f, [[1]])}, {})
        validate(bad).clear()  # must leave the cached violations intact
        for _ in range(2):  # the second call reads the cached violations
            with pytest.raises(ValueError, match="e1e1 fails at degree 0"):
                entry(bad)


# -- invariant checks -----------------------------------------------------------


def test_package_has_no_assert_statements():
    # invariant checks raise AssertionError explicitly, so python -O keeps them
    src = Path(extmod.__file__).parent
    found = [f"{path.relative_to(src)}:{node.lineno}"
             for path in sorted(src.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_the_standard_library():
    # the package promises no runtime dependencies; relative imports are its own
    src = Path(extmod.__file__).parent
    imported = [(f"{path.relative_to(src)}:{node.lineno}", name)
                for path in sorted(src.rglob("*.py"))
                for node in ast.walk(ast.parse(path.read_text()))
                for name in ([alias.name for alias in node.names]
                             if isinstance(node, ast.Import)
                             else [node.module]
                             if isinstance(node, ast.ImportFrom) and node.level == 0
                             else [])]
    assert imported
    assert [(where, name) for where, name in imported
            if name.split(".")[0] not in sys.stdlib_module_names] == []


def test_package_loads_only_the_standard_library_at_runtime():
    # the import-statement scan above misses imports made through importlib or
    # by a dependency; this loads every module and checks what arrived
    code = """
import pkgutil, sys
before = set(sys.modules)
import extmod
for info in pkgutil.walk_packages(extmod.__path__, "extmod."):
    __import__(info.name)
loaded = {name.split(".")[0] for name in set(sys.modules) - before}
print(sorted(name for name in loaded
             if name != "extmod" and name not in sys.stdlib_module_names))
print(len([name for name in sys.modules if name.startswith("extmod.")]))
"""
    env = dict(os.environ, PYTHONPATH=str(Path(extmod.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    foreign, count = out.stdout.split("\n")[:2]
    assert (out.returncode, foreign) == (0, "[]"), out.stderr
    # every module but the top-level __init__, which loads as "extmod", with
    # __main__ and the modules of the linalg package included
    assert int(count) == len(list(Path(extmod.__file__).parent.rglob("*.py"))) - 1


# the attributes that hold the vectors of a Matrix or SubspaceBasis in the
# family layout; _from_family and _columns build or read them
STORAGE = {"_rows", "_fcols", "_frows"}


def test_only_linalg_chooses_a_vector_layout():
    # the vector layout is picked from the characteristic in the linalg package
    # alone: no other module tests for characteristic 2, imports linalg's
    # private names or its layout modules, reads the rows or columns a Matrix
    # or SubspaceBasis stores, or builds one from them
    src = Path(extmod.__file__).parent
    found = []
    for path in sorted(src.rglob("*.py")):
        if src / "linalg" in path.parents:
            continue
        tree = ast.parse(path.read_text())
        # names bound to a characteristic, as in p = field.characteristic
        bound = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                 and isinstance(node.value, ast.Attribute)
                 and node.value.attr == "characteristic"
                 for target in node.targets if isinstance(target, ast.Name)}

        def is_characteristic(node):
            return ((isinstance(node, ast.Attribute) and node.attr == "characteristic")
                    or (isinstance(node, ast.Name) and node.id in bound))

        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if (any(map(is_characteristic, operands))
                        and any(isinstance(o, ast.Constant) and o.value == 2 for o in operands)):
                    found.append(f"{path.name}:{node.lineno}: compares a characteristic with 2")
            elif (isinstance(node, ast.ImportFrom) and node.module == "linalg"
                  and node.level == 1):
                found.extend(f"{path.name}:{node.lineno}: imports {alias.name} from .linalg"
                             for alias in node.names if alias.name.startswith("_"))
            elif (isinstance(node, ast.ImportFrom) and node.level == 1
                  and node.module in ("linalg._bits", "linalg._bytes", "linalg._tuples")):
                found.append(f"{path.name}:{node.lineno}: imports from .{node.module}")
            elif isinstance(node, ast.Attribute) and node.attr in STORAGE:
                found.append(f"{path.name}:{node.lineno}: reads .{node.attr}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in ("_from_family", "_columns")):
                found.append(f"{path.name}:{node.lineno}: calls .{node.func.attr}")
    assert found == []


def test_inadmissible_absorb_raises_under_optimize():
    # a pivot step's row operations and its column operations are each one
    # strand update, which checks every pair it runs: an inadmissible pair
    # after an admissible one still raises, with asserts compiled out
    code = """
from extmod.decompose import InternalError, _Chain, _Strand
from extmod.linalg import Field
if __debug__:
    raise SystemExit("not running under -O")
# over F2 the sweep's strands hold packed vectors, one lane per position here
chain = _Chain(Field(2), {0: 1, 1: 1, 2: 1})
early = _Strand(chain, 0, 1)
early.join(_Strand(chain, 1, 1))
early.join(_Strand(chain, 2, 1))
strong = _Strand(chain, 1, 1)
strong.join(_Strand(chain, 2, 1))
weak, other = _Strand(chain, 2, 1), _Strand(chain, 2, 1)
for update in (lambda: weak.absorb([other, strong], [(0, 1), (1, 1)]),
               lambda: early.spread(1, [strong, weak], [(0, 1), (1, 1)])):
    try:
        update()
    except InternalError:
        print("raised")
"""
    env = dict(os.environ, PYTHONPATH=str(Path(extmod.__file__).parent.parent))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert (out.returncode, out.stdout.split()) == (0, ["raised", "raised"]), out.stderr


def test_census_replays_each_pivot_step_in_two_strand_updates(monkeypatch):
    # one update folds a step's row operations into its codomain strand and
    # one spreads its domain strand into every later column's; on the
    # scrambled stage a step has far more than two operations
    m = random_basis_change(counterexample_stage(40, P), 1)
    steps, ops, updates = [0], [0], [0]
    pivot_steps = _Bits.pivot_steps

    def counted_steps(self, cols):
        out = pivot_steps(self, cols)
        steps[0] += len(out)
        ops[0] += sum(len(row_ops) + len(col_ops) for _, _, _, row_ops, col_ops in out)
        return out

    def counted(update):
        def run(*args):
            updates[0] += 1
            return update(*args)
        return run

    monkeypatch.setattr(_Bits, "pivot_steps", counted_steps)
    for name in ("absorb", "spread"):
        monkeypatch.setattr(_Strand, name, counted(getattr(_Strand, name)))
    assert multiplicities(m) == Counter({FlashShape.l(n, 0, 1): 1 for n in range(41)})
    assert 0 < updates[0] <= 2 * steps[0] < ops[0]
