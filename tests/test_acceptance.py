"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import itertools
import random
import time

import pytest

from quasileib.algebra import (
    LeibnizAlgebra,
    MultiplicationTable,
    build_table,
    is_ideal,
    subalgebras,
    validate,
)
from quasileib.census import (
    CHAR2_FAMILY,
    OUTSIDE_CATALOGUE,
    classify_q_member,
    in_class_q,
    lemma_harness,
    sweep_tables,
)
from quasileib.errors import BadCharacteristic, SquareLambda
from quasileib.families import (
    char2_nonperfect_minimal,
    k2,
    two_dim_solvable_cyclic,
)
from quasileib.fields import GF2, GF3, QQ, FunctionField
from quasileib.linalg import echelonize, vec
from quasileib.quasi import (
    core,
    is_quasi_ideal,
    is_quasi_ideal_oracle,
    subquasi_chain,
)
from tests.conftest import (
    SYMMETRIC_FAMILIES,
    finite_family_corpus,
    gf2_dim3_class_representatives,
    nine_default_instances,
)

F2T = FunctionField(2)


def report(number, name, elapsed, budget):
    print(f"\nACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s < {budget:.0f}s]")


def test_criterion_1_identity_validation():
    start = time.monotonic()
    families = nine_default_instances()
    assert len(families) == 9
    for name, alg in families.items():
        assert validate(alg.table, "right").ok, name
    for name in SYMMETRIC_FAMILIES:
        assert validate(families[name].table, "left").ok, name
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, "identity validation", elapsed, 1)


def test_criterion_2_predicate_oracle_equivalence():
    start = time.monotonic()
    mismatches = 0
    checked = 0
    for label, alg in finite_family_corpus(max_dim=4):
        for s in subalgebras(alg):
            checked += 1
            if is_quasi_ideal(alg, s).holds != is_quasi_ideal_oracle(alg, s):
                mismatches += 1
    assert checked > 500
    assert mismatches == 0
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(2, f"predicate = oracle on {checked} subalgebras", elapsed, 60)


def test_criterion_3_fixtures():
    start = time.monotonic()

    # (a) the 2-dimensional solvable algebra: proper nonzero subalgebras are
    # exactly Fa and F(b-a), both quasi-ideals, and F(b-a) is core-free
    for field in (GF2, GF3):
        alg = two_dim_solvable_cyclic(field)
        fa = echelonize(field, 2, [vec(field, (0, 1))])
        fbma = echelonize(field, 2, [vec(field, (1, -1))])
        proper = {s for s in subalgebras(alg) if 0 < s.dim < 2}
        assert proper == {fa, fbma}
        assert is_quasi_ideal(alg, fa).holds
        assert is_quasi_ideal(alg, fbma).holds
        assert core(alg, fbma).is_zero()

    # (b) K2 over GF(2): simple, the centre line is a quasi-ideal, every
    # subalgebra reaches the whole algebra in at most 2 steps
    kk = k2(GF2)
    assert not any(
        is_ideal(kk, s) for s in subalgebras(kk) if 0 < s.dim < 3
    )
    fz = echelonize(GF2, 3, [vec(GF2, (0, 0, 1))])
    assert is_quasi_ideal(kk, fz).holds
    for s in subalgebras(kk):
        chain = subquasi_chain(kk, s)
        assert chain is not None and chain.m <= 2

    # (c) the characteristic-2 example over GF(2)(t), basis c, z, h:
    # for u = a c + b h + g z, [u,u] = (t a^2 + b^2) z, and t a^2 + b^2 = 0
    # with (a, b) != 0 would make t a square; hence [u,u] is a nonzero
    # multiple of z, never in Fu, so no line except Fz is a subalgebra.
    ex = char2_nonperfect_minimal(F2T)
    fz = echelonize(F2T, 3, [vec(F2T, (0, 1, 0))])
    assert is_ideal(ex, fz)
    assert is_quasi_ideal(ex, fz).holds

    rng = random.Random(2024)

    def rand_poly():
        return F2T.from_polys([rng.randrange(2) for _ in range(3)])

    sampled_lines = set()
    while len(sampled_lines) < 50:
        a, b, g = rand_poly(), rand_poly(), rand_poly()
        if not a and not b:
            continue
        u = (a, g, b)  # basis order c, z, h
        line = echelonize(F2T, 3, [u])
        if line in sampled_lines:
            continue
        sampled_lines.add(line)
        sq = ex.bracket(u, u)
        assert sq == (F2T.zero, F2T.t * a * a + b * b, F2T.zero)
        assert any(sq)
        assert not line.contains_vector(sq)  # not closed: not a subalgebra

    planes = set()
    while len(planes) < 10:
        a, b, g = rand_poly(), rand_poly(), rand_poly()
        if not a and not b:
            continue
        plane = echelonize(F2T, 3, [(a, g, b), vec(F2T, (0, 1, 0))])
        if plane.dim != 2 or plane in planes:
            continue
        planes.add(plane)
        assert is_quasi_ideal(ex, plane).holds

    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(3, "catalogue fixtures (a)(b)(c)", elapsed, 60)


def _all_dim2_gf2_algebras():
    out = []
    for flat in itertools.product(range(2), repeat=8):
        it = iter(flat)
        cube = tuple(
            tuple(tuple(next(it) for _ in range(2)) for _ in range(2))
            for _ in range(2)
        )
        table = MultiplicationTable(GF2, 2, cube)
        if validate(table, "right").ok:
            out.append(LeibnizAlgebra(table, _checked=True))
    return out


def test_criterion_4_lemma_harness():
    start = time.monotonic()
    corpus = list(finite_family_corpus(max_dim=4))
    corpus += [
        (f"gf2_dim2_table_{i}", alg)
        for i, alg in enumerate(_all_dim2_gf2_algebras())
    ]
    harness = lemma_harness(corpus)
    assert harness.algebras == len(corpus)
    assert harness.clauses_checked > 2000
    assert harness.failures == []
    elapsed = time.monotonic() - start
    assert elapsed < 300
    report(
        4,
        f"lemma harness, {harness.clauses_checked} clauses on "
        f"{harness.algebras} algebras, zero failures",
        elapsed,
        300,
    )


def test_criterion_5_two_dimensional_count():
    start = time.monotonic()
    census = sweep_tables(GF2, 2)
    non_lie = [c for c in census.classes if not c.invariants.is_lie]
    assert len(non_lie) == 2
    nilpotency = sorted(c.classification.facts["is_nilpotent"] for c in non_lie)
    assert nilpotency == [False, True]  # one nilpotent, one solvable-not
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(5, "exactly 2 non-Lie classes in dimension 2 over GF(2)", elapsed, 10)


def test_criterion_6_census_determinism_and_discrepancies():
    start = time.monotonic()
    first = sweep_tables(GF2, 3)
    sweep_seconds = time.monotonic() - start
    assert sweep_seconds < 1800

    second = sweep_tables(GF2, 3)
    assert first.to_bytes() == second.to_bytes()

    # locate the class of the non-Lie almost abelian algebra with a
    # 2-dimensional ideal of squares
    from quasileib.census import are_isomorphic
    from quasileib.families import non_lie_almost_abelian

    target = non_lie_almost_abelian(GF2, 2)
    matches = [
        c for c in first.classes if are_isomorphic(c.algebra, target)
    ]
    assert len(matches) == 1
    entry = matches[0]

    # the recorded membership flag must equal the definitional oracle
    oracle_in_q = all(
        is_quasi_ideal_oracle(entry.algebra, s)
        for s in subalgebras(entry.algebra)
    )
    assert entry.in_q == oracle_in_q

    if entry.in_q:
        hits = [
            d
            for d in first.discrepancies
            if d["facts"].get("dim_squares_ideal") == 2
            and d["facts"].get("shape") == "non_lie_almost_abelian"
        ]
        assert len(hits) == 1
        assert entry.classification.verdict == OUTSIDE_CATALOGUE

    assert all(c.oracle_mismatches == 0 for c in first.classes)
    elapsed = time.monotonic() - start
    assert elapsed < 1800
    report(
        6,
        f"dim-3 census: {first.totals['classes']} classes, byte-deterministic, "
        f"discrepancy cross-report",
        elapsed,
        1800,
    )


def test_criterion_7_non_perfect_field_gate():
    start = time.monotonic()
    with pytest.raises(SquareLambda):
        char2_nonperfect_minimal(GF2)  # perfect: everything is a square
    with pytest.raises(BadCharacteristic):
        char2_nonperfect_minimal(GF3)
    with pytest.raises(BadCharacteristic):
        char2_nonperfect_minimal(QQ)
    with pytest.raises(SquareLambda):
        char2_nonperfect_minimal(F2T, lam=F2T.t * F2T.t)

    alg = char2_nonperfect_minimal(F2T, lam=F2T.t)
    assert validate(alg.table, "right").ok and validate(alg.table, "left").ok
    assert classify_q_member(alg).verdict == CHAR2_FAMILY

    # the verdict is unreachable over the other supported fields: the same
    # shape over GF(2) is isotropic, and every family attempt elsewhere
    # fails at the gate
    table = build_table(
        GF2,
        ("c", "z", "h"),
        {(0, 0): {1: 1}, (2, 2): {1: 1}, (0, 2): {0: 1}, (2, 0): {0: 1}},
    )
    assert classify_q_member(LeibnizAlgebra(table)).verdict != CHAR2_FAMILY
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(7, "non-perfect-field gate", elapsed, 1)


def test_criterion_8_membership_by_cyclic_subalgebras():
    # in_class_q decides membership on the cyclic subalgebras <x>, one per
    # line of F^n; on its own copy of each algebra, the subalgebra list
    # decides it on every subalgebra
    start = time.monotonic()
    algebras = [alg for _, alg in finite_family_corpus(max_dim=4)]
    algebras += gf2_dim3_class_representatives()
    members = 0
    for alg in algebras:
        listed = LeibnizAlgebra(MultiplicationTable(alg.field, alg.dim, alg.table.raw))
        expected = all(is_quasi_ideal(listed, s).holds for s in subalgebras(listed))
        assert in_class_q(alg)[0] == expected, alg.table.raw
        members += expected
    assert len(algebras) == 55 and 0 < members < len(algebras)
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(
        8,
        f"membership by cyclic subalgebras = membership by the subalgebra list "
        f"on {len(algebras)} algebras",
        elapsed,
        10,
    )
