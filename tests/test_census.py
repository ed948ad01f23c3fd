import functools
import hashlib
import itertools
import math
import operator
import os
import random
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from quasileib import census
from quasileib.algebra import (
    LeibnizAlgebra,
    MultiplicationTable,
    bracket_subspaces,
    build_table,
    center,
    is_abelian,
    is_ideal,
    is_lie,
    is_nilpotent,
    is_solvable,
    raw_leibniz_failure,
    is_subalgebra,
    quotient,
    raw_quotient_cube,
    squares_ideal,
    subalgebra_closure,
    subalgebras,
    validate,
)
from quasileib.census import (
    ABELIAN,
    ALMOST_ABELIAN_LIE,
    CHAR2_FAMILY,
    EXTRASPECIAL_SUM,
    K2_LIKE,
    NON_LIE_ALMOST_ABELIAN,
    OUTSIDE_CATALOGUE,
    TWO_DIM_SOLVABLE,
    ClassificationResult,
    algebra_invariants,
    are_isomorphic,
    canonical_table_key,
    classify_q_member,
    in_class_q,
    lemma_harness,
    match_almost_abelian_lie,
    sweep_tables,
)
from quasileib.quasi import (
    is_quasi_ideal,
    is_quasi_ideal_oracle,
    lemma_suite,
    permutes_with,
)
from quasileib.errors import (
    BadDimension,
    BudgetExceeded,
    UnsupportedField,
    VerificationFailed,
)
from quasileib.families import (
    abelian,
    almost_abelian_lie,
    char2_nonperfect,
    char2_nonperfect_minimal,
    default_anisotropic_gram,
    extraspecial_sum,
    k2,
    non_lie_almost_abelian,
    two_dim_nilpotent_cyclic,
    two_dim_solvable_cyclic,
)
from quasileib.fields import GF2, GF3, QQ, FunctionField, PrimeField
from quasileib.linalg import (
    DEFAULT_BUDGET,
    echelonize,
    is_anisotropic,
    raw_echelonize,
    raw_identity,
    raw_projective_points,
    raw_rref,
    vec,
    zero_subspace,
)
from tests.conftest import dense_basis, gf2_dim3_class_representatives, transport
from tests.test_hygiene import MEMO_TABLES

F2T = FunctionField(2)


def test_all_subalgebras_fixtures():
    solv = two_dim_solvable_cyclic(GF2)
    subs = subalgebras(solv)
    assert {s.rows for s in subs if 0 < s.dim < 2} == {
        (vec(GF2, (0, 1)),),
        (vec(GF2, (1, 1)),),
    }
    ab = abelian(GF2, 2)
    assert len(subalgebras(ab)) == 5
    nl = non_lie_almost_abelian(GF2, 2)
    subs = subalgebras(nl)
    ideal = echelonize(GF2, 3, [vec(GF2, (1, 0, 0)), vec(GF2, (0, 1, 0))])
    for s in subs:
        if ideal.contains(s):
            continue
        # outside I, every subalgebra is Fh plus a piece of I
        h = vec(GF2, (0, 0, 1))
        assert s.contains_vector(h)


def test_in_class_q_fixtures():
    assert in_class_q(two_dim_solvable_cyclic(GF3))[0]
    assert in_class_q(abelian(GF3, 3))[0]
    es = extraspecial_sum(GF3, default_anisotropic_gram(GF3, 2), dim_z=1)
    assert in_class_q(es)[0]
    held, failing = in_class_q(k2(GF2))
    assert not held and failing is not None
    # the I + Fh shape passes for every dim I (see classify_q_member), and
    # the census records it as a discrepancy
    for field, top in ((GF2, 4), (GF3, 3)):
        for dim_i in range(2, top + 1):
            assert in_class_q(non_lie_almost_abelian(field, dim_i)) == (True, None)


def _fresh(alg):
    """A copy of the algebra with empty memos, so that no verdict is
    shared with another route."""
    return LeibnizAlgebra(MultiplicationTable(alg.field, alg.dim, alg.table.raw))


def _pinned_census_classes(gf3_dim3_census, gf2_dim4_census):
    """Every class of every census size whose report is pinned, and of the
    GF(2) dim-4 fixture, as report entries."""
    reports = [sweep_tables(GF2, d) for d in (1, 2, 3)]
    reports += [sweep_tables(GF3, d) for d in (1, 2)]
    reports += [gf3_dim3_census, gf2_dim4_census]
    return [entry for report in reports for entry in report.classes]


def test_cyclic_route_agrees_with_the_subalgebra_list(
    family_corpus, gf3_dim3_census, gf2_dim4_census
):
    # in_class_q decides membership on the cyclic subalgebras; a class's
    # in_q, and the list route on a copy of each finite family instance,
    # decide it on every subalgebra
    cases = [
        (entry.algebra, entry.in_q)
        for entry in _pinned_census_classes(gf3_dim3_census, gf2_dim4_census)
    ]
    assert len(cases) == 1 + 4 + 20 + 1 + 4 + 27 + 128
    for _, alg in family_corpus:
        listed = _fresh(alg)
        held = all(is_quasi_ideal(listed, s).holds for s in subalgebras(listed))
        cases.append((alg, held))
    seen = {True: 0, False: 0}
    for alg, expected in cases:
        assert in_class_q(_fresh(alg))[0] == expected, alg.table.raw
        seen[expected] += 1
    assert seen[True] > 20 and seen[False] > 100


def test_in_class_q_failures_are_cyclic_and_refuted_by_the_oracle(
    family_corpus, gf3_dim3_census, gf2_dim4_census
):
    # the failing subalgebra is some <x>, and the oracle, on its own copy
    # of the algebra, refutes it again
    algebras = [alg for _, alg in family_corpus] + [
        entry.algebra
        for entry in _pinned_census_classes(gf3_dim3_census, gf2_dim4_census)
    ]
    failures = 0
    for alg in algebras:
        held, failing = in_class_q(_fresh(alg))
        if held:
            assert failing is None
            continue
        failures += 1
        checked = _fresh(alg)
        assert is_subalgebra(checked, failing)
        assert not is_quasi_ideal_oracle(checked, failing)
        assert any(
            census._cyclic_subalgebra(checked, x) == failing
            for x in raw_projective_points(alg.field, alg.dim)
            if failing.raw_contains(x)
        )
    assert failures > 100


def test_cyclic_subalgebra_is_the_closure_of_its_line(nine_families, family_corpus):
    # <x> = span{x, [x,x], [[x,x],x], ...} is closed (the right identity
    # gives [L, I] = 0), so it is the subalgebra x generates, over every
    # field: the basis vectors and random vectors of every family instance
    rng = random.Random(17)
    algebras = list(nine_families.values()) + [alg for _, alg in family_corpus]
    algebras.append(almost_abelian_lie(F2T, 4))
    for alg in algebras:
        field, n = alg.field, alg.dim
        vectors = list(raw_identity(field, n))
        vectors += [
            field.unwrap(tuple(_sample_scalar(field, rng) for _ in range(n)))
            for _ in range(6)
        ]
        for x in vectors:
            if x == (field.raw_zero,) * n:
                continue
            line = raw_echelonize(field, n, [x])
            cyclic = census._cyclic_subalgebra(alg, x)
            assert cyclic == subalgebra_closure(alg, line), (alg, x)
            assert is_subalgebra(alg, cyclic)


def test_in_class_q_enumerates_lines_not_subspaces():
    # 2^7 - 1 lines instead of the 29,212 subspaces of F^7 that the
    # subalgebra list would test
    alg = non_lie_almost_abelian(GF2, 6)
    start = time.perf_counter()
    assert in_class_q(alg) == (True, None)
    assert time.perf_counter() - start < 0.1


def test_in_class_q_needs_a_finite_field():
    for alg in (almost_abelian_lie(QQ, 3), char2_nonperfect_minimal(F2T)):
        with pytest.raises(UnsupportedField):
            in_class_q(alg)


def test_census_fails_when_the_two_membership_routes_disagree(monkeypatch):
    monkeypatch.setattr(
        census, "in_class_q", lambda alg, budget=DEFAULT_BUDGET: (False, alg.full())
    )
    with pytest.raises(VerificationFailed, match="cyclic subalgebras"):
        sweep_tables(GF2, 2)


def _sample_scalar(field, rng):
    if field is F2T:
        return F2T.from_polys([rng.randrange(2) for _ in range(3)])
    return field(rng.randrange(-3, 4))


@pytest.mark.parametrize("field", [QQ, F2T], ids=["qq", "gf2t"])
def test_non_lie_almost_abelian_argument_replays(field):
    # the four steps of the I + Fh argument in classify_q_member's
    # docstring, on a seeded sample of subspaces of I + Fh (basis x1, ...,
    # h) for dim I = 2..5
    rng = random.Random(0)
    for dim_i in range(2, 6):
        alg = non_lie_almost_abelian(field, dim_i)
        n = dim_i + 1
        h = alg.basis_vector(dim_i)
        facts = classify_q_member(alg).facts
        assert (facts["shape"], facts["dim_i"]) == (NON_LIE_ALMOST_ABELIAN, dim_i)
        ideal = echelonize(field, n, [alg.basis_vector(i) for i in range(dim_i)])

        def sample(last=0):
            # a vector of I, plus last * h
            coords = [_sample_scalar(field, rng) for _ in range(dim_i)]
            return vec(field, coords + [last])

        for _ in range(8):
            # step 1: a subalgebra not inside I contains h
            rows = [sample() for _ in range(rng.randrange(n))]
            mixed = echelonize(field, n, rows + [sample(1)])
            assert not is_subalgebra(alg, mixed) or mixed.contains_vector(h)
            # step 2: J and Fh + J are subalgebras
            j = echelonize(field, n, [sample() for _ in range(rng.randrange(n))])
            fh_j = echelonize(field, n, list(j.rows) + [h])
            assert ideal.contains(j)
            # steps 3 and 4: each permutes with a line F(y + dh), and is a
            # quasi-ideal
            k = echelonize(field, n, [sample(_sample_scalar(field, rng))])
            for s in (j, fh_j):
                assert is_subalgebra(alg, s), (dim_i, s)
                assert permutes_with(alg, s, k), (dim_i, s, k)
                assert is_quasi_ideal(alg, s).holds, (dim_i, s)


@pytest.mark.parametrize(
    "field, dim, shaped",
    [(GF2, 3, 1), (GF3, 2, 0), (GF2, 4, 1)],
    ids=["gf2_dim3", "gf3_dim2", "gf2_dim4"],
)
def test_every_q_member_is_catalogued_or_the_non_lie_shape(request, field, dim, shaped):
    # the completeness gate: an in-Q class outside the catalogue has the
    # I + Fh shape, and the discrepancies list those classes and no other
    if dim == 4:
        report = request.getfixturevalue("gf2_dim4_census")
    else:
        report = sweep_tables(field, dim)
    outside = [
        entry.classification.facts
        for entry in report.classes
        if entry.in_q and entry.classification.verdict == OUTSIDE_CATALOGUE
    ]
    assert [f.get("shape") for f in outside] == [NON_LIE_ALMOST_ABELIAN] * shaped
    assert [d["facts"] for d in report.discrepancies] == outside


EXPECTED_VERDICTS = [
    (lambda: abelian(GF3, 3), ABELIAN, {}),
    (lambda: abelian(GF2, 1), ABELIAN, {}),
    (lambda: almost_abelian_lie(GF3, 3), ALMOST_ABELIAN_LIE, {}),
    (lambda: almost_abelian_lie(QQ, 4), ALMOST_ABELIAN_LIE, {}),
    (lambda: k2(GF2), K2_LIKE, {}),
    (lambda: k2(F2T), K2_LIKE, {}),
    (lambda: two_dim_solvable_cyclic(GF2), TWO_DIM_SOLVABLE, {}),
    (lambda: two_dim_solvable_cyclic(QQ), TWO_DIM_SOLVABLE, {}),
    (lambda: non_lie_almost_abelian(GF3, 1), TWO_DIM_SOLVABLE, {}),
    (
        lambda: two_dim_nilpotent_cyclic(GF3),
        EXTRASPECIAL_SUM,
        {"dim_e": 2, "dim_z": 0},
    ),
    (
        lambda: extraspecial_sum(GF3, default_anisotropic_gram(GF3, 2), dim_z=1),
        EXTRASPECIAL_SUM,
        {"dim_e": 3, "dim_z": 1},
    ),
    (
        lambda: extraspecial_sum(GF2, default_anisotropic_gram(GF2, 2)),
        EXTRASPECIAL_SUM,
        {"dim_e": 3, "dim_z": 0},
    ),
    (lambda: char2_nonperfect_minimal(F2T), CHAR2_FAMILY, {"dim_c": 1}),
    (lambda: char2_nonperfect(F2T), CHAR2_FAMILY, {"dim_c": 1}),
]


@pytest.mark.parametrize("make,verdict,params", EXPECTED_VERDICTS)
def test_family_round_trip_classification(make, verdict, params):
    result = classify_q_member(make())
    assert result.verdict == verdict
    assert result.params == params


# The catalogue as it read before classify_q_member took one reading of I, Z
# and L/I and one squares form: the Liesation tag, the E + Z matcher, the
# characteristic-2 matcher, the I + Fh matcher, their scalar helpers and the
# classifier, verbatim but for their names.


def _ref_scalar_multiple(field, rows, images):
    """The common raw c with images[i] = c * rows[i] for raw vectors, or
    None."""
    mul, zero = field.raw_mul, field.raw_zero
    c = None
    for row, img in zip(rows, images):
        pivot = next((j for j, s in enumerate(row) if s != zero), None)
        if pivot is None:
            return None
        ci = mul(img[pivot], field.raw_inv(row[pivot]))
        if c is None:
            c = ci
        elif ci != c:
            return None
        if img != tuple([mul(ci, a) for a in row]):
            return None
    return c


def _ref_acting_unit(alg: LeibnizAlgebra, s):
    """w / c for the unit vector w at the first non-pivot column of S, when
    [x, w] = c x on S with c != 0, as a raw vector; else None."""
    field, br = alg.field, alg.table.raw_bracket
    col = s.non_pivots()[0]
    w = raw_identity(field, alg.dim)[col]
    c = _ref_scalar_multiple(field, s.raw_rows, [br(x, w) for x in s.raw_rows])
    if c is None or c == field.raw_zero:
        return None
    inv = field.raw_inv(c)
    return tuple(field.raw_mul(inv, a) for a in w)


def _ref_match_non_lie_almost_abelian(alg: LeibnizAlgebra):
    """The normalized h with L = I + Fh, [x, h] = x, [h, x] = [h, h] = 0
    where I is the ideal of squares, as a raw vector, or None."""
    ideal = squares_ideal(alg)
    if ideal.dim != alg.dim - 1 or ideal.dim < 1:
        return None
    h0 = _ref_acting_unit(alg, ideal)
    if h0 is None:
        return None
    field, br = alg.field, alg.table.raw_bracket
    # h = h0 - [h0, h0]
    h = tuple(field.raw_axpy(field.raw_neg(field.raw_one), h0, br(h0, h0)))
    zeros = (field.raw_zero,) * alg.dim
    if br(h, h) != zeros or any(
        br(x, h) != x or br(h, x) != zeros for x in ideal.raw_rows
    ):
        return None
    return h


def _ref_match_extraspecial_sum(alg: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    """(dim_e, dim_z) for the E + Z shape, or None.

    Conditions: nonzero squares ideal I of dimension 1 inside the centre,
    the derived subalgebra equal to I (so the quotient by the centre is an
    abelian Lie algebra), and the squares form x -> [x,x] anisotropic off
    the centre.
    """
    ideal = squares_ideal(alg)
    if ideal.dim != 1:
        return None
    zl = center(alg)
    if not zl.contains(ideal):
        return None
    full = alg.full()
    derived = bracket_subspaces(alg, full, full)
    if derived != ideal:
        return None
    comp = zl.non_pivots()
    if not comp:
        return None
    field, br = alg.field, alg.table.raw_bracket
    eye = raw_identity(field, alg.dim)
    gram = [
        [
            _ref_scalar_multiple(field, ideal.raw_rows, (br(eye[u], eye[v]),))
            for v in comp
        ]
        for u in comp
    ]
    if any(None in row for row in gram):
        return None
    if not is_anisotropic(field, gram, budget=budget):
        return None
    return (alg.dim - zl.dim + 1, zl.dim - 1)


def _ref_match_char2_family(alg: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    """dim_C for the characteristic-2 family C + Fz + Fh, or None.

    Reconstructs an explicit basis: z spans the centre (= the squares
    ideal), h lifts the identity-acting direction of the almost abelian
    quotient, c_i = [b_i, h] lift the abelian part.  The reconstructed
    structure constants must match the family shape exactly and the
    extended diagonal (the squares form) must be anisotropic, which forces
    the diagonal coefficients outside the squares of the field.
    """
    field = alg.field
    if field.characteristic() != 2 or is_lie(alg):
        return None
    ideal = squares_ideal(alg)
    zl = center(alg)
    if ideal.dim != 1 or zl != ideal:
        return None
    quot = quotient(alg, zl)
    abar = match_almost_abelian_lie(quot)
    if abar is None:
        return None
    br, zero = alg.table.raw_bracket, field.raw_zero
    comp = zl.non_pivots()
    lift = lambda qv: tuple(
        qv[comp.index(c)] if c in comp else zero for c in range(alg.dim)
    )
    h = lift(abar)
    z = br(h, h)
    # a zero z is the multiple 0 of the ideal's row
    if _ref_scalar_multiple(field, ideal.raw_rows, (z,)) in (None, zero):
        return None
    qfull = quot.full()
    qder = bracket_subspaces(quot, qfull, qfull)
    cs = [br(lift(row), h) for row in qder.raw_rows]
    basis = cs + [z, h]
    if raw_echelonize(field, alg.dim, basis).dim != alg.dim:
        return None
    k = len(cs)
    # verify the family table in the reconstructed basis
    diag = []
    for i, ci in enumerate(cs):
        if br(ci, h) != ci or br(h, ci) != ci:
            return None
        for j, cj in enumerate(cs):
            val = br(ci, cj)
            coeff = _ref_scalar_multiple(field, (z,), (val,))
            if coeff is None or br(cj, ci) != val:
                return None
            if i == j:
                diag.append(coeff)
    zeros = (zero,) * alg.dim
    if any(br(v, z) != zeros or br(z, v) != zeros for v in basis):
        return None
    ext = diag + [field.raw_one]
    gram = tuple(
        tuple(ext[i] if i == j else zero for j in range(k + 1)) for i in range(k + 1)
    )
    if not is_anisotropic(field, gram, budget=budget):
        return None
    return k


def _ref_liesation_tag(alg: LeibnizAlgebra) -> str:
    quot = quotient(alg, squares_ideal(alg))
    if is_abelian(quot):
        return "abelian"
    if match_almost_abelian_lie(quot) is not None:
        return "almost_abelian"
    return "other"


def _reference_classify(
    alg: LeibnizAlgebra, budget: int = DEFAULT_BUDGET
) -> ClassificationResult:
    """Match an algebra against the catalogue of algebras all of whose
    subalgebras are quasi-ideals.  Meaningful for members of that class but
    callable on anything; non-members typically land outside the catalogue.
    """
    ideal = squares_ideal(alg)
    facts = {
        "dim": alg.dim,
        "dim_squares_ideal": ideal.dim,
        "dim_center": center(alg).dim,
        "is_lie": is_lie(alg),
        "is_nilpotent": is_nilpotent(alg),
        "is_solvable": is_solvable(alg),
        "liesation": _ref_liesation_tag(alg),
    }
    if facts["is_lie"]:
        if is_abelian(alg):
            return ClassificationResult(ABELIAN, {}, facts)
        if match_almost_abelian_lie(alg) is not None:
            return ClassificationResult(ALMOST_ABELIAN_LIE, {}, facts)
        full = alg.full()
        if (
            alg.dim == 3
            and alg.field.characteristic() == 2
            and bracket_subspaces(alg, full, full) == full
        ):
            return ClassificationResult(K2_LIKE, {}, facts)
        return ClassificationResult(OUTSIDE_CATALOGUE, {}, facts)
    if alg.dim == 2 and not facts["is_nilpotent"]:
        return ClassificationResult(TWO_DIM_SOLVABLE, {}, facts)
    es = _ref_match_extraspecial_sum(alg, budget=budget)
    if es is not None:
        return ClassificationResult(
            EXTRASPECIAL_SUM, {"dim_e": es[0], "dim_z": es[1]}, facts
        )
    c2 = _ref_match_char2_family(alg, budget=budget)
    if c2 is not None:
        return ClassificationResult(CHAR2_FAMILY, {"dim_c": c2}, facts)
    if _ref_match_non_lie_almost_abelian(alg) is not None:
        facts = dict(facts)
        facts["shape"] = NON_LIE_ALMOST_ABELIAN
        facts["dim_i"] = ideal.dim
    return ClassificationResult(OUTSIDE_CATALOGUE, {}, facts)


def _random_base_change(alg, rng):
    """alg written in a seeded random basis of a finite prime field."""
    field, n = alg.field, alg.dim
    while True:
        rows = [vec(field, [rng.randrange(field.p) for _ in range(n)]) for _ in range(n)]
        if echelonize(field, n, rows).dim == n:
            return transport(alg, rows)


def _assert_same_classification(alg):
    # on separate copies, so that neither reads the other's memos
    ours = classify_q_member(LeibnizAlgebra(alg.table))
    ref = _reference_classify(LeibnizAlgebra(alg.table))
    # verdict, params and facts, and the facts in the same order
    assert ours == ref and list(ours.facts) == list(ref.facts)


def test_classification_matches_the_reference(gf2_dim4_census, gf3_dim3_census):
    rng = random.Random(31)
    censuses = [sweep_tables(GF2, d) for d in (1, 2, 3)] + [gf2_dim4_census]
    censuses += [sweep_tables(GF3, d) for d in (1, 2)] + [gf3_dim3_census]
    censuses += [sweep_tables(PrimeField(5), 2), sweep_tables(PrimeField(7), 2)]
    for report in censuses:
        for entry in report.classes:
            _assert_same_classification(entry.algebra)
            _assert_same_classification(_random_base_change(entry.algebra, rng))
    # every family instance, over QQ and GF(2)(t) too, also in a dense
    # basis, where the characteristic-2 Gram rows have cross terms
    for make, verdict, params in EXPECTED_VERDICTS:
        alg = make()
        moved = transport(alg, dense_basis(alg.field, alg.dim))
        _assert_same_classification(alg)
        _assert_same_classification(moved)
        assert classify_q_member(moved)[:2] == (verdict, params)


def _replay_catalogue_lemmas(algebras):
    """Replay the two lemmas of classify_q_member's docstring on each
    algebra that meets their hypotheses, and count (a)'s algebras, (b)'s,
    and those with dim I = n - 1.

    (a) In characteristic 2, a non-Lie algebra with I = Z of dimension 1
        and L/I almost abelian has a commutative table.
    (b) With dim I = n - 1 and [x, w] = c x on I for some c != 0, the
        vector h = w / c - [w / c, w / c] has [h, h] = 0, and [x, h] = x
        and [h, x] = 0 on I."""
    met_a = met_b = top = 0
    for alg in algebras:
        field, n, br = alg.field, alg.dim, alg.table.raw_bracket
        ideal, zeros = squares_ideal(alg), (field.raw_zero,) * n
        if (
            field.characteristic() == 2
            and not is_lie(alg)
            and ideal.dim == 1
            and center(alg) == ideal
            and match_almost_abelian_lie(quotient(alg, ideal)) is not None
        ):
            met_a += 1
            cube = alg.table.raw
            assert all(cube[i][j] == cube[j][i] for i in range(n) for j in range(n))
        if ideal.dim == n - 1 >= 1:
            top += 1
            h0 = census._acting_unit(alg, ideal)
            assert h0 == _ref_acting_unit(alg, ideal)
            if h0 is not None:
                met_b += 1
                h = tuple(field.raw_axpy(field.raw_neg(field.raw_one), h0, br(h0, h0)))
                assert br(h, h) == zeros
                assert all(br(x, h) == x and br(h, x) == zeros for x in ideal.raw_rows)
    return met_a, met_b, top


def test_catalogue_lemmas_replay(gf2_dim4_census, gf3_dim3_census):
    # every class at GF(2) dims 2-4 and GF(3) dims 2-3: (a) holds where it
    # applies and no such class is in the family (GF(2) is perfect), and
    # one class per size has (b)'s shape
    reports = [sweep_tables(GF2, 2), sweep_tables(GF2, 3), gf2_dim4_census]
    reports += [sweep_tables(GF3, 2), gf3_dim3_census]
    counts = [_replay_catalogue_lemmas(e.algebra for e in r.classes) for r in reports]
    assert counts == [(0, 1, 2), (2, 1, 5), (4, 1, 11), (0, 1, 2), (0, 1, 7)]
    for report in reports[1:3]:
        assert CHAR2_FAMILY not in {e.classification.verdict for e in report.classes}
    # the GF(2)(t) families and I + Fh over GF(2)(t) and QQ, each also in a
    # dense basis, where the Gram rows at I's pivot have cross terms and h
    # differs from w / c
    algebras = [char2_nonperfect_minimal(F2T), char2_nonperfect(F2T)]
    algebras += [non_lie_almost_abelian(F2T, 2), non_lie_almost_abelian(QQ, 3)]
    algebras += [transport(alg, dense_basis(alg.field, alg.dim)) for alg in algebras]
    assert _replay_catalogue_lemmas(algebras) == (4, 4, 4)
    moved = algebras[4]
    col, comp = squares_ideal(moved).pivots[0], center(moved).non_pivots()
    cross = {moved.table.raw[u][v][col] for u in comp for v in comp if u != v}
    assert cross - {F2T.raw_zero}


def test_non_lie_almost_abelian_dim2_outside_catalogue():
    result = classify_q_member(non_lie_almost_abelian(GF2, 2))
    assert result.verdict == OUTSIDE_CATALOGUE
    assert result.facts["dim_squares_ideal"] == 2
    assert result.facts["is_lie"] is False
    assert result.facts["liesation"] == "abelian"
    assert result.facts["shape"] == "non_lie_almost_abelian"
    assert result.facts["dim_i"] == 2


def test_char2_family_unreachable_over_perfect_fields():
    # the same table shape with lambda = 1 over GF(2) is isotropic
    table = build_table(
        GF2,
        ("c", "z", "h"),
        {(0, 0): {1: 1}, (2, 2): {1: 1}, (0, 2): {0: 1}, (2, 0): {0: 1}},
    )
    alg = LeibnizAlgebra(table)
    assert classify_q_member(alg).verdict == OUTSIDE_CATALOGUE


def test_heisenberg_like_lie_outside_catalogue():
    # [x,y] = z = -[y,x]: nilpotent Lie, not abelian or almost abelian
    table = build_table(GF3, ("x", "y", "z"), {(0, 1): {2: 1}, (1, 0): {2: -1}})
    alg = LeibnizAlgebra(table)
    result = classify_q_member(alg)
    assert result.verdict == OUTSIDE_CATALOGUE
    assert not in_class_q(alg)[0]


def test_verdicts_replay_on_reconstruction():
    # extraspecial: re-evaluate the squares form on the quotient
    es = extraspecial_sum(GF3, default_anisotropic_gram(GF3, 2), dim_z=1)
    res = classify_q_member(es)
    assert res.verdict == EXTRASPECIAL_SUM
    assert res.params["dim_e"] + res.params["dim_z"] == es.dim
    c2 = char2_nonperfect_minimal(F2T)
    res = classify_q_member(c2)
    assert res.params["dim_c"] == c2.dim - 2


def test_are_isomorphic_fixtures():
    first, second = two_dim_nilpotent_cyclic(GF2), two_dim_solvable_cyclic(GF2)
    assert are_isomorphic(first, first)
    assert not are_isomorphic(first, second)
    solv = two_dim_solvable_cyclic(GF3)
    # the same algebra written in the swapped basis (a, b)
    swapped = LeibnizAlgebra(
        build_table(GF3, ("a", "b"), {(1, 1): {0: 1}, (0, 1): {0: 1}})
    )
    assert are_isomorphic(solv, swapped)
    assert not are_isomorphic(solv, abelian(GF3, 2))


def test_are_isomorphic_guards():
    with pytest.raises(UnsupportedField):
        are_isomorphic(two_dim_solvable_cyclic(QQ), two_dim_solvable_cyclic(QQ))
    # the budget counts the members of one orbit: the abelian table's orbit
    # is that table alone, and two_dim_solvable_cyclic's has 48 / 2 = 24
    assert are_isomorphic(abelian(GF3, 4), abelian(GF3, 4), budget=1)
    solv = two_dim_solvable_cyclic(GF3)
    assert are_isomorphic(solv, solv, budget=24)
    with pytest.raises(BudgetExceeded):
        are_isomorphic(solv, solv, budget=2)
    with pytest.raises(BudgetExceeded):
        canonical_table_key(solv, budget=23)
    assert not are_isomorphic(abelian(GF2, 2), abelian(GF2, 3))


def test_invariant_prefilter_never_disagrees():
    # on every pair from the dim-2 sweep classes, prefilter-equal implies
    # the exhaustive search settles it, and prefilter-different implies
    # non-isomorphic
    report = sweep_tables(GF2, 2)
    algs = [c.algebra for c in report.classes]
    for a, b in itertools.combinations(algs, 2):
        if algebra_invariants(a) != algebra_invariants(b):
            assert not are_isomorphic(a, b)
    for a in algs:
        assert are_isomorphic(a, a)


def test_sweep_classes_pairwise_non_isomorphic():
    # the canonical-form dedup must agree with the search: distinct classes
    # are never isomorphic, and the relation is symmetric
    for field, dim in ((GF2, 2), (GF3, 2), (GF2, 3)):
        report = sweep_tables(field, dim)
        algs = [c.algebra for c in report.classes]
        for a, b in itertools.combinations(algs, 2):
            forward = are_isomorphic(a, b)
            assert forward == are_isomorphic(b, a)
            assert not forward


def _lie(field, brackets):
    """The Lie algebra on x1, x2, x3 with the given [x_a, x_b] for a > b,
    as {(a, b): {c: coefficient}} with 0-based indices."""
    products = {}
    for (a, b), image in brackets.items():
        products[a, b] = image
        products[b, a] = {c: -v for c, v in image.items()}
    return LeibnizAlgebra(build_table(field, ("x1", "x2", "x3"), products))


def _check_lie_classes_match_de_graaf(field, report):
    """The solvable 3-dimensional Lie algebras in de Graaf, "Classification
    of solvable Lie algebras", Experimental Math. 14 (2005): L^1 abelian;
    L^2 with [x3, x1] = x1, [x3, x2] = x2; L^3_a with [x3, x1] = x2,
    [x3, x2] = a x1 + x2; L^4_a with [x3, x1] = x2, [x3, x2] = a x1.  L^3_a
    gives one class for each a, and L^4_a one for each a up to nonzero
    square factors.  Over GF(2) and GF(3), 1 is the only nonzero square, so
    a runs over the whole field in both families: 2 + 2q classes.  They are
    built here without the census and must be exactly its solvable Lie
    classes; the census has one more Lie class, which is not solvable."""
    q = field.p
    algebras = [abelian(field, 3), _lie(field, {(2, 0): {0: 1}, (2, 1): {1: 1}})]
    for a in range(q):
        algebras.append(_lie(field, {(2, 0): {1: 1}, (2, 1): {0: a, 1: 1}}))
        algebras.append(_lie(field, {(2, 0): {1: 1}, (2, 1): {0: a}}))
    built = {canonical_table_key(alg) for alg in algebras}
    assert len(built) == 2 + 2 * q

    lie = [entry for entry in report.classes if entry.invariants.is_lie]
    assert len(lie) == len(built) + 1
    solvable = {
        canonical_table_key(entry.algebra)
        for entry in lie
        if entry.classification.facts["is_solvable"]
    }
    assert solvable == built


def test_gf2_dim3_lie_classes_match_de_graaf():
    # 6 solvable classes out of 7 Lie classes
    _check_lie_classes_match_de_graaf(GF2, sweep_tables(GF2, 3))


def test_gf3_dim3_lie_classes_match_de_graaf(gf3_dim3_census):
    # 8 solvable classes out of 9 Lie classes
    _check_lie_classes_match_de_graaf(GF3, gf3_dim3_census)


def test_gf3_dim3_census(gf3_dim3_census):
    # six classes have only quasi-ideal subalgebras; the one outside the
    # catalogue has the shape I + Fh with dim I = 2
    report = gf3_dim3_census
    assert report.totals == {"scanned": 3**27, "valid": 15_861, "classes": 27}
    members = [entry.classification for entry in report.classes if entry.in_q]
    assert sorted(c.verdict for c in members) == sorted(
        [ABELIAN, ALMOST_ABELIAN_LIE, OUTSIDE_CATALOGUE] + [EXTRASPECIAL_SUM] * 3
    )
    outside = [c.facts for c in members if c.verdict == OUTSIDE_CATALOGUE]
    assert [(f["shape"], f["dim_i"]) for f in outside] == [(NON_LIE_ALMOST_ABELIAN, 2)]
    assert all(entry.oracle_mismatches == 0 for entry in report.classes)
    assert report.lemma_failures == []


def test_canonical_key_constant_on_orbits():
    solv = two_dim_solvable_cyclic(GF3)
    swapped = LeibnizAlgebra(
        build_table(GF3, ("a", "b"), {(1, 1): {0: 1}, (0, 1): {0: 1}})
    )
    assert canonical_table_key(solv) == canonical_table_key(swapped)
    assert canonical_table_key(solv) != canonical_table_key(abelian(GF3, 2))


def test_sweep_gf2_dim1():
    report = sweep_tables(GF2, 1)
    assert report.totals == {"scanned": 2, "valid": 1, "classes": 1}
    entry = report.classes[0]
    assert entry.classification.verdict == ABELIAN
    assert entry.in_q


def test_sweep_gf2_dim2_two_non_lie_classes():
    report = sweep_tables(GF2, 2)
    assert report.totals["scanned"] == 256
    non_lie = [c for c in report.classes if not c.invariants.is_lie]
    assert len(non_lie) == 2
    verdicts = sorted(c.classification.verdict for c in non_lie)
    assert verdicts == [EXTRASPECIAL_SUM, TWO_DIM_SOLVABLE]
    assert all(c.oracle_mismatches == 0 for c in report.classes)
    # the two non-Lie classes are exactly the two catalogue algebras
    for cat in (two_dim_nilpotent_cyclic(GF2), two_dim_solvable_cyclic(GF2)):
        assert sum(1 for c in non_lie if are_isomorphic(c.algebra, cat)) == 1


def test_sweep_gf3_dim2():
    report = sweep_tables(GF3, 2)
    non_lie = [c for c in report.classes if not c.invariants.is_lie]
    assert len(non_lie) == 2
    assert all(c.oracle_mismatches == 0 for c in report.classes)
    verdicts = sorted(c.classification.verdict for c in report.classes)
    assert verdicts == [
        ABELIAN,
        ALMOST_ABELIAN_LIE,
        EXTRASPECIAL_SUM,
        TWO_DIM_SOLVABLE,
    ]
    # every 2-dimensional algebra over GF(3) has only quasi-ideal subalgebras
    assert all(c.in_q for c in report.classes)


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 31])
def test_dim2_valid_count_closed_form(q):
    """There are q**3 + 2 q**2 - q - 1 Leibniz tables of dimension 2 over
    GF(q): 13, 41, 169, 433, 1561, 2521 and 31,681 at q = 2, 3, 5, 7, 11,
    13 and 31.

    Derivation, as the sum of |GL(2,q)| / |Aut| over the four classes, with
    |GL(2,q)| = (q**2 - 1)(q**2 - q).  Write phi(x) = a x + b y for a basis
    x, y of the class's normal form.

    * Abelian: every invertible map is an automorphism, so its orbit is the
      zero table alone.
    * Lie, [x,y] = x = -[y,x]: phi maps the derived algebra Fx to itself, so
      phi(x) = a x with a != 0 and phi(y) = b x + c y; then
      [phi x, phi y] = a c x = phi(x) forces c = 1, so |Aut| = q(q - 1).
    * Nilpotent non-Lie, [x,x] = y and every other product 0: phi maps the
      ideal of squares Fy to itself, and [phi x, phi x] = a**2 y = phi(y)
      for phi(x) = a x + b y, so a != 0 and b are free: |Aut| = q(q - 1).
    * Solvable non-Lie, [x,x] = y = [y,x] and [x,y] = [y,y] = 0: again
      phi(y) = c y and phi(x) = a x + b y.  [phi y, phi x] = c a y must equal
      phi(y) = c y, so a = 1; [phi x, phi x] = (1 + b) y must equal c y, so
      c = 1 + b, which must be nonzero: |Aut| = q - 1.

    The two Lie classes give 1 + (q**2 - 1) = q**2 tables; the two non-Lie
    classes give (q**2 - 1) + q(q**2 - 1) = (q - 1)(q + 1)**2.  The sum is
    q**3 + 2 q**2 - q - 1."""
    gl = (q * q - 1) * (q * q - q)
    automorphisms = (gl, q * (q - 1), q * (q - 1), q - 1)
    closed_form = q**3 + 2 * q**2 - q - 1
    assert sum(gl // a for a in automorphisms) == closed_form
    report = sweep_tables(PrimeField(q), 2)
    assert report.totals["valid"] == closed_form
    assert report.totals["classes"] == len(automorphisms)


def test_report_count_consistency():
    for field, dim in ((GF2, 2), (GF3, 2), (GF2, 3)):
        r = sweep_tables(field, dim)
        assert r.totals["classes"] <= r.totals["valid"] <= r.totals["scanned"]
        assert r.totals["classes"] == len(r.classes)
        for c in r.classes:
            assert c.quasi_ideal_count <= c.subalgebra_count
            assert c.in_q == (c.quasi_ideal_count == c.subalgebra_count)


def test_sweep_rejects_large_exhaustive():
    # the budget alone bounds the sizes: GF(2) dim 5 has 2^20 Lie systems,
    # over the default budget, and GF(3) dim 3 has 15,861 valid tables, over
    # a budget of 10000
    with pytest.raises(BudgetExceeded):
        sweep_tables(GF2, 5)
    with pytest.raises(BudgetExceeded):
        sweep_tables(GF3, 3, budget=10_000)
    with pytest.raises(UnsupportedField):
        sweep_tables(QQ, 2)


_HUGE_SIZES = """
import time
from quasileib.census import sweep_tables
from quasileib.cli import run
from quasileib.errors import BudgetExceeded
from quasileib.fields import GF3

start = time.perf_counter()
code = run(["census", "--field", "gf3", "--dim", "5000"])
cli_s = time.perf_counter() - start
start = time.perf_counter()
try:
    sweep_tables(GF3, 10**6)
    raise SystemExit("GF(3) dim 10^6 was accepted")
except BudgetExceeded:
    api_s = time.perf_counter() - start
print(code, cli_s, api_s)
"""


def test_huge_sizes_refused_without_building_the_count():
    # 3^25000000 and 3^(10^12) would take seconds to minutes to build; the
    # exponent alone shows they exceed the budget
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    result = subprocess.run(
        [sys.executable, "-c", _HUGE_SIZES],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    code, cli_s, api_s = result.stdout.split()
    assert code == "2" and result.stderr.count("\n") == 1
    assert float(cli_s) < 1 and float(api_s) < 1


@pytest.mark.parametrize("dim", [0, -1], ids=["0-exhaustive", "-1-exhaustive"])
def test_sweep_rejects_dim_below_one(dim):
    with pytest.raises(BadDimension, match=f"dim={dim}"):
        sweep_tables(GF2, dim)


SCALAR_ARITHMETIC = (
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__neg__",
    "__pow__",
    "__bool__",
)


def test_census_and_classification_do_no_scalar_arithmetic(monkeypatch):
    # below the API edge everything computes on raw values: with every
    # Scalar arithmetic operator raising, the censuses and the catalogue
    # verdicts come out as they do unpatched
    from quasileib.fields import Scalar

    def algebras():
        return [
            extraspecial_sum(QQ, default_anisotropic_gram(QQ, 2), dim_z=1),
            extraspecial_sum(F2T, default_anisotropic_gram(F2T, 2)),
            char2_nonperfect(F2T),
        ]

    def run(members):
        sweeps = [
            sweep_tables(GF3, 2, run_lemmas=True).to_bytes(),
            sweep_tables(GF2, 3, run_lemmas=True).to_bytes(),
        ]
        return sweeps, [classify_q_member(alg) for alg in members]

    expected = run(algebras())
    members = algebras()

    def refuse(*args):
        raise AssertionError("Scalar arithmetic below the API edge")

    with monkeypatch.context() as patch:
        for name in SCALAR_ARITHMETIC:
            patch.setattr(Scalar, name, refuse)
        found = run(members)
    assert found == expected
    assert [res.verdict for res in found[1]] == [
        EXTRASPECIAL_SUM,
        EXTRASPECIAL_SUM,
        CHAR2_FAMILY,
    ]


def test_central_squares_instance_on_extraspecial():
    # with all squares off the ideal of squares nonzero, that ideal is
    # central; the rank-2 form over GF(3) realizes the hypothesis
    from quasileib.algebra import center, squares_ideal
    from quasileib.linalg import raw_projective_points

    es = extraspecial_sum(GF3, default_anisotropic_gram(GF3, 2))
    ideal = squares_ideal(es)
    assert ideal.dim == 1
    for x in raw_projective_points(GF3, es.dim):
        if not ideal.raw_contains(x):
            assert any(es.table.raw_bracket(x, x))
    assert center(es).contains(ideal)


def test_lemma_harness_smoke(family_corpus):
    small = [item for item in family_corpus if item[1].dim <= 3][:10]
    report = lemma_harness(small)
    assert report.ok()
    assert report.clauses_checked > 0


def test_lemma_harness_rejects_infinite_field():
    with pytest.raises(UnsupportedField):
        lemma_harness([("solvable", two_dim_solvable_cyclic(QQ))])


def test_lemma_harness_counts_every_algebra_before_any_work(monkeypatch):
    # the vectors and the subspaces of each F^n are counted first, so a
    # corpus with one algebra over the budget does no work on the others
    monkeypatch.setattr(census, "_harness_one", None)
    corpus = [("abelian_1", abelian(GF2, 1)), ("k2", k2(GF2))]
    for budget, refusal in (
        (7, "projective points of F^3: 8 exceeds budget 7"),
        (8, "subspaces of F^3: 16 exceeds budget 8"),
    ):
        with pytest.raises(BudgetExceeded, match=f"^{re.escape(refusal)}$"):
            lemma_harness(corpus, budget=budget)


def _quotient_tables(alg):
    ideals = [j for j in subalgebras(alg) if is_ideal(alg, j)]
    return ideals, {quotient(alg, j).table for j in ideals}


def test_harness_decides_each_quotient_table_once(monkeypatch):
    # every subspace of an abelian algebra is an ideal, and the quotients
    # by the 28 ideals of GF(3)^3 have one table per dimension; L/0 has
    # L's own table, which the harness holds decided already
    alg = abelian(GF3, 3)
    ideals, tables = _quotient_tables(alg)
    assert (len(ideals), len(tables)) == (28, 4)
    decided = []

    def counting_in_class_q(q, budget=DEFAULT_BUDGET):
        decided.append(q.table)
        return in_class_q(q, budget=budget)

    monkeypatch.setattr(census, "in_class_q", counting_in_class_q)
    report = lemma_harness([("abelian_3", alg)])
    assert report.ok()
    assert len(decided) == len(tables) - 1
    assert set(decided) == tables - {alg.table}


def test_harness_decides_each_quotient_table_once_per_run(monkeypatch):
    # one run over the GF(2) dim-3 classes decides each distinct quotient
    # table once, whichever class's ideal gives it: 6 decisions where a run
    # per class makes 16, and the same report
    classes = [(f"class_{i}", alg) for i, alg in enumerate(gf2_dim3_class_representatives())]
    decided = []

    def counting_in_class_q(q, budget=DEFAULT_BUDGET):
        decided.append(q.table)
        return in_class_q(q, budget=budget)

    monkeypatch.setattr(census, "in_class_q", counting_in_class_q)
    separate = [lemma_harness([item]).to_json() for item in classes]
    assert len(decided) == 16
    decided.clear()
    report = lemma_harness(classes).to_json()
    assert len(decided) == len(set(decided)) == 6
    assert report == {
        "algebras": 20,
        "clauses_checked": sum(r["clauses_checked"] for r in separate),
        "failures": [f for r in separate for f in r["failures"]],
    }


def test_harness_never_decides_the_algebra_itself(family_corpus, monkeypatch):
    # the quotient-closure clause runs only on a member of the class, so
    # L/0 = L needs no second decision
    members = [(label, alg) for label, alg in family_corpus if in_class_q(alg)[0]]
    decided = []

    def recording_in_class_q(q, budget=DEFAULT_BUDGET):
        decided.append(q)
        return in_class_q(q, budget=budget)

    monkeypatch.setattr(census, "in_class_q", recording_in_class_q)
    for label, alg in members:
        decided.clear()
        assert lemma_harness([(label, alg)]).ok()
        assert all(q is not alg and q.table != alg.table for q in decided), label
    assert len(members) > 10


def test_census_and_corpus_keep_only_the_listed_memo_tables(monkeypatch):
    # every algebra a census --lemmas run and a seed-0 family_corpus pass
    # build, quotients included, is recorded; none holds a table outside
    # the list, and in particular none for is_ideal, series, is_left_engel
    # or quotient, which are recomputed from the memos they read
    from perfbench.corpus import build, request

    built = []
    init = LeibnizAlgebra.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(LeibnizAlgebra, "__init__", recording_init)
    assert sweep_tables(GF2, 3, run_lemmas=True).lemma_failures == []
    for label, obj in build(0):
        request(label, obj)
    assert len(built) > 100
    tables = set().union(*(alg._cache for alg in built))
    assert tables <= MEMO_TABLES, sorted(tables - MEMO_TABLES)
    assert not tables & {"is_ideal", "series", "is_left_engel", "quotient"}


def test_in_class_q_asks_every_cyclic_subalgebra(monkeypatch):
    # a repeated <x> is asked again, and its verdict read from the
    # quasi_in memo.  In [e1, e1] = e2 over GF(3), <x> is all of F^2
    # for the points (1, c) and F e2 for the last point, (0, 1)
    asked = []

    def counting(alg, s):
        asked.append(s)
        return is_quasi_ideal(alg, s)

    monkeypatch.setattr(census, "is_quasi_ideal", counting)
    alg = two_dim_nilpotent_cyclic(GF3)
    assert in_class_q(alg) == (True, None)
    assert asked == [alg.full()] * 3 + [echelonize(GF3, 2, [vec(GF3, (0, 1))])]


def test_quotient_by_zero_has_the_algebras_own_table(family_corpus, gf3_dim3_census):
    # the harness decides L/0 on L itself, which is sound because the raw
    # table of L/0 is L's
    algebras = [alg for _, alg in family_corpus]
    algebras += [entry.algebra for entry in gf3_dim3_census.classes]
    assert len(algebras) == 35 + 27
    for alg in algebras:
        zero = zero_subspace(alg.field, alg.dim)
        assert raw_quotient_cube(alg, zero) == alg.table.raw
        assert quotient(alg, zero).table == alg.table


def test_harness_reports_quotient_failures_per_ideal(monkeypatch):
    alg = abelian(GF3, 3)
    ideals, _ = _quotient_tables(alg)
    clauses = lemma_harness([("abelian_3", alg)]).clauses_checked
    monkeypatch.setattr(
        census, "in_class_q", lambda q, budget=DEFAULT_BUDGET: (False, q)
    )
    report = lemma_harness([("abelian_3", alg)])
    failures = [f for f in report.failures if f["clause"] == "quotient_closure"]
    assert failures == report.failures
    # L/0 is L, which the clause runs on only as a member of the class
    assert sorted(f["context"] for f in failures) == sorted(
        f"ideal dim {j.dim}" for j in ideals if not j.is_zero()
    )
    assert report.clauses_checked == clauses


def test_harness_failure_records(monkeypatch):
    # every clause site records a failure as one four-key dict and counts
    # the clause whether it holds or not; the extraspecial sum of rank 2
    # over GF(3) reaches every site: it is in the class, its squares off
    # the ideal of squares are nonzero, and it is Engel
    alg = extraspecial_sum(GF3, default_anisotropic_gram(GF3, 2))
    suite_clauses = []

    def spying_suite(*args):
        suite = lemma_suite(*args)
        statuses = [status for status, _ in suite.values()]
        suite_clauses.extend(s for s in statuses if s in ("pass", "fail"))
        return suite

    def harness_with(name, replacement):
        with monkeypatch.context() as patch:
            patch.setattr(census, name, replacement)
            return lemma_harness([("es", alg)])

    clean = harness_with("lemma_suite", spying_suite)
    assert clean.ok() and clean.clauses_checked > len(suite_clauses) > 0

    def failure(clause, context=None, detail=None):
        return {"algebra": "es", "clause": clause, "context": context, "detail": detail}

    calls = []

    def stub_suite(alg, h, chain=None):
        calls.append((h, chain))
        return {
            "stub_fail": ("fail", "stub detail"),
            "stub_vacuous": ("vacuous", "H = L"),
        }

    report = harness_with("lemma_suite", stub_suite)
    contexts = [
        f"{chain.m}-step chain dim {h.dim}" if chain else f"quasi-ideal dim {h.dim}"
        for h, chain in calls
    ]
    assert contexts and report.failures == [
        failure("stub_fail", context, "stub detail") for context in contexts
    ]
    # the stub's one failing clause replaces each suite's checked clauses
    checked = clean.clauses_checked - len(suite_clauses) + len(calls)
    assert report.clauses_checked == checked

    ideal_dims = [j.dim for j in subalgebras(alg) if is_ideal(alg, j)]
    sites = [
        (
            "in_class_q",
            lambda q, budget=DEFAULT_BUDGET: (False, q),
            [failure("quotient_closure", f"ideal dim {d}") for d in ideal_dims if d],
        ),
        (
            "center",
            lambda alg: zero_subspace(alg.field, alg.dim),
            [failure("squares_ideal_central", "all squares off the ideal nonzero")],
        ),
        ("is_nilpotent", lambda alg: False, [failure("engel_implies_nilpotent")]),
    ]
    for name, replacement, expected in sites:
        report = harness_with(name, replacement)
        assert report.failures == expected
        assert report.clauses_checked == clean.clauses_checked


def test_harness_clause_count_on_family_corpus(family_corpus):
    # pinned from the harness that decided every quotient separately
    report = lemma_harness(family_corpus)
    assert report.ok()
    assert (report.algebras, report.clauses_checked) == (35, 5328)


@functools.lru_cache(maxsize=None)
def _reference_survivors(r2):
    """Every valid GF(2) dim-3 table with third right-multiplication matrix
    r2, by evaluating the nine matrix equations
    sum_k R_m[j][k] R_k = R_j R_m - R_m R_j on all 2**18 pairs (R_0, R_1).
    Returns the set of 27-bit table ids (c[i][j][k] at bit 9i + 3j + k) and
    the number of pairs that satisfy the three equations with m = 2."""
    mats = ((np.arange(512)[:, None] >> np.arange(9)) & 1).astype(np.uint8)
    mats = mats.reshape(512, 3, 3)  # pattern bit 3i + k is entry (i, k)
    pairs = np.arange(1 << 18)
    r2s = np.broadcast_to(mats[r2], (1 << 18, 3, 3))
    r = np.stack([mats[pairs >> 9], mats[pairs & 511], r2s], axis=1)  # R_m
    valid = np.ones(1 << 18, dtype=bool)
    linear = np.ones(1 << 18, dtype=bool)
    for j in range(3):
        for m in range(3):
            lhs = sum(r[:, m, j, k, None, None] * r[:, k] for k in range(3))
            rhs = r[:, j] @ r[:, m] + r[:, m] @ r[:, j]
            holds = ((lhs + rhs) % 2 == 0).all(axis=(1, 2))
            valid &= holds
            if m == 2:
                linear &= holds
    m, i, k = np.indices((3, 3, 3))
    weights = 1 << (9 * i + 3 * m + k)  # R_m[i][k] = c[i][m][k]
    ids = (r[valid].astype(np.int64) * weights).sum(axis=(1, 2, 3))
    return set(ids.tolist()), int(linear.sum())


@pytest.mark.parametrize(
    "r2, linear_solutions",
    [(0, 1 << 18), (13, 0), (4, 1 << 10)]
    + [(r2, None) for r2 in random.Random(0).sample(range(1, 512), 3)],
    ids=["zero", "inconsistent", "kernel_dim_10", "random_0", "random_1", "random_2"],
)
def test_solved_sweep_matches_brute_force(r2, linear_solutions):
    # the Liesation generator's orbits, cut to the tables with this R_2,
    # against the brute-force reference
    expected, solved = _reference_survivors(r2)
    if linear_solutions is not None:
        assert solved == linear_solutions
    found = set()
    for t in _orbit_union(2, 3):
        # R_2[i][k] = c[i][2][k] at pattern bit 3i + k
        bits = itertools.product(range(3), repeat=2)
        if r2 == sum(t[9 * i + 6 + k] << (3 * i + k) for i, k in bits):
            found.add(sum(c << s for s, c in enumerate(t)))
    assert found == expected


def _marked_orbits(p, n):
    """The census's orbits: those that ``_mark_orbits`` closes around the
    Liesation generator's tables."""
    tables = census._liesation_tables(p, n, DEFAULT_BUDGET)
    return census._mark_orbits(tables, p, n, DEFAULT_BUDGET)


def test_solved_sweep_total():
    orbits = _marked_orbits(2, 3)
    assert sum(len(orbit) for orbit in orbits) == len(_orbit_union(2, 3)) == 806


@functools.lru_cache(maxsize=None)
def _orbit_union(p, n):
    """The union of the Liesation generator's orbits, unpacked."""
    members = frozenset().union(*_marked_orbits(p, n))
    return frozenset(map(census._Packing(p, n).unpack, members))


@pytest.mark.parametrize("p, n, valid", [(2, 1, 1), (2, 2, 13), (3, 1, 1), (3, 2, 41)])
def test_liesation_generator_matches_generic_engine(p, n, valid):
    # the same orbits as the tables of the per-matrix solve, moved by the
    # plain base change, and the census keys are their forward minima
    unpack = census._Packing(p, n).unpack
    orbits = [frozenset(map(unpack, orbit)) for orbit in _marked_orbits(p, n)]
    assert sum(len(orbit) for orbit in orbits) == valid
    group = _plain_general_linear(p, n)
    expected = {
        frozenset(_plain_transform(t, g, p, n) for g in group)
        for t in _solved_tables(p, n)
    }
    assert len(orbits) == len(expected) and set(orbits) == expected
    _, _, reps = census._census(PrimeField(p), n, DEFAULT_BUDGET)
    assert sorted(min(orbit) for orbit in orbits) == [key for key, _ in reps]


def test_quotients_by_every_ideal_are_leibniz(family_corpus):
    # quotient() trusts that L/J is Leibniz for an ideal J; check it on every
    # ideal of the GF(2) dim-3 classes and of the finite family instances
    algebras = gf2_dim3_class_representatives() + [alg for _, alg in family_corpus]
    checked = 0
    for alg in algebras:
        for ideal in subalgebras(alg):
            if is_ideal(alg, ideal):
                q = quotient(alg, ideal)
                assert q.dim == alg.dim - ideal.dim
                assert validate(q.table, "right").ok
                checked += 1
    assert checked > len(algebras)


def test_budget_refusal_names_count_and_budget():
    with pytest.raises(BudgetExceeded) as exc:
        sweep_tables(GF2, 5)
    assert str(exc.value) == (
        f"Lie systems of GF(2) dim 5: 1048576 exceeds budget {DEFAULT_BUDGET}"
    )
    # GF(3) dim 3 has 3^6 Lie systems and 15,861 valid tables
    with pytest.raises(BudgetExceeded) as exc:
        sweep_tables(GF3, 3, budget=10_000)
    assert str(exc.value) == (
        "tables in GL(3,3) orbits: at least 10001 exceeds budget 10000"
    )
    # the solutions of the Lie systems are counted as they are found
    with pytest.raises(BudgetExceeded) as exc:
        list(census._lie_tables(2, 4, 1000))
    assert str(exc.value) == (
        "candidate Lie tables of GF(2) dim 4: at least 1001 exceeds budget 1000"
    )
    # at dim 2 the p^3 + 2p^2 - p - 1 valid tables (proved in
    # test_dim2_valid_count_closed_form) are counted before any is built
    with pytest.raises(BudgetExceeded) as exc:
        sweep_tables(PrimeField(31), 2, budget=30_000)
    assert str(exc.value) == "Leibniz tables of GF(31) dim 2: 31681 exceeds budget 30000"
    with pytest.raises(BudgetExceeded, match="169 exceeds budget 168"):
        sweep_tables(PrimeField(5), 2, budget=168)
    assert sweep_tables(PrimeField(5), 2, budget=169).totals["valid"] == 169


@functools.lru_cache(maxsize=None)
def _plain_general_linear(p, n):
    """(P, P^-1) for every invertible n x n matrix over GF(p), by search: P
    is invertible when v P = 0 only for v = 0, and P^-1 is searched among
    the invertible matrices."""
    idx = range(n)
    mats = [
        tuple(flat[i * n : (i + 1) * n] for i in idx)
        for flat in itertools.product(range(p), repeat=n * n)
    ]
    vectors = [v for v in itertools.product(range(p), repeat=n) if any(v)]
    identity = tuple(tuple(int(i == j) for j in idx) for i in idx)

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in idx) % p for j in idx) for i in idx
        )

    units = [
        a
        for a in mats
        if all(any(sum(v[i] * a[i][j] for i in idx) % p for j in idx) for v in vectors)
    ]
    return [(a, b) for a in units for b in units if mul(a, b) == identity]


def _plain_transform(flat, pair, p, n):
    """The table c[i][j][k] = flat[(i*n + j)*n + k] in the basis P: the
    entry (i, j, l) is sum_{a,b,k} P[i][a] P[j][b] c[a][b][k] P^-1[k][l]."""
    mat, inv = pair
    idx = range(n)
    return tuple(
        sum(
            mat[i][a] * mat[j][b] * flat[(a * n + b) * n + k] * inv[k][l]
            for a in idx
            for b in idx
            for k in idx
        )
        % p
        for i in idx
        for j in idx
        for l in idx
    )


def _leibniz_residuals(mats, m, p, n):
    """The entries of sum_k R_m[j][k] R_k - (R_j R_m - R_m R_j) mod p for
    every j, given the right-multiplication matrices R_k = mats[k]; all zero
    exactly when [x, [y, e_m]] = [[x, y], e_m] - [[x, e_m], y] for all x, y.
    They are generated one at a time, so ``any`` stops at the first nonzero
    entry."""
    idx = range(n)
    rm = mats[m]
    return (
        (
            sum(rm[j][k] * mats[k][r][c] for k in idx)
            - sum(mats[j][r][s] * rm[s][c] - rm[r][s] * mats[j][s][c] for s in idx)
        )
        % p
        for j in idx
        for r in idx
        for c in idx
    )


def _solved_tables(p, n):
    """Every Leibniz table over GF(p) of dimension n, flattened with
    [e_i, e_j] at e_k in entry (i*n + j)*n + k, by the per-matrix solve: a
    reference for the census engine that shares no code with it.

    In right-multiplication form, R_m[i][k] = c[i][m][k], the identity is
    sum_k R_m[j][k] R_k = R_j R_m - R_m R_j for all j, m.  With the last
    matrix R_{n-1} fixed, its n equations are affine-linear in the entries
    of R_0 .. R_{n-2}: they are solved by elimination, and only the
    solutions are checked against the equations for the other m.
    """
    tables = []
    for entries in itertools.product(range(p), repeat=n * n):
        fixed = tuple(entries[r * n : r * n + n] for r in range(n))
        tables += _tables_with_last(p, n, fixed, *_last_matrix_solutions(p, n, fixed))
    return tables


def _last_matrices(x, fixed, n):
    """R_0 .. R_{n-2} read from the unknowns x, then R_{n-1} = fixed."""
    size = n * n
    return [
        tuple(tuple(x[k * size + r * n : k * size + r * n + n]) for r in range(n))
        for k in range(n - 1)
    ] + [fixed]


def _last_matrix_solutions(p, n, fixed):
    """The solutions of the m = n-1 equations with R_{n-1} = fixed, in the
    (n-1) n^2 entries of R_0 .. R_{n-2}: a particular solution (None when
    the system is inconsistent) and a basis of the kernel of its linear
    part, whose length is the dimension of the solution space."""
    last = n - 1
    unknowns = last * n * n
    zero = [0] * unknowns
    # the affine map from the unknowns to the residuals: its value at 0 and
    # its columns at the unit vectors
    offset = list(_leibniz_residuals(_last_matrices(zero, fixed, n), last, p, n))
    columns = []
    for u in range(unknowns):
        unit = zero[:u] + [1] + zero[u + 1 :]
        images = _leibniz_residuals(_last_matrices(unit, fixed, n), last, p, n)
        columns.append([(y - y0) % p for y, y0 in zip(images, offset)])
    system = [
        tuple(col[e] for col in columns) + (-offset[e] % p,)
        for e in range(len(offset))
    ]
    reduced, pivots = raw_rref(PrimeField(p), system, unknowns + 1)
    solved = [(row, col) for row, col in zip(reduced, pivots) if col < unknowns]
    kernel = []
    for free in (u for u in range(unknowns) if u not in pivots):
        v = list(zero)
        v[free] = 1
        for row, col in solved:
            v[col] = -row[free] % p
        kernel.append(v)
    if unknowns in pivots:
        return None, kernel
    particular = list(zero)
    for row, col in solved:
        particular[col] = row[unknowns]
    return particular, kernel


def _tables_with_last(p, n, fixed, particular, kernel):
    """Every Leibniz table with R_{n-1} = fixed, from the solutions of its
    equations: each is checked against the equations for the other m."""
    if particular is None:
        return []
    idx = range(n)
    tables = []
    for coeffs in itertools.product(range(p), repeat=len(kernel)):
        x = list(particular)
        for c, v in zip(coeffs, kernel):
            if c:
                x = [(a + c * b) % p for a, b in zip(x, v)]
        mats = _last_matrices(x, fixed, n)
        if any(any(_leibniz_residuals(mats, m, p, n)) for m in range(n - 1)):
            continue
        tables.append(tuple(mats[j][i][k] for i in idx for j in idx for k in idx))
    return tables


def test_gf3_dim3_per_matrix_solve_sample(gf3_dim3_census):
    """The per-matrix solve against the engine at GF(3) dim 3, on twelve
    seeded values of the last matrix R_2 whose solution space has dimension
    at most 7 (an inconsistent system, with no solutions, qualifies; 19,650
    of the 3^9 values do).  The engine's tables are the base-change orbits
    of the 27 class keys."""
    pack = census._Packing(3, 3)
    orbits = [
        set(map(pack.unpack, census._orbit(pack.pack(e.key), 3, 3, DEFAULT_BUDGET)))
        for e in gf3_dim3_census.classes
    ]
    assert len(orbits) == 27 and sum(len(orbit) for orbit in orbits) == 15_861
    by_last = {}
    for t in set().union(*orbits):
        # R_2[i][k] = c[i][2][k]
        r2 = tuple(tuple(t[(i * 3 + 2) * 3 + k] for k in range(3)) for i in range(3))
        by_last.setdefault(r2, set()).add(t)
    rng = random.Random(0)
    checked, found = set(), 0
    while len(checked) < 12:
        entries = [rng.randrange(3) for _ in range(9)]
        fixed = tuple(tuple(entries[r * 3 : r * 3 + 3]) for r in range(3))
        particular, kernel = _last_matrix_solutions(3, 3, fixed)
        if fixed in checked or (particular is not None and len(kernel) > 7):
            continue
        checked.add(fixed)
        tables = _tables_with_last(3, 3, fixed, particular, kernel)
        assert len(tables) == len(set(tables))
        assert set(tables) == by_last.get(fixed, set()), fixed
        found += len(tables)
    assert found


def _filtered_lie_tables(p, n):
    """The Lie tables over GF(p) of dimension n by filtering: every
    alternating table that passes the right identity on the triples
    i < j < k, which on an alternating table is the Jacobi identity: the
    reference for the census's solved Lie step."""
    field = PrimeField(p)
    pairs = [
        ((i * n + j) * n + k, (j * n + i) * n + k)
        for i, j in itertools.combinations(range(n), 2)
        for k in range(n)
    ]
    jacobi = list(itertools.combinations(range(n), 3))
    for values in itertools.product(range(p), repeat=len(pairs)):
        flat = [0] * n**3
        for (s, t), c in zip(pairs, values):
            flat[s], flat[t] = c, -c % p
        if raw_leibniz_failure(field, census._cube(flat, n), jacobi) is None:
            yield tuple(flat)


def _filtered_liesation_tables(p, n):
    """The Liesation candidates by filtering: the Lie tables, then for each
    d = dim I >= 1 and each Lie table g of dimension m = n - d that is the
    minimum of its GL(m, p) orbit (under the plain base change), every
    action rho and every map omega, kept when the table passes the right
    identity on every triple."""
    yield from _filtered_lie_tables(p, n)
    field = PrimeField(p)
    triples = list(itertools.product(range(n), repeat=3))
    at = lambda i, j, k: (i * n + j) * n + k
    for d in range(1, n):
        m = n - d
        omega = [at(a, b, m + r) for a in range(m) for b in range(m) for r in range(d)]
        rho = [
            at(m + r, a, m + q) for a in range(m) for r in range(d) for q in range(d)
        ]
        group = _plain_general_linear(p, m)
        minima = {
            min(_plain_transform(t, g, p, m) for g in group)
            for t in _filtered_lie_tables(p, m)
        }
        for lie in sorted(minima):
            flat = [0] * n**3
            for (a, b, k), c in zip(itertools.product(range(m), repeat=3), lie):
                flat[at(a, b, k)] = c
            for values in itertools.product(range(p), repeat=len(rho) + len(omega)):
                for s, c in zip(rho + omega, values):
                    flat[s] = c
                if raw_leibniz_failure(field, census._cube(flat, n), triples) is None:
                    yield tuple(flat)


@pytest.mark.parametrize(
    "p, n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (5, 2)]
)
def test_solved_generator_matches_the_filter(p, n):
    # the solved Lie step and the solved omega give the same tables, each as
    # often, as filtering every candidate
    unpack = census._Packing(p, n).unpack
    solved = sorted(map(unpack, census._liesation_tables(p, n, DEFAULT_BUDGET)))
    assert solved == sorted(_filtered_liesation_tables(p, n))


def _census_templates(monkeypatch):
    """The templates that the census generator expands, as {(n, d): (entry,
    triples)} with d = 0 for the Lie step, recorded from
    ``_liesation_tables`` at every n <= 4 with the solves left out."""
    templates = {}
    real = census._identity_equations

    def record(n, entry, triples):
        d = sys._getframe(1).f_locals.get("d", 0)
        templates[n, d] = entry, triples
        return real(n, entry, triples)

    monkeypatch.setattr(census, "_identity_equations", record)
    monkeypatch.setattr(census, "_template_tables", lambda *args: iter(()))
    for n in range(1, 5):
        assert list(census._liesation_tables(2, n, DEFAULT_BUDGET)) == []
    monkeypatch.undo()
    return templates


def test_identity_equations_are_the_right_identity(monkeypatch):
    # every entry of each census template gets a random value; the rows that
    # _template_tables fills in from the expansion, dotted with (unknowns,
    # -1), are the right identity's failure computed from the full cube
    templates = _census_templates(monkeypatch)
    lie = {(n, 0) for n in range(1, 5)}
    assert set(templates) == lie | {(n, d) for n in range(2, 5) for d in range(1, n)}
    rng = random.Random(7)
    checked = 0
    for (n, d), (entry, triples) in sorted(templates.items()):
        idx = range(n)
        entries = {key: entry(*key) for key in itertools.product(idx, repeat=3)}
        sizes = [0, 0]
        for sign, index, free in entries.values():
            if sign:
                sizes[free] = max(sizes[free], index + 1)
        equations = census._identity_equations(n, entry, triples)
        assert len(equations) == len(triples) * n
        for p in (2, 3, 5):
            given = tuple(rng.randrange(p) for _ in range(sizes[False]))
            unknowns = [rng.randrange(p) for _ in range(sizes[True])]
            c = {
                key: sign * (unknowns if free else given)[index] if sign else 0
                for key, (sign, index, free) in entries.items()
            }
            failures = [
                sum(c[j, k, b] * c[i, b, l] for b in idx)
                - sum(c[i, j, a] * c[a, k, l] - c[i, k, a] * c[a, j, l] for a in idx)
                for i, j, k in triples
                for l in idx
            ]
            rows = []

            def solve(field, filled, size):
                rows.extend(filled)
                return None

            monkeypatch.setattr(census, "raw_solve", solve)
            pack = census._Packing(p, n)
            free = [0] * sizes[True]
            tables = census._template_tables(pack, equations, 0, given, (), free)
            assert list(tables) == []
            monkeypatch.undo()
            assert len(rows) == len(failures)
            for row, failure in zip(rows, failures):
                dot = sum(map(operator.mul, row, unknowns + [-1]))
                assert (dot - failure) % p == 0, ((n, d), p)
            checked += len(rows)
    assert checked
    # a template with a product of two unknowns is not linear
    every = lambda a, b, k: (1, (a * 2 + b) * 2 + k, True)
    with pytest.raises(VerificationFailed, match="nonlinear template"):
        census._identity_equations(2, every, [(0, 1, 1)])


def test_gf5_dim3_generator_output_is_pinned():
    # the 48,200 tables that the generator yields at GF(5) dim 3, sorted and
    # unpacked, one byte per entry
    unpack = census._Packing(5, 3).unpack
    tables = sorted(map(unpack, census._liesation_tables(5, 3, DEFAULT_BUDGET)))
    assert len(tables) == 48_200
    digest = hashlib.sha256(bytes(itertools.chain.from_iterable(tables))).hexdigest()
    assert digest == "68f55111cde2ee8c676860015199bfbef580c094cc7b3596b92cba7b9503c0b9"


def _is_alternating(flat, n, p):
    return all(
        flat[(i * n + i) * n + k] == 0
        and (flat[(i * n + j) * n + k] + flat[(j * n + i) * n + k]) % p == 0
        for i in range(n)
        for j in range(n)
        for k in range(n)
    )


def test_gf2_dim4_lie_step_matches_per_matrix_solve():
    """The solved Lie step at GF(2) dim 4, where the filter would check 2^24
    alternating tables, against the per-matrix solve on eight seeded values
    of the last matrix R_3, the brackets [e_i, e_3], with last row 0 (so
    [e_3, e_3] = 0) and a solution space of dimension at most 12 (an
    inconsistent system, with no solutions, qualifies).  The Lie tables
    with that R_3 are its alternating solutions."""
    unpack = census._Packing(2, 4).unpack
    by_last = {}
    for packed in census._lie_tables(2, 4, DEFAULT_BUDGET):
        t = unpack(packed)
        # R_3[i][k] = c[i][3][k]
        r3 = tuple(tuple(t[(i * 4 + 3) * 4 + k] for k in range(4)) for i in range(4))
        by_last.setdefault(r3, set()).add(t)
    assert sum(map(len, by_last.values())) == 34_336
    rng = random.Random(0)
    checked, found = set(), 0
    while len(checked) < 8:
        entries = [rng.randrange(2) for _ in range(12)] + [0] * 4
        fixed = tuple(tuple(entries[r * 4 : r * 4 + 4]) for r in range(4))
        particular, kernel = _last_matrix_solutions(2, 4, fixed)
        if fixed in checked or (particular is not None and len(kernel) > 12):
            continue
        checked.add(fixed)
        tables = _tables_with_last(2, 4, fixed, particular, kernel)
        lie = {t for t in tables if _is_alternating(t, 4, 2)}
        assert lie == by_last.get(fixed, set()), fixed
        found += len(lie)
    assert found


def _automorphism_count(flat, p, n):
    """|Aut| of the algebra of a flat table over GF(p), by backtracking over
    the images v_0, v_1, ... of the basis, in plain integers mod p.  Each
    v_t lies outside the span of the ones before it, and the bracket
    [v_i, v_j] = sum_k c_ijk v_k is checked as soon as v_i, v_j and every
    v_k with c_ijk != 0 are chosen.  Vectors are numbered, with their sums,
    multiples and brackets tabulated once."""
    vectors = list(itertools.product(range(p), repeat=n))
    number = {v: i for i, v in enumerate(vectors)}
    idx = range(n)
    c = [[flat[(a * n + b) * n : (a * n + b + 1) * n] for b in idx] for a in idx]
    add = [
        [number[tuple((x + y) % p for x, y in zip(u, v))] for v in vectors]
        for u in vectors
    ]
    scale = [[number[tuple(s * x % p for x in u)] for u in vectors] for s in range(p)]
    bracket = [
        [
            number[
                tuple(
                    sum(u[a] * v[b] * c[a][b][k] for a in idx for b in idx) % p
                    for k in idx
                )
            ]
            for v in vectors
        ]
        for u in vectors
    ]
    checks = [[] for _ in idx]
    for i in idx:
        for j in idx:
            terms = [(k, c[i][j][k]) for k in idx if c[i][j][k]]
            checks[max([i, j] + [k for k, _ in terms])].append((i, j, terms))

    def count(images, span):
        t = len(images)
        if t == n:
            return 1
        total = 0
        for v in range(1, len(vectors)):
            if v in span:
                continue
            images.append(v)
            for i, j, terms in checks[t]:
                rhs = 0
                for k, x in terms:
                    rhs = add[rhs][scale[x][images[k]]]
                if bracket[images[i]][images[j]] != rhs:
                    break
            else:
                wider = {add[s][scale[x][v]] for s in span for x in range(p)}
                total += count(images, wider)
            images.pop()
        return total

    return count([], {0})


def test_automorphism_count_matches_brute_force():
    # the backtracking count against every element of GL(n, p)
    for field, dim in ((GF2, 2), (GF3, 2), (GF2, 3)):
        p = field.p
        group = _plain_general_linear(p, dim)
        for entry in sweep_tables(field, dim).classes:
            key = entry.key
            fixed = sum(_plain_transform(key, g, p, dim) == key for g in group)
            assert _automorphism_count(key, p, dim) == fixed, key


@pytest.mark.parametrize("p, dim", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_orbit_stabiliser_sums_to_valid(request, p, dim):
    # each class is one orbit of |GL(n, p)| / |Aut| tables, so the valid
    # tables number the sum of those over the classes, with |Aut| counted
    # by backtracking, independently of the census
    if (p, dim) in ((2, 4), (3, 3)):
        report = request.getfixturevalue(f"gf{p}_dim{dim}_census")
    else:
        report = sweep_tables(PrimeField(p), dim)
    order = math.prod(p**dim - p**i for i in range(dim))
    orbits = [order // _automorphism_count(e.key, p, dim) for e in report.classes]
    assert sum(orbits) == report.totals["valid"]


def test_gf2_dim4_census(gf2_dim4_census):
    # 5 of the 128 classes are in the class; the one outside the catalogue
    # is I + Fh with dim I = 3
    report = gf2_dim4_census
    assert report.totals == {"scanned": 2**64, "valid": 361_096, "classes": 128}
    assert all(entry.oracle_mismatches == 0 for entry in report.classes)
    assert report.lemma_failures == []
    members = [entry.classification for entry in report.classes if entry.in_q]
    assert sorted(c.verdict for c in members) == sorted(
        [ABELIAN, ALMOST_ABELIAN_LIE, OUTSIDE_CATALOGUE] + [EXTRASPECIAL_SUM] * 2
    )
    outside = [c.facts for c in members if c.verdict == OUTSIDE_CATALOGUE]
    assert [(f["shape"], f["dim_i"]) for f in outside] == [(NON_LIE_ALMOST_ABELIAN, 3)]
    # the bytes that `census --field gf2 --dim 4 --lemmas` writes
    digest = hashlib.sha256(report.to_bytes() + b"\n").hexdigest()
    assert digest == "29d0470887b6d5f10ac627fa85d85345536fd101a47ebfa4362d84143bd54fd9"


def test_gf2_dim4_lie_classes(gf2_dim4_census):
    # 23 Lie classes, 3 of them nilpotent (abelian, Heisenberg + F and the
    # filiform algebra) and 21 solvable; their orbits, sized by the
    # backtracking |Aut|, hold exactly the 34,336 tables of the Lie step
    lie = [entry for entry in gf2_dim4_census.classes if entry.invariants.is_lie]
    assert len(lie) == 23
    facts = [entry.classification.facts for entry in lie]
    assert sum(f["is_nilpotent"] for f in facts) == 3
    assert sum(f["is_solvable"] for f in facts) == 21
    assert sum(20_160 // _automorphism_count(entry.key, 2, 4) for entry in lie) == 34_336


@pytest.mark.parametrize("p, n, valid", [(2, 1, 1), (2, 2, 13), (3, 1, 1), (3, 2, 41)])
def test_generic_engine_matches_brute_force(p, n, valid):
    field = PrimeField(p)
    idx = range(n)
    expected = set()
    for flat in itertools.product(range(p), repeat=n**3):
        it = iter(flat)
        cube = [[[next(it) for _ in idx] for _ in idx] for _ in idx]
        if validate(MultiplicationTable(field, n, cube), "right").ok:
            expected.add(flat)
    assert len(expected) == valid
    solved = _solved_tables(p, n)
    assert len(solved) == len(set(solved)) and set(solved) == expected

    scanned, count, reps = census._census(field, n, DEFAULT_BUDGET)
    assert (scanned, count) == (p ** (n**3), valid)
    group = _plain_general_linear(p, n)
    minima = {min(_plain_transform(t, g, p, n) for g in group) for t in expected}
    keys = [key for key, _ in reps]
    assert keys == sorted(minima)
    for key, alg in reps:
        assert tuple(x for row in alg.table.raw for v in row for x in v) == key
    # orbit-stabiliser: |GL| / |Aut| tables in each class
    automorphisms = [
        sum(_plain_transform(key, g, p, n) == key for g in group) for key in keys
    ]
    assert sum(len(group) // a for a in automorphisms) == valid


# Breaks the Liesation engine in two ways and expects each to fail the run.
# Pairing the generator T = I + E_01 with I instead of its inverse closes the
# GF(2) dim-2 tables under maps that are not base changes; one orbit grows to
# 12 tables, which does not divide |GL(2,2)| = 6.  A class whose table is
# not Leibniz fails the full right identity when its representative is
# built.
_BROKEN_ENGINE = """
from quasileib import census
from quasileib.errors import VerificationFailed
from quasileib.fields import GF2

real_generators = census._generators


def wrong_inverse(p, n):
    gens = real_generators(p, n)
    if n > 1:
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        gens[0] = (gens[0][0], identity)
    return gens


census._generators = wrong_inverse
try:
    census.sweep_tables(GF2, 2)
    raise SystemExit("an orbit under a wrong inverse was accepted")
except VerificationFailed as exc:
    assert "|GL| = 6" in str(exc), exc
census._generators = real_generators

# [e_0, e_0] = e_0 is not Leibniz
census._liesation_tables = lambda p, n, budget: [
    census._Packing(p, n).pack((1,) + (0,) * (n**3 - 1))
]
try:
    census.sweep_tables(GF2, 3)
    raise SystemExit("a representative that is not Leibniz was accepted")
except VerificationFailed as exc:
    assert "not Leibniz" in str(exc), exc
print("both caught")
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_liesation_self_checks_fire(flags):
    # the checks raise VerificationFailed instead of asserting, so python -O
    # keeps them (the script's own asserts only refine the message check)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    result = subprocess.run(
        [sys.executable, *flags, "-c", _BROKEN_ENGINE],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "both caught"


@pytest.mark.parametrize("p, n", [(2, 3), (3, 2), (257, 1)])
def test_base_changes_match_plain_transform(p, n):
    # the closure under the generators, on packed transports, gives the
    # plain transform's images under every element of GL(n, p); tables that
    # are not Leibniz are moved as well, and over GF(257) an entry takes two
    # bytes of its lane
    group = _plain_general_linear(p, n)
    rng = random.Random(13)
    tables = [(0,) * n**3, (p - 1,) * n**3] + [
        tuple(rng.randrange(p) for _ in range(n**3)) for _ in range(4)
    ]
    pack = census._Packing(p, n)
    for t in tables:
        orbit = census._orbit(pack.pack(t), p, n, DEFAULT_BUDGET)
        assert set(map(pack.unpack, orbit)) == {
            _plain_transform(t, g, p, n) for g in group
        }


def _orbit_over_half_the_group(real, table, *args):
    # misses tables of a class, which then start orbits that overlap it
    orbit = sorted(real(table, *args))
    return frozenset(orbit[: len(orbit) // 2]) | {table}


def _orbit_with_a_stranger(real, table, p, n, *args):
    # the all-ones table is not Leibniz over GF(3): [e_0, e_0 + e_1] = 2s
    # while [[e_0, y], z] - [[e_0, z], y] = 0, with s = e_0 + e_1
    return real(table, p, n, *args) | {census._Packing(p, n).pack((1,) * n**3)}


@pytest.mark.parametrize("broken", [_orbit_over_half_the_group, _orbit_with_a_stranger])
def test_orbit_check_catches_a_broken_orbit(monkeypatch, broken):
    # orbits that overlap, or whose size does not divide |GL(2,3)|, fail
    # the run with a raise, which python -O keeps
    real = census._orbit
    monkeypatch.setattr(census, "_orbit", lambda *args: broken(real, *args))
    with pytest.raises(VerificationFailed):
        census._census(GF3, 2, DEFAULT_BUDGET)


@pytest.mark.parametrize(
    "p, n, order",
    [(2, 2, 6), (2, 3, 168), (3, 2, 48), (3, 3, 11_232), (2, 4, 20_160), (5, 2, 480)],
)
def test_generators_close_to_the_general_linear_group(p, n, order):
    # each generator is paired with its inverse, and closing the identity
    # matrix under right multiplication by the generators reaches all
    # prod (p^n - p^i) invertible matrices
    idx = range(n)
    identity = tuple(tuple(int(i == j) for j in idx) for i in idx)

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in idx) % p for j in idx) for i in idx
        )

    gens = census._generators(p, n)
    assert all(mul(mat, inv) == identity for mat, inv in gens)
    assert order == math.prod(p**n - p**i for i in idx)
    group, frontier = {identity}, [identity]
    while frontier:
        fresh = {mul(a, mat) for a in frontier for mat, _ in gens} - group
        group |= fresh
        frontier = list(fresh)
    assert len(group) == order


def test_census_budget_counts_the_valid_tables():
    # GF(2) dim 3 has 2^6 = 64 Lie systems, within the budget, and 806
    # valid tables, over it: the closure refuses the 801st
    with pytest.raises(BudgetExceeded) as exc:
        sweep_tables(GF2, 3, budget=800)
    assert "at least 801 exceeds budget 800" in str(exc.value)


def _least_root_by_order(p):
    """The least g whose powers g, g^2, ... first reach 1 at g^(p - 1)."""
    for g in range(1, p):
        x, order = g, 1
        while x != 1:
            x, order = x * g % p, order + 1
        if order == p - 1:
            return g


def test_primitive_root_matches_the_order_by_brute_force():
    primes = [p for p in range(2, 3000) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    assert len(primes) == 430
    for p in primes:
        assert census._primitive_root(p) == _least_root_by_order(p), p
    # 2^61 - 1 - 1 = 2 * 3^2 * 5^2 * 7 * 11 * 13 * 31 * 41 * 61 * 151 * 331 *
    # 1321: the trial divisors stop once the cofactor is prime
    start = time.perf_counter()
    assert census._primitive_root(2**61 - 1) == 37
    assert time.perf_counter() - start < 1


def test_dim1_census_of_a_large_field():
    # at dim 1 only the zero table is Leibniz, and no step enumerates the
    # field's elements
    report = sweep_tables(PrimeField(999983), 1)
    assert report.totals == {"scanned": 999983, "valid": 1, "classes": 1}


def _plain_inverse(mat, p):
    """The inverse of a square matrix over GF(p) by Gauss-Jordan elimination
    on [mat | I], or None when it is singular."""
    n = len(mat)
    work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if work[r][col] % p), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        scale = pow(work[col][col], -1, p)
        work[col] = [x * scale % p for x in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [(x - f * y) % p for x, y in zip(work[r], work[col])]
    return tuple(tuple(row[n:]) for row in work)


def test_keys_invariant_under_random_base_changes(gf3_dim3_census):
    # every GF(3) dim-3 class representative, written in three seeded random
    # bases, keeps its canonical key and stays isomorphic to itself
    rng = random.Random(7)
    checked = 0
    for entry in gf3_dim3_census.classes:
        key = canonical_table_key(entry.algebra)
        assert key == entry.key
        for _ in range(3):
            inverse = None
            while inverse is None:
                mat = tuple(tuple(rng.randrange(3) for _ in range(3)) for _ in range(3))
                inverse = _plain_inverse(mat, 3)
            moved = _plain_transform(key, (mat, inverse), 3, 3)
            alg = census._canonical_rep(GF3, 3, moved)
            assert canonical_table_key(alg) == key
            assert are_isomorphic(alg, entry.algebra)
            checked += 1
    assert checked == 81
