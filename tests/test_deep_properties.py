"""Cross-cutting properties that tie the modules together: infinite-field
behavior of the exact decision procedure, oracle agreement over everything
the census visits, witness replays, and quotient mechanics."""

import random

from quasileib.algebra import (
    bracket_subspaces,
    is_ideal,
    quotient,
    squares_ideal,
    subalgebra_closure,
    subalgebras,
)
from quasileib.census import sweep_tables
from quasileib.families import (
    almost_abelian_lie,
    char2_nonperfect_minimal,
    default_anisotropic_gram,
    extraspecial_sum,
    two_dim_solvable_cyclic,
)
from quasileib.fields import GF2, GF3, QQ, FunctionField
from quasileib.linalg import echelonize, enumerate_subspaces, vec
from quasileib.quasi import core, is_quasi_ideal, is_quasi_ideal_oracle
from tests.conftest import check_schema, transport

F2T = FunctionField(2)


def random_rational_vec(rng, n):
    return vec(QQ, [rng.randrange(-6, 7) for _ in range(n)])


def test_every_subalgebra_of_almost_abelian_is_quasi_over_q():
    rng = random.Random(101)
    alg = almost_abelian_lie(QQ, 4)
    for _ in range(80):
        gens = [random_rational_vec(rng, 4) for _ in range(rng.randrange(1, 3))]
        s = subalgebra_closure(alg, echelonize(QQ, 4, gens))
        assert is_quasi_ideal(alg, s).holds, s


def test_extraspecial_subalgebras_quasi_over_q():
    rng = random.Random(103)
    alg = extraspecial_sum(QQ, default_anisotropic_gram(QQ, 2), dim_z=1)
    for _ in range(80):
        gens = [random_rational_vec(rng, 4) for _ in range(rng.randrange(1, 3))]
        s = subalgebra_closure(alg, echelonize(QQ, 4, gens))
        assert is_quasi_ideal(alg, s).holds, s


def test_char2_example_two_dim_subalgebras_contain_the_centre():
    # a 2-dimensional subalgebra avoiding the centre would need a square
    # inside itself, but squares are nonzero multiples of z
    rng = random.Random(107)
    alg = char2_nonperfect_minimal(F2T)
    z_line = echelonize(F2T, 3, [vec(F2T, (0, 1, 0))])
    tried = 0
    while tried < 40:
        gens = []
        for _ in range(2):
            coeffs = [
                F2T.from_polys([rng.randrange(2) for _ in range(3)])
                for _ in range(3)
            ]
            gens.append(tuple(coeffs))
        plane = echelonize(F2T, 3, gens)
        if plane.dim != 2 or plane.contains(z_line):
            continue
        tried += 1
        closed = bracket_subspaces(alg, plane, plane)
        assert not plane.contains(closed)  # never a subalgebra


def test_core_over_the_rationals():
    solv = two_dim_solvable_cyclic(QQ)
    line = echelonize(QQ, 2, [vec(QQ, (1, -1))])
    assert core(solv, line).is_zero()
    fa = echelonize(QQ, 2, [vec(QQ, (0, 1))])
    assert core(solv, fa) == fa
    ex = char2_nonperfect_minimal(F2T)
    fzh = echelonize(F2T, 3, [vec(F2T, (0, 1, 0)), vec(F2T, (0, 0, 1))])
    assert core(ex, fzh) == echelonize(F2T, 3, [vec(F2T, (0, 1, 0))])


def test_oracle_agreement_on_all_subspaces_of_all_dim3_classes():
    # the load-bearing equivalence, on every subspace (not only the
    # subalgebras) of every isomorphism class the dimension-3 census finds
    report = sweep_tables(GF2, 3)
    assert report.totals["classes"] == 20
    for entry in report.classes:
        alg = entry.algebra
        for s in enumerate_subspaces(GF2, 3):
            assert is_quasi_ideal(alg, s).holds == is_quasi_ideal_oracle(alg, s)


def test_negative_witnesses_replay_on_dim3_classes():
    report = sweep_tables(GF2, 3)
    seen = 0
    for entry in report.classes:
        alg = entry.algebra
        for s in subalgebras(alg):
            verdict = is_quasi_ideal(alg, s)
            if verdict.holds:
                continue
            seen += 1
            h, x, value = verdict.witness
            assert s.contains_vector(h)
            probe = s.sum(echelonize(GF2, 3, [x]))
            assert not probe.contains_vector(value)
    assert seen > 0


def test_quotient_projection_kernel_is_modulus():
    alg = extraspecial_sum(GF3, default_anisotropic_gram(GF3, 2), dim_z=1)
    ideal = squares_ideal(alg)
    q = quotient(alg, ideal)
    zero = tuple(q.field.zero for _ in range(q.dim))
    comp = ideal.non_pivots()
    for x in enumerate_subspaces(GF3, alg.dim, dims=1):
        rep = x.rows[0]
        projected = tuple(ideal.reduce(rep)[c] for c in comp)
        assert (projected == zero) == ideal.contains_vector(rep)


def test_quotients_by_series_terms_are_leibniz(family_corpus):
    from quasileib.algebra import series, validate

    for _, alg in family_corpus[:14]:
        for term in series(alg, kind="derived"):
            if is_ideal(alg, term):
                assert validate(quotient(alg, term).table, "right").ok


def test_census_report_matches_schema():
    report = sweep_tables(GF2, 3)
    check_schema(report.to_json(), "census_report.schema.json")


def test_char2_matcher_is_basis_independent():
    from quasileib.census import CHAR2_FAMILY, classify_q_member

    t = F2T.t
    alg = char2_nonperfect_minimal(F2T)
    scrambles = [
        ((1, 1, 0), (0, 1, 0), (1, 0, 1)),
        ((1, 0, 1), (1, 1, 1), (0, 1, 1)),
    ]
    # and one with genuine function-field entries
    fancy = (
        (t, F2T.one, F2T.zero),
        (F2T.zero, F2T.one, F2T.zero),
        (F2T.one, F2T.zero, F2T.one),
    )
    for rows in scrambles:
        p = tuple(vec(F2T, r) for r in rows)
        moved = transport(alg, p)
        res = classify_q_member(moved)
        assert res.verdict == CHAR2_FAMILY and res.params == {"dim_c": 1}
    moved = transport(alg, fancy)
    res = classify_q_member(moved)
    assert res.verdict == CHAR2_FAMILY and res.params == {"dim_c": 1}


def test_extraspecial_matcher_is_basis_independent():
    from quasileib.census import EXTRASPECIAL_SUM, classify_q_member

    alg = extraspecial_sum(GF3, default_anisotropic_gram(GF3, 2), dim_z=1)
    rng = random.Random(401)
    found = 0
    while found < 5:
        rows = tuple(
            vec(GF3, [rng.randrange(3) for _ in range(4)]) for _ in range(4)
        )
        if echelonize(GF3, 4, rows).dim != 4:
            continue
        found += 1
        res = classify_q_member(transport(alg, rows))
        assert res.verdict == EXTRASPECIAL_SUM
        assert res.params == {"dim_e": 3, "dim_z": 1}


def test_dim2_canonical_dedup_agrees_with_pairwise_isomorphism():
    # independent route: group all 13 valid dimension-2 tables over GF(2)
    # by exhaustive pairwise isomorphism and compare with the sweep count
    import itertools

    from quasileib.algebra import LeibnizAlgebra, MultiplicationTable, validate
    from quasileib.census import are_isomorphic

    valid = []
    for flat in itertools.product(range(2), repeat=8):
        it = iter(flat)
        cube = tuple(
            tuple(tuple(next(it) for _ in range(2)) for _ in range(2))
            for _ in range(2)
        )
        table = MultiplicationTable(GF2, 2, cube)
        if validate(table, "right").ok:
            valid.append(LeibnizAlgebra(table, _checked=True))
    assert len(valid) == 13
    groups = []
    for alg in valid:
        for group in groups:
            if are_isomorphic(group[0], alg):
                group.append(alg)
                break
        else:
            groups.append([alg])
    report = sweep_tables(GF2, 2)
    assert len(groups) == report.totals["classes"] == 4
    # GL(2,2) orbit sizes: the zero table is fixed, the two classes with an
    # order-2 stabilizer have 3 tables each, the solvable one all 6
    assert sorted(len(g) for g in groups) == [1, 3, 3, 6]


def test_bit_canonicalization_agrees_with_isomorphism_search():
    # random valid dimension-3 tables from the brute-force reference must be
    # isomorphic to the census class whose 27-bit id (c[i][j][k] at bit
    # 9i + 3j + k) is the minimum over their orbit
    from quasileib.algebra import LeibnizAlgebra, MultiplicationTable
    from quasileib.census import are_isomorphic
    from tests.test_census import (
        _plain_general_linear,
        _plain_transform,
        _reference_survivors,
    )

    # R_2 = 0 and the R_2 of pattern 4 (entry (0, 2)), two of the cases
    # that the census brute-force tests already run
    ids = _reference_survivors(0)[0] | _reference_survivors(4)[0]
    picks = random.Random(211).sample(sorted(ids), 25)
    report = sweep_tables(GF2, 3)
    classes = {
        sum(c << s for s, c in enumerate(entry.key)): entry.algebra
        for entry in report.classes
    }
    group = _plain_general_linear(2, 3)
    for raw in picks:
        flat = tuple((raw >> s) & 1 for s in range(27))
        can = min(
            sum(c << s for s, c in enumerate(_plain_transform(flat, g, 2, 3)))
            for g in group
        )
        assert can <= raw and can in classes
        entries = iter(flat)
        cube = [[[next(entries) for _ in range(3)] for _ in range(3)] for _ in range(3)]
        alg = LeibnizAlgebra(MultiplicationTable(GF2, 3, cube))
        assert are_isomorphic(alg, classes[can])
