import itertools
import json
import random

import pytest

from quasileib import algebra, fracfields, linalg
from quasileib.algebra import (
    LeibnizAlgebra,
    MultiplicationTable,
    adjoint,
    bracket_subspaces,
    build_table,
    center,
    is_abelian,
    is_ideal,
    is_lie,
    is_nilpotent,
    is_solvable,
    is_subalgebra,
    is_symmetric,
    quotient,
    series,
    squares_ideal,
    subalgebra_closure,
    subalgebras,
    table_from_json,
    validate,
)
from quasileib.census import classify_q_member
from quasileib.errors import (
    BudgetExceeded,
    DimensionMismatch,
    MalformedInput,
    MixedFields,
    NotAnIdeal,
    NotASubalgebra,
    NotLeibniz,
)
from quasileib.families import (
    abelian,
    almost_abelian_lie,
    k2,
    non_lie_almost_abelian,
    two_dim_solvable_cyclic,
)
from quasileib.fields import GF2, GF3, QQ, FunctionField, PrimeField
from quasileib.linalg import (
    DEFAULT_BUDGET,
    echelonize,
    full_subspace,
    raw_echelonize,
    unit_vec,
    vec,
    zero_subspace,
)
from tests.conftest import dense_basis, transport

F2T = FunctionField(2)


def reference_bracket(table, u, v):
    """Independent bilinear expansion used as the test oracle."""
    n, cube = table.dim, table.cube
    out = [table.field.zero] * n
    for i in range(n):
        for j in range(n):
            c = u[i] * v[j]
            for k in range(n):
                out[k] = out[k] + c * cube[i][j][k]
    return tuple(out)


def reference_failure(table, mode):
    """Independent first failure of the check ``validate`` makes, or None.

    ``lie`` first looks for the first i with [e_i, e_i] != 0, returned as
    ((i, i), [e_i, e_i], None), then for the first i < j with
    [e_i, e_j] + [e_j, e_i] != 0, returned as ((i, j), [e_i, e_j],
    [e_j, e_i]).  Every mode then returns (triple, lhs, rhs) at the first
    basis triple, in lexicographic order, that fails the right identity
    (the left one for ``left``)."""
    n, field = table.dim, table.field
    unit = lambda i: unit_vec(field, n, i)
    br = lambda u, v: reference_bracket(table, u, v)
    if mode == "lie":
        for i in range(n):
            if any(br(unit(i), unit(i))):
                return (i, i), br(unit(i), unit(i)), None
        for i, j in itertools.combinations(range(n), 2):
            ij, ji = br(unit(i), unit(j)), br(unit(j), unit(i))
            if any(a + b for a, b in zip(ij, ji)):
                return (i, j), ij, ji
    for i, j, m in itertools.product(range(n), repeat=3):
        x, y, z = unit(i), unit(j), unit(m)
        lhs = br(x, br(y, z))
        if mode == "left":
            rhs = tuple(a + b for a, b in zip(br(br(x, y), z), br(y, br(x, z))))
        else:
            rhs = tuple(a - b for a, b in zip(br(br(x, y), z), br(br(x, z), y)))
        if lhs != rhs:
            return (i, j, m), lhs, rhs
    return None


def reference_right_identity(table):
    """Independent full check of the right identity on basis triples."""
    return reference_failure(table, "right") is None


def validate_matches_reference(table, mode):
    """Assert that ``validate`` reports the reference's first failure, with
    its witness and both sides; return the first failure."""
    result = validate(table, mode)
    expected = reference_failure(table, mode)
    assert result.ok == (expected is None)
    if expected is not None:
        assert (result.witness, result.lhs, result.rhs) == expected
    return expected


def example_char2_table():
    # basis c, z, h with [c,c] = t z, [h,h] = z, [c,h] = [h,c] = c
    t = F2T.t
    return build_table(
        F2T,
        ("c", "z", "h"),
        {(0, 0): {1: t}, (2, 2): {1: 1}, (0, 2): {0: 1}, (2, 0): {0: 1}},
    )


def test_k2_is_lie_over_gf2():
    assert validate(k2(GF2).table, "lie").ok


def test_is_lie_matches_lie_validation(family_corpus, nine_families):
    # alternation decides Lie-ness for a Leibniz algebra; the full "lie"
    # validation is the reference, on the census classes, the families and
    # seeded random valid tables of the GF(2) dim-3 and GF(3) dim-2 censuses
    from quasileib import census
    from tests.conftest import gf2_dim3_class_representatives

    rng = random.Random(23)
    algebras = gf2_dim3_class_representatives()
    algebras += [alg for _, alg in family_corpus] + list(nine_families.values())
    for field, n in ((GF2, 3), (GF3, 2)):
        generated = census._liesation_tables(field.p, n, DEFAULT_BUDGET)
        orbits = census._mark_orbits(generated, field.p, n, DEFAULT_BUDGET)
        tables = sorted(map(census._Packing(field.p, n).unpack, set().union(*orbits)))
        for flat in rng.sample(tables, 30):
            entries = iter(flat)
            cube = [[[next(entries) for _ in range(n)] for _ in range(n)] for _ in range(n)]
            algebras.append(LeibnizAlgebra(MultiplicationTable(field, n, cube)))
    verdicts = set()
    for alg in algebras:
        expected = validate(alg.table, "lie").ok
        assert is_lie(alg) == expected
        verdicts.add(expected)
    assert verdicts == {True, False}


def test_one_dim_idempotent_fails_with_witness():
    table = build_table(GF2, ("e",), {(0, 0): {0: 1}})
    result = validate(table, "right")
    assert not result.ok
    assert result.witness == (0, 0, 0)
    assert not reference_right_identity(table)
    with pytest.raises(NotLeibniz):
        LeibnizAlgebra(table)


def test_char2_example_satisfies_both_identities():
    table = example_char2_table()
    assert validate(table, "right").ok
    assert validate(table, "left").ok
    assert reference_right_identity(table)


def test_validate_agrees_with_reference_on_random_tables():
    # the verdict, the first failing triple or pair and both sides, in all
    # three modes; a third of the tables are alternating, so that the lie
    # mode also reaches the identity
    rng = random.Random(23)
    witnesses = {"right": set(), "left": set(), "lie": set()}
    for _ in range(300):
        n = rng.randrange(1, 4)
        cube = [[[rng.randrange(3) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        if rng.random() < 1 / 3:
            for i in range(n):
                cube[i][i] = [0] * n
                for j in range(i):
                    cube[i][j] = [-x % 3 for x in cube[j][i]]
        table = MultiplicationTable(GF3, n, cube)
        for mode, seen in witnesses.items():
            failure = validate_matches_reference(table, mode)
            seen.add(None if failure is None else len(failure[0]))
    assert witnesses == {"right": {None, 3}, "left": {None, 3}, "lie": {None, 2, 3}}


def random_entry(field, rng):
    """A small random element of QQ or GF(2)(t), zero with probability 3/4
    so that a fair share of random tables satisfy the identity."""
    if rng.random() < 0.75:
        return field.zero
    if field == QQ:
        return field(rng.randrange(-3, 4)) / field(rng.randrange(1, 4))
    poly = lambda: [rng.randrange(2) for _ in range(rng.randrange(1, 3))] + [1]
    return field.from_polys(poly(), poly())


@pytest.mark.parametrize("field", [QQ, F2T], ids=["QQ", "GF2t"])
def test_raw_kernels_agree_with_reference_over_qq_and_gf2t(field):
    rng = random.Random(41)
    outcomes = set()
    for _ in range(60):
        n = rng.randrange(1, 4)
        cube = [
            [[random_entry(field, rng).value for _ in range(n)] for _ in range(n)]
            for _ in range(n)
        ]
        table = MultiplicationTable(field, n, cube)
        for mode in ("right", "left"):
            outcomes.add((mode, validate_matches_reference(table, mode) is None))
        alg = LeibnizAlgebra(table, _checked=True)
        for _ in range(3):
            u = tuple(random_entry(field, rng) + field.one for _ in range(n))
            v = tuple(random_entry(field, rng) for _ in range(n))
            assert alg.bracket(u, v) == reference_bracket(table, u, v)
    assert outcomes == {(mode, ok) for mode in ("right", "left") for ok in (True, False)}


def _entry(field, rng):
    if field.is_finite:
        return field(rng.randrange(field.p))
    return random_entry(field, rng)


@pytest.mark.parametrize(
    "field", [GF2, GF3, QQ, F2T], ids=["GF2", "GF3", "QQ", "GF2t"]
)
def test_memoised_bracket_matches_reference_on_repeat(field):
    rng = random.Random(43)
    for _ in range(20):
        n = rng.randrange(1, 4)
        cube = [
            [[_entry(field, rng).value for _ in range(n)] for _ in range(n)]
            for _ in range(n)
        ]
        table = MultiplicationTable(field, n, cube)
        pairs = [
            (
                tuple(_entry(field, rng) for _ in range(n)),
                tuple(_entry(field, rng) for _ in range(n)),
            )
            for _ in range(4)
        ]
        # the first pass fills the memo, the second reads it
        for _ in range(2):
            for u, v in pairs:
                raw = table.raw_bracket(field.unwrap(u), field.unwrap(v))
                assert field.wrap(raw) == reference_bracket(table, u, v)
        assert set(table._products) == {
            (field.unwrap(u), field.unwrap(v)) for u, v in pairs
        }


def test_bracket_memo_is_per_table():
    # same shape, different cubes: [e1, e1] = e2 in one, e1 in the other
    a = build_table(GF3, ("e1", "e2"), {(0, 0): {1: 1}})
    b = build_table(GF3, ("e1", "e2"), {(0, 0): {0: 1}})
    u = (1, 0)
    assert a.raw_bracket(u, u) == (0, 1)
    assert b.raw_bracket(u, u) == (1, 0)
    assert a.raw_bracket(u, u) == (0, 1)
    # the memo takes no part in equality or hashing
    fresh = build_table(GF3, ("e1", "e2"), {(0, 0): {1: 1}})
    assert fresh == a and hash(fresh) == hash(a)
    assert not fresh._products and a._products


def dense_raw_bracket(table, u, v):
    """Sum over every (i, j) of u_i v_j raw[i][j] with the field's raw ops:
    no product is skipped and nothing is memoised."""
    field = table.field
    add, mul = field.raw_add, field.raw_mul
    out = [field.raw_zero] * table.dim
    for i, row in enumerate(table.raw):
        for j, w in enumerate(row):
            c = mul(u[i], v[j])
            out = [add(a, mul(c, b)) for a, b in zip(out, w)]
    return tuple(out)


def test_sparse_bracket_matches_dense_sum(nine_families):
    # the family tables in their own basis and under the benchmark corpus's
    # seed-0 base change, over GF(2), GF(3), QQ and GF(2)(t); the census
    # classes and their quotients by the squares ideal; and the all-zero
    # and one-product tables, on which almost every product is zero
    from perfbench.corpus import build, standard_json
    from quasileib.census import sweep_tables

    tables = [alg.table for alg in nine_families.values()]
    tables += [table_from_json(obj) for _, obj in standard_json() + build(0)]
    for field, n in ((GF2, 3), (GF3, 2)):
        for entry in sweep_tables(field, n).classes:
            alg = entry.algebra
            tables += [alg.table, quotient(alg, squares_ideal(alg)).table]
    for field, n in ((GF2, 1), (GF3, 3), (QQ, 2), (F2T, 3)):
        tables.append(build_table(field, [f"e{i}" for i in range(n)], {}))
        tables.append(build_table(field, ["e1", "e2", "e3"], {(2, 0): {1: 1}}))
    assert {t.field for t in tables} == {GF2, GF3, QQ, F2T}
    rng = random.Random(47)
    for table in tables:
        field, n = table.field, table.dim
        basis = [field.unwrap(unit_vec(field, n, i)) for i in range(n)]
        random_vec = lambda: field.unwrap(_entry(field, rng) for _ in range(n))
        pairs = [(a, b) for a in basis for b in basis]
        pairs += [(random_vec(), random_vec()) for _ in range(20)]
        for u, v in pairs:
            assert table.raw_bracket(u, v) == dense_raw_bracket(table, u, v), (
                table.to_json(),
                u,
                v,
            )


def test_zero_products_do_no_arithmetic(monkeypatch):
    # count the field's raw_axpy and raw_mul calls made by raw_bracket
    calls = {"raw_axpy": 0, "raw_mul": 0}
    field_class = type(GF3)

    def counted(name):
        op = getattr(field_class, name)

        def wrapper(self, *args):
            calls[name] += 1
            return op(self, *args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(field_class, name, counted(name))
    rng = random.Random(53)
    random_vec = lambda n: tuple(rng.randrange(3) for _ in range(n))
    table = abelian(GF3, 4).table
    for _ in range(30):
        table.raw_bracket(random_vec(4), random_vec(4))
    assert calls == {"raw_axpy": 0, "raw_mul": 0}
    # the only nonzero product is [e_a, e_b] = e1 + 2 e3
    a, b = 2, 0
    table = build_table(GF3, ("e1", "e2", "e3"), {(a, b): {0: 1, 2: 2}})
    vectors = list(itertools.product(range(3), repeat=3))
    for u in vectors:
        for v in vectors:
            calls["raw_axpy"] = 0
            table.raw_bracket(u, v)
            expected = 1 if u[a] * v[b] % 3 else 0
            assert calls["raw_axpy"] == expected, (u, v)


def test_known_answers_do_no_arithmetic(monkeypatch):
    # the zero vector, a zero factor and a span of one live row are
    # answered by their shape: count the prime field's arithmetic, the
    # eliminations and combinations of linalg, and the brackets and
    # echelonizations of bracket_subspaces
    calls = dict.fromkeys(
        ("raw_axpy", "raw_mul", "raw_inv", "raw_neg", "raw_rref",
         "raw_combination", "raw_echelonize", "raw_bracket"),
        0,
    )

    def counted(owner, name):
        op = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return op(*args)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("raw_axpy", "raw_mul", "raw_inv", "raw_neg"):
        counted(PrimeField, name)
    counted(linalg, "raw_rref")
    counted(linalg, "raw_combination")
    counted(algebra, "raw_echelonize")
    counted(MultiplicationTable, "raw_bracket")

    def reset():
        for name in calls:
            calls[name] = 0

    gf5 = PrimeField(5)
    for field in (GF3, gf5):
        z = (0,) * 4
        line = echelonize(field, 4, [vec(field, (0, 1, 2, 1))])
        plane = echelonize(field, 4, [vec(field, (1, 0, 1, 0)), vec(field, (0, 0, 1, 2))])
        for s in (zero_subspace(field, 4), line, plane, full_subspace(field, 4)):
            reset()
            assert s.raw_reduce(z) is z and s.raw_contains(z) is True
            assert s.raw_contains([0] * 4) is True
            assert set(calls.values()) == {0}, (s, calls)

    alg = almost_abelian_lie(GF3, 3)
    zero, full = zero_subspace(GF3, 3), alg.full()
    for a, b in ((zero, full), (full, zero), (zero, zero)):
        reset()
        assert bracket_subspaces(alg, a, b) == zero
        assert set(calls.values()) == {0}, calls
        assert (a.raw_rows, b.raw_rows) in alg._cache["bracket_subspaces"]
        with pytest.raises(DimensionMismatch):
            bracket_subspaces(alg, a, zero_subspace(GF3, 4))
        with pytest.raises(MixedFields):
            bracket_subspaces(alg, zero_subspace(GF2, 3), b)

    # one live row among zero rows and repeats: one inverse and one product
    # per nonzero entry, or none when the leading entry is already 1
    for row, pivot, expected in (
        ((0, 3, 1, 0), 1, ((0, 1, 2, 0), 1, 2)),
        ((0, 0, 4, 4), 2, ((0, 0, 1, 1), 1, 2)),
        ((1, 0, 4, 2), 0, ((1, 0, 4, 2), 0, 0)),
    ):
        reset()
        s = raw_echelonize(gf5, 4, [(0,) * 4, row, row, (0,) * 4])
        line, inverses, products = expected
        assert (s.raw_rows, s.pivots) == ((line,), (pivot,))
        assert calls["raw_inv"] == inverses and calls["raw_mul"] == products
        assert calls["raw_rref"] == calls["raw_axpy"] == calls["raw_neg"] == 0
    reset()
    assert raw_echelonize(gf5, 3, [(0,) * 3] * 2).is_zero()
    assert set(calls.values()) == {0}, calls


def test_unit_valued_function_field_tables_do_no_polynomial_products(monkeypatch):
    # over GF(2)(t) a table whose constants are all 0 or 1 is validated and
    # classified with no polynomial product: a zero term, a unit factor and
    # a negation are answered by their shape
    calls = []
    real = fracfields.poly_mul
    monkeypatch.setattr(
        fracfields, "poly_mul", lambda *args: calls.append(args) or real(*args)
    )
    for alg in (k2(F2T), almost_abelian_lie(F2T, 3)):
        n = alg.dim
        raw = transport(alg, dense_basis(F2T, n)).table.raw
        assert {x for row in raw for v in row for x in v} == {F2T.raw_zero, F2T.raw_one}
        table = MultiplicationTable(F2T, n, raw)
        calls.clear()
        assert validate(table).ok
        verdict = classify_q_member(LeibnizAlgebra(table, _checked=True))
        assert calls == []
        assert verdict.verdict == classify_q_member(alg).verdict


def _dense_leibniz_failure(field, cube, triples, side="right"):
    """The identity kernel as a dense walk over every coordinate of every
    product: the reference for ``algebra.raw_leibniz_failure``."""
    axpy, neg, zero = field.raw_axpy, field.raw_neg, field.raw_zero
    n = len(cube)
    for i, j, k in triples:
        ci = cube[i]
        lhs = [zero] * n
        for b, x in enumerate(cube[j][k]):
            if x != zero:
                lhs = axpy(x, lhs, ci[b])
        rhs = [zero] * n
        for a, x in enumerate(ci[j]):
            if x != zero:
                rhs = axpy(x, rhs, cube[a][k])
        if side == "left":
            for b, x in enumerate(ci[k]):
                if x != zero:
                    rhs = axpy(x, rhs, cube[j][b])
        else:
            for a, x in enumerate(ci[k]):
                if x != zero:
                    rhs = axpy(neg(x), rhs, cube[a][j])
        if lhs != rhs:
            return (i, j, k), tuple(lhs), tuple(rhs)
    return None


@pytest.mark.parametrize("field", [GF2, GF3, QQ, F2T], ids=["GF2", "GF3", "QQ", "GF2t"])
def test_identity_kernel_matches_the_dense_walk(field):
    # the sparse walk finds the dense walk's first failing triple with the
    # same sides, for both identities, in lexicographic and shuffled order,
    # on family tables of dims 1-4 in their own basis and in a dense one,
    # each as it is and with one constant perturbed; a right Leibniz table
    # read backwards ([x, y]' = [y, x]) is a left Leibniz table
    rng = random.Random(f"dense walk/{field}")
    algebras = [abelian(field, 1), abelian(field, 4), two_dim_solvable_cyclic(field)]
    algebras += [almost_abelian_lie(field, d) for d in (2, 3, 4)]
    algebras += [non_lie_almost_abelian(field, k) for k in (1, 2, 3)]
    if field.characteristic() == 2:
        algebras.append(k2(field))
    algebras += [transport(alg, dense_basis(field, alg.dim)) for alg in algebras]
    bumps = [field.raw_one] + ([F2T.t.value] if field == F2T else [])
    outcomes = set()
    for alg in algebras:
        n, right = alg.dim, alg.table.raw
        left = tuple(tuple(right[j][i] for j in range(n)) for i in range(n))
        ordered = list(itertools.product(range(n), repeat=3))
        shuffled = rng.sample(ordered, len(ordered))
        for side, cube in (("right", right), ("left", left)):
            assert algebra.raw_leibniz_failure(field, cube, ordered, side) is None
            i, j, k = (rng.randrange(n) for _ in range(3))
            bumped = [[list(v) for v in row] for row in cube]
            bumped[i][j][k] = field.raw_add(bumped[i][j][k], rng.choice(bumps))
            bumped = tuple(tuple(map(tuple, row)) for row in bumped)
            for triples in (ordered, shuffled):
                found = algebra.raw_leibniz_failure(field, bumped, triples, side)
                assert found == _dense_leibniz_failure(field, bumped, triples, side)
                outcomes.add((side, found is None))
    assert outcomes == {(side, ok) for side in ("right", "left") for ok in (True, False)}


def test_bracket_subspaces_memo_matches_fresh_echelonization(family_corpus):
    for _, alg in family_corpus[::4]:
        subs = subalgebras(alg)
        for a in subs[:6]:
            for b in subs[-6:]:
                fresh = echelonize(
                    alg.field,
                    alg.dim,
                    [alg.bracket(u, v) for u in a.rows for v in b.rows],
                )
                first = bracket_subspaces(alg, a, b)
                assert first == fresh
                assert bracket_subspaces(alg, a, b) == fresh
        assert alg._cache["bracket_subspaces"]


def test_bracket_subspaces_memo_still_checks_its_inputs():
    # zero subspaces of other spaces share the memo key (), so the
    # ambient checks must run on every call, not only on the first
    alg = two_dim_solvable_cyclic(GF2)
    zero = zero_subspace(GF2, 2)
    assert bracket_subspaces(alg, zero, zero).is_zero()
    with pytest.raises(DimensionMismatch):
        bracket_subspaces(alg, zero_subspace(GF2, 3), zero)
    with pytest.raises(MixedFields):
        bracket_subspaces(alg, zero, zero_subspace(GF3, 2))


def test_bracket_rejects_foreign_field_entries():
    alg = two_dim_solvable_cyclic(GF2)
    good = vec(GF2, (1, 1))
    for bad in ((GF2.one, GF3.zero), (GF3.one, GF2.zero), (GF2.one, 0)):
        with pytest.raises(MixedFields):
            alg.bracket(bad, good)
        with pytest.raises(MixedFields):
            alg.bracket(good, bad)
    with pytest.raises(MixedFields):
        build_table(GF2, ("e1",), {(0, 0): {0: GF3.zero}})


def test_bracket_and_adjoint_fixtures():
    solv = two_dim_solvable_cyclic(QQ)  # basis b, a
    bma = vec(QQ, (1, -1))
    assert solv.bracket(bma, bma) == vec(QQ, (0, 0))
    assert solv.bracket(bma, vec(QQ, (0, 0))) == vec(QQ, (0, 0))
    alg = k2(GF2)
    rx = adjoint(alg, vec(GF2, (1, 0, 0)), "right")
    # y -> z, z -> x, x -> 0
    assert rx[1] == vec(GF2, (0, 0, 1))
    assert rx[2] == vec(GF2, (1, 0, 0))
    assert rx[0] == vec(GF2, (0, 0, 0))


def test_squares_ideal_fixtures():
    solv = two_dim_solvable_cyclic(GF3)
    assert squares_ideal(solv) == echelonize(GF3, 2, [vec(GF3, (0, 1))])
    assert squares_ideal(k2(GF2)).is_zero()
    ex = LeibnizAlgebra(example_char2_table())
    assert squares_ideal(ex) == echelonize(F2T, 3, [vec(F2T, (0, 1, 0))])


def test_squares_ideal_contains_sampled_squares():
    rng = random.Random(29)
    for alg in (two_dim_solvable_cyclic(GF3), k2(GF2), non_lie_almost_abelian(GF3, 3)):
        ideal = squares_ideal(alg)
        assert is_ideal(alg, ideal)
        full = alg.full()
        assert bracket_subspaces(alg, full, ideal).is_zero()
        for _ in range(60):
            x = vec(alg.field, [rng.randrange(alg.field.p) for _ in range(alg.dim)])
            assert ideal.contains_vector(alg.bracket(x, x))
        for i in range(alg.dim):
            for j in range(alg.dim):
                ei, ej = alg.basis_vector(i), alg.basis_vector(j)
                polar = tuple(
                    a + b for a, b in zip(alg.bracket(ei, ej), alg.bracket(ej, ei))
                )
                assert ideal.contains_vector(polar)


def test_bracket_subspaces_fixtures():
    solv = two_dim_solvable_cyclic(GF2)
    full = solv.full()
    assert bracket_subspaces(solv, full, full) == echelonize(
        GF2, 2, [vec(GF2, (0, 1))]
    )
    assert bracket_subspaces(solv, full, zero_subspace(GF2, 2)).is_zero()
    alg = k2(GF2)
    assert bracket_subspaces(alg, alg.full(), alg.full()) == alg.full()


def test_series_fixtures():
    nil = build_table(GF3, ("b", "a"), {(0, 0): {1: 1}})
    nil_alg = LeibnizAlgebra(nil)
    chain = series(nil_alg, kind="lower_central")
    assert [s.dim for s in chain] == [2, 1, 0]
    assert is_nilpotent(nil_alg)

    solv = two_dim_solvable_cyclic(GF3)
    assert [s.dim for s in series(solv, kind="lower_central")] == [2, 1]
    assert [s.dim for s in series(solv, kind="derived")] == [2, 1, 0]
    assert not is_nilpotent(solv) and is_solvable(solv)

    ab = build_table(GF3, ("x", "y"), {})
    chain = series(LeibnizAlgebra(ab), kind="derived")
    assert [s.dim for s in chain] == [2, 0]


def test_series_terms_are_ideals_of_previous(family_corpus):
    for _, alg in family_corpus:
        for kind in ("lower_central", "derived"):
            chain = series(alg, kind=kind)
            for prev, cur in zip(chain, chain[1:]):
                assert prev.contains(cur)
                two_sided = bracket_subspaces(alg, cur, prev).sum(
                    bracket_subspaces(alg, prev, cur)
                )
                assert cur.contains(two_sided)
            assert len(chain) <= alg.dim + 1


def test_series_rejects_non_subalgebra():
    alg = two_dim_solvable_cyclic(GF3)
    bad = echelonize(GF3, 2, [vec(GF3, (1, 0))])  # span{b}: b^2 = a outside
    with pytest.raises(NotASubalgebra):
        series(alg, bad)


def test_center_fixtures():
    ex = LeibnizAlgebra(example_char2_table())
    assert center(ex) == echelonize(F2T, 3, [vec(F2T, (0, 1, 0))])
    ab = LeibnizAlgebra(build_table(GF3, ("x", "y"), {}))
    assert center(ab) == ab.full()
    assert is_abelian(ab)


def test_adjoint_right_is_a_derivation(family_corpus):
    # the right identity restated: R_x[u,v] = [R_x u, v] + [u, R_x v]
    rng = random.Random(31)
    for _, alg in family_corpus[:12]:
        for _ in range(5):
            x = vec(alg.field, [rng.randrange(alg.field.p) for _ in range(alg.dim)])
            for i in range(alg.dim):
                for j in range(alg.dim):
                    u, v = alg.basis_vector(i), alg.basis_vector(j)
                    lhs = alg.bracket(alg.bracket(u, v), x)
                    rhs = tuple(
                        a + b
                        for a, b in zip(
                            alg.bracket(alg.bracket(u, x), v),
                            alg.bracket(u, alg.bracket(v, x)),
                        )
                    )
                    assert lhs == rhs


def test_subalgebra_closure_fixtures():
    solv = two_dim_solvable_cyclic(QQ)
    line = echelonize(QQ, 2, [vec(QQ, (1, -1))])
    assert subalgebra_closure(solv, line) == line
    alg = non_lie_almost_abelian(GF2, 2)  # basis x, y, h
    grow = subalgebra_closure(alg, echelonize(GF2, 3, [vec(GF2, (1, 0, 1))]))
    assert grow == echelonize(GF2, 3, [vec(GF2, (1, 0, 0)), vec(GF2, (0, 0, 1))])
    sub = echelonize(GF2, 3, [vec(GF2, (0, 0, 1))])
    assert subalgebra_closure(alg, sub) == sub


def test_quotient_fixtures():
    alg = non_lie_almost_abelian(GF2, 2)
    ideal = echelonize(GF2, 3, [vec(GF2, (1, 0, 0))])
    q = quotient(alg, ideal)
    # the quotient is the algebra itself, built anew on every call
    assert isinstance(q, LeibnizAlgebra) and quotient(alg, ideal).table == q.table
    assert q.dim == 2
    # table of the quotient: [y, h] = y and nothing else
    cube = q.table.cube
    assert cube[0][1] == vec(GF2, (1, 0))
    flat = [cube[i][j] for i in range(2) for j in range(2) if (i, j) != (0, 1)]
    assert all(all(not s for s in v) for v in flat)
    with pytest.raises(NotAnIdeal):
        quotient(alg, echelonize(GF2, 3, [vec(GF2, (0, 0, 1))]))


def test_quotient_by_zero_is_identity():
    alg = two_dim_solvable_cyclic(GF3)
    q = quotient(alg, zero_subspace(GF3, 2))
    assert q.table.cube == alg.table.cube


def test_quotient_commutes_with_projection(family_corpus):
    rng = random.Random(37)
    for _, alg in family_corpus:
        ideal = squares_ideal(alg)
        q = quotient(alg, ideal)
        comp = ideal.non_pivots()
        project = lambda v: tuple(ideal.reduce(v)[c] for c in comp)
        for _ in range(10):
            u = vec(alg.field, [rng.randrange(alg.field.p) for _ in range(alg.dim)])
            v = vec(alg.field, [rng.randrange(alg.field.p) for _ in range(alg.dim)])
            lhs = project(alg.bracket(u, v))
            rhs = q.bracket(project(u), project(v))
            assert lhs == rhs


def test_liesation_is_lie(family_corpus):
    for _, alg in family_corpus:
        assert is_lie(quotient(alg, squares_ideal(alg)))
    ex = LeibnizAlgebra(example_char2_table())
    assert is_lie(quotient(ex, squares_ideal(ex)))


def test_symmetry_predicate():
    assert is_symmetric(LeibnizAlgebra(example_char2_table()))
    assert not is_symmetric(two_dim_solvable_cyclic(GF3))


def test_subalgebra_enumeration_fixture():
    solv = two_dim_solvable_cyclic(GF2)
    subs = subalgebras(solv)
    proper = {s.rows for s in subs if 0 < s.dim < 2}
    assert proper == {
        (vec(GF2, (0, 1)),),  # Fa
        (vec(GF2, (1, 1)),),  # F(b - a) = F(b + a) over GF(2)
    }
    ab = LeibnizAlgebra(build_table(GF2, ("x", "y"), {}))
    assert len(subalgebras(ab)) == 5
    assert is_subalgebra(solv, solv.full())


def test_table_json_round_trip():
    # a table's JSON is each entry's scalar encoding, and it decodes back
    # to the same raw cube
    t = F2T.t
    qq = build_table(QQ, ("x", "y"), {(0, 1): {0: QQ(-3) / 2, 1: 5}, (1, 1): {0: -1}})
    f2t = build_table(F2T, ("u", "v"), {(0, 0): {1: t / (t + 1)}, (1, 0): {0: t * t}})
    alg = non_lie_almost_abelian(GF2, 2)
    quot = quotient(alg, echelonize(GF2, 3, [vec(GF2, (1, 0, 0))])).table
    for table in (example_char2_table(), k2(GF2).table, qq, f2t, quot):
        obj = table.to_json()
        assert obj["table"] == [
            [[s.to_json() for s in v] for v in row] for row in table.cube
        ]
        back = table_from_json(json.loads(json.dumps(obj)))
        assert back == table and back.basis_names == table.basis_names
    assert qq.to_json()["table"][0][1] == ["-3/2", "5/1"]
    assert quot.basis_names == ("y", "h")
    with pytest.raises(MalformedInput):
        table_from_json({"dim": 1})
    with pytest.raises(MalformedInput):
        table_from_json({"field": {"kind": "prime", "p": 2}, "dim": 2, "table": [[[0]]]})


def test_subalgebras_enumerated_once_per_algebra(monkeypatch):
    import quasileib.algebra as algebra_mod

    calls = []
    real = algebra_mod.enumerate_subspaces

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(algebra_mod, "enumerate_subspaces", counting)
    alg = two_dim_solvable_cyclic(GF3)
    first = subalgebras(alg)
    first.clear()  # a caller's list is its own
    again = subalgebras(alg)
    assert len(calls) == 1
    assert again == subalgebras(two_dim_solvable_cyclic(GF3))
    assert again is not subalgebras(alg)
    # the budget counts the 6 subspaces of GF(3)^2, on a memo hit as well
    with pytest.raises(BudgetExceeded):
        subalgebras(alg, budget=5)
    assert len(subalgebras(alg, budget=6)) == len(again)
