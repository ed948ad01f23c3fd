import itertools
import random

import pytest

from quasileib.errors import (
    BudgetExceeded,
    DimensionMismatch,
    MixedFields,
    UnsupportedField,
)
from quasileib.fields import GF2, GF3, QQ, FunctionField, PrimeField
from quasileib.linalg import (
    echelonize,
    enumerate_subspaces,
    full_subspace,
    raw_echelonize,
    raw_identity,
    raw_left_kernel,
    raw_projective_points,
    raw_rref,
    raw_solve,
    unit_vec,
    vec,
    zero_subspace,
)
from tests.test_fields import random_scalar

F2T = FunctionField(2)
GF5 = PrimeField(5)


def gaussian_binomial(q, n, k):
    """Independent count of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def test_echelonize_gf2_dependent_triple():
    # third vector is the sum of the first two over GF(2)
    s = echelonize(
        GF2, 3, [vec(GF2, (1, 1, 0)), vec(GF2, (0, 1, 1)), vec(GF2, (1, 0, 1))]
    )
    assert s.dim == 2
    assert s.rows == (vec(GF2, (1, 0, 1)), vec(GF2, (0, 1, 1)))


def test_echelonize_empty_and_scaling():
    assert echelonize(QQ, 4, []).dim == 0
    # (2,1) scales by 2^-1 = 2 mod 3
    s = echelonize(GF3, 2, [vec(GF3, (2, 1))])
    assert s.rows == (vec(GF3, (1, 2)),)


def test_echelonize_order_and_scale_insensitive():
    rng = random.Random(3)
    for _ in range(100):
        vecs = [
            vec(GF3, [rng.randrange(3) for _ in range(4)]) for _ in range(3)
        ]
        s1 = echelonize(GF3, 4, vecs)
        rng.shuffle(vecs)
        scaled = []
        for v in vecs:
            c = GF3(rng.choice((1, 2)))
            scaled.append(tuple(c * x for x in v))
        s2 = echelonize(GF3, 4, scaled)
        assert s1 == s2
        assert echelonize(GF3, 4, s1.rows) == s1


def test_sum_and_intersection_fixtures():
    a = echelonize(QQ, 3, [vec(QQ, (1, 0, 0))])
    b = echelonize(QQ, 3, [vec(QQ, (0, 1, 0))])
    assert a.sum(b).dim == 2
    assert a.intersect(b).dim == 0
    assert a.contains(a)
    a2 = echelonize(GF2, 3, [vec(GF2, (1, 1, 0)), vec(GF2, (0, 1, 1))])
    b2 = echelonize(GF2, 3, [vec(GF2, (1, 0, 1))])
    assert a2.intersect(b2) == b2


def test_dimension_formula_all_pairs():
    for field, n in ((GF2, 3), (GF3, 2)):
        subs = list(enumerate_subspaces(field, n))
        for a, b in itertools.product(subs, repeat=2):
            assert a.dim + b.dim == a.sum(b).dim + a.intersect(b).dim


def test_enumerate_counts_match_gaussian_binomials():
    for q, field in ((2, GF2), (3, GF3)):
        for n in range(1, 5):
            total = sum(gaussian_binomial(q, n, k) for k in range(n + 1))
            assert sum(1 for _ in enumerate_subspaces(field, n)) == total
            for k in range(n + 1):
                count = sum(1 for s in enumerate_subspaces(field, n) if s.dim == k)
                assert count == gaussian_binomial(q, n, k)


def test_enumerate_unique_and_canonical():
    seen = set()
    for s in enumerate_subspaces(GF3, 3):
        assert s not in seen
        seen.add(s)
        assert echelonize(GF3, 3, s.rows) == s
    assert len(seen) == 28


def test_enumeration_budget_counts_subspaces():
    # GF(2)^7 has 29,212 subspaces but only 128 vectors: the budget bounds
    # the subspaces, and is checked before the first one is yielded
    total = sum(gaussian_binomial(2, 7, k) for k in range(8))
    assert total == 29212
    stream = enumerate_subspaces(GF2, 7, budget=200)
    with pytest.raises(BudgetExceeded, match="29212"):
        next(stream)
    assert sum(1 for _ in enumerate_subspaces(GF2, 7, budget=total)) == total


def test_dim_filter_zero():
    zeros = [s for s in enumerate_subspaces(GF3, 3) if s.dim == 0]
    assert zeros == [zero_subspace(GF3, 3)]


def test_projective_point_counts():
    assert sum(1 for _ in raw_projective_points(GF2, 3)) == 7
    assert sum(1 for _ in raw_projective_points(GF3, 4)) == 40
    pts = list(raw_projective_points(GF3, 2))
    assert len(set(raw_echelonize(GF3, 2, [p]) for p in pts)) == len(pts)
    # leading coordinate first, then the tail in order
    assert list(raw_projective_points(GF3, 2)) == [(1, 0), (1, 1), (1, 2), (0, 1)]
    assert list(raw_projective_points(GF2, 3)) == [
        (1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1), (0, 1, 0), (0, 1, 1), (0, 0, 1)
    ]
    assert list(raw_projective_points(GF3, 1)) == [(1,)]
    assert list(raw_projective_points(GF3, 0)) == []


def test_enumeration_budget_and_field_guards():
    with pytest.raises(BudgetExceeded):
        list(enumerate_subspaces(GF2, 8, budget=100))
    with pytest.raises(UnsupportedField):
        list(enumerate_subspaces(QQ, 2))
    with pytest.raises(UnsupportedField):
        list(raw_projective_points(FunctionField(2), 2))


def test_reduce_and_membership():
    s = echelonize(GF3, 3, [vec(GF3, (1, 0, 2)), vec(GF3, (0, 1, 1))])
    assert s.contains_vector(vec(GF3, (1, 1, 0)))
    assert not s.contains_vector(vec(GF3, (0, 0, 1)))
    assert s.reduce(vec(GF3, (1, 1, 0))) == vec(GF3, (0, 0, 0))


@pytest.mark.parametrize(
    "field", [GF2, GF3, QQ, F2T], ids=["GF2", "GF3", "QQ", "GF2t"]
)
def test_raw_contains_matches_rank(field):
    # v lies in S exactly when adding it to S's rows leaves the rank at
    # dim S; the reference row-reduces that stack and never reduces v
    rng = random.Random(5)
    n = 4

    def random_vec():
        return tuple(random_scalar(field, rng) for _ in range(n))

    spaces = [zero_subspace(field, n), full_subspace(field, n)]
    for k in (1, 2, 3) * 4:
        spaces.append(echelonize(field, n, [random_vec() for _ in range(k)]))
    seen = {True: 0, False: 0}
    for s in spaces:
        members = []
        for _ in range(4):
            combo = [field.zero] * n
            for row in s.rows:
                c = random_scalar(field, rng)
                combo = [a + c * b for a, b in zip(combo, row)]
            members.append(tuple(combo))
        for v in members + [random_vec() for _ in range(8)]:
            raw = field.unwrap(v)
            expected = raw_echelonize(field, n, s.raw_rows + (raw,)).dim == s.dim
            assert s.raw_contains(raw) == expected, (s, v)
            seen[expected] += 1
    assert seen[True] and seen[False]


@pytest.mark.parametrize(
    "field", [GF2, GF3, QQ, F2T], ids=["GF2", "GF3", "QQ", "GF2t"]
)
def test_whole_space_answers_by_its_shape(field):
    # F^n holds every vector and reduces each to zero without arithmetic;
    # the reference eliminates by hand with the identity rows, and the
    # whole space also arises from echelonizing a spanning set
    rng = random.Random(f"whole space/{field}")
    zero, axpy, neg = field.raw_zero, field.raw_axpy, field.raw_neg

    def random_raw(n):
        return field.unwrap(tuple(random_scalar(field, rng) for _ in range(n)))

    for n in range(1, 5):
        spanned = raw_echelonize(field, n, [random_raw(n) for _ in range(n + 2)])
        spaces = [full_subspace(field, n)] + ([spanned] if spanned.dim == n else [])
        for whole in spaces:
            assert whole == full_subspace(field, n)
            for _ in range(10):
                v = random_raw(n)
                rest = list(v)
                for row in raw_identity(field, n):
                    c = rest[row.index(field.raw_one)]
                    rest = axpy(neg(c), rest, row)
                assert whole.raw_reduce(v) == tuple(rest) == (zero,) * n
                assert whole.raw_contains(v) is all(x == zero for x in rest)
            for k in range(n + 1):
                other = raw_echelonize(field, n, [random_raw(n) for _ in range(k)])
                assert whole.contains(other)
                assert other.contains(whole) is (other.dim == n)
            with pytest.raises(DimensionMismatch):
                whole.contains(zero_subspace(field, n + 1))
            with pytest.raises(MixedFields):
                whole.contains(full_subspace(GF3 if field is GF2 else GF2, n))


def test_left_kernel():
    rows = [(1, 0), (1, 0), (0, 1)]
    k = raw_left_kernel(GF2, rows)
    assert k.dim == 1
    assert k.raw_rows == ((1, 1, 0),)


def _residual(field, row, x):
    """The left side of the equation ``row`` at x, minus its right side."""
    total = field.raw_neg(row[-1])
    for a, b in zip(row, x):
        total = field.raw_add(total, field.raw_mul(a, b))
    return total


@pytest.mark.parametrize("field", [GF3, QQ, F2T], ids=repr)
def test_raw_solve(field):
    zero, one = field.raw_zero, field.raw_one
    # x0 = 1 and x0 = 0 together have no solution
    assert raw_solve(field, [(one, zero, one), (one, zero, zero)], 2) is None
    # no equations: every vector solves, the kernel is the unit vectors
    assert raw_solve(field, [], 2) == ((zero, zero), list(raw_identity(field, 2)))
    rng = random.Random(f"raw_solve/{field}")
    seen = {"inconsistent": 0, "unique": 0, "free": 0}
    for _ in range(60):
        unknowns = rng.randrange(1, 5)
        _, rows = _live_and_dead_rows(field, rng, rng.randrange(1, 5), unknowns + 1)
        solved = raw_solve(field, rows, unknowns)
        _, pivots = raw_rref(field, rows, unknowns + 1)
        if solved is None:
            # the reduced system holds the row 0 = 1
            assert pivots[-1] == unknowns
            seen["inconsistent"] += 1
            continue
        particular, kernel = solved
        assert len(particular) == unknowns
        assert len(kernel) == unknowns - len(pivots)
        assert raw_echelonize(field, unknowns, kernel).dim == len(kernel)
        for row in rows:
            assert _residual(field, row, particular) == zero
            homogeneous = row[:unknowns] + (zero,)
            for v in kernel:
                assert _residual(field, homogeneous, v) == zero
        seen["free" if kernel else "unique"] += 1
    assert all(seen.values()), seen


def test_raw_solve_counts_every_solution_over_gf3():
    # a consistent system has p^(len(kernel)) solutions, an inconsistent one
    # none; both counted against every vector of GF(3)^unknowns
    rng = random.Random("raw_solve/count")
    counts = set()
    for _ in range(80):
        unknowns = rng.randrange(1, 5)
        rows = [
            tuple(rng.randrange(3) for _ in range(unknowns + 1))
            for _ in range(rng.randrange(0, 5))
        ]
        solved = raw_solve(GF3, rows, unknowns)
        expected = 0 if solved is None else 3 ** len(solved[1])
        found = sum(
            all(_residual(GF3, row, x) == 0 for row in rows)
            for x in itertools.product(range(3), repeat=unknowns)
        )
        assert found == expected, (rows, unknowns)
        counts.add(found)
    assert 0 in counts and 1 in counts and len(counts) > 3, counts


def test_dimension_mismatch_guards():
    a = echelonize(GF2, 3, [vec(GF2, (1, 0, 0))])
    b = echelonize(GF2, 2, [vec(GF2, (1, 0))])
    with pytest.raises(DimensionMismatch):
        a.sum(b)
    with pytest.raises(DimensionMismatch):
        echelonize(GF2, 3, [vec(GF2, (1, 0))])


def test_full_subspace_is_identity_rows():
    f = full_subspace(GF3, 3)
    assert f.raw_rows == raw_identity(GF3, 3)
    assert f.contains_vector(vec(GF3, (2, 1, 2)))
    assert f.non_pivots() == ()
    assert unit_vec(GF3, 3, 1) == vec(GF3, (0, 1, 0))


def test_kernels_reject_foreign_field_entries():
    # a zero entry from another field is rejected like any other entry
    space = echelonize(GF2, 2, [vec(GF2, (1, 1))])
    for bad in ((GF2.one, GF3.zero), (GF3.zero, GF2.one)):
        with pytest.raises(MixedFields):
            echelonize(GF2, 2, [bad])
        with pytest.raises(MixedFields):
            space.reduce(bad)
        with pytest.raises(MixedFields):
            space.contains_vector(bad)


def test_vec_rejects_a_scalar_of_another_field():
    assert vec(GF2, [GF2.one, 3]) == (GF2.one, GF2.one)
    with pytest.raises(MixedFields):
        vec(GF2, [GF3.one, 1])


def _live_and_dead_rows(field, rng, count, ncols):
    """Seeded raw rows, about a third of their entries zero, with zero rows
    and repeats of earlier rows shuffled in: (plain rows, padded rows)."""
    zero = field.raw_zero
    plain = [
        tuple(
            zero if rng.random() < 0.35 else random_scalar(field, rng, nonzero=True).value
            for _ in range(ncols)
        )
        for _ in range(count)
    ]
    padded = plain + [(zero,) * ncols] * rng.randrange(1, 4)
    if plain:
        padded += [rng.choice(plain) for _ in range(rng.randrange(1, 5))]
    rng.shuffle(padded)
    return plain, padded


@pytest.mark.parametrize("field", [GF2, GF3, QQ, F2T], ids=repr)
def test_zero_and_repeated_rows_change_no_reduction(field):
    # echelonize and left_kernel drop zero and repeated rows before they
    # row-reduce; the unfiltered raw_rref of the padded rows is the
    # reference for the span
    rng = random.Random(f"live rows/{field}")
    for _ in range(25):
        n = rng.randrange(1, 6)
        plain, padded = _live_and_dead_rows(field, rng, rng.randrange(0, 6), n)
        span = raw_echelonize(field, n, padded)
        assert (span.raw_rows, span.pivots) == raw_rref(field, padded, n)
        plain_span = raw_echelonize(field, n, plain)
        assert span == plain_span and span.pivots == plain_span.pivots
        # the left kernel's equations are its matrix's columns: pad those
        # and the kernel must not move
        m = rng.randrange(1, 6)
        cols, padded_cols = _live_and_dead_rows(field, rng, rng.randrange(1, 6), m)
        kernel = raw_left_kernel(field, list(zip(*padded_cols)))
        plain_kernel = raw_left_kernel(field, list(zip(*cols)))
        assert kernel == plain_kernel and kernel.pivots == plain_kernel.pivots
        for v in kernel.raw_rows:
            for col in padded_cols:
                dot = field.raw_zero
                for a, b in zip(v, col):
                    dot = field.raw_add(dot, field.raw_mul(a, b))
                assert dot == field.raw_zero
        _, pivots = raw_rref(field, padded_cols, m)
        assert kernel.dim == m - len(pivots)


@pytest.mark.parametrize("field", [GF2, GF5, QQ, F2T], ids=repr)
def test_short_spans_echelonize_as_rref(field):
    # raw_echelonize answers 0 and 1 live rows by their shape and
    # row-reduces 2 or more; each must give exactly raw_rref's rows and
    # pivots on the same padded rows
    rng = random.Random(f"short spans/{field}")
    zero = field.raw_zero
    for n in range(1, 6):
        dead = [(zero,) * n] * rng.randrange(0, 3)
        cases = [[], dead]
        for live in (1, 1, 1, 2, 3):
            rows = []
            while len(rows) < live:
                row = field.unwrap(tuple(random_scalar(field, rng) for _ in range(n)))
                if row != (zero,) * n:
                    rows.append(row)
            padded = rows + dead + [rng.choice(rows) for _ in range(rng.randrange(3))]
            rng.shuffle(padded)
            cases.append(padded)
        # one row whose leading entry is not 1, where the field has one
        lead = random_scalar(field, rng, nonzero=True)
        if lead != field.one:
            tail = tuple(random_scalar(field, rng) for _ in range(n - 1))
            cases.append([field.unwrap((lead,) + tail)] * 2 + dead)
        for rows in cases:
            span = raw_echelonize(field, n, rows)
            assert (span.raw_rows, span.pivots) == raw_rref(field, rows, n), rows
            assert span.dim == len(span.raw_rows)


@pytest.mark.parametrize("field", [GF2, GF5, QQ, F2T], ids=repr)
def test_zero_vector_answers_by_its_shape(field):
    # every subspace holds the zero vector and reduces it to itself
    rng = random.Random(f"zero vector/{field}")
    for n in range(1, 5):
        z = (field.raw_zero,) * n
        spaces = [zero_subspace(field, n), full_subspace(field, n)]
        if n > 1:
            # a line, a proper subspace
            row = [random_scalar(field, rng, nonzero=True)]
            row += [random_scalar(field, rng) for _ in range(n - 1)]
            spaces.append(echelonize(field, n, [row]))
            assert spaces[-1].dim == 1
        for s in spaces:
            assert s.raw_reduce(z) == z and type(s.raw_reduce(list(z))) is tuple
            assert s.raw_contains(z) is True and s.raw_contains(list(z)) is True
