import hashlib
import itertools
import random
from collections import Counter

import numpy as np
import pytest

from quasileib.algebra import (
    LeibnizAlgebra,
    MultiplicationTable,
    ValidationResult,
    action,
    bracket_subspaces,
    build_table,
    center,
    is_ideal,
    is_nilpotent,
    is_subalgebra,
    quotient,
    series,
    squares_ideal,
    subalgebra_closure,
    subalgebras,
    table_from_json,
)
from quasileib.census import (
    ClassificationResult,
    HarnessReport,
    lemma_harness,
    sweep_tables,
)
from quasileib.errors import (
    BudgetExceeded,
    DimensionMismatch,
    MixedFields,
    NotAnIdeal,
    NotASubalgebra,
    PreconditionUnverified,
    UnsupportedField,
    VerificationFailed,
)
from quasileib.families import (
    almost_abelian_lie,
    k2,
    non_lie_almost_abelian,
    two_dim_nilpotent_cyclic,
    two_dim_solvable_cyclic,
)
from quasileib.fields import GF2, GF3, QQ, PrimeField
from quasileib.linalg import (
    DEFAULT_BUDGET,
    Subspace,
    echelonize,
    enumerate_subspaces,
    raw_combination,
    raw_echelonize,
    raw_identity,
    raw_left_kernel,
    raw_projective_points,
    raw_rref,
    vec,
    zero_subspace,
)
from quasileib import quasi
from quasileib.quasi import (
    FAIL,
    PASS,
    EngelReport,
    QuasiIdealVerdict,
    SubquasiChain,
    _descent,
    _subquasi_bfs,
    core,
    is_engel_algebra,
    is_left_engel,
    is_quasi_ideal,
    is_quasi_ideal_in,
    is_quasi_ideal_oracle,
    lemma_suite,
    permutes_with,
    quasi_ideals,
    subquasi_chain,
)

from tests.conftest import gf2_dim3_class_representatives


def line(field, n, coords):
    return echelonize(field, n, [vec(field, coords)])


def test_permutes_with_fixtures():
    alg = non_lie_almost_abelian(GF2, 2)  # basis x, y, h
    h = line(GF2, 3, (0, 0, 1))
    fy = line(GF2, 3, (0, 1, 0))
    assert permutes_with(alg, h, fy)
    assert permutes_with(alg, h, h)
    kk = k2(GF2)
    assert permutes_with(kk, line(GF2, 3, (0, 0, 1)), line(GF2, 3, (1, 0, 0)))
    # [x, y] = z escapes Fx + Fy
    assert not permutes_with(kk, line(GF2, 3, (1, 0, 0)), line(GF2, 3, (0, 1, 0)))


def test_quasi_ideal_certificates():
    for dim_i in (1, 2, 3):
        alg = non_lie_almost_abelian(GF3, dim_i)
        h = line(GF3, dim_i + 1, (0,) * dim_i + (1,))
        verdict = is_quasi_ideal(alg, h)
        assert verdict.holds
        ((alpha, beta),) = verdict.certificate
        assert alpha == GF3.one and beta == GF3.zero


def test_quasi_ideal_negative_witness_verifies():
    alg = non_lie_almost_abelian(GF2, 2)
    bad = line(GF2, 3, (1, 0, 1))  # span{h + x}: (h+x)^2 = x outside
    verdict = is_quasi_ideal(alg, bad)
    assert not verdict.holds
    h, x, value = verdict.witness
    probe = bad.sum(echelonize(GF2, 3, [x]))
    assert not probe.contains_vector(value)


def test_unverified_witness_raises(monkeypatch):
    import quasileib.quasi as quasi_mod

    monkeypatch.setattr(quasi_mod, "_witness_in_span", lambda *args: False)
    # Fx in k2 is a subalgebra but not a quasi-ideal: [x, y] = z escapes
    with pytest.raises(VerificationFailed):
        is_quasi_ideal(k2(GF2), line(GF2, 3, (1, 0, 0)))


def test_certificate_replays_all_brackets(family_corpus):
    for _, alg in family_corpus:
        for h in quasi_ideals(alg):
            verdict = is_quasi_ideal(alg, h)
            assert verdict.holds
            for hrow, (alpha, beta) in zip(h.rows, verdict.certificate):
                for j in range(alg.dim):
                    x = alg.basis_vector(j)
                    right = tuple(
                        a - alpha * b for a, b in zip(alg.bracket(x, hrow), x)
                    )
                    left = tuple(
                        a - beta * b for a, b in zip(alg.bracket(hrow, x), x)
                    )
                    assert h.contains_vector(right)
                    assert h.contains_vector(left)


def test_ideals_and_codimension_one_are_quasi_ideals(family_corpus):
    for _, alg in family_corpus:
        for s in subalgebras(alg):
            if s.dim >= alg.dim - 1 or is_ideal(alg, s):
                assert is_quasi_ideal(alg, s).holds


def test_exact_predicate_equals_oracle_on_every_subspace():
    # stronger than the subalgebra corpus: non-subalgebras must agree too
    fixtures = [
        non_lie_almost_abelian(GF2, 2),
        k2(GF2),
        two_dim_solvable_cyclic(GF3),
        two_dim_nilpotent_cyclic(GF2),
    ]
    for alg in fixtures:
        for s in enumerate_subspaces(alg.field, alg.dim):
            assert is_quasi_ideal(alg, s).holds == is_quasi_ideal_oracle(alg, s)


def _reference_oracle(alg, h):
    """The definition by row reduction: for every projective point x, echelonize
    H + Fx and reduce [x, h] and [h, x] by it for every basis row h."""
    field, n, zero = alg.field, alg.dim, alg.field.raw_zero
    br = alg.table.raw_bracket

    def inside(space, v):
        return all(c == zero for c in space.raw_reduce(v))

    for x in raw_projective_points(field, n):
        probe = raw_echelonize(field, n, h.raw_rows + (x,))
        for hrow in h.raw_rows:
            if not (inside(probe, br(x, hrow)) and inside(probe, br(hrow, x))):
                return False
    return True


def test_oracle_matches_row_reduction_reference(family_corpus):
    # every subspace, not only the subalgebras, so that non-subalgebras and
    # points x inside H are covered as well
    algebras = gf2_dim3_class_representatives() + [
        alg for _, alg in family_corpus if alg.dim <= 3
    ]
    verdicts = {True: 0, False: 0}
    for alg in algebras:
        for s in enumerate_subspaces(alg.field, alg.dim):
            expected = _reference_oracle(alg, s)
            assert is_quasi_ideal_oracle(alg, s) == expected, (alg, s)
            verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]


def test_oracle_matches_reference_where_the_quotient_is_widest(gf3_dim3_census):
    # every subspace of the GF(3) dim-3 classes and of two GF(3) dim-4
    # algebras, where L/H has up to 13 lines over GF(3)
    algebras = [
        LeibnizAlgebra(MultiplicationTable(GF3, 3, entry.algebra.table.raw))
        for entry in gf3_dim3_census.classes
    ]
    assert len(algebras) == 27
    algebras += [almost_abelian_lie(GF3, 4), non_lie_almost_abelian(GF3, 3)]
    verdicts = {True: 0, False: 0}
    for alg in algebras:
        for s in enumerate_subspaces(alg.field, alg.dim):
            expected = _reference_oracle(alg, s)
            assert is_quasi_ideal_oracle(alg, s) == expected, (alg, s)
            verdicts[expected] += 1
    assert verdicts[True] and verdicts[False]


def test_oracle_asks_only_for_the_lines_of_the_quotient(monkeypatch):
    # H closed: the points of F^(n - dim H), one per line of L/H, so F^0 or
    # nothing for H = L and F^n only for H = 0; H not closed: no points
    from quasileib import quasi

    calls = []
    real = quasi.raw_projective_points

    def recording(field, n, budget):
        calls.append((field, n))
        return real(field, n, budget)

    monkeypatch.setattr(quasi, "raw_projective_points", recording)
    for alg in (almost_abelian_lie(GF3, 3), non_lie_almost_abelian(GF2, 3)):
        field, n = alg.field, alg.dim
        for s in enumerate_subspaces(field, n):
            calls.clear()
            is_quasi_ideal_oracle(alg, s)
            assert set(calls) <= {(field, n - s.dim)}, (s, calls)
            if s.is_zero():
                assert calls == [(field, n)]


def test_oracle_builds_the_lines_once_per_pivot_pattern(monkeypatch):
    # the lines of L/H depend only on H's pivot columns: over every
    # subspace of an algebra, twice, the oracle asks for the points once
    # per pivot pattern of a closed subspace, and never for a subspace
    # that is not closed
    from quasileib import quasi

    calls = []
    real = quasi.raw_projective_points

    def recording(field, n, budget):
        calls.append(n)
        return real(field, n, budget)

    monkeypatch.setattr(quasi, "raw_projective_points", recording)
    for alg in (almost_abelian_lie(GF3, 4), non_lie_almost_abelian(GF2, 3), k2(GF2)):
        calls.clear()
        patterns = set()
        for _ in range(2):
            for s in enumerate_subspaces(alg.field, alg.dim):
                is_quasi_ideal_oracle(alg, s)
                if is_subalgebra(alg, s):
                    patterns.add(s.pivots)
        assert len(calls) == len(patterns), alg
        assert sorted(calls) == sorted(alg.dim - len(p) for p in patterns)


def test_oracle_refutes_known_non_quasi_ideals():
    # Fx in k2 is a subalgebra, but [x, y] = z escapes Fx + Fy; span{h + x}
    # in the non-Lie almost abelian algebra is not even a subalgebra
    cases = [
        (k2(GF2), line(GF2, 3, (1, 0, 0))),
        (non_lie_almost_abelian(GF2, 2), line(GF2, 3, (1, 0, 1))),
    ]
    for alg, h in cases:
        # the second call reads every bracket from the memo
        assert not is_quasi_ideal_oracle(alg, h)
        assert not is_quasi_ideal_oracle(alg, h)
        assert not is_quasi_ideal(alg, h).holds


def test_oracle_checks_both_bracket_orders():
    # [e1, e2] = e1: span{e2} is refuted only by a bracket [x, h] and
    # span{e1 + e3} only by a bracket [h, x]
    alg = LeibnizAlgebra(build_table(GF2, ("e1", "e2", "e3"), {(0, 1): {0: 1}}))
    for coords in ((0, 1, 0), (1, 0, 1)):
        h = line(GF2, 3, coords)
        assert not is_quasi_ideal_oracle(alg, h)
        assert not is_quasi_ideal(alg, h).holds


def test_oracle_checks_every_line_of_the_quotient():
    # [e3, e1] = e2 + e3: y -> [y, e1] on L/Fe1 has the eigenvectors e2 and
    # e2 + e3, so of the three lines of L/Fe1 only the last, e3, refutes Fe1
    alg = LeibnizAlgebra(build_table(GF2, ("e1", "e2", "e3"), {(2, 0): {1: 1, 2: 1}}))
    h = line(GF2, 3, (1, 0, 0))
    assert not is_quasi_ideal_oracle(alg, h)
    assert not _reference_oracle(alg, h)
    verdict = is_quasi_ideal(alg, h)
    assert not verdict.holds and verdict.witness[1] == vec(GF2, (0, 0, 1))


def test_oracle_rejects_infinite_fields():
    alg = two_dim_solvable_cyclic(QQ)
    with pytest.raises(UnsupportedField):
        is_quasi_ideal_oracle(alg, zero_subspace(QQ, 2))


def test_quasi_over_infinite_fields():
    solv = two_dim_solvable_cyclic(QQ)
    assert is_quasi_ideal(solv, line(QQ, 2, (1, -1))).holds
    assert is_quasi_ideal(solv, line(QQ, 2, (0, 1))).holds
    assert not is_quasi_ideal(solv, line(QQ, 2, (1, 0))).holds  # not a subalgebra


def test_relative_quasi_ideals():
    kk = k2(GF2)
    fy = line(GF2, 3, (0, 1, 0))
    myz = echelonize(GF2, 3, [vec(GF2, (0, 1, 0)), vec(GF2, (0, 0, 1))])
    assert not is_quasi_ideal(kk, fy).holds
    assert is_quasi_ideal_in(kk, fy, myz).holds
    assert is_quasi_ideal_in(kk, myz, kk.full()).holds


def test_quasi_in_memo_still_checks_its_inputs():
    # the field and ambient dimension of H and M are checked before the
    # memo is read, and H <= M before a verdict is first decided
    alg = non_lie_almost_abelian(GF2, 2)
    h = line(GF2, 3, (1, 0, 0))
    m = echelonize(GF2, 3, [vec(GF2, (1, 0, 0)), vec(GF2, (0, 1, 0))])
    assert is_quasi_ideal_in(alg, h, m) is is_quasi_ideal_in(alg, h, m)
    assert (h.raw_rows, m.raw_rows) in alg._cache["quasi_in"]
    # same raw rows as the cached H, over another field
    with pytest.raises(MixedFields):
        is_quasi_ideal_in(alg, line(GF3, 3, (1, 0, 0)), m)
    with pytest.raises(MixedFields):
        is_quasi_ideal_in(alg, h, echelonize(GF3, 3, [vec(GF3, (1, 0, 0))]))
    with pytest.raises(DimensionMismatch):
        is_quasi_ideal_in(alg, line(GF2, 4, (1, 0, 0, 0)), m)
    # an H outside M, after H has been decided in L
    outside = line(GF2, 3, (0, 0, 1))
    is_quasi_ideal(alg, outside)
    with pytest.raises(DimensionMismatch):
        is_quasi_ideal_in(alg, outside, m)
    assert (outside.raw_rows, m.raw_rows) not in alg._cache["quasi_in"]


def test_oracle_budget_is_checked_every_call():
    # against the 8 vectors of GF(2)^3, on a second call as well
    alg = k2(GF2)
    h = line(GF2, 3, (1, 0, 0))
    is_quasi_ideal_oracle(alg, h)
    with pytest.raises(BudgetExceeded):
        is_quasi_ideal_oracle(alg, h, budget=7)


def test_relative_verdict_in_non_closed_host():
    # [y, x] = z leaves M = span{x, y}, so Fx cannot permute with Fy in M
    kk = k2(GF2)
    m = echelonize(GF2, 3, [vec(GF2, (1, 0, 0)), vec(GF2, (0, 1, 0))])
    fx = line(GF2, 3, (1, 0, 0))
    verdict = is_quasi_ideal_in(kk, fx, m)
    assert not verdict.holds
    _, x, value = verdict.witness
    assert not m.contains_vector(value)
    probe = fx.sum(echelonize(GF2, 3, [x]))
    assert not probe.contains_vector(value)


def _reference_decide(alg, h, m):
    """The decision procedure with nothing shared: every pair of H's basis
    rows is bracketed for closure, and H and every bracket are rewritten in
    M's pivot coordinates and tested for membership in M, whatever M is."""
    field = alg.field
    add, zero = field.raw_add, field.raw_zero
    br = alg.table.raw_bracket
    hrows = h.raw_rows

    def refuted(hrow, x, value):
        witness = tuple(field.wrap(v) for v in (hrow, x, value))
        return QuasiIdealVerdict(False, witness=witness)

    for u in hrows:
        for w in hrows:
            if not h.raw_contains(br(u, w)):
                return refuted(u, w, br(u, w))
    to_m = lambda v: tuple(v[p] for p in m.pivots)
    h_in_m = raw_echelonize(field, m.dim, [to_m(r) for r in hrows])
    comp = h_in_m.non_pivots()
    if not comp:
        return QuasiIdealVerdict(
            True, certificate=tuple((field.zero, field.zero) for _ in hrows)
        )
    reps = [m.raw_rows[c] for c in comp]
    certificate = []
    for hrow in hrows:
        pair = []
        for side in ("right", "left"):
            act = (lambda x: br(x, hrow)) if side == "right" else (lambda x: br(hrow, x))
            images = [act(x) for x in reps]
            for x, w in zip(reps, images):
                if not m.raw_contains(w):
                    return refuted(hrow, x, w)
            t = [h_in_m.raw_reduce(to_m(w)) for w in images]
            for a in range(len(comp)):
                for b, cb in enumerate(comp):
                    if a != b and t[a][cb] != zero:
                        return refuted(hrow, reps[a], images[a])
            diag = [t[i][c] for i, c in enumerate(comp)]
            for i in range(1, len(comp)):
                if diag[i] != diag[0]:
                    x = tuple(map(add, reps[0], reps[i]))
                    return refuted(hrow, x, act(x))
            pair.append(diag[0])
        certificate.append(field.wrap(pair))
    return QuasiIdealVerdict(True, certificate=tuple(certificate))


def _base_changed(alg, rng):
    """alg in the seeded random basis e'_i = sum_a P[i][a] e_a."""
    field, n = alg.field, alg.dim
    elements = list(field.elements())
    units = raw_identity(field, n)
    while True:
        mat = [field.unwrap(rng.choice(elements) for _ in range(n)) for _ in range(n)]
        reduced, pivots = raw_rref(field, [a + b for a, b in zip(mat, units)], 2 * n)
        if pivots == tuple(range(n)):
            break
    inverse = tuple(row[n:] for row in reduced)
    br = alg.table.raw_bracket
    cube = [[raw_combination(field, br(a, b), inverse, n) for b in mat] for a in mat]
    return LeibnizAlgebra(MultiplicationTable(field, n, cube))


@pytest.mark.parametrize("warm", [False, True], ids=["cold_memo", "warm_memo"])
def test_decision_matches_reference_on_every_subspace(family_corpus, warm):
    # every subspace H, closed or not, in M = L and in every proper
    # subspace M that contains it (each subalgebra among them); with the
    # subalgebra memo empty before each H is first decided, or filled by
    # subalgebras() beforehand
    labelled = dict(family_corpus)
    rng = random.Random(14)
    seen = dict.fromkeys(
        ("not_closed", "whole", "proper_holds", "proper_fails", "subalgebra_host"), 0
    )
    for label in (
        "k2/gf2",
        "non_lie_almost_abelian_2/gf3",
        "extraspecial_r2_z1/gf3",
        "non_lie_almost_abelian_3/gf3",
    ):
        alg = _base_changed(labelled[label], rng)
        ref = _fresh(alg)
        spaces = list(enumerate_subspaces(alg.field, alg.dim))
        hosts = [m for m in spaces if m.dim < alg.dim]
        closed = set(m.raw_rows for m in subalgebras(ref))
        if warm:
            subalgebras(alg)
        for h in spaces:
            memo = alg._cache.get("is_subalgebra", {})
            assert (h.raw_rows in memo) == warm
            for m in [alg.full()] + [m for m in hosts if m.contains(h)]:
                verdict = is_quasi_ideal_in(alg, h, m)
                assert verdict == _reference_decide(ref, h, m), (label, h, m)
                if h.raw_rows not in closed:
                    seen["not_closed"] += 1
                elif m.dim == alg.dim:
                    seen["whole"] += 1
                else:
                    seen["proper_" + ("holds" if verdict.holds else "fails")] += 1
                    seen["subalgebra_host"] += m.raw_rows in closed
    assert all(seen.values()), seen


def test_relative_decision_matches_reference_over_infinite_fields():
    # every pair H <= M drawn from the spaces the corpus names on each QQ and
    # GF(2)(t) instance, in its own basis and under the corpus's seed-0
    # base change: the squares ideal, the centre, the lower central and
    # derived series of L, the basis lines and their closures, and the sums
    # of two of them (some not closed, so a bracket can leave the host)
    from perfbench.corpus import base_changed_json, infinite_instances

    seen = dict.fromkeys(("whole", "proper_holds", "proper_fails"), 0)
    for label, standard in infinite_instances():
        dense = base_changed_json(standard, random.Random(f"0/{label}"))
        for alg in (standard, LeibnizAlgebra(table_from_json(dense))):
            _check_relative_verdicts(alg, label, seen)
    assert all(seen.values()), seen


def _check_relative_verdicts(alg, label, seen):
    """Compare every verdict on a pair of the named spaces with the
    reference, on an algebra with fresh memos, and tally the hosts."""
    ref = _fresh(alg)
    field, n = alg.field, alg.dim
    full = alg.full()
    lines = [raw_echelonize(field, n, [e]) for e in raw_identity(field, n)]
    named = [squares_ideal(alg), center(alg), *lines]
    named += [subalgebra_closure(alg, s) for s in lines]
    for kind in ("lower_central", "derived"):
        named += series(alg, full, kind)
    named = list(dict.fromkeys(named))
    sums = [a.sum(b) for a in named for b in named]
    spaces = list(dict.fromkeys([full, *named, *sums]))
    for h in spaces:
        for m in spaces:
            if not m.contains(h):
                continue
            verdict = is_quasi_ideal_in(alg, h, m)
            assert verdict == _reference_decide(ref, h, m), (label, h, m)
            if m == full:
                seen["whole"] += 1
            else:
                seen["proper_" + ("holds" if verdict.holds else "fails")] += 1


def test_holding_relative_verdict_brackets_nothing_new(family_corpus):
    # once H is decided in L its action is memoised, so a verdict in a
    # proper subalgebra host that holds reads every image from it
    checked = 0
    for label, alg in family_corpus:
        alg = _fresh(alg)
        subs = subalgebras(alg)
        products = alg.table._products
        for h in subs:
            is_quasi_ideal(alg, h)
            for m in subs:
                if m.dim == alg.dim or m == h or not m.contains(h):
                    continue
                before = len(products)
                if is_quasi_ideal_in(alg, h, m).holds:
                    assert len(products) == before, (label, h, m)
                    checked += 1
    assert checked


def test_core_fixtures():
    solv = two_dim_solvable_cyclic(GF3)
    fa = line(GF3, 2, (0, 1))
    assert core(solv, fa) == fa  # an ideal is its own core
    assert core(solv, line(GF3, 2, (1, -1))).is_zero()
    alg = non_lie_almost_abelian(GF2, 2)
    hx = echelonize(GF2, 3, [vec(GF2, (0, 0, 1)), vec(GF2, (1, 0, 0))])
    assert core(alg, hx) == line(GF2, 3, (1, 0, 0))
    assert core(alg, alg.full()) == alg.full()


def test_core_is_maximal_ideal_inside(family_corpus):
    for _, alg in family_corpus:
        if alg.field.order**alg.dim > 100:
            continue
        for s in enumerate_subspaces(alg.field, alg.dim):
            c = core(alg, s)
            assert is_ideal(alg, c) and s.contains(c)
            for j in enumerate_subspaces(alg.field, alg.dim):
                if s.contains(j) and is_ideal(alg, j):
                    assert c.contains(j)


def test_core_free_quotient(family_corpus):
    from quasileib.algebra import quotient

    for _, alg in family_corpus[:10]:
        for s in subalgebras(alg):
            c = core(alg, s)
            if c.is_zero() or c == s:
                continue
            q = quotient(alg, c)
            comp = c.non_pivots()
            projected = [tuple(c.reduce(r)[i] for i in comp) for r in s.rows]
            image = echelonize(q.field, q.dim, projected)
            assert core(q, image).is_zero()


def _fresh(alg):
    """The same table in a new algebra, with every memo empty."""
    table = MultiplicationTable(alg.field, alg.dim, alg.table.raw, alg.basis_names)
    return LeibnizAlgebra(table, _checked=True)


def _core_by_fixpoint(alg, h):
    """The core by iterating N_{k+1} = {v in N_k : [v, e_j], [e_j, v] in N_k}
    until a step returns N_k itself, with no memo and no ideal test."""
    field, n = alg.field, alg.dim
    br = alg.table.raw_bracket
    units = raw_identity(field, n)
    cur = h
    while not cur.is_zero():
        rows = []
        for b in cur.raw_rows:
            flat = []
            for e in units:
                flat.extend(cur.raw_reduce(br(b, e)))
                flat.extend(cur.raw_reduce(br(e, b)))
            rows.append(flat)
        kernel = raw_left_kernel(field, rows)
        gens = [raw_combination(field, c, cur.raw_rows, n) for c in kernel.raw_rows]
        nxt = raw_echelonize(field, n, gens)
        if nxt == cur:
            break
        cur = nxt
    return cur


def test_memoised_facts_match_a_fresh_algebra(family_corpus, gf3_dim3_census):
    # every fact is asked twice of one warmed algebra, so the second answer
    # reads its memos (core its ideal tests); a fresh copy of the table
    # decides it from scratch
    corpus = [
        (label, alg) for label, alg in family_corpus if alg.field.order**alg.dim <= 100
    ]
    lemma_harness(corpus)
    representatives = [entry.algebra for entry in gf3_dim3_census.classes]
    assert len(representatives) == 27
    kinds = ("lower_central", "derived", "omega_of_square")
    for alg in [alg for _, alg in corpus] + representatives:
        subspaces = list(enumerate_subspaces(alg.field, alg.dim))
        closed = subalgebras(alg)
        vectors = list(itertools.product(alg.field.elements(), repeat=alg.dim))
        answers = []
        for _ in range(2):
            cores = [core(alg, s) for s in subspaces]
            ideals = [is_ideal(alg, s) for s in subspaces]
            engel = [is_left_engel(alg, x) for x in vectors]
            wholes = (center(alg), squares_ideal(alg))
            chains = [series(alg, s, kind) for s in closed for kind in kinds]
            quotients = [(j, quotient(alg, j)) for j, ok in zip(subspaces, ideals) if ok]
            answers.append((wholes, chains, quotients))
        # the second answers are the first
        assert answers[0][:2] == answers[1][:2]
        for (_, first), (_, second) in zip(answers[0][2], answers[1][2]):
            assert second.table == first.table
        for s, c, ideal in zip(subspaces, cores, ideals):
            assert c == core(_fresh(alg), s) == _core_by_fixpoint(_fresh(alg), s)
            assert ideal == is_ideal(_fresh(alg), s)
        for x, e in zip(vectors, engel):
            assert e == is_left_engel(_fresh(alg), x)
        assert wholes == (center(_fresh(alg)), squares_ideal(_fresh(alg)))
        for (s, kind), chain in zip(itertools.product(closed, kinds), chains):
            assert chain == series(_fresh(alg), s, kind)
        for j, q in quotients:
            assert q.table.to_json() == quotient(_fresh(alg), j).table.to_json()


def test_fact_memos_still_check_their_inputs():
    # zero subspaces of other spaces share the memo key (), and a vector
    # over GF(3) can have the echelon row of a cached GF(2) line, so the
    # field and ambient checks must run on every call
    alg = two_dim_solvable_cyclic(GF2)
    zero = zero_subspace(GF2, 2)
    assert is_ideal(alg, zero) and core(alg, zero).is_zero()
    assert is_subalgebra(alg, zero)
    assert not is_left_engel(alg, vec(GF2, (1, 0)))
    assert series(alg, zero) == [zero]
    assert quotient(alg, zero).dim == 2
    assert () in alg._cache["action"]
    assert () in alg._cache["is_subalgebra"] and () in alg._cache["core"]
    for fact in (is_ideal, is_subalgebra, core, action, series, quotient):
        with pytest.raises(DimensionMismatch):
            fact(alg, zero_subspace(GF2, 3))
        with pytest.raises(MixedFields):
            fact(alg, zero_subspace(GF3, 2))
    with pytest.raises(DimensionMismatch):
        is_left_engel(alg, vec(GF2, (1, 0, 0)))
    with pytest.raises(MixedFields):
        is_left_engel(alg, vec(GF3, (1, 0)))
    # the closure and ideal tests run on every call too, not only on the
    # first one; a subspace that fails one is never memoised
    spaces = list(enumerate_subspaces(GF2, 2))
    open_space = next(s for s in spaces if not is_subalgebra(alg, s))
    loose = next(s for s in spaces if not is_ideal(alg, s))
    for _ in range(2):
        with pytest.raises(NotASubalgebra):
            series(alg, open_space, "derived")
        with pytest.raises(NotAnIdeal):
            quotient(alg, loose)
    # a returned series is the caller's own list
    chain = series(alg, kind="derived")
    want = list(chain)
    chain[0] = zero
    chain.append(zero)
    assert series(alg, kind="derived") == want


def test_fact_memos_accept_an_equal_field_built_apart():
    # a field equal to the algebra's but not the same object takes the full
    # equality test, and then reads the entries that its twin over GF2 left
    other = PrimeField(2)
    assert other is not GF2 and other == GF2
    alg = k2(GF2)
    spaces = list(enumerate_subspaces(GF2, alg.dim))
    points = list(itertools.product(range(2), repeat=alg.dim))

    def facts(s):
        return (
            bracket_subspaces(alg, s, s),
            action(alg, s),
            is_quasi_ideal_in(alg, s),
            is_ideal(alg, s),
            is_subalgebra(alg, s),
            core(alg, s),
        )

    warm = [facts(s) for s in spaces]
    engel = [is_left_engel(alg, vec(GF2, x)) for x in points]
    sizes = _memo_sizes(alg)
    for s, want in zip(spaces, warm):
        got = facts(Subspace(other, s.ambient_dim, s.raw_rows, s.pivots))
        assert all(a is b for a, b in zip(got[:3], want[:3]))
        assert got[3:] == want[3:]
    assert [is_left_engel(alg, vec(other, x)) for x in points] == engel
    assert _memo_sizes(alg) == sizes


def _memo_sizes(alg):
    return {k: len(memo) for k, memo in alg._cache.items() if isinstance(memo, dict)}


def _is_ideal_by_definition(alg, s):
    """[v, x] and [x, v] in S for every element v of S and x of L over
    GF(p), every product summed from the structure constants."""
    p, n, d = alg.field.p, alg.dim, s.dim
    cube = np.array(alg.table.raw, dtype=np.int64).reshape(n, n, n)
    vectors = np.array(list(itertools.product(range(p), repeat=n))).reshape(p**n, n)
    coeffs = np.array(list(itertools.product(range(p), repeat=d))).reshape(p**d, d)
    members = coeffs @ np.array(s.raw_rows, dtype=np.int64).reshape(d, n) % p
    weights = p ** np.arange(n)
    inside = set((members @ weights).tolist())
    for a, b in ((members, vectors), (vectors, members)):
        products = np.einsum("ai,bj,ijk->abk", a, b, cube) % p
        if not set((products.reshape(-1, n) @ weights).tolist()) <= inside:
            return False
    return True


def test_is_ideal_matches_the_definition_on_every_small_subspace(family_corpus):
    # each verdict is first decided on a fresh algebra (its action memo
    # empty), then read from an algebra whose memos the harness and core
    # filled through their own routes
    seen = {True: 0, False: 0}
    for label, alg in family_corpus:
        if alg.field.order**alg.dim > 100:
            continue
        spaces = list(enumerate_subspaces(alg.field, alg.dim))
        want = [_is_ideal_by_definition(alg, s) for s in spaces]
        cold = _fresh(alg)
        assert [is_ideal(cold, s) for s in spaces] == want, label
        warm = _fresh(alg)
        lemma_harness([(label, warm)])
        for s in spaces:
            core(warm, s)
        assert all(s.raw_rows in warm._cache["action"] for s in spaces)
        assert [is_ideal(warm, s) for s in spaces] == want, label
        for verdict in want:
            seen[verdict] += 1
    assert seen[True] and seen[False], seen


def test_action_is_the_reduced_basis_brackets(family_corpus):
    # the pair of each basis row u is ([u, e_j] mod S, [e_j, u] mod S) in
    # that order, from the scalar bracket and reduction
    for label, alg in family_corpus:
        if alg.field.order**alg.dim > 100:
            continue
        field = alg.field
        units = [alg.basis_vector(j) for j in range(alg.dim)]
        for s in enumerate_subspaces(field, alg.dim):
            want = tuple(
                (
                    tuple(field.unwrap(s.reduce(alg.bracket(u, e))) for e in units),
                    tuple(field.unwrap(s.reduce(alg.bracket(e, u))) for e in units),
                )
                for u in s.rows
            )
            assert action(alg, s) == want, (label, s)


def _reference_reflection(alg, h):
    """The reflection clause by membership tests of the raw brackets."""
    br = alg.table.raw_bracket
    ok, detail = True, None
    for hrow, raw_hrow in zip(h.rows, h.raw_rows):
        for j, x in enumerate(raw_identity(alg.field, alg.dim)):
            if h.raw_contains(br(x, raw_hrow)):
                if not h.raw_contains(br(raw_hrow, x)):
                    ok, detail = False, f"basis pair (h={hrow}, x=e{j+1})"
                    break
    return ("pass" if ok else "fail", detail)


def _reference_engel(alg, h):
    """The Engel clause through the public is_left_engel."""
    if all(is_left_engel(alg, hrow) for hrow in h.rows):
        return ("pass" if is_ideal(alg, h) else "fail", None)
    return ("vacuous", "some basis generator is not left Engel")


def _suite_cases(alg, min_m=2):
    """Every quasi-ideal without a chain, then every subalgebra with a
    subquasi chain of at least ``min_m`` steps, as the harness takes them
    for ``min_m`` = 2."""
    cases = [(h, None) for h in quasi_ideals(alg)]
    for s in subalgebras(alg):
        chain = subquasi_chain(alg, s)
        if chain is not None and chain.m >= min_m:
            cases.append((s, chain))
    return cases


def test_lemma_suite_matches_the_clause_loops(family_corpus):
    # every quasi-ideal and every subalgebra with a chain of length >= 2;
    # the reference decides each clause on a fresh copy of the algebra
    seen = set()
    for label, alg in family_corpus:
        for h, chain in _suite_cases(alg):
            got = lemma_suite(alg, h, chain)
            ref = _fresh(alg)
            if is_quasi_ideal(ref, h).holds:
                reflection, engel = _reference_reflection(ref, h), _reference_engel(ref, h)
            else:
                reflection = ("skipped", "not a direct quasi-ideal")
                engel = ("skipped", "needs m = 1")
            if _core_by_fixpoint(ref, h).is_zero():
                nilpotent = series(ref, h, "omega_of_square")[-1].is_zero()
                corefree = ("pass" if nilpotent else "fail", None)
            else:
                corefree = ("vacuous", "core is nonzero")
            assert got["reflected_brackets"] == reflection, (label, h)
            assert got["engel_generated_is_ideal"] == engel, (label, h)
            assert got["corefree_square_nilpotent"] == corefree, (label, h)
            seen.update((chain is None, clause[0]) for clause in (reflection, engel))
    assert seen >= {(True, "pass"), (True, "vacuous"), (False, "skipped")}, seen


# pinned from the suite that spelled each gate out per clause
PINNED_STATUSES = {"pass": 14278, "skipped": 2912, "vacuous": 5643}
PINNED_DIGEST = "9d7b1ad5a01c162fd777d5dd50447cbdf5a999799f9509c967275a89fd448e75"


def test_lemma_suite_clauses_are_pinned(family_corpus, gf3_dim3_census):
    # every clause's (name, status, detail), in insertion order, for each
    # quasi-ideal and each chained subalgebra (m = 0, 1 and >= 2) of the
    # family corpus and of the 27 GF(3) dim-3 census classes; the status
    # counts say which outcome moved when the digest does
    classes = [entry.algebra for entry in gf3_dim3_census.classes]
    assert len(classes) == 27
    digest, statuses = hashlib.sha256(), Counter()
    for alg in [alg for _, alg in family_corpus] + classes:
        for h, chain in _suite_cases(alg, min_m=0):
            for name, (status, detail) in lemma_suite(alg, h, chain).items():
                digest.update(f"{name}\t{status}\t{detail}\n".encode())
                statuses[status] += 1
    assert statuses == PINNED_STATUSES
    assert digest.hexdigest() == PINNED_DIGEST


def test_engel_verdict_depends_only_on_the_line(family_corpus):
    # every vector of a line, whatever its multiple, gets one verdict, the
    # same after is_engel_algebra and the Engel clause have filled the
    # bracket memos as on a fresh algebra, and is_engel_algebra holds
    # exactly when every line's verdict does
    for label, alg in family_corpus:
        if alg.field.order**alg.dim > 100:
            continue
        warm, cold = _fresh(alg), _fresh(alg)
        field, n = alg.field, alg.dim
        report = is_engel_algebra(warm)
        for h in quasi_ideals(warm):
            lemma_suite(warm, h)
        verdicts = {}
        for x in itertools.product(field.elements(), repeat=n):
            line = echelonize(field, n, [x]).raw_rows
            got = is_left_engel(warm, x)
            assert got == is_left_engel(cold, x), (label, x)
            verdicts.setdefault(line, set()).add(got)
        lines = (field.order**n - 1) // (field.order - 1)
        assert len(verdicts) == lines + 1, label  # and the zero vector's ()
        assert all(len(v) == 1 for v in verdicts.values()), label
        assert verdicts[()] == {True}, label
        assert report.holds == all(v == {True} for v in verdicts.values()), label


def test_core_of_an_ideal_computes_no_kernel(monkeypatch):
    import quasileib.quasi as quasi_module

    calls = []

    def counted(*args):
        calls.append(args)
        return raw_left_kernel(*args)

    monkeypatch.setattr(quasi_module, "raw_left_kernel", counted)
    alg = non_lie_almost_abelian(GF3, 2)
    subs = subalgebras(alg)
    ideals = [s for s in subs if is_ideal(alg, s)]
    assert len(ideals) > 2
    for j in ideals:
        assert core(alg, j) == j
    assert calls == []
    # a non-ideal still takes at least one kernel step
    h = next(s for s in subs if not is_ideal(alg, s))
    assert core(alg, h) != h
    assert calls


def test_left_engel_fixtures():
    solv = two_dim_solvable_cyclic(GF3)
    assert not is_left_engel(solv, vec(GF3, (1, 0)))
    assert is_left_engel(solv, vec(GF3, (0, 1)))
    nil = two_dim_nilpotent_cyclic(GF3)
    report = is_engel_algebra(nil)
    assert report == (True, None)
    solv_report = is_engel_algebra(solv)
    assert not solv_report.holds and solv_report.counterexample is not None


def test_engel_algebra_enumerates_or_refuses():
    # every projective point of F^n is decided, or none: an infinite field
    # and a budget below the q^n vectors are refused before the first line
    with pytest.raises(UnsupportedField):
        is_engel_algebra(two_dim_nilpotent_cyclic(QQ))
    nil = two_dim_nilpotent_cyclic(PrimeField(5))
    refusal = r"^projective points of F\^2: 25 exceeds budget 24$"
    with pytest.raises(BudgetExceeded, match=refusal):
        is_engel_algebra(nil, budget=24)
    assert "bracket_subspaces" not in nil._cache
    assert is_engel_algebra(nil, budget=25).holds
    assert EngelReport._fields == ("holds", "counterexample")


def test_reading_an_unwritten_memo_raises():
    # _cache is a plain dict: a name no code writes is absent after a full
    # analysis, and reading it raises instead of creating an empty table
    alg = almost_abelian_lie(GF3, 3)
    assert alg._cache == {}
    for h in quasi_ideals(alg):
        lemma_suite(alg, h)
    is_engel_algebra(alg)
    is_left_engel(alg, vec(GF3, (1, 0, 0)))
    assert alg._cache
    with pytest.raises(KeyError):
        alg._cache["is_left_engel"]
    assert "is_left_engel" not in alg._cache


def _reference_descent(absorbs, terms, start, low, gap, tag=None):
    """The descent scan of lemma_suite before it stopped at the first
    clamped n: every n from start to len(terms) + 2."""
    last = len(terms)
    for n in range(start, last + 3):
        k = n + low
        outer, inner = terms[min(k, last) - 1], terms[min(k + gap, last) - 1]
        if not absorbs(outer, inner):
            return (FAIL, f"n={n}" if tag is None else f"{tag}, n={n}")
    return (PASS, tag)


def test_descent_matches_the_full_scan_on_any_predicate():
    # every series length and shift lemma_suite can ask for, under random
    # absorption predicates, so that failures and their n are compared too
    rng = random.Random(29)
    seen = Counter()
    for last in range(1, 6):
        terms = list(range(last))
        for start, low, gap in itertools.product((1, 2), (-1, 0, 1, 2, 3), (1, 2, 3)):
            if start + low < 1:
                continue
            for _ in range(12):
                table = {pair: rng.random() < 0.8 for pair in itertools.product(terms, repeat=2)}
                absorbs = lambda outer, inner: table[outer, inner]
                for tag in (None, "m=2"):
                    got = _descent(absorbs, terms, start, low, gap, tag)
                    assert got == _reference_descent(absorbs, terms, start, low, gap, tag)
                    seen[got[0]] += 1
    assert seen[PASS] and seen[FAIL]


def test_lemma_suite_matches_the_full_descent_scan(monkeypatch, gf3_dim3_census):
    # every quasi-ideal and every m >= 2 chain of the finite seed-0 corpus
    # and of the GF(2) and GF(3) dim-3 census classes
    from perfbench.corpus import build

    algebras = [
        LeibnizAlgebra(table_from_json(obj))
        for _, obj in build(0)
        if obj["field"]["kind"] == "prime"
    ]
    assert len(algebras) == 35
    algebras += gf2_dim3_class_representatives()
    algebras += [
        LeibnizAlgebra(MultiplicationTable(GF3, 3, entry.algebra.table.raw))
        for entry in gf3_dim3_census.classes
    ]
    suites = Counter()
    for alg in algebras:
        cases = [(h, None) for h in quasi_ideals(alg)]
        for s in subalgebras(alg):
            chain = subquasi_chain(alg, s)
            if chain is not None and chain.m >= 2:
                cases.append((s, chain))
        for h, chain in cases:
            got = lemma_suite(alg, h, chain)
            with monkeypatch.context() as patched:
                patched.setattr(quasi, "_descent", _reference_descent)
                assert lemma_suite(alg, h, chain) == got, (alg, h, chain)
            suites["chain" if chain else "quasi-ideal"] += 1
    assert suites == {"quasi-ideal": 1351, "chain": 175}


def test_nilpotent_algebras_are_engel(family_corpus):
    for _, alg in family_corpus:
        if is_nilpotent(alg):
            assert is_engel_algebra(alg).holds


def test_subquasi_chain_fixtures():
    kk = k2(GF2)
    assert subquasi_chain(kk, kk.full()).m == 0
    fz = line(GF2, 3, (0, 0, 1))
    assert subquasi_chain(kk, fz).m == 1
    for s in subalgebras(kk):
        chain = subquasi_chain(kk, s)
        assert chain is not None and chain.m <= 2
        for lo, hi in zip(chain.chain, chain.chain[1:]):
            assert is_quasi_ideal_in(kk, lo, hi).holds
    fy = line(GF2, 3, (0, 1, 0))
    assert subquasi_chain(kk, fy).m == 2


def test_quasi_ideal_chain_of_length_one():
    alg = non_lie_almost_abelian(GF2, 2)
    h = line(GF2, 3, (0, 0, 1))
    chain = subquasi_chain(alg, h)
    assert chain.m == 1


def _reference_subquasi_bfs(alg):
    """The breadth-first search as first written: every frontier member
    re-tests every subalgebra for a depth already assigned."""
    subs = subalgebras(alg)
    full = alg.full()
    depth = {full: 0}
    parent = {full: None}
    frontier = [full]
    while frontier:
        nxt = []
        for m in frontier:
            for s in subs:
                if s in depth or s.dim >= m.dim or not m.contains(s):
                    continue
                if is_quasi_ideal_in(alg, s, m).holds:
                    depth[s] = depth[m] + 1
                    parent[s] = m
                    nxt.append(s)
        frontier = nxt
    return depth, parent


def test_subquasi_bfs_matches_reference_loop(family_corpus):
    for label, alg in family_corpus:
        alg._cache.pop("subquasi_bfs", None)
        parent = _subquasi_bfs(alg, DEFAULT_BUDGET)
        want_depth, want_parent = _reference_subquasi_bfs(alg)
        # same parents, placed in the same order, and the chains they give
        # have the reference depths
        assert list(parent.items()) == list(want_parent.items()), label
        for s, d in want_depth.items():
            assert subquasi_chain(alg, s).m == d, label


def _failed(clauses):
    return [name for name, (status, _) in clauses.items() if status == "fail"]


def test_lemma_suite_on_k2_center_line():
    kk = k2(GF2)
    fz = line(GF2, 3, (0, 0, 1))
    clauses = lemma_suite(kk, fz)
    assert not _failed(clauses)
    assert clauses["square_bracket_absorbed"][0] == "pass"
    assert clauses["reflected_brackets"][0] == "pass"


def test_lemma_suite_ideal_inputs_trivial(family_corpus):
    for _, alg in family_corpus[:8]:
        for s in subalgebras(alg):
            if is_ideal(alg, s):
                assert not _failed(lemma_suite(alg, s))


def test_lemma_suite_chain_variant():
    kk = k2(GF2)
    fy = line(GF2, 3, (0, 1, 0))
    chain = subquasi_chain(kk, fy)
    clauses = lemma_suite(kk, fy, chain)
    assert not _failed(clauses)
    assert clauses["chain_square_power_absorbed"][0] in ("pass", "vacuous")


def test_lemma_suite_precondition():
    kk = k2(GF2)
    fy = line(GF2, 3, (0, 1, 0))  # not a quasi-ideal, no chain given
    with pytest.raises(PreconditionUnverified):
        lemma_suite(kk, fy)


def test_reflected_brackets_on_all_quasi_ideals(family_corpus):
    for _, alg in family_corpus:
        for h in quasi_ideals(alg):
            for hrow in h.rows:
                for j in range(alg.dim):
                    x = alg.basis_vector(j)
                    if h.contains_vector(alg.bracket(x, hrow)):
                        assert h.contains_vector(alg.bracket(hrow, x))


def test_quasi_ideals_listing():
    alg = non_lie_almost_abelian(GF2, 2)
    found = quasi_ideals(alg)
    # 0, three lines in I, I, Fh, three planes Fh + (line in I), L
    assert len(found) == 10
    dims = sorted(s.dim for s in found)
    assert dims == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]


def test_result_records():
    # truth follows the verdict
    assert bool(QuasiIdealVerdict(False)) is False
    assert bool(EngelReport(True)) is True
    assert bool(EngelReport(False, None)) is False
    # keyword construction with the other fields left at None, as the
    # reference decision procedure builds verdicts
    refuted = QuasiIdealVerdict(False, witness=("h", "x", "value"))
    held = QuasiIdealVerdict(True, certificate=())
    assert refuted.certificate is None and refuted.witness == ("h", "x", "value")
    assert held.holds and held.witness is None
    assert refuted == QuasiIdealVerdict(False, None, ("h", "x", "value")) != held
    # mutable defaults are fresh per instance
    first, second = HarnessReport(), HarnessReport()
    first.algebras += 1
    first.failures.append({"clause": "x"})
    assert (second.algebras, second.clauses_checked, second.failures) == (0, 0, [])
    assert not first.ok() and second.ok()
    # frozen records refuse assignment, to a field or to a new attribute
    alg = two_dim_solvable_cyclic(GF3)
    census = sweep_tables(GF3, 2)
    frozen = [
        (QuasiIdealVerdict(True), "holds"),
        (EngelReport(True), "counterexample"),
        (SubquasiChain((alg.full(),)), "chain"),
        (ValidationResult(True, "right"), "ok"),
        (ClassificationResult("abelian", {}, {}), "verdict"),
        (census.classes[0], "in_q"),
        (census, "totals"),
    ]
    for record, name in frozen:
        for attr in (name, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, attr, None)
