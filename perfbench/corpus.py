"""The ``family_corpus`` workload: every catalogued family instance, each
under one seeded random base change, sent through the library one algebra
at a time.

The finite part is the corpus the test suite sweeps (every family instance
over GF(2) and GF(3) up to dimension 4, 35 algebras).  The infinite part is
every constructor that accepts QQ or GF(2)(t), at dimensions 2 to 5.  A
base change makes the sparse family tables dense, so the requests exercise
the decision procedure, subspace enumeration and exact arithmetic on tables
no census produces; QQ and GF(2)(t) carry the non-prime arithmetic that no
census touches.

Inputs are built before timing starts and handed to :func:`request` as the
algebra JSON format.  Only the public library API is used.
"""

from __future__ import annotations

import hashlib
import json
import random

from quasileib.algebra import (
    LeibnizAlgebra,
    center,
    series,
    squares_ideal,
    subalgebra_closure,
    subalgebras,
    table_from_json,
)
from quasileib.census import classify_q_member, in_class_q, lemma_harness
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
from quasileib.fields import GF2, GF3, QQ, FunctionField
from quasileib.linalg import echelonize
from quasileib.quasi import core, is_quasi_ideal, is_quasi_ideal_oracle, quasi_ideals

F2T = FunctionField(2)


def finite_instances(max_dim: int = 4):
    """Every family instance over GF(2) and GF(3) of dimension <= max_dim,
    in the order the test suite lists them."""
    out = []
    for fld, tag in ((GF2, "gf2"), (GF3, "gf3")):
        for d in range(1, max_dim + 1):
            out.append((f"abelian_{d}/{tag}", abelian(fld, d)))
        for d in range(2, max_dim + 1):
            out.append((f"almost_abelian_lie_{d}/{tag}", almost_abelian_lie(fld, d)))
        for k in range(1, max_dim):
            out.append(
                (f"non_lie_almost_abelian_{k}/{tag}", non_lie_almost_abelian(fld, k))
            )
        out.append((f"two_dim_nilpotent_cyclic/{tag}", two_dim_nilpotent_cyclic(fld)))
        out.append((f"two_dim_solvable_cyclic/{tag}", two_dim_solvable_cyclic(fld)))
        for rank in (1, 2):
            gram = default_anisotropic_gram(fld, rank)
            for dim_z in range(0, max_dim - rank):
                out.append(
                    (
                        f"extraspecial_r{rank}_z{dim_z}/{tag}",
                        extraspecial_sum(fld, gram, dim_z=dim_z),
                    )
                )
    out.append(("k2/gf2", k2(GF2)))
    return out


def infinite_instances(min_dim: int = 2, max_dim: int = 5):
    """Every constructor that accepts QQ or GF(2)(t), at dimensions
    min_dim..max_dim."""
    out = []
    for fld, tag in ((QQ, "q"), (F2T, "gf2t")):
        for d in range(min_dim, max_dim + 1):
            out.append((f"abelian_{d}/{tag}", abelian(fld, d)))
            out.append((f"almost_abelian_lie_{d}/{tag}", almost_abelian_lie(fld, d)))
            out.append(
                (f"non_lie_almost_abelian_{d - 1}/{tag}", non_lie_almost_abelian(fld, d - 1))
            )
        out.append((f"two_dim_nilpotent_cyclic/{tag}", two_dim_nilpotent_cyclic(fld)))
        out.append((f"two_dim_solvable_cyclic/{tag}", two_dim_solvable_cyclic(fld)))
        for rank in (1, 2):
            gram = default_anisotropic_gram(fld, rank)
            for dim_z in range(max(0, min_dim - rank - 1), max_dim - rank):
                out.append(
                    (
                        f"extraspecial_r{rank}_z{dim_z}/{tag}",
                        extraspecial_sum(fld, gram, dim_z=dim_z),
                    )
                )
    t = F2T.t
    out.append(("k2/gf2t", k2(F2T)))
    # [c,c] = lambda z needs lambda and lambda + (square) off the squares;
    # t, t + 1 and t**3 + t are three such coefficients
    out.append(("char2_nonperfect_t/gf2t", char2_nonperfect(F2T)))
    out.append(("char2_nonperfect_t3t/gf2t", char2_nonperfect(F2T, (t * t * t + t,))))
    out.append(("char2_nonperfect_minimal_t1/gf2t", char2_nonperfect_minimal(F2T, t + 1)))
    return out


def _random_base_change(field, n, rng):
    """An invertible n x n matrix P = D S U and its inverse, as rows of
    scalars: U the unit upper triangular matrix with every entry above the
    diagonal 1, S a random permutation, D a random diagonal of units.

    U makes every table dense; D S only relabels and rescales the dense
    basis.  So each seed writes the table in another basis while the
    amount of arithmetic, and the coefficient sizes over QQ and GF(2)(t),
    stay about the same from seed to seed.
    """
    zero, one = field.zero, field.one
    if field.is_finite:
        units = [s for s in field.elements() if s]
    elif field == QQ:
        units = [one, -one]
    else:
        units = [one]
    perm = rng.sample(range(n), n)
    scale = [rng.choice(units) for _ in range(n)]
    # row i of D S U is scale[i] times row perm[i] of U
    p = [[scale[i] if j >= perm[i] else zero for j in range(n)] for i in range(n)]
    return p, _inverse(p, zero, one)


def _inverse(a, zero, one):
    """Gauss-Jordan inverse of an invertible matrix of scalars."""
    n = len(a)
    m = [list(row) + [one if r == i else zero for r in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if m[r][col])
        m[col], m[piv] = m[piv], m[col]
        inv = one / m[col][col]
        m[col] = [inv * x for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [row[n:] for row in m]


def base_changed_json(alg, rng):
    """The algebra's table in the basis f_i = sum_a P[i][a] e_a, as the
    algebra JSON format."""
    field, n, cube = alg.field, alg.dim, alg.table.cube
    zero = field.zero
    p, pinv = _random_base_change(field, n, rng)
    new_cube = []
    for i in range(n):
        row = []
        for j in range(n):
            # [f_i, f_j] in e-coordinates, then in f-coordinates via P^-1
            v = [zero] * n
            for a in range(n):
                if not p[i][a]:
                    continue
                for b in range(n):
                    c = p[i][a] * p[j][b]
                    if not c:
                        continue
                    v = [x + c * y for x, y in zip(v, cube[a][b])]
            row.append(
                [sum((v[k] * pinv[k][l] for k in range(n)), zero) for l in range(n)]
            )
        new_cube.append(row)
    return {
        "field": field.to_json(),
        "dim": n,
        "basis_names": [f"f{i + 1}" for i in range(n)],
        "table": [[[s.to_json() for s in v] for v in row] for row in new_cube],
    }


def build(seed: int):
    """(label, algebra JSON) for every corpus instance under the seed's base
    change, in an order drawn from the seed; the same seed gives the same
    inputs.  The shuffle spreads any slow stretch of the host over requests
    of every size instead of one end of the list."""
    out = []
    for label, alg in finite_instances() + infinite_instances():
        rng = random.Random(f"{seed}/{label}")
        out.append((label, base_changed_json(alg, rng)))
    random.Random(seed).shuffle(out)
    return out


def standard_json():
    """(label, algebra JSON) for every corpus instance in its own basis."""
    return [
        (label, alg.table.to_json())
        for label, alg in finite_instances() + infinite_instances()
    ]


def _space(alg, s):
    """Basis-independent facts about a subalgebra: its dimension, the
    quasi-ideal verdict, the dimension of its core and its series."""
    return {
        "dim": s.dim,
        "quasi_ideal": is_quasi_ideal(alg, s).holds,
        "core_dim": core(alg, s).dim,
        "lower_central_dims": [t.dim for t in series(alg, s, "lower_central")],
        "derived_dims": [t.dim for t in series(alg, s, "derived")],
    }


def request(label, obj):
    """One algebra through the library.  Returns (invariants, output): the
    invariants do not depend on the basis the table is written in; the
    output holds everything the request computed."""
    alg = LeibnizAlgebra(table_from_json(obj))
    verdict = classify_q_member(alg)
    invariants = {"verdict": verdict.verdict, "params": verdict.params}
    output = {"classification": verdict.to_json()}
    field, n = alg.field, alg.dim
    if field.is_finite:
        subs = subalgebras(alg)
        quasis = quasi_ideals(alg)
        in_q, _ = in_class_q(alg)
        mismatches = sum(
            is_quasi_ideal(alg, s).holds != is_quasi_ideal_oracle(alg, s) for s in subs
        )
        harness = lemma_harness([(label, alg)])
        invariants.update(
            subalgebra_count=len(subs), quasi_ideal_count=len(quasis), in_q=in_q
        )
        output.update(
            subalgebras=[s.to_json() for s in subs],
            quasi_ideals=[s.to_json() for s in quasis],
            oracle_mismatches=mismatches,
            lemma_harness=harness.to_json(),
        )
    else:
        full = alg.full()
        named = {"squares_ideal": squares_ideal(alg), "center": center(alg)}
        for kind in ("lower_central", "derived"):
            for i, term in enumerate(series(alg, full, kind)):
                named[f"{kind}_{i}"] = term
        invariants["spaces"] = {name: _space(alg, s) for name, s in named.items()}
        closures = [
            subalgebra_closure(alg, echelonize(field, n, [alg.basis_vector(i)]))
            for i in range(n)
        ]
        output.update(
            spaces=invariants["spaces"],
            basis_line_closures=[
                dict(_space(alg, s), basis=s.to_json()) for s in closures
            ],
        )
    return invariants, output


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def check(label, invariants, output, pinned, pinned_digest):
    """Problems with one request's results, as a list of strings."""
    problems = []
    if invariants != pinned:
        problems.append(f"{label}: {invariants} differs from the pinned {pinned}")
    if output.get("oracle_mismatches"):
        problems.append(f"{label}: {output['oracle_mismatches']} oracle mismatches")
    harness = output.get("lemma_harness")
    if harness is not None and harness["failures"]:
        problems.append(f"{label}: lemma failures {harness['failures']}")
    if pinned_digest is not None and digest(output) != pinned_digest:
        problems.append(f"{label}: output digest differs from the pinned one")
    return problems
