import itertools

import pytest

from quasileib.algebra import (
    center,
    is_abelian,
    is_lie,
    is_nilpotent,
    is_solvable,
    quotient,
    squares_ideal,
    subalgebras,
    validate,
)
from quasileib.errors import (
    BadCharacteristic,
    BadDimension,
    IsotropicForm,
    MixedFields,
    SquareLambda,
    VerificationFailed,
)
from quasileib.families import (
    abelian,
    almost_abelian_lie,
    build,
    char2_nonperfect,
    char2_nonperfect_minimal,
    default_anisotropic_gram,
    extraspecial_sum,
    k2,
    non_lie_almost_abelian,
    two_dim_catalogue,
    two_dim_solvable_cyclic,
)
from quasileib.fields import GF2, GF3, QQ, FunctionField, PrimeField, Scalar
from quasileib.fracfields import artin_schreier_root, char2_diagonal_anisotropic
from quasileib.linalg import echelonize, evaluate_form, is_anisotropic, vec
from quasileib.quasi import is_quasi_ideal
from tests.conftest import SYMMETRIC_FAMILIES

F2T = FunctionField(2)


def test_every_constructor_validates(nine_families):
    for name, alg in nine_families.items():
        assert validate(alg.table, "right").ok, name


def test_symmetric_families_pass_left_identity(nine_families):
    for name in SYMMETRIC_FAMILIES:
        assert validate(nine_families[name].table, "left").ok, name


def test_char2_minimal_shape():
    alg = char2_nonperfect_minimal(F2T)  # basis c, z, h
    t = F2T.t
    assert alg.basis_names == ("c", "z", "h")
    assert alg.bracket(vec(F2T, (1, 0, 0)), vec(F2T, (1, 0, 0))) == (
        F2T.zero,
        t,
        F2T.zero,
    )
    assert alg.bracket(vec(F2T, (0, 0, 1)), vec(F2T, (0, 0, 1))) == vec(
        F2T, (0, 1, 0)
    )
    assert alg.bracket(vec(F2T, (1, 0, 0)), vec(F2T, (0, 0, 1))) == vec(
        F2T, (1, 0, 0)
    )
    assert squares_ideal(alg) == echelonize(F2T, 3, [vec(F2T, (0, 1, 0))])
    assert center(alg) == squares_ideal(alg)


def test_char2_squares_never_vanish_off_center():
    # [u,u] = (lambda a^2 + b^2) z for u = a c + b h + g z; nonzero whenever
    # (a, b) != 0 because lambda is not a square
    alg = char2_nonperfect_minimal(F2T)
    t = F2T.t
    samples = [
        (t, F2T.one),
        (F2T.one, t),
        (t + 1, t * t),
        (F2T.one / (t + 1), t / (t + 1)),
        (F2T.one, F2T.zero),
        (F2T.zero, t),
    ]
    for a, b in samples:
        for g in (F2T.zero, F2T.one, t):
            u = (a, g, b)
            sq = alg.bracket(u, u)
            if a or b:
                assert any(sq)
                assert sq == (F2T.zero, t * a * a + b * b, F2T.zero)


def test_two_dim_solvable_structure():
    alg = two_dim_solvable_cyclic(GF3)
    assert not is_lie(alg)
    assert is_solvable(alg) and not is_nilpotent(alg)


def test_non_lie_almost_abelian_invariants():
    for dim_i in (1, 2, 3):
        alg = non_lie_almost_abelian(GF2, dim_i)
        ideal = squares_ideal(alg)
        assert ideal.dim == dim_i
        h = echelonize(GF2, dim_i + 1, [alg.basis_vector(dim_i)])
        assert is_quasi_ideal(alg, h).holds
        q = quotient(alg, ideal)
        assert q.dim == 1 and is_abelian(q)


def test_k2_is_perfect_and_simple():
    alg = k2(GF2)
    from quasileib.algebra import bracket_subspaces, is_ideal

    assert bracket_subspaces(alg, alg.full(), alg.full()) == alg.full()
    proper_ideals = [
        s
        for s in subalgebras(alg)
        if is_ideal(alg, s) and 0 < s.dim < 3
    ]
    assert proper_ideals == []
    with pytest.raises(BadCharacteristic):
        k2(GF3)


def test_two_dim_catalogue():
    for field in (QQ, GF2, GF3):
        first, second = two_dim_catalogue(field)
        for alg in (first, second):
            assert validate(alg.table, "right").ok
            assert not is_lie(alg)
        assert is_nilpotent(first)
        assert is_solvable(second) and not is_nilpotent(second)


def test_abelian_and_guards():
    assert abelian(QQ, 0).dim == 0
    assert is_abelian(abelian(GF2, 4))
    with pytest.raises(BadDimension):
        abelian(GF2, -1)
    with pytest.raises(BadDimension):
        almost_abelian_lie(GF2, 1)
    with pytest.raises(BadDimension):
        non_lie_almost_abelian(GF2, 0)


def test_almost_abelian_lie_is_lie():
    for field in (GF2, GF3, QQ):
        for dim in (2, 3, 4):
            alg = almost_abelian_lie(field, dim)
            assert is_lie(alg)
            from quasileib.algebra import bracket_subspaces

            derived = bracket_subspaces(alg, alg.full(), alg.full())
            assert derived.dim == dim - 1


def test_extraspecial_sum_fixture_gf3():
    gram = default_anisotropic_gram(GF3, 2)
    alg = extraspecial_sum(GF3, gram, dim_z=1)
    assert alg.dim == 4
    # q = a^2 + b^2 has no nontrivial zero mod 3
    for x in itertools.product(GF3.elements(), repeat=2):
        if any(x):
            assert evaluate_form(GF3, _raw(GF3, gram), GF3.unwrap(x)) != 0
    ideal = squares_ideal(alg)
    assert ideal.dim == 1
    assert center(alg).dim == 2
    assert center(alg).contains(ideal)


def test_extraspecial_rejects_isotropic_forms():
    with pytest.raises(IsotropicForm):
        extraspecial_sum(GF2, ((GF2.one, GF2.zero), (GF2.zero, GF2.one)))
    with pytest.raises(IsotropicForm):
        extraspecial_sum(PrimeField(5), default_anisotropic_gram(PrimeField(5), 2))
    with pytest.raises(IsotropicForm):
        extraspecial_sum(QQ, ((QQ.zero,),))
    with pytest.raises(MixedFields):
        extraspecial_sum(GF2, ((GF3.one,),))


def test_extraspecial_default_form_over_rationals():
    alg = extraspecial_sum(QQ, default_anisotropic_gram(QQ, 2))
    assert alg.dim == 3
    assert squares_ideal(alg).dim == 1


def test_char2_gates():
    with pytest.raises(SquareLambda):
        char2_nonperfect_minimal(GF2)
    with pytest.raises(BadCharacteristic):
        char2_nonperfect_minimal(GF3)
    with pytest.raises(BadCharacteristic):
        char2_nonperfect_minimal(QQ)
    with pytest.raises(SquareLambda):
        char2_nonperfect_minimal(F2T, lam=F2T.t * F2T.t)
    with pytest.raises(SquareLambda):
        char2_nonperfect(F2T, lambdas=(F2T.t, F2T.t))
    with pytest.raises(SquareLambda, match=r"^1 is a square in GF\(2\)\(t\)$"):
        char2_nonperfect(F2T, lambdas=(F2T.one,))
    assert char2_nonperfect_minimal(F2T, lam=F2T.t).dim == 3


def test_char2_off_diagonal_gram():
    t = F2T.t
    gram = ((t, F2T.one), (F2T.one, t + 1))
    with pytest.raises(SquareLambda):
        # t * g1^2 + (t+1) * g2^2 + a^2 = 0 at g1 = g2 = 1, a = 1
        char2_nonperfect(F2T, gram=gram)
    with pytest.raises(ValueError):
        char2_nonperfect(F2T, gram=((t, F2T.one), (F2T.zero, t)))


def _raw(field, gram):
    """A Gram matrix of scalars or plain values as rows of raw values."""
    return tuple(field.unwrap(vec(field, row)) for row in gram)


def test_anisotropy_decisions():
    t = F2T.t
    one, zero = F2T.one, F2T.zero
    assert is_anisotropic(F2T, _raw(F2T, ((one, one), (zero, one))))  # x^2 + xy + y^2
    assert is_anisotropic(F2T, _raw(F2T, ((t,),)))
    # x^2 + xy + (t^2 + t) y^2 has the root x = t y
    assert not is_anisotropic(F2T, _raw(F2T, ((one, one), (zero, t * t + t))))


def test_anisotropy_of_the_empty_form_and_a_zero_leading_coefficient():
    # the form on F^0 has no nonzero vector to vanish at; x y + y^2 over Q
    # has a = 0 and vanishes at (1, 0)
    for field in (GF3, QQ, F2T):
        assert is_anisotropic(field, ())
    assert not is_anisotropic(QQ, _raw(QQ, ((0, 1), (0, 1))))


def test_anisotropy_rank_one_nonzero_coefficient():
    t = F2T.t
    assert is_anisotropic(F2T, _raw(F2T, ((t * t,),)))
    assert not is_anisotropic(F2T, _raw(F2T, ((0,),)))
    assert not is_anisotropic(GF3, ((0,),))
    assert is_anisotropic(QQ, _raw(QQ, ((-1,),)))
    # over Q: x^2 - 2 y^2 anisotropic (2 is not a rational square)
    assert is_anisotropic(QQ, _raw(QQ, ((1, 0), (0, -2))))
    # x^2 - 4 y^2 is isotropic
    assert not is_anisotropic(QQ, _raw(QQ, ((1, 0), (0, -4))))


def test_anisotropy_matches_brute_force_on_every_small_gram():
    # every Gram matrix of rank 1-2 over GF(2), GF(3) and GF(5) and of rank 3
    # over GF(2), against plain-int arithmetic over every nonzero vector
    for p, rank in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2)):
        nonzero = [x for x in itertools.product(range(p), repeat=rank) if any(x)]
        for entries in itertools.product(range(p), repeat=rank * rank):
            gram = tuple(entries[i * rank : (i + 1) * rank] for i in range(rank))
            isotropic = any(
                sum(
                    x[i] * gram[i][j] * x[j] for i in range(rank) for j in range(rank)
                )
                % p
                == 0
                for x in nonzero
            )
            assert is_anisotropic(PrimeField(p), gram) == (not isotropic), (p, gram)


def test_char2_diagonal_independence():
    t = F2T.t
    assert char2_diagonal_anisotropic(F2T, F2T.unwrap((t, F2T.one)))
    assert not char2_diagonal_anisotropic(F2T, F2T.unwrap((t, t)))
    assert not char2_diagonal_anisotropic(F2T, F2T.unwrap((t, F2T.one, t + 1)))


def _root(d):
    """artin_schreier_root of a scalar, as a scalar or None."""
    root = artin_schreier_root(F2T, d.value)
    return None if root is None else Scalar(F2T, root)


def test_artin_schreier_solver():
    t = F2T.t
    root = _root(t * t + t)
    assert root is not None and root * root + root == t * t + t
    assert _root(F2T.one) is None
    assert _root(F2T.zero) == F2T.zero
    d = (t * t * t + t) / ((t + 1) * (t + 1))
    r = _root(d)
    if r is not None:
        assert r * r + r == d
    # denominator not a square: no root
    assert _root(F2T.one / t) is None


def test_artin_schreier_root_is_checked(monkeypatch):
    import quasileib.fracfields as fracfields_mod

    # a wrong linear solve must not come back as a root
    monkeypatch.setattr(
        fracfields_mod, "raw_solve_left", lambda field, rows, target: (1,) * len(rows)
    )
    t = F2T.t
    with pytest.raises(VerificationFailed):
        _root(t * t + t)


def test_build_dispatch():
    alg = build("non_lie_almost_abelian", GF3, {"dim_i": 2})
    assert alg.dim == 3
    assert build("k2", F2T, {}).dim == 3
    # the minimal characteristic-2 family is the one-coefficient instance;
    # the general constructor is not a family name
    t = F2T.t
    want = char2_nonperfect(F2T, (t,)).table
    assert build("char2_nonperfect_minimal", F2T, {"lam": t}).table == want
    for name in ("nope", "char2_nonperfect"):
        with pytest.raises(ValueError):
            build(name, F2T, {})
