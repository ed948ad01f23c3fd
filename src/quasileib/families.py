"""Constructors for the named algebra families, validated on construction.

Families (all but ``char2_nonperfect`` are keys of ``cli.FAMILY_FLAGS``,
which also names the flags of the ``family`` command that each reads):

* ``abelian``                  -- all products zero.
* ``almost_abelian_lie``       -- A + Fa, A abelian, right multiplication by
  a acting as the identity on A (a Lie algebra).
* ``k2``                       -- the simple 3-dimensional Lie algebra over a
  field of characteristic 2 with [x,y]=z, [y,z]=y, [z,x]=x.
* ``non_lie_almost_abelian``   -- I + Fh with [x,h]=x and [h,x]=[h,h]=0.
* ``two_dim_nilpotent_cyclic`` -- basis b, a with [b,b]=a.
* ``two_dim_solvable_cyclic``  -- basis b, a with [b,b]=a, [a,b]=a.
* ``extraspecial_sum``         -- (anisotropic central extension E) + central
  summand Z: [u_i,u_j] = G[i][j] z with the quadratic form x -> [x,x]
  anisotropic on E/Fz.
* ``char2_nonperfect``         -- characteristic-2 family C + Fz + Fh with
  [c,c'] symmetric into Fz, [c,h]=[h,c]=c, [h,h]=z; needs every diagonal
  coefficient (and every diagonal combination) outside the squares, hence a
  non-perfect field.
* ``char2_nonperfect_minimal`` -- the 3-dimensional instance with basis
  c, z, h and [c,c] = lambda z.

Every constructor returns a :class:`LeibnizAlgebra`, so the right identity
is re-checked on construction; the symmetric families are additionally
checked against the left identity by the test suite.
"""

from __future__ import annotations

from .algebra import LeibnizAlgebra, build_table
from .errors import (
    BadCharacteristic,
    BadDimension,
    BudgetExceeded,
    IsotropicForm,
    SquareLambda,
)
from .fields import Field
from .fracfields import FunctionField
from .linalg import DEFAULT_BUDGET, is_anisotropic

# ---------------------------------------------------------------------------
# family constructors
# ---------------------------------------------------------------------------


def abelian(field: Field, dim: int) -> LeibnizAlgebra:
    if dim < 0:
        raise BadDimension("dimension must be nonnegative")
    return LeibnizAlgebra(build_table(field, tuple(f"e{i+1}" for i in range(dim)), {}))


def almost_abelian_lie(field: Field, dim: int) -> LeibnizAlgebra:
    """A + Fa with [x, a] = x and [a, x] = -x on the abelian part A."""
    if dim < 2:
        raise BadDimension("almost abelian needs dimension >= 2")
    k = dim - 1
    names = tuple(f"x{i+1}" for i in range(k)) + ("a",)
    products = {}
    for i in range(k):
        products[(i, k)] = {i: field.one}
        products[(k, i)] = {i: -field.one}
    return LeibnizAlgebra(build_table(field, names, products))


def k2(field: Field) -> LeibnizAlgebra:
    """[x,y]=z, [y,z]=y, [z,x]=x, antisymmetric; characteristic 2 only."""
    if field.characteristic() != 2:
        raise BadCharacteristic("this algebra lives in characteristic 2")
    one = field.one
    products = {
        (0, 1): {2: one},
        (1, 0): {2: -one},
        (1, 2): {1: one},
        (2, 1): {1: -one},
        (2, 0): {0: one},
        (0, 2): {0: -one},
    }
    return LeibnizAlgebra(build_table(field, ("x", "y", "z"), products))


def non_lie_almost_abelian(field: Field, dim_i: int) -> LeibnizAlgebra:
    """I + Fh with [x, h] = x for x in I and [h, x] = [h, h] = 0."""
    if dim_i < 1:
        raise BadDimension("the abelian part must be nonzero")
    if dim_i == 1:
        names = ("x", "h")
    elif dim_i == 2:
        names = ("x", "y", "h")
    else:
        names = tuple(f"x{i+1}" for i in range(dim_i)) + ("h",)
    products = {(i, dim_i): {i: field.one} for i in range(dim_i)}
    return LeibnizAlgebra(build_table(field, names, products))


def two_dim_nilpotent_cyclic(field: Field) -> LeibnizAlgebra:
    return LeibnizAlgebra(
        build_table(field, ("b", "a"), {(0, 0): {1: field.one}})
    )


def two_dim_solvable_cyclic(field: Field) -> LeibnizAlgebra:
    return LeibnizAlgebra(
        build_table(
            field, ("b", "a"), {(0, 0): {1: field.one}, (1, 0): {1: field.one}}
        )
    )


def default_anisotropic_gram(field: Field, rank: int = 1):
    """Shipped anisotropic forms: x**2 in rank 1 for every field; in rank 2,
    x**2 + xy + y**2 in characteristic 2 and x**2 + y**2 otherwise."""
    one, zero = field.one, field.zero
    if rank == 1:
        return ((one,),)
    if rank == 2:
        if field.characteristic() == 2:
            return ((one, one), (zero, one))
        return ((one, zero), (zero, one))
    raise BadDimension("shipped default forms have rank 1 or 2")


def extraspecial_sum(
    field: Field, gram=None, dim_z: int = 0, budget: int = DEFAULT_BUDGET
) -> LeibnizAlgebra:
    """E + Z with E = span{u_1..u_k, z}, [u_i, u_j] = G[i][j] z, and Z an
    extra central summand of dimension ``dim_z``.

    The quadratic form q(x) = [x,x] on E/Fz must be anisotropic, which makes
    Fz the centre of E and keeps every square off the centre nonzero.  All
    products land in the centre, so both Leibniz identities hold; the right
    identity is re-checked by the LeibnizAlgebra constructor anyway.

    The budget bounds the projective points of the anisotropy check and,
    when Z is nonzero, the n^3 structure constants of the table, before it
    is built.
    """
    if gram is None:
        gram = default_anisotropic_gram(field, 1)
    gram = tuple(tuple(field(s).value for s in row) for row in gram)
    k = len(gram)
    if k < 1 or any(len(row) != k for row in gram):
        raise BadDimension("the form matrix must be square and nonempty")
    if dim_z < 0:
        raise BadDimension("the central summand dimension must be nonnegative")
    if dim_z:
        # without Z the table is sized by the form alone, k + 1
        _require_table(k + 1 + dim_z, budget)
    if not is_anisotropic(field, gram, budget=budget):
        raise IsotropicForm("the supplied form has a nontrivial zero")
    names = (
        tuple(f"u{i+1}" for i in range(k))
        + ("z",)
        + tuple(f"w{i+1}" for i in range(dim_z))
    )
    zero = field.raw_zero
    products = {
        (i, j): {k: gram[i][j]}
        for i in range(k)
        for j in range(k)
        if gram[i][j] != zero
    }
    return LeibnizAlgebra(build_table(field, names, products))


def char2_nonperfect(field: Field, lambdas=None, gram=None) -> LeibnizAlgebra:
    """C + Fz + Fh over a characteristic-2 field: [c_i, c_j] = G[i][j] z
    (symmetric), [c_i, h] = [h, c_i] = c_i, [h, h] = z.

    Squares are (sum G[i][i] g_i**2 + a**2) z for u = sum g_i c_i + a h + b z,
    so the construction needs every diagonal coefficient -- and every
    diagonal combination -- to avoid the squares of the field.  Over a
    perfect field (any finite field) no such coefficient exists.
    """
    if field.characteristic() != 2:
        raise BadCharacteristic("this family lives in characteristic 2")
    zero, one = field.raw_zero, field.raw_one
    if gram is None:
        if lambdas is None:
            lambdas = (field.t,) if isinstance(field, FunctionField) else (field.one,)
        lambdas = [field(s).value for s in lambdas]
        gram = tuple(
            tuple(lambdas[i] if i == j else zero for j in range(len(lambdas)))
            for i in range(len(lambdas))
        )
    else:
        gram = tuple(tuple(field(s).value for s in row) for row in gram)
    k = len(gram)
    if k < 1 or any(len(row) != k for row in gram):
        raise BadDimension("the coefficient matrix must be square and nonempty")
    for i in range(k):
        for j in range(i + 1, k):
            if gram[i][j] != gram[j][i]:
                raise ValueError("the coefficient matrix must be symmetric")
    diagonal = [gram[i][i] for i in range(k)]
    for lam in diagonal:
        if field.raw_is_square(lam):
            raise SquareLambda(f"{field.format(lam)} is a square in {field}")
    # the squares form is G bordered by the [h,h] coefficient 1
    squares = tuple(row + (zero,) for row in gram) + ((zero,) * k + (one,),)
    if not is_anisotropic(field, squares):
        raise SquareLambda("a combination of the diagonal coefficients is a square")
    names = (
        tuple("c" if k == 1 else f"c{i+1}" for i in range(k)) + ("z", "h")
    )
    products = {}
    for i in range(k):
        for j in range(k):
            if gram[i][j] != zero:
                products[(i, j)] = {k: gram[i][j]}
    for i in range(k):
        products[(i, k + 1)] = {i: one}
        products[(k + 1, i)] = {i: one}
    products[(k + 1, k + 1)] = {k: one}
    return LeibnizAlgebra(build_table(field, names, products))


def char2_nonperfect_minimal(field: Field, lam=None) -> LeibnizAlgebra:
    """Basis c, z, h with [c,c] = lambda z, [h,h] = z, [c,h] = [h,c] = c."""
    lambdas = None if lam is None else (lam,)
    return char2_nonperfect(field, lambdas=lambdas)


def two_dim_catalogue(field: Field):
    """The two non-Lie algebras of dimension 2: [b,b]=a with [a,b]=0 (the
    nilpotent one) and [b,b]=a with [a,b]=a (the solvable one); both cyclic.
    """
    return [two_dim_nilpotent_cyclic(field), two_dim_solvable_cyclic(field)]


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

def _require_table(n: int, budget: int):
    """Raise unless the n^3 structure constants of a dim-n table fit in the
    budget, and the n^4 steps of checking it against the right identity
    (n^3 basis triples, each expanded over n structure constants) fit in
    the larger of the budget and DEFAULT_BUDGET, before any of them is
    built.  A scan of at most DEFAULT_BUDGET steps (dim 31) takes well
    under a second, so a budget that admits a small table's constants also
    admits its check."""
    if n**3 > budget:
        raise BudgetExceeded(
            f"structure constants of a dim-{n} table: {n**3} exceeds budget {budget}"
        )
    if n**4 > max(budget, DEFAULT_BUDGET):
        raise BudgetExceeded(
            f"right-identity steps of a dim-{n} table: {n**4} exceeds budget {budget}"
        )


def build(
    name: str, field: Field, params: dict, budget: int = DEFAULT_BUDGET
) -> LeibnizAlgebra:
    """The instance of the family ``name`` over ``field``.  ``params`` maps
    the parameters given to their values (``dim``, ``dim_i``, ``dim_z``,
    ``gram`` and ``lam``); an absent one takes its constructor's default.

    The budget bounds the n^3 structure constants of a table whose size a
    parameter sets (``dim``, ``dim_i``, or a nonzero ``dim_z``) and the n^4
    steps of its right-identity check (against at least DEFAULT_BUDGET),
    both checked before the table is built, and the projective points that
    the anisotropy check of ``extraspecial_sum`` enumerates."""
    get = params.get
    if name == "abelian":
        dim = get("dim", 1)
        _require_table(dim, budget)
        return abelian(field, dim)
    if name == "almost_abelian_lie":
        dim = get("dim", 2)
        _require_table(dim, budget)
        return almost_abelian_lie(field, dim)
    if name == "k2":
        return k2(field)
    if name == "non_lie_almost_abelian":
        dim_i = get("dim_i", 1)
        _require_table(dim_i + 1, budget)
        return non_lie_almost_abelian(field, dim_i)
    if name == "two_dim_nilpotent_cyclic":
        return two_dim_nilpotent_cyclic(field)
    if name == "two_dim_solvable_cyclic":
        return two_dim_solvable_cyclic(field)
    if name == "extraspecial_sum":
        return extraspecial_sum(field, get("gram"), get("dim_z", 0), budget)
    if name == "char2_nonperfect_minimal":
        return char2_nonperfect_minimal(field, get("lam"))
    raise ValueError(f"unknown family {name!r}")
