"""Finite-field census engines: subalgebra sweeps, membership in the class
of algebras whose subalgebras are all quasi-ideals, catalogue matching,
isomorphism dedup, and exhaustive enumeration of small multiplication
tables.

Catalogue verdicts (``classify_q_member``):

* ``abelian``
* ``almost_abelian_lie``      -- Lie, A + Fa with right multiplication by a
  the identity on the abelian A of codimension 1
* ``k2_like``                 -- Lie, perfect, 3-dimensional, characteristic 2
* ``two_dim_solvable``        -- the non-Lie, non-nilpotent algebra of dim 2
* ``extraspecial_sum``        -- E + Z with anisotropic squares off the centre
* ``char2_family``            -- the characteristic-2 non-perfect-field family
* ``outside_catalogue``       -- none of the above; the recorded facts say why

One reading feeds every verdict: the squares ideal I, the centre Z, the
Lie algebra L/I and its almost-abelian element are computed once.  The
almost-abelian matcher replays [x, a] = x on the derived subalgebra, and
E + Z and the characteristic-2 family read one squares form off the
products at I's pivot.  A ``non_lie_almost_abelian`` vocabulary tag exists
for the core-free shape I + Fh with [x,h] = x; algebras of that shape with
dim I >= 2 are reported as ``outside_catalogue`` with the shape recorded in
the facts, and the census lists them as discrepancies whenever the oracle
also puts them in the all-subalgebras-are-quasi-ideals class.  The
dimension-of-squares distribution of those members is part of every
report.  The dim <= 1 expectation for that distribution does not hold for
this shape: it is in the class for every dim I, over every field, by the
argument in :func:`classify_q_member`.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from collections import namedtuple

from .algebra import (
    LeibnizAlgebra,
    MultiplicationTable,
    bracket_subspaces,
    center,
    is_abelian,
    is_ideal,
    is_lie,
    is_nilpotent,
    is_solvable,
    is_symmetric,
    quotient,
    raw_leibniz_failure,
    raw_quotient_cube,
    series,
    squares_ideal,
    subalgebras,
)
from .errors import (
    BadDimension,
    BudgetExceeded,
    MixedFields,
    NotLeibniz,
    UnsupportedField,
    VerificationFailed,
)
from .fields import Field, PrimeField, is_prime
from .linalg import (
    DEFAULT_BUDGET,
    Subspace,
    is_anisotropic,
    raw_echelonize,
    raw_identity,
    raw_projective_points,
    raw_solve,
    require_enumerable,
    require_subspaces,
)
from .quasi import (
    is_engel_algebra,
    is_quasi_ideal,
    is_quasi_ideal_oracle,
    lemma_suite,
    quasi_ideals,
    subquasi_chain,
)

# verdict vocabulary
ABELIAN = "abelian"
ALMOST_ABELIAN_LIE = "almost_abelian_lie"
K2_LIKE = "k2_like"
NON_LIE_ALMOST_ABELIAN = "non_lie_almost_abelian"  # shape tag, see module doc
TWO_DIM_SOLVABLE = "two_dim_solvable"
EXTRASPECIAL_SUM = "extraspecial_sum"
CHAR2_FAMILY = "char2_family"
OUTSIDE_CATALOGUE = "outside_catalogue"


def in_class_q(alg: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    """Whether every subalgebra is a quasi-ideal; returns (flag, failing
    subalgebra or None).  Decided on the cyclic subalgebras <x>, one per
    projective point x of F^n, and a repeated <x> reads its verdict from
    the memo of :func:`is_quasi_ideal`; the failing subalgebra is the first
    <x> that is not a quasi-ideal.  The budget bounds the q^n vectors of
    F^n.

    <x> is the span of x_1 = x, x_2 = [x_1, x], x_3 = [x_2, x], ..., the
    least subspace that holds x and is invariant under y -> [y, x].  It is
    closed.  The right identity [a, [y, z]] = [[a, y], z] - [[a, z], y]
    with z = y gives [L, [y, y]] = 0, so [L, I] = 0 for the span I of the
    squares.  I is an ideal: [[y, y], z] = [y, [y, z]] + [[y, z], y] is
    the square of y + [y, z] less those of y and [y, z].  So every x_k with
    k >= 2 lies in I, and [x_j, x_k] is 0 for k >= 2 and x_{j+1} for
    k = 1.  A subalgebra that holds x holds every x_k, so <x> is the
    subalgebra x generates, and <cx> = <x> for c != 0.

    L is in the class exactly when every <x> is a quasi-ideal.  Each <x> is
    a subalgebra, which gives one direction.  For the other, H is a
    quasi-ideal when [h, y] and [y, h] lie in H + Fy for every h in H and
    y in L (by bilinearity, permuting with every line Fy is enough).  For
    a subalgebra H and h != 0 in H, both lie in <h> + Fy, since <h> is a
    quasi-ideal, and <h> <= H."""
    for x in raw_projective_points(alg.field, alg.dim, budget):
        s = _cyclic_subalgebra(alg, x)
        if not is_quasi_ideal(alg, s).holds:
            return False, s
    return True, None


def _cyclic_subalgebra(alg: LeibnizAlgebra, x: tuple) -> Subspace:
    """<x> for a raw vector x != 0, as :func:`in_class_q` defines it: the
    span grows by x_{k+1} = [x_k, x] until x_{k+1} lies in it."""
    field, n, br = alg.field, alg.dim, alg.table.raw_bracket
    gens = [x]
    span = raw_echelonize(field, n, gens)
    while True:
        x_k = br(gens[-1], x)
        if span.raw_contains(x_k):
            return span
        gens.append(x_k)
        span = raw_echelonize(field, n, gens)


# ---------------------------------------------------------------------------
# catalogue matchers
#
# The matchers compute on raw vectors (``Field.unwrap``) and return them raw:
# census code only tests them against None.
# ---------------------------------------------------------------------------


def _acting_unit(alg: LeibnizAlgebra, s: Subspace):
    """w / c for the unit vector w at the first non-pivot column of S, when
    [x, w] = c x on S with c != 0, as a raw vector; else None.  Echelon rows
    have entry 1 at their pivots, so c is the first image's entry at the
    first pivot."""
    field, br, mul = alg.field, alg.table.raw_bracket, alg.field.raw_mul
    w = raw_identity(field, alg.dim)[s.non_pivots()[0]]
    c = br(s.raw_rows[0], w)[s.pivots[0]]
    if c == field.raw_zero or any(
        br(x, w) != tuple([mul(c, a) for a in x]) for x in s.raw_rows
    ):
        return None
    inv = field.raw_inv(c)
    return tuple(mul(inv, a) for a in w)


def match_almost_abelian_lie(alg: LeibnizAlgebra):
    """The normalized element a with [x, a] = x on the derived subalgebra,
    as a raw vector, or None when the algebra is not almost abelian Lie."""
    if not is_lie(alg) or alg.dim < 2:
        return None
    full = alg.full()
    derived = bracket_subspaces(alg, full, full)
    if derived.dim != alg.dim - 1:
        return None
    if not bracket_subspaces(alg, derived, derived).is_zero():
        return None
    return _acting_unit(alg, derived)


class ClassificationResult(
    namedtuple("ClassificationResult", "verdict params facts")
):
    __slots__ = ()

    def to_json(self):
        return {"verdict": self.verdict, "params": self.params, "facts": self.facts}


def classify_q_member(
    alg: LeibnizAlgebra, budget: int = DEFAULT_BUDGET
) -> ClassificationResult:
    """Match an algebra against the catalogue of algebras all of whose
    subalgebras are quasi-ideals.  Meaningful for members of that class but
    callable on anything; non-members typically land outside the catalogue.

    The squares ideal I, the centre Z, the Lie algebra L/I and its
    almost-abelian element are read once, and every verdict reads them.

    E + Z and the characteristic-2 family read one squares form
    q(x) = [x, x], when dim I = 1 and I <= Z.  I = F r with r's pivot entry
    1 and every square lies in I, so [x, x] = q(x) r with q(x) the entry of
    [x, x] at that pivot, and the Gram rows are the products of the unit
    vectors off Z's pivots, read at I's pivot.  E + Z is the case L/I
    abelian and q anisotropic off Z.  The family C + Fz + Fh is the case of
    characteristic 2, Z = I, L/I almost abelian and q anisotropic on L/I.
    Anisotropy does not depend on the basis, and the right identity
    [u, [v, w]] = [[u, v], w] - [[u, w], v] forces the family's other
    products in any lift, so no basis of the family is rebuilt:

    1. Let h lift the element a of L/I, z = [h, h], and c_i = [b_i, h] for
       lifts b_i of a basis of [L/I, L/I]; c_i lifts b_i, as [b, a] = b
       there.
    2. I is central, so [c_i, h] = c_i.  L/I is Lie of characteristic 2, so
       [h, c_i] = c_i + y with y in I, and the identity at (h, c_i, h) gives
       [h, c_i] = [h, [c_i, h]] = [[h, c_i], h] - [z, c_i] = c_i.
    3. [L/I, L/I] is abelian, so [c_i, c_j] lies in I and
       [h, [c_i, c_j]] = 0; the identity at (h, c_i, c_j) gives
       [c_i, c_j] = [c_j, c_i].  Products with z vanish.
    4. What is left of the family is z != 0, which makes c_i, z, h a basis
       with [c_i, c_j] = G_ij z, and the diagonal form diag(G_ii) + 1
       anisotropic.  The cross terms cancel in characteristic 2, so
       q(sum g_i c_i + t h) = (sum G_ii g_i^2 + t^2) z, and z = 0 gives
       q(h) = 0: together the two say that q is anisotropic on L/I.

    The shape I + Fh (recorded as the facts ``shape`` and ``dim_i``) is
    dim I = n - 1 >= 1 with [x, w] = c x on I for some c != 0, where w is
    the unit vector off I's pivots (:func:`_acting_unit`).  Let h0 = w / c
    and s = [h0, h0], which lies in I.  [L, I] = 0 (see :func:`in_class_q`)
    and [s, h0] = s, so h = h0 - s has [x, h] = x and [h, x] = 0 for x in I
    and [h, h] = s - [h0, s] - [s, h0] + [s, s] = 0.

    Every subalgebra of this shape is a quasi-ideal, for every dim I and
    over every field (I is abelian):

    1. Take a subalgebra S that contains x + ch, with x in I and c != 0.
       Then [x + ch, x + ch] = cx lies in S, so x and then h lie in S.
    2. So the subalgebras are the subspaces J of I, and the subspaces
       Fh + J.
    3. Take a line K = F(y + dh), with y in I.  Then [J, K] = dJ and
       [K, J] = 0; also [h, K] = 0 and [K, h] = y = (y + dh) - dh.  Each of
       these lies in Fh + J + K, and the first two in J + K.
    4. So every subalgebra permutes with every line, and by bilinearity
       ([H, K1 + K2] = [H, K1] + [H, K2]) with every subspace.
    """
    ideal = squares_ideal(alg)
    zl = center(alg)
    quot = quotient(alg, ideal)
    abelian = is_abelian(quot)
    abar = None if abelian else match_almost_abelian_lie(quot)
    shape = "abelian" if abelian else "other" if abar is None else "almost_abelian"
    char2 = alg.field.characteristic() == 2
    facts = {
        "dim": alg.dim,
        "dim_squares_ideal": ideal.dim,
        "dim_center": zl.dim,
        "is_lie": is_lie(alg),
        "is_nilpotent": is_nilpotent(alg),
        "is_solvable": is_solvable(alg),
        "liesation": shape,
    }
    if facts["is_lie"]:
        # I = 0, and L/0 has L's own table
        if shape == "abelian":
            return ClassificationResult(ABELIAN, {}, facts)
        if shape == "almost_abelian":
            return ClassificationResult(ALMOST_ABELIAN_LIE, {}, facts)
        full = alg.full()
        if alg.dim == 3 and char2 and bracket_subspaces(alg, full, full) == full:
            return ClassificationResult(K2_LIKE, {}, facts)
        return ClassificationResult(OUTSIDE_CATALOGUE, {}, facts)
    if alg.dim == 2 and not facts["is_nilpotent"]:
        return ClassificationResult(TWO_DIM_SOLVABLE, {}, facts)
    if ideal.dim == 1 and zl.contains(ideal):
        found = None
        if shape == "abelian":
            dim_z = zl.dim - 1
            found = EXTRASPECIAL_SUM, {"dim_e": alg.dim - dim_z, "dim_z": dim_z}
        elif char2 and zl == ideal and shape == "almost_abelian":
            found = CHAR2_FAMILY, {"dim_c": alg.dim - 2}
        if found:
            col, cube, comp = ideal.pivots[0], alg.table.raw, zl.non_pivots()
            gram = [[cube[u][v][col] for v in comp] for u in comp]
            if is_anisotropic(alg.field, gram, budget=budget):
                return ClassificationResult(*found, facts)
    if ideal.dim == alg.dim - 1 >= 1 and _acting_unit(alg, ideal) is not None:
        facts["shape"] = NON_LIE_ALMOST_ABELIAN
        facts["dim_i"] = ideal.dim
    return ClassificationResult(OUTSIDE_CATALOGUE, {}, facts)


# ---------------------------------------------------------------------------
# isomorphism
# ---------------------------------------------------------------------------


class AlgebraInvariants(
    namedtuple(
        "AlgebraInvariants",
        "dim lower_central_dims derived_dims dim_squares_ideal dim_center "
        "is_lie is_symmetric",
    )
):
    # the field names are the JSON keys of a census class's invariants
    __slots__ = ()

    def to_json(self):
        return {
            k: list(v) if type(v) is tuple else v for k, v in self._asdict().items()
        }


def algebra_invariants(alg: LeibnizAlgebra) -> AlgebraInvariants:
    """A cheap isomorphism-invariant fingerprint."""
    return AlgebraInvariants(
        alg.dim,
        tuple(s.dim for s in series(alg, kind="lower_central")),
        tuple(s.dim for s in series(alg, kind="derived")),
        squares_ideal(alg).dim,
        center(alg).dim,
        is_lie(alg),
        is_symmetric(alg),
    )


def _primitive_root(p: int) -> int:
    """The least g of order p - 1 mod p, a generator of GF(p)^*:
    g^((p - 1)/q) != 1 for every prime q dividing p - 1.  The primes come
    from trial division, each divided out as it is found, and the trial
    divisors stop as soon as the cofactor left is prime (:func:`is_prime`).
    A composite cofactor has a prime factor no larger than its square root,
    so the worst case left is p - 1 with two large prime factors."""
    primes = []
    rest, d = p - 1, 2
    while rest > 1 and not is_prime(rest):
        while rest % d:
            d += 1
        primes.append(d)
        while rest % d == 0:
            rest //= d
    if rest > 1:
        primes.append(rest)
    exponents = [(p - 1) // q for q in primes]
    return next(g for g in range(1, p) if all(pow(g, m, p) != 1 for m in exponents))


def _generators(p: int, n: int) -> list:
    """Generators of GL(n, p), each a pair (P, P^-1) of raw rows: T = I + E_01
    and the n-cycle C with rows C_i = e_{i+1}, C_{n-1} = s e_0 (both for
    n >= 2), and D = diag(z, 1, ..., 1) for a primitive root z (for p > 2).
    s = -1 when n is even, so that det C = 1.

    Why they generate: conjugation by C shifts the indices of E_ij by one
    (up to sign at the wrap), so it turns T into the transvections between
    adjacent basis vectors e_i, e_{i+1} and e_{n-1}, e_0.  Over a prime field
    I + aE_ij = (I + E_ij)^a, and [I + aE_ij, I + bE_jk] = I + abE_ik for
    distinct i, j, k, so these give every elementary transvection, and the
    transvections generate SL(n, p).  D has determinant z, which generates
    GF(p)^*, so it adds every determinant; GL(1, p) is D alone, and
    GL(n, 2) = SL(n, 2) needs no D."""
    idx = range(n)

    def matrix(changed):
        return tuple(
            tuple(changed.get((i, j), int(i == j)) % p for j in idx) for i in idx
        )

    pairs = []
    if n > 1:
        cycle = {(i, i): 0 for i in idx} | {(i, i + 1): 1 for i in range(n - 1)}
        cycle[n - 1, 0] = -1 if n % 2 == 0 else 1
        # a permutation matrix with signs +-1 is inverted by its transpose
        transpose = {(j, i): x for (i, j), x in cycle.items()}
        pairs += [({(0, 1): 1}, {(0, 1): -1}), (cycle, transpose)]
    if p > 2:
        z = _primitive_root(p)
        pairs.append(({(0, 0): z}, {(0, 0): pow(z, -1, p)}))
    return [(matrix(a), matrix(b)) for a, b in pairs]


def _flat_table(alg: LeibnizAlgebra) -> tuple:
    """The raw structure constants, [e_i, e_j] at e_k in entry (i*n + j)*n + k."""
    return tuple(x for row in alg.table.raw for product in row for x in product)


class _Packing:
    """Flat tables over GF(p) of dimension n, each packed into one int: flat
    entry t in lane t from the top, each lane ``lane`` bytes wide.  A table
    is reduced when every lane holds a value in [0, p); reduced tables
    compare as their tuples do, since entry 0 has the top lane.

    ``reduce`` takes every lane mod p at once, for lane values v up to
    ``bound``: a sum of at most n^3 products of two reduced entries (an
    image, or a table plus a multiple of another at n >= 2), or a product of
    three (a transport).  With mult = ceil(2^shift / p) = (2^shift + e) / p
    and e * bound < 2^shift, floor(v * mult / 2^shift) = floor(v / p); the
    lanes are wide enough that v * mult does not carry into the next lane,
    and a mask keeps each lane's quotient.  At p = 2 that is mult = 1 and
    shift = 1, which leaves the low bit of each lane.

    A lane is a whole number of bytes, so ``x.to_bytes`` reads every lane
    at once: ``planes`` slice out the base-256 digits of the reduced values,
    the most significant first (one digit for p <= 256)."""

    __slots__ = (
        "p", "nbytes", "lane", "units", "mult", "shift", "mask", "planes", "scales"
    )

    def __init__(self, p: int, n: int):
        count = n**3
        bound = max(count * (p - 1) ** 2, (p - 1) ** 3)
        shift = max(1, (p - 1).bit_length())
        while bound * (-(1 << shift) % p) >= 1 << shift:
            shift += 1
        self.p, self.shift = p, shift
        self.mult = -(-(1 << shift) // p)
        lane = -(-max((bound * self.mult).bit_length(), shift) // 8)
        width = 8 * lane
        self.lane, self.nbytes = lane, count * lane
        self.units = [1 << (count - 1 - t) * width for t in range(count)]
        self.mask = ((1 << width - shift) - 1) * sum(self.units)
        digits = max(1, -(-(p - 1).bit_length() // 8))
        self.planes = [slice(lane - digits + j, None, lane) for j in range(digits)]
        self.scales = [256 ** (digits - 1 - j) for j in range(digits)]

    def pack(self, values, units=None) -> int:
        """The values at the lanes of ``units``, by default a flat table."""
        return sum(map(operator.mul, values, self.units if units is None else units))

    def reduce(self, x: int) -> int:
        return x - self.p * ((x * self.mult >> self.shift) & self.mask)

    def unpack(self, x: int) -> tuple:
        """The flat table of a reduced packed table."""
        data = x.to_bytes(self.nbytes, "big")
        first, *rest = [data[plane] for plane in self.planes]
        values = tuple(first)
        for digits in rest:
            values = tuple(256 * v + digit for v, digit in zip(values, digits))
        return values


@functools.lru_cache(maxsize=8)
def _transports(p: int, n: int):
    """``_Packing(p, n)`` and, for each of ``_generators(p, n)``, the scaled
    packed transports that :func:`_orbit` sums, built once per (p, n): a
    few packed integers per generator, and no group.

    The image under P has [P_i, P_j], in the coordinates of the basis P, at
    (i, j): its entry (i, j, l) is the sum of P[i][a] P[j][b] c[a][b][k]
    P^-1[k][l].  The transport of flat entry s = (a*n + b)*n + k, the image
    of the unit table at s, is the product of column a of P, column b of P
    and row k of P^-1, packed at lane strides n^2, n and 1: each lane of
    the product receives exactly one term, and it is reduced once.  Each
    transport is kept once per digit plane, times the plane's scale."""
    pack = _Packing(p, n)
    width = 8 * pack.lane

    def packed(vector, stride):
        return sum(x << ((n - 1 - i) * stride * width) for i, x in enumerate(vector))

    transports = []
    for rows, inverse in _generators(p, n):
        cols = list(zip(*rows))
        wide, narrow = [packed(c, n * n) for c in cols], [packed(c, n) for c in cols]
        last = [packed(row, 1) for row in inverse]
        images = [pack.reduce(u * v * w) for u in wide for v in narrow for w in last]
        transports.append(tuple(scale * x for scale in pack.scales for x in images))
    return pack, tuple(transports)


def _orbit(table: int, p: int, n: int, budget: int, counted: int = 0) -> frozenset:
    """The GL(n, p) orbit of a table over GF(p), packed and reduced as by
    ``_Packing(p, n)``: its breadth-first closure under ``_generators``, with
    every member packed.  The budget bounds ``counted`` plus the members,
    counted as they are found.

    A member's lanes are read once, as the digit planes of its bytes, and
    its image under each generator is the sum of digit * scaled transport
    (:func:`_transports`) over the nonzero digits, reduced in one go."""
    pack, transports = _transports(p, n)
    mul, compress = operator.mul, itertools.compress
    nbytes, planes, prime = pack.nbytes, pack.planes, pack.p
    mult, shift, mask = pack.mult, pack.shift, pack.mask
    orbit, frontier = {table}, [table]
    while frontier:
        fresh = []
        for member in frontier:
            data = member.to_bytes(nbytes, "big")
            digits = b"".join([data[plane] for plane in planes])
            nonzero = digits.translate(None, b"\0")
            for images in transports:
                x = sum(map(mul, nonzero, compress(images, digits)))
                image = x - prime * ((x * mult >> shift) & mask)
                if image not in orbit:
                    orbit.add(image)
                    fresh.append(image)
                    if counted + len(orbit) > budget:
                        raise BudgetExceeded(
                            f"tables in GL({n},{p}) orbits: at least "
                            f"{counted + len(orbit)} exceeds budget {budget}"
                        )
        frontier = fresh
    return frozenset(orbit)


def are_isomorphic(
    a: LeibnizAlgebra, b: LeibnizAlgebra, budget: int = DEFAULT_BUDGET
) -> bool:
    """Whether a's table lies in the base-change orbit of b's, behind an
    invariant prefilter."""
    if a.field != b.field:
        raise MixedFields(f"{a.field} vs {b.field}")
    if not isinstance(a.field, PrimeField):
        raise UnsupportedField("isomorphism search needs a finite prime field")
    if a.dim != b.dim:
        return False
    if algebra_invariants(a) != algebra_invariants(b):
        return False
    pack = _transports(a.field.p, a.dim)[0]
    orbit = _orbit(pack.pack(_flat_table(b)), pack.p, a.dim, budget)
    return pack.pack(_flat_table(a)) in orbit


def canonical_table_key(alg: LeibnizAlgebra, budget: int = DEFAULT_BUDGET) -> tuple:
    """Minimum over all base changes of the flattened structure constants;
    two algebras over the same prime field share the key iff isomorphic."""
    if not isinstance(alg.field, PrimeField):
        raise UnsupportedField("canonical keys need a finite prime field")
    pack = _transports(alg.field.p, alg.dim)[0]
    orbit = _orbit(pack.pack(_flat_table(alg)), pack.p, alg.dim, budget)
    return pack.unpack(min(orbit))


# ---------------------------------------------------------------------------
# table sweeps
# ---------------------------------------------------------------------------


class ClassEntry(
    namedtuple(
        "ClassEntry",
        "key algebra invariants subalgebra_count quasi_ideal_count in_q "
        "in_q_failure classification oracle_mismatches",
    )
):
    __slots__ = ()

    def to_json(self):
        out = {
            "representative_table": self.algebra.table.to_json(),
            "invariants": self.invariants.to_json(),
            "subalgebra_count": self.subalgebra_count,
            "quasi_ideal_count": self.quasi_ideal_count,
            "in_q": self.in_q,
            "classification": self.classification.to_json(),
            "oracle_mismatches": self.oracle_mismatches,
        }
        if self.in_q_failure is not None:
            out["in_q_failure"] = self.in_q_failure.to_json()
        return out


class CensusReport(
    namedtuple(
        "CensusReport",
        "field dim totals classes dim_i_distribution discrepancies lemma_failures",
    )
):
    __slots__ = ()

    def to_json(self):
        return {
            "params": {
                "field": self.field.to_json(),
                "dim": self.dim,
                "mode": "exhaustive",
                "seed": None,
            },
            "totals": self.totals,
            "classes": [c.to_json() for c in self.classes],
            "dim_i_distribution": {
                str(k): v for k, v in sorted(self.dim_i_distribution.items())
            },
            "discrepancies": self.discrepancies,
            "lemma_failures": self.lemma_failures,
        }

    def to_bytes(self) -> bytes:
        return json.dumps(self.to_json(), sort_keys=True, indent=1).encode()


def _analyze_class(key, alg, budget) -> ClassEntry:
    """One class's entry; each subalgebra's exact verdict is taken once and
    gives membership, the first failure, the quasi-ideal count and the
    comparison with the oracle.  Membership by the subalgebra list must
    agree with :func:`in_class_q`, which decides it on the cyclic
    subalgebras, or the run fails."""
    subs = subalgebras(alg, budget=budget)
    holds = [is_quasi_ideal(alg, s).holds for s in subs]
    failure = next((s for s, ok in zip(subs, holds) if not ok), None)
    if in_class_q(alg, budget=budget)[0] != (failure is None):
        raise VerificationFailed(
            f"membership by cyclic subalgebras disagrees with the subalgebra "
            f"list on {_flat_table(alg)}"
        )
    mismatches = sum(
        ok != is_quasi_ideal_oracle(alg, s, budget=budget) for s, ok in zip(subs, holds)
    )
    return ClassEntry(
        key=key,
        algebra=alg,
        invariants=algebra_invariants(alg),
        subalgebra_count=len(subs),
        quasi_ideal_count=sum(holds),
        in_q=failure is None,
        in_q_failure=failure,
        classification=classify_q_member(alg, budget=budget),
        oracle_mismatches=mismatches,
    )


def sweep_tables(
    field: Field,
    dim: int,
    budget: int = DEFAULT_BUDGET,
    run_lemmas: bool = False,
) -> CensusReport:
    """Find the Leibniz multiplication tables of one size, dedup them by
    isomorphism, and analyze one representative per class.

    The census is exhaustive over any prime field, for ``dim`` at least 1;
    the budget alone bounds the sizes, through the Lie systems, their
    solutions and the valid tables found (``_census``).  It constructs
    tables by the Liesation route (``_liesation_tables``), solving for them
    instead of filtering every candidate, and marks their orbits
    (``_mark_orbits``), so ``totals.scanned`` is the size of the candidate
    space and ``totals.valid`` the sum of the orbit sizes; each orbit is
    closed under generators of GL(dim, p).  Every
    class compares the exact predicate with the oracle on each of its
    subalgebras (``oracle_mismatches``).
    """
    if dim < 1:
        raise BadDimension(f"the census needs dim >= 1, got dim={dim}")
    if not isinstance(field, PrimeField):
        raise UnsupportedField("the census runs over finite prime fields")
    scanned, valid, reps = _census(field, dim, budget)

    classes = [_analyze_class(key, alg, budget) for key, alg in reps]
    dim_i_distribution = {}
    discrepancies = []
    for entry in classes:
        if not entry.in_q:
            continue
        di = entry.classification.facts["dim_squares_ideal"]
        dim_i_distribution[di] = dim_i_distribution.get(di, 0) + 1
        if entry.classification.verdict == OUTSIDE_CATALOGUE:
            discrepancies.append(
                {
                    "representative_table": entry.algebra.table.to_json(),
                    "facts": entry.classification.facts,
                }
            )
    lemma_failures = []
    if run_lemmas:
        harness = lemma_harness(
            [(f"class_{i}", e.algebra) for i, e in enumerate(classes)],
            budget=budget,
        )
        lemma_failures = harness.failures
    return CensusReport(
        field=field,
        dim=dim,
        totals={"scanned": scanned, "valid": valid, "classes": len(classes)},
        classes=classes,
        dim_i_distribution=dim_i_distribution,
        discrepancies=discrepancies,
        lemma_failures=lemma_failures,
    )


def _mark_orbits(tables, p: int, n: int, budget: int) -> list:
    """The GL(n, p) orbits of the given packed tables, as frozensets of
    packed tables, each started from the first table that no earlier orbit
    covers.  The budget bounds the running sum of the orbit sizes.  Orbits
    that overlap, or whose size does not divide |GL(n, p)| =
    prod (p^n - p^i), can only come from a broken base change, and fail the
    run."""
    order = math.prod(p**n - p**i for i in range(n))
    seen = set()
    orbits = []
    for table in tables:
        if table in seen:
            continue
        orbit = _orbit(table, p, n, budget, len(seen))
        if table not in orbit or not seen.isdisjoint(orbit) or order % len(orbit):
            flat = _transports(p, n)[0].unpack(table)
            raise VerificationFailed(
                f"a broken GL({n},{p}) orbit of {flat}: {len(orbit)} tables; "
                f"|GL| = {order}"
            )
        seen |= orbit
        orbits.append(orbit)
    return orbits


def _cube(flat, n: int) -> tuple:
    """The cube of a flat table: [e_i, e_j] is the slice at (i*n + j)*n."""
    idx = range(n)
    return tuple(
        tuple(flat[(a * n + b) * n : (a * n + b + 1) * n] for b in idx) for a in idx
    )


def _span(pack: _Packing, table: int, steps):
    """Every packed table + sum c_i steps_i with each c_i in [0, p),
    reduced."""
    if not steps:
        yield table
        return
    for c in range(pack.p):
        yield from _span(pack, pack.reduce(table + c * steps[0]), steps[1:])


def _identity_equations(n: int, entry, triples) -> list:
    """The right identity of a template table on ``triples``, as linear
    equations: for each triple (i, j, k) and coordinate l, the terms of
      sum_b c[j][k][b] c[i][b][l] - sum_a c[i][j][a] c[a][k][l]
        + sum_a c[i][k][a] c[a][j][l].
    ``entry(a, b, k)`` gives c[a][b][k] as (sign, index, free): sign 0 for
    a zero constant, else sign times fixed value ``index``, or unknown
    ``index`` when ``free``.  A term (sign, f, y, free) is sign * values[f]
    times unknown y when ``free``, else times values[y].  A product of two
    unknowns fails the run."""
    idx = range(n)
    equations = []
    for i, j, k in triples:
        for l in idx:
            products = [(1, entry(j, k, b), entry(i, b, l)) for b in idx]
            products += [(-1, entry(i, j, a), entry(a, k, l)) for a in idx]
            products += [(1, entry(i, k, a), entry(a, j, l)) for a in idx]
            terms = []
            for sign, (s, x, free_x), (t, y, free_y) in products:
                if s and t:
                    if free_x and free_y:
                        raise VerificationFailed(f"nonlinear template at {(i, j, k)}")
                    if free_x:
                        x, y = y, x
                    terms.append((sign * s * t, x, y, free_x or free_y))
            equations.append(terms)
    return equations


def _template_tables(pack: _Packing, equations, base: int, known: tuple, fixed, free):
    """The packed tables of a template, reduced: for each value of the lanes
    ``fixed`` (in ``itertools.product`` order) the fixed values are
    ``known`` and then that value, and each solution of ``equations`` in
    the unknowns at the lanes ``free`` gives base + fixed + unknowns."""
    field, p, size = PrimeField(pack.p), pack.p, len(free)
    for values in itertools.product(range(p), repeat=len(fixed)):
        given = known + values
        rows = []
        for terms in equations:
            row = [0] * (size + 1)
            for sign, f, y, unknown in terms:
                if unknown:
                    row[y] += sign * given[f]
                else:
                    row[size] -= sign * given[f] * given[y]
            rows.append([x % p for x in row])
        solved = raw_solve(field, rows, size)
        if solved is None:
            continue
        particular, kernel = solved
        start = base + pack.pack(values, fixed) + pack.pack(particular, free)
        steps = [pack.reduce(pack.pack(x, free)) for x in kernel]
        yield from _span(pack, pack.reduce(start), steps)


def _lie_tables(p: int, n: int, budget: int):
    """The Lie tables over GF(p) of dimension n, packed: the alternating
    tables that satisfy the Jacobi identity, which on an alternating table
    is the right identity.  Its failure is alternating in (i, j, k), so
    triples i < j < k suffice.

    The brackets [e_a, e_last] with last = n - 1 are fixed, one system per
    value (p^(n(n-1)) of them).  On a triple (i, j, last) the right identity
    then has a fixed factor in every product of two constants, so it is
    linear in the other constants c[i][j][k], i < j < last: it is solved
    (``_template_tables``), and each solution is checked on the triples
    i < j < k < last only (there are none for n <= 3).  The budget bounds
    the solutions, counted as they are found; every Lie table is marked, so
    the orbit count bounds the Lie tables too."""
    pack = _transports(p, n)[0]
    last = n - 1
    at = lambda i, j, k: (i * n + j) * n + k
    pairs = list(itertools.combinations(range(last), 2))
    number = {pair: u for u, pair in enumerate(pairs)}
    # c[i][j][k] sets c[j][i][k] = -c[i][j][k] too, for the fixed values
    # c[a][last][k] = values[a*n + k] and the unknowns alike
    units = pack.units
    alternating = lambda i, j, k: units[at(i, j, k)] + (p - 1) * units[at(j, i, k)]
    fixed = [alternating(a, last, k) for a in range(last) for k in range(n)]
    free = [alternating(i, j, k) for i, j in pairs for k in range(n)]

    def entry(a, b, k):
        if a == b:
            return 0, None, False
        if last in (a, b):
            return (1, a * n + k, False) if b == last else (-1, b * n + k, False)
        return (1 if a < b else -1), number[min(a, b), max(a, b)] * n + k, True

    equations = _identity_equations(n, entry, [(i, j, last) for i, j in pairs])
    jacobi = list(itertools.combinations(range(last), 3))
    field, found = PrimeField(p), 0
    for table in _template_tables(pack, equations, 0, (), fixed, free):
        found += 1
        if found > budget:
            raise BudgetExceeded(
                f"candidate Lie tables of {field} dim {n}: at least {found} "
                f"exceeds budget {budget}"
            )
        if jacobi:
            cube = _cube(pack.unpack(table), n)
            if raw_leibniz_failure(field, cube, jacobi):
                continue
        yield table


def _liesation_tables(p: int, n: int, budget: int):
    """Packed Leibniz tables over GF(p) of dimension n that include a basis
    change of every Leibniz table, by the Liesation route.

    The ideal of squares I satisfies [L, I] = 0, and L/I is Lie.  In a basis
    g_0 .. g_{m-1} of a complement followed by a basis x_0 .. x_{d-1} of I
    (d = dim I, m = n - d), a table is a Lie table on g plus a map omega:
    g x g -> I in the products [g_a, g_b], a right action rho of g on I in
    [x_r, g_a] = x_r rho_a, and zero for [g, I] and [I, I].  For d = 0 the
    tables are the Lie tables; for d >= 1, g runs over the minimum of each
    GL(m, p) orbit of Lie tables, and rho over every map.

    With g and rho fixed the right identity is linear in omega, since
    [g, I] = [I, I] = 0, and it is solved once per (g, rho)
    (``_template_tables``).  It holds outright on the triples with x_r
    second or third, and on (y, g_j, g_k) its failure is alternating in
    (j, k), since [y, [g_j, g_k] + [g_k, g_j]] lies in [L, I] = 0; so the
    triples (y, g_j, g_k) with j < k suffice.  On (x_r, g_j, g_k) it is
    free of omega and says rho_[g_j, g_k] = rho_j rho_k - rho_k rho_j, so a
    rho that is not an action has no solution.  Each solution omega gives
    one table."""
    yield from _lie_tables(p, n, budget)
    pack = _transports(p, n)[0]
    units = pack.units
    at = lambda i, j, k: (i * n + j) * n + k
    for d in range(1, n):
        m = n - d
        idx, ideal = range(m), range(d)
        # the lanes of the constants of g, of rho and of omega
        inner = [units[at(a, b, k)] for a in idx for b in idx for k in idx]
        acting = [units[at(m + r, a, m + q)] for a in idx for r in ideal for q in ideal]
        omega = [units[at(a, b, m + r)] for a in idx for b in idx for r in ideal]

        def entry(a, b, k):
            # g's m^3 constants are the first fixed values and rho's follow
            if b >= m or (a >= m and k < m):
                return 0, None, False
            if a >= m:
                return 1, m**3 + (b * d + a - m) * d + k - m, False
            if k >= m:
                return 1, (a * m + b) * d + k - m, True
            return 1, (a * m + b) * m + k, False

        pairs = itertools.combinations(idx, 2)
        triples = [(i, j, k) for j, k in pairs for i in range(n)]
        equations = _identity_equations(n, entry, triples)
        unpack = _transports(p, m)[0].unpack
        for orbit in _mark_orbits(_lie_tables(p, m, budget), p, m, budget):
            flat = unpack(min(orbit))
            base = pack.pack(flat, inner)
            yield from _template_tables(pack, equations, base, flat, acting, omega)


def _census(field, dim, budget):
    """(scanned, valid, [(key, representative)]): the orbits that
    ``_mark_orbits`` closes around the tables of ``_liesation_tables``.
    Each class is keyed by the minimum of its orbit, the classes are sorted
    by key, and ``valid`` is the sum of the orbit sizes.  The budget bounds
    the p^(dim(dim-1)) systems of the Lie step and the projective points of
    F^dim that every class's oracle enumerates, before any table is built,
    then the solutions of the Lie systems and the running sum of the orbit
    sizes as they are found.  At dim 2 the valid tables are counted up front
    too, by their closed form p^3 + 2p^2 - p - 1.  Orbit members stay
    packed; only the class keys are unpacked."""
    systems = f"Lie systems of {field} dim {dim}"
    require_enumerable(field, dim * (dim - 1), budget, systems)
    require_enumerable(field, dim, budget, f"projective points of F^{dim}")
    p = field.p
    if dim == 2:
        valid = p**3 + 2 * p * p - p - 1
        if valid > budget:
            raise BudgetExceeded(
                f"Leibniz tables of {field} dim 2: {valid} exceeds budget {budget}"
            )
    orbits = _mark_orbits(_liesation_tables(p, dim, budget), p, dim, budget)
    # GF(2) dim 3 compares reversed tuples, the order of the 27-bit id with
    # c[i][j][k] at bit 9i + 3j + k, so its pinned report keeps its bytes;
    # its lanes are one byte each, so a member's little-endian bytes are its
    # reversed tuple
    order = (lambda x: x.to_bytes(27, "little")) if (p, dim) == (2, 3) else None
    unpack = _transports(p, dim)[0].unpack
    minima = sorted((min(orbit, key=order) for orbit in orbits), key=order)
    return p ** (dim**3), sum(map(len, orbits)), [
        (key, _canonical_rep(field, dim, key)) for key in map(unpack, minima)
    ]


def _canonical_rep(field, dim, key) -> LeibnizAlgebra:
    """The algebra of a flat table, checked against the right identity in
    full: a class representative that fails it is a defect of the engine."""
    try:
        return LeibnizAlgebra(MultiplicationTable(field, dim, _cube(key, dim)))
    except NotLeibniz as exc:
        raise VerificationFailed(f"class representative {key} is not Leibniz") from exc


# ---------------------------------------------------------------------------
# lemma harness
# ---------------------------------------------------------------------------


class HarnessReport:
    __slots__ = ("algebras", "clauses_checked", "failures")

    def __init__(self):
        self.algebras = 0
        self.clauses_checked = 0
        self.failures = []

    def ok(self) -> bool:
        return not self.failures

    def to_json(self):
        return {
            "algebras": self.algebras,
            "clauses_checked": self.clauses_checked,
            "failures": self.failures,
        }


def _harness_one(label, alg, budget, report, decided):
    subs = subalgebras(alg, budget=budget)
    quasis = quasi_ideals(alg, budget=budget)

    def record(clause, ok, context=None, detail=None):
        report.clauses_checked += 1
        if not ok:
            report.failures.append(
                {
                    "algebra": label,
                    "clause": clause,
                    "context": context,
                    "detail": detail,
                }
            )

    def note(clauses, context):
        for name, (status, detail) in clauses.items():
            if status in ("pass", "fail"):
                record(name, status == "pass", context, detail)

    for h in quasis:
        note(lemma_suite(alg, h), f"quasi-ideal dim {h.dim}")
    for s in subs:
        chain = subquasi_chain(alg, s, budget=budget)
        if chain is not None and chain.m >= 2:
            note(lemma_suite(alg, s, chain), f"{chain.m}-step chain dim {s.dim}")

    if len(quasis) == len(subs):
        # quotients by every ideal stay in the class; many ideals, of this
        # algebra and of the others in the run, give the same quotient
        # table, whose verdict ``decided`` keeps under (field, raw cube).
        # L/0 has L's own table, and L is in the class here
        field = alg.field
        decided[field, alg.table.raw] = True
        for j in subs:
            if not is_ideal(alg, j):
                continue
            key = field, raw_quotient_cube(alg, j)
            ok = decided.get(key)
            if ok is None:
                ok = decided[key] = in_class_q(quotient(alg, j), budget=budget)[0]
            record("quotient_closure", ok, f"ideal dim {j.dim}")

    ideal = squares_ideal(alg)
    if ideal.dim == 1:
        br, zero = alg.table.raw_bracket, alg.field.raw_zero
        hypothesis = all(
            any(s != zero for s in br(x, x))
            for x in raw_projective_points(alg.field, alg.dim, budget)
            if not ideal.raw_contains(x)
        )
        if hypothesis:
            record(
                "squares_ideal_central",
                center(alg).contains(ideal),
                "all squares off the ideal nonzero",
            )

    if is_engel_algebra(alg, budget=budget).holds:
        record("engel_implies_nilpotent", is_nilpotent(alg))


def lemma_harness(corpus, budget: int = DEFAULT_BUDGET) -> HarnessReport:
    """Run the quasi-ideal identity suite, chain variants, quotient closure,
    central-squares and Engel-nilpotency checks over a finite-field corpus.

    ``corpus`` is a list of (label, algebra) pairs; the budget bounds the
    q^n vectors and the subspaces of each F^n, all counted before any work.
    """
    for _, alg in corpus:
        require_enumerable(alg.field, alg.dim, budget, f"projective points of F^{alg.dim}")
        require_subspaces(alg.field, alg.dim, budget)
    report, decided = HarnessReport(), {}
    for label, alg in corpus:
        report.algebras += 1
        _harness_one(label, alg, budget, report, decided)
    return report
