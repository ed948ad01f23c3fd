import math
import random
from fractions import Fraction

import pytest

from quasileib.errors import DivisionByZero, MalformedInput, MixedFields, UnsupportedField
from quasileib.fields import (
    GF2,
    GF3,
    PRIMALITY_BOUND,
    QQ,
    Field,
    FunctionField,
    PrimeField,
    field_from_json,
    is_prime,
    parse_field,
    parse_scalar,
)
from quasileib.fracfields import poly_add, poly_gcd, poly_mul, poly_sqrt, poly_trim
from quasileib.linalg import DEFAULT_BUDGET

F2T = FunctionField(2)
F3T = FunctionField(3)
FIELDS = (GF2, GF3, PrimeField(5), QQ, F2T, F3T)


def random_scalar(field, rng, nonzero=False):
    while True:
        if isinstance(field, PrimeField):
            s = field(rng.randrange(field.p))
        elif field is QQ or field == QQ:
            s = field(Fraction(rng.randrange(-20, 21), rng.randrange(1, 12)))
        else:
            num = [rng.randrange(field.p) for _ in range(rng.randrange(1, 4))]
            den = [rng.randrange(field.p) for _ in range(rng.randrange(1, 4))]
            if not any(den):
                den[-1] = 1
            s = field.from_polys(num, den)
        if not nonzero or s:
            return s


def test_gf5_addition():
    f = PrimeField(5)
    assert f(3) + f(4) == f(2)


def test_function_field_inverse_of_reduced_fraction():
    t = F2T.t
    x = t / (t + 1)
    assert x.inv() == (t + 1) / t
    assert x * x.inv() == F2T.one


def test_function_field_gcd_canonicalization():
    # t^2 + t = t (t + 1) over GF(2), so (t^2+t)/t^2 reduces to (t+1)/t
    s = F2T.from_polys((0, 1, 1), (0, 0, 1))
    assert s == F2T.from_polys((1, 1), (0, 1))
    assert s.value == ((1, 1), (0, 1))


def _general_add(field, a, b):
    p, (an, ad), (bn, bd) = field.p, a, b
    num = poly_add(p, poly_mul(p, an, bd), poly_mul(p, bn, ad))
    return field._reduce(num, poly_mul(p, ad, bd))


def _general_mul(field, a, b):
    p = field.p
    return field._reduce(poly_mul(p, a[0], b[0]), poly_mul(p, a[1], b[1]))


def _general_neg(field, a):
    return (tuple((-c) % field.p for c in a[0]), a[1])


def _general_axpy(field, c, x, y):
    return [_general_add(field, a, _general_mul(field, c, b)) for a, b in zip(x, y)]


def _shape_grid(field):
    """0, 1, -1, 2, t, t + 1, 1/t and (t^2 + 1)/(t + 1), as raw values: the
    zeros and units the kernels answer by shape, among values they do not."""
    canon = field.canon
    return [
        canon(0),
        canon(1),
        canon(-1),
        canon(2),
        canon(((0, 1), (1,))),
        canon(((1, 1), (1,))),
        canon(((1,), (0, 1))),
        canon(((1, 0, 1), (1, 1))),
    ]


def test_function_field_polynomial_fast_paths_match_the_general_formula():
    # raw_add and raw_mul skip _reduce when both denominators are 1, a zero
    # term or a unit factor returns the other operand, and raw_neg in
    # characteristic 2 returns its argument; their values must be the
    # canonical ones the general formula gives
    for field in (F2T, F3T):
        p = field.p
        rng = random.Random(f"polynomial fast paths/{p}")
        polys = [(), (1,), (p - 1,), (0, 1)] + [
            poly_trim(rng.randrange(p) for _ in range(rng.randrange(1, 7)))
            for _ in range(40)
        ]
        fractions = [random_scalar(field, rng).value for _ in range(20)]
        values = [(num, (1,)) for num in polys] + fractions
        for a in values:
            for b in rng.sample(values, 12):
                assert field.raw_add(a, b) == _general_add(field, a, b)
                assert field.raw_mul(a, b) == _general_mul(field, a, b)
        # every pair of the grid, each result canonical
        grid = _shape_grid(field)
        for a in grid:
            assert field.raw_neg(a) == _general_neg(field, a) == field.canon(field.raw_neg(a))
            for b in grid:
                for got, want in (
                    (field.raw_add(a, b), _general_add(field, a, b)),
                    (field.raw_mul(a, b), _general_mul(field, a, b)),
                ):
                    assert got == want == field.canon(got), (a, b)
    # an operand with a denominator is still reduced: 1/t * t = 1 and
    # 1/t + (t - 1)/t = 1
    for field in (F2T, F3T):
        one, over_t, t = field.raw_one, ((1,), (0, 1)), ((0, 1), (1,))
        assert field.raw_mul(over_t, t) == one
        assert field.raw_mul(t, over_t) == one
        t_minus_one_over_t = ((field.p - 1, 1), (0, 1))
        assert field.raw_add(over_t, t_minus_one_over_t) == one
    # characteristic 2 answers -a with a itself; an odd characteristic
    # negates the numerator
    assert F2T.raw_neg(((0, 1), (1, 1))) == ((0, 1), (1, 1))
    assert F3T.raw_neg(((0, 1), (1, 1))) == ((0, 2), (1, 1))


def test_function_field_axpy_matches_the_generic_axpy():
    # FunctionField.raw_axpy adds b to a entry by entry for c = 1, c*b to a
    # by one poly_mul and one poly_add when a, b and c are polynomials, and
    # otherwise as Field.raw_axpy does; every route equals the general
    # formula, entry by entry
    for field in (F2T, F3T):
        rng = random.Random(f"function field axpy/{field.p}")
        for trial in range(60):
            n = rng.randrange(1, 7)
            vectors = [
                tuple(_axpy_entry(field, rng) for _ in range(n)) for _ in range(2)
            ]
            c = (field.raw_zero, field.raw_one, _axpy_entry(field, rng))[min(trial % 10, 2)]
            x, y = vectors
            want = _general_axpy(field, c, x, y)
            assert field.raw_axpy(c, x, y) == Field.raw_axpy(field, c, x, y) == want
            assert field.raw_axpy(c, list(x), list(y)) == want
        # every triple (c, a, b) of the grid: c against x = the grid and y =
        # each rotation of it, each result canonical
        grid = _shape_grid(field)
        for c in grid:
            for shift in range(len(grid)):
                y = grid[shift:] + grid[:shift]
                got = field.raw_axpy(c, grid, y)
                assert got == _general_axpy(field, c, grid, y), (c, y)
                assert got == [field.canon(v) for v in got]


def _axpy_entry(field, rng):
    # zero, a polynomial, or a fraction with a nontrivial denominator
    kind = rng.randrange(3)
    if kind == 0:
        return field.raw_zero
    if kind == 1:
        return (_random_poly(field.p, rng), (1,))
    return random_scalar(field, rng).value


def test_function_field_decode_of_a_polynomial_is_canonical():
    # decode skips the gcd when the denominator is 1
    for field in (F2T, F3T):
        rng = random.Random(f"decode/{field.p}")
        for _ in range(50):
            num = [rng.randrange(field.p) for _ in range(rng.randrange(5))]
            den = [1] + [0] * rng.randrange(3)
            got = field.decode({"num": num, "den": den})
            assert got == field.canon((num, den)) == (poly_trim(num), (1,))


def test_function_field_decodes_an_integer_below_p_as_a_constant():
    for field in (F2T, F3T):
        for c in range(field.p):
            assert field.decode(c) == field.canon(((c,), (1,)))
        for bad in (field.p, -1, True, 1.0):
            with pytest.raises(MalformedInput):
                field.decode(bad)


def test_scalar_and_field_text_takes_ascii_digits_only():
    # str.isdigit and the regex \d also take the digits of other scripts,
    # which the JSON schemas do not allow
    for bad in ("\u0661/\u0662", "\u0661", "1/\u0662", "-\u0663", "\uff11", "\u00b2"):
        with pytest.raises(MalformedInput):
            QQ.decode(bad)
        with pytest.raises(MalformedInput):
            parse_scalar(QQ, bad)
    for field in (GF3, F2T):
        with pytest.raises(MalformedInput):
            parse_scalar(field, "\u0661")
    with pytest.raises(MalformedInput):
        parse_scalar(F2T, "t^\u0662")
    for bad in ("gf\u0662", "gf\u0662(t)", "gf\uff13"):
        with pytest.raises(MalformedInput):
            parse_field(bad)
    # every ASCII form read before still reads
    assert QQ.decode("7") == (7, 1) and QQ.decode("-6/4") == (-3, 2)
    assert parse_scalar(GF3, "+5") == GF3(2)
    assert parse_field("GF2(t)") == F2T and parse_field("gf3") == GF3


def _schoolbook_add(p, a, b):
    n = max(len(a), len(b))
    out = [0] * n
    for c in (a, b):
        for i, x in enumerate(c):
            out[i] = (out[i] + x) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _schoolbook_mul(p, a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _random_poly(p, rng, max_len=7):
    coeffs = [rng.randrange(p) for _ in range(rng.randrange(max_len))]
    if coeffs:
        coeffs[-1] = rng.randrange(1, p)
    return tuple(coeffs)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_poly_add_and_mul_match_schoolbook(p):
    rng = random.Random(f"polynomial kernels/{p}")
    polys = [(), (1,), (p - 1,), (0, 1)] + [_random_poly(p, rng) for _ in range(50)]
    for a in polys:
        for b in polys:
            assert poly_add(p, a, b) == _schoolbook_add(p, a, b), (a, b)
            assert poly_mul(p, a, b) == _schoolbook_mul(p, a, b), (a, b)
    # sums whose leading coefficients cancel: a + (low - a) = low
    for a in polys:
        low = _random_poly(p, rng, max_len=max(len(a), 1))
        b = _schoolbook_add(p, low, tuple((-x) % p for x in a))
        assert poly_add(p, a, b) == low == _schoolbook_add(p, a, b)
    assert poly_add(2, (1, 1), (0, 1)) == (1,)
    assert poly_add(3, (0, 1, 2), (0, 2, 1)) == ()


def test_function_field_sum_and_product_match_schoolbook():
    # each result is num/den of the schoolbook formula, in lowest terms
    # with a monic denominator
    p = F2T.p
    rng = random.Random("function field kernels")
    values = [(_random_poly(p, rng), (1,)) for _ in range(10)] + [
        random_scalar(F2T, rng).value for _ in range(20)
    ]
    for a in values:
        for b in values:
            (an, ad), (bn, bd) = a, b
            den = _schoolbook_mul(p, ad, bd)
            num_sum = _schoolbook_add(
                p, _schoolbook_mul(p, an, bd), _schoolbook_mul(p, bn, ad)
            )
            for (gn, gd), num in (
                (F2T.raw_add(a, b), num_sum),
                (F2T.raw_mul(a, b), _schoolbook_mul(p, an, bn)),
            ):
                assert _schoolbook_mul(p, gn, den) == _schoolbook_mul(p, num, gd)
                assert gd[-1] == 1 and poly_gcd(p, gn, gd) == (1,)


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        GF3(1) / GF3(0)
    with pytest.raises(DivisionByZero):
        F2T.zero.inv()


def test_reflected_operators_and_negative_powers():
    f5 = PrimeField(5)
    assert 2 - f5(2) == f5(0)
    assert 1 - f5(3) == f5(3)
    assert 1 / f5(2) == f5(3)
    assert f5(2) ** -3 == f5(2)  # 2^3 = 3 and 3 * 2 = 1
    assert f5(2) ** 0 == f5.one
    q = QQ(Fraction(3, 4))
    assert q ** -2 == QQ(Fraction(16, 9))
    assert 1 - q == QQ(Fraction(1, 4))
    assert 2 / q == QQ(Fraction(8, 3))
    t = F2T.t
    assert t ** -2 == 1 / (t * t) == F2T.from_polys([1], [0, 0, 1])
    assert 1 - t == t + 1
    for field in (f5, QQ, F2T):
        with pytest.raises(DivisionByZero):
            field.zero ** -1
        with pytest.raises(DivisionByZero):
            1 / field.zero


def test_mixed_fields_rejected():
    with pytest.raises(MixedFields):
        GF2(1) + GF3(1)
    with pytest.raises(MixedFields):
        F2T.t * F3T.t
    # coercing a scalar into a field, for every field kind
    for field, other in ((GF3, GF2(1)), (QQ, GF3(1)), (F3T, F2T.t)):
        with pytest.raises(MixedFields):
            field(other)
    for s in (GF3(2), QQ(Fraction(-1, 2)), F2T.t):
        assert s.field(s) == s


@pytest.mark.parametrize(
    "scalar,expected",
    [
        (F2T.t, False),
        (F2T.t * F2T.t, True),
        (F2T.from_polys((1, 0, 1)), True),  # t^2 + 1 = (t + 1)^2
        (GF3(2), False),  # squares mod 3 are {0, 1}
        (GF3(1), True),
        (QQ(Fraction(4, 9)), True),
        (QQ(Fraction(2, 9)), False),
        (QQ(-4), False),
    ],
)
def test_is_square_fixtures(scalar, expected):
    assert scalar.is_square() is expected


def test_field_axioms_on_random_triples():
    rng = random.Random(7)
    for field in FIELDS:
        for _ in range(1000):
            a = random_scalar(field, rng)
            b = random_scalar(field, rng)
            c = random_scalar(field, rng)
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c
            assert a + (-a) == field.zero
            if b:
                assert b * b.inv() == field.one
                assert (a / b) * b == a


def test_canonicalization_idempotent():
    rng = random.Random(11)
    for field in FIELDS:
        for _ in range(200):
            s = random_scalar(field, rng)
            assert field(s.value if isinstance(field, PrimeField) else s) == s
            a = s.value
            assert field.decode(field.encode(a)) == a


def test_sqrt_round_trip():
    rng = random.Random(13)
    for field in FIELDS:
        for _ in range(300):
            a = random_scalar(field, rng)
            sq = a * a
            assert sq.is_square()
            root = sq.sqrt()
            assert root is not None and root * root == sq
            # already canonical: a GF(p)(t) root has a monic denominator
            assert field(root.value).value == root.value
            if a.is_square():
                r = a.sqrt()
                assert r * r == a


def test_char2_frobenius_image_and_t():
    rng = random.Random(17)
    for _ in range(200):
        a = random_scalar(F2T, rng)
        assert (a * a).is_square()
    assert not F2T.t.is_square()


def test_even_odd_parts_reconstruct():
    rng = random.Random(19)
    t = F2T.t
    for _ in range(200):
        a = random_scalar(F2T, rng)
        u, v = F2T.wrap(F2T.even_odd_parts(a.value))
        assert u * u + t * v * v == a
    # is_square iff the odd part vanishes
    for _ in range(200):
        a = random_scalar(F2T, rng)
        _, v = F2T.even_odd_parts(a.value)
        assert a.is_square() == (v == F2T.raw_zero)


def test_poly_sqrt_odd_characteristic():
    # (t^2 + 2t + 1) = (t + 1)^2 over GF(3); lead must be a square
    assert poly_sqrt(3, (1, 2, 1)) == (1, 1)
    assert poly_sqrt(3, (0, 0, 2)) is None  # 2 is not a square mod 3
    assert poly_sqrt(5, poly_mul(5, (2, 3, 1), (2, 3, 1))) == (2, 3, 1)


def test_poly_gcd_monic():
    # gcd(t^2 + t, t^2) = t over GF(2)
    assert poly_gcd(2, (0, 1, 1), (0, 0, 1)) == (0, 1)


def test_json_encodings():
    assert GF3(2).to_json() == 2
    assert QQ(Fraction(-3, 4)).to_json() == "-3/4"
    assert F2T.t.to_json() == {"num": [0, 1], "den": [1]}
    with pytest.raises(MalformedInput):
        GF3.decode(5)
    with pytest.raises(MalformedInput):
        QQ.decode("x")
    with pytest.raises(MalformedInput):
        F2T.decode({"num": [2], "den": [1]})


def test_field_descriptors_round_trip():
    for field in FIELDS:
        assert field_from_json(field.to_json()) == field
    assert parse_field("gf5") == PrimeField(5)
    assert parse_field("q") == QQ
    assert parse_field("gf2(t)") == F2T


def test_parse_scalar():
    assert parse_scalar(GF3, "-1") == GF3(2)
    assert parse_scalar(QQ, "3/4") == QQ(Fraction(3, 4))
    assert parse_scalar(F2T, "t^2+t") == F2T.t * (F2T.t + 1)
    assert parse_scalar(F2T, "t/(t+1)") == F2T.t / (F2T.t + 1)
    assert parse_scalar(F3T, "2*t^2+1") == F3T.from_polys((1, 0, 2))
    # a space next to an operator or a parenthesis reads
    assert parse_scalar(F2T, "t^2 + t + 1") == parse_scalar(F2T, "t^2+t+1")
    assert parse_scalar(F2T, "t / (t + 1)") == F2T.t / (F2T.t + 1)
    assert parse_scalar(GF3, "- 1") == GF3(2)
    # GF(p) text is a signed ASCII integer: int() alone also reads "1_0" as
    # 10, which QQ rejects; deleting the space would read "1 2" as 12
    for bad in ("1_0", "1_0/3", "1/3", "", "+", "-", "+-1", "0x1", "1.0", "t", "1 2"):
        with pytest.raises(MalformedInput, match="GF\\(3\\) scalar"):
            parse_scalar(GF3, bad)
    for bad in ("1 0", "2 t", "t t", "t^1 0"):
        with pytest.raises(MalformedInput, match="GF\\(3\\)\\(t\\) scalar"):
            parse_scalar(F3T, bad)
    # a bare "-" before the variable is the coefficient -1
    for field in (F2T, F3T):
        t, one = field.t, field(1)
        assert parse_scalar(field, "-t") == t * -1
        assert parse_scalar(field, "1-t") == one - t
        assert parse_scalar(field, "-t^2") == t * t * -1
        assert parse_scalar(field, "-t/(1-t)") == t * -1 / (one - t)
        assert parse_scalar(field, "-2*t") == t * -2
        assert parse_scalar(field, "t-1") == t - one
        for bad in ("-", "--t", "*t", "-*t", "2*", "t+2*"):
            with pytest.raises(MalformedInput, match="polynomial term"):
                parse_scalar(field, bad)
        # one balanced outer pair of parentheses is stripped, no more; text
        # with no term at all is refused by name
        for bad in ("(t+1", "t)", "((t))", "t/(1", "+", "++", "(+)", "t/+"):
            with pytest.raises(MalformedInput, match="cannot parse polynomial"):
                parse_scalar(field, bad)
        assert parse_scalar(field, "(t+1)") == t + one
    # the coefficient list of t^d has d + 1 entries; a degree above
    # DEFAULT_BUDGET is refused before it is built
    assert parse_scalar(F2T, f"t^{DEFAULT_BUDGET}+1").value[0][-1] == 1
    for text in (f"t^{DEFAULT_BUDGET + 1}", "t^99999999999", "1/(t^99999999999+1)"):
        with pytest.raises(MalformedInput, match="polynomial degree"):
            parse_scalar(F2T, text)


def test_function_field_variable_is_an_ascii_identifier():
    # polynomial text names the variable, so a variable "1" would read the
    # coefficient 1 as t
    for var in ("1", "1t", "\u0661", "x\u0661", "_t", "", "t-1", "t^2", "t t"):
        with pytest.raises(MalformedInput, match="field variable"):
            FunctionField(2, var)
        with pytest.raises(MalformedInput, match="field variable"):
            field_from_json({"kind": "rational_function", "p": 2, "var": var})
    for text in ("gf2(1)", "gf2(\u0661)", "gf3(2t)"):
        with pytest.raises(MalformedInput):
            parse_field(text)
    x, t1 = FunctionField(2, "x"), FunctionField(3, "t1")
    assert parse_field("gf2(x)") == x and parse_field("gf3(t1)") == t1
    # "gf" and "q" read in either case; the variable is kept as written
    X = FunctionField(2, "X")
    assert parse_field("gf2(X)") == X and parse_field("GF2(X)") == X
    assert parse_scalar(X, "X^2+X") == X.t * X.t + X.t
    assert parse_field("GF2(t)") == FunctionField(2) and parse_field("GF3") == GF3
    assert parse_field("Q") == QQ and parse_field("QQ") == QQ
    assert parse_scalar(x, "x^2+x+1") == x.t * x.t + x.t + x(1)
    assert parse_scalar(t1, "-t1^2+1") == t1.t * t1.t * -1 + t1(1)


def test_characteristics():
    assert GF2.characteristic() == 2
    assert QQ.characteristic() == 0
    assert F3T.characteristic() == 3
    assert PrimeField(7).order == 7
    assert list(GF3.elements()) == [GF3(0), GF3(1), GF3(2)]


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    assert all(is_prime(n) == _trial_division(n) for n in range(-3, 10**5))


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers, strong pseudoprimes to base 2 and to bases 2, 3,
    # 5, 7, and the least strong pseudoprime to the first 12 prime bases,
    # which only the 13th base, 41, exposes
    for n in (561, 41041, 2047, 3215031751, 318665857834031151167461):
        assert not is_prime(n)
    assert not is_prime(2**67 - 1)  # 193707721 * 761838257287
    assert is_prime(2**31 - 1) and is_prime(2**61 - 1)


def test_moduli_from_the_primality_bound_are_refused():
    # from the bound up Miller-Rabin with 13 bases can be fooled (the bound
    # itself passes all 13), so no field is built there
    for make in (is_prime, PrimeField, FunctionField):
        with pytest.raises(UnsupportedField, match=str(PRIMALITY_BOUND)):
            make(PRIMALITY_BOUND)
    with pytest.raises(UnsupportedField):
        parse_field(f"gf{10**30 + 57}")
    assert PrimeField(2**61 - 1).p == 2**61 - 1


def _qq_values(rng, count):
    """Seeded rationals as Fractions: zero, ones, negatives and values with
    numerators and denominators far past a machine word."""
    out = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 4), Fraction(-7, 3)]
    while len(out) < count:
        scale = rng.choice((10, 10**6, 10**30))
        out.append(Fraction(rng.randrange(-scale, scale + 1), rng.randrange(1, scale + 1)))
    return out


def _is_qq_raw(a):
    num, den = a
    return (
        type(num) is int
        and type(den) is int
        and den > 0
        and math.gcd(num, den) == 1
    )


def test_qq_raw_kernels_match_fraction():
    rng = random.Random(23)
    values = _qq_values(rng, 60)
    raw = {q: QQ.canon(q) for q in values}
    for q, a in raw.items():
        assert _is_qq_raw(a) and a == (q.numerator, q.denominator)
        assert QQ.raw_neg(a) == QQ.canon(-q)
        if q:
            assert QQ.raw_inv(a) == QQ.canon(1 / q)
        else:
            with pytest.raises(DivisionByZero):
                QQ.raw_inv(a)
    for _ in range(2000):
        p, q, c = rng.choice(values), rng.choice(values), rng.choice(values)
        a, b = raw[p], raw[q]
        for got, want in (
            (QQ.raw_add(a, b), p + q),
            (QQ.raw_mul(a, b), p * q),
        ):
            assert _is_qq_raw(got) and got == QQ.canon(want)
        x = [rng.choice(values) for _ in range(4)]
        y = [rng.choice(values) for _ in range(4)]
        got = QQ.raw_axpy(raw[c], [raw[v] for v in x], [raw[v] for v in y])
        assert all(_is_qq_raw(g) for g in got)
        assert got == [QQ.canon(u + c * v) for u, v in zip(x, y)]


def test_qq_raw_sqrt_matches_fraction():
    rng = random.Random(29)
    for q in _qq_values(rng, 200):
        sq = QQ.canon(q * q)
        root = QQ.raw_sqrt(sq)
        assert QQ.raw_is_square(sq) and _is_qq_raw(root)
        assert root == QQ.canon(abs(q))
        # off the squares: a negative, or a square times a prime
        for off in (-q * q - 1, q * q * 2 if q else Fraction(2, 9)):
            assert QQ.raw_sqrt(QQ.canon(off)) is None
            assert not QQ.raw_is_square(QQ.canon(off))


def test_qq_text_round_trips():
    rng = random.Random(31)
    for q in _qq_values(rng, 200):
        s = QQ(q)
        text = s.to_json()
        assert text == f"{q.numerator}/{q.denominator}"
        assert QQ.decode(text) == s.value and parse_scalar(QQ, text) == s
        assert repr(s) == str(q)
    half = QQ.decode("2/4")
    assert half == (1, 2) and QQ.encode(half) == "1/2"
    assert parse_scalar(QQ, "-6/4").value == (-3, 2)
    assert QQ.decode("-0/5") == QQ.raw_zero == (0, 1)
    # a raw pair is accepted and canonicalised, as for GF(p)(t)
    assert QQ((2, -4)).value == (-1, 2)
    with pytest.raises(DivisionByZero):
        QQ((1, 0))
    for bad in ("1/0", "-3/0", "0/0", "1/-2", "1.5", "x", "1/2/3", "1 2", "1 2/3", "1/2 3"):
        with pytest.raises(MalformedInput):
            QQ.decode(bad)
        with pytest.raises(MalformedInput):
            parse_scalar(QQ, bad)
    # a JSON integer reads as itself; a bool, a float or a list does not
    assert QQ.decode(3) == (3, 1) and QQ.decode(-4) == (-4, 1)
    assert QQ.decode(0) == QQ.raw_zero
    for bad in (True, 1.5, None, [3]):
        with pytest.raises(MalformedInput):
            QQ.decode(bad)


def test_qq_scalars_compare_and_hash_with_ints():
    rng = random.Random(37)
    for q in _qq_values(rng, 100):
        s = QQ(q)
        assert not isinstance(s.value, Fraction)
        assert s == QQ(Fraction(q)) and hash(s) == hash(QQ(Fraction(q)))
        assert (s * 2 - s - s).is_zero()
    for n in range(-5, 6):
        assert QQ(n) == n and QQ(Fraction(n)) == n and QQ(n).value == (n, 1)
        assert hash(QQ(n)) == hash(QQ(Fraction(n, 1)))
        assert QQ(n) + 1 == n + 1 and 3 * QQ(n) == 3 * n
    assert QQ(Fraction(1, 2)) != 0 and len({QQ(2), QQ(Fraction(4, 2)), QQ((6, 3))}) == 1


def test_qq_canon_takes_other_values_through_fraction():
    # ints and raw pairs are canonicalised directly; a Fraction, a decimal
    # string or a float goes through the fallback that imports fractions
    assert QQ.canon(Fraction(-6, 8)) == (-3, 4)
    assert QQ(Fraction(3, 4)).value == (3, 4)
    assert QQ.canon("0.75") == (3, 4) and QQ.canon(0.5) == (1, 2)
