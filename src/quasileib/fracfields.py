"""The rationals and rational functions over a prime field.

* ``QQ``       -- the rationals.  An integer is a plain ``int``; any other
  element is a reduced pair ``(num, den)`` of ints with ``den > 1``.
* ``GF(p)(t)`` -- rational functions over a prime field.  A constant is its
  residue, a plain ``int`` in ``0 .. p-1``; any other element is a reduced
  fraction ``num/den`` of dense polynomials (ascending-degree coefficient
  tuples) with ``gcd(num, den) = 1`` and a monic denominator.

Most structure constants of the catalogued families are integers or
constants, so most arithmetic is int arithmetic, as over a prime field.
The JSON form does not depend on the form in memory: an integer n encodes
as ``"n/1"`` and a nonzero constant c as ``{"num": [c], "den": [1]}``.

JSON encodings: ``QQ`` -> string ``"a/b"`` with ``b > 0`` and
``gcd(a, b) = 1``; ``GF(p)(t)`` -> object ``{"num": [c0, c1, ...], "den":
[d0, d1, ...]}`` with ascending-degree coefficients in ``0 .. p-1``.

A census over GF(p) never runs this code, so ``fields`` imports the module
only when a rational or GF(p)(t) field is named.
"""

from __future__ import annotations

import re
from math import gcd, isqrt

from .errors import DivisionByZero, MalformedInput, UnsupportedField, VerificationFailed
from .fields import GF2, Field, Scalar, _digits, is_json_int, is_prime, sqrt_mod_prime
from .linalg import DEFAULT_BUDGET, raw_rref, raw_solve

# ---------------------------------------------------------------------------
# dense polynomials over GF(p)
#
# A polynomial is a tuple of ints in [0, p), ascending degree, with no
# trailing zeros; () is the zero polynomial.
# ---------------------------------------------------------------------------


def poly_trim(coeffs) -> tuple:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def poly_add(p: int, a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, bi in enumerate(b):
        out[i] = (out[i] + bi) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_neg(p: int, a: tuple) -> tuple:
    return tuple((-c) % p for c in a)


def poly_mul(p: int, a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    for k, c in enumerate(out):
        out[k] = c % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def poly_scale(p: int, c: int, a: tuple) -> tuple:
    c %= p
    if c == 0:
        return ()
    return poly_trim((c * ai) % p for ai in a)


def poly_divmod(p: int, a: tuple, b: tuple):
    if not b:
        raise DivisionByZero("polynomial division by zero")
    r = list(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    inv_lead = pow(b[-1], -1, p)
    for i in range(len(r) - len(b), -1, -1):
        coef = (r[i + len(b) - 1] * inv_lead) % p
        if coef == 0:
            continue
        q[i] = coef
        for j, bj in enumerate(b):
            r[i + j] = (r[i + j] - coef * bj) % p
    return poly_trim(q), poly_trim(r)


def poly_gcd(p: int, a: tuple, b: tuple) -> tuple:
    """Monic gcd; gcd(0, 0) = 0."""
    while b:
        a, b = b, poly_divmod(p, a, b)[1]
    if a:
        a = poly_scale(p, pow(a[-1], -1, p), a)
    return a


def poly_sqrt(p: int, f: tuple):
    """Exact polynomial square root of ``f`` over GF(p), or None.

    In characteristic 2 a square has only even-degree terms; otherwise the
    root is reconstructed coefficient by coefficient from the top and then
    verified by squaring.
    """
    if not f:
        return ()
    if (len(f) - 1) % 2 == 1:
        return None
    m = (len(f) - 1) // 2
    if p == 2:
        if any(f[i] for i in range(1, len(f), 2)):
            return None
        return poly_trim(f[2 * i] if 2 * i < len(f) else 0 for i in range(m + 1))
    lead = sqrt_mod_prime(f[-1], p)
    if lead is None:
        return None
    g = [0] * (m + 1)
    g[m] = lead
    inv2gm = pow(2 * lead % p, -1, p)
    for j in range(m - 1, -1, -1):
        acc = f[m + j]
        for a in range(j + 1, m):
            b = m + j - a
            if j < b < m:
                acc -= g[a] * g[b]
        g[j] = (acc * inv2gm) % p
    g = poly_trim(g)
    if poly_mul(p, g, g) != f:
        return None
    return g


def poly_str(coeffs: tuple, var: str = "t") -> str:
    if not coeffs:
        return "0"
    terms = []
    for k in range(len(coeffs) - 1, -1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        if k == 0:
            terms.append(str(c))
        elif k == 1:
            terms.append(var if c == 1 else f"{c}*{var}")
        else:
            terms.append(f"{var}^{k}" if c == 1 else f"{c}*{var}^{k}")
    return " + ".join(terms)


# ---------------------------------------------------------------------------
# the rationals
# ---------------------------------------------------------------------------


class RationalField(Field):
    """The rationals.

    A raw value is an ``int`` when it is an integer, and otherwise a pair
    ``(num, den)`` of ints with ``gcd(num, den) = 1`` and ``den > 1``; zero
    is ``0`` and one is ``1``.  Each value has one form, so equal values
    are equal raw values; a result that may take either form is built by
    :func:`_q_reduce`.
    """

    raw_zero = 0
    raw_one = 1

    def canon(self, value):
        # a raw pair, reduced here as GF(p)(t) reduces one; else an int, a
        # Fraction or anything else Fraction takes
        if isinstance(value, tuple):
            num, den = value
            if not den:
                raise DivisionByZero("zero denominator in QQ")
            if den < 0:
                num, den = -num, -den
            return _q_reduce(num, den)
        if isinstance(value, int):
            return int(value)
        from fractions import Fraction  # only here: its import is slow

        q = Fraction(value)
        return _q_reduce(q.numerator, q.denominator)

    def characteristic(self) -> int:
        return 0

    # Each operation answers two integers in int arithmetic, whose result is
    # an integer again, and reads an integer n as n/1 otherwise.

    def raw_add(self, a, b):
        if a.__class__ is int and b.__class__ is int:
            return a + b
        an, ad = (a, 1) if a.__class__ is int else a
        bn, bd = (b, 1) if b.__class__ is int else b
        return _q_reduce(an * bd + bn * ad, ad * bd)

    def raw_neg(self, a):
        if a.__class__ is int:
            return -a
        return (-a[0], a[1])

    def raw_mul(self, a, b):
        if a.__class__ is int and b.__class__ is int:
            return a * b
        an, ad = (a, 1) if a.__class__ is int else a
        bn, bd = (b, 1) if b.__class__ is int else b
        return _q_reduce(an * bn, ad * bd)

    def raw_inv(self, a):
        num, den = (a, 1) if a.__class__ is int else a
        if not num:
            raise DivisionByZero("inverse of 0 in QQ")
        return _q_reduce(den, num) if num > 0 else _q_reduce(-den, -num)

    def raw_axpy(self, c, x, y) -> list:
        cn, cd = (c, 1) if c.__class__ is int else c
        out = []
        for a, b in zip(x, y):
            if b.__class__ is int:
                if not b:
                    out.append(a)
                    continue
                if cd == 1 and a.__class__ is int:
                    out.append(a + cn * b)
                    continue
            an, ad = (a, 1) if a.__class__ is int else a
            bn, bd = (b, 1) if b.__class__ is int else b
            out.append(_q_reduce(an * cd * bd + cn * bn * ad, ad * cd * bd))
        return out

    def raw_sqrt(self, a):
        num, den = (a, 1) if a.__class__ is int else a
        if num < 0:
            return None
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn != num or rd * rd != den:
            return None
        # rn/rd is reduced, as a common factor would divide num and den;
        # _q_reduce only picks its form
        return _q_reduce(rn, rd)

    def encode(self, a):
        if a.__class__ is int:
            return f"{a}/1"
        return f"{a[0]}/{a[1]}"

    def decode(self, obj):
        if isinstance(obj, str):
            return _parse_rational(obj)
        if is_json_int(obj):
            return obj
        raise MalformedInput(f"bad rational scalar: {obj!r}")

    def format(self, a) -> str:
        if a.__class__ is int:
            return str(a)
        return f"{a[0]}/{a[1]}"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"

    def to_json(self):
        return {"kind": "rationals"}


def _q_reduce(num: int, den: int):
    """The raw QQ value of num/den for den > 0: an int when den divides
    num, else the reduced pair."""
    if den == 1:
        return num
    g = gcd(num, den)
    if g == den:
        return num // den
    return (num // g, den // g)


def _parse_rational(text: str):
    """The raw QQ value of ``a`` or ``a/b`` text (``a`` signed, ``b``
    unsigned and nonzero), in ASCII digits."""
    num, slash, den = text.partition("/")
    if not (_digits(num[1:] if num[:1] == "-" else num) and (not slash or _digits(den))):
        raise MalformedInput(f"bad rational scalar: {text!r}")
    den = int(den) if slash else 1
    if not den:
        raise MalformedInput(f"zero denominator in rational scalar: {text!r}")
    return _q_reduce(int(num), den)


QQ = RationalField()

# ---------------------------------------------------------------------------
# rational functions over GF(p)
# ---------------------------------------------------------------------------


def _polys(a) -> tuple:
    """The numerator and denominator polynomials of a raw GF(p)(t) value."""
    if a.__class__ is int:
        return ((a,) if a else (), (1,))
    return a


class FunctionField(Field):
    """GF(p)(t): rational functions over a prime field.

    A raw value is an ``int`` in ``0 .. p-1`` when it is a constant, and
    otherwise a pair ``(num, den)`` of coefficient tuples with
    ``gcd(num, den) = 1`` and monic ``den``; zero is ``0`` and one is
    ``1``.  Each value has one form, so equal values are equal raw values;
    a result that may take either form is built by :meth:`_pack`.
    """

    raw_zero = 0
    raw_one = 1

    def __init__(self, p: int, var: str = "t"):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        # polynomial text names the variable: a variable "1" reads 1 as t
        if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", var):
            raise MalformedInput(
                f"field variable must be an ASCII identifier starting with a "
                f"letter: {var!r}"
            )
        self.p = p
        self.var = var

    def _pack(self, num: tuple, den: tuple):
        """The raw value of num/den for polynomials num and den."""
        if not den:
            raise DivisionByZero(f"zero denominator in {self}")
        if not num:
            return 0
        p = self.p
        if len(den) > 1:
            # a constant denominator shares no factor with num
            g = poly_gcd(p, num, den)
            if len(g) > 1:
                num = poly_divmod(p, num, g)[0]
                den = poly_divmod(p, den, g)[0]
        if den[-1] != 1:
            inv_lead = pow(den[-1], -1, p)
            num = poly_scale(p, inv_lead, num)
            den = poly_scale(p, inv_lead, den)
        if len(num) == len(den) == 1:
            return num[0]
        return (num, den)

    def canon(self, value):
        p = self.p
        if isinstance(value, int):
            return value % p
        if isinstance(value, (list, tuple)):
            if len(value) == 2 and all(isinstance(x, (list, tuple)) for x in value):
                num = poly_trim(c % p for c in value[0])
                den = poly_trim(c % p for c in value[1])
                return self._pack(num, den)
            return self._pack(poly_trim(c % p for c in value), (1,))
        raise TypeError(f"cannot coerce {value!r} into {self}")

    @property
    def t(self) -> Scalar:
        return Scalar(self, ((0, 1), (1,)))

    def from_polys(self, num, den=(1,)) -> Scalar:
        return self((tuple(num), tuple(den)))

    def characteristic(self) -> int:
        return self.p

    # Two constants are answered in GF(p) arithmetic.  Zeros and units are
    # answered by their shape: a zero term of a sum and a unit factor of a
    # product return the other operand, which is already canonical, and
    # -a = a in characteristic 2.

    def raw_add(self, a, b):
        if a.__class__ is int:
            if b.__class__ is int:
                return (a + b) % self.p
            if not a:
                return b
        elif b.__class__ is int and not b:
            return a
        p = self.p
        (an, ad), (bn, bd) = _polys(a), _polys(b)
        if ad == bd:
            return self._pack(poly_add(p, an, bn), ad)
        num = poly_add(p, poly_mul(p, an, bd), poly_mul(p, bn, ad))
        return self._pack(num, poly_mul(p, ad, bd))

    def raw_neg(self, a):
        if self.p == 2:
            return a
        if a.__class__ is int:
            return -a % self.p
        return (poly_neg(self.p, a[0]), a[1])

    def raw_mul(self, a, b):
        if a.__class__ is int:
            if b.__class__ is int:
                return a * b % self.p
            if a == 1:
                return b
        elif b.__class__ is int and b == 1:
            return a
        p = self.p
        (an, ad), (bn, bd) = _polys(a), _polys(b)
        return self._pack(poly_mul(p, an, bn), poly_mul(p, ad, bd))

    def raw_inv(self, a):
        if a.__class__ is int:
            if not a:
                raise DivisionByZero(f"inverse of 0 in {self}")
            return pow(a, -1, self.p)
        return self._pack(a[1], a[0])

    def raw_axpy(self, c, x, y) -> list:
        add, mul, p = self.raw_add, self.raw_mul, self.p
        constant = c.__class__ is int
        if constant and c == 1:
            return list(map(add, x, y))
        out = []
        for a, b in zip(x, y):
            if b.__class__ is int:
                if not b:
                    out.append(a)
                    continue
                if constant and a.__class__ is int:
                    out.append((a + c * b) % p)
                    continue
            out.append(add(a, mul(c, b)))
        return out

    def raw_sqrt(self, a):
        if a.__class__ is int:
            return sqrt_mod_prime(a, self.p)
        # Reduced n/d is a square iff both n and d are square polynomials:
        # n*d' = d*n' with coprime parts forces matching square factors, and
        # the monic denominator fixes the unit.
        rn = poly_sqrt(self.p, a[0])
        rd = poly_sqrt(self.p, a[1])
        if rn is None or rd is None:
            return None
        return self._pack(rn, rd)

    def even_odd_parts(self, a):
        """Raw u and v with ``a = u**2 + t * v**2`` for a raw value a
        (characteristic 2 only).

        Uses a = n/d = (n*d)/d**2 and the even/odd split of n*d; this is the
        coordinate map of GF(2)(t) as a rank-2 module over its subfield of
        squares, with basis {1, t}.
        """
        if self.p != 2:
            raise UnsupportedField("even/odd split needs characteristic 2")
        num, den = _polys(a)
        nd = poly_mul(self.p, num, den)
        even = poly_trim(nd[i] for i in range(0, len(nd), 2))
        odd = poly_trim(nd[i] for i in range(1, len(nd), 2))
        return self._pack(even, den), self._pack(odd, den)

    def encode(self, a):
        num, den = _polys(a)
        return {"num": list(num), "den": list(den)}

    def decode(self, obj):
        ok = (
            isinstance(obj, dict)
            and set(obj) == {"num", "den"}
            and all(
                isinstance(obj[k], list)
                and all(is_json_int(c) and 0 <= c < self.p for c in obj[k])
                for k in ("num", "den")
            )
        )
        if not ok:
            if is_json_int(obj) and 0 <= obj < self.p:
                # the constant polynomial
                return obj
            raise MalformedInput(f"bad {self} scalar: {obj!r}")
        return self._pack(poly_trim(obj["num"]), poly_trim(obj["den"]))

    def format(self, a) -> str:
        num, den = _polys(a)
        if den == (1,):
            return poly_str(num, self.var)
        ns, ds = poly_str(num, self.var), poly_str(den, self.var)
        if " + " in ns:
            ns = f"({ns})"
        if " + " in ds:
            ds = f"({ds})"
        return f"{ns}/{ds}"

    def __eq__(self, other):
        return (
            isinstance(other, FunctionField)
            and other.p == self.p
            and other.var == self.var
        )

    def __hash__(self):
        return hash(("rational_function", self.p, self.var))

    def __repr__(self):
        return f"GF({self.p})({self.var})"

    def to_json(self):
        return {"kind": "rational_function", "p": self.p, "var": self.var}


def _parse_poly(field: FunctionField, text: str) -> tuple:
    """The coefficients of polynomial text such as ``2*t^2-t+1``, inside at
    most one pair of parentheses; a degree above DEFAULT_BUDGET is refused
    before any coefficient list is built."""
    t = text[1:-1] if text[:1] == "(" and text[-1:] == ")" else text
    if not t:
        raise MalformedInput("empty polynomial")
    coeffs = {}
    for term in t.replace("-", "+-").split("+"):
        if not term:
            continue
        # "-t" has the coefficient -1; a "*" needs digits before it and the
        # variable after it
        m = re.fullmatch(rf"(-?)(?:([0-9]+)\*?)?(?:{field.var}(?:\^([0-9]+))?)?", term)
        if not m or term[-1] == "*" or (m.group(2) is None and field.var not in term):
            raise MalformedInput(f"cannot parse polynomial term {term!r}")
        coef = int(m.group(1) + (m.group(2) or "1"))
        if field.var in term:
            deg = int(m.group(3)) if m.group(3) is not None else 1
        else:
            deg = 0
        if deg > DEFAULT_BUDGET:
            raise MalformedInput(
                f"polynomial degree {deg} exceeds {DEFAULT_BUDGET}: {text!r}"
            )
        coeffs[deg] = coeffs.get(deg, 0) + coef
    if not coeffs:
        raise MalformedInput(f"cannot parse polynomial {text!r}")
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c % field.p
    return poly_trim(out)


# ---------------------------------------------------------------------------
# characteristic-2 forms over GF(2)(t), on raw values
# ---------------------------------------------------------------------------


def artin_schreier_root(field: FunctionField, d):
    """A raw root of y**2 + y = d over GF(2)(t) for a raw d, or None.

    With y = n/m reduced, m**2 must be the (monic) denominator of d and
    n**2 + n m = num(d); squaring and multiplying by a fixed m are both
    GF(2)-linear in the coefficients of n, so the equation is a linear
    system over GF(2).
    """
    if field.p != 2:
        raise UnsupportedField("Artin-Schreier roots only in characteristic 2")
    num, den = _polys(d)
    m = poly_sqrt(2, den)
    if m is None:
        return None
    # roots come in pairs n, n+m; if deg n > deg m the top term forces
    # 2 deg n = deg num, so this degree bound covers every solution
    bound = max(len(num) - 1, len(m) - 1, 1)
    width = 2 * bound + len(m)
    pad = lambda poly: tuple(poly[i] if i < len(poly) else 0 for i in range(width))
    rows = []
    basis_polys = []
    for k in range(bound + 1):
        tk = poly_trim([0] * k + [1])
        img = poly_add(2, poly_trim([0] * (2 * k) + [1]), poly_mul(2, tk, m))
        rows.append(pad(img))
        basis_polys.append(tk)
    # coefficients x with x @ rows = num: one equation per column
    system = [col + (c,) for col, c in zip(zip(*rows), pad(num))]
    solved = raw_solve(GF2, system, len(rows))
    if solved is None:
        return None
    coeffs = solved[0]
    n = ()
    for c, tk in zip(coeffs, basis_polys):
        if c:
            n = poly_add(2, n, tk)
    y = field.canon((n, m))
    if field.raw_add(field.raw_mul(y, y), y) != d:
        raise VerificationFailed(
            f"{field.format(y)} is not a root of y^2 + y = {field.format(d)}"
        )
    return y


def char2_diagonal_anisotropic(field: FunctionField, diagonal) -> bool:
    """Whether sum d_i x_i**2 has only the trivial zero over GF(2)(t), for
    raw coefficients d_i.

    Writing d_i = u_i**2 + t v_i**2, the form vanishes at x exactly when
    sum x_i u_i = sum x_i v_i = 0, so anisotropy is full rank of the
    (u_i, v_i) rows (forcing at most two variables over GF(2)(t)).
    """
    rows = [field.even_odd_parts(d) for d in diagonal]
    _, pivots = raw_rref(field, rows, 2)
    return len(pivots) == len(rows)
