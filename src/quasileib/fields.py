"""Exact arithmetic for the three coefficient fields used by the package.

Supported fields:

* ``GF(p)``    -- prime fields; elements are residues in ``[0, p)``.
* ``QQ``       -- the rationals.  An element is a reduced pair ``(num, den)``
  of ints with ``den > 0``.
* ``GF(p)(t)`` -- rational functions over a prime field.  An element is a
  reduced fraction ``num/den`` of dense polynomials (ascending-degree
  coefficient tuples) with ``gcd(num, den) = 1`` and a monic denominator.

Every value is canonical on construction, so two scalars are equal exactly
when their representations are identical, and scalars hash consistently and
can be shared freely between threads or processes.

JSON encodings (used by all file formats of the CLI):

* ``GF(p)``    -> plain integer in ``0 .. p-1``
* ``QQ``       -> string ``"a/b"`` with ``b > 0`` and ``gcd(a, b) = 1``
* ``GF(p)(t)`` -> object ``{"num": [c0, c1, ...], "den": [d0, d1, ...]}``
  with ascending-degree coefficients in ``0 .. p-1``
"""

from __future__ import annotations

import re
from math import gcd, isqrt

from .errors import DivisionByZero, MalformedInput, MixedFields, UnsupportedField

# ---------------------------------------------------------------------------
# integer helpers
# ---------------------------------------------------------------------------


# Miller-Rabin with the first 13 primes as bases decides primality for every
# n below this bound (Sorenson and Webster, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; a modulus from
    PRIMALITY_BOUND up is refused rather than guessed at."""
    if n >= PRIMALITY_BOUND:
        raise UnsupportedField(
            f"primality is decided only below {PRIMALITY_BOUND}; "
            f"the modulus has {n.bit_length()} bits"
        )
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def sqrt_mod_prime(a: int, p: int):
    """Square root of ``a`` mod prime ``p``, or None if ``a`` is a non-residue.

    Euler's criterion decides; Tonelli-Shanks extracts when p = 1 mod 4.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


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
# scalars
# ---------------------------------------------------------------------------


class Scalar:
    """An immutable field element: a field reference plus a canonical value."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        self.field = field
        self.value = value

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise MixedFields(f"{self.field} vs {other.field}")
            return other.value
        if isinstance(other, int):
            return self.field.canon(other)
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.raw_add(self.value, v))

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.raw_add(self.value, self.field.raw_neg(v)))

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.raw_add(v, self.field.raw_neg(self.value)))

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.raw_mul(self.value, v))

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.raw_mul(self.value, self.field.raw_inv(v)))

    def __rtruediv__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return Scalar(self.field, self.field.raw_mul(v, self.field.raw_inv(self.value)))

    def __neg__(self):
        return Scalar(self.field, self.field.raw_neg(self.value))

    def __pow__(self, n: int):
        if n < 0:
            return self.inv() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inv(self):
        return Scalar(self.field, self.field.raw_inv(self.value))

    def is_zero(self) -> bool:
        return self.value == self.field.raw_zero

    def __bool__(self):
        return not self.is_zero()

    def is_square(self) -> bool:
        return self.field.raw_is_square(self.value)

    def sqrt(self):
        """A square root in the same field, or None if no root exists."""
        r = self.field.raw_sqrt(self.value)
        return None if r is None else Scalar(self.field, r)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.field == other.field and self.value == other.value
        if isinstance(other, int):
            return self.value == self.field.canon(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.field, self.value))

    def __repr__(self):
        return self.field.format(self.value)

    def to_json(self):
        return self.field.encode(self.value)


class Field:
    """Common surface of the three field kinds."""

    is_finite = False

    def __call__(self, value) -> Scalar:
        if isinstance(value, Scalar):
            if value.field != self:
                raise MixedFields(f"{self} vs {value.field}")
            return Scalar(self, value.value)
        return Scalar(self, self.canon(value))

    def canon(self, value):
        """The canonical raw value of a plain value (not a Scalar)."""
        raise NotImplementedError

    def characteristic(self) -> int:
        raise NotImplementedError

    def elements(self):
        raise UnsupportedField(f"cannot enumerate elements of {self}")

    @property
    def order(self):
        return None

    # raw-value arithmetic, implemented per kind
    raw_zero = None
    raw_one = None

    def raw_add(self, a, b):
        raise NotImplementedError

    def raw_neg(self, a):
        raise NotImplementedError

    def raw_mul(self, a, b):
        raise NotImplementedError

    def raw_inv(self, a):
        raise NotImplementedError

    def raw_axpy(self, c, x, y) -> list:
        """x + c*y for raw vectors x and y."""
        add, mul, zero = self.raw_add, self.raw_mul, self.raw_zero
        return [a if b == zero else add(a, mul(c, b)) for a, b in zip(x, y)]

    def raw_is_square(self, a) -> bool:
        return self.raw_sqrt(a) is not None

    def raw_sqrt(self, a):
        raise NotImplementedError

    def encode(self, a):
        raise NotImplementedError

    def decode(self, obj):
        """The raw value of a JSON scalar: the inverse of :meth:`encode`."""
        raise NotImplementedError

    def format(self, a) -> str:
        return str(a)

    @property
    def zero(self) -> Scalar:
        return Scalar(self, self.raw_zero)

    @property
    def one(self) -> Scalar:
        return Scalar(self, self.raw_one)

    # The linear-algebra kernels compute on raw values; these two convert
    # vectors at the edge where scalars come in and go out.

    def unwrap(self, vector) -> tuple:
        """The raw values of a vector of scalars.  Every entry, zero or not,
        must be a scalar of this field."""
        out = []
        for s in vector:
            if not isinstance(s, Scalar) or (s.field is not self and s.field != self):
                raise MixedFields(f"{self} vs {getattr(s, 'field', type(s).__name__)}")
            out.append(s.value)
        return tuple(out)

    def wrap(self, raw) -> tuple:
        """A vector of scalars from raw values."""
        return tuple([Scalar(self, a) for a in raw])

    def to_json(self):
        raise NotImplementedError


class PrimeField(Field):
    """GF(p) for a prime p, elements stored as machine-word residues."""

    is_finite = True
    raw_zero = 0
    raw_one = 1

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def canon(self, value):
        return int(value) % self.p

    def characteristic(self) -> int:
        return self.p

    @property
    def order(self):
        return self.p

    def elements(self):
        for i in range(self.p):
            yield Scalar(self, i)

    def raw_add(self, a, b):
        return (a + b) % self.p

    def raw_neg(self, a):
        return (-a) % self.p

    def raw_mul(self, a, b):
        return (a * b) % self.p

    def raw_inv(self, a):
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in {self}")
        return pow(a, -1, self.p)

    def raw_axpy(self, c, x, y) -> list:
        p = self.p
        return [(a + c * b) % p for a, b in zip(x, y)]

    def raw_sqrt(self, a):
        return sqrt_mod_prime(a, self.p)

    def encode(self, a):
        return a

    def decode(self, obj):
        if not is_json_int(obj) or not 0 <= obj < self.p:
            raise MalformedInput(f"bad GF({self.p}) scalar: {obj!r}")
        return obj

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def to_json(self):
        return {"kind": "prime", "p": self.p}


class RationalField(Field):
    """The rationals.

    Raw values are pairs ``(num, den)`` of ints with ``gcd(num, den) = 1``
    and ``den > 0``; zero is ``(0, 1)``.
    """

    raw_zero = (0, 1)
    raw_one = (1, 1)

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
            return (int(value), 1)
        from fractions import Fraction  # only here: its import is slow

        q = Fraction(value)
        return (q.numerator, q.denominator)

    def characteristic(self) -> int:
        return 0

    def raw_add(self, a, b):
        (an, ad), (bn, bd) = a, b
        if ad == bd:
            return _q_reduce(an + bn, ad)
        return _q_reduce(an * bd + bn * ad, ad * bd)

    def raw_neg(self, a):
        return (-a[0], a[1])

    def raw_mul(self, a, b):
        (an, ad), (bn, bd) = a, b
        if ad == bd == 1:
            # integers: the product is already reduced
            return (an * bn, 1)
        return _q_reduce(an * bn, ad * bd)

    def raw_inv(self, a):
        num, den = a
        if not num:
            raise DivisionByZero("inverse of 0 in QQ")
        return (den, num) if num > 0 else (-den, -num)

    def raw_axpy(self, c, x, y) -> list:
        cn, cd = c
        out = []
        for a, (bn, bd) in zip(x, y):
            if not bn:
                out.append(a)
                continue
            an, ad = a
            den = ad * cd * bd
            num = an * cd * bd + cn * bn * ad
            out.append((num, 1) if den == 1 else _q_reduce(num, den))
        return out

    def raw_sqrt(self, a):
        num, den = a
        if num < 0:
            return None
        rn, rd = isqrt(num), isqrt(den)
        if rn * rn != num or rd * rd != den:
            return None
        # reduced: a common factor of rn and rd would divide num and den
        return (rn, rd)

    def encode(self, a):
        return f"{a[0]}/{a[1]}"

    def decode(self, obj):
        if not isinstance(obj, str):
            raise MalformedInput(f"bad rational scalar: {obj!r}")
        return _parse_rational(obj)

    def format(self, a) -> str:
        num, den = a
        return str(num) if den == 1 else f"{num}/{den}"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("rationals")

    def __repr__(self):
        return "QQ"

    def to_json(self):
        return {"kind": "rationals"}


def _q_reduce(num: int, den: int) -> tuple:
    """The raw QQ value of num/den for den > 0."""
    if den == 1:
        return (num, 1)
    g = gcd(num, den)
    return (num // g, den // g)


def _parse_rational(text: str) -> tuple:
    """The raw QQ value of ``a`` or ``a/b`` text (``a`` signed, ``b``
    unsigned and nonzero), in ASCII digits."""
    num, slash, den = text.partition("/")
    if not (_digits(num[1:] if num[:1] == "-" else num) and (not slash or _digits(den))):
        raise MalformedInput(f"bad rational scalar: {text!r}")
    den = int(den) if slash else 1
    if not den:
        raise MalformedInput(f"zero denominator in rational scalar: {text!r}")
    return _q_reduce(int(num), den)


def _digits(text: str) -> bool:
    """Whether text is one or more ASCII digits: ``str.isdigit`` alone also
    takes the digits of other scripts."""
    return text.isascii() and text.isdigit()


class FunctionField(Field):
    """GF(p)(t): rational functions over a prime field.

    Raw values are pairs ``(num, den)`` of coefficient tuples with
    ``gcd(num, den) = 1`` and monic ``den``; zero is ``((), (1,))``.
    """

    raw_zero = ((), (1,))
    raw_one = ((1,), (1,))

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

    def _reduce(self, num: tuple, den: tuple):
        if not den:
            raise DivisionByZero(f"zero denominator in {self}")
        if not num:
            return ((), (1,))
        g = poly_gcd(self.p, num, den)
        if len(g) > 1 or g[0] != 1:
            num = poly_divmod(self.p, num, g)[0]
            den = poly_divmod(self.p, den, g)[0]
        inv_lead = pow(den[-1], -1, self.p)
        if inv_lead != 1:
            num = poly_scale(self.p, inv_lead, num)
            den = poly_scale(self.p, inv_lead, den)
        return (num, den)

    def canon(self, value):
        if isinstance(value, int):
            v = value % self.p
            return ((v,) if v else (), (1,))
        if isinstance(value, (list, tuple)):
            if len(value) == 2 and all(isinstance(x, (list, tuple)) for x in value):
                num = poly_trim(c % self.p for c in value[0])
                den = poly_trim(c % self.p for c in value[1])
                return self._reduce(num, den)
            return (poly_trim(c % self.p for c in value), (1,))
        raise TypeError(f"cannot coerce {value!r} into {self}")

    @property
    def t(self) -> Scalar:
        return Scalar(self, ((0, 1), (1,)))

    def from_polys(self, num, den=(1,)) -> Scalar:
        return self((tuple(num), tuple(den)))

    def characteristic(self) -> int:
        return self.p

    def raw_add(self, a, b):
        (an, ad), (bn, bd) = a, b
        if ad == bd == (1,):
            # polynomials: gcd(num, 1) = 1, so the sum is already reduced
            return (poly_add(self.p, an, bn), (1,))
        num = poly_add(self.p, poly_mul(self.p, an, bd), poly_mul(self.p, bn, ad))
        return self._reduce(num, poly_mul(self.p, ad, bd))

    def raw_neg(self, a):
        return (poly_neg(self.p, a[0]), a[1])

    def raw_mul(self, a, b):
        if a[1] == b[1] == (1,):
            # polynomials: the product is already reduced, as in raw_add
            return (poly_mul(self.p, a[0], b[0]), (1,))
        return self._reduce(poly_mul(self.p, a[0], b[0]), poly_mul(self.p, a[1], b[1]))

    def raw_inv(self, a):
        if not a[0]:
            raise DivisionByZero(f"inverse of 0 in {self}")
        return self._reduce(a[1], a[0])

    def raw_axpy(self, c, x, y) -> list:
        p, one = self.p, (1,)
        cn, cd = c
        out = []
        for a, b in zip(x, y):
            bn, bd = b
            if not bn:
                out.append(a)
            elif cd == bd == a[1] == one:
                # polynomials: a + c*b is already reduced, as in raw_add
                out.append((poly_add(p, a[0], poly_mul(p, cn, bn)), one))
            else:
                out.append(self.raw_add(a, self.raw_mul(c, b)))
        return out

    def raw_sqrt(self, a):
        # Reduced n/d is a square iff both n and d are square polynomials:
        # n*d' = d*n' with coprime parts forces matching square factors, and
        # the monic denominator fixes the unit.
        rn = poly_sqrt(self.p, a[0])
        rd = poly_sqrt(self.p, a[1])
        if rn is None or rd is None:
            return None
        # the denominator is monic, and so is its root: poly_sqrt leads with
        # sqrt_mod_prime(1, p) = 1 (with the coefficient itself at p = 2)
        return (rn, rd)

    def even_odd_parts(self, a):
        """Raw u and v with ``a = u**2 + t * v**2`` for a raw value a
        (characteristic 2 only).

        Uses a = n/d = (n*d)/d**2 and the even/odd split of n*d; this is the
        coordinate map of GF(2)(t) as a rank-2 module over its subfield of
        squares, with basis {1, t}.
        """
        if self.p != 2:
            raise UnsupportedField("even/odd split needs characteristic 2")
        num, den = a
        nd = poly_mul(self.p, num, den)
        even = poly_trim(nd[i] for i in range(0, len(nd), 2))
        odd = poly_trim(nd[i] for i in range(1, len(nd), 2))
        return self._reduce(even, den), self._reduce(odd, den)

    def encode(self, a):
        return {"num": list(a[0]), "den": list(a[1])}

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
            raise MalformedInput(f"bad {self} scalar: {obj!r}")
        num, den = poly_trim(obj["num"]), poly_trim(obj["den"])
        if den == (1,):
            # a polynomial is already reduced
            return (num, den)
        return self._reduce(num, den)

    def format(self, a) -> str:
        num, den = a
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


# ---------------------------------------------------------------------------
# descriptors and parsing
# ---------------------------------------------------------------------------

QQ = RationalField()
GF2 = PrimeField(2)
GF3 = PrimeField(3)


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise MalformedInput(f"bad field descriptor: {obj!r}")
    kind = obj["kind"]
    if kind == "rationals":
        return RationalField()
    if kind not in ("prime", "rational_function"):
        raise MalformedInput(f"unknown field kind: {kind!r}")
    p = obj.get("p")
    if not is_json_int(p):
        raise MalformedInput(f"field characteristic must be an integer: {p!r}")
    if kind == "prime":
        return PrimeField(p)
    var = obj.get("var", "t")
    if not isinstance(var, str):
        raise MalformedInput(f"field variable must be a string: {var!r}")
    return FunctionField(p, var)


def is_json_int(x) -> bool:
    """Whether a decoded JSON value is an integer: ``true`` and ``false``
    decode to bools, which Python counts as ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_field(text: str) -> Field:
    """Parse CLI field names: ``gf2``, ``gf5``, ``q``, ``gf2(t)``; the
    characteristic is in ASCII digits."""
    t = text.strip().lower()
    if t in ("q", "qq", "rationals"):
        return RationalField()
    m = re.fullmatch(r"gf([0-9]+)", t)
    if m:
        return PrimeField(int(m.group(1)))
    m = re.fullmatch(r"gf([0-9]+)\((\w+)\)", t)
    if m:
        return FunctionField(int(m.group(1)), m.group(2))
    raise MalformedInput(f"cannot parse field {text!r}")


def parse_scalar(field: Field, text: str) -> Scalar:
    """Parse a scalar from CLI text: a signed integer for GF(p), ``a/b``
    for the rationals, or a polynomial fraction like ``t^2+t+1`` /
    ``t/(t+1)``, in ASCII text.  Spaces may stand next to an operator or a
    parenthesis; a space between two digits or letters is refused, where
    deleting it would join ``1 2`` into 12."""
    if re.search(r"[0-9A-Za-z]\s+[0-9A-Za-z]", text):
        raise MalformedInput(f"bad {field} scalar: {text!r}")
    t = text.strip().replace(" ", "")
    if not t.isascii():
        raise MalformedInput(f"cannot parse scalar {text!r}")
    if isinstance(field, PrimeField):
        if not _digits(t[1:] if t[:1] in ("+", "-") else t):
            raise MalformedInput(f"bad {field} scalar: {text!r}")
        return field(int(t))
    if isinstance(field, RationalField):
        return Scalar(field, _parse_rational(t))
    parts = t.split("/")
    if len(parts) > 2:
        raise MalformedInput(f"cannot parse scalar {text!r}")
    num = _parse_poly(field, parts[0])
    den = _parse_poly(field, parts[1]) if len(parts) == 2 else (1,)
    return field.from_polys(num, den)


def _parse_poly(field: FunctionField, text: str) -> tuple:
    t = text.strip("()")
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
        coeffs[deg] = coeffs.get(deg, 0) + coef
    out = [0] * (max(coeffs) + 1)
    for d, c in coeffs.items():
        out[d] = c % field.p
    return poly_trim(out)
