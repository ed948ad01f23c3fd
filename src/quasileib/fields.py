"""Exact arithmetic: the scalar and field surface, and the prime fields.

Supported fields:

* ``GF(p)``    -- prime fields; elements are residues in ``[0, p)``.
* ``QQ``       -- the rationals (in ``fracfields``); an integer is a plain
  ``int`` and any other element a reduced pair ``(num, den)`` of ints.
* ``GF(p)(t)`` -- rational functions over a prime field (in ``fracfields``);
  a constant is its residue, a plain ``int``, and any other element a
  reduced pair ``(num, den)`` of polynomials.

``QQ``, ``RationalField`` and ``FunctionField`` resolve from this module
too, but ``fracfields`` is imported only when one of them is named or
parsed, so a prime-field run never loads it.

Every value is canonical on construction, so two scalars are equal exactly
when their representations are identical, and scalars hash consistently and
can be shared freely between threads or processes.  In every field the raw
zero is the int 0 and the raw one the int 1.

JSON encodings (used by all file formats of the CLI):

* ``GF(p)``    -> plain integer in ``0 .. p-1``
* ``QQ``       -> string ``"a/b"`` with ``b > 0`` and ``gcd(a, b) = 1``
* ``GF(p)(t)`` -> object ``{"num": [c0, c1, ...], "den": [d0, d1, ...]}``
  with ascending-degree coefficients in ``0 .. p-1``
"""

from __future__ import annotations

import re

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


def _digits(text: str) -> bool:
    """Whether text is one or more ASCII digits: ``str.isdigit`` alone also
    takes the digits of other scripts."""
    return text.isascii() and text.isdigit()


# ---------------------------------------------------------------------------
# descriptors and parsing
# ---------------------------------------------------------------------------

GF2 = PrimeField(2)
GF3 = PrimeField(3)


def __getattr__(name):
    if name in ("QQ", "RationalField", "FunctionField"):
        from . import fracfields

        return getattr(fracfields, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def field_from_json(obj) -> Field:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise MalformedInput(f"bad field descriptor: {obj!r}")
    kind = obj["kind"]
    if kind == "rationals":
        from .fracfields import RationalField

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
    from .fracfields import FunctionField

    return FunctionField(p, var)


def is_json_int(x) -> bool:
    """Whether a decoded JSON value is an integer: ``true`` and ``false``
    decode to bools, which Python counts as ints."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_field(text: str) -> Field:
    """Parse CLI field names: ``gf2``, ``gf5``, ``q``, ``gf2(t)``.  The
    letters ``gf`` and ``q`` read in either case, the characteristic is in
    ASCII digits, and the variable is kept as written, as in
    ``field_from_json``."""
    t = text.strip()
    m = re.fullmatch(r"(?i:gf)([0-9]+)(?:\((\w+)\))?", t)
    if m and m.group(2) is None:
        return PrimeField(int(m.group(1)))
    if m:
        from .fracfields import FunctionField

        return FunctionField(int(m.group(1)), m.group(2))
    if t.lower() in ("q", "qq", "rationals"):
        from .fracfields import RationalField

        return RationalField()
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
    from .fracfields import RationalField, _parse_poly, _parse_rational

    if isinstance(field, RationalField):
        return Scalar(field, _parse_rational(t))
    parts = t.split("/")
    if len(parts) > 2:
        raise MalformedInput(f"cannot parse scalar {text!r}")
    num = _parse_poly(field, parts[0])
    den = _parse_poly(field, parts[1]) if len(parts) == 2 else (1,)
    return field.from_polys(num, den)
