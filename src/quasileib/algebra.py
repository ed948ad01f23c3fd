"""Leibniz algebras presented by structure constants.

An n-dimensional algebra is a cube ``c`` with ``[e_i, e_j] = sum_k
c[i][j][k] e_k``; the cube is stored as raw field values, ``raw[i][j] =
that product vector``.
A :class:`MultiplicationTable` alone promises nothing; a
:class:`LeibnizAlgebra` has been checked against the right Leibniz identity

    [x, [y, z]] = [[x, y], z] - [[x, z], y]

on all basis triples, which suffices by trilinearity.

The ideal of squares ``span{x*x}`` is generated by the basis squares together
with the polarized products ``[e_i, e_j] + [e_j, e_i]`` (expand
``(e_i + e_j)**2``), which is an exact generating set in every characteristic.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

from .errors import (
    DimensionMismatch,
    MalformedInput,
    MixedFields,
    NotAnIdeal,
    NotASubalgebra,
    NotLeibniz,
)
from .fields import Field, field_from_json, is_json_int
from .linalg import (
    DEFAULT_BUDGET,
    Subspace,
    enumerate_subspaces,
    full_subspace,
    raw_echelonize,
    raw_left_kernel,
    require_subspaces,
    unit_vec,
    zero_subspace,
)


class MultiplicationTable:
    """Structure constants; no identity is promised.

    ``raw`` holds the products as raw field values, which the kernels
    compute on; :attr:`cube` wraps them into scalars on each access.
    ``raw`` is the one stored form of the constants; two things are derived
    from it and take no part in equality or hashing.  ``_nonzero``, built
    once here, lists for each i the pairs (j, [e_i, e_j]) whose product is
    not the zero vector, so that :meth:`raw_bracket` skips the zero ones.
    ``_products`` memoises :meth:`raw_bracket` for the life of the table."""

    __slots__ = ("field", "dim", "raw", "basis_names", "_nonzero", "_products")

    def __init__(self, field: Field, dim: int, raw, basis_names=None):
        raw = tuple(tuple(tuple(v) for v in row) for row in raw)
        if len(raw) != dim or any(
            len(row) != dim or any(len(v) != dim for v in row) for row in raw
        ):
            raise DimensionMismatch(f"cube is not {dim}x{dim}x{dim}")
        if basis_names is None:
            basis_names = tuple(f"e{i+1}" for i in range(dim))
        if len(basis_names) != dim:
            raise DimensionMismatch("one basis name per dimension")
        self.field = field
        self.dim = dim
        self.raw = raw
        self.basis_names = tuple(basis_names)
        zero_vec = (field.raw_zero,) * dim
        self._nonzero = tuple(
            tuple((j, w) for j, w in enumerate(row) if w != zero_vec) for row in raw
        )
        self._products = {}

    @property
    def cube(self) -> tuple:
        """The products as scalars: ``cube[i][j]`` is [e_i, e_j]."""
        wrap = self.field.wrap
        return tuple(tuple(wrap(v) for v in row) for row in self.raw)

    def __eq__(self, other):
        if not isinstance(other, MultiplicationTable):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.raw == other.raw
            and self.field == other.field
        )

    def __hash__(self):
        return hash((self.dim, self.raw))

    def raw_bracket(self, u: tuple, v: tuple) -> tuple:
        """[u, v] for raw vectors: sum of u_i v_j [e_i, e_j] over the pairs
        of ``_nonzero`` only (the index of nonzero products that the table
        derives from ``raw`` once), so a zero product costs no arithmetic;
        computed once per pair (u, v) of tuples."""
        key = (u, v)
        found = self._products.get(key)
        if found is not None:
            return found
        field = self.field
        axpy, mul, zero = field.raw_axpy, field.raw_mul, field.raw_zero
        out = [zero] * self.dim
        for ui, row in zip(u, self._nonzero):
            if ui == zero:
                continue
            for j, w in row:
                vj = v[j]
                if vj != zero:
                    out = axpy(mul(ui, vj), out, w)
        found = self._products[key] = tuple(out)
        return found

    def __repr__(self):
        return f"<table dim {self.dim} over {self.field}>"

    def to_json(self):
        encode = self.field.encode
        return {
            "field": self.field.to_json(),
            "dim": self.dim,
            "basis_names": list(self.basis_names),
            "table": [[[encode(x) for x in v] for v in row] for row in self.raw],
        }


def _scalar_key(x):
    """A key for a JSON scalar that no different JSON value shares, or None.

    An int or a string is keyed with its type, so ``true`` and ``1.0`` never
    share the key of ``1``; an object ``{"num": [...], "den": [...]}`` is
    keyed by its two coefficient tuples when every coefficient is an int.
    A value with no key is decoded, and so refused, as it is."""
    cls = x.__class__
    if cls is int or cls is str:
        return (cls, x)
    if cls is dict and len(x) == 2:
        num, den = x.get("num"), x.get("den")
        if num.__class__ is list and den.__class__ is list:
            for c in num:
                if c.__class__ is not int:
                    return None
            for c in den:
                if c.__class__ is not int:
                    return None
            return (tuple(num), tuple(den))
    return None


def table_from_json(obj) -> MultiplicationTable:
    if not isinstance(obj, dict):
        raise MalformedInput("algebra file must be a JSON object")
    for key in ("field", "dim", "table"):
        if key not in obj:
            raise MalformedInput(f"algebra file is missing {key!r}")
    field = field_from_json(obj["field"])
    dim = obj["dim"]
    if not is_json_int(dim) or dim < 0:
        raise MalformedInput(f"bad dimension: {dim!r}")
    table = obj["table"]
    nested = lambda x: isinstance(x, list) and len(x) == dim
    if not (
        nested(table)
        and all(nested(row) for row in table)
        and all(nested(v) for row in table for v in row)
    ):
        raise MalformedInput(f"table is not a {dim}x{dim}x{dim} cube of nested lists")
    # each distinct scalar is decoded once: a dense table repeats a few values
    decode, memo = field.decode, {}

    def decode_once(x):
        key = _scalar_key(x)
        if key is None:
            return decode(x)
        value = memo.get(key)
        if value is None:
            value = memo[key] = decode(x)
        return value

    raw = [[[decode_once(x) for x in v] for v in row] for row in table]
    names = obj.get("basis_names")
    if names is not None and not (
        isinstance(names, list) and all(isinstance(x, str) for x in names)
    ):
        raise MalformedInput("basis_names must be a list of strings")
    return MultiplicationTable(field, dim, raw, names)


def build_table(field: Field, basis_names, products) -> MultiplicationTable:
    """Table from a sparse product map {(i, j): {k: coeff}}, each coeff a
    scalar of the field or a plain or raw value that ``field`` takes."""
    n = len(basis_names)
    raw = [[[field.raw_zero] * n for _ in range(n)] for _ in range(n)]
    for (i, j), entry in products.items():
        for k, coeff in entry.items():
            raw[i][j][k] = field(coeff).value
    return MultiplicationTable(field, n, raw, basis_names)


# ---------------------------------------------------------------------------
# identity validation
# ---------------------------------------------------------------------------


class ValidationResult(
    namedtuple("ValidationResult", "ok mode witness lhs rhs", defaults=(None,) * 3)
):
    # witness: the (i, j, k) basis triple, or (i, j) for lie; lhs and rhs:
    # the two sides there
    __slots__ = ()

    def to_json(self):
        out = {"ok": self.ok, "mode": self.mode}
        if not self.ok:
            out["witness"] = list(self.witness)
            if self.lhs is not None:
                out["lhs"] = [s.to_json() for s in self.lhs]
            if self.rhs is not None:
                out["rhs"] = [s.to_json() for s in self.rhs]
        return out


def raw_leibniz_failure(field: Field, cube, triples, side: str = "right"):
    """The first basis triple (i, j, k) of ``triples`` at which the raw cube
    fails the right identity, or the left one for ``side="left"``, as
    ((i, j, k), lhs, rhs) with both sides raw; None when every triple
    passes.  Both sides expand over the structure constants, [e_i, v] =
    sum_b v_b [e_i, e_b] and [v, e_k] = sum_a v_a [e_a, e_k], walking only
    the nonzero coordinates of the product v and skipping a scaled product
    that is the zero tuple.  Slot a*n + b lists the nonzero coordinates of
    [e_a, e_b] on its first use, in a loop since a comprehension costs a
    call, so a call on a few triples lists only the products it reads."""
    axpy, neg, zero = field.raw_axpy, field.raw_neg, field.raw_zero
    n = len(cube)
    zero_vec = (zero,) * n
    live = [None] * (n * n)
    for i, j, k in triples:
        ci = cube[i]
        lhs = [zero] * n
        terms = live[j * n + k]
        if terms is None:
            terms = live[j * n + k] = []
            for b, x in enumerate(cube[j][k]):
                if x != zero:
                    terms.append((b, x))
        for b, x in terms:
            w = ci[b]
            if w != zero_vec:
                lhs = axpy(x, lhs, w)
        rhs = [zero] * n
        terms = live[i * n + j]
        if terms is None:
            terms = live[i * n + j] = []
            for a, x in enumerate(ci[j]):
                if x != zero:
                    terms.append((a, x))
        for a, x in terms:
            w = cube[a][k]
            if w != zero_vec:
                rhs = axpy(x, rhs, w)
        terms = live[i * n + k]
        if terms is None:
            terms = live[i * n + k] = []
            for a, x in enumerate(ci[k]):
                if x != zero:
                    terms.append((a, x))
        if side == "left":
            for b, x in terms:
                w = cube[j][b]
                if w != zero_vec:
                    rhs = axpy(x, rhs, w)
        else:
            for a, x in terms:
                w = cube[a][j]
                if w != zero_vec:
                    rhs = axpy(neg(x), rhs, w)
        if lhs != rhs:
            return (i, j, k), tuple(lhs), tuple(rhs)
    return None


def raw_alternation_failure(field: Field, cube):
    """The first i with [e_i, e_i] != 0 as (i, i), else the first i < j
    with [e_i, e_j] + [e_j, e_i] != 0 as (i, j); None when the raw cube is
    alternating."""
    add, zero = field.raw_add, field.raw_zero
    n = len(cube)
    for i in range(n):
        if any(x != zero for x in cube[i][i]):
            return i, i
    for i, j in itertools.combinations(range(n), 2):
        if any(add(a, b) != zero for a, b in zip(cube[i][j], cube[j][i])):
            return i, j
    return None


def validate(table: MultiplicationTable, mode: str = "right") -> ValidationResult:
    """Check the chosen identity on all basis triples, in lexicographic
    order; a failure carries the first failing triple and both sides.

    ``right``: [x,[y,z]] = [[x,y],z] - [[x,z],y]
    ``left`` : [x,[y,z]] = [[x,y],z] + [y,[x,z]]
    ``lie``  : [e_i, e_i] = 0 and antisymmetry (the witness is the first
    failing pair), then the right identity
    """
    if mode not in ("right", "left", "lie"):
        raise ValueError(f"unknown mode {mode!r}")
    field, cube = table.field, table.raw
    if mode == "lie":
        pair = raw_alternation_failure(field, cube)
        if pair is not None:
            i, j = pair
            rhs = None if i == j else field.wrap(cube[j][i])
            return ValidationResult(False, mode, pair, field.wrap(cube[i][j]), rhs)
    triples = itertools.product(range(table.dim), repeat=3)
    found = raw_leibniz_failure(field, cube, triples, "left" if mode == "left" else "right")
    if found is None:
        return ValidationResult(True, mode)
    triple, lhs, rhs = found
    return ValidationResult(False, mode, triple, field.wrap(lhs), field.wrap(rhs))


class LeibnizAlgebra:
    """A multiplication table that passes the right Leibniz identity.

    ``field`` and ``dim`` are the table's, copied once.  ``_cache`` is a
    plain dict of the memos of the functions over this algebra, each under
    a name its own module chooses: a table keyed by raw echelon rows, or a
    single value.  Each function reads its memo with ``.get`` and creates
    it on first use, so reading a name that no code writes raises
    KeyError."""

    __slots__ = ("table", "field", "dim", "_cache")

    def __init__(self, table: MultiplicationTable, _checked: bool = False):
        if not _checked:
            result = validate(table, "right")
            if not result.ok:
                raise NotLeibniz(f"right identity fails at triple {result.witness}")
        self.table = table
        self.field = table.field
        self.dim = table.dim
        self._cache = {}

    @property
    def basis_names(self):
        return self.table.basis_names

    def basis_vector(self, i: int) -> tuple:
        return unit_vec(self.field, self.dim, i)

    def bracket(self, u: tuple, v: tuple) -> tuple:
        if len(u) != self.dim or len(v) != self.dim:
            raise DimensionMismatch("vectors must live in the algebra")
        field = self.field
        return field.wrap(self.table.raw_bracket(field.unwrap(u), field.unwrap(v)))

    def check_subspace(self, s: Subspace):
        """Raise unless s is a subspace of this algebra's underlying space."""
        if s.ambient_dim != self.dim:
            raise DimensionMismatch("subspaces must live in the algebra")
        if s.field is not self.field and s.field != self.field:
            raise MixedFields(f"{s.field} vs {self.field}")

    def full(self) -> Subspace:
        """The whole space, built once per algebra."""
        found = self._cache.get("full")
        if found is None:
            found = self._cache["full"] = full_subspace(self.field, self.dim)
        return found

    def __repr__(self):
        return f"<Leibniz algebra dim {self.dim} over {self.field}>"


def adjoint(alg: LeibnizAlgebra, x: tuple, side: str = "right") -> tuple:
    """Matrix (rows = images of basis vectors) of y -> [y, x] for ``right``
    or y -> [x, y] for ``left``."""
    if side not in ("right", "left"):
        raise ValueError(f"unknown side {side!r}")
    rows = []
    for i in range(alg.dim):
        e = alg.basis_vector(i)
        rows.append(alg.bracket(e, x) if side == "right" else alg.bracket(x, e))
    return tuple(rows)


def squares_ideal(alg: LeibnizAlgebra) -> Subspace:
    """span{x*x : x in L}: basis squares plus polarized products, computed
    once per algebra."""
    found = alg._cache.get("squares_ideal")
    if found is None:
        cube, add = alg.table.raw, alg.field.raw_add
        gens = [cube[i][i] for i in range(alg.dim)]
        for i in range(alg.dim):
            for j in range(i + 1, alg.dim):
                gens.append(tuple(map(add, cube[i][j], cube[j][i])))
        found = alg._cache["squares_ideal"] = raw_echelonize(alg.field, alg.dim, gens)
    return found


def bracket_subspaces(alg: LeibnizAlgebra, a: Subspace, b: Subspace) -> Subspace:
    """[A, B], computed once per pair of subspaces of the algebra; a zero
    factor gives 0 with no bracket."""
    alg.check_subspace(a)
    alg.check_subspace(b)
    cache = alg._cache.get("bracket_subspaces")
    if cache is None:
        cache = alg._cache["bracket_subspaces"] = {}
    key = (a.raw_rows, b.raw_rows)
    found = cache.get(key)
    if found is None:
        if a.raw_rows and b.raw_rows:
            br = alg.table.raw_bracket
            gens = [br(u, v) for u in a.raw_rows for v in b.raw_rows]
            found = raw_echelonize(alg.field, alg.dim, gens)
        else:
            found = zero_subspace(alg.field, alg.dim)
        cache[key] = found
    return found


def center(alg: LeibnizAlgebra) -> Subspace:
    """{v : [v, L] = [L, v] = 0}, computed once per algebra as a left
    kernel."""
    found = alg._cache.get("center")
    if found is None:
        cube = alg.table.raw
        rows = []
        for i in range(alg.dim):
            flat = []
            for j in range(alg.dim):
                flat.extend(cube[i][j])
                flat.extend(cube[j][i])
            rows.append(flat)
        found = alg._cache["center"] = raw_left_kernel(alg.field, rows)
    return found


def is_subalgebra(alg: LeibnizAlgebra, s: Subspace) -> bool:
    """Whether s is closed under the bracket, decided once per subspace of
    the algebra."""
    alg.check_subspace(s)
    cache = alg._cache.get("is_subalgebra")
    if cache is None:
        cache = alg._cache["is_subalgebra"] = {}
    rows = s.raw_rows
    found = cache.get(rows)
    if found is None:
        found = cache[rows] = _closed(alg.table.raw_bracket, s)
    return found


def _closed(br, s: Subspace) -> bool:
    rows, contains = s.raw_rows, s.raw_contains
    for u in rows:
        for v in rows:
            if not contains(br(u, v)):
                return False
    return True


def action(alg: LeibnizAlgebra, s: Subspace) -> tuple:
    """How L's basis acts on s from both sides, modulo s: for each basis
    row u of s the pair ([u, e_j] mod s for every j, [e_j, u] mod s for
    every j), each entry the canonical raw representative of
    :meth:`Subspace.raw_reduce`.  Computed once per subspace of the
    algebra; :func:`is_ideal`, ``quasi.core``, the reflection clause of
    ``quasi.lemma_suite`` and the quasi-ideal decision in every host all
    read it."""
    alg.check_subspace(s)
    cache = alg._cache.get("action")
    if cache is None:
        cache = alg._cache["action"] = {}
    found = cache.get(s.raw_rows)
    if found is None:
        br, reduce, units = alg.table.raw_bracket, s.raw_reduce, alg.full().raw_rows
        acted = []
        for u in s.raw_rows:
            acted.append(
                (
                    tuple([reduce(br(u, e)) for e in units]),
                    tuple([reduce(br(e, u)) for e in units]),
                )
            )
        found = cache[s.raw_rows] = tuple(acted)
    return found


def is_ideal(alg: LeibnizAlgebra, s: Subspace) -> bool:
    """Whether [s, L] + [L, s] <= s: every entry of the memoised
    :func:`action` is zero."""
    n = alg.dim
    # the action of a basis row that S absorbs from both sides
    idle = ((alg.field.raw_zero,) * n,) * n
    acted = action(alg, s)
    return acted.count((idle, idle)) == len(acted)


def subalgebra_closure(alg: LeibnizAlgebra, s: Subspace) -> Subspace:
    cur = s
    while True:
        nxt = cur.sum(bracket_subspaces(alg, cur, cur))
        if nxt == cur:
            return cur
        cur = nxt


def series(alg: LeibnizAlgebra, h: Subspace | None = None, kind: str = "lower_central"):
    """Descending series of the subalgebra ``h`` (the whole algebra by
    default) until stabilization, as a new list on every call.

    ``lower_central``  : H, [H,H], [[H,H],H], ...
    ``derived``        : H, [H,H], [[H,H],[H,H]], ...
    ``omega_of_square``: S, [S,S], [[S,S],S], ...  with S = [H,H], the
    lower central series of S

    Each term is a memoised :func:`bracket_subspaces`.
    """
    if kind not in ("lower_central", "derived", "omega_of_square"):
        raise ValueError(f"unknown series kind {kind!r}")
    if h is None:
        h = alg.full()
    if not is_subalgebra(alg, h):
        raise NotASubalgebra("series of a non-subalgebra")
    if kind == "omega_of_square":
        h, kind = bracket_subspaces(alg, h, h), "lower_central"
    chain = [h]
    while True:
        cur = chain[-1]
        nxt = bracket_subspaces(alg, cur, h if kind == "lower_central" else cur)
        if nxt == cur:
            return chain
        chain.append(nxt)


def is_nilpotent(alg: LeibnizAlgebra) -> bool:
    return series(alg, kind="lower_central")[-1].is_zero()


def is_solvable(alg: LeibnizAlgebra) -> bool:
    return series(alg, kind="derived")[-1].is_zero()


def is_abelian(alg: LeibnizAlgebra) -> bool:
    return bracket_subspaces(alg, alg.full(), alg.full()).is_zero()


def is_lie(alg: LeibnizAlgebra) -> bool:
    """Whether the algebra is Lie.  Alternation is enough: [e_i, e_i] = 0
    and [e_i, e_j] + [e_j, e_i] = 0 give [x, x] = 0 for every x, and with
    [x, x] = 0 the right identity the algebra already passed is the Jacobi
    identity."""
    return raw_alternation_failure(alg.field, alg.table.raw) is None


def is_symmetric(alg: LeibnizAlgebra) -> bool:
    return validate(alg.table, "left").ok


def subalgebras(alg: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    """All bracket-closed subspaces, over a finite prime field.

    The list is computed once per algebra; every call still checks the
    budget against the number of subspaces and returns a fresh list."""
    require_subspaces(alg.field, alg.dim, budget)
    found = alg._cache.get("subalgebras")
    if found is None:
        found = alg._cache["subalgebras"] = [
            s
            for s in enumerate_subspaces(alg.field, alg.dim, budget=budget)
            if is_subalgebra(alg, s)
        ]
    return list(found)


# ---------------------------------------------------------------------------
# quotients
# ---------------------------------------------------------------------------


def _raw_project(j: Subspace, comp: tuple, v: tuple) -> tuple:
    r = j.raw_reduce(v)
    return tuple([r[c] for c in comp])


def raw_quotient_cube(alg: LeibnizAlgebra, j: Subspace) -> tuple:
    """The raw structure constants of L/J for an ideal J, on the non-pivot
    coordinates of J's echelon form: the raw table of ``quotient(alg, j)``
    without building it."""
    comp = j.non_pivots()
    raw = alg.table.raw
    return tuple(tuple(_raw_project(j, comp, raw[a][b]) for b in comp) for a in comp)


def quotient(alg: LeibnizAlgebra, j: Subspace) -> LeibnizAlgebra:
    """L/J for a verified ideal J, built on every call; the quotient basis is
    the set of non-pivot coordinates of J's echelon form, which makes tables
    reproducible: v projects to ``j.reduce(v)`` at ``j.non_pivots()``."""
    if not is_ideal(alg, j):
        raise NotAnIdeal("quotient by a non-ideal")
    comp = j.non_pivots()
    names = tuple(alg.basis_names[c] for c in comp)
    table = MultiplicationTable(alg.field, len(comp), raw_quotient_cube(alg, j), names)
    # L/J is Leibniz: J is an ideal
    return LeibnizAlgebra(table, _checked=True)
