"""Exact vectors, matrices and echelon-form subspaces over any supported field.

Vectors are tuples and matrices are tuples of row vectors; matrices act on
row vectors from the right, so ``raw_combination(field, v, M, n)`` is
``v @ M``.  A :class:`Subspace` stores the reduced row-echelon basis of a
row space, which makes subspace equality structural equality.

The ``raw_*`` functions and methods are the only linear algebra: they take
and return tuples of raw field values (``Field.unwrap``) and compute with
the field's ``raw_*`` arithmetic, one code path for every field kind.
Scalars appear only at the edge: :func:`vec`, :func:`unit_vec`,
:func:`echelonize`, and :class:`Subspace`'s ``rows``, ``reduce`` and
``contains_vector``.
"""

from __future__ import annotations

import itertools

from .errors import BudgetExceeded, DimensionMismatch, MixedFields, UnsupportedField
from .fields import Field

DEFAULT_BUDGET = 1_000_000

# ---------------------------------------------------------------------------
# vectors and matrices (plain tuples)
# ---------------------------------------------------------------------------


def vec(field: Field, values) -> tuple:
    """A vector of scalars of ``field``; a scalar of another field raises
    MixedFields."""
    return tuple(field(v) for v in values)


def unit_vec(field: Field, n: int, i: int) -> tuple:
    z, o = field.zero, field.one
    return tuple(o if j == i else z for j in range(n))


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------


def raw_combination(field: Field, coeffs, rows, n: int) -> tuple:
    """sum_i coeffs[i] * rows[i] in F^n, on raw values."""
    axpy, zero = field.raw_axpy, field.raw_zero
    out = [zero] * n
    for c, row in zip(coeffs, rows):
        if c != zero:
            out = axpy(c, out, row)
    return tuple(out)


def raw_rref(field: Field, rows, ncols: int):
    """Reduced row-echelon form of raw rows.  Returns (rows, pivot columns);
    zero rows are dropped."""
    axpy, mul, neg, inv = field.raw_axpy, field.raw_mul, field.raw_neg, field.raw_inv
    zero, one = field.raw_zero, field.raw_one
    work = [list(r) for r in rows]
    nrows = len(work)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for pivot_row in range(r, nrows):
            if work[pivot_row][c] != zero:
                break
        else:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        prow = work[r]
        if prow[c] != one:
            f = inv(prow[c])
            prow = work[r] = [x if x == zero else mul(f, x) for x in prow]
        for i in range(nrows):
            if i != r and work[i][c] != zero:
                work[i] = axpy(neg(work[i][c]), work[i], prow)
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


class Subspace:
    """A subspace of F^n held as its reduced row-echelon basis.

    ``raw_rows`` is the basis as raw field values, which the kernels compute
    on; ``rows`` wraps it into scalars on each access.  ``dim`` is the
    number of rows."""

    __slots__ = ("field", "ambient_dim", "raw_rows", "pivots", "dim")

    def __init__(self, field: Field, ambient_dim: int, raw_rows: tuple, pivots: tuple):
        self.field = field
        self.ambient_dim = ambient_dim
        self.raw_rows = raw_rows
        self.pivots = pivots
        self.dim = len(raw_rows)

    @property
    def rows(self) -> tuple:
        return tuple(self.field.wrap(r) for r in self.raw_rows)

    def is_zero(self) -> bool:
        return not self.raw_rows

    def _check_ambient(self, other: "Subspace"):
        if self.field is not other.field and self.field != other.field:
            raise MixedFields(f"{self.field} vs {other.field}")
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient {self.ambient_dim} vs {other.ambient_dim}"
            )

    def _unwrap(self, v: tuple) -> tuple:
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(f"vector length {len(v)} in F^{self.ambient_dim}")
        return self.field.unwrap(v)

    def raw_reduce(self, v: tuple) -> tuple:
        """The canonical representative of the raw vector v modulo this
        subspace, answered by shape where it is known: the zero vector is
        returned unchanged (as a tuple), and every vector reduces to zero
        modulo all of F^n."""
        field = self.field
        zero = field.raw_zero
        if v.count(zero) == self.ambient_dim:
            return tuple(v)
        if self.dim == self.ambient_dim:
            return (zero,) * self.dim
        axpy, neg = field.raw_axpy, field.raw_neg
        for row, p in zip(self.raw_rows, self.pivots):
            if v[p] != zero:
                v = axpy(neg(v[p]), v, row)
        return tuple(v)

    def raw_contains(self, v: tuple) -> bool:
        """Whether the raw vector v lies in this subspace: exactly when it
        reduces to the zero vector.  :meth:`raw_reduce` answers the zero
        vector and all of F^n by their shape, so those cost no
        arithmetic."""
        return self.raw_reduce(v).count(self.field.raw_zero) == self.ambient_dim

    def reduce(self, v: tuple) -> tuple:
        """The canonical representative of v modulo this subspace."""
        return self.field.wrap(self.raw_reduce(self._unwrap(v)))

    def contains_vector(self, v: tuple) -> bool:
        return self.raw_contains(self._unwrap(v))

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        contains = self.raw_contains
        for r in other.raw_rows:
            if not contains(r):
                return False
        return True

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return raw_echelonize(self.field, self.ambient_dim, self.raw_rows + other.raw_rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        if self.is_zero() or other.is_zero():
            return zero_subspace(self.field, self.ambient_dim)
        kernel = raw_left_kernel(self.field, self.raw_rows + other.raw_rows)
        vectors = [
            raw_combination(self.field, coeffs[: self.dim], self.raw_rows, self.ambient_dim)
            for coeffs in kernel.raw_rows
        ]
        return raw_echelonize(self.field, self.ambient_dim, vectors)

    def non_pivots(self) -> tuple:
        pivset = set(self.pivots)
        return tuple(c for c in range(self.ambient_dim) if c not in pivset)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (
            self.ambient_dim == other.ambient_dim
            and self.raw_rows == other.raw_rows
            and (self.field is other.field or self.field == other.field)
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.raw_rows))

    def __repr__(self):
        if self.is_zero():
            return f"<0 in F^{self.ambient_dim}>"
        rows = "; ".join("(" + ", ".join(map(repr, r)) + ")" for r in self.rows)
        return f"<span {rows}>"

    def to_json(self):
        encode = self.field.encode
        return [[encode(x) for x in row] for row in self.raw_rows]


def _live_rows(field: Field, rows, ncols: int) -> list:
    """The distinct nonzero rows of ``rows`` as tuples, in first-seen order.
    A zero row or a repeat changes neither the span nor the solutions of a
    system, so only these rows are row-reduced."""
    live = dict.fromkeys(map(tuple, rows))
    live.pop((field.raw_zero,) * ncols, None)
    return list(live)


def raw_echelonize(field: Field, ambient_dim: int, vectors) -> Subspace:
    """Canonical subspace spanned by raw vectors of length ambient_dim.
    Spans of at most one live row are answered by their shape: no row
    spans 0, and one row's echelon basis is that row divided by its leading
    entry, pivoting at that entry's column, exactly as :func:`raw_rref`
    would return it.  Only two or more rows are row-reduced."""
    live = _live_rows(field, vectors, ambient_dim)
    if len(live) > 1:
        rows, pivots = raw_rref(field, live, ambient_dim)
        return Subspace(field, ambient_dim, rows, pivots)
    if not live:
        return zero_subspace(field, ambient_dim)
    row = live[0]
    zero = field.raw_zero
    for col, lead in enumerate(row):
        if lead != zero:
            break
    if lead != field.raw_one:
        f, mul = field.raw_inv(lead), field.raw_mul
        row = tuple([x if x == zero else mul(f, x) for x in row])
    return Subspace(field, ambient_dim, (row,), (col,))


def echelonize(field: Field, ambient_dim: int, vectors) -> Subspace:
    """Canonical subspace spanned by the given vectors."""
    raw = []
    for v in vectors:
        if len(v) != ambient_dim:
            raise DimensionMismatch(f"vector length {len(v)} in F^{ambient_dim}")
        raw.append(field.unwrap(v))
    return raw_echelonize(field, ambient_dim, raw)


def zero_subspace(field: Field, n: int) -> Subspace:
    return Subspace(field, n, (), ())


def raw_identity(field: Field, n: int) -> tuple:
    zero, one = field.raw_zero, field.raw_one
    return tuple(tuple(one if j == i else zero for j in range(n)) for i in range(n))


def full_subspace(field: Field, n: int) -> Subspace:
    return Subspace(field, n, raw_identity(field, n), tuple(range(n)))


def raw_solve(field: Field, rows, unknowns: int):
    """Solve a linear system whose raw rows hold the coefficients of the
    ``unknowns`` unknowns, then the right-hand side.  Returns a particular
    solution (every free unknown 0) and a basis of the homogeneous
    solutions, one per free unknown in increasing order, or None when the
    system is inconsistent.  Only the distinct nonzero rows are
    row-reduced."""
    width = unknowns + 1
    reduced, pivots = raw_rref(field, _live_rows(field, rows, width), width)
    if pivots and pivots[-1] == unknowns:
        return None
    zero, neg = field.raw_zero, field.raw_neg
    particular = [zero] * unknowns
    for row, col in zip(reduced, pivots):
        particular[col] = row[unknowns]
    pivset = set(pivots)
    kernel = []
    for free in range(unknowns):
        if free in pivset:
            continue
        step = [zero] * unknowns
        step[free] = field.raw_one
        for row, col in zip(reduced, pivots):
            step[col] = neg(row[free])
        kernel.append(tuple(step))
    return tuple(particular), kernel


def raw_left_kernel(field: Field, rows) -> Subspace:
    """All v with v @ rows = 0 for a matrix of raw rows: one homogeneous
    equation per column."""
    nrows, rhs = len(rows), (field.raw_zero,)
    _, kernel = raw_solve(field, [col + rhs for col in zip(*rows)], nrows)
    return raw_echelonize(field, nrows, kernel)


# ---------------------------------------------------------------------------
# enumeration over finite prime fields
# ---------------------------------------------------------------------------


def require_enumerable(field: Field, n: int, budget: int, what: str):
    """Raise unless F^n is finite and its q^n vectors fit in the budget.
    Since q >= 2, an n of at least budget.bit_length() exceeds it before
    q^n is built; the message builds q^n only below twice that n."""
    if not field.is_finite:
        raise UnsupportedField(f"enumeration needs a finite field, got {field}")
    q = field.order
    if n < budget.bit_length() and q**n <= budget:
        return
    count = q**n if n < 2 * budget.bit_length() else f"{q}^{n}"
    raise BudgetExceeded(f"{what}: {count} exceeds budget {budget}")


def gaussian_binomial(q: int, n: int, k: int) -> int:
    """The number of k-dimensional subspaces of GF(q)^n (0 when k > n)."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def require_subspaces(field: Field, n: int, budget: int):
    """Raise unless F is finite and F^n has at most ``budget`` subspaces."""
    if not field.is_finite:
        raise UnsupportedField(f"enumeration needs a finite field, got {field}")
    count = sum(gaussian_binomial(field.order, n, k) for k in range(n + 1))
    if count > budget:
        raise BudgetExceeded(f"subspaces of F^{n}: {count} exceeds budget {budget}")


def raw_projective_points(field: Field, n: int, budget: int = DEFAULT_BUDGET):
    """One raw representative per 1-dimensional subspace of F^n: the leading
    nonzero coordinate is 1.  The budget bounds the q^n vectors of F^n."""
    require_enumerable(field, n, budget, f"projective points of F^{n}")
    # only n > 1 has free entries; F^1 has the one point (1)
    elems = [s.value for s in field.elements()] if n > 1 else ()
    z, o = field.raw_zero, field.raw_one
    for lead in range(n):
        for tail in itertools.product(elems, repeat=n - lead - 1):
            yield (z,) * lead + (o,) + tail


def enumerate_subspaces(field: Field, n: int, budget: int = DEFAULT_BUDGET):
    """Every subspace of F^n exactly once, by direct construction of reduced
    row-echelon bases: choose pivot columns, then fill the free entries.

    The order (dimension, pivot set, free values) is deterministic, so the
    stream can be partitioned and restarted.  The budget bounds the number
    of subspaces yielded, counted before the first one.
    """
    require_subspaces(field, n, budget)
    # only n > 1 has free entries
    elems = [s.value for s in field.elements()] if n > 1 else ()
    z, o = field.raw_zero, field.raw_one
    yield zero_subspace(field, n)
    for k in range(1, n + 1):
        for pivots in itertools.combinations(range(n), k):
            pivset = set(pivots)
            free_slots = [
                (i, c)
                for i, p in enumerate(pivots)
                for c in range(p + 1, n)
                if c not in pivset
            ]
            for values in itertools.product(elems, repeat=len(free_slots)):
                rows = [[z] * n for _ in range(k)]
                for i, p in enumerate(pivots):
                    rows[i][p] = o
                for (i, c), val in zip(free_slots, values):
                    rows[i][c] = val
                yield Subspace(
                    field, n, tuple(tuple(r) for r in rows), tuple(pivots)
                )


# ---------------------------------------------------------------------------
# quadratic forms, on raw values
# ---------------------------------------------------------------------------


def evaluate_form(field: Field, gram, point):
    """q(x) = x G x^T for a square matrix and a vector of raw values."""
    add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
    total = zero
    for xi, row in zip(point, gram):
        if xi == zero:
            continue
        for gij, xj in zip(row, point):
            total = add(total, mul(mul(xi, gij), xj))
    return total


def is_anisotropic(field: Field, gram, budget: int = DEFAULT_BUDGET) -> bool:
    """Decide whether q(x) = x G x^T vanishes only at 0, for a Gram matrix
    of raw values.

    Finite prime fields are handled by projective-point enumeration.  Over
    infinite fields: rank 1 directly; rank 2 by the discriminant (odd or
    zero characteristic) or by an Artin-Schreier root (characteristic 2);
    diagonal forms of any rank in characteristic 2 via the even/odd split.
    """
    k = len(gram)
    if k == 0:
        return True
    add, mul, zero = field.raw_add, field.raw_mul, field.raw_zero
    if field.is_finite:
        return all(
            evaluate_form(field, gram, pt) != zero
            for pt in raw_projective_points(field, k, budget=budget)
        )
    char2 = field.characteristic() == 2
    polar_zero = all(
        add(gram[i][j], gram[j][i]) == zero for i in range(k) for j in range(i + 1, k)
    )
    if char2 and polar_zero:
        from .fracfields import char2_diagonal_anisotropic

        return char2_diagonal_anisotropic(field, [gram[i][i] for i in range(k)])
    if k == 1:
        return gram[0][0] != zero
    if k == 2:
        a = gram[0][0]
        b = add(gram[0][1], gram[1][0])
        c = gram[1][1]
        if a == zero:
            return False
        if not char2:
            four_ac = mul(field.canon(4), mul(a, c))
            return not field.raw_is_square(add(mul(b, b), field.raw_neg(four_ac)))
        # a x^2 + b x y + c y^2 with b != 0: substitute x = (b/a) w y
        from .fracfields import artin_schreier_root

        d = mul(mul(c, a), field.raw_inv(mul(b, b)))
        return artin_schreier_root(field, d) is None
    if char2:
        raise UnsupportedField(
            f"anisotropy of a rank-{k} form with cross terms over {field}"
        )
    raise UnsupportedField(
        f"anisotropy of a rank-{k} form over {field}, outside characteristic 2"
    )
