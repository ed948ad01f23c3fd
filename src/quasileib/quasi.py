"""Quasi-ideal analysis: permutability, exact decision procedure, brute-force
oracle, cores, Engel conditions, subquasi chains and the identity suite.

A subspace H permutes with K when [H,K] + [K,H] <= H + K; a quasi-ideal
permutes with every subspace.  The exact decision procedure used here works
over any field:

1. H must be a subalgebra (permuting with K <= H forces [H,H] <= H).
2. For each basis generator h of H, the operators induced by y -> [y,h] and
   y -> [h,y] on L/H (well defined since H is a subalgebra) must be scalar
   multiples of the identity.

Justification: by bilinearity it is enough to permute with every
one-dimensional subspace Fx, which says exactly that every vector of L/H is
an eigenvector of both induced operators, and an operator all of whose
vectors are eigenvectors is a scalar.  Over finite prime fields the
definitional check is available as :func:`is_quasi_ideal_oracle`: H closed,
then the definition at one representative per line of L/H (every point of L
outside H gives the same condition as the line of L/H it lies on).  The test
suite enforces agreement of the two routes on the whole finite-field corpus.

The "generated by left Engel elements" hypothesis of the Engel clause is
tested on the basis generators of H, a sufficient instance of the general
hypothesis (existence of *some* Engel generating set is not decidable by
inspection).
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import (
    LeibnizAlgebra,
    action,
    bracket_subspaces,
    is_ideal,
    is_subalgebra,
    series,
    subalgebras,
)
from .errors import (
    DimensionMismatch,
    NotASubalgebra,
    PreconditionUnverified,
    VerificationFailed,
)
from .linalg import (
    DEFAULT_BUDGET,
    Subspace,
    echelonize,
    raw_combination,
    raw_echelonize,
    raw_left_kernel,
    raw_projective_points,
    require_enumerable,
)


def permutes_with(alg: LeibnizAlgebra, h: Subspace, k: Subspace) -> bool:
    """[H,K] + [K,H] <= H + K, checked on basis products."""
    hk = bracket_subspaces(alg, h, k).sum(bracket_subspaces(alg, k, h))
    return h.sum(k).contains(hk)


class QuasiIdealVerdict(
    namedtuple("QuasiIdealVerdict", "holds certificate witness", defaults=(None, None))
):
    # certificate: one (alpha, beta) pair per basis row of H, the induced
    # operators of y -> [y,h] and y -> [h,y] on the quotient being alpha*id
    # and beta*id; witness: (h, x, value) with value = [x,h] or [h,x]
    # outside H + Fx
    __slots__ = ()

    def __bool__(self):
        return self.holds

    def to_json(self):
        out = {"holds": self.holds}
        if self.certificate is not None:
            out["certificate"] = [
                {"alpha": a.to_json(), "beta": b.to_json()}
                for a, b in self.certificate
            ]
        if self.witness is not None:
            h, x, value = self.witness
            out["witness"] = {
                "h": [s.to_json() for s in h],
                "x": [s.to_json() for s in x],
                "value": [s.to_json() for s in value],
            }
        return out


def _witness_in_span(alg, h_space, x, value) -> bool:
    # verifies a negative witness of raw vectors: value must escape H + Fx
    probe = raw_echelonize(alg.field, alg.dim, h_space.raw_rows + (x,))
    return not probe.raw_contains(value)


def is_quasi_ideal_in(
    alg: LeibnizAlgebra, h: Subspace, m: Subspace | None = None
) -> QuasiIdealVerdict:
    """Decide whether H is a quasi-ideal of the subalgebra M (of L itself
    when M is omitted).  Verdicts carry a replayable certificate or witness.

    Verdicts are memoised per pair (H, M); the field and ambient dimension
    of both are checked on every call, H <= M only before a verdict is
    first decided (a cached pair has passed it; every H lies in M = L).
    Closure is read from the memoised :func:`is_subalgebra` verdict, and
    the induced operators from the memoised :func:`action` on H, in L's
    own coordinates for every M.
    """
    if m is None:
        m = alg.full()
    alg.check_subspace(h)
    alg.check_subspace(m)
    cache = alg._cache.get("quasi_in")
    if cache is None:
        cache = alg._cache["quasi_in"] = {}
    key = (h.raw_rows, m.raw_rows)
    verdict = cache.get(key)
    if verdict is None:
        if m.dim != alg.dim and not m.contains(h):
            raise DimensionMismatch("H must be contained in M")
        verdict = cache[key] = _decide_quasi_in(alg, h, m)
    return verdict


def _decide_quasi_in(alg, h, m):
    """The verdict on H in M, with H <= M.

    H must be closed; that verdict is read from :func:`is_subalgebra`, and
    only an H that is not closed is bracketed here again, to find the first
    basis bracket escaping H as the witness.  Then each basis row h of H
    must act as a scalar on M/H from both sides.  The rows of M whose
    pivots are not pivots of H represent a basis of M/H; call those pivots
    ``cols``.  Reduction mod H is linear, so [x, h] mod H is the
    combination, with x's entries, of the rows [e_j, h] mod H of
    :func:`action` (row c itself when x = e_c, as for M = L).  Since H <= M,
    a reduced image lies in M exactly when the bracket does, and its
    coefficient on the representative at pivot c is its entry at c.  Only
    a witness brackets again (through the memoised raw brackets)."""
    field, n = alg.field, alg.dim
    add, zero = field.raw_add, field.raw_zero
    br = alg.table.raw_bracket
    hrows = h.raw_rows

    def refuted(hrow, x, value):
        witness = (field.wrap(hrow), field.wrap(x), field.wrap(value))
        if not _witness_in_span(alg, h, x, value):
            raise VerificationFailed(f"witness {witness} lands in H + Fx")
        return QuasiIdealVerdict(False, witness=witness)

    if not is_subalgebra(alg, h):
        # a bracket escaping H (= H + Fw) is the witness
        for u in hrows:
            for w in hrows:
                val = br(u, w)
                if not h.raw_contains(val):
                    return refuted(u, w, val)

    hpiv = set(h.pivots)
    reps, cols = [], []
    for row, c in zip(m.raw_rows, m.pivots):
        if c not in hpiv:
            reps.append(row)
            cols.append(c)
    if not cols:
        cert = tuple((field.zero, field.zero) for _ in hrows)
        return QuasiIdealVerdict(True, certificate=cert)
    whole = m.dim == n
    acted = action(alg, h)

    def image(hrow, side, x):
        return br(x, hrow) if side == "right" else br(hrow, x)

    def scalar_of(k, hrow, side):
        # the scalar of the induced operator on M/H, or a refuting triple
        h_e, e_h = acted[k]
        reduced = e_h if side == "right" else h_e
        if whole:
            t = [reduced[c] for c in cols]
        else:
            t = [raw_combination(field, x, reduced, n) for x in reps]
            for x, r in zip(reps, t):
                if not m.raw_contains(r):
                    # the bracket leaves M entirely, so it cannot land in
                    # H + Fx
                    return None, (hrow, x, image(hrow, side, x))
        # t holds the reduced images of the representatives
        for a, r in enumerate(t):
            for b, c in enumerate(cols):
                if a != b and r[c] != zero:
                    # reps[a] is not an eigenvector
                    return None, (hrow, reps[a], image(hrow, side, reps[a]))
        diag = [r[c] for r, c in zip(t, cols)]
        for i in range(1, len(cols)):
            if diag[i] != diag[0]:
                # distinct eigenvalues: the sum of the two eigenvectors is
                # not an eigenvector
                x = tuple(map(add, reps[0], reps[i]))
                return None, (hrow, x, image(hrow, side, x))
        return diag[0], None

    certificate = []
    for k, hrow in enumerate(hrows):
        alpha, witness = scalar_of(k, hrow, "right")
        if witness is not None:
            return refuted(*witness)
        beta, witness = scalar_of(k, hrow, "left")
        if witness is not None:
            return refuted(*witness)
        certificate.append(field.wrap((alpha, beta)))
    return QuasiIdealVerdict(True, certificate=tuple(certificate))


def is_quasi_ideal(alg: LeibnizAlgebra, h: Subspace) -> QuasiIdealVerdict:
    return is_quasi_ideal_in(alg, h, None)


def is_quasi_ideal_oracle(
    alg: LeibnizAlgebra, h: Subspace, budget: int = DEFAULT_BUDGET
) -> bool:
    """Definitional check over a finite prime field: H permutes with every
    subspace K.  By bilinearity it is enough to permute with every line Fx
    ([H, sum Fx_i] = sum [H, Fx_i]), and the lines are checked in two parts.

    1. H is closed.  For x in H, H + Fx = H, so the condition at every such
       x says [x,h], [h,x] in H; by bilinearity that is [u,v] in H for every
       ordered pair of basis rows, which :func:`is_subalgebra` checks.
    2. One line of L/H at a time.  If [H,H] <= H, the condition at x depends
       only on the line of x in L/H: for c != 0 and h' in H,
       [cx + h', h] = c[x,h] + [h',h] = c[x,h] (mod H), the same on the other
       side, and H + F(cx + h') = H + Fx.  So x runs over one projective
       point y of F^(n - dim H) per line, written on H's non-pivot columns
       with zeros at the pivots.  Such an x is already reduced mod H and has
       a leading 1, so a bracket v lies in H + Fx exactly when its reduction
       mod H is c x, with c the reduction's entry at x's leading column.

    The lines of L/H depend only on which columns are H's pivots, so
    :func:`_oracle_lines` builds them once per pivot pattern per algebra.
    The oracle reads neither the decision procedure's verdicts nor
    :func:`action`.  The budget is checked against the projective points
    of F^n, those of the definition."""
    alg.check_subspace(h)
    field, n = alg.field, alg.dim
    require_enumerable(field, n, budget, f"projective points of F^{n}")
    if not is_subalgebra(alg, h):
        return False
    br, mul = alg.table.raw_bracket, field.raw_mul
    reduce, hrows = h.raw_reduce, h.raw_rows
    for x, lead, multiples in _oracle_lines(alg, h.non_pivots(), budget):
        for hrow in hrows:
            for r in (reduce(br(x, hrow)), reduce(br(hrow, x))):
                c = r[lead]
                cx = multiples.get(c)
                if cx is None:
                    cx = multiples[c] = tuple([mul(c, v) for v in x])
                if r != cx:
                    return False
    return True


def _oracle_lines(alg, comp, budget):
    """The lines of L/H for every H whose non-pivot columns are ``comp``:
    one (x, lead, multiples) per projective point y of F^len(comp), with x
    holding y on those columns and zeros elsewhere, lead its leading column
    and multiples the dict c -> c x, filled as the oracle reads it.  Built
    once per pattern per algebra."""
    cache = alg._cache.get("oracle_lines")
    if cache is None:
        cache = alg._cache["oracle_lines"] = {}
    lines = cache.get(comp)
    if lines is None:
        field, n = alg.field, alg.dim
        lines = []
        for y in raw_projective_points(field, len(comp), budget):
            x = [field.raw_zero] * n
            for col, c in zip(comp, y):
                x[col] = c
            lines.append((tuple(x), comp[y.index(field.raw_one)], {}))
        lines = cache[comp] = tuple(lines)
    return lines


def core(alg: LeibnizAlgebra, h: Subspace) -> Subspace:
    """The largest ideal of L contained in H, as a greatest fixpoint:
    N_0 = H and N_{k+1} = {v in N_k : [v, e_j], [e_j, v] in N_k for all j}.

    N_{k+1} = N_k exactly when N_k is an ideal, so the loop stops at the
    first N_k that :func:`is_ideal` accepts instead of computing one more
    kernel to confirm it.  The kernel's row for a basis row b of N_k is
    [b, e_j] mod N_k, [e_j, b] mod N_k for j = 1..n, read from
    :func:`action`.  The core keeps no table: each call recomputes it.
    """
    alg.check_subspace(h)
    field, n = alg.field, alg.dim
    cur = h
    while not is_ideal(alg, cur):
        rows = []
        for b_e, e_b in action(alg, cur):
            flat = []
            for be, eb in zip(b_e, e_b):
                flat.extend(be)
                flat.extend(eb)
            rows.append(flat)
        kernel = raw_left_kernel(field, rows)
        gens = [raw_combination(field, c, cur.raw_rows, n) for c in kernel.raw_rows]
        cur = raw_echelonize(field, n, gens)
    return cur


def is_left_engel(alg: LeibnizAlgebra, x: tuple) -> bool:
    """x is left Engel when y -> [y,x] is nilpotent (the finite-dimensional
    form of: for each y some power kills y).  The answer depends only on
    the line Fx."""
    if len(x) != alg.dim:
        raise DimensionMismatch("vectors must live in the algebra")
    return _left_engel(alg, echelonize(alg.field, alg.dim, [x]))


def _left_engel(alg, line):
    """:func:`is_left_engel` for the subspace ``line`` = Fx: the images L,
    [L,x], [[L,x],x], ... descend, and the map is nilpotent exactly when
    they reach 0 before they stop shrinking.  Each image is a memoised
    :func:`bracket_subspaces`."""
    cur = alg.full()
    while not cur.is_zero():
        nxt = bracket_subspaces(alg, cur, line)
        if nxt.dim == cur.dim:
            return False
        cur = nxt
    return True


class EngelReport(namedtuple("EngelReport", "holds counterexample", defaults=(None,))):
    __slots__ = ()

    def __bool__(self):
        return self.holds


def is_engel_algebra(alg: LeibnizAlgebra, budget: int = DEFAULT_BUDGET) -> EngelReport:
    """Every element left Engel, decided on every projective point of F^n
    (nilpotency of y -> [y,x] only depends on Fx).  The budget bounds the
    q^n vectors of F^n; an infinite field is refused."""
    field, n = alg.field, alg.dim
    # each point is already its line's echelon row, leading entry 1
    for x in raw_projective_points(field, n, budget):
        if not _left_engel(alg, Subspace(field, n, (x,), (x.index(field.raw_one),))):
            return EngelReport(False, field.wrap(x))
    return EngelReport(True)


# ---------------------------------------------------------------------------
# subquasi chains
# ---------------------------------------------------------------------------


class SubquasiChain(namedtuple("SubquasiChain", "chain")):
    """Chain H = H_m qu H_{m-1} qu ... qu H_0 = L, stored ascending from H
    as ``chain`` = (H, ..., L); every term is a quasi-ideal of the next."""

    __slots__ = ()

    @property
    def m(self) -> int:
        return len(self.chain) - 1


def _subquasi_bfs(alg: LeibnizAlgebra, budget: int):
    """The BFS parent of every subalgebra that a subquasi chain reaches,
    one step nearer L on a shortest chain (None for L itself)."""
    cache = alg._cache.get("subquasi_bfs")
    if cache is not None:
        return cache
    full = alg.full()
    parent = {full: None}
    # the subalgebras not yet placed, in enumeration order; L is the only
    # one of full dimension
    unplaced = [s for s in subalgebras(alg, budget=budget) if s.dim < alg.dim]
    frontier = [full]
    while frontier:
        nxt = []
        for m in frontier:
            rest = []
            for s in unplaced:
                if s.dim < m.dim and m.contains(s) and is_quasi_ideal_in(alg, s, m).holds:
                    parent[s] = m
                    nxt.append(s)
                else:
                    rest.append(s)
            unplaced = rest
        frontier = nxt
    alg._cache["subquasi_bfs"] = parent
    return parent


def subquasi_chain(
    alg: LeibnizAlgebra,
    h: Subspace,
    budget: int = DEFAULT_BUDGET,
):
    """Shortest chain of relative quasi-ideals from H up to L (breadth-first
    over the subalgebra lattice), or None if there is none."""
    if not is_subalgebra(alg, h):
        raise NotASubalgebra("subquasi chains consist of subalgebras")
    parent = _subquasi_bfs(alg, budget)
    if h not in parent:
        return None
    chain = [h]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    return SubquasiChain(tuple(chain))


# ---------------------------------------------------------------------------
# identity suite for quasi-ideals and subquasi chains
# ---------------------------------------------------------------------------

PASS, FAIL, VACUOUS, SKIPPED = "pass", "fail", "vacuous", "skipped"


def _verdict(holds, detail=None):
    return (PASS if holds else FAIL, detail)


def _reflected_brackets(alg, h):
    """h in H, x in L, [x,h] in H  =>  [h,x] in H, on basis pairs.  A failure
    ends only the scan of its own basis row, so the detail names the last
    failing row."""
    zero = (alg.field.raw_zero,) * alg.dim
    detail = None
    for hrow, (h_e, e_h) in zip(h.raw_rows, action(alg, h)):
        for j, (hx, xh) in enumerate(zip(h_e, e_h)):
            if xh == zero and hx != zero:
                detail = f"basis pair (h={alg.field.wrap(hrow)}, x=e{j+1})"
                break
    return _verdict(detail is None, detail)


def _descent(absorbs, terms, start, low, gap, tag=None):
    """Whether T_k ``absorbs`` T_(k+gap) at k = n + low for n = start,
    start + 1, ..., with T_k = terms[k - 1] held at the last term once the
    series stops, as (PASS, tag) or (FAIL, the first failing n after
    ``tag``).  From the first n with k at the last term both indices are
    held there, so every later n repeats that check and the scan stops
    after it."""
    last = len(terms)
    n = start
    while True:
        k = n + low
        if not absorbs(terms[min(k, last) - 1], terms[min(k + gap, last) - 1]):
            return (FAIL, f"n={n}" if tag is None else f"{tag}, n={n}")
        if k >= last:
            return (PASS, tag)
        n += 1


def lemma_suite(
    alg: LeibnizAlgebra,
    h: Subspace,
    chain: SubquasiChain | None = None,
) -> dict:
    """Evaluate the structural containments that hold for quasi-ideals and
    m-step subquasi-ideals, plus the perfect / Engel / core-free clauses, as
    ``{clause: (status, detail)}`` with status PASS, FAIL, VACUOUS or
    SKIPPED.

    Precondition (verified here): H is a quasi-ideal of L, or ``chain`` is a
    valid subquasi chain from H to L.  Chain clauses are skipped when no
    chain is supplied; direct clauses are skipped when H is not a direct
    quasi-ideal.
    """
    direct = is_quasi_ideal(alg, h).holds
    m = None
    if chain is not None:
        if chain.chain[0] != h or chain.chain[-1] != alg.full():
            raise PreconditionUnverified("chain must run from H to L")
        for lo, hi in zip(chain.chain, chain.chain[1:]):
            if not is_quasi_ideal_in(alg, lo, hi).holds:
                raise PreconditionUnverified("chain link is not a quasi-ideal")
        m = chain.m
    if not direct and m is None:
        raise PreconditionUnverified("H is neither a quasi-ideal nor chained")
    # each hypothesis is decided once: H is a quasi-ideal (m = 1), or H has a
    # chain with m >= 1; H = L (m = 0) is a quasi-ideal, so H meets one
    chained = m is not None and m >= 1
    not_direct = (SKIPPED, "needs m = 1")
    unchained = (VACUOUS, "H = L") if m == 0 else (SKIPPED, "no chain")

    full = alg.full()
    sq = bracket_subspaces(alg, h, h)  # H^2
    sq_chain = series(alg, h, "omega_of_square")  # (H^2)^1, (H^2)^2, ...
    der_chain = series(alg, h, "derived")  # H^(1), H^(2), ...
    wraps = alg._cache.get("wrap")
    if wraps is None:
        wraps = alg._cache["wrap"] = {}

    def wrap(space):
        # [L, S] + [S, L] once per subspace of the algebra: bracket_subspaces
        # keeps the two products, this keeps the echelon form of their sum
        found = wraps.get(space.raw_rows)
        if found is None:
            found = wraps[space.raw_rows] = bracket_subspaces(alg, full, space).sum(
                bracket_subspaces(alg, space, full)
            )
        return found

    def absorbs(outer, inner):
        # [L, inner] + [inner, L] <= outer
        return outer.contains(wrap(inner))

    def absorbed(outer, inner, detail=None):
        return _verdict(absorbs(outer, inner), detail)

    c = {}
    c["reflected_brackets"] = (
        _reflected_brackets(alg, h) if direct else (SKIPPED, "not a direct quasi-ideal")
    )
    # [L, H^2] + [H^2, L] <= H
    c["square_bracket_absorbed"] = absorbed(h, sq) if direct else not_direct
    # [L, (H^2)^m] + [(H^2)^m, L] <= H for an m-step chain
    c["chain_square_power_absorbed"] = (
        absorbed(h, sq_chain[min(m, len(sq_chain)) - 1], f"m={m}")
        if chained
        else unchained
    )
    # [L, (H^2)^n] + [(H^2)^n, L] <= (H^2)^(n-1) for n >= 2
    c["square_power_descent"] = (
        _descent(absorbs, sq_chain, 2, -1, 1) if direct else not_direct
    )
    # [L, (H^2)^(m+n)] + [(H^2)^(m+n), L] <= (H^2)^n for n >= 1
    c["chain_square_power_descent"] = (
        _descent(absorbs, sq_chain, 1, 0, m, f"m={m}") if chained else unchained
    )
    # [L, H^(m+n+1)] + [H^(m+n+1), L] <= H^(m+n) for n >= 1, with m = 1 for
    # a quasi-ideal without a chain
    m_eff = m if chained else 1
    c["derived_power_descent"] = _descent(
        absorbs, der_chain, 1, m_eff, 1, f"m={m_eff}"
    )
    # a perfect subquasi-ideal is an ideal
    perfect = sq == h and not h.is_zero()
    c["perfect_subquasi_is_ideal"] = (
        _verdict(is_ideal(alg, h)) if perfect else (VACUOUS, "H^2 != H")
    )
    # a quasi-ideal generated by left Engel elements is an ideal; each of
    # H's echelon rows is already its line's echelon basis
    if not direct:
        c["engel_generated_is_ideal"] = not_direct
    elif all(
        _left_engel(alg, Subspace(alg.field, alg.dim, (row,), (p,)))
        for row, p in zip(h.raw_rows, h.pivots)
    ):
        c["engel_generated_is_ideal"] = _verdict(is_ideal(alg, h))
    else:
        c["engel_generated_is_ideal"] = (
            VACUOUS, "some basis generator is not left Engel"
        )
    # a core-free subquasi-ideal has nilpotent H^2
    corefree = core(alg, h).is_zero()
    c["corefree_square_nilpotent"] = (
        _verdict(sq_chain[-1].is_zero()) if corefree else (VACUOUS, "core is nonzero")
    )
    return c


def quasi_ideals(alg: LeibnizAlgebra, budget: int = DEFAULT_BUDGET):
    """All quasi-ideals of a finite-prime-field algebra, by the exact
    predicate over all subalgebras."""
    return [s for s in subalgebras(alg, budget=budget) if is_quasi_ideal(alg, s).holds]


__all__ = [
    "EngelReport",
    "QuasiIdealVerdict",
    "SubquasiChain",
    "core",
    "is_engel_algebra",
    "is_left_engel",
    "is_quasi_ideal",
    "is_quasi_ideal_in",
    "is_quasi_ideal_oracle",
    "lemma_suite",
    "permutes_with",
    "quasi_ideals",
    "subquasi_chain",
]
