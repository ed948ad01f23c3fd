"""Independent orbit-stabiliser check of a census report.

GL(n, p) acts on the valid multiplication tables by base change, and each
isomorphism class is one orbit, of size |GL(n, p)| / |Aut(L)|.  So the
number of valid tables is the sum of |GL(n, p)| / |Aut(L)| over the
classes.  This module counts |Aut(L)| by brute force over GL(n, p) for
each representative table of a report, in plain integer arithmetic mod p,
sharing no code with the package.
"""

from __future__ import annotations

import itertools


def _rank_mod_p(rows, p):
    work = [list(r) for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((r for r in range(rank, len(work)) if work[r][col] % p), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        inv = pow(work[rank][col], -1, p)
        work[rank] = [(x * inv) % p for x in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] % p:
                f = work[r][col]
                work[r] = [(x - f * y) % p for x, y in zip(work[r], work[rank])]
        rank += 1
    return rank


def general_linear(n, p):
    """Every invertible n x n matrix over GF(p), as tuples of rows."""
    out = []
    for flat in itertools.product(range(p), repeat=n * n):
        rows = [flat[i * n : (i + 1) * n] for i in range(n)]
        if _rank_mod_p(rows, p) == n:
            out.append(tuple(tuple(r) for r in rows))
    return out


def is_automorphism(cube, mat, n, p):
    """Whether e_i -> row i of ``mat`` preserves the bracket:
    [P e_i, P e_j] = P [e_i, e_j] for all basis pairs."""
    for i in range(n):
        for j in range(n):
            lhs = [0] * n
            for a in range(n):
                if not mat[i][a]:
                    continue
                for b in range(n):
                    c = mat[i][a] * mat[j][b]
                    if c:
                        v = cube[a][b]
                        for k in range(n):
                            lhs[k] += c * v[k]
            rhs = [0] * n
            for k, coeff in enumerate(cube[i][j]):
                if coeff:
                    for l in range(n):
                        rhs[l] += coeff * mat[k][l]
            if any((x - y) % p for x, y in zip(lhs, rhs)):
                return False
    return True


def orbit_sum(report):
    """(sum over classes of |GL(n,p)| / |Aut(L)|, |GL(n,p)|, [|Aut(L)|])
    for a parsed census report over a prime field."""
    field = report["params"]["field"]
    if field.get("kind") != "prime":
        raise ValueError("the orbit check needs a prime field")
    p, n = field["p"], report["params"]["dim"]
    group = general_linear(n, p)
    total = 0
    auts = []
    for entry in report["classes"]:
        cube = entry["representative_table"]["table"]
        aut = sum(1 for mat in group if is_automorphism(cube, mat, n, p))
        if aut == 0 or len(group) % aut:
            raise ValueError(f"|Aut| = {aut} does not divide |GL| = {len(group)}")
        auts.append(aut)
        total += len(group) // aut
    return total, len(group), auts
