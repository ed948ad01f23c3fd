"""A fixed reference program that the benchmark times beside the package.

    python3 perfbench/reference.py

It is a census of the Leibniz algebras of dimension 2 over GF(3) written in
plain integer arithmetic, sharing no code with the package: every one of
the 3^8 bracket tables is tested against the Leibniz identity, and the
valid ones are sorted into isomorphism classes under GL(2, 3).  It prints
the valid and class counts and exits 1 if they are not 41 and 4.

The host this benchmark runs on changes speed by tens of percent over
seconds to minutes.  The same interference slows this program and the
package alike, so ``run.py`` times it between the package's operations and
reports the package's times as multiples of it.  Its work never changes,
so a change to the package moves the ratio and the host mostly does not.
It is the same kind of work as the package: small-integer arithmetic on
nested lists and tuples in the interpreter, a fresh process with imports
when the package runs as one, or :func:`work` alone when it runs in-process.
"""

from __future__ import annotations

import itertools
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import orbit  # noqa: E402

P, N = 3, 2
VALID, CLASSES = 41, 4
# the host switches between speeds up to twice apart every few seconds;
# an operation whose two reference times differ by more than this factor
# saw a switch, and its ratio mixes the two speeds
AGREE = 1.15


def _bracket(cube, u, v):
    out = [0] * N
    for a in range(N):
        if u[a]:
            for b in range(N):
                c = u[a] * v[b]
                if c:
                    for k, x in enumerate(cube[a][b]):
                        out[k] += c * x
    return [x % P for x in out]


def is_leibniz(cube):
    """[x, [y, z]] = [[x, y], z] + [y, [x, z]] on every basis triple."""
    basis = [[int(i == j) for j in range(N)] for i in range(N)]
    for x, y, z in itertools.product(basis, repeat=3):
        lhs = _bracket(cube, x, _bracket(cube, y, z))
        r1 = _bracket(cube, _bracket(cube, x, y), z)
        r2 = _bracket(cube, y, _bracket(cube, x, z))
        if any((a - b - c) % P for a, b, c in zip(lhs, r1, r2)):
            return False
    return True


def _inverse(mat):
    m = [list(row) + [int(r == i) for r in range(N)] for i, row in enumerate(mat)]
    for col in range(N):
        piv = next(r for r in range(col, N) if m[r][col] % P)
        m[col], m[piv] = m[piv], m[col]
        inv = pow(m[col][col], -1, P)
        m[col] = [(x * inv) % P for x in m[col]]
        for r in range(N):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [(x - f * y) % P for x, y in zip(m[r], m[col])]
    return [row[N:] for row in m]


def _key(cube, mat, inv):
    """The table in the basis f_i = sum_a mat[i][a] e_a, flattened."""
    out = []
    for i in range(N):
        for j in range(N):
            v = _bracket(cube, mat[i], mat[j])
            out.extend(sum(v[k] * inv[k][l] for k in range(N)) % P for l in range(N))
    return tuple(out)


def work(step=1):
    """(valid tables, isomorphism classes) of the reference census, over
    every ``step``-th table."""
    group = [(mat, _inverse(mat)) for mat in orbit.general_linear(N, P)]
    classes = set()
    valid = 0
    tables = itertools.product(range(P), repeat=N * N * N)
    for flat in itertools.islice(tables, 0, None, step):
        cube = [[list(flat[(i * N + j) * N : (i * N + j + 1) * N]) for j in range(N)]
                for i in range(N)]
        if is_leibniz(cube):
            valid += 1
            classes.add(min(_key(cube, mat, inv) for mat, inv in group))
    return valid, len(classes)


def relative(times, refs):
    """Each time as a multiple of the mean of the reference times taken just
    before and just after it; ``refs`` has one more entry than ``times``."""
    return [2 * t / (a + b) for t, a, b in zip(times, refs, refs[1:])]


def agree(a, b):
    """Whether two reference times show the same host speed."""
    return max(a, b) <= AGREE * min(a, b)


def steady(values, refs):
    """The values (one per operation, as for :func:`relative`) whose two
    reference times agree; all of them if none do."""
    kept = [v for v, a, b in zip(values, refs, refs[1:]) if agree(a, b)]
    return kept or list(values)


def main():
    valid, classes = work()
    print(f"valid={valid} classes={classes}")
    return 0 if (valid, classes) == (VALID, CLASSES) else 1


if __name__ == "__main__":
    sys.exit(main())
