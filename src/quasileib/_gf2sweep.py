"""Bit-packed exhaustive sweep of 3-dimensional multiplication tables over
GF(2).

A table is 27 bits: c[i][j][k] at position 9i + 3j + k.  Equivalently it is
a triple of right-multiplication matrices R_m (R_m[i][k] = c[i][m][k], a
9-bit pattern with bit 3i + k), and the right Leibniz identity becomes the
nine matrix equations

    sum_k R_m[j][k] * R_k  =  R_j R_m - R_m R_j      for all j, m.

The sweep solves, then filters.  Once R_2 is fixed, the three equations with
m = 2 are linear over GF(2) in the 18 bits of (R_0, R_1), since the
commutator is linear in R_j.  For each of the 512 choices of R_2 that
27 x 18 system is eliminated on Python ints; when it is consistent, its
affine solution set (at most 2**18 pairs, 277,264 over all R_2 instead of
2**27 candidates) is enumerated with numpy and the six remaining quadratic
equations (m = 0, 1) run over it as vectorized word masks.  Isomorphism
classes are the orbits of GL(3,2) acting by base change; each surviving
table is mapped to the minimum of its orbit (a canonical form) by
precomputed 27x27 bit-matrix transports applied through byte lookup tables.
"""

from __future__ import annotations

import numpy as np

_STATE = {}
_IDENTITY = 0b100010001  # the 3x3 identity as a 9-bit pattern


def _bits(values, nbits: int) -> np.ndarray:
    """(len(values), nbits) array of the low bits of each value."""
    return (np.asarray(values)[:, None] >> np.arange(nbits)) & 1


def _tables():
    """Lazily built per-process lookup tables."""
    if _STATE:
        return _STATE
    patterns = np.arange(512, dtype=np.uint32)
    bits = _bits(patterns, 9)  # bits[r][3i + k] = entry (i, k) of pattern r
    # prod[a][b]: pattern of A B.  Row i of A selects a combination of the
    # rows of B; comb[s][b] is the combination of B's rows that s selects.
    shifts = 3 * np.arange(3, dtype=np.uint32)
    rows = (patterns >> shifts[:, None]) & 7  # rows[i][r]: row i of r
    select = _bits(np.arange(8), 3).astype(bool)[:, :, None]
    comb = np.bitwise_xor.reduce(np.where(select, rows, 0), axis=1)
    prod = (comb[rows] << shifts[:, None, None]).sum(axis=0, dtype=np.uint32)
    comm = prod ^ prod.T

    # spread[j][r]: matrix pattern r (bit 3i+k) placed at table slot j
    # (bit 9i + 3j + k)
    i, k = np.divmod(np.arange(9), 3)
    slots = (9 * i + k) + 3 * np.arange(3)[:, None]  # (3, 9)
    spread = (bits[None] << slots[:, None, :]).sum(axis=2, dtype=np.uint32)

    # canonical transports: for P in GL(3,2), the 27x27 bit matrix taking
    # table bit (a, b, l) to the pattern of bits (i, j, k) with
    # P[i][a] P[j][b] P^-1[l][k] = 1, compiled to byte lookup tables
    is_inv = prod == _IDENTITY
    gl = np.flatnonzero(is_inv.any(axis=1))
    m3 = bits.reshape(512, 3, 3).astype(np.uint8)
    p, pinv = m3[gl], m3[is_inv[gl].argmax(axis=1)]
    cube = np.einsum("gia,gjb,glk->gablijk", p, p, pinv).reshape(len(gl), 27, 27)
    colpat = (cube << np.arange(27)).sum(axis=2, dtype=np.uint32)
    # the 27 source bits padded to 4 bytes; lut[byte][v] is the XOR of the
    # columns of the bits set in v
    colpat = np.pad(colpat, ((0, 0), (0, 5))).reshape(len(gl), 4, 1, 8)
    byte_bits = _bits(np.arange(256), 8).astype(bool)  # (256, 8)
    luts = np.bitwise_xor.reduce(np.where(byte_bits, colpat, 0), axis=3)
    _STATE["comm"] = comm
    _STATE["spread"] = spread
    _STATE["luts"] = luts
    return _STATE


def _row(arr, j):
    return (arr >> np.uint32(3 * j)) & np.uint32(7)


def _lincomb(sel, b0, b1, b2):
    zero = np.uint32(0)
    out = np.where((sel & 1).astype(bool), b0, zero)
    out = out ^ np.where((sel & 2).astype(bool), b1, zero)
    out = out ^ np.where((sel & 4).astype(bool), b2, zero)
    return out


def _linear_solutions(r2: int, comm) -> np.ndarray:
    """The pairs (R_0, R_1), packed as R_0 << 9 | R_1, that satisfy the
    three equations with m = 2; empty when that system is inconsistent.

    Equation j is R_2[j][0] R_0 + R_2[j][1] R_1 + [R_j, R_2] = R_2[j][2] R_2
    (with [R_2, R_2] = 0), 9 bits at bit 9j of a 27-bit word.  The images of
    the 18 unknown bits are brought to echelon form, tracking which
    unknowns each image combines; an image that reduces to zero gives a
    kernel vector."""
    comm_r2 = comm[1 << np.arange(9), r2].tolist()  # [E_r, R_2], unit E_r
    basis = []  # (pivot bit, image, combination of unknowns)
    kernel = []
    for var in range(18):
        mat, r = 1 - var // 9, var % 9  # the unknown is bit r of R_mat
        image = comm_r2[r] << (9 * mat)
        for j in range(3):
            if (r2 >> (3 * j + mat)) & 1:
                image ^= 1 << (9 * j + r)
        combo = 1 << var
        for bit, b_image, b_combo in basis:
            if (image >> bit) & 1:
                image ^= b_image
                combo ^= b_combo
        if image:
            basis.append(((image & -image).bit_length() - 1, image, combo))
        else:
            kernel.append(combo)
    rhs = sum(r2 << (9 * j) for j in range(3) if (r2 >> (3 * j + 2)) & 1)
    particular = 0
    for bit, b_image, b_combo in basis:
        if (rhs >> bit) & 1:
            rhs ^= b_image
            particular ^= b_combo
    if rhs:
        return np.zeros(0, dtype=np.uint32)
    solutions = np.array([particular], dtype=np.uint32)
    for vec in kernel:
        solutions = np.concatenate([solutions, solutions ^ np.uint32(vec)])
    return solutions


def survivors_for_r2(r2: int) -> np.ndarray:
    """Valid tables with the given third right-multiplication matrix,
    returned as packed 27-bit table ids."""
    t = _tables()
    comm, spread = t["comm"], t["spread"]
    pairs = np.sort(_linear_solutions(r2, comm))  # survivors in (R_0, R_1) order
    if not pairs.size:
        return pairs
    a0 = pairs >> np.uint32(9)
    a1 = pairs & np.uint32(511)
    r2u = np.uint32(r2)

    def keep(mask):
        nonlocal a0, a1
        a0 = a0[mask]
        a1 = a1[mask]

    # the six equations with m = 0, 1, by (j, m)
    # (2, 0) and (2, 1): rows of the varying matrix select
    for m in (0, 1):
        rm = a0 if m == 0 else a1
        keep(_lincomb(_row(rm, 2), a0, a1, r2u) == comm[r2, rm])
    # (0, 0) and (1, 1): rhs = 0
    for jm in (0, 1):
        rm = a0 if jm == 0 else a1
        keep(_lincomb(_row(rm, jm), a0, a1, r2u) == 0)
    # (0, 1) and (1, 0): full two-sided gather, done last on few survivors
    rhs = comm[a0, a1]
    keep(_lincomb(_row(a1, 0), a0, a1, r2u) == rhs)
    rhs = comm[a0, a1]
    keep(_lincomb(_row(a0, 1), a0, a1, r2u) == rhs)

    return spread[0][a0] | spread[1][a1] | spread[2][r2]


def sweep_range(r2_lo: int, r2_hi: int) -> np.ndarray:
    chunks = [survivors_for_r2(r2) for r2 in range(r2_lo, r2_hi)]
    if not chunks:
        return np.zeros(0, dtype=np.uint32)
    return np.concatenate(chunks)


def canonicalize(ids: np.ndarray) -> np.ndarray:
    """Minimum of the GL(3,2) orbit of each table id."""
    t = _tables()
    best = ids.copy()
    b0 = ids & np.uint32(255)
    b1 = (ids >> np.uint32(8)) & np.uint32(255)
    b2 = (ids >> np.uint32(16)) & np.uint32(255)
    b3 = ids >> np.uint32(24)
    for lut in t["luts"]:
        cand = lut[0][b0] ^ lut[1][b1] ^ lut[2][b2] ^ lut[3][b3]
        np.minimum(best, cand, out=best)
    return best


def run(workers: int = 1):
    """Full exhaustive sweep.  Returns (scanned, valid, sorted canonical ids).

    The worker count only affects how the candidate space is chunked; the
    result is a set union, so the output is identical for any count.  The
    lookup tables are built before the pool starts, so forked workers
    inherit them instead of rebuilding them.
    """
    _tables()
    if workers <= 1:
        survivors = sweep_range(0, 512)
    else:
        from concurrent.futures import ProcessPoolExecutor

        bounds = np.linspace(0, 512, workers + 1, dtype=int)
        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(
                pool.map(sweep_range, bounds[:-1].tolist(), bounds[1:].tolist())
            )
        survivors = (
            np.concatenate(parts) if parts else np.zeros(0, dtype=np.uint32)
        )
    canon = canonicalize(survivors)
    classes = np.unique(canon)
    return 1 << 27, int(survivors.size), [int(x) for x in classes.tolist()]


def decode_table_bits(table_id: int, dim: int = 3):
    """27-bit id -> nested [i][j][k] 0/1 lists."""
    return [
        [
            [(table_id >> (dim * dim * i + dim * j + k)) & 1 for k in range(dim)]
            for j in range(dim)
        ]
        for i in range(dim)
    ]
