"""Truncated spectral-gap estimation through irreducible representations.

The regular representation of a two-generator subgroup splits into
irreducible blocks, one of each dimension n + 1.  This module builds those
blocks and reports word-defect bounds and the per-level spectral gaps of the
Hermitian averaging operator of a pair,

    gap_n = 1 - lambda_max( (pi_n(a) + pi_n(a)* + pi_n(b) + pi_n(b)*) / 4 ).

A block is the exponential of the tridiagonal Lie-algebra image of log g,
which a diagonal phase makes real symmetric, diagonalized exactly (Feng,
Wang, Yang, Jin, Phys. Rev. E 92, 043307, 2015).  The gap depends only on
the trace triple (tr a, tr b, tr ab), so gap_profile computes it on a
canonical conjugate of the pair, where the averaging operator is real, and
sweeps levels 1..n_max carrying rows 0..n/2 of the real Wigner block of a
rotation by Risbo's Clebsch-Gordan step (J. Geodesy 70, 1996), which keeps
the block's mirror symmetry exactly, times a Hankel view of phases; when both
canonical generators are diagonal, the operator's diagonal closed form
replaces the sweep.  The involution J inverting both generators halves every
solve: two real blocks at even levels, and at odd levels (J^2 = -I) one
complex Hermitian block holding each Kramers pair once.  All eigenvalues
come from LAPACK through numpy.

A truncated profile is evidence, not a certificate: the true spectral gap is
an infimum over all levels and no finite sweep can certify it.  Every summary
produced here carries that caveat.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .su2_core import Pair, SU2Element, Word, evaluate_word


def _real_tridiagonal_exp(alpha: complex, beta: complex, n: int):
    """(sign, phase, w, V) with, for g = (alpha, beta),

        pi_n(g) = sign * diag(phase) (V diag(e^{iw}) V^T) diag(phase)*.

    With D as in irrep_matrix and c = -i q, the phase u_k = e^{-ik arg c}
    turns -iD into the real symmetric tridiagonal T with diagonal
    (n - 2k) Im(p) and off-diagonal |c| sqrt((k+1)(n-k)); (w, V) = eigh(T).
    When Re(alpha) < 0, -g is used with the sign (-1)^n, so the rotation
    angle stays at most pi/2 and log g is well conditioned.
    """
    sign = 1.0
    if alpha.real < 0.0:
        alpha, beta, sign = -alpha, -beta, (-1.0) ** n
    sin_angle = math.hypot(alpha.imag, abs(beta))
    scale = math.atan2(sin_angle, alpha.real) / sin_angle if sin_angle > 0.0 else 1.0
    k = np.arange(n + 1)
    angle = cmath.phase(-1j * beta) if beta else 0.0
    phase = np.exp((-1j * angle) * k)
    tri = np.zeros((n + 1, n + 1))
    tri[k, k] = (n - 2.0 * k) * (alpha.imag * scale)
    # eigh reads only the lower triangle
    tri[k[1:], k[:-1]] = (scale * abs(beta)) * np.sqrt((n - k[:-1]) * (k[:-1] + 1.0))
    try:
        w, v = np.linalg.eigh(tri)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}", level=n) from exc
    return sign, phase, w, v


def irrep_matrix(g: SU2Element, n: int) -> np.ndarray:
    """Unitary matrix of g on the level-n irreducible block (dimension n + 1).

    Basis: monomials x^(n-k) y^k scaled by sqrt(binomial(n, k)), acted on by
    the substitution x -> alpha x - conj(beta) y, y -> beta x + conj(alpha) y.
    Level 1 reproduces the element's own 2x2 matrix exactly.

    For log g = [[p, q], [-conj(q), conj(p)]] the image of log g on the block
    is the tridiagonal matrix

        D[k, k] = (n - 2k) p,  D[k+1, k] = -conj(q) sqrt((n-k)(k+1)),
        D[k, k+1] = q sqrt((k+1)(n-k)),

    and the block is exp(D), computed from one real eigendecomposition of
    -iD after a diagonal phase change (see _real_tridiagonal_exp).
    """
    if n < 0:
        raise ValueError("irrep level must be nonnegative")
    if n == 0:
        return np.ones((1, 1), dtype=complex)
    if n == 1:
        return g.matrix
    sign, phase, w, v = _real_tridiagonal_exp(g.alpha, g.beta, n)
    block = (v * np.cos(w)) @ v.T + 1j * ((v * np.sin(w)) @ v.T)
    return block * (sign * np.outer(phase, phase.conj()))


def _frame(pair: Pair) -> tuple[float, complex, float]:
    """(theta_a, alpha, r) of the canonical conjugate a' = e^{i theta_a}
    (diagonal), b' = (alpha, i r) of the pair: with v = (Im alpha, Re beta,
    Im beta) and e = v_a / |v_a| (any unit vector if v_a = 0), theta_a =
    atan2(|v_a|, Re alpha_a), alpha = Re alpha_b + i e.v_b, r = |e x v_b|;
    r == 0.0 makes b' diagonal as well."""
    a, b = pair
    va = (a.alpha.imag, a.beta.real, a.beta.imag)
    vb = (b.alpha.imag, b.beta.real, b.beta.imag)
    norm_a = math.hypot(*va)
    ex, ey, ez = (x / norm_a for x in va) if norm_a > 0.0 else (1.0, 0.0, 0.0)
    vx, vy, vz = vb
    along = ex * vx + ey * vy + ez * vz
    across = math.hypot(ey * vz - ez * vy, ez * vx - ex * vz, ex * vy - ey * vx)
    return math.atan2(norm_a, a.alpha.real), complex(b.alpha.real, along), across


def _gap(rows: np.ndarray, n: int, signs: np.ndarray) -> float:
    """1 - lambda_max of a real symmetric level-n operator A that commutes with
    J e_k = (-1)^k e_{n-k}, the image of the rotation inverting both canonical
    generators, from its rows 0..n//2 (overwritten); signs[k] = (-1)^k.  Odd
    n = 2m - 1 has J^2 = -I, and on the J = -i eigenvectors (e_k + i J e_k) /
    sqrt2 (k < m), A is H[j, k] = A[j, k] + i (-1)^k A[j, n - k], with each
    Kramers pair once.  Even n = 2m reads rows 0..m, which the J-eigenvectors
    (e_k +- (-1)^(m+k) e_{n-k}) / sqrt2 (k < m) and e_m split into two real
    half blocks.  Rounding below 0 is reported as 0.  Raises
    ConvergenceError (with the level) if the eigensolver fails or lambda_max
    is not at most 1 + 1e-9, as no unitary block gives; NaN fails that too."""
    m = n // 2
    if n % 2:
        folded = np.empty((m + 1, m + 1), dtype=complex)
        folded.real = rows[:, : m + 1]
        np.multiply(rows[:, n:m:-1], signs[: m + 1], out=folded.imag)
        blocks = [folded]
    else:
        mirror = rows[:m, n:m:-1] * signs[m : 2 * m]
        blocks = [rows[:, : m + 1], rows[:m, :m] - mirror]
        rows[:m, :m] += mirror
        rows[m, :m] *= math.sqrt(2.0)  # eigvalsh reads the lower triangle
    try:
        top = float(np.max([np.linalg.eigvalsh(block)[-1] for block in blocks]))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}", level=n) from exc
    if not top <= 1.0 + 1e-9:
        raise ConvergenceError(f"eigenvalue {top!r} lies outside [-1, 1]", level=n)
    return max(0.0, 1.0 - top)


def _rotation_blocks(c: float, s: float, n_max: int):
    """Yield (D_n, spare), n = 1..n_max: rows 0..n//2 of D_n = diag((-1)^j)
    d_n, d_n the level-n block of g = [[c, s], [-s, c]], and a flat array free
    until the next step.  Risbo's step (J. Geodesy 70, 1996) on diag(1, -1) g
    gives D_n exactly: D_n[j, k] = sum over x, y in {0, 1} of w[j, x] w[k, y]
    (-1)^x g[x, y] D_{n-1}[j - x, k - y], w[j, 0] = sqrt((n - j) / n), w[j, 1]
    = sqrt(j / n).  It keeps D_n[n-j, n-k] = (-1)^(n+j+k) D_n[j, k] exactly,
    so rows 0..n//2 of D_{n-1} suffice; at even n the last is the signed
    reversal of its neighbour.  Stepping both sides keeps d_n orthogonal to
    rounding; stepping columns alone does not."""
    norm = math.hypot(c, s)  # rounding off 1 in g would scale d_n by norm^n
    c, s = c / norm, s / norm
    # D_n sits at [1:n//2+2, 1:n+2] inside zero borders, so shifted copies are views
    buffers = np.zeros((4, n_max // 2 + 2, n_max + 2))
    prev, cur, top, low = buffers
    prev[1, 1] = 1.0
    roots = np.sqrt(np.arange(n_max + 1))
    signs = (-1.0) ** np.arange(2 * n_max + 2)
    spare = top.reshape(-1)
    for n in range(1, n_max + 1):
        h = n // 2
        if not n % 2:  # D_{n-1}[h, k] = (-1)^(h+1+k) D_{n-1}[h-1, n-1-k]
            np.multiply(prev[h, n:0:-1], signs[h + 1 : h + n + 1], out=prev[h + 1, 1 : n + 1])
        w = roots[: n + 1] / roots[n]  # w[k, 1]; w[::-1] is w[k, 0]
        cw, sw = np.multiply.outer((c, s), w)
        same, shifted = prev[1 : h + 2, 1 : n + 2], prev[1 : h + 2, : n + 1]
        scratch = cur[1 : h + 2, 1 : n + 2]  # overwritten by the last step
        # rows x = 0, 1 of sum_y g[x, y] (-1)^x w[k, y] D_{n-1}[i, k - y]
        row0 = np.multiply(same, cw[::-1], out=top[1 : h + 2, : n + 1])
        row0 += np.multiply(shifted, sw, out=scratch)
        row1 = np.multiply(same[:h], sw[::-1], out=low[1 : h + 1, : n + 1])
        row1 -= np.multiply(shifted[:h], cw, out=scratch[:h])
        # D_n[j] = w[j, 0] row0[j] + w[j, 1] row1[j - 1]; low[0] stays zero
        head, tail = top[1 : h + 2, : n + 1], low[: h + 1, : n + 1]
        head *= w[: n - h - 1 : -1, None]
        tail *= w[: h + 1, None]
        yield np.add(head, tail, out=cur[1 : h + 2, 1 : n + 2]), spare
        prev, cur = cur, prev


@dataclass(frozen=True)
class GapProfile:
    """Per-level spectral gaps for levels 1..n_max with their minimum.

    The minimum over a finite truncation is evidence about the spectral gap
    of the pair, never a certificate of it.
    """

    levels: tuple[tuple[int, float], ...]
    min_gap: float
    argmin_level: int

    @property
    def n_max(self) -> int:
        return self.levels[-1][0]

    def rows(self) -> list[tuple[int, int, float]]:
        """(n, dim, gap) rows for delimited export."""
        return [(n, n + 1, gap) for n, gap in self.levels]


def gap_profile(pair: Pair, n_max: int) -> GapProfile:
    """Gaps of levels 1..n_max in one sweep, with their minimum.

    A diagonal conjugation commuting with pi(a') turns b' of _frame into
    Z g Z, g = [[|alpha|, r], [-r, |alpha|]], Z = diag(e^{i phi/2}, e^{-i phi/2}),
    phi = arg alpha.  So, after a diagonal change of basis, the level-n
    operator is A = diag(cos((n - 2k) theta_a)) / 2 + h_n[j + k] D_n[j, k],
    D_n from _rotation_blocks, h_n[s] = Re(e^{i phi (n - s)} i^s) / 2: its
    rows 0..n//2, all _gap reads, take one product with a Hankel view of h_n,
    O(n^2) work per level besides _gap.  When r == 0.0, b' = diag(alpha,
    conj alpha) and the operator is the diagonal diag(cos((n - 2k) theta_a)
    + cos((n - 2k) phi)) / 2 itself: its zero weights give exact zeros, where
    rounding in D_n would leave about 1e-16.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    theta_a, alpha, r = _frame(pair)
    phi, s = cmath.phase(alpha), np.arange(2 * n_max + 1)
    signs = (-1.0) ** s
    # cos((n - 2k) x) / 2 for k = 0..n//2 is cos_x[n::-2], x = theta_a, phi
    cos_a, cos_phi = 0.5 * np.cos(np.multiply.outer((theta_a, phi), s[: n_max + 1]))
    base = np.exp((-1j * phi) * s) * np.array([1.0, 1j, -1.0, -1j])[s % 4]  # e^{-i phi s} i^s
    phases = np.empty_like(base)  # e^{i phi n} base / 2, so h_n = phases.real
    hankel = np.lib.stride_tricks.sliding_window_view(phases.real, n_max + 1)
    sweep = _rotation_blocks(abs(alpha), r, n_max)  # runs only if r != 0.0
    levels = []
    for n in range(1, n_max + 1):
        rows = n // 2 + 1
        if r == 0.0:
            flat = np.zeros(rows * (n + 1))
            flat[:: n + 2] = cos_phi[n::-2]  # the diagonal, a strided view
        else:
            block, spare = next(sweep)
            np.multiply(base[: 2 * n + 1], 0.5 * cmath.exp(1j * phi * n), out=phases[: 2 * n + 1])
            flat = spare[: rows * (n + 1)]
            np.multiply(hankel[:rows, : n + 1], block, out=flat.reshape(rows, n + 1))
        flat[:: n + 2] += cos_a[n::-2]
        levels.append((n, _gap(flat.reshape(rows, n + 1), n, signs)))
    argmin = min(levels, key=lambda item: item[1])
    return GapProfile(levels=tuple(levels), min_gap=argmin[1], argmin_level=argmin[0])


def word_defect_check(pair: Pair, word: Word, n: int, v: np.ndarray):
    """Displacement of a word against the word-length bound at level n.

    v is an (n + 1, k) array of unit columns.  Returns (lhs, rhs), two
    length-k arrays with, for each column v,

        lhs = || pi_n(w(a, b)) v - v ||
        rhs = len(w) * max over s in {a, a^-1, b, b^-1} of || pi_n(s) v - v ||

    The triangle inequality and unitarity give lhs <= rhs for every unit v.
    The three blocks are built once for all columns.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 2 or v.shape[0] != n + 1:
        raise ValueError(f"v must be an array of columns of dimension n + 1 = {n + 1}")
    if not np.all(np.abs(np.linalg.norm(v, axis=0) - 1.0) <= 1e-6):  # NaN fails this too
        raise ValueError("v must be an array of unit columns")
    pw = irrep_matrix(evaluate_word(word, pair), n)
    lhs = np.linalg.norm(pw @ v - v, axis=0)
    pa = irrep_matrix(pair.a, n)
    pb = irrep_matrix(pair.b, n)
    generator_defect = np.max(
        [np.linalg.norm(m @ v - v, axis=0) for m in (pa, pa.conj().T, pb, pb.conj().T)],
        axis=0,
    )
    return lhs, len(word) * generator_defect
