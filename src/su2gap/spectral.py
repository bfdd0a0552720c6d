"""Truncated spectral-gap estimation through irreducible representations.

The regular representation of a two-generator subgroup splits into
irreducible blocks, one of each dimension n + 1.  This module builds those
blocks explicitly, forms the Hermitian averaging operator of a pair on each
block, and reports per-level spectral gaps

    gap_n = 1 - lambda_max( (pi_n(a) + pi_n(a)* + pi_n(b) + pi_n(b)*) / 4 )

together with word-defect bounds and the minimal two-generator defect.

Each block is the exponential of the tridiagonal Lie-algebra image of log g,
diagonalized exactly (Feng, Wang, Yang, Jin, Phys. Rev. E 92, 043307, 2015),
so it stays unitary to rounding at every level.  A diagonal phase change
makes that image a real symmetric tridiagonal matrix, so every block comes
from one real eigendecomposition.

The gap is unchanged when the pair is conjugated simultaneously, so it
depends only on the trace triple (tr a, tr b, tr ab).  level_gap computes it
on the canonical conjugate of the pair, where a is diagonal and the whole
averaging operator is a real symmetric matrix.  All eigenvalues come from
LAPACK through numpy.

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
    w, v = np.linalg.eigh(tri)
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


def averaging_operator(pair: Pair, n: int) -> np.ndarray:
    """Hermitian averaging operator of the pair on the level-n block.

    (pi(a) + pi(a)* + pi(b) + pi(b)*) / 4, with spectrum in [-1, 1].
    """
    if n < 1:
        raise ValueError("averaging operator requires level n >= 1")
    pa = irrep_matrix(pair.a, n)
    pb = irrep_matrix(pair.b, n)
    return (pa + pa.conj().T + pb + pb.conj().T) / 4.0


def _eigenvalues(matrix: np.ndarray, n: int) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian level-n matrix."""
    try:
        return np.linalg.eigvalsh(matrix)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed: {exc}", level=n) from exc


def level_gap(pair: Pair, n: int) -> float:
    """1 - lambda_max of the level-n averaging operator.

    The operator is formed for the canonical conjugate (a', b') of the pair,
    which has the same trace triple and hence the same spectrum.  With
    v = (Im alpha, Re beta, Im beta) the axis of an element,

        a' = Re(alpha_a) + i |v_a|                             (diagonal),
        b' = (Re(alpha_b) + i v_a.v_b / |v_a|,  i |v_a x v_b| / |v_a|),

    where any unit vector stands in for v_a / |v_a| when v_a = 0.  Then
    pi(a') + pi(a')* is 2 diag(cos((n - 2k) theta_a)), and pi(b') + pi(b')*
    is 2 sign V diag(cos w) V^T up to the diagonal phase of
    _real_tridiagonal_exp, which commutes with the diagonal pi(a') and so
    leaves the spectrum alone.

    Rounding just below zero is reported as 0.  Raises ConvergenceError
    (annotated with the level) if the eigensolver fails, or if lambda_max is
    not at most 1 + 1e-9, which a unitary block cannot produce; NaN fails
    that test too.
    """
    if n < 1:
        raise ValueError("level_gap requires level n >= 1")
    a, b = pair
    va = (a.alpha.imag, a.beta.real, a.beta.imag)
    vb = (b.alpha.imag, b.beta.real, b.beta.imag)
    norm_a = math.hypot(*va)
    ex, ey, ez = (x / norm_a for x in va) if norm_a > 0.0 else (1.0, 0.0, 0.0)
    vx, vy, vz = vb
    along = ex * vx + ey * vy + ez * vz
    across = math.hypot(ey * vz - ez * vy, ez * vx - ex * vz, ex * vy - ey * vx)
    alpha_b, beta_b = complex(b.alpha.real, along), complex(0.0, across)
    sign, _, w, v = _real_tridiagonal_exp(alpha_b, beta_b, n)
    operator = (v * (0.5 * sign * np.cos(w))) @ v.T
    k = np.arange(n + 1)
    operator[k, k] += 0.5 * np.cos((n - 2.0 * k) * math.atan2(norm_a, a.alpha.real))
    top = float(_eigenvalues(operator, n)[-1])
    if not top <= 1.0 + 1e-9:
        raise ConvergenceError(f"eigenvalue {top!r} lies outside [-1, 1]", level=n)
    return max(0.0, 1.0 - top)


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
    """Compute level_gap for n = 1..n_max and summarize the minimum."""
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    levels = tuple((n, level_gap(pair, n)) for n in range(1, n_max + 1))
    argmin = min(levels, key=lambda item: item[1])
    return GapProfile(levels=levels, min_gap=argmin[1], argmin_level=argmin[0])


def word_defect_check(pair: Pair, word: Word, n: int, v: np.ndarray):
    """Displacement of a word against the word-length bound at level n.

    Returns (lhs, rhs) with

        lhs = || pi_n(w(a, b)) v - v ||
        rhs = len(w) * max over s in {a, a^-1, b, b^-1} of || pi_n(s) v - v ||

    The triangle inequality and unitarity give lhs <= rhs for every unit v.
    v is either one unit vector of dimension n + 1, giving two floats, or an
    (n + 1, k) array of unit columns, giving two length-k arrays; the three
    blocks are built once either way.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim not in (1, 2) or v.shape[0] != n + 1:
        raise ValueError(f"v must have dimension n + 1 = {n + 1}")
    columns = v.reshape(n + 1, -1)
    if np.any(np.abs(np.linalg.norm(columns, axis=0) - 1.0) > 1e-6):
        raise ValueError("v must be a unit vector, or an array of unit columns")
    pw = irrep_matrix(evaluate_word(word, pair), n)
    lhs = np.linalg.norm(pw @ columns - columns, axis=0)
    pa = irrep_matrix(pair.a, n)
    pb = irrep_matrix(pair.b, n)
    generator_defect = np.max(
        [
            np.linalg.norm(m @ columns - columns, axis=0)
            for m in (pa, pa.conj().T, pb, pb.conj().T)
        ],
        axis=0,
    )
    rhs = len(word) * generator_defect
    if v.ndim == 1:
        return float(lhs[0]), float(rhs[0])
    return lhs, rhs
