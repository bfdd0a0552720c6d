"""Truncated spectral-gap estimation through irreducible representations.

The regular representation of a two-generator subgroup splits into
irreducible blocks, one of each dimension n + 1.  This module builds those
blocks explicitly, forms the Hermitian averaging operator of a pair on each
block, and reports per-level spectral gaps

    gap_n = 1 - lambda_max( (pi_n(a) + pi_n(a)* + pi_n(b) + pi_n(b)*) / 4 )

together with word-defect bounds and the minimal two-generator defect.

Each block is the exponential of the tridiagonal Lie-algebra image of log g,
diagonalized exactly (Feng, Wang, Yang, Jin, Phys. Rev. E 92, 043307, 2015),
so it stays unitary to rounding at every level.  All eigenvalues come from
LAPACK through numpy.

A truncated profile is evidence, not a certificate: the true spectral gap is
an infimum over all levels and no finite sweep can certify it.  Every summary
produced here carries that caveat.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError
from .su2_core import Pair, SU2Element, Word, evaluate_word


def irrep_matrix(g: SU2Element, n: int) -> np.ndarray:
    """Unitary matrix of g on the level-n irreducible block (dimension n + 1).

    Basis: monomials x^(n-k) y^k scaled by sqrt(binomial(n, k)), acted on by
    the substitution x -> alpha x - conj(beta) y, y -> beta x + conj(alpha) y.
    Level 1 reproduces the element's own 2x2 matrix exactly.

    For log g = [[p, q], [-conj(q), conj(p)]] the image of log g on the block
    is the tridiagonal matrix

        D[k, k] = (n - 2k) p,  D[k+1, k] = -conj(q) sqrt((n-k)(k+1)),
        D[k, k+1] = q sqrt((k+1)(n-k)),

    and the block is exp(D) = V diag(e^{iw}) V* from eigh(-iD) = (w, V).
    When Re(alpha) < 0, -g is used with the sign (-1)^n, so the rotation
    angle stays at most pi/2 and log g is well conditioned.
    """
    if n < 0:
        raise ValueError("irrep level must be nonnegative")
    if n == 0:
        return np.ones((1, 1), dtype=complex)
    if n == 1:
        return g.matrix
    alpha, beta, sign = g.alpha, g.beta, 1.0
    if alpha.real < 0.0:
        alpha, beta, sign = -alpha, -beta, (-1.0) ** n
    sin_angle = math.hypot(alpha.imag, abs(beta))
    scale = math.atan2(sin_angle, alpha.real) / sin_angle if sin_angle > 0.0 else 1.0
    k = np.arange(n + 1)
    off = np.sqrt((n - k[:-1]) * (k[:-1] + 1.0))
    herm = np.diag((n - 2.0 * k) * (alpha.imag * scale)).astype(complex)
    herm += np.diag((-1j * scale * beta) * off, 1)
    herm += np.diag((1j * scale * beta.conjugate()) * off, -1)
    w, v = np.linalg.eigh(herm)
    return sign * (v * np.exp(1j * w)) @ v.conj().T


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

    Rounding just below zero is reported as 0.  Raises ConvergenceError
    (annotated with the level) if the eigensolver fails, or if lambda_max is
    not at most 1 + 1e-9, which a unitary block cannot produce; NaN fails
    that test too.
    """
    if n < 1:
        raise ValueError("level_gap requires level n >= 1")
    top = float(_eigenvalues(averaging_operator(pair, n), n)[-1])
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


def word_defect_check(
    pair: Pair, word: Word, n: int, v: np.ndarray
) -> tuple[float, float]:
    """Displacement of a word against the word-length bound at level n.

    Returns (lhs, rhs) with

        lhs = || pi_n(w(a, b)) v - v ||
        rhs = len(w) * max over s in {a, a^-1, b, b^-1} of || pi_n(s) v - v ||

    The triangle inequality and unitarity give lhs <= rhs for every unit v.
    """
    v = np.asarray(v, dtype=complex)
    if v.shape != (n + 1,):
        raise ValueError(f"v must have dimension n + 1 = {n + 1}")
    norm_v = np.linalg.norm(v)
    if abs(norm_v - 1.0) > 1e-6:
        raise ValueError("v must be a unit vector")
    pw = irrep_matrix(evaluate_word(word, pair), n)
    lhs = float(np.linalg.norm(pw @ v - v))
    pa = irrep_matrix(pair.a, n)
    pb = irrep_matrix(pair.b, n)
    generator_defect = max(
        float(np.linalg.norm(m @ v - v))
        for m in (pa, pa.conj().T, pb, pb.conj().T)
    )
    return lhs, len(word) * generator_defect


def min_defect_level(pair: Pair, n: int) -> float:
    """Lower bound for the minimal combined generator displacement at level n.

    Returns sqrt(lambda_min(M)) for

        M = (I - pi(a))*(I - pi(a)) + (I - pi(b))*(I - pi(b)).

    The value lower-bounds min over unit v of ||pi(a)v - v|| + ||pi(b)v - v||
    and is within a factor sqrt(2) of it.  It vanishes exactly when the two
    generators share a fixed vector at this level.
    """
    if n < 1:
        raise ValueError("min_defect_level requires level n >= 1")
    eye = np.eye(n + 1, dtype=complex)
    da = eye - irrep_matrix(pair.a, n)
    db = eye - irrep_matrix(pair.b, n)
    m = da.conj().T @ da + db.conj().T @ db
    return math.sqrt(max(0.0, float(_eigenvalues(m, n)[0])))
