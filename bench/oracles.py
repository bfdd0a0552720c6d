"""Reference computations made apart from su2gap.

Nothing here imports su2gap. Each oracle rebuilds its quantity from the
mathematics: representation blocks as exponentials of the Lie-algebra image,
gaps of commuting pairs in closed form, cell and band probabilities of the
Haar pushforward as exact integrals, and plain 2x2 matrix products. A fault in
the program therefore cannot hide inside its own check.

An SU(2) element is the complex pair (alpha, beta) of the matrix
[[alpha, beta], [-conj(beta), conj(alpha)]].
"""

from __future__ import annotations

import math

import numpy as np


def su2(alpha, beta) -> np.ndarray:
    """2x2 matrices of elements given as (alpha, beta); broadcasts over arrays."""
    alpha = np.asarray(alpha, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    out = np.empty(alpha.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = alpha
    out[..., 0, 1] = beta
    out[..., 1, 0] = -np.conj(beta)
    out[..., 1, 1] = np.conj(alpha)
    return out


def spec_matrices(spec: dict) -> tuple[np.ndarray, np.ndarray]:
    """The two 2x2 matrices of a {"type": "matrix", "a": [...], "b": [...]} record."""

    def one(c):
        return su2(complex(c[0], c[1]), complex(c[2], c[3]))

    return one(spec["a"]), one(spec["b"])


def dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(m, -1, -2))


def real_trace(m: np.ndarray):
    return np.trace(m, axis1=-2, axis2=-1).real


def commutator_trace(a: np.ndarray, b: np.ndarray):
    """tr(a b a^-1 b^-1) for (batches of) unitary 2x2 matrices."""
    return real_trace(a @ b @ dagger(a) @ dagger(b))


# ---------------------------------------------------------------------------
# Representation blocks and gaps
# ---------------------------------------------------------------------------


def reference_block(alpha: complex, beta: complex, n: int) -> np.ndarray:
    """The level-n block of g = (alpha, beta), computed as exp of its Lie algebra.

    Basis sqrt(C(n, k)) x^(n-k) y^k, with g acting by x -> alpha x - conj(beta) y,
    y -> beta x + conj(alpha) y. For log g = [[p, q], [-conj(q), conj(p)]] the
    image of log g is tridiagonal:

        D[k, k] = (n - 2k) p,  D[k+1, k] = -conj(q) sqrt((n-k)(k+1)),
        D[k, k+1] = q sqrt((k+1)(n-k)),

    and the block is exp(D), taken through eigh(-iD). The element is replaced
    by -g, with the sign (-1)^n, when that keeps its rotation angle at most
    pi/2, so the logarithm stays well conditioned.
    """
    if n == 0:
        return np.ones((1, 1), dtype=complex)
    alpha, beta = complex(alpha), complex(beta)
    sign = 1.0
    if alpha.real < 0.0:
        alpha, beta, sign = -alpha, -beta, (-1.0) ** n
    sin_t = math.hypot(alpha.imag, abs(beta))
    theta = math.atan2(sin_t, alpha.real)
    scale = theta / sin_t if sin_t > 0.0 else 1.0
    k = np.arange(n + 1)
    off = np.sqrt((n - k[:-1]) * (k[:-1] + 1.0))
    herm = np.diag((n - 2.0 * k) * alpha.imag * scale).astype(complex)
    herm += np.diag(-1j * beta * scale * off, 1)
    herm += np.diag(1j * np.conj(beta) * scale * off, -1)
    w, v = np.linalg.eigh(herm)
    return sign * (v * np.exp(1j * w)) @ v.conj().T


def reference_gaps(a: tuple[complex, complex], b: tuple[complex, complex], n_max: int) -> np.ndarray:
    """1 - lambda_max of (pi(a) + pi(a)* + pi(b) + pi(b)*) / 4 for n = 1..n_max."""
    gaps = np.empty(n_max)
    for n in range(1, n_max + 1):
        pa = reference_block(*a, n)
        pb = reference_block(*b, n)
        op = (pa + pa.conj().T + pb + pb.conj().T) / 4.0
        gaps[n - 1] = 1.0 - np.linalg.eigvalsh(op)[-1]
    return gaps


def commuting_gaps(theta: float, psi: float, n_max: int) -> np.ndarray:
    """Gaps of a pair conjugate to (diag(e^{i theta}, .), diag(e^{i psi}, .)).

    On level n both act diagonally with weights e^{i(n-2j)angle}, so
    gap_n = 1 - max_j (cos((n-2j) theta) + cos((n-2j) psi)) / 2.
    """
    gaps = np.empty(n_max)
    for n in range(1, n_max + 1):
        m = n - 2.0 * np.arange(n + 1)
        gaps[n - 1] = 1.0 - np.max((np.cos(m * theta) + np.cos(m * psi)) / 2.0)
    return gaps


# ---------------------------------------------------------------------------
# The Haar pushforward onto D = {(x, t) in [-2, 2]^2 : x^2 - 2 <= t}
#
# Its density is 1 / (2 pi sqrt(4 - x^2)) on D. With x = 2 sin(u) the weight
# dx / sqrt(4 - x^2) becomes du, so every integral below is one in u.
# ---------------------------------------------------------------------------


def _u(x: float) -> float:
    return math.asin(max(-1.0, min(1.0, x / 2.0)))


def cell_probability(x0: float, x1: float, t0: float, t1: float) -> float:
    """Pushforward mass of [x0, x1] x [t0, t1], with t1 <= 2.

    At abscissa x the cell meets D in t from max(t0, x^2 - 2) to t1. The
    length is piecewise t1 - t0, t1 + 2 - x^2 or 0, split at x = 0 and where
    x^2 = t0 + 2 and x^2 = t1 + 2; in u the middle piece integrates to
    t1 u + sin(2u).
    """
    cuts = {x0, x1} | ({0.0} if x0 < 0.0 < x1 else set())
    for level in (t0, t1):
        if level > -2.0:
            r = math.sqrt(level + 2.0)
            cuts.update(c for c in (-r, r) if x0 < c < x1)
    edges = sorted(cuts)
    total = 0.0
    for lo, hi in zip(edges, edges[1:]):
        mid = 0.5 * (lo + hi)
        floor = mid * mid - 2.0
        ulo, uhi = _u(lo), _u(hi)
        if floor <= t0:
            total += (t1 - t0) * (uhi - ulo)
        elif floor < t1:
            total += (t1 * uhi + math.sin(2.0 * uhi)) - (t1 * ulo + math.sin(2.0 * ulo))
    return total / (2.0 * math.pi)


def cell_probabilities(bins: int) -> np.ndarray:
    """(bins, bins) cell masses on the uniform grid over [-2, 2]^2, indexed [x, t]."""
    edges = np.linspace(-2.0, 2.0, bins + 1)
    out = np.empty((bins, bins))
    for i in range(bins):
        for j in range(bins):
            out[i, j] = cell_probability(edges[i], edges[i + 1], edges[j], edges[j + 1])
    return out


def _bisect_increasing(f, target: float, lo: float, hi: float) -> float:
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def band_mass(delta: float) -> float:
    """Pushforward mass within delta of the boundary of D, for 0 < delta < 1/2.

    The boundary is the arc t = x^2 - 2 with the edges |x| = 2 and t = 2.
    Points of D farther than delta from all three lie above the inner
    parallel curve of the arc,

        X(u) = u - 2 u delta / sqrt(1 + 4u^2),  T(u) = u^2 - 2 + delta / sqrt(1 + 4u^2),

    with |x| < 2 - delta and t < 2 - delta. The curve is a graph over x for
    delta < 1/2, the smallest radius of curvature of the arc, so the
    complement has mass (1/2pi) int (2 - delta - T(u)) X'(u) / sqrt(4 - X(u)^2) du
    over the u where both limits hold, and the band has the rest.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError("band_mass needs 0 < delta < 1/2")

    def big_x(u):
        return u - 2.0 * u * delta / np.sqrt(1.0 + 4.0 * u * u)

    def big_t(u):
        return u * u - 2.0 + delta / np.sqrt(1.0 + 4.0 * u * u)

    top = 2.0 - delta
    limit = min(_bisect_increasing(big_x, top, 0.0, 2.0), _bisect_increasing(big_t, top, 0.0, 2.0))
    nodes, weights = np.polynomial.legendre.leggauss(200)
    u = 0.5 * limit * (nodes + 1.0)
    dx = 1.0 - 2.0 * delta * (1.0 + 4.0 * u * u) ** -1.5
    integrand = (top - big_t(u)) * dx / np.sqrt(4.0 - big_x(u) ** 2)
    inner = 2.0 * 0.5 * limit * float(weights @ integrand) / (2.0 * math.pi)
    return 1.0 - inner


def arc_distance(x, t) -> np.ndarray:
    """Distance from points to the arc {(u, u^2 - 2) : |u| <= 2}.

    The stationary points of the squared distance are the roots of
    u^3 - (3 + 2t)/2 u - x/2, found here as eigenvalues of the companion
    matrix; the real part of every root and both arc ends are candidates.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    t = np.broadcast_to(np.asarray(t, dtype=float), x.shape)
    comp = np.zeros(x.shape + (3, 3))
    comp[..., 1, 0] = 1.0
    comp[..., 2, 1] = 1.0
    comp[..., 0, 2] = x / 2.0
    comp[..., 1, 2] = (3.0 + 2.0 * t) / 2.0
    roots = np.clip(np.linalg.eigvals(comp).real, -2.0, 2.0)
    cands = np.concatenate([roots, np.full(x.shape + (2,), [-2.0, 2.0])], axis=-1)
    d_sq = (cands - x[..., None]) ** 2 + (cands * cands - 2.0 - t[..., None]) ** 2
    return np.sqrt(d_sq.min(axis=-1))

