"""Monte Carlo checks of the measure-level claims in trace coordinates.

Provides the empirical pushforward of Haar measure under the projection to
(tr(a), tr([a, b])), the mass near the boundary of the domain D, exact
sampling of Haar measure conditioned on a commutator-trace fiber, and the
transport of a fiber under squaring the first generator.

Every sampler works on flat arrays of quaternion components (w, x, y, z),
one numpy pass per block of Haar pairs or per fiber, so no per-sample Python
code runs.  Products go through su2_core.quaternion_product and every
commutator trace is the closed form su2_core.commutator_trace.  Haar pairs
are drawn into two reused buffers by a worker thread, joined before each call returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .su2_core import (
    _ROW_BLOCK,
    _normalize_rows,
    _unit_pairs,
    commutator_trace,
    haar_quaternions,
    quaternion_product,
)

_SLICE = 1 << 13  # pairs per per_block call: it bounds the temporaries


def _haar_fricke_sum(rng: np.random.Generator, count: int, per_block):
    """Sum of per_block(x, t) over the (x, t) arrays of `count` Haar pairs,
    _SLICE pairs at a time, from blocks of at most su2_core._ROW_BLOCK pairs.

    A block of n pairs is one draw rng.standard_normal(out=...) of 2 n rows
    into one of two buffers made once per call, normalized there in place
    by su2_core._normalize_rows: a is its first n rows, b its last n, and x
    and t come from views of them.  One worker thread draws every block, the
    first included, one block ahead into the other buffer; the draw releases
    the GIL, so per_block runs beside it, and future.result() raises a draw's
    exception here.  A call reads exactly the first 2 * count rows of rng's
    stream (a row of norm < 1e-12 is redrawn from a child generator) and
    joins the worker before it returns or raises.
    """
    from concurrent.futures import ThreadPoolExecutor  # loaded only by calls that draw pairs

    def draw(start):
        out = buffers[start // _ROW_BLOCK % 2, : 2 * min(_ROW_BLOCK, count - start)]
        return pool.submit(rng.standard_normal, out=out) if start < count else None

    total, buffers = 0, np.empty((2, 2 * min(count, _ROW_BLOCK), 4))
    with ThreadPoolExecutor(1) as pool:
        ahead = draw(0)
        for start in range(0, count, _ROW_BLOCK):
            q, ahead = ahead.result(), draw(start + _ROW_BLOCK)
            a, b = np.split(_normalize_rows(rng, q), 2)
            for s in range(0, len(a), _SLICE):
                u, v = a[s : s + _SLICE].T, b[s : s + _SLICE].T
                total += per_block(2.0 * u[0], commutator_trace(u[1:], v[1:]))
    return total


@dataclass(frozen=True, eq=False)
class Histogram2D:
    """Binned counts of (x, t) samples over [-2, 2]^2."""

    counts: np.ndarray
    bins_per_axis: int
    total: int
    seed: int

    def __post_init__(self):
        if int(self.counts.sum()) != self.total:
            raise ValueError("histogram counts do not sum to the sample total")

    @property
    def x_edges(self) -> np.ndarray:
        return np.linspace(-2.0, 2.0, self.bins_per_axis + 1)

    @property
    def t_edges(self) -> np.ndarray:
        return np.linspace(-2.0, 2.0, self.bins_per_axis + 1)


def _cell_index(values, bins: int) -> np.ndarray:
    """The cell of each value, clipped to [-2, 2], among the cells of
    np.histogram over linspace(-2, 2, bins + 1): an index from one multiply,
    corrected against those edges, replaces the binary search."""
    edges = np.linspace(-2.0, 2.0, bins + 1)
    v = np.clip(values, -2.0, 2.0)
    index = ((v + 2.0) * (bins / 4.0)).astype(np.intp)
    np.minimum(index, bins - 1, out=index)
    index -= v < edges[index]
    index += v >= edges[index + 1]
    return np.minimum(index, bins - 1, out=index)  # v = 2 closes the last cell


def _cell_counts(xs, ts, bins: int) -> np.ndarray:
    """Counts of the points (x, t) in the cells of np.histogram2d over [-2, 2]^2."""
    cells = _cell_index(xs, bins) * bins + _cell_index(ts, bins)
    return np.bincount(cells, minlength=bins * bins).reshape(bins, bins)


def pushforward_histogram(sample_count: int, bins: int, seed: int) -> Histogram2D:
    """Empirical pushforward of Haar measure to the (x, t) plane.

    Draws `sample_count` Haar pairs, projects each to (tr(a), tr([a, b])) and
    bins the results on a bins x bins grid over [-2, 2]^2.  Floating-point
    drift of order 1e-16 past the square is clipped before binning so every
    sample lands in a cell.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if bins < 2:
        raise ValueError("bins must be at least 2")
    rng = np.random.default_rng(seed)
    counts = _haar_fricke_sum(rng, sample_count, lambda xs, ts: _cell_counts(xs, ts, bins))
    return Histogram2D(
        counts=counts,
        bins_per_axis=bins,
        total=sample_count,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Distance to the boundary of D
# ---------------------------------------------------------------------------


def _parabola_segment_distance(x, t):
    """Euclidean distance from points (x, t) to {(u, u^2 - 2) : |u| <= 2}.

    The arc is symmetric, so x is replaced by |x|.  Stationary points of the
    squared distance solve the depressed cubic u^3 + p u + q = 0 with
    p = -(3 + 2 t) / 2 and q = -|x| / 2 <= 0, so by Vieta's formulas every
    real root but the largest is <= 0.  On [0, inf) the squared distance
    falls until the largest root and rises after it, and no u < 0 is nearer
    than -u; the nearest arc point is that root clipped to [0, 2].
    """
    x = np.abs(np.asarray(x, dtype=float))
    t = np.asarray(t, dtype=float)
    p = -(3.0 + 2.0 * t) / 2.0
    q = -x / 2.0
    s = q * q / 4.0 + p**3 / 27.0
    one_root = s >= 0.0

    # Cardano where s >= 0; the trigonometric k = 0 root where s < 0, which forces p < 0
    root_s = np.sqrt(np.maximum(s, 0.0))
    u_card = np.cbrt(-q / 2.0 + root_s) + np.cbrt(-q / 2.0 - root_s)
    p_safe = np.where(one_root, -1.0, p)
    m = 2.0 * np.sqrt(-p_safe / 3.0)
    u_trig = m * np.cos(np.arccos(np.clip(3.0 * q / (p_safe * m), -1.0, 1.0)) / 3.0)
    u = np.clip(np.where(one_root, u_card, u_trig), 0.0, 2.0)
    return np.sqrt((u - x) ** 2 + (u * u - 2.0 - t) ** 2)


def boundary_distance(x, t):
    """Distance from (x, t) to the boundary set of D.

    The boundary is the parabola arc {t = x^2 - 2} together with the edges
    {|x| = 2} and {t = +-2} of the ambient square.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    edge = np.minimum(2.0 - np.abs(x), 2.0 - np.abs(t))
    return np.minimum(_parabola_segment_distance(x, t), edge)


def _count_near(xs, ts, delta: float) -> int:
    """Number of points (x, t) with boundary_distance <= delta; see
    boundary_mass for the prefilter.  Its temporaries die on return, before
    the next block is drawn."""
    gap = np.abs(ts - (xs * xs - 2.0))
    slope = 2.0 * np.minimum(2.0, np.abs(xs) + gap)
    keep = gap <= (delta * (1.0 + 1e-9) + 1e-12) * np.sqrt(1.0 + slope * slope)
    keep |= np.minimum(2.0 - np.abs(xs), 2.0 - np.abs(ts)) <= delta
    near = np.flatnonzero(keep)
    return int(np.count_nonzero(boundary_distance(xs[near], ts[near]) <= delta))


def boundary_mass(sample_count: int, delta: float, seed: int) -> float:
    """Fraction of Haar pushforward samples within delta of the boundary of D.

    The count is that of boundary_distance(xs, ts) <= delta over all samples,
    but the distance runs only on the points a conservative bound cannot
    exclude.  With the vertical gap g = |t - (x^2 - 2)|, the arc point
    (x, x^2 - 2) is g away, so for |x| <= 2 the nearest arc point (u, u^2 - 2)
    has |u - x| <= g, and the arc's slope between x and u is at most
    L = 2 min(2, |x| + g).  Then g <= |t - (u^2 - 2)| + L |u - x|, and by
    Cauchy-Schwarz the arc distance is at least g / sqrt(1 + L^2).  A point
    is kept when g <= (delta (1 + 1e-9) + 1e-12) sqrt(1 + L^2) or its edge
    distance min(2 - |x|, 2 - |t|) (the same floats as boundary_distance)
    is <= delta; points with |x| > 2 always pass the edge test.  The fixed
    margins, 1e-9 relative and 1e-12 absolute, are far wider than the
    rounding of g, L and the computed distance (about 1e-15 absolute), so no
    point whose computed distance is <= delta is dropped, and as
    boundary_distance works point by point, the count is exact.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    rng = np.random.default_rng(seed)
    hits = _haar_fricke_sum(rng, sample_count, lambda xs, ts: _count_near(xs, ts, delta))
    return hits / sample_count


# ---------------------------------------------------------------------------
# Fiber sampling and transport
# ---------------------------------------------------------------------------


def _fiber_components(t: float, count: int, seed: int):
    """Quaternion components ((w, x, y, z) of a, (w, x, y, z) of b), as arrays,
    of `count` pairs drawn from Haar measure given tr[a, b] = t, in the frame
    where a = (sin angle, cos angle, 0, 0), and the generator of the
    conjugators; see sample_fiber for the law and its random streams."""
    t = float(t)
    if not -2.0 <= t <= 2.0:
        raise ValueError(f"t = {t!r} must lie in [-2, 2]")
    if count < 1:
        raise ValueError("count must be at least 1")
    rng_frame, rng_conj = [np.random.default_rng(s) for s in np.random.SeedSequence(seed).spawn(2)]
    u = rng_frame.random((3, count))
    angle = np.arccos(np.sqrt(2.0 - t) / 2.0) * (2.0 * u[0] - 1.0)
    psi = 2.0 * np.pi * u[1:]
    cos = np.cos(angle)
    zero = np.zeros(count)
    a = (np.sin(angle), cos, zero, zero)
    r = np.minimum(1.0, (2.0 - t) / (4.0 * cos * cos))
    along, across = np.sqrt(1.0 - r), np.sqrt(r)
    del u, angle, r  # before b's four arrays are made
    b = (along * np.cos(psi[0]), along * np.sin(psi[0]), across * np.cos(psi[1]), across * np.sin(psi[1]))
    return (a, b), rng_conj


def sample_fiber(t: float, count: int, seed: int) -> np.ndarray:
    """Pairs drawn from Haar measure conditioned on tr([a, b]) = t, as a
    (count, 8) array: row i is (w, x, y, z) of a, then of b, of pair i.

    Conjugate a Haar pair so that a = cos(theta) + sin(theta) i, and let r be
    the squared norm of the part of Im b across i.  Under Haar measure theta
    has density (2/pi) sin^2(theta) on [0, pi], r is uniform on [0, 1] and
    independent of theta, and both phases of b are uniform; t = 2 - 4
    sin^2(theta) r.  Given t, theta is therefore uniform on
    [theta0, pi - theta0] with sin^2(theta0) = (2 - t)/4, and
    r = (2 - t)/(4 sin^2(theta)).  The draw centres theta at pi/2: with
    angle = pi/2 - theta uniform on [-h, h], h = arccos(sqrt(2 - t)/2),

        a = (sin angle, cos angle, 0, 0),
        b = (sqrt(1-r) cos psi1, sqrt(1-r) sin psi1, sqrt(r) cos psi2, sqrt(r) sin psi2),

    with psi1, psi2 uniform phases, and each pair is then conjugated by an
    independent Haar element.  cos(angle) > 0, so r needs no guard but the
    clip to 1; at t = -2, h = 0 and a = i exactly, and at t = 2, r = 0 and
    every pair commutes exactly.

    The seed is split by SeedSequence.spawn(2): the first stream gives one
    rng.random((3, count)) draw of (angle, psi1, psi2), the second the
    Haar conjugators.  An element off unit norm raises SU2Element's ValueError.
    """
    (a, b), rng_conj = _fiber_components(t, count, seed)
    k = haar_quaternions(rng_conj, count).T
    pairs = np.empty((count, 8))
    # the columns (w, x, y, z) of k a k^-1, then of k b k^-1, _ROW_BLOCK rows at a time
    for start in range(0, count, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        w, x, y, z = k[:, rows]
        for j, g in enumerate((a, b)):
            kgk = quaternion_product(quaternion_product((w, x, y, z), [c[rows] for c in g]), (w, -x, -y, -z))
            np.stack(kgk, axis=1, out=pairs[rows, 4 * j : 4 * j + 4])
    return _unit_pairs(pairs)


@dataclass(frozen=True, eq=False)
class TransportHistogram:
    """Commutator traces of fiber samples after squaring the first generator."""

    source_t: float
    values: np.ndarray
    counts: np.ndarray
    bins: int
    total: int
    seed: int


def fiber_transport_demo(
    t: float, count: int, seed: int, bins: int = 40
) -> TransportHistogram:
    """Histogram of tr([a^2, b]) over samples of the fiber at t.

    The pairs are those of sample_fiber, so tr([a^2, b]) = 2 - x^2 (2 - t)
    with x = tr(a) = 2 sin(angle), angle uniform on [-h, h]: the values
    lie in [t^2 - 2, 2] and have the distribution function
    F(v) = 1 - arcsin(sqrt((2 - v) / (4 (2 - t)))) / h there (t < 2).
    """
    if bins < 2:
        raise ValueError("bins must be at least 2")
    # tr([a^2, b]) is unchanged by simultaneous conjugation, so the pairs
    # are not conjugated
    (a, b), _ = _fiber_components(t, count, seed)
    values = commutator_trace(quaternion_product(a, a)[1:], b[1:])
    return TransportHistogram(
        source_t=float(t),
        values=values,
        counts=np.bincount(_cell_index(values, bins), minlength=bins),
        bins=bins,
        total=count,
        seed=seed,
    )
