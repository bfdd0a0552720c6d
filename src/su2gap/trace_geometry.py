"""Trace coordinates for pairs: the plane domain D, the solid region Omega,
the quadratic trace identities, and the explicit inverse constructions.

Coordinates used throughout:

    x = tr(a),  y = tr(b),  z = tr(ab),  t = tr([a, b])

The realizable loci are

    D     = {(x, t) in [-2, 2]^2 : x^2 - 2 <= t}
    Omega = {(x, y, z) in [-2, 2]^3 : x^2 + y^2 + z^2 - x*y*z - 4 <= 0}

and the two are linked by t = x^2 + y^2 + z^2 - x*y*z - 2.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError
from .su2_core import (
    IDENTITY,
    Pair,
    SU2Element,
    commutator,
    multiply,
    pair_from_matrix_spec,
    trace,
)

MEMBERSHIP_TOL = 1e-12
CONSTRUCTION_TOL = 1e-10


class FrickeCoord(NamedTuple):
    """A point (x, t) = (tr(a), tr([a, b])) in the domain D."""

    x: float
    t: float


class TraceTriple(NamedTuple):
    """A point (x, y, z) = (tr(a), tr(b), tr(ab)) in the region Omega."""

    x: float
    y: float
    z: float


def in_domain_D(x: float, t: float, tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership in D with one-sided boundary tolerance."""
    return (
        abs(x) <= 2.0 + tol
        and abs(t) <= 2.0 + tol
        and x * x - 2.0 <= t + tol
    )


def in_omega(x: float, y: float, z: float, tol: float = MEMBERSHIP_TOL) -> bool:
    """Membership in Omega with one-sided boundary tolerance."""
    return (
        abs(x) <= 2.0 + tol
        and abs(y) <= 2.0 + tol
        and abs(z) <= 2.0 + tol
        and x * x + y * y + z * z - x * y * z - 4.0 <= tol
    )


def pi_map(pair: Pair) -> FrickeCoord:
    """Project a pair to (tr(a), tr([a, b])); the image is always in D."""
    return FrickeCoord(trace(pair.a), trace(commutator(pair.a, pair.b)))


def trace_of_square(x):
    """tr(a^2) = x^2 - 2 where x = tr(a).  Accepts scalars or arrays."""
    return x * x - 2.0


def commutator_trace_of_square(x, t):
    """tr([a^2, b]) = x^2 (t - 2) + 2.  Accepts scalars or arrays."""
    return x * x * (t - 2.0) + 2.0


def phi(coord) -> FrickeCoord:
    """The plane map (x, t) -> (x^2 - 2, x^2 (t - 2) + 2) induced on D
    by squaring the first generator."""
    x, t = coord
    return FrickeCoord(trace_of_square(x), commutator_trace_of_square(x, t))


def fricke_commutator_trace(x, y, z):
    """tr([a, b]) = x^2 + y^2 + z^2 - x*y*z - 2 from the traces of a, b, ab.

    Accepts scalars or arrays.
    """
    return x * x + y * y + z * z - x * y * z - 2.0


def construct_pair_from_fricke(x: float, t: float) -> Pair:
    """Explicit pair with tr(a) = x and tr([a, b]) = t, for (x, t) in D.

    With x = 2 cos(angle), angle in [0, pi], and s = (2 - t) / (4 - x^2):

        a = diag(e^{i angle}, e^{-i angle})
        b = [[sqrt(1-s), -sqrt(s)], [sqrt(s), sqrt(1-s)]]

    At |x| = 2 the domain forces t = 2 and the pair is (+-I, I).

    Raises DomainError when (x, t) lies outside D beyond tolerance.
    """
    x = float(x)
    t = float(t)
    if not in_domain_D(x, t):
        raise DomainError(f"(x, t) = ({x!r}, {t!r}) is not in D: requires x^2 - 2 <= t")
    if abs(x) >= 2.0 - 1e-15:
        sign = 1.0 if x > 0 else -1.0
        return Pair(SU2Element(sign + 0.0j, 0.0j), IDENTITY)
    angle = math.acos(min(1.0, max(-1.0, x / 2.0)))
    s = (2.0 - t) / (4.0 - x * x)
    s = min(1.0, max(0.0, s))
    a = SU2Element(complex(math.cos(angle), math.sin(angle)), 0.0j)
    b = SU2Element(complex(math.sqrt(1.0 - s), 0.0), complex(-math.sqrt(s), 0.0))
    return Pair(a, b)


def construct_pair_from_traces(x: float, y: float, z: float) -> Pair:
    """Explicit pair with traces (tr(a), tr(b), tr(ab)) = (x, y, z) in Omega.

    Puts a = diag(e^{i angle}, e^{-i angle}) with x = 2 cos(angle) and solves
    the two linear conditions on the (1, 1) entry p of b:

        Re(p) = y / 2
        cos(angle) Re(p) - sin(angle) Im(p) = z / 2

    then completes b with the real nonnegative off-diagonal sqrt(1 - |p|^2);
    |p| <= 1 is exactly the Omega inequality.

    The degenerate case |x| = 2 (a = +-I) requires z = sign(x) * y and
    returns b as the real rotation with trace y.

    Raises DomainError when (x, y, z) lies outside Omega beyond tolerance.
    """
    x, y, z = float(x), float(y), float(z)
    if not in_omega(x, y, z):
        raise DomainError(
            f"(x, y, z) = ({x!r}, {y!r}, {z!r}) is not in Omega: "
            "requires x^2 + y^2 + z^2 - x*y*z - 4 <= 0"
        )
    if abs(x) >= 2.0 - 1e-15:
        sign = 1.0 if x > 0 else -1.0
        if abs(z - sign * y) > CONSTRUCTION_TOL:
            raise DomainError(
                f"with a = {'+' if sign > 0 else '-'}I the trace of ab is forced "
                f"to {sign * y!r}, but z = {z!r} was requested"
            )
        half = min(1.0, max(-1.0, y / 2.0))
        a = SU2Element(sign + 0.0j, 0.0j)
        b = SU2Element(complex(half, 0.0), complex(-math.sqrt(1.0 - half * half), 0.0))
        return Pair(a, b)
    angle = math.acos(min(1.0, max(-1.0, x / 2.0)))
    sin_a = math.sin(angle)
    re_p = y / 2.0
    im_p = (math.cos(angle) * re_p - z / 2.0) / sin_a
    p = complex(re_p, im_p)
    q_sq = 1.0 - abs(p) ** 2
    if q_sq < -1e-9:
        raise DomainError(
            f"no unitary completion for (x, y, z) = ({x!r}, {y!r}, {z!r})"
        )
    q = math.sqrt(max(0.0, q_sq))
    a = SU2Element(complex(math.cos(angle), sin_a), 0.0j)
    b = SU2Element(p, complex(q, 0.0))
    return Pair(a, b)


def pair_from_spec(spec: dict) -> Pair:
    """Decode any of the three pair-spec record forms into a Pair.

    Supported types: "matrix" (raw components), "fricke" (keys x, t), and
    "traces" (keys x, y, z).
    """
    kind = spec.get("type")
    if kind == "matrix":
        return pair_from_matrix_spec(spec)
    if kind == "fricke":
        return construct_pair_from_fricke(float(spec["x"]), float(spec["t"]))
    if kind == "traces":
        return construct_pair_from_traces(
            float(spec["x"]), float(spec["y"]), float(spec["z"])
        )
    raise ValueError(f"unknown pair-spec type {kind!r}")


def trace_triple(pair: Pair) -> TraceTriple:
    """(tr(a), tr(b), tr(ab)) for a pair."""
    return TraceTriple(
        trace(pair.a), trace(pair.b), trace(multiply(pair.a, pair.b))
    )
