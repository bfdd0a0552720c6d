"""Trace coordinates for pairs: the plane domain D, the solid region Omega,
the quadratic trace identities, one pair built from one point, and the
codec of pair-spec records, whose fricke and traces forms are such points.

Coordinates used throughout:

    x = tr(a),  y = tr(b),  z = tr(ab),  t = tr([a, b])

The realizable loci are

    D     = {(x, t) in [-2, 2]^2 : x^2 - 2 <= t}
    Omega = {(x, y, z) in [-2, 2]^3 : x^2 + y^2 + z^2 - x*y*z - 4 <= 0}

and the two are linked by t = x^2 + y^2 + z^2 - x*y*z - 2.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .su2_core import IDENTITY, Pair, SU2Element, commutator_trace, multiply, trace

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


def in_omega(x, y, z, tol: float = MEMBERSHIP_TOL):
    """Membership in Omega with one-sided boundary tolerance.  Accepts
    scalars or arrays."""
    return (
        (abs(x) <= 2.0 + tol)
        & (abs(y) <= 2.0 + tol)
        & (abs(z) <= 2.0 + tol)
        & (x * x + y * y + z * z - x * y * z - 4.0 <= tol)
    )


def pi_map(pair: Pair) -> FrickeCoord:
    """Project a pair to (tr(a), tr([a, b])); the image is always in D."""
    a, b = pair
    return FrickeCoord(trace(a), commutator_trace(a.quaternion[1:], b.quaternion[1:]))


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


def _finite(*coords) -> list[float]:
    """The coordinates as floats; a NaN or infinity raises ValueError."""
    values = [float(c) for c in coords]
    if not all(map(math.isfinite, values)):
        raise ValueError(f"coordinates must be finite, got {tuple(values)!r}")
    return values


def construct_pair_from_fricke(x: float, t: float) -> Pair:
    """Explicit pair with tr(a) = x and tr([a, b]) = t, for (x, t) in D.

    With x = 2 cos(angle), angle in [0, pi], and s = (2 - t) / (4 - x^2):

        a = diag(e^{i angle}, e^{-i angle})
        b = [[sqrt(1-s), -sqrt(s)], [sqrt(s), sqrt(1-s)]]

    At |x| = 2 the domain forces t = 2 and the pair is (+-I, I).

    Raises DomainError when (x, t) lies outside D beyond tolerance, and
    ValueError for a NaN or infinite coordinate.
    """
    x, t = _finite(x, t)
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
    |p| <= 1 is exactly the Omega inequality.  cos(angle) is taken as x / 2
    itself, so tr(a) = x and tr(b) = y hold exactly.

    At |x| = 2 the pair is a = +-I, which forces z = sign(x) * y, and b is
    the real rotation with trace y.  A zero component is +0.0, never -0.0.

    Raises DomainError outside Omega beyond tolerance, for a z off sign(x) * y
    at |x| = 2, or for |p| > 1 beyond rounding; ValueError for a NaN or infinity.
    """
    x, y, z = _finite(x, y, z)
    if not in_omega(x, y, z):
        raise DomainError(
            f"(x, y, z) = ({x!r}, {y!r}, {z!r}) is not in Omega: "
            "requires x^2 + y^2 + z^2 - x*y*z - 4 <= 0"
        )
    if abs(x) >= 2.0 - 1e-15:
        sign = 1.0 if x > 0 else -1.0
        if abs(z - sign * y) > CONSTRUCTION_TOL:
            raise DomainError(
                f"with a = {'+' if x > 0 else '-'}I the trace of ab is forced "
                f"to {sign * y!r}, but z = {z!r} was requested"
            )
        half = min(1.0, max(-1.0, y / 2.0))
        alpha_a, alpha_b, beta_b = complex(sign), complex(half), -math.sqrt(1.0 - half * half)
    else:
        cos_a = x / 2.0
        sin_a = math.sqrt((1.0 - cos_a) * (1.0 + cos_a))
        re_p = y / 2.0
        im_p = (cos_a * re_p - z / 2.0) / sin_a
        h = float(np.hypot(re_p, im_p))  # not math.hypot, which rounds differently
        q_sq = 1.0 - h * h
        if q_sq < -1e-9:
            raise DomainError(f"no unitary completion for (x, y, z) = ({x!r}, {y!r}, {z!r})")
        alpha_a, alpha_b, beta_b = complex(cos_a, sin_a), complex(re_p, im_p), math.sqrt(max(0.0, q_sq))
    # adding zero turns -0.0 into 0.0, so a zero component prints as 0
    return Pair(SU2Element(alpha_a + 0j, 0j), SU2Element(alpha_b + 0j, beta_b + 0.0))


def pair_to_spec(pair: Pair) -> dict:
    """The matrix pair-spec record, each element as [re(alpha), im(alpha), re(beta), im(beta)]."""
    return {"type": "matrix", "a": list(pair.a.quaternion), "b": list(pair.b.quaternion)}


def _spec_value(spec: dict, key: str, element: bool = False):
    """spec[key] as a float, or if `element` as the SU2Element of its list of 4
    components; only real numbers pass, so a bool or a string of digits does not."""
    if key not in spec:
        raise ValueError(f"{spec['type']} pair-spec has no key {key!r}")
    value = spec[key]
    items = value if element else [value]
    if not isinstance(items, list) or not all(isinstance(v, Real) and not isinstance(v, bool) for v in items):
        raise ValueError(f"{spec['type']} pair-spec {key!r} has a value of the wrong type: {value!r}")
    if element and len(items) != 4:
        raise ValueError("matrix pair-spec entries need 4 components")
    values = [float(v) for v in items]
    return SU2Element(complex(*values[:2]), complex(*values[2:])) if element else values[0]


def pair_from_spec(spec: dict) -> Pair:
    """Decode a pair-spec record: "matrix" (keys a, b, as pair_to_spec writes
    them), "fricke" (keys x, t) or "traces" (keys x, y, z).

    A malformed record raises ValueError naming the missing key or the value
    of the wrong type; a point outside D or Omega raises DomainError.
    """
    kind = spec.get("type")
    if kind == "matrix":
        return Pair(_spec_value(spec, "a", element=True), _spec_value(spec, "b", element=True))
    if kind == "fricke":
        return construct_pair_from_fricke(*(_spec_value(spec, key) for key in "xt"))
    if kind == "traces":
        return construct_pair_from_traces(*(_spec_value(spec, key) for key in "xyz"))
    raise ValueError(f"unknown pair-spec type {kind!r}")


def trace_triple(pair: Pair) -> TraceTriple:
    """(tr(a), tr(b), tr(ab)) for a pair."""
    return TraceTriple(
        trace(pair.a), trace(pair.b), trace(multiply(pair.a, pair.b))
    )
