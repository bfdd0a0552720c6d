"""SU(2) group arithmetic, Haar sampling, and free-group word evaluation.

Elements are stored as the complex pair (alpha, beta) of the matrix

    [[alpha, beta], [-conj(beta), conj(alpha)]],      |alpha|^2 + |beta|^2 = 1,

so products, inverses and traces are exact scalar arithmetic on two complex
numbers.  Long products are renormalized every ``RENORM_EVERY`` multiplications
to keep the unit-norm invariant below 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

import numpy as np

APPROX_TOL = 1e-10
RENORM_EVERY = 32


@dataclass(frozen=True)
class SU2Element:
    """One special unitary 2x2 matrix, parametrized by its first row."""

    alpha: complex
    beta: complex
    _ops: int = field(default=0, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        object.__setattr__(self, "beta", complex(self.beta))
        norm_sq = abs(self.alpha) ** 2 + abs(self.beta) ** 2
        if not (math.isfinite(norm_sq) and abs(norm_sq - 1.0) <= 1e-9):
            raise ValueError(
                f"not special unitary: |alpha|^2 + |beta|^2 = {norm_sq!r}; "
                "use SU2Element.from_quaternion to normalize arbitrary input"
            )

    @classmethod
    def identity(cls) -> "SU2Element":
        return cls(1.0 + 0.0j, 0.0 + 0.0j)

    @classmethod
    def from_quaternion(cls, w: float, x: float, y: float, z: float) -> "SU2Element":
        """Element for the quaternion w + xi + yj + zk, normalized to unit norm."""
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        if norm < 1e-12:
            raise ValueError("quaternion too close to zero to normalize")
        return cls(complex(w / norm, x / norm), complex(y / norm, z / norm))

    @property
    def matrix(self) -> np.ndarray:
        """The 2x2 complex matrix [[alpha, beta], [-conj(beta), conj(alpha)]]."""
        return np.array(
            [
                [self.alpha, self.beta],
                [-self.beta.conjugate(), self.alpha.conjugate()],
            ]
        )

    def isclose(self, other: "SU2Element", tol: float = APPROX_TOL) -> bool:
        """Componentwise comparison within tolerance (all products are floats)."""
        return (
            abs(self.alpha - other.alpha) <= tol
            and abs(self.beta - other.beta) <= tol
        )

    def __mul__(self, other: "SU2Element") -> "SU2Element":
        return multiply(self, other)


IDENTITY = SU2Element.identity()


class Pair(NamedTuple):
    """An ordered pair of SU(2) elements."""

    a: SU2Element
    b: SU2Element


def multiply(g: SU2Element, h: SU2Element) -> SU2Element:
    """Matrix product g*h, with periodic renormalization against drift."""
    alpha = g.alpha * h.alpha - g.beta * h.beta.conjugate()
    beta = g.alpha * h.beta + g.beta * h.alpha.conjugate()
    ops = g._ops + h._ops + 1
    if ops >= RENORM_EVERY:
        norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
        alpha /= norm
        beta /= norm
        ops = 0
    return SU2Element(alpha, beta, ops)


def inverse(g: SU2Element) -> SU2Element:
    """Group inverse; equals the conjugate transpose."""
    return SU2Element(g.alpha.conjugate(), -g.beta, g._ops)


def trace(g: SU2Element) -> float:
    """Real trace 2*Re(alpha), always in [-2, 2]."""
    return 2.0 * g.alpha.real


def commutator(a: SU2Element, b: SU2Element) -> SU2Element:
    """a * b * a^-1 * b^-1."""
    return multiply(multiply(multiply(a, b), inverse(a)), inverse(b))


def conjugate(g: SU2Element, k: SU2Element) -> SU2Element:
    """k * g * k^-1."""
    return multiply(multiply(k, g), inverse(k))


def haar_quaternions(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 4) array of unit quaternions uniform on the 3-sphere.

    Gaussian draw followed by normalization; rows with negligible norm are
    redrawn so the result is always well defined.
    """
    q = rng.standard_normal((count, 4))
    norms = np.linalg.norm(q, axis=1)
    while np.any(norms < 1e-12):
        bad = norms < 1e-12
        q[bad] = rng.standard_normal((int(bad.sum()), 4))
        norms = np.linalg.norm(q, axis=1)
    return q / norms[:, None]


def haar_sample(rng: np.random.Generator) -> SU2Element:
    """One element distributed by normalized Haar measure."""
    w, x, y, z = haar_quaternions(rng, 1)[0]
    return SU2Element(complex(w, x), complex(y, z))


def haar_pair(rng: np.random.Generator) -> Pair:
    """Two independent Haar elements."""
    return Pair(haar_sample(rng), haar_sample(rng))


# ---------------------------------------------------------------------------
# Free-group words on two generators
# ---------------------------------------------------------------------------

# Letter codes: 1 = a, -1 = a^-1, 2 = b, -2 = b^-1.
_CHAR_TO_LETTER = {"a": 1, "A": -1, "b": 2, "B": -2}
_LETTER_TO_CHAR = {1: "a", -1: "A", 2: "b", -2: "B"}


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter sequence by cancelling adjacent inverses."""
    stack: list[int] = []
    for let in letters:
        if let not in _LETTER_TO_CHAR:
            raise ValueError(f"invalid letter code {let!r}")
        if stack and stack[-1] == -let:
            stack.pop()
        else:
            stack.append(let)
    return tuple(stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word in the free group on two generators.

    Strings use lowercase a, b for the generators and uppercase A, B for
    their inverses, e.g. "abAB" is the commutator word.
    """

    letters: tuple[int, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))
        for let in self.letters:
            if let not in _LETTER_TO_CHAR:
                raise ValueError(f"invalid letter code {let!r}")
        for prev, nxt in zip(self.letters, self.letters[1:]):
            if prev == -nxt:
                raise ValueError("word is not freely reduced")

    @classmethod
    def from_string(cls, text: str) -> "Word":
        letters = []
        for ch in text:
            if ch.isspace():
                continue
            if ch not in _CHAR_TO_LETTER:
                raise ValueError(f"invalid word character {ch!r}; expected a, A, b, B")
            letters.append(_CHAR_TO_LETTER[ch])
        return cls(reduce_letters(letters))

    def to_string(self) -> str:
        return "".join(_LETTER_TO_CHAR[let] for let in self.letters)

    def inverse(self) -> "Word":
        return Word(tuple(-let for let in reversed(self.letters)))

    def __mul__(self, other: "Word") -> "Word":
        """Concatenation followed by free reduction."""
        return Word(reduce_letters(self.letters + other.letters))

    def __len__(self) -> int:
        return len(self.letters)


def evaluate_word(word: Word, pair: Pair) -> SU2Element:
    """Substitute the pair into the word and multiply left to right.

    The empty word evaluates to the identity.
    """
    images = {
        1: pair.a,
        -1: inverse(pair.a),
        2: pair.b,
        -2: inverse(pair.b),
    }
    result = IDENTITY
    for let in word.letters:
        result = multiply(result, images[let])
    return result


# ---------------------------------------------------------------------------
# Pair-spec records (matrix form; see trace_geometry.pair_from_spec for the
# fricke and traces forms)
# ---------------------------------------------------------------------------


def pair_to_spec(pair: Pair) -> dict:
    """Structured record {"type": "matrix", "a": [...], "b": [...]}.

    Each element is flattened to [re(alpha), im(alpha), re(beta), im(beta)].
    """

    def comps(g: SU2Element) -> list[float]:
        return [g.alpha.real, g.alpha.imag, g.beta.real, g.beta.imag]

    return {"type": "matrix", "a": comps(pair.a), "b": comps(pair.b)}


def pair_from_matrix_spec(spec: dict) -> Pair:
    """Inverse of pair_to_spec for records with type "matrix"."""
    if spec.get("type") != "matrix":
        raise ValueError(f"expected a matrix pair-spec, got type {spec.get('type')!r}")

    def element(values) -> SU2Element:
        vals = [float(v) for v in values]
        if len(vals) != 4:
            raise ValueError("matrix pair-spec entries need 4 components")
        return SU2Element(complex(vals[0], vals[1]), complex(vals[2], vals[3]))

    return Pair(element(spec["a"]), element(spec["b"]))
