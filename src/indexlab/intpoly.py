"""Dense univariate polynomials with arbitrary-precision integer coefficients.

A polynomial c0 + c1*x + ... + cn*x^n is stored as the ascending coefficient
tuple (c0, c1, ..., cn) with no trailing zeros; the zero polynomial has an
empty tuple.  Resultants are Sylvester determinants evaluated fraction-free
(Bareiss elimination in `intmatrix.det_rows`), so all arithmetic stays in
the integers.

Text input accepted everywhere in the package comes in two shapes: an
ascending coefficient list such as "[4, -13, 0, 1]" and a symbolic form such
as "x^3 - 13*x + 4" (x**3 and implicit '*' also accepted).  Symbolic text of
degree above MAX_DEGREE, the package's scope, is refused with
DegreeOutOfScope before its coefficient list is built, so a huge exponent
costs no memory.
"""

from __future__ import annotations

import operator
import re

from .errors import DegreeOutOfScope, InvalidDegree, InvalidInput, ParseError
from .intmatrix import det_rows

MAX_DEGREE = 7


class IntPoly:
    """Immutable integer polynomial, ascending coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        try:
            cs = list(map(operator.index, coeffs))
        except TypeError:
            raise InvalidInput("polynomial coefficients must be integers") from None
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *a):
        raise AttributeError("IntPoly is immutable")

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        """Leading coefficient (0 for the zero polynomial)."""
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return self.lc == 1

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __iter__(self):
        return iter(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __neg__(self) -> "IntPoly":
        return IntPoly([-c for c in self.coeffs])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other) -> "IntPoly":
        if isinstance(other, int):
            return IntPoly([c * other for c in self.coeffs])
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPoly":
        if e < 0:
            raise InvalidInput("IntPoly power needs a nonnegative exponent")
        out = IntPoly([1])
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def __call__(self, x: int) -> int:
        v = 0
        for c in reversed(self.coeffs):
            v = v * x + c
        return v

    def derivative(self) -> "IntPoly":
        return IntPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    # -- text -------------------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{k}" if mag == 1 else f"{mag}*x^{k}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"


_TERM_RE = re.compile(
    r"""^
    (?P<coeff>\d+)?
    (?:\*?
       (?P<var>x)
       (?:(?:\^|\*\*)(?P<exp>\d+))?
    )?
    $""",
    re.VERBOSE,
)


def parse_poly(text: str) -> IntPoly:
    """Parse "[c0,c1,...]" or "x^3 - 13*x + 4" into an IntPoly."""
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial text")
    if s.startswith("["):
        if not s.endswith("]"):
            raise ParseError(f"unterminated coefficient list: {text!r}")
        body = s[1:-1].strip()
        if not body:
            return IntPoly()
        try:
            return IntPoly([int(tok.strip()) for tok in body.split(",")])
        except ValueError as exc:
            raise ParseError(f"bad coefficient list: {text!r}") from exc
    s = s.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial text")
    # split into signed terms
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ParseError(f"cannot tokenize polynomial: {text!r}")
    coeffs: dict[int, int] = {}
    for term in terms:
        sign = 1
        body = term
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = _TERM_RE.match(body)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ParseError(f"bad term {term!r} in {text!r}")
        try:
            c = int(m.group("coeff")) if m.group("coeff") is not None else 1
            k = 0 if m.group("var") is None else int(m.group("exp") or 1)
        except ValueError as exc:
            # only more digits than sys.get_int_max_str_digits() get here
            raise ParseError(f"integer too long in {text!r}") from exc
        coeffs[k] = coeffs.get(k, 0) + sign * c
    degree = max((k for k, c in coeffs.items() if c), default=0)
    if degree > MAX_DEGREE:
        raise DegreeOutOfScope(f"degree {degree} > {MAX_DEGREE}")
    return IntPoly([coeffs.get(k, 0) for k in range(degree + 1)])


def as_poly(f) -> IntPoly:
    """Coerce an IntPoly, text, or coefficient sequence to IntPoly."""
    if isinstance(f, IntPoly):
        return f
    if isinstance(f, str):
        return parse_poly(f)
    return IntPoly(f)


# -- resultant and discriminant -------------------------------------------


def poly_resultant(f: IntPoly, g: IntPoly) -> int:
    """Resultant with res(f, g) = lc(f)^deg(g) * prod g(alpha_i) over the
    roots alpha_i of f.

    Computed as the determinant of the Sylvester matrix, fraction-free
    (Bareiss); no rational arithmetic.  Raises InvalidInput on a zero
    polynomial.
    """
    f, g = as_poly(f), as_poly(g)
    if f.is_zero or g.is_zero:
        raise InvalidInput("resultant of the zero polynomial is undefined")
    m, n = f.degree, g.degree
    if m == 0 or n == 0:
        return f.lc**n * g.lc**m
    a, b = list(reversed(f.coeffs)), list(reversed(g.coeffs))
    rows = [[0] * i + a + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + b + [0] * (m - 1 - i) for i in range(m)]
    return det_rows(rows)


def poly_discriminant(f: IntPoly) -> int:
    """disc(f) = (-1)^(n(n-1)/2) * res(f, f') / lc(f), n = deg f >= 1.

    With this sign convention disc(x^3 - a*x + b) = 4a^3 - 27b^2.
    """
    f = as_poly(f)
    n = f.degree
    if n < 1:
        raise InvalidDegree("discriminant needs degree >= 1")
    if n == 1:
        return 1
    r = poly_resultant(f, f.derivative())
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    assert r % f.lc == 0
    return sign * (r // f.lc)
