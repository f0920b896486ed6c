"""Exact integer-coefficient polynomials and real-root machinery.

Coefficients are arbitrary-precision Python ints stored in ascending order
(c_0 + c_1 x + ... + c_d x^d).  Root finding is exact: Sturm chains over
rationals isolate every real root, then bisection refines each isolating
interval to a requested width.  Nothing here touches floating point until
the final conversion, so results can be compared at any precision.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "IntPolynomial",
    "root_multiplicity_exact",
    "real_roots",
    "largest_real_root",
    "largest_real_root_interval",
    "compare_largest_real_roots",
]


class IntPolynomial:
    """Univariate polynomial with exact integer coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = [int(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        if not cs:
            cs = [0]
        self.coeffs = tuple(cs)

    # -- basics ------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0,)

    @classmethod
    def x_minus(cls, r: int) -> "IntPolynomial":
        return cls([-r, 1])

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial({list(self.coeffs)})"

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0 and self.degree > 0:
                continue
            mono = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
            if not mono:
                terms.append(f"{c:+d}")
            elif c == 1:
                terms.append(f"+{mono}")
            elif c == -1:
                terms.append(f"-{mono}")
            else:
                terms.append(f"{c:+d}{mono}")
        s = "".join(terms) or "0"
        return s.lstrip("+")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca == 0:
                continue
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
        return IntPolynomial(out)

    def __pow__(self, k: int) -> "IntPolynomial":
        if k < 0:
            raise ValueError("negative power")
        out = IntPolynomial([1])
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def derivative(self) -> "IntPolynomial":
        if self.degree == 0:
            return IntPolynomial([0])
        return IntPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def divides(self, other: "IntPolynomial") -> bool:
        """True iff self divides other exactly over the rationals."""
        _, r = _divmod_frac(_fractions(other), _fractions(self))
        return all(c == 0 for c in r)

    def divexact(self, other: "IntPolynomial") -> "IntPolynomial":
        """self / other, which must be exact with integer quotient."""
        q, r = _divmod_frac(_fractions(self), _fractions(other))
        if any(c != 0 for c in r):
            raise ValueError("division is not exact")
        if any(c.denominator != 1 for c in q):
            raise ValueError("quotient is not integral")
        return IntPolynomial([int(c) for c in q])


def _fractions(p: IntPolynomial) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def root_multiplicity_exact(p: IntPolynomial, r: int) -> int:
    """Largest k with (x - r)^k dividing p, by repeated exact division."""
    if p.is_zero:
        raise ValueError("zero polynomial has no well-defined multiplicity")
    mult = 0
    while p(r) == 0:
        p = p.divexact(IntPolynomial.x_minus(r))
        mult += 1
    return mult


# -- Sturm-chain real root isolation -----------------------------------------


def _squarefree_part(p: IntPolynomial) -> list[Fraction]:
    """Coefficients of p / gcd(p, p') over Q (monic-scaled square-free part)."""
    a = _fractions(p)
    g = _poly_gcd(a, _fractions(p.derivative()))
    q, r = _divmod_frac(a, g)
    assert all(c == 0 for c in r)
    lead = q[-1]
    return [c / lead for c in q]


def _trim(a: list[Fraction]) -> list[Fraction]:
    while len(a) > 1 and a[-1] == 0:
        a.pop()
    return a


def _poly_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a, b = _trim(list(a)), _trim(list(b))
    while not (len(b) == 1 and b[0] == 0):
        _, r = _divmod_frac(a, b)
        a, b = b, _trim(r)
    lead = a[-1]
    return [c / lead for c in a] if lead else a


def _divmod_frac(
    a: list[Fraction], b: list[Fraction]
) -> tuple[list[Fraction], list[Fraction]]:
    """Long division over Q of trimmed coefficient lists: (quotient, remainder)."""
    if b[-1] == 0:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    dq = len(rem) - len(b)
    if dq < 0:
        return [Fraction(0)], rem
    quot = [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[k + len(b) - 1] / b[-1]
        quot[k] = c
        if c:
            for i, d in enumerate(b):
                rem[k + i] -= c * d
    return quot, _trim(rem[: len(b) - 1] or [Fraction(0)])


def _eval_frac(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _sturm_chain(sf: list[Fraction]) -> list[list[Fraction]]:
    chain = [list(sf)]
    d = _trim([k * c for k, c in enumerate(sf)][1:] or [Fraction(0)])
    chain.append(d)
    while not (len(chain[-1]) == 1 and chain[-1][0] == 0):
        _, r = _divmod_frac(chain[-2], chain[-1])
        chain.append([-c for c in r])
    chain.pop()
    return chain


def _sign_changes(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for poly in chain:
        v = _eval_frac(poly, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _root_bound(p: IntPolynomial) -> int:
    """Cauchy bound: all real roots lie in (-B, B)."""
    lead = abs(p.coeffs[-1])
    if lead == 0:
        raise ValueError("zero polynomial")
    m = max(abs(c) for c in p.coeffs[:-1]) if p.degree > 0 else 0
    return 1 + (m + lead - 1) // lead + 1


def isolate_real_roots(p: IntPolynomial) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals (a, b], one simple root of p in each.

    Intervals are returned in ascending order and cover every distinct real
    root (multiplicity collapsed via the square-free part).
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    sf = _squarefree_part(p)
    if len(sf) == 1:
        return []
    chain = _sturm_chain(sf)
    B = Fraction(_root_bound(p))
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-B, B, _sign_changes(chain, -B), _sign_changes(chain, B))]
    while stack:
        a, b, va, vb = stack.pop()
        k = va - vb
        if k == 0:
            continue
        if k == 1:
            out.append((a, b))
            continue
        mid = (a + b) / 2
        vm = _sign_changes(chain, mid)
        stack.append((mid, b, vm, vb))
        stack.append((a, mid, va, vm))
    out.sort()
    return out


def _refine(
    sf: list[Fraction], a: Fraction, b: Fraction, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Bisect (a, b], which contains exactly one simple root, to given width."""
    fb = _eval_frac(sf, b)
    if fb == 0:
        return b, b
    fa = _eval_frac(sf, a)
    while fa == 0:
        # a itself is a root outside (a, b]; shrink until the endpoint sign shows
        mid = (a + b) / 2
        fm = _eval_frac(sf, mid)
        if fm == 0:
            return mid, mid
        if (fm > 0) != (fb > 0):
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    while b - a > width:
        mid = (a + b) / 2
        fm = _eval_frac(sf, mid)
        if fm == 0:
            return mid, mid
        if (fa > 0) != (fm > 0):
            b, fb = mid, fm
        else:
            a, fa = mid, fm
    return a, b


def real_roots(p: IntPolynomial, tol: float = 1e-12) -> list[float]:
    """All distinct real roots of p, ascending, each within tol."""
    intervals = isolate_real_roots(p)
    sf = _squarefree_part(p)
    width = Fraction(tol).limit_denominator(10**18) / 2
    out = []
    for a, b in intervals:
        lo, hi = _refine(sf, a, b, width)
        out.append(float((lo + hi) / 2))
    return out


def largest_real_root(p: IntPolynomial, tol: float = 1e-12) -> float:
    """Largest real root of p, within tol; raises ValueError when p has none.

    Only the top isolating interval is refined, by ``largest_real_root_interval``.
    """
    lo, hi = largest_real_root_interval(p, Fraction(tol).limit_denominator(10**18) / 2)
    return float((lo + hi) / 2)


def largest_real_root_interval(
    p: IntPolynomial, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Exact rational interval of given width around the largest real root."""
    return _refine(*_top_root(p), width)


def _top_root(p: IntPolynomial) -> tuple[list[Fraction], Fraction, Fraction]:
    """Square-free part of p and the isolating interval (a, b] of its largest real root."""
    intervals = isolate_real_roots(p)
    if not intervals:
        raise ValueError("polynomial has no real roots")
    return (_squarefree_part(p), *intervals[-1])


def compare_largest_real_roots(p: IntPolynomial, q: IntPolynomial) -> int:
    """Sign of (largest real root of p) - (largest real root of q), exactly.

    The top roots are equal iff the square-free gcd of p and q has a root
    in both top isolating intervals; otherwise both intervals are halved by
    Sturm counts until they are disjoint.
    """
    (sp, a1, b1), (sq, a2, b2) = _top_root(p), _top_root(q)
    g = _sturm_chain(_poly_gcd(sp, sq))
    if _sign_changes(g, max(a1, a2)) > _sign_changes(g, min(b1, b2)):
        return 0
    cp, cq = _sturm_chain(sp), _sturm_chain(sq)
    while a2 < b1 and a1 < b2:  # the intervals still overlap
        m1, m2 = (a1 + b1) / 2, (a2 + b2) / 2
        a1, b1 = (a1, m1) if _sign_changes(cp, a1) > _sign_changes(cp, m1) else (m1, b1)
        a2, b2 = (a2, m2) if _sign_changes(cq, a2) > _sign_changes(cq, m2) else (m2, b2)
    return -1 if b1 <= a2 else 1
