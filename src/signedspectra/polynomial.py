"""Exact integer-coefficient polynomials and real-root machinery.

Coefficients are arbitrary-precision Python ints stored in ascending order
(c_0 + c_1 x + ... + c_d x^d).  Root finding is exact: a Sturm chain of the
square-free part isolates the real roots from the top down, lazily, so a
question about the largest root stops once the top root is isolated; then
quadratic interval refinement (QIR) on the grid that bisection would walk
refines an isolating interval to a requested width.  Gcds and chains come
from one remainder sequence (integer pseudo-division, content removed): a
square-free p's chain is its own sequence with p'; with repeated roots the
sequence ends at gcd(p, p') and the chain is rebuilt for p / gcd.  The
search starts at the integers -R and R, R the root bound of the square-free
part, and only halves, so every point visited is dyadic and each sign or
value is one integer Horner evaluation.  No floats until the end.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator

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
        given = list(coeffs)
        cs = [int(c) for c in given]
        if cs != given:
            raise ValueError(f"coefficients must be integers, got {given!r}")
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
        return IntPolynomial([k * c for k, c in enumerate(self.coeffs)][1:])

    def divides(self, other: "IntPolynomial") -> bool:
        """True iff self divides other exactly over the rationals."""
        return _pdivmod(other.coeffs, self.coeffs)[1] == [0]

    def divexact(self, other: "IntPolynomial") -> "IntPolynomial":
        """self / other, which must be exact with integer quotient."""
        q, r, s = _pdivmod(self.coeffs, other.coeffs)
        if r != [0]:
            raise ValueError("division is not exact")
        if any(c % s for c in q):
            raise ValueError("quotient is not integral")
        return IntPolynomial([c // s for c in q])


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
#
# An interval is (lo, hi, e), the half-open (lo / 2^e, hi / 2^e]; halving it
# gives (2 lo, lo + hi, e + 1) and (lo + hi, 2 hi, e + 1).  Chain members are
# integer coefficient lists.


def _primitive(a: list[int]) -> list[int]:
    """a divided by the positive gcd of its coefficients (the zero list unchanged)."""
    g = math.gcd(*a)
    return [c // g for c in a] if g > 1 else a


def _remainders(a: list[int], b: list[int]) -> list[list[int]]:
    """a, b and their primitive pseudo-remainders, down to gcd(a, b) up to a constant."""
    seq = [a]
    while b != [0]:
        seq.append(b)
        a, b = b, _primitive(_pdivmod(a, b)[1])
    return seq


def _pdivmod(a: list[int], b: list[int]) -> tuple[list[int], list[int], int]:
    """Pseudo-division of trimmed integer coefficient lists: (q, r, s).

    s a = q b + r with deg r < deg b and s = |lc b|^(deg a - deg b + 1) > 0,
    so over Q the quotient is q / s and the remainder r / s.
    """
    lead = b[-1]
    if lead == 0:
        raise ZeroDivisionError("polynomial division by zero")
    dq = len(a) - len(b)
    if dq < 0:
        return [0], list(a), 1
    scale, rem, quot = abs(lead), list(a), [0] * (dq + 1)
    for k in range(dq, -1, -1):
        # scale by |lc b|, then cancel the top coefficient c with t x^k b
        c = rem.pop()
        t = c if lead > 0 else -c
        quot[k] = t * scale**k
        if scale != 1:
            rem = [scale * x for x in rem]
        if t:
            for i in range(len(b) - 1):
                rem[k + i] -= t * b[i]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem or [0], scale ** (dq + 1)


def _sturm_chain(p: list[int]) -> list[list[int]]:
    """Sturm chain of the square-free part of a nonzero p, each member primitive.

    If p's remainder sequence with p' ends at a constant, member i is member
    i of the sequence times +, +, -, - repeating (a positive multiple of its
    counterpart over Q); else the chain is p / gcd(p, p')'s.
    """
    p = _primitive(p if p[-1] > 0 else [-c for c in p])
    seq = _remainders(p, _primitive([k * c for k, c in enumerate(p)][1:] or [0]))
    if len(seq[-1]) > 1:
        return _sturm_chain(_pdivmod(p, seq[-1])[0])
    return [f if i % 4 < 2 else [-c for c in f] for i, f in enumerate(seq)]


def _value_at(f: list[int], m: int, e: int) -> int:
    """The integer 2^(e deg f) f(m / 2^e), by Horner's rule."""
    acc = shift = 0
    for c in reversed(f):
        acc = acc * m + (c << shift)
        shift += e
    return acc


def _sign_at(f: list[int], m: int, e: int) -> int:
    """Sign of f(m / 2^e), from ``_value_at`` at the point's lowest level."""
    z = min(e, (m & -m).bit_length() - 1) if m else e  # common factors of 2
    acc = _value_at(f, m >> z, e - z)
    return (acc > 0) - (acc < 0)


def _sign_changes(chain: list[list[int]], m: int, e: int) -> int:
    """Sign changes of the chain at m / 2^e, zeros skipped, from every member's sign there."""
    changes = last = 0
    for f in chain:
        s = _sign_at(f, m, e)
        if s:
            changes += last == -s
            last = s
    return changes


def _root_bound(p: IntPolynomial) -> int:
    """Cauchy bound of a nonzero p: all real roots lie in (-B, B)."""
    lead = abs(p.coeffs[-1])
    m = max(abs(c) for c in p.coeffs[:-1]) if p.degree > 0 else 0
    return 1 + (m + lead - 1) // lead + 1


def _isolate(p: IntPolynomial) -> tuple[list[list[int]], Iterator[tuple[int, int, int]]]:
    """Integer Sturm chain of p's square-free part and its isolating intervals, largest first.

    The chain's first member is the square-free part itself.  The intervals
    come lazily from one search that halves the right half first, so a
    caller that takes only the top interval never splits the intervals
    below it.  The search starts at (-R, R], R the square-free part's root
    bound.  No root lies outside (-R, R), so by Sturm's theorem the counts
    at -R and R are V(-inf) and V(+inf), read off the leading coefficients.
    """
    if p.is_zero:
        raise ValueError("zero polynomial")
    chain = _sturm_chain(list(p.coeffs))
    R = _root_bound(IntPolynomial(chain[0]))
    up = [f[-1] > 0 for f in chain]  # signs at +inf; at -inf a member of odd degree flips
    down = [u == (len(f) % 2 == 1) for u, f in zip(up, chain)]
    vlo, vhi = (sum(u != v for u, v in zip(s, s[1:])) for s in (down, up))
    stack = [(-R, R, 0, vlo, vhi)]

    def descend():
        while stack:
            lo, hi, e, vlo, vhi = stack.pop()
            k = vlo - vhi
            if k == 1:
                yield lo, hi, e
            elif k > 1:
                mid = lo + hi
                vm = _sign_changes(chain, mid, e + 1)
                stack.append((2 * lo, mid, e + 1, vlo, vm))
                stack.append((mid, 2 * hi, e + 1, vm, vhi))

    return chain, descend()


def _fraction_pair(lo: int, hi: int, e: int) -> tuple[Fraction, Fraction]:
    return Fraction(lo, 1 << e), Fraction(hi, 1 << e)


def isolate_real_roots(p: IntPolynomial) -> list[tuple[Fraction, Fraction]]:
    """Disjoint rational intervals (a, b], one simple root of p in each.

    Intervals are returned in ascending order and cover every distinct real
    root (multiplicity collapsed via the square-free part).
    """
    return [_fraction_pair(*iv) for iv in _isolate(p)[1]][::-1]


def _checked_width(width) -> Fraction:
    """width as an exact Fraction; ValueError unless it is finite and positive.

    The refinement stops once an interval is no wider than width, which a
    zero, negative or NaN width would never be.
    """
    try:
        w = Fraction(width)
    except (ValueError, OverflowError) as exc:  # NaN, infinity
        raise ValueError(f"tol/width must be finite and positive, got {width!r}") from exc
    if w <= 0:
        raise ValueError(f"tol/width must be finite and positive, got {width!r}")
    return w


def _half_tol(tol: float) -> Fraction:
    """Half of tol at denominator at most 10^18: the refinement width for tol.

    A tol too small to survive that rounding (below about 5e-19) is refused
    like a nonpositive one.
    """
    return _checked_width(_checked_width(tol).limit_denominator(10**18) / 2)


def _refine(sf: list[int], iv: tuple[int, int, int], width: Fraction) -> tuple[int, int, int]:
    """Refine the interval iv, which holds exactly one simple root of sf, to given width.

    Bisection of iv = (lo, hi, e) stops at level E, the fewest halvings within
    width, in the cell (g_i, g_(i+1)] holding the root, g_i = lo 2^(E-e) + i (hi - lo)
    at level E, or at (r, r) when it meets the root at a grid point r.  This
    returns the same by quadratic interval refinement on the indices i (QIR;
    J. Abbott, ACM Commun. Comput. Algebra 48(1), 2014).  With the root in
    (g_p, g_q], a step splits the smallest aligned block of 2^s cells around
    (p, q] into N = 2^t parts and tests the part holding the secant estimate
    of the exact values at p and q: at its end nearer the block's midpoint,
    then at its other end if that is inside (p, q).  N is squared if the part
    holds the root, else square-rooted down to 2, a bisection step.  A step
    that does not halve the block costs one evaluation and halves t, which
    only successes double, so no prefix of the search needs more than twice
    bisection's evaluations plus one; every point is a multiple of a power of
    two, so a root on the grid is met no later than that.
    """
    lo, hi, e = iv
    d, num = hi - lo, width.numerator << e
    k = ((d * width.denominator + num - 1) // num - 1).bit_length()
    base, E = lo << k, e + k
    p, q = 0, 1 << k
    vq = _value_at(sf, base + q * d, E)
    if not vq:
        return base + q * d, base + q * d, E
    vp, up, t = _value_at(sf, base, E) if q > 1 else 0, vq > 0, 2
    while q - p > 1:
        s = (p ^ (q - 1)).bit_length()
        mid, t = (q - 1) >> s - 1 << s - 1, min(t, s)
        w = 1 << s - t
        c = (p + (q - p) * vp // (vp - vq)) >> s - t << s - t
        for i in (c, c + w) if c >= mid else (c + w, c):  # the end nearer mid first
            if not p < i < q:
                break
            v = _value_at(sf, base + i * d, E)
            if not v:
                return base + i * d, base + i * d, E
            if (v > 0) == up:
                q, vq = i, v
            else:
                p, vp = i, v
        t = 2 * t if c <= p and q <= c + w else max(1, t >> 1)
    return base + p * d, base + q * d, E


def real_roots(p: IntPolynomial, tol: float = 1e-12) -> list[float]:
    """All distinct real roots of p, ascending, each within tol.

    Raises ValueError when tol is not finite and positive.
    """
    return _real_roots(p, tol)[0]


def _real_roots(p: IntPolynomial, tol: float) -> tuple[list[float], int]:
    """``real_roots(p, tol)`` and the degree of p's square-free part, from one chain."""
    width = _half_tol(tol)
    chain, intervals = _isolate(p)
    sf = chain[0]
    out = []
    for iv in intervals:
        lo, hi, e = _refine(sf, iv, width)
        out.append((lo + hi) / (2 << e))
    return out[::-1], len(sf) - 1


def largest_real_root(p: IntPolynomial, tol: float = 1e-12) -> float:
    """Largest real root of p, within tol; raises ValueError when p has none.

    Only the top isolating interval is refined, by ``largest_real_root_interval``.
    Raises ValueError when tol is not finite and positive.
    """
    lo, hi = largest_real_root_interval(p, _half_tol(tol))
    return float((lo + hi) / 2)


def largest_real_root_interval(
    p: IntPolynomial, width: Fraction
) -> tuple[Fraction, Fraction]:
    """Exact rational interval of given width around the largest real root.

    Raises ValueError when width is not finite and positive.
    """
    width = _checked_width(width)
    chain, iv = _top_root(p)
    return _fraction_pair(*_refine(chain[0], iv, width))


def _top_root(p: IntPolynomial) -> tuple[list[list[int]], tuple[int, int, int]]:
    """Integer Sturm chain of p's square-free part and its top interval."""
    chain, intervals = _isolate(p)
    top = next(intervals, None)
    if top is None:
        raise ValueError("polynomial has no real roots")
    return chain, top


def compare_largest_real_roots(p: IntPolynomial, q: IntPolynomial) -> int:
    """Sign of (largest real root of p) - (largest real root of q), exactly.

    The top roots are equal iff the square-free gcd of p and q has a root
    in both top isolating intervals; otherwise both intervals are halved by
    Sturm counts until they are disjoint.
    """
    (cp, (lo1, hi1, e1)), (cq, (lo2, hi2, e2)) = _top_root(p), _top_root(q)
    # both intervals at one exponent, which they keep since they halve in step
    e = max(e1, e2)
    lo1, hi1, lo2, hi2 = lo1 << e - e1, hi1 << e - e1, lo2 << e - e2, hi2 << e - e2
    g = _sturm_chain(_remainders(cp[0], cq[0])[-1])
    if _sign_changes(g, max(lo1, lo2), e) > _sign_changes(g, min(hi1, hi2), e):
        return 0
    v1, v2 = _sign_changes(cp, lo1, e), _sign_changes(cq, lo2, e)
    while lo2 < hi1 and lo1 < hi2:  # the intervals still overlap
        m1, m2, e = lo1 + hi1, lo2 + hi2, e + 1
        w1, w2 = _sign_changes(cp, m1, e), _sign_changes(cq, m2, e)
        lo1, hi1, v1 = (2 * lo1, m1, v1) if v1 > w1 else (m1, 2 * hi1, w1)
        lo2, hi2, v2 = (2 * lo2, m2, v2) if v2 > w2 else (m2, 2 * hi2, w2)
    return -1 if hi1 <= lo2 else 1
