"""Exact real-root isolation for polynomials with integer coefficients.

`real_roots` returns the distinct real roots of a polynomial in ascending
order: each rational root as an exact `Fraction`, each irrational one as
the correctly rounded float.

The polynomial is first made square-free by dividing out its gcd with the
derivative.  Descartes-rule bisection (Collins & Akritas 1976) then splits
(0, B) and (-B, 0), with B a Fujiwara root bound, into intervals that hold
one root each: an interval whose Moebius-transformed polynomial has one
sign variation holds exactly one root, one with none holds no root.  Each
root is then refined by the sign of the polynomial, with secant steps that
double the bits gained while they land (Abbott's quadratic interval
refinement) and bisection when they miss.  Every rational root of
an integer polynomial is `m / lead` for an integer `m` (its denominator
divides the leading coefficient), so once an interval is narrower than
`1 / lead` it holds at most one such candidate, which is tested exactly.  A
root that is not rational is refined until both ends of its interval round
to the same float.

Interval ends are dyadic, `num / 2**k`, and every evaluation is integer
Horner on the scaled value `2**(k * deg) * p(num / 2**k)`, whose sign is
that of `p(num / 2**k)`.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exprs import MAX_POWER_BITS

# Refinement steps allowed beyond those that bring an interval below
# 1/lead: enough to bisect down to the smallest subnormal from the largest
# finite float.
_FLOAT_STEPS = 2_200

# Primes for the modular square-free test; neither divides a small degree.
_PRIMES = (2**61 - 1, 2**31 - 1)

Poly = list[int]  # coefficients, lowest degree first, nonzero leading one


class IsolationError(ArithmeticError):
    """The roots could not be isolated or do not fit in a float."""


def real_roots(coefficients: list[int]) -> list[Fraction | float]:
    """The distinct real roots of sum(c_i * x**i), in ascending order.

    Raises ValueError for a constant polynomial, and IsolationError when a
    coefficient exceeds MAX_POWER_BITS, when an irrational root lies
    outside the range of a float, or when isolation does not end within
    the bisection depth the root separation bound allows.
    """
    p = _trim(list(coefficients))
    if len(p) < 2:
        raise ValueError("a constant polynomial has no roots to isolate")
    if max(abs(c) for c in p).bit_length() > MAX_POWER_BITS:
        raise IsolationError(f"coefficients exceed {MAX_POWER_BITS} bits")
    p = _square_free(p)
    roots: list[Fraction | float] = []
    if p[0] == 0:  # a simple root at zero
        roots.append(Fraction(0))
        del p[0]
    if len(p) > 1:
        mirrored = [-c if i % 2 else c for i, c in enumerate(p)]  # p(-x)
        for root in _positive_roots(mirrored):
            if isinstance(root, Fraction):
                roots.append(-root)
            else:
                lo, hi, k = root
                roots.append(_refine(p, -hi, -lo, k))
        for root in _positive_roots(p):
            roots.append(root if isinstance(root, Fraction) else _refine(p, *root))
    return sorted(roots)


def _trim(p: Poly) -> Poly:
    while p and not p[-1]:
        p.pop()
    return p


def _square_free(p: Poly) -> Poly:
    """p divided by gcd(p, p').

    The gcd is 1 when it is constant modulo a prime that does not divide
    the leading coefficient, since the gcd over the integers reduces to a
    divisor of the one modulo that prime, of the same degree.  Only when
    that test fails for every prime is the gcd computed exactly.
    """
    derivative = [i * c for i, c in enumerate(p)][1:]
    for prime in _PRIMES:
        if p[-1] % prime and _coprime_modulo(p, derivative, prime):
            return p
    a, b = p, derivative
    while b:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return p if len(a) == 1 else _divide(p, _primitive(a))


def _coprime_modulo(a: Poly, b: Poly, prime: int) -> bool:
    """Whether gcd(a, b) modulo `prime` is a nonzero constant."""
    a = _trim([c % prime for c in a])
    b = _trim([c % prime for c in b])
    while b:
        inverse = pow(b[-1], -1, prime)
        degree = len(b) - 1
        while len(a) > degree:
            factor = a[-1] * inverse % prime
            shift = len(a) - 1 - degree
            for j in range(degree):
                a[shift + j] = (a[shift + j] - factor * b[j]) % prime
            a.pop()
            _trim(a)
        a, b = b, a
    return len(a) == 1


def _primitive(p: Poly) -> Poly:
    """p divided by the gcd of its coefficients."""
    content = math.gcd(*p)
    return [c // content for c in p]


def _pseudo_remainder(a: Poly, b: Poly) -> Poly:
    """r with lead(b)**(deg a - deg b + 1) * a = q * b + r, deg r < deg b."""
    r = list(a)
    degree, lead = len(b) - 1, b[-1]
    for shift in range(len(a) - len(b), -1, -1):
        top = r.pop()
        for j in range(shift + degree):
            r[j] *= lead
        for j in range(degree):
            r[shift + j] -= top * b[j]
    return _trim(r)


def _divide(p: Poly, g: Poly) -> Poly:
    """p / g for a primitive g that divides p, so the quotient is integral."""
    r = list(p)
    degree, lead = len(g) - 1, g[-1]
    quotient = [0] * (len(p) - degree)
    for shift in range(len(quotient) - 1, -1, -1):
        c = quotient[shift] = r[shift + degree] // lead
        for j in range(degree + 1):
            r[shift + j] -= c * g[j]
    return quotient


def _value(p: Poly, num: int, k: int) -> int:
    """2**(k * deg p) * p(num / 2**k)."""
    acc = p[-1]
    shift = 0
    for c in reversed(p[:-1]):
        shift += k
        acc = acc * num + (c << shift)
    return acc


def _split(lo: int, hi: int, k: int) -> tuple[int, int, int, int]:
    """(lo, mid, hi, k) with mid halfway, at the smallest scale k that
    keeps all three integral."""
    total = lo + hi
    if total % 2 == 0:
        return lo, total // 2, hi, k
    return 2 * lo, total, 2 * hi, k + 1


def _shifted(q: Poly) -> Poly:
    """q(t + 1): the Taylor shift by one, in O(n^2) additions."""
    q = list(q)
    n = len(q) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            q[j] += q[j + 1]
    return q


def _variations(q: Poly) -> int:
    """Sign variations of the coefficients, zeros skipped."""
    count = 0
    last = 0
    for c in q:
        if c:
            if (c > 0) != (last > 0) and last:
                count += 1
            last = c
    return count


def _positive_roots(p: Poly) -> list[Fraction | tuple[int, int, int]]:
    """The positive roots of square-free p, p(0) != 0, in ascending order:
    each an exact Fraction when bisection lands on it, else an interval
    (lo, hi, k) for the open (lo / 2**k, hi / 2**k) that holds it alone.

    A node is an interval with q(t) proportional to p(lo + t * (hi - lo)),
    so that its roots in (0, 1) are those of p in the interval.  The
    variations of (t + 1)**n * q(1 / (t + 1)) bound that root count from
    above and equal it when they are 0 or 1 (Descartes' rule).
    """
    n = len(p) - 1
    lead_bits = abs(p[-1]).bit_length()
    # Fujiwara: every root has |x| <= 2 * max |c[n-i] / c[n]| ** (1 / i), and
    # |c[n-i] / c[n]| < 2 ** (bits(c[n-i]) - bits(c[n]) + 1).
    exponent = 1 + max(
        -((lead_bits - abs(c).bit_length() - 1) // i)
        for i, c in enumerate(reversed(p[:-1]), 1) if c
    )
    # Two roots of a square-free integer polynomial, complex ones included,
    # are at least sqrt(3) * n**(-(n+2)/2) * |p|_2**(1-n) apart (Mahler
    # 1964), and Descartes' rule counts exactly on intervals a small
    # multiple of that wide, so bisection ends by this depth.
    norm_bits = max(abs(c) for c in p).bit_length() + n.bit_length()
    max_depth = exponent + 4 + (n + 2) * n.bit_length() + (n - 1) * norm_bits

    k = max(0, -exponent)
    if exponent >= 0:
        q = [c << (exponent * i) for i, c in enumerate(p)]
    else:
        q = [c << (-exponent * (n - i)) for i, c in enumerate(p)]
    stack = [(q, 0, 1 << (exponent + k), k, 0)]
    found: list[Fraction | tuple[int, int, int]] = []
    while stack:
        q, lo, hi, k, depth = stack.pop()
        if q is None:  # an exact root, at lo, between two nodes
            found.append(Fraction(lo, 1 << k))
            continue
        count = _variations(_shifted(q[::-1]))
        if count == 1:
            found.append((lo, hi, k))
        elif count > 1:
            if depth > max_depth:
                raise IsolationError("root isolation exceeded the separation bound")
            m = len(q) - 1
            left = [c << (m - i) for i, c in enumerate(q)]  # 2**m * q(t / 2)
            twos = min((c & -c).bit_length() for c in left if c) - 1
            left = [c >> twos for c in left]
            right = _shifted(left)  # q((t + 1) / 2)
            lo, mid, hi, k = _split(lo, hi, k)
            # The left half goes on top, so roots come out ascending.
            if right[0] == 0:  # the midpoint is a root: divide it out
                right = right[1:]
                for i in range(m - 1, 0, -1):  # left / (t - 1), synthetic
                    left[i] += left[i + 1]
                left = left[1:]
                stack.append((right, mid, hi, k, depth + 1))
                stack.append((None, mid, mid, k, depth))
            else:
                stack.append((right, mid, hi, k, depth + 1))
            stack.append((left, lo, mid, k, depth + 1))
    return found


def _refine(p: Poly, lo: int, hi: int, k: int) -> Fraction | float:
    """The one root of square-free p in (lo / 2**k, hi / 2**k).

    Each step tries the secant estimate from the two end values, rounded
    to a grid of 2**bits cells, and keeps the two cells around it if p
    changes sign across them; the grid then doubles its bits.  Otherwise
    the step bisects and the grid halves its bits (Abbott's quadratic
    interval refinement), so an interval shrinks at least by half a step.
    """
    n = len(p) - 1
    lead = abs(p[-1])
    f_lo, f_hi = _value(p, lo, k), _value(p, hi, k)
    # p has one sign from the root up to hi and the other below the root.
    # When hi is itself a (simple) root, p just below it has the sign of
    # -p'(hi).
    above = f_hi > 0 if f_hi else _value([i * c for i, c in enumerate(p)][1:], hi, k) < 0
    rational = True  # m / lead not yet tested
    bits = 2
    for _ in range((hi - lo).bit_length() + lead.bit_length() + _FLOAT_STEPS):
        if rational and (hi - lo) * lead < 1 << k:
            rational = False
            candidate = ((lo * lead) >> k) + 1  # the one m with lo < m / lead < hi
            if candidate << k < hi * lead and _rational_value(p, candidate, lead) == 0:
                return Fraction(candidate, lead)
        if not rational and _float(lo, k) == _float(hi, k):
            break
        if f_lo and f_hi:
            cells = 1 << bits
            total = abs(f_lo) + abs(f_hi)
            j = (2 * cells * abs(f_lo) + total) // (2 * total)  # round(cells * f_lo / (f_lo - f_hi))
            width = hi - lo
            a = (lo << bits) + max(j - 1, 0) * width
            b = (lo << bits) + min(j + 1, cells) * width
            f_a, f_b = _value(p, a, k + bits), _value(p, b, k + bits)
            for point, value in ((a, f_a), (b, f_b)):
                if value == 0:
                    return Fraction(point, 1 << (k + bits))
            if (f_a > 0) != above and (f_b > 0) == above:
                lo, hi, k, f_lo, f_hi = a, b, k + bits, f_a, f_b
                bits *= 2
                continue
            bits = max(2, bits // 2)
        lo, mid, hi, scale = _split(lo, hi, k)
        if scale != k:
            k, f_lo, f_hi = scale, f_lo << n, f_hi << n
        f_mid = _value(p, mid, k)
        if f_mid == 0:
            return Fraction(mid, 1 << k)
        if (f_mid > 0) == above:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    high = _float(hi, k)
    if high == 0 or math.isinf(high):
        raise IsolationError("an irrational root lies outside the range of a float")
    return high


def _rational_value(p: Poly, num: int, den: int) -> int:
    """den**deg p * p(num / den)."""
    acc = p[-1]
    scale = 1
    for c in reversed(p[:-1]):
        scale *= den
        acc = acc * num + c * scale
    return acc


def _float(num: int, k: int) -> float:
    """num / 2**k correctly rounded, or an infinity past the float range."""
    try:
        return num / (1 << k)
    except OverflowError:
        return math.inf if num > 0 else -math.inf
