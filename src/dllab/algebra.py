"""Exact arithmetic over Z/q, a localized polynomial ring, and windowed Laurent expansions.

The coefficient field is the prime field Z/q. Ring elements are fractions

    N(t) / (t + l_1)^m_1 ... (t + l_{d-1})^m_{d-1}

kept in reduced normal form: the denominator is stored as a vector of
exponents (never expanded) and N(-l_i) != 0 whenever m_i > 0, so equal
elements have equal representations. The localization points l_i are d-1
distinct values of Z/q with invertible pairwise differences.

Every element has an exact Laurent expansion at each of d places: in the
local variable s = t + l_i for place i <= d-1, and in u = 1/t for the place
at infinity (place d). Expansions are only ever materialized on a finite
caller-given window of exponents; digits below the window's valuation are
zero by construction.

Polynomials are tuples of ints in [0, q), ascending degree, trailing
coefficient nonzero; the empty tuple is zero.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from .record import Record

Poly = "tuple[int, ...]"


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


class RingParams(Record):
    """Field order q, place count d, and localization points l_1..l_{d-1}.

    An immutable record (see record.Record).
    """

    __slots__ = _fields = ("q", "d", "l")

    def __init__(self, q: int, d: int, l: tuple):
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "l", l)


def ring_params(q: int, d: int) -> RingParams:
    """Canonical parameters with l_i = i - 1.

    Requires q prime (so Z/q is a field) and d - 1 <= q (so the l_i are
    distinct mod q and their pairwise differences are invertible).
    """
    if not isinstance(q, int) or not is_prime(q):
        raise ValueError(f"q must be a prime integer, got {q!r}")
    if not isinstance(d, int) or d < 2:
        raise ValueError(f"d must be an integer >= 2, got {d!r}")
    if d - 1 > q:
        raise ValueError(
            f"d - 1 = {d - 1} exceeds q = {q}; Z/{q} has no {d - 1} points "
            "with invertible pairwise differences"
        )
    return RingParams(q=q, d=d, l=tuple(range(d - 1)))


# ---------------------------------------------------------------------------
# dense polynomial arithmetic mod q


def ptrim(coeffs: Iterable[int]) -> "tuple[int, ...]":
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def padd(a, b, q: int):
    if len(a) < len(b):
        a, b = b, a
    out = [(u + v) % q for u, v in zip(a, b)]
    out += a[len(b):]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def pneg(a, q: int):
    return tuple((-v) % q for v in a)


def pmul(a, b, q: int):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] = (out[i + j] + u * v) % q
    return ptrim(out)


def peval(a, x: int, q: int) -> int:
    acc = 0
    for v in reversed(a):
        acc = (acc * x + v) % q
    return acc


def pmul_linear(a, c: int, q: int):
    """Multiply by the linear factor (t + c); a must be trimmed."""
    if not a:
        return ()
    c %= q
    if c == 0:
        return (0, *a)
    return ((c * a[0]) % q, *[(u + c * v) % q for u, v in zip(a, a[1:])], a[-1])


def pdiv_linear(a, c: int, q: int):
    """Exact division by (t + c); raises if a(-c) != 0."""
    if not a:
        return ()
    r = (-c) % q
    n = len(a) - 1
    out = [0] * n
    carry = a[n]
    for k in range(n - 1, -1, -1):
        out[k] = carry
        carry = (a[k] + r * carry) % q
    if carry != 0:
        raise ValueError("polynomial is not divisible by the linear factor")
    return ptrim(out)


def pshift_var(a, e: int, q: int):
    """Coefficients of a(x + e)."""
    e %= q
    if not a or e == 0:
        return ptrim(a)
    n = len(a)
    out = [0] * n
    for j, coef in enumerate(a):
        if coef:
            p = 1
            for k in range(j, -1, -1):
                # coefficient of x^k picks up a_j * C(j, k) * e^(j - k)
                out[k] = (out[k] + coef * math.comb(j, k) * p) % q
                p = (p * e) % q
    return ptrim(out)


def series_inv(f, n: int, q: int):
    """First n coefficients of 1/f; f's constant term must be a unit mod q (q need not be prime)."""
    if n <= 0:
        return ()
    if not f or math.gcd(f[0], q) != 1:
        raise ValueError("series inverse needs an invertible constant term")
    f0inv = pow(f[0], -1, q)
    g = [0] * n
    g[0] = f0inv
    for k in range(1, n):
        s = 0
        for j in range(1, min(k, len(f) - 1) + 1):
            s += f[j] * g[k - j]
        g[k] = (-f0inv * s) % q
    return tuple(g)


def series_mul(a, b, n: int, q: int):
    """First n coefficients of a * b."""
    out = [0] * n
    for i, u in enumerate(a):
        if u and i < n:
            for j, v in enumerate(b):
                if i + j >= n:
                    break
                if v:
                    out[i + j] = (out[i + j] + u * v) % q
    return tuple(out)


# ---------------------------------------------------------------------------
# ring elements


class RationalElement(Record):
    """N(t) / prod_i (t + l_i)^den[i-1] in reduced normal form.

    Zero is represented uniquely by num = () and den = (0, ..., 0).
    An immutable record (see record.Record).
    """

    __slots__ = _fields = ("params", "num", "den")

    def __init__(self, params: RingParams, num: tuple, den: tuple):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def is_zero(self) -> bool:
        return not self.num


def rational(params: RingParams, num: Sequence[int], den: Optional[Sequence[int]] = None) -> RationalElement:
    """Build an element and reduce it to normal form."""
    q = params.q
    numt = ptrim(v % q for v in num)
    dens = list(den) if den is not None else [0] * (params.d - 1)
    if len(dens) != params.d - 1:
        raise ValueError(f"denominator needs {params.d - 1} exponents, got {len(dens)}")
    if any(not isinstance(m, int) or m < 0 for m in dens):
        raise ValueError("denominator exponents must be nonnegative integers")
    if not numt:
        return RationalElement(params, (), (0,) * (params.d - 1))
    for i, li in enumerate(params.l):
        while dens[i] > 0 and peval(numt, (-li) % q, q) == 0:
            numt = pdiv_linear(numt, li, q)
            dens[i] -= 1
    return RationalElement(params, numt, tuple(dens))


def rat_zero(params: RingParams) -> RationalElement:
    return rational(params, ())


def rat_const(params: RingParams, b: int) -> RationalElement:
    return rational(params, (b % params.q,))


def _same_ring(a: RationalElement, b: RationalElement) -> None:
    if a.params != b.params:
        raise ValueError("operands live in different rings")


def rat_add(a: RationalElement, b: RationalElement) -> RationalElement:
    _same_ring(a, b)
    p = a.params
    q = p.q
    target = tuple(max(x, y) for x, y in zip(a.den, b.den))
    na, nb = a.num, b.num
    for i, li in enumerate(p.l):
        for _ in range(target[i] - a.den[i]):
            na = pmul_linear(na, li, q)
        for _ in range(target[i] - b.den[i]):
            nb = pmul_linear(nb, li, q)
    return rational(p, padd(na, nb, q), target)


def rat_neg(a: RationalElement) -> RationalElement:
    return RationalElement(a.params, pneg(a.num, a.params.q), a.den)


def rat_mul(a: RationalElement, b: RationalElement) -> RationalElement:
    _same_ring(a, b)
    p = a.params
    if a.is_zero() or b.is_zero():
        return rat_zero(p)
    return rational(
        p,
        pmul(a.num, b.num, p.q),
        tuple(x + y for x, y in zip(a.den, b.den)),
    )


def rat_scale_unit(a: RationalElement, place: int, e: int) -> RationalElement:
    """Multiply by (t + l_place)^e; e may be negative (exact localization)."""
    p = a.params
    if not 1 <= place <= p.d - 1:
        raise ValueError(f"place must be in 1..{p.d - 1}, got {place}")
    if a.is_zero() or e == 0:
        return a
    q = p.q
    li = p.l[place - 1]
    num = a.num
    den = list(a.den)
    if e > 0:
        drop = min(e, den[place - 1])
        den[place - 1] -= drop
        for _ in range(e - drop):
            num = pmul_linear(num, li, q)
    else:
        den[place - 1] += -e
    return rational(p, num, den)


# ---------------------------------------------------------------------------
# windowed Laurent expansions


def valuation(a: RationalElement, place: int) -> Optional[int]:
    """Exact valuation of a at the place; None for the zero element."""
    p = a.params
    if a.is_zero():
        return None
    if 1 <= place <= p.d - 1:
        m = a.den[place - 1]
        if m > 0:
            return -m
        # order of vanishing of the numerator at -l_place
        q, li = p.q, p.l[place - 1]
        v = 0
        num = a.num
        while peval(num, (-li) % q, q) == 0:
            num = pdiv_linear(num, li, q)
            v += 1
        return v
    if place == p.d:
        return sum(a.den) - (len(a.num) - 1)
    raise ValueError(f"place must be in 1..{p.d}, got {place}")


def expand_local(a: RationalElement, place: int, lo: int, hi: int) -> "tuple[int, ...]":
    """Exact expansion digits of a at the place, on exponents lo..hi, in order.

    Place i <= d-1 expands in s = t + l_i; place d expands in u = 1/t.
    """
    p = a.params
    q = p.q
    if lo > hi:
        raise ValueError(f"empty window [{lo}, {hi}]")
    if not 1 <= place <= p.d:
        raise ValueError(f"place must be in 1..{p.d}, got {place}")
    if a.is_zero():
        return (0,) * (hi - lo + 1)

    if place <= p.d - 1:
        li = p.l[place - 1]
        # rewrite in s = t + l_i: numerator becomes N(s - l_i), denominator
        # becomes s^m_i times a unit U(s) with U(0) invertible
        num = pshift_var(a.num, -li, q)
        unit = (1,)
        for j, lj in enumerate(p.l):
            if j == place - 1:
                continue
            c = (lj - li) % q
            for _ in range(a.den[j]):
                unit = pmul_linear(unit, c, q)
        val = -a.den[place - 1]
    else:
        # place at infinity: t = 1/u
        num = tuple(reversed(a.num))
        unit = (1,)
        for j, lj in enumerate(p.l):
            for _ in range(a.den[j]):
                unit = pmul(unit, (1, lj % q), q)
        val = sum(a.den) - (len(a.num) - 1)
    # the expansion is u^val * num / unit, for u the local uniformizer
    prec = hi - val + 1
    ser = series_mul(num, series_inv(unit, prec, q), prec, q) if prec > 0 else ()
    return tuple(ser[e - val] if 0 <= e - val < prec else 0 for e in range(lo, hi + 1))


# ---------------------------------------------------------------------------
# partial-fraction digits


def partial_fractions(a: RationalElement) -> "tuple[tuple[int, ...], ...]":
    """The digits of a's unique partial-fraction form.

    a = sum_i sum_{n >= 1} parts[i-1][n-1] (t + l_i)^(-n) + sum_n poly[n] t^n.
    The result is (parts[0], ..., parts[d-2], poly), indexed like the places
    (the polynomial part belongs to the place at infinity). Each entry is a
    trimmed tuple in ascending order: the principal part at place i is
    expand_local's window [-m_i, -1] reversed, so its length is the reduced
    denominator exponent m_i, and the polynomial part is the window
    [-deg, 0] at infinity reversed. The map is a bijection onto tuples of
    trimmed digit tuples (from_partial_fractions inverts it) and additive,
    place by place and digit by digit mod q.
    """
    p = a.params
    if a.is_zero():
        return ((),) * p.d
    parts = [
        tuple(reversed(expand_local(a, place, -m, -1))) if m else ()
        for place, m in enumerate(a.den, start=1)
    ]
    deg = len(a.num) - 1 - sum(a.den)
    parts.append(tuple(reversed(expand_local(a, p.d, -deg, 0))) if deg >= 0 else ())
    return tuple(parts)


def from_partial_fractions(params: RingParams, digits: Sequence[tuple]) -> RationalElement:
    """The element with the given partial-fraction digits, already reduced.

    With m_i = len(parts[i]) and B_i the Horner sum of parts[i] in
    (t + l_i), the numerator is poly * prod_j (t + l_j)^m_j plus
    B_i * prod_{j != i} (t + l_j)^m_j for every place i. Its value at -l_i
    is the top digit of parts[i] times a unit, which is nonzero in trimmed
    digits, so no reduction is needed.
    """
    q, d = params.q, params.d
    if len(digits) != d:
        raise ValueError(f"digits of a ring with {len(digits)} places, expected {d}")
    for part in digits:
        if part and (part[-1] == 0 or not all(0 <= v < q for v in part)):
            raise ValueError(f"digits {part!r} are not trimmed digits mod {q}")
    *parts, poly = digits
    # num runs over the places like Horner's rule: after place i it is
    # poly * F_1..F_i + sum_{j <= i} B_j * F_1..F_i / F_j with F_j = (t + l_j)^m_j,
    # and prefix is F_1..F_i
    num, prefix = tuple(poly), (1,)
    for li, part in zip(params.l, parts):
        for a in part:
            num = pmul_linear(num, li, q)
            if a:
                num = padd(num, prefix if a == 1 else [a * v % q for v in prefix], q)
        for _ in part:
            prefix = pmul_linear(prefix, li, q)
    return RationalElement(params, num, tuple(len(part) for part in parts))
