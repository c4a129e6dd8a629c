"""Field, ring, and expansion arithmetic checked against independent oracles.

The expansion oracle never divides: it verifies the inverse identity
(digits times denominator equals numerator as a series prefix) with its own
naive polynomial helpers, so a division bug in the module cannot hide.
"""

from __future__ import annotations

import random

import pytest

from dllab.algebra import (
    expand_local,
    from_partial_fractions,
    is_prime,
    padd,
    partial_fractions,
    pdiv_linear,
    peval,
    pmul,
    pmul_linear,
    pneg,
    pshift_var,
    ptrim,
    rat_add,
    rat_const,
    rat_mul,
    rat_neg,
    rat_scale_unit,
    rat_zero,
    rational,
    ring_params,
    series_inv,
    series_mul,
    valuation,
)

from oracles import pf_add


# ---------------------------------------------------------------------------
# independent helpers (deliberately naive; used only as oracles)


def mul_poly(a, b, q):
    out = [0] * (len(a) + len(b) + 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] = (out[i + j] + u * v) % q
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def add_poly(a, b, q):
    out = [0] * max(len(a), len(b))
    for i, u in enumerate(a):
        out[i] = u % q
    for i, v in enumerate(b):
        out[i] = (out[i] + v) % q
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def taylor_shift(a, e, q):
    """a(x + e) via explicit powers of (x + e)."""
    out = ()
    power = (1,)
    for coef in a:
        out = add_poly(out, tuple((coef * c) % q for c in power), q)
        power = mul_poly(power, (e % q, 1), q)
    return out


def dense_den(params, den):
    out = (1,)
    for li, m in zip(params.l, den):
        for _ in range(m):
            out = mul_poly(out, (li % params.q, 1), params.q)
    return out


def random_element(params, rng, max_deg=5, max_exp=3):
    num = [rng.randrange(params.q) for _ in range(rng.randrange(max_deg + 1) + 1)]
    den = [rng.randrange(max_exp + 1) for _ in range(params.d - 1)]
    return rational(params, num, den)


# ---------------------------------------------------------------------------
# parameters


def test_primality():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)


def test_ring_params_examples():
    assert ring_params(2, 2).l == (0,)
    assert ring_params(3, 3).l == (0, 1)
    assert ring_params(5, 4).l == (0, 1, 2)


@pytest.mark.parametrize("q,d", [(2, 2), (3, 2), (3, 3), (5, 4), (7, 5)])
def test_ring_params_differences_invertible(q, d):
    p = ring_params(q, d)
    for i, li in enumerate(p.l):
        for lj in p.l[:i]:
            assert (li - lj) % q != 0


def test_ring_params_rejections():
    with pytest.raises(ValueError):
        ring_params(4, 2)
    with pytest.raises(ValueError):
        ring_params(9, 3)
    with pytest.raises(ValueError):
        ring_params(2, 4)  # would need 3 points in Z/2
    with pytest.raises(ValueError):
        ring_params(3, 1)


# ---------------------------------------------------------------------------
# polynomial layer


def test_poly_basics():
    q = 3
    assert padd((1, 2), (2, 1), q) == ()
    assert pmul((1, 1), (1, 1), 2) == (1, 0, 1)
    assert pmul((), (1, 2), q) == ()
    assert pneg((1, 2), q) == (2, 1)
    assert ptrim([1, 0, 0]) == (1,)
    assert peval((1, 1, 1), 2, q) == (1 + 2 + 4) % 3


@pytest.mark.parametrize("q", [2, 3, 5])
def test_div_linear_roundtrip(q):
    rng = random.Random(100 + q)
    for _ in range(50):
        a = ptrim([rng.randrange(q) for _ in range(rng.randrange(7) + 1)])
        c = rng.randrange(q)
        prod = pmul_linear(a, c, q)
        assert pdiv_linear(prod, c, q) == a
    with pytest.raises(ValueError):
        pdiv_linear((1, 1), 0, 2)  # t + 1 is not divisible by t


@pytest.mark.parametrize("q", [2, 3, 5])
def test_shift_var_matches_oracle_and_evaluation(q):
    rng = random.Random(200 + q)
    for _ in range(40):
        a = ptrim([rng.randrange(q) for _ in range(rng.randrange(8) + 1)])
        e = rng.randrange(q)
        shifted = pshift_var(a, e, q)
        assert shifted == taylor_shift(a, e, q)
        for x in range(q):
            assert peval(shifted, x, q) == peval(a, (x + e) % q, q)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_series_inverse(q):
    rng = random.Random(300 + q)
    for _ in range(30):
        f = [rng.randrange(q) for _ in range(rng.randrange(5) + 1)]
        f[0] = rng.randrange(1, q)
        f = tuple(f)
        n = 12
        g = series_inv(f, n, q)
        assert series_mul(f, g, n, q) == (1,) + (0,) * (n - 1)
    with pytest.raises(ValueError):
        series_inv((0, 1), 4, q)
    # the constant term is inverted as a unit, not by Fermat's little
    # theorem, so a composite modulus works for a unit constant term and
    # rejects any other
    g = series_inv((5, 1), 6, 6)
    assert g[0] == 5 and series_mul((5, 1), g, 6, 6) == (1, 0, 0, 0, 0, 0)
    g = series_inv((3, 2, 1), 8, 4)
    assert series_mul((3, 2, 1), g, 8, 4) == (1,) + (0,) * 7
    for f, m in (((2, 1), 4), ((3, 1), 6), ((2, 1), 6)):
        with pytest.raises(ValueError, match="invertible constant term"):
            series_inv(f, 3, m)


# ---------------------------------------------------------------------------
# ring elements


def test_normal_form_reduction():
    p = ring_params(2, 2)
    # t / t reduces to 1
    assert rational(p, (0, 1), (1,)) == rat_const(p, 1)
    # zero is unique regardless of the denominator it was built with
    assert rational(p, (), (3,)) == rat_zero(p)
    assert rational(p, (0,), (2,)) == rat_zero(p)
    p3 = ring_params(3, 3)
    # t(t+1) / (t(t+1)) over Z/3
    assert rational(p3, (0, 1, 1), (1, 1)) == rat_const(p3, 1)


def test_rational_rejects_bad_denominators():
    p = ring_params(2, 2)
    with pytest.raises(ValueError):
        rational(p, (1,), (1, 1))
    with pytest.raises(ValueError):
        rational(p, (1,), (-1,))


def test_normal_form_invariant_random():
    rng = random.Random(7)
    for q, d in [(2, 2), (3, 3), (5, 3)]:
        p = ring_params(q, d)
        for _ in range(60):
            a = random_element(p, rng)
            if a.is_zero():
                assert a.den == (0,) * (d - 1)
                continue
            for i, li in enumerate(p.l):
                if a.den[i] > 0:
                    assert peval(a.num, (-li) % q, q) != 0


def test_mul_inverse_pair_example():
    p = ring_params(3, 3)
    inv = rational(p, (1,), (0, 1))  # 1 / (t + 1)
    lin = rational(p, (1, 1))  # t + 1
    assert rat_mul(inv, lin) == rat_const(p, 1)
    assert rat_mul(lin, inv) == rat_const(p, 1)


def test_scale_unit_examples():
    p = ring_params(2, 2)
    one = rat_const(p, 1)
    inv_t = rat_scale_unit(one, 1, -1)
    assert inv_t == rational(p, (1,), (1,))
    assert rat_scale_unit(inv_t, 1, 1) == one
    with pytest.raises(ValueError):
        rat_scale_unit(one, 2, 1)


@pytest.mark.parametrize("q,d", [(2, 2), (3, 3), (5, 3)])
def test_ring_axioms_random(q, d):
    p = ring_params(q, d)
    rng = random.Random(1000 + 10 * q + d)
    for _ in range(40):
        a = random_element(p, rng)
        b = random_element(p, rng)
        c = random_element(p, rng)
        assert rat_add(a, b) == rat_add(b, a)
        assert rat_mul(a, b) == rat_mul(b, a)
        assert rat_add(rat_add(a, b), c) == rat_add(a, rat_add(b, c))
        assert rat_mul(rat_mul(a, b), c) == rat_mul(a, rat_mul(b, c))
        assert rat_mul(a, rat_add(b, c)) == rat_add(rat_mul(a, b), rat_mul(a, c))
        assert rat_add(a, rat_neg(a)) == rat_zero(p)
        assert rat_mul(a, rat_const(p, 1)) == a


@pytest.mark.parametrize("q,d", [(2, 2), (3, 3), (5, 3)])
def test_ops_against_cross_multiplication_oracle(q, d):
    # verify results through expanded denominators, never through reduction
    p = ring_params(q, d)
    rng = random.Random(2000 + 10 * q + d)
    for _ in range(40):
        a = random_element(p, rng)
        b = random_element(p, rng)
        s = rat_add(a, b)
        da, db, ds = dense_den(p, a.den), dense_den(p, b.den), dense_den(p, s.den)
        lhs = mul_poly(mul_poly(s.num, da, q), db, q)
        rhs_a = mul_poly(mul_poly(a.num, db, q), ds, q)
        rhs_b = mul_poly(mul_poly(b.num, da, q), ds, q)
        assert lhs == add_poly(rhs_a, rhs_b, q)
        m = rat_mul(a, b)
        dm = dense_den(p, m.den)
        assert mul_poly(m.num, mul_poly(da, db, q), q) == mul_poly(
            mul_poly(a.num, b.num, q), dm, q
        )


@pytest.mark.parametrize("q,d", [(2, 2), (3, 3)])
def test_scale_unit_roundtrip_random(q, d):
    p = ring_params(q, d)
    rng = random.Random(3000 + 10 * q + d)
    for _ in range(40):
        a = random_element(p, rng)
        place = rng.randrange(1, d)
        e = rng.randrange(-3, 4)
        scaled = rat_scale_unit(a, place, e)
        assert rat_scale_unit(scaled, place, -e) == a
        # scaling by a unit multiplies through: check by cross multiplication
        da, ds = dense_den(p, a.den), dense_den(p, scaled.den)
        unit = (p.l[place - 1] % q, 1)
        lhs = mul_poly(scaled.num, da, q)
        rhs = mul_poly(a.num, ds, q)
        if e >= 0:
            for _ in range(e):
                rhs = mul_poly(rhs, unit, q)
        else:
            for _ in range(-e):
                lhs = mul_poly(lhs, unit, q)
        assert lhs == rhs


# ---------------------------------------------------------------------------
# expansions


def test_expand_examples():
    p2 = ring_params(2, 2)
    t = rational(p2, (0, 1))
    assert expand_local(t, 1, -1, 2) == (0, 0, 1, 0)
    inv_t = rational(p2, (1,), (1,))
    assert expand_local(inv_t, 2, 0, 3) == (0, 1, 0, 0)
    p3 = ring_params(2, 3)
    geom = rational(p3, (1,), (0, 1))  # 1 / (t + 1) over Z/2
    assert expand_local(geom, 1, 0, 2) == (1, 1, 1)
    zero = rat_zero(p3)
    assert expand_local(zero, 2, -2, 2) == (0,) * 5
    # windows wholly below the valuation hold no digit of the series
    inv_t2 = rational(p2, (1,), (2,))  # starts at exponent -2 at place 1, 2 at infinity
    assert expand_local(inv_t2, 1, -5, -3) == (0, 0, 0)
    assert expand_local(inv_t2, 2, -1, 1) == (0, 0, 0)
    assert expand_local(inv_t2, 1, -3, -2) == (0, 1)
    assert expand_local(inv_t2, 2, 1, 2) == (0, 1)


def test_expand_window_validation():
    p = ring_params(2, 2)
    with pytest.raises(ValueError):
        expand_local(rat_const(p, 1), 1, 3, 2)
    with pytest.raises(ValueError):
        expand_local(rat_const(p, 1), 5, 0, 1)


def test_constant_expansions():
    p = ring_params(3, 3)
    c = rat_const(p, 2)
    for place in (1, 2):
        w = expand_local(c, place, -2, 3)
        assert w == (0, 0, 2, 0, 0, 0)
    # at infinity a constant sits at exponent 0 as well
    w = expand_local(c, 3, -1, 2)
    assert w == (0, 2, 0, 0)


def test_valuation_examples():
    p2 = ring_params(2, 2)
    t = rational(p2, (0, 1))
    assert valuation(t, 1) == 1
    assert valuation(t, 2) == -1
    assert valuation(rat_const(p2, 1), 1) == 0
    assert valuation(rat_zero(p2), 1) is None
    p3 = ring_params(2, 3)
    geom = rational(p3, (1,), (0, 1))
    assert valuation(geom, 1) == 0
    assert valuation(geom, 2) == -1
    assert valuation(geom, 3) == 1


@pytest.mark.parametrize("q,d", [(2, 2), (2, 3), (3, 3), (5, 3)])
def test_expansion_inverse_identity_oracle(q, d):
    """Digits times the local denominator reproduce the numerator prefix."""
    p = ring_params(q, d)
    rng = random.Random(4000 + 10 * q + d)
    for _ in range(30):
        a = random_element(p, rng)
        if a.is_zero():
            continue
        hi = 7
        for place in range(1, d):
            li = p.l[place - 1]
            m = a.den[place - 1]
            lo = -m
            w = expand_local(a, place, lo, hi)
            # digit polynomial in s, shifted so exponent lo sits at degree 0
            digit_poly = ptrim(w)
            # unit part of the denominator written directly in s
            unit = (1,)
            for j, lj in enumerate(p.l):
                if j != place - 1:
                    for _ in range(a.den[j]):
                        unit = mul_poly(unit, ((lj - li) % q, 1), q)
            lhs = mul_poly(digit_poly, unit, q)
            nhat = taylor_shift(a.num, (-li) % q, q)
            # lhs * s^(lo + m) should equal nhat as a series prefix; here
            # lo + m = 0, so compare prefixes directly up to degree hi + m
            prec = hi + m + 1
            lhs_prefix = (lhs + (0,) * prec)[:prec]
            rhs_prefix = (nhat + (0,) * prec)[:prec]
            assert lhs_prefix == rhs_prefix
        # place at infinity
        total = sum(a.den)
        deg = len(a.num) - 1
        val = total - deg
        lo = val
        w = expand_local(a, d, lo, hi)
        digit_poly = ptrim(w)
        wpoly = (1,)
        for j, lj in enumerate(p.l):
            for _ in range(a.den[j]):
                wpoly = mul_poly(wpoly, (1, lj % q), q)
        lhs = mul_poly(digit_poly, wpoly, q)
        ntil = ptrim(tuple(reversed(a.num)))
        prec = hi - lo + 1
        lhs_prefix = (lhs + (0,) * prec)[:prec]
        rhs_prefix = (ntil + (0,) * prec)[:prec]
        assert lhs_prefix == rhs_prefix


@pytest.mark.parametrize("q,d", [(2, 2), (3, 3)])
def test_expansion_window_consistency_and_linearity(q, d):
    p = ring_params(q, d)
    rng = random.Random(5000 + 10 * q + d)
    for _ in range(25):
        a = random_element(p, rng)
        b = random_element(p, rng)
        s = rat_add(a, b)
        for place in range(1, d + 1):
            wa = expand_local(a, place, -4, 6)
            wb = expand_local(b, place, -4, 6)
            ws = expand_local(s, place, -4, 6)
            assert ws == tuple((x + y) % q for x, y in zip(wa, wb))
            # windows agree on overlaps
            inner = expand_local(a, place, -2, 3)
            assert inner == wa[2:8]


def test_expansion_digits_below_valuation_vanish():
    p = ring_params(3, 3)
    rng = random.Random(99)
    for _ in range(30):
        a = random_element(p, rng)
        if a.is_zero():
            continue
        for place in range(1, p.d + 1):
            v = valuation(a, place)
            w = expand_local(a, place, v - 4, v)
            assert w[:4] == (0, 0, 0, 0)
            assert w[4] != 0  # leading digit at the valuation


# ---------------------------------------------------------------------------
# partial-fraction digits


def sum_of_fractions(params, digits):
    """The element with the given partial-fraction digits, term by term."""
    *parts, poly = digits
    out = rational(params, poly)
    for place, part in enumerate(parts, start=1):
        for n, a in enumerate(part, start=1):
            den = [0] * (params.d - 1)
            den[place - 1] = n
            out = rat_add(out, rational(params, (a,), den))
    return out


def special_elements(params):
    """Zero, pure polynomials, and a high pole at every place alone."""
    q, d = params.q, params.d
    out = [rat_zero(params), rat_const(params, 1), rational(params, (1, 2 % q, 0, 1))]
    for place in range(1, d):
        den = [0] * (d - 1)
        den[place - 1] = 9
        out.append(rational(params, (1,), den))
        out.append(rational(params, (1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1), den))
    return out


@pytest.mark.parametrize("q,d", [(2, 2), (3, 3), (5, 3), (5, 4)])
def test_partial_fractions_roundtrip(q, d):
    p = ring_params(q, d)
    rng = random.Random(5000 + 10 * q + d)
    elements = special_elements(p)
    elements += [random_element(p, rng, max_deg=8, max_exp=6) for _ in range(60)]
    for a in elements:
        digits = partial_fractions(a)
        assert len(digits) == d
        assert tuple(map(len, digits[:-1])) == a.den  # pole orders are the den
        for part in digits:
            assert ptrim(part) == part and all(0 <= v < q for v in part)
        back = from_partial_fractions(p, digits)
        assert back == a == rational(p, back.num, back.den)
        assert sum_of_fractions(p, digits) == a


@pytest.mark.parametrize("q,d", [(2, 3), (3, 3), (5, 4)])
def test_partial_fractions_of_random_digits(q, d):
    # the digits of a sum of fractions are its coefficients, top digit nonzero
    p = ring_params(q, d)
    rng = random.Random(6000 + 10 * q + d)
    for _ in range(40):
        digits = tuple(
            ptrim(rng.randrange(q) for _ in range(rng.randrange(6))) for _ in range(d)
        )
        assert partial_fractions(sum_of_fractions(p, digits)) == digits
        assert from_partial_fractions(p, digits) == sum_of_fractions(p, digits)


@pytest.mark.parametrize("q,d", [(2, 2), (3, 3), (5, 3)])
def test_partial_fractions_are_additive(q, d):
    p = ring_params(q, d)
    rng = random.Random(7000 + 10 * q + d)
    for _ in range(40):
        a = random_element(p, rng, max_deg=7, max_exp=5)
        b = random_element(p, rng, max_deg=7, max_exp=5)
        got = pf_add(partial_fractions(a), partial_fractions(b), q)
        assert got == partial_fractions(rat_add(a, b))
        assert pf_add(partial_fractions(a), partial_fractions(rat_neg(a)), q) == ((),) * d


def test_partial_fractions_reject_mismatched_rings():
    p2, p3 = ring_params(2, 2), ring_params(3, 3)
    a3 = partial_fractions(rational(p3, (1, 2), (1, 1)))
    with pytest.raises(ValueError):
        from_partial_fractions(p2, a3)  # three places against two
    with pytest.raises(ValueError):
        pf_add(partial_fractions(rat_const(p2, 1)), a3, 2)
    with pytest.raises(ValueError):
        from_partial_fractions(p2, ((2,), ()))  # 2 is no digit mod 2
    with pytest.raises(ValueError):
        from_partial_fractions(p2, ((1, 0), ()))  # untrimmed
