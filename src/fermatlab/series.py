"""Truncated Laurent series with exact Gaussian-rational coefficients.

A series is stored densely on the exponent range [low, high]; ``high`` is the
truncation order: coefficients beyond it are unknown, coefficients inside the
range are authoritative (including explicit zeros).  Arithmetic propagates the
truncation order pessimistically, so "identically zero through order N" is a
meaningful, certified statement.

Coefficients are kept as numerators over one common denominator, as FLINT's
``fmpq_poly`` does: coefficient k is ``(re[k] + i*im[k]) / den``.  ``re``
and ``im`` are Python ints, ``den`` is a positive int and every result is
reduced once by ``gcd(den, *re, *im)``, which makes the representation
canonical.  ``coeffs``, ``coefficient()`` and ``leading_terms()`` build
``RationalComplex`` values on demand.  Coefficients are given as ints,
Fractions or ``RationalComplex``; a float is refused with ``TypeError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub

from .scalars import RationalComplex


def _parts(c):
    """(re, im, den) integers with c == (re + i*im) / den and den > 0."""
    if type(c) is int:
        return c, 0, 1
    c = RationalComplex.coerce(c)
    den = lcm(c.re.denominator, c.im.denominator)
    return (
        c.re.numerator * (den // c.re.denominator),
        c.im.numerator * (den // c.im.denominator),
        den,
    )


def _numerators(coeffs):
    """(den, re, im): the coefficients as numerators over their least
    common denominator."""
    parts = [_parts(c) for c in coeffs]
    den = lcm(*(d for _, _, d in parts))
    return den, [r * (den // d) for r, _, d in parts], [i * (den // d) for _, i, d in parts]


def _view(den, r, i):
    return RationalComplex(Fraction(r, den), Fraction(i, den))


def _reduce(den, re, im):
    """Divide the numerators and the denominator by their common gcd."""
    g = gcd(den, *re, *im)
    if g > 1:
        return den // g, tuple(x // g for x in re), tuple(x // g for x in im)
    return den, tuple(re), tuple(im)


def _conv(a, b, start, stop):
    """Coefficients start .. stop-1 of the product of the sequences a and b
    (schoolbook convolution)."""
    if not any(a) or not any(b):
        return [0] * (stop - start)
    la, lb = len(a), len(b)
    rb = b[::-1]
    out = []
    for k in range(start, stop):
        i0 = max(0, k - lb + 1)
        i1 = min(k + 1, la)
        j = lb - 1 - k  # rb[j + i] == b[k - i]
        out.append(sum(map(mul, a[i0:i1], rb[j + i0 : j + i1])))
    return out


def _cmul(ar, ai, br, bi, start, stop):
    """Coefficients start .. stop-1 of (ar + i*ai) * (br + i*bi)."""
    re = _conv(ar, br, start, stop)
    im = _conv(ar, bi, start, stop)
    if any(ai):
        re = list(map(sub, re, _conv(ai, bi, start, stop)))
        im = list(map(add, im, _conv(ai, br, start, stop)))
    return re, im


def _inverse(den, re, im, n):
    """(den, re, im) of the first n coefficients of 1/a, where
    a = (re + i*im) / den has a nonzero constant term.

    Newton doubling B <- B (2 - a B): if a B = 1 + O(w^p), the step fixes
    coefficients p .. 2p-1 as -(B * T), T being coefficients p .. 2p-1 of a B.
    """
    r0, i0 = re[0], im[0]
    bd, br, bi = r0 * r0 + i0 * i0, (den * r0,), (-den * i0,)
    p = 1
    while p < n:
        q = min(2 * p, n)
        tr, ti = _cmul(re[:q], im[:q], br, bi, p, q)  # over den * bd
        cr, ci = _cmul(br, bi, tr, ti, 0, q - p)  # over den * bd**2
        f = den * bd
        bd, br, bi = _reduce(
            den * bd * bd,
            [x * f for x in br] + [-x for x in cr],
            [x * f for x in bi] + [-x for x in ci],
        )
        p = q
    return bd, br, bi


def _normal(low, high, den, re, im) -> "LaurentSeries":
    """Series from numerators on [low, high]: checks the pole order, advances
    past exact leading zeros (keeping the truncation order) and reduces."""
    if low < -LaurentSeries.MAX_POLE_ORDER:
        raise ValueError(
            f"pole order {-low} exceeds the supported maximum "
            f"{LaurentSeries.MAX_POLE_ORDER}"
        )
    if high - low + 1 != len(re):
        raise ValueError("coefficient span does not match [low, high]")
    lead = 0
    while lead < len(re) and re[lead] == 0 and im[lead] == 0:
        lead += 1
    den, re, im = _reduce(den, re[lead:], im[lead:])
    return LaurentSeries(low + lead, high, den, re, im)


@dataclass(frozen=True)
class LaurentSeries:
    """sum of (re[k] + i*im[k]) / den * w**(low + k), truncated beyond
    exponent ``high``."""

    low: int
    high: int
    den: int
    re: tuple
    im: tuple

    #: deepest pole representable; beyond this the dense layout and the
    #: pessimistic truncation bookkeeping stop being useful
    MAX_POLE_ORDER = 12

    @staticmethod
    def make(low, coeffs, high=None) -> "LaurentSeries":
        den, re, im = _numerators(coeffs)
        if high is None:
            high = low + len(re) - 1
        return _normal(low, high, den, re, im)

    @staticmethod
    def zero(high) -> "LaurentSeries":
        return LaurentSeries(high + 1, high, 1, (), ())

    @staticmethod
    def constant(value, high) -> "LaurentSeries":
        return LaurentSeries.make(0, [value] + [0] * high, high)

    # -- inspection ---------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.re

    @property
    def coeffs(self) -> tuple:
        """Coefficients of exponents low .. high as RationalComplex values."""
        return tuple(_view(self.den, r, i) for r, i in zip(self.re, self.im))

    def coefficient(self, k: int):
        """Coefficient of w**k; k must not exceed the truncation order."""
        if k > self.high:
            raise ValueError(f"exponent {k} beyond truncation order {self.high}")
        if k < self.low:
            return _view(1, 0, 0)
        return _view(self.den, self.re[k - self.low], self.im[k - self.low])

    def is_zero_through(self, order: int) -> bool:
        """True iff every coefficient with exponent <= order is exactly zero.

        Requires the series to be valid through ``order``.
        """
        if self.high < order:
            raise ValueError(
                f"series truncated at {self.high}, cannot certify through {order}"
            )
        n = max(0, order - self.low + 1)
        return not any(self.re[:n]) and not any(self.im[:n])

    def leading_terms(self, count: int = 3):
        """(exponent, coefficient) pairs of the first nonzero terms."""
        out = []
        for k, (r, i) in enumerate(zip(self.re, self.im)):
            if r != 0 or i != 0:
                out.append((self.low + k, _view(self.den, r, i)))
                if len(out) >= count:
                    break
        return out

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other):
        high = min(self.high, other.high)
        low = min(self.low, other.low)
        if low > high:
            return LaurentSeries.zero(high)
        den = lcm(self.den, other.den)
        re = [0] * (high - low + 1)
        im = [0] * (high - low + 1)
        for s in (self, other):
            f = den // s.den
            off = s.low - low
            for k in range(max(0, high - s.low + 1)):
                re[off + k] += f * s.re[k]
                im[off + k] += f * s.im[k]
        return _normal(low, high, den, re, im)

    def __neg__(self):
        return LaurentSeries(
            self.low,
            self.high,
            self.den,
            tuple(-x for x in self.re),
            tuple(-x for x in self.im),
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "LaurentSeries":
        cr, ci, cd = _parts(c)
        if cr == 0 and ci == 0:
            return LaurentSeries.zero(self.high)
        re = [cr * r - ci * i for r, i in zip(self.re, self.im)]
        im = [cr * i + ci * r for r, i in zip(self.re, self.im)]
        den, re, im = _reduce(self.den * cd, re, im)
        return LaurentSeries(self.low, self.high, den, re, im)

    def __mul__(self, other):
        # the first unknown product coefficient comes from one factor's unknown
        # tail (exponent > high) paired with the other's lowest known term
        high = min(self.high + other.low, other.high + self.low)
        if self.is_zero or other.is_zero:
            return LaurentSeries.zero(high)
        low = self.low + other.low
        n = high - low + 1
        if n <= 0:
            return LaurentSeries.zero(high)
        re, im = _cmul(self.re[:n], self.im[:n], other.re[:n], other.im[:n], 0, n)
        return _normal(low, high, self.den * other.den, re, im)

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("series exponent must be an int")
        if k < 0:
            return self.invert() ** (-k)
        if k == 0:
            return LaurentSeries.constant(1, max(self.high, 0))
        # repeated multiplication keeps the truncation bookkeeping honest
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def invert(self) -> "LaurentSeries":
        """Multiplicative inverse; requires a nonzero leading coefficient.

        For self = w**m * u the inverse is w**-m / u; u is known through
        relative order high - m, so the inverse is valid through
        high - 2m and has high - m + 1 trusted terms.
        """
        if self.is_zero:
            raise ZeroDivisionError("cannot invert the zero series")
        if self.re[0] == 0 and self.im[0] == 0:
            raise ZeroDivisionError("leading coefficient vanished")
        m = self.low
        den, re, im = _inverse(self.den, self.re, self.im, self.high - m + 1)
        return _normal(-m, self.high - 2 * m, den, re, im)

    def differentiate(self) -> "LaurentSeries":
        e = range(self.low, self.low + len(self.re))
        return _normal(
            self.low - 1,
            self.high - 1,
            self.den,
            list(map(mul, self.re, e)),
            list(map(mul, self.im, e)),
        )


# ---------------------------------------------------------------------------
# Stock series.
# ---------------------------------------------------------------------------


def exp_series(c, order: int) -> LaurentSeries:
    """Series of exp(c*w) through w**order."""
    # c = (cr + i*ci)/cd, so c^k/k! = (cr + i*ci)^k * scale[k] / scale[0]
    # over the common denominator scale[0] = order! * cd**order
    cr, ci, cd = _parts(c)
    scale = [1] * (order + 1)
    for k in range(order - 1, -1, -1):
        scale[k] = scale[k + 1] * cd * (k + 1)
    re, im = [], []
    pr, pi = 1, 0
    for s in scale:
        re.append(pr * s)
        im.append(pi * s)
        pr, pi = pr * cr - pi * ci, pr * ci + pi * cr
    return _normal(0, order, scale[0], re, im)


def _wp_tail(g2, g3, kmax: int):
    """(den, re, im): numerators of the Taylor tail coefficients c_k of the
    Weierstrass function for k = 0 .. kmax (c_0 = c_1 = 0) over one common
    denominator:
    wp(w) = w**-2 + sum_{k>=2} c_k w**(2k-2), with
    c_2 = g2/20, c_3 = g3/28 and the classical quadratic recurrence
    c_k = 3/((2k+1)(k-3)) * sum_{j=2}^{k-2} c_j c_{k-j} for k >= 4.
    """
    r2, i2, d2 = _parts(g2)
    r3, i3, d3 = _parts(g3)
    den = lcm(20 * d2, 28 * d3)
    re = [0] * (kmax + 1)
    im = [0] * (kmax + 1)
    f2, f3 = den // (20 * d2), den // (28 * d3)
    re[2], im[2], re[3], im[3] = r2 * f2, i2 * f2, r3 * f3, i3 * f3
    for k in range(4, kmax + 1):
        # c_k = 3 S / ((2k+1)(k-3) den^2), S = sum_{j=2}^{k-2} n_j n_{k-j};
        # S's imaginary part doubles one cross sum, by symmetry in j <-> k-j
        a, b = slice(2, k - 1), slice(k - 2, 1, -1)
        sr = 3 * (sum(map(mul, re[a], re[b])) - sum(map(mul, im[a], im[b])))
        si = 6 * sum(map(mul, re[a], im[b]))
        kd = (2 * k + 1) * (k - 3) * den * den
        g = gcd(sr, si, kd)
        sr, si, kd = sr // g, si // g, kd // g
        new = lcm(den, kd)
        if new != den:
            f = new // den
            re = [x * f for x in re]
            im = [x * f for x in im]
            den = new
        f = den // kd
        re[k], im[k] = sr * f, si * f
    return den, re, im


def wp_series(g2, g3, order: int = 40) -> LaurentSeries:
    """Laurent series of the Weierstrass function for invariants (g2, g3),
    valid through w**order."""
    if order < 4:
        raise ValueError("truncation order must be >= 4")
    kmax = (order + 2) // 2  # exponent 2k-2 <= order
    den, cre, cim = _wp_tail(g2, g3, kmax)
    # exponents -2 .. order; c_k sits at exponent 2k-2, index 2k
    re = [0] * (order + 3)
    im = [0] * (order + 3)
    re[0] = den  # w^-2
    re[4 : 2 * kmax + 1 : 2] = cre[2:]
    im[4 : 2 * kmax + 1 : 2] = cim[2:]
    return _normal(-2, order, den, re, im)


def ode_residual_series(g2, g3, order: int = 40) -> LaurentSeries:
    """Series of (wp')^2 - 4 wp^3 + g2 wp + g3, valid through w**order.

    For honest invariants this is identically zero; the truncation
    bookkeeping guarantees the certificate covers every exponent <= order.
    """
    if order < 10:
        raise ValueError("truncation order must be >= 10 for the cubic-law residual")
    p = wp_series(g2, g3, order + 4)
    dp = p.differentiate()
    res = dp * dp - (p * p * p).scale(4) + p.scale(g2) + LaurentSeries.constant(g3, order)
    if res.high < order:
        raise AssertionError("internal truncation slack was insufficient")
    return res
