"""Double-double arithmetic on float64 arrays, elementwise.

A real value is a pair ``(hi, lo)`` of arrays whose unevaluated sum carries
about 106 bits; stacked along a new first axis it is an array of shape
``(2, ...)``, and a complex value is a stack ``(re_hi, re_lo, im_hi, im_lo)``
of shape ``(4, ...)``.  The error-free transformations are Knuth's TwoSum
and Dekker's TwoProduct; numpy has no fused multiply-add, so products split
their factors with Veltkamp (a table that enters many products is split
once, by ``presplit``).  Additions are the cheap ("sloppy") kind: their
error is about 2**-104 of the operands rather than of the sum, which is
enough wherever the terms share a sign or their magnitudes are known.
"""

from __future__ import annotations

from math import factorial

import numpy as np


def split(x):
    """Veltkamp: x = hi + lo, each half with at most 26 significant bits."""
    c = 134217729.0 * x  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def two_sum(a, b):
    """s + e == a + b exactly, with s = fl(a + b)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def two_prod(a, b):
    """p + e == a * b exactly, with p = fl(a * b) (no overflow or underflow)."""
    p = a * b
    a_hi, a_lo = split(a)
    b_hi, b_lo = split(b)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _renorm(s, e):
    hi = s + e
    return hi, e - (hi - s)


def add(x, y):
    s, e = two_sum(x[0], y[0])
    return _renorm(s, e + (x[1] + y[1]))


def presplit(x):
    """The pair x with its high word Veltkamp-split, ``(hi, lo, hi_hi,
    hi_lo)``: a table split once serves every product it enters."""
    return (x[0], x[1], *split(x[0]))


def mul_presplit(x, y):
    """x * y for two ``presplit`` pairs as an unnormalized pair (``add``
    takes it as is): the TwoProduct of the high words, plus the cross terms
    in its error word."""
    p = x[0] * y[0]
    e = ((x[2] * y[2] - p) + x[2] * y[3] + x[3] * y[2]) + x[3] * y[3]
    return p, e + (x[0] * y[1] + x[1] * y[0])


def mul(x, y):
    return _renorm(*mul_presplit(presplit(x), presplit(y)))


def sqr(x):
    """x * x, splitting x's high word once."""
    p = x[0] * x[0]
    hi, lo = split(x[0])
    e = ((hi * hi - p) + 2.0 * hi * lo) + lo * lo
    return _renorm(p, e + 2.0 * x[0] * x[1])


def div(x, y):
    """x / y, to about 2**-104 relative."""
    q = x[0] / y[0]
    r = add(x, mul((-q, np.zeros_like(q)), y))
    return _renorm(q, r[0] / y[0])


def sqrt(x):
    """Square root of x > 0, to about 2**-104 relative: one Newton step from
    the float64 root, whose square is exact in TwoProduct."""
    s = np.sqrt(x[0])
    p, e = two_prod(s, s)
    return _renorm(s, ((x[0] - p) - e + x[1]) / (2.0 * s))


def stack_add(x, y):
    """Sum of two stacks of pairs (real or complex), pair by pair."""
    return np.stack(np.broadcast_arrays(
        *(part for i in range(0, len(x), 2)
          for part in add(x[i:i + 2], y[i:i + 2]))))


def cmul(x, y):
    """Product of two complex stacks."""
    xr, xi, yr, yi = x[0:2], x[2:4], y[0:2], y[2:4]
    re = add(mul(xr, yr), mul(xi, (-yi[0], -yi[1])))
    im = add(mul(xr, yi), mul(xi, yr))
    return np.stack(np.broadcast_arrays(*re, *im))


def cscale(x, s):
    """Complex stack x times the float64 array s, whose values are exact."""
    zero = np.zeros_like(s)
    return np.stack(np.broadcast_arrays(*mul(x[0:2], (s, zero)),
                                        *mul(x[2:4], (s, zero))))


def total(x, axis=1):
    """Sum of a stack of pairs over ``axis`` (not 0), pairwise."""
    x = np.moveaxis(x, axis, 1)
    while x.shape[1] > 1:
        if x.shape[1] % 2:
            x = np.concatenate([x, np.zeros_like(x[:, :1])], axis=1)
        x = stack_add(x[:, 0::2], x[:, 1::2])
    return x[:, 0]


def cpowers(z, count):
    """``z**0 .. z**(count-1)`` stacked along a new axis 1, and ``z**(2**j)``
    for the least 2**j >= count, from products of squares; each squaring
    doubles the phase error it is given, so z**k is off by up to about
    k * 2**-104 relative (``cis`` gives one power to 2**-104 at any k)."""
    p = np.zeros((4, 1) + z.shape[1:])
    p[0] = 1.0
    q = z
    while p.shape[1] < count:
        p = np.concatenate([p, cmul(p, q[:, None])], axis=1)
        q = cmul(q, q)
    return p[:, :count], q


def _pair(p: int, q: int):
    """p/q as a pair (Python rounds a quotient of ints correctly)."""
    hi = p / q
    a, b = hi.as_integer_ratio()
    return hi, (p * b - a * q) / (q * b)


# floor(pi/2 * 2**256), and (-1)**(j//2) / j! as pairs for j < 30: the
# Taylor terms of cos r (even j) and sin r (odd j); the rest are < 3e-36
_PIO2 = 0x1921fb54442d18469898cc51701b839a252049c1114cf98e804177d4c76273644
_TAYLOR = np.array([_pair((-1) ** (j // 2), factorial(j)) for j in range(30)])


def cis(n: int, t):
    """exp(i n t) as a complex stack, for an integer 0 <= n < 2**63 and the
    floats of a 1-D array t: n t is formed exactly in integers and reduced
    against ``_PIO2`` to |r| <= pi/4 (Payne and Hanek 1983); cos r and sin r
    are Taylor sums rotated by i**q (the QD library of Hida, Li and Bailey
    2001).  Good to about 2**-104 at any n, and relative for small r."""
    rows = []
    for x in np.asarray(t, dtype=float).tolist():
        num, den = x.as_integer_ratio()  # den is a power of two
        num *= n << 256
        q = (2 * num + den * _PIO2) // (2 * den * _PIO2)  # nearest
        rows.append((q % 4, *_pair(num - q * den * _PIO2, den << 256)))
    quad, *r = np.array(rows, dtype=float).reshape(-1, 3).T
    s, p = presplit(sqr(r)), (0.0, 0.0)
    for c in _TAYLOR.reshape(15, 2, 2)[::-1]:  # (cos r, sin(r)/r), (hi, lo)
        p = add(mul_presplit(presplit(p), s), c.T[..., None])
    cos, sin = np.stack(p)[:, 0], np.stack(mul(np.stack(p)[:, 1], r))
    turn = np.stack([cos, -sin, -cos, sin])  # Re(i**q (cos + i sin)) by q
    q = quad.astype(int)
    return np.concatenate([np.choose(q, turn), np.choose((q + 3) % 4, turn)])
