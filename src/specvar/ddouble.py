"""Double-double arithmetic on float64 arrays, elementwise.

A real value is a pair ``(hi, lo)`` of arrays whose unevaluated sum carries
about 106 bits; stacked along a new first axis it is an array of shape
``(2, ...)``, and a complex value is a stack ``(re_hi, re_lo, im_hi, im_lo)``
of shape ``(4, ...)``.  The error-free transformations are Knuth's TwoSum
and Dekker's TwoProduct; numpy has no fused multiply-add, so products split
their factors with Veltkamp.  Additions are the cheap ("sloppy") kind: their
error is about 2**-104 of the operands rather than of the sum, which is
enough wherever the terms share a sign or their magnitudes are known.
"""

from __future__ import annotations

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


def mul(x, y):
    p, e = two_prod(x[0], y[0])
    return _renorm(p, e + (x[0] * y[1] + x[1] * y[0]))


def div(x, y):
    """x / y, to about 2**-104 relative."""
    q = x[0] / y[0]
    r = add(x, mul((-q, np.zeros_like(q)), y))
    return _renorm(q, r[0] / y[0])


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
    for the least 2**j >= count; by repeated squaring, so the relative error
    grows like log2(count) * 2**-104 rather than count."""
    p = np.zeros((4, 1) + z.shape[1:])
    p[0] = 1.0
    q = z
    while p.shape[1] < count:
        p = np.concatenate([p, cmul(p, q[:, None])], axis=1)
        q = cmul(q, q)
    return p[:, :count], q


def cpow(z, ns):
    """``z**n`` for each integer n >= 0 in the array ns, along a new axis 1.

    n = a*B + b takes z**b from a table of B powers and z**(a*B) from the
    same recursion on the quotients; B is about sqrt(max n), capped by
    len(ns) (at least 16), so one n costs O(log n) products and a dense
    range of n one product each.
    """
    top = int(ns.max()) + 1
    if top <= max(16, len(ns)):
        return cpowers(z, top)[0][:, ns]
    B = 16
    while B * B < top and 2 * B <= len(ns):
        B *= 2
    table, zB = cpowers(z, B)
    return cmul(cpow(zB, ns // B), table[:, ns % B])


def cis(x):
    """exp(i x) for each float in the array x, as a complex stack: Taylor
    series in 40-digit decimal arithmetic, for |x| <= pi.  The error is
    about 1e-38, and for small |x| also relative to sin x."""
    import decimal  # here, so that importing the package does not load it

    out = np.zeros((4, len(x)))
    with decimal.localcontext(decimal.Context(prec=40)):
        eps = decimal.Decimal("1e-38")
        for j, t in enumerate(x):
            t = decimal.Decimal(float(t))
            parts = [decimal.Decimal(0), decimal.Decimal(0)]  # cos, sin
            term, k = decimal.Decimal(1), 0
            while abs(term) > abs(t) * eps:
                parts[k % 2] += term if k % 4 < 2 else -term
                k += 1
                term = term * t / k
            for i, d in enumerate(parts):
                hi = float(d)
                out[2 * i, j], out[2 * i + 1, j] = hi, float(d - decimal.Decimal(hi))
    return out
