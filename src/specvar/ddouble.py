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

from math import factorial, prod

import numpy as np

# the ufuncs every formula calls, with ``out`` passed by position: cheaper
# per call than an operator or a keyword, which counts for short arrays
_plus, _minus, _times = np.add, np.subtract, np.multiply

# Each formula makes one ufunc call per operation and names, for each, the
# slot of ``out`` its result goes to (``o_`` and the value's name): results
# first, then scratch.  A slot holds None (the default: numpy makes a fresh
# array, as an operator would) or an array of the result's full shape, which
# a caller can pass again and again, so that a loop allocates nothing.
# Unless a docstring says otherwise, the arrays of ``out`` must not overlap
# the operands.  A complex formula stacks its independent real operations
# (cmul's four products, the two parts of a sum or a scaling) along a new
# first axis, so that one call takes them all: each element still sees the
# same operations in the same order, and a short array pays the fixed cost
# of a call once, not two or four times.

def split(x, out=(None, None)):
    """Veltkamp: x = hi + lo, each half with at most 26 significant bits;
    ``out`` is (hi, lo)."""
    o_hi, o_lo = out
    c = _times(134217729.0, x, o_lo)  # 2**27 + 1
    hi = _minus(c, _minus(c, x, o_hi), o_hi)
    return hi, _minus(x, hi, o_lo)


def two_sum(a, b, out=(None,) * 3):
    """s + e == a + b exactly, with s = fl(a + b); ``out`` is (s, e, t)."""
    o_s, o_e, o_t = out
    s = _plus(a, b, o_s)
    bb = _minus(s, a, o_t)
    e = _minus(a, _minus(s, bb, o_e), o_e)
    return s, _plus(e, _minus(b, bb, o_t), o_e)


def _dekker(x, y, out=(None,) * 3):
    """TwoProduct p + e == x[0] * y[0] from the Veltkamp halves x[2:4] and
    y[2:4]; ``out`` is (p, e, t)."""
    o_p, o_e, o_t = out
    p = _times(x[0], y[0], o_p)
    e = _minus(_times(x[2], y[2], o_e), p, o_e)
    e = _plus(e, _times(x[2], y[3], o_t), o_e)
    e = _plus(e, _times(x[3], y[2], o_t), o_e)
    return p, _plus(e, _times(x[3], y[3], o_t), o_e)


def two_prod(a, b):
    """p + e == a * b exactly, with p = fl(a * b) (no overflow or underflow)."""
    return _dekker((a, None, *split(a)), (b, None, *split(b)))


def _renorm(s, e, out=(None, None)):
    """(s + e, its rounding error); ``out`` is (hi, lo), and lo may be s."""
    o_hi, o_lo = out
    hi = _plus(s, e, o_hi)
    return hi, _minus(e, _minus(hi, s, o_lo), o_lo)


def add(x, y, out=(None,) * 5):
    """x + y; ``out`` is (hi, lo, s, e, t), and hi and lo may be the arrays
    of x or y."""
    o_hi, o_lo, o_s, o_e, o_t = out
    s, e = two_sum(x[0], y[0], (o_s, o_e, o_t))
    e = _plus(e, _plus(x[1], y[1], o_t), o_e)
    return _renorm(s, e, (o_hi, o_lo))


def presplit(x):
    """The pair x with its high word Veltkamp-split, ``(hi, lo, hi_hi,
    hi_lo)``: a table split once serves every product it enters."""
    return (x[0], x[1], *split(x[0]))


def mul_presplit(x, y, out=(None,) * 4):
    """x * y for two ``presplit`` pairs as an unnormalized pair (``add``
    takes it as is): the TwoProduct of the high words, plus the cross terms
    in its error word; ``out`` is (p, e, t, u)."""
    o_p, o_e, o_t, o_u = out
    p, e = _dekker(x, y, (o_p, o_e, o_t))
    t = _plus(_times(x[0], y[1], o_t), _times(x[1], y[0], o_u), o_t)
    return p, _plus(e, t, o_e)


def mul(x, y):
    return _renorm(*mul_presplit(presplit(x), presplit(y)))


def sqr(x, out=(None,) * 7):
    """x * x, splitting x's high word once; ``out`` is (hi, lo, p, e, t,
    x_hi, x_lo), and hi and lo may be x's arrays."""
    o_hi, o_lo, o_p, o_e, o_t, *o_halves = out
    p = _times(x[0], x[0], o_p)
    hi, lo = split(x[0], o_halves)
    e = _minus(_times(hi, hi, o_e), p, o_e)
    t = _times(_times(2.0, hi, o_t), lo, o_t)
    e = _plus(_plus(e, t, o_e), _times(lo, lo, o_t), o_e)
    t = _times(_times(2.0, x[0], o_t), x[1], o_t)
    return _renorm(p, _plus(e, t, o_e), (o_hi, o_lo))


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


# cells of a complex product's broadcast shape (past its four planes) that
# one batched pass takes: the pass's workspace, twelve arrays of four planes,
# is 1.5 MiB, inside a core's L2 cache, and a product's transient memory
# stays that whatever its size
_CMUL_CELLS = 1 << 12


def cmul(x, y, out=None):
    """Product of two complex stacks, which broadcast against each other,
    into out (a fresh array when None), which it returns.  The four real
    products xr yr, xi (-yi), xr yi and xi yr run as one stacked ``mul``,
    and the two sums as one ``add``: every element sees the operations of
    four ``mul`` and two ``add`` calls, in their order.  The product goes in
    passes of whole runs of axis 1, at most _CMUL_CELLS cells each, through
    a workspace made per call; the passes go from the last run to the first,
    and each reads its operands before it writes, so out may be x's own
    array shifted to later positions of axis 1 (``cpowers`` grows its table
    so)."""
    x, y = np.broadcast_arrays(x, y)
    if out is None:
        out = np.empty(x.shape)
    rows, shape = x.shape[1], x.shape[2:]
    cells = prod(shape)
    per = max(1, min(rows, _CMUL_CELLS // max(1, cells)))
    work = np.empty(48 * per * cells)
    for r0 in reversed(range(0, rows, per)):
        r = min(per, rows - r0)
        at = slice(r0, r0 + r)
        w = work[:48 * r * cells].reshape((12, 4, r) + shape)
        # the four factor pairs of x and of y, hi and lo words apart
        for i, (v, planes) in enumerate([
                (x, (0, 2, 0, 2)), (x, (1, 3, 1, 3)),
                (y, (0, 2, 2, 0)), (y, (1, 3, 3, 1))]):
            np.take(v[:, at], planes, axis=0, out=w[i], mode="clip")
        np.negative(w[2:4, 1], out=w[2:4, 1])  # -yi
        p = mul_presplit((w[0], w[1], *split(w[0], w[4:6])),
                         (w[2], w[3], *split(w[2], w[6:8])), w[8:12])
        p = _renorm(*p, w[0:2])
        add((p[0][0::2], p[1][0::2]), (p[0][1::2], p[1][1::2]),
            (out[0::2, at], out[1::2, at], *w[2:5, :2]))
    return out


def _planes(hi, lo):
    """The complex stack of the pairs (hi[0], lo[0]) and (hi[1], lo[1])."""
    return np.stack([hi, lo], axis=1).reshape((4,) + hi.shape[1:])


def cscale(x, s):
    """Complex stack x times s, exact float64 values (an array or a number),
    as one ``mul`` on the stacked real and imaginary parts."""
    return _planes(*mul((x[0::2], x[1::2]), (s, 0.0)))


def cadd(x, y):
    """x + y for two complex stacks, as one ``add`` on the stacked parts."""
    return _planes(*add((x[0::2], x[1::2]), (y[0::2], y[1::2])))


def fold(x, k, work):
    """Sum of rows 0 .. k-1 of the pair x, pairwise and in place: each level
    adds rows 2i and 2i+1 into row i, an odd level first setting row k to
    the zero pair, so x's arrays need k + 1 rows.  ``work`` is three
    scratch arrays of at least (k + 1) // 2 rows; returns row 0."""
    hi, lo = x
    while k > 1:
        if k % 2:
            hi[k] = lo[k] = 0.0
            k += 1
        k //= 2
        add((hi[0:2 * k:2], lo[0:2 * k:2]), (hi[1:2 * k:2], lo[1:2 * k:2]),
            (hi[:k], lo[:k], *(w[:k] for w in work)))
    return hi[0], lo[0]


def total(x, axis=1):
    """Sum of a stack of pairs over ``axis`` (not 0), pairwise (``fold``)."""
    x = np.moveaxis(x, axis, 1)
    k = x.shape[1]
    w = np.empty((len(x) + 3, k + 1) + x.shape[2:])
    w[:len(x), :k] = x
    return np.stack([part for i in range(0, len(x), 2)
                     for part in fold(w[i:i + 2], k, w[-3:])])


def horner(c, s, work):
    """``sum_j c[j] s**j`` by Horner's rule, in place: c is a sequence of
    pairs (hi, lo) that broadcast against s, s a ``presplit`` pair, and
    ``work`` eight arrays of the result's shape; returns (work[0],
    work[1]).  Each step splits the partial sum p into work[2:4], takes p s
    into work[4:8] and adds the next coefficient back into work[0:2]."""
    p = work[0:2]
    np.copyto(p[0], c[-1][0])
    np.copyto(p[1], c[-1][1])
    for cj in c[-2::-1]:
        x = mul_presplit((*p, *split(p[0], work[2:4])), s, work[4:8])
        p = add(x, cj, (*work[0:4], work[6]))
    return p


def cpowers(z, count):
    """``z**0 .. z**(count-1)`` stacked along a new axis 1, and ``z**(2**j)``
    for the least 2**j >= count, from products of squares; each squaring
    doubles the phase error it is given, so z**k is off by up to about
    k * 2**-104 relative (``cis`` gives one power to 2**-104 at any k).
    The powers go into one table of 2**j + 1 rows: with z**0 .. z**(k-1)
    and the square z**k in rows 0 .. k, one ``cmul`` of those rows by z**k
    writes the next k powers and the next square into rows k .. 2k.  The
    square comes back as a copy, so it does not keep the table alive."""
    p = np.empty((4, (1 << (count - 1).bit_length()) + 1) + z.shape[1:])
    p[:, 0], p[0, 0], p[:, 1] = 0.0, 1.0, z
    k = 1
    while k < count:
        cmul(p[:, :k + 1], p[:, k:k + 1], p[:, k:2 * k + 1])
        k *= 2
    return p[:, :count], p[:, k].copy()


def _pair(p: int, q: int):
    """p/q as a pair (Python rounds a quotient of ints correctly)."""
    hi = p / q
    a, b = hi.as_integer_ratio()
    return hi, (p * b - a * q) / (q * b)


# floor(pi/2 * 2**256), and (-1)**(j//2) / j! as pairs for j < 30: the
# Taylor terms of cos r (even j) and sin r (odd j); the rest are < 3e-36
_PIO2 = 0x1921fb54442d18469898cc51701b839a252049c1114cf98e804177d4c76273644
_TAYLOR = np.array([_pair((-1) ** (j // 2), factorial(j)) for j in range(30)])


def cis(n, t):
    """exp(i n t) as a complex stack, for the floats of a 1-D array t and an
    integer 0 <= n < 2**63 or an array of them of t's shape: each n t is
    formed exactly in integers and reduced against ``_PIO2`` to |r| <= pi/4
    (Payne and Hanek 1983); cos r and sin r are Taylor sums rotated by i**q
    (the QD library of Hida, Li and Bailey 2001).  Good to about 2**-104 at
    any n, and relative for small r.  Every step is elementwise, so a grid
    of (n, t) cells in one call gives the floats of one call per n, and the
    fixed cost of the Taylor sums is paid once."""
    t = np.asarray(t, dtype=float)
    rows = []
    for m, x in zip(np.broadcast_to(n, t.shape).tolist(), t.tolist()):
        num, den = x.as_integer_ratio()  # den is a power of two
        num *= m << 256
        q = (2 * num + den * _PIO2) // (2 * den * _PIO2)  # nearest
        rows.append((q % 4, *_pair(num - q * den * _PIO2, den << 256)))
    quad, *r = np.array(rows, dtype=float).reshape(-1, 3).T
    # (cos r, sin(r)/r) as series in r**2, the pairs (hi, lo) of each term
    # on the first axis
    terms = _TAYLOR.reshape(15, 2, 2).transpose(0, 2, 1)[..., None]
    p = np.stack(horner(terms, presplit(sqr(r)), np.empty((8, 2, len(quad)))))
    cos, sin = p[:, 0], np.stack(mul(p[:, 1], r))
    turn = np.stack([cos, -sin, -cos, sin])  # Re(i**q (cos + i sin)) by q
    q = quad.astype(int)
    return np.concatenate([np.choose(q, turn), np.choose((q + 3) % 4, turn)])
