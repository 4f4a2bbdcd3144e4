"""Correctly rounded "%.15g" text of float arrays, for the `qps grid` writer.

Each finite value gets its 15-significant-digit decimal mantissa m in
[1e14, 1e15) and exponent X from numpy arithmetic: e = floor(log10 |x|),
then |x| 10^(14 - e) as an exact Dekker two-product of |x| against the
double-double 10^(14 - e), rounded to the nearest integer.  The text goes
into six little-endian 64-bit words, 48 byte slots that hold every layout
"%.15g" or the JSON encoder can give a value: the sign and the "0.000" of
0.000ddd, then "d.d.d.d." per 4-digit group of the 16 digits of 10 m, then
the "0" of JSON's ".0", "e" and the exponent.  A mask row per (exponent
class, digit count) keeps the slots one value shows and zeroes the rest,
and dropping the zero bytes leaves the text.

Where this cannot be exact the value takes a scalar "%.15g" (JSON:
`json.dumps(float("%.15g" % x))`): a residual within 1e-6 of a rounding
tie, an exponent that log10 misjudged (scaled value below 1e14 or mantissa
reaching 1e15), NaN, infinities, subnormals and magnitudes outside
[1e-280, 1e280).  Zeros stay on the vector path.  Every table is cached
read-only by `lattice._table_cache`, as all tables of `qps` are.
"""

import json

import numpy as np

from .lattice import labels, _table_cache

# magnitudes of the vector path: 10^(14 - e) and its Veltkamp split stay
# normal and finite, and so do the partial products of the two-product
_LOW, _HIGH = 1e-280, 1e280
_EOFF = 285  # table index of the exponent e is e + _EOFF
_SPLIT = 134217729.0  # 2^27 + 1
_TIE = 1e-6

# value slots: sign, the "0.000" of 0.000ddd, two empty, digit k of 10 m at
# _DIG + 2k with the point after it at _DIG + 2k + 1 (k = 0..15; digit 15 is
# the "0" of a 16-digit integer), JSON's ".0" digit at _DIG + 32, then "e",
# exponent sign, 3 digits and two empty
WORDS = 6
WIDTH = 8 * WORDS
_DIG = 8
_EXP = _DIG + 33
_CLASSES = 22  # fixed form at X = -4..15, then exponent form with 2 or 3 digits
# rows formatted at once: the temporaries stay a few times the block's text
_BLOCK = 2048


@_table_cache
def _word_tables():
    """Words "d.d.d.d." of 0..9999 and their trailing-zero counts (0000 has 4, uint8),
    words "0e" and the sign and three digits of each X in [-_EOFF, _EOFF], and the
    sign words of + and - with the "0.000" of 0.000ddd."""
    v = np.arange(10**4)
    quads = np.full((len(v), 8), ord("."), dtype=np.uint8)
    quads[:, ::2] = v[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    trailing = sum(v % 10**k == 0 for k in range(1, 5)).astype(np.uint8)
    X = np.arange(-_EOFF, _EOFF + 1)
    exps = np.zeros((len(X), 8), dtype=np.uint8)
    exps[:, :2] = np.frombuffer(b"0e", dtype=np.uint8)
    exps[:, 2] = np.where(X < 0, ord("-"), ord("+"))
    exps[:, 3:6] = quads[np.abs(X), 2::2]
    signs = np.frombuffer(b"\x000.000\0\0-0.000\0\0", dtype="<u8")
    return quads.view("<u8").ravel(), trailing, exps.view("<u8").ravel(), signs


@_table_cache
def _masks(fmt):
    """0xFF on the slots a value shows, as words, one row per class * 16 + digit count
    (1..15; 0 for zeros, which show one digit), and class * 16 of each exponent X in
    [-_EOFF, _EOFF] at X + _EOFF.

    "%.15g" writes -4 <= X < 15 in fixed form and strips trailing zeros and a
    bare point; JSON (`repr`) keeps the fixed form up to X = 15 and writes
    ".0" after an integral value there.
    """
    json_fmt = fmt == "json"
    fixmax = 15 if json_fmt else 14
    E = np.arange(-_EOFF, _EOFF + 1)
    classes = np.where((E >= -4) & (E <= fixmax), E + 4, np.where(np.abs(E) < 100, _CLASSES - 2, _CLASSES - 1))
    cls = np.arange(_CLASSES)[:, None, None]
    nd = np.arange(16)[None, :, None]
    slot = np.arange(WIDTH)
    X = cls - 4
    k = (slot - _DIG) // 2
    digit = (slot >= _DIG) & (slot < _EXP) & (slot % 2 == 0)
    point = (slot >= _DIG) & (slot < _EXP) & (slot % 2 == 1)
    fixed = X <= fixmax
    integral = (X >= 0) & (nd <= X + 1)
    shown = np.where(X < 0, nd, np.maximum(nd, X + 1))
    keep_fixed = (
        ((slot == 1) | (slot == 2)) & (X < 0)
        | (slot >= 3) & (slot < 6) & (slot - 3 < -X - 1)
        | digit & (k < shown)
        | point & (k == X) & ((nd > X + 1) | json_fmt & integral)
        | digit & (k == X + 1) & json_fmt & integral
    )
    keep_exp = (
        digit & (k < nd)
        | point & (k == 0) & (nd > 1)
        | (slot >= _EXP) & (slot < _EXP + 5) & ((slot != _EXP + 2) | (cls == _CLASSES - 1))
    )
    keep = (slot == 0) | np.where(fixed, keep_fixed, keep_exp)
    return np.where(keep, 0xFF, 0).astype(np.uint8).reshape(-1, WIDTH).view("<u8"), 16 * classes


def _dd_pow10(k):
    """10^k as hi + lo, each correctly rounded, with hi split as bh + bl (Veltkamp)."""
    if k >= 0:
        p = 10**k
        hi = float(p)
        lo = float(p - int(hi))
    else:
        d = 10**-k
        hi = 1 / d
        num, den = hi.as_integer_ratio()
        lo = (den - num * d) / (den * d)
    c = _SPLIT * hi
    bh = c - (c - hi)
    return hi, bh, hi - bh, lo


@_table_cache
def _pow10_table():
    """Read-only contiguous tables hi, bh, bl, lo of 10^(14 - e) per exponent e, at e + _EOFF."""
    return tuple(map(np.ascontiguousarray, np.array([_dd_pow10(14 + _EOFF - i) for i in range(2 * _EOFF + 1)]).T))


def decimal(x):
    """Mantissa m (a float holding an integer of 15 digits; 0 for zeros), exponent X and the fallback mask of x.

    m 10^(X - 14) is x correctly rounded to 15 significant digits wherever
    the mask is False.
    """
    a = np.abs(x)
    fast = (a >= _LOW) & (a < _HIGH)
    zero = a == 0
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, bh, bl, lo = (np.take(row, e + _EOFF) for row in _pow10_table())
    # ph + t = a 10^(14 - e): Dekker's exact product of a and hi, plus a lo
    ph = a * hi
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    t = ((ah * bh - ph) + ah * bl + al * bh) + al * bl + a * lo
    n0 = np.floor(ph)
    r = (ph - n0) + t
    m = n0 + (r > 0.5)
    slow = ~(fast | zero) | (np.abs(r - 0.5) < _TIE) | (ph < 1e14) | (m >= 1e15)
    m[slow | zero] = 0
    return m, e, slow


def _scalar(v, fmt):
    text = "%.15g" % v
    return json.dumps(float(text)) if fmt == "json" else text


def words(x, fmt):
    """The text of each value of the float array x as six little-endian words, shape
    x.shape + (WORDS,), its zero bytes to be dropped."""
    quads, trailing, exps, signs = _word_tables()
    m, X, slow = decimal(x)
    # 10 m < 10^16 in two halves of 8 digits, each in two groups of 4, highest first (all >= 0,
    # so a floor division and a subtraction give the quotient and remainder)
    n = m.astype(np.int64) * 10
    high = n // 10**8
    halves = np.stack([high, n - high * 10**8], axis=-1)
    q = halves // 10**4
    r = halves - q * 10**4
    # trailing zeros of each half, then of 10 m: a zero gets digit count 0
    tz = np.take(trailing, r) + (r == 0) * np.take(trailing, q)
    nd = 16 - tz[..., 1] - (halves[..., 1] == 0) * tz[..., 0]
    masks, class_rows = _masks(fmt)
    at = X + _EOFF
    text = np.take(masks, np.take(class_rows, at) + nd, axis=0)
    text[..., 0] &= np.take(signs, np.signbit(x))
    text[..., 1:5] &= np.take(quads, np.stack([q, r], axis=-1).reshape(x.shape + (4,)))
    text[..., 5] &= np.take(exps, at)
    if slow.any():
        scalars = b"".join(_scalar(v, fmt).encode().ljust(WIDTH, b"\0") for v in x[slow].tolist())
        text[slow] = np.frombuffer(scalars, dtype="<u8").reshape(-1, WORDS)
    return text


def _compact(rows):
    """The text of an array's bytes, its zero bytes dropped."""
    return rows.tobytes().translate(None, b"\0").decode("ascii")


def texts(x, fmt):
    """The "%.15g" (fmt "csv") or JSON number text of each value of x, as a list."""
    x = np.asarray(x, dtype=float).ravel()
    rows = np.empty((len(x), WORDS + 1), dtype="<u8")
    rows[:, :WORDS] = words(x, fmt)
    rows[:, WORDS] = ord("\n")
    return _compact(rows).split("\n")[:-1]


# the fixed text of a row: before label1, between the labels and before re ...
_HEAD = {"csv": (b"", b",", b","), "json": (b"  [\n   ", b",\n   ", b",\n   ")}
# ... between re and im, after im, and after the last row's im
_TAIL = {"csv": (b",", b"\n", b"\n"), "json": (b",\n   ", b"\n  ],\n", b"\n  ]")}


@_table_cache
def _label_texts(N, fmt):
    """Per label (rows kappa + ell), zero-padded bytes: a row's text before label2 when
    it is label1, and its text from label2 up to re when it is label2."""
    before, between, before_re = _HEAD[fmt]
    ks = [str(k).encode() for k in labels(N).tolist()]
    return np.array([before + k + between for k in ks]), np.array([k + before_re for k in ks])


def grid_rows(grid, N, fmt):
    """The rows of a `qps grid` body as a list of strings, one per block of rows.

    CSV rows end in a newline; JSON rows are indent-1 `[label1, label2, re,
    im]` arrays joined by ",\\n", with no separator after the last.
    """
    # one (rows, 2) float view holds re and im side by side
    values = np.ascontiguousarray(grid, dtype=complex).reshape(-1, 1).view(float)
    first, second = _label_texts(N, fmt)
    sep, end, last = _TAIL[fmt]
    row = np.dtype([("first", first.dtype), ("second", second.dtype),
                    ("re", "<u8", WORDS), ("sep", f"S{len(sep)}"), ("im", "<u8", WORDS), ("end", f"S{len(end)}")])
    out = []
    for r0 in range(0, len(values), _BLOCK):
        x = values[r0 : r0 + _BLOCK]
        label1 = (rows := np.arange(r0, r0 + len(x))) // N
        label2 = rows - label1 * N
        body = np.empty(len(x), dtype=row)
        body["first"], body["second"] = np.take(first, label1), np.take(second, label2)
        body["re"], body["im"] = words(x, fmt).swapaxes(0, 1)
        body["sep"], body["end"] = sep, end
        if r0 + _BLOCK >= len(values):
            body["end"][-1] = last
        out.append(_compact(body))
    return out
