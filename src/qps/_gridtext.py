"""Correctly rounded "%.15g" text of float arrays, for the `qps grid` writer.

Each finite value gets its 15-significant-digit decimal mantissa m in
[1e14, 1e15) and exponent X from numpy arithmetic: e = floor(log10 |x|),
then |x| 10^(14 - e) as an exact Dekker two-product of |x| against the
double-double 10^(14 - e), rounded to the nearest integer.  The digits go
into a fixed row of byte slots that holds every layout "%.15g" or the JSON
encoder can give a value; a mask per (exponent class, digit count) keeps
the slots one value shows and zeroes the rest, and dropping the zero bytes
leaves the text.

Where this cannot be exact the value takes a scalar "%.15g" (JSON:
`json.dumps(float("%.15g" % x))`): a residual within 1e-6 of a rounding
tie, an exponent that log10 misjudged (scaled value below 1e14 or mantissa
reaching 1e15), NaN, infinities, subnormals and magnitudes outside
[1e-280, 1e280).  Zeros stay on the vector path.
"""

import json
from functools import lru_cache

import numpy as np

from .lattice import labels

# magnitudes of the vector path: 10^(14 - e) and its Veltkamp split stay
# normal and finite, and so do the partial products of the two-product
_LOW, _HIGH = 1e-280, 1e280
_EOFF = 285  # table index of the exponent e is e + _EOFF
_SPLIT = 134217729.0  # 2^27 + 1
_TIE = 1e-6

# value slots: sign, the "0.000" of 0.000ddd, digit k at _DIG + 2k with the
# point after it at _DIG + 2k + 1 (k = 0..16; digits 15 and 16 are the "0"s of
# a 16-digit integer and of JSON's ".0"), then "e", exponent sign, 3 digits
_DIG = 6
_EXP = _DIG + 34
WIDTH = _EXP + 5
_CLASSES = 22  # fixed form at X = -4..15, then exponent form with 2 or 3 digits
# rows formatted at once: the temporaries stay a few times the block's text
_BLOCK = 2048


@lru_cache(maxsize=None)
def _digit_tables():
    """Byte tables of 0..999: its three digits each followed by a point (void, 6 bytes),
    its trailing-zero count (000 has 3), and the exponent text: sign and three digits
    of each X in [-_EOFF, _EOFF] (void, 4 bytes)."""
    v = np.arange(1000)
    digits = (v[:, None] // np.array([100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    pairs = np.full((1000, 6), ord("."), dtype=np.uint8)
    pairs[:, ::2] = digits
    trailing = ((v % 10 == 0) + (v % 100 == 0).astype(np.uint8) + (v == 0)).astype(np.uint8)
    X = np.arange(-_EOFF, _EOFF + 1)
    exps = np.empty((len(X), 4), dtype=np.uint8)
    exps[:, 0] = np.where(X < 0, ord("-"), ord("+"))
    exps[:, 1:] = digits[np.abs(X)]
    tables = pairs.view("V6").ravel(), trailing, exps.view("V4").ravel()
    for table in tables:
        table.flags.writeable = False
    return tables


@lru_cache(maxsize=None)
def _const_slots():
    """The value slots' fixed bytes: "0.000", every point, the "0" digits 15, 16 and "e";
    0xFF on the slots that hold a value's own bytes."""
    row = np.full(WIDTH, 0xFF, dtype=np.uint8)
    row[1:_DIG] = np.frombuffer(b"0.000", dtype=np.uint8)
    row[_DIG + 1 : _EXP : 2] = ord(".")
    row[_DIG + 30 : _EXP : 2] = ord("0")
    row[_EXP] = ord("e")
    row.flags.writeable = False
    return row


@lru_cache(maxsize=None)
def _masks(fmt):
    """0xFF on the slots a value shows, one row per class * 16 + digit count (1..15).

    "%.15g" writes -4 <= X < 15 in fixed form and strips trailing zeros and a
    bare point; JSON (`repr`) keeps the fixed form up to X = 15 and writes
    ".0" after an integral value there.
    """
    cls = np.arange(_CLASSES)[:, None, None]
    nd = np.arange(16)[None, :, None]
    slot = np.arange(WIDTH)
    X = cls - 4
    k = (slot - _DIG) // 2
    digit = (slot >= _DIG) & (slot < _EXP) & (slot % 2 == 0)
    point = (slot >= _DIG) & (slot < _EXP) & (slot % 2 == 1)
    json_fmt = fmt == "json"
    fixed = cls <= (19 if json_fmt else 18)
    integral = (X >= 0) & (nd <= X + 1)
    shown = np.where(X < 0, nd, np.maximum(nd, X + 1))
    keep_fixed = (
        ((slot == 1) | (slot == 2)) & (X < 0)
        | (slot >= 3) & (slot < _DIG) & (slot - 3 < -X - 1)
        | digit & (k < shown)
        | point & (k == X) & ((nd > X + 1) | json_fmt & integral)
        | digit & (k == X + 1) & json_fmt & integral
    )
    keep_exp = (
        digit & (k < nd)
        | point & (k == 0) & (nd > 1)
        | (slot >= _EXP) & ((slot != _EXP + 2) | (cls == _CLASSES - 1))
    )
    keep = (slot == 0) | np.where(fixed, keep_fixed, keep_exp)
    masks = np.where(keep, 0xFF, 0).astype(np.uint8).reshape(-1, WIDTH)
    masks.flags.writeable = False
    return masks


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


@lru_cache(maxsize=None)
def _pow10_table():
    """Rows hi, bh, bl, lo of 10^(14 - e) per exponent e; NaN until first needed."""
    return np.full((4, 2 * _EOFF + 1), np.nan)


def _pow10(idx):
    table = _pow10_table()
    rows = np.take(table, idx, axis=1)
    if np.isnan(rows[0]).any():
        for i in set(idx[np.isnan(rows[0])].tolist()):
            table[:, i] = _dd_pow10(14 + _EOFF - i)
        rows = np.take(table, idx, axis=1)
    return rows


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
    hi, bh, bl, lo = _pow10(e + _EOFF)
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


def fill(slots, x, fmt):
    """Write the text of each value of the float array x into its slots (shape x.shape + (WIDTH,), uint8)."""
    pairs, trailing3, exps = _digit_tables()
    m, X, slow = decimal(x)
    shape = x.shape
    # five 3-digit chunks, highest first: floor(m / 10^k) is exact below 2^53
    chunks = np.empty(shape + (5,), dtype=np.intp)
    for j in range(4, 0, -1):
        q = np.floor(m / 1000)
        chunks[..., j] = m - 1000 * q
        m = q
    chunks[..., 0] = m
    # trailing zeros run on while a chunk is 000; a zero has one digit
    tz = np.take(trailing3, chunks)
    nd = 15 - tz[..., 4]
    run = chunks[..., 4] == 0
    for j in range(3, -1, -1):
        nd -= run * tz[..., j]
        run &= chunks[..., j] == 0
    nd[run] = 1
    fixmax = 15 if fmt == "json" else 14
    cls = np.where((X >= -4) & (X <= fixmax), X + 4, np.where(np.abs(X) < 100, _CLASSES - 2, _CLASSES - 1))
    # the mask of each value, then its bytes anded in, built contiguous: `slots` may be strided
    text = np.take(_masks(fmt), cls * 16 + nd, axis=0)
    text &= _const_slots()
    text[..., 0] &= np.signbit(x).view(np.uint8) * np.uint8(ord("-"))
    text[..., _DIG : _DIG + 30] &= np.take(pairs, chunks).view(np.uint8)
    text[..., _EXP + 1 :] &= np.take(exps, X[..., None] + _EOFF).view(np.uint8)
    slots[...] = text
    for i in zip(*np.nonzero(slow)):
        scalar = _scalar(x[i], fmt).encode()
        slots[i] = 0
        slots[i][: len(scalar)] = np.frombuffer(scalar, dtype=np.uint8)


def texts(x, fmt):
    """The "%.15g" (fmt "csv") or JSON number text of each value of x, as a list."""
    x = np.asarray(x, dtype=float).ravel()
    rows, buf = _byte_matrix(len(x), WIDTH + 1)
    fill(rows[:, :WIDTH], x, fmt)
    rows[:, WIDTH] = ord("\n")
    return _compact(buf).split("\n")[:-1]


def _byte_matrix(rows, width):
    """A rows x width uint8 matrix over a bytearray, and the bytearray."""
    buf = bytearray(rows * width)
    return np.frombuffer(buf, dtype=np.uint8).reshape(rows, width), buf


def _compact(buf):
    """The text of a bytearray, its zero bytes dropped."""
    return buf.translate(None, b"\0").decode("ascii")


# the fixed text of a row: before label1, between the labels and before re ...
_HEAD = {"csv": (b"", b",", b","), "json": (b"  [\n   ", b",\n   ", b",\n   ")}
# ... and between re and im, and after im
_TAIL = {"csv": (b",", b"\n"), "json": (b",\n   ", b"\n  ],\n")}


@lru_cache(maxsize=4)
def _prefixes(N, fmt):
    """The text of every row up to its re value (label1 outer), as a read-only N^2 x width uint8 matrix."""
    ks = labels(N).tolist()
    lw = len(str(ks[0]))  # -ell is the widest label
    lab = np.frombuffer(b"".join(str(k).encode().ljust(lw, b"\0") for k in ks), dtype=np.uint8).reshape(N, lw)

    def fixed(text):
        return np.broadcast_to(np.frombuffer(text, dtype=np.uint8), (N * N, len(text)))

    before, between, before_re = _HEAD[fmt]
    out = np.hstack([fixed(before), np.repeat(lab, N, axis=0), fixed(between), np.tile(lab, (N, 1)), fixed(before_re)])
    out.flags.writeable = False
    return out


def grid_rows(grid, N, fmt):
    """The rows of a `qps grid` body as a list of strings, one per block of rows.

    CSV rows end in a newline; JSON rows are indent-1 `[label1, label2, re,
    im]` arrays joined by ",\\n", with no separator after the last.
    """
    # one (rows, 2) float view holds re and im side by side
    values = np.ascontiguousarray(grid, dtype=complex).reshape(-1, 1).view(float)
    prefixes = _prefixes(N, fmt)
    sep, end = _TAIL[fmt]
    lp = prefixes.shape[1]
    # re, sep, im, end; the im slots are followed by at least len(sep) bytes
    pair = WIDTH + len(sep)
    end_at = lp + pair + WIDTH
    width = end_at + max(len(sep), len(end))
    out = []
    for r0 in range(0, len(values), _BLOCK):
        x = values[r0 : r0 + _BLOCK]
        body, buf = _byte_matrix(len(x), width)
        body[:, :lp] = prefixes[r0 : r0 + _BLOCK]
        slots = body[:, lp : lp + 2 * pair].reshape(-1, 2, pair)
        slots[:, 0, WIDTH:] = np.frombuffer(sep, dtype=np.uint8)
        fill(slots[..., :WIDTH], x, fmt)
        body[:, end_at : end_at + len(end)] = np.frombuffer(end, dtype=np.uint8)
        if fmt == "json" and r0 + _BLOCK >= len(values):
            body[-1, end_at + len(end) - 2 :] = 0
        out.append(_compact(buf))
    return out
