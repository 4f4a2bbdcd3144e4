"""Correctly rounded "%.15g" text of float arrays, for the `qps grid` writer.

Each finite value gets its 15-significant-digit decimal mantissa m in
[1e14, 1e15) and exponent X from numpy arithmetic: e = floor(log10 |x|),
then |x| 10^(14 - e) as Dekker's two-product of |x| against the
double-double 10^(14 - e), rounded to the nearest integer.  The text goes
into four little-endian 64-bit words: the head (JSON's indent, the sign and
the "0.000" of 0.000ddd), two words of digits and the tail (JSON's ".0" or
"e" and the exponent, then the separator after the value).  The digit
words take the 16 digits of 10 m from a table of 4-digit groups; a copy
shifted up by one byte makes room for the decimal point, and one mask row
per (exponent class, sign, digit count) gives the head, keeps the digits
that the value shows on each side of the point and adds the point.
Dropping the zero bytes leaves the text.

Where this cannot be exact the value takes a scalar "%.15g" (JSON:
`json.dumps(float("%.15g" % x))`): a residual within 1e-6 of a rounding
tie, an exponent that log10 misjudged (scaled value below 1e14 or mantissa
reaching 1e15), NaN, infinities, subnormals and magnitudes outside
[1e-280, 1e280).  Zeros stay on the vector path.  Every table is cached
read-only by `lattice._table_cache`, as all tables of `qps` are.

Memory: `grid_rows` writes _BLOCK rows at a time into one row buffer made
per call, and no array that a block makes reaches 128 KiB, glibc's default
mmap threshold.  An array at or above it is mapped and paged in afresh on
every block: a JSON export at N = 61 could take about 400 minor page faults
per call that way.  A row is at most 104 bytes and the cycle of label2
texts 1,249 + N words while N < 15000, and a value's largest temporary is
its six mask words, so 1,250 rows keep every array under 128 KiB.
"""

import json

import numpy as np

from .lattice import labels, _table_cache

# magnitudes of the vector path: 10^(14 - e) and its Veltkamp split stay
# normal and finite, and so do the partial products of the two-product
_LOW, _HIGH = 1e-280, 1e280
_EOFF = 285  # table index of the exponent e is e + _EOFF
_EXPS = 2 * _EOFF + 1
_SPLIT = 134217729.0  # 2^27 + 1
_TIE = 1e-6
# stands in for a value off the vector path: its residual is an exact tie, so it falls back
_TIED = 100000000000000.5
WORDS = 4
_CLASSES = 22  # fixed form at X = -4..15, then exponent form with 2 or 3 digits
# text of a row around its values: the indent before each value and the separator after
# the real and the imaginary part
_INDENT = {"csv": "", "json": "  "}
_SEP = {"csv": (",", "\n"), "json": (",\n ", "\n")}
# rows formatted at once: see the memory rule above
_BLOCK = 1250


def _as_words(texts, n):
    """ASCII texts, each zero-padded to n words, as an (len, n) array of words."""
    return np.array([t.encode() for t in texts], dtype=f"S{8 * n}").view("<u8").reshape(len(texts), n)


@_table_cache
def _word_tables():
    """The 4-digit groups 0000..9999 as words, low ("dddd" in bytes 0-3) then high (bytes
    4-7), and -(trailing zeros) of each (int8; 0000 gives -4)."""
    v = np.arange(10**4)
    quads = np.zeros((2, len(v), 8), dtype=np.uint8)
    quads[0, :, :4] = quads[1, :, 4:] = v[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    trailing = sum(v % 10**k == 0 for k in range(1, 5))
    return quads.view("<u8").ravel(), (-trailing).astype(np.int8)


@_table_cache
def _masks(fmt):
    """Per exponent index e + _EOFF, 16 * (2 * class + 1), the row of its class, sign +
    and 16 digits, to which a value adds 16 for sign - and takes its trailing zeros;
    per mask row 16 * (2 * class + sign) + digit count, the head and the masks A of the
    digits' bytes before the point, B of the shifted copy's after it and C the point's
    byte, two words each; and the tails of a real and an imaginary part at 2 * index +
    column, all as words.

    A value shows 1..15 digits of 10 m (0 for zeros, which show one).  "%.15g" writes
    -4 <= X < 15 in fixed form and strips trailing zeros and a bare point; JSON (`repr`)
    keeps the fixed form up to X = 15 and writes ".0" after an integral value there,
    which is every value at X = 14 and 15: those take the ".0" in their tail.

    Heads and the tails of imaginary parts are right-aligned in their words, so each run
    of zero bytes of a row lies between two texts: `bytes.translate`, which drops them,
    costs a mispredicted branch per run rather than per byte.
    """
    json_fmt = fmt == "json"
    fixmax = 15 if json_fmt else 14
    X = np.arange(-_EOFF, _EOFF + 1)
    cls = np.where((X >= -4) & (X <= fixmax), X + 4, np.where(np.abs(X) < 100, _CLASSES - 2, _CLASSES - 1))
    tails = []
    for x in X.tolist():
        exp = ".0" if json_fmt and 14 <= x <= 15 else "" if -4 <= x <= fixmax else f"e{x:+03d}"
        tails += [exp + _SEP[fmt][0], (exp + _SEP[fmt][1]).rjust(8, "\0")]
    masks = np.zeros((2 * _CLASSES * 16, 48), dtype=np.uint8)
    heads = []
    for c in range(_CLASSES):
        x = c - 4
        fixed = x <= fixmax
        for sign in (0, 1):
            heads += [(_INDENT[fmt] + "-" * sign + ("0." + "0" * (-x - 1) if fixed and x < 0 else "")).rjust(8, "\0")] * 16
        # the point follows digit p of 10 m, if it is in the digit words
        p = x if fixed and 0 <= x <= 13 else 0 if not fixed else None
        for nd in range(16):
            shown = max(nd, x + 1) if fixed else nd
            rows = masks[32 * c + nd :: 16][:2]  # of sign + and -
            if p is None:
                rows[:, :shown] = 0xFF
                continue
            point = (nd > p + 1 or json_fmt) if fixed else nd > 1
            last = shown + (json_fmt and fixed and nd <= p + 1)  # JSON's ".0" digit of an integral value
            rows[:, : min(last, p + 1)] = 0xFF
            rows[:, 16 + p + 2 : 16 + last + 1] = 0xFF
            rows[:, 32 + p + 1] = 0x2E * point  # "."
    return 32 * cls + 16, _as_words(heads, 1).ravel(), masks.view("<u8"), _as_words(tails, 1).ravel()


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
    """hi, bh and bl + lo of 10^(14 - e) per exponent index e + _EOFF, as rows."""
    hi, bh, bl, lo = np.array([_dd_pow10(14 + _EOFF - i) for i in range(_EXPS)]).T
    return np.stack([hi, bh, bl + lo], axis=1)


def decimal(x):
    """Mantissa m (a float holding an integer of 15 digits; 0 for zeros), exponent index
    e + _EOFF and the fallback mask of the 1-D float array x.

    m 10^(e - 14) is x correctly rounded to 15 significant digits wherever
    the mask is False.
    """
    a = np.abs(x)
    zero = a == 0
    ok = a >= _LOW
    ok &= a < _HIGH  # NaN compares False
    a = np.where(ok, a, _TIED)
    a[zero] = 1.0
    at = np.log10(a)
    at = np.floor(at, out=at).astype(np.intp)
    at += _EOFF
    hi, bh, blo = _pow10_table().take(at, axis=0).T
    # ph + t = a 10^(14 - e): Dekker's two-product of a and hi, exact but for the
    # rounding of a (bl + lo), below 1e-9 against the 1e-6 that a tie is given; the
    # steps run in place where they can, each sparing a temporary
    ph = a * hi
    ah = a * _SPLIT
    al = ah - a
    ah -= al  # Veltkamp's split: ah = c - (c - a) with c = 2^27 a + a
    np.subtract(a, ah, out=al)
    al *= bh
    t = ah * bh
    t -= ph
    t += al
    t += np.multiply(blo, a, out=a)
    n0 = np.floor(ph)
    r = ph - n0
    r += t
    m = np.add(n0, r > 0.5, out=n0)
    r -= 0.5
    slow = np.abs(r, out=r) < _TIE
    slow |= ph < 1e14
    slow |= m >= 1e15
    m[zero] = 0
    return m, at, slow


def _scalar(v, fmt):
    text = "%.15g" % v
    return json.dumps(float(text)) if fmt == "json" else text


def _fill(out, x, column, tables, fmt):
    """Write the four words of each value of the 1-D float array x into out, an array of
    x.size * WORDS words whose last axis holds a value's words.

    column holds each value's column (0 real, 1 imaginary), which picks the
    separator in its tail.
    """
    quads, trailing, rowbase, heads, masks, tails = tables
    text = out.T
    m, at, slow = decimal(x)
    row = rowbase.take(at)
    row += (x.view(np.int64) >> 59) & 16  # 16 for a set sign bit: the rows of sign -
    at <<= 1
    at |= column
    text[3] = tails.take(at)
    del at  # temporaries go once read, so a block's peak holds a few (the memory rule)
    # the four 4-digit groups of 10 m < 10^16, highest first
    n = m.astype(np.int64)
    del m
    groups = np.empty((4, len(x)), dtype=np.int64)
    for k, d in enumerate((10**11, 10**7, 10**3)):
        np.floor_divide(n, d, out=groups[k])
    np.multiply(n, 10, out=groups[3])
    del n
    groups[1:] -= groups[:-1] * 10**4
    # -(trailing zeros of 10 m): those of the lowest group, plus those of each higher
    # group while every group below it is zero; a zero has 16, so digit count 0
    tz = trailing.take(groups, mode="clip")  # a fallback value's groups may leave the table
    zero = tz == -4
    s = tz[0] * zero[1]
    for k in (1, 2):
        s += tz[k]
        s *= zero[k + 1]
    s += tz[3]
    row += s
    del tz, zero
    text[0] = heads.take(row)
    # digits 0-7 and 8-15 of 10 m as words, and the same shifted up by one byte
    groups[1::2] += 10**4
    quad = quads.take(groups, mode="clip")
    del groups
    digits, shifted = quad[0::2], quad[1::2]
    digits |= shifted
    np.left_shift(digits, 8, out=shifted)
    shifted[1] |= digits[0] >> 56
    mask = masks.take(row, axis=0).T
    for k in (0, 1):  # one word at a time: numpy then loops over the values, not the words
        digits[k] &= mask[k]
        shifted[k] &= mask[2 + k]
        digits[k] |= shifted[k]
        digits[k] |= mask[4 + k]
        text[1 + k] = digits[k]
    if np.count_nonzero(slow):
        scalars = [(_INDENT[fmt] + _scalar(v, fmt)).ljust(8 * WORDS - 8, "\0") + _SEP[fmt][c]
                   for v, c in zip(x[slow].tolist(), column[slow].tolist())]
        out[slow] = _as_words(scalars, WORDS)


def texts(x, fmt):
    """The "%.15g" (fmt "csv") or JSON number text of each value of x, as a list."""
    x = np.asarray(x, dtype=float).ravel()
    out = np.empty((len(x), WORDS), dtype="<u8")
    _fill(out, x, np.ones(len(x), dtype=np.intp), (*_word_tables(), *_masks(fmt)), fmt)  # each ends in "\n"
    return _compact(out).replace(" ", "").split("\n")[:-1]  # less JSON's indent


def _compact(rows):
    """The text of an array's bytes, its zero bytes dropped."""
    return rows.tobytes().translate(None, b"\0").decode("ascii")


@_table_cache
def _label_texts(N, fmt):
    """Per label (rows kappa + ell), zero-padded words: a row's text up to label2 when it
    is label1 (right-aligned, as in `_masks`), and its text from label2 up to the real
    part when it is label2; then the words of the row's end (JSON: after all rows but the
    last, and after it)."""
    ks = labels(N).tolist()
    if fmt == "csv":
        first, second, end = [f"{k}," for k in ks], [f"{k}," for k in ks], []
    else:
        first, second, end = [f"  [\n   {k},\n   " for k in ks], [f"{k},\n " for k in ks], ["  ],\n", "  ]"]
    n1, n2 = (-(-max(map(len, t)) // 8) for t in (first, second))
    return _as_words([t.rjust(8 * n1, "\0") for t in first], n1), _as_words(second, n2), _as_words(end, 1)


def grid_rows(grid, N, fmt):
    """The rows of a `qps grid` body as a list of strings, one per block of rows.

    CSV rows end in a newline; JSON rows are indent-1 `[label1, label2, re,
    im]` arrays joined by ",\\n", with no separator after the last.
    """
    # one flat float view holds re and im of each row side by side
    values = np.ascontiguousarray(grid, dtype=complex).reshape(-1).view(float)
    first, second, end = (t.view(f"V{8 * t.shape[1]}")[:, 0] for t in _label_texts(N, fmt))
    tables = (*_word_tables(), *_masks(fmt))
    n = min(_BLOCK, N * N)
    fields = [("first", first.dtype), ("second", second.dtype), ("values", f"V{16 * WORDS}")]
    body = np.empty(n, dtype=fields + [("end", end.dtype)] * bool(len(end)))
    if len(end):
        body["end"] = end[0]
    # label2 of the rows from r0 on is this cycle from r0 % N on
    cycle = second.take(np.arange(n + N - 1) % N)
    text = np.empty((n, 2 * WORDS), dtype="<u8")
    column = np.arange(2 * n) & 1
    out = []
    for r0 in range(0, N * N, _BLOCK):
        rows = body[: min(_BLOCK, N * N - r0)]
        k, off = divmod(r0, N)
        # label1 k holds N - off of the rows, each next label N, the last the rest
        m = (off + len(rows) - 1) // N + 1
        counts = [N] * m
        counts[0] -= off
        counts[-1] -= m * N - off - len(rows)
        rows["first"] = np.repeat(first[k : k + m], counts)
        rows["second"] = cycle[off : off + len(rows)]
        x = values[2 * r0 : 2 * (r0 + len(rows))]
        _fill(text[: len(rows)].reshape(-1, WORDS), x, column[: len(x)], tables, fmt)
        rows["values"] = text[: len(rows)].view(body.dtype["values"])[:, 0]
        if len(end) and r0 + len(rows) == N * N:
            rows["end"][-1] = end[1]
        out.append(_compact(rows))
    return out
