"""CSV emission: every number written exactly as ``%.17g`` writes it
(integer columns as ``%d``), so it re-parses to the identical value.

Each column is formatted through its float64 copy by one digit writer.
Floats x with 1e-4 <= |x| < 1e15, and +-0, are printed in integer
arithmetic, where %g always picks fixed notation.  X = floor(log10|x|) is
read against exact powers of ten; with s = 16 - X the 17 digits are
N = round-half-even(|x| 10^s) = round-half-even(m 5^s / 2^k) for
|x| = m 2^(-k-s), m < 2^53.  In this window 5^s < 2^47 and 1 <= k <= 47,
so the product m 5^s fits 128 bits built from 32-bit limbs in uint64.
Seventeen digits are more than a double holds: |x| 10^s stays at least 8
below 10^17, so N never rounds up into the next decade and no row needs
its X fixed.  A double holds every integer of the window exactly, and
%.17g writes an integral double as %d writes the integer.

Every other value (tails below 1e-4, 1e15 and up, inf, nan, and each
field of a column that is neither integer, bool nor float, whose copy is
all NaN) goes through one ``%`` call per row block, formatted from its
own column, never from the copy: ``%d`` for integers, ``%.17g`` for the
rest.  Its fields are scattered back into their rows.  That call is also
the reference the kernel is tested against.

Each field is laid out as four little-endian words of ASCII bytes in
fixed slots padded with NUL: sign, the ``0.``/``0.000`` prefix, the
digits and the decimal point, with trailing zeros stripped as %g strips
them, and the separator in the last byte.  One ``bytes.translate`` per
row block drops the pads.  A row block's copies, taken column after
column, are formatted once per run of equal 64-bit patterns (so -0.0
stays apart from 0.0), and each run takes its first value's words.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

#: Values formatted per row block: enough to amortise numpy's
#: per-call cost, few enough that a temporary array stays in L1 cache.
_BLOCK = 8192

_U64 = np.dtype("<u8")


def _words(byte_mask, value=255):
    """Little-endian words whose bytes are value where byte_mask (..., 8w) holds, else 0."""
    return (byte_mask * value).astype(np.uint8).view(_U64)


_Q = np.arange(10000, dtype=np.int32)
#: ASCII of 0000..9999 as little-endian words, and each quad's count of
#: leading and of trailing zero digits (4 for 0000).
_QUAD = (np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T + np.uint8(ord("0")))
         .view("<u4").ravel().astype(_U64))
_QUAD_LEAD = sum((_Q < 10**i).astype(np.int32) for i in range(4))
_QUAD_TRAIL = sum((_Q % 10**i == 0).astype(np.int32) for i in range(1, 5))

#: 1e-5 .. 1e16 as parsed, i.e. correctly rounded.  Each is the smallest
#: double >= its power of ten, so comparing against them gives
#: floor(log10|x|) exactly.
_POW10 = np.array([float(f"1e{k}") for k in range(-5, 17)])
#: floor(log10 2^(e-1)) for the frexp exponents e = -16 .. 50.
_EXP_DECADE = (np.searchsorted(_POW10, 2.0 ** np.arange(-17.0, 50.0), side="right") - 6).astype(np.int32)
_POW5 = np.array([5**s for s in range(22)], dtype=_U64)
#: Sign and prefix word at 20 * negative + X + 4 for X = floor(log10|x|):
#: "0.000", "0.00", "0.0", "0." for X = -4 .. -1, nothing for X >= 0.
_PREFIX = np.array([int.from_bytes(sign + (b"0." + b"0" * (-x - 1) if x < 0 else b""), "little")
                    for sign in (b"", b"-") for x in range(-4, 16)], dtype=_U64)


def _digit_masks():
    """Masks for the three words of a float's digit region (bytes 0..23),
    one row per 21 * p + end.  Digit bytes 3..end-1 are kept; p is the byte
    of the digit that the point follows (24: no point).  A row holds, per
    word, the bytes kept in place, the bytes taken from the region shifted
    up by one byte, and the point."""
    p, end, b = np.arange(25)[:, None], np.arange(21)[:, None], np.arange(24)
    in_place = _words((b >= 3) & (b <= p))[:, None] & _words(b < end)
    shifted = _words(b >= p + 2)[:, None] & _words(b - 1 < end)
    point = np.broadcast_to(_words(b == p + 1, ord("."))[:, None], in_place.shape)
    return np.concatenate((in_place, shifted, point), axis=2).reshape(25 * 21, 9)


_DIGIT_MASKS = _digit_masks()
_M32 = np.uint64(0xFFFFFFFF)
_E8, _E16, _E17 = 10**8, 10**16, 10**17


def _digit_words(u):
    """The 20 ASCII digits of each uint64 as three words (bytes 0..19),
    leading zeros included, and its five 4-digit quads, most significant
    first."""
    top = u // _E16
    low = (u - top * _E16).view(np.int64)
    high8 = (low // _E8).astype(np.int32)
    low8 = (low - high8 * _E8).astype(np.int32)
    a, b = high8 // 10000, low8 // 10000
    quads = (top.view(np.int64), a, high8 - a * 10000, b, low8 - b * 10000)
    t = [_QUAD.take(q) for q in quads]
    return [t[0] | t[1] << 32, t[2] | t[3] << 32, t[4]], quads


def _zero_run(quads):
    """Trailing zero digits of the 4-digit quads, given least significant first."""
    total = _QUAD_TRAIL.take(quads[0])
    run = quads[0] == 0
    for q in quads[1:]:
        total += run * _QUAD_TRAIL.take(q)
        run &= q == 0
    return total


def _round_shift(m, p, k):
    """round-half-even(m p / 2^k) for m < 2^53, p < 2^47, 1 <= k <= 47, in uint64."""
    ml, mh, pl, ph = m & _M32, m >> 32, p & _M32, p >> 32
    lo = ml * pl
    mid = mh * pl + ml * ph + (lo >> 32)
    high = mh * ph + (mid >> 32)
    low = (mid << 32) | (lo & _M32)
    q = (high << (64 - k)) | (low >> k)
    rem = low & ((np.uint64(1) << k) - 1)
    half = np.uint64(1) << (k - 1)
    return q + ((rem > half) | ((rem == half) & (q & 1 == 1)))


def _float_words(x):
    """The four words of each float of x in the window, NUL elsewhere, and
    the window mask."""
    a = np.abs(x)
    win = ((a >= 1e-4) & (a < 1e15)) | (a == 0)
    a = np.where(win, a, 0.0)
    mant, e = np.frexp(a)
    decade = _EXP_DECADE.take(e + 16)
    decade += a >= _POW10.take(decade + 6)
    decade += a == 0  # frexp gives 0 the exponent of [0.5, 1)
    s = 16 - decade
    k = (53 - e - s).astype(_U64)
    assert k.min() >= 1 and k.max() <= 47
    n = _round_shift((mant * 2.0**53).astype(_U64), _POW5.take(s), k)
    assert n.max() < _E17
    words, quads = _digit_words(n)
    trail = _zero_run(quads[:0:-1])
    end = (20 - np.minimum(trail, s)) * win
    point = np.where(win & (decade >= 0) & (trail < s), 3 + decade, 24)
    masks = _DIGIT_MASKS.take(21 * point + end, axis=0)
    carried = np.uint64(0)
    for j, w in enumerate(words):
        words[j] = (w & masks[:, j]) | (((w << 8) | carried) & masks[:, 3 + j]) | masks[:, 6 + j]
        carried = w >> 56
    return [_PREFIX.take(20 * (np.signbit(x) & win) + decade + 4)] + words, win


def _block(cols):
    """The CSV body of one row block of (float64 copy, column, fallback
    format) triples, as ASCII bytes."""
    rows = cols[0][0].size
    x = np.concatenate([f for f, _, _ in cols])
    bits = x.view(_U64)
    new = np.concatenate(([True], bits[1:] != bits[:-1]))
    run = np.cumsum(new) - 1
    words, win = _float_words(x[new])  # once per run of equal bits
    out = np.empty((rows, len(cols), 4), dtype=_U64)
    for i, w in enumerate(words):
        out[:, :, i] = w.take(run).reshape(len(cols), rows).T
    out[:, :, 3] |= np.uint64(ord(",")) << 56
    out[:, -1, 3] ^= np.uint64(ord(",") ^ ord("\n")) << 56
    flat = out.view(np.uint8).reshape(-1)
    at = np.flatnonzero(~win.take(run))
    if at.size:
        # Each field out of the window (at most 24 bytes) goes to the start of
        # its slot, formatted from its own column, never from the float copy.
        row, col = at % rows, at // rows
        rest, fmt = [], ""
        for j, (_, c, f) in enumerate(cols):
            r = row[col == j]
            rest.extend(c.take(r).tolist())
            fmt += f * r.size
        text = np.frombuffer((fmt % tuple(rest)).encode("ascii"), dtype=np.uint8)
        stops = np.flatnonzero(text == ord("\n"))
        sizes = np.diff(stops, prepend=-1)
        origin = np.repeat((row * len(cols) + col) * 32 - (stops - sizes + 1), sizes)
        fill = text != ord("\n")
        flat[(origin + np.arange(text.size))[fill]] = text[fill]
    return flat.tobytes().translate(None, b"\0")


def csv_text(header, columns) -> str:
    """Render equal-length 1-D columns under a header tuple.

    Integer columns are written as %d writes them, every other column as
    %.17g does, which also writes inf, -inf, nan and -0.
    """
    cols = [np.asarray(c) for c in columns]
    if not cols or len(cols) != len(header) or any(c.ndim != 1 or c.size != cols[0].size for c in cols):
        raise ContractError("csv_text needs one equal-length 1-D column per header field")
    triples = []
    for c in cols:
        if c.dtype.kind in "iub" or (c.dtype.kind == "f" and c.dtype.itemsize <= 8):
            f = c.astype(np.float64)
        else:  # a NaN stands in for each value, so every field takes the fallback
            f = np.full(c.size, np.nan)
        triples.append((f, c, "%d\n" if c.dtype.kind in "iu" else "%.17g\n"))
    rows = max(1, _BLOCK // len(cols))
    body = b"".join(_block([(f[i:i + rows], c[i:i + rows], fmt) for f, c, fmt in triples])
                    for i in range(0, cols[0].size, rows))
    return ",".join(header) + "\n" + body.decode("ascii")
