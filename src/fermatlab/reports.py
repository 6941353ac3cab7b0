"""Deterministic report serialization.

Scan reports are written as canonical JSON: keys sorted, floats rendered with
17 significant digits (enough to round-trip a double exactly), no dependence
on dict insertion order or platform repr.  Running the same scan twice must
produce byte-identical files; tests diff the raw bytes.

Non-finite floats (possible in INCONCLUSIVE reports) are rendered as the
strings "nan", "inf", "-inf" since JSON has no literal for them.

The per-point CSV has the same "%.17g" text, rendered for whole columns at
once by a numpy kernel that proves each value's rounding or hands the value
to "%.17g" % x itself.
"""

from __future__ import annotations

import functools
import json
import math
import re

import numpy as np

# json.dumps controls layout but not float formatting, so floats are swapped
# for sentinel strings first and unquoted afterwards.  json.dumps escapes the
# control character, so the regex matches its escaped form.
_FLOAT_SENTINEL = "f:"
_UNQUOTE = re.compile(r'"\\u0001f:([^"]*)"')


def format_float(x: float) -> str:
    """17-significant-digit decimal form; exact round-trip for doubles."""
    return format(float(x), ".17g")


def _encode(obj):
    if isinstance(obj, str):
        if "\x01" in obj:
            # the float sentinel rides on \x01; a payload string carrying it
            # would be unquoted into invalid JSON, so refuse instead
            raise ValueError("strings containing \\x01 cannot be serialized")
        return obj
    if isinstance(obj, bool) or obj is None or isinstance(obj, int):
        return obj
    if isinstance(obj, float):
        text = format_float(obj)
        if text in ("nan", "inf", "-inf"):
            return text  # plain string: JSON has no non-finite literals
        return _FLOAT_SENTINEL + text
    if isinstance(obj, complex):
        return {"re": _encode(obj.real), "im": _encode(obj.imag)}
    if isinstance(obj, dict):
        return {_encode(str(k)): _encode(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_encode(v) for v in obj]
    if hasattr(obj, "to_dict"):
        return _encode(obj.to_dict())
    raise TypeError(f"cannot serialize {type(obj).__name__} canonically")


def canonical_json(obj) -> str:
    """Canonical JSON text (sorted keys, 17-digit floats, trailing newline)."""
    text = json.dumps(_encode(obj), sort_keys=True, indent=2)
    return _UNQUOTE.sub(r"\1", text) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(canonical_json(obj))


def scan_payload(report, tool_version: str, command: str) -> dict:
    """Report dict wrapped with provenance, ready for canonical_json."""
    payload = {"tool_version": tool_version, "command": command}
    payload.update(report.to_dict())
    return payload


CSV_HEADER = "z_re,z_im,residual_abs,residual_rel,excluded"

#: sample rows rendered at a time; a block's workspace stays below 1 MiB
_CSV_BLOCK = 1024

#: width of a float's slot: "-1.2345678901234567e-300" is the longest "%.17g"
_SLOT = 24

#: a value whose scaled fraction lies this close to one half, where the
#: kernel's error (below 1e-13) could decide the rounding, is left to
#: "%.17g" % x
_TIE_MARGIN = 1e-6

#: magnitudes the kernel renders; the rest are left to "%.17g" % x.  Within
#: them 10^(16 - k) is a double, and no partial product of the kernel's
#: double-double multiply overflows or underflows
_FAST_MIN, _FAST_MAX = 1e-290, 1e285

_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for 53-bit mantissas

#: decimal exponents k the tables cover: floor(log10 |x|) of a value in
#: [_FAST_MIN, _FAST_MAX], a guess of it one decade off, and its carry
_K_MIN, _K_MAX = -292, 288

#: a value's text is gathered from its row of these 28 bytes: NUL, sign,
#: ".", the 17 digits (the last 16 as four aligned words), "0", "e", two
#: NULs, and the exponent's sign and three digits as one aligned word
_ALPHABET = b"\0\0." + b"0" * 17 + b"0e\0\0" + b"+000"


def _split(a):
    """a = hi + lo exactly, each half of at most 26 significant bits."""
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


@functools.cache
def _tables():
    """The kernel's tables, built on first use (a few ms, never at import).

    - pow10[_K_MAX - k] = (h, h_hi, h_lo, rest) for p = 16 - k: h is
      10^p correctly rounded, h_hi + h_lo its halves for Dekker's product,
      and rest the correctly rounded remainder, so h + rest is within
      2^-106 of 10^p relatively;
    - quads[q]: the four ASCII digits of q < 10^4 as one word, and
      last[q]: the position (1-4) of the last nonzero one, -99 for q = 0;
    - expo[k - _K_MIN]: the exponent text of k as one word, and
      cases[k - _K_MIN]: k + 4 for the fixed form (-4 <= k < 17), else 21;
    - templates[case * 17 + c - 1]: the alphabet positions of the text of a
      value of that case with c significant digits, padded with NUL;
    - ints[v & 255]: the "%d" text of an int8 v, padded with NUL.
    """
    pow10 = []
    for k in range(_K_MAX, _K_MIN - 1, -1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den  # int / int is correctly rounded
        hn, hd = h.as_integer_ratio()
        m, s = math.frexp(h)  # split in [0.5, 1): _SPLIT * h may overflow
        h_hi = math.ldexp(_split(m)[0], s)
        pow10.append((h, h_hi, h - h_hi, (num * hd - hn * den) / (den * hd)))
    q = np.arange(10**4)
    text = q[:, None] // np.array([1000, 100, 10, 1]) % 10 + 48
    quads = text.astype(np.uint8).view(np.uint32).ravel()
    last = np.where(q == 0, -99, 4 - np.argmax(text[:, ::-1] != 48, axis=1)).astype(np.int8)
    ks = range(_K_MIN, _K_MAX + 1)
    expo = np.frombuffer(b"".join(b"%c%3s" % (b"+-"[k < 0], b"%02d" % abs(k))
                                  for k in ks).replace(b" ", b"\0"), np.uint32)
    cases = np.array([k + 4 if -4 <= k < 17 else 21 for k in ks])
    templates = np.zeros((22 * 17, _SLOT), np.intp)
    for case in range(22):
        for c in range(1, 18):
            digits = list(range(3, 3 + c))  # the significant ones
            if case == 21:  # d.ddde+XX
                t = digits[:1] + [2] * (c > 1) + digits[1:] + [21, 24, 25, 26, 27]
            elif case >= 4:  # ddd.ddd with k + 1 integer digits
                whole = case - 3
                t = list(range(3, 3 + whole)) + ([2] + digits[whole:] if c > whole else [])
            else:  # 0.000ddd with -k - 1 zeros
                t = [20, 2] + [20] * (3 - case) + digits
            templates[case * 17 + c - 1, :len(t) + 1] = [1] + t
    ints = np.array([b"%d" % (v - 256 * (v > 127)) for v in range(256)], "S4")
    return (np.array(pow10), quads, last, expo, cases, templates,
            ints.view(np.uint8).reshape(256, 4))


def _scaled(a, k, pow10):
    """a 10^(16 - k) as a double-double (hi, lo) with relative error below
    about 2^-100: the Dekker two-product of a and the tabled head, plus a
    times the tabled rest (Dekker, Numer. Math. 18, 1971).  In
    [_FAST_MIN, _FAST_MAX] no partial product overflows or underflows."""
    h, h_hi, h_lo, rest = pow10[_K_MAX - k].T
    a_hi, a_lo = _split(a)
    hi = a * h
    lo = ((a_hi * h_hi - hi) + a_hi * h_lo + a_lo * h_hi) + a_lo * h_lo
    lo += a * rest
    s = hi + lo
    lo -= s - hi
    return s, lo


def _render_floats(x):
    """The "%.17g" text of each float64 in x, as rows of _SLOT bytes padded
    with NUL.

    The 17 digits D = round(|x| 10^(16 - k)) with k = floor(log10 |x|) come
    from a double-double product: k is guessed by log10 and moved by one
    decade where the product leaves [10^16, 10^17), and D = 10^17 carries
    into the next decade.  A value whose product lies within _TIE_MARGIN of
    a rounding boundary, or outside [_FAST_MIN, _FAST_MAX] (zero, subnormal,
    huge, inf, nan), is rendered by "%.17g" % x itself.  The digits are laid
    out by the gather template of the value's %g form (case k + 4 for the
    fixed form, -4 <= k < 17, and 21 for the exponent form) and its count of
    significant digits.
    """
    pow10, quads, last, expo, cases, templates, _ = _tables()
    n = x.size
    a = np.abs(x)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a[~fast] = 1.0
    k = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, k, pow10)
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    moved = np.flatnonzero(low | (hi >= 1e17))
    if moved.size:
        k[moved] += 1 - 2 * low[moved]
        hi[moved], lo[moved] = _scaled(a[moved], k[moved], pow10)
    whole = np.floor(lo)
    lo -= whole
    ok = fast & (np.abs(lo - 0.5) >= _TIE_MARGIN)
    digits = hi.astype(np.int64) + whole.astype(np.int64) + (lo > 0.5)
    carry = digits == 10**17
    digits[carry] = 10**16
    k += carry
    ok &= (digits >= 10**16) & (digits < 10**17)  # log10 two decades off: never in IEEE

    top = digits // 10**8
    bottom = digits - top * 10**8
    chunks = np.empty((n, 4), np.int64)
    chunks[:, 0] = top // 10**4 % 10**4
    chunks[:, 1] = top % 10**4
    chunks[:, 2] = bottom // 10**4
    chunks[:, 3] = bottom % 10**4
    alphabet = np.empty((n, len(_ALPHABET)), np.uint8)
    alphabet[:] = np.frombuffer(_ALPHABET, np.uint8)
    words = alphabet.view(np.uint32)
    words[:, 1:5] = quads[chunks]
    words[:, 6] = expo[k - _K_MIN]
    alphabet[:, 1] = np.signbit(x).view(np.uint8) * 45  # "-"
    alphabet[:, 3] += (top // 10**8).astype(np.uint8)
    sig = last[chunks[:, 3]] + 13  # significant digits, unless D ends in 0000
    short = np.flatnonzero(sig < 0)
    if short.size:
        sig[short] = np.max(last[chunks[short]] + np.array([1, 5, 9, 13]), axis=1).clip(1)
    index = templates[cases[k - _K_MIN] * 17 + sig - 1]
    index += np.arange(0, n * len(_ALPHABET), len(_ALPHABET))[:, None]
    out = np.take(alphabet.ravel(), index)
    slow = np.flatnonzero(~ok)
    if slow.size:
        out[slow] = _printf(x[slow])
    return out


def _printf(x):
    """The kernel's fallback: "%.17g" % v for each v in x, in the kernel's
    rows."""
    text = [("%.17g" % v).encode() for v in x.tolist()]
    return np.array(text, "S%d" % _SLOT).view(np.uint8).reshape(-1, _SLOT)


def _csv_blocks(samples):
    """The per-point CSV as ASCII bytes, one piece per _CSV_BLOCK rows.

    Each row is "%.17g,%.17g,%.17g,%.17g,%d\\n" of a sample.  A block is
    laid out as a matrix of four float slots, commas, the excluded slot and
    a newline, and its NUL padding is dropped.  The z columns repeat along
    the grid, so each distinct bit pattern of theirs is rendered once."""
    ints = _tables()[-1]
    yield (CSV_HEADER + "\n").encode()
    for lo in range(0, len(samples), _CSV_BLOCK):
        rows = samples[lo:lo + _CSV_BLOCK]
        m = len(rows)
        (z_re, re_at), (z_im, im_at) = (
            np.unique(np.ascontiguousarray(rows[f]).view(np.int64), return_inverse=True)
            for f in ("z_re", "z_im"))
        text = _render_floats(np.concatenate([z_re.view(np.float64), z_im.view(np.float64),
                                              rows["residual_abs"], rows["residual_rel"]]))
        cut = len(z_re) + len(z_im)
        columns = (text[re_at], text[len(z_re) + im_at], text[cut:cut + m], text[cut + m:])
        block = np.empty((m, 4 * (_SLOT + 1) + 5), np.uint8)
        for j, column in enumerate(columns):
            block[:, j * (_SLOT + 1):(j + 1) * (_SLOT + 1) - 1] = column
            block[:, (j + 1) * (_SLOT + 1) - 1] = 44  # ","
        block[:, -5:-1] = ints[rows["excluded"].view(np.uint8)]
        block[:, -1] = 10  # "\n"
        flat = block.ravel()
        yield flat[flat != 0].tobytes()


def points_csv(samples) -> str:
    """Per-point CSV text from a ScanReport.samples array: one
    "%.17g,%.17g,%.17g,%.17g,%d" row per sample, as format_float renders."""
    return b"".join(_csv_blocks(samples)).decode("ascii")


def write_csv(path, samples) -> None:
    """Write points_csv(samples) to path, block by block."""
    with open(path, "wb") as fh:
        fh.writelines(_csv_blocks(samples))
