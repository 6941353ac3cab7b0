"""Deterministic report serialization.

Scan reports are written as canonical JSON: keys sorted, floats rendered with
17 significant digits (enough to round-trip a double exactly), no dependence
on dict insertion order or platform repr.  Running the same scan twice must
produce byte-identical files; tests diff the raw bytes.

Non-finite floats (possible in INCONCLUSIVE reports) are rendered as the
strings "nan", "inf", "-inf" since JSON has no literal for them.
"""

from __future__ import annotations

import json
import math
import re

# json.dumps controls layout but not float formatting, so floats are swapped
# for sentinel strings first and unquoted afterwards.  json.dumps escapes the
# control character, so the regex matches its escaped form.
_FLOAT_SENTINEL = "f:"
_UNQUOTE = re.compile(r'"\\u0001f:([^"]*)"')


def format_float(x: float) -> str:
    """17-significant-digit decimal form; exact round-trip for doubles."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


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


def points_csv(samples) -> str:
    """Per-point CSV text from a ScanReport.samples array."""
    row = "%.17g,%.17g,%.17g,%.17g,%d\n"  # "%.17g" renders as format_float does
    return CSV_HEADER + "\n" + "".join([row % r for r in samples.tolist()])


def write_csv(path, samples) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(points_csv(samples))
