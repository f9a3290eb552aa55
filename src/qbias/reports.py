"""Deterministic report rendering.

Identical inputs must yield byte-identical reports: keys are sorted,
floats are printed with 17 significant digits, and list orders are fixed
by the callers' canonical iteration order.
"""

from __future__ import annotations

import io

from .scalars import InvalidParameterError, is_rational_value, format_rational


def _fmt_float(v: float) -> str:
    if v != v or v in (float("inf"), float("-inf")):
        raise InvalidParameterError("non-finite float in report")
    s = format(v, ".17g")
    # keep the token a valid JSON number
    return s if ("e" in s or "." in s or "inf" in s) else s + ".0"


# JSON forbids a raw U+0000-U+001F in a string; each is written \u00XX
_CONTROL_ESCAPES = {c: f"\\u{c:04x}" for c in range(32)}


def _render(obj, out: list):
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):
        out.append(_fmt_float(obj))
    elif isinstance(obj, int):
        out.append(str(obj))
    elif is_rational_value(obj):
        out.append('"' + format_rational(obj) + '"')
    elif isinstance(obj, str):
        text = obj.replace("\\", "\\\\").replace('"', '\\"').translate(_CONTROL_ESCAPES)
        out.append('"' + text + '"')
    elif isinstance(obj, dict):
        out.append("{")
        first = True
        for k in sorted(obj):
            if not first:
                out.append(",")
            first = False
            _render(str(k), out)
            out.append(":")
            _render(obj[k], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, v in enumerate(obj):
            if i:
                out.append(",")
            _render(v, out)
        out.append("]")
    else:
        raise InvalidParameterError(f"unserialisable value {obj!r}")


def canonical_json(obj) -> str:
    """Compact, key-sorted, float-stable JSON with a trailing newline."""
    out: list = []
    _render(obj, out)
    return "".join(out) + "\n"


def _csv_cell(v) -> str:
    if isinstance(v, float):
        return _fmt_float(v)
    if isinstance(v, int):
        return str(v)
    if is_rational_value(v):
        return format_rational(v)
    s = str(v)
    if any(ch in s for ch in ',"\n'):
        s = '"' + s.replace('"', '""') + '"'
    return s


def render_csv(rows) -> str:
    """Rows of tuples (first row is the header) to CSV text."""
    buf = io.StringIO()
    for row in rows:
        buf.write(",".join(_csv_cell(v) for v in row))
        buf.write("\n")
    return buf.getvalue()


def render_human(obj, indent: int = 0) -> str:
    """Plain-text rendering of a JSON-like report object."""
    pad = "  " * indent
    if isinstance(obj, dict):
        lines = []
        for k in sorted(obj):
            v = obj[k]
            if isinstance(v, (dict, list, tuple)) and v:
                lines.append(f"{pad}{k}:")
                lines.append(render_human(v, indent + 1))
            else:
                leaf = _fmt_float(v) if isinstance(v, float) else v
                lines.append(f"{pad}{k}: {leaf}")
        return "\n".join(lines)
    if isinstance(obj, (list, tuple)):
        lines = []
        for v in obj:
            if isinstance(v, (dict, list, tuple)):
                lines.append(render_human(v, indent))
            else:
                leaf = _fmt_float(v) if isinstance(v, float) else v
                lines.append(f"{pad}- {leaf}")
        return "\n".join(lines)
    return f"{pad}{obj}"
