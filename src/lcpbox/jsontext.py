"""JSON text in the layout of ``json.dumps(obj, indent=2)``, byte for byte.

Before Python 3.13, ``json.dumps`` with an ``indent`` runs the json
module's pure-Python encoder, one generator step per value; :func:`dumps`
is about a third faster on reports there. From 3.13 ``json.dumps``
writes indented text in C and is faster than this writer, but lcpbox
writes with :func:`dumps` on every Python, so every Python runs the same
code.

The writer writes dicts and single values directly, and sends every list
of plain values (a vector, a row of notes) or list of such lists (a
matrix) through the json module's C encoder (``c_make_encoder``, built
once per indentation depth) in one call: its item separator carries the
newline and the indentation, and only a matrix's row boundaries are then
rewritten. A newline can sit only in a separator, since encoded strings
escape theirs. Values are encoded as ``json.dumps`` encodes them:
``float.__repr__``, ``NaN`` and ``±Infinity`` for floats,
``int.__repr__`` for ints (bool and int subclasses included),
ASCII-escaped strings, tuples as lists, and dict keys converted in the
same way.

This module imports nothing beyond the standard library;
``tests/check_json_writer.py`` checks the writer on any Python without
installing the package.
"""

from __future__ import annotations

import json
from json.encoder import c_make_encoder, encode_basestring_ascii

__all__ = ["dumps"]

_INF = float("inf")
# Exact types that the C encoder writes as plain values; subclasses take
# the per-value route, which encodes them the same way.
_PLAIN = frozenset((str, int, float, bool, type(None)))
# item separator -> a C encoder that writes with it
_ENCODERS: dict[str, object] = {}


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)``, byte for byte."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out)


def _encode(seq, sep: str) -> str:
    """One C-encoder call on a list of plain values or of lists of them,
    with item separator ``sep``."""
    encode = _ENCODERS.get(sep)
    if encode is None:
        encode = _ENCODERS[sep] = c_make_encoder(
            markers=None, default=json.JSONEncoder().default,
            encoder=encode_basestring_ascii, indent=None, key_separator=": ",
            item_separator=sep, sort_keys=False, skipkeys=False, allow_nan=True)
    return "".join(encode(seq, 0))


def _float(x) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _value(obj) -> str | None:
    """The text of a single value, or None for a list, tuple or dict."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, float):
        return _float(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, (list, tuple, dict)):
        return None
    raise TypeError(f"Object of type {obj.__class__.__name__} "
                    "is not JSON serializable")


def _key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError("keys must be str, int, float, bool or None, "
                    f"not {key.__class__.__name__}")


def _plain(seq) -> bool:
    return set(map(type, seq)) <= _PLAIN


def _write(obj, newline: str, out: list[str]) -> None:
    """Append the encoding of ``obj``, whose closing bracket goes after
    ``newline`` (a newline and the current indentation)."""
    text = _value(obj)
    if text is not None:
        out.append(text)
    elif isinstance(obj, dict):
        _write_dict(obj, newline, out)
    else:
        _write_list(obj, newline, out)


def _write_dict(obj: dict, newline: str, out: list[str]) -> None:
    if not obj:
        out.append("{}")
        return
    inner = newline + "  "
    opening = "{" + inner
    for key, value in obj.items():
        head = opening + encode_basestring_ascii(_key(key)) + ": "
        opening = "," + inner
        text = _value(value)
        if text is None:
            out.append(head)
            _write(value, inner, out)
        else:
            out.append(head + text)
    out.append(newline + "}")


def _write_list(seq, newline: str, out: list[str]) -> None:
    if not seq:
        out.append("[]")
        return
    inner = newline + "  "
    if _plain(seq):
        # "[a,<inner>b]" -> "[<inner>a,<inner>b<newline>]"
        out.append("[" + inner + _encode(seq, "," + inner)[1:-1] + newline + "]")
        return
    if all(type(row) in (list, tuple) and row and _plain(row) for row in seq):
        # One call with the rows' separator, then each "],<row>[" between
        # two rows becomes "<inner>],<inner>[<row>".
        row = inner + "  "
        body = _encode(seq, "," + row)[2:-2].replace(
            "]," + row + "[", inner + "]," + inner + "[" + row)
        out.append("[" + inner + "[" + row + body + inner + "]" + newline + "]")
        return
    opening = "[" + inner
    for value in seq:
        out.append(opening)
        opening = "," + inner
        _write(value, inner, out)
    out.append(newline + "]")
