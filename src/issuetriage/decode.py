"""One decoder for every input document (corpus line and sidecar, objective
probability row, artifact, GitHub API page), each format a ``Table`` of
``Field`` rows next to the code that owns it. A value that does not fit its
row raises the table's error, naming the file, block or line, key and reason.

A ``Field`` is a kind, shape, bounds and the default taken for an absent or
null key (``REQUIRED``: none). JSON kinds keep the value, whose type must be
exactly the kind's (a bool is no integer): "string", "bool", "integer",
"object", "list" and "count" (an integer in [0, 2**63)); a row may take two
(a corpus ``id``). "decimal" is text that reads as a number. "float" is an
array of finite numbers and "int" of integers, of ``shape`` (a scalar's is
()) and each in [low, high]; "sparse" is a "float" array stored as its
non-zeros; "terms" is a list of distinct names, decoded to name -> position;
"strings" maps names to strings; "tree" is a non-empty list of forest trees.
A dimension is a number or a width bound where it first appears (K classes,
d feature columns, n training rows, V terms, F metadata features). A bound
is a number, a width (K-1 is one less) or an earlier key, elementwise.
"""

from __future__ import annotations

import math
import sys
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

import numpy as np

REQUIRED = object()
MAX_COUNT = 2 ** 63 - 1

# The most cells a "sparse" array may expand to (1 GiB of floats), so that a
# small file cannot claim a huge one
MAX_SPARSE_CELLS = 2 ** 27

# each JSON kind's Python type, and how a message names a kind
_TYPES = {"string": str, "bool": bool, "integer": int, "count": int, "object": dict,
          "list": list}
_NAMES = {"string": "a string", "bool": "true or false", "integer": "an integer",
          "object": "an object", "list": "a list", "count": "an integer in [0, 2**63)"}


def is_int(value, low: int, high: int | None = None) -> bool:
    return (isinstance(value, int) and not isinstance(value, bool) and value >= low
            and (high is None or value <= high))


def is_number(value, low: float, strict: bool) -> bool:
    # an int too large for a float is not finite
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max and (value > low if strict else value >= low))


class Field(NamedTuple):
    """What one key of a document holds; see the module docstring."""
    kind: str | tuple[str, ...]
    shape: tuple = ()
    low: float | str | None = None
    high: float | str | None = None
    default: object = REQUIRED


class Table:
    """One input format: its ``Field`` rows by key, and the exception class
    (``ValueError`` by default) that a document not fitting them raises."""

    def __init__(self, fields: dict[str, Field], error: type[Exception] = ValueError) -> None:
        self.fields, self.error = fields, error
        # per row: its key, its Field, and the types that need no further check
        # but a count's range (``_counts``)
        self._rows = []
        for key, spec in fields.items():
            kinds = (spec.kind,) if isinstance(spec.kind, str) else spec.kind
            plain = {_TYPES.get(kind) for kind in kinds}
            self._rows.append((key, spec, frozenset() if None in plain else frozenset(plain)))
        self._counts = [key for key, spec in fields.items() if spec.kind == "count"]
        # ``rows``: a document's values, and the types every row takes as they are
        keys = tuple(fields)
        self._get = itemgetter(*keys) if len(keys) > 1 else lambda doc: (doc[keys[0]],)
        self._cell_types = frozenset.intersection(*(
            frozenset() if spec.kind == "count" else plain for _, spec, plain in self._rows))

    def decode(self, doc, what: str, dims: dict[str, int] | None = None) -> dict:
        """``doc``'s keys in the table, each decoded as its ``Field`` says;
        named widths are bound in ``dims``. ``what`` starts every message."""
        if type(doc) is not dict:
            raise self.error(f"{what} {doc!r:.40} is not an object")
        dims = {} if dims is None else dims
        out = {}
        for key, spec, plain in self._rows:
            value = doc.get(key)
            if type(value) in plain:
                out[key] = value
            elif value is not None:
                out[key] = self._decode(doc, key, spec, dims, what)
            elif spec.default is REQUIRED:
                raise self.error(f"{what} has no {key!r}")
            else:
                out[key] = spec.default
        for key in self._counts:  # an integer, or a default of None
            if out[key] is not None and not 0 <= out[key] <= MAX_COUNT:
                self._decode(out, key, self.fields[key], dims, what)  # raises
        return out

    def rows(self, docs: list, what: str) -> list[tuple]:
        """Each of the documents ``docs`` decoded to its values in row order:
        in one pass if every value's type is one every row takes as it is."""
        try:
            cells = list(map(self._get, docs))
            if set(map(type, chain.from_iterable(cells))) <= self._cell_types:
                return cells
        except (KeyError, TypeError):
            pass  # a document that is not an object, or lacks a key
        return [tuple(self.decode(doc, what).values()) for doc in docs]

    def encode(self, block: dict) -> dict:
        """``block``'s keys as an artifact stores them, which ``decode`` reads
        back to the same values: see ``_encode``."""
        return {key: _encode(block[key], spec) for key, spec in self.fields.items()}

    def _decode(self, doc: dict, key: str, spec: Field, dims: dict[str, int], what: str):
        value, kind = doc[key], spec.kind
        if not isinstance(kind, str) or kind in _NAMES:  # a JSON kind's type, or a count's range
            kinds = (kind,) if isinstance(kind, str) else kind
            raise self.error(f"{what} field {key!r} must be "
                             f"{' or '.join(_NAMES[k] for k in kinds)}, got {value!r:.40}")
        label = key if isinstance(value, (list, dict)) else f"{key} {value!r:.40}"
        fail = f"{what} {label} does not decode:"
        if kind == "tree":  # one stack walk over every node of every tree
            n_classes, n_features = dims["K"], dims["d"]
            stack = list(value) if isinstance(value, list) and value else [None]
            while stack:
                node = stack.pop()
                keys = set(node) if isinstance(node, dict) else None
                leaf = node["leaf"] if keys == {"leaf"} else None
                if (isinstance(leaf, list) and len(leaf) == n_classes
                        and all(is_number(p, 0, strict=False) for p in leaf)):
                    continue
                if (keys == {"f", "t", "l", "r"} and is_int(node["f"], 0, n_features - 1)
                        and is_number(node["t"], -math.inf, strict=True)):
                    stack += (node["l"], node["r"])
                    continue
                raise self.error(f"{fail} it holds no trees, or a node that is neither a leaf "
                                 f"of {n_classes} numbers >= 0 nor a split on a feature in "
                                 f"[0, {n_features})")
            return value
        if kind == "strings":
            if not (isinstance(value, dict) and all(type(v) is str for v in value.values())):
                raise self.error(f"{fail} it is not an object of strings")
            return value
        if kind == "terms":
            if not (isinstance(value, list) and all(type(v) is str for v in value)):
                raise self.error(f"{fail} it is not a list of strings")
            self._bind(spec.shape, (len(value),), dims, fail)
            columns = {term: column for column, term in enumerate(value)}
            if len(columns) != len(value):
                raise self.error(f"{fail} it repeats a term")
            return columns
        if kind == "sparse":
            parts = Table({"shape": Field("int", (len(spec.shape),), 0),
                           "index": Field("int", ("nnz",), 0),
                           "value": Field("float", ("nnz",))}, self.error
                          ).decode(value, f"{what} {key}")
            shape = tuple(parts["shape"].tolist())
            self._bind(spec.shape, shape, dims, fail)
            size, index = math.prod(shape), parts["index"]
            if size > MAX_SPARSE_CELLS:
                raise self.error(f"{fail} its shape {shape} has more than {MAX_SPARSE_CELLS} "
                                 "cells")
            if index.size and (index[-1] >= size or np.any(index[1:] <= index[:-1])):
                raise self.error(f"{fail} its index repeats, is out of order or leaves "
                                 f"[0, {size})")
            array = np.zeros(size)
            array[index] = parts["value"]
            return array.reshape(shape)
        if kind == "decimal":
            try:
                value = float(value)
            except (TypeError, ValueError):
                raise self.error(f"{fail} it is not a number") from None
        try:
            array = np.array(value)
        except ValueError:  # nested lists of unequal lengths
            array = np.array(None)
        if not array.size:  # [] reads as floats
            array = array.astype(int if kind == "int" else float)
        if array.dtype.kind not in ("iu" if kind == "int" else "iuf"):
            raise self.error(f"{fail} it is not made of "
                             f"{'integers' if kind == 'int' else 'numbers'}")
        self._bind(spec.shape, array.shape, dims, fail)
        if kind != "int":
            array = array.astype(float, copy=False)
            if not np.isfinite(array).all():
                raise self.error(f"{fail} it holds a number that is not finite")
        for name, side, outside in ((spec.low, "below", np.less),
                                    (spec.high, "above", np.greater)):
            bound = name
            if isinstance(name, str):  # a width, less what follows a "-", or a key of the block
                width, _, less = name.partition("-")
                bound = dims[width] - int(less or 0) if width in dims else doc[name]
            if bound is not None and np.any(outside(array, bound)):
                named = isinstance(name, str) and np.ndim(bound) == 0
                raise self.error(f"{fail} it holds a value {side} {name}"
                                 + (f" = {bound}" if named else ""))
        return array if spec.shape else array.item()

    def _bind(self, shape: tuple, actual: tuple, dims: dict[str, int], fail: str) -> None:
        """Check ``actual`` against ``shape``, binding each named width not yet in ``dims``."""
        want = tuple(dims.get(w, w) for w in shape)
        if len(actual) != len(want) or any(isinstance(w, int) and w != a
                                           for w, a in zip(want, actual)):
            raise self.error(f"{fail} its shape is {actual}, not ({', '.join(map(str, want))})")
        dims.update((w, a) for w, a in zip(want, actual) if isinstance(w, str))


def _encode(value, spec: Field):
    """A "terms" dict as its terms in column order; a "sparse" array as an
    object of its ``shape`` and the ``index`` (flat, in C order, ascending)
    and ``value`` of each entry that is not 0.0 (a -0.0 is kept); and a
    "float" array whose values are all whole numbers that a float holds
    exactly, none of them -0.0, as integers, which JSON writes without a
    fraction. Anything else as it is."""
    if spec.kind == "terms":
        return sorted(value, key=value.__getitem__)
    if spec.kind == "sparse":
        flat = np.asarray(value, dtype=float).ravel()
        index = np.flatnonzero((flat != 0) | np.signbit(flat))
        return {"shape": list(np.shape(value)), "index": index,
                "value": _encode(flat[index], Field("float"))}
    if spec.kind == "float" and isinstance(value, np.ndarray) and value.dtype.kind == "f":
        if np.all(np.abs(value) <= 2 ** 53) and np.all(value % 1 == 0):
            whole = value.astype(np.int64)
            if not np.any(np.signbit(value) & (whole == 0)):
                return whole
    return value
