"""The input policy of every JSON file gridse reads.

``read_json`` opens and parses a file.  ``fields`` checks one JSON
object against a schema, ``rows`` an array of objects one whole column
at a time.  A schema maps each key to a reader, or to a (reader,
default) pair for a key that may be left out; no other key is allowed.
A reader checks a list of raw JSON values in one pass and returns them.
json.load gives a JSON integer as an int, any other number as a float
and true or false as a bool, so the readers test exact types: True is
no integer and 1.0 is none either, and a string is no number.  Every
failure is an InputError.
"""

from __future__ import annotations

import json
import math
import operator
from functools import partial
from itertools import repeat

from .errors import InputError


def read_json(path, what: str):
    """The parsed JSON document in the UTF-8 file at ``path``; ``what``
    names the file in the error when it cannot be read or parsed."""
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise InputError(f"cannot read {what} {path}: {exc}") from exc


def _typed(values: list, what: str, types: tuple, noun: str) -> list:
    """values, checked to be of the exact types."""
    if not set(map(type, values)).issubset(types):
        text = json.dumps(next(v for v in values if type(v) not in types))
        raise InputError(f"{what} must be {noun}, got "
                         f"{text if len(text) <= 40 else text[:37] + '...'}")
    return values


integers = partial(_typed, types=(int,), noun="an integer")
flags = partial(_typed, types=(bool,), noun="true or false")
strings = partial(_typed, types=(str,), noun="a string")
strings_or_null = partial(_typed, types=(str, type(None)), noun="a string or null")
objects = partial(_typed, types=(dict,), noun="a JSON object")


def reals(values: list, what: str) -> list:
    """JSON numbers as floats, NaN and the infinities included.  An
    integer is read from its decimal text, so one beyond the float range
    is an infinity, as 1e400 is."""
    if set(map(type, values)).issubset((float,)):
        return values
    return list(map(float, map(str, _typed(values, what, (float, int), "a number"))))


def numbers(values: list, what: str) -> list:
    """Finite JSON numbers as floats."""
    values = reals(values, what)
    if not all(map(math.isfinite, values)):
        raise InputError(f"{what} must be finite, got "
                         f"{next(v for v in values if not math.isfinite(v))}")
    return values


def arrays(values: list, what: str, length: int | None = None) -> list:
    """JSON arrays; with ``length`` each holds that many items."""
    _typed(values, what, (list,), "an array")
    if length is not None and not set(map(len, values)).issubset((length,)):
        raise InputError(f"{what} must hold {length} items, got "
                         f"{next(len(v) for v in values if len(v) != length)}")
    return values


def _columns(objs: list, what: str, schema: dict) -> dict[str, list]:
    """Per schema key, its column over the objects as its reader reads
    it, with the default where an optional key is absent."""
    columns, optional = {}, False
    for key, spec in schema.items():
        if isinstance(spec, tuple):
            optional = True
            spec, column = spec[0], list(map(dict.get, objs, repeat(key), repeat(spec[1])))
        else:
            try:
                column = list(map(operator.itemgetter(key), objs))
            except KeyError:
                raise InputError(f"{what} {key!r} is missing") from None
        columns[key] = spec(column, f"{what} {key!r}")
    # With every key required, objects that hold all of them and, in
    # total, no more keys than that hold no other key.
    if optional or sum(map(len, objs)) != len(objs) * len(schema):
        present = set().union(*objs)
        if not present.issubset(schema):
            raise InputError(f"unknown {what} keys: {sorted(present.difference(schema))}")
    return columns


def fields(doc, what: str, schema: dict) -> dict:
    """A JSON object that follows the schema, read key by key."""
    objects([doc], what)
    return {key: column[0] for key, column in _columns([doc], what, schema).items()}


def rows(value, what: str, schema: dict) -> dict[str, list]:
    """The columns of a JSON array of objects that follow the schema,
    in the schema's key order."""
    objects(arrays([value], f"{what} list")[0], f"{what} entry")
    return _columns(value, what, schema)
