"""On-disk formats: activity-trace JSONL, follow-graph CSV, counts and
activity CSV, and JSON instances, schedules and run configs.

Trace files carry one event object per line with fields ``user``, ``ts``,
``kind`` and (for reactions) ``target_author``, decoded once and checked by
the rule of `Event`. Graph, counts and activity files are CSV, read by one
rule (`_csv_rows`). Instance, schedule and config JSON mirror a dataclass
field for field (`ProblemInstance`, `Schedule`, `cli.RunConfig`).
`from_json` reads them by one strict rule: unknown keys and values of the
wrong JSON type are rejected, naming the file and key; an ``int`` field takes
only a JSON integer and a ``float`` field an integer or a float; nothing is
converted from a string or a bool; missing keys take the dataclass defaults.
An instance's followers are read and written as columns (`model.Followers`).
Every input is read as UTF-8: a byte that is not UTF-8, JSON nested too
deeply to decode, or an integer past the interpreter's digit limit is an
error naming the file (and line). Emission is UTF-8 and deterministic (sorted
keys, two-space indent, trailing newline).
"""

from __future__ import annotations

import collections.abc
import csv
import dataclasses
import functools
import itertools
import json
import math
import operator
import reprlib
import sys
import types
import typing
from pathlib import Path

import numpy as np

from .analyze import OVERFLOW_BUCKET, bucket_name
from .estimate import ActivityTrace, FollowGraph, _event_error
from .model import FollowerProfile, Followers, ProblemInstance, Schedule

__all__ = [
    "TraceFormatError",
    "load_trace",
    "load_graph",
    "load_counts",
    "load_activity",
    "from_json",
    "to_json",
    "instance_to_dict",
    "instance_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "dump_json",
    "load_json",
]


class TraceFormatError(ValueError):
    """Raised on malformed input files; the message names file and line."""


_scan = json.JSONDecoder().scan_once


def _utf8_lines(path: Path):
    """The lines of a UTF-8 file, line endings as written. Read with
    errors="surrogateescape", a byte that is not UTF-8 is a lone surrogate,
    named with its line."""
    with path.open(encoding="utf-8", errors="surrogateescape", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                try:
                    line.encode()
                except UnicodeEncodeError as exc:
                    byte = ord(line[exc.start]) - 0xDC00
                    raise TraceFormatError(
                        f"{path}:{lineno}: invalid UTF-8 byte 0x{byte:02x}"
                    ) from None
            yield line


def _csv_rows(path, header: list[str] | None = None):
    """The rows of a UTF-8 CSV file as `(line, cells)`, `line` being the first
    line of the record. A row with no cells or one blank cell is skipped. With
    `header`, the first row must hold those names (spaces around them aside);
    it is not yielded. Errors name `path` as given."""
    reader = csv.reader(_utf8_lines(Path(path)))
    line = 1
    try:
        first = next(reader, None) if header else None
        if header and [h.strip() for h in first or ()] != header:
            raise TraceFormatError(
                f"{path}:1: expected the header {','.join(header)!r}, got {first!r}"
            )
        line = reader.line_num + 1
        for row in reader:
            if row and (len(row) > 1 or row[0].strip()):
                yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:  # a field past the csv module's size limit
        raise TraceFormatError(f"{path}:{line}: {exc}") from None


def _loads(text: str, where, **kwargs):
    """`json.loads(text)`; a failure names `where` and the reason. A hook in
    `kwargs` that raises `TraceFormatError` keeps its own message."""
    try:
        return json.loads(text, **kwargs)
    except json.JSONDecodeError as exc:
        reason = exc.msg
    except RecursionError:
        reason = "nested too deeply"
    except TraceFormatError:
        raise
    except ValueError:  # `int` refuses a literal past the interpreter's digit limit
        reason = f"integer of more than {sys.get_int_max_str_digits()} digits"
    raise TraceFormatError(f"{where}: invalid JSON ({reason})")


def load_trace(path, tz_offset_minutes: int = 0) -> ActivityTrace:
    """Read a JSONL trace in one pass: one JSON value per line, blank lines
    skipped but counted. Each line is decoded once and checked by the rule of
    `Event` (`estimate._event_error`), so the first bad line in file order is
    named with `Event`'s own message; a line that is not JSON is decoded again
    only to name its JSON error. The columns share one string object per
    distinct name or kind."""
    path = Path(path)
    users, stamps, kinds, targets = [], [], [], []
    intern = {}.setdefault
    for lineno, line in enumerate(_utf8_lines(path), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            obj, end = _scan(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = -1
        if end != len(line):  # not one JSON value: `_loads` names the reason
            obj = _loads(line, f"{path}:{lineno}")
        if type(obj) is not dict:
            raise TraceFormatError(f"{path}:{lineno}: expected a JSON object")
        try:
            user, ts, kind = obj["user"], obj["ts"], obj["kind"]
        except KeyError as exc:
            raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
        target = obj.get("target_author")
        if (error := _event_error(user, ts, kind, target)) is not None:
            raise TraceFormatError(f"{path}:{lineno}: {error}")
        users.append(intern(user, user))
        stamps.append(ts)
        kinds.append(intern(kind, kind))
        targets.append(intern(target, target))
    if not users:
        raise TraceFormatError(f"{path}:1: the trace file contains no events")
    return ActivityTrace.from_columns(users, stamps, kinds, targets, tz_offset_minutes)


def load_graph(path) -> FollowGraph:
    path = Path(path)
    edges = []
    for line, row in _csv_rows(path, ["follower", "followee"]):
        if len(row) != 2 or not row[0].strip() or not row[1].strip():
            raise TraceFormatError(f"{path}:{line}: expected two non-empty columns, got {row!r}")
        edges.append((row[0].strip(), row[1].strip()))
    return FollowGraph(edges)


def load_counts(path) -> dict[int, tuple[int, int]]:
    """Read a `size,reactions,total` table: three columns, one row per size
    bucket, labelled `1`..`10` or `>10`, with 0 <= reactions <= total and
    total >= 1."""
    buckets = {bucket_name(b): b for b in range(1, OVERFLOW_BUCKET + 1)}
    counts: dict[int, tuple[int, int]] = {}
    for line, row in _csv_rows(path, ["size", "reactions", "total"]):
        try:
            if len(row) != 3:
                raise ValueError(f"expected three columns, got {row!r}")
            label = row[0].strip()
            if label not in buckets:
                raise ValueError(f"size must be one of {list(buckets)}, got {label!r}")
            bucket = buckets[label]
            if bucket in counts:
                raise ValueError(f"a second row for size {label}")
            reactions, total = int(row[1]), int(row[2])
            if not 0 <= reactions <= total or total < 1:
                raise ValueError(
                    f"need 0 <= reactions <= total and total >= 1, got {reactions}, {total}"
                )
            counts[bucket] = (reactions, total)
        except ValueError as exc:
            raise TraceFormatError(f"{path}:{line}: {exc}") from exc
    if not counts:
        raise TraceFormatError(f"{path}:1: the counts table is empty")
    return counts


def load_activity(path, slots: int) -> list[float]:
    """Read `slots` per-slot activity weights, finite and >= 0, laid out over
    any number of comma-separated rows; blank cells are skipped."""
    values: list[float] = []
    for line, row in _csv_rows(path):
        for cell in filter(None, map(str.strip, row)):
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not (math.isfinite(value) and value >= 0):
                raise TraceFormatError(
                    f"{path}:{line}: activity weights must be finite numbers >= 0, got {cell!r}"
                )
            values.append(value)
    if len(values) != slots:
        raise ValueError(f"{path}: expected {slots} activity weights, found {len(values)}")
    return values


# ------------------------------------------------------------ dataclass JSON

# Types a JSON value must have exactly, as messages name them.
_EXACT = {int: "an integer", str: "a string", bool: "true or false", type(None): "null"}


class _Mismatch(ValueError):
    """A JSON value that does not fit its field. Enclosing lists and objects
    add their index or key to `path` on the way out, so a location is only
    built on failure."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.path: list[int | str] = []


def _expected(what: str, value) -> _Mismatch:
    return _Mismatch(f"expected {what}, got {reprlib.repr(value)}")


def _number(value) -> float:
    if type(value) is float:
        return value
    if type(value) is not int:
        raise _expected("a number", value)
    try:
        return float(value)
    except OverflowError:
        raise _expected("a number in the float range", value) from None


def _object(cls):
    fields = dataclasses.fields(cls)
    hints = typing.get_type_hints(cls)
    decoders = {f.name: _decoder(hints[f.name]) for f in fields}
    required = {f.name for f in fields if f.default is f.default_factory is dataclasses.MISSING}

    def decode(obj):
        if type(obj) is not dict:
            raise _expected("an object", obj)
        if not obj.keys() >= required:
            raise _Mismatch(f"missing key {min(required - obj.keys())!r}")
        kwargs = {}
        for key, value in obj.items():
            if key not in decoders:
                raise _Mismatch(f"unknown key {key!r}; expected one of {sorted(decoders)}")
            try:
                kwargs[key] = decoders[key](value)
            except _Mismatch as exc:
                exc.path.append(key)
                raise
        try:
            return cls(**kwargs)
        except ValueError as exc:  # the dataclass's own checks
            raise _Mismatch(str(exc)) from exc

    return decode


def _tuple(args: tuple):
    """`tuple[X, ...]` from a list of any length, `tuple[X, Y]` from a list
    of two; a list whose items all have type X is taken as it is."""
    variadic = args[-1] is Ellipsis
    decoders = tuple(map(_decoder, args[:1] if variadic else args))
    plain, what = ({args[0]}, "a list") if variadic else (set(), f"a list of {len(args)}")

    def decode(value):
        if type(value) is not list or not (variadic or len(value) == len(args)):
            raise _expected(what, value)
        if set(map(type, value)) <= plain:
            return tuple(value)
        out = []
        for i, (decode_item, item) in enumerate(
            zip(itertools.repeat(decoders[0]) if variadic else decoders, value)
        ):
            try:
                out.append(decode_item(item))
            except _Mismatch as exc:
                exc.path.append(i)
                raise
        return tuple(out)

    return decode


@functools.cache
def _decoder(hint):
    """The decoding function of one type hint, built once per hint."""
    if dataclasses.is_dataclass(hint):
        return _object(hint)
    if hint is float:
        return _number
    if typing.get_origin(hint) is tuple:
        return _tuple(typing.get_args(hint))
    if typing.get_origin(hint) is collections.abc.Sequence:
        return _tuple((*typing.get_args(hint), Ellipsis))
    kinds = typing.get_args(hint) if typing.get_origin(hint) is types.UnionType else (hint,)
    what = " or ".join(_EXACT[kind] for kind in kinds)

    def decode(value):
        if type(value) not in kinds:
            raise _expected(what, value)
        return value

    return decode


def from_json(cls, obj, where):
    """Decode the dataclass `cls` from a parsed JSON value by the strict rule
    above; `where`, usually the file path, starts every error message."""
    try:
        return _decoder(cls)(obj)
    except _Mismatch as exc:
        loc = "".join(f"[{p}]" if isinstance(p, int) else f": {p}" for p in reversed(exc.path))
        raise ValueError(f"{where}{loc}: {exc}") from None


def to_json(obj) -> dict:
    """The JSON object of a dataclass instance, field for field, each tuple as
    a list."""
    values = ((f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj))
    return {name: list(v) if isinstance(v, tuple) else v for name, v in values}


schedule_to_dict = to_json

_FOLLOWER_FIELDS = tuple(f.name for f in dataclasses.fields(FollowerProfile))
_NUMBERS = {int, float}


def instance_to_dict(instance: ProblemInstance) -> dict:
    """`to_json` of the instance, with each follower as the JSON object of its
    `FollowerProfile`, written from the follower columns."""
    out = to_json(instance)
    f = instance.followers
    columns = (f.sigma, f.rho, f.delta, f.gamma, f.competitor_load)
    out["followers"] = [
        dict(zip(_FOLLOWER_FIELDS, row))
        for row in zip(f.ids, *(c.tolist() for c in columns))
    ]
    return out


def _follower_columns(followers) -> Followers | None:
    """The followers of an instance object as columns, when each is an object
    with every field of `FollowerProfile` (`gamma` may be left out for its
    default) and each value has the exact JSON type `from_json` takes there;
    None otherwise (zero followers too). The values are not checked here:
    `ProblemInstance` checks the columns."""
    if type(followers) is not list or not followers or set(map(type, followers)) != {dict}:
        return None
    if any(len(f) + ("gamma" not in f) != len(_FOLLOWER_FIELDS) for f in followers):
        return None
    try:  # one list per field, with no object per follower
        ids, sigma, rho, delta, load = (
            list(map(operator.itemgetter(name), followers))
            for name in _FOLLOWER_FIELDS if name != "gamma"
        )
    except KeyError:
        return None
    gamma = list(map(operator.methodcaller("get", "gamma", FollowerProfile.gamma), followers))
    if set(map(type, load)) != {list}:
        return None
    flat = list(itertools.chain.from_iterable(load))
    widths = set(map(len, load))
    if not (
        set(map(type, ids)) == {str}
        and set(map(type, sigma)) == {int}
        and set(map(type, rho + delta + gamma)) <= _NUMBERS
        and len(widths) == 1
        and set(map(type, flat)) <= _NUMBERS
    ):
        return None
    n, width = len(followers), widths.pop()
    try:  # an integer past the float range, or a sigma past intp, overflows
        sigma = np.fromiter(sigma, np.intp, n)
        rho, delta, gamma = (np.fromiter(c, float, n) for c in (rho, delta, gamma))
        load = np.fromiter(flat, float, n * width).reshape(n, width)
    except OverflowError:
        return None
    return Followers(ids, sigma, rho, delta, gamma, load)


def instance_from_dict(obj: dict, where="instance JSON") -> ProblemInstance:
    """Decode an instance object by the strict rule above. Followers that
    `_follower_columns` takes and `ProblemInstance` accepts go straight into
    columns; on any failure the object is decoded again by `from_json`, which
    names the first bad key in the object's order with its own message."""
    columns = _follower_columns(obj.get("followers")) if type(obj) is dict else None
    if columns is not None:
        try:
            empty = from_json(ProblemInstance, {**obj, "followers": []}, where)
            return dataclasses.replace(empty, followers=columns)
        except ValueError:
            pass
    return from_json(ProblemInstance, obj, where)


def schedule_from_dict(obj: dict, where="schedule JSON") -> Schedule:
    return from_json(Schedule, obj, where)


def dump_json(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_json(path) -> dict:
    path = Path(path)

    def reject_constant(name: str):
        raise TraceFormatError(f"{path}: non-finite number {name} is not allowed")

    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:  # read it again by lines to name the line of the byte
        text = "".join(_utf8_lines(path))
    obj = _loads(text, path, parse_constant=reject_constant)
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level")
    return obj
