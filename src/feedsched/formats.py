"""On-disk formats: activity-trace JSONL, follow-graph CSV, counts and
activity CSV, and JSON instances, schedules and run configs.

Trace files carry one event object per line with fields ``user``, ``ts``,
``kind`` and (for reactions) ``target_author``. Graph files are CSV with the
header ``follower,followee``. Instance, schedule and config JSON mirror a
dataclass field for field (`ProblemInstance`, `Schedule`, `cli.RunConfig`).
`from_json` reads them by one strict rule: unknown keys and values of the
wrong JSON type are rejected, naming the file and key; an ``int`` field takes
only a JSON integer and a ``float`` field an integer or a float; nothing is
converted from a string or a bool; missing keys take the dataclass defaults.
Emission is deterministic (sorted keys, two-space indent, trailing newline).
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import math
import operator
import reprlib
import types
import typing
from pathlib import Path

from .analyze import OVERFLOW_BUCKET, bucket_name
from .estimate import EVENT_KINDS, ActivityTrace, Event, FollowGraph
from .model import ProblemInstance, Schedule

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
_CHUNK_LINES = 2048
_REQUIRED = ("user", "ts", "kind")
# Each (kind, type of target_author) pair that `Event` admits.
_KIND_TARGET = {(kind, str) for kind in EVENT_KINDS if kind != "post"} | {("post", type(None))}


def _decode_lines(lines) -> list | None:
    """The JSON value of each non-blank line, or None when some line does not
    hold exactly one JSON value. The scanner's end index must be the line's end,
    so a line with two values, or a value split over two lines, is caught."""
    values = []
    try:
        for line in lines:
            line = line.strip()
            if line:
                value, end = _scan(line, 0)
                if end != len(line):
                    return None
                values.append(value)
    except (StopIteration, ValueError, RecursionError):
        return None
    return values


def _trace_columns(values) -> tuple[list, list, list, list] | None:
    """The user, ts, kind and target_author columns of decoded trace lines, or
    None when some value breaks a rule of `Event`: each value must be an
    object, `user` and `kind` strings, `ts` an integer (not a bool) in the int64
    range, `kind` one of `EVENT_KINDS`, and `target_author` a non-empty string
    on reactions only."""
    if not set(map(type, values)) <= {dict}:
        return None
    try:
        users, ts, kinds = (list(map(operator.itemgetter(k), values)) for k in _REQUIRED)
    except KeyError:
        return None
    targets = list(map(dict.get, values, itertools.repeat("target_author")))
    if not set(map(type, users)) | set(map(type, kinds)) <= {str}:
        return None
    if not set(map(type, ts)) <= {int}:
        return None
    if min(ts, default=0) < -(2**63) or max(ts, default=0) >= 2**63:
        return None
    if not set(zip(kinds, map(type, targets))) <= _KIND_TARGET or "" in targets:
        return None
    return users, ts, kinds, targets


def _raise_first_bad_line(path: Path) -> typing.NoReturn:
    """Read the trace one `Event` per line and raise the error of its first bad
    line. Only called once the columns are rejected, so some line is bad. Bytes
    that are not UTF-8 decode to lone surrogates here, which name their line."""
    with path.open(encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            try:
                line.encode()
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise TraceFormatError(f"{path}:{lineno}: invalid UTF-8 byte 0x{byte:02x}")
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceFormatError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(obj, dict):
                raise TraceFormatError(f"{path}:{lineno}: expected a JSON object")
            try:
                Event(obj["user"], obj["ts"], obj["kind"], obj.get("target_author"))
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
    raise AssertionError(f"{path}: the trace columns were rejected, but every line is valid")


def load_trace(path, tz_offset_minutes: int = 0) -> ActivityTrace:
    """Read a JSONL trace: one JSON value per line, blank lines skipped. The
    file is decoded once and checked as columns; if any line is bad, the file
    is read again one `Event` per line, so the error names the first bad line
    with `Event`'s own message."""
    path = Path(path)
    columns = _read_columns(path)
    if columns is None:
        _raise_first_bad_line(path)
    if not columns[0]:
        raise TraceFormatError(f"{path}:1: the trace file contains no events")
    return ActivityTrace.from_columns(*columns, tz_offset_minutes=tz_offset_minutes)


def _read_columns(path: Path) -> tuple[list, list, list, list] | None:
    """The user, ts, kind and target_author columns of a trace file, or None
    when some line is bad. Lines are decoded a chunk at a time, so only one
    chunk's objects are alive at once, and the columns share one string object
    per distinct name or kind."""
    users, ts, kinds, targets = columns = ([], [], [], [])
    shared: dict = {}
    try:
        with path.open(encoding="utf-8") as fh:
            while chunk := list(itertools.islice(fh, _CHUNK_LINES)):
                values = _decode_lines(chunk)
                part = None if values is None else _trace_columns(values)
                if part is None:
                    return None
                for column, new in zip(columns, part):
                    column.extend(new if column is ts else map(shared.setdefault, new, new))
    except UnicodeDecodeError:
        return None
    return columns


def load_graph(path) -> FollowGraph:
    path = Path(path)
    edges = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["follower", "followee"]:
            raise TraceFormatError(
                f"{path}:1: expected the header 'follower,followee', got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2 or not row[0].strip() or not row[1].strip():
                raise TraceFormatError(
                    f"{path}:{lineno}: expected two non-empty columns, got {row!r}"
                )
            edges.append((row[0].strip(), row[1].strip()))
    return FollowGraph(edges)


def load_counts(path) -> dict[int, tuple[int, int]]:
    """Read a `size,reactions,total` table: three columns, one row per size
    bucket, labelled `1`..`10` or `>10`, with 0 <= reactions <= total and
    total >= 1."""
    buckets = {bucket_name(b): b for b in range(1, OVERFLOW_BUCKET + 1)}
    counts: dict[int, tuple[int, int]] = {}
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["size", "reactions", "total"]:
            raise TraceFormatError(
                f"{path}:1: expected the header 'size,reactions,total', got {header!r}"
            )
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
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
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from exc
    if not counts:
        raise TraceFormatError(f"{path}:1: the counts table is empty")
    return counts


def load_activity(path, slots: int) -> list[float]:
    """Read `slots` per-slot activity weights, finite and >= 0, laid out over
    any number of comma-separated rows."""
    values: list[float] = []
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        for row in reader:
            for cell in filter(None, map(str.strip, row)):
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not (math.isfinite(value) and value >= 0):
                    raise TraceFormatError(
                        f"{path}:{reader.line_num}: activity weights must be finite "
                        f"numbers >= 0, got {cell!r}"
                    )
                values.append(value)
    if len(values) != slots:
        raise ValueError(
            f"{path}: expected {slots} activity weights, found {len(values)}"
        )
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


@functools.cache
def _encoder(cls):
    """The encoding function of one dataclass: a copy of its fields with each
    tuple as a list, and dataclass items of a tuple encoded in turn."""
    convert = []
    for name, hint in typing.get_type_hints(cls).items():
        if typing.get_origin(hint) is tuple:
            item = typing.get_args(hint)[0]
            if dataclasses.is_dataclass(item):
                convert.append((name, lambda values, enc=_encoder(item): [enc(v) for v in values]))
            else:
                convert.append((name, list))

    def encode(obj) -> dict:
        out = dict(vars(obj))  # a model dataclass keeps exactly its fields there
        for name, conv in convert:
            out[name] = conv(out[name])
        return out

    return encode


def to_json(obj) -> dict:
    """The JSON object of a dataclass instance, field for field."""
    return _encoder(type(obj))(obj)


instance_to_dict = schedule_to_dict = to_json


def instance_from_dict(obj: dict, where="instance JSON") -> ProblemInstance:
    return from_json(ProblemInstance, obj, where)


def schedule_from_dict(obj: dict, where="schedule JSON") -> Schedule:
    return from_json(Schedule, obj, where)


def dump_json(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path) -> dict:
    path = Path(path)

    def reject_constant(name: str):
        raise ValueError(f"{path}: non-finite number {name} is not allowed")

    try:
        obj = json.loads(path.read_text(), parse_constant=reject_constant)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object at the top level")
    return obj
