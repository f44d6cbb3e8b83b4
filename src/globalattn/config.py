"""Flat ``key = value`` configuration text, and the records spelled in it.

One key per line, ``#`` comments and blank lines ignored.  Unknown keys are
errors rather than warnings: a silently ignored typo in a hyperparameter
name would invalidate an experiment.

Each record (train config, specs, model headers, dataset meta) declares one
table of :class:`Field` rows; :func:`parse_fields` and
:func:`format_fields` convert between the record and its key-value map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from .errors import ConfigError

__all__ = ["parse_kv_text", "load_kv_file", "format_kv", "Field",
           "field_keys", "parse_fields", "format_fields", "parse_bool",
           "format_bool", "parse_float", "parse_ints", "format_ints",
           "parse_size"]


def parse_kv_text(text: str, allowed_keys: tuple[str, ...] | None = None
                  ) -> dict[str, str]:
    """Parse config text into a string map, validating key names."""
    out: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {line_no}: expected key = value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {line_no}: empty key")
        if key in out:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        if allowed_keys is not None and key not in allowed_keys:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        out[key] = value.strip()
    return out


def load_kv_file(path: str | Path, allowed_keys: tuple[str, ...] | None = None
                 ) -> dict[str, str]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text") from exc
    return parse_kv_text(text, allowed_keys)


def format_kv(pairs: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in pairs.items())


@dataclass(frozen=True)
class Field:
    """One line of a record: its key, the record attribute (and constructor
    argument) it holds, and the conversions from and to the value text."""

    key: str
    attr: str
    parse: Callable[[str], Any] = str
    format: Callable[[Any], str] = str


def field_keys(fields: tuple[Field, ...]) -> tuple[str, ...]:
    return tuple(f.key for f in fields)


def parse_fields(fields: tuple[Field, ...], kv: dict[str, str],
                 required: bool = False) -> dict[str, Any]:
    """Constructor keyword arguments from the keys of ``kv`` that ``fields``
    names; other keys are ignored.  With ``required`` every field must be
    present."""
    if required:
        missing = [f.key for f in fields if f.key not in kv]
        if missing:
            raise ConfigError(f"missing keys: {', '.join(missing)}")
    out = {}
    for f in fields:
        if f.key in kv:
            try:
                out[f.attr] = f.parse(kv[f.key])
            except ValueError as exc:
                raise ConfigError(
                    f"invalid {f.key} value {kv[f.key]!r}: {exc}") from exc
    return out


def format_fields(fields: tuple[Field, ...], record: Any) -> dict[str, str]:
    """The record's key-value map, in table order."""
    return {f.key: f.format(getattr(record, f.attr)) for f in fields}


def parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("1", "true", "yes"):
        return True
    if lowered in ("0", "false", "no"):
        return False
    raise ValueError("expected 1/true/yes or 0/false/no")


def format_bool(value: bool) -> str:
    return str(int(value))


def parse_float(value: str) -> float:
    """A finite float; nan and +-inf are rejected like malformed text."""
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(f"expected a finite number, got {value!r}")
    return number


def parse_ints(value: str) -> tuple[int, ...]:
    """Comma-separated integers, e.g. ``8,16``."""
    return tuple(int(tok) for tok in value.split(","))


def format_ints(values: Iterable[int]) -> str:
    return ",".join(str(v) for v in values)


def parse_size(value: str) -> tuple[int, int]:
    """``WxH``, e.g. ``8x8``, with both extents at least 1."""
    try:
        w, h = (int(v) for v in value.lower().split("x"))
        if min(w, h) >= 1:
            return w, h
    except ValueError:
        pass
    raise ConfigError(f"expected WxH with W, H >= 1, got {value!r}")
