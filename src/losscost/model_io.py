"""Load and validate model files.

A model file is a JSON document::

    {
      "classes": [
        {"lambda": 1.0, "mu": 1.0, "bandwidth": 1, "omega": 1},
        ...
      ],
      "policy": {"type": "full_sharing", "capacity": 4}
    }

or with ``"type": "per_class"`` and ``"thresholds": [c1, ..., cK]``.
``bandwidth`` defaults to 1 and ``omega`` to 0.  Validation errors carry the
offending JSON path and, where it can be located in the source text, a
1-based line number.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .model import AdmissionPolicy, FullSharing, ModelError, PerClassThreshold, TrafficClass

__all__ = ["ModelFileError", "load_model", "parse_model"]


class ModelFileError(ModelError):
    """Bad model file; ``path`` is the JSON path, ``line`` the source line."""

    def __init__(self, message: str, json_path: str = "", line: int | None = None):
        self.json_path = json_path
        self.line = line
        loc = f" at {json_path}" if json_path else ""
        if line is not None:
            loc += f" (line {line})"
        super().__init__(message + loc)


_DECODER = json.JSONDecoder()
_SPACE = re.compile(r"[ \t\n\r]*")
# JSON keys of the TrafficClass fields whose names differ
_CLASS_KEYS = {"lam": "lambda"}


def _skip(text: str, i: int) -> int:
    return _SPACE.match(text, i).end()


def _members(text: str, i: int):
    """(key or index, offset of the key or item, offset of its value) of each
    member of the object, or item of the array, that starts at text[i]."""
    is_object = text[i] == "{"
    i = _skip(text, i + 1)
    index = 0
    while text[i] not in "}]":
        if is_object:
            key, j = _DECODER.raw_decode(text, i)
            value = _skip(text, _skip(text, j) + 1)  # past the colon
        else:
            key, value = index, i
        yield key, i, value
        index += 1
        i = _skip(text, _DECODER.raw_decode(text, value)[1])
        if text[i] == ",":
            i = _skip(text, i + 1)


def _render(path: tuple) -> str:
    return "$" + "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)


@dataclass
class _Source:
    text: str

    def line(self, path: tuple) -> int:
        """1-based line of the key or item at ``path``; where part of the
        path is missing, of the innermost value that is there."""
        text, at = self.text, _skip(self.text, 0)
        value = at
        for part in path:
            if text[value] not in "{[":
                break
            found = [(k, v) for p, k, v in _members(text, value) if p == part]
            if not found:
                break
            at, value = found[-1]  # a repeated key: json keeps the last
        return text.count("\n", 0, at) + 1

    def error(self, message: str, *path) -> ModelFileError:
        return ModelFileError(message, _render(path), self.line(path))


def _require(obj: dict, key: str, src: _Source, *path) -> Any:
    if key not in obj:
        raise src.error(f"missing required field '{key}'", *path)
    return obj[key]


def _number(value: Any, src: _Source, *path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise src.error(f"expected a number, got {value!r}", *path)
    return float(value)


def _integer(value: Any, src: _Source, *path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise src.error(f"expected an integer, got {value!r}", *path)
    return value


def parse_model(text: str) -> tuple[tuple[TrafficClass, ...], AdmissionPolicy]:
    """Parse and validate a model document from its JSON source text."""
    src = _Source(text)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelFileError(f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise ModelFileError("top-level value must be an object")

    raw_classes = _require(doc, "classes", src)
    if not isinstance(raw_classes, list) or not raw_classes:
        raise src.error("'classes' must be a non-empty array", "classes")

    classes = []
    for i, item in enumerate(raw_classes):
        at = ("classes", i)
        if not isinstance(item, dict):
            raise src.error("each class must be an object", *at)
        lam = _number(_require(item, "lambda", src, *at), src, *at, "lambda")
        mu = _number(_require(item, "mu", src, *at), src, *at, "mu")
        bandwidth = _integer(item.get("bandwidth", 1), src, *at, "bandwidth")
        omega = _integer(item.get("omega", 0), src, *at, "omega")
        unknown = set(item) - {"lambda", "mu", "bandwidth", "omega"}
        if unknown:
            key = sorted(unknown)[0]
            raise src.error(f"unknown field '{key}'", *at, key)
        try:
            classes.append(TrafficClass(lam=lam, mu=mu, bandwidth=bandwidth, omega=omega))
        except ModelError as exc:
            raise src.error(str(exc), *at, _CLASS_KEYS.get(exc.field, exc.field)) from exc

    raw_policy = _require(doc, "policy", src)
    if not isinstance(raw_policy, dict):
        raise src.error("'policy' must be an object", "policy")
    ptype = _require(raw_policy, "type", src, "policy")
    policy: AdmissionPolicy
    if ptype == "full_sharing":
        capacity = _integer(_require(raw_policy, "capacity", src, "policy"),
                            src, "policy", "capacity")
        try:
            policy = FullSharing(capacity=capacity)
        except ModelError as exc:
            raise src.error(str(exc), "policy", "capacity") from exc
    elif ptype == "per_class":
        thresholds = _require(raw_policy, "thresholds", src, "policy")
        if not isinstance(thresholds, list) or not all(
            isinstance(t, int) and not isinstance(t, bool) for t in thresholds
        ):
            raise src.error("'thresholds' must be an array of integers", "policy", "thresholds")
        if len(thresholds) != len(classes):
            raise src.error(f"{len(thresholds)} thresholds for {len(classes)} classes",
                            "policy", "thresholds")
        try:
            policy = PerClassThreshold(thresholds=tuple(thresholds))
        except ModelError as exc:
            raise src.error(str(exc), "policy", "thresholds") from exc
    else:
        raise src.error(
            f"unknown policy type {ptype!r} (expected 'full_sharing' or 'per_class')",
            "policy", "type",
        )
    return tuple(classes), policy


def load_model(path: str | Path) -> tuple[tuple[TrafficClass, ...], AdmissionPolicy]:
    """Read and validate a model file, which is UTF-8 like all JSON."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"model file is not UTF-8: {exc.reason} at byte {exc.start}",
                             line=data.count(b"\n", 0, exc.start) + 1) from exc
    return parse_model(text)
