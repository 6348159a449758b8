"""One declaration per configuration field: the spec and its mapping loader.

A scenario-pack field is written down once, as a dataclass field built with
:func:`declare`: the annotation gives its type, the ``declare`` keywords its
bounds / choices / quantity kind / plugin family, and the first argument its
one-line description.  Everything else reads that declaration:

* :func:`load` turns a parsed YAML/JSON mapping into the dataclass --
  unknown-field rejection, JSON type and bound checks, unit-string parsing
  and nested sections -- raising :class:`ConfigurationError` of the form
  ``"{ctx}: {field} must be ..., got ... (at /json/pointer)"``;
* :func:`check_declared` applies the same bounds to direct Python
  construction (called from ``__post_init__``), coercing instead of
  type-checking so ``ExecutionConfig(dispatch_interval="5s")`` keeps working;
* :func:`repro.schema.dataclass_schema` walks the same table to publish
  the JSON Schema.

A class may also carry ``RULES``: ``(check, *schema_clauses)`` tuples, one per
cross-field rule, where ``check(obj, ctx)`` is the eager form (raise through
:func:`fail`) and the clauses are its ``if``/``then``/``not`` spelling for
the published schema's ``allOf``.

The per-class field table costs a ``typing.get_type_hints`` call, so it is
resolved once per class (:func:`declared_fields`).
"""

from __future__ import annotations

import dataclasses
import typing
from contextlib import contextmanager
from functools import lru_cache
from typing import Any, Dict, Iterator, Optional

from repro.utils.errors import CGSimError, ConfigurationError
from repro.utils.jsonpointer import join_pointer
from repro.utils.units import parse_bytes, parse_duration

__all__ = [
    "Ctx",
    "at",
    "child",
    "fail",
    "errors_under",
    "require_mapping",
    "reject_unknown",
    "declare",
    "FieldSpec",
    "declared_fields",
    "load",
    "check_declared",
]

#: Keywords :func:`declare` accepts besides the description and the default.
_CONSTRAINTS = (
    "ge", "gt", "le", "choices", "quantity", "plugin", "non_empty",
    "checked_as", "required", "publish_default", "schema",
)

_QUANTITIES = {"duration": parse_duration, "bytes": parse_bytes}

#: JSON kind of an annotation's base type, the Python types a parsed document
#: may hold for it, and how an error message names it.
_KINDS = {bool: "boolean", int: "integer", float: "number", str: "string",
          dict: "object", list: "array"}
_JSON_TYPES = {"boolean": bool, "integer": int, "number": (int, float),
               "string": str, "object": dict, "array": list}
_EXPECTED = {"boolean": "a boolean", "integer": "an integer", "number": "a number",
             "string": "a string", "object": "a mapping", "array": "a list",
             "section": "a mapping"}


class Ctx(str):
    """Validation context: the human-readable label plus a JSON pointer.

    Behaves exactly like a plain context string (callers interpolate it into
    messages with ``f"{ctx}: ..."``), but additionally carries the RFC 6901
    pointer of the mapping being validated, so error messages can end with a
    machine-matchable ``(at /workload/jobs)`` suffix -- the same addressing
    scheme the JSON Schema validator in :mod:`repro.schema` reports.
    Callers that pass a plain ``str`` context still work; their messages
    simply omit the pointer suffix.
    """

    __slots__ = ("pointer",)

    pointer: str

    def __new__(cls, label: str, pointer: str = "") -> "Ctx":
        self = super().__new__(cls, label)
        self.pointer = pointer
        return self


def at(ctx: str, *parts: Any) -> str:
    """The ``" (at /json/pointer)"`` suffix for an error raised under ``ctx``.

    Empty when ``ctx`` is a plain string (no pointer available); the
    whole-document pointer renders as ``/`` for readability.
    """
    pointer = getattr(ctx, "pointer", None)
    if pointer is None:
        return ""
    return f" (at {pointer + join_pointer(parts) or '/'})"


def child(ctx: str, label: str, *parts: Any) -> str:
    """Sub-field context: pointer-carrying when ``ctx`` is, plain otherwise."""
    if isinstance(ctx, Ctx):
        return Ctx(f"{ctx}: {label}", ctx.pointer + join_pointer(parts))
    return f"{ctx}: {label}"


def fail(ctx: str, message: str, *parts: Any) -> typing.NoReturn:
    """Raise ``"{ctx}: {message} (at <ctx pointer>/<parts>)"``."""
    raise ConfigurationError(f"{ctx}: {message}{at(ctx, *parts)}")


@contextmanager
def errors_under(ctx: str) -> Iterator[None]:
    """Re-raise whatever building an object from validated data raises as a
    :class:`ConfigurationError` naming ``ctx`` (and its pointer)."""
    try:
        yield
    except Exception as exc:
        raise ConfigurationError(f"{ctx}: {exc}{at(ctx)}") from exc


def require_mapping(data: Any, ctx: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"{ctx} must be a mapping, got {type(data).__name__}{at(ctx)}"
        )
    return data


def reject_unknown(data: dict, known: Any, ctx: str) -> None:
    unknown = sorted(name for name in data if name not in known)
    if unknown:
        fail(ctx, f"unknown fields {unknown}; known fields: {sorted(known)}", unknown[0])


def declare(doc: str = "", *, default: Any = dataclasses.MISSING,
            default_factory: Any = dataclasses.MISSING, **constraints: Any) -> Any:
    """Declare one configuration field (a ``dataclasses.field`` with metadata).

    ``doc`` is the published one-line description.  Constraints:

    ``ge`` / ``gt`` / ``le``
        Numeric bounds (``>=``, ``>``, ``<=``).
    ``choices``
        The allowed values (published as an ``enum``).
    ``quantity``
        ``"duration"`` or ``"bytes"``: a number or a unit string such as
        ``"4h"`` / ``"50GB"``, stored as the parsed float; bounds apply to it.
    ``plugin``
        Registry family of a plugin name (a non-empty string; the schema
        lists the registered names beside the ``module:Class`` form).
    ``non_empty``
        A string that may not be ``""``.
    ``checked_as``
        A dataclass the mapping is validated as while staying a plain dict
        (``workload.spec`` holds only the overrides the pack gave).
    ``required``
        Must be present in the mapping even though the dataclass has a
        default.
    ``publish_default``
        Whether the schema records the default; by default it does unless
        the default is ``None``.
    ``schema``
        A hand-assembled property schema published verbatim, for shapes the
        annotation cannot express.
    """
    unknown = set(constraints) - set(_CONSTRAINTS)
    if unknown:
        raise TypeError(f"declare() got unexpected constraints {sorted(unknown)}")
    return dataclasses.field(
        default=default, default_factory=default_factory,
        metadata={"description": doc, "spec": constraints},
    )


class _Problem(Exception):
    """What is wrong with one value: ``"must be >= 1, got 0"``."""


class FieldSpec:
    """One dataclass field as the loader and the schema walker see it."""

    __slots__ = ("annotation", "kind", "nullable", "section", "items",
                 "declared", "description", "has_default", "_field") + _CONSTRAINTS

    def __init__(self, f: "dataclasses.Field[Any]", annotation: Any) -> None:
        self.annotation = annotation
        self._field = f
        constraints = f.metadata.get("spec")
        self.declared = constraints is not None
        self.description = f.metadata.get("description") or ""
        for key in _CONSTRAINTS:
            setattr(self, key, (constraints or {}).get(key))
        self.has_default = (f.default is not dataclasses.MISSING
                            or f.default_factory is not dataclasses.MISSING)
        self.required = bool(self.required) or not self.has_default

        args = typing.get_args(annotation)
        self.nullable = typing.get_origin(annotation) is typing.Union and type(None) in args
        base = annotation
        if self.nullable:
            rest = [arg for arg in args if arg is not type(None)]
            base = rest[0] if len(rest) == 1 else annotation
        self.section = base if dataclasses.is_dataclass(base) else None
        self.kind: Optional[str] = (
            "section" if self.section else _KINDS.get(typing.get_origin(base) or base)
        )
        item_args = typing.get_args(base)
        self.items = str if self.kind == "array" and item_args[:1] == (str,) else None

    def default(self) -> Any:
        """The field's default value (factories are called)."""
        if self._field.default is not dataclasses.MISSING:
            return self._field.default
        return self._field.default_factory()

    @property
    def expected(self) -> str:
        """How an error message names an acceptable value."""
        if self.quantity:
            return f"a {self.quantity} quantity (a number or a unit string)"
        if self.choices:
            return "one of " + "|".join(map(str, self.choices))
        if self.plugin or self.non_empty:
            return "a non-empty string"
        if self.items is str:
            return "a list of strings"
        return _EXPECTED.get(self.kind or "", "a value")

    def convert(self, value: Any, strict: bool = True) -> Any:
        """Check ``value`` against the declaration; return what gets stored.

        ``strict`` is the mapping loader's mode: the value must have the JSON
        type the schema publishes.  The lenient mode (direct construction)
        coerces integers and parses quantities but otherwise trusts the
        caller's types.  Raises :class:`_Problem`.
        """
        if value is None:
            if self.nullable:
                return None
            raise _Problem(f"must be {self.expected}, got None")
        try:
            if self.quantity:
                if strict and (isinstance(value, bool)
                               or not isinstance(value, (int, float, str))):
                    raise TypeError
                value = _QUANTITIES[self.quantity](value)
            elif self.choices:
                if value not in self.choices:
                    raise TypeError
            elif strict:
                value = self._typed(value)
            elif self.kind == "integer":
                value = int(value)
            if (self.plugin or self.non_empty) and not value:
                raise TypeError
            if self.ge is not None and value < self.ge:
                raise _Problem(f"must be >= {self.ge}, got {value!r}")
            if self.gt is not None and value <= self.gt:
                raise _Problem(f"must be > {self.gt}, got {value!r}")
            if self.le is not None and value > self.le:
                raise _Problem(f"must be <= {self.le}, got {value!r}")
        except ConfigurationError as exc:  # the unit parser's own wording
            raise _Problem(f"is invalid: {exc}") from None
        except (TypeError, ValueError):
            raise _Problem(f"must be {self.expected}, got {value!r}") from None
        return value

    def _typed(self, value: Any) -> Any:
        """``value`` if it has the field's JSON type (copied / widened), else TypeError."""
        kind = self.kind
        if kind is None:
            return value
        if not isinstance(value, _JSON_TYPES[kind]) or (
            isinstance(value, bool) and kind in ("integer", "number")
        ):
            raise TypeError
        if kind == "number":
            return float(value)
        if kind == "object":
            return dict(value)
        if kind == "array":
            if self.items and not all(isinstance(item, self.items) for item in value):
                raise TypeError
            return list(value)
        return value


@lru_cache(maxsize=None)
def declared_fields(cls: type) -> Dict[str, FieldSpec]:
    """The constructor fields of dataclass ``cls`` by name, resolved once.

    ``init=False`` fields are bookkeeping (``ScenarioPack.source_path``), not
    part of the mapping form, and are left out.
    """
    hints = typing.get_type_hints(cls)
    return {
        f.name: FieldSpec(f, hints.get(f.name, Any))
        for f in dataclasses.fields(cls) if f.init
    }


def load(cls: type, data: Any, ctx: str) -> Any:
    """Validate the parsed mapping ``data`` into an instance of ``cls``.

    Every violation raises :class:`ConfigurationError` naming ``ctx``, the
    field and -- when ``ctx`` is a :class:`Ctx` -- the JSON pointer of the
    offending leaf.  A nested section may already be an instance (a pack's
    ``execution`` given as a file reference is loaded by the caller).
    """
    data = require_mapping(data, ctx)
    table = declared_fields(cls)
    reject_unknown(data, table, ctx)
    for name, field in table.items():
        if field.required and name not in data:
            fail(ctx, f"{name} is required", name)
    kwargs: Dict[str, Any] = {}
    for name, value in data.items():
        field = table[name]
        target = field.section or field.checked_as
        if target is not None and value is not None:
            if not isinstance(value, target):
                loaded = load(target, value, child(ctx, name, name))
                value = dict(value) if field.checked_as else loaded
        else:
            try:
                value = field.convert(value)
            except _Problem as problem:
                fail(ctx, f"{name} {problem}", name)
        kwargs[name] = value
    try:
        obj = cls(**kwargs)
    except CGSimError as exc:
        raise ConfigurationError(f"{ctx}: {exc}{at(ctx)}") from exc
    for check, *_clauses in getattr(cls, "RULES", ()):
        check(obj, ctx)
    return obj


def check_declared(obj: Any, error: type = ConfigurationError) -> None:
    """Apply the declared bounds to a directly constructed ``obj`` in place.

    Integers are coerced with ``int()``, quantities parsed, a nested section
    given as a mapping is constructed; then the class ``RULES`` run.
    Violations raise ``error("{ClassName}: {field} must be ...")``.
    """
    label = type(obj).__name__
    for name, field in declared_fields(type(obj)).items():
        value = getattr(obj, name)
        try:
            if field.section is not None and isinstance(value, dict):
                value = field.section(**value)
            else:
                value = field.convert(value, strict=False)
        except _Problem as problem:
            raise error(f"{label}: {name} {problem}") from None
        except TypeError as exc:
            raise error(f"{label}: {name}: {exc}") from exc
        setattr(obj, name, value)
    for check, *_clauses in getattr(obj, "RULES", ()):
        check(obj, label)
