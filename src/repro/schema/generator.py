"""Generate the scenario-pack JSON Schema from the configuration dataclasses.

No pack field is described here.  Every ``$defs`` entry and the top-level
object are produced by :func:`dataclass_schema` walking the field table of
the corresponding dataclass (:func:`repro.utils.fieldspec.declared_fields`):
the annotation gives the JSON type, the ``declare()`` metadata the bounds,
choices, quantity kind, plugin family and description, the dataclass default
the ``default``, and the class docstring's first paragraph the object's
``description``.  It is the same table the mapping loader
(:func:`repro.utils.fieldspec.load`) validates against, so the eager errors
and this document cannot describe different fields.  Plugin-name enums are
pulled live from :func:`repro.plugins.registry.available_plugins`; the
cross-field rules (``kind: files`` requires paths, ``trace`` and
``per_site_jobs`` are exclusive, a stop ``metric`` needs a ``value``, ...)
are the ``if``/``then``/``not`` clauses each class keeps beside the eager
check in its ``RULES``.  The only hand-assembled fragments are the three
``faults`` sub-objects (backed by plain classes), which sit next to
:class:`~repro.scenarios.schema.FaultsSection`.

The rendered document is committed at ``docs/schema/scenario-pack.schema.json``
and kept in sync by ``repro schema check`` in CI.  The schema is
deliberately *no looser* than :meth:`ScenarioPack.from_dict
<repro.scenarios.ScenarioPack.from_dict>`: everything it accepts the eager
validator accepts too (file-existence, plugin-option values and sweep-axis
dry-runs remain eager-only), and everything :meth:`ScenarioPack.to_dict
<repro.scenarios.ScenarioPack.to_dict>` emits validates against it.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.utils.fieldspec import FieldSpec, declared_fields

__all__ = [
    "SCHEMA_VERSION",
    "SCHEMA_ID",
    "build_schema",
    "schema_json",
    "schema_path",
    "dataclass_schema",
    "doc_summary",
    "typed_schema",
    "quantity_schema",
]

#: Version of the scenario-pack schema document.  Bump the major part for
#: breaking changes to the pack format, the minor part for additive ones.
SCHEMA_VERSION = "2.0"

#: Canonical ``$id`` of the published schema document.
SCHEMA_ID = "https://example.invalid/cgsim-repro/schema/scenario-pack.schema.json"

#: Registered-plugin ``"module.path:ClassName"`` reference syntax.
PLUGIN_SPEC_PATTERN = r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*:[A-Za-z_][A-Za-z0-9_]*$"

#: Quantity strings accepted by :func:`repro.utils.units.parse_duration` /
#: :func:`~repro.utils.units.parse_bytes`: a number plus an optional unit.
QUANTITY_PATTERN = r"^\s*[+]?[0-9]*\.?[0-9]+([eE][-+]?[0-9]+)?\s*[A-Za-z/]*\s*$"


def schema_path(repo_root: Optional[Path] = None) -> Path:
    """Location of the committed schema document inside the repository.

    ``docs/schema/scenario-pack.schema.json`` relative to ``repo_root``
    (defaulting to the repository this package was imported from); the CLI's
    ``repro schema check``/``emit`` default to this path.
    """
    if repo_root is None:
        repo_root = Path(__file__).resolve().parents[3]
    return repo_root / "docs" / "schema" / "scenario-pack.schema.json"


def doc_summary(obj: Any) -> str:
    """First paragraph of ``obj``'s docstring, collapsed to one line."""
    doc = inspect.getdoc(obj) or ""
    first = doc.split("\n\n", 1)[0]
    return " ".join(first.split())


def typed_schema(kind: str, description: str = "", **keywords: Any) -> Dict[str, Any]:
    """``{"type": kind}`` plus the constraint ``keywords`` that are not ``None``."""
    schema = {"type": kind, **{k: v for k, v in keywords.items() if v is not None}}
    if description:
        schema["description"] = description
    return schema


def quantity_schema(kind: str, exclusive_minimum: Optional[float] = None,
                    minimum: Optional[float] = None, nullable: bool = False,
                    description: str = "") -> Dict[str, Any]:
    """A duration/byte quantity: a bounded number or a unit string like ``"4h"``."""
    branches: List[Dict[str, Any]] = [
        typed_schema("number", minimum=minimum, exclusiveMinimum=exclusive_minimum),
        {"type": "string", "pattern": QUANTITY_PATTERN,
         "$comment": f"unit string parsed by repro.utils.units.parse_{kind}"},
    ]
    if nullable:
        branches.append({"type": "null"})
    schema: Dict[str, Any] = {"anyOf": branches}
    if description:
        schema["description"] = description
    return schema


def _plugin_ref(family: str, description: str) -> Dict[str, Any]:
    """Plugin name schema: registered names of ``family`` or ``module:Class``."""
    from repro.plugins.registry import available_plugins

    return {
        "description": description,
        "anyOf": [
            {"enum": list(available_plugins(family)),
             "$comment": f"plugins registered in the {family!r} family"},
            {"type": "string", "pattern": PLUGIN_SPEC_PATTERN,
             "$comment": "dynamic module.path:ClassName plugin reference"},
        ],
    }


def build_schema() -> Dict[str, Any]:
    """Build the scenario-pack JSON Schema document as a Python mapping.

    The document is draft 2020-12, carries :data:`SCHEMA_VERSION` in its
    ``version`` field, and is fully regenerated on every call -- plugin
    enums reflect whatever is registered at call time, which is exactly why
    CI re-runs ``repro schema check`` instead of trusting the committed
    copy.
    """
    from repro.config.execution import (
        ExecutionConfig,
        MonitoringConfig,
        OutputConfig,
        StopConfig,
    )
    from repro.scenarios import schema as sections
    from repro.workload.generator import WorkloadSpec

    defs = {
        "grid": sections.GridSection,
        "workload": sections.WorkloadSection,
        "workload_spec": WorkloadSpec,
        "faults": sections.FaultsSection,
        "cache": sections.CacheSection,
        "data": sections.DataSection,
        "calibration": sections.CalibrationSection,
        "sweep": sections.SweepSection,
        "execution": ExecutionConfig,
        "monitoring": MonitoringConfig,
        "output": OutputConfig,
        "stop": StopConfig,
    }
    refs = {cls: name for name, cls in defs.items()}
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "$id": SCHEMA_ID,
        "title": "CGSim reproduction scenario pack",
        "version": SCHEMA_VERSION,
        **dataclass_schema(sections.ScenarioPack, refs),
        "$defs": {name: dataclass_schema(cls, refs) for name, cls in defs.items()},
    }


def schema_json() -> str:
    """The schema document rendered exactly as committed (stable formatting).

    Two-space indentation, preserved key order (generation order is
    deterministic) and a trailing newline, so ``repro schema check`` can
    compare the committed file byte-for-byte.
    """
    return json.dumps(build_schema(), indent=2) + "\n"


def dataclass_schema(cls: Any, refs: Optional[Dict[Any, str]] = None) -> Dict[str, Any]:
    """Dataclass -> JSON Schema object translation (the one schema walker).

    Every constructor field of ``cls`` becomes a property of a closed object
    schema (``additionalProperties: false``); fields without defaults are
    ``required``; the class docstring's first paragraph is the object's
    ``description`` and the schema clauses of its ``RULES`` its ``allOf``.

    A field declared with :func:`repro.utils.fieldspec.declare` is published
    from that declaration -- bounds, ``enum`` choices, duration / byte
    quantities (number or unit string), registry-backed plugin names,
    description and default.  A plain field (the *service* wire models in
    :mod:`repro.service.models`) is published from its annotation alone:
    ``int``/``float``/``str``/``bool``, ``Optional`` (an ``anyOf`` with
    ``null``), ``List``/``Dict`` containers, with
    ``metadata={"description": ...}`` as its description.

    Nested dataclasses named in ``refs`` (class -> ``$defs`` key) become
    ``$ref`` pointers; the rest are inlined recursively.
    """
    if not dataclasses.is_dataclass(cls):
        raise TypeError(f"dataclass_schema needs a dataclass, got {cls!r}")
    refs = refs or {}
    properties: Dict[str, Any] = {}
    required: List[str] = []
    for name, field in declared_fields(cls).items():
        if field.declared:
            properties[name] = _declared_schema(field, refs)
        else:
            schema = dict(_annotation_schema(field.annotation))
            if field.description:
                schema["description"] = field.description
            default = field.default() if field.has_default else dataclasses.MISSING
            if default is None or isinstance(default, (bool, int, float, str, list, dict)):
                schema["default"] = default
            properties[name] = schema
        if field.required:
            required.append(name)
    document: Dict[str, Any] = {"type": "object"}
    doc = doc_summary(cls)
    if doc:
        document["description"] = doc
    document["additionalProperties"] = False
    if required:
        document["required"] = required
    document["properties"] = properties
    clauses = [clause for _check, *rule in getattr(cls, "RULES", ()) for clause in rule]
    if clauses:
        document["allOf"] = clauses
    return document


def _declared_schema(field: FieldSpec, refs: Dict[Any, str]) -> Dict[str, Any]:
    """Property schema of one ``declare()``-declared field."""
    if field.schema is not None:
        return dict(field.schema)
    target = field.section or field.checked_as
    if target is not None:
        schema = ({"$ref": f"#/$defs/{refs[target]}"} if target in refs
                  else dataclass_schema(target, refs))
        return {"anyOf": [schema, {"type": "null"}]} if field.nullable else schema
    doc = field.description
    if field.plugin:
        schema = _plugin_ref(field.plugin, doc)
    elif field.quantity:
        schema = quantity_schema(field.quantity, field.gt, field.ge, field.nullable, doc)
    elif field.choices:
        schema = {"enum": list(field.choices), "description": doc}
    else:
        schema = typed_schema(
            field.kind, minimum=field.ge, exclusiveMinimum=field.gt, maximum=field.le,
            minLength=1 if field.non_empty else None,
            items={"type": "string"} if field.items is str else None)
        if field.nullable:
            # The published document spells a nullable string as a type list
            # and every other nullable value as an anyOf with null.
            schema = ({"type": ["string", "null"]} if schema == {"type": "string"}
                      else {"anyOf": [schema, {"type": "null"}]})
        schema["description"] = doc
    publish = field.publish_default
    if publish is None:
        publish = field.has_default and not field.required and field.default() is not None
    if publish:
        schema["default"] = field.default()
    return schema


def _annotation_schema(annotation: Any) -> Dict[str, Any]:
    """Schema fragment for one type annotation (the dataclass_schema walker)."""
    import typing

    if annotation is Any:
        return {}
    if dataclasses.is_dataclass(annotation):
        return dataclass_schema(annotation)
    origin = typing.get_origin(annotation)
    args = typing.get_args(annotation)
    if origin is typing.Union:
        branches = []
        for arg in args:
            if arg is type(None):
                branches.append({"type": "null"})
            else:
                branches.append(_annotation_schema(arg))
        return branches[0] if len(branches) == 1 else {"anyOf": branches}
    if origin in (list, tuple):
        items = _annotation_schema(args[0]) if args else {}
        return {"type": "array", "items": items} if items else {"type": "array"}
    if origin is dict:
        return {"type": "object"}
    scalar = {bool: "boolean", int: "integer", float: "number", str: "string"}
    if annotation in scalar:
        return {"type": scalar[annotation]}
    if annotation in (dict, list):
        return {"type": "object" if annotation is dict else "array"}
    # Unknown/exotic annotations stay unconstrained rather than guessed.
    return {}
