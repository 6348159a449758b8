"""Published scenario-pack interface: generated JSON Schema + validation.

The scenario-pack format (:mod:`repro.scenarios.schema`) and the plugin
registry (:mod:`repro.plugins.registry`) are the project's public surface.
This package pins that surface as a machine-readable contract:

* :func:`build_schema` generates a versioned JSON Schema (draft 2020-12)
  for scenario packs by walking the configuration dataclasses
  (:func:`dataclass_schema`): each field's type, bounds, choices, default
  and description are the ones declared on the dataclass field
  (:func:`repro.utils.fieldspec.declare`) -- the same declaration the eager
  loader validates against -- and the plugin-name enums are pulled live
  from the registry, so the schema and the loader cannot describe
  different fields.
* The generated document is committed at
  ``docs/schema/scenario-pack.schema.json``; ``repro schema check`` (run in
  CI) regenerates and diffs it, the same codegen-and-commit idiom the
  reference docs use.
* :func:`validate_instance` is a dependency-free validator for the subset
  of JSON Schema the generator emits, reporting every violation with an
  RFC 6901 JSON-pointer path -- the same addressing scheme the eager
  :class:`~repro.scenarios.ScenarioPack` validation errors carry in their
  ``(at /workload/jobs)`` suffixes.
* :func:`sample_pack` draws random schema-conforming packs (used by the
  Hypothesis round-trip property tests).
"""

from typing import TYPE_CHECKING

from repro import lazy_exports

if TYPE_CHECKING:
    from repro.schema.generator import (
        SCHEMA_VERSION,
        build_schema,
        dataclass_schema,
        schema_json,
        schema_path,
    )
    from repro.schema.sampler import sample_pack
    from repro.schema.validator import SchemaError, validate_instance, validate_pack_dict

__all__ = [
    "SCHEMA_VERSION",
    "build_schema",
    "schema_json",
    "schema_path",
    "dataclass_schema",
    "SchemaError",
    "validate_instance",
    "validate_pack_dict",
    "sample_pack",
]

#: Where each public name lives; it is imported on first use (PEP 562).
_EXPORTS = {
    "repro.schema.generator": (
        "SCHEMA_VERSION",
        "build_schema",
        "dataclass_schema",
        "schema_json",
        "schema_path",
    ),
    "repro.schema.sampler": ("sample_pack",),
    "repro.schema.validator": ("SchemaError", "validate_instance", "validate_pack_dict"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
