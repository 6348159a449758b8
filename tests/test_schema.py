"""Tests for the published scenario-pack JSON Schema (repro.schema).

Covers four fronts:

* generation -- the schema document is well-formed draft 2020-12, pulls its
  plugin enums live from the registry, and the committed copy at
  ``docs/schema/scenario-pack.schema.json`` matches the generator byte for
  byte (the drift check CI runs);
* validation -- the self-contained subset validator accepts every bundled
  pack and rejects malformed packs with RFC 6901 JSON-pointer paths that
  agree with the eager ``ScenarioPack.from_dict`` addressing;
* round-trip properties (Hypothesis over the sampler seed) -- every sampled
  pack validates, loads eagerly, re-emits a canonical form that validates
  again and is a ``to_dict`` fixed point;
* JSON-pointer plumbing -- escaping round-trips and error paths point at
  the offending leaf, not just the pack.
"""

from __future__ import annotations

import dataclasses
import json
from typing import List, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.plugins.registry import available_plugins
from repro.scenarios import ScenarioPack, available_scenario_packs, get_scenario_pack
from repro.schema import (
    SCHEMA_VERSION,
    build_schema,
    sample_pack,
    schema_json,
    schema_path,
    validate_instance,
    validate_pack_dict,
)
from repro.utils.errors import ConfigurationError
from repro.utils.fieldspec import declared_fields
from repro.utils.jsonpointer import (
    escape_token,
    join_pointer,
    split_pointer,
    unescape_token,
)


@pytest.fixture(scope="module")
def schema():
    return build_schema()


class TestJsonPointer:
    def test_escape_round_trip(self):
        for token in ("plain", "a/b", "a~b", "~/", "~0", "~1", ""):
            assert unescape_token(escape_token(token)) == token

    def test_escape_order_matters(self):
        # ~1 must unescape to / *before* ~0 -> ~, else "~01" mangles.
        assert unescape_token("~01") == "~1"
        assert escape_token("~1") == "~01"

    def test_join_and_split(self):
        assert join_pointer(["workload", "jobs"]) == "/workload/jobs"
        assert join_pointer([]) == ""
        assert join_pointer(["sweep", "axes", "a/b", 0]) == "/sweep/axes/a~1b/0"
        assert split_pointer("/sweep/axes/a~1b/0") == ["sweep", "axes", "a/b", "0"]
        assert split_pointer("") == []


class TestSchemaDocument:
    def test_is_draft_2020_12_with_version(self, schema):
        assert schema["$schema"] == "https://json-schema.org/draft/2020-12/schema"
        assert schema["version"] == SCHEMA_VERSION
        assert schema["type"] == "object"
        assert schema["required"] == ["name"]

    def test_plugin_enums_come_from_registry(self, schema):
        defs = schema["$defs"]
        plug = defs["execution"]["properties"]["plugin"]["anyOf"][0]["enum"]
        assert plug == available_plugins("allocation")
        policy = defs["cache"]["properties"]["policy"]["anyOf"][0]["enum"]
        assert policy == available_plugins("eviction")
        repl = defs["cache"]["properties"]["replication"]["anyOf"][0]["enum"]
        assert repl == available_plugins("replication")

    def test_descriptions_flow_from_docstrings(self, schema):
        # Spot-check that dataclass docstrings became description fields.
        assert "description" in schema["$defs"]["execution"]
        assert "description" in schema["$defs"]["workload"]
        assert schema["properties"]["name"]["description"]

    def test_schema_json_is_stable(self):
        assert schema_json() == schema_json()
        assert schema_json().endswith("\n")
        assert json.loads(schema_json())["version"] == SCHEMA_VERSION

    def test_committed_schema_matches_generator(self):
        # Regenerate in a fresh interpreter: other tests register extra
        # plugins in this process, which would leak into the live enums.
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c",
             "from repro.schema import schema_json; "
             "import sys; sys.stdout.write(schema_json())"],
            capture_output=True, text=True, env=env, check=True,
        )
        committed = schema_path().read_text(encoding="utf-8")
        assert committed == proc.stdout, (
            "docs/schema/scenario-pack.schema.json drifted from the "
            "generator; run `cgsim schema emit --update`"
        )


class TestBundledPacksValidate:
    @pytest.mark.parametrize("name", sorted(available_scenario_packs()))
    def test_bundled_pack_passes_schema(self, name, schema):
        data = get_scenario_pack(name).to_dict()
        errors = validate_instance(data, schema)
        assert errors == [], [str(e) for e in errors]


class TestValidatorRejections:
    """Malformed packs fail with JSON-pointer paths naming the leaf."""

    def _errors(self, data):
        return validate_pack_dict(data)

    def _pointers(self, data):
        return [error.pointer for error in self._errors(data)]

    def base(self):
        return {
            "name": "t",
            "grid": {"kind": "synthetic", "sites": 3},
            "workload": {"generator": "synthetic", "jobs": 10},
            "execution": {"plugin": "least_loaded"},
        }

    def test_valid_base_is_clean(self):
        assert self._errors(self.base()) == []

    def test_missing_name(self):
        data = self.base()
        del data["name"]
        errors = self._errors(data)
        assert any(e.pointer == "/name" and "missing" in e.message for e in errors)

    def test_zero_jobs_points_at_leaf(self):
        data = self.base()
        data["workload"]["jobs"] = 0
        assert "/workload/jobs" in self._pointers(data)

    def test_unknown_field_lists_known_fields(self):
        # The removed engine knobs are unknown fields like any other.
        for section, key, value in (
            ("workload", "jobz", 5),
            ("execution", "macro_batch", True),
            ("execution", "shards", 2),
            ("execution", "shard_window", 100.0),
        ):
            data = self.base()
            data[section][key] = value
            errors = self._errors(data)
            assert any(
                e.pointer == f"/{section}/{key}"
                and f"unknown field '{key}'; known fields" in e.message
                for e in errors
            ), (section, key)

    def test_unknown_plugin_points_at_plugin(self):
        data = self.base()
        data["execution"]["plugin"] = "definitely_not_registered"
        assert any(p == "/execution/plugin" for p in self._pointers(data))

    def test_bad_type_points_at_leaf(self):
        data = self.base()
        data["grid"]["sites"] = "three"
        assert "/grid/sites" in self._pointers(data)

    def test_bool_is_not_an_integer(self):
        data = self.base()
        data["grid"]["sites"] = True
        assert "/grid/sites" in self._pointers(data)

    def test_sweep_and_calibration_are_mutually_exclusive(self):
        data = self.base()
        data["sweep"] = {"axes": {"execution.seed": [1, 2]}}
        data["calibration"] = {"optimizer": "random", "budget": 2}
        errors = self._errors(data)
        assert any("calibration" in e.message and "sweep" in e.message for e in errors)

    def test_reserved_sweep_axis_rejected(self):
        data = self.base()
        data["sweep"] = {"axes": {"name": ["a", "b"]}}
        assert any(p.startswith("/sweep/axes") for p in self._pointers(data))

    def test_error_str_includes_pointer(self):
        data = self.base()
        data["workload"]["jobs"] = 0
        error = self._errors(data)[0]
        assert "(at /workload/jobs)" in str(error)

    def test_eager_validator_agrees_on_pointer(self):
        data = self.base()
        data["workload"]["jobs"] = 0
        with pytest.raises(ConfigurationError, match=r"\(at /workload/jobs\)"):
            ScenarioPack.from_dict(data)

    @pytest.mark.parametrize("missing", [
        "mean_time_between_failures", "mean_time_to_repair", "horizon",
    ])
    def test_outage_model_key_missing_rejected_at_same_path(self, missing):
        """SiteOutageModel needs all three keys: the schema must not accept a
        model the loader then fails to build, and both name the missing key."""
        data = self.base()
        model = {"mean_time_between_failures": "1d", "mean_time_to_repair": "2h",
                 "horizon": "7d"}
        del model[missing]
        data["faults"] = {"outage_model": model}
        pointer = f"/faults/outage_model/{missing}"
        assert any(e.pointer == pointer and "missing" in e.message
                   for e in self._errors(data))
        with pytest.raises(ConfigurationError) as raised:
            ScenarioPack.from_dict(data)
        message = str(raised.value)
        assert f"requires {missing!r}" in message and message.endswith(f"(at {pointer})")

    def test_outage_model_with_only_horizon_names_the_first_missing_key(self):
        data = self.base()
        data["faults"] = {"outage_model": {"horizon": "1d"}}
        pointers = self._pointers(data)
        assert "/faults/outage_model/mean_time_between_failures" in pointers
        assert "/faults/outage_model/mean_time_to_repair" in pointers
        with pytest.raises(ConfigurationError,
                           match=r"\(at /faults/outage_model/mean_time_between_failures\)$"):
            ScenarioPack.from_dict(data)

    def test_unknown_keyword_in_schema_is_loud(self):
        with pytest.raises(ConfigurationError, match="unsupported"):
            validate_instance({"x": 1}, {"type": "object", "unevaluatedProperties": False})


def _full_pack():
    """A valid pack with every section a violation can be planted in."""
    from repro.config.execution import ExecutionConfig

    execution = ExecutionConfig().to_dict()
    execution["stop"] = {"max_finished_jobs": 5}
    return {
        "name": "t", "title": "T", "description": "d", "tags": ["a"],
        "grid": {"kind": "synthetic", "sites": 3},
        "workload": {"generator": "synthetic", "jobs": 10, "spec": {"walltime_sigma": 0.5}},
        "execution": execution,
        "faults": {"job_failures": {"default_rate": 0.1}},
        "data": {"datasets": 4, "cache": {"policy": "lru"}},
        "sweep": {"axes": {"workload.jobs": [5, 6]}},
    }


def _calibration_pack():
    return {"name": "t", "calibration": {"budget": 2}}


def _declared_classes(cls=ScenarioPack, path=()):
    """Every (pointer tokens, dataclass) reachable from the pack's fields."""
    yield path, cls
    for name, field in declared_fields(cls).items():
        nested = field.section or field.checked_as
        if nested is not None:
            yield from _declared_classes(nested, path + (name,))


#: A value of the wrong JSON type for each kind of declared field.
_WRONG_TYPE = {"integer": "x", "number": "x", "string": 5, "boolean": "yes",
               "object": [1], "array": "x", "section": 5}


def _violations(field):
    """Each way the declaration of ``field`` lets a document be wrong."""
    if field.choices:
        yield "outside-choices", "__nope__"
    elif field.quantity:
        yield "wrong-type", [1]
    else:
        yield "wrong-type", _WRONG_TYPE[field.kind]
    if field.kind in ("integer", "number") or field.quantity:
        yield "bool-is-not-a-number", True
    if not field.nullable:
        yield "null", None
    if field.non_empty:
        yield "empty", ""
    if field.ge is not None:
        yield "below-minimum", field.ge - 1
    if field.gt is not None:
        yield "at-exclusive-minimum", field.gt
    if field.le is not None:
        yield "above-maximum", field.le + 1


def _generated_cases():
    for path, cls in _declared_classes():
        yield pytest.param(path + ("__unknown__",), 1, id=join_pointer(path) + "/-unknown-key")
        for name, field in declared_fields(cls).items():
            for label, value in _violations(field):
                yield pytest.param(path + (name,), value,
                                   id=f"{join_pointer(path + (name,))}-{label}")


#: The packs quoted in ISSUE 16: the first three crashed the eager loader with
#: a raw TypeError / ValueError, the rest were silently accepted by it while
#: the published schema rejected them.
_DRIFTED_AT_PR15 = [
    (("execution", "monitoring", "enable_event"), False),
    (("execution", "seed"), "x"),
    (("execution", "monitoring", "batch_size"), "8"),
    (("execution", "max_retries"), 1.7),
    (("execution", "monitoring", "enable_events"), "no"),
    (("execution", "output", "sqlite_path"), 5),
    (("workload", "trace"), 5),
    (("title",), 5),
    (("execution", "plugin_options"), [1]),
    (("execution", "stop", "check_every"), 1.5),
    (("execution", "monitoring", "keep_in_memory"), 1),
    (("execution", "output", "ml_dataset"), "yes"),
    (("execution", "output", "csv_directory"), 5),
    (("description",), 5),
]


class TestLoaderAndSchemaAgree:
    """The eager loader and the published schema read one declaration, so a
    document one rejects the other rejects too, at the same JSON pointer.
    The cases are generated from the dataclass field table: a new field, bound
    or choice list is covered without touching this file."""

    @pytest.mark.parametrize(
        "path, value",
        list(_generated_cases())
        + [pytest.param(path, value, id=f"drifted-{join_pointer(path)}")
           for path, value in _DRIFTED_AT_PR15],
    )
    def test_violation_is_rejected_by_both_at_the_same_pointer(self, path, value, schema):
        data = _calibration_pack() if path[0] == "calibration" else _full_pack()
        node = data
        for token in path[:-1]:
            node = node.setdefault(token, {})
        node[path[-1]] = value
        pointer = join_pointer(path)

        with pytest.raises(ConfigurationError) as caught:
            ScenarioPack.from_dict(data)
        assert str(caught.value).endswith(f"(at {pointer})"), str(caught.value)
        assert "scenario pack" in str(caught.value)
        assert pointer in [error.pointer for error in validate_instance(data, schema)]

    @pytest.mark.parametrize("base", [_full_pack, _calibration_pack])
    def test_base_packs_are_valid(self, base, schema):
        assert validate_instance(base(), schema) == []
        ScenarioPack.from_dict(base())

    def test_every_section_class_is_generated_for(self):
        names = {cls.__name__ for _path, cls in _declared_classes()}
        assert names == {
            "ScenarioPack", "GridSection", "WorkloadSection", "WorkloadSpec",
            "ExecutionConfig", "MonitoringConfig", "OutputConfig", "StopConfig",
            "FaultsSection", "DataSection", "CacheSection", "CalibrationSection",
            "SweepSection",
        }

    @pytest.mark.parametrize("seed", range(50))
    def test_sampled_pack_is_accepted_by_both(self, seed, schema):
        data = sample_pack(schema, np.random.default_rng(seed))
        assert validate_instance(data, schema) == []
        ScenarioPack.from_dict(data)

    def test_direct_construction_reads_the_same_bounds_leniently(self):
        from repro.config.execution import ExecutionConfig, StopConfig

        config = ExecutionConfig(dispatch_interval="5s", seed=np.int64(3), max_retries=2.0)
        assert (config.dispatch_interval, config.seed, config.max_retries) == (5.0, 3, 2)
        assert type(config.seed) is int
        with pytest.raises(ConfigurationError, match="max_retries must be >= 0"):
            ExecutionConfig(max_retries=-1)
        with pytest.raises(ConfigurationError, match="check_every must be >= 1"):
            StopConfig(check_every=0)


class TestSampledRoundTrip:
    """Hypothesis: sampled packs validate, load, and re-emit stably."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_sampled_pack_round_trips(self, seed, schema):
        data = sample_pack(schema, np.random.default_rng(seed))

        errors = validate_instance(data, schema)
        assert errors == [], [str(e) for e in errors]

        pack = ScenarioPack.from_dict(data)
        canonical = pack.to_dict()

        assert validate_instance(canonical, schema) == []
        assert ScenarioPack.from_dict(canonical).to_dict() == canonical

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_sampler_is_deterministic_in_seed(self, seed, schema):
        first = sample_pack(schema, np.random.default_rng(seed))
        second = sample_pack(schema, np.random.default_rng(seed))
        assert first == second


class TestValidatorKeywords:
    """Direct subset-validator unit coverage for keywords the pack schema
    only exercises on rare paths (bounds, oneOf, dependentRequired, ...)."""

    def _errs(self, instance, schema):
        return [str(e) for e in validate_instance(instance, schema)]

    def test_numeric_bounds(self):
        schema = {"type": "number", "maximum": 5, "exclusiveMinimum": 0}
        assert self._errs(6, schema) == ["6 is greater than maximum 5 (at /)"]
        assert any("greater than 0" in e for e in self._errs(0, schema))
        assert self._errs(3, schema) == []
        upper = {"type": "number", "exclusiveMaximum": 1}
        assert any("less than 1" in e for e in self._errs(1, upper))
        step = {"type": "integer", "multipleOf": 4}
        assert any("multiple of 4" in e for e in self._errs(6, step))
        assert self._errs(8, step) == []

    def test_string_length_and_pattern(self):
        schema = {"type": "string", "maxLength": 3}
        assert any("longer than 3" in e for e in self._errs("abcd", schema))
        assert self._errs("abc", schema) == []

    def test_one_of_requires_exactly_one_branch(self):
        schema = {"oneOf": [{"type": "integer"}, {"type": "number"}]}
        assert any("oneOf" in e for e in self._errs(3, schema))
        assert self._errs(3.5, schema) == []

    def test_dependent_required(self):
        schema = {
            "type": "object",
            "dependentRequired": {"metric": ["value"]},
        }
        errors = self._errs({"metric": "makespan"}, schema)
        assert any("'value' is required when 'metric'" in e for e in errors)
        assert self._errs({"metric": "makespan", "value": 1}, schema) == []

    def test_object_size_bounds(self):
        schema = {"type": "object", "minProperties": 1, "maxProperties": 2}
        assert any("at least 1" in e for e in self._errs({}, schema))
        assert any("at most 2" in e for e in self._errs({"a": 1, "b": 2, "c": 3}, schema))

    def test_pattern_properties_validate_matching_members(self):
        schema = {
            "type": "object",
            "patternProperties": {"^x": {"type": "integer"}},
        }
        errors = validate_instance({"x1": "no"}, schema)
        assert [e.pointer for e in errors] == ["/x1"]
        assert validate_instance({"x1": 3, "other": "free"}, schema) == []

    def test_array_bounds_and_uniqueness(self):
        schema = {"type": "array", "minItems": 1, "maxItems": 2, "uniqueItems": True}
        assert any("at least 1" in e for e in self._errs([], schema))
        assert any("at most 2" in e for e in self._errs([1, 2, 3], schema))
        assert any("unique" in e for e in self._errs([1, 1], schema))
        assert self._errs([1, 2], schema) == []

    def test_any_of_with_no_deep_branch_summarises(self):
        schema = {"anyOf": [{"type": "integer"}, {"type": "string"}]}
        errors = validate_instance([], schema)
        assert len(errors) == 1
        assert "no allowed form" in errors[0].message


# Sample dataclasses for TestDataclassSchema: module-level because
# typing.get_type_hints resolves annotations in module scope.
@dataclasses.dataclass
class _SchemaInner:
    count: int


@dataclasses.dataclass
class _SchemaOuter:
    name: str
    inner: _SchemaInner
    tags: List[str] = dataclasses.field(default_factory=list)
    note: Optional[str] = None


@dataclasses.dataclass
class _SchemaDoc:
    title: str
    pages: int = 1
    author: Optional[str] = None


class TestDataclassSchema:
    """`dataclass_schema`: generic dataclass -> JSON Schema translation."""

    def test_service_submit_request_schema_shape(self):
        from repro.schema import dataclass_schema
        from repro.service.models import SubmitRequest

        schema = dataclass_schema(SubmitRequest)
        assert schema["type"] == "object"
        assert schema["required"] == ["pack"]
        assert schema["additionalProperties"] is False
        assert "drains first" in schema["properties"]["priority"]["description"]

    def test_optional_list_and_nested_dataclass_annotations(self):
        from repro.schema import dataclass_schema

        schema = dataclass_schema(_SchemaOuter)
        assert schema["required"] == ["name", "inner"]
        assert schema["properties"]["inner"]["type"] == "object"
        assert schema["properties"]["inner"]["required"] == ["count"]
        assert schema["properties"]["tags"]["type"] == "array"
        note = schema["properties"]["note"]
        assert {"type": "null"} in note["anyOf"]

    def test_generated_schema_drives_the_subset_validator(self):
        from repro.schema import dataclass_schema, validate_instance

        schema = dataclass_schema(_SchemaDoc)
        assert validate_instance({"title": "ok", "pages": 3}, schema) == []
        errors = validate_instance({"pages": "three"}, schema)
        rendered = [str(e) for e in errors]
        assert any("title" in line for line in rendered)
        assert any("pages" in line for line in rendered)

    def test_non_dataclasses_are_rejected(self):
        from repro.schema import dataclass_schema

        with pytest.raises(TypeError, match="needs a dataclass"):
            dataclass_schema(dict)
