"""Documentation-site checks: structure, generated pages, links.

These tests keep the docs honest without needing MkDocs installed: the
cookbook page must match the bundled scenario packs (it is generated from
them), every internal link/anchor must resolve, and the MkDocs nav must only
reference pages that exist.  The CI ``docs-build`` job additionally runs
``mkdocs build --strict``.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
SCRIPTS_DIR = REPO_ROOT / "scripts"


def _run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(SCRIPTS_DIR / name), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=120,
    )


class TestSiteStructure:
    def test_mkdocs_config_exists(self):
        assert (REPO_ROOT / "mkdocs.yml").exists()

    def test_every_nav_page_exists(self):
        """Each .md file referenced from mkdocs.yml must exist under docs/."""
        text = (REPO_ROOT / "mkdocs.yml").read_text(encoding="utf-8")
        pages = re.findall(r"([\w\-/]+\.md)", text)
        assert pages, "mkdocs.yml nav references no pages"
        for page in pages:
            assert (DOCS_DIR / page).exists(), f"nav references missing page {page}"

    def test_core_pages_present_and_titled(self):
        for page in ("index.md", "install.md", "architecture.md", "cli.md",
                     "plugins.md", "reference/index.md",
                     "scenarios/schema.md", "scenarios/cookbook.md"):
            path = DOCS_DIR / page
            assert path.exists(), f"missing documentation page {page}"
            first_line = path.read_text(encoding="utf-8").lstrip().splitlines()[0]
            assert first_line.startswith("# "), f"{page} must start with an H1"

    def test_readme_links_into_the_docs(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/index.md" in readme or "docs/" in readme


class TestGeneratedCookbook:
    def test_cookbook_is_in_sync_with_the_packs(self):
        result = _run_script("gen_scenario_docs.py", "--check")
        assert result.returncode == 0, (
            f"cookbook out of sync:\n{result.stdout}\n{result.stderr}"
        )

    def test_cookbook_covers_every_bundled_pack(self):
        from repro.scenarios import available_scenario_packs

        cookbook = (DOCS_DIR / "scenarios" / "cookbook.md").read_text(encoding="utf-8")
        for name in available_scenario_packs():
            assert f"## {name}" in cookbook, f"cookbook misses pack {name!r}"

    def test_cookbook_declares_itself_generated(self):
        cookbook = (DOCS_DIR / "scenarios" / "cookbook.md").read_text(encoding="utf-8")
        assert "GENERATED FILE" in cookbook


class TestSchemaReferenceTables:
    """docs/scenarios/schema.md is hand-written prose around one table per
    section; each table must list exactly the fields its dataclass declares."""

    def _tables(self):
        """{heading: field names in the first column of the table under it}."""
        page = (DOCS_DIR / "scenarios" / "schema.md").read_text(encoding="utf-8")
        tables, heading = {}, None
        for line in page.splitlines():
            if line.startswith("#"):
                heading = line.lstrip("# ").strip()
            elif line.startswith("| `") and heading:
                first_cell = line.split("|")[1]
                tables.setdefault(heading, []).extend(re.findall(r"`(\w+)`", first_cell))
        return tables

    def test_each_section_table_lists_exactly_the_declared_fields(self):
        from repro.config.execution import (
            ExecutionConfig,
            MonitoringConfig,
            OutputConfig,
            StopConfig,
        )
        from repro.scenarios import schema as sections
        from repro.utils.fieldspec import declared_fields

        documented = {
            "Top level": sections.ScenarioPack,
            "grid": sections.GridSection,
            "workload": sections.WorkloadSection,
            "execution": ExecutionConfig,
            "execution.monitoring": MonitoringConfig,
            "execution.output": OutputConfig,
            "execution.stop": StopConfig,
            "faults": sections.FaultsSection,
            "data": sections.DataSection,
            "data.cache": sections.CacheSection,
            "calibration": sections.CalibrationSection,
            "sweep": sections.SweepSection,
        }
        tables = self._tables()
        assert set(tables) == set(documented), "a section table appeared or vanished"
        for heading, cls in documented.items():
            assert sorted(tables[heading]) == sorted(declared_fields(cls)), (
                f"docs/scenarios/schema.md table {heading!r} does not match "
                f"the fields {cls.__name__} declares"
            )


class TestGeneratedReference:
    def test_reference_pages_are_in_sync_with_the_code(self):
        """docs/reference/ must match the packages' current __all__ surfaces."""
        result = _run_script("gen_reference_docs.py", "--check")
        assert result.returncode == 0, (
            f"API reference out of sync:\n{result.stdout}\n{result.stderr}"
        )

    def test_reference_covers_the_promised_packages(self):
        for module in ("repro.des", "repro.data", "repro.plugins",
                       "repro.scenarios", "repro.schema", "repro.conformance",
                       "repro.experiments", "repro.service", "repro.lint"):
            page = DOCS_DIR / "reference" / f"{module.split('.', 1)[1]}.md"
            assert page.exists(), f"missing reference page for {module}"
            text = page.read_text(encoding="utf-8")
            assert f"::: {module}" in text
            assert "GENERATED FILE" in text

    def test_reference_pages_list_every_public_symbol(self):
        """Each page's members list is exactly the package's __all__."""
        import importlib

        for module_name in ("repro.des", "repro.data", "repro.plugins",
                            "repro.scenarios", "repro.schema",
                            "repro.conformance", "repro.experiments",
                            "repro.service", "repro.lint"):
            module = importlib.import_module(module_name)
            page = DOCS_DIR / "reference" / f"{module_name.split('.', 1)[1]}.md"
            listed = re.findall(r"^        - (\w+)$", page.read_text(encoding="utf-8"),
                                flags=re.MULTILINE)
            assert listed == list(module.__all__), (
                f"{page.name} members drifted from {module_name}.__all__"
            )


class TestGeneratedServicePage:
    def test_ws_message_reference_is_in_sync_with_the_wire_models(self):
        result = _run_script("gen_service_docs.py", "--check")
        assert result.returncode == 0, (
            f"service page out of sync:\n{result.stdout}\n{result.stderr}"
        )

    def test_service_page_documents_every_ws_message_type(self):
        from repro.service import WS_MESSAGE_TYPES

        page = (DOCS_DIR / "service.md").read_text(encoding="utf-8")
        assert "GENERATED FILE" in page
        for message_class in WS_MESSAGE_TYPES:
            assert f"### `{message_class.TYPE}`" in page, (
                f"service.md misses WS message {message_class.TYPE!r}"
            )

    def test_service_page_documents_every_http_route(self):
        page = (DOCS_DIR / "service.md").read_text(encoding="utf-8")
        for route in ("/v1/healthz", "POST /v1/sessions",
                      "/v1/sessions/{id}/pause", "/v1/sessions/{id}/resume",
                      "/v1/sessions/{id}/stop", "/v1/sessions/{id}/finalize",
                      "/v1/queue/hold", "/v1/sessions/{id}/events"):
            assert route in page, f"service.md misses route {route}"


class TestGeneratedLintPage:
    def test_rule_catalogue_is_in_sync_with_the_rule_docstrings(self):
        result = _run_script("gen_lint_docs.py", "--check")
        assert result.returncode == 0, (
            f"lint page out of sync:\n{result.stdout}\n{result.stderr}"
        )

    def test_lint_page_documents_every_rule(self):
        from repro.lint import RULE_FAMILIES

        page = (DOCS_DIR / "lint.md").read_text(encoding="utf-8")
        assert "GENERATED FILE SECTION" in page
        for family, rules in RULE_FAMILIES.items():
            assert f"### Family `{family}`" in page, (
                f"lint.md misses family {family!r}"
            )
            for rule in rules:
                assert f"#### `{rule.id}`" in page, (
                    f"lint.md misses rule {rule.id!r}"
                )

    def test_lint_page_documents_the_suppression_syntax(self):
        page = (DOCS_DIR / "lint.md").read_text(encoding="utf-8")
        assert "cgsim: lint-ignore[" in page
        assert "baseline" in page


class TestPluginGuideExamples:
    """The worked examples in docs/plugins.md are executed, so they cannot rot."""

    def _python_blocks(self):
        text = (DOCS_DIR / "plugins.md").read_text(encoding="utf-8")
        blocks = re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)
        assert blocks, "docs/plugins.md has no executable python examples"
        return blocks

    def test_every_python_example_executes(self):
        namespace: dict = {}
        for index, block in enumerate(self._python_blocks()):
            try:
                exec(compile(block, f"docs/plugins.md[block {index}]", "exec"), namespace)
            except Exception as exc:  # pragma: no cover - the assert reports it
                raise AssertionError(
                    f"docs/plugins.md python block {index} failed: {exc}\n{block}"
                ) from exc

    def test_examples_cover_all_three_families(self):
        text = "\n".join(self._python_blocks())
        assert "register_policy(" in text
        assert 'register_plugin("eviction"' in text
        assert 'register_plugin("replication"' in text


class TestLinks:
    def test_all_internal_links_and_anchors_resolve(self):
        result = _run_script("check_doc_links.py")
        assert result.returncode == 0, (
            f"broken documentation links:\n{result.stdout}\n{result.stderr}"
        )

    @staticmethod
    def _sandboxed_tree(tmp_path):
        """A throwaway copy of the docs tree so tests never touch the repo."""
        import shutil

        root = tmp_path / "repo"
        (root / "scripts").mkdir(parents=True)
        shutil.copytree(DOCS_DIR, root / "docs")
        shutil.copy(REPO_ROOT / "mkdocs.yml", root / "mkdocs.yml")
        shutil.copy(REPO_ROOT / "README.md", root / "README.md")
        shutil.copy(SCRIPTS_DIR / "check_doc_links.py",
                    root / "scripts" / "check_doc_links.py")
        return root

    @staticmethod
    def _run_sandboxed(root) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, str(root / "scripts" / "check_doc_links.py")],
            capture_output=True, text=True, cwd=root, timeout=120,
        )

    def test_orphan_pages_fail_the_link_check(self, tmp_path):
        """A docs/ page missing from the mkdocs nav must fail check_doc_links."""
        root = self._sandboxed_tree(tmp_path)
        (root / "docs" / "orphan_page_for_test.md").write_text("# Orphan\n",
                                                              encoding="utf-8")
        result = self._run_sandboxed(root)
        assert result.returncode != 0
        assert "orphan" in (result.stdout + result.stderr).lower()

    def test_commented_out_nav_entry_still_counts_as_orphan(self, tmp_path):
        """A page referenced only from a YAML comment is an orphan."""
        root = self._sandboxed_tree(tmp_path)
        (root / "docs" / "orphan_page_for_test.md").write_text("# Orphan\n",
                                                              encoding="utf-8")
        mkdocs = root / "mkdocs.yml"
        mkdocs.write_text(
            mkdocs.read_text(encoding="utf-8")
            + "\n#  - Disabled: orphan_page_for_test.md\n",
            encoding="utf-8",
        )
        result = self._run_sandboxed(root)
        assert result.returncode != 0
        assert "orphan_page_for_test" in (result.stdout + result.stderr)


class TestMkdocsBuild:
    def test_strict_build_succeeds_when_mkdocs_is_available(self, tmp_path):
        """Full `mkdocs build --strict` (CI always runs it; locally this
        skips when the optional mkdocs toolchain is absent)."""
        pytest.importorskip("mkdocs")
        pytest.importorskip("mkdocstrings")  # the reference pages need the plugin
        result = subprocess.run(
            [sys.executable, "-m", "mkdocs", "build", "--strict",
             "--site-dir", str(tmp_path / "site")],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
