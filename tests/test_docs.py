"""Offline documentation consistency checks.

CI builds the MkDocs site with ``mkdocs build --strict`` (which fails on
broken internal links), but that toolchain is not available in offline
environments — so these tests re-check the properties that matter
without it: the nav only references files that exist, every relative
markdown link in ``docs/`` and ``README.md`` resolves, every
``::: module`` mkdocstrings directive imports, and the user-facing
tables (README scenario catalogue, packaged reproduction manifest) stay
in sync with the code registries.
"""

from __future__ import annotations

import re
from importlib import import_module
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
DOCS_DIR = REPO_ROOT / "docs"
README = REPO_ROOT / "README.md"
MKDOCS_YML = REPO_ROOT / "mkdocs.yml"

_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)#\s]+)(#[^)\s]*)?\)")
_AUTODOC_RE = re.compile(r"^::: ([\w.]+)", re.MULTILINE)
_PATH_REF_RE = re.compile(r"`((?:repro|tests|benchmarks)/[\w/.]+\.py)`")
_DOTTED_REF_RE = re.compile(r"`(repro(?:\.\w+)+)`")


def _markdown_files() -> list[Path]:
    return sorted(DOCS_DIR.glob("*.md")) + [README]


def _nav_pages() -> list[str]:
    yaml = pytest.importorskip("yaml", reason="PyYAML (test extra) missing")
    payload = yaml.safe_load(MKDOCS_YML.read_text())
    pages: list[str] = []

    def walk(node):
        if isinstance(node, str):
            pages.append(node)
        elif isinstance(node, list):
            for item in node:
                walk(item)
        elif isinstance(node, dict):
            for value in node.values():
                walk(value)

    walk(payload.get("nav", []))
    return pages


class TestMkdocsConfig:
    def test_config_parses(self):
        yaml = pytest.importorskip(
            "yaml", reason="PyYAML (test extra) missing"
        )
        payload = yaml.safe_load(MKDOCS_YML.read_text())
        assert payload["site_name"]
        assert "mkdocstrings" in str(payload["plugins"])

    def test_nav_pages_exist(self):
        pages = _nav_pages()
        assert pages, "mkdocs.yml must declare a nav"
        for page in pages:
            assert (DOCS_DIR / page).is_file(), f"nav references missing {page}"

    def test_every_docs_page_is_in_nav(self):
        pages = set(_nav_pages())
        on_disk = {p.name for p in DOCS_DIR.glob("*.md")}
        assert on_disk <= pages, f"orphan docs pages: {on_disk - pages}"

    def test_docs_extra_is_declared(self):
        from repro.store.manifest import tomllib  # 3.10-safe import

        payload = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())
        docs_extra = payload["project"]["optional-dependencies"]["docs"]
        assert any(dep.startswith("mkdocs") for dep in docs_extra)


class TestInternalLinks:
    @pytest.mark.parametrize(
        "md_file", _markdown_files(), ids=lambda p: p.name
    )
    def test_relative_links_resolve(self, md_file):
        text = md_file.read_text()
        broken = []
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            resolved = (md_file.parent / target).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, f"{md_file.name}: broken links {broken}"


class TestApiReference:
    def test_autodoc_targets_import(self):
        directives = _AUTODOC_RE.findall((DOCS_DIR / "api.md").read_text())
        assert directives, "api.md must contain mkdocstrings directives"
        for module in directives:
            import_module(module)

    def test_store_package_is_documented(self):
        text = (DOCS_DIR / "api.md").read_text()
        assert "repro.store" in text

    def test_documented_members_import_from_their_module(self):
        # Every `members:` list under a `::: module` directive names
        # symbols that must exist on that module — the curated public
        # surface stays importable exactly as documented.
        text = (DOCS_DIR / "api.md").read_text()
        blocks = re.findall(
            r"^::: ([\w.]+)\n(?:\s+options:\n\s+members: \[([^\]]+)\])?",
            text,
            re.MULTILINE,
        )
        member_lists = [(m, syms) for m, syms in blocks if syms]
        assert member_lists, "api.md must curate at least one members list"
        missing = []
        for module_name, symbols in member_lists:
            module = import_module(module_name)
            for symbol in (s.strip() for s in symbols.split(",")):
                if not hasattr(module, symbol):
                    missing.append(f"{module_name}.{symbol}")
        assert not missing, f"api.md documents missing symbols: {missing}"

    def test_curated_package_exports_import(self):
        # The serving/queueing/scenarios packages re-export their entry
        # points via __all__; every name must resolve.
        for package in ("repro.serving", "repro.queueing", "repro.scenarios"):
            module = import_module(package)
            exported = getattr(module, "__all__", ())
            assert exported, f"{package} must declare __all__"
            for name in exported:
                assert hasattr(module, name), f"{package}.{name} missing"
        serving = import_module("repro.serving")
        assert hasattr(serving, "Controller")
        assert hasattr(serving, "evaluate_regret")


def _resolves(dotted: str) -> bool:
    """Import the longest module prefix of ``dotted``; the rest must be
    attributes of it."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True
    return False


class TestPaperMap:
    def test_referenced_modules_and_tests_exist(self):
        # Every page, so that deleting a module cannot leave a stale
        # reference: backticked file paths must exist and backticked
        # dotted `repro.…` names must import.
        paper_map = (DOCS_DIR / "paper-map.md").read_text()
        assert _PATH_REF_RE.search(paper_map), (
            "paper-map.md must reference implementation files"
        )
        missing = []
        for md_file in _markdown_files():
            text = md_file.read_text()
            for rel in set(_PATH_REF_RE.findall(text)):
                candidate = (
                    REPO_ROOT / "src" / rel
                    if rel.startswith("repro/")
                    else REPO_ROOT / rel
                )
                if not candidate.exists():
                    missing.append(f"{md_file.name}: {rel}")
            for dotted in set(_DOTTED_REF_RE.findall(text)):
                if not _resolves(dotted):
                    missing.append(f"{md_file.name}: {dotted}")
        assert not missing, f"docs reference missing code: {missing}"

    def test_tentpole_example_mapping_present(self):
        # The ISSUE's canonical example: Eq. 22 contraction.
        text = (DOCS_DIR / "paper-map.md").read_text()
        assert "meanfield/local.py" in text
        assert "tests/test_local_meanfield.py" in text


class TestReadmeSync:
    def test_every_registered_scenario_is_listed(self):
        from repro.scenarios import available_scenarios

        readme = README.read_text()
        missing = [
            name for name in available_scenarios() if f"`{name}`" not in readme
        ]
        assert not missing, f"README scenario table is missing {missing}"

    def test_reproduce_quickstart_present(self):
        readme = README.read_text()
        assert "repro.experiments.cli reproduce" in readme
        assert "provenance" in readme

    def test_docs_link_present(self):
        readme = README.read_text()
        assert "mkdocs" in readme.lower()
        assert "docs/index.md" in readme


class TestManifestSync:
    def test_manifest_scenarios_are_registered(self):
        from repro.scenarios import available_scenarios
        from repro.store import load_manifest

        registered = set(available_scenarios())
        for spec in load_manifest().artifacts:
            if spec.kind == "scenario":
                assert spec.params["scenario"] in registered


class TestWorkloadCatalog:
    """docs/workloads.md is normative: registering a scenario without a
    catalog row fails the suite (and CI's docs job, which runs the same
    check via scripts/check_scenario_catalog.py)."""

    def test_every_registered_scenario_is_catalogued(self):
        import sys

        sys.path.insert(0, str(REPO_ROOT / "scripts"))
        try:
            from check_scenario_catalog import missing_scenarios
        finally:
            sys.path.pop(0)
        assert missing_scenarios() == []

    def test_catalog_check_fails_on_missing_scenario(self, tmp_path):
        import sys

        sys.path.insert(0, str(REPO_ROOT / "scripts"))
        try:
            from check_scenario_catalog import missing_scenarios
        finally:
            sys.path.pop(0)
        stale = tmp_path / "workloads.md"
        stale.write_text("# Workload catalog\n\nonly `paper-baseline`.\n")
        missing = missing_scenarios(stale)
        assert "diurnal-stream" in missing
        assert "stochastic-delay" in missing

    def test_streaming_scenarios_registered(self):
        from repro.scenarios import available_scenarios

        names = set(available_scenarios())
        assert {"diurnal-stream", "flash-crowd", "stochastic-delay"} <= names


class TestServingDocs:
    def test_serving_pages_in_nav(self):
        pages = set(_nav_pages())
        assert "serving.md" in pages
        assert "workloads.md" in pages

    def test_serving_guide_defines_metrics(self):
        from repro.serving.metrics import SUMMARY_FIELDS

        text = (DOCS_DIR / "serving.md").read_text()
        for field in SUMMARY_FIELDS:
            base = field.split("_p5")[0].split("_p9")[0]
            assert base in text, f"serving.md does not define {field}"

    def test_api_page_covers_least_documented_modules(self):
        text = (DOCS_DIR / "api.md").read_text()
        for module in (
            "repro.queueing.arrivals",
            "repro.queueing.events",
            "repro.utils.stats",
            "repro.serving.metrics",
            "repro.serving.engine",
            "repro.queueing.workloads",
            "repro.queueing.delays",
            "repro.meanfield.delayed",
        ):
            assert f"::: {module}" in text, f"api.md missing {module}"

    def test_paper_map_covers_delay_extension(self):
        text = (DOCS_DIR / "paper-map.md").read_text()
        assert "meanfield/delayed.py" in text
        assert "serving" in text
        assert "tests/test_delayed_meanfield.py" in text
