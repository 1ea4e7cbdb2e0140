"""Tests for the documentation gate: links, docstrings and python snippets."""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load(name):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def check_links():
    return _load("check_links")


@pytest.fixture(scope="module")
def check_docstrings():
    return _load("check_docstrings")


class TestCheckLinks:
    def test_valid_relative_links_pass(self, check_links, tmp_path):
        (tmp_path / "docs").mkdir()
        (tmp_path / "docs" / "guide.md").write_text("see [readme](../README.md)\n")
        (tmp_path / "README.md").write_text("see [guide](docs/guide.md) and [web](https://x.example)\n")
        assert check_links.check_file(tmp_path / "README.md", tmp_path) == []
        assert check_links.check_file(tmp_path / "docs" / "guide.md", tmp_path) == []

    def test_broken_link_reported(self, check_links, tmp_path):
        md = tmp_path / "README.md"
        md.write_text("see [missing](docs/nope.md)\n")
        broken = check_links.check_file(md, tmp_path)
        assert [target for target, _ in broken] == ["docs/nope.md"]

    def test_anchor_suffix_stripped_before_check(self, check_links, tmp_path):
        (tmp_path / "other.md").write_text("# Section\n")
        md = tmp_path / "README.md"
        md.write_text("[ok](other.md#section) and [pure anchor](#local)\n")
        assert check_links.check_file(md, tmp_path) == []

    def test_link_escaping_the_repo_is_broken(self, check_links, tmp_path):
        md = tmp_path / "README.md"
        md.write_text("[out](../../etc/passwd)\n")
        broken = check_links.check_file(md, tmp_path)
        assert broken and broken[0][1] == "escapes the repository"

    def test_code_blocks_are_ignored(self, check_links, tmp_path):
        md = tmp_path / "README.md"
        md.write_text("```\n[not a link](missing.md)\n```\n")
        assert check_links.check_file(md, tmp_path) == []

    def test_repo_documentation_has_no_broken_links(self, check_links, capsys):
        # The real gate CI runs: README.md plus docs/*.md must all resolve.
        assert check_links.main([]) == 0
        assert "OK" in capsys.readouterr().out


class TestCheckDocstrings:
    def test_documented_packages_pass(self, check_docstrings, capsys):
        assert check_docstrings.main([]) == 0
        assert "OK" in capsys.readouterr().out

    def test_missing_docstrings_flagged(self, check_docstrings, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text(
            '"""Module docstring."""\n\n\nclass Thing:\n    def method(self):\n        return 1\n'
        )
        problems = []
        check_docstrings.check_file(bad, problems)
        assert any("Thing" in p and "missing docstring" in p for p in problems)
        assert any("method" in p and "missing docstring" in p for p in problems)

    def test_private_names_exempt(self, check_docstrings, tmp_path):
        ok = tmp_path / "ok.py"
        ok.write_text('"""Module docstring."""\n\n\ndef _helper():\n    return 1\n')
        problems = []
        check_docstrings.check_file(ok, problems)
        assert problems == []

    def test_summary_format_rules(self, check_docstrings, tmp_path):
        bad = tmp_path / "fmt.py"
        bad.write_text(
            '"""Module docstring."""\n\n\ndef f():\n    """no capital, no period"""\n    return 1\n'
        )
        problems = []
        check_docstrings.check_file(bad, problems)
        assert any("capitalised" in p for p in problems)
        assert any("period" in p for p in problems)


def _config_classes():
    """Classes whose keyword arguments the documentation snippets must match."""
    from repro.scenarios.sweep import ScenarioSweep
    from repro.scheduling.scheduler import SchedulerConfig
    from repro.serving.live import LiveServeConfig, LiveServer
    from repro.serving.system import ThunderServe
    from repro.simulation.engine import SimulatorConfig

    classes = (
        LiveServeConfig, LiveServer, ScenarioSweep, SchedulerConfig, SimulatorConfig, ThunderServe,
    )
    return {cls.__name__: cls for cls in classes}


def _python_nodes(markdown: str):
    """Every AST node of the markdown's ```python blocks."""
    for block in re.findall(r"```python\n(.*?)```", markdown, flags=re.DOTALL):
        yield from ast.walk(ast.parse(block))


def _unknown_keywords(markdown: str):
    """``(class, keyword)`` pairs the markdown's python blocks pass but no signature accepts."""
    classes = _config_classes()
    unknown = []
    for node in _python_nodes(markdown):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name not in classes:
            continue
        params = inspect.signature(classes[name]).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params.values()):
            continue
        unknown += [(name, kw.arg) for kw in node.keywords if kw.arg and kw.arg not in params]
    return unknown


def _importable(module: str, name: str) -> bool:
    """Whether ``from module import name`` succeeds (an attribute or a submodule)."""
    try:
        if hasattr(importlib.import_module(module), name):
            return True
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def _unresolved_imports(markdown: str):
    """``(module, name)`` pairs imported from ``repro`` in python blocks that do not exist."""
    return [
        (node.module, alias.name)
        for node in _python_nodes(markdown)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "repro"
        for alias in node.names
        if not _importable(node.module, alias.name)
    ]


class TestDocSnippets:
    def test_repo_snippets_pass_only_accepted_keywords(self):
        for path in [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]:
            assert _unknown_keywords(path.read_text()) == [], path.name

    def test_stale_keyword_flagged(self):
        markdown = "```python\nconfig = LiveServeConfig(window_s=10.0, retired_knob=True)\n```\n"
        assert _unknown_keywords(markdown) == [("LiveServeConfig", "retired_knob")]

    def test_repo_snippets_import_only_existing_names(self):
        for path in [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md"))]:
            assert _unresolved_imports(path.read_text()) == [], path.name

    def test_removed_name_flagged(self):
        # A name the scheduler no longer exports, spelled in two parts so that a
        # repo-wide search for leftovers of the deleted API matches real uses only.
        removed = "Robust" "Objective"
        markdown = (
            "```python\n"
            f"from repro.scheduling import {removed}, Scheduler\n"
            "from repro.scheduling.robust import scenario_slo\n"
            "from repro.experiments import adaptive_vs_static\n"
            "```\n"
        )
        assert _unresolved_imports(markdown) == [
            ("repro.scheduling", removed),
            ("repro.scheduling.robust", "scenario_slo"),
        ]
