"""Docs health: markdown cross-references and docstring examples.

The CI docs job runs the same two checks standalone (see
.github/workflows/ci.yml); keeping them in the suite means a broken
link or a drifted docstring example fails locally too.
"""

import doctest
import importlib
import importlib.util
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", ROOT / "scripts" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules["check_docs"] = module
    spec.loader.exec_module(module)
    return module


def test_markdown_links_resolve():
    check_docs = load_check_docs()
    problems = []
    for path in check_docs.markdown_files([]):
        problems.extend(check_docs.check_file(path))
    assert problems == []


def test_slugify_matches_github_anchors():
    check_docs = load_check_docs()
    assert check_docs.slugify("Fault model") == "fault-model"
    assert check_docs.slugify("§10 — Faults & recovery") == "10--faults--recovery"
    assert check_docs.slugify("`FaultConfig` knobs") == "faultconfig-knobs"


def test_link_checker_catches_breakage(tmp_path):
    check_docs = load_check_docs()
    page = tmp_path / "page.md"
    page.write_text(
        "# Title\n\n"
        "[ok](page.md) [missing](nope.md) [bad anchor](#nowhere)\n"
        "[good anchor](#title) ![image](missing.png)\n"
    )
    problems = check_docs.check_file(page)
    # The broken file link and the dangling anchor are caught; images
    # are ignored by design.
    assert len(problems) == 2
    assert any("nope.md" in problem for problem in problems)
    assert any("#nowhere" in problem for problem in problems)


@pytest.mark.parametrize(
    "module_name",
    [
        "repro.faults.injector",
        "repro.faults.degradation",
        "repro.sim.engine",
    ],
)
def test_docstring_examples_run(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module)
    assert results.attempted > 0, f"{module_name} lost its doctest examples"
    assert results.failed == 0
