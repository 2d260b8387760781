import argparse
import builtins
import importlib
import pkgutil
import re
from itertools import takewhile
from pathlib import Path

import lsqmatch
from lsqmatch import bench
from lsqmatch.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(lsqmatch.__file__).resolve().parent


def test_readme_module_list_matches_package():
    bullets = set(re.findall(r"^- `lsqmatch\.(\w+)`", README.read_text(encoding="utf-8"), re.M))
    assert bullets == {m.name for m in pkgutil.iter_modules(lsqmatch.__path__)}


def test_test_files_are_named_after_modules():
    # One test file per module, beside the acceptance, docs and benchmark contract files.
    # test_kernels.py keeps the loop's 47-case bit-identity table, the part of inverter's
    # tests not yet moved into test_inverter.py (ROADMAP item 20); drop it here when it moves.
    names = {path.stem.removeprefix("test_") for path in Path(__file__).parent.glob("test_*.py")}
    modules = {m.name for m in pkgutil.iter_modules(lsqmatch.__path__)}
    assert names - modules == {"acceptance", "docs", "kernels", "perfbench_contract"}


def _leaf_parsers(parser, path=()):
    """{subcommand path: its parser} for every leaf parser below ``parser``."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        return {path: parser}
    leaves = {}
    for name, sub in subparsers[0].choices.items():
        leaves.update(_leaf_parsers(sub, path + (name,)))
    return leaves


def test_readme_synopsis_matches_parser():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```\n(.*?)^```", text, re.M | re.S).group(1)
    synopsis = {}
    for command in re.split(r"\n(?=lsqmatch )", block.strip()):
        words = command.split()
        path = tuple(takewhile(lambda w: not w.startswith(("-", "[")), words[1:]))
        synopsis[path] = command
    leaves = _leaf_parsers(build_parser())
    assert synopsis.keys() == leaves.keys()
    checked = set()
    for path, command in synopsis.items():
        actions = {o: a for a in leaves[path]._actions for o in a.option_strings}
        flags = {o for o in actions if o.startswith("--")} - {"--help"}
        assert set(re.findall(r"--[a-z][a-z-]*", command)) == flags, path
        # A bracketed single value is the default: "[--eps 1e-6]" must read EPSILON.
        for flag, value in re.findall(r"\[(--[a-z][a-z-]*) ([^]|\s]+)\]", command):
            action = actions[flag]
            assert (action.type or str)(value) == action.default, (path, flag, value)
            checked.add(flag)
    assert checked == {"--eps", "--trials", "--seed"}


def test_readme_csv_schemas_match_tables():
    text = README.read_text(encoding="utf-8")
    assert re.search(r"^Records:\s+`([^`]*)`", text, re.M).group(1) == bench.RECORDS.header
    assert re.search(r"\bFits:\s+`([^`]*)`", text).group(1) == bench.FITS.header


def test_readme_errors_are_the_exported_ones():
    # A removed exception class must not linger in README, nor a new one go unnamed.
    named = set(re.findall(r"`(\w+Error)`", README.read_text(encoding="utf-8")))
    assert {e for e in named if not hasattr(builtins, e)} == {
        e for e in lsqmatch.__all__ if e.endswith("Error")
    }


def _package_modules():
    """{name: module} for every module of the package."""
    return {
        m.name: importlib.import_module(f"lsqmatch.{m.name}")
        for m in pkgutil.iter_modules(lsqmatch.__path__)
    }


def test_readme_class_names_exist():
    # A removed or renamed class must not linger in README, nor an attribute it no longer has.
    modules = _package_modules().values()
    pattern = r"`([A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+)(?:\.(\w+))?[`(]"
    named = set(re.findall(pattern, README.read_text(encoding="utf-8")))
    assert {("ScaleFactorKind", ""), ("MatchResult", "op_count")} <= named
    missing = [
        f"{name}.{attr}" if attr else name
        for name, attr in sorted(named)
        if not any(
            owner is not None and (not attr or hasattr(owner, attr))
            for owner in [getattr(builtins, name, None)] + [getattr(m, name, None) for m in modules]
        )
    ]
    assert missing == []


def test_readme_module_attributes_exist():
    # The check above sees CamelCase names only, not `bench.CONSTANT` or `module.function`.
    modules = _package_modules()
    named = set(re.findall(r"`(\w+)\.(\w+)", README.read_text(encoding="utf-8")))
    dotted = {(module, name) for module, name in named if module in modules}
    assert ("inverter", "MAX_ITERATIONS") in dotted
    missing = sorted(f"{m}.{name}" for m, name in dotted if not hasattr(modules[m], name))
    assert missing == []


def test_package_does_not_use_numpy_linalg():
    # README's promise, and what keeps the tests' numpy.linalg oracles independent.
    pattern = re.compile(r"\b(?:np|numpy)\.linalg\b|\bfrom numpy import\b.*\blinalg\b")
    uses = [
        f"{path.name}:{number}"
        for path in sorted(PACKAGE.glob("*.py"))
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if pattern.search(line)
    ]
    assert uses == []
