import argparse
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


def _parser_flags(parser, path=()):
    """{subcommand path: its long options} for every leaf parser below ``parser``."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        options = {o for a in parser._actions for o in a.option_strings}
        return {path: {o for o in options if o.startswith("--")} - {"--help"}}
    flags = {}
    for name, sub in subparsers[0].choices.items():
        flags.update(_parser_flags(sub, path + (name,)))
    return flags


def test_readme_synopsis_matches_parser():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Command line\n\n```\n(.*?)^```", text, re.M | re.S).group(1)
    synopsis = {}
    for command in re.split(r"\n(?=lsqmatch )", block.strip()):
        words = command.split()
        path = tuple(takewhile(lambda w: not w.startswith(("-", "[")), words[1:]))
        synopsis[path] = set(re.findall(r"--[a-z][a-z-]*", command))
    assert synopsis == _parser_flags(build_parser())


def test_readme_csv_schemas_match_tables():
    text = README.read_text(encoding="utf-8")
    assert re.search(r"^Records:\s+`([^`]*)`", text, re.M).group(1) == bench.RECORDS.header
    assert re.search(r"\bFits:\s+`([^`]*)`", text).group(1) == bench.FITS.header


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
