import pkgutil
import re
from pathlib import Path

import lsqmatch

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_module_list_matches_package():
    bullets = set(re.findall(r"^- `lsqmatch\.(\w+)`", README.read_text(encoding="utf-8"), re.M))
    assert bullets == {m.name for m in pkgutil.iter_modules(lsqmatch.__path__)}
