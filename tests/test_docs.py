"""The two lists of the package's modules, the README's Layout block and
the `syncmesh` docstring, name every module under src/syncmesh."""

import re
from pathlib import Path

import syncmesh

ROOT = Path(__file__).resolve().parent.parent
MODULES = {path.stem for path in (ROOT / "src" / "syncmesh").glob("*.py")
           if path.stem not in ("__init__", "__main__")}


def test_the_readme_layout_names_every_module():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    layout = readme.split("## Layout", 1)[1].split("```")[1]
    assert set(re.findall(r"^  (\w+)\.py ", layout, re.M)) == MODULES


def test_the_package_docstring_names_every_module():
    assert set(re.findall(r"^  (\w+) +- ", syncmesh.__doc__, re.M)) == MODULES
