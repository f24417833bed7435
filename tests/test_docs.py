"""The two lists of the package's modules, the README's Layout block and
the `syncmesh` docstring, name every module under src/syncmesh, and the
`cores` docstring and the README's two-core section name every kind of
job the helper runs."""

import inspect
import re
from pathlib import Path

import syncmesh
from syncmesh import cores

ROOT = Path(__file__).resolve().parent.parent
MODULES = {path.stem for path in (ROOT / "src" / "syncmesh").glob("*.py")
           if path.stem not in ("__init__", "__main__")}


def _readme() -> str:
    return (ROOT / "README.md").read_text(encoding="utf-8")


def test_the_readme_layout_names_every_module():
    layout = _readme().split("## Layout", 1)[1].split("```")[1]
    assert set(re.findall(r"^  (\w+)\.py ", layout, re.M)) == MODULES


def test_the_package_docstring_names_every_module():
    assert set(re.findall(r"^  (\w+) +- ", syncmesh.__doc__, re.M)) == MODULES


def test_every_job_kind_is_named_in_the_docs():
    """A job kind is a constant that the helper's `cores._answer` serves;
    the module docstring lists each as `NAME`, and the README's two-core
    section, its bullet on the process's one helper, as `cores.NAME`."""
    kinds = re.findall(r"if job == (\w+):", inspect.getsource(cores._answer))
    assert kinds and all(isinstance(getattr(cores, k), int) for k in kinds)
    section = _readme().split("\n- The process has one helper", 1)[1]
    section = section.split("\n- ", 1)[0]
    for kind in kinds:
        assert f"`{kind}`" in cores.__doc__, kind
        assert f"`cores.{kind}`" in section, kind
