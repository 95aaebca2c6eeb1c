"""The public surface: every exported name resolves, and nothing lives on
that no code uses.

A top-level function, class or method of `src/swapsim/` stays only while
code in `src/`, `demos/` or `perfbench/` names it outside its own body, or
the README library tour documents it.  A function that only the README
keeps is a public wrapper over an array kernel, so it stays small: at most
three statements, its docstring aside.

The package namespace is lazy: `import swapsim` and `import swapsim.cli`
load no experiment module, yet every name of `swapsim.__all__` resolves.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "swapsim"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", ["swapsim", *MODULES])
def test_every_all_name_resolves(name):
    module = importlib.import_module(name if name == "swapsim" else f"swapsim.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_star_import_binds_every_all_name():
    import swapsim

    namespace = {}
    exec("from swapsim import *", namespace)
    assert [n for n in swapsim.__all__ if n not in namespace] == []
    assert namespace["ExperimentConfig"] is importlib.import_module("swapsim.config").ExperimentConfig


def test_cli_and_a_chip_build_load_no_experiment_module():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    code = ("import sys, swapsim.cli\n"
            "from swapsim.config import ExperimentConfig\n"
            "ExperimentConfig.measured_chip().chip(0)\n"
            "print(sorted({'swapsim.experiments', 'swapsim.biphoton', 'swapsim.tomography'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _definitions():
    """(file, qualified name, node) of every top-level function and class
    of `src/swapsim/` and of every method of those classes, but dunders
    (the interpreter calls them, as it calls the package's PEP 562
    `__getattr__` and `__dir__`)."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
                yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                        yield path, f"{node.name}.{sub.name}", sub


def _references() -> dict:
    """Identifier -> [(file, line)] of every name and attribute that the
    code of `src/`, `demos/` and `perfbench/` reads; imports and `__all__`
    strings do not count."""
    refs = {}
    for folder in (SRC, ROOT / "demos", ROOT / "perfbench"):
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    refs.setdefault(node.id, []).append((path, node.lineno))
                elif isinstance(node, ast.Attribute):
                    refs.setdefault(node.attr, []).append((path, node.lineno))
    return refs


def _library_tour() -> set:
    """Every identifier inside a code span of the README's library tour."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = text.split("## Library tour", 1)[1].split("\n## ", 1)[0]
    return {ident for span in re.findall(r"`([^`]+)`", tour)
            for ident in re.findall(r"[A-Za-z_]\w*", span)}


def _outside_refs(refs, path, qualname, node):
    return [(p, line) for p, line in refs.get(qualname.rsplit(".", 1)[-1], [])
            if not (p == path and node.lineno <= line <= node.end_lineno)]


def test_every_definition_is_referenced_or_documented():
    refs, tour = _references(), _library_tour()
    unused = [f"{path.name}:{qualname}" for path, qualname, node in _definitions()
              if not _outside_refs(refs, path, qualname, node)
              and qualname.rsplit(".", 1)[-1] not in tour]
    assert unused == []


def test_documented_wrappers_stay_small():
    refs = _references()
    large = []
    for path, qualname, node in _definitions():
        if isinstance(node, ast.ClassDef) or _outside_refs(refs, path, qualname, node):
            continue
        body = node.body[1:] if ast.get_docstring(node) is not None else node.body
        if len(body) > 3:
            large.append(f"{path.name}:{qualname} ({len(body)} statements)")
    assert large == []
