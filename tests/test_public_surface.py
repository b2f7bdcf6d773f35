"""The package's advertised surface: exported names and the README example."""

import ast
import importlib
import math
import pkgutil
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sbpd

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(sbpd.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(f"sbpd.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_every_package_import_resolves():
    tree = ast.parse(Path(sbpd.__file__).read_text())
    names = [alias.asname or alias.name
             for node in tree.body if isinstance(node, ast.ImportFrom)
             for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(sbpd, n)] == []


def test_readme_library_example_runs(capsys):
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # same program at a smaller scale: 1000 reference and 200 measured steps
    for full, small in (("budget=25_000", "budget=1_000"),
                        ("iterations=10_000", "iterations=200")):
        assert code.count(full) == 1
        code = code.replace(full, small)
    exec(compile(code, "README.md", "exec"), {})
    printed = capsys.readouterr().out.split()
    assert len(printed) == 1 and math.isfinite(float(printed[0]))


def test_cli_imports_without_scipy():
    # numpy is the library's only dependency; scipy is for benchmarks/ alone
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    code = ("import sys, sbpd.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
