"""The package's import graph and its public surface.

No module of the package imports a leading-underscore name from another: a
private name is free to change with its module; a caller elsewhere should
use the public function that does the same job, or the name should be made
public. The package imports nothing outside the standard library and
itself. ``report`` is the only module that imports ``json``, so results
reach JSON along one path; ``ingest`` is the only one that imports ``csv``,
and ``cli`` imports neither, so it holds no parsing and no output format. No
module imports ``dataclasses``, and starting the CLI loads neither it nor
``inspect``, which would add a few milliseconds to every run's start-up. And
``fairaudit.__all__`` lists each name once, every listed name resolves, and
every public name the package root imports is listed, so a deletion cannot
leave a dangling export. Every ``__new__`` the package defines raises
somewhere, so a constructor that checks nothing is a declared named tuple.
Only ``cli._emit`` writes or flushes stdout, and every ``print`` goes to
stderr, so every byte of output meets one rule for a failed write.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import fairaudit

PACKAGE = Path(fairaudit.__file__).parent


def private_imports(source: str) -> list[str]:
    """``from`` imports of a private name from within the package."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "fairaudit":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(f"from {'.' * node.level}{module} import {name}")
    return found


def test_no_module_imports_a_private_name_from_another():
    offenders = {
        path.name: private_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_check_sees_private_imports_only():
    source = (
        "from . import __version__\n"
        "from .distributions import EPS_DEFAULT, _aggregate\n"
        "from fairaudit.measures import _rate_verdict\n"
        "from itertools import _private\n"
    )
    assert private_imports(source) == [
        "from .distributions import _aggregate",
        "from fairaudit.measures import _rate_verdict",
    ]


def imported_modules(source: str) -> list[str]:
    """Every module named by an absolute import, dotted names included."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module)
    return found


def foreign_imports(source: str) -> list[str]:
    """Top-level names of absolute imports outside the standard library and
    the package."""
    return [
        top
        for top in (name.split(".")[0] for name in imported_modules(source))
        if top not in sys.stdlib_module_names and top != "fairaudit"
    ]


def test_package_imports_only_the_standard_library():
    offenders = {
        path.name: foreign_imports(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_check_sees_foreign_imports_only():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from fairaudit.measures import independence\n"
        "from . import __version__\n"
        "from scipy.stats import norm\n"
        "import fairaudit, hypothesis\n"
    )
    assert foreign_imports(source) == ["numpy", "scipy", "hypothesis"]


def package_imports(source: str, package: str) -> list[str]:
    """Modules of ``package`` (``json.encoder`` of ``json``, say) that
    ``source`` imports."""
    return [name for name in imported_modules(source) if name.split(".")[0] == package]


def json_imports(source: str) -> list[str]:
    """Modules of the ``json`` package that ``source`` imports."""
    return package_imports(source, "json")


def importers_of(package: str) -> list[str]:
    """The package's modules that import ``package``."""
    return [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if package_imports(path.read_text(encoding="utf-8"), package)
    ]


def test_only_report_imports_json():
    assert importers_of("json") == ["report.py"]


def test_only_ingest_imports_csv():
    assert importers_of("csv") == ["ingest.py"]


def test_cli_imports_neither_csv_nor_json():
    source = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert package_imports(source, "csv") + package_imports(source, "json") == []


def test_no_module_imports_dataclasses():
    assert importers_of("dataclasses") == []


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    code = "import sys, fairaudit.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (run.returncode, run.stdout, run.stderr) == (0, "[]\n", "")


def test_the_check_sees_csv_apart_from_lookalikes():
    source = "import csv\nfrom csv import reader\nimport csvkit\nfrom . import csv_tools\n"
    assert package_imports(source, "csv") == ["csv", "csv"]


def test_the_check_sees_json_in_every_import_form():
    source = (
        "import json\n"
        "import os, json.decoder as d\n"
        "from json.encoder import encode_basestring_ascii\n"
        "from . import report\n"
        "import jsonschema\n"
    )
    assert json_imports(source) == ["json", "json.decoder", "json.encoder"]


def test_all_entries_resolve_and_are_listed_once():
    exported = fairaudit.__all__
    assert len(set(exported)) == len(exported)
    assert [name for name in exported if not hasattr(fairaudit, name)] == []


def test_every_public_name_imported_by_the_root_is_exported():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    public = {name for name in imported if not name.startswith("_")}
    assert sorted(public - set(fairaudit.__all__)) == []


def unchecked_constructors(source: str) -> list[str]:
    """The classes of ``source`` whose ``__new__`` contains no ``raise``."""
    return [
        cls.name
        for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, ast.FunctionDef) and method.name == "__new__"
        if not any(isinstance(node, ast.Raise) for node in ast.walk(method))
    ]


def test_every_constructor_checks_its_arguments():
    offenders = {
        path.name: unchecked_constructors(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_check_sees_constructors_without_a_raise():
    source = (
        "class Checked(tuple):\n"
        "    def __new__(cls, x):\n"
        "        if x < 0:\n"
        "            raise ValueError(x)\n"
        "        return super().__new__(cls, (x,))\n"
        "class Copied(tuple):\n"
        "    def __new__(cls, x):\n"
        "        return super().__new__(cls, (dict(x),))\n"
        "class Declared(tuple):\n"
        "    def of(cls, x):\n"
        "        return cls((x,))\n"
    )
    assert unchecked_constructors(source) == ["Copied"]


def stdout_writes(source: str) -> list[str]:
    """Each ``sys.stdout.write`` or ``sys.stdout.flush`` that ``source`` names,
    as ``<scope>: <name>``: the innermost function or class holding it, or
    ``<module>``."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, child.name)
                continue
            name = ast.unparse(child) if isinstance(child, ast.Attribute) else ""
            if name in ("sys.stdout.write", "sys.stdout.flush"):
                found.append(f"{scope}: {name}")
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def prints_to_stdout(source: str) -> list[str]:
    """Each ``print`` call of ``source`` that does not pass ``file=sys.stderr``."""
    return [
        ast.unparse(node)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        if node.func.id == "print"
        if not any(
            kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr" for kw in node.keywords
        )
    ]


def test_only_emit_writes_stdout():
    offenders = {
        path.name: stdout_writes(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in offenders.items() if found} == {
        "cli.py": ["_emit: sys.stdout.write", "_emit: sys.stdout.flush"]
    }


def test_every_print_goes_to_stderr():
    offenders = {
        path.name: prints_to_stdout(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: found for name, found in offenders.items() if found} == {}


def test_the_check_sees_stdout_writes_by_function():
    source = (
        "import sys\n"
        "sys.stdout.flush()\n"
        "class Parser:\n"
        "    def _print_message(self, message):\n"
        "        sys.stdout.write(message)\n"
        "def emit(text):\n"
        "    write = sys.stdout.write\n"
        "    sys.stderr.write(text)\n"
        "    file = sys.stdout\n"
    )
    assert stdout_writes(source) == [
        "<module>: sys.stdout.flush",
        "_print_message: sys.stdout.write",
        "emit: sys.stdout.write",
    ]


def test_the_check_sees_prints_to_stdout():
    source = (
        "import sys\n"
        "print(output)\n"
        "print('warning', file=sys.stderr)\n"
        "print('x', end='', file=sys.stdout)\n"
        "print('y', file=out)\n"
    )
    assert prints_to_stdout(source) == [
        "print(output)",
        "print('x', end='', file=sys.stdout)",
        "print('y', file=out)",
    ]
