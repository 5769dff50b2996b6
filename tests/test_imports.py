"""The package's import graph and its public surface.

No module of the package imports a leading-underscore name from another: a
private name is free to change with its module; a caller elsewhere should
use the public function that does the same job, or the name should be made
public. The package imports nothing outside the standard library and
itself. ``report`` is the only module that imports ``json``, so results
reach JSON along one path; ``ingest`` is the only one that imports ``csv``,
and ``cli`` imports neither, so it holds no parsing and no output format. And ``fairaudit.__all__`` lists each name once,
every listed name resolves, and every public name the package root imports
is listed, so a deletion cannot leave a dangling export.
"""

import ast
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
