"""What the modules import: every name is read, and the package needs only its dependencies.

No linter is a dependency of this package, so the checks parse each module
under src/, tests/ and perfbench/ with `ast`: an imported name counts as
read when the module loads it as a plain name anywhere, or lists it in
`__all__`.  `from __future__` imports are compiler directives and are
skipped.  The third-party modules imported under src/ must be exactly the
`[project] dependencies` of pyproject.toml, so a test-only library such as
mpmath cannot creep back into the package, and fresh interpreters check
that importing the package loads nothing, that the CLI loads neither
mpmath nor scipy, that its ensemble statistics load no numpy.ma, and that
reading a series maps the one compiled library.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC_MODULES = sorted((ROOT / "src").rglob("*.py"))
MODULES = sorted([*SRC_MODULES, *(ROOT / "tests").glob("*.py"), *(ROOT / "perfbench").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names the source imports but never reads, as 'name (line N)'."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in read]


def test_scanner_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import os.path as osp\n"
        "import numpy.linalg\n"
        "from math import pi, tau\n"
        "__all__ = ['tau']\n"
        "print(numpy.linalg.norm, pi)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "osp (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def third_party_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports outside the standard library."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names - set(sys.stdlib_module_names) - {"entspread"}


def test_third_party_scanner_skips_stdlib_and_relative_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy.linalg\n"
        "from scipy.linalg.blas import dgemm\n"
        "from . import chain\n"
        "from .bessel import bessel_row\n"
    )
    assert third_party_imports(source) == {"numpy", "scipy"}


def test_runtime_dependencies_are_what_src_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    listed = {re.match(r"[\w.-]+", spec).group().lower().replace("-", "_")
              for spec in project["dependencies"]}
    imported = set().union(*(third_party_imports(path.read_text()) for path in SRC_MODULES))
    assert sorted(imported - listed) == [], "imported under src/, not a runtime dependency"
    assert sorted(listed - imported) == [], "a runtime dependency nothing under src/ imports"


def modules_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running `statement`."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); {statement}; print(*sys.modules)"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return set(child.stdout.split())


def test_package_import_loads_no_numpy():
    assert "numpy" not in modules_after("import entspread")


def test_cli_import_loads_no_mpmath():
    loaded = modules_after("import entspread.cli")
    assert "entspread.cli" in loaded
    assert "mpmath" not in loaded


def test_cli_import_loads_no_scipy():
    # The kernel's passes are its own compiled code; scipy serves the tests.
    loaded = modules_after("import entspread.cli")
    assert "entspread.cli" in loaded
    assert not [name for name in loaded if name.startswith("scipy")]


def test_ensemble_statistics_load_no_numpy_ma():
    # np.percentile would import numpy.ma inside a fresh process's first fit;
    # scipy, no longer imported, used to load it at start-up instead.
    loaded = modules_after("import entspread.cli; entspread.cli._ensemble([2.0, 2.5, 3.0])")
    assert "numpy.ma" not in loaded


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="no /proc/self/maps here")
def test_a_series_read_maps_one_compiled_library(tmp_path):
    # seriesio binds its pass from the library the bessel module loaded.
    statement = (
        "import numpy as np; import entspread.seriesio as io; from entspread.analysis import MomentSeries; "
        f"path = {str(tmp_path / 'series.csv')!r}; "
        "io.write_series_csv(path, MomentSeries.from_table(np.arange(14.0).reshape(2, 7))); "
        "io.read_series_csv(path); "
        "print(sorted({line.split(maxsplit=5)[5].strip() for line in open('/proc/self/maps') "
        "if 'entspread-ring-' in line}))"
    )
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); {statement}"
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert len(ast.literal_eval(child.stdout)) == 1, child.stdout
