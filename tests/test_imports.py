"""Every module-level import of a library module is used in that module,
dense determinants outside the log domain stay where they are counted, and
``import detlab`` loads no ``numpy.polynomial``."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "detlab"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by top-level import statements that no Name or Attribute
    chain of the module reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in used)


def test_detector_flags_an_unused_name():
    source = "import os\nfrom . import errors, symbols\n\nerrors.X(os.sep)\n"
    assert unused_imports(source) == ["symbols (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


# ``np.linalg.det`` calls the benchmark's tracer counts; every other
# determinant is a log-determinant (``toeplitz.moment_log_det`` or slogdet)
DENSE_DET_SITES = ["fredholm._grid_det", "fredholm._jacobi_det"]


def dense_det_sites(module: str, source: str) -> list:
    """``module.function`` for each call of ``np.linalg.det``, named by the
    top-level function or class method around it."""
    sites = []

    def scan(node, name):
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Attribute) and sub.attr == "det" and
                    ast.unparse(sub.value) == "np.linalg"):
                sites.append(f"{module}.{name}")

    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                scan(item, f"{node.name}.{getattr(item, 'name', '')}")
        else:
            scan(node, getattr(node, "name", "<module>"))
    return sites


def test_det_detector_names_the_function():
    source = ("import numpy as np\n\ndef f(a):\n    return np.linalg.det(a)"
              "\n\nclass C:\n    def g(self, a):\n"
              "        return np.linalg.slogdet(a), np.linalg.det(a)\n")
    assert dense_det_sites("m", source) == ["m.f", "m.C.g"]


def test_dense_det_only_where_counted():
    sites = [site for path in MODULES
             for site in dense_det_sites(path.stem, path.read_text())]
    assert sorted(sites) == DENSE_DET_SITES


def test_import_loads_no_numpy_polynomial():
    # symbols.derivative serves the two derivatives it was imported for
    probe = "import sys, detlab; print('numpy.polynomial' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "False"
