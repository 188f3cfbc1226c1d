"""Package surface: every exported name resolves, and the demos run."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import g2sf

SRC = Path(g2sf.__file__).resolve().parents[1]
DEMOS = SRC.parent / "demos"


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(g2sf.__path__)))
def test_module_exports_resolve(name):
    module = importlib.import_module(f"g2sf.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"g2sf.{name}.__all__ names missing attributes: {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(g2sf.__file__).read_text())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    for module_name, attr in imported:
        module = importlib.import_module(f"g2sf.{module_name}")
        assert getattr(g2sf, attr) is getattr(module, attr), (module_name, attr)


def test_readme_quickstart_imports_resolve():
    # The quickstart fits its banks the way the bank stage does, through the
    # package's top-level names.
    text = (SRC.parent / "README.md").read_text()
    code = text.split("## Library quickstart", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    names = [alias.name for node in ast.walk(ast.parse(code))
             if isinstance(node, ast.ImportFrom) and node.module == "g2sf"
             for alias in node.names]
    assert "fit_banks" in names and "fit_normalizer" not in code
    missing = [name for name in names if not hasattr(g2sf, name)]
    assert not missing, missing


# Demo 05 trains two networks and takes about 30 s, so it is left out.
@pytest.mark.parametrize("demo", ["01_dataset_and_banks.py", "02_geometric_encoding.py",
                                  "03_train_fused_metric.py", "04_score_and_evaluate.py"])
def test_demo_runs(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "TMPDIR": str(tmp_path), "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, str(DEMOS / demo)], capture_output=True, text=True,
                          env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert not list(tmp_path.glob("g2sf_demo_*")), "the demo left its dataset behind"
