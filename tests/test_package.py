"""The package namespace and what importing it loads.

Claims covered:
- `import hassemine` loads none of its submodules; each public name is
  imported from its module on first use;
- a `simulate` run of the CLI loads neither the mining nor the baseline
  modules, and neither it nor a `mine` run loads the catalog module
  (`enumeration`); a `baseline` run loads neither `mining`, `estimators`
  nor `enumeration`, as the order encoding lives in `sequences` and the
  cluster assignment in `baselines`;
- `from hassemine import *` binds every name in `__all__`, `dir` lists
  them all, and an unknown name raises AttributeError.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import hassemine

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _loaded_after(code: str) -> set[str]:
    """The package's modules that a fresh interpreter holds after `code`."""
    report = "\nimport sys\nprint(*(m for m in sys.modules if m.startswith('hassemine')))"
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code + report],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    return set(out.split())


def test_import_loads_no_submodule():
    assert _loaded_after("import hassemine") == {"hassemine"}
    loaded = _loaded_after("import hassemine\nhassemine.LabelTable")
    assert loaded == {"hassemine", "hassemine.graphs", "hassemine.errors"}


def test_simulate_loads_no_mining(tmp_path):
    out = tmp_path / "episodes.jsonl"
    loaded = _loaded_after(
        "from hassemine.cli import main\n"
        f"assert main(['simulate', '--version', '2', '--episodes', '3', '--out', {str(out)!r}]) == 0"
    )
    assert "hassemine.game" in loaded
    assert not loaded & {"hassemine.mining", "hassemine.baselines", "hassemine.enumeration"}
    assert out.read_text().count("\n") == 4


def test_mine_loads_no_enumeration(tmp_path):
    from hassemine.cli import main

    episodes = str(tmp_path / "episodes.jsonl")
    assert main(["simulate", "--version", "2", "--episodes", "8", "--out", episodes]) == 0
    argv = ["mine", "--in", episodes, "--labels", "e1,e2,e5,e6,e11", "--t", "90", "--r", "2"]
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from hassemine.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as payload:\n"
        f"    assert main({argv!r}) == 0\n"
        "assert payload.getvalue().startswith('{')"
    )
    assert "hassemine.mining" in loaded
    assert not loaded & {"hassemine.enumeration", "hassemine.baselines"}


def test_baseline_loads_no_mining(tmp_path):
    from hassemine.cli import main

    episodes = str(tmp_path / "episodes.jsonl")
    assert main(["simulate", "--version", "2", "--episodes", "8", "--out", episodes]) == 0
    out = tmp_path / "matrices"
    argv = ["baseline", "--algo", "hier", "--in", episodes, "--labels", "e1,e2,e5,e6,e11",
            "--threshold", "2", "--out", str(out)]
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from hassemine.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as table:\n"
        f"    assert main({argv!r}) == 0\n"
        "assert table.getvalue().startswith('index,cluster')"
    )
    assert "hassemine.baselines" in loaded
    assert not loaded & {"hassemine.mining", "hassemine.estimators", "hassemine.enumeration"}
    assert (out / "cluster_0.csv").exists()


def test_namespace_lists_and_binds_every_public_name():
    assert set(hassemine.__all__) <= set(dir(hassemine))
    assert len(set(hassemine.__all__)) == len(hassemine.__all__)
    namespace: dict = {}
    exec("from hassemine import *", namespace)
    assert set(hassemine.__all__) <= set(namespace)
    from hassemine import mining

    assert namespace["hasse_cluster"] is mining.hasse_cluster
    with pytest.raises(AttributeError, match="no_such_name"):
        hassemine.no_such_name
    with pytest.raises(ImportError):
        exec("from hassemine import no_such_name", {})
