"""scipy is imported by the four functions that use it, not with the package:
``import randcube`` and the CLI commands that need no scipy load none of it,
and ``limits.ordered_map`` imports those same modules, all but the
ball_cover-only ``scipy.spatial``, once before forking its workers, so no
worker imports them again.  Every case but the source scan runs in a fresh
interpreter."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "randcube"

LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def _fresh(code: str, cwd: Path = ROOT):
    """Run ``code`` in a fresh interpreter and return the JSON value of the
    last line it prints."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + code],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_scipy():
    assert _fresh(f"""
import randcube, randcube.cli, randcube.verify
print(json.dumps({LOADED_SCIPY}))
""") == []


def test_sample_and_diagram_of_a_lower_window_load_no_scipy(tmp_path):
    config = {"schema_version": 1,
              "model": {"kind": "lower", "d": 2,
                        "mark": {"family": "uniform", "params": [0.0, 1.0]}},
              "n": 2, "trials": 1, "seed": 5}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert _fresh(f"""
from randcube import cli
loaded = []
assert cli.main(["sample", "--config", "config.json", "--out", "dumps"]) == 0
loaded.append({LOADED_SCIPY})
assert cli.main(["diagram", "--filtration", "dumps/filtration_trial0000.txt",
                 "--out", "diagrams"]) == 0
loaded.append({LOADED_SCIPY})
print(json.dumps(loaded))
""", cwd=tmp_path) == [[], []]
    assert (tmp_path / "diagrams" / "filtration_trial0000.diagram.txt").exists()


def test_ball_cover_sampling_and_component_count_load_their_scipy_module():
    assert _fresh("""
from randcube.models import DistributionSpec, ModelSpec, sample
from randcube.persistence import persistent_betti_0
law = DistributionSpec("uniform", (-0.25, 0.25))
filt = sample(ModelSpec("ball_cover", 2, perturbation=law, m_grid=3), 1, 0, 0)
spatial = "scipy.spatial" in sys.modules
before = "scipy.ndimage" in sys.modules
persistent_betti_0(filt, 0.5, 0.5)
print(json.dumps([spatial, before, "scipy.ndimage" in sys.modules]))
""") == [True, False, True]


def test_forked_workers_find_scipy_already_imported():
    seen = _fresh("""
import os
from randcube.limits import ordered_map

def loaded(parent):
    return os.getpid() != parent, "scipy.ndimage" in sys.modules

before = "scipy.ndimage" in sys.modules
print(json.dumps([before, ordered_map(loaded, [os.getpid()] * 4, 2)]))
""")
    assert seen == [False, [[True, True]] * 4]


def _scipy_modules(node: ast.stmt) -> list[str]:
    """The scipy modules an import statement loads (``from scipy import x``
    loads the submodule ``scipy.x``)."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0:
        names = ([f"scipy.{alias.name}" for alias in node.names]
                 if node.module == "scipy" else [node.module])
    else:
        return []
    return [name for name in names if name.split(".")[0] == "scipy"]


def _scipy_imports(tree: ast.AST) -> list[tuple[str, str | None]]:
    """(module, enclosing function or None) for each scipy import that runs;
    an ``if TYPE_CHECKING:`` block runs only under a type checker."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and ast.unparse(child.test) == "TYPE_CHECKING":
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            found.extend((module, function) for module in _scipy_modules(child))
            visit(child, function)

    visit(tree, None)
    return found


def test_scipy_is_imported_only_inside_functions_and_preloaded_before_forking():
    at_module_level, deferred, preloaded = [], set(), set()
    for path in sorted(SRC.glob("*.py")):
        for module, function in _scipy_imports(ast.parse(path.read_text())):
            if function is None:
                at_module_level.append(f"{path.name}: {module}")
            elif function == "ordered_map":
                preloaded.add(module)
            else:
                deferred.add(module)
    assert at_module_level == []
    assert deferred == {"scipy.ndimage", "scipy.sparse", "scipy.spatial",
                        "scipy.special"}
    # scipy.spatial serves ball_cover sampling only, which verify never
    # runs: the workers that sample ball_cover import it themselves, in
    # parallel, rather than every parallel run importing it up front
    assert preloaded == deferred - {"scipy.spatial"}
