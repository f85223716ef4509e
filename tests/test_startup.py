"""No path of the package loads scipy: the package needs numpy alone.

The closed forms and the entropy chain never solve an SDP, the SDP solver
factors its Newton systems with numpy, and the state search runs its own
BFGS.  Importing scipy.linalg, the last scipy module a solve loaded, cost a
cold state search about half its set-up time and a third of its peak memory
(``BENCH_28.json``).  Each case runs in a fresh interpreter, because the test
process itself has long since imported scipy (the tests use it as an oracle).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from qmrand import jsonio
from qmrand.povm import Povm, noisy_projective

SRC = Path(__file__).resolve().parents[1] / "src"

_REPORT = """
import json, sys
print(json.dumps(sorted(name for name, module in sys.modules.items()
                        if name.split(".")[0] == "scipy" and module is not None)))
"""


def loaded_after(code: str) -> list:
    """The scipy modules a fresh interpreter holds after ``code``, sorted."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code + _REPORT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_cli(argv) -> str:
    """Code that runs ``qmrand.cli.main(argv)`` with its output swallowed."""
    return (
        "import contextlib, io\n"
        "from qmrand import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.main({argv!r}) == 0\n"
    )


NO_SCIPY = []


_SOLVE = (
    "from qmrand.povm import noisy_projective, unbiased_state\n"
    "from qmrand.sdp import solve_primal\n"
    "solve_primal(noisy_projective(2, 0.3), unbiased_state(2))\n"
)


def _search_argv(tmp_path) -> list:
    """``compute --minimize-state`` on noisy_projective(2, 0.3), its files under ``tmp_path``."""
    povm = tmp_path / "povm.json"
    povm.write_text(json.dumps(jsonio.povm_to_json(noisy_projective(2, 0.3))))
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"multistarts": 0}))
    return ["compute", str(povm), "--minimize-state", "--solver-config", str(config)]


def test_import_loads_no_scipy():
    assert loaded_after("import qmrand, qmrand.cli\n") == NO_SCIPY


def test_entropies_load_no_scipy():
    assert loaded_after(run_cli(["entropies", "3", "--points", "5"])) == NO_SCIPY


def test_closed_form_compute_loads_no_scipy(tmp_path):
    for name, povm in [("np.json", noisy_projective(3, 0.2)),
                       ("qubit.json", Povm((np.diag([0.9, 0.2]), np.diag([0.1, 0.8]))))]:
        path = tmp_path / name
        path.write_text(json.dumps(jsonio.povm_to_json(povm)))
        assert loaded_after(run_cli(["compute", str(path)])) == NO_SCIPY


def test_fixed_state_solve_loads_no_scipy():
    assert loaded_after(_SOLVE) == NO_SCIPY


def test_state_search_loads_no_scipy(tmp_path):
    assert loaded_after(run_cli(_search_argv(tmp_path))) == NO_SCIPY


def test_solves_run_without_scipy(tmp_path):
    # scipy made unimportable: any import of it, even one whose module is dropped
    # again, fails the run
    code = "import sys\nsys.modules['scipy'] = None\n" + _SOLVE + run_cli(_search_argv(tmp_path))
    assert loaded_after(code) == NO_SCIPY

