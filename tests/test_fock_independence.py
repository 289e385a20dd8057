"""Import-graph checks between the floating-point and the exact engines.

One direction is lint-style: the Fock engine imports nothing from the exact
symbolic engine.  The Fock matrices and the exact operators are cross-checked
against each other, which proves something only while neither side is derived
from the other.  The Hermite map that joins them lives in ``tests/hermite.py``.

The other direction runs fresh interpreters.  Only ``fock.build_fock`` uses
numpy, which the ``fock`` layer loads on first use, not at import, so importing
the exact layer, running the README's library example, ``import bateman.cli``,
every subcommand (``all`` among them), ``bateman --help`` and a configuration
error all leave numpy's code unrun, while ``import bateman.cli`` still loads
every layer the benchmark tracer looks up in ``sys.modules``.  The classical
layer's outputs match pinned digests with numpy unrun, and ``bateman all``
gives the same results, byte for byte, whether numpy was imported beforehand
or not, on one OS thread and whatever the BLAS thread settings.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bateman"
EXACT_MODULES = {"field", "operators", "vacuum", "series"}
# numpy's own code has run once any of its submodules is loaded; ``"numpy" in
# sys.modules`` alone is no test, since a lazily loaded numpy sits there unrun.
NUMPY_RAN = "any(m.startswith('numpy.') for m in sys.modules)"


def imported_modules(source: str) -> set[str]:
    """Names of the bateman modules a source file imports, however spelled."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name.split(".") for alias in node.names]
            found.update(path[1] for path in paths if path[0] == "bateman" and len(path) > 1)
        elif isinstance(node, ast.ImportFrom):
            path = node.module.split(".") if node.module else []
            if node.level == 0:
                if path[:1] != ["bateman"]:
                    continue
                path = path[1:]
            found.update(path[:1] or [alias.name for alias in node.names])
    return found


def test_fock_imports_nothing_from_the_exact_engine():
    assert imported_modules((SRC / "fock.py").read_text()) & EXACT_MODULES == set()


def test_import_check_sees_every_spelling():
    source = (
        "import math\n"
        "import numpy as np\n"
        "from fractions import Fraction\n"
        "from .field import Coeff\n"
        "from . import operators\n"
        "from .radicals import prime_sieve\n"
        "import bateman.vacuum\n"
        "from bateman.series import raabe_test\n"
    )
    assert imported_modules(source) == {"field", "operators", "radicals", "vacuum", "series"}


def run_fresh(code: str, env: dict[str, str] | None = None) -> list[str]:
    """The stdout lines of ``code`` run in a fresh interpreter with ``src`` on
    the path, in ``env`` (default: this process's environment)."""
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**(os.environ if env is None else env), "PYTHONPATH": str(SRC.parent)},
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.splitlines()


def readme_library_example() -> str:
    readme = (ROOT / "README.md").read_text()
    return re.search(r"## Library example\n+```python\n(.*?)```", readme, re.S).group(1)


def test_exact_layer_imports_leave_numpy_unrun():
    code = f"import sys; from bateman import classical, field, operators, radicals, vacuum; print({NUMPY_RAN})"
    assert run_fresh(code) == ["False"]


def test_readme_library_example_leaves_numpy_unrun():
    example = readme_library_example()
    assert "BatemanParams" in example and "gaussian_ansatz_solve" in example
    lines = run_fresh(f"import sys\n{example}\nprint({NUMPY_RAN})")
    assert lines[-1] == "False"
    assert "False" in lines[:-1]  # the example ran: ``report.solvable`` printed


# Prints whether numpy's code ran after ``import bateman.cli``, runs
# ``bateman.cli.main`` (the ``bateman`` console script) on ``{argv}``, then
# prints its exit code and whether numpy's code ran.
CLI_RUN = f"""\
import sys
{{prelude}}
from bateman.cli import main
print({NUMPY_RAN})
try:
    code = main({{argv}})
except SystemExit as exc:
    code = exc.code
print(code, {NUMPY_RAN})
"""


@pytest.mark.parametrize("argv, code", [
    (["counterexample"], 0),
    (["--help"], 0),
    (["all", "--kmax", "5"], 2),
    (["vacuum", "--cutoffs", "8,16,24,32,40"], 0),
    (["classical"], 0),
    (["all"], 0),
    (["commutators"], 0),
    (["hamiltonian"], 0),
    (["squeeze", "--cutoffs", "16,512"], 0),
], ids=["counterexample", "help", "config-error", "vacuum", "classical", "all", "commutators",
        "hamiltonian", "squeeze"])
def test_numpy_free_commands_leave_numpy_unrun(tmp_path, argv, code):
    lines = run_fresh(CLI_RUN.format(prelude="", argv=[*argv, "--out", str(tmp_path)]))
    assert lines[0] == "False" and lines[-1] == f"{code} False"


def test_no_layer_loads_dataclasses_or_inspect(tmp_path):
    # every record is a NamedTuple (Trajectory a plain class), so no process
    # pays for importing dataclasses, with inspect, ast, dis and tokenize
    # behind it, or for the methods it generates per class; the exact layers
    # are what perfbench's in-process exact-ops jobs import
    loaded = "[m for m in ('dataclasses', 'inspect') if m in sys.modules]"
    exact = run_fresh(
        f"import sys; from bateman import classical, field, operators, vacuum; print({loaded})"
    )
    cli = run_fresh(
        f"import sys; import bateman.cli; print({loaded}); "
        f"code = bateman.cli.main(['all', '--out', {str(tmp_path)!r}]); print(code, {loaded})"
    )
    assert exact == ["[]"] and (cli[0], cli[-1]) == ("[]", "0 []")


def test_cli_import_loads_every_traced_layer():
    # perfbench/tracer.py finds each layer of its SPANNED table in sys.modules
    # after ``import bateman.cli``
    code = (
        f"import sys; sys.path.insert(0, {str(ROOT / 'perfbench')!r})\n"
        "from tracer import SPANNED\n"
        "import bateman.cli\n"
        "print(len(SPANNED), sorted(layer for layer in SPANNED if f'bateman.{layer}' not in sys.modules))"
    )
    count, missing = run_fresh(code)[0].split(" ", 1)
    assert int(count) >= 8 and missing == "[]"


# The default run's classical outputs, printed exactly: digests of the samples
# (the times, then the states row by row) and of the CSV, reprs of the float
# results, and whether numpy's code ran.
CLASSICAL_OUTPUTS = f"""\
import sys
from bateman.classical import (
    BatemanParams, PhaseState, eom_residual, hamiltonian_consistency, integrate_eom,
    trajectory_csv,
)
import hashlib
import io
from array import array
from fractions import Fraction
from itertools import chain
p = BatemanParams.from_omega(1, Fraction(1, 5), 1)
traj = integrate_eom(p, PhaseState.from_velocities(p, x=1.0, xdot=0.0, y=0.5, ydot=0.0), 10.0, 1e-3)
rows = array("d", chain.from_iterable(zip(*traj.states)))
print(hashlib.sha256(traj.times.tobytes() + rows.tobytes()).hexdigest())
print(repr(hamiltonian_consistency(traj)))
print(repr(eom_residual(traj)))
csv = io.StringIO()
trajectory_csv(traj, csv)
print(hashlib.sha256(csv.getvalue().encode()).hexdigest())
print({NUMPY_RAN})
"""


def test_classical_outputs_run_no_numpy():
    # the digests and values the layer gave when it computed with numpy
    assert run_fresh(CLASSICAL_OUTPUTS) == [
        "379403214535761bbec2c6d081e426b528d2867a0d29ce7a59906092b68de02b",
        "HamiltonianConsistency(max_drift=3.4416913763379853e-15, initial_energy=0.505)",
        "EomResiduals(damped=8.165281228933452e-08, amplified=1.1369952446216303e-07)",
        "7da54d0d076beb0f7840e5d65d08350520ce0201f027d13a720185bcbbfa69c3",
        "False",
    ]


ALL_OUTPUTS = [
    "null_experiment_bosonic.csv", "null_experiment_pseudo.csv", "raabe.csv",
    "report_all.json", "squeeze_norms.csv", "trajectory.csv",
]


def test_deferred_numpy_gives_the_same_cli_outputs(tmp_path):
    # ``bateman all`` with numpy left unrun, and with numpy imported before
    # ``bateman.cli``
    outputs = {}
    for side, prelude in (("lazy", ""), ("eager", "import numpy")):
        out = tmp_path / side
        lines = run_fresh(CLI_RUN.format(prelude=prelude, argv=["all", "--out", str(out)]))
        ran = str(side == "eager")
        assert (lines[0], lines[-1]) == (ran, f"0 {ran}")
        assert sorted(path.name for path in out.iterdir()) == ALL_OUTPUTS
        outputs[side] = lines[1:-1], [(out / name).read_bytes() for name in ALL_OUTPUTS]
    assert outputs["lazy"] == outputs["eager"]


# Runs ``bateman.cli.main`` on ``{argv}`` after ``{prelude}``, then prints as
# JSON its exit code, whether ``os.environ`` is unchanged, the three BLAS
# thread variables and the process's OS thread count (None without /proc).
BLAS_RUN = """\
import json
import os
{prelude}
from bateman.cli import main
BLAS_THREAD_VARS = {blas_vars!r}
before = dict(os.environ)
code = main({argv})
task = "/proc/self/task"
threads = len(os.listdir(task)) if os.path.isdir(task) else None
print(json.dumps([code, dict(os.environ) == before,
                  [os.environ.get(name) for name in BLAS_THREAD_VARS], threads]))
"""
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
FAST_ALL = ["all", "--kmax", "50", "--cutoffs", "16,32"]


def run_blas(out, prelude: str = "", **blas: str) -> list:
    """BLAS_RUN's result for a short ``bateman all`` in a fresh interpreter
    whose only BLAS thread settings are ``blas``."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    argv = [*FAST_ALL, "--out", str(out)]
    code = BLAS_RUN.format(prelude=prelude, argv=argv, blas_vars=BLAS_THREAD_VARS)
    return json.loads(run_fresh(code, env={**env, **blas})[-1])


def test_cli_runs_blas_on_one_thread_by_default(tmp_path):
    # no BLAS runs, so ``all`` sets no thread count and starts no thread
    code, unchanged, values, threads = run_blas(tmp_path)
    assert (code, unchanged, values) == (0, True, [None, None, None])
    if threads is None:
        pytest.skip("no /proc/self/task on this platform")
    assert threads == 1


def test_cli_keeps_a_blas_thread_count_the_caller_set(tmp_path):
    assert run_blas(tmp_path, OPENBLAS_NUM_THREADS="2")[:3] == [0, True, ["2", None, None]]


def test_cli_leaves_the_environment_alone_once_numpy_has_run(tmp_path):
    assert run_blas(tmp_path, prelude="import numpy")[:3] == [0, True, [None, None, None]]
