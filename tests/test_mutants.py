"""Mutant table: one-line faults that the program's own report must catch.

Each entry names a module of ``bateman``, an exact one-line text that occurs
there once, its replacement, the subcommand (with arguments) that runs the
affected checks, and the check ids that must turn ``fail``.  The test copies
``src`` to a temporary directory, applies the replacement there and runs
``python -m bateman.cli`` on the copy in a subprocess: it must exit 1 with
every named check at ``fail``.  A ``pass`` that a broken program cannot turn
into a ``fail`` certifies nothing (mutation analysis: DeMillo, Lipton &
Sayward, IEEE Computer 11(4), 1978).

Cost: one subprocess per entry, 0.19-0.22 s each on 2 vCPUs (no subcommand
runs numpy code), so the 13 entries add about 2.7 s to the Tier-1 suite.  An
entry runs its area's subcommand, not ``all``, to keep it that way.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


class Mutant(NamedTuple):
    name: str
    module: str
    old: str
    new: str
    argv: tuple[str, ...]
    fails: tuple[str, ...]


MUTANTS = (
    Mutant(
        "pseudo-interaction-identity-sign", "operators.py",
        "+ LinDiffOp.identity(2)", "- LinDiffOp.identity(2)",
        ("hamiltonian",), ("hamiltonian-forms-symbolic",),
    ),
    Mutant(
        "B1-weight-sign", "operators.py",
        '"B1": (0, 1, 1, 0),', '"B1": (0, 1, -1, 0),',
        ("hamiltonian",), ("hamiltonian-forms-symbolic",),
    ),
    Mutant(
        # the step's denominator 2k+2 read as 2k+4; the telescoping identity
        # of the partial sums pins the step, so that check fails too
        "squeeze-terms-step", "series.py",
        "Step(num=(1, 2), den=(2, 2))", "Step(num=(1, 2), den=(4, 2))",
        ("squeeze", "--kmax", "50", "--cutoffs", "16,32"),
        ("squeeze-series-ratio-test", "squeeze-factored-amplitudes",
         "squeeze-series-partial-sums"),
    ),
    Mutant(
        # every term doubled: Raabe's quantity does not see the start, the
        # base case S_1^2 = 9/2 of the partial sums does
        "squeeze-series-start", "series.py",
        "SQUEEZE_START = SQRT2", "SQUEEZE_START = SQRT2 * 2",
        ("squeeze", "--kmax", "50", "--cutoffs", "16,32"),
        ("squeeze-factored-amplitudes", "squeeze-series-partial-sums"),
    ),
    Mutant(
        "squeeze-factored-step", "fock.py",
        "(2 * k + 1) * (2 * k + 2)", "(2 * k + 1) * (2 * k + 3)",
        ("squeeze", "--kmax", "50", "--cutoffs", "16,32"), ("squeeze-factored-amplitudes",),
    ),
    Mutant(
        "rotated-form-h-sign", "classical.py",
        "(mw2, 0, 0, -h),", "(mw2, 0, 0, h),",
        ("classical",), ("classical-energy-forms",),
    ),
    Mutant(
        # classical-eom-residuals already fails at gamma 10 (its absolute tolerance)
        "rotated-form-h-sign-gamma-10", "classical.py",
        "(mw2, 0, 0, -h),", "(mw2, 0, 0, h),",
        ("classical", "--gamma", "10"), ("classical-energy-forms",),
    ),
    Mutant(
        "mixed-form-c", "classical.py",
        "params.gamma**2 / (4 * params.m)", "params.gamma**2 / (2 * params.m)",
        ("classical",), ("classical-eom-residuals", "classical-energy-forms"),
    ),
    Mutant(
        # one block term of the plain-float RK4 step dropped; a mutant of an
        # entry outside the two blocks would change nothing, as it is zero
        "rk4-step-x-term", "classical.py",
        "x + (xx * x + xpy * py),", "x + xpy * py,",
        ("classical",), ("classical-eom-residuals", "classical-energy-drift"),
    ),
    Mutant(
        # the damping term of the damped equation with the amplified one's sign
        "damped-residual-gamma-sign", "classical.py",
        "+ g * xdot + k * x1)", "- g * xdot + k * x1)",
        ("classical",), ("classical-eom-residuals",),
    ),
    Mutant(
        # the a1^T coefficient sqrt(n1 + 1) read as sqrt(n1); a1's sqrt(n1) is unchanged
        "fock-raising-coefficient", "fock.py",
        "levels = (n1, n2, n1 + 1, n2 + 1)", "levels = (n1, n2, n1, n2 + 1)",
        ("commutators",), ("pseudo-commutator-fock-residuals",),
    ),
    Mutant(
        # a1 a2 + a1^dag a2^dag in the bosonic interaction
        "fock-bosonic-interaction-sign", "fock.py",
        "g2m * (p[2] - p[3])", "g2m * (p[2] + p[3])",
        ("hamiltonian",), ("hamiltonian-forms-fock",),
    ),
    Mutant(
        # the p_y row of s . Q s dropped from the plain-float energy
        "energy-py-term", "classical.py",
        "+ px * (nh * x + inv_m * py) + py * (h * y + inv_m * px))",
        "+ px * (nh * x + inv_m * py))",
        ("classical",), ("classical-energy-drift",),
    ),
)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_fails_its_checks(mutant, tmp_path):
    src = tmp_path / "src"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    path = src / "bateman" / mutant.module
    text = path.read_text()
    assert text.count(mutant.old) == 1, mutant.old
    path.write_text(text.replace(mutant.old, mutant.new))
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "bateman.cli", *mutant.argv, "--format", "json", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(src)},
        cwd=tmp_path,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1, proc.stderr
    report = json.loads((out / f"report_{mutant.argv[0]}.json").read_text())
    status = {c["check"]: c["status"] for c in report["checks"]}
    assert all(status[check] == "fail" for check in mutant.fails), status
