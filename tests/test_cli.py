import contextlib
import gc
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tomllib
import warnings
from fractions import Fraction
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import bateman
import bateman.cli
import bateman.fock
from bateman.classical import BatemanParams, EomResiduals, _rk4_increment, motion_matrix
from bateman.cli import (
    CHECKS, CSVS, DRIFT_ORDER_STEPS, RUNNERS, Artifacts, Table, build_parser, config_from_args,
    main,
)
from bateman.fock import NULL_CUTOFF_LIMIT, SQUEEZE_CUTOFF_LIMIT
from bateman.reporting import jsonable
from bateman.series import RAABE_KMAX_LIMIT

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "docs" / "report_schema.json"


def run_cli(args):
    return main(args)


def test_counterexample_report(tmp_path):
    code = run_cli(["counterexample", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "report_counterexample.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["failures"] == 0
    checks = {c["check"]: c for c in doc["checks"]}
    mode1 = checks["counterexample-mode1"]
    assert mode1["status"] == "pass"
    assert "(-1)*x2" in mode1["payload"]["applied"]
    branches = checks["counterexample-branches"]["payload"]["branches"]
    assert set(branches) == {"abar1minus", "abar2minus", "abar1plus", "abar2plus"}
    assert all(not b["is_zero"] for b in branches.values())


def test_vacuum_report_and_csvs(tmp_path):
    code = run_cli(["vacuum", "--out", str(tmp_path), "--cutoffs", "8,12"])
    assert code == 0
    doc = json.loads((tmp_path / "report_vacuum.json").read_text())
    checks = {c["check"]: c for c in doc["checks"]}
    assert checks["ansatz-pseudo-lowering"]["status"] == "pass"
    assert checks["ansatz-pseudo-lowering"]["payload"]["inconsistent_equations"]
    assert checks["multiplication-certificates"]["status"] == "pass"
    sweep = checks["null-vector-sweep"]
    assert sweep["status"] == "report-only"
    assert sweep["payload"]["pseudo_strictly_decreasing"] is True
    pseudo_csv = (tmp_path / "null_experiment_pseudo.csv").read_text()
    assert pseudo_csv.startswith("cutoff,sigma_min,tail_mass")


def test_commutators_report(tmp_path):
    code = run_cli(["commutators", "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "report_commutators.json").read_text())
    checks = {c["check"]: c for c in doc["checks"]}
    table = checks["pseudo-commutator-table"]["payload"]["table"]
    assert len(table) == 16
    assert checks["pseudo-commutator-fock-residuals"]["payload"]["max_residual"] < 1e-10


def test_classical_csv(tmp_path):
    code = run_cli(["classical", "--out", str(tmp_path), "--format", "csv"])
    assert code == 0
    assert not (tmp_path / "report_classical.json").exists()
    text = (tmp_path / "trajectory.csv").read_text()
    assert text.splitlines()[0] == "t,x,y,p_x,p_y,H"


def test_squeeze_report_fast_config(tmp_path):
    code = run_cli(["squeeze", "--out", str(tmp_path), "--kmax", "50", "--cutoffs", "16,32"])
    assert code == 0
    doc = json.loads((tmp_path / "report_squeeze.json").read_text())
    checks = {c["check"]: c for c in doc["checks"]}
    assert checks["squeeze-series-ratio-test"]["payload"]["verdict"] == "divergent"
    assert checks["squeeze-truncated-norms"]["payload"]["strictly_increasing"] is True
    raabe = (tmp_path / "raabe.csv").read_text().splitlines()
    assert raabe[0] == "k,rho,S_k"
    assert len(raabe) == 51


def test_factored_amplitudes_payload_at_the_defaults(tmp_path):
    # the signed squares (-1)^k C(2k, k)/4^k, each held to sqrt2 |q_k| = a_k
    art = Artifacts(config_from_args(build_parser().parse_args(["squeeze", "--out", str(tmp_path)])))
    (check,) = [c for c in CHECKS if c.id == "squeeze-factored-amplitudes"]
    ok, payload = check.fn(art)
    assert ok is True
    assert payload == {
        "kmax": 50,
        "first_signed_squares": ["1", "-1/2", "3/8", "-5/16", "35/128", "-63/256"],
    }


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_squeeze_report_strict_json_past_float_range(tmp_path):
    # at cutoff 512 the truncated norm and amplitude gaps exceed the float range
    code = run_cli(["squeeze", "--out", str(tmp_path), "--cutoffs", "16,512", "--kmax", "10"])
    assert code == 0
    doc = json.loads(
        (tmp_path / "report_squeeze.json").read_text(), parse_constant=_reject_constant
    )
    jsonschema.validate(doc, json.loads(SCHEMA_PATH.read_text()))
    checks = {c["check"]: c for c in doc["checks"]}
    assert checks["squeeze-series-partial-sums"]["payload"]["analytic_exponent"] == 0.5
    payload = checks["squeeze-truncated-norms"]["payload"]
    assert payload["norms"][0] > 1 and payload["norms"][1] is None
    assert payload["amplitude_gaps_vs_factored"][1] == [None] * 4
    assert "null_reason" in payload
    assert payload["strictly_increasing"] is True
    norms_csv = (tmp_path / "squeeze_norms.csv").read_text().splitlines()
    assert norms_csv[2].startswith("512,,")


def test_report_payloads_refuse_values_json_cannot_hold():
    # an array or a complex would otherwise reach the report as a lossy string,
    # and a record as a positional list that has lost its field names
    for value in (np.arange(2), 1j, {"sigma": [0.5, np.arange(2)]}, EomResiduals(0.5, 0.25),
                  {"residuals": [EomResiduals(0.5, 0.25)]}):
        with pytest.raises(TypeError):
            jsonable(value)
    # numpy's float64 is a float
    assert jsonable({"x": [np.float64(0.5), Fraction(1, 3), None]}) == {"x": [0.5, "1/3", None]}


def test_drift_order_measured_above_rounding_floor(tmp_path):
    assert run_cli(["classical", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "report_classical.json").read_text())
    checks = {c["check"]: c for c in doc["checks"]}
    payload = checks["classical-drift-order"]["payload"]
    assert payload["dt"] == [2e-2, 1e-2]
    assert abs(payload["ratio"] - 32.0) < 1.0
    # pointwise RK4 error against the closed form: O(dt^4) at dt = 1e-3
    envelopes = checks["classical-envelopes"]["payload"]
    assert 0 < envelopes["max_error_x"] < 1e-11
    assert 0 < envelopes["max_error_y"] < 1e-11


def test_json_reports_are_byte_deterministic(tmp_path):
    out1 = tmp_path / "one"
    out2 = tmp_path / "two"
    for args in (
        ["vacuum", "--out", str(out1), "--cutoffs", "8,12"],
        ["vacuum", "--out", str(out2), "--cutoffs", "8,12"],
    ):
        assert run_cli(args) == 0
    assert (out1 / "report_vacuum.json").read_bytes() == (out2 / "report_vacuum.json").read_bytes()
    assert (out1 / "null_experiment_pseudo.csv").read_bytes() == (
        out2 / "null_experiment_pseudo.csv"
    ).read_bytes()


def test_kmax_zero_rejected(tmp_path, capsys):
    # series.check_kmax alone states the floor, for zero and negative depths too
    for kmax in ("0", "-1", "9"):
        assert run_cli(["squeeze", "--kmax", kmax, "--out", str(tmp_path)]) == 2
        assert "configuration error: kmax must be between 10 and" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_error_inside_a_check_is_not_a_configuration_error(tmp_path, capsys, monkeypatch):
    # the configuration was accepted, so a check that raises shows a defect in
    # the program: exit 1, not the exit 2 of a configuration error
    # a series whose start is zero: the growth certificate refuses it
    growth = bateman.cli.partial_sum_growth
    monkeypatch.setattr(
        bateman.cli,
        "partial_sum_growth",
        lambda checkpoints: growth(checkpoints, start=bateman.series.SQUEEZE_START * 0),
    )
    assert run_cli(["squeeze", "--kmax", "10", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "internal error: the start a_0 is not positive" in err
    assert "configuration error" not in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit) as err:
        run_cli(["spectral"])
    assert err.value.code == 2


def test_inconsistent_omega_and_spring_rejected(tmp_path):
    code = run_cli(
        ["classical", "--out", str(tmp_path), "--k-spring", "2", "--omega", "1"]
    )
    assert code == 2


def test_consistent_omega_and_spring_accepted(tmp_path):
    code = run_cli(
        ["classical", "--out", str(tmp_path), "--k-spring", "101/100", "--omega", "1"]
    )
    assert code == 0


def _symbolic_hamiltonian_check(tmp_path, *options):
    assert run_cli(["hamiltonian", "--out", str(tmp_path), *options]) == 0
    doc = json.loads((tmp_path / "report_hamiltonian.json").read_text())
    return next(c for c in doc["checks"] if c["check"] == "hamiltonian-forms-symbolic")


def test_irrational_omega_with_spring_only(tmp_path):
    # k = 2 gives omega = sqrt(2), which no exact build takes: the classical
    # layer and the float-matrix checks still run, and the symbolic check,
    # which compares parameter-free parts, covers this omega too
    assert run_cli(["classical", "--out", str(tmp_path), "--k-spring", "2"]) == 0
    entry = _symbolic_hamiltonian_check(tmp_path, "--k-spring", "2")
    assert entry["status"] == "pass"
    assert entry["payload"] == {"free_equal": True, "interaction_equal": True}


def test_symbolic_hamiltonian_check_compares_both_parts(tmp_path):
    entry = _symbolic_hamiltonian_check(tmp_path)
    assert entry["status"] == "pass"
    assert entry["payload"] == {"free_equal": True, "interaction_equal": True}
    assert "for every m, gamma and omega" in entry["claim"]


@pytest.mark.parametrize(
    "option", [["--theta", "nan"], ["--theta", "inf"], ["--tol", "0"], ["--tol=-1e-10"]]
)
def test_non_finite_or_non_positive_floats_rejected(option):
    with pytest.raises(SystemExit) as err:
        run_cli(["vacuum", *option])
    assert err.value.code == 2


def test_low_kmax_rejected_by_protocol():
    assert run_cli(["squeeze", "--kmax", "5"]) == 2


def test_report_validates_against_schema(tmp_path):
    assert run_cli(["commutators", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "report_commutators.json").read_text())
    schema = json.loads(SCHEMA_PATH.read_text())
    jsonschema.validate(doc, schema)


def test_parser_defaults():
    args = build_parser().parse_args(["all"])
    cfg = config_from_args(args)
    assert cfg.m == 1
    assert str(cfg.gamma) == "1/5"
    assert cfg.omega == 1
    assert cfg.kmax == 1000
    assert cfg.fmt == "both"
    assert abs(cfg.theta - 7 * 3.141592653589793 / 8) < 1e-12


SUBCOMMANDS = ("counterexample", "vacuum", "commutators", "hamiltonian", "squeeze", "classical",
               "all")
# the options block every subcommand's -h printed with one option table per
# subparser, at 80 columns
OPTIONS_HELP = """options:
  -h, --help            show this help message and exit
  --m M                 mass (exact rational)
  --gamma GAMMA         friction (exact rational)
  --k-spring K_SPRING   spring constant (exact rational), used by every layer;
                        must agree with --omega when both are given
  --omega OMEGA         rotated-mode frequency (exact rational, default 1
                        unless --k-spring is given)
  --theta THETA         squeeze exponent parameter (default 7*pi/8)
  --cutoffs CUTOFFS     comma-separated increasing cutoffs for the sweeps
  --kmax KMAX           ratio-test depth
  --tol TOL             residual tolerance
  --out OUT             output directory
  --format {json,csv,both}
                        report format(s) to write
"""


@pytest.mark.parametrize("subcommand", SUBCOMMANDS)
def test_shared_option_table_keeps_help_and_namespace(subcommand, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    parser = build_parser()
    subparser = parser._subparsers._group_actions[0].choices[subcommand]
    usage, options = subparser.format_help().split("\n\n")
    assert " ".join(usage.split()) == (
        f"usage: bateman {subcommand} [-h] [--m M] [--gamma GAMMA] [--k-spring K_SPRING] "
        "[--omega OMEGA] [--theta THETA] [--cutoffs CUTOFFS] [--kmax KMAX] [--tol TOL] "
        "[--out OUT] [--format {json,csv,both}]"
    )
    assert options == OPTIONS_HELP
    args = parser.parse_args([subcommand, "--m", "3/2", "--gamma", "1/10", "--omega", "2",
                              "--theta", "0.5", "--cutoffs", "8,16", "--kmax", "200",
                              "--tol", "1e-9", "--out", "o", "--format", "json"])
    assert list(vars(args).items()) == [
        ("subcommand", subcommand), ("m", Fraction(3, 2)), ("gamma", Fraction(1, 10)),
        ("k_spring", None), ("omega", Fraction(2)), ("theta", 0.5), ("cutoffs", (8, 16)),
        ("kmax", 200), ("tol", 1e-9), ("out", Path("o")), ("fmt", "json"),
    ]
    assert list(vars(parser.parse_args([subcommand])).items()) == [
        ("subcommand", subcommand), ("m", Fraction(1)), ("gamma", Fraction(1, 5)),
        ("k_spring", None), ("omega", None), ("theta", 7 * math.pi / 8), ("cutoffs", None),
        ("kmax", 1000), ("tol", 1e-10), ("out", Path(".")), ("fmt", "both"),
    ]


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # scipy is a test oracle only: neither the import nor a full run loads it
    src = str(Path(bateman.__file__).resolve().parents[1])
    for code in (
        "import sys, bateman.cli",
        f"import sys, bateman.cli; bateman.cli.main(['all', '--out', {str(tmp_path)!r}])",
    ):
        out = subprocess.run(
            [sys.executable, "-c", code + "; print('scipy' in sys.modules)"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.splitlines()[-1] == "False", code
    assert (tmp_path / "report_all.json").exists()


def test_report_does_not_depend_on_the_blas_thread_count(tmp_path):
    # ``all`` runs no numpy code, so no BLAS thread setting can reach a report
    src = str(Path(bateman.__file__).resolve().parents[1])
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    outputs = []
    for threads in ("2", "1"):
        out = tmp_path / threads
        subprocess.run(
            [sys.executable, "-m", "bateman.cli", "all", *FAST, "--out", str(out)],
            env={**env, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
            check=True,
            capture_output=True,
        )
        outputs.append([(out / name).read_bytes() for name in ["report_all.json", *sorted(CSV_NAMES)]])
    assert outputs[0] == outputs[1]


FAST = ["--kmax", "50", "--cutoffs", "16,32"]
CSV_NAMES = {
    "null_experiment_pseudo.csv",
    "null_experiment_bosonic.csv",
    "squeeze_norms.csv",
    "raabe.csv",
    "trajectory.csv",
}  # every CSV `bateman all` writes
REPORT_ONLY = {
    "counterexample-branches",
    "null-vector-sweep",
    "squeeze-truncated-norms",
    "squeeze-unitary-control",
    "classical-drift-order",
    "classical-envelopes",
}


def test_all_report_concatenates_the_subcommand_reports(tmp_path):
    # the artifacts shared across areas in one run change no payload
    assert run_cli(["all", "--out", str(tmp_path / "all"), *FAST]) == 0
    combined = json.loads((tmp_path / "all" / "report_all.json").read_text())["checks"]
    separate = []
    for name in RUNNERS:
        assert run_cli([name, "--out", str(tmp_path / name), *FAST]) == 0
        separate += json.loads((tmp_path / name / f"report_{name}.json").read_text())["checks"]
    assert [c["check"] for c in combined] == [c["check"] for c in separate]
    assert combined == separate
    for area, tables in CSVS.items():
        for name in tables:
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / area / name).read_bytes()


def test_format_json_writes_no_csv_and_csv_no_report(tmp_path):
    assert run_cli(["all", "--out", str(tmp_path / "json"), "--format", "json", *FAST]) == 0
    assert {p.name for p in (tmp_path / "json").iterdir()} == {"report_all.json"}
    assert run_cli(["all", "--out", str(tmp_path / "csv"), "--format", "csv", *FAST]) == 0
    assert {p.name for p in (tmp_path / "csv").iterdir()} == CSV_NAMES


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("params", [[], ["--m", "3/2", "--gamma", "2/5", "--omega", "2"]])
def test_forked_tables_equal_the_in_process_formatting(params, tmp_path):
    # the writer process formats the same values the checks read
    argv = ["all", *params, "--out", str(tmp_path)]
    assert run_cli(argv) == 0
    art = Artifacts(config_from_args(build_parser().parse_args(argv)))
    for tables in CSVS.values():
        for name, table in tables.items():
            text = io.StringIO()
            table.write(getattr(art, table.attr), text)
            assert (tmp_path / name).read_bytes() == text.getvalue().encode(), name
    assert_no_child_left()


def _count_forks(monkeypatch) -> list[int]:
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def test_no_writer_outlives_a_run(tmp_path, monkeypatch):
    forks = _count_forks(monkeypatch)
    assert run_cli(["squeeze", "--out", str(tmp_path), *FAST]) == 0
    assert forks == [1] and {p.name for p in tmp_path.iterdir()} == {
        "report_squeeze.json", "squeeze_norms.csv", "raabe.csv"}
    assert_no_child_left()


def test_no_writer_outlives_a_check_error_after_the_fork(tmp_path, capfd, monkeypatch):
    # at gamma 1396/10 the trajectory and its energies are finite, so the
    # writer forks; a classical check then leaves the float range
    forks = _count_forks(monkeypatch)
    assert run_cli(["classical", "--gamma", "1396/10", "--out", str(tmp_path)]) == 2
    err = capfd.readouterr().err
    assert forks == [1] and "integration error" in err and "Traceback" not in err
    assert not tmp_path.exists() or not any(tmp_path.iterdir())
    assert_no_child_left()


def test_failing_writer_is_an_internal_error(tmp_path, capfd, monkeypatch):
    def broken(sweeps, out):
        raise RuntimeError("formatter defect")

    monkeypatch.setitem(CSVS["vacuum"], "null_experiment_pseudo.csv", Table("null_sweeps", broken))
    assert run_cli(["vacuum", "--cutoffs", "8,12", "--out", str(tmp_path)]) == 1
    captured = capfd.readouterr()
    assert "internal error: the CSV writer exited with status 1" in captured.err
    assert "Traceback" not in captured.err and "formatter defect" not in captured.err
    assert captured.out == ""
    assert not tmp_path.exists() or not any(tmp_path.iterdir())
    assert_no_child_left()


def test_each_verdict_line_is_printed_once(tmp_path, capfd):
    # stdout is flushed before the fork, and the writer never flushes it again
    print("before the run")
    assert run_cli(["all", "--out", str(tmp_path), *FAST]) == 0
    lines = capfd.readouterr().out.splitlines()
    assert lines[0] == "before the run"
    assert sorted(line.split()[-1] for line in lines[1:]) == sorted(c.id for c in CHECKS)


def test_format_json_forks_nothing(tmp_path, monkeypatch):
    def no_fork():
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    assert run_cli(["all", "--format", "json", "--out", str(tmp_path / "json"), *FAST]) == 0
    assert {p.name for p in (tmp_path / "json").iterdir()} == {"report_all.json"}
    # with tables to write, a failed fork is an OSError: exit 2, no file, and
    # the pipes opened for the writer are closed again
    fds = "/proc/self/fd"
    before = len(os.listdir(fds)) if os.path.isdir(fds) else None
    assert run_cli(["vacuum", "--cutoffs", "8,12", "--out", str(tmp_path / "csv")]) == 2
    assert not (tmp_path / "csv").exists()
    assert before is None or len(os.listdir(fds)) == before


def test_main_freezes_nothing_and_the_command_shares_main(tmp_path):
    # only the process-ending command freezes the objects; the installed
    # script and ``python -m bateman.cli`` both go through it
    frozen = gc.get_freeze_count()
    assert run_cli(["counterexample", "--out", str(tmp_path / "main")]) == 0
    assert gc.get_freeze_count() == frozen
    root = Path(bateman.__file__).resolve().parents[2]
    pyproject = tomllib.loads((root / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"]["bateman"] == "bateman.cli:command"
    out = tmp_path / "command"
    proc = subprocess.run(
        [sys.executable, "-m", "bateman.cli", "counterexample", "--out", str(out)],
        env={**os.environ, "PYTHONPATH": str(root / "src")}, capture_output=True, text=True,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.count("PASS") == 2 and (out / "report_counterexample.json").exists()


def test_registry_ids_claims_and_ok_types(tmp_path):
    ids = [c.id for c in CHECKS]
    assert len(ids) == 27 and len(set(ids)) == 27
    assert len({c.claim for c in CHECKS}) == 27
    assert list(dict.fromkeys(c.area for c in CHECKS)) == list(RUNNERS)
    args = build_parser().parse_args(["all", "--out", str(tmp_path), *FAST])
    art = Artifacts(config_from_args(args))
    for c in CHECKS:
        ok, payload = c.fn(art)
        if c.id in REPORT_ONLY:
            assert ok is None, c.id
        else:
            assert type(ok) is bool and ok, c.id
        assert isinstance(payload, dict), c.id


def test_each_runner_returns_the_checks_of_its_area(tmp_path):
    # every run_<area> name is bound by its area, not by registration order
    args = build_parser().parse_args(["all", "--out", str(tmp_path), *FAST])
    art = Artifacts(config_from_args(args))
    for area in RUNNERS:
        runner = getattr(bateman.cli, f"run_{area}")
        assert [v.check for v in runner(art)] == [c.id for c in CHECKS if c.area == area], area


@pytest.mark.parametrize("mass", ["0", "-1"])
@pytest.mark.parametrize("subcommand", [*RUNNERS, "all"])
def test_non_positive_mass_rejected_on_every_subcommand(subcommand, mass, tmp_path, capsys):
    assert run_cli([subcommand, "--out", str(tmp_path), "--m", mass]) == 2
    err = capsys.readouterr().err
    assert "mass must be positive" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("subcommand", ["squeeze", "all"])
def test_squeeze_cutoffs_past_the_certified_limit_rejected(subcommand):
    # rejected before any check runs: `all` would first sweep the null vectors
    parse = build_parser().parse_args
    with pytest.raises(ValueError, match=str(SQUEEZE_CUTOFF_LIMIT)):
        config_from_args(parse([subcommand, "--cutoffs", f"16,{SQUEEZE_CUTOFF_LIMIT + 1}"]))
    cfg = config_from_args(parse([subcommand, "--cutoffs", f"16,{SQUEEZE_CUTOFF_LIMIT}"]))
    assert cfg.cutoffs == (16, SQUEEZE_CUTOFF_LIMIT)


def test_squeeze_past_the_limit_exits_2(tmp_path, capsys):
    too_far = f"16,{SQUEEZE_CUTOFF_LIMIT + 1}"
    assert run_cli(["squeeze", "--out", str(tmp_path), "--cutoffs", too_far]) == 2
    err = capsys.readouterr().err
    assert str(SQUEEZE_CUTOFF_LIMIT) in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("target", ["existing-file", "existing-file/sub"])
def test_unusable_out_exits_2(target, tmp_path, capsys):
    (tmp_path / "existing-file").write_text("kept")
    out = tmp_path / target
    assert run_cli(["counterexample", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot write to" in err and str(out) in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["existing-file"]
    assert (tmp_path / "existing-file").read_text() == "kept"


@pytest.mark.parametrize(
    "argv",
    [
        ["squeeze", "--theta", "1e300"],
        ["squeeze", "--theta=-1e300"],
        ["all", "--theta", "30"],
        ["squeeze", "--kmax", "1000000"],
        ["vacuum", "--kmax", str(RAABE_KMAX_LIMIT + 1)],
    ],
)
def test_unbounded_theta_or_kmax_exits_2_at_once(argv, tmp_path, capsys):
    # rejected with the configuration, before any check runs
    with pytest.raises(ValueError):
        config_from_args(build_parser().parse_args(argv))
    assert run_cli([*argv, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_theta_and_kmax_at_their_ceilings_run(tmp_path):
    parse = build_parser().parse_args
    assert config_from_args(parse(["all", "--kmax", str(RAABE_KMAX_LIMIT)])).kmax == RAABE_KMAX_LIMIT
    # the default theta at the largest certified cutoff is exactly the bound
    argv = ["squeeze", "--cutoffs", f"16,{SQUEEZE_CUTOFF_LIMIT}", "--kmax", "10"]
    assert run_cli([*argv, "--out", str(tmp_path / "squeeze")]) == 0
    # the theta ceiling is the squeeze's; vacuum does not use theta
    assert run_cli(["vacuum", "--theta", "1e300", "--out", str(tmp_path / "vacuum")]) == 0


def test_vacuum_cutoffs_past_the_null_limit_exit_2(tmp_path, capsys):
    # rejected with the configuration, before the sweep runs
    parse = build_parser().parse_args
    with pytest.raises(ValueError, match=str(NULL_CUTOFF_LIMIT)):
        config_from_args(parse(["vacuum", "--cutoffs", "8,2048"]))
    assert run_cli(["vacuum", "--out", str(tmp_path), "--cutoffs", "8,2048"]) == 2
    err = capsys.readouterr().err
    assert str(NULL_CUTOFF_LIMIT) in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())
    # the limit itself is accepted
    cfg = config_from_args(parse(["vacuum", "--cutoffs", f"8,{NULL_CUTOFF_LIMIT}"]))
    assert cfg.cutoffs == (8, NULL_CUTOFF_LIMIT)


@pytest.mark.parametrize("gamma", ["141", "300"])
@pytest.mark.parametrize("subcommand", ["classical", "hamiltonian", "all"])
def test_overflowing_damping_exits_2(subcommand, gamma, tmp_path, capsys):
    # gamma 300 overflows the trajectory; at gamma 141 it stays finite, but
    # the energy terms and the residual's second difference do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli([subcommand, "--out", str(tmp_path), "--gamma", gamma, *FAST]) == 2
    err = capsys.readouterr().err
    assert "gamma/2m" in err and "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_large_damping_below_overflow_writes_a_report(tmp_path):
    # the classical checks fail at gamma 60, but the report is strict JSON
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["hamiltonian", "--out", str(tmp_path), "--gamma", "60"]) in (0, 1)
    json.loads((tmp_path / "report_hamiltonian.json").read_text(), parse_constant=_reject_constant)


def report_status(out, subcommand):
    doc = json.loads((out / f"report_{subcommand}.json").read_text())
    return {c["check"]: c["status"] for c in doc["checks"]}


@pytest.mark.parametrize("gamma, omega", [
    ("3/2", "1"), ("2", "1"), ("10", "1"), ("60", "1"), ("5/4", "4"),
])
def test_energy_forms_pass_at_large_damping_and_frequency(gamma, omega, tmp_path):
    # an absolute gap between sampled float forms failed here from gamma 3/2
    argv = ["classical", "--gamma", gamma, "--omega", omega, "--format", "json"]
    assert run_cli([*argv, "--out", str(tmp_path)]) in (0, 1)
    assert report_status(tmp_path, "classical")["classical-energy-forms"] == "pass"


def test_all_passes_at_gamma_three_halves(tmp_path):
    assert run_cli(["all", "--gamma", "3/2", "--format", "json", "--out", str(tmp_path)]) == 0


_underdamped_box = {
    "m": st.fractions(min_value=Fraction(1, 10), max_value=5, max_denominator=12),
    "gamma": st.fractions(min_value=0, max_value=6, max_denominator=12),
    "omega": st.fractions(min_value=Fraction(1, 10), max_value=4, max_denominator=12),
}


def increment_reference(params: BatemanParams, dt: float) -> np.ndarray:
    """P - I as a numpy 4 x 4 matrix, with each product of the matrix powers
    rounded before it is summed.  ``@`` would not do: BLAS may fuse a multiply
    and an add into one rounding, which moved the last bit of some entries on
    about 4 % of draws like ``_underdamped_box``'s."""
    def mul(a, b):
        return (a[:, :, None] * b[None, :, :]).sum(axis=1)

    hm = dt * np.array(motion_matrix(params), dtype=float)
    hm2 = mul(hm, hm)
    return (mul(hm2, hm2) / 24.0 + mul(hm2, hm) / 6.0) + hm2 / 2.0 + hm


@given(dt=st.sampled_from(DRIFT_ORDER_STEPS + (1e-3,)), **_underdamped_box)
@settings(max_examples=60, deadline=None)
def test_rk4_increment_is_two_blocks(dt, m, gamma, omega):
    # integrate_eom steps over the (x, p_y) and (y, p_x) blocks of P - I alone:
    # they equal the full matrix's entries bit for bit, and the rest is zero
    params = BatemanParams.from_omega(m, gamma, omega)
    reference = increment_reference(params, dt)
    blocks = ((0, 3), (1, 2))
    for block, entries in zip(blocks, _rk4_increment(params, dt)):
        assert entries == tuple(tuple(reference[i, j] for j in block) for i in block)
    off_block = [reference[i, j] for i in range(4) for j in range(4)
                 if (i in blocks[0]) != (j in blocks[0])]
    assert len(off_block) == 8 and all(v == 0.0 for v in off_block)


def run_accepted(subcommand: str, argv: list[str]) -> tuple[int, dict | None]:
    """Run an accepted configuration and return its exit code and report: a
    strict, schema-valid document on exit 0 or 1, None on exit 2, which
    leaves no file; the run must never warn or print a traceback."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = Path(tmp)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = run_cli([subcommand, *argv, "--format", "json", "--out", tmp])
        assert not caught, [str(w.message) for w in caught]
        assert "Warning" not in err.getvalue() and "Traceback" not in err.getvalue()
        if code == 2:
            assert not any(out.iterdir())
            return code, None
        assert code in (0, 1), err.getvalue()
        doc = json.loads(
            (out / f"report_{subcommand}.json").read_text(), parse_constant=_reject_constant
        )
    jsonschema.validate(doc, json.loads(SCHEMA_PATH.read_text()))
    return code, doc


def _params_argv(m: Fraction, gamma: Fraction, omega: Fraction) -> list[str]:
    return ["--m", str(m), "--gamma", str(gamma), "--omega", str(omega)]


@given(subcommand=st.sampled_from(["classical", "hamiltonian"]), **_underdamped_box)
@settings(max_examples=40, deadline=None)
def test_accepted_underdamped_configurations_give_sound_reports(subcommand, m, gamma, omega):
    # every draw is accepted (omega > 0), so each run exits 0 or 1 with a
    # strict, schema-valid report, or exits 2 with no file; never a warning
    argv = _params_argv(m, gamma, omega)
    code, doc = run_accepted(subcommand, argv)
    if doc is None:
        return
    checks = {c["check"]: c for c in doc["checks"]}
    if subcommand == "classical":
        assert checks["classical-energy-forms"]["status"] == "pass", argv
    else:
        assert checks["hamiltonian-forms-classical"]["payload"]["forms_agree"] is True, argv


@given(
    subcommand=st.sampled_from(["counterexample", "vacuum", "commutators", "squeeze"]),
    cutoffs=st.lists(st.integers(8, 24), min_size=1, max_size=3, unique=True).map(sorted),
    theta=st.floats(-math.pi, math.pi),
    kmax=st.integers(10, 200),
    **_underdamped_box,
)
@settings(max_examples=60, deadline=None)
def test_parameter_free_areas_pass_on_every_accepted_configuration(
    subcommand, cutoffs, theta, kmax, m, gamma, omega
):
    # no pass/fail check of these areas depends on (m, gamma, omega), and the
    # drawn sweeps are small, so every draw exits 0 with every check holding
    argv = [*_params_argv(m, gamma, omega), "--cutoffs", ",".join(map(str, cutoffs)),
            f"--theta={theta!r}", "--kmax", str(kmax)]
    code, doc = run_accepted(subcommand, argv)
    assert code == 0, argv
    assert doc["config"]["cutoffs"] == cutoffs, argv


def test_benchmark_tracer_hooks_still_match(tmp_path):
    # perfbench/tracer.py wraps functions, arguments and results by name; a
    # rename that breaks it must fail here
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    tracer = tracer_module.Tracer(run_id="tier-1")
    tracer.install()
    try:
        for name in ("vacuum", "commutators", "classical"):
            out = tmp_path / name
            assert bateman.cli.main([name, "--format", "json", "--out", str(out)]) == 0
        # no subcommand builds a dense matrix; the tracer still wraps the builder
        bateman.fock.build_fock("A1", 4)
    finally:
        tracer.uninstall()
    for key in tracer_module.SIZE_COUNTS:
        assert tracer.counts[key] > 0, key
