"""Benchmark of the bateman toolkit: seeded workloads, a correctness gate, a traced run.

    python3 perfbench/run.py --workload cli-all --seed 1 --seconds 25 --trace 0

The toolkit's product is a set of verdicts about the Bateman model, and users
wait for them in two ways: one ``bateman all`` run, or a null-vector reach
sweep at large cutoffs.  The benchmark drives the program only through the
``bateman`` CLI (``python -m bateman.cli`` with ``src`` on the path) and the
package's public functions.  Every workload is a closed loop with one client:
the next iteration starts when the previous one has ended, and each iteration
is a fresh child process, so nothing cached leaks between iterations and the
cold start users pay is counted.  Iterations repeat until ``--seconds`` have
passed (at least two), and each metric is the median over the iterations.

Workloads, and why each was chosen:

``cli-all``
    One ``bateman all`` per iteration; ``(m, gamma, omega)`` is drawn by the
    seed from a pool of exact rationals, so a change cannot special-case the
    default configuration.  This is the command users run.  ``series`` does
    about half the work (``partial_sum_growth``, ``raabe_test``) and
    ``classical`` most of the rest (three RK4 integrations, two Python-loop
    consistency passes, a 1.7 MB CSV); ``fock`` and the exact operator layers
    are small.
``fock-reach``
    One ``bateman vacuum --cutoffs 8,16,24,32,40`` per iteration.  This is the
    reach sweep: dense SVDs in ``fock.joint_null_experiment`` do most of the
    work and ``series``/``classical`` none.  Reach is ``wall_s`` at this fixed
    cutoff list, not the largest cutoff that fits a budget, which would give
    different run lengths on the two commits being compared.  The seed draws
    the oscillator parameters, which enter only the report header.
``exact-ops``
    In-process jobs against the exact symbolic layer (see ``exact_ops.py``):
    ``field``, ``operators`` and ``vacuum`` do nearly all the work, with
    complex ``Coeff`` values.  It stands in for the property-test share of the
    test suite: one job list holds as many jobs of each kind as the matching
    property test runs examples, drawn as its strategies draw them.  Every
    iteration of a run runs the same list.  Random complex first-order
    families hit a known ``gaussian_ansatz_solve`` defect, so the timed
    random families are real and the traced run counts the defect on complex
    ones (``vacuum.gaussian_ansatz_solve.raises``).

Predictions that later changes should cite:

* a shared-artifact cache for the CLI checks raises
  ``classical.integrate_eom.distinct_ratio`` to 1 and lowers ``wall_s`` on
  ``cli-all``; ``peak_rss_mb`` may rise;
* closed-form partial sums and a ``Coeff`` fast path lower ``cli-all``
  ``wall_s`` by up to about 4 s and must leave ``exact-ops`` unchanged;
* sector-blocked Fock numerics lower ``fock-reach`` ``wall_s`` and
  ``peak_rss_mb`` and leave ``exact-ops`` unchanged;
* a lazy import moves ``setup_s`` on every workload.

Metrics.  With ``--trace 0`` the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` (median over child processes that only import ``bateman.cli``;
for ``exact-ops`` the spawn-to-ready time of each iteration, which adds input
generation), ``wall_s`` (spawn to exit of one CLI iteration; all jobs of one
``exact-ops`` iteration), ``job_p50_ms``/``job_p90_ms`` (one CLI invocation or
one exact job), ``peak_rss_mb`` (``ru_maxrss`` of the child).  With
``--trace 1`` the per-layer metrics: two ``tracer.py`` children with the same
seed, each replaying the workload untraced and traced in one process, in
opposite orders, so each kind of replay runs once cold and once warm.  Times
are the mean of the two traced replays, counts must repeat exactly, and
``trace.overhead_s`` is the mean traced replay time minus the mean untraced
one.

Correctness gate: an operation fails on a non-zero exit, a traceback on
stderr, a report that is not strict JSON or fails ``docs/report_schema.json``,
check ids that differ from the seed commit's (``reference.json``), any
``fail`` status, a missing CSV, a ``fock-reach`` sweep off its reference
values, a report that is not byte-identical to the run's first one (the
determinism check), an ``exact-ops`` identity that does not hold, or traced
counts that do not repeat.  The last stdout line is the JSON result; the line
before it records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

WORKLOADS = ("cli-all", "fock-reach", "exact-ops")
SUBCOMMAND = {"cli-all": "all", "fock-reach": "vacuum"}
# (m, gamma, omega); every entry exits 0 at the seed commit
CONFIG_POOL = (
    ("1", "1/5", "1"),
    ("1", "1/10", "1"),
    ("3/2", "2/5", "2"),
    ("5/4", "3/10", "3/2"),
    ("1", "2/5", "2"),
)
FOCK_CUTOFFS = "8,16,24,32,40"
SETUP_PROBES = 5
MIN_ITERATIONS = 2
RUN_DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class CannotRun(RuntimeError):
    """The benchmark cannot produce a result; it prints none and exits with 2."""


def cli_argv(workload: str, seed: int) -> list[str]:
    m, gamma, omega = random.Random(seed).choice(CONFIG_POOL)
    argv = [SUBCOMMAND[workload], "--m", m, "--gamma", gamma, "--omega", omega]
    if workload == "fock-reach":
        argv += ["--cutoffs", FOCK_CUTOFFS]
    return argv


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class Child:
    """One finished child process: exit code, timings, peak memory and output."""

    rc: int
    wall_s: float
    ready_s: float | None
    rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env() -> dict[str, str]:
    # BLAS thread settings are inherited untouched (unset keeps OpenBLAS at
    # most at nproc threads); the environment record shows what they were.
    env = dict(os.environ)
    paths = [str(ROOT / "src"), env.get("PYTHONPATH", "")]
    env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
    return env


def run_child(argv: list[str], workdir: Path, deadline: float, wait_ready: bool = False) -> Child:
    """Spawn ``python argv`` and wait for it, killing it at ``deadline``.

    With ``wait_ready`` the child's first stdout line must be ``ready``; the
    time it arrives ends the child's set-up.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    err_path = workdir / "stderr"
    out_path = workdir / "stdout"
    ready_s = None
    with open(err_path, "wb") as err, open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE if wait_ready else out, stderr=err,
        )
        watchdog = threading.Timer(max(deadline - start, 1.0), proc.kill)
        watchdog.start()
        try:
            if wait_ready:
                if proc.stdout.readline().strip() == b"ready":
                    ready_s = time.perf_counter() - start
                out.write(proc.stdout.read())
                proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            wall_s = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall_s, ready_s, usage.ru_maxrss / 1024.0,
                 out_path.read_bytes(), err_path.read_bytes())


def import_probe(workdir: Path, deadline: float) -> Child:
    return run_child(["-c", "import bateman.cli"], workdir, deadline)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


class Gate:
    """Checks one CLI iteration's outputs; collects the reasons it failed."""

    def __init__(self, workload: str):
        import jsonschema

        self.workload = workload
        self.subcommand = SUBCOMMAND[workload]
        self.reference = json.loads((HERE / "reference.json").read_text())
        schema = json.loads((ROOT / "docs" / "report_schema.json").read_text())
        self.validator = jsonschema.Draft202012Validator(schema)
        self.first_report: bytes | None = None

    def check(self, child: Child, outdir: Path) -> list[str]:
        reasons = []
        if child.rc != 0:
            reasons.append(f"exit code {child.rc}")
        if b"Traceback" in child.stderr:
            reasons.append("traceback on stderr")
        path = outdir / f"report_{self.subcommand}.json"
        if not path.exists():
            return reasons + [f"missing {path.name}"]
        raw = path.read_bytes()
        if self.first_report is None:
            self.first_report = raw
        elif raw != self.first_report:
            reasons.append("report is not byte-identical to the run's first report")
        try:
            doc = json.loads(raw, parse_constant=_reject_constant)
        except ValueError as exc:
            return reasons + [f"report is not strict JSON: {exc}"]
        errors = [e.message for e in self.validator.iter_errors(doc)]
        if errors:
            return reasons + [f"schema: {errors[0]}"]
        ids = [c["check"] for c in doc["checks"]]
        if ids != self.reference["check_ids"][self.subcommand]:
            reasons.append(f"check ids differ from the reference: {ids}")
        failing = [c["check"] for c in doc["checks"] if c["status"] == "fail"]
        if failing:
            reasons.append(f"failing checks: {failing}")
        for name in self.reference["csvs"][self.subcommand]:
            if not (outdir / name).exists():
                reasons.append(f"missing {name}")
        if self.workload == "fock-reach":
            reasons += self._sweep(doc)
        return reasons

    def _sweep(self, doc: dict) -> list[str]:
        ref = self.reference["fock_reach"]
        sweeps = [c["payload"] for c in doc["checks"] if c["check"] == "null-vector-sweep"]
        if not sweeps:
            return ["no null-vector-sweep check"]
        sweep = sweeps[0]
        reasons = []
        if sweep.get("cutoffs") != ref["cutoffs"]:
            reasons.append(f"sweep cutoffs {sweep.get('cutoffs')}")
        got = sweep.get("pseudo_sigma_min") or []
        if len(got) != len(ref["pseudo_sigma_min"]) or any(
            abs(g - r) > ref["rtol"] * abs(r) for g, r in zip(got, ref["pseudo_sigma_min"])
        ):
            reasons.append(f"pseudo_sigma_min {got} off the reference")
        if any(v != 0 for v in sweep.get("bosonic_sigma_min") or [1]):
            reasons.append(f"bosonic sigma_min {sweep.get('bosonic_sigma_min')} is not 0")
        if sweep.get("pseudo_strictly_decreasing") is not True:
            reasons.append("pseudo_sigma_min is not strictly decreasing")
        return reasons


def exact_outcome(child: Child) -> tuple[dict | None, list[str]]:
    """The job results of one exact-ops child, or why the child failed."""
    reasons = []
    if child.rc != 0:
        reasons.append(f"exit code {child.rc}")
    if b"Traceback" in child.stderr:
        reasons.append("traceback on stderr")
    if child.ready_s is None:
        reasons.append("child never reported ready")
    try:
        result = json.loads(child.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        reasons.append("no job results")
        return None, reasons
    return (None if reasons else result), reasons


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


class Tally:
    """Attempted and failed operations; reasons for failure go to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int, reasons: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        for reason in reasons[:3]:
            print(f"FAILED: {reason}", file=sys.stderr)

    def gate(self, reasons: list[str]) -> None:
        """One operation, failed if there is any reason."""
        self.add(1, int(bool(reasons)), reasons)

    def jobs(self, result: dict | None, reasons: list[str]) -> None:
        """One exact-ops child: each job is an operation; a broken child fails them all."""
        if result is None:
            import exact_ops  # bateman imports: the warm-up probe showed it

            self.add(exact_ops.JOBS, exact_ops.JOBS, reasons)
        else:
            self.add(len(result["latencies_ms"]), len(result["failures"]), result["failures"])


def exact_child(seed: int, workdir: Path, deadline: float) -> Child:
    # every iteration of a run runs the same job list
    return run_child([str(HERE / "exact_ops.py"), "--seed", str(seed)], workdir, deadline,
                     wait_ready=True)


def measure(workload: str, seed: int, seconds: float, work: Path, deadline: float,
            tally: Tally) -> dict[str, float]:
    """Untraced iterations for ``seconds``; the end-to-end metrics."""
    walls, rss, latencies_ms, setups = [], [], [], []
    if workload == "exact-ops":
        start, i = time.perf_counter(), 0
        while i < MIN_ITERATIONS or time.perf_counter() - start < seconds:
            child = exact_child(seed, work / f"iter{i}", deadline)
            i += 1
            result, reasons = exact_outcome(child)
            tally.jobs(result, reasons)
            if result is None:
                continue
            walls.append(result["wall_s"])
            setups.append(child.ready_s)
            rss.append(child.rss_mb)
            latencies_ms += result["latencies_ms"]
    else:
        gate = Gate(workload)
        setups = [import_probe(work / "probe", deadline).wall_s for _ in range(SETUP_PROBES)]
        argv = ["-m", "bateman.cli", *cli_argv(workload, seed)]
        start = time.perf_counter()
        while len(walls) < MIN_ITERATIONS or time.perf_counter() - start < seconds:
            outdir = work / f"iter{len(walls)}"
            child = run_child([*argv, "--out", str(outdir)], outdir, deadline)
            tally.gate(gate.check(child, outdir))
            shutil.rmtree(outdir)
            walls.append(child.wall_s)
            rss.append(child.rss_mb)
            latencies_ms.append(child.wall_s * 1e3)
    if not walls:
        raise CannotRun("no iteration completed")
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "job_p50_ms": statistics.median(latencies_ms),
        "job_p90_ms": p90(latencies_ms),
        "peak_rss_mb": statistics.median(rss),
    }


def self_times(spans: list[list]) -> tuple[dict[str, float], Counter]:
    """Self time and call count per span name."""
    covered: dict[int, float] = defaultdict(float)
    for sid, name, start, end, parent, _run in spans:
        if parent is not None:
            covered[parent] += end - start
    times: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    for sid, name, start, end, parent, _run in spans:
        times[name] += end - start - covered[sid]
        calls[name] += 1
    return times, calls


def trace_values(record: dict) -> tuple[dict[str, float], dict[str, float]]:
    """(times, counts) of one traced replay, under per-layer metric names."""
    import tracer

    times, calls = self_times(record["spans"])
    counts: dict[str, float] = {name: 0 for name in tracer.SIZE_COUNTS}
    counts.update({f"{layer}.{f}.calls": 0 for layer, fs in tracer.COUNTED.items() for f in fs})
    counts.update({name: 0 for name in tracer.COEFF_COUNTED.values()})
    counts.update(record["counts"])
    values: dict[str, float] = {}
    for layer, names in tracer.SPANNED.items():
        values[f"{layer}.self_s"] = 0.0
        for fname in names:
            name = f"{layer}.{fname}"
            values[f"{name}.s"] = times.get(name, 0.0)
            values[f"{layer}.self_s"] += times.get(name, 0.0)
            counts[f"{name}.calls"] = calls.get(name, 0)
    for name in tracer.DISTINCT:
        n = calls.get(name, 0)
        # distinct arguments / calls; 0 when the workload never calls it
        counts[f"{name}.distinct_ratio"] = record["distinct"].get(name, 0) / n if n else 0.0
    root = [s for s in record["spans"] if s[1] == tracer.ROOT_SPAN][0]
    values["trace.replay_s"] = root[3] - root[2]
    values["trace.unattributed_s"] = times[tracer.ROOT_SPAN]
    return values, counts


def traced(workload: str, seed: int, work: Path, deadline: float, tally: Tally) -> dict[str, float]:
    """Two traced replays with the same seed; the per-layer metrics."""
    gate = None if workload == "exact-ops" else Gate(workload)
    records = []
    for i in range(2):
        outdir = work / f"traced{i}"
        record_path = work / f"record{i}.json"
        # the second child replays traced first, so each replay is once cold, once warm
        child = run_child([str(HERE / "tracer.py"), "--workload", workload, "--seed", str(seed),
                           "--out", str(outdir), "--record", str(record_path),
                           *(["--traced-first"] if i else [])], outdir, deadline)
        if not record_path.exists():
            stderr = child.stderr.decode(errors="replace")
            raise CannotRun("traced replay failed:\n" + stderr[-2000:])
        record = json.loads(record_path.read_text())
        records.append(record)
        for replay, outcome in record["outcomes"].items():
            if gate is None:
                tally.add(outcome["jobs"], len(outcome["failures"]), outcome["failures"])
            else:
                tally.gate(gate.check(child, outdir / replay))

    (times0, counts0), (times1, counts1) = (trace_values(r) for r in records)
    if counts0 != counts1:
        diff = sorted(k for k in counts0 if counts0[k] != counts1[k])
        tally.gate([f"traced counts do not repeat: {diff}"])
    values = {k: (times0[k] + times1[k]) / 2 for k in times0}
    values.update(counts0)
    # traced minus untraced replay of the same work, in both orders
    values["trace.overhead_s"] = values["trace.replay_s"] - statistics.mean(
        r["untraced_s"] for r in records)
    values["vacuum.gaussian_ansatz_solve.raises"] = 0
    if workload == "exact-ops":
        import exact_ops

        try:
            values["vacuum.gaussian_ansatz_solve.raises"] = exact_ops.defect_probe(seed)
        except Exception as exc:  # anything but the known defect is a failed operation
            tally.gate([f"defect probe: {type(exc).__name__}: {exc}"])
    values["failed_share"] = tally.failed / tally.attempted if tally.attempted else 1.0
    return values


# ---------------------------------------------------------------------------
# environment record and entry point
# ---------------------------------------------------------------------------

def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "bateman").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "seed": seed,
    }


def metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    deadline = time.perf_counter() + RUN_DEADLINE_S
    work = ROOT / ".perfbench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        for needed in (ROOT / "src" / "bateman" / "cli.py", ROOT / "docs" / "report_schema.json"):
            if not needed.exists():
                raise CannotRun(f"{needed.relative_to(ROOT)} is missing; run from a full checkout")
        # warm-up: a first import compiles the bytecode, which users pay once
        probe = import_probe(work / "warmup", deadline)
        if probe.rc != 0:
            raise CannotRun("bateman does not import:\n" + probe.stderr.decode(errors="replace"))
        sys.path.insert(0, str(ROOT / "src"))
        tally = Tally()
        if args.trace:
            values = traced(args.workload, args.seed, work, deadline, tally)
        else:
            values = measure(args.workload, args.seed, args.seconds, work, deadline, tally)
        specs = metric_specs(bool(args.trace))
        env = environment(args.seed)
    except CannotRun as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(json.dumps({"environment": env}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
