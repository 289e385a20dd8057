"""Traced replay of one workload, with spans and counts at each layer boundary.

Run as a program, this replays one workload in-process twice, untraced and
traced (``--traced-first`` swaps them): ``bateman.cli.main`` for the CLI
workloads, the run's job list for ``exact-ops``.  For the traced replay it
wraps each layer's public functions (named after their module in
``src/bateman``) in every ``bateman`` module namespace that holds them,
including the CLI's ``RUNNERS`` table, so calls through ``from .fock import
build_fock`` and through module globals are both seen; afterwards it puts the
originals back.  Each wrapped call records a span ``(id, name, start, end,
parent id, run id)``; spans stay in memory and are written as one JSON file
at the end.
``Coeff.__mul__``, ``__add__`` and ``inverse`` run millions of times, so
they are counted only.  The program itself is not changed.

    python perfbench/tracer.py --workload cli-all --seed 3 --out DIR --record FILE
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Any, Callable

ROOT_SPAN = "trace.replay"

# Functions that get a span, per layer.  Self time of a span is its duration
# minus the time its child spans cover.
SPANNED = {
    "cli": ("run_counterexample", "run_vacuum", "run_commutators", "run_hamiltonian",
            "run_squeeze", "run_classical"),
    "reporting": ("write_report",),
    "series": ("partial_sum_growth", "raabe_test", "raabe_csv"),
    "radicals": ("factorial_sqrt",),
    "operators": ("op_compose", "op_apply", "op_adjoint", "hamiltonian_build"),
    "vacuum": ("gaussian_ansatz_solve", "multiplier_reduction", "delta_pair",
               "distributional_vacuum_check"),
    "fock": ("joint_null_experiment", "build_fock", "commutator_residual",
             "hamiltonian_equiv_residual", "squeeze_truncated_norms", "squeeze_factored_action"),
    "classical": ("integrate_eom", "hamiltonian_consistency", "eom_residual", "trajectory_csv"),
}
COUNTED = {"operators": ("make_pseudo",)}
COEFF_COUNTED = {"__mul__": "field.coeff_mul.calls", "__add__": "field.coeff_add.calls",
                 "inverse": "field.coeff_inverse.calls"}
# Functions whose distinct arguments are counted, to show repeated work.
DISTINCT = ("fock.build_fock", "classical.integrate_eom")
# Sizes added up by the ON_RESULT hooks below.
SIZE_COUNTS = ("reporting.report_bytes", "operators.op_compose.terms_out",
               "vacuum.gaussian_ansatz_solve.equations", "fock.build_fock.bytes",
               "classical.integrate_eom.steps")


def _report_bytes(args: dict, result: Any, counts: Counter, keys: dict) -> None:
    counts["reporting.report_bytes"] += Path(args["path"]).stat().st_size


def _compose_terms(args: dict, result: Any, counts: Counter, keys: dict) -> None:
    counts["operators.op_compose.terms_out"] += len(result.terms)


def _ansatz_equations(args: dict, result: Any, counts: Counter, keys: dict) -> None:
    counts["vacuum.gaussian_ansatz_solve.equations"] += len(result.equations)


def _fock_matrix(args: dict, result: Any, counts: Counter, keys: dict) -> None:
    counts["fock.build_fock.bytes"] += result.matrix.nbytes
    keys["fock.build_fock"].add((args["op_spec"], args["cutoff"], args["form"]))


def _trajectory(args: dict, result: Any, counts: Counter, keys: dict) -> None:
    counts["classical.integrate_eom.steps"] += len(result.times) - 1
    p = args["params"]
    keys["classical.integrate_eom"].add((
        (str(p.m), str(p.gamma), str(p.k_spring)),
        tuple(float(v) for v in args["init"].as_array()),
        args["t_end"], args["dt"],
    ))


# Size counts taken from a call's arguments and result.
ON_RESULT: dict[str, Callable[[dict, Any, Counter, dict], None]] = {
    "reporting.write_report": _report_bytes,
    "operators.op_compose": _compose_terms,
    "vacuum.gaussian_ansatz_solve": _ansatz_equations,
    "fock.build_fock": _fock_matrix,
    "classical.integrate_eom": _trajectory,
}


class Tracer:
    """Spans and counters of one replay, kept in memory until ``record``."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.undo: list[Callable[[], None]] = []

    def open(self, name: str) -> list:
        span = [len(self.spans), name, time.perf_counter(), None,
                self.stack[-1] if self.stack else None, self.run_id]
        self.spans.append(span)
        self.stack.append(span[0])
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self.stack.pop()

    def spanned(self, name: str, fn: Callable) -> Callable:
        hook = ON_RESULT.get(name)
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result, self.counts, self.keys)
            return result

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Replace every binding of the traced functions in the program's modules."""
        import bateman.cli  # noqa: F401  (loads every layer)
        from bateman import field

        modules = [m for n, m in list(sys.modules.items())
                   if n == "bateman" or n.startswith("bateman.")]
        for layer, names in SPANNED.items():
            for fname in names:
                orig = getattr(sys.modules[f"bateman.{layer}"], fname)
                self._rebind(modules, orig, self.spanned(f"{layer}.{fname}", orig))
        for layer, names in COUNTED.items():
            for fname in names:
                orig = getattr(sys.modules[f"bateman.{layer}"], fname)
                self._rebind(modules, orig, self.counted(f"{layer}.{fname}.calls", orig))
        for attr, name in COEFF_COUNTED.items():
            orig = getattr(field.Coeff, attr)
            setattr(field.Coeff, attr, self.counted(name, orig))
            self.undo.append(lambda attr=attr, orig=orig: setattr(field.Coeff, attr, orig))

    def _rebind(self, modules: list, orig: Callable, wrapper: Callable) -> None:
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, key, wrapper)
                    self.undo.append(lambda module=module, key=key: setattr(module, key, orig))
                elif isinstance(value, dict):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is orig:
                            value[dkey] = wrapper
                            self.undo.append(lambda d=value, k=dkey: d.__setitem__(k, orig))

    def uninstall(self) -> None:
        """Put every binding that ``install`` replaced back."""
        while self.undo:
            self.undo.pop()()

    def record(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": self.spans,
            "counts": dict(self.counts),
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
        }


def replay(workload: str, seed: int, out: Path) -> dict:
    """Run the workload once in this process; return what the gate needs."""
    import exact_ops
    import run

    if workload == "exact-ops":
        outcome = exact_ops.run_jobs(exact_ops.make_jobs(seed))
        return {"failures": outcome["failures"], "jobs": len(outcome["latencies_ms"])}
    import bateman.cli

    return {"rc": bateman.cli.main([*run.cli_argv(workload, seed), "--out", str(out)])}


def main() -> int:
    parser = argparse.ArgumentParser(description="traced in-process replay of one workload")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True,
                        help="directory for the reports, one subdirectory per replay")
    parser.add_argument("--record", type=Path, required=True, help="JSON file for spans and counts")
    parser.add_argument("--traced-first", action="store_true",
                        help="run the traced replay before the untraced one")
    args = parser.parse_args()
    import bateman.cli  # noqa: F401  (both replays start with every layer loaded)

    # The same replay untraced and traced: the difference is the tracing
    # overhead.  A second replay in one process runs warm, so callers run
    # both orders and average.
    tracer = Tracer(run_id=f"{args.workload}:{args.seed}")
    outcomes = {}
    for name in ("traced", "untraced") if args.traced_first else ("untraced", "traced"):
        if name == "untraced":
            start = time.perf_counter()
            outcomes[name] = replay(args.workload, args.seed, args.out / name)
            untraced_s = time.perf_counter() - start
        else:
            tracer.install()
            root = tracer.open(ROOT_SPAN)
            outcomes[name] = replay(args.workload, args.seed, args.out / name)
            tracer.close(root)
            tracer.uninstall()
    args.record.write_text(json.dumps({**tracer.record(), "untraced_s": untraced_s,
                                       "outcomes": outcomes}))
    return max(outcome.get("rc", 0) for outcome in outcomes.values())


if __name__ == "__main__":
    sys.exit(main())
