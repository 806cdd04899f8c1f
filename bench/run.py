"""Benchmark of entloc's standard result set.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout of the repository; entloc is imported from its `src`.
The run:

1. starts bench/worker.py in a fresh single-process interpreter with BLAS
   threads fixed to one and ENTLOC_THREADS unset, which runs as many whole
   rounds of the workload as fit in `--seconds` (at least one; with
   `--trace 1`, at least three, alternating untraced and traced) and, in
   untraced runs, times fresh interpreters until `entloc.cli` is imported
   before the first round and after every round (`setup_s` is their median).
   Every interpreter it starts keeps its bytecode under
   `.bench_out/pycache/`, written by the worker's own imports and one
   untimed start, so each timed start reads compiled entloc, numpy and
   standard library modules, whatever `__pycache__` the checkout holds;
2. checks every command of every round against references computed apart
   from entloc (check.py, reference.py). A command fails when it exits
   non-zero or its output fails its check;
3. prints, as its last line, one JSON object with `correct`, `attempted`,
   `failed` and the end-to-end metrics (`--trace 0`) or the per-layer
   metrics (`--trace 1`), each with its unit.

Every command time it reports is scaled to the reference machine speed by
the calibration kernel timed just before and after the command
(calibration.py); the unscaled median goes to standard error. `setup_s` is
not scaled.

Outputs go under `.bench_out/<workload>/` in the checkout. It exits 2 without
a result when the checkout has no entloc sources or the worker fails.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads, here and in every child
os.environ.pop("ENTLOC_THREADS", None)

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from calibration import scales  # noqa: E402
from workloads import WORKLOADS, build, inputs  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "cells_per_s": "1/s",
    "slowest_cmd_s": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
PER_LAYER = {
    "cli.self_ms_per_cmd": "ms", "cli.emit_csv_us_per_row": "us",
    "cli.emit_json_us_per_row": "us", "cli.parse_us_per_row": "us",
    "cli.bytes_written": "B",
    "spin.self_us_per_cell": "us", "spin.cells": "count",
    "linalg.validate_calls": "count", "linalg.validate_us": "us",
    "linalg.eigen_calls": "count", "linalg.eigen_us": "us",
    "linalg.eigen_n3_sum": "count", "linalg.eigen_useful_ratio": "ratio",
    "linalg.negativity_us": "us",
    "oscillator.kernel_points": "count", "oscillator.kernel_us_per_cell": "us",
    "oscillator.density_points": "count",
    "quadrature.calls_1d": "count", "quadrature.calls_2d": "count",
    "quadrature.us_per_call_2d": "us", "quadrature.nodes_2d": "count",
    "quadrature.useful_ratio_2d": "ratio",
    "restrict.one_cell_us": "us", "restrict.both_cell_us": "us",
    "restrict.self_us_per_cell": "us", "restrict.basis_us": "us",
    "restrict.empty_cells": "count",
    "correlate.prob_cell_us": "us", "correlate.fit_ms": "ms",
    "distribution.construct_us": "us",
    "trace.overhead_pct": "%",
}
# Exact counts: the same inputs give the same value on every traced round.
EXACT = {"cli.bytes_written", "spin.cells", "linalg.validate_calls", "linalg.eigen_calls",
         "linalg.eigen_n3_sum", "oscillator.kernel_points", "oscillator.density_points",
         "quadrature.calls_1d", "quadrature.calls_2d", "quadrature.nodes_2d",
         "restrict.empty_cells"}
# Every run must end within 180 s; the worker gets what the set-up leaves.
RUN_LIMIT_S = 170.0


# Every interpreter the run starts reads and writes bytecode here and nowhere
# else, so the timed start-ups never depend on what other processes left in
# a `__pycache__` (see setup_seconds in worker.py).
PYCACHE = ROOT / ".bench_out" / "pycache"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONPYCACHEPREFIX"] = str(PYCACHE)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def cells_of(path: Path) -> int:
    """Surface rows a scan command wrote (CSV lines after the header, or JSON
    values); 0 when the command left no readable output."""
    try:
        if path.suffix == ".json":
            return len(json.loads(path.read_text())["values"])
        return len(path.read_text().splitlines()) - 1
    except (OSError, ValueError, KeyError):
        return 0


def check_rounds(ops, out: Path, rounds, seed: int) -> tuple[int, int]:
    """Check every operation of every round; report failures on stderr.

    Returns (failed, wrong): operations that exited non-zero or failed their
    check, and of those the ones that exited 0 with a wrong output.
    """
    from check import References, check
    refs = References(inputs(seed))
    failed = wrong = 0
    for k, rnd in enumerate(rounds):
        for op, code in zip(ops, rnd["codes"]):
            if code != 0:
                errors = [f"exit code {code}"]
            else:
                try:
                    errors = check(op, out / f"round{k}", refs)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if errors:
                failed += 1
                wrong += code == 0
                sys.stderr.write(f"FAILED round {k} {op.key} ({' '.join(op.argv)}):\n")
                for line in errors:
                    sys.stderr.write(f"    {line}\n")
    return failed, wrong


def scaled_times(rounds, calibrations) -> list[list[float]]:
    """Each command's time scaled to the reference machine speed by the
    calibrations taken just before and just after it."""
    factors = iter(scales(calibrations))
    return [[t * next(factors) for t in r["times"]] for r in rounds]


def end_to_end(ops, out: Path, times: list[list[float]], setup: float,
               peak_mib: float) -> dict:
    """Medians over the rounds of the scaled command times."""
    scans = [k for k, op in enumerate(ops) if op.scan]
    cells = sum(cells_of(out / "round0" / ops[k].output) for k in scans)
    return {
        "wall_s": statistics.median(sum(t) for t in times),
        "cells_per_s": statistics.median(cells / sum(t[k] for k in scans) for t in times),
        "slowest_cmd_s": statistics.median(max(t) for t in times),
        "peak_rss_mb": peak_mib,
        "setup_s": setup,
    }


def per_layer(rounds, layers, times: list[list[float]]) -> dict:
    """Medians over the traced rounds; each traced round's times are scaled by
    its scaled wall over its unscaled wall."""
    scale = [sum(t) / r["wall"] for r, t in zip(rounds, times) if r["traced"]]
    metrics = {}
    for name in layers[0]:
        values = [layer[name] for layer in layers]
        if name in EXACT and len(set(values)) > 1:
            sys.stderr.write(f"warning: count {name} differs between traced rounds: {values}\n")
        if PER_LAYER[name] in ("us", "ms"):
            values = [v * f for v, f in zip(values, scale)]
        metrics[name] = statistics.median(values)
    # The first round of a process runs slower on one-party-maps (by about a
    # quarter in every run seen), so the overhead compares later rounds only.
    walls = {flag: statistics.median(sum(t) for r, t in zip(rounds[1:], times[1:])
                                     if r["traced"] == flag) for flag in (True, False)}
    metrics["trace.overhead_pct"] = 100.0 * (walls[True] / walls[False] - 1.0)
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "entloc" / "cli.py").is_file():
        sys.stderr.write(f"no entloc sources under {SRC}; run from a checkout of the repository\n")
        return 2
    started = time.perf_counter()
    env = child_env()
    out = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)

    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    try:
        worker = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--out", str(out)],
            env=env, cwd=ROOT, timeout=budget, stdout=sys.stderr)
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"worker did not finish within {budget:.0f} s\n")
        return 2
    if worker.returncode != 0:
        sys.stderr.write(f"worker exited with code {worker.returncode}\n")
        return 2
    data = json.loads((out / "worker.json").read_text())
    rounds = data["rounds"]
    times = scaled_times(rounds, data["calibrations"])
    ops = build(args.workload, args.seed)
    failed, wrong = check_rounds(ops, out, rounds, args.seed)
    if args.trace:
        values = per_layer(rounds, data["layers"], times)
        units = PER_LAYER
        (out / "csv_sha256.json").write_text(json.dumps(data["csv_sha256"], indent=1))
    else:
        values = end_to_end(ops, out, times, statistics.median(data["setup"]),
                            data["peak_rss_mb"])
        units = END_TO_END
        raw_wall = statistics.median(r["wall"] for r in rounds)
        sys.stderr.write(f"unscaled median wall_s {raw_wall:.4f}\n")
    result = {
        "correct": wrong == 0,
        "attempted": len(rounds) * len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
