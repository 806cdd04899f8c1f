"""Timed process of one benchmark run: rounds of a workload through entloc.cli.run.

run.py starts this file in a fresh interpreter with BLAS threads fixed to
one and ENTLOC_THREADS unset. It imports entloc from the checkout's `src`,
then runs whole rounds of the workload's commands for `--seconds`: it
starts another round while one more, as long as the mean round so far,
still ends within that time. Each round runs in its own directory under
`--out`. With `--trace 1` untraced and traced rounds alternate, starting
untraced, for at least three rounds, so the tracing overhead is measured in
the same run; a traced round has every public entloc function wrapped (see
tracing.py). Untraced runs also time fresh interpreters until
`entloc.cli` is imported, before the first round and after every round. It
writes the timings, those start-up times, the calibration times taken
before the first command and after every command (calibration.py), the
peak resident memory and any per-layer metrics to `<out>/worker.json`;
run.py checks the outputs afterwards.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
sys.path[:0] = [str(SRC), str(BENCH)]

import entloc.cli  # noqa: E402  (the path above selects the checkout's entloc)

from calibration import Calibration  # noqa: E402
from workloads import build  # noqa: E402

# Fresh-start samples before the first round and after every round, so the
# median of `setup_s` sees the machine over the whole run and not one moment.
SETUP_SAMPLES_PER_GAP = 3


def run_round(ops, round_dir: Path, calibration: Calibration, calibrations: list) -> dict:
    """Run one round; time the calibration kernel after every command."""
    round_dir.mkdir(parents=True)
    os.chdir(round_dir)
    gc.collect()
    times, codes = [], []
    for op in ops:
        t0 = time.perf_counter()
        try:
            code = entloc.cli.run(list(op.argv))
        except Exception:  # an escaped traceback is a failed operation, not a crash
            traceback.print_exc()
            code = -1
        times.append(time.perf_counter() - t0)
        codes.append(code)
        calibrations.append(calibration.seconds())
    written = [round_dir / op.output for op in ops]
    return {"wall": sum(times), "times": times, "codes": codes,
            "bytes_written": sum(p.stat().st_size for p in written if p.exists())}


def setup_seconds() -> float:
    """Seconds from starting a fresh interpreter until entloc.cli is imported.

    The interpreter inherits PYTHONPYCACHEPREFIX from run.py and may write
    bytecode, so after the first start (see main) every start reads the same
    freshly compiled modules, and an edited source is compiled again once.
    """
    code = "import entloc.cli, sys; sys.stdout.write('ready\\n'); sys.stdout.flush()"
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code], cwd=SRC.parent,
                          stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.wait(timeout=60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError("entloc.cli failed to import in a fresh interpreter")
    return elapsed


def _another_round_fits(start: float, done: int, seconds: float) -> bool:
    """Whether one more round, as long as the mean so far, ends within `seconds`."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    if Path(entloc.cli.__file__).resolve().parent.parent != SRC:
        sys.stderr.write(f"imported entloc from {entloc.cli.__file__}, not from {SRC}\n")
        return 2
    ops = build(args.workload, args.seed)
    rounds, layers = [], []
    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
    calibration = Calibration()
    setup = []
    if not args.trace:
        setup_seconds()  # untimed: compiles anything the worker's imports left out
    start = time.perf_counter()
    calibrations = [calibration.seconds()]
    while len(rounds) < 1 + 2 * args.trace or _another_round_fits(start, len(rounds), args.seconds):
        if not args.trace:
            setup += [setup_seconds() for _ in range(SETUP_SAMPLES_PER_GAP)]
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        result = run_round(ops, args.out / f"round{len(rounds)}", calibration, calibrations)
        result["traced"] = traced
        rounds.append(result)
        if traced:
            tracer.uninstall()
            layers.append(layer_metrics(tracer.labels, tracer.arrays(), len(ops),
                                        result["bytes_written"]))
            tracer.save(args.out / "spans.npz")
    if not args.trace:
        setup += [setup_seconds() for _ in range(SETUP_SAMPLES_PER_GAP)]
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    hashes = {}
    if args.trace:
        traced_dir = args.out / "round1"
        hashes = {op.key: hashlib.sha256((traced_dir / op.output).read_bytes()).hexdigest()
                  for op in ops
                  if op.output.endswith(".csv") and (traced_dir / op.output).exists()}
    (args.out / "worker.json").write_text(json.dumps({
        "rounds": rounds, "calibrations": calibrations, "setup": setup,
        "peak_rss_mb": peak_mib, "layers": layers,
        "csv_sha256": hashes}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
