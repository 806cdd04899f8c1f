"""The checker passes today's outputs, fails a perturbed one, and the tracer counts exactly.

These tests run a few cheap commands through entloc itself; the checker and
the references never import it. Run with `python3 -m pytest bench/tests`.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import entloc.cli  # noqa: E402

import check  # noqa: E402
import run  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import build, inputs  # noqa: E402

CHEAP = ("spin_NF", "spin_NF_D", "spin_vanish", "both_case3", "converge", "both_case1",
         "both_case2", "joint_w05", "cond_w05", "fit_cond", "ineq")


def _ops(keys):
    every = {op.key: op for name in ("spin-landscapes", "one-party-maps", "two-party-maps")
             for op in build(name, 0)}
    return [every[k] for k in keys]


def _run(ops, directory: Path, monkeypatch):
    directory.mkdir(parents=True, exist_ok=True)
    monkeypatch.chdir(directory)
    return [entloc.cli.run(list(op.argv)) for op in ops]


def _perturb(path: Path, row: int, delta: float) -> None:
    lines = path.read_text().splitlines()
    cols = lines[row].split(",")
    cols[2] = f"{float(cols[2]) + delta:.12g}"
    lines[row] = ",".join(cols)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def refs():
    return check.References(inputs(0))


def test_todays_outputs_pass(tmp_path, monkeypatch, refs):
    ops = _ops(CHEAP)
    assert _run(ops, tmp_path / "round0", monkeypatch) == [0] * len(ops)
    for op in ops:
        assert check.check(op, tmp_path / "round0", refs) == [], op.key


@pytest.mark.parametrize("key,row", [("both_case3", 41), ("spin_NF", 100), ("both_case1", 5)])
def test_cell_off_by_005_ebit_is_a_failed_operation(tmp_path, monkeypatch, key, row):
    ops = _ops([key])
    _run(ops, tmp_path / "round0", monkeypatch)
    _perturb(tmp_path / "round0" / ops[0].output, row, 0.05)
    failed, wrong = run.check_rounds(ops, tmp_path, [{"codes": [0]}], seed=0)
    assert (failed, wrong) == (1, 1)


def test_nonzero_exit_is_failed_but_not_wrong(tmp_path):
    ops = _ops(["spin_vanish"])
    assert run.check_rounds(ops, tmp_path, [{"codes": [2]}], seed=0) == (1, 0)


def test_tracer_counts_exactly_and_restores(tmp_path, monkeypatch):
    original = entloc.cli.run
    tracer = Tracer()
    tracer.install()
    try:
        monkeypatch.chdir(tmp_path)
        assert entloc.cli.run(["spin-negativity-scan", "--f-range", "0.0625", "1", "128",
                               "-o", "sweep.csv"]) == 0
        assert entloc.cli.run(["gauss-one-restricted", "--alpha", "6", "--qbar", "0",
                               "--width", "1", "-o", "point.json"]) == 0
    finally:
        tracer.uninstall()
    assert entloc.cli.run is original
    m = layer_metrics(tracer.labels, tracer.arrays(), commands=2, bytes_written=0)
    assert m["spin.cells"] == 128
    assert m["linalg.eigen_calls"] == 129
    assert m["linalg.eigen_n3_sum"] == 128 * 16 ** 3 + 201 ** 3
    assert m["linalg.validate_calls"] == 2 * 128 + 1
    assert m["quadrature.calls_1d"] == 1
    assert m["oscillator.kernel_points"] == 201 ** 2
    assert m["restrict.one_cell_us"] > 0 and m["cli.self_ms_per_cmd"] > 0


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "spin-landscapes",
                           "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
