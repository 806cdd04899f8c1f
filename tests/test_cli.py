import contextlib
import io
import json
import math
import re
import shlex
import struct
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entloc.correlate
import entloc.errors
import entloc.restrict
from entloc import cli
from entloc.cli import (
    emit_distribution,
    parse_distribution,
    run,
)
from entloc.correlate import fit_surface, sigma_vs_alpha_scan
from entloc.distribution import Distribution2D, scan_axis
from entloc.restrict import _two_party_orbits


F_SWEEP = ["spin-negativity-scan", "--f-range", "0.0625", "1", "3"]
ONE_CELL = ["gauss-one-restricted", "--alpha", "6", "--qbar", "0", "--width", "2"]
ONE_MAP = ["gauss-one-restricted", "--alpha", "6", "--centers", "-1", "1", "3"]
BOTH = ["gauss-both-restricted", "--alpha", "6", "--width", "1"]
BOTH_MAP = BOTH + ["--centers", "-1", "1", "3"]
ANALYTIC = ["gauss-sigma-scan", "--alphas", "1", "--which", "small-a-analytic"]
INEQUALITY = ["gauss-inequality", "--alpha", "6", "--grid-a", "2", "--grid-b", "2"]

# (argv, flag): a flag given on the command line that the chosen mode does
# not read, or that no subcommand of that name has
REFUSED = [
    (F_SWEEP + ["--steps", "4"], "--steps"),
    (F_SWEEP + ["--theta-min", "0.1"], "--theta-min"),
    (F_SWEEP + ["--theta-max", "3"], "--theta-max"),
    (F_SWEEP + ["--surface", "value"], "--surface"),
    (F_SWEEP + ["--f-value", "0.5"], "--f-value"),
    (["spin-negativity-scan", "--steps", "3", "--theta1", "0.5"], "--theta1"),
    (["spin-negativity-scan", "--steps", "3", "--theta2", "0.5"], "--theta2"),
    (ONE_CELL + ["--widths", "1,2"], "--widths"),
    (ONE_CELL + ["--surface", "rescaled"], "--surface"),
    (ONE_MAP + ["--widths", "1", "--qbar", "0"], "--qbar"),
    (ONE_MAP + ["--widths", "1", "--width", "2"], "--width"),
    (BOTH_MAP + ["--mode", "profile-equal", "--width-b", "2"], "--width-b"),
    (BOTH_MAP + ["--mode", "profile-fixed", "--width-b", "2"], "--width-b"),
    (BOTH + ["--qbar-a", "0", "--qbar-b", "0", "--bob-center", "1"], "--bob-center"),
    (BOTH_MAP + ["--mode", "grid", "--bob-center", "1"], "--bob-center"),
    (BOTH_MAP + ["--mode", "profile-equal", "--bob-center", "1"], "--bob-center"),
    (BOTH_MAP + ["--mode", "grid", "--qbar-a", "0"], "--qbar-a"),
    (BOTH_MAP + ["--mode", "profile-equal", "--qbar-b", "0"], "--qbar-b"),
    (BOTH_MAP + ["--mode", "profile-fixed", "--qbar-a", "0"], "--qbar-a"),
    (BOTH + ["--qbar-a", "0", "--qbar-b", "0", "--centers", "-1", "1", "3"], "--centers"),
    (ANALYTIC + ["--width", "1"], "--width"),
    (ANALYTIC + ["--extent", "3"], "--extent"),
    (ANALYTIC + ["--steps", "9"], "--steps"),
    (INEQUALITY + ["--nd-center", "0"], "--nd-center"),
    (INEQUALITY + ["--nd-half-width", "1"], "--nd-half-width"),
    (["gauss-fit", "--input", "map.csv", "--seed", "3"], "--seed"),
    # flags that were removed: they never changed a result
    (BOTH_MAP + ["--mode", "grid", "--workers", "2"], "--workers"),
    (["gauss-constants", "--alpha", "6", "--seed", "1"], "--seed"),
    (["spin-scan", "--steps", "3", "--f-value", "0.5"], "--f-value"),
    (ONE_CELL + ["--method", "basis", "--quadrature-order", "8"], "--quadrature-order"),
]


# centres and widths far out, at the float range's ends and below any
# resolvable width
FAR = [0.0, 0.5, -0.5, 1e16, -1e16, 1e200, -1e200, 1e308, -1e308, 5e-324, 1e-300]
# the error names that exit code 2 documents: the library's and NumericalFailure
LIBRARY_ERRORS = {name for name, value in vars(entloc.errors).items()
                  if isinstance(value, type) and issubclass(value, entloc.errors.EntlocError)
                  } | {"NumericalFailure"}


def _surface_text(cells) -> str:
    return "q_bar_A,q_bar_B,value,prob,flag\n" + "".join(
        f"{a},{b},{v},0.1,ok\n" for a, b, v in cells)


_GRID = [(a, b, 1.0 - 0.1 * (a * a + b * b)) for a in (-1, 0, 1) for b in (-1, 0, 1)]
# surfaces whose every row parses but that are no surface: (text, what the
# refusal names)
MALFORMED = [
    (_surface_text([("nan", -1, 1.0)] + _GRID[1:]), "row 1"),        # NaN axis value
    (_surface_text(_GRID[:4] + [(0, "inf", 1.0)] + _GRID[5:]), "row 5"),  # infinite axis
    (_surface_text(_GRID[:4] + [(0, 0, "inf")] + _GRID[5:]), "row 5"),    # infinite value
    (_surface_text(_GRID + [(0, 0, 0.5)]), "(0.0, 0.0)"),             # cell given twice
    (_surface_text(_GRID[:-2]), "(1.0, 0.0)"),                        # last rows cut off
]
MALFORMED_SURFACES = [text for text, _ in MALFORMED]
_BIG = [(a, b, 0.5) for a in range(30) for b in range(30)]  # several parse blocks


def run_capture(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def in_map_dir(tmp_path, monkeypatch):
    """Run in a directory that holds a surface map.csv and a config seed.json
    with a negative seed."""
    monkeypatch.chdir(tmp_path)
    x = np.linspace(-2.0, 2.0, 9)
    emit_distribution(Distribution2D(axis_a=x, axis_b=x,
                                     values=np.exp(-np.add.outer(x * x, x * x))),
                      "map.csv", "csv")
    Path("seed.json").write_text('{"seed": -1}')


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        code, _, err = run_capture(capsys, ["frobnicate"])
        assert code == 1
        assert json.loads(err)["error"] == "UnknownSubcommand"

    def test_no_arguments(self, capsys):
        code, _, err = run_capture(capsys, [])
        assert code == 1

    def test_bad_flag(self, capsys):
        code, _, err = run_capture(capsys, ["gauss-constants", "--alpha", "x"])
        assert code == 1
        assert json.loads(err)["error"] == "UsageError"

    @pytest.mark.parametrize("argv,error", [
        # the 1988 nodes of width 1 at alpha 1e12 are past the cap of 512
        (["--alpha", "1e12", "--widths", "1"], "QuadratureNotConverged"),
        (["--alpha", "6", "--qbar", "50", "--widths", "0.4"], "EmptyRegionMass"),
        # the coarse grid of 3 bins has 1 bin
        (["--alpha", "6", "--n-bins", "3"], "DomainError"),
    ])
    def test_converge_refusals(self, capsys, argv, error):
        code, out, err = run_capture(capsys, ["gauss-converge"] + argv)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error

    @settings(max_examples=60, deadline=None)
    @given(command=st.sampled_from(["grid", "basis", "both", "inequality"]),
           center=st.sampled_from(FAR), other=st.sampled_from(FAR),
           width=st.sampled_from(FAR), n_bins=st.sampled_from([None, "20"]))
    # a region whose ends round to one value
    @example(command="grid", center=1e16, other=0.0, width=0.5, n_bins=None)
    @example(command="grid", center=0.5, other=0.0, width=1e-300, n_bins=None)
    # a cell whose Gauss-Legendre midpoint overflowed
    @example(command="both", center=1e308, other=0.0, width=0.5, n_bins=None)
    @example(command="both", center=1e308, other=0.0, width=0.5, n_bins="20")
    # Bob's offsets from the conditional mean overflowed
    @example(command="both", center=1e308, other=-1e308, width=0.5, n_bins=None)
    def test_far_point_cells_end_in_json(self, command, center, other, width, n_bins):
        # exit 0 with a JSON document, or exit 2 with one JSON line naming a
        # library error; never a warning or a traceback
        argv = {
            "grid": ["gauss-one-restricted", "--qbar", repr(center), "--width", repr(width),
                     "--n-bins", "20"],
            "basis": ["gauss-one-restricted", "--qbar", repr(center), "--width", repr(width),
                      "--method", "basis", "--n-basis", "4"],
            "both": ["gauss-both-restricted", "--qbar-a", repr(center), "--qbar-b", repr(other),
                     "--width", repr(width)] + (["--n-bins", n_bins] if n_bins else []),
            "inequality": ["gauss-inequality", "--grid-a", "2", "--grid-b", "2",
                           "--nd-center", repr(center), "--nd-half-width", repr(width)],
        }[command]
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = run(argv + ["--alpha", "6"])
        out, err = out.getvalue(), err.getvalue()
        assert [str(warning.message) for warning in caught] == []
        assert code in (0, 2)
        if code == 0:
            assert err == "" and isinstance(json.loads(out), dict)
        else:
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["error"] in LIBRARY_ERRORS

    @pytest.mark.parametrize("qbar,width", [
        ("1e16", "1"), ("-1e16", "0.5"), ("1e200", "0.5"), ("-1e200", "0.5"),
        ("1e308", "0.5"), ("-1e308", "0.5"), ("0.5", "1e-300")])
    @pytest.mark.parametrize("method", [[], ["--method", "basis"]], ids=["grid", "basis"])
    def test_region_whose_ends_round_to_one_value_is_empty(self, capsys, qbar, width, method):
        # center -+ width / 2 round to one float: no mass, and no quadrature
        code, out, err = run_capture(capsys, ["gauss-one-restricted", "--alpha", "6", "--qbar",
                                              qbar, "--width", width] + method)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "EmptyRegionMass"
        assert error["message"].endswith(" carries mass 0.000e+00")

    def test_single_grid_cell_integrates_its_mass_once(self, capsys, monkeypatch):
        calls = []
        integrate = entloc.restrict.integrate_1d
        monkeypatch.setattr(entloc.restrict, "integrate_1d",
                            lambda *a: calls.append(a[1:]) or integrate(*a))
        assert run_capture(capsys, ONE_CELL)[0] == 0
        assert calls == [(-1.0, 1.0)]
        assert run_capture(capsys, ONE_CELL[:4] + ["1e16"] + ONE_CELL[5:])[0] == 2
        assert calls == [(-1.0, 1.0)]

    @pytest.mark.parametrize("n_bins", [[], ["--n-bins", "20"]], ids=["legendre", "grid"])
    def test_cell_at_the_largest_centre_is_empty_without_overflow(self, capsys, n_bins):
        # filterwarnings = error turns an overflow warning of a midpoint into a failure
        code, out, err = run_capture(capsys, ["gauss-both-restricted", "--alpha", "6",
                                              "--qbar-a", "1e308", "--qbar-b", "0",
                                              "--width", "0.5"] + n_bins)
        assert (code, out) == (2, "")
        assert json.loads(err) == {
            "error": "EmptyRegionMass",
            "message": "regions [1e+308, 1e+308] x [-0.25, 0.25] carry a joint mass below 1e-14"}

    def test_numerical_failure(self, capsys):
        code, _, err = run_capture(capsys, [
            "gauss-one-restricted", "--alpha", "6",
            "--qbar", "50", "--width", "0.5"])
        assert code == 2
        assert json.loads(err)["error"] == "EmptyRegionMass"

    @pytest.mark.parametrize("argv,code,error", [
        (["gauss-one-restricted", "--alpha", "6", "--qbar", "0", "--width", "-1"],
         2, "DomainError"),
        (["gauss-one-restricted", "--alpha", "6", "--qbar", "0", "--width", "1",
          "--n-bins", "1"], 2, "DomainError"),
        (["spin-scan", "--steps", "1"], 1, "UsageError"),
        (["gauss-classical-map", "--alpha", "6", "--width", "0.5", "--width-b", "0",
          "--centers", "-1", "1", "3"], 2, "DomainError"),
        (["gauss-one-restricted", "--alpha", "1e12", "--centers", "-1", "1", "3",
          "--widths", "0.5,1"], 2, "QuadratureNotConverged"),
        (["gauss-one-restricted", "--alpha", "6", "--centers", "-1", "1", "3",
          "--widths", "1", "--method", "basis"], 2, "DomainError"),
        # a flag the chosen method never reads
        (["gauss-one-restricted", "--alpha", "6", "--qbar", "0", "--width", "2",
          "--method", "basis", "--n-bins", "40"], 1, "UsageError"),
        (["gauss-one-restricted", "--alpha", "6", "--qbar", "0", "--width", "2",
          "--n-basis", "20"], 1, "UsageError"),
        (["gauss-one-restricted", "--alpha", "6", "--centers", "-1", "1", "3",
          "--widths", "1", "--n-basis", "5"], 1, "UsageError"),
        (["gauss-one-restricted", "--alpha", "6", "--centers", "-1", "1", "3",
          "--widths", "1", "--method", "basis", "--n-basis", "5"], 1, "UsageError"),
        # an F sweep has no delta surface; an F outside [1/16, 1] is the library's to refuse
        (["spin-negativity-scan", "--f-range", "0.0625", "1", "3", "--surface", "delta"],
         1, "UsageError"),
        (["spin-negativity-scan", "--steps", "3", "--f-value", "7"], 2, "DomainError"),
        *[(argv, 1, "UsageError") for argv, _ in REFUSED],
        # a fit threshold or window that selects no meaningful samples
        *[(["gauss-fit", "--input", "map.csv", flag, value], 2, "DomainError")
          for flag, value in (("--threshold", "nan"), ("--threshold", "inf"),
                              ("--window", "nan"), ("--window", "inf"),
                              ("--window", "0"), ("--window", "-1"))],
        # a finite width whose node count overflows a float
        (["gauss-one-restricted", "--alpha", "6", "--centers", "-1", "1", "3",
          "--widths", "1e308"], 2, "QuadratureNotConverged"),
        (["gauss-both-restricted", "--alpha", "6", "--mode", "grid", "--centers", "-1", "1",
          "3", "--width", "1e308"], 2, "QuadratureNotConverged"),
        (["gauss-classical-map", "--alpha", "6", "--centers", "-1", "1", "3",
          "--width", "1e308"], 2, "QuadratureNotConverged"),
        # one-party widths whose nodes would all lie where the kernel underflows
        (["gauss-one-restricted", "--alpha", "0", "--centers", "-1", "1", "3",
          "--widths", "1e200"], 2, "QuadratureNotConverged"),
        (["gauss-one-restricted", "--alpha", "0", "--centers", "-1", "1", "3",
          "--widths", "1e5"], 2, "QuadratureNotConverged"),
        # the sigma scan's axis is the library's to refuse
        (["gauss-sigma-scan", "--alphas", "6", "--steps", "-1"], 2, "DomainError"),
        (["gauss-sigma-scan", "--alphas", "6", "--steps", "1"], 2, "DomainError"),
        # the single grid cell needs the 1988 nodes of its width, as the map does;
        # on 201 points it returned 7.644 ebit, about log2 201
        (["gauss-one-restricted", "--alpha", "1e12", "--qbar", "0", "--width", "1"],
         2, "QuadratureNotConverged"),
    ])
    def test_rule_cli_rejects_1_library_rejects_2(self, capsys, in_map_dir, argv, code, error):
        got, _, err = run_capture(capsys, argv)
        assert got == code
        assert json.loads(err)["error"] == error

    @pytest.mark.parametrize("argv,error", [
        # ranges whose bounds or span are not finite, refused before numpy
        # computes an axis of nan
        (["gauss-inequality", "--alpha", "6", "--extent", "inf"], "DomainError"),
        (["gauss-inequality", "--alpha", "6", "--extent", "1e308", "--grid-a", "2"],
         "DomainError"),
        (["gauss-sigma-scan", "--alphas", "1", "--extent", "inf"], "DomainError"),
        (["gauss-one-restricted", "--alpha", "6", "--centers", "-1e308", "1e308", "3",
          "--widths", "1"], "DomainError"),
        (["spin-scan", "--steps", "3", "--theta-max", "inf"], "DomainError"),
        (["spin-negativity-scan", "--f-range", "0.0625", "inf", "3"], "DomainError"),
        # the noise of a gauss-fit jitter: a seed numpy refuses, a noise amplitude
        # that is not finite, and noisy values that overflow
        (["gauss-fit", "--input", "map.csv", "--jitter", "0.1", "--seed", "-1"],
         "DomainError"),
        (["gauss-fit", "--input", "map.csv", "--jitter", "0.1", "--config", "seed.json"],
         "DomainError"),
        (["gauss-fit", "--input", "map.csv", "--jitter", "inf"], "DomainError"),
        (["gauss-fit", "--input", "map.csv", "--jitter", "1e308"], "NumericalFailure"),
    ])
    def test_non_finite_input_ends_in_one_json_line(self, capsys, in_map_dir, argv, error):
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == error

    @pytest.mark.parametrize("argv,flag", REFUSED + [
        (ONE_CELL + ["--method", "basis", "--n-bins", "40"], "--n-bins"),
        (ONE_CELL + ["--n-basis", "20"], "--n-basis"),
        (ONE_MAP + ["--widths", "1", "--n-basis", "5"], "--n-basis"),
        (F_SWEEP + ["--surface", "delta"], "--surface"),
    ])
    def test_refusal_names_the_flag(self, capsys, argv, flag):
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (1, "")
        assert flag in re.findall(r"--[a-z0-9-]+", json.loads(err)["message"])

    @pytest.mark.parametrize("flag", ["--m", "--omega"])
    @pytest.mark.parametrize("subcommand", [
        "gauss-constants", "gauss-one-restricted", "gauss-both-restricted", "gauss-limits",
        "gauss-classical-map", "gauss-inequality", "gauss-converge"])
    def test_mass_and_frequency_flags_are_gone(self, capsys, subcommand, flag):
        # the model is its coupling alone; lengths are in units of 1/sqrt(m omega)
        calls = [[subcommand, "--alpha", "6", flag, "2"]]
        if subcommand == "gauss-both-restricted":
            # a whole grid-map call, but --m does not abbreviate --mode
            calls.append(BOTH_MAP + [flag, "grid"])
        for argv in calls:
            code, out, err = run_capture(capsys, argv)
            assert code == 1 and out == ""
            assert len(err.splitlines()) == 1
            assert json.loads(err)["error"] == "UsageError"

    @pytest.mark.parametrize("subcommand", list(cli._SUBCOMMANDS))
    def test_abbreviated_flags_refused(self, capsys, subcommand):
        # a strict prefix of a long flag that is not itself a flag is unknown
        flags = {name for action in cli._build_parser(subcommand)._actions
                 for name in action.option_strings if name.startswith("--")}
        prefixes = {flag[:end] for flag in flags for end in range(3, len(flag))} - flags
        assert prefixes
        for prefix in sorted(prefixes):
            code, out, err = run_capture(capsys, [subcommand, prefix])
            assert (code, out) == (1, "")
            assert len(err.splitlines()) == 1
            assert json.loads(err) == {"error": "UsageError",
                                       "message": f"unrecognized arguments: {prefix}"}

    @pytest.mark.parametrize("argv,text", [
        (F_SWEEP[:-1] + ["3.9"], "0.0625 1 3.9"),
        (["gauss-both-restricted", "--alpha", "6", "--mode", "grid", "--width", "1",
          "--centers", "-4", "4", "40.7"], "-4 4 40.7"),
        (ONE_MAP[:-1] + ["nan", "--widths", "1"], "-1 1 nan"),
        (["gauss-classical-map", "--alpha", "6", "--width", "1",
          "--centers", "-4", "4", "inf"], "-4 4 inf"),
    ])
    def test_steps_that_are_no_whole_number_refused(self, capsys, argv, text):
        code, out, err = run_capture(capsys, argv)
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {
            "error": "UsageError", "message": f"range {text} needs a whole number of steps"}

    def test_steps_from_a_config_file_must_be_whole(self, capsys, tmp_path):
        map_argv = ["gauss-classical-map", "--alpha", "6", "--width", "1"]
        config = tmp_path / "axis.json"
        config.write_text(json.dumps({"centers": [-4, 4, 40.7]}))
        code, out, err = run_capture(capsys, map_argv + ["--config", str(config)])
        assert (code, out) == (1, "")
        assert json.loads(err)["error"] == "UsageError"
        # a whole number written as a float is that many steps
        config.write_text(json.dumps({"centers": [-4, 4, 41.0]}))
        code, whole, _ = run_capture(capsys, map_argv + ["--config", str(config)])
        assert code == 0
        code, flag, _ = run_capture(capsys, map_argv + ["--centers", "-4", "4", "41.0"])
        assert code == 0
        assert run_capture(capsys, map_argv + ["--centers", "-4", "4", "41"])[1] == whole == flag
        assert len(whole.splitlines()) == 1 + 41 * 41

    @pytest.mark.parametrize("argv", [
        ["gauss-constants", "--alpha", "1e300"],
        ["gauss-one-restricted", "--alpha", "1e300", "--qbar", "0", "--width", "1"],
        ["gauss-constants", "--alpha", repr(2.0 ** 210)],
    ])
    def test_coupling_past_the_limit_refused_without_warnings(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_capture(capsys, argv)
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "DomainError"
        assert f"alpha {float(argv[2])!r} " in error["message"]

    @pytest.mark.parametrize("argv,rows", [
        (["gauss-classical-map", "--alpha", "6", "--centers", "-1e200", "1e200", "3",
          "--width", "1"],
         ["0,0,0.283764950371,nan,ok", "0,1e+200,0,nan,ok", "1e+200,1e+200,0,nan,ok"]),
        (["gauss-both-restricted", "--alpha", "6", "--mode", "grid", "--centers", "-1e200",
          "1e200", "3", "--width", "1"],
         ["0,0,0.0504139497748,0.283764950371,ok", "0,1e+200,0,0,empty",
          "1e+200,1e+200,0,0,empty"]),
    ])
    def test_far_centres_write_zero_mass_without_overflow(self, capsys, argv, rows):
        # a centre's square would overflow past about 1.3e154; filterwarnings
        # = error turns the overflow warning into a failure here
        code, out, err = run_capture(capsys, argv)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 10
        assert [lines[5], lines[6], lines[9]] == rows

    def test_far_sigma_scan_extent_refused_without_overflow(self, capsys):
        code, out, err = run_capture(capsys, ["gauss-sigma-scan", "--alphas", "1",
                                              "--extent", "1e300"])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "InsufficientSupport"

    @pytest.mark.parametrize("extent", ["1e6", "1e8", "1e9"])
    def test_wide_uniform_partition_reaches_the_node_cap(self, capsys, extent):
        # the partition's own segment ends round apart by more than 1e-9 from
        # 1e8 on; its cells need more nodes than the cap
        code, out, err = run_capture(capsys, ["gauss-inequality", "--alpha", "6", "--extent",
                                              extent, "--grid-a", "3", "--grid-b", "3"])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "QuadratureNotConverged"

    def test_largest_coupling_gives_finite_constants(self, capsys):
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_capture(capsys, [
                "gauss-constants", "--alpha", repr(float(np.nextafter(2.0 ** 210, 0.0)))])
        assert code == 0
        constants = json.loads(out, parse_constant=refuse)
        assert constants["w"] < 1.0 and constants["eof"] > 50.0

    def test_node_cap_refused_without_large_allocation(self, capsys):
        tracemalloc.start()
        try:
            code, _, err = run_capture(capsys, [
                "gauss-both-restricted", "--alpha", "1e10", "--width", "10",
                "--qbar-a", "0", "--qbar-b", "0"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 2
        assert json.loads(err)["error"] == "QuadratureNotConverged"
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv,bound", [
        # its kernel's spectral rule has 19807 nodes, past the 512-node cap
        (["--alpha", "1e12", "--width", "10"], 1 << 20),
        # 1988 spectral nodes: it returned 5.32 ebit, close to log2 40 functions
        (["--alpha", "1e12", "--width", "1"], 1 << 20),
        # a million functions would need 1.6e6 nodes, an 18 TiB kernel
        (["--alpha", "6", "--width", "1", "--n-basis", "1000000"], 1 << 20),
    ])
    def test_basis_kernel_budget_refused_before_its_kernel(self, capsys, argv, bound):
        tracemalloc.start()
        try:
            code, out, err = run_capture(capsys, [
                "gauss-one-restricted", "--qbar", "0", "--method", "basis", *argv])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "QuadratureNotConverged"
        assert peak < bound

    @pytest.mark.parametrize("argv", [
        # the uniform grid's amplitude would be 100001^2 doubles, 74.5 GiB
        BOTH + ["--qbar-a", "0", "--qbar-b", "0", "--n-bins", "100000"],
        ["gauss-inequality", "--alpha", "6", "--n-bins", "100000"],
    ])
    def test_large_two_party_grid_on_its_gauss_rule(self, capsys, argv):
        tracemalloc.start()
        try:
            code, out, err = run_capture(capsys, argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, err) == (0, "")
        assert json.loads(out)
        assert peak < 4 << 20

    @pytest.mark.parametrize("n_bins", [10 ** 200, 10 ** 400, 2 ** 63 - 1])
    @pytest.mark.parametrize("argv", [
        BOTH + ["--mode", "point", "--qbar-a", "0", "--qbar-b", "0"],
        ONE_MAP + ["--widths", "1"],
        ["gauss-converge", "--alpha", "6"],
        ["gauss-inequality", "--alpha", "6"],
    ])
    def test_bin_count_past_an_index_refused(self, capsys, argv, n_bins):
        code, out, err = run_capture(capsys, argv + ["--n-bins", str(n_bins)])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        error = json.loads(err)
        assert error["error"] == "DomainError"
        assert "n_bins" in error["message"]
        # up to the largest count whose n_bins + 1 points numpy can index, it runs
        for fine in (2 ** 62, 2 ** 63 - 2):
            code, out, err = run_capture(capsys, argv + ["--n-bins", str(fine)])
            assert (code, err) == (0, "")

    def test_two_party_grid_cell_past_the_node_cap_refused(self, capsys):
        # 201 grid points at alpha 1e12 would give log2(201) = 7.65 ebit; the
        # width's rule needs 1988 nodes
        code, out, err = run_capture(capsys, [
            "gauss-both-restricted", "--alpha", "1e12", "--width", "1", "--qbar-a", "0",
            "--qbar-b", "0", "--n-bins", "200"])
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "QuadratureNotConverged"

    def test_single_cell_kernel_budget_refused_before_its_kernel(self, capsys):
        tracemalloc.start()
        try:
            code, out, err = run_capture(capsys, [
                "gauss-one-restricted", "--alpha", "6", "--qbar", "0", "--width", "1",
                "--n-bins", "100000"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "QuadratureNotConverged"
        assert peak < 1 << 20

    def test_one_party_map_width_refused_by_its_own_rule(self, capsys, tmp_path):
        # the map builds nothing on Bob's side, so a width his conditional
        # support could not take is accepted when Alice's rule (384 nodes) is
        out = tmp_path / "one.csv"
        code, _, err = run_capture(capsys, [
            "gauss-one-restricted", "--alpha", "1e6", "--centers", "-1", "1", "3",
            "--widths", "6", "--output", str(out)])
        assert (code, err) == (0, "")
        code, single, _ = run_capture(capsys, [
            "gauss-one-restricted", "--alpha", "1e6", "--qbar", "1", "--width", "6"])
        assert code == 0
        row = out.read_text().splitlines()[3].split(",")
        assert row[0] == "1" and row[4] == "ok"
        assert float(row[2]) == pytest.approx(json.loads(single)["entanglement"], abs=1e-10)

    def test_masses_past_the_node_cap_still_computed(self, capsys, tmp_path):
        # 1988 nodes per region: too many for Schmidt weights, not for masses;
        # the expected values are the former 2-d adaptive quadrature's output
        out = tmp_path / "joint.csv"
        code, _, _ = run_capture(capsys, [
            "gauss-classical-map", "--alpha", "1e8", "--width", "10",
            "--centers", "-1", "1", "3", "--output", str(out)])
        assert code == 0
        assert out.read_text().splitlines()[1:4] == [
            "-1,-1,0.999999992032,nan,ok",
            "-1,0,0.999999992284,nan,ok",
            "-1,1,0.99999998457,nan,ok"]

    def test_success(self, capsys):
        code, out, _ = run_capture(capsys, ["gauss-constants", "--alpha", "6"])
        assert code == 0

    def test_help_lists_subcommands(self, capsys):
        code, out, _ = run_capture(capsys, ["--help"])
        assert code == 0
        assert out == (
            "subcommands: spin-scan, spin-negativity-scan, spin-vanish-point, "
            "gauss-constants, gauss-one-restricted, gauss-both-restricted, "
            "gauss-limits, gauss-classical-map, gauss-fit, gauss-sigma-scan, "
            "gauss-inequality, gauss-converge\n")

    @pytest.mark.parametrize("argv", [
        ["gauss-one-restricted", "--alpha", "nan", "--qbar", "0", "--width", "1"],
        ["gauss-one-restricted", "--alpha", "6", "--qbar", "inf", "--width", "1"],
        ["gauss-constants", "--alpha", "inf"],
    ])
    def test_non_finite_input(self, capsys, argv):
        code, out, err = run_capture(capsys, argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize("restricted", [[], ["--restricted"]])
    @pytest.mark.parametrize("angle", [["--theta1", "nan"], ["--theta1", "inf"],
                                       ["--theta2=-inf"], ["--theta2", "-inf"],
                                       ["--theta1", "-nan"]])
    def test_non_finite_sweep_angle_refused(self, capsys, angle, restricted):
        code, out, err = run_capture(capsys, F_SWEEP + angle + restricted)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "DomainError",
                                   "message": "pair angles must be finite"}

    @pytest.mark.parametrize("widths", [["--a", "inf"], ["--a", "nan"],
                                        ["--a", "1", "--b", "nan"],
                                        ["--a", "1", "--b", "inf"]])
    def test_non_finite_limit_half_width_refused(self, capsys, widths):
        code, out, err = run_capture(capsys, ["gauss-limits", "--alpha", "6"] + widths)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "DomainError"
        assert payload["message"].startswith("half width")

    @pytest.mark.parametrize("widths,named", [(["--a", "2.5", "--b", "0.1"], "half width 2.5"),
                                              (["--a", "10"], "half width 10"),
                                              (["--a", "0.1", "--b", "30"],
                                               "half widths 0.1 and 30")])
    def test_limit_weight_past_one_half_refused(self, capsys, widths, named):
        # a small-region weight past 1/2 is outside the limit, not a smaller weight
        code, out, err = run_capture(capsys, ["gauss-limits", "--alpha", "6"] + widths)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "DomainError"
        assert named in payload["message"] and "past 1/2" in payload["message"]

    @pytest.mark.parametrize("widths", [["--a", "1e200", "--b", "1"],
                                        ["--a", "1", "--b", "1e200"]])
    def test_uncoupled_limit_weight_is_zero_at_any_width(self, capsys, widths):
        # a * a overflows past 1.3e154, but it never meets the zero coupling
        code, out, err = run_capture(capsys, ["gauss-limits", "--alpha", "0"] + widths)
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert [payload[k] for k in ("epsilon_one", "epsilon_both", "entanglement_one",
                                     "entanglement_both")] == [0.0] * 4

    @pytest.mark.parametrize("spelt", ["-1e-1", "-1E-1", "-.1", "-0.1e0", "-10e-2"])
    def test_negative_numbers_in_any_form_are_values(self, capsys, spelt):
        argv = ["gauss-one-restricted", "--alpha", "6", "--centers", "{}", "1", "3",
                "--widths", "1"]
        code, plain, _ = run_capture(capsys, [w.format("-0.1") for w in argv])
        assert code == 0
        code, out, err = run_capture(capsys, [w.format(spelt) for w in argv])
        assert (code, err) == (0, "")
        assert out == plain

    @pytest.mark.parametrize("text", [
        "q_bar_A,q_bar_B,value,prob,flag\n0,0,abc,0.1,ok\n",  # non-numeric value
        "q_bar_A,q_bar_B,value,prob,flag\n0,0\n",             # short row
        None,                                                   # no such file
        *MALFORMED_SURFACES,
    ])
    def test_fit_bad_input_csv(self, capsys, tmp_path, text):
        path = tmp_path / "surface.csv"
        if text is not None:
            path.write_text(text)
        code, out, err = run_capture(capsys, ["gauss-fit", "--input", str(path)])
        assert code == 1
        assert out == ""
        assert json.loads(err)["error"] == "ConfigParse"


    @pytest.mark.parametrize("text,named", MALFORMED)
    def test_malformed_surface_refusal_names_its_row_or_cell(self, capsys, tmp_path,
                                                            text, named):
        path = tmp_path / "surface.csv"
        path.write_text(text)
        code, _, err = run_capture(capsys, ["gauss-fit", "--input", str(path)])
        assert code == 1
        assert named in json.loads(err)["message"]


class TestScalarCommands:
    def test_constants_values(self, capsys):
        code, out, _ = run_capture(capsys, ["gauss-constants", "--alpha", "6"])
        payload = json.loads(out)
        assert payload["C1"] == pytest.approx(0.583333, abs=1e-6)
        assert payload["C2"] == pytest.approx(0.166667, abs=1e-6)
        assert payload["sigma"] == pytest.approx(0.774597, abs=1e-6)
        assert payload["eof"] == pytest.approx(0.70187, abs=1e-4)

    def test_vanish_point(self, capsys):
        code, out, _ = run_capture(capsys, [
            "spin-vanish-point",
            "--theta1", "0.7853981634", "--theta2", "0.7853981634"])
        assert code == 0
        assert json.loads(out)["F_star"] == pytest.approx(0.25, abs=1e-4)

    def test_limits(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-limits", "--alpha", "6", "--a", "0.1", "--b", "0.1"])
        payload = json.loads(out)
        assert payload["epsilon_one"] == pytest.approx(1.1111e-3, rel=1e-4)
        assert payload["epsilon_both"] == pytest.approx(1.1111e-5, rel=1e-4)
        assert payload["concurrence_density"] == pytest.approx(0.66667,
                                                               abs=1e-5)
        # the README's command, to the last digit
        assert (payload["epsilon_one"], payload["entanglement_one"]) == \
            (0.0011111111111111113, 0.01250630493093905)
        assert (payload["epsilon_both"], payload["entanglement_both"]) == \
            (1.1111111111111115e-05, 0.00019889249340970705)

    def test_point_evaluations(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-one-restricted", "--alpha", "6",
            "--qbar", "0", "--width", "10"])
        assert json.loads(out)["entanglement"] == pytest.approx(0.702,
                                                                abs=5e-3)
        code, out, _ = run_capture(capsys, [
            "gauss-both-restricted", "--alpha", "6", "--mode", "point",
            "--qbar-a", "0", "--qbar-b", "0", "--width", "1",
            "--n-bins", "60"])
        assert code == 0
        assert json.loads(out)["entanglement"] > 0.0

    def test_metadata_echoes_config(self, capsys):
        code, out, _ = run_capture(capsys, ["gauss-constants", "--alpha", "6"])
        config = json.loads(out)["metadata"]["config"]
        assert config["alpha"] == 6.0
        assert config["subcommand"] == "gauss-constants"

    def test_metadata_config_key_order(self, capsys):
        # common flags, then the subcommand's flags in declaration order,
        # then values no flag sets; unset flags are left out
        code, out, _ = run_capture(capsys, [
            "spin-scan", "--steps", "2", "--format", "json"])
        assert code == 0
        assert list(json.loads(out)["metadata"]["config"]) == [
            "format", "steps", "theta_min", "theta_max", "surface", "measure",
            "subcommand"]


class TestDistributionIo:
    def make_distribution(self):
        axis = np.array([0.0, 0.5, 1.0])
        values = np.array([[0.1, 0.2, 0.3],
                           [0.4, np.nan, 0.6],
                           [0.7, 0.8, 0.9]])
        mask = np.zeros((3, 3), dtype=bool)
        mask[1, 1] = True
        return Distribution2D(axis_a=axis, axis_b=axis, values=values,
                              mask=mask)

    def test_csv_round_trip(self, tmp_path):
        dist = self.make_distribution()
        path = tmp_path / "surface.csv"
        emit_distribution(dist, str(path), "csv")
        text_first = path.read_text()
        parsed = parse_distribution(str(path))
        emit_distribution(parsed, str(path), "csv")
        assert path.read_text() == text_first
        assert parsed.mask[1, 1]
        assert np.isnan(parsed.values[1, 1])

    def test_masked_cells_serialized_as_nan(self, tmp_path):
        path = tmp_path / "surface.csv"
        emit_distribution(self.make_distribution(), str(path), "csv")
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "q_bar_A,q_bar_B,value,prob,flag"
        masked = [line for line in lines if line.endswith("masked")]
        assert len(masked) == 1
        assert masked[0].split(",")[2] == "nan"

    def test_twelve_significant_digits(self, tmp_path):
        axis = np.array([0.0, 1.0])
        value = 0.123456789012345
        dist = Distribution2D(axis_a=axis, axis_b=axis,
                              values=np.full((2, 2), value))
        path = tmp_path / "digits.csv"
        emit_distribution(dist, str(path), "csv")
        row = path.read_text().strip().split("\n")[1]
        assert row.split(",")[2] == "0.123456789012"

    @pytest.mark.parametrize("argv", [
        ["gauss-both-restricted", "--alpha", "6", "--mode", "grid", "--width", "0.5",
         "--centers", "-4", "4", "41"],
        ["spin-scan", "--steps", "24", "--theta-min", "0", "--theta-max", "3.14159265",
         "--restricted"],
    ], ids=["41x41-map", "masked-spin-surface"])
    def test_parse_then_emit_round_trips(self, capsys, tmp_path, argv):
        path = tmp_path / "surface.csv"
        assert run(argv + ["-o", str(path)]) == 0
        original = path.read_text().splitlines()
        parsed = parse_distribution(str(path))
        emit_distribution(parsed, str(path), "csv")
        emitted = path.read_text()
        # the parser reads axes, values and the mask; prob goes back as nan
        for before, after in zip(original, emitted.splitlines(), strict=True):
            before, after = before.split(","), after.split(",")
            assert after[:3] == before[:3]
            assert (after[4] == "masked") == (before[4] == "masked")
        assert ("masked" in emitted) == (argv[0] == "spin-scan")
        emit_distribution(parse_distribution(str(path)), str(path), "csv")
        assert path.read_text() == emitted

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(),
           axis_a=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6, unique=True),
           axis_b=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6, unique=True))
    def test_axes_in_first_seen_order_of_shuffled_rows(self, tmp_path_factory, data,
                                                       axis_a, axis_b):
        # -0.0 and 0.0 are one axis value, which the first row spells
        axis_a = [a for k, a in enumerate(axis_a) if a not in axis_a[:k]]
        axis_b = [b for k, b in enumerate(axis_b) if b not in axis_b[:k]]
        cells = data.draw(st.permutations([(i, j) for i in range(len(axis_a))
                                           for j in range(len(axis_b))]))
        masked = data.draw(st.lists(st.booleans(), min_size=len(cells), max_size=len(cells)))
        path = tmp_path_factory.mktemp("shuffled") / "surface.csv"
        path.write_text("x,y,value,prob,flag\n" + "".join(
            f"{axis_a[i]!r},{axis_b[j]!r},{0.5 * i - j},0.1,{'masked' if m else 'ok'}\n"
            for (i, j), m in zip(cells, masked)))
        parsed = parse_distribution(str(path))
        order_a = list(dict.fromkeys(i for i, _ in cells))
        order_b = list(dict.fromkeys(j for _, j in cells))
        assert parsed.axis_a.tolist() == [axis_a[i] for i in order_a]
        assert parsed.axis_b.tolist() == [axis_b[j] for j in order_b]
        assert parsed.axis_names == ("x", "y")
        for (i, j), m in zip(cells, masked):
            k, n = order_a.index(i), order_b.index(j)
            assert parsed.values[k, n] == 0.5 * i - j
            assert parsed.mask[k, n] == m

    @pytest.mark.parametrize("text,message", [
        ("", "{path} is empty"),
        ("\n  \n", "{path} is empty"),
        ("q_bar_A,q_bar_B\n0,0\n", "{path} does not look like a surface CSV"),
        (_surface_text(_GRID[:2]) + "0,0,abc,0.1,ok\n", "{path}: malformed row '0,0,abc,0.1,ok'"),
        (_surface_text(_GRID[:3]) + "0,0\n", "{path}: malformed row '0,0'"),
        (MALFORMED_SURFACES[0], "{path}: row 1 'nan,-1,1.0,0.1,ok' has a non-finite axis "
                                "value or an infinite value"),
        (MALFORMED_SURFACES[1], "{path}: row 5 '0,inf,1.0,0.1,ok' has a non-finite axis "
                                "value or an infinite value"),
        (MALFORMED_SURFACES[2], "{path}: row 5 '0,0,inf,0.1,ok' has a non-finite axis "
                                "value or an infinite value"),
        (MALFORMED_SURFACES[3], "{path}: row 10 repeats the cell (0.0, 0.0)"),
        (_surface_text(_GRID + [("-0", 0, 0.5)]), "{path}: row 10 repeats the cell (-0.0, 0.0)"),
        (MALFORMED_SURFACES[4], "{path}: no row for the cell (1.0, 0.0) of its 3x3 grid"),
        (_surface_text(_GRID[:4] + _GRID[5:]), "{path}: no row for the cell (0.0, 0.0) of "
                                               "its 3x3 grid"),
        # several faults: the first row in file order names the refusal
        (_surface_text(_GRID[:2] + [(0, "inf", 1)] + [("x", 0, 1)]),
         "{path}: row 3 '0,inf,1,0.1,ok' has a non-finite axis value or an infinite value"),
        (_surface_text(_GRID[:2] + [("x", 0, 1)] + [(0, "inf", 1)]),
         "{path}: malformed row 'x,0,1,0.1,ok'"),
        (_surface_text(_GRID[:2] + [_GRID[0]] + [(0, "inf", 1)]),
         "{path}: row 3 repeats the cell (-1.0, -1.0)"),
        (_surface_text(_GRID[:2] + [(0, "inf", 1)] + [_GRID[0]]),
         "{path}: row 3 '0,inf,1,0.1,ok' has a non-finite axis value or an infinite value"),
        (_surface_text(_GRID[:2] + [_GRID[0]]) + "0,x\n",
         "{path}: row 3 repeats the cell (-1.0, -1.0)"),
        (_surface_text(_GRID[:2]) + "0,x\n" + _surface_text([_GRID[0]]).split("\n", 1)[1],
         "{path}: malformed row '0,x'"),
        (_surface_text(_GRID[:5]) + "zz\n", "{path}: malformed row 'zz'"),
        # rows are split in blocks: faults in later blocks keep the file order
        (_surface_text(_BIG[:400] + [(0, "nan", 1)] + _BIG[401:800] + [("y", 0, 1)]),
         "{path}: row 401 '0,nan,1,0.1,ok' has a non-finite axis value or an infinite value"),
        (_surface_text(_BIG[:300] + [("y", 0, 1)] + _BIG[301:700] + [_BIG[0]]),
         "{path}: malformed row 'y,0,1,0.1,ok'"),
        (_surface_text(_BIG[:600] + _BIG[:1]), "{path}: row 601 repeats the cell (0.0, 0.0)"),
        (_surface_text(_BIG[:555] + _BIG[556:]), "{path}: no row for the cell (18.0, 15.0) "
                                                 "of its 30x30 grid"),
    ])
    def test_each_refusal_names_its_row_or_cell(self, tmp_path, text, message):
        path = tmp_path / "surface.csv"
        path.write_text(text)
        with pytest.raises(cli.ConfigParse) as info:
            parse_distribution(str(path))
        assert str(info.value) == message.format(path=path)

    def test_fields_are_read_by_float(self, tmp_path):
        # float takes "1_0" and " 2" as numbers and "nan" as a value
        path = tmp_path / "surface.csv"
        path.write_text("a,b,value,prob,flag\n"
                        "1_0, 2,nan,0.1,ok\n1_0,3 ,1.5,0.1,masked\n"
                        "-1, 2,0.25,0.1,ok\n-1,3,NaN,0.1,empty\n")
        parsed = parse_distribution(str(path))
        assert parsed.axis_a.tolist() == [10.0, -1.0]
        assert parsed.axis_b.tolist() == [2.0, 3.0]
        assert np.isnan(parsed.values[0, 0]) and np.isnan(parsed.values[1, 1])
        assert parsed.values[0, 1] == 1.5 and parsed.values[1, 0] == 0.25
        assert parsed.mask.tolist() == [[False, True], [False, False]]

    def test_json_format(self, tmp_path):
        path = tmp_path / "surface.json"
        emit_distribution(self.make_distribution(), str(path), "json",
                          metadata={"config": {"alpha": 6}})
        payload = json.loads(path.read_text())
        assert payload["metadata"]["config"]["alpha"] == 6
        assert len(payload["values"]) == 9
        assert payload["values"][4] is None  # masked cell
        assert payload["flag"][4] == "masked"


class TestScanCommands:
    def test_spin_scan_csv(self, capsys):
        code, out, _ = run_capture(capsys, [
            "spin-scan", "--steps", "8", "--theta-max", "3.14159"])
        lines = out.strip().split("\n")
        assert lines[0] == "theta1,theta2,value,prob,flag"
        assert len(lines) == 65
        assert code == 0

    def test_spin_scan_restricted_has_masked_singularity(self, capsys):
        code, out, _ = run_capture(capsys, [
            "spin-scan", "--steps", "8", "--theta-min", "0",
            "--theta-max", "3.14159265", "--restricted"])
        rows = out.strip().split("\n")[1:]
        first = rows[0].split(",")
        assert first[4] == "masked" and first[2] == "nan"

    def test_spin_delta_surface(self, capsys):
        code, out, _ = run_capture(capsys, [
            "spin-scan", "--steps", "8", "--surface", "delta"])
        assert code == 0
        values = [float(row.split(",")[2])
                  for row in out.strip().split("\n")[1:]
                  if row.split(",")[4] == "ok"]
        assert max(values) > 0.0

    def test_spin_negativity_scan(self, capsys):
        code, out, _ = run_capture(capsys, [
            "spin-negativity-scan", "--steps", "6", "--f-value", "0.65"])
        assert code == 0
        values = [float(row.split(",")[2])
                  for row in out.strip().split("\n")[1:]]
        assert max(values) > 0.0

    def test_spin_negativity_purity_sweep(self, capsys):
        code, out, _ = run_capture(capsys, [
            "spin-negativity-scan", "--f-range", "0.0625", "1", "16"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "F,theta1,value,prob,flag"
        values = [float(line.split(",")[2]) for line in lines[1:]]
        assert values[0] <= 1e-9 and values[-1] > 0.4

    def test_one_restricted_map(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-one-restricted", "--alpha", "6",
            "--centers", "-2", "2", "9", "--widths", "1,2",
            "--n-bins", "60"])
        lines = out.strip().split("\n")
        assert lines[0] == "q_bar_A,width,value,prob,flag"
        assert len(lines) == 19

    def test_both_restricted_grid_and_profiles(self, capsys):
        base = ["gauss-both-restricted", "--alpha", "6", "--width", "1",
                "--centers", "-1", "1", "5", "--n-bins", "40"]
        code, out, _ = run_capture(capsys, base + ["--mode", "grid"])
        assert code == 0
        assert len(out.strip().split("\n")) == 26
        code, out, _ = run_capture(capsys, base + ["--mode", "profile-equal"])
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert all(row[0] == row[1] for row in rows)
        code, out, _ = run_capture(capsys, base + ["--mode", "profile-fixed",
                                                   "--bob-center", "0"])
        rows = [line.split(",") for line in out.strip().split("\n")[1:]]
        assert all(float(row[1]) == 0.0 for row in rows)

    def test_classical_map_and_fit_round_trip(self, capsys, tmp_path):
        path = tmp_path / "joint.csv"
        code, _, _ = run_capture(capsys, [
            "gauss-classical-map", "--alpha", "6",
            "--centers", "-1.5", "1.5", "21", "--width", "0.02",
            "--output", str(path)])
        assert code == 0
        code, out, _ = run_capture(capsys, [
            "gauss-fit", "--input", str(path), "--form", "symmetric"])
        fit = json.loads(out)["fit"]
        assert fit["sigma_plus"] == pytest.approx(math.sqrt(2.0), rel=0.02)
        assert fit["sigma_minus"] == pytest.approx(0.632456, rel=0.02)
        # re-ingesting reproduces the direct fit of the same surface
        direct = fit_surface(parse_distribution(str(path)), "symmetric_pm")
        assert fit["sigma_plus"] == pytest.approx(direct.sigma_plus, rel=1e-12)

    def test_fit_jitter_diagnostic(self, capsys, tmp_path):
        path = tmp_path / "joint.csv"
        run_capture(capsys, [
            "gauss-classical-map", "--alpha", "6",
            "--centers", "-1.5", "1.5", "15", "--width", "0.02",
            "--output", str(path)])
        code, out, _ = run_capture(capsys, [
            "gauss-fit", "--input", str(path), "--jitter", "1e-4",
            "--seed", "3"])
        payload = json.loads(out)
        assert "jitter_fit" in payload
        assert payload["jitter_fit"]["sigma_plus"] == pytest.approx(
            payload["fit"]["sigma_plus"], rel=1e-2)

    def test_sigma_scan_analytic(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-sigma-scan", "--alphas", "0.5,2,6",
            "--which", "small-a-analytic"])
        lines = out.strip().split("\n")
        assert lines[0].startswith("alpha,sigma_plus")
        assert len(lines) == 4

    def test_profile_json_rows(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-both-restricted", "--alpha", "6", "--width", "1",
            "--centers", "-1", "1", "3", "--n-bins", "20",
            "--mode", "profile-fixed", "--bob-center", "0.5", "--format", "json"])
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row[0] for row in rows] == [-1.0, 0.0, 1.0]
        assert all(row[1] == 0.5 and row[4] == "ok" for row in rows)
        assert all(0.0 < row[2] and 0.0 < row[3] < 1.0 for row in rows)

    @pytest.mark.parametrize("argv", [
        ["gauss-one-restricted", "--alpha", "6", "--widths", "1,2"],
        ["gauss-both-restricted", "--alpha", "6", "--width", "1", "--mode", "profile-equal"],
    ], ids=["one-party-map", "profile"])
    def test_zero_mass_cells_written_empty(self, capsys, argv):
        argv = argv + ["--centers", "-40", "0", "3"]
        code, out, _ = run_capture(capsys, argv)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        empty = [row for row in rows if float(row.split(",")[0]) < -10.0]
        assert empty and all(row.endswith(",0,0,empty") for row in empty)
        assert all(row.endswith(",ok") for row in rows if row not in empty)
        code, out, _ = run_capture(capsys, argv + ["--format", "json"])
        payload = json.loads(out)
        if "rows" in payload:  # a profile's JSON rows are its CSV rows
            flags = [row[4] for row in payload["rows"]]
            probs = [row[3] for row in payload["rows"]]
        else:
            flags, probs = payload["flag"], payload["prob"]
        assert flags.count("empty") == len(empty)
        assert all(p == 0.0 for p, flag in zip(probs, flags) if flag == "empty")

    def test_masked_surface_same_cells_in_csv_and_json(self, capsys):
        argv = ["spin-scan", "--steps", "8", "--theta-max", "3.14159265", "--restricted"]
        _, csv_out, _ = run_capture(capsys, argv)
        _, json_out, _ = run_capture(capsys, argv + ["--format", "json"])
        rows = [row.split(",") for row in csv_out.strip().split("\n")[1:]]
        payload = json.loads(json_out)
        assert "masked" in payload["flag"]
        assert [row[4] for row in rows] == payload["flag"]
        for column, key in ((2, "values"), (3, "prob")):
            # CSV keeps 12 significant digits; nan (JSON null) where masked
            np.testing.assert_allclose([float(row[column]) for row in rows],
                                       [math.nan if v is None else v for v in payload[key]],
                                       rtol=1e-11, atol=0.0)
        axes = np.meshgrid(payload["axes"]["theta1"], payload["axes"]["theta2"],
                           indexing="ij")
        np.testing.assert_allclose([[float(row[0]), float(row[1])] for row in rows],
                                   np.stack([axis.ravel() for axis in axes], axis=-1),
                                   rtol=1e-11, atol=0.0)

    def test_converge_csv(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-converge", "--alpha", "6", "--widths", "2,3",
            "--n-bins", "40", "--n-basis", "10"])
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == ("width,grid_coarse,grid_fine,basis_coarse,"
                            "basis_fine,grid_limit,basis_limit,gap")
        assert len(lines) == 3
        assert [line.split(",")[0] for line in lines[1:]] == ["2", "3"]

    def test_empty_tables_keep_their_header(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-sigma-scan", "--alphas", ",", "--which", "small-a-analytic"])
        assert (code, out) == (0, "alpha,sigma_plus,sigma_minus,sigma_1,sigma_2,sigma_12\n")
        code, out, _ = run_capture(capsys, ["gauss-converge", "--alpha", "6", "--widths", ","])
        assert (code, out) == (0, "width,grid_coarse,grid_fine,basis_coarse,"
                                  "basis_fine,grid_limit,basis_limit,gap\n")

    def test_json_key_order(self, capsys, tmp_path):
        """The keys of record-backed JSON objects come in field order."""
        sigmas = ["sigma_plus", "sigma_minus", "sigma_1", "sigma_2", "sigma_12"]
        _, out, _ = run_capture(capsys, ANALYTIC + ["--format", "json"])
        assert [list(row) for row in json.loads(out)["rows"]] == [["alpha", *sigmas]]
        _, out, _ = run_capture(capsys, [
            "gauss-converge", "--alpha", "6", "--widths", "2,3",
            "--n-bins", "40", "--n-basis", "10", "--format", "json"])
        assert [list(row) for row in json.loads(out)["rows"]] == [[
            "width", "grid_coarse", "grid_fine", "basis_coarse", "basis_fine",
            "grid_limit", "basis_limit", "gap"]] * 2
        path = tmp_path / "cond.csv"
        run_capture(capsys, ["gauss-classical-map", "--alpha", "6", "--kind", "conditional",
                             "--centers", "-1.5", "1.5", "15", "--width", "0.5",
                             "-o", str(path)])
        fit = ["gauss-fit", "--input", str(path), "--jitter", "1e-4"]
        _, out, _ = run_capture(capsys, fit)
        payload = json.loads(out)
        assert list(payload) == ["fit", "jitter_fit", "jitter", "metadata"]
        assert list(payload["fit"]) == list(payload["jitter_fit"]) == [
            "form", "amplitude", "residual", *sigmas[:2]]
        _, out, _ = run_capture(capsys, fit + ["--form", "conditional"])
        assert list(json.loads(out)["fit"]) == ["form", "amplitude", "residual", *sigmas[2:]]
        _, out, _ = run_capture(capsys, INEQUALITY + [
            "--n-bins", "40", "--nd-center", "0", "--nd-half-width", "1"])
        payload = json.loads(out)
        assert list(payload) == ["weighted_sum", "full_entanglement", "slack", "cells",
                                 "non_discarding", "metadata"]
        assert [list(cell) for cell in payload["cells"]] == [[
            "a_lo", "a_hi", "b_lo", "b_hi", "probability", "entanglement"]] * 4
        assert list(payload["non_discarding"]) == [
            "entanglement", "prob", "inside", "outside", "locally_accessible",
            "mixture_value", "two_path_gap"]

    def test_converge_table(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-converge", "--alpha", "6", "--widths", "2",
            "--n-bins", "100", "--n-basis", "20", "--format", "json"])
        rows = json.loads(out)["rows"]
        assert rows[0]["gap"] <= 5e-3

    def test_inequality_report(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-inequality", "--alpha", "6", "--grid-a", "2",
            "--grid-b", "2", "--extent", "4", "--n-bins", "40",
            "--nd-center", "0", "--nd-half-width", "1"])
        payload = json.loads(out)
        assert payload["slack"] >= -1e-6
        assert len(payload["cells"]) == 4
        assert payload["non_discarding"]["two_path_gap"] <= 1e-6


class TestBasisMethodFlag:
    def test_point_evaluation_via_basis(self, capsys):
        code, out, _ = run_capture(capsys, [
            "gauss-one-restricted", "--alpha", "6", "--qbar", "0",
            "--width", "2", "--method", "basis", "--n-basis", "20"])
        assert code == 0
        payload = json.loads(out)
        assert payload["method"] == "basis"
        assert payload["spectrum_size"] == 20
        assert payload["entanglement"] == pytest.approx(0.408, abs=5e-3)


class TestConfigFile:
    def test_config_supplies_defaults_flags_override(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"alpha": 6.0, "a": 0.1, "b": 0.1}))
        code, out, _ = run_capture(capsys, [
            "gauss-limits", "--config", str(config)])
        assert code == 0
        assert json.loads(out)["epsilon_one"] == pytest.approx(1.1111e-3,
                                                               rel=1e-4)
        code, out, _ = run_capture(capsys, [
            "gauss-limits", "--config", str(config), "--a", "0.2"])
        assert json.loads(out)["epsilon_one"] == pytest.approx(4 * 1.1111e-3,
                                                               rel=1e-4)

    def test_bad_config(self, capsys, tmp_path):
        config = tmp_path / "bad.json"
        config.write_text("not json")
        code, _, err = run_capture(capsys, [
            "gauss-limits", "--config", str(config), "--alpha", "6",
            "--a", "0.1"])
        assert code == 1
        assert json.loads(err)["error"] == "ConfigParse"

    @pytest.mark.parametrize("argv,content", [
        (["spin-scan"], b'{"steps": "abc"}'),
        (["gauss-constants"], b'{"alpha": [6]}'),
        (["gauss-constants"], b'{"alpha": true}'),
        (["gauss-one-restricted", "--qbar", "0", "--width", "1"],
         b'{"alpha": 6, "centers": [-1, 1]}'),
        (["gauss-constants"], b'\xff\xfe{"alpha": 6}'),
        (["gauss-one-restricted", "--alpha", "6", "--qbar", "0", "--width", "2",
          "--method", "basis"], b'{"n_basis": 20.5}'),
        (["spin-scan"], b'{"steps": Infinity}'),
        (["gauss-both-restricted", "--alpha", "6", "--width", "1"], b'{"mode": "line"}'),
    ])
    def test_config_value_that_does_not_convert(self, capsys, tmp_path, argv, content):
        config = tmp_path / "bad.json"
        config.write_bytes(content)
        code, out, err = run_capture(capsys, argv + ["--config", str(config)])
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == "ConfigParse"

    def test_config_string_converts_like_a_flag(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"alpha": "6", "steps": "3"}))
        code, out, _ = run_capture(capsys, ["gauss-constants", "--config", str(config),
                                            "--format", "json"])
        assert code == 0
        code, flag_out, _ = run_capture(capsys, ["gauss-constants", "--alpha", "6",
                                                 "--format", "json"])
        payload, by_flag = json.loads(out), json.loads(flag_out)
        assert payload["metadata"]["config"].pop("steps") == "3"  # no such flag: as given
        assert payload == by_flag

    def test_integral_number_for_an_integer_flag(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"n_basis": 20.0}))
        code, out, _ = run_capture(capsys, [
            "gauss-one-restricted", "--alpha", "6", "--qbar", "0", "--width", "2",
            "--method", "basis", "--config", str(config)])
        assert code == 0
        payload = json.loads(out)
        assert payload["n_basis"] == payload["spectrum_size"] == 20
        assert payload["metadata"]["config"]["n_basis"] == 20

    @pytest.mark.parametrize("subcommand,measure", [
        ("spin-scan", "negativity"), ("spin-scan", "x"),
        ("spin-negativity-scan", "entropy"), ("spin-negativity-scan", "x")])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_config_cannot_set_the_subcommand_measure(self, capsys, tmp_path, subcommand,
                                                      measure, fmt):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"measure": measure}))
        argv = [subcommand, "--steps", "3", "--format", fmt]
        code, out, _ = run_capture(capsys, argv + ["--config", str(config)])
        assert code == 0
        assert out == run_capture(capsys, argv)[1]

    def test_config_keys_a_mode_does_not_read_are_shared_defaults(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"alpha": 6, "bob_center": 1, "centers": [-1, 1, 3],
                                      "width_b": 2, "seed": 4}))
        code, _, _ = run_capture(capsys, BOTH + ["--qbar-a", "0", "--qbar-b", "0",
                                                 "--config", str(config)])
        assert code == 0
        code, _, _ = run_capture(capsys, BOTH + ["--mode", "profile-equal",
                                                 "--config", str(config)])
        assert code == 0

    # every required value of each subcommand, given by config
    CONFIG_BASE = {
        "spin-scan": {"steps": 3},
        "spin-negativity-scan": {"steps": 3},
        "spin-vanish-point": {"theta1": 0.5, "theta2": 0.5},
        "gauss-constants": {"alpha": 6},
        "gauss-one-restricted": {"alpha": 6, "qbar": 0, "width": 1},
        "gauss-both-restricted": {"alpha": 6, "qbar_a": 0, "qbar_b": 0, "width": 1},
        "gauss-limits": {"alpha": 6, "a": 0.1},
        "gauss-classical-map": {"alpha": 6, "centers": [-1, 1, 3], "width": 1},
        "gauss-fit": {"input": "map.csv"},
        "gauss-sigma-scan": {"alphas": "6", "steps": 9, "extent": 2},
        "gauss-inequality": {"alpha": 6, "grid_a": 2, "grid_b": 2},
        "gauss-converge": {"alpha": 6, "widths": "1", "n_bins": 40, "n_basis": 8},
    }

    @pytest.mark.parametrize("subcommand", list(cli._SUBCOMMANDS))
    def test_null_leaves_the_flag_at_its_default(self, capsys, tmp_path, monkeypatch,
                                                 subcommand):
        monkeypatch.chdir(tmp_path)
        x = np.linspace(-2.0, 2.0, 9)
        emit_distribution(Distribution2D(axis_a=x, axis_b=x,
                                         values=np.exp(-np.add.outer(x * x, x * x))),
                          "map.csv", "csv")
        assert set(self.CONFIG_BASE) == set(cli._SUBCOMMANDS)
        dests = [action.dest for action in cli._build_parser(subcommand)._actions
                 if action.dest != "help"]
        for dest in dests:
            Path("run.json").write_text(json.dumps({**self.CONFIG_BASE[subcommand],
                                                    dest: None}))
            code, _, err = run_capture(capsys, [subcommand, "--config", "run.json"])
            assert code in (0, 1), (dest, err)
            assert len(err.splitlines()) == code, (dest, err)
            assert all(json.loads(line)["error"] for line in err.splitlines())
            if dest not in ("alpha", "alphas", "theta1", "theta2", "a", "qbar", "width",
                            "qbar_a", "qbar_b", "centers", "input"):
                assert code == 0, (dest, err)

    def test_config_numbers_are_echoed_as_given(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"alpha": 6, "centers": [-1, 1, 3], "width": 1,
                                      "n_bins": 20}))
        code, out, _ = run_capture(capsys, ["gauss-one-restricted", "--config",
                                            str(config), "--format", "json"])
        assert code == 0
        echo = json.loads(out)["metadata"]["config"]
        assert list(echo.items())[:4] == [("alpha", 6), ("centers", [-1, 1, 3]),
                                          ("width", 1), ("n_bins", 20)]


def reference_word(value) -> str:
    """One CSV word by the per-value rule the writer must reproduce."""
    if isinstance(value, str):
        return value
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    if value == 0:
        value = 0.0
    return f"{value:.12g}"


def reference_safe(obj):
    """A document as json.dumps(..., indent=2) must take it: NaN as None,
    numpy arrays as lists and numpy numbers as floats."""
    if isinstance(obj, float):
        return None if math.isnan(obj) else obj
    if isinstance(obj, dict):
        return {key: reference_safe(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_safe(value) for value in obj]
    if isinstance(obj, np.ndarray):
        return reference_safe(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return reference_safe(float(obj))
    return obj


def _stdout_of(write) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        write()
    return out.getvalue()


_RAW_FLOATS = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
_FLOATS = _RAW_FLOATS | st.sampled_from([-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324,
                                         1.7976931348623157e308, 0.123456789012345])


def _column(rows: int):
    """One column of a table: numbers of one kind, or flag tokens."""
    def cells(values):
        return st.lists(values, min_size=rows, max_size=rows)

    return st.one_of(
        cells(_FLOATS).map(np.array),
        cells(st.integers(-2**63, 2**63 - 1)).map(np.array),
        cells(st.booleans()).map(np.array),
        cells(st.none() | _FLOATS).map(tuple),
        cells(st.sampled_from(["ok", "masked", "empty"])).map(np.array),
    )


_TABLES = st.integers(0, 12).flatmap(lambda rows: st.lists(_column(rows), min_size=1, max_size=6))

_LEAVES = (st.floats() | st.integers(-2**70, 2**70) | st.text(max_size=6) | st.none()
           | st.booleans()
           | st.lists(st.floats(), max_size=6).map(lambda v: np.array(v, dtype=float))
           | st.lists(st.sampled_from([-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf,
                                       1.0 / 3.0]), max_size=12).map(np.array)
           | st.lists(st.integers(-9, 9), max_size=6).map(np.array)
           | st.lists(st.floats(), min_size=4, max_size=4).map(lambda v: np.reshape(v, (2, 2)))
           | st.floats().map(np.float64) | st.floats(width=32).map(np.float32)
           | st.integers(-2**40, 2**40).map(np.int64))
_DOCUMENTS = st.recursive(_LEAVES, lambda inner: st.lists(inner, max_size=5)
                          | st.lists(inner, max_size=5).map(tuple)
                          | st.dictionaries(st.text(max_size=4), inner, max_size=4),
                          max_leaves=25)

# One surface with masked, empty, -0.0 and subnormal cells, and the texts
# emit_distribution wrote for it before its writers worked by column.
GOLDEN = Distribution2D(
    axis_a=[-0.5, 0.0, 1e-310], axis_b=[-0.0, 2.5],
    values=[[-0.0, 5e-324], [1.0 / 3.0, 7.0], [1e300, 0.123456789012345]],
    mask=[[False, False], [False, True], [False, False]],
    axis_names=("x", "y"),
    extra={"prob": [[0.5, 0.0], [np.nan, 1.0], [-0.0, 2.2250738585072014e-308]],
           "flag": [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]})
GOLDEN_METADATA = {"config": {"alpha": 6.0, "centers": [-1.0, 1.0, 3], "restricted": True},
                   "version": "0"}
GOLDEN_CSV = (
    "x,y,value,prob,flag\n"
    "-0.5,0,0,0.5,ok\n"
    "-0.5,2.5,4.94065645841e-324,0,empty\n"
    "0,0,0.333333333333,nan,ok\n"
    "0,2.5,nan,1,masked\n"
    "1e-310,0,1e+300,0,empty\n"
    "1e-310,2.5,0.123456789012,2.22507385851e-308,ok\n")
GOLDEN_JSON = """{
  "axes": {
    "x": [
      -0.5,
      0.0,
      1e-310
    ],
    "y": [
      -0.0,
      2.5
    ]
  },
  "kind": "entanglement",
  "values": [
    -0.0,
    5e-324,
    0.3333333333333333,
    null,
    1e+300,
    0.123456789012345
  ],
  "prob": [
    0.5,
    0.0,
    null,
    1.0,
    -0.0,
    2.2250738585072014e-308
  ],
  "flag": [
    "ok",
    "empty",
    "ok",
    "masked",
    "empty",
    "ok"
  ],
  "metadata": {
    "config": {
      "alpha": 6.0,
      "centers": [
        -1.0,
        1.0,
        3
      ],
      "restricted": true
    },
    "version": "0"
  }
}
"""
GOLDEN_FLOATS = """{
  "values": [
    -0.0,
    0.0,
    null,
    Infinity,
    0.3333333333333333,
    -Infinity,
    0.3333333333333333,
    -0.0,
    null,
    0.0,
    Infinity
  ],
  "single": [
    0.25
  ],
  "flag": [
    "ok",
    "empty",
    "ok",
    "masked"
  ]
}"""


class TestByteContract:
    """The writers against per-value references and texts fixed in advance."""

    @settings(max_examples=300, deadline=None)
    @given(_TABLES)
    def test_csv_writes_each_value_by_the_per_value_rule(self, columns):
        header = [f"c{k}" for k in range(len(columns))]
        rows = zip(*(column.tolist() if isinstance(column, np.ndarray) else column
                     for column in columns))
        expected = "".join(",".join(map(reference_word, row)) + "\n"
                           for row in [header, *rows])
        assert _stdout_of(lambda: cli._write_csv(None, header, columns)) == expected

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_surface_csv_writes_each_cell_by_the_per_value_rule(self, data):
        n_a, n_b = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
        axes = [data.draw(st.lists(_FLOATS, min_size=n, max_size=n))
                for n in (n_a, n_b)]

        def layer(elements):
            return np.array(data.draw(st.lists(elements, min_size=n_a * n_b,
                                               max_size=n_a * n_b)), dtype=float
                            ).reshape(n_a, n_b)

        mask = layer(st.booleans()).astype(bool)
        extra = {}
        for name, elements in (("prob", _FLOATS), ("flag", st.sampled_from([0.0, 1.0]) | _FLOATS),
                               ("delta", _FLOATS)):
            if data.draw(st.booleans()):
                extra[name] = layer(elements)
        named = data.draw(st.sampled_from([None, "delta"] if "delta" in extra else [None]))
        dist = Distribution2D(axis_a=axes[0], axis_b=axes[1], values=layer(_FLOATS), mask=mask,
                              axis_names=("u", "v"), extra=extra)
        shown = dist.extra[named] if named else dist.values
        lines = ["u,v,value,prob,flag"]
        for i, a in enumerate(axes[0]):          # row-major cells
            for j, b in enumerate(axes[1]):
                flag = "masked" if mask[i, j] else \
                    "empty" if "flag" in extra and extra["flag"][i, j] > 0.5 else "ok"
                lines.append(",".join(map(reference_word, (
                    a, b, math.nan if mask[i, j] else float(shown[i, j]),
                    float(extra["prob"][i, j]) if "prob" in extra else math.nan, flag))))
        assert _stdout_of(lambda: emit_distribution(dist, None, "csv", layer=named)) \
            == "\n".join(lines) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(_DOCUMENTS)
    def test_json_matches_the_indenting_encoder(self, document):
        assert cli._json_text(document) == json.dumps(reference_safe(document), indent=2)

    def test_golden_float_arrays(self):
        # each distinct float is encoded once: repeats, -0.0 beside 0.0, NaN of
        # either sign and the infinities each keep json.dumps's text
        document = {"values": np.array([-0.0, 0.0, math.nan, math.inf, 1.0 / 3.0, -math.inf,
                                        1.0 / 3.0, -0.0, -math.nan, 0.0, math.inf]),
                    "single": np.array([0.25], dtype=np.float32),
                    "flag": np.array(["ok", "empty", "ok", "masked"])}
        assert cli._json_text(document) == GOLDEN_FLOATS

    @pytest.mark.parametrize("fmt,expected", [("csv", GOLDEN_CSV), ("json", GOLDEN_JSON)])
    def test_golden_surface(self, fmt, expected):
        assert _stdout_of(lambda: emit_distribution(GOLDEN, None, fmt, GOLDEN_METADATA)) \
            == expected


class TestDeterminism:
    def test_repeat_runs_identical(self, tmp_path):
        args = ["spin-scan", "--steps", "10", "--restricted"]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run(args + ["--output", str(first)]) == 0
        assert run(args + ["--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestAxes:
    @pytest.mark.parametrize("steps", [41, 81])
    def test_centred_axis_is_its_own_mirror(self, steps):
        axis = cli._linspace(-4.0, 4.0, steps)
        assert np.array_equal(-axis[::-1], axis)
        assert np.abs(axis - np.linspace(-4.0, 4.0, steps)).max() <= 4.5e-16

    @pytest.mark.parametrize("lo,hi,steps", [(0.0, 2.0 * math.pi, 64), (-6.0, 4.0, 41),
                                             (0.0625, 1.0, 128)])
    def test_other_axes_are_linspace(self, lo, hi, steps):
        assert cli._linspace(lo, hi, steps).tobytes() == np.linspace(lo, hi, steps).tobytes()

    def test_centred_axes_get_the_mirror_half_of_the_orbits(self):
        axis = cli._linspace(-4.0, 4.0, 41)
        _, square, _ = _two_party_orbits(np.repeat(axis, 41), 0.25, np.tile(axis, 41), 0.25)
        assert square[0].size == 441  # (41^2 + 41 + 1 + 41) / 4
        profile = cli._linspace(-4.0, 4.0, 81)
        for bob in (profile, 0.0):
            _, cells, _ = _two_party_orbits(profile, 0.25, bob, 0.25)
            assert cells[0].size == 41

    @settings(max_examples=40, deadline=None)
    @given(steps=st.integers(2, 90), extent=st.floats(0.1, 20.0))
    def test_sigma_scan_axis_is_the_centred_cli_axis(self, steps, extent):
        axis = scan_axis(-extent, extent, steps)
        assert np.array_equal(-axis[::-1], axis)
        assert axis.tobytes() == cli._linspace(-extent, extent, float(steps)).tobytes()
        _, square, _ = _two_party_orbits(np.repeat(axis, steps), 0.25,
                                         np.tile(axis, steps), 0.25)
        # Burnside over exchange and mirror: n^2 cells, n fixed by each of the
        # two reflections, the centre cell fixed by the mirror when n is odd
        assert square[0].size == (steps * steps + 2 * steps + steps % 2) // 4

    @pytest.mark.parametrize("which", ["quantum", "classical"])
    def test_sigma_scan_solves_each_orbit_once(self, which, monkeypatch):
        # the axis is reduced to its orbits once per scan, not once per coupling
        cells, surfaces = [], []
        orbits, fit = entloc.restrict._two_party_orbits, entloc.correlate.fit_surface

        def counted(*args):
            result = orbits(*args)
            cells.append(result[1][0].size)
            return result

        def kept(dist, form, **kwargs):
            surfaces.append((dist, form))
            return fit(dist, form, **kwargs)

        monkeypatch.setattr(entloc.restrict, "_two_party_orbits", counted)
        monkeypatch.setattr(entloc.correlate, "fit_surface", kept)
        sigma_vs_alpha_scan([2.0, 6.0], which=which, half_width=0.25, steps=41)
        assert cells == [441]
        symmetric = [dist.values for dist, form in surfaces if form == "symmetric_pm"]
        assert len(symmetric) == 2
        for values in symmetric:
            assert values.tobytes() == values[::-1, ::-1].tobytes() == values.T.tobytes()


class TestParserReuse:
    """One parser per subcommand serves every run of a process."""

    @pytest.mark.parametrize("subcommand", list(cli._SUBCOMMANDS))
    def test_each_parser_is_built_once(self, subcommand):
        assert cli._build_parser(subcommand) is cli._build_parser(subcommand)

    @pytest.mark.parametrize("first,first_code,second", [
        (["spin-scan", "--steps", "3", "--restricted"], 0,
         ["spin-scan", "--steps", "3", "--format", "json"]),
        (["spin-scan", "--config", "CONFIG"], 0,
         ["spin-scan", "--steps", "3", "--format", "json"]),
        (["spin-negativity-scan", "--config", "CONFIG", "--f-range", "0.5", "1", "2"], 0,
         ["spin-negativity-scan", "--steps", "2", "--format", "json"]),
        (["spin-scan", "--steps", "3", "--theta-max", "1", "--surface", "nope"], 1,
         ["spin-scan", "--steps", "3", "--format", "json"]),
        (["gauss-both-restricted", "--alpha", "6", "--width", "1", "--mode", "grid",
          "--qbar-a", "0", "--centers", "-1", "1", "3"], 1,
         ["gauss-both-restricted", "--alpha", "6", "--width", "1", "--qbar-a", "0",
          "--qbar-b", "0", "--format", "json"]),
    ])
    def test_a_run_leaves_nothing_to_the_next(self, capsys, tmp_path, first, first_code,
                                              second):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"steps": 2, "theta-max": 1.0, "restricted": True,
                                      "surface": "delta", "f-value": 0.5}))
        first = [str(config) if word == "CONFIG" else word for word in first]
        assert run_capture(capsys, first)[0] == first_code
        code, reused, err = run_capture(capsys, second)
        assert (code, err) == (0, "")
        cli._build_parser.cache_clear()
        code, fresh, err = run_capture(capsys, second)
        assert (code, fresh, err) == (0, reused, "")
        assert json.loads(reused)["metadata"]["config"] == json.loads(fresh)["metadata"]["config"]


class TestReadmeCommands:
    def test_every_documented_command_parses(self):
        # `entloc ...` lines of the README's sh blocks, continuations joined and
        # comments stripped; the `entloc <subcommand> [flags]` synopsis is skipped
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        commands = []
        for block in re.findall(r"```sh\n(.*?)```", readme, re.S):
            for line in block.replace("\\\n", " ").splitlines():
                words = shlex.split(line, comments=True)
                if words[:1] == ["entloc"] and not words[1].startswith("<"):
                    commands.append(words[1:])
        assert {words[0] for words in commands} == set(cli._SUBCOMMANDS)
        for words in commands:
            cli._parse(words[0], words[1:])
