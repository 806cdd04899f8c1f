"""Command-line driver.

Subcommands cover every tabulated result: spin-model scans, oscillator
constants and limits, restricted-entanglement maps, classical probability
maps, surface fits, the partition inequality and the grid/basis
convergence study. Scans are emitted as plot-ready CSV
(axis_a,axis_b,value,prob,flag at 12 significant digits) or as JSON with a
metadata block echoing the run configuration; scalar results are JSON.

Exit codes, with a JSON error description on stderr for 1 and 2:

* 0: success.
* 1: this module rejects the invocation itself: an unknown subcommand or
  flag, a flag that the chosen mode does not read, a missing flag, a value
  or config file that does not parse, or a range with fewer than 2 steps.
* 2: the library raises an EntlocError on the parsed values, for example
  DomainError for a negative width or n_bins below 2, or EmptyRegionMass.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .correlate import SigmaRow, fit_surface, probability_map, sigma_vs_alpha_scan
from .distribution import Distribution2D, scan_axis
from .errors import DomainError, EntlocError
from .oscillator import (
    OscillatorModel,
    concurrence_density,
    ground_state_constants,
    small_a_entanglement_both,
    small_a_entanglement_one,
    small_a_epsilon_both,
    small_a_epsilon_one,
)
from .restrict import (
    DEFAULT_BASIS_SIZE,
    MethodEquivalence,
    Partition,
    Region,
    basis_expansion_entropy,
    both_restricted_entropy,
    both_restricted_profile,
    method_equivalence,
    non_discarding_two_path,
    one_party_map,
    one_restricted_entropy,
    partition_inequality_check,
    two_party_map,
)
from .spin import negativity_vanish_point, negativity_vs_purity, spin_scan


class UsageError(Exception):
    """Bad flags, bad config file, or unknown subcommand (exit code 1)."""


class UnknownSubcommand(UsageError):
    pass


class ConfigParse(UsageError):
    pass


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that reads every negative float, -1e-1 and -inf
    included, as a value; argparse itself reads only -N and -N.N as values
    and takes the others for flags."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(
            r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)

    def error(self, message):  # argparse would sys.exit(2); we map to 1
        raise UsageError(message)


def _flags(masked, empty) -> np.ndarray:
    """Flag tokens of cells from their mask and empty-region flags (arrays)."""
    return np.where(masked, "masked", np.where(empty, "empty", "ok"))


_JSON_SCALARS = {float, int, str, bool, type(None)}


def _float_words(values: np.ndarray) -> list[str]:
    """The JSON text of each float of a 1-d array, each distinct bit pattern
    encoded once, so -0.0 and the infinities keep their own text and NaN is
    null."""
    bits, index = np.unique(values.astype(np.float64).view(np.uint64), return_inverse=True)
    distinct = [None if value != value else value for value in bits.view(np.float64).tolist()]
    words = json.dumps(distinct, separators=("\n", ": "))[1:-1].split("\n")
    return np.array(words, dtype=object)[index].tolist()


def _json_text(obj, pad: str = "") -> str:
    """obj as json.dumps(obj, indent=2) writes it at indent pad, with NaN as
    null and numpy numbers as floats. A flat list of scalars is encoded by
    one call of the C encoder, which json.dumps skips whenever it indents,
    and a 1-d float array by one call on its distinct values (_float_words)."""
    inner = pad + "  "
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1 and obj.size and obj.dtype.kind == "f" and obj.dtype.itemsize <= 8:
            return "[\n" + inner + (",\n" + inner).join(_float_words(obj)) + "\n" + pad + "]"
        obj = obj.tolist()
    elif isinstance(obj, (np.floating, np.integer)):
        obj = float(obj)
    if isinstance(obj, dict):
        items = [f"{json.dumps(key)}: {_json_text(value, inner)}" for key, value in obj.items()]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}" if items else "{}"
    if not isinstance(obj, (list, tuple)):
        return json.dumps(None if isinstance(obj, float) and obj != obj else obj)
    if not obj:
        return "[]"
    kinds = set(map(type, obj))
    if kinds <= _JSON_SCALARS:
        if float in kinds:
            obj = [None if value != value else value for value in obj]  # NaN -> null
        body = json.dumps(obj, separators=(",\n" + inner, ": "))[1:-1]
    else:
        body = (",\n" + inner).join(_json_text(value, inner) for value in obj)
    return "[\n" + inner + body + "\n" + pad + "]"


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _column_text(column) -> list[str]:
    """The CSV words of one column: flag tokens as they are, numbers at 12
    significant digits with -0 written as 0 and a missing value as nan."""
    column = np.asarray(column).ravel()
    if column.dtype.kind == "U":
        return column.tolist()
    distinct, index = np.unique(column.astype(np.float64) + 0.0, return_inverse=True)
    words = ("%.12g\n" * distinct.size % tuple(distinct.tolist())).split("\n")
    return np.array(words[:-1], dtype=object)[index].tolist()


def _write_csv(path: str | None, header, columns) -> None:
    """Header line plus one line per row of the columns (one array each)."""
    lines = map(",".join, zip(*map(_column_text, columns)))
    _write_text(path, "\n".join([",".join(header), *lines]) + "\n")


def _emit_json(payload: dict, path: str | None, metadata: dict) -> None:
    """Write payload as indented JSON with the metadata block last."""
    _write_text(path, _json_text({**payload, "metadata": metadata}) + "\n")


def _emit_table(ns, metadata, header, rows, json_rows) -> None:
    """A table as CSV, or as JSON whose "rows" are json_rows."""
    if ns.format == "csv":
        _write_csv(ns.output, header, zip(*rows))
    else:
        _emit_json({"rows": json_rows}, ns.output, metadata)


def emit_distribution(dist: Distribution2D, path: str | None, fmt: str,
                      metadata: dict | None = None,
                      layer: str | None = None) -> None:
    """Write a surface as CSV (pure data) or JSON (data plus metadata), its
    cells in row-major order; a masked value and a missing prob are nan."""
    values = np.where(dist.mask, np.nan, dist.extra[layer] if layer else dist.values)
    prob = dist.extra.get("prob", np.full(dist.shape, np.nan))
    flag = _flags(dist.mask, dist.extra.get("flag", 0.0) > 0.5)
    name_a, name_b = dist.axis_names
    if fmt == "csv":
        _write_csv(path, (name_a, name_b, "value", "prob", "flag"),
                   (*dist.meshgrid(), values, prob, flag))
        return
    _emit_json({
        "axes": {name_a: dist.axis_a, name_b: dist.axis_b},
        "kind": dist.kind,
        "values": values.ravel(),
        "prob": prob.ravel(),
        "flag": flag.ravel(),
    }, path, metadata or {})


# Rows that parse_distribution splits at a time, so that the split fields of
# one block, not of the whole file, are alive at once.
PARSE_BLOCK = 256


def _float_columns(rows) -> list[np.ndarray]:
    """The first three fields of the split rows as three float arrays, each
    column converted by float as a whole: IndexError if a row is short,
    ValueError if a field is not a number."""
    columns = list(zip(*rows))[:3] if rows else [()] * 3
    if len(columns) < 3:
        raise IndexError("short row")
    return [np.fromiter(map(float, column), np.float64, len(column)) for column in columns]


def _is_malformed(parts) -> bool:
    try:
        _float_columns([parts])
    except (ValueError, IndexError):
        return True
    return False


def _surface_rows(body: list[str]):
    """(a, b, v, masked, malformed): the axis values, values and mask flags
    of the rows of body before the first malformed one, which is row
    malformed (None when every row parses). Rows are split PARSE_BLOCK at a
    time and each block's columns are converted by float as a whole."""
    columns = np.empty((3, len(body)))
    masked = np.zeros(len(body), dtype=bool)
    for start in range(0, len(body), PARSE_BLOCK):
        rows = [line.split(",") for line in body[start:start + PARSE_BLOCK]]
        try:
            columns[:, start:start + len(rows)] = _float_columns(rows)
        except (ValueError, IndexError):
            good = next(k for k, parts in enumerate(rows) if _is_malformed(parts))
            columns[:, start:start + good] = _float_columns(rows[:good])
            return (*columns[:, :start + good], masked[:start + good], start + good)
        masked[start:start + len(rows)] = [len(parts) > 4 and parts[4] == "masked"
                                           for parts in rows]
    return (*columns, masked, None)


def _first_seen(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of x in first-seen order, and the index of each
    element's value among them."""
    _, first, inverse = np.unique(x, return_index=True, return_inverse=True)
    order = np.argsort(first)
    return x[first[order]], np.argsort(order)[inverse.ravel()]


def parse_distribution(path: str) -> Distribution2D:
    """Re-ingest a CSV surface produced by emit_distribution.

    Each column is converted by float as a whole (_surface_rows); the axes
    take their values in first-seen order, and cell (i, j) has the code
    i * n_b + j. A refusal names the first row in file order that is
    malformed, has a non-finite axis value or an infinite value, or repeats
    a cell, else the first cell with no row."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = list(filter(None, map(str.strip, handle.read().split("\n"))))
    except (OSError, ValueError) as exc:
        raise ConfigParse(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ConfigParse(f"{path} is empty")
    header = lines[0].split(",")
    if len(header) < 3:
        raise ConfigParse(f"{path} does not look like a surface CSV")
    # the checks below see the rows before the first malformed one
    a, b, v, masked, malformed = _surface_rows(lines[1:])
    bad = ~(np.isfinite(a) & np.isfinite(b)) | np.isinf(v)
    finite = int(bad.argmax()) if bad.any() else bad.size  # rows before the first bad one
    axis_a, index_a = _first_seen(a[:finite])
    axis_b, index_b = _first_seen(b[:finite])
    codes = index_a * axis_b.size + index_b
    first = np.zeros(finite, dtype=bool)
    first[np.unique(codes, return_index=True)[1]] = True
    if not first.all():
        row = int(first.argmin())
        raise ConfigParse(f"{path}: row {row + 1} repeats the cell "
                          f"({float(a[row])!r}, {float(b[row])!r})")
    if finite < bad.size:
        raise ConfigParse(f"{path}: row {finite + 1} {lines[finite + 1]!r} has a non-finite "
                          "axis value or an infinite value")
    if malformed is not None:
        raise ConfigParse(f"{path}: malformed row {lines[malformed + 1]!r}")
    shape = (axis_a.size, axis_b.size)
    present = np.zeros(shape, dtype=bool)
    present.flat[codes] = True
    if not present.all():
        i, j = np.unravel_index(int(present.argmin()), shape)
        raise ConfigParse(f"{path}: no row for the cell ({float(axis_a[i])!r}, "
                          f"{float(axis_b[j])!r}) of its {shape[0]}x{shape[1]} grid")
    values = np.empty(shape)
    values.flat[codes] = v
    mask = np.zeros(shape, dtype=bool)
    mask.flat[codes] = masked
    return Distribution2D(axis_a=axis_a, axis_b=axis_b, values=values,
                          mask=mask, axis_names=(header[0], header[1]))


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError as exc:
        raise UsageError(f"bad numeric list {text!r}") from exc


def _linspace(lo: float, hi: float, steps: float) -> np.ndarray:
    """The scan axis of a LO HI STEPS range; STEPS is a whole number."""
    if not float(steps).is_integer():
        raise UsageError(f"range {lo:g} {hi:g} {steps:g} needs a whole number of steps")
    steps = int(steps)
    if steps < 2:
        raise UsageError("ranges need at least 2 steps")
    return scan_axis(lo, hi, steps)


def _model(ns) -> OscillatorModel:
    _require(ns, "alpha")
    return OscillatorModel(alpha=ns.alpha)


def _flag_names(dests) -> str:
    return ", ".join("--" + dest.replace("_", "-") for dest in dests)


def _require(ns, *names) -> None:
    """Presence check deferred to after the config-file merge."""
    missing = [name for name in names if getattr(ns, name, None) is None]
    if missing:
        raise UsageError(f"missing required flag(s): {_flag_names(missing)}")


# -- subcommand implementations ------------------------------------------------
# Each handler takes the parsed flags and the metadata block that JSON
# output carries ({"config": flags echoed, "version": ...}).

def _cmd_spin_scan(ns, metadata, f_value=1.0):
    thetas = _linspace(ns.theta_min, ns.theta_max, ns.steps)
    restricted = bool(ns.restricted) or ns.surface == "delta"
    dist = spin_scan(thetas, thetas, measure=ns.measure,
                     restricted=restricted, F=f_value)
    layer = "delta" if ns.surface == "delta" else None
    emit_distribution(dist, ns.output, ns.format, metadata, layer)


def _cmd_spin_negativity_scan(ns, metadata):
    if ns.f_range is None:
        return _cmd_spin_scan(ns, metadata, ns.f_value)
    dist = negativity_vs_purity(ns.theta1, ns.theta2, _linspace(*ns.f_range),
                                restricted=bool(ns.restricted))
    emit_distribution(dist, ns.output, ns.format, metadata)


def _cmd_spin_vanish_point(ns, metadata):
    _require(ns, "theta1", "theta2")
    f_star = negativity_vanish_point(ns.theta1, ns.theta2,
                                     restricted=bool(ns.restricted))
    _emit_json({"F_star": f_star}, ns.output, metadata)


def _cmd_gauss_constants(ns, metadata):
    model = _model(ns)
    gs = ground_state_constants(model)
    _emit_json({
        "alpha": model.alpha,
        "C1": gs.c1,
        "C2": gs.c2,
        "sigma": gs.sigma,
        "w": gs.w,
        "eof": gs.eof,
        "L": gs.l_matrix.tolist(),
    }, ns.output, metadata)


def _cmd_gauss_limits(ns, metadata):
    _require(ns, "alpha", "a")
    model = _model(ns)
    a, b = ns.a, (ns.b if ns.b is not None else ns.a)
    _emit_json({
        "epsilon_one": small_a_epsilon_one(model, a),
        "epsilon_both": small_a_epsilon_both(model, a, b),
        "concurrence_density": concurrence_density(model),
        "entanglement_one": small_a_entanglement_one(model, a),
        "entanglement_both": small_a_entanglement_both(model, a, b),
    }, ns.output, metadata)


def _cmd_gauss_one_restricted(ns, metadata):
    model = _model(ns)
    if ns.centers is None:
        if ns.qbar is None or ns.width is None:
            raise UsageError("need --qbar and --width, or --centers for a map")
        region = Region(ns.qbar, ns.width / 2.0)
        basis = ns.method == "basis"
        if basis:
            result = basis_expansion_entropy(
                model, region, DEFAULT_BASIS_SIZE if ns.n_basis is None else ns.n_basis)
        else:
            result = one_restricted_entropy(model, region, ns.n_bins)
        _emit_json({
            "entanglement": result.entanglement,
            "prob": result.survival_probability,
            "spectrum_size": result.spectrum.size,
            "method": ns.method,
            "n_bins": None if basis else result.resolution,
            "n_basis": result.resolution if basis else None,
        }, ns.output, metadata)
        return
    centers = _linspace(*ns.centers)
    widths = _float_list(ns.widths) if ns.widths else [ns.width]
    if widths == [None]:
        raise UsageError("map mode needs --widths or --width")
    if ns.method == "basis":
        raise DomainError("one-party maps have no basis method")
    dist = one_party_map(model, centers, widths=widths, n_bins=ns.n_bins)
    layer = "rescaled" if ns.surface == "rescaled" else None
    emit_distribution(dist, ns.output, ns.format, metadata, layer)


def _cmd_gauss_both_restricted(ns, metadata):
    _require(ns, "alpha", "width")
    model = _model(ns)
    half = ns.width / 2.0
    half_b = (ns.width_b / 2.0) if ns.width_b is not None else None
    if ns.mode == "point":
        if ns.qbar_a is None or ns.qbar_b is None:
            raise UsageError("point mode needs --qbar-a and --qbar-b")
        result = both_restricted_entropy(
            model, Region(ns.qbar_a, half),
            Region(ns.qbar_b, half_b if half_b is not None else half),
            ns.n_bins)
        _emit_json({
            "entanglement": result.entanglement,
            "prob": result.survival_probability,
            "spectrum_size": result.spectrum.size,
            "n_bins": result.resolution,
        }, ns.output, metadata)
        return
    if ns.centers is None:
        raise UsageError(f"{ns.mode} mode needs --centers lo hi steps")
    centers = _linspace(*ns.centers)
    if ns.mode == "grid":
        dist = two_party_map(model, centers, centers_b=centers,
                             half_width=half, half_width_b=half_b, n_bins=ns.n_bins)
        emit_distribution(dist, ns.output, ns.format, metadata)
        return
    bob_center = None if ns.mode == "profile-equal" else ns.bob_center
    cs, values, probs, flags = both_restricted_profile(
        model, centers, half, bob_center=bob_center, n_bins=ns.n_bins)
    cs = cs.tolist()
    rows = list(zip(cs, cs if bob_center is None else [bob_center] * len(cs),
                    values.tolist(), probs.tolist(), _flags(False, flags > 0.5).tolist()))
    _emit_table(ns, metadata, ("q_bar_A", "q_bar_B", "value", "prob", "flag"), rows, rows)


def _cmd_gauss_classical_map(ns, metadata):
    _require(ns, "alpha", "centers", "width")
    centers = _linspace(*ns.centers)
    dist = probability_map(_model(ns), centers, centers, ns.width / 2.0,
                           (ns.width_b / 2.0) if ns.width_b is not None else None,
                           kind=f"{ns.kind}_probability")
    emit_distribution(dist, ns.output, ns.format, metadata)


def _cmd_gauss_fit(ns, metadata):
    _require(ns, "input")
    dist = parse_distribution(ns.input)
    form = "symmetric_pm" if ns.form == "symmetric" else "conditional"

    def fit(surface):
        params = fit_surface(surface, form, threshold=ns.threshold, window=ns.window)
        return {key: value for key, value in params._asdict().items() if value is not None}

    payload = {"fit": fit(dist)}
    if ns.jitter:
        if not math.isfinite(ns.jitter):
            raise DomainError(f"jitter must be finite, got {ns.jitter}")
        if ns.seed < 0:
            raise DomainError(f"seed must be >= 0, got {ns.seed}")
        rng = np.random.default_rng(ns.seed)
        with np.errstate(over="raise", invalid="raise"):  # NumericalFailure, not a warning
            values = dist.values * (1.0 + ns.jitter * rng.standard_normal(dist.shape))
        noisy = Distribution2D(
            axis_a=dist.axis_a, axis_b=dist.axis_b, values=values,
            kind=dist.kind, mask=dist.mask, axis_names=dist.axis_names)
        payload["jitter_fit"] = fit(noisy)
        payload["jitter"] = ns.jitter
    if ns.window is not None:
        payload["fit_window"] = ns.window
    _emit_json(payload, ns.output, metadata)


def _cmd_gauss_sigma_scan(ns, metadata):
    _require(ns, "alphas")
    rows = sigma_vs_alpha_scan(_float_list(ns.alphas), which=ns.which.replace("-", "_"),
                               half_width=ns.width / 2.0, extent=ns.extent, steps=ns.steps)
    _emit_table(ns, metadata, SigmaRow._fields, rows, [row._asdict() for row in rows])


def _cmd_gauss_inequality(ns, metadata):
    model = _model(ns)
    partition_a, partition_b = (
        Partition.uniform(-ns.extent, ns.extent, n, ns.tail_handling)
        for n in (ns.grid_a, ns.grid_b))
    report = partition_inequality_check(model, partition_a, partition_b, ns.n_bins)
    payload = {
        "weighted_sum": report.weighted_sum,
        "full_entanglement": report.full_entanglement,
        "slack": report.slack,
        "cells": [{
            "a_lo": cell.region_a.lo, "a_hi": cell.region_a.hi,
            "b_lo": cell.region_b.lo, "b_hi": cell.region_b.hi,
            "probability": cell.probability,
            "entanglement": cell.entanglement,
        } for cell in report.cells],
    }
    if ns.nd_center is not None and ns.nd_half_width is not None:
        identity, mixture, gap = non_discarding_two_path(
            model, Region(ns.nd_center, ns.nd_half_width))
        payload["non_discarding"] = {
            "entanglement": identity.entanglement,
            "prob": identity.survival_probability,
            "inside": identity.entanglement_inside,
            "outside": identity.entanglement_outside,
            "locally_accessible": identity.locally_accessible,
            "mixture_value": mixture,
            "two_path_gap": gap,
        }
    _emit_json(payload, ns.output, metadata)


def _cmd_gauss_converge(ns, metadata):
    model = _model(ns)
    header = ("width", *MethodEquivalence._fields)
    rows = []
    for width in _float_list(ns.widths):
        eq = method_equivalence(model, Region(ns.qbar, width / 2.0),
                                n_bins=ns.n_bins, n_basis=ns.n_basis)
        rows.append((width, *eq))
    _emit_table(ns, metadata, header, rows, [dict(zip(header, row)) for row in rows])


# -- argument plumbing -----------------------------------------------------------

def _arg(*names, **kwargs):
    """One flag: the positional and keyword arguments of add_argument."""
    return names, kwargs


def _range(name, **kwargs):
    return _arg(name, type=float, nargs=3, metavar=("LO", "HI", "STEPS"), **kwargs)


_COMMON = (
    _arg("--config", help="flat JSON file of flag defaults"),
    _arg("--output", "-o", help="output path (default stdout)"),
    _arg("--format", choices=("csv", "json"), default="csv"),
)
_MODEL = (_arg("--alpha", type=float),)
_RESTRICTED = _arg("--restricted", action="store_true", default=None)
_SPIN = (
    _arg("--steps", type=int, default=64),
    _arg("--theta-min", type=float, default=0.0),
    _arg("--theta-max", type=float, default=2.0 * math.pi),
    _RESTRICTED,
    _arg("--surface", choices=("value", "delta"), default="value"),
)


class _Subcommand(NamedTuple):
    handler: Callable
    flags: tuple            # after the common flags, in help and config-echo order
    defaults: dict | None = None  # namespace entries that no flag sets
    # the flags (as dests) that the mode of the parsed namespace does not read
    unread: Callable = lambda ns: ()


# Every subcommand, in the order `--help` lists them.
_SUBCOMMANDS = {
    "spin-scan": _Subcommand(_cmd_spin_scan, _SPIN, {"measure": "entropy"}),
    "spin-negativity-scan": _Subcommand(_cmd_spin_negativity_scan, _SPIN + (
        _arg("--f-value", type=float, default=1.0),
        _range("--f-range", help="sweep F at fixed angles instead"),
        _arg("--theta1", type=float, default=0.25 * math.pi),
        _arg("--theta2", type=float, default=0.25 * math.pi),
    ), {"measure": "negativity"}, lambda ns: ("theta1", "theta2") if ns.f_range is None
        else ("steps", "theta_min", "theta_max", "surface", "f_value")),
    "spin-vanish-point": _Subcommand(_cmd_spin_vanish_point, (
        _arg("--theta1", type=float), _arg("--theta2", type=float), _RESTRICTED)),
    "gauss-constants": _Subcommand(_cmd_gauss_constants, _MODEL),
    "gauss-one-restricted": _Subcommand(_cmd_gauss_one_restricted, _MODEL + (
        _arg("--qbar", type=float),
        _arg("--width", type=float),
        _range("--centers"),
        _arg("--widths", help="comma-separated widths for a map"),
        _arg("--surface", choices=("value", "rescaled"), default="value"),
        _arg("--n-bins", type=int),
        _arg("--method", choices=("grid", "basis"), default="grid"),
        _arg("--n-basis", type=int),
    ), unread=lambda ns: ("widths", "surface", "n_bins" if ns.method == "basis" else "n_basis")
        if ns.centers is None else ("qbar", "n_basis") + (("width",) if ns.widths else ())),
    "gauss-both-restricted": _Subcommand(_cmd_gauss_both_restricted, _MODEL + (
        _arg("--mode", choices=("point", "grid", "profile-equal", "profile-fixed"),
             default="point"),
        _arg("--qbar-a", type=float),
        _arg("--qbar-b", type=float),
        _arg("--bob-center", type=float, default=0.0),
        _range("--centers"),
        _arg("--width", type=float),
        _arg("--width-b", type=float),
        _arg("--n-bins", type=int),
    ), unread=lambda ns: {
        "point": ("centers", "bob_center"),
        "grid": ("qbar_a", "qbar_b", "bob_center"),
        "profile-equal": ("qbar_a", "qbar_b", "bob_center", "width_b"),
        "profile-fixed": ("qbar_a", "qbar_b", "width_b"),
    }[ns.mode]),
    "gauss-limits": _Subcommand(_cmd_gauss_limits, _MODEL + (
        _arg("--a", type=float), _arg("--b", type=float))),
    "gauss-classical-map": _Subcommand(_cmd_gauss_classical_map, _MODEL + (
        _range("--centers"),
        _arg("--width", type=float),
        _arg("--width-b", type=float),
        _arg("--kind", choices=("joint", "conditional"), default="joint"),
    )),
    "gauss-fit": _Subcommand(_cmd_gauss_fit, (
        _arg("--seed", type=int, default=0),
        _arg("--input"),
        _arg("--form", choices=("symmetric", "conditional"), default="symmetric"),
        _arg("--threshold", type=float, default=1e-3),
        _arg("--window", type=float),
        _arg("--jitter", type=float, default=0.0),
    ), unread=lambda ns: () if ns.jitter else ("seed",)),
    "gauss-sigma-scan": _Subcommand(_cmd_gauss_sigma_scan, (
        _arg("--alphas"),
        _arg("--which", choices=("classical", "quantum", "small-a-analytic"),
             default="classical"),
        _arg("--width", type=float, default=0.5),
        _arg("--extent", type=float, default=4.0),
        _arg("--steps", type=int, default=33),
    ), unread=lambda ns: ("width", "extent", "steps") if ns.which == "small-a-analytic" else ()),
    "gauss-inequality": _Subcommand(_cmd_gauss_inequality, _MODEL + (
        _arg("--grid-a", type=int, default=4),
        _arg("--grid-b", type=int, default=4),
        _arg("--extent", type=float, default=4.0),
        _arg("--tail-handling", choices=("truncate", "merge-into-end-segments"),
             default="truncate"),
        _arg("--n-bins", type=int),
        _arg("--nd-center", type=float),
        _arg("--nd-half-width", type=float),
    ), unread=lambda ns: () if ns.nd_center is not None and ns.nd_half_width is not None
        else ("nd_center", "nd_half_width")),
    "gauss-converge": _Subcommand(_cmd_gauss_converge, _MODEL + (
        _arg("--qbar", type=float, default=0.0),
        _arg("--widths", default="1,2,4"),
        _arg("--n-bins", type=int, default=200),
        _arg("--n-basis", type=int, default=40),
    )),
}


def _build_parser(subcommand: str) -> _Parser:
    # allow_abbrev=False: a prefix of a flag is an unknown flag, not that flag
    parser = _Parser(prog=f"entloc {subcommand}", add_help=True, allow_abbrev=False)
    command = _SUBCOMMANDS[subcommand]
    for names, kwargs in _COMMON + command.flags:
        parser.add_argument(*names, **kwargs)
    parser.set_defaults(**(command.defaults or {}))
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or not UTF-8
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigParse("config file must hold a flat JSON object")
    return config


def _config_value(action, key: str, value):
    """A config value as its flag holds it.

    A string goes through the flag's type, as argparse treats a string
    default; a typed flag otherwise takes a JSON number (a list of them for
    a LO HI STEPS range). An integer flag takes an integral number only, and
    an integral float becomes an int. A flag with choices takes one of them.
    """
    if action is not None and action.choices and value not in action.choices:
        raise ConfigParse(f"config value {key!r} must be one of {', '.join(action.choices)}")
    if action is None or action.type is None:
        return value
    if action.nargs is None:
        return _typed(action.type, key, value)
    if not isinstance(value, list) or len(value) != action.nargs:
        raise ConfigParse(f"config value {key!r} must be a list of {action.nargs}")
    return [_typed(action.type, key, item) for item in value]


def _typed(kind, key: str, value):
    if isinstance(value, str):
        try:
            return kind(value)
        except ValueError as exc:
            raise ConfigParse(f"config value {key!r}: {exc}") from exc
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigParse(f"config value {key!r} must be a number, got {value!r}")
    if kind is int and isinstance(value, float):
        if not value.is_integer():
            raise ConfigParse(f"config value {key!r} must be an integer, got {value!r}")
        return int(value)
    return value


_UNSET = object()  # a seeded namespace value that no flag on argv replaced


def _parse(subcommand: str, argv: list[str]):
    """Parse flags over config-file values over flag defaults, and refuse a
    flag given on the command line that the chosen mode does not read. A
    config key that is null, or that names one of the subcommand's own
    defaults, is left unused, as if the file did not hold it."""
    parser = _build_parser(subcommand)
    actions = {action.dest: action for action in parser._actions}
    # argparse leaves a seeded attribute alone unless argv gives its flag
    given = vars(parser.parse_args(argv, argparse.Namespace(**dict.fromkeys(actions, _UNSET))))
    seeded = argparse.Namespace()
    fixed = _SUBCOMMANDS[subcommand].defaults or {}
    if given["config"] not in (_UNSET, ""):
        for key, value in _load_config(given["config"]).items():
            dest = key.replace("-", "_")
            if value is not None and dest not in fixed:
                setattr(seeded, dest, _config_value(actions.get(dest), key, value))
    ns = parser.parse_args(argv, namespace=seeded)
    unread = [dest for dest in _SUBCOMMANDS[subcommand].unread(ns) if given[dest] is not _UNSET]
    if unread:
        raise UsageError(f"{subcommand} does not read {_flag_names(unread)} in this mode")
    return ns


def run(argv: list[str]) -> int:
    """Entry point; returns the process exit code."""
    try:
        if not argv:
            raise UsageError(
                "usage: entloc <subcommand> [flags]; subcommands: "
                + ", ".join(_SUBCOMMANDS))
        subcommand, rest = argv[0], argv[1:]
        if subcommand in ("-h", "--help"):
            sys.stdout.write("subcommands: " + ", ".join(_SUBCOMMANDS) + "\n")
            return 0
        if subcommand not in _SUBCOMMANDS:
            raise UnknownSubcommand(f"unknown subcommand {subcommand!r}")
        ns = _parse(subcommand, rest)
        config_echo = {key: value for key, value in vars(ns).items()
                       if key != "config" and value is not None}
        config_echo["subcommand"] = subcommand
        _SUBCOMMANDS[subcommand].handler(
            ns, {"config": config_echo, "version": __version__})
        return 0
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    except (UsageError, EntlocError, FloatingPointError, OverflowError) as exc:
        known = isinstance(exc, (UsageError, EntlocError))
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__ if known else "NumericalFailure",
            "message": str(exc)}) + "\n")
        return 1 if isinstance(exc, UsageError) else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
