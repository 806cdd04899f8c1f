"""Command-line driver.

Subcommands cover every tabulated result: spin-model scans, oscillator
constants and limits, restricted-entanglement maps, classical probability
maps, surface fits, the partition inequality and the grid/basis
convergence study. Scans are emitted as plot-ready CSV
(axis_a,axis_b,value,prob,flag at 12 significant digits) or as JSON with a
metadata block echoing the run configuration; scalar results are JSON.

Exit codes: 0 success, 1 usage/configuration error, 2 numerical failure
(structured JSON description on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, astuple, fields
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .correlate import SigmaRow, fit_surface, probability_map, sigma_vs_alpha_scan
from .distribution import Distribution2D
from .errors import EntlocError
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
    DiscretizationSpec,
    MethodEquivalence,
    Partition,
    Region,
    both_restricted_entropy,
    both_restricted_profile,
    entanglement_map,
    method_equivalence,
    non_discarding_two_path,
    one_restricted_entropy,
    partition_inequality_check,
)
from .spin import negativity_vanish_point, negativity_vs_purity, spin_scan


class UsageError(Exception):
    """Bad flags, bad config file, or unknown subcommand (exit code 1)."""


class UnknownSubcommand(UsageError):
    pass


class ConfigParse(UsageError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we map to 1
        raise UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, str):  # flag tokens
        return value
    if value is None or (isinstance(value, float) and math.isnan(value)):
        return "nan"
    if value == 0:
        value = 0.0  # normalize -0.0
    return f"{value:.12g}"


def _flag_token(masked: bool, empty: bool) -> str:
    return "masked" if masked else "empty" if empty else "ok"


def _json_safe(obj):
    if isinstance(obj, float):
        return None if math.isnan(obj) else obj
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _json_safe(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return _json_safe(float(obj))
    return obj


def _write_text(path: str | None, text: str) -> None:
    if path in (None, "-"):
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _write_csv(path: str | None, header, rows) -> None:
    """Header line plus one line per row, numbers at 12 significant digits."""
    lines = [",".join(header)]
    lines += [",".join(map(_fmt, row)) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _emit_json(payload: dict, path: str | None, metadata: dict) -> None:
    """Write payload as indented JSON with the metadata block last."""
    document = _json_safe({**payload, "metadata": metadata})
    _write_text(path, json.dumps(document, indent=2) + "\n")


def _emit_table(ns, metadata, header, rows, json_rows) -> None:
    """A table as CSV, or as JSON whose "rows" are json_rows."""
    if ns.format == "csv":
        _write_csv(ns.output, header, rows)
    else:
        _emit_json({"rows": json_rows}, ns.output, metadata)


def distribution_rows(dist: Distribution2D, layer: str | None = None):
    """Row-major (axis_a, axis_b, value, prob, flag) records of a surface."""
    values = dist.extra[layer] if layer else dist.values
    prob = dist.extra.get("prob")
    empty = dist.extra.get("flag")
    rows = []
    for i, a in enumerate(dist.axis_a):
        for j, b in enumerate(dist.axis_b):
            masked = bool(dist.mask[i, j])
            value = math.nan if masked else float(values[i, j])
            p = math.nan if prob is None else float(prob[i, j])
            is_empty = bool(empty is not None and empty[i, j] > 0.5)
            rows.append((float(a), float(b), value, p,
                         _flag_token(masked, is_empty)))
    return rows


def emit_distribution(dist: Distribution2D, path: str | None, fmt: str,
                      metadata: dict | None = None,
                      layer: str | None = None) -> None:
    """Write a surface as CSV (pure data) or JSON (data plus metadata)."""
    rows = distribution_rows(dist, layer)
    name_a, name_b = dist.axis_names
    if fmt == "csv":
        _write_csv(path, (name_a, name_b, "value", "prob", "flag"), rows)
        return
    _emit_json({
        "axes": {name_a: dist.axis_a.tolist(), name_b: dist.axis_b.tolist()},
        "kind": dist.kind,
        "values": [v for _, _, v, _, _ in rows],
        "prob": [p for _, _, _, p, _ in rows],
        "flag": [flag for *_, flag in rows],
    }, path, metadata or {})


def parse_distribution(path: str) -> Distribution2D:
    """Re-ingest a CSV surface produced by emit_distribution."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except (OSError, ValueError) as exc:
        raise ConfigParse(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise ConfigParse(f"{path} is empty")
    header = lines[0].split(",")
    if len(header) < 3:
        raise ConfigParse(f"{path} does not look like a surface CSV")
    index_a, index_b, records = {}, {}, []  # axis value -> index, first-seen order
    for line in lines[1:]:
        parts = line.split(",")
        try:
            a, b, v = float(parts[0]), float(parts[1]), float(parts[2])
        except (ValueError, IndexError) as exc:
            raise ConfigParse(f"{path}: malformed row {line!r}") from exc
        records.append((index_a.setdefault(a, len(index_a)),
                        index_b.setdefault(b, len(index_b)),
                        v, len(parts) > 4 and parts[4] == "masked"))
    values = np.full((len(index_a), len(index_b)), np.nan)
    mask = np.zeros_like(values, dtype=bool)
    for i, j, v, masked in records:
        values[i, j] = v
        mask[i, j] = masked
    return Distribution2D(axis_a=list(index_a), axis_b=list(index_b), values=values,
                          mask=mask, axis_names=(header[0], header[1]))


def _float_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in str(text).split(",") if tok != ""]
    except ValueError as exc:
        raise UsageError(f"bad numeric list {text!r}") from exc


def _linspace(lo: float, hi: float, steps: int) -> np.ndarray:
    steps = int(steps)
    if steps < 2:
        raise UsageError("ranges need at least 2 steps")
    return np.linspace(lo, hi, steps)


def _model(ns) -> OscillatorModel:
    _require(ns, "alpha")
    return OscillatorModel(alpha=ns.alpha, m=ns.m, omega=ns.omega)


def _spec(ns) -> DiscretizationSpec | None:
    return None if ns.n_bins is None else DiscretizationSpec(n_bins=int(ns.n_bins))


def _require(ns, *names) -> None:
    """Presence check deferred to after the config-file merge."""
    missing = [name for name in names if getattr(ns, name, None) is None]
    if missing:
        flags = ", ".join("--" + name.replace("_", "-") for name in missing)
        raise UsageError(f"missing required flag(s): {flags}")


def _workers(ns) -> int:
    if getattr(ns, "workers", None) is not None:
        return max(1, int(ns.workers))
    env = os.environ.get("ENTLOC_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigParse(f"bad ENTLOC_THREADS value {env!r}") from exc
    return 1


# -- subcommand implementations ------------------------------------------------
# Each handler takes the parsed flags and the metadata block that JSON
# output carries ({"config": flags echoed, "version": ...}).

def _cmd_spin_scan(ns, metadata):
    if getattr(ns, "f_range", None) is not None:
        dist = negativity_vs_purity(ns.theta1, ns.theta2, _linspace(*ns.f_range),
                                    restricted=bool(ns.restricted))
        emit_distribution(dist, ns.output, ns.format, metadata)
        return
    thetas = _linspace(ns.theta_min, ns.theta_max, ns.steps)
    restricted = bool(ns.restricted) or ns.surface == "delta"
    dist = spin_scan(thetas, thetas, measure=ns.measure,
                     restricted=restricted, F=ns.f_value)
    layer = "delta" if ns.surface == "delta" else None
    emit_distribution(dist, ns.output, ns.format, metadata, layer)


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
        spec = _spec(ns) if ns.method != "basis" else DiscretizationSpec(
            method="basis", n_basis=ns.n_basis, quadrature_order=ns.quadrature_order)
        result = one_restricted_entropy(model, Region(ns.qbar, ns.width / 2.0), spec)
        _emit_json({
            "entanglement": result.entanglement,
            "prob": result.survival_probability,
            "spectrum_size": result.spectrum.size,
            "method": result.spec.method,
            "n_bins": result.spec.n_bins,
            "n_basis": result.spec.n_basis,
        }, ns.output, metadata)
        return
    centers = _linspace(*ns.centers)
    widths = _float_list(ns.widths) if ns.widths else [ns.width]
    if widths == [None]:
        raise UsageError("map mode needs --widths or --width")
    dist = entanglement_map(model, centers, widths=np.asarray(widths),
                            spec=_spec(ns), workers=_workers(ns))
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
            _spec(ns))
        _emit_json({
            "entanglement": result.entanglement,
            "prob": result.survival_probability,
            "spectrum_size": result.spectrum.size,
            "n_bins": result.spec.n_bins,
        }, ns.output, metadata)
        return
    if ns.centers is None:
        raise UsageError(f"{ns.mode} mode needs --centers lo hi steps")
    centers = _linspace(*ns.centers)
    if ns.mode == "grid":
        dist = entanglement_map(model, centers, centers_b=centers,
                                half_width=half, half_width_b=half_b,
                                spec=_spec(ns), workers=_workers(ns))
        emit_distribution(dist, ns.output, ns.format, metadata)
        return
    bob_center = None if ns.mode == "profile-equal" else ns.bob_center
    cs, values, probs, flags = both_restricted_profile(
        model, centers, half, bob_center=bob_center, spec=_spec(ns),
        workers=_workers(ns))
    rows = [(c, c if bob_center is None else bob_center, v, p,
             _flag_token(False, f > 0.5))
            for c, v, p, f in zip(cs, values, probs, flags)]
    _emit_table(ns, metadata, ("q_bar_A", "q_bar_B", "value", "prob", "flag"), rows, rows)


def _cmd_gauss_classical_map(ns, metadata):
    _require(ns, "alpha", "centers", "width")
    centers = _linspace(*ns.centers)
    dist = probability_map(_model(ns), centers, centers, ns.width / 2.0,
                           (ns.width_b / 2.0) if ns.width_b else None,
                           kind=f"{ns.kind}_probability", workers=_workers(ns))
    emit_distribution(dist, ns.output, ns.format, metadata)


def _cmd_gauss_fit(ns, metadata):
    _require(ns, "input")
    dist = parse_distribution(ns.input)
    form = "symmetric_pm" if ns.form == "symmetric" else "conditional"

    def fit(surface):
        params = fit_surface(surface, form, threshold=ns.threshold, window=ns.window)
        return {key: value for key, value in asdict(params).items() if value is not None}

    payload = {"fit": fit(dist)}
    if ns.jitter:
        rng = np.random.default_rng(ns.seed)
        noisy = Distribution2D(
            axis_a=dist.axis_a, axis_b=dist.axis_b,
            values=dist.values * (1.0 + ns.jitter * rng.standard_normal(dist.shape)),
            kind=dist.kind, mask=dist.mask, axis_names=dist.axis_names)
        payload["jitter_fit"] = fit(noisy)
        payload["jitter"] = ns.jitter
    if ns.window is not None:
        payload["fit_window"] = ns.window
    _emit_json(payload, ns.output, metadata)


def _cmd_gauss_sigma_scan(ns, metadata):
    _require(ns, "alphas")
    rows = sigma_vs_alpha_scan(_float_list(ns.alphas), which=ns.which.replace("-", "_"),
                               half_width=ns.width / 2.0, extent=ns.extent,
                               steps=ns.steps, workers=_workers(ns))
    _emit_table(ns, metadata, [f.name for f in fields(SigmaRow)],
                [astuple(row) for row in rows], [asdict(row) for row in rows])


def _cmd_gauss_inequality(ns, metadata):
    model = _model(ns)
    partition_a, partition_b = (
        Partition.uniform(-ns.extent, ns.extent, int(n), ns.tail_handling)
        for n in (ns.grid_a, ns.grid_b))
    report = partition_inequality_check(model, partition_a, partition_b, _spec(ns))
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
            model, Region(ns.nd_center, ns.nd_half_width), _spec(ns))
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
    header = ["width"] + [f.name for f in fields(MethodEquivalence)]
    rows = []
    for width in _float_list(ns.widths):
        eq = method_equivalence(model, Region(ns.qbar, width / 2.0),
                                n_bins=int(ns.n_bins), n_basis=int(ns.n_basis))
        rows.append((width, *astuple(eq)))
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
    _arg("--workers", type=int),
    _arg("--seed", type=int, default=0),
)
_MODEL = (
    _arg("--alpha", type=float),
    _arg("--m", type=float, default=1.0),
    _arg("--omega", type=float, default=1.0),
)
_RESTRICTED = _arg("--restricted", action="store_true", default=None)
_SPIN = (
    _arg("--steps", type=int, default=64),
    _arg("--theta-min", type=float, default=0.0),
    _arg("--theta-max", type=float, default=2.0 * math.pi),
    _RESTRICTED,
    _arg("--surface", choices=("value", "delta"), default="value"),
    _arg("--f-value", type=float, default=1.0),
)


class _Subcommand(NamedTuple):
    handler: Callable
    flags: tuple            # after the common flags, in help and config-echo order
    defaults: dict | None = None  # namespace entries that no flag sets


# Every subcommand, in the order `--help` lists them.
_SUBCOMMANDS = {
    "spin-scan": _Subcommand(_cmd_spin_scan, _SPIN, {"measure": "entropy"}),
    "spin-negativity-scan": _Subcommand(_cmd_spin_scan, _SPIN + (
        _range("--f-range", help="sweep F at fixed angles instead"),
        _arg("--theta1", type=float, default=0.25 * math.pi),
        _arg("--theta2", type=float, default=0.25 * math.pi),
    ), {"measure": "negativity"}),
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
        _arg("--quadrature-order", type=int, default=16),
    )),
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
    )),
    "gauss-limits": _Subcommand(_cmd_gauss_limits, _MODEL + (
        _arg("--a", type=float), _arg("--b", type=float))),
    "gauss-classical-map": _Subcommand(_cmd_gauss_classical_map, _MODEL + (
        _range("--centers"),
        _arg("--width", type=float),
        _arg("--width-b", type=float),
        _arg("--kind", choices=("joint", "conditional"), default="joint"),
    )),
    "gauss-fit": _Subcommand(_cmd_gauss_fit, (
        _arg("--input"),
        _arg("--form", choices=("symmetric", "conditional"), default="symmetric"),
        _arg("--threshold", type=float, default=1e-3),
        _arg("--window", type=float),
        _arg("--jitter", type=float, default=0.0),
    )),
    "gauss-sigma-scan": _Subcommand(_cmd_gauss_sigma_scan, (
        _arg("--alphas"),
        _arg("--which", choices=("classical", "quantum", "small-a-analytic"),
             default="classical"),
        _arg("--width", type=float, default=0.5),
        _arg("--extent", type=float, default=4.0),
        _arg("--steps", type=int, default=33),
    )),
    "gauss-inequality": _Subcommand(_cmd_gauss_inequality, _MODEL + (
        _arg("--grid-a", type=int, default=4),
        _arg("--grid-b", type=int, default=4),
        _arg("--extent", type=float, default=4.0),
        _arg("--tail-handling", choices=("truncate", "merge-into-end-segments"),
             default="truncate"),
        _arg("--n-bins", type=int),
        _arg("--nd-center", type=float),
        _arg("--nd-half-width", type=float),
    )),
    "gauss-converge": _Subcommand(_cmd_gauss_converge, _MODEL + (
        _arg("--qbar", type=float, default=0.0),
        _arg("--widths", default="1,2,4"),
        _arg("--n-bins", type=int, default=200),
        _arg("--n-basis", type=int, default=40),
    )),
}


def _build_parser(subcommand: str) -> _Parser:
    parser = _Parser(prog=f"entloc {subcommand}", add_help=True)
    command = _SUBCOMMANDS[subcommand]
    for names, kwargs in _COMMON + command.flags:
        parser.add_argument(*names, **kwargs)
    parser.set_defaults(**(command.defaults or {}))
    return parser


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigParse(f"cannot read config {path}: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigParse("config file must hold a flat JSON object")
    return config


def _parse(subcommand: str, argv: list[str]):
    """Parse flags, letting explicit flags override config-file values."""
    parser = _build_parser(subcommand)
    probe = parser.parse_args(argv)
    if not probe.config:
        return probe
    config = _load_config(probe.config)
    seeded = argparse.Namespace(**{key.replace("-", "_"): value
                                   for key, value in config.items()})
    return parser.parse_args(argv, namespace=seeded)


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
    except (UsageError, EntlocError, np.linalg.LinAlgError, FloatingPointError,
            OverflowError) as exc:
        known = isinstance(exc, (UsageError, EntlocError))
        sys.stderr.write(json.dumps({
            "error": type(exc).__name__ if known else "NumericalFailure",
            "message": str(exc)}) + "\n")
        return 1 if isinstance(exc, UsageError) else 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
