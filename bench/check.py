"""Checks of every operation's output against the references in reference.py.

Nothing here imports entloc. Each check reads the file one command wrote and
returns a list of failures; an empty list is a pass. Tolerances are stated
accuracies, not today's errors, so a more accurate engine still passes:

* spin values and probabilities: 1e-9 absolute (closed forms);
* the vanishing point F*: 1e-5 absolute, since entloc finds it by bisection
  to 1e-6;
* survival probabilities: 1e-9 relative plus 1e-14 absolute;
* one-party entropies: 1.5 % of the coupling's EoF; two-party entropies:
  2 % of it (the uniform grid converges at O(1/n); today's worst cells are
  4.7e-3 and 8.8e-3 ebit at alpha = 6);
* fitted widths: 1e-6 relative against an independent fit of the same
  file, 15 % against the paper's widths and against fits of the reference
  maps, 2 % against the closed-form classical widths.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reference as ref
from workloads import SIGMA_ALPHAS, WIDTHS, Op

TOL_SPIN = 1e-9
TOL_VANISH = 1e-5
TOL_PROB_REL = 1e-9
TOL_PROB_ABS = 1e-14
TOL_ONE = 0.015
TOL_TWO = 0.02
TOL_SYMMETRY = 1e-9
TOL_EOF_LIMIT = 5e-3
TOL_SAME_FIT = 1e-6
TOL_PAPER_FIT = 0.15
TOL_CLASSICAL_FIT = 0.02
# A region below the lower mass must be flagged empty and one above the upper
# mass must not; in between either flag passes.
EMPTY_BAND = (1e-15, 1e-13)
SPIN_SINGULAR_BAND = (1e-13, 1e-11)
PAPER_WIDTHS = {0.5: (10.4, 2.29), 4.0: (3.44, 2.10)}
# half length of the truncated line standing in for the complement of a region
DOMAIN_HALF = 8.0 * math.sqrt(2.0)


@dataclass
class Surface:
    """A CSV or JSON surface: axes, row-major values, probabilities and flags."""

    a: np.ndarray
    b: np.ndarray
    values: np.ndarray
    prob: np.ndarray
    flag: np.ndarray


def read_rows(path: Path):
    """Columns (axis_a, axis_b, value, prob, flag) of a surface CSV, row by row."""
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    if lines[0].split(",")[2:] != ["value", "prob", "flag"] or any(len(r) != 5 for r in rows):
        raise ValueError(f"{path.name}: not an axis_a,axis_b,value,prob,flag table")
    cols = [np.array([float(r[k]) for r in rows]) for k in range(4)]
    return (*cols, np.array([r[4] for r in rows]))


def read_csv_surface(path: Path) -> Surface:
    a, b, values, prob, flag = read_rows(path)
    axis_a = np.array(list(dict.fromkeys(a.tolist())))
    axis_b = np.array(list(dict.fromkeys(b.tolist())))
    shape = (axis_a.size, axis_b.size)
    if a.size != axis_a.size * axis_b.size or np.any(a != np.repeat(axis_a, axis_b.size)) \
            or np.any(b != np.tile(axis_b, axis_a.size)):
        raise ValueError(f"{path.name}: rows are not a row-major grid")
    return Surface(axis_a, axis_b, values.reshape(shape), prob.reshape(shape),
                   flag.reshape(shape))


def read_json_surface(path: Path) -> Surface:
    data = json.loads(path.read_text())
    (a, b) = (np.array(axis, dtype=np.float64) for axis in data["axes"].values())
    shape = (a.size, b.size)

    def grid(key):
        return np.array([math.nan if v is None else v for v in data[key]],
                        dtype=np.float64).reshape(shape)
    return Surface(a, b, grid("values"), grid("prob"),
                   np.array(data["flag"]).reshape(shape))


def read_table(path: Path) -> dict[str, np.ndarray]:
    lines = path.read_text().splitlines()
    names = lines[0].split(",")
    cols = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return {name: cols[:, k] for k, name in enumerate(names)}


# -- comparison helpers ---------------------------------------------------------

def _close(label: str, got, want, atol: float, rtol: float = 0.0, where=None) -> list[str]:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    where = np.ones(np.broadcast(got, want).shape, bool) if where is None else where
    err = np.abs(got - want)
    bad = where & ~(err <= atol + rtol * np.abs(want))
    if not bad.any():
        return []
    k = np.flatnonzero(bad)[0]
    got_b, want_b = np.broadcast_to(got, bad.shape), np.broadcast_to(want, bad.shape)
    return [f"{label}: {int(bad.sum())} of {int(where.sum())} off, first at index "
            f"{np.unravel_index(k, bad.shape)}: got {got_b.flat[k]!r}, want {want_b.flat[k]!r}"]


def _axes(s: Surface, a, b) -> list[str]:
    if s.a.size != len(a) or s.b.size != len(b):
        return [f"grid is {s.a.size}x{s.b.size}, want {len(a)}x{len(b)}"]
    return _close("axis_a", s.a, a, 1e-10, 1e-11) + _close("axis_b", s.b, b, 1e-10, 1e-11)


def _flags(s: Surface, mass, band, token: str) -> tuple[np.ndarray, list[str]]:
    """Cells flagged `token`, after checking they are the ones with no mass."""
    flagged = s.flag == token
    must = mass < band[0]
    must_not = mass > band[1]
    errors = []
    if np.any(~np.isin(s.flag, ("ok", token))):
        errors.append(f"unexpected flag tokens {sorted(set(s.flag.ravel()) - {'ok', token})}")
    if np.any(must & ~flagged) or np.any(must_not & flagged):
        errors.append(f"{token} flags: {int(np.sum(must & ~flagged))} missing, "
                      f"{int(np.sum(must_not & flagged))} spurious")
    return flagged, errors


def _all_ok(s: Surface) -> list[str]:
    return [] if (s.flag == "ok").all() else [f"flags {sorted(set(s.flag.ravel()))}, want ok"]


def _prob(label, got, want, where=None) -> list[str]:
    return _close(label, got, want, TOL_PROB_ABS, TOL_PROB_REL, where)


def _mirror(label: str, values: np.ndarray, live: np.ndarray, *, swap: bool = False) -> list[str]:
    """values(-q) = values(q) over the centre axes, and values(a, b) = values(b, a)
    when swap is set. Centre axes are symmetric about 0; a width axis is not
    one, so a map over (centre, width) is reversed along its first axis only."""
    flip = values[::-1, ::-1] if swap else values[::-1]
    live_flip = live[::-1, ::-1] if swap else live[::-1]
    errors = _close(f"{label} mirror symmetry", values, flip, TOL_SYMMETRY,
                    where=live & live_flip)
    if swap:
        errors += _close(f"{label} exchange symmetry", values, values.T, TOL_SYMMETRY,
                         where=live & live.T)
    return errors


def _widths(label: str, got: dict, want: dict, rtol: float) -> list[str]:
    errors = []
    for name, value in want.items():
        if not abs(got[name] - value) <= rtol * abs(value):
            errors.append(f"{label} {name}: got {got[name]!r}, want {value!r} within {rtol:.0%}")
    return errors


# -- references, computed once per run -------------------------------------------

class References:
    """Reference arrays for one seed's inputs, computed on first use."""

    def __init__(self, params: dict[str, str]):
        self.alpha = float(params["alpha"])
        self.alpha_weak = float(params["alpha_weak"])
        self.f_value = float(params["f_value"])
        self.theta = (float(params["theta1"]), float(params["theta2"]))
        self._cache: dict = {}

    def _memo(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def one_map(self, alpha: float, centers, widths):
        """(entropy, mass) of Alice's filter over centres x widths."""
        def build():
            c, w = np.meshgrid(centers, widths, indexing="ij")
            lo, hi = c - w / 2.0, c + w / 2.0
            return ref.one_restricted_entropy(alpha, [(lo, hi)]), ref.marginal_mass(alpha, lo, hi)
        return self._memo(("one", alpha, tuple(centers), tuple(widths)), build)

    def both(self, alpha: float, ca, cb, half: float):
        """(entropy, joint mass) of both filters at paired centres, same shape as ca."""
        def build():
            args = (ca - half, ca + half, cb - half, cb + half)
            mass = ref.joint_mass(alpha, *args)
            return ref.both_restricted_entropy(alpha, *args), mass
        return self._memo(("both", alpha, ca.tobytes(), cb.tobytes(), half), build)

    def both_map(self, alpha: float, centers, half: float):
        ca, cb = np.meshgrid(centers, centers, indexing="ij")
        return self.both(alpha, ca, cb, half)


def _spin_thetas():
    t = np.linspace(0.0, 2.0 * math.pi, 64)
    return t, np.meshgrid(t, t, indexing="ij")


def _one_map_check(s: Surface, r: References, alpha: float, widths: list[float],
                   rescaled: bool = False) -> list[str]:
    centers = np.linspace(-4.0, 4.0, 81)
    errors = _axes(s, centers, widths)
    if errors:
        return errors
    value, mass = r.one_map(alpha, centers, widths)
    empty, errors = _flags(s, mass, EMPTY_BAND, "empty")
    live = ~empty
    eof = ref.eof(alpha)
    errors += _prob("prob", s.prob, mass, live)
    errors += _close("empty cells", np.nan_to_num(s.values), 0.0, 0.0, where=empty)
    if rescaled:
        peak = value.max(axis=0)
        errors += _close("rescaled value", s.values, value / peak, TOL_ONE * eof / peak, where=live)
        errors += _close("rescaled peak", s.values.max(axis=0), 1.0, 1e-11)
        return errors + _mirror("rescaled", s.values, live)
    errors += _close("entropy", s.values, value, TOL_ONE * eof, where=live)
    errors += _mirror("entropy", s.values, live)
    errors += _close("one <= EoF", np.minimum(s.values, eof), s.values, 1e-4)
    if 10.0 in widths:
        widest = s.values[40, widths.index(10.0)]
        errors += _close("widest region -> EoF", widest, eof, TOL_EOF_LIMIT)
    return errors


def _spin_surface(s: Surface, r: References, measure: str, restricted: bool,
                  delta: bool) -> list[str]:
    t, (t1, t2) = _spin_thetas()
    errors = _axes(s, t, t)
    if errors:
        return errors
    f = r.f_value
    if measure == "entropy":
        base = ref.spin_entropy(t1, t2)
        value, prob = ref.spin_restricted_entropy(t1, t2), ref.spin_survival(t1, t2)
    else:
        base = ref.spin_negativity(t1, t2, f)
        value, prob = ref.spin_restricted_negativity(t1, t2, f)
    if not restricted:
        return (_close("value", s.values, base, TOL_SPIN) + _close("prob", s.prob, 1.0, 0.0)
                + _all_ok(s))
    masked, errors = _flags(s, prob, SPIN_SINGULAR_BAND, "masked")
    live = ~masked
    want = value - base if delta else value
    errors += _close("value", s.values, want, TOL_SPIN, where=live)
    errors += _close("prob", s.prob, prob, TOL_SPIN, where=live)
    errors += _close("masked cells", np.isnan(s.values), True, 0.0, where=masked)
    errors += _close("masked prob", s.prob, 0.0, 0.0, where=masked)
    return errors


def _spin_sweep(s: Surface, r: References, restricted: bool) -> list[str]:
    f = np.linspace(0.0625, 1.0, 128)
    quarter = math.pi / 4.0
    errors = _axes(s, f, [quarter])
    if errors:
        return errors
    if not restricted:
        return (_close("value", s.values[:, 0], ref.spin_negativity(quarter, quarter, f), TOL_SPIN)
                + _close("prob", s.prob, 1.0, 0.0))
    value, trace = ref.spin_restricted_negativity(quarter, quarter, f)
    return (_close("value", s.values[:, 0], value, TOL_SPIN)
            + _close("prob", s.prob[:, 0], trace, TOL_SPIN))


def _vanish(path: Path, r: References) -> list[str]:
    got = json.loads(path.read_text())["F_star"]
    errors = _close("F*", got, ref.vanish_point(*r.theta), TOL_VANISH)
    if all(abs(t - math.pi / 4.0) < 1e-9 for t in r.theta):
        errors += _close("F* at pi/4", got, 0.25, TOL_VANISH)
    return errors


def _converge(path: Path, r: References) -> list[str]:
    t = read_table(path)
    widths = [1.0, 2.0, 4.0]
    errors = _close("widths", t["width"], widths, 0.0)
    if errors:
        return errors
    w = np.array(widths)
    value = ref.one_restricted_entropy(r.alpha, [(-w / 2.0, w / 2.0)])
    tol = TOL_ONE * ref.eof(r.alpha)
    for name, scale in (("grid_fine", 1), ("basis_fine", 1), ("grid_coarse", 2),
                        ("basis_coarse", 2), ("grid_limit", 1), ("basis_limit", 1)):
        errors += _close(name, t[name], value, scale * tol)
    errors += _close("grid_limit = 2 fine - coarse", t["grid_limit"],
                     2.0 * t["grid_fine"] - t["grid_coarse"], 1e-10)
    errors += _close("basis_limit = 2 fine - coarse", t["basis_limit"],
                     2.0 * t["basis_fine"] - t["basis_coarse"], 1e-10)
    errors += _close("gap", t["gap"], np.abs(t["grid_limit"] - t["basis_limit"]), 1e-10)
    return errors


def _profile(path: Path, r: References, bob_fixed: bool) -> list[str]:
    a, b, values, prob, flag = read_rows(path)
    centers = np.linspace(-4.0, 4.0, 81)
    bob = np.zeros(81) if bob_fixed else centers
    if a.size != 81:
        return [f"profile has {a.size} rows, want 81"]
    errors = _close("alice centres", a, centers, 1e-10, 1e-11)
    errors += _close("bob centres", b, bob, 1e-10, 1e-11)
    if errors:
        return errors
    value, mass = r.both(r.alpha, centers, bob, 0.25)
    one, _ = r.one_map(r.alpha, centers, [0.5])
    eof = ref.eof(r.alpha)
    flat = Surface(a, np.zeros(1), values[:, None], prob[:, None], flag[:, None])
    empty, errors = _flags(flat, mass[:, None], EMPTY_BAND, "empty")
    live = ~empty[:, 0]
    errors += _close("entropy", values, value, TOL_TWO * eof, where=live)
    errors += _prob("prob", prob, mass, live)
    errors += _close("both <= one", np.minimum(values, one[:, 0] + TOL_TWO * eof), values, 0.0)
    errors += _close("mirror symmetry", values, values[::-1], TOL_SYMMETRY,
                     where=live & live[::-1])
    return errors


def _both_map(s: Surface, r: References, centers, half: float) -> list[str]:
    errors = _axes(s, centers, centers)
    if errors:
        return errors
    value, mass = r.both_map(r.alpha, centers, half)
    empty, errors = _flags(s, mass, EMPTY_BAND, "empty")
    live = ~empty
    errors += _close("entropy", s.values, value, TOL_TWO * ref.eof(r.alpha), where=live)
    errors += _prob("prob", s.prob, mass, live)
    errors += _close("empty cells", np.abs(s.values) + np.abs(s.prob), 0.0, 0.0, where=empty)
    errors += _close("both <= EoF", np.minimum(s.values, ref.eof(r.alpha)), s.values, 1e-4)
    return errors + _mirror("entropy", s.values, live, swap=True)


def _map_fit_against_paper(s: Surface, r: References, value: np.ndarray,
                           width: float) -> list[str]:
    """Widths of the map inside |centre| <= 4 against the reference map's, and
    against the paper's at alpha = 6."""
    inner = np.abs(s.a) <= 4.0 + 1e-9
    window = np.ix_(inner, inner)
    xg, yg = np.meshgrid(s.a[inner], s.b[inner], indexing="ij")
    got = ref.fit_widths(xg, yg, s.values[window], "symmetric")
    errors = _widths("fit vs reference map", got,
                     ref.fit_widths(xg, yg, value[window], "symmetric"), TOL_PAPER_FIT)
    if r.alpha == 6.0:
        paper = dict(zip(("sigma_plus", "sigma_minus"), PAPER_WIDTHS[width]))
        errors += _widths("fit vs paper", got, paper, TOL_PAPER_FIT)
    return errors


def _classical_map(s: Surface, r: References, kind: str) -> list[str]:
    centers = np.linspace(-4.0, 4.0, 41)
    errors = _axes(s, centers, centers)
    if errors:
        return errors
    _, joint = r.both_map(r.alpha, centers, 0.25)
    errors += _close("prob column", np.isnan(s.prob), True, 0.0)
    if kind == "joint":
        errors += _all_ok(s) + _prob("joint probability", s.values, joint)
        return errors + _mirror("joint", s.values, np.ones(s.values.shape, bool), swap=True)
    marginal = ref.marginal_mass(r.alpha, centers - 0.25, centers + 0.25)[:, None]
    masked, flag_errors = _flags(s, np.broadcast_to(marginal, s.values.shape),
                                 EMPTY_BAND, "masked")
    errors += flag_errors
    return errors + _close("conditional probability", s.values, joint / marginal,
                           TOL_PROB_ABS / marginal, TOL_PROB_REL, where=~masked)


def _fit(path: Path, r: References, form: str) -> list[str]:
    got = json.loads(path.read_text())["fit"]
    source = read_csv_surface(path.parent / ("ent_map_w05.csv" if form == "symmetric"
                                             else "cond_w05.csv"))
    xg, yg = np.meshgrid(source.a, source.b, indexing="ij")
    errors = _widths("fit vs independent fit of the same map", got,
                     ref.fit_widths(xg, yg, source.values, form), TOL_SAME_FIT)
    centers = np.linspace(-4.0, 4.0, 41)
    if form == "symmetric":
        value, _ = r.both_map(r.alpha, centers, 0.25)
        errors += _widths("fit vs reference map", got,
                          ref.fit_widths(xg, yg, value, form), TOL_PAPER_FIT)
        if r.alpha == 6.0:
            paper = dict(zip(("sigma_plus", "sigma_minus"), PAPER_WIDTHS[0.5]))
            errors += _widths("fit vs paper", got, paper, TOL_PAPER_FIT)
        return errors
    closed = ref.classical_widths(r.alpha, 0.25)
    return errors + _widths("fit vs closed form", got,
                            {k: closed[k] for k in ("sigma_1", "sigma_2", "sigma_12")},
                            TOL_CLASSICAL_FIT)


def _sigma_scan(path: Path, r: References, which: str) -> list[str]:
    t = read_table(path)
    alphas = [float(a) for a in SIGMA_ALPHAS.split(",")]
    errors = _close("alphas", t["alpha"], alphas, 0.0)
    if errors:
        return errors
    centers = np.linspace(-4.0, 4.0, 33)
    xg, yg = np.meshgrid(centers, centers, indexing="ij")
    for k, alpha in enumerate(alphas):
        got = {name: t[name][k] for name in t if name != "alpha"}
        if which == "classical":
            errors += _widths(f"alpha={alpha} vs closed form", got,
                              ref.classical_widths(alpha, 0.25), TOL_CLASSICAL_FIT)
            continue
        value, _ = r.both_map(alpha, centers, 0.25)
        errors += _widths(f"alpha={alpha} vs reference map", got,
                          ref.fit_widths(xg, yg, value, "symmetric"), TOL_PAPER_FIT)
    return errors


def _inequality(path: Path, r: References) -> list[str]:
    data = json.loads(path.read_text())
    eof = ref.eof(r.alpha)
    cells = data["cells"]
    edges = np.linspace(-4.0, 4.0, 5)
    want_a = np.repeat(edges[:-1], 4)
    want_b = np.tile(edges[:-1], 4)
    col = {key: np.array([c[key] for c in cells], dtype=np.float64) for key in cells[0]}
    errors = _close("cell edges a", col["a_lo"], want_a, 1e-12)
    errors += _close("cell edges b", col["b_lo"], want_b, 1e-12)
    errors += _close("cell widths", np.r_[col["a_hi"] - col["a_lo"], col["b_hi"] - col["b_lo"]],
                     2.0, 1e-12)
    if errors:
        return errors
    value = ref.both_restricted_entropy(r.alpha, col["a_lo"], col["a_hi"], col["b_lo"], col["b_hi"])
    mass = ref.joint_mass(r.alpha, col["a_lo"], col["a_hi"], col["b_lo"], col["b_hi"])
    live = mass > EMPTY_BAND[1]
    errors += _prob("cell probability", col["probability"], mass)
    errors += _close("cell entanglement", col["entanglement"], value, TOL_TWO * eof, where=live)
    errors += _close("full entanglement", data["full_entanglement"], eof, 1e-9)
    weighted = float(np.sum(col["probability"] * col["entanglement"]))
    errors += _close("weighted sum", data["weighted_sum"], weighted, 1e-9)
    errors += _close("slack", data["slack"], data["full_entanglement"] - data["weighted_sum"], 1e-9)
    errors += _close("slack >= 0", max(data["slack"], 0.0), data["slack"], 0.0)

    nd = data["non_discarding"]
    lo, hi = -1.0, 1.0  # the non-discarding region of the workload
    p = float(ref.marginal_mass(r.alpha, lo, hi))
    inside = float(ref.one_restricted_entropy(r.alpha, [(lo, hi)]))
    outside = float(ref.one_restricted_entropy(
        r.alpha, [(-DOMAIN_HALF, lo), (hi, DOMAIN_HALF)]))
    tol = TOL_ONE * eof
    errors += _prob("nd prob", nd["prob"], p)
    errors += _close("nd inside", nd["inside"], inside, tol)
    errors += _close("nd outside", nd["outside"], outside, tol)
    errors += _close("nd identity", nd["entanglement"],
                     nd["prob"] * nd["inside"] + (1.0 - nd["prob"]) * nd["outside"], 1e-9)
    errors += _close("nd locally accessible", nd["locally_accessible"], nd["prob"] * nd["inside"],
                     1e-9)
    errors += _close("nd mixture", nd["mixture_value"], nd["entanglement"], tol)
    errors += _close("nd two-path gap", nd["two_path_gap"],
                     abs(nd["mixture_value"] - nd["entanglement"]), 1e-9)
    return errors


# (measure, restricted, delta surface) of each spin scan
SPIN_SURFACES = {
    "spin_S": ("entropy", False, False), "spin_SD": ("entropy", True, False),
    "spin_dS": ("entropy", True, True), "spin_N": ("negativity", False, False),
    "spin_ND": ("negativity", True, False), "spin_dN": ("negativity", True, True),
}


def check(op: Op, round_dir: Path, r: References) -> list[str]:
    """Failures of one operation's output; empty when it passes."""
    path = round_dir / op.output
    widths = [float(w) for w in WIDTHS.split(",")]
    k = op.key
    if k in SPIN_SURFACES:
        return _spin_surface(read_csv_surface(path), r, *SPIN_SURFACES[k])
    if k == "spin_SD_json":
        data = json.loads(path.read_text())
        errors = [] if data["metadata"]["config"]["subcommand"] == "spin-scan" else \
            ["metadata does not echo the subcommand"]
        return errors + _spin_surface(read_json_surface(path), r, "entropy", True, False)
    if k in ("spin_NF", "spin_NF_D"):
        return _spin_sweep(read_csv_surface(path), r, restricted=k == "spin_NF_D")
    if k == "spin_vanish":
        return _vanish(path, r)
    if k in ("one_a6", "one_a006", "one_a6_rescaled"):
        alpha = r.alpha_weak if k == "one_a006" else r.alpha
        return _one_map_check(read_csv_surface(path), r, alpha, widths,
                              rescaled=k == "one_a6_rescaled")
    if k == "both_case3":
        return _one_map_check(read_csv_surface(path), r, r.alpha, [0.5])
    if k == "converge":
        return _converge(path, r)
    if k in ("both_case1", "both_case2"):
        return _profile(path, r, bob_fixed=k == "both_case2")
    if k in ("ent_map_w05", "ent_map_w4"):
        width = 0.5 if k == "ent_map_w05" else 4.0
        centers = np.linspace(-4.0, 4.0, 41) if width == 0.5 else np.linspace(-6.0, 6.0, 41)
        s = read_csv_surface(path)
        errors = _both_map(s, r, centers, width / 2.0)
        if not errors and width == 4.0:
            value, _ = r.both_map(r.alpha, centers, 2.0)
            errors += _map_fit_against_paper(s, r, value, width)
        return errors
    if k in ("joint_w05", "cond_w05"):
        return _classical_map(read_csv_surface(path), r, k.split("_")[0])
    if k in ("fit_ent", "fit_cond"):
        return _fit(path, r, "symmetric" if k == "fit_ent" else "conditional")
    if k in ("sig_q", "sig_c"):
        return _sigma_scan(path, r, "quantum" if k == "sig_q" else "classical")
    if k == "ineq":
        return _inequality(path, r)
    raise KeyError(f"no check for operation {k!r}")
