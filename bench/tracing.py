"""Spans and counts around every public entloc function, recorded from outside.

`Tracer.install` replaces each public module-level function of entloc by a
wrapper in every entloc module that binds its name, so a call is traced
wherever the calling module looks the function up. The dataclass
validators `DensityMatrix.__post_init__` and `Distribution2D.__post_init__`
are wrapped on their classes. No file of entloc changes.

A span is (name, start, end, parent) plus two numbers of work taken from
the call's arguments or result, such as a matrix size or a point count.
Spans live in flat arrays in memory and are written out by `save`.
`layer_metrics` turns one round of spans into the per-layer metrics.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array

import numpy as np

EIGEN_CLAMP = 1e-12          # entloc's entropy clamp (linalg.EIGENVALUE_CLAMP)
EMPTY, OTHER_ERROR = 1, 2    # values of the `raised` column


def _size(result) -> float:
    return float(np.size(result))


def _eigen_work(args, kwargs, result):
    spectrum = result[0] if isinstance(result, tuple) else result
    lam = spectrum.eigenvalues
    return float(lam.size), float(np.count_nonzero(lam > EIGEN_CLAMP))


def _emit_work(args, kwargs, result):
    fmt = args[2] if len(args) > 2 else kwargs.get("fmt")
    return float(args[0].values.size), float(fmt == "json")


# Work recorded per span: (work, aux) from (args, kwargs, result).
WORK = {
    "linalg.eigen_symmetric": _eigen_work,
    "oscillator.reduced_density_value": lambda a, k, r: (_size(r), 0.0),
    "oscillator.two_particle_wavefunction": lambda a, k, r: (_size(r), 0.0),
    "oscillator.marginal_position_density": lambda a, k, r: (_size(r), 0.0),
    "oscillator.joint_position_density": lambda a, k, r: (_size(r), 0.0),
    "spin.spin_scan": lambda a, k, r: (float(r.values.size), 0.0),
    "spin.negativity_vs_purity": lambda a, k, r: (float(r.values.size), 0.0),
    "cli.emit_distribution": _emit_work,
    "cli.parse_distribution": lambda a, k, r: (float(r.values.size), 0.0),
}


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.labels: list[str] = []
        self._label_id: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self.aux = array("d")
        self.raised = array("b")
        self._stack = [-1]

    def _open(self, label_id: int) -> int:
        idx = len(self.name)
        self.name.append(label_id)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.work.append(0.0)
        self.aux.append(0.0)
        self.raised.append(0)
        self._stack.append(idx)
        return idx

    def wrap(self, fn, label: str):
        label_id = self._label_id.setdefault(label, len(self.labels))
        if label_id == len(self.labels):
            self.labels.append(label)
        work = WORK.get(label)
        count_nodes = label == "quadrature.integrate_2d"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = self._open(label_id)
            if count_nodes:
                args, counts = _counted_integrand(args)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.raised[idx] = EMPTY if type(exc).__name__ == "EmptyRegionMass" \
                    else OTHER_ERROR
                raise
            finally:
                self.end[idx] = clock()
                self.start[idx] = t0
                self._stack.pop()
            if count_nodes:
                self.work[idx], self.aux[idx] = float(sum(counts)), float(counts[-1])
            elif work is not None:
                self.work[idx], self.aux[idx] = work(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every public function of entloc's modules where they are bound."""
        modules = {name: mod for name, mod in sys.modules.items()
                   if name.startswith("entloc.") and mod is not None}
        wrappers = {}
        for mod in modules.values():
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or attr.startswith("_") \
                        or fn.__module__ not in modules or attr == "main":
                    continue
                if fn not in wrappers:
                    layer = fn.__module__.rsplit(".", 1)[1]
                    wrappers[fn] = self.wrap(fn, f"{layer}.{fn.__name__}")
                self._restore.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])
        for cls, label in ((modules["entloc.linalg"].DensityMatrix, "linalg.validate"),
                           (modules["entloc.distribution"].Distribution2D,
                            "distribution.construct")):
            original = cls.__dict__["__post_init__"]
            self._restore.append((cls, "__post_init__", original))
            setattr(cls, "__post_init__", self.wrap(original, label))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy columns."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "work": np.frombuffer(self.work, dtype=np.float64).copy(),
            "aux": np.frombuffer(self.aux, dtype=np.float64).copy(),
            "raised": np.frombuffer(self.raised, dtype=np.int8).copy(),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, labels=np.array(self.labels), **self.arrays())


def _counted_integrand(args):
    """Replace integrate_2d's integrand by one that records each evaluation's node count."""
    counts: list[int] = []
    f = args[0]

    def counted(xs, ys):
        counts.append(int(np.size(xs)) * int(np.size(ys)))
        return f(xs, ys)
    return (counted,) + tuple(args[1:]), counts


def layer_metrics(labels: list[str], spans: dict[str, np.ndarray], commands: int,
                  bytes_written: int) -> dict[str, float]:
    """Per-layer metrics of one round of spans.

    `linalg.validate_us`, `linalg.eigen_us`, `linalg.negativity_us` and
    `restrict.basis_us` are totals over the round. The other times are
    means: per command, row, cell or call as their names say, and per call
    for `correlate.fit_ms` and `distribution.construct_us`. Self time is a
    span's duration less that of its child spans. A mean whose layer did no
    work in the round reads 0.
    """
    name = spans["name"]
    parent = spans["parent"]
    dur = spans["end"] - spans["start"]
    work, aux, raised = spans["work"], spans["aux"], spans["raised"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
    self_time = dur - child
    names = np.array(list(labels) + [""])          # "" stands for "no parent"
    label = names[name]
    parent_label = names[np.where(has_parent, name[np.maximum(parent, 0)], len(labels))]
    layer = np.array([s.split(".")[0] for s in label], dtype=str)
    parent_layer = np.array([s.split(".")[0] for s in parent_label], dtype=str)

    def sel(*names):
        return np.isin(label, names)

    def ratio(num, den):
        return float(num / den) if den else 0.0

    def total(mask):
        return float(dur[mask].sum())

    cells_mask = sel("restrict.one_restricted_entropy", "restrict.both_restricted_entropy",
                     "restrict.basis_expansion_entropy") & ~np.isin(
        parent_label, ("restrict.one_restricted_entropy", "restrict.both_restricted_entropy",
                       "restrict.basis_expansion_entropy"))
    cells = int(cells_mask.sum())
    kernel = sel("oscillator.reduced_density_value", "oscillator.two_particle_wavefunction") \
        & (parent_layer != "oscillator")
    density = sel("oscillator.marginal_position_density", "oscillator.joint_position_density") \
        & (parent_layer != "oscillator")
    spin_cells = work[sel("spin.spin_scan", "spin.negativity_vs_purity")
                      & (parent_layer != "spin")].sum()
    emit = sel("cli.emit_distribution")
    csv, json_ = emit & (aux == 0), emit & (aux == 1)
    parse = sel("cli.parse_distribution")
    eigen = sel("linalg.eigen_symmetric")
    validate = sel("linalg.validate")
    q1, q2 = sel("quadrature.integrate_1d"), sel("quadrature.integrate_2d")
    one, both = sel("restrict.one_restricted_entropy"), sel("restrict.both_restricted_entropy")
    prob = sel("correlate.joint_probability", "correlate.conditional_probability") \
        & (parent_label != "correlate.conditional_probability")
    fit = sel("correlate.fit_surface")
    construct = sel("distribution.construct")
    us, ms = 1e6, 1e3
    return {
        "cli.self_ms_per_cmd": ratio(self_time[layer == "cli"].sum() * ms, commands),
        "cli.emit_csv_us_per_row": ratio(total(csv) * us, work[csv].sum()),
        "cli.emit_json_us_per_row": ratio(total(json_) * us, work[json_].sum()),
        "cli.parse_us_per_row": ratio(total(parse) * us, work[parse].sum()),
        "cli.bytes_written": float(bytes_written),
        "spin.self_us_per_cell": ratio(self_time[layer == "spin"].sum() * us, spin_cells),
        "spin.cells": float(spin_cells),
        "linalg.validate_calls": float(validate.sum()),
        "linalg.validate_us": total(validate) * us,
        "linalg.eigen_calls": float(eigen.sum()),
        "linalg.eigen_us": total(eigen) * us,
        "linalg.eigen_n3_sum": float((work[eigen] ** 3).sum()),
        "linalg.eigen_useful_ratio": ratio(aux[eigen].sum(), work[eigen].sum()),
        "linalg.negativity_us": total(sel("linalg.negativity")) * us,
        "oscillator.kernel_points": float(work[kernel].sum()),
        "oscillator.kernel_us_per_cell": ratio(total(kernel) * us, cells),
        "oscillator.density_points": float(work[density].sum()),
        "quadrature.calls_1d": float(q1.sum()),
        "quadrature.calls_2d": float(q2.sum()),
        "quadrature.us_per_call_2d": ratio(total(q2) * us, q2.sum()),
        "quadrature.nodes_2d": float(work[q2].sum()),
        "quadrature.useful_ratio_2d": ratio(aux[q2].sum(), work[q2].sum()),
        "restrict.one_cell_us": ratio(total(one) * us, one.sum()),
        "restrict.both_cell_us": ratio(total(both) * us, both.sum()),
        "restrict.self_us_per_cell": ratio(self_time[layer == "restrict"].sum() * us, cells),
        "restrict.basis_us": total(sel("restrict.basis_expansion_entropy")) * us,
        "restrict.empty_cells": float(((one | both) & (raised == EMPTY)).sum()),
        "correlate.prob_cell_us": ratio(total(prob) * us, prob.sum()),
        "correlate.fit_ms": ratio(total(fit) * ms, fit.sum()),
        "distribution.construct_us": ratio(total(construct) * us, construct.sum()),
    }
