"""Tabulated surfaces over a 2-d scan grid."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

# The most cells of a map, scan or sweep. Through cli.run, a command's
# tracemalloc peak grows by at most about 990 bytes a cell (gauss-inequality's
# JSON cell list; two-party maps and profiles 420-670, one-party maps, spin
# surfaces and classical maps 160-390), so a map at the budget peaks within
# restrict.KERNEL_BYTES (512 MiB).
MAX_CELLS = 1 << 19


def check_span(lo: float, hi: float, what: str) -> None:
    """Refuse with DomainError, naming them, the bounds lo and hi of what
    when either is not finite or their span hi - lo overflows."""
    if not math.isfinite(float(hi) - float(lo)):  # inf or nan for any such bounds
        raise DomainError(f"{what} bounds {float(lo)!r} and {float(hi)!r} must be finite "
                          "and have a finite span")


def check_cells(cells: int) -> None:
    """Refuse with DomainError a map, scan or sweep of more than MAX_CELLS
    cells."""
    if cells > MAX_CELLS:
        raise DomainError(f"a map or scan of {cells} cells is past the budget of "
                          f"{MAX_CELLS} cells")


def scan_axis(lo: float, hi: float, steps: int, other_axis: int | None = 1) -> np.ndarray:
    """np.linspace(lo, hi, steps), made its own mirror image bit for bit when
    lo == -hi, so that mirrored cells of a map meet exactly. Fewer than 2
    steps, bounds that check_span refuses, and a map of steps x other_axis
    cells (other_axis None: the axis is both of the map's) past MAX_CELLS
    (check_cells) are refused with DomainError before the axis is built."""
    if steps < 2:
        raise DomainError(f"a scan axis needs at least 2 steps, got {steps}")
    check_span(lo, hi, "scan axis")
    check_cells(steps * (steps if other_axis is None else other_axis))
    x = np.linspace(lo, hi, steps)
    return (x - x[::-1]) / 2.0 if lo == -hi else x


@dataclass
class Distribution2D:
    """Sampled surface values[i, j] at (axis_a[i], axis_b[j]).

    kind is one of "entanglement", "joint_probability" or
    "conditional_probability". mask marks missing cells (for example
    singular scan points); extra holds auxiliary same-shape layers such as
    survival probabilities, difference surfaces or empty-region flags.
    """

    axis_a: np.ndarray
    axis_b: np.ndarray
    values: np.ndarray
    kind: str = "entanglement"
    mask: np.ndarray | None = None
    axis_names: tuple[str, str] = ("q_bar_A", "q_bar_B")
    extra: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self):
        self.axis_a = np.asarray(self.axis_a, dtype=np.float64)
        self.axis_b = np.asarray(self.axis_b, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = (self.axis_a.size, self.axis_b.size)
        if self.values.shape != expected:
            raise ValueError(
                f"values shape {self.values.shape} does not match axes {expected}")
        if self.mask is None:
            self.mask = np.zeros(expected, dtype=bool)
        else:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != expected:
                raise ValueError("mask shape does not match axes")
        for name, layer in self.extra.items():
            layer = np.asarray(layer, dtype=np.float64)
            if layer.shape != expected:
                raise ValueError(f"extra layer {name!r} shape mismatch")
            self.extra[name] = layer
        if self.kind.endswith("probability"):
            live = self.values[~self.mask & np.isfinite(self.values)]
            if live.size and live.min() < -1e-12:
                raise ValueError(f"negative {self.kind} value {live.min()}")
            if self.kind == "joint_probability" and live.size \
                    and live.max() > 1.0 + 1e-12:
                raise ValueError(f"joint probability {live.max()} exceeds 1")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """Coordinate arrays broadcast to the surface shape."""
        return np.meshgrid(self.axis_a, self.axis_b, indexing="ij")
