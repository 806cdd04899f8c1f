"""Region-restricted measurement ensembles for the oscillator pair.

A preliminary measurement that only resolves "is the particle inside the
interval [center - a, center + a]?" projects the state onto that region.
This module discretizes the surviving (discarding-ensemble) states two
independent ways -- direct kernel sampling on a grid, and projection onto
an orthonormal sine/cosine family supported on the region -- and evaluates
the entanglement left in each ensemble:

* discarding ensemble: keep only the in-region outcome, renormalize;
* non-discarding ensemble: keep both outcomes as a labelled mixture, whose
  entanglement equals the probability-weighted average of the conditional
  (discarding) entanglements;
* precise-measurement ensemble: an exact position readout inside the
  region, which is diagonal in Alice's coordinate and therefore carries no
  entanglement at all.

Grid matrices sample the continuum kernel pointwise and are renormalized
by their trace; survival probabilities come from adaptive quadrature of
the analytic position densities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distribution import Distribution2D
from .errors import (
    DomainError,
    EmptyRegionMass,
    NegativeEigenvalue,
    QuadratureNotConverged,
)
from .linalg import DensityMatrix, Spectrum, eigen_symmetric, negativity
from .oscillator import (
    OscillatorModel,
    gaussian_eof,
    joint_position_density,
    marginal_position_density,
    reduced_density_value,
    two_particle_wavefunction,
)
from .quadrature import integrate_1d, integrate_2d, panel_nodes

DEFAULT_BINS_ONE = 200
DEFAULT_BINS_BOTH = 100
DEFAULT_BINS_PRECISE = 16
DEFAULT_BASIS_SIZE = 40
EMPTY_MASS = 1e-14
_TWO_PATH_BOB_BINS = 256


@dataclass(frozen=True)
class Region:
    """Interval [center - half_width, center + half_width] on one axis."""

    center: float
    half_width: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.half_width)):
            raise DomainError(f"region center {self.center} and half_width "
                              f"{self.half_width} must be finite")
        if self.half_width <= 0.0:
            raise DomainError(f"half_width must be positive, got {self.half_width}")

    @property
    def lo(self) -> float:
        return self.center - self.half_width

    @property
    def hi(self) -> float:
        return self.center + self.half_width

    @property
    def width(self) -> float:
        return 2.0 * self.half_width


@dataclass(frozen=True)
class Partition:
    """Ordered disjoint contiguous regions covering one party's domain.

    tail_handling decides what happens to the probability mass outside the
    covered interval: "truncate" ignores it, "merge-into-end-segments"
    stretches the outermost segments to the truncated domain boundary.
    """

    segments: tuple[Region, ...]
    tail_handling: str = "truncate"

    def __post_init__(self):
        if not self.segments:
            raise DomainError("partition needs at least one segment")
        for left, right in zip(self.segments, self.segments[1:]):
            if abs(left.hi - right.lo) > 1e-9:
                raise DomainError("partition segments must be contiguous")
        if self.tail_handling not in ("truncate", "merge-into-end-segments"):
            raise DomainError(f"unknown tail handling {self.tail_handling!r}")

    @staticmethod
    def uniform(lo: float, hi: float, n_segments: int,
                tail_handling: str = "truncate") -> "Partition":
        if hi <= lo or n_segments < 1:
            raise DomainError("uniform partition needs lo < hi and >= 1 segment")
        edges = np.linspace(lo, hi, n_segments + 1)
        segments = tuple(
            Region(center=0.5 * (a + b), half_width=0.5 * (b - a))
            for a, b in zip(edges[:-1], edges[1:]))
        return Partition(segments, tail_handling)

    @property
    def lo(self) -> float:
        return self.segments[0].lo

    @property
    def hi(self) -> float:
        return self.segments[-1].hi

    def effective_segments(self, domain_half: float) -> tuple[Region, ...]:
        """Segments with tails resolved against the truncated domain."""
        segments = list(self.segments)
        if self.tail_handling == "merge-into-end-segments":
            if segments[0].lo > -domain_half:
                first = segments[0]
                segments[0] = Region(center=0.5 * (first.hi - domain_half),
                                     half_width=0.5 * (first.hi + domain_half))
            if segments[-1].hi < domain_half:
                last = segments[-1]
                segments[-1] = Region(center=0.5 * (last.lo + domain_half),
                                      half_width=0.5 * (domain_half - last.lo))
        return tuple(segments)


@dataclass(frozen=True)
class DiscretizationSpec:
    """How to discretize a restricted density matrix.

    method "grid" samples the kernel on n_bins + 1 equally spaced points;
    method "basis" projects onto n_basis orthonormal functions, with
    quadrature_order Gauss-Legendre points per integration panel.
    """

    method: str = "grid"
    n_bins: int | None = None
    n_basis: int | None = None
    quadrature_order: int = 16

    def __post_init__(self):
        if self.method not in ("grid", "basis"):
            raise DomainError(f"unknown discretization method {self.method!r}")
        if self.n_bins is not None and self.n_bins < 2:
            raise DomainError("n_bins must be >= 2")
        if self.n_basis is not None and self.n_basis < 1:
            raise DomainError("n_basis must be >= 1")
        if self.quadrature_order < 2:
            raise DomainError("quadrature_order must be >= 2")


@dataclass(frozen=True)
class EnsembleResult:
    """Entanglement surviving a restriction, with its discretized spectrum."""

    entanglement: float
    survival_probability: float
    spectrum: Spectrum
    spec: DiscretizationSpec

    def __post_init__(self):
        if not -1e-9 <= self.survival_probability <= 1.0 + 1e-9:
            raise DomainError(
                f"survival probability {self.survival_probability} outside [0, 1]")
        if self.entanglement < 0.0:
            raise DomainError(f"negative entanglement {self.entanglement}")
        # quadrature round-off can land marginally outside [0, 1]
        object.__setattr__(self, "survival_probability",
                           min(1.0, max(0.0, self.survival_probability)))


def domain_half_length(model: OscillatorModel) -> float:
    """Truncation half-length standing in for the unrestricted line.

    Eight times the widest normal-mode width; the neglected tail mass is
    below 1e-14.
    """
    return 8.0 * math.sqrt(2.0 / (model.m * model.omega))


def region_survival_probability(model: OscillatorModel, region: Region) -> float:
    """Probability of finding Alice's particle inside the region."""
    return integrate_1d(lambda q: marginal_position_density(model, q),
                        region.lo, region.hi)


def joint_survival_probability(model: OscillatorModel, region_a: Region,
                               region_b: Region) -> float:
    """Probability that both particles land in their respective regions."""
    return integrate_2d(lambda qa, qb: joint_position_density(model, qa, qb),
                        region_a.lo, region_a.hi, region_b.lo, region_b.hi)


def _entropy_and_spectrum(matrix: np.ndarray) -> tuple[float, Spectrum]:
    """Trace-normalize an assembled restricted matrix and take its entropy."""
    sym = 0.5 * (matrix + matrix.T)
    trace = float(np.trace(sym))
    if trace <= 0.0:
        raise EmptyRegionMass("assembled matrix has no trace mass")
    dm = DensityMatrix(sym / trace)
    spectrum = eigen_symmetric(dm)
    if spectrum.eigenvalues[-1] < -1e-8:
        raise NegativeEigenvalue(
            f"restricted matrix eigenvalue {spectrum.eigenvalues[-1]:.3e}")
    return spectrum.entropy_bits(), spectrum


def _grid_points(region: Region, n_bins: int) -> np.ndarray:
    return np.linspace(region.lo, region.hi, n_bins + 1)


def _kernel_entropy(model: OscillatorModel, points: np.ndarray) -> tuple[float, Spectrum]:
    kernel = reduced_density_value(model, points[:, None], points[None, :])
    return _entropy_and_spectrum(kernel)


def _wavefunction_grid(model: OscillatorModel, qa_pts: np.ndarray,
                       qb_pts: np.ndarray) -> np.ndarray:
    """Two-particle amplitudes on a grid, rescaled to avoid underflow."""
    values = two_particle_wavefunction(model, qa_pts[:, None], qb_pts[None, :])
    peak = values.max()
    if peak > 0.0:
        values = values / peak
    return values


def one_restricted_entropy(model: OscillatorModel, region: Region,
                           spec: DiscretizationSpec | None = None) -> EnsembleResult:
    """Discarding-ensemble entanglement when only Alice restricts.

    The one-particle reduced kernel is sampled (or basis-projected, per the
    spec) on the region and trace-normalized; the survival probability is
    the quadrature mass of the region.
    """
    if spec is None:
        spec = DiscretizationSpec(method="grid", n_bins=DEFAULT_BINS_ONE)
    p = region_survival_probability(model, region)
    if p < EMPTY_MASS:
        raise EmptyRegionMass(
            f"region [{region.lo:.3g}, {region.hi:.3g}] carries mass {p:.3e}")
    if spec.method == "basis":
        return basis_expansion_entropy(
            model, region, spec.n_basis or DEFAULT_BASIS_SIZE,
            quadrature_order=spec.quadrature_order)
    n_bins = spec.n_bins or DEFAULT_BINS_ONE
    entropy, spectrum = _kernel_entropy(model, _grid_points(region, n_bins))
    return EnsembleResult(entropy, p, spectrum, replace(spec, n_bins=n_bins))


def both_restricted_entropy(model: OscillatorModel, region_a: Region,
                            region_b: Region,
                            spec: DiscretizationSpec | None = None) -> EnsembleResult:
    """Discarding-ensemble entanglement when both parties restrict.

    Bob's restriction is applied to the two-particle amplitudes before
    Alice's reduced matrix is formed by summing over his grid index.
    """
    if spec is None:
        spec = DiscretizationSpec(method="grid", n_bins=DEFAULT_BINS_BOTH)
    if spec.method != "grid":
        raise DomainError("both-restricted evaluation is grid-based only")
    n_bins = spec.n_bins or DEFAULT_BINS_BOTH
    p = joint_survival_probability(model, region_a, region_b)
    if p < EMPTY_MASS:
        raise EmptyRegionMass(f"joint region mass {p:.3e} is numerically zero")
    psi = _wavefunction_grid(model, _grid_points(region_a, n_bins),
                             _grid_points(region_b, n_bins))
    reduced = psi @ psi.T
    entropy, spectrum = _entropy_and_spectrum(reduced)
    return EnsembleResult(entropy, p, spectrum, replace(spec, n_bins=n_bins))


# -- expansion in an orthonormal set ----------------------------------------

def region_basis(region: Region, n_basis: int, points: np.ndarray) -> np.ndarray:
    """Orthonormal sine/cosine family supported on the region.

    Function n (1-based) is cos for odd n and sin for even n, with argument
    (q - center) n pi / width; these are the region's standing waves and
    integrate to the identity Gram matrix.
    """
    ns = np.arange(1, n_basis + 1)
    arg = (points[None, :] - region.center) * ns[:, None] * math.pi / region.width
    values = np.where(ns[:, None] % 2 == 1, np.cos(arg), np.sin(arg))
    return values / math.sqrt(region.half_width)


def _basis_projected_matrix(model: OscillatorModel, region: Region,
                            n_basis: int, n_panels: int,
                            quadrature_order: int) -> np.ndarray:
    nodes, weights = panel_nodes(region.lo, region.hi, n_panels, quadrature_order)
    phi_w = region_basis(region, n_basis, nodes) * weights[None, :]
    kernel = reduced_density_value(model, nodes[:, None], nodes[None, :])
    return phi_w @ kernel @ phi_w.T


def basis_expansion_entropy(model: OscillatorModel, region: Region,
                            n_basis: int = DEFAULT_BASIS_SIZE, *,
                            quadrature_order: int = 16) -> EnsembleResult:
    """One-restricted entanglement from the basis-projected kernel.

    The projected matrix is integrated on composite Gauss-Legendre panels,
    doubling the panel count until the matrix stabilizes; entropy comes from
    the trace-normalized result. The basis functions oscillate n_basis/2
    times across the region, so panel counts start proportional to n_basis.
    """
    if n_basis < 1:
        raise DomainError("n_basis must be >= 1")
    p = region_survival_probability(model, region)
    if p < EMPTY_MASS:
        raise EmptyRegionMass(f"region mass {p:.3e} is numerically zero")
    n_panels = max(2, -(-n_basis // 4))
    projected = _basis_projected_matrix(model, region, n_basis, n_panels,
                                        quadrature_order)
    for _ in range(8):
        n_panels *= 2
        refined = _basis_projected_matrix(model, region, n_basis, n_panels,
                                          quadrature_order)
        change = float(np.abs(refined - projected).max())
        projected = refined
        if change <= 1e-10 * max(1.0, float(np.abs(projected).max())):
            break
    else:
        if change > 1e-8:
            raise QuadratureNotConverged(
                f"basis projection still changing by {change:.3e}")
    entropy, spectrum = _entropy_and_spectrum(projected)
    spec = DiscretizationSpec(method="basis", n_basis=n_basis,
                              quadrature_order=quadrature_order)
    return EnsembleResult(entropy, p, spectrum, spec)


# -- precise position measurement --------------------------------------------

def precise_measurement_entanglement(model: OscillatorModel, region: Region,
                                     spec: DiscretizationSpec | None = None) -> float:
    """Negativity left after an exact position readout inside the region.

    The post-measurement ensemble is diagonal in Alice's coordinate (an
    incoherent sum of product states), so the negativity across the A|B
    grid cut vanishes up to round-off. The assembled matrix has dimension
    (n_bins + 1)^2, so keep n_bins modest.
    """
    n_bins = (spec.n_bins if spec and spec.n_bins else DEFAULT_BINS_PRECISE)
    half = domain_half_length(model)
    qa = _grid_points(region, n_bins)
    qb = np.linspace(-half, half, n_bins + 1)
    psi = _wavefunction_grid(model, qa, qb)
    n_a, n_b = psi.shape
    rho = np.zeros((n_a * n_b, n_a * n_b))
    for i in range(n_a):
        block = np.outer(psi[i], psi[i])
        rho[i * n_b:(i + 1) * n_b, i * n_b:(i + 1) * n_b] = block
    trace = float(np.trace(rho))
    if trace <= 0.0:
        raise EmptyRegionMass("precise-measurement ensemble has no mass")
    return negativity(DensityMatrix(rho / trace), (n_a, n_b))


# -- non-discarding ensemble --------------------------------------------------

@dataclass(frozen=True)
class NonDiscardingResult:
    """Entanglement of the keep-both-outcomes ensemble.

    entanglement combines the conditional entanglements through the
    two-outcome identity p E_in + (1 - p) E_out; locally_accessible is the
    p E_in part available when operations outside the region are out of
    reach.
    """

    entanglement: float
    survival_probability: float
    entanglement_inside: float
    entanglement_outside: float
    locally_accessible: float


def _complement_points(region: Region, half_domain: float, n_bins: int) -> np.ndarray:
    """Grid on the parts of [-half_domain, half_domain] outside the region.

    Every point carries the same weight in the kernel matrix, so both parts
    are sampled at one spacing: the longer part gets n_bins intervals.
    """
    pieces = [(lo, hi) for lo, hi in ((-half_domain, region.lo), (region.hi, half_domain))
              if hi > lo]
    if not pieces:
        return np.empty(0)
    longest = max(hi - lo for lo, hi in pieces)
    return np.concatenate([
        np.linspace(lo, hi, max(1, round(n_bins * (hi - lo) / longest)) + 1)
        for lo, hi in pieces])


def non_discarding_entanglement(model: OscillatorModel, region: Region,
                                spec: DiscretizationSpec | None = None,
                                half_domain: float | None = None) -> NonDiscardingResult:
    """Entanglement of the non-discarding ensemble for Alice's region.

    Both conditional states are pure, so the ensemble entanglement is the
    probability-weighted average of the in-region and out-of-region
    discarding entanglements. The complement is sampled on the truncated
    domain at one spacing, n_bins intervals on its longer segment.
    """
    if spec is None:
        spec = DiscretizationSpec(method="grid", n_bins=DEFAULT_BINS_ONE)
    n_bins = spec.n_bins or DEFAULT_BINS_ONE
    if half_domain is None:
        half_domain = domain_half_length(model)

    p = region_survival_probability(model, region)
    if p < EMPTY_MASS:
        raise EmptyRegionMass(f"region mass {p:.3e} is numerically zero")
    e_in, _ = _kernel_entropy(model, _grid_points(region, n_bins))

    complement = _complement_points(region, half_domain, n_bins)
    if complement.size == 0 or 1.0 - p < EMPTY_MASS:
        e_out = 0.0
        p = 1.0
    else:
        e_out, _ = _kernel_entropy(model, complement)

    e_nd = p * e_in + (1.0 - p) * e_out
    return NonDiscardingResult(entanglement=e_nd, survival_probability=p,
                               entanglement_inside=e_in,
                               entanglement_outside=e_out,
                               locally_accessible=p * e_in)


def non_discarding_two_path(model: OscillatorModel, region: Region,
                            spec: DiscretizationSpec | None = None,
                            half_domain: float | None = None):
    """Check the two-outcome identity along two independent routes.

    Route one reduces to Alice first and evaluates each conditional
    entanglement from the analytic one-particle kernel. Route two assembles
    the block-diagonal two-outcome mixture of the full two-particle state
    on a grid (Bob unrestricted) and averages the conditional entropies of
    its blocks. Returns (identity_result, mixture_value, gap).
    """
    if spec is None:
        spec = DiscretizationSpec(method="grid", n_bins=DEFAULT_BINS_ONE)
    n_bins = spec.n_bins or DEFAULT_BINS_ONE
    if half_domain is None:
        half_domain = domain_half_length(model)

    identity = non_discarding_entanglement(model, region, spec, half_domain)

    bob = np.linspace(-half_domain, half_domain, _TWO_PATH_BOB_BINS + 1)
    psi_in = _wavefunction_grid(model, _grid_points(region, n_bins), bob)
    e_in, _ = _entropy_and_spectrum(psi_in @ psi_in.T)
    complement = _complement_points(region, half_domain, n_bins)
    if complement.size and 1.0 - identity.survival_probability >= EMPTY_MASS:
        psi_out = _wavefunction_grid(model, complement, bob)
        e_out, _ = _entropy_and_spectrum(psi_out @ psi_out.T)
    else:
        e_out = 0.0
    p = identity.survival_probability
    mixture = p * e_in + (1.0 - p) * e_out
    return identity, mixture, abs(mixture - identity.entanglement)


# -- multi-partition inequality -----------------------------------------------

@dataclass(frozen=True)
class PartitionCell:
    region_a: Region
    region_b: Region
    probability: float
    entanglement: float


@dataclass(frozen=True)
class PartitionReport:
    """Weighted discarding entanglement summed over a joint partition."""

    weighted_sum: float
    full_entanglement: float
    slack: float
    cells: tuple[PartitionCell, ...]


def partition_inequality_check(model: OscillatorModel, partition_a: Partition,
                               partition_b: Partition,
                               spec: DiscretizationSpec | None = None) -> PartitionReport:
    """Average discarding entanglement over all partition cells.

    Shared entanglement cannot increase under the local region-resolving
    measurement, so the probability-weighted cell sum never exceeds the
    unrestricted entanglement of formation.
    """
    if spec is None:
        spec = DiscretizationSpec(method="grid", n_bins=DEFAULT_BINS_BOTH)
    half = domain_half_length(model)
    cells = []
    total = 0.0
    for seg_a in partition_a.effective_segments(half):
        for seg_b in partition_b.effective_segments(half):
            p = joint_survival_probability(model, seg_a, seg_b)
            if p < EMPTY_MASS:
                cells.append(PartitionCell(seg_a, seg_b, p, 0.0))
                continue
            result = both_restricted_entropy(model, seg_a, seg_b, spec)
            cells.append(PartitionCell(seg_a, seg_b, p, result.entanglement))
            total += p * result.entanglement
    e_full = gaussian_eof(model)
    return PartitionReport(weighted_sum=total, full_entanglement=e_full,
                           slack=e_full - total, cells=tuple(cells))


# -- grid/basis method equivalence ---------------------------------------------

@dataclass(frozen=True)
class MethodEquivalence:
    """Convergence study comparing the two discretizations.

    Both methods approach the continuum entropy with leading error
    proportional to the reciprocal resolution, so each limit is the
    first-order Richardson extrapolation of the value at the requested
    resolution and at half of it.
    """

    grid_coarse: float
    grid_fine: float
    basis_coarse: float
    basis_fine: float
    grid_limit: float
    basis_limit: float
    gap: float


def method_equivalence(model: OscillatorModel, region: Region,
                       n_bins: int = DEFAULT_BINS_ONE,
                       n_basis: int = DEFAULT_BASIS_SIZE) -> MethodEquivalence:
    """Extrapolated grid-vs-basis comparison at a region."""
    g_coarse = one_restricted_entropy(
        model, region, DiscretizationSpec(n_bins=n_bins // 2)).entanglement
    g_fine = one_restricted_entropy(
        model, region, DiscretizationSpec(n_bins=n_bins)).entanglement
    b_coarse = basis_expansion_entropy(model, region, n_basis // 2).entanglement
    b_fine = basis_expansion_entropy(model, region, n_basis).entanglement
    grid_limit = 2.0 * g_fine - g_coarse
    basis_limit = 2.0 * b_fine - b_coarse
    return MethodEquivalence(g_coarse, g_fine, b_coarse, b_fine,
                             grid_limit, basis_limit,
                             abs(grid_limit - basis_limit))


# -- scan surfaces --------------------------------------------------------------

def _both_cell(args):
    model, ca, cb, a, b, n_bins = args
    region_a = Region(ca, a)
    region_b = Region(cb, b)
    spec = DiscretizationSpec(n_bins=n_bins)
    try:
        result = both_restricted_entropy(model, region_a, region_b, spec)
        return result.entanglement, result.survival_probability, 0.0
    except EmptyRegionMass:
        return 0.0, 0.0, 1.0


def _one_cell(args):
    model, center, a, n_bins = args
    spec = DiscretizationSpec(n_bins=n_bins)
    try:
        result = one_restricted_entropy(model, Region(center, a), spec)
        return result.entanglement, result.survival_probability, 0.0
    except EmptyRegionMass:
        return 0.0, 0.0, 1.0


def _run_cells(fn, jobs, workers: int):
    if workers <= 1:
        return [fn(job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor
    chunk = max(1, len(jobs) // (workers * 4))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, jobs, chunksize=chunk))


def entanglement_map(model: OscillatorModel, centers_a, *, centers_b=None,
                     widths=None, half_width: float | None = None,
                     half_width_b: float | None = None,
                     spec: DiscretizationSpec | None = None,
                     workers: int = 1) -> Distribution2D:
    """Entanglement surface over region placements.

    Two scan layouts:

    * centers_b given: both parties restrict; axes are the two region
      centers at fixed half widths (Bob's defaults to Alice's).
    * widths given: only Alice restricts; axes are (center, full width),
      and extra layer "rescaled" holds each width's profile normalized to
      its own peak for shape comparisons.

    Cells whose region carries no mass are emitted as 0 with extra layer
    "flag" set to 1.
    """
    centers_a = np.asarray(centers_a, dtype=np.float64)
    if (centers_b is None) == (widths is None):
        raise DomainError("provide exactly one of centers_b or widths")

    if centers_b is not None:
        if half_width is None:
            raise DomainError("half_width is required for a two-party map")
        b = half_width_b if half_width_b is not None else half_width
        centers_b = np.asarray(centers_b, dtype=np.float64)
        n_bins = (spec.n_bins if spec and spec.n_bins else DEFAULT_BINS_BOTH)
        jobs = [(model, ca, cb, half_width, b, n_bins)
                for ca in centers_a for cb in centers_b]
        rows = _run_cells(_both_cell, jobs, workers)
        shape = (centers_a.size, centers_b.size)
        data = np.asarray(rows).reshape(shape + (3,))
        return Distribution2D(
            axis_a=centers_a, axis_b=centers_b, values=data[..., 0],
            kind="entanglement",
            extra={"prob": data[..., 1], "flag": data[..., 2]})

    widths = np.asarray(widths, dtype=np.float64)
    n_bins = (spec.n_bins if spec and spec.n_bins else DEFAULT_BINS_ONE)
    jobs = [(model, ca, w / 2.0, n_bins) for ca in centers_a for w in widths]
    rows = _run_cells(_one_cell, jobs, workers)
    shape = (centers_a.size, widths.size)
    data = np.asarray(rows).reshape(shape + (3,))
    values = data[..., 0]
    peaks = values.max(axis=0)
    rescaled = np.divide(values, peaks[None, :],
                         out=np.zeros_like(values), where=peaks[None, :] > 0)
    return Distribution2D(
        axis_a=centers_a, axis_b=widths, values=values, kind="entanglement",
        axis_names=("q_bar_A", "width"),
        extra={"prob": data[..., 1], "flag": data[..., 2], "rescaled": rescaled})


def both_restricted_profile(model: OscillatorModel, centers, half_width: float,
                            bob_center: float | None = None,
                            spec: DiscretizationSpec | None = None,
                            workers: int = 1):
    """One-dimensional slice of the two-party map.

    Bob's region tracks Alice's center when bob_center is None, otherwise
    it stays pinned there. Returns (centers, values, probs, flags) arrays.
    """
    centers = np.asarray(centers, dtype=np.float64)
    n_bins = (spec.n_bins if spec and spec.n_bins else DEFAULT_BINS_BOTH)
    jobs = [(model, ca, ca if bob_center is None else bob_center,
             half_width, half_width, n_bins) for ca in centers]
    rows = np.asarray(_run_cells(_both_cell, jobs, workers))
    return centers, rows[:, 0], rows[:, 1], rows[:, 2]
