"""Region-restricted measurement ensembles for the oscillator pair.

A preliminary measurement that only resolves "is the particle inside the
interval [center - a, center + a]?" projects the state onto that region.
This module discretizes the surviving (discarding-ensemble) states and
evaluates the entanglement left in each ensemble:

* discarding ensemble: keep only the in-region outcome, renormalize;
* non-discarding ensemble: keep both outcomes as a labelled mixture, whose
  entanglement equals the probability-weighted average of the conditional
  (discarding) entanglements;
* precise-measurement ensemble: an exact position readout inside the
  region, which is diagonal in Alice's coordinate and therefore carries no
  entanglement at all.

When both parties restrict, entropies come from the Schmidt weights of an
amplitude matrix M = sqrt(Wa) psi(x_i, y_k) sqrt(Wb) on the nodes and
weights of a Gauss rule on each region, the eigenvalues of its Gram matrix
M M^T (a Nystrom discretization, exponentially convergent for these
analytic amplitudes; Bornemann, Math. Comp. 79 (2010) 871-915):
Gauss-Legendre by default, and with an explicit n_bins the Gauss
rule of the unit-weight sum over the region's n_bins + 1 uniform points
(quadrature.grid_gauss), whose spectrum is within 1e-13 ebit of the uniform
grid's. A cell's joint mass is a Gauss-Legendre integral over Alice's
region of Bob's conditional mass in closed form. Every spectrum has the
count it needs, two_party_nodes: 8 plus 1.4 per narrow length 1/sqrt(s) of
the amplitude or 1.9 per length sigma of its envelope, whichever is more,
measured within 1e-12 ebit of twice the count on map cells and on the whole
truncated domain, and on a grid at most its n_bins + 1 points; one helper
(_schmidt_nodes) sets that count and one (_rule) the rule for one-party maps
and two-party cells alike. A joint mass takes the same count, without the
cap (_orbit_masses). Every closed-form mass is a difference of erfc values
from one numpy kernel (_erfc), both edges of all cells in one call.
psi(q_a, q_b) = psi(q_b, q_a) = psi(-q_a, -q_b), so the cells A x B, B x A,
-A x -B and -B x -A share their mass and entropy: every two-party path solves
each cell once per orbit of these symmetries and copies the result to its
images, in two steps: the orbits, which do not depend on the coupling
(_two_party_orbits), then per model the nodes, masses, live cells and
entropies (_two_party_cells), so a scan over couplings finds its orbits
once; a single cell (both_restricted_entropy) is its row 0, and a
partition's cells are its rows too. Exchanged cells meet on any square map,
mirrored ones only where an axis holds the exact negative of a center, as
every distribution.scan_axis centred on 0 does (the CLI's axes and the sigma
scan's).
Alice's reduced kernel K has one engine (_kernel_entropies). On a rule x =
c + h u with weights w, its Nystrom matrix sqrt(w_g) K(x_g, x_h) sqrt(w_h)
is diag(d) E diag(d) up to a constant, with E_gh = exp(-c2 h^2 (u_g -
u_h)^2) shared by every center c. E is numerically low-rank: one
eigendecomposition gives the factor G (n x r) of its eigenpairs above
machine epsilon times the largest, and each center's spectrum is that of
the r x r Gram matrix X^T X, X = diag(d) G. Every map spectrum, one-party
and two-party, is the batched eigensolve of a Gram stack (_gram_weights). A
one-party map runs the engine once per width, on the Gauss rule of Alice's
grid's own unit-weight sum (quadrature.grid_gauss), which converges
exponentially to the spectrum of the kernel on the grid and builds nothing
on Bob's side; K(x, x') = K(-x, -x') makes the cells at c and -c one cell,
solved once on -|c|. The non-discarding ensemble runs it once per outcome,
on Gauss-Legendre nodes of Alice's region or of the pieces of its
complement, joined, as u (c = 0, h = 1). Alice's masses are in closed form.
Maps stack their cells and make one LAPACK call per chunk. The grid/basis
convergence study (method_equivalence) takes its grid values from the
region's cell of one_party_map and its basis values from
basis_expansion_entropy, which projects the kernel onto an orthonormal
sine/cosine family supported on the region (n_basis functions) once, on one
Gauss-Legendre rule of the region (_basis_nodes: the spectral rule, refused
past MAX_NODES, plus pi/2 nodes per function), and takes the closed-form
mass. Only the single one-party grid cell (one_restricted_entropy) still
samples the kernel on its grid points, renormalizes the matrix by its trace
and takes its dense eigensolve, with a survival probability from adaptive
quadrature of the analytic density.
Every dense matrix whose side grows with a resolution (that cell's kernel,
the basis projection's kernel, the precise readout's matrix) has a budget
of KERNEL_BYTES, checked before any array is built.

Maps: one_party_map (Alice's center by width) and two_party_map (both
centers). Every other entry point but the non-discarding ensemble takes one
resolution, n_bins: the number of grid intervals per region. For one-party
cells and maps and the precise readout None means DEFAULT_BINS_ONE or
DEFAULT_BINS_PRECISE; two-party cells and maps run on Gauss-Legendre nodes
without it. An n_bins below 2, or past MAX_BINS, whose n_bins + 1 points
numpy could not index, is refused with DomainError before any mass is
computed.

A Region checks its interval; a Partition is the record of its edges and
tail handling, checked where _segments reads them; results are NamedTuples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distribution import Distribution2D, check_span
from .errors import (
    DomainError,
    EmptyRegionMass,
    NegativeEigenvalue,
    QuadratureNotConverged,
)
from .linalg import (
    DensityMatrix,
    Spectrum,
    eigen_symmetric,
    lapack,
    negativity,
    spectral_entropy_bits,
)
from .oscillator import (
    OscillatorModel,
    gaussian_eof,
    ground_state_constants,
    marginal_position_density,
    reduced_density_value,
    two_particle_wavefunction,
)
from .quadrature import gauss_legendre, grid_gauss, integrate_1d

DEFAULT_BINS_ONE = 200
DEFAULT_BINS_PRECISE = 16
DEFAULT_BASIS_SIZE = 40
# bytes of a dense N x N float matrix, N <= 8192: the basis projection's kernel
# on its nodes, the single grid cell's on its points and the precise readout's
# matrix on its (n_bins + 1)^2 grid pairs
KERNEL_BYTES = 1 << 29
# Gauss-Legendre nodes per basis function that a projection adds to the spectral
# rule (_basis_nodes): function n oscillates n / 2 times across the region
BASIS_NODES_PER_FUNCTION = math.pi / 2
# the most grid intervals: n_bins + 1 points must be a count numpy can index
MAX_BINS = (1 << 63) - 2
EMPTY_MASS = 1e-14
# Gauss-Legendre nodes per region, by the widest interval in each length the
# amplitude varies on: the narrow length 1/sqrt(s), s = sqrt(1 + 4 alpha), and
# the envelope's sigma. A spectrum (the Schmidt weights of a two-party cell,
# the Nystrom kernel of the non-discarding ensemble, the most Gauss nodes of a
# one-party map's grid rule) and a joint mass take SPECTRAL_NODES plus
# SPECTRAL_NODES_PER_LENGTH per narrow length or ENVELOPE_NODES_PER_LENGTH per
# sigma, whichever is more. No spectrum has more than MAX_NODES nodes; masses
# use panels past it.
SPECTRAL_NODES = 8
SPECTRAL_NODES_PER_LENGTH = 1.4
ENVELOPE_NODES_PER_LENGTH = 1.9
MAX_NODES = 512
# Truncation half-length standing in for the unrestricted line: eight times the
# widest normal-mode width, sqrt(2); the neglected tail mass is below 1e-14.
DOMAIN_HALF_LENGTH = 8.0 * math.sqrt(2.0)
# erfc(x) = exp(-x^2) P(t) / (1 + 2x) for x >= 0, t = (x - ERFC_SHIFT) / (x +
# ERFC_SHIFT) in [-1, 1), P(t) = (1 + 2x) exp(x^2) erfc(x) = 1 + (1 + t) R(t), so
# P(-1) = 1 and erfc(0) = 1 exactly. ERFC_COEFFS are R's monomial coefficients,
# lowest first: its Chebyshev interpolant on 64 points at 40 digits (mpmath),
# truncated to 24 terms (the first term left out is 4e-18). The whole kernel
# is within 5e-16 relative of erfc on [-6, 26].
ERFC_SHIFT = 3.75
ERFC_COEFFS = (
    0.2375126308378276, -0.37775322942337447, 0.38133864490883945,
    -0.299061906418698, 0.19025797627692506, -0.09795365511644935,
    0.03926025652726195, -0.010897979109484429, 0.0011513995471219751,
    0.0006042263136325654, -0.0003105126233902508, 2.0358510840847573e-05,
    3.129049915894401e-05, -8.906176289162434e-06, -2.5377589500280127e-06,
    1.564055542378069e-06, 1.872480254967044e-07, -2.4430586154991615e-07,
    -1.4013279886896224e-08, 3.716423101679934e-08, 1.2794185869069422e-09,
    -4.9786056362865576e-09, -1.0712376305196166e-10, 4.104370087008405e-10,
)
# R_j, the coefficients 6j ... 6j + 5, as Horner steps from the highest: step
# k holds the coefficient 5 - k of each R_j, as a (4, 1) column
_ERFC_STEPS = np.array(ERFC_COEFFS).reshape(4, 6).T[::-1, :, None].copy()
_ERFC_HEAD_BITS = np.int64(-1 << 27)  # clears the 27 low mantissa bits
# Values per erfc block: the block's temporaries stay in the core's cache.
ERFC_BLOCK = 8192
# Past DEEP_TAIL an erfc nears the subnormal range (erfc(26.55) ~ 2.2e-308),
# where each rounding costs an absolute 5e-324: intervals whose lower tail
# edge lies past it take their tails as erfc 2^DEEP_SCALE, still a normal
# float up to the clip at 30, and are scaled back by one rounding.
DEEP_TAIL = 26.0
DEEP_SCALE = 600
# Bytes of one float64 chunk of cells: a (cells, nodes_a, nodes_b) amplitude
# stack handed to LAPACK in one call with the temporary of its assembly, a
# (cells, n, r) stack of a one-party map's weighted kernel factors, or a
# (cells, n) array of mass nodes.
CHUNK_BYTES = 1 << 20


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


# what a partition does with the mass outside its edges (Partition)
TAIL_HANDLINGS = ("truncate", "merge-into-end-segments")


class Partition(NamedTuple):
    """Contiguous regions of one party's axis: segment k is [edges[k],
    edges[k + 1]] (_segments).

    tail_handling decides what happens to the probability mass outside the
    edges: "truncate" ignores it, "merge-into-end-segments" stretches the
    outermost segments to the truncated domain boundary.
    """

    edges: tuple[float, ...]
    tail_handling: str = "truncate"

    @staticmethod
    def uniform(lo: float, hi: float, n_segments: int,
                tail_handling: str = "truncate") -> "Partition":
        check_span(lo, hi, "partition")
        if hi <= lo or n_segments < 1:
            raise DomainError("uniform partition needs lo < hi and >= 1 segment")
        if tail_handling not in TAIL_HANDLINGS:
            raise DomainError(f"unknown tail handling {tail_handling!r}")
        return Partition(tuple(np.linspace(lo, hi, n_segments + 1).tolist()), tail_handling)


def _segments(partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """(centers, half widths) of the partition's segments, 0.5 (e[k] + e[k+1])
    and 0.5 (e[k+1] - e[k]) of its edges e. A merged tail stretches an end
    segment from its center -+ half width to the truncated domain boundary.
    Fewer than 2 edges, edges that are not finite or not strictly increasing,
    and an unknown tail handling are refused with DomainError."""
    edges = np.asarray(partition.edges, dtype=np.float64)
    if not (edges.ndim == 1 and edges.size >= 2 and np.isfinite(edges).all()
            and (edges[1:] > edges[:-1]).all()):
        raise DomainError("partition edges must be at least 2 finite values in "
                          "strictly increasing order")
    if partition.tail_handling not in TAIL_HANDLINGS:
        raise DomainError(f"unknown tail handling {partition.tail_handling!r}")
    centers = 0.5 * (edges[:-1] + edges[1:])
    halves = 0.5 * (edges[1:] - edges[:-1])
    if partition.tail_handling == "merge-into-end-segments":
        domain = DOMAIN_HALF_LENGTH
        if centers[0] - halves[0] > -domain:
            hi = centers[0] + halves[0]
            centers[0], halves[0] = 0.5 * (hi - domain), 0.5 * (hi + domain)
        if centers[-1] + halves[-1] < domain:
            lo = centers[-1] - halves[-1]
            centers[-1], halves[-1] = 0.5 * (lo + domain), 0.5 * (domain - lo)
    return centers, halves


class EnsembleResult(NamedTuple):
    """Entanglement surviving a restriction: its entropy, the survival
    probability, the number of weights of its discretized spectrum and the
    resolution the entropy used: the grid's n_bins, the Gauss-Legendre node
    count per region of a two-party cell, or the basis size n_basis."""

    entanglement: float
    survival_probability: float
    spectrum_size: int
    resolution: int


def region_survival_probability(model: OscillatorModel, region: Region) -> float:
    """Probability of finding Alice's particle inside the region, by adaptive
    quadrature; 0 for a region whose ends round to one value."""
    if region.lo == region.hi:
        return 0.0
    return integrate_1d(lambda q: marginal_position_density(model, q),
                        region.lo, region.hi)


def _erfc(x, exponent: int = 0) -> np.ndarray:
    """erfc of each element times 2^exponent, in blocks of ERFC_BLOCK values
    (_erfc_block)."""
    x = np.asarray(x, dtype=np.float64)
    flat = x.reshape(-1)
    out = np.empty(flat.size)
    for start in range(0, flat.size, ERFC_BLOCK):
        out[start:start + ERFC_BLOCK] = _erfc_block(flat[start:start + ERFC_BLOCK], exponent)
    return out.reshape(x.shape)


def _erfc_block(x: np.ndarray, exponent: int = 0) -> np.ndarray:
    """erfc of each element of a 1-d array times 2^exponent: exp(-x^2) P(t) /
    (1 + 2x) for x >= 0 and 2 - erfc(-x) below, with P(t) = 1 + (1 + t) R(t)
    (see ERFC_COEFFS). |x| is clipped at 30, where erfc underflows to 0, so
    infinities take the same path; x^2 is split as head^2 + (x + head)(x -
    head) with head the leading 26 bits of x, so head^2 is exact and the
    rounding of x^2 does not show in exp(-x^2). A nonzero exponent scales P
    first and takes exp(-head^2) as the square of exp(-head^2 / 2), so a
    tail whose exp(-head^2) is subnormal (head > 26.6) keeps its relative
    accuracy; past the clip it is erfc(30) 2^exponent."""
    a = np.abs(x)
    np.minimum(a, 30.0, out=a)
    twice = a + a
    v = twice / (a + ERFC_SHIFT)  # 1 + t
    t = v - 1.0
    # R(t) = sum_j t^(6j) R_j(t): one Horner pass over the four R_j at once
    steps = iter(_ERFC_STEPS)
    parts = next(steps) * t
    parts += next(steps)
    for coeff in steps:
        parts *= t
        parts += coeff
    t6 = t * t
    t6 *= t
    t6 *= t6
    p = parts[-1]
    for part in parts[-2::-1]:
        p *= t6
        p += part
    p *= v
    p += 1.0
    twice += 1.0
    p /= twice
    head = (a.view(np.int64) & _ERFC_HEAD_BITS).view(np.float64)
    squares = np.empty((2, a.size))
    np.multiply(head, head, out=squares[0])
    np.add(a, head, out=squares[1])
    a -= head
    squares[1] *= a
    np.negative(squares, out=squares)
    if exponent:
        squares[0] *= 0.5
        np.exp(squares, out=squares)
        np.ldexp(p, exponent, out=p)
        p *= squares[0]
    else:
        np.exp(squares, out=squares)
    p *= squares[0]
    p *= squares[1]
    return np.where(x < 0.0, math.ldexp(2.0, exponent) - p, p)


def _normal_interval(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """(erf(hi) - erf(lo)) / 2 for lo <= hi, as a difference of erfc values on
    the non-negative side, so a distant interval keeps its relative accuracy.
    Both edges go to one _erfc call; the intervals past DEEP_TAIL take a
    second, scaled call, so a subnormal mass is rounded once."""
    edges = np.stack((lo, hi))
    shape = edges.shape[1:]
    edges = edges.reshape(2, -1)
    edges = np.where(edges[1] < 0.0, -edges[::-1], edges)
    tails = _erfc(edges)
    out = 0.5 * (tails[0] - tails[1])
    deep = edges[0] > DEEP_TAIL
    if deep.any():
        scaled = _erfc(edges[:, deep], DEEP_SCALE)
        out[deep] = np.ldexp(0.5 * (scaled[0] - scaled[1]), -DEEP_SCALE)
    return out.reshape(shape)


def marginal_masses(model: OscillatorModel, lo, hi) -> np.ndarray:
    """P(q_a in [lo, hi]) for each pair of bounds, in closed form.

    Alice's marginal is normal with standard deviation 1/(2 sqrt(c1 - c2)),
    which equals the characteristic length sigma without the cancellation of
    c1 - c2 at strong coupling; each mass is an erfc difference. lo and hi
    are arrays of one shape.
    """
    scale = 1.0 / (math.sqrt(2.0) * ground_state_constants(model).sigma)
    return _normal_interval(np.asarray(lo, dtype=np.float64) * scale,
                            np.asarray(hi, dtype=np.float64) * scale)


def _cell_slices(k: int, cell_bytes: int) -> list[slice]:
    """Consecutive ranges of k cells of cell_bytes each that fit CHUNK_BYTES."""
    step = max(1, CHUNK_BYTES // cell_bytes)
    return [slice(start, start + step) for start in range(0, k, step)]


def _panel_rule(lo, hi, n: int):
    """The n-node Gauss-Legendre rule of each [lo, hi] (gauss_legendre); past
    MAX_NODES nodes, equal panels of at most MAX_NODES nodes each, at least n
    in all, as a rule is one dense O(n^3) eigensolve (quadrature._golub_welsch)."""
    panels = -(-n // MAX_NODES)
    return gauss_legendre(lo, hi, -(-n // panels), panels)


def joint_masses(model: OscillatorModel, a_lo, a_hi, b_lo, b_hi, n: int) -> np.ndarray:
    """P(q_a in [a_lo, a_hi] and q_b in [b_lo, b_hi]) for each cell.

    Given q_a, Bob's position is normal with mean (s-1)/(s+1) q_a and
    variance 2/(1+s), s = sqrt(1 + 4 alpha), so each cell is an
    n-node Gauss-Legendre integral over Alice's interval of her marginal
    density times Bob's conditional mass in closed form. Past MAX_NODES
    nodes the interval is split into equal panels of at most MAX_NODES
    nodes each (_panel_rule). The bounds are arrays of one shape; cells are
    evaluated in chunks of CHUNK_BYTES per array, and n nodes that do not
    fit one chunk are refused with QuadratureNotConverged before any array is built.
    """
    if 8 * n > CHUNK_BYTES:
        raise QuadratureNotConverged(
            f"a joint mass on {n:.4g} Gauss-Legendre nodes exceeds the chunk of "
            f"{CHUNK_BYTES} bytes")
    s = model.stiffness_root
    slope = (s - 1.0) / (s + 1.0)
    scale = math.sqrt((1.0 + s) / 4.0)  # 1 / (sqrt(2) sd)
    bounds = [np.asarray(edge, dtype=np.float64).ravel() for edge in (a_lo, a_hi, b_lo, b_hi)]
    out = np.empty(bounds[0].size)
    for cells in _cell_slices(out.size, 8 * n):
        a_lo_c, a_hi_c, b_lo_c, b_hi_c = (edge[cells] for edge in bounds)
        x, w = _panel_rule(a_lo_c, a_hi_c, n)
        mean = slope * x
        # an offset past the largest float (cells near it) is +-inf, whose
        # erfc is its limit
        with np.errstate(over="ignore"):
            lo, hi = ((edge[:, None] - mean) * scale for edge in (b_lo_c, b_hi_c))
        inner = _normal_interval(lo, hi)
        out[cells] = (w * marginal_position_density(model, x) * inner).sum(axis=-1)
    return out.reshape(np.shape(a_lo))


def _nodes_per_length(model: OscillatorModel, width: float, per_length: float,
                      inverse_length: float) -> int:
    """ceil(per_length * width * inverse_length): per_length nodes per length
    1 / inverse_length over `width`. A count past the largest float is
    refused with QuadratureNotConverged."""
    count = per_length * (float(width) * inverse_length)
    if math.isinf(count):
        raise QuadratureNotConverged(
            f"intervals {width:.3g} wide at alpha {model.alpha:.3g} need more "
            f"Gauss-Legendre nodes than a float can count")
    return math.ceil(count)


def two_party_nodes(model: OscillatorModel, width: float) -> int:
    """Gauss-Legendre nodes per region for the spectrum of cells up to `width` wide.

    SPECTRAL_NODES plus SPECTRAL_NODES_PER_LENGTH per narrow length 1/sqrt(s)
    or ENVELOPE_NODES_PER_LENGTH per sigma (ground_state_constants), whichever
    is more: the amplitude varies on both lengths, and Gauss-Legendre needs
    nodes in proportion to the width in each (Trefethen, SIAM Rev. 50 (2008)
    67-87, Thm 4.5). The narrow term decides from alpha about 1.5 on. The
    Nystrom spectra of these analytic kernels converge exponentially: over
    960 maps of 60 random live cells (alpha 0.05 to 1e4, widths 0.1 to 8,
    centers within 6) the rule's count and twice it agree to 5.8e-13 ebit;
    with an offset of 7 a cell is 1.1e-11 off (alpha 2.4, width 1.5). Those
    maps never need the envelope term. Cells on the whole truncated domain
    set its constant: at alpha 0.01 to 3 the square cell takes 52 to 69
    nodes, within 2.4e-14 ebit of 300, and the two-path check, whose Bob
    side is that domain, closes to 9.3e-14 over alpha 0.05 to 1.5e4, where
    1.8 per sigma left its gap past 1e-12 at alpha 0.9 to 1.3. A count past
    the largest float is refused with QuadratureNotConverged.
    """
    narrow = math.sqrt(model.stiffness_root)
    envelope = 1.0 / ground_state_constants(model).sigma
    return SPECTRAL_NODES + max(
        _nodes_per_length(model, width, SPECTRAL_NODES_PER_LENGTH, narrow),
        _nodes_per_length(model, width, ENVELOPE_NODES_PER_LENGTH, envelope))


def _schmidt_nodes(model: OscillatorModel, width: float, n_bins: int | None = None) -> int:
    """Nodes per region of every spectrum taken on regions up to `width` wide:
    two_party_nodes, and on a grid of n_bins intervals at most its n_bins + 1
    points, where the grid's Gauss rule (_rule) is the grid itself. A
    two_party_nodes past MAX_NODES is refused with QuadratureNotConverged
    before any array is built, with a grid or without."""
    n = two_party_nodes(model, width)
    if n > MAX_NODES:
        raise QuadratureNotConverged(
            f"intervals {width:.3g} wide at alpha {model.alpha:.3g} need {n:.4g} "
            f"Gauss-Legendre nodes, more than the cap of {MAX_NODES}")
    return n if n_bins is None else min(n_bins + 1, n)


def _rule(lo, hi, n: int, n_bins: int | None):
    """Nodes and weights of n nodes on each [lo, hi] (_schmidt_nodes): the
    Gauss-Legendre rule, or with n_bins the Gauss rule of the unit-weight sum
    over the interval's n_bins + 1 uniform points (grid_gauss)."""
    return gauss_legendre(lo, hi, n) if n_bins is None else grid_gauss(lo, hi, n_bins + 1, n)


def _region_mass(region: Region, p: float) -> float:
    """p, Alice's mass in the region; EmptyRegionMass below EMPTY_MASS."""
    if p < EMPTY_MASS:
        raise EmptyRegionMass(
            f"region [{region.lo:.3g}, {region.hi:.3g}] carries mass {p:.3e}")
    return p


def _n_bins(n_bins: int | None, default: int | None = None) -> int | None:
    """The grid resolution n_bins, or the caller's default when it is None;
    below 2 bins or past MAX_BINS is refused."""
    if n_bins is None:
        return default
    if n_bins < 2:
        raise DomainError("n_bins must be >= 2")
    if n_bins > MAX_BINS:
        raise DomainError("n_bins must be <= 2**63 - 2")
    return n_bins


def _kernel_budget(side: int, what: str) -> None:
    """Refuse with QuadratureNotConverged a dense side x side float matrix
    that would pass KERNEL_BYTES (side past 8192)."""
    if side > math.isqrt(KERNEL_BYTES // 8):
        raise QuadratureNotConverged(
            f"a {side}-{what} exceeds the {KERNEL_BYTES >> 20} MiB kernel budget")


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
    return float(spectral_entropy_bits(spectrum.eigenvalues)), spectrum


def _grid_points(region: Region, n_bins: int) -> np.ndarray:
    return np.linspace(region.lo, region.hi, n_bins + 1)


def one_restricted_entropy(model: OscillatorModel, region: Region,
                           n_bins: int | None = None) -> EnsembleResult:
    """Discarding-ensemble entanglement when only Alice restricts.

    The one-particle reduced kernel is sampled on n_bins + 1 points of the
    region (DEFAULT_BINS_ONE intervals by default) and trace-normalized; the
    survival probability is the quadrature mass of the region, clamped to 1
    (refused with DomainError past 1 + 1e-9); a region below EMPTY_MASS, or
    whose ends round to one value, is refused with EmptyRegionMass. A grid whose
    (n_bins + 1)^2 kernel would not fit KERNEL_BYTES (past 8191 bins), or a
    region whose spectrum needs more than MAX_NODES nodes (_schmidt_nodes),
    as the map of its width does, is refused with QuadratureNotConverged
    before any array is built.
    """
    n_bins = _n_bins(n_bins, DEFAULT_BINS_ONE)
    _kernel_budget(n_bins + 1, "point grid kernel")
    _schmidt_nodes(model, region.width, n_bins)
    p = _region_mass(region, region_survival_probability(model, region))
    if p > 1.0 + 1e-9:
        raise DomainError(f"survival probability {p} outside [0, 1]")
    points = _grid_points(region, n_bins)
    entropy, spectrum = _entropy_and_spectrum(
        reduced_density_value(model, points[:, None], points[None, :]))
    return EnsembleResult(entropy, min(1.0, p), spectrum.size, n_bins)


def _gram_weights(x: np.ndarray) -> np.ndarray:
    """Normalized eigenvalues of the Gram matrix X^T X of each matrix X of
    the stack x, in ascending order: the squared singular values of X over
    their sum. One batched product and one batched LAPACK call serve the
    stack; round-off leaves weights about 1e-16 of the largest, some of
    them negative, which spectral_entropy_bits drops."""
    lam = lapack(np.linalg.eigvalsh, np.matmul(x.transpose(0, 2, 1), x))
    return lam / lam.sum(axis=1, keepdims=True)


def _amplitudes(model: OscillatorModel, xa: np.ndarray, wa: np.ndarray,
                xb: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """The stack of amplitude matrices M = sqrt(Wa) psi sqrt(Wb), one per cell.

    Row i of xa (and of its weights wa) holds the nodes of cell i on Alice's
    side, row i of xb and wb those on Bob's. psi is assembled in place and
    scaled to peak 1 per cell.
    """
    l_diag, l_off = ground_state_constants(model).l_matrix[0]
    # exp(-(l_diag (x^2 + y^2) + 2 l_off x y)) in place, in the operation order
    # of two_particle_wavefunction, so Gauss-Legendre cells match it bit for bit
    matrix = np.add((xa * xa)[:, :, None], (xb * xb)[:, None, :])
    matrix *= l_diag
    matrix += ((2.0 * l_off) * xa)[:, :, None] * xb[:, None, :]
    np.negative(matrix, out=matrix)
    np.exp(matrix, out=matrix)
    matrix *= np.sqrt(wa)[:, :, None] / matrix.max(axis=(1, 2), keepdims=True)
    matrix *= np.sqrt(wb)[:, None, :]
    return matrix


def _schmidt_weights(model: OscillatorModel, xa: np.ndarray, wa: np.ndarray,
                     xb: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Normalized Schmidt weights of each cell's amplitude matrix M
    (_amplitudes), in descending order: the eigenvalues of its Gram matrix M
    M^T, one batched LAPACK call for all cells (_gram_weights). On 11865
    live cells (alpha 0.05 to 1e4, half widths 0.05 to 4, centers within 6,
    a third on 10 to 400 bin grids) their entropies are within 1.4e-14 ebit
    of those of M's squared singular values.
    """
    return _gram_weights(_amplitudes(model, xa, wa, xb, wb).transpose(0, 2, 1))[:, ::-1]


def _low_rank_factor(kernel: np.ndarray) -> np.ndarray:
    """G = Q_r sqrt(L_r), (n, r), with kernel ~ G G^T: the r eigenpairs of the
    symmetric positive semidefinite kernel whose eigenvalues exceed machine
    epsilon times the largest, from one LAPACK call. What is left out is
    below the round-off of the kernel's own eigensolve."""
    lam, q = lapack(np.linalg.eigh, kernel)
    keep = lam > np.finfo(np.float64).eps * lam[-1]
    return q[:, keep] * np.sqrt(lam[keep])


def _factored_weights(factor: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Normalized nonzero eigenvalues of diag(d_i) G G^T diag(d_i) for each
    row d_i of d, G being factor (n, r): those of the r x r Gram matrix
    X^T X, X = diag(d_i) G, one batched eigensolve for all cells
    (_gram_weights)."""
    return _gram_weights(d[:, :, None] * factor)


def _chunked_entropies(spectra, cell_bytes: int, *sides: np.ndarray) -> np.ndarray:
    """Entropy of each cell's spectrum, spectra(*rows) on the rows of the
    arrays in sides, with one call per chunk of cells of cell_bytes each that
    fits CHUNK_BYTES."""
    out = np.empty(sides[0].shape[0])
    for cells in _cell_slices(out.size, cell_bytes):
        out[cells] = spectral_entropy_bits(spectra(*(side[cells] for side in sides)))
    return out


def _kernel_entropies(model: OscillatorModel, centers: np.ndarray, half: float,
                      u: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Entropy of Alice's reduced kernel on the rule (x, w), x = c + half u,
    for each c of centers: the normalized eigenvalues of sqrt(w_g) K(x_g,
    x_h) sqrt(w_h), the Nystrom discretization of K on the rule.

    Up to a constant that matrix is diag(d) E diag(d), with E_gh =
    exp(-c2 half^2 (u_g - u_h)^2) shared by the centers and d = sqrt(w)
    exp(-x^2 / (4 sigma^2)) one row per center. One eigendecomposition
    factors E ~ G G^T on its numerical rank r (_low_rank_factor), and each
    center's nonzero eigenvalues are those of the r x r matrix X^T X, X =
    diag(d) G (_factored_weights), with one batched call per chunk of
    CHUNK_BYTES. d is at most 1 and each row of G has norm about 1, the
    diagonal of E, so nothing overflows.
    """
    gs = ground_state_constants(model)
    x = centers[:, None] + half * u
    d = np.sqrt(w) * np.exp(-(0.25 / (gs.sigma * gs.sigma)) * (x * x))
    shared = _low_rank_factor(
        np.exp(-np.square((math.sqrt(gs.c2) * half) * (u[:, None] - u[None, :]))))
    # 8 bytes an entry of the (cells, n, r) stack, the largest array of a chunk
    return _chunked_entropies(lambda rows: _factored_weights(shared, rows),
                              8 * shared.size, d)


def _entropies(model: OscillatorModel, xa: np.ndarray, wa: np.ndarray,
               xb: np.ndarray, wb: np.ndarray) -> np.ndarray:
    """Entropy of each cell's Schmidt weights (see _schmidt_weights), with one
    Gram eigensolve per chunk of cells whose amplitude stack, together with
    the larger of its Gram stack and the one temporary of the stack's size
    that its assembly makes, fits CHUNK_BYTES."""
    na, nb = xa.shape[1], xb.shape[1]
    return _chunked_entropies(lambda *rows: _schmidt_weights(model, *rows),
                              8 * na * (nb + max(na, nb)), xa, wa, xb, wb)


def _mirror_key(lo, hi):
    """Each interval [lo, hi] as the lexicographically smaller of (lo, hi)
    and its mirror (-hi, -lo): one key for an interval and its mirror."""
    flip = (-hi < lo) | ((-hi == lo) & (-lo < hi))
    return np.where(flip, -hi, lo), np.where(flip, -lo, hi)


def _two_party_sides(a_lo, a_hi, b_lo, b_hi, n: int, n_bins: int | None):
    """Nodes and weights of both sides of two-party cells, n per region on
    the rule that n_bins selects (_rule), laid out so that the four images
    of a cell (_two_party_orbits) give one amplitude matrix bit for bit.

    A cell's first side is the region with the smaller _mirror_key, so a
    cell and its exchange build the same matrix. Both rules are their own
    mirror images bit for bit, so a mirrored region's nodes are the exact
    negatives of the region's, in reverse order; a cell whose first side's
    midpoint is negative (or zero, with the second side's negative) takes
    both sides' nodes in descending order, so a cell and its mirror meet
    the same nodes, negated, in one order, and psi(-q_a, -q_b) = psi(q_a,
    q_b) gives the same matrix.
    """
    a_lo, a_hi, b_lo, b_hi = np.broadcast_arrays(
        *(np.asarray(edge, dtype=np.float64) for edge in (a_lo, a_hi, b_lo, b_hi)))
    (ka_lo, ka_hi), (kb_lo, kb_hi) = _mirror_key(a_lo, a_hi), _mirror_key(b_lo, b_hi)
    swap = (kb_lo < ka_lo) | ((kb_lo == ka_lo) & (kb_hi < ka_hi))
    a_lo, a_hi, b_lo, b_hi = (np.where(swap, b_lo, a_lo), np.where(swap, b_hi, a_hi),
                              np.where(swap, a_lo, b_lo), np.where(swap, a_hi, b_hi))
    # the midpoint's sign without the sum lo + hi, which can overflow: the sum
    # is < 0 exactly where hi < -lo, and 0 where hi == -lo
    descending = ((a_hi < -a_lo) | ((a_hi == -a_lo) & (b_hi < -b_lo)))[..., None]
    return tuple(np.where(descending, side[..., ::-1], side)
                 for side in (*_rule(a_lo, a_hi, n, n_bins), *_rule(b_lo, b_hi, n, n_bins)))


def _orbit_masses(model: OscillatorModel, width: float, bounds) -> np.ndarray:
    """Joint masses of the distinct cells that _two_party_orbits gives as width
    and bounds, on the spectral rule of the width (two_party_nodes), in panels
    past MAX_NODES. On 25 x 25 maps on [-6, 6] at alpha 0.05 to 1e4 and widths
    0.1 to 8, live masses agree with three times the count to 2.6e-13 relative."""
    return joint_masses(model, *bounds, two_party_nodes(model, width))


def both_restricted_entropy(model: OscillatorModel, region_a: Region,
                            region_b: Region,
                            n_bins: int | None = None) -> EnsembleResult:
    """Discarding-ensemble entanglement when both parties restrict: row 0 of
    _two_party_cells, on the cell's own symmetry orbit.

    The entropy comes from the Schmidt weights of the cell, as one cell of a
    map does, on n nodes per region (_schmidt_nodes): by default
    Gauss-Legendre nodes, and the result's resolution is n; a given n_bins
    takes the Gauss rule of the unit-weight sum over each region's n_bins +
    1 uniform points (grid_gauss) instead, at most n_bins + 1 nodes, within
    1e-13 ebit of the Schmidt weights of the amplitude on those points, and
    the resolution is n_bins. The spectrum has n weights either way. A cell
    below EMPTY_MASS is refused with EmptyRegionMass.
    """
    orbits = _two_party_orbits([region_a.center], region_a.half_width,
                               [region_b.center], region_b.half_width)
    entanglement, p, empty = _two_party_cells(model, orbits, n_bins)[0].tolist()
    if empty:
        raise EmptyRegionMass(
            f"regions [{region_a.lo:.3g}, {region_a.hi:.3g}] x [{region_b.lo:.3g}, "
            f"{region_b.hi:.3g}] carry a joint mass below {EMPTY_MASS:.0e}")
    n = _schmidt_nodes(model, orbits[0], n_bins)
    return EnsembleResult(entanglement, p, n, n if n_bins is None else n_bins)


# -- expansion in an orthonormal set ----------------------------------------

def region_basis(region: Region, n_basis: int, points: np.ndarray) -> np.ndarray:
    """Orthonormal sine/cosine family supported on the region.

    Function n (1-based) is cos for odd n and sin for even n, with argument
    (q - center) n pi / width; these are the region's standing waves and
    integrate to the identity Gram matrix.
    """
    ns = np.arange(1, n_basis + 1)
    arg = (points[None, :] - region.center) * ns[:, None] * math.pi / region.width
    np.cos(arg[0::2], out=arg[0::2])
    np.sin(arg[1::2], out=arg[1::2])
    return arg / math.sqrt(region.half_width)


def _basis_nodes(model: OscillatorModel, width: float, n_basis: int) -> int:
    """Gauss-Legendre nodes of an n_basis-function projection on a region
    `width` wide: the spectral rule of the kernel (_schmidt_nodes, so a
    width past MAX_NODES is refused with QuadratureNotConverged before any
    array) plus BASIS_NODES_PER_FUNCTION per function. On 380 random cells
    (alpha 0 to 1e6, widths 0.1 to 10, n_basis 1 to 160, centers within 3,
    one refused) the count and twice it agree to 1.7e-14 ebit, and to
    1.0e-14 on 300 cells at alpha 1e2 to 1e4, widths 7 to 10 and 80 to 160
    functions. At pi/4 per function they part by 3.1e-7. A count whose
    kernel would pass KERNEL_BYTES (past 8192 nodes) is refused with
    QuadratureNotConverged."""
    # the rule has more nodes than functions, so a count of functions past the
    # budget is refused first, before pi/2 n_basis, which may not fit a float
    _kernel_budget(n_basis, "function basis projection")
    n = _schmidt_nodes(model, width) + math.ceil(BASIS_NODES_PER_FUNCTION * n_basis)
    _kernel_budget(n, "node basis projection kernel")
    return n


def _basis_projected_matrix(model: OscillatorModel, region: Region,
                            n_basis: int, n: int) -> np.ndarray:
    """phi_w K phi_w^T on the n-node Gauss-Legendre rule of the region
    (_panel_rule), with phi_w the first n_basis region_basis functions times
    the weights."""
    nodes, weights = _panel_rule(region.lo, region.hi, n)
    phi_w = region_basis(region, n_basis, nodes) * weights[None, :]
    kernel = reduced_density_value(model, nodes[:, None], nodes[None, :])
    return phi_w @ kernel @ phi_w.T


def basis_expansion_entropy(model: OscillatorModel, region: Region,
                            n_basis: int = DEFAULT_BASIS_SIZE) -> EnsembleResult:
    """One-restricted entanglement from the basis-projected kernel.

    The kernel is projected once, on the Gauss-Legendre rule of the region
    with _basis_nodes nodes; a rule whose kernel would not fit KERNEL_BYTES
    is refused with QuadratureNotConverged before any array is built. The
    entropy comes from the trace-normalized projection, the survival
    probability from the region's closed-form mass.
    """
    if n_basis < 1:
        raise DomainError("n_basis must be >= 1")
    p = _region_mass(region, float(marginal_masses(model, region.lo, region.hi)))
    projected = _basis_projected_matrix(
        model, region, n_basis, _basis_nodes(model, region.width, n_basis))
    entropy, spectrum = _entropy_and_spectrum(projected)
    return EnsembleResult(entropy, p, spectrum.size, n_basis)


# -- precise position measurement --------------------------------------------

def precise_measurement_entanglement(model: OscillatorModel, region: Region,
                                     n_bins: int | None = None) -> float:
    """Negativity left after an exact position readout inside the region.

    The post-measurement ensemble is diagonal in Alice's coordinate (an
    incoherent sum of product states), so the negativity across the A|B
    grid cut vanishes up to round-off. The assembled matrix has dimension
    (n_bins + 1)^2 (DEFAULT_BINS_PRECISE bins by default); one that would not
    fit KERNEL_BYTES (from 90 bins) is refused with QuadratureNotConverged
    before any array is built.
    """
    n_bins = _n_bins(n_bins, DEFAULT_BINS_PRECISE)
    _kernel_budget((n_bins + 1) ** 2, "row precise-readout matrix")
    qa = _grid_points(region, n_bins)
    qb = np.linspace(-DOMAIN_HALF_LENGTH, DOMAIN_HALF_LENGTH, n_bins + 1)
    psi = two_particle_wavefunction(model, qa[:, None], qb[None, :])
    n_a, n_b = psi.shape
    rho = np.zeros((n_a, n_b, n_a, n_b))
    i = np.arange(n_a)
    rho[i, :, i, :] = psi[:, :, None] * psi[:, None, :]
    rho = rho.reshape(n_a * n_b, n_a * n_b)
    trace = float(np.trace(rho))
    if trace <= 0.0:
        raise EmptyRegionMass("precise-measurement ensemble has no mass")
    return negativity(DensityMatrix(rho / trace), (n_a, n_b))


# -- non-discarding ensemble --------------------------------------------------

class NonDiscardingResult(NamedTuple):
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


def _nodes_on(model: OscillatorModel, pieces) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights of one cell as (1, n) rows:
    _schmidt_nodes(model, hi - lo) nodes on each (lo, hi) of pieces, joined."""
    rules = [gauss_legendre(lo, hi, _schmidt_nodes(model, hi - lo)) for lo, hi in pieces]
    return tuple(np.concatenate(part)[None, :] for part in zip(*rules))


def _ensemble(model: OscillatorModel, region: Region, entropy) -> NonDiscardingResult:
    """The non-discarding ensemble of Alice's region, each conditional entropy
    taken by entropy(x, w) on Gauss-Legendre nodes (_nodes_on) of the region
    and of the pieces of its complement in the truncated domain. The mass is
    in closed form; a region that leaves no outside outcome (no piece, or an
    outside mass below EMPTY_MASS) has mass 1 and outside entropy 0."""
    p = _region_mass(region, float(marginal_masses(model, region.lo, region.hi)))
    e_in = float(entropy(*_nodes_on(model, [(region.lo, region.hi)]))[0])
    half = DOMAIN_HALF_LENGTH
    pieces = [(lo, hi) for lo, hi in ((-half, region.lo), (region.hi, half)) if hi > lo]
    e_out = 0.0
    if not pieces or 1.0 - p < EMPTY_MASS:
        p = 1.0
    else:
        e_out = float(entropy(*_nodes_on(model, pieces))[0])
    return NonDiscardingResult(entanglement=p * e_in + (1.0 - p) * e_out,
                               survival_probability=p, entanglement_inside=e_in,
                               entanglement_outside=e_out, locally_accessible=p * e_in)


def non_discarding_entanglement(model: OscillatorModel, region: Region) -> NonDiscardingResult:
    """Entanglement of the non-discarding ensemble for Alice's region.

    Both conditional states are pure, so the ensemble entanglement is the
    probability-weighted average of the in-region and out-of-region
    discarding entanglements. Each is the entropy of Alice's reduced kernel
    in Nystrom form on Gauss-Legendre nodes, the spectral node rule
    (two_party_nodes) of its length on the region and on each piece of the
    region's complement in the truncated domain, solved on the numerical rank
    of its kernel as a one-party map cell is (_kernel_entropies, the joined
    nodes as u with center 0 and half width 1). A piece that needs more than
    MAX_NODES nodes is refused with QuadratureNotConverged.
    """
    return _ensemble(model, region,
                     lambda x, w: _kernel_entropies(model, np.zeros(1), 1.0, x[0], w[0]))


def non_discarding_two_path(model: OscillatorModel, region: Region):
    """Check the two-outcome identity along two independent routes.

    Route one reduces to Alice first and takes each conditional entanglement
    from the analytic one-particle kernel (non_discarding_entanglement).
    Route two averages the conditional entropies of the blocks of the
    two-outcome mixture of the full two-particle state, each from the
    Schmidt weights of its amplitudes (_entropies) on the same nodes of
    Alice's side against Gauss-Legendre nodes of the whole truncated domain
    on Bob's, the spectral node rule of its length; past MAX_NODES Bob nodes
    (alpha above about 1.6e4) it is refused with QuadratureNotConverged.
    Returns (identity_result, mixture_value, gap).
    """
    xb, wb = _nodes_on(model, [(-DOMAIN_HALF_LENGTH, DOMAIN_HALF_LENGTH)])
    identity = non_discarding_entanglement(model, region)
    mixture = _ensemble(model, region, lambda x, w: _entropies(model, x, w, xb, wb)).entanglement
    return identity, mixture, abs(mixture - identity.entanglement)


# -- multi-partition inequality -----------------------------------------------

class PartitionCell(NamedTuple):
    """Alice's and Bob's segment bounds, joint mass and entanglement of a cell."""

    a_lo: float
    a_hi: float
    b_lo: float
    b_hi: float
    probability: float
    entanglement: float


class PartitionReport(NamedTuple):
    """Weighted discarding entanglement summed over a joint partition."""

    weighted_sum: float
    full_entanglement: float
    slack: float
    cells: tuple[PartitionCell, ...]


def partition_inequality_check(model: OscillatorModel, partition_a: Partition,
                               partition_b: Partition,
                               n_bins: int | None = None) -> PartitionReport:
    """Average discarding entanglement over all partition cells.

    Shared entanglement cannot increase under the local region-resolving
    measurement, so the probability-weighted cell sum never exceeds the
    unrestricted entanglement of formation. Cells run on Gauss-Legendre
    nodes, or with n_bins on the Gauss rule of each segment's grid sum, as
    in both_restricted_entropy. The cells are Alice's segments by Bob's
    (_segments), in row-major order.
    """
    (centers_a, halves_a), (centers_b, halves_b) = _segments(partition_a), _segments(partition_b)
    ca, ha = (np.repeat(part, centers_b.size) for part in (centers_a, halves_a))
    cb, hb = (np.tile(part, centers_a.size) for part in (centers_b, halves_b))
    rows = _two_party_cells(model, _two_party_orbits(ca, ha, cb, hb), n_bins)
    bounds = (ca - ha, ca + ha, cb - hb, cb + hb)
    cells = tuple(PartitionCell(*edges, p, e)
                  for *edges, (e, p, _) in zip(*(edge.tolist() for edge in bounds),
                                               rows.tolist()))
    total = sum(cell.probability * cell.entanglement for cell in cells)
    e_full = gaussian_eof(model)
    return PartitionReport(weighted_sum=total, full_entanglement=e_full,
                           slack=e_full - total, cells=cells)


# -- grid/basis method equivalence ---------------------------------------------

class MethodEquivalence(NamedTuple):
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
    """Extrapolated grid-vs-basis comparison at a region.

    The grid values at n_bins // 2 and n_bins intervals are the region's cell
    of one_party_map at each resolution, within 5e-14 ebit of the dense grid
    eigensolve (one_restricted_entropy); the basis values are
    basis_expansion_entropy's at n_basis // 2 and n_basis functions. Fewer
    than 2 coarse bins is refused with DomainError before any mass, a region
    below EMPTY_MASS with EmptyRegionMass before any spectrum, and a width
    past MAX_NODES with QuadratureNotConverged, as one_party_map refuses it.
    """
    n_coarse = _n_bins(n_bins // 2)
    _region_mass(region, float(marginal_masses(model, region.lo, region.hi)))
    g_coarse, g_fine = (
        float(one_party_map(model, [region.center], [region.width], n).values[0, 0])
        for n in (n_coarse, n_bins))
    b_coarse = basis_expansion_entropy(model, region, n_basis // 2).entanglement
    b_fine = basis_expansion_entropy(model, region, n_basis).entanglement
    grid_limit = 2.0 * g_fine - g_coarse
    basis_limit = 2.0 * b_fine - b_coarse
    return MethodEquivalence(g_coarse, g_fine, b_coarse, b_fine,
                             grid_limit, basis_limit,
                             abs(grid_limit - basis_limit))


# -- scan surfaces --------------------------------------------------------------

def _cell_arrays(*centers_and_halves) -> list[np.ndarray]:
    """Cells as broadcast float arrays of (center, half width) pairs, after the
    checks that Region makes of each: finite centers, positive finite half
    widths. The checks run before broadcasting, so a bad half width is refused
    even when there are no cells."""
    parts = [np.asarray(v, dtype=np.float64) for v in centers_and_halves]
    if not (all(np.isfinite(part).all() for part in parts)
            and all((half > 0.0).all() for half in parts[1::2])):
        raise DomainError("region centers and half widths must be finite, "
                          "half widths positive")
    return np.broadcast_arrays(*parts)


def _two_party_orbits(centers_a, half_a, centers_b, half_b):
    """(width, (a_lo, a_hi, b_lo, b_hi), inverse): the widest region that
    half_a and half_b give, even when there are no cells, and, of the cells
    centers_a[i] +- half_a[i] by centers_b[i] +- half_b[i] (see _cell_arrays),
    the bounds of one representative per symmetry orbit, cell i being
    representative inverse[i].

    psi(q_a, q_b) = psi(q_b, q_a) = psi(-q_a, -q_b), so the cells A x B,
    B x A, -A x -B and -B x -A have one joint mass and one set of Schmidt
    weights. A cell's representative is the lexicographically smallest of
    these four images as (c_a, h_a, c_b, h_b) rows; swapping and negating are
    exact in floating point, so every image of a cell gets the same
    representative, bit for bit. A cell none of whose images is among the
    cells is its own representative, so a result never depends on finding
    one, only on each image being an exact symmetry of psi. _two_party_sides
    gives the four images one amplitude matrix, so the representative's
    entropy is each image's own, bit for bit.
    """
    cells = np.stack(_cell_arrays(centers_a, half_a, centers_b, half_b), axis=-1).reshape(-1, 4)
    width = 2.0 * max(np.max(half_a, initial=0.0), np.max(half_b, initial=0.0))
    swapped = cells[:, [2, 3, 0, 1]]
    mirror = np.array([-1.0, 1.0, -1.0, 1.0])
    rows = np.arange(len(cells))
    rep = cells
    for image in (swapped, cells * mirror, swapped * mirror):
        first = (image != rep).argmax(axis=1)  # the first column that differs
        rep = np.where((image[rows, first] < rep[rows, first])[:, None], image, rep)
    # the distinct rows in lexicographic order, as np.unique(axis=0) gives
    # them; + 0.0 turns -0.0 into 0.0, both giving the same bounds
    rep = rep + 0.0
    order = np.lexsort(rep.T[::-1])
    ordered = rep[order]
    starts = np.ones(len(rep), dtype=bool)
    starts[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rep), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    ca, ha, cb, hb = ordered[starts].T
    return width, (ca - ha, ca + ha, cb - hb, cb + hb), inverse


def _map_orbits(centers_a: np.ndarray, centers_b: np.ndarray, half_a, half_b):
    """_two_party_orbits of the centers_a x centers_b cells of a map, in
    row-major order."""
    return _two_party_orbits(np.repeat(centers_a, centers_b.size), half_a,
                             np.tile(centers_b, centers_a.size), half_b)


def _two_party_cells(model: OscillatorModel, orbits, n_bins: int | None) -> np.ndarray:
    """(entanglement, survival probability, empty flag) rows of the cells
    whose symmetry orbits (width, bounds, inverse) _two_party_orbits gave,
    solved once per distinct cell (_entropies) with one Gram eigensolve per
    chunk of CHUNK_BYTES, on n nodes per region of the widest region
    (_schmidt_nodes, refused past MAX_NODES before any mass, as n_bins below
    2 is). Joint masses are clipped to [0, 1] (_orbit_masses); a cell whose
    mass is below EMPTY_MASS is empty: value 0, probability 0, flag 1. The
    orbits do not depend on the coupling, so a scan over models reduces its
    cells once.
    """
    width, bounds, inverse = orbits
    _n_bins(n_bins)
    n = _schmidt_nodes(model, width, n_bins)
    prob = np.clip(_orbit_masses(model, width, bounds), 0.0, 1.0)
    live = prob >= EMPTY_MASS
    values = np.zeros(prob.size)
    values[live] = _entropies(model, *_two_party_sides(*(edge[live] for edge in bounds),
                                                       n, n_bins))
    return np.stack([values, np.where(live, prob, 0.0), ~live], axis=-1)[inverse]


def _entanglement_surface(centers_a: np.ndarray, centers_b: np.ndarray,
                          rows: np.ndarray) -> Distribution2D:
    """The surface of _two_party_cells rows of the centers_a x centers_b
    cells, with its "prob" and "flag" layers."""
    data = rows.reshape(centers_a.size, centers_b.size, 3)
    return Distribution2D(axis_a=centers_a, axis_b=centers_b, values=data[..., 0],
                          kind="entanglement",
                          extra={"prob": data[..., 1], "flag": data[..., 2]})


def one_party_map(model: OscillatorModel, centers, widths,
                  n_bins: int | None = None) -> Distribution2D:
    """Entanglement when Alice alone restricts to centers[i] +- widths[j] / 2.

    n_bins is the number of grid intervals on Alice's region
    (DEFAULT_BINS_ONE by default), as in one_restricted_entropy: a cell's
    entropy is that of the reduced kernel K on the region's n_bins + 1
    uniform points. It is taken by Nystrom discretization on the n-node Gauss
    rule of the unit-weight sum over those points: the normalized eigenvalues
    of sqrt(w_g) K(x_g, x_h) sqrt(w_h), which converge exponentially in n to
    the nonzero spectrum of the grid kernel. n is the spectral node rule of
    the width (two_party_nodes), at most n_bins + 1, where the rule is the
    grid itself. Its envelope term sets n for wide regions at weak coupling:
    at alpha 0.05 to 0.25, widths 10 to 16 and 20 to 200 bins, map cells
    match the dense grid eigensolve to 1.1e-14 ebit, where the narrow term
    alone left them up to 2.3e-12 off.

    Every cell of a width maps one reference rule (u, w) = grid_gauss(-1, 1,
    n_bins + 1, n) onto its region, x = c + h u, and the width's cells are
    solved together on the numerical rank of their shared kernel
    (_kernel_entropies), whose nonzero eigenvalues agree with the full n x n
    eigensolve's to about 2e-15 of their sum. K(x, x') = K(-x, -x') and
    Alice's marginal is even, so the cells at c and -c are one cell: each is
    solved on its representative -|c|, and every center reads its
    representative's row, which makes the map its own mirror bit for bit.

    A width whose rule needs more than MAX_NODES nodes (_schmidt_nodes) is
    refused with QuadratureNotConverged before any array is built, as a
    two-party cell of that width is. Masses are in closed form.
    Extra layers: "prob", "flag" (1 for a cell below EMPTY_MASS: value 0,
    probability 0) and "rescaled", each width's profile over its own peak.
    An empty centers gives an empty surface.
    """
    n_bins = _n_bins(n_bins, DEFAULT_BINS_ONE)
    centers = np.asarray(centers, dtype=np.float64)
    widths = np.asarray(widths, dtype=np.float64)
    halves = widths / 2.0
    reps, inverse = np.unique(-np.abs(centers), return_inverse=True)
    rep_centers, rep_halves = _cell_arrays(reps[:, None], halves[None, :])
    counts = [_schmidt_nodes(model, width, n_bins) for width in widths]
    prob = np.clip(marginal_masses(model, rep_centers - rep_halves, rep_centers + rep_halves),
                   0.0, 1.0)
    live = prob >= EMPTY_MASS
    values = np.zeros(prob.shape)
    for j, (half, n) in enumerate(zip(halves, counts)):
        values[live[:, j], j] = _kernel_entropies(
            model, reps[live[:, j]], half, *_rule(-1.0, 1.0, n, n_bins))
    values, prob, live = values[inverse], prob[inverse], live[inverse]
    peaks = values.max(axis=0, initial=0.0)
    rescaled = np.divide(values, peaks[None, :], out=np.zeros_like(values),
                         where=peaks[None, :] > 0)
    return Distribution2D(axis_a=centers, axis_b=widths, values=values,
                          kind="entanglement", axis_names=("q_bar_A", "width"),
                          extra={"prob": np.where(live, prob, 0.0), "flag": ~live,
                                 "rescaled": rescaled})


def two_party_map(model: OscillatorModel, centers_a, centers_b, half_width: float,
                  half_width_b: float | None = None,
                  n_bins: int | None = None) -> Distribution2D:
    """Entanglement when Alice restricts to centers_a[i] +- half_width and Bob
    to centers_b[j] +- half_width_b (Alice's half width by default).

    n_bins is the number of grid intervals per region, as in
    both_restricted_entropy: with it the cells run on the Gauss rule of each
    region's grid sum, without it on Gauss-Legendre nodes. Extra layers:
    "prob" and "flag" (1 for a cell below EMPTY_MASS: value 0, probability
    0).
    """
    centers_a = np.asarray(centers_a, dtype=np.float64)
    centers_b = np.asarray(centers_b, dtype=np.float64)
    orbits = _map_orbits(centers_a, centers_b, half_width,
                         half_width if half_width_b is None else half_width_b)
    return _entanglement_surface(centers_a, centers_b,
                                 _two_party_cells(model, orbits, n_bins))


def both_restricted_profile(model: OscillatorModel, centers, half_width: float,
                            bob_center: float | None = None,
                            n_bins: int | None = None):
    """One-dimensional slice of the two-party map.

    Bob's region tracks Alice's center when bob_center is None, otherwise
    it stays pinned there. Returns (centers, values, probs, flags) arrays.
    """
    centers = np.asarray(centers, dtype=np.float64)
    orbits = _two_party_orbits(centers, half_width,
                               centers if bob_center is None else bob_center, half_width)
    rows = _two_party_cells(model, orbits, n_bins)
    return centers, rows[:, 0], rows[:, 1], rows[:, 2]
