"""Dense linear algebra for small real symmetric matrices.

DensityMatrix carries a checked state, real, symmetric and of trace 1, for
the cells that assemble one (the spin model's unrestricted F sweep, the
single grid one-party cell); what an entanglement measure needs of it
(eigenvalues, partial transpose, negativity) lives here. The maps, the
basis and non-discarding cells and the precise readout take their spectra
in LAPACK calls of their own (restrict) or in closed form (spin); every
entropy goes through spectral_entropy_bits. Every LAPACK call of the
package goes through lapack, the one place where numpy's LinAlgError
becomes NoConvergence.

What a check costs: a DensityMatrix takes one read-only float64 copy of its
input and one temporary, m - m^T, whose largest entry is the symmetry
defect; max|m| and the finiteness of the entries are read only when that
defect passes HERMITICITY_TOL (a NaN or inf entry makes it NaN or inf), and
the trace is one sum of the diagonal. For the spin sweep's 16x16 states
that is about 7 us a matrix, against about 10 us for its eigvalsh (2-vCPU
Xeon VM, BLAS threads 1). So an n x n check holds three n x n arrays at its
peak: the caller's, the copy and the temporary.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    NoConvergence,
    NonHermitianInput,
    NotNormalized,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_CLAMP = 1e-12


@dataclass(frozen=True)
class DensityMatrix:
    """Real symmetric matrix of trace 1.

    elements is a read-only float64 copy of the input, so the symmetry and
    trace checked here hold for the object's lifetime. A complex input is
    taken only when its imaginary part is all zero; a NaN or inf entry is
    refused with DomainError.
    """

    elements: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.elements)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
        if np.iscomplexobj(m):
            if m.imag.any():
                raise DomainError("a density matrix must be real")
            m = m.real
        m = m.astype(np.float64, order="C")
        m.flags.writeable = False
        object.__setattr__(self, "elements", m)
        # m - m^T is antisymmetric, so its largest entry is its largest
        # magnitude, NaN or inf when an entry is (inf - inf, silenced here, is
        # NaN); the scale max(1, max|m|) is read only past the tolerance it
        # multiplies
        with np.errstate(invalid="ignore"):
            defect = float((m - m.T).max(initial=0.0))
        if not defect <= HERMITICITY_TOL:
            if not np.isfinite(m).all():
                raise DomainError("matrix has a NaN or infinite entry")
            if defect > HERMITICITY_TOL * max(1.0, float(np.abs(m).max())):
                raise NonHermitianInput(
                    f"matrix deviates from Hermiticity by {defect:.3e}")
        trace = float(m.trace())
        if abs(trace - 1.0) > TRACE_TOL:
            raise NotNormalized(f"trace {trace!r} differs from 1")

    @property
    def dim(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues in descending order."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "eigenvalues",
                           np.asarray(self.eigenvalues, dtype=np.float64))

    @property
    def size(self) -> int:
        return self.eigenvalues.size


def lapack(solver, *args, **kwargs):
    """solver(*args, **kwargs), a LAPACK-backed numpy routine; a failure to
    converge raises NoConvergence."""
    try:
        return solver(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def spectral_entropy_bits(weights: np.ndarray) -> np.ndarray:
    """Shannon entropy (base 2) of each row of a stack of normalized spectra.

    Entries at or below EIGENVALUE_CLAMP are dropped (replaced by 1, whose
    term vanishes), and each entropy is floored at 0: rounding can leave an
    eigenvalue marginally above 1.
    """
    lam = np.where(weights > EIGENVALUE_CLAMP, weights, 1.0)
    return np.maximum(0.0, -(lam * np.log2(lam)).sum(axis=-1))


def eigen_symmetric(m: DensityMatrix, vectors: bool = False):
    """Eigendecomposition of a real symmetric matrix.

    Returns a Spectrum (descending eigenvalues), or (Spectrum, Q) with
    eigenvector columns matching the eigenvalue order when vectors=True:
    LAPACK's ascending eigenvalues and their columns, reversed. Symmetry
    was checked when the DensityMatrix was built.
    """
    if vectors:
        lam, q = lapack(np.linalg.eigh, m.elements)
        return Spectrum(lam[::-1]), q[:, ::-1]
    return Spectrum(lapack(np.linalg.eigvalsh, m.elements)[::-1])


def binary_entropy(eps: float) -> float:
    """h(eps) = -[eps log2 eps + (1-eps) log2(1-eps)], in bits."""
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"binary entropy argument {eps} outside [0, 1]")
    if eps == 0.0 or eps == 1.0:
        return 0.0
    return float(-(eps * np.log2(eps) + (1.0 - eps) * np.log2(1.0 - eps)))


def partial_transpose(m: DensityMatrix, dims: tuple[int, int]) -> DensityMatrix:
    """Transpose the second party's indices only.

    Index convention: row = i_a * d_b + i_b. The operation is involutive
    and preserves the diagonal, so the trace, and symmetry.
    """
    d_a, d_b = dims
    if d_a < 1 or d_b < 1 or d_a * d_b != m.dim:
        raise DimensionMismatch(
            f"dimensions {dims} do not factor matrix dimension {m.dim}")
    r = m.elements.reshape(d_a, d_b, d_a, d_b)
    out = r.transpose(0, 3, 2, 1).reshape(m.dim, m.dim)
    return DensityMatrix(out)


def negativity(m: DensityMatrix, dims: tuple[int, int]) -> float:
    """Sum of magnitudes of negative eigenvalues of the partial transpose."""
    lam = eigen_symmetric(partial_transpose(m, dims)).eigenvalues
    return float(-lam[lam < 0.0].sum())
