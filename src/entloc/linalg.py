"""Dense linear algebra for small Hermitian matrices.

DensityMatrix carries a checked state for the cells that assemble one (the
spin model's 16 x 16 states, a grid or basis one-party cell, the precise
readout); what an entanglement measure needs of it (eigenvalues, partial
transpose and trace, entropy, negativity) lives here. The maps and the
non-discarding ensemble take their spectra in batched LAPACK calls of their
own (restrict) or in closed form (spin); every entropy goes through
spectral_entropy_bits. Every LAPACK call of the package goes through lapack,
the one place where numpy's LinAlgError becomes NoConvergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    NegativeEigenvalue,
    NoConvergence,
    NonHermitianInput,
    NotNormalized,
)

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-10
EIGENVALUE_CLAMP = 1e-12


def _as_matrix(elements) -> np.ndarray:
    m = np.asarray(elements)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    if np.iscomplexobj(m) and np.abs(m.imag).max(initial=0.0) == 0.0:
        m = m.real  # real storage fast path
    return m.astype(np.complex128 if np.iscomplexobj(m) else np.float64, copy=False)


@dataclass(frozen=True)
class DensityMatrix:
    """Square Hermitian matrix with trace metadata.

    trace_normalized marks matrices meant to represent physical states
    (trace 1). Partial transposes keep the flag but are allowed to have
    negative eigenvalues. elements is a read-only copy of the input, so the
    Hermiticity checked here holds for the object's lifetime.
    """

    elements: np.ndarray
    trace_normalized: bool = True

    def __post_init__(self):
        m = _as_matrix(self.elements).copy()
        m.flags.writeable = False
        object.__setattr__(self, "elements", m)
        scale = max(1.0, float(np.abs(m).max(initial=0.0)))
        defect = float(np.abs(m - m.conj().T).max(initial=0.0))
        if defect > HERMITICITY_TOL * scale:
            raise NonHermitianInput(
                f"matrix deviates from Hermiticity by {defect:.3e}")
        if self.trace_normalized:
            trace = complex(np.trace(m)).real
            if abs(trace - 1.0) > TRACE_TOL:
                raise NotNormalized(f"trace {trace!r} differs from 1")

    @property
    def dim(self) -> int:
        return self.elements.shape[0]

    @property
    def trace(self) -> float:
        return float(np.trace(self.elements).real)

    @staticmethod
    def from_state(state) -> "DensityMatrix":
        """Projector |psi><psi| of a unit-norm state vector."""
        psi = np.asarray(state)
        norm = float(np.linalg.norm(psi))
        if abs(norm - 1.0) > 1e-10:
            raise NotNormalized(f"state norm {norm} differs from 1")
        return DensityMatrix(np.outer(psi, psi.conj()))


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
    """Eigendecomposition of a Hermitian matrix.

    Returns a Spectrum (descending eigenvalues), or (Spectrum, Q) with
    eigenvector columns matching the eigenvalue order when vectors=True.
    Hermiticity was checked when the DensityMatrix was built.
    """
    if vectors:
        lam, q = lapack(np.linalg.eigh, m.elements)
    else:
        lam = lapack(np.linalg.eigvalsh, m.elements)
    order = np.argsort(-lam, kind="stable")
    spectrum = Spectrum(lam[order])
    if vectors:
        return spectrum, q[:, order]
    return spectrum


def von_neumann_entropy(m: DensityMatrix) -> float:
    """Von Neumann entropy -sum(lam log2 lam) in bits.

    The input must be trace-normalized and positive semidefinite up to
    numerical tolerance; eigenvalues below the clamp are dropped.
    """
    if abs(m.trace - 1.0) > 1e-8:
        raise NotNormalized(f"trace {m.trace} differs from 1")
    spectrum = eigen_symmetric(m)
    lam_min = float(spectrum.eigenvalues[-1])
    if lam_min < -1e-8:
        raise NegativeEigenvalue(f"eigenvalue {lam_min:.3e} below tolerance")
    return float(spectral_entropy_bits(spectrum.eigenvalues))


def binary_entropy(eps: float) -> float:
    """h(eps) = -[eps log2 eps + (1-eps) log2(1-eps)], in bits."""
    if not 0.0 <= eps <= 1.0:
        raise DomainError(f"binary entropy argument {eps} outside [0, 1]")
    if eps == 0.0 or eps == 1.0:
        return 0.0
    return float(-(eps * np.log2(eps) + (1.0 - eps) * np.log2(1.0 - eps)))


def _check_dims(m: DensityMatrix, dims: tuple[int, int]) -> tuple[int, int]:
    d_a, d_b = dims
    if d_a < 1 or d_b < 1 or d_a * d_b != m.dim:
        raise DimensionMismatch(
            f"dimensions {dims} do not factor matrix dimension {m.dim}")
    return d_a, d_b


def partial_transpose(m: DensityMatrix, dims: tuple[int, int]) -> DensityMatrix:
    """Transpose the second party's indices only.

    Index convention: row = i_a * d_b + i_b. The operation is involutive
    and preserves trace and Hermiticity.
    """
    d_a, d_b = _check_dims(m, dims)
    r = m.elements.reshape(d_a, d_b, d_a, d_b)
    out = r.transpose(0, 3, 2, 1).reshape(m.dim, m.dim)
    return DensityMatrix(out, trace_normalized=m.trace_normalized)


def negativity(m: DensityMatrix, dims: tuple[int, int]) -> float:
    """Sum of magnitudes of negative eigenvalues of the partial transpose."""
    if abs(m.trace - 1.0) > 1e-8:
        raise NotNormalized(f"trace {m.trace} differs from 1")
    spectrum = eigen_symmetric(partial_transpose(m, dims))
    lam = spectrum.eigenvalues
    return float(-lam[lam < 0.0].sum())


def reduce_to_party(m: DensityMatrix, dims: tuple[int, int], keep: str) -> DensityMatrix:
    """Partial trace onto one party; keep is "A" or "B"."""
    d_a, d_b = _check_dims(m, dims)
    r = m.elements.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        out = np.trace(r, axis1=1, axis2=3)
    elif keep == "B":
        out = np.trace(r, axis1=0, axis2=2)
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    out = 0.5 * (out + out.conj().T)
    return DensityMatrix(out, trace_normalized=m.trace_normalized)
