import ast
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entloc
from entloc import quadrature
from entloc.cli import run
from entloc.correlate import fit_surface, probability_map
from entloc.errors import (
    DimensionMismatch,
    DomainError,
    NegativeEigenvalue,
    NoConvergence,
    NonHermitianInput,
    NotNormalized,
)
from entloc.linalg import (
    HERMITICITY_TOL,
    TRACE_TOL,
    DensityMatrix,
    binary_entropy,
    eigen_symmetric,
    negativity,
    partial_transpose,
    spectral_entropy_bits,
)
from entloc.oscillator import OscillatorModel
from entloc.quadrature import integrate_1d
from entloc.restrict import (
    Region,
    both_restricted_entropy,
    non_discarding_entanglement,
    one_party_map,
    precise_measurement_entanglement,
)


# -- dense reference: tests/test_spin.py holds the spin cells to it ------------

def projector(state) -> DensityMatrix:
    """|psi><psi| of a unit-norm state vector."""
    psi = np.asarray(state)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > 1e-10:
        raise NotNormalized(f"state norm {norm} differs from 1")
    return DensityMatrix(np.outer(psi, psi))


def reduce_to_party(m: DensityMatrix, dims: tuple[int, int], keep: str) -> DensityMatrix:
    """Partial trace onto one party; keep is "A" or "B"."""
    d_a, d_b = dims
    if d_a < 1 or d_b < 1 or d_a * d_b != m.dim:
        raise DimensionMismatch(
            f"dimensions {dims} do not factor matrix dimension {m.dim}")
    r = m.elements.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        out = np.trace(r, axis1=1, axis2=3)
    elif keep == "B":
        out = np.trace(r, axis1=0, axis2=2)
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    out = 0.5 * (out + out.T)
    return DensityMatrix(out)


def von_neumann_entropy(m: DensityMatrix) -> float:
    """Von Neumann entropy -sum(lam log2 lam) in bits.

    The input (of trace 1, as every DensityMatrix) must be positive
    semidefinite up to numerical tolerance; eigenvalues below the clamp are
    dropped.
    """
    spectrum = eigen_symmetric(m)
    lam_min = float(spectrum.eigenvalues[-1])
    if lam_min < -1e-8:
        raise NegativeEigenvalue(f"eigenvalue {lam_min:.3e} below tolerance")
    return float(spectral_entropy_bits(spectrum.eigenvalues))


def bell_state():
    return np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)


def random_density(rng, dim):
    """Random full-rank density matrix (independent of the library path)."""
    a = rng.standard_normal((dim, dim))
    rho = a @ a.T + 1e-3 * np.eye(dim)
    return rho / np.trace(rho)


def brute_partial_trace(rho, d_a, d_b, keep):
    r = rho.reshape(d_a, d_b, d_a, d_b)
    out = np.zeros((d_a, d_a)) if keep == "A" else np.zeros((d_b, d_b))
    for i in range(d_a):
        for j in range(d_b):
            for k in range(d_a):
                for l in range(d_b):
                    if keep == "A" and j == l:
                        out[i, k] += r[i, j, k, l]
                    if keep == "B" and i == k:
                        out[j, l] += r[i, j, k, l]
    return out


def brute_partial_transpose(rho, d_a, d_b):
    out = np.zeros_like(rho)
    for ia in range(d_a):
        for ib in range(d_b):
            for ja in range(d_a):
                for jb in range(d_b):
                    out[ia * d_b + ib, ja * d_b + jb] = \
                        rho[ia * d_b + jb, ja * d_b + ib]
    return out


class TestEigenSymmetric:
    def test_scaled_identity(self):
        spectrum = eigen_symmetric(DensityMatrix(np.eye(4) / 4.0))
        assert np.allclose(spectrum.eigenvalues, 0.25)

    def test_diagonal(self):
        spectrum = eigen_symmetric(DensityMatrix(np.diag([0.7, 0.3])))
        assert np.allclose(spectrum.eigenvalues, [0.7, 0.3])

    def test_rank_one_projector(self):
        spectrum = eigen_symmetric(DensityMatrix(np.full((2, 2), 0.5)))
        assert np.allclose(spectrum.eigenvalues, [1.0, 0.0], atol=1e-14)

    def test_descending_order(self):
        rng = np.random.default_rng(7)
        spectrum = eigen_symmetric(DensityMatrix(random_density(rng, 17)))
        assert np.all(np.diff(spectrum.eigenvalues) <= 0.0)

    def test_reconstruction_residual(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng, 32)
        spectrum, q = eigen_symmetric(DensityMatrix(rho), vectors=True)
        rebuilt = (q * spectrum.eigenvalues) @ q.T
        scale = np.abs(rho).max()
        assert np.abs(rebuilt - rho).max() <= 1e-9 * scale

    def test_rejects_corrupted_matrix(self):
        source = np.eye(2) / 2.0
        dm = DensityMatrix(source)
        with pytest.raises(ValueError):
            dm.elements[0, 1] += 1e-4  # read-only: validation holds for good
        source[0, 1] = 1e-4  # the caller's array is not shared
        assert dm.elements[0, 1] == 0.0

    def test_construction_rejects_non_hermitian(self):
        m = np.eye(2) / 2.0
        m[0, 1] = 1e-6
        with pytest.raises(NonHermitianInput):
            DensityMatrix(m)


def _symmetric_but_for_one_entry(defect, scale):
    """A 3x3 matrix of trace 1, its largest magnitude `scale` off the
    diagonal, symmetric but for one entry: its symmetry defect is exactly
    `defect`."""
    m = np.diag([0.5, 0.5, 0.0])
    m[0, 2] = m[2, 0] = scale
    m[1, 0] = defect
    return m


def _largest_accepted_trace(direction):
    """The float farthest from 1 on one side (direction +1 or -1) that the
    trace check accepts: within TRACE_TOL of 1, the next float past it not."""
    x = 1.0 + direction * TRACE_TOL
    while abs(x - 1.0) > TRACE_TOL:
        x = np.nextafter(x, 1.0)
    while abs(np.nextafter(x, direction * math.inf) - 1.0) <= TRACE_TOL:
        x = np.nextafter(x, direction * math.inf)
    return float(x)


class TestDensityMatrixValidation:
    @pytest.mark.parametrize("scale", [0.5, 1e3])
    def test_hermiticity_defect_at_and_past_the_tolerance(self, scale):
        edge = HERMITICITY_TOL * max(1.0, scale)  # the bound as the check forms it
        DensityMatrix(_symmetric_but_for_one_entry(edge, scale))
        past = float(np.nextafter(edge, math.inf))
        with pytest.raises(NonHermitianInput, match="by 1.000e-(12|09)"):
            DensityMatrix(_symmetric_but_for_one_entry(past, scale))

    @pytest.mark.parametrize("dtype", [np.complex64, np.complex128])
    @pytest.mark.parametrize("source", [
        [[0.5, 0.1j], [-0.1j, 0.5]],  # Hermitian
        [[0.5, 0.1j], [0.1j, 0.5]],   # complex symmetric
        [[0.5 + 1e-30j, 0.0], [0.0, 0.5]]])
    def test_complex_input_with_an_imaginary_part_is_refused(self, source, dtype):
        with pytest.raises(DomainError, match="must be real"):
            DensityMatrix(np.array(source, dtype=dtype))
        DensityMatrix(np.array(source, dtype=dtype).real)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 0), "pair"])
    def test_non_finite_entries_are_refused_before_any_solve(self, value, where, monkeypatch):
        m = np.array([[0.75, 0.25], [0.25, 0.25]])
        if where == "pair":
            m[0, 1] = m[1, 0] = value
        else:
            m[where] = value

        def solve(*args, **kwargs):
            raise AssertionError("a LAPACK call was reached")
        monkeypatch.setattr(np.linalg, "eigvalsh", solve)
        monkeypatch.setattr(np.linalg, "eigh", solve)
        with pytest.raises(DomainError, match="NaN or infinite entry"):
            negativity(DensityMatrix(m), (1, 2))

    @pytest.mark.parametrize("complex_", [False, True])
    @pytest.mark.parametrize("direction", [1.0, -1.0])
    def test_trace_at_and_past_the_tolerance(self, complex_, direction):
        edge = _largest_accepted_trace(direction)
        for trace in (edge, float(np.nextafter(edge, direction * math.inf))):
            m = np.array([[trace, 0.0], [0.0, 0.0]], dtype=complex if complex_ else float)
            assert m.trace().real == trace
            if abs(trace - 1.0) <= TRACE_TOL:
                assert DensityMatrix(m).elements.trace() == trace
            else:
                with pytest.raises(NotNormalized, match=repr(trace)):
                    DensityMatrix(m)

    @pytest.mark.parametrize("trace", [0.0, -1.0, 2.0, 1e300])
    def test_unnormalized_matrices_are_refused(self, trace):
        with pytest.raises(NotNormalized):
            DensityMatrix(np.diag([trace, 0.0]))

    @pytest.mark.parametrize("imag", [0.0, -0.0])
    def test_complex_input_without_imaginary_part_is_stored_real(self, imag):
        source = np.array([[0.75, 0.25], [0.25, 0.25]]) + complex(0.0, imag)
        dm = DensityMatrix(source)
        assert dm.elements.dtype == np.float64
        assert dm.elements.tolist() == source.real.tolist()

    @pytest.mark.parametrize("source", [
        np.array([[1, 0], [0, 0]]), np.array([[1, 0], [0, 0]], dtype=np.int8),
        np.eye(4, dtype=np.float32) / 4, [[0.5, 0.5], [0.5, 0.5]], [[1]]])
    def test_integer_float32_and_list_input_is_stored_float64(self, source):
        dm = DensityMatrix(source)
        assert dm.elements.dtype == np.float64
        assert dm.elements.tolist() == np.asarray(source, dtype=np.float64).tolist()

    @pytest.mark.parametrize("shape", [(2, 3), (3, 2), (0, 1), (4,), (1,), (), (2, 2, 2),
                                       (1, 1, 1)])
    def test_non_square_input_is_refused(self, shape):
        with pytest.raises(DimensionMismatch, match=re.escape(f"got shape {shape}")):
            DensityMatrix(np.zeros(shape))

    @pytest.mark.parametrize("make", [
        lambda: np.array([[0.75, 0.25], [0.25, 0.25]]),
        lambda: np.asfortranarray(np.array([[0.75, 0.25], [0.25, 0.25]])),
        lambda: np.array([[0.75, 0.25], [0.25, 0.25]]) + 0j,
        lambda: np.array([[3, 1], [1, -2]])])
    def test_elements_are_a_read_only_copy(self, make):
        source = make()
        dm = DensityMatrix(source)
        before = dm.elements.copy()
        assert not dm.elements.flags.writeable and dm.elements.flags.c_contiguous
        assert not np.shares_memory(dm.elements, source)
        with pytest.raises(ValueError):
            dm.elements[0, 0] = 0.0
        source[0, 1] = source[1, 0] = 7
        assert dm.elements.tolist() == before.tolist()
        # a matrix built from another's elements takes a copy of its own
        again = DensityMatrix(dm.elements)
        assert not np.shares_memory(again.elements, dm.elements)


@st.composite
def density_matrices(draw):
    """(matrix, dims): a random real density matrix on dims (2, 2), (2, 3) or
    (4, 4); one in three is diagonal, its weights in no order and repeated,
    so its eigenvalues tie exactly."""
    dims = draw(st.sampled_from([(2, 2), (2, 3), (4, 4)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = dims[0] * dims[1]
    if draw(st.integers(0, 2)) == 0:
        weights = rng.choice([0.0, 1.0, 2.0, 3.0], size=n)
        weights[0] = 1.0
        rho = np.diag(weights / weights.sum())
    else:
        a = rng.standard_normal((n, n))
        rho = a @ a.T
        rho = 0.5 * (rho + rho.T) / np.trace(rho)
    return rho, dims


class TestDenseLayerProperties:
    @given(density_matrices())
    @settings(max_examples=150, deadline=None)
    def test_eigenvalues_are_eigvalsh_sorted_descending(self, case):
        rho, _ = case
        dm = DensityMatrix(rho)
        expected = np.sort(np.linalg.eigvalsh(dm.elements))[::-1]
        np.testing.assert_array_equal(eigen_symmetric(dm).eigenvalues, expected)

    @given(density_matrices())
    @settings(max_examples=150, deadline=None)
    def test_vectors_reconstruct_the_matrix(self, case):
        rho, _ = case
        dm = DensityMatrix(rho)
        spectrum, q = eigen_symmetric(dm, vectors=True)
        lam = spectrum.eigenvalues
        assert np.all(np.diff(lam) <= 0.0)
        np.testing.assert_array_equal(lam, np.sort(np.linalg.eigh(dm.elements)[0])[::-1])
        rebuilt = (q * lam) @ q.T
        assert np.abs(rebuilt - dm.elements).max() <= 1e-14
        assert np.abs(q.T @ q - np.eye(lam.size)).max() <= 1e-14

    @given(density_matrices())
    @settings(max_examples=150, deadline=None)
    def test_partial_transpose_and_negativity_by_index_loops(self, case):
        rho, dims = case
        dm = DensityMatrix(rho)
        brute = brute_partial_transpose(dm.elements, *dims)
        out = partial_transpose(dm, dims)
        np.testing.assert_array_equal(out.elements, brute)
        lam = np.linalg.eigvalsh(brute)
        assert math.isclose(negativity(dm, dims), -lam[lam < 0.0].sum(),
                            rel_tol=1e-13, abs_tol=1e-16)


class TestVonNeumannEntropy:
    def test_pure_state_zero(self):
        rho = projector(bell_state())
        assert von_neumann_entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2.0)) == \
            pytest.approx(1.0, abs=1e-12)

    def test_two_level_value(self):
        # independent oracle: -(0.9 log2 0.9 + 0.1 log2 0.1)
        expected = 0.4689955935892812
        value = von_neumann_entropy(DensityMatrix(np.diag([0.9, 0.1])))
        assert value == pytest.approx(expected, abs=1e-12)

    def test_negative_eigenvalue_raises(self):
        dm = DensityMatrix(np.diag([1.5, -0.5]))
        with pytest.raises(NegativeEigenvalue):
            von_neumann_entropy(dm)

    def test_unnormalized_raises(self):
        with pytest.raises(NotNormalized):
            von_neumann_entropy(DensityMatrix(np.diag([0.6, 0.6])))

    def test_bounded_by_log_dim(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 5, 8):
            value = von_neumann_entropy(DensityMatrix(random_density(rng, dim)))
            assert 0.0 <= value <= np.log2(dim) + 1e-12


class TestBinaryEntropy:
    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_small_argument_value(self):
        # direct evaluation at 1/900
        assert binary_entropy(1.0 / 900.0) == \
            pytest.approx(0.012506304930939046, abs=1e-15)

    def test_symmetry(self):
        for eps in (0.01, 0.2, 0.37):
            assert binary_entropy(eps) == pytest.approx(binary_entropy(1 - eps),
                                                        abs=1e-14)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            binary_entropy(-0.1)
        with pytest.raises(DomainError):
            binary_entropy(1.1)


class TestPartialTranspose:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(5)
        rho = random_density(rng, 6)
        out = partial_transpose(DensityMatrix(rho), (2, 3))
        assert np.allclose(out.elements, brute_partial_transpose(rho, 2, 3),
                           atol=1e-14)

    def test_bell_spectrum(self):
        rho = projector(bell_state())
        spectrum = eigen_symmetric(partial_transpose(rho, (2, 2)))
        assert np.allclose(sorted(spectrum.eigenvalues),
                           [-0.5, 0.5, 0.5, 0.5], atol=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng, 8)
        twice = partial_transpose(partial_transpose(DensityMatrix(rho), (2, 4)),
                                  (2, 4))
        assert np.allclose(twice.elements, rho, atol=1e-14)

    def test_preserves_trace(self):
        rng = np.random.default_rng(13)
        rho = random_density(rng, 9)
        out = partial_transpose(DensityMatrix(rho), (3, 3))
        assert np.trace(out.elements) == pytest.approx(1.0, abs=1e-14)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_transpose(DensityMatrix(np.eye(6) / 6.0), (2, 2))


class TestNegativity:
    def test_product_state_zero(self):
        rng = np.random.default_rng(21)
        rho = np.kron(random_density(rng, 2), random_density(rng, 3))
        assert negativity(DensityMatrix(rho), (2, 3)) <= 1e-12

    def test_single_bell_pair(self):
        rho = projector(bell_state())
        assert negativity(rho, (2, 2)) == pytest.approx(0.5, abs=1e-12)

    def test_two_bell_pairs(self):
        # A|B cut of |bell> x |bell> on 4 qubits: brute-force oracle gives
        # six negative products of the +-1/2 pair eigenvalues, total 3/2.
        pair = np.outer(bell_state(), bell_state())
        rho = np.kron(pair, pair)
        # reorder from (A1 B1 A2 B2) to (A1 A2 B1 B2)
        perm = np.arange(16).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).ravel()
        rho = rho[np.ix_(perm, perm)]
        assert negativity(DensityMatrix(rho), (4, 4)) == \
            pytest.approx(1.5, abs=1e-12)


class TestReduceToParty:
    def test_product_state(self):
        rng = np.random.default_rng(2)
        rho_a = random_density(rng, 3)
        rho_b = random_density(rng, 4)
        joint = DensityMatrix(np.kron(rho_a, rho_b))
        assert np.allclose(reduce_to_party(joint, (3, 4), "A").elements,
                           rho_a, atol=1e-12)
        assert np.allclose(reduce_to_party(joint, (3, 4), "B").elements,
                           rho_b, atol=1e-12)

    def test_bell_marginal(self):
        rho = projector(bell_state())
        reduced = reduce_to_party(rho, (2, 2), "A")
        assert np.allclose(reduced.elements, np.eye(2) / 2.0, atol=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(17)
        rho = random_density(rng, 12)
        out = reduce_to_party(DensityMatrix(rho), (3, 4), "B")
        assert np.allclose(out.elements, brute_partial_trace(rho, 3, 4, "B"),
                           atol=1e-13)


# -- property-based invariants -------------------------------------------------

def trace_one(a):
    """The symmetric part of a square matrix, shifted along the identity to
    trace 1: indefinite, as a partial transpose may be."""
    m = 0.5 * (a + a.T)
    return m + (1.0 - np.trace(m)) / m.shape[0] * np.eye(m.shape[0])


@st.composite
def symmetric_matrices(draw, max_dim=24):
    dim = draw(st.integers(min_value=2, max_value=max_dim))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = np.random.default_rng(seed)
    return trace_one(rng.standard_normal((dim, dim)))


@given(symmetric_matrices())
@settings(max_examples=60, deadline=None)
def test_eigenvalues_match_trace_and_frobenius(matrix):
    spectrum = eigen_symmetric(DensityMatrix(matrix))
    lam = spectrum.eigenvalues
    assert np.sum(lam) == pytest.approx(np.trace(matrix), abs=1e-8)
    assert np.sum(lam**2) == pytest.approx(np.sum(matrix**2), abs=1e-8)


def test_eigenvalue_invariants_dim_256():
    rng = np.random.default_rng(42)
    matrix = trace_one(rng.standard_normal((256, 256)))
    lam = eigen_symmetric(DensityMatrix(matrix)).eigenvalues
    assert np.sum(lam) == pytest.approx(np.trace(matrix), abs=1e-8)
    assert np.sum(lam**2) == pytest.approx(np.sum(matrix**2), rel=1e-12)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=6),
       st.integers(min_value=2, max_value=6))
@settings(max_examples=40, deadline=None)
def test_entropy_additive_for_diagonal_factors(seed, dim_a, dim_b):
    rng = np.random.default_rng(seed)
    diag_a = rng.random(dim_a) + 0.05
    diag_b = rng.random(dim_b) + 0.05
    diag_a /= diag_a.sum()
    diag_b /= diag_b.sum()
    joint = DensityMatrix(np.diag(np.kron(diag_a, diag_b)))
    s_joint = von_neumann_entropy(joint)
    s_parts = von_neumann_entropy(DensityMatrix(np.diag(diag_a))) + \
        von_neumann_entropy(DensityMatrix(np.diag(diag_b)))
    assert s_joint == pytest.approx(s_parts, abs=1e-8)


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_partial_transpose_preserves_trace_and_hermiticity(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 8)
    out = partial_transpose(DensityMatrix(rho), (2, 4)).elements
    assert abs(np.trace(out) - 1.0) <= 1e-14
    assert np.abs(out - out.T).max() <= 1e-14


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=2, max_value=4),
       st.integers(min_value=2, max_value=4))
@settings(max_examples=40, deadline=None)
def test_negativity_vanishes_on_product_states(seed, dim_a, dim_b):
    rng = np.random.default_rng(seed)
    rho = np.kron(random_density(rng, dim_a), random_density(rng, dim_b))
    assert negativity(DensityMatrix(rho), (dim_a, dim_b)) <= 1e-10


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_partial_trace_commutes_with_mixing(seed, p):
    rng = np.random.default_rng(seed)
    rho_1 = random_density(rng, 8)
    rho_2 = random_density(rng, 8)
    mixed = DensityMatrix(p * rho_1 + (1.0 - p) * rho_2)
    direct = reduce_to_party(mixed, (2, 4), "A").elements
    parts = p * reduce_to_party(DensityMatrix(rho_1), (2, 4), "A").elements \
        + (1.0 - p) * reduce_to_party(DensityMatrix(rho_2), (2, 4), "A").elements
    assert np.abs(direct - parts).max() <= 1e-12


# -- one path from a LAPACK failure to NoConvergence ---------------------------

MODEL = OscillatorModel(alpha=6)
MIXED = DensityMatrix(np.eye(2) / 2)
ONE_MAP = ["gauss-one-restricted", "--alpha", "6", "--centers", "-1", "1", "3",
           "--widths", "1"]
BOTH_CELL = ["gauss-both-restricted", "--alpha", "6", "--width", "1",
             "--qbar-a", "0", "--qbar-b", "0"]


def _fit_argv(tmp_path):
    surface = tmp_path / "map.csv"
    assert run(["gauss-classical-map", "--alpha", "6", "--width", "0.5",
                "--centers", "-2", "2", "9", "--output", str(surface)]) == 0
    return ["gauss-fit", "--input", str(surface)]


# (owner, solver, cached rule to clear, library call, frame of the call site,
#  CLI argv that reaches the site or None): every LAPACK call of the package
LAPACK_SITES = {
    "eigen_symmetric-eigh": (
        np.linalg, "eigh", None, lambda: eigen_symmetric(MIXED, vectors=True),
        "eigen_symmetric", None),
    "eigen_symmetric-eigvalsh": (
        np.linalg, "eigvalsh", None, lambda: von_neumann_entropy(MIXED),
        "eigen_symmetric",
        lambda tmp: ["gauss-one-restricted", "--alpha", "6", "--qbar", "0", "--width", "1"]),
    "schmidt_weights-eigvalsh": (
        np.linalg, "eigvalsh", None,
        lambda: both_restricted_entropy(MODEL, Region(0.0, 1.0), Region(0.5, 1.0)),
        "_schmidt_weights", lambda tmp: BOTH_CELL),
    "low_rank_factor-eigh": (
        np.linalg, "eigh", None, lambda: one_party_map(MODEL, [0.0, 1.0], [1.0]),
        "_low_rank_factor", lambda tmp: ONE_MAP),
    "single_kernel-eigvalsh": (
        np.linalg, "eigvalsh", None, lambda: non_discarding_entanglement(MODEL, Region(0.5, 1.0)),
        "_normalized_eigvalsh",
        lambda tmp: ["gauss-one-restricted", "--alpha", "6", "--qbar", "0", "--width", "1",
                     "--method", "basis"]),
    "precise_readout-eigvalsh": (
        np.linalg, "eigvalsh", None,
        lambda: precise_measurement_entanglement(MODEL, Region(0.0, 1.0)),
        "precise_measurement_entanglement", None),
    "factored_weights-eigvalsh": (
        np.linalg, "eigvalsh", None, lambda: one_party_map(MODEL, [0.0, 1.0], [1.0]),
        "_factored_weights", lambda tmp: ONE_MAP),
    "grid_rule-eigh": (
        np.linalg, "eigh", quadrature._grid_rule,
        lambda: one_party_map(MODEL, [0.0, 1.0], [1.0]), "_grid_rule", lambda tmp: ONE_MAP),
    "gauss_rule-eigh": (
        np.linalg, "eigh", quadrature._gauss_rule,
        lambda: integrate_1d(np.exp, 0.0, 1.0), "_gauss_rule", lambda tmp: BOTH_CELL),
    "fit_surface-lstsq": (
        np.linalg, "lstsq", None,
        lambda: fit_surface(probability_map(MODEL, np.linspace(-2.0, 2.0, 9),
                                            np.linspace(-2.0, 2.0, 9), 0.25)),
        "fit_surface", _fit_argv),
}


@pytest.mark.parametrize("site", LAPACK_SITES)
def test_lapack_failure_is_no_convergence(site, monkeypatch, capsys, tmp_path):
    owner, solver, rule, call, frame, cli_argv = LAPACK_SITES[site]
    argv = cli_argv(tmp_path) if cli_argv else None
    capsys.readouterr()

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("injected failure")

    call()  # build the Gauss rules it reads first: eigh, which some sites fail, builds them
    monkeypatch.setattr(owner, solver, fail)
    if rule is not None:
        rule.cache_clear()  # a failed solve caches nothing
    with pytest.raises(NoConvergence, match="injected failure") as info:
        call()
    assert frame in [entry.name for entry in info.traceback]
    if argv is None:  # no subcommand reaches the site
        return
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.splitlines()) == 1
    assert json.loads(err) == {"error": "NoConvergence", "message": "injected failure"}


def test_only_linalg_names_linalg_error():
    # lapack is the one place where numpy's LinAlgError becomes NoConvergence;
    # a solver call elsewhere must go through it, and the CLI catches no numpy error
    package = Path(entloc.__file__).parent
    for path in package.glob("*.py"):
        text = path.read_text()
        if path.name == "linalg.py":
            assert text.count("except np.linalg.LinAlgError") == 1
        else:
            assert "LinAlgError" not in text, path.name
    for node in ast.walk(ast.parse((package / "cli.py").read_text())):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = ast.unparse(node.type)
            assert "np." not in caught and "numpy" not in caught, caught
