"""The references reproduce closed-form landmarks and agree with mpmath.

Run with `python3 -m pytest bench/tests`.
"""

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402

QUARTER = math.pi / 4.0


def test_eof_landmarks():
    assert abs(ref.eof(6.0) - 0.702) <= 1e-3
    assert abs(ref.eof(0.06) - 0.00859) / 0.00859 <= 0.05
    assert ref.eof(0.0) == 0.0


def test_spin_landmarks():
    assert ref.spin_entropy(QUARTER, QUARTER) == pytest.approx(2.0, abs=1e-12)
    assert ref.spin_restricted_entropy(QUARTER, QUARTER) == pytest.approx(1.0, abs=1e-12)
    assert ref.vanish_point(QUARTER, QUARTER) == pytest.approx(0.25, abs=1e-12)
    assert ref.spin_negativity(QUARTER, QUARTER, 0.25) == pytest.approx(0.0, abs=1e-15)
    assert np.isnan(ref.spin_restricted_entropy(0.0, 0.0))


def _dense_spin_state(t1, t2, f, restricted):
    """16x16 density matrix built from the state vector, index 8 a1 + 4 a2 + 2 b1 + b2."""
    psi = np.zeros(16)
    for x, c1 in ((0, math.cos(t1)), (1, math.sin(t1))):
        for y, c2 in ((0, math.cos(t2)), (1, math.sin(t2))):
            psi[8 * x + 4 * y + 2 * x + y] = c1 * c2
    rho = (16 * f - 1) / 15 * np.outer(psi, psi) + (1 - f) / 15 * np.eye(16)
    if restricted:
        bits = np.array([[(i >> k) & 1 for k in (3, 2, 1, 0)] for i in range(16)])
        keep = ((bits[:, 0] != bits[:, 1]) & (bits[:, 2] != bits[:, 3])).astype(float)
        rho = rho * np.outer(keep, keep)
    trace = np.trace(rho)
    return rho / trace, trace


def _dense_negativity(rho):
    pt = rho.reshape(4, 4, 4, 4).transpose(0, 3, 2, 1).reshape(16, 16)
    lam = np.linalg.eigvalsh(pt)
    return -lam[lam < 0].sum()


@pytest.mark.parametrize("t1,t2,f", [(0.3, 1.1, 0.65), (QUARTER, 0.2, 0.9), (2.0, 4.4, 0.3),
                                     (0.7, 0.7, 1.0)])
def test_spin_closed_forms_match_dense_matrices(t1, t2, f):
    rho, _ = _dense_spin_state(t1, t2, f, restricted=False)
    assert ref.spin_negativity(t1, t2, f) == pytest.approx(_dense_negativity(rho), abs=1e-12)
    rho_d, trace = _dense_spin_state(t1, t2, f, restricted=True)
    value, want_trace = ref.spin_restricted_negativity(t1, t2, f)
    assert value == pytest.approx(_dense_negativity(rho_d), abs=1e-12)
    assert want_trace == pytest.approx(trace, abs=1e-12)
    pure, _ = _dense_spin_state(t1, t2, 1.0, restricted=True)
    reduced = np.trace(pure.reshape(4, 4, 4, 4), axis1=1, axis2=3)
    lam = np.linalg.eigvalsh(reduced)
    lam = lam[lam > 1e-15]
    assert ref.spin_restricted_entropy(t1, t2) == pytest.approx(-(lam * np.log2(lam)).sum(),
                                                                abs=1e-12)


def test_classical_widths_row():
    widths = ref.classical_widths(6.0)
    row = [widths[k] for k in ("sigma_plus", "sigma_minus", "sigma_1", "sigma_2", "sigma_12")]
    assert [round(v, 3) for v in row] == [1.414, 0.632, 0.866, 0.577, 0.500]


def test_fit_recovers_exact_gaussian():
    c = np.linspace(-4, 4, 41)
    x, y = np.meshgrid(c, c, indexing="ij")
    surface = 0.3 * np.exp(-(x + y) ** 2 / (2 * 3.0 ** 2) - (x - y) ** 2 / (2 * 1.2 ** 2))
    got = ref.fit_widths(x, y, surface, "symmetric")
    assert got["sigma_plus"] == pytest.approx(3.0, rel=1e-9)
    assert got["sigma_minus"] == pytest.approx(1.2, rel=1e-9)


# -- mpmath cross-checks ----------------------------------------------------------

mp.mp.dps = 30


def _mp_nodes(n, lo, hi):
    x, w = mp.gauss_quadrature(n, "legendre")
    half, mid = (mp.mpf(hi) - mp.mpf(lo)) / 2, (mp.mpf(hi) + mp.mpf(lo)) / 2
    return [half * xi + mid for xi in x], [half * wi for wi in w]


def _mp_entropy(matrix):
    lam = mp.eigsy(matrix, eigvals_only=True)
    lam = [max(v, mp.mpf(0)) for v in lam]
    total = mp.fsum(lam)
    return float(-mp.fsum(v / total * mp.log(v / total, 2) for v in lam if v > 0))


def _mp_one(alpha, lo, hi, n=28):
    s = mp.sqrt(1 + 4 * mp.mpf(alpha))
    c2 = (s - 1) ** 2 / (16 * (1 + s))
    c1 = (1 + s) / 8 - c2
    x, w = _mp_nodes(n, lo, hi)
    m = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            m[i, j] = mp.sqrt(w[i] * w[j]) * mp.exp(-c1 * (x[i] ** 2 + x[j] ** 2)
                                                    + 2 * c2 * x[i] * x[j])
    return _mp_entropy(m)


def _mp_both(alpha, a, b, n=24):
    s = mp.sqrt(1 + 4 * mp.mpf(alpha))
    xa, wa = _mp_nodes(n, *a)
    xb, wb = _mp_nodes(n, *b)
    psi = mp.matrix(n, n)
    for i in range(n):
        for j in range(n):
            psi[i, j] = mp.sqrt(wa[i] * wb[j]) * mp.exp(-(xa[i] + xb[j]) ** 2 / 8
                                                        - s * (xa[i] - xb[j]) ** 2 / 8)
    return _mp_entropy(psi * psi.T)


@pytest.mark.parametrize("alpha,lo,hi", [(6.0, -0.25, 0.25), (6.0, 1.0, 3.0), (0.06, -3.5, -2.5)])
def test_one_party_nystrom_agrees_with_mpmath(alpha, lo, hi):
    got = float(ref.one_restricted_entropy(alpha, [(np.array(lo), np.array(hi))]))
    assert got == pytest.approx(_mp_one(alpha, lo, hi), abs=1e-10)


@pytest.mark.parametrize("a,b", [((-0.25, 0.25), (-0.25, 0.25)), ((-3.25, -2.75), (1.75, 2.25))])
def test_two_party_nystrom_agrees_with_mpmath(a, b):
    got = float(ref.both_restricted_entropy(6.0, *a, *b))
    assert got == pytest.approx(_mp_both(6.0, a, b), abs=1e-10)


def test_masses_agree_with_mpmath():
    alpha = 6.0
    with mp.workdps(40):
        s = mp.sqrt(1 + 4 * mp.mpf(alpha))
        joint = lambda x, y: mp.exp(-(x + y) ** 2 / 4 - s * (x - y) ** 2 / 4)  # noqa: E731
        norm = mp.quad(joint, [-12, 12], [-12, 12])
        cells = (((-0.25, 0.25), (-0.25, 0.25)), ((-4, -2), (0, 2)),
                 ((3.75, 4.25), (-4.25, -3.75)))
        for a, b in cells:
            want = float(mp.quad(joint, a, b) / norm)
            assert float(ref.joint_mass(alpha, *a, *b)) == pytest.approx(want, rel=1e-9)
            marginal = mp.quad(lambda x: mp.quad(lambda y: joint(x, y), [-12, 12]), a) / norm
            assert float(ref.marginal_mass(alpha, *a)) == pytest.approx(float(marginal), rel=1e-9)


def test_nystrom_converged_on_widest_cells():
    """Doubling the nodes moves no reference entropy used by the checks."""
    for alpha in (6.0, 0.06, 8.0):
        lo, hi = np.array([-5.0, -1.0]), np.array([5.0, 9.0])
        one = ref.one_restricted_entropy(alpha, [(lo, hi)])
        assert np.allclose(one, ref.one_restricted_entropy(alpha, [(lo, hi)], n=128), atol=1e-11)
        half = 8.0 * math.sqrt(2.0)
        union = [(np.array(-half), np.array(-1.0)), (np.array(1.0), np.array(half))]
        assert float(ref.one_restricted_entropy(alpha, union)) == pytest.approx(
            float(ref.one_restricted_entropy(alpha, union, n=128)), abs=1e-11)
        c = np.array([-6.0, 0.0, 2.0])
        both = ref.both_restricted_entropy(alpha, c - 2, c + 2, -c - 2, -c + 2)
        assert np.allclose(both, ref.both_restricted_entropy(alpha, c - 2, c + 2, -c - 2,
                                                             -c + 2, n=96), atol=1e-11)
