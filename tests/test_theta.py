"""Theta series, the bell-shaped kernel, and number-state coefficient tables."""

import math

import numpy as np
import pytest

mpmath = pytest.importorskip("mpmath")

from qps.lattice import half_width, labels, dft_matrix
from qps.theta import (
    theta,
    phase_phi,
    kernel_value,
    kernel_table,
    smoothing_1d,
    fock_coefficients,
    gamma_table,
)


@pytest.mark.parametrize("kind", [2, 3, 4])
@pytest.mark.parametrize("z", [0.0, 0.3, -1.1, 2.7])
@pytest.mark.parametrize("a", [0.1, 0.5, 1.0 / 6])
def test_theta_against_mpmath(kind, z, a):
    q = mpmath.exp(-mpmath.pi * a)
    ref = float(mpmath.jtheta(kind, z, q))
    assert abs(theta(kind, z, a) - ref) < 1e-12 * max(1.0, abs(ref))


def test_theta_rejects_bad_arguments():
    with pytest.raises(ValueError):
        theta(1, 0.0, 0.5)
    with pytest.raises(ValueError):
        theta(3, 0.0, -1.0)
    with pytest.raises(ValueError):
        theta(3, 0.0, 0.5, tol=0.0)


def test_phase_phi_tracks_displacement_wraparound():
    from qps.lattice import center_mod
    from qps.schwinger import s_op

    for N in (3, 5, 7):
        for eta in range(-2 * N, 2 * N + 1):
            for xi in range(-2 * N, 2 * N + 1):
                S = s_op(eta, xi, N)
                S0 = s_op(center_mod(eta, N), center_mod(xi, N), N)
                sign = (-1) ** phase_phi(eta, xi, N)
                assert np.abs(S - sign * S0).max() < 1e-12
        for eta in labels(N):
            for xi in labels(N):
                assert phase_phi(int(eta), int(xi), N) == 0


@pytest.mark.parametrize("N", [3, 5, 7, 9])
def test_kernel_table_normalized_positive_symmetric(N):
    K = kernel_table(N)
    ell = half_width(N)
    assert abs(K[ell, ell] - 1.0) < 1e-12
    assert np.all(K > 0)
    assert np.abs(K - K.T).max() < 1e-12  # label exchange
    assert np.abs(K - K[::-1, ::-1]).max() < 1e-12  # parity


def test_kernel_value_quasi_periodic_sign():
    # shifting one label by N flips the sign iff the other label is odd
    for N in (3, 5, 7):
        for eta in (0, 1, 2):
            for xi in (0, 1, 2):
                base = kernel_value(eta, xi, N)
                sign = (-1) ** xi
                assert abs(kernel_value(eta + N, xi, N) - sign * base) < 1e-12
                assert abs(kernel_value(eta - N, xi, N) - sign * base) < 1e-12


def test_smoothing_1d_positive_and_normalized():
    # the 1-D weights preserve the marginal sum, so they resolve to unity
    for N in (3, 5, 7):
        vals = [smoothing_1d(chi, N) for chi in range(-half_width(N), half_width(N) + 1)]
        assert all(v > 0 for v in vals)
        assert abs(sum(vals) - 1.0) < 1e-12


@pytest.mark.parametrize("N", [3, 5, 7])
def test_fock_coefficients_norm_and_dft_eigenstructure(N):
    F = fock_coefficients(N)
    norms = np.linalg.norm(F, axis=0)
    assert np.abs(norms - 1.0).max() < 1e-12
    D = dft_matrix(N)
    for n in range(N):
        # number states are discrete-Fourier eigenvectors, eigenvalue i^n
        assert np.abs(D @ F[:, n] - (1j) ** n * F[:, n]).max() < 1e-10


def test_fock_gram_structure():
    # overlaps vanish unless n - m = 0 mod 4 (Fourier eigenvalue classes);
    # the surviving off-diagonal overlaps are an intrinsic finite-N residual
    for N, residual in ((3, 0.0), (5, 0.0558145572), (7, 0.1521703367)):
        F = fock_coefficients(N)
        G = F.conj().T @ F
        for m in range(N):
            for n in range(N):
                if (m - n) % 4 != 0:
                    assert abs(G[m, n]) < 1e-12
        off = np.abs(G - np.eye(N)).max()
        assert abs(off - residual) < 1e-6


@pytest.mark.parametrize("N", [251, 1001])
def test_number_states_below_half_the_dimension_are_orthonormal(N):
    # a winding sum cut at |x| <= sqrt(32 ln 10) missed every column past
    # n = 36, whose turning point lies beyond it: 0.78 at N = 251, 0.95 at 1001
    F = fock_coefficients(N)[:, : N // 2]
    assert np.abs(F.conj().T @ F - np.eye(N // 2)).max() <= 1e-13


@pytest.mark.parametrize("N", [3, 5, 7])
def test_gamma_table_center_and_hermiticity(N):
    G = gamma_table(N)
    ell = half_width(N)
    F = fock_coefficients(N)
    gram = F.conj().T @ F
    # the (0,0) slice reproduces the number-state overlaps
    assert np.abs(G[:, :, ell, ell] - gram).max() < 1e-10
    # the diagonal slice at the origin is real
    for m in range(N):
        assert abs(G[m, m, ell, ell] - 1.0) < 1e-10
