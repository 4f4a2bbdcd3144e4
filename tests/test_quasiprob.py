"""s-parametrized functions, state constructors, and the smoothing hierarchy."""

import numpy as np
import pytest

from qps.lattice import half_width, labels, center_mod
from qps.theta import kernel_table
from qps.quasiprob import (
    FormalismViolation,
    validate_density,
    maximally_mixed,
    fock_state,
    fock_projector,
    coherent_projector,
    coherent_state,
    random_density,
    char_fn,
    phase_fn,
    smooth_p_to_w,
    smooth_w_to_h,
    smooth_p_to_h,
    expectation,
    t_matrix_element,
    reconstruct_rho,
)
from qps.tomography import mod_inverse
from loop_oracles import phase_fn_direct

DIMS = (3, 5, 7)


def state_families(N, rng):
    yield maximally_mixed(N)
    yield fock_projector(0, N)
    yield fock_projector(1, N)
    yield coherent_projector(1, -1, N)
    yield random_density(N, rng)


def test_validate_density_rejections():
    # 3 x 3, so that each case fails for its own reason, not for an even size
    with pytest.raises(ValueError, match="^validate_density takes square matrices"):
        validate_density(np.ones((2, 3)))
    with pytest.raises(ValueError, match="^validate_density density matrix must be Hermitian"):
        validate_density(np.array([[0.5, 0.1j, 0], [0.1j, 0.5, 0], [0, 0, 0]]))
    with pytest.raises(ValueError, match="^validate_density density matrix must have trace 1"):
        validate_density(np.eye(3))
    with pytest.raises(ValueError, match="^validate_density density matrix eigenvalues must be >= "):
        validate_density(np.diag([1.5, -0.5, 0]))


@pytest.mark.parametrize("N", DIMS)
def test_fock_and_coherent_states_are_valid(N):
    for n in range(N):
        psi = fock_state(n, N)
        assert abs(np.linalg.norm(psi) - 1) < 1e-12
    with pytest.raises(ValueError):
        fock_state(N, N)
    P = coherent_projector(1, 1, N)
    w = np.linalg.eigvalsh(P)
    assert abs(w[-1] - 1) < 1e-8 and np.abs(w[:-1]).max() < 1e-8
    psi = coherent_state(1, 1, N)
    assert np.abs(np.outer(psi, psi.conj()) - P).max() < 1e-8


def test_vacuum_coincides_with_central_coherent_state():
    for N in DIMS:
        psi0 = fock_state(0, N)
        P = coherent_projector(0, 0, N)
        overlap = abs(psi0.conj() @ P @ psi0)
        assert abs(overlap - 1.0) < 1e-10


def test_coherent_state_at_dimension_one():
    # every label pair reduces to (0, 0), and the displaced vacuum is [1]
    for mu, nu in [(0, 0), (3, -4)]:
        assert np.array_equal(coherent_state(mu, nu, 1), [1])
        assert np.array_equal(coherent_projector(mu, nu, 1), [[1]])


@pytest.mark.parametrize("N", DIMS)
@pytest.mark.parametrize("s", (-1, 0, 1, 0.5j))
def test_phase_fn_dual_paths_agree(N, s):
    rng = np.random.default_rng(21)
    rho = random_density(N, rng)
    F1 = phase_fn(rho, s).grid
    F2 = phase_fn_direct(rho, s).grid
    assert np.abs(F1 - F2).max() < 1e-10


def test_char_fn_origin_and_norm():
    N = 5
    rng = np.random.default_rng(22)
    rho = random_density(N, rng)
    for s in (-1, 0, 1):
        Xi = char_fn(rho, s).grid
        ell = half_width(N)
        assert abs(Xi[ell, ell] - 1 / np.sqrt(N)) < 1e-12
        # mean of the phase-space function is the trace
        F = phase_fn(rho, s).grid
        assert abs(F.sum() / N - 1.0) < 1e-10


@pytest.mark.parametrize("N", DIMS)
def test_smoothing_hierarchy_chain(N):
    rng = np.random.default_rng(23)
    for rho in state_families(N, rng):
        P = phase_fn(rho, 1)
        W = phase_fn(rho, 0)
        H = phase_fn(rho, -1)
        assert np.abs(smooth_p_to_w(P).grid - W.grid).max() < 1e-10
        assert np.abs(smooth_w_to_h(W).grid - H.grid).max() < 1e-10
        assert np.abs(smooth_p_to_h(P).grid - H.grid).max() < 1e-10
        two_step = smooth_w_to_h(smooth_p_to_w(P))
        assert np.abs(smooth_p_to_h(P).grid - two_step.grid).max() < 1e-10


def test_smoothing_requires_matching_order():
    N = 3
    W = phase_fn(maximally_mixed(N), 0)
    with pytest.raises(ValueError):
        smooth_p_to_w(W)
    with pytest.raises(ValueError):
        smooth_p_to_h(W)


def test_husimi_nonnegative_and_glauber_sum():
    N = 5
    rng = np.random.default_rng(24)
    rho = random_density(N, rng)
    H = phase_fn(rho, -1).grid
    assert H.real.min() > -1e-10
    assert np.abs(H.imag).max() < 1e-10


def test_grids_past_the_range_of_a_double():
    # at N = 1001 max K^(-1) = exp(784) overflows: the Glauber grid raises, while
    # the Wigner grid and the Husimi grid, with K's corners underflowing to 0, stay exact
    N = 1001
    rho = random_density(N, np.random.default_rng(1001))
    with pytest.raises(OverflowError, match="N=1001"):
        phase_fn(rho, 1)
    W = phase_fn(rho, 0).grid
    assert abs(W.sum() - N) <= 1e-12
    H = phase_fn(rho, -1).grid
    assert np.all(np.isfinite(H)) and H.real.min() >= 0
    assert np.abs(H.imag).max() < 1e-15


def test_coherent_overlaps_match_kernel():
    for N in DIMS:
        ell = half_width(N)
        K = kernel_table(N)
        for mu, nu in [(0, 0), (1, -1), (2, 0)]:
            a = coherent_state(mu, nu, N)
            for mup, nup in [(0, 0), (1, 1), (-1, 2)]:
                b = coherent_state(mup, nup, N)
                lhs = abs(a.conj() @ b) ** 2
                rhs = (
                    K[center_mod(mu - mup, N) + ell, center_mod(nu - nup, N) + ell]
                    ** 2
                )
                assert abs(lhs - rhs) < 1e-8


@pytest.mark.parametrize("s", (-1, 0, 1, 0.5))
def test_expectation_matches_trace(s):
    N = 5
    rng = np.random.default_rng(25)
    rho = random_density(N, rng)
    O = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    direct = np.trace(O @ rho)
    assert abs(expectation(O, rho, s) - direct) < 1e-10


def test_expectation_rejects_operands_of_different_size():
    # numpy's broadcast error named neither the function nor the mismatch
    with pytest.raises(ValueError, match=r"^expectation takes operands of one size N, got \(\(3, 3\), \(5, 5\)\)$"):
        expectation(np.eye(3), np.eye(5) / 5, 0)


def test_t_matrix_element_matches_kernel():
    N = 5
    from qps.schwinger import t_op
    from qps.theta import fock_coefficients

    F = fock_coefficients(N)
    for s in (0, -1, 0.5):
        for m, n in [(0, 0), (1, 2), (3, 0)]:
            for mu, nu in [(0, 0), (1, -2)]:
                direct = F[:, m].conj() @ t_op(mu, nu, s, N) @ F[:, n]
                val = t_matrix_element(m, n, mu, nu, s, N)
                assert abs(val - direct) < 1e-10
    with pytest.raises(ValueError):
        t_matrix_element(0, N, 0, 0, 0, N)


def test_number_basis_indices_are_checked_like_labels():
    # 1.5 and 2.0 raised numpy's untyped IndexError, "1" a TypeError, index 7 of
    # t_matrix_element an IndexError, and mod_inverse(1.5, 5) returned 1
    N = 5
    for call, name in [
        (lambda: fock_state(1.5, N), "fock_state"),
        (lambda: fock_projector("1", N), "fock_projector"),
        (lambda: t_matrix_element(1.5, 0, 0, 0, 0, N), "t_matrix_element"),
        (lambda: t_matrix_element(0, np.nan, 0, 0, 0, N), "t_matrix_element"),
        (lambda: mod_inverse(1.5, N), "mod_inverse"),
    ]:
        with pytest.raises(ValueError, match=f"^{name} label must be an integer"):
            call()
    for call, name in [(lambda: fock_state(-1, N), "fock_state"), (lambda: fock_state(5.0, N), "fock_state"),
                       (lambda: t_matrix_element(7, 0, 0, 0, 0, N), "t_matrix_element"),
                       (lambda: t_matrix_element(0, -1, 0, 0, 0, N), "t_matrix_element")]:
        with pytest.raises(ValueError, match=rf"^{name} number-state index must lie in 0\.\.4"):
            call()
    # integer-valued floats pass, as labels do
    assert np.array_equal(fock_state(2.0, N), fock_state(2, N))
    assert t_matrix_element(2.0, np.int64(1), 0, 0, 0, N) == t_matrix_element(2, 1, 0, 0, 0, N)
    assert mod_inverse(2.0, N) == mod_inverse(2, N) == -2


@pytest.mark.parametrize("N", DIMS)
@pytest.mark.parametrize("s", (-1, 0, 1, 0.5j))
def test_reconstruct_rho_roundtrip(N, s):
    rng = np.random.default_rng(26)
    rho = random_density(N, rng)
    F = phase_fn(rho, s)
    assert np.abs(reconstruct_rho(F) - rho).max() < 1e-9


def test_reconstruct_rho_flags_bad_trace():
    from qps.quasiprob import PhaseSpaceFunction

    N = 3
    F = PhaseSpaceFunction(0, np.zeros((N, N)))
    with pytest.raises(FormalismViolation):
        reconstruct_rho(F)
