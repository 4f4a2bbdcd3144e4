"""Bell states, bipartite phase-space tables, and the teleportation protocol."""

import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qps.lattice import half_width, labels, center_mod, tensor
from qps.theta import kernel_table
from qps.schwinger import u_matrix, v_matrix, s_op, t_op, t_family
from qps.quasiprob import random_density, maximally_mixed, phase_fn
import loop_oracles as oracle
from loop_oracles import phase_fn_direct
from qps.teleport import (
    BellLabel,
    bell_state,
    bell_projector,
    bipartite_phase_fn,
    upsilon_coeffs,
    theta_coeffs,
    teleport,
    lambda_coeffs,
    teleport_via_coeffs,
)

N = 3
ELL = half_width(N)


def all_bell_labels(n=N):
    return [BellLabel(int(a), int(b)) for a in labels(n) for b in labels(n)]


def test_bell_states_orthonormal_and_complete():
    vecs = [bell_state(w, N) for w in all_bell_labels()]
    V = np.array(vecs)
    assert np.abs(V.conj() @ V.T - np.eye(N * N)).max() < 1e-12
    P = sum(np.outer(v, v.conj()) for v in vecs)
    assert np.abs(P - np.eye(N * N)).max() < 1e-12


def test_bell_eigenrelations():
    U, V = u_matrix(N), v_matrix(N)
    Uplus = tensor(U, U)
    Vminus = tensor(V, np.linalg.inv(V))
    for w in all_bell_labels():
        psi = bell_state(w, N)
        assert np.abs(Uplus @ psi - np.exp(-2j * np.pi * w.omega1 / N) * psi).max() < 1e-12
        assert np.abs(Vminus @ psi - np.exp(2j * np.pi * w.omega2 / N) * psi).max() < 1e-12


def test_bipartite_wigner_is_double_delta():
    for w in all_bell_labels():
        grid = bipartite_phase_fn(bell_state(w, N), 0, 0).grid
        for m1, n1, m2, n2 in itertools.product(labels(N), repeat=4):
            expect = float(
                center_mod(w.omega1 + m1 + m2, N) == 0
                and center_mod(w.omega2 - (n1 - n2), N) == 0
            )
            assert abs(grid[m1 + ELL, n1 + ELL, m2 + ELL, n2 + ELL] - expect) < 1e-10


def test_bipartite_husimi_is_kernel_squared():
    K = kernel_table(N)
    for w in all_bell_labels():
        grid = bipartite_phase_fn(bell_state(w, N), -1, -1).grid
        for m1, n1, m2, n2 in itertools.product(labels(N), repeat=4):
            ref = (
                K[
                    center_mod(m1 + m2 + w.omega1, N) + ELL,
                    center_mod(n1 - n2 - w.omega2, N) + ELL,
                ]
                ** 2
                / N
            )
            assert abs(grid[m1 + ELL, n1 + ELL, m2 + ELL, n2 + ELL] - ref) < 1e-9


def test_bell_closed_forms_on_a_961_dimensional_state():
    # the two-mode table of a Bell state at N = 31 in one gather and six products
    N, w = 31, BellLabel(4, -9)
    m1, n1, m2, n2 = np.ix_(*[labels(N)] * 4)
    a, b = center_mod(m1 + m2 + w.omega1, N), center_mod(n1 - n2 - w.omega2, N)
    assert (psi := bell_state(w, N)).shape == (961,)
    assert np.abs(bipartite_phase_fn(psi, 0, 0).grid - ((a == 0) & (b == 0))).max() < 1e-12
    assert np.abs(bipartite_phase_fn(psi, -1, -1).grid - kernel_table(N)[a + N // 2, b + N // 2] ** 2 / N).max() < 1e-12


def test_bipartite_phase_fn_factorizes_and_normalizes():
    rng = np.random.default_rng(41)
    ra, rb = random_density(N, rng), random_density(N, rng)
    grid = bipartite_phase_fn(tensor(ra, rb), 0, -1).grid
    fa = phase_fn_direct(ra, 0).grid
    fb = phase_fn_direct(rb, -1).grid
    assert np.abs(grid - np.einsum("ab,cd->abcd", fa, fb)).max() < 1e-10
    assert abs(grid.sum() / N**2 - 1.0) < 1e-10


@settings(max_examples=30, deadline=None)
@example(n=1, seed=0, pure=True, layout="C", orders=(0, 0))
@example(n=9, seed=1, pure=False, layout="transposed", orders=(1, -1))
@example(n=15, seed=2, pure=False, layout="F", orders=(0.3 - 0.2j, 0))
@given(n=st.sampled_from((1, 3, 5, 7, 9, 11, 13, 15)), seed=st.integers(0, 2**32 - 1), pure=st.booleans(),
       layout=st.sampled_from(("C", "transposed", "reversed", "F")),
       orders=st.tuples(*[st.sampled_from((1, 0, -1, 0.5, 0.3 - 0.2j))] * 2))
def test_two_mode_take_equals_the_fancy_index_route(n, seed, pure, layout, orders):
    # the two-mode diagonals as one flat take of positions built from
    # lattice._diagonals (lattice._traces2), against the four-array fancy index
    # it replaced, bit for bit
    rng = np.random.default_rng(seed)
    if pure:
        state = rng.normal(size=n * n) + 1j * rng.normal(size=n * n)
    else:
        state = oracle.laid_out(random_density(n * n, rng), layout)
    grid = bipartite_phase_fn(state, *orders).grid
    ref = oracle.bipartite_phase_fn(state, *orders)
    assert grid.shape == ref.shape and grid.tobytes() == ref.tobytes()


@pytest.mark.parametrize("shape", [(2, 9, 9), (9, 3), (3, 9), (1, 1, 1), ()])
def test_bipartite_phase_fn_rejects_non_square_and_stacked_operators(shape):
    # a stack used to be read as an operator of dimension shape[0], and a
    # non-square matrix failed inside numpy's reshape
    with pytest.raises(ValueError, match=r"^bipartite_phase_fn takes (square matrices of odd size N|one N x N matrix), got " + re.escape(str(shape)) + "$"):
        bipartite_phase_fn(np.zeros(shape, dtype=complex), 0, 0)


@pytest.mark.parametrize("D", [2, 5, 8, 10])
def test_bipartite_phase_fn_rejects_non_square_dimension(D):
    # an even D fails first on its size, as every operand of even N does
    rule = f"operator dimension must be a perfect square N^2, got {D}" if D % 2 else f"takes square matrices of odd size N, got {(D, D)}"
    with pytest.raises(ValueError, match=re.escape(f"bipartite_phase_fn {rule}")):
        bipartite_phase_fn(np.eye(D) / D, 0, 0)
    with pytest.raises(ValueError, match=re.escape(f"bipartite_phase_fn {rule}")):
        bipartite_phase_fn(np.ones(D) / np.sqrt(D), 0, 0)


def test_teleport_rejects_even_dimension_under_its_own_name():
    rho = np.eye(4) / 4
    with pytest.raises(ValueError, match=r"^teleport takes square matrices of odd size N, got \(4, 4\)$"):
        teleport(rho, 0, 0)
    with pytest.raises(ValueError, match=r"^teleport_via_coeffs takes square matrices of odd size N, got \(4, 4\)$"):
        teleport_via_coeffs(rho, 0, 0, 0, 0)


def test_upsilon_expansion_reconstructs_bell_dyad():
    wa, wb = BellLabel(0, 1), BellLabel(1, 0)
    for s1, s2 in [(0, 0), (0.5, -0.5)]:
        Y = upsilon_coeffs(wa, wb, s1, s2, N)
        fam1, fam2 = t_family(s1, N), t_family(s2, N)
        rec = (
            np.einsum("abcd,abij,cdkl->ikjl", Y, fam1, fam2).reshape(N * N, N * N)
            / N**2
        )
        tgt = np.outer(bell_state(wa, N), bell_state(wb, N).conj())
        assert np.abs(rec - tgt).max() < 1e-9


def test_theta_expansion_reconstructs_kernel_product():
    C = theta_coeffs(1, 0, -1, 1, 0, 0, N)
    rec = np.zeros((N * N, N * N), dtype=complex)
    for w1, w2, w1p, w2p in itertools.product(labels(N), repeat=4):
        rec += C[w1 + ELL, w2 + ELL, w1p + ELL, w2p + ELL] * np.outer(
            bell_state(BellLabel(w1, w2), N),
            bell_state(BellLabel(w1p, w2p), N).conj(),
        )
    tgt = tensor(t_op(1, 0, 0, N), t_op(-1, 1, 0, N))
    assert np.abs(rec - tgt).max() < 1e-9


def test_coefficient_conjugation_relation():
    s1, s2 = 0.5, -0.5
    wa, wb = BellLabel(0, 1), BellLabel(1, 0)
    Y = upsilon_coeffs(wa, wb, s1, s2, N)
    for m1, n1, m2, n2 in [(0, 0, 0, 0), (1, -1, 0, 1), (-1, 1, 1, 0)]:
        Th = theta_coeffs(m1, n1, m2, n2, -s1, -s2, N)
        lhs = Y[m1 + ELL, n1 + ELL, m2 + ELL, n2 + ELL]
        rhs = np.conj(Th[wa.omega1 + ELL, wa.omega2 + ELL, wb.omega1 + ELL, wb.omega2 + ELL])
        assert abs(lhs - rhs) < 1e-10


def test_coefficient_tables_at_dimension_seven():
    # N = 7 was past the old size cap on the tables
    n = 7
    Y = upsilon_coeffs(BellLabel(0, 0), BellLabel(0, 0), 0, 0, n)
    fam = t_family(0, n)
    rec = np.einsum("abcd,abij,cdkl->ikjl", Y, fam, fam).reshape(n * n, n * n) / n**2
    psi = bell_state(BellLabel(0, 0), n)
    assert np.abs(rec - np.outer(psi, psi.conj())).max() < 1e-9
    C = theta_coeffs(0, 0, 0, 0, 0, 0, n)
    B = np.stack([bell_state(w, n) for w in all_bell_labels(n)], axis=1)
    rec = B @ C.reshape(n * n, n * n) @ B.conj().T
    assert np.abs(rec - tensor(t_op(0, 0, 0, n), t_op(0, 0, 0, n))).max() < 1e-9


def test_teleport_uniform_probability_and_recovery():
    rng = np.random.default_rng(42)
    rho = random_density(N, rng, pure=True)
    total = 0.0
    for a in labels(N):
        for b in labels(N):
            rho3, p = teleport(rho, int(a), int(b))
            total += p
            assert abs(p - 1 / N**2) < 1e-12
    assert abs(total - 1.0) < 1e-10
    rho3, _ = teleport(rho, 0, 0)
    assert np.abs(rho3 - rho).max() < 1e-10


def test_teleport_shift_law_all_outcomes():
    rng = np.random.default_rng(43)
    rho = random_density(N, rng, pure=True)
    for a in labels(N):
        for b in labels(N):
            rho3, _ = teleport(rho, int(a), int(b))
            for s in (-1, 0, 1):
                F3 = phase_fn_direct(rho3, -s).grid
                F1 = phase_fn_direct(rho, -s).grid
                for mu in labels(N):
                    for nu in labels(N):
                        ref = F1[
                            center_mod(mu - a, N) + ELL, center_mod(nu + b, N) + ELL
                        ]
                        assert abs(F3[mu + ELL, nu + ELL] - ref) < 1e-9


def test_teleport_preserves_purity_and_mixedness():
    rng = np.random.default_rng(44)
    rho = random_density(N, rng)
    for a, b in [(0, 0), (1, -1), (-1, 1)]:
        rho3, _ = teleport(rho, a, b)
        assert abs(np.trace(rho3 @ rho3).real - np.trace(rho @ rho).real) < 1e-10
    mm3, _ = teleport(maximally_mixed(N), 1, 1)
    assert np.abs(mm3 - maximally_mixed(N)).max() < 1e-10


def test_teleport_commutes_with_displacement():
    rng = np.random.default_rng(45)
    rho = random_density(N, rng, pure=True)
    D = math.sqrt(N) * s_op(1, 1, N)
    r3, _ = teleport(rho, 1, -1)
    r3d, _ = teleport(D @ rho @ D.conj().T, 1, -1)
    assert np.abs(D @ r3 @ D.conj().T - r3d).max() < 1e-10


@settings(max_examples=40, deadline=None)
@example(n=3, seed=0, pure=True, alpha=1, beta=-1, s1=0j)
@example(n=45, seed=1, pure=False, alpha=-50, beta=7, s1=0.3 - 0.4j)
@given(n=st.integers(0, 22).map(lambda k: 2 * k + 1), seed=st.integers(0, 2**32 - 1), pure=st.booleans(),
       alpha=st.integers(-50, 50), beta=st.integers(-50, 50),
       s1=st.sampled_from((1 + 0j, 0j, -1 + 0j, 0.5j, 0.3 - 0.4j)))
def test_lambda_coeffs_collapse_to_a_shift_at_equal_orders(n, seed, pure, alpha, beta, s1):
    # at s3 = s1 the order-transfer kernel is the Kronecker comb (mu3, nu3) = (mu1 + alpha,
    # nu1 - beta), so the receiver coefficients are F1 moved by (alpha, -beta)
    F1 = phase_fn(random_density(n, np.random.default_rng(seed), pure=pure), -s1)
    out = lambda_coeffs(F1, alpha, beta, s1)
    assert np.abs(out - np.roll(F1.grid, (alpha, -beta), axis=(0, 1))).max() <= 1e-14 * np.abs(F1.grid).max()


@pytest.mark.parametrize("orders", [(0, -1), (0, 0), (1, -1), (0.5, -0.5)])
def test_coefficient_path_matches_projection_path(orders):
    s1, s3 = orders
    rng = np.random.default_rng(46)
    rho = random_density(N, rng)
    direct, _ = teleport(rho, 1, -1)
    via = teleport_via_coeffs(rho, 1, -1, s1, s3)
    assert np.abs(direct - via).max() < 1e-9


def test_teleport_at_dimension_nine():
    # N = 9 was past the old size cap on the protocol
    n = 9
    mm3, p = teleport(maximally_mixed(n), 0, 0)
    assert abs(p - 1 / n**2) < 1e-12
    assert np.abs(mm3 - maximally_mixed(n)).max() < 1e-12
    rho = random_density(n, np.random.default_rng(47), pure=True)
    W1 = phase_fn_direct(rho, 0).grid
    for a, b in [(0, 0), (2, -3), (-4, 4)]:
        rho3, p = teleport(rho, a, b)
        assert abs(p - 1 / n**2) < 1e-12
        W3 = phase_fn_direct(rho3, 0).grid
        assert np.abs(W3 - np.roll(W1, (a, -b), axis=(0, 1))).max() < 1e-9


@pytest.mark.parametrize("n", (17, 31, 61))
def test_teleport_shift_law_at_large_dimension(n):
    rho = random_density(n, np.random.default_rng(48), pure=True)
    a, b = 3, -(n // 3)
    rho3, p = teleport(rho, a, b)
    assert abs(p - 1 / n**2) < 1e-12
    W1, W3 = phase_fn(rho, 0).grid, phase_fn(rho3, 0).grid
    assert np.abs(W3 - np.roll(W1, (a, -b), axis=(0, 1))).max() < 1e-9
