"""Marginals, symplectic transformations, Radon inversion, and the circuit."""

import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import loop_oracles as oracle

from qps import tomography
from qps.lattice import half_width, labels, center_mod, dagger, tensor, _dft
from qps.theta import kernel_table
from qps.schwinger import s_op, t_op, decompose_schwinger, reconstruct_schwinger, decompose_t, reconstruct_t, depolarize
from qps.quasiprob import (
    PhaseSpaceFunction,
    CharacteristicFunction,
    expectation,
    maximally_mixed,
    fock_projector,
    coherent_projector,
    random_density,
    char_fn,
    phase_fn,
)
from qps.tomography import (
    MarginalDistribution,
    SymplecticParams,
    mod_inverse,
    marginal_q,
    marginal_r,
    smooth_marginal,
    symplectic_c,
    symplectic_n,
    symplectic_m,
    symplectic_j,
    radon_q,
    radon_r,
    char_from_radon_q,
    char_from_radon_r,
    sample_marginal,
    reconstruct_wigner,
    scattering_circuit,
)

# unit-determinant quadruples (over the integers) used throughout
QUADS = [(1, 0, 0, 1), (1, 1, 0, 1), (2, 1, 3, 2), (1, 0, 1, 1), (3, 1, 2, 1)]


def test_mod_inverse():
    assert mod_inverse(2, 5) == -2  # 2 * 3 = 6 = 1 mod 5, centered
    assert (mod_inverse(3, 7) * 3 - 1) % 7 == 0
    with pytest.raises(ValueError):
        mod_inverse(3, 9)


def test_symplectic_params_validation():
    with pytest.raises(ValueError):
        SymplecticParams(2, 1, 1, 3, 5)  # determinant 5 = 0 mod 5
    with pytest.raises(ValueError):
        SymplecticParams(1, 2, 2, 0, 5)  # zeta4 not invertible
    p = SymplecticParams(2, 1, 3, 2, 5)
    o1, o2, o3 = p.omegas
    N = 5
    assert (o1 * (1 + p.z2 * p.z3) - p.z4) % N == 0


def test_marginals_match_axis_sums_and_char_path():
    N = 5
    ell = half_width(N)
    rng = np.random.default_rng(31)
    rho = random_density(N, rng)
    for s in (0, -1, 1):
        F = phase_fn(rho, s)
        Q = marginal_q(F)
        R = marginal_r(F)
        assert np.abs(Q.values - F.grid.sum(axis=1) / math.sqrt(N)).max() < 1e-12
        assert np.abs(R.values - F.grid.sum(axis=0) / math.sqrt(N)).max() < 1e-12
        # second equality: DFT of the characteristic function on the axis
        Xi = char_fn(rho, s).grid
        K = kernel_table(N)
        for mu in labels(N):
            tot = sum(
                np.exp(-2j * np.pi * eta * mu / N) * Xi[eta + ell, ell]
                for eta in labels(N)
            )
            assert abs(Q.values[mu + ell] - tot) < 1e-10


@pytest.mark.parametrize("N", (1, 3, 7))
def test_marginals_of_a_stack_match_per_state_calls(N):
    rng = np.random.default_rng(N)
    stack = np.stack([random_density(N, rng) for _ in range(4)])
    for s in (1, 0, -1, 0.3 - 0.2j):
        F = phase_fn(stack, s)
        for marginal in (marginal_q, marginal_r):
            dist = marginal(F)
            assert dist.values.shape == (4, N) and dist.dim == N
            for b in range(4):
                single = marginal(phase_fn(stack[b], s))
                assert np.abs(dist.values[b] - single.values).max() < 1e-14


def test_single_grid_routes_reject_a_stack_by_shape():
    rng = np.random.default_rng(5)
    F = phase_fn(np.stack([random_density(3, rng) for _ in range(4)]), 0)
    with pytest.raises(ValueError, match=r"^radon_q takes one N x N matrix, got \(4, 3, 3\)$"):
        radon_q(F, 1, 1)
    with pytest.raises(ValueError, match=r"^radon_r takes one N x N matrix, got \(4, 3, 3\)$"):
        radon_r(F, 0, 1)


def test_marginal_sum_and_positivity_at_s0():
    N = 5
    F = phase_fn(fock_projector(0, N), 0)
    Q = marginal_q(F)
    assert Q.values.real.min() > -1e-12
    assert abs(Q.values.sum() - math.sqrt(N)) < 1e-10


def test_marginal_smoothing_chain():
    N = 5
    rng = np.random.default_rng(32)
    rho = random_density(N, rng)
    for axis_fn in (marginal_q, marginal_r):
        top = axis_fn(phase_fn(rho, 1))
        mid = axis_fn(phase_fn(rho, 0))
        bot = axis_fn(phase_fn(rho, -1))
        assert np.abs(smooth_marginal(top).values - mid.values).max() < 1e-10
        assert np.abs(smooth_marginal(mid).values - bot.values).max() < 1e-10
    with pytest.raises(ValueError):
        smooth_marginal(bot)


@pytest.mark.parametrize("quad", QUADS)
def test_symplectic_generators_unitary(quad):
    N = 5
    p = SymplecticParams(*quad, N)
    for gen in (symplectic_c, symplectic_n, symplectic_m, symplectic_j):
        J = gen(p)
        assert np.abs(J @ dagger(J) - np.eye(N)).max() < 1e-10


def test_symplectic_identity_fixes_labels():
    N = 5
    J = symplectic_j(SymplecticParams(1, 0, 0, 1, N))
    for eta in labels(N):
        for xi in labels(N):
            S = s_op(eta, xi, N)
            assert np.abs(J @ S @ dagger(J) - S).max() < 1e-12


def test_symplectic_conjugation_exact_for_even_shear():
    # the conjugation law holds exactly (for in-range images) whenever the
    # quadratic-phase parameters have even centered representatives
    N = 5
    ell = half_width(N)
    z = (2, 1, 3, 2)
    J = symplectic_j(SymplecticParams(*z, N))
    for eta in labels(N):
        for xi in labels(N):
            e2 = z[0] * eta + z[1] * xi
            x2 = z[2] * eta + z[3] * xi
            if abs(e2) > ell or abs(x2) > ell:
                continue
            lhs = J @ s_op(eta, xi, N) @ dagger(J)
            assert np.abs(lhs - s_op(e2, x2, N)).max() < 1e-10


@pytest.mark.parametrize("quad", QUADS)
def test_symplectic_conjugation_up_to_sign(quad):
    # for odd shear parameters a representative-independent sign remains
    # (no unitary fixing the clock operator can realize an odd shear of the
    # shift operator without it); the label map itself is always exact
    N = 5
    p = SymplecticParams(*quad, N)
    J = symplectic_j(p)
    for eta in labels(N):
        for xi in labels(N):
            lhs = J @ s_op(eta, xi, N) @ dagger(J)
            e2 = center_mod(quad[0] * eta + quad[1] * xi, N)
            x2 = center_mod(quad[2] * eta + quad[3] * xi, N)
            R = s_op(e2, x2, N)
            dev = min(np.abs(lhs - R).max(), np.abs(lhs + R).max())
            assert dev < 1e-10


def test_symplectic_kernel_transform_with_wraparound_phases():
    # conjugating the s = 0 kernel yields the relabeled Fourier sum once
    # the wraparound phases of the out-of-range displacement images are
    # tracked; dropping those signs (the idealized relabeling) is exact
    # only when no image leaves the centered label square
    from qps.theta import phase_phi

    N = 5
    ell = half_width(N)
    z = (2, 1, 3, 2)
    J = symplectic_j(SymplecticParams(*z, N))
    for mu, nu in [(0, 0), (1, 0), (1, -1), (2, 2)]:
        lhs = J @ t_op(mu, nu, 0, N) @ dagger(J)
        mu_p = z[3] * mu - z[2] * nu
        nu_p = z[0] * nu - z[1] * mu
        rhs = np.zeros((N, N), dtype=complex)
        for eta in labels(N):
            for xi in labels(N):
                e2 = z[0] * eta + z[1] * xi
                x2 = z[2] * eta + z[3] * xi
                sign = (-1) ** phase_phi(int(e2), int(x2), N)
                rhs += (
                    sign
                    * np.exp(-2j * np.pi * (eta * mu + xi * nu) / N)
                    * s_op(center_mod(e2, N), center_mod(x2, N), N)
                )
        rhs /= np.sqrt(N)
        assert np.abs(lhs - rhs).max() < 1e-10
        # the advertised relabeled kernel agrees wherever no wraparound
        # sign intervenes (and differs only by signs elsewhere)
        direct = t_op(mu_p, nu_p, 0, N)
        assert (np.abs(lhs - direct) < 1e-10).any()


def test_symplectic_group_action_on_labels():
    # compositions act on displacement labels by matrix products mod N
    N = 5
    rng = np.random.default_rng(33)
    pairs = [((2, 1, 3, 2), (1, 1, 0, 1)), ((1, 0, 1, 1), (2, 1, 3, 2))]
    for za, zb in pairs:
        Ja = symplectic_j(SymplecticParams(*za, N))
        Jb = symplectic_j(SymplecticParams(*zb, N))
        M = np.array([[za[0], za[1]], [za[2], za[3]]]) @ np.array(
            [[zb[0], zb[1]], [zb[2], zb[3]]]
        )
        J = Ja @ Jb
        for eta, xi in [(1, 0), (0, 1), (2, -1)]:
            lhs = J @ s_op(eta, xi, N) @ dagger(J)
            e2 = center_mod(int(M[0, 0]) * eta + int(M[0, 1]) * xi, N)
            x2 = center_mod(int(M[1, 0]) * eta + int(M[1, 1]) * xi, N)
            R = s_op(e2, x2, N)
            assert min(np.abs(lhs - R).max(), np.abs(lhs + R).max()) < 1e-10


def test_radon_reduces_to_marginals_and_dual_path():
    N = 5
    rng = np.random.default_rng(34)
    rho = random_density(N, rng)
    F = phase_fn(rho, 0)
    assert np.abs(radon_q(F, 1, 0).values - marginal_q(F).values).max() < 1e-12
    assert np.abs(radon_r(F, 0, 1).values - marginal_r(F).values).max() < 1e-12
    with pytest.raises(ValueError):
        radon_q(F, 0, 0)
    # dual-path oracle on the line (1, 1): delta sums equal the ray DFT
    ell = half_width(N)
    Xi = char_fn(rho, 0).grid
    Q = radon_q(F, 1, 1)
    for mu in labels(N):
        tot = sum(
            np.exp(-2j * np.pi * eta * mu / N)
            * Xi[center_mod(eta, N) + ell, center_mod(eta, N) + ell]
            for eta in labels(N)
        )
        assert abs(Q.values[mu + ell] - tot) < 1e-10


def test_radon_line_sums_are_probabilities_at_s0():
    N = 5
    rng = np.random.default_rng(35)
    psi = rng.normal(size=N) + 1j * rng.normal(size=N)
    psi /= np.linalg.norm(psi)
    F = phase_fn(np.outer(psi, psi.conj()), 0)
    for line in [(1, 0), (1, 2), (2, 1), (0, 1)]:
        Q = radon_q(F, *line)
        assert np.abs(Q.values.imag).max() < 1e-10
        assert Q.values.real.min() > -1e-12
        assert abs(Q.values.sum() - math.sqrt(N)) < 1e-10


def test_char_from_radon_roundtrip():
    N = 7
    ell = half_width(N)
    rng = np.random.default_rng(36)
    rho = random_density(N, rng)
    F = phase_fn(rho, 0)
    Xi = char_fn(rho, 0).grid
    for z1, z3 in [(1, 0), (1, 3), (2, 1)]:
        vals = char_from_radon_q(radon_q(F, z1, z3), z1, z3, N)
        for t in labels(N):
            ref = Xi[center_mod(z1 * t, N) + ell, center_mod(z3 * t, N) + ell]
            assert abs(vals[t + ell] - ref) < 1e-10
        assert abs(vals[ell] - 1 / math.sqrt(N)) < 1e-12
    vals = char_from_radon_r(radon_r(F, 1, 2), 1, 2, N)
    for t in labels(N):
        ref = Xi[center_mod(t, N) + ell, center_mod(2 * t, N) + ell]
        assert abs(vals[t + ell] - ref) < 1e-10


def test_char_from_radon_rejects_a_mismatched_ray():
    N = 5
    F = phase_fn(random_density(N, np.random.default_rng(40)), 0)
    q = radon_q(F, 1, 1)
    with pytest.raises(ValueError, match="must be the marginal's line"):
        char_from_radon_q(q, 1, 2, N)
    with pytest.raises(ValueError, match="must be the marginal's line"):
        char_from_radon_r(radon_r(F, 0, 1), 1, 1, N)
    # an axis-aligned marginal has the ray (1, 0) for Q and (0, 1) for R
    with pytest.raises(ValueError, match="must be the marginal's line"):
        char_from_radon_q(marginal_q(F), 0, 1, N)
    assert np.array_equal(char_from_radon_r(marginal_r(F), 0, 1, N), char_from_radon_r(radon_r(F, 0, 1), 0, 1, N))
    # the ray is compared mod N
    assert np.array_equal(char_from_radon_q(q, 6, -4, N), char_from_radon_q(q, 1, 1, N))


def test_char_from_radon_rejects_a_dimension_that_is_not_the_marginals():
    # the ray was checked mod the caller's N, which was then ignored: on a (1, 2)
    # marginal at N = 5, the ray (1, 9) passed at N = 7, though 9 is 4 mod 5
    F = phase_fn(random_density(5, np.random.default_rng(41)), 0)
    q, r = radon_q(F, 1, 2), radon_r(F, 1, 2)
    for call in (lambda: char_from_radon_q(q, 1, 9, 7), lambda: char_from_radon_r(r, 1, 2, 7),
                 lambda: char_from_radon_q(q, 1, 2, 3)):
        with pytest.raises(ValueError, match=r"^char_from_radon_[qr] dimension must be the marginal's, 5, got [37]$"):
            call()
    assert np.array_equal(char_from_radon_q(q, 1, 7, 5), char_from_radon_q(q, 1, 2, 5))


@pytest.mark.parametrize("s", (1, 0.5, -1, 0.5j))
def test_char_from_radon_at_nonzero_order(s):
    # the line sums of F^(s) already carry K^(-s) on the sheared rays too,
    # so the inversion needs no kernel ratio
    N = 7
    ell = half_width(N)
    ts = labels(N)
    rho = random_density(N, np.random.default_rng(38))
    F = phase_fn(rho, s)
    Xi = char_fn(rho, s).grid
    for z1, z3 in [(1, 1), (2, 3), (1, 0)]:
        ref = Xi[center_mod(z1 * ts, N) + ell, center_mod(z3 * ts, N) + ell]
        assert np.abs(char_from_radon_q(radon_q(F, z1, z3), z1, z3, N) - ref).max() < 1e-10
        ref = Xi[center_mod(z3 * ts, N) + ell, center_mod(z1 * ts, N) + ell]
        assert np.abs(char_from_radon_r(radon_r(F, z3, z1), z3, z1, N) - ref).max() < 1e-10


@pytest.mark.parametrize("N", (3, 5, 7))
def test_reconstruct_wigner_three_families(N):
    rng = np.random.default_rng(37)
    for rho in (
        maximally_mixed(N),
        random_density(N, rng, pure=True),
        coherent_projector(1, -1, N),
    ):
        W = phase_fn(rho, 0).grid
        R = reconstruct_wigner(rho).grid
        assert np.abs(R - W).max() < 1e-9


@settings(max_examples=30, deadline=None)
@example(N=9, seed=0, pure=False)
@example(N=15, seed=1, pure=True)
@given(N=st.sampled_from((9, 15, 21, 25, 27, 33, 35, 39, 45)), seed=st.integers(0, 2**32 - 1), pure=st.booleans())
def test_reconstruct_wigner_composite_is_exact(N, seed, pure):
    # one state, a stack of pure and mixed states, and seeded shots, all over P^1(Z_N)
    rng = np.random.default_rng(seed)
    rho = random_density(N, rng, pure=pure)
    stack = np.stack([random_density(N, rng, pure=b % 2 == 1) for b in range(3)])
    for states in (rho, stack):
        assert np.abs(reconstruct_wigner(states).grid - phase_fn(states, 0).grid).max() < 1e-9
    W, again = (reconstruct_wigner(rho, 1000, np.random.default_rng(seed)).grid for _ in range(2))
    assert np.array_equal(W, again)
    assert np.abs(W.imag).max() < 1e-12 and abs(W.real.sum() - N) < 1e-9


@pytest.mark.parametrize("N", (3, 5, 7, 11, 13))
def test_reconstruct_wigner_takes_stacks(N):
    rng = np.random.default_rng(N)
    stack = np.stack([random_density(N, rng, pure=b % 2 == 1) for b in range(5)])
    W = reconstruct_wigner(stack).grid
    assert W.shape == (5, N, N)
    for b in range(5):
        assert np.abs(W[b] - reconstruct_wigner(stack[b]).grid).max() <= 1e-13
    # one generator draws state-major, as sequential per-state calls with it do
    for seed in (0, 7):
        W = reconstruct_wigner(stack, 1000, np.random.default_rng(seed)).grid
        rng = np.random.default_rng(seed)
        for b in range(5):
            assert np.abs(W[b] - reconstruct_wigner(stack[b], 1000, rng).grid).max() <= 1e-13


# the core's other entry points and grid containers, by the name their ValueError gives
SQUARE_OPERAND_ROUTES = {
    "decompose_schwinger": decompose_schwinger,
    "reconstruct_schwinger": reconstruct_schwinger,
    "decompose_t": lambda X: decompose_t(X, 0),
    "reconstruct_t": lambda X: reconstruct_t(X, 0),
    "char_fn": lambda X: char_fn(X, 0),
    "phase_fn": lambda X: phase_fn(X, 0),
    "expectation": lambda X: expectation(X, X, 0),
    "depolarize": depolarize,
    "PhaseSpaceFunction": lambda X: PhaseSpaceFunction(0, X),
    "CharacteristicFunction": lambda X: CharacteristicFunction(0, X),
}


@pytest.mark.parametrize("shape", ((3, 5), (5,), (2, 3, 5), (), (4, 4), (2, 4, 4)))
def test_reconstruct_wigner_rejects_non_square_input(shape):
    with pytest.raises(ValueError, match=r"reconstruct_wigner takes square matrices"):
        reconstruct_wigner(np.zeros(shape))
    # every route reads N through one check, so none reaches a gather with
    # a non-square or even operand: the error names the route and the shape
    for name, route in SQUARE_OPERAND_ROUTES.items():
        with pytest.raises(ValueError, match=rf"^{name} takes square matrices.*, got {re.escape(str(shape))}$"):
            route(np.zeros(shape))


def test_sample_marginal_seeded_and_normalized():
    N = 3
    F = phase_fn(fock_projector(1, N), 0)
    Q = marginal_q(F)
    a = sample_marginal(Q, 10000, np.random.default_rng(7))
    b = sample_marginal(Q, 10000, np.random.default_rng(7))
    assert np.abs(a.values - b.values).max() == 0
    assert abs(a.values.sum() - math.sqrt(N)) < 1e-12
    with pytest.raises(ValueError):
        sample_marginal(marginal_q(phase_fn(fock_projector(1, N), -1)), 10, None)


@pytest.mark.parametrize("shots", (2.5, True, 0, -3, "100", None))
def test_sample_marginal_rejects_bad_shot_counts(shots):
    # 2.5 used to draw 2 shots and divide by 2.5, so the ray summed to 0.8 sqrt(N);
    # True drew 1 shot.  An integral float such as 100.0 is a count, like 100
    N = 5
    Q = marginal_q(phase_fn(fock_projector(1, N), 0))
    with pytest.raises(ValueError, match="shots"):
        sample_marginal(Q, shots, np.random.default_rng(0))
    drawn = sample_marginal(Q, np.int64(3), np.random.default_rng(0))
    assert abs(drawn.values.sum() - math.sqrt(N)) < 1e-12


def test_sample_marginal_needs_a_generator():
    # sample_marginal(Q, 10, None) raised AttributeError from None.multinomial
    Q = marginal_q(phase_fn(fock_projector(1, 5), 0))
    with pytest.raises(ValueError, match="rng"):
        sample_marginal(Q, 10, None)


@pytest.mark.parametrize("N", (7, 31, 45))
def test_sample_marginal_is_unbiased_on_sheared_rays(N):
    # clipping the plain line sums left the mean of fock:3 at N = 31 on ray
    # (1, 3) 0.505 off at 10^4 and 10^6 shots, and a random pure state 0.356
    M = 20
    for rho in (fock_projector(3, N), random_density(N, np.random.default_rng(N), pure=True)):
        F = phase_fn(rho, 0)
        for za, zb in ((1, 3), (2, 5)):
            Q = radon_q(F, za, zb)
            for shots in (10**4, 10**6):
                rng = np.random.default_rng(shots)
                mean = np.mean([sample_marginal(Q, shots, rng).values for _ in range(M)], axis=0)
                assert np.abs(mean - Q.values).max() <= 3 * math.sqrt(N / (M * shots)), (za, zb, shots)


def test_reconstruct_wigner_shots_need_a_count_and_a_generator():
    rho = maximally_mixed(5)
    with pytest.raises(ValueError, match="rng"):
        reconstruct_wigner(rho, shots=100)
    for shots in (0, 2.5):
        with pytest.raises(ValueError, match="shots"):
            reconstruct_wigner(rho, shots=shots, rng=np.random.default_rng(0))


def test_sample_marginal_ignores_sign_of_round_off():
    # the fock:1 line sum on ray (1, 2) at N = 5 holds an exact zero that
    # comes out as +-1e-16 depending on summation order
    N = 5
    dist = radon_q(phase_fn(fock_projector(1, N), 0), 1, 2)
    k = np.argmin(np.abs(dist.values))
    assert abs(dist.values[k]) < 1e-12
    draws = []
    for sign in (1, -1):
        values = dist.values.copy()
        values[k] = sign * 1.24e-16
        flipped = MarginalDistribution(dist.s, dist.axis, values, dist.line)
        draws.append(sample_marginal(flipped, 1000, np.random.default_rng(3)).values)
    assert np.array_equal(draws[0], draws[1])


def test_draw_clips_each_row_against_its_own_scale():
    # the round-off clip is relative to each row's largest value, so a row
    # of the batched draw does not depend on its scale (here an exact power
    # of two) or on the other rows of the stack
    N = 5
    v = radon_q(phase_fn(fock_projector(1, N), 0), 1, 2).values.real
    a = tomography._draw(np.stack([v, 2.0**-70 * v]), 1000, np.random.default_rng(3))
    b = tomography._draw(np.stack([v, v]), 1000, np.random.default_rng(3))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("N", (3, 5, 7, 31))
def test_draw_is_stable_under_one_ulp_of_the_line_sums(N):
    # numpy's binomial changes algorithm at p = 1/2, which the multinomial's
    # running remainder reaches on every row whose last two probabilities are
    # equal (every row of the maximally mixed state); on the fixed grid of
    # probabilities a last-bit change of the sums leaves seeded counts alone
    rng = np.random.default_rng(N)
    for rho in (maximally_mixed(N), fock_projector(0, N), fock_projector(1, N)):
        sums = tomography._ray_sums(char_fn(rho, 0).grid).real
        mixed = np.nextafter(sums, np.where(rng.random(sums.shape) < 0.5, -np.inf, np.inf))
        for seed in range(4):
            ref = tomography._draw(sums, 10_000, np.random.default_rng(seed))
            for v in (np.nextafter(sums, np.inf), np.nextafter(sums, -np.inf), mixed):
                assert np.array_equal(tomography._draw(v, 10_000, np.random.default_rng(seed)), ref)


class RecordingGenerator:
    """A seeded generator whose multinomial keeps the probabilities it was handed."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)

    def multinomial(self, n, pvals):
        self.pvals = pvals
        return self.rng.multinomial(n, pvals)


@pytest.mark.parametrize("N", (3, 5, 7, 31))
def test_draw_is_multinomial_on_the_along_axis_probabilities(N):
    # integer counts of 2^-32 with one fancy-index update round exactly as the
    # along-axis rule does, so twin generators draw the same counts
    rng = np.random.default_rng(N)
    half_ties = np.zeros((2, N))
    half_ties[:, :2] = [(1.0, 2.0**33 - 1), (3.0, 2.0**33 - 3)]  # 0.5 and 1.5 counts of 2^-32
    negatives = rng.normal(size=(N + 1, N))
    negatives[:, 0] = np.abs(negatives[:, 0]) + 0.1
    rows = [
        rng.random(N),
        tomography._ray_sums(char_fn(random_density(N, rng), 0).grid).real,
        np.ones((N + 1, N)),  # conditional probabilities of exactly 1/2
        half_ties,
        2.0 ** -rng.integers(0, 40, size=(N + 1, N)),
        negatives,
        rng.random((2, N + 1, N)),
    ]
    for p in rows:
        q = oracle.draw_probabilities(p)
        assert np.array_equal(q.sum(axis=-1), np.ones(p.shape[:-1]))
        for seed, shots in ((0, 1), (1, 1000), (2, 10**6)):
            ref = np.random.default_rng(seed).multinomial(shots, q) / shots * math.sqrt(N)
            twin = RecordingGenerator(seed)
            assert np.array_equal(tomography._draw(p, shots, twin), ref)
            # a probability 2^-32 off rarely moves a draw, so check them bit for bit too
            assert np.array_equal(twin.pvals, q)


@pytest.mark.parametrize("N", (3, 5))
def test_scattering_circuit_reads_characteristic_function(N):
    ell = half_width(N)
    rng = np.random.default_rng(38)
    for rho in (maximally_mixed(N), fock_projector(0, N), random_density(N, rng)):
        Xi = char_fn(rho, 0).grid
        for eta in labels(N):
            for xi in labels(N):
                sz, sy = scattering_circuit(rho, eta, xi)
                ref = math.sqrt(N) * Xi[eta + ell, xi + ell]
                assert abs(sz - ref.real) < 1e-10
                assert abs(sy - ref.imag) < 1e-10


def test_scattering_circuit_trivial_and_linearity():
    N = 5
    rng = np.random.default_rng(39)
    rho = random_density(N, rng)
    sz, sy = scattering_circuit(rho, 0, 0)
    assert abs(sz - 1) < 1e-12 and abs(sy) < 1e-12
    rho2 = random_density(N, rng)
    mix = 0.3 * rho + 0.7 * rho2
    za, ya = scattering_circuit(rho, 2, -1)
    zb, yb = scattering_circuit(rho2, 2, -1)
    zm, ym = scattering_circuit(mix, 2, -1)
    assert abs(zm - (0.3 * za + 0.7 * zb)) < 1e-12
    assert abs(ym - (0.3 * ya + 0.7 * yb)) < 1e-12


def test_scattering_circuit_takes_one_square_rho():
    # a (3, 3, 3) stack once read rows of all three states at one label pair
    rng = np.random.default_rng(4)
    for n in (3, 5):
        stack = np.stack([random_density(3, rng) for _ in range(n)])
        with pytest.raises(ValueError, match=rf"^scattering_circuit takes one N x N matrix, got \({n}, 3, 3\)$"):
            scattering_circuit(stack, 1, 1)
        with pytest.raises(ValueError, match="scattering_circuit takes one"):
            scattering_circuit(stack, unitary=np.eye(3))
    with pytest.raises(ValueError, match=r"^scattering_circuit takes square matrices of odd size N, got \(3, 5\)$"):
        scattering_circuit(np.zeros((3, 5)), 1, 1)


def test_scattering_circuit_rejects_a_unitary_of_another_size():
    # numpy once raised "operands could not be broadcast together" here
    rho = random_density(5, np.random.default_rng(6))
    for U in (np.eye(3), np.zeros((2, 3, 3)), np.eye(5)[:, :3]):
        with pytest.raises(ValueError, match=rf"scattering_circuit .*\(5, 5\), got {re.escape(str(U.shape))}"):
            scattering_circuit(rho, unitary=U)
    # leading axes of the unitary stay a batch
    sz, sy = scattering_circuit(rho, unitary=np.stack([np.eye(5), -np.eye(5)]))
    assert np.allclose(sz, [1, -1]) and np.allclose(sy, 0)


@pytest.mark.parametrize("N", (251, 501))
def test_reconstruct_wigner_is_exact_to_round_off_at_large_n(N):
    # phases of angles up to pi N / 2 once left 2.8e-14 at N = 251 and 5.3e-14 at N = 501
    rng = np.random.default_rng(N)
    for rho in (fock_projector(3, N), random_density(N, rng), random_density(N, rng, pure=True)):
        assert np.abs(reconstruct_wigner(rho).grid - phase_fn(rho, 0).grid).max() < 5e-15


def test_scattering_circuit_bipartite_bell_mode():
    from qps.teleport import BellLabel, bell_projector

    N = 3
    ell = half_width(N)
    rho = bell_projector(BellLabel(1, -1), N)
    # explicit product unitary measures the two-mode characteristic values
    for pairs in [((0, 0), (0, 0)), ((1, 0), (0, 1)), ((1, -1), (-1, 1))]:
        (e1, x1), (e2, x2) = pairs
        U = tensor(math.sqrt(N) * s_op(e1, x1, N), math.sqrt(N) * s_op(e2, x2, N))
        sz, sy = scattering_circuit(rho, unitary=U)
        ref = np.trace(U @ rho)
        assert abs(sz - ref.real) < 1e-10
        assert abs(sy - ref.imag) < 1e-10


@settings(max_examples=40, deadline=None)
@example(N=31, seed=0, pure=True)
@example(N=45, seed=1, pure=True)
@given(N=st.integers(0, 30).map(lambda k: 2 * k + 1), seed=st.integers(0, 2**32 - 1), pure=st.booleans())
def test_twisted_line_sums_are_probabilities(N, seed, pure):
    # the plain line sums of a pure state go negative (fock:3: -0.505 at N = 31),
    # and the draw clipped them; those of the twisted grid are probabilities
    rng = np.random.default_rng(seed)
    for rho in (random_density(N, rng, pure=pure), fock_projector(int(rng.integers(N)), N)):
        _, rows, cols, twist = tomography._ray_cells(N)
        sums = _dft(twist * char_fn(rho, 0).grid[rows, cols])
        assert sums.real.min() >= -1e-14
        assert np.abs(sums.sum(axis=-1) - math.sqrt(N)).max() <= 1e-12


@pytest.mark.parametrize("N", (7, 31, 45))
def test_mean_shot_estimate_converges_as_one_over_root_shots(N):
    # clipping the negative line sums biased the estimate at any shot count:
    # at N = 31 the max error of fock:3 stayed at 0.99 from 100 to 10^6 shots
    M = 20  # a stack of M copies draws M estimates, state by state
    for rho in (fock_projector(3, N), random_density(N, np.random.default_rng(N), pure=True)):
        W = phase_fn(rho, 0).grid
        for shots in (10**2, 10**4, 10**6):
            R = reconstruct_wigner(np.broadcast_to(rho, (M, N, N)), shots, np.random.default_rng(shots))
            assert np.abs(R.grid.mean(axis=0) - W).max() <= 3 * math.sqrt(N / (M * shots))
