"""The spectral core against the loop implementations it replaced.

Every fast route (gathered traces plus DFT for the characteristic and
phase-space grids, FFT correlation for the smoothing steps, the inverse
DFT of K for the smoothing table, gather/scatter for the Schwinger
expansion) is compared with its loop oracle in `loop_oracles` over prime
and composite N, pure and mixed states, the three standard orders and
random complex orders |s| <= 1.

The tolerance was fixed before the fast routes were written: the two
sides sum the same terms in a different order, so they may differ by
round-off amplified by the largest kernel power in play,
TOL * max(1, max |K^(-Re s)|) with TOL = 1e-12.
"""

import cmath

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import loop_oracles as oracle
from qps.lattice import _correlate
from qps.theta import kernel_table
from qps.schwinger import decompose_schwinger, reconstruct_schwinger
from qps.quasiprob import (
    char_fn,
    phase_fn,
    random_density,
    smoothing_table,
    smooth_p_to_w,
    smooth_w_to_h,
    smooth_p_to_h,
    _convolve,
)
from qps.tomography import (
    MarginalDistribution,
    smooth_marginal,
    radon_q,
    radon_r,
    char_from_radon_q,
    char_from_radon_r,
)

TOL = 1e-12
DIMS = (1, 3, 5, 9, 15, 31)
SETTINGS = settings(max_examples=30, deadline=None)

dims = st.sampled_from(DIMS)
seeds = st.integers(0, 2**32 - 1)
standard_orders = st.sampled_from((1 + 0j, 0j, -1 + 0j))
disk_orders = st.builds(
    lambda r, phi: cmath.rect(r, phi),
    st.floats(0.0, 1.0),
    st.floats(-np.pi, np.pi),
)
orders = st.one_of(standard_orders, disk_orders)


def bound(N, s):
    """TOL * max(1, max |K^(-Re s)|) at dimension N and order s."""
    return TOL * max(1.0, float(np.max(kernel_table(N) ** (-complex(s).real))))


def state(N, seed, pure):
    return random_density(N, np.random.default_rng(seed), pure=pure)


def operator(N, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))


@SETTINGS
@given(N=dims, seed=seeds, pure=st.booleans(), s=orders)
def test_char_fn_matches_trace_loop(N, seed, pure, s):
    rho = state(N, seed, pure)
    Xi = char_fn(rho, s)
    assert Xi.s == complex(s)
    assert np.abs(Xi.grid - oracle.char_fn_grid(rho, s)).max() <= bound(N, s)


@SETTINGS
@given(N=dims, seed=seeds, pure=st.booleans(), s=orders)
def test_phase_fn_matches_einsum_dft(N, seed, pure, s):
    rho = state(N, seed, pure)
    F = phase_fn(rho, s).grid
    assert np.abs(F - oracle.phase_fn_grid(rho, s)).max() <= bound(N, s)


@pytest.mark.parametrize("N", DIMS)
def test_smoothing_table_matches_overlap_loop(N):
    E = smoothing_table(N)
    assert E.dtype == float and not E.flags.writeable
    assert np.abs(E - oracle.smoothing_table(N)).max() <= bound(N, -1)


@SETTINGS
@given(N=dims, seed=seeds, pure=st.booleans(), s=orders)
def test_convolve_matches_gather_loop(N, seed, pure, s):
    # any grid works; phase-space grids at order s carry the amplification
    grid = phase_fn(state(N, seed, pure), s).grid
    # the kernel weights are even in each offset; the random ones are not,
    # so they pin the orientation of the correlation
    lopsided = np.random.default_rng(seed).normal(size=(N, N))
    for weights in (smoothing_table(N), kernel_table(N) ** 2, lopsided):
        fast = _convolve(grid, weights)
        assert np.abs(fast - oracle.convolve(grid, weights)).max() <= bound(N, s)


@SETTINGS
@given(N=dims, seed=seeds, pure=st.booleans())
def test_smoothing_steps_match_loops(N, seed, pure):
    rho = state(N, seed, pure)
    P, W = phase_fn(rho, 1), phase_fn(rho, 0)
    E = oracle.smoothing_table(N)
    assert np.abs(smooth_p_to_w(P).grid - oracle.convolve(P.grid, E)).max() <= bound(N, 1)
    assert np.abs(smooth_w_to_h(W).grid - oracle.convolve(W.grid, E)).max() <= bound(N, 0)
    K2 = kernel_table(N) ** 2
    assert np.abs(smooth_p_to_h(P).grid - oracle.convolve(P.grid, K2)).max() <= bound(N, 1)


@SETTINGS
@given(N=dims, seed=seeds, s=st.sampled_from((1, 0)))
def test_smooth_marginal_matches_theta_loop(N, seed, s):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=N) + 1j * rng.normal(size=N)
    out = smooth_marginal(MarginalDistribution(s, "Q", values))
    assert out.s == s - 1
    assert np.abs(out.values - oracle.smooth_marginal_values(values)).max() <= TOL
    real = smooth_marginal(MarginalDistribution(s, "R", values.real)).values
    assert np.isrealobj(real)


@SETTINGS
@given(N=dims, seed=seeds)
def test_correlate_1d_orientation(N, seed):
    rng = np.random.default_rng(seed)
    values, weights = rng.normal(size=N), rng.normal(size=N)
    ell = (N - 1) // 2
    ref = [sum(weights[(kp - k + ell) % N] * values[kp] for kp in range(N)) for k in range(N)]
    assert np.abs(_correlate(values, weights) - ref).max() <= TOL


rays = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@SETTINGS
@given(N=st.sampled_from(DIMS[1:]), seed=seeds, pure=st.booleans(), s=orders, z=rays)
def test_ray_inversion_matches_scalar_dft(N, seed, pure, s, z):
    za, zb = z
    assume(za % N or zb % N)  # (0, 0) mod N is not a line
    F = phase_fn(state(N, seed, pure), s)
    q = radon_q(F, za, zb)
    assert np.abs(char_from_radon_q(q, za, zb, N) - oracle.ray_invert(q, za, zb, N)).max() <= bound(N, s)
    r = radon_r(F, za, zb)
    assert np.abs(char_from_radon_r(r, za, zb, N) - oracle.ray_invert(r, za, zb, N)).max() <= bound(N, s)


@SETTINGS
@given(N=dims, seed=seeds)
def test_schwinger_expansion_matches_basis_loops(N, seed):
    O = operator(N, seed)
    C = decompose_schwinger(O)
    assert np.abs(C - oracle.decompose_schwinger(O)).max() <= TOL
    C2 = operator(N, seed + 1)
    assert np.abs(reconstruct_schwinger(C2) - oracle.reconstruct_schwinger(C2)).max() <= TOL
    assert np.abs(reconstruct_schwinger(C) - O).max() <= TOL
