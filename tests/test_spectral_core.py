"""The spectral core against the loop implementations it replaced.

Every fast route (gathered traces plus DFT for the characteristic and
phase-space grids, a product by K in the dual plane for the smoothing
steps on grids and on every Radon line, the inverse DFT of K for the
smoothing table, gather/scatter for the Schwinger expansion, the T^(s)
family and expansions, the symplectic generators and the depolarizer
average, bincount line sums, the teleportation layer on N x N matrices,
the number-basis table as one gather per row, the scattering circuit as
two traces, array labels in `s_op` and `t_overlap`, and the self-test on
those routes) is compared
with its loop oracle in `loop_oracles` over prime and composite N, pure
and mixed states, the three standard orders and random complex orders
|s| <= 1.  The kernel table, its raw-label values and the 1-D smoothing
weights are compared with the theta series summed by mpmath at raised
precision, since the series cancels near the minimum of K.

The tolerance was fixed before the fast routes were written: the two
sides sum the same terms in a different order, so they may differ by
round-off amplified by the largest kernel power in play,
TOL * max(1, max |K^(-Re s)|) with TOL = 1e-12, and by the product of
two such factors where two kernel powers meet (two modes, or the order
transfer of the receiver coefficients).
"""

import cmath
import gc
import math
import tracemalloc
import warnings
import weakref
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import loop_oracles as oracle
from qps import cli, schwinger, tomography
from qps.lattice import _dft2, _cas2, _dual_multiply, _hartley, labels, center_mod, half_width
from qps.theta import kernel_value, kernel_table, smoothing_1d, fock_coefficients, gamma_table, _log_kernel
from qps.schwinger import (
    s_op,
    t_overlap,
    decompose_schwinger,
    reconstruct_schwinger,
    t_op,
    t_family,
    decompose_t,
    reconstruct_t,
    depolarize,
)
from qps.quasiprob import (
    FormalismViolation,
    PhaseSpaceFunction,
    expectation,
    reconstruct_rho,
    coherent_projector,
    fock_projector,
    char_fn,
    phase_fn,
    random_density,
    t_matrix_element,
    smoothing_table,
    smooth_p_to_w,
    smooth_w_to_h,
    smooth_p_to_h,
)
from qps.tomography import (
    MarginalDistribution,
    smooth_marginal,
    radon_q,
    radon_r,
    char_from_radon_q,
    char_from_radon_r,
    SymplecticParams,
    symplectic_c,
    symplectic_n,
    symplectic_m,
    symplectic_j,
    scattering_circuit,
)
from qps.teleport import (
    BellLabel,
    bell_state,
    bipartite_phase_fn,
    upsilon_coeffs,
    theta_coeffs,
    teleport,
    lambda_coeffs,
    teleport_via_coeffs,
)

TOL = 1e-12
DIMS = (1, 3, 5, 9, 15, 31)
# the einsum family oracle is O(N^6), 7 s to build at N = 31, and the
# conjugation loop makes 3N^2 dense products per call
FAMILY_DIMS = DIMS[:-1]
# the dense protocol oracle works on N^3 x N^3 matrices
TELEPORT_DIMS = (1, 3, 5, 7, 9)
SETTINGS = settings(max_examples=30, deadline=None)

dims = st.sampled_from(DIMS)
family_dims = st.sampled_from(FAMILY_DIMS)
seeds = st.integers(0, 2**32 - 1)
standard_orders = st.sampled_from((1 + 0j, 0j, -1 + 0j))
disk_orders = st.builds(
    lambda r, phi: cmath.rect(r, phi),
    st.floats(0.0, 1.0),
    st.floats(-np.pi, np.pi),
)
orders = st.one_of(standard_orders, disk_orders)
teleport_dims = st.sampled_from(TELEPORT_DIMS)
# unreduced labels: every route reduces them mod N itself
raw_labels = st.integers(-20, 20)
# every odd N up to 61, the largest benchmarked, N = 1 included
odd_dims = st.integers(0, 30).map(lambda k: 2 * k + 1)
bell_labels = st.tuples(raw_labels, raw_labels)


# odd N up to the largest the direct theta series could build, and two past it
KERNEL_DIMS = (1, 3, 5, 9, 15, 31, 61, 95, 201, 1001)
GAMMA_DIMS = (1, 3, 5, 9, 17)
# the unit-grid family oracle holds an N^2 x N^2 identity: 15 MB at N = 31
DISPLACEMENT_DIMS = (1, 3, 5, 7, 9, 15, 17, 31)


def bound(N, s):
    """TOL * max(1, max |K^(-Re s)|) at dimension N and order s, from the log table."""
    return TOL * max(1.0, math.exp(float(np.max(-complex(s).real * _log_kernel(N)))))


def bound2(N, s1, s2):
    """TOL * max(1, max |K^(-Re s1)|) * max(1, max |K^(-Re s2)|)."""
    return bound(N, s1) * bound(N, s2) / TOL


def state(N, seed, pure):
    return random_density(N, np.random.default_rng(seed), pure=pure)


def operator(N, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))


def mp_theta34(x, N):
    """theta3 and theta4 at pi x / (2N), nome exp(-pi / (2N)), at mpmath's working precision."""
    q = mpmath.exp(-mpmath.pi / (2 * N))
    z = mpmath.pi * x / (2 * N)
    return mpmath.jtheta(3, z, q), mpmath.jtheta(4, z, q)


def mp_kernel(pairs, N):
    """K(eta, xi) at raw label pairs: the rank-4 theta form, summed by mpmath at
    30 + 0.35 N digits, enough to carry its cancellation down to corners near
    exp(-pi N / 4)."""
    with mpmath.workdps(30 + math.ceil(0.35 * N)):
        t = {x: mp_theta34(x, N) for x in {0}.union(*pairs)}

        def form(e, x):
            (t3e, t4e), (t3x, t4x), pe, px = t[e], t[x], (-1) ** (e % 2), (-1) ** (x % 2)
            return t3e * t3x + pe * t3e * t4x + px * t4e * t3x - pe * px * t4e * t4x

        return [form(e, x) / form(0, 0) for e, x in pairs]


@pytest.mark.parametrize("N", KERNEL_DIMS)
def test_kernel_table_matches_theta_loop(N):
    # the reference is the theta series itself, summed by mpmath with its
    # cancellation carried at raised precision; spot values at the corners,
    # the axis ends and 20 seeded entries, tolerance fixed beforehand
    L, K = _log_kernel(N), kernel_table(N)
    assert K.dtype == float and not K.flags.writeable
    assert np.array_equal(K, np.exp(L))
    ell = half_width(N)
    pairs = [(e, x) for e in (-ell, 0, ell) for x in (-ell, 0, ell)]
    pairs += [(int(e), int(x)) for e, x in np.random.default_rng(N).integers(-ell, ell + 1, (20, 2))]
    for (e, x), ref in zip(pairs, mp_kernel(pairs, N)):
        val = L[e + ell, x + ell]
        assert abs(val - float(mpmath.log(ref))) <= 1e-13 * max(1.0, abs(val))


@pytest.mark.parametrize("N", (97, 201, 1001))
def test_kernel_positive_normalized_symmetric_past_the_theta_series(N):
    # positivity is checked on log K: K's corners underflow to 0 from N ~ 950 on
    L, K = _log_kernel(N), kernel_table(N)
    ell = half_width(N)
    assert np.all(np.isfinite(L)) and np.all(L <= 0) and np.all(K >= 0)
    assert L[ell, ell] == 0 and K[ell, ell] == 1
    assert np.abs(L - L.T).max() <= 1e-13 * np.abs(L).max()  # label exchange
    assert np.abs(L - L[::-1, ::-1]).max() <= 1e-13 * np.abs(L).max()  # parity


@pytest.mark.parametrize("N", (1, 3, 5, 9))
def test_kernel_value_on_raw_label_arrays(N):
    raw = np.arange(-3 * N, 3 * N + 1)
    K = kernel_value(raw[:, None], raw, N)
    assert K.shape == (raw.size, raw.size)
    pairs = [(int(e), int(x)) for e in raw for x in raw]
    ref = np.array([float(v) for v in mp_kernel(pairs, N)]).reshape(K.shape)
    assert np.max(np.abs(K - ref) / np.abs(ref)) <= 1e-14
    assert type(kernel_value(raw[1], raw[2], N)) is float


@pytest.mark.parametrize("N", (31, 61, 95))
def test_smoothing_1d_matches_mpmath(N):
    # the weights fall to exp(-pi N / 2), so the theta sums carry 30 + 0.7 N digits
    chi = labels(N)
    with mpmath.workdps(30 + math.ceil(0.7 * N)):
        t30, t40 = mp_theta34(0, N)
        norm = (t30 * t30 + 2 * t30 * t40 - t40 * t40) * mpmath.sqrt(2 * N) / 2
        ref = np.array([float(sum(a * b for a, b in zip((t30, t40), mp_theta34(2 * c, N))) / norm) for c in chi])
    assert np.max(np.abs(smoothing_1d(chi, N) - ref) / ref) <= 1e-13


@pytest.mark.parametrize("N", (1, 3, 7, 61))
def test_smoothing_1d_on_arrays_matches_scalars(N):
    chi = np.arange(-2 * N, 2 * N + 1)
    w = smoothing_1d(chi, N)
    ref = np.array([smoothing_1d(int(c), N) for c in chi])
    assert type(smoothing_1d(1, N)) is float
    assert np.max(np.abs(w - ref) / ref) <= 1e-14


@pytest.mark.parametrize("N", GAMMA_DIMS)
def test_number_basis_tables_match_loops(N):
    F = fock_coefficients(N)
    assert not F.flags.writeable
    assert np.abs(F - oracle.fock_coefficients(N)).max() <= TOL
    G = gamma_table(N)
    assert G.shape == (N,) * 4 and not G.flags.writeable
    assert np.abs(G - oracle.gamma_table(N)).max() <= TOL


@pytest.mark.parametrize("N", (7, 31, 61, 101))
def test_fock_coefficients_match_hermite_columns(N):
    assert np.abs(fock_coefficients(N) - oracle.fock_coefficients(N)).max() <= TOL


@pytest.mark.parametrize("N", (301, 1001))
def test_fock_coefficients_stay_finite_at_large_n(N):
    # H_n(x) overflows a double from n = 257 on; the Hermite functions stay in range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        F = fock_coefficients.__wrapped__(N)
    assert np.isfinite(F).all()
    assert np.abs(np.linalg.norm(F, axis=0) - 1).max() <= 1e-12


def test_kernel_rejects_what_it_cannot_evaluate():
    for bad in (0.5, np.nan, np.inf, np.array([0, 1, 2.5])):
        with pytest.raises(ValueError):
            kernel_value(bad, 0, 5)
        with pytest.raises(ValueError):
            kernel_value(0, bad, 5)


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
@given(N=dims, seed=seeds, shape=st.sampled_from(((), (2,), (2, 3))))
def test_idft2_inverts_dft2(N, seed, shape):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=shape + (N, N)) + 1j * rng.normal(size=shape + (N, N))
    assert np.abs(oracle.idft2(_dft2(X)) - X).max() <= TOL
    assert np.abs(_dft2(oracle.idft2(X)) - X).max() <= TOL


@SETTINGS
@given(N=dims, seed=seeds)
def test_idft2_matches_phase_sum(N, seed):
    # a lopsided grid pins the orientation, which an even K cannot do
    F = operator(N, seed)
    ks, ell = labels(N), half_width(N)
    ref = np.empty((N, N), dtype=complex)
    for eta in ks:
        for xi in ks:
            ph = np.exp(2j * np.pi * np.add.outer(eta * ks, xi * ks) / N)
            ref[eta + ell, xi + ell] = np.sum(ph * F) / N**1.5
    assert np.abs(oracle.idft2(F) - ref).max() <= TOL


def even_multiplier(N, rng, kind, s):
    """A table even in each label: K (real), K^(-s) (complex), or a random real or complex
    quadrant mirrored onto the plane, which is not symmetric; and its tolerance."""
    if kind == "K":  # K^(-s) at s = -1
        return kernel_table(N), bound(N, -1)
    if kind == "K^(-s)":
        return schwinger._kernel_power(s, N), bound(N, s)
    q = rng.normal(size=(2, N // 2 + 1, N // 2 + 1))
    rows = np.abs(labels(N))
    M = (q[0] + 1j * q[1] if kind == "complex quadrant" else q[0])[rows][:, rows]
    return M, TOL * max(1.0, np.abs(M).max())


@SETTINGS
@example(N=1, seed=0, kind="complex quadrant", complex_grid=False, shape=(), s=0j)
@example(N=61, seed=1, kind="K^(-s)", complex_grid=True, shape=(2, 3), s=1 + 0j)
@example(N=61, seed=2, kind="real quadrant", complex_grid=False, shape=(3,), s=0j)
@given(N=odd_dims, seed=seeds, kind=st.sampled_from(("K", "K^(-s)", "real quadrant", "complex quadrant")),
       complex_grid=st.booleans(), shape=st.sampled_from(((), (1,), (3,), (2, 3))), s=orders)
def test_dual_multiply_matches_the_complex_route(N, seed, kind, complex_grid, shape, s):
    # the cas product holds for a multiplier even in each label, symmetric or not,
    # on real and complex grids and batches of them
    rng = np.random.default_rng(seed)
    M, tol = even_multiplier(N, rng, kind, s)
    assert np.array_equal(M, M[::-1]) and np.array_equal(M, M[:, ::-1])
    grid = rng.normal(size=shape + (N, N))
    if complex_grid:
        grid = grid + 1j * rng.normal(size=shape + (N, N))
    out = _dual_multiply(M, grid)
    assert out.shape == grid.shape and out.dtype == complex
    assert np.abs(out - oracle.dual_multiply(M, grid)).max() <= tol
    # and the inverse 2-D DFT of an even table is H M H / N^1.5, the route of t_overlap
    assert np.abs(oracle.cas_sandwich(M) / N**1.5 - oracle.idft2(M)).max() <= tol


# every odd N up to 45, prime and composite
cas2_dims = st.integers(0, 22).map(lambda k: 2 * k + 1)


@SETTINGS
@example(N=45, seed=0, shape=(2, 3))
@given(N=cas2_dims, seed=seeds, shape=st.sampled_from(((), (1,), (3,), (2, 3))))
def test_two_cas2_give_n_squared_times_the_table(N, seed, shape):
    # H (H G^T H)^T H = H H G H H = N^2 G, as H is symmetric with H H = N I; leading axes a batch
    rng = np.random.default_rng(seed)
    G = rng.normal(size=shape + (N, N)) + 1j * rng.normal(size=shape + (N, N))
    out = _cas2(_cas2(G))
    assert out.shape == G.shape
    assert np.abs(out / N**2 - G).max() <= 1e-14 * np.abs(G).max()


@SETTINGS
@example(N=45)
@given(N=cas2_dims)
def test_the_kernel_of_k_is_the_vacuum_wigner_grid(N):
    # the phase-space kernel of the W->H multiplier K is the vacuum's Wigner grid over N,
    # a distribution summing to 1: Husimi = Wigner smoothed by the vacuum's Wigner function
    p = _cas2(kernel_table(N)).T / N**2
    assert np.abs(p - phase_fn(fock_projector(0, N), 0).grid / N).max() <= 1e-15
    assert abs(p.sum() - 1) <= 1e-14


@SETTINGS
@example(N=45)
@given(N=cas2_dims)
def test_depolarizer_is_the_transform_of_unit_weights(N):
    # the multiplier of the weights 1 is N at the origin and 0 elsewhere, a real table of
    # its own N^2 doubles, and its kernel over N gives the weights back
    M = schwinger._depolarizer(N)
    assert M.dtype == np.float64 and M.base is None and M.nbytes == 8 * N * N
    ks = labels(N)
    assert np.abs(M - N * (ks[:, None] == 0) * (ks == 0)).max() <= 1e-15 * N
    assert np.abs(_cas2(M) / N - 1).max() <= 1e-14


@SETTINGS
@example(N=61, s=1 + 0j)
@example(N=31, s=-2 + 0.5j)
@given(N=odd_dims, s=st.builds(complex, st.floats(-2, 2), st.floats(-2, 2)))
def test_kernel_power_is_bitwise_even_in_each_label(N, s):
    # the precondition of the cas product: every K^(-s) it multiplies by, |s| up to the 2
    # of an order difference, equals its reflection in each label bit for bit
    P = schwinger._kernel_power(s, N)
    for flipped in (P[::-1], P[:, ::-1]):
        assert np.ascontiguousarray(flipped).tobytes() == P.tobytes()


@pytest.mark.parametrize("N", (1, 3, 5, 9, 15, 31, 61, 251))
def test_hartley_table_is_symmetric_and_squares_to_n(N):
    H = _hartley(N)
    assert H.dtype == float and not H.flags.writeable
    assert np.array_equal(H, H.T)
    ks = labels(N)
    angle = 2 * np.pi * np.outer(ks, ks) / N
    assert np.abs(H - (np.cos(angle) + np.sin(angle))).max() <= TOL
    # each entry of H H sums N products of cas values
    assert np.abs(H @ H - N * np.eye(N)).max() <= TOL * N


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


@pytest.mark.parametrize("N", (3, 5, 7, 31))
@pytest.mark.parametrize("s", (1, 0))
@pytest.mark.parametrize("pure", (False, True))
def test_smooth_marginal_on_every_line(N, s, pure):
    # a line sum of F^(s), smoothed, is the same line sum of F^(s-1): on the
    # sheared rays as on the axes
    rho = state(N, 7 * N, pure)
    F, G = phase_fn(rho, s), phase_fn(rho, s - 1)
    for za, zb in [(1, k) for k in range(N)] + [(0, 1), (2, 1)]:
        for radon in (radon_q, radon_r):
            out = smooth_marginal(radon(F, za, zb))
            assert (out.s, out.line) == (s - 1, (za, zb))
            assert np.abs(out.values - radon(G, za, zb).values).max() <= bound(N, s)


rays = st.tuples(st.integers(-4, 4), st.integers(-4, 4))


@SETTINGS
@given(N=st.sampled_from(DIMS[1:]), seed=seeds, pure=st.booleans(), s=orders, z=rays)
def test_ray_inversion_matches_scalar_dft(N, seed, pure, s, z):
    za, zb = z
    assume(za % N or zb % N)  # (0, 0) mod N is not a line
    rho = state(N, seed, pure)
    F = phase_fn(rho, s)
    # the line sums are a Fourier slice of F's characteristic function, so
    # the inversion lands on Xi^(s) at the reduced ray labels
    ts, ell = labels(N), half_width(N)
    Xi = char_fn(rho, s).grid[center_mod(za * ts, N) + ell, center_mod(zb * ts, N) + ell]
    q = radon_q(F, za, zb)
    fast = char_from_radon_q(q, za, zb, N)
    assert np.abs(fast - oracle.ray_invert(q, za, zb, N)).max() <= bound(N, s)
    assert np.abs(fast - Xi).max() <= bound(N, s)
    r = radon_r(F, za, zb)
    fast = char_from_radon_r(r, za, zb, N)
    assert np.abs(fast - oracle.ray_invert(r, za, zb, N)).max() <= bound(N, s)
    assert np.abs(fast - Xi).max() <= bound(N, s)


@SETTINGS
@given(N=st.sampled_from(DIMS[1:]), seed=seeds, pure=st.booleans(), s=orders, z=rays)
def test_line_sums_match_mask_loop(N, seed, pure, s, z):
    za, zb = z
    assume(za % N or zb % N)
    F = phase_fn(state(N, seed, pure), s)
    for radon, axis in ((radon_q, "Q"), (radon_r, "R")):
        dist = radon(F, za, zb)
        assert (dist.axis, dist.line, dist.s) == (axis, (za, zb), F.s)
        assert np.abs(dist.values - oracle.line_sums(F, za, zb)).max() <= bound(N, s)


primes = st.sampled_from((3, 5, 7, 11, 13, 31))


@pytest.mark.parametrize("N", (1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31, 45, 105))
def test_ray_cells_are_the_projective_line(N):
    # one ray per class of primitive cells under unit multiples, N prod (1 + 1/p)
    # of them, and every dual cell on a ray; at prime N, (1, 0..N-1) then (0, 1)
    rays, pos, twist = tomography._ray_cells(N)
    rows, cols = np.divmod(pos, N)
    cover = oracle.ray_cover(N)
    hit = [next(c for c in cover if (a, b) in c) for a, b in rays.tolist()]
    assert len(set(hit)) == len(hit) == len(cover)
    prime_divisors = [p for p in range(3, N + 1, 2) if N % p == 0 and all(p % d for d in range(3, p, 2))]
    assert len(rays) == round(N * math.prod(1 + 1 / p for p in prime_divisors))
    covered = np.zeros((N, N), dtype=bool)
    covered[rows, cols] = True
    assert covered.all()
    # the shot route's twist (-1)^(eta xi) at the centered labels of each cell
    ell = half_width(N)
    assert np.array_equal(twist, (-1.0) ** ((rows - ell) * (cols - ell)))
    # CRT keeps the affine representatives: (1, k) is a ray for every k mod N
    assert sorted(b for a, b in rays.tolist() if a == 1 % N) == list(range(N))
    if prime_divisors == [N]:
        assert rays.tolist() == [[1, k] for k in range(N)] + [[0, 1]]


@SETTINGS
@given(N=primes, seed=seeds, pure=st.booleans())
def test_ray_sums_match_radon_on_every_ray(N, seed, pure):
    # the N + 1 line sums of the reconstruction, as one Fourier-slice gather
    rho = state(N, seed, pure)
    F = phase_fn(rho, 0)
    rays = tomography._ray_cells(N)[0]
    assert [tuple(z) for z in rays] == [(1, k) for k in range(N)] + [(0, 1)]
    sums = tomography._ray_sums(char_fn(rho, 0).grid)
    for (za, zb), row in zip(rays[:-1], sums[:-1]):
        assert np.abs(row - radon_q(F, za, zb).values).max() <= 1e-13
    assert np.abs(sums[-1] - radon_r(F, 0, 1).values).max() <= 1e-13


@SETTINGS
@given(N=primes, seed=seeds, pure=st.booleans())
def test_reconstruct_wigner_matches_ray_loop(N, seed, pure):
    rho = state(N, seed, pure)
    Xi, vals, rebuilt = tomography._ray_loop(rho, None, None)
    W = tomography.reconstruct_wigner(rho)
    W_loop, rays = oracle.ray_loop(rho)
    assert np.array_equal(tomography._ray_cells(N)[0], [z for z, _ in rays])
    assert np.abs(vals - np.array([v for _, v in rays])).max() <= TOL
    assert np.abs(W.grid - W_loop.grid).max() <= TOL
    # one gather of the traces at K^0 = 1: the characteristic grid, bit for bit,
    # whose DFT is the Wigner grid `qps tomo` compares against
    assert np.array_equal(Xi, char_fn(rho, 0).grid)
    assert np.array_equal(_dft2(Xi), phase_fn(rho, 0).grid)
    # and the reconstruction is the one 2-D DFT of the rebuilt dual plane
    assert np.array_equal(W.grid, _dft2(rebuilt))


@pytest.mark.parametrize("N", (3, 5, 7, 11, 13, 31))
@pytest.mark.parametrize("pure", (False, True))
def test_reconstruct_wigner_with_shots_matches_ray_loop(N, pure):
    # fixed inputs: the two routes' line sums differ in the last bits, which
    # can flip a multinomial draw where a probability sits on a tie
    rho = state(N, 11 * N, pure)
    W = tomography.reconstruct_wigner(rho, 10_000, np.random.default_rng(N))
    W_loop, _ = oracle.ray_loop(rho, 10_000, np.random.default_rng(N))
    assert np.abs(W.grid - W_loop.grid).max() <= TOL


@SETTINGS
@given(N=primes, seed=seeds, pure=st.booleans(), shots=st.integers(1, 10**6))
def test_batched_draw_matches_sequential_draws(N, seed, pure, shots):
    # one multinomial call on the (N + 1, N) stack draws the rows in order
    sums = tomography._ray_sums(char_fn(state(N, seed, pure), 0).grid)
    batched = tomography._draw(sums.real, shots, np.random.default_rng(seed))
    rng = np.random.default_rng(seed)
    one_by_one = [tomography._draw(row, shots, rng) for row in sums.real]
    assert np.array_equal(batched, one_by_one)
    assert np.abs(batched.sum(axis=1) - math.sqrt(N)).max() <= 1e-12
    # through the whole route: each sampled ray's origin value is its sum / N
    vals = tomography._ray_loop(state(N, seed, pure), shots, np.random.default_rng(seed))[1]
    assert np.abs(N * vals[:, half_width(N)] - math.sqrt(N)).max() <= 1e-12


@SETTINGS
@given(N=dims, seed=seeds)
def test_schwinger_expansion_matches_basis_loops(N, seed):
    O = operator(N, seed)
    C = decompose_schwinger(O)
    assert np.abs(C - oracle.decompose_schwinger(O)).max() <= TOL
    C2 = operator(N, seed + 1)
    assert np.abs(reconstruct_schwinger(C2) - oracle.reconstruct_schwinger(C2)).max() <= TOL
    assert np.abs(reconstruct_schwinger(C) - O).max() <= TOL


@SETTINGS
@given(N=family_dims, s=orders)
def test_t_family_matches_einsum(N, s):
    fam = t_family(s, N)
    assert not fam.flags.writeable
    assert np.abs(fam - oracle.t_family(s, N)).max() <= bound(N, s)


@SETTINGS
@given(N=st.sampled_from(DISPLACEMENT_DIMS), s=orders, raw=st.tuples(raw_labels, raw_labels))
def test_displaced_kernels_match_unit_grid_family(N, s, raw):
    # every label pair and one raw pair against the family the library read
    # before the displacement law; then the rank-1 spectrum check that its
    # coherent projector ran on every call, moved here
    ell, ks = half_width(N), labels(N)
    pairs = [(mu, nu) for mu in ks for nu in ks] + [raw]
    for order in (s, -1):
        ref = oracle.t_family_units(order, N)
        tol = 1e-13 * np.abs(ref).max()
        assert np.abs(t_family(order, N) - ref).max() <= tol
        for mu, nu in pairs:
            T = ref[center_mod(mu, N) + ell, center_mod(nu, N) + ell]
            assert np.abs(t_op(mu, nu, order, N) - T).max() <= tol
    # ref and tol now belong to s = -1, whose kernels are the coherent projectors
    for mu, nu in pairs:
        P = coherent_projector(mu, nu, N)
        assert np.abs(P - ref[center_mod(mu, N) + ell, center_mod(nu, N) + ell]).max() <= tol
        assert np.abs(P - P.conj().T).max() <= 1e-10
        w = np.linalg.eigvalsh(P)
        assert abs(w[-1] - 1) <= 1e-10 and np.abs(w[:-1]).max(initial=0.0) <= 1e-10


@SETTINGS
@given(N=family_dims, seed=seeds, s=orders)
def test_t_expansions_match_einsum(N, seed, s):
    O, grid = operator(N, seed), operator(N, seed + 1)
    coeffs = np.einsum("mnij,ji->mn", oracle.t_family(-s, N), O)
    assert np.abs(decompose_t(O, s) - coeffs).max() <= bound(N, -s)
    rebuilt = np.einsum("mn,mnij->ij", grid, oracle.t_family(s, N)) / N
    assert np.abs(reconstruct_t(grid, s) - rebuilt).max() <= bound(N, s)


@pytest.mark.parametrize("N", (1, 3, 7, 9))
@pytest.mark.parametrize("s", (1, 0, -1, 0.3 - 0.6j))
def test_core_batch_axes_match_per_state_calls(N, s):
    # a (B, N, N) stack of states and one non-Hermitian operator against one
    # call per slice; K^(-1) is the largest kernel power in play
    tol = bound(N, 1)
    rhos = np.array([state(N, seed, bool(seed % 2)) for seed in range(3)] + [operator(N, 3)])
    grids = np.array([operator(N, seed) for seed in range(4, 8)])
    Xi, F = char_fn(rhos, s), phase_fn(rhos, s)
    assert Xi.dim == F.dim == N
    assert Xi.grid.shape == F.grid.shape == rhos.shape
    C, D, R = decompose_schwinger(rhos), decompose_t(rhos, s), reconstruct_t(grids, s)
    E = expectation(grids, rhos, s)
    assert E.shape == (len(rhos),)
    P = depolarize(rhos, 0.4)
    assert P.shape == rhos.shape
    for b, (rho, grid) in enumerate(zip(rhos, grids)):
        assert np.abs(Xi.grid[b] - char_fn(rho, s).grid).max() <= tol
        assert np.abs(F.grid[b] - phase_fn(rho, s).grid).max() <= tol
        assert np.abs(C[b] - decompose_schwinger(rho)).max() <= tol
        assert np.abs(D[b] - decompose_t(rho, s)).max() <= tol
        assert np.abs(R[b] - reconstruct_t(grid, s)).max() <= tol
        assert abs(E[b] - expectation(grid, rho, s)) <= N * tol
        assert np.abs(P[b] - depolarize(rho, 0.4)).max() <= tol
    # the round trip checks the trace of every slice: the operator's is not 1
    assert np.abs(reconstruct_rho(phase_fn(rhos[:3], s)) - rhos[:3]).max() <= tol
    with pytest.raises(FormalismViolation):
        reconstruct_rho(F)


@pytest.mark.parametrize("N", FAMILY_DIMS)
def test_symplectic_generators_match_basis_loop(N):
    # every Omega in [-N, N], composite N included: C's raw labels
    # (1 - Omega) * xi leave [-ell, ell] and wrap, N and M see both parities
    # of Omega, and a non-invertible Omega makes C a singular dilation
    pairs = (
        (symplectic_c, oracle.symplectic_c),
        (symplectic_n, oracle.symplectic_n),
        (symplectic_m, oracle.symplectic_m),
    )
    for omega in range(-N, N + 1):
        params = SimpleNamespace(N=N, omegas=(omega, omega, omega))
        for closed, loop in pairs:
            assert np.abs(closed(params) - loop(params)).max() <= TOL


@st.composite
def symplectic_params(draw):
    """A random SymplecticParams at prime N from unreduced z2, z3, z4."""
    N = draw(primes)
    z2, z3 = draw(raw_labels), draw(raw_labels)
    z4 = draw(raw_labels.filter(lambda z: z % N))
    q = (1 + z2 * z3) % N
    assume(q)
    return SymplecticParams(q * pow(z4, -1, N), z2, z3, z4, N)


@SETTINGS
@given(params=symplectic_params())
def test_symplectic_j_gather_is_the_clifford_map(params):
    # J from one gather: unitary, the dense product of the basis sums, and
    # for every label pair x, J S(x) J^dag = +-S(Mx), Mx reduced mod N.  The
    # sign is (-1)^(eta xi + eta' xi') for x = (eta, xi), Mx = (eta', xi'):
    # S(x) = (-1)^(eta xi) D(x) / sqrt(N) with D(x) = w^(eta xi / 2) U^eta V^xi,
    # 1/2 taken mod N, and J D(x) J^dag = D(Mx) carries no sign
    N, z = params.N, params.matrix()
    J = symplectic_j(params)
    assert np.abs(J @ J.conj().T - np.eye(N)).max() <= TOL
    assert np.abs(J - oracle.symplectic_j(params)).max() <= TOL
    eta, xi = (a.ravel() for a in np.meshgrid(labels(N), labels(N), indexing="ij"))
    e2, x2 = center_mod(z[0, 0] * eta + z[0, 1] * xi, N), center_mod(z[1, 0] * eta + z[1, 1] * xi, N)
    lhs = J @ s_op(eta, xi, N) @ J.conj().T
    sign = (-1.0) ** (eta * xi + e2 * x2)
    assert np.abs(lhs - sign[:, None, None] * s_op(e2, x2, N)).max() <= TOL


@SETTINGS
@given(N=family_dims, seed=seeds, omega=st.floats(-1.0, 1.0))
def test_conjugation_average_matches_loop(N, seed, omega):
    # depolarize is the conjugation average under the weights |K^(-i omega)|^2 = 1
    O = operator(N, seed)
    ref = oracle.conjugation_average(O, np.abs(kernel_table(N) ** (-1j * omega)) ** 2)
    assert np.abs(depolarize(O, omega) - ref).max() <= TOL * N


@SETTINGS
@given(N=teleport_dims, w=bell_labels)
def test_bell_state_matches_kron(N, w):
    psi = bell_state(BellLabel(*w), N)
    assert np.abs(psi - oracle.bell_state(w, N)).max() <= TOL


@SETTINGS
@given(N=teleport_dims, seed=seeds, pure=st.booleans(), w=bell_labels)
def test_teleport_matches_dense_protocol(N, seed, pure, w):
    rho = state(N, seed, pure)
    rho3, p = teleport(rho, *w)
    ref3, ref_p = oracle.teleport(rho, *w)
    assert abs(p - ref_p) <= TOL
    assert np.abs(rho3 - ref3).max() <= TOL


@SETTINGS
@given(N=teleport_dims, mn=st.tuples(*[raw_labels] * 4), s1=orders, s2=orders)
def test_theta_coeffs_match_bell_loop(N, mn, s1, s2):
    C = theta_coeffs(*mn, s1, s2, N)
    assert np.abs(C - oracle.theta_coeffs(*mn, s1, s2, N)).max() <= bound2(N, s1, s2)


@SETTINGS
@given(N=teleport_dims, seed=seeds, pure=st.booleans(), s1=orders, s2=orders)
def test_bipartite_phase_fn_matches_einsum(N, seed, pure, s1, s2):
    rho = state(N * N, seed, pure)
    F = bipartite_phase_fn(rho, s1, s2)
    assert (F.s1, F.s2) == (complex(s1), complex(s2))
    assert np.abs(F.grid - oracle.bipartite_phase_fn_grid(rho, s1, s2)).max() <= bound2(N, s1, s2)


def two_mode_operator(N, seed, kind, wa, wb):
    """A pure or mixed state on the doubled space, or a (non-Hermitian) Bell dyad."""
    if kind == "dyad":
        return np.outer(oracle.bell_state(wa, N), oracle.bell_state(wb, N).conj())
    return state(N * N, seed, kind == "pure")


@SETTINGS
@given(N=teleport_dims, seed=seeds, kind=st.sampled_from(("pure", "mixed", "dyad")),
       wa=bell_labels, wb=bell_labels, s1=orders, s2=orders)
@example(N=1, seed=0, kind="mixed", wa=(0, 0), wb=(0, 0), s1=0j, s2=0j)
@example(N=3, seed=1, kind="dyad", wa=(1, 0), wb=(0, -1), s1=1 + 0j, s2=-1 + 0j)
@example(N=5, seed=2, kind="pure", wa=(0, 0), wb=(0, 0), s1=0.3 + 0.4j, s2=-0.6j)
@example(N=7, seed=3, kind="dyad", wa=(2, -3), wb=(-1, 1), s1=-0.5 + 0.5j, s2=0j)
@example(N=9, seed=4, kind="mixed", wa=(0, 0), wb=(0, 0), s1=-1 + 0j, s2=1 + 0j)
def test_bipartite_phase_fn_matches_core_oracle(N, seed, kind, wa, wb, s1, s2):
    # one gather and six products against the per-mode trace gathers and
    # batched 2-D DFTs they replaced, and against the einsum over two families
    op = two_mode_operator(N, seed, kind, wa, wb)
    grid = bipartite_phase_fn(op, s1, s2).grid
    assert grid.shape == (N,) * 4
    tol = bound2(N, s1, s2)
    assert np.abs(grid - oracle.bipartite_phase_fn_core(op, s1, s2)).max() <= tol
    assert np.abs(grid - oracle.bipartite_phase_fn_grid(op, s1, s2)).max() <= tol


@SETTINGS
@given(N=teleport_dims, wa=bell_labels, wb=bell_labels, s1=orders, s2=orders)
def test_upsilon_coeffs_match_einsum(N, wa, wb, s1, s2):
    dyad = np.outer(oracle.bell_state(wa, N), oracle.bell_state(wb, N).conj())
    ref = oracle.bipartite_phase_fn_grid(dyad, -s1, -s2)
    assert np.abs(upsilon_coeffs(wa, wb, s1, s2, N) - ref).max() <= bound2(N, -s1, -s2)


@SETTINGS
@given(N=teleport_dims, seed=seeds, pure=st.booleans(), w=bell_labels, s1=orders, s3=orders)
def test_lambda_coeffs_match_r_kernel(N, seed, pure, w, s1, s3):
    # F1 carries K^(s1), and the transfer multiplies by K^(s3 - s1)
    F1 = phase_fn(state(N, seed, pure), -s1)
    ref = oracle.lambda_coeffs(F1, *w, s3)
    assert np.abs(lambda_coeffs(F1, *w, s3) - ref).max() <= bound2(N, -s1, s1 - s3)


@SETTINGS
@example(N=1, seed=0, pure=True, w=(0, 0), s1=1 + 0j, s3=-1 + 0j)
@example(N=31, seed=1, pure=False, w=(-10**6, 10**6 + 3), s1=0.6 - 0.8j, s3=-1 + 0j)
@given(N=st.sampled_from(DIMS + (7, 17)), seed=seeds, pure=st.booleans(),
       w=st.tuples(*[st.integers(-10**6, 10**6)] * 2), s1=orders, s3=orders)
def test_lambda_coeffs_match_the_phase_multiplier_route(N, seed, pure, w, s1, s3):
    # the product by the even K^(s3 - s1) and a translation by (alpha, -beta) in place of
    # one multiplier with the shift phase, at labels of any range
    rho = state(N, seed, pure)
    F1 = phase_fn(rho, -s1)
    ref = oracle.phase_multiplier_lambda_coeffs(F1, *w, s3)
    assert np.abs(lambda_coeffs(F1, *w, s3) - ref).max() <= bound2(N, -s1, s1 - s3)
    if N <= 9:  # the receiver state rebuilt from the coefficients carries a third power, K^(-s3)
        tol = bound2(N, -s1, s1 - s3) * bound(N, s3) / TOL
        assert np.abs(teleport_via_coeffs(rho, *w, s1, s3) - teleport(rho, *w)[0]).max() <= tol


CIRCUIT_DIMS = (1, 3, 5, 9)
batch_shapes = st.sampled_from(((), (1,), (4,), (2, 3)))


def square(N, rng, unitary):
    A = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    return np.linalg.qr(A)[0] if unitary else A


def circuit_tol(U, rho):
    # the dense circuit sums products of I + U, rho and I + U^dag
    N = rho.shape[0]
    return TOL * N * (1 + np.abs(U).max()) ** 2 * max(1.0, np.abs(rho).max())


@SETTINGS
@given(
    N=st.sampled_from(CIRCUIT_DIMS),
    seed=seeds,
    unitary=st.booleans(),
    hermitian=st.booleans(),
    shape=batch_shapes,
)
def test_scattering_circuit_matches_dense_kron(N, seed, unitary, hermitian, shape):
    rng = np.random.default_rng(seed)
    rho = state(N, seed, False) if hermitian else operator(N, seed)
    Us = np.array([square(N, rng, unitary) for _ in range(math.prod(shape))])
    Us = Us.reshape(shape + (N, N))
    sz, sy = scattering_circuit(rho, unitary=Us)
    if shape == ():
        assert type(sz) is float and type(sy) is float
    else:
        assert sz.shape == sy.shape == shape
    for idx in np.ndindex(shape):
        ref = oracle.scattering_circuit(rho, Us[idx])
        tol = circuit_tol(Us[idx], rho)
        assert abs(np.asarray(sz)[idx] - ref[0]) <= tol
        assert abs(np.asarray(sy)[idx] - ref[1]) <= tol


@SETTINGS
@given(N=st.sampled_from((1, 3)), seed=seeds, labels4=st.tuples(*[raw_labels] * 4))
def test_scattering_circuit_bipartite_product_unitary(N, seed, labels4):
    e1, x1, e2, x2 = labels4
    rho = state(N * N, seed, False)
    U = np.kron(math.sqrt(N) * s_op(e1, x1, N), math.sqrt(N) * s_op(e2, x2, N))
    sz, sy = scattering_circuit(rho, unitary=U)
    ref = oracle.scattering_circuit(rho, U)
    assert abs(sz - ref[0]) <= TOL and abs(sy - ref[1]) <= TOL
    assert abs(complex(sz, sy) - np.trace(U @ rho)) <= TOL


@pytest.mark.parametrize("N", CIRCUIT_DIMS)
def test_scattering_circuit_label_rows(N):
    # array labels give one readout per label pair, equal to the scalar calls
    rho = state(N, N, False)
    ks = labels(N)
    sz, sy = scattering_circuit(rho, ks[:, None], ks)
    Xi = math.sqrt(N) * char_fn(rho, 0).grid
    assert np.abs(sz + 1j * sy - Xi).max() <= TOL
    for i, eta in enumerate(ks):
        for j, xi in enumerate(ks):
            ref = scattering_circuit(rho, int(eta), int(xi))
            assert abs(complex(sz[i, j], sy[i, j]) - complex(*ref)) <= TOL


LABEL_CIRCUIT_DIMS = (1, 3, 5, 9, 15, 31)
label_shapes = st.sampled_from(("scalar", "row", "broadcast"))


@SETTINGS
@given(N=st.sampled_from(LABEL_CIRCUIT_DIMS), seed=seeds, hermitian=st.booleans(), shape=label_shapes, data=st.data())
def test_scattering_circuit_labels_match_dense_oracle(N, seed, hermitian, shape, data):
    # raw labels in [-3N, 3N] carry the quasi-periodic signs of S(eta, xi),
    # which the label route reads without building S
    raw = st.integers(-3 * N, 3 * N)
    rho = state(N, seed, False) if hermitian else operator(N, seed)
    if shape == "scalar":
        eta, xi = data.draw(raw), data.draw(raw)
    elif shape == "row":
        eta, xi = data.draw(raw), np.array(data.draw(st.lists(raw, min_size=1, max_size=5)))
    else:
        eta = np.array(data.draw(st.lists(raw, min_size=1, max_size=3)))[:, None]
        xi = np.array(data.draw(st.lists(raw, min_size=1, max_size=4)))
    sz, sy = scattering_circuit(rho, eta, xi)
    out_shape = np.broadcast(eta, xi).shape
    if shape == "scalar":
        assert type(sz) is float and type(sy) is float
    else:
        assert sz.shape == sy.shape == out_shape
    for idx in np.ndindex(out_shape):
        e, x = (int(np.broadcast_to(a, out_shape)[idx]) for a in (eta, xi))
        U = math.sqrt(N) * oracle.s_op(e, x, N)
        ref = oracle.scattering_circuit(rho, U)
        tol = circuit_tol(U, rho)
        assert abs(np.asarray(sz)[idx] - ref[0]) <= tol
        assert abs(np.asarray(sy)[idx] - ref[1]) <= tol


def traced_peak(route, *args):
    tracemalloc.start()
    try:
        route(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_scattering_circuit_labels_build_no_dense_operator():
    # one scalar readout holds O(N) temporaries: under a quarter of one dense
    # N x N complex matrix, so a dense S(eta, xi) build cannot come back
    N = 251
    rho = state(N, 0, False)
    scattering_circuit(rho, 1, 2)  # builds the cached phase table
    assert traced_peak(scattering_circuit, rho, 7, -5) < N**2 * 16 / 4
    # the whole dual plane in one call stays O(N^2), where a stack of its
    # S(eta, xi) would take N^2 dense matrices
    N = 31
    rho, ks = state(N, 0, False), labels(N)
    scattering_circuit(rho, 1, 2)
    assert traced_peak(scattering_circuit, rho, ks[:, None], ks) < 16 * N**2 * 16


@pytest.mark.parametrize("N", (1, 3, 5, 9))
def test_s_op_on_raw_label_arrays(N):
    raw = np.arange(-3 * N, 3 * N + 1)
    S = s_op(raw[:, None], raw, N)
    assert S.shape == (raw.size, raw.size, N, N)
    # the array route and scalar calls repeat the per-call build bit for bit
    for i, eta in enumerate(raw):
        for j, xi in enumerate(raw):
            ref = oracle.s_op(int(eta), int(xi), N)
            assert np.array_equal(S[i, j], ref)
            assert np.array_equal(s_op(int(eta), int(xi), N), ref)
    assert s_op(1, 2, N).shape == (N, N)
    assert s_op(raw, 0, N).shape == (raw.size, N, N)


@SETTINGS
@given(N=dims, t=orders, s=orders)
def test_t_overlap_grid_matches_scalar_loop(N, t, s):
    ks = labels(N)
    grid = t_overlap(t, s, ks[:, None], ks, N)
    assert grid.shape == (N, N)
    ref = np.array([[oracle.t_overlap(t, s, a, b, N) for b in ks] for a in ks])
    assert np.abs(grid - ref).max() <= bound(N, t + s)
    # scalar offsets give a complex; raw offsets reduce mod N
    assert type(t_overlap(t, s, 1, -1, N)) is complex
    assert np.array_equal(t_overlap(t, s, ks + 2 * N, ks - N, N), np.diagonal(grid))


@SETTINGS
@given(
    N=st.sampled_from(GAMMA_DIMS),
    data=st.data(),
    mn=st.tuples(raw_labels, raw_labels),
    s=orders,
)
def test_t_matrix_element_matches_gamma_table(N, data, mn, s):
    m, n = (data.draw(st.integers(0, N - 1)) for _ in range(2))
    value = t_matrix_element(m, n, *mn, s, N)
    assert type(value) is complex
    assert abs(value - oracle.t_matrix_element(m, n, *mn, s, N)) <= bound(N, s)


def test_t_family_cache_is_bounded():
    rng = np.random.default_rng(5)
    for _ in range(20):
        t_family(complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)), 3)
    assert schwinger._t_family.cache_info().currsize <= 8


def test_gamma_table_builds_near_its_result():
    # one row of dyads at a time: no N^4 temporary beside the result
    N = 31
    fock_coefficients(N)
    tracemalloc.start()
    try:
        G = gamma_table(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * G.nbytes


def test_gamma_table_cache_is_bounded():
    # no library route reads the table, so no call keeps one alive
    refs = [weakref.ref(gamma_table(N)) for N in range(1, 21, 2)]
    gc.collect()
    assert all(ref() is None for ref in refs)


def selftest(capsys, N):
    code = cli.main(["selftest", "--dim", str(N)])
    return code, capsys.readouterr().out


# the P->W check starts from a Glauber grid, so no K^(-1) amplifies its round-off and
# its tolerance is 1e-10 at every N
@pytest.mark.parametrize("N", (1, 3, 9, 15, 25, 27, 61))
def test_selftest_passes_through_large_dims(capsys, N):
    code, out = selftest(capsys, N)
    assert code == 0
    assert "FAIL" not in out and f"OK: dim {N}" in out
    [p2w] = [line for line in out.splitlines() if "P->W" in line]
    assert p2w.endswith("(tol 1e-10)")


@pytest.mark.parametrize("N", (5, 9))
def test_selftest_family_checks_match_family_oracles(N):
    names = ("resolution of identity", "unit kernel traces", "kernel orthogonality")
    residuals = {name: r for name, r, _ in cli._selftest_checks(N)}
    for name, ref in zip(names, oracle.selftest_family_residuals(N)):
        assert abs(residuals[name] - ref) <= TOL


def bump_last(route):
    # a fault of 1e-6 in the last entry of the route's result, far above round-off
    def faulty(*args, **kwargs):
        out = np.array(route(*args, **kwargs))
        out[(-1,) * out.ndim] += 1e-6
        return out

    return faulty


def bump_at_order(route, order):
    # the fault of `bump_last` only on calls at the given order (the last argument)
    faulty_route = bump_last(route)

    def faulty(*args):
        return (faulty_route if args[-1] == order else route)(*args)

    return faulty


def flip_sy(*args, **kwargs):
    # a circuit reading -Im instead of +Im
    sz, sy = scattering_circuit(*args, **kwargs)
    return sz, -sy


def smooth_by_k_squared(P):
    # a P->W step multiplying by K^2 in place of K
    return PhaseSpaceFunction(0, smooth_p_to_h(P).grid)


# the other self-test lines that read the route under the parametrized fault
ALSO_READS = {
    ("reconstruct_t", "resolution of identity"): ("coherent vacuum", "hierarchy smoothing P->W"),
    ("reconstruct_t", "coherent vacuum"): ("hierarchy smoothing P->W",),
}


@pytest.mark.parametrize(
    "route, fault, line",
    [
        ("reconstruct_t", bump_last(reconstruct_t), "resolution of identity"),
        ("reconstruct_t", bump_at_order(reconstruct_t, -1), "coherent vacuum"),
        ("decompose_t", bump_last(decompose_t), "unit kernel traces"),
        ("t_overlap", bump_last(t_overlap), "kernel orthogonality"),
        ("scattering_circuit", flip_sy, "scattering circuit"),
        ("smooth_p_to_w", smooth_by_k_squared, "hierarchy smoothing P->W"),
    ],
)
def test_selftest_fails_on_faulty_route(capsys, monkeypatch, route, fault, line):
    # every label pair is checked: a fault at the last one fails that check, and only it.
    # The coherent vacuum and P->W lines read reconstruct_t too, at order -1, so a fault
    # there fails them as well
    monkeypatch.setattr(cli, route, fault)
    code, out = selftest(capsys, 31)
    assert code == 1
    failed = [text[len("[FAIL] "):].split(":")[0] for text in out.splitlines() if text.startswith("[FAIL]")]
    assert sorted(failed) == sorted({line, *ALSO_READS.get((route, line), ())})
