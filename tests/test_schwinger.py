"""Clock/shift pair, the symmetrized operator basis, and the kernel family."""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import loop_oracles as oracle
from qps import schwinger
from qps.lattice import half_width, labels, center_mod, dagger
from qps.theta import kernel_table, _log_kernel, _log_quadrant, _kernel_orbits, _mirror
from qps.quasiprob import phase_fn, reconstruct_rho
from qps.schwinger import (
    check_order,
    u_matrix,
    v_matrix,
    s_op,
    s_op_ordered,
    t_op,
    t_family,
    t_overlap,
    decompose_schwinger,
    reconstruct_schwinger,
    decompose_t,
    reconstruct_t,
    depolarize,
)

DIMS = (3, 5, 7)
ORDERS = (-1, -0.5, 0, 0.5, 1, 0.5j)


def test_check_order_bounds():
    assert check_order(1) == 1 + 0j
    assert check_order(0.5j) == 0.5j
    with pytest.raises(ValueError):
        check_order(1.5)
    with pytest.raises(ValueError):
        check_order(1j + 1)


@pytest.mark.parametrize("s", (np.nan, np.inf, -np.inf, complex(0, np.nan), complex(np.inf, 0)))
def test_check_order_rejects_non_finite(s):
    # a NaN order passed |s| <= 1 and gave an all-NaN grid
    with pytest.raises(ValueError, match="must be finite"):
        check_order(s)
    with pytest.raises(ValueError, match="must be finite"):
        phase_fn(np.eye(3) / 3, s)


@pytest.mark.parametrize("N", DIMS)
def test_clock_shift_algebra(N):
    U, V = u_matrix(N), v_matrix(N)
    w = np.exp(-2j * np.pi / N)
    assert np.abs(U @ V - w * V @ U).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(U, N) - np.eye(N)).max() < 1e-12
    assert np.abs(np.linalg.matrix_power(V, N) - np.eye(N)).max() < 1e-12


@pytest.mark.parametrize("N", DIMS)
def test_s_op_unitary_and_adjoint_identity(N):
    for eta in labels(N):
        for xi in labels(N):
            S = s_op(eta, xi, N)
            assert np.abs(N * S @ dagger(S) - np.eye(N)).max() < 1e-12
            assert np.abs(dagger(S) - s_op(-eta, -xi, N)).max() < 1e-12


@pytest.mark.parametrize("N", DIMS)
def test_s_op_trace_orthogonality(N):
    for e1 in labels(N):
        for x1 in labels(N):
            A = s_op(e1, x1, N)
            for e2 in labels(N):
                for x2 in labels(N):
                    tr = np.trace(dagger(A) @ s_op(e2, x2, N))
                    expect = 1.0 if (e1, x1) == (e2, x2) else 0.0
                    assert abs(tr - expect) < 1e-12


def test_s_op_quasi_periodicity():
    for N in DIMS:
        for eta, xi in [(0, 1), (1, 2), (2, 2), (-1, 1)]:
            S = s_op(eta, xi, N)
            assert np.abs(s_op(eta + N, xi, N) - (-1) ** xi * S).max() < 1e-12
            assert np.abs(s_op(eta, xi + N, N) - (-1) ** eta * S).max() < 1e-12


def test_s_op_rejects_non_integer_labels():
    # s_op(0.5, 0, 5) once returned a matrix that is no S(eta, xi)
    for eta, xi in ((0.5, 0), (0, 1.5), (np.array([1, 2.5]), 0), (np.nan, 0), (np.inf, 1)):
        with pytest.raises(ValueError, match="s_op labels must be integers"):
            s_op(eta, xi, 5)
    assert np.array_equal(s_op(2.0, -3.0, 5), s_op(2, -3, 5))


@pytest.mark.parametrize("N", (251, 501))
def test_reconstruct_t_of_ones_is_identity_to_round_off(N):
    # phases of angles up to pi N / 2 once left 2.9e-14 at N = 251 and 4.7e-14 at N = 501
    assert np.abs(reconstruct_t(np.ones((N, N)), 0) - np.eye(N)).max() < 5e-15


def test_s_op_ordered_weights():
    N = 5
    ell = half_width(N)
    K = kernel_table(N)
    for s in (0.5, -1, 0.5j):
        X = s_op_ordered(1, -2, s, N)
        assert np.abs(X - K[1 + ell, -2 + ell] ** (-s) * s_op(1, -2, N)).max() < 1e-12


@pytest.mark.parametrize("N", DIMS)
@pytest.mark.parametrize("s", ORDERS)
def test_t_family_resolution_trace_orthogonality(N, s):
    fam = t_family(s, N)
    # (i) resolution of the identity
    assert np.abs(fam.sum(axis=(0, 1)) / N - np.eye(N)).max() < 1e-10
    # (ii) unit trace
    traces = np.einsum("mnii->mn", fam)
    assert np.abs(traces - 1.0).max() < 1e-10
    # (iii) trace orthogonality against the dual order
    dual = t_family(-s, N)
    overlap = np.einsum("mnij,pqji->mnpq", dual, fam)
    expect = N * np.einsum("mp,nq->mnpq", np.eye(N), np.eye(N))
    assert np.abs(overlap - expect).max() < 1e-10


def test_t_family_hermiticity_under_order_conjugation():
    N = 5
    for s in (0.5j, 0.3 + 0.2j, -1):
        fam = t_family(s, N)
        famc = t_family(np.conj(complex(s)), N)
        for i in range(N):
            for j in range(N):
                assert np.abs(dagger(fam[i, j]) - famc[i, j]).max() < 1e-10


def test_t_op_mod_invariance():
    N = 5
    for mu, nu in [(1, 2), (-2, 0)]:
        T = t_op(mu, nu, 0.5, N)
        assert np.abs(t_op(mu + N, nu, 0.5, N) - T).max() < 1e-12
        assert np.abs(t_op(mu, nu - 2 * N, 0.5, N) - T).max() < 1e-12


def test_t_overlap_matches_direct_trace():
    N = 5
    for t, s in [(0, 0), (0, -1), (0.5, 0.5), (1, -1)]:
        for dmu, dnu in [(0, 0), (1, 0), (2, -1)]:
            direct = np.trace(t_op(0, 0, t, N) @ t_op(dmu, dnu, s, N))
            assert abs(t_overlap(t, s, dmu, dnu, N) - direct) < 1e-10


@pytest.mark.parametrize("N", DIMS)
def test_schwinger_decompose_reconstruct_roundtrip(N):
    rng = np.random.default_rng(11)
    O = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    C = decompose_schwinger(O)
    assert np.abs(reconstruct_schwinger(C) - O).max() < 1e-10


@pytest.mark.parametrize("s", (0, -0.5, 1, 0.5j))
def test_t_decompose_reconstruct_roundtrip(s):
    N = 5
    rng = np.random.default_rng(12)
    O = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
    grid = decompose_t(O, s)
    assert np.abs(reconstruct_t(grid, s) - O).max() < 1e-10


@pytest.mark.parametrize("N", (3, 5, 7, 9))
def test_depolarizer_collapses_to_trace(N):
    rng = np.random.default_rng(13)
    for _ in range(5):
        O = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        out = depolarize(O)
        assert np.abs(out - np.trace(O) * np.eye(N)).max() < 1e-10
        out_w = depolarize(O, omega=0.5)
        assert np.abs(out_w - np.trace(O) * np.eye(N)).max() < 1e-10


def signed_zeros(s):
    """s, then every complex equal to it that gives its zero parts either sign."""
    z = complex(s)
    return [s] + [complex(a, b) for a in ((z.real,) if z.real else (0.0, -0.0))
                  for b in ((z.imag,) if z.imag else (0.0, -0.0))]


@pytest.mark.parametrize("N", (3, 7))
def test_kernel_power_hit_has_the_bytes_of_a_miss(N):
    # 0j == -0j, yet exp(-s log K) differs in the signs of its zeros (tobytes()
    # sees them, array_equal does not): one key per order, whatever signs its
    # zero parts carry, holds the bytes of s with its zero parts made positive
    tables = (schwinger._kernel_power, schwinger._origin_kernel)
    for s in (0, 1, -1, 0.3 - 0.4j):
        ref = oracle.kernel_power(s, N).tobytes()
        first = {}
        for z in signed_zeros(s):
            for table in tables:
                table.cache_clear()
            assert schwinger._kernel_power(z, N).tobytes() == ref  # a miss
            for w in signed_zeros(s):  # hits
                assert schwinger._kernel_power(w, N).tobytes() == ref
            assert schwinger._kernel_power.cache_info()[1:] == (1, 8, 1)  # misses, maxsize, currsize
            table = schwinger._origin_kernel
            assert first.setdefault(table, table(z, N).tobytes()) == table(z, N).tobytes()


@pytest.mark.parametrize("N", (5, 9))
def test_a_round_of_orders_fills_one_key_per_order(N):
    # routes negate s, which once flipped the signs of its zeros and filled two keys per order
    rho = np.random.default_rng(N).normal(size=(N, N)) * (1 + 1j)
    rho = rho @ rho.conj().T / np.trace(rho @ rho.conj().T)
    schwinger._kernel_power.cache_clear()
    for s in (1, 0, -1):
        reconstruct_t(decompose_t(rho, s), s)
        reconstruct_rho(phase_fn(rho, s))
    assert schwinger._kernel_power.cache_info().currsize == 3


def test_kernel_power_cache_is_bounded_and_read_only():
    rng = np.random.default_rng(3)
    tables = [schwinger._kernel_power(complex(*rng.uniform(-0.7, 0.7, 2)), 5) for _ in range(20)]
    assert schwinger._kernel_power.cache_info().currsize <= 8
    assert not any(P.flags.writeable for P in tables)
    assert not schwinger._depolarizer(5).flags.writeable


# odd N <= 101, prime and composite, and orders |s| <= 1 whose parts may be signed zeros
odd_dims = st.integers(0, 50).map(lambda k: 2 * k + 1)
order_parts = st.one_of(st.sampled_from((0.0, -0.0, 1.0, -1.0)), st.floats(-1.0, 1.0))
orders = st.tuples(order_parts, order_parts).map(lambda p: complex(*p)).filter(lambda z: abs(z) <= 1)


def check_orbits(N):
    """The distinct log K values ascend, gather back to the bytes of the log table, and are read-only."""
    values, index = _kernel_orbits(N)
    assert np.all(np.diff(values) > 0)
    assert index.shape == (N, N) and index.dtype == np.int32
    assert values[index].tobytes() == _log_kernel(N).tobytes()
    assert not values.flags.writeable and not index.flags.writeable


@settings(max_examples=60, deadline=None)
@given(N=odd_dims, s=orders)
def test_kernel_power_has_the_bytes_of_one_exp_per_cell(N, s):
    # one exp per distinct log K value and a gather: equal cells take the exp of one input
    check_orbits(N)
    schwinger._kernel_power.cache_clear()
    assert schwinger._kernel_power(s, N).tobytes() == oracle.kernel_power(s, N).tobytes()


@pytest.mark.parametrize("N", (1, 3, 5, 61, 251, 1001))
def test_mirror_takes_equal_the_outer_product_index(N):
    # the quadrant reflected by two takes, bit for bit the np.ix_ index it replaced,
    # on the float log table and on the int32 index of its distinct values
    quadrant = _log_quadrant(N)
    index = np.unique(quadrant, return_inverse=True)[1].reshape(quadrant.shape).astype(np.int32)
    for q in (quadrant, index):
        out = _mirror(q)
        assert out.dtype == q.dtype and out.tobytes() == oracle.fancy_mirror(q).tobytes()
    assert _kernel_orbits(N)[1].tobytes() == oracle.fancy_mirror(index).tobytes()


@pytest.mark.parametrize("N", (1, 3, 5, 61, 251, 1001))
def test_log_table_from_one_quadrant_has_the_bytes_of_every_cell(N):
    # the quadrant eta, xi >= 0 is built and mirrored, and its values alone are sorted
    assert _log_kernel(N).tobytes() == oracle.log_kernel_every_cell(N).tobytes()


@pytest.mark.parametrize("N", (*range(1, 302, 2), 501, 1001, 1009))
def test_kernel_table_has_the_bytes_of_one_exp_per_cell(N):
    # K is one exp per distinct log K value and a gather, as every K^(-s) is;
    # the log table itself is built afresh and no longer cached beside them
    kernel_table.cache_clear()
    assert kernel_table(N).tobytes() == np.exp(_log_kernel(N)).tobytes()


@pytest.mark.parametrize("N", (251, 1001))
def test_kernel_power_has_the_bytes_of_one_exp_per_cell_at_large_n(N):
    # 6,062 distinct values of 63,001 cells at N = 251, 81,080 of 1,002,001 at N = 1001
    check_orbits(N)
    for s in (0, -1, 0.9, 0.5 - 0.5j, -0.0j, complex(-0.0, 0.7), complex(0.3, -0.0), 1j):
        schwinger._kernel_power.cache_clear()
        assert schwinger._kernel_power(s, N).tobytes() == oracle.kernel_power(s, N).tobytes(), s


def test_kernel_power_overflow_reads_the_minimum_of_log_k():
    # the bound reads values[0]: K^(-1) is finite at N = 905 and raises at N = 907
    # with the exponent of the whole log table's minimum
    assert np.all(np.isfinite(schwinger._kernel_power(1, 905)))
    text = f"Re(s) * (-min log K) = {-_log_kernel(907).min():.6g}"
    with pytest.raises(OverflowError, match=re.escape(text)):
        schwinger._kernel_power(1, 907)


def test_glauber_overflow_raises_on_every_call():
    # max K^(-1) passes the largest double from N = 907 on; a raising call is not cached
    rho = np.eye(907) / 907
    for _ in range(2):
        with pytest.raises(OverflowError, match="K\\^\\(-s\\) overflows at N=907"):
            phase_fn(rho, 1)


@pytest.mark.parametrize("N", (3, 5, 9))
def test_depolarize_matches_uncached_weights(N):
    # the weights as they were formed before the cache: |exp(-s log K)|^2 at s = i omega
    rng = np.random.default_rng(N)
    for omega in rng.uniform(-1, 1, 4):
        O = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))
        w = np.abs(np.exp(-1j * omega * _log_kernel(N))) ** 2
        ref = schwinger._conjugation_average(O, w)
        assert np.abs(depolarize(O, omega) - ref).max() <= 1e-12 * N * np.abs(O).max()


@pytest.mark.parametrize("N", (1, 5, 7, 9))
def test_depolarize_at_real_omega_has_the_bytes_of_the_unit_weights(N):
    # the weights K^(-2 Re s) at s = i omega are exactly 1, so one table per N
    # serves every real omega, with the bytes of the weights formed per order
    rng = np.random.default_rng(N)
    O = rng.normal(size=(2, N, N)) + 1j * rng.normal(size=(2, N, N))
    ref = schwinger._conjugation_average(O, oracle.kernel_power(0, N).real)
    for omega in (0, -0.0, 0.5, -0.9, 1, np.float64(-1), 0.25 + 0j, *rng.uniform(-1, 1, 3)):
        assert depolarize(O, omega).tobytes() == ref.tobytes(), omega
    assert depolarize(O[0]).tobytes() == ref[0].tobytes()


@pytest.mark.parametrize("omega", (-0.9j, 0.5 + 0.1j, 1j, complex(0.0, -1e-300)))
def test_depolarize_rejects_a_non_real_omega(omega):
    # depolarize(O, -0.9j) at N = 5 returned an operator 68 away from Tr(O) I
    O = np.random.default_rng(0).normal(size=(5, 5)) + 0j
    with pytest.raises(ValueError, match="^depolarize omega must be real"):
        depolarize(O, omega)


@pytest.mark.parametrize("N", (3, 5, 7))
def test_s_op_ordered_on_label_arrays_stacks_the_scalar_calls(N):
    # K^(-s) at the label pairs stacks with S: on B = N pairs the product once
    # broadcast against the wrong axis, and on B = 2 pairs it raised numpy's error
    rng = np.random.default_rng(N)
    for B in (N, 2, 1):
        eta, xi = rng.integers(-3 * N, 3 * N, size=(2, B))
        for s in (0.5, -1, 0.3 - 0.4j):
            ref = np.stack([s_op_ordered(int(e), int(x), s, N) for e, x in zip(eta, xi)])
            assert s_op_ordered(eta, xi, s, N).tobytes() == ref.tobytes()
            assert s_op_ordered(eta[:, None], xi, s, N).shape == (B, B, N, N)
    # at scalar labels, the bytes of the fancy-index read
    for e, x in zip(eta.tolist(), xi.tolist()):
        assert s_op_ordered(e, x, 0.5, N).tobytes() == oracle.fancy_s_op_ordered(e, x, 0.5, N).tobytes()
