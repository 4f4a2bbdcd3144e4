"""Centered-index arithmetic and dense linear-algebra helpers, and the
bound on the package's per-N table caches."""

import importlib

import numpy as np
import pytest

from qps.lattice import (
    check_dim,
    half_width,
    labels,
    center_mod,
    dagger,
    tensor,
    partial_trace,
    dft_matrix,
    _conj_phases,
    _dft_phases,
)


@pytest.mark.parametrize("bad", [0, -3, 2, 4, 10])
def test_check_dim_rejects_even_and_nonpositive(bad):
    with pytest.raises(ValueError):
        check_dim(bad)


def test_labels_are_centered_and_symmetric():
    for N in (1, 3, 5, 7, 9):
        ks = labels(N)
        assert len(ks) == N
        assert ks[0] == -half_width(N)
        assert ks[-1] == half_width(N)
        assert np.all(ks + ks[::-1] == 0)


def test_center_mod_scalar_and_array():
    assert center_mod(3, 5) == -2
    assert center_mod(-3, 5) == 2
    assert center_mod(0, 5) == 0
    assert isinstance(center_mod(7, 5), int)
    out = center_mod(np.arange(-10, 11), 5)
    assert out.min() >= -2 and out.max() <= 2
    assert np.all((out - np.arange(-10, 11)) % 5 == 0)


def test_dagger_is_conjugate_transpose():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    assert np.allclose(dagger(A), A.conj().T)


def test_tensor_matches_kron_chain():
    rng = np.random.default_rng(1)
    A, B, C = (rng.normal(size=(2, 2)) for _ in range(3))
    assert np.allclose(tensor(A, B, C), np.kron(np.kron(A, B), C))
    with pytest.raises(ValueError):
        tensor()


def test_partial_trace_recovers_factors():
    rng = np.random.default_rng(2)
    dims = [3, 5]
    mats = []
    for d in dims:
        M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        M = M @ M.conj().T
        mats.append(M / np.trace(M))
    full = tensor(*mats)
    for k, d in enumerate(dims):
        red = partial_trace(full, dims, keep=[k])
        assert red.shape == (d, d)
        assert np.abs(red - mats[k]).max() < 1e-12


def test_partial_trace_tripartite_pair():
    rng = np.random.default_rng(3)
    dims = [3, 3, 3]
    A = rng.normal(size=(27, 27)) + 1j * rng.normal(size=(27, 27))
    red = partial_trace(A, dims, keep=[0, 2])
    assert red.shape == (9, 9)
    assert abs(np.trace(red) - np.trace(A)) < 1e-10
    with pytest.raises(ValueError):
        partial_trace(A, [3, 3], keep=[0])
    with pytest.raises(ValueError):
        partial_trace(A, dims, keep=[])


def test_dft_matrix_is_unitary_and_symmetric():
    for N in (3, 5, 7):
        F = dft_matrix(N)
        assert np.abs(F @ dagger(F) - np.eye(N)).max() < 1e-12
        assert np.abs(F - F.T).max() < 1e-12
        # the inverse phases are one cached read-only table, the exact conjugate
        ph = _conj_phases(N)
        assert ph is _conj_phases(N) and not ph.flags.writeable
        assert np.array_equal(ph, _dft_phases(N).conj())
        assert np.array_equal(F, ph / np.sqrt(N))


# every table the package caches per dimension N, by module
PER_N_TABLES = {
    "lattice": ("_dft_phases", "_conj_phases", "_diagonals"),
    "theta": ("_log_kernel", "kernel_table", "fock_coefficients"),
    "schwinger": ("_log_gain", "u_matrix", "v_matrix"),
    "quasiprob": ("smoothing_table",),
    "tomography": ("_ray_cells", "_roots"),
    "teleport": ("_bell_seed",),
}


def test_per_dimension_tables_stay_bounded_and_read_only():
    # unbounded, one reconstruct_wigner left 101 MB of tables held at N = 1001
    tables = [getattr(importlib.import_module(f"qps.{mod}"), name)
              for mod, names in PER_N_TABLES.items() for name in names]
    bound = _dft_phases.cache_info().maxsize
    assert bound is not None and bound < 20
    for N in range(1, 41, 2):
        for table in tables:
            out = table(N)
            for a in out if isinstance(out, tuple) else (out,):
                assert not isinstance(a, np.ndarray) or not a.flags.writeable
    for table in tables:
        info = table.cache_info()
        assert info.maxsize == bound and info.currsize <= bound, table.__name__
