"""Centered-index arithmetic and dense linear-algebra helpers, the
integer-label check, and the one table cache of the package."""

import importlib
import pkgutil
import types

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import loop_oracles as oracle
import qps
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
    _diagonals,
    _at,
    _index,
    _roots,
    _scatter,
    _table_cache,
    _traces,
    _traces_at,
)
from qps.schwinger import decompose_schwinger, t_overlap
from qps.theta import phase_phi, kernel_value
from qps.tomography import MarginalDistribution, smooth_marginal, _ray_cells


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


# odd N <= 45, prime and composite
odd_dims = st.integers(0, 22).map(lambda k: 2 * k + 1)


@settings(max_examples=60, deadline=None)
@given(N=odd_dims, data=st.data())
def test_index_is_the_row_of_the_centered_label(N, data):
    raw = st.integers(-3 * N, 3 * N)
    x = np.array(data.draw(st.lists(raw, min_size=1, max_size=8)))
    ell = half_width(N)
    assert np.array_equal(_index(x, N), center_mod(x, N) + ell)
    for k in x.tolist():
        assert _index(k, N) == center_mod(k, N) + ell and type(_index(k, N)) is int
    assert np.array_equal(_index(labels(N), N), np.arange(N))


@settings(max_examples=60, deadline=None)
@given(N=st.sampled_from((1, 3, 5, 9, 15, 31)), seed=st.integers(0, 2**32 - 1), data=st.data())
def test_traces_at_raw_labels_carry_the_quasi_periodic_sign(N, seed, data):
    # Tr[S(eta, xi) O] at raw labels: the traces at the reduced labels times (-1)**phase_phi
    rng = np.random.default_rng(seed)
    O = rng.normal(size=(N, N)) + 1j * rng.normal(size=(N, N))  # not Hermitian
    raw = st.integers(-3 * N, 3 * N)
    eta = np.array(data.draw(st.lists(raw, min_size=1, max_size=4)))[:, None]
    xi = np.array(data.draw(st.lists(raw, min_size=1, max_size=5)))
    ell = half_width(N)
    ref = _traces(O)[center_mod(eta, N) + ell, center_mod(xi, N) + ell] * (-1.0) ** phase_phi(eta, xi, N)
    out, adjoint = _traces_at(O, eta, xi)
    assert out.shape == adjoint.shape == ref.shape
    assert np.abs(out - ref).max() <= 1e-13 * N * np.abs(O).max()
    # the second trace is the one at (-eta, -xi), bit for bit
    assert adjoint.tobytes() == _traces_at(O, -eta, -xi)[0].tobytes()
    e, x = int(eta[0, 0]), int(xi[0])
    assert abs(_traces_at(O, e, x)[0] - ref[0, 0]) <= 1e-13 * N * np.abs(O).max()


def same(a, b):
    """Equal shape, dtype and bytes."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


LAYOUTS = ("C", "transposed", "reversed", "F")
BATCHES = ((), (2,), (2, 3))


@settings(max_examples=80, deadline=None)
@example(N=1, batch=(2,), layout="F", seed=0)
@example(N=9, batch=(), layout="transposed", seed=1)
@example(N=15, batch=(2, 3), layout="reversed", seed=2)
@example(N=45, batch=(2,), layout="F", seed=3)
@example(N=61, batch=(), layout="C", seed=4)
@given(N=st.integers(0, 30).map(lambda k: 2 * k + 1), batch=st.sampled_from(BATCHES),
       layout=st.sampled_from(LAYOUTS), seed=st.integers(0, 2**32 - 1))
def test_schwinger_takes_equal_the_fancy_index_routes(N, batch, layout, seed):
    # the gather and the scatter of the cyclic diagonals, one flat take each,
    # against the two-array fancy indexes they replaced, bit for bit
    rng = np.random.default_rng(seed)
    A = oracle.laid_out(rng.normal(size=(*batch, N, N)) + 1j * rng.normal(size=(*batch, N, N)), layout)
    assert same(_traces(A), oracle.traces(A))
    assert same(_scatter(A), oracle.scatter(A))
    # the reversed view of the traces that decompose_schwinger hands on
    C = decompose_schwinger(A)
    assert same(_scatter(C), oracle.scatter(C))


@settings(max_examples=80, deadline=None)
@example(N=9, batch=(), layout="F", dtype="complex", seed=0)
@example(N=15, batch=(2, 3), layout="reversed", dtype="float", seed=1)
@example(N=45, batch=(2,), layout="transposed", dtype="int32", seed=2)
@example(N=1, batch=(2,), layout="C", dtype="complex", seed=3)
@given(N=st.integers(0, 30).map(lambda k: 2 * k + 1), batch=st.sampled_from(BATCHES),
       layout=st.sampled_from(LAYOUTS), dtype=st.sampled_from(("complex", "float", "int32")),
       seed=st.integers(0, 2**32 - 1))
def test_at_equals_the_two_array_fancy_index(N, batch, layout, dtype, seed):
    # the one read of a grid at label pairs, one flat take, against the two-array
    # fancy index it replaced, bit for bit: labels of any range, scalars and arrays
    # that broadcast, on a batch of grids in every memory layout
    rng = np.random.default_rng(seed)
    X = oracle.laid_out(rng.normal(size=(*batch, N, N)) * 1e3, layout).astype(dtype)
    if dtype == "complex":
        X = X + 1j * oracle.laid_out(rng.normal(size=(*batch, N, N)), layout)
    eta, xi = rng.integers(-3 * N, 3 * N, size=(4, 1)), rng.integers(-3 * N, 3 * N, size=5)
    for e, x in ((eta, xi), (eta[..., 0], xi[:4]), (int(eta[0, 0]), xi), (eta, np.int64(xi[0])), (int(eta[1, 0]), -int(xi[1]))):
        assert same(np.asarray(_at(X, e, x)), np.asarray(oracle.fancy_at(X, e, x)))
    # scalar labels on one grid give a scalar
    assert np.ndim(_at(X.reshape(-1, N, N)[0], 2 * N + 1, -N)) == 0


@settings(max_examples=40, deadline=None)
@example(N=9, seed=0)
@example(N=15, seed=1)
@example(N=45, seed=2)
@example(N=61, seed=3)
@given(N=st.integers(0, 30).map(lambda k: 2 * k + 1), seed=st.integers(0, 2**32 - 1))
def test_label_pair_reads_equal_the_fancy_index_routes(N, seed):
    # t_overlap, kernel_value and smooth_marginal read their grids with
    # lattice._at, bit for bit the two-array fancy index each held before
    rng = np.random.default_rng(seed)
    ks = labels(N)
    raw = rng.integers(-3 * N, 3 * N, size=6)
    t, s = (complex(*rng.uniform(-0.7, 0.7, 2)) for _ in range(2))
    for dmu, dnu in ((ks[:, None], ks), (raw[:, None], raw), (int(raw[0]), int(raw[1]))):
        assert same(np.asarray(t_overlap(t, s, dmu, dnu, N)), np.asarray(oracle.fancy_t_overlap(t, s, dmu, dnu, N)))
        assert same(np.asarray(kernel_value(dmu, dnu, N)), np.asarray(oracle.fancy_kernel_value(dmu, dnu, N)))
    assert type(t_overlap(t, s, 1, 2, N)) is complex and type(kernel_value(1, 2, N)) is float
    values = rng.normal(size=(2, N))
    for line in ((1, 0), (0, 1), (2, 3), (int(raw[2]), 1)):
        for dist in (MarginalDistribution(1, "Q", values, line), MarginalDistribution(0, "R", values + 1j * values[::-1], line)):
            assert same(smooth_marginal(dist).values, oracle.fancy_smooth_marginal(dist))


def test_layout_tables_hold_no_more_than_the_row_and_column_tables_at_1001():
    # the flat positions replace the row and column tables: 53.75 MiB at N = 1001
    # (the _diagonals rows, cols and front, the _ray_cells rays, rows, cols and
    # twist); keeping both layouts would hold about 80 MiB
    held = sum(a.nbytes for table in (_diagonals(1001), _ray_cells(1001)) for a in table)
    assert held <= 56_365_792


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


def mp_roots(N):
    """exp(i*pi*m/N), m = 0..2N-1, rounded from mpmath at 30 digits."""
    with mpmath.workdps(30):
        return np.array([complex(mpmath.expjpi(mpmath.mpf(m) / N)) for m in range(2 * N)])


@pytest.mark.parametrize("N", (1, 3, 61, 251, 1001))
def test_roots_table_is_exact_to_the_last_bit(N):
    # an exp at every m once erred by 1.1e-15 at N = 1001 and broke both symmetries
    w = _roots(N)
    assert w.shape == (2 * N,) and not w.flags.writeable
    assert np.abs(w - mp_roots(N)).max() <= 1e-15
    assert np.array_equal(w[N:], -w[:N])
    assert np.array_equal(w[:0:-1], w[1:].conj())


@pytest.mark.parametrize("N", (61, 251, 1001))
def test_phase_tables_match_mpmath(N):
    # both tables once took an exp of an angle up to pi N / 2, erring by
    # 1.0e-14 at N = 61 and 2.8e-13 at N = 1001
    ks, ref = labels(N), mp_roots(N)
    ph = _dft_phases(N)
    assert np.array_equal(ph, ph.T)
    assert np.abs(ph - ref[-2 * np.outer(ks, ks) % (2 * N)]).max() <= 1e-15
    front = _diagonals(N)[2]
    assert np.abs(front - ref[-np.outer(ks, ks) % (2 * N)] / np.sqrt(N)).max() <= 1e-15


# every table the package caches per dimension N, by module
PER_N_TABLES = {
    "lattice": ("_roots", "_dft_phases", "_conj_phases", "_hartley", "_diagonals"),
    "theta": ("_kernel_orbits", "kernel_table", "fock_coefficients"),
    "schwinger": ("u_matrix", "v_matrix", "_depolarizer"),
    "quasiprob": ("smoothing_table",),
    "tomography": ("_ray_cells",),
    "teleport": ("_bell_seed",),
}
# every table the package caches per order and dimension (s, N)
PER_ORDER_TABLES = {"schwinger": ("_kernel_power", "_origin_kernel", "_t_family")}


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


def test_every_table_cache_is_listed_and_hands_out_read_only_arrays():
    # each table once marked its own result read-only; the cache now does it for all
    found = {(mod, name) for mod in PER_N_TABLES
             for name, f in vars(importlib.import_module(f"qps.{mod}")).items()
             if hasattr(f, "cache_info") and f.__module__ == f"qps.{mod}"}
    listed = {(mod, name) for tables in (PER_N_TABLES, PER_ORDER_TABLES)
              for mod, names in tables.items() for name in names}
    assert found == listed
    schwinger = importlib.import_module("qps.schwinger")
    for N in (1, 3, 5):
        for s in (0, 1, -1, 0.3 - 0.4j, -0.0j):
            for name in PER_ORDER_TABLES["schwinger"]:
                table = getattr(schwinger, name)
                out = table(s, N)
                assert isinstance(out, np.ndarray) and not out.flags.writeable, name


# the grid writer's tables and sample keys: none, the format, or (N, format)
WRITER_TABLES = {
    "_word_tables": [()],
    "_pow10_table": [()],
    "_masks": [("csv",), ("json",)],
    "_label_texts": [(N, fmt) for N in (1, 5) for fmt in ("csv", "json")],
}


def test_every_cache_in_qps_is_the_table_cache():
    # the grid writer kept five caches of its own, of no bound or of 4 keys,
    # each marking its own table read-only
    marker = _table_cache(lambda: None).__wrapped__.__code__
    bound = _dft_phases.cache_info().maxsize
    found = {}
    for info in pkgutil.iter_modules(qps.__path__):
        module = importlib.import_module(f"qps.{info.name}")
        for name, f in vars(module).items():
            if hasattr(f, "cache_info") and f.__module__ == module.__name__:
                found[info.name, name] = f
    found.pop(("cli", "build_parser"))  # caches a parser, not a table
    for key, f in found.items():
        assert f.__wrapped__.__code__ is marker and f.cache_info().maxsize == bound, key
    listed = {(mod, name) for tables in (PER_N_TABLES, PER_ORDER_TABLES)
              for mod, names in tables.items() for name in names}
    assert set(found) == listed | {("_gridtext", name) for name in WRITER_TABLES}
    for name, keys in WRITER_TABLES.items():
        for key in keys:
            out = found["_gridtext", name](*key)
            for a in out if isinstance(out, tuple) else (out,):
                assert not a.flags.writeable, (name, key)


def test_theta_and_teleport_name_their_modules_at_the_top_level():
    # the star imports once bound the functions, so `import qps.teleport as m` gave the function
    import qps.teleport as m
    import qps.theta as t
    assert isinstance(m, types.ModuleType) and m is qps.teleport and m.__name__ == "qps.teleport"
    assert isinstance(t, types.ModuleType) and t is qps.theta and t.__name__ == "qps.theta"
    assert callable(m.teleport) and callable(t.theta)
    # every other public name of every module is re-exported as itself
    for mod in ("lattice", "theta", "schwinger", "quasiprob", "tomography", "teleport"):
        module = importlib.import_module(f"qps.{mod}")
        for name in module.__all__:
            if name not in ("theta", "teleport"):
                assert getattr(qps, name) is getattr(module, name), name


def label_calls(x, rho):
    """Every function that takes integer labels, called with label x, and its name, which the check gives."""
    from qps.quasiprob import coherent_state, t_matrix_element
    from qps.schwinger import t_op
    from qps.teleport import BellLabel, bell_state, teleport
    from qps.tomography import scattering_circuit
    return [
        (lambda: coherent_state(x, 0, 5), "coherent_state"),
        (lambda: coherent_state(0, x, 5), "coherent_state"),
        (lambda: center_mod(x, 5), "center_mod"),
        (lambda: bell_state(BellLabel(x, 0), 5), "bell_state"),
        (lambda: teleport(rho, x, 0), "teleport"),
        (lambda: scattering_circuit(rho, x, 0), "scattering_circuit"),
        (lambda: scattering_circuit(rho, 0, np.array([1, x])), "scattering_circuit"),
        (lambda: t_op(x, 0, 0, 5), "t_op"),
        (lambda: t_op(0, np.array([1, x]), 0, 5), "t_op"),
        (lambda: t_matrix_element(0, 0, x, 0, 0, 5), "t_matrix_element"),
    ]


@pytest.mark.parametrize("bad", (0.5, -2.5, np.nan, np.inf))
def test_non_integer_labels_raise_a_value_error_naming_the_function(bad):
    # coherent_state(0.5, 0, 5) once returned the vacuum and center_mod(0.5, 5)
    # returned 0; t_op(0.5, 0, 0, 5) raised numpy's untyped IndexError
    rho = np.eye(5) / 5
    for call, name in label_calls(bad, rho):
        with pytest.raises(ValueError, match=f"^{name} labels must be integers"):
            call()


def test_integer_valued_labels_still_pass():
    def flat(out):
        return np.concatenate([np.ravel(v) for v in (out if isinstance(out, tuple) else (out,))])

    rho = np.diag([0.1, 0.2, 0.3, 0.25, 0.15]).astype(complex)
    for (as_float, _), (as_int, _) in zip(label_calls(-2.0, rho), label_calls(np.int64(-2), rho)):
        assert np.array_equal(flat(as_float()), flat(as_int()))
    assert center_mod(7.0, 5) == 2 and type(center_mod(7.0, 5)) is int
    assert type(center_mod(np.int64(7), 5)) is int
