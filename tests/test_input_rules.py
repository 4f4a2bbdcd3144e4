"""One input rule per kind, at every public entry point.

Each entry point that takes an integer label, a dimension, a shot count, a
subsystem index or an order is called with a bad value of that argument and
must raise a ValueError that starts with its own name.  The same call with a
good value must give the same bytes whether the value is a Python int, a numpy
int, a 0-d integer array or an integral float.
"""

from dataclasses import astuple

import numpy as np
import pytest

from qps.lattice import check_dim, half_width, labels, center_mod, partial_trace, dft_matrix
from qps.theta import phase_phi, kernel_table, kernel_value, smoothing_1d, fock_coefficients, gamma_table
from qps.schwinger import (
    check_order, u_matrix, v_matrix, s_op, s_op_ordered, t_op, t_family, t_overlap,
    decompose_t, reconstruct_t, depolarize,
)
from qps.quasiprob import (
    PhaseSpaceFunction, smooth_p_to_w, smooth_w_to_h, reconstruct_rho, maximally_mixed, fock_state, fock_projector, coherent_projector, coherent_state, random_density,
    char_fn, phase_fn, smoothing_table, expectation, t_matrix_element,
)
from qps.tomography import (
    SymplecticParams, mod_inverse, radon_q, radon_r, char_from_radon_q, char_from_radon_r,
    reconstruct_wigner, sample_marginal, scattering_circuit, marginal_q, symplectic_j, smooth_marginal,
)
from qps.teleport import (
    BellLabel, bell_state, bell_projector, bipartite_phase_fn, upsilon_coeffs, theta_coeffs,
    teleport, r_kernel, lambda_coeffs, teleport_via_coeffs,
)

N = 5
RHO = random_density(N, np.random.default_rng(5))
OP = np.random.default_rng(6).normal(size=(N, N)) + 0j
F = phase_fn(RHO, 0)
Q, R = radon_q(F, 2, 1), radon_r(F, 1, 2)
A = np.kron(RHO, random_density(3, np.random.default_rng(7)))  # dims [5, 3]
BELL = bell_state((1, 2), N)


def rng():
    return np.random.default_rng(0)


# (name in the error, argument, good value, call at that argument)
LABELS = [
    ("center_mod", "x", 2, lambda x: center_mod(x, N)),
    ("phase_phi", "eta", 7, lambda x: phase_phi(x, 1, N)),
    ("kernel_value", "xi", -2, lambda x: kernel_value(1, x, N)),
    ("s_op", "eta", 2, lambda x: s_op(x, 0, N)),
    ("s_op", "xi", -2, lambda x: s_op(1, x, N)),
    ("s_op_ordered", "eta", 2, lambda x: s_op_ordered(x, 1, 0.5, N)),
    ("t_op", "mu", 2, lambda x: t_op(x, 1, 0, N)),
    ("t_op", "nu", -2, lambda x: t_op(1, x, 0, N)),
    ("t_overlap", "dmu", 2, lambda x: t_overlap(0, -1, x, 1, N)),
    ("coherent_state", "mu", 2, lambda x: coherent_state(x, 1, N)),
    ("coherent_projector", "nu", -2, lambda x: coherent_projector(1, x, N)),
    ("fock_state", "n", 2, lambda x: fock_state(x, N)),
    ("fock_projector", "n", 3, lambda x: fock_projector(x, N)),
    ("t_matrix_element", "m", 2, lambda x: t_matrix_element(x, 1, 0, 0, 0, N)),
    ("t_matrix_element", "mu", 2, lambda x: t_matrix_element(0, 1, x, 0, 0, N)),
    ("mod_inverse", "a", 2, lambda x: mod_inverse(x, N)),
    ("SymplecticParams", "z1", 2, lambda x: symplectic_j(SymplecticParams(x, 1, 1, 1, N))),
    ("radon_q", "z1", 2, lambda x: radon_q(F, x, 1)),
    ("radon_r", "z4", 2, lambda x: radon_r(F, 1, x)),
    ("char_from_radon_q", "z1", 2, lambda x: char_from_radon_q(Q, x, 1, N)),
    ("char_from_radon_r", "z4", 2, lambda x: char_from_radon_r(R, 1, x, N)),
    ("scattering_circuit", "eta", 2, lambda x: scattering_circuit(RHO, x, 1)),
    ("BellLabel", "omega1", 7, lambda x: astuple(BellLabel(x, 1).reduced(N))),
    ("bell_state", "omega1", 2, lambda x: bell_state((x, 1), N)),
    ("bell_projector", "omega2", 2, lambda x: bell_projector((1, x), N)),
    ("upsilon_coeffs", "omega", 2, lambda x: upsilon_coeffs((x, 1), (0, 0), 0, 0, N)),
    ("theta_coeffs", "mu1", 2, lambda x: theta_coeffs(x, 1, 0, 0, 0, 0, N)),
    ("teleport", "alpha", 2, lambda x: teleport(RHO, x, 1)),
    ("r_kernel", "beta", 2, lambda x: r_kernel(1, x, 0, N)),
    ("lambda_coeffs", "alpha", 2, lambda x: lambda_coeffs(F, x, 1, 0)),
    ("lambda_coeffs", "beta", -2, lambda x: lambda_coeffs(F, 1, x, 0)),
    ("teleport_via_coeffs", "beta", 2, lambda x: teleport_via_coeffs(RHO, 1, x, 0, 0)),
]

DIMENSIONS = [
    ("check_dim", "N", 5, check_dim),
    ("half_width", "N", 5, half_width),
    ("labels", "N", 5, labels),
    ("dft_matrix", "N", 5, dft_matrix),
    ("kernel_table", "N", 5, kernel_table),
    ("fock_coefficients", "N", 5, fock_coefficients),
    ("gamma_table", "N", 3, gamma_table),
    ("smoothing_1d", "N", 5, lambda x: smoothing_1d(1, x)),
    ("phase_phi", "N", 5, lambda x: phase_phi(7, 1, x)),
    ("kernel_value", "N", 5, lambda x: kernel_value(1, 2, x)),
    ("u_matrix", "N", 5, u_matrix),
    ("v_matrix", "N", 5, v_matrix),
    ("s_op", "N", 5, lambda x: s_op(1, 2, x)),
    ("t_op", "N", 5, lambda x: t_op(1, 2, 0.5, x)),
    ("t_family", "N", 3, lambda x: t_family(0, x)),
    ("t_overlap", "N", 5, lambda x: t_overlap(0, -1, 1, 2, x)),
    ("maximally_mixed", "N", 5, maximally_mixed),
    ("fock_state", "N", 5, lambda x: fock_state(2, x)),
    ("coherent_state", "N", 5, lambda x: coherent_state(1, 2, x)),
    ("random_density", "N", 5, lambda x: random_density(x, rng())),
    ("smoothing_table", "N", 5, smoothing_table),
    ("t_matrix_element", "N", 5, lambda x: t_matrix_element(1, 2, 1, 0, 0, x)),
    ("mod_inverse", "N", 5, lambda x: mod_inverse(2, x)),
    ("SymplecticParams", "N", 5, lambda x: symplectic_j(SymplecticParams(2, 1, 1, 1, x))),
    ("char_from_radon_q", "N", 5, lambda x: char_from_radon_q(Q, 2, 1, x)),
    ("char_from_radon_r", "N", 5, lambda x: char_from_radon_r(R, 1, 2, x)),
    ("bell_state", "N", 5, lambda x: bell_state((1, 2), x)),
    ("upsilon_coeffs", "N", 5, lambda x: upsilon_coeffs((1, 2), (0, 0), 0, 0, x)),
    ("theta_coeffs", "N", 5, lambda x: theta_coeffs(1, 2, 0, 0, 0, 0, x)),
    ("r_kernel", "N", 5, lambda x: r_kernel(1, 2, 0, x)),
]

SHOTS = [
    ("reconstruct_wigner", "shots", 3, lambda x: reconstruct_wigner(RHO, x, rng())),
    ("sample_marginal", "shots", 3, lambda x: sample_marginal(marginal_q(F), x, rng())),
]

SUBSYSTEMS = [
    ("partial_trace", "dims", 5, lambda x: partial_trace(A, [x, 3], [0])),
    ("partial_trace", "keep", 1, lambda x: partial_trace(A, [5, 3], [x])),
]

ORDERS = [
    ("check_order", "s", -1, check_order),
    ("s_op_ordered", "s", -1, lambda x: s_op_ordered(1, 2, x, N)),
    ("t_op", "s", 1, lambda x: t_op(1, 2, x, N)),
    ("t_family", "s", -1, lambda x: t_family(x, 3)),
    ("t_overlap", "t", 1, lambda x: t_overlap(x, -1, 1, 2, N)),
    ("decompose_t", "s", -1, lambda x: decompose_t(OP, x)),
    ("reconstruct_t", "s", 1, lambda x: reconstruct_t(OP, x)),
    ("depolarize", "omega", 1, lambda x: depolarize(OP, x)),
    ("char_fn", "s", -1, lambda x: char_fn(RHO, x)),
    ("phase_fn", "s", 1, lambda x: phase_fn(RHO, x)),
    ("expectation", "s", -1, lambda x: expectation(OP, RHO, x)),
    ("t_matrix_element", "s", -1, lambda x: t_matrix_element(1, 2, 1, 0, x, N)),
    ("bipartite_phase_fn", "s1", -1, lambda x: bipartite_phase_fn(BELL, x, 0)),
    ("upsilon_coeffs", "s2", 1, lambda x: upsilon_coeffs((1, 2), (0, 0), 0, x, N)),
    ("theta_coeffs", "s1", -1, lambda x: theta_coeffs(1, 2, 0, 0, x, 0, N)),
    ("lambda_coeffs", "s3", -1, lambda x: lambda_coeffs(F, 1, 2, x)),
    ("teleport_via_coeffs", "s1", 1, lambda x: teleport_via_coeffs(RHO, 1, 2, x, 0)),
    # an order difference s3 - s1, which may reach |ds| = 2, so 1.5 is valid
    ("r_kernel", "ds", -2, lambda x: r_kernel(1, 2, x, N)),
]

ENTRIES = LABELS + DIMENSIONS + SHOTS + SUBSYSTEMS + ORDERS
IDS = [f"{name}-{arg}" for name, arg, _, _ in ENTRIES]
BAD = (True, 1.5, "7", np.nan)


def as_bytes(out):
    """The bytes of a result: its array, the arrays of a tuple or a grid's or marginal's values."""
    if isinstance(out, tuple):
        return b"".join(as_bytes(part) for part in out)
    out = getattr(out, "grid", getattr(out, "values", out))
    out = np.asarray(out)
    return out.dtype.str.encode() + out.tobytes()


@pytest.mark.parametrize("name, arg, good, call", ENTRIES, ids=IDS)
def test_bad_inputs_raise_a_value_error_naming_the_entry_point(name, arg, good, call):
    for bad in BAD:
        if (name, arg, bad) == ("r_kernel", "ds", 1.5):
            continue
        with pytest.raises(ValueError, match=f"^{name} "):
            call(bad)


# the public tables that are their own cache: a 0-d array cannot be a cache key
CACHED = (kernel_table, fock_coefficients, smoothing_table, u_matrix, v_matrix)


@pytest.mark.parametrize("name, arg, good, call", ENTRIES, ids=IDS)
def test_every_integer_form_gives_the_same_bytes(name, arg, good, call):
    ref = as_bytes(call(good))
    forms = (np.int64(good), float(good)) if call in CACHED else (np.int64(good), np.array(good), float(good))
    for form in forms:
        assert as_bytes(call(form)) == ref, (name, arg, repr(form))


@pytest.mark.xfail(raises=TypeError, strict=True, reason="an lru_cache key must hash, and a 0-d array does not")
@pytest.mark.parametrize("table", CACHED, ids=[table.__name__ for table in CACHED])
def test_a_cached_table_takes_a_zero_d_array(table):
    assert as_bytes(table(np.array(5))) == as_bytes(table(5))


def test_a_bool_misses_the_cached_table_of_one():
    # True == 1.0 == np.int64(1) and all hash alike, so a cache keyed by value
    # handed the N = 1 table that 1.0 or np.int64(1) left to True
    for table in CACHED:
        for one in (1, 1.0, np.int64(1)):
            table(one)
            for bad in (True, np.True_):
                with pytest.raises(ValueError, match=f"^{table.__name__} dimension"):
                    table(bad)


def test_a_grid_or_marginal_tag_passes_the_order_rule():
    # a tag of True was read as the order 1, and a NaN tag passed every match
    for tag in (True, "1", np.nan):
        calls = [
            (lambda: smooth_p_to_w(PhaseSpaceFunction(tag, F.grid)), "smooth_p_to_w"),
            (lambda: smooth_w_to_h(PhaseSpaceFunction(tag, F.grid)), "smooth_w_to_h"),
            (lambda: reconstruct_rho(PhaseSpaceFunction(tag, F.grid)), "reconstruct_rho"),
            (lambda: lambda_coeffs(PhaseSpaceFunction(tag, F.grid), 1, 2, 0), "lambda_coeffs"),
            (lambda: smooth_marginal(marginal_q(PhaseSpaceFunction(tag, F.grid))), "smooth_marginal"),
            (lambda: sample_marginal(marginal_q(PhaseSpaceFunction(tag, F.grid)), 3, rng()), "sample_marginal"),
        ]
        for call, name in calls:
            with pytest.raises(ValueError, match=f"^{name} ordering parameter must be"):
                call()
    with pytest.raises(ValueError, match=r"^smooth_marginal takes an input at s = 1 or 0, got 0\.5$"):
        smooth_marginal(marginal_q(PhaseSpaceFunction(0.5, F.grid)))


def test_the_cases_that_once_passed():
    # each was read as an integer or ran out of range; each now names its function
    cases = [
        (lambda: check_dim(7.9), "check_dim"),
        (lambda: check_dim("7"), "check_dim"),
        (lambda: check_dim(True), "check_dim"),
        (lambda: check_dim(np.array([5, 7])), "check_dim"),
        (lambda: maximally_mixed(7.9), "maximally_mixed"),
        (lambda: partial_trace(np.eye(15), [3.7, 5], [0]), "partial_trace"),
        (lambda: partial_trace(np.eye(15), [3, 5], [0.9]), "partial_trace"),
        (lambda: fock_state(True, 5), "fock_state"),
        (lambda: reconstruct_wigner(RHO, shots=True, rng=rng()), "reconstruct_wigner"),
        (lambda: lambda_coeffs(F, 1.5, 0, 0), "lambda_coeffs"),
        (lambda: lambda_coeffs(F, 1, 0, 3), "lambda_coeffs"),
        (lambda: check_order("0.5"), "check_order"),
    ]
    for call, name in cases:
        with pytest.raises(ValueError, match=f"^{name} "):
            call()
    # an integral float is a shot count, as it is a label
    assert np.array_equal(reconstruct_wigner(RHO, 2.0, rng()).grid, reconstruct_wigner(RHO, 2, rng()).grid)
