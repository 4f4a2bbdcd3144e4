"""One input rule per kind, at every public entry point.

Each entry point that takes an integer label, a dimension, a shot count, a
subsystem index or an order is called with a bad value of that argument and
must raise a ValueError that starts with its own name.  The same call with a
good value must give the same bytes whether the value is a Python int, a numpy
int, a 0-d integer array or an integral float.  Each entry point that takes an
operator, a grid or a marginal is called with a bad operand, which must raise a
ValueError that starts with its own name in the same way.
"""

from dataclasses import astuple

import numpy as np
import pytest

from qps.lattice import check_dim, half_width, labels, center_mod, partial_trace, dft_matrix
from qps.theta import phase_phi, kernel_table, kernel_value, smoothing_1d, fock_coefficients, gamma_table
from qps.schwinger import (
    check_order, u_matrix, v_matrix, s_op, s_op_ordered, t_op, t_family, t_overlap,
    decompose_schwinger, reconstruct_schwinger, decompose_t, reconstruct_t, depolarize,
)
from qps.quasiprob import (
    PhaseSpaceFunction, CharacteristicFunction, smooth_p_to_w, smooth_w_to_h, reconstruct_rho, maximally_mixed, fock_state, fock_projector, coherent_projector, coherent_state, random_density,
    validate_density, char_fn, phase_fn, smoothing_table, expectation, t_matrix_element,
)
from qps.tomography import (
    MarginalDistribution, SymplecticParams, mod_inverse, radon_q, radon_r, char_from_radon_q, char_from_radon_r,
    reconstruct_wigner, sample_marginal, scattering_circuit, marginal_q, marginal_r, symplectic_j, smooth_marginal,
)
from qps.teleport import (
    BellLabel, bell_state, bell_projector, bipartite_phase_fn, upsilon_coeffs, theta_coeffs,
    teleport, lambda_coeffs, teleport_via_coeffs,
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
        with pytest.raises(ValueError, match=f"^{name} "):
            call(bad)


# (name in the error, argument, call at that argument): labels that name one kernel
# or one state, so an array of them is rejected.  A 1-D mu gave t_op a (2, 2, N, N)
# array of mixed kernels; the others raised IndexError, TypeError or numpy's
# reshape error.  t_op's nu broadcasts and stacks its kernels.
SCALAR_LABELS = [
    ("t_op", "mu", lambda x: t_op(x, 1, 0, N)),
    ("coherent_state", "mu", lambda x: coherent_state(x, 1, N)),
    ("coherent_state", "nu", lambda x: coherent_state(1, x, N)),
    ("coherent_projector", "mu", lambda x: coherent_projector(x, 1, N)),
    ("coherent_projector", "nu", lambda x: coherent_projector(1, x, N)),
    ("t_matrix_element", "mu", lambda x: t_matrix_element(0, 1, x, 0, 0, N)),
    ("t_matrix_element", "nu", lambda x: t_matrix_element(0, 1, 0, x, 0, N)),
    ("theta_coeffs", "mu1", lambda x: theta_coeffs(x, 1, 0, 0, 0, 0, N)),
    ("theta_coeffs", "nu1", lambda x: theta_coeffs(1, x, 0, 0, 0, 0, N)),
    ("theta_coeffs", "mu2", lambda x: theta_coeffs(1, 0, x, 0, 0, 0, N)),
    ("theta_coeffs", "nu2", lambda x: theta_coeffs(1, 0, 0, x, 0, 0, N)),
]


@pytest.mark.parametrize("name, arg, call", SCALAR_LABELS, ids=[f"{name}-{arg}" for name, arg, _ in SCALAR_LABELS])
def test_a_scalar_label_given_an_array_raises_a_value_error_naming_the_entry_point(name, arg, call):
    with pytest.raises(ValueError, match=f"^{name} labels must be integers, got array"):
        call(np.array([1, 2]))
    call(np.array(1))


# the public tables that are their own cache
CACHED = (kernel_table, fock_coefficients, smoothing_table, u_matrix, v_matrix)


@pytest.mark.parametrize("name, arg, good, call", ENTRIES, ids=IDS)
def test_every_integer_form_gives_the_same_bytes(name, arg, good, call):
    ref = as_bytes(call(good))
    for form in (np.int64(good), np.array(good), float(good)):
        assert as_bytes(call(form)) == ref, (name, arg, repr(form))


@pytest.mark.parametrize("table", CACHED, ids=[table.__name__ for table in CACHED])
def test_a_cached_table_takes_a_zero_d_array(table):
    # a 0-d array cannot be a cache key: the table raised TypeError before its own check
    assert as_bytes(table(np.array(5))) == as_bytes(table(5))
    for bad in (np.array(True), np.array(5.5), np.array([5, 7])):
        with pytest.raises(ValueError, match=f"^{table.__name__} dimension"):
            table(bad)
    assert hasattr(table, "cache_clear") and table.__wrapped__(5).tobytes() == table(5).tobytes()


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


# bad operands: not square, of even N, and a stack of two states
NON_SQUARE, EVEN, STACK = np.zeros((3, 5)), np.eye(4) / 4, np.stack([RHO, RHO])
BATCH, ONE = (NON_SQUARE, EVEN), (NON_SQUARE, EVEN, STACK)

# (name in the error, call at the operand, bad operands); a route that takes
# a stack as a batch gets no stack, and a grid or marginal object is checked
# when it is built, so the routes that take one reject only what it allows
OPERANDS = [
    ("decompose_schwinger", decompose_schwinger, BATCH),
    ("reconstruct_schwinger", reconstruct_schwinger, BATCH),
    ("decompose_t", lambda X: decompose_t(X, 0), BATCH),
    ("reconstruct_t", lambda X: reconstruct_t(X, 0), BATCH),
    ("depolarize", depolarize, BATCH),
    ("PhaseSpaceFunction", lambda X: PhaseSpaceFunction(0, X), BATCH),
    ("CharacteristicFunction", lambda X: CharacteristicFunction(0, X), BATCH),
    ("char_fn", lambda X: char_fn(X, 0), BATCH),
    ("phase_fn", lambda X: phase_fn(X, 0), BATCH),
    ("expectation", lambda X: expectation(X, RHO, 0), BATCH),
    ("expectation", lambda X: expectation(OP, X, 0), BATCH),
    ("reconstruct_wigner", reconstruct_wigner, BATCH),
    ("validate_density", validate_density, ONE),
    ("scattering_circuit", lambda X: scattering_circuit(X, 1, 2), ONE),
    ("scattering_circuit", lambda X: scattering_circuit(X, unitary=np.eye(5)), ONE),
    # labels and a unitary together: the labels were dropped without a word
    ("scattering_circuit", lambda X: scattering_circuit(RHO, 1, 2, unitary=X), (np.eye(5),)),
    ("radon_q", lambda X: radon_q(PhaseSpaceFunction(0, X), 1, 2), (STACK,)),
    ("radon_r", lambda X: radon_r(PhaseSpaceFunction(0, X), 1, 2), (STACK,)),
    ("bipartite_phase_fn", lambda X: bipartite_phase_fn(X, 0, 0), ONE + (np.zeros((2, 25, 25)),)),
    ("teleport", lambda X: teleport(X, 1, 2), ONE),
    ("teleport_via_coeffs", lambda X: teleport_via_coeffs(X, 1, 2, 0, 0), ONE),
    # a marginal's values: none, of even length, of even length in a stack
    ("MarginalDistribution", lambda X: MarginalDistribution(0, "Q", X), (np.array(1.0), np.ones(4), np.ones((2, 4)))),
]


@pytest.mark.parametrize("name, call, bads", OPERANDS, ids=[name for name, _, _ in OPERANDS])
def test_bad_operands_raise_a_value_error_naming_the_entry_point(name, call, bads):
    for bad in bads:
        with pytest.raises(ValueError, match=f"^{name} "):
            call(bad)


def test_the_operand_cases_that_once_passed_or_named_no_entry():
    q = marginal_q(F).values
    cases = [
        # degenerate lines: smooth_marginal returned N numbers and sample_marginal drew on them
        (lambda: smooth_marginal(MarginalDistribution(1, "Q", q, (0, 0))), "MarginalDistribution line must be"),
        (lambda: smooth_marginal(MarginalDistribution(1, "Q", q, (0, 5))), "MarginalDistribution line must be"),
        (lambda: sample_marginal(MarginalDistribution(0, "Q", q, (0, 0)), 3, rng()), "MarginalDistribution line must be"),
        (lambda: radon_q(F, 0, 5), "radon_q line must be"),
        (lambda: MarginalDistribution(0, "Q", q, (1, 2, 3)), "MarginalDistribution line must be"),
        (lambda: MarginalDistribution(0, "Q", q, (1.5, 2)), "MarginalDistribution line must be"),
        # any axis but "Q" was smoothed as R
        (lambda: MarginalDistribution(1, "X", q), 'MarginalDistribution axis must be "Q" or "R"'),
        (lambda: teleport(STACK, 0, 0), "teleport takes one N x N matrix"),
        (lambda: bipartite_phase_fn(np.zeros((2, 25, 25)), 0, 0), "bipartite_phase_fn takes one N x N matrix"),
        # numpy's truth-value error
        (lambda: teleport(RHO, np.array([1, 2]), 0), "teleport labels must be integers"),
        (lambda: PhaseSpaceFunction(0, np.ones((4, 4))), "PhaseSpaceFunction takes square matrices"),
        (lambda: CharacteristicFunction(0, np.ones((3, 4))), "CharacteristicFunction takes square matrices"),
    ]
    for call, message in cases:
        with pytest.raises(ValueError, match=f"^{message}"):
            call()


def test_a_marginal_line_is_always_set():
    assert marginal_q(F).line == (1, 0) and marginal_r(F).line == (0, 1)
    assert MarginalDistribution(0, "R", np.ones(5)).line == (0, 1)
    # any integer form, read as Python ints; at N = 1 the one point is on every line
    assert MarginalDistribution(0, "Q", np.ones(5), np.array([2, 1])).line == (2, 1)
    assert type(MarginalDistribution(0, "Q", np.ones(5), (np.int64(2), 1.0)).line[1]) is int
    assert radon_q(phase_fn(np.eye(1), 0), 1, 0).values.shape == (1,)


def test_stacked_marginals_equal_per_row_calls():
    # both routes work along the last axis, so leading axes are a batch
    N, B = 7, 3
    states = np.stack([random_density(N, np.random.default_rng(b)) for b in range(B)])
    F1 = phase_fn(states, 1)
    sheared = MarginalDistribution(1, "Q", np.stack([radon_q(PhaseSpaceFunction(1, g), 2, 3).values for g in F1.grid]), (2, 3))
    for stack in (marginal_q(F1), marginal_r(F1), sheared):
        out = smooth_marginal(stack)
        assert out.values.shape == (B, N) and out.line == stack.line
        for b in range(B):
            row = smooth_marginal(MarginalDistribution(stack.s, stack.axis, stack.values[b], stack.line))
            assert np.abs(out.values[b] - row.values).max() <= 1e-15
    F0 = phase_fn(states, 0)
    for line in ((1, 0), (2, 3)):
        stack = MarginalDistribution(0, "Q", np.stack([radon_q(PhaseSpaceFunction(0, g), *line).values for g in F0.grid]), line)
        gen_stack, gen_rows = rng(), rng()
        drawn = sample_marginal(stack, 1000, gen_stack)
        for b in range(B):
            row = sample_marginal(MarginalDistribution(0, "Q", stack.values[b], line), 1000, gen_rows)
            assert np.abs(drawn.values[b] - row.values).max() <= 1e-15
        # the same draws, in the same order
        assert gen_stack.bit_generator.state == gen_rows.bit_generator.state
