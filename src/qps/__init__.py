"""Phase-space toolkit for odd-dimensional quantum systems.

Discrete s-parametrized quasiprobability functions (Glauber-Sudarshan,
Wigner, Husimi) built on a clock/shift operator basis with Jacobi-theta
kernels, plus Radon-transform tomography, a scattering-circuit simulator,
and qudit teleportation in phase space.
"""

from .lattice import (
    check_dim,
    half_width,
    labels,
    center_mod,
    dagger,
    tensor,
    partial_trace,
    dft_matrix,
)
from .theta import (
    theta,
    phase_phi,
    kernel_value,
    kernel_table,
    smoothing_1d,
    fock_coefficients,
    gamma_table,
)
from .schwinger import (
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
from .quasiprob import (
    FormalismViolation,
    PhaseSpaceFunction,
    CharacteristicFunction,
    validate_density,
    maximally_mixed,
    fock_state,
    fock_projector,
    coherent_projector,
    coherent_state,
    random_density,
    char_fn,
    phase_fn,
    smoothing_table,
    smooth_p_to_w,
    smooth_w_to_h,
    smooth_p_to_h,
    expectation,
    t_matrix_element,
    reconstruct_rho,
)
from .tomography import (
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
from .teleport import (
    BellLabel,
    BipartitePhaseFn,
    bell_state,
    bell_projector,
    bipartite_phase_fn,
    upsilon_coeffs,
    theta_coeffs,
    teleport,
    r_kernel,
    lambda_coeffs,
    teleport_via_coeffs,
)

__version__ = "0.1.0"
