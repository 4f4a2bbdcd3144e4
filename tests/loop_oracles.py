"""Loop implementations kept as test oracles for the spectral core.

These are the original per-entry routes: dense `s_op` builds with one
trace each, a Python loop of fancy-index gathers for the smoothing
convolution, N^2 `t_overlap` calls for the smoothing table, the
theta-series double loop of the marginal smoothing, the scalar DFT
sum of the Radon ray inversion, the einsum-built T^(s) family with the
direct kernel traces against it, the family read off an N^2 x N^2
identity of unit grids (the library's route before the displacement
law), K^(-s) as one exp per cell of the log table (the library's route
before the table of distinct log K values), the symplectic generators C, N and M accumulated one basis
element at a time and J as their dense product, the depolarizer's
conjugation loop, and
the teleportation layer on dense operators: Kronecker-built Bell states,
the N^3-dimensional protocol with a partial trace, the N^4 Bell-dyad
loop, the einsum over two T^(s) families, and the receiver coefficients
through the N^4 order-transfer kernel, itself the O(N^6) einsum.  The theta layer keeps
the number states built one Hermite column at a time and the Gamma
table as one einsum per label pair; the kernel itself is checked against
mpmath, since its direct theta series cancels near the minimum of K.  The tomography layer keeps the
scattering circuit as the dense 2N-dimensional Kronecker circuit and
the Wigner reconstruction one ray at a time (a line sum, a draw and an
inversion per Python iteration over the N + 1 rays), the draw's
probabilities rounded by the along-axis rule, and the `qps tomo` report
printed one ray line at a time.  The two-mode table keeps the trace
gather applied one mode after the other, with a batched 2-D DFT per
mode, and the `qps teleport` report is printed one line at a time, and
the self-test keeps its family checks on the cached T^(s) family with
one overlap or trace per label pair.  The storage layouts keep the two-array
fancy indexes that one flat take replaced: the Schwinger gather and scatter
of the cyclic diagonals, the ray cells read and written, and the four-array
gather of the two-mode diagonals; and the grids read at label pairs keep
the two-array fancy index that `lattice._at` replaced (the kernel powers of
`s_op_ordered`, the overlap grid of `t_overlap`, the kernel table of
`kernel_value` and `smooth_marginal`) and `theta._mirror` its outer-product
index.  The dual plane keeps its complex transforms: the inverse 2-D DFT
as two products with the complex phases, and the product by a multiplier in the dual plane as four, the
routes that the real cas table replaced, which also take a multiplier that
is not even, such as the receiver coefficients' shift phase.  The `qps grid`
writer is kept as one Python tuple per row and `json.dumps` over the whole
payload.  They are slow by design and exist only so the fast paths can be
compared against them.
"""

import contextlib
import io
import json
import math
from functools import lru_cache

import numpy as np
from scipy.special import eval_hermite

from qps.lattice import (
    check_dim,
    half_width,
    labels,
    center_mod,
    dagger,
    tensor,
    partial_trace,
    dft_matrix,
    _dft,
    _idft,
    _dft2,
    _cas,
    _phases,
    _traces,
    _conj_phases,
    _diagonals,
)
from qps.theta import phase_phi, kernel_table as cached_kernel_table, _log_kernel, _image_sums
from qps.schwinger import check_order, u_matrix, v_matrix, t_op, _kernel_power
from qps import schwinger
from qps.quasiprob import PhaseSpaceFunction, validate_density, char_fn, phase_fn
from qps import tomography
from qps.tomography import radon_q, radon_r, char_from_radon_q, char_from_radon_r, sample_marginal
from qps.teleport import BellLabel, teleport as protocol


def theta(kind, z, a, tol=1e-16):
    """Scalar theta2/theta3/theta4 series at nome exp(-pi*a), summed one term at a time."""
    q = math.exp(-math.pi * a)
    total, n = (0.0, 0) if kind == 2 else (1.0, 1)
    while True:
        k = n + 0.5 if kind == 2 else n
        amp = 2.0 * q ** (k * k)
        term = amp * math.cos(2 * k * z)
        total += -term if kind == 4 and n % 2 == 1 else term
        if amp < tol:
            return total
        n += 1


def kernel_norm(N):
    a = 1.0 / (2 * N)
    return 2.0 * (theta(3, 0.0, a) * theta(3, 0.0, 4 * a) + theta(4, 0.0, a) * theta(2, 0.0, 4 * a))


def smoothing_1d(chi, N):
    """1-D smoothing weight at a scalar offset from the scalar theta series."""
    a = 1.0 / (2 * N)
    z = 2 * math.pi * a * chi
    num = theta(3, 0.0, a) * theta(3, z, a) + theta(4, 0.0, a) * theta(4, z, a)
    return num / (math.sqrt(2 * N) * 0.5 * kernel_norm(N))


def fock_coefficients(N):
    """Number-state columns F[kappa + ell, n], one Hermite sum per column.

    The winding sum runs over a fixed range of the Hermite argument
    x = sqrt(2 pi / N) beta, |x| <= 40, independent of the library's bound:
    past every turning point sqrt(2n + 1) for N <= 101 by far more than the
    Gaussian tail needs, and with H_n(40) still a finite double there.
    """
    N = check_dim(N)
    kappas = labels(N)
    bmax = int(math.ceil(40 / math.sqrt(2 * math.pi / N)))
    betas = np.arange(-bmax, bmax + 1)
    gauss = np.exp(-math.pi * betas**2 / N)
    phases = np.exp(2j * math.pi * np.outer(betas, kappas) / N)
    F = np.empty((N, N), dtype=complex)
    for n in range(N):
        herm = eval_hermite(n, math.sqrt(2 * math.pi / N) * betas)
        col = ((-1j) ** n / math.sqrt(N)) * (gauss * herm) @ phases
        F[:, n] = col / np.linalg.norm(col)
    return F


def gamma_table(N):
    """G[m, n, eta + ell, xi + ell], one einsum with its own phases per label pair."""
    N = check_dim(N)
    ell = half_width(N)
    F = fock_coefficients(N)
    sigmas = labels(N)
    G = np.empty((N, N, N, N), dtype=complex)
    for xi in range(-ell, ell + 1):
        shifted = F[center_mod(sigmas - xi, N) + ell, :]
        for eta in range(-ell, ell + 1):
            phase = np.exp(2j * np.pi * sigmas * eta / N)
            front = np.exp(-1j * np.pi * eta * xi / N)
            # G_mn = front * sum_sigma phase * F[sigma, n] * conj(F[sigma - xi, m])
            G[:, :, eta + ell, xi + ell] = front * np.einsum(
                "s,sn,sm->mn", phase, F, shifted.conj()
            )
    return G


def char_fn_grid(rho, s):
    """Xi^(s)[eta + ell, xi + ell] = K^(-s) Tr[S(eta, xi) rho], one trace per entry."""
    rho = np.asarray(rho)
    s = check_order(s)
    N = check_dim(rho.shape[0])
    ell = half_width(N)
    Kpow = cached_kernel_table(N) ** (-s)
    grid = np.empty((N, N), dtype=complex)
    for eta in labels(N):
        for xi in labels(N):
            grid[eta + ell, xi + ell] = Kpow[eta + ell, xi + ell] * np.trace(
                s_op(eta, xi, N) @ rho
            )
    return grid


def phase_fn_grid(rho, s):
    """F^(s) as the unfactored einsum DFT of the loop characteristic grid."""
    Xi = char_fn_grid(rho, s)
    N = Xi.shape[0]
    ks = labels(N)
    ph = np.exp(-2j * np.pi * np.outer(ks, ks) / N)
    return np.einsum("em,fn,ef->mn", ph, ph, Xi) / np.sqrt(N)


def smoothing_table(N):
    """E(dmu, dnu) = Re Tr[T^(0) T^(-1)] at offset (dmu, dnu), one overlap per entry."""
    N = check_dim(N)
    ell = half_width(N)
    E = np.empty((N, N))
    for dmu in labels(N):
        for dnu in labels(N):
            E[dmu + ell, dnu + ell] = t_overlap(0, -1, dmu, dnu, N).real
    return E


def convolve(grid, weights):
    """(1/N) sum_{mu',nu'} weights(mu'-mu, nu'-nu) grid(mu', nu'), entry by entry."""
    N = grid.shape[0]
    ell = half_width(N)
    ks = labels(N)
    didx = center_mod(np.subtract.outer(ks, ks), N) + ell
    out = np.empty(grid.shape, dtype=complex)
    for m in range(N):
        for n in range(N):
            out[m, n] = np.sum(weights[np.ix_(didx[:, m], didx[:, n])] * grid) / N
    return out


def smooth_marginal_values(values):
    """sum_{kappa'} smoothing_1d(kappa' - kappa) values(kappa'), one theta pair per term."""
    N = len(values)
    ell = half_width(N)
    ks = labels(N)
    return np.array(
        [sum(smoothing_1d(int(kp) - int(k), N) * values[kp + ell] for kp in ks) for k in ks]
    )


def ray_invert(dist, za, zb, N):
    """Xi^(s)(za*t, zb*t) from a line-sum marginal, one scalar DFT sum per label."""
    ell = half_width(N)
    ks = labels(N)
    out = np.empty(N, dtype=complex)
    for t in ks:
        tot = sum(np.exp(2j * np.pi * k * t / N) * dist.values[k + ell] for k in ks)
        out[t + ell] = tot / N
    return out


def line_sums(F, za, zb):
    """sum of F over each line za*mu' + zb*nu' = label, / sqrt(N), one boolean mask per label."""
    N = F.dim
    ks = labels(N)
    line_of = center_mod(np.add.outer(za * ks, zb * ks), N)
    return np.array([F.grid[line_of == k].sum() for k in ks]) / np.sqrt(N)


def decompose_schwinger(O):
    """C[eta + ell, xi + ell] = Tr[S(-eta, -xi) O], one dense basis element per entry."""
    O = np.asarray(O)
    N = check_dim(O.shape[0])
    ell = half_width(N)
    C = np.empty((N, N), dtype=complex)
    for eta in labels(N):
        for xi in labels(N):
            C[eta + ell, xi + ell] = np.trace(s_op(-eta, -xi, N) @ O)
    return C


def reconstruct_schwinger(C):
    """sum_{eta, xi} C(eta, xi) S(eta, xi), accumulated one basis element at a time."""
    C = np.asarray(C)
    N = check_dim(C.shape[0])
    ell = half_width(N)
    O = np.zeros((N, N), dtype=complex)
    for eta in labels(N):
        for xi in labels(N):
            O += C[eta + ell, xi + ell] * s_op(eta, xi, N)
    return O


def _diagonal_cells(N):
    """rows, cols with O[rows, cols][xi + ell, kappa + ell] = O[kappa, kappa - xi]."""
    ks = labels(N)
    return np.arange(N), center_mod(ks - ks[:, None], N) + half_width(N)


def laid_out(A, layout):
    """A as the same values in another memory layout: "C" (A itself), "transposed" (the
    transpose of a C-ordered array), "reversed" (the view `decompose_schwinger` returns)
    or "F" (a Fortran-ordered copy, a stack included)."""
    if layout == "transposed":
        return np.ascontiguousarray(A.swapaxes(-1, -2)).swapaxes(-1, -2)
    if layout == "reversed":
        return np.ascontiguousarray(A[..., ::-1, ::-1])[..., ::-1, ::-1]
    return np.asfortranarray(A) if layout == "F" else A


def traces(O):
    """`lattice._traces` as it read the diagonals before its flat take: one two-array fancy
    index O[..., rows, cols], then the same product with the inverse-DFT phases."""
    N = O.shape[-1]
    rows, cols = _diagonal_cells(N)
    return (_conj_phases(N) @ O[..., rows, cols].swapaxes(-1, -2)) * _diagonals(N)[2]


def scatter(C):
    """`lattice._scatter` as it wrote the diagonals before its flat take: the same inverse
    DFT, assigned by one two-array fancy index O[..., cols, rows]."""
    N = C.shape[-1]
    rows, cols = _diagonal_cells(N)
    O = np.empty(C.shape, dtype=complex)
    O[..., cols, rows] = _idft((C * _diagonals(N)[2]).swapaxes(-1, -2))
    return O


def idft2(F):
    """Phase space to dual plane, the inverse of `lattice._dft2`, as two complex products with
    the inverse-DFT phases.  Leading axes of F are a batch."""
    N = F.shape[-1]
    return _conj_phases(N) @ F @ _conj_phases(N) * (1 / N**1.5)


def dual_multiply(M, grid):
    """`lattice._dual_multiply` as four complex products, `_dft2(M * idft2(grid))`, for any M."""
    return _dft2(M * idft2(grid))


def cas_sandwich(E):
    """H E H on the cas table (`lattice._cas`), N^1.5 times the inverse 2-D DFT of an E even in
    each label: the library's route to the grid that `t_overlap` reads."""
    return _cas(_cas(E).T).T


def fancy_at(X, eta, xi):
    """`lattice._at` as the two-array fancy index X[..., row(eta), row(xi)] that it replaced."""
    N, ell = X.shape[-1], half_width(X.shape[-1])
    return X[..., center_mod(eta, N) + ell, center_mod(xi, N) + ell]


def fancy_mirror(quadrant):
    """`theta._mirror` as the outer-product index quadrant[np.ix_(rows, rows)] that it replaced."""
    rows = np.abs(labels(2 * len(quadrant) - 1))
    return quadrant[np.ix_(rows, rows)]


def fancy_s_op_ordered(eta, xi, s, N):
    """`schwinger.s_op_ordered` at scalar labels as it read K^(-s) before `lattice._at`."""
    return fancy_at(_kernel_power(check_order(s), N), eta, xi) * schwinger.s_op(eta, xi, N)


def fancy_t_overlap(t, s, dmu, dnu, N):
    """`schwinger.t_overlap` as it read its offset grid before `lattice._at`."""
    out = fancy_at(cas_sandwich(_kernel_power(check_order(t) + check_order(s), N)) * (1 / N), dmu, dnu)
    return complex(out) if np.ndim(out) == 0 else out


def fancy_kernel_value(eta, xi, N):
    """`theta.kernel_value` as it read the kernel table before `lattice._at`."""
    val = (1 - 2 * (phase_phi(eta, xi, N) % 2)) * fancy_at(cached_kernel_table(N), eta, xi)
    return val if val.ndim else float(val)


def fancy_smooth_marginal(dist):
    """The values of `tomography.smooth_marginal` as it read K on the ray before `lattice._at`."""
    N, (za, zb), ts = dist.dim, dist.line, labels(dist.dim)
    out = _dft(fancy_at(cached_kernel_table(N), za * ts, zb * ts) * tomography._ray_invert(dist.values))
    return out.real if np.isrealobj(dist.values) else out


@lru_cache(maxsize=None)
def _t_family(s, N):
    ell = half_width(N)
    ks = labels(N)
    Kpow = cached_kernel_table(N) ** (-s)
    stack = np.empty((N, N, N, N), dtype=complex)
    for eta in ks:
        for xi in ks:
            stack[eta + ell, xi + ell] = s_op(eta, xi, N)
    ph = np.exp(-2j * np.pi * np.outer(ks, ks) / N)  # ph[eta, mu]
    T = np.einsum("em,fn,ef,efij->mnij", ph, ph, Kpow, stack) / np.sqrt(N)
    T.setflags(write=False)
    return T


def t_family(s, N):
    """T^(s)[mu + ell, nu + ell] as the unfactored einsum over N^2 dense basis elements.

    Cached per (s, N); the returned array is read-only.
    """
    return _t_family(check_order(s), check_dim(N))


def log_kernel_every_cell(N):
    """log K built on all N x N label pairs, with no use of its evenness."""
    ks = labels(N)
    r0, r1 = _image_sums(ks, N)
    p = 1 - 2 * (ks % 2)
    B = np.stack([r0, p * r0, r1, -p * r1], axis=-1) @ np.stack([r0, r1, p * r0, p * r1])
    ell = half_width(N)
    return np.log(B / B[ell, ell]) - np.pi * (ks[:, None] ** 2 + ks**2) / (2 * N)


def kernel_power(s, N):
    """K^(-s) = exp(-s log K) taken cell by cell over the log table, at s with its zero parts made positive."""
    return np.exp(-(complex(s) + 0) * _log_kernel(N))


def t_family_units(s, N):
    """T^(s)(mu, nu) = N * reconstruct_t(unit grid at (mu, nu), s) over every label pair.

    The library's family before the displacement law: each row of mu
    scatters K^(-s) times the 2-D DFT of N unit grids, read off an
    N^2 x N^2 identity.
    """
    s, N = check_order(s), check_dim(N)
    units = np.eye(N * N).reshape(N, N, N, N)
    Kpow = schwinger._kernel_power(s, N)
    T = np.empty((N, N, N, N), dtype=complex)
    for m in range(N):
        T[m] = schwinger.reconstruct_schwinger(Kpow * _dft2(units[m]))
    return T


def phase_fn_direct(rho, s):
    """F^(s)(mu, nu) = Tr[T^(s)(mu, nu) rho] by direct kernel traces."""
    rho = np.asarray(rho)
    s = check_order(s)
    N = check_dim(rho.shape[0])
    grid = np.einsum("mnij,ji->mn", t_family(s, N), rho)
    return PhaseSpaceFunction(s, grid)


def generator_sum(N, phase, eta_of, xi_of):
    """sum_{eta,xi} phase(eta, xi) S(eta_of, xi_of) / sqrt(N), one dense basis element per term."""
    acc = np.zeros((N, N), dtype=complex)
    for eta in labels(N):
        for xi in labels(N):
            acc += phase(eta, xi) * s_op(eta_of(eta, xi), xi_of(eta, xi), N)
    return acc / np.sqrt(N)


def _even_shear(omega, N):
    o = -omega
    return o + N if o % 2 else o


def symplectic_c(params):
    """C(Omega1) as the basis sum of exp(-i pi (1 + o1) eta xi / N) S(eta, (1 - o1) xi)."""
    N, o1 = params.N, params.omegas[0]
    return generator_sum(
        N,
        lambda eta, xi: np.exp(-1j * np.pi * (1 + o1) * eta * xi / N),
        lambda eta, xi: eta,
        lambda eta, xi: (1 - o1) * xi,
    )


def symplectic_n(params):
    """N(Omega2) as the basis sum of exp(i pi (o2 xi - 2 eta) xi / N) S(eta, 0), o2 = -Omega2 even mod 2N."""
    N = params.N
    o2 = _even_shear(params.omegas[1], N)
    return generator_sum(
        N,
        lambda eta, xi: np.exp(1j * np.pi * (o2 * xi - 2 * eta) * xi / N),
        lambda eta, xi: eta,
        lambda eta, xi: 0,
    )


def symplectic_m(params):
    """M(Omega3) as the basis sum of exp(-i pi (o3 eta + 2 xi) eta / N) S(0, xi), o3 = -Omega3 even mod 2N."""
    N = params.N
    o3 = _even_shear(params.omegas[2], N)
    return generator_sum(
        N,
        lambda eta, xi: np.exp(-1j * np.pi * (o3 * eta + 2 * xi) * eta / N),
        lambda eta, xi: 0,
        lambda eta, xi: xi,
    )


def symplectic_j(params):
    """J = M(Omega3) N(Omega2) C(Omega1) as two dense products of the basis sums."""
    return symplectic_m(params) @ symplectic_n(params) @ symplectic_c(params)


def conjugation_average(O, w):
    """sum_{eta,xi} w(eta, xi) X O X^dag / N over X = sqrt(N) S(eta, xi), one conjugation per term."""
    O = np.asarray(O)
    N = check_dim(O.shape[0])
    ell = half_width(N)
    acc = np.zeros((N, N), dtype=complex)
    for eta in labels(N):
        for xi in labels(N):
            X = np.sqrt(N) * s_op(eta, xi, N)
            acc += w[eta + ell, xi + ell] * X @ O @ dagger(X)
    return acc / N


def bell_seed(N):
    """|Psi_{0,0}> = N^(-1/2) sum_eps |v_eps> x |v_eps>, one Kronecker product per term."""
    F = dft_matrix(N)
    psi = np.zeros(N * N, dtype=complex)
    for eps in range(N):
        psi += np.kron(F[:, eps], F[:, eps])
    return psi / np.sqrt(N)


def bell_state(omega, N):
    """|Psi_{omega1,omega2}> = (V^omega1 (x) U^(-omega2)) |Psi_{0,0}> with dense matrix powers."""
    N = check_dim(N)
    w = BellLabel(*omega).reduced(N)
    V = np.linalg.matrix_power(v_matrix(N), w.omega1 % N)
    U = np.linalg.matrix_power(u_matrix(N), (-w.omega2) % N)
    return tensor(V, U) @ bell_seed(N)


def teleport(rho1, alpha, beta):
    """Receiver state and outcome probability from the dense N^3-dimensional protocol."""
    rho1 = validate_density(rho1)
    N = check_dim(rho1.shape[0])
    resource = np.outer(bell_seed(N), bell_seed(N).conj())
    rho = tensor(rho1, resource)
    psi12 = bell_state((alpha, beta), N)
    P12 = tensor(np.outer(psi12, psi12.conj()), np.eye(N))
    conditioned = P12 @ rho @ P12
    p = float(np.trace(conditioned).real)
    rho3 = partial_trace(conditioned, [N, N, N], keep=[2])
    return rho3 / p, p


def theta_coeffs(mu1, nu1, mu2, nu2, s1, s2, N):
    """C[w1, w2, w1', w2'] = <Psi_w| T^(s1) (x) T^(s2) |Psi_w'>, one Bell pair per entry."""
    ell = half_width(N)
    TT = tensor(t_op(mu1, nu1, s1, N), t_op(mu2, nu2, s2, N))
    # the N^2 states are built once; each entry is still its own product
    psi = {(int(a), int(b)): bell_state((a, b), N) for a in labels(N) for b in labels(N)}
    C = np.empty((N, N, N, N), dtype=complex)
    for w1 in labels(N):
        for w2 in labels(N):
            for w1p in labels(N):
                for w2p in labels(N):
                    bra, ket = psi[w1, w2], psi[w1p, w2p]
                    C[w1 + ell, w2 + ell, w1p + ell, w2p + ell] = bra.conj() @ (TT @ ket)
    return C


def bipartite_phase_fn_grid(rho, s1, s2):
    """grid[m1, n1, m2, n2] = Tr[T^(s1)(mu1, nu1) (x) T^(s2)(mu2, nu2) rho] as one einsum."""
    N = check_dim(round(np.sqrt(rho.shape[0])))
    R = rho.reshape(N, N, N, N)
    fam1 = schwinger.t_family(s1, N)
    fam2 = schwinger.t_family(s2, N)
    return np.einsum("abij,cdkl,jlik->abcd", fam1, fam2, R)


def bipartite_phase_fn_core(rho, s1, s2):
    """grid[m1, n1, m2, n2] as the trace gather applied to mode 1 (batched over
    the indices of mode 2) and then to mode 2, K^(-s1) (x) K^(-s2), and a
    batched 2-D DFT per mode: 6 N^2 products of N x N slices."""
    N = check_dim(math.isqrt(rho.shape[0]))
    R = rho.reshape(N, N, N, N)  # [i1, i2, j1, j2]
    # Tr[(A x B) rho] = A_ji B_lk R[i, k, j, l]
    X = _traces(_traces(R.transpose(1, 3, 0, 2)).transpose(2, 3, 0, 1))
    X = _kernel_power(s1, N)[:, :, None, None] * X * _kernel_power(s2, N)
    return _dft2(_dft2(X).transpose(2, 3, 0, 1)).transpose(2, 3, 0, 1)


def bipartite_phase_fn(state, s1, s2):
    """`teleport.bipartite_phase_fn` as it gathered the two-mode diagonals before its flat
    take: one fancy index with four index arrays, then the same six products, with the 1/N
    folded into K^(-s2) before the front, as `lattice._traces2` takes it."""
    state = np.asarray(state, dtype=complex)
    if state.ndim == 1:
        state = np.outer(state, state.conj())
    N = math.isqrt(state.shape[0])
    rows, cols = _diagonal_cells(N)
    c, front = cols.T, _diagonals(N)[2]
    X = state.reshape(N, N, N, N)[rows[:, None, None, None], rows[:, None, None], c[:, None, :, None], c[:, None, :]]
    for _ in range(2):
        X = _idft(X.reshape(N, -1).T)
    A = (front * _kernel_power(check_order(s1), N)).T
    B = (front * (_kernel_power(check_order(s2), N) * (1 / N))).T
    X = X.reshape(N, N, N, N) * (A[:, None, :, None] * B[:, None, :])
    for _ in range(4):
        X = _dft(X.reshape(N, -1).T)
    return X.reshape(N, N, N, N).transpose(2, 0, 3, 1)


def r_kernel(alpha, beta, ds, N):
    """The paper's order-transfer kernel R[m1, n1, m3, n3] as the unoptimised three-operand einsum
    of 1-D phases and K^ds; the library holds no N^4 table and contracts it in the dual plane."""
    N = check_dim(N)
    ks = labels(N)
    Kpow = cached_kernel_table(N) ** complex(ds)
    # exp{(2 pi i / N) [eta (mu1 - mu3 + alpha) - xi (nu1 - nu3 - beta)]}
    pe = np.exp(2j * np.pi * np.multiply.outer(np.subtract.outer(ks, ks) + alpha, ks) / N)
    px = np.exp(-2j * np.pi * np.multiply.outer(np.subtract.outer(ks, ks) - beta, ks) / N)
    # pe[m1, m3, eta], px[n1, n3, xi]
    return np.einsum("ace,bdf,ef->abcd", pe, px, Kpow) / N**2


def phase_multiplier_lambda_coeffs(F1, alpha, beta, s3):
    """Receiver coefficients as one multiplier in the dual plane, K^(s3 - s1) times the shift
    phase exp(2 pi i (alpha eta - beta xi) / N), which is not even, through the complex route."""
    s1, N = -complex(F1.s), F1.dim
    shift = np.outer(_phases(-alpha, N), _phases(beta, N))
    return dual_multiply(_kernel_power(s1 - complex(s3), N) * shift, F1.grid)


def lambda_coeffs(F1, alpha, beta, s3):
    """Receiver coefficients as the contraction of the N^4 order-transfer kernel with F1."""
    s1 = -complex(F1.s)
    R = r_kernel(alpha, beta, complex(s3) - s1, F1.dim)
    return np.einsum("abcd,ab->cd", R, F1.grid)


def s_op(eta, xi, N):
    """S(eta, xi) at scalar labels, one matrix per call with the phase front in Python scalars."""
    ell = half_width(N)
    ks = labels(N)
    S = np.zeros((N, N), dtype=complex)
    front = np.exp(1j * np.pi * eta * xi / N) / np.sqrt(N)
    S[center_mod(ks - xi, N) + ell, ks + ell] = front * np.exp(2j * np.pi * eta * (ks - xi) / N)
    return S


def scattering_circuit(rho, U):
    """Ancilla (<sigma_z>, <sigma_y>) of the dense Hadamard-test circuit on |0><0| (x) rho."""
    rho, U = np.asarray(rho), np.asarray(U)
    d = rho.shape[0]
    anc0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    H = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2)
    ctrl = tensor(np.diag([1.0, 0.0]), np.eye(d)) + tensor(np.diag([0.0, 1.0]), U)
    circ = tensor(H, np.eye(d)) @ ctrl @ tensor(H, np.eye(d))
    state = circ @ tensor(anc0, rho) @ dagger(circ)
    sz = np.diag([1.0, -1.0])
    sy = np.array([[0.0, 1j], [-1j, 0.0]])
    out_z = np.trace(tensor(sz, np.eye(d)) @ state)
    out_y = np.trace(tensor(sy, np.eye(d)) @ state)
    return float(out_z.real), float(out_y.real)


def ray_loop(rho, shots=None, rng=None):
    """The Wigner grid rebuilt ray by ray, and the ((za, zb), values) pairs
    holding the characteristic values recovered on each ray.

    One Python iteration per ray of the prime-N plane, (1, k) for
    k = 0..N-1 and then (0, 1): a line sum, optionally a draw, and the
    ray inverse, each through the public per-line functions.  With shots
    `sample_marginal` draws each ray's twisted line sums and untwists them.
    """
    rho = np.asarray(rho)
    N = rho.shape[0]
    ell = half_width(N)
    ks = labels(N)
    F = phase_fn(rho, 0)

    def measured(dist):
        return dist if shots is None else sample_marginal(dist, shots, rng)

    Xi = np.zeros((N, N), dtype=complex)
    rays = []
    for k in range(N):
        cells = ks + ell, center_mod(k * ks, N) + ell
        vals = char_from_radon_q(measured(radon_q(F, 1, k)), 1, k, N)
        Xi[cells] = vals
        rays.append(((1, k), vals))
    vals = char_from_radon_r(measured(radon_r(F, 0, 1)), 0, 1, N)
    Xi[ell, :] = vals
    rays.append(((0, 1), vals))
    return PhaseSpaceFunction(0, _dft2(Xi)), rays


def ray_cells(N):
    """rows, cols with Xi[rows, cols][j, t + ell] = Xi(za*t, zb*t) on ray j = (za, zb) of
    `tomography._ray_cells`."""
    rays, ts, ell = tomography._ray_cells(N)[0], labels(N), half_width(N)
    return center_mod(np.outer(rays[:, 0], ts), N) + ell, center_mod(np.outer(rays[:, 1], ts), N) + ell


def on_rays(Xi):
    """`tomography._on_rays` as the two-array fancy index Xi[..., rows, cols]."""
    rows, cols = ray_cells(Xi.shape[-1])
    return Xi[..., rows, cols]


def onto_rays(vals, shape):
    """The dual-plane grid `tomography._ray_loop` rebuilds from the ray values, written
    by the two-array fancy assignment Xi[..., rows, cols] = vals into zeros."""
    rows, cols = ray_cells(shape[-1])
    Xi = np.zeros(shape, dtype=complex)
    Xi[..., rows, cols] = vals
    return Xi


def ray_cover(N):
    """The points of P^1(Z_N) as a set of classes, each the frozenset of the
    primitive cells (gcd(a, b, N) = 1) that are unit multiples of one another,
    built by loops over cells and units."""
    units = [u for u in range(N) if math.gcd(u, N) == 1]
    classes, seen = set(), set()
    for a in range(N):
        for b in range(N):
            if math.gcd(math.gcd(a, b), N) != 1 or (a, b) in seen:
                continue
            cls = frozenset((u * a % N, u * b % N) for u in units)
            seen |= cls
            classes.add(cls)
    return classes


def draw_probabilities(p):
    """The probabilities `tomography._draw` hands the multinomial, by the
    along-axis rule: rows rounded to multiples of 2^-32, each row's rounding
    error added to its largest bin by take_along_axis/put_along_axis."""
    p = np.maximum(p, 0.0)
    q = np.rint(p / p.sum(axis=-1, keepdims=True) * 2**32) / 2**32
    top = q.argmax(axis=-1)[..., None]
    rest = 1 - q.sum(axis=-1, keepdims=True)
    np.put_along_axis(q, top, np.take_along_axis(q, top, -1) + rest, -1)
    return q


def tomo_inputs(rho, shots=None, seed=0):
    """(rays, Xi, vals, R, F) of one `qps tomo` run on rho: the rays of
    `tomography._ray_cells` in order, the characteristic grid, the values
    recovered on each ray, and the rebuilt and the exact Wigner grid.  With
    shots, each route draws from a generator seeded by `seed`, as `qps tomo
    --seed` does."""
    N = rho.shape[-1]
    rng = (lambda: None) if shots is None else (lambda: np.random.default_rng(seed))
    rays = tomography._ray_cells(N)[0].tolist()
    vals = tomography._ray_loop(rho, shots, rng())[1]
    R = tomography.reconstruct_wigner(rho, shots, rng()).grid
    return rays, char_fn(rho, 0).grid, vals, R, phase_fn(rho, 0).grid


def tomo_report(rays, Xi, vals, R, F, shots=None, seed=0):
    """The `qps tomo` stdout and exit code, printed one ray line at a time."""
    N = Xi.shape[-1]
    ell, ts = half_width(N), labels(N)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for (za, zb), row in zip(rays, vals):
            ref = Xi[center_mod(za * ts, N) + ell, center_mod(zb * ts, N) + ell]
            print(f"ray ({za},{zb}): max |dXi| = {float(np.abs(row - ref).max()):.15g}")
        err = float(np.abs(R - F).max())
        if shots is not None:
            print(f"shots: {shots}  seed: {seed}")
            print(f"statistical max |dW|: {err:.15g}")
        else:
            print(f"max |dW|: {err:.15g}")
    return out.getvalue(), 0 if shots is not None or err < 1e-9 else 1


def teleport_report(rho, alpha, beta):
    """The `qps teleport` stdout and exit code for a parsed state, printed one
    line at a time, with the shift law checked against `np.roll`."""
    N = rho.shape[0]
    alpha, beta = center_mod(alpha, N), center_mod(beta, N)
    rho3, p = protocol(rho, alpha, beta)
    W1 = phase_fn(rho, 0).grid.real
    W3 = phase_fn(rho3, 0).grid.real
    expected = (center_mod(-alpha, N), beta)
    err = float(np.abs(W3 - np.roll(W1, (alpha, -beta), axis=(0, 1))).max())
    ok = err < 1e-9 and abs(p - 1 / N**2) < 1e-12
    measured = expected
    if err >= 1e-9:
        ks = labels(N)
        dists = np.array(
            [[np.abs(W3 - np.roll(W1, (da, db), axis=(0, 1))).max() for db in ks] for da in ks]
        )
        i, j = np.unravel_index(np.argmin(dists), dists.shape)
        measured = (center_mod(-ks[i], N), center_mod(-ks[j], N))
    fid = float(np.trace(rho3 @ rho3).real)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        print(f"p({alpha},{beta}) = {p:.15g}  (uniform value {1 / N**2:.15g})")
        print(f"measured displacement: ({measured[0]},{measured[1]})  expected ({expected[0]},{expected[1]})")
        print(f"shift-law residual: {err:.15g}")
        print(f"receiver purity: {fid:.15g}")
    return out.getvalue(), 0 if ok else 1


# the oracle's own einsum table, built once per N; test_spectral_core compares it
# with the library's `theta.gamma_table`, so no oracle reads the code under test
cached_gamma_table = lru_cache(maxsize=None)(gamma_table)


def t_overlap(t, s, dmu, dnu, N):
    """Tr[T^(t)(mu, nu) T^(s)(mu + dmu, nu + dnu)] at one offset pair, one phase sum."""
    ks = labels(N)
    Kpow = cached_kernel_table(N) ** (-(complex(t) + complex(s)))
    ph = np.exp(2j * np.pi * np.add.outer(ks * dmu, ks * dnu) / N)
    return complex(np.sum(ph * Kpow) / N)


def t_matrix_element(m, n, mu, nu, s, N):
    """<m|T^(s)(mu, nu)|n> as the phase sum of K^(-s) against the Gamma table."""
    ks = labels(N)
    Kpow = cached_kernel_table(N) ** (-complex(s))
    ph = np.exp(-2j * np.pi * np.add.outer(ks * mu, ks * nu) / N)
    return complex(np.sum(ph * Kpow * cached_gamma_table(N)[m, n]) / N)


def selftest_family_residuals(N):
    """The self-test's resolution, unit-trace and orthogonality residuals on the T^(0) family."""
    fam0 = schwinger.t_family(0, N)
    ks = labels(N)
    return (
        np.abs(fam0.sum(axis=(0, 1)) / N - np.eye(N)).max(),
        max(abs(np.trace(fam0[i, j]) - 1) for i in range(N) for j in range(N)),
        max(
            abs(t_overlap(0, 0, d1, d2, N) - N * (d1 == 0) * (d2 == 0))
            for d1 in ks
            for d2 in ks
        ),
    )


def grid_rows(grid, N):
    """(label1, label2, value) per label pair, label1 outer, one Python tuple each."""
    ell = half_width(N)
    for mu in labels(N):
        for nu in labels(N):
            val = grid[mu + ell, nu + ell]
            yield int(mu), int(nu), complex(val)


def grid_text(grid, N, s, kind, fmt):
    """The `qps grid` CSV or JSON text built row by row, the JSON through `json.dumps`."""
    rows = [(a, b, v.real, v.imag) for a, b, v in grid_rows(np.asarray(grid, dtype=complex), N)]
    if fmt == "csv":
        lines = ["label1,label2,re,im"]
        lines += [f"{a},{b},{re:.15g},{im:.15g}" for a, b, re, im in rows]
        return "\n".join(lines) + "\n"
    payload = {
        "dim": N,
        "s": f"{s.real:.15g},{s.imag:.15g}",
        "kind": kind,
        "data": [[a, b, float(f"{re:.15g}"), float(f"{im:.15g}")] for a, b, re, im in rows],
    }
    return json.dumps(payload, indent=1) + "\n"
