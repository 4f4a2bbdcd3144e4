"""Marginal distributions, symplectic (Bogoliubov-type) transformations,
discrete Radon transforms and their ray inverses, Wigner reconstruction
from simulated line sums, and the scattering-circuit simulator.

`radon_q`/`radon_r`, `char_from_radon_q`/`_r` and `sample_marginal` are
the per-line objects.  `reconstruct_wigner` handles every ray of the
plane at once, one per point of the projective line P^1(Z_N) (N + 1 rays
at prime N), as (rays, N) stacks: one Fourier-slice gather for the line
sums, one multinomial draw and one inverse DFT.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .lattice import check_dim, half_width, labels, center_mod, _dft_phases, _conj_phases, _dft2, _traces, _table_cache
from .theta import kernel_table
from .quasiprob import PhaseSpaceFunction

__all__ = [
    "MarginalDistribution",
    "SymplecticParams",
    "mod_inverse",
    "marginal_q",
    "marginal_r",
    "smooth_marginal",
    "symplectic_c",
    "symplectic_n",
    "symplectic_m",
    "symplectic_j",
    "radon_q",
    "radon_r",
    "char_from_radon_q",
    "char_from_radon_r",
    "reconstruct_wigner",
    "scattering_circuit",
    "sample_marginal",
]


@dataclass(frozen=True)
class MarginalDistribution:
    """Length-N marginal over one centered label, tagged with its order s.

    `axis` is "Q" (coordinate-like) or "R" (momentum-like); `line` holds
    the integer pair selecting the summation line, None for the plain
    axis-aligned marginal.
    """

    s: complex
    axis: str
    values: np.ndarray
    line: tuple | None = None

    @property
    def dim(self):
        return self.values.shape[-1]


def _require_single(array, ndim, name):
    """Reject a stack: `name` takes one grid (ndim 2) or one marginal (ndim 1)."""
    if np.ndim(array) != ndim:
        what = "N x N grid" if ndim == 2 else "length-N marginal"
        raise ValueError(f"{name} takes one {what}, got shape {np.shape(array)}")


def _require_square(array, name):
    """Reject anything but square matrices over the last two axes."""
    shape = np.shape(array)
    if len(shape) < 2 or shape[-2] != shape[-1]:
        raise ValueError(f"{name} takes square matrices, got shape {shape}")


def mod_inverse(a, N):
    """Multiplicative inverse of a mod N, as a centered label."""
    a = int(a) % N
    if math.gcd(a, N) != 1:
        raise ValueError(f"{a} has no inverse mod {N}")
    return center_mod(pow(a, -1, N), N)


@dataclass(frozen=True)
class SymplecticParams:
    """Integer quadruple (z1, z2, z3, z4) with z1*z4 - z2*z3 = 1 mod N."""

    z1: int
    z2: int
    z3: int
    z4: int
    N: int

    def __post_init__(self):
        N = check_dim(self.N)
        for name in ("z1", "z2", "z3", "z4"):
            object.__setattr__(self, name, center_mod(getattr(self, name), N))
        if (self.z1 * self.z4 - self.z2 * self.z3 - 1) % N != 0:
            raise ValueError(
                f"({self.z1},{self.z2},{self.z3},{self.z4}) has determinant "
                f"!= 1 mod {N}"
            )
        # both inverses below must exist for the generator decomposition
        mod_inverse(self.z4, N)
        mod_inverse(1 + self.z2 * self.z3, N)

    @property
    def omegas(self):
        """Generator parameters (Omega1, Omega2, Omega3) as centered labels."""
        N = self.N
        inv_z4 = mod_inverse(self.z4, N)
        inv_q = mod_inverse(1 + self.z2 * self.z3, N)
        o1 = center_mod(self.z4 * inv_q, N)
        o2 = center_mod(self.z2 * inv_z4 * (1 + self.z2 * self.z3), N)
        o3 = center_mod(self.z3 * self.z4 * inv_q, N)
        return o1, o2, o3

    def matrix(self):
        return np.array([[self.z1, self.z2], [self.z3, self.z4]])


def marginal_q(F):
    """Coordinate marginal Q^(s)(mu) = sum_nu F^(s)(mu, nu) / sqrt(N).

    Leading axes of the grid are a batch.
    """
    return MarginalDistribution(F.s, "Q", F.grid.sum(axis=-1) / np.sqrt(F.dim))


def marginal_r(F):
    """Momentum marginal R^(s)(nu) = sum_mu F^(s)(mu, nu) / sqrt(N).

    Leading axes of the grid are a batch.
    """
    return MarginalDistribution(F.s, "R", F.grid.sum(axis=-2) / np.sqrt(F.dim))


def _ray(dist):
    """The marginal's ray: `dist.line`, or (1, 0) for Q and (0, 1) for R when axis-aligned."""
    return dist.line or ((1, 0) if dist.axis == "Q" else (0, 1))


def smooth_marginal(dist):
    """One step down the marginal hierarchy (s -> s - 1) on any summation line.

    Line sums are a Fourier slice of the characteristic function, so the
    step is the ray inverse, a product by K on the ray (za*t, zb*t) and
    the forward DFT.  The ray is `dist.line`, or (1, 0) for Q and (0, 1)
    for R when the marginal is axis-aligned.
    """
    _require_single(dist.values, 1, "smooth_marginal")
    N = dist.dim
    s = complex(dist.s)
    if abs(s - 1) > 1e-12 and abs(s) > 1e-12:
        raise ValueError(f"marginal smoothing is defined at s = 1 or 0, got {s}")
    za, zb = _ray(dist)
    ts, ell = labels(N), half_width(N)
    K = kernel_table(N)[center_mod(za * ts, N) + ell, center_mod(zb * ts, N) + ell]
    out = _dft_phases(N) @ (K * _ray_invert(dist.values))
    # K is even along every ray, so real line sums stay real
    out = out.real if np.isrealobj(dist.values) else out
    return MarginalDistribution(s - 1, dist.axis, out, dist.line)


@_table_cache
def _roots(N):
    """Read-only 2N-th roots of unity exp(i pi m / N), m = 0..2N-1."""
    w = np.exp(1j * np.pi * np.arange(2 * N) / N)
    w.setflags(write=False)
    return w


def _chirp(o, kappa, N):
    """exp(i pi o kappa^2 / N), the exponent reduced mod 2N first (o an integer)."""
    return _roots(N)[(o * kappa**2) % (2 * N)]


def _even_shear(omega, N):
    """-omega as the even representative of its class mod 2N.

    The quadratic phase exp(i pi o kappa^2 / N) is N-periodic in kappa
    only for even o; an odd representative breaks the conjugation law at
    wraparound.  The sign matches the downward-shift V convention, so
    that J reproduces (eta, xi) -> (z1 eta + z2 xi, z3 eta + z4 xi).
    """
    o = -omega
    return o + N if o % 2 else o


def _circulant(omega3, cols, N):
    """M(Omega3)[j, k] at column labels `cols`: c(cols[k] - j), where
    c = DFT of the momentum chirp exp(-i pi o3 eta^2 / N), divided by N."""
    ks, ell = labels(N), half_width(N)
    c = _dft_phases(N) @ _chirp(-_even_shear(omega3, N), ks, N) / N
    return c[center_mod(cols[None, :] - ks[:, None], N) + ell]


def symplectic_c(params):
    """Scaling-type generator C(Omega1): the dilation |kappa> -> |Omega1 kappa mod N>."""
    N = params.N
    ks, ell = labels(N), half_width(N)
    C = np.zeros((N, N), dtype=complex)
    C[center_mod(params.omegas[0] * ks, N) + ell, ks + ell] = 1
    return C


def symplectic_n(params):
    """Coordinate quadratic-phase generator N(Omega2): the diagonal chirp
    exp(i pi o2 kappa^2 / N), o2 = -Omega2 as its even representative mod 2N."""
    N = params.N
    return np.diag(_chirp(_even_shear(params.omegas[1], N), labels(N), N))


def symplectic_m(params):
    """Momentum quadratic-phase generator M(Omega3): the circulant
    M[j, k] = c(k - j), the chirp exp(-i pi o3 eta^2 / N) conjugated by the
    DFT, with o3 = -Omega3 as its even representative mod 2N."""
    N = params.N
    return _circulant(params.omegas[2], labels(N), N)


def symplectic_j(params):
    """Full Bogoliubov-type transformation J = M(O3) N(O2) C(O1), as one gather.

    C sends |k> to |Omega1 k>, where N multiplies by its chirp, so
    J[j, k] = c(Omega1 k - j) exp(i pi o2 (Omega1 k)^2 / N): O(N^2), with
    no matrix product.
    """
    N = params.N
    o1, o2, o3 = params.omegas
    cols = center_mod(o1 * labels(N), N)
    return _circulant(o3, cols, N) * _chirp(_even_shear(o2, N), cols, N)


def _line_sums(F, za, zb, axis):
    """sum of F over each line za*mu' + zb*nu' = label, / sqrt(N), by one bincount."""
    _require_single(F.grid, 2, "radon_" + axis.lower())
    N = F.dim
    if center_mod(za, N) == 0 and center_mod(zb, N) == 0:
        raise ValueError(f"degenerate line: ({za}, {zb}) = (0, 0) mod N")
    ks = labels(N)
    line = (center_mod(np.add.outer(za * ks, zb * ks), N) + half_width(N)).ravel()
    grid = F.grid.ravel()
    values = np.bincount(line, grid.real, N) + 1j * np.bincount(line, grid.imag, N)
    return MarginalDistribution(F.s, axis, values / np.sqrt(N), (int(za), int(zb)))


def radon_q(F, z1, z3):
    """Line-sum marginal Q^(s)(mu; z1, z3) over lines z1*mu' + z3*nu' = mu."""
    return _line_sums(F, z1, z3, "Q")


def radon_r(F, z2, z4):
    """Line-sum marginal R^(s)(nu; z2, z4) over lines z2*mu' + z4*nu' = nu."""
    return _line_sums(F, z2, z4, "R")


def _ray_invert(values):
    """Common inverse: Xi^(s)(za*t, zb*t) for t in [-ell, ell] from the line sums
    on the ray (za, zb), along the last axis of `values`.

    The line sums of F^(s) are a Fourier slice of its characteristic
    function, K^(-s) included, so one inverse DFT recovers the ray at
    every order s.
    """
    # out[t] = sum_k exp(2*pi*i*k*t/N) values(k) / N
    N = values.shape[-1]
    return values @ _conj_phases(N) / N


def _char_from_radon(dist, axis, za, zb, N):
    if dist.axis != axis:
        raise ValueError(f"expected a {axis}-type marginal")
    line = _ray(dist)
    if (za - line[0]) % N or (zb - line[1]) % N:
        raise ValueError(f"ray ({za}, {zb}) is not the marginal's line {line} mod N = {N}")
    return _ray_invert(dist.values)


def char_from_radon_q(dist, z1, z3, N):
    """Ray values Xi^(s)(z1*eta, z3*eta) recovered from a Q-type line sum on that ray."""
    return _char_from_radon(dist, "Q", z1, z3, N)


def char_from_radon_r(dist, z2, z4, N):
    """Ray values Xi^(s)(z2*xi, z4*xi) recovered from an R-type line sum on that ray."""
    return _char_from_radon(dist, "R", z2, z4, N)


def _draw(p, shots, rng):
    """Multinomial shot-noise estimates of the line sums p, one per row of the last axis.

    Each row is scaled to probabilities, sampled with `shots` draws and
    rescaled, preserving its sum sqrt(N).  Negative values count as zero.
    The probabilities are rounded to integer counts of 2^-32, the row's
    rounding error going to its largest bin, so numpy's running
    remainder subtracts them exactly: a conditional probability of 1/2,
    where numpy's binomial changes algorithm, stays exactly 1/2, and a
    last-bit change of p (its sign at zero included) moves no draw unless
    it crosses a rounding boundary, a chance below 2^-18 per row.  numpy
    draws the rows in order, as one call per row would.
    """
    if not isinstance(shots, numbers.Integral) or shots < 1:
        raise ValueError(f"shots must be an integer >= 1, got {shots!r}")
    N = p.shape[-1]
    p = np.maximum(p, 0.0)
    counts = np.rint(p / p.sum(axis=-1, keepdims=True) * 2**32)
    rows = counts.reshape(-1, N)  # a view: the update below writes counts
    rows[np.arange(len(rows)), rows.argmax(axis=1)] += 2**32 - rows.sum(axis=1)
    return rng.multinomial(shots, counts / 2**32) / shots * math.sqrt(N)


def sample_marginal(dist, shots, rng):
    """Multinomial shot-noise estimate of an s = 0 marginal.

    The values are scaled to probabilities, sampled with `shots` draws
    (an integer >= 1) and rescaled, preserving the sum sqrt(N).  `_draw`
    holds the rule that rounds the probabilities before the draw.
    """
    _require_single(dist.values, 1, "sample_marginal")
    if abs(complex(dist.s)) > 1e-12:
        raise ValueError("shot sampling is defined for s = 0 marginals only")
    return MarginalDistribution(dist.s, dist.axis, _draw(dist.values.real, shots, rng), dist.line)


def reconstruct_wigner(rho, shots=None, rng=None):
    """Reconstruct the Wigner grid of `rho` from simulated line sums.

    The R rays, one per point of the projective line P^1(Z_N) (N + 1 at
    prime N, 12 at N = 9; `_ray_cells`), cover the dual plane at every odd
    N and are handled at once: one gather of the traces at K^0 = 1, one
    Fourier slice for the line sums, one inverse DFT for the rays and one
    2-D DFT back to phase space, O(R N^2) in all.  With `shots` set (an
    integer >= 1, with a generator `rng`), the line sums are replaced by
    seeded multinomial estimates, drawn ray by ray in order.  Leading axes
    of rho are a batch; shots are then drawn state by state.
    """
    return PhaseSpaceFunction(0, _dft2(_ray_loop(rho, shots, rng)[-1]))


@_table_cache
def _ray_cells(N):
    """One ray per point of the projective line P^1(Z_N) as an (R, 2) array,
    and the dual-plane cells they pass through: ray j meets (za*t, zb*t) at
    [rows[j, t + ell], cols[j, t + ell]].  Per prime power q = p^a of N the
    classes are (1, k), k mod q, then (p*j, 1), j mod q/p, joined by CRT:
    R = N prod_{p | N} (1 + 1/p) rays, covering every dual cell.  At prime
    N they are (1, 0), ..., (1, N-1), (0, 1); at N = 1, the cell (0, 0).
    O(R N) per N.
    """
    rays, n = np.zeros((1, 2), dtype=int), N
    for p in range(3, N + 1, 2):
        q = 1
        while n % p == 0:
            n, q = n // p, q * p
        if q > 1:
            e = N // q * pow(N // q, -1, q)  # 1 mod q, 0 mod N / q
            local = [(1, k) for k in range(q)] + [(p * j, 1) for j in range(q // p)]
            rays = (rays[:, None] + e * np.array(local)).reshape(-1, 2) % N
    ts, ell = labels(N), half_width(N)
    rows = center_mod(np.outer(rays[:, 0], ts), N) + ell
    cols = center_mod(np.outer(rays[:, 1], ts), N) + ell
    for a in (rays, rows, cols):
        a.setflags(write=False)
    return rays, rows, cols


def _ray_sums(Xi):
    """Line sums on every ray of `_ray_cells`, one row per ray, of the
    phase-space grid whose characteristic grid is Xi.

    By the projection-slice theorem they are the 1-D DFT of Xi along each
    ray: one gather and one product.
    """
    N = Xi.shape[-1]
    _, rows, cols = _ray_cells(N)
    return Xi[..., rows, cols] @ _dft_phases(N)


def _ray_loop(rho, shots, rng):
    """Every ray of `reconstruct_wigner` in one pass over (rays, N) stacks.

    Returns the characteristic grid Xi^(0) of rho, one gather of its traces
    (K^0 = 1), the values recovered on each ray of `_ray_cells`, one row per
    ray, and the dual-plane grid they rebuild, whose `_dft2` is the
    reconstruction.  Leading axes of rho are a batch.
    """
    rho = np.asarray(rho)
    _require_square(rho, "reconstruct_wigner")
    N = check_dim(rho.shape[-1])
    if shots is not None and rng is None:
        raise ValueError("shot sampling needs a generator: pass rng with shots")
    Xi0 = _traces(rho)
    sums = _ray_sums(Xi0)
    if shots is not None:
        sums = _draw(sums.real, shots, rng)
    vals = _ray_invert(sums)
    _, rows, cols = _ray_cells(N)
    Xi = np.zeros(rho.shape, dtype=complex)
    # a cell of order below N (the origin on every ray) lies on several
    # rays and keeps the value of the last one written
    Xi[..., rows, cols] = vals
    return Xi0, vals, Xi


def _label_traces(rho, eta, xi):
    """(Tr rho U, Tr rho U^dag) for U = sqrt(N) S(eta, xi), read from rho's entries.

    Column kappa of U holds its one entry in row center_mod(kappa - xi),
    with phase exp(i pi eta (2 kappa - xi) / N) at the raw labels.  That
    phase is a row exp(2 pi i eta kappa / N), set by eta alone, times the
    front exp(-i pi eta xi / N).  So each trace is the dot product of an
    eta row with the N entries of rho gathered for xi, times the front:
    O(N) per label pair, with no S built.  Rows and gathers are made once
    per label, not per pair, so an eta x xi plane needs O(N^2) memory.
    Every integer exponent is reduced mod 2N before its phase is read,
    which keeps the quasi-periodic signs of out-of-range labels exact.
    """
    N = check_dim(rho.shape[0])
    ks, ell, roots = labels(N), half_width(N), _roots(N)
    eta, xi = np.asarray(eta)[..., None], np.asarray(xi)[..., None]
    cols, rows = ks + ell, (ks + ell - xi) % N
    phase = roots[(2 * eta * ks) % (2 * N)][..., None, :]
    front = roots[(-eta * xi) % (2 * N)][..., 0]
    # (1, N) @ (N, 1) on the broadcast label axes: one dot product per pair
    tr_u = front * (phase @ rho[cols, rows][..., None])[..., 0, 0]
    tr_ud = front.conj() * (phase.conj() @ rho[rows, cols][..., None])[..., 0, 0]
    return tr_u, tr_ud


def scattering_circuit(rho, eta=None, xi=None, unitary=None):
    """Hadamard-test interferometer reading out Re/Im of Tr(U rho).

    The ancilla qubit starts in |0>, passes a Hadamard, controls U on the
    system, passes a second Hadamard; the returned pair is the ancilla
    (<sigma_z>, <sigma_y>).  With the default U = sqrt(N) S(eta, xi) this
    equals sqrt(N) (Re, Im) of Xi^(0)(eta, xi).

    In the ancilla's 2 x 2 block form the circuit takes |0><0| (x) rho to
    the blocks X_a rho X_b^dag / 4, with X_0 = I + U and X_1 = I - U.  The
    block identities X_0^dag X_0 - X_1^dag X_1 = 2 (U + U^dag) and
    X_0^dag X_1 - X_1^dag X_0 = 2 (U^dag - U) leave two traces:

        <sigma_z> = Re (Tr rho U + Tr rho U^dag) / 2,
        <sigma_y> = Re i (Tr rho U^dag - Tr rho U) / 2.

    For an explicit `unitary` each trace is an elementwise sum, O(N^2),
    for any square U and rho.  For integer labels (any range, with the
    quasi-periodic signs of `s_op`) S is never built: U has one entry per
    column, so each trace is a gather of N entries of rho and one dot
    product, O(N) per label pair (`_label_traces`).  Leading axes of
    `unitary`, or the broadcast shape of array labels `eta`, `xi`, are a
    batch, and the pair is then two arrays; the labels `ks[:, None]` and
    `ks` read the whole dual plane in O(N^3) time and O(N^2) memory.
    `rho` is one square matrix: a stack raises ValueError.
    """
    rho = np.asarray(rho)
    _require_single(rho, 2, "scattering_circuit")
    _require_square(rho, "scattering_circuit")
    if unitary is None:
        if eta is None or xi is None:
            raise ValueError("either (eta, xi) or an explicit unitary is required")
        tr_u, tr_ud = _label_traces(rho, eta, xi)
    else:
        U = np.asarray(unitary)
        tr_u = np.sum(U * rho.T, axis=(-2, -1))  # Tr rho U
        tr_ud = np.sum(U.conj() * rho, axis=(-2, -1))  # Tr rho U^dag
    out_z = ((tr_u + tr_ud) / 2).real
    # ancilla y-polarization, oriented so the pair reads (Re, +Im) of Tr(U rho)
    out_y = (1j * (tr_ud - tr_u) / 2).real
    if out_z.ndim == 0:
        return float(out_z), float(out_y)
    return out_z, out_y
