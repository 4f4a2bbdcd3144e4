"""Marginal distributions, symplectic (Bogoliubov-type) transformations,
discrete Radon transforms and their ray inverses, Wigner reconstruction
from simulated line sums, and the scattering-circuit simulator.

`radon_q`/`radon_r`, `char_from_radon_q`/`_r` and `sample_marginal` are the
per-line objects.  `reconstruct_wigner` handles every ray of the plane at
once, one per point of the projective line P^1(Z_N) (N + 1 rays at prime
N), as (rays, N) stacks: one Fourier-slice gather for the line sums, one
multinomial draw and one inverse DFT.  Both shot routes draw the twisted
line sums, which are probabilities (`_ray_cells`, `_shot_values`).
"""

import math
from dataclasses import dataclass

import numpy as np

from .lattice import check_dim, half_width, labels, center_mod, _at, _index, _integer, _integers, _invalid, _square, _matrix, _root, _dft, _idft, _dft2, _traces, _traces_at, _table_cache
from .quasiprob import PhaseSpaceFunction
from .schwinger import _require_order, _kernel_power

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
    """Length-N marginal over one centered label, tagged with its order s; checked when built.

    `axis` is "Q" (coordinate-like) or "R" (momentum-like), and the last
    axis of `values` has odd length N; leading axes are a batch.  `line`
    is the integer pair (za, zb) of the summation lines za*mu + zb*nu =
    label, not (0, 0) mod N; left out, it is (1, 0) for Q and (0, 1) for R.
    """

    s: complex
    axis: str
    values: np.ndarray
    line: tuple | None = None

    def __post_init__(self):
        values, rule = np.asarray(self.values), "line must be two integers, not (0, 0) mod N"
        if values.ndim < 1 or (N := values.shape[-1]) % 2 == 0:
            raise _invalid("takes values whose last axis has odd length N", values.shape)
        if not isinstance(self.axis, str) or self.axis not in ("Q", "R"):
            raise _invalid('axis must be "Q" or "R"', self.axis)
        line = (1, 0) if self.axis == "Q" else (0, 1)
        if self.line is not None:
            z = _integers(self.line, rule)
            line = tuple(z.tolist()) if np.shape(z) == (2,) else ()
            # (za, zb) is (0, 0) mod N when gcd(za, zb, N) = N; at N = 1 the one point is on every line
            if len(line) != 2 or math.gcd(*line, N) == N > 1:
                raise _invalid(rule, self.line)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "line", line)

    @property
    def dim(self):
        return self.values.shape[-1]


def mod_inverse(a, N):
    """Multiplicative inverse of a mod N, as a centered label."""
    N = check_dim(N)
    a = _integer(a) % N
    if math.gcd(a, N) != 1:
        raise _invalid(f"label must have an inverse mod {N}", a)
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
        object.__setattr__(self, "N", N)
        for name in ("z1", "z2", "z3", "z4"):
            object.__setattr__(self, name, center_mod(getattr(self, name), N))
        if (self.z1 * self.z4 - self.z2 * self.z3 - 1) % N != 0:
            raise _invalid(f"determinant z1 z4 - z2 z3 must be 1 mod {N}", (self.z1, self.z2, self.z3, self.z4))
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


def smooth_marginal(dist):
    """One step down the marginal hierarchy (s -> s - 1) on any summation line.

    Line sums are a Fourier slice of the characteristic function, so the
    step is the ray inverse, a product by K on the ray (za*t, zb*t) =
    `dist.line` and the forward DFT.  Leading axes of the values are a batch.
    """
    N, s = dist.dim, _require_order(dist.s, 1, 0)
    za, zb = dist.line
    ts = labels(N)
    K = _at(_kernel_power(-1, N), za * ts, zb * ts)
    out = _dft(K * _ray_invert(dist.values))
    # K is even along every ray, so real line sums stay real
    out = out.real if np.isrealobj(dist.values) else out
    return MarginalDistribution(s - 1, dist.axis, out, dist.line)


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
    ks = labels(N)
    c = _dft(_root(-_even_shear(omega3, N) * ks**2, N)) / N
    return c[_index(cols[None, :] - ks[:, None], N)]


def symplectic_c(params):
    """Scaling-type generator C(Omega1): the dilation |kappa> -> |Omega1 kappa mod N>."""
    N = params.N
    # column kappa + ell is the unit vector at the row of Omega1 kappa
    return np.eye(N, dtype=complex)[:, _index(params.omegas[0] * labels(N), N)]


def symplectic_n(params):
    """Coordinate quadratic-phase generator N(Omega2): the diagonal chirp
    exp(i pi o2 kappa^2 / N), o2 = -Omega2 as its even representative mod 2N."""
    N = params.N
    return np.diag(_root(_even_shear(params.omegas[1], N) * labels(N) ** 2, N))


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
    return _circulant(o3, cols, N) * _root(_even_shear(o2, N) * cols**2, N)


def _line_sums(F, za, zb, axis):
    """sum of one grid F over each line za*mu' + zb*nu' = label, / sqrt(N), by one bincount."""
    N, za, zb = _matrix(F.grid)[1], _integer(za), _integer(zb)
    ks = labels(N)
    line = _index(np.add.outer(za * ks, zb * ks), N).ravel()
    grid = F.grid.ravel()
    values = np.bincount(line, grid.real, N) + 1j * np.bincount(line, grid.imag, N)
    return MarginalDistribution(F.s, axis, values / np.sqrt(N), (za, zb))


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
    return _idft(values) * (1 / values.shape[-1])


def _char_from_radon(dist, axis, za, zb, N):
    if dist.axis != axis:
        raise _invalid(f"takes a {axis} marginal", dist.axis)
    if check_dim(N) != dist.dim:
        raise _invalid(f"dimension must be the marginal's, {dist.dim}", N)
    if (_integer(za) - dist.line[0]) % N or (_integer(zb) - dist.line[1]) % N:
        raise _invalid(f"ray must be the marginal's line {dist.line} mod N = {N}", (za, zb))
    return _ray_invert(dist.values)


def char_from_radon_q(dist, z1, z3, N):
    """Ray values Xi^(s)(z1*eta, z3*eta) recovered from a Q-type line sum on that ray."""
    return _char_from_radon(dist, "Q", z1, z3, N)


def char_from_radon_r(dist, z2, z4, N):
    """Ray values Xi^(s)(z2*xi, z4*xi) recovered from an R-type line sum on that ray."""
    return _char_from_radon(dist, "R", z2, z4, N)


def _draw(p, shots, rng):
    """Multinomial shot-noise estimates of the line sums p, one per row of the last axis.

    Each row is scaled to probabilities, sampled with `shots` draws from
    `rng` and rescaled, preserving its sum sqrt(N).  Negative values
    (round-off, in the twisted line sums of `_shot_values`) count as zero.
    The probabilities are rounded to integer counts of 2^-32, the row's
    rounding error going to its largest bin, so numpy's running
    remainder subtracts them exactly: a conditional probability of 1/2,
    where numpy's binomial changes algorithm, stays exactly 1/2, and a
    last-bit change of p (its sign at zero included) moves no draw unless
    it crosses a rounding boundary, a chance below 2^-18 per row.  numpy
    draws the rows in order, as one call per row would.
    """
    if (shots := _integer(shots, "shots must be an integer >= 1")) < 1:
        raise _invalid("shots must be an integer >= 1", shots)
    if rng is None:
        raise _invalid("shots need a generator rng", rng)
    N = p.shape[-1]
    p = np.maximum(p, 0.0)
    counts = np.rint(p / p.sum(axis=-1, keepdims=True) * 2**32)
    rows = counts.reshape(-1, N)  # a view: the update below writes counts
    rows[np.arange(len(rows)), rows.argmax(axis=1)] += 2**32 - rows.sum(axis=1)
    return rng.multinomial(shots, counts / 2**32) / shots * math.sqrt(N)


def _shot_values(vals, twist, shots, rng):
    """Ray values recovered from shot estimates of the line sums of the ray values
    `vals` times their `twist` (`_cells`), which are probabilities, untwisted."""
    return _ray_invert(_draw(_dft(twist * vals).real, shots, rng)) * twist


def sample_marginal(dist, shots, rng):
    """Unbiased multinomial shot-noise estimate of an s = 0 marginal on any ray.

    Its ray values are twisted, their line sums drawn with `shots` draws (an
    integer >= 1) from `rng` as in `reconstruct_wigner`, then untwisted and
    summed back: the mean is the marginal at any shot count, each sum sqrt(N).
    Leading axes of the values are a batch, drawn row by row in order.
    """
    _require_order(dist.s, 0)
    twist = _cells(np.array([dist.line]), dist.dim)[1][0]
    values = _dft(_shot_values(_ray_invert(dist.values), twist, shots, rng)).real
    return MarginalDistribution(dist.s, dist.axis, values, dist.line)


def reconstruct_wigner(rho, shots=None, rng=None):
    """Reconstruct the Wigner grid of `rho` from simulated line sums.

    The R rays, one per point of the projective line P^1(Z_N) (N + 1 at
    prime N, 12 at N = 9; `_ray_cells`), cover the dual plane at every odd
    N and are handled at once: one gather of the traces at K^0 = 1, one
    Fourier slice for the line sums, one inverse DFT for the rays and one
    2-D DFT back to phase space, O(R N^2) in all.  With `shots` set (an
    integer >= 1, with a generator `rng`), the line sums of the twisted
    grid (`_ray_cells`), which are probabilities, are replaced by seeded
    multinomial estimates, drawn ray by ray in order, and the values they
    recover are untwisted: an unbiased estimate.  Leading axes of rho are a
    batch; shots are then drawn state by state.
    """
    return PhaseSpaceFunction(0, _dft2(_ray_loop(rho, shots, rng)[-1]))


def _cells(rays, N):
    """Cells of each ray (za, zb) of `rays`: ray j meets (za*t, zb*t) at the flat position
    pos[j, t + ell] of an N x N grid; and the twist t = (-1)^(eta xi) there, on centered
    labels.  Along a ray, t S(eta, xi) (phase exp(i pi eta xi (N + 1) / N)) is the powers
    of one unitary, so twisted line sums are the probabilities of its eigenspaces: >= 0."""
    ts, ell = labels(N), half_width(N)
    rows, cols = _index(np.outer(rays[:, 0], ts), N), _index(np.outer(rays[:, 1], ts), N)
    return rows * N + cols, 1.0 - 2 * ((rows - ell) * (cols - ell) % 2)


@_table_cache
def _ray_cells(N):
    """One ray per point of the projective line P^1(Z_N) as an (R, 2) array, then
    the flat cell positions and the twist of each (`_cells`), one row per ray.  Per
    prime power q = p^a of N the classes are (1, k), k mod q, then (p*j, 1), j mod q/p,
    joined by CRT: R = N prod_{p | N} (1 + 1/p) rays, covering every dual cell.  At
    prime N they are (1, 0), ..., (1, N-1), (0, 1); at N = 1, the cell (0, 0).  O(R N).
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
    return (rays, *_cells(rays, N))


def _on_rays(Xi):
    """The values of the dual-plane grid Xi on every ray of `_ray_cells`, one row per ray:
    one take of the flat cell positions.  Leading axes of Xi are a batch."""
    N = Xi.shape[-1]
    return Xi.reshape(*Xi.shape[:-2], N * N).take(_ray_cells(N)[1], axis=-1)


def _ray_sums(Xi):
    """Line sums on every ray of `_ray_cells`, one row per ray, of the
    phase-space grid whose characteristic grid is Xi.

    By the projection-slice theorem they are the 1-D DFT of Xi along each
    ray: one gather and one product.
    """
    return _dft(_on_rays(Xi))


def _ray_loop(rho, shots, rng):
    """Every ray of `reconstruct_wigner` in one pass over (rays, N) stacks.

    Returns the characteristic grid Xi^(0) of rho, one gather of its traces
    (K^0 = 1), the values recovered on each ray of `_ray_cells`, one row per
    ray, and the dual-plane grid they rebuild, whose `_dft2` is the
    reconstruction.  Shots draw the twisted line sums, and the values they
    recover are untwisted.  Leading axes of rho are a batch.
    """
    rho, N = _square(rho)
    Xi0 = _traces(rho)
    _, pos, twist = _ray_cells(N)
    vals = _ray_invert(_ray_sums(Xi0)) if shots is None else _shot_values(_on_rays(Xi0), twist, shots, rng)
    Xi = np.zeros(rho.shape, dtype=complex)
    # a cell of order below N (the origin on every ray) lies on several
    # rays and keeps the value of the last one written
    Xi.reshape(*Xi.shape[:-2], N * N)[..., pos] = vals
    return Xi0, vals, Xi


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
    for any U of rho's shape.  For integer labels (any range, with the
    quasi-periodic signs of `s_op`) S is never built: U has one entry per
    column, so each trace is a gather of N entries of rho and one dot
    product, O(N) per label pair (`lattice._traces_at`).  Leading axes of
    `unitary`, or the broadcast shape of array labels `eta`, `xi`, are a
    batch, and the pair is then two arrays; the labels `ks[:, None]` and
    `ks` read the whole dual plane in O(N^3) time and O(N^2) memory.
    `rho` is one N x N matrix with N odd (`_matrix`): a stack raises ValueError,
    and so do a lone label, no labels and no unitary, and labels and a unitary
    given together.
    """
    rho, N = _matrix(rho)
    if (unitary is None) == (eta is None) or (eta is None) != (xi is None):
        given = tuple(name for name, x in (("eta", eta), ("xi", xi), ("unitary", unitary)) if x is not None)
        raise _invalid("takes the labels (eta, xi) or a unitary, exactly one of the two", given)
    if unitary is None:
        # Tr rho U and, as S(eta, xi)^dag = S(-eta, -xi) at raw labels, Tr rho U^dag
        tr_u, tr_ud = (math.sqrt(N) * tr for tr in _traces_at(rho, _integers(eta), _integers(xi)))
    else:
        U = np.asarray(unitary)
        if U.shape[-2:] != rho.shape:
            raise _invalid(f"takes a unitary of rho's shape {rho.shape}", U.shape)
        tr_u = np.sum(U * rho.T, axis=(-2, -1))  # Tr rho U
        tr_ud = np.sum(U.conj() * rho, axis=(-2, -1))  # Tr rho U^dag
    out_z = ((tr_u + tr_ud) / 2).real
    # ancilla y-polarization, oriented so the pair reads (Re, +Im) of Tr(U rho)
    out_y = (1j * (tr_ud - tr_u) / 2).real
    if out_z.ndim == 0:
        return float(out_z), float(out_y)
    return out_z, out_y
