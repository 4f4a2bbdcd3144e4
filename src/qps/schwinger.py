"""Clock/shift operators, the symmetrized operator basis and its s-ordered
and mod(N)-invariant descendants, operator decompositions, and the unitary
depolarizer average.

Convention: U is diagonal in the coordinate basis with U[kappa, kappa] =
exp(2*pi*i*kappa/N) over centered kappa, and V is the downward cyclic
shift V|kappa> = |kappa - 1>, so that U V = exp(-2*pi*i/N) V U.  This is
the unique pairing (up to relabeling) for which the adjoint identity
S(eta, xi)^dag = S(-eta, -xi) holds with the symmetrization phase
exp(+i*pi*eta*xi/N).

Each S(eta, xi) is a monomial matrix, so all N^2 traces Tr[S(eta, xi) O]
are one gather of the cyclic diagonals of O plus one DFT, O(N^3)
(`lattice._traces`), and a sum over the basis is the inverse scatter
(`lattice._scatter`).
Every other route between operators and label grids (the T^(s)
expansions and the origin kernel T^(s)(0, 0)) is that gather or scatter
plus a 2-D DFT against K^(-s), one cached table per order
(`_kernel_power`, keyed by the value of s), and the depolarizer average
is the gather times one real multiplier, then the scatter.  Every other
kernel T^(s)(mu, nu) is a displaced copy of the origin one (`t_op`).
"""

import cmath

import numpy as np

from .lattice import check_dim, labels, _at, _index, _integer, _integers, _invalid, _square, _phases, _cas2, _dft2, _traces, _scatter, _shift_rows, _table_cache
from .theta import _kernel_orbits

__all__ = [
    "check_order",
    "u_matrix",
    "v_matrix",
    "s_op",
    "s_op_ordered",
    "t_op",
    "t_family",
    "t_overlap",
    "decompose_schwinger",
    "reconstruct_schwinger",
    "decompose_t",
    "reconstruct_t",
    "depolarize",
]


def _order(s):
    """s as a finite complex number, or a ValueError naming the entry point; a bool or a
    str is no order."""
    if isinstance(s, (str, bool, np.bool_)):
        raise _invalid("ordering parameter must be a number", s)
    if not cmath.isfinite(z := complex(s)):
        raise _invalid("ordering parameter must be finite", s)
    return z


def check_order(s):
    """Validate an ordering parameter: a finite number (`_order`) with |s| <= 1 + 1e-12."""
    z = _order(s)
    if abs(z) > 1 + 1e-12:
        raise _invalid("ordering parameter must satisfy |s| <= 1", s)
    return z


def _require_order(s, *orders):
    """The order s of a grid or marginal (`_order`) if it is one of `orders` to the 1e-12
    slack of `check_order`, else a ValueError naming the entry point."""
    z = _order(s)
    if any(abs(z - t) <= 1e-12 for t in orders):
        return z
    raise _invalid(f"takes an input at s = {' or '.join(map(str, orders))}", s)


@_table_cache
def u_matrix(N):
    """Clock operator: diagonal phases exp(2*pi*i*kappa/N) over centered kappa."""
    return np.diag(_phases(-1, check_dim(N)))


@_table_cache
def v_matrix(N):
    """Shift operator: V|kappa> = |kappa - 1> with centered wraparound."""
    # row kappa - 1 of column kappa holds the one: row kappa of V is the identity's row kappa + 1
    return np.eye(N := check_dim(N), dtype=complex).take(_shift_rows(-1, N), axis=0)


def s_op(eta, xi, N):
    """Symmetrized displacement S(eta, xi) = exp(i*pi*eta*xi/N) U^eta V^xi / sqrt(N).

    Defined for integer labels only; out-of-range labels pick up the
    quasi-periodic phases of the raw formula.  `eta` and `xi` may be
    broadcastable integer arrays; the matrices then stack on the leading
    axes, and scalars give one N x N matrix.
    """
    N = check_dim(N)
    ks = labels(N)
    eta, xi = np.broadcast_arrays(_integers(eta), _integers(xi))
    eta, xi = eta[..., None], xi[..., None]
    S = np.zeros(eta.shape[:-1] + (N, N), dtype=complex)
    # a real division: numpy's complex one multiplies by 1/N, a last-bit change
    front = np.exp(1j * (np.pi * eta * xi / N)) / np.sqrt(N)
    rows = _index(ks - xi, N)
    # U^eta acts after the shift: phase exp(2*pi*i*eta*(kappa - xi)/N);
    # column kappa holds its one entry in row kappa - xi
    vals = front * np.exp(2j * np.pi * eta * (ks - xi) / N)
    np.put_along_axis(S, rows[..., None, :], vals[..., None, :], axis=-2)
    return S


# log of the largest double: exp of anything above it overflows
LOG_MAX = float(np.log(np.finfo(float).max))


@_table_cache
def _kernel_power(s, N):
    """K^(-s) = exp(-s log K), the only place K^(-s) is formed: one exp per distinct
    value of log K and one gather through their index (`theta._kernel_orbits`).
    Cells of equal log K get the exp of the same input, so every table has the
    bytes of exp(-s log K) taken cell by cell.

    One cached read-only table per order: equal orders are one key
    (1 + 0j == 1 - 0j == 1), and the table is formed at s with its zero
    parts made positive, so every hit has the bytes of a miss.  Every caller
    passes a finite order (`_order`).  Since log K <= 0, with 0 at the
    origin, its largest modulus is exp(Re(s) * (-min log K)) for Re(s) >= 0
    and 1 for Re(s) < 0; an exponent above log(max double) raises
    `OverflowError` rather than returning inf, on every call, since a
    raising call is not cached.
    """
    s = complex(s) + 0
    values, index = _kernel_orbits(N)
    exponent = s.real * -values[0]
    if exponent > LOG_MAX:
        raise OverflowError(
            f"K^(-s) overflows at N={N}, s={s}: Re(s) * (-min log K) = {exponent:.6g}"
            f" exceeds log(max double) = {LOG_MAX:.6g}"
        )
    return np.take(np.exp(-s * values), index)


def s_op_ordered(eta, xi, s, N):
    """s-ordered basis element K(eta, xi)^(-s) S(eta, xi) (principal power).

    `eta` and `xi` may be broadcastable integer arrays, as in `s_op`; the
    matrices then stack on the leading axes.
    """
    s, N = check_order(s), check_dim(N)
    return _at(_kernel_power(s, N), eta, xi)[..., None, None] * s_op(eta, xi, N)


@_table_cache
def _origin_kernel(s, N):
    """Cached read-only T^(s)(0, 0) = sum K^(-s) S / sqrt(N); at s = -1 the vacuum projector |F_0><F_0|."""
    return _scatter(_kernel_power(s, N)) * (1 / np.sqrt(N))


@_table_cache
def _t_family(s, N):
    ks = labels(N)
    T = np.empty((N, N, N, N), dtype=complex)
    for m, mu in enumerate(ks):  # one row of mu at a time
        T[m] = t_op(mu, ks, s, N)
    return T


def t_family(s, N):
    """All N^2 kernels T^(s)(mu, nu) as an array [mu + ell, nu + ell, :, :].

    Each is a displaced copy of T^(s)(0, 0) (see `t_op`).  No library route
    reads this N^4 table; the eight most recent (s, N) pairs stay cached,
    and the returned array is read-only.
    """
    return _t_family(check_order(s), check_dim(N))


def t_op(mu, nu, s, N):
    """Mod(N)-invariant kernel T^(s)(mu, nu) at any integer labels, by the displacement law.

    T^(s)(mu, nu)[a, b] = p[a] T0[a - mu, b - mu] conj(p[b]) with
    p = exp(2*pi*i*nu*kappa/N) and T0 = T^(s)(0, 0) cached per (s, N):
    one O(N^2) gather and phase product.  `mu` is one integer; an integer
    array `nu` stacks its kernels on the leading axes.
    """
    N = check_dim(N)
    mu, nu = _integer(mu), _integers(nu)
    idx = _shift_rows(mu, N)  # row kappa + ell holds the row of kappa - mu
    T0 = _origin_kernel(check_order(s), N).take(idx, 0).take(idx, 1)
    # the phase row of -nu is p, the row of nu is conj(p)
    return _phases(-nu, N)[..., :, None] * T0 * _phases(nu, N)[..., None, :]


def t_overlap(t, s, dmu, dnu, N):
    """Trace of T^(t)(mu, nu) T^(s)(mu', nu') as a function of the offsets
    (dmu, dnu) = (mu' - mu, nu' - nu).

    The overlap is the inverse 2-D DFT of the even K^(-(t + s)), H K^(-(t + s)) H
    / N^1.5 (`_cas2`), over the whole offset square, read at the reduced offsets.
    `dmu` and `dnu` may be broadcastable integer arrays; scalars give a complex.
    """
    t, s, N = check_order(t), check_order(s), check_dim(N)
    grid = _cas2(_kernel_power(t + s, N)).T * (1 / N)
    out = _at(grid, dmu, dnu)
    return complex(out) if np.ndim(out) == 0 else out


def _t_grid(O, s):
    """Tr[T^(-s)(mu, nu) O] over phase space: the 2-D DFT of K^(s) times the traces."""
    return _dft2(_kernel_power(-s, O.shape[-1]) * _traces(O))


def _t_sum(grid, s):
    """(1/N) sum_{mu,nu} grid(mu, nu) T^(s)(mu, nu): the scatter of K^(-s) times the grid's 2-D DFT."""
    N = grid.shape[-1]
    return _scatter(_kernel_power(s, N) * _dft2(grid)) * (1 / N)


def decompose_schwinger(O):
    """Coefficients C[eta + ell, xi + ell] = Tr[S(eta, xi)^dag O].

    Leading axes of O are a batch.
    """
    # S(eta, xi)^dag = S(-eta, -xi): negate both labels
    return _traces(_square(O)[0])[..., ::-1, ::-1]


def reconstruct_schwinger(C):
    """Rebuild the operator sum_{eta,xi} C(eta, xi) S(eta, xi).

    Leading axes of C are a batch.
    """
    return _scatter(_square(C)[0])


def decompose_t(O, s):
    """Phase-space coefficients O^(-s)[mu + ell, nu + ell] = Tr[T^(-s)(mu, nu) O].

    Leading axes of O are a batch.
    """
    return _t_grid(_square(O)[0], check_order(s))


def reconstruct_t(grid, s):
    """Rebuild the operator (1/N) sum_{mu,nu} grid(mu, nu) T^(s)(mu, nu).

    Leading axes of grid are a batch.
    """
    return _t_sum(_square(grid)[0], check_order(s))


@_table_cache
def _depolarizer(N):
    """Cached read-only multiplier of the mixture weights w, here |K^(-i omega)|^2 = 1 at every real
    omega: conjugation by sqrt(N) S(eta, xi) multiplies the coefficient of S(eta', xi') by
    exp(2*pi*i*(xi*eta' - eta*xi')/N), so the average multiplies it by `_cas2(w)` / N (w even)."""
    return _cas2(np.ones((N, N))) * (1 / N)


def depolarize(O, omega=0.0):
    """Uniform conjugation average over the unitary set sqrt(N) S^(i*omega).

    Equals Tr(O) * identity for every operator O; omega = 0 recovers the
    plain symmetrized-basis depolarizer.  omega is real, |omega| <= 1, and
    the weights |K^(-s)|^2 = K^(-2 Re s) are exactly 1 at s = i*omega.
    Leading axes of O are a batch.
    """
    O, N = _square(O)
    if check_order(omega).imag:
        raise _invalid("omega must be real", omega)
    return _scatter(_traces(O)[..., ::-1, ::-1] * _depolarizer(N))
