"""Centered modular index arithmetic and dense linear-algebra helpers.

Operators on an N-dimensional space (N odd) are indexed by centered labels
kappa in [-ell, ell] with ell = (N-1)/2, stored at row/column kappa + ell.
Every module in the package shares this convention, and only this module
reads it: `_index` is the row of any integer label, `_at` the one read of a
grid at label pairs, `_shifted` its one translation, and `_traces` (the one
gather of Tr[S(eta, xi) O] over every label pair, S(eta, xi) the symmetrized
displacement of `schwinger`), `_traces_at` (the same and its adjoint at given
raw labels), `_traces2` (the same over both modes of an N^2 x N^2 operator),
its inverse `_scatter` and `_shift_rows` (the rows of kappa - mu) are the only
readers of the layout of S, `_diagonals`.  That table holds flat
positions into an N x N operator, so each read or write of the layout is one
`take` on its last N^2 entries, never a two-array fancy index.
`_table_cache` is the one table cache, `_frozen` the one place an array is
made read-only, `_integers` the one check of every integer argument and
`_invalid` the package's one ValueError, built for every rejected argument.
The helpers at the end are the only readers of the phase tables and the
one operand check: `_square` decides what an operand's shape must be (and
`_matrix` that it is one matrix), `_root` reads every phase exp(i*pi*m/N)
from the one table of 2N-th roots `_roots`, `_dft`/`_idft`, `_phases` and
`_dft2` hold the one Fourier convention, and `_cas` the real transform on the
cas table `_hartley` (cos + sin): H E H is the 2-D DFT of a table E even in each
label up to scale, as K^t is, and `_cas2` that 2-D transform, so
`_dual_multiply` is four real products.
"""

import math
import sys
from functools import lru_cache, reduce, wraps

import numpy as np

__all__ = [
    "check_dim",
    "half_width",
    "labels",
    "center_mod",
    "dagger",
    "tensor",
    "partial_trace",
    "dft_matrix",
]

def _frozen(table):
    """`table`, an array or a tuple of arrays, each marked read-only."""
    for a in table if isinstance(table, tuple) else (table,):
        a.setflags(write=False)
    return table


def _table_cache(build):
    """Decorator: `build`'s tables for its eight most recent keys (N, or (s, N)),
    every array read-only.  Orders compare by value: 1 + 0j, 1 - 0j and 1 are one.
    A lone key, a dimension that a caller may pass straight in, compares by type
    too, so True misses the table of 1.0 or np.int64(1) and meets `check_dim`.
    A public table takes an array N, which no cache can hash, by its value if
    it is 0-d, else straight to `build`'s own check."""
    cached = lru_cache(maxsize=8, typed=(lone := build.__code__.co_argcount == 1))(wraps(build)(lambda *key: _frozen(build(*key))))
    if not lone or build.__name__[0] == "_":
        return cached
    table = wraps(build)(lambda N: cached(N) if type(N) is not np.ndarray else cached(N.item()) if N.ndim == 0 else build(N))
    table.__wrapped__, table.cache_info, table.cache_clear = cached.__wrapped__, cached.cache_info, cached.cache_clear
    return table


def _invalid(rule, x):
    """ValueError "<entry> <rule>, got <x!r>", the package's one ValueError.  <entry> is
    read off the stack, so no check is handed its caller's name and no valid call pays
    for one: the outermost public function, or class of a method (the class of its
    `self`, so a subclass names itself), on the run of qps frames that raised, which is
    what the caller called; "qps" if that is the CLI."""
    entry, f = "qps", sys._getframe(1)
    while f and f.f_globals.get("__package__") == "qps":
        code = f.f_code
        head = type(f.f_locals["self"]).__name__ if code.co_varnames[:1] == ("self",) else code.co_qualname.split(".")[0]
        if head[0] not in "_<":
            entry = "qps" if f.f_globals["__spec__"].name == "qps.cli" else head
        f = f.f_back
    return ValueError(f"{entry} {rule}, got {x!r}")


def _integers(x, rule="labels must be integers"):
    """Integer(s) x, a scalar as a Python int, or `_invalid(rule, x)` for a bool, a str or a
    non-integer or non-finite value; 2.0 is read as 2.  A Python or numpy integer passes
    by a type test, with no array built."""
    if type(x) is int or isinstance(x, np.integer):
        return int(x)
    a = np.asarray(x)
    if a.dtype.kind not in "iu" and not (a.dtype.kind == "f" and np.all(np.isfinite(a) & (a == np.round(a)))):
        raise _invalid(rule, x)
    return a.astype(int, copy=False) if a.ndim else int(a)


def _integer(x, rule="labels must be integers"):
    """One integer x as a Python int (`_integers`), or `_invalid(rule, x)`."""
    if isinstance(n := _integers(x, rule), int):
        return n
    raise _invalid(rule, x)


def check_dim(N):
    """Validate a Hilbert-space dimension: one odd positive integer."""
    if (n := _integer(N, "dimension must be an odd positive integer")) < 1 or n % 2 == 0:
        raise _invalid("dimension must be an odd positive integer", N)
    return n


def half_width(N):
    """Half-width ell = (N-1)/2 of the centered label interval."""
    return (check_dim(N) - 1) // 2


def labels(N):
    """Centered labels -ell..ell as an integer array."""
    ell = half_width(N)
    return np.arange(-ell, ell + 1)


def _index(x, N):
    """Row kappa + ell of the centered label kappa = center_mod(x, N), for integer(s) x of
    any range (`_integers`) and a checked dimension N: the one map from labels to storage."""
    return (_integers(x) + (N - 1) // 2) % N


def _at(X, eta, xi):
    """X[..., eta + ell, xi + ell] at broadcastable integer labels of any range (`_integers`):
    one take of the flat positions row(eta) N + row(xi) on the last N^2 entries, leading axes
    a batch.  The one read of a grid at label pairs; scalar labels on one grid give a scalar."""
    N = X.shape[-1]
    return X.reshape(*X.shape[:-2], N * N).take(_index(eta, N) * N + _index(xi, N), axis=-1)


def center_mod(x, N):
    """Reduce integer(s) x into the centered interval [-ell, ell] mod N."""
    N = check_dim(N)
    return _index(x, N) - (N - 1) // 2


def dagger(A):
    """Conjugate transpose."""
    return np.asarray(A).conj().T


def tensor(*ops):
    """Kronecker product of one or more matrices, left to right."""
    if not ops:
        raise _invalid("needs at least one operand", ops)
    return reduce(np.kron, [np.asarray(op) for op in ops])


def partial_trace(A, dims, keep):
    """Trace out all subsystems not listed in `keep`.

    Parameters
    ----------
    A : (D, D) array
        Operator on the composite space, D = prod(dims).
    dims : sequence of int
        Subsystem dimensions, in tensor order.
    keep : iterable of int
        Indices (into `dims`) of the subsystems to retain.

    Returns
    -------
    (d, d) array with d = prod(dims[k] for k in keep).
    """
    A = np.asarray(A)
    dims = [_integer(d, "subsystem dimensions must be integers") for d in dims]
    if A.shape != (math.prod(dims),) * 2:
        raise _invalid(f"subsystem dimensions {dims} must factor the matrix's shape", A.shape)
    keep = sorted({_integer(k, "subsystem indices must be integers") for k in keep})
    if not keep or keep[0] < 0 or keep[-1] >= len(dims):
        raise _invalid(f"keep must be a nonempty subset of the {len(dims)} subsystems", keep)

    t = A.reshape(dims + dims)
    for i in sorted(set(range(len(dims))) - set(keep), reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    d = math.prod(dims[k] for k in keep)
    return t.reshape(d, d)


def dft_matrix(N):
    """Discrete Fourier matrix F[mu, nu] = exp(2*pi*i*mu*nu/N)/sqrt(N) over centered labels."""
    return _conj_phases(check_dim(N)) / np.sqrt(N)


@_table_cache
def _roots(N):
    """Read-only w[m] = exp(i*pi*m/N), m = 0..2N-1: an exp only at m <= ell (angles below
    pi/2), the rest its reflections w[N - m] = -conj(w[m]) and w[m + N] = -w[m], so the
    table is exactly antiperiodic and exactly conjugate-symmetric."""
    q = np.exp(1j * (np.pi * np.arange(half_width(N) + 1) / N))
    half = np.concatenate([q, -q[:0:-1].conj()])
    return np.concatenate([half, -half])


def _root(m, N):
    """exp(i*pi*m/N) at integer(s) m of any range, reduced exactly mod 2N."""
    return _roots(N)[m % (2 * N)]


@_table_cache
def _dft_phases(N):
    """Read-only phases ph[eta + ell, mu + ell] = exp(-2*pi*i*eta*mu/N); symmetric."""
    k = labels(N)
    return _root(-2 * np.outer(k, k), N)


@_table_cache
def _conj_phases(N):
    """Read-only conj(`_dft_phases(N)`), the inverse DFT's phases exp(+2*pi*i*eta*mu/N)."""
    return _dft_phases(N).conj()


def _square(A):
    """A as an array and its N, or `_invalid` with its shape unless the last two
    axes are N x N with N odd.  Leading axes stay a batch."""
    A = np.asarray(A)
    if A.ndim < 2 or A.shape[-2] != A.shape[-1] or A.shape[-1] % 2 == 0:
        raise _invalid("takes square matrices of odd size N", A.shape)
    return A, A.shape[-1]


def _matrix(A):
    """One N x N matrix A with N odd (`_square`) and its N, or `_invalid` for a stack."""
    A, N = _square(A)
    if A.ndim > 2:
        raise _invalid("takes one N x N matrix", A.shape)
    return A, N


def _phases(k, N):
    """Phase rows exp(-2*pi*i*k*kappa/N) over centered kappa, one per integer of k (any range)."""
    return _dft_phases(N)[_index(k, N)]


def _dft(X):
    """Unnormalized forward sum over labels eta of exp(-2*pi*i*eta*mu/N) X[..., eta], on the last axis."""
    return X @ _dft_phases(X.shape[-1])


def _idft(X):
    """Unnormalized inverse of `_dft`: the sum against exp(+2*pi*i*eta*mu/N), on the last axis."""
    return X @ _conj_phases(X.shape[-1])


def _dft2(X):
    """Dual plane to phase space: sum_{eta,xi} ph[eta, mu] ph[xi, nu] X[..., eta, xi] / sqrt(N).

    Leading axes of X are a batch.
    """
    N = X.shape[-1]
    return _dft_phases(N) @ X @ _dft_phases(N) * (1 / math.sqrt(N))


@_table_cache
def _hartley(N):
    """Read-only cas table H = Re - Im of `_dft_phases(N)`, cos(a) + sin(a) at a = 2*pi*eta*mu/N:
    symmetric, with H H = N I."""
    return (ph := _dft_phases(N)).real - ph.imag


def _cas(G):
    """H @ G for a real or complex G of N rows, leading axes a batch: one real product, on a real G
    itself and on a complex G's float view as a contiguous array, which holds its real and
    imaginary parts; a real G gives a real result."""
    H = _hartley(G.shape[-2])
    if G.dtype.kind != "c":
        return H @ G
    return (H @ np.ascontiguousarray(G, dtype=complex).view(float)).view(complex)


def _cas2(G):
    """H G^T H on the last two axes, leading axes a batch: the one 2-D real transform between a table
    even in each label (a dual-plane multiplier) and its phase-space kernel; two give N^2 G (H H = N I)."""
    return _cas(_cas(G).swapaxes(-1, -2))


def _dual_multiply(M, grid):
    """The grid's dual-plane image times M, back in phase space (M = K is a smoothing step), for M
    even in each label, M(eta, xi) = M(-eta, xi) = M(eta, -xi), as every power of K is: the sines
    of the complex DFTs cancel, leaving H (M * H grid H) H / N^2; the grid's leading axes are a batch."""
    Z = _cas2(grid)  # (H grid H)^T: H is symmetric
    # out of place: the real image of a real grid can meet a complex M
    return _cas2(Z * (M.swapaxes(-1, -2) * (1 / grid.shape[-1] ** 2)))


@_table_cache
def _diagonals(N):
    """Flat positions of the cyclic diagonals of an N x N O, and the phases
    front[eta + ell, xi + ell] = exp(-i*pi*eta*xi/N) / sqrt(N).

    Column kappa of S(eta, xi) holds its one entry in row kappa - xi, so
    Tr[S(eta, xi) O] = front * sum_kappa exp(2*pi*i*eta*kappa/N) O[kappa, kappa - xi].
    gather[xi + ell, kappa + ell] is the flat position of O[kappa, kappa - xi], and
    scatter[xi + ell, kappa + ell] that of O[kappa - xi, kappa].  The map
    (xi, kappa) -> (kappa - xi, kappa) is its own inverse, so the scatter positions
    also take a grid [xi + ell, kappa + ell] of diagonals back to O.
    """
    ks = labels(N)
    shifted = _index(ks - ks[:, None], N)  # [xi + ell, kappa + ell]: the row of kappa - xi
    k = np.arange(N)  # the row of kappa
    return k * N + shifted, shifted * N + k, _root(-np.outer(ks, ks), N) / np.sqrt(N)


def _traces(O):
    """X[eta + ell, xi + ell] = Tr[S(eta, xi) O] for every label pair.

    Leading axes of O are a batch.
    """
    N = O.shape[-1]
    gather, _, front = _diagonals(N)
    return (_conj_phases(N) @ O.reshape(*O.shape[:-2], N * N).take(gather, axis=-1).swapaxes(-1, -2)) * front


def _traces2(R, M1, M2):
    """X[xi1, xi2, eta1, eta2] = M1(eta1, xi1) M2(eta2, xi2) Tr[S(eta1, xi1) (x) S(eta2, xi2) R] for an
    N^2 x N^2 R, the two-mode `_traces` with the front folded into the per-mode multipliers: one take
    of the cyclic diagonals of both modes, at flat positions built from the `_diagonals` gather by one
    broadcast add (N^4 of them, made per call, not cached), then a label sum per mode."""
    N = math.isqrt(R.shape[-1])
    gather, _, front = _diagonals(N)
    # pos[kappa + ell, xi + ell] = kappa N^2 + the row of kappa - xi: the mode-2 position of
    # R[., kappa, ., kappa - xi] in R[i1, i2, j1, j2], and N pos the mode-1 one
    pos = gather.T + (N * N - N) * np.arange(N)[:, None]
    X = R.reshape(N**4).take(N * pos[:, None, :, None] + pos[:, None, :])  # R[k1, k2, k1 - xi1, k2 - xi2]
    for _ in range(2):
        X = _idft(X.reshape(N, -1).T)
    A, B = (front * M1).T, (front * M2).T
    return X.reshape(N, N, N, N) * (A[:, None, :, None] * B[:, None, :])


def _shift_rows(mu, N):
    """Rows of kappa - mu over centered kappa, one row per integer of mu (any range), read
    off the cached `_diagonals` gather: position kappa N + row of kappa - mu, mod N."""
    return _diagonals(N)[0][_index(mu, N)] % N


def _shifted(W, mu, nu):
    """The grid W moved by the integer labels (mu, nu): W(mu' - mu, nu' - nu) at (mu', nu'), the
    one translation of phase space, two `_shift_rows` takes; leading axes are a batch."""
    N = W.shape[-1]
    return W.take(_shift_rows(mu, N), axis=-2).take(_shift_rows(nu, N), axis=-1)


def _traces_at(O, eta, xi):
    """`_traces` of one N x N O at broadcastable labels of any range, ints or integer arrays
    (`_integers`), with the quasi-periodic signs of S, and at (-eta, -xi), the trace of
    S(eta, xi)^dag: per pair, one row of the `_diagonals` gather takes N entries of O, dotted
    with a phase row and times the front, O(N); a plane, O(N^2) memory.  The two share the
    front, and the phase rows of eta are the exact conjugates of those of -eta (`_roots`)."""
    N = O.shape[-1]
    gather, flat = _diagonals(N)[0], O.reshape(N * N)
    p = _phases(-eta, N)[..., None, :]
    front = _root(-eta * xi, N) / math.sqrt(N)
    # (1, N) @ (N, 1) on the broadcast label axes: one dot product per pair
    return tuple((row @ flat.take(gather[_index(x, N)])[..., None])[..., 0, 0] * front for row, x in ((p, xi), (p.conj(), -xi)))


def _scatter(C):
    """sum_{eta,xi} C(eta, xi) S(eta, xi), the inverse of `_traces`: an inverse DFT onto the
    [xi, kappa] grid of diagonals, then one take of the `_diagonals` scatter positions.
    Leading axes of C are a batch."""
    N = C.shape[-1]
    _, scatter, front = _diagonals(N)
    D = _idft((C * front).swapaxes(-1, -2))
    return D.reshape(*D.shape[:-2], N * N).take(scatter, axis=-1)
