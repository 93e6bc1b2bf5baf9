"""Closed-form receive beamformers: ZF, MMSE, and the maximum-SMINR eigenvector.

A sweep asks for every weight once per (SNR point, method, user) cell, but
ZF, the SMINR eigenvector and MMSE's inverse covariance at one noise level
depend only on the channel, so ``_memoized`` keeps them for their draw.
"""

import math

import numpy as np

# the content key of the last channel seen and the values computed from it
_memo_key = None
_memo = {}


def _memoized(H: np.ndarray, slot, compute, level=None):
    """The value in ``slot`` of channel H's memo, from ``compute()`` if missing.

    The memo is keyed on H's shape, dtype and bytes, so an edited or new
    channel empties it: it holds one draw's values, and a lookup gives the
    bits a new computation would. A slot holds one value, computed at one
    ``level`` (a noise level): another level computes it anew, so the memo
    does not grow with the SNR grid. Values are shared, so callers hand out
    copies or read-only arrays. Each process has its own memo, which keeps
    outputs the same for any worker count.
    """
    global _memo_key
    key = (H.shape, H.dtype, H.tobytes())
    if key != _memo_key:
        _memo_key = key
        _memo.clear()
    stored = _memo.get(slot)
    if stored is None or stored[0] != level:
        stored = _memo[slot] = level, compute()
    return stored[1]


def _norm(x: np.ndarray) -> float:
    """2-norm of a 1-D float64 or complex128 array, bit for bit that of
    np.linalg.norm, without its Python-level checks, which cost more than
    the sum at N = 4. A strided x is copied first, as norm does, because
    BLAS sums a strided vector in another order; ``dot`` is norm's own
    product (``@`` on two vectors takes twice as long)."""
    x = x.ravel()
    if x.dtype.kind == "c":
        re, im = x.real, x.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(x.dot(x))


def lift_weights(w: np.ndarray) -> np.ndarray:
    """Complex 1xN weights -> real 2N vector [Re{w}, Im{w}]."""
    w = np.asarray(w)
    return np.concatenate([w.real, w.imag])


def unlift_weights(w_bar: np.ndarray) -> np.ndarray:
    """Inverse of :func:`lift_weights`."""
    w_bar = np.asarray(w_bar, dtype=float)
    n = w_bar.size // 2
    return w_bar[:n] + 1j * w_bar[n:]


def lift_channel(h: np.ndarray) -> np.ndarray:
    """Complex Nx1 channel -> real 2N vector [Re{h}, -Im{h}].

    With :func:`lift_weights` this turns Re{w h} into the real inner product
    lift_weights(w) @ lift_channel(h). An (N, K) matrix H lifts column by
    column: column j of the result is lift_channel(H[:, j]).
    """
    h = np.asarray(h)
    return np.concatenate([h.real, -h.imag])


def align_phase(w: np.ndarray, h_k: np.ndarray) -> np.ndarray:
    """Rotate w by a unit-modulus factor so that w h_k is real positive."""
    w = np.asarray(w)
    g = w @ h_k
    if g == 0:
        raise ValueError("cannot align phase: w h_k is zero")
    # np.angle's own body, for a complex g
    return w * np.exp(-1j * np.arctan2(g.imag, g.real))


def zf(H: np.ndarray, k: int) -> np.ndarray:
    """Zero-forcing beamformer: row k of the pseudo-inverse, unit norm, aligned.

    One SVD gives the rank check and the pseudo-inverse, formed as
    ``np.linalg.pinv`` forms it. Raises on (numerically) rank-deficient H.
    """
    N, K = H.shape
    if N < K:
        raise np.linalg.LinAlgError(f"zero-forcing needs N >= K, got N={N}, K={K}")

    def pinv():
        u, s, vt = np.linalg.svd(H.conj(), full_matrices=False)
        if s[-1] <= 1e-12 * s[0]:
            raise np.linalg.LinAlgError("channel matrix is rank-deficient")
        # the rank check leaves every s above pinv's 1e-15 s[0] cutoff: pinv's product
        return vt.T @ ((1 / s)[:, None] * u.T)

    def row():
        w = align_phase(_memoized(H, "pinv", pinv)[k], H[:, k])
        return w / _norm(w)

    return _memoized(H, ("zf", k), row).copy()


def mmse(H: np.ndarray, k: int, sigma_z: float, symbol_energies) -> np.ndarray:
    """Linear MMSE beamformer, unit norm and phase-aligned.

    ``symbol_energies`` holds per-user average symbol energies used in the
    received-signal covariance.
    """
    if not sigma_z > 0:  # also refuses nan
        raise ValueError("sigma_z must be positive")
    N = H.shape[0]
    Es = np.asarray(symbol_energies, dtype=float)
    # a sweep asks for every user's weight at one sigma_z before the next;
    # H * Es is H diag(Es), without the K x K product
    R_inv = _memoized(H, "mmse", lambda: np.linalg.inv(
        (H * Es) @ H.conj().T + sigma_z**2 * np.eye(N)), level=(sigma_z, Es.tobytes()))
    w = H[:, k].conj() @ R_inv
    w = align_phase(w, H[:, k])
    return w / _norm(w)


def sminr_quadratic_form(H: np.ndarray, k: int, constellations) -> np.ndarray:
    """2N x 2N real symmetric matrix whose Rayleigh quotient is the SMINR numerator.

    M = d^2 E_g htilde_k htilde_k^T - sum_{j != k} s_j(L_j)^2 htilde_j htilde_j^T.
    """
    # row j is htilde_j; h[:, None] * h is np.outer's own body
    rows = lift_channel(H).T
    M = constellations[k].step**2 * (rows[k][:, None] * rows[k])
    for j in range(H.shape[1]):
        if j != k:
            M -= constellations[j].max_symbol ** 2 * (rows[j][:, None] * rows[j])
    return M


def sminr_closed_form(H: np.ndarray, k: int, constellations) -> np.ndarray:
    """Maximum power-SMINR beamformer via the lifted eigenvector solution.

    Returns the unit-norm complex weights recovered from the dominant
    eigenvector of :func:`sminr_quadratic_form`, with the sign chosen so
    Re{w h_k} > 0. No further phase rotation is applied: any nontrivial
    rotation would change Re{w h_j} and lose the attained maximum.
    """

    def top():
        # the form is exactly symmetric, and eigh reads one triangle of it
        w = unlift_weights(np.linalg.eigh(sminr_quadratic_form(H, k, constellations))[1][:, -1])
        return -w if (w @ H[:, k]).real < 0 else w

    return _memoized(H, ("sminr", k, tuple(constellations)), top).copy()
