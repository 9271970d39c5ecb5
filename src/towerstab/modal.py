"""Spectrum of a beam generator from its modal form.

Every assembled generator leads with the lossless beam core (see
:mod:`towerstab.models`).  Its Gram is ``blkdiag(K, M, G)`` with ``G``
diagonal over the ``k <= 3`` block states, and its flux is the skew pair
``S = [[0, K], [-K, 0]]`` on the beam plus a remainder ``E`` that is
nonzero on a few rows only: the tip rows that loops and couplings touch,
and the block states.  The undamped modes ``K phi_k = omega_k^2 M phi_k``
of :func:`~towerstab.timesim.beam_modes` give the basis

    x_k+- = (phi_k / omega_k, +-i phi_k, 0) / sqrt(2),    e_j / sqrt(G_jj),

orthonormal in the energy norm, ``Z^H gram Z = I``.  In it the generator is
``Z^H flux Z = D + P R^H``: ``D = diag(+-i omega_k, 0)``, and ``P R^H = Z^H
E Z`` has rank ``m``, the number of nonzero rows of ``E`` (2 to 4 on the six
models), read off the arrays and never from an SVD.  The eigenvalues are
the roots of the secular equation ``det C(lambda) = 0``, ``C(lambda) = I +
sum_j conj(R_j) P_j^T / (d_j - lambda)`` over the rows of ``P`` and ``R``
(Golub, *SIAM Rev.* 15, 1973; Bini, Gemignani & Pan, *Numer. Math.* 100,
2005):

* Each beam root by Newton on ``delta = lambda - d_k`` from ``delta = 0``.
  With ``C_k`` the sum without ``j = k``, the root solves ``h(delta) =
  delta - P_k^T C_k^{-1} conj(R_k) = 0``.  ``lambda - d_k`` is carried as
  ``delta`` and never formed as a difference, so ``Re lambda`` keeps its
  relative accuracy where a dense eigensolver's absolute error ``eps |T|``
  swamps it.  Only the ``+i omega_k`` roots are solved; the others are
  their conjugates, the generator being real.
* Each of the ``k`` block roots by Newton with Maehly deflation against the
  roots already found, from the eigenvalues of the block alone: a real
  start on the real axis, a complex one in the upper half plane, its
  conjugate being the root of the conjugate start.

Roots are solved in chunks, so no temporary holds more than ``CHUNK``
complex entries.  Products go through scipy's BLAS, not numpy's ``@``:
numpy and scipy each load their own OpenBLAS, and a threaded numpy product
leaves its workers spinning while the scipy factorisations that follow run
(on two cores the scan's Schur factorisation took twice as long after one).

:func:`modal_roots` reports whether its guard accepts
them: every root converged within ``NEWTON_STEPS``; every beam root lies
closer to its own start than half the distance to any other beam start, so
no two beam roots coincide; and the trace identity ``sum Re lambda = -sum_i
gain_i v_i^T gram^{-1} v_i`` of the declared channels holds within its
rounding bound.  Block starts are left out of the second test: the
hydraulic fundamental moves 0.34 towards a transmission eigenvalue 0.68
away, and the deflation already keeps every block root off the beam roots.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.linalg import blas

from .errors import ValidationError
from .generator import DiscreteGenerator, _beam_size
from .timesim import beam_modes

#: Largest number of nonzero rows of ``E`` the modal form takes; each
#: Newton step costs ``O(dim m^2)`` per root.
MAX_RANK = 8

#: Newton steps a root may take before it counts as not converged; every
#: root of the six models converges in 4 to 5.
NEWTON_STEPS = 30

#: Complex entries per temporary of the root solves (128 kB).
CHUNK = 1 << 13

_EPS = np.finfo(float).eps


class ModalRoots(NamedTuple):
    """Eigenvalues from the modal form, and whether the guard accepts them.

    ``eigenvalues`` holds the ``+i omega_k`` beam roots in ascending
    ``omega_k``, their conjugates, then the block roots.
    ``trace_residual`` is ``|sum Re lambda + sum_i gain_i v_i^T gram^{-1}
    v_i|`` relative to the scale of its rounding bound (see
    :func:`modal_roots`).
    """

    eigenvalues: np.ndarray
    trace_residual: float
    accepted: bool


class _ModalForm(NamedTuple):
    d: np.ndarray        # diagonal of D: +i omega, -i omega, then k zeros
    P: np.ndarray        # dim x m
    R: np.ndarray        # dim x m
    block_starts: np.ndarray
    dissipation: float   # sum_i gain_i v_i^T gram^{-1} v_i


def modal_roots(gen: DiscreteGenerator) -> ModalRoots | None:
    """The spectrum of ``gen`` from its modal form, or ``None`` without one.

    ``None`` when the generator lacks the beam layout or a premise of the
    form fails on its arrays: the Gram is not exactly ``blkdiag(K, M, G)``
    with symmetric ``K``, ``M`` and diagonal ``G``, or ``flux - S`` has
    more than ``MAX_RANK`` nonzero rows.  Otherwise the roots and the guard
    of the module docstring.  The trace bound is ``dim eps`` times the
    scale ``sum_i gain_i v_i^T gram^{-1} v_i + sum_k |delta_k| + sum_b
    |lambda_b|``: the reference is a sum of ``dim`` nonnegative terms, and
    the stopping rules leave each beam root a few ``eps |delta_k|`` off,
    each block root a few ``eps |lambda_b|``.
    """
    form = _modal_form(gen)
    if form is None:
        return None
    n = (form.d.size - form.block_starts.size) // 2
    try:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            delta, beam_ok = _beam_deltas(form, n)
            block, block_ok = _block_roots(form, delta)
    except np.linalg.LinAlgError:
        return None
    upper = form.d[:n] + delta
    lam = np.concatenate([upper, upper.conj(), block])
    omega = form.d[:n].imag
    gap = 2.0 * omega  # to the conjugate start
    spacing = np.diff(omega)
    gap[1:] = np.minimum(gap[1:], spacing)
    gap[:-1] = np.minimum(gap[:-1], spacing)
    separated = bool(np.all(np.abs(delta) < 0.5 * gap))
    scale = form.dissipation + 2.0 * np.abs(delta).sum() + np.abs(block).sum()
    residual = abs(lam.real.sum() + form.dissipation)
    relative = residual / scale if scale > 0 else residual
    accepted = beam_ok and block_ok and separated and residual <= gen.dim * _EPS * scale
    return ModalRoots(lam, float(relative), bool(accepted))


def _modal_form(gen: DiscreteGenerator) -> _ModalForm | None:
    """``D``, ``P``, ``R`` of the module docstring after checking the premises."""
    try:
        n = _beam_size(gen)
    except ValidationError:
        return None
    gram = gen.gram
    K, M, G = gram[:n, :n], gram[n:2 * n, n:2 * n], gram[2 * n:, 2 * n:]
    g = np.diag(G).copy()
    # count_nonzero allocates nothing: off the diagonal blocks the Gram is zero
    # exactly when it has no more nonzeros than K, M and the diagonal of G.
    if np.count_nonzero(gram) != sum(map(np.count_nonzero, (K, M, g))):
        return None
    if not (np.array_equal(K, K.T) and np.array_equal(M, M.T)):
        return None
    support = _remainder_rows(gen, n)
    if support is None:
        return None
    rows, E = support
    omega, phi = beam_modes(gen)
    half = np.sqrt(0.5)
    # Z[rows, :] over the +i omega columns and the block columns
    Z_upper = np.zeros((rows.size, n), dtype=complex)
    Z_block = np.zeros((rows.size, g.size))
    for a, i in enumerate(rows):
        if i < n:
            Z_upper[a] = half * phi[i] / omega
        elif i < 2 * n:
            Z_upper[a] = 1j * half * phi[i - n]
        else:
            Z_block[a, i - 2 * n] = 1.0 / np.sqrt(g[i - 2 * n])
    # R[:, a] = Z^H E[a]: the two halves of each beam column share phi^T E
    R_upper = half * (
        blas.dgemm(1.0, phi.T, E[:, :n].T) / omega[:, None]
        - 1j * blas.dgemm(1.0, phi.T, E[:, n:2 * n].T)
    )
    R_block = E[:, 2 * n:].T / np.sqrt(g)[:, None]
    P = np.vstack([Z_upper.conj().T, Z_upper.T, Z_block.T])
    R = np.vstack([R_upper, R_upper.conj(), R_block])
    d = np.concatenate([1j * omega, -1j * omega, np.zeros(g.size)])
    block_starts = np.linalg.eigvals(gen.flux[2 * n:, 2 * n:] / np.sqrt(np.outer(g, g)))
    # v^T gram^{-1} v through the modes: K^{-1} = phi Omega^-2 phi^T, M^{-1} = phi phi^T
    dissipation = 0.0
    for _, gain, v in gen.damping_channels:
        dissipation += gain * float(
            np.sum((blas.dgemv(1.0, phi.T, v[:n]) / omega) ** 2)
            + np.sum(blas.dgemv(1.0, phi.T, v[n:2 * n]) ** 2)
            + np.sum(v[2 * n:] ** 2 / g)
        )
    return _ModalForm(d, P, R, block_starts, dissipation)


def _remainder_rows(gen: DiscreteGenerator, n: int) -> tuple[np.ndarray, np.ndarray] | None:
    """Indices and values of the nonzero rows of ``E = flux - S``, or ``None``
    when there are more than ``MAX_RANK``; read in chunks of rows."""
    flux, K = gen.flux, gen.gram[:n, :n]
    step = max(1, CHUNK // gen.dim)
    indices, values = [], []
    for start in range(0, gen.dim, step):
        E = np.array(flux[start:start + step])
        i = np.arange(start, start + E.shape[0])
        q, v = i < n, (i >= n) & (i < 2 * n)
        E[q, n:2 * n] -= K[i[q]]
        E[v, :n] += K[i[v] - n]
        keep = np.flatnonzero(E.any(axis=1))
        indices.extend(i[keep])
        values.extend(E[keep])
        if len(indices) > MAX_RANK:
            return None
    return np.array(indices, dtype=int), np.array(values).reshape(len(indices), gen.dim)


def _times(weights: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """``weights @ outer`` by scipy's ``zgemm``, on the Fortran-ordered transposes."""
    return blas.zgemm(1.0, outer.T, weights.T).T


def _outer_rows(form: _ModalForm) -> np.ndarray:
    """``conj(R_j) P_j^T`` for every row ``j``, flattened to ``dim x m^2``,
    so that ``C(lambda) - I`` is one product with the weights ``1 / (d_j - lambda)``."""
    m = form.P.shape[1]
    return (form.R.conj()[:, :, None] * form.P[:, None, :]).reshape(-1, m * m)


def _beam_deltas(form: _ModalForm, n: int) -> tuple[np.ndarray, bool]:
    """``delta_k`` of the ``+i omega_k`` roots by Newton, and whether all converged.

    ``h'(delta) = 1 + w^T C_k' u`` with ``u = C_k^{-1} conj(R_k)``, ``w =
    C_k^{-T} P_k`` and ``C_k' = sum_{j != k} conj(R_j) P_j^T / (d_j -
    lambda)^2``.  Newton stops at ``|step| <= 4 eps |delta|``.
    """
    d, P, R = form.d, form.P, form.R
    dim, m = P.shape
    delta = np.zeros(n, dtype=complex)
    converged = np.zeros(n, dtype=bool)
    if m == 0:
        return delta, True
    outer = _outer_rows(form)
    eye = np.eye(m)
    chunk = max(1, CHUNK // dim)
    for start in range(0, n, chunk):
        ks = np.arange(start, min(n, start + chunk))
        offsets = d[None, :] - d[ks, None]  # d_j - d_k, exactly 0 at j = k
        for _ in range(NEWTON_STEPS):
            active = np.flatnonzero(~converged[ks])
            if not active.size:
                break
            k = ks[active]
            own = (np.arange(k.size), k)
            denominators = offsets[active] - delta[k, None]
            denominators[own] = 1.0
            weights = 1.0 / denominators
            weights[own] = 0.0
            C = eye + _times(weights, outer).reshape(-1, m, m)
            dC = _times(weights * weights, outer).reshape(-1, m, m)
            u = np.linalg.solve(C, R[k].conj()[:, :, None])[:, :, 0]
            w = np.linalg.solve(C.transpose(0, 2, 1), P[k][:, :, None])[:, :, 0]
            h = delta[k] - np.einsum("ca,ca->c", P[k], u)
            dh = 1.0 + np.einsum("ca,cab,cb->c", w, dC, u)
            step = h / dh
            delta[k] -= step
            converged[k] = np.abs(step) <= 4.0 * _EPS * np.abs(delta[k])
    return delta, bool(converged.all())


def _block_roots(form: _ModalForm, delta: np.ndarray) -> tuple[np.ndarray, bool]:
    """The block roots by Newton with Maehly deflation, and whether all converged.

    The step is ``1 / (f'/f - sum_found 1 / (lambda - lambda_i))`` for ``f =
    det(lambda - D - P R^H)``, with ``f'/f = sum_j 1 / (lambda - d_j) +
    tr(C^{-1} C')``.  Against the beam roots found, the pole and deflation
    terms pair to ``-delta_j / ((lambda - d_j)(lambda - lambda_j))``, free
    of cancellation.
    """
    d, P = form.d, form.P
    m = P.shape[1]
    if m == 0:
        return form.block_starts.copy(), True
    n_block = form.block_starts.size
    beam_d = d[: d.size - n_block]
    deltas = np.concatenate([delta, delta.conj()])
    beam_roots = beam_d + deltas
    outer = _outer_rows(form)
    eye = np.eye(m)
    roots, converged = [], True
    for start in form.block_starts:
        if start.imag < 0:
            continue  # the conjugate of the root from the start above
        real = start.imag == 0
        lam = complex(start)
        for _ in range(NEWTON_STEPS):
            weights = 1.0 / (d - lam)
            C = eye + _times(weights[None], outer).reshape(m, m)
            dC = _times((weights * weights)[None], outer).reshape(m, m)
            try:
                trace = np.trace(np.linalg.solve(C, dC))
            except np.linalg.LinAlgError:
                break  # det C(lam) = 0 in working precision: lam is the root
            logarithmic = (
                trace
                - np.sum(deltas / ((lam - beam_d) * (lam - beam_roots)))
                + n_block / lam
                - sum(1.0 / (lam - root) for root in roots)
            )
            step = 1.0 / logarithmic
            lam = complex(lam.real - step.real) if real else lam - step
            if abs(step) <= 4.0 * _EPS * abs(lam):
                break
        else:
            converged = False
        roots += [lam] if real else [lam, lam.conjugate()]
    return np.array(roots, dtype=complex), converged
