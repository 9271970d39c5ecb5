"""Eigenvalue and resolvent-norm analysis in the energy norm.

All quantities are those of the energy-coordinate representative
``T = U A U^{-1}`` (with ``gram = U^T U``): the resolvent norm is the
reciprocal smallest singular value of the shifted matrix, and the kernel
diagnostic is ``sigma_min(T)``, the reciprocal of the energy-norm
resolvent at zero frequency, against ``sigma_max(T)``, the energy norm
(:func:`towerstab.generator.energy_norm`).  Both extreme singular values
come from Lanczos on the banded factors of the assembled Gram and flux,
without forming ``T``; only a kernel check that fails counts the kernel
from a dense SVD.  Eigenvalues are those of ``T``; a beam generator's come
from its modal form (:mod:`towerstab.modal`) when that form's guard
accepts them, anything else's from a dense ``eigvals`` of ``T``.

Resolvent norms of a generator or block with the beam layout are read
from its modal form (:mod:`towerstab.modal`), ``is - T`` unitarily similar
to a diagonal matrix plus one of rank ``m <= 8``: inverse Lanczos on a
Woodbury solve, ``O(dim m)`` per step with no ``O(dim^3)`` setup (Hager,
*SIAM Rev.* 31, 1989; Wright & Trefethen, *SIAM J. Sci. Comput.* 23,
2001), over a chunk of frequencies at once.  Anything else takes a dense
SVD of ``is - T`` per frequency, stacked (:func:`resolvent_norms`).

The kernel check's ``sigma_min``, the energy norm and the modal resolvent
norms come from one Lanczos loop,
:func:`towerstab.generator._top_eigenvalues`: the first two on one row of
banded operators, the last on a chunk of frequencies at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from .errors import NumericalError, SpectrumHit, ValidationError
from .generator import (
    _EPS,
    DiscreteGenerator,
    GramSystem,
    _BandFactors,
    _energy_eigenvalues,
    _frozen,
    _start,
    _top_eigenvalues,
    energy_coordinates,
    energy_norm,
)
from .modal import _modal_form, modal_roots

#: scans and asymptotic fits are restricted to s below this fraction of the
#: largest discrete eigenfrequency; the mesh misrepresents the band above.
RELIABLE_BAND_FRACTION = 0.5
DEFAULT_FIT_LOW = 2.0
KERNEL_TOL = 1e-8
#: Largest object whose spectrum the dense ``eigvals`` computes.
DENSE_MAX_DIM = 4000


@dataclass(frozen=True)
class ResolventScan:
    """Energy-norm resolvent values over a frequency grid with a power fit.

    ``alpha_fit`` is the least-squares slope of ``log |R(is)|`` against
    ``log s`` over ``window``; ``excluded`` lists grid frequencies rejected
    as spectrum hits.
    """

    s_values: np.ndarray
    norms: np.ndarray
    alpha_fit: float
    window: tuple[float, float]
    excluded: tuple[float, ...]


@dataclass(frozen=True)
class SpectrumReport:
    """Full spectrum of a generator with axis-distance diagnostics.

    ``route`` and ``trace_residual`` are those of :class:`Spectrum`.
    """

    eigenvalues: np.ndarray
    max_real_part: float
    asymptotic_slope: float
    fit_band: tuple[float, float]
    route: str
    trace_residual: float | None


class Spectrum(NamedTuple):
    """Eigenvalues of a generator or block and how they were computed.

    ``route`` is "modal" (:func:`towerstab.modal.modal_roots`, accepted by
    its guard) or "dense" (:func:`towerstab.generator._energy_eigenvalues`).
    ``trace_residual`` is the modal solve's relative trace-identity
    residual, also when its guard sent the spectrum to the dense route;
    ``None`` when the object has no modal form.
    """

    eigenvalues: np.ndarray
    route: str
    trace_residual: float | None


def energy_spectrum(gen: GramSystem) -> Spectrum:
    """Eigenvalues of ``gen`` in the energy norm, computed once and cached on it.

    Raises :class:`ValidationError` when the dense route would exceed
    ``DENSE_MAX_DIM``.
    """
    if gen._eigenvalues is None:
        roots = modal_roots(gen) if isinstance(gen, DiscreteGenerator) else None
        residual = None if roots is None else roots.trace_residual
        if roots is not None and roots.accepted:
            gen._eigenvalues = Spectrum(_frozen(roots.eigenvalues), "modal", residual)
        elif gen.dim > DENSE_MAX_DIM:
            raise ValidationError(
                f"dense eigensolve limited to dimension {DENSE_MAX_DIM}, got {gen.dim}"
            )
        else:
            gen._eigenvalues = Spectrum(_energy_eigenvalues(gen), "dense", residual)
    return gen._eigenvalues


#: ``is`` counts as a spectrum hit when the shifted matrix has a singular
#: value at most this many ``eps * (|s| + |T|)``, the backward-error scale
#: of a shift-and-factor of ``T``.
SPECTRUM_HIT_FACTOR = 10.0


#: Entries of the largest stack of shifted matrices that one stacked solve
#: or SVD takes (128 kB complex): the checks' grids of 120 to 400
#: frequencies on the 1-3-state control blocks fit in one stack, while a
#: beam-sized system (dim >= 91) takes one frequency at a time.  The modal
#: resolvent route runs ``STACK_ENTRIES // dim`` frequencies at once, so each
#: of its Lanczos vectors spans at most this many entries over the chunk.
STACK_ENTRIES = 1 << 13


def _hit_level(s, norm_T: float):
    """``sigma_min(is - T)`` at or below which ``is`` is a spectrum hit
    (elementwise for an array of ``s``)."""
    return SPECTRUM_HIT_FACTOR * _EPS * (abs(s) + norm_T)


def _as_grid(s_grid) -> np.ndarray:
    """A frequency grid as a one-dimensional float array.

    Raises :class:`ValidationError` when it is empty, not one-dimensional or
    not finite.
    """
    grid = np.asarray(s_grid, dtype=float)
    if grid.ndim != 1:
        raise ValidationError(f"frequency grid must be one-dimensional, got shape {grid.shape}")
    if not grid.size:
        raise ValidationError("frequency grid is empty")
    if not np.all(np.isfinite(grid)):
        raise ValidationError(f"frequency grid has non-finite entries: {grid[~np.isfinite(grid)]}")
    return grid


def _resolvent_from_shift(T: np.ndarray, s: float, norm_T: float) -> float:
    """``1 / sigma_min(is - T)`` by a dense SVD; raises :class:`SpectrumHit` when singular.

    The reference :func:`resolvent_norm` is tested against.
    """
    sv = sla.svdvals(1j * s * np.eye(T.shape[0]) - T)
    smin = float(sv[-1])
    if smin <= _hit_level(s, norm_T):
        raise SpectrumHit(s)
    return 1.0 / smin


def _ritz_tolerance(theta, scale):
    """Ritz residual at which inverse Lanczos stops (elementwise for arrays).

    A Ritz residual ``beta_k |y_k|`` of ``theta = 1 / sigma_min^2`` moves
    ``sigma_min = theta^{-1/2}`` by at most ``sigma_min beta_k |y_k| / (2
    theta)``; iteration stops once that is at most ``eps * scale`` -- for
    ``scale = |s| + |T|`` the backward-error scale of a dense SVD of the
    shifted matrix, for ``scale = |T|`` that of ``T`` -- i.e. when ``beta_k
    |y_k| <= 2 eps scale theta^{3/2}``.
    """
    return 2.0 * _EPS * scale * theta * np.sqrt(theta)


def resolvent_norm(gen: GramSystem, s: float) -> float:
    """Energy operator norm of ``(is - A)^{-1}`` of a generator or block.

    The one-point case of :func:`resolvent_norms`.  Raises
    :class:`SpectrumHit` when the shifted matrix is numerically singular
    (``is`` lies in the spectrum at working precision): when ``sigma_min``
    is at most ``SPECTRUM_HIT_FACTOR * eps * (|s| + |T|)``.
    """
    s = float(s)
    if not np.isfinite(s):
        raise ValidationError(f"frequency must be finite, got {s}")
    norm = resolvent_norms(gen, [s])[0]
    if np.isinf(norm):
        raise SpectrumHit(s)
    return float(norm)


def resolvent_norms(gen: GramSystem, s_grid) -> np.ndarray:
    """``1 / sigma_min(is - T)`` at every frequency of a grid, ``inf`` at spectrum hits.

    ``is`` is a spectrum hit when ``sigma_min <= SPECTRUM_HIT_FACTOR * eps *
    (|s| + |T|)``.  A system with a real modal form
    (:func:`towerstab.modal._modal_form`: a generator or block with the
    beam layout) takes :func:`_modal_norms`, inverse Lanczos on a
    Woodbury solve in ``O(dim m)`` per step; any other (a complex-gain
    block, a system without the beam layout) takes a dense SVD of ``is -
    T`` per frequency, stacked up to ``STACK_ENTRIES`` entries.  A
    frequency's norm does not depend on the other frequencies of the grid.
    Raises :class:`ValidationError` for an empty or non-finite grid.
    """
    grid = _as_grid(s_grid)
    norm_T = energy_norm(gen)
    form = _modal_form(gen)
    if form is not None:
        return _modal_norms(form, grid, norm_T)
    T = energy_coordinates(gen).T
    eye = np.eye(gen.dim)
    smin = np.empty(grid.size)
    step = max(1, STACK_ENTRIES // T.size)
    for start in range(0, grid.size, step):
        part = slice(start, start + step)
        smin[part] = np.linalg.svd(1j * grid[part, None, None] * eye - T, compute_uv=False)[:, -1]
    norms = np.full(grid.size, np.inf)
    return np.divide(1.0, smin, out=norms, where=smin > _hit_level(grid, norm_T))


def _modal_norms(form, grid: np.ndarray, norm_T: float) -> np.ndarray:
    """:func:`resolvent_norms` from the modal form ``is - T ~ M(s) = Delta -
    P R^H``, ``Delta = is - D`` diagonal, ``P`` and ``R`` of rank ``m``.

    ``M(s)`` and ``T`` are unitarily similar (the modal basis is orthonormal
    in the energy norm), so ``sigma_min(is - T) = sigma_min(M(s))``; the
    form is real, so the norm is even in ``s`` and is evaluated at ``|s|``.
    Mode ``j`` is bordered at ``s`` when ``|Delta_j| (|s| + |T|) <=
    |P_j| |R_j| |P| |R|`` (row norms, and Frobenius norms of the whole
    ``P`` and ``R``): every other mode's term ``conj(R_j) P_j^T /
    Delta_j`` of the Woodbury capacitance is then at most ``(|s| + |T|) /
    (|P| |R|)``, so its rounding moves ``M`` by about ``eps (|s| + |T|)``
    each, the backward-error scale of a dense SVD.  A bordered mode keeps
    its own row and column in the capacitance (:func:`_woodbury`), so
    ``s = omega_j`` exactly divides by nothing.  Frequencies with as many
    bordered modes go through :func:`_chunk_thetas` in chunks of
    ``STACK_ENTRIES // dim``.
    """
    d, P, R = form.d, form.P, form.R
    s = np.abs(grid)
    with np.errstate(over="ignore"):  # a weight past the float range is inf: bordered
        weight = np.linalg.norm(P, axis=1) * np.linalg.norm(R, axis=1) * (
            np.linalg.norm(P) * np.linalg.norm(R)
        )
    step = max(1, STACK_ENTRIES // d.size)
    bordered = np.concatenate([
        _bordered(d, weight, s[k:k + step], norm_T).sum(axis=1)
        for k in range(0, s.size, step)
    ])
    theta = np.empty(s.size)
    for count in np.unique(bordered):
        same = np.flatnonzero(bordered == count)
        for k in range(0, same.size, step):
            chunk = same[k:k + step]
            theta[chunk] = _chunk_thetas(form, weight, s[chunk], norm_T)
    norms = np.sqrt(theta)
    norms[~(norms * _hit_level(s, norm_T) < 1.0)] = np.inf
    return norms


def _bordered(d: np.ndarray, weight: np.ndarray, s: np.ndarray, norm_T: float) -> np.ndarray:
    """Mask of the modes bordered at each ``s`` (see :func:`_modal_norms`)."""
    return np.abs(1j * s[:, None] - d) * (s[:, None] + norm_T) <= weight


def _woodbury(B, V, W, inv, rows, b):
    """``(Delta - V W^H)^{-1} b`` for each row of ``b``, with ``inv = 1 /
    Delta`` off the bordered modes ``rows`` and 0 on them, and the
    bordered capacitance ``B = [[I - W^H inv V, -W_N^H], [-V_N,
    Delta_N]]``: with ``y = W^H x``, the unbordered ``x_j = inv_j (b_j +
    V_j y)``, and ``(y, x_N)`` solve ``B (y, x_N) = (W^H (inv b), b_N)``."""
    m = V.shape[1]
    at = np.arange(b.shape[0])[:, None], rows
    rhs = np.concatenate([((inv * b)[:, None, :] @ W.conj())[:, 0], b[at]], axis=1)
    y = np.linalg.solve(B, rhs[:, :, None])[:, :, 0]
    x = inv * (b + (y[:, None, :m] @ V.T)[:, 0])
    x[at] = y[:, m:]
    return x


def _chunk_thetas(form, weight: np.ndarray, s: np.ndarray, norm_T: float) -> np.ndarray:
    """``theta = 1 / sigma_min(M(s))^2`` at each ``s >= 0`` of a chunk
    whose frequencies border equally many modes; ``inf`` for an exactly
    singular capacitance or an overflowing step.

    Inverse Lanczos on ``M^{-1} M^{-H}``, one row of
    :func:`~towerstab.generator._top_eigenvalues` per frequency, each
    stopped at :func:`_ritz_tolerance` for ``scale = s + |T|``; a row's
    ``theta`` does not depend on the chunk.  The chunk shares the Python
    cost of a step among its frequencies: one Woodbury solve per frequency
    took about twice as long at ``n_elements`` 16.  Both solves of a step
    take :func:`_woodbury`, ``M^{-H}`` with the adjoint capacitance
    ``B^H``; the capacitances of the dropped rows are dropped with them.
    LAPACK rejects a whole stack for one exactly singular capacitance; the
    chunk's frequencies are then run one by one.
    """
    d, P, R = form.d, form.P, form.R
    dim, m = P.shape
    delta = 1j * s[:, None] - d
    near = _bordered(d, weight, s, norm_T)
    rows = np.nonzero(near)[1].reshape(s.size, -1)
    g = rows.shape[1]
    inv = 1.0 / np.where(near, 1.0, delta)
    inv[near] = 0.0
    B = np.zeros((s.size, m + g, m + g), dtype=complex)
    B[:, :m, :m] = np.eye(m) - R.conj().T @ (inv[:, :, None] * P)
    B[:, :m, m:] = -R[rows].conj().transpose(0, 2, 1)
    B[:, m:, :m] = -P[rows]
    B[:, m + np.arange(g), m + np.arange(g)] = np.take_along_axis(delta, rows, axis=1)
    BH = B.conj().transpose(0, 2, 1).copy()
    state = [B, BH, inv, rows]

    def apply(q: np.ndarray) -> np.ndarray:
        B, BH, inv, rows = state
        return _woodbury(B, P, R, inv, rows, _woodbury(BH, R, P, inv.conj(), rows, q))

    def keep(mask: np.ndarray) -> None:
        state[:] = [a[mask] for a in state]

    Q = np.tile(_start(dim, complex), (s.size, 1))
    try:
        return _top_eigenvalues(apply, Q, lambda t, i: _ritz_tolerance(t, s[i] + norm_T), keep)
    except np.linalg.LinAlgError:
        if s.size == 1:
            return np.full(1, np.inf)
        return np.concatenate([_chunk_thetas(form, weight, s[i:i + 1], norm_T) for i in range(s.size)])


def _frequency_grid(s_lo: float, s_hi: float, n_points: int, spacing: str) -> np.ndarray:
    """``n_points`` frequencies, "log" or "linear" spaced, for ``0 < s_lo < s_hi``."""
    if not s_lo > 0:
        raise ValidationError(f"s_lo must be positive, got {s_lo}")
    if s_hi <= s_lo:
        raise ValidationError(f"band end s_hi = {s_hi} is not above s_lo = {s_lo}")
    if n_points < 2:
        raise ValidationError("n_points must be at least 2")
    if spacing == "log":
        return np.geomspace(s_lo, s_hi, n_points)
    if spacing == "linear":
        return np.linspace(s_lo, s_hi, n_points)
    raise ValidationError(f"spacing must be 'log' or 'linear', got {spacing!r}")


def mesh_frequency(gen: DiscreteGenerator) -> float:
    """Largest discrete eigenfrequency (max |Im lambda| over the spectrum)."""
    return float(np.abs(energy_spectrum(gen).eigenvalues.imag).max())


def power_fit(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of log y against log x."""
    if x.size < 2:
        raise ValidationError("power-law fit needs at least two points")
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


def scan_resolvent(
    gen: DiscreteGenerator,
    s_lo: float,
    s_hi: float,
    n_points: int,
    spacing: str = "log",
    fit_window: tuple[float, float] | None = None,
) -> ResolventScan:
    """Evaluate the energy-norm resolvent on a frequency grid and fit its growth.

    Grid points hitting the spectrum are excluded and reported.
    """
    grid = _frequency_grid(s_lo, s_hi, n_points, spacing)
    norms = resolvent_norms(gen, grid)
    hit = np.isinf(norms)
    s_ok, norms = grid[~hit], norms[~hit]
    if s_ok.size < 2:
        raise NumericalError("scan left fewer than two usable frequencies")
    window = fit_window if fit_window is not None else (float(s_lo), float(s_hi))
    mask = (s_ok >= window[0]) & (s_ok <= window[1])
    if mask.sum() < 2:
        raise ValidationError(f"fit window {window} contains fewer than two points")
    alpha = power_fit(s_ok[mask], norms[mask])
    return ResolventScan(
        s_values=s_ok,
        norms=norms,
        alpha_fit=alpha,
        window=(float(window[0]), float(window[1])),
        excluded=tuple(grid[hit].tolist()),
    )


def eigen_report(gen: DiscreteGenerator) -> SpectrumReport:
    """Spectrum of the generator (:func:`energy_spectrum`) with the axis-approach slope.

    ``asymptotic_slope`` fits ``log |Re lambda|`` against ``log |Im lambda|``
    over eigenvalues whose frequency lies in the reliable band, from 2 up to
    half the largest eigenfrequency.
    """
    spectrum = energy_spectrum(gen)
    lam = spectrum.eigenvalues
    lam = lam[np.argsort(lam.imag, kind="stable")]
    band_hi = RELIABLE_BAND_FRACTION * float(np.abs(lam.imag).max())
    mask = (
        (lam.imag > 0)
        & (np.abs(lam.imag) >= DEFAULT_FIT_LOW)
        & (np.abs(lam.imag) <= band_hi)
        & (np.abs(lam.real) > 0)
    )
    slope = (
        power_fit(np.abs(lam.imag[mask]), np.abs(lam.real[mask]))
        if mask.sum() >= 2
        else float("nan")
    )
    return SpectrumReport(
        eigenvalues=lam,
        max_real_part=float(lam.real.max()),
        asymptotic_slope=slope,
        fit_band=(DEFAULT_FIT_LOW, band_hi),
        route=spectrum.route,
        trace_residual=spectrum.trace_residual,
    )


def kernel_check(gen: DiscreteGenerator) -> tuple[int, float]:
    """Estimate the kernel dimension from the extreme singular values of ``T``.

    Returns ``(dimension_estimate, sigma_min)`` where singular values below
    ``KERNEL_TOL * sigma_max`` count towards the kernel; ``sigma_min`` is the
    reciprocal of the energy-norm resolvent at zero frequency when the
    generator is invertible, and ``sigma_max`` is :func:`energy_norm`.
    ``sigma_min`` comes from Lanczos on ``(T^H T)^{-1} = U F^{-1} M F^{-H}
    U^T``, applied by one banded LU of the flux, stopped at
    :func:`_ritz_tolerance` for an error of at most ``eps * sigma_max``,
    the backward-error scale of a dense SVD of ``T``; the kernel is then
    trivial.  When the LU meets a
    zero pivot or ``sigma_min <= KERNEL_TOL * sigma_max``, the kernel is
    counted from a dense SVD of ``T``, which also gives ``sigma_min``.
    """
    sigma_max = energy_norm(gen)
    bands = _BandFactors(gen)
    inverse = bands.inverse_normal()
    if inverse is not None:  # it acts on T / bands.scale
        (theta,) = _top_eigenvalues(
            lambda X: inverse(X[0])[None], _start(gen.dim, bands.flux.dtype)[None],
            lambda t, _: _ritz_tolerance(t, sigma_max / bands.scale),
        )
        sigma_min = bands.scale / float(np.sqrt(theta))
        if sigma_min > KERNEL_TOL * sigma_max:
            return 0, sigma_min
    sv = sla.svdvals(energy_coordinates(gen).T)
    return int(np.count_nonzero(sv < KERNEL_TOL * sigma_max)), float(sv[-1])
