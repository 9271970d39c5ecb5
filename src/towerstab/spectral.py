"""Eigenvalue and resolvent-norm analysis in the energy norm.

All quantities are computed on the energy-coordinate representative
``T = U A U^{-1}`` (with ``gram = U^T U``): the resolvent norm is the
reciprocal smallest singular value of the shifted matrix, and the kernel
diagnostic is the singular spectrum of ``T`` itself, i.e. the reciprocal of
the energy-norm resolvent at zero frequency.  Eigenvalues are those of
``T``; a beam generator's come from its modal form
(:mod:`towerstab.modal`) when that form's guard accepts them, anything
else's from a dense ``eigvals`` of ``T``.

Resolvent norms are read from one complex Schur factor ``T = Z R Z^H`` per
generator or block, computed on the first call and cached on the object.
The 2-norm is unitarily invariant, so ``|(is - T)^{-1}| = |(is - R)^{-1}|``
and ``Z`` is never formed; each frequency then costs ``O(k dim^2)``: ``k``
inverse Lanczos steps, each two triangular solves with the shifted ``R``.
A grid on a block of a few states, whose shifted matrices fit in one stack
of ``STACK_ENTRIES`` entries, takes one stacked SVD instead
(:func:`resolvent_norms`).

The Lanczos loop forms its products with scipy's BLAS, like its triangular
solves: numpy and scipy each load their own OpenBLAS, and a threaded numpy
product there leaves its workers spinning while the scipy calls that follow
it run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas, lapack

from .errors import NumericalError, SpectrumHit, ValidationError
from .generator import (
    DiscreteGenerator,
    GramSystem,
    _energy_eigenvalues,
    _frozen,
    energy_coordinates,
)
from .modal import modal_roots

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
_EPS = np.finfo(float).eps


#: Entries of the largest stack of shifted matrices that one stacked solve
#: or SVD takes (128 kB complex): the checks' grids of 120 to 400
#: frequencies on the 1-3-state control blocks fit in one stack, while a
#: beam-sized system (dim >= 91) takes one frequency at a time.
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


def _no_sort(_eigenvalue) -> None:
    return None


def _schur_factor(gen: GramSystem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Complex Schur factor ``R`` of ``T``, its diagonal and a Lanczos start vector.

    Computed once per object by LAPACK ``zgees`` without Schur vectors.
    ``R`` is upper triangular and Fortran-ordered for the triangular
    solves; :func:`resolvent_norm` overwrites its diagonal with each shift,
    so the eigenvalues are kept in ``diagonal``.  The start vector is a
    fixed pseudo-random unit vector, so reruns are bit-identical.
    """
    if gen._schur is None:
        a = np.array(energy_coordinates(gen).T, dtype=complex, order="F")
        # a workspace query reads no entry of ``a``, so it need not be copied
        query = lapack.zgees(_no_sort, a, compute_v=0, lwork=-1, overwrite_a=1)
        lwork = int(query[-2][0].real)
        R, *_, info = lapack.zgees(_no_sort, a, compute_v=0, lwork=lwork, overwrite_a=1)
        if info != 0:
            raise NumericalError(f"Schur factorisation failed (zgees info {info})")
        rng = np.random.default_rng(0)
        start = rng.standard_normal(gen.dim) + 1j * rng.standard_normal(gen.dim)
        gen._schur = (R, R.diagonal().copy(), start / np.linalg.norm(start))
    return gen._schur


def _inverse_lanczos(R: np.ndarray, q: np.ndarray, scale: float) -> float:
    """Largest eigenvalue ``theta = 1 / sigma_min(R)^2`` of ``R^{-H} R^{-1}``.

    Lanczos with full reorthogonalisation from the unit start vector ``q``.
    Each step applies the operator by two triangular solves with ``R``.
    The Ritz residual ``beta_k |y_k|`` bounds the distance of the top Ritz
    value ``theta`` to an eigenvalue, which moves ``sigma_min =
    theta^{-1/2}`` by at most ``sigma_min beta_k |y_k| / (2 theta)``.
    Iteration stops once that is at most ``eps * scale`` -- for ``scale =
    |s| + |T|`` the backward-error scale of a dense SVD of the shifted
    matrix -- i.e. when ``beta_k |y_k| <= tol * theta`` with ``tol = 2 eps
    scale theta^{1/2}``; or at ``k = dim``, where the Krylov space is the
    whole space and ``theta`` is exact.
    """
    n = R.shape[0]
    Q = np.empty((n, n), dtype=complex, order="F")  # columns filled as used
    alpha = np.empty(n)
    beta = np.empty(n)
    for k in range(n):
        Q[:, k] = q
        Qk = Q[:, : k + 1]
        w = lapack.ztrtrs(R, lapack.ztrtrs(R, q)[0], trans=2, overwrite_b=1)[0]
        c = blas.zgemv(1.0, Qk, w, trans=2)  # Qk^H w
        alpha[k] = c[k].real
        w = blas.zgemv(-1.0, Qk, c, beta=1.0, y=w, overwrite_y=1)  # w - Qk c
        # a second Gram-Schmidt pass restores orthogonality lost to cancellation
        c = blas.zgemv(1.0, Qk, w, trans=2)
        w = blas.zgemv(-1.0, Qk, c, beta=1.0, y=w, overwrite_y=1)
        beta[k] = blas.dznrm2(w)
        ritz, y, _ = lapack.dstev(alpha[: k + 1], beta[: max(k, 1)])
        theta = float(ritz[-1])
        if beta[k] * abs(y[-1, -1]) <= 2.0 * _EPS * scale * theta * np.sqrt(theta):
            break
        q = w / beta[k]
    return theta


def resolvent_norm(gen: GramSystem, s: float) -> float:
    """Energy operator norm of ``(is - A)^{-1}`` of a generator or block.

    Computes ``1 / sigma_min(is - R)`` for the complex Schur factor ``R``
    of ``T``, cached on ``gen`` by the first call, with
    :func:`_inverse_lanczos`: ``O(k dim^2)`` per frequency for ``k``
    Lanczos steps.  Raises :class:`SpectrumHit` when the shifted matrix is
    numerically singular (``is`` lies in the spectrum at working
    precision): when ``sigma_min``, or the smallest diagonal entry of
    ``is - R`` which bounds it above, is at most ``SPECTRUM_HIT_FACTOR *
    eps * (|s| + |T|)``.  Each call writes its shift into the cached
    factor, so calls on one object must not run concurrently.
    """
    s = float(s)
    norm_T = energy_coordinates(gen).norm_A
    hit = _hit_level(s, norm_T)
    R, diagonal, start = _schur_factor(gen)
    shifted = diagonal - 1j * s  # sigma(R - is) = sigma(is - R)
    if np.abs(shifted).min() <= hit:
        raise SpectrumHit(s)
    R.flat[:: R.shape[0] + 1] = shifted
    norm = float(np.sqrt(_inverse_lanczos(R, start, abs(s) + norm_T)))
    if norm * hit >= 1.0:
        raise SpectrumHit(s)
    return norm


def resolvent_norms(gen: GramSystem, s_grid) -> np.ndarray:
    """:func:`resolvent_norm` at every frequency of a grid, ``inf`` at spectrum hits.

    When the shifted matrices ``is - T`` of the whole grid fit in one stack
    of ``STACK_ENTRIES`` entries, ``sigma_min`` comes from one stacked SVD
    with the hit rule of :func:`_resolvent_from_shift`; otherwise each
    frequency takes :func:`resolvent_norm` on the cached Schur factor.
    Raises :class:`ValidationError` for an empty or non-finite grid.
    """
    grid = _as_grid(s_grid)
    norms = np.full(grid.size, np.inf)
    if grid.size * gen.dim**2 > STACK_ENTRIES:
        for k, s in enumerate(grid):
            try:
                norms[k] = resolvent_norm(gen, s)
            except SpectrumHit:
                pass
        return norms
    ec = energy_coordinates(gen)
    shifted = 1j * grid[:, None, None] * np.eye(gen.dim) - ec.T
    smin = np.linalg.svd(shifted, compute_uv=False)[:, -1]
    return np.divide(1.0, smin, out=norms, where=smin > _hit_level(grid, ec.norm_A))


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
    """Estimate the kernel dimension from the energy-norm singular spectrum.

    Returns ``(dimension_estimate, sigma_min)`` where singular values below
    ``KERNEL_TOL * sigma_max`` count towards the kernel; ``sigma_min`` is the
    reciprocal of the energy-norm resolvent at zero frequency when the
    generator is invertible.  ``sigma_max`` is ``energy_coordinates(gen).norm_A``.
    """
    sv = energy_coordinates(gen).singular_values
    dimension = int(np.count_nonzero(sv < KERNEL_TOL * sv[0]))
    return dimension, float(sv[-1])
