"""Eigenvalue and resolvent-norm analysis in the energy norm.

All quantities are computed on the energy-coordinate representative
``T = U A U^{-1}`` (with ``gram = U^T U``): the resolvent norm is the
reciprocal smallest singular value of the shifted matrix, eigenvalues are
those of ``T`` (well conditioned there because damped generators are small
perturbations of skew matrices), and the kernel diagnostic is the singular
spectrum of ``T`` itself, i.e. the reciprocal of the energy-norm resolvent
at zero frequency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, SpectrumHit, ValidationError
from .generator import (
    DiscreteGenerator,
    _energy_eigenvalues,
    _resolvent_from_shift,
    energy_coordinates,
)

#: scans and asymptotic fits are restricted to s below this fraction of the
#: largest discrete eigenfrequency; the mesh misrepresents the band above.
RELIABLE_BAND_FRACTION = 0.5
DEFAULT_FIT_LOW = 2.0
KERNEL_TOL = 1e-8


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
    """Full spectrum of a generator with axis-distance diagnostics."""

    eigenvalues: np.ndarray
    max_real_part: float
    spectral_gap_curve: np.ndarray  # columns (|Im lambda|, |Re lambda|)
    asymptotic_slope: float
    fit_band: tuple[float, float]


def resolvent_norm(gen: DiscreteGenerator, s: float) -> float:
    """Energy operator norm of ``(is - A)^{-1}``.

    Raises :class:`SpectrumHit` when the shifted matrix is numerically
    singular (``is`` lies in the spectrum at working precision).
    """
    ec = energy_coordinates(gen)
    return _resolvent_from_shift(ec.T, float(s), ec.norm_A)


def mesh_frequency(gen: DiscreteGenerator) -> float:
    """Largest discrete eigenfrequency (max |Im lambda| over the spectrum)."""
    return float(np.abs(_energy_eigenvalues(gen).imag).max())


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
    if not s_lo > 0:
        raise ValidationError(f"s_lo must be positive, got {s_lo}")
    if s_hi <= s_lo:
        raise ValidationError(f"need s_hi > s_lo, got [{s_lo}, {s_hi}]")
    if n_points < 2:
        raise ValidationError("n_points must be at least 2")
    if spacing == "log":
        grid = np.geomspace(s_lo, s_hi, n_points)
    elif spacing == "linear":
        grid = np.linspace(s_lo, s_hi, n_points)
    else:
        raise ValidationError(f"spacing must be 'log' or 'linear', got {spacing!r}")
    ec = energy_coordinates(gen)

    def eval_point(s: float):
        try:
            return _resolvent_from_shift(ec.T, s, ec.norm_A)
        except SpectrumHit:
            return None

    values = [eval_point(s) for s in grid]
    keep = np.array([v is not None for v in values])
    s_ok = grid[keep]
    norms = np.array([v for v in values if v is not None])
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
        excluded=tuple(float(s) for s in grid[~keep]),
    )


def eigen_report(
    gen: DiscreteGenerator, fit_band: tuple[float, float] | None = None
) -> SpectrumReport:
    """Dense spectrum of the generator with the axis-approach slope.

    ``asymptotic_slope`` fits ``log |Re lambda|`` against ``log |Im lambda|``
    over eigenvalues whose frequency lies in the reliable band (by default
    from 2 up to half the largest eigenfrequency).
    """
    if gen.dim > 4000:
        raise ValidationError(
            f"dense eigensolve limited to dimension 4000, got {gen.dim}"
        )
    lam = _energy_eigenvalues(gen)
    lam = lam[np.argsort(lam.imag, kind="stable")]
    gaps = np.column_stack([np.abs(lam.imag), np.abs(lam.real)])
    if fit_band is None:
        fit_band = (DEFAULT_FIT_LOW, RELIABLE_BAND_FRACTION * np.abs(lam.imag).max())
    mask = (
        (lam.imag > 0)
        & (np.abs(lam.imag) >= fit_band[0])
        & (np.abs(lam.imag) <= fit_band[1])
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
        spectral_gap_curve=gaps,
        asymptotic_slope=slope,
        fit_band=(float(fit_band[0]), float(fit_band[1])),
    )


def kernel_check(gen: DiscreteGenerator, tol: float = KERNEL_TOL) -> tuple[int, float]:
    """Estimate the kernel dimension from the energy-norm singular spectrum.

    Returns ``(dimension_estimate, sigma_min)`` where singular values below
    ``tol * sigma_max`` count towards the kernel; ``sigma_min`` is the
    reciprocal of the energy-norm resolvent at zero frequency when the
    generator is invertible.  ``sigma_max`` is ``energy_coordinates(gen).norm_A``.
    """
    sv = energy_coordinates(gen).singular_values
    dimension = int(np.count_nonzero(sv < tol * sv[0]))
    return dimension, float(sv[-1])
