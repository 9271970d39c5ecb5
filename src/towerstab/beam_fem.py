"""Energy-conforming discretization of the clamped non-uniform bending beam.

Piecewise-cubic Hermite elements on a uniform mesh of the unit interval.
Both the transverse value and the slope at every interior node and at the
tip are genuine degrees of freedom; the clamped end carries none.  The
assembled stiffness matrix ``K`` realizes the quadratic form
``int EI(x) |w''(x)|^2 dx`` and the mass matrix ``Mrho`` realizes
``int rho(x) |w(x)|^2 dx``, so boundary feedback and tip inertia attach
directly to the last two degrees of freedom.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import DimensionError, ValidationError
from .generator import check_spd

Coefficient = Callable[[float], float]

# Gauss-Legendre rule used for all coefficient integrals.  Five points are
# exact through polynomial degree 9, which covers products of quadratic
# coefficients with the degree-6 shape-function terms of the mass matrix.
GAUSS_POINTS, GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(5)
GAUSS_POINTS = 0.5 * (GAUSS_POINTS + 1.0)  # map to [0, 1]
GAUSS_WEIGHTS = 0.5 * GAUSS_WEIGHTS


@dataclass(frozen=True)
class BeamParameters:
    """Tower coefficients and nacelle constants.

    ``rho`` and ``EI`` are strictly positive functions on [0, 1] (constants
    are promoted to functions); ``m`` and ``J`` are the mass and moment of
    inertia attached at the tip.
    """

    rho: Coefficient
    EI: Coefficient
    m: float
    J: float

    def __post_init__(self):
        for name in ("rho", "EI"):
            fn = getattr(self, name)
            if not callable(fn):
                object.__setattr__(self, name, _constant(float(fn)))
        for name in ("m", "J"):
            value = getattr(self, name)
            if not value > 0:
                raise ValidationError(f"{name} must be strictly positive, got {value}")


def _constant(value: float) -> Coefficient:
    return lambda x: value


@dataclass(frozen=True)
class BeamMatrices:
    """Assembled quadratic forms of the beam energy norm.

    ``K`` and ``Mrho`` are symmetric positive definite; ``tip_disp_index``
    and ``tip_rot_index`` point at the w(1) and w_x(1) degrees of freedom.
    """

    K: np.ndarray
    Mrho: np.ndarray
    tip_disp_index: int
    tip_rot_index: int
    n_dof: int
    n_elements: int
    h: float

    def node_coordinates(self) -> np.ndarray:
        """Positions of the nodes carrying degrees of freedom (excludes x=0)."""
        return self.h * np.arange(1, self.n_elements + 1)


def _hermite_values(xi: np.ndarray, h: float) -> np.ndarray:
    """Rows: the four cubic shape functions evaluated at local points xi."""
    return np.array(
        [
            1.0 - 3.0 * xi**2 + 2.0 * xi**3,
            h * (xi - 2.0 * xi**2 + xi**3),
            3.0 * xi**2 - 2.0 * xi**3,
            h * (xi**3 - xi**2),
        ]
    )


def _hermite_curvatures(xi: np.ndarray, h: float) -> np.ndarray:
    """Second x-derivatives of the four shape functions at local points xi."""
    return np.array(
        [
            (12.0 * xi - 6.0) / h**2,
            (6.0 * xi - 4.0) / h,
            (6.0 - 12.0 * xi) / h**2,
            (6.0 * xi - 2.0) / h,
        ]
    )


def _sample_coefficient(fn: Coefficient, x: np.ndarray, name: str) -> np.ndarray:
    values = np.empty(x.size)
    for i, xi in enumerate(x):
        try:
            values[i] = float(fn(xi))
        except (ArithmeticError, ValueError) as exc:
            raise ValidationError(f"{name}({xi:.6g}) cannot be evaluated: {exc}") from exc
    bad = np.nonzero(~(values > 0) | np.isinf(values))[0]
    if bad.size:
        raise ValidationError(
            f"{name} must be finite and strictly positive; "
            f"{name}({x[bad[0]]:.6g}) = {values[bad[0]]:.6g}"
        )
    return values


def build_beam_matrices(params: BeamParameters, n_elements: int) -> BeamMatrices:
    """Assemble stiffness and mass matrices on a uniform mesh.

    Coefficients are sampled at the quadrature points only; no interpolation
    of ``rho`` or ``EI`` is performed.  They are also checked, not used, at
    x = 0 and x = 1.  Raises :class:`ValidationError` on a sample that is
    not finite and positive, naming the location.
    """
    if n_elements < 1:
        raise ValidationError(f"n_elements must be >= 1, got {n_elements}")
    n_dof = 2 * n_elements
    h = 1.0 / n_elements
    K = np.zeros((n_dof + 2, n_dof + 2))
    M = np.zeros((n_dof + 2, n_dof + 2))
    H = _hermite_values(GAUSS_POINTS, h)
    B = _hermite_curvatures(GAUSS_POINTS, h)
    for e in range(n_elements):
        x = (e + GAUSS_POINTS) * h
        ei = _sample_coefficient(params.EI, x, "EI")
        rho = _sample_coefficient(params.rho, x, "rho")
        Ke = np.einsum("g,ig,jg->ij", GAUSS_WEIGHTS * h * ei, B, B)
        Me = np.einsum("g,ig,jg->ij", GAUSS_WEIGHTS * h * rho, H, H)
        sl = slice(2 * e, 2 * e + 4)
        K[sl, sl] += Ke
        M[sl, sl] += Me
    ends = np.array([0.0, 1.0])
    _sample_coefficient(params.EI, ends, "EI")
    _sample_coefficient(params.rho, ends, "rho")
    # Clamp: drop the value and slope dofs of the node at x = 0.
    K = K[2:, 2:]
    M = M[2:, 2:]
    check_spd(K, "K")
    check_spd(M, "Mrho")
    return BeamMatrices(
        K=K,
        Mrho=M,
        tip_disp_index=n_dof - 2,
        tip_rot_index=n_dof - 1,
        n_dof=n_dof,
        n_elements=n_elements,
        h=h,
    )


def hermite_interpolate(
    beam: BeamMatrices, w: Callable[[float], float], w_x: Callable[[float], float]
) -> np.ndarray:
    """Nodal interpolant of a displacement field (value and slope per node)."""
    q = np.zeros(beam.n_dof)
    for i, x in enumerate(beam.node_coordinates()):
        q[2 * i] = w(x)
        q[2 * i + 1] = w_x(x)
    return q


def evaluate_energy(state: np.ndarray, gram: np.ndarray) -> float:
    """Energy ``(1/2) z^T M z`` of a state vector in a given energy Gram."""
    state = np.asarray(state, dtype=float)
    gram = np.asarray(gram, dtype=float)
    if state.ndim != 1 or gram.shape != (state.size, state.size):
        raise DimensionError(
            f"state of dimension {state.shape} does not match gram {gram.shape}"
        )
    check_spd(gram)
    return 0.5 * float(state @ gram @ state)


@dataclass(frozen=True)
class Eq1Certificate:
    """Grid certificate for the damping-multiplier condition.

    Both inequality expressions must stay strictly below ``-delta`` on every
    grid point; ``margin`` is the worst value of ``expression + delta`` over
    the grid (negative means the condition holds with room to spare).
    """

    zeta: np.ndarray
    margin: float
    holds: bool
    expr_density: np.ndarray
    expr_rigidity: np.ndarray


def _grid_derivative(values: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Central differences with one-sided stencils at the ends."""
    return np.gradient(values, grid, edge_order=1)


def check_condition_eq1(
    params: BeamParameters,
    zeta: Coefficient,
    epsilon: float,
    delta: float,
    grid: np.ndarray,
) -> Eq1Certificate:
    """Check the multiplier inequalities for the combined-feedback decay proof.

    Evaluates, pointwise on the grid,

        2 (1 - eps) rho - (rho zeta)'   and
        EI [(1 - eps) - 2 zeta'] + (EI zeta)' / 2,

    with derivatives taken by central differences on the supplied grid.
    ``holds`` is True iff both stay < -delta everywhere and zeta(0) = 0.
    ``rho`` and ``EI`` samples are validated as in assembly: one that
    cannot be evaluated, or is not finite and positive, raises
    :class:`ValidationError` naming its location.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 8:
        raise ValidationError("grid too coarse: need at least 8 sample points")
    if epsilon <= 0 or delta <= 0:
        raise ValidationError("epsilon and delta must be positive")
    zeta_vals = np.array([float(zeta(x)) for x in grid])
    if abs(float(zeta(0.0))) > 1e-12:
        raise ValidationError(f"zeta(0) must vanish, got {float(zeta(0.0)):.3g}")
    rho = _sample_coefficient(params.rho, grid, "rho")
    ei = _sample_coefficient(params.EI, grid, "EI")
    zeta_prime = _grid_derivative(zeta_vals, grid)
    rho_zeta_prime = _grid_derivative(rho * zeta_vals, grid)
    ei_zeta_prime = _grid_derivative(ei * zeta_vals, grid)
    expr_density = 2.0 * (1.0 - epsilon) * rho - rho_zeta_prime
    expr_rigidity = ei * ((1.0 - epsilon) - 2.0 * zeta_prime) + 0.5 * ei_zeta_prime
    margin = float(max(expr_density.max(), expr_rigidity.max()) + delta)
    return Eq1Certificate(
        zeta=zeta_vals,
        margin=margin,
        holds=bool(margin < 0.0),
        expr_density=expr_density,
        expr_rigidity=expr_rigidity,
    )


def resonance_ratio(k: int) -> float:
    """Value of sinh(k pi) / ((k pi)^3 (cosh(k pi) - (-1)^k)).

    Evaluated in the overflow-free form
    ``(1 - e^{-2x}) / (1 + e^{-2x} - 2 (-1)^k e^{-x})`` with ``x = k pi``.
    """
    if k < 1:
        raise ValidationError(f"k must be a positive integer, got {k}")
    x = k * math.pi
    sign = -1.0 if k % 2 else 1.0
    e1 = math.exp(-x)
    e2 = math.exp(-2.0 * x)
    return (1.0 - e2) / ((1.0 + e2 - 2.0 * sign * e1) * x**3)


def check_condition_cond(
    J: float, EI_const: float, rho_const: float, k_max: int, tol: float
) -> list[int]:
    """Detect integers k <= k_max violating the force-control spectral condition.

    Returns every k with ``|J EI / rho - resonance_ratio(k)| < tol``; an
    empty list means the hypothesis holds up to ``k_max``.
    """
    if k_max < 1:
        raise ValidationError(f"k_max must be >= 1, got {k_max}")
    if J <= 0 or EI_const <= 0 or rho_const <= 0 or tol <= 0:
        raise ValidationError("J, EI, rho and tol must be positive")
    target = J * EI_const / rho_const
    return [k for k in range(1, k_max + 1) if abs(target - resonance_ratio(k)) < tol]


def coefficient_from_spec(spec: float | Mapping | Sequence, n_elements: int | None = None) -> Coefficient:
    """Build a coefficient function from a configuration entry.

    Accepted forms: a bare number; ``{"kind": "constant", "value": v}``;
    ``{"kind": "affine", "intercept": a, "slope": b}`` for ``a + b x``;
    ``{"kind": "exp", "scale": a, "rate": b}`` for ``a exp(b x)``;
    ``{"kind": "csv", "path": p}`` with (x, value) rows, linearly
    interpolated, requiring at least ``4 * n_elements`` samples.  A missing
    key, a non-numeric value, an unreadable table or a table value that is
    not finite and positive raises :class:`ValidationError`.
    """
    if isinstance(spec, (int, float)):
        return _constant(float(spec))
    if not isinstance(spec, Mapping):
        raise ValidationError(f"coefficient spec must be a number or mapping, got {spec!r}")
    kind = spec.get("kind")
    if kind == "constant":
        return _constant(_spec_number(spec, "value"))
    if kind == "affine":
        a, b = _spec_number(spec, "intercept"), _spec_number(spec, "slope")
        return lambda x: a + b * x
    if kind == "exp":
        a, b = _spec_number(spec, "scale"), _spec_number(spec, "rate")
        return lambda x: a * math.exp(b * x)
    if kind == "csv":
        if "path" not in spec:
            raise ValidationError("coefficient kind 'csv' needs key 'path'")
        return _tabulated_coefficient(str(spec["path"]), n_elements)
    raise ValidationError(f"unknown coefficient kind {kind!r}")


def _spec_number(spec: Mapping, key: str) -> float:
    if key not in spec:
        raise ValidationError(f"coefficient kind {spec['kind']!r} needs key {key!r}")
    try:
        return float(spec[key])
    except (TypeError, ValueError):
        raise ValidationError(
            f"coefficient {spec['kind']!r}: {key} must be a number, got {spec[key]!r}"
        ) from None


def _tabulated_coefficient(path: str, n_elements: int | None) -> Coefficient:
    xs, vals = [], []
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                if not row or row[0].strip().startswith("#"):
                    continue
                xs.append(float(row[0]))
                vals.append(float(row[1]))
    except (OSError, UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"cannot read coefficient table {path}: {exc}") from exc
    except (IndexError, ValueError) as exc:
        raise ValidationError(
            f"coefficient table {path} line {reader.line_num}: expected x,value, got {row!r}"
        ) from exc
    if n_elements is not None and len(xs) < 4 * n_elements:
        raise ValidationError(
            f"tabulated coefficient {path} has {len(xs)} samples; "
            f"need at least {4 * n_elements}"
        )
    x_arr = np.asarray(xs)
    v_arr = np.asarray(vals)
    order = np.argsort(x_arr)
    x_arr, v_arr = x_arr[order], v_arr[order]
    coefficient = lambda x: float(np.interp(x, x_arr, v_arr))
    _sample_coefficient(coefficient, x_arr, path)  # the table values themselves
    return coefficient
