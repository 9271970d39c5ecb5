"""Energy-dissipative time integration and decay-rate fitting.

The integrator is the implicit midpoint rule in descriptor form,

    (M - dt/2 F) z_{n+1} = (M + dt/2 F) z_n,       F = M A,

factorized once per run.  Because the scheme conserves the quadratic form
of the skew part of ``F`` exactly, the discrete energy balance

    E_{n+1} - E_n = dt * Re <A z_mid, z_mid>_M = -dt * sum_i gain_i (v_i . z_mid)^2

holds to linear-solver roundoff, which makes the models' dissipation
identities machine-checkable.

There are two factorizations of ``M - dt/2 F``, chosen by dimension.  The
assembled ``M`` and ``F`` have about five nonzeros per row, so from
``SPARSE_MIN_DIM`` up a sparse LU (SuperLU) with CSR mat-vecs makes a step
cost grow with ``dim`` instead of ``dim**2``.  Below it the fixed per-call
cost of the sparse solve outweighs that, and a dense LU is faster; that
path is bit-for-bit the plain ``lu_factor``/``lu_solve`` loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import get_lapack_funcs

from .errors import NumericalError, ValidationError
from .generator import DiscreteGenerator
from .models import _state_blocks

INITIAL_DATA_PROFILES = ("smooth_modal", "tip_kick", "static_bend")

#: Generators of at least this dimension are integrated with a sparse LU
#: and CSR mat-vecs.  Below it the dense LU's direct LAPACK solve is faster
#: than SuperLU's per-call overhead; the two break even near dim 256.
SPARSE_MIN_DIM = 256


@dataclass(frozen=True)
class EnergyTrajectory:
    """Time grid, energies and boundary-signal channels of one simulation.

    ``channels`` holds the damping-channel signals sampled at the step
    times; ``midpoint_channels`` holds the same signals at the midpoint
    states, which is where the energy balance is exact.
    """

    times: np.ndarray
    energies: np.ndarray
    channels: dict[str, np.ndarray]
    midpoint_channels: dict[str, np.ndarray]
    channel_gains: dict[str, float]
    dt: float
    final_state: np.ndarray

    def is_monotone(self) -> bool:
        """No energy increment exceeds ``1e-10`` relative to ``E(0)``."""
        e = self.energies
        scale = e[0] if e[0] > 0 else 1.0
        return bool(np.all(np.diff(e) <= 1e-10 * scale))


def simulate(
    gen: DiscreteGenerator, z0: np.ndarray, T: float, dt: float
) -> EnergyTrajectory:
    """Integrate ``dz/dt = A z`` with the implicit midpoint rule.

    ``M - dt/2 F`` is factorized once and reused for every step.  Below
    ``SPARSE_MIN_DIM`` the factorization is a dense LU whose LAPACK solve
    is called directly; from ``SPARSE_MIN_DIM`` up it is a sparse LU
    (SuperLU) and both mat-vecs run in CSR, so the cost per step grows with
    the nonzeros of the assembled matrices instead of with ``dim**2``.  For
    a Gram-dissipative generator every step is energy non-increasing up to
    solver roundoff.

    Raises :class:`NumericalError` naming the first step whose energy is not
    finite; a non-finite state always makes its energy non-finite.
    """
    z0 = np.asarray(z0, dtype=float)
    if z0.shape != (gen.dim,):
        raise ValidationError(
            f"initial state has dimension {z0.shape}, generator needs {gen.dim}"
        )
    if not dt > 0:
        raise ValidationError(f"dt must be positive, got {dt}")
    if not T > 0:
        raise ValidationError(f"T must be positive, got {T}")
    n_steps = max(1, int(np.ceil(T / dt - 1e-9)))  # horizon always covers T
    operators = _sparse_operators if gen.dim >= SPARSE_MIN_DIM else _dense_operators
    M, F, solve = operators(gen, 0.5 * dt)
    names = [ch.name for ch in gen.damping_channels]
    V = np.array([ch.vector for ch in gen.damping_channels], dtype=float).reshape(-1, gen.dim)
    channels = np.empty((n_steps + 1, len(names)))
    midpoints = np.empty((n_steps, len(names)))
    energies = np.empty(n_steps + 1)
    z = z0.copy()
    e = 0.5 * float(z @ (M @ z))
    energies[0] = e
    channels[0] = V @ z
    for k in range(n_steps):
        # The increment d = z_{k+1} - z_k solves (M - dt/2 F) d = dt F z_k,
        # so it is computed without subtractive cancellation; the energy
        # update (E_{k+1} = E_k + d . M z_mid) is then exact to the solver
        # residual instead of to eps |M| |z|^2 / dt.
        d = dt * solve(F @ z)
        z_mid = z + 0.5 * d
        z = z + d
        e = e + float(d @ (M @ z_mid))
        # A non-finite entry of d reaches d . M z_mid through the positive
        # diagonal of M, so this one scalar test covers the whole state.
        if not math.isfinite(e):
            raise NumericalError(f"midpoint solve produced non-finite state or energy at step {k}")
        energies[k + 1] = e
        midpoints[k] = V @ z_mid
        channels[k + 1] = V @ z
    return EnergyTrajectory(
        times=dt * np.arange(n_steps + 1),
        energies=energies,
        channels={name: channels[:, j] for j, name in enumerate(names)},
        midpoint_channels={name: midpoints[:, j] for j, name in enumerate(names)},
        channel_gains={ch.name: ch.gain for ch in gen.damping_channels},
        dt=dt,
        final_state=z,
    )


def _dense_operators(gen: DiscreteGenerator, half_dt: float):
    """``gram``, ``flux`` and a solve with the dense LU of ``gram - half_dt * flux``.

    The solve calls LAPACK ``getrs`` directly: ``sla.lu_solve`` would repeat
    its finiteness check and function lookup on every call, and its
    arithmetic, hence every bit of the result, is the same.
    """
    M, F = gen.gram, gen.flux
    try:
        lu, piv = sla.lu_factor(M - half_dt * F)
    except (sla.LinAlgError, ValueError) as exc:
        raise NumericalError(f"midpoint factorization failed: {exc}") from exc
    (getrs,) = get_lapack_funcs(("getrs",), (lu,))
    return M, F, lambda b: getrs(lu, piv, b)[0]


def _sparse_operators(gen: DiscreteGenerator, half_dt: float):
    """CSR ``gram`` and ``flux`` and a SuperLU solve with ``gram - half_dt * flux``."""
    # Imported here because only fine meshes need it: scipy.sparse.linalg
    # adds about 4 MB and 50 ms to every process that imports it.
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    M, F = sp.csr_array(gen.gram), sp.csr_array(gen.flux)
    try:
        return M, F, splu((M - half_dt * F).tocsc()).solve
    except (RuntimeError, ValueError) as exc:
        raise NumericalError(f"midpoint factorization failed: {exc}") from exc


def beam_modes(gen: DiscreteGenerator) -> tuple[np.ndarray, np.ndarray]:
    """Undamped beam modes of an assembled generator.

    Solves the pencil ``K phi = omega^2 M phi`` recovered from the Gram
    blocks; returns angular frequencies (ascending) and mass-normalized mode
    shapes with a fixed sign convention (positive tip displacement).
    """
    q_idx, v_idx = _state_blocks(gen)
    if q_idx.size == 0:
        raise ValidationError("generator does not carry beam blocks")
    K = gen.gram[np.ix_(q_idx, q_idx)]
    M = gen.gram[np.ix_(v_idx, v_idx)]
    lam, phi = sla.eigh(K, M)
    for j in range(phi.shape[1]):
        anchor = phi[-2, j] if abs(phi[-2, j]) > 1e-12 else phi[np.argmax(np.abs(phi[:, j])), j]
        if anchor < 0:
            phi[:, j] = -phi[:, j]
    return np.sqrt(np.maximum(lam, 0.0)), phi


def default_timestep(gen: DiscreteGenerator, k_modes: int = 12) -> float:
    """Step size ``1 / (4 omega_k)`` resolving the lowest ``k_modes`` beam
    modes; unresolved faster modes are merely rotated (the midpoint rule is
    unconditionally stable and energy-consistent)."""
    omega, _ = beam_modes(gen)
    k = min(k_modes, omega.size)
    if k < 1:
        raise ValidationError(f"mode index {k} outside 1..{omega.size}")
    return 1.0 / (4.0 * float(omega[k - 1]))


def classical_initial_data(
    gen: DiscreteGenerator, profile: str, k_modes: int = 12
) -> np.ndarray:
    """Smooth initial states standing in for classical (domain) data.

    ``smooth_modal`` superposes the lowest ``k_modes`` undamped beam modes
    with 1/k^2 weights in the displacement block; ``tip_kick`` sets only the
    tip velocity; ``static_bend`` interpolates the pure-bending profile
    w(x) = x^2 with zero velocity.  Auxiliary (damper, drivetrain) states
    start at zero.
    """
    q_idx, _ = _state_blocks(gen)
    z = np.zeros(gen.dim)
    if profile == "smooth_modal":
        omega, phi = beam_modes(gen)
        if k_modes < 1 or k_modes > omega.size:
            raise ValidationError(
                f"k_modes = {k_modes} exceeds the {omega.size} available modes"
            )
        # Unit-energy modal states weighted 1/k^2, so mode k carries energy
        # k^-4: the spectral-smoothness surrogate for domain membership.
        weights = np.sqrt(2.0) / (
            np.arange(1, k_modes + 1, dtype=float) ** 2 * omega[:k_modes]
        )
        z[q_idx] = phi[:, :k_modes] @ weights
        return z
    if profile == "tip_kick":
        z[gen.index("tip_velocity")] = 1.0
        return z
    if profile == "static_bend":
        n_nodes = q_idx.size // 2
        h = 1.0 / n_nodes
        for i in range(1, n_nodes + 1):
            x = i * h
            z[q_idx[2 * (i - 1)]] = x**2
            z[q_idx[2 * (i - 1) + 1]] = 2.0 * x
        return z
    raise ValidationError(
        f"unknown profile {profile!r}; expected one of {INITIAL_DATA_PROFILES}"
    )


def verify_dissipation_identity(gen: DiscreteGenerator, traj: EnergyTrajectory) -> float:
    """Maximum residual of the model's closed-form energy balance.

    Compares ``(E_{n+1} - E_n)/dt`` with ``-sum_i gain_i (v_i . z_mid)^2``
    per step and returns the largest absolute residual.
    """
    names = {ch.name for ch in gen.damping_channels}
    if names - set(traj.midpoint_channels):
        missing = sorted(names - set(traj.midpoint_channels))
        raise ValidationError(f"trajectory lacks recorded channels: {missing}")
    de = np.diff(traj.energies) / traj.dt
    dissipation = np.zeros_like(de)
    for ch in gen.damping_channels:
        dissipation -= ch.gain * traj.midpoint_channels[ch.name] ** 2
    return float(np.abs(de - dissipation).max())


@dataclass(frozen=True)
class DecayFit:
    """Power-law fit of an energy trajectory on a time window.

    ``curvature`` is the quadratic coefficient of the log-log fit; a large
    value flags that the trajectory is not power-law on the window.
    """

    slope: float
    window: tuple[float, float]
    curvature: float
    power_law: bool


CURVATURE_LIMIT = 0.1


def fit_decay_rate(traj: EnergyTrajectory, t_lo: float, t_hi: float) -> DecayFit:
    """Least-squares slope of ``log E`` against ``log t`` on a window."""
    if t_lo <= 0 or t_hi <= t_lo:
        raise ValidationError(f"invalid fit window [{t_lo}, {t_hi}]")
    if t_hi > traj.times[-1] * (1 + 1e-12):
        raise ValidationError(
            f"window end {t_hi} outside trajectory horizon {traj.times[-1]}"
        )
    mask = (traj.times >= t_lo) & (traj.times <= t_hi)
    t = traj.times[mask]
    e = traj.energies[mask]
    if t.size < 3:
        raise ValidationError("fit window contains fewer than three samples")
    if np.any(e <= 0):
        raise ValidationError("energies must be strictly positive on the fit window")
    slope, curvature = _loglog_fit(t, e)
    return DecayFit(
        slope=slope,
        window=(float(t_lo), float(t_hi)),
        curvature=curvature,
        power_law=bool(abs(curvature) <= CURVATURE_LIMIT),
    )


def _loglog_fit(t: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    x, y = np.log(t), np.log(e)
    slope = float(np.polyfit(x, y, 1)[0])
    curvature = float(np.polyfit(x, y, 2)[0]) if x.size >= 3 else 0.0
    return slope, curvature
