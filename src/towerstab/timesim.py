"""Energy-dissipative time integration and decay-rate fitting.

The integrator is the implicit midpoint rule in descriptor form,

    (M - dt/2 F) z_{n+1} = (M + dt/2 F) z_n,       F = M A.

Because the scheme conserves the quadratic form of the skew part of ``F``
exactly, the discrete energy balance

    E_{n+1} - E_n = dt * Re <A z_mid, z_mid>_M = -dt * sum_i gain_i (v_i . z_mid)^2

holds up to the backward error of the map that is applied, which makes the
models' dissipation identities machine-checkable.

The map is evaluated by one of two routes, chosen from the generator:

* Below ``STEP_FREE_DIM_LIMIT`` the rule is one fixed Cayley map
  ``C = (I - dt/2 T)^{-1} (I + dt/2 T)`` in energy coordinates ``y = U z``
  (``M = U^T U``, ``T = U^{-T} F U^{-1}``).  From one eigendecomposition
  ``T = X diag(lam) X^{-1}`` every step is ``mu**k`` with
  ``mu = (1 + dt/2 lam) / (1 - dt/2 lam)``, so energies and channels are
  filled in blocks of steps by matrix products, with no Python work per
  step.  ``T`` is real, so its eigenpairs are real or come in conjugate
  pairs, and the real columns with the real and imaginary parts of one
  column of each pair span the states (the real block-diagonal
  eigenbasis; Golub & Van Loan, *Matrix Computations*, §7.4): the products
  are real and take one column per pair.  The computed ``(lam, X)`` carries its own
  backward error: it is the exact decomposition of ``T + dT``,
  ``dT = -(T X - X diag(lam)) X^{-1}``, and perturbs the per-step balance
  by ``y_mid^T sym(dT) y_mid``.  The route is taken only when the pairs
  are exact conjugates and ``4 ||sym(dT)||_2 <= IDENTITY_RTOL / 2``, twice
  the first-order bound ``2 ||sym(dT)||_2 E(0)`` on that perturbation.
* Otherwise the assembled ``M`` and ``F`` are taken in the band order of
  the generator (bandwidth 5 and 7 on the assembled models), ``M - dt/2 F``
  is factorized once by a banded LU with partial pivoting, and each step
  is one banded solve and two banded mat-vecs, O(dim) work at any mesh.

A run's peak memory is its step arrays (``STEP_BUDGET``) plus a block:
:func:`verify_dissipation_identity`, :meth:`EnergyTrajectory.is_monotone`
and :func:`fit_decay_rate` read the trajectory ``TRAJECTORY_BLOCK`` steps at
a time.  On 10**6 steps with one channel (32 MB of step arrays) each traces
under 2 MB; read whole, they traced 32, 9 and 89 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas

from .errors import NumericalError, ValidationError
from .generator import (
    DiscreteGenerator,
    GramSystem,
    _BandFactors,
    _band_times,
    _bandwidths,
    _beam_size,
    _frozen,
    energy_coordinates,
)

INITIAL_DATA_PROFILES = ("smooth_modal", "tip_kick", "static_bend")

#: The step-free route is tried only below this dimension.  Its guard needs
#: a dense ``eig`` of ``T``, O(dim**3) (about 1.2 s at dim 1024), and it
#: already refuses most models at ``n_elements`` 32 (dim about 130).
STEP_FREE_DIM_LIMIT = 256

#: Largest identity residual, relative to ``E(0)``, that the energy balance
#: of a simulation may show; the step-free route must stay within half of it.
IDENTITY_RTOL = 1e-9

#: Most steps one simulation may take.  The step arrays (times, energies,
#: and each channel at the steps and the midpoints) hold ``8 (2 + 2 r)``
#: bytes a step, so with the four channels of hydraulic_feedback the budget
#: is 800 MB, and the banded loop at 15-80 us a step runs 2.5-13 minutes.
#: They are a run's peak memory beyond the assembly: the checks and the
#: writer that read them add a few blocks of ``TRAJECTORY_BLOCK`` steps (a
#: few hundred kB), not bytes a step; desk tmd's 220,435 steps keep 7.1 MB.
STEP_BUDGET = 10_000_000

#: Steps per block of every pass over a trajectory (the identity residual,
#: the monotonicity test and the decay fit): each pass's temporaries are a
#: few columns of this many floats, 128 kB each, however long the run.
TRAJECTORY_BLOCK = 1 << 14

#: Mode shapes per block of the Rayleigh quotients in :func:`beam_modes`:
#: its temporaries are a few ``n x MODE_BLOCK`` arrays, about 2 MB at 256
#: elements.
MODE_BLOCK = 64

#: Steps per block of the step-free route: its transient arrays are a few
#: ``STEP_BLOCK x dim`` real tables (the powers ``mu**k`` of one eigenvalue
#: per conjugate pair, viewed as real and imaginary parts, and their
#: products), a few hundred kB below ``STEP_FREE_DIM_LIMIT``.  At the desk
#: size (dim 64-68) a block's energy product stays below the size from which
#: numpy's OpenBLAS 0.3.31 splits a product over threads (at 66 columns, 224
#: rows stay on one thread and 255 are split); split, its spare worker spins
#: against the block's other array work, and on a 2-vCPU x86 VM the desk
#: tmd simulation took 0.20 s with 256 steps a block against 0.14 s with 192.
STEP_BLOCK = 192


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
    dt: float
    final_state: np.ndarray

    def is_monotone(self) -> bool:
        """No energy increment exceeds ``1e-10`` relative to ``E(0)``; read
        ``TRAJECTORY_BLOCK`` increments at a time."""
        e = self.energies
        bound = 1e-10 * (e[0] if e[0] > 0 else 1.0)
        return all(
            np.all(np.diff(e[lo:lo + TRAJECTORY_BLOCK + 1]) <= bound)
            for lo in range(0, e.size - 1, TRAJECTORY_BLOCK)
        )


def simulate(
    gen: DiscreteGenerator, z0: np.ndarray, T: float, dt: float
) -> EnergyTrajectory:
    """Integrate ``dz/dt = A z`` with the implicit midpoint rule.

    Takes the step-free route of the module docstring where it is tried and
    its guard accepts, and the banded LU loop otherwise.  Both routes
    accumulate the energy from per-step increments that carry no
    subtractive cancellation, so for a Gram-dissipative generator every
    step is energy non-increasing up to the backward error of its map.

    Raises :class:`NumericalError` naming ``T``, ``dt`` and the step count
    when the steps exceed ``STEP_BUDGET`` (before any allocation or
    factorization) or the step arrays cannot be allocated, and naming the
    first step whose energy is not finite; a non-finite state makes its
    energy so.
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
    horizon = f"the step arrays of T = {T} at dt = {dt} ({n_steps:.3g} steps)"
    if n_steps > STEP_BUDGET:
        raise NumericalError(f"cannot allocate {horizon}: the step budget is {STEP_BUDGET:.0e} steps")
    names = [ch.name for ch in gen.damping_channels]
    try:
        channels = np.empty((n_steps + 1, len(names)))
        midpoints = np.empty((n_steps, len(names)))
        energies = np.empty(n_steps + 1)
        times = np.arange(n_steps + 1, dtype=float)
    except MemoryError as exc:
        raise NumericalError(f"cannot allocate {horizon}: {exc}") from exc
    V = np.array([ch.vector for ch in gen.damping_channels], dtype=float).reshape(-1, gen.dim)
    basis = _energy_eigenbasis(gen) if gen.dim < STEP_FREE_DIM_LIMIT else None
    if basis is not None:
        z = _step_free(gen, basis, z0, 0.5 * dt, V, energies, channels, midpoints)
    else:
        order, operators = _band_operators(gen, 0.5 * dt)
        z = np.empty(gen.dim)
        z[order] = _step_loop(operators, z0[order], dt, V[:, order], energies, channels, midpoints)
    times *= dt  # the integers are exact, so this is dt * k bit for bit
    return EnergyTrajectory(
        times=times,
        energies=energies,
        channels={name: channels[:, j] for j, name in enumerate(names)},
        midpoint_channels={name: midpoints[:, j] for j, name in enumerate(names)},
        dt=dt,
        final_state=z,
    )


def _step_loop(operators, z0, dt, V, energies, channels, midpoints) -> np.ndarray:
    """Fill the step arrays one solve with ``M - dt/2 F`` at a time; return the
    final state.  All states and ``V``'s columns are in the band order of
    the ``operators`` of :func:`_band_operators`."""
    times_gram, times_flux, solve = operators
    z = z0
    e = 0.5 * float(z @ times_gram(z))
    energies[0] = e
    channels[0] = V @ z
    # The finiteness test on e decides a diverging run, so numpy's overflow
    # and invalid-value warnings on the way there add nothing to it.
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(midpoints.shape[0]):
            # The increment d = z_{k+1} - z_k solves (M - dt/2 F) d = dt F z_k,
            # so it is computed without subtractive cancellation; the energy
            # update (E_{k+1} = E_k + d . M z_mid) is then exact to the solver
            # residual instead of to eps |M| |z|^2 / dt.
            d = solve(times_flux(z, dt))
            z_mid = z + 0.5 * d
            z = z + d
            e = e + float(d @ times_gram(z_mid))
            # A non-finite entry of d reaches d . M z_mid through the positive
            # diagonal of M, so this one scalar test covers the whole state.
            if not math.isfinite(e):
                raise NumericalError(f"midpoint solve produced non-finite state or energy at step {k}")
            energies[k + 1] = e
            midpoints[k] = V @ z_mid
            channels[k + 1] = V @ z
    return z


def _energy_eigenbasis(gen: DiscreteGenerator):
    """Eigenpairs ``(lam, X)`` of ``T`` and the LU of ``X``, or ``None`` when
    the guard of the module docstring refuses them,
    ``4 ||sym(dT)||_2 > IDENTITY_RTOL / 2`` with ``dT = -(T X - X diag(lam)) X^{-1}``,
    or when the spectrum does not split exactly into real eigenvalues and
    pairs ``(lam_j, x_j)``, ``(conj lam_j, conj x_j)`` in adjacent columns
    (LAPACK's ``geev`` layout, which gives a real eigenvalue a real vector).
    """
    T = energy_coordinates(gen).T
    try:
        lam, X = sla.eig(T)
        lu = sla.lu_factor(X)
    except sla.LinAlgError:
        return None
    upper = np.flatnonzero(lam.imag > 0)
    n_real = np.count_nonzero(lam.imag == 0)
    partner = np.minimum(upper + 1, lam.size - 1)   # a last column has none
    if (
        2 * upper.size + n_real != lam.size
        or not np.array_equal(lam[partner], lam[upper].conj())
        or not np.array_equal(X[:, partner], X[:, upper].conj())
    ):
        return None
    # dT^T = -X^{-T} (T X - X diag(lam))^T: one transposed solve with the LU.
    dT = -sla.lu_solve(lu, (T @ X - X * lam).T, trans=1, check_finite=False).T
    rho = np.linalg.norm(0.5 * (dT + dT.conj().T), 2)
    if not 4.0 * rho <= 0.5 * IDENTITY_RTOL:
        return None
    return lam, X, lu


def _step_free(gen, basis, z0, half_dt, V, energies, channels, midpoints) -> np.ndarray:
    """Fill the step arrays from powers of the Cayley map's eigenvalues.

    With ``a_k = mu**k * c`` and ``c = X^{-1} y_0``, step ``k`` has
    ``y_k = X a_k`` and ``y_mid = X g_k``, ``g_k = a_k / (1 - dt/2 lam)``
    (``(1 + mu) / 2 = 1 / (1 - dt/2 lam)``).  ``y`` is real, so a conjugate
    pair adds ``2 Re(x_j g_j)``: only the real eigenvalues and one of each
    pair are kept, and a kept ``g_j`` acts through its real coordinates
    ``(Re g_j, Im g_j)`` on the real columns ``(2 Re x_j, -2 Im x_j)``
    (weight 1 for a real eigenvalue, whose ``x_j`` is real).  Any product
    ``X diag(d)`` the route needs becomes such a real matrix, so every
    block of steps is real matrix products; only ``mu**k`` stays complex.
    Like the loop, the energy is accumulated from increments free of
    cancellation, ``E_{k+1} - E_k = dt y_mid^T T_X y_mid`` with ``T_X y_mid
    = X diag(lam) g_k``, and channels ``v . z = (U^{-T} v) . y`` are read
    from ``g_k`` alone.  Returns the final state ``z = U^{-1} y_N``.
    """
    lam, X, lu = basis
    n_steps = midpoints.shape[0]
    r = V.shape[0]
    U = gen._factor()
    kept = np.flatnonzero(lam.imag >= 0)
    # complex (eig returns a real X for a real spectrum), rows viewable as real
    lam, X = lam[kept], np.ascontiguousarray(X[:, kept], dtype=complex)
    weight = np.where(lam.imag > 0, 2.0, 1.0)
    shrink = 1.0 - half_dt * lam                      # a_k = shrink * g_k
    mu = (1.0 + half_dt * lam) / shrink
    y0 = U @ z0
    # check_finite=False lets a non-finite y0 reach the energy test below,
    # which names step 0 as the loop does.
    g = sla.lu_solve(lu, y0.astype(complex), check_finite=False)[kept] / shrink

    def real(Y):
        """Columns ``(w Re y_j, -w Im y_j)`` of ``Y``, against ``(Re g_j, Im g_j)``."""
        return (weight * Y.conj()).view(float)

    Xr, Xs = real(X), real(X * shrink)
    W = sla.solve_triangular(U, V.T, trans="T")
    probes = np.hstack([Xs.T @ W, Xr.T @ W])          # channels at y_k, then at y_mid
    energy_form = 2.0 * half_dt * (Xr.T @ real(X * lam))
    # E(0) and the channels at step 0 (set after the blocks) are read off z0
    # as the loop reads them.
    energies[0] = 0.5 * float(z0 @ (gen.gram @ z0))
    with np.errstate(over="ignore", invalid="ignore"):
        powers = mu ** np.arange(STEP_BLOCK)[:, None]
        for k0 in range(0, n_steps + 1, STEP_BLOCK):
            G = powers[: n_steps + 1 - k0] * g
            Gr = G.view(float)                         # rows (Re g_j, Im g_j, ...)
            mids = min(G.shape[0], n_steps - k0)
            signals = Gr @ probes
            channels[k0:k0 + G.shape[0]] = signals[:, :r]
            midpoints[k0:k0 + mids] = signals[:mids, r:]
            block = energies[k0:k0 + mids + 1]
            block[1:] = np.einsum("ij,ij->i", Gr[:mids] @ energy_form, Gr[:mids])
            np.cumsum(block, out=block)
            bad = np.flatnonzero(~np.isfinite(block[1:]))
            if bad.size:
                raise NumericalError(
                    f"step-free midpoint map produced non-finite energy at step {k0 + bad[0]}"
                )
            g = G[-1] * mu
    channels[0] = V @ z0
    return sla.solve_triangular(U, Xs @ Gr[-1])


def _band_operators(gen: DiscreteGenerator, half_dt: float):
    """The band order of ``gen`` and, in it, ``x -> gram x``, ``(x, alpha) ->
    alpha flux x`` and a solve with ``gram - half_dt * flux``, all on the
    common band of :class:`~towerstab.generator._BandFactors` (7 wide on the
    assembled models, full on a generator without the beam layout), the
    solve by one banded LU of it."""
    b = _BandFactors(gen)
    solve = b.lu(b.gram - half_dt * b.flux)
    if solve is None:
        raise NumericalError("midpoint factorization failed: dgbtrf met a zero pivot")
    return b.order, (
        lambda x: _band_times(blas.dgbmv, b.gram, b.kl, b.ku, x),
        lambda x, alpha: _band_times(blas.dgbmv, b.flux, b.kl, b.ku, x, alpha),
        solve,
    )


def beam_modes(gen: GramSystem) -> tuple[np.ndarray, np.ndarray]:
    """Undamped beam modes of an assembled generator or a block with the beam layout.

    Solves the pencil ``K phi = omega^2 M phi`` of the Gram's ``(q, v)``
    blocks once per generator and caches it, read-only; returns angular
    frequencies (ascending) and mass-normalized mode shapes with a fixed
    sign convention (positive tip displacement).

    The frequencies are the Rayleigh quotients ``omega_k^2 = phi_k^T K
    phi_k`` of the computed shapes, which the solver returns M-normalized
    to about ``eps``, not the solver's eigenvalues.  Those carry an
    absolute error of about ``eps omega_max^2`` (1.3e-6 relative on the
    fundamental at 256 elements), while the shapes are accurate to second
    order in the quotient; its ``K phi`` is formed by :func:`_band_product`,
    because a plain product cancels to about ``eps omega_max^2 /
    omega_k^2`` relative.
    """
    if gen._modes is None:
        n = _beam_size(gen)
        K, M = gen.gram[:n, :n], gen.gram[n:2 * n, n:2 * n]
        _, phi = sla.eigh(K, M)
        for j in range(phi.shape[1]):
            anchor = phi[-2, j] if abs(phi[-2, j]) > 1e-12 else phi[np.argmax(np.abs(phi[:, j])), j]
            if anchor < 0:
                phi[:, j] = -phi[:, j]
        omega2 = np.empty(n)
        band = _bands(K)
        for c in range(0, n, MODE_BLOCK):
            shapes = phi[:, c:c + MODE_BLOCK]
            omega2[c:c + MODE_BLOCK] = np.einsum("ij,ij->j", shapes, _band_product(band, shapes))
        omega = np.sqrt(np.maximum(omega2, 0.0, out=omega2), out=omega2)
        gen._modes = (_frozen(omega), _frozen(phi))
    return gen._modes


def _bands(K: np.ndarray) -> tuple[int, list[tuple[int, np.ndarray, np.ndarray]]]:
    """The nonzero diagonals of ``K``, scaled by ``2**-exponent`` so that no
    entry exceeds 1 (exact), each as ``(offset, high, low)`` halves of
    :func:`_split`; and that exponent."""
    width = max(_bandwidths(K, np.arange(K.shape[0])))
    exponent = int(np.frexp(np.abs(K).max())[1])
    diagonals = [np.ldexp(np.diagonal(K, k), -exponent)[:, None] for k in range(-width, width + 1)]
    return exponent, [(k, *_split(d)) for k, d in zip(range(-width, width + 1), diagonals)]


def _band_product(band, X: np.ndarray) -> np.ndarray:
    """``K @ X`` from the diagonals :func:`_bands` returns, with compensated sums.

    Each product is split error-free (Dekker's two-product) and the sums
    are accumulated with Knuth's two-sum, so the result is accurate to
    about ``eps |K X| + eps^2 |K| |X|`` instead of ``eps |K| |X|`` (Ogita,
    Rump & Oishi, *SIAM J. Sci. Comput.* 26, 2005), in one elementwise pass
    over ``X`` per diagonal.
    """
    exponent, diagonals = band
    n = X.shape[0]
    X_hi, X_lo = _split(X)
    total = np.zeros_like(X)
    error = np.zeros_like(X)
    for offset, d_hi, d_lo in diagonals:
        out = slice(max(0, -offset), n - max(0, offset))
        rows = slice(max(0, offset), n - max(0, -offset))
        x_hi, x_lo = X_hi[rows], X_lo[rows]
        d = d_hi + d_lo
        p = d * (x_hi + x_lo)
        p_err = d_lo * x_lo - (((p - d_hi * x_hi) - d_lo * x_hi) - d_hi * x_lo)
        s = total[out] + p
        t = s - total[out]
        error[out] += p_err + ((total[out] - (s - t)) + (p - t))
        total[out] = s
    return np.ldexp(total + error, exponent)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split ``a = high + low`` into halves of 26 significant bits,
    whose pairwise products are exact; ``|a| <= 1`` keeps it from overflowing."""
    c = (2.0**27 + 1.0) * a
    high = c - (c - a)
    return high, a - high


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
    n = _beam_size(gen)
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
        z[:n] = phi[:, :k_modes] @ weights
        return z
    if profile == "tip_kick":
        z[gen.index("tip_velocity")] = 1.0
        return z
    if profile == "static_bend":
        n_nodes = n // 2
        h = 1.0 / n_nodes
        for i in range(1, n_nodes + 1):
            x = i * h
            z[2 * (i - 1)] = x**2
            z[2 * (i - 1) + 1] = 2.0 * x
        return z
    raise ValidationError(
        f"unknown profile {profile!r}; expected one of {INITIAL_DATA_PROFILES}"
    )


def verify_dissipation_identity(gen: DiscreteGenerator, traj: EnergyTrajectory) -> float:
    """Maximum residual of the model's closed-form energy balance.

    Compares ``(E_{n+1} - E_n)/dt`` with ``-sum_i gain_i (v_i . z_mid)^2``
    per step and returns the largest absolute residual (0 without steps),
    ``TRAJECTORY_BLOCK`` steps at a time.
    """
    names = {ch.name for ch in gen.damping_channels}
    if names - set(traj.midpoint_channels):
        missing = sorted(names - set(traj.midpoint_channels))
        raise ValidationError(f"trajectory lacks recorded channels: {missing}")
    worst = 0.0
    for lo in range(0, traj.energies.size - 1, TRAJECTORY_BLOCK):
        steps = slice(lo, lo + TRAJECTORY_BLOCK)
        de = np.diff(traj.energies[lo:lo + TRAJECTORY_BLOCK + 1]) / traj.dt
        dissipation = np.zeros_like(de)
        for ch in gen.damping_channels:
            dissipation -= ch.gain * traj.midpoint_channels[ch.name][steps] ** 2
        worst = np.maximum(worst, np.abs(de - dissipation).max())  # keeps a NaN
    return float(worst)


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
    """Least-squares slope of ``log E`` against ``log t`` on a window.

    The window is the samples with ``t_lo <= t <= t_hi``, found by bisection
    on the premise that the times increase (as :func:`simulate` makes them);
    it is read as views, ``TRAJECTORY_BLOCK`` samples at a time, so the fit
    adds no memory that grows with the window.  Raises
    :class:`ValidationError` for an empty or inverted window, one that ends
    past the horizon or holds fewer than three samples, and naming the first
    time in it whose energy is not strictly positive or not finite.
    """
    if t_lo <= 0 or t_hi <= t_lo:
        raise ValidationError(f"invalid fit window [{t_lo}, {t_hi}]")
    if t_hi > traj.times[-1] * (1 + 1e-12):
        raise ValidationError(
            f"window end {t_hi} outside trajectory horizon {traj.times[-1]}"
        )
    window = slice(
        np.searchsorted(traj.times, t_lo, "left"), np.searchsorted(traj.times, t_hi, "right")
    )
    t, e = traj.times[window], traj.energies[window]
    if t.size < 3:
        raise ValidationError("fit window contains fewer than three samples")
    for lo in range(0, e.size, TRAJECTORY_BLOCK):
        block = e[lo:lo + TRAJECTORY_BLOCK]
        bad = np.flatnonzero(~((block > 0) & (block < np.inf)))  # NaN fails both
        if bad.size:
            i = lo + bad[0]
            what = "strictly positive" if math.isfinite(e[i]) else "finite"
            raise ValidationError(f"energy is not {what} at t = {t[i]:.17g} in the fit window")
    slope, curvature = _loglog_fit(t, e)
    return DecayFit(
        slope=slope,
        window=(float(t_lo), float(t_hi)),
        curvature=curvature,
        power_law=bool(abs(curvature) <= CURVATURE_LIMIT),
    )


def _loglog_fit(t: np.ndarray, e: np.ndarray) -> tuple[float, float]:
    """Slope of the linear and leading coefficient of the quadratic
    least-squares fit of ``log e`` against ``log t``.

    Both come from one QR of ``[1, x, x**2, log e]``, ``x`` the centred
    ``log t`` scaled into ``[-1, 1]`` (a well-conditioned Vandermonde):
    the fit on the first ``j`` columns solves ``R[:j, :j] c = R[:j, 3]``.
    One pass over ``TRAJECTORY_BLOCK`` samples at a time finds the mean and
    range of ``log t``; a second accumulates ``R`` by TSQR, ``R <- qr([R;
    design block])``, the same QR in memory of one block (Demmel, Grigori,
    Hoemmen & Langou, *SIAM J. Sci. Comput.* 34, 2012).
    """
    blocks = range(0, t.size, TRAJECTORY_BLOCK)
    total, low, high = 0.0, math.inf, -math.inf
    for lo in blocks:
        x = np.log(t[lo:lo + TRAJECTORY_BLOCK])
        total, low, high = total + x.sum(), min(low, x.min()), max(high, x.max())
    mean = total / t.size
    scale = max(high - mean, mean - low)
    # R (at most 4 rows) on top of a block's design, whose columns are
    # contiguous views in Fortran order
    stack = np.empty((min(t.size, TRAJECTORY_BLOCK) + 4, 4), order="F")
    R = stack[:0]
    for lo in blocks:
        m, top = min(TRAJECTORY_BLOCK, t.size - lo), R.shape[0]
        stack[:top] = R
        one, x, x2, log_e = stack[top:top + m].T
        one.fill(1.0)
        np.log(t[lo:lo + m], out=x)
        x -= mean
        x /= scale
        np.multiply(x, x, out=x2)
        np.log(e[lo:lo + m], out=log_e)
        R = np.linalg.qr(stack[:top + m], mode="r")
    slope = sla.solve_triangular(R[:2, :2], R[:2, 3])[1] / scale
    curvature = sla.solve_triangular(R[:3, :3], R[:3, 3])[2] / scale**2
    return float(slope), float(curvature)
