"""Finite-dimensional impedance-passive system algebra.

An impedance-passive block is declared in descriptor form by an energy
Gram ``M``, the assembled ``flux = M A`` and ``gram_B = M B``, an output map
``(C, D)`` and dissipation channels ``(name, gain, v)`` acting on ``(x, u)``:

    Re <C x + D u, u> - Re <flux x + gram_B u, x>  =  sum gain |v.(x, u)|^2.

This module certifies the passivity inequality, evaluates transfer
functions and their Hermitian-part lower bounds, applies the positive-real
feedback transform, couples two passive blocks into a dissipative generator
(lifting their channels onto it), and checks the coupled resolvent-growth
bound numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as sla

from .errors import DimensionError, NumericalError, SpectrumHit, ValidationError
from .generator import (
    DISSIPATIVITY_TOL,
    DampingChannel,
    DiscreteGenerator,
    GramSystem,
    energy_coordinates,
    energy_norm,
    symmetric_part,
)
from .spectral import STACK_ENTRIES, _as_grid, _hit_level, resolvent_norms

PASSIVITY_TOL = 1e-10
CONDITION_LIMIT = 1e12


def _matrix(M: np.ndarray) -> np.ndarray:
    return np.atleast_2d(np.asarray(M))


class PassiveSystem(GramSystem):
    """Passive block in descriptor form: ``gram``, ``flux``, ``gram_B``, ``C``, ``D``.

    The Gram and ``flux = gram @ A`` are held as for generators (see
    :class:`~towerstab.generator.GramSystem`), and so is the assembled
    input map ``gram_B = gram @ B``; ``A`` and ``B`` are derived on first
    read.  ``channels`` are ``DampingChannel(name, gain, v)`` with ``v``
    acting on ``(x, u)`` and ``sym([[flux, gram_B], [-C, -D]]) = -sum gain
    v v^T``.  Matrices may be complex (feedback transforms with complex gain
    produce complex blocks, which declare no channels); the Gram is real SPD.
    """

    _matrix = staticmethod(_matrix)  # keeps complex matrices complex
    n = GramSystem.dim

    def __init__(
        self,
        *,
        gram: np.ndarray,
        flux: np.ndarray,
        gram_B: np.ndarray,
        C: np.ndarray,
        D: np.ndarray,
        channels: tuple[DampingChannel, ...] = (),
    ):
        super().__init__(gram, flux)
        self.gram_B, self.C, self.D = _matrix(gram_B), _matrix(C), _matrix(D)
        n, p = self.n, self.p
        for name, shape in {"gram_B": (n, p), "C": (p, n), "D": (p, p)}.items():
            if getattr(self, name).shape != shape:
                raise DimensionError(f"{name} must be {shape}, got {getattr(self, name).shape}")
        self.channels = tuple(channels)
        if any(np.shape(ch.vector) != (n + p,) for ch in self.channels):
            raise DimensionError(f"channel vectors must act on (x, u) of size {n + p}")
        self._B: np.ndarray | None = None

    @property
    def B(self) -> np.ndarray:
        """Explicit input map ``gram^{-1} gram_B``."""
        if self._B is None:
            self._B = sla.cho_solve((self._factor(), False), self.gram_B)
        return self._B

    @property
    def p(self) -> int:
        return self.gram_B.shape[1]

    def is_real(self) -> bool:
        return not any(
            np.iscomplexobj(mat) for mat in (self.flux, self.gram_B, self.C, self.D)
        )


@dataclass(frozen=True)
class TransferSample:
    """Transfer function value at one real frequency.

    ``H = C (is gram - flux)^{-1} gram_B + D`` and ``eta`` is the smallest
    eigenvalue of the Hermitian part of ``H``.
    """

    s: float
    H: np.ndarray
    eta: float


@dataclass(frozen=True)
class PassivityReport:
    lambda_max: float
    passive: bool


def _passivity_form(sys: PassiveSystem) -> np.ndarray:
    """Hermitian form whose negativity is equivalent to impedance passivity."""
    N = np.block([[sys.flux, sys.gram_B], [-sys.C, -sys.D]])
    return symmetric_part(N)


def _defect(sys: PassiveSystem, x: np.ndarray, u: np.ndarray) -> float:
    """Passivity defect ``Re<Cx+Du,u> - Re<flux x + gram_B u, x>`` of one pair.

    It equals ``-w^H N w`` for ``w = (x, u)`` and the form ``N`` of
    :func:`_passivity_form`; kept as the reference the eigenvalue
    certificate of :func:`verify_passivity` is tested against.
    """
    supply = np.real(np.vdot(u, sys.C @ x + sys.D @ u))
    storage = np.real(np.vdot(x, sys.flux @ x + sys.gram_B @ u))
    return supply - storage


def verify_passivity(sys: PassiveSystem) -> PassivityReport:
    """Certify the passivity inequality of a block.

    The defect of a unit pair ``w = (x, u)`` is ``-w^H N w`` for the
    Hermitian form ``N`` of :func:`_passivity_form`, so its minimum over
    unit pairs is ``-lambda_max(N)``.  Passive means ``lambda_max <= 1e-10``.
    """
    lam = float(sla.eigvalsh(_passivity_form(sys))[-1])
    return PassivityReport(lambda_max=lam, passive=lam <= PASSIVITY_TOL)


def _resolvent_apply(
    M: np.ndarray, F: np.ndarray, grid: np.ndarray, rhs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Solve ``(is M - F) X = rhs`` at every frequency ``s`` of ``grid``.

    Returns the solutions, stacked along the first axis, and a mask of the
    numerically singular shifts: those LAPACK rejects, those with a
    non-finite solution and those whose residual exceeds ``1e-8 (|is M -
    F|_1 |X| + |rhs|)``.  The shifts are solved in stacks of at most
    ``STACK_ENTRIES`` matrix entries by one ``np.linalg.solve`` each, so a
    beam-sized system takes one shift per stack.  LAPACK rejects a whole
    stack for one exactly singular shift; its shifts are then solved one by
    one.  The solution of every hit is NaN.
    """
    X = np.full((grid.size, *rhs.shape), np.nan, dtype=complex)
    hit = np.empty(grid.size, dtype=bool)
    step = max(1, STACK_ENTRIES // M.size)
    for start in range(0, grid.size, step):
        part = slice(start, start + step)
        shifted = 1j * grid[part, None, None] * M - F
        try:
            X[part] = np.linalg.solve(shifted, rhs)
        except np.linalg.LinAlgError:
            for k, matrix in enumerate(shifted, start):
                try:
                    X[k] = np.linalg.solve(matrix, rhs)
                except np.linalg.LinAlgError:
                    pass  # left NaN, so flagged below
        # The tests below decide a near-singular shift, so an overflowing
        # residual adds nothing to them.
        with np.errstate(over="ignore", invalid="ignore"):
            residual = np.linalg.norm(shifted @ X[part] - rhs, axis=(1, 2))
            scale = np.abs(shifted).sum(axis=1).max(axis=1) * np.linalg.norm(
                X[part], axis=(1, 2)
            ) + np.linalg.norm(rhs)
            hit[part] = ~np.isfinite(X[part]).all(axis=(1, 2)) | (residual > 1e-8 * scale)
    X[hit] = np.nan
    return X, hit


@dataclass(frozen=True)
class TransferGrid:
    """Transfer function over a frequency grid.

    ``H[k]`` and ``eta[k]`` are the :class:`TransferSample` values at
    ``s_values[k]``; where ``hit[k]`` flags a spectrum hit both are NaN.
    """

    s_values: np.ndarray
    H: np.ndarray
    eta: np.ndarray
    hit: np.ndarray


def transfer_grid(sys: PassiveSystem, s_grid: Sequence[float]) -> TransferGrid:
    """Sample ``H(is) = C (is gram - flux)^{-1} gram_B + D`` on a grid of real frequencies.

    All frequencies share the stacked solves of :func:`_resolvent_apply`.
    Raises :class:`ValidationError` for an empty or non-finite grid.
    """
    grid = _as_grid(s_grid)
    X, hit = _resolvent_apply(sys.gram, sys.flux, grid, sys.gram_B)
    H = sys.C @ X + sys.D
    eta = np.full(grid.size, np.nan)
    ok = ~hit
    eta[ok] = np.linalg.eigvalsh(symmetric_part(H[ok]))[:, 0]
    return TransferGrid(s_values=grid, H=H, eta=eta, hit=hit)


def transfer_function(sys: PassiveSystem, s: float) -> TransferSample:
    """Sample ``H(is) = C (is gram - flux)^{-1} gram_B + D`` at a real frequency.

    The one-point case of :func:`transfer_grid`.  Raises
    :class:`SpectrumHit` when ``is`` lies in the spectrum of ``A``.
    """
    tf = transfer_grid(sys, [s])
    if tf.hit[0]:
        raise SpectrumHit(float(s))
    return TransferSample(s=float(s), H=tf.H[0], eta=float(tf.eta[0]))


@dataclass(frozen=True)
class EtaBound:
    """Hermitian-part lower-bound curve of a transfer function on a grid.

    ``coefficient`` is the largest M with ``eta(s) >= M / (1 + s^2)`` on the
    grid and ``floor`` the largest constant lower bound; ``excluded`` lists
    frequencies rejected as spectrum hits.
    """

    s_values: np.ndarray
    eta: np.ndarray
    coefficient: float
    floor: float
    excluded: tuple[float, ...]


def eta_lower_bound(sys: PassiveSystem, s_grid: Sequence[float]) -> EtaBound:
    """Evaluate ``eta(s)`` on a grid and fit the ``M/(1+s^2)`` envelope."""
    tf = transfer_grid(sys, s_grid)
    s_ok, eta = tf.s_values[~tf.hit], tf.eta[~tf.hit]
    if not s_ok.size:
        raise ValidationError("every grid point hit the spectrum")
    return EtaBound(
        s_values=s_ok,
        eta=eta,
        coefficient=float(np.min(eta * (1.0 + s_ok**2))),
        floor=float(np.min(eta)),
        excluded=tuple(tf.s_values[tf.hit].tolist()),
    )


def accretive_lower_bound(Q: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of a square matrix."""
    Q = np.atleast_2d(np.asarray(Q))
    return float(sla.eigvalsh(symmetric_part(Q))[0])


def feedback_transform(sys: PassiveSystem, Q: np.ndarray, c: float) -> PassiveSystem:
    """Close the loop ``u = -Q y + v`` around a passive block.

    Requires ``Re Q >= c I`` with ``c > 0``; then ``I + DQ`` is invertible
    and the transformed block ``(flux - gram_B Q(I+DQ)^{-1}C,
    gram_B(I+QD)^{-1}, (I+DQ)^{-1}C, (I+DQ)^{-1}D)`` is again impedance
    passive, which is re-certified on the output.  It declares no
    channels: its identity carries the loop gain.
    """
    Q = np.atleast_2d(np.asarray(Q))
    p = sys.p
    if Q.shape != (p, p):
        raise DimensionError(f"Q must be {p}x{p}, got {Q.shape}")
    if not c > 0:
        raise ValidationError(f"c must be positive, got {c}")
    q_min = accretive_lower_bound(Q)
    if q_min < c - 1e-12:
        raise ValidationError(f"Re Q >= cI fails: lambda_min(Re Q) = {q_min:.3e} < c = {c:.3e}")
    IDQ = np.eye(p) + sys.D @ Q
    cond = np.linalg.cond(IDQ)
    if cond > CONDITION_LIMIT:
        raise NumericalError(f"I + DQ is near-singular (cond = {cond:.3e})")
    IQD = np.eye(p) + Q @ sys.D
    out = PassiveSystem(
        gram=sys.gram,
        flux=sys.flux - sys.gram_B @ (Q @ sla.solve(IDQ, sys.C)),
        gram_B=sla.solve(IQD.T, sys.gram_B.T).T,
        C=sla.solve(IDQ, sys.C),
        D=sla.solve(IDQ, sys.D),
    )
    report = verify_passivity(out)
    if not report.passive:
        raise NumericalError(
            f"feedback transform lost passivity: lambda_max {report.lambda_max:.3e}"
        )
    return out


def couple_systems(
    sys1: PassiveSystem, sys2: PassiveSystem, labels: Sequence[str] | None = None
) -> DiscreteGenerator:
    """Power-preserving interconnection ``u1 = y2``, ``u2 = -y1`` of two blocks.

    The loop fixes the block inputs as linear maps of the coupled state
    ``z = (x1, x2)``:

        u1 = Q2 (C2 x2 - D2 C1 x1),   Q2 = (I + D2 D1)^{-1},
        u2 = -Q1 (C1 x1 + D1 C2 x2),  Q1 = (I + D1 D2)^{-1}.

    With ``u_i = L_i z`` the flux is ``blkdiag(flux1, flux2) + [[gram_B1
    L1], [gram_B2 L2]]`` on the block-diagonal Gram (every product with a
    unit input map is exact).  The supplies cancel, so each block channel
    ``(v_x, v_u)`` lifts to ``v_x + v_u L_i`` (a second-block channel named
    like a first-block one is renamed ``sys2.<name>``); the coupled
    generator is certified Gram-dissipative (the defect stays cached on it)
    and keeps ``(sys1, sys2)`` as ``gen.blocks``, which
    :func:`check_coupled_resolvent_bound` reads.
    """
    if sys1.p != sys2.p:
        raise DimensionError(f"input dimensions differ: {sys1.p} vs {sys2.p}")
    if not (sys1.is_real() and sys2.is_real()):
        raise ValidationError("coupled generators require real blocks")
    eye = np.eye(sys1.p)
    IDD = eye + sys1.D @ sys2.D  # singular together with I + D2 D1
    if np.linalg.cond(IDD) > CONDITION_LIMIT:
        raise NumericalError(
            f"I + D1 D2 is near-singular (cond = {np.linalg.cond(IDD):.3e})"
        )
    L1 = sla.solve(eye + sys2.D @ sys1.D, np.hstack([-sys2.D @ sys1.C, sys2.C]))
    L2 = -sla.solve(IDD, np.hstack([sys1.C, sys1.D @ sys2.C]))
    n1, n2 = sys1.n, sys2.n
    gram = np.zeros((n1 + n2, n1 + n2))
    flux = np.zeros((n1 + n2, n1 + n2))
    channels = []
    taken = {ch.name for ch in sys1.channels}
    for block, L, rows, clash in (
        (sys1, L1, slice(0, n1), set()), (sys2, L2, slice(n1, n1 + n2), taken)
    ):
        gram[rows, rows] = block.gram
        flux[rows, rows] = block.flux
        flux[rows] += block.gram_B @ L
        for name, gain, v in block.channels:
            lifted = np.zeros(n1 + n2)
            lifted[rows] = v[: block.n]
            name = f"sys2.{name}" if name in clash else name
            channels.append(DampingChannel(name, gain, lifted + v[block.n:] @ L))
    if labels is None:
        labels = [f"sys1[{i}]" for i in range(n1)] + [f"sys2[{j}]" for j in range(n2)]
    gen = DiscreteGenerator(
        gram=gram, flux=flux, labels=labels, damping_channels=tuple(channels)
    )
    defect = gen.dissipation_defect()
    if defect > DISSIPATIVITY_TOL:
        raise NumericalError(
            f"coupled generator is not Gram-dissipative: defect {defect:.3e}"
        )
    gen.blocks = (sys1, sys2)
    return gen


def routh_hurwitz(coeffs: Sequence[float]) -> bool:
    """Hurwitz stability of a monic real polynomial of degree 1, 2 or 3.

    ``coeffs`` lists the coefficients in descending powers, leading 1.
    Degree 2: stable iff a1 > 0 and a0 > 0.  Degree 3: stable iff
    a2 > 0, a0 > 0 and a2 a1 > a0.
    """
    coeffs = [float(c) for c in coeffs]
    if not coeffs or abs(coeffs[0] - 1.0) > 1e-14:
        raise ValidationError("polynomial must be monic")
    degree = len(coeffs) - 1
    if degree == 1:
        return coeffs[1] > 0
    if degree == 2:
        _, a1, a0 = coeffs
        return a1 > 0 and a0 > 0
    if degree == 3:
        _, a2, a1, a0 = coeffs
        return a2 > 0 and a0 > 0 and a2 * a1 > a0
    raise ValidationError(f"unsupported degree {degree}; expected 1, 2 or 3")


def random_passive_system(n: int, p: int, seed: int) -> PassiveSystem:
    """Seeded random impedance-passive block, passive by construction.

    Draws a skew matrix S and an input map B and sets ``flux = S - B B^T``,
    ``gram_B = B``, ``C = B^T``, with identity Gram and ``D = V V^T +
    skew``; the channels are the columns of ``blkdiag(B, V)``.
    """
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, n))
    S = 0.5 * (W - W.T)
    B = rng.standard_normal((n, p))
    V = rng.standard_normal((p, p))
    loss = sla.block_diag(B, V)
    return PassiveSystem(
        gram=np.eye(n),
        flux=S - B @ B.T,
        gram_B=B,
        C=B.T,
        D=V @ V.T + 0.5 * (V - V.T),
        channels=tuple(DampingChannel(f"loss[{j}]", 1.0, v) for j, v in enumerate(loss.T)),
    )


@dataclass(frozen=True)
class FeedbackBoundReport:
    """Frequency-wise check of the three resolvent bounds of the feedback
    transform: ``|R B|^2 <= ratio * |R|``, ``|C R|^2 <= ratio * |R|`` and
    ``|H| <= ratio`` with ``ratio = 1/c``."""

    s_values: np.ndarray
    resolvent: np.ndarray
    input_bound_margin: np.ndarray
    output_bound_margin: np.ndarray
    transfer_bound_margin: np.ndarray
    excluded: tuple[float, ...]
    max_violation: float


def check_feedback_bounds(
    sys_q: PassiveSystem, c: float, s_grid: Sequence[float]
) -> FeedbackBoundReport:
    """Verify the three closed-loop estimates on a frequency grid.

    ``sys_q`` must be a feedback-transformed passive block and ``c`` the
    accretivity constant of the loop gain; margins are (bound - value), so
    nonnegative margins mean the estimate holds.  Each frequency takes one
    solve ``(is - T) [RB | R] = [B | I]`` in energy coordinates.  Raises
    :class:`ValidationError` for an empty or non-finite grid.
    """
    ec = energy_coordinates(sys_q)
    U = sys_q._factor()
    B = sla.solve_triangular(U.T, sys_q.gram_B, lower=True)  # U^{-T} gram_B
    C = sla.solve_triangular(U.T, sys_q.C.T, lower=True).T  # C U^{-1}
    eye = np.eye(sys_q.n)
    rhs = np.hstack([B, eye])
    inv_c = 1.0 / c

    def evaluate(s):
        X, hit = _resolvent_apply(eye, ec.T, np.array([s]), rhs)
        if hit[0]:
            raise SpectrumHit(s)
        RB, R = X[0, :, :sys_q.p], X[0, :, sys_q.p:]
        r = float(sla.svdvals(R)[0])
        if r * _hit_level(s, energy_norm(sys_q)) >= 1.0:
            raise SpectrumHit(s)
        rb = float(sla.svdvals(RB)[0])
        cr = float(sla.svdvals(C @ R)[0])
        h = float(sla.svdvals(C @ RB + sys_q.D)[0])
        return r, inv_c * r - rb**2, inv_c * r - cr**2, inv_c - h

    s_ok, values, excluded = [], [], []
    for s in _as_grid(s_grid):
        try:
            values.append(evaluate(s))
            s_ok.append(s)
        except SpectrumHit:
            excluded.append(float(s))
    s_ok = np.asarray(s_ok, dtype=float)
    res, m_in, m_out, m_tf = np.asarray(values).reshape(-1, 4).T
    margins = np.concatenate([m_in, m_out, m_tf]) if s_ok.size else np.array([0.0])
    return FeedbackBoundReport(
        s_values=s_ok,
        resolvent=res,
        input_bound_margin=m_in,
        output_bound_margin=m_out,
        transfer_bound_margin=m_tf,
        excluded=tuple(excluded),
        max_violation=float(max(0.0, -margins.min())),
    )


@dataclass(frozen=True)
class CouplingBoundReport:
    """Ratio of the coupled resolvent norm to its two-block upper bound.

    ``ratios`` holds ``|R(is, A)| * eta(s) / ((1 + |R(is, A_K)|)(1 +
    |R(is, A2)|^2))`` per usable grid point; the bound constant being finite
    and grid-stable is the acceptance property, not any specific value.
    """

    s_values: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    ratios: np.ndarray
    max_ratio: float
    excluded: tuple[float, ...]


ETA_EXCLUSION_TOL = 1e-12


def check_coupled_resolvent_bound(
    coupled: DiscreteGenerator, K: np.ndarray, s_grid: Sequence[float]
) -> CouplingBoundReport:
    """Compare the resolvent norm of a coupled generator with its structured bound.

    ``coupled`` comes from :func:`couple_systems`; with ``(sys1, sys2) =
    coupled.blocks`` the bound reads the resolvents of ``sys1`` under the
    feedback transform with gain ``K`` (``Re K >= cI``, ``c > 0``) and of
    ``sys2``, all through :func:`resolvent_norms`, and ``eta(s)`` of
    ``sys2`` from :func:`transfer_grid`.  Grid points where ``is`` hits a
    spectrum or where ``eta(s)`` is not strictly positive are excluded and
    reported.
    """
    if coupled.blocks is None:
        raise ValidationError("generator is not a coupling of two passive blocks")
    sys1, sys2 = coupled.blocks
    c = accretive_lower_bound(K)
    if not c > 0:
        raise ValidationError(f"Re K must be positive definite, lambda_min = {c:.3e}")
    sys_k = feedback_transform(sys1, K, c)
    tf = transfer_grid(sys2, s_grid)
    keep = np.flatnonzero(tf.eta > ETA_EXCLUSION_TOL)  # a hit's NaN eta fails the test
    columns = [tf.eta[keep]]
    for system in (sys2, coupled, sys_k):
        norms = resolvent_norms(system, tf.s_values[keep]) if keep.size else np.empty(0)
        finite = np.isfinite(norms)
        keep, columns = keep[finite], [col[finite] for col in columns] + [norms[finite]]
    eta, r_2, lhs, r_k = columns
    rhs = (1.0 + r_k) * (1.0 + r_2**2) / eta
    ratios = lhs / rhs
    return CouplingBoundReport(
        s_values=tf.s_values[keep],
        lhs=lhs,
        rhs=rhs,
        ratios=ratios,
        max_ratio=float(ratios.max()) if ratios.size else float("nan"),
        excluded=tuple(np.delete(tf.s_values, keep).tolist()),
    )
