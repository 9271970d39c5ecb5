"""Finite-dimensional impedance-passive system algebra.

An impedance-passive block is a quadruple ``(A, B, C, D)`` on a state space
with energy Gram ``M`` and a Euclidean input/output space, satisfying

    Re <A x + B u, x>_M  <=  Re <C x + D u, u>      for all x, u.

This module certifies that inequality, evaluates transfer functions and
their Hermitian-part lower bounds, applies the positive-real feedback
transform, couples two passive blocks into a dissipative generator, and
checks the coupled resolvent-growth bound numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg as sla

from .errors import DimensionError, NumericalError, SpectrumHit, ValidationError
from .generator import (
    DISSIPATIVITY_TOL,
    DiscreteGenerator,
    _resolvent_from_shift,
    check_spd,
    symmetric_part,
    transform_flux,
)
from .spectral import resolvent_norm

PASSIVITY_TOL = 1e-10
CONDITION_LIMIT = 1e12


@dataclass(eq=False)
class PassiveSystem:
    """State-space block ``(A, B, C, D)`` with an energy Gram on the state space.

    Matrices may be complex (feedback transforms with complex gain produce
    complex blocks); the Gram is always real SPD.  ``flux`` is the assembled
    ``gram @ A`` and ``gram_B`` the assembled input map ``gram @ B``, both
    kept in descriptor form exactly as for generators and defaulting to the
    plain products.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    gram: np.ndarray
    flux: np.ndarray | None = None
    gram_B: np.ndarray | None = None

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A))
        self.B = np.atleast_2d(np.asarray(self.B))
        self.C = np.atleast_2d(np.asarray(self.C))
        self.D = np.atleast_2d(np.asarray(self.D))
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise DimensionError(f"A must be square, got {self.A.shape}")
        p = self.B.shape[1]
        if self.B.shape != (n, p):
            raise DimensionError(f"B must be {n}x{p}, got {self.B.shape}")
        if self.C.shape != (p, n):
            raise DimensionError(f"C must be {p}x{n}, got {self.C.shape}")
        if self.D.shape != (p, p):
            raise DimensionError(f"D must be {p}x{p}, got {self.D.shape}")
        check_spd(self.gram, "gram")
        self.gram = np.asarray(self.gram, dtype=float)
        if self.gram.shape != (n, n):
            raise DimensionError("gram shape does not match A")
        if self.flux is None:
            self.flux = self.gram @ self.A
        self.flux = np.atleast_2d(np.asarray(self.flux))
        if self.flux.shape != (n, n):
            raise DimensionError("flux shape does not match A")
        if self.gram_B is None:
            self.gram_B = self.gram @ self.B
        self.gram_B = np.atleast_2d(np.asarray(self.gram_B))
        if self.gram_B.shape != self.B.shape:
            raise DimensionError("gram_B shape does not match B")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def p(self) -> int:
        return self.B.shape[1]

    def is_real(self) -> bool:
        return not any(
            np.iscomplexobj(mat) for mat in (self.A, self.B, self.C, self.D)
        )


@dataclass(frozen=True)
class TransferSample:
    """Transfer function value at one real frequency.

    ``H = C (is - A)^{-1} B + D`` and ``eta`` is the smallest eigenvalue of
    the Hermitian part of ``H``.
    """

    s: float
    H: np.ndarray
    eta: float


@dataclass(frozen=True)
class PassivityReport:
    min_defect: float
    worst_x: np.ndarray
    worst_u: np.ndarray
    lambda_max: float
    passive: bool
    n_samples: int


def _passivity_form(sys: PassiveSystem) -> np.ndarray:
    """Hermitian form whose negativity is equivalent to impedance passivity."""
    N = np.block([[sys.flux, sys.gram_B], [-sys.C, -sys.D]])
    return symmetric_part(N)


def _defect(sys: PassiveSystem, x: np.ndarray, u: np.ndarray) -> float:
    supply = np.real(np.vdot(u, sys.C @ x + sys.D @ u))
    storage = np.real(np.vdot(x, sys.gram @ (sys.A @ x + sys.B @ u)))
    return supply - storage


def verify_passivity(
    sys: PassiveSystem, n_samples: int = 100, seed: int = 0
) -> PassivityReport:
    """Certify the passivity inequality of a block.

    Samples the defect ``Re<Cx+Du,u> - Re<Ax+Bu,x>_M`` on pseudo-random unit
    pairs and on all canonical coordinate pairs, then certifies globally via
    the largest eigenvalue of the Hermitian block form.  Passive means the
    sampled minimum stays above ``-1e-10`` and the eigenvalue below ``1e-10``.
    """
    n, p = sys.n, sys.p
    rng = np.random.default_rng(seed)
    complex_block = not sys.is_real()

    def draw(k):
        v = rng.standard_normal(k)
        if complex_block:
            v = v + 1j * rng.standard_normal(k)
        return v

    pairs = []
    eye_n, eye_p = np.eye(n), np.eye(p)
    for i in range(n):
        pairs.append((eye_n[i], np.zeros(p)))
    for j in range(p):
        pairs.append((np.zeros(n), eye_p[j]))
    for i in range(n):
        pairs.append((eye_n[i], eye_p[i % p]))
    for _ in range(n_samples):
        x, u = draw(n), draw(p)
        scale = np.sqrt(np.vdot(x, x).real + np.vdot(u, u).real)
        pairs.append((x / scale, u / scale))

    min_defect = np.inf
    worst = (np.zeros(n), np.zeros(p))
    for x, u in pairs:
        d = _defect(sys, x, u)
        if d < min_defect:
            min_defect = d
            worst = (x, u)
    lam = float(sla.eigvalsh(_passivity_form(sys))[-1])
    return PassivityReport(
        min_defect=float(min_defect),
        worst_x=worst[0],
        worst_u=worst[1],
        lambda_max=lam,
        passive=bool(min_defect >= -PASSIVITY_TOL and lam <= PASSIVITY_TOL),
        n_samples=n_samples,
    )


def _resolvent_apply(A: np.ndarray, s: float, rhs: np.ndarray) -> np.ndarray:
    """Solve ``(is - A) x = rhs`` and flag numerically singular shifts."""
    F = 1j * s * np.eye(A.shape[0]) - A
    try:
        x = sla.solve(F, rhs)
    except sla.LinAlgError as exc:
        raise SpectrumHit(s, f"shift is - A is singular at s={s}: {exc}") from exc
    residual = np.linalg.norm(F @ x - rhs)
    scale = np.linalg.norm(F, 1) * np.linalg.norm(x) + np.linalg.norm(rhs)
    if not np.all(np.isfinite(x)) or residual > 1e-8 * scale:
        raise SpectrumHit(s, f"shift is - A is numerically singular at s={s}")
    return x


def transfer_function(sys: PassiveSystem, s: float) -> TransferSample:
    """Sample ``H(is) = C (is - A)^{-1} B + D`` at a real frequency.

    Raises :class:`SpectrumHit` when ``is`` lies in the spectrum of ``A``.
    """
    X = _resolvent_apply(sys.A, s, sys.B)
    H = sys.C @ X + sys.D
    eta = float(sla.eigvalsh(symmetric_part(H))[0])
    return TransferSample(s=float(s), H=H, eta=eta)


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
    s_ok, etas, excluded = [], [], []
    for s in np.asarray(s_grid, dtype=float):
        try:
            etas.append(transfer_function(sys, s).eta)
            s_ok.append(s)
        except SpectrumHit:
            excluded.append(float(s))
    if not s_ok:
        raise ValidationError("every grid point hit the spectrum")
    s_arr = np.asarray(s_ok)
    eta_arr = np.asarray(etas)
    return EtaBound(
        s_values=s_arr,
        eta=eta_arr,
        coefficient=float(np.min(eta_arr * (1.0 + s_arr**2))),
        floor=float(np.min(eta_arr)),
        excluded=tuple(excluded),
    )


def accretive_lower_bound(Q: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of a square matrix."""
    Q = np.atleast_2d(np.asarray(Q))
    return float(sla.eigvalsh(symmetric_part(Q))[0])


def feedback_transform(
    sys: PassiveSystem, Q: np.ndarray, c: float, certify: bool = True
) -> PassiveSystem:
    """Close the loop ``u = -Q y + v`` around a passive block.

    Requires ``Re Q >= c I`` with ``c > 0``; then ``I + DQ`` is invertible
    and the transformed block ``(A - BQ(I+DQ)^{-1}C, B(I+QD)^{-1},
    (I+DQ)^{-1}C, (I+DQ)^{-1}D)`` is again impedance passive, which is
    re-certified on the output unless ``certify`` is disabled.
    """
    Q = np.atleast_2d(np.asarray(Q))
    p = sys.p
    if Q.shape != (p, p):
        raise DimensionError(f"Q must be {p}x{p}, got {Q.shape}")
    if not c > 0:
        raise ValidationError(f"c must be positive, got {c}")
    if accretive_lower_bound(Q) < c - 1e-12:
        raise ValidationError(
            f"Re Q >= cI fails: lambda_min(Re Q) = {accretive_lower_bound(Q):.3e} < c = {c:.3e}"
        )
    IDQ = np.eye(p) + sys.D @ Q
    if np.linalg.cond(IDQ) > CONDITION_LIMIT:
        raise NumericalError(
            f"I + DQ is near-singular (cond = {np.linalg.cond(IDQ):.3e})"
        )
    IQD = np.eye(p) + Q @ sys.D
    gain = Q @ sla.solve(IDQ, sys.C)
    A_Q = sys.A - sys.B @ gain
    out = PassiveSystem(
        A=A_Q,
        B=sla.solve(IQD.T, sys.B.T).T,
        C=sla.solve(IDQ, sys.C),
        D=sla.solve(IDQ, sys.D),
        gram=sys.gram,
        flux=sys.flux - sys.gram_B @ gain,
        gram_B=sla.solve(IQD.T, sys.gram_B.T).T,
    )
    if certify:
        report = verify_passivity(out, n_samples=20, seed=1)
        if not report.passive:
            raise NumericalError(
                "feedback transform lost passivity: "
                f"min defect {report.min_defect:.3e}, lambda_max {report.lambda_max:.3e}"
            )
    return out


def couple_systems(
    sys1: PassiveSystem, sys2: PassiveSystem, labels: Sequence[str] | None = None
) -> DiscreteGenerator:
    """Power-preserving interconnection of two passive blocks.

    Builds the flux of the block generator

        [[A1 - B1 D2 Q1 C1,  B1 Q1 C2     ],
         [-B2 Q1 C1,         A2 - B2 Q1 D1 C2]],   Q1 = (I + D1 D2)^{-1},

    from the blocks' assembled ``flux`` and ``gram_B`` (so every product
    with a unit input map is exact), with the block-diagonal Gram, and
    certifies Gram-dissipativity.
    """
    if sys1.p != sys2.p:
        raise DimensionError(
            f"input dimensions differ: {sys1.p} vs {sys2.p}"
        )
    if not (sys1.is_real() and sys2.is_real()):
        raise ValidationError("coupled generators require real blocks")
    p = sys1.p
    IDD = np.eye(p) + sys1.D @ sys2.D
    if np.linalg.cond(IDD) > CONDITION_LIMIT:
        raise NumericalError(
            f"I + D1 D2 is near-singular (cond = {np.linalg.cond(IDD):.3e})"
        )
    Q1 = sla.inv(IDD)
    n1, n2 = sys1.n, sys2.n
    gram = np.zeros((n1 + n2, n1 + n2))
    gram[:n1, :n1] = sys1.gram
    gram[n1:, n1:] = sys2.gram
    MB1, MB2 = sys1.gram_B, sys2.gram_B
    flux = np.zeros((n1 + n2, n1 + n2))
    flux[:n1, :n1] = sys1.flux - MB1 @ (sys2.D @ (Q1 @ sys1.C))
    flux[:n1, n1:] = MB1 @ (Q1 @ sys2.C)
    flux[n1:, :n1] = -MB2 @ (Q1 @ sys1.C)
    flux[n1:, n1:] = sys2.flux - MB2 @ (Q1 @ (sys1.D @ sys2.C))
    if labels is None:
        labels = [f"sys1[{i}]" for i in range(n1)] + [f"sys2[{j}]" for j in range(n2)]
    gen = DiscreteGenerator(gram=gram, labels=labels, flux=flux)
    defect = gen.dissipation_defect()
    if defect > DISSIPATIVITY_TOL:
        raise NumericalError(
            f"coupled generator is not Gram-dissipative: defect {defect:.3e}"
        )
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


def random_passive_system(
    n: int, p: int, seed: int, with_feedthrough: bool = True
) -> PassiveSystem:
    """Seeded random impedance-passive block, passive by construction.

    Draws a skew matrix S and an input map B and sets ``A = S - B B^T``,
    ``C = B^T``, with identity Gram and optional ``D`` with ``Re D >= 0``;
    the passivity defect is then ``|B^T x|^2 + u^T sym(D) u >= 0``.
    """
    rng = np.random.default_rng(seed)
    W = rng.standard_normal((n, n))
    S = 0.5 * (W - W.T)
    B = rng.standard_normal((n, p))
    if with_feedthrough:
        V = rng.standard_normal((p, p))
        D = V @ V.T + 0.5 * (V - V.T)
    else:
        D = np.zeros((p, p))
    return PassiveSystem(A=S - B @ B.T, B=B, C=B.T, D=D, gram=np.eye(n))


class _EnergySystem:
    """Passive block mapped to energy coordinates for norm computations."""

    def __init__(self, sys: PassiveSystem):
        U = check_spd(sys.gram)
        self.T = transform_flux(sys.flux, U)
        self.B = U @ sys.B
        self.C = sla.solve_triangular(U.T, sys.C.conj().T, lower=True).conj().T
        self.D = sys.D
        self.norm_T = float(sla.svdvals(self.T)[0])

    def resolvent_norm(self, s: float) -> float:
        return _resolvent_from_shift(self.T, s, self.norm_T)

    def resolvent_input_norm(self, s: float) -> float:
        X = _resolvent_apply(self.T, s, self.B)
        return float(sla.svdvals(X)[0])

    def output_resolvent_norm(self, s: float) -> float:
        X = _resolvent_apply(self.T.conj().T, -s, self.C.conj().T)
        return float(sla.svdvals(X)[0])

    def closed_loop_transfer_norm(self, s: float) -> float:
        X = _resolvent_apply(self.T, s, self.B)
        return float(sla.svdvals(self.C @ X + self.D)[0])


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
    nonnegative margins mean the estimate holds.
    """
    es = _EnergySystem(sys_q)
    inv_c = 1.0 / c
    s_ok, res, m_in, m_out, m_tf, excluded = [], [], [], [], [], []
    for s in np.asarray(s_grid, dtype=float):
        try:
            r = es.resolvent_norm(s)
            rb = es.resolvent_input_norm(s)
            cr = es.output_resolvent_norm(s)
            h = es.closed_loop_transfer_norm(s)
        except SpectrumHit:
            excluded.append(float(s))
            continue
        s_ok.append(s)
        res.append(r)
        m_in.append(inv_c * r - rb**2)
        m_out.append(inv_c * r - cr**2)
        m_tf.append(inv_c - h)
    margins = np.concatenate([m_in, m_out, m_tf]) if s_ok else np.array([0.0])
    return FeedbackBoundReport(
        s_values=np.asarray(s_ok),
        resolvent=np.asarray(res),
        input_bound_margin=np.asarray(m_in),
        output_bound_margin=np.asarray(m_out),
        transfer_bound_margin=np.asarray(m_tf),
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
    sys1: PassiveSystem,
    sys2: PassiveSystem,
    K: np.ndarray,
    s_grid: Sequence[float],
) -> CouplingBoundReport:
    """Compare the coupled resolvent norm with its structured bound.

    ``K`` must satisfy ``Re K >= cI`` for some ``c > 0``; grid points where
    ``is`` hits a spectrum or where ``eta(s)`` is not strictly positive are
    excluded and reported.
    """
    c = accretive_lower_bound(K)
    if not c > 0:
        raise ValidationError(f"Re K must be positive definite, lambda_min = {c:.3e}")
    sys_k = feedback_transform(sys1, K, c)
    coupled = couple_systems(sys1, sys2)
    es_k = _EnergySystem(sys_k)
    es_2 = _EnergySystem(sys2)
    s_ok, lhs_vals, rhs_vals, excluded = [], [], [], []
    for s in np.asarray(s_grid, dtype=float):
        try:
            eta = transfer_function(sys2, s).eta
            if eta <= ETA_EXCLUSION_TOL:
                excluded.append(float(s))
                continue
            r_coupled = resolvent_norm(coupled, s)
            r_k = es_k.resolvent_norm(s)
            r_2 = es_2.resolvent_norm(s)
        except SpectrumHit:
            excluded.append(float(s))
            continue
        s_ok.append(s)
        lhs_vals.append(r_coupled)
        rhs_vals.append((1.0 + r_k) * (1.0 + r_2**2) / eta)
    lhs = np.asarray(lhs_vals)
    rhs = np.asarray(rhs_vals)
    ratios = lhs / rhs
    return CouplingBoundReport(
        s_values=np.asarray(s_ok),
        lhs=lhs,
        rhs=rhs,
        ratios=ratios,
        max_ratio=float(ratios.max()) if ratios.size else float("nan"),
        excluded=tuple(excluded),
    )
