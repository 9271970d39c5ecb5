"""Semi-discrete generators with an energy Gram matrix.

A :class:`DiscreteGenerator` is a square real generator together with a
symmetric positive-definite Gram matrix ``M`` defining the state norm
``|z|^2 = z^T M z`` (twice the physical energy).  All stability notions in
this toolkit (dissipativity, resolvent norms, spectra) are taken with
respect to that norm.

Generators are flux-first: they store ``flux = M A`` as assembled (skew
blocks are stored once, so they cancel exactly in floating point), and the
explicit ``A`` is derived from it only when read.  Deriving ``M A`` by
multiplying an explicit ``A`` would amplify mass-solve roundoff by the
stiffness norm and swamp the 1e-10 dissipativity tolerances on fine meshes;
all energy balance computations therefore go through ``flux``.  The Gram
and flux logic is one core, :class:`GramSystem`, which passive blocks share;
the energy coordinates, their eigenvalues and their Schur factor are
computed once per generator or block and cached on it.

The energy norm of ``A`` and the dissipation defect are read off the
assembled arrays in LAPACK band storage, without forming the dense energy
coordinates: in the band order of :func:`_band_order` the Gram and flux of
every assembled model have bandwidth 5 and 7, so the banded Cholesky
factor of the Gram, products with the flux and a banded LU of it cost
``O(dim)`` per apply.  The band arrays are gathered one diagonal at a time
from the dense ones; only ``scipy.linalg`` routines touch them.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, NamedTuple, Sequence

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas, lapack

from .errors import DimensionError, NumericalError, ValidationError

SYMMETRY_RTOL = 1e-12
DISSIPATIVITY_TOL = 1e-10
_EPS = np.finfo(float).eps


class DampingChannel(NamedTuple):
    """One term of a closed-form dissipation identity.

    The generator satisfies ``Re <A z, z>_M = -sum_i gain_i * (vector_i . z)^2``.
    Channels with ``gain == 0`` are kept so the signal is still recorded
    during simulation.
    """

    name: str
    gain: float
    vector: np.ndarray


def check_spd(M: np.ndarray, name: str = "gram") -> np.ndarray:
    """Validate that ``M`` is symmetric positive definite.

    Returns the upper Cholesky factor ``U`` with ``M = U^T U``.  Raises
    :class:`ValidationError` if ``M`` is not symmetric to within
    ``SYMMETRY_RTOL`` relative or if any Cholesky pivot fails.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {M.shape}")
    scale = np.abs(M).max() or 1.0
    if np.abs(M - M.T).max() > SYMMETRY_RTOL * scale:
        raise ValidationError(f"{name} is not symmetric to {SYMMETRY_RTOL} relative")
    try:
        return sla.cholesky(M, lower=False)
    except sla.LinAlgError as exc:
        raise ValidationError(f"{name} is not positive definite: {exc}") from exc


def symmetric_part(F: np.ndarray) -> np.ndarray:
    """Hermitian part of a square matrix, or of each matrix of a stack."""
    return 0.5 * (F + F.conj().swapaxes(-1, -2))


class GramSystem:
    """State space with an energy Gram and the assembled ``flux = gram @ A``.

    The core of generators and passive blocks, constructed from the two
    arrays an assembly produces.  The Gram is checked symmetric positive
    definite on construction; its Cholesky factor is not kept.  ``A`` is
    derived on first read by one Cholesky solve.  Instances are immutable
    by convention, so :func:`energy_norm`, :func:`energy_coordinates`, the
    spectrum (:func:`towerstab.spectral.energy_spectrum`) and the
    resolvent's Schur factor (:func:`towerstab.spectral.resolvent_norm`)
    cache their data on the object.
    """

    def __init__(self, gram: np.ndarray, flux: np.ndarray):
        check_spd(gram, "gram")
        self.gram = np.asarray(gram, dtype=float)
        self.flux = self._matrix(flux)
        n = self.dim
        if self.flux.shape != (n, n):
            raise DimensionError(f"flux must be {n}x{n} like gram, got {self.flux.shape}")
        self._A: np.ndarray | None = None
        self._norm: float | None = None
        self._coords: EnergyCoordinates | None = None
        self._eigenvalues = None  # a spectral.Spectrum once computed
        self._schur: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @staticmethod
    def _matrix(M: np.ndarray) -> np.ndarray:
        return np.asarray(M, dtype=float)

    def _factor(self) -> np.ndarray:
        """Upper Cholesky factor ``U`` of the (validated) Gram, ``gram = U^T U``."""
        return sla.cholesky(self.gram, lower=False)

    @property
    def A(self) -> np.ndarray:
        """Explicit state matrix ``gram^{-1} flux``."""
        if self._A is None:
            self._A = sla.cho_solve((self._factor(), False), self.flux)
        return self._A

    @property
    def dim(self) -> int:
        return self.gram.shape[0]


class DiscreteGenerator(GramSystem):
    """Generator in descriptor form: energy Gram, assembled flux, coordinate labels.

    Constructed once from the ``gram`` and ``flux`` an assembly produces;
    the explicit ``A`` is only ever derived.  ``damping_channels`` carries
    the model's closed-form dissipation identity so that ``sym(flux) = -sum
    gain_i v_i v_i^T``; its names are unique, since a simulation records
    each channel under its name.  ``blocks`` is the pair of passive blocks
    a generator was coupled from (set by
    :func:`~towerstab.passive_core.couple_systems`), ``None`` otherwise.
    The dissipation defect and the undamped beam modes
    (:func:`towerstab.timesim.beam_modes`) are computed once and cached.
    """

    def __init__(
        self,
        *,
        gram: np.ndarray,
        flux: np.ndarray,
        labels: Sequence[str],
        damping_channels: tuple[DampingChannel, ...] = (),
    ):
        super().__init__(gram, flux)
        self.labels = tuple(labels)
        if len(self.labels) != self.dim:
            raise DimensionError(f"expected {self.dim} labels, got {len(self.labels)}")
        if len(set(self.labels)) != self.dim:
            raise ValidationError("coordinate labels must be unique")
        self.damping_channels = tuple(damping_channels)
        names = [ch.name for ch in self.damping_channels]
        if len(set(names)) != len(names):
            raise ValidationError(f"damping channel names must be unique, got {names}")
        self.blocks = None
        self._defect: float | None = None
        self._modes: tuple[np.ndarray, np.ndarray] | None = None

    def index(self, label: str) -> int:
        """Coordinate index of a labelled state component."""
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no coordinate labelled {label!r}") from None

    def unit_state(self, label: str) -> np.ndarray:
        z = np.zeros(self.dim)
        z[self.index(label)] = 1.0
        return z

    def dissipation_defect(self) -> float:
        """Largest eigenvalue of ``sym(gram A)``; <= 0 means Gram-dissipative.

        One ``eigvals_banded`` for the top eigenvalue only, on the band of
        ``sym(flux)`` in the band order (the largest entry when that band is
        diagonal); computed once and cached.
        """
        if self._defect is None:
            order = _band_order(self)
            k = max(_bandwidths(self.flux, order))
            # upper band storage of sym(flux)
            band = 0.5 * (_band(self.flux, order, 0, k) + _band(self.flux.T, order, 0, k))
            # the outer diagonals that vanish (on the models all but those of
            # the few damped states) are dropped: the eigensolve costs O(dim k^2)
            used = np.flatnonzero(band.any(axis=1))
            band = band[used[0] if used.size else k :]
            if band.shape[0] == 1:  # a diagonal sym(flux): its eigenvalues are its entries
                self._defect = float(band.max())
            else:
                top = self.dim - 1
                self._defect = float(
                    sla.eigvals_banded(band, select="i", select_range=(top, top))[0]
                )
        return self._defect


def _beam_size(gen: DiscreteGenerator) -> int:
    """``n`` with beam state ``q = z[:n]``, ``v = z[n:2n]``: every assembly
    leads with the beam core, whose last state is ``tip_angular_velocity``."""
    try:
        return (gen.index("tip_angular_velocity") + 1) // 2
    except KeyError:
        raise ValidationError("generator does not carry beam blocks") from None


def _band_order(gen: GramSystem) -> np.ndarray:
    """State order in which the Gram and the flux are banded.

    A generator with the beam layout (:func:`_beam_size`) takes each beam
    node's displacement, slope and their two velocities together, node by
    node, and its block states last; its Gram and flux then have bandwidth
    5 and 7.  Any other object keeps the identity order.
    """
    if isinstance(gen, DiscreteGenerator) and "tip_angular_velocity" in gen.labels:
        n = _beam_size(gen)
        q = np.arange(n).reshape(-1, 2)  # (displacement, slope) of each node
        return np.concatenate([np.hstack([q, q + n]).ravel(), np.arange(2 * n, gen.dim)])
    return np.arange(gen.dim)


def _bandwidths(A: np.ndarray, order: np.ndarray) -> tuple[int, int]:
    """Lower and upper bandwidth ``(kl, ku)`` of ``A[order][:, order]``,
    read off the nonzeros of ``A`` by one scan, without a permuted copy."""
    # ten times faster than np.nonzero(A) on a dense float array
    rows, cols = np.divmod(np.flatnonzero(A != 0), A.shape[1])
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    offset = rank[cols] - rank[rows]
    return max(0, -int(offset.min(initial=0))), max(0, int(offset.max(initial=0)))


def _band(A: np.ndarray, order: np.ndarray, kl: int, ku: int) -> np.ndarray:
    """LAPACK general band storage ``ab[ku + i - j, j] = B[i, j]`` of
    ``B = A[order][:, order]``, gathered one diagonal at a time in
    ``O(dim (kl + ku))`` time and ``O(dim)`` scratch."""
    n = A.shape[0]
    ab = np.zeros((kl + ku + 1, n), dtype=A.dtype, order="F")
    for d in range(-kl, ku + 1):  # B[i, i + d] for the rows i that have it
        i = np.arange(max(0, -d), n - max(0, d))
        ab[ku - d, max(0, d) : n + min(0, d)] = A[order[i], order[i + d]]
    return ab


def _band_times(gbmv, ab, kl, ku, x, alpha=1.0, trans=0) -> np.ndarray:
    """``alpha B x``, or ``alpha B^H x`` for ``trans=2``, by ``gbmv`` on the band
    ``ab`` of :func:`_band`.  scipy's ``?gbmv`` wrapper asks for at least
    ``kl + ku + 1`` rows, more than a few states with a full band have; the
    product then runs on ``B`` bordered below by zero rows."""
    n = x.shape[0]
    m = max(n, kl + ku + 1)
    if trans and m > n:
        x = np.concatenate([x, np.zeros(m - n, dtype=x.dtype)])
    return gbmv(m, n, kl, ku, alpha, ab, x, trans=trans)[:n]


class _BandFactors:
    """Gram and flux of a Gram system in band storage, in its band order.

    ``order`` is that of :func:`_band_order`; ``gram`` and ``flux`` are the
    general bands of the permuted Gram and flux on one common pair of
    bandwidths ``kl`` and ``ku`` (7 and 7 on the assembled models, the
    flux's own), and ``U`` is the upper band Cholesky factor of the
    permuted Gram on the Gram's own half-bandwidth.  They are built where
    they are used and not cached on the object, so that a wide band (a
    block's reaches half its dimension) does not outlive its solve; the
    ``gram`` band, which only the midpoint loop reads, is gathered on first
    read, so a block's norm does not hold a second wide band.  The
    operators act on vectors in the band order, with real or complex BLAS
    as the flux is real or complex.  ``T^H T`` squares the norm of ``T``,
    so they act on ``T / scale``, where ``scale`` is the power of two just
    above ``|T q|`` for the fixed unit vector ``start``: no Lanczos step
    then overflows where ``T`` does not.
    """

    def __init__(self, gen: GramSystem):
        self._gen = gen
        self.order = order = _band_order(gen)
        k = max(_bandwidths(gen.gram, order))
        self.kl, self.ku = (max(k, w) for w in _bandwidths(gen.flux, order))
        self.flux = _band(gen.flux, order, self.kl, self.ku)
        self.U = sla.cholesky_banded(_band(gen.gram, order, 0, k), lower=False)
        dtype = self.flux.dtype
        if dtype == complex:
            self.U = self.U.astype(complex)
        self._tbsv, self._tbmv, self._gbmv = blas.get_blas_funcs(
            ("tbsv", "tbmv", "gbmv"), dtype=dtype
        )
        nrm2 = blas.get_blas_funcs("nrm2", dtype=dtype)
        rng = np.random.default_rng(0)
        start = rng.standard_normal(gen.dim)
        if dtype == complex:
            start = start + 1j * rng.standard_normal(gen.dim)
        self.start = start / nrm2(start)
        self.scale = 1.0  # read by _times_flux
        Tq = self._solve_U(self._times_flux(self._solve_U(self.start.copy())), trans=1)
        self.scale = math.ldexp(1.0, math.frexp(nrm2(Tq))[1])

    @cached_property
    def gram(self) -> np.ndarray:
        return _band(self._gen.gram, self.order, self.kl, self.ku)

    def _solve_U(self, x: np.ndarray, trans: int = 0) -> np.ndarray:
        """``U^{-1} x``, or ``U^{-T} x`` for ``trans=1``, in place."""
        return self._tbsv(self.U.shape[0] - 1, self.U, x, trans=trans, overwrite_x=1)

    def _times_U(self, x: np.ndarray, trans: int = 0) -> np.ndarray:
        """``U x``, or ``U^T x`` for ``trans=1``, in place."""
        return self._tbmv(self.U.shape[0] - 1, self.U, x, trans=trans, overwrite_x=1)

    def _times_flux(self, x: np.ndarray, trans: int = 0) -> np.ndarray:
        """``F x / scale``, or ``F^H x / scale`` for ``trans=2``."""
        return _band_times(self._gbmv, self.flux, self.kl, self.ku, x, 1.0 / self.scale, trans)

    def normal(self, x: np.ndarray) -> np.ndarray:
        """``T^H T x = U^{-T} F^H M^{-1} F U^{-1} x`` for ``T / scale``; overwrites ``x``."""
        y = self._solve_U(self._times_flux(self._solve_U(x)), trans=1)
        return self._solve_U(self._times_flux(self._solve_U(y), trans=2), trans=1)

    def lu(self, ab: np.ndarray) -> Callable[..., np.ndarray] | None:
        """A solve ``(x, trans=0) -> B^{-1} x`` (``B^{-H} x`` for ``trans=2``),
        overwriting ``x``, for the matrix ``B`` of the band ``ab`` on ``(kl,
        ku)``; ``None`` when its LU meets a zero pivot.  One ``?gbtrf`` with
        partial pivoting on ``ab`` bordered above by ``kl`` zero rows for the
        fill-in, then one ``?gbtrs`` per solve."""
        gbtrf, gbtrs = lapack.get_lapack_funcs(("gbtrf", "gbtrs"), (ab,))
        padded = np.vstack([np.zeros((self.kl, ab.shape[1]), ab.dtype), ab])
        lu, piv, info = gbtrf(padded, self.kl, self.ku, overwrite_ab=1)
        if info != 0:
            return None
        return lambda x, trans=0: gbtrs(lu, self.kl, self.ku, x, piv, trans=trans, overwrite_b=1)[0]

    def inverse_normal(self) -> Callable[[np.ndarray], np.ndarray] | None:
        """``x -> (T^H T)^{-1} x = U F^{-1} M F^{-H} U^T x`` for ``T / scale``
        by one banded LU of the flux, or ``None`` when the LU meets a zero pivot."""
        solve = self.lu(self.flux / self.scale)
        if solve is None:
            return None

        def apply(x: np.ndarray) -> np.ndarray:
            y = self._times_U(solve(self._times_U(x, trans=1), trans=2))
            return self._times_U(solve(self._times_U(y, trans=1), trans=0))

        return apply


def _top_eigenvalue(
    apply: Callable[[np.ndarray], np.ndarray], q: np.ndarray, tol: Callable[[float], float]
) -> float:
    """Largest eigenvalue ``theta`` of a Hermitian positive semidefinite operator.

    Lanczos with full reorthogonalisation from the unit start vector ``q``;
    ``apply(x)`` returns the operator times ``x`` and may overwrite ``x``.
    Only the top Ritz pair ``(theta, y)`` of the tridiagonal matrix is
    solved per step, by LAPACK bisection and inverse iteration (``dstebz``
    and ``dstein``, called directly: the wrapper ``eigh_tridiagonal`` costs
    more than the solve on the few steps of a resolvent).  The Ritz
    residual ``beta_k |y_k|`` bounds the distance of ``theta`` to an
    eigenvalue; iteration stops once that is at most ``tol(theta)``, or at
    ``k = dim``, where the Krylov space is the whole space and ``theta`` is
    exact.  Returns ``inf`` when a step
    overflows, before any arithmetic on the non-finite vector.  The
    products run on scipy's BLAS, like the operators: numpy and scipy each
    load their own OpenBLAS, and a threaded numpy product leaves its
    workers spinning while the scipy calls that follow it run.
    """
    n = q.shape[0]
    gemv, nrm2 = blas.get_blas_funcs(("gemv", "nrm2"), (q,))
    Q = np.empty((n, n), dtype=q.dtype, order="F")  # columns filled as used
    alpha = np.empty(n)
    beta = np.empty(n)
    for k in range(n):
        Q[:, k] = q
        Qk = Q[:, : k + 1]
        w = apply(q)
        c = gemv(1.0, Qk, w, trans=2)  # Qk^H w
        alpha[k] = c[k].real
        w = gemv(-1.0, Qk, c, beta=1.0, y=w, overwrite_y=1)  # w - Qk c
        # a second Gram-Schmidt pass restores orthogonality lost to cancellation
        c = gemv(1.0, Qk, w, trans=2)
        w = gemv(-1.0, Qk, c, beta=1.0, y=w, overwrite_y=1)
        beta[k] = nrm2(w)
        if not np.isfinite(beta[k]):
            return np.inf
        d, e = alpha[: k + 1], beta[: max(k, 1)]  # the wrappers want len(e) >= 1
        _, ritz, block, split, info = lapack.dstebz(d, e, 2, 0.0, 0.0, k + 1, k + 1, 0.0, "B")
        y, info_y = lapack.dstein(d, e, ritz[:1], block, split)
        if info or info_y:
            raise NumericalError(f"Lanczos Ritz pair failed (dstebz {info}, dstein {info_y})")
        theta = float(ritz[0])
        if beta[k] * abs(y[-1, 0]) <= tol(theta):
            break
        q = w / beta[k]
    return theta


def energy_norm(gen: GramSystem) -> float:
    """Energy operator norm of ``A``, ``sigma_max(T)``, computed once and cached on ``gen``.

    The one definition of the energy norm.  Lanczos (:func:`_top_eigenvalue`)
    on ``T^H T = U^{-T} F^H M^{-1} F U^{-1}``, each step two banded
    products with the flux and four banded triangular solves
    (:class:`_BandFactors`), until the Ritz residual is at most ``2 eps
    theta``, which moves ``sigma_max = theta^{1/2}`` by at most ``eps``
    relative.
    """
    if gen._norm is None:
        b = _BandFactors(gen)
        theta = _top_eigenvalue(b.normal, b.start.copy(), lambda t: 2.0 * _EPS * t)
        gen._norm = b.scale * float(np.sqrt(theta))
    return gen._norm


class EnergyCoordinates(NamedTuple):
    """Generator or block in coordinates where the Gram is the identity.

    ``T = U A U^{-1}`` with ``M = U^T U``; energy operator norms of functions
    of ``A`` equal Euclidean norms of the same functions of ``T``.
    ``norm_A`` is :func:`energy_norm`, the energy operator norm of ``A``.
    """

    T: np.ndarray
    norm_A: float


def transform_flux(flux: np.ndarray, U: np.ndarray) -> np.ndarray:
    """``U^{-T} flux U^{-1}``, the generator in energy coordinates.

    Equals ``U A U^{-1}`` for ``flux = gram A`` and ``gram = U^T U``, but the
    congruence-style evaluation preserves the assembled symmetric part.  The
    second solve runs in the first one's buffer, transposed in place, so the
    transform holds two ``dim^2`` arrays besides ``U`` instead of three.
    """
    try:
        left = sla.solve_triangular(U.T, flux, lower=True)  # Fortran-ordered
        _transpose_in_place(left)
        return sla.solve_triangular(U.T, left, lower=True, overwrite_b=True).T
    except sla.LinAlgError as exc:  # pragma: no cover - U is an SPD factor
        raise NumericalError(f"energy transform failed: {exc}") from exc


def _transpose_in_place(a: np.ndarray, block: int = 256) -> None:
    """Transpose a square array in place, one pair of ``block``-square tiles at a time."""
    n = a.shape[0]
    for i in range(0, n, block):
        rows = slice(i, i + block)
        a[rows, rows] = a[rows, rows].T.copy()
        for j in range(i + block, n, block):
            cols = slice(j, j + block)
            upper = a[rows, cols].copy()
            a[rows, cols] = a[cols, rows].T
            a[cols, rows] = upper.T


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def energy_coordinates(gen: GramSystem) -> EnergyCoordinates:
    """Similarity transform of a generator or block by the Cholesky factor of its Gram.

    Computed on the first call and cached on the object; later calls
    return the same object.
    """
    if gen._coords is None:
        T = transform_flux(gen.flux, gen._factor())
        gen._coords = EnergyCoordinates(T=_frozen(T), norm_A=energy_norm(gen))
    return gen._coords


def _energy_eigenvalues(gen: GramSystem) -> np.ndarray:
    """Eigenvalues of ``T`` by a dense ``eigvals``, in LAPACK order.

    The route of :func:`towerstab.spectral.energy_spectrum` for objects
    without a modal form, and the reference that form is tested against;
    the spectrum is cached there, not here.
    """
    try:
        lam = sla.eigvals(energy_coordinates(gen).T)
    except sla.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    return _frozen(lam)
