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
the energy coordinates, the energy norm, the spectrum and the modal form
are computed once per generator or block and cached on it.

The Gram and the flux are stored in one form only, LAPACK general band
storage in the band order of :func:`_band_order` (:class:`_Band`), where
every assembled model has bandwidth 5 and 7: ``O(dim)`` floats, not
``dim**2``.  The assembly writes these bands directly, and the energy norm,
the banded Cholesky factor of the Gram (kept from its validation), products
with the flux, a banded LU of it, the dissipation defect and the passivity
certificate all read them.  A dense argument is converted once, when the
object is built, and ``gram`` and ``flux`` read back as dense read-only
arrays, formed from the bands on each read, for the consumers that are
dense by nature (``A``, the energy coordinates, the resolvents of blocks of
a few states).
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

#: Complex entries of the largest temporary of a stacked computation (128
#: kB).  A stacked solve or SVD of shifted matrices takes up to this many
#: matrix entries: the checks' grids of 120 to 400 frequencies on the 1-3-state
#: control blocks fit in one stack, while a beam-sized system (dim >= 91)
#: takes one frequency at a time.  The modal resolvent route and the modal
#: root solves take ``STACK_ENTRIES // dim`` frequencies or roots at once.
STACK_ENTRIES = 1 << 13


class DampingChannel(NamedTuple):
    """One term of a closed-form dissipation identity.

    The generator satisfies ``Re <A z, z>_M = -sum_i gain_i * (vector_i . z)^2``.
    Channels with ``gain == 0`` are kept so the signal is still recorded
    during simulation.
    """

    name: str
    gain: float
    vector: np.ndarray


class _Band(NamedTuple):
    """A square matrix ``B`` in LAPACK general band storage, ``ab[ku + i - j,
    j] = B[i, j]`` for ``-kl <= j - i <= ku``, with ``ab`` in Fortran order;
    every entry of ``B`` outside the band is zero, and so are the corners of
    ``ab`` outside the matrix.  A Gram system stores its Gram and flux in
    this form, in its band order (:func:`_band_order`), on the band of
    their nonzero entries, and the beam its ``K`` and ``Mrho``."""

    ab: np.ndarray
    kl: int
    ku: int

    @property
    def n(self) -> int:
        return self.ab.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    @classmethod
    def of(cls, A: np.ndarray, order: np.ndarray) -> _Band:
        """The band of a dense ``A[order][:, order]``, sized from every nonzero
        and read one diagonal at a time, in ``O(dim)`` temporaries; every
        entry inside it keeps its bytes, signed zeros included."""
        n, (kl, ku) = order.size, _bandwidths(A, order)
        band = cls(np.zeros((kl + ku + 1, n), A.dtype, order="F"), kl, ku)
        for d in range(-kl, ku + 1):  # B[i, i + d] for the rows i that have it
            i = np.arange(max(0, -d), n - max(0, d))
            band.diagonal(d)[...] = A[order[i], order[i + d]]
        return band

    @classmethod
    def from_entries(cls, n: int, i: np.ndarray, j: np.ndarray, v: np.ndarray) -> _Band:
        """The ``n x n`` matrix with ``B[i, j] = v`` at distinct positions, zero
        elsewhere, on the band of its nonzero entries (a zero outside it is dropped)."""
        offset = j - i
        reach = offset[v != 0]  # NaN counts as nonzero
        kl, ku = max(0, -int(reach.min(initial=0))), max(0, int(reach.max(initial=0)))
        inside = (offset >= -kl) & (offset <= ku)
        ab = np.zeros((kl + ku + 1, n), v.dtype, order="F")
        ab[ku - offset[inside], j[inside]] = v[inside]
        return cls(ab, kl, ku)

    def diagonal(self, d: int) -> np.ndarray:
        """``B[i, i + d]`` for the rows ``i`` that have it, as a view; ``-kl <= d <= ku``."""
        return self.ab[self.ku - d, max(0, d) : self.n + min(0, d)]

    def entries(self, rows: np.ndarray | None = None, cols: np.ndarray | None = None):
        """Row ``i``, column ``j`` and value of every band position inside the
        matrix; with ``rows`` and ``cols``, ``(rows[i], cols[j])`` in place of
        ``(i, j)``, at the positions where neither is negative."""
        n, offsets = self.n, range(-self.kl, self.ku + 1)
        i = np.concatenate([np.arange(max(0, -d), n - max(0, d)) for d in offsets])
        j = i + np.concatenate([np.full(n - abs(d), d) for d in offsets])
        v = np.concatenate([self.diagonal(d) for d in offsets])
        if rows is None:
            return i, j, v
        a, b = rows[i], cols[j]
        keep = (a >= 0) & (b >= 0)
        return a[keep], b[keep], v[keep]

    def copy(self, dtype=None) -> _Band:
        return _Band(self.ab.astype(dtype or self.ab.dtype, order="F"), self.kl, self.ku)

    def widened(self, kl: int, ku: int) -> _Band:
        """The same matrix on the band ``(max(kl, self.kl), max(ku, self.ku))``
        (``self`` when that is its own)."""
        kl, ku = max(kl, self.kl), max(ku, self.ku)
        if (kl, ku) == (self.kl, self.ku):
            return self
        ab = np.zeros((kl + ku + 1, self.n), self.ab.dtype, order="F")
        ab[ku - self.ku : ku + self.kl + 1] = self.ab
        return _Band(ab, kl, ku)

    def adjoint(self) -> _Band:
        """``B^H``, on the band of its nonzero entries."""
        i, j, v = self.entries()
        return _Band.from_entries(self.n, j, i, v.conj())

    def add(self, i: np.ndarray, j: np.ndarray, v: np.ndarray) -> _Band:
        """``B[i, j] += v`` in place at distinct positions (broadcast
        together), on the band widened to reach them; returns that band."""
        band = self.widened(int(np.max(i - j, initial=0)), int(np.max(j - i, initial=0)))
        band.ab[band.ku + i - j, j] += v
        return band

    def sub(self, states: np.ndarray) -> _Band:
        """The band of ``B[np.ix_(states, states)]``."""
        local = np.full(self.n, -1)
        local[states] = np.arange(states.size)
        return _Band.from_entries(states.size, *self.entries(local, local))

    def dense(self, order: np.ndarray | None = None, layout: str = "C") -> np.ndarray:
        """Dense ``A`` with ``A[order][:, order] = B`` (``B`` itself by default)."""
        order = np.arange(self.n) if order is None else order
        i, j, v = self.entries(order, order)
        A = np.zeros(self.shape, v.dtype, order=layout)
        A[i, j] = v
        return A


def check_spd(M: np.ndarray | _Band, name: str = "gram") -> np.ndarray:
    """Validate that a square ``M`` is symmetric positive definite, on its band.

    ``M`` is a :class:`_Band`, or a dense array taken on the band of its
    nonzero entries.  Returns the upper band Cholesky factor of that band.
    Raises :class:`ValidationError` if an entry is not finite, if ``M`` is
    not symmetric to within ``SYMMETRY_RTOL`` relative or if any Cholesky
    pivot fails.
    """
    if not isinstance(M, _Band):
        M = _real(M, name)
        M = _Band.of(M, np.arange(M.shape[0]))
    k = max(M.kl, M.ku)
    upper, lower = (B.widened(k, k).ab[: k + 1] for B in (M, M.adjoint()))
    if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
        raise ValidationError(f"{name} has non-finite entries")
    scale = max(np.abs(upper).max(initial=0.0), np.abs(lower).max(initial=0.0)) or 1.0
    if np.abs(upper - lower).max(initial=0.0) > SYMMETRY_RTOL * scale:
        raise ValidationError(f"{name} is not symmetric to {SYMMETRY_RTOL} relative")
    try:
        return sla.cholesky_banded(upper, lower=False)
    except sla.LinAlgError as exc:
        raise ValidationError(f"{name} is not positive definite: {exc}") from exc


def symmetric_part(F: np.ndarray) -> np.ndarray:
    """Hermitian part of a square matrix, or of each matrix of a stack,
    halved before the sum, so that it overflows only where ``F`` does."""
    return 0.5 * F + 0.5 * F.conj().swapaxes(-1, -2)


class GramSystem:
    """State space with an energy Gram and the assembled ``flux = gram @ A``.

    The core of generators and passive blocks, constructed from the two
    arrays an assembly produces, each a :class:`_Band` in the band order of
    ``labels`` or a dense array, which is converted once.  The bands are the
    only stored form; ``gram`` and ``flux`` read them back as dense
    read-only arrays, formed on each read.  The Gram is checked symmetric
    positive definite on construction, and :func:`check_spd`'s band
    Cholesky factor is kept.  ``A`` is derived on first read by one
    Cholesky solve.  ``labels`` names the states, one unique label each, or
    is ``None`` for an unlabelled object; a system labelled with the beam
    layout (:func:`_beam_size`) has the band order and the modal form of
    the beam.  Instances are immutable by convention, so
    :func:`energy_norm`, :func:`energy_coordinates`, the spectrum
    (:func:`towerstab.spectral.energy_spectrum`), the undamped beam modes
    (:func:`towerstab.timesim.beam_modes`) and the modal form the spectrum
    and the resolvent norms read (:func:`towerstab.modal._modal_form`)
    cache their data on the object.
    """

    def __init__(
        self,
        gram: np.ndarray | _Band,
        flux: np.ndarray | _Band,
        labels: Sequence[str] | None = None,
    ):
        if not isinstance(gram, _Band):
            gram = _real(gram, "gram")
            if gram.ndim != 2 or gram.shape[0] != gram.shape[1]:
                raise DimensionError(f"gram must be square, got shape {gram.shape}")
        flux = flux if isinstance(flux, _Band) else self._matrix(flux)
        n = gram.shape[0]
        if flux.shape != (n, n):
            raise DimensionError(f"flux must be {n}x{n} like gram, got {flux.shape}")
        self.labels = None if labels is None else tuple(labels)
        if self.labels is not None:
            if len(self.labels) != n:
                raise DimensionError(f"expected {n} labels, got {len(self.labels)}")
            if len(set(self.labels)) != n:
                raise ValidationError("coordinate labels must be unique")
        order = _layout_order(self.labels, n)
        self._gram, self._flux = (_stored(a, order) for a in (gram, flux))
        self._band_U = check_spd(self._gram, "gram")
        self._A: np.ndarray | None = None
        self._norm: float | None = None
        self._T: np.ndarray | None = None
        self._eigenvalues = None  # a spectral.Spectrum once computed
        self._modes: tuple[np.ndarray, np.ndarray] | None = None
        self._modal = None  # a modal._ModalForm, or False without one, once built

    @staticmethod
    def _matrix(M: np.ndarray) -> np.ndarray:
        return _real(M, "flux")

    @property
    def gram(self) -> np.ndarray:
        """The Gram, dense and read-only, formed from its band on each read."""
        return _frozen(self._gram.dense(_band_order(self)))

    @property
    def flux(self) -> np.ndarray:
        """The flux, dense and read-only, formed from its band on each read."""
        return _frozen(self._flux.dense(_band_order(self)))

    def _factor(self) -> np.ndarray:
        """Upper Cholesky factor ``U`` of the (validated) Gram, ``gram = U^T U``.

        The kept band factor, read densely in the natural state order.  The
        band order keeps the displacements, the velocities and the block
        states each in their own order, and no Gram of an assembly, a block
        or a coupling has an entry between those groups, so its factor has
        none either and the read is upper triangular.  A Gram that couples
        them is factored densely.
        """
        U = _Band(self._band_U, 0, self._band_U.shape[0] - 1).dense(_band_order(self))
        if np.tril(U, -1).any():
            return sla.cholesky(self.gram, lower=False)
        return U

    @property
    def A(self) -> np.ndarray:
        """Explicit state matrix ``gram^{-1} flux``."""
        if self._A is None:
            self._A = sla.cho_solve((self._factor(), False), self.flux)
        return self._A

    @property
    def dim(self) -> int:
        return self._gram.n

    def index(self, label: str) -> int:
        """Coordinate index of a labelled state component."""
        try:
            return (self.labels or ()).index(label)
        except ValueError:
            raise KeyError(f"no coordinate labelled {label!r}") from None


def _real(M, name: str) -> np.ndarray:
    """``M`` as a float array; a complex ``M`` raises :class:`ValidationError`
    rather than losing its imaginary part."""
    M = np.asarray(M)
    if np.iscomplexobj(M):
        raise ValidationError(f"{name} must be real, got a {M.dtype} array")
    return M.astype(float, copy=False)


def _stored(a: np.ndarray | _Band, order: np.ndarray) -> _Band:
    """The one stored form of a Gram or flux: the read-only band of its
    nonzero entries in ``order``, converted once from a dense ``a``."""
    band = _Band.from_entries(a.n, *a.entries()) if isinstance(a, _Band) else _Band.of(a, order)
    return band._replace(ab=_frozen(band.ab))


class DiscreteGenerator(GramSystem):
    """Generator in descriptor form: energy Gram, assembled flux, coordinate labels.

    Constructed once from the ``gram`` and ``flux`` an assembly produces;
    the explicit ``A`` is only ever derived.  ``damping_channels`` carries
    the model's closed-form dissipation identity so that ``sym(flux) = -sum
    gain_i v_i v_i^T``; its names are unique, since a simulation records
    each channel under its name.  ``blocks`` is the pair of passive blocks
    a generator was coupled from (set by
    :func:`~towerstab.passive_core.couple_systems`), ``None`` otherwise.
    The dissipation defect is computed once and cached.
    """

    def __init__(
        self,
        *,
        gram: np.ndarray | _Band,
        flux: np.ndarray | _Band,
        labels: Sequence[str],
        damping_channels: tuple[DampingChannel, ...] = (),
    ):
        super().__init__(gram, flux, labels)
        self.damping_channels = tuple(damping_channels)
        names = [ch.name for ch in self.damping_channels]
        if len(set(names)) != len(names):
            raise ValidationError(f"damping channel names must be unique, got {names}")
        self.blocks = None
        self._defect: float | None = None

    def unit_state(self, label: str) -> np.ndarray:
        z = np.zeros(self.dim)
        z[self.index(label)] = 1.0
        return z

    def dissipation_defect(self) -> float:
        """Largest eigenvalue of ``sym(gram A)``; <= 0 means Gram-dissipative.

        Computed once, on the band of the flux, and cached."""
        if self._defect is None:
            self._defect = _top_hermitian_eigenvalue(self._flux)
        return self._defect


def _top_hermitian_eigenvalue(F: _Band) -> float:
    """Largest eigenvalue of ``sym(F)``, real or complex: one ``eigvals_banded``
    on its band, ``O(dim k^2)`` for a band ``k`` wide (the largest entry
    when that band is diagonal).  Each half is halved before the sum, so
    the band overflows only where ``F`` does."""
    k = max(F.kl, F.ku)
    band = 0.5 * F.widened(k, k).ab[: k + 1] + 0.5 * F.adjoint().widened(k, k).ab[: k + 1]
    # outer diagonals that vanish are dropped (on the models, all but the damped states')
    used = np.flatnonzero(band.any(axis=1))
    band = band[used[0] if used.size else k :]
    if band.shape[0] == 1:  # a diagonal sym(F): its eigenvalues are its entries
        return float(band.real.max())
    top = F.n - 1
    return float(sla.eigvals_banded(band, select="i", select_range=(top, top))[0])


def _beam_size(labels: Sequence[str] | None) -> int:
    """``n`` with beam state ``q = z[:n]``, ``v = z[n:2n]`` for a system with
    these ``labels``: every assembly and the beam's tip block lead with the
    beam core, whose last state is ``tip_angular_velocity``; each node adds
    four states to it."""
    try:
        end = list(labels or ()).index("tip_angular_velocity") + 1
    except ValueError:
        raise ValidationError("generator does not carry beam blocks") from None
    if end % 4:
        raise ValidationError(f"tip_angular_velocity at index {end - 1} ends no whole beam node")
    return end // 2


def _band_order(gen: GramSystem) -> np.ndarray:
    """State order in which the Gram and the flux are banded.

    A generator or block with the beam layout (:func:`_beam_size`) takes
    each beam node's displacement, slope and their two velocities together,
    node by node, and its block states last, in their own order; its Gram
    and flux then have bandwidth 5 and 7.  Any other object keeps the
    identity order.
    """
    return _layout_order(gen.labels, gen.dim)


def _layout_order(labels: Sequence[str] | None, dim: int) -> np.ndarray:
    """:func:`_band_order` of a system of ``dim`` states with these ``labels``."""
    if "tip_angular_velocity" in (labels or ()):
        n = _beam_size(labels)
        q = np.arange(n).reshape(-1, 2)  # (displacement, slope) of each node
        return np.concatenate([np.hstack([q, q + n]).ravel(), np.arange(2 * n, dim)])
    return np.arange(dim)


def _rank(order: np.ndarray) -> np.ndarray:
    """Position of each state in ``order``, the inverse permutation."""
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank


def _beam_blocks(gen: GramSystem) -> tuple[_Band, _Band]:
    """The bands of the beam's ``K = gram[:n, :n]`` and ``M = gram[n:2n,
    n:2n]``, each in its own state order, read off the Gram's band."""
    n = _beam_size(gen.labels)
    rank = _rank(_band_order(gen))
    return gen._gram.sub(rank[:n]), gen._gram.sub(rank[n : 2 * n])


def _bandwidths(A: np.ndarray, order: np.ndarray) -> tuple[int, int]:
    """Lower and upper bandwidth ``(kl, ku)`` of ``A[order][:, order]``,
    read off the nonzeros of ``A`` by one scan, without a permuted copy."""
    # ten times faster than np.nonzero(A) on a dense float array
    rows, cols = np.divmod(np.flatnonzero(A != 0), A.shape[1])
    rank = _rank(order)
    offset = rank[cols] - rank[rows]
    return max(0, -int(offset.min(initial=0))), max(0, int(offset.max(initial=0)))


def _block_diagonal(blocks: Sequence[tuple[_Band, np.ndarray]], order: np.ndarray) -> _Band:
    """The band in ``order`` of ``blkdiag(A_1, A_2, ...)``, from the band and
    the band order ``(B_i, order_i)`` of each ``A_i``."""
    rank, start, parts = _rank(order), 0, []
    for band, own in blocks:
        parts.append(band.entries(rank[start + own], rank[start + own]))
        start += band.n
    return _Band.from_entries(start, *(np.concatenate(p) for p in zip(*parts)))


def _band_times(gbmv, ab, kl, ku, x, alpha=1.0, trans=0) -> np.ndarray:
    """``alpha B x``, or ``alpha B^H x`` for ``trans=2``, by ``gbmv`` on the band
    ``ab`` of a :class:`_Band`.  scipy's ``?gbmv`` wrapper asks for at least
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
    system's stored bands on one common pair of bandwidths ``kl`` and
    ``ku`` (7 and 7 on the assembled models, the flux's own), and ``U`` is
    the system's kept band Cholesky factor of the permuted Gram.  A band
    is widened to the common pair only where the two differ, and not
    cached on the object, so that a wide band does not outlive its solve;
    the ``gram`` band, which only the midpoint loop reads, on first read.
    The operators act on vectors in the band order, with real or complex
    BLAS as the flux is real or complex.  ``T^H T`` squares the norm of
    ``T``, so the Lanczos operators act on ``T / scale``, where ``scale`` is
    the power of two just above ``|T q|`` for the Lanczos start vector
    ``q`` (:func:`_start`): no Lanczos step then overflows where ``T`` does
    not.
    """

    def __init__(self, gen: GramSystem):
        self._gen = gen
        self.order = _band_order(gen)
        k = gen._band_U.shape[0] - 1
        self.kl, self.ku = max(k, gen._flux.kl), max(k, gen._flux.ku)
        self.flux = gen._flux.widened(self.kl, self.ku).ab
        self.U = gen._band_U.astype(self.flux.dtype, copy=False)
        self._tbsv, self._gbmv, self._nrm2 = blas.get_blas_funcs(
            ("tbsv", "gbmv", "nrm2"), dtype=self.flux.dtype
        )

    @cached_property
    def gram(self) -> np.ndarray:
        return self._gen._gram.widened(self.kl, self.ku).ab

    @cached_property
    def scale(self) -> float:
        x = self._solve_U(_start(self._gen.dim, self.flux.dtype))
        Tq = self._solve_U(_band_times(self._gbmv, self.flux, self.kl, self.ku, x), trans=1)
        return math.ldexp(1.0, math.frexp(self._nrm2(Tq))[1])

    def _solve_U(self, x: np.ndarray, trans: int = 0) -> np.ndarray:
        """``U^{-1} x``, or ``U^{-T} x`` for ``trans=1``, in place."""
        return self._tbsv(self.U.shape[0] - 1, self.U, x, trans=trans, overwrite_x=1)

    def _times_U(self, x: np.ndarray, trans: int = 0) -> np.ndarray:
        """``U x``, or ``U^T x`` for ``trans=1``, by ``?gbmv`` on ``U``'s upper
        band: OpenBLAS splits ``?tbmv`` over its threads at every size, and
        a cold worker costs more than the product at the desk size."""
        n = x.shape[0]
        return self._gbmv(n, n, 0, self.U.shape[0] - 1, 1.0, self.U, x, trans=trans)

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


def _start(n: int, dtype) -> np.ndarray:
    """The unit start vector of every Lanczos run on ``n`` entries: a
    ``default_rng(0)`` real draw, plus ``1j`` times a second draw for a
    complex operator."""
    rng = np.random.default_rng(0)
    q = rng.standard_normal(n)
    if np.dtype(dtype).kind == "c":
        q = q + 1j * rng.standard_normal(n)
    return q / blas.get_blas_funcs("nrm2", (q,))(q)


def _top_eigenvalues(
    apply: Callable[[np.ndarray], np.ndarray],
    Q: np.ndarray,
    tol: Callable[[np.ndarray, np.ndarray], np.ndarray],
    keep: Callable[[np.ndarray], None] | None = None,
) -> np.ndarray:
    """Largest eigenvalue of each of a stack of Hermitian positive
    semidefinite operators, one per row of the unit start vectors ``Q``.

    Lanczos with two-pass full reorthogonalisation; ``apply(X)`` multiplies
    each row of ``X`` by its operator and may overwrite ``X``.  Each step
    solves each row's top Ritz pair ``(theta, y)`` by ``dstebz`` and
    ``dstein``, ``O(k)`` at step ``k``.  A row stops once its Ritz residual
    ``beta_k |y_k|``, which bounds the distance of ``theta`` to an
    eigenvalue, is at most ``tol(theta, rows)`` (``rows`` its indices into
    ``Q``; ``dim eps theta`` for :func:`energy_norm`, the scale of a dense
    SVD of ``T``, and ``spectral._ritz_tolerance`` for the inverse runs),
    or at ``k = dim``, where ``theta`` is exact; a row whose step
    overflows, ``beta_k^2`` included, gets ``inf``.  Stopped rows are
    dropped once a quarter have stopped, and ``keep(mask)`` filters the
    caller's per-row state the same way.  The Gram-Schmidt products are
    numpy's stacked products, one row per BLAS call, so a row's ``theta``
    does not depend on the stack.
    """
    n_rows, dim = Q.shape
    theta = np.full(n_rows, np.inf)
    live = np.arange(n_rows)  # the index into Q of each row
    running = np.ones(n_rows, dtype=bool)  # rows that have not stopped
    q = Q
    Qh = np.empty((n_rows, 0, dim), dtype=Q.dtype)  # Lanczos vectors
    alpha, beta = np.empty((n_rows, dim)), np.empty((n_rows, dim))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow gives theta = inf
        for k in range(dim):
            if k == Qh.shape[1]:
                Qh = np.concatenate([Qh, np.empty((live.size, max(k, 8), dim), Q.dtype)], axis=1)
            Qh[:, k] = q
            w = apply(q)
            Qk = Qh[:, : k + 1]
            for first in (True, False):  # a second pass restores orthogonality lost to cancellation
                c = (Qk @ w.conj()[:, :, None])[:, :, 0].conj()
                w -= (c[:, None, :] @ Qk)[:, 0]
                if first:
                    alpha[:, k] = c[:, k].real
            beta[:, k] = np.linalg.norm(w, axis=1)
            rows = np.flatnonzero(running & np.isfinite(beta[:, k] ** 2))  # dstebz squares beta
            ritz, y = np.empty(rows.size), np.empty(rows.size)
            for j, i in enumerate(rows.tolist()):
                d, e = alpha[i, : k + 1], beta[i, : max(k, 1)]  # the wrappers want len(e) >= 1
                _, r, block, split, info = lapack.dstebz(d, e, 2, 0.0, 0.0, k + 1, k + 1, 0.0, "B")
                v, info_v = lapack.dstein(d, e, r[:1], block, split)
                if info or info_v:
                    raise NumericalError(f"Lanczos Ritz pair failed (dstebz {info}, dstein {info_v})")
                ritz[j], y[j] = r[0], v[-1, 0]
            stop = running.copy()  # an overflowing row stops at theta = inf
            done = (beta[rows, k] * np.abs(y) <= tol(ritz, live[rows])) | (k == dim - 1)
            stop[rows] = done
            theta[live[rows[done]]] = ritz[done]
            running &= ~stop
            if not running.any():
                break
            if 4 * running.sum() <= 3 * running.size:  # drop the stopped rows
                if keep is not None:
                    keep(running)
                live, Qh, alpha, beta, w, running = (
                    a[running] for a in (live, Qh, alpha, beta, w, running)
                )
            q = w / beta[:, k, None]  # a stopped row may turn non-finite; none reads it
    return theta


def energy_norm(gen: GramSystem) -> float:
    """Energy operator norm of ``A``, ``sigma_max(T)``, computed once and cached on ``gen``.

    The one definition of the energy norm.  Lanczos (:func:`_top_eigenvalues`,
    one row) on ``T^H T = U^{-T} F^H M^{-1} F U^{-1}``, each step two banded
    products with the flux and four solves with the Gram's kept band factor
    (:class:`_BandFactors`), until the Ritz residual is at most ``dim eps
    theta``, which moves ``sigma_max = theta^{1/2}`` by at most ``dim eps /
    2`` relative: the accuracy scale of a backward-stable dense SVD of
    ``T``.  A rule near ``eps theta`` would sit on the roundoff plateau of
    the last Ritz-vector component of the nearly double top singular
    value, where the last bit of a product decides the step count.
    """
    if gen._norm is None:
        b = _BandFactors(gen)
        (theta,) = _top_eigenvalues(
            lambda X: b.normal(X[0])[None], _start(gen.dim, b.flux.dtype)[None],
            lambda t, _: gen.dim * _EPS * t,
        )
        gen._norm = b.scale * float(np.sqrt(theta))
    return gen._norm


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


def energy_coordinates(gen: GramSystem) -> np.ndarray:
    """``T = U A U^{-1}``, a generator or block in coordinates where the Gram
    ``M = U^T U`` is the identity, read-only.

    Energy operator norms of functions of ``A`` equal Euclidean norms of the
    same functions of ``T``.  Computed on the first call and cached on the
    object; later calls return the same array.
    """
    if gen._T is None:
        gen._T = _frozen(transform_flux(gen.flux, gen._factor()))
    return gen._T


def _energy_eigenvalues(gen: GramSystem) -> np.ndarray:
    """Eigenvalues of ``T`` by a dense ``eigvals``, in LAPACK order.

    The route of :func:`towerstab.spectral.energy_spectrum` for objects
    without a modal form, and the reference that form is tested against;
    the spectrum is cached there, not here.
    """
    try:
        lam = sla.eigvals(energy_coordinates(gen))
    except sla.LinAlgError as exc:
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    return _frozen(lam)
