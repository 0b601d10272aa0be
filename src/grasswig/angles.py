"""Principal angles between equal-rank subspaces.

Two independent routes are provided: the spectral one (eigenvalues of
``QPQ``, the defining construction) and the SVD one (singular values of
``Bp* @ Bq``, the numerically stable classic).  They are kept separate so
each can serve as an oracle for the other; ``principal_angles`` returns
the spectral answer unless the two disagree on an angle below
``SMALL_ANGLE``, where it returns the SVD one.  Neither route is accurate
at small angles: both work from cosines, so an angle below about 1e-6 rad
carries an error of about 1e-8 rad whichever route answers (measured at
d = 6, n = 2: at 1e-9 rad the spectral route returns about 25 times the
angle and the SVD route returns 0).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import ConvergenceFailure, DimensionMismatch, InternalInconsistency, RankMismatch
from .linalg import svd
from .projections import Projection, Subspace, subspace_from_projector
from .tolerances import DEFAULT_TOL, ToleranceConfig

SMALL_ANGLE = 1e-4


def _clamped_cos2(values: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Clamp a cos^2 spectrum into [0, 1], erroring on large excursions.

    Silent clamping of anything beyond ``spec_tol`` would mask bugs, so the
    excursion is measured first.
    """
    excursion = max(float(-values.min(initial=0.0)), float(values.max(initial=1.0) - 1.0), 0.0)
    if excursion > tol.spec_tol:
        raise InternalInconsistency(
            f"cos^2 spectrum leaves [0,1] by {excursion:.3e} (> {tol.spec_tol:.1e})"
        )
    return np.clip(values, 0.0, 1.0)


@dataclass(frozen=True, eq=False)
class PrincipalAngles:
    """Angles in [0, pi/2] ascending, plus the full cos^2 spectrum.

    ``cos2_spectrum`` is the complete d-element eigenvalue multiset of
    ``QPQ`` in descending order, zeros included; ``angles`` has one entry
    per dimension of the common rank.
    """

    angles: np.ndarray
    cos2_spectrum: np.ndarray
    tol: InitVar[ToleranceConfig | None] = None

    def __post_init__(self, tol: ToleranceConfig | None) -> None:
        t = tol or DEFAULT_TOL
        angles = np.asarray(self.angles, dtype=np.float64)
        cos2 = np.asarray(self.cos2_spectrum, dtype=np.float64)
        n = angles.size
        if n > cos2.size:
            raise ValueError("more angles than spectrum entries")
        expected = np.arccos(np.sqrt(_clamped_cos2(cos2[:n], t)))
        if n and float(np.max(np.abs(np.sort(angles) - expected))) > t.spec_tol:
            raise InternalInconsistency("angles do not match the top of the cos^2 spectrum")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "cos2_spectrum", cos2)

    @property
    def degrees(self) -> np.ndarray:
        return np.degrees(self.angles)


def _check_pair(p, q) -> None:
    if p.ambient_dim != q.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {p.ambient_dim} vs {q.ambient_dim}"
        )
    if p.rank != q.rank:
        raise RankMismatch(f"ranks differ: {p.rank} vs {q.rank}")


def qpq_spectrum(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Eigenvalues of ``QPQ`` in ascending order, zeros included, for the
    projection matrices ``p`` and ``q``; for matching ``(k, d, d)`` stacks,
    row i holds the spectrum of pair i, from one stacked ``eigvalsh``.

    This full d-element multiset is the angle invariant: it holds the cos^2
    of the principal angles, and its sum is the trace form ``tr PQ``.
    """
    # q p q is Hermitian up to roundoff for validated projections
    try:
        return np.linalg.eigvalsh(q @ p @ q)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigvalsh did not converge: {exc}") from exc


def principal_angles_spectral(p: Projection, q: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> PrincipalAngles:
    """Angles as arccos of the square roots of the eigenvalues of ``QPQ``."""
    _check_pair(p, q)
    w = qpq_spectrum(p.matrix, q.matrix)
    cos2 = _clamped_cos2(w[::-1].copy(), tol)  # descending
    angles = np.arccos(np.sqrt(cos2[: p.rank]))
    return PrincipalAngles(angles, cos2, tol=tol)


def principal_angles_svd(sp: Subspace, sq: Subspace, tol: ToleranceConfig = DEFAULT_TOL) -> PrincipalAngles:
    """Angles as arccos of the singular values of ``Bp* @ Bq``."""
    _check_pair(sp, sq)
    _, s, _ = svd(sp.basis.conj().T @ sq.basis)
    cosines = _clamped_cos2(s, tol)  # singular values themselves live in [0,1]
    angles = np.arccos(cosines)
    cos2 = np.concatenate([cosines**2, np.zeros(sp.ambient_dim - sp.rank)])
    return PrincipalAngles(angles, cos2, tol=tol)


def principal_angles(p: Projection, q: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> PrincipalAngles:
    """Spectral-route angles, deferring to the SVD route at small angles.

    ``arccos(sqrt(lambda))`` is ill-conditioned near lambda = 1, so when the
    two routes disagree by more than 10x ``spec_tol`` on an angle below
    ``SMALL_ANGLE`` radians, the SVD result is authoritative.
    """
    spectral = principal_angles_spectral(p, q, tol)
    if p.rank == 0 or float(spectral.angles.min(initial=np.inf)) >= SMALL_ANGLE:
        return spectral
    stable = principal_angles_svd(subspace_from_projector(p, tol), subspace_from_projector(q, tol), tol)
    if float(np.max(np.abs(stable.angles - spectral.angles))) > 10.0 * tol.spec_tol:
        return stable
    return spectral


def angles_equal(
    p: Projection,
    q: Projection,
    p2: Projection,
    q2: Projection,
    tol_value: float,
) -> bool:
    """Whether the two pairs subtend the same principal angles.

    Compares the full d-element eigenvalue multisets of ``QPQ`` and
    ``Q2 P2 Q2`` entrywise after sorting: Hermitian operators are unitarily
    equivalent exactly when their spectra (with multiplicity) coincide, and
    for equal-rank pairs that criterion reduces to equality of angles.
    """
    for a, b in ((p, p2), (q, q2), (p, q2)):
        if a.ambient_dim != b.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
            )
    if p.rank != p2.rank or q.rank != q2.rank:
        raise RankMismatch(
            f"ranks differ: ({p.rank}, {q.rank}) vs ({p2.rank}, {q2.rank})"
        )
    return spectrum_discrepancy(p, q, p2, q2) <= tol_value


def spectrum_discrepancy(
    p: Projection,
    q: Projection,
    p2: Projection,
    q2: Projection,
) -> float:
    """Max entrywise gap between the sorted spectra of ``QPQ`` and ``Q2 P2 Q2``."""
    return float(np.max(np.abs(qpq_spectrum(p.matrix, q.matrix) - qpq_spectrum(p2.matrix, q2.matrix))))
