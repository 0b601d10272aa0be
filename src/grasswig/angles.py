"""Principal angles between equal-rank subspaces.

``principal_angles`` (projections) and ``principal_angles_svd``
(orthonormal bases) read the cosines and the sines of the angles as
singular values and take each angle from its sine below pi/4 and from its
cosine above (Bjorck & Golub, Math. Comp. 27, 1973; Knyazev & Argentati,
SIAM J. Sci. Comput. 23, 2002), so an angle of 1e-12 rad, or one within
1e-9 of pi/2, is as accurate as the stored matrices.  The routes take a
basis or projection accepted at ``eq_tol`` as it is, so its Gram or
idempotency defect adds an absolute angle error of about that defect: a
basis ``[[1 + 1e-10], [0]]`` (defect 2e-10) reads a 1e-12 rad pair as
2.0e-10 rad on both routes.
``principal_angles_spectral`` takes every angle from an eigenvalue of
``QPQ``, which costs up to a few 1e-8 rad near 0 and pi/2; it stays as an
independent cross-check.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from .errors import ConvergenceFailure, InternalInconsistency, RankMismatch
from .linalg import singular_values
from .projections import Projection, Subspace, _check_same_dim
from .tolerances import DEFAULT_TOL, ToleranceConfig


def _slack(tol: ToleranceConfig) -> float:
    """How far cos^2, and sin^2 + cos^2, may stray past 1: inputs validated
    at ``eq_tol`` put either up to about 4 ``eq_tol`` past 1, and this allows
    ``spec_tol`` plus twice that."""
    return tol.spec_tol + 8.0 * tol.eq_tol


def _clamped_cos2(values: np.ndarray, tol: ToleranceConfig) -> np.ndarray:
    """Clamp a cos^2 spectrum into [0, 1], erroring on large excursions.

    Silent clamping of anything beyond ``_slack`` would mask bugs, so the
    excursion is measured first.
    """
    # a NaN makes both extremes NaN, and NaN fails the comparison below
    excursion = max(float(-values.min(initial=0.0)), float(values.max(initial=1.0) - 1.0))
    if not excursion <= _slack(tol):
        raise InternalInconsistency(f"cos^2 spectrum leaves [0,1] by {excursion:.3e} (> {_slack(tol):.1e})")
    return np.minimum(np.maximum(values, 0.0), 1.0)


@dataclass(frozen=True, eq=False)
class PrincipalAngles:
    """Angles in [0, pi/2] ascending, plus the full cos^2 spectrum.

    ``cos2_spectrum`` is the complete d-element eigenvalue multiset of
    ``QPQ`` in descending order, zeros included; ``angles`` has one entry
    per dimension of the common rank.  ``cos^2`` of the angles must match
    the top of the spectrum to ``_slack``; for an angle taken from its sine
    that checks sin^2 + cos^2 = 1.  cos^2 is flat at 0, so the check bounds
    an angle near 0 only to about ``sqrt(spec_tol)``.
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
        expected = _clamped_cos2(cos2, t)[:n]
        if n and not float(np.max(np.abs(np.cos(np.sort(angles)) ** 2 - expected))) <= _slack(t):
            raise InternalInconsistency("angles do not match the top of the cos^2 spectrum")
        object.__setattr__(self, "angles", angles)
        object.__setattr__(self, "cos2_spectrum", cos2)

    @property
    def degrees(self) -> np.ndarray:
        return np.degrees(self.angles)


def _check_pair(p, q) -> None:
    _check_same_dim(p, q)
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


def _combine(cos2: np.ndarray, sines: np.ndarray, tol: ToleranceConfig) -> PrincipalAngles:
    """Angles from the descending cos^2 spectrum and the ascending sines,
    one per angle: ``arcsin`` of each sine below 1/sqrt(2), ``arccos`` of
    the matching cosine from there up."""
    cos2 = _clamped_cos2(cos2, tol)
    angles = np.arccos(np.sqrt(cos2[: sines.size]))
    small = sines < 0.5**0.5
    angles[small] = np.arcsin(sines[small])
    return PrincipalAngles(np.sort(angles), cos2, tol=tol)


def principal_angles_svd(sp: Subspace, sq: Subspace, tol: ToleranceConfig = DEFAULT_TOL) -> PrincipalAngles:
    """Angles from the bases: cosines are the singular values of
    ``Bp* Bq``, sines those of ``Bq - Bp (Bp* Bq)``."""
    _check_pair(sp, sq)
    overlap = sp.basis.conj().T @ sq.basis
    cosines = singular_values(overlap)
    sines = singular_values(sq.basis - sp.basis @ overlap)[::-1]
    cos2 = np.concatenate([cosines**2, np.zeros(sp.ambient_dim - sp.rank)])
    return _combine(cos2, sines, tol)


def principal_angles(p: Projection, q: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> PrincipalAngles:
    """Angles from the projections: cosines are the singular values of
    ``PQ`` (their squares are the spectrum of ``QPQ``), sines the top
    ``rank`` singular values of ``Q - PQ``."""
    _check_pair(p, q)
    pq = p.matrix @ q.matrix
    sines = singular_values(q.matrix - pq)[: p.rank][::-1]
    return _combine(singular_values(pq) ** 2, sines, tol)


def angles_equal(
    p: Projection,
    q: Projection,
    p2: Projection,
    q2: Projection,
    tol_value: float,
) -> bool:
    """Whether the two pairs subtend the same principal angles: whether
    ``spectrum_discrepancy`` is at most ``tol_value``.

    Hermitian operators are unitarily equivalent exactly when their spectra
    (with multiplicity) coincide, and for equal-rank pairs that criterion
    reduces to equality of angles.
    """
    for a, b in ((p, p2), (q, q2), (p, q2)):
        _check_same_dim(a, b)
    if p.rank != p2.rank or q.rank != q2.rank:
        raise RankMismatch(f"ranks differ: ({p.rank}, {q.rank}) vs ({p2.rank}, {q2.rank})")
    return spectrum_discrepancy(p, q, p2, q2) <= tol_value


def spectrum_gaps(p: np.ndarray, q: np.ndarray, p2: np.ndarray, q2: np.ndarray) -> np.ndarray:
    """How far the pair of projection matrices ``(p2, q2)`` is from
    subtending the angles of ``(p, q)``, or, for matching ``(k, d, d)``
    stacks, row i's: the larger of the trace-form gap
    ``|tr P2 Q2 - tr PQ|``, the difference of the ``qpq_spectrum`` sums,
    and the largest entrywise gap between the two sorted spectra.  Both
    vanish exactly for a pair mapped by an angle preserver."""
    before, after = qpq_spectrum(p, q), qpq_spectrum(p2, q2)
    return np.maximum(np.abs(after.sum(axis=-1) - before.sum(axis=-1)), np.max(np.abs(before - after), axis=-1))


def spectrum_discrepancy(
    p: Projection,
    q: Projection,
    p2: Projection,
    q2: Projection,
) -> float:
    """``spectrum_gaps`` of ``(p, q)`` and ``(p2, q2)``: the larger of the
    trace-form gap and the max entrywise gap between the sorted spectra of
    ``QPQ`` and ``Q2 P2 Q2``."""
    return float(spectrum_gaps(p.matrix, q.matrix, p2.matrix, q2.matrix))
