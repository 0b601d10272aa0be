"""Real-linear extension of a rank-n projection map to Hermitian matrices.

A map defined only on rank-n projections extends uniquely, by real
linearity, to the span of those projections, which for d > n is every
Hermitian matrix.  The route goes through rank-1 projections and a shared
envelope: any n+1 orthonormal vectors ``u_k`` (a *frame*) span the rank-(n+1)
projection ``E = sum u_k u_k*``, each ``P_k = E - u_k u_k*`` has rank n, and
``u_k u_k* = (1/n) sum_j P_j - P_k``.  So n+1 oracle evaluations give the
images of all n+1 dyads of a frame (``extend_frame``); the image of a single
dyad is the first image of the frame completing its vector
(``extend_to_rank1``).  Extending a map this way is what lets the
reconstruction pipeline read off the image of every basis dyad even though
the map itself never sees a rank-1 input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadRank, InternalInconsistency, NonHermitian, NotUnit, RankDeficient
from .linalg import COMPLEX, as_complex, frobenius, hermitian_defect, hermitian_eig
from .matio import canonical_key
from .projections import Projection
from .tolerances import DEFAULT_TOL, ToleranceConfig


class RankNMap:
    """Deterministic oracle sending rank-n projections to rank-n projections.

    Outputs are validated against the projection invariants and memoized by
    a canonical serialization of the input (rounded to 12 decimal digits).
    Few queries repeat: extension frames padded by the same standard basis
    vectors (common when n + 1 approaches d), and a witness pair replayed
    after screening, as the CLI does when it writes witness files.
    """

    def __init__(
        self,
        ambient_dim: int,
        rank: int,
        fn: Callable[[Projection], Projection],
        descriptor: str = "external",
        field: str = COMPLEX,
        tol: ToleranceConfig = DEFAULT_TOL,
    ) -> None:
        if not 1 <= rank <= ambient_dim:
            raise BadRank(f"need 1 <= rank <= dim, got rank={rank}, dim={ambient_dim}")
        self.ambient_dim = ambient_dim
        self.rank = rank
        self.field = field
        self.descriptor = descriptor
        self.tol = tol
        self._fn = fn
        self._cache: dict[bytes, Projection] = {}

    def evaluate(self, p: Projection) -> Projection:
        if p.ambient_dim != self.ambient_dim:
            raise BadRank(f"input dimension {p.ambient_dim}, map expects {self.ambient_dim}")
        if p.rank != self.rank:
            raise BadRank(f"input rank {p.rank}, map expects {self.rank}")
        key = canonical_key(p.matrix)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        out = self._fn(p)
        if not isinstance(out, Projection):
            out = Projection(out, tol=self.tol)
        if out.rank != self.rank or out.ambient_dim != self.ambient_dim:
            raise InternalInconsistency(
                f"map {self.descriptor!r} returned rank {out.rank} in dim {out.ambient_dim}"
            )
        self._cache[key] = out
        return out

    def __repr__(self) -> str:  # pragma: no cover
        return f"RankNMap(d={self.ambient_dim}, n={self.rank}, {self.descriptor})"


@dataclass(frozen=True, eq=False)
class CombinationCertificate:
    """Witness that ``target = sum_k coefficients[k] * projections[k]``."""

    coefficients: np.ndarray
    projections: list[Projection]
    target: Projection

    def residual(self) -> float:
        acc = np.zeros_like(self.target.matrix)
        for lam, p in zip(self.coefficients, self.projections):
            acc = acc + lam * p.matrix
        return frobenius(acc - self.target.matrix)


def combination_coefficients(n: int) -> np.ndarray:
    """Closed-form solution of ``(J - I) lam = e1`` with J the all-ones matrix:
    ``lam_k = 1/n - [k == 1]``.

    The first entry is computed as ``(1 - n)/n`` so every coefficient is the
    correctly rounded rational (``1/n - 1`` would be off by one ulp).
    """
    lam = np.full(n + 1, 1.0 / n)
    lam[0] = (1.0 - n) / n
    return lam


def complete_orthonormal(u: np.ndarray, count: int, tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Extend a unit vector, or the orthonormal columns of a matrix, to
    ``count`` orthonormal vectors, deterministically.

    Candidates are the standard basis vectors in index order; any whose
    residual after orthogonalization falls below ``rank_tol`` is skipped.
    Every run over the same input picks the same completion, which keeps
    certificates reproducible.
    """
    d = u.shape[0]
    vectors = [u] if u.ndim == 1 else list(u.T)
    for j in range(d):
        if len(vectors) == count:
            break
        cand = np.zeros(d, dtype=np.complex128)
        cand[j] = 1.0
        for _ in range(2):  # one re-orthogonalization pass for stability
            for v in vectors:
                cand = cand - v * np.vdot(v, cand)
        norm = float(np.linalg.norm(cand))
        if norm < tol.rank_tol:
            continue
        vectors.append(cand / norm)
    if len(vectors) < count:
        raise RankDeficient(f"could not complete to {count} orthonormal vectors in dim {d}")
    return vectors


def _unit_frame(u, rank: int, tol: ToleranceConfig) -> list[np.ndarray]:
    """The frame of n+1 orthonormal vectors that starts with the unit vector u."""
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    d = u.shape[0]
    if d < rank + 1 or rank < 1:
        raise BadRank(f"need 1 <= rank <= d - 1 = {d - 1}, got rank={rank}")
    norm = float(np.linalg.norm(u))
    if abs(norm - 1.0) > tol.eq_tol:
        raise NotUnit(f"||u|| = {norm!r} is not 1 within {tol.eq_tol:.1e}")
    return complete_orthonormal(u / norm, rank + 1, tol)


def rank1_combination(u, rank: int, tol: ToleranceConfig = DEFAULT_TOL) -> CombinationCertificate:
    """Express the dyad ``u u*`` as a real combination of rank-n projections.

    Completes u to n+1 orthonormal vectors u_1..u_{n+1}, forms
    ``E = sum u_k u_k*`` and ``P_k = E - u_k u_k*`` (each of rank n), and
    uses the closed-form coefficients.  Requires d >= n + 1.
    """
    vectors = _unit_frame(u, rank, tol)
    dyads = [np.outer(v, v.conj()) for v in vectors]
    envelope = np.zeros_like(dyads[0])
    for dy in dyads:
        envelope += dy
    projections = [Projection(envelope - dy, rank=rank, tol=tol) for dy in dyads]
    target = Projection(dyads[0], rank=1, tol=tol)
    return CombinationCertificate(combination_coefficients(rank), projections, target)


def extend_frame(phi: RankNMap, frame, tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Images of the n+1 dyads ``u_k u_k*`` of a frame under the real-linear
    extension of ``phi``, from one oracle evaluation per dyad.

    ``frame`` is a d-by-(n+1) matrix with orthonormal columns ``u_k``.  Each
    ``P_k = E - u_k u_k*`` under the shared envelope ``E = sum u_k u_k*`` is
    evaluated once, and the image of ``u_k u_k*`` is
    ``(1/n) sum_j phi(P_j) - phi(P_k)``: the coefficients of
    ``combination_coefficients`` with ``u_k`` as the distinguished vector.

    Every image is Hermitian with trace 1 by construction (each summand has
    trace n); a violation means the oracle itself is broken, not merely
    non-preserving.
    """
    u = np.asarray(frame, dtype=np.complex128)
    d, n = phi.ambient_dim, phi.rank
    if u.shape != (d, n + 1):
        raise BadRank(f"frame has shape {u.shape}, map needs {d}x{n + 1} orthonormal columns")
    defect = frobenius(u.conj().T @ u - np.eye(n + 1))
    if defect > tol.eq_tol:
        raise NotUnit(f"frame columns are not orthonormal (defect {defect:.3e})")
    dyads = [np.outer(col, col.conj()) for col in u.T]
    envelope = u @ u.conj().T
    evaluated = [phi.evaluate(Projection(envelope - dy, rank=n, tol=tol)).matrix for dy in dyads]
    mean = sum(evaluated) / n
    images = [mean - image for image in evaluated]
    for k, image in enumerate(images):
        trace = complex(image.trace())
        if abs(trace - 1.0) > tol.spec_tol:
            raise InternalInconsistency(f"extension trace {trace!r} of frame dyad {k} differs from 1")
    return images


def extend_to_rank1(phi: RankNMap, u, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Image of the dyad ``u u*`` under the real-linear extension of ``phi``:
    the first image of ``extend_frame`` on the frame completing u.
    """
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    if u.shape[0] != phi.ambient_dim:
        raise BadRank(f"vector lives in dim {u.shape[0]}, map expects {phi.ambient_dim}")
    return extend_frame(phi, np.column_stack(_unit_frame(u, phi.rank, tol)), tol)[0]


def extend_to_hermitian(phi: RankNMap, a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Image of a Hermitian matrix under the real-linear extension.

    Goes through the spectral decomposition ``A = sum mu_i u_i u_i*``; which
    eigenbasis the backend picks is immaterial because the extension of a
    trace-form-preserving map is well-defined (a property the test suite
    checks rather than assumes).
    """
    a = as_complex(a)
    norm = frobenius(a)
    if hermitian_defect(a) > tol.eq_tol * max(1.0, norm):
        raise NonHermitian("input to the Hermitian extension must be Hermitian")
    w, v = hermitian_eig(a, tol)
    cutoff = 1e-14 * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    out = np.zeros_like(a)
    for mu, vec in zip(w, v.T):
        if abs(mu) <= cutoff:
            continue
        out = out + mu * extend_to_rank1(phi, vec, tol)
    trace_gap = abs(complex(out.trace()) - complex(a.trace()))
    if trace_gap > tol.spec_tol * max(1.0, norm):
        raise InternalInconsistency(f"extension changed the trace by {trace_gap:.3e}")
    return out
