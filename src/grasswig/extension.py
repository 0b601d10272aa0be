"""Real-linear extension of a rank-n projection map to Hermitian matrices.

A map defined only on rank-n projections extends uniquely, by real
linearity, to the span of those projections, which for d > n is every
Hermitian matrix.  The route goes through rank-1 projections and a shared
envelope: any n+1 orthonormal vectors ``u_k`` (a *frame*) span the rank-(n+1)
projection ``E = sum u_k u_k*``, each ``P_k = E - u_k u_k*`` has rank n, and
``u_k u_k* = (1/n) sum_j P_j - P_k``.  So n+1 oracle evaluations give the
images of all n+1 dyads of a frame (``extend_frame``); any orthonormal set
packs into such frames (``extend_orthonormal``), and the image of a single
dyad is the first image of the frame completing its vector
(``extend_to_rank1``).  Extending a map this way is what lets the
reconstruction pipeline read off the image of every basis dyad even though
the map itself never sees a rank-1 input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadRank, InternalInconsistency, NonHermitian, NotAProjection, NotUnit, RankDeficient
from .linalg import COMPLEX, as_complex, frobenius, hermitian_defect, hermitian_eig
from .matio import canonical_key
from .projections import Projection, projections_from_stack
from .tolerances import DEFAULT_TOL, ToleranceConfig


class RankNMap:
    """Deterministic oracle sending rank-n projections to rank-n projections.

    Outputs are validated against the projection invariants.  ``evaluate``
    memoizes them by a canonical serialization of the input (rounded to 12
    decimal digits); few of its queries repeat, chiefly extension frames
    padded by the same standard basis vectors (common when n + 1
    approaches d).  ``evaluate_many`` serves one-shot queries, the random
    samples of screening and verification, and bypasses the cache.
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

    def _check_input(self, p: Projection, which: str) -> None:
        if p.ambient_dim != self.ambient_dim:
            raise BadRank(f"{which} dimension {p.ambient_dim}, map expects {self.ambient_dim}")
        if p.rank != self.rank:
            raise BadRank(f"{which} rank {p.rank}, map expects {self.rank}")

    def _check_output(self, out: Projection, which: str = "") -> Projection:
        if out.rank != self.rank or out.ambient_dim != self.ambient_dim:
            raise InternalInconsistency(
                f"map {self.descriptor!r} returned rank {out.rank} in dim {out.ambient_dim}{which}"
            )
        return out

    def evaluate(self, p: Projection) -> Projection:
        self._check_input(p, "input")
        key = canonical_key(p.matrix)
        hit = self._cache.get(key)
        if hit is None:
            out = self._fn(p)
            if not isinstance(out, Projection):
                out = Projection(out, tol=self.tol)
            hit = self._cache[key] = self._check_output(out)
        return hit

    def evaluate_many(self, projections: list[Projection]) -> list[Projection]:
        """Outputs for the inputs in order, one oracle call each, without
        the memo cache.

        Raw matrix outputs are validated as one stack; an output that is not
        a projection raises ``NotAProjection``, one of the wrong rank or
        dimension ``InternalInconsistency``, each naming the index of its
        input.
        """
        projections = list(projections)
        for i, p in enumerate(projections):
            self._check_input(p, f"input {i}")
        outputs = [self._fn(p) for p in projections]
        if not all(isinstance(out, Projection) for out in outputs):
            matrices = [out.matrix if isinstance(out, Projection) else as_complex(out) for out in outputs]
            for i, m in enumerate(matrices):
                if m.shape[0] != m.shape[1]:
                    raise NotAProjection(f"output {i} is {m.shape[0]}x{m.shape[1]}, not square")
                if m.shape[0] != self.ambient_dim:
                    raise InternalInconsistency(
                        f"map {self.descriptor!r} returned dim {m.shape[0]} for input {i}, expected {self.ambient_dim}"
                    )
            outputs = projections_from_stack(np.array(matrices), self.tol)
        return [self._check_output(out, f" for input {i}") for i, out in enumerate(outputs)]

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
    dyads = u.T[:, :, None] * u.T.conj()[:, None, :]
    inputs = projections_from_stack(u @ u.conj().T - dyads, tol, rank=n)
    evaluated = [phi.evaluate(p).matrix for p in inputs]
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


def extend_orthonormal(phi: RankNMap, u, tol: ToleranceConfig = DEFAULT_TOL) -> list[np.ndarray]:
    """Images of the dyads of the orthonormal columns of ``u`` under the
    real-linear extension of ``phi``, packed n+1 to a frame: k columns cost
    ``(n+1) * ceil(k / (n+1))`` oracle evaluations.

    The last frame is completed deterministically by
    ``complete_orthonormal``; the images of its padding are dropped.
    """
    u = np.asarray(u, dtype=np.complex128)
    size = phi.rank + 1
    images: list[np.ndarray] = []
    for start in range(0, u.shape[1], size):
        chunk = u[:, start : start + size]
        frame = np.column_stack(complete_orthonormal(chunk, size, tol))
        images.extend(extend_frame(phi, frame, tol)[: chunk.shape[1]])
    return images


def extend_to_hermitian(phi: RankNMap, a, tol: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """Image of a Hermitian matrix under the real-linear extension.

    Goes through the spectral decomposition ``A = sum mu_i u_i u_i*``, the
    eigenvectors of the nonzero eigenvalues extended together in frames;
    which eigenbasis the backend picks is immaterial because the extension
    of a trace-form-preserving map is well-defined (a property the test
    suite checks rather than assumes).
    """
    a = as_complex(a)
    norm = frobenius(a)
    if hermitian_defect(a) > tol.eq_tol * max(1.0, norm):
        raise NonHermitian("input to the Hermitian extension must be Hermitian")
    w, v = hermitian_eig(a, tol)
    keep = np.abs(w) > 1e-14 * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    out = np.zeros_like(a)
    for mu, image in zip(w[keep], extend_orthonormal(phi, v[:, keep], tol)):
        out = out + mu * image
    trace_gap = abs(complex(out.trace()) - complex(a.trace()))
    if trace_gap > tol.spec_tol * max(1.0, norm):
        raise InternalInconsistency(f"extension changed the trace by {trace_gap:.3e}")
    return out
