"""Real-linear extension of a rank-n projection map to Hermitian matrices.

A map defined only on rank-n projections extends uniquely, by real
linearity, to the span of those projections, which for d > n is every
Hermitian matrix.  The route goes through rank-1 projections and a shared
envelope: any n+1 orthonormal vectors ``u_k`` (a *frame*) span the rank-(n+1)
projection ``E = sum u_k u_k*``, each ``P_k = E - u_k u_k*`` has rank n, and
``u_k u_k* = (1/n) sum_j P_j - P_k``.  So n+1 oracle evaluations give the
images of all n+1 dyads of a frame; any orthonormal set packs into such
frames, whose inputs reach the oracle as one stack (``extend_orthonormal``),
and the image of a single dyad is the first image of the frame completing
its vector (``extend_to_rank1``).
Extending a map this way gives the images of dyads and of every Hermitian
matrix (``extend_to_hermitian``) even though the map itself never sees a
rank-1 input; it is the paper's route to the inducing isometry.  The
reconstruction reads ``V`` from fewer queries, without the extension.
A function that takes a map checks at the map's own tolerances (``phi.tol``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadRank, InternalInconsistency, NotUnit, RankDeficient
from .linalg import as_complex, frobenius, frobenius_stack, hermitian_eig
from .maps import RankNMap
from .projections import Projection
from .tolerances import DEFAULT_TOL, ToleranceConfig


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
    if not abs(norm - 1.0) <= tol.eq_tol:  # NaN fails too
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


def extend_to_rank1(phi: RankNMap, u) -> np.ndarray:
    """Image of the dyad ``u u*`` under the real-linear extension of ``phi``:
    the first image of ``extend_orthonormal`` on the frame completing u.
    """
    u = np.asarray(u, dtype=np.complex128).reshape(-1)
    if u.shape[0] != phi.ambient_dim:
        raise BadRank(f"vector lives in dim {u.shape[0]}, map expects {phi.ambient_dim}")
    return extend_orthonormal(phi, np.column_stack(_unit_frame(u, phi.rank, phi.tol)))[0]


def extend_orthonormal(phi: RankNMap, columns) -> list[np.ndarray]:
    """Images of the dyads of orthonormal columns under the real-linear
    extension of ``phi``, in column order.

    The columns are packed n+1 to a frame, the last frame padded by
    ``complete_orthonormal`` (the padding's images are dropped).  Under a
    frame's envelope ``E = sum u_k u_k*`` the image of ``u_k u_k*`` is
    ``(1/n) sum_j phi(P_j) - phi(P_k)`` with ``P_k = E - u_k u_k*``; the
    ``P_k`` of all frames reach the oracle as one ``RankNMap._outputs`` stack,
    its outputs validated as one.  The frames' Gram defect is checked
    (``NotUnit`` above ``eq_tol``); the ``P_k``, projections onto n columns
    of a checked frame, get no d x d check of their own.

    Every image has trace 1 by construction (each summand has trace n); a
    violation means the oracle itself is broken, not merely non-preserving.
    """
    d, n, tol = phi.ambient_dim, phi.rank, phi.tol
    columns = np.asarray(columns, dtype=np.complex128)
    if columns.ndim != 2 or columns.shape[0] != d:
        raise BadRank(f"vectors of shape {columns.shape[:1]}, map expects dim {d}")
    r = columns.shape[1]
    if r == 0:
        return []
    vectors = np.array([complete_orthonormal(columns[:, i : i + n + 1], n + 1, tol) for i in range(0, r, n + 1)])
    defect = np.max(frobenius_stack(vectors.conj() @ vectors.swapaxes(1, 2) - np.eye(n + 1)))
    if not defect <= tol.eq_tol:  # NaN fails too: the inputs below are not checked again
        raise NotUnit(f"frame columns are not orthonormal (defect {defect:.3e})")
    envelopes = vectors.swapaxes(1, 2) @ vectors.conj()
    inputs = (envelopes[:, None] - vectors[..., :, None] * vectors.conj()[..., None, :]).reshape(-1, d, d)
    mapped = phi._outputs(inputs)
    phi._check(mapped)
    images = mapped.reshape(len(vectors), n + 1, d, d)
    images = images - images.sum(axis=1, keepdims=True) / n  # a stack of its own (an identity map
    images *= -1.0  # returns its input): (1/n) sum_j phi(P_j) - phi(P_k), negated in place
    traces = np.trace(images, axis1=2, axis2=3)
    bad = np.argwhere(np.abs(traces - 1.0) > tol.spec_tol)
    if bad.size:
        f, k = bad[0]
        raise InternalInconsistency(f"extension trace {complex(traces[f, k])!r} of frame {f} dyad {k} differs from 1")
    return list(images.reshape(-1, d, d)[:r])  # only the last frame is padded, after its columns


def extend_to_hermitian(phi: RankNMap, a) -> np.ndarray:
    """Image of a Hermitian matrix under the real-linear extension.

    Goes through the spectral decomposition ``A = sum mu_i u_i u_i*``, the
    eigenvectors of the nonzero eigenvalues extended together in frames;
    which eigenbasis the backend picks is immaterial because the extension
    of a trace-form-preserving map is well-defined (a property the test
    suite checks rather than assumes).
    """
    a = as_complex(a)
    w, v = hermitian_eig(a, phi.tol)  # refuses a non-Hermitian a
    keep = np.abs(w) > 1e-14 * max(1.0, float(np.max(np.abs(w), initial=0.0)))
    out = np.zeros_like(a)
    for mu, image in zip(w[keep], extend_orthonormal(phi, v[:, keep])):
        out = out + mu * image
    trace_gap = abs(complex(out.trace()) - complex(a.trace()))
    if not trace_gap <= phi.tol.spec_tol * max(1.0, frobenius(a)):
        raise InternalInconsistency(f"extension changed the trace by {trace_gap:.3e}")
    return out
