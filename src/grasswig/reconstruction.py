"""Recover the isometry behind an angle-preserving projection map.

Given an oracle sending rank-n projections to rank-n projections, the
pipeline (1) screens it for angle preservation on random pairs, (2) pushes
the basis dyads ``e_i e_i*`` and the chain links ``(e_{j-1} + e_j)/sqrt(2)``
and ``(e_{j-1} + i e_j)/sqrt(2)`` through the real-linear extension, n+1
dyads per shared-envelope frame (``extend_frame``), (3) branches on the
shape of those images: genuine rank-1 projections lead to phase assembly of
a candidate unitary, each column's phase fixed against its predecessor
along the chain, and a linear-vs-conjugate-linear probe on the same links,
while images of the form ``(1/n) I - (rank-1 projection)`` at d = 2n lead
to the complement-composed family, read off the same images through
``ext_{I - phi}(uu*) = I/n - ext_phi(uu*)``, and (4) verifies the
candidate on fresh random samples before accepting it.

Anything that passes screening but fits neither family is reported as
``preserving_unclassified`` rather than guessed at: at d = 2n with n > 1 a
full classification of angle preservers is an open problem, and refusing
to label the leftovers is the honest output.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BadRank, NotAProjection
from .extension import RankNMap, complete_orthonormal, extend_frame
from .linalg import REAL, as_complex, frobenius, hermitian_eig
from .projections import Projection, sample_projection
from .tolerances import DEFAULT_TOL, ToleranceConfig

VARIANT_CONJUGATION = "conjugation"
VARIANT_EXCEPTIONAL = "exceptional_complement"
VARIANT_NOT_PRESERVING = "not_angle_preserving"
VARIANT_UNCLASSIFIED = "preserving_unclassified"

# Gate for structural sanity during assembly (phase magnitudes, unitarity of
# the assembled candidate).  Deliberately loose: the verification pass at
# accept_tol is the authority, this only decides how a failure is reported.
ASSEMBLY_GATE = 1e-3


@dataclass(frozen=True)
class ReconstructionConfig:
    accept_tol: float = 1e-7
    screen_samples: int = 20
    verify_samples: int = 50
    seed: int = 0

    def __post_init__(self) -> None:
        if self.screen_samples < 1 or self.verify_samples < 1:
            raise ValueError("sample counts must be positive")
        if self.accept_tol <= 0:
            raise ValueError("accept_tol must be positive")


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Tagged outcome of a reconstruction attempt.

    ``conjugation``: phi(P) = V tau(P) V* with tau = conj when antiunitary.
    ``exceptional_complement``: phi(P) = I - V tau(P) V* (only at d = 2n, n > 1).
    ``not_angle_preserving``: carries a witness pair and its discrepancy.
    ``preserving_unclassified``: screening passed but neither family fits.
    """

    variant: str
    v: np.ndarray | None = None
    antiunitary: bool | None = None
    residual: float | None = None
    witness_p: Projection | None = None
    witness_q: Projection | None = None
    discrepancy: float | None = None
    notes: str = ""

    @property
    def accepted(self) -> bool:
        return self.variant in (VARIANT_CONJUGATION, VARIANT_EXCEPTIONAL)

    def to_obj(self) -> dict:
        from .matio import matrix_to_obj

        obj: dict = {"variant": self.variant}
        if self.v is not None:
            obj["V"] = matrix_to_obj(self.v)
            obj["antiunitary"] = bool(self.antiunitary)
        if self.residual is not None:
            obj["residual"] = float(self.residual)
        if self.discrepancy is not None:
            obj["discrepancy"] = float(self.discrepancy)
        if self.notes:
            obj["notes"] = self.notes
        return obj


@dataclass(frozen=True, eq=False)
class ScreenReport:
    """Worst angle/trace-form discrepancy over the sampled pairs."""

    max_discrepancy: float
    witness_p: Projection | None
    witness_q: Projection | None


def _trace_pq(a: np.ndarray, b: np.ndarray) -> float:
    return complex(np.einsum("ij,ji->", a, b)).real


def _sorted_product_spectrum(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    # q p q is Hermitian up to roundoff for validated projections
    return np.linalg.eigvalsh(q @ p @ q)


def screen_preservation(
    phi: RankNMap,
    num_samples: int,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ScreenReport:
    """Compare angles and trace form before and after the map on random pairs.

    The discrepancy per pair is the larger of the trace-form deviation and
    the max entrywise gap between the sorted full spectra of QPQ and its
    image; both vanish exactly for an angle preserver.
    """
    rng = np.random.default_rng(seed)
    worst, wp, wq = 0.0, None, None
    for _ in range(num_samples):
        p = sample_projection(rng, phi.ambient_dim, phi.rank, phi.field, tol)
        q = sample_projection(rng, phi.ambient_dim, phi.rank, phi.field, tol)
        fp, fq = phi.evaluate(p), phi.evaluate(q)
        trace_dev = abs(_trace_pq(fp.matrix, fq.matrix) - _trace_pq(p.matrix, q.matrix))
        spec_dev = float(
            np.max(
                np.abs(
                    _sorted_product_spectrum(p.matrix, q.matrix)
                    - _sorted_product_spectrum(fp.matrix, fq.matrix)
                )
            )
        )
        discrepancy = max(trace_dev, spec_dev)
        if discrepancy >= worst:
            worst, wp, wq = discrepancy, p, q
    return ScreenReport(worst, wp, wq)


def apply_conjugation(v, antiunitary: bool, p: Projection, tol: ToleranceConfig = DEFAULT_TOL) -> Projection:
    """``V P V*`` (linear) or ``V conj(P) V*`` (antiunitary, conjugation in
    the standard basis)."""
    v = as_complex(v)
    inner = p.matrix.conj() if antiunitary else p.matrix
    return Projection(v @ inner @ v.conj().T, rank=p.rank, tol=tol)


def verify_conjugation(
    phi: RankNMap,
    v,
    antiunitary: bool,
    num_samples: int,
    seed: int,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> float:
    """Max Frobenius residual of ``phi(P) - V tau(P) V*`` over random samples."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(num_samples):
        p = sample_projection(rng, phi.ambient_dim, phi.rank, phi.field, tol)
        predicted = apply_conjugation(v, antiunitary, p, tol)
        worst = max(worst, frobenius(phi.evaluate(p).matrix - predicted.matrix))
    return worst


def _verify_complement_form(
    phi: RankNMap,
    v: np.ndarray,
    antiunitary: bool,
    num_samples: int,
    seed: int,
    tol: ToleranceConfig,
) -> float:
    """Max residual of ``phi(P) - (I - V tau(P) V*)`` over random samples."""
    rng = np.random.default_rng(seed)
    eye = np.eye(phi.ambient_dim, dtype=np.complex128)
    worst = 0.0
    for _ in range(num_samples):
        p = sample_projection(rng, phi.ambient_dim, phi.rank, phi.field, tol)
        predicted = eye - apply_conjugation(v, antiunitary, p, tol).matrix
        worst = max(worst, frobenius(phi.evaluate(p).matrix - predicted))
    return worst


def _canonical_phase(column: np.ndarray) -> complex:
    """Unimodular scalar making the largest-magnitude entry positive real.

    numpy's argmax takes the first maximum, which implements the
    lowest-row-index tie break.
    """
    pivot = column[int(np.argmax(np.abs(column)))]
    return abs(pivot) / pivot


def canonicalize_global_phase(v: np.ndarray) -> np.ndarray:
    """Fix the global phase of a unitary via its first column."""
    return v * _canonical_phase(v[:, 0])


def align_phase(a: np.ndarray, b: np.ndarray) -> complex:
    """Unimodular c minimizing ``||a - c b||`` (for same-shape arrays)."""
    t = complex(np.vdot(b, a))
    return t / abs(t) if t != 0 else 1.0 + 0j


def _basis_vector(d: int, i: int) -> np.ndarray:
    e = np.zeros(d, dtype=np.complex128)
    e[i] = 1.0
    return e


def _try_projection(m: np.ndarray, tol: ToleranceConfig, rank: int) -> Projection | None:
    try:
        return Projection(m, rank=rank, tol=tol)
    except NotAProjection:
        return None


def _unclassified(notes: str) -> ReconstructionResult:
    return ReconstructionResult(VARIANT_UNCLASSIFIED, notes=notes)


def _structural_tol(cfg: ReconstructionConfig, tol: ToleranceConfig) -> ToleranceConfig:
    # Rank-1 image checks run at accept_tol: the extension stacks n+1 oracle
    # evaluations plus an eigendecomposition, so eq_tol would be too strict.
    return ToleranceConfig(
        eq_tol=cfg.accept_tol,
        spec_tol=max(tol.spec_tol, cfg.accept_tol),
        rank_tol=tol.rank_tol,
    )


def _frame_images(phi: RankNMap, vectors: list[np.ndarray], tol: ToleranceConfig) -> list[np.ndarray]:
    """Extension images of mutually orthonormal vectors, n+1 per frame.

    The last frame is completed deterministically by
    ``complete_orthonormal``; the images of its padding are dropped.
    """
    size = phi.rank + 1
    images: list[np.ndarray] = []
    for start in range(0, len(vectors), size):
        chunk = np.column_stack(vectors[start : start + size])
        frame = np.column_stack(complete_orthonormal(chunk, size, tol))
        images.extend(extend_frame(phi, frame, tol)[: chunk.shape[1]])
    return images


def _link_images(phi: RankNMap, coefficient: complex, tol: ToleranceConfig) -> list[np.ndarray]:
    """Images of the chain links ``(e_{j-1} + c e_j)/sqrt(2)``, j = 1..d-1,
    in order of j.

    Links whose j has the same parity have disjoint supports, so each
    parity is an orthonormal set that packs into frames.
    """
    d = phi.ambient_dim
    links = [(_basis_vector(d, j - 1) + coefficient * _basis_vector(d, j)) / np.sqrt(2.0) for j in range(1, d)]
    images = list(links)  # same length; every slot is overwritten below
    images[0::2] = _frame_images(phi, links[0::2], tol)
    images[1::2] = _frame_images(phi, links[1::2], tol)
    return images


class _DyadImages:
    """Extension images of the basis dyads and the chain links, each set
    extended on first use and shared by both passes of ``reconstruct``.

    The complement pass at d = 2n reads them as images under ``I - phi``,
    ``ext_{I - phi}(uu*) = I/n - ext_phi(uu*)``, instead of extending again.
    """

    def __init__(self, phi: RankNMap, tol: ToleranceConfig) -> None:
        self._phi = phi
        self._tol = tol
        self._images: dict[str, list[np.ndarray]] = {}

    def get(self, kind: str, complement: bool) -> list[np.ndarray]:
        """``kind`` is "basis", "superposition" or "probe"."""
        images = self._images.get(kind)
        if images is None:
            d = self._phi.ambient_dim
            if kind == "basis":
                images = _frame_images(self._phi, [_basis_vector(d, i) for i in range(d)], self._tol)
            else:
                images = _link_images(self._phi, 1j if kind == "probe" else 1.0, self._tol)
            self._images[kind] = images
        if complement:
            shift = np.eye(self._phi.ambient_dim, dtype=np.complex128) / self._phi.rank
            return [shift - image for image in images]
        return images


def _assemble_candidate(
    lines: list[Projection],
    links: list[np.ndarray],
    tol: ToleranceConfig,
) -> tuple[np.ndarray | None, str]:
    """Wigner phase assembly: stitch the rank-1 images into a unitary.

    Each image fixes its column only up to phase; the image of the chain
    link ``(e_{j-1} + e_j)/sqrt(2)`` pins the phase of column j against
    column j-1, fixed one step earlier, so every column takes the phase of
    column 0.
    """
    columns = []
    for line in lines:
        _, vecs = hermitian_eig(line.matrix, tol)
        col = vecs[:, -1]
        columns.append(col * _canonical_phase(col))
    for j, link in enumerate(links, start=1):
        overlap = 2.0 * complex(columns[j - 1].conj() @ link @ columns[j])
        if abs(abs(overlap) - 1.0) > ASSEMBLY_GATE:
            return None, (
                f"link ({j - 1}, {j}) superposition overlap |c| = {abs(overlap):.6f}, "
                f"expected 1 within {ASSEMBLY_GATE:.0e}"
            )
        columns[j] = columns[j] * (overlap.conjugate() / abs(overlap))
    v = np.column_stack(columns)
    unitarity = frobenius(v.conj().T @ v - np.eye(v.shape[1]))
    if unitarity > ASSEMBLY_GATE:
        return None, f"assembled columns are not unitary (defect {unitarity:.3e} > {ASSEMBLY_GATE:.0e})"
    return canonicalize_global_phase(v), ""


def _probe_antiunitary(
    v: np.ndarray,
    probes: list[np.ndarray],
    accept_tol: float,
) -> tuple[bool | None, str]:
    """Decide linear vs conjugate-linear from the images of the chain links
    ``(e_{j-1} + i e_j)/sqrt(2)``: ``(v_{j-1} + i v_j)/sqrt(2)`` for a
    linear map, ``(v_{j-1} - i v_j)/sqrt(2)`` for a conjugate-linear one.

    All links must agree on one alternative, else the map is left
    unclassified.
    """
    votes = []
    for j, image in enumerate(probes, start=1):
        lin = (v[:, j - 1] + 1j * v[:, j]) / np.sqrt(2.0)
        con = (v[:, j - 1] - 1j * v[:, j]) / np.sqrt(2.0)
        r_lin = frobenius(image - np.outer(lin, lin.conj()))
        r_con = frobenius(image - np.outer(con, con.conj()))
        if min(r_lin, r_con) > accept_tol:
            return None, (
                f"probe link ({j - 1}, {j}) matches neither alternative "
                f"(residuals {r_lin:.3e}, {r_con:.3e} > {accept_tol:.1e})"
            )
        votes.append(r_con < r_lin)
        if votes[-1] != votes[0]:
            return None, f"probe link ({j - 1}, {j}) disagrees with link (0, 1) on linear vs conjugate-linear"
    return votes[0], ""


def _classify(
    phi: RankNMap,
    images: _DyadImages,
    complement: bool,
    cfg: ReconstructionConfig,
    tol: ToleranceConfig,
) -> ReconstructionResult:
    """Rank-1 basis images -> phase assembly -> probe -> verification.

    With ``complement`` the images are read as those of ``I - phi`` and the
    candidate is verified in the complement form ``I - V tau(P) V*``.
    """
    struct_tol = _structural_tol(cfg, tol)
    lines = []
    for i, image in enumerate(images.get("basis", complement)):
        line = _try_projection(image, struct_tol, rank=1)
        if line is None:
            return _unclassified(f"extension image of basis dyad {i} is not a rank-1 projection")
        lines.append(line)
    v, notes = _assemble_candidate(lines, images.get("superposition", complement), tol)
    if v is None:
        return _unclassified(notes)
    # Real field: conjugation is invisible, so the answer is always linear.
    antiunitary: bool | None = False
    if phi.field != REAL:
        antiunitary, notes = _probe_antiunitary(v, images.get("probe", complement), cfg.accept_tol)
        if antiunitary is None:
            return _unclassified(notes)
    if complement:
        variant, label = VARIANT_EXCEPTIONAL, "complement-composed candidate"
        residual = _verify_complement_form(phi, v, antiunitary, cfg.verify_samples, cfg.seed + 2, tol)
    else:
        variant, label = VARIANT_CONJUGATION, "candidate conjugation"
        residual = verify_conjugation(phi, v, antiunitary, cfg.verify_samples, cfg.seed + 1, tol)
    if residual > cfg.accept_tol:
        return _unclassified(f"{label} fails verification (residual {residual:.3e} > {cfg.accept_tol:.1e})")
    return ReconstructionResult(variant, v=v, antiunitary=antiunitary, residual=residual)


def reconstruct(
    phi: RankNMap,
    cfg: ReconstructionConfig | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ReconstructionResult:
    """Classify an angle-preserving map and recover its inducing isometry.

    Requires ``accept_tol >= 10 * spec_tol`` so structural checks sit well
    above the spectral comparison noise floor.
    """
    cfg = cfg or ReconstructionConfig()
    if cfg.accept_tol < 10.0 * tol.spec_tol:
        raise ValueError(
            f"accept_tol {cfg.accept_tol:.1e} must be >= 10x spec_tol {tol.spec_tol:.1e}"
        )
    d, n = phi.ambient_dim, phi.rank
    if not 1 <= n < d:
        raise BadRank(f"reconstruction needs 1 <= n < d, got n={n}, d={d}")

    report = screen_preservation(phi, cfg.screen_samples, cfg.seed, tol)
    if report.max_discrepancy > cfg.accept_tol:
        return ReconstructionResult(
            VARIANT_NOT_PRESERVING,
            witness_p=report.witness_p,
            witness_q=report.witness_q,
            discrepancy=report.max_discrepancy,
        )

    images = _DyadImages(phi, tol)
    linear = _classify(phi, images, False, cfg, tol)
    if linear.accepted or not (d == 2 * n and n > 1):
        return linear
    # Complement-composed family: the basis dyad images must all be
    # (1/n) I - (rank-1 projection), i.e. the images under I - phi must
    # land in the plain conjugation family.
    exceptional = _classify(phi, images, True, cfg, tol)
    if exceptional.accepted:
        return exceptional
    return _unclassified(f"{linear.notes}; complement-composed pass: {exceptional.notes}")


def dualize(phi: RankNMap, tol: ToleranceConfig = DEFAULT_TOL) -> RankNMap:
    """Complement-conjugated map on the complementary rank:
    ``psi(P) = I - phi(I - P)`` acting on rank d - n."""
    d, n = phi.ambient_dim, phi.rank
    m = d - n
    if not 1 <= m <= d - 1:
        raise BadRank(f"dual rank d - n = {m} is outside [1, {d - 1}]")
    eye = np.eye(d, dtype=np.complex128)

    def fn(p: Projection) -> Projection:
        inner = Projection(eye - p.matrix, rank=n, tol=tol)
        return Projection(eye - phi.evaluate(inner).matrix, rank=m, tol=tol)

    return RankNMap(d, m, fn, descriptor=f"dual({phi.descriptor})", field=phi.field, tol=tol)


def reconstruct_via_dual(
    phi: RankNMap,
    cfg: ReconstructionConfig | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> ReconstructionResult:
    """Reconstruct through the dual map on rank d - n.

    A conjugation inducing the dual induces the original map as well, so a
    positive result carries over; it is still re-verified against the
    original map directly before being returned.  A witness from dual
    screening lives at rank d - n.
    """
    cfg = cfg or ReconstructionConfig()
    inner = reconstruct(dualize(phi, tol), cfg, tol)
    if inner.variant == VARIANT_CONJUGATION:
        residual = verify_conjugation(phi, inner.v, inner.antiunitary, cfg.verify_samples, cfg.seed + 3, tol)
        if residual <= cfg.accept_tol:
            return replace(inner, residual=residual)
        return _unclassified(f"dual candidate fails direct verification (residual {residual:.3e})")
    if inner.variant == VARIANT_EXCEPTIONAL:
        residual = _verify_complement_form(phi, inner.v, inner.antiunitary, cfg.verify_samples, cfg.seed + 3, tol)
        if residual <= cfg.accept_tol:
            return replace(inner, residual=residual)
        return _unclassified(f"dual candidate fails direct verification (residual {residual:.3e})")
    if inner.variant == VARIANT_NOT_PRESERVING:
        return replace(inner, notes=f"witness pair has dual rank {phi.ambient_dim - phi.rank}")
    return inner
