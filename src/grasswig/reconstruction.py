"""Recover the isometry behind an angle-preserving projection map.

Given an oracle sending rank-n projections to rank-n projections, the
pipeline works at rank ``k = min(n, d - n)``: each query it sends is built
from a d x k frame b as ``b b*`` or, when k < n (n > d/2), as the rank-n
``I - b b*`` (``_queries``).  It (1) reads the map from the outputs of
``ceil(d/k) + 2`` queries, reading an output M of a complement query as
``I - M``, the dual's image of ``b b*``: the coordinate frames of every
k-block but the last, whose range is the complement of the others, and
three fixed seeded reference frames (four at d = 2k, k > 1), (2) picks the
reading, linear or antiunitary and, at d = 2k, plain or complement-composed,
by comparing Bargmann's invariant ``tr phi(A) phi(B) phi(C)`` of three
reference images with what each reading predicts, (3) fits
``V = Y blockdiag(U_j)`` to those outputs, gates the fit on its own
queries and polishes it by least squares unless it fits them to roundoff,
(4) verifies the candidate on fresh samples from Haar d x k frames, each
predicted from its frame at d^2 k, and (5) only when no candidate passes,
explains the failure by the ``_witness`` of at most 20 pairs of its
reading queries, reference-reference and block-reference, or, failing
that, of random pairs.  Every query of (1), (4) and (5) goes by ``_blocks``.
The frames of (1), the invariants the readings of (2) predict for them
and the range finder of (3) depend on (d, k, field, phi.tol) only, so while
they fit in one block (d <= 77) they are computed once per key and kept
read-only (``_plan``, 64 entries); the queries are rebuilt on every call,
and no output depends on whether the plan was cached.
In (3) and (4) a residual within ``eq_tol / 4`` stands in for validating the
output; that and every other tolerance here is the map's own (``phi.tol``).
Verification is the sole authority for acceptance: a map that matches
``V tau(P) V*``, or its complement, on fresh samples preserves angles.  An
accepted map costs ``ceil(d/k) - 1 + 3 (+1 at d = 2n, n > 1)`` reading calls
plus the verification samples: ``7 + 3 + 50 = 60`` at d = 64, n = 8.

Anything that passes screening but fits neither family is reported as
``preserving_unclassified`` rather than guessed at: at d = 2n with n > 1 a
full classification of angle preservers is an open problem, and refusing
to label the leftovers is the honest output.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .angles import spectrum_gaps
from .errors import BadRank, DimensionMismatch
from .linalg import REAL, as_complex, frobenius, frobenius_stack, is_exactly_real
from .maps import _BLOCK_BYTES, RankNMap
from .matio import matrix_to_obj
from .projections import Projection, _checked_frames, _wrap_stack
from .tolerances import ToleranceConfig

VARIANT_CONJUGATION = "conjugation"
VARIANT_EXCEPTIONAL = "exceptional_complement"
VARIANT_NOT_PRESERVING = "not_angle_preserving"
VARIANT_UNCLASSIFIED = "preserving_unclassified"

# The unpolished fit must match its own query outputs within this many
# accept_tol, in verification's Frobenius norm, to be polished and
# verified.  It carries the oracle's noise amplified a few times, so the
# gate is looser than verification, which stays the only authority; a map
# that fails it goes straight to the screen.
FIT_GATE = 10.0

# A fit within this many accept_tol of its queries is not polished (an exact
# map's fits to about 1e-14); a polish stops once a step moves V by as little.
_POLISH_STOP = 1e-3
_POLISH_STEPS = 64

# Seed of the reading's fixed reference frames and range-finder matrix.
_READING_SEED = 2000

# Random pairs a rejected map is screened on, fresh samples a candidate is
# verified on, and accept_tol in units of spec_tol: 1e-7 at the defaults,
# well above the spectral comparison noise floor.
_SCREEN_PAIRS = 20
_VERIFY_SAMPLES = 50
_ACCEPT_FACTOR = 10.0


@dataclass(frozen=True)
class ReconstructionConfig:
    seed: int = 0

    def __post_init__(self) -> None:
        # seeds feed numpy generators, which refuse negative seeds
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))  # a numpy seed would overflow at seed + 1


@dataclass(frozen=True, eq=False)
class ReconstructionResult:
    """Tagged outcome of a reconstruction attempt.

    ``conjugation``: phi(P) = V tau(P) V* with tau = conj when antiunitary.
    ``exceptional_complement``: phi(P) = I - V tau(P) V* (only at d = 2n, n > 1).
    ``not_angle_preserving``: carries a witness pair, the map's images of
    it and its discrepancy.
    ``preserving_unclassified``: screening passed but neither family fits.
    """

    variant: str
    v: np.ndarray | None = None
    antiunitary: bool | None = None
    residual: float | None = None
    witness_p: Projection | None = None
    witness_q: Projection | None = None
    witness_phi_p: Projection | None = None
    witness_phi_q: Projection | None = None
    discrepancy: float | None = None
    notes: str = ""

    @property
    def accepted(self) -> bool:
        return self.variant in (VARIANT_CONJUGATION, VARIANT_EXCEPTIONAL)

    def to_obj(self) -> dict:
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
    """Worst ``spectrum_gaps`` over the scored pairs, with the pair
    attaining it and the map's images of that pair (``_witness``)."""

    max_discrepancy: float
    witness_p: Projection | None
    witness_q: Projection | None
    witness_phi_p: Projection | None
    witness_phi_q: Projection | None


def _frame_cols(d: int, n: int) -> int:
    return d - n if 0 < d - n < n else n  # k of the d x k frames of rank-n queries (``_queries``)


def _blocks(phi: RankNMap, count: int, frames, group: int = 1):
    """The one route of the pipeline's queries to ``phi``: ``count`` d x k
    frames, taken as ``frames(start, c)`` in chunks of ``d // k`` stacks (at
    most one stack's query bytes) and sent as their rank-n ``_queries(b, n)``
    in stacks of at most ``_BLOCK_BYTES`` of d x d matrices (a multiple of
    ``group``).  Yields ``(first, b, inputs, mapped)`` per stack, ``mapped``
    being ``RankNMap._outputs(inputs, first)``, the array passed as it is."""
    d, n = phi.ambient_dim, phi.rank
    size = group * max(1, _BLOCK_BYTES // (16 * d * d) // group)
    chunk = size * (d // _frame_cols(d, n))
    for start in range(0, count, chunk):
        drawn = frames(start, min(chunk, count - start))
        for i in range(0, len(drawn), size):
            b = drawn[i : i + size]
            inputs = _queries(b, n)
            yield start + i, b, inputs, phi._outputs(inputs, start + i)


def _sampled(phi: RankNMap, count: int, seed: int, group: int = 1):
    """The ``_blocks`` of screening and verification: ``group * count`` Haar
    d x k frames from ``seed``, drawn a chunk at a time, bit for bit as in one
    draw.  Every sample is Haar, as the complement of a Haar (d - n)-subspace
    is a Haar n-subspace.  A count that is no integer (bools included) or
    below 1 raises ``ValueError``: it certifies nothing."""
    if isinstance(count, bool) or not isinstance(count, (int, np.integer)) or count < 1:
        raise ValueError(f"the sample{' pair' if group == 2 else ''} count must be an integer of at least 1, got {count!r}")
    d, k, rng = phi.ambient_dim, _frame_cols(phi.ambient_dim, phi.rank), np.random.default_rng(seed)
    return _blocks(phi, group * count, lambda start, c: _checked_frames(rng, c, d, k, phi.field, phi.tol, start), group)


def _queries(b: np.ndarray, n: int) -> np.ndarray:
    """The rank-n queries of a stack of checked d x k frames ``b``, in the
    module docstring's form (``_checked_frames`` bounds both)."""
    inputs = b @ _adjoint(b)
    if b.shape[-1] < n:
        np.subtract(np.eye(b.shape[-2]), inputs, out=inputs)
    return inputs


def _witness(inputs: np.ndarray, mapped: np.ndarray, first: np.ndarray, second: np.ndarray, rank: int) -> ScreenReport:
    """The worst, by ``spectrum_gaps``, of the pairs ``(inputs[first[i]],
    inputs[second[i]])`` of rank-``rank`` projections mapped to the same
    pairs of ``mapped``, the last on a tie.  The witness is copied out of
    the stacks and wrapped unchecked: the caller checked ``mapped``, or
    its fit vouched for it."""
    gaps = spectrum_gaps(inputs[first], inputs[second], mapped[first], mapped[second])
    i = len(gaps) - 1 - int(np.argmax(gaps[::-1]))
    witness = np.stack([inputs[first[i]], inputs[second[i]], mapped[first[i]], mapped[second[i]]])
    return ScreenReport(float(gaps[i]), *_wrap_stack(witness, [rank] * 4))


def screen_preservation(phi: RankNMap, num_samples: int, seed: int) -> ScreenReport:
    """Compare angles and trace form before and after the map on random pairs.

    Pairs of ``_sampled`` rank-n samples are scored stack by stack by
    ``_witness``, the witness being the last pair attaining the maximum.
    Each stack of outputs is validated whole (``RankNMap._check``), since
    the witness images must be projections, and only the witness is
    wrapped; a failure names the sample's index in the run (pair i is
    samples 2i, 2i + 1).
    Fewer than one pair raises ``ValueError``: it would certify nothing.
    """
    report = ScreenReport(0.0, None, None, None, None)
    for first, _, inputs, mapped in _sampled(phi, num_samples, seed, group=2):
        phi._check(mapped, first)
        stack = _witness(inputs, mapped, *np.arange(len(inputs)).reshape(-1, 2).T, phi.rank)
        if stack.max_discrepancy >= report.max_discrepancy:
            report = stack
    return report


@functools.lru_cache(maxsize=256)
def _report_pairs(m: int, refs: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs of the reading's queries (the ``m - 1`` blocks, then
    ``refs`` references) that a map with no accepted candidate is scored
    on first: every pair of references, then each block with every
    reference, block by block, at most ``_SCREEN_PAIRS`` in all.  Two
    blocks are orthogonal, so their pair is left out.  Returns ``(used,
    pairs)``, read-only and built once per key: the sorted indices of the
    queries the pairs use, and the pairs as a ``(2, pairs)`` index array
    into ``used``."""
    references, (first, second) = np.arange(m - 1, m - 1 + refs), np.triu_indices(refs, 1)
    first = np.concatenate([references[first], np.repeat(np.arange(m - 1), refs)])
    second = np.concatenate([references[second], np.tile(references, m - 1)])
    pairs = np.stack([first, second])[:, :_SCREEN_PAIRS]
    used, inverse = np.unique(pairs, return_inverse=True)
    inverse = inverse.reshape(pairs.shape)
    used.setflags(write=False)
    inverse.setflags(write=False)
    return used, inverse


def verify_conjugation(phi: RankNMap, v, antiunitary: bool, num_samples: int, seed: int, complement: bool = False) -> float:
    """Max Frobenius residual of ``phi(P) - V tau(P) V*`` over random samples,
    or of ``phi(P) - (I - V tau(P) V*)`` with ``complement``.

    Each sample is ``P = b b*`` or, when n > d/2, ``I - b b*``, for a d x k
    frame b at ``k = _frame_cols(d, n)`` (``_sampled``).  It is predicted from
    its frame at d^2 k, with ``W = V tau(b)``, as ``Q = W W*``, or as
    ``I - W W*`` for a complement sample of a plain map or a plain sample
    of a complement map.  For ``P = I - b b*``, ``I - W W*`` is
    ``V tau(P) V* + I - V V*``, so the residual is the one above up to
    ``||I - V V*||_F``, about 1e-15 for a polar factor.  Q stays a raw
    matrix: a V unitary only to within the acceptance tolerance maps P to
    no exact projection, and the residual is the test it must pass.  It
    also stands in for the output's d^3 validation (``_checked_residuals``);
    a stack it does not vouch for is validated whole, naming a failing
    sample by its index in the run.
    A ``v`` that is not d x d raises ``DimensionMismatch``, and a sample
    count ``_sampled`` refuses ``ValueError``, both before any draw.
    """
    v, worst, d = np.asarray(v, dtype=np.complex128), 0.0, phi.ambient_dim
    if v.shape != (d, d):
        raise DimensionMismatch(f"V is {'x'.join(map(str, v.shape))}, the map acts on dimension {d}")
    for first, b, _, mapped in _sampled(phi, num_samples, seed):
        residuals = _checked_residuals(phi, mapped, first, v @ (b.conj() if antiunitary else b), complement)
        worst = np.maximum(worst, np.max(residuals))  # a NaN residual stays NaN
    return float(worst)


def _checked_residuals(phi: RankNMap, mapped, first: int, w, complement: bool) -> np.ndarray:
    """Frobenius residuals r of ``phi``'s outputs M to the queries of d x k
    frames b against ``Q = W W*`` (``W = V tau(b)``), or ``I - W W*`` if just
    one of k < n and the family's ``complement`` holds, checked by ``phi._check``
    unless r vouches for every M at ``phi.tol``; the stack ``M - Q`` is freed
    before the check.  Let ``E = M - Q``, ``g = ||W* W - I||_F``.  ``W W*`` has
    eigenvalues in ``{0} u [1 - g, 1 + g]``, so ``||Q - I/2||_2 <= 1/2 + g``;
    ``Q^2 - Q = W (W* W - I) W*`` in both forms, and
    ``M^2 - M = Q^2 - Q + (Q - I/2) E + E (Q - I/2) + E^2``.  So
    ``||M - M*||_F <= 2r`` and ``||M^2 - M||_F <= (1 + g) g + (1 + 2g) r + r^2``.
    Q has rank ``k`` (``W W*``) or ``d - k`` (``I - W W*``), and
    ``tr Q - rank = +-tr(W* W - I)`` in both forms, so where that rank is
    the map's n, ``|tr M - n| <= sqrt(d) r + sqrt(k) g``: with
    ``r, g <= eq_tol / 4`` both defects are at most ``eq_tol (2 + eq_tol) / 4``
    and, while ``(sqrt(d) + sqrt(k)) eq_tol <= 4 rank_tol`` (d < 1.6e7 by
    default), M passes ``projection_rank`` with rank n; NaN fails ``<=``."""
    (d, k), cover = w.shape[-2:], phi.tol.eq_tol / 4
    flip = complement != (k < phi.rank)
    gap = (w @ _adjoint(w)).astype(np.complex128, copy=False)  # Q, then M - Q in place
    residuals = frobenius_stack(np.subtract(mapped, np.subtract(np.eye(d), gap, out=gap) if flip else gap, out=gap))
    del gap
    vouches = (d - k if flip else k) == phi.rank and (np.sqrt(d) + np.sqrt(k)) * cover <= phi.tol.rank_tol
    if not (vouches and np.all(residuals <= cover) and np.all(frobenius_stack(_adjoint(w) @ w - np.eye(k)) <= cover)):
        phi._check(mapped, first)
    return residuals


def canonicalize_global_phase(v: np.ndarray) -> np.ndarray:
    """Fix the global phase of a unitary so that the largest-magnitude entry
    of its first column is positive real (the first such entry on a tie)."""
    pivot = v[np.argmax(np.abs(v[:, 0])), 0]
    return v * (abs(pivot) / pivot)


def align_phase(a: np.ndarray, b: np.ndarray) -> complex:
    """Unimodular c minimizing ``||a - c b||`` (for same-shape arrays)."""
    t = complex(np.vdot(b, a))
    return t / abs(t) if t != 0 else 1.0 + 0j


def _query_frames(rng: np.random.Generator, d: int, k: int, field: str, tol: ToleranceConfig) -> np.ndarray:
    """The reading's query plan, as a ``(q, d, k)`` stack of frames ``b``
    whose projections ``b b*`` are the queries: the coordinate frames of
    the k-blocks ``[jk, jk + k)`` of all ``ceil(d/k)`` blocks but the last,
    whose range is the complement of the others, then three Haar reference
    frames drawn from ``rng``, four at d = 2k with k > 1, where the
    complement family is read as well.  Three references are what the
    reading needs (Bargmann's invariant of their images, ``_reading``) and
    what the fit's phase synchronisation needs (``_fit``)."""
    m = -(-d // k)
    i = np.arange((m - 1) * k)
    blocks = np.zeros((m - 1, d, k), dtype=np.complex128)
    blocks[i // k, i, i % k] = 1.0
    return np.concatenate([blocks, _checked_frames(rng, 4 if d == 2 * k > 2 else 3, d, k, field, tol)])


@functools.lru_cache(maxsize=64)
def _plan(d: int, k: int, field: str, tol: ToleranceConfig) -> tuple[np.ndarray, np.ndarray, tuple]:
    """The reading's ``_query_frames`` and d x k range-finder matrix
    ``omega``, drawn in that order from ``default_rng(_READING_SEED)`` and
    made read-only, and the ``_readings`` of the three references whose
    images ``_fitted`` reads.  An entry holds at most ``44 d^2`` bytes of
    arrays (at most ``5d/2`` frame columns of complex d-vectors, ``5k`` at
    d = 2k, and omega's ``d^2 / 2`` reals) and four readings, 608 bytes;
    ``_fitted`` caches it while that fits one block (d <= 77): 16 MiB at most."""
    rng = np.random.default_rng(_READING_SEED)
    frames = _query_frames(rng, d, k, field, tol)
    omega = rng.standard_normal((d, k))
    frames.setflags(write=False)
    omega.setflags(write=False)
    m = -(-d // k)
    return frames, omega, _readings(frames[m - 1 : m + 2], field)


def _readings(references: np.ndarray, field: str) -> tuple[tuple[bool, bool, complex], ...]:
    """The readings ``(complement, antiunitary, T)`` ``_reading`` picks from,
    with the T each predicts for Bargmann's invariant of the images of three
    reference queries: ``P -> V P V*`` keeps their ``T = tr(ABC)``, ``P -> V
    conj(P) V*`` conjugates it, and the complement of either turns it into
    ``d - 3k + tr AB + tr BC + tr CA - T`` (or its conjugate); the real field
    has only the linear readings, and only d = 2k > 2 the complement ones."""
    f0, f1, f2 = references
    d, k = f0.shape
    a, b, c = f0.conj().T @ f1, f1.conj().T @ f2, f2.conj().T @ f0
    t = _trace3(a, b, c)
    pairs = frobenius(a) ** 2 + frobenius(b) ** 2 + frobenius(c) ** 2
    readings = [(False, False, t)]
    if field != REAL:
        readings.append((False, True, t.conjugate()))
    if d == 2 * k > 2:
        readings += [(True, anti, d - 3 * k + pairs - x) for _, anti, x in readings]
    return tuple(readings)


def _reading(images: np.ndarray, readings: tuple) -> tuple[bool, bool]:
    """``(complement, antiunitary)`` of the one of ``readings`` closest to the
    invariant of the images of the three reference queries."""
    invariant = _trace3(*images)
    return min(readings, key=lambda r: abs(invariant - r[2]))[:2]


def _trace3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> complex:
    return complex(np.sum((a @ b) * c.T))  # tr(ABC) from one matrix product


def _polar(a: np.ndarray) -> np.ndarray:
    """The nearest unitary (polar factor) of a matrix, or of each of a stack."""
    w, _, zh = np.linalg.svd(a)
    return w @ zh


def _adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().swapaxes(-1, -2)


def _ranges(images: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the ranges of a stack of rank-k images: one QR of
    ``image @ omega`` (omega is d x k) and one subspace step, for all at once."""
    return np.linalg.qr(images @ np.linalg.qr(images @ omega)[0])[0]


def _fit(images: np.ndarray, frames: np.ndarray, omega: np.ndarray, k: int) -> np.ndarray:
    """V with ``images[q] = V b_q b_q* V*`` for the query frames ``b_q``
    (``_query_frames``, already conjugated for an antiunitary reading).

    The ranges of the images are read by ``_ranges``.  One complete QR of
    the block images' ranges gives a unitary ``Y`` whose k-column blocks
    span ``V``'s, so ``V = Y blockdiag(U_j)``.  A reference frame ``g`` has
    ``V g = z S`` for its image's range ``z`` and an unknown unitary S;
    matching the SVDs of block 0 of ``g`` and ``Y* z`` leaves S a diagonal
    of phases in their right singular bases, ``V g' = z' D``.  The phases
    of all references are synchronised at once: ``<g'_a, g'_b>`` must equal
    ``conj(D_a) D_b <z'_a, z'_b>`` for every pair of columns, so the
    phases are those of the top singular vector of
    ``(z'* z') o conj(g'* g')``.  With ``x = z' D ~ V g'``, each ``U_j`` is
    the polar factor of block j of ``Y* x g'*``; the last, partial block
    is padded with an identity so that all blocks are solved as one stack.
    """
    d = images.shape[-1]
    m = -(-d // k)
    ranges = _ranges(images, omega)
    y = np.linalg.qr(np.concatenate(ranges[: m - 1], axis=1), mode="complete")[0]
    g, z = frames[m - 1 :], ranges[m - 1 :]
    right = _adjoint(np.linalg.svd(np.concatenate([g[:, :k], y[:, :k].conj().T @ z]))[2])
    g, z = np.concatenate(g @ right[: len(g)], axis=1), np.concatenate(z @ right[len(g) :], axis=1)
    top = np.linalg.svd((_adjoint(z) @ z) * (_adjoint(g) @ g).conj())[0][:, 0]
    x = z * (top / np.maximum(np.abs(top), np.finfo(float).tiny))  # no division by 0
    padded = np.zeros((m * k, m * k), dtype=x.dtype)
    padded[:d, :d] = y.conj().T @ x @ g.conj().T
    padded[d:, d:] = np.eye(m * k - d)
    u = _polar(padded.reshape(m, k, m, k)[np.arange(m), :, np.arange(m), :])  # the diagonal blocks
    y = np.concatenate([y, np.zeros((d, m * k - d))], axis=1).reshape(d, m, k).swapaxes(0, 1)
    return (y @ u).swapaxes(0, 1).reshape(d, m * k)[:, :d]


def _polish(images: np.ndarray, v: np.ndarray, frames: np.ndarray, stop: float) -> np.ndarray:
    """Least-squares polish over the query images: ``V <- polar(sum_q
    image_q V b_q b_q*)`` raises ``sum_q Re tr(image_q V b_q b_q* V*)`` at
    every step (the sum is convex in V), until V moves by at most ``stop``
    in Frobenius norm, or for ``_POLISH_STEPS`` steps."""
    for _ in range(_POLISH_STEPS):
        moved = _polar(((images @ (v @ frames)) @ _adjoint(frames)).sum(axis=0))
        step, v = frobenius(moved - v), moved
        if step <= stop:
            break
    return v


def _fitted(phi: RankNMap, accept_tol: float):
    """Block query plan -> Bargmann reading -> fit, gate, polish, at rank
    ``k = min(n, d - n)``: ``(complement, antiunitary, v, residual,
    reference)``.  The plan's queries reach ``phi`` through ``_blocks``, and
    their outputs are joined into one stack to be read.  When k < n the fit
    reads the images of ``b b*`` under the dual, and its gate checks
    ``phi``'s own outputs against ``I - W W*``, as verification does.  ``v``
    is the polished, phase-fixed fit, or ``None`` when its ``residual`` on
    its own queries exceeds ``FIT_GATE`` accept_tol; ``reference`` holds the
    frames and a copy of the outputs of the queries ``_report_pairs`` scores,
    and those pairs as indices into them, so the reading's outputs are
    released before verification."""
    d, n = phi.ambient_dim, phi.rank
    k = _frame_cols(d, n)
    m = -(-d // k)
    plan, omega, readings = (_plan if 44 * d * d <= _BLOCK_BYTES else _plan.__wrapped__)(d, k, phi.field, phi.tol)
    mapped = np.concatenate([out for *_, out in _blocks(phi, len(plan), lambda first, c: plan[first : first + c])])
    if not abs(np.vdot(mapped, mapped)) <= len(mapped) * d:  # NaN, inf or too large to fit:
        phi._check(mapped)  # raises, as ||P||_F^2 = n < d; else the fit vouches
    outputs = np.eye(d) - mapped if k < n else mapped
    real = phi.field == REAL and is_exactly_real(outputs)
    outputs, frames = (outputs.real, plan.real) if real else (outputs, plan)
    complement, antiunitary = _reading(outputs[m - 1 : m + 2], readings)
    images = np.eye(d) - outputs if complement else outputs
    frames = frames.conj() if antiunitary else frames
    v = _fit(images, frames, omega, k)
    w = v @ frames  # the fit's own predictions, V b b* V* = w w*
    residual = float(np.max(_checked_residuals(phi, mapped, 0, w, complement)))
    used, pairs = _report_pairs(m, len(plan) - m + 1)
    reference = plan[used], mapped[used], pairs  # copies: the reading's stacks are released
    if not residual <= FIT_GATE * accept_tol:
        return complement, antiunitary, None, residual, reference
    if residual > _POLISH_STOP * accept_tol:
        v = _polish(images, v, frames, _POLISH_STOP * accept_tol)
    return complement, antiunitary, canonicalize_global_phase(as_complex(v)), residual, reference


def reconstruct(phi: RankNMap, cfg: ReconstructionConfig | None = None) -> ReconstructionResult:
    """Classify an angle-preserving map and recover its inducing isometry.

    The map is read and fitted once (``_fitted``), in the reading
    ``_reading`` picks; a fit that matches its queries within ``FIT_GATE``
    accept_tol is polished and verified on 50 fresh samples, and an
    accepted result is returned as it comes, without screening.
    Otherwise a discrepancy above ``accept_tol = 10 spec_tol`` returns
    ``not_angle_preserving`` with the ``_witness`` of at most 20 pairs of
    the reading's queries (``_report_pairs``, set by the reading's seed,
    not ``cfg.seed``) or, if none of them clears it, of 20 pairs screened
    from ``cfg.seed``; else ``preserving_unclassified``, with a note on
    the gate the reading failed.

    An acceptance is the "no false positives" bound, and no more: a map
    that differs from the returned conjugation by more than ``accept_tol``
    on a set of Haar measure eps is accepted with probability at most
    ``(1 - eps)^50`` per ``cfg.seed``, at most 5 % once eps >= 0.058.
    Verification draws from ``cfg.seed + 1`` (``+ 2`` for the complement
    reading); the reading's plan is fixed (``_READING_SEED``), so a map
    can be exact on every reading query.
    """
    cfg = cfg or ReconstructionConfig()
    d, n = phi.ambient_dim, phi.rank
    if not 1 <= n < d:
        raise BadRank(f"reconstruction needs 1 <= n < d, got n={n}, d={d}")

    accept_tol = _ACCEPT_FACTOR * phi.tol.spec_tol
    complement, antiunitary, v, residual, (frames, outputs, pairs) = _fitted(phi, accept_tol)
    if complement:
        variant, label, seed = VARIANT_EXCEPTIONAL, "complement-composed", cfg.seed + 2
    else:
        variant, label, seed = VARIANT_CONJUGATION, "conjugation", cfg.seed + 1
    label = f"{'antiunitary' if antiunitary else 'linear'} {label} reading"
    if v is None:
        notes = f"{label} fits its own queries only to {residual:.3e} > {FIT_GATE:g} x accept_tol"
    else:
        residual = verify_conjugation(phi, v, antiunitary, _VERIFY_SAMPLES, seed, complement=complement)
        if residual <= accept_tol:
            return ReconstructionResult(variant, v=v, antiunitary=antiunitary, residual=residual)
        notes = f"{label} fails verification (residual {residual:.3e} > {accept_tol:.1e})"
    report = _witness(_queries(frames, n), outputs, *pairs, n)
    if not report.max_discrepancy > accept_tol:
        report = screen_preservation(phi, _SCREEN_PAIRS, cfg.seed)
    if not report.max_discrepancy > accept_tol:
        return ReconstructionResult(VARIANT_UNCLASSIFIED, notes=notes)
    return ReconstructionResult(
        VARIANT_NOT_PRESERVING, witness_p=report.witness_p, witness_q=report.witness_q,
        witness_phi_p=report.witness_phi_p, witness_phi_q=report.witness_phi_q, discrepancy=report.max_discrepancy,
    )


def reconstruct_via_dual(phi: RankNMap, cfg: ReconstructionConfig | None = None) -> ReconstructionResult:
    """A deprecated name for ``reconstruct``, returning its result: a rejection
    carries phi's own rank-n witness, not the dual's at rank d - n, and at
    d = 2n phi gets the queries ``reconstruct`` sends, not their complements.
    The name goes when the benchmark's ``dual-`` operations call ``reconstruct``
    (ROADMAP item 7)."""
    return reconstruct(phi, cfg)
