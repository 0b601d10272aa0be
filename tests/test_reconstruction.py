import hashlib
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest

from grasswig import (
    BadRank,
    DimensionMismatch,
    InternalInconsistency,
    NotAProjection,
    Projection,
    RankNMap,
    ReconstructionConfig,
    VARIANT_CONJUGATION,
    VARIANT_EXCEPTIONAL,
    VARIANT_NOT_PRESERVING,
    align_phase,
    extend_to_rank1,
    haar_random_unitary,
    random_projection,
    reconstruct,
    reconstruct_via_dual,
    screen_preservation,
    spectrum_discrepancy,
    trace_product,
    verify_conjugation,
)
from grasswig.linalg import REAL, frobenius, haar_frames_from_rng
from grasswig.maps import MapSpec, instantiate
from grasswig.projections import projection_rank
from conftest import local_dual
import grasswig.reconstruction as reconstruction
from grasswig.reconstruction import (
    _ACCEPT_FACTOR, FIT_GATE, _adjoint, _fit, _plan, _query_frames, _ranges, _reading, _readings, _report_pairs, _trace3,
)
from grasswig.tolerances import DEFAULT_TOL, ToleranceConfig

ACCEPT_TOL = _ACCEPT_FACTOR * DEFAULT_TOL.spec_tol


def conjugation(d, n, seed, antiunitary=False, field="complex"):
    v = haar_random_unitary(d, seed, field)
    return instantiate(MapSpec("conjugation", matrix=v, antiunitary=antiunitary), d, n, field), v


def loosely(m):
    """An oracle output as a ``Projection`` checked only at eq_tol 5e-3."""
    return Projection(m, tol=ToleranceConfig(eq_tol=5e-3, rank_tol=5e-3))


def planted_deviation(recovered, planted):
    c = align_phase(recovered, planted)
    return float(np.max(np.abs(recovered - c * planted)))


def test_identity_conjugation_recovers_identity():
    phi = instantiate(MapSpec("conjugation", matrix=np.eye(4, dtype=complex)), 4, 2)
    result = reconstruct(phi)
    assert result.variant == VARIANT_CONJUGATION
    assert result.antiunitary is False
    assert planted_deviation(result.v, np.eye(4)) <= 1e-10


def test_round_trip_antiunitary_conjugation():
    phi, v = conjugation(6, 2, seed=21, antiunitary=True)
    result = reconstruct(phi)
    assert result.variant == VARIANT_CONJUGATION
    assert result.antiunitary is True
    assert verify_conjugation(phi, result.v, True, 30, seed=99) <= 1e-8
    assert planted_deviation(result.v, v) <= 1e-8


def test_complement_is_exceptional():
    phi = instantiate(MapSpec("complement"), 4, 2)
    result = reconstruct(phi)
    assert result.variant == VARIANT_EXCEPTIONAL
    assert result.antiunitary is False
    assert planted_deviation(result.v, np.eye(4)) <= 1e-8
    assert result.residual <= 1e-8


def test_complement_composed_with_conjugation_is_exceptional():
    v = haar_random_unitary(6, 22)
    spec = MapSpec("compose", parts=(MapSpec("complement"), MapSpec("conjugation", matrix=v)))
    result = reconstruct(instantiate(spec, 6, 3))
    assert result.variant == VARIANT_EXCEPTIONAL
    assert planted_deviation(result.v, v) <= 1e-7


def test_planted_conjugation_at_half_dimension_stays_a_conjugation():
    phi, v = conjugation(6, 3, seed=23)
    result = reconstruct(phi)
    assert result.variant == VARIANT_CONJUGATION
    assert planted_deviation(result.v, v) <= 1e-7


def test_real_field_round_trip():
    phi, v = conjugation(5, 2, seed=24, field=REAL)
    result = reconstruct(phi)
    assert result.variant == VARIANT_CONJUGATION
    assert result.antiunitary is False
    assert np.all(result.v.imag == 0.0)
    assert planted_deviation(result.v, v) <= 1e-8


def test_noisy_map_is_rejected_with_witness():
    phi = instantiate(MapSpec("noisy", base=MapSpec("identity"), sigma=1e-2, seed=25), 5, 2)
    result = reconstruct(phi)
    assert result.variant == VARIANT_NOT_PRESERVING
    assert result.discrepancy > 1e-7
    assert result.witness_p.rank == result.witness_q.rank == 2
    # the witness replays exactly: screening and spectrum_discrepancy share
    # one QPQ spectrum routine, and the trace form is that spectrum's sum
    p, q = result.witness_p, result.witness_q
    fp, fq = phi.evaluate(p), phi.evaluate(q)
    replay = max(spectrum_discrepancy(p, q, fp, fq), abs(trace_product(fp, fq) - trace_product(p, q)))
    assert abs(result.discrepancy - replay) <= 1e-15
    # the result carries the images, so writing a witness needs no oracle call
    assert np.array_equal(result.witness_phi_p.matrix, fp.matrix)
    assert np.array_equal(result.witness_phi_q.matrix, fq.matrix)


def test_via_dual_is_reconstruct_and_its_witness_is_phis_own():
    # the deprecated name returns reconstruct's result: a rank-n witness
    # with phi's own images, no longer the dual's at rank d - n
    phi = instantiate(MapSpec("noisy", base=MapSpec("identity"), sigma=1e-2, seed=25), 5, 2)
    result = reconstruct_via_dual(phi)
    assert result.variant == VARIANT_NOT_PRESERVING
    assert result.witness_p.rank == 2
    assert result_fields(result) == result_fields(reconstruct(phi))
    assert np.array_equal(result.witness_phi_p.matrix, phi.evaluate(result.witness_p).matrix)
    assert np.array_equal(result.witness_phi_q.matrix, phi.evaluate(result.witness_q).matrix)


def test_screen_holds_for_conjugation_and_complement():
    phi, _ = conjugation(5, 2, seed=9)
    assert screen_preservation(phi, 20, seed=0).max_discrepancy <= 1e-10
    phi = instantiate(MapSpec("complement"), 6, 3)
    assert screen_preservation(phi, 20, seed=0).max_discrepancy <= 1e-10


def test_screen_flags_noisy_map():
    phi = instantiate(MapSpec("noisy", base=MapSpec("identity"), sigma=1e-2, seed=4), 4, 2)
    report = screen_preservation(phi, 20, seed=0)
    assert report.max_discrepancy > 1e-4
    assert report.witness_p.rank == report.witness_q.rank == 2


@pytest.mark.parametrize("d", [6, 8, 16])
@pytest.mark.parametrize("sigma", [3e-9, 1e-9])
def test_near_preserving_map_is_accepted(d, sigma):
    # the candidate V is unitary only to within accept_tol, so V P V* is no
    # exact projection; verification must judge it by its residual alone
    v = haar_random_unitary(d, 3)
    spec = MapSpec("noisy", base=MapSpec("conjugation", matrix=v), sigma=sigma, seed=5)
    result = reconstruct(instantiate(spec, d, 2))
    assert result.variant == VARIANT_CONJUGATION
    assert result.residual <= 1e-7
    assert planted_deviation(result.v, v) <= 1e-6


def test_slightly_non_hermitian_oracle_is_classified():
    # every output passes RankNMap's own Hermitian check (defect 0.9e-9 <= 1e-9);
    # the reading must judge them by its fit's residual, never re-check them
    # at eq_tol and raise
    d, n = 8, 4
    v = haar_random_unitary(d, 40)
    rng = np.random.default_rng(41)
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    k = (g - g.conj().T) * (0.45e-9 / frobenius(g - g.conj().T))  # ||2k|| = 0.9e-9

    def fn(p):
        sign = 1.0 if hashlib.sha256(p.matrix.tobytes()).digest()[0] & 1 else -1.0
        return v @ p.matrix @ v.conj().T + sign * k

    result = reconstruct(RankNMap(d, n, fn))
    assert result.variant == VARIANT_CONJUGATION
    assert result.antiunitary is False
    assert planted_deviation(result.v, v) <= 1e-7


def test_verify_complement_form():
    phi = instantiate(MapSpec("complement"), 4, 2)
    eye = np.eye(4)
    assert verify_conjugation(phi, eye, False, 10, seed=0, complement=True) <= 1e-12
    assert verify_conjugation(phi, eye, False, 10, seed=0) > 1.0


def test_rank_bounds():
    phi, _ = conjugation(4, 4, seed=26)
    with pytest.raises(BadRank):
        reconstruct(phi)


@pytest.mark.parametrize("field, value", [("seed", -1), ("seed", 2.5), ("seed", True)])
def test_config_refuses_a_count_or_seed_that_is_no_integer_in_range(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer"):
        ReconstructionConfig(**{field: value})


def test_config_keeps_a_numpy_seed_as_a_python_integer():
    # verification draws from seed + 1: a numpy seed would overflow there
    # (int64, a warning, then numpy's bare ValueError) or wrap to 0 (uint64)
    phi, _ = conjugation(4, 2, seed=27)
    for seed in (np.int64(2**63 - 1), np.uint64(2**64 - 1)):
        cfg = ReconstructionConfig(seed)
        assert type(cfg.seed) is int and cfg.seed == int(seed)
        result = reconstruct(phi, cfg)
        assert result.variant == VARIANT_CONJUGATION
        assert result.residual == verify_conjugation(phi, result.v, False, 50, seed=int(seed) + 1)


def test_the_dual_of_a_conjugation_reads_as_the_same_conjugation():
    # I - V (I - P) V* = V P V*: the dual on rank 3 is read through
    # complement queries and gives back phi's V
    phi, v = conjugation(5, 2, seed=31)
    psi = local_dual(phi)
    assert psi.rank == 3
    result = reconstruct(psi)
    assert result.variant == VARIANT_CONJUGATION
    assert planted_deviation(result.v, v) <= 1e-7


def test_the_dual_of_the_dual_reads_as_the_map_itself():
    phi, v = conjugation(5, 2, seed=32)
    twice, direct = reconstruct(local_dual(local_dual(phi))), reconstruct(phi)
    assert twice.variant == direct.variant == VARIANT_CONJUGATION
    assert planted_deviation(twice.v, direct.v) <= 1e-9 and planted_deviation(twice.v, v) <= 1e-7


def test_the_dual_of_the_complement_map_reads_as_exceptional():
    # the complement map is self-dual: I - phi(I - P) = I - P
    result = reconstruct(local_dual(instantiate(MapSpec("complement"), 6, 3)))
    assert result.variant == VARIANT_EXCEPTIONAL
    assert planted_deviation(result.v, np.eye(6)) <= 1e-8


def dual_cases():
    for d in range(3, 9):
        for n in range(d // 2 + 1, d):
            for field, anti in (("real", False), ("complex", False), ("complex", True)):
                phi, v = conjugation(d, n, seed=33 + d + n, antiunitary=anti, field=field)
                yield phi, v, VARIANT_CONJUGATION, anti
    for n in (2, 3, 4):
        for field, anti in (("real", False), ("complex", False), ("complex", True)):
            v = haar_random_unitary(2 * n, 60 + n, field)
            spec = MapSpec("compose", parts=(MapSpec("complement"), MapSpec("conjugation", matrix=v, antiunitary=anti)))
            yield instantiate(spec, 2 * n, n, field), v, VARIANT_EXCEPTIONAL, anti


def test_the_dual_reads_as_the_direct_route():
    # the dual, an external oracle on rank d - n, is read by the other of
    # the plain and complement readings (or, at d = 2n, by the same one on
    # complemented queries); its V must also pass verification against
    # the original map, on samples it never saw
    for phi, v, variant, anti in dual_cases():
        direct = reconstruct(phi)
        via = reconstruct(local_dual(phi))
        assert direct.variant == via.variant == variant
        assert direct.antiunitary is via.antiunitary is anti
        assert planted_deviation(via.v, v) <= 1e-7
        assert planted_deviation(via.v, direct.v) <= 1e-9
        residual = verify_conjugation(phi, via.v, anti, 50, seed=3, complement=variant == VARIANT_EXCEPTIONAL)
        assert residual <= ACCEPT_TOL


def test_the_dual_of_the_identity_map_reads_as_the_identity():
    result = reconstruct(local_dual(instantiate(MapSpec("identity"), 5, 2)))
    assert result.variant == VARIANT_CONJUGATION
    assert planted_deviation(result.v, np.eye(5)) <= 1e-10


def test_via_dual_handles_the_complement_family():
    phi = instantiate(MapSpec("complement"), 6, 3)
    result = reconstruct_via_dual(phi)
    assert result.variant == VARIANT_EXCEPTIONAL
    assert planted_deviation(result.v, np.eye(6)) <= 1e-8


def test_the_dual_of_a_noisy_map_is_rejected_with_a_witness_of_the_dual_rank():
    phi = instantiate(MapSpec("noisy", base=MapSpec("identity"), sigma=1e-2, seed=34), 5, 3)
    result = reconstruct(local_dual(phi))
    assert result.variant == VARIANT_NOT_PRESERVING
    assert result.witness_p.rank == result.witness_phi_q.rank == 2
    rescored_witness(result)


def test_reconstruction_is_seed_independent_after_canonicalization():
    phi, _ = conjugation(5, 2, seed=35)
    a = reconstruct(phi, ReconstructionConfig(seed=1))
    b = reconstruct(phi, ReconstructionConfig(seed=2))
    assert np.max(np.abs(a.v - b.v)) <= 1e-9


def test_result_serialization():
    phi, _ = conjugation(4, 2, seed=36)
    obj = reconstruct(phi).to_obj()
    assert obj["variant"] == "conjugation"
    assert obj["antiunitary"] is False
    assert obj["residual"] <= 1e-7
    assert obj["V"]["rows"] == 4


def counting(phi):
    calls = []

    def fn(p):
        calls.append((p.matrix + 0.0).tobytes())  # -0.0 and +0.0 count as one input
        return phi.evaluate(p)

    return RankNMap(phi.ambient_dim, phi.rank, fn, field=phi.field), calls


def block_plan_calls(d, n):
    """Oracle calls of the reading: ceil(d/k) - 1 block queries and three
    reference queries (four at d = 2n, n > 1), at k = min(n, d - n)."""
    k = min(n, d - n)
    return -(-d // k) - 1 + (4 if d == 2 * n > 2 else 3)


def test_oracle_budget_at_large_dimension():
    # 50 verification evaluations and the reading's block and reference
    # queries; an accepted map is not screened.
    # n = 8: 7 + 3 + 50 = 60; n = 16: 3 + 3 + 50 = 56.
    for n, anti, expected in ((8, False, 60), (16, True, 56)):
        planted, v = conjugation(64, n, seed=37 + n, antiunitary=anti)
        phi, calls = counting(planted)
        result = reconstruct(phi)
        assert result.variant == VARIANT_CONJUGATION
        assert result.antiunitary is anti
        assert planted_deviation(result.v, v) <= 1e-7
        assert len(calls) == 50 + block_plan_calls(64, n) == expected, (n, len(calls))
        assert len(set(calls)) == len(calls)


def test_padded_frames_send_each_distinct_input_once():
    # the block plan pads no frame and sends no input twice.
    # (3, 1): blocks {e0}, {e1} and the complement {e2}, so 2 + 3 queries;
    # (5, 3) is read through complement queries at k = 2: blocks {e0, e1},
    # {e2, e3} and the partial {e4}, 2 + 3; d = 2: block {e0}, 1 + 3.
    for d, n, field, anti, reading in (
        (3, 1, "complex", False, 5),
        (3, 1, "real", False, 5),
        (5, 3, "complex", True, 5),
        (2, 1, "complex", True, 4),
        (2, 1, "complex", False, 4),
        (2, 1, "real", False, 4),
    ):
        planted, v = conjugation(d, n, seed=40 + d + n, antiunitary=anti, field=field)
        phi, calls = counting(planted)
        result = reconstruct(phi)
        assert result.variant == VARIANT_CONJUGATION
        assert result.antiunitary is anti
        assert planted_deviation(result.v, v) <= 1e-10
        assert len(calls) == 50 + reading == 50 + block_plan_calls(d, n), (d, n, field, len(calls))
        assert len(set(calls)) == len(calls)
    # a rejected map pays its 2 block and 3 reference queries and nothing
    # more: a pair of reading queries explains the failure, with no
    # verification and no screen
    noisy = instantiate(MapSpec("noisy", base=MapSpec("identity"), sigma=1e-3, seed=46), 6, 2)
    phi, calls = counting(noisy)
    assert reconstruct(phi).variant == VARIANT_NOT_PRESERVING
    assert len(calls) == 2 + 3, len(calls)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("sigma", [1e-5, 1e-3])
def test_a_noisy_map_at_half_dimension_reaches_the_screen_after_its_reading(sigma):
    # 1 block and 4 reference queries, then no verification and no screen:
    # the witness is a pair of the reading's queries, its images the
    # oracle's outputs for them, and it rescores to the discrepancy exactly
    v = haar_random_unitary(16, 47)
    spec = MapSpec("noisy", base=MapSpec("conjugation", matrix=v), sigma=sigma, seed=48)
    phi, calls = counting(instantiate(spec, 16, 8))
    result = reconstruct(phi, ReconstructionConfig(seed=49))
    assert result.variant == VARIANT_NOT_PRESERVING
    assert len(calls) == 1 + 4 == block_plan_calls(16, 8), len(calls)
    assert len(set(calls)) == len(calls)
    witness = rescored_witness(result)
    assert (witness[0] + 0.0).tobytes() in calls and (witness[1] + 0.0).tobytes() in calls
    assert witness[0].tobytes() != witness[1].tobytes()
    fresh = instantiate(spec, 16, 8).evaluate_many([result.witness_p, result.witness_q])
    assert np.array_equal(fresh[0].matrix, witness[2]) and np.array_equal(fresh[1].matrix, witness[3])


def rescored_witness(result):
    """A rejection's four witness matrices, after checking that they rescore
    to its discrepancy exactly and that it exceeds accept_tol."""
    witness = [getattr(result, f"witness_{name}") for name in ("p", "q", "phi_p", "phi_q")]
    assert spectrum_discrepancy(*witness) == result.discrepancy > ACCEPT_TOL
    return [w.matrix for w in witness]


def exact_on_its_reading(d, n, seed):
    """A conjugation that answers the reading's queries exactly and every
    later query with noise (sigma 1e-3), the noisy map, and the call log."""
    v = haar_random_unitary(d, seed)
    exact = instantiate(MapSpec("conjugation", matrix=v), d, n)
    noisy = instantiate(MapSpec("noisy", base=MapSpec("conjugation", matrix=v), sigma=1e-3, seed=seed), d, n)
    calls = []

    def fn(p):
        calls.append(1)
        return (exact if len(calls) <= block_plan_calls(d, n) else noisy).evaluate(p)

    return RankNMap(d, n, fn), noisy, calls


def test_a_map_exact_on_its_reading_is_rejected_by_the_fallback_screen():
    # the reading's queries are answered exactly, every later query with
    # noise: the fit passes its gate, verification fails and no reference
    # pair clears accept_tol, so the map is screened on 20 fresh pairs, and
    # the witness is the screen's, bit for bit
    phi, noisy, calls = exact_on_its_reading(6, 2, 50)
    result = reconstruct(phi, ReconstructionConfig(seed=51))
    assert result.variant == VARIANT_NOT_PRESERVING
    assert len(calls) == block_plan_calls(6, 2) + 50 + 40 == 95
    report = screen_preservation(noisy, 20, seed=51)
    assert result.discrepancy == report.max_discrepancy
    for name in ("witness_p", "witness_q", "witness_phi_p", "witness_phi_q"):
        assert np.array_equal(getattr(result, name).matrix, getattr(report, name).matrix)


def test_every_kind_of_witness_rescores_to_its_discrepancy_through_the_public_api():
    # spectrum_discrepancy is the statistic every witness is chosen by, so a
    # witness from the reading's pairs, from the fallback screen, from the
    # reading of the dual and from screen_preservation rescores to it bit
    # for bit
    noisy = instantiate(MapSpec("noisy", base=MapSpec("identity"), sigma=1e-2, seed=25), 5, 2)
    runs = ((noisy, 0), (exact_on_its_reading(6, 2, 50)[0], 51), (local_dual(noisy), 0))
    for phi, seed in runs:
        with mock.patch.object(reconstruction, "screen_preservation", wraps=screen_preservation) as screened:
            result = reconstruct(phi, ReconstructionConfig(seed=seed))
        assert result.variant == VARIANT_NOT_PRESERVING and screened.called == (seed == 51)
        rescored_witness(result)
    report = screen_preservation(noisy, 20, seed=0)
    witness = (report.witness_p, report.witness_q, report.witness_phi_p, report.witness_phi_q)
    assert spectrum_discrepancy(*witness) == report.max_discrepancy > ACCEPT_TOL


@pytest.mark.parametrize("d", range(2, 17))
def test_each_route_reads_with_three_references_or_four_at_half_dimension(monkeypatch, d):
    # every n and both fields: the reading sends ceil(d/k) - 1 blocks and
    # three references (four at d = 2k > 2), all distinct, before the 50
    # verification queries; the dual is read at the same k, at a cost of one
    # call of phi per query
    before_verification = []
    verify = reconstruction.verify_conjugation
    monkeypatch.setattr(
        reconstruction, "verify_conjugation", lambda phi, *a, **kw: before_verification.append(len(calls)) or verify(phi, *a, **kw)
    )
    for n in range(1, d):
        reading = block_plan_calls(d, n)
        for field in ("complex", REAL):
            for route in (reconstruct, lambda phi: reconstruct(local_dual(phi))):
                phi, calls = counting(conjugation(d, n, seed=d + 17 * n, field=field)[0])
                before_verification.clear()
                assert route(phi).variant == VARIANT_CONJUGATION
                assert before_verification == [reading] and len(calls) == reading + 50, (d, n, field, route)
                assert len(set(calls[:reading])) == reading


def test_a_kicked_block_image_is_rejected_by_a_block_reference_pair():
    # an exact map except that block query 0's image is turned by a unitary
    # near I (a Cayley transform of size 1e-4 h): every reference pair is
    # exact, but the fit fails its gate and the pairs of block 0 with the
    # references carry the kick, so the reading alone rejects the map, with
    # no verification and no screen; the witness is block 0 and a reference
    d, n = 8, 2
    planted, _ = conjugation(d, n, seed=70)
    h = np.random.default_rng(71).standard_normal((d, d))
    kick = np.linalg.solve(np.eye(d) - 5e-5j * (h + h.T), np.eye(d) + 5e-5j * (h + h.T))  # Cayley: unitary
    block0 = np.diag([1.0, 1.0] + [0.0] * (d - 2))

    def fn(p):
        out = planted.evaluate(p).matrix
        return kick @ out @ kick.conj().T if np.array_equal(p.matrix, block0) else out

    phi, calls = counting(RankNMap(d, n, fn))
    with mock.patch.object(reconstruction, "screen_preservation", wraps=screen_preservation) as screened:
        result = reconstruct(phi)
    assert result.variant == VARIANT_NOT_PRESERVING and not screened.called
    assert len(calls) == block_plan_calls(d, n) == 3 + 3
    p, q, phi_p, phi_q = rescored_witness(result)
    assert np.array_equal(p, block0) and (q + 0.0).tobytes() in calls[3:]
    assert np.array_equal(phi_p, fn(result.witness_p)) and np.array_equal(phi_q, fn(result.witness_q))


def test_the_scored_reading_pairs_are_reference_pairs_then_block_reference_pairs():
    # queries 0..m-2 are blocks, m-1 on references; never two blocks, never
    # a pair twice, at most the 20 pairs of a fresh screen, and only the
    # queries those pairs use are kept
    def query_pairs(m, refs):
        used, pairs = _report_pairs(m, refs)
        assert not used.flags.writeable and not pairs.flags.writeable
        assert np.array_equal(np.unique(pairs), np.arange(len(used)))
        return used[pairs]

    assert query_pairs(2, 3).tolist() == [[1, 1, 2, 0, 0, 0], [2, 3, 3, 1, 2, 3]]
    assert query_pairs(3, 3).shape == (2, 3 + 6) and query_pairs(2, 4).shape == (2, 6 + 4)
    for m, refs in ((8, 3), (64, 3), (3, 4)):
        first, second = pairs = query_pairs(m, refs)
        assert pairs.shape[1] == min(20, refs * (refs - 1) // 2 + (m - 1) * refs)
        assert np.all(second >= m - 1) and np.all(first < second)
        assert len(set(zip(first.tolist(), second.tolist()))) == pairs.shape[1]
    assert _report_pairs(8, 3)[0].tolist() == [0, 1, 2, 3, 4, 5, 7, 8, 9]  # blocks 0-5 and the references


def test_complement_branch_reuses_the_dyad_images():
    # one fit on one set of outputs serves both families: the d = 2n
    # complement reading fits I - M on the outputs the linear reading would
    # fit, so it costs no more oracle calls than a plain conjugation
    v = haar_random_unitary(8, 38)
    eye = np.eye(8)
    plain, plain_calls = counting(conjugation(8, 4, seed=38)[0])
    composed, composed_calls = counting(
        RankNMap(8, 4, lambda p: Projection(eye - v @ p.matrix @ v.conj().T, rank=4))
    )
    assert reconstruct(plain).variant == VARIANT_CONJUGATION
    result = reconstruct(composed)
    assert result.variant == VARIANT_EXCEPTIONAL
    assert planted_deviation(result.v, v) <= 1e-7
    assert len(composed_calls) <= len(plain_calls)


def reference_sample(rng, d, n, field):
    """One sample drawn as the sampled stages draw it, with its frame b: a
    Haar d x k frame at k = min(n, d - n), and ``b b*`` or, when k < n, its
    complement ``I - b b*``, of rank n either way."""
    k = min(n, d - n)
    b = haar_frames_from_rng(rng, 1, d, k, field)
    p = (b @ b.conj().swapaxes(-1, -2))[0]
    return b[0], Projection(np.eye(d) - p if k < n else p, rank=n)


def reference_screen(phi, num_samples, seed):
    """Per-pair screen: the loop the stacked screen must reproduce exactly."""
    rng = np.random.default_rng(seed)
    worst, wp, wq = 0.0, None, None
    for _ in range(num_samples):
        p = reference_sample(rng, phi.ambient_dim, phi.rank, phi.field)[1]
        q = reference_sample(rng, phi.ambient_dim, phi.rank, phi.field)[1]
        fp, fq = phi.evaluate(p), phi.evaluate(q)
        before = np.linalg.eigvalsh(q.matrix @ p.matrix @ q.matrix)
        after = np.linalg.eigvalsh(fq.matrix @ fp.matrix @ fq.matrix)
        trace_dev = abs(float(after.sum()) - float(before.sum()))
        discrepancy = max(trace_dev, float(np.max(np.abs(before - after))))
        if discrepancy >= worst:
            worst, wp, wq = discrepancy, p, q
    return worst, wp, wq


def reference_verify(phi, v, antiunitary, num_samples, seed, complement=False, frames=True):
    """Per-sample verification residual: each sample P (``reference_sample``)
    predicted from its frame as ``W W*`` with ``W = V tau(b)``, or as
    ``I - W W*`` when P = I - b b*, or, without ``frames``, as
    ``V tau(P) V*``; each prediction complemented with ``complement``."""
    rng = np.random.default_rng(seed)
    d, n = phi.ambient_dim, phi.rank
    eye = np.eye(d)
    worst = 0.0
    for _ in range(num_samples):
        b, p = reference_sample(rng, d, n, phi.field)
        if frames:
            w = v @ (b.conj() if antiunitary else b)
            predicted = w @ w.conj().T
            if complement != (b.shape[1] < n):
                predicted = eye - predicted
        else:
            predicted = v @ (p.matrix.conj() if antiunitary else p.matrix) @ v.conj().T
            if complement:
                predicted = eye - predicted
        worst = max(worst, frobenius(phi.evaluate(p).matrix - predicted))
    return worst


def test_stacked_screen_matches_the_per_pair_loop():
    # d = 40 puts 5 pairs in a stack, so 7 and 20 pairs span several stacks;
    # the identity ties every pair at 0, which pins the last-pair rule; at
    # (5, 3) the samples are complements of d x 2 frames
    for d, n, spec, pairs in (
        (6, 2, "noisy", 20),
        (5, 3, "conjugation", 20),
        (6, 3, "identity", 20),
        (40, 8, "noisy", 7),
        (40, 8, "conjugation", 20),
        (40, 8, "identity", 7),
    ):
        conj = MapSpec("conjugation", matrix=haar_random_unitary(d, d + n))
        map_spec = {"noisy": MapSpec("noisy", base=conj, sigma=1e-3, seed=5), "identity": MapSpec("identity")}.get(spec, conj)
        stacked = screen_preservation(instantiate(map_spec, d, n), pairs, seed=9)
        worst, wp, wq = reference_screen(instantiate(map_spec, d, n), pairs, seed=9)
        assert stacked.max_discrepancy == worst
        assert np.array_equal(stacked.witness_p.matrix, wp.matrix)
        assert np.array_equal(stacked.witness_q.matrix, wq.matrix)
        phi = instantiate(map_spec, d, n)
        assert np.array_equal(stacked.witness_phi_p.matrix, phi.evaluate(wp).matrix)
        assert np.array_equal(stacked.witness_phi_q.matrix, phi.evaluate(wq).matrix)


def test_stacked_verify_matches_the_per_sample_loop():
    cases = []
    for d, n, anti in ((7, 3, False), (7, 3, True), (40, 8, True), (7, 5, False), (7, 5, True)):
        phi, v = conjugation(d, n, seed=d, antiunitary=anti)
        cases.append((phi, v, anti, False))
        cases.append((phi, haar_random_unitary(d, 1), anti, False))  # a wrong candidate
    complement = instantiate(MapSpec("complement"), 8, 4)
    cases.append((complement, np.eye(8, dtype=complex), False, True))
    cases.append((complement, haar_random_unitary(8, 2), True, True))
    for phi, v, anti, compl in cases:
        for samples in (1, 13, 50):
            stacked = verify_conjugation(phi, v, anti, samples, seed=4, complement=compl)
            looped = reference_verify(phi, v, anti, samples, seed=4, complement=compl)
            assert abs(stacked - looped) <= 1e-15 * max(1.0, looped)
            # V tau(P) V* rounds differently from W W*: the residuals agree to
            # d eps (measured: at most 6.3 eps, on the exact candidate at d = 40,
            # and 5.0 eps at (7, 5), where I - W W* also carries ||I - V V*||)
            conjugated = reference_verify(phi, v, anti, samples, seed=4, complement=compl, frames=False)
            eps = np.finfo(float).eps
            assert abs(looped - conjugated) <= phi.ambient_dim * eps * max(1.0, looped)


def spied_frames(monkeypatch):
    """Each ``(d, k)`` and stack of frames the reconstruction draws with
    ``_checked_frames``."""
    drawn, checked_frames = [], reconstruction._checked_frames

    def spy(rng, count, d, k, field, tol):
        drawn.append(((d, k), checked_frames(rng, count, d, k, field, tol)))
        return drawn[-1][1]

    monkeypatch.setattr(reconstruction, "_checked_frames", spy)
    return drawn


@pytest.mark.parametrize("d, n", [(7, 5), (40, 30), (7, 3), (8, 4)])
def test_samples_above_half_rank_complement_frames_of_rank_d_minus_n(monkeypatch, d, n):
    # both sampled stages draw d x k frames, k = min(n, d - n), and send the
    # oracle I - b b* when k < n (b b* otherwise), bit for bit: projections
    # of rank n.  At d = 40 a stack holds 10 samples, so both stages span two
    drawn = spied_frames(monkeypatch)
    phi, v = conjugation(d, n, seed=d + n, antiunitary=True)
    sent = []
    counted = RankNMap(d, n, lambda p: sent.append(p) or phi.evaluate(p))
    assert verify_conjugation(counted, v, True, 13, seed=3) <= 1e-12
    assert screen_preservation(counted, 7, seed=4).max_discrepancy <= 1e-12
    k = d - n if 2 * n > d else n
    assert {shape for shape, _ in drawn} == {(d, k)}
    frames = np.concatenate([b for _, b in drawn])
    assert len(frames) == len(sent) == 13 + 14
    products = frames @ frames.conj().swapaxes(-1, -2)
    expected = np.eye(d) - products if k < n else products
    for p, m in zip(sent, expected):
        assert p.rank == n and np.array_equal(p.matrix, m)
        assert projection_rank(p.matrix) == n


@pytest.mark.parametrize("d, n", [(d, n) for d in range(2, 9) for n in range(1, d)] + [(20, 15)])
def test_reconstruct_reads_a_map_above_half_rank_through_complement_queries(monkeypatch, d, n):
    # the reading sends phi the plan's frames b, d x k at k = min(n, d - n),
    # as I - b b* when k < n (b b* otherwise), in plan order and bit for
    # bit, then 50 verification samples
    phi, v = conjugation(d, n, seed=d + n, antiunitary=True)
    sent = []
    result = reconstruct(RankNMap(d, n, lambda p: sent.append(p.matrix) or phi._fn(p)))
    assert result.variant == VARIANT_CONJUGATION and planted_deviation(result.v, v) <= 1e-7
    k = min(n, d - n)
    plan = _plan.__wrapped__(d, k, "complex", DEFAULT_TOL)[0]
    products = plan @ plan.conj().swapaxes(-1, -2)
    expected = np.eye(d) - products if k < n else products
    assert len(sent) == len(plan) + 50
    assert all(np.array_equal(p, m) for p, m in zip(sent, expected))
    noisy = MapSpec("noisy", base=MapSpec("conjugation", matrix=v), sigma=1e-3, seed=d)
    assert reconstruct(instantiate(noisy, d, n)).variant == VARIANT_NOT_PRESERVING


@pytest.mark.parametrize("d, n, anti, field", [(8, 3, False, "complex"), (7, 2, True, "complex"), (9, 4, False, REAL)])
def test_the_dual_is_verified_through_flipped_frames(monkeypatch, d, n, anti, field):
    # the dual I - phi(I - P) has rank d - n > d/2, so its verification
    # samples are I - b b* with d x n frames; reading it still recovers the
    # planted V, with the direct route's residual up to roundoff
    drawn = spied_frames(monkeypatch)
    phi, v = conjugation(d, n, seed=70 + d, antiunitary=anti, field=field)
    via = reconstruct(local_dual(phi))
    assert via.variant == VARIANT_CONJUGATION and via.antiunitary is anti
    assert planted_deviation(via.v, v) <= 1e-7
    assert {shape for shape, _ in drawn} == {(d, n)}
    assert sum(len(b) for _, b in drawn) >= 50  # the verification frames among them
    direct = reconstruct(phi)
    assert abs(via.residual - direct.residual) <= 1e-12


def test_sampled_stages_call_the_oracle_once_per_sample():
    v = haar_random_unitary(6, 2)
    calls = []

    def fn(p):
        calls.append(1)
        return v @ p.matrix @ v.conj().T

    phi = RankNMap(6, 2, fn)
    screen_preservation(phi, 20, seed=1)
    assert len(calls) == 40
    verify_conjugation(phi, v, False, 50, seed=2)
    assert len(calls) == 90


def test_sampled_stages_name_the_run_index_of_a_bad_output():
    # at (40, 8) both stages draw 10 samples per stack, so sample 13 is
    # output 3 of the second stack; the error names its index in the run
    v = haar_random_unitary(40, 8)

    def oracle(bad, wrap):
        calls = []

        def fn(p):
            calls.append(1)
            out = v @ p.matrix @ v.conj().T
            return wrap(bad(out) if len(calls) == 14 else out)

        return RankNMap(40, 8, fn)

    for bad, error, message in (
        (lambda m: m + 1e-6 * np.eye(40), NotAProjection, "matrix 13: idempotency"),
        (lambda m: np.diag([1.0] * 9 + [0.0] * 31), InternalInconsistency, "rank 9 for input 13"),
    ):
        for wrap in (np.asarray, loosely):  # a loosely built Projection is judged as its matrix
            with pytest.raises(error, match=message):
                verify_conjugation(oracle(bad, wrap), v, False, 20, seed=1)
            with pytest.raises(error, match=message):
                screen_preservation(oracle(bad, wrap), 10, seed=1)


@pytest.mark.parametrize("entry", [np.inf, -np.inf, complex(0.0, np.inf), np.nan])
def test_a_non_finite_output_at_verification_sample_k_is_named_without_a_warning(entry):
    # no warning on the way to projection_rank (inf - inf and inf * 0 would
    # warn, and under `filterwarnings = error` the warning would be raised)
    v = haar_random_unitary(40, 8)
    calls = []

    def fn(p):
        calls.append(1)
        out = v @ p.matrix @ v.conj().T
        if len(calls) == 14:
            out[2, 5] = entry
        return out

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotAProjection, match="matrix 13: Hermitian defect nan"):
            verify_conjugation(RankNMap(40, 8, fn), v, False, 20, seed=1)
        with pytest.raises(NotAProjection, match="Hermitian defect nan"):
            Projection(np.diag([entry, 0.0]))


def test_a_nan_candidate_fails_verification():
    # a NaN residual must not read as 0: max(0.0, nan) is 0.0
    phi, v, _ = raw_conjugation(6, 2, seed=2)
    v = np.array(v)
    v[0, 0] = np.nan
    assert np.isnan(verify_conjugation(phi, v, False, 3, seed=1))


def test_sampled_stages_refuse_an_empty_sample():
    # no sample certifies nothing: a noisy map must not pass an empty screen
    noisy = MapSpec("noisy", base=MapSpec("identity"), sigma=1e-2, seed=1)
    phi = instantiate(noisy, 6, 2)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            screen_preservation(phi, samples, seed=1)
        with pytest.raises(ValueError, match="at least 1"):
            verify_conjugation(phi, np.eye(6), False, samples, seed=1)


@pytest.mark.parametrize("count", [2.0, 2.5, True, False, "3", None])
def test_sampled_stages_refuse_a_count_that_is_no_integer_by_name(count):
    calls = []
    phi = RankNMap(6, 2, lambda p: calls.append(1) or p.matrix)
    message = f"count must be an integer of at least 1, got {re.escape(repr(count))}$"
    with pytest.raises(ValueError, match=message):
        screen_preservation(phi, count, seed=1)
    with pytest.raises(ValueError, match=message):
        verify_conjugation(phi, np.eye(6), False, count, seed=1)
    assert calls == []
    assert screen_preservation(phi, np.int64(3), seed=1).max_discrepancy == screen_preservation(phi, 3, seed=1).max_discrepancy


def test_every_query_of_a_reconstruct_reaches_the_map_in_stacks_of_the_block_budget(monkeypatch):
    # at (64, 8) a stack of _BLOCK_BYTES holds 4 queries: the reading's 10
    # are sent in plan order, in stacks of at most 4, as verification's are
    d, n = 64, 8
    stacks, outputs = [], RankNMap._outputs
    monkeypatch.setattr(RankNMap, "_outputs", lambda self, s, first=0: stacks.append(np.array(s)) or outputs(self, s, first))
    v = haar_random_unitary(d, 8)
    assert reconstruct(RankNMap(d, n, lambda p: v @ p.matrix @ v.conj().T)).variant == VARIANT_CONJUGATION
    assert reconstruction._BLOCK_BYTES // (16 * d * d) == 4 and max(len(s) for s in stacks) == 4
    plan = _plan.__wrapped__(d, n, "complex", DEFAULT_TOL)[0]
    assert np.concatenate(stacks)[: len(plan)].tobytes() == reconstruction._queries(plan, n).tobytes()
    assert sum(map(len, stacks)) == len(plan) + 50


def noisy_conjugation(v):
    return MapSpec("noisy", base=MapSpec("conjugation", matrix=v), sigma=1e-4, seed=9)


def complement_of(v, antiunitary=False):
    return MapSpec("compose", parts=(MapSpec("complement"), MapSpec("conjugation", matrix=v, antiunitary=antiunitary)))


@pytest.mark.parametrize(
    "spec, d, n, field",
    [
        (MapSpec("conjugation", matrix=haar_random_unitary(8, 70)), 8, 3, "complex"),
        (MapSpec("conjugation", matrix=haar_random_unitary(9, 71), antiunitary=True), 9, 6, "complex"),
        (MapSpec("conjugation", matrix=haar_random_unitary(64, 72)), 64, 8, "complex"),
        (noisy_conjugation(haar_random_unitary(7, 73, REAL)), 7, 2, REAL),
        (noisy_conjugation(haar_random_unitary(48, 74)), 48, 12, "complex"),
        (complement_of(haar_random_unitary(6, 75), antiunitary=True), 6, 3, "complex"),
        (MapSpec("noisy", base=complement_of(haar_random_unitary(8, 76, REAL)), sigma=1e-4, seed=9), 8, 4, REAL),
    ],
)
def test_the_block_schedule_changes_no_result_and_no_query(monkeypatch, spec, d, n, field):
    # one query a stack (two for the screen's pairs), the default budget,
    # and one stack for all, as a spec map and as an external oracle: the
    # same results from the same oracle inputs
    runs, outputs = [], RankNMap._outputs
    for budget in (1, reconstruction._BLOCK_BYTES, 2**40):
        monkeypatch.setattr(reconstruction, "_BLOCK_BYTES", budget)
        sent = []
        monkeypatch.setattr(RankNMap, "_outputs", lambda self, s, first=0: sent.extend(m.tobytes() for m in s) or outputs(self, s, first))
        phi = instantiate(spec, d, n, field)
        for oracle in (phi, RankNMap(d, n, phi._fn, field=field)):
            report = screen_preservation(oracle, 10, 4)
            screened = [report.max_discrepancy] + [w.matrix.tobytes() for w in (report.witness_p, report.witness_q, report.witness_phi_p, report.witness_phi_q)]
            runs.append((result_fields(reconstruct(oracle, ReconstructionConfig(seed=2))), screened, sent[:]))
            sent.clear()
    assert all(run == runs[0] for run in runs) and len(runs[0][2]) > 10


def test_verification_refuses_a_v_that_is_not_d_by_d_before_any_draw(monkeypatch):
    calls, draws = [], []
    phi = RankNMap(6, 2, lambda p: calls.append(1) or p.matrix)
    monkeypatch.setattr(reconstruction, "_checked_frames", lambda *args: draws.append(1))
    for v in (np.eye(5), np.eye(6)[:, :4], np.eye(7), np.ones(6), np.eye(6)[None]):
        with pytest.raises(DimensionMismatch, match="acts on dimension 6"):
            verify_conjugation(phi, v, False, 10, seed=1)
    assert calls == [] and draws == []


@pytest.mark.parametrize("entry", [1e80, 1e160, 1e200])
def test_an_output_too_large_to_square_is_refused_by_index_without_a_warning(entry):
    # entries whose products overflow are refused before any arithmetic that
    # would warn: by the Projection constructor, at verification sample 13
    # (d = 40, 10 samples per stack) and at reading query 2 (d = 8, n = 2);
    # the norm is reported as it is, not as the overflowed inf
    norm = re.escape(f"Frobenius norm {entry:.3e} exceeds")
    v = haar_random_unitary(40, 8)

    def oracle(d, n, at):
        calls = []

        def fn(p):
            calls.append(1)
            out = v[:d, :d] @ p.matrix @ v[:d, :d].conj().T
            return np.diag([entry] + [0.0] * (d - 1)) if len(calls) == at else out

        return RankNMap(d, n, fn)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotAProjection, match=f"^{norm}"):
            Projection(np.diag([entry, 0.0]))
        with pytest.raises(NotAProjection, match=f"matrix 13: {norm}"):
            verify_conjugation(oracle(40, 8, 14), v, False, 20, seed=1)
        with pytest.raises(NotAProjection, match=f"matrix 2: {norm}"):
            reconstruct(oracle(8, 2, 3))


@pytest.mark.parametrize("d, n, i", [(8, 2, 2), (8, 6, 2), (64, 8, 6)])
def test_a_bad_output_at_reading_query_i_raises_as_when_the_stack_was_validated_first(d, n, i):
    # the reading's outputs are validated only when the fit's residuals do
    # not vouch for them, before its gate: a bad output at query i raises
    # the error, naming the index, that validating the stack first raised;
    # at (64, 8) query 6 is sent in the reading's second stack of 4
    u = haar_random_unitary(d, 45)
    # rank n + 1 below half the dimension, n - 1 above
    wrong = n + 1 if 2 * n < d else n - 1
    wrong_rank = random_projection(d, wrong, seed=3).matrix
    seen = f"returned rank {wrong} for input {i}"
    raw = np.asarray
    cases = [
        (raw, lambda m: m + 1e-6 * np.eye(d), NotAProjection, f"matrix {i}: idempotency"),
        (raw, lambda m: m + 1e-3 * np.triu(np.ones((d, d)), 1), NotAProjection, f"matrix {i}: Hermitian"),
        (raw, lambda m: np.where(np.eye(d) > 0, np.nan, m), NotAProjection, f"matrix {i}: Hermitian defect nan"),
        (raw, lambda m: np.where(np.eye(d) > 0, np.inf, m), NotAProjection, f"matrix {i}: Hermitian defect nan"),
        (raw, lambda m: wrong_rank, InternalInconsistency, seen),
        # every output a Projection checked only at eq_tol 5e-3: judged as the raw matrix
        (loosely, lambda m: m + 1e-6 * np.eye(d), NotAProjection, f"matrix {i}: idempotency"),
        (loosely, lambda m: wrong_rank, InternalInconsistency, seen),
    ]
    for wrap, bad, error, message in cases:
        calls = []

        def fn(p):
            calls.append(1)
            out = u @ p.matrix @ u.conj().T
            return wrap(bad(out) if len(calls) == i + 1 else out)

        phi = RankNMap(d, n, fn)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=message):
                reconstruct(phi)
        assert len(calls) == block_plan_calls(d, n)  # every reading query, block and reference


def test_an_exact_fit_is_not_polished(monkeypatch):
    # an exact map's fit matches its queries to roundoff, which the polish
    # would not improve; a noisy map inside the fit gate is polished
    import grasswig.reconstruction as reconstruction

    calls = []
    polish = reconstruction._polish

    def counted(*args):
        calls.append(1)
        return polish(*args)

    monkeypatch.setattr(reconstruction, "_polish", counted)
    phi, v, _ = raw_conjugation(32, 8, seed=43)
    result = reconstruct(phi)
    assert result.variant == VARIANT_CONJUGATION and planted_deviation(result.v, v) <= 1e-12
    assert calls == []
    noisy = MapSpec("noisy", base=MapSpec("conjugation", matrix=v), sigma=3e-9, seed=5)
    assert reconstruct(instantiate(noisy, 32, 8)).variant == VARIANT_CONJUGATION
    assert len(calls) >= 1


@pytest.mark.parametrize("field", ["real", "complex"])
def test_bargmann_invariant_is_the_trace_of_the_triple_product(field):
    # tr(ABC) from one product and an entrywise sum, for the images of
    # three reference queries and for general matrices
    rng = np.random.default_rng(6)
    for d in (2, 5, 16):
        phi, _ = reading_map(d, max(1, d // 3), False, False, field)
        images = [phi.evaluate(random_projection(d, phi.rank, seed=s, field=field)).matrix for s in range(3)]
        general = rng.standard_normal((3, d, d)) + (1j * rng.standard_normal((3, d, d)) if field == "complex" else 0.0)
        for a, b, c in (images, general):
            if field == REAL:
                a, b, c = a.real, b.real, c.real
            reference = complex(np.trace(a @ b @ c))
            scale = np.linalg.norm(a) * np.linalg.norm(b) * np.linalg.norm(c)
            assert abs(_trace3(a, b, c) - reference) <= 8 * d * np.finfo(float).eps * scale


def reading_map(d, n, complement, antiunitary, field="complex"):
    v = haar_random_unitary(d, 50 + d, field)
    spec = MapSpec("conjugation", matrix=v, antiunitary=antiunitary)
    if complement:
        spec = MapSpec("compose", parts=(MapSpec("complement"), spec))
    return instantiate(spec, d, n, field), v


@pytest.mark.parametrize("d", [4, 6])
@pytest.mark.parametrize("complement", [False, True])
@pytest.mark.parametrize("antiunitary", [False, True])
def test_bargmann_invariant_picks_each_reading(d, complement, antiunitary):
    phi, v = reading_map(d, d // 2, complement, antiunitary)
    frames = np.array([haar_random_unitary(d, 51 + t)[:, : d // 2] for t in range(3)])
    images = np.array([phi.evaluate(Projection(b @ b.conj().T, rank=d // 2)).matrix for b in frames])
    assert _reading(images, _readings(frames, "complex")) == (complement, antiunitary)
    result = reconstruct(phi)
    assert result.variant == (VARIANT_EXCEPTIONAL if complement else VARIANT_CONJUGATION)
    assert result.antiunitary is antiunitary
    assert planted_deviation(result.v, v) <= 1e-10


def test_bargmann_invariant_reads_the_real_field_as_linear():
    for complement in (False, True):
        phi, v = reading_map(6, 3, complement, False, field=REAL)
        result = reconstruct(phi)
        assert result.variant == (VARIANT_EXCEPTIONAL if complement else VARIANT_CONJUGATION)
        assert result.antiunitary is False
        assert np.all(result.v.imag == 0.0)
        assert planted_deviation(result.v, v) <= 1e-10


def hashed_projection_map(d, n, field="complex"):
    """Valid rank-n projections that fit no reading: a Haar projection drawn
    from a hash of the input."""
    def fn(p):
        seed = int.from_bytes(hashlib.sha256((p.matrix + 0.0).tobytes()).digest()[:8], "little")
        return random_projection(d, n, seed=seed, field=field).matrix

    return RankNMap(d, n, fn, field=field)


@pytest.mark.parametrize("d, n, field", [(2, 1, "complex"), (4, 2, "complex"), (6, 3, "real"), (5, 2, "complex"), (7, 5, "complex"), (32, 8, "complex")])
def test_outputs_that_fit_no_reading_are_refused_without_raising(d, n, field):
    constant = random_projection(d, n, seed=55, field=field)
    for phi in (RankNMap(d, n, lambda p: constant, field=field), hashed_projection_map(d, n, field)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = reconstruct(phi)
        assert not result.accepted
        assert result.variant == VARIANT_NOT_PRESERVING, result.notes


def random_unit(rng, d, field):
    x = rng.standard_normal(d) + (1j * rng.standard_normal(d) if field == "complex" else 0.0)
    return x / np.linalg.norm(x)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [2, 3, 8, 32, 64])
def test_stacked_rank1_reader_matches_eigh(d, field):
    # at k = 1 the block reader reads every image's range in one stack
    rng = np.random.default_rng(d)
    images = []
    for size in (0.0, 1e-9, 1e-7):
        for _ in range(3):
            v = random_unit(rng, d, field)
            h = rng.standard_normal((d, d)) + (1j * rng.standard_normal((d, d)) if field == "complex" else 0.0)
            h = h + h.conj().T
            images.append(np.outer(v, v.conj()) + size * h / frobenius(h))
    images = np.array(images, dtype=np.float64 if field == "real" else np.complex128)
    ranges = _ranges(images, np.random.default_rng(0).standard_normal((d, 1)))
    assert ranges.shape == (9, d, 1)
    if field == "real":
        assert ranges.dtype == np.float64
    for image, x in zip(images, ranges[:, :, 0]):
        ref = np.linalg.eigh(image)[1][:, -1]
        assert np.max(np.abs(align_phase(ref, x) * x - ref)) <= 1e-13


def projector_distance(a, b):
    """Largest spectral-norm distance between the range projectors of two
    stacks of orthonormal bases."""
    return float(np.max(np.linalg.norm(a @ _adjoint(a) - b @ _adjoint(b), 2, axis=(-2, -1))))


@pytest.mark.parametrize("d, k", [(2, 1), (6, 2), (8, 4), (12, 3), (32, 4)])
def test_the_range_finder_reads_each_range_to_roundoff(d, k):
    # the QR of M omega before the subspace step keeps each range at eps,
    # also for an omega whose restriction to the image's range U has
    # condition number 1e6, where one QR of M (M omega) is off by about
    # eps cond(U* omega), 1e-10; noisy images are read to their top-k
    # singular subspace
    rng = np.random.default_rng(d + k)
    u = np.array([haar_random_unitary(d, 80 + s)[:, :k] for s in range(6)])
    exact = u @ _adjoint(u)
    h = rng.standard_normal(exact.shape) + 1j * rng.standard_normal(exact.shape)
    h = h + _adjoint(h)
    noisy = exact + 1e-8 * h / np.linalg.norm(h, axis=(-2, -1), keepdims=True)
    omega = _plan.__wrapped__(d, k, "complex", DEFAULT_TOL)[1]
    assert projector_distance(_ranges(exact, omega), u) <= 1e-13
    assert projector_distance(_ranges(noisy, omega), np.linalg.svd(noisy)[0][..., :k]) <= 1e-12
    # omega = U c + (I - U U*) g for each image's range U, cond(c) = 1e6
    c = haar_random_unitary(k, 1) @ np.diag(np.geomspace(1.0, 1e-6, k)) @ haar_random_unitary(k, 2)
    g = rng.standard_normal((6, d, k)) + 1j * rng.standard_normal((6, d, k))
    ill = u @ c + g - exact @ g
    assert k == 1 or np.all(np.linalg.cond(_adjoint(u) @ ill) >= 0.99e6)
    for image, basis, omega in zip(exact, u, ill):
        assert projector_distance(_ranges(image[None], omega), basis[None]) <= 1e-13


@pytest.mark.parametrize("d, k", [(2, 1), (5, 2), (6, 3), (8, 4), (20, 5)])
@pytest.mark.parametrize("field", ["complex", REAL])
def test_the_plan_carries_the_readings_of_its_references_bit_for_bit(d, k, field):
    # the invariants each reading predicts are computed once per plan, equal
    # bit for bit to Bargmann's formula on the three references; a real
    # plan's frames are complex with imaginary parts 0, and their real parts
    # (on which _fitted reads exactly real outputs) predict the same
    frames, _, readings = _plan.__wrapped__(d, k, field, DEFAULT_TOL)
    m = -(-d // k)
    f = frames[m - 1 : m + 2]
    a, b, c = f[0].conj().T @ f[1], f[1].conj().T @ f[2], f[2].conj().T @ f[0]
    t = complex(np.sum((a @ b) * c.T))
    pairs = frobenius(a) ** 2 + frobenius(b) ** 2 + frobenius(c) ** 2
    expected = [(False, False, t)] + ([] if field == REAL else [(False, True, t.conjugate())])
    if d == 2 * k > 2:
        expected += [(True, anti, d - 3 * k + pairs - x) for _, anti, x in expected]
    assert readings == tuple(expected)
    assert [np.float64(x).tobytes() for r in readings for x in (r[2].real, r[2].imag)] == [
        np.float64(x).tobytes() for r in expected for x in (r[2].real, r[2].imag)
    ]
    if field == REAL:
        for cached, real in zip(readings, _readings(f.real, field)):
            assert cached[:2] == real[:2] and abs(cached[2] - real[2]) <= 1e-14


def test_stacked_rank1_reader_fails_the_gate_on_bad_images_without_raising():
    # one bad image among the exact images of a rank-1 block plan drives the
    # fit's residual on its own queries past the gate
    d = 6
    frames = _query_frames(np.random.default_rng(0), d, 1, "complex", DEFAULT_TOL)
    omega = np.random.default_rng(1).standard_normal((d, 1))
    w = haar_random_unitary(d, 2) @ frames
    exact = w @ w.conj().swapaxes(-1, -2)
    v = random_unit(np.random.default_rng(0), d, "complex")
    dyad = np.outer(v, v.conj())
    rank2 = random_projection(d, 2, seed=1).matrix
    skew = dyad.copy()
    skew[0, 1] += 1e-2
    bad = [np.zeros((d, d)), rank2, skew] + [np.eye(d) / n - dyad for n in (2, 3)]
    for q in (0, d - 1, d):  # a block, the first reference, the second
        for image in bad:
            images = exact.copy()
            images[q] = image
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                w = _fit(images, frames, omega, 1) @ frames
            residual = np.max(np.linalg.norm(images - w @ w.conj().swapaxes(-1, -2), axis=(-2, -1)))
            assert residual > FIT_GATE * ACCEPT_TOL, (q, residual)
    # a NaN output never reaches the reader: it fails output validation
    with pytest.raises(NotAProjection):
        reconstruct(RankNMap(d, 1, lambda p: np.full((d, d), np.nan)))


def test_reconstruct_runs_no_eigendecomposition(monkeypatch):
    # the block and reference images are read by range-finding QRs and the
    # fit by SVDs: one reconstruct at d = 32 used to run 32 + n + 1 eigh calls
    calls = {"eigh": 0, "qr": 0}

    def counted(name):
        routine = getattr(np.linalg, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return routine(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, count)

    phi, v = conjugation(32, 4, seed=40, antiunitary=True)
    counted("eigh")
    counted("qr")
    result = reconstruct(phi)
    assert result.variant == VARIANT_CONJUGATION and result.antiunitary is True
    assert planted_deviation(result.v, v) <= 1e-7
    assert calls["eigh"] == 0
    # the references' draw, the range finder's two over the reading's
    # stack, the blocks' complete QR and 4 stacks of 16 verification frames
    assert calls["qr"] == 8


def validated_shapes(monkeypatch):
    """Shapes of the arrays passed to ``projection_rank``, recorded."""
    import grasswig.maps as maps

    shapes = []
    validate = maps.projection_rank

    def counted(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return validate(m, *args, **kwargs)

    monkeypatch.setattr(maps, "projection_rank", counted)
    return shapes


def raw_conjugation(d, n, seed):
    """A conjugation oracle returning raw matrices, with its call list."""
    v = haar_random_unitary(d, seed)
    calls = []

    def fn(p):
        calls.append(1)
        return v @ p.matrix @ v.conj().T

    return RankNMap(d, n, fn), v, calls


def test_reconstruct_validates_only_the_oracle_outputs(monkeypatch):
    # samples and reading inputs are projections by construction: the only
    # matrices validated are oracle outputs, once each.  The reading and
    # verification let a residual within eq_tol / 4 vouch for an output, so
    # an exact map has nothing validated (3 block + 3 reference queries at
    # d = 32, n = 8, then 50 samples); a map whose residuals exceed it but
    # stay inside accept_tol has its reading stack and every verification
    # output validated, in stacks of 16
    shapes = validated_shapes(monkeypatch)
    phi, v, calls = raw_conjugation(32, 8, seed=43)
    result = reconstruct(phi)
    assert result.variant == VARIANT_CONJUGATION
    assert planted_deviation(result.v, v) <= 1e-7
    assert shapes == [] and len(calls) == 6 + 50
    shapes.clear()
    noisy = MapSpec("noisy", base=MapSpec("conjugation", matrix=v), sigma=3e-9, seed=5)
    result = reconstruct(instantiate(noisy, 32, 8))
    assert result.variant == VARIANT_CONJUGATION
    assert DEFAULT_TOL.eq_tol / 4 < result.residual <= 1e-7
    assert [shape[0] for shape in shapes] == [6, 16, 16, 16, 2]


def test_a_map_above_half_rank_validates_no_output_its_residuals_vouch_for(monkeypatch):
    # (8, 6) is read and verified through complement queries I - b b*; no
    # query is validated, and the exact outputs of the reading and of the
    # verification are vouched for by their residuals
    shapes = validated_shapes(monkeypatch)
    phi, v, calls = raw_conjugation(8, 6, seed=44)
    result = reconstruct(phi)
    assert result.variant == VARIANT_CONJUGATION
    assert planted_deviation(result.v, v) <= 1e-7
    assert shapes == []
    assert len(calls) == 6 + 50


@pytest.mark.parametrize("n", [5, 2])
def test_a_rejected_reading_is_validated_once_and_its_witness_replays(monkeypatch, n):
    # (7, 5) is read at rank 2 through complement queries: its witness is
    # the rank-5 pair I - A, I - B of two reading queries; (7, 2) is read
    # directly.  Either way the witness images are phi's own outputs, bit
    # for bit (at V seed 54 a witness image has a diagonal entry below 1/2,
    # which I - (I - phi(P)) would not give back exactly), and the reading
    # costs 3 block and 3 reference queries, validated as one stack
    shapes = validated_shapes(monkeypatch)
    for v_seed in (52, 54):
        spec = MapSpec("noisy", base=MapSpec("conjugation", matrix=haar_random_unitary(7, v_seed)), sigma=1e-3, seed=53)
        raw, calls = instantiate(spec, 7, n)._fn, []
        shapes.clear()
        result = reconstruct(RankNMap(7, n, lambda p: calls.append(1) or raw(p)))
        assert result.variant == VARIANT_NOT_PRESERVING
        assert shapes == [(6, 7, 7)] and len(calls) == 6
        p, q, phi_p, phi_q = rescored_witness(result)
        assert result.witness_p.rank == result.witness_phi_q.rank == n
        assert np.trace(p).real == pytest.approx(n) and np.trace(phi_q).real == pytest.approx(n)
        fresh = [out.matrix for out in instantiate(spec, 7, n).evaluate_many([result.witness_p, result.witness_q])]
        assert np.array_equal(fresh[0], phi_p) and np.array_equal(fresh[1], phi_q)


@pytest.fixture
def fresh_plan():
    """An empty reading-plan cache, emptied again afterwards."""
    _plan.cache_clear()
    yield
    _plan.cache_clear()


def test_the_reading_plan_is_drawn_once_per_key(monkeypatch, fresh_plan):
    keys, query_frames = [], reconstruction._query_frames

    def counted(rng, d, k, field, tol):
        keys.append((d, k, field))
        return query_frames(rng, d, k, field, tol)

    monkeypatch.setattr(reconstruction, "_query_frames", counted)
    maps = [conjugation(d, n, seed, field=field)[0] for d, n, seed, field in
            ((6, 2, 3, "complex"), (6, 4, 4, "complex"), (6, 2, 5, REAL), (6, 3, 6, "complex"), (20, 5, 7, "complex"))]
    for _ in range(3):
        for phi in maps:
            assert reconstruct(phi).variant == VARIANT_CONJUGATION
    # (6, 4) is read through its dual at rank 2, so it shares (6, 2)'s plan;
    # d = 20 is above _PLAN_CACHE_DIM, so its plan is drawn on every call
    assert keys == [(6, 2, "complex"), (6, 2, "real"), (6, 3, "complex")] + [(20, 5, "complex")] * 3
    assert _plan.cache_info().currsize == 3


def result_fields(result):
    witnesses = [None if w is None else w.matrix.tobytes() for w in (result.witness_p, result.witness_q, result.witness_phi_p, result.witness_phi_q)]
    v = None if result.v is None else result.v.tobytes()
    return result.variant, result.antiunitary, v, result.residual, result.discrepancy, witnesses, result.notes


@pytest.mark.parametrize(
    "spec, d, n, field",
    [
        (MapSpec("conjugation", matrix=haar_random_unitary(5, 60)), 5, 2, "complex"),
        (MapSpec("conjugation", matrix=haar_random_unitary(6, 61, REAL)), 6, 3, REAL),
        (MapSpec("compose", parts=(MapSpec("complement"), MapSpec("conjugation", matrix=haar_random_unitary(6, 62), antiunitary=True))), 6, 3, "complex"),
        (MapSpec("noisy", base=MapSpec("conjugation", matrix=haar_random_unitary(6, 63)), sigma=1e-3, seed=64), 6, 2, "complex"),
        (MapSpec("conjugation", matrix=haar_random_unitary(7, 65), antiunitary=True), 7, 5, "complex"),
    ],
)
def test_a_warm_plan_sends_the_queries_and_returns_the_results_of_a_cold_one(fresh_plan, spec, d, n, field):
    # cold, warm, then cold again after cache_clear: the oracle sees the same
    # inputs bit for bit and reconstruct returns the same results, the
    # dual's included
    runs = []
    for clear in (True, False, True):
        if clear:
            _plan.cache_clear()
        phi, calls = counting(instantiate(spec, d, n, field))
        runs.append((calls, [result_fields(reconstruct(psi)) for psi in (phi, local_dual(phi))]))
    assert runs[0] == runs[1] == runs[2]
    assert len(runs[0][0]) > 0


def test_the_reading_plan_is_keyed_on_field_and_tolerance_and_read_only(fresh_plan):
    loose = ToleranceConfig(eq_tol=2e-9)
    frames, omega, readings = _plan(6, 2, "complex", DEFAULT_TOL)
    same = _plan(6, 2, "complex", ToleranceConfig())  # an equal config is the same key
    assert same[0] is frames and same[1] is omega and same[2] is readings
    real, loose_plan = _plan(6, 2, REAL, DEFAULT_TOL), _plan(6, 2, "complex", loose)
    assert _plan.cache_info().currsize == 3
    assert real[0] is not frames and np.all(real[0].imag == 0.0) and np.any(frames.imag != 0.0)
    # the tolerance only checks the frames: a separate entry, the same draw
    assert loose_plan[0] is not frames and np.array_equal(loose_plan[0], frames)
    assert frames.shape == (2 + 3, 6, 2) and omega.shape == (6, 2)
    for a in (*real[:2], *loose_plan[:2], frames, omega):
        assert a.flags.writeable is False
        with pytest.raises(ValueError):
            a[0, 0] = 0.0


def beta_quantile(a, b, q):
    """The q quantile of Beta(a, b) for integers a, b >= 1, by bisection on
    its closed-form CDF ``P(Beta(a, b) <= x) = P(Bin(a + b - 1, x) >= a)``."""
    m, j = a + b - 1, np.arange(a, a + b)
    weights = np.array([math.comb(m, int(i)) for i in j], dtype=float)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        x = (lo + hi) / 2
        if np.sum(weights * x**j * (1 - x) ** (m - j)) < q:
            lo = x
        else:
            hi = x
    return (lo + hi) / 2


def patchwork(eps, d=16, n=2):
    """``P -> V' P V'*`` where ``||P e||^2`` exceeds its (1 - eps) Haar
    quantile, ``V P V*`` elsewhere: for a Haar rank-n P and a fixed unit e,
    ``||P e||^2`` is Beta(n, d - n) distributed, so the map differs from
    every conjugation by O(1) on a set of Haar measure eps."""
    v, v_other = haar_random_unitary(d, 42), haar_random_unitary(d, 43)
    rng = np.random.default_rng(42)
    e = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    e /= np.linalg.norm(e)
    cut = beta_quantile(n, d - n, 1 - eps)

    def fn(p):
        u = v_other if np.vdot(e, p.matrix @ e).real > cut else v
        return u @ p.matrix @ u.conj().T

    return RankNMap(d, n, fn)


def test_beta_quantile_matches_the_closed_forms():
    assert abs(beta_quantile(1, 15, 0.9) - (1 - 0.1 ** (1 / 15))) <= 1e-12  # CDF 1 - (1 - x)^b
    assert abs(beta_quantile(3, 1, 0.5) - 0.5 ** (1 / 3)) <= 1e-12  # CDF x^a
    assert abs(beta_quantile(2, 2, 0.5) - 0.5) <= 1e-12  # symmetric


def test_a_map_off_on_a_tenth_of_the_samples_is_rarely_accepted():
    # the README's guarantee: a map more than accept_tol off the returned
    # conjugation on a set of Haar measure eps passes verification's 50
    # fresh samples with probability at most (1 - eps)^50, 0.00515 at
    # eps = 0.1; over 60 seeds, 4 or more acceptances would have
    # probability P(Bin(60, 0.00515) >= 4) ~ 3.4e-4.  An acceptance is
    # still a verified one
    phi = patchwork(0.1)
    accepted = [r for r in (reconstruct(phi, ReconstructionConfig(seed=s)) for s in range(60)) if r.accepted]
    assert len(accepted) <= 3
    assert all(r.residual <= ACCEPT_TOL for r in accepted)


@pytest.mark.parametrize("antiunitary", [False, True])
def test_a_reading_at_128_by_1_peaks_at_two_query_stacks(antiunitary):
    # the reading's d + 2 queries reach a spec map one a stack at d = 128,
    # and the conjugation is applied in blocks of 256 KiB: at the peak two
    # stacks are alive, the output blocks and their join, then the outputs
    # and the fit residual's M - Q (3 when V S, or conj(S), was a stack)
    import tracemalloc

    d = 128
    phi = instantiate(MapSpec("conjugation", matrix=haar_random_unitary(d, 3), antiunitary=antiunitary), d, 1)
    tracemalloc.start()
    try:
        result = reconstruct(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.variant == VARIANT_CONJUGATION and result.antiunitary is antiunitary
    assert peak <= 2.1 * (d + 2) * d * d * 16


def test_every_stage_reads_the_maps_own_tolerance():
    # V P V* + K with K non-Hermitian, ||K||_F = 1e-6 (Hermitian defect
    # 1.4e-6): a map whose tolerance admits that defect is accepted and
    # screened, verified and extended without a raise; one at the default
    # tolerance is refused by all four, at the oracle boundary: no stage
    # holds the outputs to a tolerance other than the map's
    d, n = 6, 2
    v, rng = haar_random_unitary(d, 11), np.random.default_rng(5)
    k = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    k *= 1e-6 / frobenius(k)
    stages = (
        lambda phi: reconstruct(phi), lambda phi: screen_preservation(phi, 20, 1),
        lambda phi: verify_conjugation(phi, v, False, 20, 2), lambda phi: extend_to_rank1(phi, np.eye(d)[0]),
    )
    loose = RankNMap(d, n, lambda p: v @ p.matrix @ v.conj().T + k, tol=ToleranceConfig(1e-3, 1e-4, 5e-3))
    result, report, residual, _ = (stage(loose) for stage in stages)
    assert result.variant == VARIANT_CONJUGATION and 1e-6 <= result.residual <= 1e-5
    assert report.max_discrepancy < 1e-5 and 1e-6 <= residual <= 1e-5
    strict = RankNMap(d, n, lambda p: v @ p.matrix @ v.conj().T + k)
    for stage in stages:
        with pytest.raises(NotAProjection, match="Hermitian defect 1.384e-06 exceeds 1.0e-09"):
            stage(strict)
