import hashlib
import warnings

import numpy as np
import pytest

from grasswig import (
    BadRank,
    InternalInconsistency,
    NotAProjection,
    Projection,
    RankNMap,
    ReconstructionConfig,
    VARIANT_CONJUGATION,
    VARIANT_EXCEPTIONAL,
    VARIANT_NOT_PRESERVING,
    align_phase,
    apply_conjugation,
    dualize,
    haar_random_unitary,
    projection_distance,
    random_projection,
    reconstruct,
    reconstruct_via_dual,
    sample_projection,
    screen_preservation,
    spectrum_discrepancy,
    trace_product,
    verify_conjugation,
)
from grasswig.linalg import REAL, frobenius, haar_frames_from_rng
from grasswig.maps import MapSpec, instantiate
from grasswig.reconstruction import _ACCEPT_FACTOR, FIT_GATE, _fit, _query_frames, _ranges, _reading
from grasswig.tolerances import DEFAULT_TOL

ACCEPT_TOL = _ACCEPT_FACTOR * DEFAULT_TOL.spec_tol


def conjugation(d, n, seed, antiunitary=False, field="complex"):
    v = haar_random_unitary(d, seed, field)
    return instantiate(MapSpec("conjugation", matrix=v, antiunitary=antiunitary), d, n, field), v


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


def test_dual_route_witness_carries_the_dual_images():
    phi = instantiate(MapSpec("noisy", base=MapSpec("identity"), sigma=1e-2, seed=25), 5, 2)
    result = reconstruct_via_dual(phi)
    assert result.variant == VARIANT_NOT_PRESERVING
    assert result.witness_p.rank == 3
    dual = dualize(phi)
    assert np.array_equal(result.witness_phi_p.matrix, dual.evaluate(result.witness_p).matrix)
    assert np.array_equal(result.witness_phi_q.matrix, dual.evaluate(result.witness_q).matrix)


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


def test_apply_conjugation_basics():
    p = random_projection(4, 2, seed=28)
    assert projection_distance(apply_conjugation(np.eye(4), False, p), p) == 0.0
    real_p = random_projection(4, 2, seed=29, field=REAL)
    assert projection_distance(apply_conjugation(np.eye(4), True, real_p), real_p) == 0.0
    v = haar_random_unitary(4, 30)
    out = apply_conjugation(v, True, p)
    assert out.rank == 2  # conjugation preserves the projection invariants


def test_dualize_of_conjugation_is_same_conjugation():
    phi, v = conjugation(5, 2, seed=31)
    psi = dualize(phi)
    assert psi.rank == 3
    rng = np.random.default_rng(0)
    for _ in range(10):
        p = sample_projection(rng, 5, 3)
        expected = apply_conjugation(v, False, p)
        assert projection_distance(psi.evaluate(p), expected) <= 1e-12


def test_dualize_is_an_involution():
    phi, _ = conjugation(5, 2, seed=32)
    double = dualize(dualize(phi))
    rng = np.random.default_rng(1)
    for _ in range(10):
        p = sample_projection(rng, 5, 2)
        assert projection_distance(double.evaluate(p), phi.evaluate(p)) <= 1e-12


def test_dualize_complement_is_itself():
    # the complement map is self-dual: I - phi(I - P) = I - P
    phi = instantiate(MapSpec("complement"), 6, 3)
    psi = dualize(phi)
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = sample_projection(rng, 6, 3)
        assert projection_distance(psi.evaluate(p), p.complement()) <= 1e-12


def via_dual_cases():
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


def test_via_dual_matches_direct_route():
    # the dual's verification is the only one; its V must also pass
    # verification against the original map, on samples it never saw
    for phi, v, variant, anti in via_dual_cases():
        direct = reconstruct(phi)
        via = reconstruct_via_dual(phi)
        assert direct.variant == via.variant == variant
        assert direct.antiunitary is via.antiunitary is anti
        assert planted_deviation(via.v, v) <= 1e-7
        assert planted_deviation(via.v, direct.v) <= 1e-9
        residual = verify_conjugation(phi, via.v, anti, 50, seed=3, complement=variant == VARIANT_EXCEPTIONAL)
        assert residual <= ACCEPT_TOL


def test_via_dual_identity_map():
    phi = instantiate(MapSpec("identity"), 5, 2)
    result = reconstruct_via_dual(phi)
    assert result.variant == VARIANT_CONJUGATION
    assert planted_deviation(result.v, np.eye(5)) <= 1e-10


def test_via_dual_handles_the_complement_family():
    phi = instantiate(MapSpec("complement"), 6, 3)
    result = reconstruct_via_dual(phi)
    assert result.variant == VARIANT_EXCEPTIONAL
    assert planted_deviation(result.v, np.eye(6)) <= 1e-8


def test_via_dual_rejects_noisy_map():
    phi = instantiate(MapSpec("noisy", base=MapSpec("identity"), sigma=1e-2, seed=34), 5, 3)
    result = reconstruct_via_dual(phi)
    assert result.variant == VARIANT_NOT_PRESERVING
    assert "dual rank" in result.notes


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
    """Oracle calls of the reading: ceil(d/k) - 1 block queries and four
    reference queries (five at d = 2n, n > 1), at k = min(n, d - n)."""
    k = min(n, d - n)
    return -(-d // k) - 1 + (5 if d == 2 * n > 2 else 4)


def test_oracle_budget_at_large_dimension():
    # 50 verification evaluations and the reading's block and reference
    # queries; an accepted map is not screened.
    # n = 8: 7 + 4 + 50 = 61; n = 16: 3 + 4 + 50 = 57.
    for n, anti, expected in ((8, False, 61), (16, True, 57)):
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
    # (3, 1): blocks {e0}, {e1} and the complement {e2}, so 2 + 4 queries;
    # (5, 3) is read through the dual at k = 2: blocks {e0, e1}, {e2, e3} and
    # the partial {e4}, 2 + 4; d = 2: block {e0}, 1 + 4.
    for d, n, field, anti, reading in (
        (3, 1, "complex", False, 6),
        (3, 1, "real", False, 6),
        (5, 3, "complex", True, 6),
        (2, 1, "complex", True, 5),
        (2, 1, "complex", False, 5),
        (2, 1, "real", False, 5),
    ):
        planted, v = conjugation(d, n, seed=40 + d + n, antiunitary=anti, field=field)
        phi, calls = counting(planted)
        result = reconstruct(phi)
        assert result.variant == VARIANT_CONJUGATION
        assert result.antiunitary is anti
        assert planted_deviation(result.v, v) <= 1e-10
        assert len(calls) == 50 + reading == 50 + block_plan_calls(d, n), (d, n, field, len(calls))
        assert len(set(calls)) == len(calls)
    # a rejected map pays its 2 block and 4 reference queries, then the 40
    # screening evaluations that explain the failure, and no verification
    noisy = instantiate(MapSpec("noisy", base=MapSpec("identity"), sigma=1e-3, seed=46), 6, 2)
    phi, calls = counting(noisy)
    assert reconstruct(phi).variant == VARIANT_NOT_PRESERVING
    assert len(calls) == 2 + 4 + 40, len(calls)
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("sigma", [1e-5, 1e-3])
def test_a_noisy_map_at_half_dimension_reaches_the_screen_after_its_reading(sigma):
    # 1 block and 5 reference queries, no verification, then the 40
    # screening evaluations; the witness is the screen's, bit for bit
    v = haar_random_unitary(16, 47)
    spec = MapSpec("noisy", base=MapSpec("conjugation", matrix=v), sigma=sigma, seed=48)
    phi, calls = counting(instantiate(spec, 16, 8))
    result = reconstruct(phi, ReconstructionConfig(seed=49))
    assert result.variant == VARIANT_NOT_PRESERVING
    assert len(calls) == 1 + 5 + 40 == block_plan_calls(16, 8) + 40, len(calls)
    assert len(set(calls)) == len(calls)
    report = screen_preservation(instantiate(spec, 16, 8), 20, seed=49)
    assert result.discrepancy == report.max_discrepancy
    for name in ("witness_p", "witness_q", "witness_phi_p", "witness_phi_q"):
        assert np.array_equal(getattr(result, name).matrix, getattr(report, name).matrix)


def test_complement_branch_reuses_the_dyad_images():
    # one fit on one set of outputs serves both families: the d = 2n
    # complement reading fits I - M on the outputs the linear reading would
    # fit, so it costs no more oracle calls than a plain conjugation
    v = haar_random_unitary(8, 38)
    eye = np.eye(8)
    plain, plain_calls = counting(conjugation(8, 4, seed=38)[0])
    composed, composed_calls = counting(
        RankNMap(8, 4, lambda p: Projection(eye - apply_conjugation(v, False, p).matrix, rank=4))
    )
    assert reconstruct(plain).variant == VARIANT_CONJUGATION
    result = reconstruct(composed)
    assert result.variant == VARIANT_EXCEPTIONAL
    assert planted_deviation(result.v, v) <= 1e-7
    assert len(composed_calls) <= len(plain_calls)


def reference_screen(phi, num_samples, seed):
    """Per-pair screen: the loop the stacked screen must reproduce exactly."""
    rng = np.random.default_rng(seed)
    worst, wp, wq = 0.0, None, None
    for _ in range(num_samples):
        p = sample_projection(rng, phi.ambient_dim, phi.rank, phi.field)
        q = sample_projection(rng, phi.ambient_dim, phi.rank, phi.field)
        fp, fq = phi.evaluate(p), phi.evaluate(q)
        before = np.linalg.eigvalsh(q.matrix @ p.matrix @ q.matrix)
        after = np.linalg.eigvalsh(fq.matrix @ fp.matrix @ fq.matrix)
        trace_dev = abs(float(after.sum()) - float(before.sum()))
        discrepancy = max(trace_dev, float(np.max(np.abs(before - after))))
        if discrepancy >= worst:
            worst, wp, wq = discrepancy, p, q
    return worst, wp, wq


def reference_verify(phi, v, antiunitary, num_samples, seed, complement=False, frames=True):
    """Per-sample verification residual: each sample ``P = b b*`` predicted
    from its frame as ``W W*`` with ``W = V tau(b)`` or, without ``frames``,
    as ``V tau(P) V*``."""
    rng = np.random.default_rng(seed)
    d, n = phi.ambient_dim, phi.rank
    eye = np.eye(d)
    worst = 0.0
    for _ in range(num_samples):
        b = haar_frames_from_rng(rng, 1, d, n, phi.field)
        p = Projection((b @ b.conj().swapaxes(-1, -2))[0], rank=n)
        if frames:
            w = v @ (b[0].conj() if antiunitary else b[0])
            predicted = w @ w.conj().T
        else:
            predicted = v @ (p.matrix.conj() if antiunitary else p.matrix) @ v.conj().T
        if complement:
            predicted = eye - predicted
        worst = max(worst, frobenius(phi.evaluate(p).matrix - predicted))
    return worst


def test_stacked_screen_matches_the_per_pair_loop():
    # d = 40 puts 5 pairs in a stack, so 7 and 20 pairs span several stacks;
    # the identity ties every pair at 0, which pins the last-pair rule
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
    for d, n, anti in ((7, 3, False), (7, 3, True), (40, 8, True)):
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
            # d eps (measured: at most 6.3 eps, on the exact candidate at d = 40)
            conjugated = reference_verify(phi, v, anti, samples, seed=4, complement=compl, frames=False)
            eps = np.finfo(float).eps
            assert abs(looped - conjugated) <= phi.ambient_dim * eps * max(1.0, looped)


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

    def oracle(bad):
        calls = []

        def fn(p):
            calls.append(1)
            out = v @ p.matrix @ v.conj().T
            return bad(out) if len(calls) == 14 else out

        return RankNMap(40, 8, fn)

    for bad, error, message in (
        (lambda m: m + 1e-6 * np.eye(40), NotAProjection, "matrix 13: idempotency"),
        (lambda m: np.diag([1.0] * 9 + [0.0] * 31), InternalInconsistency, "rank 9 for input 13"),
    ):
        with pytest.raises(error, match=message):
            verify_conjugation(oracle(bad), v, False, 20, seed=1)
        with pytest.raises(error, match=message):
            screen_preservation(oracle(bad), 10, seed=1)


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
    assert _reading(images, frames, "complex") == (complement, antiunitary)
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
            via = reconstruct_via_dual(phi)
        assert not result.accepted and not via.accepted
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
    calls = []
    eigh = np.linalg.eigh

    def counting_eigh(*args, **kwargs):
        calls.append(1)
        return eigh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    phi, v = conjugation(32, 4, seed=40, antiunitary=True)
    result = reconstruct(phi)
    assert result.variant == VARIANT_CONJUGATION and result.antiunitary is True
    assert planted_deviation(result.v, v) <= 1e-7
    assert calls == []


def validated_shapes(monkeypatch):
    """Shapes of the arrays passed to ``projection_rank``, recorded."""
    import grasswig.projections as projections

    shapes = []
    validate = projections.projection_rank

    def counted(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return validate(m, *args, **kwargs)

    monkeypatch.setattr(projections, "projection_rank", counted)
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
    # matrices validated are oracle outputs, once each.  Verification lets a
    # residual within eq_tol / 4 vouch for its output, so an exact map has
    # only its reading stack validated (3 block + 4 reference queries at
    # d = 32, n = 8); a map whose residuals exceed it but stay inside
    # accept_tol has every verification output validated, in stacks of 16
    shapes = validated_shapes(monkeypatch)
    phi, v, calls = raw_conjugation(32, 8, seed=43)
    result = reconstruct(phi)
    assert result.variant == VARIANT_CONJUGATION
    assert planted_deviation(result.v, v) <= 1e-7
    assert shapes == [(7, 32, 32)] and len(calls) == 7 + 50
    shapes.clear()
    noisy = MapSpec("noisy", base=MapSpec("conjugation", matrix=v), sigma=3e-9, seed=5)
    result = reconstruct(instantiate(noisy, 32, 8))
    assert result.variant == VARIANT_CONJUGATION
    assert DEFAULT_TOL.eq_tol / 4 < result.residual <= 1e-7
    assert [shape[0] for shape in shapes] == [7, 16, 16, 16, 2]


def test_dual_route_validates_no_complement(monkeypatch):
    # the dual map queries phi on I - P and returns the raw I - phi(I - P);
    # the input's complement is not validated, and phi's outputs are
    # validated once each, as the dual's reading stack, never one query at a
    # time; the exact outputs of the dual's verification, the only one, are
    # vouched for by their residuals
    shapes = validated_shapes(monkeypatch)
    phi, v, calls = raw_conjugation(8, 6, seed=44)
    result = reconstruct_via_dual(phi)
    assert result.variant == VARIANT_CONJUGATION
    assert planted_deviation(result.v, v) <= 1e-7
    assert [shape[0] for shape in shapes] == [7]
    assert len(calls) == 7 + 50


def test_dual_names_the_bad_output_of_the_wrapped_map():
    inputs = [sample_projection(np.random.default_rng(s), 4, 2) for s in range(3)]

    def misbehaving(bad):
        count = []

        def fn(p):
            count.append(1)
            return bad if len(count) == 3 else p.matrix

        return RankNMap(4, 2, fn)

    with pytest.raises(NotAProjection, match="matrix 2: idempotency"):
        dualize(misbehaving(np.diag([1.0, 1.0, 1e-6, 0.0]))).evaluate_many(inputs)
    with pytest.raises(InternalInconsistency, match="input 2"):
        dualize(misbehaving(np.diag([1.0, 0.0, 0.0, 0.0]))).evaluate_many(inputs)
    with pytest.raises(InternalInconsistency, match="input 2"):
        dualize(misbehaving(np.eye(3))).evaluate_many(inputs)
