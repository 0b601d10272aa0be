import numpy as np
import pytest

from grasswig import (
    BadRank,
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
from grasswig.linalg import REAL
from grasswig.maps import MapSpec, instantiate


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


def test_verify_complement_form():
    phi = instantiate(MapSpec("complement"), 4, 2)
    eye = np.eye(4)
    assert verify_conjugation(phi, eye, False, 10, seed=0, complement=True) <= 1e-12
    assert verify_conjugation(phi, eye, False, 10, seed=0) > 1.0


def test_rank_bounds():
    phi, _ = conjugation(4, 4, seed=26)
    with pytest.raises(BadRank):
        reconstruct(phi)


def test_accept_tol_floor_is_enforced():
    phi, _ = conjugation(4, 2, seed=27)
    with pytest.raises(ValueError):
        reconstruct(phi, ReconstructionConfig(accept_tol=1e-9))


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


def test_via_dual_matches_direct_route():
    phi, v = conjugation(4, 3, seed=33)
    direct = reconstruct(phi)
    via = reconstruct_via_dual(phi)
    assert direct.variant == via.variant == VARIANT_CONJUGATION
    assert planted_deviation(via.v, v) <= 1e-7
    assert planted_deviation(via.v, direct.v) <= 1e-9


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
        calls.append(1)
        return phi.evaluate(p)

    return RankNMap(phi.ambient_dim, phi.rank, fn, field=phi.field), calls


def test_oracle_budget_at_large_dimension():
    # basis dyads, superposition links and probe links in frames of n + 1,
    # plus 40 screening and 50 verification evaluations
    for n, anti in ((8, False), (16, True)):
        planted, v = conjugation(64, n, seed=37 + n, antiunitary=anti)
        phi, calls = counting(planted)
        result = reconstruct(phi)
        assert result.variant == VARIANT_CONJUGATION
        assert result.antiunitary is anti
        assert planted_deviation(result.v, v) <= 1e-7
        assert len(calls) <= 320, (n, len(calls))


def test_complement_branch_reuses_the_dyad_images():
    # the d = 2n pass reads ext_{I - phi} = I/n - ext_phi off the images the
    # linear pass already has, so it costs no more oracle calls than a plain
    # conjugation of the same size
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
