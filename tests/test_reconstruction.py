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
from grasswig.linalg import REAL, frobenius
from grasswig.maps import MapSpec, instantiate
from grasswig.reconstruction import ASSEMBLY_GATE, _rank1_vectors


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
    # every output passes RankNMap's own Hermitian check (defect 0.9e-9 <= 1e-9),
    # and each extension image sums n + 1 of them; reading the basis images
    # must judge them at accept_tol, never re-check them at eq_tol and raise
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


def test_accept_tol_floor_is_enforced():
    phi, _ = conjugation(4, 2, seed=27)
    with pytest.raises(ValueError):
        reconstruct(phi, ReconstructionConfig(accept_tol=1e-9))


@pytest.mark.parametrize("accept_tol", [float("nan"), float("inf")])
def test_accept_tol_must_be_finite(accept_tol):
    # either value lets a far-from-preserving map through the screen:
    # noisy(1e-2) at d = 6, n = 2 came back unclassified, with no witness
    with pytest.raises(ValueError, match="finite"):
        ReconstructionConfig(accept_tol=accept_tol)


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
        calls.append((p.matrix + 0.0).tobytes())  # -0.0 and +0.0 count as one input
        return phi.evaluate(p)

    return RankNMap(phi.ambient_dim, phi.rank, fn, field=phi.field), calls


def test_oracle_budget_at_large_dimension():
    # 50 verification evaluations, the distinct inputs of the basis frames
    # and the n + 1 reference columns f_k, in one frame; an accepted map is
    # not screened.
    # n = 8: 64 = 7 * 9 + 1, and the last frame {e63, e0..e7} repeats the
    # input e0..e7 of the first, so 71 of 72; n = 16: 64 = 3 * 17 + 13, 68.
    for n, anti, basis in ((8, False, 71), (16, True, 68)):
        planted, v = conjugation(64, n, seed=37 + n, antiunitary=anti)
        phi, calls = counting(planted)
        result = reconstruct(phi)
        assert result.variant == VARIANT_CONJUGATION
        assert result.antiunitary is anti
        assert planted_deviation(result.v, v) <= 1e-7
        assert len(calls) == 50 + basis + (n + 1), (n, len(calls))
        assert len(set(calls)) == len(calls)


def test_padded_frames_send_each_distinct_input_once():
    # (3, 1): basis frames {e0, e1} and {e2, e0} share the input e0 e0*, so
    # 3 distinct of 4; (5, 3): {e0..e3} and {e4, e0, e1, e2} share
    # e0 e0* + e1 e1* + e2 e2*, so 7 of 8.  At d = 2 the DFT columns are real
    # and the probe frame (e0 +- i e1)/sqrt(2) costs n + 1 more.
    for d, n, field, anti, basis, reference in (
        (3, 1, "complex", False, 3, 2),
        (3, 1, "real", False, 3, 2),
        (5, 3, "complex", True, 7, 4),
        (2, 1, "complex", True, 2, 4),
        (2, 1, "complex", False, 2, 4),
        (2, 1, "real", False, 2, 2),
    ):
        planted, v = conjugation(d, n, seed=40 + d + n, antiunitary=anti, field=field)
        phi, calls = counting(planted)
        result = reconstruct(phi)
        assert result.variant == VARIANT_CONJUGATION
        assert result.antiunitary is anti
        assert planted_deviation(result.v, v) <= 1e-10
        assert len(calls) == 50 + basis + reference, (d, n, field, len(calls))
        assert len(set(calls)) == len(calls)
    # a rejected map pays its 6 basis and 3 reference inputs, then the 40
    # screening evaluations that explain the failure, and no verification
    noisy = instantiate(MapSpec("noisy", base=MapSpec("identity"), sigma=1e-3, seed=46), 6, 2)
    phi, calls = counting(noisy)
    assert reconstruct(phi).variant == VARIANT_NOT_PRESERVING
    assert len(calls) == 6 + 3 + 40, len(calls)
    assert len(set(calls)) == len(calls)


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


def reference_verify(phi, v, antiunitary, num_samples, seed, complement=False):
    """Per-sample verification residual."""
    rng = np.random.default_rng(seed)
    eye = np.eye(phi.ambient_dim)
    worst = 0.0
    for _ in range(num_samples):
        p = sample_projection(rng, phi.ambient_dim, phi.rank, phi.field)
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


def test_sampled_stages_refuse_an_empty_sample():
    # no sample certifies nothing: a noisy map must not pass an empty screen
    noisy = MapSpec("noisy", base=MapSpec("identity"), sigma=1e-2, seed=1)
    phi = instantiate(noisy, 6, 2)
    for samples in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            screen_preservation(phi, samples, seed=1)
        with pytest.raises(ValueError, match="at least 1"):
            verify_conjugation(phi, np.eye(6), False, samples, seed=1)


def eigh_rank1_reference(image):
    """Top eigenvector of a Hermitian image, largest entry made positive real,
    and its residual ``||image - v v*||_F``: one eigendecomposition per image."""
    _, vecs = np.linalg.eigh(image.real if np.all(image.imag == 0) else image)
    v = vecs[:, -1].astype(np.complex128)
    pivot = v[np.argmax(np.abs(v))]
    v = v * (abs(pivot) / pivot)
    return v, frobenius(image - np.outer(v, v.conj()))


def random_unit(rng, d, field):
    x = rng.standard_normal(d) + (1j * rng.standard_normal(d) if field == "complex" else 0.0)
    return x / np.linalg.norm(x)


@pytest.mark.parametrize("field", ["real", "complex"])
@pytest.mark.parametrize("d", [2, 3, 8, 32, 64])
def test_stacked_rank1_reader_matches_eigh(d, field):
    rng = np.random.default_rng(d)
    images = []
    for size in (0.0, 1e-9, 1e-7):
        for _ in range(3):
            v = random_unit(rng, d, field)
            h = rng.standard_normal((d, d)) + (1j * rng.standard_normal((d, d)) if field == "complex" else 0.0)
            h = h + h.conj().T
            images.append(np.outer(v, v.conj()) + size * h / frobenius(h))
    vectors, residuals = _rank1_vectors(np.array(images, dtype=np.complex128))
    for image, v, residual in zip(images, vectors, residuals):
        ref_v, ref_residual = eigh_rank1_reference(image)
        assert np.max(np.abs(v - ref_v)) <= 1e-13
        assert abs(residual - ref_residual) <= 1e-14
        if field == "real":
            assert np.all(v.imag == 0)


def test_stacked_rank1_reader_fails_the_gate_on_bad_images_without_raising():
    d = 6
    v = random_unit(np.random.default_rng(0), d, "complex")
    dyad = np.outer(v, v.conj())
    rank2 = random_projection(d, 2, seed=1).matrix
    skew = dyad.copy()
    skew[0, 1] += 1e-2
    bad = [np.full((d, d), np.nan), np.zeros((d, d)), rank2, skew]
    bad += [np.eye(d) / n - dyad for n in (2, 3)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, residuals = _rank1_vectors(np.array(bad, dtype=np.complex128))
    assert residuals[0] == residuals[1] == np.inf
    assert np.all(residuals > ASSEMBLY_GATE), residuals


def test_reconstruct_runs_no_eigendecomposition(monkeypatch):
    # the basis and reference images are read by power steps: one
    # reconstruct at d = 32 used to run 32 + n + 1 eigh calls
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
    # samples and extension inputs are projections by construction: the
    # only matrices validated are the oracle's outputs, once each
    shapes = validated_shapes(monkeypatch)
    phi, v, calls = raw_conjugation(32, 8, seed=43)
    result = reconstruct(phi)
    assert result.variant == VARIANT_CONJUGATION
    assert planted_deviation(result.v, v) <= 1e-7
    assert all(len(shape) == 3 for shape in shapes)
    assert sum(shape[0] for shape in shapes) == len(calls)


def test_dual_route_validates_no_complement(monkeypatch):
    # the dual map queries phi on I - P and returns the raw I - phi(I - P);
    # the input's complement is not validated, and phi's outputs are, once
    # each, as the dual's output stacks (extension, dual and direct
    # verification), never one query at a time
    shapes = validated_shapes(monkeypatch)
    phi, v, calls = raw_conjugation(8, 6, seed=44)
    result = reconstruct_via_dual(phi)
    assert result.variant == VARIANT_CONJUGATION
    assert planted_deviation(result.v, v) <= 1e-7
    assert [shape[0] for shape in shapes] == [12, 50, 50]
    assert sum(shape[0] for shape in shapes) == len(calls)


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
