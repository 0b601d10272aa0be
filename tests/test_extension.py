import numpy as np
import pytest

from grasswig import (
    BadRank,
    InternalInconsistency,
    NonHermitian,
    NotAProjection,
    NotUnit,
    Projection,
    RankNMap,
    combination_coefficients,
    extend_orthonormal,
    extend_to_hermitian,
    extend_to_rank1,
    haar_random_unitary,
    projection_distance,
    rank1_combination,
    random_subspace,
    sample_projection,
)
from grasswig.extension import complete_orthonormal
from grasswig.linalg import REAL, frobenius
from grasswig.maps import MapSpec, instantiate


def unit_vector(rng, d, real=False):
    v = rng.standard_normal(d).astype(np.complex128)
    if not real:
        v = v + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def solver_coefficients(n):
    """Independent oracle: solve (J - I) lam = e1 directly."""
    system = np.ones((n + 1, n + 1)) - np.eye(n + 1)
    rhs = np.zeros(n + 1)
    rhs[0] = 1.0
    return np.linalg.solve(system, rhs)


def test_coefficients_small_ranks():
    assert np.array_equal(combination_coefficients(1), [0.0, 1.0])
    assert np.array_equal(combination_coefficients(2), [-0.5, 0.5, 0.5])
    assert np.array_equal(combination_coefficients(3), [-2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])


def test_coefficients_match_solver_oracle():
    for n in range(1, 10):
        assert np.max(np.abs(combination_coefficients(n) - solver_coefficients(n))) <= 1e-15


def test_combination_reassembles_target():
    rng = np.random.default_rng(1)
    for trial in range(40):
        d = int(rng.integers(2, 11))
        n = int(rng.integers(1, d))
        u = unit_vector(rng, d, real=bool(trial % 3 == 0))
        cert = rank1_combination(u, n)
        assert cert.residual() <= 1e-12
        assert len(cert.projections) == n + 1
        assert all(p.rank == n for p in cert.projections)


def test_combination_projections_live_under_common_envelope():
    rng = np.random.default_rng(2)
    u = unit_vector(rng, 6)
    cert = rank1_combination(u, 3)
    envelope = cert.projections[0].matrix + np.outer(u, u.conj())
    for p in cert.projections:
        # envelope dominates every P_k: E P_k = P_k
        assert frobenius(envelope @ p.matrix - p.matrix) <= 1e-12


def test_combination_is_deterministic():
    rng = np.random.default_rng(3)
    u = unit_vector(rng, 5)
    a = rank1_combination(u, 2)
    b = rank1_combination(u, 2)
    for pa, pb in zip(a.projections, b.projections):
        assert np.array_equal(pa.matrix, pb.matrix)


def test_combination_input_validation():
    with pytest.raises(BadRank):
        rank1_combination(np.array([1.0, 0.0]), 2)  # needs d >= n + 1
    with pytest.raises(NotUnit):
        rank1_combination(np.array([1.0, 1.0]), 1)


def identity_map(d, n):
    return instantiate(MapSpec("identity"), d, n)


def conjugation_map(d, n, seed, antiunitary=False, field="complex"):
    v = haar_random_unitary(d, seed, field)
    return instantiate(MapSpec("conjugation", matrix=v, antiunitary=antiunitary), d, n, field), v


def test_extension_of_identity_fixes_dyads():
    rng = np.random.default_rng(4)
    u = unit_vector(rng, 5)
    out = extend_to_rank1(identity_map(5, 2), u)
    assert frobenius(out - np.outer(u, u.conj())) <= 1e-12


def test_extension_of_conjugation_moves_dyads():
    rng = np.random.default_rng(5)
    phi, v = conjugation_map(6, 2, seed=7)
    u = unit_vector(rng, 6)
    out = extend_to_rank1(phi, u)
    vu = v @ u
    assert frobenius(out - np.outer(vu, vu.conj())) <= 1e-12


def test_extension_of_complement_shifts_by_constant():
    phi = instantiate(MapSpec("complement"), 4, 2)
    e1 = np.zeros(4, dtype=complex)
    e1[0] = 1.0
    out = extend_to_rank1(phi, e1)
    expected = np.eye(4) / 2.0
    expected[0, 0] -= 1.0
    assert frobenius(out - expected) <= 1e-12
    assert np.allclose(np.diag(out), [-0.5, 0.5, 0.5, 0.5])
    assert np.linalg.eigvalsh(out)[0] <= -0.5 + 1e-12


def test_hermitian_extension_of_zero_is_zero():
    assert frobenius(extend_to_hermitian(identity_map(4, 2), np.zeros((4, 4)))) <= 1e-15


def test_hermitian_extension_agrees_with_map_on_projections():
    rng = np.random.default_rng(6)
    phi, _ = conjugation_map(6, 2, seed=8)
    p = sample_projection(rng, 6, 2)
    out = extend_to_hermitian(phi, p.matrix)
    assert frobenius(out - phi.evaluate(p).matrix) <= 1e-8


def test_hermitian_extension_of_identity_under_complement():
    phi = instantiate(MapSpec("complement"), 4, 2)
    out = extend_to_hermitian(phi, np.eye(4))
    assert frobenius(out - np.eye(4)) <= 1e-10


def test_hermitian_extension_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        extend_to_hermitian(identity_map(3, 1), np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_extension_well_defined_across_eigenbases():
    # decompose the same degenerate Hermitian in two bases of its range
    rng = np.random.default_rng(7)
    phi, _ = conjugation_map(6, 2, seed=10)
    basis = random_subspace(6, 2, seed=11)
    a = basis @ basis.conj().T  # projector: doubly degenerate spectrum
    route_one = extend_to_hermitian(phi, a)
    w = haar_random_unitary(2, 12)
    rotated = basis @ w
    route_two = np.zeros_like(a)
    for k in range(2):
        route_two = route_two + extend_to_rank1(phi, rotated[:, k])
    assert frobenius(route_one - route_two) <= 1e-8


def hermitian_from_projections(rng, d, n, count=3):
    acc = np.zeros((d, d), dtype=np.complex128)
    for _ in range(count):
        acc = acc + rng.standard_normal() * sample_projection(rng, d, n).matrix
    return acc


def test_extension_is_hilbert_schmidt_isometry_and_trace_preserving():
    rng = np.random.default_rng(8)
    phi, _ = conjugation_map(5, 2, seed=13)
    for _ in range(10):
        a = hermitian_from_projections(rng, 5, 2)
        b = hermitian_from_projections(rng, 5, 2)
        fa, fb = extend_to_hermitian(phi, a), extend_to_hermitian(phi, b)
        before = complex(np.einsum("ij,ji->", a, b)).real
        after = complex(np.einsum("ij,ji->", fa, fb)).real
        assert abs(after - before) <= 1e-8
        assert abs(complex(fa.trace()) - complex(a.trace())) <= 1e-9


def test_hermitian_extension_packs_eigenvectors_into_frames():
    # the r eigenvectors of a rank-r input share frames of n + 1:
    # (n + 1) * ceil(r / (n + 1)) oracle calls instead of r * (n + 1)
    rng = np.random.default_rng(15)
    planted, v = conjugation_map(8, 3, seed=16)
    for r in (1, 3, 4, 5, 8):
        calls = []

        def fn(p):
            calls.append(1)
            return planted.evaluate(p)

        basis = random_subspace(8, r, seed=17 + r)
        a = basis @ np.diag(rng.uniform(0.5, 2.0, r) * rng.choice([-1.0, 1.0], r)) @ basis.conj().T
        out = extend_to_hermitian(RankNMap(8, 3, fn), a)
        assert len(calls) == 4 * -(-r // 4), (r, len(calls))
        assert frobenius(out - v @ a @ v.conj().T) <= 1e-8


def test_extension_transports_orthogonality():
    rng = np.random.default_rng(9)
    for n in (1, 2):
        d = 2 * (n + 1)
        phi, _ = conjugation_map(d, n, seed=14 + n)
        u = unit_vector(rng, d)
        w = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        w = w - u * np.vdot(u, w)
        w = w / np.linalg.norm(w)
        fu = extend_to_rank1(phi, u)
        fw = extend_to_rank1(phi, w)
        assert frobenius(fu @ fw) <= 1e-7


def test_rank_n_map_queries_the_oracle_every_time_and_validates():
    calls = []

    def fn(p):
        calls.append(1)
        return p

    phi = RankNMap(4, 2, fn, descriptor="counting")
    p = sample_projection(np.random.default_rng(10), 4, 2)
    first = phi.evaluate(p)
    second = phi.evaluate(Projection(p.matrix.copy()))
    assert len(calls) == 2
    assert projection_distance(first, second) == 0.0
    with pytest.raises(BadRank):
        phi.evaluate(sample_projection(np.random.default_rng(1), 4, 1))
    with pytest.raises(BadRank):
        phi.evaluate(sample_projection(np.random.default_rng(1), 5, 2))


def test_rank_n_map_rejects_wrong_output_rank():
    eye = np.eye(4, dtype=complex)

    def bad(p):
        return Projection(eye)  # rank 4, map claims rank 2

    phi = RankNMap(4, 2, bad)
    with pytest.raises(Exception):
        phi.evaluate(sample_projection(np.random.default_rng(2), 4, 2))


def test_real_field_extension_stays_real():
    phi, _ = conjugation_map(5, 2, seed=15, field=REAL)
    rng = np.random.default_rng(11)
    u = unit_vector(rng, 5, real=True)
    out = extend_to_rank1(phi, u)
    assert np.all(out.imag == 0.0)


def frame_test_maps(d, n):
    yield identity_map(d, n)
    yield conjugation_map(d, n, seed=40 + d + n)[0]
    yield conjugation_map(d, n, seed=50 + d + n, antiunitary=True)[0]
    if d == 2 * n:
        yield instantiate(MapSpec("complement"), d, n)


def assert_frame_matches_rank1(phi, frame):
    images = extend_orthonormal(phi, frame)
    assert len(images) == frame.shape[1]
    for k, image in enumerate(images):
        assert frobenius(image - extend_to_rank1(phi, frame[:, k])) <= 1e-12


def test_frame_images_match_rank1_extension():
    for d, n in ((4, 2), (6, 3), (7, 2), (5, 4)):
        frame = haar_random_unitary(d, 60 + d + n)[:, : n + 1]
        for phi in frame_test_maps(d, n):
            assert_frame_matches_rank1(phi, frame)


def test_frame_images_match_rank1_extension_at_rank_one():
    for d in (2, 3, 5):
        frame = haar_random_unitary(d, 70 + d)[:, :2]
        for phi in frame_test_maps(d, 1):
            assert_frame_matches_rank1(phi, frame)


def test_padded_basis_frames_match_rank1_extension():
    # d = 7 tiles into frames of n + 1 = 3 as {e0, e1, e2}, {e3, e4, e5},
    # and {e6} completed to three vectors
    d, n = 7, 2
    eye = np.eye(d, dtype=np.complex128)
    for phi in frame_test_maps(d, n):
        for start in range(0, d, n + 1):
            chunk = eye[:, start : start + n + 1]
            frame = np.column_stack(complete_orthonormal(chunk, n + 1))
            assert np.array_equal(frame[:, : chunk.shape[1]], chunk)
            assert_frame_matches_rank1(phi, frame)


def test_frame_costs_one_oracle_call_per_dyad():
    d, n = 9, 3
    _, v = conjugation_map(d, n, seed=80)
    calls = []

    def fn(p):
        calls.append(1)
        return Projection(v @ p.matrix @ v.conj().T, rank=n)

    phi = RankNMap(d, n, fn, descriptor="counting")
    unitary = haar_random_unitary(d, 81)
    for count, start in enumerate(range(0, 8, n + 1), start=1):
        extend_orthonormal(phi, unitary[:, start : start + n + 1])
        assert len(calls) == count * (n + 1)


def test_frame_rejects_wrong_trace_oracle():
    d, n = 5, 2
    frame = haar_random_unitary(d, 82)[:, : n + 1]
    wrong_rank = RankNMap(d, n, lambda p: Projection(np.eye(d)[:, : n + 1] @ np.eye(d)[: n + 1]))
    with pytest.raises(InternalInconsistency):
        extend_orthonormal(wrong_rank, frame)

    class Unchecked:
        # an oracle seen without RankNMap's output validation
        ambient_dim, rank = d, n

        def evaluate_many(self, projections):
            return [Projection(np.diag([1.0, 1.0, 1.0, 0.0, 0.0])) for _ in projections]

    with pytest.raises(InternalInconsistency):
        extend_orthonormal(Unchecked(), frame)


def test_frame_input_validation():
    phi = identity_map(5, 2)
    with pytest.raises(NotUnit):
        extend_orthonormal(phi, np.eye(5)[:, :3] * 1.1)
    nan_frame = np.eye(5)[:, :3].astype(complex)
    nan_frame[0, 0] = np.nan
    with pytest.raises(NotUnit):
        extend_orthonormal(phi, nan_frame)


def test_evaluate_many_validates_outputs_as_one_stack():
    v = haar_random_unitary(5, 3)
    calls = []

    def fn(p):
        calls.append(1)
        return v @ p.matrix @ v.conj().T  # raw matrix, validated by the map

    phi = RankNMap(5, 2, fn)
    inputs = [sample_projection(np.random.default_rng(s), 5, 2) for s in range(4)]
    outputs = phi.evaluate_many(inputs)
    assert len(calls) == 4
    for p, out in zip(inputs, outputs):
        assert out.rank == 2 and frobenius(out.matrix - v @ p.matrix @ v.conj().T) == 0.0
    with pytest.raises(BadRank, match="input 1"):
        phi.evaluate_many([inputs[0], sample_projection(np.random.default_rng(1), 5, 3)])


def test_evaluate_many_names_the_bad_output():
    inputs = [sample_projection(np.random.default_rng(s), 4, 2) for s in range(3)]
    target = inputs[2].matrix

    def malformed(p):
        return p.matrix + 1e-6 * np.eye(4) if p.matrix is target else p.matrix

    with pytest.raises(NotAProjection, match="matrix 2: idempotency"):
        RankNMap(4, 2, malformed).evaluate_many(inputs)

    def wrong_rank(p):
        return np.diag([1.0, 0.0, 0.0, 0.0]) if p.matrix is target else p

    with pytest.raises(InternalInconsistency, match="input 2"):
        RankNMap(4, 2, wrong_rank).evaluate_many(inputs)
    with pytest.raises(NotAProjection):
        RankNMap(4, 2, malformed).evaluate(inputs[2])
    with pytest.raises(InternalInconsistency):
        RankNMap(4, 2, wrong_rank).evaluate(inputs[2])
