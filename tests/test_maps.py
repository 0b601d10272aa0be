import functools
import hashlib
import json

import numpy as np
import pytest

from grasswig import (
    BadRank,
    MatrixFormatError,
    NotAProjection,
    Projection,
    RankNMap,
    angles_equal,
    extend_orthonormal,
    haar_random_unitary,
    projection_distance,
    random_projection,
    matrix_to_obj,
    reconstruct,
    sample_projection,
    screen_preservation,
)
from grasswig.linalg import REAL
from grasswig.maps import MapSpec, _describe, instantiate, load_map_spec, parse_map_spec
from grasswig.projections import sample_projections


def test_identity_map():
    phi = instantiate(MapSpec("identity"), 5, 2)
    p = random_projection(5, 2, seed=0)
    assert projection_distance(phi.evaluate(p), p) == 0.0


def test_complement_map_diagonal_example():
    phi = instantiate(MapSpec("complement"), 4, 2)
    p = Projection(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
    out = phi.evaluate(p)
    assert np.allclose(out.matrix, np.diag([0.0, 0.0, 1.0, 1.0]))


def test_complement_requires_half_dimension():
    with pytest.raises(BadRank):
        instantiate(MapSpec("complement"), 5, 2)


def test_complement_is_an_involution():
    phi = instantiate(MapSpec("complement"), 6, 3)
    rng = np.random.default_rng(1)
    for _ in range(50):
        p = sample_projection(rng, 6, 3)
        assert projection_distance(phi.evaluate(phi.evaluate(p)), p) <= 1e-12


def test_compose_applies_rightmost_first():
    a = haar_random_unitary(4, 1)
    b = haar_random_unitary(4, 2)
    composed = instantiate(
        MapSpec("compose", parts=(MapSpec("conjugation", matrix=a), MapSpec("conjugation", matrix=b))),
        4,
        2,
    )
    direct = instantiate(MapSpec("conjugation", matrix=a @ b), 4, 2)
    p = random_projection(4, 2, seed=3)
    assert projection_distance(composed.evaluate(p), direct.evaluate(p)) <= 1e-12


def test_noisy_with_zero_sigma_is_the_base():
    base = MapSpec("conjugation", matrix=haar_random_unitary(4, 4))
    noisy = instantiate(MapSpec("noisy", base=base, sigma=0.0, seed=1), 4, 2)
    plain = instantiate(base, 4, 2)
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = sample_projection(rng, 4, 2)
        assert np.array_equal(noisy.evaluate(p).matrix, plain.evaluate(p).matrix)


def test_noisy_map_is_deterministic_per_input():
    phi = instantiate(MapSpec("noisy", base=MapSpec("identity"), sigma=1e-3, seed=5), 4, 2)
    p = random_projection(4, 2, seed=6)
    out1 = phi.evaluate(p)
    out2 = phi.evaluate(Projection(p.matrix.copy()))
    assert np.array_equal(out1.matrix, out2.matrix)
    # outputs are exact projections even though angles are perturbed
    assert out1.rank == 2


def test_noisy_map_perturbs_different_inputs_differently():
    phi = instantiate(MapSpec("noisy", base=MapSpec("identity"), sigma=1e-3, seed=5), 4, 2)
    rng = np.random.default_rng(3)
    p = sample_projection(rng, 4, 2)
    q = sample_projection(rng, 4, 2)
    assert projection_distance(phi.evaluate(p), p) > 1e-5
    assert not angles_equal(p, q, phi.evaluate(p), phi.evaluate(q), 1e-9)


def test_real_noisy_map_keeps_outputs_real():
    phi = instantiate(MapSpec("noisy", base=MapSpec("identity"), sigma=1e-3, seed=5), 4, 2, REAL)
    p = random_projection(4, 2, seed=7, field=REAL)
    out = phi.evaluate(p)
    assert np.all(out.matrix.imag == 0.0)


def test_conjugation_preserves_angles_forward():
    v = haar_random_unitary(6, 8)
    for anti in (False, True):
        phi = instantiate(MapSpec("conjugation", matrix=v, antiunitary=anti), 6, 2)
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = sample_projection(rng, 6, 2)
            q = sample_projection(rng, 6, 2)
            assert angles_equal(p, q, phi.evaluate(p), phi.evaluate(q), 1e-9)


def test_conjugation_validation():
    with pytest.raises(MatrixFormatError):
        instantiate(MapSpec("conjugation", matrix=np.ones((3, 3), dtype=complex)), 3, 1)
    with pytest.raises(MatrixFormatError):
        instantiate(MapSpec("conjugation", matrix=haar_random_unitary(3, 0)), 4, 2)
    complex_v = haar_random_unitary(4, 1)
    with pytest.raises(MatrixFormatError):
        instantiate(MapSpec("conjugation", matrix=complex_v), 4, 2, REAL)
    real_v = haar_random_unitary(4, 1, REAL)
    with pytest.raises(MatrixFormatError):
        instantiate(MapSpec("conjugation", matrix=real_v, antiunitary=True), 4, 2, REAL)


def test_parse_round_trip(tmp_path):
    v = haar_random_unitary(4, 9)
    vpath = tmp_path / "v.json"
    from grasswig import save_matrix

    save_matrix(vpath, v)
    spec_obj = {
        "type": "compose",
        "maps": [
            {"type": "complement"},
            {"type": "noisy", "base": {"type": "conjugation", "matrix": "v.json"}, "sigma": 0.5, "seed": 3},
        ],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec_obj))
    spec = load_map_spec(spec_path)
    assert spec.kind == "compose"
    assert spec.parts[0].kind == "complement"
    assert spec.parts[1].kind == "noisy"
    assert np.array_equal(spec.parts[1].base.matrix, v)


def test_parse_rejects_malformed_specs():
    with pytest.raises(MatrixFormatError):
        parse_map_spec({"type": "spin"})
    with pytest.raises(MatrixFormatError):
        parse_map_spec({"type": "compose", "maps": []})
    with pytest.raises(MatrixFormatError):
        parse_map_spec({"type": "noisy", "sigma": 0.1})
    with pytest.raises(MatrixFormatError):
        parse_map_spec({"type": "conjugation"})
    with pytest.raises(MatrixFormatError):
        parse_map_spec({"type": "noisy", "base": {"type": "identity"}, "sigma": "big"})
    with pytest.raises(MatrixFormatError):
        parse_map_spec(MapSpec)


def test_map_outputs_are_validated_once_as_a_stack(monkeypatch):
    # the oracles return raw matrices: a 20-pair screen validates their 40
    # images as one stack, with no single-matrix validation inside the
    # oracle; the 40 samples are projections by construction (their frames
    # are checked instead) and are not validated
    import grasswig.maps as maps
    from grasswig.reconstruction import screen_preservation

    shapes = []
    validate = maps.projection_rank

    def counted(m, *args, **kwargs):
        shapes.append(np.shape(m))
        return validate(m, *args, **kwargs)

    monkeypatch.setattr(maps, "projection_rank", counted)
    v = haar_random_unitary(6, 4)
    for spec in (
        MapSpec("conjugation", matrix=v),
        MapSpec("conjugation", matrix=v, antiunitary=True),
        MapSpec("noisy", base=MapSpec("conjugation", matrix=v), sigma=1e-3, seed=2),
    ):
        shapes.clear()
        screen_preservation(instantiate(spec, 6, 2), 20, seed=3)
        assert shapes == [(40, 6, 6)], spec.kind
    shapes.clear()
    screen_preservation(instantiate(MapSpec("complement"), 6, 3), 20, seed=3)
    assert shapes == [(40, 6, 6)]


def test_a_screen_wraps_its_inputs_and_witness_but_no_output(monkeypatch):
    # a 20-pair screen at d = 6 passes its 40 samples to an external oracle
    # as Projections and wraps the 4 witness matrices: 44 in all.  A spec
    # map gets the samples as one array, so only the witness is wrapped: 4.
    # The 40 outputs are only checked as one stack, never wrapped
    import sys

    import grasswig.projections as projections
    from grasswig.reconstruction import screen_preservation

    built, wrap, post_init = [], projections._wrap_stack, Projection.__post_init__

    def counted_wrap(stack, ranks):
        out = wrap(stack, ranks)
        built.append(len(out))
        return out

    for name, module in list(sys.modules.items()):
        if name.startswith("grasswig") and getattr(module, "_wrap_stack", None) is wrap:
            monkeypatch.setattr(module, "_wrap_stack", counted_wrap)
    monkeypatch.setattr(Projection, "__post_init__", lambda self, tol: built.append(1) or post_init(self, tol))
    v = haar_random_unitary(6, 4)
    for spec in (MapSpec("conjugation", matrix=v), MapSpec("noisy", base=MapSpec("conjugation", matrix=v), sigma=1e-3, seed=2)):
        phi = instantiate(spec, 6, 2)
        for oracle, wrapped in ((phi, 4), (RankNMap(6, 2, phi._fn), 44)):
            built.clear()
            report = screen_preservation(oracle, 20, seed=3)
            assert sum(built) == wrapped, spec.kind
            assert isinstance(report.witness_phi_q, Projection) and report.witness_phi_q.rank == 2


def test_noisy_seed_must_be_a_signed_64_bit_integer():
    base = MapSpec("complement")
    for seed in (2.7, 1e20, True, "3", 2**63, -(2**63) - 1):
        with pytest.raises(MatrixFormatError, match="seed"):
            MapSpec("noisy", base=base, sigma=1e-3, seed=seed)
    for seed in (2**63 - 1, -(2**63), np.int64(5)):
        assert type(MapSpec("noisy", base=base, sigma=1e-3, seed=seed).seed) is int
    with pytest.raises(MatrixFormatError, match="seed"):
        parse_map_spec({"type": "noisy", "sigma": 1e-3, "seed": 2.7, "base": {"type": "complement"}})


@pytest.mark.parametrize("sigma", [float("nan"), float("inf")])
def test_noisy_sigma_must_be_finite(sigma):
    with pytest.raises(MatrixFormatError, match="sigma"):
        MapSpec("noisy", base=MapSpec("identity"), sigma=sigma)
    with pytest.raises(MatrixFormatError, match="sigma"):
        parse_map_spec({"type": "noisy", "sigma": sigma, "base": {"type": "identity"}})


@pytest.mark.parametrize("d, n", [(4.0, 2), (4, True), (True, 1), (4, 2.0), ("4", 2), (4, None)])
def test_a_rank_n_map_refuses_a_dimension_or_rank_that_is_no_integer(d, n):
    # refused when built, before any query could fail inside numpy
    with pytest.raises(BadRank, match="must be an integer"):
        RankNMap(d, n, lambda p: p)


SPEC_KINDS = [
    MapSpec("identity"),
    MapSpec("complement"),
    MapSpec("conjugation", matrix=np.eye(6)),
    MapSpec("noisy", base=MapSpec("conjugation", matrix=np.eye(6)), sigma=1e-3),
    MapSpec("compose", parts=(MapSpec("complement"), MapSpec("conjugation", matrix=np.eye(6)))),
]


@pytest.mark.parametrize("spec", SPEC_KINDS, ids=_describe)
@pytest.mark.parametrize(
    "d, n, message",
    [(6.0, 3, "dim must be an integer"), ("6", 3, "dim must be an integer"), (6, 3.0, "rank must be an integer"),
     (6, "3", "rank must be an integer"), (6, 0, "need 1 <= rank <= dim"), (6, 7, "need 1 <= rank <= dim")],
)
def test_instantiate_checks_the_dimension_and_rank_before_the_spec(spec, d, n, message):
    # as RankNMap would, not from inside numpy or the spec's own checks
    with pytest.raises(BadRank, match=message):
        instantiate(spec, d, n)


@pytest.mark.parametrize("spec", SPEC_KINDS, ids=_describe)
def test_instantiate_checks_the_field_before_the_spec(spec):
    with pytest.raises(ValueError, match="^field must be one of"):
        instantiate(spec, 6, 3, "quaternion")


def test_a_rank_n_map_refuses_an_unknown_field_and_keeps_numpy_integers():
    with pytest.raises(ValueError, match="^field must be one of"):
        RankNMap(4, 2, lambda p: p, field="quaternion")
    phi = RankNMap(np.int64(4), np.int32(2), lambda p: p, field=REAL)
    assert (phi.ambient_dim, phi.rank) == (4, 2)
    p = random_projection(4, 2, seed=1)
    assert phi.evaluate(p).matrix.tolist() == p.matrix.tolist()


def per_matrix_reference(spec, d, field):
    """Each spec kind as the per-matrix formula it was once evaluated by, one
    input at a time, kept here as the reference the stacked evaluation must
    equal bit for bit."""
    if spec.kind == "identity":
        return lambda m: m
    if spec.kind == "complement":
        return lambda m: np.eye(d, dtype=np.complex128) - m
    if spec.kind == "conjugation":
        v = np.asarray(spec.matrix, dtype=np.complex128)
        return (lambda m: v @ m.conj() @ v.conj().T) if spec.antiunitary else (lambda m: v @ m @ v.conj().T)
    if spec.kind == "compose":
        stages = [per_matrix_reference(part, d, field) for part in reversed(spec.parts)]
        return lambda m: functools.reduce(lambda x, stage: stage(x), stages, m)
    base = per_matrix_reference(spec.base, d, field)
    if spec.sigma == 0.0:
        return base

    def noisy(m):
        key = d.to_bytes(4, "little") * 2 + (np.round(m, 12) + 0.0).tobytes()
        digest = hashlib.blake2b(key + spec.seed.to_bytes(8, "little", signed=True), digest_size=8).digest()
        rng = np.random.default_rng(int.from_bytes(digest, "little"))
        g = rng.standard_normal((d, d))
        if field == REAL:
            generator = spec.sigma * (g - g.T) / 2.0
        else:
            h = g + 1j * rng.standard_normal((d, d))
            generator = 1j * spec.sigma * (h + h.conj().T) / 2.0
        eye = np.eye(d)
        u = np.asarray(np.linalg.solve(eye - generator / 2.0, eye + generator / 2.0), dtype=np.complex128)
        return u @ base(m) @ u.conj().T

    return noisy


def every_kind(v, field):
    """One spec of each kind at d = 2n, noisy ones with negative seeds,
    nested as the CLI's specs are."""
    conj = MapSpec("conjugation", matrix=v)
    exceptional = MapSpec("compose", parts=(MapSpec("complement"), conj))
    specs = [
        MapSpec("identity"), MapSpec("complement"), conj, exceptional,
        MapSpec("noisy", base=conj, sigma=1e-3, seed=-5),
        MapSpec("noisy", base=MapSpec("identity"), sigma=0.3, seed=-(2**63)),
        MapSpec("noisy", base=exceptional, sigma=0.0, seed=-1),
        MapSpec("compose", parts=(MapSpec("complement"), MapSpec("noisy", base=exceptional, sigma=1e-2, seed=-9), conj)),
    ]
    if field != REAL:
        anti = MapSpec("conjugation", matrix=v, antiunitary=True)
        specs += [anti, MapSpec("noisy", base=anti, sigma=1e-2, seed=-2)]
    return specs


@pytest.mark.parametrize("field", [REAL, "complex"])
@pytest.mark.parametrize("count", [1, 13, 50])
@pytest.mark.parametrize("d", [6, 40])
def test_a_spec_map_evaluates_a_stack_as_its_per_matrix_reference_bit_for_bit(field, count, d):
    # at d = 40 the noise is solved in blocks of 10 matrices, so stacks of
    # 13 and 50 cross block boundaries
    n = d // 2
    stack, inputs = sample_projections(np.random.default_rng(count), count, d, n, field)
    for spec in every_kind(haar_random_unitary(d, 12, field), field):
        phi, reference = instantiate(spec, d, n, field), per_matrix_reference(spec, d, field)
        expected = np.stack([reference(p.matrix) for p in inputs])
        assert np.array_equal(phi._outputs(stack), expected), _describe(spec)
        assert np.array_equal(np.stack([phi._fn(p) for p in inputs]), expected), _describe(spec)
        assert all(np.array_equal(out.matrix, m) for out, m in zip(phi.evaluate_many(inputs), expected))


def test_each_output_stack_of_a_spec_map_is_one_stacked_call(monkeypatch):
    # the reading, verification and the screen each hand the map a stack:
    # one call of its stack function each, and none of its per-input oracle
    v, outputs, stacks, calls = haar_random_unitary(6, 4), RankNMap._outputs, [], []
    monkeypatch.setattr(RankNMap, "_outputs", lambda self, s, first=0: stacks.append((self, len(s))) or outputs(self, s, first))
    for spec, variant in (
        (MapSpec("noisy", base=MapSpec("conjugation", matrix=v), sigma=1e-3, seed=-2), "not_angle_preserving"),
        (MapSpec("compose", parts=(MapSpec("complement"), MapSpec("conjugation", matrix=v))), "exceptional_complement"),
    ):
        stacks.clear()
        calls.clear()
        phi = instantiate(spec, 6, 3)
        stacked = phi._stack
        phi._stack = lambda s: calls.append(len(s)) or stacked(s)
        phi._fn = None
        assert reconstruct(phi).variant == variant
        screen_preservation(phi, 20, seed=3)
        assert all(owner is phi for owner, _ in stacks), _describe(spec)
        assert calls == [size for _, size in stacks] and len(calls) >= 2, _describe(spec)


@pytest.mark.parametrize("field", [REAL, "complex"])
def test_no_stage_writes_into_a_query_stack_it_hands_a_spec_map(field):
    # a spec map gets each query stack uncopied, and the identity hands it
    # back as its output, so a stage may write into neither: every stack is
    # made read-only on its way in, and a write into it would raise.  At
    # (6, 3) and (7, 2) every kind is read directly; at (7, 5) through
    # complement queries
    for d, n in ((6, 3), (7, 5), (7, 2)):
        for spec in every_kind(haar_random_unitary(d, 12, field), field):
            if d != 2 * n and "complement" in _describe(spec):
                continue
            phi, sizes = instantiate(spec, d, n, field), []
            stacked = phi._stack

            def read_only(s, stacked=stacked, sizes=sizes):
                s.setflags(write=False)
                sizes.append(len(s))
                return stacked(s)

            phi._stack = read_only
            assert reconstruct(phi).variant, _describe(spec)
            screen_preservation(phi, 20, seed=3)
            extend_orthonormal(phi, haar_random_unitary(d, 5, field)[:, : n + 2])
            assert len(sizes) >= 3, _describe(spec)  # the reading, the screen, the extension


@pytest.mark.parametrize(
    "malformed",
    [lambda d: np.ones(d), lambda d: 1.0, lambda d: np.eye(d)[None], lambda d: [[1.0] * d, [0.0]]],
    ids=["1-D", "scalar", "3-D", "ragged"],
)
def test_a_malformed_oracle_output_is_not_a_projection_naming_the_map_and_input(malformed):
    # typed, like a matrix of the wrong shape, and named by the input's
    # index: in evaluate_many's list, and in a sampled stage's whole run
    # (at (40, 8) a screen draws 10 samples per stack, so sample 13 is
    # output 3 of the second stack)
    inputs = [sample_projection(np.random.default_rng(s), 4, 2) for s in range(3)]
    phi = RankNMap(4, 2, lambda p: malformed(4) if p is inputs[2] else p.matrix, descriptor="bad")
    with pytest.raises(NotAProjection, match="^map 'bad' returned .* for input 2$"):
        phi.evaluate_many(inputs)
    calls = []
    phi = RankNMap(40, 8, lambda p: calls.append(1) or (malformed(40) if len(calls) == 14 else p.matrix), descriptor="bad")
    with pytest.raises(NotAProjection, match="^map 'bad' returned .* for input 13$"):
        screen_preservation(phi, 10, seed=1)


def test_check_writes_the_witness_of_the_per_matrix_reference_byte_for_byte(tmp_path, monkeypatch, capsys):
    import grasswig.cli as cli

    v = haar_random_unitary(6, 7)
    spec = {"type": "noisy", "base": {"type": "conjugation", "matrix": matrix_to_obj(v)}, "sigma": 1e-3, "seed": -4}
    (tmp_path / "spec.json").write_text(json.dumps(spec))

    def reference_map(spec, d, n, field, tol):
        reference = per_matrix_reference(spec, d, field)
        return RankNMap(d, n, lambda p: reference(p.matrix), field=field, tol=tol)

    runs = {}
    for route in ("stacked", "reference"):
        if route == "reference":
            monkeypatch.setattr(cli, "instantiate", reference_map)
        argv = ["check", "--map", str(tmp_path / "spec.json"), "--dim", "6", "--rank", "2",
                "--samples", "20", "--seed", "8", "--witness-dir", str(tmp_path / route)]
        assert cli.main(argv) == 1
        files = sorted((tmp_path / route).iterdir())
        runs[route] = capsys.readouterr().out.replace(route, ""), [f.name for f in files], [f.read_bytes() for f in files]
    assert runs["stacked"] == runs["reference"]
    assert len(runs["stacked"][1]) == 4


@pytest.mark.parametrize("kind", ["compose", "noisy"])
def test_a_map_spec_built_in_python_is_held_to_the_parsers_depth_limit(kind):
    # a spec built in Python meets the parser's limit when it is built, before
    # instantiate and its descriptor recurse once per level
    def wrap(spec):
        return MapSpec("compose", parts=(spec,)) if kind == "compose" else MapSpec("noisy", base=spec)

    spec = MapSpec("identity")
    for _ in range(99):
        spec = wrap(spec)
    assert reconstruct(instantiate(spec, 4, 2)).variant == "conjugation"  # 100 levels
    assert spec == functools.reduce(lambda s, _: wrap(s), range(99), MapSpec("identity"))  # depth is no field
    for levels in (101, 400):
        with pytest.raises(MatrixFormatError, match="map spec nests deeper than 100 levels"):
            functools.reduce(lambda s, _: wrap(s), range(levels - 1), MapSpec("identity"))
