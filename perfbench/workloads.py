"""The four workloads: inputs generated from a seed, and the planted truth
each output is checked against.

A workload is a list of rounds; ``make_round(seed, r, ctx)`` builds round
``r`` from ``numpy.random.default_rng([seed, r])``, so the same seed gives
the same inputs.  Every round holds the same configurations in the same
order, with fresh random matrices, so statistics over whole rounds do not
depend on where the clock stopped.  The library sees only the generated
maps, projections and files.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import grasswig as gw
import grasswig.cli

V_TOL = 1e-7  # planted V deviation after align_phase
ANGLE_RTOL = 1e-6  # relative error allowed on a planted angle
EQUAL_TOL = 1e-8  # angles_equal tolerance on the cos^2 spectra
NOISY_SIGMAS = (1e-3, 1e-5)


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` returns a failure reason or None."""

    config: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    counted: bool = True  # the benchmark handed the oracle to RankNMap itself


@dataclass
class OracleMeter:
    """Counts calls to the oracle callables the benchmark hands to RankNMap."""

    calls: int = 0
    tracer: object | None = None

    def wrap(self, fn):
        def oracle(p):
            self.calls += 1
            return fn(p)

        return oracle if self.tracer is None else self.tracer.oracle(oracle)


@dataclass
class Context:
    meter: OracleMeter
    tmpdir: str


# ----------------------------------------------------------------- oracles


def conjugation_fn(v: np.ndarray, antiunitary: bool, complement: bool = False):
    """``P -> V tau(P) V*``, or its complement ``I - V tau(P) V*``."""
    vh = v.conj().T
    eye = np.eye(v.shape[0], dtype=np.complex128)

    def fn(p):
        m = p.matrix.conj() if antiunitary else p.matrix
        out = v @ m @ vh
        return eye - out if complement else out

    return fn


def noisy_fn(v: np.ndarray, sigma: float, seed: int):
    """Conjugation followed by a near-identity unitary drawn from a hash of
    the input, so the oracle is a deterministic function that keeps
    projections exact but breaks angle preservation across inputs."""
    base = conjugation_fn(v, False)
    d = v.shape[0]
    eye = np.eye(d, dtype=np.complex128)

    def fn(p):
        key = (np.round(p.matrix, 12) + 0.0).tobytes()
        rng = np.random.default_rng([seed, int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "little")])
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        a = 0.5j * sigma * (g + g.conj().T)  # skew-Hermitian generator
        u = np.linalg.solve(eye - a / 2, eye + a / 2)  # Cayley transform: unitary
        out = base(p)
        return u @ out @ u.conj().T

    return fn


def haar(rng: np.random.Generator, d: int, field: str) -> np.ndarray:
    return gw.haar_random_unitary(d, int(rng.integers(2**62)), field)


# ------------------------------------------------------------------ checks


def deviation(recovered, planted) -> float:
    c = gw.align_phase(recovered, planted)
    return float(np.max(np.abs(recovered - c * planted)))


def expect_isometry(variant: str, v: np.ndarray, antiunitary: bool):
    def check(result) -> str | None:
        if result.variant != variant:
            return f"variant {result.variant}, expected {variant} ({result.notes})"
        if bool(result.antiunitary) != antiunitary:
            return f"antiunitary {result.antiunitary}, expected {antiunitary}"
        dev = deviation(result.v, v)
        return None if dev <= V_TOL else f"planted V deviation {dev:.2e}"

    return check


def expect_rejected(result) -> str | None:
    if result.variant != gw.VARIANT_NOT_PRESERVING:
        return f"noisy map accepted as {result.variant}"
    return None


# -------------------------------------------------------------- grid-small

FIELD_CASES = (("real", False), ("complex", False), ("complex", True))


def field_label(field: str, anti: bool) -> str:
    return "anti" if anti else field


def reconstruct_op(ctx: Context, config: str, d: int, n: int, field: str, fn, check, seed: int, via_dual=False):
    def run():
        phi = gw.RankNMap(d, n, ctx.meter.wrap(fn), field=field)
        cfg = gw.ReconstructionConfig(seed=seed)
        return (gw.reconstruct_via_dual if via_dual else gw.reconstruct)(phi, cfg)

    return Op(config, run, check)


def conjugation_op(ctx, rng, d, n, field, anti, prefix=""):
    v = haar(rng, d, field)
    config = f"{prefix}d{d}-n{n}-{field_label(field, anti)}"
    return reconstruct_op(
        ctx, config, d, n, field, conjugation_fn(v, anti),
        expect_isometry(gw.VARIANT_CONJUGATION, v, anti), int(rng.integers(2**31)),
        via_dual=bool(prefix),
    )


def grid_small(seed: int, r: int, ctx: Context) -> list[Op]:
    rng = np.random.default_rng([seed, r])
    return [
        conjugation_op(ctx, rng, d, n, field, anti)
        for d in range(3, 9)
        for n in range(1, d)
        for field, anti in FIELD_CASES
    ]


# ----------------------------------------------------------------- large-d

LARGE_SIZES = ((32, 8), (48, 8), (48, 12), (64, 8), (64, 16))


def large_d(seed: int, r: int, ctx: Context) -> list[Op]:
    rng = np.random.default_rng([seed, r])
    return [
        conjugation_op(ctx, rng, d, n, field, anti)
        for d, n in LARGE_SIZES
        for field, anti in FIELD_CASES
    ]


# ------------------------------------------------------ exceptional-reject

DUAL_SIZES = ((5, 3), (6, 4), (7, 5), (8, 6))
NOISY_SIZES = ((6, 2), (16, 8))
CLI_EXCEPTIONAL_RANKS = (2, 3)


def matrix_obj(m: np.ndarray, field: str) -> dict:
    flat = np.asarray(m, dtype=np.complex128).reshape(-1)
    return {
        "rows": m.shape[0], "cols": m.shape[1], "field": field,
        "data": [[float(z.real), float(z.imag)] for z in flat],
    }


def matrix_from(obj: dict) -> np.ndarray:
    data = np.array(obj["data"], dtype=np.float64)
    return (data[:, 0] + 1j * data[:, 1]).reshape(obj["rows"], obj["cols"])


def write_json(path: str, obj) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


def cli_op(config: str, argv: list[str], expected_exit: int, check_out=None) -> Op:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = gw.cli.main(argv)
        return code, err.getvalue()

    def check(result) -> str | None:
        code, err = result
        if code != expected_exit:
            return f"exit code {code}, expected {expected_exit}: {err.strip()[:200]}"
        return check_out() if check_out else None

    return Op(config, run, check, counted=False)


def cli_exceptional_op(ctx: Context, rng, r: int, n: int) -> Op:
    d = 2 * n
    v = haar(rng, d, "complex")
    tag = f"r{r}-n{n}"
    spec = {
        "type": "compose",
        "maps": [
            {"type": "complement"},
            {"type": "conjugation", "matrix": matrix_obj(v, "complex"), "antiunitary": False},
        ],
    }
    spec_path = write_json(os.path.join(ctx.tmpdir, f"exc-{tag}.json"), spec)
    out_path = os.path.join(ctx.tmpdir, f"exc-{tag}-result.json")
    argv = ["reconstruct", "--map", spec_path, "--dim", str(d), "--rank", str(n),
            "--seed", str(int(rng.integers(2**31))), "--out", out_path]

    def check_out() -> str | None:
        with open(out_path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("variant") != gw.VARIANT_EXCEPTIONAL:
            return f"variant {payload.get('variant')}, expected {gw.VARIANT_EXCEPTIONAL}"
        if payload.get("antiunitary") is not False:
            return f"antiunitary {payload.get('antiunitary')}, expected False"
        dev = deviation(matrix_from(payload["V"]), v)
        return None if dev <= V_TOL else f"planted V deviation {dev:.2e}"

    return cli_op(f"cli-reconstruct-exc-n{n}", argv, 0, check_out)


def cli_check_noisy_op(ctx: Context, rng, r: int, sigma: float) -> Op:
    d, n = 6, 2
    v = haar(rng, d, "complex")
    tag = f"r{r}-s{sigma:g}"
    spec = {
        "type": "noisy",
        "base": {"type": "conjugation", "matrix": matrix_obj(v, "complex")},
        "sigma": sigma,
        "seed": int(rng.integers(2**31)),
    }
    spec_path = write_json(os.path.join(ctx.tmpdir, f"noisy-{tag}.json"), spec)
    witness_dir = os.path.join(ctx.tmpdir, f"witness-{tag}")
    argv = ["check", "--map", spec_path, "--dim", str(d), "--rank", str(n),
            "--samples", "20", "--seed", str(int(rng.integers(2**31))), "--witness-dir", witness_dir]

    def check_out() -> str | None:
        missing = [x for x in ("p", "q", "phi_p", "phi_q")
                   if not os.path.isfile(os.path.join(witness_dir, f"witness_{x}.json"))]
        return f"witness files missing: {missing}" if missing else None

    return cli_op(f"cli-check-noisy-{sigma:g}", argv, 1, check_out)


def exceptional_reject(seed: int, r: int, ctx: Context) -> list[Op]:
    rng = np.random.default_rng([seed, r])
    ops = []
    for n in range(2, 9):
        for anti in (False, True):
            v = haar(rng, 2 * n, "complex")
            ops.append(reconstruct_op(
                ctx, f"exc-d{2 * n}-n{n}-{field_label('complex', anti)}", 2 * n, n, "complex",
                conjugation_fn(v, anti, complement=True),
                expect_isometry(gw.VARIANT_EXCEPTIONAL, v, anti), int(rng.integers(2**31)),
            ))
    for d, n in NOISY_SIZES:
        for sigma in NOISY_SIGMAS:
            v = haar(rng, d, "complex")
            ops.append(reconstruct_op(
                ctx, f"noisy-d{d}-n{n}-s{sigma:g}", d, n, "complex",
                noisy_fn(v, sigma, int(rng.integers(2**31))), expect_rejected, int(rng.integers(2**31)),
            ))
    for d, n in DUAL_SIZES:
        for field, anti in FIELD_CASES[:2]:
            ops.append(conjugation_op(ctx, rng, d, n, field, anti, prefix="dual-"))
    ops += [cli_exceptional_op(ctx, rng, r, n) for n in CLI_EXCEPTIONAL_RANKS]
    ops += [cli_check_noisy_op(ctx, rng, r, sigma) for sigma in NOISY_SIGMAS]
    return ops


# ------------------------------------------------------------------ angles

NEAR_DECADES = (1e-2, 1e-3, 1e-4)
TINY_DECADES = (1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12)
RANDOM_PAIRS_PER_FIELD = 8


def planted_pair(rng, d: int, thetas: np.ndarray, field: str, rotate: bool):
    """Bases of two n-dim subspaces whose principal angles are ``thetas``.

    Unrotated pairs sit on permuted coordinate planes with random phases,
    so every entry carries only relative roundoff and even a 1e-12 rad
    angle is exact in the stored matrices.  Rotated pairs add a Haar
    unitary, which costs absolute roundoff and is used for large angles.
    """
    n = thetas.size
    perm = rng.permutation(d)
    if field == "complex":
        phases = np.exp(2j * np.pi * rng.random(d))
    else:
        phases = rng.choice([-1.0, 1.0], d).astype(np.complex128)
    bp = np.zeros((d, n), dtype=np.complex128)
    bq = np.zeros((d, n), dtype=np.complex128)
    for k, theta in enumerate(thetas):
        i, j = perm[k], perm[n + k]
        bp[i, k] = phases[i]
        bq[i, k] = np.cos(theta) * phases[i]
        bq[j, k] = np.sin(theta) * phases[j]
    if rotate:
        u = haar(rng, d, field)
        bp, bq = u @ bp, u @ bq
    return bp, bq


def relative_angle_error(got: np.ndarray, thetas: np.ndarray) -> float:
    got = np.sort(np.asarray(got, dtype=np.float64))
    if got.size != thetas.size:
        return np.inf
    return float(np.max(np.abs(got - thetas) / thetas))


def angle_case(rng, field: str, decade: float | None):
    """A planted pair: near-coincident at ``decade``, or random when None."""
    d = int(rng.integers(2, 17))
    n = int(rng.integers(1, d // 2 + 1))
    if decade is None:
        thetas = np.sort(rng.uniform(0.05, np.pi / 2 - 0.05, n))
    else:
        thetas = decade * (1.0 + np.arange(n))
    bp, bq = planted_pair(rng, d, thetas, field, rotate=decade is None)
    return d, n, thetas, bp, bq


def angles_op(ctx: Context, rng, field: str, decade: float | None) -> Op:
    d, n, thetas, bp, bq = angle_case(rng, field, decade)
    p = gw.Projection(bp @ bp.conj().T, rank=n)
    q = gw.Projection(bq @ bq.conj().T, rank=n)
    sp, sq = gw.Subspace(bp), gw.Subspace(bq)
    fn = conjugation_fn(haar(rng, d, field), False)

    def run():
        phi = gw.RankNMap(d, n, ctx.meter.wrap(fn), field=field)
        spectral = gw.principal_angles(p, q)
        svd = gw.principal_angles_svd(sp, sq)
        preserved = gw.angles_equal(p, q, phi.evaluate(p), phi.evaluate(q), EQUAL_TOL)
        return spectral, svd, preserved

    def check(result) -> str | None:
        spectral, svd, preserved = result
        for route, got in (("principal_angles", spectral), ("principal_angles_svd", svd)):
            err = relative_angle_error(got.angles, thetas)
            if err > ANGLE_RTOL:
                return f"{route} relative error {err:.2e}"
        return None if preserved else "angles_equal rejects a conjugated pair"

    label = "random" if decade is None else f"near-{decade:g}"
    return Op(f"{label}-{field}", run, check)


def angles(seed: int, r: int, ctx: Context) -> list[Op]:
    rng = np.random.default_rng([seed, r])
    ops = []
    for field in ("real", "complex"):
        ops += [angles_op(ctx, rng, field, decade) for decade in NEAR_DECADES]
        ops += [angles_op(ctx, rng, field, None) for _ in range(RANDOM_PAIRS_PER_FIELD)]
    return ops


def tiny_angle_probe(seed: int, pairs_per_case: int = 4) -> tuple[int, int, dict[str, int]]:
    """Planted pairs at 1e-5 .. 1e-12 rad, checked at ANGLE_RTOL.

    These cases sit below the accuracy the released angle routes reach, so
    they are measured here, outside the timed operations, and reported as
    a count of wrong answers rather than as failed operations.
    """
    rng = np.random.default_rng([seed, 2**31])
    wrong, total, by_decade = 0, 0, {}
    for decade in TINY_DECADES:
        for field in ("real", "complex"):
            for _ in range(pairs_per_case):
                _, n, thetas, bp, bq = angle_case(rng, field, decade)
                p = gw.Projection(bp @ bp.conj().T, rank=n)
                q = gw.Projection(bq @ bq.conj().T, rank=n)
                errs = (
                    relative_angle_error(gw.principal_angles(p, q).angles, thetas),
                    relative_angle_error(gw.principal_angles_svd(gw.Subspace(bp), gw.Subspace(bq)).angles, thetas),
                )
                bad = max(errs) > ANGLE_RTOL
                wrong += bad
                total += 1
                by_decade[f"{decade:g}"] = by_decade.get(f"{decade:g}", 0) + bad
    return wrong, total, by_decade


# How strongly each workload's time follows the calibration loop of
# run.SpeedGauge.  The three interpreter-bound workloads follow it one to
# one.  large-d spends most of its time in BLAS matrix products, which a
# busy host slows less: its exponent is the log of its slowdown over the log
# of the loop's between a fast and a slow phase of the development host.
SPEED_EXPONENT = {"grid-small": 1.0, "large-d": 0.6, "exceptional-reject": 1.0, "angles": 1.0}

WORKLOADS = {
    "grid-small": grid_small,
    "large-d": large_d,
    "exceptional-reject": exceptional_reject,
    "angles": angles,
}
