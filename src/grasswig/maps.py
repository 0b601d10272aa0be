"""Declarative construction of rank-n projection maps.

A map spec is a small JSON object::

    {"type": "conjugation", "matrix": "V.json" | {...inline...}, "antiunitary": false}
    {"type": "complement"}
    {"type": "identity"}
    {"type": "noisy", "base": {...}, "sigma": 0.001, "seed": 42}
    {"type": "compose", "maps": [...]}        # rightmost applies first

The noisy wrapper conjugates the base map's output by a near-identity
unitary drawn from a hash of the input, so outputs remain exact
projections and the only property it can break is angle preservation
across different inputs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import BadRank, MatrixFormatError, UnknownInput
from .linalg import COMPLEX, REAL, as_complex, frobenius, is_exactly_real
from .matio import canonical_key, matrix_from_obj, matrix_to_obj
from .extension import RankNMap
from .projections import Projection
from .tolerances import DEFAULT_TOL, ToleranceConfig


@dataclass(frozen=True)
class MapSpec:
    kind: str
    matrix: np.ndarray | None = None
    antiunitary: bool = False
    base: "MapSpec | None" = None
    sigma: float = 0.0
    seed: int = 0
    parts: tuple["MapSpec", ...] = ()

    def __post_init__(self) -> None:
        if self.kind == "noisy" and (not math.isfinite(self.sigma) or self.sigma < 0):
            raise MatrixFormatError(f"sigma must be a finite number >= 0, got {self.sigma}")
        # the noise is keyed on the seed's 8 bytes: a signed 64-bit integer
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise MatrixFormatError(f"seed must be an integer, got {self.seed!r}")
        if not -(2**63) <= int(self.seed) < 2**63:
            raise MatrixFormatError(f"seed {self.seed} is outside the signed 64-bit range")
        object.__setattr__(self, "seed", int(self.seed))
        if self.kind == "compose" and not self.parts:
            raise MatrixFormatError("compose requires a nonempty map list")


def parse_map_spec(obj, base_dir: str = ".") -> MapSpec:
    """Parse the MapSpec JSON schema; matrix paths resolve against base_dir."""
    if not isinstance(obj, dict) or "type" not in obj:
        raise MatrixFormatError("map spec must be an object with a \"type\" key")
    kind = obj["type"]
    if kind == "identity":
        return MapSpec("identity")
    if kind == "complement":
        return MapSpec("complement")
    if kind == "conjugation":
        raw = obj.get("matrix")
        if isinstance(raw, str):
            path = raw if os.path.isabs(raw) else os.path.join(base_dir, raw)
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        if not isinstance(raw, dict):
            raise MatrixFormatError("conjugation needs a \"matrix\" (inline object or file path)")
        m, _ = matrix_from_obj(raw)
        antiunitary = obj.get("antiunitary", False)
        if not isinstance(antiunitary, bool):
            raise MatrixFormatError(f"antiunitary must be true or false, got {antiunitary!r}")
        return MapSpec("conjugation", matrix=m, antiunitary=antiunitary)
    if kind == "noisy":
        if "base" not in obj:
            raise MatrixFormatError("noisy needs a \"base\" map spec")
        sigma = obj.get("sigma", 0.0)
        if isinstance(sigma, bool) or not isinstance(sigma, (int, float)):
            raise MatrixFormatError(f"sigma must be a number, got {sigma!r}")
        return MapSpec(
            "noisy",
            base=parse_map_spec(obj["base"], base_dir),
            sigma=float(sigma),
            seed=obj.get("seed", 0),
        )
    if kind == "compose":
        raw_parts = obj.get("maps")
        if not isinstance(raw_parts, list) or not raw_parts:
            raise MatrixFormatError("compose needs a nonempty \"maps\" list")
        return MapSpec("compose", parts=tuple(parse_map_spec(p, base_dir) for p in raw_parts))
    raise MatrixFormatError(f"unknown map type {kind!r}")


def load_map_spec(path) -> MapSpec:
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MatrixFormatError(f"{path}: not valid JSON ({exc})") from exc
    return parse_map_spec(obj, base_dir=os.path.dirname(os.path.abspath(path)))


def _describe(spec: MapSpec) -> str:
    if spec.kind == "conjugation":
        return f"conjugation(antiunitary={spec.antiunitary})"
    if spec.kind == "noisy":
        return f"noisy(sigma={spec.sigma}, seed={spec.seed}, base={_describe(spec.base)})"
    if spec.kind == "compose":
        return "compose[" + ", ".join(_describe(p) for p in spec.parts) + "]"
    return spec.kind


def _noise_unitary(m: np.ndarray, sigma: float, seed: int, field: str) -> np.ndarray:
    """Near-identity unitary specific to the input matrix m.

    Seeded from a hash of the canonical input bytes so the wrapped map stays
    deterministic per input while different inputs get independent kicks.
    The unitary is the Cayley transform ``(I - A/2)^-1 (I + A/2)`` of a
    skew-Hermitian generator A of size sigma, unitary for any such A and
    equal to ``exp(A)`` up to O(sigma^3).  In real mode the generator is
    skew-symmetric, keeping the rotation real.
    """
    digest = hashlib.blake2b(
        canonical_key(m) + seed.to_bytes(8, "little", signed=True),
        digest_size=8,
    ).digest()
    rng = np.random.default_rng(int.from_bytes(digest, "little"))
    d = m.shape[0]
    g = rng.standard_normal((d, d))
    if field == REAL:
        generator = sigma * (g - g.T) / 2.0
    else:
        h = g + 1j * rng.standard_normal((d, d))
        generator = 1j * sigma * (h + h.conj().T) / 2.0
    eye = np.eye(d)
    return np.asarray(np.linalg.solve(eye - generator / 2.0, eye + generator / 2.0), dtype=np.complex128)


def _matrix_fn(spec: MapSpec, d: int, n: int, field: str, tol: ToleranceConfig):
    """The map a spec describes, on raw matrices: every kind sends a rank-n
    projection to one by construction, so nothing is validated in between."""
    if spec.kind == "identity":
        return lambda m: m
    if spec.kind == "complement":
        if d != 2 * n:
            raise BadRank(f"complement maps rank n to rank d - n; need d = 2n, got d={d}, n={n}")
        eye = np.eye(d, dtype=np.complex128)
        return lambda m: eye - m
    if spec.kind == "conjugation":
        v = as_complex(spec.matrix)
        if v.shape != (d, d):
            raise MatrixFormatError(f"conjugation matrix is {v.shape}, expected ({d}, {d})")
        defect = frobenius(v.conj().T @ v - np.eye(d)) if np.isfinite(v).all() else np.nan
        if not defect <= tol.eq_tol * d:
            raise MatrixFormatError(f"conjugation matrix is not unitary (defect {defect:.3e})")
        if field == REAL:
            if not is_exactly_real(v):
                raise MatrixFormatError("real-field conjugation requires a real orthogonal matrix")
            if spec.antiunitary:
                raise MatrixFormatError("antiunitary has no meaning over the reals")
        if spec.antiunitary:
            return lambda m: v @ m.conj() @ v.conj().T
        return lambda m: v @ m @ v.conj().T
    if spec.kind == "noisy":
        base = _matrix_fn(spec.base, d, n, field, tol)
        if spec.sigma == 0.0:
            return base

        def noisy(m):
            u = _noise_unitary(m, spec.sigma, spec.seed, field)
            return u @ base(m) @ u.conj().T

        return noisy
    if spec.kind == "compose":
        stages = [_matrix_fn(part, d, n, field, tol) for part in reversed(spec.parts)]

        def composed(m):
            for stage in stages:
                m = stage(m)
            return m

        return composed
    raise MatrixFormatError(f"unknown map type {spec.kind!r}")


def instantiate(spec: MapSpec, d: int, n: int, field: str = COMPLEX, tol: ToleranceConfig = DEFAULT_TOL) -> RankNMap:
    """Build the RankNMap a spec describes, validating it against (d, n, field).
    Its oracle returns raw matrices, which the map validates as one stack."""
    fn = _matrix_fn(spec, d, n, field, tol)
    return RankNMap(d, n, lambda p: fn(p.matrix), descriptor=_describe(spec), field=field, tol=tol)


def map_to_table(phi: RankNMap, inputs: list[Projection]) -> list[dict]:
    """Capture input/output pairs as JSON-ready fixtures."""
    return [
        {
            "input": matrix_to_obj(p.matrix),
            "output": matrix_to_obj(phi.evaluate(p).matrix),
        }
        for p in inputs
    ]


def map_from_table(
    d: int,
    n: int,
    entries: list[dict],
    field: str = COMPLEX,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> RankNMap:
    """Table-backed map: known inputs replay, unknown inputs raise.

    An input matches the stored input nearest to it in Frobenius distance
    when that distance is at most ``eq_tol``.  Stored inputs are bucketed
    on a fixed generic real functional of norm 1 in buckets ``2 eq_tol``
    wide: a match moves the functional by at most ``eq_tol`` (plus
    roundoff), so it lies in the query's bucket or in one of its two
    neighbours.
    """
    weights = np.random.default_rng(0).standard_normal((2, d, d))
    weights /= np.linalg.norm(weights)

    def bucket(m: np.ndarray) -> int:
        return math.floor(float(np.sum(weights[0] * m.real + weights[1] * m.imag)) / (2.0 * tol.eq_tol))

    table: dict[int, list[tuple[np.ndarray, Projection]]] = {}
    for i, entry in enumerate(entries):
        pin, _ = matrix_from_obj(entry["input"])
        pout, _ = matrix_from_obj(entry["output"])
        if pin.shape != (d, d):
            raise MatrixFormatError(f"table entry {i} has a {pin.shape[0]}x{pin.shape[1]} input, expected {d}x{d}")
        table.setdefault(bucket(pin), []).append((pin, Projection(pout, rank=n, tol=tol)))

    def fn(p: Projection) -> Projection:
        b = bucket(p.matrix)
        candidates = [c for key in (b - 1, b, b + 1) for c in table.get(key, ())]
        distances = [frobenius(stored - p.matrix) for stored, _ in candidates]
        if not distances or min(distances) > tol.eq_tol:
            raise UnknownInput("table-backed map has no entry for this projection")
        return candidates[int(np.argmin(distances))][1]

    return RankNMap(d, n, fn, descriptor="table", field=field, tol=tol)
