"""Rank-n projection maps: the oracle wrapper ``RankNMap``, and their
declarative construction.

A map spec is a small JSON object::

    {"type": "conjugation", "matrix": "V.json" | {...inline...}, "antiunitary": false}
    {"type": "complement"}
    {"type": "identity"}
    {"type": "noisy", "base": {...}, "sigma": 0.001, "seed": 42}
    {"type": "compose", "maps": [...]}        # rightmost applies first

The noisy wrapper conjugates the base map's output by a near-identity
unitary drawn from a hash of the input, so outputs remain exact
projections and the only property it can break is angle preservation
across different inputs.  ``MapSpec`` checks a spec's fields when it is
built, from JSON or in Python alike.  Every kind is one function on a
``(c, d, d)`` stack of matrices, and ``RankNMap._outputs`` hands a spec
map's function each ``_BLOCK_BYTES`` block of a stack of inputs (a stack
of one block as it is, uncopied); an external oracle is called once per
input.
"""

from __future__ import annotations

import functools
import hashlib
import math
import numbers
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import BadRank, InternalInconsistency, MatrixFormatError, NotAProjection
from .linalg import COMPLEX, REAL, as_complex, check_field, frobenius, is_exactly_real
from .matio import canonical_keys, matrix_from_obj, read_json
from .projections import Projection, _wrap_stack, projection_rank
from .tolerances import DEFAULT_TOL, ToleranceConfig

# Spec maps, screening and verification work in stacks of at most this many
# bytes of d x d matrices (256 at d = 8, 1 from d = 91): larger stacks save no
# time at large d but raise the peak memory, and a floor of 4 a stack made
# verification 1.2-1.35x slower at d = 104..128 (2-core x86, OpenBLAS).
_BLOCK_BYTES = 256 * 1024
_MAX_SPEC_DEPTH = 100  # 340 levels of specs exhaust Python's recursion limit
_KINDS = ("identity", "complement", "conjugation", "noisy", "compose")


class RankNMap:
    """Deterministic oracle sending rank-n projections to rank-n projections.

    Queries reach the oracle only through ``_outputs``; an external oracle
    may return a matrix or a ``Projection``.  ``evaluate_many`` stores
    nothing and validates the outputs as one stack; ``evaluate`` is its
    one-input case.  A dimension or rank that is no integer raises
    ``BadRank`` and an unknown field ``ValueError``, before any query.
    """

    def __init__(
        self,
        ambient_dim: int,
        rank: int,
        fn: "Callable[[Projection], np.ndarray | Projection] | None",
        descriptor: str = "external",
        field: str = COMPLEX,
        tol: ToleranceConfig = DEFAULT_TOL,
    ) -> None:
        for name, value in (("dim", ambient_dim), ("rank", rank)):
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise BadRank(f"{name} must be an integer, got {value!r}")
        if not 1 <= rank <= ambient_dim:
            raise BadRank(f"need 1 <= rank <= dim, got rank={rank}, dim={ambient_dim}")
        self.ambient_dim = int(ambient_dim)
        self.rank = int(rank)
        self.field = check_field(field)
        self.descriptor = descriptor
        self.tol = tol
        self._fn = fn
        self._stack = None  # ``stack -> outputs`` of a map on whole stacks

    def evaluate(self, p: Projection) -> Projection:
        return self.evaluate_many([p])[0]

    def evaluate_many(self, projections: list[Projection]) -> list[Projection]:
        """Outputs for the inputs in order, from one ``_outputs`` call.

        The outputs are validated as one stack; an input of the wrong rank
        or dimension raises ``BadRank``, an output that is not a projection
        ``NotAProjection``, one of the wrong rank or dimension
        ``InternalInconsistency``, each naming the index of its input.
        """
        d, n = self.ambient_dim, self.rank
        projections = list(projections)
        for i, p in enumerate(projections):
            if (p.ambient_dim, p.rank) != (d, n):
                raise BadRank(f"input {i} has rank {p.rank} in dim {p.ambient_dim}, map expects rank {n} in dim {d}")
        stack = self._outputs(projections if self._stack is None else np.array([p.matrix for p in projections], dtype=np.complex128).reshape(-1, d, d))
        self._check(stack)
        return _wrap_stack(stack, [n] * len(stack))

    def _outputs(self, stack, first: int = 0) -> np.ndarray:
        """The unvalidated outputs of a complex ``(c, d, d)`` query stack, the
        only place that decides what the oracle receives: a spec map
        (``instantiate``) gets each ``_BLOCK_BYTES`` block of the array (455
        matrices at d = 6, 1 from d = 91), a stack of one block as it is,
        uncopied; an external oracle, once per input, a ``Projection`` over
        each matrix, or ``evaluate_many``'s own list of inputs.  An output
        of an external oracle that is no d x d matrix raises, naming input
        ``first + i``."""
        d = self.ambient_dim
        if self._stack is not None:
            size = max(1, _BLOCK_BYTES // (16 * d * d))
            if len(stack) <= size:
                return self._stack(stack)
            out = np.empty(stack.shape, dtype=np.complex128)
            for i in range(0, len(stack), size):
                out[i : i + size] = self._stack(stack[i : i + size])
            return out
        inputs = stack if isinstance(stack, list) else _wrap_stack(stack, [self.rank] * len(stack))
        out = np.empty((len(inputs), d, d), dtype=np.complex128)
        for i, m in enumerate(map(self._fn, inputs)):
            try:  # a Projection is read as its matrix
                shape = (m := m.matrix if isinstance(m, Projection) else np.asarray(m, dtype=np.complex128)).shape
            except (TypeError, ValueError):  # a ragged or non-numeric output
                shape = "<ragged or not numeric>"
            if shape != (d, d):
                error = InternalInconsistency if len(shape) == 2 and shape[0] == shape[1] else NotAProjection
                got = f"a {shape[0]}x{shape[1]} matrix" if len(shape) == 2 else f"an output of shape {shape}"
                raise error(f"map {self.descriptor!r} returned {got} for input {first + i}")
            out[i] = m
        return out

    def _check(self, stack: np.ndarray, first: int = 0) -> None:
        """Validate an ``_outputs`` stack in one pass (``projection_rank``),
        wrapping nothing: an output not of the map's rank raises.  Errors
        name output ``first + i``."""
        for i, rank in enumerate(projection_rank(stack, self.tol, first).tolist()):
            if rank != self.rank:
                raise InternalInconsistency(f"map {self.descriptor!r} returned rank {rank} for input {first + i}")

    def __repr__(self) -> str:  # pragma: no cover
        return f"RankNMap(d={self.ambient_dim}, n={self.rank}, {self.descriptor})"


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
        """The one check of a spec's fields, for a spec parsed from JSON or
        built in Python: a bad field raises ``MatrixFormatError``."""
        if self.kind not in _KINDS:
            raise MatrixFormatError(f"unknown map type {self.kind!r}")
        if self.kind == "conjugation":
            m = self.matrix
            if not (isinstance(m, np.ndarray) and m.ndim == 2 and m.dtype.kind in "iufc"):
                raise MatrixFormatError("conjugation needs a 2-D numeric \"matrix\" (in JSON, an inline object or a file path)")
            if not isinstance(self.antiunitary, (bool, np.bool_)):
                raise MatrixFormatError(f"antiunitary must be true or false, got {self.antiunitary!r}")
        if self.kind == "noisy":
            if not isinstance(self.base, MapSpec):
                raise MatrixFormatError("noisy needs a \"base\" map spec")
            if isinstance(self.sigma, (bool, np.bool_)) or not isinstance(self.sigma, numbers.Real):
                raise MatrixFormatError(f"sigma must be a number, got {self.sigma!r}")
            try:
                sigma = float(self.sigma)
            except OverflowError:  # an integer beyond the float range
                raise MatrixFormatError("sigma must be a finite number >= 0, got an integer too large for a float") from None
            if not (math.isfinite(sigma) and sigma >= 0):
                raise MatrixFormatError(f"sigma must be a finite number >= 0, got {sigma}")
            object.__setattr__(self, "sigma", sigma)
        # the noise is keyed on the seed's 8 bytes: a signed 64-bit integer
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise MatrixFormatError(f"seed must be an integer, got {self.seed!r}")
        if not -(2**63) <= int(self.seed) < 2**63:
            raise MatrixFormatError(f"seed {self.seed} is outside the signed 64-bit range")
        object.__setattr__(self, "seed", int(self.seed))
        if self.kind == "compose" and not (self.parts and all(isinstance(p, MapSpec) for p in self.parts)):
            raise MatrixFormatError("compose needs a nonempty list of map specs")
        depth = 1 + max((p._depth for p in (self.base, *self.parts) if isinstance(p, MapSpec)), default=0)
        if depth > _MAX_SPEC_DEPTH:
            raise MatrixFormatError(f"map spec nests deeper than {_MAX_SPEC_DEPTH} levels")
        object.__setattr__(self, "_depth", depth)


def parse_map_spec(obj, base_dir: str = ".", _depth: int = 1) -> MapSpec:
    """Parse the MapSpec JSON schema (``MapSpec`` checks the fields); matrix
    paths resolve against base_dir.  Nesting past ``_MAX_SPEC_DEPTH`` is refused."""
    if _depth > _MAX_SPEC_DEPTH:
        raise MatrixFormatError(f"map spec nests deeper than {_MAX_SPEC_DEPTH} levels")
    if not isinstance(obj, dict) or "type" not in obj:
        raise MatrixFormatError("map spec must be an object with a \"type\" key")
    kind = obj["type"]
    if kind == "conjugation":
        raw = obj.get("matrix")
        if isinstance(raw, str):
            path = raw if os.path.isabs(raw) else os.path.join(base_dir, raw)
            raw = read_json(path)
        return MapSpec(kind, matrix=matrix_from_obj(raw)[0] if isinstance(raw, dict) else raw, antiunitary=obj.get("antiunitary", False))
    if kind == "noisy":
        base = parse_map_spec(obj["base"], base_dir, _depth + 1) if "base" in obj else None
        return MapSpec(kind, base=base, sigma=obj.get("sigma", 0.0), seed=obj.get("seed", 0))
    if kind == "compose":
        if not isinstance(obj.get("maps"), list):
            raise MatrixFormatError("compose needs a nonempty \"maps\" list")
        return MapSpec(kind, parts=tuple(parse_map_spec(p, base_dir, _depth + 1) for p in obj["maps"]))
    return MapSpec(kind)


def load_map_spec(path) -> MapSpec:
    return parse_map_spec(read_json(path), base_dir=os.path.dirname(os.path.abspath(path)))


def _describe(spec: MapSpec) -> str:
    if spec.kind == "conjugation":
        return f"conjugation(antiunitary={spec.antiunitary})"
    if spec.kind == "noisy":
        return f"noisy(sigma={spec.sigma}, seed={spec.seed}, base={_describe(spec.base)})"
    if spec.kind == "compose":
        return "compose[" + ", ".join(_describe(p) for p in spec.parts) + "]"
    return spec.kind


def _noisy(base, sigma: float, salt: bytes, field: str, s: np.ndarray) -> np.ndarray:
    """``U base(S) U*`` for each matrix S of the stack s, a block of
    ``RankNMap._outputs``.  U is drawn from a generator of S's own, seeded
    from a hash of S's ``canonical_keys`` and the salt (the seed's 8 bytes),
    so the map stays deterministic per input while different inputs get
    independent kicks.  U is the Cayley transform ``(I - A/2)^-1 (I + A/2)``
    of a skew-Hermitian generator A of size sigma, unitary for any such A
    and ``exp(A)`` up to O(sigma^3); in real mode A is skew-symmetric,
    keeping U real."""
    d, eye = s.shape[-1], np.eye(s.shape[-1])
    seeds = [int.from_bytes(hashlib.blake2b(key + salt, digest_size=8).digest(), "little") for key in canonical_keys(s)]
    g = np.stack([np.random.default_rng(x).standard_normal((1 if field == REAL else 2, d, d)) for x in seeds])
    if field == REAL:
        generator = sigma * (g[:, 0] - g[:, 0].swapaxes(-1, -2)) / 2.0
    else:
        h = g[:, 0] + 1j * g[:, 1]
        generator = 1j * sigma * (h + h.conj().swapaxes(-1, -2)) / 2.0
    u = np.asarray(np.linalg.solve(eye - generator / 2.0, eye + generator / 2.0), dtype=np.complex128)
    return u @ base(s) @ u.conj().swapaxes(-1, -2)


def _stack_fn(spec: MapSpec, d: int, n: int, field: str, tol: ToleranceConfig):
    """The map a spec describes, on a ``(c, d, d)`` stack of raw matrices:
    every kind sends a rank-n projection to one by construction, so nothing
    is validated in between."""
    if spec.kind == "identity":
        return lambda s: s
    if spec.kind == "complement":
        if d != 2 * n:
            raise BadRank(f"complement maps rank n to rank d - n; need d = 2n, got d={d}, n={n}")
        eye = np.eye(d, dtype=np.complex128)
        return lambda s: eye - s
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
        vh, tau = v.conj().T, (np.conj if spec.antiunitary else np.asarray)
        return lambda s: v @ tau(s) @ vh
    if spec.kind == "noisy":
        base = _stack_fn(spec.base, d, n, field, tol)
        if spec.sigma == 0.0:
            return base
        return functools.partial(_noisy, base, spec.sigma, spec.seed.to_bytes(8, "little", signed=True), field)
    stages = [_stack_fn(part, d, n, field, tol) for part in reversed(spec.parts)]  # compose
    return lambda s: functools.reduce(lambda x, stage: stage(x), stages, s)


def instantiate(spec: MapSpec, d: int, n: int, field: str = COMPLEX, tol: ToleranceConfig = DEFAULT_TOL) -> RankNMap:
    """Build the RankNMap a spec describes, checked against (d, n, field) by
    ``RankNMap`` first: ``_outputs`` calls the spec's stack function, which
    raises no per-input error, once per block of each query stack."""
    phi = RankNMap(d, n, None, descriptor=_describe(spec), field=field, tol=tol)
    phi._stack = _stack_fn(spec, phi.ambient_dim, phi.rank, phi.field, tol)
    return phi
