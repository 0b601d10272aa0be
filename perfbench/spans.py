"""Span tracing of grasswig's layers, installed from outside the package.

Each traced function is replaced, for the length of a traced round, by a
wrapper on every name its callers look up: every binding of the same
function object in the loaded ``grasswig`` modules (``grasswig.extend_to_rank1``,
``grasswig.reconstruction.extend_to_rank1``, ...), or the attribute on the
class for methods.  A function a later version no longer has is reported as
an absent layer instead of failing the run.

Spans live in memory as a stack of open frames; closing a frame adds its
duration to its group's totals and to its parent's child time, so a
group's self time is its duration minus the spans it directly contains.
"""

from __future__ import annotations

import os
import sys
import time
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Spec:
    """One traced function: ``attr`` may be ``Class.method``."""

    group: str
    module: str
    attr: str
    outermost: bool = False  # nested calls of the same group open no span
    marks: bool = False  # a nested call marks the enclosing frame instead
    only: tuple[str, ...] = ()  # restrict to bindings in these modules
    io: bool = False  # first argument is a file path; count its bytes


SPECS = (
    Spec("reconstruct", "grasswig.reconstruction", "reconstruct", outermost=True),
    Spec("reconstruct", "grasswig.reconstruction", "reconstruct_via_dual", outermost=True),
    Spec("screen", "grasswig.reconstruction", "screen_preservation"),
    Spec("extend", "grasswig.extension", "extend_to_rank1"),
    Spec("verify", "grasswig.reconstruction", "verify_conjugation", outermost=True),
    Spec("verify", "grasswig.reconstruction", "_verify_complement_form", outermost=True),
    Spec("evaluate", "grasswig.extension", "RankNMap.evaluate"),
    Spec("key", "grasswig.extension", "canonical_key", only=("grasswig.extension",)),
    Spec("validate", "grasswig.projections", "Projection.__post_init__", outermost=True),
    Spec("validate", "grasswig.projections", "projection_rank", outermost=True),
    Spec("sample", "grasswig.projections", "sample_projection"),
    Spec("eigh", "grasswig.linalg", "hermitian_eig"),
    Spec("angles", "grasswig.angles", "principal_angles", outermost=True),
    Spec("angles", "grasswig.angles", "principal_angles_svd", outermost=True, marks=True),
    Spec("angles", "grasswig.angles", "principal_angles_spectral", outermost=True),
    Spec("io", "grasswig.matio", "save_matrix", outermost=True, io=True),
    Spec("io", "grasswig.matio", "load_matrix", outermost=True, io=True),
    Spec("io", "grasswig.matio", "save_projection", outermost=True, io=True),
    Spec("io", "grasswig.matio", "load_projection", outermost=True, io=True),
    Spec("io", "grasswig.maps", "load_map_spec", outermost=True, io=True),
    Spec("cli", "grasswig.cli", "main"),
)

# Oracle spans come from the benchmark's own oracles and from the maps the
# CLI builds through grasswig.maps.  The maps grasswig.reconstruction builds
# around another map (the dual, the complement-flipped map) open no span,
# but a request that reaches their callable is still a cache miss.
ORACLE_GROUP = "oracle"
MAP_BINDINGS = (("grasswig.maps", "RankNMap", True), ("grasswig.reconstruction", "RankNMap", False))
STAGES = ("screen", "extend", "verify")
FALLBACK_ATTR = "principal_angles"  # calls that may enter the SVD route
GROUPS = tuple(dict.fromkeys(s.group for s in SPECS)) + (ORACLE_GROUP,)


@dataclass
class Totals:
    calls: int = 0
    time_s: float = 0.0
    self_s: float = 0.0
    misses: int = 0  # evaluate: requests that reached the oracle
    stage_s: float = 0.0  # reconstruct: time in screen/extend/verify spans
    fallback_calls: int = 0  # angles: principal_angles calls
    marked: int = 0  # angles: principal_angles calls that entered the SVD route
    bytes: int = 0  # io: file bytes read or written


@dataclass
class _Frame:
    group: str
    attr: str
    child_s: float = 0.0
    stage_s: float = 0.0
    miss: bool = False
    marked: bool = False


@dataclass
class Tracer:
    totals: dict[str, Totals] = field(default_factory=lambda: {g: Totals() for g in GROUPS})
    absent: list[str] = field(default_factory=list)
    _stack: list[_Frame] = field(default_factory=list)
    _open: dict[str, _Frame] = field(default_factory=dict)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def _mark_miss(self) -> None:
        if self._stack and self._stack[-1].group == "evaluate":
            self._stack[-1].miss = True

    def call(self, group: str, attr: str, fn, args, kwargs, *, outermost=False, marks=False, io=False):
        stack = self._stack
        if group == ORACLE_GROUP:
            self._mark_miss()
        outer = self._open.get(group)
        if outermost and outer is not None:
            if marks:
                outer.marked = True
            return fn(*args, **kwargs)
        frame = _Frame(group, attr)
        stack.append(frame)
        if outer is None:
            self._open[group] = frame
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            duration = time.perf_counter() - start
            stack.pop()
            if outer is None:
                del self._open[group]
            self._close(frame, duration, args if io else None)

    def _close(self, frame: _Frame, duration: float, io_args) -> None:
        t = self.totals[frame.group]
        t.calls += 1
        t.time_s += duration
        t.self_s += duration - frame.child_s
        t.misses += frame.miss
        t.stage_s += frame.stage_s
        if frame.attr == FALLBACK_ATTR:
            t.fallback_calls += 1
            t.marked += frame.marked
        if io_args:
            try:
                t.bytes += os.path.getsize(io_args[0])
            except (OSError, TypeError):
                pass
        if self._stack:
            self._stack[-1].child_s += duration
        if frame.group in STAGES:
            owner = self._open.get("reconstruct")
            if owner is not None:
                owner.stage_s += duration

    def oracle(self, fn):
        """Wrap an oracle callable so each call opens an oracle span."""

        def traced(*args, **kwargs):
            return self.call(ORACLE_GROUP, "oracle", fn, args, kwargs, outermost=True)

        return traced

    def inner_map(self, fn):
        """Wrap the callable of a map built around another map."""

        def traced(*args, **kwargs):
            self._mark_miss()
            return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        present: dict[str, bool] = {}
        for spec in SPECS:
            present[spec.group] = self._install(spec) or present.get(spec.group, False)
        present[ORACLE_GROUP] = True
        for module_name, attr, is_oracle in MAP_BINDINGS:
            self._install_map(module_name, attr, self.oracle if is_oracle else self.inner_map)
        self.absent = sorted(g for g, ok in present.items() if not ok)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, wrapper) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _wrapper(self, spec: Spec, fn):
        def traced(*args, **kwargs):
            return self.call(
                spec.group, spec.attr.rsplit(".", 1)[-1], fn, args, kwargs,
                outermost=spec.outermost, marks=spec.marks, io=spec.io,
            )

        traced.__wrapped__ = fn
        return traced

    def _install(self, spec: Spec) -> bool:
        home = sys.modules.get(spec.module)
        if home is None:
            return False
        if "." in spec.attr:
            cls_name, meth = spec.attr.split(".", 1)
            cls = getattr(home, cls_name, None)
            fn = cls.__dict__.get(meth) if isinstance(cls, type) else None
            if fn is None:
                return False
            self._patch(cls, meth, self._wrapper(spec, fn))
            return True
        fn = getattr(home, spec.attr, None)
        if fn is None:
            return False
        wrapper = self._wrapper(spec, fn)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "grasswig" or name.startswith("grasswig.")):
                continue
            if spec.only and name not in spec.only:
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._patch(module, attr, wrapper)
        return True

    def _install_map(self, module_name: str, attr: str, wrap) -> None:
        """Replace a RankNMap binding by a subclass that wraps the callable."""
        module = sys.modules.get(module_name)
        base = getattr(module, attr, None) if module is not None else None
        if not isinstance(base, type):
            return

        class TracedMap(base):  # type: ignore[misc, valid-type]
            def __init__(self, *args, **kwargs):
                if len(args) >= 3:
                    args = args[:2] + (wrap(args[2]),) + args[3:]
                elif "fn" in kwargs:
                    kwargs["fn"] = wrap(kwargs["fn"])
                super().__init__(*args, **kwargs)

        self._patch(module, attr, TracedMap)
