"""Closed-loop benchmark of grasswig.

    python3 perfbench/run.py --workload grid-small --seed 1 --seconds 27 --trace 0

One caller runs the workload's operations back to back, each starting when
the previous one returns, in whole rounds (see ``workloads.py``) until the
next round would overrun ``--seconds``.  Every output is checked against
its planted truth.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics of the traced ones plus the tracing overhead.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The package is imported
from ``src/`` next to this directory; without it the run exits with code 2.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # fixed, and never more than nproc
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
WALL_CAP = 1.2  # a run on a slow host stops at this multiple of --seconds
# evaluate requests per reconstruct measured on the released code (ROADMAP item 1)
BASELINE_REQUESTS = {"d8-n4-complex": 200, "d64-n8-complex": 1800}

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "oracle_calls_per_op": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (name prefix, span group, time field, count fields).
# Times are reported per traced operation and as a share of the traced
# operations' summed latency; counts per traced operation.
LAYERS = (
    ("reconstruction.screen", "screen", "time_s", ("calls",)),
    ("reconstruction.extend", "extend", "time_s", ("calls",)),
    ("reconstruction.verify", "verify", "time_s", ()),
    ("reconstruction", "reconstruct", "time_s", ()),
    ("reconstruction", "reconstruct", "self_s", ()),
    ("extension.evaluate", "evaluate", "self_s", ("requests",)),
    ("extension.cache", "key", "key_s", ()),
    ("maps.oracle", "oracle", "time_s", ("calls",)),
    ("projections.validate", "validate", "time_s", ("calls",)),
    ("linalg.sample", "sample", "time_s", ("calls",)),
    ("linalg.eigh", "eigh", "time_s", ("calls",)),
    ("angles.principal", "angles", "time_s", ()),
    ("matio.io", "io", "time_s", ("bytes",)),
    ("cli", "cli", "time_s", ()),
)


class SpeedGauge:
    """Machine-speed factor from a calibration loop that never calls grasswig.

    On a shared host the same code runs up to 1.7x slower for seconds at a
    time, far more than the changes this benchmark must resolve.  A short
    loop of small dense linear algebra and interpreter work, whose speed
    tracks grasswig's across those phases, runs between operations, at
    most every INTERVAL_S, and once more per SPAN_S of operation time
    since its last run (up to MAX_REPEATS), so that a long operation is
    bracketed by as steady a reading as a short one.  A reading is the
    median loop time of one such burst.  The operations between two
    readings are timed at ``(NOMINAL_S / mean(the two readings)) ** exponent``,
    where the workload's exponent says how strongly its time follows the
    loop's: every reported time is expressed at the speed where the loop
    takes NOMINAL_S.
    """

    NOMINAL_S = 0.0022
    INTERVAL_S = 0.02
    SPAN_S = 0.05
    MAX_REPEATS = 9
    ITERATIONS = 60
    WARMUP = 10

    def __init__(self, exponent: float) -> None:
        import numpy as np

        self.exponent = exponent
        rng = np.random.default_rng(0)
        self._np = np
        self._a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        self._h = self._a + self._a.conj().T
        self._end = 0.0
        self._reading = self._read(self.MAX_REPEATS)

    def _loop(self) -> float:
        np, a, h = self._np, self._a, self._h
        start = 0.0
        for i in range(self.WARMUP + self.ITERATIONS):
            if i == self.WARMUP:  # time only once the loop's code and data are cached
                start = time.perf_counter()
            q, r = np.linalg.qr(a)
            np.linalg.eigvalsh(h)
            float(np.linalg.norm(q @ r - a))
            sum(range(50))
        self._end = time.perf_counter()
        return self._end - start

    def _read(self, repeats: int) -> float:
        return statistics.median(self._loop() for _ in range(repeats))

    def due(self) -> bool:
        return time.perf_counter() - self._end >= self.INTERVAL_S

    def bracket(self, busy_s: float = 0.0) -> float:
        """Take a new reading; the factor for ``busy_s`` of work since the last one."""
        repeats = min(self.MAX_REPEATS, 1 + int(busy_s / self.SPAN_S))
        previous, self._reading = self._reading, self._read(repeats)
        return (2.0 * self.NOMINAL_S / (previous + self._reading)) ** self.exponent


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_library() -> float:
    """Import grasswig from the checkout's ``src/``; exit 2 when it is missing."""
    src = ROOT / "src"
    if not (src / "grasswig" / "__init__.py").is_file():
        print(f"error: no grasswig package under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import workloads  # noqa: F401  (imports grasswig and grasswig.cli)

    return time.perf_counter() - start


def environment(args) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  The plain sample median of a few dozen operations
    drawn from configurations of very different cost jumps between the
    configurations next to the middle; this estimate moves smoothly."""
    import numpy as np
    from scipy.special import betainc

    xs = np.sort(np.asarray(values, dtype=np.float64))
    n = xs.size
    edges = betainc((n + 1) * p, (n + 1) * (1 - p), np.arange(n + 1) / n)
    return float(np.diff(edges) @ xs)


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile, up to p99, with at least TAIL_BEYOND of the
    samples beyond it, and the latency there.  Above p99 the rarest samples
    of a long run time the host's preemptions rather than grasswig."""
    n = len(latencies)
    if n <= 2 * TAIL_BEYOND:
        return 50.0, quantile(latencies, 0.5)
    p = (n - max(TAIL_BEYOND, n // 100)) / n
    return 100.0 * p, quantile(latencies, p)


class Runner:
    """Runs whole rounds of one workload and keeps the per-op records."""

    def __init__(self, ctx, tracer, gauge: SpeedGauge):
        self.ctx = ctx
        self.tracer = tracer
        self.gauge = gauge
        # traced -> [[config, raw latency s, speed factor, oracle counted]]
        self.records: dict[bool, list[list]] = {False: [], True: []}
        self.failures: list[str] = []
        self.requests_by_config: dict[str, set[int]] = {}
        self.oracle_calls = 0

    def run_round(self, ops, traced: bool) -> float:
        """Run one round; returns its mean speed factor."""
        meter, tracer, gauge = self.ctx.meter, self.tracer, self.gauge
        records = self.records[traced]
        if traced:
            tracer.install()
            meter.tracer = tracer
        pending: list[list] = []  # records timed since the gauge last ran
        gauge.bracket(gauge.MAX_REPEATS * gauge.SPAN_S)
        try:
            for op in ops:
                calls0 = meter.calls
                requests0 = tracer.totals["evaluate"].calls
                start = time.perf_counter()
                try:
                    result = op.run()
                    latency = time.perf_counter() - start
                    error = None
                except Exception as exc:  # any exception fails the operation
                    latency = time.perf_counter() - start
                    error = f"{type(exc).__name__}: {exc}"
                record = [op.config, latency, None, op.counted]
                records.append(record)
                pending.append(record)
                if gauge.due():
                    self._settle(pending)
                if error is None:
                    try:
                        error = op.check(result)
                    except Exception as exc:
                        error = f"check raised {type(exc).__name__}: {exc}"
                if error is not None:
                    self.failures.append(f"{op.config}: {error}")
                if traced:
                    requests = tracer.totals["evaluate"].calls - requests0
                    self.requests_by_config.setdefault(op.config, set()).add(requests)
                elif op.counted:
                    self.oracle_calls += meter.calls - calls0
        finally:
            meter.tracer = None
            if traced:
                tracer.uninstall()
            if pending:
                self._settle(pending)
        return statistics.mean(rec[2] for rec in records[len(records) - len(ops):])

    def _settle(self, pending: list[list]) -> None:
        factor = self.gauge.bracket(sum(record[1] for record in pending))
        for record in pending:
            record[2] = factor
        pending.clear()


def scaled(records) -> list[float]:
    return [lat * factor for _, lat, factor, _ in records]


def per_layer(tracer, traced, untraced) -> dict[str, tuple[float, str]]:
    n_ops = len(traced)
    raw_wall = sum(lat for _, lat, _, _ in traced)
    wall = sum(scaled(traced))
    speed = wall / raw_wall  # spans are raw times; per-op values use the scaled clock
    t = tracer.totals
    out: dict[str, tuple[float, str]] = {}
    for prefix, group, field, counts in LAYERS:
        g = t[group]
        for count in counts:
            value = g.bytes if count == "bytes" else g.calls
            out[f"{prefix}.{count}.per_op"] = (value / n_ops, "bytes/op" if count == "bytes" else "count/op")
        if group == "reconstruct" and field == "self_s":
            seconds = g.time_s - g.stage_s
        elif field == "self_s":
            seconds = g.self_s
        else:
            seconds = g.time_s
        out[f"{prefix}.{field}.per_op"] = (seconds * speed / n_ops, "s/op")
        out[f"{prefix}.{field}.share"] = (seconds / raw_wall, "fraction")
    ev, ang = t["evaluate"], t["angles"]
    out["extension.cache.hit_ratio"] = (1.0 - ev.misses / ev.calls if ev.calls else 0.0, "ratio")
    out["angles.svd_fallback_ratio"] = (ang.marked / ang.fallback_calls if ang.fallback_calls else 0.0, "ratio")
    untraced_per_op = sum(scaled(untraced)) / len(untraced)
    out["trace.overhead_ratio"] = ((wall / n_ops) / untraced_per_op - 1.0, "ratio")
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_library()
    import workloads
    from spans import Tracer

    make_round = workloads.WORKLOADS.get(args.workload)
    if make_round is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    env = environment(args)
    gauge = SpeedGauge(workloads.SPEED_EXPONENT[args.workload])
    tracer = Tracer()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmpdir:
        ctx = workloads.Context(workloads.OracleMeter(), tmpdir)
        runner = Runner(ctx, tracer, gauge)

        setup_samples, rounds = [], []
        for r in range(SETUP_REPEATS):
            gauge.bracket()
            start = time.perf_counter()
            rounds.append(make_round(args.seed, r, ctx))
            elapsed = time.perf_counter() - start
            setup_samples.append(elapsed * gauge.bracket(elapsed))

        gc.collect()
        gc.freeze()  # later collections skip the long-lived objects made so far
        loop_start = time.perf_counter()
        # Rounds are counted on the scaled clock, so a slow phase of the host
        # does not change how many rounds (and which mix) a run measures.
        raw_walls: list[float] = []
        scaled_walls: list[float] = []
        r = 0
        while True:
            traced = bool(args.trace) and r % 2 == 1
            start = time.perf_counter()
            ops = rounds[r] if r < len(rounds) else make_round(args.seed, r, ctx)
            speed = runner.run_round(ops, traced)
            raw_walls.append(time.perf_counter() - start)
            scaled_walls.append(raw_walls[-1] * speed)
            r += 1
            if r < 1 + args.trace:
                continue
            if (sum(scaled_walls) + statistics.mean(scaled_walls) > args.seconds
                    or sum(raw_walls) + statistics.mean(raw_walls) > WALL_CAP * args.seconds):
                break
        measured_s = time.perf_counter() - loop_start

    untraced, traced = runner.records[False], runner.records[True]
    attempted = len(untraced) + len(traced)
    failed = len(runner.failures)
    latencies = scaled(untraced)
    raw_latencies = [lat for _, lat, _, _ in untraced]
    counted_ops = sum(1 for *_, counted in untraced if counted)
    tail_pct, tail_s = tail(latencies)

    e2e = {
        "ops_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1e3 * quantile(latencies, 0.5),
        "latency_tail_ms": 1e3 * tail_s,
        "oracle_calls_per_op": runner.oracle_calls / counted_ops if counted_ops else 0.0,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    report = {
        "env": env,
        "rounds": r,
        "ops_untraced": len(untraced),
        "ops_traced": len(traced),
        "ops_failed_ratio": failed / attempted,
        "failures": runner.failures[:20],
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(latencies),
        "unscaled": {
            "ops_per_s": len(raw_latencies) / sum(raw_latencies),
            "latency_p50_ms": 1e3 * quantile(raw_latencies, 0.5),
            "latency_tail_ms": 1e3 * tail(raw_latencies)[1],
        },
        "speed_factor_median": statistics.median(f for _, _, f, _ in untraced),
        "oracle_calls": runner.oracle_calls,
        "oracle_counted_ops": counted_ops,
        "import_s": import_s,
        "setup_samples_s": setup_samples,
        "measured_s": measured_s,
    }
    tiny_wrong_ratio = 0.0
    if args.workload == "angles":
        wrong, total, by_decade = workloads.tiny_angle_probe(args.seed)
        tiny_wrong_ratio = wrong / total
        report["tiny_angle_probe"] = {"wrong": wrong, "total": total, "wrong_by_decade": by_decade}

    if args.trace:
        layers = per_layer(tracer, traced, untraced)
        totals = tracer.totals
        report["absent_layers"] = tracer.absent
        report["reconstruct_accounting_s"] = {
            "reconstruct": totals["reconstruct"].time_s,
            "screen+extend+verify+self": sum(totals[g].time_s for g in ("screen", "extend", "verify"))
            + totals["reconstruct"].time_s - totals["reconstruct"].stage_s,
        }
        by_config = {k: sorted(v) for k, v in runner.requests_by_config.items()}
        report["evaluate_requests_by_config"] = by_config
        report["baseline_requests"] = {
            k: {"baseline": v, "observed": by_config[k]} for k, v in BASELINE_REQUESTS.items() if k in by_config
        }
        layers["angles.tiny_wrong_ratio"] = (tiny_wrong_ratio, "ratio")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in layers.items()}
    else:
        metrics = {name: {"value": v, "unit": END_TO_END_UNITS[name]} for name, v in e2e.items()}

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  rounds {r}  "
          f"measured {measured_s:.2f} s  ops {attempted}  failed {failed} "
          f"(ops_failed_ratio {failed / attempted:g})")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
