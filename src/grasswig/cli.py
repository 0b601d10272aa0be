"""Command-line surface.

Subcommands: ``angles``, ``check``, ``reconstruct``, ``demo-exceptional``,
``gen``.  Exit codes: 0 success / affirmative, 1 negative finding (not
preserving, not classified), 2 usage or input error, 3 numerical failure.
Every command is deterministic given its full argument list (seeds
included).  The ``GW_TOL`` environment variable overrides the default
entrywise comparison tolerance.

``main`` builds its parser once per process, on its first call, so a
program calling it repeatedly pays argparse's construction once (a shell
user pays it once either way); ``build_parser`` returns a fresh one.
``GW_TOL`` and the output streams are read on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .angles import principal_angles, principal_angles_svd
from .errors import (
    ConvergenceFailure,
    GrasswigError,
    InternalInconsistency,
    MatrixFormatError,
)
from .extension import extend_to_rank1
from .linalg import COMPLEX, FIELDS, haar_random_unitary, random_subspace
from .matio import load_matrix, load_projection, save_matrix, save_projection
from .maps import MapSpec, instantiate, load_map_spec
from .projections import Subspace, random_projection
from .reconstruction import (
    ReconstructionConfig,
    VARIANT_NOT_PRESERVING,
    reconstruct,
    screen_preservation,
)
from .tolerances import DEFAULT_TOL, ToleranceConfig

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3


def _tolerances() -> ToleranceConfig:
    raw = os.environ.get("GW_TOL")
    if raw is None:
        return DEFAULT_TOL
    try:
        return ToleranceConfig(eq_tol=float(raw))
    except ValueError as exc:
        raise MatrixFormatError(f"GW_TOL={raw!r} is not a usable tolerance: {exc}") from exc


def _load_pair(args, tol: ToleranceConfig):
    if args.bases:
        mp, _ = load_matrix(args.p)
        mq, _ = load_matrix(args.q)
        return Subspace(mp, tol=tol), Subspace(mq, tol=tol)
    p, _ = load_projection(args.p, tol)
    q, _ = load_projection(args.q, tol)
    return p, q


def cmd_angles(args, tol: ToleranceConfig) -> int:
    p, q = _load_pair(args, tol)
    if args.bases:
        result = principal_angles_svd(p, q, tol)
    else:
        result = principal_angles(p, q, tol)
    if args.json:
        payload = {
            "angles_radians": [float(a) for a in result.angles],
            "cos2_spectrum": [float(c) for c in result.cos2_spectrum],
        }
        print(json.dumps(payload))
    else:
        for i, (rad, deg) in enumerate(zip(result.angles, result.degrees)):
            print(f"angle[{i}]: {rad:.12f} rad = {deg:.8f} deg")
        print("cos^2 spectrum:", " ".join(f"{c:.12f}" for c in result.cos2_spectrum))
    return EXIT_OK


def _write_witness(directory: str, found) -> dict[str, str]:
    """Save the witness pair and its images carried by a screen report or a
    reconstruction result as ``witness_<name>.json`` files; returns the
    path of each, keyed p, q, phi_p, phi_q."""
    os.makedirs(directory, exist_ok=True)
    paths = {}
    for name in ("p", "q", "phi_p", "phi_q"):
        path = os.path.join(directory, f"witness_{name}.json")
        save_projection(path, getattr(found, f"witness_{name}"))
        paths[name] = path
    return paths


def cmd_check(args, tol: ToleranceConfig) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise ValueError(f"--tol must be positive and finite, got {args.tol}")
    spec = load_map_spec(args.map)
    phi = instantiate(spec, args.dim, args.rank, args.field, tol)
    report = screen_preservation(phi, args.samples, args.seed, tol)
    print(f"max discrepancy over {args.samples} pairs: {report.max_discrepancy:.6e}")
    if report.max_discrepancy <= args.tol:
        print(f"angle preservation holds at tolerance {args.tol:.1e}")
        return EXIT_OK
    witness = _write_witness(args.witness_dir, report)
    print(f"NOT angle preserving at tolerance {args.tol:.1e}; witness files:")
    for name, path in witness.items():
        print(f"  {name}: {path}")
    return EXIT_NEGATIVE


def cmd_reconstruct(args, tol: ToleranceConfig) -> int:
    spec = load_map_spec(args.map)
    phi = instantiate(spec, args.dim, args.rank, args.field, tol)
    cfg = ReconstructionConfig(seed=args.seed)
    result = reconstruct(phi, cfg, tol)
    payload = result.to_obj()
    if result.variant == VARIANT_NOT_PRESERVING:
        payload["witness_files"] = _write_witness(args.witness_dir, result)
    text = json.dumps(payload, indent=2)
    print(text)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return EXIT_OK if result.accepted else EXIT_NEGATIVE


def cmd_demo_exceptional(args, tol: ToleranceConfig) -> int:
    n = args.n
    d = 2 * n
    phi = instantiate(MapSpec("complement"), d, n, COMPLEX, tol)
    print(f"complement map P -> I - P on rank-{n} projections in dimension {d}")
    print()
    report = screen_preservation(phi, args.samples, args.seed, tol)
    print(f"(a) angle preservation: max discrepancy {report.max_discrepancy:.3e} "
          f"over {args.samples} random pairs")
    print()
    e1 = np.zeros(d, dtype=np.complex128)
    e1[0] = 1.0
    image = extend_to_rank1(phi, e1, tol)
    eigenvalues = np.linalg.eigvalsh(image)
    print("(b) extension image of the dyad e1 e1*:")
    with np.printoptions(precision=6, suppress=True):
        print(np.array2string(image.real if np.all(image.imag == 0) else image))
    print(f"    eigenvalues: {np.array2string(eigenvalues, precision=6)}")
    print(f"    minimum eigenvalue {eigenvalues[0]:+.6f} (expected -(n-1)/n = {-(n - 1) / n:+.6f});")
    print("    a negative eigenvalue means this image is not a projection, so no")
    print("    conjugation by an isometry can induce the map.")
    print()
    result = reconstruct(phi, ReconstructionConfig(seed=args.seed), tol)
    print(f"(c) classification: {result.variant} (residual {result.residual:.3e})")
    return EXIT_OK


def cmd_gen(args, tol: ToleranceConfig) -> int:
    if (args.rank is None) != (args.what == "unitary"):  # a unitary is dim x dim
        raise ValueError(f"--rank {'is required for' if args.rank is None else 'does not apply to'} {args.what} generation")
    if args.what == "unitary":
        save_matrix(args.out, haar_random_unitary(args.dim, args.seed, args.field), args.field)
    elif args.what == "subspace":
        save_matrix(args.out, random_subspace(args.dim, args.rank, args.seed, args.field), args.field)
    else:
        p = random_projection(args.dim, args.rank, args.seed, args.field, tol)
        save_projection(args.out, p, args.field)
    print(args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="grasswig",
        description="Principal angles between equal-rank subspaces and "
        "reconstruction of angle-preserving transformations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_angles = sub.add_parser("angles", help="principal angles between two projections")
    p_angles.add_argument("--p", required=True, help="first projection (or basis) JSON file")
    p_angles.add_argument("--q", required=True, help="second projection (or basis) JSON file")
    p_angles.add_argument("--bases", action="store_true", help="inputs are orthonormal basis matrices")
    p_angles.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p_angles.set_defaults(func=cmd_angles)

    p_check = sub.add_parser("check", help="screen a map for angle preservation")
    p_check.add_argument("--map", required=True, help="map spec JSON file")
    p_check.add_argument("--dim", type=int, required=True)
    p_check.add_argument("--rank", type=int, required=True)
    p_check.add_argument("--samples", type=int, default=50)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--tol", type=float, default=1e-7, help="max allowed discrepancy")
    p_check.add_argument("--field", choices=FIELDS, default=COMPLEX)
    p_check.add_argument("--witness-dir", default=".", help="where witness files go")
    p_check.set_defaults(func=cmd_check)

    p_rec = sub.add_parser("reconstruct", help="recover the inducing isometry of a map")
    p_rec.add_argument("--map", required=True, help="map spec JSON file")
    p_rec.add_argument("--dim", type=int, required=True)
    p_rec.add_argument("--rank", type=int, required=True)
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--out", help="also write the result JSON here")
    p_rec.add_argument("--field", choices=FIELDS, default=COMPLEX)
    p_rec.add_argument("--witness-dir", default=".", help="where witness files go")
    p_rec.set_defaults(func=cmd_reconstruct)

    p_demo = sub.add_parser("demo-exceptional", help="walk through the d = 2n complement map")
    p_demo.add_argument("--n", type=int, required=True, help="rank (>= 2)")
    p_demo.add_argument("--samples", type=int, default=50)
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=cmd_demo_exceptional)

    p_gen = sub.add_parser("gen", help="generate a seeded random object as JSON")
    p_gen.add_argument("--what", choices=("unitary", "subspace", "projection"), required=True)
    p_gen.add_argument("--dim", type=int, required=True)
    p_gen.add_argument("--rank", type=int)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--field", choices=FIELDS, default=COMPLEX)
    p_gen.set_defaults(func=cmd_gen)

    return parser


_parser = functools.cache(build_parser)  # built by the first ``main`` call


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "demo-exceptional" and args.n < 2:
        parser.error("--n must be at least 2: at n = 1 the complement map is an ordinary conjugation")
    if getattr(args, "dim", None) is not None and args.dim < 1:
        parser.error("--dim must be positive")
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError(f"--seed must be an integer >= 0, got {args.seed}")
        if getattr(args, "samples", 1) < 1:
            raise ValueError(f"--samples must be at least 1, got {args.samples}")
        tol = _tolerances()
        return args.func(args, tol)
    except (ConvergenceFailure, InternalInconsistency) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (GrasswigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
