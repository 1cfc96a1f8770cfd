"""Command-line entry point.

Exit codes are the contract: 0 success, 1 usage error, 2 whenever a
checked inequality fails, so CI pipelines can gate on the mathematics.
Every subcommand prints one JSON envelope (schema_version, manifest,
report) to stdout and optionally writes it to --out.
"""

from __future__ import annotations

import os

# numpy's bundled OpenBLAS starts a busy-waiting thread per spare core as it
# loads, which costs a short run more CPU than its mathematics; the package's
# one BLAS call, a small matrix-vector product in the Bernoulli bound, does
# not need them. Set before the first numpy import, here and not in library
# modules, so a program importing those keeps its own policy; an explicit
# OPENBLAS_NUM_THREADS still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import dataclasses
import gc
import math
import sys

import numpy as np

from . import __version__, brownian, report
from ._rng import derive_seed, level_stream
from .symbolic import Alphabet
from .transfer import (build_potential, lambda_overflow, pathwise_bounds,
                       power_iterate, ratio_representation)

_USAGE_EXIT = 1
_VIOLATION_EXIT = 2
# the worker count's fallback; only the CLI reads it, and a library call
# runs with the workers it is given
WORKERS_ENV = "RUELLE_RAND_WORKERS"


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; this tool reserves 2 for bound
    # violations, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(_USAGE_EXIT)


def _emit(args, rep: dict, *files, ok=True, wall_time=None) -> int:
    """Write the envelope to --out, then stdout; 0 if ok, else 2. The
    manifest lists the files the run wrote, then --out."""
    outputs = [p for p in (*files, args.out) if p]
    manifest = report.build_manifest(args.subcommand, _config_dict(args),
                                     __version__, outputs)
    if wall_time is not None:
        manifest["wall_time"] = wall_time
    text = report.dumps_envelope(manifest, rep)
    # every file before stdout, so that a run that cannot write one exits 1
    # with nothing on stdout
    if args.out:
        with report.open_output(args.out) as fh:
            fh.write(text)
    sys.stdout.write(text)
    return 0 if ok else _VIOLATION_EXIT


def _all_failed() -> int:
    sys.stderr.write("error: all replicas failed to converge\n")
    return _VIOLATION_EXIT


def _config_dict(args) -> dict:
    return {k: v for k, v in sorted(vars(args).items())
            if not (k == "subcommand" or callable(v))}


def resolve_workers(workers: int | None = None) -> int:
    """Explicit argument, else the RUELLE_RAND_WORKERS env var, else 1."""
    if workers is None:
        env = os.environ.get(WORKERS_ENV, "").strip()
        try:
            workers = int(env) if env else 1
        except ValueError:
            raise ValueError(f"{WORKERS_ENV}={env!r} is not an integer "
                             f"worker count") from None
    if workers < 1:
        raise ValueError("workers must be >= 1")
    return workers


def _replica_config(args, level: int):
    from . import montecarlo

    return montecarlo.ReplicaConfig(
        level=level, alphabet=Alphabet(args.alphabet), beta=args.beta,
        master_seed=args.seed, replicas=args.replicas)


def _resolved_beta(args) -> float:
    # --zero-noise makes the potential vanish; an explicit --beta is inert
    if getattr(args, "zero_noise", False) and args.beta is not None:
        sys.stderr.write("warning: --beta has no effect with --zero-noise\n")
    return 1.0 if args.beta is None else args.beta


def _cmd_sample_path(args) -> int:
    grid = brownian.sample(args.level, Alphabet(args.alphabet), args.seed,
                           zero_noise=args.zero_noise)
    csv_path = args.csv
    if csv_path:
        n = grid.values.size - 1
        rows = ((k, k / n, float(v)) for k, v in enumerate(grid.values))
        report.write_csv(csv_path, ["k", "t", "value"], rows)
    rep = {
        "level": args.level,
        "alphabet": args.alphabet,
        "seed": args.seed,
        "zero_noise": bool(args.zero_noise),
        "b1": float(grid.values[-1]),
        "stats": dataclasses.asdict(brownian.stats(grid, args.gamma)),
    }
    return _emit(args, rep, csv_path)


def _words(m: int, n: int) -> np.ndarray:
    """The m^n depth-n words in index order as base-m digit strings (dtype
    S{n}, m <= 10), most significant letter first: one uint8 digit column
    per letter position, filled from the last."""
    k = np.arange(m**n)
    digits = np.empty((k.size, n), dtype=np.uint8)
    r = np.empty_like(k)
    for i in range(n - 1, -1, -1):
        np.remainder(k, m, out=r)
        digits[:, i] = r
        k //= m
    digits += ord("0")
    return digits.view(f"S{n}").ravel()


def _cmd_spectrum(args) -> int:
    beta = _resolved_beta(args)
    alphabet = Alphabet(args.alphabet)
    m, n = alphabet.m, args.level
    if args.emit_eigenfunction and m > 10:
        # refused before the solve: the word column has one digit per letter
        raise ValueError("digit serialization defined for m <= 10")
    # the grid is read for its maximum and phi, then let go before the solve
    grid = brownian.sample(n, alphabet, args.seed, zero_noise=args.zero_noise)
    m1 = float(np.max(grid.values))
    potential = build_potential(grid, beta)
    del grid
    res = power_iterate(potential)
    if math.isinf(res.eigenvalue):
        raise ValueError(lambda_overflow(res.log_eigenvalue))
    ratio = ratio_representation(potential, res)
    gap = abs(ratio - res.eigenvalue) / res.eigenvalue
    bounds = pathwise_bounds(potential, res, m1)
    if args.emit_eigenfunction:
        # row k: the depth-n word of index k in base-m digits, t = k / m^n
        rows = ((w.decode(), k / m**n, float(h))
                for k, (w, h) in enumerate(zip(_words(m, n), res.h.values)))
        report.write_csv(args.emit_eigenfunction, ["word", "t", "h"], rows)
    rep = {
        "lambda": res.eigenvalue,
        "log_lambda": res.log_eigenvalue,
        "iterations": res.iterations,
        "residual": res.residual,
        "cw_bracket": list(res.bracket),
        "converged": res.converged,
        "ratio_identity_gap": gap,
        "ratio_point": f"1/{m}^1",
        "pathwise_bounds": bounds,
    }
    ok = (res.converged and bounds["lower_ok"] and bounds["upper_ok"]
          and res.eigenvalue > 1.0)
    return _emit(args, rep, args.emit_eigenfunction, ok=ok)


def _cmd_isometry_check(args) -> int:
    from .skorokhod import StepFunction, sup_norm, theta, theta_inverse

    if args.trials < 1:
        raise ValueError("trials must be >= 1")
    alphabet = Alphabet(args.alphabet)
    m, n = alphabet.m, args.level
    brownian.check_cells(n, alphabet)
    worst = 0.0
    failures = 0
    for trial in range(args.trials):
        g = level_stream(derive_seed(args.seed, trial), 0)
        Fv, Gv = g.standard_normal((2, m**n))
        a, b = g.standard_normal(2)
        F = StepFunction(n, alphabet, Fv, float(Fv[-1]))
        G = StepFunction(n, alphabet, Gv, float(Gv[-1]))
        f = theta(F)
        worst = max(worst, abs(sup_norm(F) - sup_norm(f)))
        back = theta_inverse(f)
        if not (np.array_equal(back.right_values, F.right_values)
                and back.terminal_value == F.terminal_value):
            failures += 1
        combo = StepFunction(n, alphabet, a * Fv + b * Gv,
                             float(a * Fv[-1] + b * Gv[-1]))
        if not np.array_equal(theta(combo).values,
                              a * theta(F).values + b * theta(G).values):
            failures += 1
    rep = {
        "level": n,
        "alphabet": m,
        "trials": args.trials,
        "max_norm_discrepancy": worst,
        "roundtrip_failures": failures,
    }
    return _emit(args, rep, ok=worst == 0.0 and not failures)


def _cmd_pressure(args) -> int:
    # montecarlo and pressure load only for the replica subcommands
    from . import montecarlo, pressure

    config = _replica_config(args, args.level)
    if args.kmax < 1:
        raise ValueError("kmax must be >= 1")
    results = montecarlo.map_replicas(pressure.pressure_row, config,
                                      resolve_workers(args.workers))
    rep = pressure.quenched_report(results, config.alphabet, config.beta)
    if rep is None:
        return _all_failed()
    if args.emit_birkhoff:
        # the iterates of the first converged replica, rebuilt from its seed
        first = next(i for i, s in enumerate(results) if s is not None)
        _, _, potential = montecarlo.replica_potential(config, first)
        seq = pressure.birkhoff_pressure(potential, 0, args.kmax)
        rows = [(k + 1, float(v)) for k, v in enumerate(seq)]
        report.write_csv(args.emit_birkhoff, ["k", "value"], rows)
    ok = (rep["jensen_ok"] and rep["bounds_ok"] and rep["all_positive"]
          and rep["variational_violations"] == 0)
    return _emit(args, rep, args.emit_birkhoff, ok=ok)


def _cmd_montecarlo(args) -> int:
    from . import montecarlo

    rows, mc = montecarlo.run(_replica_config(args, args.level),
                              resolve_workers(args.workers))
    if mc is None:
        return _all_failed()
    if args.csv:
        report.write_csv(
            args.csv, ["seed", "lambda", "log_lambda", "M1", "B1"],
            [(r.seed, r.eigenvalue, r.log_eigenvalue, r.m1, r.b1) for r in rows])
    ok = mc.bounds_ok and mc.expectation_band_ok is not False
    return _emit(args, mc.to_dict(), args.csv, ok=ok, wall_time=mc.wall_time)


def _cmd_refine_study(args) -> int:
    try:
        levels = [int(x) for x in args.levels.split(",")]
    except ValueError:
        raise ValueError("--levels must be a comma-separated integer list") from None
    from . import montecarlo

    rep = montecarlo.refinement_study(_replica_config(args, levels[0]), levels,
                                      resolve_workers(args.workers))
    if rep is None:
        return _all_failed()
    return _emit(args, rep, ok=rep["n_failed"] == 0 and rep["decreasing"])


def _read_columns(path: str, wanted: list[str]) -> list[list[float]]:
    header, rows = report.read_csv(path)
    try:
        idx = [header.index(c) for c in wanted]
        cols = [[float(row[i]) for i in idx] for row in rows]
    except (ValueError, IndexError) as e:
        raise ValueError(f"malformed CSV {path}: {e}") from None
    if not cols:
        raise ValueError(f"malformed CSV {path}: no data rows")
    # report.write_csv never writes a non-finite cell
    for k, row in enumerate(cols, 1):
        if not all(map(math.isfinite, row)):
            raise ValueError(f"malformed CSV {path}: non-finite value in "
                             f"data row {k}")
    return [list(c) for c in zip(*cols)]


def _cmd_plot(args) -> int:
    from . import figures  # only plot loads it

    if args.kind == "path":
        t, v = _read_columns(args.input, ["t", "value"])
        svg = figures.path_svg(t, v)
        points = len(t)
    elif args.kind == "histogram":
        lams, m1s = _read_columns(args.input, ["lambda", "M1"])
        svg = figures.histogram_svg(lams, m1s)
        points = len(lams)
    else:
        k, v = _read_columns(args.input, ["k", "value"])
        svg = figures.birkhoff_svg(k, v)
        points = len(k)
    # the SVG is plot's --out, so it writes its own envelope to stdout only
    with report.open_output(args.out) as fh:
        fh.write(svg)
    rep = {"kind": args.kind, "input": args.input, "points": points}
    manifest = report.build_manifest("plot", _config_dict(args), __version__,
                                     [args.out])
    sys.stdout.write(report.dumps_envelope(manifest, rep))
    return 0


def _beta(text: str) -> float:
    # refused at parse time, before any path is sampled
    try:
        beta = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}") from None
    if not (math.isfinite(beta) and beta >= 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number >= 0, got {text!r}")
    return beta


def _add_common(p, *, beta_default=1.0, beta_sentinel=False):
    p.add_argument("--seed", type=int, default=0, help="master seed")
    p.add_argument("--alphabet", type=int, default=2, metavar="M",
                   help="alphabet size m (default 2)")
    p.add_argument("--out", metavar="FILE", help="also write the JSON report here")
    if beta_sentinel:
        p.add_argument("--beta", type=_beta, default=None,
                       help="potential scale (default 1)")
    elif beta_default is not None:
        p.add_argument("--beta", type=_beta, default=beta_default,
                       help="potential scale (default 1)")


def _add_workers(p):
    p.add_argument("--workers", type=int, default=None,
                   help="parallel workers (default $RUELLE_RAND_WORKERS or 1)")


def build_parser() -> _Parser:
    root = _Parser(prog="ruelle-rand",
                   description="Transfer-operator spectra, quenched pressure, "
                               "and Monte Carlo for Brownian random potentials "
                               "on full shift spaces.")
    root.add_argument("--version", action="version", version=__version__)
    sub = root.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    p = sub.add_parser("sample-path", help="simulate one Brownian grid path")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--zero-noise", action="store_true")
    p.add_argument("--gamma", type=float, default=brownian.HOLDER_GAMMA,
                   help="Holder exponent for stats "
                        f"(default {brownian.HOLDER_GAMMA})")
    p.add_argument("--csv", metavar="FILE", help="grid CSV (k, t, value)")
    _add_common(p, beta_default=None)
    p.set_defaults(func=_cmd_sample_path)

    p = sub.add_parser("spectrum", help="Perron eigendata for one sampled potential")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--zero-noise", action="store_true")
    p.add_argument("--emit-eigenfunction", metavar="FILE",
                   help="CSV of (word, t, h); needs --alphabet <= 10")
    _add_common(p, beta_sentinel=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("isometry-check",
                       help="step-function/cylinder correspondence checks")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--trials", type=int, default=1000)
    _add_common(p, beta_default=None)
    p.set_defaults(func=_cmd_isometry_check)

    p = sub.add_parser("pressure", help="quenched pressure over replicas")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--replicas", type=int, default=256)
    p.add_argument("--kmax", type=int, default=32,
                   help="Birkhoff depth of the --emit-birkhoff CSV (default 32)")
    p.add_argument("--emit-birkhoff", metavar="FILE",
                   help="CSV (k, value) of the first converged replica's "
                        "iterates")
    _add_workers(p)
    _add_common(p)
    p.set_defaults(func=_cmd_pressure)

    p = sub.add_parser("montecarlo", help="replica study of the eigenvalue law")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--replicas", type=int, default=1024)
    _add_workers(p)
    p.add_argument("--csv", metavar="FILE",
                   help="per-replica CSV (seed, lambda, log_lambda, M1, B1)")
    _add_common(p)
    p.set_defaults(func=_cmd_montecarlo)

    p = sub.add_parser("refine-study", help="eigenvalue drift across depths")
    p.add_argument("--levels", default="6,8,10,12",
                   help="comma-separated ascending levels")
    p.add_argument("--replicas", type=int, default=256)
    _add_workers(p)
    _add_common(p)
    p.set_defaults(func=_cmd_refine_study)

    p = sub.add_parser("plot", help="deterministic SVG from a sibling CSV")
    p.add_argument("--input", required=True, metavar="CSV")
    p.add_argument("--kind", required=True, choices=["path", "histogram", "birkhoff"])
    p.add_argument("--out", required=True, metavar="SVG")
    p.set_defaults(func=_cmd_plot)

    return root


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return _USAGE_EXIT
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, MemoryError) as e:
        sys.stderr.write(f"error: {e}\n")
        return _USAGE_EXIT


def main() -> None:
    # the import heap lives until exit; frozen, no later collection walks
    # it, and neither does the one at shutdown. dispatch, a library call,
    # leaves the caller's collector alone
    gc.freeze()
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
