"""Command-line front-end: configuration, suites, persistence, reporting.

Subcommands
-----------
``env-check``
    Covariance self-test of the configured environment backend; CSV of
    (position_a, position_b, target_cov, empirical_cov, z) rows.
``verify <suite>``
    One of lemma21, lemma22, girsanov, meancontrol, ball, concentration,
    increment, or all.  Each suite writes a CSV of bound-check rows plus a
    shared summary JSON; concentration writes one tail row per n of
    ``n_grid``.  girsanov, meancontrol, concentration and
    increment run in d = 1 only, and they and the d = 1 ball run on the
    grid whatever ``backend.kind`` says; at d > 1, ``all`` runs lemma21,
    lemma22 and ball.  Each suite makes one fan-out over the environment
    replicas, whose replica covers every n of the suite.  The tilts of
    girsanov (two lambdas), meancontrol (every alpha) and the ball (every
    j) share one field and one path set per (replica, n).  For ``all``,
    ``--threads N`` (N > 1) means up to N worker processes, started by fork
    on Linux, that run the suites side by side, so they share no GIL.  At
    d = 1 each suite runs its replicas in one thread in its worker; at
    d > 1 the ball keeps N threads for its exact-backend replicas, whose
    LAPACK calls release the GIL.  A suite run alone, or every suite at
    ``--threads 1``, runs in this process; a suite run alone gives its
    replicas the N threads.  The workers take the suites longest first
    (``SUITES_LONGEST_FIRST``), so the increment probe does not run alone
    at the end; everything else follows suite order.  Each suite's
    warnings come back from its worker and are counted in suite order, the
    files are written in suite order once every suite has returned, so a
    failed suite leaves none, and the failure reported is the first in
    suite order.  The manifest's suite timings overlap.
``xi-scan`` / ``fluct-fit``
    Containment-mass tables and the spread-slope fit.

At d > 1 (the exact backend) every command that builds replicas runs at
most ``EXACT_MAX_R`` replicas of at most ``EXACT_MAX_M`` paths, the one
rule of :func:`exact_budget`; a binding cap is noted in the ball's rows and
in the scans' manifest summary, and the scans' R and M columns hold the
counts used.

Exit codes: 0 all checks passed, 1 a bound check failed, 2 usage or
configuration error (a boolean, NaN or infinite config number; d > 1
without the exact backend and a kernel other than exponential-petermann;
a configuration too large for memory; a d = 1-only suite at d > 1; a
suite hypothesis, checked before any suite runs; an ``--out`` that
cannot be made or an output that cannot be written, named in the one
stderr line; a suite worker process that died, killed by the
out-of-memory killer, say), 3 numerical failure (ill-conditioned covariance,
clipped spectrum, grid domain overflow, failed replica), reported as one
stderr line; a failure removes the directories it made while empty.  Data
outputs are byte-identical for identical (config, seed) at any thread
count; the manifest additionally records wall-clock timings and the peak
resident memory (``peak_rss_mib``) of the process itself, not of the
program that started it, or of its largest suite worker, whichever is
higher, so it is the one file
excluded from that guarantee.  It also counts, by class, the warnings a
command raised instead of printing them, the minor page faults of the
command (``minor_faults``: this process and its reaped suite workers, from
entering the command's frame to the manifest write, so imports and a
caller's earlier work stay out), and the numeric environment (numpy and
scipy versions, BLAS library, C library, BLAS thread variables as set, CPU
count).

Heap policy: on glibc, :func:`main` first sets ``M_MMAP_THRESHOLD`` to
32 MiB and ``M_TRIM_THRESHOLD`` to 64 MiB, the ceilings glibc's own dynamic
thresholds reach on 64-bit, and forked suite workers inherit them.  The
exact backend allocates a covariance, numpy's work copy and a Cholesky
factor of m × m doubles per slice and frees them together; under glibc's
defaults those requests are mapped and unmapped, or trimmed off the heap
top, every slice, and each page is faulted in again for the next one
(about 30 % of a d = 2 ``verify ball``).  The raised thresholds keep the
freed heap for reuse.  No output byte depends on it, and on any other C
library nothing is set.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import resource
import sys
import time
import warnings
from collections import Counter
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager, suppress
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .environment import (CovarianceConditioningError, EnvironmentHandle, GridDomainError,
                          SpectralClippingError, covariance_selftest, grid_spacing)
from .exponent import fluctuation_fit, xi_scan
from .gibbs import GibbsParams, ReplicaError
from .verify import (CONCENTRATION_MIN_R, MEAN_CONTROL_MIN_ALPHA, BoundCheckReport,
                     ball_bound_test, check_expo_ineq, check_log_moment_bounds, concentration_test,
                     girsanov_identity_test, make_report, martingale_increment_probe,
                     mean_control_test, random_expo_cases)

D1_SUITES = ("girsanov", "meancontrol", "concentration", "increment")
REPORT_CSV_HEADER = ("name", "estimate", "stderr", "lower_bound", "upper_bound", "margin_sigmas", "pass")
SPREADS_CSV_HEADER = ("quantity", "n", "beta", "value", "M", "R", "seed")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

EXACT_MAX_R, EXACT_MAX_M = 50, 300     # replicas and paths per replica at d > 1
BALL_ALPHA = 0.75           # makes n^(2*alpha-1) dyadic on the default n values
BALL_N_VALUES = (9, 16)
INCREMENT_N = 4


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(path: Path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _json_safe(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(_json_safe(obj), fh, indent=2, sort_keys=True)
        fh.write("\n")


def exact_budget(cfg: RunConfig) -> tuple[int, int, str]:
    """The (R, M) a command runs with, and a note naming them when a cap binds, else "".

    At d > 1 every command runs on the exact backend, where each slice pays
    for the covariance of the M points it is queried at and for its Cholesky
    factor, so R and M are capped there; d = 1 runs uncapped.
    """
    if cfg.d == 1:
        return cfg.R, cfg.M, ""
    R, M = min(cfg.R, EXACT_MAX_R), min(cfg.M, EXACT_MAX_M)
    return R, M, f"R={R},M={M}" if (R, M) != (cfg.R, cfg.M) else ""


def _summarize(reports: list[BoundCheckReport]) -> dict:
    margins = [r.margin_sigmas for r in reports if math.isfinite(r.margin_sigmas)]
    notes = [f"{r.name}: {r.notes}" for r in reports if r.notes]
    return {
        "checks": len(reports),
        "passed": sum(r.passed for r in reports),
        "failed": sum(not r.passed for r in reports),
        "worst_margin_sigmas": min(margins) if margins else None,
        "notes": notes,
    }


# -- suites -------------------------------------------------------------------


def _moment_suite(cfg: RunConfig, label: str, check, n_draws: int) -> list[BoundCheckReport]:
    """Per random case: ``check`` by quadrature, by MC, then MC against quadrature."""
    reports = []
    for idx, case in enumerate(random_expo_cases(cfg.seed, count=10)):
        quad = check(case, method="quadrature")
        mc = check(case, method="mc", n_draws=n_draws, seed=cfg.seed + idx)
        agree = make_report(f"{label}_mc_vs_quadrature(case={idx})", mc.estimate, mc.stderr,
                            lower=quad.estimate, upper=quad.estimate)
        reports += [quad, mc, agree]
    return reports


def _suite_lemma21(cfg: RunConfig) -> list[BoundCheckReport]:
    return _moment_suite(cfg, "expo_ineq", check_expo_ineq, 200_000)


def _suite_lemma22(cfg: RunConfig) -> list[BoundCheckReport]:
    return _moment_suite(cfg, "log_moment", lambda case, **kw: check_log_moment_bounds(
        case.mu_atoms, case.mu_weights, case.beta, case.kernel, **kw), 100_000)


def _suite_girsanov(cfg: RunConfig) -> list[BoundCheckReport]:
    spacing = grid_spacing(cfg.kernel, cfg.h)
    # lattice multiples keep the identity exact
    return girsanov_identity_test(max(cfg.n_grid), (spacing, 2.0 * spacing),
                                  GibbsParams(beta=cfg.beta, M=cfg.M), cfg.env_seeds(),
                                  kernel=cfg.kernel, h=cfg.h, L=cfg.L, threads=cfg.threads)


def _suite_meancontrol(cfg: RunConfig) -> list[BoundCheckReport]:
    return mean_control_test(cfg.alphas, cfg.n_grid, GibbsParams(beta=cfg.beta, M=cfg.M),
                             cfg.env_seeds(), kernel=cfg.kernel, h=cfg.h, L=cfg.L,
                             threads=cfg.threads)


def _suite_ball(cfg: RunConfig) -> list[BoundCheckReport]:
    R, M, capped = exact_budget(cfg)
    j_list = [(2,), (4,)] if cfg.d == 1 else [(2,) * cfg.d]
    reports = ball_bound_test(BALL_ALPHA, BALL_N_VALUES, j_list, GibbsParams(beta=cfg.beta, M=M),
                              cfg.env_seeds(R), kernel=cfg.kernel, h=cfg.h, L=cfg.L,
                              threads=cfg.threads)
    return [replace(r, notes=",".join(filter(None, (r.notes, capped)))) for r in reports]


def _suite_concentration(cfg: RunConfig) -> list[BoundCheckReport]:
    return concentration_test(cfg.nu, cfg.n_grid, GibbsParams(beta=cfg.beta, M=cfg.M),
                              cfg.env_seeds(), kernel=cfg.kernel, h=cfg.h, L=cfg.L,
                              threads=cfg.threads)


def _suite_increment(cfg: RunConfig) -> list[BoundCheckReport]:
    n = INCREMENT_N
    params = GibbsParams(beta=cfg.beta, M=min(cfg.M, 2000))
    return martingale_increment_probe(n, n, params, cfg.seed, kernel=cfg.kernel, h=cfg.h, L=cfg.L)


_SUITE_RUNNERS = {
    "lemma21": _suite_lemma21,
    "lemma22": _suite_lemma22,
    "girsanov": _suite_girsanov,
    "meancontrol": _suite_meancontrol,
    "ball": _suite_ball,
    "concentration": _suite_concentration,
    "increment": _suite_increment,
}
VERIFY_SUITES = tuple(_SUITE_RUNNERS)     # in the order `verify all` reports them
# the order worker processes take them in: longest first (Graham's LPT rule) at the
# verify-d1-t2 config, so the last suite to start is a short one, the moment suites last;
# on two workers it also ends sooner at the default config than that config's own order
SUITES_LONGEST_FIRST = ("increment", "ball", "meancontrol", "concentration", "girsanov", "lemma21",
                        "lemma22")


def _run_suite(name: str, cfg: RunConfig) -> tuple[list[BoundCheckReport], float, list]:
    """One suite's reports, its seconds and the warnings it raised, in this process or a worker.

    The runner is looked up here, so a forked worker runs the parent's
    ``_SUITE_RUNNERS`` as they stood at the fork.
    """
    t0 = time.perf_counter()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        reports = _SUITE_RUNNERS[name](cfg)
    return reports, time.perf_counter() - t0, caught


def _libc() -> str | None:
    """The C library's name and version, such as ``glibc 2.36``, or None where unknown."""
    try:
        return os.confstr("CS_GNU_LIBC_VERSION")
    except (ValueError, OSError):      # an unknown name off glibc
        return None


def _keep_freed_heap() -> None:
    """On glibc, raise the mmap and trim thresholds so freed m × m buffers stay for reuse."""
    if not (_libc() or "").startswith("glibc"):
        return
    import ctypes       # here, so importing the CLI does not load it

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)       # M_TRIM_THRESHOLD


def _minor_faults() -> int:
    """Minor page faults of this process and of its reaped children so far."""
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def _blas() -> str | None:
    """The name and version of the BLAS numpy was built against, or None where unknown."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        return None


def _scipy() -> str | None:
    """scipy's version, named by the first ``scipy-<version>.dist-info`` on ``sys.path``, or None.

    Neither scipy nor ``importlib.metadata``, which loads ``email`` and ``zipfile``, is imported.
    """
    for entry in sys.path:
        with suppress(OSError):         # a missing directory or a zip archive
            found = sorted(n for n in os.listdir(entry or ".")
                           if n.startswith("scipy-") and n.endswith(".dist-info"))
            if found:
                return found[0].removeprefix("scipy-").removesuffix(".dist-info")
    return None


def _peak_rss_mib() -> float:
    """Peak resident memory of this process or of its largest reaped child, in MiB.

    The process's own ``VmHWM`` is read where it exists: Linux carries
    ``RUSAGE_SELF``'s ``ru_maxrss`` over from the program that exec'd it.
    """
    try:
        with open("/proc/self/status") as status:
            own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0   # KiB


# -- commands -----------------------------------------------------------------


class _Frame:
    """One command's output dir, outputs, stage timings, summary and manifest.

    Entering it makes the output dir and records warnings (worker threads' too, and
    those a suite worker process sends back, as ``cmd_verify`` replays them) instead of
    printing them; a clean exit writes ``manifest.json``, counting them by class, and
    a failed one removes the directories that entering made, if they are still empty.
    """

    def __init__(self, cfg: RunConfig, command: str):
        self.cfg, self.command, self.out = cfg, command, Path(cfg.output_dir)
        self.outputs, self.timings, self.summary = [], {}, {}
        self._recorder = warnings.catch_warnings(record=True)

    def __enter__(self) -> _Frame:
        self._faults = _minor_faults()
        self._made = [p for p in (self.out, *self.out.parents) if not p.exists()]
        self.out.mkdir(parents=True, exist_ok=True)
        self._caught = self._recorder.__enter__()
        warnings.simplefilter("always")     # keeps repeats, so counts match at any thread count
        return self

    def __exit__(self, exc_type, *exc) -> None:
        self._recorder.__exit__(exc_type, *exc)
        if exc_type is not None:
            with suppress(OSError):         # rmdir removes only empty directories, innermost first
                for made in self._made:
                    made.rmdir()
        else:
            _write_json(self.out / "manifest.json", {
                "artifact_version": __version__,
                "command": self.command,
                "config": self.cfg.raw,
                "outputs": self.outputs,
                "timings_seconds": self.timings,
                "summary": self.summary,
                "warnings": dict(Counter(w.category.__name__ for w in self._caught)),
                # first, so the two counts below include reading scipy's metadata
                "numeric_environment": {"numpy": np.__version__, "scipy": _scipy(),
                                        "blas": _blas(), "libc": _libc(),
                                        "cpu_count": os.cpu_count(),
                                        **{var: os.environ.get(var) for var in BLAS_THREAD_VARS}},
                # the children are the suite workers, reaped by now
                "peak_rss_mib": _peak_rss_mib(),
                "minor_faults": _minor_faults() - self._faults,
            })

    @contextmanager
    def stage(self, name: str):
        t0 = time.perf_counter()
        yield
        self.timings[name] = time.perf_counter() - t0

    def write(self, filename: str, *content) -> None:
        """Write one output, CSV or JSON by its suffix, and list it in the manifest."""
        (_write_csv if filename.endswith(".csv") else _write_json)(self.out / filename, *content)
        self.outputs.append(filename)


def cmd_env_check(cfg: RunConfig, frame: _Frame) -> int:
    spacing = grid_spacing(cfg.kernel, cfg.h)
    xs = [0.0, 5 * spacing, 10 * spacing] if cfg.backend_kind == "grid" else [0.0, 0.5, 1.0]
    points = [(1, np.full(cfg.d, x)) for x in xs] + [(2, np.zeros(cfg.d))]
    L = cfg.L if cfg.L is not None else float(math.ceil(max(xs) + 1))
    env = EnvironmentHandle(cfg.seed, cfg.kernel, d=cfg.d, backend=cfg.backend_kind,
                            h=cfg.h, L=L if cfg.backend_kind == "grid" else None)
    with frame.stage("env-check"):
        rows = covariance_selftest(env, points, n_seeds=max(1000, cfg.R))

    def tag(position) -> str:
        k, *coords = position
        return f"k={k};x=" + ";".join(repr(float(c)) for c in coords)

    frame.write("env_check.csv", ("position_a", "position_b", "target_cov", "empirical_cov", "z"),
                [(tag(r.position_a), tag(r.position_b), r.target_cov, r.empirical_cov, r.z)
                 for r in rows])
    worst = max(abs(r.z) for r in rows)
    frame.summary.update(pairs=len(rows), worst_abs_z=worst, passed=worst < 4.0)
    return 0 if worst < 4.0 else 1


def cmd_verify(cfg: RunConfig, frame: _Frame, suite: str) -> int:
    skip = D1_SUITES if cfg.d > 1 else ()
    if suite in skip:
        raise ConfigError(f"verify {suite} runs in d = 1 only; the config has d = {cfg.d}")
    names = [s for s in VERIFY_SUITES if s not in skip] if suite == "all" else [suite]
    if "meancontrol" in names and min(cfg.alphas) <= MEAN_CONTROL_MIN_ALPHA:
        raise ConfigError(f"verify meancontrol needs every alphas entry > 1/2, got {min(cfg.alphas):g}")
    if "concentration" in names and cfg.R < CONCENTRATION_MIN_R:
        raise ConfigError(f"verify concentration needs R >= {CONCENTRATION_MIN_R}, got {cfg.R}")
    # d = 1 grid replicas hold the GIL, so there a suite beside others runs its replicas
    # in one thread
    suite_cfg = replace(cfg, threads=1) if cfg.d == 1 and len(names) > 1 else cfg
    if cfg.threads > 1 and len(names) > 1:
        import multiprocessing      # here, so importing the CLI does not load it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(min(cfg.threads, len(names)),
                                 multiprocessing.get_context("fork")) as pool:
            futures = {name: pool.submit(_run_suite, name, suite_cfg)
                       for name in sorted(names, key=SUITES_LONGEST_FIRST.index)}
            try:        # in suite order, so the first failure raised is the first suite's
                results = [futures[name].result() for name in names]
            finally:    # every earlier suite has returned: the rest need not run
                pool.shutdown(cancel_futures=True)
    else:
        results = [_run_suite(name, suite_cfg) for name in names]

    for name, (reports, seconds, caught) in zip(names, results):
        for w in caught:        # into the frame's recorder, in suite order
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        frame.timings[name] = seconds
        frame.write(f"verify_{name}.csv", REPORT_CSV_HEADER,
                    [(r.name, r.estimate, r.stderr, r.lower_bound, r.upper_bound, r.margin_sigmas,
                      r.passed) for r in reports])
        frame.summary[name] = _summarize(reports)
    frame.summary["all_passed"] = all(s["failed"] == 0 for s in frame.summary.values())
    frame.write("verify_summary.json", frame.summary)
    return 0 if frame.summary["all_passed"] else 1


def cmd_xi_scan(cfg: RunConfig, frame: _Frame) -> int:
    R, M, capped = exact_budget(cfg)
    params = GibbsParams(beta=cfg.beta, M=M)
    rows = []
    with frame.stage("xi-scan"):
        for event in ("endpoint", "running_max"):
            rows += xi_scan(cfg.alphas, cfg.n_grid, params, cfg.env_seeds(R), event=event,
                            kernel=cfg.kernel, d=cfg.d, backend=cfg.backend_kind,
                            h=cfg.h, L=cfg.L, threads=cfg.threads)
    frame.write("xi_scan.csv", ("n", "alpha", "event", "mass_mean", "mass_stderr", "R", "M", "seed"),
                [(r.n, r.alpha, r.event, r.mass_mean, r.mass_stderr, r.R, r.M, cfg.seed)
                 for r in rows])
    frame.summary["rows"] = len(rows)
    if capped:
        frame.summary["capped"] = capped
    return 0


def cmd_fluct_fit(cfg: RunConfig, frame: _Frame) -> int:
    R, M, capped = exact_budget(cfg)
    params = GibbsParams(beta=cfg.beta, M=M)
    with frame.stage("fluct-fit"):
        fit = fluctuation_fit(cfg.n_grid, params, cfg.env_seeds(R), kernel=cfg.kernel, d=cfg.d,
                              backend=cfg.backend_kind, h=cfg.h, L=cfg.L, threads=cfg.threads)
    frame.write("fluct_fit.json", {
        "xi_hat": fit.xi_hat, "ci_low": fit.ci_low, "ci_high": fit.ci_high,
        "n_grid": list(fit.n_grid), "beta": fit.beta, "lambda": fit.lam, "d": fit.d,
        "reference_band": list(fit.reference_band) if fit.reference_band else None,
        "spreads_median": list(fit.spreads_median), "spreads_mean": list(fit.spreads_mean),
    })
    frame.write("fluct_fit_spreads.csv", SPREADS_CSV_HEADER,
                [("runmax_spread_median", n, cfg.beta, med, M, R, cfg.seed)
                 for n, med in zip(fit.n_grid, fit.spreads_median)])
    frame.summary["xi_hat"] = fit.xi_hat
    if capped:
        frame.summary["capped"] = capped
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON config file (defaults embedded)")
    common.add_argument("--seed", type=int, metavar="U64", help="override the config seed")
    common.add_argument("--threads", type=int, metavar="N",
                        help="override the config's worker threads (verify all: worker processes)")
    common.add_argument("--out", metavar="DIR", help="override the output directory")

    parser = argparse.ArgumentParser(
        prog="polymerlab",
        description="Simulation and verification laboratory for directed polymers "
                    "in a stationary Gaussian random environment")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("env-check", parents=[common], help="covariance self-test of the environment")
    verify = sub.add_parser("verify", parents=[common], help="run an inequality suite")
    verify.add_argument("suite", choices=VERIFY_SUITES + ("all",))
    sub.add_parser("xi-scan", parents=[common], help="containment-mass tables over (n, alpha)")
    sub.add_parser("fluct-fit", parents=[common], help="spread-slope fit with bootstrap CI")
    return parser


def main(argv=None) -> int:
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:        # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)

    try:
        cfg = load_config(args.config, seed=args.seed, threads=args.threads, output_dir=args.out)
        run = {"env-check": cmd_env_check, "verify": cmd_verify, "xi-scan": cmd_xi_scan,
               "fluct-fit": cmd_fluct_fit}[args.command]
        operands = [args.suite] if args.command == "verify" else []
        with _Frame(cfg, " ".join([args.command, *operands])) as frame:
            return run(cfg, frame, *operands)
    # before the ValueError clause: GridDomainError is a ValueError
    except (CovarianceConditioningError, SpectralClippingError, GridDomainError,
            ReplicaError) as exc:
        print(f"polymerlab: numerical error: {exc}", file=sys.stderr)
        return 3
    # OSError: making or writing an output; BrokenExecutor: a suite worker process died
    except (ConfigError, ValueError, MemoryError, OSError, BrokenExecutor) as exc:
        print(f"polymerlab: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
