#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``polymerlab`` CLI.

    python3 perfbench/run.py --workload scan-d1 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  Each workload of
``perfbench/workloads.json`` is a list of ``polymerlab`` commands run as
subprocesses with ``PYTHONPATH=src``, BLAS threads pinned to 1 and the
workload seed passed on only as ``--seed``.  The workload is repeated until
``--seconds`` have passed (at least twice), every output is checked after
every repeat, and each metric is printed with its unit.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced repeats with repeats in which every layer
is wrapped in spans (``child.py trace``) and reports the ``per_layer``
metrics, including the tracing overhead.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import pairwise
from pathlib import Path

from tracing import Span, totals_by_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

DEFAULT_SEED = 20240817         # the seed of polymerlab's default config
MIN_PROBES = 7                  # setup_s is the median of at least this many cold starts
PROBES_PER_REPEAT = 2           # spread between the repeats so they sample the whole run
MIN_REPEATS = 2                 # the byte-identity check needs a second run
DEADLINE_S = 170.0              # children still running this long after start are killed
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class Tally:
    """Operations attempted and failed: CLI commands, bound checks and output checks."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def add(self, name: str, ok: bool) -> None:
        self.count(name, 1, 0 if ok else 1)

    def count(self, name: str, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
        self.failures += [name] * failed


@dataclass
class Repeat:
    wall_s: float
    peak_rss_mb: float
    traces: list            # one spans file per command when traced
    layers: dict = field(default_factory=dict)
    totals: dict = field(default_factory=dict)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env.pop("POLYMERLAB_THREADS", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Runner:
    """Spawns children with pinned threads; kills any still alive at the deadline."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def spawn(self, argv: list[str], stdout, stderr) -> tuple[float, float, int, object]:
        """(start, wall seconds, exit code, rusage) of one child."""
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=stdout, stderr=stderr)
        killer = threading.Timer(max(self.deadline - start, 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return start, wall, proc.returncode, usage


def _tail(path: Path, lines: int = 5) -> str:
    try:
        return "\n".join(path.read_text(errors="replace").splitlines()[-lines:])
    except OSError:
        return ""


def probe_setup(runner: Runner, workload: dict, cfg_path: Path, seed: int,
                work: Path) -> tuple[float, dict]:
    """Seconds from spawn until polymerlab.cli is imported and the config validated."""
    out, err = work / "probe.out", work / "probe.err"
    argv = [sys.executable, str(HERE / "child.py"), "setup", str(cfg_path), str(seed)]
    if "four_atom_cases" in workload:
        argv.append(str(workload["four_atom_cases"]))
    with open(out, "wb") as fo, open(err, "wb") as fe:
        start, _, code, _ = runner.spawn(argv, fo, fe)
    if code != 0:
        raise BenchError(f"setup probe exited {code}: {_tail(err)}")
    info = json.loads(out.read_text().splitlines()[-1])
    return info["ready"] - start, info


def run_repeat(runner: Runner, workload: dict, cfg_path: Path, seed: int, work: Path,
               traced: bool, tally: Tally) -> Repeat:
    out_dir = work / "out"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    wall, peak, traces = 0.0, 0.0, []
    with open(work / "stderr.log", "wb") as err:
        for i, command in enumerate(workload["commands"]):
            cli_args = [*command, "--config", str(cfg_path), "--seed", str(seed), "--out", str(out_dir)]
            if traced:
                spans = work / f"spans-{i}.json"
                argv = [sys.executable, str(HERE / "child.py"), "trace", str(spans), *cli_args]
                traces.append(spans)
            else:
                argv = [sys.executable, "-m", "polymerlab.cli", *cli_args]
            _, seconds, code, usage = runner.spawn(argv, subprocess.DEVNULL, err)
            wall += seconds
            peak = max(peak, usage.ru_maxrss / 1024.0)     # ru_maxrss is in KiB on Linux
            tally.add(f"polymerlab {' '.join(command)} exit {code}", code == 0)
            if code != 0:
                print(f"stderr tail:\n{_tail(work / 'stderr.log')}", file=sys.stderr)
    return Repeat(wall_s=wall, peak_rss_mb=peak, traces=traces)


# -- output checks ----------------------------------------------------------------


def check_xi_scan(path: Path, alphas: list[float], n_grid: list[int]) -> list[tuple[str, bool]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    mass = {(int(r["n"]), r["event"], float(r["alpha"])): float(r["mass_mean"]) for r in rows}
    alphas = sorted(alphas)
    events = ("endpoint", "running_max")
    nan = math.nan
    return [
        ("xi_scan.csv has 2 x |alphas| x |n_grid| rows",
         len(rows) == len(mass) == 2 * len(alphas) * len(n_grid)),
        ("xi_scan mass_mean in [0, 1]", all(0.0 <= v <= 1.0 for v in mass.values())),
        ("xi_scan mass nondecreasing in alpha",
         all(mass.get((n, e, a0), nan) <= mass.get((n, e, a1), nan)
             for n in n_grid for e in events for a0, a1 in pairwise(alphas))),
        ("xi_scan endpoint mass >= running-max mass",
         all(mass.get((n, "endpoint", a), nan) >= mass.get((n, "running_max", a), nan)
             for n in n_grid for a in alphas)),
    ]


def check_fit(path: Path) -> list[tuple[str, bool]]:
    doc = json.loads(path.read_text())
    vals = [doc.get(k) for k in ("ci_low", "xi_hat", "ci_high")]
    finite = all(isinstance(v, (int, float)) and math.isfinite(v) for v in vals)
    return [("fluct_fit values finite", finite),
            ("fluct_fit ci_low <= xi_hat <= ci_high", finite and vals[0] <= vals[1] <= vals[2])]


def check_outputs(out_dir: Path, workload: dict, probe: dict, tally: Tally) -> dict:
    """Checks every output of one repeat; returns the digests of the data files."""
    present = {p.name for p in out_dir.iterdir()}
    checks = [(f"{name} written", name in present) for name in workload["outputs"]]
    if "xi_scan.csv" in present:
        checks += check_xi_scan(out_dir / "xi_scan.csv", probe["alphas"], probe["n_grid"])
    if "fluct_fit.json" in present:
        checks += check_fit(out_dir / "fluct_fit.json")
    if "verify_summary.json" in present:
        summary = json.loads((out_dir / "verify_summary.json").read_text())
        checks.append(("verify_summary all_passed", summary.get("all_passed") is True))
        for suite, row in summary.items():
            if isinstance(row, dict):       # bound checks count as operations too
                tally.count(f"bound check {suite}", row["checks"], row["failed"])
    for name, ok in checks:
        tally.add(name, ok)
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.name != "manifest.json"}


# -- per-layer metrics ------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default); 0 for no values."""
    if not values:
        return 0.0
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def layer_metrics(trace_files: list[Path], suites: list[str]) -> tuple[dict, dict]:
    """Per-layer metrics of one traced repeat, and its per-span totals."""
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    totals: dict = defaultdict(lambda: dict(zero))
    counters: dict = defaultdict(float)
    ess: list[float] = []
    distinct: set = set()
    n_spans = 0
    for path in trace_files:
        doc = json.loads(path.read_text())
        spans = [Span(*row) for row in doc["spans"]]
        n_spans += len(spans)
        for name, row in totals_by_name(spans).items():
            for key, value in row.items():
                totals[name][key] += value
        for key, value in doc["counters"].items():
            counters[key] += value
        ess += doc["ess_fractions"]
        distinct |= {tuple(x) for x in doc["distinct_slices"]}

    def s(name):
        return totals.get(name, zero)["s"]

    def own(name):
        return totals.get(name, zero)["self_s"]

    built = counters["environment.grid.slices_built"]
    capacity = counters["parallel.capacity_s"]
    metrics = {
        "walk.sample_paths.self_s": own("walk.sample_paths"),
        "walk.steps": counters["walk.steps"],
        "walk.tilt_path.self_s": own("walk.tilt_path"),
        "environment.grid.synth_s": own("environment.grid.build_grid_slice"),
        "environment.grid.slices_built": built,
        "environment.grid.synth_per_distinct": built / len(distinct) if distinct else 0.0,
        "environment.gather_s": own("environment.grid.sample_slice_at"),
        "environment.streams_s": own("environment.tagged_stream"),
        "environment.queries": counters["environment.queries"],
        "environment.exact.condition_s": own("environment.exact.sample_slice_at"),
        "environment.exact.points": counters["environment.exact.points"],
        "kernels.gamma_matrix.s": s("kernels.gamma_matrix"),
        "kernels.gamma_matrix.entries": counters["kernels.gamma_matrix.entries"],
        "gibbs.hamiltonian.self_s": own("gibbs.hamiltonian"),
        "gibbs.expect.s": s("gibbs.gibbs_expect"),
        "gibbs.expect.calls": totals.get("gibbs.gibbs_expect", zero)["calls"],
        "gibbs.degenerate": counters["gibbs.degenerate"],
        "gibbs.ess_frac_p05": percentile(ess, 0.05),
        "parallel.map_s": counters["parallel.map_s"],
        "parallel.items": counters["parallel.items"],
        "parallel.efficiency": s("parallel.item") / capacity if capacity else 0.0,
        "quadrature.gh.s": s("quadrature.gauss_hermite_expect") + s("quadrature.gauss_hermite_mean"),
        "quadrature.gh.points": counters["quadrature.gh.points"],
        "quadrature.mc.s": s("quadrature.monte_carlo_expect") + s("quadrature.monte_carlo_mean"),
        "quadrature.mc.draws": counters["quadrature.mc.draws"],
        "verify.increment_probe.s": s("verify.martingale_increment_probe"),
        "exponent.xi_scan.s": s("exponent.xi_scan"),
        "exponent.fluctuation_fit.s": s("exponent.fluctuation_fit"),
        "exponent.fluctuation_fit.self_s": own("exponent.fluctuation_fit"),
        "cli.write_s": s("cli.write"),
        "cli.output_bytes": counters["cli.output_bytes"],
        "config.load_s": s("config.load_config"),
        "trace.spans": n_spans,
    }
    for suite in suites:
        metrics[f"verify.suite.{suite}.s"] = s(f"verify.suite.{suite}")
    return metrics, dict(totals)


# -- reporting --------------------------------------------------------------------


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, median, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)}, median={median:.4g}, q1={q1:.4g}, q3={q3:.4g}"


def parse_args(argv, workloads: dict, bench: dict):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="workload seed, passed to polymerlab as --seed")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"],
                        help="measure for this long (at least two repeats)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_benchmark(workload: dict, seed: int, seconds: float, trace: int, bench: dict,
                  work: Path) -> dict:
    """Measure one workload in ``work``; prints the report and returns the result."""
    suites = [m["name"].removeprefix("verify.suite.").removesuffix(".s")
              for m in bench["per_layer"] if m["name"].startswith("verify.suite.")]
    runner = Runner(deadline=time.monotonic() + DEADLINE_S)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(workload["config"]))

    setups = []

    def probe_once() -> dict:
        setup_s, info = probe_setup(runner, workload, cfg_path, seed, work)
        setups.append(setup_s)
        return info

    probe = probe_once()

    tally = Tally()
    plain: list[Repeat] = []
    traced: list[Repeat] = []
    first_digests = None
    start = time.monotonic()
    while True:
        is_traced = bool(trace) and len(plain) > len(traced)
        rep = run_repeat(runner, workload, cfg_path, probe["program_seed"], work, is_traced,
                         tally)
        digests = check_outputs(work / "out", workload, probe, tally)
        if first_digests is None:
            first_digests = digests
        else:
            tally.add("outputs byte-identical across repeats", digests == first_digests)
        (traced if is_traced else plain).append(rep)
        if is_traced:
            rep.layers, rep.totals = layer_metrics(rep.traces, suites)
        for _ in range(PROBES_PER_REPEAT):
            probe_once()
        repeats = len(plain) + len(traced)
        elapsed = time.monotonic() - start
        if repeats >= MIN_REPEATS and (not trace or traced) and (
                elapsed >= seconds or time.monotonic() + elapsed / repeats > runner.deadline):
            break

    while len(setups) < MIN_PROBES:
        probe_once()

    walls = [r.wall_s for r in plain]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in plain),
    }
    fit_path = work / "out" / "fluct_fit.json"
    fit = json.loads(fit_path.read_text()) if fit_path.is_file() else {}
    xi_ci_width = fit["ci_high"] - fit["ci_low"] if "ci_high" in fit else 0.0
    if trace:
        for name in traced[0].layers:
            values[name] = statistics.median(r.layers[name] for r in traced)
        values["exponent.xi_ci_width"] = xi_ci_width
        values["trace.overhead_s"] = statistics.median(r.wall_s for r in traced) - values["wall_s"]

    env = {**probe["env"], "commit": git_commit()}
    print(f"perfbench: seed={seed} (polymerlab --seed {probe['program_seed']}) "
          f"seconds={seconds:g} trace={trace} "
          f"commands={workload['commands']} config={json.dumps(workload['config'])}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print_details(plain, traced, setups, tally, fit)

    metrics = {}
    for spec in bench["per_layer" if trace else "end_to_end"]:
        value = values[spec["name"]]
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:40s} = {value:.6g} {spec['unit']}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {**result, "environment": env, "seed": seed, "program_seed": probe["program_seed"],
         "workload": workload, "walls": walls, "setups": setups}, indent=2))
    print(json.dumps(result))
    return result


def print_details(plain: list[Repeat], traced: list[Repeat], setups: list[float],
                  tally: Tally, fit: dict) -> None:
    walls = [r.wall_s for r in plain]
    print(f"untraced walls (s): {[round(w, 3) for w in walls]}  ({spread(walls)})")
    print(f"setup probes (s): {[round(s, 3) for s in setups]}  ({spread(setups)})")
    print(f"failed_frac = {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4g}"
          + (f"  failures: {sorted(set(tally.failures))}" if tally.failures else ""))
    if fit:
        print(f"xi_ci_width = {fit['ci_high'] - fit['ci_low']:.6g}  (xi_hat={fit['xi_hat']:.4g}, "
              f"CI [{fit['ci_low']:.4g}, {fit['ci_high']:.4g}])")
    if traced:
        print(f"traced walls (s): {[round(r.wall_s, 3) for r in traced]}")
        print("span totals of the first traced repeat, by self time:")
        rows = sorted(traced[0].totals.items(), key=lambda kv: -kv[1]["self_s"])
        for name, row in rows[:20]:
            print(f"  {name:44s} calls={row['calls']:>8d} total={row['s']:9.4f} s "
                  f"self={row['self_s']:9.4f} s")


def main(argv=None) -> int:
    if not (ROOT / "src" / "polymerlab" / "cli.py").is_file():
        print(f"perfbench: no polymerlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = json.loads((HERE / "workloads.json").read_text())
    args = parse_args(argv, workloads, bench)
    print(f"perfbench: workload={args.workload}")
    run_benchmark(workloads[args.workload], args.seed, args.seconds, args.trace, bench,
                  OUT / args.workload)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
