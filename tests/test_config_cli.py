import csv
import json
import multiprocessing
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from polymerlab import cli, verify
from polymerlab.cli import main
from polymerlab.config import ConfigError, DEFAULT_CONFIG, load_config
from polymerlab.gibbs import GibbsParams, WeightDegeneracyWarning, quenched_average
from polymerlab.kernels import gamma_eval
from polymerlab.verify import make_report, martingale_increment_probe


D2_EXACT = {"d": 2, "kernel": {"kind": "product-exponential"}, "backend": {"kind": "exact"}}


def write_config(tmp_path: Path, **overrides) -> str:
    doc = {"M": 100, "R": 10, "n_grid": [4, 9], "alphas": [0.8], "seed": 77}
    doc.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_defaults_validate():
    cfg = load_config(None)
    assert cfg.seed == DEFAULT_CONFIG["seed"]
    assert cfg.kernel.normalize_unit_variance
    assert cfg.n_grid == (4, 9, 16, 25)
    assert cfg.env_seeds(3) == [cfg.seed, cfg.seed + 1, cfg.seed + 2]


def test_config_validation_messages(tmp_path):
    with pytest.raises(ConfigError, match="kernel.lambda"):
        load_config(write_config(tmp_path, kernel={"lambda": -1.0}))
    with pytest.raises(ConfigError, match="n_grid"):
        load_config(write_config(tmp_path, n_grid=[9, 4]))
    with pytest.raises(ConfigError, match="nu"):
        load_config(write_config(tmp_path, nu=0.3))
    with pytest.raises(ConfigError, match="unknown config field"):
        load_config(write_config(tmp_path, bogus=1))
    with pytest.raises(ConfigError, match="M must"):
        load_config(write_config(tmp_path, M=1))
    with pytest.raises(ConfigError, match="backend.h"):
        load_config(write_config(tmp_path, backend={"h": -0.5}))


def test_env_check_exit_zero_and_schema(tmp_path):
    cfg = write_config(tmp_path, output_dir=str(tmp_path / "out"))
    assert main(["env-check", "--config", cfg]) == 0
    header = (tmp_path / "out" / "env_check.csv").read_text().splitlines()[0]
    assert header == "position_a,position_b,target_cov,empirical_cov,z"
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["outputs"] == ["env_check.csv"]
    assert (tmp_path / "out" / "env_check.csv").stat().st_size > 0


def test_cli_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["env-check", "--config", str(bad)]) == 2

    lam = write_config(tmp_path, kernel={"lambda": -2.0})
    assert main(["env-check", "--config", lam]) == 2

    assert main(["verify", "nosuchsuite", "--config", write_config(tmp_path)]) == 2
    assert main(["env-check", "--config", str(tmp_path / "missing.json")]) == 2


def test_meancontrol_alpha_precondition_exit_two(tmp_path):
    cfg = write_config(tmp_path, alphas=[0.4], output_dir=str(tmp_path / "o"))
    assert main(["verify", "meancontrol", "--config", cfg]) == 2


def test_girsanov_beta_zero_exact_rows(tmp_path):
    cfg = write_config(tmp_path, beta=0.0, M=400, R=20, output_dir=str(tmp_path / "g"))
    assert main(["verify", "girsanov", "--config", cfg]) == 0
    rows = (tmp_path / "g" / "verify_girsanov.csv").read_text().splitlines()
    assert len(rows) == 3
    for row in rows[1:]:
        assert row.endswith("true")


def test_xi_scan_and_manifest(tmp_path):
    out = tmp_path / "scan"
    cfg = write_config(tmp_path, beta=0.0, M=200, R=6, output_dir=str(out))
    assert main(["xi-scan", "--config", cfg]) == 0
    lines = (out / "xi_scan.csv").read_text().splitlines()
    assert lines[0] == "n,alpha,event,mass_mean,mass_stderr,R,M,seed"
    # two events x two n values x one alpha
    assert len(lines) == 1 + 4
    manifest = json.loads((out / "manifest.json").read_text())
    for name in manifest["outputs"]:
        target = out / name
        assert target.exists() and target.stat().st_size > 0


def test_xi_scan_of_a_large_uniform_ensemble_exits_zero(tmp_path):
    cfg = write_config(tmp_path, beta=0, M=123457, R=2, n_grid=[1], alphas=[0.6])
    assert main(["xi-scan", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


def test_fluct_fit_outputs(tmp_path):
    out = tmp_path / "fit"
    cfg = write_config(tmp_path, beta=0.0, M=200, R=6, n_grid=[4, 9, 16, 25], output_dir=str(out))
    assert main(["fluct-fit", "--config", cfg]) == 0
    doc = json.loads((out / "fluct_fit.json").read_text())
    assert set(doc) >= {"xi_hat", "ci_low", "ci_high", "n_grid", "beta", "lambda", "d"}
    spreads = (out / "fluct_fit_spreads.csv").read_text().splitlines()
    assert spreads[0] == "quantity,n,beta,value,M,R,seed"
    assert len(spreads) == 1 + 4
    for line, n, median in zip(spreads[1:], doc["n_grid"], doc["spreads_median"]):
        assert line.split(",") == ["runmax_spread_median", str(n), "0.0", repr(median), "200", "6", "77"]


def test_seed_flag_overrides_config(tmp_path):
    out = tmp_path / "s"
    cfg = write_config(tmp_path, beta=0.0, M=200, R=6, output_dir=str(out))
    assert main(["xi-scan", "--config", cfg, "--seed", "999"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 999
    first = (out / "xi_scan.csv").read_text()
    assert ",999" in first.splitlines()[1]


def test_rerun_is_byte_identical_across_threads(tmp_path):
    cfg = write_config(tmp_path, beta=0.5, M=150, R=8)
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["xi-scan", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["xi-scan", "--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
    assert (out1 / "xi_scan.csv").read_bytes() == (out2 / "xi_scan.csv").read_bytes()


def test_fluct_fit_rerun_is_byte_identical_across_threads(tmp_path):
    cfg = write_config(tmp_path, beta=0.5, M=150, R=8, n_grid=[4, 9, 16, 25])
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["fluct-fit", "--config", cfg, "--out", str(out1), "--threads", "1"]) == 0
    assert main(["fluct-fit", "--config", cfg, "--out", str(out2), "--threads", "2"]) == 0
    for name in ("fluct_fit.json", "fluct_fit_spreads.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.mark.parametrize("command", ["xi-scan", "fluct-fit", "verify concentration"])
def test_degeneracy_warnings_are_counted_not_printed(tmp_path, capsys, command):
    # beta = 1.5 with M = 50 collapses the importance weights of some replicas
    R = 200 if command == "verify concentration" else 4      # concentration needs R >= 200
    cfg = write_config(tmp_path, beta=1.5, M=50, R=R, n_grid=[4, 9, 16, 25])
    counts, data = [], []
    for threads in ("1", "2"):
        out = tmp_path / threads
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            assert main([*command.split(), "--config", cfg, "--out", str(out),
                         "--threads", threads]) == 0
        assert escaped == []
        manifest = json.loads((out / "manifest.json").read_text())
        assert "warnings" not in manifest["summary"]
        counts.append(manifest["warnings"])
        data.append({name: (out / name).read_bytes() for name in manifest["outputs"]})
    assert counts[0]["WeightDegeneracyWarning"] > 0 and counts[0] == counts[1]
    assert data[0] == data[1]
    assert capsys.readouterr().err == ""


def test_numerical_failures_exit_three_with_one_line(tmp_path, capsys):
    clipped = write_config(tmp_path, kernel={"kind": "squared-exponential", "lambda": 0.1},
                           backend={"h": 0.5, "L": 2.0}, output_dir=str(tmp_path / "c"))
    assert main(["xi-scan", "--config", clipped]) == 3
    narrow = write_config(tmp_path, backend={"L": 1.0}, output_dir=str(tmp_path / "n"))
    assert main(["xi-scan", "--config", narrow]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert all(line.startswith("polymerlab: numerical error: ") for line in err)


# concentration needs R >= 200 replicas, so it runs with few paths per replica
THREADS_CONFIGS = {"meancontrol": {"M": 100, "R": 10}, "ball": {"M": 100, "R": 10},
                   "girsanov": {"M": 100, "R": 10}, "concentration": {"M": 20, "R": 200}}


@pytest.mark.parametrize("suite", list(THREADS_CONFIGS))
def test_verify_is_byte_identical_across_threads(tmp_path, suite):
    cfg = write_config(tmp_path, **THREADS_CONFIGS[suite])
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    code = main(["verify", suite, "--config", cfg, "--out", str(out1), "--threads", "1"])
    assert code in (0, 1)
    assert main(["verify", suite, "--config", cfg, "--out", str(out2), "--threads", "2"]) == code
    for name in (f"verify_{suite}.csv", "verify_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_exact_backend_ball_d2_is_byte_identical_across_threads(tmp_path):
    cfg = write_config(tmp_path, d=2, kernel={"kind": "product-exponential"},
                       backend={"kind": "exact"}, M=60, R=4)
    out1, out2 = tmp_path / "v1", tmp_path / "v2"
    code = main(["verify", "ball", "--config", cfg, "--out", str(out1), "--threads", "1"])
    assert code in (0, 1)
    assert main(["verify", "ball", "--config", cfg, "--out", str(out2), "--threads", "2"]) == code
    for name in ("verify_ball.csv", "verify_summary.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_each_verify_suite_fans_out_once(tmp_path, monkeypatch):
    # (replicas, threads) per fan-out, put by the suites in this process or in forked workers
    queue = multiprocessing.get_context("fork").SimpleQueue()

    def counting(env_seeds, estimator, threads=1):
        queue.put((len(list(env_seeds)), threads))
        return quenched_average(env_seeds, estimator, threads=threads)

    def calls():
        got = []
        while not queue.empty():
            got.append(queue.get())
        return got

    monkeypatch.setattr(verify, "quenched_average", counting)
    cfg = write_config(tmp_path, M=20, R=200, n_grid=[4, 9])
    assert main(["verify", "all", "--config", cfg, "--out", str(tmp_path / "d1"),
                 "--threads", "2"]) in (0, 1)
    # girsanov, meancontrol, ball and concentration, each replica in its suite's thread
    assert sorted(calls()) == [(200, 1)] * 4
    assert main(["verify", "meancontrol", "--config", cfg, "--out", str(tmp_path / "alone"),
                 "--threads", "2"]) in (0, 1)
    assert calls() == [(200, 2)]      # a suite run alone keeps the threads
    d2 = write_config(tmp_path, **D2_EXACT, M=20, R=3)
    assert main(["verify", "all", "--config", d2, "--out", str(tmp_path / "d2"),
                 "--threads", "2"]) in (0, 1)
    assert sorted(calls()) == [(3, 2)]      # the exact-backend ball keeps the threads


@pytest.mark.parametrize("overrides", [{"M": 20, "R": 200, "n_grid": [4, 9]},
                                       {**D2_EXACT, "M": 30, "R": 4}])
def test_verify_all_is_byte_identical_across_threads(tmp_path, overrides):
    # three threads on two cores, switching often, would show a lost warning or spectrum
    cfg, interval = write_config(tmp_path, **overrides), sys.getswitchinterval()
    runs = []
    sys.setswitchinterval(1e-4)
    try:
        for threads in ("1", "2", "3"):
            out = tmp_path / threads
            assert main(["verify", "all", "--config", cfg, "--out", str(out),
                         "--threads", threads]) in (0, 1)
            manifest = json.loads((out / "manifest.json").read_text())
            runs.append((manifest["outputs"], manifest["warnings"],
                         {name: (out / name).read_bytes() for name in manifest["outputs"]}))
    finally:
        sys.setswitchinterval(interval)
    assert runs[0] == runs[1] == runs[2]
    assert sorted(p.name for p in (tmp_path / "1").iterdir()) == sorted([*runs[0][0], "manifest.json"])


def test_verify_suites_run_side_by_side(tmp_path, monkeypatch):
    # each of two suites waits for the other; run in turn, the barrier times out
    barrier = multiprocessing.get_context("fork").Barrier(2, timeout=20)

    def meeting(cfg):
        barrier.wait()
        warnings.warn("met", WeightDegeneracyWarning)   # sent back from the worker process
        return [make_report("met", 0.0, 0.0)]

    for name in cli.VERIFY_SUITES:
        monkeypatch.setitem(cli._SUITE_RUNNERS, name,
                            meeting if name in ("lemma21", "increment") else lambda cfg: [])
    out = tmp_path / "out"
    assert main(["verify", "all", "--config", write_config(tmp_path, R=200), "--out", str(out),
                 "--threads", "2"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == [f"verify_{name}.csv" for name in cli.VERIFY_SUITES] + [
        "verify_summary.json"]
    assert set(manifest["timings_seconds"]) == set(cli.VERIFY_SUITES)
    assert manifest["warnings"] == {"WeightDegeneracyWarning": 2}


def test_a_dead_suite_worker_exits_two_with_one_line(tmp_path, capsys, monkeypatch):
    # a worker killed by the out-of-memory killer breaks the pool the same way
    monkeypatch.setitem(cli._SUITE_RUNNERS, "girsanov", lambda cfg: os._exit(1))
    cfg, made = write_config(tmp_path, R=200), tmp_path / "a" / "out"
    assert main(["verify", "all", "--config", cfg, "--out", str(made), "--threads", "2"]) == 2
    assert not (tmp_path / "a").exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polymerlab: error: "), err


def test_manifest_peak_rss_covers_the_suite_workers(tmp_path):
    # run in a fresh interpreter, whose own peak stays below what the worker touches; it is
    # started from a small launcher, since Linux carries the peak of the process that
    # calls exec over to the program it starts
    touched_mib = 120
    code = f"""
import json, resource, sys
import numpy as np
from polymerlab import cli

def touching(cfg):
    np.ones({touched_mib} * 2**20 // 8)     # every page written
    return []

for name in cli.VERIFY_SUITES:
    cli._SUITE_RUNNERS[name] = touching if name == "lemma21" else (lambda cfg: [])
code = cli.main(["verify", "all", "--threads", "2", "--out", sys.argv[1]])
print(json.dumps([code, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]))
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(cli.__file__).parent.parent),
                                                     env.get("PYTHONPATH")]))
    out = tmp_path / "out"
    launcher = "import subprocess, sys; sys.exit(subprocess.run(sys.argv[1:]).returncode)"
    done = subprocess.run([sys.executable, "-c", launcher, sys.executable, "-c", code, str(out)],
                          env=env, capture_output=True, text=True, check=True)
    exit_code, own_peak = json.loads(done.stdout.splitlines()[-1])
    assert exit_code == 0 and own_peak < touched_mib
    assert json.loads((out / "manifest.json").read_text())["peak_rss_mib"] >= touched_mib


def test_scans_on_the_exact_backend_run_capped_at_default_R_and_M(tmp_path):
    cfg = write_config(tmp_path, **D2_EXACT, R=DEFAULT_CONFIG["R"], M=DEFAULT_CONFIG["M"],
                       n_grid=[1, 2, 3, 4])
    R, M = cli.EXACT_MAX_R, cli.EXACT_MAX_M
    assert R < DEFAULT_CONFIG["R"] and M < DEFAULT_CONFIG["M"]
    for command, data in (("xi-scan", "xi_scan.csv"), ("fluct-fit", "fluct_fit_spreads.csv")):
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out", str(out), "--threads", "2"]) == 0
        assert json.loads((out / "manifest.json").read_text())["summary"]["capped"] == f"R={R},M={M}"
        with open(out / data, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all((row["R"], row["M"]) == (str(R), str(M)) for row in rows)


def test_every_replica_command_takes_the_one_exact_budget(tmp_path, monkeypatch):
    calls = []

    def counting(cfg):
        calls.append(command)
        return budget(cfg)

    budget = cli.exact_budget
    monkeypatch.setattr(cli, "exact_budget", counting)
    commands = (["verify", "ball"], ["xi-scan"], ["fluct-fit"])
    for overrides in ({}, D2_EXACT):
        cfg = write_config(tmp_path, **overrides, M=20, R=3, n_grid=[2, 3, 4, 5])
        for command in commands:
            assert main([*command, "--config", cfg, "--out", str(tmp_path / "out")]) in (0, 1)
    assert calls == [*commands] * 2


def test_d2_ball_notes_a_binding_cap(tmp_path):
    exact = {"d": 2, "kernel": {"kind": "product-exponential"}, "backend": {"kind": "exact"}}
    capped, free = tmp_path / "capped", tmp_path / "free"
    assert main(["verify", "ball", "--config", write_config(tmp_path, **exact, M=20, R=51),
                 "--out", str(capped)]) in (0, 1)
    summary = json.loads((capped / "verify_summary.json").read_text())["ball"]
    assert summary["checks"] == 2
    assert summary["notes"] == [f"ball_bound(n={n},k={n},j=(2, 2),alpha=0.75,beta=0.5): R=50,M=20"
                                for n in cli.BALL_N_VALUES]
    assert json.loads((capped / "manifest.json").read_text())["config"]["R"] == 51
    assert main(["verify", "ball", "--config", write_config(tmp_path, **exact, M=20, R=50),
                 "--out", str(free)]) in (0, 1)
    assert json.loads((free / "verify_summary.json").read_text())["ball"]["notes"] == []
    assert (free / "verify_ball.csv").read_bytes() == (capped / "verify_ball.csv").read_bytes()


@pytest.mark.parametrize("command", [["env-check"], ["verify", "girsanov"], ["xi-scan"], ["fluct-fit"]])
def test_manifest_records_peak_rss(tmp_path, command):
    out = tmp_path / "out"
    cfg = write_config(tmp_path, M=50, R=4, n_grid=[4, 9, 16, 25])
    assert main([*command, "--config", cfg, "--out", str(out)]) in (0, 1)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["peak_rss_mib"] > 0
    assert "peak_rss_mib" not in manifest["summary"]


def test_verify_failed_check_exits_one_with_manifest(tmp_path, monkeypatch):
    monkeypatch.setitem(cli._SUITE_RUNNERS, "girsanov",
                        lambda cfg: [make_report("forced_failure", 1.0, 0.1, upper=0.0)])
    out = tmp_path / "fail"
    assert main(["verify", "girsanov", "--config", write_config(tmp_path), "--out", str(out)]) == 1
    summary = json.loads((out / "verify_summary.json").read_text())
    assert summary["all_passed"] is False and summary["girsanov"]["failed"] == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "verify girsanov"
    assert manifest["outputs"] == ["verify_girsanov.csv", "verify_summary.json"]
    assert manifest["summary"] == summary


@pytest.mark.parametrize("suite, label", [("lemma21", "expo_ineq"), ("lemma22", "log_moment")])
def test_moment_suites_write_quadrature_mc_agreement_per_case(tmp_path, suite, label):
    out = tmp_path / suite
    assert main(["verify", suite, "--config", write_config(tmp_path), "--out", str(out)]) == 0
    with open(out / f"verify_{suite}.csv", newline="") as fh:
        names = [row[0] for row in csv.reader(fh)][1:]
    assert len(names) == 30
    for idx in range(10):
        quad, mc, agree = names[3 * idx:3 * idx + 3]
        assert quad.startswith(f"{label}(") and quad.endswith(",method=quadrature)")
        assert mc.startswith(f"{label}(") and mc.endswith(",method=mc)")
        assert agree == f"{label}_mc_vs_quadrature(case={idx})"


# json writes float("inf") and float("nan") as Infinity and NaN, which json.load reads back
BAD_NUMBERS = [
    ({"seed": True}, "seed"), ({"d": True}, "d must"), ({"beta": float("inf")}, "beta"),
    ({"beta": True}, "beta"), ({"kernel": {"lambda": float("inf")}}, "kernel.lambda"),
    ({"kernel": {"lambda": True}}, "kernel.lambda"), ({"backend": {"L": float("inf")}}, "backend.L"),
    ({"backend": {"L": 10**400}}, "backend.L"), ({"backend": {"h": float("nan")}}, "backend.h"),
    ({"backend": {"h": True}}, "backend.h"), ({"n_grid": [True, 4]}, "n_grid"),
    ({"alphas": [float("inf")]}, "alphas"), ({"alphas": [True]}, "alphas"),
    ({"nu": float("inf")}, "nu"), ({"nu": float("nan")}, "nu"), ({"M": 100.0}, "M must"),
    ({"R": True}, "R must"), ({"threads": True}, "threads"),
    ({"n_grid": [4, 4, 9, 16, 25]}, "n_grid"), ({"alphas": [0.6, 0.8, 0.6]}, "alphas"),
]


@pytest.mark.parametrize("overrides, field", BAD_NUMBERS)
def test_boolean_and_non_finite_config_numbers_exit_two(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path, **overrides)
    with pytest.raises(ConfigError, match=field):
        load_config(cfg)
    assert main(["env-check", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polymerlab: error: ") and field in err[0]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["xi-scan"], ["verify", "concentration"]])
def test_non_finite_numbers_exit_two_before_any_work(tmp_path, command):
    for overrides in ({"backend": {"L": float("inf")}}, {"nu": float("inf")}):
        cfg = write_config(tmp_path, M=20, R=200, **overrides)    # concentration needs R >= 200
        assert main([*command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2


def test_fluct_fit_honours_d(tmp_path):
    d2 = {"d": 2, "kernel": {"kind": "product-exponential"}, "M": 20, "R": 3,
          "n_grid": [2, 3, 4, 5]}
    out = tmp_path / "exact"
    assert main(["fluct-fit", "--config", write_config(tmp_path, **d2, backend={"kind": "exact"}),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "fluct_fit.json").read_text())
    assert doc["d"] == 2 and doc["reference_band"] is None
    grid = write_config(tmp_path, **d2, backend={"kind": "grid"})
    assert main(["fluct-fit", "--config", grid, "--out", str(tmp_path / "grid")]) == 2


@pytest.mark.parametrize("overrides", [
    {"d": 2, "backend": {"kind": "exact"}},
    {"d": 2, "kernel": {"kind": "product-exponential"}, "backend": {"kind": "grid"}},
])
@pytest.mark.parametrize("command", [["env-check"], ["xi-scan"], ["fluct-fit"], ["verify", "ball"]])
def test_d2_configs_no_backend_builds_exit_two_before_any_work(tmp_path, capsys, overrides, command):
    cfg = write_config(tmp_path, M=20, R=3, n_grid=[2, 3, 4, 5], **overrides)
    with pytest.raises(ConfigError, match="backend.kind"):
        load_config(cfg)
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polymerlab: error: ")
    assert "backend.kind" in err[0] and "kernel.kind" in err[0]
    assert not (tmp_path / "out").exists()


# L = 1e12 fails at once on address space; a huge M could be overcommitted instead
@pytest.mark.parametrize("command", [["env-check"], ["xi-scan"]])
def test_configuration_too_large_for_memory_exits_two(tmp_path, capsys, command):
    cfg = write_config(tmp_path, backend={"L": 1e12})
    assert main([*command, "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polymerlab: error: ")


def test_d1_only_suites_exit_two_at_d_above_one(tmp_path, capsys, monkeypatch):
    ran = []
    for name in cli.VERIFY_SUITES:
        monkeypatch.setitem(cli._SUITE_RUNNERS, name, lambda cfg, name=name: ran.append(name) or [
            make_report(name, 0.0, 1.0, upper=1.0)])
    cfg = write_config(tmp_path, d=2, kernel={"kind": "product-exponential"}, backend={"kind": "exact"})
    for suite in ("girsanov", "meancontrol", "concentration", "increment"):
        assert main(["verify", suite, "--config", cfg, "--out", str(tmp_path / suite)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("polymerlab: error: ") and suite in err[0]
    assert ran == []
    out = tmp_path / "all"
    assert main(["verify", "all", "--config", cfg, "--out", str(out)]) == 0
    assert ran == ["lemma21", "lemma22", "ball"]
    assert json.loads((out / "manifest.json").read_text())["outputs"] == [
        "verify_lemma21.csv", "verify_lemma22.csv", "verify_ball.csv", "verify_summary.json"]


def test_verify_increment_rows_are_the_probe_reports(tmp_path):
    out = tmp_path / "inc"
    path = write_config(tmp_path, M=50)
    assert main(["verify", "increment", "--config", path, "--out", str(out)]) in (0, 1)
    cfg = load_config(path)
    params = GibbsParams(beta=cfg.beta, M=min(cfg.M, 2000))
    expected = [[cli._fmt(v) for v in (r.name, r.estimate, r.stderr, r.lower_bound, r.upper_bound,
                                       r.margin_sigmas, r.passed)]
                for r in martingale_increment_probe(4, 4, params, cfg.seed, kernel=cfg.kernel,
                                                    h=cfg.h, L=cfg.L)]
    with open(out / "verify_increment.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(cli.REPORT_CSV_HEADER) and rows[1:] == expected
    assert [row[0] for row in rows[1:]] == [f"increment_probe(n=4,j=4,i={i},beta={cfg.beta:g})"
                                            for i in range(1, 5)] + ["increment_orthogonality(n=4)"]
    assert json.loads((out / "verify_summary.json").read_text())["increment"]["checks"] == 5


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("command, overrides, code", [
    (["verify", "girsanov"], D2_EXACT, 2),
    (["env-check"], {"backend": {"L": 0.5}}, 3),
    # the moment suites pass; girsanov is the first suite to fail
    (["verify", "all"], {"backend": {"L": 1.0}, "R": 200}, 3),
])
def test_failed_command_removes_only_the_empty_directories_it_made(tmp_path, capsys, command,
                                                                   overrides, code, threads):
    cfg = write_config(tmp_path, **overrides)
    made = tmp_path / "a" / "b" / "out"
    assert main([*command, "--config", cfg, "--out", str(made), "--threads", threads]) == code
    assert not (tmp_path / "a").exists()
    existing = tmp_path / "existing"
    existing.mkdir()
    assert main([*command, "--config", cfg, "--out", str(existing), "--threads", threads]) == code
    assert existing.is_dir() and not list(existing.iterdir())
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("polymerlab: ") for line in err)


def test_out_that_cannot_be_made_exits_two_with_one_line(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("keep")
    for out in (blocker, blocker / "sub"):
        assert main(["env-check", "--config", write_config(tmp_path), "--out", str(out)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("polymerlab: error: ") and str(out) in err[0]
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("command, overrides, field, suite", [
    (["verify", "all"], {"R": 100, "M": 100, "n_grid": [4, 9]}, "R", "concentration"),
    (["verify", "all"], {"alphas": [0.4, 0.8], "M": 50, "R": 4}, "alphas", "meancontrol"),
    (["verify", "meancontrol"], {"alphas": [0.6, 0.4]}, "alphas", "meancontrol"),
])
def test_suite_preconditions_fail_before_any_suite_runs(tmp_path, capsys, command, overrides,
                                                        field, suite):
    out = tmp_path / "out"
    assert main([*command, "--config", write_config(tmp_path, **overrides), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polymerlab: error: ")
    assert field in err[0] and suite in err[0]
    assert not list(tmp_path.rglob("*.csv")) and not out.exists()


def test_env_check_on_the_exact_backend(tmp_path):
    out, path = tmp_path / "exact", write_config(tmp_path, **D2_EXACT)
    assert main(["env-check", "--config", path, "--out", str(out)]) == 0
    with open(out / "env_check.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    kernel = load_config(path).kernel

    def point(tag):
        k, x = tag.split(";x=")
        return int(k.removeprefix("k=")), np.array([float(c) for c in x.split(";")])

    for row in rows:
        (ka, xa), (kb, xb) = point(row["position_a"]), point(row["position_b"])
        target = gamma_eval(kernel, xa - xb) if ka == kb else 0.0
        assert float(row["target_cov"]) == target
        assert abs(float(row["z"])) < 4


@pytest.mark.parametrize("command, blocked", [(["env-check"], "env_check.csv"),
                                              (["verify", "girsanov"], "verify_summary.json")])
def test_output_that_cannot_be_written_exits_two_with_one_line(tmp_path, capsys, command, blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    cfg = write_config(tmp_path, M=50, R=4)
    assert main([*command, "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("polymerlab: error: ")
    assert str(out / blocked) in err[0]
    assert not (out / "manifest.json").exists()


def test_d1_exact_backend_commands_are_byte_identical_across_threads(tmp_path):
    cfg = write_config(tmp_path, backend={"kind": "exact"}, M=20, R=4, n_grid=[2, 3, 4, 5])
    for command in ("xi-scan", "fluct-fit", "env-check"):
        data = []
        for threads in ("1", "2"):
            out = tmp_path / f"{command}-{threads}"
            assert main([command, "--config", cfg, "--out", str(out), "--threads", threads]) == 0
            outputs = json.loads((out / "manifest.json").read_text())["outputs"]
            data.append({name: (out / name).read_bytes() for name in outputs})
        assert data[0] and data[0] == data[1]


def test_manifest_records_the_numeric_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    out = tmp_path / "out"
    assert main(["env-check", "--config", write_config(tmp_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    env = manifest["numeric_environment"]
    assert env["numpy"] == np.__version__ and env["cpu_count"] >= 1
    assert env["OPENBLAS_NUM_THREADS"] == "1" and env["MKL_NUM_THREADS"] is None
    assert "OMP_NUM_THREADS" in env
    assert "numeric_environment" not in manifest["summary"]
