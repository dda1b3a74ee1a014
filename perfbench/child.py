"""Child processes of the benchmark; the parent pins BLAS threads in their environment.

``child.py setup CONFIG SEED [FOUR_ATOM_CASES]``
    Imports ``polymerlab.cli``, validates the config and prints one JSON
    line: the CLOCK_MONOTONIC reading at that moment (``ready``), the
    validated ``alphas`` and ``n_grid``, the seed to pass to polymerlab
    (see ``program_seed``) and the numeric environment.
``child.py trace SPANS_JSON CLI_ARG...``
    Runs ``polymerlab.cli.main(CLI_ARG...)`` with every layer wrapped in
    spans and writes the spans and counters to SPANS_JSON at the end.
"""

import json
import os
import platform
import sys
import time

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def numeric_env() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def program_seed(seed: int, four_atom_cases: int | None) -> int:
    """The workload seed, or the first of seed, seed + 2**32, ... with a fixed oracle load.

    The lemma21/lemma22 suites draw ten random measures of 1 to 4 atoms from
    the seed (``random_expo_cases(seed, count=10)`` in the CLI), and the
    quadrature oracle integrates each on a tensor grid of 40**atoms nodes.
    Four-atom measures cost 40 times more than the rest together, so their
    count sets the oracle's time and the peak memory; fixing it keeps the
    work of ``verify all`` the same on every seed.  Stepping by 2**32 keeps
    the seeds of distinct workload seeds below 2**32 apart.
    """
    if four_atom_cases is None:
        return seed
    from polymerlab.verify import random_expo_cases

    candidate = seed
    while sum(len(c.mu_atoms) == 4 for c in random_expo_cases(candidate, count=10)) != four_atom_cases:
        candidate += 1 << 32
    return candidate


def setup(config_path: str, seed: int, four_atom_cases: int | None) -> int:
    import polymerlab.cli  # noqa: F401  (the import is what is being timed)
    from polymerlab.config import load_config

    cfg = load_config(config_path, seed=seed)
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "alphas": list(cfg.alphas), "n_grid": list(cfg.n_grid),
                      "program_seed": program_seed(seed, four_atom_cases),
                      "env": numeric_env()}))
    return 0


def trace(spans_path: str, argv: list[str]) -> int:
    from polymerlab import cli
    from tracing import Tracer, instrument

    tracer = Tracer()
    instrument(tracer)
    code = cli.main(argv)
    with open(spans_path, "w") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2], int(sys.argv[3]),
                       int(sys.argv[4]) if len(sys.argv) > 4 else None))
    if mode == "trace":
        sys.exit(trace(sys.argv[2], sys.argv[3:]))
    sys.exit(f"unknown mode {mode!r}")
