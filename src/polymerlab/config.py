"""Run configuration: one JSON document with every default embedded.

The merged configuration is echoed into the run manifest so any output
directory is self-describing.  Validation failures name the offending
field; the CLI maps them to exit code 2.
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass, field

from .environment import BACKENDS
from .kernels import KERNEL_KINDS, KernelSpec

DEFAULT_CONFIG = {
    "seed": 20240817,
    "d": 1,
    "beta": 0.5,
    "kernel": {"kind": "exponential-petermann", "lambda": 1.0, "normalize_unit_variance": True},
    "backend": {"kind": "grid", "h": None, "L": None},
    "n_grid": [4, 9, 16, 25],
    "alphas": [0.6, 0.7, 0.75, 0.8],
    "nu": 0.75,
    "M": 1000,
    "R": 200,
    "threads": 1,
    "output_dir": "polymerlab-out",
}


class ConfigError(ValueError):
    """Invalid or unreadable run configuration."""


def _merge(base: dict, override: dict, path: str = "") -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown config field {where!r}")
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config field {where!r} must be an object")
            out[key] = _merge(base[key], value, where)
        else:
            out[key] = value
    return out


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ConfigError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # the bound also rejects NaN, the infinities and ints beyond float range
    return (_is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


@dataclass(frozen=True)
class RunConfig:
    seed: int
    d: int
    beta: float
    kernel: KernelSpec
    backend_kind: str
    h: float | None
    L: float | None
    n_grid: tuple
    alphas: tuple
    nu: float
    M: int
    R: int
    threads: int
    output_dir: str
    raw: dict = field(repr=False, default_factory=dict)

    def env_seeds(self, count: int | None = None) -> list[int]:
        """Per-replica environment seeds derived from the run seed."""
        return [self.seed + r for r in range(self.R if count is None else count)]


def validate_config(doc: dict) -> RunConfig:
    _require(_is_int(doc.get("seed")), "seed must be an integer")
    seed = doc["seed"] & 0xFFFFFFFFFFFFFFFF
    beta = doc.get("beta")
    _require(_is_real(beta) and beta >= 0, "beta must be a finite real >= 0")

    kdoc = doc["kernel"]
    _require(kdoc.get("kind") in KERNEL_KINDS,
             f"kernel.kind must be one of {KERNEL_KINDS}, got {kdoc.get('kind')!r}")
    lam = kdoc.get("lambda")
    _require(_is_real(lam) and lam > 0, "kernel.lambda must be a positive finite real")
    _require(isinstance(kdoc.get("normalize_unit_variance"), bool),
             "kernel.normalize_unit_variance must be true or false")
    kernel = KernelSpec(kind=kdoc["kind"], lam=float(lam),
                        normalize_unit_variance=kdoc["normalize_unit_variance"])

    bdoc = doc["backend"]
    _require(bdoc.get("kind") in BACKENDS,
             f"backend.kind must be {' or '.join(map(repr, BACKENDS))}, got {bdoc.get('kind')!r}")
    for name in ("h", "L"):
        value = bdoc.get(name)
        _require(value is None or (_is_real(value) and value > 0),
                 f"backend.{name} must be a positive finite real when given")

    n_grid = doc["n_grid"]
    _require(isinstance(n_grid, list) and len(n_grid) > 0, "n_grid must be a nonempty list")
    _require(all(_is_int(n) and n >= 1 for n in n_grid), "n_grid entries must be integers >= 1")
    _require(all(a < b for a, b in zip(n_grid, n_grid[1:])), "n_grid must be strictly ascending")

    alphas = doc["alphas"]
    _require(isinstance(alphas, list) and len(alphas) > 0, "alphas must be a nonempty list")
    _require(all(_is_real(a) and a > 0 for a in alphas), "alphas entries must be positive finite reals")
    _require(len(set(alphas)) == len(alphas), "alphas entries must be distinct")

    _require(_is_real(doc.get("nu")) and doc["nu"] > 0.5, "nu must be a finite real above 0.5")
    for name, low in (("d", 1), ("M", 2), ("R", 2), ("threads", 1)):
        _require(_is_int(doc.get(name)) and doc[name] >= low, f"{name} must be an integer >= {low}")
    _require(doc["d"] == 1 or (bdoc["kind"] == "exact" and kernel.kind != "exponential-petermann"),
             "d > 1 needs backend.kind 'exact' and a kernel.kind other than 'exponential-petermann', "
             f"got {bdoc['kind']!r} and {kernel.kind!r}")
    _require(isinstance(doc.get("output_dir"), str) and doc["output_dir"], "output_dir must be a nonempty string")

    return RunConfig(
        seed=seed, d=doc["d"], beta=float(beta), kernel=kernel,
        backend_kind=bdoc["kind"],
        h=None if bdoc.get("h") is None else float(bdoc["h"]),
        L=None if bdoc.get("L") is None else float(bdoc["L"]),
        n_grid=tuple(n_grid), alphas=tuple(float(a) for a in alphas),
        nu=float(doc["nu"]), M=doc["M"], R=doc["R"], threads=doc["threads"],
        output_dir=doc["output_dir"], raw=doc)


def load_config(path: str | None = None, seed: int | None = None,
                threads: int | None = None, output_dir: str | None = None) -> RunConfig:
    """Merge a JSON config file (if any) and CLI overrides into the defaults."""
    doc = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            with open(path) as fh:
                loaded = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config document must be a JSON object")
        doc = _merge(doc, loaded)
    if seed is not None:
        doc["seed"] = seed
    if threads is not None:
        doc["threads"] = threads
    if output_dir is not None:
        doc["output_dir"] = output_dir
    return validate_config(doc)
