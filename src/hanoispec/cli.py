"""Configuration-driven command line interface.

Commands (each takes ``--config PATH`` plus optional ``--out`` and
``--quiet``):

* ``validate``: sequence-condition diagnostics, predicted dimensions,
  and graph sanity checks; exit 0 iff every invariant holds.
* ``spectrum``: eigenvalues.csv and multiplicity.csv.
* ``counting``: counting.csv, report.json and optionally loglog.svg.
* ``resistance``: compatibility.csv, diameters.csv, resistance_report.json.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure,
3 invariant or acceptance violation.

The JSON config round-trips losslessly; every output file embeds the
sha256 hash of the canonical config (as a leading comment line for CSV
and SVG, as the first key for JSON, which has no comment syntax).
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import sys
import tempfile
from dataclasses import MISSING, asdict, dataclass, field, fields, is_dataclass, replace
from typing import Iterable, Optional, Union, get_args, get_origin, get_type_hints

import numpy as np
from scipy.sparse.csgraph import connected_components

from . import analysis, geometry, resistance as res_mod, sequences
from .assembly import assemble_neumann
from .eigensolve import DENSE_LIMIT, EPS_SHIFT
from .errors import (
    ConfigError,
    DomainError,
    HanoiError,
    PencilSizeError,
    UnsupportedFamilyError,
)
from .svgplot import render_loglog

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_VIOLATION = 3


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------
#
# The dataclasses below are the config schema: config_from_dict reads the
# keys, types, defaults and allowed values off their fields, and
# config_to_dict is their asdict.  A field without a default is a required
# key.


def _ranged(ok, rule: str, default=MISSING):
    """A config field whose value, when not null, must satisfy ``ok``;
    ``rule`` completes "must ..." in the error."""
    return field(default=default, metadata={"check": (ok, rule)})


def _one_of(*choices: str, default: str):
    return _ranged(lambda v: v in choices, "be one of " + ", ".join(choices), default)


def _increasing(values) -> bool:
    """Strictly increasing and positive: each value above the one before, the first above 0."""
    return all(a < b for a, b in zip((0.0,) + values, values))


@dataclass(frozen=True)
class SolverConfig:
    # two names of block elimination, the one counting engine
    backend: str = _one_of("auto", "inertia", default="auto")
    # caps the spectrum command's whole spectrum (without k_lowest)
    dense_limit: int = _ranged(lambda v: v >= 0, "be >= 0", DENSE_LIMIT)
    eps_shift: float = _ranged(lambda v: 0.0 < v < 1e-4, "lie in (0, 1e-4)", EPS_SHIFT)
    k_lowest: Optional[int] = _ranged(lambda v: v >= 1, "be >= 1", None)


@dataclass(frozen=True)
class GridConfig:
    mode: str = _one_of("auto", "explicit", default="auto")
    # per-decade density in auto mode
    points: int = _ranged(lambda v: v >= 1, "be >= 1", 60)
    # explicit grid
    values: Optional[tuple[float, ...]] = _ranged(
        _increasing, "be strictly increasing and positive", None)


@dataclass(frozen=True)
class FitConfig:
    n_min: int = _ranged(lambda v: v >= 1, "be >= 1", 10)
    # grid cutoff quantile in auto mode
    eta: float = _ranged(lambda v: 0.0 < v <= 1.0, "lie in (0, 1]", 0.2)
    slope_tol: float = _ranged(lambda v: v >= 0.0, "be >= 0", 0.08)


OUTPUT_FORMATS = ("csv", "json", "svg")  # csv and json are always written


@dataclass(frozen=True)
class OutputConfig:
    directory: str = "out"
    formats: tuple[str, ...] = ("csv", "json")


@dataclass(frozen=True)
class RunConfig:
    sequence: sequences.MatchingSequence
    level: int = _ranged(lambda v: v >= 0, "be >= 0")
    beta: float = _ranged(lambda v: 0.0 < v < 1.0 / 3.0,
                          "lie in (0, 1/3) for a finite line measure")
    subdivisions: int = _ranged(lambda v: v >= 1, "be >= 1", 1)
    solver: SolverConfig = SolverConfig()
    grid: GridConfig = GridConfig()
    fit: FitConfig = FitConfig()
    outputs: OutputConfig = OutputConfig()
    bracketing_level: Optional[int] = None


def _dotted(key: str, name: str) -> str:
    return f"{key}.{name}" if key else name


def _object(d, key: str) -> dict:
    if not isinstance(d, dict):
        raise ConfigError(f"{key or 'config'}: expected an object, got {type(d).__name__}")
    return d


def _from_dict(cls, d, key: str = "", names: Optional[tuple] = None):
    """Build dataclass ``cls`` from the JSON object ``d`` found at dotted ``key``.

    ``names`` restricts the accepted keys to a subset of the fields.
    """
    by_name = {f.name: f for f in fields(cls)}
    names = names or tuple(by_name)
    for name in _object(d, key):
        if name not in names:
            raise ConfigError(f"config: unknown key {_dotted(key, name)!r}")
    hints = get_type_hints(cls)
    kwargs = {}
    for name in names:
        if name in d:
            value = _convert(hints[name], d[name], _dotted(key, name))
            ok, rule = by_name[name].metadata.get("check", (None, None))
            if value is not None and ok is not None and not ok(value):
                raise ConfigError(f"{_dotted(key, name)}: must {rule}, got {value!r}")
            kwargs[name] = value
        elif by_name[name].default is MISSING:
            raise ConfigError(f"config: missing key {_dotted(key, name)!r}")
    return cls(**kwargs)


def _convert(tp, value, key: str):
    """Convert one JSON value to the field type ``tp``."""
    if tp is sequences.MatchingSequence:
        return _sequence_from_dict(value, key)
    if is_dataclass(tp):
        return _from_dict(tp, value, key)
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:             # Optional[X]
        return None if value is None else _convert(args[0], value, key)
    if origin is tuple:             # tuple[X, ...]
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key}: expected a list, got {type(value).__name__}")
        return tuple(_convert(args[0], v, f"{key}[{i}]") for i, v in enumerate(value))
    if tp is str:
        if not isinstance(value, str):
            raise ConfigError(f"{key}: expected a string, got {type(value).__name__}")
        return value
    # a finite JSON number, not a boolean or a string (Python's json reads
    # Infinity and NaN); an int field takes only integral ones
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
        isinstance(value, float) and not math.isfinite(value)
    ) or (tp is int and not (isinstance(value, int) or value.is_integer())):
        kind = "an integer" if tp is int else "a finite number"
        raise ConfigError(f"{key}: expected {kind}, got {value!r}")
    return tp(value)


def _sequence_from_dict(d, key: str) -> sequences.MatchingSequence:
    kind = _object(d, key).get("kind")
    if not isinstance(kind, str) or kind not in sequences.KIND_KEYS:
        raise ConfigError(
            f"{key}.kind: unknown kind {kind!r}, expected one of "
            + ", ".join(sequences.KIND_KEYS)
        )
    try:
        return _from_dict(
            sequences.MatchingSequence, d, key, ("kind",) + sequences.KIND_KEYS[kind]
        )
    except DomainError as exc:
        raise ConfigError(f"{key}: {exc}") from None


def config_from_dict(d: dict) -> RunConfig:
    cfg = _from_dict(RunConfig, d)
    if cfg.bracketing_level is not None:
        if not (1 <= cfg.bracketing_level < cfg.level):
            raise ConfigError(
                f"bracketing_level: must satisfy 1 <= bracketing_level < level = "
                f"{cfg.level}, got {cfg.bracketing_level}"
            )
        if cfg.subdivisions < 2:
            raise ConfigError(
                "subdivisions: bracketing needs subdivisions >= 2 so the grounded "
                f"bridges keep interior nodes, got {cfg.subdivisions}"
            )
    if cfg.grid.mode == "explicit" and not cfg.grid.values:
        raise ConfigError("grid.values: explicit grid mode needs values")
    for i, fmt in enumerate(cfg.outputs.formats):
        if fmt not in OUTPUT_FORMATS:
            raise ConfigError(
                f"outputs.formats[{i}]: unknown format {fmt!r}, expected one of "
                + ", ".join(OUTPUT_FORMATS)
            )
    return cfg


def config_to_dict(cfg: RunConfig) -> dict:
    d = asdict(cfg)
    keys = ("kind",) + sequences.KIND_KEYS[cfg.sequence.kind]
    d["sequence"] = {k: getattr(cfg.sequence, k) for k in keys}
    return d


def config_hash(cfg: RunConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path!r}: not UTF-8 text: {exc.reason}") from None
    return config_from_dict(data)


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def atomic_write(path: str, text: Union[str, Iterable[str]]):
    """Write text, or each string of an iterable in turn, to path by way
    of a temporary file in its directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_csv(path: str, header: list, rows: Iterable, cfg_hash: str):
    """One line per row, streamed to the file as rows yields them."""
    atomic_write(path, itertools.chain(
        (f"# config={cfg_hash}\n", ",".join(header) + "\n"),
        (",".join(_fmt(v) for v in row) + "\n" for row in rows)))


def write_json(path: str, payload: dict, cfg_hash: str):
    body = {"config_hash": cfg_hash}
    body.update(payload)
    atomic_write(path, json.dumps(body, indent=2) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _say(quiet: bool, *parts):
    if not quiet:
        print(*parts)


def _prediction_payload(seq) -> dict:
    try:
        pred = sequences.predicted_dimensions(seq)
    except UnsupportedFamilyError:
        return {"kind": "diagnostics_only"}
    return {key: v for key, v in asdict(pred).items() if v is not None}


# Bytes validate takes at its peak per vertex, a measurement: its peak RSS
# less that of level 1 is 364-365 bytes a vertex at levels 10-12 with
# s = 1 and 319-332 with s = 2 (constant(0.5), numpy 2.4, scipy 1.17).
_VALIDATE_BYTES_PER_VERTEX = 370


def cmd_validate(cfg: RunConfig, quiet: bool = False) -> int:
    report = sequences.validate_conditions(cfg.sequence, max(cfg.level, 40))
    _say(quiet, f"sequence {report.family}: {report.verdict}")
    for w in report.warnings:
        _say(quiet, f"  warning: {w}")
    pred = _prediction_payload(cfg.sequence)
    if pred["kind"] == "limit":
        _say(quiet, f"predicted d_S = {pred['d_s']:.6f}, dim_H = {pred['dim_h']:.6f}")
    elif pred["kind"] == "band":
        _say(quiet, f"predicted d_S in [{pred['d_s_lower']:.6f}, {pred['d_s_upper']:.6f}]")
    if "violated" in report.verdict:
        _say(quiet, f"FAIL sequence-conditions: {report.verdict}")
        return EXIT_VIOLATION

    m, s = cfg.level, cfg.subdivisions
    n = geometry.vertex_count(m, s)
    geometry.check_memory(_VALIDATE_BYTES_PER_VERTEX * n,
                          f"validating the level-{m} graph ({n} vertices)")
    g = geometry.build_graph(cfg.sequence, m, s, cfg.beta)
    nv_expect = 3 ** (m + 1) + (s - 1) * (3 ** (m + 1) - 3) // 2
    ne_expect = 3 ** (m + 1) + s * (3 ** (m + 1) - 3) // 2
    checks = [
        ("vertex-count", g.n_vertices == nv_expect),
        ("edge-count", g.n_edges == ne_expect),
        ("total-mass", abs(float(g.masses.sum()) - 1.0) <= 1e-12),
    ]
    p = assemble_neumann(g)
    ncomp, _ = connected_components(p.L, directed=False)
    checks.append(("connectivity", ncomp == 1))
    bounds_ok = True
    for j in range(m + 1):
        mu = geometry.cell_mass(j, cfg.beta)
        if not (cfg.beta ** j <= mu + 1e-15 and mu <= 3.0 ** (-j) + 1e-15):
            bounds_ok = False
    checks.append(("measure-bounds", bounds_ok))
    _say(quiet, f"graph level {m}, s={s}: {g.n_vertices} vertices, {g.n_edges} edges, "
                f"total mass {float(g.masses.sum()):.15f}")
    for name, ok in checks:
        if not ok:
            _say(quiet, f"FAIL {name}")
            return EXIT_VIOLATION
    _say(quiet, "all invariant checks pass")
    return EXIT_OK


def cmd_spectrum(cfg: RunConfig, quiet: bool = False) -> int:
    # eigenvalues are the midpoints of brackets from block-elimination counts,
    # and overlapping brackets one eigenvalue; no graph or eigensolver runs
    h = config_hash(cfg)
    k = cfg.solver.k_lowest
    n = geometry.vertex_count(cfg.level, cfg.subdivisions)
    if n > cfg.solver.dense_limit and k is None:
        raise PencilSizeError(
            f"pencil of size {n} exceeds dense_limit {cfg.solver.dense_limit}; "
            "request solver.k_lowest or use the counting command"
        )
    brackets = analysis.eigenvalue_brackets(cfg.sequence, cfg.level, cfg.subdivisions,
                                            cfg.beta, k or n)
    rows, mult_rows, widest = [], [], 0.0
    for label, (lo, hi) in zip(("neumann", "dirichlet_v0"), brackets):
        for i, lam in enumerate(0.5 * (lo + hi), start=1):
            rows.append((i, float(lam), label))
        for value, mult in analysis.eigenvalue_groups(lo, hi):
            mult_rows.append((label, value, mult))
        widest = max(widest, float(np.max((hi - lo) / np.maximum(hi, 1e-300), initial=0.0)))
    outdir = cfg.outputs.directory
    write_csv(os.path.join(outdir, "eigenvalues.csv"), ["k", "lambda", "boundary"], rows, h)
    write_csv(
        os.path.join(outdir, "multiplicity.csv"),
        ["boundary", "lambda", "multiplicity"], mult_rows, h,
    )
    _say(quiet, f"wrote eigenvalues.csv and multiplicity.csv to {outdir}; "
                f"widest bracket {widest:.2g} of its eigenvalue")
    return EXIT_OK


def cmd_counting(cfg: RunConfig, quiet: bool = False) -> int:
    h = config_hash(cfg)
    grid = np.asarray(cfg.grid.values) if cfg.grid.mode == "explicit" else None
    exp = analysis.run_counting_experiment(
        cfg.sequence,
        cfg.level,
        cfg.subdivisions,
        cfg.beta,
        backend=cfg.solver.backend,
        eps_shift=cfg.solver.eps_shift,
        eta=cfg.fit.eta,
        per_decade=cfg.grid.points,
        grid=grid,
        policy=analysis.WindowPolicy(n_min=cfg.fit.n_min, slope_tol=cfg.fit.slope_tol),
        bracket_level=cfg.bracketing_level,
    )
    outdir = cfg.outputs.directory
    rows = []
    for smp, (x, ratio) in zip(exp.samples, exp.weyl_series):
        rows.append((smp.x, smp.n_dirichlet, smp.n_neumann, smp.lower_sum,
                     smp.upper_sum, ratio))
    write_csv(
        os.path.join(outdir, "counting.csv"),
        ["x", "n_dirichlet", "n_neumann", "lower_sum", "upper_sum", "weyl_ratio"],
        rows, h,
    )
    fit = exp.fit
    verdict = "pass" if (fit.passed and (exp.bracketing is None or exp.bracketing.ok)) \
        else "fail"
    payload = {
        "sequence": cfg.sequence.describe(),
        "level": cfg.level,
        "subdivisions": cfg.subdivisions,
        "beta": cfg.beta,
        "prediction": _prediction_payload(cfg.sequence),
        "fit": {key: v for key, v in asdict(fit).items() if key != "passed"},
        "weyl_envelope": {"c1": exp.c1, "c2": exp.c2},
        "bracketing": (
            None if exp.bracketing is None else {
                "level": exp.bracketing.level,
                "violations": list(exp.bracketing.violations),
            }
        ),
        "verdict": verdict,
        "work": exp.work,
    }
    write_json(os.path.join(outdir, "report.json"), payload, h)
    if "svg" in cfg.outputs.formats:
        pts = [(smp.x, smp.n_neumann) for smp in exp.samples if smp.n_neumann > 0]
        guide = fit.predicted if not isinstance(fit.predicted, tuple) \
            else 0.5 * (fit.predicted[0] + fit.predicted[1])
        svg = render_loglog(
            pts, fit.slope, fit.intercept, guide,
            title="eigenvalue counting", header_comment=f"config={h}",
        )
        atomic_write(os.path.join(outdir, "loglog.svg"), svg)
    _say(quiet, f"fit: {fit.describe()}")
    _say(quiet, f"verdict: {verdict}")
    return EXIT_OK if verdict == "pass" else EXIT_VIOLATION


def cmd_resistance(cfg: RunConfig, quiet: bool = False) -> int:
    h = config_hash(cfg)
    outdir = cfg.outputs.directory
    # the diameters first: their size check refuses a level before any work or output
    scaling = None
    if cfg.level >= 1:
        scaling = res_mod.cell_diameter_scaling(
            cfg.sequence, cfg.level, cfg.level - 1, beta=cfg.beta
        )
    compat = res_mod.compatibility_check(cfg.sequence, cfg.level, beta=cfg.beta)
    rows = []
    for m, triple in zip(compat.levels, compat.resistances):
        for pair, r in zip(("p1-p2", "p1-p3", "p2-p3"), triple):
            rows.append((m, pair, r, abs(r - 2.0 / 3.0)))
    write_csv(
        os.path.join(outdir, "compatibility.csv"),
        ["m", "pair", "resistance", "deviation"], rows, h,
    )
    payload = {
        "sequence": cfg.sequence.describe(),
        "compatibility": {
            "max_deviation": compat.max_deviation,
            "tolerance": compat.tolerance,
            "ok": compat.ok,
        },
    }
    if scaling is not None:
        write_csv(
            os.path.join(outdir, "diameters.csv"),
            ["j", "word", "diameter"],
            ((j, w or "-", d) for (j, w, d) in scaling.records), h,
        )
        if cfg.level >= 2:  # a one-level record has no slope to fit
            payload["diameter_fit"] = {
                "slope": scaling.slope,
                "slope_raw": scaling.slope_raw,
                "dimension_estimate": scaling.dimension_estimate,
                "predicted_dimension": scaling.predicted_dimension,
                "corner_chain_dimension": res_mod.corner_chain_dimension(cfg.sequence),
            }
    payload["verdict"] = "pass" if compat.ok else "fail"
    write_json(os.path.join(outdir, "resistance_report.json"), payload, h)
    _say(quiet, f"compatibility max deviation: {compat.max_deviation:.3e}")
    _say(quiet, f"verdict: {payload['verdict']}")
    return EXIT_OK if compat.ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Exits with EXIT_CONFIG on a usage error (argparse's own code, 2, is EXIT_NUMERICAL)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hanoispec",
        description="Spectral and resistance experiments on Hanoi attractor graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in COMMANDS.items():
        cp = sub.add_parser(name, help=fn.__doc__)
        cp.add_argument("--config", required=True, help="path to the JSON run config")
        cp.add_argument("--out", default=None, help="override the output directory")
        cp.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


COMMANDS = {
    "validate": cmd_validate,
    "spectrum": cmd_spectrum,
    "counting": cmd_counting,
    "resistance": cmd_resistance,
}


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg = replace(cfg, outputs=replace(cfg.outputs, directory=args.out))
        return COMMANDS[args.command](cfg, quiet=args.quiet)
    except (ConfigError, PencilSizeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except HanoiError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
