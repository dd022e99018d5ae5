"""Workload definitions: seeded inputs, one experiment, its output count and checks.

A workload's inputs are three (sequence, beta) pairs drawn from the seed;
the library receives only those.  An experiment's cost is set mostly by
the length of its counting grid, which falls as ``beta`` or ``r`` grows
and depends on the sequence family.  So that runs of different seeds do
comparable work, the three inputs sit in three fixed cells (one family
each, a low ``r`` with a high ``beta``, middle with middle, a high ``r``
with a low ``beta``) and the seed draws each input's position in its cell,
the decay rate ``q`` of the geometric family and the order.  Together the
cells span ``R_RANGE`` and ``BETA_RANGE``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import hanoispec as hs
from hanoispec import assembly, eigensolve
from hanoispec.errors import HanoiError

R_RANGE = (0.40, 0.58)
BETA_RANGE = (0.15, 0.30)
Q_RANGE = (0.2, 0.4)
FAMILIES = ("constant", "geometric_to_limit", "explicit")
CELL_JITTER = 0.3           # share of a cell's width the seed may move an input across
ORACLE_SAMPLES = 6          # thresholds recounted with the dense oracle per input


def _in_cell(lo: float, hi: float, cell: int, u: float) -> float:
    width = (hi - lo) / len(FAMILIES)
    return round(lo + width * (cell + 0.5 + CELL_JITTER * (u - 0.5)), 6)


def generate_inputs(workload: str, seed: int) -> list:
    """The seed-determined experiment inputs of one run, as plain dicts."""
    rng = random.Random(f"{workload}/{seed}")
    inputs = []
    for cell, fam in enumerate(FAMILIES):
        r = _in_cell(*R_RANGE, cell, rng.random())
        beta = _in_cell(*BETA_RANGE, len(FAMILIES) - 1 - cell, rng.random())
        if fam == "constant":
            inp = {"family": fam, "r": r}
        elif fam == "geometric_to_limit":
            inp = {"family": fam, "r_limit": r, "q": round(rng.uniform(*Q_RANGE), 6)}
        else:
            # the mirrored partner keeps both ratios inside R_RANGE
            partner = round(R_RANGE[0] + R_RANGE[1] - r, 6)
            inp = {"family": fam, "values": [r, partner], "tail": "cycle"}
        inp["beta"] = beta
        inputs.append(inp)
    rng.shuffle(inputs)
    return inputs


def make_sequence(inp: dict) -> hs.MatchingSequence:
    fam = inp["family"]
    if fam == "constant":
        return hs.constant(inp["r"])
    if fam == "geometric_to_limit":
        return hs.geometric_to_limit(inp["r_limit"], inp["q"])
    return hs.explicit(inp["values"], tail=inp["tail"])


# ---------------------------------------------------------------------------
# Output checks (run after the timed loop)
# ---------------------------------------------------------------------------

def _check_masses(g, errors: list):
    total = float(g.masses.sum())
    if abs(total - 1.0) > 1e-12:
        errors.append(f"graph masses sum to {total!r}, not 1")


def _check_counting(exp, errors: list):
    _check_masses(exp.graph, errors)
    prev = None
    for smp in exp.samples:
        if smp.n_dirichlet > smp.n_neumann:
            errors.append(f"N_D={smp.n_dirichlet} > N_N={smp.n_neumann} at x={smp.x:g}")
        if prev is not None and (smp.n_dirichlet < prev.n_dirichlet
                                 or smp.n_neumann < prev.n_neumann):
            errors.append(f"counts decrease between x={prev.x:g} and x={smp.x:g}")
        prev = smp
    if not np.isfinite(exp.fit.slope):
        errors.append("fitted slope is not finite")


def _dense_count(pencil, x: float) -> int:
    return hs.eig_dense(pencil, dense_limit=max(eigensolve.DENSE_LIMIT, pencil.n)).count_leq(x)


def _oracle_recount(exp, rng: random.Random, errors: list, bracket_level=None):
    """Recount a seeded sample of thresholds with the dense eigensolver."""
    g = exp.graph
    p_n = assembly.assemble_neumann(g)
    p_d = assembly.apply_dirichlet(p_n, g, "v0")
    spec_n = hs.eig_dense(p_n)
    spec_d = hs.eig_dense(p_d)
    comps = {}
    if bracket_level is not None:
        for kind in ("neumann_split", "dirichlet_split"):
            comps[kind] = assembly.assemble_decoupled(g, bracket_level, kind)
    picks = rng.sample(range(len(exp.samples)), min(ORACLE_SAMPLES, len(exp.samples)))
    for i in sorted(picks):
        smp = exp.samples[i]
        want = (spec_d.count_leq(smp.x), spec_n.count_leq(smp.x))
        got = (smp.n_dirichlet, smp.n_neumann)
        if bracket_level is not None:
            want += (sum(_dense_count(c, smp.x) for c in comps["dirichlet_split"]),
                     sum(_dense_count(c, smp.x) for c in comps["neumann_split"]))
            got += (smp.lower_sum, smp.upper_sum)
        if got != want:
            errors.append(f"x={smp.x:.12g}: counted {got}, dense oracle {want}")


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    output_name: str                          # counts_per_s or pairs_per_s
    probe: str                                # kind of code that dominates: python or blas
    run: Callable[[hs.MatchingSequence, float], object]
    outputs: Callable[[object], int]          # outputs returned by one experiment
    check: Callable[[object, dict, random.Random], list]
    fingerprint: Callable[[object], tuple]    # must repeat exactly for one input


def _counting_workload(name, why, m, backend, probe, oracle, bracket_level=None):
    def run(seq, beta):
        return hs.run_counting_experiment(
            seq, m=m, s=2, beta=beta, backend=backend, bracket_level=bracket_level
        )

    def outputs(exp):
        grid = len(exp.samples)
        if exp.bracketing is None:
            return 2 * grid
        # counting_function's N_D, N_N plus bracketing's N_D, N_N and component sums
        g = exp.graph
        comps = sum(len(assembly.assemble_decoupled(g, bracket_level, kind))
                    for kind in ("neumann_split", "dirichlet_split"))
        return 2 * grid + (2 + comps) * grid

    def check(exp, inp, rng):
        errors = []
        _check_counting(exp, errors)
        if exp.bracketing is not None and not exp.bracketing.ok:
            errors.append(f"bracketing violations: {exp.bracketing.violations[:3]}")
        if oracle:
            _oracle_recount(exp, rng, errors, bracket_level)
        return errors

    def fingerprint(exp):
        return tuple((s.n_dirichlet, s.n_neumann, s.lower_sum, s.upper_sum)
                     for s in exp.samples)

    return Workload(name, why, "counts_per_s", probe, run, outputs, check, fingerprint)


RESISTANCE_LEVEL = 6


def _resistance_run(seq, beta):
    compat = hs.compatibility_check(seq, RESISTANCE_LEVEL, beta=beta)
    scaling = hs.cell_diameter_scaling(seq, RESISTANCE_LEVEL, RESISTANCE_LEVEL - 1, beta=beta)
    return compat, scaling


def _resistance_outputs(out) -> int:
    compat, scaling = out
    return 3 * len(compat.levels) + 3 * len(scaling.records)


def _resistance_check(out, inp, rng):
    compat, scaling = out
    errors = []
    for m, triple in zip(compat.levels, compat.resistances):
        if any(abs(r - 2.0 / 3.0) > 1e-9 for r in triple):
            errors.append(f"level {m}: pair resistances {triple} differ from 2/3")
    if not all(np.isfinite(d) and d > 0 for _, _, d in scaling.records):
        errors.append("a block diameter is not positive and finite")
    _check_masses(hs.build_graph(make_sequence(inp), RESISTANCE_LEVEL, 1, inp["beta"]), errors)
    return errors


def _resistance_fingerprint(out) -> tuple:
    compat, scaling = out
    values = [r for triple in compat.resistances for r in triple]
    values += [d for _, _, d in scaling.records]
    return tuple(round(v, 12) for v in values)


WORKLOADS = {
    w.name: w for w in (
        _counting_workload(
            "count-inertia",
            "Inertia counting on one level-3 pencil, factored once per grid point and "
            "bisection step: the LDL^T kernel and grid search dominate, dense never runs.",
            m=3, backend="inertia", probe="python", oracle=True,
        ),
        _counting_workload(
            "count-dense",
            "Level-5 counting where auto picks LAPACK eigh: the control for inertia "
            "changes and the home of dense-solver and memory changes.",
            m=5, backend="auto", probe="blas", oracle=False,
        ),
        _counting_workload(
            "bracketing",
            "Level-3 counting plus level-2 bracketing: thousands of inertia passes on "
            "tiny pencils and repeated ones on reassembled big ones, so per-call cost shows.",
            m=3, backend="inertia", probe="python", oracle=True, bracket_level=2,
        ),
        Workload(
            "resistance",
            "Level-6 compatibility check and block-diameter scaling: graph builds, "
            "sparse LU and a thousand grounded solves, no eigensolve.",
            "pairs_per_s", "python", _resistance_run, _resistance_outputs, _resistance_check,
            _resistance_fingerprint,
        ),
    )
}


def run_experiment(workload: Workload, inp: dict):
    """Run one experiment; HanoiError is the library's own failure signal."""
    try:
        return workload.run(make_sequence(inp), inp["beta"]), None
    except HanoiError as exc:
        return None, f"{type(exc).__name__}: {exc}"
