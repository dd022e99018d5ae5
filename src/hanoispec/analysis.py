"""Counting functions, exponent fits, bracketing and the 1D reference.

The headline experiment samples the Dirichlet and Neumann eigenvalue
counting functions N(x) on a log grid, fits the log-log slope of N_N over
a window that drops the pre-asymptotic head (N_N < n_min), and compares
the slope against half the predicted spectral dimension.  The
discretization-polluted tail is left out by the grid itself: auto_grid
ends at the eta-quantile Neumann eigenvalue.

Every count of an experiment comes from one GraphCounts, which picks
the backend for the level-m graph once: block elimination (inertia,
BlockInertiaCounter, also what auto means at every size), which needs
only the scale factors and builds no graph, or LAPACK spectra (dense,
the reference).  auto_grid and counting_function take it and never see
a pencil or a backend name; auto_grid finds its ends by log-space
multisection (_bisect_quantiles) on the block counter's N_N under
either backend, so the two backends give the same grid.  Both read only
certified counts, which are exact, so no count is dropped or nudged.
The same multisection on single float counts, whose errors near a
cluster its 1e-13 brackets bound, gives the spectrum without the graph
(eigenvalue_brackets, eigenvalue_groups).

The bracketing check sandwiches the counting functions between the
component sums of the level-j decoupled forms: grounding V_j can only
lower counts, splitting the coupling corners can only raise them, so

    lowerSum(x) <= N_D(x) <= N_N(x) <= upperSum(x)

must hold as exact integers at every x sampled for N_D and N_N.  The
sums come from the block-elimination pass of the level-m graph, whose
level-j blocks and bridges are the components, in the same call as the
counts; the component pencils of assemble_decoupled are only the
independent oracle of the tests.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .assembly import (
    Pencil,
    _laplacian_from_edges,
    apply_dirichlet,
    assemble_neumann,
)
from .eigensolve import (
    DENSE_LIMIT,
    EPS_SHIFT,
    BlockInertiaCounter,
    eig_dense,
)
from .errors import (
    ConvergenceError,
    DomainError,
    InsufficientDataError,
    LevelError,
    PencilSizeError,
    ThresholdAtEigenvalueError,
)
from .geometry import GraphApprox, build_graph
from .sequences import MatchingSequence, PredictionSet, predicted_dimensions


# ---------------------------------------------------------------------------
# Counting functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountingSample:
    x: float
    n_dirichlet: int
    n_neumann: int
    lower_sum: Optional[int] = None
    upper_sum: Optional[int] = None


# The most points auto_grid lays out, whatever the window's width in decades.
MAX_GRID_POINTS = 400
# Sections of one open grid-end bracket per pass: 126 points for auto_grid's
# two ends, which one block elimination counts for about the cost of a few.
SECTIONS = 64
# A bracket without a lower end yet is cut on [hi * LADDER, hi]: for the
# grid a ladder of hi * 8**(-j/8) down to about 7.7e-8 * hi, so no pass
# counts near x = 0, where the Neumann zero eigenvalue stops block elimination.
LADDER = 8.0 ** -8
# Passes of the grid-end multisection before it raises ConvergenceError: a
# ladder reaches 63/8 powers of 8 (7.1 decades) below its top and two passes
# narrow one of its sections to 1e-4, so 16 leave room for 13 ladders and 3
# narrowing passes, and ends up to 90 decades below the bound converge.
MAX_PASSES = 16


class GraphCounts:
    """The counting functions of one level-m graph, from the backend chosen for it.

    The backend is picked once.  ``inertia`` (and ``auto``, its synonym at
    every size) counts by block elimination (``BlockInertiaCounter``)
    from the scale factors, every threshold of a call in one pass, and
    builds no graph.  ``dense`` is the reference path: it builds the graph
    and reads the counts off the LAPACK spectra of the Neumann pencil and
    the V_0-grounded one, for graphs of at most ``dense_limit`` vertices.
    On families with ratios r below about 0.11 its 1e-9 threshold shift is
    under LAPACK's error on clustered eigenvalues, so it can miscount
    there; only an explicit ``dense`` reaches that path.  The bracketing
    sums and the ends of ``auto_grid`` come from block elimination with
    either backend.  ``n`` (the number of vertices) and ``lambda_max``
    (the Gershgorin bound of the Neumann pencil) are the counter's closed forms.
    """

    def __init__(self, seq: MatchingSequence, m: int, s: int, beta: float,
                 backend: str = "auto", dense_limit: int = DENSE_LIMIT,
                 eps_shift: float = EPS_SHIFT):
        if backend not in ("auto", "dense", "inertia"):
            raise DomainError(f"unknown backend {backend!r}")
        self._blocks = BlockInertiaCounter(seq, m, s, beta)
        self.m, self.s, self.n = m, s, self._blocks.n
        self.lambda_max = self._blocks.lambda_max
        self.eps_shift = eps_shift
        self._spectra = None
        if backend == "dense":
            if self.n > dense_limit:
                raise PencilSizeError(
                    f"the level-{m} graph has {self.n} vertices, above the dense limit "
                    f"{dense_limit}; use the inertia backend at this size"
                )
            g = build_graph(seq, m, s, beta)
            p_n = assemble_neumann(g)
            self._spectra = (eig_dense(apply_dirichlet(p_n, g, "v0"), dense_limit),
                             eig_dense(p_n, dense_limit))

    def count(self, xs, level: Optional[int] = None) -> np.ndarray:
        """Rows N_D and N_N, #{lambda <= x} at each threshold x; with a
        bracketing level j, 1 <= j < m, then lowerSum_j and upperSum_j.
        Block elimination (only the sums under ``dense``) counts at
        x (1 + eps_shift), every count certified."""
        if level is not None:
            _check_bracketing(self.m, self.s, level)
        xs = np.asarray(xs, dtype=float)
        rows = [spec.count_leq(xs, self.eps_shift) for spec in self._spectra or ()]
        if self._spectra is not None and level is None:
            return np.array(rows)
        counts = self._blocks.count(xs * (1.0 + self.eps_shift), level)
        return np.array(rows + list(counts[len(rows):]))


def counting_function(
    counts: GraphCounts,
    grid: Sequence[float],
    level: Optional[int] = None,
) -> list[CountingSample]:
    """Sample N_D and N_N on the grid, and with a bracketing level j the
    sums lowerSum_j and upperSum_j, all from one call of ``counts``."""
    grid = _checked_grid(grid)
    try:
        rows = counts.count(grid, level)
    except (ConvergenceError, ThresholdAtEigenvalueError) as exc:
        raise type(exc)(
            f"counting failed on the grid [{grid[0]:g}, {grid[-1]:g}]: {exc}"
        ) from None
    return [CountingSample(x, *col) for x, col in zip(grid.tolist(), rows.T.tolist())]


def _checked_grid(grid: Sequence[float]) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if (len(grid) == 0 or not np.all(np.isfinite(grid)) or np.any(grid <= 0)
            or np.any(np.diff(grid) <= 0)):
        raise DomainError("grid must be finite, strictly increasing and positive")
    return grid


def auto_grid(counts: GraphCounts, eta: float = 0.2, per_decade: int = 60) -> np.ndarray:
    """Log-spaced grid from the 10th Neumann eigenvalue to the eta-quantile cutoff.

    The cutoff lambda_ceil(eta*n) marks the part of the discrete spectrum
    trusted to approximate the continuum.  Both ends are found together by
    log-space multisection to 1e-4 relative width on the block counter's
    certified N_N at x (1 + eps_shift), whatever the backend of ``counts``
    (``_grid_ends``).  Each pass cuts every open bracket into SECTIONS
    log-uniform sections, whose ends are closed forms, and counts them in
    one block elimination; until an end has a lower bracket, its pass
    counts a ladder down to 8**(-63/8), about 7.7e-8, times its upper one,
    so an end up to 90 decades below the Gershgorin bound converges.  The
    grid has per_decade points a decade, at least 16 and at most
    MAX_GRID_POINTS.
    """
    blocks, shift = counts._blocks, 1.0 + counts.eps_shift
    x_lo, x_hi = _grid_ends(lambda xs: blocks.count(xs * shift)[1],
                            counts.n, counts.lambda_max, eta)
    if x_hi <= x_lo * (1.0 + 1e-9):
        raise InsufficientDataError(
            f"degenerate grid window [{x_lo:g}, {x_hi:g}]; the graph is too small"
        )
    n_points = int(round(per_decade * math.log10(x_hi / x_lo)))
    n_points = min(max(n_points, 16), MAX_GRID_POINTS)
    return np.geomspace(x_lo, x_hi, n_points)


def _grid_ends(count, n: int, upper: float, eta: float) -> tuple[float, float]:
    """auto_grid's ends: the upper ends of the brackets of lambda_10 and
    lambda_ceil(eta n) of an n-vertex graph whose N_N is ``count`` and
    whose eigenvalues lie below ``upper``, by ``_bisect_quantiles`` with
    its defaults."""
    k_lo = min(10, n - 1)
    k_hi = max(k_lo + 1, min(n, math.ceil(eta * n)))
    _, (x_lo, x_hi) = _bisect_quantiles(count, (k_lo, k_hi), upper)
    return float(x_lo), float(x_hi)


def _bisect_quantiles(count, ks, upper: float, rtol: float = 1e-4,
                      max_passes: int = MAX_PASSES,
                      sections: int = SECTIONS) -> tuple[np.ndarray, np.ndarray]:
    """Brackets (lo, hi) of the smallest x with N(x) >= k for each k, by
    log-space multisection to rtol relative width; the defaults are auto_grid's.

    ``count`` maps sorted thresholds to N.  Each pass counts the
    ``sections - 1`` log-uniform points of every open bracket
    (``_section_ends``) in one call, then moves each k's ends to the
    largest x with N(x) < k and the smallest with N(x) >= k, so every
    point narrows every bracket it falls in.  A bracket still open after
    max_passes passes, one with no count below it (lo = 0) among them,
    raises ConvergenceError.

    A call's cost is mostly its fixed overhead on auto_grid's two narrow
    ends, so they take 64 sections: a ladder pass of 63 points and two of
    126 narrow both to 1e-4.  eigenvalue_brackets' passes are wide and take
    8: with 64 the full level-6 spectrum took 0.24 s in place of 0.066 s.
    """
    ks = np.asarray(ks)
    # above the Gershgorin bound N = n, and no caller asks for a k above n
    lo, hi = np.zeros(ks.size), np.full(ks.size, upper * 1.0001)
    for passes in range(max_passes + 1):
        open_ = hi >= lo * (1.0 + rtol)
        if passes == max_passes or not open_.any():
            break
        xs = np.unique(_section_ends(lo[open_], hi[open_], sections))
        n = np.asarray(count(xs))
        # the last x with N(x) < k and the first with N(x) >= k, by suffix
        # minima and prefix maxima of N in any order; 0 and inf stand for none
        last_below = np.searchsorted(np.minimum.accumulate(n[::-1])[::-1], ks)
        first_at = np.searchsorted(np.maximum.accumulate(n), ks)
        xs = np.concatenate(([0.0], xs, [np.inf]))
        lo, hi = np.maximum(lo, xs[last_below]), np.minimum(hi, xs[first_at + 1])
    if open_.any():
        i = int(np.argmax(open_))
        raise ConvergenceError(f"multisection for the {ks[i]}-th eigenvalue stopped at "
                               f"[{lo[i]:g}, {hi[i]:g}] after {passes} passes, starting "
                               f"from the bound {upper:g}")
    return lo, hi


def _section_ends(lo: np.ndarray, hi: np.ndarray, sections: int) -> np.ndarray:
    """The interior section ends lo (hi / lo)**(j / sections), j = 1 ..
    sections - 1, of each bracket (lo, hi), one row a bracket, with lo
    raised to hi * LADDER."""
    lo = np.maximum(lo, hi * LADDER)
    return lo[:, None] * (hi / lo)[:, None] ** (np.arange(1, sections) / sections)


def eigenvalue_brackets(seq: MatchingSequence, m: int, s: int, beta: float,
                        k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Brackets [(lo, hi)] with lambda_i in [lo_i, hi_i] of the k lowest
    eigenvalues (all, for k past the rows) of the level-m graph's Neumann
    pencil, then of its V_0-grounded one, from multisection on the block
    counter's single float counts of N_N and N_D to 1e-13 relative width;
    no graph is built.  The Neumann lambda_1 is exactly 0, because the
    graph is connected.
    """
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    counter = BlockInertiaCounter(seq, m, s, beta)
    out = []
    for row, first, n in ((1, 2, counter.n), (0, 1, counter.n - 3)):    # N_N, then N_D
        # 8 sections a pass; MAX_PASSES passes of them reach below lambda_1
        # from the bound, as many narrow
        ends = _bisect_quantiles(lambda xs: counter._float_count(xs)[row],
                                 np.arange(first, min(k, n) + 1), counter.lambda_max,
                                 rtol=1e-13, max_passes=2 * MAX_PASSES, sections=8)
        # crossed ends (counts that disagree near a cluster) bound it; the
        # Neumann lambda_1 comes first as 0
        out.append(tuple(np.pad(f(ends, axis=0), (first - 1, 0)) for f in (np.min, np.max)))
    return out


def eigenvalue_groups(lo: np.ndarray, hi: np.ndarray) -> list[tuple[float, int]]:
    """(mean midpoint, multiplicity) of each distinct eigenvalue of sorted
    brackets: a new one starts where a bracket lies strictly above the one
    before (brackets that only touch share one count, which rounding near a
    cluster can flip)."""
    ends = np.concatenate(([0], np.flatnonzero(lo[1:] > hi[:-1]) + 1, [lo.size])).tolist()
    mid = 0.5 * (lo + hi)
    return [(float(np.mean(mid[a:b])), b - a) for a, b in zip(ends[:-1], ends[1:]) if b > a]


# ---------------------------------------------------------------------------
# Exponent fitting
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WindowPolicy:
    """Sample filter for the log-log fit: N_N >= n_min; the verdict's tolerance."""

    n_min: int = 10
    slope_tol: float = 0.08


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    stderr: float
    window: tuple
    n_points: int
    predicted: Optional[object]     # float for limit families, (lo, hi) for bands
    deviation: Optional[float]
    tolerance: float
    passed: Optional[bool]

    def describe(self) -> str:
        out = f"slope {self.slope:.5f} +/- {self.stderr:.5f} over {self.n_points} points"
        if self.predicted is not None:
            out += f", predicted {self.predicted}, deviation {self.deviation:.5f}"
        return out


def fit_exponent(
    samples: Sequence[CountingSample],
    policy: WindowPolicy = WindowPolicy(),
    prediction: Optional[PredictionSet] = None,
) -> FitResult:
    """Least-squares slope of log N_N against log x over the policy window."""
    xs, ns = [], []
    for smp in samples:
        if smp.n_neumann >= policy.n_min:
            xs.append(smp.x)
            ns.append(smp.n_neumann)
    if len(xs) < 8:
        lo = min((s.x for s in samples), default=float("nan"))
        hi = max((s.x for s in samples), default=float("nan"))
        raise InsufficientDataError(
            f"only {len(xs)} samples survive the window policy on [{lo:g}, {hi:g}]; "
            "need at least 8"
        )
    t = np.log(np.array(xs))
    y = np.log(np.array(ns, dtype=float))
    A = np.vstack([t, np.ones_like(t)]).T
    coef, res, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    dof = len(t) - 2
    if dof > 0:
        ss = float(res[0]) if len(res) else float(np.sum((y - A @ coef) ** 2))
        stderr = math.sqrt(ss / dof / float(np.sum((t - t.mean()) ** 2)))
    else:
        stderr = float("nan")
    predicted = deviation = passed = None
    if prediction is not None:
        predicted = prediction.half_exponent
        if prediction.kind == "limit":
            deviation = abs(slope - predicted)
        else:
            lo, hi = predicted
            deviation = 0.0 if lo <= slope <= hi else min(abs(slope - lo), abs(slope - hi))
        passed = deviation <= policy.slope_tol
    return FitResult(
        slope=slope,
        intercept=intercept,
        stderr=stderr,
        window=(min(xs), max(xs)),
        n_points=len(xs),
        predicted=predicted,
        deviation=deviation,
        tolerance=policy.slope_tol,
        passed=passed,
    )


def weyl_ratio(
    samples: Sequence[CountingSample],
    d_s: float,
    window: Optional[tuple] = None,
) -> tuple[list[tuple[float, float]], float, float]:
    """Series N_N(x) / x**(d_s/2) and its min/max envelope over the window."""
    if d_s <= 0:
        raise DomainError(f"spectral dimension must be positive, got {d_s}")
    series = [(smp.x, smp.n_neumann / smp.x ** (0.5 * d_s)) for smp in samples]
    sel = [
        r for (x, r) in series
        if r > 0 and (window is None or window[0] <= x <= window[1])
    ]
    if sel:
        return series, float(min(sel)), float(max(sel))
    return series, float("nan"), float("nan")


# ---------------------------------------------------------------------------
# Bracketing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BracketingReport:
    level: int
    samples: tuple
    violations: tuple

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def _check_bracketing(m: int, s: int, j: int):
    if not (1 <= j < m):
        raise LevelError(f"decouple level {j} must satisfy 1 <= j < m = {m}")
    if s < 2:
        raise DomainError(
            "bracketing needs s >= 2 so the grounded bridges keep interior nodes"
        )


def bracketing_check(j: int, samples: Sequence[CountingSample]) -> BracketingReport:
    """Verify lowerSum <= N_D <= N_N <= upperSum at every sample.

    ``samples`` are the ``counting_function`` samples of a level-m graph
    counted with bracketing level j, so each carries both sums.
    Violations are collected in the report rather than raised: an entry
    means a discretization or convention bug and must stay inspectable.
    """
    violations = []
    for smp in samples:
        x, lo, nd, nn, up = smp.x, smp.lower_sum, smp.n_dirichlet, smp.n_neumann, smp.upper_sum
        if lo is None:
            raise DomainError(f"the sample at x={x:g} has no bracketing sums; count "
                              "them with counting_function(counts, grid, level=j)")
        if not (lo <= nd <= nn <= up):
            violations.append(
                f"x={x:.6g}: lowerSum={lo}, N_D={nd}, N_N={nn}, upperSum={up}"
            )
    return BracketingReport(j, tuple(samples), tuple(violations))


# ---------------------------------------------------------------------------
# 1D reference problem
# ---------------------------------------------------------------------------

def free_path_pencil(s: int, resistance: float = 1.0, mass: float = 1.0) -> Pencil:
    """Free-free path of s equal segments with trapezoidal mass lumping."""
    if s < 1:
        raise DomainError(f"need at least one segment, got {s}")
    n = s + 1
    i = np.arange(s)
    L = _laplacian_from_edges(i, i + 1, np.full(s, resistance / s), n)
    m = np.full(n, mass / s)
    m[0] = m[-1] = mass / (2 * s)
    return Pencil(L, m, np.arange(n))


@dataclass(frozen=True)
class OneDimReport:
    s: int
    eigenvalue_errors: tuple        # relative error of lambda_k vs (k pi)^2
    max_eigenvalue_error: float
    bound_holds: bool
    bound_margins: tuple            # (x, N(x), sqrt(x)/pi + 1) rows
    counts: tuple

    @property
    def ok(self) -> bool:
        return self.bound_holds


def one_dim_reference(s: int, grid: Optional[Sequence[float]] = None) -> OneDimReport:
    """Fidelity check of the unit path against the Neumann interval.

    The continuum eigenvalues are (k pi)^2; the counting bound is
    N(x) <= sqrt(x)/pi + 1.  The eigenvalue errors cover the lowest
    max(1, s // 10) nonzero modes, which the s-segment path resolves to
    well under a percent.  The default grid places thresholds at
    ((k + 1/2) pi)^2 for those k and k = 0, halfway between consecutive
    reference eigenvalues, where a count comparison between the discrete
    model and the continuum bound is meaningful; near (k pi)^2 the two
    differ by the sub-percent eigenvalue sag of the lumped discretization.
    """
    if s < 2:
        raise DomainError(f"the reference path needs s >= 2, got {s}")
    k_check = max(1, s // 10)
    p = free_path_pencil(s)
    spec = eig_dense(p, dense_limit=max(DENSE_LIMIT, s + 1))
    errs = []
    for k in range(1, k_check + 1):
        target = (k * math.pi) ** 2
        errs.append(abs(float(spec.eigenvalues[k]) - target) / target)
    if grid is None:
        grid = [((k + 0.5) * math.pi) ** 2 for k in range(0, k_check + 1)]
    grid = _checked_grid(grid)
    margins = []
    counts = []
    holds = True
    for x in grid:
        nx = spec.count_leq(float(x))
        bound = math.sqrt(x) / math.pi + 1.0
        margins.append((float(x), nx, bound))
        counts.append(nx)
        if nx > bound:
            holds = False
    return OneDimReport(
        s=s,
        eigenvalue_errors=tuple(errs),
        max_eigenvalue_error=float(max(errs)),
        bound_holds=holds,
        bound_margins=tuple(margins),
        counts=tuple(counts),
    )


# ---------------------------------------------------------------------------
# End-to-end counting experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CountingExperiment:
    seq: MatchingSequence
    m: int
    s: int
    beta: float
    prediction: PredictionSet
    samples: tuple
    fit: FitResult
    weyl_series: tuple
    c1: float
    c2: float
    bracketing: Optional[BracketingReport]
    work: dict      # the block counter's certified thresholds and 50-digit fallbacks

    @functools.cached_property
    def graph(self) -> GraphApprox:
        """The level-m graph, built on first read; counting never needs it."""
        return build_graph(self.seq, self.m, self.s, self.beta)


def run_counting_experiment(
    seq: MatchingSequence,
    m: int,
    s: int,
    beta: float,
    backend: str = "auto",
    dense_limit: int = DENSE_LIMIT,
    eps_shift: float = EPS_SHIFT,
    eta: float = 0.2,
    per_decade: int = 60,
    grid: Optional[Sequence[float]] = None,
    policy: Optional[WindowPolicy] = None,
    bracket_level: Optional[int] = None,
) -> CountingExperiment:
    """Sample N(x) of the level-m graph, fit the exponent, report envelopes.

    The fit and the Weyl envelopes use N_N; the samples carry N_D as well.
    All counts, the bracketing sums included, come from one ``GraphCounts``,
    so only the dense backend builds the graph.
    """
    if bracket_level is not None:
        _check_bracketing(m, s, bracket_level)
    counts = GraphCounts(seq, m, s, beta, backend, dense_limit, eps_shift)
    if grid is None:
        grid = auto_grid(counts, eta=eta, per_decade=per_decade)
    samples = counting_function(counts, grid, level=bracket_level)
    bracketing = None
    if bracket_level is not None:
        bracketing = bracketing_check(bracket_level, samples)
    prediction = predicted_dimensions(seq)
    policy = policy or WindowPolicy()
    fit = fit_exponent(samples, policy, prediction)
    if prediction.kind == "limit":
        d_s = prediction.d_s
    else:
        d_s = 0.5 * (prediction.d_s_lower + prediction.d_s_upper)
    series, c1, c2 = weyl_ratio(samples, d_s, window=fit.window)
    return CountingExperiment(
        seq=seq, m=m, s=s, beta=beta,
        prediction=prediction,
        samples=tuple(samples),
        fit=fit,
        weyl_series=tuple(series),
        c1=c1,
        c2=c2,
        bracketing=bracketing,
        work={"certified": counts._blocks.certified, "fallbacks": counts._blocks.fallbacks},
    )
