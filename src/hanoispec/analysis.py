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
a pencil or a backend name; auto_grid finds its ends by a log-space
multisection on the counts under either backend, so the two backends
give the same grid.

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
    Boundary,
    Pencil,
    _laplacian_from_edges,
    apply_dirichlet,
    assemble_neumann,
)
from .eigensolve import (
    DENSE_LIMIT,
    EPS_SHIFT,
    BlockInertiaCounter,
    Spectrum,
    eig_dense,
)
from .errors import (
    ConvergenceError,
    DomainError,
    EmptyPencilError,
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
# Sections of one open grid-end bracket per pass: SECTIONS - 1 log-uniform
# points cut it into SECTIONS, each 1/SECTIONS of its log width.  A bracket
# without a lower end yet is cut on [hi * SECTIONS**-SECTIONS, hi], a
# ladder of hi / SECTIONS**i down to about 4.8e-7 * hi, so no pass counts
# near x = 0, where the Neumann zero eigenvalue stops block elimination.
SECTIONS = 8
# Passes of the grid-end multisection before it raises ConvergenceError.
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
    sums come from block elimination with either backend.  ``n`` (the
    number of vertices) and ``lambda_max`` (the Gershgorin bound of the
    Neumann pencil) are the counter's closed forms.
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
            try:
                spec_d = eig_dense(apply_dirichlet(p_n, g, "v0"), dense_limit)
            except EmptyPencilError:    # the level-0 triangle is all V_0
                spec_d = Spectrum(np.empty(0))
            self._spectra = (spec_d, eig_dense(p_n, dense_limit))

    def count(self, xs, level: Optional[int] = None) -> np.ndarray:
        """Rows N_D and N_N, #{lambda <= x} at each threshold x; with a
        bracketing level j, 1 <= j < m, then lowerSum_j and upperSum_j."""
        if level is not None:
            _check_bracketing(self.m, self.s, level)
        xs = np.asarray(xs, dtype=float)
        shifted = xs * (1.0 + self.eps_shift)
        if self._spectra is None:
            return np.array(self._blocks.count_below(shifted, self.eps_shift, level))
        rows = [spec.count_leq(xs, self.eps_shift) for spec in self._spectra]
        if level is not None:
            rows += self._blocks.count_below(shifted, self.eps_shift, level)[2:]
        return np.array(rows)


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
    return [CountingSample(float(x), *map(int, col)) for x, col in zip(grid, rows.T)]


def _checked_grid(grid: Sequence[float]) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if (len(grid) == 0 or not np.all(np.isfinite(grid)) or np.any(grid <= 0)
            or np.any(np.diff(grid) <= 0)):
        raise DomainError("grid must be finite, strictly increasing and positive")
    return grid


def auto_grid(counts: GraphCounts, eta: float = 0.2, per_decade: int = 60) -> np.ndarray:
    """Log-spaced grid from the 10th Neumann eigenvalue to the eta-quantile cutoff.

    The cutoff lambda_ceil(eta*n) marks the part of the discrete spectrum
    trusted to approximate the continuum.  Both ends are found together
    by log-space multisection on N_N to 1e-4 relative width, whatever the
    backend of ``counts``.  Until an end has a lower bracket, each pass
    counts a ladder down to about 4.8e-7 times its upper one, so an end
    up to 69 decades below the Gershgorin bound converges.  The grid has
    per_decade points a decade, at least 16 and at most MAX_GRID_POINTS.
    """
    n = counts.n
    k_lo = min(10, n - 1)
    k_hi = max(k_lo + 1, min(n, math.ceil(eta * n)))
    x_lo, x_hi = _bisect_quantiles(lambda xs: counts.count(xs)[1], (k_lo, k_hi),
                                   counts.lambda_max)
    if x_hi <= x_lo * (1.0 + 1e-9):
        raise InsufficientDataError(
            f"degenerate grid window [{x_lo:g}, {x_hi:g}]; the graph is too small"
        )
    n_points = int(round(per_decade * math.log10(x_hi / x_lo)))
    n_points = min(max(n_points, 16), MAX_GRID_POINTS)
    return np.geomspace(x_lo, x_hi, n_points)


def _bisect_quantiles(count, ks, upper: float) -> list[float]:
    """Smallest x with N(x) >= k for each k, by multisection to 1e-4 relative width.

    ``count`` maps an array of thresholds to N at each.  Each pass counts
    the SECTIONS - 1 log-uniform points of every open bracket (lo, hi),
    with lo raised to hi * SECTIONS**-SECTIONS while it is 0, in one call,
    then moves each k's ends to the largest counted x with N(x) < k and the
    smallest with N(x) >= k; N is exact and monotone, so every counted
    point narrows every bracket it falls in.  A bracket still wider than
    1e-4 after MAX_PASSES passes raises ConvergenceError.
    """
    ks = np.asarray(ks)
    # above the Gershgorin bound N = n, and auto_grid asks for no k above n
    lo, hi = np.zeros(len(ks)), np.full(len(ks), upper * 1.0001)
    for passes in range(MAX_PASSES + 1):
        open_ = hi >= lo * (1.0 + 1e-4)
        if not open_.any():
            return hi.tolist()
        if passes == MAX_PASSES:
            break
        h = hi[open_]
        l = np.maximum(lo[open_], h * SECTIONS ** -SECTIONS)
        xs = np.unique(np.geomspace(l, h, SECTIONS + 1, axis=1)[:, 1:-1])
        below = np.asarray(count(xs))[None, :] < ks[:, None]
        lo = np.maximum(lo, np.where(below, xs, 0.0).max(axis=1))
        hi = np.minimum(hi, np.where(below, np.inf, xs).min(axis=1))
    i = int(np.argmax(open_))
    raise ConvergenceError(
        f"multisection for the {ks[i]}-th eigenvalue stopped at [{lo[i]:g}, {hi[i]:g}] "
        f"after {MAX_PASSES} passes, starting from the bound {upper:g}"
    )


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
    return Pencil(L, m, Boundary("neumann", component="path"), np.arange(n))


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
    )
