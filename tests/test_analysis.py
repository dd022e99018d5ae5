"""Counting functions, fits, bracketing, 1D reference, regrouping identity."""

import math

import numpy as np
import pytest

from hanoispec.analysis import (
    CountingSample,
    GraphCounts,
    WindowPolicy,
    auto_grid,
    bracketing_check,
    counting_function,
    eigenvalue_brackets,
    eigenvalue_groups,
    fit_exponent,
    free_path_pencil,
    one_dim_reference,
    run_counting_experiment,
    weyl_ratio,
)
from hanoispec import analysis, assembly, eigensolve, geometry
from hanoispec.assembly import apply_dirichlet, assemble_decoupled, assemble_neumann
from hanoispec.eigensolve import (
    EPS_SHIFT,
    BlockInertiaCounter,
    InertiaCounter,
    eig_dense,
    lambda_max_bound,
)
from hanoispec.errors import (
    AssemblyError,
    ConvergenceError,
    DomainError,
    InsufficientDataError,
    LevelError,
)
from hanoispec.geometry import build_graph, enumerate_words
from hanoispec.sequences import (
    constant,
    explicit,
    geometric_to_limit,
    predicted_dimensions,
)

SEQ = constant(0.5)


def oracle_samples(g, xs, level=None, superlu=False) -> list:
    """The counting_function samples of the graph g at the thresholds xs,
    with a bracketing level j their lowerSum_j and upperSum_j as well,
    counted at x (1 + EPS_SHIFT) on its assembled pencils: the V_0-grounded
    and Neumann pencils, then every component of the level-j decoupled
    forms.  Counted off LAPACK spectra, or with superlu by SuperLU inertia,
    the oracle where LAPACK's error on clustered eigenvalues passes the
    shift (ratios r below 0.11)."""
    xs = np.asarray(xs, dtype=float)
    p_n = assemble_neumann(g)
    groups = [[apply_dirichlet(p_n, g, "v0")], [p_n]]
    if level is not None:
        groups += [assemble_decoupled(g, level, kind)
                   for kind in ("dirichlet_split", "neumann_split")]

    def count(p):
        if not superlu:
            return eig_dense(p).count_leq(xs)
        counter = InertiaCounter(p)
        return [counter.count_below(x * (1.0 + EPS_SHIFT), EPS_SHIFT).count for x in xs]

    rows = np.array([np.sum([count(p) for p in group], axis=0) for group in groups])
    return [CountingSample(x, *col) for x, col in zip(xs.tolist(), rows.T.tolist())]


class TestCountingFunction:
    def test_m0_counts(self):
        counts = GraphCounts(SEQ, 0, 1, 0.25)
        samples = counting_function(counts, [1.0, 10.0])
        assert [(s.n_neumann, s.n_dirichlet) for s in samples] == [(1, 0), (3, 0)]

    def test_exact_eigenvalue_grid_point(self):
        counts = GraphCounts(SEQ, 0, 1, 0.25)
        samples = counting_function(counts, [9.0])
        assert samples[0].n_neumann == 3  # right-continuous convention

    def test_once_unclear_sample_is_certified_in_one_pass(self, monkeypatch):
        # constant(0.05), level 10: the grid point 12936.65049545567 (one of
        # the auto grid's 400), whose pivots a rounding test once flagged at
        # x (1 + eps_shift), is certified by its two float counts in one
        # call, with no recount, and its counts are the 50-digit ones
        counts = GraphCounts(constant(0.05), 10, 2, 0.25)
        count, calls = BlockInertiaCounter.count, []

        def spy(self, x, level=None):
            calls.append(x.size)
            return count(self, x, level)

        monkeypatch.setattr(BlockInertiaCounter, "count", spy)
        x = 12936.65049545567
        smp, = counting_function(counts, [x])
        assert calls == [1] and (counts._blocks.certified, counts._blocks.fallbacks) == (1, 0)
        xs = np.array([x * (1.0 + EPS_SHIFT)])
        exact = counts._blocks._recount(xs, np.zeros((2, 1), dtype=np.int64),
                                        np.zeros((2, 1), dtype=bool), None)
        assert (smp.n_dirichlet, smp.n_neumann) == tuple(exact[:, 0]) == (12, 12)

    def test_counts_match_lapack(self):
        grid = np.geomspace(1.0, 1e4, 25)
        assert counting_function(GraphCounts(SEQ, 3, 2, 0.25), grid) == \
            oracle_samples(build_graph(SEQ, 3, 2, 0.25), grid)

    def test_interlacing(self):
        for m, s in [(2, 2), (3, 1)]:
            counts = GraphCounts(SEQ, m, s, 0.25)
            grid = auto_grid(counts)
            samples = counting_function(counts, grid)
            for smp in samples:
                assert 0 <= smp.n_neumann - smp.n_dirichlet <= 3
            assert samples == oracle_samples(build_graph(SEQ, m, s, 0.25), grid)

    def test_bad_grid(self):
        counts = GraphCounts(SEQ, 0, 1, 0.25)
        with pytest.raises(DomainError):
            counting_function(counts, [2.0, 1.0])

    @pytest.mark.parametrize("level", [None, 1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_grid(self, bad, level):
        # nan once gave N_D = 117 and N_N = 120 off LAPACK, and inf a LinAlgError;
        # a bracketed count refuses them as well
        counts = GraphCounts(SEQ, 3, 2, 0.25)
        with pytest.raises(DomainError):
            counting_function(counts, [1.0, bad], level=level)

    @pytest.mark.parametrize("m, s, beta", [(2, 0, 0.25), (2, 2, 0.4), (-1, 2, 0.25)])
    @pytest.mark.parametrize("entry", [GraphCounts, run_counting_experiment],
                             ids=lambda f: f.__name__)
    def test_bad_graph_args(self, m, s, beta, entry):
        with pytest.raises(DomainError):
            entry(SEQ, m, s, beta)

    @pytest.mark.parametrize(
        "seq", [SEQ, geometric_to_limit(0.6, 0.5), explicit([0.45, 0.53], tail="cycle")],
        ids=lambda q: q.describe(),
    )
    def test_closed_forms_match_the_graph(self, seq):
        # n and the Gershgorin bound come from the scale factors; the
        # pencil's row sums add the same terms in another order, so the two
        # bounds differ by at most an ulp (seen on s = 1 only)
        for m in range(7):
            for s in (1, 2, 3):
                counts = GraphCounts(seq, m, s, 0.25)
                g = build_graph(seq, m, s, 0.25)
                bound = lambda_max_bound(assemble_neumann(g))
                assert counts.n == g.n_vertices
                assert abs(counts.lambda_max - bound) <= 4.5e-16 * bound, (m, s)


class TestFit:
    def _synthetic(self, exponent=0.6131):
        xs = np.geomspace(10.0, 1e6, 120)
        return [
            CountingSample(float(x), int(x ** exponent), int(x ** exponent))
            for x in xs
        ]

    def test_known_power_law(self):
        fit = fit_exponent(self._synthetic(), WindowPolicy())
        assert fit.slope == pytest.approx(0.6131, abs=0.01)

    def test_insufficient_data(self):
        samples = self._synthetic()[:4]
        with pytest.raises(InsufficientDataError):
            fit_exponent(samples, WindowPolicy())

    def test_prediction_verdict(self):
        fit = fit_exponent(
            self._synthetic(), WindowPolicy(), predicted_dimensions(SEQ)
        )
        assert fit.passed
        target = math.log(3) / math.log(6)
        assert fit.deviation == pytest.approx(abs(fit.slope - target), abs=1e-12)

    def test_window_shift_stability(self):
        # moving the window edge by one grid step moves the slope by < stderr
        exp = run_counting_experiment(SEQ, 4, 2, 0.25)
        shifted = fit_exponent(exp.samples[1:-1], WindowPolicy(), predicted_dimensions(SEQ))
        assert abs(shifted.slope - exp.fit.slope) < max(exp.fit.stderr, shifted.stderr)


class TestWeyl:
    def test_exact_power_law_ratio_one(self):
        samples = [
            CountingSample(float(x), int(round(x ** 0.5)), int(round(x ** 0.5)))
            for x in np.geomspace(100.0, 1e6, 30)
        ]
        series, c1, c2 = weyl_ratio(samples, 1.0)
        assert c1 <= c2
        assert c1 == pytest.approx(1.0, rel=0.05)
        assert c2 == pytest.approx(1.0, rel=0.05)

    def test_envelope_ordering(self):
        exp = run_counting_experiment(SEQ, 3, 2, 0.25)
        assert 0 < exp.c1 <= exp.c2 < math.inf

    def test_bad_dimension(self):
        with pytest.raises(DomainError):
            weyl_ratio([], -1.0)


def bracketed_samples(g, j, grid):
    return counting_function(GraphCounts(g.seq, g.m, g.s, g.beta), grid, level=j)


class TestBracketing:
    def test_m3_no_violations(self):
        g = build_graph(SEQ, 3, 2, 0.25)
        grid = np.geomspace(1.0, 3e4, 30)
        rep = bracketing_check(1, bracketed_samples(g, 1, grid))
        assert rep.ok
        for smp in rep.samples:
            assert smp.lower_sum <= smp.n_dirichlet <= smp.n_neumann <= smp.upper_sum
        assert list(rep.samples) == oracle_samples(g, grid, 1)

    def test_level_guard(self):
        # counting with a bracketing level checks 1 <= j < m and s >= 2
        for s, j, error in [(2, 2, LevelError), (2, 0, LevelError), (1, 1, DomainError)]:
            g = build_graph(SEQ, 2, s, 0.25)
            with pytest.raises(error):
                bracketed_samples(g, j, [1.0])

    def test_samples_without_sums(self):
        with pytest.raises(DomainError):
            bracketing_check(1, counting_function(GraphCounts(SEQ, 2, 2, 0.25), [1.0]))

    @pytest.mark.parametrize("s", [2, 3])
    @pytest.mark.parametrize("m, j", [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)])
    @pytest.mark.parametrize("seq", [SEQ, explicit([0.45, 0.53], tail="cycle")],
                             ids=lambda q: q.describe())
    @pytest.mark.parametrize("oracle", ["dense", "inertia"])
    def test_class_sums_match_every_component(self, oracle, seq, m, j, s):
        # reference: every component of the decoupled forms counted on its own,
        # off LAPACK spectra (dense) and by SuperLU inertia
        g = build_graph(seq, m, s, 0.25)
        grid = np.geomspace(1.0, 0.9 * lambda_max_bound(assemble_neumann(g)), 20)
        rep = bracketing_check(j, bracketed_samples(g, j, grid))
        assert list(rep.samples) == oracle_samples(g, grid, j, superlu=oracle == "inertia")

    @pytest.mark.parametrize("bracket_level", [1, 2])
    @pytest.mark.parametrize("backend", ["inertia", "auto"])
    def test_bracketed_run_counts_no_component(self, monkeypatch, backend, bracket_level):
        # the sums come from the block-elimination sweep: no component pencil
        # is assembled, and no pencil is factored or solved
        def forbidden(*args, **kwargs):
            raise AssertionError("a bracketed run assembled, factored or solved a pencil")

        monkeypatch.setattr(assembly, "assemble_decoupled", forbidden)
        monkeypatch.setattr(analysis, "assemble_decoupled", forbidden, raising=False)
        monkeypatch.setattr(InertiaCounter, "__init__", forbidden)
        monkeypatch.setattr(eigensolve, "eig_dense", forbidden)
        monkeypatch.setattr(analysis, "eig_dense", forbidden)
        exp = run_counting_experiment(SEQ, 3, 2, 0.25, backend=backend,
                                      bracket_level=bracket_level)
        assert exp.bracketing.ok

    def test_bracketed_run_eliminates_its_grid_once(self, monkeypatch):
        # the grid's N_D, N_N and both sums come from one pass of one counter
        built, sizes = [], []
        init, count = BlockInertiaCounter.__init__, BlockInertiaCounter.count

        def spy_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        def spy_count(self, x, *args, **kwargs):
            sizes.append(np.size(x))
            return count(self, x, *args, **kwargs)

        monkeypatch.setattr(BlockInertiaCounter, "__init__", spy_init)
        monkeypatch.setattr(BlockInertiaCounter, "count", spy_count)
        exp = run_counting_experiment(SEQ, 3, 2, 0.25, backend="inertia", bracket_level=2)
        assert len(built) == 1
        assert sizes.count(len(exp.samples)) == 1


def grid_quantiles(n: int, eta: float = 0.2) -> tuple:
    """The Neumann eigenvalue indices k of auto_grid's two ends."""
    k_lo = min(10, n - 1)
    return k_lo, max(k_lo + 1, min(n, math.ceil(eta * n)))


class TestAutoGrid:
    @pytest.mark.parametrize("via", ["auto_grid", "experiment"])
    def test_too_small_graph(self, via):
        # the level-0 triangle's 2nd and 3rd eigenvalues coincide
        with pytest.raises(InsufficientDataError):
            if via == "auto_grid":
                auto_grid(GraphCounts(SEQ, 0, 1, 0.25))
            else:
                run_counting_experiment(SEQ, 0, 1, 0.25)

    @pytest.mark.parametrize("m, s", [(1, 1), (2, 3), (3, 2), (4, 2), (5, 2)])
    @pytest.mark.parametrize(
        "seq", [SEQ, explicit([0.45, 0.53], tail="cycle"), geometric_to_limit(0.55, 0.3)],
        ids=lambda q: q.describe(),
    )
    def test_no_threshold_above_the_bound(self, monkeypatch, seq, m, s):
        # N = n above the Gershgorin bound, so the multisection never counts
        # there; each end found lies within 1e-4 above its eigenvalue
        g = build_graph(seq, m, s, 0.25)
        p = assemble_neumann(g)
        counted = []
        count = BlockInertiaCounter.count

        def spy(self, x, *args, **kwargs):
            counted.extend(np.ravel(x))
            return count(self, x, *args, **kwargs)

        monkeypatch.setattr(BlockInertiaCounter, "count", spy)
        grid = auto_grid(GraphCounts(seq, m, s, 0.25))
        assert 0 < max(counted) <= lambda_max_bound(p)
        ev = eig_dense(p).eigenvalues
        for end, k in zip((grid[0], grid[-1]), grid_quantiles(p.n)):
            assert ev[k - 1] / (1 + 1e-9) <= end <= ev[k - 1] * (1 + 1e-4)

    @pytest.mark.parametrize("k", [1, 2])
    def test_unconverged_end_raises(self, k):
        # with auto_grid's settings a pass without a lower end reaches 63/8
        # powers of 8 (7.1 decades) below its top, so steps of N 90 and 85
        # decades below the bound converge; steps below what MAX_PASSES such
        # passes reach do not
        upper = 1e6
        steps = [upper * 1e-90, upper * 1e-85]

        def step_count(steps):
            return lambda xs: [sum(x >= t for t in steps) for x in xs]

        _, ends = analysis._bisect_quantiles(step_count(steps), (1, 2), upper)
        assert all(t <= e < t * (1 + 1e-4) for e, t in zip(ends, steps))
        reach = upper * 8.0 ** (-63 / 8 * analysis.MAX_PASSES)
        with pytest.raises(ConvergenceError, match=rf"the {k}-th eigenvalue .* after "
                           rf"{analysis.MAX_PASSES} passes"):
            analysis._bisect_quantiles(step_count([reach / 4, reach / 2]), (k,), upper)

    def test_every_count_narrows_a_bracket_to_rtol(self):
        # no count is dropped, so no bracket stops short: a step's bracket
        # narrows to rtol, however close to it the points come
        step = 3.0
        lo, hi = analysis._bisect_quantiles(lambda xs: xs >= step, (1,), 1e3,
                                            rtol=1e-13, max_passes=40)
        assert lo[0] < step <= hi[0] < lo[0] * (1 + 1e-13)

    def test_no_count_below_raises(self):
        # with every count at or above k no bracket finds a lower end
        with pytest.raises(ConvergenceError, match=r"the 1-th eigenvalue stopped at \[0, "):
            analysis._bisect_quantiles(lambda xs: np.ones(xs.size), (1,), 1e3, rtol=1e-13)

    def test_flagged_grid_count_falls_back_in_the_same_call(self, monkeypatch):
        # a pivot of one certificate point of the first pass's ladder comes
        # back zero: that threshold is recounted in 50 digits in the same
        # call, counted once, and the grid is the one without the flag
        counts = GraphCounts(SEQ, 4, 2, 0.25)
        hi = np.full(1, counts.lambda_max * 1.0001)
        point = analysis._section_ends(np.zeros(1), hi, analysis.SECTIONS)[0, 31]
        point = point * (1.0 + EPS_SHIFT) * (1.0 - eigensolve.CERT_OFFSET)
        rows, marked = BlockInertiaCounter._pass, []

        def flagged_at_point(self, x, level=None):
            n, ok = rows(self, x, level)
            at = x == point
            marked.extend(x[at].tolist())
            ok[:, at] = False
            return n, ok

        monkeypatch.setattr(BlockInertiaCounter, "_pass", flagged_at_point)
        grid = auto_grid(counts)
        monkeypatch.undo()
        assert marked == [point]
        assert counts._blocks.fallbacks == 1
        assert np.array_equal(grid, auto_grid(GraphCounts(SEQ, 4, 2, 0.25)))

    def test_low_ratio_grid_counts(self):
        # constant(0.05) at level 8: the grid search once nudged a count a
        # rounding test flagged three times and raised; every count is
        # certified now, and a seeded sample of the counts agrees with SuperLU
        # on the assembled pencils (grid[0] lies within 1e-4 of lambda_10,
        # where SuperLU's pivot test fails)
        exp = run_counting_experiment(constant(0.05), 8, 2, 0.25)
        assert exp.fit.passed
        picks = np.random.default_rng(8).choice(np.arange(1, len(exp.samples)), 6, replace=False)
        samples = [exp.samples[i] for i in sorted(picks)]
        assert samples == oracle_samples(exp.graph, [smp.x for smp in samples], superlu=True)

    @pytest.mark.parametrize("m, slope", [(10, 0.25979699109189536),
                                          (14, 0.2611644149371288),
                                          (20, 0.262416167039208)])
    def test_deep_low_ratio_grids_count_every_sample(self, m, slope):
        # constant(0.05): a rounding test on the pivots once flagged the
        # counts near the 10th eigenvalue from level 12 on, so the grid search
        # raised, and one of the 400 samples at level 10; all are certified
        # now by their two float counts, none recounted in 50 digits
        exp = run_counting_experiment(constant(0.05), m, 2, 0.25)
        assert len(exp.samples) == analysis.MAX_GRID_POINTS
        assert exp.work["fallbacks"] == 0 and exp.work["certified"] > len(exp.samples)
        assert exp.fit.slope == pytest.approx(slope, rel=1e-9)

    @pytest.mark.parametrize("m", [19, 20])
    def test_ends_at_depth(self, m):
        # past graph building the Gershgorin bound is above 1e23 and the 10th
        # eigenvalue near 391; both ends still converge, and the lower one
        # agrees with the level-12 end
        seq = geometric_to_limit(0.6, 0.5)
        counts = GraphCounts(seq, m, 2, 0.25)
        grid = auto_grid(counts)
        for end, k in zip((grid[0], grid[-1]), grid_quantiles(counts.n)):
            assert counts.count([end])[1, 0] >= k > counts.count([end / (1 + 1e-4)])[1, 0]
        assert grid[0] == pytest.approx(auto_grid(GraphCounts(seq, 12, 2, 0.25))[0], rel=1e-4)

    @pytest.mark.parametrize("m, slope", [(24, 0.6563269723138304), (30, 0.664330465664856)])
    def test_geometric_family_counts_at_depth(self, m, slope):
        # the auto grid reaches x ~ 1e18 (m = 24) and 1e23 (m = 30), where a
        # level's entries are up to 1e13 times its smallest clear pivots
        exp = run_counting_experiment(geometric_to_limit(0.6, 0.5), m, 2, 0.25)
        nd = [sm.n_dirichlet for sm in exp.samples]
        nn = [sm.n_neumann for sm in exp.samples]
        assert np.all(np.diff(nd) >= 0) and np.all(np.diff(nn) >= 0) and np.all(np.less_equal(nd, nn))
        assert exp.fit.slope == pytest.approx(slope, rel=1e-9)

    @pytest.mark.parametrize("via", ["auto_grid", "experiment"])
    def test_point_cap(self, via):
        # 1000 points a decade over this window would be more than the cap
        counts = GraphCounts(SEQ, 3, 2, 0.25)
        if via == "auto_grid":
            capped, plain = auto_grid(counts, per_decade=1000), auto_grid(counts)
        else:
            capped, plain = ([smp.x for smp in run_counting_experiment(
                SEQ, 3, 2, 0.25, per_decade=k).samples] for k in (1000, 60))
        assert len(capped) == analysis.MAX_GRID_POINTS and len(plain) == 28
        assert (capped[0], capped[-1]) == (plain[0], plain[-1])


SPECTRUM_FAMILIES = [SEQ, geometric_to_limit(0.6, 0.5), explicit([0.45, 0.53], tail="cycle")]
# levels 0-5 at s = 1, 2, 3, and level 6 at s = 1, where the dense oracle
# takes about a second a pencil
SPECTRUM_LEVELS = [(m, s) for m in range(6) for s in (1, 2, 3)] + [(6, 1)]
family_ids = pytest.mark.parametrize("seq", SPECTRUM_FAMILIES, ids=lambda q: q.describe())


@pytest.fixture(scope="module")
def spectra():
    """(pencils, dense eigenvalues, count brackets) of the Neumann and the
    V_0-grounded pencil of a graph, each computed once per module."""
    cache = {}

    def get(seq, m, s):
        key = (seq.describe(), m, s)
        if key not in cache:
            g = build_graph(seq, m, s, 0.25)
            p_n = assemble_neumann(g)
            pencils = (p_n, apply_dirichlet(p_n, g, "v0"))
            cache[key] = (pencils, [eig_dense(p, p.n).eigenvalues for p in pencils],
                          eigenvalue_brackets(seq, m, s, 0.25, g.n_vertices))
        return cache[key]

    return get


def split_points(groups) -> set:
    """The running multiplicity totals at which one group ends and the next starts."""
    return set(np.cumsum([mult for _, mult in groups])[:-1].tolist())


class TestEigenvalueBrackets:
    @pytest.mark.parametrize("m, s", SPECTRUM_LEVELS)
    @family_ids
    def test_matches_dense(self, spectra, seq, m, s):
        pencils, dense, brackets = spectra(seq, m, s)
        for p, ev, (lo, hi) in zip(pencils, dense, brackets):
            assert lo.size == hi.size == p.n and np.all(lo <= hi)
            np.testing.assert_allclose(0.5 * (lo + hi), ev, rtol=0,
                                       atol=1e-12 * np.max(ev, initial=0.0))
        # the graph is connected: the Neumann lambda_1 is 0, written exactly
        assert brackets[0][0][0] == brackets[0][1][0] == 0.0

    @pytest.mark.parametrize("m, s", SPECTRUM_LEVELS)
    @family_ids
    def test_groups_split_at_every_wide_dense_gap(self, spectra, seq, m, s):
        # where LAPACK's eigenvalues are more than 1e-8 apart the counts
        # split too; a dense cluster the counts resolve is split further
        _, dense, brackets = spectra(seq, m, s)
        for ev, (lo, hi) in zip(dense, brackets):
            wide = set((np.flatnonzero(np.diff(ev) > 1e-8 * np.abs(ev[1:])) + 1).tolist())
            assert wide <= split_points(eigenvalue_groups(lo, hi))

    @pytest.mark.parametrize("m, s", [(m, s) for m, s in SPECTRUM_LEVELS if m <= 4])
    @family_ids
    def test_superlu_counts_between_groups(self, spectra, seq, m, s):
        # SuperLU on the assembled pencil, midway between two groups more
        # than 1e-6 apart, counts every eigenvalue of the groups below; its
        # nudge of 1e-8 (where a diagonal entry of L - x M is 0) stays
        # between them, where closer groups would not hold it
        pencils, _, brackets = spectra(seq, m, s)
        for p, (lo, hi) in zip(pencils, brackets):
            groups = eigenvalue_groups(lo, hi)
            counter = InertiaCounter(p)
            totals = np.cumsum([mult for _, mult in groups])
            for (a, _), (b, _), below in zip(groups, groups[1:], totals):
                if b - a > 1e-6 * b:
                    assert counter.count_below(0.5 * (a + b)).count == below

    @pytest.mark.parametrize("s", [1, 2, 3])
    @family_ids
    def test_narrow_splits_hold_at_50_digits(self, seq, s):
        # every split of two eigenvalues less than 1e-9 apart, between
        # brackets as narrow as 1e-13, is the count of the same elimination
        # run in 50-digit arithmetic at a point between them
        mpmath = pytest.importorskip("mpmath")
        counter = BlockInertiaCounter(seq, 4, s, 0.25)
        xs, want, row = [], [], []
        for r, (lo, hi) in zip((1, 0), eigenvalue_brackets(seq, 4, s, 0.25, counter.n)):
            mid = 0.5 * (lo + hi)
            for i in np.flatnonzero(lo[1:] > hi[:-1]):
                if mid[i + 1] - mid[i] < 1e-9 * mid[i + 1]:
                    xs.append(mpmath.mpf(hi[i]) / 2 + mpmath.mpf(lo[i + 1]) / 2)
                    want.append(i + 1)
                    row.append(r)
        assert xs
        with mpmath.workdps(50):
            xs = np.array([mpmath.mpf(x) for x in xs], dtype=object)
            counts, ok, _ = counter._eliminate(xs)
        assert ok.all()
        assert [int(counts[r, i]) for i, r in enumerate(row)] == want

    def test_k_lowest_is_the_full_run_cut(self):
        # the README example's level-4 graph: the 101 lowest agree with the
        # full run's first 101 to within both brackets
        full = eigenvalue_brackets(SEQ, 4, 2, 0.25, 363)
        low = eigenvalue_brackets(SEQ, 4, 2, 0.25, 101)
        for (lo, hi), (lo_k, hi_k) in zip(full, low):
            assert lo_k.size == 101
            assert np.all(np.maximum(lo[:101], lo_k) <= np.minimum(hi[:101], hi_k))

    def test_k_below_one(self):
        with pytest.raises(DomainError):
            eigenvalue_brackets(SEQ, 2, 2, 0.25, 0)


class TestOneDimReference:
    def test_eigenvalues_match_interval(self):
        rep = one_dim_reference(200)
        assert rep.max_eigenvalue_error <= 0.01
        assert len(rep.eigenvalue_errors) == 20

    def test_counting_bound(self):
        rep = one_dim_reference(200)
        assert rep.bound_holds

    def test_explicit_threshold_above_first_mode(self):
        rep = one_dim_reference(200, grid=[math.pi ** 2 * (1 + 1e-9)])
        assert rep.counts[0] == 2

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan, math.inf])
    def test_bad_grid(self, bad):
        # -1 once raised a bare math domain error, nan and inf passed the bound
        with pytest.raises(DomainError, match="grid must be"):
            one_dim_reference(10, grid=[bad])

    def test_path_pencil_spectrum(self):
        spec = eig_dense(free_path_pencil(2))
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 8.0, 16.0], atol=1e-10)

    @pytest.mark.parametrize("resistance", [0.0, -1.0, float("nan"), float("inf")])
    def test_path_pencil_nonpositive_resistance(self, resistance):
        # 0 once raised a bare ZeroDivisionError, -1 gave a negative diagonal,
        # nan an all-nan Laplacian and inf an all-zero one
        with pytest.raises(AssemblyError, match=r"edge \(0,1\)"):
            free_path_pencil(3, resistance=resistance)

    def test_s_guard(self):
        with pytest.raises(DomainError):
            one_dim_reference(1)


class TestRegroupingIdentity:
    def test_fractal_form_regroups_by_first_letter(self):
        # the cell-edge part of the energy is a sum over cells; grouping the
        # cells of the level-m graph by their first letter is a re-grouping
        # of identical terms
        g = build_graph(SEQ, 3, 1, 0.25)
        rng = np.random.default_rng(5)
        nc = g.n_cell_edges
        cell_edges = list(zip(g.edge_u[:nc].tolist(), g.edge_v[:nc].tolist()))
        words = enumerate_words(g.m)
        for _ in range(10):
            u = rng.normal(size=g.n_vertices)
            q_full = sum((u[a] - u[b]) ** 2 for a, b in cell_edges)
            q_groups = 0.0
            for letter in "123":
                # a cell side's first vertex is a corner of the cell of rank a // 3
                q_groups += sum(
                    (u[a] - u[b]) ** 2
                    for a, b in cell_edges
                    if words[a // 3].startswith(letter)
                )
            assert q_groups == pytest.approx(q_full, rel=1e-12)


class TestExperimentPipeline:
    def test_small_run_passes(self):
        exp = run_counting_experiment(SEQ, 4, 2, 0.25)
        assert exp.fit.predicted == pytest.approx(0.61314719, abs=1e-8)
        assert abs(exp.fit.slope - 0.61314719) < 0.1
        assert exp.c1 <= exp.c2

    def test_bracket_level_included(self):
        exp = run_counting_experiment(SEQ, 3, 2, 0.25, bracket_level=1)
        assert exp.bracketing is not None
        assert exp.bracketing.ok
        assert exp.samples[0].lower_sum is not None

    @pytest.mark.parametrize("m, s, j, error", [
        (3, 2, 3, LevelError), (3, 2, 0, LevelError), (3, 1, 1, DomainError),
    ])
    def test_bad_bracket_level_fails_before_the_count(self, monkeypatch, m, s, j, error):
        def no_graph(*args, **kwargs):
            raise AssertionError("the graph was built before the bracketing check")

        monkeypatch.setattr(analysis, "build_graph", no_graph)
        with pytest.raises(error):
            run_counting_experiment(SEQ, m, s, 0.25, backend="inertia", bracket_level=j)

    @pytest.mark.parametrize("bracket_level", [None, 2])
    @pytest.mark.parametrize("backend", ["auto", "inertia"])
    def test_counting_builds_no_graph(self, monkeypatch, backend, bracket_level):
        # block elimination counts from the scale factors: no graph, pencil or
        # pencil bound; the graph is built when read, the same as build_graph's
        # (analysis imports no assembly function but the 1D reference's)
        def forbidden(*args, **kwargs):
            raise AssertionError("a counting experiment built a graph or a pencil")

        for module, name in [(analysis, "build_graph"), (geometry, "build_graph"),
                             (analysis, "assemble_neumann"), (assembly, "assemble_neumann"),
                             (eigensolve, "lambda_max_bound")]:
            monkeypatch.setattr(module, name, forbidden, raising=module is not analysis)
        exp = run_counting_experiment(SEQ, 4, 2, 0.25, backend=backend,
                                      bracket_level=bracket_level)
        monkeypatch.undo()
        want = build_graph(SEQ, 4, 2, 0.25)
        for name in ("edge_u", "edge_v", "edge_r", "edge_level", "bridge_paths",
                     "mass_cell", "mass_line", "line_level"):
            assert getattr(exp.graph, name).tobytes() == getattr(want, name).tobytes(), name
        assert exp.graph is exp.graph

    @pytest.mark.parametrize("bracket_level", [None, 2])
    @pytest.mark.parametrize("m, s", [(3, 2), (4, 2), (4, 3), (5, 2)])
    @pytest.mark.parametrize(
        "seq", [SEQ, geometric_to_limit(0.55, 0.3), explicit([0.45, 0.53], tail="cycle")],
        ids=lambda q: q.describe(),
    )
    def test_block_counts_equal_superlu(self, seq, m, s, bracket_level):
        # the experiment counts the level-m pencils by block elimination; the
        # same grid ends, samples, fit and report must come from SuperLU on
        # them and on the decoupled components, and from auto
        exp = run_counting_experiment(seq, m, s, 0.25, backend="inertia",
                                      bracket_level=bracket_level)
        other = run_counting_experiment(seq, m, s, 0.25, backend="auto",
                                        bracket_level=bracket_level)
        assert (other.samples, other.fit, other.weyl_series, other.bracketing) == \
            (exp.samples, exp.fit, exp.weyl_series, exp.bracketing)
        p_n = assemble_neumann(exp.graph)
        superlu = [InertiaCounter(p) for p in (apply_dirichlet(p_n, exp.graph, "v0"), p_n)]

        def count(x):   # (N_D, N_N)
            return [c.count_below(x * (1.0 + EPS_SHIFT), EPS_SHIFT).count for c in superlu]

        grid = [smp.x for smp in exp.samples]
        ends = analysis._grid_ends(lambda xs: [count(x)[1] for x in xs],
                                   p_n.n, lambda_max_bound(p_n), 0.2)
        assert (grid[0], grid[-1]) == ends
        samples = oracle_samples(exp.graph, grid, bracket_level, superlu=True)
        assert tuple(samples) == exp.samples
        assert fit_exponent(samples, WindowPolicy(), exp.prediction) == exp.fit

    @pytest.mark.parametrize("backend", ["superlu", "dense"])
    def test_unknown_backend(self, monkeypatch, backend):
        # refused before any count; LAPACK spectra are only the tests' oracle
        def forbidden(*args, **kwargs):
            raise AssertionError("a refused backend was counted")

        monkeypatch.setattr(BlockInertiaCounter, "__init__", forbidden)
        with pytest.raises(DomainError, match=f"unknown backend '{backend}'"):
            run_counting_experiment(SEQ, 3, 2, 0.25, backend=backend)

    @pytest.mark.parametrize("bracket_level", [1, 2])
    def test_bracket_level_leaves_counts_alone(self, bracket_level):
        plain = run_counting_experiment(SEQ, 3, 2, 0.25)
        bracketed = run_counting_experiment(SEQ, 3, 2, 0.25, bracket_level=bracket_level)
        assert [(s.x, s.n_dirichlet, s.n_neumann) for s in bracketed.samples] == [
            (s.x, s.n_dirichlet, s.n_neumann) for s in plain.samples
        ]
        assert all(s.lower_sum is None for s in plain.samples)
        assert bracketed.fit.slope == plain.fit.slope
        assert (bracketed.c1, bracketed.c2) == (plain.c1, plain.c2)
