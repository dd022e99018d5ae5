"""auto_grid's multisection cuts each open bracket into 64 log-uniform
sections a pass, with closed-form section ends; against one 8-section
np.geomspace pass a call it finds the same grid ends to rounding, with
the same counts, in half the eliminations."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hanoispec import analysis
from hanoispec.analysis import GraphCounts, eigenvalue_brackets, run_counting_experiment
from hanoispec.eigensolve import BlockInertiaCounter
from hanoispec.errors import ConvergenceError, HanoiError
from hanoispec.sequences import constant, explicit, geometric_to_limit

MAX_PASSES = analysis.MAX_PASSES


# The multisection as it was with 8 sections, one count call a pass and
# the section ends from np.geomspace.
def reference_bisect_quantiles(count, ks, upper, rtol=1e-4, max_passes=MAX_PASSES):
    ks = np.asarray(ks)
    lo, hi = np.zeros(ks.size), np.full(ks.size, upper * 1.0001)
    for passes in range(max_passes + 1):
        open_ = hi >= lo * (1.0 + rtol)
        if passes == max_passes or not open_.any():
            break
        h = hi[open_]
        l = np.maximum(lo[open_], h * 8.0 ** -8)
        xs = np.unique(np.geomspace(l, h, 9, axis=1)[:, 1:-1])
        n = np.asarray(count(xs))
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


@pytest.fixture
def multisection(monkeypatch):
    """run(f, reference, *args): f's outcome with the package's
    multisection or the reference, and the brackets (lo, hi) of its first
    multisection."""
    package = analysis._bisect_quantiles

    def run(f, reference, *args, **kwargs):
        bisect = reference_bisect_quantiles if reference else package
        brackets = []

        def watched_bisect(count, *b_args, **b_kwargs):
            if reference:
                b_kwargs.pop("sections", None)      # always 8
            brackets.append(bisect(count, *b_args, **b_kwargs))
            return brackets[-1]

        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_bisect_quantiles", watched_bisect)
            got = outcome(f, *args, **kwargs)
        return got, (brackets or [None])[0]
    return run


def outcome(f, *args, **kwargs):
    """f's result, or the package error it raises."""
    try:
        return f(*args, **kwargs)
    except HanoiError as exc:
        return exc


def sweep(n_configs, seed):
    """Seeded (seq, m, s, beta, bracket level) over the three families,
    m 2..9 and s 1..3, half of them bracketed where bracketing applies."""
    rng = random.Random(seed)
    configs = []
    for i in range(n_configs):
        family = ("constant", "geometric_to_limit", "explicit")[i % 3]
        r = rng.uniform(0.05, 0.58)
        if family == "constant":
            seq = constant(r)
        elif family == "geometric_to_limit":
            seq = geometric_to_limit(r, rng.uniform(0.2, 0.8))
        else:
            seq = explicit([r, rng.uniform(0.05, 0.58)], tail="cycle")
        m, s = 2 + i % 8, 1 + (i // 3) % 3
        level = rng.randrange(1, m) if s >= 2 and i % 2 else None
        configs.append((seq, m, s, round(rng.uniform(0.1, 0.32), 6), level))
    return configs


def grid_quantiles(n: int, eta: float = 0.2) -> tuple:
    """The Neumann eigenvalue indices k of auto_grid's two ends."""
    k_lo = min(10, n - 1)
    return k_lo, max(k_lo + 1, min(n, math.ceil(eta * n)))


def assert_brackets(counts, brackets, ref_brackets):
    # each grid end's bracket has N_N < k at lo and >= k at hi, and meets
    # the reference's, which N_N, exact and monotone, bounds alike
    ks = grid_quantiles(counts.n)
    (lo, hi), (lo_ref, hi_ref) = brackets, ref_brackets
    n = counts._blocks.count(np.concatenate((lo, hi)) * (1 + counts.eps_shift))
    assert np.all(n[1, :2] < ks) and np.all(n[1, 2:] >= ks)
    assert np.all((lo < hi_ref) & (lo_ref < hi))


def counts_of(exp):
    return [(smp.n_dirichlet, smp.n_neumann, smp.lower_sum, smp.upper_sum)
            for smp in exp.samples]


@pytest.mark.parametrize("seq, m, s, beta, level", sweep(72, 2017),
                         ids=lambda v: v.describe() if hasattr(v, "describe") else None)
def test_counting_matches_eight_sections(multisection, seq, m, s, beta, level):
    want, want_brackets = multisection(run_counting_experiment, True,
                                       seq, m, s, beta, bracket_level=level)
    got, brackets = multisection(run_counting_experiment, False,
                                 seq, m, s, beta, bracket_level=level)
    if isinstance(want, HanoiError):
        assert type(got) is type(want)
        return
    assert not isinstance(got, HanoiError), got
    assert_brackets(GraphCounts(seq, m, s, beta), brackets, want_brackets)
    assert counts_of(got) == counts_of(want)
    xs, xs_ref = (np.array([smp.x for smp in e.samples]) for e in (got, want))
    assert np.allclose(xs, xs_ref, rtol=1e-13, atol=0.0)
    assert got.fit.slope == pytest.approx(want.fit.slope, rel=1e-12, abs=0.0)


# the two configs of sweep(72, 2017) and sweep(200, 7) where a rounding
# test on the pivots once dropped counts and moved a grid end past rounding:
# (seq, m, s, beta, bracketing level).  In the first the lower end's
# bracket stopped at [734.24, 736.05], 2.5e-3 relative width, where every
# point of a pass was dropped.
DROP_CASES = [(constant(0.05208421536759025), 9, 3, 0.137916, 3),
              (constant(0.12457482673656964), 9, 2, 0.182743, 6)]


@pytest.mark.parametrize("seq, m, s, beta, level", DROP_CASES, ids=["r0.052", "r0.125"])
def test_ends_with_dropped_counts(multisection, seq, m, s, beta, level):
    # every count is certified now, none recounted in 50 digits: all four
    # ends narrow to 1e-4, hold test_ends_at_depth's end property and give
    # the reference's counts
    want, want_brackets = multisection(run_counting_experiment, True, seq, m, s, beta,
                                       bracket_level=level)
    exp, brackets = multisection(run_counting_experiment, False, seq, m, s, beta,
                                 bracket_level=level)
    assert exp.bracketing.ok and exp.work["fallbacks"] == 0
    counts = GraphCounts(seq, m, s, beta)
    assert_brackets(counts, brackets, want_brackets)
    lo, hi = brackets
    assert [exp.samples[0].x, exp.samples[-1].x] == hi.tolist()
    assert np.all(hi < lo * (1 + 1e-4))
    for end, k in zip(hi, grid_quantiles(counts.n)):
        assert counts.count([end])[1, 0] >= k > counts.count([end / (1 + 1e-4)])[1, 0]
    assert counts_of(exp) == counts_of(want)


@pytest.mark.parametrize("seq, m, s, beta, _", sweep(30, 1899),
                         ids=lambda v: v.describe() if hasattr(v, "describe") else None)
def test_spectrum_matches_geomspace_sections(multisection, seq, m, s, beta, _):
    # eigenvalue_brackets keeps 8 sections a pass; its brackets move by rounding
    m = min(m, 6)
    want = multisection(eigenvalue_brackets, True, seq, m, s, beta, 12)[0]
    got = multisection(eigenvalue_brackets, False, seq, m, s, beta, 12)[0]
    if isinstance(want, HanoiError):
        assert type(got) is type(want)
        return
    for (lo, hi), (lo_ref, hi_ref) in zip(got, want):
        assert np.allclose(lo, lo_ref, rtol=1e-12, atol=0.0)
        assert np.allclose(hi, hi_ref, rtol=1e-12, atol=0.0)


def step_counts(steps, asked):
    """Counts of a spectrum with eigenvalues at steps, each batch logged in asked."""
    def count(xs):
        asked.append(xs.copy())
        return np.searchsorted(steps, xs, side="right")
    return count


# eigenvalues 1 and 3 inside the first pass's ladder; eigenvalues 1 and 2
# below the first ladder (down to 100 * 8**(-63/8), about 7.7e-6), reached
# through the bracket (0, its lowest point)
@pytest.mark.parametrize("steps, ks, batches",
                         [([0.3, 1.7, 2.9, 41.0], (1, 3), [63, 126, 126]),
                          ([1e-9, 3e-8, 2.9, 41.0], (1, 2), [63, 63, 126, 126])],
                         ids=["ladder", "deep"])
def test_passes_bracket_the_steps(steps, ks, batches):
    asked = []
    lo, hi = analysis._bisect_quantiles(step_counts(steps, asked), ks, 100.0)
    eigenvalues = np.take(steps, np.subtract(ks, 1))
    assert np.all((lo < eigenvalues) & (eigenvalues <= hi) & (hi < lo * (1 + 1e-4)))
    assert [xs.size for xs in asked] == batches


@pytest.mark.parametrize("steps, ks", [([0.3, 1.7, 2.9, 41.0], (1, 3)),
                                       ([1e-9, 3e-8, 2.9, 41.0], (1, 2))],
                         ids=["ladder", "deep"])
def test_cut_off_error_names_the_last_bracket(steps, ks):
    # cut off after two passes, the error names the first eigenvalue's
    # bracket as the second pass left it: its lower end is that pass's last
    # point below the eigenvalue, and no count is dropped on the way
    asked = []
    analysis._bisect_quantiles(step_counts(steps, asked), ks, 100.0)
    eigenvalue = steps[ks[0] - 1]
    lo = asked[1][asked[1] < eigenvalue].max()
    with pytest.raises(ConvergenceError, match=rf"the {ks[0]}-th eigenvalue stopped at "
                       rf"\[{lo:g}, .* after 2 passes, starting from the bound 100$"):
        analysis._bisect_quantiles(step_counts(steps, []), ks, 100.0, max_passes=2)


def test_grid_point_on_an_eigenvalue(multisection):
    # an 8-section pass counted with the 8 sections of each of its
    # sub-brackets once raised ThresholdAtEigenvalueError here on a point
    # no pass asked for; a 64-section pass counts those very points
    seq, m, s, beta = constant(0.05333548754351021), 7, 3, 0.23029144652921052
    want = multisection(lambda: analysis.auto_grid(GraphCounts(seq, m, s, beta)), True)[0]
    counts = GraphCounts(seq, m, s, beta)
    got = multisection(lambda: analysis.auto_grid(counts), False)[0]
    assert not isinstance(got, HanoiError), got
    assert counts._blocks.fallbacks == 0
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(hi=st.floats(1e-100, 1e100), width=st.floats(1e-13, 8.0 ** 8 - 1.0),
       bounded=st.booleans(), sections=st.sampled_from([8, analysis.SECTIONS]))
def test_section_ends_lie_strictly_inside(hi, width, bounded, sections):
    # down to eigenvalue_brackets' 1e-13 brackets, where the closed form has
    # the least room, and up to the ladder of a bracket without a lower end
    lo = hi / (1.0 + width) if bounded else 0.0
    points = analysis._section_ends(np.array([lo]), np.array([hi]), sections)[0]
    assert points.size == sections - 1
    assert np.all(np.diff(points) > 0)
    assert max(lo, hi * 8.0 ** -8) < points[0] and points[-1] < hi


@pytest.mark.parametrize("m, backend, level", [(3, "inertia", None), (5, "auto", None),
                                                (3, "inertia", 2)],
                         ids=["count-inertia", "count-dense", "bracketing"])
@pytest.mark.parametrize("seq, beta", [(constant(0.43), 0.28),
                                       (geometric_to_limit(0.49, 0.3), 0.22),
                                       (explicit([0.55, 0.43], tail="cycle"), 0.17)],
                         ids=["constant", "geometric", "explicit"])
def test_experiment_eliminates_four_times(monkeypatch, seq, beta, m, backend, level):
    # the set-up point and the first pass's ladder in one elimination, two
    # passes over both ends, then the grid, each threshold at the
    # certificate's two points
    calls = []
    eliminate = BlockInertiaCounter._eliminate

    def spy(self, x, *args, **kwargs):
        calls.append(np.size(x))
        return eliminate(self, x, *args, **kwargs)

    monkeypatch.setattr(BlockInertiaCounter, "_eliminate", spy)
    exp = run_counting_experiment(seq, m, 2, beta, backend=backend, bracket_level=level)
    assert calls == [1 + 2 * 63, 2 * 126, 2 * 126, 2 * len(exp.samples)]
