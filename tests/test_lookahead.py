"""auto_grid's multisection counts each pass together with the next one's
points; grids, samples, spectrum brackets and the errors raised stay
bit-identical to counting one pass at a time."""

import random

import numpy as np
import pytest

from hanoispec import analysis, eigensolve
from hanoispec.analysis import (
    GraphCounts,
    auto_grid,
    eigenvalue_brackets,
    run_counting_experiment,
)
from hanoispec.eigensolve import PIVOT_ROUNDING, BlockInertiaCounter
from hanoispec.errors import ConvergenceError, HanoiError
from hanoispec.sequences import constant, explicit, geometric_to_limit

SECTIONS, MAX_PASSES = analysis.SECTIONS, analysis.MAX_PASSES


# The multisection and the two pivot helpers as they were before the
# lookahead: one count call per pass, with the set-up pass, np.where and
# sum() of the old kernel.
def reference_bisect_quantiles(count, ks, upper, rtol=1e-4, max_passes=MAX_PASSES):
    ks = np.asarray(ks)
    lo, hi = np.zeros(ks.size), np.full(ks.size, upper * 1.0001)
    stopped = np.zeros(ks.size, dtype=bool)
    dropped = 0
    for passes in range(max_passes + 1):
        open_ = (hi >= lo * (1.0 + rtol)) & ~stopped
        if passes == max_passes or not open_.any():
            break
        h = hi[open_]
        l = np.maximum(lo[open_], h * SECTIONS ** -SECTIONS)
        xs = np.unique(np.geomspace(l, h, SECTIONS + 1, axis=1)[:, 1:-1])
        n, clear = count(xs)
        keep = np.broadcast_to(clear, xs.shape)
        dropped += int(np.count_nonzero(~keep))
        xs, n = xs[keep], np.asarray(n)[keep]
        last_below = np.searchsorted(np.minimum.accumulate(n[::-1])[::-1], ks)
        first_at = np.searchsorted(np.maximum.accumulate(n), ks)
        xs = np.concatenate(([0.0], xs, [np.inf]))
        lo_was, hi_was = lo, hi
        lo, hi = np.maximum(lo, xs[last_below]), np.minimum(hi, xs[first_at + 1])
        stopped |= open_ & (lo == lo_was) & (hi == hi_was)
    failed = open_ | (lo == 0.0)
    if failed.any():
        i = int(np.argmax(failed))
        raise ConvergenceError(f"multisection for the {ks[i]}-th eigenvalue stopped at "
                               f"[{lo[i]:g}, {hi[i]:g}] after {passes} passes, starting "
                               f"from the bound {upper:g}; {dropped} counts were dropped "
                               "as not clear of their rounding")
    return lo, hi


def reference_pivot(p, mag, clear):
    tol = PIVOT_ROUNDING * mag
    small = np.abs(p) <= tol
    clear &= ~small
    return np.where(small, tol, p)


def reference_neg(*pivots):
    return sum(p < 0.0 for p in pivots)


@pytest.fixture
def reference(monkeypatch):
    """Call f with the multisection and kernel helpers of one pass a call."""
    def run(f, *args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_bisect_quantiles",
                          lambda *a, lookahead=False, **kw: reference_bisect_quantiles(*a, **kw))
            patch.setattr(eigensolve, "_pivot", reference_pivot)
            patch.setattr(eigensolve, "_neg", reference_neg)
            return outcome(f, *args, **kwargs)
    return run


def outcome(f, *args, **kwargs):
    """f's result, or the type and message of the package error it raises."""
    try:
        return f(*args, **kwargs)
    except HanoiError as exc:
        return type(exc), str(exc)


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


def sample_array(exp):
    return np.array([(smp.x, smp.n_dirichlet, smp.n_neumann, smp.lower_sum or 0,
                      smp.upper_sum or 0) for smp in exp.samples])


@pytest.mark.parametrize("seq, m, s, beta, level", sweep(72, 2017),
                         ids=lambda v: v.describe() if hasattr(v, "describe") else None)
def test_counting_matches_one_pass_a_call(reference, seq, m, s, beta, level):
    want_grid = reference(lambda: auto_grid(GraphCounts(seq, m, s, beta)))
    got_grid = outcome(lambda: auto_grid(GraphCounts(seq, m, s, beta)))
    if isinstance(want_grid, tuple):     # an error, raised the same way
        assert got_grid == want_grid
        return
    assert np.array_equal(got_grid, want_grid)
    want = reference(run_counting_experiment, seq, m, s, beta, bracket_level=level)
    got = outcome(run_counting_experiment, seq, m, s, beta, bracket_level=level)
    if isinstance(want, tuple):
        assert got == want
        return
    assert np.array_equal(sample_array(got), sample_array(want))
    assert got.fit == want.fit


@pytest.mark.parametrize("seq, m, s, beta, _", sweep(30, 1899),
                         ids=lambda v: v.describe() if hasattr(v, "describe") else None)
def test_spectrum_matches_one_pass_a_call(reference, seq, m, s, beta, _):
    m = min(m, 6)
    want = reference(eigenvalue_brackets, seq, m, s, beta, 12)
    got = outcome(eigenvalue_brackets, seq, m, s, beta, 12)
    if isinstance(want, tuple):
        assert got == want
        return
    for (lo, hi), (lo_ref, hi_ref) in zip(got, want):
        assert np.array_equal(lo, lo_ref) and np.array_equal(hi, hi_ref)


def test_lookahead_point_on_an_eigenvalue(reference):
    # an unfiltered lookahead once raised ThresholdAtEigenvalueError here on a
    # point that no pass asks for; the grid is the one of a pass a call
    seq, m, s, beta = constant(0.05333548754351021), 7, 3, 0.23029144652921052
    want = reference(lambda: auto_grid(GraphCounts(seq, m, s, beta)))
    assert np.array_equal(auto_grid(GraphCounts(seq, m, s, beta)), want)


def step_counts(steps, asked, unclear=None):
    """Counts of a spectrum with eigenvalues at steps, each batch logged in
    asked; the count at the threshold unclear is not clear of its rounding,
    and wrong: it reads every eigenvalue as below it."""
    def count(xs):
        asked.append(xs.tolist())
        n = np.searchsorted(steps, xs, side="right")
        return np.where(xs == unclear, len(steps), n), xs != unclear
    return count


# eigenvalues 1 and 3 inside the first pass's ladder; eigenvalues 1 and 2
# below two ladders, reached through brackets (0, first point), in an even
# number of passes, so a miss there costs a call
@pytest.mark.parametrize("steps, ks", [([0.3, 1.7, 2.9, 41.0], (1, 3)),
                                       ([1e-13, 3e-12, 2.9, 41.0], (1, 2))], ids=["ladder", "deep"])
class TestLookahead:
    UPPER = 100.0

    def points(self, steps, ks, lookahead):
        asked = []
        ends = analysis._bisect_quantiles(step_counts(steps, asked), ks, self.UPPER,
                                          lookahead=lookahead)
        return ends, asked

    def test_half_the_calls_same_brackets(self, steps, ks):
        want, asked_ref = self.points(steps, ks, False)
        got, asked = self.points(steps, ks, True)
        assert np.array_equal(got, want)
        assert len(asked) == (len(asked_ref) + 1) // 2

    def test_an_unclear_point_only_looked_ahead_at_is_not_dropped(self, steps, ks):
        # no pass asks for it, so it narrows nothing and fails nothing
        want, asked_ref = self.points(steps, ks, False)
        _, asked = self.points(steps, ks, True)
        ahead = sorted(set(sum(asked, [])) - set(sum(asked_ref, [])))
        unclear = ahead[len(ahead) // 2]
        got = analysis._bisect_quantiles(step_counts(steps, [], unclear), ks, self.UPPER,
                                         lookahead=True)
        assert np.array_equal(got, want)

    def test_an_unclear_point_a_pass_asks_for_is_dropped_as_without_lookahead(self, steps, ks):
        # the same brackets either way, and, cut off after three passes, the
        # same error counting the one drop
        _, asked_ref = self.points(steps, ks, False)
        unclear = asked_ref[2][3]
        got = [analysis._bisect_quantiles(step_counts(steps, [], unclear), ks, self.UPPER,
                                          lookahead=lookahead) for lookahead in (False, True)]
        assert np.array_equal(got[0], got[1])
        lo, hi = got[0]
        eigenvalues = np.take(steps, np.subtract(ks, 1))
        assert np.all((lo < eigenvalues) & (eigenvalues <= hi))
        errors = []
        for lookahead in (False, True):
            with pytest.raises(ConvergenceError,
                               match="after 3 passes.*; 1 counts were dropped") as exc:
                analysis._bisect_quantiles(step_counts(steps, [], unclear), ks, self.UPPER,
                                           max_passes=3, lookahead=lookahead)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


@pytest.mark.parametrize("m, backend, level", [(3, "inertia", None), (5, "auto", None),
                                                (3, "inertia", 2)],
                         ids=["count-inertia", "count-dense", "bracketing"])
@pytest.mark.parametrize("seq, beta", [(constant(0.43), 0.28),
                                       (geometric_to_limit(0.49, 0.3), 0.22),
                                       (explicit([0.55, 0.43], tail="cycle"), 0.17)],
                         ids=["constant", "geometric", "explicit"])
def test_experiment_eliminates_four_times(monkeypatch, seq, beta, m, backend, level):
    # set-up and first pass in one elimination, then two multisection passes
    # per elimination, then the grid: 4, where one pass a call took 8
    calls = []
    eliminate = BlockInertiaCounter._eliminate

    def spy(self, x, *args, **kwargs):
        calls.append(np.size(x))
        return eliminate(self, x, *args, **kwargs)

    monkeypatch.setattr(BlockInertiaCounter, "_eliminate", spy)
    exp = run_counting_experiment(seq, m, 2, beta, backend=backend, bracket_level=level)
    assert len(calls) <= 4
    assert calls[-1] == len(exp.samples)
