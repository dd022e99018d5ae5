"""Dense and inertia eigenvalue backends and their cross-validation."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

from hanoispec import eigensolve
from hanoispec.analysis import free_path_pencil
from hanoispec.assembly import (
    Boundary,
    Pencil,
    apply_dirichlet,
    assemble_decoupled,
    assemble_neumann,
)
from hanoispec.eigensolve import (
    EPS_SHIFT,
    BlockInertiaCounter,
    InertiaCounter,
    Spectrum,
    count_below,
    eig_dense,
    eig_dense_cached,
    eig_lowest,
    get_counter,
    lambda_max_bound,
)
from hanoispec.errors import (
    ConvergenceError,
    DomainError,
    LevelError,
    PencilSizeError,
    ThresholdAtEigenvalueError,
)
from hanoispec.geometry import build_graph
from hanoispec.resistance import compatibility_check
from hanoispec.sequences import constant, explicit, geometric_to_limit
from test_resistance import FAMILIES

SEQ = constant(0.5)


def path_pencil():
    # free-free path of 2 unit resistors, trapezoidal masses
    L = sp.csr_matrix(
        np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    )
    return Pencil(L, np.array([0.25, 0.5, 0.25]), Boundary("neumann"), np.arange(3))


def m0_pencil():
    return assemble_neumann(build_graph(SEQ, 0, 1, 0.25))


def readme_pencil(boundary):
    # the README example's level-4, s = 2 graph: 363 rows, 360 grounded
    g = build_graph(SEQ, 4, 2, 0.25)
    p = assemble_neumann(g)
    return apply_dirichlet(p, g, "v0") if boundary == "dirichlet_v0" else p


def drop_a_copy(monkeypatch):
    """Make eigsh leave out one copy of the lowest repeated eigenvalue and
    return the next eigenvalue in its place, as shift-invert iteration can."""
    eigsh = spla.eigsh

    def dropping(A, k, **kwargs):
        w = np.sort(eigsh(A, k=k + 1, **kwargs))
        return np.delete(w, np.flatnonzero(np.diff(w) <= 1e-8 * w[1:])[0])

    monkeypatch.setattr(spla, "eigsh", dropping)


def fail_lapack(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("the algorithm failed to converge")

    monkeypatch.setattr(scipy.linalg, "eigh", fail)


class TestDense:
    def test_m0(self):
        spec = eig_dense(m0_pencil())
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 9.0, 9.0], atol=1e-10)

    def test_path(self):
        spec = eig_dense(path_pencil())
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 4.0, 8.0], atol=1e-12)

    def test_dirichlet_positive(self):
        g = build_graph(SEQ, 2, 1, 0.25)
        p = apply_dirichlet(assemble_neumann(g), g, "v0")
        assert eig_dense(p).eigenvalues[0] > 0

    def test_size_limit(self):
        g = build_graph(SEQ, 3, 2, 0.25)
        with pytest.raises(PencilSizeError) as exc:
            eig_dense(assemble_neumann(g), dense_limit=50)
        assert "count_below" in str(exc.value)

    def test_lapack_failure_is_a_convergence_error(self, monkeypatch):
        fail_lapack(monkeypatch)
        with pytest.raises(ConvergenceError, match="dense eigensolve failed"):
            eig_dense(m0_pencil())

    def test_size_limit_holds_for_cached_spectrum(self):
        p = assemble_neumann(build_graph(SEQ, 3, 2, 0.25))
        assert eig_dense_cached(p).n == p.n
        with pytest.raises(PencilSizeError):
            eig_dense_cached(p, dense_limit=10)

    def test_mass_scaling(self):
        p = assemble_neumann(build_graph(SEQ, 2, 1, 0.25))
        base = eig_dense(p).eigenvalues
        scaled = eig_dense(p.scaled(2.0)).eigenvalues
        np.testing.assert_allclose(scaled, base / 2.0, rtol=1e-12, atol=1e-12)

    def test_neumann_zero_mode_constant(self):
        p = assemble_neumann(build_graph(SEQ, 2, 2, 0.25))
        d = 1.0 / np.sqrt(p.mass)
        A = p.L.toarray() * d[None, :] * d[:, None]
        w, U = np.linalg.eigh(0.5 * (A + A.T))
        v = U[:, 0] * d
        v /= np.linalg.norm(v)
        dev = np.abs(v - v.mean() * np.ones_like(v)).max() / np.abs(v).max()
        assert dev < 1e-8

    def test_multiplicities(self):
        spec = eig_dense(m0_pencil())
        groups = spec.multiplicities()
        assert [m for _, m in groups] == [1, 2]

    def test_multiplicities_match_the_loop(self):
        # the per-eigenvalue loop that the vectorised grouping replaced
        def loop(ev):
            if len(ev) == 0:
                return []
            scale = max(abs(float(ev[0])), abs(float(ev[-1])), 1e-300)
            groups, start = [], 0
            for i in range(1, len(ev) + 1):
                if i == len(ev) or (ev[i] - ev[i - 1]
                                    > eigensolve.MULTIPLICITY_REL_GAP
                                    * max(abs(ev[i - 1]), scale * 1e-6)):
                    groups.append((float(np.mean(ev[start:i])), i - start))
                    start = i
            return groups

        spectra = [eig_dense(readme_pencil(b)).eigenvalues for b in ("neumann", "dirichlet_v0")]
        spectra += [np.array([]), np.array([2.0]), np.full(4, 3.0),
                    np.array([-1e-17, 0.0, 1e-17, 1.0, 1.0 + 1e-9, 1.0 + 1e-7, 5.0])]
        for ev in spectra:
            assert Spectrum(ev).multiplicities() == loop(ev)


class TestInertia:
    def test_m0_counts(self):
        p = m0_pencil()
        assert count_below(p, 1.0).count == 1
        assert count_below(p, 10.0).count == 3

    def test_counts_monotone(self):
        p = assemble_neumann(build_graph(SEQ, 2, 2, 0.25))
        ctr = get_counter(p)
        grid = np.geomspace(0.1, lambda_max_bound(p), 40)
        counts = [ctr.count_below(float(x)).count for x in grid]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_right_continuous_convention(self):
        # x = 9 hits the double eigenvalue of the level-0 triangle
        p = m0_pencil()
        assert count_below(p, 9.0 * (1 + 1e-9)).count == 3

    def test_threshold_at_eigenvalue_retry(self):
        # the path pencil has an exact eigenvalue at 4; the first factorization
        # breaks down and a shifted retry must succeed
        res = count_below(path_pencil(), 4.0)
        assert res.count == 2
        assert not res.factorization_ok

    def test_threshold_error_on_hopeless_shift(self):
        # x = 0 on a singular matrix cannot be nudged multiplicatively
        with pytest.raises(ThresholdAtEigenvalueError):
            count_below(m0_pencil(), 0.0)

    def test_fill_is_allocated(self):
        # the fill reported at set-up is that of the factors every threshold uses
        p = assemble_neumann(build_graph(SEQ, 3, 2, 0.25))
        ctr = InertiaCounter(p)
        lu = ctr._factor(100.0)
        assert ctr.fill_nonzeros == sp.tril(lu.L, k=-1).nnz
        assert ctr.fill_nonzeros >= sp.tril(p.L, k=-1).nnz

    @pytest.mark.parametrize("m", [0, 2])
    def test_zero_diagonal_thresholds(self, m):
        # at x = L_ii / m_i a diagonal entry of L - x M is exactly zero, where
        # SuperLU interchanges rows; such a factorization must not be counted
        p = assemble_neumann(build_graph(SEQ, m, 2, 0.25))
        spec = eig_dense(p)
        ctr = get_counter(p)
        for x in np.unique(p.L.diagonal() / p.mass):
            res = ctr.count_below(float(x))
            oracle = int(np.searchsorted(spec.eigenvalues, res.x, side="left"))
            assert res.count == oracle, (x, res)


def cluster_thresholds(spec) -> list:
    """Each eigenvalue of multiplicity >= 3, and one ulp either side of it.

    The symmetry of the gasket makes highly repeated eigenvalues common.
    """
    out = []
    for lam, mult in spec.multiplicities():
        if mult >= 3:
            out += [np.nextafter(lam, -np.inf), lam, np.nextafter(lam, np.inf)]
    return out


ZOO_LEVELS = [(0, 1), (1, 1), (1, 3), (2, 2), (3, 1), (3, 2), (4, 2), (5, 2)]


def _pencil_zoo():
    zoo = []
    for m, s in ZOO_LEVELS:
        g = build_graph(SEQ, m, s, 0.25)
        p_n = assemble_neumann(g)
        zoo.append(p_n)
        if m >= 1:
            zoo.append(apply_dirichlet(p_n, g, "v0"))
        if 2 <= m <= 3:
            for j in range(1, m):
                zoo.extend(assemble_decoupled(g, j, "neumann_split"))
                zoo.extend(assemble_decoupled(g, j, "dirichlet_split"))
    return zoo


class TestBackendAgreement:
    def test_dense_vs_inertia_exact(self):
        mismatches = []
        for p in _pencil_zoo():
            spec = eig_dense(p)
            ctr = get_counter(p)
            hi = max(float(spec.eigenvalues[-1]) * 1.3, 1.0)
            grid = list(np.geomspace(hi * 1e-4, hi, 50)) + cluster_thresholds(spec)
            for x in grid:
                a = spec.count_leq(float(x))
                b = ctr.count_below(float(x) * (1 + 1e-9)).count
                if a != b:
                    mismatches.append((p.n, float(x), a, b))
        assert mismatches == []

    @pytest.mark.parametrize("m, s", ZOO_LEVELS)
    def test_block_counter_on_zoo_graphs(self, m, s):
        # the zoo's whole-graph pencils, at the grid and cluster thresholds above
        g = build_graph(SEQ, m, s, 0.25)
        p_n = assemble_neumann(g)
        spec_n = eig_dense(p_n)
        spec_d = eig_dense(apply_dirichlet(p_n, g, "v0")) if m else None
        hi = float(spec_n.eigenvalues[-1]) * 1.3
        grid = list(np.geomspace(hi * 1e-4, hi, 50)) + cluster_thresholds(spec_n)
        if m:
            grid += cluster_thresholds(spec_d)
        grid = np.array(grid)
        nd, nn = BlockInertiaCounter(g.seq, g.m, g.s, g.beta).count_below(grid * (1 + 1e-9))
        assert nn.tolist() == [spec_n.count_leq(float(x)) for x in grid]
        assert nd.tolist() == [spec_d.count_leq(float(x)) if m else 0 for x in grid]

    def test_thresholds_at_exact_eigenvalues(self):
        # the free path has closed-form eigenvalues 4 s^2 sin^2(k pi / 2s);
        # querying exactly there must either factor cleanly or retry, and the
        # returned count must match the dense spectrum at the threshold used
        s = 8
        p = free_path_pencil(s)
        spec = eig_dense(p)
        ctr = get_counter(p)
        for k in range(1, s + 1):
            lam = 4.0 * s * s * np.sin(k * np.pi / (2 * s)) ** 2
            res = ctr.count_below(float(lam))
            oracle = int(np.searchsorted(spec.eigenvalues, res.x, side="left"))
            assert res.count == oracle

    def test_random_weighted_laplacians(self):
        # kernel robustness beyond the gasket structure: random connected
        # graphs with log-uniform conductances and masses
        rng = np.random.default_rng(17)
        for trial in range(5):
            n = 60
            rows, cols, vals = [], [], []
            for i in range(1, n):
                j = int(rng.integers(0, i))  # random spanning tree
                rows.append(i), cols.append(j)
            extra = rng.integers(0, n, size=(40, 2))
            for i, j in extra:
                if i != j:
                    rows.append(int(i)), cols.append(int(j))
            for _ in rows:
                vals.append(float(np.exp(rng.uniform(-3, 3))))
            L = sp.coo_matrix((vals + vals, (rows + cols, cols + rows)), shape=(n, n))
            L = (sp.diags(np.asarray(L.sum(axis=1)).ravel()) - L).tocsr()
            mass = np.exp(rng.uniform(-3, 1, size=n))
            p = Pencil(L, mass, Boundary("neumann"), np.arange(n))
            spec = eig_dense(p)
            ctr = get_counter(p)
            hi = float(spec.eigenvalues[-1]) * 1.2
            for x in np.geomspace(hi * 1e-5, hi, 60):
                assert spec.count_leq(float(x)) == ctr.count_below(
                    float(x) * (1 + 1e-9)
                ).count


@st.composite
def whole_graphs(draw):
    return build_graph(draw(FAMILIES), draw(st.integers(0, 4)), draw(st.integers(1, 3)),
                       draw(st.floats(0.05, 0.3)))


@st.composite
def bracketed_graphs(draw):
    """A graph that can be bracketed (m >= 2, s >= 2) and a level 1 <= j <= m."""
    m = draw(st.integers(2, 4))
    g = build_graph(draw(FAMILIES), m, draw(st.sampled_from([2, 3])), draw(st.floats(0.05, 0.3)))
    return g, draw(st.integers(1, m))


class TestBlockCounter:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(whole_graphs())
    def test_matches_superlu_and_dense(self, g):
        # every gap midpoint of both spectra, and on and one ulp either side
        # of every eigenvalue of multiplicity >= 3
        p_n = assemble_neumann(g)
        pencils = [p_n] + ([apply_dirichlet(p_n, g, "v0")] if g.m else [])
        spectra = [eig_dense(p) for p in pencils]
        ev = np.unique(np.concatenate([sc.eigenvalues for sc in spectra]))
        xs = list(0.5 * (ev[1:] + ev[:-1]))
        for sc in spectra:
            xs += cluster_thresholds(sc)
        xs = np.array(sorted(x for x in xs if x > 0))
        nd, nn = BlockInertiaCounter(g.seq, g.m, g.s, g.beta).count_below(xs * (1 + EPS_SHIFT))
        for counts, p, sc in zip((nn, nd), pencils, spectra):
            superlu = get_counter(p)
            assert counts.tolist() == [
                superlu.count_below(float(x) * (1 + EPS_SHIFT)).count for x in xs
            ] == [sc.count_leq(float(x)) for x in xs]
        if g.m == 0:
            assert not nd.any()
        assert np.all(np.diff(nd) >= 0) and np.all(np.diff(nn) >= 0) and np.all(nd <= nn)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(bracketed_graphs())
    def test_bracketing_sums_match_components(self, graph_and_level):
        # lowerSum_j and upperSum_j against every component of the decoupled
        # forms counted densely, at every gap midpoint of their spectra and on
        # and one ulp either side of every eigenvalue of multiplicity >= 3
        g, j = graph_and_level
        spectra = [
            Spectrum(np.sort(np.concatenate([eig_dense(c).eigenvalues
                                             for c in assemble_decoupled(g, j, kind)])))
            for kind in ("dirichlet_split", "neumann_split")
        ]
        ev = np.unique(np.concatenate([sc.eigenvalues for sc in spectra]))
        xs = list(0.5 * (ev[1:] + ev[:-1]))
        for sc in spectra:
            xs += cluster_thresholds(sc)
        # the free components' zero modes come out of LAPACK as +-1e-13
        xs = np.array(sorted(x for x in xs if x > 1e-8 * ev[-1]))
        ctr = BlockInertiaCounter(g.seq, g.m, g.s, g.beta)
        nd, nn, lower, upper = ctr.count_below(xs * (1 + EPS_SHIFT), level=j)
        assert lower.tolist() == [spectra[0].count_leq(float(x)) for x in xs]
        assert upper.tolist() == [spectra[1].count_leq(float(x)) for x in xs]
        assert np.all(lower <= nd) and np.all(nd <= nn) and np.all(nn <= upper)
        # the sums are nudged on their own pivot blocks only
        plain = ctr.count_below(xs * (1 + EPS_SHIFT))
        assert nd.tolist() == plain[0].tolist() and nn.tolist() == plain[1].tolist()

    @pytest.mark.parametrize("j", [0, 4])
    def test_bracketing_level_range(self, j):
        with pytest.raises(LevelError):
            BlockInertiaCounter(SEQ, 3, 2, 0.25).count_below([1.0], level=j)

    @pytest.mark.parametrize("m, s", [(0, 1), (1, 3), (3, 1), (4, 2)])
    @pytest.mark.parametrize("seq", [SEQ, explicit([0.45, 0.53], tail="cycle")],
                             ids=lambda q: q.describe())
    def test_setup_shift_is_the_gershgorin_bound(self, seq, m, s):
        for beta in (0.05, 0.25):
            g = build_graph(seq, m, s, beta)
            bound = lambda_max_bound(assemble_neumann(g))
            ctr = BlockInertiaCounter(seq, m, s, beta)
            assert ctr.lambda_max == pytest.approx(bound, rel=1e-14)
            # and bit for bit the per-level loop that the array form replaced
            cell = 2.0 * abs(ctr.cell_conductance)
            upper = 2.0 * cell / ctr.corner_mass
            for ck, bm in zip(ctr.seg_conductance.tolist(), ctr.bridge_mass.tolist()):
                upper = max(upper, 2.0 * (cell + abs(ck)) / (ctr.corner_mass + bm / (2 * s)))
                if s > 1:
                    upper = max(upper, 4.0 * abs(ck) / (bm / s))
            assert ctr.lambda_max == upper

    @pytest.mark.parametrize("seq, m", [(geometric_to_limit(0.55, 0.3), 6), (SEQ, 7)])
    def test_large_levels_match_superlu(self, seq, m):
        g = build_graph(seq, m, 2, 0.25)
        p_n = assemble_neumann(g)
        p_d = apply_dirichlet(p_n, g, "v0")
        xs = np.geomspace(1.0, lambda_max_bound(p_n), 40) * (1 + EPS_SHIFT)
        nd, nn = BlockInertiaCounter(g.seq, g.m, g.s, g.beta).count_below(xs)
        assert nd.tolist() == [get_counter(p_d).count_below(float(x)).count for x in xs]
        assert nn.tolist() == [get_counter(p_n).count_below(float(x)).count for x in xs]

    @pytest.mark.parametrize(
        "seq", [SEQ, geometric_to_limit(0.55, 0.3), explicit([0.45, 0.53], tail="cycle")],
        ids=lambda q: q.describe(),
    )
    def test_trace_on_v0_is_the_unit_triangle(self, seq):
        # at x = 0, S_0 is the trace of the resistance form on V_0: its row
        # sum w_0 stays exactly zero and every V_0 pair resistance is
        # 2 / sigma_0 = 2/3
        compat = compatibility_check(seq, 6, beta=0.25)
        for m in range(31):
            for s in (1, 2, 3):
                ctr = BlockInertiaCounter(seq, m, s, 0.25)
                _, (w0, sigma0, _, _), _, _ = ctr._eliminate(np.zeros(1))
                assert w0[0] == 0.0, (m, s)
                R = 2.0 / sigma0[0]
                assert abs(R - 2.0 / 3.0) <= 1e-12, (m, s, R)
                if m <= 6:  # the grounded SuperLU solves are off by up to 7.7e-12
                    assert compat.resistances[m] == pytest.approx([R] * 3, abs=compat.tolerance)

    def test_deep_pivots_are_tested_against_their_own_rounding(self):
        # around x = 3.0913e18 at m = 24 a level's entries reach 3e13 while
        # B's small pivot sits near 9, far above its ~1e-2 rounding; every
        # threshold of a dense grid there counts, monotone in x
        ctr = BlockInertiaCounter(geometric_to_limit(0.6, 0.5), 24, 2, 0.25)
        nd, nn = ctr.count_below(np.linspace(1 - 1e-3, 1 + 1e-3, 2001) * 3.0913e18)
        assert np.all(np.diff(nd) >= 0) and np.all(np.diff(nn) >= 0) and np.all(nd <= nn)

    @pytest.mark.parametrize("m, x, count", [
        (24, 3.0913e18, 282441493899),
        (31, 9.207471489519229e21, 40194165462849),
        (34, 4.57336082195115e22, 118654692035292),
        (35, 1.5116010856590714e26, 50031623551648725),
    ])
    def test_deep_counts_match_high_precision(self, m, x, count):
        # the counts of a 60-digit mpmath elimination with the full 3x3 S_k,
        # 6x6 inner-corner blocks and a general Schur complement of each
        # bridge.  At m = 31 and 34 a float64 eigvalsh of the 6x6 blocks
        # clears a 1e-12 test and still miscounts; at m = 35 the form
        # B_22 - (3/4) g^2 / B_11 cancels two multiples of g ~ 4e18 to rounding
        ctr = BlockInertiaCounter(geometric_to_limit(0.6, 0.5), m, 2, 0.25)
        nd, nn = ctr.count_below([x])
        assert (int(nd[0]), int(nn[0])) == (count, count)

    def test_free_paths_count_their_zero_modes_at_depth(self):
        # at x = 0.01, below every nonzero eigenvalue of the level-20
        # decoupled form, each free cell and free path has its zero mode
        # below x; a free path's last pivot, ~ -x times its mass, sits next
        # to conductances of 1e6 and is formed from row sums to keep it
        ctr = BlockInertiaCounter(SEQ, 20, 2, 0.25)
        upper = ctr.count_below([0.01], level=20)[3]
        assert int(upper[0]) == 3 ** 20 + (3 ** 21 - 3) // 2

    def test_threshold_on_neumann_eigenvalue(self):
        # the level-0 triangle has a double eigenvalue at 9: S_0 is singular
        # there, so N_N is nudged up while N_D (no interior) is not
        ctr = BlockInertiaCounter(SEQ, 0, 1, 0.25)
        _, (ok_d, ok_n) = ctr.try_count(np.array([9.0]))
        assert ok_d[0] and not ok_n[0]
        assert ctr.count_below([9.0])[1].tolist() == [count_below(m0_pencil(), 9.0).count]

    def test_s0_failure_nudges_only_n_n(self, monkeypatch):
        # N_D keeps the first pass's count when only S_0 is near-singular
        ctr = BlockInertiaCounter(SEQ, 1, 2, 0.25)
        ctr.count_below([1.0])  # the set-up pass runs on the first call
        passes = iter([
            (np.array([[1], [2]]), np.array([[True], [False]])),
            (np.array([[5], [6]]), np.array([[True], [True]])),
        ])
        monkeypatch.setattr(ctr, "try_count", lambda x, level: next(passes))
        nd, nn = ctr.count_below([10.0])
        assert (nd[0], nn[0]) == (1, 6)

    def test_interior_pivot_failure_nudges_both_counts(self):
        # with s = 2 the pivot of a bridge's interior node is 2 c_k - x mu_k,
        # zero at x = 2 c_k / mu_k, which is no eigenvalue of the pencils
        g = build_graph(SEQ, 1, 2, 0.25)
        ctr = BlockInertiaCounter(g.seq, g.m, g.s, g.beta)
        x = 2.0 * ctr.seg_conductance[0] / (ctr.bridge_mass[0] / 2)
        _, (ok_d, ok_n) = ctr.try_count(np.array([x]))
        assert not ok_d[0] and not ok_n[0]
        p_n = assemble_neumann(g)
        nd, nn = ctr.count_below([x])
        assert (nd[0], nn[0]) == (eig_dense(apply_dirichlet(p_n, g, "v0")).count_leq(x),
                                  eig_dense(p_n).count_leq(x))

    def test_pivots_are_flagged_within_a_few_roundings(self):
        # 4 eps off a zero of the interior pivot 2 c_k - x mu_k (m = 1) and
        # of sigma_0 (m = 0, x = 9) the pivot is rounding and is flagged;
        # 1e-12 off it is clear and counted
        eps = np.finfo(float).eps
        near, off = [1 + 4 * eps, 1 - 4 * eps], [1 + 1e-12, 1 - 1e-12]
        ctr = BlockInertiaCounter(SEQ, 1, 2, 0.25)
        x0 = 2.0 * ctr.seg_conductance[0] / (ctr.bridge_mass[0] / 2)
        _, ok = ctr.try_count(x0 * np.array(near + off))
        assert ok.tolist() == [[False, False, True, True]] * 2
        _, ok = BlockInertiaCounter(SEQ, 0, 1, 0.25).try_count(9.0 * np.array(near + off))
        assert ok.tolist() == [[True] * 4, [False, False, True, True]]

    def test_free_bridge_pivot_failure_nudges_the_sums(self):
        # a free bridge's end pivot c_k - x m_b / (2s) vanishes at
        # x = 2 s c_k / m_b, and so does its interior's first pivot; with
        # s = 2 this x is also an eigenvalue of the free bridge
        g = build_graph(SEQ, 2, 2, 0.25)
        ctr = BlockInertiaCounter(g.seq, g.m, g.s, g.beta)
        x = 2 * g.s * ctr.seg_conductance[0] / ctr.bridge_mass[0]
        _, ok = ctr.try_count(np.array([x]), level=1)
        assert not ok[2:].any()
        xt = x * (1 + 10 * EPS_SHIFT)
        want = [sum(eig_dense(c).count_leq(xt, 0.0) for c in assemble_decoupled(g, 1, kind))
                for kind in ("dirichlet_split", "neumann_split")]
        assert [int(c[0]) for c in ctr.count_below([x], level=1)[2:]] == want

    def test_threshold_error_on_hopeless_shift(self):
        with pytest.raises(ThresholdAtEigenvalueError):
            BlockInertiaCounter(SEQ, 0, 1, 0.25).count_below([0.0])

    def test_setup_pass_must_be_positive_definite(self):
        # a negative corner mass makes L - x M indefinite below the bound; the
        # first count_below runs the set-up pass
        ctr = BlockInertiaCounter(SEQ, 1, 1, 0.25)
        ctr.corner_mass = -ctr.corner_mass
        with pytest.raises(ConvergenceError):
            ctr.count_below([1.0])

    def test_graph_args_are_checked(self):
        for m, s, beta in [(-1, 2, 0.25), (2, 0, 0.25), (2, 2, 0.4), (2, 2, 0.0)]:
            with pytest.raises(DomainError):
                BlockInertiaCounter(SEQ, m, s, beta)

    def test_counts_stay_in_int64(self):
        # n = 6.1e18 at m = 38 (s = 2) still fits int64; above the bound
        # every eigenvalue is counted.  At m = 39 (n = 1.8e19) the counts
        # once wrapped to -2.1e17 at x = 1e30.
        ctr = BlockInertiaCounter(SEQ, 38, 2, 0.25)
        assert ctr.n == 3 ** 39 + (3 ** 39 - 3) // 2 < 2 ** 63
        nd, nn = ctr.count_below([2.0 * ctr.lambda_max])
        assert (int(nd[0]), int(nn[0])) == (ctr.n - 3, ctr.n)
        with pytest.raises(LevelError, match="int64"):
            BlockInertiaCounter(SEQ, 39, 2, 0.25)
        # upperSum_j reaches the n + 3^(j+1) - 3 vertices of the level-j
        # decoupled form: for the s = 3 graph (n = 8.1e18) that is inside
        # int64 at j = 36 and past it at j = 37
        ctr = BlockInertiaCounter(SEQ, 38, 3, 0.25)
        upper = ctr.count_below([2.0 * ctr.lambda_max], level=36)[3]
        assert int(upper[0]) == ctr.n + 3 ** 37 - 3
        with pytest.raises(LevelError, match="int64"):
            ctr.count_below([1.0], level=37)


class TestPath:
    """The bridge recurrence against the dense 1-D reference pencil: a path
    of s segments, total resistance GAMMA and total mass MASS."""

    GAMMA, MASS = 0.37, 0.021

    @staticmethod
    def between(ev):
        # off the midpoints: by the path's symmetry, the midpoint of two
        # eigenvalues can be an exact zero of a pivot
        return 0.6 * ev[:-1] + 0.4 * ev[1:]

    def rows(self, s, x):
        # the conductance of a segment and the row sums of an interior node and an end
        return s / self.GAMMA, -x * (self.MASS / s), -x * (self.MASS / (2 * s))

    @pytest.mark.parametrize("s", [1, 2, 3, 5, 16])
    def test_free_free_path_counts_as_the_dense_pencil(self, s):
        # thresholds between consecutive eigenvalues and past the top one
        ev = eig_dense(free_path_pencil(s, self.GAMMA, self.MASS)).eigenvalues
        x = np.append(self.between(ev), 1.5 * ev[-1])
        ck, mu, end = self.rows(s, x)
        clear = np.ones(x.size, dtype=bool)
        neg, _, r, r_mag = eigensolve._path(ck, [end] + [mu] * (s - 1) + [end], 0.0, clear)
        neg = neg + (eigensolve._pivot(r, r_mag, clear) < 0.0)
        assert clear.all()
        assert neg.tolist() == np.searchsorted(ev, x).tolist() == list(range(1, s + 2))

    @pytest.mark.parametrize("s", [2, 3, 5, 16])
    def test_kept_ends_match_the_dense_schur_complement(self, s):
        # pi counts the pencil with both end rows and columns deleted; g and
        # r are its 2x2 Schur complement onto the ends, [[r + g, -g], [-g, r + g]]
        p = free_path_pencil(s, self.GAMMA, self.MASS)
        L, mass, inner, ends = p.L.toarray(), p.mass, slice(1, s), [0, s]
        dirichlet = scipy.linalg.eigh(L[inner, inner], np.diag(mass[inner]), eigvals_only=True)
        # thresholds away from the interior eigenvalues: between them,
        # below the first and past the last
        x = np.concatenate([[0.5 * dirichlet[0]], self.between(dirichlet),
                            [1.5 * dirichlet[-1]]])
        ck, mu, end = self.rows(s, x)
        clear = np.ones(x.size, dtype=bool)
        pi, g, r, _ = eigensolve._path(ck, [mu] * (s - 1) + [end], ck, clear)
        assert clear.all()
        assert pi.tolist() == np.searchsorted(dirichlet, x).tolist() == list(range(s))
        for i, xi in enumerate(x):
            A = L - xi * np.diag(mass)
            S = A[np.ix_(ends, ends)] - A[ends, inner] @ np.linalg.solve(A[inner, inner],
                                                                          A[inner, ends])
            assert g[i] == pytest.approx(-S[0, 1], rel=1e-12)
            assert r[i] == pytest.approx(S[0, 0] + S[0, 1], rel=1e-12)


class TestLowest:
    def test_m0_two(self):
        spec = eig_lowest(m0_pencil(), 2)
        np.testing.assert_allclose(spec.eigenvalues, [0.0, 9.0], atol=1e-10)

    def test_matches_dense_on_larger_graph(self):
        p = assemble_neumann(build_graph(SEQ, 3, 2, 0.25))
        low = eig_lowest(p, 12)
        full = eig_dense(p)
        np.testing.assert_allclose(low.eigenvalues, full.eigenvalues[:12],
                                   rtol=1e-7, atol=1e-8)

    @pytest.mark.parametrize("boundary,n", [("neumann", 363), ("dirichlet_v0", 360)])
    def test_shift_invert_path_matches_dense(self, monkeypatch, boundary, n):
        # n > 300 and k <= n/3: eig_lowest must answer from ARPACK, without
        # falling back to the dense solver
        g = build_graph(SEQ, 4, 2, 0.25)
        p = assemble_neumann(g)
        if boundary == "dirichlet_v0":
            p = apply_dirichlet(p, g, "v0")
        assert p.n == n
        ref = eig_dense(p).eigenvalues[:12]
        calls = []
        eigsh = spla.eigsh

        def spy(*args, **kwargs):
            calls.append(kwargs["k"])
            return eigsh(*args, **kwargs)

        def no_dense(*args, **kwargs):
            raise AssertionError("eig_lowest fell back to the dense solver")

        monkeypatch.setattr(spla, "eigsh", spy)
        monkeypatch.setattr(eigensolve, "eig_dense", no_dense)
        low = eig_lowest(p, 12)
        assert calls == [12]
        np.testing.assert_allclose(low.eigenvalues, ref, rtol=1e-7, atol=1e-7 * ref[-1])

    @pytest.mark.parametrize("boundary", ["neumann", "dirichlet_v0"])
    def test_keeps_every_copy_of_a_repeated_eigenvalue(self, boundary):
        # at k = 101 shift-invert iteration converges on every value it
        # returns on these pencils but leaves out a copy of a repeated one;
        # the inertia counts see that and the dense solver answers
        p = readme_pencil(boundary)
        ref = eig_dense(p).eigenvalues
        low = eig_lowest(p, 101)
        np.testing.assert_allclose(low.eigenvalues, ref[:101], rtol=0, atol=1e-9 * ref[101])
        want = Spectrum(ref[:101]).multiplicities()
        got = low.multiplicities()
        assert [c for _, c in got] == [c for _, c in want]
        np.testing.assert_allclose([v for v, _ in got], [v for v, _ in want],
                                   rtol=0, atol=1e-9 * ref[101])

    def test_skipped_copy_falls_back_to_dense(self, monkeypatch):
        p = readme_pencil("neumann")
        ref = eig_dense(p).eigenvalues[:12]
        drop_a_copy(monkeypatch)
        np.testing.assert_allclose(eig_lowest(p, 12).eigenvalues, ref,
                                   rtol=0, atol=1e-9 * ref[-1])

    def test_skipped_copy_above_dense_limit_raises(self, monkeypatch):
        p = readme_pencil("dirichlet_v0")
        drop_a_copy(monkeypatch)
        with pytest.raises(ConvergenceError, match="inertia counts"):
            eig_lowest(p, 12, dense_limit=p.n - 1)

    def test_scaling_law(self):
        p = assemble_neumann(build_graph(SEQ, 2, 2, 0.25))
        base = eig_lowest(p, 5).eigenvalues
        scaled = eig_lowest(p.scaled(2.0), 5).eigenvalues
        np.testing.assert_allclose(scaled, base / 2.0, rtol=1e-10, atol=1e-10)

    def test_k_out_of_range(self):
        with pytest.raises(DomainError):
            eig_lowest(m0_pencil(), 0)

    def test_first_dirichlet_eigenvalue_scales_with_level(self):
        # lowest eigenvalue of grounded level-j blocks grows like (3/r)^j
        import math

        lam1 = []
        for j in (1, 2, 3):
            g = build_graph(SEQ, 4, 2, 0.25)
            comps = assemble_decoupled(g, j, "dirichlet_split")
            blocks = [c for c in comps if c.n > g.s]
            lam1.append(min(float(eig_lowest(c, 1).eigenvalues[0]) for c in blocks))
        ratios = [lam1[i + 1] / lam1[i] for i in range(2)]
        for rr in ratios:
            assert 0.3 * 6.0 <= rr <= 3.0 * 6.0  # (3/r) = 6 up to bounded constants
        slope = np.polyfit([1, 2, 3], np.log(lam1), 1)[0]
        assert slope == pytest.approx(math.log(6.0), rel=0.35)
