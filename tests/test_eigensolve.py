"""The block-elimination counter and its LAPACK and SuperLU oracles."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from hanoispec import eigensolve
from hanoispec.analysis import (
    GraphCounts,
    eigenvalue_brackets,
    eigenvalue_groups,
    free_path_pencil,
)
from hanoispec.assembly import (
    Pencil,
    apply_dirichlet,
    assemble_decoupled,
    assemble_neumann,
)
from hanoispec.eigensolve import (
    EPS_SHIFT,
    BlockInertiaCounter,
    InertiaCounter,
    InertiaResult,
    Spectrum,
    count_below,
    eig_dense,
    eig_dense_cached,
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

# a threshold on an eigenvalue or on a zero pivot must not leak a division
# by zero or an invalid value out of the block counter
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

SEQ = constant(0.5)


def path_pencil():
    # free-free path of 2 unit resistors, trapezoidal masses
    L = sp.csr_matrix(
        np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
    )
    return Pencil(L, np.array([0.25, 0.5, 0.25]), np.arange(3))


def m0_pencil():
    return assemble_neumann(build_graph(SEQ, 0, 1, 0.25))


def fail_lapack(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("the algorithm failed to converge")

    monkeypatch.setattr(scipy.linalg, "eigh", fail)


def block_counts(ctr: BlockInertiaCounter, x, level=None) -> tuple:
    """The block counter's rows at thresholds x, from one count, each
    asserted certified by its two float counts, with no 50-digit recount."""
    fallbacks = ctr.fallbacks
    counts = ctr.count(np.asarray(x, dtype=float).ravel(), level)
    assert ctr.fallbacks == fallbacks
    return tuple(counts)


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

    def test_first_dirichlet_eigenvalue_scales_with_level(self):
        # lowest eigenvalue of grounded level-j blocks grows like (3/r)^j
        lam1 = []
        for j in (1, 2, 3):
            g = build_graph(SEQ, 4, 2, 0.25)
            comps = assemble_decoupled(g, j, "dirichlet_split")
            blocks = [c for c in comps if c.n > g.s]
            lam1.append(min(float(eig_dense(c).eigenvalues[0]) for c in blocks))
        ratios = [lam1[i + 1] / lam1[i] for i in range(2)]
        for rr in ratios:
            assert 0.3 * 6.0 <= rr <= 3.0 * 6.0  # (3/r) = 6 up to bounded constants
        slope = np.polyfit([1, 2, 3], np.log(lam1), 1)[0]
        assert slope == pytest.approx(math.log(6.0), rel=0.35)


class TestEmptyPencil:
    """The V_0-grounded level-0 triangle: a pencil with no rows counts 0."""

    @pytest.fixture
    def empty(self):
        g = build_graph(SEQ, 0, 2, 0.25)
        p = apply_dirichlet(assemble_neumann(g), g, "v0")
        assert p.n == 0
        return p

    def test_dense_spectrum_is_empty(self, empty):
        spec = eig_dense(empty)
        assert spec.n == 0
        assert spec.count_leq(1e3) == 0
        assert spec.count_leq(np.array([-1.0, 0.0, 1e3])).tolist() == [0, 0, 0]

    @pytest.mark.parametrize("x", [-1.0, 0.0, 1e3])
    def test_inertia_counts_zero(self, empty, x):
        assert count_below(empty, x) == InertiaResult(x, 0, True)
        assert InertiaCounter(empty).fill_nonzeros == 0


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


def cluster_thresholds(groups) -> list:
    """Each eigenvalue of multiplicity >= 3, and one ulp either side of it.

    The symmetry of the gasket makes highly repeated eigenvalues common.
    """
    out = []
    for lam, mult in groups:
        if mult >= 3:
            out += [np.nextafter(lam, -np.inf), lam, np.nextafter(lam, np.inf)]
    return out


def counted_groups(g) -> list:
    """The eigenvalue groups of the graph's Neumann and V_0-grounded
    pencils, from the brackets of block-elimination counts."""
    return [eigenvalue_groups(lo, hi)
            for lo, hi in eigenvalue_brackets(g.seq, g.m, g.s, g.beta, g.n_vertices)]


def dense_groups(spec) -> list:
    """The groups of a dense spectrum that no count brackets (a component
    pencil, or a union of them): eigenvalues whose bars of LAPACK's error
    bound, 1e-12 lambda_max, overlap."""
    ev = spec.eigenvalues
    tol = 1e-12 * np.max(np.abs(ev), initial=0.0)
    return eigenvalue_groups(ev - tol, ev + tol)


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
            grid = list(np.geomspace(hi * 1e-4, hi, 50)) + cluster_thresholds(dense_groups(spec))
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
        grid = list(np.geomspace(hi * 1e-4, hi, 50))
        for groups in counted_groups(g):
            grid += cluster_thresholds(groups)
        grid = np.array(grid)
        nd, nn = block_counts(BlockInertiaCounter(g.seq, g.m, g.s, g.beta), grid * (1 + 1e-9))
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
            p = Pencil(L, mass, np.arange(n))
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
        for groups in counted_groups(g):
            xs += cluster_thresholds(groups)
        xs = np.array(sorted(x for x in xs if x > 0))
        nd, nn = block_counts(BlockInertiaCounter(g.seq, g.m, g.s, g.beta), xs * (1 + EPS_SHIFT))
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
            xs += cluster_thresholds(dense_groups(sc))
        # the free components' zero modes come out of LAPACK as +-1e-13
        xs = np.array(sorted(x for x in xs if x > 1e-8 * ev[-1]))
        ctr = BlockInertiaCounter(g.seq, g.m, g.s, g.beta)
        nd, nn, lower, upper = block_counts(ctr, xs * (1 + EPS_SHIFT), level=j)
        assert lower.tolist() == [spectra[0].count_leq(float(x)) for x in xs]
        assert upper.tolist() == [spectra[1].count_leq(float(x)) for x in xs]
        assert np.all(lower <= nd) and np.all(nd <= nn) and np.all(nn <= upper)
        # asking for the sums leaves N_D and N_N as they are
        plain = block_counts(ctr, xs * (1 + EPS_SHIFT))
        assert nd.tolist() == plain[0].tolist() and nn.tolist() == plain[1].tolist()

    @pytest.mark.parametrize("j", [0, 4])
    def test_bracketing_level_range(self, j):
        with pytest.raises(LevelError):
            BlockInertiaCounter(SEQ, 3, 2, 0.25).count(np.ones(1), level=j)

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
        nd, nn = block_counts(BlockInertiaCounter(g.seq, g.m, g.s, g.beta), xs)
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
        compat = compatibility_check(seq, 30, beta=0.25)
        for m in range(31):
            for s in (1, 2, 3):
                ctr = BlockInertiaCounter(seq, m, s, 0.25)
                _, _, (w0, sigma0) = ctr._eliminate(np.zeros(1))
                assert w0[0] == 0.0, (m, s)
                R = 2.0 / sigma0[0]
                assert abs(R - 2.0 / 3.0) <= 1e-12, (m, s, R)
                assert compat.resistances[m] == pytest.approx([R] * 3, abs=1e-14), (m, s)

    def test_deep_counts_are_certified_and_monotone(self):
        # around x = 3.0913e18 at m = 24 a level's entries reach 3e13 while
        # B's small pivot sits near 9; every threshold of a dense grid there
        # is certified by its two float counts, monotone in x
        ctr = BlockInertiaCounter(geometric_to_limit(0.6, 0.5), 24, 2, 0.25)
        nd, nn = block_counts(ctr, np.linspace(1 - 1e-3, 1 + 1e-3, 2001) * 3.0913e18)
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
        nd, nn = block_counts(ctr, [x])
        assert (int(nd[0]), int(nn[0])) == (count, count)

    def test_count_next_to_a_cluster_falls_back(self):
        # within about 1e-13 of a cluster of the V_0-grounded pencil, a float
        # pass reads N_D = 1266 with no pivot near zero; the certificate's
        # two counts (1263 and 1281) disagree, and the 50-digit recount gives
        # 1272, as SuperLU on the assembled pencil
        seq, x = constant(0.5), 679171.0463103438
        ctr = BlockInertiaCounter(seq, 6, 3, 0.25)
        counts, ok = ctr._pass(x * np.array([1 - 1e-12, 1.0, 1 + 1e-12]))
        assert ok.all() and counts[0].tolist() == [1263, 1266, 1281]
        assert ctr.count(np.array([x]))[0, 0] == 1272
        assert (ctr.certified, ctr.fallbacks) == (0, 1)
        g = build_graph(seq, 6, 3, 0.25)
        p_d = apply_dirichlet(assemble_neumann(g), g, "v0")
        assert InertiaCounter(p_d).count_below(x).count == 1272

    def test_free_paths_count_their_zero_modes_at_depth(self):
        # at x = 0.01, below every nonzero eigenvalue of the level-20
        # decoupled form, each free cell and free path has its zero mode
        # below x; a free path's last pivot, ~ -x times its mass, sits next
        # to conductances of 1e6 and is formed from row sums to keep it
        ctr = BlockInertiaCounter(SEQ, 20, 2, 0.25)
        upper = block_counts(ctr, [0.01], level=20)[3]
        assert int(upper[0]) == 3 ** 20 + (3 ** 21 - 3) // 2

    def test_threshold_on_neumann_eigenvalue(self):
        # the level-0 triangle has a double eigenvalue at 9: the float sigma_0
        # is exactly 0 there, so the pass flags N_N while N_D (no interior)
        # is not; the certificate's counts either side disagree, and the
        # 50-digit recount puts the pencil's double eigenvalue (its corner
        # mass is the float 1/3) just above 9.  Counted through the shift,
        # N_N takes in both copies, as the dense oracle
        ctr = BlockInertiaCounter(SEQ, 0, 1, 0.25)
        _, (ok_d, ok_n) = ctr._pass(np.array([9.0]))
        assert ok_d[0] and not ok_n[0]
        assert ctr.count(np.array([9.0])).ravel().tolist() == [0, 1]
        assert (ctr.certified, ctr.fallbacks) == (0, 1)
        nn = GraphCounts(SEQ, 0, 1, 0.25).count([9.0])[1]
        assert nn.tolist() == [3] == [eig_dense(m0_pencil()).count_leq(9.0)]

    def test_s0_disagreement_falls_back_in_the_same_call(self, monkeypatch):
        # N_N's two float counts disagree where N_D's agree: the sample is
        # recounted in 50 digits in the same call, after the one float pass
        # of the set-up point and both certificate points
        calls = []
        eliminate = BlockInertiaCounter._eliminate

        def spy(self, x, level=None):
            calls.append((x.dtype.kind, x.size))
            return eliminate(self, x, level)

        monkeypatch.setattr(BlockInertiaCounter, "_eliminate", spy)
        counts = GraphCounts(SEQ, 0, 1, 0.25, eps_shift=0.0)
        assert counts.count([9.0]).ravel().tolist() == [0, 1]
        assert calls == [("f", 3), ("O", 1)]
        assert (counts._blocks.certified, counts._blocks.fallbacks) == (0, 1)

    def test_interior_pivot_failure_flags_both_counts(self):
        # with s = 2 the pivot of a bridge's interior node is 2 c_k - x mu_k,
        # zero at x = 2 c_k / mu_k, which is no eigenvalue of the pencils:
        # a float pass there flags both counts, but the certificate's two
        # points either side agree, so nothing is recounted; the counts,
        # with or without the shift, match dense
        g = build_graph(SEQ, 1, 2, 0.25)
        ctr = BlockInertiaCounter(g.seq, g.m, g.s, g.beta)
        x = 2.0 * ctr.seg_conductance[0] / (ctr.bridge_mass[0] / 2)
        _, (ok_d, ok_n) = ctr._pass(np.array([x]))
        assert not ok_d[0] and not ok_n[0]
        assert block_counts(ctr, [x]) == (6, 9)
        p_n = assemble_neumann(g)
        nd, nn = GraphCounts(g.seq, g.m, g.s, g.beta).count([x])
        assert (nd[0], nn[0]) == (6, 9) == (eig_dense(apply_dirichlet(p_n, g, "v0")).count_leq(x),
                                            eig_dense(p_n).count_leq(x))

    def test_eigenvalues_within_a_few_roundings_fall_back(self):
        # 4 eps off a zero of the interior pivot 2 c_k - x mu_k (m = 1),
        # which is no eigenvalue, and 1e-11 off it, the two float counts
        # agree and certify all four; 4 eps off the double eigenvalue at 9
        # (m = 0, sigma_0 = 0) they disagree, and those two thresholds fall
        # back to 50 digits, which count either side of it; 1e-11 off it
        # they agree
        eps = np.finfo(float).eps
        near, off = [1 + 4 * eps, 1 - 4 * eps], [1 + 1e-11, 1 - 1e-11]
        ctr = BlockInertiaCounter(SEQ, 1, 2, 0.25)
        x0 = 2.0 * ctr.seg_conductance[0] / (ctr.bridge_mass[0] / 2)
        assert ctr.count(x0 * np.array(near + off)).tolist() == [[6] * 4, [9] * 4]
        assert (ctr.certified, ctr.fallbacks) == (4, 0)
        ctr = BlockInertiaCounter(SEQ, 0, 1, 0.25)
        assert ctr.count(9.0 * np.array(near + off)).tolist() == [[0] * 4, [3, 1, 3, 1]]
        assert (ctr.certified, ctr.fallbacks) == (2, 2)

    def test_free_bridge_pivot_failure_flags_the_sums(self):
        # a free bridge's end pivot c_k - x m_b / (2s) vanishes at
        # x = 2 s c_k / m_b, and so does its interior's first pivot; with
        # s = 2 this x is also an eigenvalue of the free bridge, so the
        # certificate's two counts of upperSum disagree and x falls back to
        # 50 digits.  The sums counted through the shift take it in, as the
        # decoupled forms
        g = build_graph(SEQ, 2, 2, 0.25)
        ctr = BlockInertiaCounter(g.seq, g.m, g.s, g.beta)
        x = 2 * g.s * ctr.seg_conductance[0] / ctr.bridge_mass[0]
        _, ok = ctr._pass(np.array([x]), level=1)
        assert not ok[2:].any()
        ctr.count(np.array([x]), level=1)
        assert (ctr.certified, ctr.fallbacks) == (0, 1)
        want = [sum(eig_dense(c).count_leq(x) for c in assemble_decoupled(g, 1, kind))
                for kind in ("dirichlet_split", "neumann_split")]
        sums = GraphCounts(g.seq, g.m, g.s, g.beta).count([x], level=1)[2:, 0]
        assert sums.tolist() == [21, 33] == want

    def test_threshold_error_on_hopeless_shift(self):
        # x = 0 stays 0 through the shift and through the certificate, where
        # S_0 of the Neumann pencil is singular in any precision
        with pytest.raises(ThresholdAtEigenvalueError, match=r"x = 0\.0 .*50-digit"):
            GraphCounts(SEQ, 0, 1, 0.25).count([0.0])

    def test_setup_pass_must_be_positive_definite(self):
        # a negative corner mass makes L - x M indefinite below the bound; the
        # first count also counts there
        ctr = BlockInertiaCounter(SEQ, 1, 1, 0.25)
        ctr.corner_mass = -ctr.corner_mass
        with pytest.raises(ConvergenceError):
            ctr.count(np.ones(1))

    def test_setup_check_guards_eigenvalue_brackets(self, monkeypatch):
        # the same check on the spectrum's path: its first float pass raises
        init, calls = BlockInertiaCounter.__init__, []

        def negated_mass(self, *args):
            init(self, *args)
            self.corner_mass = -self.corner_mass

        def spy(self, x, level=None):
            calls.append(np.size(x))
            return float_pass(self, x, level)

        float_pass = BlockInertiaCounter._pass
        monkeypatch.setattr(BlockInertiaCounter, "__init__", negated_mass)
        monkeypatch.setattr(BlockInertiaCounter, "_pass", spy)
        with pytest.raises(ConvergenceError, match="set-up"):
            eigenvalue_brackets(SEQ, 1, 1, 0.25, 3)
        assert len(calls) == 1

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
        nd, nn = block_counts(ctr, [2.0 * ctr.lambda_max])
        assert (int(nd[0]), int(nn[0])) == (ctr.n - 3, ctr.n)
        with pytest.raises(LevelError, match="int64"):
            BlockInertiaCounter(SEQ, 39, 2, 0.25)
        # upperSum_j reaches the n + 3^(j+1) - 3 vertices of the level-j
        # decoupled form: for the s = 3 graph (n = 8.1e18) that is inside
        # int64 at j = 36 and past it at j = 37
        ctr = BlockInertiaCounter(SEQ, 38, 3, 0.25)
        upper = block_counts(ctr, [2.0 * ctr.lambda_max], level=36)[3]
        assert int(upper[0]) == ctr.n + 3 ** 37 - 3
        with pytest.raises(LevelError, match="int64"):
            ctr.count(np.ones(1), level=37)


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
        neg, _, r = eigensolve._path(ck, [end] + [mu] * (s - 1) + [end], 0.0)
        neg = neg + (r < 0.0)
        assert np.all(eigensolve._finite(r) & (r != 0.0))
        assert neg.tolist() == np.searchsorted(ev, x).tolist() == list(range(1, s + 2))

    @pytest.mark.parametrize("s", [1, 2, 3, 5, 16])
    def test_kept_ends_match_the_dense_schur_complement(self, s):
        # pi counts the pencil with both end rows and columns deleted; g and
        # r are its 2x2 Schur complement onto the ends, [[r + g, -g], [-g, r + g]];
        # s = 1 has no interior node: pi = 0, g = ck and r the end row sum
        p = free_path_pencil(s, self.GAMMA, self.MASS)
        L, mass, inner, ends = p.L.toarray(), p.mass, slice(1, s), [0, s]
        dirichlet = scipy.linalg.eigh(L[inner, inner], np.diag(mass[inner]), eigvals_only=True)
        # thresholds away from the interior eigenvalues: between them,
        # below the first and past the last (one threshold when there is none)
        x = (np.concatenate([[0.5 * dirichlet[0]], self.between(dirichlet),
                             [1.5 * dirichlet[-1]]])
             if s > 1 else np.array([1.0 / (self.GAMMA * self.MASS)]))
        ck, mu, end = self.rows(s, x)
        pi, g, r = eigensolve._path(ck, [mu] * (s - 1) + [end], ck)
        assert eigensolve._finite(r).all()
        assert pi.dtype == np.int64
        assert pi.tolist() == np.searchsorted(dirichlet, x).tolist() == list(range(s))
        if s == 1:
            assert g == ck and r.tolist() == end.tolist()
        g = np.broadcast_to(g, x.shape)
        for i, xi in enumerate(x):
            A = L - xi * np.diag(mass)
            S = A[np.ix_(ends, ends)] - A[ends, inner] @ np.linalg.solve(A[inner, inner],
                                                                          A[inner, ends])
            assert g[i] == pytest.approx(-S[0, 1], rel=1e-12)
            assert r[i] == pytest.approx(S[0, 0] + S[0, 1], rel=1e-12)
