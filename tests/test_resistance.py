"""Effective resistance, compatibility, harmonic extension, diameters."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from hanoispec import geometry, resistance
from hanoispec.assembly import Pencil, assemble_decoupled, assemble_neumann
from hanoispec.errors import ConnectivityError, DomainError, LevelError, PencilSizeError
from hanoispec.geometry import block_corner_ids, build_graph, cell_corner_ids, enumerate_words
from hanoispec.resistance import (
    GroundedSolver,
    cell_diameter_scaling,
    compatibility_check,
    corner_chain_dimension,
    effective_resistance,
    harmonic_extension,
)
from hanoispec.sequences import constant, explicit, geometric_to_limit, scale_factors

SEQ = constant(0.5)
# families whose level-5 graph reads its V_0 pair resistances within 1e-10
# of 2/3; constant(0.05) does only up to level 3
WIRING_FAMILIES = [constant(0.5), constant(0.3), geometric_to_limit(0.6, 0.5),
                   explicit([0.45, 0.53], "cycle")]


# The 9-node network of a parent block: node 3c + i is corner i of the
# child c, node 4i is corner i of the parent.  Its edges by kind: the
# parent's corner pairs (0, 1), (0, 2), (1, 2) (carrying its exterior E),
# the child triangles' sides, the bridges.
NETWORK = np.zeros((9, 9, 5))
NETWORK[[0, 0, 4, 1, 2, 5], [4, 8, 8, 3, 6, 7], [0, 1, 2, 4, 4, 4]] = 1.0
NETWORK += NETWORK.transpose(1, 0, 2)
NETWORK[:, :, 3] = np.kron(np.eye(3), np.ones((3, 3))) - np.eye(9)


def schur_exteriors(E: np.ndarray, t: float, b: float) -> np.ndarray:
    """Dense oracle for ``_child_exteriors``: each child's exterior is the
    Schur complement, onto its corners, of the network's Laplacian
    without the child's own triangle."""
    out = np.zeros((3, E.shape[1], 3))
    for col in range(E.shape[1]):
        C = NETWORK @ np.append(E[:, col], [t, b])
        for a in range(3):
            child = [3 * a, 3 * a + 1, 3 * a + 2]
            rest = [v for v in range(9) if v not in child]
            Ca = C.copy()
            Ca[np.ix_(child, child)] = 0.0
            L = np.diag(Ca.sum(axis=1)) - Ca
            S = L[np.ix_(child, child)] - L[np.ix_(child, rest)] @ np.linalg.solve(
                L[np.ix_(rest, rest)], L[np.ix_(rest, child)])
            out[:, col, a] = -S[[0, 0, 1], [1, 2, 2]]
    return out.reshape(3, -1)


def pinv_resistances(p: Pencil, ids) -> np.ndarray:
    """Dense oracle: R[i, j] from the pseudo-inverse of the Laplacian."""
    K = np.linalg.pinv(p.L.toarray())[np.ix_(ids, ids)]
    d = np.diag(K)
    return d[:, None] + d[None, :] - 2.0 * K


def two_disjoint_edges() -> Pencil:
    L = sp.csr_matrix(np.kron(np.eye(2), [[1.0, -1.0], [-1.0, 1.0]]))
    return Pencil(L, np.full(4, 0.25), np.arange(4))


class TestEffectiveResistance:
    def test_triangle_pair(self):
        p = assemble_neumann(build_graph(SEQ, 0, 1, 0.25))
        assert effective_resistance(p, 0, 1) == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_m1_boundary_pair_matches_triangle(self):
        g = build_graph(SEQ, 1, 1, 0.25)
        p = assemble_neumann(g)
        ids = cell_corner_ids(g, "")
        # independent dense oracle via pseudo-inverse
        L = p.L.toarray()
        K = np.linalg.pinv(L)
        for a, b in ((0, 1), (0, 2), (1, 2)):
            oracle = K[ids[a], ids[a]] + K[ids[b], ids[b]] - 2 * K[ids[a], ids[b]]
            fast = effective_resistance(p, ids[a], ids[b])
            assert fast == pytest.approx(oracle, rel=1e-10)
            assert fast == pytest.approx(2.0 / 3.0, rel=1e-10)

    def test_isolated_bridge_is_series(self):
        # a split-off bridge is s resistors of gamma/s in series
        g = build_graph(SEQ, 2, 4, 0.25)
        comps = assemble_decoupled(g, 2, "neumann_split")
        n_corners = 3 ** (g.m + 1)
        bridges = 0
        for c in comps:
            ends = np.flatnonzero(c.vertex_map < n_corners)
            if c.n != g.s + 1 or len(ends) != 2:
                continue
            level = int(g.line_level[c.vertex_map[ends[0]]])
            r = effective_resistance(c, int(ends[0]), int(ends[1]))
            assert r == pytest.approx(float(g.gamma[level - 1]), rel=1e-12)
            bridges += 1
        assert bridges == (3 ** (g.m + 1) - 3) // 2

    def test_metric_properties(self):
        g = build_graph(SEQ, 2, 2, 0.25)
        p = assemble_neumann(g)
        solver = GroundedSolver(p)
        rng = np.random.default_rng(11)
        for _ in range(100):
            u, v, w = rng.choice(p.n, size=3, replace=False)
            ruv = solver.pair_resistance(int(u), int(v))
            rvu = solver.pair_resistance(int(v), int(u))
            assert ruv == pytest.approx(rvu, rel=1e-10)
            ruw = solver.pair_resistance(int(u), int(w))
            rvw = solver.pair_resistance(int(v), int(w))
            assert ruw <= ruv + rvw + 1e-10


class TestDisconnected:
    @pytest.mark.parametrize(
        "call",
        [
            lambda p: effective_resistance(p, 0, 2),
            lambda p: effective_resistance(p, 0, 1),
            lambda p: harmonic_extension(p, {0: 1.0, 1: 0.0}),
            lambda p: GroundedSolver(p),
        ],
        ids=["across", "within", "harmonic_extension", "GroundedSolver"],
    )
    def test_connectivity_error(self, call):
        with pytest.raises(ConnectivityError):
            call(two_disjoint_edges())

    def test_error_names_the_offending_set(self):
        # one grounded vertex per component keeps the solver nonsingular;
        # a set of two grounded vertices then has zero resistance
        solver = GroundedSolver(two_disjoint_edges(), ground=[0, 2])
        assert solver.resistance_matrix([1, 3])[0, 1] == pytest.approx(2.0, rel=1e-12)
        with pytest.raises(ConnectivityError, match=r"among vertices \[0, 2\]$"):
            solver.resistance_matrix([0, 2])

    @pytest.mark.parametrize(
        "seq, level",
        [(constant(0.05), 6), (constant(0.1), 7)],
        ids=["constant-0.05", "constant-0.1"],
    )
    def test_extreme_ratios_stay_connected(self, seq, level):
        # the grounded solves there leave residuals above 1e-8 ||b|| that
        # refinement cannot lower, with backward errors near eps
        g = build_graph(seq, level, 1, 0.25)
        R = GroundedSolver(assemble_neumann(g)).resistance_matrix(block_corner_ids(g, 0)[0])
        assert np.all(R[~np.eye(3, dtype=bool)] > 0.0)


class TestResistanceMatrixShapes:
    def test_repeated_vertex_is_named(self):
        solver = GroundedSolver(assemble_neumann(build_graph(SEQ, 1, 1, 0.25)))
        with pytest.raises(DomainError, match=r"got \[2, 5, 2\]$"):
            solver.resistance_matrix([2, 5, 2])

    @pytest.mark.parametrize("ids", [[0], [[0], [1]], [[[0, 1]]]], ids=["one", "ones", "3-d"])
    def test_bad_shapes(self, ids):
        solver = GroundedSolver(assemble_neumann(build_graph(SEQ, 1, 1, 0.25)))
        with pytest.raises(DomainError):
            solver.resistance_matrix(ids)

    def test_ground_in_every_component(self):
        ext = harmonic_extension(two_disjoint_edges(), {0: 1.0, 2: 0.0})
        np.testing.assert_allclose(ext.values, [1.0, 1.0, 0.0, 0.0], atol=1e-15)
        assert ext.energy == pytest.approx(0.0, abs=1e-15)


class TestCompatibility:
    def test_constant_half_levels(self):
        rep = compatibility_check(SEQ, 4)
        assert rep.ok
        assert rep.max_deviation <= 1e-9

    @pytest.mark.parametrize("seq", WIRING_FAMILIES + [constant(0.05)], ids=lambda q: q.describe())
    def test_level_40_builds_no_graph_and_factors_nothing(self, monkeypatch, seq):
        # the level-40 graph has 3.6e19 vertices; the series reduction of
        # the trace onto V_0 needs only the scale factors
        def no_graph(*args, **kwargs):
            raise AssertionError("a graph was built or factored")

        monkeypatch.setattr(geometry, "build_graph", no_graph)
        monkeypatch.setattr(resistance, "GroundedSolver", no_graph)
        rep = compatibility_check(seq, 40)
        assert rep.levels == tuple(range(41))
        assert rep.max_deviation <= 1e-14

    @pytest.mark.parametrize("seq", WIRING_FAMILIES, ids=lambda q: q.describe())
    def test_matches_grounded_solves_on_the_graph(self, seq):
        # the graph's wiring: its V_0 pair resistances by SuperLU agree with
        # the series reduction (the graph's own deviation is at most 5.3e-12)
        rep = compatibility_check(seq, 5)
        for m in range(6):
            g = build_graph(seq, m, 1, 0.25)
            R = GroundedSolver(assemble_neumann(g)).resistance_matrix(block_corner_ids(g, 0)[0])
            graph = (R[0, 1], R[0, 2], R[1, 2])
            np.testing.assert_allclose(graph, rep.resistances[m], rtol=0, atol=1e-10)

    @pytest.mark.parametrize("kwargs", [{"m_max": -1}, {"m_max": 2, "beta": 0.4}])
    def test_bad_arguments(self, kwargs):
        with pytest.raises(DomainError):
            compatibility_check(SEQ, **kwargs)

    def test_m0_trivial(self):
        rep = compatibility_check(SEQ, 0)
        assert rep.resistances[0] == pytest.approx((2 / 3, 2 / 3, 2 / 3), rel=1e-12)

    def test_perturbed_rho_fails(self):
        # violating the matching equation by hand must break the equivalence
        g = build_graph(SEQ, 1, 1, 0.25)
        g.edge_r[g.n_cell_edges:] = 0.2
        p = assemble_neumann(g)
        ids = cell_corner_ids(g, "")
        r = effective_resistance(p, ids[0], ids[1])
        assert abs(r - 2.0 / 3.0) > 1e-3

    def test_level_invariance_all_families(self):
        for seq in (constant(1 / 3), constant(0.45), geometric_to_limit(0.6, 0.5)):
            rep = compatibility_check(seq, 3)
            assert rep.max_deviation <= 1e-9

    def test_refinement_preserves_shared_pair_resistances(self):
        # matching pairs make each refined cell trace-equivalent to its
        # coarse triangle, so resistances between vertices present at level
        # j are invariant under building deeper graphs, not only on V_0
        values = []
        for m in (1, 2, 3):
            g = build_graph(SEQ, m, 1, 0.25)
            solver = GroundedSolver(assemble_neumann(g))
            ids = cell_corner_ids(g, "1")
            ids0 = cell_corner_ids(g, "")
            values.append(
                (
                    solver.pair_resistance(ids[1], ids[2]),
                    solver.pair_resistance(ids0[0], ids[1]),
                )
            )
        for later in values[1:]:
            assert later[0] == pytest.approx(values[0][0], rel=1e-10)
            assert later[1] == pytest.approx(values[0][1], rel=1e-10)


class TestHarmonicExtension:
    def test_duality_with_resistance(self):
        g = build_graph(SEQ, 2, 1, 0.25)
        p = assemble_neumann(g)
        ids = cell_corner_ids(g, "")
        ext = harmonic_extension(p, {ids[0]: 1.0, ids[1]: 0.0})
        r = effective_resistance(p, ids[0], ids[1])
        assert ext.energy == pytest.approx(1.0 / r, rel=1e-10)

    def test_constant_data(self):
        g = build_graph(SEQ, 1, 2, 0.25)
        p = assemble_neumann(g)
        ids = cell_corner_ids(g, "")
        ext = harmonic_extension(p, {v: 2.5 for v in ids})
        np.testing.assert_allclose(ext.values, 2.5, atol=1e-12)
        assert ext.energy == pytest.approx(0.0, abs=1e-12)

    def test_minimizing_property(self):
        g = build_graph(SEQ, 1, 2, 0.25)
        p = assemble_neumann(g)
        ext = harmonic_extension(p, {0: 1.0, 4: 0.0})
        rng = np.random.default_rng(3)
        for _ in range(10):
            pert = ext.values.copy()
            noise = rng.normal(scale=1e-3, size=p.n)
            noise[[0, 4]] = 0.0
            pert += noise
            assert float(pert @ p.L.dot(pert)) >= ext.energy - 1e-15

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_block_indicator_energy_bound(self, m):
        # 1 on one m-cell's corners and its adjoining vertices, 0 on all other
        # level-m block corners, harmonic elsewhere: energy at most 6/delta_m
        seq = SEQ
        g = build_graph(seq, m + 1, 1, 0.25)
        p = assemble_neumann(g)
        target = enumerate_words(m)[0]
        fixed = {}
        for w in enumerate_words(m):
            for v in cell_corner_ids(g, w):
                fixed[v] = 0.0
        block = set()
        for v in cell_corner_ids(g, target):
            block.add(v)
            fixed[v] = 1.0
        for path in g.bridge_paths.tolist():
            ends = {path[0], path[-1]}
            if ends & block:
                for v in ends:
                    fixed[v] = 1.0
        ext = harmonic_extension(p, fixed)
        delta_m = scale_factors(seq, m).delta[m]
        assert ext.energy <= 6.0 / delta_m + 1e-9


class TestDiameterScaling:
    def test_constant_half_small(self):
        ds = cell_diameter_scaling(SEQ, 4, 2)
        assert ds.max_diameter[0] == pytest.approx(2.0 / 3.0, rel=1e-9)
        # consecutive ratios near r = 1/2
        for j in range(2):
            ratio = ds.max_diameter[j + 1] / ds.max_diameter[j]
            assert 0.3 <= ratio <= 0.7
        assert ds.dimension_estimate == pytest.approx(
            math.log(3) / math.log(2), rel=0.10
        )
        assert ds.slope == ds.slope_raw  # no drift for constant families

    @pytest.mark.parametrize("j_max", [3, -1])
    def test_level_guard(self, j_max):
        with pytest.raises(LevelError):
            cell_diameter_scaling(SEQ, 3, j_max)

    def test_records_cover_all_blocks(self, monkeypatch):
        # the recursion builds no graph and factors nothing
        def no_graph(*args, **kwargs):
            raise AssertionError("a graph was built or factored")

        monkeypatch.setattr(geometry, "build_graph", no_graph)
        monkeypatch.setattr(resistance, "GroundedSolver", no_graph)
        ds = cell_diameter_scaling(SEQ, 3, 2)
        assert len(ds.records) == 1 + 3 + 9
        assert [(j, w) for j, w, _ in ds.records] == [
            (j, w) for j in range(3) for w in enumerate_words(j)
        ]

    def test_past_physical_memory_raises_unallocated(self, monkeypatch):
        # the recursion's 3**20 level-20 blocks need more than physical
        # memory: refused before the scale factors
        def no_scales(*args, **kwargs):
            raise AssertionError("the recursion started")

        monkeypatch.setattr(resistance, "level_scales", no_scales)
        with pytest.raises(PencilSizeError, match="the level-20 blocks"):
            cell_diameter_scaling(SEQ, 21, 20)

    def test_child_exteriors_match_the_schur_complement(self):
        # the closed-form trace against the 9-node network's Schur
        # complement, on random positive conductances within two decades;
        # the oracle's solve subtracts, so its own error grows with their
        # spread (1e-11 over six decades, where the trace still agrees with
        # 50-digit arithmetic to 1e-15)
        rng = np.random.default_rng(31)
        for _ in range(40):
            E = 10.0 ** rng.uniform(-1, 1, (3, 4))
            t, b = 10.0 ** rng.uniform(-1, 1, 2)
            np.testing.assert_allclose(resistance._child_exteriors(E, t, b),
                                       schur_exteriors(E, t, b), rtol=1e-13, atol=0)

    def test_child_exteriors_of_the_root_keep_the_oracle_zeros(self):
        # with E = 0, a child's corner on its parent's corner touches
        # nothing outside the child: its two pairs are exactly 0
        rng = np.random.default_rng(32)
        for _ in range(10):
            t, b = 10.0 ** rng.uniform(-1, 1, 2)
            fast = resistance._child_exteriors(np.zeros((3, 2)), t, b)
            oracle = schur_exteriors(np.zeros((3, 2)), t, b)
            assert np.array_equal(fast == 0.0, oracle == 0.0)
            assert np.count_nonzero(fast) == 6
            np.testing.assert_allclose(fast, oracle, rtol=1e-13, atol=0)

    @pytest.mark.parametrize(
        "seq, dimension, rel",
        [(constant(0.5), 1.58496, 1e-4), (geometric_to_limit(0.6, 0.5), 2.15066, 1e-4),
         (constant(0.05), 0.36673, 1e-4), (constant(1e-4), 0.119280, 1e-4),
         (geometric_to_limit(0.5, 0.9), 1.58496, 1e-3)],
        ids=["constant-0.5", "geometric", "constant-0.05", "constant-1e-4", "slow-geometric"],
    )
    def test_corner_chain_dimension_reads_the_prediction(self, seq, dimension, rel):
        # ln 3 / ln(1/r) for the family's limit r, from the corner chain
        # 1^j fitted over j = 20..48.  At r = 1e-4 the raw conductances of
        # level 48 would overflow; at q = 0.9 (q^20 = 0.12) the fit reads
        # 4 % low without the delta_j / r^j drift correction, and the
        # 6e-4 left is the drift of the block's shape, not of its scale
        assert corner_chain_dimension(seq) == pytest.approx(dimension, rel=rel)

    def test_corner_chain_dimension_needs_ratios_to_level_48(self):
        assert corner_chain_dimension(explicit([0.5, 0.4, 0.55])) is None
        assert corner_chain_dimension(explicit([0.5] * 48)) == pytest.approx(
            math.log(3) / math.log(2), rel=1e-12)

    @pytest.mark.parametrize("spare,fits", [(0, True), (-1, False)])
    def test_memory_bound_is_660_bytes_per_block(self, monkeypatch, spare, fits):
        # j_max = 2: 9 blocks take 660 * 9 bytes
        pages = {"SC_PHYS_PAGES": 660 * 9 + spare, "SC_PAGE_SIZE": 1}
        monkeypatch.setattr(geometry.os, "sysconf", pages.__getitem__)
        if fits:
            assert len(cell_diameter_scaling(SEQ, 3, 2).records) == 13
        else:
            with pytest.raises(PencilSizeError):
                cell_diameter_scaling(SEQ, 3, 2)

    @pytest.mark.parametrize(
        "seq",
        [constant(0.5), geometric_to_limit(0.6, 0.5), explicit([0.45, 0.53], "cycle")],
        ids=["constant", "geometric", "band"],
    )
    @pytest.mark.parametrize("j_max", [4, 5])
    def test_matches_grounded_solves_on_the_level_j_max_graph(self, seq, j_max):
        # the graph path the recursion replaced: one grounded solve per block
        # corner triple on the level-j_max graph
        ds = cell_diameter_scaling(seq, j_max + 1, j_max)
        g = build_graph(seq, j_max, 1, 0.25)
        solver = GroundedSolver(assemble_neumann(g))
        reference = [
            solver.resistance_matrix(ids).max()
            for j in range(j_max + 1) for ids in block_corner_ids(g, j)
        ]
        diameters = [d for _, _, d in ds.records]
        np.testing.assert_allclose(diameters, reference, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("seq", [geometric_to_limit(0.6, 0.5), constant(0.05)],
                             ids=["geometric", "constant"])
    def test_corner_chain_holds_at_60_digits(self, seq):
        # the exterior of the corner chain 1^j, stepped from the same scale
        # factors in floats and in 60-digit arithmetic, agrees to 1e-15
        # relative at every j <= 40: no step subtracts, so no rounding
        # error is amplified by cancellation
        mpmath = pytest.importorskip("mpmath")
        delta, gamma = geometry.level_scales(seq, 40)
        E = exact = np.zeros((3, 1))
        with mpmath.workdps(60):
            for k in range(1, 41):
                t, b = 1.0 / delta[k], 1.0 / gamma[k - 1]
                E = resistance._child_exteriors(E, t, b)[:, :1]
                exact = resistance._child_exteriors(exact, mpmath.mpf(t), mpmath.mpf(b))[:, :1]
                for e, x in zip(E.ravel(), exact.ravel()):
                    assert abs(mpmath.mpf(e) - x) <= 1e-15 * x, (k, e, x)
        assert exact.dtype == object and E[2, 0] > 0.0

    @pytest.mark.parametrize(
        "seq",
        [constant(0.5), geometric_to_limit(0.55, 0.3), explicit([0.45, 0.53], "cycle")],
        ids=["constant", "geometric", "band"],
    )
    @pytest.mark.parametrize("j_max", [0, 1, 2, 3])
    def test_level_m_graph_traces_to_level_j_max(self, seq, j_max):
        # the diameters come from the level-j_max graph; the level-m graph's
        # corner resistances agree with them, so m changes nothing
        ds = cell_diameter_scaling(seq, j_max + 1, j_max)
        assert cell_diameter_scaling(seq, j_max + 2, j_max).records == ds.records
        diameters = np.array([d for _, _, d in ds.records])
        for m in (j_max + 1, j_max + 2):
            g = build_graph(seq, m, 1, 0.25)
            ids = [v for _, w, _ in ds.records for v in cell_corner_ids(g, w)]
            R = pinv_resistances(assemble_neumann(g), ids)
            blocks = np.arange(len(ds.records))
            oracle = R.reshape(len(blocks), 3, len(blocks), 3)[blocks, :, blocks].max(axis=(1, 2))
            np.testing.assert_allclose(diameters, oracle, rtol=1e-9)


RATIOS = st.floats(0.2, 0.58)
FAMILIES = st.one_of(
    st.builds(constant, RATIOS),
    st.builds(geometric_to_limit, st.floats(0.34, 0.6), st.floats(0.1, 0.9)),
    st.builds(lambda v: explicit(v, "cycle"), st.lists(RATIOS, min_size=1, max_size=3)),
)


@st.composite
def networks(draw):
    """A Neumann pencil and 2-6 distinct vertices, often including the ground 0."""
    g = build_graph(draw(FAMILIES), draw(st.integers(0, 3)), draw(st.integers(1, 3)),
                    draw(st.floats(0.05, 0.3)))
    p = assemble_neumann(g)
    k = draw(st.integers(2, min(6, p.n)))
    ids = draw(st.lists(st.integers(0, p.n - 1), min_size=k, max_size=k, unique=True))
    if draw(st.booleans()) and 0 not in ids:
        ids[draw(st.integers(0, k - 1))] = 0
    return p, ids


class TestResistanceMatrixProperties:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(networks())
    def test_matches_dense_oracle(self, net):
        p, ids = net
        R = GroundedSolver(p).resistance_matrix(ids)
        k = len(ids)
        off = ~np.eye(k, dtype=bool)
        np.testing.assert_allclose(R[off], pinv_resistances(p, ids)[off], rtol=1e-10)
        assert np.array_equal(R, R.T)
        assert np.all(np.diag(R) == 0.0)
        # triangle inequality R[i, j] <= R[i, l] + R[l, j] over all triples
        assert np.all(R[:, None, :] <= (R[:, :, None] + R[None, :, :]) * (1 + 1e-12))

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(networks())
    def test_harmonic_energy_is_conductance(self, net):
        p, ids = net
        R = GroundedSolver(p).resistance_matrix(ids)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                ext = harmonic_extension(p, {ids[i]: 1.0, ids[j]: 0.0})
                assert ext.energy == pytest.approx(1.0 / R[i, j], rel=1e-10)
