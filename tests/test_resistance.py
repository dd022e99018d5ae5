"""Effective resistance, compatibility, harmonic extension, diameters."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from hanoispec.assembly import Boundary, Pencil, assemble_decoupled, assemble_neumann
from hanoispec.errors import ConnectivityError, DomainError, LevelError, PencilSizeError
from hanoispec.geometry import build_graph, cell_corner_ids, enumerate_words
from hanoispec.resistance import (
    STACK_COLUMNS,
    GroundedSolver,
    cell_diameter_scaling,
    compatibility_check,
    effective_resistance,
    harmonic_extension,
    resistance_diameter,
)
from hanoispec.sequences import constant, explicit, geometric_to_limit, scale_factors

SEQ = constant(0.5)


def pinv_resistances(p: Pencil, ids) -> np.ndarray:
    """Dense oracle: R[i, j] from the pseudo-inverse of the Laplacian."""
    K = np.linalg.pinv(p.L.toarray())[np.ix_(ids, ids)]
    d = np.diag(K)
    return d[:, None] + d[None, :] - 2.0 * K


def two_disjoint_edges() -> Pencil:
    L = sp.csr_matrix(np.kron(np.eye(2), [[1.0, -1.0], [-1.0, 1.0]]))
    return Pencil(L, np.full(4, 0.25), Boundary("neumann"), np.arange(4))


@pytest.fixture
def solve_calls(monkeypatch):
    """Shapes of the right-hand sides passed to GroundedSolver.solve."""
    calls = []
    original = GroundedSolver.solve

    def counting(self, b):
        calls.append(b.shape)
        return original(self, b)

    monkeypatch.setattr(GroundedSolver, "solve", counting)
    return calls


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
            lambda p: GroundedSolver(p).resistance_matrix([[0, 1], [0, 2]]),
        ],
        ids=["across", "within", "harmonic_extension", "GroundedSolver", "stacked"],
    )
    def test_connectivity_error(self, call):
        with pytest.raises(ConnectivityError):
            call(two_disjoint_edges())

    def test_stacked_error_names_only_the_offending_set(self):
        # one grounded vertex per component keeps the solver nonsingular;
        # a set of two grounded vertices then has zero resistance
        solver = GroundedSolver(two_disjoint_edges(), ground=[0, 2])
        with pytest.raises(ConnectivityError, match=r"among vertices \[0, 2\]$"):
            solver.resistance_matrix([[1, 3], [0, 2]])


class TestResistanceMatrixShapes:
    def test_repeated_vertex_names_only_its_set(self):
        solver = GroundedSolver(assemble_neumann(build_graph(SEQ, 1, 1, 0.25)))
        with pytest.raises(DomainError, match=r"got \[2, 5, 2\]$"):
            solver.resistance_matrix([[0, 1, 2], [2, 5, 2], [3, 3, 4]])

    @pytest.mark.parametrize("ids", [[0], [[0], [1]], [[[0, 1]]]], ids=["one", "ones", "3-d"])
    def test_bad_shapes(self, ids):
        solver = GroundedSolver(assemble_neumann(build_graph(SEQ, 1, 1, 0.25)))
        with pytest.raises(DomainError):
            solver.resistance_matrix(ids)

    def test_chunks_hold_whole_sets(self, solve_calls):
        p = assemble_neumann(build_graph(SEQ, 2, 1, 0.25))
        R = GroundedSolver(p).resistance_matrix(np.tile([0, 5, 9, 14], (40, 1)))
        assert R.shape == (40, 4, 4)
        per_solve = STACK_COLUMNS // 3
        assert solve_calls == [(p.n, 3 * per_solve), (p.n, 3 * (40 - per_solve))]

    def test_ground_in_every_component(self):
        ext = harmonic_extension(two_disjoint_edges(), {0: 1.0, 2: 0.0})
        np.testing.assert_allclose(ext.values, [1.0, 1.0, 0.0, 0.0], atol=1e-15)
        assert ext.energy == pytest.approx(0.0, abs=1e-15)


class TestCompatibility:
    def test_constant_half_levels(self):
        rep = compatibility_check(SEQ, 4)
        assert rep.ok
        assert rep.max_deviation <= 1e-9

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


    def test_one_solve_per_level(self, solve_calls):
        compatibility_check(SEQ, 3)
        assert solve_calls == [(n, 2) for n in (3, 9, 27, 81)]


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


class TestDiameter:
    def test_m0_exact(self):
        p = assemble_neumann(build_graph(SEQ, 0, 1, 0.25))
        res = resistance_diameter(p, mode="exact")
        assert res.value == pytest.approx(2.0 / 3.0, rel=1e-12)

    def test_sampled_below_exact(self):
        g = build_graph(SEQ, 2, 1, 0.25)
        p = assemble_neumann(g)
        exact = resistance_diameter(p, mode="exact")
        sampled = resistance_diameter(
            p, mode="sampled", k=40, anchors=list(cell_corner_ids(g, ""))
        )
        assert sampled.value <= exact.value * (1 + 1e-10)
        assert exact.value >= 2.0 / 3.0 - 1e-12

    def test_deterministic(self):
        p = assemble_neumann(build_graph(SEQ, 2, 1, 0.25))
        a = resistance_diameter(p, mode="sampled", k=25)
        b = resistance_diameter(p, mode="sampled", k=25)
        assert a.value == b.value

    def test_exact_matches_pinv_oracle(self):
        p = assemble_neumann(build_graph(geometric_to_limit(0.55, 0.3), 3, 2, 0.28))
        exact = resistance_diameter(p, mode="exact")
        oracle = pinv_resistances(p, np.arange(p.n)).max()
        assert exact.value == pytest.approx(oracle, rel=1e-11)

    def test_exact_size_guard(self):
        p = assemble_neumann(build_graph(SEQ, 7, 1, 0.25))
        with pytest.raises(PencilSizeError):
            resistance_diameter(p, mode="exact")


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

    def test_records_cover_all_blocks(self, solve_calls):
        ds = cell_diameter_scaling(SEQ, 3, 2)
        assert len(ds.records) == 1 + 3 + 9
        # one stacked solve per level on the level-2 graph, two columns a block
        assert solve_calls == [(27, 2), (27, 6), (27, 18)]

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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(networks(), st.booleans(), st.integers(0, 2**32 - 1))
    def test_stack_matches_one_call_per_set(self, net, cross_chunk, seed):
        # B = 1, or one set more than a solve takes, so the stack spans two solves
        p, ids = net
        k = len(ids)
        sets = STACK_COLUMNS // (k - 1) + 1 if cross_chunk else 1
        rng = np.random.default_rng(seed)
        stack = [ids] + [rng.permutation(p.n)[:k] for _ in range(sets - 1)]
        solver = GroundedSolver(p)
        R = solver.resistance_matrix(stack)
        assert R.shape == (sets, k, k)
        for Rs, s in zip(R, stack):
            np.testing.assert_allclose(Rs, solver.resistance_matrix(s), rtol=1e-12, atol=0)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(networks())
    def test_harmonic_energy_is_conductance(self, net):
        p, ids = net
        R = GroundedSolver(p).resistance_matrix(ids)
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                ext = harmonic_extension(p, {ids[i]: 1.0, ids[j]: 0.0})
                assert ext.energy == pytest.approx(1.0 / R[i, j], rel=1e-10)
