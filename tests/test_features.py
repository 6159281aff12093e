import numpy as np
import pytest

from deepwarp.features import (FEATURE_ORDER, FeatureError, ForceField,
                               GeodesicField, align_batch, align_kinematics,
                               assemble_feature,
                               digression, digression_all, force_vector,
                               geodesic_all, potential_all, static_features,
                               unalign)
from deepwarp.mesh import TetMesh, node_adjacency
from deepwarp.meshgen import beam, t_shape
from deepwarp.registration import rotation_from_vector

import reference_paths
from test_dynamics import shuffled_readme_beam


def brute_force_geodesics(nodes, adjacency, anchors):
    """Exhaustive simple-path enumeration oracle for shortest anchor paths."""
    n = len(nodes)
    best = {i: (0.0 if i in anchors else np.inf) for i in range(n)}
    source = {i: (i if i in anchors else -1) for i in range(n)}

    def visit(i, dist, seen, src):
        for j in adjacency[i]:
            j = int(j)
            if j in seen:
                continue
            d = dist + float(np.linalg.norm(nodes[j] - nodes[i]))
            if d < best[j]:
                best[j] = d
                source[j] = src
            visit(j, d, seen | {j}, src)

    for a in anchors:
        visit(a, 0.0, {a}, a)
    return best, source


def t_shape_anchored_on_top():
    mesh = t_shape(arm=2, thickness=1)[0]
    top = mesh.nodes[:, 1].max()
    return mesh.with_anchors(np.flatnonzero(mesh.nodes[:, 1] == top))


def random_graph_mesh(rng, n_nodes):
    """Connected random graph expressed through a fake tet list is overkill;
    instead build adjacency directly and call the Dijkstra on it."""
    nodes = rng.random((n_nodes, 3))
    # random spanning tree plus extra edges
    edges = set()
    order = rng.permutation(n_nodes)
    for i in range(1, n_nodes):
        j = order[rng.integers(0, i)]
        edges.add((min(order[i], j), max(order[i], j)))
    for _ in range(n_nodes):
        a, b = rng.integers(0, n_nodes, 2)
        if a != b:
            edges.add((min(a, b), max(a, b)))
    adjacency = [[] for _ in range(n_nodes)]
    for a, b in edges:
        adjacency[int(a)].append(int(b))
        adjacency[int(b)].append(int(a))
    return nodes, [np.array(sorted(a), dtype=np.int64) for a in adjacency]


class TestForceField:
    def test_direction_normalized(self):
        f = ForceField.directional([0, 2, 0], 1.0)
        assert np.allclose(f.direction, [0, 1, 0])

    def test_zero_direction_rejected(self):
        for direction in ([0, 0, 0], [np.nan, 0, 0], [np.inf, 1, 0]):
            with pytest.raises(ValueError):
                ForceField.directional(direction, 1.0)
        for point, axis in (([np.nan, 0, 0], [1, 0, 0]), ([0, 0, 0], [0, np.inf, 0])):
            with pytest.raises(ValueError, match="finite"):
                ForceField.circular(point, axis, 1.0)

    def test_negative_magnitude_rejected(self):
        for magnitude in (-2.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                ForceField.directional([1, 0, 0], magnitude)

    def test_directional_force_mass_proportional(self, bending_beam):
        from deepwarp.mesh import lumped_mass
        field = ForceField.directional([0, -1, 0], 2.0)
        f = force_vector(bending_beam, field, density=500.0).reshape(-1, 3)
        masses = lumped_mass(bending_beam, 500.0)
        free = np.ones(bending_beam.n_nodes, bool)
        free[bending_beam.anchor_array()] = False
        assert np.allclose(f[free], masses[free, None] * 2.0 * np.array([0, -1, 0]))
        assert np.abs(f[~free]).max() == 0.0

    def test_circular_force_tangent(self, bending_beam):
        field = ForceField.circular([0, 0, 0], [1, 0, 0], 1.0)
        f = force_vector(bending_beam, field, density=1.0).reshape(-1, 3)
        rel = bending_beam.nodes - np.array([0.0, 0, 0])
        radial = rel - rel[:, :1] * np.array([1.0, 0, 0])
        dots = np.einsum("ni,ni->n", f, radial)
        assert np.abs(dots).max() < 1e-10      # tangent is orthogonal to radius
        axial = f @ np.array([1.0, 0, 0])
        assert np.abs(axial).max() < 1e-10


class TestGeodesic:
    def test_anchors_zero(self, bending_beam):
        geo = geodesic_all(bending_beam)
        assert all(geo.g[a] == 0.0 for a in bending_beam.anchors)

    def test_max_exactly_one(self, bending_beam):
        geo = geodesic_all(bending_beam)
        assert geo.g.max() == 1.0

    def test_path_graph_exact(self):
        # 5-node path, anchor at one end: distances are exact path sums
        nodes = np.array([[float(i), 0, 0] for i in range(5)])
        adjacency = [np.array(a) for a in ([1], [0, 2], [1, 3], [2, 4], [3])]
        mesh = TetMesh(nodes=nodes, tets=np.zeros((0, 4), dtype=int),
                       anchors=frozenset({0}))
        geo = geodesic_all(mesh, reference_paths.graph_of(adjacency))
        assert np.array_equal(geo.g, np.array([0, 0.25, 0.5, 0.75, 1.0]))

    def test_matches_brute_force_on_random_graphs(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(3, 11))
            nodes, adjacency = random_graph_mesh(rng, n)
            anchors = {int(a) for a in
                       rng.choice(n, size=int(rng.integers(1, max(2, n // 3))),
                                  replace=False)}
            mesh = TetMesh(nodes=nodes, tets=np.zeros((0, 4), dtype=int),
                           anchors=frozenset(anchors))
            geo = geodesic_all(mesh, reference_paths.graph_of(adjacency))
            oracle, _ = brute_force_geodesics(nodes, adjacency, anchors)
            dmax = max(oracle.values())
            for i in range(n):
                expect = oracle[i] / dmax if dmax > 0 else 0.0
                assert geo.g[i] == expect, f"node {i}"

    def test_unreachable_node_error(self):
        nodes = np.array([[0.0, 0, 0], [1, 0, 0], [5, 5, 5]])
        adjacency = [np.array([1]), np.array([0]), np.array([], dtype=np.int64)]
        mesh = TetMesh(nodes=nodes, tets=np.zeros((0, 4), dtype=int),
                       anchors=frozenset({0}))
        with pytest.raises(FeatureError, match="node 2"):
            geodesic_all(mesh, reference_paths.graph_of(adjacency))

    @pytest.mark.parametrize("make", [
        lambda: beam(6, 3, 3, lengths=(2.0, 1.0, 1.0)),
        lambda: t_shape_anchored_on_top(),
        lambda: shuffled_readme_beam(seed=5),
        # scattered anchors: many nodes lie equally far from two of them
        lambda: beam(6, 3, 3).with_anchors(range(0, 112, 7)),
        # nodes 0 and 3 are equally far from anchors 1 and 2 along one edge
        lambda: TetMesh(nodes=np.vstack([np.zeros(3), np.eye(3)]),
                        tets=np.array([[0, 1, 2, 3]]), anchors=frozenset({1, 2})),
    ], ids=["beam", "t_shape", "shuffled", "ties", "tet_ties"])
    def test_matches_heap_loop(self, make):
        mesh = make()
        got = geodesic_all(mesh, node_adjacency(mesh))
        want = reference_paths.geodesic_all(mesh, reference_paths.adjacency_lists(mesh))
        assert np.array_equal(got.distance, want.distance)
        assert np.array_equal(got.g, want.g)
        assert np.array_equal(got.nearest_anchor, want.nearest_anchor)

    def test_all_anchors_all_zero(self, unit_tet):
        mesh = unit_tet.with_anchors(range(4))
        geo = geodesic_all(mesh)
        assert np.abs(geo.g).max() == 0.0


class TestPotential:
    def test_directional_endpoints(self, bending_beam):
        field = ForceField.directional([0, 1, 0], 1.0)
        p = potential_all(bending_beam, field)
        ys = bending_beam.nodes[:, 1]
        assert p[np.argmin(ys)] == 0.0
        assert p[np.argmax(ys)] == 1.0

    def test_range_covers_unit_interval(self, bending_beam):
        rng = np.random.default_rng(1)
        field = ForceField.directional(rng.standard_normal(3), 1.0)
        p = potential_all(bending_beam, field)
        assert abs(p.min()) < 1e-12 and abs(p.max() - 1.0) < 1e-12

    def test_circular_axis_node_zero(self):
        nodes = np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        mesh = TetMesh(nodes=nodes, tets=np.array([[0, 1, 2, 3]]))
        field = ForceField.circular([0, 0, 0], [1, 0, 0], 1.0)
        p = potential_all(mesh, field)
        assert p[0] == 0.0 and p[1] == 0.0      # both nodes lie on the axis
        assert p.max() == 1.0

    def test_degenerate_extent_warns(self):
        nodes = np.array([[0.0, 0, 0], [0, 1, 0], [0, 0, 1], [0, 1, 1]])
        mesh = TetMesh(nodes=nodes, tets=np.zeros((0, 4), dtype=int))
        field = ForceField.directional([1, 0, 0], 1.0)
        with pytest.warns(UserWarning, match="degenerate"):
            p = potential_all(mesh, field)
        assert np.abs(p).max() == 0.0


class TestDigression:
    def make_line_mesh(self):
        nodes = np.array([[0.0, 0, 0], [0, 2, 0], [0, -3, 0], [1, 0, 0], [5, 0, 0]])
        mesh = TetMesh(nodes=nodes, tets=np.zeros((0, 4), dtype=int),
                       anchors=frozenset({0}))
        geo = GeodesicField(g=np.zeros(5), nearest_anchor=np.zeros(5, dtype=int),
                            distance=np.zeros(5))
        return mesh, geo

    def test_endpoint_cases_exact(self):
        mesh, geo = self.make_line_mesh()
        field = ForceField.directional([0, 1, 0], 1.0)
        assert digression(mesh, field, 1, geo) == 0.0            # parallel
        assert digression(mesh, field, 2, geo) == np.pi          # anti-parallel
        assert digression(mesh, field, 3, geo) == np.pi / 2      # perpendicular
        assert digression(mesh, field, 0, geo) == 0.0            # the anchor itself

    def test_circular_is_minus_one(self, bending_beam):
        field = ForceField.circular([0, 0, 0], [1, 0, 0], 1.0)
        geo = geodesic_all(bending_beam)
        d = digression_all(bending_beam, field, geo)
        assert np.all(d == -1.0)

    def test_range(self, bending_beam):
        rng = np.random.default_rng(2)
        field = ForceField.directional(rng.standard_normal(3), 1.0)
        geo = geodesic_all(bending_beam)
        d = digression_all(bending_beam, field, geo)
        assert np.all((d >= 0.0) & (d <= np.pi))


class TestAlignment:
    def test_already_canonical(self):
        u = np.array([0.0, 1.0, 0.0])
        w = np.array([-1.0, 1.0, 0.0]) / np.sqrt(2)
        a = align_kinematics(u, w)
        assert np.abs(a.Q - np.eye(3)).max() < 1e-12
        assert a.u_mag == pytest.approx(1.0)
        assert a.w_mag == pytest.approx(1.0)
        assert a.angle == pytest.approx(np.pi / 4)

    def test_postconditions_random(self):
        rng = np.random.default_rng(3)
        U = rng.standard_normal((500, 3))
        W = rng.standard_normal((500, 3))
        u_mag, w_mag, angle, Q = align_batch(U, W)
        qu = np.einsum("npq,nq->np", Q, U)
        qw = np.einsum("npq,nq->np", Q, W)
        assert np.abs(qu[:, 0]).max() < 1e-9
        assert np.abs(qu[:, 2]).max() < 1e-9
        assert np.abs(qu[:, 1] - u_mag).max() < 1e-9
        assert np.abs(qw[:, 2]).max() < 1e-9
        assert qw[:, 0].max() < 1e-9
        assert np.all((angle >= 0) & (angle <= np.pi))

    def test_rotation_invariance_1000(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(1000):
            u, w = rng.standard_normal((2, 3))
            axis = rng.standard_normal(3)
            R = rotation_from_vector(axis / np.linalg.norm(axis)
                                     * rng.uniform(0, np.pi))
            a1 = align_kinematics(u, w)
            a2 = align_kinematics(R @ u, R @ w)
            worst = max(worst, abs(a1.u_mag - a2.u_mag), abs(a1.w_mag - a2.w_mag),
                        abs(a1.angle - a2.angle))
        assert worst < 1e-9

    def test_zero_displacement_convention(self):
        w = np.array([1.0, -2.0, 0.5])
        a = align_kinematics(np.zeros(3), w)
        assert a.u_mag == 0.0
        assert a.w_mag == pytest.approx(np.linalg.norm(w))
        assert a.angle == 0.0

    def test_antiparallel_displacement(self):
        a = align_kinematics(np.array([0.0, -2.0, 0.0]), np.array([0.3, 0.1, -0.2]))
        qu = a.Q @ np.array([0.0, -2.0, 0.0])
        assert np.abs(qu - np.array([0, 2.0, 0])).max() < 1e-9

    def test_unalign_round_trip(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            u, w, v = rng.standard_normal((3, 3))
            a = align_kinematics(u, w)
            assert np.abs(unalign(a.Q @ v, a.Q) - v).max() < 1e-12


def unit_perpendicular(a, rng):
    """Unit vectors orthogonal to the unit rows of ``a``."""
    p = np.cross(a, rng.standard_normal(a.shape))
    return p / np.linalg.norm(p, axis=1)[:, None]


class TestAlignMatchesTwoStage:
    """The closed-form rows of Q against the two-stage Rodrigues reference."""

    @staticmethod
    def assert_matches(U, W):
        got = align_batch(U, W)
        want = reference_paths.align_batch(U, W)
        for name, a, b in zip(("u_mag", "w_mag", "angle", "Q"), got, want):
            assert np.abs(a - b).max() <= 1e-12, name

    def test_random(self):
        rng = np.random.default_rng(11)
        U = rng.standard_normal((2000, 3)) * rng.uniform(1e-4, 3.0, (2000, 1))
        W = rng.standard_normal((2000, 3)) * rng.uniform(1e-4, 3.0, (2000, 1))
        self.assert_matches(U, W)

    def test_degenerate_rows(self):
        rng = np.random.default_rng(12)
        r = rng.standard_normal((8, 3))
        a = r / np.linalg.norm(r, axis=1)[:, None]
        perp = unit_perpendicular(a, rng)
        below_y = np.array([[1e-3, -1.0, 2e-3], [0.0, -2.0, 0.0], [-1e-2, -0.5, 0.0]])
        rows = [
            (np.zeros((8, 3)), r),                          # u = 0
            (r, np.zeros((8, 3))),                          # w = 0
            (np.zeros((8, 3)), np.zeros((8, 3))),
            (np.zeros((8, 3)), r * [0.0, 1.0, 0.0]),        # u = 0, w along +-y
            (r, 0.7 * r), (r, -2.0 * r),                    # w parallel to u
            (below_y, rng.standard_normal((3, 3))),         # flip branch of the fallback
            (below_y, 0.3 * below_y),
        ]
        # |w_perp| on both sides of _EPS, with w_par of the same size
        for scale in (0.5e-12, 2e-12, 1e-11):
            rows.append((a, scale * (0.5 * a + perp)))
        U = np.vstack([u for u, _ in rows])
        W = np.vstack([w for _, w in rows])
        self.assert_matches(U, W)

    def test_nearly_parallel_frame_orthonormal(self):
        # |w_perp| / |w| = 1e-9: the direction of w_perp is round-off heavy,
        # yet Q must stay a rotation that sends u to +y
        rng = np.random.default_rng(13)
        r = rng.standard_normal((200, 3))
        a = r / np.linalg.norm(r, axis=1)[:, None]
        U = 2.0 * a
        W = a + 1e-9 * unit_perpendicular(a, rng)
        _, _, _, Q = align_batch(U, W)
        assert np.abs(Q @ np.swapaxes(Q, 1, 2) - np.eye(3)).max() < 1e-12
        assert np.abs(np.linalg.det(Q) - 1.0).max() < 1e-12
        qu = np.einsum("npq,nq->np", Q, U)
        assert np.abs(qu - [0.0, 2.0, 0.0]).max() < 1e-12


class TestAssembleFeature:
    def test_ordering_and_length(self):
        a = align_kinematics(np.array([0.0, 2.0, 0.0]), np.array([0.0, 0.0, 1.0]))
        vec = assemble_feature((0.3, 0.6, 0.9), a, poisson=0.45)
        assert vec.shape == (7,)
        assert vec[0] == pytest.approx(2.0)      # |u|
        assert vec[1] == pytest.approx(1.0)      # |w|
        assert vec[2] == pytest.approx(np.pi / 2)
        assert np.allclose(vec[3:], [0.3, 0.6, 0.9, 0.45])

    def test_feature_order_metadata(self):
        assert FEATURE_ORDER == ("u_mag", "w_mag", "uw_angle", "geodesic",
                                 "potential", "digression", "poisson")

    def test_static_features_deformation_independent(self, bending_beam):
        field = ForceField.directional([0, -1, 0], 1.0)
        s1 = static_features(bending_beam, field, geodesic_all(bending_beam))
        s2 = static_features(bending_beam, field, geodesic_all(bending_beam))   # no state to mutate
        assert np.array_equal(s1.g, s2.g)
        assert np.array_equal(s1.p, s2.p)
        assert np.array_equal(s1.d, s2.d)
