import itertools

import numpy as np
import pytest

from deepwarp.features import ForceField, force_vector
from deepwarp.mesh import DomainPartition, MeshError, TetMesh
from deepwarp.meshgen import beam, partition_by_axis, t_shape
from deepwarp.registration import rotation_from_vector, rotation_log
from deepwarp.substructure import (DomainGraph, _bfs_tree, build_domain_graph,
                                   graphs_isomorphic, interface_kinematics,
                                   interface_transform, simulate_substructured)
from deepwarp.warper import build_warp_context, run_deepwarp

import reference_paths


def brute_force_isomorphic(g1: DomainGraph, g2: DomainGraph) -> bool:
    if g1.n_vertices != g2.n_vertices:
        return False
    e2 = g2.edges
    for perm in itertools.permutations(range(g1.n_vertices)):
        mapped = {(min(perm[a], perm[b]), max(perm[a], perm[b]))
                  for a, b in g1.edges}
        if mapped == e2:
            return True
    return False


def shuffled_nodes(mesh, seed):
    perm = np.random.default_rng(seed).permutation(mesh.n_nodes)
    return TetMesh(nodes=mesh.nodes[perm], tets=np.argsort(perm)[mesh.tets])


def path_graph(n):
    return DomainGraph(n, frozenset((i, i + 1) for i in range(n - 1)))


def star_graph(n):
    return DomainGraph(n, frozenset((0, i) for i in range(1, n)))


class TestDomainGraph:
    def test_single_domain(self, small_beam):
        part = DomainPartition(np.zeros(small_beam.n_tets, dtype=int))
        g = build_domain_graph(small_beam, part)
        assert g.n_vertices == 1 and len(g.edges) == 0

    def test_two_domains_one_edge(self, small_beam):
        part = partition_by_axis(small_beam, 0, [1.0])
        g = build_domain_graph(small_beam, part)
        assert g.n_vertices == 2
        assert g.edges == {(0, 1)}

    def test_t_shape_three_domains_two_edges(self):
        mesh, part = t_shape()
        g = build_domain_graph(mesh, part)
        assert g.n_vertices == 3
        assert len(g.edges) == 2
        assert (0, 1) in g.edges and (0, 2) in g.edges

    def test_matches_brute_force_face_enumeration(self, bending_beam):
        shuffled = shuffled_nodes(bending_beam, seed=5)
        for mesh, part in [(bending_beam, partition_by_axis(bending_beam, 0, [1.0])),
                           t_shape(),
                           (shuffled, partition_by_axis(shuffled, 0, [0.5, 1.0, 1.5]))]:
            g = build_domain_graph(mesh, part)
            # oracle: enumerate every pair of tets sharing a 3-node face
            edges = set()
            faces = {}
            for t, tet in enumerate(mesh.tets):
                for f in itertools.combinations(sorted(map(int, tet)), 3):
                    faces.setdefault(f, []).append(t)
            for tets in faces.values():
                if len(tets) == 2:
                    a, b = part.labels[tets[0]], part.labels[tets[1]]
                    if a != b:
                        edges.add((min(a, b), max(a, b)))
            assert g.edges == frozenset(edges)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            DomainGraph(2, frozenset({(1, 1)}))


class TestIsomorphism:
    def test_path3_isomorphic(self):
        ok, mapping = graphs_isomorphic(path_graph(3), path_graph(3))
        assert ok
        # the witness is a real isomorphism
        adj = path_graph(3).adjacency()
        for a, b in path_graph(3).edges:
            assert (min(mapping[a], mapping[b]), max(mapping[a], mapping[b])) \
                in path_graph(3).edges

    def test_path4_vs_star4(self):
        ok, mapping = graphs_isomorphic(path_graph(4), star_graph(4))
        assert not ok and mapping is None

    def test_t_y_arrow_cross_grouping(self):
        # T-, Y- and arrow-shaped beams decompose into a 3-star; a crossing
        # beam adds two more arms
        t = star_graph(3)      # same as path_graph(3) up to iso
        y = DomainGraph(3, frozenset({(2, 0), (2, 1)}))
        arrow = DomainGraph(3, frozenset({(1, 0), (1, 2)}))
        cross = star_graph(5)
        assert graphs_isomorphic(t, y)[0]
        assert graphs_isomorphic(t, arrow)[0]
        assert graphs_isomorphic(y, arrow)[0]
        assert not graphs_isomorphic(t, cross)[0]

    def test_exhaustive_oracle_up_to_seven(self):
        rng = np.random.default_rng(0)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            def rand_graph():
                edges = set()
                for a in range(n):
                    for b in range(a + 1, n):
                        if rng.random() < 0.4:
                            edges.add((a, b))
                return DomainGraph(n, frozenset(edges))
            g1, g2 = rand_graph(), rand_graph()
            assert graphs_isomorphic(g1, g2)[0] == brute_force_isomorphic(g1, g2)
            # relabelled copy must always match
            perm = rng.permutation(n)
            relabel = DomainGraph(n, frozenset(
                (min(perm[a], perm[b]), max(perm[a], perm[b]))
                for a, b in g1.edges))
            assert graphs_isomorphic(g1, relabel)[0]

    def test_same_degrees_not_isomorphic(self):
        hexagon = DomainGraph(6, frozenset((i, (i + 1) % 6) for i in range(6)))
        triangles = DomainGraph(6, frozenset({(0, 1), (1, 2), (0, 2),
                                              (3, 4), (4, 5), (3, 5)}))
        assert graphs_isomorphic(hexagon, triangles) == (False, None)

    def test_matches_reference_search(self):
        # same verdict and same witness as the two-sided neighbour loops, on
        # random pairs, relabelings and degree-preserving edge swaps
        rng = np.random.default_rng(7)
        for trial in range(300):
            n = int(rng.integers(1, 9))
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            g1 = DomainGraph(n, frozenset(p for p in pairs if rng.random() < 0.4))
            edges = sorted(g1.edges)
            if trial % 3 == 0:
                g2 = DomainGraph(n, frozenset(p for p in pairs if rng.random() < 0.4))
            elif trial % 3 == 1:
                perm = rng.permutation(n)
                g2 = DomainGraph(n, frozenset((perm[a], perm[b]) for a, b in edges))
            else:
                for _ in range(3 if len(edges) > 1 else 0):
                    i, j = rng.permutation(len(edges))[:2]
                    (a, b), (c, d) = edges[i], edges[j]
                    new = {(min(a, d), max(a, d)), (min(c, b), max(c, b))}
                    if len({a, b, c, d}) == 4 and not new & set(edges):
                        edges = sorted(set(edges) - {(a, b), (c, d)} | new)
                g2 = DomainGraph(n, frozenset(edges))
            assert graphs_isomorphic(g1, g2) == reference_paths.graphs_isomorphic(g1, g2)

    def test_scale_limit(self):
        big = DomainGraph(65, frozenset())
        with pytest.raises(ValueError, match="64"):
            graphs_isomorphic(big, big)


class TestInterfaceTransform:
    def test_identity(self):
        rng = np.random.default_rng(1)
        P = rng.random((6, 3))
        A, t = interface_transform(P, P)
        assert np.abs(A - np.eye(3)).max() < 1e-10
        assert np.abs(t).max() < 1e-10

    def test_rigid_recovery_noncoplanar(self):
        rng = np.random.default_rng(2)
        P = rng.random((8, 3))
        R = rotation_from_vector(np.array([0.4, -0.3, 0.8]))
        trans = np.array([0.5, -1.0, 2.0])
        A, t = interface_transform(P, P @ R.T + trans)
        assert np.abs(A - R).max() < 1e-10
        assert np.abs(t - trans).max() < 1e-10

    def test_affine_recovery_noncoplanar(self):
        rng = np.random.default_rng(3)
        P = rng.random((10, 3))
        M = np.eye(3) + 0.3 * rng.standard_normal((3, 3))
        b = rng.standard_normal(3)
        A, t = interface_transform(P, P @ M.T + b)
        assert np.abs(A - M).max() < 1e-9
        assert np.abs(t - b).max() < 1e-9

    def test_planar_patch_rigid_recovery(self):
        # flat interface patches are the common case; the normal completion
        # must reproduce rigid motions exactly
        rng = np.random.default_rng(4)
        P = np.column_stack([rng.random(7), rng.random(7), np.zeros(7)])
        R = rotation_from_vector(np.array([0.3, 0.7, -0.2]))
        trans = np.array([1.0, 2.0, 3.0])
        A, t = interface_transform(P, P @ R.T + trans)
        assert np.abs(A - R).max() < 1e-9
        assert np.abs(t - trans).max() < 1e-9

    def test_collinear_patch_rejected(self):
        P = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [3, 0, 0]])
        with pytest.raises(MeshError, match="rank-deficient"):
            interface_transform(P, P)

    def test_mirrored_noncoplanar_patch_rejected(self):
        # a reflection has no frame rotation; planar patches cannot reach
        # this, since their normal completion keeps det(A) > 0
        P = np.random.default_rng(5).random((8, 3))
        with pytest.raises(MeshError, match="orientation"):
            interface_transform(P, P @ np.diag([-1.0, 1.0, 1.0]))


class TestInterfaceKinematics:
    def test_static_history(self):
        R = [np.eye(3)] * 4
        t = [np.zeros(3)] * 4
        kin = interface_kinematics(R, t, 0.01)
        assert np.abs(kin.omega).max() == 0.0
        assert np.abs(kin.omega_dot).max() == 0.0
        assert np.abs(kin.accel).max() == 0.0

    def test_uniform_rotation_rate(self):
        dt = 0.01
        rate = 2.5
        R = [rotation_from_vector(np.array([0, 0, rate * k * dt])) for k in range(5)]
        t = [np.zeros(3)] * 5
        kin = interface_kinematics(R, t, dt)
        assert np.abs(kin.omega - np.array([0, 0, rate])).max() < rate * dt * dt
        assert np.abs(kin.omega_dot).max() < 1e-8

    def test_pure_translation_second_difference(self):
        dt = 0.02
        pos = [np.array([0.5 * 3.0 * (k * dt) ** 2, 0.0, 0.0]) for k in range(6)]
        R = [np.eye(3)] * 6
        kin = interface_kinematics(R, pos, dt)
        fd = (pos[-1] - 2 * pos[-2] + pos[-3]) / dt / dt
        assert np.abs(kin.accel - fd).max() < 1e-12
        assert kin.accel[0] == pytest.approx(3.0, rel=1e-9)
        assert np.abs(kin.omega).max() == 0.0

    def test_rotation_log_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w = rng.standard_normal(3)
            w *= rng.uniform(0, 3.0) / np.linalg.norm(w)
            assert np.abs(rotation_log(rotation_from_vector(w)) - w).max() < 1e-9


class TestSubstructuredSimulation:
    def test_single_domain_matches_monolithic(self, normalized_beam, neo_hookean,
                                              quick_net):
        part = DomainPartition(np.zeros(normalized_beam.n_tets, dtype=int))
        field = ForceField.directional([0.1, -1, 0.2], 0.3)
        traj = simulate_substructured(normalized_beam, part, 0, neo_hookean,
                                      quick_net, field, steps=6, dt=1 / 60)
        ctx = build_warp_context(normalized_beam, neo_hookean, quick_net, field,
                                 dt=1 / 60)
        mono = run_deepwarp(ctx, 6, force_vector(normalized_beam, field))
        for a, b in zip(traj.displacements, mono):
            assert np.abs(a - b).max() < 1e-12

    def test_frozen_parent_matches_standalone(self, neo_hookean, quick_net):
        # parent fully anchored: the child sees a static frame, so its
        # trajectory equals a standalone run anchored at the interface
        from deepwarp.mesh import normalize_to_unit_sphere
        mesh = normalize_to_unit_sphere(beam(6, 2, 2, lengths=(2.0, 0.8, 0.8),
                                             anchor="none"))
        # anchor the whole left half's nodes (parent domain frozen)
        part = partition_by_axis(mesh, 0, [0.0])
        left_nodes = np.unique(mesh.tets[part.labels == 0])
        mesh = mesh.with_anchors(left_nodes)
        field = ForceField.directional([0.0, -1.0, 0.1], 0.4)
        traj = simulate_substructured(mesh, part, 0, neo_hookean, quick_net,
                                      field, steps=6, dt=1 / 60)

        right_tets = part.labels == 1
        right_nodes = np.unique(mesh.tets[right_tets])
        shared = np.intersect1d(left_nodes, right_nodes)
        local_of = -np.ones(mesh.n_nodes, dtype=int)
        local_of[right_nodes] = np.arange(len(right_nodes))
        sub = TetMesh(nodes=mesh.nodes[right_nodes],
                      tets=local_of[mesh.tets[right_tets]],
                      anchors=frozenset(int(local_of[s]) for s in shared))
        ctx = build_warp_context(sub, neo_hookean, quick_net, field, dt=1 / 60)
        standalone = run_deepwarp(ctx, 6, force_vector(sub, field))
        for a, b in zip(traj.displacements, standalone):
            got = a.reshape(-1, 3)[right_nodes]
            want = b.reshape(-1, 3)
            # interface nodes belong to the (static) parent in the report
            free = ~np.isin(right_nodes, shared)
            assert np.abs(got[free] - want[free]).max() < 1e-8

    # child subdomains see features outside the network's trained range
    @pytest.mark.filterwarnings("ignore::deepwarp.warper.ExtrapolationWarning")
    def test_three_frame_history_changes_nothing(self, normalized_beam, neo_hookean,
                                                 quick_net, monkeypatch):
        # the frame derivatives read the last three poses only, so an
        # unbounded history gives the same trajectory bit for bit
        from deepwarp import substructure
        mesh = normalized_beam
        part = partition_by_axis(mesh, 0, [-0.3, 0.3])
        field = ForceField.directional([0.1, -1, 0.2], 0.3)
        run = lambda: simulate_substructured(mesh, part, 0, neo_hookean, quick_net,
                                             field, steps=8, dt=1 / 60).displacements
        bounded = run()
        monkeypatch.setattr(substructure, "deque", lambda maxlen: [])
        for a, b in zip(bounded, run()):
            assert np.array_equal(a, b)

    def test_cycle_rejected(self):
        # no partition of t_shape() has a cyclic domain graph, so check the
        # BFS guard directly
        cyclic = DomainGraph(3, frozenset({(0, 1), (1, 2), (0, 2)}))
        with pytest.raises(MeshError, match="cycle"):
            _bfs_tree(cyclic, 0)

    def test_unreachable_domain_rejected(self):
        disconnected = DomainGraph(3, frozenset({(0, 1)}))
        with pytest.raises(MeshError, match="unreachable"):
            _bfs_tree(disconnected, 0)


class TestDomainTree:
    def test_sibling_order_pinned(self):
        # neighbours are visited in increasing id; csgraph on one stored
        # triangle of the edges would give [0, 2, 3, 1, 4, 5]
        g = DomainGraph(6, frozenset({(0, 2), (1, 2), (2, 3), (3, 4), (1, 5)}))
        parent, order = _bfs_tree(g, 0)
        assert order == [0, 2, 1, 3, 5, 4]
        assert parent == {0: None, 2: 0, 1: 2, 3: 2, 5: 1, 4: 3}

    def test_matches_reference_on_random_trees(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(1, 13))
            perm = rng.permutation(n)
            g = DomainGraph(n, frozenset((perm[k], perm[int(rng.integers(0, k))])
                                         for k in range(1, n)))
            root = int(rng.integers(0, n))
            assert _bfs_tree(g, root) == reference_paths.bfs_tree(g, root)

    def test_non_trees_rejected_like_reference(self):
        # cyclic or disconnected graphs raise on both paths; trees agree
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
            g = DomainGraph(n, frozenset(p for p in pairs if rng.random() < 0.35))
            try:
                want = reference_paths.bfs_tree(g, 0)
            except MeshError:
                with pytest.raises(MeshError):
                    _bfs_tree(g, 0)
                continue
            assert _bfs_tree(g, 0) == want
