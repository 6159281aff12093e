import hashlib
import io
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import csgraph

from deepwarp.mesh import (DomainPartition, MeshError, MeshFormatError, TetMesh,
                           load_mesh, load_mesh_files, load_partition,
                           lumped_mass, node_adjacency, normalize_to_unit_sphere,
                           orient_positive, signed_volumes, tet_volumes, write_mesh_files)
from deepwarp.meshgen import beam, partition_by_axis

import reference_paths
from conftest import t_shape


def make_streams(nodes, tets, anchors=()):
    node_text = "\n".join(f"{i} {x} {y} {z}" for i, (x, y, z) in enumerate(nodes))
    ele_text = "\n".join(f"{i} " + " ".join(map(str, t)) for i, t in enumerate(tets))
    anchor_text = "\n".join(str(a) for a in anchors)
    return io.StringIO(node_text), io.StringIO(ele_text), io.StringIO(anchor_text)


UNIT_TET = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]


class TestLoadMesh:
    def test_unit_tet(self):
        mesh = load_mesh(*make_streams(UNIT_TET, [(0, 1, 2, 3)], [0]))
        assert mesh.n_tets == 1
        assert mesh.anchors == {0}
        assert tet_volumes(mesh)[0] == pytest.approx(1.0 / 6.0, abs=1e-15)

    def test_out_of_range_index(self):
        with pytest.raises(MeshFormatError, match="out of range"):
            load_mesh(*make_streams(UNIT_TET, [(0, 1, 2, 99)]))

    def test_beam_volume(self, small_beam):
        # 2x1x1 box split into 12 tets
        assert small_beam.n_tets == 12
        assert tet_volumes(small_beam).sum() == pytest.approx(2.0, abs=1e-12)

    def test_negative_orientation_repaired(self):
        mesh = load_mesh(*make_streams(UNIT_TET, [(0, 1, 3, 2)]))
        assert signed_volumes(mesh.nodes, mesh.tets)[0] > 0

    def test_zero_volume_rejected(self):
        degenerate = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0.5, 0.5, 0)]
        with pytest.raises(MeshFormatError, match="zero-volume"):
            load_mesh(*make_streams(degenerate, [(0, 1, 2, 3)]))

    def test_comments_and_blank_lines(self):
        text = "# header\n\n0 0 0 0\n1 1 0 0  # inline\n2 0 1 0\n3 0 0 1\n"
        mesh = load_mesh(io.StringIO(text), io.StringIO("0 0 1 2 3"), io.StringIO(""))
        assert mesh.n_nodes == 4 and not mesh.anchors

    def test_parse_error_reports_line(self):
        with pytest.raises(MeshFormatError, match="line 2"):
            load_mesh(io.StringIO("0 0 0 0\n1 bad 0 0\n"), io.StringIO("0 0 0 0 0"))

    def test_non_contiguous_index(self):
        with pytest.raises(MeshFormatError, match="not contiguous"):
            load_mesh(io.StringIO("1 0 0 0\n"), io.StringIO("0 0 1 2 3"))

    def test_round_trip(self, small_beam):
        n, e, a = io.StringIO(), io.StringIO(), io.StringIO()
        write_mesh_files(small_beam, n, e, a)
        n.seek(0), e.seek(0), a.seek(0)
        again = load_mesh(n, e, a)
        assert np.allclose(again.nodes, small_beam.nodes)
        assert np.array_equal(again.tets, small_beam.tets)
        assert again.anchors == small_beam.anchors

    def test_all_volumes_positive_after_load(self, bending_beam):
        assert np.all(signed_volumes(bending_beam.nodes, bending_beam.tets) > 0)


def write_unit_tet(tmp_path, node_head=b""):
    """Node and element files of the unit tet; ``node_head`` leads the node file."""
    node, ele = tmp_path / "tet.node", tmp_path / "tet.ele"
    node.write_bytes(node_head + b"0 0 0 0\n1 1 0 0\n2 0 1 0\n3 0 0 1\n")
    ele.write_bytes(b"0 0 1 2 3\n")
    return node, ele


class TestLoadMeshFiles:
    @pytest.mark.parametrize("head, lineno", [(b"# ma\xdfe\n", 1),
                                              (b"# nodes\n\n# ma\xdfe\n", 3),
                                              (b"# \xe2\x82\n", 1),
                                              # past text mode's first decoded chunk
                                              (b"# \xc3\x9f\r\n" * 5000 + b"# \xdf\n", 5001)])
    def test_non_utf8_file_names_path_and_line(self, tmp_path, head, lineno):
        node, ele = write_unit_tet(tmp_path, head)
        with pytest.raises(MeshFormatError) as got:
            load_mesh_files(node, ele)
        assert str(got.value).startswith(f"{node} line {lineno}: not UTF-8 text")

    def test_line_endings_and_utf8_comments(self, tmp_path):
        node, ele = write_unit_tet(tmp_path, "# maße\n".encode())
        node.write_bytes(node.read_bytes().replace(b"\n", b"\r\n"))
        mesh = load_mesh_files(node, ele)
        assert mesh.n_nodes == 4 and mesh.n_tets == 1


def mesh_texts(mesh):
    """The node, element and anchor file texts of ``mesh``."""
    files = io.StringIO(), io.StringIO(), io.StringIO()
    write_mesh_files(mesh, *files)
    return [f.getvalue() for f in files]


def replace_line(text, lineno, line):
    lines = text.splitlines(keepends=True)
    lines[lineno - 1] = line + "\n"
    return "".join(lines)


def decorate(text):
    """``text`` with a header, comment and blank lines, inline comments,
    tabs and CRLF endings."""
    out = ["# header, then a blank line\r\n", "\r\n"]
    for k, line in enumerate(text.splitlines()):
        if k % 3 == 0:
            line = line.replace(" ", "\t", 1) + "  # inline comment"
        elif k % 3 == 1:
            out.append("   # an indented comment\r\n")
            line = " " + line.replace(" ", " \t ") + "\t"
        out.append(line + "\r\n")
    return "".join(out)


def unicode_spaces(text):
    """``text`` with non-ASCII whitespace around and between the fields of
    every other line, and a non-ASCII comment."""
    lines = text.splitlines()
    lines[::2] = ["\u00a0" + line.replace(" ", "\u2003") + "\u3000" for line in lines[::2]]
    return "# maße in metern\n" + "\n".join(lines)


def outcome(load, *texts):
    """(mesh or None, MeshFormatError message or None) of ``load`` on the
    texts. Warnings are recorded, not raised, and there must be none."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = load(*(io.StringIO(t, newline="") for t in texts)), None
        except MeshFormatError as exc:
            result = None, str(exc)
    assert not caught, [str(w.message) for w in caught]
    return result


def where(message):
    """The file and line a MeshFormatError message names, or None."""
    head = message.split(":", 1)[0]
    return head if " line " in head else None


def assert_same_mesh(got, want):
    assert np.array_equal(got.nodes, want.nodes)
    assert np.array_equal(got.tets, want.tets)
    assert got.anchors == want.anchors


SMALL = mesh_texts(beam(3, 2, 2))   # 36 nodes
BAD_NODE_LINE = 3      # node 2
BAD_ELEMENT_LINE = 4   # tet 3


class TestLoaderMatchesPerLineReference:
    """One np.loadtxt pass per file against the per-line loaders it
    replaced: the same meshes from valid files, a MeshFormatError naming
    the same line from malformed ones."""

    @pytest.mark.parametrize("make", [
        lambda: beam(3, 2, 2),
        lambda: beam(16, 5, 5, lengths=(2.0, 0.8, 0.8)),
        lambda: shuffled_nodes(beam(5, 3, 2), seed=3).with_anchors([0, 7, 11]),
    ], ids=["small", "readme", "shuffled"])
    @pytest.mark.parametrize("dress", [lambda t: t, decorate, unicode_spaces],
                             ids=["plain", "decorated", "unicode_spaces"])
    def test_valid_files_load_the_same_mesh(self, make, dress):
        texts = [dress(t) for t in mesh_texts(make())]
        got, error = outcome(load_mesh, *texts)
        want, ref_error = outcome(reference_paths.load_mesh, *texts)
        assert error is None and ref_error is None
        assert_same_mesh(got, want)

    @pytest.mark.parametrize("which, lineno, line", [
        (0, BAD_NODE_LINE, "2 0 0"),
        (0, BAD_NODE_LINE, "2 0 0 0 0"),
        (1, BAD_ELEMENT_LINE, "3 0 1 2 3 4"),
        (0, BAD_NODE_LINE, "bad 0 0 0"),
        (0, BAD_NODE_LINE, "1.0 0 0 0"),
        (1, BAD_ELEMENT_LINE, "1.0 0 1 2 3"),
        (0, BAD_NODE_LINE, "2 nan 0 0"),
        (0, BAD_NODE_LINE, "2 0 1e400 0"),
        (1, BAD_ELEMENT_LINE, "3 0 1 2 -1"),
        (1, BAD_ELEMENT_LINE, f"3 0 1 2 {2**63}"),
        (1, BAD_ELEMENT_LINE, "3 0 1 2 99999999999999999999"),
        (1, BAD_ELEMENT_LINE, "3 0 1 2 2"),
        (1, BAD_ELEMENT_LINE, "3 0 1 2 36"),
        (1, BAD_ELEMENT_LINE, "4 0 1 2 3"),
        (2, 2, "36"),
        (2, 2, "-1"),
        (2, 2, "0 1"),
        (2, 2, "x"),
        # np.loadtxt reads these as integers with only a DeprecationWarning
        (0, BAD_NODE_LINE, "2.0 0 0 0"),
        (1, BAD_ELEMENT_LINE, "3 0 1 2 5.5"),
        (2, 2, "1e1"),
        # Python's int reads these, np.loadtxt does not
        (1, BAD_ELEMENT_LINE, "3 0 1 2 1_0"),
        (1, BAD_ELEMENT_LINE, "3 0 1 2 \u0663"),
        # a non-ASCII character np.loadtxt's integer parser can crash on
        (1, BAD_ELEMENT_LINE, "3 0 1 2 \U0002c6ca"),
    ])
    def test_malformed_line_is_named(self, which, lineno, line):
        texts = list(SMALL)
        texts[which] = replace_line(texts[which], lineno, line)
        got, error = outcome(load_mesh, *texts)
        assert got is None
        file = ("node file", "element file", "anchor file")[which]
        assert where(error) == f"{file} line {lineno}"
        _, ref_error = outcome(reference_paths.load_mesh, *texts)
        if ref_error is not None and where(ref_error) is not None:
            assert where(ref_error) == where(error)

    def test_malformed_line_among_comments_is_named(self):
        ele = decorate(SMALL[1]).splitlines(keepends=True)
        ele[-1] = f"{SMALL[1].count(chr(10)) - 1} 0 1 2 x\r\n"
        texts = [SMALL[0], "".join(ele), SMALL[2]]
        _, error = outcome(load_mesh, *texts)
        _, ref_error = outcome(reference_paths.load_mesh, *texts)
        assert where(error) == where(ref_error) == f"element file line {len(ele)}"

    def test_first_bad_line_wins(self):
        """A check that fails on an earlier line than a line that cannot
        be read is the one reported, as the per-line loader reports it."""
        node = replace_line(SMALL[0], 2, "7 0 0 0")
        node = replace_line(node, 5, "4 bad 0 0")
        _, error = outcome(load_mesh, node, SMALL[1], SMALL[2])
        _, ref_error = outcome(reference_paths.load_mesh, node, SMALL[1], SMALL[2])
        assert error.startswith("node file line 2: index 7 not contiguous")
        assert where(ref_error) == "node file line 2"
        ele = replace_line(SMALL[1], 2, "1 0 1 2 2")
        ele = replace_line(ele, 3, "2 0 1 2 99")
        _, error = outcome(load_mesh, SMALL[0], ele, SMALL[2])
        assert error == "element file line 2: repeated corner index"

    @pytest.mark.parametrize("which, text, message", [
        (0, "", "node file contains no nodes"),
        (0, "# comment only\n\n", "node file contains no nodes"),
        (1, "", "element file contains no tetrahedra"),
        (1, "# comment only\n  \n", "element file contains no tetrahedra"),
    ])
    def test_empty_file(self, which, text, message):
        texts = list(SMALL)
        texts[which] = text
        assert outcome(load_mesh, *texts) == (None, message)
        assert outcome(reference_paths.load_mesh, *texts) == (None, message)

    def test_zero_volume_tet(self):
        node = replace_line(SMALL[0], 2, "1 0 0 0")  # node 1 onto node 0
        texts = [node, SMALL[1], SMALL[2]]
        got, error = outcome(load_mesh, *texts)
        assert got is None and "zero-volume" in error
        assert outcome(reference_paths.load_mesh, *texts) == (None, error)

    def test_orientation_repair_matches_det(self):
        rng = np.random.default_rng(2)
        nodes = rng.standard_normal((40, 3))
        tets = np.array([rng.choice(40, 4, replace=False) for _ in range(300)])
        assert np.array_equal(orient_positive(nodes, tets),
                              reference_paths.orient_positive(nodes, tets))

    @pytest.mark.parametrize("line", ["0 1", "bad", "1.0", "1.5", f"{2**63}",
                                      "99999999999999999999", "\U0002c6ca"])
    def test_malformed_partition_line_is_named(self, small_beam, line):
        text = replace_line("0\n" * small_beam.n_tets, 5, line)
        got, error = outcome(lambda f: load_partition(f, small_beam), text)
        assert got is None and where(error) == "partition file line 5"
        try:
            _, ref_error = outcome(lambda f: reference_paths.load_partition(f, small_beam), text)
        except OverflowError:  # the per-line loader's np.array of a label past int64
            return
        assert where(ref_error) == where(error)

    @pytest.mark.parametrize("text", ["", "# comment only\n"])
    def test_empty_partition_file(self, small_beam, text):
        assert outcome(lambda f: load_partition(f, small_beam), text) == (
            None, "partition file contains no labels")

    def test_valid_partition_matches_reference(self, small_beam):
        labels = (np.arange(small_beam.n_tets) >= 6).astype(int)
        text = decorate("\n".join(map(str, labels)))
        got, _ = outcome(lambda f: load_partition(f, small_beam), text)
        want, _ = outcome(lambda f: reference_paths.load_partition(f, small_beam), text)
        assert np.array_equal(got.labels, want.labels)


# SHA-256 digests of the node, tet and anchor (t_shape: label) arrays'
# bytes, taken when box_complex still numbered the grid in Python loops
MESHGEN_DIGESTS = {
    "beam(16, 5, 5)": (
        "11aca1317638fc4201e7b7b0d3c92af2a407c49032ffea3a38cd165c6e7ec41d",
        "636e8bad5223749d6d34a0ad1450d2330743ae53fa1192bec4c1777fbb16b50c",
        "0a8debd26c46b3c7b1c0f2cd13e088848852c614fcd2f9fde84622e7b1ba4a00"),
    "beam(32, 9, 9)": (
        "ef196b21b72ddd5170987a03b1ffeea55a5779a8cb9c52f2a0450c08c9d1bfd1",
        "3896574f57fffe556c1f5c074d06a2e6010ee4f8fb8a8987ff55e2924dc79d26",
        "96bdba67cd0b5e6dc0f9e399f66b17eae627eac812d0620119e87687d789546a"),
    "t_shape()": (
        "9effcc6f947b23f5a3adfb6e8a4f53c87eb013c175d4ffa617df77361a1112ef",
        "7196e8a2a1872ca06871dc100a518cb9f88afa8ea09aafd17b0f8ea7bdfa28e2",
        "1b3549032af5a34573158698b83fa81f625c260188334d483139501b781eabee"),
}


@pytest.mark.parametrize("name", sorted(MESHGEN_DIGESTS))
def test_meshgen_arrays_pinned(name):
    if name == "t_shape()":
        mesh, part = t_shape()
        third = part.labels
    else:
        mesh = beam(*map(int, name[5:-1].split(", ")), lengths=(2.0, 0.8, 0.8))
        third = np.array(sorted(mesh.anchors), dtype=np.int64)
    got = tuple(hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()
                for a in (mesh.nodes, mesh.tets, third))
    assert got == MESHGEN_DIGESTS[name]


class TestNormalize:
    def test_already_normalized_identity(self):
        nodes = np.array([[1.0, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0],
                          [0, 0, 1], [0, 0, -1]])
        tets = np.array([[0, 2, 4, 1]])
        mesh = TetMesh(nodes=nodes, tets=tets)
        out = normalize_to_unit_sphere(mesh)
        assert np.allclose(out.nodes, mesh.nodes)

    def test_radius_four_scales_quarter(self):
        nodes = np.array([[4.0, 0, 0], [-4, 0, 0], [0, 4, 0], [0, -4, 0],
                          [0, 0, 4], [0, 0, -4]])
        mesh = TetMesh(nodes=nodes, tets=np.array([[0, 2, 4, 1]]))
        out = normalize_to_unit_sphere(mesh)
        assert np.array_equal(out.nodes, nodes * 0.25)
        assert np.linalg.norm(out.nodes, axis=1).max() == pytest.approx(1.0)

    def test_random_cloud_max_radius_one(self):
        rng = np.random.default_rng(3)
        nodes = rng.standard_normal((20, 3)) * 3.0 + 5.0
        mesh = TetMesh(nodes=nodes, tets=np.array([[0, 1, 2, 3]]))
        out = normalize_to_unit_sphere(mesh)
        assert abs(np.linalg.norm(out.nodes - out.nodes.mean(0), axis=1).max() - 1.0) < 1e-12

    def test_idempotent(self, bending_beam):
        once = normalize_to_unit_sphere(bending_beam)
        twice = normalize_to_unit_sphere(once)
        assert np.abs(twice.nodes - once.nodes).max() < 1e-12

    def test_coincident_nodes_rejected(self):
        mesh = TetMesh(nodes=np.zeros((4, 3)) + 2.0,
                       tets=np.zeros((0, 4), dtype=int))
        with pytest.raises(MeshError, match="coincide"):
            normalize_to_unit_sphere(mesh)


class TestAdjacency:
    def test_single_tet(self, unit_tet):
        adj = node_adjacency(unit_tet)
        assert isinstance(adj, sp.csr_matrix) and adj.has_sorted_indices
        assert np.array_equal(adj.toarray(), 1 - np.eye(4))

    def test_two_tets_shared_face(self):
        nodes = UNIT_TET + [(1.0, 1.0, 1.0)]
        mesh = load_mesh(*make_streams(nodes, [(0, 1, 2, 3), (1, 2, 3, 4)]))
        adj = node_adjacency(mesh)
        assert np.array_equal(np.diff(adj.indptr), [3, 4, 4, 4, 3])
        # the data count the shared tets: the face's edges lie in both
        assert np.array_equal(adj[1:4, 1:4].toarray(), 2 * (1 - np.eye(3)))
        assert adj[0, 4] == 0 and adj[0, 1] == 1

    def test_symmetry(self, bending_beam):
        adj = node_adjacency(bending_beam)
        assert (adj != adj.T).nnz == 0
        assert not adj.diagonal().any()

    def test_connected(self, bending_beam):
        assert csgraph.connected_components(node_adjacency(bending_beam), directed=False)[0] == 1


def loop_adjacency(mesh):
    """Reference path: per-node {neighbour: shared tets} filled tet by tet."""
    shared = [{} for _ in range(mesh.n_nodes)]
    for tet in mesh.tets:
        for a in tet:
            for b in tet:
                if b != a:
                    shared[a][int(b)] = shared[a].get(int(b), 0) + 1
    return shared


def loop_components(n_nodes, adjacency):
    """Reference path: depth-first search from every unseen node."""
    seen = np.zeros(n_nodes, dtype=bool)
    n_comp = 0
    for start in range(n_nodes):
        if seen[start]:
            continue
        n_comp += 1
        stack = [start]
        seen[start] = True
        while stack:
            for j in adjacency[stack.pop()]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(int(j))
    return n_comp


def shuffled_nodes(mesh, seed):
    perm = np.random.default_rng(seed).permutation(mesh.n_nodes)
    new_index = np.argsort(perm)
    return TetMesh(nodes=mesh.nodes[perm], tets=new_index[mesh.tets])


def two_pieces():
    """Two disjoint beams in one mesh, numbered in shuffled order."""
    a, b = beam(3, 1, 1), beam(2, 2, 1)
    mesh = TetMesh(nodes=np.vstack([a.nodes, b.nodes + 5.0]),
                   tets=np.vstack([a.tets, b.tets + a.n_nodes]))
    return shuffled_nodes(mesh, 4)


class TestAdjacencyMatchesLoops:
    """The sparse incidence product and csgraph against the loop versions."""

    @pytest.mark.parametrize("make", [
        lambda: beam(6, 3, 3, lengths=(2.0, 1.0, 1.0)),
        lambda: t_shape(arm=2, thickness=1)[0],
        lambda: shuffled_nodes(beam(5, 3, 2), seed=11),
        two_pieces,
    ], ids=["beam", "t_shape", "shuffled", "two_pieces"])
    def test_same_graph_and_components(self, make):
        mesh = make()
        adj, ref = node_adjacency(mesh), loop_adjacency(mesh)
        assert adj.shape == (mesh.n_nodes, mesh.n_nodes) and adj.has_sorted_indices
        for i, want in enumerate(ref):
            row = slice(adj.indptr[i], adj.indptr[i + 1])
            assert np.array_equal(adj.indices[row], sorted(want))
            assert np.array_equal(adj.data[row], [want[j] for j in sorted(want)])
        n_comp = csgraph.connected_components(adj, directed=False)[0]
        assert n_comp == loop_components(mesh.n_nodes, ref)
        assert n_comp == (2 if make is two_pieces else 1)


class TestLumpedMass:
    def test_unit_tet_density_six(self, unit_tet):
        masses = lumped_mass(unit_tet, 6.0)
        assert np.allclose(masses, 0.25)

    def test_zero_density_rejected(self, unit_tet):
        for density in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                lumped_mass(unit_tet, density)

    def test_beam_total_mass(self, small_beam):
        masses = lumped_mass(small_beam, 37.5)
        assert masses.sum() == pytest.approx(37.5 * 2.0, abs=1e-10)


def loop_edge_connected(mesh, labels):
    """Reference path: breadth-first search from each domain's first tet over
    tets of that domain sharing an edge (two corners)."""
    corners = [set(map(int, tet)) for tet in mesh.tets]
    for dom in np.unique(labels):
        members = set(np.flatnonzero(labels == dom).tolist())
        seen = {min(members)}
        queue = [min(members)]
        while queue:
            t = queue.pop(0)
            for other in members - seen:
                if len(corners[t] & corners[other]) >= 2:
                    seen.add(other)
                    queue.append(other)
        if seen != members:
            return False
    return True


class TestPartition:
    def test_valid_two_domain(self, small_beam):
        part = partition_by_axis(small_beam, 0, [1.0])
        assert part.n_domains == 2
        assert len(part.labels) == small_beam.n_tets

    def test_missing_domain_id(self, small_beam):
        labels = np.zeros(small_beam.n_tets, dtype=int)
        labels[0] = 2     # skips id 1
        with pytest.raises(MeshError, match="empty domain"):
            DomainPartition(labels).validate(small_beam)

    def test_disconnected_domain_rejected(self, bending_beam):
        # same label on the two beam ends, different in the middle
        centroids = bending_beam.nodes[bending_beam.tets].mean(axis=1)[:, 0]
        labels = np.where((centroids < 0.4) | (centroids > 1.6), 0, 1)
        with pytest.raises(MeshError, match="not edge-connected"):
            DomainPartition(labels).validate(bending_beam)

    def test_domain_joined_across_a_foreign_tet(self):
        # tets 0 and 3 share an edge; tets 1 and 2 of the other domain come
        # between them in tet order
        mesh = beam(3, 2, 2)
        assert len(set(mesh.tets[0]) & set(mesh.tets[3])) == 2
        labels = np.ones(mesh.n_tets, dtype=int)
        labels[[0, 3]] = 0
        DomainPartition(labels).validate(mesh)

    def test_edge_connectivity_matches_tet_bfs(self, small_beam):
        rng = np.random.default_rng(3)
        verdicts = set()
        for _ in range(60):
            labels = rng.integers(0, rng.integers(2, 4), small_beam.n_tets)
            if len(np.unique(labels)) != labels.max() + 1:
                continue
            connected = loop_edge_connected(small_beam, labels)
            verdicts.add(connected)
            if connected:
                DomainPartition(labels).validate(small_beam)
            else:
                with pytest.raises(MeshError, match="not edge-connected"):
                    DomainPartition(labels).validate(small_beam)
        assert verdicts == {True, False}

    def test_load_partition_stream(self, small_beam):
        text = io.StringIO("\n".join("0" for _ in range(small_beam.n_tets)))
        part = load_partition(text, small_beam)
        assert part.n_domains == 1

    def test_t_shape_partition_valid(self):
        mesh, part = t_shape()
        part.validate(mesh)
        assert part.n_domains == 3
