import collections
import ctypes
import io
import multiprocessing
import os

import numpy as np
import pytest

from deepwarp import dataset, dynamics, registration
from deepwarp.dataset import (DatasetFormatError, Pose, RampConfig, RecordSet,
                              build_dataset, extract_records, generate_poses,
                              read_dataset, sample_directions, split,
                              write_dataset)
from deepwarp.dynamics import ConvergenceError
from deepwarp.features import ForceField, geodesic_all, static_features
from deepwarp.material import MaterialModel, MaterialParams
from deepwarp.mesh import TetMesh, normalize_to_unit_sphere
from deepwarp.meshgen import beam
from deepwarp.registration import gradient_operator, rotation_from_vector


@pytest.fixture(scope="module")
def tiny_setup():
    mesh = normalize_to_unit_sphere(beam(3, 2, 2, lengths=(2.0, 1.0, 1.0)))
    params = MaterialParams(MaterialModel.NEO_HOOKEAN, 1e4, 0.4)
    fields = [ForceField.directional([0, 1, 0], 1.0),
              ForceField.directional([0.6, 0.8, 0], 1.0)]
    ramp = RampConfig(start=0.3, factor=2.2, poses_per_magnitude=4, cap=1.5)
    report = generate_poses(mesh, params, fields, ramp)
    return mesh, params, fields, ramp, report


class TestSampleDirections:
    def test_formula_endpoints(self):
        dirs = sample_directions(2, 2)
        assert np.allclose(dirs[0], [0, 1, 0])           # alpha=0, beta=0
        assert np.allclose(dirs[1], [1, 0, 0], atol=1e-15)  # alpha=0, beta=pi/2

    def test_all_unit_length(self):
        dirs = sample_directions(7, 5)
        assert np.abs(np.linalg.norm(dirs, axis=1) - 1.0).max() < 1e-12

    def test_grid_size(self):
        assert sample_directions(4, 6).shape == (24, 3)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_directions(0, 3)


class TestGeneratePoses:
    def test_rest_pose_first_per_field(self, tiny_setup):
        _, _, fields, _, report = tiny_setup
        assert report.poses[0].magnitude == 0.0
        assert np.abs(report.poses[0].u_lin).max() == 0.0
        assert np.abs(report.poses[0].u).max() == 0.0

    def test_cap_rule(self, tiny_setup):
        _, _, _, ramp, report = tiny_setup
        over = [p for p in report.poses
                if np.linalg.norm(p.u_lin.reshape(-1, 3), axis=1).max() >= ramp.cap]
        # at most the final pose of each field's ramp exceeds the cap
        assert len(over) <= 2

    def test_accounting(self, tiny_setup):
        _, _, _, _, report = tiny_setup
        assert report.emitted + report.dropped_nonconverged + report.dropped_capped \
            == report.attempted

    def test_ramp_config_validated(self):
        for kwargs in (dict(start=0.0), dict(start=np.nan), dict(start=np.inf),
                       dict(start=0.1, factor=1.0), dict(start=0.1, factor=np.nan),
                       dict(start=0.1, factor=np.inf), dict(start=0.1, cap=0.0),
                       dict(start=0.1, cap=np.nan), dict(start=0.1, cap=np.inf)):
            with pytest.raises(ValueError, match="ramp"):
                RampConfig(**kwargs)

    def test_linear_params_rejected(self, tiny_setup):
        mesh, params, fields, ramp, _ = tiny_setup
        with pytest.raises(ValueError, match="nonlinear"):
            generate_poses(mesh, params.as_linear(), fields, ramp)


class TestExtractRecords:
    def test_rest_pose_zero_targets(self, tiny_setup):
        mesh, params, fields, _, report = tiny_setup
        grad_op = gradient_operator(mesh)
        sf = static_features(mesh, fields[0], geodesic_all(mesh))
        rs = extract_records(report.poses[0], sf, params.poisson, mesh, grad_op)
        assert np.abs(rs.targets).max() == 0.0

    def test_record_count_excludes_anchors(self, tiny_setup):
        mesh, params, fields, _, report = tiny_setup
        grad_op = gradient_operator(mesh)
        sf = static_features(mesh, fields[0], geodesic_all(mesh))
        rs = extract_records(report.poses[2], sf, params.poisson, mesh, grad_op)
        assert len(rs) == mesh.n_nodes - len(mesh.anchors)
        assert not set(rs.node_ids.tolist()) & mesh.anchors

    def test_unrotating_round_trip(self, tiny_setup):
        # Q^T target + u_lin reproduces the registered displacement
        mesh, params, fields, _, report = tiny_setup
        from deepwarp.features import align_batch
        from deepwarp.registration import rotation_vectors_from_displacement
        grad_op = gradient_operator(mesh)
        pose = report.poses[3]
        sf = static_features(mesh, pose.field, geodesic_all(mesh))
        rs = extract_records(pose, sf, params.poisson, mesh, grad_op)
        w = rotation_vectors_from_displacement(grad_op, pose.u_lin)
        _, _, _, Q = align_batch(pose.u_lin.reshape(-1, 3), w)
        rebuilt = np.einsum("nqp,nq->np", Q[rs.node_ids], rs.targets) \
            + pose.u_lin.reshape(-1, 3)[rs.node_ids]
        assert np.abs(rebuilt - pose.u.reshape(-1, 3)[rs.node_ids]).max() < 1e-12

    def test_rotated_pose_yields_identical_records(self, tiny_setup):
        # the alignment compresses rigid rotations away entirely
        mesh, params, fields, _, report = tiny_setup
        grad_op = gradient_operator(mesh)
        pose = report.poses[3]
        sf = static_features(mesh, pose.field, geodesic_all(mesh))
        rs = extract_records(pose, sf, params.poisson, mesh, grad_op)

        R = rotation_from_vector(np.array([0.4, -0.2, 0.9]))
        rot_mesh = TetMesh(nodes=mesh.nodes @ R.T, tets=mesh.tets,
                           anchors=mesh.anchors)
        rot_field = ForceField.directional(R @ pose.field.direction,
                                           pose.field.magnitude)
        rot_pose = Pose(field=rot_field, magnitude=pose.magnitude,
                        u_lin=(pose.u_lin.reshape(-1, 3) @ R.T).ravel(),
                        u=(pose.u.reshape(-1, 3) @ R.T).ravel(),
                        residual=pose.residual)
        rot_grad = gradient_operator(rot_mesh)
        rot_sf = static_features(rot_mesh, rot_field, geodesic_all(rot_mesh))
        rot_rs = extract_records(rot_pose, rot_sf, params.poisson, rot_mesh, rot_grad)
        assert np.abs(rs.features - rot_rs.features).max() < 1e-9
        assert np.abs(rs.targets - rot_rs.targets).max() < 1e-9

    def test_build_dataset_validates(self, tiny_setup):
        mesh, params, fields, ramp, _ = tiny_setup
        records, report = build_dataset(mesh, params, fields, ramp)
        records.validate(mesh.anchors)
        n_free = mesh.n_nodes - len(mesh.anchors)
        assert len(records) == report.emitted * n_free

    def test_records_match_per_pose_extraction(self, tiny_setup):
        mesh, params, fields, ramp, _ = tiny_setup
        records, report = build_dataset(mesh, params, fields, ramp)
        grad_op = gradient_operator(mesh)
        geo = geodesic_all(mesh)
        parts = []
        for pose_id, pose in enumerate(report.poses):
            rs = extract_records(pose, static_features(mesh, pose.field, geo), params.poisson,
                                 mesh, grad_op)
            rs.pose_ids[:] = pose_id
            parts.append(rs)
        want = RecordSet.concat(parts)
        for name in ("features", "targets", "pose_ids", "node_ids"):
            assert np.array_equal(getattr(records, name), getattr(want, name)), name

    def test_each_operator_built_once(self, tiny_setup, build_counts, monkeypatch):
        mesh, params, fields, ramp, _ = tiny_setup
        linear = collections.Counter()

        def count_linear(module):
            original = module.assemble_stiffness

            def wrapper(mesh, params, *args, **kwargs):
                linear[module.__name__] += params.model is MaterialModel.LINEAR
                return original(mesh, params, *args, **kwargs)
            monkeypatch.setattr(module, "assemble_stiffness", wrapper)

        count_linear(dynamics)
        count_linear(registration)
        build_dataset(mesh, params, fields, ramp)
        assert dict(build_counts) == {"node_adjacency": 1, "gradient_operator": 1,
                                      "MeshPrecomp": 1, "lumped_mass": 1,
                                      "dynamics.assemble_stiffness": 1}
        # the linear rest stiffness is the driver's one assembly; registration
        # reads it from the driver instead of assembling it per loading path
        assert sum(linear.values()) == 1

    def test_regeneration_deterministic(self, tiny_setup):
        mesh, params, fields, ramp, _ = tiny_setup
        r1, _ = build_dataset(mesh, params, fields, ramp)
        r2, _ = build_dataset(mesh, params, fields, ramp)
        assert np.array_equal(r1.features, r2.features)
        assert np.array_equal(r1.targets, r2.targets)


def blas_threads() -> list[int]:
    """The thread count of every OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as maps:
        paths = {line.split(maxsplit=5)[-1].strip() for line in maps if "openblas" in line}
    counts = []
    for path in sorted(paths):
        library = ctypes.CDLL(path)
        counts += [getattr(library, name)() for name in (
            "openblas_get_num_threads", "scipy_openblas_get_num_threads",
            "scipy_openblas_get_num_threads64_") if hasattr(library, name)]
    return counts


def use_cpus(monkeypatch, n: int) -> None:
    """Make ``generate_poses`` see an affinity mask of ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestParallelPaths:
    """Loading paths run in one worker process per CPU; the output must not
    depend on the CPU count. In ``tiny_setup`` field 0 ends on a failed
    registration (its fourth path stops at pose 1) and field 1 at the cap."""

    def test_output_independent_of_cpu_count(self, tiny_setup, monkeypatch):
        mesh, params, fields, ramp, _ = tiny_setup
        runs = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            runs.append(build_dataset(mesh, params, fields, ramp))
            assert multiprocessing.active_children() == []
        (serial, serial_report), (parallel, parallel_report) = runs
        # a path failed, and a path's final pose reached the cap
        assert serial_report.dropped_nonconverged > 0
        assert any(np.linalg.norm(p.u_lin.reshape(-1, 3), axis=1).max() >= ramp.cap
                   for p in serial_report.poses)
        for name in ("features", "targets", "pose_ids", "node_ids"):
            assert np.array_equal(getattr(serial, name), getattr(parallel, name)), name
        for name in ("attempted", "emitted", "dropped_nonconverged", "dropped_capped"):
            assert getattr(serial_report, name) == getattr(parallel_report, name), name
        assert [p.magnitude for p in serial_report.poses] == \
            [p.magnitude for p in parallel_report.poses]

    def test_one_cpu_runs_each_path_once_in_process(self, tiny_setup, monkeypatch):
        mesh, params, fields, ramp, _ = tiny_setup
        use_cpus(monkeypatch, 1)
        runs = []
        original = dynamics.QuasistaticDriver.run

        def counted(self, *args, **kwargs):
            runs.append(os.getpid())
            return original(self, *args, **kwargs)
        monkeypatch.setattr(dynamics.QuasistaticDriver, "run", counted)
        _, report = build_dataset(mesh, params, fields, ramp)
        # one linear run per path, as many as the serial ramp plans: 4 per field
        assert runs == [os.getpid()] * 8
        assert sum(p.magnitude == 0.0 for p in report.poses) == 8

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_path_exception_reaches_caller(self, tiny_setup, monkeypatch, cpus):
        mesh, params, fields, ramp, _ = tiny_setup
        use_cpus(monkeypatch, cpus)
        caller = os.getpid()

        def diverging(*args):
            where = "caller" if os.getpid() == caller else "worker"
            raise ConvergenceError(f"path diverged in a {where}", residual=2.5)
        monkeypatch.setattr(dataset, "register_sequence", diverging)
        where = "caller" if cpus == 1 else "worker"
        with pytest.raises(ConvergenceError, match=f"^path diverged in a {where}$") as info:
            build_dataset(mesh, params, fields, ramp)
        assert info.value.residual == 2.5
        assert multiprocessing.active_children() == []

    def test_workers_run_one_blas_thread(self):
        pool = multiprocessing.get_context("fork").Pool(1, dataset._init_worker, (None,))
        try:
            assert pool.apply_async(blas_threads).get(timeout=60) == \
                [1] * len(blas_threads())
        finally:
            pool.terminate()
            pool.join()


class TestSplit:
    def make_records(self, n=1000):
        rng = np.random.default_rng(0)
        return RecordSet(rng.random((n, 7)), rng.random((n, 3)),
                         np.arange(n), np.arange(n))

    def test_documented_floor_sizes(self):
        tr, va, te = split(self.make_records(1000), 0.01, 1 / 8, seed=0)
        assert (len(tr), len(va), len(te)) == (865, 10, 125)

    def test_same_seed_same_split(self):
        r = self.make_records()
        a = split(r, 0.1, 0.2, seed=5)
        b = split(r, 0.1, 0.2, seed=5)
        for x, y in zip(a, b):
            assert np.array_equal(x.pose_ids, y.pose_ids)

    def test_disjoint_and_covering(self):
        r = self.make_records(500)
        tr, va, te = split(r, 0.1, 0.2, seed=1)
        ids = np.concatenate([tr.pose_ids, va.pose_ids, te.pose_ids])
        assert len(ids) == 500
        assert len(set(ids.tolist())) == 500

    def test_empty_partition_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            split(self.make_records(5), 0.01, 0.01, seed=0)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            split(self.make_records(), 0.6, 0.6, seed=0)


class TestDatasetIO:
    def make_records(self, n=257):
        rng = np.random.default_rng(2)
        return RecordSet(rng.random((n, 7)), rng.standard_normal((n, 3)))

    def test_round_trip_bit_identical(self):
        records = self.make_records()
        buf = io.BytesIO()
        write_dataset(buf, records)
        buf.seek(0)
        again = read_dataset(buf)
        assert np.array_equal(records.features, again.features)
        assert np.array_equal(records.targets, again.targets)

    def test_file_size_formula(self):
        records = self.make_records(100)
        buf = io.BytesIO()
        write_dataset(buf, records)
        # magic + u32 version + u64 count + 10 doubles per record
        assert len(buf.getvalue()) == 4 + 4 + 8 + 100 * 10 * 8

    def test_corrupted_magic(self):
        records = self.make_records(3)
        buf = io.BytesIO()
        write_dataset(buf, records)
        raw = bytearray(buf.getvalue())
        raw[:4] = b"WXYZ"
        with pytest.raises(DatasetFormatError, match="magic"):
            read_dataset(io.BytesIO(bytes(raw)))

    def test_truncation_detected(self):
        records = self.make_records(50)
        buf = io.BytesIO()
        write_dataset(buf, records)
        with pytest.raises(DatasetFormatError, match="truncated"):
            read_dataset(io.BytesIO(buf.getvalue()[:-9]))

    def test_trailing_bytes_detected(self):
        records = self.make_records(12)
        buf = io.BytesIO()
        write_dataset(buf, records)
        raw = bytearray(buf.getvalue())
        assert raw[8] == 12                # low byte of the u64 record count
        raw[8] = 4
        with pytest.raises(DatasetFormatError, match="trailing"):
            read_dataset(io.BytesIO(bytes(raw)))
        with pytest.raises(DatasetFormatError, match="trailing"):
            read_dataset(io.BytesIO(buf.getvalue() + b"\x00"))

    def test_nan_payload_rejected_on_write(self):
        records = self.make_records(4)
        records.targets[1, 2] = np.nan
        with pytest.raises(DatasetFormatError, match="non-finite"):
            write_dataset(io.BytesIO(), records)

    def test_nan_payload_rejected_on_read(self):
        records = self.make_records(4)
        buf = io.BytesIO()
        write_dataset(buf, records)
        raw = bytearray(buf.getvalue())
        raw[16:24] = np.float64(np.nan).tobytes()
        with pytest.raises(DatasetFormatError, match="non-finite"):
            read_dataset(io.BytesIO(bytes(raw)))

    def test_streaming_batches(self):
        records = self.make_records(1000)
        buf = io.BytesIO()
        write_dataset(buf, records)
        buf.seek(0)
        from deepwarp.dataset import iter_dataset
        seen = 0
        for X, Y in iter_dataset(buf, batch_size=64):
            assert X.shape[1] == 7 and Y.shape[1] == 3
            seen += len(X)
        assert seen == 1000
