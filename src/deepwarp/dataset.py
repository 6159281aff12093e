"""Training-pose generation and the on-disk dataset format.

Pose pipeline per force field: ramp the magnitude geometrically, run the
overdamped quasi-static linear sequence at each magnitude, register every
linear snapshot to its nonlinear counterpart, and stop the ramp once the
equilibrium linear displacement reaches the cap max_i |u_i| >= 2 (the cap is
evaluated on the linear displacement, which exists before registration).
Each loading path starts from rest, so the paths are independent: they run
in one worker process per CPU of the process's affinity mask, and their
results are read in ramp order, where the stopping rule applies. The output
does not depend on the CPU count; ``taskset -c 0`` runs every path in the
calling process, which is what a profiler needs.

Records are per non-anchor node: the 7-feature vector plus the canonical
frame displacement fix Q (u_i - u_lin_i), extracted as each pose is emitted
by one pass that builds every mesh operator and static feature set once.

Dataset file format (little-endian): magic 'DWTP', version u32, record count
u64, then one 10-double row per record (7 features in FEATURE_ORDER, then
the 3 target components).
"""

from __future__ import annotations

import collections
import ctypes
import functools
import itertools
import multiprocessing
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .dynamics import QuasistaticDriver
from .features import (N_FEATURES, ForceField, StaticFeatureSet, align_batch,
                       assemble_features_batch, force_vector, geodesic_all,
                       static_features)
from .material import MaterialModel, MaterialParams
from .mesh import TetMesh, node_adjacency
from .registration import (SequenceRegistration, gradient_operator, register_sequence,
                           rotation_vectors_from_displacement)

MAGIC = b"DWTP"
FORMAT_VERSION = 1
RECORD_DOUBLES = N_FEATURES + 3
DISPLACEMENT_CAP = 2.0
MAX_MAGNITUDES = 50          # ramp steps per field before it gives up
READ_BATCH_RECORDS = 65536   # records per batch of ``iter_dataset``


class DatasetFormatError(Exception):
    """Dataset stream rejected (magic, version, truncation, NaN payload)."""


class RecordSet:
    """Columnar container of training records."""

    def __init__(self, features: np.ndarray, targets: np.ndarray,
                 pose_ids: np.ndarray | None = None,
                 node_ids: np.ndarray | None = None):
        self.features = np.asarray(features, dtype=np.float64).reshape(-1, N_FEATURES)
        self.targets = np.asarray(targets, dtype=np.float64).reshape(-1, 3)
        n = len(self.features)
        if len(self.targets) != n:
            raise ValueError("features and targets disagree in length")
        self.pose_ids = (np.asarray(pose_ids, dtype=np.int64)
                         if pose_ids is not None else np.full(n, -1, dtype=np.int64))
        self.node_ids = (np.asarray(node_ids, dtype=np.int64)
                         if node_ids is not None else np.full(n, -1, dtype=np.int64))

    def __len__(self) -> int:
        return len(self.features)

    def subset(self, idx) -> "RecordSet":
        return RecordSet(self.features[idx], self.targets[idx],
                         self.pose_ids[idx], self.node_ids[idx])

    @classmethod
    def concat(cls, parts: list["RecordSet"]) -> "RecordSet":
        if not parts:
            return cls(np.zeros((0, N_FEATURES)), np.zeros((0, 3)))
        return cls(np.concatenate([p.features for p in parts]),
                   np.concatenate([p.targets for p in parts]),
                   np.concatenate([p.pose_ids for p in parts]),
                   np.concatenate([p.node_ids for p in parts]))

    def validate(self, anchors: frozenset[int] | None = None) -> None:
        """Re-check finiteness, feature ranges and anchored-node exclusion."""
        if not (np.all(np.isfinite(self.features)) and np.all(np.isfinite(self.targets))):
            raise ValueError("record set contains non-finite values")
        g, p, d = self.features[:, 3], self.features[:, 4], self.features[:, 5]
        if np.any((g < 0) | (g > 1)) or np.any((p < 0) | (p > 1)):
            raise ValueError("geodesic/potential feature out of [0, 1]")
        circ = d == -1.0
        if np.any((~circ) & ((d < 0) | (d > np.pi + 1e-12))):
            raise ValueError("digression feature out of [0, pi] + {-1}")
        if anchors:
            if np.any(np.isin(self.node_ids, list(anchors))):
                raise ValueError("anchored node leaked into the record set")


def sample_directions(n_alpha: int, n_beta: int) -> np.ndarray:
    """Semi-hemisphere force directions from a uniform [0, pi/2]^2 grid.

    e = [sin(beta) cos(alpha), cos(beta), sin(beta) sin(alpha)].
    """
    if n_alpha < 1 or n_beta < 1:
        raise ValueError("need at least one sample per parameter")
    alphas = np.linspace(0.0, np.pi / 2.0, n_alpha)
    betas = np.linspace(0.0, np.pi / 2.0, n_beta)
    A, B = np.meshgrid(alphas, betas, indexing="ij")
    e = np.stack([np.sin(B) * np.cos(A), np.cos(B), np.sin(B) * np.sin(A)], axis=-1)
    return e.reshape(-1, 3)


@dataclass(frozen=True)
class RampConfig:
    """Geometric force-magnitude ramp settings."""

    start: float
    factor: float = 1.3
    poses_per_magnitude: int = 10
    cap: float = DISPLACEMENT_CAP

    def __post_init__(self):
        if not (np.isfinite(self.start) and self.start > 0.0):
            raise ValueError(f"ramp start magnitude must be finite and positive, "
                             f"got {self.start}")
        if not (np.isfinite(self.factor) and self.factor > 1.0):
            raise ValueError(f"ramp factor must be finite and exceed 1, got {self.factor}")
        if not (np.isfinite(self.cap) and self.cap > 0.0):
            raise ValueError(f"ramp cap must be finite and positive, got {self.cap}")


@dataclass
class Pose:
    """One registered linear/nonlinear displacement pair."""

    field: ForceField
    magnitude: float
    u_lin: np.ndarray
    u: np.ndarray
    residual: float


@dataclass
class PoseGenerationReport:
    """Emitted poses; ``records[k]`` holds pose k's records."""

    poses: list[Pose] = field(default_factory=list)
    records: list[RecordSet] = field(default_factory=list)
    attempted: int = 0
    dropped_nonconverged: int = 0
    dropped_capped: int = 0

    @property
    def emitted(self) -> int:
        return len(self.poses)


def generate_poses(mesh: TetMesh, params: MaterialParams, fields: list[ForceField],
                   ramp: RampConfig, density: float = 1000.0) -> PoseGenerationReport:
    """Registered training poses for every field over the magnitude ramp,
    each with its records.

    Per field the rest pose (magnitude 0) is emitted first; snapshots whose
    max per-node linear displacement already exceeds the cap are dropped,
    except the final equilibrium pose of the ramp.

    Loading paths run in one worker process per CPU of this process's
    affinity mask, at most one path per worker ahead of the ramp, and their
    results are read in ramp order, so the output does not depend on the CPU
    count. With one CPU (for profilers, ``taskset -c 0``) the paths run in
    this process, one after another. A worker that dies without raising (a
    signal, the OOM killer, a native crash) is a ``ChildProcessError``.
    """
    if params.model is MaterialModel.LINEAR:
        raise ValueError("pose generation registers against a nonlinear model")
    report = PoseGenerationReport()
    driver = QuasistaticDriver(mesh, params.as_linear(), density=density)
    adjacency = node_adjacency(mesh)
    grad_op = gradient_operator(mesh, adjacency)
    geo = geodesic_all(mesh, adjacency)
    zero = np.zeros(3 * mesh.n_nodes)
    ended: set[int] = set()       # fields whose ramp has stopped

    def register(f_ext: np.ndarray) -> tuple[int, SequenceRegistration]:
        """One loading path from rest: its snapshot count and registration."""
        seq = driver.run(f_ext, n_steps=ramp.poses_per_magnitude)
        return len(seq.displacements), register_sequence(driver, params,
                                                         seq.displacements, grad_op)

    def emit(pose: Pose, static: StaticFeatureSet) -> None:
        rs = extract_records(pose, static, params.poisson, mesh, grad_op)
        rs.pose_ids[:] = report.emitted
        report.poses.append(pose)
        report.records.append(rs)

    def paths(pool):
        """Each field's paths in ramp order, with a call that returns the
        path's result; a field's paths stop once it has ended."""
        for i, f in enumerate(fields):
            rest = f.with_magnitude(0.0)
            static = static_features(mesh, rest, geo)
            magnitude = ramp.start
            for _ in range(MAX_MAGNITUDES):
                if i in ended:
                    break
                current = f.with_magnitude(magnitude)
                f_ext = force_vector(mesh, current, masses=driver.system.masses)
                result = (functools.partial(_pool_result, workers,
                                            pool.apply_async(_run_in_worker, (f_ext,)))
                          if pool else functools.partial(register, f_ext))
                yield i, rest, static, current, magnitude, result
                magnitude *= ramp.factor

    n_workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    children = set(multiprocessing.active_children())
    pool = (multiprocessing.get_context("fork").Pool(n_workers, _init_worker, (register,))
            if n_workers > 1 else None)
    workers = set(multiprocessing.active_children()) - children
    try:
        planned = paths(pool)
        window: collections.deque = collections.deque()
        while True:
            window.extend(itertools.islice(planned, n_workers - len(window)))
            if not window:
                break
            i, rest, static, current, magnitude, result = window.popleft()
            if i in ended:
                continue
            n_snapshots, reg = result()
            # every registered sequence starts from the rest shape, so each
            # magnitude contributes the rest pair first; this also keeps the
            # network's rest-feature region represented in the training set
            emit(Pose(field=rest, magnitude=0.0, u_lin=zero.copy(), u=zero.copy(),
                      residual=0.0), static)
            report.attempted += 1 + n_snapshots
            report.dropped_nonconverged += n_snapshots - len(reg.pairs)
            max_lin = [float(np.linalg.norm(p.u_lin.reshape(-1, 3), axis=1).max())
                       for p in reg.pairs]
            cap_hit = bool(max_lin and max_lin[-1] >= ramp.cap and reg.completed)
            for k, pair in enumerate(reg.pairs):
                is_final = cap_hit and (k == len(reg.pairs) - 1)
                if max_lin[k] >= ramp.cap and not is_final:
                    report.dropped_capped += 1
                    continue
                emit(Pose(field=current, magnitude=magnitude, u_lin=pair.u_lin,
                          u=pair.u, residual=pair.residual), static)
            if cap_hit or not reg.completed:
                ended.add(i)
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    return report


_worker_register = None       # a worker process's ``register`` of generate_poses
_BLAS_THREAD_SETTERS = ("openblas_set_num_threads", "scipy_openblas_set_num_threads",
                        "scipy_openblas_set_num_threads64_")


def _init_worker(register) -> None:
    # the pool forks, so ``register`` and the driver and operators it holds
    # are inherited, not pickled; nothing here may raise, or the pool would
    # replace the failed worker forever
    global _worker_register
    _worker_register = register
    _one_blas_thread()


def _one_blas_thread() -> None:
    """Set every OpenBLAS loaded in this process to one thread.

    A worker has a CPU of its own, and the spinning OpenBLAS threads of
    several workers would share the same CPUs: with unset thread variables,
    a 10x4x4 beam took 4x longer to register on 2 CPUs. Its records were
    bit-identical with one BLAS thread and with two.
    """
    try:
        with open("/proc/self/maps") as maps:
            paths = {line.split(maxsplit=5)[-1].strip() for line in maps
                     if "openblas" in line}
    except OSError:
        return
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            if hasattr(library, name):
                set_threads = getattr(library, name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)


def _run_in_worker(f_ext: np.ndarray) -> tuple[int, SequenceRegistration]:
    return _worker_register(f_ext)


def _pool_result(workers: set, result: multiprocessing.pool.AsyncResult):
    """The task's value, polled every 0.25 s: the pool replaces a dead worker
    but never completes its task, so a plain ``result.get()`` would hang."""
    while not result.ready():
        result.wait(0.25)
        for worker in workers:
            if not worker.is_alive():
                raise ChildProcessError(f"pose worker process {worker.pid} died "
                                        f"(exit code {worker.exitcode})")
    return result.get()


def extract_records(pose: Pose, static: StaticFeatureSet, poisson: float,
                    mesh: TetMesh, grad_op) -> RecordSet:
    """Canonical-frame records for every non-anchor node of a pose."""
    w = rotation_vectors_from_displacement(grad_op, pose.u_lin)
    U = pose.u_lin.reshape(-1, 3)
    u_mag, w_mag, angle, Q = align_batch(U, w)
    X = assemble_features_batch(u_mag, w_mag, angle, static, poisson)
    delta = pose.u.reshape(-1, 3) - U
    targets = np.einsum("npq,nq->np", Q, delta)
    idx = np.delete(np.arange(mesh.n_nodes), mesh.anchor_array())
    return RecordSet(X[idx], targets[idx],
                     pose_ids=np.full(len(idx), -1), node_ids=idx)


def build_dataset(mesh: TetMesh, params: MaterialParams, fields: list[ForceField],
                  ramp: RampConfig, density: float = 1000.0
                  ) -> tuple[RecordSet, PoseGenerationReport]:
    """End-to-end record generation over fields, magnitudes and nodes."""
    report = generate_poses(mesh, params, fields, ramp, density)
    records = RecordSet.concat(report.records)
    records.validate(mesh.anchors)
    return records, report


def split(records: RecordSet, val_fraction: float, test_fraction: float,
          seed: int) -> tuple[RecordSet, RecordSet, RecordSet]:
    """Seeded shuffle, then floor-sized val/test partitions; train gets the rest."""
    if not (0.0 < val_fraction < 1.0 and 0.0 < test_fraction < 1.0):
        raise ValueError("fractions must lie in (0, 1)")
    if val_fraction + test_fraction >= 1.0:
        raise ValueError("fractions must sum below 1")
    n = len(records)
    n_val = int(n * val_fraction)
    n_test = int(n * test_fraction)
    if n_val == 0 or n_test == 0 or n - n_val - n_test == 0:
        raise ValueError(f"empty partition for {n} records "
                         f"(val={val_fraction}, test={test_fraction})")
    perm = np.random.default_rng(seed).permutation(n)
    val = records.subset(perm[:n_val])
    test = records.subset(perm[n_val:n_val + n_test])
    train = records.subset(perm[n_val + n_test:])
    return train, val, test


# ---------------------------------------------------------------------------
# on-disk format
# ---------------------------------------------------------------------------

def write_dataset(stream, records: RecordSet) -> None:
    rows = np.hstack([records.features, records.targets])
    if not np.all(np.isfinite(rows)):
        raise DatasetFormatError("refusing to write non-finite record payload")
    stream.write(MAGIC)
    stream.write(struct.pack("<IQ", FORMAT_VERSION, len(records)))
    stream.write(np.ascontiguousarray(rows, dtype="<f8").tobytes())


def iter_dataset(stream):
    """Stream (features, targets) batches without loading the whole file.

    The stream must end after the declared records; bytes after them raise
    ``DatasetFormatError`` once the last batch has been read.
    """
    head = stream.read(4)
    if head != MAGIC:
        raise DatasetFormatError("bad magic: not a dataset file")
    raw = stream.read(12)
    if len(raw) != 12:
        raise DatasetFormatError("truncated dataset header")
    version, count = struct.unpack("<IQ", raw)
    if version != FORMAT_VERSION:
        raise DatasetFormatError(f"unsupported dataset format version {version}")
    remaining = count
    row_bytes = 8 * RECORD_DOUBLES
    while remaining > 0:
        take = min(READ_BATCH_RECORDS, remaining)
        data = stream.read(take * row_bytes)
        if len(data) != take * row_bytes:
            raise DatasetFormatError(
                f"truncated dataset: expected {count} records, payload ended early")
        rows = np.frombuffer(data, dtype="<f8").reshape(take, RECORD_DOUBLES)
        if not np.all(np.isfinite(rows)):
            raise DatasetFormatError("dataset payload contains non-finite values")
        yield rows[:, :N_FEATURES].copy(), rows[:, N_FEATURES:].copy()
        remaining -= take
    if stream.read(1):
        raise DatasetFormatError(
            f"trailing bytes after the {count} declared records")


def read_dataset(stream) -> RecordSet:
    return RecordSet.concat([RecordSet(X, Y) for X, Y in iter_dataset(stream)])


def write_dataset_file(path, records: RecordSet) -> None:
    with open(path, "wb") as f:
        write_dataset(f, records)


def read_dataset_file(path) -> RecordSet:
    with open(path, "rb") as f:
        return read_dataset(f)
