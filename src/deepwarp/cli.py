"""Command-line pipeline: data generation, training, simulation, comparison
and inspection.

Configuration is a flat ``key = value`` text file with ``include = path``
support; command-line flags override file values, and the effective
configuration is echoed as ``#`` comment lines into every output artifact.
Output files are written under a ``.partial`` suffix and renamed on success.
Each subcommand's flags are declared once, in ``build_parser``, which hands
the list to ``RunConfig.from_args``.

Exit codes: 0 success, 1 validation error, 2 numerical failure, 3 I/O error
(any ``OSError``, also the ``ChildProcessError`` of a dead pose worker).
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .dataset import (DatasetFormatError, RampConfig, build_dataset,
                      read_dataset_file, sample_directions, split, write_dataset)
from .dynamics import (NEWMARK_BETA, ConvergenceError, IntegrationScheme,
                       NotPositiveDefiniteError, RayleighDamping, write_trajectory_csv)
from .features import FEATURE_ORDER, N_FEATURES, ForceField, geodesic_all, static_features
from .material import InvertedElementError, MaterialModel, MaterialParams
from .mesh import (MeshError, MeshFormatError, load_mesh_files, load_partition,
                   normalize_to_unit_sphere, tet_volumes, text_lines)
from .net import (Activation, AdamConfig, MlpSpec, NetworkFormatError,
                  TrainingDivergedError, load_network_file, mse_loss, save_network, train)
from .substructure import build_domain_graph, graphs_isomorphic
from .warper import METHODS, compare_methods, simulate_methods

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3

_NUMERICAL_ERRORS = (ConvergenceError, NotPositiveDefiniteError,
                     InvertedElementError, TrainingDivergedError)
_VALIDATION_ERRORS = (MeshError, NetworkFormatError, DatasetFormatError, ValueError)


class ConfigError(ValueError):
    pass


_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def parse_config_file(path, seen=frozenset()) -> dict[str, str]:
    """The values of a config file and its includes; ``seen`` holds the real
    paths of the chain of files that include this one."""
    real = os.path.realpath(path)
    if real in seen:
        raise ConfigError(f"config include cycle at {path}")
    try:
        lines = text_lines(path)
    except MeshFormatError as exc:
        raise ConfigError(str(exc)) from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path} line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "include":
            inc = value if os.path.isabs(value) else os.path.join(os.path.dirname(path), value)
            values.update(parse_config_file(inc, seen | {real}))
        else:
            values[key] = value
    return values


class RunConfig:
    """Flat key/value store with typed getters; flags override file values."""

    def __init__(self, values: dict[str, str]):
        self.values = dict(values)

    @classmethod
    def from_args(cls, args: argparse.Namespace) -> "RunConfig":
        """File values overridden by the subcommand's flags, which
        ``build_parser`` records in ``args.flag_keys``."""
        values: dict[str, str] = {}
        if getattr(args, "config", None):
            values.update(parse_config_file(args.config))
        for key in args.flag_keys:
            flag = getattr(args, key.replace("-", "_"), None)
            if flag is not None:
                values[key] = str(flag)
        if getattr(args, "seed", None) is not None:
            values["seed"] = str(args.seed)
        return cls(values)

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key) -> str:
        if key not in self.values:
            raise ConfigError(f"missing required configuration key '{key}'")
        return self.values[key]

    def getfloat(self, key, default=None) -> float:
        raw = self.values.get(key)
        if raw is None:
            if default is None:
                raise ConfigError(f"missing required configuration key '{key}'")
            return float(default)
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"configuration key '{key}' is not a number: {raw!r}")

    def getint(self, key, default=None) -> int:
        value = self.getfloat(key, default)
        if not value.is_integer():
            raise ConfigError(f"configuration key '{key}' is not an integer: "
                              f"{self.values.get(key)!r}")
        return int(value)

    def getbool(self, key, default=False) -> bool:
        raw = self.values.get(key)
        if raw is None:
            return default
        word = raw.strip().lower()
        if word not in _BOOLEANS:
            raise ConfigError(f"configuration key '{key}' is not a boolean: {raw!r}; "
                              f"expected one of {sorted(_BOOLEANS)}")
        return _BOOLEANS[word]

    def getvec(self, key, default=None) -> np.ndarray:
        raw = self.values.get(key, default)
        if raw is None:
            raise ConfigError(f"missing required configuration key '{key}'")
        try:
            return np.array([float(v) for v in str(raw).replace(",", " ").split()])
        except ValueError:
            raise ConfigError(f"configuration key '{key}' is not a vector: {raw!r}")

    def header(self, command: str) -> str:
        """The ``#`` comment block that opens every output file."""
        lines = [f"deepwarp {command} (v{__version__})"]
        lines += [f"{key} = {self.values[key]}" for key in sorted(self.values)]
        return "".join(f"# {line}\n" for line in lines)


def _load_mesh(cfg: RunConfig, normalize: bool = False):
    mesh = load_mesh_files(cfg.require("nodes"), cfg.require("elements"),
                           cfg.get("anchors"))
    if normalize or cfg.getbool("normalize"):
        mesh = normalize_to_unit_sphere(mesh)
    return mesh


def _check_anchors(mesh, command: str) -> None:
    """Reject a mesh without anchors, which the solvers cannot pin, and one
    whose nodes are all anchored, which leaves no free DOF to solve for."""
    if not mesh.anchors:
        raise ConfigError(f"{command} requires anchors")
    if len(mesh.anchors) == mesh.n_nodes:
        raise ConfigError(f"{command} requires a free node; all {mesh.n_nodes} nodes "
                          f"are anchors")


def _material(cfg: RunConfig) -> MaterialParams:
    name = cfg.get("material", "neohookean").strip().lower()
    try:
        model = MaterialModel(name)
    except ValueError:
        raise ConfigError(f"unknown material model {name!r}; expected one of "
                          f"{[m.value for m in MaterialModel]}")
    return MaterialParams(model, cfg.getfloat("youngs", 1e4),
                          cfg.getfloat("poisson", 0.45))


def _field(cfg: RunConfig) -> ForceField:
    kind = cfg.get("field", "directional").strip().lower()
    magnitude = cfg.getfloat("field_magnitude", 1.0)
    if kind == "directional":
        return ForceField.directional(cfg.getvec("field_direction", "0 -1 0"),
                                      magnitude)
    if kind == "circular":
        return ForceField.circular(cfg.getvec("field_axis_point", "0 0 0"),
                                   cfg.getvec("field_axis_dir", "1 0 0"), magnitude)
    raise ConfigError(f"unknown field kind {kind!r}")


def _scheme(cfg: RunConfig) -> IntegrationScheme:
    name = cfg.get("scheme", "newmark").strip().lower()
    try:
        return IntegrationScheme(name)
    except ValueError:
        raise ConfigError(f"unknown integration scheme {name!r}")


def _scenario(cfg: RunConfig, command: str, steps: int, dt: float, kept: int) -> dict:
    """The anchored mesh, material, load and time stepping of ``simulate`` and
    ``compare``, keyed by ``simulate_methods`` parameter names; ``steps`` and
    ``dt`` are the command's defaults. ``simulate_methods`` keeps ``kept``
    trajectories of 3n doubles per step and copies each into an array, so
    twice that must fit in physical memory."""
    mesh = _load_mesh(cfg)
    _check_anchors(mesh, command)
    steps, dt = cfg.getint("steps", steps), cfg.getfloat("dt", dt)
    if steps < 1:
        raise ConfigError(f"steps must be at least 1; got {steps}")
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if 2 * kept * steps * 3 * mesh.n_nodes * 8 > memory:
        raise ConfigError(f"{kept} x 2 copies of {float(steps):.4g} steps of "
                          f"{3 * mesh.n_nodes} doubles exceed the {memory} bytes of "
                          f"physical memory")
    if not (np.isfinite(dt) and dt > 0.0 and NEWMARK_BETA * dt * dt > 0.0
            and np.isfinite(1.0 / (NEWMARK_BETA * dt * dt))):
        raise ConfigError(f"dt must be finite and positive, with 1/(beta dt^2) finite; "
                          f"got {dt}")
    return dict(mesh=mesh, params=_material(cfg), field_descr=_field(cfg),
                steps=steps, dt=dt, scheme=_scheme(cfg),
                damping=RayleighDamping(cfg.getfloat("damping_alpha", 0.0),
                                        cfg.getfloat("damping_beta", 0.0)),
                density=cfg.getfloat("density", 1000.0))


class _AtomicFile:
    """Write to `<path>.partial`, rename to `<path>` only on success."""

    def __init__(self, path, binary=False):
        self.path = str(path)
        self.partial = self.path + ".partial"
        self.mode = "wb" if binary else "w"

    def __enter__(self):
        self.handle = open(self.partial, self.mode)
        return self.handle

    def __exit__(self, exc_type, exc, tb):
        self.handle.close()
        if exc_type is None:
            os.replace(self.partial, self.path)
        else:
            os.unlink(self.partial)
        return False


def _tracked_nodes(cfg: RunConfig, mesh, default: str) -> list[int]:
    track = [int(v) for v in str(cfg.get("track", default)).replace(",", " ").split()]
    for node in track:
        if not 0 <= node < mesh.n_nodes:
            raise ConfigError(f"tracked node {node} out of range")
    return track


def _print(args, *message):
    if not getattr(args, "quiet", False):
        print(*message)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_info(args) -> int:
    cfg = RunConfig.from_args(args)
    print(f"deepwarp {__version__}")
    if cfg.get("nodes"):
        mesh = _load_mesh(cfg)
        vols = tet_volumes(mesh)
        print(f"mesh: {mesh.n_nodes} nodes, {mesh.n_tets} tets, "
              f"{len(mesh.anchors)} anchors, volume {vols.sum():.6g}")
    return EXIT_OK


def cmd_features(args) -> int:
    cfg = RunConfig.from_args(args)
    mesh = _load_mesh(cfg)
    _check_anchors(mesh, "features")
    field = _field(cfg)
    sf = static_features(mesh, field, geodesic_all(mesh))
    out = cfg.require("out")
    with _AtomicFile(out) as f:
        f.write(cfg.header("features"))
        f.write("node,g,p,d\n")
        for i in range(mesh.n_nodes):
            f.write(f"{i},{sf.g[i]:.10g},{sf.p[i]:.10g},{sf.d[i]:.10g}\n")
    _print(args, f"wrote per-node features for {mesh.n_nodes} nodes to {out}")
    return EXIT_OK


def cmd_gen_data(args) -> int:
    cfg = RunConfig.from_args(args)
    t0 = time.time()
    mesh = _load_mesh(cfg, normalize=True)
    _check_anchors(mesh, "gen-data")
    params = _material(cfg)
    if params.model is MaterialModel.LINEAR:
        raise ConfigError("training data requires a nonlinear material model")
    density = cfg.getfloat("density", 1000.0)

    dirs = sample_directions(cfg.getint("n_alpha", 4), cfg.getint("n_beta", 4))
    unique: list[np.ndarray] = []
    for d in dirs:
        if not any(np.allclose(d, u) for u in unique):
            unique.append(d)
    fields = [ForceField.directional(d, 1.0) for d in unique]
    if cfg.getbool("include_circular"):
        span = mesh.nodes.max(axis=0) - mesh.nodes.min(axis=0)
        axis = np.zeros(3)
        axis[int(np.argmax(span))] = 1.0
        anchor_centroid = mesh.nodes[mesh.anchor_array()].mean(axis=0)
        fields.append(ForceField.circular(anchor_centroid, axis, 1.0))

    ramp = RampConfig(start=cfg.getfloat("ramp_start", 0.05),
                      factor=cfg.getfloat("ramp_factor", 1.3),
                      poses_per_magnitude=cfg.getint("ramp_poses", 10),
                      cap=cfg.getfloat("ramp_cap", 2.0))
    records, report = build_dataset(mesh, params, fields, ramp, density)
    out = cfg.require("out")
    with _AtomicFile(out, binary=True) as f:
        write_dataset(f, records)

    report_path = cfg.get("report", out + ".report.txt")
    feat = records.features
    with _AtomicFile(report_path) as f:
        f.write(cfg.header("gen-data"))
        f.write(f"records {len(records)}\n")
        f.write(f"poses_emitted {report.emitted}\n")
        f.write(f"poses_attempted {report.attempted}\n")
        f.write(f"dropped_nonconverged {report.dropped_nonconverged}\n")
        f.write(f"dropped_capped {report.dropped_capped}\n")
        f.write(f"fields {len(fields)}\n")
        for j, name in enumerate(FEATURE_ORDER):
            f.write(f"feature_{name}_range {feat[:, j].min():.6g} "
                    f"{feat[:, j].max():.6g}\n")
        f.write(f"wall_time_s {time.time() - t0:.1f}\n")
    _print(args, f"wrote {len(records)} records from {report.emitted} poses to {out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = RunConfig.from_args(args)
    records = read_dataset_file(cfg.require("dataset"))
    hidden = [int(v) for v in str(cfg.get("layers", "16,16")).replace(",", " ").split()]
    spec = MlpSpec(tuple([N_FEATURES] + hidden + [3]),
                   activation=Activation(cfg.get("activation", "tanh")))
    seed = cfg.getint("seed", 0)
    tr, va, te = split(records, cfg.getfloat("val_fraction", 0.01),
                       cfg.getfloat("test_fraction", 1.0 / 8.0), seed)
    config = AdamConfig(lr=cfg.getfloat("lr", 0.001),
                        batch=cfg.getint("batch", 1024),
                        epochs=cfg.getint("epochs", 10), seed=seed)
    result = train(spec, tr.features, tr.targets, va.features, va.targets, config)

    out = cfg.require("out")
    with _AtomicFile(out, binary=True) as f:
        save_network(f, result.best_network)
    loss_csv = cfg.get("loss_csv", out + ".loss.csv")
    with _AtomicFile(loss_csv) as f:
        f.write(cfg.header("train"))
        f.write("epoch,train_mse,val_mse\n")
        for epoch, (tr_mse, va_mse) in enumerate(result.history):
            f.write(f"{epoch},{tr_mse:.10g},{va_mse:.10g}\n")
    test_mse = mse_loss(result.best_network.weights,
                        result.best_network.scaler.transform(te.features),
                        te.targets, spec.activation)
    _print(args, f"trained {spec.layer_sizes} net: "
                 f"val {result.history[0][1]:.4g} -> {result.history[-1][1]:.4g}, "
                 f"test {test_mse:.4g}; wrote {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = RunConfig.from_args(args)
    method = cfg.get("method", "deepwarp").strip().lower()
    if method not in METHODS:
        raise ConfigError(f"unknown method {method!r}; expected one of {METHODS}")
    net = None
    if method == "deepwarp":
        net = load_network_file(cfg.require("net"))
    elif cfg.get("net"):
        _print(args, f"note: --net is ignored for method '{method}'")
    run = _scenario(cfg, "simulate", steps=100, dt=1.0 / 60.0, kept=1)
    mesh = run["mesh"]
    # by default the lowest-index unanchored node
    first_free = next(i for i in range(mesh.n_nodes) if i not in mesh.anchors)
    track = _tracked_nodes(cfg, mesh, str(first_free))
    trajectories, note = simulate_methods(net=net, methods=(method,), **run)
    if note is not None:
        raise ConvergenceError(note)

    out = cfg.require("out")
    steps, dt = run["steps"], run["dt"]
    times = dt * np.arange(1, steps + 1)
    with _AtomicFile(out) as f:
        f.write(cfg.header("simulate"))
        write_trajectory_csv(f, times, track, trajectories[method])
    _print(args, f"simulated {steps} steps with method '{method}'; wrote {out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = RunConfig.from_args(args)
    methods = tuple(str(cfg.get("methods", "linear,mw,rsw,deepwarp"))
                    .replace(",", " ").split())
    for m in methods:
        if m not in METHODS or m == "groundtruth":
            raise ConfigError(f"unknown comparison method {m!r}")
    net = load_network_file(cfg.require("net")) if "deepwarp" in methods else None
    run = _scenario(cfg, "compare", steps=50, dt=1.0 / 50.0, kept=len(methods) + 1)
    track = _tracked_nodes(cfg, run["mesh"], "") or [None]
    if len(track) > 1:
        raise ConfigError(f"compare tracks one node; got {len(track)}")
    report = compare_methods(net=net, tracked_node=track[0], methods=methods, **run)
    out = cfg.require("out")
    with _AtomicFile(out) as f:
        f.write(cfg.header("compare"))
        f.write("method,step,rel_l2_error\n")
        for method, step, err in report.rows:
            f.write(f"{method},{step},{err:.10g}\n")
    _print(args, f"# tracked node {report.tracked_node}")
    for s in report.summaries:
        _print(args, f"{s.method}: mean {s.mean_rel_l2:.4g} max {s.max_rel_l2:.4g} "
                     f"dominant_freq {s.dominant_frequency:.4g} Hz")
    if not report.completed:
        _print(args, f"warning: {report.note}")
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_partition_graph(args) -> int:
    cfg = RunConfig.from_args(args)
    mesh = _load_mesh(cfg)
    part = load_partition(text_lines(cfg.require("partition")), mesh)
    graph = build_domain_graph(mesh, part)
    print(f"domains {graph.n_vertices}")
    for a, b in sorted(graph.edges):
        print(f"edge {a} {b}")
    if cfg.get("partition2"):
        mesh2 = load_mesh_files(cfg.require("nodes2"), cfg.require("elements2"))
        part2 = load_partition(text_lines(cfg.require("partition2")), mesh2)
        graph2 = build_domain_graph(mesh2, part2)
        ok, mapping = graphs_isomorphic(graph, graph2)
        print(f"isomorphic {str(ok).lower()}")
        if ok:
            for a in sorted(mapping):
                print(f"map {a} -> {mapping[a]}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            sys.stderr.write(f"error: {message}\n")
            raise SystemExit(EXIT_VALIDATION)

    parser = Parser(prog="deepwarp",
                    description="learned warping of pre-factorized linear elasticity")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, flags):
        p = sub.add_parser(name)
        p.add_argument("--config")
        p.add_argument("--seed", type=int)
        p.add_argument("--quiet", action="store_true")
        for flag in flags:
            p.add_argument(f"--{flag.replace('_', '-')}")
        p.set_defaults(func=func, flag_keys=flags)
        return p

    add("info", cmd_info, ["nodes", "elements", "anchors"])
    add("features", cmd_features,
        ["nodes", "elements", "anchors", "field", "field_direction",
         "field_magnitude", "field_axis_point", "field_axis_dir", "out"])
    add("gen-data", cmd_gen_data,
        ["nodes", "elements", "anchors", "material", "youngs", "poisson",
         "density", "out", "report", "ramp_start", "ramp_factor", "ramp_poses",
         "ramp_cap", "n_alpha", "n_beta", "include_circular"])
    add("train", cmd_train,
        ["dataset", "out", "layers", "epochs", "batch", "lr", "val_fraction",
         "test_fraction", "loss_csv", "activation"])
    scenario = ["nodes", "elements", "anchors", "material", "youngs", "poisson",
                "density", "net", "steps", "dt", "track", "out", "scheme",
                "damping_alpha", "damping_beta", "field", "field_direction",
                "field_magnitude", "field_axis_point", "field_axis_dir"]
    add("simulate", cmd_simulate, ["method"] + scenario)
    add("compare", cmd_compare, ["methods"] + scenario)
    add("partition-graph", cmd_partition_graph,
        ["nodes", "elements", "anchors", "partition", "nodes2", "elements2",
         "partition2"])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _VALIDATION_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
