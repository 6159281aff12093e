"""Regenerate the committed reference network ``reference.dwnn``.

The benchmark's runtime and comparison workloads load this network instead
of training one, so their numbers do not move when data generation changes
within its tolerances. The network is the README pipeline's output:

    deepwarp gen-data --config configs/reference.cfg  (README beam, 16x5x5)
    deepwarp train    --config configs/reference.cfg --epochs 10

Run from the repository root (about 8 minutes on one core):

    python3 bench/fixtures/make_reference_net.py WORKDIR

Intermediate files go to WORKDIR; the network is written next to this file.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

from deepwarp.cli import main  # noqa: E402
from deepwarp.mesh import write_mesh_files  # noqa: E402
from deepwarp.meshgen import beam  # noqa: E402


def run(workdir: str) -> int:
    os.makedirs(workdir, exist_ok=True)
    stem = os.path.join(workdir, "beam")
    mesh = beam(16, 5, 5, lengths=(2.0, 0.8, 0.8))
    with open(stem + ".node", "w") as n, open(stem + ".ele", "w") as e, \
            open(stem + ".anchor", "w") as a:
        write_mesh_files(mesh, n, e, a)
    config = os.path.join(ROOT, "configs", "reference.cfg")
    code = main(["gen-data", "--config", config, "--nodes", stem + ".node",
                 "--elements", stem + ".ele", "--anchors", stem + ".anchor",
                 "--out", stem + ".dwtp"])
    if code:
        return code
    return main(["train", "--config", config, "--dataset", stem + ".dwtp",
                 "--epochs", "10", "--loss-csv", stem + ".loss.csv",
                 "--out", os.path.join(HERE, "reference.dwnn")])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(run(sys.argv[1]))
