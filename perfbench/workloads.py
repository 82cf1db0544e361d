"""Benchmark workloads: seeded interval boxes written as lcpbox input files.

Each workload is a list of boxes (midpoint, radius) plus the extra
``lcpbox check`` arguments it runs with. The same seed always gives the
same boxes, bit for bit.

Each workload draws a fixed base population and lets the seed pick, per
box, a permutation similarity P A P^T, and the order of the boxes. Every
strong class lcpbox decides is invariant under permutation similarity, so
every seed keeps the same mix of holding and failing verdicts and nearly
the same work, while every input file differs. Fresh random boxes per seed
would move the work of a pass far more than the program's own changes:
about 2% of random 3x3 boxes hold semimonotonicity and each costs a full
512-vertex walk with LPs, so the work of a 500-box pass moves by 19%
(quartile distance over median) from seed to seed; and the LPs a strongly
H box needs depend on the sign pattern of its blocks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Criterion 8 of the acceptance suite draws its 500 boxes from this seed.
CRITERION_8_SEED = 999
SAMPLED_BASE_SEED = 4004
GENERAL_BASE_SEED = 5005

# The five properties ``lcpbox check`` decides by default, in its order.
PROPERTIES = ("semimonotone", "column-sufficient", "r", "r0",
              "principally-nondegenerate")

# (dimension, count) of the general workload; 100 boxes in all.
GENERAL_MIX = ((5, 75), (6, 20), (7, 5))


@dataclass(frozen=True)
class Box:
    midpoint: np.ndarray
    radius: np.ndarray

    @property
    def n(self) -> int:
        return self.midpoint.shape[0]

    @property
    def lower(self) -> np.ndarray:
        return self.midpoint - self.radius

    @property
    def upper(self) -> np.ndarray:
        return self.midpoint + self.radius


@dataclass(frozen=True)
class Workload:
    name: str
    boxes: list[Box]
    oracle_budget: int | None
    # True when the inputs guarantee that every verdict holds.
    all_hold: bool = False

    def cli_args(self, path: Path) -> list[str]:
        args = ["check", "--file", str(path), "--format", "json"]
        if self.oracle_budget is not None:
            args += ["--oracle-budget", str(self.oracle_budget)]
        return args


def _uniform_boxes(seed: int, count: int, n: int) -> list[Box]:
    """Criterion 8's distribution: midpoint U(-2, 2), radius U(0, 1)."""
    rng = np.random.default_rng(seed)
    boxes = []
    for _ in range(count):
        mid = rng.uniform(-2.0, 2.0, (n, n))
        rad = rng.uniform(0.0, 1.0, (n, n))
        boxes.append(Box(mid, rad))
    return boxes


def _permuted(base: list[Box], seed: int) -> list[Box]:
    """A seeded permutation similarity of every box, in seeded order."""
    rng = np.random.default_rng(seed)
    out = []
    for box in base:
        p = rng.permutation(box.n)
        out.append(Box(box.midpoint[np.ix_(p, p)], box.radius[np.ix_(p, p)]))
    order = rng.permutation(len(out))
    return [out[i] for i in order]


def _strongly_h_box(rng: np.random.Generator, n: int) -> Box:
    """A box whose comparison matrix is strictly diagonally dominant with a
    positive lower diagonal, and whose midpoint has entries (1,2) > 0 and
    (2,1) < 0, so no sign scaling turns it into a Z-matrix and no fast path
    of lcpbox applies."""
    mid = rng.uniform(-1.0, 1.0, (n, n))
    rad = rng.uniform(0.0, 0.5, (n, n))
    mid[0, 1] = abs(mid[0, 1]) + 0.1
    mid[1, 0] = -abs(mid[1, 0]) - 0.1
    reach = np.abs(mid) + rad
    np.fill_diagonal(reach, 0.0)
    diag_rad = rng.uniform(0.0, 0.1, n)
    margin = rng.uniform(1.2, 2.0, n)
    np.fill_diagonal(rad, diag_rad)
    np.fill_diagonal(mid, diag_rad + margin * reach.sum(axis=1))
    return Box(mid, rad)


def _general_boxes(seed: int) -> list[Box]:
    rng = np.random.default_rng(seed)
    return [_strongly_h_box(rng, n) for n, count in GENERAL_MIX
            for _ in range(count)]


def make_workload(name: str, seed: int) -> Workload:
    if name == "crossval-3x3":
        base = _uniform_boxes(CRITERION_8_SEED, 500, 3)
        return Workload(name, _permuted(base, seed), oracle_budget=2000)
    if name == "sampled-4x4":
        base = _uniform_boxes(SAMPLED_BASE_SEED, 100, 4)
        # 256 < 2^16 vertices of a 4x4 box: the falsifier samples.
        return Workload(name, _permuted(base, seed), oracle_budget=256)
    if name == "general-n5to7":
        base = _general_boxes(GENERAL_BASE_SEED)
        return Workload(name, _permuted(base, seed), oracle_budget=None,
                        all_hold=True)
    raise ValueError(f"unknown workload {name!r}; choose from "
                     + ", ".join(WORKLOAD_NAMES))


WORKLOAD_NAMES = ("crossval-3x3", "general-n5to7", "sampled-4x4")


def write_inputs(workload: Workload, directory: Path) -> list[Path]:
    """One lcpbox input file per box. JSON floats round-trip exactly, so the
    program parses the very matrices the checks use."""
    paths = []
    for k, box in enumerate(workload.boxes):
        path = directory / f"box_{k:04d}.json"
        path.write_text(json.dumps({
            "n": box.n,
            "midpoint": box.midpoint.tolist(),
            "radius": box.radius.tolist(),
        }))
        paths.append(path)
    return paths
