"""Synthetic transition datasets: two categorical examples and a gyre flow.

The categorical generators expand fixed count-matrix patterns into pair
records, optionally blurred by modular window noise on both coordinates. The
flow generator integrates a time-periodic double-gyre velocity field over a
box grid and bins noisy start and end points into box categories.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _accel
from .model import CountMatrix, PairDataset, Partition
from .seeding import rng_for

DOMAIN_WIDTH = 2.0
DOMAIN_HEIGHT = 1.0


def pairs_from_counts(counts: CountMatrix) -> PairDataset:
    """Expand a count matrix into records ordered by (input, output)."""
    m, n = counts.shape
    # The counts are stored column by column, rows increasing within each.
    rows, cols = counts.support
    inputs = np.repeat(cols + 1, counts.counts.data)
    outputs = np.repeat(rows + 1, counts.counts.data)
    return PairDataset(inputs=inputs, outputs=outputs, n_inputs=n, n_outputs=m)


def perturb_pairs(dataset: PairDataset, epsilon: int, seed: int = 0) -> PairDataset:
    """Replace each record by one with both coordinates drawn uniformly from
    modular windows of half-width ``epsilon`` around the originals.

    Inputs are perturbed first, then outputs, each independently per record.
    Deterministic per seed; epsilon 0 returns the dataset unchanged.
    """
    epsilon = int(epsilon)
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    if epsilon == 0:
        return dataset
    rng = np.random.default_rng(seed)
    shift_in = rng.integers(-epsilon, epsilon + 1, size=dataset.size)
    shift_out = rng.integers(-epsilon, epsilon + 1, size=dataset.size)
    inputs = (dataset.inputs - 1 + shift_in) % dataset.n_inputs + 1
    outputs = (dataset.outputs - 1 + shift_out) % dataset.n_outputs + 1
    return PairDataset(
        inputs=inputs,
        outputs=outputs,
        n_inputs=dataset.n_inputs,
        n_outputs=dataset.n_outputs,
    )


def three_coherent_counts() -> CountMatrix:
    """100 x 100 block pattern with two mixing sets and one isolated set."""
    counts = np.zeros((100, 100), dtype=np.int64)
    counts[:25, :25] = 8
    counts[25:50, 25:50] = 8
    counts[:25, 25:50] = 2
    counts[25:50, :25] = 2
    counts[50:, 50:] = 5
    return CountMatrix(counts=counts, total=int(counts.sum()))


def gen_three_coherent(epsilon: int = 0, seed: int = 0) -> tuple[PairDataset, Partition]:
    """Three-set example: blocks {1..25}, {26..50}, {51..100}; 25000 records."""
    dataset = perturb_pairs(pairs_from_counts(three_coherent_counts()), epsilon, seed)
    labels = np.repeat([1, 2, 3], [25, 25, 50])
    return dataset, Partition(labels=labels, n_clusters=3)


def interval_map_counts() -> CountMatrix:
    """90 x 90 pattern of a discretized expanding interval map.

    Input category 30*b + c + 1 (block b in 0..2, offset c in 0..29) sends 30
    records to each of the outputs 30*((b+1) % 3) + ((3*c + i) % 30) + 1 for
    i in 0, 1, 2.
    """
    counts = np.zeros((90, 90), dtype=np.int64)
    for b in range(3):
        for c in range(30):
            j = 30 * b + c
            for i in range(3):
                out = 30 * ((b + 1) % 3) + ((3 * c + i) % 30)
                counts[out, j] += 30
    return CountMatrix(counts=counts, total=int(counts.sum()))


def gen_interval_map(epsilon: int = 0, seed: int = 0) -> tuple[PairDataset, Partition]:
    """Interval-map example: blocks of 30 cycle into each other; 8100 records."""
    dataset = perturb_pairs(pairs_from_counts(interval_map_counts()), epsilon, seed)
    labels = np.repeat([1, 2, 3], 30)
    return dataset, Partition(labels=labels, n_clusters=3)


@dataclass(frozen=True)
class GyreConfig:
    """Double-gyre integration and sampling settings.

    The flow lives on [0, 2] x [0, 1]. ``amplitude`` scales the velocity,
    ``delta`` the gyre asymmetry, ``omega`` the forcing frequency; omega 0
    freezes the field. Points integrate from ``t_start`` to ``t_end`` in steps
    of ``step``; ``rho`` is the half-width of the uniform labeling noise.
    """

    amplitude: float = 0.25
    delta: float = 0.25
    omega: float = 2.0 * math.pi
    t_start: float = 0.0
    t_end: float = 40.0
    step: float = 0.01
    nx: int = 64
    ny: int = 32
    points_per_box: int = 100
    rho: float = 1.0 / 32.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.nx < 1 or self.ny < 1 or self.points_per_box < 1:
            raise ValueError("nx, ny, and points_per_box must be positive")
        if self.step <= 0.0:
            raise ValueError("step must be positive")
        if self.t_end < self.t_start:
            raise ValueError("t_end must not precede t_start")
        ratio = (self.t_end - self.t_start) / self.step
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, abs(ratio)):
            raise ValueError("t_end - t_start must be an integer multiple of step")
        if not 0.0 <= self.rho <= min(DOMAIN_WIDTH, DOMAIN_HEIGHT):
            raise ValueError("rho must lie in [0, min domain extent]")
        if self.amplitude < 0.0 or self.delta < 0.0:
            raise ValueError("amplitude and delta must be nonnegative")

    @property
    def n_steps(self) -> int:
        return int(round((self.t_end - self.t_start) / self.step))

    @property
    def n_boxes(self) -> int:
        return self.nx * self.ny

    @property
    def box_width(self) -> float:
        return DOMAIN_WIDTH / self.nx

    @property
    def box_height(self) -> float:
        return DOMAIN_HEIGHT / self.ny

    @property
    def sample_size(self) -> int:
        return self.n_boxes * self.points_per_box


def stream_function(x, y, t: float, config: GyreConfig = GyreConfig()):
    """Scalar stream function of the double gyre; the flow follows its contours."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sway = config.delta * math.sin(config.omega * t)
    warp = sway * x * x + (1.0 - 2.0 * sway) * x
    return config.amplitude * np.sin(math.pi * warp) * np.sin(math.pi * y)


def gyre_velocity(x, y, t: float, config: GyreConfig = GyreConfig()):
    """Velocity components (dx/dt, dy/dt) at time ``t``."""
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    return _accel.velocity_arrays(
        x, y, t, config.amplitude, config.delta, config.omega
    )


def advect(x, y, config: GyreConfig = GyreConfig()):
    """Integrate points through the flow with fixed-step fourth-order stages."""
    x = np.ascontiguousarray(np.atleast_1d(np.asarray(x, dtype=np.float64)))
    y = np.ascontiguousarray(np.atleast_1d(np.asarray(y, dtype=np.float64)))
    return _accel.advect_rk4(
        x, y, config.t_start, config.n_steps, config.step,
        config.amplitude, config.delta, config.omega,
    )


def _reflect(values: np.ndarray, low: float, high: float) -> np.ndarray:
    """Mirror values into [low, high]; a single reflection suffices because
    the noise half-width never exceeds the domain extent."""
    values = np.where(values < low, low + (low - values), values)
    return np.where(values > high, high - (values - high), values)


def _boxes(x: np.ndarray, y: np.ndarray, config: GyreConfig) -> np.ndarray:
    ix = np.clip((x / config.box_width).astype(np.int64), 0, config.nx - 1)
    iy = np.clip((y / config.box_height).astype(np.int64), 0, config.ny - 1)
    return ix + config.nx * iy + 1


def gen_double_gyre(config: GyreConfig = GyreConfig()) -> tuple[PairDataset, dict]:
    """Sample box-to-box transitions of the double-gyre flow.

    Each box seeds ``points_per_box`` uniform points from its own random
    stream (mixed from the config seed and the box index, so the result does
    not depend on evaluation order). Seeds integrate through the flow
    unperturbed; labeling noise lands on a copy of the start point and on the
    end point, with reflection at the domain walls. Box indices are 1-based,
    x-major. Metadata reports the config, integration diagnostics, and the
    coordinate ranges of the labeled points.
    """
    ppb = config.points_per_box
    total = config.sample_size
    uniforms = np.empty((total, 6))
    for box in range(config.n_boxes):
        uniforms[box * ppb : (box + 1) * ppb] = rng_for(config.seed, box).random((ppb, 6))
    ix = np.repeat(np.arange(config.n_boxes) % config.nx, ppb)
    iy = np.repeat(np.arange(config.n_boxes) // config.nx, ppb)
    x_start = (ix + uniforms[:, 0]) * config.box_width
    y_start = (iy + uniforms[:, 1]) * config.box_height

    x_end, y_end = advect(x_start, y_start, config)
    drift = max(
        0.0 - float(x_end.min()), float(x_end.max()) - DOMAIN_WIDTH,
        0.0 - float(y_end.min()), float(y_end.max()) - DOMAIN_HEIGHT, 0.0,
    )
    clamped = int(
        np.sum((x_end < -1e-9) | (x_end > DOMAIN_WIDTH + 1e-9)
               | (y_end < -1e-9) | (y_end > DOMAIN_HEIGHT + 1e-9))
    )
    x_end = np.clip(x_end, 0.0, DOMAIN_WIDTH)
    y_end = np.clip(y_end, 0.0, DOMAIN_HEIGHT)

    x_in = _reflect(x_start + (2.0 * uniforms[:, 2] - 1.0) * config.rho, 0.0, DOMAIN_WIDTH)
    y_in = _reflect(y_start + (2.0 * uniforms[:, 3] - 1.0) * config.rho, 0.0, DOMAIN_HEIGHT)
    x_out = _reflect(x_end + (2.0 * uniforms[:, 4] - 1.0) * config.rho, 0.0, DOMAIN_WIDTH)
    y_out = _reflect(y_end + (2.0 * uniforms[:, 5] - 1.0) * config.rho, 0.0, DOMAIN_HEIGHT)

    dataset = PairDataset(
        inputs=_boxes(x_in, y_in, config),
        outputs=_boxes(x_out, y_out, config),
        n_inputs=config.n_boxes,
        n_outputs=config.n_boxes,
    )
    metadata = {
        "example": "double-gyre",
        "amplitude": config.amplitude,
        "delta": config.delta,
        "omega": config.omega,
        "t_start": config.t_start,
        "t_end": config.t_end,
        "step": config.step,
        "nx": config.nx,
        "ny": config.ny,
        "points_per_box": config.points_per_box,
        "rho": config.rho,
        "seed": config.seed,
        "sample_size": total,
        "clamped_endpoints": clamped,
        "max_boundary_drift": drift,
        "input_range": [float(x_in.min()), float(x_in.max()),
                        float(y_in.min()), float(y_in.max())],
        "output_range": [float(x_out.min()), float(x_out.max()),
                         float(y_out.min()), float(y_out.max())],
    }
    return dataset, metadata
