import math

import numpy as np
import pytest

from cohsets import _accel
from cohsets.generators import (
    DOMAIN_HEIGHT,
    DOMAIN_WIDTH,
    MAX_POINT_STEPS,
    MAX_SAMPLE_POINTS,
    GyreConfig,
    advect,
    gen_double_gyre,
    gen_interval_map,
    gen_three_coherent,
    interval_map_counts,
    pairs_from_counts,
    perturb_pairs,
    three_coherent_counts,
)
from cohsets.model import ingest_pairs
from cohsets.seeding import rng_for
from tests.conftest import random_counts
from tests.dense_reference import dense


def velocity(x, y, t, config):
    """Velocity components (dx/dt, dy/dt) of the configured flow at time ``t``."""
    return _accel.velocity_arrays(x, y, t, config.amplitude, config.delta, config.omega)


def stream_function(x, y, t, config):
    """Scalar stream function of the double gyre; the flow follows its contours."""
    sway = config.delta * math.sin(config.omega * t)
    warp = sway * x * x + (1.0 - 2.0 * sway) * x
    return config.amplitude * np.sin(math.pi * warp) * np.sin(math.pi * y)


def test_three_coherent_counts_oracle():
    expected = np.zeros((100, 100), dtype=np.int64)
    for i in range(100):
        for j in range(100):
            if i < 25 and j < 25 or 25 <= i < 50 and 25 <= j < 50:
                expected[i, j] = 8
            elif i < 50 and j < 50:
                expected[i, j] = 2
            elif i >= 50 and j >= 50:
                expected[i, j] = 5
    counts = three_coherent_counts()
    assert np.array_equal(dense(counts), expected)
    assert counts.total == 25000
    assert (dense(counts).sum(axis=0) == 250).all()


def test_interval_map_counts_oracle():
    expected = np.zeros((90, 90), dtype=np.int64)
    for column in range(90):
        block, offset = divmod(column, 30)
        for i in range(3):
            row = 30 * ((block + 1) % 3) + (3 * offset + i) % 30
            expected[row, column] = 30
    counts = interval_map_counts()
    assert np.array_equal(dense(counts), expected)
    assert counts.total == 8100
    assert (dense(counts).sum(axis=0) == 90).all()
    assert (dense(counts).sum(axis=1) == 90).all()
    assert ((dense(counts) > 0).sum(axis=0) == 3).all()


def test_pairs_from_counts_small():
    from cohsets.model import CountMatrix

    counts = CountMatrix(counts=np.array([[2, 0], [1, 3]]), total=6)
    dataset = pairs_from_counts(
        ingest_pairs(pairs_from_counts(counts))  # also a round-trip through ingest
    )
    assert dataset.inputs.tolist() == [1, 1, 1, 2, 2, 2]
    assert dataset.outputs.tolist() == [1, 1, 2, 2, 2, 2]


def test_pairs_from_counts_roundtrip_random():
    rng = np.random.default_rng(137)
    for _ in range(30):
        counts = random_counts(rng, rng.integers(2, 9), rng.integers(2, 9), density=0.7)
        back = ingest_pairs(pairs_from_counts(counts))
        assert np.array_equal(dense(back), dense(counts))
        assert back.total == counts.total


def test_examples_expand_to_their_counts():
    for generate, build in (
        (gen_three_coherent, three_coherent_counts),
        (gen_interval_map, interval_map_counts),
    ):
        dataset, partition = generate()
        assert np.array_equal(dense(ingest_pairs(dataset)), dense(build()))
        assert partition.n_clusters == 3


def test_perturb_zero_is_identity():
    dataset, _ = gen_three_coherent()
    assert perturb_pairs(dataset, 0, seed=5) is dataset
    with pytest.raises(ValueError):
        perturb_pairs(dataset, -1)


def test_perturb_deterministic_and_size_preserving():
    dataset, _ = gen_interval_map()
    first = perturb_pairs(dataset, 3, seed=11)
    second = perturb_pairs(dataset, 3, seed=11)
    other = perturb_pairs(dataset, 3, seed=12)
    assert np.array_equal(first.inputs, second.inputs)
    assert np.array_equal(first.outputs, second.outputs)
    assert not np.array_equal(first.inputs, other.inputs)
    assert first.size == dataset.size
    assert first.n_inputs == dataset.n_inputs


def test_perturb_window_membership_and_uniformity():
    size = 9000
    from cohsets.model import PairDataset

    dataset = PairDataset(
        inputs=np.ones(size, dtype=np.int64),
        outputs=np.full(size, 5, dtype=np.int64),
        n_inputs=10,
        n_outputs=10,
    )
    noisy = perturb_pairs(dataset, 1, seed=2)
    # category 1 wraps to {10, 1, 2}; category 5 stays inside {4, 5, 6}
    assert set(np.unique(noisy.inputs)) == {10, 1, 2}
    assert set(np.unique(noisy.outputs)) == {4, 5, 6}
    sigma = math.sqrt(size * (1 / 3) * (2 / 3))
    for values in (noisy.inputs, noisy.outputs):
        _, tallies = np.unique(values, return_counts=True)
        assert np.all(np.abs(tallies - size / 3) < 4 * sigma)


def test_perturb_windows_respect_epsilon():
    dataset, _ = gen_three_coherent()
    noisy = perturb_pairs(dataset, 2, seed=9)
    n = dataset.n_inputs
    circular = np.minimum(
        (noisy.inputs - dataset.inputs) % n, (dataset.inputs - noisy.inputs) % n
    )
    assert circular.max() <= 2


def test_gyre_config_validation():
    with pytest.raises(ValueError):
        GyreConfig(step=-0.01)
    with pytest.raises(ValueError):
        GyreConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        GyreConfig(t_end=0.015, step=0.01)
    with pytest.raises(ValueError):
        GyreConfig(rho=1.5)
    with pytest.raises(ValueError):
        GyreConfig(amplitude=-0.1)
    with pytest.raises(ValueError):
        GyreConfig(nx=0)
    config = GyreConfig()
    assert config.n_steps == 4000
    assert config.n_boxes == 2048
    assert config.sample_size == 204800
    assert config.box_width == pytest.approx(2 / 64)


def test_gyre_config_caps_point_steps():
    """The cap sits far above the default's 4000 x 204800 point-steps and
    refuses what no run could finish, whether from the span or the step."""
    config = GyreConfig()
    assert 50 * config.n_steps * config.sample_size < MAX_POINT_STEPS
    for settings in ({"t_end": 1e300}, {"step": 1e-300}, {"t_end": 40.0 * 100}):
        with pytest.raises(ValueError, match="point-steps"):
            GyreConfig(**settings)
    assert GyreConfig(t_end=40.0 * 80).n_steps == 320_000


def test_gyre_config_caps_sample_points():
    """The point cap sits far above the default's 204 800 points and refuses
    a sample that the point-step cap lets through at zero steps."""
    assert 80 * GyreConfig().sample_size < MAX_SAMPLE_POINTS
    assert GyreConfig(t_end=0.0, points_per_box=MAX_SAMPLE_POINTS // 2048).sample_size == 2**24
    for settings in ({"points_per_box": 40_000}, {"nx": 2**12, "ny": 2**12, "points_per_box": 2}):
        with pytest.raises(ValueError, match="sampled points"):
            GyreConfig(t_end=0.0, **settings)


def test_velocity_vanishes_on_walls():
    config = GyreConfig()
    y = np.linspace(0.0, 1.0, 33)
    x = np.linspace(0.0, 2.0, 65)
    for t in (0.0, 0.3, 1.7, 11.25):
        for wall in (0.0, DOMAIN_WIDTH):
            u, _ = velocity(np.full_like(y, wall), y, t, config)
            assert np.abs(u).max() < 1e-12
        for wall in (0.0, DOMAIN_HEIGHT):
            _, v = velocity(x, np.full_like(x, wall), t, config)
            assert np.abs(v).max() < 1e-12


def test_velocity_matches_stream_function_gradient():
    """u is minus the y-partial and v the x-partial of the stream function."""
    rng = np.random.default_rng(139)
    config = GyreConfig()
    x = rng.uniform(0.05, 1.95, 1000)
    y = rng.uniform(0.05, 0.95, 1000)
    h = 1e-6
    for t in (0.0, 0.4, 2.9):
        u, v = velocity(x, y, t, config)
        dpsi_dy = (stream_function(x, y + h, t, config)
                   - stream_function(x, y - h, t, config)) / (2 * h)
        dpsi_dx = (stream_function(x + h, y, t, config)
                   - stream_function(x - h, y, t, config)) / (2 * h)
        assert u == pytest.approx(-dpsi_dy, abs=2e-9)
        assert v == pytest.approx(dpsi_dx, abs=2e-9)


def test_velocity_divergence_free():
    rng = np.random.default_rng(149)
    config = GyreConfig()
    x = rng.uniform(0.05, 1.95, 500)
    y = rng.uniform(0.05, 0.95, 500)
    h = 1e-5
    for t in (0.0, 0.7, 3.3):
        du_dx = (velocity(x + h, y, t, config)[0]
                 - velocity(x - h, y, t, config)[0]) / (2 * h)
        dv_dy = (velocity(x, y + h, t, config)[1]
                 - velocity(x, y - h, t, config)[1]) / (2 * h)
        assert np.abs(du_dx + dv_dy).max() <= 1e-6


def test_steady_flow_conserves_stream_function():
    """With zero forcing frequency the field is steady, so trajectories stay
    on contours of the stream function."""
    config = GyreConfig(omega=0.0, t_end=5.0)
    rng = np.random.default_rng(151)
    x = rng.uniform(0.1, 1.9, 200)
    y = rng.uniform(0.1, 0.9, 200)
    x_end, y_end = advect(x, y, config)
    before = stream_function(x, y, 0.0, config)
    after = stream_function(x_end, y_end, 0.0, config)
    assert np.abs(after - before).max() < 1e-8


def test_advect_zero_steps_returns_inputs():
    config = GyreConfig(t_end=0.0)
    x = np.array([0.3, 1.2])
    y = np.array([0.5, 0.8])
    x_end, y_end = advect(x, y, config)
    assert np.array_equal(x_end, x)
    assert np.array_equal(y_end, y)


def test_step_halving_gains_fourth_order():
    """Halving the step shrinks the Richardson difference by about 2^4."""
    rng = np.random.default_rng(157)
    x = rng.uniform(0.1, 1.9, 20)
    y = rng.uniform(0.1, 0.9, 20)
    ends = {}
    for step in (0.02, 0.01, 0.005):
        config = GyreConfig(t_end=2.0, step=step)
        ends[step] = advect(x, y, config)
    coarse = np.hypot(ends[0.02][0] - ends[0.01][0], ends[0.02][1] - ends[0.01][1])
    fine = np.hypot(ends[0.01][0] - ends[0.005][0], ends[0.01][1] - ends[0.005][1])
    ratio = coarse.max() / fine.max()
    assert 12.0 <= ratio <= 20.0


def test_gen_double_gyre_small_deterministic():
    config = GyreConfig(nx=8, ny=4, points_per_box=5, t_end=1.0, seed=7)
    first, meta_first = gen_double_gyre(config)
    second, _ = gen_double_gyre(config)
    assert np.array_equal(first.inputs, second.inputs)
    assert np.array_equal(first.outputs, second.outputs)
    assert first.size == config.sample_size == 160
    assert first.inputs.min() >= 1 and first.inputs.max() <= 32
    assert meta_first["sample_size"] == 160
    other, _ = gen_double_gyre(GyreConfig(nx=8, ny=4, points_per_box=5, t_end=1.0, seed=8))
    assert not np.array_equal(first.inputs, other.inputs)


def test_gen_double_gyre_identity_without_motion_or_noise():
    config = GyreConfig(nx=8, ny=4, points_per_box=3, t_end=0.0, rho=0.0, seed=3)
    dataset, metadata = gen_double_gyre(config)
    assert np.array_equal(dataset.inputs, dataset.outputs)
    expected = np.repeat(np.arange(1, 33), 3)
    assert np.array_equal(dataset.inputs, expected)
    assert metadata["clamped_endpoints"] == 0
    assert metadata["max_boundary_drift"] == 0.0


def test_gen_double_gyre_rows_of_one_draw():
    """At t_end == t_start no point moves, so the records follow from one
    ``rng_for(seed, 0)`` draw of six uniforms per point, box b's points
    being its rows b ppb to (b + 1) ppb - 1: two place the start in the
    box and two each shift the labeled start and end."""
    config = GyreConfig(nx=8, ny=4, points_per_box=5, t_start=0.5, t_end=0.5, seed=11)
    dataset, _ = gen_double_gyre(config)
    uniforms = rng_for(11, 0).random((160, 6))
    box = np.repeat(np.arange(32), 5)
    x = (box % 8 + uniforms[:, 0]) * config.box_width
    y = (box // 8 + uniforms[:, 1]) * config.box_height

    def labeled(u_x, u_y):
        cells = []
        for start, u, extent, width, count in ((x, u_x, DOMAIN_WIDTH, config.box_width, 8),
                                               (y, u_y, DOMAIN_HEIGHT, config.box_height, 4)):
            values = start + (2.0 * u - 1.0) * config.rho
            values = np.where(values < 0.0, -values, values)
            values = np.where(values > extent, extent - (values - extent), values)
            cells.append(np.clip((values / width).astype(np.int64), 0, count - 1))
        return cells[0] + 8 * cells[1] + 1

    assert np.array_equal(dataset.inputs, labeled(uniforms[:, 2], uniforms[:, 3]))
    assert np.array_equal(dataset.outputs, labeled(uniforms[:, 4], uniforms[:, 5]))


def test_gen_double_gyre_points_stay_in_domain():
    config = GyreConfig(nx=16, ny=8, points_per_box=4, t_end=2.0, seed=5)
    dataset, metadata = gen_double_gyre(config)
    x_lo, x_hi, y_lo, y_hi = metadata["input_range"]
    assert 0.0 <= x_lo and x_hi <= DOMAIN_WIDTH
    assert 0.0 <= y_lo and y_hi <= DOMAIN_HEIGHT
    x_lo, x_hi, y_lo, y_hi = metadata["output_range"]
    assert 0.0 <= x_lo and x_hi <= DOMAIN_WIDTH
    assert 0.0 <= y_lo and y_hi <= DOMAIN_HEIGHT
    assert metadata["max_boundary_drift"] <= 1e-6
    assert dataset.outputs.min() >= 1 and dataset.outputs.max() <= config.n_boxes
