import random

import numpy as np
import pytest

from hypersymplectic.calculus import VectorField
from hypersymplectic.charts import Chart, Point, require_same_chart
from hypersymplectic.errors import ChartMismatchError

BOX = Chart("box", ("u", "v"), (-1.0, -1.0), (1.0, 1.0))


def stream_uniforms(seed, count):
    """The first ``count`` uniforms of the seeded stream, one at a time: the
    top 53 bits of each 8-byte little-endian word of ``randbytes``."""
    rng = random.Random(seed)
    words = [int.from_bytes(rng.randbytes(8), "little") for _ in range(count)]
    return np.array([(word >> 11) / 2**53 for word in words])


def test_basic_properties():
    assert BOX.dim == 2
    assert np.allclose(BOX.widths(), [2.0, 2.0])
    assert BOX.fd_step() == pytest.approx(1e-5)


def test_a_box_whose_step_is_lost_in_rounding_is_rejected():
    """The width rule on [1e12, 1e12 + 1e-3] steps by 5e-9, below half an
    ulp of 1e12: no central difference can be taken on such a chart."""
    lower, upper = 1e12, 1e12 + 1e-3
    h = 1e-5 * (upper - lower) / 2.0
    assert lower + h == lower
    with pytest.raises(ValueError, match="lost in rounding"):
        Chart("box", ("u",), (lower,), (upper,))
    # the rule scales with the box: a subnormal box still has a step that moves its bounds
    tiny = Chart("box", ("u",), (0.0,), (1e-310,))
    assert 0.0 < tiny.fd_step() and 1e-310 - tiny.fd_step() != 1e-310


def test_point_validation():
    pt = BOX.point([0.25, -0.5])
    assert pt.coords.shape == (2,)
    with pytest.raises(ValueError):
        BOX.point([0.0])


def test_shifted_moves_one_axis():
    pt = BOX.point([0.1, 0.2])
    moved = pt.shifted(1, 0.05)
    assert moved.coords[1] == pytest.approx(0.25)
    assert moved.coords[0] == 0.1
    assert pt.coords[1] == 0.2  # original untouched
    stacked = BOX.sample(5, seed=1)
    moved = stacked.shifted(0, 0.05)
    assert moved.coords.shape == (5, 2)
    assert np.array_equal(moved.coords[:, 1], stacked.coords[:, 1])
    assert np.allclose(moved.coords[:, 0] - stacked.coords[:, 0], 0.05)


def test_sampling_is_seeded_and_inside_the_box():
    a = BOX.sample(50, seed=11)
    b = BOX.sample(50, seed=11)
    c = BOX.sample(50, seed=12)
    assert all(np.array_equal(p.coords, q.coords) for p, q in zip(a, b))
    assert any(not np.array_equal(p.coords, q.coords) for p, q in zip(a, c))
    assert np.all((a.coords >= BOX.lower) & (a.coords <= BOX.upper))
    # the draw is one stacked point from this exact stream, row after row,
    # which keeps the report bytes stable
    lower, upper = np.array(BOX.lower), np.array(BOX.upper)
    for n, seed in ((50, 11), (1, 3), (4, 10**30)):
        sample = BOX.sample(n, seed)
        stream = lower + (upper - lower) * stream_uniforms(seed, n * BOX.dim).reshape(n, BOX.dim)
        assert isinstance(sample, Point) and sample.chart is BOX
        assert np.array_equal(sample.coords, stream)
        assert len(sample) == n
        rows = list(sample)
        assert len(rows) == n
        for row, expected in zip(rows, stream):
            assert isinstance(row, Point) and row.chart is BOX and row.batch_shape == ()
            assert np.array_equal(row.coords, expected)
    # seeds are non-negative integers, numpy's among them
    assert np.array_equal(BOX.sample(5, np.int64(11)).coords, BOX.sample(5, 11).coords)
    with pytest.raises(ValueError, match="non-negative"):
        BOX.sample(5, -11)
    with pytest.raises(TypeError):
        BOX.sample(5, 11.0)
    single = BOX.point([0.0, 0.0])
    with pytest.raises(TypeError):
        len(single)
    with pytest.raises(TypeError):
        iter(single)


def test_chart_mismatch_is_loud():
    other = Chart("other", ("u", "v"), (-1.0, -1.0), (1.0, 1.0))
    with pytest.raises(ChartMismatchError):
        require_same_chart(BOX, other)
    field = VectorField.constant(BOX, [1.0, 0.0])
    with pytest.raises(ChartMismatchError):
        field.value(other.point([0.0, 0.0]))


def test_degenerate_box_rejected():
    with pytest.raises(ValueError):
        Chart("bad", ("u",), (1.0,), (1.0,))
    with pytest.raises(ValueError):
        Chart("bad", ("u", "u"), (0.0, 0.0), (1.0, 1.0))


def test_fields():
    pt = BOX.point([0.3, -0.4])
    const = VectorField.constant(BOX, [2.0, 5.0])
    assert np.array_equal(const.value(pt), [2.0, 5.0])
    # on a stack a constant keeps no point axis (numpy broadcasting carries
    # it); a field reading coords[..., k] returns one row per point
    stacked = BOX.sample(4, seed=2)
    assert np.array_equal(const.value(stacked), [2.0, 5.0])
    with pytest.raises(ValueError):
        const.value(stacked)[0] = 1.0  # the constant is read-only
    swap = VectorField(BOX, lambda p: np.stack([p.coords[..., 1], p.coords[..., 0]], axis=-1))
    assert np.array_equal(swap.value(stacked), stacked.coords[:, ::-1])
    assert np.array_equal(swap.value(pt), [-0.4, 0.3])


def test_vector_field_shape_check():
    bad = VectorField(BOX, lambda pt: np.zeros(3))
    with pytest.raises(ValueError):
        bad.value(BOX.point([0.0, 0.0]))
    # a value with point axes that do not match the stack is rejected too
    rows = VectorField(BOX, lambda pt: np.zeros((3, 2)))
    with pytest.raises(ValueError):
        rows.value(BOX.sample(4, seed=2))
