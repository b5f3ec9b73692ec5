import math

import numpy as np
import pytest

from chanident.modulation import map_qpsk, random_frame

ROOT2 = math.sqrt(2.0)


def test_gray_map_convention():
    assert map_qpsk([0, 0])[0] == pytest.approx((1 + 1j) / ROOT2)
    assert map_qpsk([0, 1])[0] == pytest.approx((1 - 1j) / ROOT2)
    assert map_qpsk([1, 0])[0] == pytest.approx((-1 + 1j) / ROOT2)
    assert map_qpsk([1, 1])[0] == pytest.approx((-1 - 1j) / ROOT2)


def test_gray_neighbours_differ_in_one_bit():
    # walking the constellation circle changes exactly one bit per step
    angle_of = {}
    for b0 in (0, 1):
        for b1 in (0, 1):
            sym = map_qpsk([b0, b1])[0]
            angle_of[(b0, b1)] = np.angle(sym) % (2 * np.pi)
    ring = sorted(angle_of, key=angle_of.get)
    for a, b in zip(ring, ring[1:] + ring[:1]):
        assert sum(x != y for x, y in zip(a, b)) == 1


def test_unit_power():
    syms = map_qpsk(np.random.default_rng(0).integers(0, 2, 1000))
    assert np.allclose(np.abs(syms), 1.0)


def test_odd_bit_count_rejected():
    with pytest.raises(ValueError, match="even"):
        map_qpsk([0, 1, 0])


@pytest.mark.parametrize("bits, message", [([[0, 1], [1, 0]], "bits must be one-dimensional"),
                                           ([0, 2], "bits must be 0 or 1")])
def test_malformed_bits_rejected(bits, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        map_qpsk(bits)


def test_random_frame_known_everywhere():
    frame = random_frame(64, seed=5)
    assert len(frame) == 64
    assert np.allclose(np.abs(frame.samples), 1.0)
