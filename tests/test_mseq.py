import numpy as np
import pytest

from chanident.mseq import PRIMITIVE_TAPS, generate_mseq, periodic_autocorrelation


def test_p3_autocorrelation_oracle():
    # independent oracle: run the LFSR by hand for x^3 + x + 1, all-ones start
    state = [1, 1, 1]
    bits = []
    for _ in range(7):
        bits.append(state[-1])
        fb = state[2] ^ state[0]  # taps 3 and 1
        state = [fb] + state[:-1]
    chips = 1 - 2 * np.array(bits)
    expected = np.array([int(chips @ np.roll(chips, k)) for k in range(7)])
    assert expected.tolist() == [7, -1, -1, -1, -1, -1, -1]

    m = generate_mseq(3)
    assert m.chips.tolist() == chips.tolist()
    assert periodic_autocorrelation(m.chips).tolist() == [7, -1, -1, -1, -1, -1, -1]


def test_p8_period():
    assert generate_mseq(8).period == 255


def test_balance_property():
    for p in (3, 5, 8):
        chips = generate_mseq(p).chips
        assert np.sum(chips == -1) == 2 ** (p - 1)
        assert np.sum(chips == +1) == 2 ** (p - 1) - 1


def test_chips_are_plus_minus_one():
    chips = generate_mseq(6).chips
    assert set(np.unique(chips)) == {-1, 1}


@pytest.mark.parametrize("p", sorted(PRIMITIVE_TAPS))
def test_registry_period_and_two_valued_autocorrelation(p):
    # a full period with a two-valued autocorrelation is what makes each
    # registry polynomial primitive
    m = generate_mseq(p)
    assert m.period == 2 ** p - 1
    ac = periodic_autocorrelation(m.chips)
    assert ac[0] == m.period
    assert np.all(ac[1:] == -1)


@pytest.mark.parametrize("p", [0, 1, 13, -8])
def test_length_outside_the_registry_refused(p):
    with pytest.raises(ValueError, match=r"register_length must be one of \[2, 3, .*, 12\]"):
        generate_mseq(p)
