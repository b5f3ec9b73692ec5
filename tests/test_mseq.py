import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    m = generate_mseq(3, (3, 1))
    assert periodic_autocorrelation(m.chips).tolist() == [7, -1, -1, -1, -1, -1, -1]


def test_p8_period():
    assert generate_mseq(8).period == 255


def test_balance_property():
    for p in (3, 5, 8):
        chips = generate_mseq(p).chips
        assert np.sum(chips == -1) == 2 ** (p - 1)
        assert np.sum(chips == +1) == 2 ** (p - 1) - 1


def test_all_zero_state_rejected():
    with pytest.raises(ValueError, match="all-zero"):
        generate_mseq(4, initial_state=[0, 0, 0, 0])


def test_non_primitive_taps_rejected():
    # x^4 + x^2 + 1 = (x^2 + x + 1)^2 is not even irreducible
    with pytest.raises(ValueError, match="primitive"):
        generate_mseq(4, (4, 2))


@pytest.mark.parametrize("taps, state", [
    ((4.0, 1), None), ((4, True), None), (("4", 1), None),
    ((4, 1), [1, 1, 1, 1.0]), ((4, 1), [True] * 4), ((4, 1), [1, 1, 1, 2]),
])
def test_non_integer_taps_or_state_rejected(taps, state):
    # int() used to turn 4.0, True and "4" into a valid register
    with pytest.raises(ValueError, match="integers"):
        generate_mseq(4, taps, state)


def test_numpy_integer_taps_and_state_accepted():
    m = generate_mseq(4, tuple(np.array([4, 1])), np.ones(4, dtype=np.int64))
    assert m.chips.tolist() == generate_mseq(4, (4, 1)).chips.tolist()


def test_chips_are_plus_minus_one():
    chips = generate_mseq(6).chips
    assert set(np.unique(chips)) == {-1, 1}


@given(st.sampled_from(sorted(PRIMITIVE_TAPS)), st.integers(0, 2 ** 20))
@settings(max_examples=25, deadline=None)
def test_autocorrelation_two_valued_any_state(p, state_bits):
    state = [(state_bits >> i) & 1 for i in range(p)]
    if not any(state):
        state[0] = 1
    m = generate_mseq(p, initial_state=state)
    ac = periodic_autocorrelation(m.chips)
    assert ac[0] == m.period
    assert np.all(ac[1:] == -1)


def test_initial_state_changes_phase_only():
    a = generate_mseq(5).chips
    b = generate_mseq(5, initial_state=[0, 1, 0, 1, 1]).chips
    # same sequence up to a cyclic shift
    assert any(np.array_equal(a, np.roll(b, k)) for k in range(len(a)))
