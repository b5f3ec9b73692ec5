import pytest

from chanident.profiles import (DELAY_UNIT_US, DopplerSpectrum, ScenarioProfile, _registry,
                                load_profile)


def all_labels() -> tuple[int, ...]:
    """The labels of the bundled registry, ascending."""
    return tuple(sorted(_registry()))


def test_registry_has_six_profiles():
    assert all_labels() == (1, 2, 3, 4, 5, 6)


def test_label_1_is_rax4():
    p = load_profile(1)
    assert p.name == "cost207RAx4"
    assert p.tap_count == 4


def test_label_6_is_bux12():
    p = load_profile(6)
    assert p.name == "cost207BUx12"
    assert p.tap_count == 12


def test_unknown_label_raises():
    with pytest.raises(KeyError):
        load_profile(7)


def test_delays_follow_10l_rule():
    for label in all_labels():
        p = load_profile(label)
        assert p.tap_delays_us == tuple(DELAY_UNIT_US * l for l in range(p.tap_count))
        assert p.delay_units == tuple(range(p.tap_count))


def test_per_tap_lists_consistent():
    for label in all_labels():
        p = load_profile(label)
        assert len(p.tap_gains_db) == p.tap_count
        assert len(p.doppler_spectra) == p.tap_count
        assert all(s.kind in ("jakes", "gaussian") for s in p.doppler_spectra)


def test_gains_linear_matches_db():
    p = load_profile(3)  # TUx6 second tap is the 0 dB reference
    assert p.tap_gains_db[1] == 0.0
    assert p.gains_linear()[1] == 1.0
    assert p.gains_linear()[0] == pytest.approx(10 ** -0.3)


def test_doppler_descriptor_roundtrip():
    for text in ("jakes", "gaussian(-0.8,0.05)", "gaussian(0.7,0.1)"):
        assert str(DopplerSpectrum.parse(text)) == text
    with pytest.raises(ValueError):
        DopplerSpectrum.parse("rice")


def test_profile_rejects_wrong_delay_grid():
    with pytest.raises(ValueError, match="10\\*l"):
        ScenarioProfile(1, "bad", 2, (0.0, 5.0), (0.0, 0.0),
                        (DopplerSpectrum("jakes"), DopplerSpectrum("jakes")))
