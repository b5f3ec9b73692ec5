import pytest

from chanident.profiles import DopplerSpectrum, ScenarioProfile, _PROFILES, load_profile

NAMES_AND_TAP_COUNTS = {1: ("cost207RAx4", 4), 2: ("cost207RAx6", 6), 3: ("cost207TUx6", 6),
                        4: ("cost207BUx6", 6), 5: ("cost207HTx6", 6), 6: ("cost207BUx12", 12)}


def test_registry_has_six_profiles():
    assert sorted(_PROFILES) == [1, 2, 3, 4, 5, 6]
    for label, (name, taps) in NAMES_AND_TAP_COUNTS.items():
        p = load_profile(label)
        assert (p.label, p.name, p.tap_count) == (label, name, taps)


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
    for label in _PROFILES:
        p = load_profile(label)
        assert p.delay_units == tuple(range(p.tap_count))


def test_per_tap_lists_consistent():
    # every spectrum is COST 207's CLASS or the kept component of GAUS1 / GAUS2
    kept = {DopplerSpectrum("jakes"), DopplerSpectrum("gaussian", -0.8, 0.05),
            DopplerSpectrum("gaussian", 0.7, 0.1)}
    for label in _PROFILES:
        p = load_profile(label)
        assert len(p.tap_gains_db) == p.tap_count
        assert len(p.doppler_spectra) == p.tap_count
        assert set(p.doppler_spectra) <= kept


def test_gains_linear_matches_db():
    p = load_profile(3)  # TUx6 second tap is the 0 dB reference
    assert p.tap_gains_db[1] == 0.0
    assert p.gains_linear()[1] == 1.0
    assert p.gains_linear()[0] == pytest.approx(10 ** -0.3)


def test_profile_rejects_empty_or_mismatched_taps():
    with pytest.raises(ValueError, match="at least one tap"):
        ScenarioProfile(1, "bad", (), ())
    with pytest.raises(ValueError, match="one doppler spectrum per tap gain"):
        ScenarioProfile(1, "bad", (0.0, -3.0), (DopplerSpectrum("jakes"),))
