"""Scenario registry: six COST 207-style tapped-delay-line profiles.

Average path gains and Doppler spectra are transcribed from the COST 207
final report tap tables (GSM discrete variant, non-alternative settings),
with the original COST 207 delays in comments.  Those delays are not used:
tap l of every profile sits at 10*l us (delay unit l).  The Rician direct
path of the Rural Area profiles is simplified to Rayleigh, and of the
two-component GAUS1 and GAUS2 spectra only the dominant component is kept
(the minor one, 10 dB and 15 dB down, is dropped), so every tap is a
zero-mean complex Gaussian process with one Doppler spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

# One sample per 10 us delay unit: the 0.1 Ms/s grid of simulated signals and channels.
SAMPLE_PERIOD_S = 1e-5
MAX_DELAY_UNITS = 12  # largest scenario (cost207BUx12) spans 12 grid rows


@dataclass(frozen=True)
class DopplerSpectrum:
    """Doppler spectrum shape of one tap.

    ``kind`` is "jakes" (classic U-shaped spectrum over [-fd, fd]) or
    "gaussian"; for the latter, ``center`` and ``sigma`` are fractions of
    the maximum Doppler frequency fd.
    """

    kind: str
    center: float = 0.0
    sigma: float = 0.0


@dataclass(frozen=True)
class ScenarioProfile:
    """Static description of one channel scenario; ``label`` is the class.

    Tap l has average gain ``tap_gains_db[l]``, Doppler spectrum
    ``doppler_spectra[l]`` and delay l units.
    """

    label: int
    name: str
    tap_gains_db: tuple[float, ...]
    doppler_spectra: tuple[DopplerSpectrum, ...]

    def __post_init__(self):
        if not self.tap_gains_db:
            raise ValueError(f"profile {self.name}: needs at least one tap")
        if len(self.doppler_spectra) != len(self.tap_gains_db):
            raise ValueError(f"profile {self.name}: needs one doppler spectrum per tap gain")

    @property
    def tap_count(self) -> int:
        return len(self.tap_gains_db)

    @property
    def delay_units(self) -> tuple[int, ...]:
        """Tap delays as integer delay-grid units (1 unit = 10 us)."""
        return tuple(range(self.tap_count))

    def gains_linear(self) -> tuple[float, ...]:
        """Average tap powers in linear units."""
        return tuple(10.0 ** (g / 10.0) for g in self.tap_gains_db)


_CLASS = DopplerSpectrum("jakes")
_GAUS1 = DopplerSpectrum("gaussian", -0.8, 0.05)
_GAUS2 = DopplerSpectrum("gaussian", 0.7, 0.1)


def _profile(label: int, name: str, *taps: tuple[float, DopplerSpectrum]) -> ScenarioProfile:
    gains, spectra = zip(*taps)
    return ScenarioProfile(label, name, gains, spectra)


_PROFILES = {p.label: p for p in (
    # cost207 delays: 0, 0.2, 0.4, 0.6 us
    _profile(1, "cost207RAx4", (0.0, _CLASS), (-2.0, _CLASS), (-10.0, _CLASS), (-20.0, _CLASS)),
    # cost207 delays: 0, 0.1, 0.2, 0.3, 0.4, 0.5 us
    _profile(2, "cost207RAx6", (0.0, _CLASS), (-4.0, _CLASS), (-8.0, _CLASS), (-12.0, _CLASS),
             (-16.0, _CLASS), (-20.0, _CLASS)),
    # cost207 delays: 0, 0.2, 0.5, 1.6, 2.3, 5.0 us
    _profile(3, "cost207TUx6", (-3.0, _CLASS), (0.0, _CLASS), (-2.0, _CLASS), (-6.0, _GAUS1),
             (-8.0, _GAUS2), (-10.0, _GAUS2)),
    # cost207 delays: 0, 0.3, 1.0, 1.6, 5.0, 6.6 us
    _profile(4, "cost207BUx6", (-2.5, _CLASS), (0.0, _CLASS), (-3.0, _GAUS1), (-5.0, _GAUS1),
             (-2.0, _GAUS2), (-4.0, _GAUS2)),
    # cost207 delays: 0, 0.1, 0.3, 0.5, 15.0, 17.2 us
    _profile(5, "cost207HTx6", (0.0, _CLASS), (-1.5, _CLASS), (-4.5, _CLASS), (-7.5, _CLASS),
             (-8.0, _GAUS2), (-17.7, _GAUS2)),
    # cost207 delays: 0, 0.1, 0.3, 0.7, 1.6, 2.2, 3.1, 5.0, 6.0, 7.2, 8.1, 10.0 us
    _profile(6, "cost207BUx12", (-4.0, _CLASS), (-3.0, _CLASS), (0.0, _CLASS), (-2.6, _GAUS1),
             (-3.0, _GAUS1), (-5.0, _GAUS2), (-7.0, _GAUS2), (-5.0, _GAUS2), (-6.5, _GAUS2),
             (-8.6, _GAUS2), (-11.0, _GAUS2), (-10.0, _GAUS2)),
)}


def load_profile(label: int) -> ScenarioProfile:
    """Return the registered profile for ``label`` (1..6)."""
    try:
        return _PROFILES[label]
    except KeyError:
        raise KeyError(f"no channel profile registered for label {label}") from None
