"""Scenario registry: six COST 207-style tapped-delay-line profiles.

Average path gains and Doppler spectrum shapes follow the COST 207 tap
tables; tap delays sit on the fixed 10*l microsecond grid (one delay unit
= 10 us).  The registry is read from the bundled data file, which is the
single source of truth for the numbers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

DELAY_UNIT_US = 10.0
# One sample per delay unit: the 0.1 Ms/s grid of simulated signals and channels.
SAMPLE_PERIOD_S = 1e-5
MAX_DELAY_UNITS = 12  # largest scenario (cost207BUx12) spans 12 grid rows

_GAUSS_RE = re.compile(r"^gaussian\((-?[0-9.]+),([0-9.]+)\)$")


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

    @staticmethod
    def parse(text: str) -> "DopplerSpectrum":
        if text == "jakes":
            return DopplerSpectrum("jakes")
        m = _GAUSS_RE.match(text)
        if m:
            return DopplerSpectrum("gaussian", float(m.group(1)), float(m.group(2)))
        raise ValueError(f"unknown doppler descriptor {text!r}")

    def __str__(self) -> str:
        if self.kind == "jakes":
            return "jakes"
        return f"gaussian({self.center:g},{self.sigma:g})"


@dataclass(frozen=True)
class ScenarioProfile:
    """Static description of one channel scenario; ``label`` is the class."""

    label: int
    name: str
    tap_count: int
    tap_delays_us: tuple[float, ...]
    tap_gains_db: tuple[float, ...]
    doppler_spectra: tuple[DopplerSpectrum, ...]

    def __post_init__(self):
        if self.tap_count < 1:
            raise ValueError("tap_count must be >= 1")
        for field in (self.tap_delays_us, self.tap_gains_db, self.doppler_spectra):
            if len(field) != self.tap_count:
                raise ValueError(f"profile {self.name}: per-tap lists must have length {self.tap_count}")
        for l, d in enumerate(self.tap_delays_us):
            if d != DELAY_UNIT_US * l:
                raise ValueError(f"profile {self.name}: tap {l} delay {d} us violates the 10*l rule")

    @property
    def delay_units(self) -> tuple[int, ...]:
        """Tap delays as integer delay-grid units (1 unit = 10 us)."""
        return tuple(int(round(d / DELAY_UNIT_US)) for d in self.tap_delays_us)

    def gains_linear(self) -> tuple[float, ...]:
        """Average tap powers in linear units."""
        return tuple(10.0 ** (g / 10.0) for g in self.tap_gains_db)


def _parse_registry(text: str) -> dict[int, ScenarioProfile]:
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# chanident-profiles v1"):
        raise ValueError("profile data file: missing or unsupported version header")
    registry: dict[int, ScenarioProfile] = {}
    current: dict | None = None

    def close(cur):
        prof = ScenarioProfile(
            label=cur["label"],
            name=cur["name"],
            tap_count=cur["tap_count"],
            tap_delays_us=tuple(t[0] for t in cur["taps"]),
            tap_gains_db=tuple(t[1] for t in cur["taps"]),
            doppler_spectra=tuple(t[2] for t in cur["taps"]),
        )
        if len(cur["taps"]) != cur["tap_count"]:
            raise ValueError(f"profile {prof.name}: expected {cur['tap_count']} taps, found {len(cur['taps'])}")
        if prof.label in registry:
            raise ValueError(f"duplicate profile label {prof.label}")
        registry[prof.label] = prof

    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if fields[0] == "profile":
            if current is not None:
                close(current)
            if len(fields) != 4:
                raise ValueError(f"profile data file line {lineno}: malformed profile record")
            current = {
                "label": int(fields[1]),
                "name": fields[2],
                "tap_count": int(fields[3]),
                "taps": [],
            }
        elif fields[0] == "tap":
            if current is None:
                raise ValueError(f"profile data file line {lineno}: tap before any profile record")
            if len(fields) != 4:
                raise ValueError(f"profile data file line {lineno}: malformed tap record")
            current["taps"].append(
                (float(fields[1]), float(fields[2]), DopplerSpectrum.parse(fields[3]))
            )
        else:
            raise ValueError(f"profile data file line {lineno}: unknown record {fields[0]!r}")
    if current is not None:
        close(current)
    return registry


@lru_cache(maxsize=1)
def _registry() -> dict[int, ScenarioProfile]:
    text = resources.files("chanident.data").joinpath("cost207_profiles.txt").read_text()
    return _parse_registry(text)


def load_profile(label: int) -> ScenarioProfile:
    """Return the registered profile for ``label`` (1..6)."""
    try:
        return _registry()[label]
    except KeyError:
        raise KeyError(f"no channel profile registered for label {label}") from None
