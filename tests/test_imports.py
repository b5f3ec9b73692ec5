import os
import re
import subprocess
import sys
from pathlib import Path

import chanident

# Together these add about a second to every fresh interpreter (each CLI
# call, each benchmark set-up) and no production path needs them; the
# Slepian basis takes its order from a tridiagonal eigen-solve, with no FFT.
HEAVY_MODULES = ("scipy.signal", "scipy.stats", "scipy.fft")


def _loaded_after(imports: str, modules) -> list[str]:
    """The ``modules`` that a fresh interpreter holds after ``import <imports>``."""
    src = str(Path(chanident.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    code = (f"import sys, {imports}; "
            f"print(' '.join(m for m in {tuple(modules)!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def _sources() -> dict[str, str]:
    package = Path(chanident.__file__).resolve().parent
    return {path.name: path.read_text() for path in sorted(package.glob("*.py"))}


def test_pipeline_and_cli_import_no_heavy_scipy_modules():
    assert _loaded_after("chanident.pipeline, chanident.cli", HEAVY_MODULES) == []


def test_only_profiles_and_the_cli_name_the_sample_period():
    # One sample per delay unit: profiles holds the grid and the CLI's signal
    # files carry it; no signal, channel or sequence keeps a copy.
    sources = _sources()
    assert sorted(name for name, text in sources.items()
                  if "SAMPLE_PERIOD_S" in text) == ["cli.py", "profiles.py"]
    assert [name for name, text in sources.items()
            if "sample_period_s" in text or "chip_period_s" in text] == []


def test_the_blas_count_is_set_in_one_place():
    # _blas drives the pools, and only the package's import pins them
    sources = _sources()
    assert [name for name, text in sources.items() if "set_num_threads" in text] == ["_blas.py"]
    assert [name for name, text in sources.items()
            if re.search(r"(?<!def )\bpin_one_thread\(", text)] == ["__init__.py"]


def test_sounding_front_end_has_one_home():
    # The dataset chain does not sound: pipeline loads neither the sounder
    # nor the m-sequences, and the sound command reads sounding's default.
    assert _loaded_after("chanident.pipeline", ("chanident.sounding", "chanident.mseq")) == []
    sources = _sources()
    assert [name for name, text in sources.items()
            if re.search(r"^DEFAULT_THRESHOLD_FACTOR\s*=", text, re.M)] == ["sounding.py"]
    assert [name for name, text in sources.items() if "inspect.signature" in text] == []
