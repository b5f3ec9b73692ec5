"""chanident: propagation-scenario identification for time-varying
multipath fading channels.

Pipeline stages: simulate COST 207-style fading (``simulate``), sound the
channel with m-sequences to find its order and path delays (``mseq``,
``sounding``), estimate the time-varying gains by Slepian-basis least
squares (``slepian``, ``bem``), histogram the per-delay envelopes into
classifier features (``features``), and classify the scenario with a small
tanh MLP (``mlp``).  ``pipeline`` ties the stages into dataset generation,
training and evaluation, and ``pipeline.run_experiment`` runs the
accuracy-vs-SNR experiment; ``cli`` exposes the stages as subcommands.
Import the modules themselves, e.g. ``from chanident import pipeline``.

Importing chanident sets numpy's and scipy's bundled OpenBLAS thread pools
to one thread for the whole process, whatever ``OPENBLAS_NUM_THREADS``
says (``_blas``).
"""

from . import _blas

__version__ = "0.1.0"

_blas.pin_one_thread()
