#!/usr/bin/env python3
"""End-to-end accuracy-vs-SNR experiment.

Generates a dataset over the six scenarios at {noiseless, 0, 10, 20, 30, 40}
dB, trains the classifier on the noiseless vectors, evaluates per SNR and
writes the report table plus all intermediate files into the output
directory.  Desk scale (20 vectors per condition) by default; pass
--vectors 100 for a full-scale run.
"""

import argparse
import sys
import time
from pathlib import Path

from chanident.mlp import TrainConfig
from chanident.pipeline import (ESTIMATION_MODES, HIDDEN_SIZES, DatasetSpec,
                                format_accuracy_table, run_experiment)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--vectors", type=int, default=20, help="vectors per condition")
    ap.add_argument("--samples", type=int, default=25600, help="samples per vector")
    ap.add_argument("--estimation", choices=ESTIMATION_MODES, default="bem-ls")
    ap.add_argument("--hidden", type=int, nargs="+", default=list(HIDDEN_SIZES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--out", type=Path, default=Path("table2_run"))
    args = ap.parse_args(argv)

    spec = DatasetSpec(vectors_per_condition=args.vectors,
                       samples_per_vector=args.samples,
                       estimation=args.estimation, master_seed=args.seed)
    t0 = time.time()
    records, train_report, report = run_experiment(
        spec, args.out, args.hidden, TrainConfig(seed=args.seed), init_seed=args.seed,
        threads=args.threads)
    print(f"[{time.time()-t0:6.1f}s] {len(records)} records ({args.estimation}, "
          f"seed {args.seed}), hidden {args.hidden}: {len(train_report.epoch_losses)} "
          f"epochs, train accuracy {train_report.final_accuracy:.3f}")
    print(format_accuracy_table(report))
    print(f"outputs in {args.out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
