"""Record the campaign report digests that the ``campaigns`` workload checks.

    python3 bench/record_digests.py 0 100

runs the five campaigns at their defaults for seeds 0 to 99 and writes
their digests (failure count, bits of the largest violation) to
``bench/digests.json``.  Rerun it only when a change is meant to alter
campaign results; a speed-up must leave every digest as it is.
"""

import json
import os
import sys
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402


def main(argv):
    start, stop = (int(a) for a in argv)
    digests = {}
    for seed in range(start, stop):
        digests[str(seed)] = workloads.campaign_digests(seed)
        print(seed, digests[str(seed)], flush=True)
    workloads.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
