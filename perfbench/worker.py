"""One session in a fresh interpreter; prints its outcome as one JSON line.

Usage: ``python3 perfbench/worker.py WORKLOAD SEED MODE [SPANS]`` where
MODE is ``run`` or ``traced``.  ``run.py`` is the entry
point; this file exists so that every session pays its own imports and
has its own peak-memory high-water mark.
"""

import json
import sys
from pathlib import Path

from workloads import WORKLOADS, run_session

if __name__ == "__main__":
    name, seed, mode = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    spans = Path(sys.argv[4]) if len(sys.argv) > 4 else None
    print(json.dumps(vars(run_session(WORKLOADS[name], seed, mode, spans))))
