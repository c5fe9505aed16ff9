"""Set-up time of one fresh interpreter, printed in CPU seconds.

The clock starts after the op's inputs are generated and covers
``import casimirgrav`` plus the workload's first op, which builds the lazy
Gauss-Legendre tables. For cli-session it covers ``import casimirgrav.cli``
only. Started by run.py; not meant to be run by hand.
"""

import argparse
import sys
from pathlib import Path
from time import process_time

parser = argparse.ArgumentParser()
parser.add_argument("--workload", required=True)
parser.add_argument("--seed", type=int, required=True)
parser.add_argument("--src", required=True)
args = parser.parse_args()

sys.path.insert(0, args.src)
sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402  (standard library only)

wl = workloads.WORKLOADS[args.workload]
op = next(wl.ops(args.seed))

start = process_time()
if wl.name == "cli-session":
    import casimirgrav.cli  # noqa: F401
else:
    wl.run(op, workloads.Context(workloads.load_api(), Path(args.src)))
print(process_time() - start)
