"""Contract entry point: ``python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1`` prints one JSON result line (see BENCHMARK.json)."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from perfbench.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
