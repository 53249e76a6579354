"""Make the benchmark modules and the srhtlab sources importable."""

import pathlib
import sys

BENCH = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]
