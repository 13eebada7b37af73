"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout and imports ``treeroute`` from
its ``src`` directory, never from anywhere else; without it the command
fails before measuring anything.  The last line of standard output is
the JSON result.  See README.md for the workloads and metrics.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import treeroute
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import treeroute from {ROOT / 'src'}: {exc}")
    if Path(treeroute.__file__).resolve().parent != ROOT / "src" / "treeroute":
        sys.exit(f"perfbench: treeroute was imported from {treeroute.__file__}, "
                 f"not from {ROOT / 'src'}")
    from perfbench.harness import main

    sys.exit(main())
