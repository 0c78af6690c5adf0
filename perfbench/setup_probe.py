"""Set-up probe, run in a fresh interpreter by run.py.

Times `import doptdesign` plus `load_config` and `build_problem` on every
config path given, and prints the seconds as one JSON number.

    python3 perfbench/setup_probe.py SRC_DIR CONFIG...
"""

import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from doptdesign import cli

    for path in sys.argv[2:]:
        cli.build_problem(cli.load_config(path))
    print(time.perf_counter() - t0)
