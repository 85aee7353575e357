"""Set-up of one benchmark run: import `ktrees` and load every input.

`load` is what a user pays before the first result: the package import and
parsing every edge list with the program's own parser (`parse_edge_list`,
recognition included).  `run.py` calls it in its own process before the
timed phase, and runs this file in fresh processes to sample set-up time:

    python3 bench/probe.py WORKLOAD SEED

prints the seconds from just before `import ktrees` to the end of loading,
raw and scaled to the reference speed (see `speed.py`).
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# what each workload imports before its first timed call
IMPORTS = {
    "exhaustive": ("ktrees", "ktrees.cli"),
    "big-hosts": ("ktrees",),
    "cross-check": ("ktrees",),
}


def load(workload, hosts, after_import=None):
    """Import `ktrees` and return every host parsed into a KTree."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in IMPORTS[workload]:
        importlib.import_module(name)
    if after_import is not None:
        after_import()
    core = sys.modules["ktrees.core"]
    return [core.parse_edge_list(h.text, h.k) for h in hosts]


def main(argv):
    import hosts  # beside this file, so on sys.path when run as a script
    import speed

    workload, seed = argv[0], int(argv[1])
    inputs = hosts.hosts_for(workload, seed)
    with speed.ScaledClock() as clock:
        with clock.timing():
            load(workload, inputs)
    print(repr(clock.raw), repr(clock.scaled))


if __name__ == "__main__":
    main(sys.argv[1:])
