#!/usr/bin/env python3
"""Rewrite ``reference.json`` from seed-0 passes of every workload.

One pass at full size and one at the smoke test's tiny size.

Usage, from the root of a checkout: python3 perfbench/make_reference.py

Run it only when a workload's inputs change; the checks compare every later
run against these values.
"""

import json
import os
import shutil
import sys
from itertools import product

from run import BENCH, ROOT, measure, time_setup


def main() -> int:
    sys.path[:0] = [str(ROOT / "src")]
    import workloads
    env = workloads.pin_environment()
    reference = {}
    for (name, w), tiny in product(workloads.WORKLOADS.items(), (False, True)):
        w.env = env
        w.workdir = ROOT / ".perfbench_work" / str(os.getpid())
        w.workdir.mkdir(parents=True)
        try:
            if not w.in_process:
                time_setup(w, 0, tiny)  # writes the game files
            calls = w.build(0, tiny)
            _, outputs = measure(w, calls, 0, passes=1)
            reference[name + (" tiny" if tiny else "")] = \
                workloads.reference_values(name, calls, outputs)
        finally:
            shutil.rmtree(w.workdir.parent)
    (BENCH / "reference.json").write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
