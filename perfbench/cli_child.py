"""Run one ``rsekit`` CLI command with the tracer installed.

Usage: python perfbench/cli_child.py SPANS_JSON ARG...

Behaves like ``python -m rsekit.cli ARG...`` and writes the spans of the
invocation to SPANS_JSON when it ends.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    import rsekit.cli
    try:
        return rsekit.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w") as fh:
            json.dump(tracer.to_json(), fh)


if __name__ == "__main__":
    sys.exit(main())
