#!/usr/bin/env python3
"""``python -m corrqec.cli`` with spans around the library calls it makes.

  PERFBENCH_SPANS=spans.json python3 perfbench/cli_child.py SUBCOMMAND [options]

Used only by the traced run: every public function that corrqec.cli
imported is replaced, in corrqec.cli's namespace, by a wrapper that records
a span; the spans are written to $PERFBENCH_SPANS when main() returns.
Worker processes of --jobs N are not traced, so the traced suite runs
with --jobs 1 only.
"""
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import Tracer  # noqa: E402
from workloads import LABELS, PUBLIC  # noqa: E402


def main() -> int:
    from corrqec import cli
    tracer = Tracer()
    for module, names in PUBLIC.items():
        for name in names:
            if hasattr(cli, name):
                setattr(cli, name, tracer.wrap(f"{module}.{name}", getattr(cli, name),
                                               LABELS.get(name)))
    try:
        return cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
