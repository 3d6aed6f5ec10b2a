"""Run the fracrelax CLI with the tracer installed.

Usage: python perfbench/traced_cli.py SPANS.npz <fracrelax CLI arguments>

Equivalent to ``python -m fracrelax <arguments>``; the spans of the
invocation are written to SPANS.npz when it ends.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402


def main() -> int:
    spans, argv = sys.argv[1], sys.argv[2:]
    import fracrelax.cli as cli

    tracer = Tracer()
    tracer.install()
    tracer.op_id = 0
    try:
        return cli.main(argv)
    finally:
        if tracer.uninstall():
            print("traced_cli: wrappers left installed", file=sys.stderr)
        tracer.save(spans)


if __name__ == "__main__":
    sys.exit(main())
