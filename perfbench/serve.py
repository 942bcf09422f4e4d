"""``repro-serve`` from the source tree, optionally traced.

``python3 perfbench/serve.py [--trace-dump PATH] -- SERVE_ARGS...``
runs :func:`repro.service.cli.serve_main` with ``SERVE_ARGS``.  With
``--trace-dump`` the layer wrappers are installed first and the span
snapshot is written to PATH once the server stops (on SIGINT).
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def main() -> int:
    argv = sys.argv[1:]
    dump_path = None
    if argv[:1] == ["--trace-dump"]:
        dump_path, argv = argv[1], argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    import repro.service.cli as cli

    if dump_path is None:
        return cli.serve_main(argv)
    import tracer

    tracer.install()
    try:
        return cli.serve_main(argv)
    finally:
        tracer.dump(dump_path)


if __name__ == "__main__":
    sys.exit(main())
