"""Traced CLI process: ``python launcher.py SPANS_PATH <superchan args...>``.

Installs the tracer's wrappers, calls ``superchan.cli.main`` with the given
arguments, writes the recorded spans to SPANS_PATH and exits with main's
exit code.  The untraced path runs ``python -m superchan.cli`` instead.
"""

import sys

import superchan.cli

from tracing import Tracer


def main():
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.recording():
            code = superchan.cli.main(argv)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
