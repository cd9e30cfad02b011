"""Run the expstat command line under the span tracer (the traced `cli` workload).

Usage: python cli_child.py SPANS_FILE ARG...

Behaves like ``python -m expstat ARG...`` (same stdout, same exit status) and
writes the spans and counters of the call to SPANS_FILE.
"""

import sys


def main() -> int:
    spans_file, argv = sys.argv[1], sys.argv[2:]
    import expstat.cli

    import tracing

    tracer = tracing.Tracer()
    tracer.prepare()
    tracer.install()
    try:
        code, error, _ = tracer.run_request(0, expstat.cli.main, argv)
    finally:
        tracer.uninstall()
        tracer.save(spans_file)
    if error is not None:
        raise error
    return code


if __name__ == "__main__":
    sys.exit(main())
