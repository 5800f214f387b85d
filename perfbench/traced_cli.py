"""Run one gammasym CLI command with span tracing.

Usage: python -X importtime perfbench/traced_cli.py SPANS_FILE OP_ID ARGS...

Equivalent to ``python -m gammasym ARGS...`` except that the gammasym
layers are wrapped in spans, which are written to SPANS_FILE as one JSON
document when the command returns.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    span_path, op, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    start = time.perf_counter()
    import gammasym.cli

    import tracing

    tracer = tracing.Tracer(op)
    tracer.add("import", start, time.perf_counter())
    tracing.install(tracer)
    try:
        return gammasym.cli.main(argv)
    finally:
        with open(span_path, "w") as f:
            json.dump(
                {"t0": T0, "spans": tracer.spans, "counts": tracer.counts, "max_bits": tracer.max_bits},
                f,
            )


if __name__ == "__main__":
    sys.exit(main())
