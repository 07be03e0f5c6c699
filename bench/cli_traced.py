"""Run one `wpsncov` command with the benchmark's span wrappers installed.

Usage: python3 bench/cli_traced.py SPANS_JSON -- CLI_ARGS...

Writes the spans to SPANS_JSON and exits with the command's exit code.
The import of `wpsn_coverage.cli` is itself a span (`cli.import`).
"""

import sys

from tracer import Tracer, install


def main() -> int:
    spans_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit(__doc__)
    tracer = Tracer()
    with tracer.span("cli.import"):
        from wpsn_coverage import cli
    install(tracer)
    try:
        return cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
