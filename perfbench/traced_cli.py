"""Run one gtpairs command line with layer spans recorded.

    python3 perfbench/traced_cli.py SPANS_JSON <gtpairs arguments...>

The spans, the moment this script started and the time `import gtpairs.cli`
took are written to SPANS_JSON; the exit code is the command's own.
"""

from time import perf_counter

T_FIRST = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from spans import Tracer  # noqa: E402


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    start = perf_counter()
    from gtpairs import cli

    import_s = perf_counter() - start
    tracer = Tracer()
    tracer.record("cli.import", start, start + import_s)
    tracer.install()
    try:
        code = tracer.span("cli.run", "cli", cli.run)(argv)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"first": T_FIRST, "import_s": import_s, "spans": tracer.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
