"""Run one traced domekit CLI command.

    python3 perfbench/launcher.py SPANS_JSON ARG...

Times ``import domekit.cli``, installs the benchmark's span wrappers, calls
``domekit.cli.main(ARGS)`` and writes the spans, counts and import time to
SPANS_JSON.  The command's output and exit code are passed through.
"""
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spans_path, argv = Path(sys.argv[1]), sys.argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import domekit.cli
    import_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return domekit.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, import_s=import_s)


if __name__ == "__main__":
    sys.exit(main())
