"""Run one crosswidth CLI command with the layer wrappers installed.

    python perfbench/trace_child.py OUT.json <cli arguments...>

stdout and the exit code are the command's own; the trace summary, the
spans and the import time go to OUT.json.
"""

import json
import sys
import time


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    from crosswidth import cli
    import_s = time.perf_counter() - t0

    import tracer

    tr = tracer.Tracer().install()
    tr.task = " ".join(argv[:1])
    try:
        rc = cli.main(argv)
    finally:
        saved = tr.restore()
    sys.stdout.flush()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "import_s": import_s,
            "restored": tracer.Tracer.all_restored(saved),
            "summary": tr.summary(),
            "spans": tr.spans,
        }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
