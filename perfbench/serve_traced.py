"""``repro serve`` with the layer tracer installed (traced run only).

Usage: ``python perfbench/serve_traced.py SPILL_DIR serve [OPTIONS]``
with ``src`` on ``PYTHONPATH``.  Tracing is on from the start.
``SIGUSR2`` switches it off, writes the recorded spans to
``SPILL_DIR/spans-<pid>.jsonl`` and then creates ``SPILL_DIR/done``;
spans stay in memory until then, so no request pays for file writes.
The benchmark keeps the spans that lie inside its timed window.
"""

import os
import signal
import sys

from tracing import Tracer, install


def main() -> int:
    spill_dir, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(spill_dir=spill_dir)

    def finish(signum, frame):
        tracer.enabled = False
        tracer.spill()
        open(os.path.join(spill_dir, "done"), "w").close()
    signal.signal(signal.SIGUSR2, finish)
    install(tracer)

    from repro.__main__ import main as repro_main
    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())
