"""One polymerlab CLI run in a fresh process, timed from inside.

Usage: ``python3 child.py <spawn> <result.json> <mode> [cli argv ...]``

``spawn`` is the parent's ``time.monotonic()`` just before it started this
process (CLOCK_MONOTONIC is system-wide on Linux, so the clocks agree);
set-up time runs from there until ``polymerlab.cli`` is imported.  ``mode``
is ``setup`` (import only), ``run`` (untraced ``cli.main``) or ``trace``
(``cli.main`` with every layer function wrapped by ``tracer.Tracer``).
The result is written as JSON to ``result.json``.
"""

import json
import os
import resource
import sys
import time
import traceback

SPAWN = float(sys.argv[1])
RESULT, MODE, ARGV = sys.argv[2], sys.argv[3], sys.argv[4:]
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from polymerlab import cli  # noqa: E402  (the import is the measured set-up)

SETUP_S = time.monotonic() - SPAWN


def _usage():
    return resource.getrusage(resource.RUSAGE_SELF)


def main() -> int:
    import numpy
    import scipy

    out = {
        "mode": MODE,
        "setup_s": SETUP_S,
        "polymerlab_file": cli.__file__,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }
    if MODE != "setup":
        tracer = None
        if MODE == "trace":
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        ru0 = _usage()
        try:
            if tracer is None:
                t0 = time.perf_counter()
                code = cli.main(ARGV)
                wall = time.perf_counter() - t0
            else:
                try:
                    code, wall = tracer.run_root(cli.main, ARGV)
                finally:
                    tracer.restore()
        except Exception:  # reported to the parent as a failed run
            out["error"] = traceback.format_exc()
            code, wall = -1, 0.0
        ru1 = _usage()
        out.update(
            exit_code=code,
            wall_s=wall,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            peak_rss_mb=ru1.ru_maxrss / 1024.0,
            rss_growth_mb=(ru1.ru_maxrss - ru0.ru_maxrss) / 1024.0,
        )
        if tracer is not None:
            out["layers"] = tracer.summary()
            out["spans"] = tracer.spans
    with open(RESULT, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0 if out.get("exit_code", 0) == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
