"""``repro.serve`` as the benchmark runs it: a calibration hook, optional spans.

Usage (from the checkout root, ``src`` on ``PYTHONPATH``)::

    python3 perfbench/serve_launch.py CAL_FD [--spans SPANS.json] -- --socket PATH [serve flags]

Runs the unmodified ``repro-serve`` entry point.  On SIGUSR1 the server's
main thread runs :func:`common.setup_calibration` and writes the seconds
it took as one line to the inherited file descriptor ``CAL_FD``; the load
generator sends the signal only while no request is in flight, so the
block measures the server process's speed without delaying a request.
With ``--spans``, :data:`spans.SERVE_TARGETS` are installed and the spans
are written to ``SPANS.json`` when the server exits (on SIGINT, its clean
shutdown).
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

import common


def main() -> int:
    own = sys.argv[1:]
    cut = own.index("--") if "--" in own else len(own)
    own, argv = own[:cut], own[cut + 1:]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("cal_fd", type=int)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(own)

    def on_calibrate(signum, frame) -> None:
        os.write(args.cal_fd, f"{common.setup_calibration()!r}\n".encode())

    signal.signal(signal.SIGUSR1, on_calibrate)
    from repro.serve import server

    if args.spans is None:
        return server.main(argv)
    import spans

    recorder = spans.Recorder()
    spans.install(recorder, spans.SERVE_TARGETS)
    try:
        return server.main(argv)
    finally:
        recorder.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
