"""One benchmark child: a packbound operation, sampled by a CPU-speed probe.

    python3 perfbench/child.py <probe-file> op <packbound arguments...>
    python3 perfbench/child.py <probe-file> setup

``op`` runs ``packbound.cli.main`` on the arguments, as the console script
does; ``setup`` imports ``packbound.cli`` and builds its parser.  While it
runs, a profiling timer fires every PROBE_INTERVAL_S of CPU time and times
one fixed unit of stdlib ``Fraction`` arithmetic.  At exit the child writes
``<probe count> <sum of speeds>`` to the probe file, where a probe's speed
is PROBE_REF_S over its duration.  A machine shared with other tenants
slows the operation and the probe alike, so time × mean speed is the time
the operation takes on a CPU that runs the probe in PROBE_REF_S.  The
probe uses nothing from ``packbound``, so a change to the program does not
move it.  Its stdout and stderr are the operation's.
"""

import gc
import signal
import sys
import time
from fractions import Fraction

PROBE_REF_S = 100e-6  # the reference machine's probe duration
PROBE_INTERVAL_S = 0.005  # of process CPU time; a probe costs about 2 % of it

speeds = []


def probe_unit() -> Fraction:
    total = Fraction(0)
    for i in range(1, 41):
        total += Fraction(1, i)
    return total


def on_timer(signum, frame) -> None:
    # a collection of the operation's heap must not land in a probe
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    probe_unit()
    speeds.append(PROBE_REF_S / (time.perf_counter() - start))
    if collecting:
        gc.enable()


def main() -> int:
    probe_path, mode, *args = sys.argv[1:]
    signal.signal(signal.SIGPROF, on_timer)
    signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        if mode == "setup":
            import packbound.cli as cli
            cli.build_parser()
            code = 0
        else:
            from packbound.cli import main as cli_main
            code = cli_main(args)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        with open(probe_path, "w") as out:
            out.write(f"{len(speeds)} {sum(speeds)!r}\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
