"""Run one drinlat CLI command as the `drinlat` console script would.

    python3 perfbench/cli_launch.py SRC TRACE_OUT CAL_OUT -- ARGS...

SRC is the source directory to import drinlat from.  With TRACE_OUT
other than "-", the layers are traced and a JSON summary (import time,
in-process main time, spans) is written to that file.  With CAL_OUT
other than "-", the process calibrates its speed from its start
(speed.py) and writes the samples, the time drinlat.cli was imported and
the time spent calibrating to that file.  Without ARGS it only imports
drinlat.cli: that is cli-readme's set-up probe.  stdout, stderr and the
exit code are the command's own either way.
"""

import sys
from time import perf_counter

import speed


def run(src, trace_out, args, marks):
    sys.path.insert(0, src)
    t0 = perf_counter()
    import drinlat.cli
    marks["t_ready"] = perf_counter()
    import_s = marks["t_ready"] - t0
    if not args:
        return 0
    if trace_out == "-":
        return drinlat.cli.main(args)
    import json
    from spans import Tracer
    tracer = Tracer()
    tracer.install()
    t1 = perf_counter()
    try:
        return drinlat.cli.main(args)
    finally:
        main_s = perf_counter() - t1
        tracer.uninstall()
        with open(trace_out, "w", encoding="utf-8") as fh:
            json.dump({"import_s": import_s, "main_s": main_s,
                       "stats": tracer.stats, "counters": tracer.counters,
                       "layer_self": tracer.layer_self()}, fh)


def main() -> int:
    src, trace_out, cal_out = sys.argv[1:4]
    meter = speed.Meter()
    if cal_out != "-":
        meter.start()
    marks = {}
    try:
        return run(src, trace_out, sys.argv[5:], marks)
    finally:
        meter.stop()
        if cal_out != "-":
            import json
            with open(cal_out, "w", encoding="utf-8") as fh:
                json.dump({"t_ready": marks.get("t_ready"), "spent": meter.spent,
                           "calibration": meter.record()}, fh)


if __name__ == "__main__":
    sys.exit(main())
