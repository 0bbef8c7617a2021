"""One fresh interpreter of a library workload: set up, then (unless
--setup-only) run every item once, timing each library call.

Prints one JSON object on stdout.  Usage (from the repository root):

    python3 perfbench/worker.py --workload lattice-census --seed 0 [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import sys
from time import perf_counter

import speed

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")


def fail(msg: str) -> None:
    print(f"perfbench worker: {msg}", file=sys.stderr)
    sys.exit(3)


def lru_caches():
    from drinlat import ffpoly
    return {"_field_of_order": ffpoly._field_of_order,
            "residue_field": ffpoly.residue_field,
            "_primes_of_degree_cached": ffpoly._primes_of_degree_cached}


def import_drinlat() -> None:
    """Import every drinlat module from precompiled bytecode."""
    sys.path.insert(0, SRC)
    import drinlat.cli  # noqa: F401  (imports every module of the package)
    mods = [m for name, m in sys.modules.items()
            if name == "drinlat" or name.startswith("drinlat.")]
    for m in mods:
        path = os.path.realpath(m.__file__)
        if not path.startswith(os.path.realpath(SRC) + os.sep):
            fail(f"{m.__name__} imported from {path}, not from {SRC}")
        cached = importlib.util.cache_from_source(m.__file__)
        if not os.path.exists(cached) or \
                os.path.getmtime(cached) < os.path.getmtime(m.__file__):
            fail(f"{m.__name__} has no fresh bytecode; compile during set-up")
    for name, cache in lru_caches().items():
        if cache.cache_info().currsize:
            fail(f"lru_cache {name} is warm in a fresh interpreter")


def run_units(units, records, raw, meter):
    """The timed loop: one library call per item, in order.  Time spent
    in `meter`'s calibration handler is not counted in the item."""
    pending = list(reversed(units))
    while pending:
        unit = pending.pop()
        error = None
        result = None
        spent = meter.spent
        t0 = perf_counter()
        try:
            result = unit.call()
        except Exception as exc:  # an item that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        t1 = perf_counter()
        records.append((unit, t1 - t0 - (meter.spent - spent), t0, t1, error))
        raw.append(result)
        if error is None and unit.follow is not None:
            pending.extend(reversed(unit.follow(result)))


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # Traced runs are not calibrated: the handler would add to span times.
    meter = speed.Meter()
    if not args.trace:
        meter.start()
    import_drinlat()
    caches = lru_caches()  # the cache objects themselves, before any wrapping
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    import workloads
    units = workloads.BUILDERS[args.workload](args.seed)
    t_ready = perf_counter()
    setup_spent = meter.spent
    if args.setup_only:
        meter.stop()
        print(json.dumps({"t_ready": t_ready, "setup_spent": setup_spent,
                          "calibration": meter.record()}))
        return

    # Set-up may fill caches while it builds inputs (extension constructors
    # factor their radicands); run.py checks these sizes repeat exactly.
    setup_cache_sizes = {name: c.cache_info().currsize
                         for name, c in caches.items()}
    residue_before = caches["residue_field"].cache_info()
    if tracer is not None:
        tracer.reset(keep=("localfield.hermite_sublattices.yielded",))
    modules_before = set(sys.modules)

    records, raw = [], []
    run_units(units, records, raw, meter)
    meter.stop()
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    new_mods = [m for m in set(sys.modules) - modules_before
                if m.startswith("drinlat")]
    if new_mods:
        fail(f"timed items imported {sorted(new_mods)}")
    residue_after = caches["residue_field"].cache_info()
    trace = None
    if tracer is not None:
        tracer.uninstall()
        trace = {"stats": tracer.stats, "counters": tracer.counters,
                 "layer_self": tracer.layer_self(),
                 "residue_fields_built": residue_after.misses - residue_before.misses}

    items = []
    for (unit, dt, t0, t1, error), result in zip(records, raw):
        answer = None
        if error is None:
            try:
                answer = unit.answer(result)
            except Exception as exc:
                error = f"{type(exc).__name__}: {exc}"
        oracle = None
        if unit.oracle is not None:
            try:
                oracle = unit.oracle()
            except Exception as exc:
                oracle = {"oracle_error": f"{type(exc).__name__}: {exc}"}
        items.append({"key": unit.key, "t": dt, "t0": t0, "t1": t1,
                      "answer": answer,
                      "error": error, "oracle": oracle})
    print(json.dumps({
        "t_ready": t_ready,
        "setup_spent": setup_spent,
        "calibration": meter.record(),
        "maxrss_kb": maxrss_kb,
        "setup_cache_sizes": setup_cache_sizes,
        "items": items,
        "trace": trace,
    }))


if __name__ == "__main__":
    main()
