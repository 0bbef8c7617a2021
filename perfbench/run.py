"""drinlat benchmark driver (standard library only).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads: lattice-census, hecke-newton,
places-scan (library calls, see workloads.py) and cli-readme (README CLI
commands, one fresh process each).  A run is a sequence of passes; each
pass runs the workload's whole item list once, in a fresh interpreter, so
the library's lru_caches start cold as they do for every CLI user.
Passes repeat until about S seconds are spent (and, untraced, until at
least MIN_SAMPLES item latencies exist).  Untraced, every time is reported
at reference host speed (speed.py).  Every answer is checked outside the
timed regions.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import speed  # noqa: E402
from spans import LAYERS, layer_name  # noqa: E402

WORKLOADS = ("lattice-census", "hecke-newton", "places-scan", "cli-readme")
SETUP_SAMPLES = 9     # extra set-up-only interpreters per run
MIN_SAMPLES = 100     # p90 then has at least ten samples beyond it
HARD_LIMIT_S = 120    # never start a pass that would end after this
PROCESS_TIMEOUT_S = 170

# README examples; good-prime at --max-degree 4 (places-scan covers
# degree 5), and without verify-suite (about 80 s).  good-prime, the one
# slow command, runs twice per pass: with one slow command in thirteen the
# 90th percentile fell in the gap between it and the rest.
CLI_CASES = [
    ("primes", ["primes", "--q", "2", "--max-degree", "2"]),
    ("factor", ["factor", "--q", "3", "--poly", "t^3+2*t"]),
    ("splitting", ["splitting", "--ext",
                   '{"kind":"kummer","n":2,"a":"t^3+2*t","base":"3"}',
                   "--prime", "t^2+1", "--output", "tsv"]),
    ("class-number", ["class-number", "--ext",
                      '{"kind":"kummer","n":2,"a":"t^3+2*t","base":"3"}']),
    ("predegree", ["predegree", "--ext", "@perfbench/data/ext.json",
                   "--i", "6"]),
    ("hecke-degree", ["hecke-degree", "--q", "2", "--r", "2", "--prime", "t"]),
    ("newton-polygon", ["newton-polygon", "--poly", "x^2-(1/t)", "--prime",
                        "t", "--q", "2"]),
    ("bounded", ["bounded", "--q", "2", "--prime", "t", "--companion",
                 "x^2-t"]),
    ("good-prime", ["good-prime", "--datum", "@perfbench/data/X.json",
                    "--N", "3", "--max-degree", "4"]),
    ("good-prime", ["good-prime", "--datum", "@perfbench/data/X.json",
                    "--N", "3", "--max-degree", "4"]),
    ("shrink-level", ["shrink-level", "--q", "2", "--r", "2", "--prime", "t"]),
    ("components", ["components", "--base", "2", "--level", "[]"]),
    ("cebotarev", ["cebotarev", "--ext",
                   '{"kind":"constant","n":2,"base":"5"}', "--i", "2"]),
    ("thresholds", ["thresholds", "--r", "3", "--s", "2", "--kp", "2",
                    "--degZ", "3"]),
]

# per-layer metric -> span names whose calls / self time it sums
SPAN_METRICS = {
    "ffpoly.poly_mul.calls": ["ffpoly.Poly.__mul__"],
    "ffpoly.poly_divmod.calls": ["ffpoly.Poly.__divmod__"],
    "ffpoly.poly_add.calls": ["ffpoly.Poly.__add__"],
    "ffpoly.field_mul.calls": ["ffpoly.FiniteField.mul"],
    "ffpoly.poly_factor.calls": ["ffpoly.poly_factor"],
    "ffpoly.poly_factor.self_s": ["ffpoly.poly_factor"],
    "ffpoly.primes_of_degree.calls": ["ffpoly.primes_of_degree"],
    "ffpoly.primes_of_degree.self_s": ["ffpoly.primes_of_degree"],
    "chainring.howell_form.calls": ["chainring.howell_form"],
    "chainring.howell_form.self_s": ["chainring.howell_form"],
    "chainring.solve_into_module.calls": ["chainring.solve_into_module"],
    "chainring.solve_into_module.self_s": ["chainring.solve_into_module"],
    "chainring.ring_mul.calls": ["chainring.ChainRing.mul"],
    "localfield.stabilizer_index.calls": ["localfield.stabilizer_index"],
    "localfield.stabilizer_index.self_s": ["localfield.stabilizer_index"],
    "localfield.saturation_holds.calls": ["localfield.saturation_holds"],
    "localfield.element_mul.calls": ["localfield.LocalElement.mul"],
    "localfield.element_inv.calls": ["localfield.LocalElement.inv"],
    "localfield.matmul.calls": ["localfield.LocalMatrix.__matmul__"],
    "localfield.snf.calls": ["localfield._snf_full"],
    "localfield.snf.self_s": ["localfield._snf_full",
                              "localfield.smith_normal_form",
                              "localfield.LocalMatrix.elementary_divisors",
                              "localfield.LocalMatrix.inverse"],
    "hecke.hecke_degree_d1.self_s": ["hecke.hecke_degree_d1"],
    "hecke.hecke_degree_d2.self_s": ["hecke.hecke_degree_d2"],
    "hecke.char_poly.calls": ["hecke.char_poly"],
    "hecke.char_poly.self_s": ["hecke.char_poly"],
    "hecke.newton_polygon.self_s": ["hecke.newton_polygon"],
    "hecke.projectively_bounded.self_s": ["hecke.projectively_bounded"],
    "hecke.unboundedness_sample_check.self_s":
        ["hecke.unboundedness_sample_check"],
    "extension.splitting.calls": ["extension.splitting"],
    "extension.splitting.self_s": ["extension.splitting"],
    "extension.zeta_numerator.self_s": ["extension.zeta_numerator"],
    "extension.order_at.self_s": ["extension.order_at"],
    "goodprime.find_good_prime.self_s": ["goodprime.find_good_prime"],
    "bounds.cebotarev_check.self_s": ["bounds.cebotarev_check"],
}
COUNTER_METRICS = {
    "chainring.enumerate_module.yielded": "chainring.enumerate_module.yielded",
    "localfield.hermite_sublattices.yielded":
        "localfield.hermite_sublattices.yielded",
    "goodprime.primes_scanned": "goodprime.primes_scanned",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, crash)."""


# ---------------------------------------------------------------------------
# Processes


def spawn(cmd, root):
    """Run a child to completion; returns (CompletedProcess, start, wall s)."""
    t0 = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, capture_output=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{cmd[1:3]} timed out") from exc
    return proc, t0, perf_counter() - t0


def run_worker(root, workload, seed, trace=False, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    if setup_only:
        cmd.append("--setup-only")
    proc, t0, _ = spawn(cmd, root)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): "
                         f"{proc.stderr.decode(errors='replace')[-2000:]}")
    out = json.loads(proc.stdout.decode().strip().splitlines()[-1])
    setup_s = out["t_ready"] - t0
    if not trace:
        setup_s = speed.at_reference(setup_s - out["setup_spent"], t0,
                                     out["t_ready"], out["calibration"])
    out["setup_s"] = setup_s
    return out


# ---------------------------------------------------------------------------
# Library workloads


def library_run(root, workload, seed, seconds, trace, golden):
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            setups.append(run_worker(root, workload, seed, setup_only=True)["setup_s"])
    latencies, rss_kb, failures, traces = [], 0, [], []
    cache_sizes = None
    t_start = perf_counter()
    passes = 0
    while True:
        out = run_worker(root, workload, seed, trace=trace)
        passes += 1
        setups.append(out["setup_s"])
        if cache_sizes is None:
            cache_sizes = out["setup_cache_sizes"]
        elif out["setup_cache_sizes"] != cache_sizes:
            raise BenchError(f"set-up left different caches warm: "
                             f"{out['setup_cache_sizes']} vs {cache_sizes}")
        rss_kb = max(rss_kb, out["maxrss_kb"])
        if trace:
            latencies += [item["t"] for item in out["items"]]
        else:
            latencies += [speed.at_reference(item["t"], item["t0"], item["t1"],
                                             out["calibration"])
                          for item in out["items"]]
        for item in out["items"]:
            why = checks.check_item(item, golden)
            if why is not None:
                failures.append(f"{item['key']}: {why}")
        if trace:
            traces.append(out["trace"])
        if stop(perf_counter() - t_start, passes, len(latencies), seconds, trace):
            break
    if trace:
        metrics = per_layer(traces, passes, latencies, failures)
    else:
        metrics = end_to_end(setups, latencies, rss_kb)
    return len(latencies), failures, metrics, passes


def stop(elapsed, passes, samples, seconds, trace):
    mean_pass = elapsed / passes
    if elapsed + mean_pass > HARD_LIMIT_S:
        return True
    if elapsed + mean_pass / 2 < seconds:
        return False
    return trace or samples >= MIN_SAMPLES


def end_to_end(setups, latencies, rss_kb):
    """Set-up and item times in seconds, at reference host speed."""
    return {
        "setup_s": statistics.median(setups),
        "items_per_s": len(latencies) / sum(latencies),
        "item_p50_ms": 1000 * statistics.median(latencies),
        "item_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": rss_kb / 1024,
    }


def per_layer(traces, passes, latencies, failures):
    """Per-pass means of the traced counts and self times (one trace per
    worker pass, or per CLI process)."""
    stats, counters, layer_self, built = {}, {}, {}, 0
    for tr in traces:
        for name, (calls, _, self_s) in tr["stats"].items():
            acc = stats.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, n in tr["counters"].items():
            counters[name] = counters.get(name, 0) + n
        for name, s in tr["layer_self"].items():
            layer_self[name] = layer_self.get(name, 0.0) + s
        built += tr.get("residue_fields_built", 0)
    out = {}
    for layer in map(layer_name, LAYERS):
        out[f"{layer}.self_s"] = layer_self.get(layer, 0.0) / passes
    for metric, spans in SPAN_METRICS.items():
        col = 0 if metric.endswith(".calls") else 1
        out[metric] = sum(stats.get(s, [0, 0.0])[col] for s in spans) / passes
    for metric, counter in COUNTER_METRICS.items():
        out[metric] = counters.get(counter, 0) / passes
    out["ffpoly.residue_fields.built"] = built / passes
    cand = counters.get("localfield.stabilizer.candidates", 0)
    out["localfield.stabilizer.unit_ratio"] = (
        counters.get("localfield.stabilizer.units", 0) / cand if cand else 0.0)
    sat = stats.get("localfield.saturation_holds", [0])[0]
    out["localfield.saturation_holds.true_ratio"] = (
        counters.get("localfield.saturation_holds.true", 0) / sat if sat else 0.0)
    out["trace.items_per_s"] = len(latencies) / sum(latencies)
    out["bench.error_rate"] = len(failures) / len(latencies)
    # cli-readme overrides these; the library workloads never enter the cli
    out["cli.main.self_s"] = out["cli.self_s"]
    out["cli.import_s"] = out["cli.process_overhead_s"] = 0.0
    return out


# ---------------------------------------------------------------------------
# cli-readme


def cli_process(root, args, trace_out, cal_out):
    """One cli_launch.py process: (CompletedProcess, start, wall seconds,
    the process's calibration or None)."""
    cmd = [sys.executable, os.path.join(HERE, "cli_launch.py"),
           os.path.join(root, "src"), trace_out, cal_out, "--"] + args
    if cal_out == "-":
        return spawn(cmd, root) + (None,)
    if os.path.exists(cal_out):
        os.remove(cal_out)
    proc, t0, wall = spawn(cmd, root)
    try:
        with open(cal_out, encoding="utf-8") as fh:
            return proc, t0, wall, json.load(fh)
    except OSError as exc:
        raise BenchError(f"{args[:1]}: no calibration written: "
                         f"{proc.stderr.decode(errors='replace')[-2000:]}") from exc


def cli_run(root, seed, seconds, trace, golden):
    work = os.path.join(HERE, ".work")
    os.makedirs(work, exist_ok=True)
    trace_out = os.path.join(work, "cli_trace.json") if trace else "-"
    cal_out = "-" if trace else os.path.join(work, "cli_calibration.json")
    setups = []
    if not trace:
        for _ in range(SETUP_SAMPLES):  # fresh interpreter to drinlat.cli imported
            proc, t0, _, cal = cli_process(root, [], "-", cal_out)
            if proc.returncode != 0:
                raise BenchError(proc.stderr.decode(errors="replace")[-2000:])
            setups.append(speed.at_reference(cal["t_ready"] - t0 - cal["spent"],
                                             t0, cal["t_ready"], cal["calibration"]))
    rng = random.Random(f"{seed}:cli-readme")
    latencies, failures, traces, imports = [], [], [], []
    overhead_s = 0.0
    t_start = perf_counter()
    passes = 0
    while True:
        cases = list(CLI_CASES)
        rng.shuffle(cases)
        for name, args in cases:
            proc, t0, wall, cal = cli_process(root, args, trace_out, cal_out)
            if cal is not None:
                wall = speed.at_reference(wall - cal["spent"], t0, t0 + wall,
                                          cal["calibration"])
            latencies.append(wall)
            got = {"returncode": proc.returncode,
                   "stdout": proc.stdout.decode(errors="replace"),
                   "stderr": proc.stderr.decode(errors="replace")}
            why = checks.check_cli(name, got, golden)
            if why is not None:
                failures.append(f"{name}: {why}")
            if trace:
                with open(trace_out, encoding="utf-8") as fh:
                    tr = json.load(fh)
                traces.append(tr)
                overhead_s += wall - tr["main_s"]
                imports.append(tr["import_s"])
        passes += 1
        if stop(perf_counter() - t_start, passes, len(latencies), seconds, trace):
            break
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if not trace:
        return (len(latencies), failures,
                end_to_end(setups, latencies, rss_kb), passes)
    metrics = per_layer(traces, passes, latencies, failures)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["cli.process_overhead_s"] = overhead_s / passes
    return len(latencies), failures, metrics, passes


# ---------------------------------------------------------------------------


def load_metric_units(root):
    """{name: unit} of the end-to-end and of the per-layer metrics."""
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def prepare(root):
    """Fail unless the program is present; compile everything to bytecode."""
    pkg = os.path.join(root, "src", "drinlat")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        raise BenchError(f"no drinlat package under {pkg}")
    if not (compileall.compile_dir(pkg, quiet=1)
            and compileall.compile_dir(HERE, quiet=1, maxlevels=0)):
        raise BenchError("byte-compiling the sources failed")
    golden = {}
    for workload in ("lattice-census", "cli-readme"):
        with open(os.path.join(HERE, "golden", f"{workload}.json"),
                  encoding="utf-8") as fh:
            golden[workload] = json.load(fh)
    return golden


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    trace = bool(args.trace)
    try:
        golden = prepare(root)
        e2e_units, layer_units = load_metric_units(root)
        if args.workload == "cli-readme":
            attempted, failures, metrics, passes = cli_run(
                root, args.seed, args.seconds, trace, golden)
        else:
            attempted, failures, metrics, passes = library_run(
                root, args.workload, args.seed, args.seconds, trace, golden)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    units = layer_units if trace else e2e_units
    missing = [n for n in units if n not in metrics]
    if missing:
        print(f"perfbench: metrics not produced: {missing}", file=sys.stderr)
        return 2
    print(f"workload={args.workload} seed={args.seed} passes={passes} "
          f"items={attempted} failed={len(failures)} trace={args.trace}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
