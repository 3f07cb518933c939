#!/usr/bin/env python3
"""End-to-end benchmark of the Palermo oblivious KV service.

Builds benchmark/palermo_bench (a standalone CMake project over the
simulator sources), runs it one rep per process, aggregates the reps,
checks them, and prints every metric with its unit.

  python3 benchmark/run.py --workload NAME --seed N --seconds T --trace 0|1
      One workload. --trace 0 runs timed reps until T seconds of measured
      window have passed (3 to 6 reps) and reports the end-to-end metrics;
      --trace 1 runs rep 0 and its traced twin and reports the per-layer
      metrics. The last stdout line is the result as one JSON object.

  python3 benchmark/run.py [--seed N] [--out FILE] [--smoke]
      A full set: 3 timed rounds, then 1 traced round, each round running
      the four workloads in turn. --out writes the results document that
      `compare` reads. --smoke shrinks every rep (2^16 blocks, 400
      measured completions) but runs every check.

  python3 benchmark/run.py compare BASE.json NEW.json
      One row per workload and metric, each side's reps, median and best,
      and the bound from BENCHMARK.json.

A failed check exits 1 and names the workload. See benchmark/README.md.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "benchmark"

WORKLOADS = ["closed-sat", "open-tail", "ring-sat", "sparse-large"]
SEEDS = 3     # R: rep i of base seed S simulates seed R*S + i.
MAX_REPS = 6  # Reps past R repeat seeds; they add host samples only.
FULL = {"warmup": 2000, "measured": 10000}
SMOKE = {"warmup": 100, "measured": 400, "log2_blocks": 16}
RESIDUAL_LIMIT = 0.10

# Deterministic per-rep values that a traced run and any repeat of the
# same seed must reproduce exactly.
IDENTITY = ["end_tick", "served", "dram_reads", "dram_writes",
            "latency_sum", "completions", "offered", "rejected"]

# Host-measured end-to-end metrics and the per-rep value behind each.
REP_KEYS = {"host_req_per_s": "req_per_s", "setup_s": "setup_s",
            "peak_rss_mb": "peak_rss_mb"}


class CheckFailed(Exception):
    pass


def spec_units(section):
    """Metric name -> unit for one BENCHMARK.json section, in order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configure once, then build; returns the palermo_bench path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise CheckFailed("simulator sources not found next to benchmark/")
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--parallel",
                   str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            raise CheckFailed("build failed: " + " ".join(step))
    return BUILD_DIR / "palermo_bench"


def run_rep(binary, workload, seed, size, trace):
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--warmup", str(size["warmup"]),
           "--measured", str(size["measured"])]
    if "log2_blocks" in size:
        cmd += ["--log2-blocks", str(size["log2_blocks"])]
    if trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise CheckFailed(f"{workload}: palermo_bench exited "
                          f"{proc.returncode}: {proc.stderr.strip()}")
    rep = json.loads(proc.stdout)
    if rep["problems"]:
        raise CheckFailed(f"{workload} (seed {seed}): "
                          + "; ".join(rep["problems"]))
    if not trace:
        rep["window_rates"] = [rep["window_completions"] / seconds
                               for seconds in rep["window_s"]]
        rep["req_per_s"] = window_rate(rep["window_rates"])
    return rep


def rep_seed(base_seed, index):
    return SEEDS * base_seed + index % SEEDS


def nearest_rank(ordered, per_mille):
    """Exact nearest-rank quantile of a sorted list."""
    rank = -(-per_mille * len(ordered) // 1000)
    return ordered[max(rank, 1) - 1]


def window_rate(rates):
    """Host req/s: the 90th-percentile window. The shared host slows
    the process by up to ~40% for seconds at a time; a high quantile
    is the rate the code reaches when it is not being slowed."""
    return nearest_rank(sorted(rates), 900)


def check_repeats(workload, reps):
    """Reps that share a seed must simulate identically."""
    first = {}
    for rep in reps:
        seen = first.setdefault(rep["seed"], rep)
        for key in IDENTITY:
            if rep[key] != seen[key]:
                raise CheckFailed(f"{workload}: seed {rep['seed']} gave "
                                  f"{key} {seen[key]} then {rep[key]}")


def end_to_end(reps):
    """Host metrics over every rep (req/s over the windows of all of
    them). Simulated metrics pooled over the first SEEDS reps, one per
    seed."""
    pooled = reps[:SEEDS]
    latencies = sorted(x for rep in pooled for x in rep["latencies"])
    completed = sum(rep["measured_completed"] for rep in pooled)
    cycles = sum(rep["measured_cycles"] for rep in pooled)
    return {
        "host_req_per_s": window_rate(
            [rate for rep in reps for rate in rep["window_rates"]]),
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in reps),
        "sim_req_per_kcycle": 1000.0 * completed / cycles,
        "lat_p50_cycles": nearest_rank(latencies, 500),
        "lat_p99_cycles": nearest_rank(latencies, 990),
        "lat_p999_cycles": nearest_rank(latencies, 999),
    }


def check_trace(workload, rep0, traced):
    for key in IDENTITY:
        if traced[key] != rep0[key]:
            raise CheckFailed(f"{workload}: traced run gave {key} "
                              f"{traced[key]}, rep 0 gave {rep0[key]}")


def per_layer(reps, traced):
    """Layer metrics from the timed reps and the traced twin of rep 0."""
    layer = traced["layer_s"]
    served = traced["served"]
    stepped = traced["stepped_cycles"]
    run_s = traced["run_s"]
    rep0 = reps[0]

    def mean(key):
        return statistics.fmean(rep[key] for rep in reps)

    def per_req(seconds):
        return seconds * 1e9 / served

    return {
        "service.offer_ns": 1e9 * sum(r["offer_s"] for r in reps)
        / sum(r["offered"] for r in reps),
        "sim.cycles_per_req": mean("measured_cycles")
        / mean("measured_completed"),
        "sim.stepped_cycles_per_req": stepped / served,
        "sim.session_ns_per_req": per_req(layer["loop"] + layer["idle"]),
        "sim.completion_ns_per_req": per_req(layer["completion"]),
        "controller.tick_ns_per_cycle": layer["tick"] * 1e9 / stepped,
        "controller.tick_ns_per_req": per_req(layer["tick"]),
        "controller.push_ns_per_req": per_req(layer["push"]),
        "controller.avg_outstanding": mean("avg_outstanding"),
        "controller.sync_frac": mean("sync_frac"),
        **{f"controller.level_dram_share.{level}": statistics.fmean(
            r["level_dram_share"][index] for r in reps)
           for index, level in enumerate(["data", "pos1", "pos2"])},
        "controller.lat_mean_cycles": mean("ctrl_lat_mean_cycles"),
        "oram.build_s": traced["build_s"],
        "oram.stash_max": max(r["stash_max"] for r in reps),
        "oram.dram_reads_per_req": mean("reads_per_req"),
        "oram.dram_writes_per_req": mean("writes_per_req"),
        "mem.tick_ns_per_cycle": layer["dram"] * 1e9 / stepped,
        "mem.tick_ns_per_req": per_req(layer["dram"]),
        "mem.bw_util": mean("bw_util"),
        "mem.row_hit_rate": mean("row_hit_rate"),
        "mem.row_conflict_rate": mean("row_conflict_rate"),
        "mem.read_latency_cycles": mean("read_latency_cycles"),
        "security.gate_ms": traced["gate_ms"],
        "security.chi2_ratio": traced["chi2_ratio"],
        "security.serial_corr_abs": abs(traced["serial_corr"]),
        "security.mi_bits": traced["mi_bits"],
        "trace.timer_ns": traced["timer_ns"],
        "trace.residual_abs_frac": abs(run_s - sum(layer.values())) / run_s,
        "trace.overhead_frac": run_s / rep0["run_s"] - 1.0,
    }


def print_split(workload, traced):
    """Share of traced host time per layer call, and the residual."""
    run_s = traced["run_s"]
    parts = " ".join(f"{name}={100 * seconds / run_s:.1f}%"
                     for name, seconds in traced["layer_s"].items())
    residual = (run_s - sum(traced["layer_s"].values())) / run_s
    print(f"{workload} traced split of {run_s:.2f} s: {parts} "
          f"residual={100 * residual:+.1f}%")
    if abs(residual) > RESIDUAL_LIMIT:
        log(f"warning: {workload} traced residual exceeds "
            f"{RESIDUAL_LIMIT:.0%}")


def print_metrics(workload, metrics, section):
    """Print in BENCHMARK.json order, whose names must match exactly."""
    units = spec_units(section)
    if set(metrics) != set(units):
        raise CheckFailed("metrics differ from BENCHMARK.json: "
                          + ", ".join(sorted(set(metrics) ^ set(units))))
    for name, unit in units.items():
        print(f"{workload:<13} {name:<34} {metrics[name]:>14.6g} {unit}")
    return units


def run_single(args):
    """One workload: the end-to-end or the per-layer metrics."""
    binary = args.bin or build()
    size = SMOKE if args.smoke else FULL
    if args.trace:
        rep0 = run_rep(binary, args.workload, rep_seed(args.seed, 0), size,
                       False)
        traced = run_rep(binary, args.workload, rep_seed(args.seed, 0),
                         size, True)
        check_trace(args.workload, rep0, traced)
        print_split(args.workload, traced)
        metrics, section = per_layer([rep0], traced), "per_layer"
        reps = [rep0, traced]
    else:
        reps, measured = [], 0.0
        while len(reps) < SEEDS or (measured < args.seconds
                                    and len(reps) < MAX_REPS):
            reps.append(run_rep(binary, args.workload,
                                rep_seed(args.seed, len(reps)), size,
                                False))
            measured += reps[-1]["measured_s"]
        check_repeats(args.workload, reps)
        metrics, section = end_to_end(reps), "end_to_end"
    units = print_metrics(args.workload, metrics, section)
    print(json.dumps({
        "correct": True,
        "attempted": sum(rep["offered"] for rep in reps),
        "failed": sum(rep["rejected"] for rep in reps),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def host_stamp(rep):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "compiler": rep["compiler"],
        "build_type": rep["build_type"],
        "git_describe": rep["git_describe"],
    }


def run_set(args):
    """3 timed rounds then 1 traced round, workloads interleaved."""
    binary = args.bin or build()
    size = SMOKE if args.smoke else FULL
    reps = {w: [] for w in WORKLOADS}
    for index in range(SEEDS):
        for workload in WORKLOADS:
            reps[workload].append(run_rep(binary, workload,
                                          rep_seed(args.seed, index), size,
                                          False))
    document = {
        "host": host_stamp(reps[WORKLOADS[0]][0]),
        "seed": args.seed,
        "reps": SEEDS,
        "size": size,
        "workloads": {},
    }
    for workload in WORKLOADS:
        traced = run_rep(binary, workload, rep_seed(args.seed, 0), size, True)
        check_repeats(workload, reps[workload])
        check_trace(workload, reps[workload][0], traced)
        e2e = end_to_end(reps[workload])
        layers = per_layer(reps[workload], traced)
        print_metrics(workload, e2e, "end_to_end")
        print_metrics(workload, layers, "per_layer")
        print_split(workload, traced)
        document["workloads"][workload] = {
            "reps": [{key: rep[key] for key in
                      ["seed", "setup_s", "req_per_s", "window_rates",
                       "peak_rss_mb", "measured_s", "run_s", "offer_s"]}
                     for rep in reps[workload]],
            "end_to_end": e2e,
            "per_layer": layers,
            "traced": {key: value for key, value in traced.items()
                       if key != "problems"},
        }
    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
        print(f"wrote {args.out}")


def compare(base_path, new_path):
    """Each side's reps, median and best per metric, against its bound."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base = json.loads(Path(base_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    print(f"{'workload':<13} {'metric':<19} {'base reps':<30} "
          f"{'new reps':<30} {'base med/best':<20} {'new med/best':<20} "
          f"{'bound':>6}  verdict")
    for workload in WORKLOADS:
        if workload not in base or workload not in new:
            print(f"{workload:<13} missing from one side")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            lower = metric["better"] == "lower"
            if name in REP_KEYS:
                a = [r[REP_KEYS[name]] for r in base[workload]["reps"]]
                b = [r[REP_KEYS[name]] for r in new[workload]["reps"]]
            else:
                a = [base[workload]["end_to_end"][name]]
                b = [new[workload]["end_to_end"][name]]
            verdict = judge(name, a, b, metric["bound"], lower)
            best = min if lower else max
            print(f"{workload:<13} {name:<19} {fmt(a):<30} {fmt(b):<30} "
                  f"{fmt([statistics.median(a), best(a)]):<20} "
                  f"{fmt([statistics.median(b), best(b)]):<20} "
                  f"{metric['bound']:>6.0%}  {verdict}")


def judge(name, base, new, bound, lower):
    if name not in REP_KEYS:
        return "same" if base == new else "modelled behaviour changed"
    sign = -1.0 if lower else 1.0
    a, b = statistics.median(base), statistics.median(new)
    change = sign * (b - a) / a
    spread = max((max(s) - min(s)) / statistics.median(s)
                 for s in (base, new))
    every_better = all(sign * (y - x) > 0 for x in base for y in new)
    if spread > bound and not every_better:
        return f"unresolved (rep spread {spread:.1%} > bound)"
    if change < -bound:
        return f"regressed {change:+.1%}"
    return f"{change:+.1%} within bound" if change <= bound \
        else f"improved {change:+.1%}"


def fmt(values):
    return ",".join(f"{v:.6g}" for v in values)


def main(argv):
    for key in [k for k in os.environ if k.startswith("PALERMO_")]:
        del os.environ[key]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            sys.exit("usage: run.py compare BASE.json NEW.json")
        compare(argv[1], argv[2])
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--bin", help="prebuilt palermo_bench (skip build)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    start = time.monotonic()
    try:
        if args.workload:
            run_single(args)
        else:
            run_set(args)
    except CheckFailed as failure:
        log(f"FAILED: {failure}")
        return 1
    log(f"done in {time.monotonic() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
