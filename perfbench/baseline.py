#!/usr/bin/env python3
"""Measures the benchmark's baseline and writes perfbench/BASELINE.json.

Run from the repository root:

    python3 perfbench/baseline.py

Each workload of BENCHMARK.json runs once with tracing off on each of the
seeds 1..10, and once traced on each of 101..103. The runs are interleaved
(every workload at one seed, then the next seed, in a fixed shuffled seed
order), so slow drift of the host's speed spreads over all seeds and
workloads instead of lining up with the seed. For every metric the file
records the median, the quartiles (Python's statistics.quantiles, n = 4),
their spread as a share of the median, and the raw runs in seed order;
plus the host, toolchain and data-dir filesystem, and the mapping from the
older BENCH_*.json rows.
"""

import datetime
import json
import os
import random
import statistics
import subprocess
import sys

E2E_SEEDS = list(range(1, 11))
TRACED_SEEDS = list(range(101, 104))

# Rows of the three pre-existing BENCH files and the per-layer metric that
# now measures the same thing. Those files stay as history.
LEGACY_BENCH_MAP = [
    {
        "file": "BENCH_chain_step.json",
        "row": "ns_per_step (chain_step/lambda4, n = 100/400/1600)",
        "now": "core.chain.step_ns",
        "note": "traced runs time CompressionChain::run(k) / k on each workload's start",
    },
    {
        "file": "BENCH_kmc.json",
        "row": "accepted_moves_per_sec (chain_equilibrium, lambda = 6)",
        "now": "core.kmc.event_us",
        "note": "the inverse quantity: wall microseconds per accepted KMC move, with core.kmc.steps_per_event",
    },
    {
        "file": "BENCH_shard.json",
        "row": "median_s_per_10_rounds (flat and sharded ladder, n = 1e6)",
        "now": "core.sharded.flat_round_ms, core.sharded.round_ms.w1, core.sharded.round_ms.w2, core.sharded.efficiency",
        "note": "per round at n = 20 000 in the spiral probe of compress-line's traced run; multiply by 10 for s/10 rounds",
    },
]


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit(f"{' '.join(argv)} failed ({out.returncode}):\n{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def summary(values):
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, 0, median)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_over_median": (q3 - q1) / median if median else 0.0,
        "runs": values,
    }


def filesystem_of(path):
    path = os.path.realpath(path)
    best = ("", "unknown")
    with open("/proc/mounts") as mounts:
        for line in mounts:
            fields = line.split()
            point, fstype = fields[1], fields[2]
            if (path == point or path.startswith(point.rstrip("/") + "/")) and len(point) > len(best[0]):
                best = (point, fstype)
    return best[1]


def tool_version(argv):
    try:
        return subprocess.run(argv, capture_output=True, text=True).stdout.strip()
    except OSError:
        return "unknown"


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command, seconds = bench["command"], bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]

    order = [(trace, seed) for trace, seeds in ((0, E2E_SEEDS), (1, TRACED_SEEDS)) for seed in seeds]
    random.Random(0).shuffle(order)
    results = {}
    for trace, seed in order:
        for name in names:
            r = run_once(command, name, seed, seconds, trace)
            if not r["correct"]:
                sys.exit(f"{name} seed {seed}: an output check failed")
            results[(name, trace, seed)] = r
            print(f"{name} seed {seed} trace {trace} done", file=sys.stderr, flush=True)

    workloads = {}
    for name in names:
        workloads[name] = {}
        for kind, seeds, trace in (("end_to_end", E2E_SEEDS, 0), ("per_layer", TRACED_SEEDS, 1)):
            values, units = {}, {}
            for seed in seeds:
                for metric, v in results[(name, trace, seed)]["metrics"].items():
                    values.setdefault(metric, []).append(v["value"])
                    units[metric] = v["unit"]
            workloads[name][kind] = {m: {"unit": units[m], **summary(vs)} for m, vs in values.items()}

    commit = tool_version(["git", "rev-parse", "HEAD"]) or "unknown"
    baseline = {
        "what": "perfbench baseline; regenerate with python3 perfbench/baseline.py",
        "commit": commit,
        "date": datetime.date.today().isoformat(),
        "host": {
            "available_parallelism": len(os.sched_getaffinity(0)),
            "kernel": os.uname().release,
        },
        "toolchain": [tool_version(["rustc", "--version"]), tool_version(["cargo", "--version"])],
        "data_dir_filesystem": filesystem_of("."),
        "run_seconds": seconds,
        "seeds": {
            "end_to_end": E2E_SEEDS,
            "traced": TRACED_SEEDS,
            "run_order": [{"trace": t, "seed": s} for t, s in order],
            "note": "a claimed gain must also hold on a seed outside these",
        },
        "workloads": workloads,
        "legacy_bench_map": LEGACY_BENCH_MAP,
    }
    with open("perfbench/BASELINE.json", "w") as f:
        json.dump(baseline, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
