#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json in two sets of RUNS untraced runs,
# each run with another seed, on the code as it is now, and prints for each
# end-to-end metric the spread of each set (distance between the first and
# third quartile over the median, as `statistics.quantiles(values, n=4)`
# gives them) beside its bound, and the drift of the second set's median
# against the first. Fails when a spread (except that of setup_s) or a
# drift for the worse exceeds the bound, and prints the largest
# |reply - reference| seen (the correctness tolerances are twice that).
# Results stay in target/benchmark/stability/.
#
#   crates/benchmark/stability.sh [RUNS=10] [WORKLOAD...]
set -euo pipefail
cd "$(dirname "$0")/../.."
runs="${1:-10}"
shift || true
cargo build --release --quiet -p chet-benchmark
exec python3 - "$runs" "$@" <<'PY'
import json, pathlib, re, statistics, subprocess, sys, time

runs = int(sys.argv[1])
manifest = json.load(open("BENCHMARK.json"))
workloads = sys.argv[2:] or [w["name"] for w in manifest["workloads"]]
out = pathlib.Path("target/benchmark/stability")
out.mkdir(parents=True, exist_ok=True)
ok = True

def run(workload, seed):
    cmd = manifest["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(manifest["run_seconds"]), "--trace", "0"]
    started = time.time()
    done = subprocess.run(cmd, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.time() - started
    err = re.search(r"max \|reply - reference\| = ([0-9.e+-]+)", done.stdout)
    result["max_abs_err"] = float(err.group(1)) if err else 0.0
    (out / f"{workload}.{seed}.json").write_text(json.dumps(result))
    return result

for workload in workloads:
    sets = [[run(workload, 100 * s + i) for i in range(1, runs + 1)] for s in (1, 2)]
    walls = [r["wall_s"] for s in sets for r in s]
    failed = sum(r["failed"] for s in sets for r in s)
    worst = max(r["max_abs_err"] for s in sets for r in s)
    print(f"{workload}: {2 * runs} runs, wall median {statistics.median(walls):.1f} s "
          f"max {max(walls):.1f} s, failed operations {failed}, max |reply - reference| {worst:.6f}")
    ok &= failed == 0
    for metric in manifest["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [[r["metrics"][name]["value"] for r in s] for s in sets]
        medians = [statistics.median(v) for v in values]
        spreads = []
        for v, med in zip(values, medians):
            q = statistics.quantiles(v, n=4)
            spreads.append((q[2] - q[0]) / med)
        worse = (medians[1] - medians[0]) / medians[0]
        if metric["better"] == "higher":
            worse = -worse
        verdict = "ok"
        if name != "setup_s" and max(spreads) > bound:
            verdict = "SPREAD ABOVE BOUND"
        elif worse > bound:
            verdict = "SECOND SET WORSE THAN BOUND"
        elif name != "setup_s" and max(spreads) > bound / 3:
            verdict = "ok (spread above a third of the bound)"
        ok &= verdict.startswith("ok")
        print(f"  {name:<22} medians {medians[0]:>12.4f} {medians[1]:>12.4f} {metric['unit']:<4} "
              f"spread {100 * spreads[0]:5.1f}% {100 * spreads[1]:5.1f}%  "
              f"second worse by {100 * worse:+5.1f}%  bound {100 * bound:.0f}%  {verdict}")
sys.exit(0 if ok else 1)
PY
