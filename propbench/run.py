#!/usr/bin/env python3
"""The propbench command.

    python3 propbench/run.py --workload W --seed N --seconds S --trace 0|1

builds the benchmark from source (release profile) and runs one
measurement; its last line of output is the JSON result.

    python3 propbench/run.py steady

runs every workload of BENCHMARK.json for its run_seconds with seeds 1
to 10, seed by seed with the workloads in turn, and prints for each
workload and end-to-end metric the median, the quartiles and the spread
(interquartile distance over the median) against the metric's bound.
Both forms must be started from the root of a propane checkout.
"""

import json
import os
import statistics
import subprocess
import sys

EXE = os.path.join("_build", "default", "propbench", "main.exe")


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir(os.path.join("lib", "propane"))):
        sys.exit("propbench: no propane sources here (dune-project, lib/propane); "
                 "run from the root of a checkout")
    cmd = ["dune", "build", "--root", ".", "--cache=disabled", "--profile", "release",
           "./propbench/main.exe"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("propbench: build failed")


def environment():
    env = dict(os.environ)
    env["PROPBENCH_PROFILE"] = "release"
    # Never look for a repository above the checkout.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(os.getcwd())
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
        env["PROPBENCH_GIT_REV"] = rev.stdout.strip() if rev.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        env["PROPBENCH_GIT_REV"] = "none"
    return env


def steady(argv):
    if argv:
        sys.exit(__doc__)
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    env = environment()
    values = {name: {} for name in names}
    shares = {name: set() for name in names}
    # Seed by seed, every workload in turn, so that each workload's ten
    # runs see the same phases of the host.
    for seed in range(1, 11):
        for name in names:
            out = subprocess.run([EXE, "--workload", name, "--seed", str(seed), "--seconds",
                                  str(spec["run_seconds"]), "--trace", "0"],
                                 env=env, capture_output=True, text=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if out.returncode != 0 or not result["correct"]:
                sys.exit(f"propbench steady: {name} seed {seed} failed:\n{out.stdout}")
            shares[name].add(result["failed"] / result["attempted"])
            for k, m in result["metrics"].items():
                values[name].setdefault(k, []).append(m["value"])
            print(f"# {name} seed {seed}: " +
                  " ".join(f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()),
                  flush=True)
    for name in names:
        print(f"{name}: failed share {sorted(shares[name])}")
        for metric in spec["end_to_end"]:
            vs = values[name][metric["name"]]
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            bound = metric["bound"]
            verdict = "ok" if spread <= bound / 3 else ("wide" if spread <= bound else "OVER")
            print(f"  {metric['name']:<12} median {med:12.6g} {metric['unit']:<4} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.4f} "
                  f"bound {bound:.2f} ({verdict})", flush=True)


def main():
    args = sys.argv[1:]
    build()
    if args and args[0] == "steady":
        steady(args[1:])
        return
    proc = subprocess.run([EXE] + args, env=environment())
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
