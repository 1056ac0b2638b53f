#!/usr/bin/env python3
"""Fleet-simulator benchmark: builds the `fleetbench` binary and runs one
workload in its own process.

    python3 fleetbench/run.py --workload rack_backlog --seed 1 --seconds 40 --trace 0
    python3 fleetbench/run.py --selftest

Run from the repository root (or any checkout of it). The last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`,
its per-layer metrics with `--trace 1`. The lines before it give the
host fingerprint and the run's details; the same record, with the
fingerprint, is written under `.bench_out/results/`. See
fleetbench/README.md for the workloads and what each metric means.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ["rack_backlog", "sparse_fleet", "hetero_faults"]
# Inputs no tuning has seen: re-check a gain claimed on other seeds here.
HELD_OUT_SEED = 271828
CHILD_TIMEOUT_S = 170


def fail(msg):
    print(f"fleetbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    target = env["CARGO_TARGET_DIR"]
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(ROOT, "fleetbench", "Cargo.toml")]
    # Build output goes to stderr; stdout carries only the result.
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(target, "release", "fleetbench")


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def source_hash():
    """sha256 of the sources the benchmark builds, for checkouts that are
    not git repositories."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "crates", "src", "vendor", "fleetbench"]:
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d != "target" and not d.startswith("."))
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
        if os.path.isfile(os.path.join(ROOT, top)):
            with open(os.path.join(ROOT, top), "rb") as f:
                h.update(top.encode() + f.read())
    return h.hexdigest()[:16]


def fingerprint(seed, workload, trace):
    def out(cmd):
        try:
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30,
                               env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)})
            return r.stdout.strip() if r.returncode == 0 else "unknown"
        except (OSError, subprocess.TimeoutExpired):
            return "unknown"
    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "rustc": out(["rustc", "-V"]),
        "git_rev": out(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_hash(),
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, from /proc/stat."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def run_child(binary, mode, workload, seed, seconds, scale):
    """Runs one workload process; returns its JSON record, with the share
    of CPU time the hypervisor took from this host meanwhile."""
    env = dict(os.environ)
    # ClusterBuilder honours this; a stray value reroutes every rack
    # through the threaded solver.
    env.pop("SPRINT_SOLVER_THREADS", None)
    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    spans = os.path.join(OUT, "spans", f"{workload}-{scale}-seed{seed}.jsonl")
    cmd = [binary, mode, workload, str(seed), str(seconds), scale, spans]
    steal0, total0 = cpu_ticks()
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                           timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {CHILD_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"{workload} exited with {r.returncode}")
    rec = json.loads(r.stdout.strip().splitlines()[-1])
    steal1, total1 = cpu_ticks()
    rec["details"]["host_steal_frac"] = (steal1 - steal0) / max(total1 - total0, 1)
    return rec


def digest_repeats(binary, workload, scale, seed, digest):
    """The report digest of one seed must be the same in every run of
    one build: the first run records it, later runs compare."""
    with open(binary, "rb") as f:
        build_id = hashlib.sha256(f.read()).hexdigest()[:16]
    path = os.path.join(OUT, "digests", build_id, f"{workload}-{scale}-seed{seed}.txt")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path) as f:
            return f.read().strip() == digest
    with open(path, "w") as f:
        f.write(digest + "\n")
    return True


def measure(binary, workload, seed, seconds, trace, scale="full"):
    mode = "traced" if trace else "timed"
    rec = run_child(binary, mode, workload, seed, seconds, scale)
    details = rec.pop("details")
    if not digest_repeats(binary, workload, scale, seed, details["digest"]):
        rec["correct"] = False
        rec["failed"] = rec["attempted"]
        details["checks_failed"].append("digest repeats across runs of the seed")
    declared = declared_metrics(trace)
    got = {k: v["unit"] for k, v in rec["metrics"].items()}
    if got != declared:
        fail(f"metrics {sorted(got.items())} differ from BENCHMARK.json {sorted(declared.items())}")
    for name, m in rec["metrics"].items():
        if not (isinstance(m["value"], (int, float)) and math.isfinite(m["value"])):
            fail(f"{name} is not a finite number")
    fp = fingerprint(seed, workload, trace)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    with open(os.path.join(OUT, "results", f"{workload}-{scale}-seed{seed}-trace{trace}.json"), "w") as f:
        json.dump({"fingerprint": fp, "details": details, **rec}, f, indent=1)
    return fp, details, rec


def selftest():
    """Every workload at tiny scale, untraced and traced: every declared
    metric printed with its unit, and the correctness gate passed."""
    binary = build()
    ok = True
    for w in WORKLOADS:
        for trace in (0, 1):
            _, details, rec = measure(binary, w, 1, 1, trace, scale="tiny")
            passed = rec["correct"] and rec["attempted"] >= 1
            ok &= passed
            print(f"{'PASS' if passed else 'FAIL'} {w} trace={trace} "
                  f"metrics={len(rec['metrics'])} digest={details['digest']} "
                  f"checks_failed={details['checks_failed']}")
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        ap.error("--workload is required")
    binary = build()
    fp, details, rec = measure(binary, args.workload, args.seed, args.seconds, args.trace)
    print("fingerprint " + json.dumps(fp))
    print("details " + json.dumps(details))
    print(json.dumps({k: rec[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
