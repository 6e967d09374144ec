#!/usr/bin/env python3
"""Run one workload of the RTAD benchmark and print its result.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (which builds the program from src/) into $CARGO_TARGET_DIR
(default .bench_build); later runs rebuild incrementally. rtad_perfbench
measures the workload; this script checks every operation's output digest
against perfbench/reference.json and prints, as the last line of stdout,
one JSON object: {"correct", "attempted", "failed", "metrics"}. The metric
set and units come from BENCHMARK.json: end_to_end with --trace 0,
per_layer with --trace 1. Exit code 0 iff the outputs are correct.

    python3 perfbench/run.py --make-reference [--workload <name>]

regenerates reference.json: one run per input-pool entry and workload.
"""
import argparse
import concurrent.futures
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = BENCH_DIR / "reference.json"
SEED_POOL = 16  # must match kSeedPool in common.hpp
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    return json.loads(spec_path.read_text())


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail("src/CMakeLists.txt not found: run from a full checkout")
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_dir / "perfbench"
    if not (build_dir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 8)))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir


def run_binary(build_dir, workload, seed, seconds, trace, relay=True):
    """Runs rtad_perfbench; returns its result document."""
    out = build_dir / f"result-{os.getpid()}-{workload}-{seed}-{trace}.json"
    cmd = [str(build_dir / "rtad_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(out)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    if relay:
        sys.stdout.write(proc.stdout)
    if proc.returncode != 0:
        fail(f"{workload} exited with code {proc.returncode}",
             proc.returncode)
    doc = json.loads(out.read_text())
    out.unlink()
    return doc


def check_outputs(doc, reference):
    """Returns (failed operations, mismatch descriptions)."""
    entries = reference.get(doc["workload"], {})
    failed, problems = 0, []
    for c in doc["checks"]:
        want = entries.get(str(c["entry"]), {}).get(c["key"])
        if want != c["digest"]:
            failed += c["ops"]
            problems.append(f"entry {c['entry']} {c['key']}: digest "
                            f"{c['digest']}, reference {want or 'missing'}")
    if not doc["sim_identical"]:
        problems.append("traced pass retired different simulated results "
                        "than the untraced pass")
    return failed, problems


def collect_metrics(doc, names):
    """Orders the run's metrics as BENCHMARK.json lists them. A traced run
    reports the layers its workload never calls as 0."""
    got = doc["metrics"]
    absent = set(doc["absent_layers"])
    metrics = {}
    for m in names:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                fail(f"metric {name} reported in {got[name]['unit']}, "
                     f"BENCHMARK.json says {unit}")
            metrics[name] = {"value": got[name]["value"], "unit": unit}
        elif name.split(".")[0] in absent:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"workload {doc['workload']} did not report {name}")
    extra = set(got) - {m["name"] for m in names}
    if extra:
        fail(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    return metrics


def make_reference(build_dir, workloads):
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    jobs = [(w, e) for w in workloads for e in range(SEED_POOL)]
    # Two runs at a time: each trains its own models, and the telemetry
    # workload holds ~200 MiB.
    with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
        docs = pool.map(
            lambda j: run_binary(build_dir, j[0], j[1], 0, 0, relay=False),
            jobs)
        for (workload, entry), doc in zip(jobs, docs):
            digests = {}
            for c in doc["checks"]:
                if digests.setdefault(c["key"], c["digest"]) != c["digest"]:
                    fail(f"{workload} entry {entry}: {c['key']} is not "
                         "deterministic within one run")
            reference.setdefault(workload, {})[str(entry)] = digests
            print(f"perfbench: reference {workload} entry {entry}: "
                  f"{len(digests)} digests", file=sys.stderr)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")


def main():
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args()

    t0 = time.monotonic()
    build_dir = build()
    print(f"perfbench: build ready in {time.monotonic() - t0:.1f} s",
          file=sys.stderr)
    if args.make_reference:
        make_reference(build_dir,
                       [args.workload] if args.workload else workloads)
        return 0
    if args.workload is None:
        fail("--workload is required")

    doc = run_binary(build_dir, args.workload, args.seed, args.seconds,
                     args.trace)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    failed, problems = check_outputs(doc, reference)
    for p in problems:
        print(f"perfbench: INCORRECT {p}")
    names = spec["per_layer"] if args.trace else spec["end_to_end"]
    correct = not problems
    result = {
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": failed,
        "metrics": collect_metrics(doc, names),
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
