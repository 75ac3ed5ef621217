#!/usr/bin/env python3
"""Repo benchmark: builds the kibamrm library and the benchmark binary from
source, runs one workload, checks every curve against its reference and
prints the result.

    python3 perfbench/run.py --workload fig8_d25 --seed 1 --seconds 10 --trace 0

Run it from the root of a checkout.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it holds the run manifest and the details of the check.  With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

WORKLOADS = ("fig8_d25", "fig8_d10_mt", "sweep")
# Largest absolute difference from the reference curve a curve may show:
# tolerates the mixed kernel tier's ~1e-6 and is still ~4 orders of
# magnitude below the Delta 25 -> 10 change of the fig8 curve.
CURVE_TOLERANCE = 1e-5
# The sweep scenario that carries the simulator comparison.
ANCHOR_LABEL = "anchor fig8 D=50"


class BenchmarkError(Exception):
    """The benchmark itself cannot run (as opposed to a failed curve)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


def run_checked(command, timeout, capture=False):
    """Runs a child to completion (killing it on timeout) and returns its
    standard output when captured."""
    try:
        result = subprocess.run(
            command, cwd=ROOT, timeout=timeout, text=True,
            stdout=subprocess.PIPE if capture else sys.stderr,
            stderr=sys.stderr)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"timed out after {timeout} s: {command[0]}")
    except OSError as error:
        raise BenchmarkError(f"cannot run {command[0]}: {error}")
    if result.returncode != 0:
        raise BenchmarkError(
            f"{' '.join(command[:2])} exited with {result.returncode}")
    return result.stdout


def declared_units(kind):
    """Metric name -> unit of one BENCHMARK.json metric list."""
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Configures once and (re)builds kibamrm_perfbench; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "src", "kibamrm")):
        raise BenchmarkError(
            "kibamrm sources not found: run from the root of a checkout")
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_checked(["cmake", "--build", out, "--target", "kibamrm_perfbench",
                 "-j", jobs], BUILD_TIMEOUT_S)
    return os.path.join(out, "kibamrm_perfbench")


def load_json(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def committed_reference(workload, seed, reference_dir):
    """Reference curves committed for this workload and seed, or None."""
    name = f"sweep_seed{seed}.json" if workload == "sweep" else f"{workload}.json"
    path = os.path.join(reference_dir, name)
    return load_json(path)["curves"] if os.path.exists(path) else None


def max_gap(curve, reference):
    if len(curve["times"]) != len(reference["times"]) or any(
            abs(a - b) > 1e-9 * max(1.0, abs(b))
            for a, b in zip(curve["times"], reference["times"])):
        return None  # different time grids cannot be compared
    return max(abs(a - b) for a, b in
               zip(curve["probabilities"], reference["probabilities"]))


def check_curves(curves, references):
    """Returns (requests failed by the check, error messages).  Every request
    that produced a curve produced this one bit for bit (kibamrm_perfbench
    counts those that did not), so a curve off its reference fails all of
    them."""
    failed, errors = 0, []
    by_label = {r["label"]: r for r in references}
    for curve in curves:
        if curve["produced"] == 0:
            continue  # no curve: already counted as failed by kibamrm_perfbench
        reference = by_label.get(curve["label"])
        gap = None
        if reference is None or reference["probabilities"] == "missing":
            problem = "no reference curve"
        elif reference["fingerprint"] != curve["fingerprint"]:
            problem = "reference was made from other inputs"
        else:
            gap = max_gap(curve, reference)
            problem = ("time grid differs from the reference" if gap is None
                       else f"max gap {gap:.3g} to the reference")
        if gap is None or gap > CURVE_TOLERANCE:
            failed += curve["produced"]
            errors.append(f"{curve['label']}: {problem}")
    return failed, errors


def ks_to_sim(curves, workload, simulator):
    """Largest absolute gap between the fig8-model curve of the run and the
    fixed-seed simulator ECDF, over the fig8 grid; 1 when there is none."""
    label = ANCHOR_LABEL if workload == "sweep" else None
    for curve in curves:
        if curve["produced"] and (label is None or curve["label"] == label):
            gap = max_gap(curve, simulator)
            return 1.0 if gap is None else gap
    return 1.0


def git_state():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return {"commit": None, "dirty": None,
                "note": "not a git checkout"}
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None, "note": "git unavailable"}
    return {"commit": commit.stdout.strip() or None,
            "dirty": bool(status.stdout.strip())}


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(args):
    binary = build()
    references = committed_reference(args.workload, args.seed,
                                     args.reference_dir)
    command = [binary, "run", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--solve-reference", "0" if references is not None else "1",
               "--trace-out",
               os.path.join(build_dir(), f"trace_{args.workload}.json")]
    raw = json.loads(run_checked(command, RUN_TIMEOUT_S, capture=True))
    if references is None:
        references = raw["reference"]
    simulator = load_json(os.path.join(args.reference_dir, "fig8_simulator.json"))

    check_failed, check_errors = check_curves(raw["curves"], references)
    attempted = int(raw["attempted"])
    failed = min(attempted, int(raw["failed"]) + check_failed)

    if args.trace:
        values = raw["layers"]
    else:
        values = {name: value for name, value in raw["metrics"].items()
                  if name != "requests"}
        values["ks_to_sim"] = ks_to_sim(raw["curves"], args.workload, simulator)
    units = declared_units("per_layer" if args.trace else "end_to_end")
    if set(values) != set(units):
        raise BenchmarkError(
            f"kibamrm_perfbench reported {sorted(values)}, BENCHMARK.json declares "
            f"{sorted(units)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}

    manifest = dict(raw["manifest"])
    manifest.update({"git": git_state(), "cpu_model": cpu_model(),
                     "nproc": os.cpu_count(), "workload": args.workload,
                     "seed": args.seed, "seconds": args.seconds,
                     "trace": args.trace})
    details = {"errors": raw["errors"] + check_errors,
               "requests": raw["metrics"]["requests"],
               "scenarios": [c["label"] for c in raw["curves"]],
               "solve_samples": raw["solve_samples"],
               "speed_probe_gbps": raw["speed_probe_gbps"],
               "reference": ("committed" if "reference" not in raw
                             else "solved in this run")}
    if args.trace:
        details["layer_notes"] = raw["layer_notes"]
    print(json.dumps({"manifest": manifest, "details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--reference-dir", default=REFERENCE_DIR,
                        help="directory of reference curves (tests use a "
                             "perturbed copy)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        measure(args)
    except (BenchmarkError, OSError, ValueError, KeyError) as error:
        log(f"perfbench: {error}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
