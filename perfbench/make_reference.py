#!/usr/bin/env python3
"""Regenerates the benchmark's reference data in perfbench/reference/:

    fig8_d25.json, fig8_d10_mt.json, sweep_seed1.json
        reference curves, solved by the serial uniformisation engine without
        steady-state detection (the conservative configuration);
    fig8_simulator.json
        the fixed-seed Monte Carlo ECDF of the fig8 model on the fig8 grid.

    python3 perfbench/make_reference.py [--only NAME ...]

Run it from the root of a checkout.  Regenerate only when the benchmark's
inputs change; a library change that moves a curve by more than the
tolerance is what the check exists to catch.  The Delta = 10 reference
takes about a minute on one core.
"""

import argparse
import json
import os
import sys

import run

TARGETS = {
    "fig8_d25": ["reference", "--workload", "fig8_d25", "--seed", "1"],
    "fig8_d10_mt": ["reference", "--workload", "fig8_d10_mt", "--seed", "1"],
    "sweep_seed1": ["reference", "--workload", "sweep", "--seed", "1"],
    "fig8_simulator": ["simulate"],
}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="*", choices=sorted(TARGETS),
                        default=sorted(TARGETS))
    args = parser.parse_args()
    try:
        binary = run.build()
        os.makedirs(run.REFERENCE_DIR, exist_ok=True)
        for name in args.only:
            run.log(f"generating {name}")
            text = run.run_checked([binary] + TARGETS[name], 3600, capture=True)
            data = json.loads(text)
            path = os.path.join(run.REFERENCE_DIR, f"{name}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(data, handle, indent=1)
                handle.write("\n")
    except run.BenchmarkError as error:
        run.log(f"make_reference: {error}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
