"""Record the gate's reference results for some seeds of one workload.

    python3 perfbench/record.py --workload lyft_medium --seeds 0 1 2

Runs each seed's pipeline in one session and adds its result dicts to
``reference.json``. An entry already stored is never changed: a seed
whose new result differs is reported and the command exits with 1.
"""
from __future__ import annotations

import argparse
import json
import sys

import gate
from workloads import WORKLOADS, configure_env


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seeds", type=int, nargs="+", required=True)
    args = p.parse_args(argv)
    configure_env()
    from repro.eval import harness

    from workloads import run_app, seeded_inputs, start_session, stop_session

    w = WORKLOADS[args.workload]
    spark = start_session(f"perfbench-record-{args.workload}")
    refs = gate.load_references()
    differ = []
    for seed in args.seeds:
        with seeded_inputs(w, seed):
            prep = harness.prepare(spark, w.dataset, w.scale)
            for app in w.apps:
                got = gate.normalise(run_app(spark, prep, w, app))
                entry = refs.setdefault(args.workload, {}).setdefault(str(seed), {})
                if app in entry and entry[app] != got:
                    differ.append(f"seed {seed} {app}: stored {entry[app]}, now {got}")
                entry.setdefault(app, got)
        spark.catalog.clearCache()
        with open(gate.REFERENCE_FILE, "w") as f:
            json.dump(refs, f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"seed {seed}: {refs[args.workload][str(seed)]}", flush=True)
    stop_session(spark)
    for d in differ:
        print(d, file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
