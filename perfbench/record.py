"""Record the per-instance fingerprints that run.py checks every iteration against.

Usage (from the repository root)::

    python3 perfbench/record.py

Runs every workload once on every input instance at full size and rewrites
fingerprints.json. Rerun only when a change alters the numerics on purpose,
and say so in the change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads as wl


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    run.import_ancsim()
    recorded = {}
    for workload in wl.WORKLOADS:
        recorded[workload] = {}
        for instance in range(wl.N_INSTANCES):
            recorded[workload][str(instance)] = run.reference_fingerprint(workload, instance, "full")
            print(f"{workload} instance {instance} recorded", flush=True)
    run.FINGERPRINTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
