"""Record bench/reference.json: result digests of every pool item of every
workload at the default seed. Rerun only when a result field is meant to
change; every item must pass its invariant checks first.

    python3 bench/record_reference.py
"""

import json
import os
import sys
import time

import run
import workloads


def main() -> int:
    sys.path.insert(0, run.SRC)
    doc = {"seed": run.DEFAULT_SEED, "workloads": {}}
    for name, workload in workloads.WORKLOADS.items():
        lib = run.load_library()
        pool = workload.make_pool(lib, run.DEFAULT_SEED)
        t0 = time.perf_counter()
        records = run.timed_loop(workload, lib, pool, count=len(pool))
        elapsed = time.perf_counter() - t0
        failures = run.check_records(workload, lib, pool, records, None)
        if failures:
            print(f"{name}: {len(failures)} items fail their checks: "
                  f"{next(iter(failures.values()))}", file=sys.stderr)
            return 1
        doc["workloads"][name] = [
            workloads.digest(run.item_fields(workload, outcome)) for _, _, outcome in records]
        print(f"{name}: {len(pool)} items in {elapsed:.1f} s")
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=0)
        fh.write("\n")
    print(f"wrote {os.path.relpath(run.REFERENCE, run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
