"""Record the reference values every benchmark job is compared against.

    python3 perfbench/record_references.py

The values do not depend on the workload seed (see workloads.py), so one
seed records them; rerun only when a change is meant to move them.
"""

import json
import os
import shutil
import sys

import run  # pins the BLAS thread count before numpy loads


def main():
    sys.path.insert(0, run.SRC)
    import workloads

    references = {}
    for workload in workloads.WORKLOADS:
        out = os.path.join(run.OUT, f"record-{workload}")
        os.makedirs(out, exist_ok=True)
        try:
            _, _, jobs, _ = run.setup(workload, 0, out, None)
            references[workload] = {}
            for job in jobs:
                rec = run.run_job(workload, job, None)
                if rec["problems"]:
                    raise SystemExit("; ".join(rec["problems"]))
                references[workload][job.name] = rec["values"]
                print(f"{workload}/{job.name}: {rec['values']}")
        finally:
            shutil.rmtree(out, ignore_errors=True)
    with open(workloads.REFERENCES, "w") as fh:
        json.dump(references, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
