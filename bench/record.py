"""Record the sha256 of each workload's CSV bytes at its sixteen reference
seeds into bench/references.json.

    python3 bench/record.py [WORKLOAD ...]

Run it from the root of a source checkout, on the commit whose output is the
reference; with no argument it records every workload.
"""

import json
import sys

import run


def main(names):
    run.load_package()
    references = json.loads(run.REFERENCES.read_text()) if run.REFERENCES.exists() else {}
    for workload in names or sorted(run.WORKLOADS):
        for offset in range(run.REFERENCE_SEEDS):
            cfg_seed, digests = run.run_workload(workload, offset)
            references.setdefault(workload, {})[str(cfg_seed)] = digests
            print(workload, cfg_seed, digests, flush=True)
            run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
