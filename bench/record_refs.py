"""Record the reference outputs every benchmark iteration is checked against.

    python3 bench/record_refs.py

Runs one iteration of every workload at both sizes on the reference seed,
at one worker, and writes ``bench/references.json``.  Run it only on a
commit whose outputs are known good (the references were recorded on the
commit named in the file); a change that alters outputs on purpose records
them again and says so.
"""

from __future__ import annotations

import json
import sys

from common import REFERENCES, SIZES, WORKLOADS, provenance
from run import BenchError, run_harness

REF_SEED = 0


def main() -> int:
    refs = {"recorded_at": provenance()["git_sha"]}
    for size in SIZES:
        outputs = {}
        for workload in WORKLOADS:
            try:
                out = run_harness(["--workload", workload, "--seed", str(REF_SEED), "--size", size, "--record"], 170.0)
            except BenchError as exc:
                print(f"record_refs: {exc}", file=sys.stderr)
                return 1
            outputs[workload] = json.loads(out.strip().splitlines()[-1])["outputs"]
            print(f"recorded {size} {workload}")
        refs[size] = {"seed": REF_SEED, "outputs": outputs}
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
