"""Regenerate digests.json: the sha256 of report_to_json for every op of
every workload at the default seed.

    python3 bench/make_digests.py

Run it only when a change is meant to alter the report JSON, and say so.
"""
import json

from inputs import DEFAULT_SEED, workload_inputs
from run import DIGESTS, WORKLOADS, import_package, options_for, run_op, sha256


def main():
    q = import_package()
    out = {}
    for workload in WORKLOADS:
        options = options_for(q, workload)
        out[workload] = {}
        for spec in workload_inputs(workload, DEFAULT_SEED):
            _, js, err = run_op(q, spec, options)
            if err is not None:
                raise SystemExit(f"{spec}: stage {err[0]}: {err[1]!r}")
            out[workload][spec] = sha256(js)
    DIGESTS.write_text(json.dumps(out, indent=0, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
