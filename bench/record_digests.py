"""Record the reference output digests in bench/digests.json.

Runs every instance that any seed can select once, checks it with its
certificate and stores the digest of its canonical output.  Run it only
when an output is meant to change:

    python3 bench/record_digests.py
"""

import json
from pathlib import Path

import workloads

SEEDS = range(64)  # enough seeds to reach every instance variant

if __name__ == "__main__":
    jobs = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for job in workloads.make_jobs(workload, seed):
                jobs.setdefault(job.key, job)
    digests = {}
    for key, job in sorted(jobs.items()):
        state = job.prepare()
        out = job.run(state)
        if not job.certify(state, out):
            raise SystemExit(f"certificate failed: {key}")
        digests[key] = workloads.digest(job.canonical(out))
        print(key, digests[key], flush=True)
    path = Path(__file__).resolve().parent / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
