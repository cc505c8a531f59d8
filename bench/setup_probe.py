"""One cold set-up of a workload, timed from outside by bench/run.py.

Starts from a fresh interpreter, imports walgebra, generates the seeded job
list and builds every job's inputs and context once.  It samples the CPU
speed all the while and prints the mean speed and the seconds the samples
took, which are not set-up time.

    python3 bench/setup_probe.py <workload> <seed>
"""

import sys

from calibrate import SpeedSampler

if __name__ == "__main__":
    with SpeedSampler(0.01) as sampler, sampler.measuring():
        import workloads
        workload, seed = sys.argv[1], int(sys.argv[2])
        for job in workloads.make_jobs(workload, seed):
            job.prepare()
    print(sampler.speed(), sampler.spent)
