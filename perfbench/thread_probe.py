"""Print the replay digest of a short mnist-dpdr run.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/thread_probe.py <seed> <label>

run.py starts this once per BLAS thread count and compares the digests.
"""

import sys

import harness

if __name__ == "__main__":
    sys.path.insert(0, str(harness.REPO / "src"))
    seed, label = int(sys.argv[1]), sys.argv[2]
    plan = harness.mnist_dpdr(seed, harness.REPO / "perfbench" / "out" / f"probe{label}",
                              harness.Scale(mnist_steps=12, mnist_switch=6))
    rep = harness.run_repetition(plan)
    if rep.failed or len(rep.digests) != 1:
        sys.exit("probe run failed")
    print(rep.digests[0])
