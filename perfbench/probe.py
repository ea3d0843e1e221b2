"""Time one benchmark set-up in a fresh process: import sovchain and build
the inputs of a workload's first pass. Prints the seconds taken.

    python3 perfbench/probe.py --workload dense-ops --seed 7
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402

from workloads import import_sovchain, make_workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    import_sovchain()
    wl = make_workloads()[args.workload]
    try:
        wl.pass_jobs(args.seed, 0)
        print(time.perf_counter() - START)
    finally:
        wl.cleanup()


if __name__ == "__main__":
    main()
