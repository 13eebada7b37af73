"""Set-up probe: a benchmark process up to its first solver call.

Run as ``python3 perfbench/probe.py GRAPH RATIO INSTANCES SEED``.  It
times importing ``treeroute`` from the checkout and generating the run's
instances, at nominal CPU speed (see reference.py), and prints that time
and a digest of the instances.  The interpreter's own start-up comes
before and is not counted: no change to the program can move it, and
process creation on a shared machine is the noisiest part of it.
"""

if __name__ == "__main__":
    from reference import with_speed

    def set_up():
        import time
        start = time.perf_counter()
        import sys
        from pathlib import Path

        root = Path(__file__).resolve().parents[1]
        sys.path[:0] = [str(root / "src"), str(root)]
        from perfbench.workloads import Workload, build_instances, instances_digest

        graph, ratio, count, seed = sys.argv[1:]
        cell = Workload("probe", "ls", graph, ratio, int(count), 0, 1.0)
        digest = instances_digest(build_instances(cell, int(seed)))
        return time.perf_counter() - start, digest

    (seconds, digest), speed = with_speed(set_up)
    print(seconds * speed, digest)
