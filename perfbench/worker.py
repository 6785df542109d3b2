"""One repetition of a workload in a fresh interpreter; prints one JSON line.

Usage: python3 perfbench/worker.py ROOT WORKLOAD SEED MODE [SPANS_FILE]

MODE is `plain` (timed region, untraced), `trace` (the same with the
tracer installed; spans go to SPANS_FILE) or `checks` (run_checks with each
check id alone, untraced).  `first_call` is the CLOCK_MONOTONIC time of the
first timed call, from which the parent derives set-up time.
"""

from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time


def main(argv) -> int:
    root, workload_name, seed, mode = argv[0], argv[1], int(argv[2]), argv[3]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import subtree_density
    if not os.path.abspath(subtree_density.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"subtree_density was imported from {subtree_density.__file__}, not {src}",
              file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    workload = workloads.workloads()[workload_name]
    inputs = workload.inputs(seed)
    out = {"mode": mode}
    if mode == "checks":
        out["first_call"] = time.monotonic()
        out["check_s"] = workload.check_times(inputs, seed)
    else:
        digest = workloads.pinned_digest(workload_name, seed)
        tracer = Tracer() if mode == "trace" else None
        with tracer or contextlib.nullcontext():
            out["first_call"] = time.monotonic()
            result = workload.run(inputs, seed, digest)
        out.update(wall_s=result.wall_s, items_ms=result.items_ms,
                   attempted=result.attempted, failed=result.failed,
                   problems=result.problems[:20])
        if tracer is not None:
            out["layer"] = {
                "calls": tracer.calls, "items": tracer.items,
                "self_s": tracer.self_times(), "absent": tracer.absent,
                "count_bits_max": tracer.count_bits_max,
                "sr_rejected": tracer.sr_rejected,
                "violations": result.violations,
                "equality_cases": result.equality_cases,
                "spans": len(tracer.starts),
            }
            tracer.write_spans(argv[4])
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
