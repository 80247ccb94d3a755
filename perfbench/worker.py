"""One worker process of a benchmark run.

    python3 perfbench/worker.py WORKLOAD SEED (--slice SECONDS | --cycles N)
        [--first C] [--stride S] [--spans-dir DIR]

Started by run.py from the root of a checkout.  It sets the workload up,
then runs whole cycles of ops, numbered C, C+S, C+2S, ...: until the ops
have taken ``--slice`` seconds at the reference speed of speed.py (at
least one cycle), or exactly ``--cycles`` cycles.  Counting scaled op time,
not wall time, keeps the number of ops in a run independent of the
machine's speed, and with it the percentile that latency_tail_ms reads.  Each op is timed alone;
its answer check runs outside the timed region.  The workload's probe from
speed.py runs whenever PROBE_EVERY_S have passed since the last one, so
every op lies between two probes and carries the mean of their scales.
Set-up carries the mean scale of probes at its start and end.  With ``--spans-dir`` the
calls into ortholab are traced and the spans written there at exit.  The
last line of output is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
PROBE_EVERY_S = 0.05


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    budget = parser.add_mutually_exclusive_group(required=True)
    budget.add_argument("--slice", type=float)
    budget.add_argument("--cycles", type=int)
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--stride", type=int, default=1)
    parser.add_argument("--spans-dir")
    args = parser.parse_args()

    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    start_scale = cls.speed()
    tracer = None
    if cls is workloads.Cli:
        workdir = os.path.join(ROOT, ".perfbench", "cli", str(args.seed))
        traced_cli = None
        if args.spans_dir:
            traced_cli = (os.path.join(HERE, "cli_traced.py"), args.spans_dir)
        workload = cls(args.seed, workdir, ROOT, traced_cli)
    else:
        workload = cls(args.seed)
        if args.spans_dir:
            import lattice_laws
            from tracing import SETUP_OP, Tracer

            tracer = Tracer()
            tracer.install([lattice_laws])

    workload.setup()
    c = args.first
    specs = workload.cycle(c)
    first_op = time.monotonic()
    before = cls.speed()
    probed_at = time.perf_counter()
    setup_scale = (start_scale + before) / 2
    ops, digests, failures = [], {}, {}
    measured = 0.0
    pending = []  # ops since the last probe, waiting for the next one
    quiet = tracer.paused if tracer is not None else contextlib.nullcontext

    def settle():
        nonlocal before, probed_at
        with quiet():
            after = cls.speed()
        probed_at = time.perf_counter()
        for op in pending:
            op[3] = (before + after) / 2
        pending.clear()
        before = after

    while True:
        outputs = []
        for spec in specs:
            if time.perf_counter() - probed_at >= PROBE_EVERY_S:
                settle()
            if tracer is not None:
                tracer.current_op = len(ops)
            t0 = time.perf_counter()
            try:
                out = workload.run(spec)
                error = None
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"{type(exc).__name__}: {str(exc)[:160]}"
            elapsed = time.perf_counter() - t0
            with quiet():
                if error is None:
                    status, canonical, detail = workload.check(spec, out)
                else:
                    status, canonical, detail = "failed", error.split(":", 1)[0], error
            out = None  # release the op's output before the next op
            outputs.append(canonical)
            label = workload.label(spec)
            ops.append([label, elapsed, status, before])
            pending.append(ops[-1])
            measured += elapsed * before
            if status != "ok":
                entry = failures.setdefault(label, {"count": 0, "status": status})
                entry["count"] += 1
                entry.setdefault("detail", detail)
        # sorted, so the digest does not depend on the cycle's op order
        digests[c] = hashlib.sha256("\n".join(sorted(outputs)).encode()).hexdigest()
        if tracer is not None:
            tracer.current_op = SETUP_OP
        c += args.stride
        if args.cycles is not None:
            if len(digests) >= args.cycles:
                break
        elif measured >= args.slice:
            break
        specs = workload.cycle(c)
    settle()

    result = {
        "first_op": first_op,
        "setup_scale": setup_scale,
        "ops": ops,
        "digests": digests,
        "failures": failures,
        "children_maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        tracer.write(os.path.join(args.spans_dir, "worker.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
