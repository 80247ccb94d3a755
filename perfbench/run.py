"""Run one workload of the ortholab benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program under test is the source
tree in ./src.  Workloads: lattice-laws, identity-check, branching, cli.

--trace 0 measures the end-to-end metrics: four worker processes, started
one after another, each set up from scratch and run whole cycles of ops
for a quarter of the seconds of op time.  Times are scaled to a reference
machine speed by a probe from speed.py, so they read as seconds on a
machine on which that probe takes its reference time; the ``on the clock``
note shows the unscaled total.  --trace 1 runs a fixed number of cycles
once untraced and once traced, and reports per-layer numbers from the
spans.  Either way the last line of output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``, and the whole
record (environment, per-class counts, failures, result digest) is written
to .perfbench/runs/ for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKERS = 4
PROBES = 5  # repetitions of each start-up probe in a traced run


def environment(root: str, seed: int) -> dict:
    sys.path.insert(0, os.path.join(root, "src"))
    import ortholab.linalg

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "backend": ortholab.linalg.Rational.__module__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def spawn(root: str, workload: str, seed: int, *budget: str) -> dict:
    """Start one worker, wait for it, and return its report plus its set-up
    time and peak RSS as seen from here."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), *budget]
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, stdout=subprocess.PIPE)
    with proc.stdout:
        out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {workload} seed {seed} exited with {proc.returncode}")
    report = json.loads(out.decode().splitlines()[-1])
    report["setup_s"] = report["first_op"] - t0
    report["maxrss_kb"] = usage.ru_maxrss
    return report


def tail(latencies):
    """The highest percentile with at least 10 ops beyond it: (value, pct, n)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def digest_check(reports, workload):
    """A cycle run by two workers must give one digest; for cli every cycle
    repeats the same argv, so every cycle must."""
    problems = []
    seen = {}
    for r in reports:
        for c, digest in r["digests"].items():
            if seen.setdefault(c, digest) != digest:
                problems.append(f"cycle {c} digests differ between workers")
    if workload == "cli" and len(set(seen.values())) != 1:
        problems.append("repeated cli argv gave different output")
    return problems


def merge_failures(reports):
    merged = {}
    for r in reports:
        for label, entry in r["failures"].items():
            m = merged.setdefault(label, dict(entry, count=0))
            m["count"] += entry["count"]
    return merged


def scaled(ops):
    """Op times at the reference machine speed of speed.py."""
    return [op[1] * op[3] for op in ops]


def measure(root, workload, seed, seconds):
    # worker k runs cycles k, k + WORKERS, ..., so no two run the same inputs
    reports = [
        spawn(root, workload, seed, "--slice", str(seconds / WORKERS), "--first", str(k),
              "--stride", str(WORKERS))
        for k in range(WORKERS)
    ]
    ops = [op for r in reports for op in r["ops"]]
    times = scaled(ops)
    ok = [t for t, op in zip(times, ops) if op[2] == "ok"]
    timed = sum(times)
    raw_timed = sum(op[1] for op in ops)
    tail_s, tail_pct, n = tail(ok)
    setups = [r["setup_s"] * r["setup_scale"] for r in reports]
    if workload == "cli":
        rss_kb = max(r["children_maxrss_kb"] for r in reports)
    else:
        rss_kb = max(r["maxrss_kb"] for r in reports)
    failed = sum(1 for op in ops if op[2] != "ok")
    metrics = {
        "ops_per_s": (len(ok) / timed, "1/s"),
        "latency_p50_ms": (statistics.median(ok) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "error_rate": (failed / len(ops), "ratio"),
    }
    notes = {
        "ops_per_s": f"{len(ok)} correct ops in {timed:.2f} s timed, {raw_timed:.2f} s on the clock",
        "latency_p50_ms": f"{len(ok)} correct ops",
        "latency_tail_ms": f"p{tail_pct:.2f}, 10 of {n} ops beyond",
        "setup_s": "median of " + ", ".join(f"{x:.3f}" for x in setups),
        "peak_rss_mb": "cli subprocesses" if workload == "cli" else "largest worker",
        "error_rate": f"{failed} of {len(ops)} ops failed",
    }
    return reports, ops, metrics, notes


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "ratio")):
        return "ratio"
    if name.endswith("max_bits"):
        return "bits"
    return "count"


def probe_seconds(root, code, env=None, scale=lambda: 1.0):
    """Median wall time of ``python -c code``, or of the number it prints,
    each sample multiplied by ``scale()`` taken just before it."""
    samples = []
    for _ in range(PROBES):
        factor = scale()
        t0 = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True, check=True
        ).stdout
        elapsed = float(out) if out.strip() else time.perf_counter() - t0
        samples.append(elapsed * factor)
    return statistics.median(samples)


def trace(root, workload, seed):
    from speed import startup_scale
    from tracing import layer_metrics

    cycles = str(WORKLOADS[workload].trace_cycles)
    plain = spawn(root, workload, seed, "--cycles", cycles)
    spans_dir = os.path.join(root, ".perfbench", "spans", f"{workload}-{seed}")
    shutil.rmtree(spans_dir, ignore_errors=True)
    os.makedirs(spans_dir)
    traced = spawn(root, workload, seed, "--cycles", cycles, "--spans-dir", spans_dir)
    reports = [plain, traced]
    files = sorted(os.path.join(spans_dir, f) for f in os.listdir(spans_dir))
    scales = {i: op[3] for i, op in enumerate(traced["ops"])}
    scales[-1] = traced["setup_scale"]
    layers = layer_metrics(files, scales)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    layers["cli.python_start_s"] = probe_seconds(root, "pass")
    layers["cli.import_s"] = probe_seconds(
        root,
        "import time; t = time.perf_counter(); import ortholab.cli;"
        " print(time.perf_counter() - t)",
        env,
        startup_scale,
    )
    layers["trace.overhead_ratio"] = sum(scaled(traced["ops"])) / sum(scaled(plain["ops"]))
    ops = plain["ops"] + traced["ops"]
    return reports, ops, layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    needed = [os.path.join("src", "ortholab", "__init__.py")]
    if args.workload == "lattice-laws":
        needed.append(os.path.join("tests", "lattice_laws.py"))
    missing = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if missing:
        print(f"perfbench: not a checkout of ortholab, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    env = environment(root, args.seed)
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print(f"input size: {WORKLOADS[args.workload].size}")
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}

    if args.trace:
        reports, ops, layers = trace(root, args.workload, args.seed)
        record["per_layer"] = layers
        metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
        for name, (value, unit) in metrics.items():
            print(f"  {name:34s} {value:14.6g} {unit}")
    else:
        reports, ops, metrics, notes = measure(root, args.workload, args.seed, args.seconds)
        record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        record["notes"] = notes
        for name, (value, unit) in metrics.items():
            print(f"  {name:16s} {value:12.4f} {unit:5s}  ({notes[name]})")

    problems = digest_check(reports, args.workload)
    failures = merge_failures(reports)
    wrong = sum(1 for op in ops if op[2] == "wrong")
    failed = sum(1 for op in ops if op[2] != "ok")
    counts = {}
    for label, *_ in ops:
        counts[label] = counts.get(label, 0) + 1
    record.update(
        attempted=len(ops),
        failed=failed,
        wrong=wrong,
        failures=failures,
        problems=problems,
        op_counts=counts,
        cycles=[len(r["digests"]) for r in reports],
        result_digest=reports[0]["digests"]["0"],
    )
    print("ops per class: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    for label, entry in sorted(failures.items()):
        print(f"failed ops: {label} x{entry['count']} ({entry['status']}): {entry['detail']}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(f"result_digest: {record['result_digest']}")

    runs = os.path.join(root, ".perfbench", "runs")
    os.makedirs(runs, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    with open(os.path.join(runs, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    result = {
        "correct": wrong == 0 and not problems,
        "attempted": len(ops),
        "failed": failed,
        # error_rate is printed above but left out here: it is 0 on some
        # workloads, and failed / attempted carry it
        "metrics": {
            k: {"value": v, "unit": u} for k, (v, u) in metrics.items() if k != "error_rate"
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
