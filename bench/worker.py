"""One fresh interpreter running one benchmark workload.

Started by run.py.  It imports ``dmgeo.cli`` from the checkout's ``src``,
draws the workload's inputs, warms up on the first round and stamps the
moment the first timed item could start.  In ``setup`` mode it stops
there; in ``measure`` mode it then runs the closed loop untraced; in
``trace`` mode it alternates untraced and traced passes over the pool.
The last line of standard output is one JSON object for run.py.

Every timing is reported twice: as wall time, and scaled to a host on
which the reference loop takes ``REFERENCE_LOOP_S`` (see :class:`Host`).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

#: seconds between two readings of the host's speed
REPICK_S = 0.1
#: at most this many allowed CPUs are probed
PROBE_CPUS = 8
#: iterations of the reference loop
LOOP_STEPS = 10000
#: passes of the reference loop averaged into one reading
LOOP_PASSES = 5
#: scaled timings are those of a host on which the reference loop takes this
REFERENCE_LOOP_S = 1e-3


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    return p.parse_args()


def _loop():
    """Mean wall time of LOOP_PASSES passes of the fixed pure-Python
    reference loop."""
    start = time.perf_counter()
    for _ in range(LOOP_PASSES):
        total = 0
        for i in range(LOOP_STEPS):
            total += i * i
    return (time.perf_counter() - start) / LOOP_PASSES


class Host:
    """Reads the host's current speed and keeps this process on the allowed
    CPU where the reference loop currently runs fastest.

    On a shared host the speed of every kind of work drifts by up to 1.8x,
    for seconds to minutes at a time, and each CPU is slowed by its
    neighbours at different moments (see NOTES.md).  Every REPICK_S
    seconds, between items, it times the reference loop on each allowed
    CPU, moves to the fastest and keeps that time as ``loop_s``.  The time
    is a mean, not a minimum, so that it takes in the short stalls the
    items take in too.  :meth:`scale` turns a wall time into the time the
    same work would take on a host where the loop takes REFERENCE_LOOP_S.
    Where the affinity cannot be read or set, it times the loop where it
    runs.
    """

    def __init__(self):
        try:
            self.cpus = sorted(os.sched_getaffinity(0))[:PROBE_CPUS]
        except (AttributeError, OSError):
            self.cpus = []
        self.due = 0.0
        self.loop_s = None
        self.readings = []

    def __call__(self):
        if time.perf_counter() < self.due:
            return
        timings = []
        if len(self.cpus) >= 2:
            try:
                for cpu in self.cpus:
                    os.sched_setaffinity(0, {cpu})
                    timings.append((_loop(), cpu))
                os.sched_setaffinity(0, {min(timings)[1]})
            except OSError:
                self.cpus, timings = [], []
        if not timings:
            timings = [(_loop(), None)]
        self.loop_s = min(timings)[0]
        self.readings.append(self.loop_s)
        self.due = time.perf_counter() + REPICK_S

    def scale(self, seconds, loop_s=None):
        return seconds * REFERENCE_LOOP_S / (loop_s or self.loop_s)


def run_items(items, stats, host, tracer=None):
    """Time each item's run, then check its output with the clock stopped.

    Returns the round's latencies as (wall, scaled) seconds.
    """
    latencies = []
    for item in items:
        host()
        if tracer is not None:
            tracer.item = stats["attempted"]
            tracer.active = True
        start = time.perf_counter()
        try:
            output = item.run()
            error = None
        except Exception as exc:  # an item that raises is a failed item
            error = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.active = False
        stats["attempted"] += 1
        latencies.append((elapsed, host.scale(elapsed)))
        if error is None:
            try:
                item.check(output)
            except Exception as exc:  # includes Mismatch, KeyError on bad reports
                error = exc
        if error is not None:
            stats["failed"] += 1
            if len(stats["failures"]) < 5:
                stats["failures"].append(f"{item.kind}: {type(error).__name__}: {error}")
    return latencies


def _stats():
    return {"attempted": 0, "failed": 0, "failures": []}


def closed_loop(rounds, seconds, stats, host):
    """Cycle the pool round by round until ``seconds`` of wall time pass.

    Returns each round's latencies.
    """
    deadline = time.perf_counter() + seconds
    done = []
    while not done or time.perf_counter() < deadline:
        done.append(run_items(rounds[len(done) % len(rounds)], stats, host))
    return done


def traced_passes(rounds, seconds, stats, host, tracer):
    """Pairs of whole passes over the pool, one untraced and one traced,
    until ``seconds`` pass.  The pass that goes first alternates, and both
    passes of a pair run with the wrappers installed.

    Returns the untraced and the traced rounds' latencies, each pair's
    traced over untraced scaled pass time, and the tracer's counts per
    traced pass; for identical inputs every traced pass must count the same.
    """
    def traced_pass():
        before = tracer.counts()
        done = [run_items(items, stats, host, tracer) for items in rounds]
        after = tracer.counts()
        per_pass.append({key: after[key] - before.get(key, 0) for key in after})
        return done

    deadline = time.perf_counter() + seconds
    untraced, traced, ratios, per_pass = [], [], [], []
    while not per_pass or time.perf_counter() < deadline:
        traced_first = len(per_pass) % 2 == 1
        rec = traced_pass() if traced_first else None
        plain = [run_items(items, stats, host) for items in rounds]
        if not traced_first:
            rec = traced_pass()
        untraced += plain
        traced += rec
        ratios.append(_scaled_sum(rec) / _scaled_sum(plain))
    return untraced, traced, ratios, per_pass


def _latencies(done, which):
    """Wall (0) or scaled (1) latencies of every item in ``done``."""
    return [pair[which] for latencies in done for pair in latencies]


def _scaled_sum(done):
    return sum(_latencies(done, 1))


def _rate(done):
    return len(_latencies(done, 1)) / _scaled_sum(done)


def _layer_numbers(tracer, items, factor):
    """Per-item layer times and counts over the traced items; ``factor``
    scales span times as :meth:`Host.scale` scales item times."""
    inclusive, own = tracer.summary()

    def ms(seconds):
        return 1e3 * seconds * factor / items

    out = {
        "cli.build_parser.ms": ms(inclusive["cli.build_parser"]),
        "cli.main.self_ms": ms(own["cli.main"]),
        "documents.parse_matrix_document.ms": ms(inclusive["documents.parse_matrix_document"]),
        "documents.dumps.ms": ms(inclusive["documents.dumps"]
                                 + inclusive["documents.matrix_document"]),
        "documents.digest.ms": ms(inclusive["documents.digest"]),
        "documents.bytes_in": tracer.bytes_in / items,
        "documents.bytes_out": tracer.bytes_out / items,
        "core.check_density.ms": ms(inclusive["core.check_density"]),
        "core.spectral_decompose.ms": ms(inclusive["core.spectral_decompose"]),
        "core.validate_density.calls": tracer.calls["core.validate_density"] / items,
        "core.validate_density.ms": ms(inclusive["core.validate_density"]),
        "purification.purify.ms": ms(inclusive["purification.purify"]),
        "purification.partial_trace_b.ms": ms(inclusive["purification.partial_trace_b"]),
        "purification.schmidt.ms": ms(inclusive["purification.schmidt"]),
        "purification.connecting_unitary.ms": ms(inclusive["purification.connecting_unitary"]),
        "strata.classify.ms": ms(inclusive["strata.classify"]),
        "strata.convex_split.self_ms": ms(own["strata.convex_split"]),
        "strata.tangent_space_rank.ms": ms(inclusive["strata.tangent_space_rank"]),
        "sampling.random_generic_density.ms": ms(inclusive["sampling.random_generic_density"]),
    }
    for name in ("eigh", "eigvalsh", "svd", "qr", "det"):
        out[f"linalg.{name}.calls"] = tracer.calls[f"linalg.{name}"] / items
    return out


def _machine(host):
    import numpy as np

    info = {
        "cpus_probed": host.cpus,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        info["cpu"] = "unknown"
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            info[f"L{level}"] = size
    return info


def main():
    args = _args()
    host = Host()
    host()
    root = Path(args.root)
    src = root / "src"
    sys.path.insert(0, str(src))
    import dmgeo.cli

    if not Path(dmgeo.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"dmgeo imported from {dmgeo.cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    import gc

    import workloads

    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work)
    try:
        host()
        workload = workloads.build(args.workload, args.seed, workdir)
        run_items(workload.rounds[0], _stats(), host)  # warm-up, not counted
        # the pool is the benchmark's data: keep it out of the collector's scans
        gc.collect()
        gc.freeze()
        ready = time.monotonic()
        # the set-up is scaled by the host's speed while it ran
        result = {"ready": ready,
                  "setup_factor": host.scale(1.0, statistics.median(host.readings))}
        if args.mode == "setup":
            print(json.dumps(result))
            return 0

        stats = _stats()
        first_reading = len(host.readings)
        if args.mode == "measure":
            done = closed_loop(workload.rounds, args.seconds, stats, host)
            result.update(latencies=_latencies(done, 1), wall_latencies=_latencies(done, 0),
                          tail_percentile=workload.tail_percentile)
        else:
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                untraced, done, ratios, per_pass = traced_passes(
                    workload.rounds, args.seconds, stats, host, tracer)
            finally:
                tracer.uninstall()
            items = len(_latencies(done, 1))
            spans_path = work / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write_spans(spans_path)
            factor = host.scale(1.0, statistics.median(host.readings[first_reading:]))
            result["layers"] = _layer_numbers(tracer, items, factor)
            result["tracing"] = {
                "untraced_items_per_s": _rate(untraced),
                "traced_items_per_s": _rate(done),
                "slowdown": statistics.median(ratios),
                "pass_pairs": len(per_pass),
                "counts_repeat_across_passes": all(c == per_pass[0] for c in per_pass),
                "counts_per_pass": per_pass[0],
                "traced_items": items,
                "absent_layers": tracer.absent,
                "spans_file": str(spans_path.relative_to(root)),
                "span_count": len(tracer),
            }

        readings = host.readings[first_reading:]
        result.update(
            attempted=stats["attempted"],
            failed=stats["failed"],
            failures=stats["failures"],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            reference_loop_ms={"reference": 1e3 * REFERENCE_LOOP_S,
                               "median": 1e3 * statistics.median(readings),
                               "min": 1e3 * min(readings), "max": 1e3 * max(readings)},
            machine=_machine(host),
        )
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
