"""dmgeo benchmark: one workload, one run, every metric by name and unit.

    python3 bench/run.py --workload cli-small --seed 1 --seconds 25 --trace 0

Run it from the root of a dmgeo checkout; it imports ``dmgeo`` from that
checkout's ``src`` and exits with code 2 when there is none.  Each run is
a closed loop with one client in a fresh interpreter, BLAS pinned to
``BLAS_THREADS`` threads.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run, with the
names and units that BENCHMARK.json lists.  Times are scaled to a
reference host speed (see ``worker.Host``).  The line before the last
holds the details (machine, wall-time figures, tail percentile and
sample count, failures, tracing overhead); the last line is the result.
See NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cli-small", "cli-large", "lib-large", "verify-dimension")

BLAS_THREADS = 1
#: interpreter start-ups per side when measuring the import of dmgeo.cli
IMPORT_SPAWNS = 7
#: set-up-only interpreters started before and after the measured one
SETUP_SPAWNS = 2
#: seconds a child may take beyond its --seconds of measuring
SPAWN_MARGIN_S = 60.0


def _args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def _env():
    env = dict(os.environ)
    for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    def __init__(self):
        self.env = _env()

    def spawn(self, argv, timeout):
        """Run a child to completion; return (spawn time, completed process)."""
        started = time.monotonic()
        proc = subprocess.run(argv, cwd=ROOT, env=self.env, capture_output=True,
                              text=True, timeout=timeout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"{argv[1:3]} exited with code {proc.returncode}")
        return started, proc

    def worker(self, args, mode):
        argv = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--mode", mode]
        timeout = SPAWN_MARGIN_S + (0.0 if mode == "setup" else args.seconds)
        started, proc = self.spawn(argv, timeout)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_wall_s"] = result["ready"] - started
        result["setup_s"] = result["setup_wall_s"] * result["setup_factor"]
        return result

    def import_cost(self):
        """Median fresh-interpreter ``import dmgeo.cli`` minus ``-c pass``."""
        src = str((ROOT / "src").resolve())
        probe = ("import sys, dmgeo.cli; "
                 f"sys.exit(0 if dmgeo.cli.__file__.startswith({src!r}) else 3)")
        floor, full = [], []
        for _ in range(IMPORT_SPAWNS):
            for code, out in (("pass", floor), (probe, full)):
                started, _ = self.spawn([sys.executable, "-c", code], SPAWN_MARGIN_S)
                out.append(time.monotonic() - started)
        return statistics.median(full) - statistics.median(floor)


def _declared_units(kind):
    """Name -> unit of each metric that BENCHMARK.json lists under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def _percentile(ordered, pct):
    """Nearest-rank percentile of sorted samples, with the count beyond it."""
    rank = max(1, min(len(ordered), -(-round(pct * len(ordered)) // 100)))
    return ordered[rank - 1], len(ordered) - rank


def _highest_percentile(ordered):
    """The highest ladder percentile that has at least ten samples beyond it."""
    for pct in (99.9, 99.5, 99.0, 95.0, 90.0, 75.0):
        if len(ordered) * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def main():
    args = _args()
    if not (ROOT / "src" / "dmgeo" / "__init__.py").is_file():
        print(f"no dmgeo source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner()
    try:
        if args.trace:
            result = runner.worker(args, "trace")
            values = {**result["layers"], "import.dmgeo_cli_s": runner.import_cost(),
                      "tracing.slowdown": result["tracing"]["slowdown"]}
            details = {"tracing": result["tracing"]}
        else:
            # set-up is timed on the measured interpreter and on
            # SETUP_SPAWNS set-up-only ones before and after it
            runs = [runner.worker(args, "setup") for _ in range(SETUP_SPAWNS)]
            result = runner.worker(args, "measure")
            runs += [result] + [runner.worker(args, "setup") for _ in range(SETUP_SPAWNS)]
            lat = sorted(result["latencies"])
            pct = result["tail_percentile"]
            tail, beyond = _percentile(lat, pct)
            top = _highest_percentile(lat)
            top_value, top_beyond = _percentile(lat, top)
            wall = sorted(result["wall_latencies"])
            values = {
                "items_per_s": len(lat) / sum(lat),
                "latency_p50_ms": 1e3 * statistics.median(lat),
                "latency_tail_ms": 1e3 * tail,
                "setup_s": statistics.median(r["setup_s"] for r in runs),
                "peak_rss_mb": result["peak_rss_mb"],
            }
            details = {
                "latency_tail": {"percentile": pct, "samples": len(lat), "beyond": beyond},
                "latency_highest": {"percentile": top, "ms": 1e3 * top_value,
                                    "samples": len(lat), "beyond": top_beyond},
                "wall": {"items_per_s": len(wall) / sum(wall),
                         "latency_p50_ms": 1e3 * statistics.median(wall),
                         "latency_tail_ms": 1e3 * _percentile(wall, pct)[0],
                         "setup_s": statistics.median(r["setup_wall_s"] for r in runs)},
                "setup_samples_s": [r["setup_s"] for r in runs],
            }
        units = _declared_units("per_layer" if args.trace else "end_to_end")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    except (OSError, RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    details.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        closed_loop_clients=1, failed_frac=failed / attempted,
        failures=result["failures"], reference_loop_ms=result["reference_loop_ms"],
        machine=result["machine"],
    )
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
