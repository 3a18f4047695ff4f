#!/usr/bin/env python3
"""End-to-end campaign benchmark for the SAMR partitioning reproduction.

Run from the root of a checkout:

    python3 perfbench/run.py --workload warm-sweep --seed 2004 --seconds 25 --trace 0

Each workload is a ``samr campaign`` over a spec generated from the seed
(the seed reaches the program only as the spec's ``trace.seed``), run as
one process with at most two rayon threads. It builds the
``samr`` binary and the ``perfbench`` helper package from source (into
``$CARGO_TARGET_DIR``, default ``.bench_build``), then:

- with ``--trace 0`` repeats the campaign for ``--seconds`` and prints
  the end-to-end metrics (medians over the repeats);
- with ``--trace 1`` runs the campaign untraced, then once through
  ``perfbench trace`` (timing adapters around every layer), and prints
  the per-layer metrics plus the tracing overhead and coverage.

Every campaign's artifacts are checked: per-scenario CSV/JSON digests
and the ``campaign.csv`` / ``campaign.pareto.json`` digests against the
pinned reference when one exists for the seed, against the invocation's
first campaign always, and for structural sanity. A scenario whose
artifacts are missing, differ or are malformed counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See NOTES.md for
why each workload exists and which layer metric moves which end-to-end
metric.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
THREADS = min(2, os.cpu_count() or 1)
# Environment knobs that switch the store's admission path and the
# stream driver's window; cleared so every run uses the defaults.
KNOBS = ("SAMR_TRACE_CACHE_BYTES", "SAMR_STREAM_WINDOW")
# Every run ends within this many seconds after the build.
DEADLINE_S = 170.0
SPILL_SUBDIR = "samr-trace-cache"
# The reference host: one thread of `perfbench calibrate` takes this many
# seconds, wall and CPU, on it. Timed runs scale their times to it.
REF_KERNEL_S = 0.25
# Share of each campaign's wall time spent timing the kernel after it.
CALIBRATION_SHARE = 0.2

PAPER_SWEEP = {
    "apps": ["tp2d", "bl2d", "sc2d", "rm2d"],
    "partitioners": [
        "domain-sfc",
        "domain-sfc:morton",
        "patch",
        "patch:lpt",
        "hybrid",
        "hybrid:hilbert",
    ],
    "nprocs": [16, 64, 256],
    "ghost-widths": [1],
    "config": "reduced",
}

WORKLOADS = {
    # Trace store empty: set-up is trace generation (solver advance plus
    # flag/cluster regrid) and spill write. On one CPU, because each
    # solver row sweep starts and joins threads of its own when it sees
    # more CPUs: on a shared host those thousands of joins wait on the
    # host's scheduler, and the run would time it rather than the
    # solver. The sweep is a part of the paper sweep; the whole one is
    # warm-sweep's.
    "cold-sweep": {
        "sweep": dict(PAPER_SWEEP, partitioners=["domain-sfc", "patch", "hybrid"]),
        "store": "cold",
        "cpus": 1,
    },
    # The same spec over spill files made beforehand by a cold campaign
    # of this invocation: set-up is spill decode plus model fold.
    "warm-sweep": {"sweep": PAPER_SWEEP, "store": "warm", "prespill": "campaign"},
    # Stateful selectors and adaptive policies: the window-1 sequential
    # driver with selector state, policy observe and charged switches.
    "adaptive-sweep": {
        "sweep": {
            "apps": ["tp2d", "bl2d", "sc2d", "rm2d", "pc2d"],
            "partitioners": ["meta", "octant-meta", "hybrid"],
            "policies": ["adaptive:balance", "adaptive:eager", "adaptive:patient"],
            "nprocs": [16, 64],
            "machines": ["uniform", "slow-cpu"],
            "config": "reduced",
        },
        "store": "warm",
        "prespill": "probe",
    },
    # The only D = 3 workload, cold: 3-D regrid set-up, 3-D SFC
    # partitioning and metrics in the sweep. SP3D's cost swings by a
    # quarter with its seed (the orbit phase), so one sample sums the
    # campaigns over eight traces of the seed.
    "cold-3d": {
        "sweep": {
            "apps": ["sp3d"],
            "partitioners": ["domain-sfc", "patch", "hybrid"],
            "nprocs": [16, 64],
            "config": "smoke",
            "base-cells": 24,
        },
        "store": "cold",
        "traces": 8,
    },
}

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]

PER_LAYER = [
    ("apps.advance_ms", "ms"),
    ("apps.advance_calls", "count"),
    ("apps.next_snapshot_ms", "ms"),
    ("grid.regrid_ms", "ms"),
    ("grid.patches", "count"),
    ("trace.spill_write_ms", "ms"),
    ("trace.spill_read_ms", "ms"),
    ("trace.spill_bytes", "bytes"),
    ("core.model_ms", "ms"),
    ("engine.store_warm_ms", "ms"),
    ("partition.ms", "ms"),
    ("partition.calls", "count"),
    ("partition.fragments", "count"),
    ("partition.domain_sfc_ms", "ms"),
    ("partition.patch_ms", "ms"),
    ("partition.hybrid_ms", "ms"),
    ("partition.meta_ms", "ms"),
    ("partition.octant_meta_ms", "ms"),
    ("sim.stream_self_ms", "ms"),
    ("sim.reuse_skips", "count"),
    ("sim.peak_resident", "count"),
    ("sim.comm_cells", "cells"),
    ("sim.migration_cells", "cells"),
    ("meta.switches", "count"),
    ("meta.switch_migration_cells", "cells"),
    ("engine.scenario_ms_p50", "ms"),
    ("engine.scenario_ms_p90", "ms"),
    ("engine.artifact_ms", "ms"),
    ("engine.artifact_bytes", "bytes"),
    ("engine.pareto_ms", "ms"),
    ("engine.parallel_efficiency", "ratio"),
    ("tracing.overhead_s", "s"),
    ("tracing.coverage_pct", "%"),
]

CAMPAIGN_FILES = ("campaign.csv", "campaign.pareto.json")


class BenchError(Exception):
    """The benchmark itself could not run (build, spawn, deadline)."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    def __init__(self, workload, seed, bins, work):
        self.name = workload
        self.cfg = WORKLOADS[workload]
        self.seed = seed
        self.samr, self.perfbench = bins
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.counter = 0
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.kernel_wall = None
        self.traces = self.cfg.get("traces", 1)
        # The CPUs the workload's processes run on: all of this
        # process's, or the first `cpus` of them.
        allowed = sorted(os.sched_getaffinity(0))
        self.cpus = allowed[: self.cfg.get("cpus", len(allowed))]
        self.threads = min(THREADS, len(self.cpus))
        if self.traces > 1 and self.cfg["store"] != "cold":
            raise BenchError("only cold workloads sum campaigns over several traces")
        self.first = [None] * self.traces
        self.pinned = self.load_reference()
        self.work.mkdir(parents=True)
        self.specs = [self.work / f"spec{k}.json" for k in range(self.traces)]
        axes = []
        for flag, value in self.cfg["sweep"].items():
            axes += ["--" + flag, ",".join(map(str, value)) if isinstance(value, list) else str(value)]
        for k, spec in enumerate(self.specs):
            seed_args = ["--seed", str(self.trace_seed(k)), "--out", str(spec)]
            self.slugs = self.run([str(self.perfbench), "spec"] + axes + seed_args, self.work).split()
        spec = json.loads(self.specs[0].read_text())
        self.steps = spec["trace"]["steps"]
        self.napps = len(spec["apps"])

    def trace_seed(self, k):
        """The trace seed of the workload's k-th trace: the seed itself,
        then seed * 1000 + k."""
        return self.seed if k == 0 else self.seed * 1000 + k

    def load_reference(self):
        path = BENCH / "reference" / f"{self.name}.json"
        if not path.exists():
            return None
        ref = json.loads(path.read_text())
        return ref["traces"] if ref["seed"] == self.seed else None

    # -- processes -------------------------------------------------------

    def env(self, store):
        env = {k: v for k, v in os.environ.items() if k not in KNOBS}
        env["TMPDIR"] = str(store)
        return env

    def run(self, cmd, store, stdout_path=None):
        """Run one child in its own process group; return its stdout.

        The group is killed if the run's deadline passes, so no
        grandchild outlives the benchmark."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError("run deadline passed")
        out = open(stdout_path, "w") if stdout_path else subprocess.PIPE
        try:
            proc = subprocess.Popen(
                cmd,
                env=self.env(store),
                stdout=out,
                stderr=subprocess.PIPE,
                text=True,
                start_new_session=True,
                preexec_fn=lambda: os.sched_setaffinity(0, self.cpus),
            )
            try:
                stdout, stderr = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
                raise BenchError(f"{Path(cmd[0]).name} passed the run deadline")
        finally:
            if stdout_path:
                out.close()
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(cmd[:2])} failed ({proc.returncode}): {stderr.strip()}")
        return stdout or ""

    def fresh_store(self):
        self.counter += 1
        store = self.work / f"store{self.counter}"
        store.mkdir()
        return store

    @staticmethod
    def spill_files(store):
        spill = store / SPILL_SUBDIR
        return sorted(p.name for p in spill.glob("*.trc")) if spill.exists() else []

    def store_check(self, store, before, what):
        """Cold runs start empty and leave one spill file per app; warm
        runs leave the pre-spilled files exactly as they found them."""
        after = self.spill_files(store)
        if self.cfg["store"] == "cold" and before != []:
            return f"{what}: cold store held {len(before)} spill files before the run"
        if len(after) != self.napps:
            return f"{what}: {len(after)} spill files after the run, expected {self.napps}"
        if before and before != after:
            return f"{what}: the warm store's spill files changed"
        return None

    def probe(self, store):
        """Time warming the store for the workload's apps (in-process)."""
        before = self.spill_files(store)
        cmd = [
            str(self.perfbench), "warm", "--spec", str(self.specs[0]),
            "--threads", str(self.threads),
        ]
        setup = json.loads(self.run(cmd, store).strip().splitlines()[-1])["setup_s"]
        problem = self.store_check(store, before, "set-up probe")
        if problem:
            self.problems.append(problem)
        return setup

    def calibrate(self, seconds):
        """Time the reference kernel for about `seconds`, at least once;
        return its (wall, CPU) seconds per repeat."""
        kernels = []
        start = time.monotonic()
        while True:
            cmd = [str(self.perfbench), "calibrate", "--threads", str(self.threads)]
            kernel = json.loads(self.run(cmd, self.work).strip().splitlines()[-1])
            kernels.append((kernel["wall_s"], kernel["cpu_s"]))
            if time.monotonic() - start >= seconds:
                return kernels

    def exec_stats(self, cmd, store, label):
        """Run `cmd` under the `perfbench exec` launcher."""
        report = self.work / f"{label}.exec.json"
        launcher = [str(self.perfbench), "exec", "--report", str(report), "--"]
        self.run(launcher + cmd, store, stdout_path=self.work / f"{label}.stdout")
        stats = json.loads(report.read_text())
        stats["cpu_s"] = stats["user_s"] + stats["sys_s"]
        return stats

    def campaign(self, store, label, k=0):
        """One `samr campaign` process over the k-th trace's spec; returns
        its stats and output dir."""
        out = self.work / label
        before = self.spill_files(store)
        cmd = [
            str(self.samr), "campaign", "--spec", str(self.specs[k]),
            "--out", str(out), "--threads", str(self.threads),
        ]
        stats = self.exec_stats(cmd, store, label)
        problem = self.store_check(store, before, label)
        self.account(out, stats["status"], problem, k)
        return stats, out

    # -- correctness -----------------------------------------------------

    def digests(self, out):
        names = [f"{s}.{ext}" for s in self.slugs for ext in ("csv", "json")]
        return {n: sha256(out / n) for n in names + list(CAMPAIGN_FILES) if (out / n).exists()}

    def malformed(self, out):
        """Slugs whose artifacts break the format, independent of pins."""
        bad = set()
        parts = []
        for slug in self.slugs:
            try:
                csv = (out / f"{slug}.csv").read_text()
                summary = json.loads((out / f"{slug}.json").read_text())
            except (OSError, ValueError):
                bad.add(slug)
                continue
            rows = csv.splitlines()
            if (
                len(rows) != self.steps + 1
                or not rows[0].startswith("step,")
                or summary.get("steps") != self.steps
                or not summary.get("total_time", 0) > 0
            ):
                bad.add(slug)
            parts.append(f"# {slug}\n{csv}")
        campaign_csv = out / "campaign.csv"
        if not campaign_csv.exists() or campaign_csv.read_text() != "".join(parts):
            bad.update(self.slugs)
        return bad

    def failed_slugs(self, digests, expected):
        bad = set()
        for slug in self.slugs:
            for ext in ("csv", "json"):
                name = f"{slug}.{ext}"
                if digests.get(name) is None or digests[name] != expected.get(name):
                    bad.add(slug)
        if any(digests.get(n) is None or digests[n] != expected.get(n) for n in CAMPAIGN_FILES):
            bad.update(self.slugs)
        return bad

    def account(self, out, status, problem, k):
        """Count one campaign's scenarios as attempted and failed."""
        self.attempted += len(self.slugs)
        if status != 0 or problem:
            self.problems.append(problem or f"{out.name}: samr exited with status {status}")
            self.failed += len(self.slugs)
            return
        digests = self.digests(out)
        bad = self.malformed(out)
        if self.pinned is not None:
            bad |= self.failed_slugs(digests, self.pinned[k])
        if self.first[k] is None:
            self.first[k] = digests
        else:
            bad |= self.failed_slugs(digests, self.first[k])
        if bad:
            self.problems.append(f"{out.name}: {len(bad)} scenarios failed the artifact check")
        self.failed += len(bad)

    # -- workloads -------------------------------------------------------

    def prespill(self):
        """The invocation's pre-spilled store for warm workloads."""
        how = self.cfg.get("prespill")
        if how is None:
            return None
        store = self.fresh_store()
        if how == "campaign":
            # A cold campaign of the same spec writes the spill files; the
            # warm campaigns must reproduce its artifacts byte for byte.
            self.campaign(store, "prespill")
        else:
            self.probe(store)
        return store

    @staticmethod
    def spill_setup(store, stats):
        """Set-up of a cold campaign, seen from outside: from process start
        to the last spill file's write, which ends trace generation."""
        mtimes = [p.stat().st_mtime_ns for p in (store / SPILL_SUBDIR).glob("*.trc")]
        return max(mtimes) / 1e9 - stats["start_unix_s"]

    def timed(self, seconds):
        """Repeat the campaign for about `seconds`; report medians.

        An iteration starts while it is expected to end by `seconds` plus
        half its length, and every run makes at least three. A cold
        campaign's set-up is read from its own spill files; a warm one
        writes none, so each warm iteration times three set-up probes.
        A workload of several traces sums one campaign per trace into
        each sample (peak memory is their maximum).

        The reference kernel is timed before the first iteration and
        after each one, for a fifth of the iteration's length. Each
        iteration's times are scaled by the reference kernel time over
        the median of the kernel repeats just before and just after it,
        wall times by the kernel's wall time and CPU times by its CPU
        time, so that iterations made while the shared host is slow or
        fast read alike (see NOTES.md)."""
        prespilled = self.prespill()
        setups, samples, raw = [], [], []
        before = self.calibrate(1.0)
        kernels = list(before)
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            if prespilled is not None:
                probes = [self.probe(prespilled) for _ in range(3)]
                stats, _ = self.campaign(prespilled, f"run{len(samples)}")
                stats["setup_s"] = statistics.median(probes)
            else:
                runs = []
                for k in range(self.traces):
                    store = self.fresh_store()
                    run, _ = self.campaign(store, f"run{len(samples)}-{k}", k)
                    run["setup_s"] = self.spill_setup(store, run)
                    runs.append(run)
                stats = {n: sum(r[n] for r in runs) for n in ("wall_s", "cpu_s", "setup_s")}
                stats["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
                probes = [stats["setup_s"]]
            after = self.calibrate(CALIBRATION_SHARE * stats["wall_s"])
            around = before + after
            wall_scale = REF_KERNEL_S / statistics.median(w for w, _ in around)
            cpu_scale = REF_KERNEL_S * self.threads / statistics.median(c for _, c in around)
            scaled = dict(stats)
            scaled["wall_s"] *= wall_scale
            scaled["setup_s"] *= wall_scale
            scaled["cpu_s"] *= cpu_scale
            scaled["scenarios_per_s"] = (
                len(self.slugs) * self.traces / (scaled["wall_s"] - scaled["setup_s"])
            )
            samples.append(scaled)
            setups += [p * wall_scale for p in probes]
            raw.append(stats)
            kernels += after
            before = after
            took = time.monotonic() - t0
            if len(samples) >= 3 and time.monotonic() - start >= seconds - took / 2:
                break
        metrics = {name: statistics.median([s[name] for s in samples]) for name, _ in END_TO_END}
        metrics["setup_s"] = statistics.median(setups)
        log(f"  campaigns: {len(samples)}; set-up samples: {len(setups)}")
        for name in ("wall_s", "setup_s", "cpu_s"):
            log(f"  unscaled {name}: " + ", ".join(f"{s[name]:.4f}" for s in raw))
        for name in ("wall_s", "cpu_s", "peak_rss_mb", "scenarios_per_s"):
            log(f"  {name} samples: " + ", ".join(f"{s[name]:.4f}" for s in samples))
        log("  setup_s samples: " + ", ".join(f"{s:.4f}" for s in setups))
        log("  reference kernel wall_s: " + ", ".join(f"{w:.4f}" for w, _ in kernels))
        self.kernel_wall = statistics.median(w for w, _ in kernels)
        return metrics, END_TO_END

    def traced(self, seconds):
        """Untraced campaigns for half the time, then one traced run, all
        over the workload's first trace."""
        prespilled = self.prespill()
        walls, untraced_out = [], None
        start = time.monotonic()
        while True:
            t0 = time.monotonic()
            stats, out = self.campaign(prespilled or self.fresh_store(), f"run{len(walls)}")
            walls.append(stats["wall_s"])
            untraced_out = untraced_out or out
            took = time.monotonic() - t0
            if time.monotonic() - start >= seconds / 2 - took / 2:
                break
        store = prespilled or self.fresh_store()
        before = self.spill_files(store)
        out = self.work / "traced"
        cmd = [
            str(self.perfbench), "trace", "--spec", str(self.specs[0]),
            "--threads", str(self.threads), "--out", str(out),
        ]
        if self.cfg["store"] == "cold":
            cmd.append("--cold")
        stats = self.exec_stats(cmd, store, "traced")
        if stats["status"] != 0:
            raise BenchError(f"perfbench trace exited with status {stats['status']}")
        layers = json.loads((self.work / "traced.stdout").read_text().strip().splitlines()[-1])
        self.attempted += len(self.slugs)
        problem = self.store_check(store, before, "traced run")
        if problem:
            self.problems.append(problem)
            self.failed += len(self.slugs)
        else:
            bad = self.failed_slugs(self.digests(out), self.digests(untraced_out))
            if bad:
                self.problems.append(f"traced run: {len(bad)} scenarios differ from untraced")
            self.failed += len(bad)
        layers["tracing.overhead_s"] = stats["wall_s"] - statistics.median(walls)
        layers["tracing.coverage_pct"] = 100.0 * layers["run.busy_s"] / stats["cpu_s"]
        log(
            f"  untraced wall_s: {', '.join(f'{w:.4f}' for w in walls)}; "
            f"traced wall_s {stats['wall_s']:.4f}, cpu_s {stats['cpu_s']:.4f}"
        )
        log(
            f"  traced split: set-up {layers['run.setup_s']:.3f} s, "
            f"sweep {layers['run.sweep_s']:.3f} s wall "
            f"({layers['run.scenario_s']:.3f} s of scenario time), "
            f"window {layers['run.stream_window']:.0f}, "
            f"store budget {layers['run.trace_cache_budget']:.0f} B"
        )
        coverage = layers["tracing.coverage_pct"]
        rest = stats["cpu_s"] - layers["run.busy_s"]
        line = (
            f"  coverage: layer busy time {layers['run.busy_s']:.3f} s is {coverage:.1f}% "
            f"of traced cpu_s {stats['cpu_s']:.3f} s"
        )
        if coverage < 90.0:
            line += (
                f"; the other {rest:.3f} s is process start-up and exit, spec parsing and plan"
                " expansion, spill-file listing, and thread start and join outside any span"
            )
        elif coverage > 100.0:
            line += "; above 100% because spans include time their threads waited off-CPU"
        log(line)
        return layers, PER_LAYER


def build():
    """Build `samr` and the `perfbench` helper; return their paths."""
    env = dict(os.environ)
    target = Path(env.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cargo = ["cargo", "build", "--release", "--offline", "--manifest-path"]
    manifests = [ROOT / "Cargo.toml", BENCH / "Cargo.toml"]
    commands = [cargo + [str(manifests[0]), "--bin", "samr"], cargo + [str(manifests[1])]]
    for manifest, cmd in zip(manifests, commands):
        if not manifest.exists():
            raise BenchError(f"no {manifest}: run from the root of a checkout")
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    bins = (target / "release" / "samr", target / "release" / "perfbench")
    for b in bins:
        if not b.exists():
            raise BenchError(f"build produced no {b}")
    return bins


def write_reference(bench):
    """Pin the first campaign's digests for this workload and seed."""
    path = BENCH / "reference" / f"{bench.name}.json"
    path.parent.mkdir(exist_ok=True)
    body = {"seed": bench.seed, "traces": [dict(sorted(d.items())) for d in bench.first]}
    path.write_text(json.dumps(body, indent=1) + "\n")
    log(f"wrote {path}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--write-reference",
        action="store_true",
        help="pin this run's artifact digests for the workload and seed",
    )
    args = parser.parse_args()

    try:
        bins = build()
        work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
        try:
            bench = Bench(args.workload, args.seed, bins, work)
            log(
                f"perfbench: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
                f"trace={args.trace} scenarios={len(bench.slugs)} threads={bench.threads} "
                f"cpus={len(bench.cpus)} of {os.cpu_count()} cleared={','.join(KNOBS)} "
                f"pinned_reference={'yes' if bench.pinned is not None else 'no'}"
            )
            run = bench.traced if args.trace else bench.timed
            metrics, units = run(args.seconds)
            if args.write_reference and None not in bench.first and not bench.failed:
                write_reference(bench)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)

    for problem in bench.problems:
        log(f"  FAILED: {problem}")
    print(f"threads = {bench.threads}; SAMR_TRACE_CACHE_BYTES and SAMR_STREAM_WINDOW unset")
    if bench.kernel_wall is not None:
        print(
            f"times scaled to the reference host: reference kernel {bench.kernel_wall:.4f} s "
            f"here (median), {REF_KERNEL_S} s there"
        )
    for name, unit in units:
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print(f"scenarios_failed = {bench.failed} count (of {bench.attempted} attempted)")
    result = {
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
