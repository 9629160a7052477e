"""kerpair benchmark: seeded CLI workloads, timed end to end, and a
separate traced run for per-layer metrics.

Run from the repository root:

    python3 bench/run.py --workload field-large --seed 1 --seconds 15 --trace 0

One process, one closed-loop client, one thread: each request is a call
of the public entry point ``kerpair.cli.main(argv, out=...)`` on files
generated from ``--seed`` (see corpus.py), and the next request starts
when the previous one returns.  The timed phase runs whole cycles of
the workload's schedule until ``--seconds`` of request time have passed.

``--trace 0`` prints every end-to-end metric of BENCHMARK.json;
``--trace 1`` runs the first cycle of the stream twice, untraced and
then traced, and prints every per-layer metric.  Every response is
checked (check.py); the last stdout line is the JSON result.  Metric
names and units come from BENCHMARK.json.  README.md documents the
workloads and what each metric should move.
"""

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from check import check, digest
from corpus import WORKLOADS, cycle_length, make_job
from spans import TRACED, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference"

SETUP_REPEATS = 9
# The traced run covers one whole cycle of the schedule, a fixed set of
# jobs, so every count repeats exactly for a given seed.
TRACE_CYCLES = 1

# A shared host's speed can drift by ~35% in phases lasting seconds, and
# every interpreted instruction slows alike.  SpeedMeter samples the
# interpreter's speed before, during (every TICK_S, from a SIGALRM handler
# in the main thread) and after each timed call, and rescales the call's
# wall time to the speed at which one sample takes CAL_REF_S.  README.md
# gives the measurements behind this.
CAL_REF_S = 70e-6
TICK_S = 0.02


class _SampleRing:
    """Stand-in for a kerpair ring: the sampled work is ring method calls
    building a list, like the program's inner loops.  It tracked the
    program's slowdowns better than a loop of bare integer arithmetic."""

    p = 101

    def mul(self, a, b):
        return (a * b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p


_RING = _SampleRing()
_ROW_A = list(range(1, 41))
_ROW_B = list(range(3, 43))


def speed_sample():
    """Fastest of two runs of seven fixed row operations, in seconds."""
    best = float("inf")
    ring = _RING
    for _ in range(2):
        t0 = perf_counter()
        for f in range(1, 8):
            [ring.sub(x, ring.mul(f, y)) for x, y in zip(_ROW_A, _ROW_B)]
        best = min(best, perf_counter() - t0)
    return best


class SpeedMeter:
    """Times calls in wall seconds and in seconds at the reference speed."""

    def __init__(self):
        self._during = []

    def _tick(self, signum, frame):
        self._during.append(speed_sample())

    def time(self, fn, ticks=True):
        """(result, wall seconds, rescaled seconds) of ``fn()``.  Without
        ``ticks`` only the samples on either side count, for calls that
        wait on a child process."""
        samples = [speed_sample() for _ in range(3)]
        self._during = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S if ticks else 0, TICK_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            wall = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        samples += self._during + [speed_sample() for _ in range(3)]
        return result, wall, wall * CAL_REF_S / statistics.fmean(samples)


def load_program():
    """Import kerpair from this checkout's src/, refusing anything else."""
    if sys.flags.optimize:
        sys.exit("refusing to measure: python -O strips the program's runtime "
                 "asserts (kernel.py, polykernel.py, behavior.py, cli.py)")
    if not (SRC / "kerpair" / "__init__.py").is_file():
        sys.exit(f"refusing to measure: no kerpair sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import kerpair
    import kerpair.cli

    if Path(kerpair.__file__).resolve().parent != (SRC / "kerpair").resolve():
        sys.exit(f"refusing to measure: kerpair imported from {kerpair.__file__}, "
                 f"not from {SRC}")
    return kerpair.cli


def provenance(args):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "kerpair").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "size": args.size,
            "trace": args.trace, "seconds": args.seconds,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "git_commit": commit, "src_sha256": src.hexdigest()}


def write_job(job, workdir):
    paths = {}
    for name, text in job.files.items():
        path = workdir / name
        path.write_text(text)
        paths[name] = str(path)
    return paths


def load_references(workload, size, seed):
    """Reference digests for one stream: a list, per job, of per-request
    digests; empty when the stream was not recorded."""
    path = REFERENCE / f"{workload}.jsonl"
    if not path.is_file():
        return []
    for line in path.read_text().splitlines():
        entry = json.loads(line)
        if entry["size"] == size and entry["seed"] == seed:
            return entry["digests"]
    return []


class Runner:
    """Runs jobs through ``cli.main`` and checks every response."""

    def __init__(self, cli, args, workdir):
        self.cli = cli
        self.args = args
        self.workdir = workdir
        self.refs = load_references(args.workload, args.size, args.seed)
        self.samples = []        # (kind, role, rescaled seconds, wall seconds, job)
        self.requests = []       # (kind, ring kind) per request, in order
        self.attempted = 0
        self.failed = 0
        self.json_bytes = 0
        self.digests = []
        self.tracer = None
        self.meter = SpeedMeter()

    def run_job(self, index):
        job = make_job(self.args.workload, self.args.size, self.args.seed, index)
        paths = write_job(job, self.workdir)
        responses = []
        for req in job.requests:
            argv = [paths.get(a, a) for a in req.argv]
            if self.tracer is not None:
                self.tracer.current_request = len(self.requests)
            self.requests.append((req.kind, job.kind))
            out = io.StringIO()
            # each request starts from a collected heap, as a fresh CLI
            # process would, so a collection the previous request left
            # pending is not charged to this one
            gc.collect()
            code, wall, rescaled = self.meter.time(lambda: self.cli.main(argv, out=out))
            self.samples.append((req.kind, req.role, rescaled, wall, index))
            responses.append((req, code, out.getvalue()))
        job_digests = []
        for r, (req, code, text) in enumerate(responses):
            self.attempted += 1
            self.json_bytes += len(text.encode())
            try:
                doc = json.loads(text)
            except ValueError:
                doc = None
            problems = check(job, req, code, doc)
            d = digest(req.kind, code, doc) if doc is not None else None
            job_digests.append(d)
            if index < len(self.refs) and self.refs[index][r] != d:
                problems.append("content digest differs from the reference")
            if problems:
                self.failed += 1
                print(f"FAIL job {index} request {r} ({req.kind}): "
                      + "; ".join(problems), file=sys.stderr)
        self.digests.append(job_digests)
        for path in paths.values():
            os.unlink(path)
        return sum(s[2] for s in self.samples[-len(responses):])

    def run_cycles(self, min_seconds=0.0, cycles=None):
        """Whole cycles until ``cycles`` are done or ``min_seconds`` of
        rescaled request time has passed; returns that time."""
        period = cycle_length(self.args.workload, self.args.size)
        spent, index = 0.0, 0
        while True:
            spent += self.run_job(index)
            index += 1
            if index % period == 0:
                if cycles is not None and index // period >= cycles:
                    return spent
                if cycles is None and spent >= min_seconds:
                    return spent


# -- end-to-end ---------------------------------------------------------------


def measure_setup(args, workdir):
    """Median rescaled time of fresh interpreters that import kerpair and
    parse the matrix files of the workload's first cycle."""
    files = []
    for index in range(cycle_length(args.workload, args.size)):
        job = make_job(args.workload, args.size, args.seed, index)
        sub = workdir / f"setup{index}"
        sub.mkdir()
        paths = write_job(job, sub)
        files += [p for name, p in paths.items() if name.endswith(("pair.txt", "sys.txt"))]
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *files]
    meter = SpeedMeter()
    times = []
    for _ in range(SETUP_REPEATS):
        _, _, rescaled = meter.time(lambda: subprocess.run(cmd, check=True, timeout=120),
                                    ticks=False)
        times.append(rescaled)
    return statistics.median(times)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, -(-q * len(ordered) // 100) - 1))]


def end_to_end(runner, spent, setup_s):
    lat = {}
    for kind, role, s, *_ in runner.samples:
        lat.setdefault(role, []).append(s * 1000)
        lat.setdefault(kind, []).append(s * 1000)
    wall = sum(sample[3] for sample in runner.samples)
    values = {"setup_s": setup_s,
              "requests_per_s": len(runner.samples) / spent,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    notes = {"requests_per_s": f"{len(runner.samples)} requests in {spent:.3f} s"}
    for role in ("primary", "secondary"):
        values[f"{role}_ms.p50"] = statistics.median(lat[role])
        notes[f"{role}_ms.p50"] = f"n={len(lat[role])}"
    # per-request-type latencies, printed for reading only: not every
    # workload issues every type, so they are not BENCHMARK.json metrics
    extra = []
    for kind in ("kernel-pair", "member", "verify", "simulate"):
        if kind in lat:
            name = kind.replace("-", "_") + "_ms"
            n = len(lat[kind])
            extra.append(f"{name}.p50 = {statistics.median(lat[kind]):.3f} ms (n={n})")
            if n >= 100:
                extra.append(f"{name}.p90 = {percentile(lat[kind], 90):.3f} ms (n={n})")
            else:
                extra.append(f"{name}.p90 omitted: {n} < 100 samples")
    extra.append(f"wall-clock requests_per_s = {len(runner.samples) / wall:.4f} 1/s "
                 f"(not rescaled; {wall:.3f} s)")
    extra.append(f"fail_rate = {runner.failed}/{runner.attempted}"
                 f" = {runner.failed / runner.attempted:.4f}")
    return values, notes, extra


# -- per layer ----------------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(runner, plain_s, traced_s):
    tracer = runner.tracer
    calls, total, self_s = tracer.summary()
    values, notes = {}, {}
    for mod, attrs in TRACED.items():
        for attr in attrs:
            name = f"{mod}.{attr}"
            values[f"{name}.calls"] = calls[name]
            values[f"{name}.self_s"] = self_s[name]
            values[f"{name}.total_s"] = total[name]
    for cls in ("PrimeField", "ModRing", "PolyRing"):
        values[f"rings.{cls}.total_s"] = total[f"rings.{cls}"]
        values[f"rings.{cls}.calls"] = calls[f"rings.{cls}"]
    values["rings.ops"] = tracer.ring_ops[0]
    counts = tracer.counts
    values["linalg.rref.cells"] = counts["linalg.rref.cells"]
    values["kernel.oracle.candidates"] = counts["kernel.oracle.candidates"]
    values["kernel.oracle.yield"] = _ratio(counts["kernel.oracle.members"],
                                           counts["kernel.oracle.candidates"])
    notes["kernel.oracle.yield"] = (f"{counts['kernel.oracle.members']} members / "
                                    f"{counts['kernel.oracle.candidates']} candidates")
    values["polykernel.hermite.max_degree"] = counts["polykernel.hermite.max_degree"]
    tested = (sum(tracer.calls_by_request("polykernel.rank_over_fractions",
                                          "polykernel.poly_kernel").values())
              - calls["polykernel.poly_kernel"])
    values["polykernel.sweep.yield"] = _ratio(counts["polykernel.sweep.kept"], tested)
    notes["polykernel.sweep.yield"] = (f"{counts['polykernel.sweep.kept']} kept / "
                                       f"{tested} candidates tested")

    def per_request(metric, span, kind, ring_kinds):
        ids = [i for i, (k, ring) in enumerate(runner.requests)
               if k == kind and ring in ring_kinds]
        by_request = tracer.calls_by_request(span)
        n_calls = sum(by_request[i] for i in ids)
        values[metric] = _ratio(n_calls, len(ids))
        notes[metric] = f"{n_calls} calls / {len(ids)} {kind} requests"

    per_request("linalg.rref.per_kernel_pair", "linalg.rref", "kernel-pair",
                ("gf", "zmod", "polygf"))
    per_request("crt.kernel_pair_crt.per_verify", "crt.kernel_pair_crt", "verify",
                ("zmod",))
    per_request("polykernel.kernel_pair_poly.per_member", "polykernel.kernel_pair_poly",
                "member", ("polygf",))
    values["cli.json_bytes"] = runner.json_bytes
    values["trace.overhead"] = traced_s / plain_s
    notes["trace.overhead"] = f"traced {traced_s:.3f} s / untraced {plain_s:.3f} s"
    notes["cli.json_bytes"] = "bytes written by the traced pass"
    return values, notes


# -- main ---------------------------------------------------------------------


def record(cli, args, workdir, jobs):
    """Store content digests of the first ``jobs`` jobs as the reference."""
    runner = Runner(cli, args, workdir)
    runner.refs = []
    for index in range(jobs):
        runner.run_job(index)
    if runner.failed:
        sys.exit(f"{runner.failed} of {runner.attempted} responses failed; "
                 "no reference written")
    REFERENCE.mkdir(exist_ok=True)
    path = REFERENCE / f"{args.workload}.jsonl"
    entries = [json.loads(line) for line in path.read_text().splitlines()] \
        if path.is_file() else []
    entries = [e for e in entries if (e["size"], e["seed"]) != (args.size, args.seed)]
    entries.append({"size": args.size, "seed": args.seed, "digests": runner.digests})
    entries.sort(key=lambda e: (e["size"], e["seed"]))
    path.write_text("".join(json.dumps(e) + "\n" for e in entries))
    print(f"recorded {runner.attempted} digests for {args.workload} "
          f"seed {args.seed} ({args.size})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small shapes for the smoke test")
    parser.add_argument("--record-jobs", type=int, metavar="N",
                        help="write reference digests of the first N jobs and exit")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = load_program()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        if args.record_jobs:
            record(cli, args, workdir, args.record_jobs)
            return 0
        meta = provenance(args)
        runner = Runner(cli, args, workdir)
        if args.trace:
            plain_s = runner.run_cycles(cycles=TRACE_CYCLES)
            runner.requests.clear()
            runner.json_bytes = 0
            runner.tracer = Tracer()
            runner.tracer.install()
            try:
                traced_s = runner.run_cycles(cycles=TRACE_CYCLES)
            finally:
                runner.tracer.uninstall()
            values, notes = per_layer(runner, plain_s, traced_s)
            runner.tracer.write(OUT / f"spans-{args.workload}-s{args.seed}.zip")
            wanted = spec["per_layer"]
        else:
            setup_s = measure_setup(args, workdir)
            spent = runner.run_cycles(min_seconds=args.seconds)
            values, notes, extra = end_to_end(runner, spent, setup_s)
            wanted = spec["end_to_end"]
        metrics = {}
        for m in wanted:
            name = m["name"]
            metrics[name] = {"value": values[name], "unit": m["unit"]}
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{name} = {values[name]:.6g} {m['unit']}{note}")
        if not args.trace:
            print("\n".join(extra))
        print("provenance " + json.dumps(meta, sort_keys=True))
        result = {"correct": runner.failed == 0, "attempted": runner.attempted,
                  "failed": runner.failed, "metrics": metrics}
        (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
            json.dumps({"provenance": meta, **result, "samples": runner.samples}) + "\n")
        print(json.dumps(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
