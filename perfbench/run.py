#!/usr/bin/env python3
"""The CellSweep benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \\
        --trace <0|1> [--serve-rate <jobs/s>]

Builds the benchmark client against the checkout's sources (once, into
.bench_build/), generates the workload's inputs from the seed, runs the
client, checks every output it recorded, and prints the metrics. The
last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json;
with --trace 1 the client also records spans around each library call
and the metrics are the per-layer ones. Workloads, metrics and starting
numbers are described in perfbench/WORKLOADS.md.

Exit codes: 0 with a result line (whose "correct" tells whether every
output checked out); 2 when the sources are missing or the build fails;
3 when the run is invalid (the open-loop generator ran late, or a
percentile lacks the samples to report it) -- no result line then.
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

import mix

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
CLIENT = os.path.join(BUILD, "perfbench", "perfbench_client")

WORKLOADS = ("paper50", "ladder", "serve-mix")
DECKS = {"paper50": "benchmark50.deck", "ladder": "benchmark50.deck"}
# Set-ups timed per run, half before the timed operations and half after,
# so that their median does not rest on one short window of a noisy host;
# setup_s is the median.
SETUPS = 22
CLIENT_TIMEOUT_S = 170
LATE_BOUND_S = 0.1         # open-loop lateness beyond which a run is invalid


class InvalidRun(Exception):
    """The run cannot be reported (see the module docstring)."""


# ---- percentiles ---------------------------------------------------------

def percentile(values, q):
    """Nearest-rank q-quantile, reported only when at least ten samples lie
    beyond it (the median of fewer than 20 samples is the plain median).
    Infinite values (failed jobs) count as samples."""
    xs = sorted(values)
    if not xs:
        raise InvalidRun("percentile of no samples")
    if q == 0.5:
        return statistics.median(xs)
    rank = math.ceil(q * len(xs))
    if len(xs) - rank < 10:
        raise InvalidRun(f"p{round(q * 100)} of {len(xs)} samples has fewer "
                         f"than 10 samples beyond it")
    return xs[rank - 1]


def median(values):
    return percentile(values, 0.5)


# ---- expected outputs ----------------------------------------------------

# The physics of the paper deck, as deck_runner prints it (six
# significant digits), and the source the deck injects. The simulated
# time (the paper's quantity) and the counts of modelled work are the
# library's exact output when the benchmark was added.
EXPECT_SOLVE = {
    "paper50": dict(iterations=12, converged=False, absorption=2.72031,
                    leakage=5.27969, fixup_cells=0, source=8.0,
                    sim_s=1.30686657101632, cell_solves=72000000,
                    chunks=387840),
}
EXACT_KEYS = ("iterations", "converged", "fixup_cells", "cell_solves", "chunks")
PRINTED_TOL = 5e-6         # half a unit in the sixth printed digit
BALANCE_TOL = 1e-5         # absorption + leakage against the source, relative
# Simulated seconds against the expected value, relative. Within one run
# every op must agree bitwise; against the constant a change in the last
# few bits (summation order) is allowed, a change of the model is not.
SIM_TOL = 1e-9

# EXPERIMENTS.md: (paper s, measured s) of every Figure 5 stage and
# Figure 10 projection. The measured column is printed to 2 decimals, so
# the band between the two is widened by 1 %.
LADDER_BANDS = {
    "ppe-gcc": (22.3, 22.30), "ppe-xlc": (19.9, 19.89),
    "spe-initial": (3.55, 4.01), "spe-aligned": (3.03, 3.38),
    "spe-buffered": (2.88, 3.25), "spe-simd": (1.68, 1.48),
    "spe-dmalists": (1.48, 1.39), "spe-lspoke": (1.33, 1.31),
    "future-bigdma": (1.2, 1.20), "future-distributed": (0.9, 0.86),
    "future-pipelineddp": (0.85, 0.67), "future-single": (0.45, 0.43),
}
BAND_SLACK = 0.01
FIG5 = ("ppe-gcc", "ppe-xlc", "spe-initial", "spe-aligned", "spe-buffered",
        "spe-simd", "spe-dmalists", "spe-lspoke")
PAPER_SPEEDUP = 22.3 / 1.33  # Figure 5, PPE (GCC) -> final: 16.8x
SPEEDUP_TOL = 0.05
# Every stage's exact simulated seconds and chunk count when the benchmark
# was added (72,000,000 cell solves each); the bands above only say how
# close the model stays to the paper.
LADDER_CELL_SOLVES = 72000000
EXPECT_LADDER = {
    "ppe-gcc": (22.299757281553397, 387840),
    "ppe-xlc": (19.886363636363637, 387840),
    "spe-initial": (4.00538308627552, 387840),
    "spe-aligned": (3.38498251971584, 387840),
    "spe-buffered": (3.24799113411872, 387840),
    "spe-simd": (1.47698123411872, 387840),
    "spe-dmalists": (1.39394487500064, 387840),
    "spe-lspoke": (1.30686657101632, 387840),
    "future-bigdma": (1.20642883501504, 387840),
    "future-distributed": (0.86580659500288, 366720),
    "future-pipelineddp": (0.67245827500288, 366720),
    "future-single": (0.43382825009776, 366720),
}


def sim_differs(got, want):
    return abs(got - want) > SIM_TOL * want


def check_solve(workload, ops):
    """Failures of each paper50 op: (op, reason) pairs."""
    want = EXPECT_SOLVE[workload]
    bad = []
    for op in ops:
        why = []
        if "error" in op:
            why.append(op["error"])
        else:
            for key in EXACT_KEYS:
                if op[key] != want[key]:
                    why.append(f"{key} {op[key]} != {want[key]}")
            if sim_differs(op["sim_s"], want["sim_s"]):
                why.append(f"sim_s {op['sim_s']!r} != {want['sim_s']!r}")
            for key in ("absorption", "leakage"):
                if abs(op[key] - want[key]) > PRINTED_TOL:
                    why.append(f"{key} {op[key]:.6g} != {want[key]}")
            balance = op["absorption"] + op["leakage"]
            if abs(balance - want["source"]) > BALANCE_TOL * want["source"]:
                why.append(f"absorption + leakage {balance:.7g} != source "
                           f"{want['source']}")
            first = ops[0]
            for key in ("absorption_hex", "leakage_hex", "sim_s",
                        "report_fnv1a"):
                if key in first and op[key] != first[key]:
                    why.append(f"{key} differs from op 0: not deterministic")
        if why:
            bad.append((op["op"], "; ".join(why)))
    return bad


def check_ladder(ops):
    bad = []
    for op in ops:
        stages = {s["stage"]: s for s in op["stages"]}
        why = [f"{k}: {s['error']}" for k, s in stages.items() if "error" in s]
        if not why:
            for name, (paper, measured) in LADDER_BANDS.items():
                lo = min(paper, measured) * (1 - BAND_SLACK)
                hi = max(paper, measured) * (1 + BAND_SLACK)
                if not lo <= stages[name]["sim_s"] <= hi:
                    why.append(f"{name} {stages[name]['sim_s']:.4g} s outside "
                               f"[{lo:.4g}, {hi:.4g}]")
            steps = [stages[s]["sim_s"] for s in FIG5]
            if any(b >= a for a, b in zip(steps, steps[1:])):
                why.append("Figure 5 steps do not strictly decrease")
            speedup = stages["ppe-gcc"]["sim_s"] / stages["spe-lspoke"]["sim_s"]
            if abs(speedup / PAPER_SPEEDUP - 1) > SPEEDUP_TOL:
                why.append(f"PPE -> final speedup {speedup:.3g}x not near "
                           f"{PAPER_SPEEDUP:.3g}x")
            for name, (sim, chunks) in EXPECT_LADDER.items():
                s = stages[name]
                if sim_differs(s["sim_s"], sim):
                    why.append(f"{name} sim_s {s['sim_s']!r} != {sim!r}")
                if (s["chunks"], s["cell_solves"]) != (chunks, LADDER_CELL_SOLVES):
                    why.append(f"{name} chunks, cell solves {s['chunks']}, "
                               f"{s['cell_solves']} != {chunks}, "
                               f"{LADDER_CELL_SOLVES}")
            first = {s["stage"]: s for s in ops[0]["stages"]}
            if any(stages[k]["sim_s"] != first[k]["sim_s"] for k in stages):
                why.append("simulated times differ from op 0: not deterministic")
        if why:
            bad.append((op["op"], "; ".join(why)))
    return bad


def serve_records(run):
    return run["rate_jobs"] + run["burst_jobs"]


def check_serve(jobs, run):
    """Failures of one serve-mix pass against the generated expectations."""
    recs = {r["idx"]: r for r in serve_records(run)}
    bad = []
    for j in jobs:
        r = recs.get(j["idx"])
        if r is None:
            bad.append((j["idx"], "job missing from the results"))
        elif r["outcome"] != j["expect"]:
            bad.append((j["idx"], f"outcome {r['outcome']} != {j['expect']} "
                                  f"{r.get('error', '')}".strip()))
    # Repeated functional inputs must agree bitwise.
    seen = {}
    for j in jobs:
        r = recs.get(j["idx"])
        if j["mode"] != "functional" or r is None or r["outcome"] != "ok":
            continue
        res = r["result"]
        bits = (res.get("absorption_hex"), res.get("leakage_hex"),
                r.get("checksum_hex"), r.get("residual_hex"))
        first = seen.setdefault(j["text"], (j["idx"], bits))
        if first[1] != bits:
            bad.append((j["idx"], f"functional result differs bitwise from "
                                  f"job {first[0]} on the same input"))
    st = run["stats"]
    if st["submitted"] != st["completed"] + st["failed"] + st["cancelled"]:
        bad.append((-1, f"submitted {st['submitted']} != completed + failed + "
                        f"cancelled ({st['completed']} + {st['failed']} + "
                        f"{st['cancelled']})"))
    return bad


def check(workload, rec, jobs=None):
    """(attempted, failures) of one run's records."""
    if workload == "serve-mix":
        passes = [rec["pass"]] + ([rec["untraced"]] if "untraced" in rec else [])
        bad = [b for p in passes for b in check_serve(jobs, p)]
        return len(jobs) * len(passes), bad
    ops = rec["ops"]
    bad = check_ladder(ops) if workload == "ladder" else check_solve(workload, ops)
    return len(ops), bad


# ---- metrics ---------------------------------------------------------------

def op_seconds(op):
    return op["end_s"] - op["start_s"]


def serve_latencies(jobs, run):
    """Due -> published of every fixed-rate job that should have run; a job
    that failed or was wrongly rejected counts as +inf."""
    expect = {j["idx"]: j["expect"] for j in jobs}
    out = []
    for r in run["rate_jobs"]:
        if expect[r["idx"]] != "ok":
            continue
        out.append(r["report"] - r["due"] if r["outcome"] == "ok" else math.inf)
    return out


def end_to_end(workload, rec, jobs, setups):
    """solve_s is the median time-to-solution of the workload's operation:
    a deck solve (paper50), the 12-configuration ladder (ladder),
    or a job from its due time to its published result at the fixed rate
    (serve-mix)."""
    if workload == "serve-mix":
        solve = median(serve_latencies(jobs, rec["pass"]))
    else:
        solve = median([op_seconds(op) for op in rec["ops"]])
    return {"setup_s": median(setups), "solve_s": solve,
            "peak_rss_mb": rec["peak_rss_mb"]}


def spans_by_op(rec):
    """{op: [(name, seconds, parent_name)]} from the recorded spans."""
    spans = rec["spans"]
    out = {}
    for name, start, end, parent, op in spans:
        pname = spans[parent][0] if parent >= 0 else None
        out.setdefault(op, []).append((name, end - start, pname))
    return out


def solo_layers(workload, rec):
    traced = [op for op in rec["ops"] if op["traced"]]
    plain = [op for op in rec["ops"] if not op["traced"]]
    by_op = spans_by_op(rec)
    root = "ladder" if workload == "ladder" else "solve"
    per_op = []
    for op in traced:
        total = {}
        for name, secs, parent in by_op[op["op"]]:
            total[name] = total.get(name, 0.0) + secs
        covered = sum(s for _, s, p in by_op[op["op"]] if p == root)
        total["bench.span_coverage"] = covered / total[root]
        per_op.append(total)

    def med(name):
        return median([t.get(name, 0.0) for t in per_op])

    m = {f"{k}_s": med(k) for k in ("sweep.parse", "analysis.lint",
                                     "core.plan", "core.run", "core.report")}
    m["bench.span_coverage"] = min(t["bench.span_coverage"] for t in per_op)
    m["bench.trace_overhead_s"] = (median([op_seconds(o) for o in traced]) -
                                   median([op_seconds(o) for o in plain]))
    last = traced[-1]
    if workload == "ladder":
        stages = last["stages"]
        for s in stages:
            m[f"ladder.{s['stage']}.host_s"] = med(f"ladder.{s['stage']}")
            m[f"ladder.{s['stage']}.sim_s"] = s["sim_s"]
        shipped = next(s for s in stages if s["stage"] == "spe-lspoke")
        m["core.sim_s"] = sum(s["sim_s"] for s in stages)
        m["core.chunks"] = sum(s["chunks"] for s in stages)
        m["sweep.cell_solves"] = sum(s["cell_solves"] for s in stages)
        m["cellsim.traffic_gb"] = sum(s["traffic_bytes"] for s in stages) / 1e9
        machine = shipped
    else:
        m["ladder.spe-lspoke.host_s"] = med("timing-share")
        m["ladder.spe-lspoke.sim_s"] = last["sim_s"]
        m["core.sim_s"] = last["sim_s"]
        m["core.chunks"] = last["chunks"]
        m["sweep.cell_solves"] = last["cell_solves"]
        m["sweep.iterations"] = last["iterations"]
        m["sweep.fixup_cells"] = last["fixup_cells"]
        m["cellsim.traffic_gb"] = last["traffic_bytes"] / 1e9
        machine = last
    for k in ("busy_s", "dma_wait_s", "sync_wait_s", "idle_s"):
        m[f"cellsim.{k}"] = machine[k]
    m["cellsim.mic_util"] = machine["mic_util"]
    m["cellsim.eib_util"] = machine["eib_util"]
    m["sweep.cell_solves_per_s"] = m["sweep.cell_solves"] / m["core.run_s"]
    m["core.chunks_per_s"] = m["core.chunks"] / m["core.run_s"]
    return m


def serve_layers(rec, jobs):
    run = rec["pass"]
    kinds = {j["idx"]: (j["kind"], j["mode"]) for j in jobs}
    rate = [r for r in run["rate_jobs"] if r["outcome"] == "ok"]
    done = [r for r in serve_records(run) if r["outcome"] == "ok"]
    proper = {r["idx"]: r["run_end"] - r["run_start"] - r["claim_wait"]
              for r in done}
    m = {}
    subs = [r["submit_end"] - r["submit_start"] for r in serve_records(run)]
    m["server.submit_p50_s"] = percentile(subs, 0.5)
    m["server.submit_p95_s"] = percentile(subs, 0.95)
    m["server.admit_s"] = median([r["admit_end"] - r["admit_start"] for r in done])
    misses = [r["plan_end"] - r["plan_start"] for r in done
              if not r["plan_hit"] and kinds[r["idx"]][0] == "sweep"]
    m["server.plan_miss_s"] = median(misses)
    pc = run["plan_cache"]
    m["server.plan_hit_ratio"] = pc["hits"] / (pc["hits"] + pc["misses"])
    m["server.publish_s"] = median([r["report"] - r["run_end"] for r in done])
    m["server.overhead_s"] = median([
        (r["report"] - r["admit_start"]) - (r["dequeue"] - r["enqueue"]) -
        r["claim_wait"] - proper[r["idx"]] for r in done])
    for name, key in (("queue_wait", lambda r: r["dequeue"] - r["enqueue"]),
                      ("claim_wait", lambda r: r["claim_wait"])):
        vals = [key(r) for r in rate]
        m[f"server.{name}_p50_s"] = percentile(vals, 0.5)
        m[f"server.{name}_p95_s"] = percentile(vals, 0.95)
    for label, kind in (("sweep_trace", ("sweep", "trace")),
                        ("sweep_functional", ("sweep", "functional")),
                        ("stencil", None)):
        vals = [proper[r["idx"]] for r in done
                if (kinds[r["idx"]] == kind if kind
                    else kinds[r["idx"]][0] == "stencil")]
        m[f"server.run_s.{label}"] = median(vals)
    m["server.latency_p95_s"] = percentile(serve_latencies(jobs, run), 0.95)
    burst = [r for r in run["burst_jobs"] if r["outcome"] == "ok"]
    m["server.max_jobs_s"] = len(burst) / (run["burst_end"] - run["burst_start"])
    m["util.pool_utilization"] = run["pool"]["utilization"]
    for k in ("completed", "rejected", "failed", "cancelled"):
        m[f"server.{k}"] = run["stats"][k]
    m["bench.gen_late_max_s"] = gen_late_max(run)
    m["bench.span_coverage"] = median([
        ((r["admit_end"] - r["admit_start"]) + (r["dequeue"] - r["enqueue"]) +
         (r["plan_end"] - r["plan_start"]) + (r["run_end"] - r["run_start"]) +
         (r["report"] - r["run_end"])) / (r["report"] - r["admit_start"])
        for r in done])
    m["bench.trace_overhead_s"] = (median(serve_latencies(jobs, run)) -
                                   median(serve_latencies(jobs, rec["untraced"])))
    m["core.plan_s"] = median([r["plan_end"] - r["plan_start"] for r in done])
    m["core.run_s"] = median(list(proper.values()))
    results = [r["result"] for r in done]
    sweeps = [r["result"] for r in done if kinds[r["idx"]][0] == "sweep"]
    sweep_run = sum(proper[r["idx"]] for r in done
                    if kinds[r["idx"]][0] == "sweep")
    m["sweep.cell_solves"] = sum(s["cell_solves"] for s in sweeps)
    m["sweep.cell_solves_per_s"] = m["sweep.cell_solves"] / sweep_run
    m["sweep.iterations"] = sum(s.get("iterations", 0) for s in sweeps)
    m["sweep.fixup_cells"] = sum(s.get("fixup_cells", 0) for s in sweeps)
    m["core.chunks"] = sum(s["chunks"] for s in results)
    m["core.chunks_per_s"] = m["core.chunks"] / sum(proper.values())
    m["core.sim_s"] = sum(s["sim_s"] for s in results)
    for k in ("busy_s", "dma_wait_s", "sync_wait_s", "idle_s"):
        m[f"cellsim.{k}"] = sum(s[k] for s in results)
    for k in ("mic_util", "eib_util"):
        m[f"cellsim.{k}"] = statistics.fmean(s[k] for s in results)
    m["cellsim.traffic_gb"] = sum(s["traffic_bytes"] for s in results) / 1e9
    return m


def gen_late_max(run):
    return max(r["submit_start"] - r["due"] for r in run["rate_jobs"])


def check_open_loop(rec):
    """Raises InvalidRun when the generator submitted a job later than
    LATE_BOUND_S after its due time: the offered rate was not held."""
    for key in ("untraced", "pass"):
        if key in rec and gen_late_max(rec[key]) > LATE_BOUND_S:
            raise InvalidRun(f"open-loop generator ran "
                             f"{gen_late_max(rec[key]):.3f} s late "
                             f"(bound {LATE_BOUND_S} s)")


def per_layer(workload, rec, jobs, names):
    """Every per-layer metric of BENCHMARK.json; a layer this workload never
    calls reads 0."""
    m = serve_layers(rec, jobs) if workload == "serve-mix" else \
        solo_layers(workload, rec)
    unknown = set(m) - set(names)
    if unknown:
        raise AssertionError(f"metrics missing from BENCHMARK.json: {unknown}")
    return {n: float(m.get(n, 0.0)) for n in names}


def finite_or_none(value):
    """A metric as JSON can carry it: a value that failed jobs made
    infinite (or inf - inf) is written as null."""
    return value if math.isfinite(value) else None


def result_line(bad, attempted, failed, metrics, units):
    """The last line of standard output: strict JSON (no Infinity/NaN)."""
    return json.dumps({
        "correct": not bad, "attempted": attempted, "failed": failed,
        "metrics": {n: {"value": finite_or_none(metrics[n]), "unit": u}
                    for n, u in units.items()}}, allow_nan=False)


# ---- environment -----------------------------------------------------------

def fingerprint(rec):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f
                        if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None  # a benchmark checkout need not be a git repository
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "__pycache__")
            for f in sorted(files):
                p = os.path.join(d, f)
                digest.update(os.path.relpath(p, ROOT).encode() + b"\0")
                with open(p, "rb") as fh:
                    digest.update(fh.read())
    return {"cpu": cpu, "nproc": len(os.sched_getaffinity(0)),
            "compiler": rec["compiler"], "build_type": rec["build_type"],
            "git_commit": commit, "source_sha256": digest.hexdigest()}


# ---- build and run -----------------------------------------------------------

def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))):
        fail(f"no CellSweep sources under {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    bdir = os.path.dirname(CLIENT)
    log = os.path.join(BUILD, "perfbench-build.log")
    with open(os.path.join(BUILD, "build.lock"), "w") as lock, \
            open(log, "a") as out:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "--build", bdir, "--target", "perfbench_client",
                  "-j", str(min(4, os.cpu_count() or 1))]]
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.insert(0, ["cmake", "-S", HERE, "-B", bdir,
                             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode:
                fail(f"build failed, see {log}")


def make_inputs(workload, seed, seconds, rate):
    """(client input bytes, serve-mix job list or None): pure in the seed."""
    if workload == "serve-mix":
        jobs = mix.serve_mix(seed, rate, seconds)
        return mix.encode(jobs), jobs
    with open(os.path.join(HERE, "decks", DECKS[workload]), "rb") as f:
        return f.read(), None


def client(workload, input_path, out_path, seconds, trace, setup_only=False):
    cmd = [CLIENT, "--workload", workload, "--input", input_path,
           "--out", out_path, "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    subprocess.run(cmd, check=True, timeout=CLIENT_TIMEOUT_S)
    with open(out_path) as f:
        return json.load(f)


def setup_seconds(workload, args, rundir):
    """One set-up: inputs generated and written, client started, inputs
    loaded and the workload's state (the server) built."""
    t0 = time.monotonic()
    data, _ = make_inputs(workload, args.seed, args.seconds, args.serve_rate)
    path = os.path.join(rundir, "setup-input")
    with open(path, "wb") as f:
        f.write(data)
    rec = client(workload, path, os.path.join(rundir, "setup.json"),
                 args.seconds, 0, setup_only=True)
    return rec["ready_s"] - t0


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--serve-rate", type=float,
                    help="serve-mix fixed arrival rate, jobs/s (BENCHMARK.json "
                         "fixes it)")
    args = ap.parse_args(argv)
    if args.workload == "serve-mix" and not args.serve_rate:
        ap.error("serve-mix needs --serve-rate")

    bench = load_benchmark()
    build()
    rundir = os.path.join(BUILD, "runs",
                          f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(rundir, exist_ok=True)

    setups = [setup_seconds(args.workload, args, rundir)
              for _ in range(SETUPS // 2)]
    data, jobs = make_inputs(args.workload, args.seed, args.seconds,
                             args.serve_rate)
    input_path = os.path.join(rundir, "input")
    with open(input_path, "wb") as f:
        f.write(data)
    rec = client(args.workload, input_path, os.path.join(rundir, "records.json"),
                 args.seconds, args.trace)
    setups += [setup_seconds(args.workload, args, rundir)
               for _ in range(SETUPS - SETUPS // 2)]

    attempted, bad = check(args.workload, rec, jobs)
    try:
        if args.workload == "serve-mix":
            check_open_loop(rec)
        if args.trace:
            specs = bench["per_layer"]
            metrics = per_layer(args.workload, rec, jobs,
                                [s["name"] for s in specs])
        else:
            specs = bench["end_to_end"]
            metrics = end_to_end(args.workload, rec, jobs, setups)
    except InvalidRun as e:
        print(f"perfbench: invalid run, not reported: {e}", file=sys.stderr)
        return 3

    failed_ops = len({op for op, _ in bad})
    fp = fingerprint(rec)
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "fingerprint": fp,
               "metrics": {n: finite_or_none(v) for n, v in metrics.items()},
               "setups_s": setups, "failures": bad}
    if jobs is not None:
        summary["mix"] = mix.describe(jobs)
    if args.trace:
        summary["spans"] = rec["spans"]
    with open(os.path.join(rundir, "summary.json"), "w") as f:
        json.dump(summary, f, indent=1, allow_nan=False)

    for op, why in bad:
        print(f"check failed: op {op}: {why}")
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    if jobs is not None:
        print("mix " + json.dumps(mix.describe(jobs), sort_keys=True))
    units = {s["name"]: s["unit"] for s in specs}
    for name in units:
        print(f"{name:34s} {metrics[name]:.6g} {units[name]}")
    print(f"{'error_share':34s} {failed_ops / attempted:.6g} ratio "
          f"({failed_ops} of {attempted} operations)")
    print(result_line(bad, attempted, failed_ops, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
