#!/usr/bin/env python3
"""Campaign benchmark for dtann.

    python3 perfbench/run.py --workload fig10-retrain --seed 1 \
        --seconds 28 --trace 0

Builds perfbench/ (which builds the dtann library from src/) into
$CARGO_TARGET_DIR or .bench_build, generates the workload's scenario
spec(s) from --seed, runs them through the public entry points for
--seconds seconds, checks every result, and prints one JSON object
as the last stdout line. --trace 0 reports the end-to-end metrics,
--trace 1 the per-layer metrics of a separate traced run. Results,
envelopes and span dumps land in .bench_out/<workload>/seed-<n>/.
--workload all runs every workload and prints one table.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".bench_out")
DIGESTS = os.path.join(HERE, "digests.json")

THREADS = 1  # worker threads of an offline campaign
DAEMON_THREADS = 2  # dtannd pool threads, and the threads its jobs ask for
CLIENTS = 2  # closed-loop daemon clients
REPLAY_CELLS = 4  # cells replayed through the layers in a traced run
MIN_REPS = 3  # campaigns (or daemon sessions) per untraced run, at least
REF_S = 0.030  # reference-kernel pass on the nominal host (hostref.hh)

WORKLOADS = ["fig10-retrain", "fig10-inference", "mitigation-systolic",
             "daemon-mixed"]
TASKS = ["vehicle", "breast", "iris"]  # widest first: even setup packing
STRATEGIES = ["noop", "retrain", "bypass", "clamp"]

class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------
# Specs: a pure function of (workload, seed)

def _rng(workload, seed):
    return random.Random("%s:%d" % (workload, seed))


def _campaign_seed(rng):
    return rng.randrange(1, 2 ** 31)


def _network(kind, name, seed, tasks, reps, rows, epoch_scale,
             retrain_scale):
    return {"kind": kind, "name": name, "seed": seed, "tasks": tasks,
            "repetitions": reps, "folds": 2, "rows": rows,
            "epoch_scale": epoch_scale, "retrain_scale": retrain_scale,
            "threads": THREADS}


def _mitigation(name, seed, tasks, reps, counts, backend):
    s = _network("mitigation", name, seed, tasks, reps, 40, 0.2, 0.1)
    s.update({"defect_counts": counts, "bist_vectors_per_unit": 8,
              "inject_pool": "all", "backend": backend,
              "strategies": STRATEGIES})
    return s


def _fig10(name, seed, tasks, reps, rows, epoch_scale, retrain):
    s = _network("fig10", name, seed, tasks, reps, rows, epoch_scale, 0.1)
    s.update({"defect_counts": [0, 9, 18, 27], "retrain": retrain})
    return s


def _daemon_job(kind, copy, seed):
    name = "mix-%s-%d" % (kind, copy)
    tasks = ["breast"]  # wide: most defects land in units the task uses
    if kind == "fig10":
        job = _fig10(name, seed, tasks, 12, 60, 0.2, True)
        job["defect_counts"] = [0, 9]
    elif kind == "fig11":
        job = _network("fig11", name, seed, tasks, 40, 60, 0.2, 0.1)
    elif kind == "mitigation":
        job = _mitigation(name, seed, tasks, 6, [0, 6], "spatial")
    else:
        job = {"kind": "fig5", "name": name, "seed": seed,
               "repetitions": 1500, "operators": ["adder4"],
               "defect_counts": [2]}
    job["threads"] = DAEMON_THREADS
    return job


def _daemon_jobs(rng):
    """Each closed-loop client runs two jobs of each kind, in a fixed
    order that staggers the clients (so a job's neighbour on the pool
    does not depend on the seed). Network jobs share one data seed,
    and so the daemon's task contexts, except a seeded copy of each
    client's fig10 and mitigation jobs, which draws a fresh one (a
    cache miss). Job i goes to client i % CLIENTS."""
    kinds = ["fig10", "fig11", "mitigation", "fig5"]
    shared = _campaign_seed(rng)
    per_client = []
    for c in range(CLIENTS):
        order = [(kinds[(i + 2 * c) % 4], i // 4) for i in range(8)]
        missing = {("fig10", rng.randrange(2)),
                   ("mitigation", rng.randrange(2))}
        per_client.append([
            _daemon_job(k, n, _campaign_seed(rng) if (k, n) in missing
                        else shared)
            for k, n in order])
    return [job for turn in zip(*per_client) for job in turn]


def workload_specs(workload, seed, tiny=False):
    """The workload's spec(s) for @seed: one offline spec, or the
    daemon job list. The seed picks the campaign seed(s) (data,
    baselines, defect draws) and, for the daemon, the job order and
    which jobs miss the shared cache; the shape is fixed so the work
    per run is comparable across seeds. @tiny shrinks every spec to
    one repetition for the benchmark's own tests."""
    specs = _full_specs(workload, _rng(workload, seed))
    if tiny:
        for s in specs:
            s["repetitions"] = 1
            if s["kind"] != "fig5":
                s["rows"] = min(s["rows"], 40)
    return specs


def _full_specs(workload, rng):
    if workload == "fig10-retrain":
        return [_fig10(workload, _campaign_seed(rng), TASKS, 4, 40, 0.2,
                       True)]
    if workload == "fig10-inference":
        return [_fig10(workload, _campaign_seed(rng), TASKS, 12, 150, 0.1,
                       False)]
    if workload == "mitigation-systolic":
        return [_mitigation(workload, _campaign_seed(rng), TASKS, 1,
                            [0, 4, 8, 14], "systolic")]
    if workload == "daemon-mixed":
        return _daemon_jobs(rng)
    raise BenchError("unknown workload '%s'" % workload)


def spec_bytes(spec):
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def mini_jobs(spec):
    """Two tiny daemon jobs derived from an offline spec: the traced
    run's probe of the server layer for an offline workload."""
    job = dict(spec, repetitions=1)
    job["defect_counts"] = job["defect_counts"][:2]
    job["tasks"] = job["tasks"][-1:]
    return [dict(job, name=spec["name"] + "-probe-%d" % i) for i in range(2)]


# ---------------------------------------------------------------------
# Correctness: digests of result envelopes without their telemetry

def _strip_sim(v):
    if isinstance(v, dict):
        return {k: _strip_sim(x) for k, x in v.items() if k != "sim"}
    if isinstance(v, list):
        return [_strip_sim(x) for x in v]
    return v


def envelope_digest(text):
    """sha256 of the envelope with every "sim" member removed."""
    doc = _strip_sim(json.loads(text))
    return hashlib.sha256(spec_bytes(doc).encode()).hexdigest()


def combined_digest(digests):
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def recorded_digest(workload, seed):
    try:
        with open(DIGESTS) as f:
            return json.load(f).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def check_digest(workload, seed, digest):
    """Problems with @digest against the recorded one (if any)."""
    want = recorded_digest(workload, seed)
    if want is not None and want != digest:
        return ["digest %s... differs from the recorded %s... for %s "
                "seed %d" % (digest[:12], want[:12], workload, seed)]
    return []


def envelope_problems(text, spec, cells):
    """Sanity checks of one offline envelope against its spec."""
    doc = json.loads(text)
    problems = []
    if doc.get("kind") != spec["kind"] or doc.get("seed") != spec["seed"]:
        problems.append("envelope kind/seed do not match the spec")
    if not doc.get("results"):
        problems.append("envelope has no results")
    if cells < 1:
        problems.append("campaign ran no cells")

    def accuracies(v):
        if isinstance(v, dict):
            for k, x in v.items():
                if k == "accuracy" and isinstance(x, (int, float)):
                    yield x
                else:
                    yield from accuracies(x)
        elif isinstance(v, list):
            for x in v:
                yield from accuracies(x)

    if any(not 0.0 <= a <= 1.0 for a in accuracies(doc["results"])):
        problems.append("accuracy outside [0, 1]")
    return problems


# ---------------------------------------------------------------------
# Build and run context

def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                             ".bench_build"))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no dtann source tree next to perfbench/ "
                         "(expected src/CMakeLists.txt)")
    bdir = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs, "--target",
                  "perfbench_driver", "dtannd"])
    for cmd in steps:
        p = subprocess.run(cmd, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            log(p.stdout[-4000:])
            raise BenchError("build step failed: " + " ".join(cmd))


def driver(*args):
    """Run perfbench_driver; returns (parsed last line, wall seconds).
    Exit code 3 (failed or mismatching jobs) still has a result line;
    it is kept as "driver_exit"."""
    cmd = [os.path.join(build_dir(), "perfbench_driver")] + list(args)
    t0 = time.monotonic()
    p = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True)
    wall = time.monotonic() - t0
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 3) or not lines:
        log(p.stderr[-4000:])
        raise BenchError("perfbench_driver %s exited %d"
                         % (args[0], p.returncode))
    out = json.loads(lines[-1])
    if p.returncode != 0:
        out["driver_exit"] = p.returncode
    return out, wall


def run_context(workload, seed):
    info, _ = driver("info")
    if info["build_type"] != "Release":
        raise BenchError("refusing to record from a %s build; configure "
                         "with -DCMAKE_BUILD_TYPE=Release"
                         % info["build_type"])
    threads = DAEMON_THREADS if workload == "daemon-mixed" else THREADS
    return {"nproc": os.cpu_count(), "threads": threads,
            "clients": CLIENTS, "build_type": info["build_type"],
            "lanes": info["lanes"], "lane_isa": info["lane_isa"],
            "seed": seed}


def threads_fit():
    need = max(THREADS, DAEMON_THREADS, CLIENTS)
    if (os.cpu_count() or 1) < need:
        raise BenchError("workloads need %d hardware threads, host has %d"
                         % (need, os.cpu_count() or 1))


# ---------------------------------------------------------------------
# Runs

def host_ref():
    """Seconds the host-speed reference kernel takes now."""
    out, _ = driver("hostref")
    return out["ref_s"]


def host_scale(ref_s):
    """Factor that turns a time measured while the reference kernel
    took @ref_s into the time on the nominal host (kernel: REF_S)."""
    return REF_S / ref_s


def e2e_metrics(units, job_ms, jobs_per_s):
    """End-to-end metrics over a run's units of work (campaigns or
    daemon sessions: wall_s, setup_s, cells, peak_rss_mb, scale each).
    Unit times are scaled by the unit's host scale here; @job_ms and
    @jobs_per_s (one rate per unit) come scaled already."""
    med = statistics.median
    return {
        "wall_s": med(u["wall_s"] * u["scale"] for u in units),
        "setup_s": med(u["setup_s"] * u["scale"] for u in units),
        "cells_per_s": med(u["cells"] / ((u["wall_s"] - u["setup_s"]) *
                                         u["scale"]) for u in units),
        "peak_rss_mb": med(u["peak_rss_mb"] for u in units),
        "job_ms_p50": med(job_ms),
        "job_ms_p90": statistics.quantiles(job_ms, n=10,
                                           method="inclusive")[-1],
        "jobs_per_s": med(jobs_per_s),
    }


def unit_log(units):
    """Record entries for a run's units: the median host scale and the
    raw measurements of every unit."""
    keys = ("wall_s", "setup_s", "cells", "scale")
    return {"host_scale": statistics.median(u["scale"] for u in units),
            "units": [{k: u[k] for k in keys} for u in units]}


def another_unit(done, durations, t0, seconds):
    """Start another unit of work while fewer than MIN_REPS are done,
    or while one more at the median pace ends within @seconds."""
    if done < MIN_REPS:
        return True
    return (time.monotonic() - t0 + statistics.median(durations)
            <= seconds)


def _write(path, text):
    with open(path, "w") as f:
        f.write(text)


class Run:
    """Outcome accounting shared by every workload."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def account(self, units, problems):
        self.attempted += units
        if problems:
            self.failed += units
            self.problems.extend(problems)

    def check_digest(self, workload, seed, digest):
        """A digest that differs from the recorded one makes every
        unit of the run wrong: they all produced that result."""
        problems = check_digest(workload, seed, digest)
        if problems:
            self.failed = self.attempted
            self.problems.extend(problems)


def campaign(spec_path, out, tag, trace=None, replay_seed=0):
    env_path = os.path.join(out, "envelope-%s.json" % tag)
    args = ["campaign", "--spec", spec_path, "--envelope", env_path]
    if trace:
        args += ["--trace", trace, "--replay", str(REPLAY_CELLS),
                 "--replay-seed", str(replay_seed)]
    res, wall = driver(*args)
    with open(env_path) as f:
        res["envelope"] = f.read()
    res["job_s"] = wall
    return res


def offline_untraced(workload, seed, seconds, spec, spec_path, out, run):
    # Each campaign is bracketed by reference-kernel timings; their
    # mean gives the campaign's host scale.
    reps, digests, durations = [], set(), []
    t0 = time.monotonic()
    ref = host_ref()
    while another_unit(len(reps), durations, t0, seconds):
        u0 = time.monotonic()
        try:
            r = campaign(spec_path, out, str(len(reps)))
        except BenchError as e:  # the campaign process failed
            run.account(1, [str(e)])
            if run.failed > MIN_REPS:
                raise
            continue
        after = host_ref()
        r["scale"] = host_scale((ref + after) / 2)
        ref = after
        durations.append(time.monotonic() - u0)
        problems = envelope_problems(r["envelope"], spec, r["cells"])
        digests.add(envelope_digest(r["envelope"]))
        if len(digests) > 1:
            problems.append("campaign %d: envelope differs from campaign 0"
                            % len(reps))
        run.account(int(r["cells"]), problems)
        reps.append(r)
    digest = next(iter(digests))
    run.check_digest(workload, seed, digest)
    job_s = [r["job_s"] * r["scale"] for r in reps]
    metrics = e2e_metrics(reps, [1e3 * s for s in job_s],
                          [1 / s for s in job_s])
    return metrics, dict(unit_log(reps), digest=digest,
                         campaigns=len(reps))


def daemon_run(jobs_path, out, seconds, trace=None):
    args = ["daemon", "--dtannd", os.path.join(build_dir(), "dtannd"),
            "--jobs", jobs_path, "--threads", str(DAEMON_THREADS),
            "--clients", str(CLIENTS), "--seconds", str(seconds),
            "--out", out]
    if trace:
        args += ["--trace", trace]
    res, _ = driver(*args)
    return res


def daemon_problems(res):
    problems = list(res["errors"])
    if res.get("driver_exit"):
        problems.append("daemon driver exited %d" % res["driver_exit"])
    return problems


def daemon_digest(out, njobs):
    digests = []
    for j in range(njobs):
        path = os.path.join(out, "job-%d.json" % j)
        if not os.path.exists(path):  # no offline envelope: job refused
            digests.append("missing")
            continue
        with open(path) as f:
            digests.append(envelope_digest(f.read()))
    return combined_digest(digests)


def daemon_untraced(workload, seed, seconds, out, jobs_path, njobs, run):
    # The driver repeats sessions while one more fits in `seconds`;
    # at least MIN_REPS. Each session carries its reference time.
    sessions, jobs = [], []
    t0 = time.monotonic()
    while len(sessions) < MIN_REPS:
        left = max(0, int(seconds - (time.monotonic() - t0)))
        res = daemon_run(jobs_path, out, left)
        run.account(int(res["attempted"]), daemon_problems(res))
        for i, s in enumerate(res["sessions"]):
            s["scale"] = host_scale(s["ref_s"])
            jobs += [j["ms"] * s["scale"]
                     for j in res["jobs"][i * njobs:(i + 1) * njobs]]
        sessions += res["sessions"]
    digest = daemon_digest(out, njobs)
    run.check_digest(workload, seed, digest)
    metrics = e2e_metrics(
        sessions, jobs,
        [s["jobs"] / (s["wall_s"] * s["scale"]) for s in sessions])
    return metrics, dict(unit_log(sessions), digest=digest,
                         sessions=len(sessions), jobs=len(jobs))


def layer_metrics(traced, session):
    """Per-layer metrics from one traced campaign (the driver names
    them "<layer>.<metric>") and one traced daemon session."""
    m = {k: v for k, v in traced.items() if "." in k}
    sim = traced["sim"]
    m.update({
        "circuit.scalar_vectors": sim["scalar_vectors"],
        "circuit.batch_vectors": sim["batch_vectors"],
        "circuit.scalar_gate_evals": sim["gate_evals"],
        "circuit.batch_gate_sweeps": sim["batch_gate_sweeps"],
        "circuit.lane_occupancy": sim["lane_occupancy"],
        "circuit.scalar_fallback_rate": sim["scalar_fallback_rate"],
    })
    jobs = session["jobs"]
    m.update({
        "server.submit_ms": statistics.median(j["submit_ms"] for j in jobs),
        "server.result_fetch_ms": statistics.median(j["fetch_ms"]
                                                    for j in jobs),
        "server.queue_wait_ms": statistics.median(j["queue_wait_ms"]
                                                  for j in jobs),
        "server.cache_hit_ratio": session["cache_hit_ratio"],
    })
    return m


def traced_run(workload, seed, spec, spec_path, jobs_path, out, run):
    """Untraced and traced primary run back to back (overhead), a
    traced campaign with cell replay, and a traced daemon session."""
    trace = os.path.join(out, "trace")
    os.makedirs(trace, exist_ok=True)
    if workload == "daemon-mixed":
        plain = daemon_run(jobs_path, out, 0)
        run.account(int(plain["attempted"]), daemon_problems(plain))
        run.check_digest(workload, seed, daemon_digest(out, len(spec)))
        session = daemon_run(jobs_path, out, 0, trace=trace)
        run.account(int(session["attempted"]), daemon_problems(session))
        untraced_wall = plain["sessions"][0]["wall_s"]
        traced_wall = session["sessions"][0]["wall_s"]
        rep_spec = next(j for j in spec if j["kind"] == "fig10")
        rep_path = os.path.join(out, "replay-spec.json")
        _write(rep_path, spec_bytes(rep_spec))
        traced = campaign(rep_path, out, "traced", trace, seed)
        run.account(int(traced["cells"]), envelope_problems(
            traced["envelope"], rep_spec, traced["cells"]))
    else:
        plain = campaign(spec_path, out, "untraced")
        traced = campaign(spec_path, out, "traced", trace, seed)
        problems = envelope_problems(traced["envelope"], spec,
                                     traced["cells"])
        digest = envelope_digest(traced["envelope"])
        if digest != envelope_digest(plain["envelope"]):
            problems.append("traced envelope differs from untraced")
        run.account(int(plain["cells"]) + int(traced["cells"]), problems)
        run.check_digest(workload, seed, digest)
        probe_path = os.path.join(out, "probe-jobs.jsonl")
        _write(probe_path, "".join(spec_bytes(j) + "\n"
                                   for j in mini_jobs(spec)))
        session = daemon_run(probe_path, out, 0, trace=trace)
        run.account(int(session["attempted"]), daemon_problems(session))
        untraced_wall, traced_wall = plain["wall_s"], traced["wall_s"]
    m = layer_metrics(traced, session)
    m.update({"trace.wall_s_untraced": untraced_wall,
              "trace.wall_s_traced": traced_wall,
              "trace.overhead_ratio": traced_wall / untraced_wall})
    return m, {"overhead_s": traced_wall - untraced_wall, "span_dir": trace}


def run_workload(workload, seed, seconds, trace, tiny=False):
    """One benchmark run; returns (result object, full record)."""
    threads_fit()
    context = run_context(workload, seed)
    out = os.path.join(OUT_ROOT, workload, "seed-%d" % seed)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    specs = workload_specs(workload, seed, tiny)
    spec_path = os.path.join(out, "spec.json")
    jobs_path = os.path.join(out, "jobs.jsonl")
    if workload == "daemon-mixed":
        spec = specs
        _write(jobs_path, "".join(spec_bytes(j) + "\n" for j in specs))
    else:
        spec = specs[0]
        _write(spec_path, spec_bytes(spec))

    run = Run()
    if trace:
        metrics, extra = traced_run(workload, seed, spec, spec_path,
                                    jobs_path, out, run)
    elif workload == "daemon-mixed":
        metrics, extra = daemon_untraced(workload, seed, seconds, out,
                                         jobs_path, len(specs), run)
    else:
        metrics, extra = offline_untraced(workload, seed, seconds, spec,
                                          spec_path, out, run)
    result = {"correct": run.failed == 0 and not run.problems,
              "attempted": max(1, run.attempted), "failed": run.failed,
              "metrics": metrics}
    record = dict(result, workload=workload, trace=bool(trace),
                  context=context, problems=run.problems,
                  failed_frac=run.failed / max(1, run.attempted), **extra)
    _write(os.path.join(out, "result-trace%d.json" % trace),
           json.dumps(record, indent=1, sort_keys=True) + "\n")
    return result, record


def units_of(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        section = json.load(f)["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def print_table(workload, record, units):
    log_lines = ["== %s (seed %d, trace %d) ==" % (
        workload, record["context"]["seed"], record["trace"])]
    log_lines.append("context: " + json.dumps(record["context"],
                                              sort_keys=True))
    for name in sorted(record["metrics"]):
        log_lines.append("  %-32s %14.6g %s" % (
            name, record["metrics"][name], units.get(name, "")))
    log_lines.append("  %-32s %14.6g %s" % ("failed_frac",
                                             record["failed_frac"], "ratio"))
    if "host_scale" in record:
        log_lines.append("  %-32s %14.6g (times above are measured x this)"
                         % ("host_scale", record["host_scale"]))
    if record["trace"]:
        log_lines.append("  %-32s %14.6g s (traced - untraced)" % (
            "trace.overhead_s", record["overhead_s"]))
        log_lines.append("  spans: " + record["span_dir"])
    for p in record["problems"]:
        log_lines.append("  PROBLEM: " + p)
    print("\n".join(log_lines), flush=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=28)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        build()
        workloads = WORKLOADS if args.workload == "all" else [args.workload]
        units = units_of(args.trace)
        results = {}
        for w in workloads:
            results[w], record = run_workload(w, args.seed, args.seconds,
                                              args.trace)
            print_table(w, record, units)
    except BenchError as e:
        log("perfbench: " + str(e))
        return 2
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"%s/%s" % (w, k): v for w, r in results.items()
                        for k, v in r["metrics"].items()}}
    else:
        final = results[args.workload]
    print(json.dumps({
        "correct": final["correct"], "attempted": final["attempted"],
        "failed": final["failed"],
        "metrics": {k: {"value": v, "unit": units.get(k.split("/")[-1])}
                    for k, v in final["metrics"].items()}}))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
