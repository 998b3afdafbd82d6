#!/usr/bin/env python3
"""The trigon benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds ``trigon`` and the helper
``perfbench-layers`` (into ``$CARGO_TARGET_DIR``, default
``.bench_build``), makes the workload's inputs from the seed under
``.bench_work/``, measures for ``S`` seconds, checks every count against
an in-process reference, prints a table of metrics with their sample
counts, and prints one JSON object as the last line of stdout.

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` runs the traced per-layer run instead. See README.md.
"""

import argparse
import json
import os
import shutil
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402
from benchlib import PROBE_REF_S, TooFewSamples, percentile  # noqa: E402

WORKLOADS = ("rmat-gpu", "sparse-cpu", "serve-zipf")
END_TO_END = ("setup_s", "pass_s.p50", "jobs_per_s", "job_s.p50",
              "slo_ok_ratio", "peak_rss_mb")
SETUP_REPS = 5  # set-ups per run; setup_s is their median
SEGMENT_S = 1.0  # serve-zipf serves in segments this long, a probe between two
MIN_PASSES = benchlib.min_samples(0.5)  # passes behind pass_s.p50
HARD_CAP_S = 150.0  # measuring never runs past this, whatever the minimums


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------

def build():
    """Builds both binaries and returns their paths."""
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = env["CARGO_TARGET_DIR"]
    for cmd in (["cargo", "build", "--release", "--quiet", "--bin", "trigon"],
                ["cargo", "build", "--release", "--quiet", "--manifest-path",
                 "perfbench/layers/Cargo.toml"]):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")
    return (os.path.join(target, "release", "trigon"),
            os.path.join(target, "release", "perfbench-layers"))


# --- outcomes ----------------------------------------------------------------

class Ledger:
    """Attempted, OK and failed operations, with the reason of each
    failure (exit code, signal, server error code or count mismatch)."""

    def __init__(self):
        self.attempted = 0
        self.failed = []

    def record(self, ok, reason=None):
        self.attempted += 1
        if not ok:
            self.failed.append(reason)


def check_result(ref, workload, count, values, what):
    """Compares one result with the reference of its graph; returns a
    mismatch reason or None."""
    if count != ref["triangles"]:
        return f"count mismatch on {what}: {count} != {ref['triangles']}"
    if workload == "clustering":
        for key in ("mean_clustering", "transitivity"):
            if values.get(key) != ref["workload"][key]:
                return (f"{key} mismatch on {what}: "
                        f"{values.get(key)!r} != {ref['workload'][key]!r}")
    return None


# --- host-speed probe --------------------------------------------------------

class Probe:
    """``perfbench-layers calib``: a fixed piece of work, sharing no code
    with the program, timed beside the measured work. On a shared host
    everything runs up to 1.5x slower for seconds or minutes at a time,
    and the probe slows by the same factor, so ``PROBE_REF_S / probe
    time`` scales a measured time to a host of fixed speed."""

    REPS = 2  # probes per sample, about 40 ms in all

    def __init__(self, helper):
        self.proc = subprocess.Popen([helper, "calib"], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        self.samples = []

    def sample(self):
        """Seconds one sample of the probe took, as the probe timed it."""
        total = 0
        for _ in range(self.REPS):
            self.proc.stdin.write(b"\n")
            self.proc.stdin.flush()
            line = self.proc.stdout.readline().split()
            if len(line) != 2 or int(line[1]) != benchlib.PROBE_TRIANGLES:
                raise BenchError(f"host-speed probe answered {line!r}")
            total += int(line[0])
        self.samples.append(total / 1e9)
        return self.samples[-1]

    def scale(self, before, after):
        """The factor for work done between two samples."""
        return PROBE_REF_S / ((before + after) / 2)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


# --- set-up ------------------------------------------------------------------

def clean(workdir):
    shutil.rmtree(workdir, ignore_errors=True)


def write_inputs(helper, plan, workdir):
    """Writes the plan and the dataset files it names into a fresh
    ``workdir``."""
    os.makedirs(workdir)
    path = os.path.join(workdir, "plan.json")
    with open(path, "wb") as f:
        f.write(benchlib.plan_bytes(plan))
    run_helper(helper, ["gen", path])
    return path


def run_helper(helper, args):
    r = subprocess.run([helper] + args, stdout=subprocess.PIPE)
    if r.returncode != 0:
        raise BenchError(f"perfbench-layers {args[0]} exited with {r.returncode}")
    return r.stdout


def references(helper, plan, names, workdir):
    """In-process reference results for the named graphs."""
    sub = dict(plan, graphs=[g for g in plan["graphs"] if g["name"] in names],
               jobs=[], conns=[], layer_jobs=[])
    path = os.path.join(workdir, "ref-plan.json")
    with open(path, "wb") as f:
        f.write(benchlib.plan_bytes(sub))
    return json.loads(run_helper(helper, ["ref", path]))


# --- CLI workloads ---------------------------------------------------------

def cli_command(trigon, plan, job):
    path = next(g["path"] for g in plan["graphs"] if g["name"] == job["graph"])
    cmd = [trigon, "run", path, "--method", job["method"], "--json"]
    if job["workload"] != "triangles":
        cmd += ["--workload", job["workload"]]
    return cmd


def run_cli_job(cmd, errlog):
    """Runs one job; returns (seconds, status, rusage, stdout)."""
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=errlog)
    out = p.stdout.read()
    p.stdout.close()
    _, status, ru = os.wait4(p.pid, 0)
    elapsed = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, p.returncode, ru, out


def cli_outcome(job, rc, out, results):
    """Classifies a finished job and keeps its result for checking."""
    if rc < 0:
        return False, f"{job['method']} {job['workload']}: killed by signal {-rc}"
    if rc != 0:
        return False, f"{job['method']} {job['workload']}: exit code {rc}"
    try:
        report = json.loads(out)
        count = report["result"]["count"]
    except (ValueError, KeyError) as e:
        return False, f"{job['method']} {job['workload']}: unreadable report ({e})"
    results.append((job, count, report.get("workload") or {}))
    return True, None


def measure_cli(trigon, plan, seconds, workdir, ledger, results, probe):
    """One job at a time, pass after pass over the job list, until the
    time is up and there are enough passes for a median. A probe sample
    before and after each pass gives the pass its scale factor."""
    jobs = plan["jobs"]
    commands = [cli_command(trigon, plan, j) for j in jobs]
    passes, ops, rss_kb = [], [], 0
    with open(os.path.join(workdir, "stderr.log"), "ab") as errlog:
        t0 = time.perf_counter()
        before = probe.sample()
        while True:
            now = time.perf_counter() - t0
            if now >= HARD_CAP_S or (now >= seconds and len(passes) >= MIN_PASSES):
                break
            p0 = time.perf_counter()
            done = []
            for job, cmd in zip(jobs, commands):
                elapsed, rc, ru, out = run_cli_job(cmd, errlog)
                ok, reason = cli_outcome(job, rc, out, results)
                ledger.record(ok, reason)
                done.append((elapsed, ok))
                rss_kb = max(rss_kb, ru.ru_maxrss)
            raw = time.perf_counter() - p0
            after = probe.sample()
            k = probe.scale(before, after)
            before = after
            passes.append((raw * k, raw))
            ops.extend((e * k, e, ok, None) for e, ok in done)
    return {"pass_s": passes, "ops": ops, "busy_s": passes, "peak_rss_mb": rss_kb / 1024.0}


# --- serve-zipf ---------------------------------------------------------------

def frame(msg):
    data = json.dumps(msg, separators=(",", ":")).encode()
    return struct.pack(">I", len(data)) + data


def exchange(f, data):
    """Sends one framed request and returns the raw response body."""
    f.write(data)
    f.flush()
    head = f.read(4)
    if len(head) < 4:
        raise BenchError("daemon closed the connection")
    (n,) = struct.unpack(">I", head)
    return f.read(n)


def request(f, msg):
    return json.loads(exchange(f, frame(msg)))


class Daemon:
    """One ``trigon serve --socket`` process at its default config."""

    def __init__(self, trigon, workdir):
        self.conns = []
        self.path = os.path.join(workdir, "d.sock")
        self.errlog = open(os.path.join(workdir, "daemon.log"), "ab")
        self.proc = subprocess.Popen([trigon, "serve", "--socket", self.path],
                                     stdout=subprocess.PIPE, stderr=self.errlog)
        line = self.proc.stdout.readline().decode()
        if not line.startswith("listening on"):
            self.stop()
            raise BenchError(f"daemon did not start: {line!r}")

    def connect(self):
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        s.connect(self.path)
        f = s.makefile("rwb")
        self.conns.append((s, f))
        return f

    def status(self, key):
        """A ``kB`` field of ``/proc/PID/status``, in MiB."""
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith(key + ":"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError(f"no {key} for the daemon")

    def usage(self):
        """(user s, system s, minor faults) of the daemon so far."""
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        tick = os.sysconf("SC_CLK_TCK")
        return int(fields[11]) / tick, int(fields[12]) / tick, int(fields[7])

    def stop(self):
        if self.proc.poll() is None:
            try:
                f = self.conns[0][1] if self.conns else self.connect()
                request(f, {"op": "shutdown"})
            except (OSError, BenchError, ValueError):
                pass
        for s, f in self.conns:
            try:
                f.close()
                s.close()
            except OSError:
                pass
        self.conns = []
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        self.errlog.close()


def serve_setup(trigon, plan, workdir):
    """Starts the daemon and sends each connection's initial loads."""
    daemon = Daemon(trigon, workdir)
    try:
        files = []
        for conn in plan["conns"]:
            f = daemon.connect()
            for op in conn["setup"]:
                resp = request(f, op)
                if not resp.get("ok"):
                    raise BenchError(f"setup load failed: {resp}")
            files.append(f)
    except BaseException:
        daemon.stop()
        raise
    return daemon, files


def query_outcome(op, resp, results):
    if not resp.get("ok"):
        return False, f"{op['op']}: server error code {resp.get('code')}", None
    if op["op"] != "query":
        return True, None, None
    try:
        report = resp["reports"][0]
        count, cache = report["result"]["count"], report["serving"]["cache"]
    except (KeyError, IndexError, TypeError) as e:
        return False, f"query: unreadable response ({e!r})", None
    results.append((op, count, report.get("workload") or {}))
    return True, None, cache


def serve_conn(f, ops, frames, start, deadline, out, seg):
    """Closed loop over one connection's requests (``frames`` holds them
    encoded) from request ``start`` until ``deadline`` passes or the
    requests run out; returns the next request's index. Responses are
    kept raw and parsed after the loop, so the client spends no time on
    them in between."""
    i = start
    while i < len(ops) and time.perf_counter() < deadline:
        t0 = time.perf_counter()
        raw = exchange(f, frames[i])
        out.append((ops[i], raw, time.perf_counter() - t0, seg))
        i += 1
    return i


def settle(outs, scales, ledger, results):
    """Parses the responses of :func:`serve_conn`. Returns the queries as
    (scaled s, raw s, ok, cache outcome) and the completed churn periods
    as (scaled s, raw s). A connection's first period starts with its
    first request and each churn step (evict, then load) starts the
    next; a period's time is the sum of its requests' latencies."""
    queries, periods = [], []
    for out in outs:
        scaled = raw_sum = 0.0
        for op, raw, elapsed, seg in out:
            if op["op"] == "evict":
                periods.append((scaled, raw_sum))
                scaled = raw_sum = 0.0
            k = scales[seg]
            scaled += elapsed * k
            raw_sum += elapsed
            ok, reason, cache = query_outcome(op, json.loads(raw), results)
            ledger.record(ok, reason)
            if op["op"] == "query":
                queries.append((elapsed * k, elapsed, ok, cache))
    return queries, periods


def measure_serve(daemon, files, plan, seconds, ledger, results, probe):
    """Both connections in a closed loop, each on its own thread, in
    segments of ``SEGMENT_S`` with a probe sample between two, until the
    time is up."""
    conns = plan["conns"]
    frames = [[frame(op) for op in conn["ops"]] for conn in conns]
    outs = [[] for _ in files]
    nexts = [0] * len(files)
    segments, errors = [], []  # segments: (scaled s, raw s)
    scales = []

    def loop(c, deadline, seg):
        try:
            nexts[c] = serve_conn(files[c], conns[c]["ops"], frames[c], nexts[c],
                                  deadline, outs[c], seg)
        except (OSError, ValueError, BenchError) as e:
            errors.append(e)

    t0 = time.perf_counter()
    before = probe.sample()
    while not errors:
        now = time.perf_counter() - t0
        periods = sum(1 for out in outs for op, _, _, _ in out if op["op"] == "evict")
        if now >= HARD_CAP_S or (now >= seconds and periods >= MIN_PASSES):
            break
        if any(n >= len(conn["ops"]) for n, conn in zip(nexts, conns)):
            raise BenchError("request sequence ran out; raise benchlib.MAX_QUERIES")
        s0 = time.perf_counter()
        threads = [threading.Thread(target=loop, args=(c, s0 + SEGMENT_S, len(scales)))
                   for c in range(len(files))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        raw = time.perf_counter() - s0
        after = probe.sample()
        scales.append(probe.scale(before, after))
        before = after
        segments.append((raw * scales[-1], raw))
    if errors:
        raise BenchError(f"connection failed: {errors[0]}")
    queries, periods = settle(outs, scales, ledger, results)
    return {
        "pass_s": periods,
        "ops": queries,
        "busy_s": segments,
        "peak_rss_mb": daemon.status("VmHWM"),
    }


# --- checking ------------------------------------------------------------------

def spec_of(item):
    """The plan graph behind a CLI job or a daemon query."""
    return item.get("spec") or item["graph"]


def verify(refs, results, ledger):
    """Checks every kept result against the reference of its graph. The
    operations already count as OK, so a mismatch turns one into a
    failure. Returns the number of mismatches."""
    mismatches = 0
    for item, count, values in results:
        spec = spec_of(item)
        reason = check_result(refs[spec], item["workload"], count, values,
                              f"{spec} {item['method']} {item['workload']}")
        if reason:
            ledger.failed.append(reason)
            mismatches += 1
    return mismatches


# --- end-to-end run ----------------------------------------------------------------

def end_to_end(workload, setups, m, mismatches):
    """The end-to-end metrics as {name: (value, unit, samples)}, plus the
    serve-only latency splits and the unscaled figures, which are printed
    but not reported. Times are scaled to the probe's reference host
    (:class:`Probe`); ``slo_ok_ratio`` holds real latencies to its limit."""
    ops = m["ops"]
    times = [e for e, _, _, _ in ops]
    ok = sum(1 for _, _, good, _ in ops if good) - mismatches
    limit = benchlib.SLO_LIMIT_S[workload]
    slo = sum(1 for _, raw, good, _ in ops if good and raw <= limit) - mismatches
    busy = sum(k for k, _ in m["busy_s"])
    metrics = {
        "setup_s": (statistics.median(k for k, _ in setups), "s", len(setups)),
        "pass_s.p50": (pct([k for k, _ in m["pass_s"]], 0.5), "s", len(m["pass_s"])),
        "jobs_per_s": (ok / busy, "1/s", len(ops)),
        "job_s.p50": (pct(times, 0.5), "s", len(ops)),
        "slo_ok_ratio": (max(slo, 0) / len(ops), "ratio", len(ops)),
        "peak_rss_mb": (m["peak_rss_mb"], "MiB", 1),
    }
    extra = {}
    if workload == "serve-zipf":
        hits = [e for e, _, good, cache in ops if good and cache == "hit"]
        misses = [e for e, _, good, cache in ops if good and cache == "miss"]
        for name, samples, p in (("job_s.p99", times, 0.99), ("hit_s.p50", hits, 0.5),
                                 ("miss_s.p50", misses, 0.5), ("miss_s.p90", misses, 0.9)):
            try:
                extra[name] = (percentile(samples, p), "s", len(samples))
            except TooFewSamples:
                extra[name] = (None, "s", len(samples))
    raw_busy = sum(r for _, r in m["busy_s"])
    extra.update({
        "unscaled.setup_s": (statistics.median(r for _, r in setups), "s", len(setups)),
        "unscaled.pass_s.p50": (pct([r for _, r in m["pass_s"]], 0.5), "s", len(m["pass_s"])),
        "unscaled.jobs_per_s": (ok / raw_busy, "1/s", len(ops)),
        "unscaled.job_s.p50": (pct([r for _, r, _, _ in ops], 0.5), "s", len(ops)),
    })
    return metrics, extra


def pct(samples, p):
    try:
        return percentile(samples, p)
    except TooFewSamples as e:
        raise BenchError(str(e)) from None


def steal_s():
    """Seconds of CPU time the host took from this machine so far (the
    ``steal`` column of ``/proc/stat``), or None where unavailable."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_end_to_end(args, trigon, helper, plan, workdir):
    serve = args.workload == "serve-zipf"
    setups, daemon = [], None
    ledger, results = Ledger(), []
    with Probe(helper) as probe:
        try:
            before = probe.sample()
            for rep in range(SETUP_REPS):
                if daemon:
                    daemon.stop()
                    daemon = None
                clean(workdir)
                t0 = time.perf_counter()
                write_inputs(helper, plan, workdir)
                if serve:
                    daemon, files = serve_setup(trigon, plan, workdir)
                raw = time.perf_counter() - t0
                after = probe.sample()
                setups.append((raw * probe.scale(before, after), raw))
                before = after
            steal0 = steal_s()
            if serve:
                m = measure_serve(daemon, files, plan, args.seconds, ledger, results, probe)
            else:
                m = measure_cli(trigon, plan, args.seconds, workdir, ledger, results, probe)
        finally:
            if daemon:
                daemon.stop()
        samples = probe.samples
    if steal0 is not None:
        # Diagnostic only: CPU taken by other tenants of the host.
        print(f"host steal during measurement: {steal_s() - steal0:.2f} s")
    print(f"host-speed probe: {len(samples)} samples, {min(samples):.4f}-{max(samples):.4f} s "
          f"(median {statistics.median(samples):.4f}; reference {PROBE_REF_S} s)")
    refs = references(helper, plan, {spec_of(item) for item, _, _ in results}, workdir)
    mismatches = verify(refs, results, ledger)
    metrics, extra = end_to_end(args.workload, setups, m, mismatches)
    extra["failed_ratio"] = (len(ledger.failed) / ledger.attempted, "ratio", ledger.attempted)
    print_table(f"{args.workload} end to end (seed {args.seed})", {**metrics, **extra})
    return ledger, metrics


# --- traced run ------------------------------------------------------------------

def proc_usage_cli(trigon, plan, workdir, ledger, results):
    """Per-job CPU, system time and minor faults of one untraced pass."""
    cpu = sys_s = minflt = 0.0
    with open(os.path.join(workdir, "stderr.log"), "ab") as errlog:
        for job in plan["jobs"]:
            _, rc, ru, out = run_cli_job(cli_command(trigon, plan, job), errlog)
            ok, reason = cli_outcome(job, rc, out, results)
            ledger.record(ok, reason)
            cpu += ru.ru_utime
            sys_s += ru.ru_stime
            minflt += ru.ru_minflt
    n = len(plan["jobs"])
    return cpu / n, sys_s / n, minflt / n, n


def proc_usage_serve(trigon, plan, workdir, ledger, results):
    """Per-request CPU, system time and minor faults of the daemon over
    the first requests of connection 0."""
    daemon, files = serve_setup(trigon, plan, workdir)
    try:
        n = min(2 * benchlib.TRACE_OPS, len(plan["conns"][0]["ops"]))
        before = daemon.usage()
        out = []
        ops = plan["conns"][0]["ops"][:n]
        serve_conn(files[0], ops, [frame(op) for op in ops], 0, float("inf"), out, 0)
        after = daemon.usage()
        settle([out], [1.0], ledger, results)
    finally:
        daemon.stop()
    return tuple((a - b) / n for a, b in zip(after, before)) + (n,)


def self_times(spans):
    """Each span's duration minus the time its child spans cover."""
    child = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    return [(s["end_ns"] - s["start_ns"] - c) / 1e9 for s, c in zip(spans, child)]


def mean(values):
    return sum(values) / len(values) if values else 0.0


def layer_metrics(doc, proc):
    """The per-layer metrics as {name: (value, unit, samples)}, plus
    ``core.hybrid.pass_s``, which is printed but not reported: sparse-cpu
    never runs the Eq. 6 pass, so it has no value there."""
    spans = doc["spans"]
    selfs = self_times(spans)
    by = {}
    for s, t in zip(spans, selfs):
        by.setdefault(s["name"], []).append((s, t))

    def times(name, pred=lambda s: True):
        return [t for s, t in by.get(name, []) if pred(s)]

    def attrs(name, key, pred=lambda s: True):
        return [s[key] for s, _ in by.get(name, []) if key in s and pred(s)]

    def avg(name, unit="s"):
        xs = times(name)
        return mean(xs), unit, len(xs)

    def avg_attr(name, key, unit):
        xs = attrs(name, key)
        return mean(xs), unit, len(xs)

    def p50(xs, unit):
        return pct(xs, 0.5), unit, len(xs)

    parse = times("graph.io.parse")
    edges = attrs("graph.io.parse", "edges")
    intersect = by.get("core.intersect.count", [])
    shares = [s["heaviest_ops"] / s["ops"] for s, _ in intersect if s["ops"]]
    run_off, run_std = times("core.run.off"), times("core.run.standard")
    is_query = lambda s: s.get("op") == "query" and s.get("ok")  # noqa: E731
    handle_hit = times("serve.server.handle", lambda s: is_query(s) and s.get("cache") == "hit")
    handle_miss = times("serve.server.handle", lambda s: is_query(s) and s.get("cache") == "miss")
    stats = [s for s, _ in by.get("serve.script", [])]
    per_pass = lambda key: total(key) / max(len(stats), 1)  # noqa: E731
    total = lambda key: sum(s.get(key) or 0 for s in stats)  # noqa: E731
    ratio = lambda a, b: total(a) / max(total(a) + total(b), 1)  # noqa: E731
    loads = times("serve.server.handle", lambda s: s.get("op") == "load")
    queued = [w for w in attrs("serve.server.handle", "queue_wait_s") if w]
    hybrid = times("core.hybrid.pass")
    traced = [p["wall_s"] for p in doc["passes"] if p["traced"]]
    untraced = [p["wall_s"] for p in doc["passes"] if not p["traced"]]
    m = {
        "graph.io.parse_s": (mean(parse), "s", len(parse)),
        "graph.io.edges_per_s": (sum(edges) / max(sum(parse), 1e-12), "1/s", len(parse)),
        "core.als.build_s": avg("core.als.build"),
        "core.als.heaviest_share": (max(shares, default=0.0), "ratio", len(shares)),
        "core.split.split_s": avg("core.split"),
        "core.split.chunks": avg_attr("core.split", "chunks", "count"),
        "core.intersect.count_s": avg("core.intersect.count"),
        "core.intersect.ops": avg_attr("core.intersect.count", "ops", "count"),
        "core.run.off_s": (mean(run_off), "s", len(run_off)),
        "core.run.standard_s": (mean(run_std), "s", len(run_std)),
        "core.run.standard_over_off": (sum(run_std) / max(sum(run_off), 1e-12), "ratio",
                                       len(run_std)),
        "core.report.to_json_s": avg("core.report.to_json"),
        "core.report.bytes": avg_attr("core.report.to_json", "bytes", "bytes"),
        "gpu_sim.transactions": avg_attr("job", "transactions", "count"),
        "gpu_sim.modeled_s": avg_attr("job", "modeled_s", "sim_s"),
        "serve.protocol.decode_s.p50": p50(times("serve.protocol.decode"), "s"),
        "serve.protocol.encode_s.p50": p50(times("serve.protocol.encode"), "s"),
        "serve.protocol.resp_bytes.p50": p50(attrs("serve.protocol.encode", "bytes"), "bytes"),
        "serve.server.handle_s.hit.p50": p50(handle_hit, "s"),
        "serve.server.handle_s.miss.mean": (mean(handle_miss), "s", len(handle_miss)),
        "serve.registry.result_hit_ratio": (ratio("result_hits", "result_misses"), "ratio",
                                            len(stats)),
        "serve.registry.artifact_hit_ratio": (ratio("artifact_hits", "artifact_misses"),
                                              "ratio", len(stats)),
        "serve.registry.evictions": (per_pass("evictions"), "count", len(stats)),
        "serve.registry.load_s": (mean(loads), "s", len(loads)),
        "serve.admission.queued": (len(queued) / max(len(stats), 1), "count", len(stats)),
    }
    for key in ("admitted", "routed", "rejected", "busy"):
        m[f"serve.admission.{key}"] = (per_pass(key), "count", len(stats))
    m["proc.cpu_s"] = (proc[0], "s", proc[3])
    m["proc.sys_s"] = (proc[1], "s", proc[3])
    m["proc.minflt"] = (proc[2], "count", proc[3])
    m["trace.overhead_ratio"] = (mean(traced) / mean(untraced), "ratio", len(traced))
    extra = {"core.hybrid.pass_s": (mean(hybrid) if hybrid else None, "s", len(hybrid))}
    return m, extra


def check_spans(doc, refs, reg_to_spec, ledger):
    """Checks the counts the traced run saw against the references."""
    spans = doc["spans"]
    for s in spans:
        name = s["name"]
        if name in ("core.intersect.count", "core.hybrid.pass"):
            spec = spans[s["parent"]]["graph"]
            ok = s["triangles"] == refs[spec]["triangles"]
            ledger.record(ok, None if ok else f"{name} count mismatch on {spec}")
        elif name == "job":
            reason = check_result(refs[s["graph"]], s["workload"], s["count"], s,
                                  f"{s['graph']} {s['method']} {s['workload']}")
            ledger.record(reason is None, reason)
        elif name == "serve.server.handle" and s.get("op") != "report":
            if not s.get("ok"):
                ledger.record(False, f"{s.get('op')}: server error code {s.get('code')}")
            elif s.get("op") == "query":
                spec = reg_to_spec[s["graph"]]
                reason = check_result(refs[spec], s["workload"], s["count"], s,
                                      f"{spec} served {s['workload']}")
                ledger.record(reason is None, reason)
            else:
                ledger.record(True)


def run_traced(args, trigon, helper, plan, workdir):
    clean(workdir)
    plan_path = write_inputs(helper, plan, workdir)
    ledger, results = Ledger(), []
    if args.workload == "serve-zipf":
        proc = proc_usage_serve(trigon, plan, workdir, ledger, results)
    else:
        proc = proc_usage_cli(trigon, plan, workdir, ledger, results)
    spans_path = os.path.join(".bench_work", f"trace-{args.workload}-s{args.seed}.json")
    run_helper(helper, ["trace", plan_path, str(args.seconds), spans_path])
    with open(spans_path) as f:
        doc = json.load(f)
    reg_to_spec = {g["name"]: g["name"] for g in plan["graphs"]}
    for conn in plan.get("conns", []):
        for op in conn["setup"] + conn["ops"]:
            if op["op"] == "load":
                reg_to_spec[op["name"]] = op["spec"]
    used = {reg_to_spec[s["graph"]] for s in doc["spans"] if "graph" in s and s["graph"]}
    used |= {spec_of(item) for item, _, _ in results}
    refs = references(helper, plan, used, workdir)
    check_spans(doc, refs, reg_to_spec, ledger)
    verify(refs, results, ledger)
    metrics, extra = layer_metrics(doc, proc)
    print_table(f"{args.workload} per layer, traced (seed {args.seed}; spans in {spans_path})",
                {**metrics, **extra})
    print_per_method(doc)
    print_time_shares(doc)
    return ledger, metrics


def print_per_method(doc):
    """``Run::execute`` per method at both telemetry levels."""
    spans = doc["spans"]
    rows = {}
    for s in spans:
        if s["name"] in ("core.run.off", "core.run.standard"):
            job = spans[s["parent"]]
            key = (job["method"], job["workload"])
            rows.setdefault(key, {}).setdefault(s["name"], []).append(
                (s["end_ns"] - s["start_ns"]) / 1e9)
    print("  Run::execute per method (mean s at Off, at Standard, ratio):")
    for (method, workload), r in sorted(rows.items()):
        off, std = mean(r["core.run.off"]), mean(r["core.run.standard"])
        print(f"    {method + ' ' + workload:<34} {off:10.4f} {std:10.4f} {std / off:8.2f}")


def print_time_shares(doc):
    """Self time per span name as a share of the traced passes."""
    spans = doc["spans"]
    selfs = self_times(spans)
    total = sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == "pass") / 1e9
    acc = {}
    for s, t in zip(spans, selfs):
        acc[s["name"]] = acc.get(s["name"], 0.0) + t
    print(f"  self time of the traced passes ({total:.3f} s):")
    for name, t in sorted(acc.items(), key=lambda kv: -kv[1]):
        print(f"    {name:<34} {t:10.4f} s  {100 * t / total:5.1f} %")


# --- output ----------------------------------------------------------------------

def print_table(title, metrics):
    print(title)
    for name, (value, unit, n) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<38} {shown:>14} {unit:<6} n={n}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    workdir = os.path.join(".bench_work", f"{args.workload}-s{args.seed}")
    try:
        trigon, helper = build()
        plan = benchlib.plan_for(args.workload, args.seed, workdir)
        run = run_traced if args.trace else run_end_to_end
        ledger, metrics = run(args, trigon, helper, plan, workdir)
    except (BenchError, OSError) as e:
        log(f"benchmark failed: {e}")
        return 1
    finally:
        clean(workdir)
    for reason in ledger.failed[:20]:
        log(f"failed: {reason}")
    correct = not ledger.failed
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
