"""Pure helpers of the trigon benchmark: seeded randomness, the
percentile rule, and the workload plans.

Everything here is a function of its arguments, so the same seed gives
the same plan byte for byte; ``test_benchlib.py`` pins that.
"""

import json
import math

MASK64 = (1 << 64) - 1

# A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10

# Per-operation latency limits behind ``slo_ok_ratio``, per workload.
# They sit well above the slowest operation each workload has on a
# 2-core box, so the ratio drops only when something stalls or fails.
SLO_LIMIT_S = {"rmat-gpu": 2.0, "sparse-cpu": 3.0, "serve-zipf": 2.0}

# The host-speed probe (``perfbench-layers calib``): its triangle count,
# which checks it ran, and the time of one sample (two probes) on the
# reference host that scaled times refer to. A 2-core VM with 2 GHz vCPUs
# took 0.040-0.046 s at its fastest.
PROBE_TRIANGLES = 2335
PROBE_REF_S = 0.040

# --- serve-zipf shape ------------------------------------------------------
CONNECTIONS = 2
LIVE_GRAPHS = 5  # graphs each connection keeps loaded
CHURN_EVERY = 40  # queries between an evict + load on a connection
MAX_QUERIES = 12000  # per connection; about 3x what a 30 s run reaches
FILE_POOL = 12  # dataset files written per connection at setup
TRACE_OPS = 100  # requests per connection the traced run replays
ZIPF_S = 1.0
# Graphs cycle through the models in this order on each connection and
# all have SERVE_N vertices, so every seed serves the same mix; the seed
# picks only their structure.
SERVE_MODELS = ("rmat", "ba", "ws", "gnp")
SERVE_N = 4000
# (method, workload) pairs the daemon accepts; the intersection methods
# count triangles only.
SERVE_PAIRS = (
    ("cpu-fast", "triangles"),
    ("cpu-fast", "clustering"),
    ("cpu-intersect", "triangles"),
    ("gpu-intersect", "triangles"),
    ("gpu-sampled", "triangles"),
    ("gpu-sampled", "clustering"),
    ("hybrid", "triangles"),
    ("hybrid", "clustering"),
)


class SplitMix64:
    """SplitMix64: a tiny seeded generator whose stream does not depend
    on the Python version."""

    def __init__(self, seed):
        self.state = seed & MASK64

    def next(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def uniform(self):
        """A float in [0, 1)."""
        return (self.next() >> 11) / float(1 << 53)

    def below(self, n):
        """An integer in [0, n)."""
        return self.next() % n

    def seed(self):
        """A generator seed for the program (kept below 2^53 so it
        survives any JSON reader)."""
        return self.next() >> 11


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples."""


def percentile(samples, p):
    """Nearest-rank percentile ``p`` (0 < p < 1) of ``samples``.

    Refuses, with :class:`TooFewSamples`, unless at least
    ``TAIL_SAMPLES`` samples lie beyond the returned rank: a median needs
    20 samples, a p90 100 and a p99 1,000.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"percentile {p} is outside (0, 1)")
    n = len(samples)
    rank = max(1, math.ceil(p * n - 1e-9))
    beyond = n - rank
    if beyond < TAIL_SAMPLES:
        raise TooFewSamples(
            f"p{round(p * 100)} of {n} samples has {beyond} beyond it; "
            f"needs {TAIL_SAMPLES}"
        )
    return sorted(samples)[rank - 1]


def min_samples(p):
    """The fewest samples :func:`percentile` accepts for ``p``."""
    n = 1
    while n - max(1, math.ceil(p * n - 1e-9)) < TAIL_SAMPLES:
        n += 1
    return n


def _graph(name, model, n, seed, source, workdir):
    g = {"name": name, "model": model, "n": n, "seed": seed, "source": source}
    if source != "gen":
        ext = "mtx" if source == "mm" else "txt"
        g["path"] = f"{workdir}/{name}.{ext}"
    return g


def _job(graph, method, workload):
    return {"graph": graph["name"], "method": method, "workload": workload}


def cli_plan(workload, seed, workdir):
    """The plan of a one-job-at-a-time CLI workload."""
    rng = SplitMix64(seed)
    if workload == "rmat-gpu":
        # Two graphs per pass halve the share of one graph's structure.
        graphs = [_graph(f"rmat{i}", "rmat", 8000, rng.seed(), "edges", workdir)
                  for i in (1, 2)]
        jobs = [_job(g, m, "triangles") for g in graphs
                for m in ("gpu-intersect", "gpu-sampled", "hybrid")]
    elif workload == "sparse-cpu":
        ba = _graph("ba", "ba", 25000, rng.seed(), "edges", workdir)
        ws = _graph("ws", "ws", 40000, rng.seed(), "mm", workdir)
        graphs = [ba, ws]
        # Five jobs, not six: with an odd count the median job sits inside
        # one job's cluster of times, not in the gap between two.
        jobs = [_job(ba, "cpu-fast", "triangles"), _job(ba, "cpu-fast", "clustering"),
                _job(ba, "cpu-intersect", "triangles"), _job(ws, "cpu-fast", "clustering"),
                _job(ws, "cpu-intersect", "triangles")]
    else:
        raise ValueError(f"unknown CLI workload {workload!r}")
    return {"workload": workload, "graphs": graphs, "jobs": jobs}


def _zipf_cdf(k, s):
    weights = [1.0 / (r + 1) ** s for r in range(k)]
    total = sum(weights)
    acc, cdf = 0.0, []
    for w in weights:
        acc += w / total
        cdf.append(acc)
    return cdf


def _load_op(reg_name, spec):
    op = {"op": "load", "name": reg_name}
    if spec["source"] == "gen":
        op.update({"gen": spec["model"], "n": spec["n"], "seed": spec["seed"]})
    else:
        op.update({"path": spec["path"], "format": spec["source"]})
    return op


def serve_plan(seed, workdir):
    """The plan of ``serve-zipf``: per connection, the setup loads and
    the measured request sequence.

    Each connection keeps ``LIVE_GRAPHS`` graphs under its own names, so
    the two never share a cache key and each one's hit/miss sequence is
    fixed by the seed. A query picks its graph by Zipf rank and its
    (method, workload) uniformly. Every ``CHURN_EVERY`` queries the
    connection evicts its least popular graph and loads a fresh one as
    the most popular; loads alternate between dataset files (a pool
    written at setup, edge list and MatrixMarket in turn) and ``gen``.
    """
    rng = SplitMix64(seed)
    cdf = _zipf_cdf(LIVE_GRAPHS, ZIPF_S)
    graphs, conns, layer_jobs = [], [], []
    for c in range(CONNECTIONS):
        counter = {"gen": 0, "load": 0, "spec": 0}

        def new_spec(source, name=None):
            model = SERVE_MODELS[counter["spec"] % len(SERVE_MODELS)]
            counter["spec"] += 1
            if name is None:
                name = f"c{c}-gen{counter['gen']}"
                counter["gen"] += 1
            spec = _graph(name, model, SERVE_N, rng.seed(), source, workdir)
            graphs.append(spec)
            return spec

        pool = [new_spec("edges" if i % 2 == 0 else "mm", f"c{c}-file{i}")
                for i in range(FILE_POOL)]
        pool_next = 0

        def fresh(index):
            # Loads alternate file, gen, file, ...; conn 1 starts with
            # MatrixMarket so both formats appear among the first loads.
            nonlocal pool_next
            if index % 2 == 0:
                spec = pool[(pool_next + c) % FILE_POOL]
                pool_next += 1
                return spec
            return new_spec("gen")

        def register(spec):
            reg = f"c{c}-g{counter['load']}"
            counter["load"] += 1
            return reg, _load_op(reg, spec)

        live, setup = [], []  # live: (registry name, spec), most popular first
        for i in range(LIVE_GRAPHS):
            spec = fresh(i)
            reg, op = register(spec)
            op["spec"] = spec["name"]
            setup.append(op)
            live.append((reg, spec))
        for reg, spec in live[:2]:
            m, w = SERVE_PAIRS[rng.below(len(SERVE_PAIRS))]
            layer_jobs.append({"graph": spec["name"], "method": m, "workload": w})
        ops, loads = [], LIVE_GRAPHS
        for q in range(MAX_QUERIES):
            if q and q % CHURN_EVERY == 0:
                reg, _ = live.pop()
                ops.append({"op": "evict", "name": reg})
                spec = fresh(loads)
                loads += 1
                reg, op = register(spec)
                op["spec"] = spec["name"]
                ops.append(op)
                live.insert(0, (reg, spec))
            u = rng.uniform()
            rank = next((r for r, edge in enumerate(cdf) if u < edge), LIVE_GRAPHS - 1)
            m, w = SERVE_PAIRS[rng.below(len(SERVE_PAIRS))]
            ops.append({"op": "query", "graph": live[rank][0], "method": m,
                        "workload": w, "spec": live[rank][1]["name"]})
        conns.append({"setup": setup, "ops": ops})
    return {"workload": "serve-zipf", "graphs": graphs, "conns": conns,
            "layer_jobs": layer_jobs, "trace_ops": TRACE_OPS}


def plan_for(workload, seed, workdir):
    """The plan of any workload."""
    if workload == "serve-zipf":
        return serve_plan(seed, workdir)
    return cli_plan(workload, seed, workdir)


def plan_bytes(plan):
    """The plan as the bytes written for the helper."""
    return json.dumps(plan, sort_keys=True, separators=(",", ":")).encode()
