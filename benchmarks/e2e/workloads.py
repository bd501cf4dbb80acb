"""The benchmark's four workloads: what each runs and why it was chosen.

Only data lives here, so the harness modules, the oracle pinning script
and the tests share one definition.  Search problems are listed cheapest
first: ``--smoke`` runs just the first one of each workload.
"""

#: Scalar searches: (model, p).  Every op is
#: Problem.from_benchmark -> api.search(reduce=True) -> api.simulate.
SEARCH_P16 = (("rnnlm", 16), ("alexnet", 16), ("transformer", 16),
              ("inception_v3", 16))
#: Problems on which the reduction runs and dominates.  inception_v3 at
#: p=64 would take one 12-16 s op per run; p=32 keeps several samples.
SEARCH_REDUCE = (("transformer", 64), ("inception_v3", 32))

#: Frontier searches: (model, p, objective).  Exact frontiers on the big
#: nets do not finish in minutes yet, so those run coarsened.
FRONTIER = (("rnnlm", 64, "frontier"), ("alexnet", 16, "frontier"),
            ("alexnet", 32, "frontier"), ("alexnet", 64, "frontier"),
            ("inception_v3", 8, "frontier:eps=1"),
            ("transformer", 16, "frontier:eps=0.5"))

#: serve-mix request bodies.  Hot problems are answered once during
#: set-up, so in the timed phase they come back from the result cache.
SERVE_HOT = tuple({"model": m, "p": p}
                  for m in ("alexnet", "rnnlm") for p in (4, 8, 16)) + (
    {"model": "transformer", "p": 8, "reduce": True},)
#: Misses get a fresh request seed each, so a pool worker really runs
#: them (the seed changes the fingerprint, never the answer).
SERVE_MISS = tuple({"model": m, "p": p}
                   for m in ("rnnlm", "alexnet") for p in (8, 16))
SERVE_CLOSED = {"model": "rnnlm", "p": 8}

SERVE_WORKERS = 2
OPEN_RATE = 20.0           # open-loop arrivals per second
HOT_SHARE = 0.7            # share of open-loop requests that are hot
DUP_SHARE = 0.1            # share of misses sent twice, to coalesce
DUP_GAP = 0.002            # seconds between a miss and its duplicate
OPEN_SHARE = 0.75          # share of --seconds spent in the open loop
CLIENT_THREADS = 2         # client threads = connections = nproc
LATENCY_LIMIT_MS = 500.0   # stated limit on the open-loop tail

WORKLOADS = {
    "search-p16": {
        "kind": "search", "problems": SEARCH_P16,
        "why": "four models at p=16: tables, DP and simulator share the "
               "time and the reduction is bypassed on all but transformer "
               "(control for reduction changes)"},
    "search-reduce": {
        "kind": "search", "problems": SEARCH_REDUCE,
        "why": "transformer p=64 and inception_v3 p=32: the reduction runs "
               "and takes most of the time, and memory peaks"},
    "frontier": {
        "kind": "frontier", "problems": FRONTIER,
        "why": "cost x memory Pareto searches: the frontier DP does "
               "nearly all the work and no other workload runs it"},
    "serve-mix": {
        "kind": "serve", "problems": (),
        "why": "pase serve under a seeded open loop: cache hits, coalesced and "
               "worker-run misses, then a closed loop of misses"},
}


def scalar_key(model: str, p: int, reduce) -> str:
    """Oracle key of a scalar search; ``reduce`` as a request spells it."""
    return f"{model}/{p}/{'auto' if reduce else 'off'}"


def frontier_key(model: str, p: int, objective: str) -> str:
    return f"{model}/{p}/{objective}"


def required_keys() -> tuple[set[str], set[str]]:
    """Every (scalar, frontier) oracle key some workload checks."""
    scalar = {scalar_key(m, p, True) for m, p in SEARCH_P16 + SEARCH_REDUCE}
    scalar |= {scalar_key(d["model"], d["p"], d.get("reduce", False))
               for d in SERVE_HOT + SERVE_MISS + (SERVE_CLOSED,)}
    frontier = {frontier_key(*prob) for prob in FRONTIER}
    return scalar, frontier
