"""Table I: time to find parallelization strategies.

Each benchmark times one (network, p, searcher) cell of the paper's
Table I.  The breadth-first cells that the paper reports as OOM raise
`SearchResourceError` here; they are asserted (fast) rather than timed.
"""

import pytest

from repro.core.exceptions import SearchResourceError
from repro.experiments.common import build_setup, search_with
from _config import BENCH_PS

NETWORKS = ("alexnet", "inception_v3", "rnnlm", "transformer")

#: (network, searcher) cells that complete; BF on the branchy graphs OOMs.
SEARCH_CELLS = [
    (net, method)
    for net in NETWORKS
    for method in ("bf", "mcmc", "ours")
    if not (method == "bf" and net in ("inception_v3", "transformer"))
]


@pytest.mark.parametrize("p", BENCH_PS)
@pytest.mark.parametrize("net,method", SEARCH_CELLS,
                         ids=[f"{n}-{m}" for n, m in SEARCH_CELLS])
def test_search_time(benchmark, net, method, p):
    setup = build_setup(net, p)
    result = benchmark.pedantic(
        lambda: search_with(setup, method), rounds=1, iterations=1)
    assert result.cost > 0
    # Table I consistency: on path graphs BF finds the same optimum.
    if method == "bf":
        assert result.cost == pytest.approx(search_with(setup, "ours").cost)


#: The OOM cells also run at p=16 on the default grid, where a BF
#: vertex's table needs gigabytes: only a byte ledger that charges what
#: the DP allocates turns it into Table I's "OOM" before numpy's
#: MemoryError or the OOM killer.
OOM_PS = tuple(sorted(set(BENCH_PS) | {16}))


@pytest.mark.parametrize("p", OOM_PS)
@pytest.mark.parametrize("net", ("inception_v3", "transformer"))
def test_breadth_first_oom(benchmark, net, p):
    """The paper's OOM cells: BF DP exceeds the table budget."""
    setup = build_setup(net, p)

    def run():
        with pytest.raises(SearchResourceError):
            search_with(setup, "bf")

    benchmark.pedantic(run, rounds=1, iterations=1)


@pytest.mark.parametrize("net", NETWORKS)
def test_ours_faster_than_mcmc_at_p8(net):
    """Table I's headline ordering: the DP beats the MCMC comparator's
    search time on every network (at the shared p=8 point)."""
    setup = build_setup(net, 8)
    ours = search_with(setup, "ours")
    mcmc = search_with(setup, "mcmc")
    assert ours.elapsed < mcmc.elapsed
    assert ours.cost <= mcmc.cost + 1e-9
