#!/usr/bin/env python
"""InceptionV3: why vertex ordering matters (paper Sections III-C, IV-A).

Shows the Section III-C phenomenon end to end: InceptionV3's graph is
sparse except for a dozen concat/fan-out vertices; breadth-first ordering
inflates the DP's dependent sets past any reasonable memory budget (the
paper's Table I "OOM" entries) while GENERATESEQ keeps them at <= 2 and
finds the strategy in seconds.

Run:  python examples/inception_strategy.py [p]
"""

import sys

from repro.analysis import section_3c_report
from repro.core import (
    ConfigSpace,
    CostModel,
    GTX1080TI,
    SearchResourceError,
    breadth_first_seq,
    find_best_strategy,
)
from repro.models import inception_v3


def main() -> None:
    p = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    graph = inception_v3()

    print("== graph structure (paper Fig. 5 / Section III-C) ==")
    rep = section_3c_report(graph, ps=(p,))
    for key in ("nodes", "edges", "nodes_degree_lt_5", "nodes_degree_ge_5",
                "bf_max_dependent", "generateseq_max_dependent"):
        print(f"  {key:28s} {rep[key]}")
    print(f"  BF combination bound         {rep['bf_combinations_bound']:.2e}")
    print(f"  GENERATESEQ bound            {rep['generateseq_combinations_bound']:.2e}")

    space = ConfigSpace.build(graph, p)
    tables = CostModel(GTX1080TI).build_tables(graph, space)

    print(f"\n== the same DP over a breadth-first ordering, p={p} ==")
    try:
        find_best_strategy(graph, space, tables,
                           order=breadth_first_seq(graph),
                           method_name="naive-bf")
        print("  unexpectedly fit in budget")
    except SearchResourceError as exc:
        print(f"  OOM, as in Table I: {exc}")

    print(f"\n== FINDBESTSTRATEGY (GENERATESEQ), p={p} ==")
    result = find_best_strategy(graph, space, tables)
    print(f"  found in {result.elapsed:.2f}s, cost {result.cost:.3e}")
    print("  parallel layers (modules A-D stay data-parallel, module E "
          "and the FC head go hybrid):")
    print(result.strategy.format_table(graph, only_parallel=False))


if __name__ == "__main__":
    main()
