"""Partitioning optimisers (paper §4-§5).

* :mod:`~repro.optimize.evolution` — the paper's evolution strategy;
* :mod:`~repro.optimize.start` — module-size pre-estimation and
  chain-clustering start partitions (§4.2);
* :mod:`~repro.optimize.standard` — the §5 "standard partitioning"
  baseline the paper compares against;
* :mod:`~repro.optimize.annealing`, :mod:`~repro.optimize.random_search`,
  :mod:`~repro.optimize.greedy` — the alternative heuristic families the
  paper names (§4: "force-driven, simulated annealing, Monte Carlo,
  genetic, e.g."), used by the ablation benches.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "result": ("GenerationRecord", "OptimizationResult"),
        "start": ("chain_start_partition", "estimate_module_count", "start_population"),
        "evolution": ("EvolutionOptimizer", "evolve_partition"),
        "standard": ("standard_partition",),
        "annealing": ("AnnealingParams", "anneal_partition"),
        "random_search": ("random_search_partition",),
        "greedy": ("greedy_refine",),
        "force_directed": ("force_directed_partition",),
        "kl": ("kl_refine",),
        "portfolio": ("portfolio_partition",),
    },
)
