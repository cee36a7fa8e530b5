"""Reference KL pass: interleaved sample-score-commit, one trial per swap.

The pass :func:`repro.optimize.kl.kl_refine` replaced with pooled
``trial_swaps`` scoring and best-first replay-validated commits.  A pool
doesn't reflect its own commits, so the shipped pass samples other
swaps; the tests compare final costs across seeds, not draw for draw.
Patch it over ``repro.optimize.kl._batched_pass`` (:func:`as_batched_pass`)
to run ``kl_refine`` with it.
"""

from __future__ import annotations

from repro.optimize.kl import _SwapSampler


def sequential_pass(state, rng, cost, candidate_swaps, penalty):
    """The reference pass: interleaved sample-score-commit with locking."""
    locked: set[int] = set()
    sampler = _SwapSampler(state)
    improved = False
    evaluations = 0
    for _ in range(candidate_swaps):
        swap = sampler.sample(rng, locked)
        if swap is None:
            break
        gate_a, gate_b, module_a, module_b = swap
        trial_cost = state.trial_cost(
            [(gate_a, module_b), (gate_b, module_a)], penalty
        )
        evaluations += 1
        if trial_cost < cost - 1e-12:
            state.commit()
            cost = trial_cost
            locked.update((gate_a, gate_b))
            sampler.invalidate()
            improved = True
        else:
            state.rollback()
    return cost, evaluations, improved


def as_batched_pass(state, rng, cost, candidate_swaps, penalty, rounds):
    """:func:`sequential_pass` with ``_batched_pass``'s signature."""
    return sequential_pass(state, rng, cost, candidate_swaps, penalty)
