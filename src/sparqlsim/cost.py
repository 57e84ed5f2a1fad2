"""Tuple-count cost model for distributed scans and joins.

Costs are linear in tuple counts with two weights: ``theta_acc`` per tuple
scanned from the store and ``theta_comm`` per tuple sent over the
interconnect. Join work itself is not charged; the model only prices what
the simulated cluster meters, so a plan's modeled cost equals the ledger
totals weighted by the two thetas.

Conventions:

* selection over store D: ``theta_acc * size(D)``;
* merged selection of n patterns with shared subset S:
  ``theta_acc * (size(D) + n * size(S))``, beneficial against n independent
  scans iff ``size(D) + n*size(S) < n*size(D)``
  (:func:`merged_scan_beneficial`); the adaptive strategy applies this rule
  to decide whether its selections share one store pass;
* partitioned join on V: shuffle charge ``theta_comm * size(R)`` for every
  input R not already keyed exactly on V;
* broadcast join: charge ``theta_comm * (m-1) * size(R)`` for every
  non-target input R.
"""

import math
from dataclasses import dataclass
from typing import Sequence

from .terms import Term

# (size, key) pairs: everything the model needs to know about an input. The
# key is the variable set the input is hash-partitioned on, empty if random.
SizedInput = tuple[int, frozenset[Term]]


@dataclass(frozen=True, slots=True)
class CostParams:
    theta_acc: float = 1.0
    theta_comm: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(w) and w >= 0
                   for w in (self.theta_acc, self.theta_comm)):
            raise ValueError("cost weights must be finite and nonnegative")


DEFAULT_PARAMS = CostParams()


@dataclass(frozen=True, slots=True)
class CostEstimate:
    """A cost split into its access and communication components."""

    access: float = 0.0
    transfer: float = 0.0

    @property
    def total(self) -> float:
        return self.access + self.transfer


def cost_selection(dataset_size: int, params: CostParams = DEFAULT_PARAMS) -> CostEstimate:
    return CostEstimate(access=params.theta_acc * dataset_size)


def merged_scan_beneficial(dataset_size: int, pattern_count: int, subset_size: int) -> bool:
    """True when one shared pass plus per-pattern extraction beats
    independent scans. Weight-free: both sides scale by theta_acc."""
    if pattern_count < 2:
        return False
    return dataset_size + pattern_count * subset_size < pattern_count * dataset_size


def shuffle_charge(size: int, key: frozenset, on: frozenset) -> int:
    """Tuples a partitioned join on ``on`` moves for one input: its full
    size, unless its key is exactly ``on`` (never so for an empty ``on``)."""
    return 0 if on and key == on else size


def broadcast_charge(size: int, m: int) -> int:
    """Tuples a broadcast join copies for one moving input: (m-1) copies."""
    return (m - 1) * size


def pjoin_shuffle_size(inputs: Sequence[SizedInput], on: frozenset) -> int:
    """Tuples a partitioned join on ``on`` must move: the full size of every
    input not keyed exactly on ``on``."""
    return sum(shuffle_charge(size, key, on) for size, key in inputs)


def brjoin_broadcast_size(inputs: Sequence[SizedInput], target_index: int, m: int) -> int:
    """Tuples a broadcast join must copy: (m-1) copies of every non-target
    input."""
    if not 0 <= target_index < len(inputs):
        raise IndexError(f"target index {target_index} out of range")
    return broadcast_charge(
        sum(size for i, (size, _) in enumerate(inputs) if i != target_index), m)


def cost_pjoin(inputs: Sequence[SizedInput], on: frozenset,
               params: CostParams = DEFAULT_PARAMS) -> CostEstimate:
    """Communication cost of one partitioned join step (children costed
    separately)."""
    return CostEstimate(transfer=params.theta_comm * pjoin_shuffle_size(inputs, on))


def cost_brjoin(inputs: Sequence[SizedInput], target_index: int, m: int,
                params: CostParams = DEFAULT_PARAMS) -> CostEstimate:
    """Communication cost of one broadcast join step."""
    return CostEstimate(
        transfer=params.theta_comm * brjoin_broadcast_size(inputs, target_index, m))


def crossover_prefers_pjoin(size_a: int, size_b: int, m: int) -> bool:
    """Decide between the two join algorithms for a pair of randomly
    partitioned inputs on an m-node cluster.

    A partitioned join moves both inputs once; a broadcast join moves (m-1)
    copies of the smaller one. With g = small and G = large, the partitioned
    join wins iff G + g <= (m-1)*g, i.e. G + 2*g <= m*g, evaluated in exact
    integer arithmetic. Ties go to the partitioned join. An empty smaller
    input makes the broadcast free, so the broadcast join wins outright.
    """
    if size_a < 0 or size_b < 0:
        raise ValueError("relation sizes must be nonnegative")
    if m < 1:
        raise ValueError(f"node count must be >= 1, got {m}")
    small, large = sorted((size_a, size_b))
    if small == 0:
        return False
    return large + 2 * small <= m * small
