"""Application-specific topology synthesis.

The paper's conclusions name "automatic heterogeneous topology
modeling" as future work. :mod:`repro.topology.custom` supplies the
modeling half — arbitrary switch fabrics that drop into the existing
mapping/selection/generation machinery. This package supplies the
*generation* half: given a core graph and constraints, it invents
candidate fabrics shaped like the application and races them against
the standard topology library in the same selection table.

Pipeline
--------

1. **Partition** (:mod:`repro.synthesis.partition`) — cut the core
   graph into clusters, one future switch each. Three deterministic
   strategies span the trade-off space:

   * ``greedy`` — communication-weighted cluster merging (KL-style
     coarsening). Best bandwidth locality; uneven cluster sizes, so
     some switches grow large (area/power risk on radix-sensitive
     objectives).
   * ``bisect`` — recursive balanced min-cut bisection. Uniform switch
     radices and predictable area; may split a heavy flow across the
     cut when balance forces it.
   * ``bounded`` — degree/bandwidth-bounded clustering. Guarantees the
     aggregate external traffic of every cluster fits what its
     switch's channels can carry — the safest strategy under tight
     link capacities, at some cost in hop locality.

2. **Fabricate** (:mod:`repro.synthesis.fabric`) — one switch per
   cluster, cores concentrated on their cluster's switch, inter-switch
   channels sized from aggregate commodity bandwidth
   (``ceil(demand / capacity)`` parallel channels — the fat-link
   multiplicity of :class:`~repro.topology.custom.CustomTopology`),
   connectivity guaranteed by a degree-constrained maximum spanning
   tree over the cluster communication graph.

3. **Generate & prune** (:mod:`repro.synthesis.generate`) — sweep
   strategies × concentration × degree bounds, drop structural
   duplicates and Pareto-dominated shapes (hop proxy vs resource
   proxy, through the existing
   :func:`~repro.core.exploration.pareto_front`), cap the survivors.

4. **Evaluate** — each surviving fabric is submitted to the engine as a
   plain :class:`~repro.engine.jobs.EvaluationJob`, exactly like a
   library topology: the full Figure-5 mapping search, parallel with
   ``jobs=N``, memoized by content (the fabric's name is part of its
   fingerprint, so every candidate label keys its own cache entry).

Determinism guarantees
----------------------

Every stage is a pure function of ``(core graph, SynthesisConfig,
constraints)``: the partitioners use no RNG and break ties by index,
fabric wiring is order-deterministic, pruning is proxy-ranked with
label tie-breaks, the mapping search draws no random numbers, and the
exploration engine reduces results in submission order. The
same inputs therefore reproduce bit-identical candidate sets at
``jobs=1`` and ``jobs=4``, across processes and machines — asserted by
the golden tests and by ``benchmarks/bench_synthesis.py``.

Entry points: :func:`synthesize_topologies` for a standalone sweep,
``select_topology(..., synthesize=...)`` /
``run_sunmap(..., synthesize=...)`` to race synthesized fabrics
against the standard library head-to-head, and the CLI commands
``sunmap synthesize`` and ``sunmap select --synthesize``.
"""

from repro.synthesis.fabric import (
    CandidateSpec,
    build_candidate,
    fabric_from_partition,
    intended_assignment,
)
from repro.synthesis.generate import (
    SynthesisConfig,
    SynthesisResult,
    SynthesizedCandidate,
    enumerate_candidates,
    synthesize_topologies,
)
from repro.synthesis.partition import (
    PARTITION_STRATEGIES,
    bisection_partition,
    bounded_partition,
    greedy_merge_partition,
    make_partition,
)

__all__ = [
    "CandidateSpec",
    "SynthesisConfig",
    "SynthesisResult",
    "SynthesizedCandidate",
    "PARTITION_STRATEGIES",
    "build_candidate",
    "fabric_from_partition",
    "intended_assignment",
    "enumerate_candidates",
    "synthesize_topologies",
    "greedy_merge_partition",
    "bisection_partition",
    "bounded_partition",
    "make_partition",
]
