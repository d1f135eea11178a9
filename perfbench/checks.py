"""Output checks, run after the timed phase.

* A compiled circuit is simulated (``circuit.compacted()``) and compared
  with the input circuit simulated by the same independent engine.  The
  tolerance is the sampling floor: the TVD between two reference samples
  of the input taken with different seeds at the same shot count.  Two
  samples of one distribution are exchangeable, so a correct compile sits
  above that floor about half the time; the margin below covers that.
  On qaoa12-0.3 the floor is 0.55 at 2000 shots and 0.21 at 20000, so a
  fixed 0.05 tolerance would reject correct output.
* Bernstein-Vazirani output must start with ``bv_expected_bitstring``.
* A report served from a cache must equal the cold report of the same
  key field for field, wall-clock timers and the ``from_cache`` flag
  excepted.
"""

from __future__ import annotations

import math
from typing import Optional

from repro.circuit.instruction import Instruction
from repro.sim import marginal_counts, run_counts, total_variation_distance

SHOTS = 20000
REFERENCE_SEEDS = (101, 202)
COMPILED_SEED = 303
FLOOR_FACTOR = 1.2  # relative margin over the reference-vs-reference TVD

# id(source) -> (source, shots, reference sample, floor); the source is
# held so its id is not reused while the entry lives
_references: dict = {}


def _reference(source, shots: int):
    """A reference sample of *source* and its sampling floor, once per source."""
    entry = _references.get(id(source))
    if entry is None or entry[0] is not source or entry[1] != shots:
        ref_a, ref_b = (run_counts(source, shots, seed) for seed in REFERENCE_SEEDS)
        entry = (source, shots, ref_a, total_variation_distance(ref_a, ref_b))
        _references[id(source)] = entry
    return entry[2], entry[3]


def simulated_tvd(source, compiled, shots: int = SHOTS):
    """``(tvd, tolerance)`` of *compiled* against *source* at *shots*."""
    width = source.num_clbits
    ref_a, floor = _reference(source, shots)
    counts = marginal_counts(run_counts(compiled.compacted(), shots, COMPILED_SEED), width)
    # the additive term covers low-entropy outputs, whose floor can read ~0
    tolerance = FLOOR_FACTOR * floor + 2.0 / math.sqrt(shots)
    return total_variation_distance(ref_a, counts), tolerance


def compiled_ok(source, compiled, bv_expected: Optional[str] = None) -> bool:
    if bv_expected is not None:
        counts = run_counts(compiled.compacted(), 256, COMPILED_SEED)
        return all(key.startswith(bv_expected) for key in counts)
    tvd, tolerance = simulated_tvd(source, compiled)
    return tvd <= tolerance


def broken(circuit):
    """*circuit* with an X inserted before its first measurement."""
    out = circuit.copy()
    for index, instruction in enumerate(out.data):
        if instruction.name == "measure":
            out.data.insert(index, Instruction("x", instruction.qubits))
            return out
    raise ValueError("circuit has no measurement")


def _stats_fields(stats):
    if stats is None:
        return None
    return (
        sorted(stats.counters.items()),
        sorted(getattr(stats, "values", {}).items()),
    )


def report_signature(report) -> tuple:
    """Every deterministic field of a ``CompileReport``, comparable with ==."""
    circuit = report.circuit
    return (
        circuit.num_qubits, circuit.num_clbits,
        tuple(circuit.data),
        report.mode, report.metrics, report.baseline_metrics,
        report.reuse_beneficial, report.qubit_saving, report.strategy,
        report.strategy_errors, report.optimality_gap, report.exact_optimal,
        _stats_fields(report.route_stats), _stats_fields(report.eval_stats),
        _stats_fields(report.sim_stats), _stats_fields(report.chain_stats),
    )
