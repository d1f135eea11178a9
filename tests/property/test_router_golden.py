"""Golden routing pins: literal SABRE outputs that no kernel change may move.

Every value below was captured from the reference routing kernel.  A
faster kernel must reproduce each one exactly:

* ``sabre_route`` — swap count, final layout, and the sha256 of the
  routed circuit's QASM;
* ``sabre_layout`` — the chosen layout;
* ``transpile(..., optimization_level=3)`` — the sha256 of the QASM.

The pool is the ``_sample_circuit`` set of the determinism harness on
its three backends, four application circuits on ``ibm_mumbai``, and one
circuit long enough to take the stall-escape path.  A parity test checks
the count-only routing of layout trials against emitting routing over
``CAQR_ROUTE_SAMPLES`` circuits.
"""

import hashlib
import random

import pytest

from repro.circuit import to_qasm
from repro.circuit.random import random_circuit
from repro.hardware import generic_backend, ibm_mumbai, line
from repro.stats import Stats
from repro.transpiler import Layout, sabre_layout, sabre_route, transpile
from repro.transpiler.basis import decompose_to_two_qubit
from repro.transpiler.sabre import _route, _RoutingPlan
from repro.workloads import (
    bv_circuit,
    cc_circuit,
    multiply_13,
    qaoa_maxcut_circuit,
    random_graph,
)
from tests.property.test_router_determinism import (
    ROUTE_SAMPLES,
    _backend,
    _sample_circuit,
)

SAMPLE_SEEDS = range(12)
STALL_CASE = "stall_line12"


def _qasm_sha(circuit) -> str:
    return hashlib.sha256(to_qasm(circuit).encode()).hexdigest()


def _case(name):
    """``(circuit, backend, seed)`` of one pinned case."""
    if name.startswith("sample"):
        seed = int(name[len("sample"):])
        return _sample_circuit(seed), _backend(seed), seed
    if name == STALL_CASE:
        circuit = random_circuit(12, 120, seed=5, two_qubit_fraction=0.9)
        return circuit, generic_backend(line(12), seed=4), 5
    circuit = {
        "bv16": lambda: bv_circuit(16),
        "multiply_13": multiply_13,
        "qaoa12": lambda: qaoa_maxcut_circuit(random_graph(12, 0.3, seed=1)),
        "cc_13": lambda: cc_circuit(13),
    }[name]()
    return circuit, ibm_mumbai(), 11


def _placement(layout):
    """``as_dict()`` of a full layout, as the physical qubit of each logical."""
    mapping = layout.as_dict()
    assert list(mapping) == list(range(len(mapping)))
    return list(mapping.values())


def _route_pin(name):
    circuit, backend, seed = _case(name)
    result = sabre_route(decompose_to_two_qubit(circuit), backend.coupling, seed=seed)
    return (
        result.swap_count,
        _placement(result.final_layout),
        _qasm_sha(result.circuit),
    )


def _layout_pin(name):
    circuit, backend, seed = _case(name)
    return _placement(
        sabre_layout(
            decompose_to_two_qubit(circuit), backend.coupling, seed=seed, parallel=False
        )
    )


def _transpile_pin(name):
    circuit, backend, seed = _case(name)
    result = transpile(
        circuit, backend, optimization_level=3, seed=seed, parallel=False
    )
    return _qasm_sha(result.circuit)


CASES = [f"sample{seed}" for seed in SAMPLE_SEEDS] + [
    "bv16",
    "multiply_13",
    "qaoa12",
    "cc_13",
    STALL_CASE,
]

# name -> (route swaps, route final layout, route QASM sha256,
#          sabre_layout result, transpile L3 QASM sha256)
GOLDEN = {
    "sample0": (
        0,
        [0, 1, 2],
        "e1b8bff7331d0524b8c8826e6d03bfdfa09f2062fdcba6e1e682341fa3896ac8",
        [14, 13, 12],
        "b4d1490ededa56f3a36c703ab6800edfb36cbf4aad7832a659c63de4cb931962",
    ),
    "sample1": (
        1,
        [1, 0, 2, 3],
        "5f062c7995a4d210e3a9662ac59c145da78d8a23c81c2b615d027f76c5f39bfe",
        [11, 10, 7, 3],
        "dae680b6e27f75cd531c0d85c2fe35bfcb7fb103d871e323144ca2f211c694f0",
    ),
    "sample2": (
        1,
        [0, 1, 2, 4, 3],
        "08b9f4da866b3887fbdff0ac9311258ee03237c7bb52205cc2a9a652172c4e7a",
        [4, 5, 6, 3, 7],
        "74ab0bd6bd237144aa3d4dffae1163b6219faa2b82b106dcf56d58e1f6818147",
    ),
    "sample3": (
        3,
        [0, 4, 1, 5, 2, 3],
        "50dcda8e3cedcac7e8c6454e134a39a507690a2816d04a1a177c93c7afa5185d",
        [19, 1, 24, 23, 25, 22],
        "474c044acc82770ba8972c4af9d173dcb7342d6e88205eeda2b42a180eef2953",
    ),
    "sample4": (
        6,
        [1, 0, 2, 6, 4, 7, 5],
        "5a7f3809d99c65660f50b502f020d22d64a40b6a4049982336ef546addad6d4e",
        [1, 9, 12, 10, 13, 6, 5],
        "1fa85594036311233537bb42283ad8dfef66577157e739ba3942c904fa4c1249",
    ),
    "sample5": (
        4,
        [1, 2, 0],
        "d5b175d6e5916fbdfc5ee10a600b1bcdd6a1cd3b784afcd33346c56578d27822",
        [2, 3, 1],
        "13e29f7b7428d329236f61bc963ec25076ea551834b92a2d68487fc54263dc8d",
    ),
    "sample6": (
        0,
        [0, 1, 2, 3],
        "210422fc7b6148528f8321e395679e450a80dcd58894ceb9c05e406fb036e4a1",
        [9, 15, 18, 21],
        "82e8b2b5a3648787b148e442f8da7f9f3a70ff5b9f364511bd87bb261d35d2a1",
    ),
    "sample7": (
        5,
        [5, 0, 2, 3, 1],
        "0b0ffc5966095e338b3ef85d2029fc647c42e8eec48d94829eed6f30ad4225c5",
        [4, 1, 9, 8, 5],
        "d4e32af5e51d2e35c1637148c7c706f6f02d4b76683246c7d5d7267cdcd02030",
    ),
    "sample8": (
        7,
        [3, 5, 0, 1, 2, 4],
        "7dfbb360477ca2383a9c1364912adf08eff4d2d15ef358b467a28291e48d5c01",
        [2, 4, 7, 1, 3, 5],
        "a0ae1f412eb522142ebb06b95b32d1fb1271757857acc7afa930f8c6f67b9514",
    ),
    "sample9": (
        7,
        [4, 0, 5, 1, 7, 3, 2],
        "88eb9f3409e5b04f977076ac0ec6d2d081e7e46797df662bd05a401b15d2bc57",
        [16, 12, 13, 14, 21, 18, 15],
        "cb076d57f330c98dfb4069a84cfcc63dfd8c5146012326265a173f98a9c298dc",
    ),
    "sample10": (
        1,
        [0, 2, 1],
        "5f1f196295bf3e70436148e3012702e62e96eb76148c38fd85b1cba73d8325d0",
        [6, 10, 14],
        "b7ed595b26d099c0f5ea383f8b35751774c0d4e180e50408870f07b57ce0e351",
    ),
    "sample11": (
        8,
        [0, 2, 3, 1],
        "072a86f6f0cd89c539861ada6101c6d656e0ba9fc4de92aebae55fec3c820606",
        [3, 2, 0, 1],
        "f35d9d2b2d46c8a05a6604b016153888ce05984ed13a353083632648c24aa376",
    ),
    "bv16": (
        33,
        [5, 3, 0, 2, 1, 4, 6, 7, 9, 8, 15, 11, 10, 12, 14, 13],
        "1696c9f4753f079ef29be2417f9d54a9c11022519723893205fa8c22d7d64db6",
        [18, 12, 10, 7, 14, 13, 11, 8, 5, 19, 16, 20, 22, 25, 24, 15],
        "2667509711434659d6febe176c08defc1103675792097b3c2fc90d9f0b01f993",
    ),
    "multiply_13": (
        69,
        [13, 4, 2, 10, 1, 0, 12, 7, 3, 9, 6, 5, 8],
        "3651b2a12f191e36ca0611be15ea72adc7e988b1bd5881a0f67826176963bafa",
        [14, 8, 2, 12, 19, 16, 5, 1, 10, 9, 13, 11, 3],
        "7a842340995b7d8d475e06b52fdf21068888057bb4b641a9eadde2bcf0b6dadf",
    ),
    "qaoa12": (
        34,
        [10, 0, 9, 1, 6, 2, 7, 12, 3, 5, 4, 13],
        "55d5382731af6934a5c3d431cc4d062553baab3a8020774f717b1bdbdd061019",
        [14, 5, 10, 12, 3, 22, 19, 11, 9, 13, 16, 8],
        "72c1664e3878f07efb40d0a740dca898fc62f75d0f21101c031d3ff2729bae6a",
    ),
    "cc_13": (
        20,
        [0, 6, 3, 7, 10, 2, 4, 1, 5, 9, 14, 8, 11],
        "150c71ccf3e811c58553bbb6ba5d7a31b6676b31f6a9318e294a98ed163c3cad",
        [7, 15, 18, 12, 13, 4, 14, 11, 16, 8, 19, 20, 10],
        "8f076b3c7c23ad118f19d00060adaa87c32f826deb42f862efe3cae5feaaf702",
    ),
    "stall_line12": (
        264,
        [1, 8, 9, 10, 6, 11, 7, 3, 2, 5, 4, 0],
        "28bccfb55289d8c09bd20f1eb966c830e2d52d70da0eb1725b34d4bcda3f24a9",
        [5, 11, 2, 8, 3, 4, 1, 9, 10, 0, 7, 6],
        "f9c9ce14df133e70c30a4bb3ded2dad641ddf403abc03e88c1b72b09c7feb118",
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_route_pins(name):
    swaps, final_layout, sha, _, _ = GOLDEN[name]
    assert _route_pin(name) == (swaps, final_layout, sha)


@pytest.mark.parametrize("name", CASES)
def test_layout_pins(name):
    assert _layout_pin(name) == GOLDEN[name][3]


@pytest.mark.parametrize("name", CASES)
def test_transpile_pins(name):
    assert _transpile_pin(name) == GOLDEN[name][4]


def test_stall_case_takes_the_escape_path(monkeypatch):
    """The stall case must really exercise the shortest-path escape."""
    circuit, backend, seed = _case(STALL_CASE)
    coupling = backend.coupling
    calls = []
    original = coupling.shortest_path

    def _counting(a, b):
        calls.append((a, b))
        return original(a, b)

    monkeypatch.setattr(coupling, "shortest_path", _counting)
    sabre_route(circuit, coupling, seed=seed)
    assert calls


@pytest.mark.parametrize("seed", range(ROUTE_SAMPLES))
def test_count_only_routing_matches_emitting(seed):
    """Layout trials route count-only; they must reach the same final
    layout, swap count and counters as a routing pass that emits."""
    circuit = decompose_to_two_qubit(_sample_circuit(seed))
    coupling = _backend(seed).coupling
    order = list(range(coupling.num_qubits))
    random.Random(seed).shuffle(order)
    start = Layout.from_mapping(
        dict(enumerate(order[: circuit.num_qubits])),
        circuit.num_qubits,
        coupling.num_qubits,
    )
    emit_stats, count_stats = Stats(), Stats()
    emitted = sabre_route(circuit, coupling, start, seed=seed, stats=emit_stats)
    final = start.copy()
    swaps = _route(_RoutingPlan(circuit), coupling, final, seed, count_stats)
    assert swaps == emitted.swap_count == emitted.circuit.swap_count()
    assert final.as_dict() == emitted.final_layout.as_dict()
    assert count_stats.counters == emit_stats.counters
