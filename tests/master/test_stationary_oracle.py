"""Bit-for-bit equivalence of the dense stationary solve with a networkx oracle.

The dense backend once found the reachable set with a Python breadth-first
search and the closed communicating classes with networkx, at every point.
It now tests irreducibility with numpy and runs the class analysis through
``scipy.sparse.csgraph`` only on reducible chains.  The earlier path is kept
here as the oracle: on random reducible generators (transient states,
several closed classes, unreachable states) both must return the same
probabilities bit for bit.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.errors import SolverError
from repro.master.steadystate import (
    _absorption_weights,
    _irreducible_stationary,
    _solve_stationary,
)


def networkx_solve_stationary(matrix, initial_index=0):
    """The networkx-based dense stationary solve."""
    size = matrix.shape[0]
    if size == 1:
        return np.array([1.0])
    adjacency = matrix > 0.0
    np.fill_diagonal(adjacency, False)

    reachable = forward_reachable(adjacency, initial_index)
    reachable_list = sorted(reachable)
    local = {state: position for position, state in enumerate(reachable_list)}
    sub_adjacency = adjacency[np.ix_(reachable_list, reachable_list)]
    classes = networkx_closed_classes(sub_adjacency)

    probabilities = np.zeros(size)
    if len(classes) == 1 and len(classes[0]) == len(reachable_list):
        block = matrix[np.ix_(reachable_list, reachable_list)]
        probabilities[reachable_list] = _irreducible_stationary(block)
        return probabilities

    weights = _absorption_weights(matrix, reachable_list, classes,
                                  local[initial_index])
    for class_states, weight in zip(classes, weights):
        if weight <= 0.0:
            continue
        global_states = [reachable_list[position] for position in class_states]
        block = matrix[np.ix_(global_states, global_states)]
        probabilities[global_states] += weight * _irreducible_stationary(block)
    total = probabilities.sum()
    if total <= 0.0:
        raise SolverError("stationary distribution sums to zero")
    return probabilities / total


def forward_reachable(adjacency, start):
    reachable = {start}
    frontier = [start]
    while frontier:
        node = frontier.pop()
        for successor in np.nonzero(adjacency[:, node])[0]:
            state = int(successor)
            if state not in reachable:
                reachable.add(state)
                frontier.append(state)
    return reachable


def networkx_closed_classes(adjacency):
    import networkx as nx

    graph = nx.DiGraph()
    size = adjacency.shape[0]
    graph.add_nodes_from(range(size))
    sources, targets = np.nonzero(adjacency.T)
    graph.add_edges_from(zip(sources.tolist(), targets.tolist()))
    closed = []
    for component in nx.strongly_connected_components(graph):
        members = set(component)
        if all(successor in members for node in members
               for successor in graph.successors(node)):
            closed.append(sorted(members))
    if not closed:
        raise SolverError("no closed communicating class found")
    return closed


def reducible_generator(seed):
    """A random generator with 1-5 closed classes, transient and stray states.

    Returns ``(matrix, initial_index)``; state labels are shuffled so that
    classes are not contiguous.
    """
    rng = np.random.default_rng(seed)
    class_sizes = rng.integers(1, 5, size=rng.integers(1, 6))
    # Most windows are a few states, as in a single-SET sweep; some carry
    # tens of transient states, so the reachability search runs deep.
    transient = int(rng.integers(1, 8) if rng.random() < 0.7
                    else rng.integers(30, 50))
    stray = int(rng.integers(0, 3))
    size = int(class_sizes.sum()) + transient + stray
    label = rng.permutation(size)
    rates = np.zeros((size, size))

    def edge(source, target):
        rates[label[target], label[source]] = 10.0 ** rng.uniform(-3.0, 3.0)

    first = 0
    members = []
    for class_size in class_sizes:
        states = list(range(first, first + class_size))
        for position, state in enumerate(states):      # a ring, plus chords
            if class_size > 1:
                edge(state, states[(position + 1) % class_size])
            for other in states:
                if other != state and rng.random() < 0.3:
                    edge(state, other)
        members.append(states)
        first += class_size
    transient_states = list(range(first, first + transient))
    for state in transient_states:
        edge(state, members[rng.integers(len(members))][0])
        for other in range(first + transient):
            if other != state and rng.random() < 0.25:
                edge(state, other)
    for state in range(first + transient, size):       # never reached
        edge(state, int(rng.integers(first + transient)))
    np.fill_diagonal(rates, -rates.sum(axis=0))
    start = transient_states[0] if rng.random() < 0.8 \
        else int(rng.integers(first))
    return rates, int(label[start])


class TestDenseStationaryEqualsNetworkxOracle:
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_random_reducible_generators(self, seed):
        matrix, start = reducible_generator(seed)
        assert np.array_equal(_solve_stationary(matrix, start),
                              networkx_solve_stationary(matrix, start))

    def test_cases_with_three_or_more_closed_classes_occur(self):
        many = 0
        for seed in range(200):
            matrix, start = reducible_generator(seed)
            adjacency = matrix > 0.0
            np.fill_diagonal(adjacency, False)
            reachable = sorted(forward_reachable(adjacency, start))
            classes = networkx_closed_classes(
                adjacency[np.ix_(reachable, reachable)])
            if len(classes) >= 3:
                many += 1
                assert np.array_equal(
                    _solve_stationary(matrix, start),
                    networkx_solve_stationary(matrix, start))
        assert many >= 20

    def test_long_chains_ending_in_a_trap(self):
        # Reaching the trap takes a path through every state, the longest a
        # window of each size allows.
        for size in range(2, 45):
            rates = np.zeros((size, size))
            for state in range(size - 1):
                rates[state + 1, state] = 1.0 + state
                if state + 1 < size - 1:
                    rates[state, state + 1] = 2.0
            np.fill_diagonal(rates, -rates.sum(axis=0))
            probabilities = _solve_stationary(rates, 0)
            assert probabilities[-1] == 1.0
            assert np.array_equal(probabilities,
                                  networkx_solve_stationary(rates, 0))

    @given(seed=st.integers(0, 2**32 - 1), size=st.integers(2, 60))
    @settings(max_examples=100, deadline=None)
    def test_random_dense_generators(self, seed, size):
        rng = np.random.default_rng(seed)
        rates = np.where(rng.random((size, size)) < 0.3,
                         10.0 ** rng.uniform(-3.0, 3.0, (size, size)), 0.0)
        np.fill_diagonal(rates, 0.0)
        np.fill_diagonal(rates, -rates.sum(axis=0))
        start = int(rng.integers(size))
        assert np.array_equal(_solve_stationary(rates, start),
                              networkx_solve_stationary(rates, start))


def test_master_sweep_and_stream_never_import_networkx():
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from repro.devices import SETTransistor\n"
        "from repro.engines import SweepAxes, get_engine\n"
        "session = get_engine('master').bind(SETTransistor(), "
        "temperature=2.0)\n"
        "axes = SweepAxes(np.linspace(0.0, 0.1, 9), 5e-3)\n"
        "session.sweep(axes)\n"
        "list(session.stream(axes))\n"
        "print('networkx' in sys.modules)\n")
    src = Path(repro.__file__).resolve().parent.parent
    completed = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True)
    assert completed.stdout.splitlines()[-1] == "False"
