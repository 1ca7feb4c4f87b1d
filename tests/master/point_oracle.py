"""The per-point master-equation sweep, kept as an oracle.

:class:`~repro.master.steadystate.MasterEquationSolver` solves a sweep as
one stacked batch.  This module keeps the loop it replaced: every point
walks to its ground state on its own, refreshes one rate vector, assembles
one generator and runs the one-point stationary solve
(:func:`~repro.master.steadystate._solve_stationary` or its sparse
counterpart).  The walk, the rate refresh, the dense assembly and the
currents are copied from the one-point code, so a stacked result must equal
this oracle bit for bit.  The oracle never widens a window.
"""

import numpy as np

from repro.constants import E_CHARGE
from repro.core.rates import orthodox_rate_vec
from repro.master.statespace import window_bounds
from repro.master.steadystate import (_solve_stationary,
                                      _solve_stationary_sparse,
                                      resolve_solver_method)


def walk(model, limits, voltages, offsets):
    """Where the greedy walk stops under each limit (one point)."""
    electrons = model.zero_state()
    stops = [None] * len(limits)
    table = model.table
    system = model.system
    bias = system.external_charge(voltages)
    pool = np.concatenate((np.zeros(model.island_count), voltages))
    potentials = pool[:model.island_count]
    budgets = [(2 * limit + 1) ** max(1, model.island_count)
               for limit in limits]
    top = max(limits)
    for step in range(max(budgets)):
        for index, budget in enumerate(budgets):
            if step == budget and stops[index] is None:
                stops[index] = electrons
        charges = -electrons.astype(float) * E_CHARGE + offsets
        potentials[:] = system.inverse @ (charges + bias)
        deltas = E_CHARGE * (pool.take(table._from_gather)
                             - pool.take(table._to_gather)) + table.reorg
        best = int(deltas.argmin())
        if deltas[best] >= 0.0:
            break
        candidate = electrons + table.delta_n[best]
        reach = int(np.abs(candidate).max(initial=0))
        for index, limit in enumerate(limits):
            if reach > limit and stops[index] is None:
                stops[index] = electrons
        if reach > top:
            break
        electrons = candidate
    return [electrons if stop is None else stop for stop in stops]


def point_rates(table, voltages, offsets):
    """Per-pair rates and free-energy changes at one operating point."""
    system = table.model.system
    phi_bias = system.inverse @ (offsets + system.coupling @ voltages)
    pool_bias = np.concatenate([phi_bias, voltages])
    bias_drop = pool_bias[table._from_gather] - pool_bias[table._to_gather]
    delta = table.static_energy + E_CHARGE * bias_drop
    return orthodox_rate_vec(delta, table.resistance, table.temperature), delta


def point_generator(table, rates):
    """Dense generator of one rate vector, summed in pair order."""
    live = rates > 0.0
    values = rates[live]
    size = table.space.size
    matrix = np.bincount(table._flat_pair[live], weights=values,
                         minlength=size * size)
    outflow = np.bincount(table.pair_source[live], weights=values,
                          minlength=size)
    matrix[::size + 1] -= outflow
    return matrix.reshape(size, size)


def point_currents(table, probabilities, rates):
    """Conventional current per junction, in ``junction_names`` order."""
    flow = rates * probabilities[table.pair_source]
    signed = (-E_CHARGE) * table.pair_direction * flow
    return np.bincount(table.pair_junction, weights=signed,
                       minlength=len(table.junction_names))


def prepare_point(solver, start_at_centre=False):
    """``(table, rates, delta, start index)`` at the circuit's bias."""
    builder = solver.builder
    model = builder.model
    voltages = model.system.source_voltage_vector()
    offsets = model.system.offset_charge_vector()
    if builder._explicit_space is not None:
        (start,) = walk(model, (5,), voltages, offsets)
        table = builder.transition_table()
    else:
        start, centre = walk(model, (5, builder.extra_electrons + 5),
                             voltages, offsets)
        table = builder.window_table(window_bounds(centre,
                                                   builder.extra_electrons))
        if start_at_centre:
            start = centre
    rates, delta = point_rates(table, voltages, offsets)
    return table, rates, delta, table.space.index.get(tuple(start.tolist()),
                                                      0)


def solve_point(solver, start_at_centre=False):
    """``(table, rates, delta, probabilities)`` at the circuit's bias."""
    table, rates, delta, initial = prepare_point(solver, start_at_centre)
    if resolve_solver_method(solver.method, table.space.size) == "dense":
        probabilities = _solve_stationary(point_generator(table, rates),
                                          initial)
    else:
        probabilities = _solve_stationary_sparse(
            table.sparse_generator(rates), initial)
    return table, rates, delta, probabilities


def sweep_source(solver, source, values, junction_name):
    """One junction's current at every value of one source, point by point."""
    circuit = solver.circuit
    snapshot = circuit.bias_snapshot()
    currents = np.empty(len(values))
    try:
        for position, value in enumerate(values):
            circuit.set_source_voltage(source, float(value))
            table, rates, _, probabilities = solve_point(
                solver, start_at_centre=True)
            currents[position] = point_currents(table, probabilities, rates)[
                table.junction_names.index(junction_name)]
    finally:
        circuit.restore_bias(snapshot)
    return currents


def sweep_gate_drain(solver, gate_source, drain_source, gate_values,
                     drain_values, junction_name):
    """The ``(drain, gate)`` current map, point by point, drain rows outer."""
    circuit = solver.circuit
    snapshot = circuit.bias_snapshot()
    try:
        rows = []
        for drain_value in drain_values:
            circuit.set_source_voltage(drain_source, float(drain_value))
            rows.append(sweep_source(solver, gate_source, gate_values,
                                     junction_name))
    finally:
        circuit.restore_bias(snapshot)
    return np.array(rows)
