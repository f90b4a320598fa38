"""Spans and counters at eddykit's module boundaries, installed from outside.

The tracer replaces, for the duration of one traced pass, the public
functions that one eddykit module looks up in another (for example
``harness.simulate_ensemble`` or ``cli.delta_sweep``) with wrappers that
time the call. No source file is edited. The wrappers return what the
wrapped functions return, except that generators are swapped for counting
ones on the same bit stream, so traced and untraced passes give bitwise
equal results.

Coarse calls (a CLI command, a sweep, a simulated block, a cell solve)
become spans with a name, start, end and parent, kept in memory until the
run ends. Calls made once per realization or per delta are aggregated into
call counts and durations instead of one span each. A frame's self time is
its duration minus the time its child frames cover, so the self times of
all layers of a pass add up to the pass's wall time.
"""

from __future__ import annotations

import functools
from collections import defaultdict
from time import perf_counter

import numpy as np

from eddykit import cli, dynamics, harness, homogenization


class CountingGenerator(np.random.Generator):
    """Generator on the same bit stream that counts the normals it draws."""

    def __init__(self, bit_generator, tracer, counter):
        super().__init__(bit_generator)
        self._tracer = tracer
        self._counter = counter

    def standard_normal(self, size=None, dtype=np.float64, out=None):
        n = 1 if size is None else int(np.prod(size))
        self._tracer.counts[self._counter] += n
        return super().standard_normal(size, dtype, out)


class Tracer:
    def __init__(self):
        self.spans = []        # (id, name, layer, start, end, parent id), whole run
        self.aggregates = {}   # name -> [calls, seconds], whole run
        self._stack = []
        self._patched = []
        self._next_id = 0
        self.begin_pass()

    def begin_pass(self) -> None:
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self.solve_s = defaultdict(list)  # modes -> durations of solve_cell_problem

    def enter(self, name: str, layer: str, aggregate: bool) -> list:
        parent = self._stack[-1][5] if self._stack else None
        span_id = None
        if not aggregate:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, layer, aggregate, 0.0, 0.0, span_id, parent]
        self._stack.append(frame)
        frame[3] = perf_counter()
        return frame

    def exit(self, frame: list) -> float:
        end = perf_counter()
        self._stack.pop()
        name, layer, aggregate, start, child, span_id, parent = frame
        duration = end - start
        self.self_s[layer] += duration - child
        if self._stack:
            self._stack[-1][4] += duration
        if aggregate:
            agg = self.aggregates.setdefault(name, [0, 0.0])
            agg[0] += 1
            agg[1] += duration
        else:
            self.spans.append((span_id, name, layer, start, end, parent))
        return duration

    # -- installation -----------------------------------------------------

    def _patch(self, module, attr, layer, aggregate, count=None) -> None:
        original = getattr(module, attr)
        name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            frame = tracer.enter(name, layer, aggregate)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = tracer.exit(frame)
            if layer == "estimators":
                tracer.counts["estimators.calls"] += 1
            if count is not None:
                replaced = count(tracer, args, result, duration)
                if replaced is not None:
                    result = replaced
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        p = self._patch
        p(cli, "main", "cli", False)
        p(cli, "delta_sweep", "harness", False)
        p(harness, "delta_sweep", "harness", False)
        p(harness, "simulate_ensemble", "dynamics", False, _count_block)
        p(harness, "Trajectory", "dynamics", True, _count_trajectory)
        p(dynamics, "stream_generator", "dynamics", True, _counting("dynamics.draws"))
        p(harness, "noise_generator", "dynamics", True, _counting("estimators.noise_draws"))
        for attr in ("subsample", "add_observation_noise", "directional_component",
                     "ObservationSeries"):
            p(harness, attr, "estimators", True)
        p(harness, "qv_estimate", "estimators", True, _count_points(lambda a: a[0].n_obs))
        for attr in ("box_estimate", "shift_estimate"):
            p(harness, attr, "estimators", True, _count_points(lambda a: a[0].n_points))
        p(homogenization, "spectral_diffusivity", "homogenization", False, _count_modes)
        p(homogenization, "solve_cell_problem", "homogenization", False, _count_solve)
        p(homogenization, "eddy_diffusivity_from_cell", "homogenization", True)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


# -- counters: each runs after the wrapped call returned; a counter that
# returns a value replaces the call's result with it -------------------------


def _count_block(tracer, args, block, duration) -> None:
    config = args[1]
    steps = config.burn_steps + config.store_stride * (config.n_stored - 1)
    tracer.counts["harness.blocks"] += 1
    tracer.counts["dynamics.path_steps"] += block.shape[0] * steps  # computed


def _count_trajectory(tracer, args, result, duration) -> None:
    tracer.counts["harness.trajectories_built"] += 1


def _counting(counter):
    def count(tracer, args, gen, duration):
        # swap in a counting generator on the same bit stream; the draws
        # and therefore every result stay bitwise identical
        return CountingGenerator(gen.bit_generator, tracer, counter)
    return count


def _count_points(points_of):
    def count(tracer, args, result, duration):
        tracer.counts["estimators.points"] += points_of(args)  # computed
    return count


def _count_modes(tracer, args, result, duration) -> None:
    _, sol = result
    key = "homogenization.modes_reached"
    tracer.counts[key] = max(tracer.counts[key], sol.modes)


def _count_solve(tracer, args, sol, duration) -> None:
    tracer.counts["homogenization.solves"] += 1
    tracer.counts["homogenization.unknowns"] += (2 * sol.modes + 1) ** 2  # computed
    tracer.solve_s[sol.modes].append(duration)
