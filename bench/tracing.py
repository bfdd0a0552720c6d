"""Per-layer accounting for the traced run.

Each named public function is replaced by a timing wrapper in every su2gap
module namespace that binds it, so calls made through ``from .su2_core
import multiply`` in another module are seen as well as calls through
``su2_core.multiply``. A span's self time is its duration minus the spans of
wrapped functions it called. Spans of one group (say the block constructors
``irrep_matrix`` and ``averaging_operator``) add to the group's time only at
the outermost level, so a nested call is not counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict


def _count_arg(position: int, name: str):
    def measure(args, kwargs, result):
        return args[position] if len(args) > position else kwargs[name]

    return measure


def _length(args, kwargs, result):
    return len(result)


# (module, function, group, measure of items per call)
TARGETS = (
    ("spectral", "irrep_matrix", "block", None),
    ("spectral", "averaging_operator", "block", None),
    ("spectral", "level_gap", "level_gap", None),
    ("spectral", "word_defect_check", "word_defect_check", None),
    ("spectral", "gap_profile", "gap_profile", None),
    ("su2_core", "multiply", "multiply", None),
    ("su2_core", "haar_quaternions", "haar", _count_arg(1, "count")),
    ("su2_core", "haar_sample", "haar", None),
    ("trace_geometry", "pi_map", "pi_map", None),
    ("trace_geometry", "construct_pair_from_traces", "construct", None),
    ("trace_geometry", "construct_pair_from_fricke", "construct", None),
    ("trace_geometry", "trace_triple", "trace_triple", None),
    ("gap_dynamics", "apply_move", "apply_move", None),
    ("gap_dynamics", "wordmap_orbit", "wordmap_orbit", _length),
    ("gap_dynamics", "iterate_phi_endpoint", "iterate_phi_endpoint", None),
    ("gap_dynamics", "fiber_image_interval", "fiber_image", None),
    ("gap_dynamics", "fiber_image_numeric", "fiber_image", None),
    ("measure_lab", "pushforward_histogram", "pushforward_histogram", None),
    ("measure_lab", "boundary_mass", "boundary_mass", None),
    ("measure_lab", "sample_fiber", "sample_fiber", _length),
    ("measure_lab", "fiber_transport_demo", "fiber_transport_demo", None),
    ("cli", "build_parser", "build_parser", None),
    ("cli", "main", "main", None),
)


class Tracer:
    """Span bookkeeping shared by every wrapper of one traced run."""

    def __init__(self):
        self._children: list[list[float]] = []
        self._open: Counter = Counter()
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.group_s: defaultdict = defaultdict(float)

    def wrap(self, fn, name: str, group: str, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self._children.append(children)
            outermost = self._open[group] == 0
            self._open[group] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = time.perf_counter() - start
                self._open[group] -= 1
                self._children.pop()
                if self._children:
                    self._children[-1][0] += span
                self.calls[name] += 1
                self.self_s[name] += span - children[0]
                if outermost:
                    self.group_s[group] += span
            if measure is not None:
                self.items[name] += measure(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every target in every loaded su2gap module namespace."""
        modules = [m for key, m in sys.modules.items() if key == "su2gap" or key.startswith("su2gap.")]
        for module_name, func_name, group, measure in TARGETS:
            home = sys.modules.get(f"su2gap.{module_name}")
            original = getattr(home, func_name, None)
            if original is None:
                print(f"trace: su2gap.{module_name}.{func_name} not found; its metrics read 0", file=sys.stderr)
                continue
            wrapper = self.wrap(original, func_name, group, measure)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def metrics(self, rounds: int, bytes_out: int) -> dict:
        """Per-layer figures for one round of the job list."""
        c, s, g = self.calls, self.self_s, self.group_s
        moves = c["apply_move"]
        values = {
            "spectral.blocks": (c["irrep_matrix"], "count"),
            "spectral.block_s": (g["block"], "s"),
            "spectral.levels": (c["level_gap"], "count"),
            "spectral.solve_s": (s["level_gap"], "s"),
            "spectral.defect_s": (s["word_defect_check"], "s"),
            "su2_core.multiplies": (c["multiply"], "count"),
            "su2_core.multiply_s": (g["multiply"], "s"),
            "su2_core.haar_draws": (self.items["haar_quaternions"], "count"),
            "su2_core.haar_s": (g["haar"], "s"),
            "trace_geometry.pi_maps": (c["pi_map"], "count"),
            "trace_geometry.pi_map_s": (g["pi_map"], "s"),
            "trace_geometry.constructs": (c["construct_pair_from_traces"] + c["construct_pair_from_fricke"], "count"),
            "trace_geometry.construct_s": (g["construct"], "s"),
            "gap_dynamics.moves": (moves, "count"),
            "gap_dynamics.orbit_points": (self.items["wordmap_orbit"], "count"),
            "gap_dynamics.orbit_s": (s["wordmap_orbit"], "s"),
            "measure_lab.histogram_s": (g["pushforward_histogram"], "s"),
            "measure_lab.boundary_s": (g["boundary_mass"], "s"),
            "measure_lab.fiber_s": (s["sample_fiber"], "s"),
            "measure_lab.fiber_pairs": (self.items["sample_fiber"], "count"),
            "cli.commands": (c["main"], "count"),
            "cli.self_s": (s["main"], "s"),
            "cli.parser_s": (g["build_parser"], "s"),
            "cli.bytes_out": (bytes_out, "B"),
        }
        out = {name: {"value": value / rounds, "unit": unit} for name, (value, unit) in values.items()}
        ratio = self.items["wordmap_orbit"] / moves if moves else 0.0
        out["gap_dynamics.new_point_ratio"] = {"value": ratio, "unit": "ratio"}
        return out
