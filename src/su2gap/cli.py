"""Command-line interface: every operation behind one executable.

All commands are seeded and deterministic: identical invocations produce
byte-identical artifacts.  Output is CSV (default for tabular data) or JSON
(default for pair records); CSV floats carry 17 significant digits so values
round-trip losslessly; neither format carries a bare NaN or infinity.
Exit codes: 0 success, 1 usage error (including invalid input such as NaN or
infinite pair components, and an --out path that cannot be written),
2 domain error, 3 numerical error (an eigensolver failure, an eigenvalue
outside [-1, 1], or a non-finite value in the artifact).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import gap_dynamics, measure_lab, spectral, trace_geometry
from .errors import ConvergenceError, DomainError
from .su2_core import Pair, Word, haar_pair, pair_to_spec
from .trace_geometry import pair_from_spec

SCHEMA_VERSION = 1
GAP_NOTE = "truncated evidence, not a certificate"

_PAIR_COLUMNS = (
    "re_alpha_a",
    "im_alpha_a",
    "re_beta_a",
    "im_beta_a",
    "re_alpha_b",
    "im_alpha_b",
    "re_beta_b",
    "im_beta_b",
)


class _UsageError(Exception):
    """A violated command precondition; reported with exit status 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # usage problems exit 1 (argparse defaults to 2, which is reserved
        # for domain errors here)
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _render(command: str, fmt: str, meta: dict, columns, rows, extra: dict) -> str:
    """The artifact text for one command: the only place CSV and JSON are written.

    CSV is the meta header, the column line and the rows, with floats at 17
    significant digits.  JSON is {"schema", "command"} | meta | extra; a key
    of extra that is also in meta keeps meta's position and takes extra's
    value.  A NaN or infinity in either form raises ConvergenceError, so no
    artifact carries a bare non-finite number.
    """
    if fmt == "json":
        body = {"schema": SCHEMA_VERSION, "command": command} | meta | extra
        try:
            return json.dumps(body, indent=2, allow_nan=False) + "\n"
        except ValueError as exc:
            raise ConvergenceError(f"artifact holds a non-finite value: {exc}") from exc

    def cell(value) -> str:
        if not isinstance(value, float):
            return str(value)
        if not math.isfinite(value):
            raise ConvergenceError(f"artifact holds a non-finite value: {value!r}")
        return f"{value:.17g}"

    lines = [f"# schema={SCHEMA_VERSION}", f"# command={command}"]
    lines += [f"# {key}={cell(value)}" for key, value in meta.items()]
    lines.append(",".join(columns))
    lines += [",".join(cell(value) for value in row) for row in rows]
    return "\n".join(lines) + "\n"


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise _UsageError(message)


def _load_pair(path: str) -> Pair:
    try:
        with open(path) as handle:
            record = json.load(handle)
    except OSError as exc:
        raise _UsageError(f"cannot read pair file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"pair file {path!r} is not valid JSON: {exc}") from exc
    if isinstance(record, dict) and "pairs" in record:
        pairs = record["pairs"]
        if len(pairs) != 1:
            raise _UsageError(
                f"pair file {path!r} holds {len(pairs)} pairs; expected exactly one"
            )
        record = pairs[0]
    if not isinstance(record, dict) or "type" not in record:
        raise _UsageError(f"pair file {path!r} does not contain a pair-spec record")
    try:
        return pair_from_spec(record)
    except DomainError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"invalid pair-spec in {path!r}: {exc}") from exc


def _pairs_artifact(meta: dict, pairs) -> tuple:
    specs = [pair_to_spec(p) for p in pairs]
    rows = [[i, *spec["a"], *spec["b"]] for i, spec in enumerate(specs)]
    return meta, ("index",) + _PAIR_COLUMNS, rows, {"pairs": specs}


# ---------------------------------------------------------------------------
# command handlers
#
# Each returns (meta, columns, rows, extra) for _render: meta is the CSV
# header and the leading JSON keys, columns and rows are the CSV table, and
# extra holds what only JSON prints.
# ---------------------------------------------------------------------------


def _cmd_sample(args) -> tuple:
    _require(args.count >= 1, "--count must be at least 1")
    rng = np.random.default_rng(args.seed)
    pairs = [haar_pair(rng) for _ in range(args.count)]
    return _pairs_artifact({"seed": args.seed, "count": args.count}, pairs)


def _cmd_traces(args) -> tuple:
    pair = _load_pair(args.pair)
    x, y, z = trace_geometry.trace_triple(pair)
    row = (x, y, z, trace_geometry.pi_map(pair).t)
    columns = ("x", "y", "z", "t")
    return {}, columns, [row], dict(zip(columns, row))


def _cmd_construct(args) -> tuple:
    if args.fricke is not None:
        x, t = args.fricke
        pair = trace_geometry.construct_pair_from_fricke(x, t)
        meta = {"source": "fricke", "x": x, "t": t}
    else:
        x, y, z = args.triple
        pair = trace_geometry.construct_pair_from_traces(x, y, z)
        meta = {"source": "traces", "x": x, "y": y, "z": z}
    spec = pair_to_spec(pair)
    return meta, _PAIR_COLUMNS, [spec["a"] + spec["b"]], spec


def _cmd_phi_iterate(args) -> tuple:
    _require(-2.0 <= args.t0 <= 2.0, "--t0 must lie in [-2, 2]")
    _require(args.max_steps >= 1, "--max-steps must be at least 1")
    record = gap_dynamics.iterate_phi_endpoint(args.t0, args.max_steps)
    reached = record.steps_to_negative
    meta = {
        "t0": record.t0,
        "max_steps": args.max_steps,
        "steps_to_negative": "not-reached" if reached is None else reached,
    }
    extra = {"steps_to_negative": reached, "orbit": list(record.orbit)}
    return meta, ("step", "t"), list(enumerate(record.orbit)), extra


def _cmd_fiber_image(args) -> tuple:
    _require(-2.0 <= args.t <= 2.0, "--t must lie in [-2, 2]")
    _require(args.grid_points >= 2, "--grid-points must be at least 2")
    analytic = list(gap_dynamics.fiber_image_interval(args.t))
    numeric = list(gap_dynamics.fiber_image_numeric(args.t, args.grid_points))
    meta = {"t": args.t, "grid_points": args.grid_points}
    rows = [["analytic", *analytic], ["numeric", *numeric]]
    extra = {"analytic": analytic, "numeric": numeric}
    return meta, ("source", "lower", "upper"), rows, extra


def _cmd_orbit(args) -> tuple:
    _require(args.depth >= 0, "--depth must be nonnegative")
    _require(args.max_points >= 1, "--max-points must be at least 1")
    pair = _load_pair(args.pair)
    points = gap_dynamics.wordmap_orbit(pair, args.depth, args.max_points)
    meta = {"depth": args.depth, "max_points": args.max_points, "points": len(points)}
    columns = ("path", "x", "t")
    rows = [("".join(p.path), p.coord.x, p.coord.t) for p in points]
    return meta, columns, rows, {"orbit": [dict(zip(columns, row)) for row in rows]}


def _cmd_gap_profile(args) -> tuple:
    _require(args.nmax >= 1, "--nmax must be at least 1")
    pair = _load_pair(args.pair)
    profile = spectral.gap_profile(pair, args.nmax)
    meta = {
        "n_max": profile.n_max,
        "min_gap": profile.min_gap,
        "argmin_level": profile.argmin_level,
        "note": GAP_NOTE,
    }
    columns = ("n", "dim", "gap")
    rows = profile.rows()
    return meta, columns, rows, {"levels": [dict(zip(columns, row)) for row in rows]}


def _cmd_defect(args) -> tuple:
    _require(args.level >= 1, "--level must be at least 1")
    _require(args.trials >= 1, "--trials must be at least 1")
    pair = _load_pair(args.pair)
    try:
        word = Word.from_string(args.word)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    rng = np.random.default_rng(args.seed)
    dim = args.level + 1
    vectors = np.empty((dim, args.trials), dtype=complex)
    for trial in range(args.trials):
        v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        vectors[:, trial] = v / np.linalg.norm(v)
    lhs, rhs = spectral.word_defect_check(pair, word, args.level, vectors)
    rows = [[trial, float(l), float(r)] for trial, (l, r) in enumerate(zip(lhs, rhs))]
    max_violation = np.max(lhs - rhs)
    meta = {
        "word": word.to_string(),
        "level": args.level,
        "trials": args.trials,
        "seed": args.seed,
        "max_violation": float(max_violation),
    }
    columns = ("trial", "lhs", "rhs")
    records = [dict(zip(columns, row)) for row in rows]
    return meta, columns, rows, {"trials_data": records}


def _cmd_density(args) -> tuple:
    _require(args.samples >= 1, "--samples must be at least 1")
    _require(args.bins >= 2, "--bins must be at least 2")
    hist = measure_lab.pushforward_histogram(args.samples, args.bins, args.seed)
    meta = {
        "x_range": "[-2,2]",
        "t_range": "[-2,2]",
        "bins": hist.bins_per_axis,
        "total": hist.total,
        "seed": hist.seed,
    }
    counts = hist.counts.tolist()
    rows = [
        [row, col, count]
        for row, line in enumerate(counts)
        for col, count in enumerate(line)
    ]
    return meta, ("row", "col", "count"), rows, {"counts": counts}


def _cmd_fiber_sample(args) -> tuple:
    _require(-2.0 <= args.t <= 2.0, "--t must lie in [-2, 2]")
    _require(args.count >= 1, "--count must be at least 1")
    pairs = measure_lab.sample_fiber(args.t, args.count, args.seed)
    return _pairs_artifact({"t": args.t, "count": args.count, "seed": args.seed}, pairs)


def _cmd_fiber_transport(args) -> tuple:
    _require(-2.0 <= args.t <= 2.0, "--t must lie in [-2, 2]")
    _require(args.count >= 1, "--count must be at least 1")
    _require(args.bins >= 2, "--bins must be at least 2")
    demo = measure_lab.fiber_transport_demo(args.t, args.count, args.seed, args.bins)
    lower, upper = gap_dynamics.fiber_image_interval(args.t)
    meta = {
        "t": demo.source_t,
        "interval_lower": lower,
        "interval_upper": upper,
        "min_value": float(demo.values.min()),
        "max_value": float(demo.values.max()),
        "bins": demo.bins,
        "total": demo.total,
        "seed": demo.seed,
    }
    counts = demo.counts.tolist()
    return meta, ("bin", "count"), list(enumerate(counts)), {"counts": counts}


# ---------------------------------------------------------------------------
# parser construction
# ---------------------------------------------------------------------------


def _add_common(sub, default_format: str) -> None:
    sub.add_argument("--out", help="output path (default: stdout)")
    sub.add_argument(
        "--format",
        choices=("csv", "json"),
        default=default_format,
        help=f"output format (default: {default_format})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="su2gap",
        description=(
            "Trace coordinates, plane dynamics, Monte Carlo measure checks, "
            "and truncated spectral-gap profiles for pairs of SU(2) elements."
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("sample", help="draw Haar-random pairs")
    sub.add_argument("--count", type=int, default=1)
    sub.add_argument("--seed", type=int, default=0)
    _add_common(sub, "json")
    sub.set_defaults(handler=_cmd_sample)

    sub = commands.add_parser("traces", help="trace coordinates of a pair")
    sub.add_argument("--pair", required=True, help="path to a pair-spec JSON file")
    _add_common(sub, "csv")
    sub.set_defaults(handler=_cmd_traces)

    sub = commands.add_parser(
        "construct", help="build a pair from plane or triple coordinates"
    )
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--fricke", type=float, nargs=2, metavar=("X", "T"), help="point (x, t) in D"
    )
    group.add_argument(
        "--triple",
        type=float,
        nargs=3,
        metavar=("X", "Y", "Z"),
        help="trace triple (x, y, z) in Omega",
    )
    _add_common(sub, "json")
    sub.set_defaults(handler=_cmd_construct)

    sub = commands.add_parser("phi-iterate", help="escape orbit of t -> t^2 - 2")
    sub.add_argument("--t0", type=float, required=True)
    sub.add_argument("--max-steps", type=int, default=gap_dynamics.DEFAULT_MAX_STEPS)
    _add_common(sub, "csv")
    sub.set_defaults(handler=_cmd_phi_iterate)

    sub = commands.add_parser(
        "fiber-image", help="analytic and grid endpoints of a transported fiber"
    )
    sub.add_argument("--t", type=float, required=True)
    sub.add_argument("--grid-points", type=int, default=1001)
    _add_common(sub, "csv")
    sub.set_defaults(handler=_cmd_fiber_image)

    sub = commands.add_parser("orbit", help="word-map orbit of a pair")
    sub.add_argument("--pair", required=True)
    sub.add_argument("--depth", type=int, default=6)
    sub.add_argument("--max-points", type=int, default=10000)
    _add_common(sub, "csv")
    sub.set_defaults(handler=_cmd_orbit)

    sub = commands.add_parser(
        "gap-profile", help="per-level spectral gaps (evidence, not a certificate)"
    )
    sub.add_argument("--pair", required=True)
    sub.add_argument("--nmax", type=int, default=50)
    _add_common(sub, "csv")
    sub.set_defaults(handler=_cmd_gap_profile)

    sub = commands.add_parser(
        "defect", help="word displacement against the word-length bound"
    )
    sub.add_argument("--pair", required=True)
    sub.add_argument(
        "--word",
        required=True,
        help="word over a, b with uppercase for inverses, e.g. abAB",
    )
    sub.add_argument("--level", type=int, default=5)
    sub.add_argument("--trials", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    _add_common(sub, "csv")
    sub.set_defaults(handler=_cmd_defect)

    sub = commands.add_parser(
        "density", help="pushforward histogram of Haar pairs over the plane"
    )
    sub.add_argument("--samples", type=int, default=100000)
    sub.add_argument("--bins", type=int, default=40)
    sub.add_argument("--seed", type=int, default=0)
    _add_common(sub, "csv")
    sub.set_defaults(handler=_cmd_density)

    sub = commands.add_parser(
        "fiber-sample", help="pairs with a prescribed commutator trace"
    )
    sub.add_argument("--t", type=float, required=True)
    sub.add_argument("--count", type=int, default=100)
    sub.add_argument("--seed", type=int, default=0)
    _add_common(sub, "json")
    sub.set_defaults(handler=_cmd_fiber_sample)

    sub = commands.add_parser(
        "fiber-transport", help="commutator traces of a fiber after squaring"
    )
    sub.add_argument("--t", type=float, required=True)
    sub.add_argument("--count", type=int, default=10000)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--bins", type=int, default=40)
    _add_common(sub, "csv")
    sub.set_defaults(handler=_cmd_fiber_transport)

    return parser


# main's parser, built once per process: parse_args leaves a parser unchanged
# and gives each call a fresh namespace
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        text = _render(args.command, args.format, *args.handler(args))
    except _UsageError as exc:
        print(f"su2gap: error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"su2gap: domain error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        level = f" (level {exc.level})" if exc.level is not None else ""
        print(f"su2gap: numerical error{level}: {exc}", file=sys.stderr)
        return 3
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w") as handle:
            handle.write(text)
    except OSError as exc:
        print(f"su2gap: error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
