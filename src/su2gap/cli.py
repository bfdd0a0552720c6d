"""Command-line interface: every operation behind one executable.

All commands are seeded and deterministic: identical invocations on the same
numpy/BLAS build and BLAS thread count produce byte-identical artifacts; a
gap-profile up to --nmax 286 solves only blocks below size 145, which keeps
its bytes under any OpenBLAS thread count as well.
Output is CSV (default for tabular data) or JSON (default for pair records);
CSV floats carry 17 significant digits so values round-trip losslessly.
JSON is laid out as json.dumps(doc, indent=2, allow_nan=False) plus a newline:
2-space indent, non-ASCII and control characters as \\uXXXX escapes, floats as
their Python repr, and the keys schema, command, the header keys, then the
command's data, in that order.  Neither format carries a bare NaN or infinity.
Handlers hand the renderer their tables as columns (lists or arrays), and each
format writes a table from one %-template, one % call per batch of rows, to
the output as it goes, after every check: a refused artifact leaves no file.
Exit codes: 0 success; 1 invalid input, with the message of the check that
rejects it (the library's names its parameter), an unwritable --out, or a
request too large for memory, in one line; 2 domain error; 3 numerical error (an
eigensolver failure, an eigenvalue outside [-1, 1], or a non-finite value).
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import re
import sys

import numpy as np

from . import gap_dynamics, measure_lab, spectral, trace_geometry
from .errors import ConvergenceError, DomainError
from .su2_core import Pair, Word, _unit_pairs, haar_quaternions
from .trace_geometry import pair_from_spec, pair_to_spec

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


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # values, not flags: argparse's own pattern misses "-1e-05" and "-inf"
        self._negative_number_matcher = re.compile(r"^-(\d*\.?\d+(e[-+]?\d+)?|inf)$", re.I)

    def error(self, message):
        # usage problems exit 1 (argparse defaults to 2, which is reserved
        # for domain errors here)
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_BATCH = 1 << 10  # rows per % call: it bounds the cells that live at once
_encode_str = json.encoder.encode_basestring_ascii


def _non_finite(value) -> ConvergenceError:
    return ConvergenceError(f"artifact holds a non-finite value: {float(value)!r}")


def _dumps(value, level: int = 0) -> str:
    """json.dumps(value, indent=2, allow_nan=False) nested `level` deep; a
    JSON string holds no raw newline, so re-indenting its lines is exact."""
    return json.dumps(value, indent=2, allow_nan=False).replace("\n", "\n" + "  " * level)


def _kinds(values) -> set:
    """The types of a column's values, an array's as .tolist() gives them,
    once each of its floats is found finite (by one np.isfinite pass for a
    float array); else ConvergenceError names the first that is not."""
    array = isinstance(values, np.ndarray)
    kinds = {type(values.dtype.type(0).item())} if array else set(map(type, values))
    if kinds == {float} or any(issubclass(k, float) for k in kinds):
        floats = values if array or kinds == {float} else [v for v in values if isinstance(v, float)]
        if not (np.isfinite(floats).all() if array else all(map(math.isfinite, floats))):
            raise _non_finite(next(v for v in floats if not math.isfinite(v)))
    return kinds


def _batches(table: list, converts: list, row: str, sep: str):
    """The rows of a table of equal-length columns as text, _BATCH rows per
    string, each one % of the joined row templates on cells interleaved by
    slice, led by sep after the first; converts holds each column's conversion
    to its slot's argument, or None where the slot takes the value itself."""
    count, width = len(table[0]) if table else 0, len(table)
    for start in range(0, count, _BATCH):
        cells = [None] * (min(_BATCH, count - start) * width)
        for i, (values, convert) in enumerate(zip(table, converts)):
            values = values[start : start + _BATCH]
            values = values.tolist() if isinstance(values, np.ndarray) else values
            cells[i::width] = values if convert is None else map(convert, values)
        yield (sep if start else "") + sep.join([row] * (len(cells) // width)) % tuple(cells)


class _Records:
    """A JSON list of flat records, the value of a top-level key, written as
    the dicts of its declared layout would be without building them.

    Each entry of layout is a key, which takes the next column of table, or a
    (key, width) pair, which takes a list of the next width columns.  Columns
    are equal-length sequences of JSON scalars (str, int, float, bool, None)
    or arrays of ints or floats.  One %-template per table writes every record:
    a %r slot for a column of ints or of floats, and %s on the JSON text of any other."""

    def __init__(self, layout: tuple, table: list):
        self.layout, self.table = layout, table

    def parts(self):
        """The list's text in pieces, once every column has passed its check."""
        if not len(self.table[0]):
            return ["[]"]
        slots, converts = [], []
        for values in self.table:
            kinds = _kinds(values)
            exact = kinds == {int} or kinds == {float}
            slots.append("%r" if exact else "%s")
            converts.append(None if exact else _encode_str if kinds == {str} else _dumps)
        slots, fields = iter(slots), []
        for column in self.layout:
            key, width = (column, 0) if isinstance(column, str) else column
            name = _encode_str(key).replace("%", "%%")
            inner = ",\n        ".join(next(slots) for _ in range(width))
            fields.append(f"{name}: [\n        {inner}\n      ]" if width else f"{name}: {next(slots)}")
        template = "{\n      " + ",\n      ".join(fields) + "\n    }"
        return itertools.chain(["[\n    "], _batches(self.table, converts, template, ",\n    "), ["\n  ]"])


def _refuse(constant: str):
    """json.loads' hook for NaN, Infinity and -Infinity: the artifact's error."""
    raise _non_finite(constant)


def _render(command: str, fmt: str, meta: dict, columns, table, extra):
    """The parts of the artifact text for one command, the only place CSV and
    JSON are written; every check runs before the first part.

    CSV is the meta header, the column line and the rows of table, a list of
    equal-length columns, with floats at 17 significant digits; each column
    takes %.17g if it holds only floats, else %s, on cell()'s text if it
    holds any float.  JSON is {"schema", "command"} | meta | extra(), and
    only JSON calls extra; a key of extra() that is also in meta keeps meta's
    position and takes extra()'s value.  The JSON text is that of
    json.dumps(doc, indent=2, allow_nan=False) plus a newline.  json.dumps
    writes it, except that a _Records value writes its own records from its
    columns, so the large record lists build no dicts.  Both formats write
    a table from one template, _BATCH rows per % call.  A NaN or infinity
    in either form raises ConvergenceError, so no artifact carries a bare
    non-finite number.
    """
    if fmt == "json":
        doc = {"schema": SCHEMA_VERSION, "command": command} | meta | extra()
        try:
            if not any(isinstance(value, _Records) for value in doc.values()):
                yield _dumps(doc) + "\n"
                return
            # json.dumps of each other value, and the checks of each record list
            values = [v.parts() if isinstance(v, _Records) else [_dumps(v, 1)] for v in doc.values()]
        except (ValueError, ConvergenceError):  # json.loads meets the first non-finite value
            text = json.dumps(doc, default=lambda v: v.tolist() if isinstance(v, np.generic) else list(zip(*v.table)))
            json.loads(text, parse_constant=_refuse)
            raise
        for i, (key, parts) in enumerate(zip(doc, values)):
            yield ("," if i else "{") + f"\n  {_encode_str(key)}: "
            yield from parts
        yield "\n}\n"
        return

    def cell(value) -> str:
        return f"{value:.17g}" if isinstance(value, float) else str(value)

    _kinds(meta.values())  # the header's floats are finite
    lines = [f"# schema={SCHEMA_VERSION}", f"# command={command}"]
    lines += [f"# {key}={cell(value)}" for key, value in meta.items()]
    lines.append(",".join(columns))
    formats, converts = [], []
    for kinds in map(_kinds, table):
        formats.append("%.17g" if kinds == {float} else "%s")  # %s: str(value), as cell() writes all but floats
        converts.append(cell if kinds != {float} and any(issubclass(k, float) for k in kinds) else None)
    texts = _batches(table, converts, ",".join(formats) + "\n", "")
    yield "\n".join(lines) + "\n" + next(texts, "")  # a small table is one part
    yield from texts


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _load_pair(path: str) -> Pair:
    try:
        with open(path) as handle:
            record = json.load(handle)
    except OSError as exc:
        raise ValueError(f"cannot read pair file {path!r}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ValueError(f"pair file {path!r} is not valid JSON: {exc}") from exc
    if isinstance(record, dict) and "pairs" in record:
        pairs = record["pairs"]
        if not isinstance(pairs, list):
            raise ValueError(f"pair file {path!r} has a \"pairs\" value that is not a list")
        if len(pairs) != 1:
            raise ValueError(
                f"pair file {path!r} holds {len(pairs)} pairs; expected exactly one"
            )
        record = pairs[0]
    if not isinstance(record, dict) or "type" not in record:
        raise ValueError(f"pair file {path!r} does not contain a pair-spec record")
    try:
        return pair_from_spec(record)
    except DomainError:
        raise
    except ValueError as exc:
        raise ValueError(f"invalid pair-spec in {path!r}: {exc}") from exc


def _pairs_artifact(meta: dict, pairs: np.ndarray) -> tuple:
    """The artifact of (count, 8) pair rows, (w, x, y, z) of a then of b; its columns are views."""
    columns = list(pairs.T)
    return meta, ("index",) + _PAIR_COLUMNS, [range(len(pairs)), *columns], lambda: {
        "pairs": _Records(("type", ("a", 4), ("b", 4)), [["matrix"] * len(pairs), *columns])
    }


# ---------------------------------------------------------------------------
# command handlers
#
# Each returns (meta, columns, table, extra) for _render: meta is the CSV
# header and the leading JSON keys, columns and table are the CSV table's
# names and its values, one equal-length sequence or array per column, and
# extra builds what only JSON prints, and runs only for JSON.
# ---------------------------------------------------------------------------


def _cmd_sample(args) -> tuple:
    _require(args.count >= 1, "--count must be at least 1")
    # rows 2i and 2i + 1 of the draw are a and b of pair i, as haar_pair draws them
    pairs = haar_quaternions(np.random.default_rng(args.seed), 2 * args.count).reshape(-1, 8)
    return _pairs_artifact({"seed": args.seed, "count": args.count}, _unit_pairs(pairs))


def _cmd_traces(args) -> tuple:
    pair = _load_pair(args.pair)
    x, y, z = trace_geometry.trace_triple(pair)
    row = (x, y, z, trace_geometry.pi_map(pair).t)
    columns = ("x", "y", "z", "t")
    return {}, columns, [[value] for value in row], lambda: dict(zip(columns, row))


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
    return meta, _PAIR_COLUMNS, [[value] for value in spec["a"] + spec["b"]], lambda: spec


def _cmd_phi_iterate(args) -> tuple:
    record = gap_dynamics.iterate_phi_endpoint(args.t0, args.max_steps)
    reached = record.steps_to_negative
    meta = {
        "t0": record.t0,
        "max_steps": args.max_steps,
        "steps_to_negative": "not-reached" if reached is None else reached,
    }

    def extra():
        return {"steps_to_negative": reached, "orbit": list(record.orbit)}

    return meta, ("step", "t"), [range(len(record.orbit)), record.orbit], extra


def _cmd_fiber_image(args) -> tuple:
    analytic = list(gap_dynamics.fiber_image_interval(args.t))
    numeric = list(gap_dynamics.fiber_image_numeric(args.t, args.grid_points))
    meta = {"t": args.t, "grid_points": args.grid_points}
    table = [("analytic", "numeric"), *zip(analytic, numeric)]
    columns = ("source", "lower", "upper")
    return meta, columns, table, lambda: {"analytic": analytic, "numeric": numeric}


def _cmd_orbit(args) -> tuple:
    pair = _load_pair(args.pair)
    orbit = gap_dynamics.wordmap_orbit(pair, args.depth, args.max_points)
    meta = {"depth": args.depth, "max_points": args.max_points, "points": len(orbit)}
    columns = ("path", "x", "t")
    table = [orbit.paths, orbit.x, orbit.t]
    return meta, columns, table, lambda: {"orbit": _Records(columns, table)}


def _cmd_gap_profile(args) -> tuple:
    pair = _load_pair(args.pair)
    profile = spectral.gap_profile(pair, args.nmax)
    meta = {
        "n_max": profile.n_max,
        "min_gap": profile.min_gap,
        "argmin_level": profile.argmin_level,
        "note": GAP_NOTE,
    }
    columns = ("n", "dim", "gap")
    table = list(zip(*profile.rows()))
    return meta, columns, table, lambda: {"levels": _Records(columns, table)}


def _cmd_defect(args) -> tuple:
    _require(args.level >= 1, "--level must be at least 1")
    _require(args.trials >= 1, "--trials must be at least 1")
    pair = _load_pair(args.pair)
    word = Word.from_string(args.word)
    # each trial's real then imaginary normals, in stream order; one norm per
    # trial, as a norm over all trials may round differently
    draws = np.random.default_rng(args.seed).standard_normal((args.trials, 2, args.level + 1))
    v = draws[:, 0] + 1j * draws[:, 1]
    v /= np.array([np.linalg.norm(row) for row in v])[:, None]
    lhs, rhs = spectral.word_defect_check(pair, word, args.level, np.ascontiguousarray(v.T))
    max_violation = np.max(lhs - rhs)
    meta = {
        "word": word.to_string(),
        "level": args.level,
        "trials": args.trials,
        "seed": args.seed,
        "max_violation": float(max_violation),
    }
    columns = ("trial", "lhs", "rhs")
    table = [range(args.trials), lhs, rhs]
    return meta, columns, table, lambda: {"trials_data": _Records(columns, table)}


def _cmd_density(args) -> tuple:
    hist = measure_lab.pushforward_histogram(args.samples, args.bins, args.seed)
    meta = {
        "x_range": "[-2,2]",
        "t_range": "[-2,2]",
        "bins": hist.bins_per_axis,
        "total": hist.total,
        "seed": hist.seed,
    }
    table = [*np.indices(hist.counts.shape).reshape(2, -1), hist.counts.ravel()]
    return meta, ("row", "col", "count"), table, lambda: {"counts": hist.counts.tolist()}


def _cmd_fiber_sample(args) -> tuple:
    pairs = measure_lab.sample_fiber(args.t, args.count, args.seed)
    return _pairs_artifact({"t": args.t, "count": args.count, "seed": args.seed}, pairs)


def _cmd_fiber_transport(args) -> tuple:
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
    return meta, ("bin", "count"), [range(len(counts)), counts], lambda: {"counts": counts}


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
    sub.add_argument("--nmax", type=int, default=50, help="O(nmax^2) memory, O(nmax^4) time")
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
    sub.add_argument("--bins", type=int, default=40, help="bins per axis: builds bins^2 cells")
    sub.add_argument("--seed", type=int, default=0)
    _add_common(sub, "csv")
    sub.set_defaults(handler=_cmd_density)

    sub = commands.add_parser(
        "fiber-sample", help="Haar pairs conditioned on their commutator trace"
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
        parts = _render(args.command, args.format, *args.handler(args))
        parts = itertools.chain([next(parts)], parts)  # every check has run; no file is open
    except ConvergenceError as exc:
        level = f" (level {exc.level})" if exc.level is not None else ""
        print(f"su2gap: numerical error{level}: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:  # a ValueError, so it comes first
        print(f"su2gap: domain error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"su2gap: error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        print(f"su2gap: error: not enough memory for {' '.join(argv or sys.argv[1:])}", file=sys.stderr)
        return 1
    if not args.out:
        sys.stdout.writelines(parts)
        return 0
    try:
        with open(args.out, "w") as handle:
            handle.writelines(parts)
    except OSError as exc:
        print(f"su2gap: error: cannot write {args.out!r}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
