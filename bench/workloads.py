"""The benchmark's workloads: inputs made from the seed, job lists, warm-ups
and the checks each artifact must pass.

A workload builds one round of jobs. The harness repeats whole rounds, so
every round runs the same operations on the same inputs and must produce
byte-identical artifacts. Each check compares an artifact with a computation
from ``oracles`` or with a property the mathematics guarantees, never with
a stored copy of earlier output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles as O
from su2gap import SU2Element, cli, measure_lab, spectral

GAP_TOL = 1e-7  # per-level gap against the reference blocks; 2e-10 is typical at n <= 50
Z_BOUND = 6.0  # standardized deviation of a Monte Carlo count or mass
COORD_TOL = 1e-9  # trace coordinates recomputed with 2x2 products
NOTE = "evidence, not a certificate"
MOVES = "SXIM"  # move codes of gap_dynamics.Move in declaration order
ORBIT_GRID = 1e-6


@dataclass
class Job:
    """One timed operation: a CLI command writing ``path``, or a library call."""

    key: str
    kind: str
    check: Callable
    argv: list[str] | None = None
    call: Callable[[], float] | None = None
    path: Path | None = None
    known_fault: str | None = None


def _haar(rng) -> np.ndarray:
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return O.su2(complex(q[0], q[1]), complex(q[2], q[3]))


def _write_pair(path: Path, a: np.ndarray, b: np.ndarray) -> None:
    def comps(m):
        return [m[0, 0].real, m[0, 0].imag, m[0, 1].real, m[0, 1].imag]

    path.write_text(json.dumps({"type": "matrix", "a": comps(a), "b": comps(b)}))


def _ab(m: np.ndarray) -> tuple[complex, complex]:
    return complex(m[0, 0]), complex(m[0, 1])


def read_csv(path: Path) -> tuple[dict, list[str], list[list[str]]]:
    meta, columns, rows = {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, columns, rows


def _expect(errors: list[str], ok: bool, message: str) -> None:
    if not ok:
        errors.append(message)


# ---------------------------------------------------------------------------
# gap_sweep
# ---------------------------------------------------------------------------

S5 = 1.0 / math.sqrt(5.0)
LPS = (O.su2(complex(S5, 2 * S5), 0j), O.su2(complex(S5, 0.0), complex(2 * S5, 0.0)))
DEFECT_WORDS = (("abAB", 4), ("aaBabA", 6), ("abbaBA", 8), ("aBabAbaB", 10))


def check_gap_profile(path: Path, a, b, n_max: int, closed_form=None) -> list[str]:
    errors: list[str] = []
    meta, columns, rows = read_csv(path)
    _expect(errors, columns == ["n", "dim", "gap"], f"columns {columns}")
    levels = [int(r[0]) for r in rows]
    _expect(errors, levels == list(range(1, n_max + 1)), "levels are not 1..n_max")
    _expect(errors, all(int(r[1]) == int(r[0]) + 1 for r in rows), "dim != n + 1")
    gaps = np.array([float(r[2]) for r in rows])
    if errors:
        return errors
    ref = closed_form if closed_form is not None else O.reference_gaps(_ab(a), _ab(b), n_max)
    dev = np.abs(gaps - ref)
    worst = int(np.argmax(dev))
    _expect(
        errors,
        dev[worst] <= GAP_TOL,
        f"{int(np.sum(dev > GAP_TOL))} levels off the reference, worst level {worst + 1}: "
        f"gap {gaps[worst]!r} against {ref[worst]!r}; artifact min_gap={meta.get('min_gap')} "
        f"at level {meta.get('argmin_level')}, reference {ref.min():.4f} at level {int(np.argmin(ref)) + 1}",
    )
    low = int(np.argmin(gaps))
    _expect(errors, float(meta.get("min_gap", "nan")) == gaps[low], "min_gap does not match the rows")
    _expect(errors, int(meta.get("argmin_level", -1)) == low + 1, "argmin_level does not match the rows")
    _expect(errors, NOTE in meta.get("note", ""), "the evidence note is missing")
    _expect(errors, int(meta.get("n_max", -1)) == n_max, "n_max header is wrong")
    return errors


def check_defect(path: Path, word: str, level: int, trials: int) -> list[str]:
    errors: list[str] = []
    meta, columns, rows = read_csv(path)
    _expect(errors, columns == ["trial", "lhs", "rhs"], f"columns {columns}")
    _expect(errors, [int(r[0]) for r in rows] == list(range(trials)), "trial rows are not 0..trials-1")
    lhs = np.array([float(r[1]) for r in rows])
    rhs = np.array([float(r[2]) for r in rows])
    _expect(errors, bool(np.all(lhs <= rhs + 1e-12)), f"lhs > rhs on {int(np.sum(lhs > rhs + 1e-12))} trials")
    _expect(errors, bool(np.all((lhs >= 0) & (lhs <= 2 + 1e-12))), "lhs outside [0, 2] for a unit vector")
    _expect(errors, meta.get("word") == word and int(meta.get("level", -1)) == level, "header word/level")
    _expect(errors, float(meta.get("max_violation", "nan")) == float(np.max(lhs - rhs)), "max_violation")
    return errors


def gap_sweep(rng, workdir: Path):
    jobs: list[Job] = []
    seeds = [int(s) for s in rng.integers(0, 2**31, size=8)]

    def profile(key, a, b, n_max, closed_form=None, known_fault=None):
        pair_file = workdir / f"{key}.pair.json"
        _write_pair(pair_file, a, b)
        jobs.append(
            Job(
                key,
                "gap-profile",
                argv=["gap-profile", "--pair", str(pair_file), "--nmax", str(n_max)],
                check=lambda p: check_gap_profile(p, a, b, n_max, closed_form),
                known_fault=known_fault,
            )
        )
        return pair_file

    haar_files = [profile(f"haar{i}", _haar(rng), _haar(rng), 50) for i in range(12)]
    profile("lps", *LPS, 50)
    for i in range(6):
        theta, psi = rng.uniform(0.05, math.pi - 0.05, size=2)
        k = _haar(rng)
        a = k @ O.su2(np.exp(1j * theta), 0j) @ O.dagger(k)
        b = k @ O.su2(np.exp(1j * psi), 0j) @ O.dagger(k)
        profile(f"commuting{i}", a, b, 50, O.commuting_gaps(theta, psi, 50))
    for i, (word, level) in enumerate(DEFECT_WORDS):
        argv = ["defect", "--pair", str(haar_files[i]), "--word", word, "--level", str(level)]
        argv += ["--trials", "200", "--seed", str(seeds[i])]
        jobs.append(
            Job(f"defect{i}", "defect", argv=argv, check=lambda p, w=word, n=level: check_defect(p, w, n, 200))
        )
    profile(
        "lps_deep",
        *LPS,
        200,
        known_fault="irrep_matrix loses unitarity at high levels and level_gap clips 1 - lambda_max at 0",
    )

    def warm_up():
        # fills the per-level tables irrep_matrix keeps for the deep job's levels
        g = SU2Element(*_ab(LPS[1]))
        for n in range(1, 201):
            spectral.irrep_matrix(g, n)
        _warm_cli(workdir, [
            ["gap-profile", "--pair", str(haar_files[0]), "--nmax", "4"],
            ["defect", "--pair", str(haar_files[0]), "--word", "ab", "--level", "2", "--trials", "2"],
        ])

    return jobs, warm_up


def _warm_cli(workdir: Path, commands) -> None:
    for i, argv in enumerate(commands):
        out = workdir / f"warm-{argv[0]}-{i}.out"
        if cli.main(argv + ["--out", str(out)]) != 0:
            raise RuntimeError(f"warm-up command failed: {argv}")


# ---------------------------------------------------------------------------
# monte_carlo
# ---------------------------------------------------------------------------

TRANSPORT_TS = (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)
TRANSPORT_COUNT = 2500
DENSITY_SAMPLES = 1_000_000
DENSITY_BINS = 40
BOUNDARY_SAMPLES = 1_000_000
BOUNDARY_DELTA = 0.05
FIBER_T = 0.5
FIBER_COUNT = 4000


def check_transport(path: Path, t: float, count: int) -> list[str]:
    errors: list[str] = []
    meta, columns, rows = read_csv(path)
    lower = t * t - 2.0
    counts = np.array([int(r[1]) for r in rows])
    bins = len(counts)
    _expect(errors, int(counts.sum()) == count and int(meta.get("total", -1)) == count, "counts do not sum to count")
    _expect(errors, abs(float(meta["interval_lower"]) - lower) <= 1e-15, "interval_lower != t^2 - 2")
    _expect(errors, float(meta["interval_upper"]) == 2.0, "interval_upper != 2")
    lo, hi = float(meta["min_value"]), float(meta["max_value"])
    _expect(errors, lower - COORD_TOL <= lo <= hi <= 2.0 + COORD_TOL, f"values span [{lo}, {hi}], not in [t^2-2, 2]")
    edges = np.linspace(-2.0, 2.0, bins + 1)
    outside = counts[edges[1:] < lower - COORD_TOL]
    _expect(errors, int(outside.sum()) == 0, "counts in bins below t^2 - 2")
    return errors


def check_density(path: Path, samples: int, bins: int) -> list[str]:
    errors: list[str] = []
    meta, columns, rows = read_csv(path)
    counts = np.zeros((bins, bins), dtype=np.int64)
    for r in rows:
        counts[int(r[0]), int(r[1])] = int(r[2])
    _expect(errors, len(rows) == bins * bins and int(meta.get("total", -1)) == samples, "cell count or total")
    _expect(errors, int(counts.sum()) == samples, "counts do not sum to the sample count")
    p = O.cell_probabilities(bins)
    z = (counts - samples * p) / np.sqrt(np.maximum(samples * p * (1.0 - p), 1.0))
    worst = np.unravel_index(int(np.argmax(np.abs(z))), z.shape)
    _expect(errors, abs(z[worst]) <= Z_BOUND, f"cell {worst} count {counts[worst]} has z = {z[worst]:.2f}")
    return errors


def check_boundary(value: float, samples: int, delta: float) -> list[str]:
    ref = O.band_mass(delta)
    z = (value - ref) / math.sqrt(ref * (1.0 - ref) / samples)
    return [] if abs(z) <= Z_BOUND else [f"boundary mass {value} against {ref:.6f} (z = {z:.2f})"]


def check_fiber_sample(path: Path, t: float, count: int) -> list[str]:
    errors: list[str] = []
    doc = json.loads(path.read_text())
    pairs = doc.get("pairs", [])
    _expect(errors, len(pairs) == count == doc.get("count"), "pair count")
    comps = np.array([p["a"] + p["b"] for p in pairs])
    a = O.su2(comps[:, 0] + 1j * comps[:, 1], comps[:, 2] + 1j * comps[:, 3])
    b = O.su2(comps[:, 4] + 1j * comps[:, 5], comps[:, 6] + 1j * comps[:, 7])
    norms = np.abs(np.concatenate([(comps[:, :4] ** 2).sum(1), (comps[:, 4:] ** 2).sum(1)]) - 1.0)
    _expect(errors, norms.max() <= 1e-12, f"pairs off unit norm by {norms.max():.3g}")
    dev = np.abs(O.commutator_trace(a, b) - t).max()
    _expect(errors, dev <= COORD_TOL, f"tr([a, b]) off t by {dev:.3g}")
    moved = O.commutator_trace(a @ a, b)
    ok = (moved >= t * t - 2.0 - COORD_TOL) & (moved <= 2.0 + COORD_TOL)
    _expect(errors, bool(ok.all()), f"{int((~ok).sum())} transported traces outside [t^2 - 2, 2]")
    return errors


def monte_carlo(rng, workdir: Path):
    seeds = [int(s) for s in rng.integers(0, 2**31, size=len(TRANSPORT_TS) + 3)]
    jobs: list[Job] = []
    for i, t in enumerate(TRANSPORT_TS):
        argv = ["fiber-transport", "--t", repr(t), "--count", str(TRANSPORT_COUNT), "--seed", str(seeds[i])]
        jobs.append(Job(f"transport{i}", "fiber-transport", argv=argv,
                        check=lambda p, t=t: check_transport(p, t, TRANSPORT_COUNT)))
    argv = ["density", "--samples", str(DENSITY_SAMPLES), "--bins", str(DENSITY_BINS), "--seed", str(seeds[-3])]
    jobs.append(Job("density", "density", argv=argv,
                    check=lambda p: check_density(p, DENSITY_SAMPLES, DENSITY_BINS)))
    boundary_seed = seeds[-2]
    jobs.append(
        Job(
            "boundary",
            "boundary-mass",
            call=lambda: measure_lab.boundary_mass(BOUNDARY_SAMPLES, BOUNDARY_DELTA, boundary_seed),
            check=lambda v: check_boundary(v, BOUNDARY_SAMPLES, BOUNDARY_DELTA),
        )
    )
    argv = ["fiber-sample", "--t", repr(FIBER_T), "--count", str(FIBER_COUNT), "--seed", str(seeds[-1])]
    jobs.append(Job("fiber_sample", "fiber-sample", argv=argv + ["--format", "json"],
                    check=lambda p: check_fiber_sample(p, FIBER_T, FIBER_COUNT)))

    def warm_up():
        _warm_cli(workdir, [
            ["fiber-transport", "--t", "0.5", "--count", "20"],
            ["density", "--samples", "1000"],
            ["fiber-sample", "--t", "0.5", "--count", "20", "--format", "json"],
        ])
        measure_lab.boundary_mass(1000, BOUNDARY_DELTA, 0)

    return jobs, warm_up


# ---------------------------------------------------------------------------
# word_orbits
# ---------------------------------------------------------------------------

ORBIT_DEPTH = 12
ORBIT_CAP = 20000
PHI_STARTS = 40
FIBER_IMAGE_TS = 10
FIBER_GRID = 1001
CONSTRUCTS = 10  # of each kind, fricke and triple
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _quaternion(w, x, y, z) -> np.ndarray:
    n = math.sqrt(w * w + x * x + y * y + z * z)
    return O.su2(complex(w / n, x / n), complex(y / n, z / n))


# generators of the binary icosahedral group, of orders 6 and 10
ICOSAHEDRAL = (_quaternion(1, 1, 1, 1), _quaternion(GOLDEN, 1 / GOLDEN, 1, 0))


def read_orbit(path: Path, fmt: str):
    if fmt == "csv":
        meta, columns, rows = read_csv(path)
        if columns != ["path", "x", "t"]:
            raise ValueError(f"orbit columns {columns}")
        return {k: int(v) for k, v in meta.items() if k != "command"}, [(r[0], float(r[1]), float(r[2])) for r in rows]
    doc = json.loads(path.read_text())
    return doc, [(p["path"], float(p["x"]), float(p["t"])) for p in doc["orbit"]]


def check_orbit(path: Path, fmt: str, a: np.ndarray, b: np.ndarray) -> list[str]:
    """Replay every point from its parent with 2x2 products, and check the
    breadth-first order, membership in D and the distinct 1e-6 keys."""
    errors: list[str] = []
    meta, rows = read_orbit(path, fmt)
    n = len(rows)
    _expect(errors, meta.get("points") == n and n <= ORBIT_CAP, "points header or cap")
    paths = [r[0] for r in rows]
    index = {p: i for i, p in enumerate(paths)}
    _expect(errors, len(index) == n and paths[0] == "", "paths are not unique with the root first")
    order = [(0, -1, -1)]
    for i, p in enumerate(paths[1:], 1):
        parent = index.get(p[:-1], n)
        ok = parent < i and p[-1] in MOVES and len(p) <= ORBIT_DEPTH
        order.append((len(p), parent, MOVES.find(p[-1])) if ok else (math.inf, i, i))
    _expect(errors, all(x < y for x, y in zip(order, order[1:])), "points are not in breadth-first order")
    if errors:
        return errors
    xs = np.array([r[1] for r in rows])
    ts = np.array([r[2] for r in rows])
    ma = np.empty((n, 2, 2), dtype=complex)
    mb = np.empty((n, 2, 2), dtype=complex)
    ma[0], mb[0] = a, b
    depth = np.array([len(p) for p in paths])
    parents = np.array([o[1] for o in order])
    moves = np.array([p[-1] if p else "" for p in paths])
    for d in range(1, int(depth.max()) + 1):
        for move in MOVES:
            idx = np.nonzero((depth == d) & (moves == move))[0]
            pa, pb = ma[parents[idx]], mb[parents[idx]]
            if move == "S":
                ma[idx], mb[idx] = pa @ pa, pb
            elif move == "X":
                ma[idx], mb[idx] = pb, pa
            elif move == "I":
                ma[idx], mb[idx] = O.dagger(pa), pb
            else:
                ma[idx], mb[idx] = pa @ pb, pb
    dev = max(np.abs(O.real_trace(ma) - xs).max(), np.abs(O.commutator_trace(ma, mb) - ts).max())
    _expect(errors, dev <= COORD_TOL, f"replayed (x, t) differ by {dev:.3g}")
    in_d = (np.abs(xs) <= 2 + COORD_TOL) & (np.abs(ts) <= 2 + COORD_TOL) & (xs * xs - 2 <= ts + COORD_TOL)
    _expect(errors, bool(in_d.all()), f"{int((~in_d).sum())} points outside D")
    keys = {(round(x / ORBIT_GRID), round(t / ORBIT_GRID)) for x, t in zip(xs, ts)}
    _expect(errors, len(keys) == n, "two points share a 1e-6 key")
    return errors


def _read_any(path: Path, fmt: str) -> tuple[dict, list[list[str]]]:
    if fmt == "csv":
        meta, columns, rows = read_csv(path)
        return meta, rows
    return json.loads(path.read_text()), []


def check_phi(path: Path, fmt: str, t0: float) -> list[str]:
    meta, rows = _read_any(path, fmt)
    if fmt == "csv":
        orbit = [float(r[1]) for r in rows]
        steps = meta["steps_to_negative"]
        steps = None if steps == "not-reached" else int(steps)
    else:
        orbit, steps = meta["orbit"], meta["steps_to_negative"]
    errors: list[str] = []
    _expect(errors, orbit[0] == t0, "orbit does not start at t0")
    _expect(errors, all(abs(y - (x * x - 2.0)) <= 1e-12 for x, y in zip(orbit, orbit[1:])), "orbit breaks t -> t^2 - 2")
    first = next((i for i, v in enumerate(orbit) if v < 0.0), None)
    _expect(errors, steps == first and first in (None, len(orbit) - 1), "escape step")
    return errors


def check_fiber_image(path: Path, fmt: str, t: float) -> list[str]:
    meta, rows = _read_any(path, fmt)
    if fmt == "csv":
        found = {r[0]: (float(r[1]), float(r[2])) for r in rows}
        analytic, numeric = found["analytic"], found["numeric"]
    else:
        analytic, numeric = meta["analytic"], meta["numeric"]
    lower = t * t - 2.0
    step = 2.0 * math.sqrt(t + 2.0) / (FIBER_GRID - 1)
    errors: list[str] = []
    _expect(errors, abs(analytic[0] - lower) <= 1e-15 and analytic[1] == 2.0, f"analytic {analytic}")
    _expect(errors, abs(numeric[0] - lower) <= 1e-12, f"numeric lower {numeric[0]} against {lower}")
    _expect(errors, 2.0 - (2.0 - t) * step * step - 1e-12 <= numeric[1] <= 2.0, f"numeric upper {numeric[1]}")
    return errors


def check_construct(path: Path, target: dict) -> list[str]:
    doc = json.loads(path.read_text())
    a, b = O.spec_matrices(doc)
    norms = [abs(np.linalg.det(m) - 1.0) for m in (a, b)]
    got = {"x": O.real_trace(a), "y": O.real_trace(b), "z": O.real_trace(a @ b), "t": O.commutator_trace(a, b)}
    dev = max(abs(got[k] - v) for k, v in target.items())
    errors: list[str] = []
    _expect(errors, max(norms) <= 1e-12, "constructed elements are not in SU(2)")
    _expect(errors, dev <= COORD_TOL, f"constructed pair misses its coordinates by {dev:.3g}")
    return errors


def check_traces(path: Path, target: dict) -> list[str]:
    meta, columns, rows = read_csv(path)
    got = dict(zip(columns, map(float, rows[0])))
    x, y, z, t = got["x"], got["y"], got["z"], got["t"]
    dev = max(abs(got[k] - v) for k, v in target.items())
    errors: list[str] = []
    _expect(errors, dev <= COORD_TOL, f"round trip misses its input by {dev:.3g}")
    _expect(errors, abs(t - (x * x + y * y + z * z - x * y * z - 2.0)) <= COORD_TOL, "Fricke-Vogt identity")
    return errors


def word_orbits(rng, workdir: Path):
    jobs: list[Job] = []
    fmts = ("csv", "json")

    def orbit(key, a, b, fmt):
        pair_file = workdir / f"{key}.pair.json"
        _write_pair(pair_file, a, b)
        argv = ["orbit", "--pair", str(pair_file), "--depth", str(ORBIT_DEPTH), "--max-points", str(ORBIT_CAP)]
        jobs.append(Job(f"{key}_{fmt}", "orbit", argv=argv + ["--format", fmt],
                        check=lambda p: check_orbit(p, fmt, a, b)))
        return pair_file

    for i, fmt in enumerate(fmts):
        orbit(f"haar{i}", _haar(rng), _haar(rng), fmt)
    k = _haar(rng)
    finite = tuple(k @ g @ O.dagger(k) for g in ICOSAHEDRAL)
    for fmt in fmts:
        finite_file = orbit(f"icosahedral_{fmt}", *finite, fmt)

    shift = rng.uniform(0.0, 1.0)
    for i in range(PHI_STARTS):
        t0 = -2.0 + 4.0 * (i + shift) / PHI_STARTS
        fmt = fmts[i % 2]
        jobs.append(Job(f"phi{i}", "phi-iterate", argv=["phi-iterate", "--t0", repr(t0), "--format", fmt],
                        check=lambda p, fmt=fmt, t0=t0: check_phi(p, fmt, t0)))
    for i in range(FIBER_IMAGE_TS):
        t = -2.0 + 4.0 * (i + shift) / FIBER_IMAGE_TS
        fmt = fmts[i % 2]
        argv = ["fiber-image", "--t", repr(t), "--grid-points", str(FIBER_GRID), "--format", fmt]
        jobs.append(Job(f"fiber_image{i}", "fiber-image", argv=argv,
                        check=lambda p, fmt=fmt, t=t: check_fiber_image(p, fmt, t)))
    for i in range(2 * CONSTRUCTS):
        if i % 2 == 0:
            x = rng.uniform(-2.0, 2.0)
            t = rng.uniform(x * x - 2.0, 2.0)
            target, coords = {"x": x, "t": t}, ["--fricke", repr(x), repr(t)]
        else:
            while True:
                x, y, z = map(float, rng.uniform(-2.0, 2.0, size=3))
                if x * x + y * y + z * z - x * y * z - 4.0 <= 0.0:
                    break
            target, coords = {"x": x, "y": y, "z": z}, ["--triple", repr(x), repr(y), repr(z)]
        built = workdir / f"construct{i}.json"
        jobs.append(Job(f"construct{i}", "construct", argv=["construct", *coords, "--format", "json"],
                        check=lambda p, target=target: check_construct(p, target), path=built))
        jobs.append(Job(f"traces{i}", "traces", argv=["traces", "--pair", str(built)],
                        check=lambda p, target=target: check_traces(p, target)))

    def warm_up():
        _warm_cli(workdir, [
            ["orbit", "--pair", str(finite_file), "--depth", "3"],
            ["orbit", "--pair", str(finite_file), "--depth", "3", "--format", "json"],
            ["phi-iterate", "--t0", "1.9"],
            ["phi-iterate", "--t0", "1.9", "--format", "json"],
            ["fiber-image", "--t", "0.5"],
            ["fiber-image", "--t", "0.5", "--format", "json"],
            ["construct", "--fricke", "0.5", "1.0"],
            ["construct", "--triple", "0.5", "0.5", "0.5"],
            ["traces", "--pair", str(finite_file)],
        ])

    return jobs, warm_up


WORKLOADS = {"gap_sweep": gap_sweep, "monte_carlo": monte_carlo, "word_orbits": word_orbits}
