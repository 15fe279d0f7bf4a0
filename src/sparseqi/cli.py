"""Command-line front end: scheme derivation, grids, recovery, witnesses, rates.

Exit codes: 0 success, 1 usage, 2 scheme error, 3 sample error, 4 fit error.
All outputs are CSV tables and JSON objects; reports embed the resolved
configuration, so runs are reproducible from the report alone.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import analysis, smolyak, testfuncs
from .laurent import NotDivisible
from .quasi_interp import (
    BUILTIN_MASKS,
    HierCoeffs,
    LatticeAxis,
    MissingSamples,
    NotAQuasiInterpolant,
    QIScheme,
    SampleCache,
    build_scheme,
    builtin_scheme,
    decompose,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCHEME = 2
EXIT_SAMPLES = 3
EXIT_FIT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        raise _UsageError(message)


_RESOLUTION_HELP = ("quadrature points per axis for d <= 3 (default by level); for d > 3 a "
                    "deterministic rank-1 lattice of n = largest prime <= RESOLUTION (default 200000)")


def _parse_q(text: str) -> float:
    if text.lower() in ("inf", "infinity", "oo"):
        return math.inf
    return float(text)


def _int_at_least(lo: int):
    def parse(text: str) -> int:
        if not text.strip().lstrip("+-").isdigit() or int(text) < lo:
            raise argparse.ArgumentTypeError(f"expected an integer >= {lo}, got {text!r}")
        return int(text)

    return parse


def _parse_m_range(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    level = _int_at_least(0)
    out = list(range(level(lo), level(hi or lo) + 1))
    if not out:
        raise argparse.ArgumentTypeError(f"empty level range {text!r}")
    return out


def _load_scheme(args) -> QIScheme:
    if getattr(args, "mask", None):
        with open(args.mask) as fh:
            data = json.load(fh)
        ell = int(data["ell"]) if args.ell is None else args.ell
        return build_scheme(ell, data["mask"])
    name = getattr(args, "builtin", None) or "cubic"
    scheme = builtin_scheme(name)
    if args.ell is not None and args.ell != scheme.ell:
        raise _UsageError(
            f"--ell {args.ell} disagrees with builtin '{name}' (order {scheme.ell})"
        )
    return scheme


def _add_scheme_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ell", type=int, default=None, help="spline order (even, >= 2)")
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--builtin", choices=sorted(BUILTIN_MASKS), help="builtin mask name"
    )
    group.add_argument("--mask", help="JSON file {'ell': int, 'mask': [rationals]}")


def _out_dir(args) -> Path:
    out = Path(getattr(args, "out", ".") or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_number_csv(path: Path, header: list[str], rows) -> None:
    """What :func:`_write_csv` writes for rows of Python floats and ints, cells as ``repr``.

    Number cells and plain column names need no quoting, so the lines are
    joined directly, with the ``\\r\\n`` terminator of ``csv.writer``.
    """
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in rows]
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines) + "\r\n")


# ---------------------------------------------------------------------------
# derive-scheme
# ---------------------------------------------------------------------------


def cmd_derive_scheme(args) -> int:
    scheme = _load_scheme(args)
    print(f"scheme        {scheme.scheme_id}")
    print(f"P_lambda      {scheme.p_lambda}")
    print(f"P_even_star   {scheme.p_even_star}")
    print(f"P_odd_star    {scheme.p_odd_star}")
    print(f"|mask|        {scheme.norm_lambda}")
    print(f"|P_even_star| {scheme.p_even_star.coeff_abs_sum()}")
    print(f"|P_odd_star|  {scheme.p_odd_star.coeff_abs_sum()}")
    out = _out_dir(args)
    _write_json(out / "scheme.json", scheme.to_json())
    print(f"wrote {out / 'scheme.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# grid export
# ---------------------------------------------------------------------------


def cmd_grid(args) -> int:
    scheme = _load_scheme(args)
    grid = smolyak.enumerate_grid(args.d, args.m, scheme)
    out = _out_dir(args)
    if args.format == "csv":
        header = [f"x_{j + 1}" for j in range(args.d)] + [f"k_{j + 1}" for j in range(args.d)]
        rows = map(list.__add__, grid.as_array().tolist(), grid.provenance.tolist())
        path = out / "grid.csv"
        _write_number_csv(path, header, rows)
    else:
        path = out / "grid.json"
        _write_json(
            path,
            {
                "d": grid.d,
                "m": grid.m,
                "ell": grid.ell,
                "n": grid.n,
                "points": [[str(c) for c in pt] for pt in grid.points],
                "provenance": grid.provenance.tolist(),
            },
        )
    print(f"grid level {args.m}, d={args.d}: {grid.n} points -> {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# recover
# ---------------------------------------------------------------------------


_SNAP_TOL = 1e-9  # farthest a sample coordinate may lie from its lattice point


def _parse_number(text: str) -> float:
    num, slash, den = text.partition("/")
    if not slash:
        return float(text)
    if float(den) == 0:
        raise ValueError(f"zero denominator in {text!r}")
    return float(num) / float(den)


def _read_points(path: str, d: int, *extra: str) -> np.ndarray:
    """Columns ``x_1..x_d``, then ``extra``, of a CSV as rows of floats.

    The columns are found by name in the header row, which may order them
    freely and hold others; a missing one is a ``KeyError``.  A cell is a
    decimal float (``nan`` and ``inf`` included), optionally double-quoted, or
    a fraction such as ``1/6``.  Blank lines are skipped; a short row or a cell
    that is not a number is a ``ValueError``.
    """
    cols = [f"x_{j + 1}" for j in range(d)] + list(extra)
    with open(path, newline="") as fh:
        where = {name: i for i, name in enumerate(next(csv.reader(fh), []))}
        pos = [where[c] for c in cols]
        body = fh.read()
    if not body.strip():  # loadtxt warns on a file without rows
        return np.empty((0, len(cols)))
    # the per-cell converter only where a fraction may occur
    converters = _parse_number if "/" in body else None
    return np.loadtxt(io.StringIO(body), delimiter=",", usecols=pos, comments=None,
                      quotechar='"', ndmin=2, converters=converters)


def _read_samples(path: str, d: int, m: int, ell: int) -> SampleCache:
    """Samples at their nearest level-``m`` lattice points; rows farther than
    ``_SNAP_TOL`` from every point of that lattice in ``[0, 1)**d`` are ignored."""
    table = _read_points(path, d, "value")
    L = ell << m
    x = table[:, :d] * L
    index = np.rint(x)
    on = np.all((np.abs(x - index) <= _SNAP_TOL * L) & (index >= 0) & (index < L), axis=1)
    return SampleCache.from_lattice(index[on], m, table[on, d], ell, d)


def cmd_recover(args) -> int:
    scheme = _load_scheme(args)
    d, m = args.d, args.m
    # the evaluation points are read, or the lattice refused, before the
    # first sample is taken and the first file is written
    axes = None
    if args.eval_points:
        pts = _read_points(args.eval_points, d)
    else:
        n = args.eval_grid
        if n**d > analysis.MAX_LATTICE_POINTS:
            raise _UsageError(f"an evaluation grid of {n}**{d} = {n**d} points exceeds"
                              f" the limit of {analysis.MAX_LATTICE_POINTS} points")
        axes = [LatticeAxis(0, 1, n)] * d
        pts = np.stack(np.meshgrid(*(a.points() for a in axes), indexing="ij"), axis=-1).reshape(-1, d)
    f = None
    if args.samples:
        cache = _read_samples(args.samples, d, m, scheme.ell)
        hc = decompose(scheme, None, m, d, cache=cache)
    else:
        f = testfuncs.builtin_function(args.function, d)
        hc = smolyak.recover(scheme, d, m, f=f)
    out = _out_dir(args)
    (out / "coeffs.json").write_text(hc.to_json_text())

    # a lattice goes to the grid kernel; its 'ij' rows are the C order of the values
    values = hc.eval_points(pts) if axes is None else hc.eval_on_axes(axes).ravel()
    table = np.column_stack([pts, values])
    header = [f"x_{j + 1}" for j in range(d)] + ["value"]
    _write_number_csv(out / "recovered.csv", header, table.tolist())

    report = {
        "config": {"d": d, "m": m, "scheme": scheme.scheme_id, "samples": args.samples,
                   "function": None if args.samples else args.function},
        "n_grid": smolyak.count_points(d, m, scheme),
        "coefficients": hc.num_entries(),
    }
    if f is not None:
        report["l2_residual"] = analysis.recovery_error(f, hc, 2.0)
        print(f"L2 residual vs '{args.function}': {report['l2_residual']:.6e}")
    _write_json(out / "recover_report.json", report)
    print(f"wrote {out / 'coeffs.json'}, {out / 'recovered.csv'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------


def _check_pq(p: float, q: float, need_p: bool) -> None:
    """Usage errors for the class exponent ``p`` (when it is used) and the norm exponent ``q``."""
    if need_p and not 1 < p < math.inf:
        raise _UsageError("p must lie in (1, inf)")
    if not q > 1:
        raise _UsageError("q must lie in (1, inf]")


@dataclass
class BenchConfig:
    """Resolved configuration of a rate benchmark, embedded in its report."""

    d: int
    ell: int
    scheme_id: str
    r_eff: float
    p: float
    q: float
    m_range: list[int]
    seed: int
    K: int
    resolution: int | None
    probe: str
    model: str
    out: str

    def validate(self) -> list[str]:
        warnings: list[str] = []
        if len(self.m_range) < 4:
            raise _UsageError("rate fits need an m-range of at least 4 levels")
        _check_pq(self.p, self.q, need_p=True)
        if not self.r_eff > 0:
            raise _UsageError("r must be positive")
        box = (2 * self.K + 1) ** self.d
        if box > analysis.MAX_LATTICE_POINTS:
            raise _UsageError(f"a fixture box of (2*{self.K} + 1)**{self.d} = {box} coefficients"
                              f" exceeds the limit of {analysis.MAX_LATTICE_POINTS} points")
        lo = max(1.0 / self.p, 0.5)
        hi = self.ell - 1
        if not lo < self.r_eff < hi:
            warnings.append(
                f"r={self.r_eff:g} outside the two-sided-equivalence range ({lo:g}, {hi:g}) "
                f"for order {self.ell}; rates may not match theory"
            )
        return warnings

    def theoretical(self) -> dict:
        if math.isinf(self.q):
            return {
                "exponent": self.r_eff - 1.0 / self.p,
                "log_power": (self.d - 1) * (1.0 - 1.0 / self.p),
                "regime": "q=inf",
            }
        if self.p >= self.q:
            return {
                "exponent": self.r_eff,
                "log_power": (self.d - 1) / 2.0,
                "regime": "p>=q",
            }
        return {
            "exponent": self.r_eff - 1.0 / self.p + 1.0 / self.q,
            "log_power": 0.0,
            "regime": "p<q",
        }


def _default_probe(p: float, q: float) -> str:
    # flat random spectra are rate-extremal only for p >= q; the p < q and
    # sup-norm class rates are attained by peaked ball elements
    return "random" if (not math.isinf(q)) and p >= q else "both"


def run_benchmark(cfg: BenchConfig, scheme: QIScheme) -> dict:
    q_label = "inf" if math.isinf(cfg.q) else f"{cfg.q:g}"
    norm_kind = f"Lp,p={q_label}"
    m_hi = max(cfg.m_range)
    if cfg.probe in ("peak", "both"):
        # the bump's top quadrature lattice is refused before any sample is taken
        bump_level = testfuncs.witness_g2(scheme, cfg.d, m_hi, cfg.r_eff, cfg.p).max_level
        analysis.checked_resolution(cfg.d, cfg.resolution, bump_level)
    f = testfuncs.random_mixed_smooth(cfg.r_eff, cfg.K, cfg.d, cfg.seed)
    # f evaluated once on the top level's quadrature lattice (d <= 3), which
    # is refused here if too large, before any sample is taken
    field = analysis.sweep_field(f, cfg.d, m_hi, cfg.resolution)
    cache = SampleCache(field, scheme.ell, cfg.d)
    # a block's coefficients do not depend on m: decompose once at the top
    # level and restrict to |k|_1 <= m per level
    sweep = decompose(scheme, field, m_hi, cfg.d, cache=cache).block_items()
    err_random: dict[int, float] = {}
    err_peak: dict[int, float] = {}
    counts: dict[int, int] = {}
    for m in cfg.m_range:
        blocks = {k: C for k, C in sweep if sum(k) <= m}
        hc = HierCoeffs(cfg.d, scheme.ell, m, blocks, scheme_id=scheme.scheme_id)
        err_random[m] = analysis.recovery_error(field, hc, cfg.q, cfg.resolution)
        counts[m] = smolyak.count_points(cfg.d, m, scheme)
        if cfg.probe in ("peak", "both"):
            bump = testfuncs.witness_g2(scheme, cfg.d, m, cfg.r_eff, cfg.p)
            err_peak[m] = analysis.recovery_error(
                bump, decompose(scheme, bump, m, cfg.d), cfg.q, cfg.resolution
            )

    if cfg.probe == "random":
        errors = dict(err_random)
    elif cfg.probe == "peak":
        errors = dict(err_peak)
    else:
        # class-sup proxy: scale the peaked family to meet the random probe
        # at the lowest level, then take the per-level max
        m0 = cfg.m_range[0]
        scale = err_random[m0] / err_peak[m0]
        errors = {m: max(err_random[m], scale * err_peak[m]) for m in cfg.m_range}

    fit = analysis.fit_rate(
        errors, cfg.model, drop_lowest=0 if len(cfg.m_range) < 6 else None
    )
    rows = []
    for m in cfg.m_range:
        row = {"m": m, "n_points": counts[m], "error": errors[m], "norm_kind": norm_kind}
        row["error_random"] = err_random[m]
        if m in err_peak:
            row["error_peak"] = err_peak[m]
        rows.append(row)
    return {
        "config": cfg.__dict__ | {"q": q_label},
        "rows": rows,
        "fit": fit.to_json(),
        "theory": cfg.theoretical(),
        "sampling": {
            "evaluated": cache.evaluations,
            "grid_points": counts[m_hi],
            "fixture_lattice": field.N if isinstance(field, analysis.LatticeField) else None,
        },
    }


def cmd_benchmark(args) -> int:
    scheme = _load_scheme(args)
    if args.selftest:
        planted_rho, planted_beta = 1.5, 0.0
        errors = {m: 2.0 ** (-planted_rho * m) for m in args.m_range}
        fit = analysis.fit_rate(errors, "pure_dyadic", drop_lowest=0)
        ok = abs(fit.rho - planted_rho) < 1e-9 and fit.residual < 1e-9
        report = {
            "selftest": {"planted_rho": planted_rho, "planted_beta": planted_beta},
            "fit": fit.to_json(),
            "recovered": ok,
        }
        _write_json(_out_dir(args) / "benchmark_selftest.json", report)
        print(f"selftest: planted rho={planted_rho}, fitted rho={fit.rho:.12f} -> {'ok' if ok else 'MISMATCH'}")
        return EXIT_OK if ok else EXIT_FIT

    # the decay carries a log-power factor only above one dimension, so the
    # free log-power model is reserved for d >= 2 by default
    model = args.model or ("pure_dyadic" if args.d == 1 else "dyadic_logpow")
    cfg = BenchConfig(
        d=args.d,
        ell=scheme.ell,
        scheme_id=scheme.scheme_id,
        r_eff=args.r,
        p=args.p,
        q=args.q,
        m_range=args.m_range,
        seed=args.seed,
        K=args.K if args.K else scheme.ell * 2 ** max(args.m_range),
        resolution=args.resolution,
        probe=args.probe or _default_probe(args.p, args.q),
        model=model,
        out=str(args.out),
    )
    for warning in cfg.validate():
        print(f"warning: {warning}", file=sys.stderr)
    report = run_benchmark(cfg, scheme)
    out = _out_dir(args)
    header = ["m", "n_points", "error", "norm_kind"]
    _write_csv(
        out / "benchmark_errors.csv",
        header,
        [[row[h] for h in header] for row in report["rows"]],
    )
    _write_json(out / "benchmark_ratefit.json", report["fit"])
    _write_json(out / "benchmark_report.json", report)
    theo = report["theory"]
    fit = report["fit"]
    print(f"probe={cfg.probe}  fitted rho={fit['rho']:.4f} beta={fit['beta']:.4f} residual={fit['residual']:.3f}")
    print(
        f"theory [{theo['regime']}]: exponent {theo['exponent']:.4f}, "
        f"log-power {theo['log_power']:.2f}"
    )
    print(f"wrote {out / 'benchmark_errors.csv'}, {out / 'benchmark_ratefit.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------


def cmd_witness(args) -> int:
    scheme = _load_scheme(args)
    d, r, p, q, m_range = args.d, args.r, args.p, args.q, args.m_range
    if m_range[0] < 1:
        raise _UsageError(f"witnesses need levels m >= 1, got {m_range[0]}")
    if args.level_offset is not None and m_range[0] + args.level_offset < 1:
        raise _UsageError(f"witness blocks need m + level offset >= 1, got {m_range[0] + args.level_offset}")
    _check_pq(p, q, need_p=args.kind == "g2")
    # Highest level first, norm before grid: the largest quadrature lattice
    # is refused (LatticeTooLarge, ResolutionTooLow) before any other work,
    # and no file is written until every level is measured.
    witnesses, measured = {}, {}
    for m in reversed(m_range):
        if args.kind == "g1":
            w = testfuncs.witness_g1(scheme, d, m, r, level_offset=args.level_offset)
        else:
            w = testfuncs.witness_g2(scheme, d, m, r, p, level_offset=args.level_offset)
        norm = analysis.lq_norm(w, q, d, args.resolution, min_level=w.max_level)
        grid = smolyak.enumerate_grid(d, m, scheme)
        grid_max = float(np.max(np.abs(w.eval_points(grid.as_array())))) if grid.n else 0.0
        witnesses[m] = w
        measured[m] = {"m": m, "grid_max": grid_max, "norm_q": norm, "block_level": w.max_level}
    rows = [measured[m] for m in m_range]
    norms = {m: measured[m]["norm_q"] for m in m_range}
    if args.export_coeffs:
        for m in m_range:
            (_out_dir(args) / f"witness_{args.kind}_m{m}.json").write_text(witnesses[m].to_json_text())
    for i in range(1, len(m_range)):
        rows[i]["ratio"] = norms[m_range[i]] / norms[m_range[i - 1]]
    report: dict = {
        "config": {
            "kind": args.kind, "d": d, "r": r, "p": p,
            "q": "inf" if math.isinf(q) else q,
            "m_range": m_range, "scheme": scheme.scheme_id,
            "level_offset": args.level_offset,
        },
        "rows": rows,
        "expected_ratio": 2.0 ** (-(r - 1.0 / p + 1.0 / q)) if args.kind == "g2" else None,
    }
    if args.kind == "g1" and len(m_range) >= 4:
        fit = analysis.fit_rate(norms, "dyadic_logpow", drop_lowest=0)
        report["fit"] = fit.to_json()
        print(f"g1 norm sweep: rho={fit.rho:.4f} beta={fit.beta:.4f} residual={fit.residual:.3f}")
    out = _out_dir(args)
    header = ["m", "block_level", "grid_max", "norm_q", "ratio"]
    _write_csv(
        out / "witness.csv",
        header,
        [[row.get(h, "") for h in header] for row in rows],
    )
    _write_json(out / "witness_report.json", report)
    worst = max(row["grid_max"] for row in rows)
    print(f"max |witness| over sample grids: {worst:.3e}")
    print(f"wrote {out / 'witness.csv'}, {out / 'witness_report.json'}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="sparseqi", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive-scheme", help="derive and validate a quasi-interpolation scheme")
    _add_scheme_flags(p)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_derive_scheme)

    p = sub.add_parser("grid", help="export the sparse sample grid")
    _add_scheme_flags(p)
    p.add_argument("--d", type=_int_at_least(1), required=True)
    p.add_argument("--m", type=_int_at_least(0), required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("recover", help="recover a function from sparse-grid samples")
    _add_scheme_flags(p)
    p.add_argument("--d", type=_int_at_least(1), required=True)
    p.add_argument("--m", type=_int_at_least(0), required=True)
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--samples", help="CSV with columns x_1..x_d,value covering the grid")
    src.add_argument("--function", choices=("sine",), help="builtin fixture to sample")
    p.add_argument("--eval", dest="eval_points", help="CSV of points to evaluate at")
    p.add_argument("--eval-grid", type=_int_at_least(1), default=32, help="uniform lattice size per axis")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("benchmark", help="measure recovery error rates over a level sweep")
    _add_scheme_flags(p)
    p.add_argument("--d", type=_int_at_least(1), required=True)
    p.add_argument("--m-range", type=_parse_m_range, required=True, help="LO..HI")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=_parse_q, default=2.0)
    p.add_argument("--r", type=float, default=1.25, help="target effective smoothness")
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--K", type=_int_at_least(0), default=0,
                   help="spectral truncation of the random probe (0: ell * 2**max(m))")
    p.add_argument("--resolution", type=int, default=None, help=_RESOLUTION_HELP)
    p.add_argument("--probe", choices=("random", "peak", "both"), default=None)
    p.add_argument("--model", choices=("pure_dyadic", "dyadic_logpow"), default=None)
    p.add_argument("--selftest", action="store_true", help="fit synthetic planted errors only")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("witness", help="grid-vanishing and norm sweeps of the witness functions")
    _add_scheme_flags(p)
    p.add_argument("--kind", choices=("g1", "g2"), required=True)
    p.add_argument("--d", type=_int_at_least(1), required=True)
    p.add_argument("--m-range", type=_parse_m_range, required=True, help="LO..HI")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=_parse_q, default=2.0)
    p.add_argument("--level-offset", type=int, default=None)
    p.add_argument("--resolution", type=int, default=None, help=_RESOLUTION_HELP)
    p.add_argument("--export-coeffs", action="store_true",
                   help="also write each witness in the coefficient JSON format")
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_witness)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_UsageError, analysis.ResolutionTooLow, analysis.LatticeTooLarge) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MissingSamples as exc:
        print(f"sample error: {exc}", file=sys.stderr)
        return EXIT_SAMPLES
    except analysis.DegenerateFit as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_FIT
    except (NotAQuasiInterpolant, NotDivisible) as exc:
        print(f"scheme error: {exc}", file=sys.stderr)
        return EXIT_SCHEME
    except (FileNotFoundError, json.JSONDecodeError, KeyError, ValueError) as exc:
        # malformed mask/scheme/sample inputs; no partial outputs were written
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_SCHEME


if __name__ == "__main__":
    sys.exit(main())
