"""Command-line front end.

Commands: ``simulate`` (bench scenarios), ``duality`` (V/K models and the
binned-visibility ladder), ``remnant`` (screen model with vibrational
post-selection), ``report`` (aggregate prior CSV outputs).  All outputs
are CSV plus plain text; identical inputs produce byte-identical files.
Each output file is replaced whole by one writer, ``_write_lines``: it
streams the file's lines ``_BLOCK`` at a time into a temporary file, then
calls ``os.replace``, so a failed write leaves the previous file as it was.
The commands hand it generators of lines, so no command holds a whole CSV:
neither its rows' floats nor its text.  ``duality`` and ``remnant`` draw
their random detectors and detections a block at a time, so neither holds
n of them either.  An ``x_m`` column written twice is formatted once: the
first file's rows keep its strings in a fixed-width bytes table
(``_fmt_kept``), and ``simulate``'s sigma2.csv and ``remnant``'s sampled
sites read them from it.

The format of each CSV, its config stamp included, is stated once in
``report``'s module notes.  ``simulate`` and ``remnant`` refuse an output
directory holding a stamped file of another config, before anything is
computed or written, so results of two configs never mix.

Exit codes: 0 success, 2 usage, configuration or file-system error, 3
band-limit guard violation (the message names the failing stage).  A
refused input is any ``ValueError``, whichever layer raises it: ``main``
prints its message as one ``error:`` line and exits 2, so a command
catches one only to add context its message lacks.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import os
import sys
import zlib
from itertools import chain, islice
from pathlib import Path
from typing import Iterable

import numpy as np

from . import apparatus, duality, remnant
from .config import MAX_N_SAMPLES, ConfigError, load_config
from .report import (
    POWERS_COLUMNS,
    _CSV,
    _FMT_DTYPE,
    _STAMPED,
    _fmt,
    _fmt_kept,
    _fmt_rows,
    _head,
    _kept,
    _powers_line,
    _read_csv,
    _read_powers,
    _read_stamp,
    build_report,
    render_report,
)
from .wavefield import _BLOCK, Grid, _row_blocks

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3

# powers.csv row order
_SCENARIO_ORDER = [(s.value, g.value) for s in apparatus.Slits for g in apparatus.GridState]


def _write_lines(path: Path, lines: Iterable[str]) -> None:
    """Write ``lines``, each ended by a newline, to ``path`` whole or not at all.

    The lines are taken ``_BLOCK`` at a time, and each block is written to a
    temporary file in ``path``'s directory as one string; ``os.replace`` then
    puts the file in place.  A failure, of the writes or of the iterator
    that makes the lines, removes the temporary file and leaves an existing
    ``path`` as it was, so a crash or a full disk never leaves a truncated
    output.
    """
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    lines = iter(lines)
    try:
        with tmp.open("w") as f:
            while block := list(islice(lines, _BLOCK)):
                block.append("")  # ends the block with a newline without copying it
                f.write("\n".join(block))
        os.replace(tmp, path)
    except BaseException:
        # a temporary file that was never made must not hide the first error
        with contextlib.suppress(OSError):
            tmp.unlink()
        raise


def _parse_complex_pair(text: str, flag: str) -> tuple[complex, complex]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{flag} expects two comma-separated values, got {text!r}")
    try:
        return complex(parts[0]), complex(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{flag}: cannot parse {text!r} as complex numbers") from exc


# ------------------------------------------------------------- provenance


def _fingerprint(geometry: apparatus.AfsharGeometry, grid: Grid) -> str:
    """The CRC-32, as 8 hex digits, of the config a bench result depends on.

    The geometry's 8 fields, then the grid's, each formatted with ``_fmt``
    in field order and joined by commas; the lens-to-detector distance is
    derived from them, and the output directory and seed change no stamped
    number.  CRC-32 tells configs apart by accident only, which is all a
    stamp guards against, and zlib is loaded with numpy already, where
    ``hashlib`` would map 3.5 MB of OpenSSL into every process.
    """
    values = (getattr(v, f.name) for v in (geometry, grid) for f in dataclasses.fields(v))
    return f"{zlib.crc32(','.join(map(_fmt, values)).encode()):08x}"


def _check_stamp(path: Path, found: str | None, fingerprint: str) -> None:
    """Refuse ``path``, a config-dependent CSV stamped ``found``, that another config made."""
    if found != fingerprint:
        made = f"config {found}" if found else "an unstamped config"
        raise ConfigError(
            f"{path} holds results of {made}, not of this run's config {fingerprint}; "
            "use another --out"
        )


def _check_stamps(out: Path, fingerprint: str, checked: str = "") -> None:
    """Refuse an ``--out`` holding a config-dependent CSV that another config made.

    ``checked`` names a file whose stamp the caller has already checked.
    """
    for name in _STAMPED:
        path = out / name
        if name != checked and path.is_file():
            _check_stamp(path, _read_stamp(path), fingerprint)


# ---------------------------------------------------------------- simulate


def cmd_simulate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    geometry = cfg.geometry()
    grid = cfg.grid()
    scenario = apparatus.Scenario(
        slits=apparatus.Slits(args.scenario), grid=apparatus.GridState(args.grid)
    )
    out = Path(args.out or cfg.out_dir)
    fingerprint = _fingerprint(geometry, grid)
    # the rows this run's row joins; a malformed file is named before the stamps are compared
    powers_path, rows = out / "powers.csv", {}
    if powers_path.is_file():
        stamp, held = _read_powers(powers_path)
        rows = {(r["scenario"], r["grid"]): r for r in held}
        # powers.csv is the first stamped file, so the order of the checks holds
        _check_stamp(powers_path, stamp, fingerprint)
    _check_stamps(out, fingerprint, checked="powers.csv")
    record = apparatus.run_scenario(geometry, scenario, grid)
    # the record holds its own profiles and this process runs no other scenario
    apparatus._bench.cache_clear()

    out.mkdir(parents=True, exist_ok=True)
    row = {column: getattr(record, column) for column in POWERS_COLUMNS[2:]}
    row.update(scenario=scenario.slits.value, grid=scenario.grid.value)
    rows[(row["scenario"], row["grid"])] = row
    powers = _head("powers.csv", fingerprint)
    powers += [_powers_line(rows[key]) for key in _SCENARIO_ORDER if key in rows]
    # x_m is formatted once: sigma1.csv's rows fill the table, sigma2.csv's read it
    x_m = np.empty(grid.n_samples, _FMT_DTYPE)
    for name, profile, xs in (
        ("sigma1.csv", record.intensity_sigma1, _fmt_kept(grid.coordinates, x_m)),
        ("sigma2.csv", record.intensity_sigma2, _kept(x_m)),
    ):
        rows = (f"{x},{value}" for value, x in zip(_fmt_rows(profile), xs))
        _write_lines(out / name, chain(_head(name, fingerprint), rows))
    _write_lines(out / "powers.csv", powers)
    (u_lo, u_hi), (l_lo, l_hi) = apparatus.image_windows(geometry)
    _write_lines(
        out / "derived.csv",
        _head("derived.csv", fingerprint)
        + [
            f"fill_factor,{_fmt(apparatus.fill_factor(geometry))}",
            f"fringe_spacing_m,{_fmt(geometry.fringe_spacing)}",
            f"magnification,{_fmt(geometry.magnification)}",
            f"window_U_lo_m,{_fmt(u_lo)}",
            f"window_U_hi_m,{_fmt(u_hi)}",
            f"window_L_lo_m,{_fmt(l_lo)}",
            f"window_L_hi_m,{_fmt(l_hi)}",
        ],
    )
    print(
        f"simulate {scenario.slits.value}/{scenario.grid.value}: "
        f"P_sigma1={_fmt(record.power_incident)} "
        f"P_after_grid={_fmt(record.power_after_grid)} "
        f"P_detectors={_fmt(record.power_at_detectors)} "
        f"P_U={_fmt(record.power_window_U)} P_L={_fmt(record.power_window_L)}"
    )
    return EXIT_OK


# ----------------------------------------------------------------- duality


def _ladder_widths(period_samples: int, count: int) -> list[int]:
    """Bin widths in samples: divisors of the period, log-spread, incl. 1 and period."""
    divisors = [j for j in range(1, period_samples + 1) if period_samples % j == 0]
    if count >= len(divisors):
        return divisors
    picks = np.unique(
        np.round(np.geomspace(1, len(divisors), count)).astype(int) - 1
    )
    return [divisors[i] for i in picks]


def _check_count(value: int, flag: str, low: int = 0, high: int | None = None) -> None:
    """Reject a command-line integer outside [low, high] before anything is allocated."""
    if value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise ConfigError(f"{flag} must be {bound}, got {value}")


# How far, as a fraction of the sample spacing, a --pattern x_m value may
# sit from the uniform grid spanned by its end samples.
_PATTERN_GRID_TOL = 1e-3


def cmd_duality(args: argparse.Namespace) -> int:
    _check_count(args.seed, "--seed")
    _check_count(args.random_detectors, "--random-detectors", high=MAX_N_SAMPLES)
    _check_count(args.bin_ladder, "--bin-ladder", low=1)
    # the built-in cosine has a fixed period; the flag describes a --pattern file
    if args.period_samples is not None and not args.pattern:
        raise ConfigError("--period-samples applies only to a --pattern file")
    period_samples = 64 if args.period_samples is None else args.period_samples
    _check_count(period_samples, "--period-samples", low=1)
    # the file name is the source field of its vk.csv row
    name = Path(args.pattern).name if args.pattern else ""
    if any(c in name for c in ",\r\n"):
        raise ConfigError(f"--pattern file name {name!r}: a comma or line break splits vk.csv")
    # (model, sources, V, K, V^2+K^2) of each add_rows call, formatted as vk.csv is written
    groups: list[tuple] = []

    def add_rows(model: str, sources: Iterable[str], pair: duality.VKPair) -> None:
        groups.append((model, sources, pair.V, pair.K, duality.duality_check(pair)))

    if args.probe:
        a, b = _parse_complex_pair(args.probe, "--probe")
        probe = duality.ProbeAmplitudes(a, b)
        add_rows("probe", [f"a={a!r};b={b!r}"], duality.vk_from_probe(probe))
        if abs(a.imag) < 1e-12 and abs(b.imag) < 1e-12:
            model = duality.probe_detector_model(probe)
            add_rows(
                "detector", [f"rotations-for-a={a!r};b={b!r}"], duality.vk_from_detector(model)
            )

    if args.random_detectors:
        n = args.random_detectors
        rng = np.random.default_rng(args.seed)
        # one block of detectors at a time, reduced to V and K; the draws go
        # on from one stream, so detector i is the one a stack of n holds
        v, k = np.empty(n), np.empty(n)
        for rows in _row_blocks(n):
            model = duality.random_detector_model(rng, rows.stop - rows.start)
            pair = duality.vk_from_detector(model)
            v[rows], k[rows] = pair.V, pair.K
        sources = (f"random[{i}]" for i in range(n))
        add_rows("detector", sources, duality.VKPair(v, k))

    # visibility ladder: external pattern if given, else the canonical cosine
    if args.pattern:
        path = Path(args.pattern)
        if not path.is_file():
            raise ConfigError(f"pattern file not found: {path}")
        # a profile, as simulate writes them
        _, _, columns = _read_csv(path, _CSV["sigma2.csv"].header)
        xs, pattern = columns["x_m"], columns["intensity"]
        if xs.size < 2:
            raise ConfigError(f"pattern CSV {path}: fewer than two samples")
        spacing = float((xs[-1] - xs[0]) / (len(xs) - 1))
        try:
            grid = Grid(n_samples=len(xs), spacing=spacing, center=float(xs[len(xs) // 2]))
        except ValueError as exc:
            raise ConfigError(f"pattern CSV {path}: x_m spans no grid: {exc}") from exc
        if not np.max(np.abs(xs - grid.coordinates)) <= _PATTERN_GRID_TOL * spacing:
            raise ConfigError(f"pattern CSV {path}: x_m is not a uniform grid")
        if not np.all(np.isfinite(pattern) & (pattern >= 0.0)):
            raise ConfigError(f"pattern CSV {path}: intensity must be finite and non-negative")
        # the widest ladder bin, one period, must leave at least two bins
        _check_count(period_samples, "--period-samples", low=1, high=(len(xs) - 1) // 2)
        region = (float(xs[0]), float(xs[0]) + (len(xs) - 1) * spacing)
        source = path.name
    else:
        grid = Grid(n_samples=1024, spacing=5e-6)
        xs = grid.coordinates
        pattern = 1.0 + np.cos(2.0 * np.pi * xs / (period_samples * grid.spacing))
        region = (float(xs[0]), float(xs[0]) + 512 * grid.spacing)
        source = "cosine"

    widths = [j * grid.spacing for j in _ladder_widths(period_samples, args.bin_ladder)]
    vs = [duality.visibility_from_pattern(pattern, grid, bw, region) for bw in widths]
    ladder = [f"{_fmt(bw)},{_fmt(v)}" for bw, v in zip(widths, vs)]
    fine_v = vs[0]  # the ladder starts at one sample, the fine-resolution estimator
    add_rows("pattern", [source], duality.VKPair(fine_v, np.sqrt(max(0.0, 1 - fine_v**2))))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    rows = (
        f"{model},{source},{values}"
        for model, sources, *columns in groups
        for source, values in zip(sources, _fmt_rows(*columns))
    )
    _write_lines(out / "vk.csv", chain(_head("vk.csv"), rows))
    _write_lines(out / "visibility_bins.csv", _head("visibility_bins.csv") + ladder)
    n_rows = sum(np.size(check) for *_, check in groups)
    deviation = max(np.max(np.abs(check - 1.0)) for *_, check in groups)
    print(
        f"duality: {n_rows} model rows, max |V^2+K^2-1| = {_fmt(deviation)}; "
        f"ladder of {len(ladder)} widths on '{source}' pattern"
    )
    return EXIT_OK


# ----------------------------------------------------------------- remnant


def cmd_remnant(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    seed = args.seed if args.seed is not None else cfg.seed
    if seed is not None:
        _check_count(seed, "seed")
    _check_count(args.samples, "--samples", high=MAX_N_SAMPLES)
    if args.samples and seed is None:
        raise ConfigError("--samples requires --seed (or seed in config)")
    geometry = cfg.geometry()
    grid = cfg.grid()
    out = Path(args.out or cfg.out_dir)
    fingerprint = _fingerprint(geometry, grid)
    _check_stamps(out, fingerprint)
    state = remnant.build_remnant(*apparatus.sigma1_fields(geometry, grid))
    # the state holds its own amplitudes and nothing later reads the bench
    apparatus._bench.cache_clear()
    total = remnant.total_pattern(state)

    # sigma1_fields' phi_L is phi_U mirrored, so v_L's outcome is v_U's mirrored
    p_upper, upper = remnant.postselect(state, remnant.VibrationalDirection.v_upper())
    probs = {"post_vU": p_upper, "post_vL": p_upper}
    patterns = {"post_vU": upper, "post_vL": apparatus._mirror(upper)}
    directions = [
        ("post_plus", remnant.VibrationalDirection.fringe()),
        ("post_minus", remnant.VibrationalDirection.antifringe()),
    ]
    if args.direction:
        alpha, beta = _parse_complex_pair(args.direction, "--direction")
        directions.append(("post_custom", remnant.VibrationalDirection(alpha, beta)))
    for name, direction in directions:
        probs[name], patterns[name] = remnant.postselect(state, direction)
    residues = [
        f"{label} = {_fmt(remnant.completeness_residue(probs, patterns, pair, total))}"
        for label, pair in remnant.COMPLETENESS_PAIRS
    ]

    out.mkdir(parents=True, exist_ok=True)
    names = list(probs)
    # x_m is formatted once: remnant.csv's rows fill the table, the sampled sites read it
    x_m = np.empty(state.sites.size, _FMT_DTYPE)
    columns = (total, *(patterns[name] for name in names))
    # _fmt_rows first in the zip, so its float lists are freed when it runs out
    rows = (f"{x},{values}" for values, x in zip(_fmt_rows(*columns), _fmt_kept(state.sites, x_m)))
    # the table's columns are the four fixed directions; a custom one follows them
    head = _head("remnant.csv", fingerprint, names[4:])
    _write_lines(out / "remnant.csv", chain(head, rows))
    _write_lines(
        out / "remnant_summary.csv",
        _head("remnant_summary.csv", fingerprint)
        + [f"{name},{_fmt(probs[name])}" for name in names],
    )
    # the patterns are written: they go before sampling imports numpy.random
    del total, upper, patterns, columns

    if args.samples:
        rng = np.random.default_rng(seed)
        blocks = remnant.sample_sites(state, args.samples, rng)
        draws = chain.from_iterable(_kept(x_m[block]) for block in blocks)
        rows = (f"{i},{x}" for i, x in enumerate(draws))
        _write_lines(out / "remnant_samples.csv", chain(_head("remnant_samples.csv"), rows))

    print("remnant: completeness residue " + ", ".join(residues))
    print(remnant.ORTHONORMAL_NOTE)
    return EXIT_OK


# ------------------------------------------------------------------ report


def cmd_report(args: argparse.Namespace) -> int:
    text = render_report(build_report(args.out))
    # the writer ends the last line with the newline that ends the text
    _write_lines(Path(args.out) / "report.txt", text.removesuffix("\n").split("\n"))
    print(text, end="")
    return EXIT_OK


# ------------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="afsharsim",
        description="Two-slit wave-optics bench with which-way analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one bench scenario")
    p_sim.add_argument("--config", help="key = value config file")
    p_sim.add_argument("--scenario", choices=["both", "upper", "lower"], default="both")
    p_sim.add_argument("--grid", choices=["in", "out"], default="out")
    p_sim.add_argument("--out", help="output directory (default from config)")
    p_sim.set_defaults(fn=cmd_simulate)

    p_dual = sub.add_parser("duality", help="V/K models and binned visibility")
    p_dual.add_argument("--probe", metavar="A,B", help="probe amplitudes, e.g. '0.6,0.8'")
    p_dual.add_argument("--random-detectors", type=int, default=0, metavar="N")
    p_dual.add_argument("--seed", type=int, default=0)
    p_dual.add_argument("--pattern", help="x_m,intensity CSV to analyze")
    p_dual.add_argument(
        "--period-samples",
        type=int,
        help="fringe period of the --pattern file in samples (ladder upper end; default 64)",
    )
    p_dual.add_argument("--bin-ladder", type=int, default=7, metavar="N")
    p_dual.add_argument("--out", default="out")
    p_dual.set_defaults(fn=cmd_duality)

    p_rem = sub.add_parser("remnant", help="screen model with post-selection")
    p_rem.add_argument("--config", help="key = value config file")
    p_rem.add_argument("--direction", metavar="ALPHA,BETA", help="extra post-selection direction")
    p_rem.add_argument("--seed", type=int, default=None)
    p_rem.add_argument("--samples", type=int, default=0, metavar="N")
    p_rem.add_argument("--out", help="output directory (default from config)")
    p_rem.set_defaults(fn=cmd_remnant)

    p_rep = sub.add_parser("report", help="aggregate CSV outputs into a report")
    p_rep.add_argument("--out", default="out", help="directory holding the CSV outputs")
    p_rep.set_defaults(fn=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # Path("") is the current directory, where no command should write or read unasked
        if args.out == "":
            raise ConfigError("--out is empty; name a directory ('.' for the current one)")
        return args.fn(args)
    # ValueError: a refused input, whichever layer refuses it (ConfigError and
    # ReportError are ValueErrors); OSError: an output or input path the file
    # system refuses, e.g. --out naming a regular file
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except apparatus.BandLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
