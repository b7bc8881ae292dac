"""Aggregate the CSV outputs of previous runs into a plain-text report.

Every verdict in the report is recomputed from numbers present in the
emitted CSV files (plus the geometric fill factor recorded alongside
them); nothing is trusted from in-memory state.

The CSV format is stated here once.  The ``_CSV`` table gives each output
file's header, whether it starts with the config stamp and whether a
verdict reads its numbers as they are; the commands write each file's
stamp and header from it (``_head``), and every CSV is read by one reader
(``_read_csv``).  Floats are written with ``repr``, so they read back to
the same bits; the ``_TEXT_COLUMNS`` hold labels.

A stamped file depends on the bench config: its first line is
``# config`` and the config's fingerprint, above the header.  A report is
built only from files whose stamps agree; a file without a stamp counts
as a config of its own.

The reader takes a file through one ``Path.open``, ``_BLOCK`` lines at a
time, and splits it into the lines ``str.splitlines`` gives.  The header must
hold the table's columns (a writer may add more after them, as
``remnant`` adds ``post_custom``; powers.csv's must be the table's
exactly), and there must be at least one row.  Every row has the
header's field count and a number in every float field.  Where a verdict
reads the numbers as they are, a non-finite one would pass or fail a
threshold by accident, so it is refused too.  A file that breaks a rule
is refused with one message naming its first bad line in row order; an
undecodable byte anywhere in the file is named first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .remnant import COMPLETENESS_PAIRS, ORTHONORMAL_NOTE, completeness_residue
from .wavefield import _BLOCK, _row_blocks

__all__ = [
    "Report",
    "build_report",
    "discrimination",
    "render_report",
    "ReportError",
    "POWERS_COLUMNS",
    "VK_COLUMNS",
]

# Verdict thresholds (shared with the acceptance suite).
GRID_TRANSPARENCY_MIN = 0.99
WINDOW_FRACTION_MIN = 0.99
DISCRIMINATION_MIN = 0.98
SINGLE_LOSS_REL_TOL = 0.20
LOSS_ORDERING_FACTOR = 0.20
DUALITY_IDENTITY_TOL = 1e-12
LADDER_FINAL_MAX = 0.01
COMPLETENESS_TOL = 1e-12

# The powers.csv schema: one row per scenario run.
POWERS_COLUMNS = (
    "scenario",
    "grid",
    "power_incident",
    "power_after_grid",
    "power_at_detectors",
    "power_window_U",
    "power_window_L",
)

# The vk.csv schema: one row per V/K model.
VK_COLUMNS = ("model", "a_or_V_source", "V", "K", "V2K2")

# Post-selection outcomes the completeness verdicts need in remnant.csv and
# remnant_summary.csv.
_POSTSELECTED = tuple(name for _, names in COMPLETENESS_PAIRS for name in names)


class _Csv(NamedTuple):
    """The format of one output CSV (see the module notes)."""

    header: tuple[str, ...]
    stamped: bool  # starts with the config stamp
    finite: bool  # a verdict reads its numbers as they are, so they must be finite


# Every output CSV, the stamped ones in the order their stamps are checked.
_CSV = {
    "powers.csv": _Csv(POWERS_COLUMNS, stamped=True, finite=True),
    "derived.csv": _Csv(("key", "value"), stamped=True, finite=True),
    "sigma1.csv": _Csv(("x_m", "intensity"), stamped=True, finite=False),
    "sigma2.csv": _Csv(("x_m", "intensity"), stamped=True, finite=False),
    "vk.csv": _Csv(VK_COLUMNS, stamped=False, finite=False),
    "visibility_bins.csv": _Csv(("bin_width_m", "V"), stamped=False, finite=True),
    "remnant.csv": _Csv(("x_m", "total") + _POSTSELECTED, stamped=True, finite=False),
    "remnant_summary.csv": _Csv(("key", "value"), stamped=True, finite=True),
    "remnant_samples.csv": _Csv(("index", "x_m"), stamped=False, finite=False),
}
_STAMP = "# config "
_STAMPED = tuple(name for name, csv in _CSV.items() if csv.stamped)

# Columns of the emitted CSVs that hold labels; every other column is a float.
_TEXT_COLUMNS = frozenset({"scenario", "grid", "key", "model", "a_or_V_source"})

# vk.csv rows the report lists; no verdict reads the labels of the others.
_VK_SHOWN = 8


class ReportError(ValueError):
    """No usable inputs for a report, or a malformed CSV file."""


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_rows(*columns) -> Iterator[str]:
    """One comma-joined line of ``_fmt`` strings per row of the float columns.

    The rows are taken ``_BLOCK`` at a time: each column's block becomes
    Python floats with one ``tolist``, and each value is formatted once, as
    its line is made.  No column of strings or floats is kept, so what the
    lines hold does not grow with the number of rows.
    """
    arrays = [np.asarray(column, dtype=float).ravel() for column in columns]
    for rows in _row_blocks(min(map(len, arrays), default=0)):
        floats = [a[rows].tolist() for a in arrays]
        yield from map(",".join, zip(*(map(repr, values) for values in floats)))


# The longest repr of a float64, e.g. '-2.2250738585072014e-308', has 24
# characters, so an array of this dtype holds any _fmt string whole.
_FMT_DTYPE = "S24"


def _fmt_kept(column, table: np.ndarray) -> Iterator[str]:
    """The ``_fmt`` string of each value of ``column``, kept in ``table`` too.

    ``table`` is a ``_FMT_DTYPE`` array of the column's length.  The values
    are formatted ``_BLOCK`` at a time, and each block's strings are stored
    in ``table`` before the first of them is yielded, so every string
    yielded so far can be read back with ``_kept`` instead of being
    formatted again.
    """
    values = np.asarray(column, dtype=float).ravel()
    for rows in _row_blocks(values.size):
        strings = list(map(repr, values[rows].tolist()))
        table[rows] = strings
        yield from strings


def _kept(table: np.ndarray) -> Iterator[str]:
    """The strings of a ``_fmt_kept`` table, or of rows taken from one, in order."""
    for rows in _row_blocks(table.size):
        yield from map(bytes.decode, table[rows].tolist())


def _head(name: str, fingerprint: str | None = None, extra: Iterable[str] = ()) -> list[str]:
    """The lines above the rows of output file ``name``.

    The stamp of ``fingerprint`` if the file is stamped, then its header,
    with the ``extra`` columns after the table's.
    """
    stamp = [_STAMP + fingerprint] if _CSV[name].stamped else []
    return stamp + [",".join((*_CSV[name].header, *extra))]


def _powers_line(row: dict) -> str:
    return ",".join(row[c] if c in _TEXT_COLUMNS else _fmt(row[c]) for c in POWERS_COLUMNS)


def _parse(lines: list[str], usecols: list[int]) -> np.ndarray:
    """The ``usecols`` fields of comma-separated lines as a (rows, columns) float array."""
    return np.loadtxt(lines, delimiter=",", usecols=usecols, ndmin=2, comments=None)


def _read_stamp(path: Path) -> str | None:
    """The config fingerprint on a stamped CSV's first line; None if it has no stamp.

    Reads that line only: ``simulate`` and ``remnant`` check the stamps of
    whole profiles with it before they run.  The line ends where
    ``_read_csv``'s first line ends, so both find one stamp in one file.
    """
    with path.open(errors="replace") as f:
        first = f.readline().splitlines()
    if not first or not first[0].startswith(_STAMP):
        return None
    return first[0][len(_STAMP) :]


def _first_bad_line(
    path: Path, lines: list[str], first: int, header: list[str], finite: bool
) -> ReportError:
    """The error for the first malformed line of ``lines``, whose first is line ``first``.

    Runs only after the bulk checks of a block in ``_read_csv`` have failed,
    so it parses one field at a time with the same parser.
    """
    for lineno, line in enumerate(lines, start=first):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            return ReportError(
                f"{path}:{lineno}: {len(fields)} fields where the header has {len(header)}"
            )
        for name, value in zip(header, fields):
            if name in _TEXT_COLUMNS:
                continue
            try:
                number = _parse([value], [0])
            except ValueError:
                return ReportError(f"{path}:{lineno}: {name} = {value!r} is not a number")
            if finite and not np.isfinite(number).all():
                return ReportError(f"{path}:{lineno}: {name} = {value!r} is not finite")
    return ReportError(f"{path}: malformed")


def _read_csv(
    path: Path, required: tuple[str, ...] = (), finite: bool = False, label_rows: int | None = None
) -> tuple[str | None, list[str], dict[str, np.ndarray | list[str]]]:
    """Stamp, header and columns of an emitted CSV, read ``_BLOCK`` lines at a time.

    The stamp is None when the file has none.  A label column is a list of
    strings, of the first ``label_rows`` rows when that is given, and only
    those rows' lines are kept; every other column is one float array of
    all rows, each block's float fields parsed in bulk as it is read.  So
    besides the float columns the reader holds one block of lines.  Raises
    ReportError when the file is not text, when the header lacks one of the
    ``required`` columns, when there are no data rows and on a malformed
    line, naming the first one (a non-finite number is malformed when
    ``finite`` is set).  The file is opened once; only a file that is not
    text is read again, for the message that names the undecodable byte
    by its offset in the file.
    """
    try:
        with path.open() as f:
            try:
                return _read_lines(path, f, required, finite, label_rows)
            except ReportError:
                # a whole-file read would fail at an undecodable byte before any check
                for _ in f:
                    pass
                raise
    except UnicodeDecodeError:
        # the streamed decoder counts bytes from its last chunk, not from the file's start
        try:
            path.read_text()
        except UnicodeDecodeError as exc:
            raise ReportError(f"{path}: not a text file: {exc}") from None
        raise


def _read_lines(
    path: Path, f: Iterable[str], required: tuple[str, ...], finite: bool, label_rows: int | None
) -> tuple[str | None, list[str], dict[str, np.ndarray | list[str]]]:
    """``_read_csv`` of the text lines of file ``f``."""
    # the lines read_text().splitlines() gives: str.splitlines breaks at
    # more characters than a text file's lines end at
    lines = chain.from_iterable(map(str.splitlines, f))
    first = next(lines, None)
    stamp = first[len(_STAMP) :] if first is not None and first.startswith(_STAMP) else None
    top = 0 if stamp is None else 1
    head = first if stamp is None else next(lines, None)
    header = head.split(",") if head is not None else []
    missing = [name for name in required if name not in header]
    if header and missing:
        raise ReportError(f"{path}:{top + 1}: missing column {missing[0]!r}")
    numeric = [j for j, name in enumerate(header) if name not in _TEXT_COLUMNS]
    # the rows whose lines the label columns are read from: all, or the first label_rows
    keep = label_rows if len(numeric) < len(header) else 0
    blocks: list[np.ndarray] = []
    labelled: list[str] = []
    lineno = top + 2  # the number of the block's first line
    while block := list(islice(lines, _BLOCK)):
        if rows := [line for line in block if line]:
            try:
                if any(line.count(",") != len(header) - 1 for line in rows):
                    raise ValueError
                data = _parse(rows, numeric)
                if finite and not np.isfinite(data).all():
                    raise ValueError
            except ValueError:
                raise _first_bad_line(path, block, lineno, header, finite) from None
            blocks.append(data)
            labelled += rows[: None if keep is None else keep - len(labelled)]
        lineno += len(block)
    if not blocks:
        raise ReportError(f"{path}: no data rows")
    floats = dict(zip(numeric, np.concatenate(blocks).T))
    columns = {
        name: floats[j] if j in floats else [line.split(",", j + 1)[j] for line in labelled]
        for j, name in enumerate(header)
    }
    return stamp, header, columns


def _read_powers(path: Path) -> tuple[str | None, list[dict]]:
    """Stamp and rows of a powers.csv.

    ``simulate`` rewrites the rows by column name, so the header must be
    ``POWERS_COLUMNS`` whole and in order; it is checked after the rows.
    """
    stamp, header, columns = _read_csv(path, finite=_CSV["powers.csv"].finite)
    if tuple(header) != POWERS_COLUMNS:
        line = 1 if stamp is None else 2
        raise ReportError(f"{path}:{line}: header is not {','.join(POWERS_COLUMNS)}")
    # Python floats, whose arithmetic in the verdicts raises no numpy warnings
    values = (c.tolist() if isinstance(c, np.ndarray) else c for c in columns.values())
    return stamp, [dict(zip(header, row)) for row in zip(*values)]


@dataclass
class Report:
    power_rows: list[dict] = field(default_factory=list)
    derived: dict[str, float] = field(default_factory=dict)
    vk_columns: dict[str, np.ndarray | list[str]] = field(default_factory=dict)
    ladder: list[tuple[float, float]] = field(default_factory=list)
    remnant_columns: dict[str, np.ndarray] = field(default_factory=dict)
    remnant_probs: dict[str, float] = field(default_factory=dict)
    verdicts: list[tuple[str, bool, str]] = field(default_factory=list)
    # (V, K) as Afshar combines them: grid transparency and grid-out discrimination
    afshar_pair: tuple[float, float] | None = None
    # the stamp of each config-dependent file read, None for an unstamped one
    stamps: dict[str, str | None] = field(default_factory=dict)


def _load(report: Report, out_dir: Path, name: str, label_rows: int | None = None) -> dict:
    """The columns of output file ``name`` in ``out_dir``, read by its ``_CSV`` row.

    An empty dict when there is no such file; a stamped file's stamp goes
    to ``report.stamps``.
    """
    path, csv = out_dir / name, _CSV[name]
    if not path.is_file():
        return {}
    stamp, _, columns = _read_csv(path, csv.header, csv.finite, label_rows)
    if csv.stamped:
        report.stamps[name] = stamp
    return columns


def _grid_loss(row: dict | None) -> float | None:
    """Wire-grid loss of a powers row; None unless its power_incident is positive."""
    if not row or row["power_incident"] <= 0:
        return None
    return 1.0 - row["power_after_grid"] / row["power_incident"]


def discrimination(p_u: float, p_l: float) -> float | None:
    """Which-slit contrast |P_U - P_L| / (P_U + P_L) of two window powers.

    None unless P_U + P_L is positive.
    """
    total = p_u + p_l
    if not total > 0:
        return None
    return abs(p_u - p_l) / total


def _power_verdicts(report: Report) -> None:
    by_key = {(r["scenario"], r["grid"]): r for r in report.power_rows}
    both_in, both_out = by_key.get(("both", "in")), by_key.get(("both", "out"))
    ratio = None
    if both_in and both_out and both_out["power_at_detectors"] > 0:
        ratio = both_in["power_at_detectors"] / both_out["power_at_detectors"]
        report.verdicts.append(
            (
                "grid transparency (both slits): detector power ratio "
                f"{_fmt(ratio)} >= {GRID_TRANSPARENCY_MIN}",
                ratio >= GRID_TRANSPARENCY_MIN,
                "powers.csv",
            )
        )
    phi = report.derived.get("fill_factor")
    loss_both = _grid_loss(both_in)
    for slit in ("upper", "lower"):
        loss = _grid_loss(by_key.get((slit, "in")))
        if loss is not None and phi:
            ok = abs(loss - phi) <= SINGLE_LOSS_REL_TOL * phi
            report.verdicts.append(
                (
                    f"single-slit ({slit}) grid loss {_fmt(loss)} within "
                    f"+-{int(SINGLE_LOSS_REL_TOL*100)}% of fill factor {_fmt(phi)}",
                    ok,
                    "powers.csv + derived.csv",
                )
            )
        if loss is not None and loss_both is not None:
            ok = loss_both < LOSS_ORDERING_FACTOR * loss
            report.verdicts.append(
                (
                    f"loss ordering: both-slit loss {_fmt(loss_both)} < "
                    f"{LOSS_ORDERING_FACTOR} x single-slit ({slit}) loss {_fmt(loss)}",
                    ok,
                    "powers.csv",
                )
            )
    discriminations = []
    # containment/discrimination thresholds are stated for grid-out runs;
    # with the grid in, wire-edge diffraction legitimately spills a few
    # percent outside the geometric window (the table still shows those rows)
    for slit, window_key in (("upper", "power_window_U"), ("lower", "power_window_L")):
        row = by_key.get((slit, "out"))
        if not row or row["power_at_detectors"] <= 0:
            continue
        frac = row[window_key] / row["power_at_detectors"]
        report.verdicts.append(
            (
                f"which-slit containment ({slit}, grid out): "
                f"correct-window fraction {_fmt(frac)} >= {WINDOW_FRACTION_MIN}",
                frac >= WINDOW_FRACTION_MIN,
                "powers.csv",
            )
        )
        disc = discrimination(row["power_window_U"], row["power_window_L"])
        if disc is not None:
            discriminations.append(disc)
            report.verdicts.append(
                (
                    f"discrimination ({slit}, grid out): "
                    f"{_fmt(disc)} >= {DISCRIMINATION_MIN}",
                    disc >= DISCRIMINATION_MIN,
                    "powers.csv",
                )
            )
    if ratio is not None and discriminations:
        report.afshar_pair = (ratio, min(discriminations))


def _vk_verdicts(report: Report) -> None:
    if report.vk_columns:
        check = report.vk_columns["V2K2"]
        worst = np.max(np.abs(check - 1.0))
        report.verdicts.append(
            (
                f"duality identity: max |V^2+K^2-1| = {_fmt(worst)} < "
                f"{_fmt(DUALITY_IDENTITY_TOL)} over {check.size} models",
                worst < DUALITY_IDENTITY_TOL,
                "vk.csv",
            )
        )
    if report.ladder:
        vs = [v for _, v in report.ladder]
        non_increasing = all(vs[i] >= vs[i + 1] - 1e-12 for i in range(len(vs) - 1))
        report.verdicts.append(
            (
                "coarse-bin visibility ladder is non-increasing in bin width",
                non_increasing,
                "visibility_bins.csv",
            )
        )
        report.verdicts.append(
            (
                f"visibility at one-period bins {_fmt(vs[-1])} < {LADDER_FINAL_MAX}",
                vs[-1] < LADDER_FINAL_MAX,
                "visibility_bins.csv",
            )
        )


def _remnant_verdicts(report: Report) -> None:
    cols, probs = report.remnant_columns, report.remnant_probs
    if not cols or not probs:
        return
    for label, names in COMPLETENESS_PAIRS:
        residue = completeness_residue(probs, cols, names, cols["total"])
        report.verdicts.append(
            (
                f"post-selection completeness ({label}): max residue "
                f"{_fmt(residue)} < {_fmt(COMPLETENESS_TOL)}",
                residue < COMPLETENESS_TOL,
                "remnant.csv + remnant_summary.csv",
            )
        )


def build_report(out_dir: str | Path) -> Report:
    out = Path(out_dir)
    report = Report()
    # a companion file (derived.csv, remnant_summary.csv) is read only beside its main file
    if (out / "powers.csv").is_file():
        report.stamps["powers.csv"], report.power_rows = _read_powers(out / "powers.csv")
        if derived := _load(report, out, "derived.csv"):
            report.derived = dict(zip(derived["key"], derived["value"].tolist()))
    report.vk_columns = _load(report, out, "vk.csv", _VK_SHOWN)
    if ladder := _load(report, out, "visibility_bins.csv"):
        report.ladder = list(zip(ladder["bin_width_m"].tolist(), ladder["V"].tolist()))
    report.remnant_columns = _load(report, out, "remnant.csv")
    if report.remnant_columns and (summary := _load(report, out, "remnant_summary.csv")):
        report.remnant_probs = dict(zip(summary["key"], summary["value"].tolist()))
        missing = [name for name in _POSTSELECTED if name not in report.remnant_probs]
        if missing:
            raise ReportError(f"{out / 'remnant_summary.csv'}: missing key {missing[0]!r}")
    if not (report.power_rows or report.vk_columns or report.ladder or report.remnant_columns):
        raise ReportError(f"no simulation CSV files found in {out}")
    if len(set(report.stamps.values())) > 1:
        found = ", ".join(f"{name} {stamp or 'unstamped'}" for name, stamp in report.stamps.items())
        raise ReportError(f"{out} mixes results of different configs: {found}")
    _power_verdicts(report)
    _vk_verdicts(report)
    _remnant_verdicts(report)
    return report


def render_report(report: Report) -> str:
    lines: list[str] = ["simulation report", "=" * 17, ""]
    if report.power_rows:
        lines.append("scenario powers")
        lines.append(",".join(POWERS_COLUMNS))
        lines.extend(_powers_line(r) for r in report.power_rows)
        if report.derived:
            lines.append("")
            lines.append("derived geometry quantities")
            for key in sorted(report.derived):
                lines.append(f"  {key} = {_fmt(report.derived[key])}")
        lines.append("")
    if report.vk_columns:
        n_rows = report.vk_columns["V2K2"].size
        lines.append(f"V/K models: {n_rows} rows")
        shown = (report.vk_columns[c][:_VK_SHOWN] for c in VK_COLUMNS)
        for model, source, v, k, check in zip(*shown):
            lines.append(f"  {model}[{source}]: V={_fmt(v)} K={_fmt(k)} V2K2={_fmt(check)}")
        if n_rows > _VK_SHOWN:
            lines.append(f"  ... ({n_rows - _VK_SHOWN} more rows)")
        lines.append("")
    if report.ladder:
        lines.append("coarse-bin visibility ladder (bin_width_m, V)")
        for bw, v in report.ladder:
            lines.append(f"  {_fmt(bw)},{_fmt(v)}")
        lines.append("")
    if report.remnant_columns:
        lines.append("post-selection summary")
        for key in _POSTSELECTED:
            if key in report.remnant_probs:
                lines.append(f"  P({key}) = {_fmt(report.remnant_probs[key])}")
        lines.append("")
    lines.append("verdicts")
    for text, ok, source in report.verdicts:
        lines.append(f"  [{'PASS' if ok else 'FAIL'}] {text}  (from {source})")
    if report.afshar_pair:
        v, k = report.afshar_pair
        lines.append(
            f"  [INFO] Afshar's V^2 + K^2 = {_fmt(v * v + k * k)}, with V read from the "
            f"both-slit grid transparency {_fmt(v)} and K from the grid-out "
            f"discrimination {_fmt(k)}: the two come from different set-ups (V with "
            "both slits open, K with one), so the bound V^2 + K^2 <= 1 is not tested  "
            "(from powers.csv)"
        )
    if report.remnant_columns:
        lines.append("")
        lines.append(ORTHONORMAL_NOTE)
    lines.append("")
    return "\n".join(lines)
