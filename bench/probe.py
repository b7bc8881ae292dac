"""Child-process side of the benchmark: layer tracer, traced CLI, sweep worker.

``run.py`` starts this file in fresh interpreters:

    probe.py env                       print numpy and BLAS versions as JSON
    probe.py cli SPANS.json ARGS...    run ``afsharsim ARGS...`` with every layer
                                       traced; the spans go to SPANS.json
    probe.py sweep                     serve fine-grid sweep iterations in
                                       process, one per line read from stdin

A span is ``[name, start_ns, end_ns, parent_index, bytes]`` on the
system-wide monotonic clock, so spans from several processes share one
time axis.  Spans are kept in memory and written once at the end.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time
import traceback
from pathlib import Path

LAYERS = ("wavefield", "apparatus", "duality", "remnant", "config", "cli", "report")

# The fine grid has the default 81.92 mm extent; 2**16 x 5e-6 trips the
# lens_phase guard and 2**16 x 2.5e-6 drops upper-slit containment to 0.963.
FINE_GRID = (2**16, 1.25e-6)
MINIMA_ORACLE_REL_TOL = 5e-3
MINIMA_DEFAULT_GRID_TOL_M = 1e-9
DETECTOR_POWER_TOL = 1e-10


class Tracer:
    """Records a span around every call of afsharsim's public functions.

    Each function is wrapped under every name a module looks it up by and
    recorded under its defining layer, so ``apparatus.propagate`` and
    ``cli.propagate`` both count as ``wavefield.propagate``.  File reads
    and writes through ``pathlib.Path`` become ``cli.read``, ``cli.write``
    (new file) and ``cli.rewrite`` (the file already existed).
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    def _call(self, name: str, fn, args, kwargs):
        span = [name, 0, 0, self._open[-1] if self._open else -1, 0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.monotonic_ns()
        try:
            return fn(*args, **kwargs), span
        finally:
            span[2] = time.monotonic_ns()
            self._open.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)[0]

        return traced

    def install(self):
        """Patch the wrappers in; returns a function that restores the originals."""
        patched: list[tuple[object, str, object]] = []

        def patch(owner, attr, new) -> None:
            patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"afsharsim.{layer}")
            for attr, obj in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or not obj.__module__.startswith("afsharsim.")
                ):
                    continue
                if obj not in wrappers:
                    owner = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self._wrap(f"{owner}.{obj.__name__}", obj)
                patch(module, attr, wrappers[obj])

        read_text, write_text = Path.read_text, Path.write_text

        def traced_read(path, *args, **kwargs):
            text, span = self._call("cli.read", read_text, (path, *args), kwargs)
            span[4] = len(text)  # the CSVs are ASCII: characters are bytes
            return text

        def traced_write(path, *args, **kwargs):
            name = "cli.rewrite" if path.exists() else "cli.write"
            written, span = self._call(name, write_text, (path, *args), kwargs)
            span[4] = written
            return written

        patch(Path, "read_text", traced_read)
        patch(Path, "write_text", traced_write)

        def uninstall() -> None:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

        return uninstall


def run_cli(spans_path: str, argv: list[str]) -> int:
    from afsharsim import cli

    tracer = Tracer()
    tracer.install()
    try:
        return cli.main(argv)
    finally:
        Path(spans_path).write_text(json.dumps(tracer.spans))


def check_sweep(records: dict, geometry, reference_minima) -> dict:
    """Failure messages per scenario key; an empty list means the record passed.

    Applies the verdict thresholds of ``afsharsim.report`` plus three
    oracles that do not share the simulation's code path: power
    conservation through lens and propagation, the small-angle minima
    positions, and the minima found on the default grid.
    """
    import numpy as np
    from afsharsim import apparatus, report

    failures = {key: [] for key in records}

    def need(key, *others):
        missing = [f"{s}/{g}" for s, g in others if records[(s, g)] is None]
        if missing:
            failures[key].append(f"cannot check without {', '.join(missing)}")
        return not missing and records[key] is not None

    for key, rec in records.items():
        if rec is not None and abs(rec.power_at_detectors / rec.power_after_grid - 1) > DETECTOR_POWER_TOL:
            failures[key].append("detector power differs from power after the grid")

    fringe = geometry.fringe_spacing
    for key in (("both", "in"), ("both", "out")):
        if not need(key):
            continue
        positions = np.asarray(records[key].minima_positions)
        oracle = (np.arange(geometry.n_wires // 2) + 0.5) * fringe
        if np.max(np.abs(positions[positions > 0] - oracle) / oracle) >= MINIMA_ORACLE_REL_TOL:
            failures[key].append("minima off the (m+1/2)*lambda*L/d positions")
        if np.max(np.abs(positions - reference_minima)) > MINIMA_DEFAULT_GRID_TOL_M:
            failures[key].append("minima differ from the default-grid minima")

    if need(("both", "in"), ("both", "out")):
        ratio = records[("both", "in")].power_at_detectors / records[("both", "out")].power_at_detectors
        if not ratio >= report.GRID_TRANSPARENCY_MIN:
            failures[("both", "in")].append(f"grid transparency {ratio}")

    fill = apparatus.fill_factor(geometry)
    for slit, window in (("upper", "power_window_U"), ("lower", "power_window_L")):
        key = (slit, "in")
        if need(key, ("both", "in")):
            rec, both = records[key], records[("both", "in")]
            loss = 1.0 - rec.power_after_grid / rec.power_incident
            loss_both = 1.0 - both.power_after_grid / both.power_incident
            if not abs(loss - fill) <= report.SINGLE_LOSS_REL_TOL * fill:
                failures[key].append(f"grid loss {loss} not near fill factor {fill}")
            if not loss_both < report.LOSS_ORDERING_FACTOR * loss:
                failures[key].append(f"both-slit loss {loss_both} not below single-slit loss")
        key = (slit, "out")
        if need(key):
            rec = records[key]
            frac = getattr(rec, window) / rec.power_at_detectors
            disc = abs(rec.power_window_U - rec.power_window_L) / (
                rec.power_window_U + rec.power_window_L
            )
            if not frac >= report.WINDOW_FRACTION_MIN:
                failures[key].append(f"containment {frac}")
            if not disc >= report.DISCRIMINATION_MIN:
                failures[key].append(f"discrimination {disc}")
    return failures


def run_sweep() -> None:
    """Serve sweep iterations: after ``ready``, one JSON line per input line.

    An input line ``1`` runs a traced iteration, ``0`` an untraced one.
    """
    from afsharsim import apparatus
    from afsharsim.wavefield import Grid

    geometry = apparatus.AfsharGeometry.default()
    grid = Grid(*FINE_GRID)
    reference_minima = apparatus.fringe_minima(
        geometry, Grid(apparatus.DEFAULT_N_SAMPLES, apparatus.DEFAULT_SPACING)
    )
    scenarios = [apparatus.Scenario(s, g) for s in apparatus.Slits for g in apparatus.GridState]
    print("ready", flush=True)

    for line in sys.stdin:
        traced = line.strip() == "1"
        tracer = Tracer()
        uninstall = tracer.install() if traced else None
        records = {}
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.monotonic_ns()
        for scenario in scenarios:
            key = (scenario.slits.value, scenario.grid.value)
            try:
                records[key] = apparatus.run_scenario(geometry, scenario, grid)
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                records[key] = None
        end = time.monotonic_ns()
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        if uninstall:
            uninstall()

        failures = check_sweep(records, geometry, reference_minima)
        for (slits, state), messages in failures.items():
            for message in messages:
                print(f"sweep-fine {slits}/{state}: {message}", file=sys.stderr)
        iteration = {
            "traced": traced,
            "wall_s": (end - start) / 1e9,
            "cpu_s": (usage1.ru_utime + usage1.ru_stime) - (usage0.ru_utime + usage0.ru_stime),
            "rss_mb": usage1.ru_maxrss / 1024.0,
            "attempted": len(records),
            "failed": sum(1 for key in records if records[key] is None or failures[key]),
            "spans": [tracer.spans] if traced else [],
        }
        print(json.dumps(iteration), flush=True)


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '?')}"}


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "env":
        print(json.dumps(environment()))
        return 0
    if mode == "cli":
        return run_cli(rest[0], rest[1:])
    if mode == "sweep":
        run_sweep()
        return 0
    print(f"probe.py: unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
