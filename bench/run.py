"""afsharsim benchmark: end-to-end metrics per workload, or a per-layer trace.

    python3 bench/run.py --workload campaign --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Workloads (closed loop, one client, one operation in flight):

* ``campaign``   -- the README's CLI sequence as subprocesses into a fresh
  output directory: six ``simulate`` runs, ``duality``, ``remnant``, ``report``;
* ``sweep-fine`` -- the six scenarios through ``apparatus.run_scenario`` on a
  2**16-sample grid, in one worker process, with no I/O;
* ``models``     -- ``duality`` with 20000 random detectors, ``remnant`` with
  100000 samples and ``report``, as subprocesses into a fresh directory.

One iteration is one full pass of a workload's operations.  ``--trace 0``
measures with tracing off and reports the ``end_to_end`` metrics of
BENCHMARK.json; ``--trace 1`` alternates untraced and traced iterations and
reports its ``per_layer`` metrics (``<layer>.<function>.ms`` is self time
per iteration).  Every operation's output is checked; the last stdout line
is the JSON result.  Uses the standard library only; the program under
test runs from ``src/`` with one BLAS thread.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROBE = Path(__file__).resolve().parent / "probe.py"
WORK = ROOT / ".bench_work"
PY = sys.executable

# One BLAS thread: the plain single-threaded baseline.  Bytecode caching is
# on, as in an installed package, whatever the caller's environment says.
ENV = dict(
    {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"},
    OPENBLAS_NUM_THREADS="1",
    OMP_NUM_THREADS="1",
    PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p),
)

OP_TIMEOUT_S = 60
SETUP_STARTS = 2  # set-up samples per iteration
TAIL_SAMPLES = 10  # a tail percentile needs at least this many samples beyond it

SETUP_CODE = {
    "cli": "import afsharsim.cli",
    "sweep": (
        "from afsharsim import apparatus; from afsharsim.wavefield import Grid; "
        "apparatus.AfsharGeometry.default(); Grid(2**16, 1.25e-6)"
    ),
}


def campaign_ops(seed: int) -> list[list[str]]:
    ops = [
        ["simulate", "--scenario", slits, "--grid", state]
        for slits in ("both", "upper", "lower")
        for state in ("in", "out")
    ]
    return ops + [
        ["duality", "--probe", "0.6,0.8", "--random-detectors", "1000", "--seed", str(seed)],
        ["remnant", "--direction", "0.6,0.8j", "--seed", str(seed), "--samples", "100"],
        ["report"],
    ]


def models_ops(seed: int) -> list[list[str]]:
    return [
        ["duality", "--probe", "0.6,0.8", "--random-detectors", "20000", "--seed", str(seed)],
        ["remnant", "--direction", "0.6,0.8j", "--seed", str(seed), "--samples", "100000"],
        ["report"],
    ]


# workload -> (setup kind, CLI operations or None for the in-process sweep,
# number of [PASS] verdicts report.txt must show)
WORKLOADS = {
    "campaign": ("cli", campaign_ops, 14),
    "sweep-fine": ("sweep", None, 0),
    "models": ("cli", models_ops, 5),
}


# ------------------------------------------------------------ processes


def spawn(cmd: list[str], stderr_path: Path) -> tuple[int, object, float]:
    """Run one child to completion; its exit code, own rusage and wall seconds."""
    with open(stderr_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=ENV, cwd=ROOT)
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, wall


def setup_start(kind: str, scratch: Path) -> float:
    """Wall seconds of a fresh interpreter that does a workload's set-up and exits."""
    code, _, wall = spawn([PY, "-c", SETUP_CODE[kind]], scratch / "setup.err")
    if code != 0:
        sys.stderr.write((scratch / "setup.err").read_text())
        raise SystemExit(f"set-up of afsharsim failed (exit {code})")
    return wall


def cli_iteration(ops: list[list[str]], passes: int, work: Path, traced: bool) -> dict:
    out = work / "out"
    results = []
    start = time.monotonic_ns()
    for i, op in enumerate(ops):
        argv = [*op, "--out", str(out)]
        if traced:
            cmd = [PY, str(PROBE), "cli", str(work / f"spans{i}.json"), *argv]
        else:
            cmd = [PY, "-m", "afsharsim.cli", *argv]
        results.append(spawn(cmd, work / f"err{i}.txt"))
    wall = (time.monotonic_ns() - start) / 1e9

    failed = 0
    for i, (op, (code, _, _)) in enumerate(zip(ops, results)):
        errors = (work / f"err{i}.txt").read_text()
        problem = None
        if code != 0:
            problem = f"exit {code}"
        elif "Traceback (most recent call last)" in errors:
            problem = "traceback on stderr"
        elif op[0] == "report":
            problem = check_report(out / "report.txt", passes)
        if problem:
            failed += 1
            print(f"{' '.join(op)}: {problem}\n{errors}", file=sys.stderr)
    span_files = [work / f"spans{i}.json" for i in range(len(ops))] if traced else []
    spans = [json.loads(f.read_text()) for f in span_files if f.is_file()]
    return {
        "traced": traced,
        "wall_s": wall,
        "cpu_s": sum(u.ru_utime + u.ru_stime for _, u, _ in results),
        "rss_mb": max(u.ru_maxrss for _, u, _ in results) / 1024.0,
        "attempted": len(ops),
        "failed": failed,
        "spans": spans,
    }


def check_report(path: Path, passes: int) -> str | None:
    if not path.is_file():
        return "no report.txt"
    text = path.read_text()
    got, fails = text.count("  [PASS] "), text.count("  [FAIL] ")
    if got != passes or fails:
        return f"report.txt shows {got} [PASS] and {fails} [FAIL], expected {passes} [PASS]"
    return None


def sweep_worker() -> subprocess.Popen:
    worker = subprocess.Popen(
        [PY, str(PROBE), "sweep"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        env=ENV,
        cwd=ROOT,
        text=True,
    )
    if worker.stdout.readline() != "ready\n":
        worker.kill()
        worker.wait()
        raise SystemExit("sweep worker failed to start")
    return worker


def sweep_iteration(worker: subprocess.Popen, traced: bool) -> dict:
    worker.stdin.write("1\n" if traced else "0\n")
    worker.stdin.flush()
    line = worker.stdout.readline()
    if not line:
        raise SystemExit(f"sweep worker died (exit {worker.wait()})")
    return json.loads(line)


def run_iterations(
    workload: str, seed: int, seconds: float, trace: bool, scratch: Path
) -> tuple[list[dict], list[float]]:
    """Closed loop for ``seconds``: the iterations and the set-up samples.

    Untraced runs time SETUP_STARTS set-ups before each iteration, so the
    samples spread over the run; with ``trace`` untraced and traced
    iterations alternate and no set-up is timed.
    """
    kind, make_ops, passes = WORKLOADS[workload]
    setup_start(kind, scratch)  # fills the page and bytecode caches; not kept
    worker = sweep_worker() if make_ops is None else None
    iterations: list[dict] = []
    setup: list[float] = []
    try:
        deadline = time.monotonic() + seconds
        while time.monotonic() < deadline or (trace and len(iterations) < 2):
            traced = trace and len(iterations) % 2 == 1
            if not trace:
                setup += [setup_start(kind, scratch) for _ in range(SETUP_STARTS)]
            if worker:
                iterations.append(sweep_iteration(worker, traced))
                continue
            work = scratch / f"it{len(iterations)}"
            work.mkdir()
            iterations.append(cli_iteration(make_ops(seed), passes, work, traced))
            shutil.rmtree(work)
    finally:
        if worker:
            worker.stdin.close()
            try:
                worker.wait(timeout=OP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                worker.kill()
                worker.wait()
    return iterations, setup


# -------------------------------------------------------------- metrics


def tail(values: list[float]) -> str:
    """The highest of p99 and p90 with at least TAIL_SAMPLES samples beyond it."""
    for q in (99, 90):
        if len(values) * (100 - q) / 100 >= TAIL_SAMPLES:
            return f"p{q} {statistics.quantiles(values, n=100)[q - 1]:.4f} s"
    return f"no tail percentile below {TAIL_SAMPLES * 10} samples"


def layer_times(span_lists: list[list[list]]) -> tuple[Counter, Counter, Counter, int]:
    """Self nanoseconds, calls and bytes per span name, and ns covered by top-level spans."""
    self_ns, calls, nbytes = Counter(), Counter(), Counter()
    covered = 0
    for spans in span_lists:
        child_ns = [0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent < 0:
                covered += end - start
            else:
                child_ns[parent] += end - start
        for (name, start, end, _, n), inner in zip(spans, child_ns):
            self_ns[name] += end - start - inner
            calls[name] += 1
            nbytes[name] += n
    return self_ns, calls, nbytes, covered


def end_to_end(iterations: list[dict], setup: list[float]) -> dict[str, float]:
    return {
        "wall_s": statistics.median(it["wall_s"] for it in iterations),
        "cpu_s": statistics.median(it["cpu_s"] for it in iterations),
        "peak_rss_mb": statistics.median(it["rss_mb"] for it in iterations),
        "setup_s": statistics.median(setup),
    }


def per_layer(iterations: list[dict], names: list[str]) -> tuple[dict[str, float], list[str]]:
    traced = [it for it in iterations if it["traced"]]
    plain = [it for it in iterations if not it["traced"]]
    per_iteration = [layer_times(it["spans"]) for it in traced]
    values = {
        "trace.overhead_s": statistics.median(it["wall_s"] for it in traced)
        - statistics.median(it["wall_s"] for it in plain),
        "trace.unattributed_ms": statistics.median(
            it["wall_s"] * 1e3 - times[3] / 1e6 for it, times in zip(traced, per_iteration)
        ),
    }
    for name in names:
        if name in values:
            continue
        span, kind = name.rsplit(".", 1)
        column, scale = {"ms": (0, 1e-6), "calls": (1, 1), "bytes": (2, 1)}[kind]
        values[name] = statistics.median(times[column][span] * scale for times in per_iteration)

    total_self = sum((times[0] for times in per_iteration), Counter())
    traced_wall_ns = sum(it["wall_s"] for it in traced) * 1e9
    top = [
        f"{span} {ns / 1e6 / len(traced):.1f} ms/iteration ({100 * ns / traced_wall_ns:.1f}% of traced wall)"
        for span, ns in total_self.most_common(3)
    ]
    return values, top


# ----------------------------------------------------------------- main


def _output(cmd: list[str]) -> str:
    try:
        return subprocess.run(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=True
        ).stdout
    except (OSError, subprocess.CalledProcessError):
        return ""


def environment() -> dict:
    """Versions, CPU and cache sizes, commit and src/ line count for the result."""
    env = json.loads(
        subprocess.run(
            [PY, str(PROBE), "env"], stdout=subprocess.PIPE, env=ENV, cwd=ROOT, check=True
        ).stdout
    )
    fields = [line.split() for line in _output(["getconf", "-a"]).splitlines()]
    env.update(
        python=platform.python_version(),
        nproc=len(os.sched_getaffinity(0)),
        caches={
            f[0]: int(f[1])
            for f in fields
            if len(f) == 2 and f[0].endswith("CACHE_SIZE") and f[1].isdigit()
        },
        commit=_output(["git", "-C", str(ROOT), "rev-parse", "HEAD"]).strip()
        if (ROOT / ".git").exists()
        else None,
        src_lines=sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
        blas_threads=ENV["OPENBLAS_NUM_THREADS"],
    )
    return env


def run_workload(workload: str, seed: int, seconds: float, trace: bool, spec: dict) -> tuple[dict, dict]:
    """Print a human-readable section; return the metrics and the operation counts."""
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    try:
        iterations, setup = run_iterations(workload, seed, seconds, trace, scratch)
    finally:
        shutil.rmtree(scratch)
    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)

    print(
        f"{workload}: seed {seed}, {len(iterations)} iterations, {attempted} operations, "
        f"{failed} failed, error_rate {failed / attempted:.4g}"
    )
    if trace:
        values, top = per_layer(iterations, [m["name"] for m in spec["per_layer"]])
        metrics = spec["per_layer"]
        for rank, line in enumerate(top, 1):
            print(f"  top self time {rank}: {line}")
    else:
        values = end_to_end(iterations, setup)
        metrics = spec["end_to_end"]
        walls = [it["wall_s"] for it in iterations]
        print(f"  wall_s over {len(walls)} iterations, {tail(walls)}; setup_s over {len(setup)} starts")
    result = {}
    for m in metrics:
        result[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:40s} {values[m['name']]:14.6f} {m['unit']}")
    return result, {"attempted": attempted, "failed": failed}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "afsharsim" / "cli.py").is_file():
        print(f"error: afsharsim sources not found under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("env " + json.dumps(environment(), sort_keys=True))

    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        values, counts = run_workload(workload, args.seed, args.seconds, bool(args.trace), spec)
        prefix = f"{workload}." if len(workloads) > 1 else ""
        metrics.update({prefix + name: value for name, value in values.items()})
        attempted += counts["attempted"]
        failed += counts["failed"]
    try:
        WORK.rmdir()
    except OSError:  # another run still uses it
        pass
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
