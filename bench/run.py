"""Benchmark of the ``fo2level`` command line on four seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory.  One client calls ``fo2level.cli.main([...])`` in a closed loop,
in this process, with no threads: the next call starts when the previous
one has returned.  A pass sends every input of the workload once; passes
repeat until ``--seconds`` have elapsed, and every output is checked against
a reference verdict after its pass.

Every timed figure is scaled to a fixed host speed by the gauge in
``gauge.py``, which times a reference kernel between calls.  ``wall_s`` is
the median over passes of the summed call times (``main()`` call to return);
``verdict_ms.p50`` (``.p90``) is a percentile over the inputs of each
input's median call time across the passes.  The raw times are kept in the
report.

``setup_s`` is the median time to import the package in a fresh interpreter
plus the median time to generate and write the inputs, over SETUP_REPEATS
tries each, also in reference seconds.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics.  With
``--trace 1`` untraced and traced passes alternate, and the metrics are the
per-layer ones (`tracer.py`) plus the tracing overhead.  Either way a report
with per-input rows (and, when traced, every span) is written under
``.bench_work/`` at the repository root.

Exit codes: 0 ok, 1 a wrong verdict, an exit 2 from the program, or an
uncaught exception (a result line with ``"correct": false`` is printed),
2 the package could not be imported (no result line).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

from gauge import REFERENCE_S, Gauge
from workloads import BUILDERS, Case

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 5
# The layer each workload is built to load, which should hold >= 90% of self time.
PURPOSE = {"deep-products": "identities", "large-monoids": "monoid", "ranker-oracle": "rankers"}


class VerdictError(Exception):
    """An output disagrees with its reference, or the program failed hard."""


def percentiles(samples: list[float]) -> dict:
    """Median always; p90 only with at least 100 samples (ten beyond it)."""
    out = {"n": len(samples), "p50": statistics.median(samples)}
    if len(samples) >= 100:
        out["p90"] = statistics.quantiles(samples, n=10)[8]
    return out


def verdict_problem(case: Case, out: str) -> str | None:
    """Why an exit-0 output is wrong, or None when it matches the reference."""
    if "stdout" in case.expect:
        if out != case.expect["stdout"]:
            return f"oracle output {out!r}, expected {case.expect['stdout']!r}"
        return None
    try:
        report = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"unreadable report: {exc}"
    if report["agreement"] is not True:
        return "the decision routes disagree"
    if (report["fo2_level"] is None) != (report["in_da"] is False):
        return f"fo2_level {report['fo2_level']} with in_da {report['in_da']}"
    if (report["fo2_level"] == 1) != (report["j_trivial"] is True):
        return f"fo2_level {report['fo2_level']} with j_trivial {report['j_trivial']}"
    for key, want in case.expect.items():
        if report[key] != want:
            return f"{key} is {report[key]!r}, expected {want!r}"
    return None


def run_pass(cli, cases: list[Case], tally: dict, gauge: Gauge, recorder=None) -> list[tuple]:
    """Call main() once per case; (code, out, seconds, err, reference seconds) each.

    The gauge is sampled before the first call, after the last and between
    calls once INTERVAL_S has passed; a call is scaled by the two around it.
    """
    results, before = [], []
    gauge.sample()
    for i, case in enumerate(cases):
        if gauge.due():
            gauge.sample()
        before.append(len(gauge.samples) - 1)
        out, err = io.StringIO(), io.StringIO()
        tally["attempted"] += 1
        if recorder is not None:
            recorder.input = i
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                code = cli.main(case.argv)
            except Exception:
                raise VerdictError(f"{case.name}: uncaught exception\n"
                                   f"{traceback.format_exc()}") from None
            t1 = time.perf_counter()
        results.append((code, out.getvalue(), t1 - t0, err.getvalue()))
    gauge.sample()
    return [r + (r[2] * gauge.scale(j),) for r, j in zip(results, before)]


def pass_seconds(results: list[tuple], raw: bool = False) -> float:
    """Summed call time of a pass, in reference seconds or (raw) as measured."""
    return sum(r[2] if raw else r[4] for r in results)


def input_medians(untraced, raw: bool = False) -> list[float]:
    """Each input's median call time over the untraced passes, in ms."""
    col = 2 if raw else 4
    return [statistics.median(r[col] for r in calls) * 1e3 for calls in zip(*untraced)]


def verdict_percentiles(untraced, raw: bool = False) -> dict:
    """Percentiles over the inputs of their median call times, with the counts."""
    return {**percentiles(input_medians(untraced, raw)), "passes": len(untraced)}


def check_pass(cases: list[Case], results: list[tuple]) -> int:
    """Raise VerdictError on a wrong verdict; return the count of exit 1/3 calls."""
    failed = 0
    for case, (code, out, _s, err, *_ref) in zip(cases, results):
        if code in (1, 3):
            failed += 1
        elif code != 0:
            raise VerdictError(f"{case.name}: exit {code}: {err.strip()}")
        else:
            problem = verdict_problem(case, out)
            if problem is not None:
                raise VerdictError(f"{case.name}: {problem}")
    return failed


def import_package():
    """Import fo2level from this checkout's src/ and return its cli module."""
    sys.path.insert(0, SRC)
    import numpy  # noqa: F401  (timed as part of set-up)
    from fo2level import cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"fo2level imported from {cli.__file__}, not from {SRC}")
    return cli


# Run in a fresh interpreter: time the import, then time the gauge kernel in
# the same process (once to warm up, then the median of three), and print both.
IMPORT_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
t = time.perf_counter()
import numpy, fo2level.cli
imported = time.perf_counter() - t
sys.path.insert(0, sys.argv[2])
from gauge import kernel
kernel()
runs = []
for _ in range(3):
    t = time.perf_counter()
    kernel()
    runs.append(time.perf_counter() - t)
print(imported, sorted(runs)[1])
"""


def import_seconds() -> tuple[float, float]:
    """Median time to import numpy and fo2level in a fresh interpreter.

    One import in this process is a single noisy sample, so set-up repeats it
    SETUP_REPEATS times in child interpreters, each waited for.  Each child
    scales its import by its own kernel time: the parent sits idle meanwhile,
    so its gauge does not see the child's speed.  Returns the median in
    reference seconds and as measured.
    """
    ref, raw = [], []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC, BENCH],
                              capture_output=True, text=True, check=True, timeout=120)
        imported, kernel_s = map(float, done.stdout.split())
        raw.append(imported)
        ref.append(imported * REFERENCE_S / kernel_s)
    return statistics.median(ref), statistics.median(raw)


def build_inputs(workload: str, seed: int, workdir: str,
                 gauge: Gauge) -> tuple[float, float, list[Case]]:
    """Generate and write the inputs SETUP_REPEATS times.

    Returns the median time in reference seconds and as measured, and the
    cases of the last try.
    """
    ref, raw = [], []
    for r in range(SETUP_REPEATS):
        target = os.path.join(workdir, f"inputs{r}")
        os.makedirs(target)
        j = gauge.sample()
        t0 = time.perf_counter()
        cases = BUILDERS[workload](seed, target)
        raw.append(time.perf_counter() - t0)
        gauge.sample()
        ref.append(raw[-1] * gauge.scale(j))
    return statistics.median(ref), statistics.median(raw), cases


def measure(cli, cases: list[Case], seconds: float, trace: bool, tally: dict, gauge: Gauge):
    """Alternate untraced and (when `trace`) traced passes until time is up.

    Returns [results] untraced and [(results, recorder)] traced.
    """
    if trace:
        from tracer import Recorder  # imports fo2level, so only after import_package
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        if trace and len(traced) < len(untraced):
            recorder = Recorder()
            recorder.install()
            try:
                results = run_pass(cli, cases, tally, gauge, recorder)
            finally:
                recorder.remove()
            recorder.settle()
            traced.append((results, recorder))
        else:
            results = run_pass(cli, cases, tally, gauge)
            untraced.append(results)
        tally["failed"] += check_pass(cases, results)
        if time.perf_counter() - start >= seconds and (traced or not trace):
            return untraced, traced


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".share"):
        return "%"
    return "count"


def end_to_end(untraced, setup_s: float, tally: dict) -> tuple[dict, dict]:
    pct = verdict_percentiles(untraced)
    metrics = {
        "wall_s": (statistics.median(map(pass_seconds, untraced)), "s"),
        "verdict_ms.p50": (pct["p50"], "ms"),
        "ok_frac": (1 - tally["failed"] / tally["attempted"], "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, pct


def per_layer(untraced, traced) -> dict:
    layers = [rec.layer_metrics() for _, rec in traced]
    metrics = {k: (statistics.median(d[k] for d in layers), _unit(k)) for k in layers[0]}
    for k, n in traced[0][1].totals().items():
        metrics[k] = (n, "count")
    overhead = (statistics.median(pass_seconds(res) for res, _ in traced)
                - statistics.median(map(pass_seconds, untraced)))
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def input_rows(cases: list[Case], untraced, traced) -> list[dict]:
    """Per input: sizes next to its median time, verdict and traced counters."""
    counters = traced[0][1].counts_by_input() if traced else {}
    rows = []
    times = zip(input_medians(untraced), input_medians(untraced, raw=True))
    for i, (case, (ms, raw_ms)) in enumerate(zip(cases, times)):
        code, out = untraced[0][i][:2]
        row = {"input": case.name, **case.sizes, "exit": code,
               "time_ms": ms, "raw_time_ms": raw_ms}
        if code == 0 and case.argv[0] == "analyze":
            report = json.loads(out)
            row.update(states=report["dfa_states"], monoid=report["monoid_size"],
                       level=report["fo2_level"])
        elif code == 0:
            row["oracle"] = out.splitlines()[-1]
        row.update(counters.get(i, {}))
        rows.append(row)
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    tally = {"attempted": 0, "failed": 0}
    try:
        try:
            cli = import_package()
        except ImportError as exc:
            print(f"error: cannot import fo2level from {SRC}: {exc}", file=sys.stderr)
            return 2
        gauge = Gauge()
        import_s, raw_import_s = import_seconds()
        gen_s, raw_gen_s, cases = build_inputs(args.workload, args.seed, workdir, gauge)
        try:
            untraced, traced = measure(cli, cases, args.seconds, bool(args.trace), tally, gauge)
        except VerdictError as exc:
            print(f"verdict mismatch: {exc}", file=sys.stderr)
            print(json.dumps({"correct": False, "attempted": max(tally["attempted"], 1),
                              "failed": tally["failed"], "metrics": {}}))
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    e2e, pct = end_to_end(untraced, import_s + gen_s, tally)
    metrics = per_layer(untraced, traced) if args.trace else e2e
    import numpy
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "inputs": len(cases),
            "untraced_pass_s": [pass_seconds(res) for res in untraced],
            "traced_pass_s": [pass_seconds(res) for res, _ in traced],
            "raw_untraced_pass_s": [pass_seconds(res, raw=True) for res in untraced],
            "raw_traced_pass_s": [pass_seconds(res, raw=True) for res, _ in traced],
            "verdict_ms": pct,
            "raw_verdict_ms": verdict_percentiles(untraced, raw=True),
            "import_s": import_s, "generate_s": gen_s,
            "raw_import_s": raw_import_s, "raw_generate_s": raw_gen_s,
            "gauge_samples": len(gauge.samples),
            "gauge_kernel_ms": statistics.median(s for _, s in gauge.samples) * 1e3,
            "failed_frac": tally["failed"] / tally["attempted"]}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(cases)} inputs, {len(untraced)} untraced and {len(traced)} traced passes")
    print(f"python {meta['python']} numpy {meta['numpy']} nproc {meta['nproc']}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    if "p90" in pct:
        print(f"  {'verdict_ms.p90':28s} {pct['p90']:14.6g} ms")
    print(f"  {'failed_frac':28s} {meta['failed_frac']:14.6g} ratio")
    print(f"  percentiles over the median times of {pct['n']} inputs in {pct['passes']} "
          f"passes; wall_s is the median of {len(untraced)} passes")
    raw = meta["raw_verdict_ms"]
    print(f"  times in reference seconds (gauge.py); as measured: wall "
          f"{statistics.median(meta['raw_untraced_pass_s']):.6g} s, p50 {raw['p50']:.6g} ms, "
          f"set-up {raw_import_s + raw_gen_s:.6g} s; kernel median "
          f"{meta['gauge_kernel_ms']:.4g} ms over {len(gauge.samples)} samples")
    if args.trace:
        for name, (value, unit) in metrics.items():
            print(f"  {name:28s} {value:14.6g} {unit}")
        if args.workload in PURPOSE:
            layer = PURPOSE[args.workload]
            share = metrics[f"{layer}.share"][0]
            print(f"  {layer} holds {share:.1f}% of self time "
                  f"({'meets' if share >= 90 else 'BELOW'} the 90% this workload is built for)")

    report = {"meta": meta,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**e2e, **metrics}.items()},
              "rows": input_rows(cases, untraced, traced),
              "spans": [rec.spans for _, rec in traced]}
    path = os.path.join(WORK, f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    print(f"report: {os.path.relpath(path, ROOT)}")
    print(json.dumps({"correct": True, "attempted": tally["attempted"], "failed": tally["failed"],
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
