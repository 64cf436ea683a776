"""Benchmark of schlichtlab's scenario pipeline, end to end and layer by layer.

    python3 bench/run.py --workload report_grid --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.
Load is a closed loop from one process: a fresh worker runs the workload's
passes back to back, each pass ``ScenarioConfig.from_dict`` ->
``lab.run_scenario`` -> ``lab.export_report`` per scenario.

With ``--trace 0`` the passes run untraced and the metrics are the
end-to-end ones: set-up time, the pass-time tail, peak memory and the shares
of true flags and of good passes.  The median pass, compute and export times,
the false flags per pass and the failed-pass ratio are printed too but not
gated: on a small shared machine whose speed shifts between a fast and a
slower mode, the run-to-run spread of a median is several times that of the
tail, which sits in the slower mode.  With ``--trace 1`` every
workload runs traced through ``schlichtlab.cli.main``, one fresh worker each,
so each traced run measures every layer; the metrics are the per-layer ones
and the fixed-order layer probes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit, the sample counts, the false flags and the
provenance.  Reports, spans and the full result go under ``.bench_out/``.
``--tiny`` runs the same scenarios at small orders; the smoke test uses it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from tracer import CLI_LAYER, LAYERS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".bench_out"

# every run exits within this many seconds, workers included
RUN_LIMIT_S = 170.0
SETUP_REPEATS = 7
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunFailed(Exception):
    """The benchmark could not produce a result."""


def run_worker(args, env, deadline) -> dict:
    """Run ``worker.py`` in a fresh process until it ends; return its JSON result."""
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker {args[0]} did not end in time") from exc
    if proc.returncode != 0:
        raise RunFailed(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def write_plan(workload, seed, seconds, tiny) -> Path:
    """Write the workload's config files and its plan; return the plan's path."""
    work = OUT / workload
    work.mkdir(parents=True, exist_ok=True)
    configs, config_paths = [], []
    for data in workloads.scenario_configs(workload, seed, tiny):
        data = dict(data, out_dir=str((work / "reports").relative_to(ROOT)))
        path = work / f"{data['scenario']}.config.json"
        path.write_text(json.dumps(data, sort_keys=True), encoding="utf-8")
        configs.append(data)
        config_paths.append(str(path.relative_to(ROOT)))
    plan = {"workload": workload, "configs": configs, "config_paths": config_paths,
            "fmt": workloads.FORMATS[workload], "seconds": seconds,
            "spans_path": str(work / "spans.json")}
    path = work / "plan.json"
    path.write_text(json.dumps(plan, indent=1), encoding="utf-8")
    return path


def tail(samples):
    """The highest percentile with at least ten samples beyond it, and that percentile.

    Below eleven samples no value has ten beyond it; the maximum is given then.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure_setup(plan_path, env, deadline) -> float:
    """Median time from starting a fresh process to schlichtlab.cli imported and config parsed."""
    config_paths = json.loads(plan_path.read_text(encoding="utf-8"))["config_paths"]
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        ready = run_worker(["setup", *config_paths], env, deadline)["ready"]
        times.append(ready - start)
    return statistics.median(times)


def end_to_end(args, env, deadline, notes):
    plan = write_plan(args.workload, args.seed, args.seconds, args.tiny)
    setup_s = measure_setup(plan, env, deadline)
    result = run_worker(["timed", str(plan)], env, deadline)
    passes = result["passes"]
    good = [p for p in passes if p["ok"]]
    if not good:
        raise RunFailed("no pass succeeded:\n" + "\n".join(result["errors"]))
    checked = [p for p in passes if "flags_total" in p]
    false_flags = sorted({f for p in checked for f in p["flags_false"]})
    flags_false = sum(len(p["flags_false"]) for p in checked)
    flags_total = sum(p["flags_total"] for p in checked)
    pass_times = [p["pass_s"] for p in good]
    tail_s, tail_pct = tail(pass_times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "pass_s.tail": (tail_s, "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "flags_ok_ratio": ((flags_total - flags_false) / flags_total, "ratio"),
        "passes_ok_ratio": (len(good) / len(passes), "ratio"),
    }
    reported = {
        "pass_s": (statistics.median(pass_times), "s"),
        "compute_s": (statistics.median(p["compute_s"] for p in good), "s"),
        "export_s": (statistics.median(p["export_s"] for p in good), "s"),
        "flags_failed": (flags_false / len(checked), "count"),
        "ops_failed_ratio": ((len(passes) - len(good)) / len(passes), "ratio"),
    }
    notes += [f"{name} {value!r} {unit}" for name, (value, unit) in reported.items()]
    notes.append(f"samples: {len(passes)} passes; setup_s is the median of {SETUP_REPEATS} "
                 f"fresh processes; pass_s.tail is p{tail_pct:.1f} of {len(pass_times)} "
                 f"passes, with {10 if len(pass_times) > 10 else 0} beyond it")
    notes.append(f"false flags per pass: {json.dumps(false_flags)}")
    notes.append("pass_s, compute_s and export_s are medians over passes; with "
                 "flags_failed and ops_failed_ratio they are reported but not gated")
    return {"metrics": metrics, "attempted": len(passes), "failed": len(passes) - len(good),
            "errors": result["errors"], "versions": result["versions"], "raw": result}


def per_layer(args, env, deadline, notes):
    """Trace every workload in its own worker; sum each layer's per-pass medians."""
    budget = args.seconds / len(workloads.NAMES)
    results = {}
    for workload in workloads.NAMES:
        plan = write_plan(workload, args.seed, budget, args.tiny)
        results[workload] = run_worker(["traced", str(plan)], env, deadline)
    probes = run_worker(["probes", "tiny" if args.tiny else "full"], env, deadline)["probes"]

    names = [*LAYERS, CLI_LAYER]
    totals = {name: {"calls": 0.0, "self_s": 0.0} for name in names}
    stalled = overhead = bytes_written = rows = 0.0
    attempted = failed = 0
    for workload, result in results.items():
        passes = result["untraced"] + result["traced"]
        attempted += len(passes)
        failed += sum(not p["ok"] for p in passes)
        traced = [p for p in result["traced"] if p["ok"]]
        untraced = [p for p in result["untraced"] if p["ok"]]
        if not traced or not untraced:
            raise RunFailed(f"no traced pass of {workload} succeeded:\n"
                            + "\n".join(result["errors"]))
        for name in names:
            for key in ("calls", "self_s"):
                totals[name][key] += statistics.median(
                    p["layers"].get(name, {}).get(key, 0) for p in traced)
        stalled += statistics.median(
            p["layers"].get("grunsky.strong_grunsky_norm", {}).get("errors", {})
            .get("PowerIterationStalled", 0) for p in traced)
        overhead += (statistics.median(p["pass_s"] for p in traced)
                     - statistics.median(p["pass_s"] for p in untraced))
        bytes_written += statistics.median(p["bytes"] for p in traced)
        rows += statistics.median(p["rows"] for p in traced)
        notes.append(f"{workload}: {len(traced)} traced and {len(untraced)} untraced passes")
    norm_calls = totals["grunsky.strong_grunsky_norm"]["calls"]
    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = (totals[name]["calls"], "count")
        metrics[f"{name}.self_s"] = (totals[name]["self_s"], "s")
    metrics.update({
        "grunsky.strong_grunsky_norm.stalled": (stalled, "count"),
        "grunsky.strong_grunsky_norm.stall_ratio": (stalled / norm_calls if norm_calls else 0.0,
                                                    "ratio"),
        "lab.export_report.bytes": (bytes_written, "bytes"),
        "lab.export_report.rows": (rows, "count"),
        "trace.overhead_s": (overhead, "s"),
    })
    metrics.update({name: (value, "s") for name, value in probes.items()})
    notes.append("per-layer figures are per round: one pass of each workload, "
                 "each the median over its traced passes")
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "errors": [e for r in results.values() for e in r["errors"]],
            "versions": results[workloads.NAMES[0]]["versions"], "raw": results}


def provenance(seed, scrubbed, versions) -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": versions["python"],
        "numpy": versions["numpy"],
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "git_commit": commit,
        "seed": seed,
        "schlicht_lab_threads_scrubbed": True,
        "schlicht_lab_threads_was": scrubbed,
        "package": "imported from src/, not installed",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true", help="small orders, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "schlichtlab" / "__init__.py").is_file():
        print(f"no schlichtlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ)
    # the program's default single-thread path; BLAS keeps its own default
    scrubbed = env.pop("SCHLICHT_LAB_THREADS", None)

    notes = []
    try:
        measure = per_layer if args.trace else end_to_end
        run = measure(args, env, deadline, notes)
    except RunFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    prov = provenance(args.seed, scrubbed, run["versions"])
    summary = {
        "correct": run["failed"] == 0 and not run["errors"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in run["metrics"].items()},
    }
    (OUT / args.workload / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"summary": summary, "provenance": prov, "notes": notes,
                    "errors": run["errors"], "raw": run["raw"]}, indent=1), encoding="utf-8")
    for name, (value, unit) in run["metrics"].items():
        print(f"{name} {value!r} {unit}")
    for line in notes:
        print(line)
    for error in run["errors"]:
        print(f"error: {error}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
