"""One fresh process of the benchmark; prints its result as one JSON line.

    python3 bench/worker.py setup  CONFIG.json...  # import schlichtlab.cli, parse the configs
    python3 bench/worker.py timed  PLAN.json       # untraced passes for the plan's seconds
    python3 bench/worker.py traced PLAN.json       # traced passes through schlichtlab.cli.main,
                                                   # alternating with untraced ones
    python3 bench/worker.py probes full|tiny       # single layers at fixed orders

``run.py`` writes the plan: the workload's config dicts and the files holding
them, the export format, the seconds to measure and where to write spans.
Every pass is checked: the CSV/JSON digests must equal the first pass's, the
CSV row count must equal the grid size, and the first pass's values are
checked against closed forms where the scenario has one.
"""

from __future__ import annotations

import cmath
import contextlib
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import CLI_LAYER, Tracer

ROOT = Path(__file__).resolve().parent.parent

# CSV floats carry 8 decimals, so a re-derived value may differ by 5e-9.
CSV_TOL = 1e-8


def _inspect(path: Path):
    """SHA-256, line count and size of a written report, read in chunks."""
    digest = hashlib.sha256()
    lines = size = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
            lines += chunk.count(b"\n")
            size += len(chunk)
    return digest.hexdigest(), lines, size


def _expected_rows(cfg: dict, flags: dict, corpus_size: int) -> int:
    scenario = cfg["scenario"]
    n_count = cfg["n_range"][1] - cfg["n_range"][0] + 1
    if scenario == "inequality_audit":
        return len(flags)  # one row per check and member, each with its flag
    if scenario == "zalcman_scan":
        return corpus_size * n_count
    return (cfg["m_range"][1] - cfg["m_range"][0] + 1) * n_count


def check_pass(outputs, corpus_size: int, reference) -> dict:
    """Digests, row counts and flags of one pass; ``ok`` is False on any mismatch."""
    problems, digests, false_flags = [], {}, []
    rows = size = flags_total = 0
    for cfg, flags, paths in outputs:
        flags_total += len(flags)
        false_flags += [f"{cfg['scenario']}:{k}" for k, v in sorted(flags.items()) if not v]
        for path in paths:
            digest, lines, nbytes = _inspect(path)
            digests[path.name] = digest
            size += nbytes
            if path.suffix == ".csv":
                want = _expected_rows(cfg, flags, corpus_size)
                rows += lines - 1
                if lines - 1 != want:
                    problems.append(f"{path.name}: {lines - 1} rows, expected {want}")
    if reference is not None and digests != reference:
        problems.append(f"digests differ from the first pass: {sorted(digests)}")
    return {"ok": not problems, "problems": problems, "digests": digests, "rows": rows,
            "bytes": size, "flags_false": false_flags, "flags_total": flags_total}


def check_values(cfg: dict, csv_path: Path, koebe_m: int) -> list:
    """Rows of the CSV that contradict a closed form, as messages."""
    scenario = cfg["scenario"]
    bad = []
    with open(csv_path, encoding="utf-8") as fh:
        next(fh)
        for line in fh:
            _, m, n, value, alpha, dev, _flag = line.rstrip("\n").split(",")
            m, n = int(m), int(n)
            value, alpha, dev = float(value), float(alpha), float(dev)
            r = 1.0 - 1.0 / m
            if scenario == "counterexample":  # Koebe dilation: |a_n| / n = r^(n-1)
                ok = abs(value - r ** (n - 1)) <= CSV_TOL
            elif scenario == "theorem1":  # half-plane dilation: |a_n| / n = r^(n-1) / n
                ok = abs(value - r ** (n - 1) / n) <= CSV_TOL
            elif scenario == "theorem2":  # de Branges: |a_n| / n <= 1
                ok = 0.0 < value <= 1.0 + CSV_TOL and abs(dev - abs(value - alpha)) <= 2 * CSV_TOL
            elif scenario == "zalcman_scan" and m == koebe_m:  # Koebe attains (n-1)^2
                ok = abs(value - (n - 1) ** 2) <= CSV_TOL and abs(dev) <= CSV_TOL
            else:
                ok = True
            if not ok:
                bad.append(f"{csv_path.name}: m={m} n={n} value={value!r}")
    return bad[:5]


def run_pass(lab, plan):
    """One untraced pass through the public functions; returns outputs, compute and export time."""
    compute = export = 0.0
    outputs = []
    for data in plan["configs"]:
        cfg = lab.ScenarioConfig.from_dict(data)
        t0 = time.perf_counter()
        report = lab.run_scenario(cfg)
        t1 = time.perf_counter()
        paths = lab.export_report(report, fmt=plan["fmt"])
        t2 = time.perf_counter()
        compute += t1 - t0
        export += t2 - t1
        outputs.append((data, dict(report.summary["flags"]), paths))
    return outputs, compute, export


def run_cli_pass(cli, plan, tracer: Tracer):
    """One pass as ``schlicht-lab run`` would make it, inside a ``cli.main`` span per scenario."""
    outputs = []
    for data, config_path in zip(plan["configs"], plan["config_paths"]):
        buf = io.StringIO()
        code = 0
        with contextlib.redirect_stdout(buf), tracer.span(CLI_LAYER):
            try:
                cli.main(["run", "--config", config_path, "--format", plan["fmt"]],
                         standalone_mode=False)
            except SystemExit as exc:
                code = exc.code
        lines = buf.getvalue().splitlines()
        paths = [Path(line[len("wrote "):]) for line in lines if line.startswith("wrote ")]
        flags = {line[5:]: line.startswith("ok") for line in lines
                 if line[:4] in ("ok  ", "FAIL")}
        if code != (0 if all(flags.values()) else 1):
            raise RuntimeError(f"schlicht-lab run exited {code!r} for {config_path}")
        outputs.append((data, flags, paths))
    return outputs, None, None


class Workload:
    """The program, the plan and the first pass every later pass is checked against."""

    def __init__(self, plan):
        from schlichtlab import cli, families, lab

        self.plan, self.cli, self.lab = plan, cli, lab
        kinds = [f.kind for f in families.standard_corpus(8)]
        self.corpus_size = len(kinds)
        self.koebe_m = kinds.index("koebe") + 1
        self.errors = []
        self.reference = self._first_pass()

    def _first_pass(self):
        try:
            outputs, _, _ = run_pass(self.lab, self.plan)
        except Exception:
            self.errors.append(traceback.format_exc())
            return None
        check = check_pass(outputs, self.corpus_size, None)
        for data, _flags, paths in outputs:
            for path in paths:
                if path.suffix == ".csv":
                    check["problems"] += check_values(data, path, self.koebe_m)
        self.errors += check["problems"]
        return check["digests"] if not check["problems"] else None

    def measured(self, pass_fn) -> dict:
        """Time one pass of ``pass_fn`` and check it; failures are recorded, not raised."""
        try:
            start = time.perf_counter()
            outputs, compute, export = pass_fn()
            elapsed = time.perf_counter() - start
        except Exception:
            self.errors.append(traceback.format_exc())
            return {"ok": False}
        check = check_pass(outputs, self.corpus_size, self.reference)
        self.errors += check["problems"]
        record = {k: check[k] for k in ("ok", "rows", "bytes", "flags_false", "flags_total")}
        record.update(pass_s=elapsed, compute_s=compute, export_s=export)
        return record

    def untraced(self) -> dict:
        return self.measured(lambda: run_pass(self.lab, self.plan))


def _versions() -> dict:
    import numpy

    return {"python": platform.python_version(), "numpy": numpy.__version__}


def timed(plan) -> dict:
    work = Workload(plan)
    passes = []
    deadline = time.perf_counter() + plan["seconds"]
    while work.reference is not None and time.perf_counter() < deadline:
        passes.append(work.untraced())
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"passes": passes, "errors": work.errors[:5], "peak_rss_mb": peak_kib / 1024.0,
            "versions": _versions()}


def traced(plan) -> dict:
    work = Workload(plan)
    tracer = Tracer()
    untraced, traced_passes = [], []
    deadline = time.perf_counter() + plan["seconds"]
    while work.reference is not None and (not traced_passes or time.perf_counter() < deadline):
        untraced.append(work.untraced())
        tracer.pass_id = f"{plan['workload']}:{len(traced_passes)}"
        with tracer.installed():
            record = work.measured(lambda: run_cli_pass(work.cli, plan, tracer))
        record["layers"] = tracer.pass_stats(tracer.pass_id)
        traced_passes.append(record)
    with open(plan["spans_path"], "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return {"untraced": untraced, "traced": traced_passes, "errors": work.errors[:5],
            "versions": _versions()}


def _median_time(fn, min_reps: int, min_seconds: float) -> float:
    fn()  # lazy set-up, such as the BLAS thread pool, is not timed
    times = []
    start = time.perf_counter()
    while len(times) < min_reps or time.perf_counter() - start < min_seconds:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def probes(size) -> dict:
    """Median call times of single layers at fixed orders, on the corpus's koebe_transform.

    ``size`` "tiny" times each call once, for the smoke test.
    """
    from schlichtlab import families, grunsky, hayman, logmilin
    from schlichtlab.series import ComplexSeries

    reps, seconds = (1, 0.0) if size == "tiny" else (5, 0.2)

    def member(order):
        return families.make_schlicht("koebe_transform",
                                      {"w": 0.3 * cmath.exp(1j * math.pi / 4.0)}, order)

    def timed_call(fn):
        return _median_time(fn, reps, seconds)

    out = {}
    for n in (128, 256, 512):
        p = ComplexSeries(member(n + 1).series.coeffs[1:])  # f(z)/z, order n
        one = ComplexSeries.one(n)
        out[f"probe.series.log.N{n}_s"] = timed_call(p.log)
        out[f"probe.series.div.N{n}_s"] = timed_call(lambda: one / p)
    f256 = member(256)
    out["probe.logmilin.log_data.N256_s"] = timed_call(lambda: logmilin.log_data(f256))
    out["probe.hayman.hayman_index.N256_s"] = timed_call(lambda: hayman.hayman_index(f256))
    for n in (32, 64, 128):
        g = families.invert_to_sigma(member(2 * n + 2), 2 * n)
        out[f"probe.grunsky.grunsky_matrix.N{n}_s"] = timed_call(
            lambda: grunsky.grunsky_matrix(g, n))
    table = grunsky.grunsky_matrix(g, 128)
    out["probe.grunsky.grunsky_norm_dense.N128_s"] = timed_call(
        lambda: grunsky.grunsky_norm_dense(table))
    return {"probes": out}


def setup(config_paths) -> dict:
    import schlichtlab.cli  # noqa: F401  (the import is what is being timed)
    from schlichtlab import lab

    for path in config_paths:
        lab.ScenarioConfig.from_json(path)
    return {"ready": time.monotonic()}


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    mode, args = argv[0], argv[1:]
    if mode == "setup":
        result = setup(args)
    elif mode == "probes":
        result = probes(args[0])
    else:
        with open(args[0], encoding="utf-8") as fh:
            plan = json.load(fh)
        result = {"timed": timed, "traced": traced}[mode](plan)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
