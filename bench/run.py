"""ssisim benchmark: what people who use ssisim wait for, end to end and layer by layer.

Usage, from the root of a checkout (stdlib only; the program runs from ``src/``):

    python3 bench/run.py --workload cli-registry --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py`` for the request classes of each):

    cli-registry   cold ``python -m ssisim.cli`` verify / issue / ledger-validate
                   on a fresh copy of a 1,000-block ledger file
    registry-warm  in-process verify_presentation / issue_credential /
                   revoke_credential on an already folded 20,000-anchor registry
    paper-flows    healthcare and government flows and the compromise experiment

``--trace 0`` times a closed loop for about ``--seconds`` and reports the
end-to-end metrics: set-up time, requests per second, and the mean latency
of each request class. Means, not medians: machine speed switches between
levels, and a median jumps with the share of time spent at each. No p90
either: a cli-registry run has 13 to 26 requests per class, too few for a
tail. Times are reported at reference speed: each is scaled by calibration
tasks timed just before and after it, because on a shared virtual machine
the CPU speed can drift by 2x while the program is unchanged (see
``workloads.Calibration``). The per-class line gives the raw wall times,
with medians and p90s.

``--trace 1`` wraps the program's public functions (see ``tracer.py``), runs
a fixed number of rounds so that call counts repeat exactly, and reports
per-layer calls, self times and counters, the tracing overhead and the
ROADMAP baseline rows (``baseline.py``), all as measured; it also writes
every span to ``.bench_work/traces/``. For cli-registry the traced run calls
``ssisim.cli.main`` in process, since wrappers cannot reach a subprocess;
``cli.import_ms`` is the interpreter start and import that this leaves out.

Both modes check every output: a wrong verdict, exit code, transcript hash
or count is a failed operation. Standard output: a header line, an inputs
line (digests of the generated inputs, equal on both commits of a
comparison), a per-class line, and last a JSON result line with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("verify_mean_ms", "ms"),
    ("issue_mean_ms", "ms"),
    ("admin_mean_ms", "ms"),
]


def _line(obj) -> None:
    print(json.dumps(obj, separators=(",", ":")), flush=True)


def _p90(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _commit() -> str:
    """HEAD of the checkout's git repository, read from its files; 'unknown' if none."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _header(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "ssisim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": _commit(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "cryptography": metadata.version("cryptography"),
        "click": metadata.version("click"),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def per_layer_spec() -> list:
    """(name, unit, better) of every metric a traced run reports, in output order."""
    from bench import baseline
    from bench.tracer import REJECT_CAUSES, SPAN_NAMES

    spec = []
    for name in SPAN_NAMES:
        spec += [(f"{name}.calls", "count", "lower"), (f"{name}.self_ms", "ms", "lower")]
    spec += [
        ("serialization.load_json.bytes", "bytes", "lower"),
        ("identity.verify.false", "count", "lower"),
        ("ledger.Ledger.validate_chain.blocks", "count", "lower"),
        ("ledger.RegistryState.check.rejected", "count", "lower"),
        ("ledger.Ledger.to_bytes.bytes", "bytes", "lower"),
        ("ledger.bytes_per_block", "bytes", "lower"),
    ]
    spec += [(f"engine.verify_presentation.reject.{cause}", "count", "lower")
             for cause in REJECT_CAUSES]
    spec += [
        ("cli.import_ms", "ms", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.ops_per_s", "1/s", "higher"),
        ("trace.accounted_pct", "%", "higher"),
        ("trace.overhead_ms", "ms", "lower"),
        ("trace.probe_ms", "ms", "lower"),
    ]
    spec += [(name, name.rsplit("_", 1)[1], "lower") for name in baseline.ROWS]
    return spec


def _class_lines(workload, samples: dict) -> dict:
    """Per-class wall times as measured, before calibration."""
    out = {}
    for kind, values in samples.items():
        ms = [v / 1e6 for v in values]
        out[kind] = {"what": workload.what[kind], "n": len(ms), "mean_ms": statistics.fmean(ms),
                     "p50_ms": statistics.median(ms), "p90_ms": _p90(ms)}
    return out


def end_to_end(scaled: dict, setup_s: float) -> dict:
    """End-to-end metrics from request times at reference speed (see workloads.Calibration)."""
    ms = {kind: [v / 1e6 for v in values] for kind, values in scaled.items()}
    every = [v for values in ms.values() for v in values]
    values = {
        "setup_s": setup_s,
        "ops_per_s": len(every) / (sum(every) / 1000),
        "verify_mean_ms": statistics.fmean(ms["verify"]),
        "issue_mean_ms": statistics.fmean(ms["issue"]),
        "admin_mean_ms": statistics.fmean(ms["admin"]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _import_ms() -> float:
    """Median wall time of a bare ``import ssisim.cli`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(3):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import ssisim.cli"], env=env, check=True,
                       timeout=60)
        times.append((perf_counter() - t0) * 1000)
    return statistics.median(times)


def traced_run(workload, args, tally, workdir: Path) -> dict:
    from bench import baseline
    from bench.inputs import build_cli_registry, seed_bytes
    from bench.tracer import Tracer, overhead_ns_per_span
    from bench.workloads import execute, run_rounds

    rows = baseline.measure(build_cli_registry(seed_bytes("baseline", args.seed)))
    import_ms = _import_ms()
    per_span_ns = overhead_ns_per_span()

    tracer = Tracer()
    tracer.install()
    try:
        for op in workload.warm_up():
            execute(op, tally)
        samples, _, _ = run_rounds(workload, tally, args.seconds,
                                   workload.rounds(args.seconds, traced=True), tracer)
        loop_spans = tracer.span_count()
        tracer.active = True
        t0 = perf_counter()
        baseline.probe(workdir, tally)
        probe_ms = (perf_counter() - t0) * 1000
        tracer.active = False
    finally:
        tracer.uninstall()

    traces = ROOT / ".bench_work" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    spans_path = traces / f"{workload.name}-seed{args.seed}.csv.gz"
    tracer.write(spans_path)

    requests_ns = sum(v for values in samples.values() for v in values)
    values = {}
    for name, (calls, self_ns) in tracer.per_function().items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_ms"] = self_ns / 1e6
    counters = tracer.counters
    values["ledger.bytes_per_block"] = (counters.get("ledger.Ledger.to_bytes.bytes", 0)
                                        / max(counters.get("ledger.Ledger.to_bytes.blocks", 0), 1))
    values["cli.import_ms"] = import_ms
    values["trace.spans"] = tracer.span_count()
    values["trace.ops_per_s"] = sum(map(len, samples.values())) / (requests_ns / 1e9)
    loop_self_ns = sum(tracer.self_times_ns(0, loop_spans))
    values["trace.accounted_pct"] = 100 * loop_self_ns / requests_ns
    values["trace.overhead_ms"] = tracer.span_count() * per_span_ns / 1e6
    values["trace.probe_ms"] = probe_ms
    values.update(rows)
    for name, _, _ in per_layer_spec():
        values.setdefault(name, counters.get(name, 0))  # hook counters; 0 if never bumped

    _line({"classes": _class_lines(workload, samples)})
    _line({"trace": {"spans_file": str(spans_path.relative_to(ROOT)),
                     "overhead_ns_per_span": per_span_ns,
                     "requests_ms": requests_ns / 1e6}})
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in per_layer_spec()}


def run(args, workdir: Path) -> dict:
    from bench.workloads import WORKLOADS, SetupTimer, Tally, execute, run_rounds

    tally = Tally()
    workload = WORKLOADS[args.workload](args.seed, workdir, in_process=bool(args.trace))
    setup_times, digests = [], []
    for _ in range(1 if args.trace else workload.setup_repeats):
        timer = SetupTimer()
        digests.append(workload.setup(tally, timer.pause))
        timer.pause()
        setup_times.append(timer.scaled_ns / 1e9)
    tally.record(all(d == digests[0] for d in digests), "set-up is deterministic")
    _line({"inputs": digests[0]})

    if args.trace:
        metrics = traced_run(workload, args, tally, workdir)
    else:
        for op in workload.warm_up():
            execute(op, tally)
        samples, scaled, calibration = run_rounds(workload, tally, args.seconds,
                                                  workload.rounds(args.seconds, traced=False))
        _line({"classes": _class_lines(workload, samples)})
        _line({"calibration": {"samples": calibration.samples,
                               "mean_ms": calibration.mean_ms(),
                               "factor": calibration.factor()}})
        metrics = end_to_end(scaled, statistics.median(setup_times))
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ssisim benchmark")
    parser.add_argument("--workload", required=True,
                        choices=["cli-registry", "registry-warm", "paper-flows"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "ssisim" / "__init__.py").is_file():
        print(f"error: no ssisim sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]

    _line({"header": _header(args)})
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    _line(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
