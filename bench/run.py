"""texmathc benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload corpus_convert --seed 1 --seconds 30 --trace 0

Run from a texmathc source checkout; the package is imported from ``src/``.
Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run alternates untraced and traced passes and reports the
per-layer ones (see bench/README.md for the map between the two).

End-to-end times are given at a reference machine speed: a fixed
pure-Python kernel is timed between operations, and every latency and
set-up time is scaled by how much slower or faster that kernel ran next to
it than on the reference machine (see ``SpeedScale``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/texmathc/__init__.py", "corpora/combined_423.json",
            "corpora/mhchem_conformance.json", "corpora/two_renderer.json",
            "tests/oracles.py")
SETUP_TRIALS = 11
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import texmathc\n"
    "texmathc.default_registry()\n"
    "print(time.perf_counter() - t)\n"
)

# Speed probe: the kernel's rounds and its time at the reference speed.
PROBE_ROUNDS = 120
PROBE_REF_NS = 6_000_000
_PROBE_TEXT = (r"\frac{a_{1}+b^{2}}{\sqrt{x_{3}}} + \sum_{i=0}^{n} \alpha_{i} \cdot y^{(i)}"
               r" - \left( z_{k} \right) \int_{0}^{1} f(t)\,dt = \mathrm{e}^{i\pi} + 1")
_PROBE_TOKEN = re.compile(r"\\[A-Za-z]+|\\.|[{}^_]|\d+|[A-Za-z]|\S")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "peak_rss_mib": "MiB", "ok_ratio": "ratio"}
# Spans whose mean self time per operation is reported as <span>.self_ms.
SELF_MS = (
    "mhchem.preprocess", "parser.tokenize", "parser.byte_offsets", "parser.parse",
    "parser.render_tex", "generator.to_mathml", "intent.apply_intent",
    "mathml.serialize", "mathml.from_xml", "pipeline.convert_formula",
    "pipeline.check_formula", "cache.key_for", "cache.get", "cache.put",
    "similarity.normalize", "similarity.ted", "similarity.fscore",
    "similarity.batch_compare",
)
# Spans whose calls per pass are reported as <span>.calls.
CALLS = ("mhchem.preprocess", "parser.parse", "cache.get", "cache.put",
         "similarity.normalize")
# Trace counters reported per pass under their own name.
TRACE_COUNTS = ("parser.tokens", "mathml.nodes_out", "mathml.bytes_out",
                "cache.bytes_written", "similarity.ted.node_pairs")
# Exact output counts of one pass, checked equal on every pass of a run.
OUTPUT_COUNTS = ("mathml_bytes", "mathml_nodes", "cache_entries", "cache_bytes",
                 "cache_hits", "ted_sum", "diag.E_UNKNOWN_COMMAND", "diag.W_DEPRECATED")
PER_LAYER = (
    ("registry.load_ms",)
    + tuple(f"{name}.self_ms" for name in SELF_MS)
    + tuple(f"{name}.calls" for name in CALLS)
    + TRACE_COUNTS
    + ("mhchem.expansion_ratio", "cache.hit_ratio", "trace_overhead_ratio",
       "trace.op_ms", "trace.unattributed_ms")
    + tuple(f"out.{name}" for name in OUTPUT_COUNTS)
)


def pin_to_one_cpu() -> int | None:
    """Keep this process and its children on one CPU.

    On a small VM, a single-threaded loop that migrates between vCPUs reads
    up to 25 % slower or faster from one run to the next; pinned, the spread
    stays within a few percent.  The last permitted CPU is chosen because
    the first usually carries more of the system's own work.
    """
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe_kernel() -> int:
    """Time (ns) of a fixed pure-Python job shaped like the package's work.

    It tokenizes a TeX string with a regex, groups the tokens into nested
    lists, walks them with a dict of counts and joins markup strings.  It
    uses no texmathc code, so a change to the package leaves it alone.
    """
    start = perf_counter_ns()
    for _ in range(PROBE_ROUNDS):
        stack: list[list] = [[]]
        for token in _PROBE_TOKEN.findall(_PROBE_TEXT):
            if token == "{":
                stack.append([])
            elif token == "}":
                group = stack.pop()
                stack[-1].append(group)
            else:
                stack[-1].append(token)
        seen: dict[str, int] = {}
        parts = []
        todo = [stack[0]]
        while todo:
            for item in todo.pop():
                if isinstance(item, list):
                    todo.append(item)
                    parts.append("<mrow>")
                else:
                    seen[item] = seen.get(item, 0) + 1
                    parts.append(f"<mi>{item}</mi>")
        "".join(parts)
    return perf_counter_ns() - start


class SpeedScale:
    """Operation latencies scaled to the reference machine speed.

    On the small VMs this benchmark runs on, a plain Python loop runs at
    one of two speeds about 1.8x apart and switches between them every few
    seconds to minutes; with raw times, that set most of the spread
    between runs.  So the
    probe kernel is timed at least every `every_ns`, between operations
    and outside their timing, and each latency recorded between two probes
    is scaled by PROBE_REF_NS / (mean of the two probe times).  A change to
    the package moves the scaled figures by the same share as the raw ones.
    Scaled latencies are kept as 4-byte floats, so the benchmark's own
    share of peak_rss_mib is 4 bytes per timed operation.
    """

    def __init__(self, every_ns: int):
        self.every_ns = every_ns
        self.scaled = array("f")
        self.raw_ns = 0
        self.probes: list[int] = []
        self._pending = array("q")
        self._last = probe_kernel()
        self._probed_at = perf_counter_ns()

    def append(self, ns: int) -> None:
        self._pending.append(ns)
        if perf_counter_ns() - self._probed_at >= self.every_ns:
            self.probe()

    def probe(self) -> None:
        ns = probe_kernel()
        self.probes.append(ns)
        if self._pending:
            factor = 2 * PROBE_REF_NS / (self._last + ns)
            self.scaled.extend(latency * factor for latency in self._pending)
            self.raw_ns += sum(self._pending)
            self._pending = array("q")
        self._last = ns
        self._probed_at = perf_counter_ns()


def setup_trial(into: list[float]) -> None:
    """Time `import texmathc` + first default_registry() in a fresh process.

    The time is scaled like an operation's, by probes just before and after.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    before = probe_kernel()
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    after = probe_kernel()
    into.append(float(done.stdout) * 2 * PROBE_REF_NS / (before + after))


class Loop:
    """Closed loop, one client: whole passes until the time is used up."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: Counter = Counter()  # op id -> failed executions
        self.messages: dict[str, str] = {}
        self.problems: list[str] = []
        self.pass_counts: list[dict] = []

    def run_pass(self, latencies) -> None:
        workload = self.workload
        workload.begin_pass()
        for op in workload.ops:
            start = perf_counter_ns()
            try:
                out = op.call()
                error = None
            except Exception as exc:  # any exception is a failed operation
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            latencies.append(perf_counter_ns() - start)
            if error is None:
                error = op.check(out)
            if error is not None:
                self.failures[op.id] += 1
                self.messages.setdefault(op.id, error)
        self.attempted += len(workload.ops)
        self.problems += workload.end_pass()
        self.pass_counts.append(dict(workload.counts))

    def run(self, seconds: float, latencies, between, times: int) -> int:
        """Whole passes into `latencies` until `seconds` are used; the pass count.

        `between` is called `times` times, spread evenly over the run and
        always between passes, outside every operation's timing.
        """
        passes = done = 0
        start = perf_counter()
        while True:
            elapsed = perf_counter() - start
            if passes and elapsed >= seconds:
                break
            if done < times and elapsed >= done * seconds / times:
                between()
                done += 1
            self.run_pass(latencies)
            passes += 1
        for _ in range(done, times):
            between()
        return passes


def summarize(latencies, passes: int, tail_pct: float) -> dict:
    """Throughput over the time spent inside operations; latencies pool every pass."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = max(1, math.ceil(tail_pct / 100 * n))
    busy = math.fsum(ordered)
    return {
        "ops_per_s": n / (busy / 1e9),
        "op_p50_ms": statistics.median(ordered) / 1e6,
        "op_tail_ms": ordered[rank - 1] / 1e6,
        "samples": n,
        "beyond": n - rank,
        "passes": passes,
        "busy_ns": busy,
    }


def registry_load_ms(trials: int = 5) -> float:
    """Median in-process time of a cold default_registry() call."""
    from texmathc import registry

    load = registry.default_registry
    values = []
    for _ in range(trials):
        getattr(load, "cache_clear", lambda: None)()
        start = perf_counter()
        load()
        values.append((perf_counter() - start) * 1e3)
    return statistics.median(values)


def per_layer_metrics(tracer, stats: dict, untraced_ops_per_s: float, counts: dict) -> dict:
    """Self times per operation, counts per pass, ratios as they are."""
    per_op_ms = 1e-6 / stats["samples"]
    passes = stats["passes"]
    values = {"registry.load_ms": registry_load_ms()}
    for name in SELF_MS:
        values[f"{name}.self_ms"] = tracer.self_ns[name] * per_op_ms
    for name in CALLS:
        values[f"{name}.calls"] = tracer.calls[name] / passes
    for name in TRACE_COUNTS:
        values[name] = tracer.counts[name] / passes
    bytes_in = tracer.counts["mhchem.bytes_in"]
    values["mhchem.expansion_ratio"] = tracer.counts["mhchem.bytes_out"] / bytes_in if bytes_in else 0.0
    gets = tracer.calls["cache.get"]
    values["cache.hit_ratio"] = tracer.counts["cache.hits"] / gets if gets else 0.0
    values["trace_overhead_ratio"] = stats["ops_per_s"] / untraced_ops_per_s
    values["trace.op_ms"] = stats["busy_ns"] * per_op_ms
    values["trace.unattributed_ms"] = (stats["busy_ns"] - sum(tracer.self_ns.values())) * per_op_ms
    for name in OUTPUT_COUNTS:
        values[f"out.{name}"] = counts.get(name, 0)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a texmathc source checkout; missing "
              + ", ".join(missing), file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              + ", ".join(workloads.WORKLOADS), file=sys.stderr)
        return 2
    known = set(json.loads((HERE / "baseline.json").read_text("utf-8"))
                ["known_failures"].get(args.workload, []))

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    workload = None
    try:
        factory = workloads.WORKLOADS[args.workload]
        workload = (factory(args.seed, workdir) if factory is workloads.CacheMixed
                    else factory(args.seed))
        return run(args, workload, known)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it


def run(args, workload, known: set[str]) -> int:
    cpu = pin_to_one_cpu()
    loop = Loop(workload)
    warmups = 0
    start = perf_counter()
    while not warmups or perf_counter() - start < workload.warmup_s:
        loop.run_pass([])  # untimed warm-up
        warmups += 1
    print(f"workload {workload.name}  seed {args.seed}  {len(workload.ops)} ops per pass"
          f"  pinned to cpu {cpu}")

    tracer = None
    if args.trace:
        from spans import Tracer

        # Untraced and traced passes alternate, so both see the same machine
        # and file-system conditions and their ratio is the trace's cost.
        tracer = Tracer()
        plain = array("q")
        timed = array("q")
        passes = 0
        start = perf_counter()
        while not passes or perf_counter() - start < args.seconds:
            loop.run_pass(plain)
            tracer.install()
            try:
                loop.run_pass(timed)
            finally:
                tracer.uninstall()
            passes += 1
        untraced = summarize(plain, passes, workload.tail_pct)
    else:
        setup_times: list[float] = []
        scale = SpeedScale(workload.probe_every_ns)
        passes = loop.run(args.seconds, scale, lambda: setup_trial(setup_times), SETUP_TRIALS)
        scale.probe()
        timed = scale.scaled
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    stats = summarize(timed, passes, workload.tail_pct)
    del timed

    for op_id, message, times in workload.finish():
        loop.failures[op_id] += times
        loop.messages.setdefault(op_id, message)

    counts = loop.pass_counts[0]
    drift = [i for i, c in enumerate(loop.pass_counts) if c != counts]
    if drift:
        loop.problems.append(f"output counts differ between passes (first at pass {drift[0]})")
    failed = sum(loop.failures.values())
    unexpected = sorted(set(loop.failures) - known)
    correct = not loop.problems and not unexpected

    kind = "traced" if tracer else "timed"
    untraced_passes = f" + {stats['passes']} untraced" if tracer else ""
    print(f"passes {stats['passes']} {kind}{untraced_passes} + {warmups} warm-up; "
          f"{stats['samples']} {kind} ops")
    print("output counts per pass: " + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    print(f"op_tail_ms is p{workload.tail_pct:g} of {stats['samples']} samples "
          f"({stats['beyond']} beyond it)")
    if tracer is None:
        probes = statistics.median(scale.probes)
        print(f"speed probe: {len(scale.probes)} probes, median {probes / 1e6:.3f} ms "
              f"against {PROBE_REF_NS / 1e6:g} ms at the reference speed; unscaled "
              f"ops_per_s {stats['samples'] / (scale.raw_ns / 1e9):.1f}")
    print(f"fail_ratio {failed / loop.attempted:.6f} ({failed} of {loop.attempted} "
          f"attempted)")
    known_hit = sorted(set(loop.failures) & known)
    if known_hit:
        print(f"known failures ({len(known_hit)} ops): " + " ".join(known_hit))
    for op_id in unexpected[:20]:
        print(f"UNEXPECTED FAILURE {op_id}: {loop.messages[op_id]}")
    for problem in loop.problems:
        print(f"PROBLEM {problem}")

    if tracer is not None:
        if tracer.absent:
            print("absent trace targets: " + " ".join(tracer.absent))
        values = per_layer_metrics(tracer, stats, untraced["ops_per_s"], counts)
        units = {name: unit_of(name) for name in PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": stats["ops_per_s"],
            "op_p50_ms": stats["op_p50_ms"],
            "op_tail_ms": stats["op_tail_ms"],
            "peak_rss_mib": peak_rss_mib,
            "ok_ratio": 1 - failed / loop.attempted,
        }
        units = END_TO_END
    for name, value in values.items():
        print(f"{name:34s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("ratio"):
        return "ratio"
    if "bytes" in name:
        return "B"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
