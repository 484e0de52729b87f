"""Benchmark for chainrep: three seeded workloads, closed loop, one caller.

    python3 bench/run.py --workload chain-kernels --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Workloads (see ``workloads.py`` for why each was chosen):

* ``chain-kernels``: equivalence reports, recursion, Choquet supremum and
  chain optima on seeded monotone set functions (library calls).
* ``law-invariant``: spectral, product, domination and attainment
  routes on weighted spaces, and v_mu_set_function with the exchange
  tests at m = 12..14 (library calls).
* ``cli-docs``: ``python -m chainrep.cli`` children on documents written
  at set-up, with run records in a fresh CHAINREP_DATA_DIR per cycle.

One operation is in flight at a time. The run repeats whole cycles of
the workload's operations until the next cycle would end more than half a
cycle past ``--seconds``. Every operation's output is checked.

End-to-end metrics (``--trace 0``): ``ops_per_s`` (operations per second
of time spent inside operations, the checks excluded), ``latency_p50_s``
and ``latency_p90_s`` (per-operation time), ``peak_rss_mb`` (this
process for the library workloads, the largest single child for
``cli-docs``) and ``setup_s`` (median of eleven set-up passes: a fresh
interpreter importing chainrep, input generation, document writing and
warm-up). ``error_rate`` is printed in the summary; the result line
carries it as ``failed`` / ``attempted``.

Times are reported at reference speed. Before each operation the runner
times ``reference()``, a fixed piece of pure-Python work that does not
use chainrep, and scales the operation's wall time by REFERENCE_S over
the median reference time of the 17 operations around it (each set-up
pass by the median of six reference times around that pass). On a shared
2-vCPU virtual machine the speed drifts by 15-20 % over tens of seconds;
the scaling takes most of that out of the spread between runs
(chain-kernels, ten seeds: IQR/median of p90 0.21 from wall times, 0.03
scaled). The summary prints the wall-clock figures as well.

Per-layer metrics (``--trace 1``): the run measures some cycles untraced,
then the same number with spans around the library's public functions
(``spans.py``), and reports per cycle self time and counters per layer,
and per call medians at named ground sizes (``.m<k>``);
``trace.overhead_share`` is the time spent inside operations traced over
the same untraced, minus one.

``correct`` is true when every failed operation is one of the known
defects listed in ``workloads.KNOWN_DEFECTS`` and fails the way that
defect does (exit code, traceback or not, and a fragment of its output);
those still count in ``failed``. ``--self-test`` instead checks that a
deliberately wrong expected answer is counted as a failure, and that a
known-defect operation failing some other way is counted as unexpected,
and exits 0 if both are.

The last line of stdout is the JSON result. The lines before it give
the environment (Python, platform, commit, nproc), the full sha256 of the
generated inputs, the sample counts and every failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from fractions import Fraction

import workloads as wl
from spans import CLI_PHASES, LAYERS, Tracer, outermost, self_times

BENCH = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 11
# Times are reported at the machine speed where one reference() call takes
# this long (see reference()).
REFERENCE_S = 0.001
VERIFY = ("verify_submodular_equivalence", "verify_supermodular_equivalence")


class Context:
    """Paths, the child launcher and the optional tracer shared by the ops."""

    def __init__(self, root: str):
        self.root = root
        self.work = os.path.join(root, ".bench_work", str(os.getpid()))
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.tracer = None
        self.data_dir = os.path.join(self.work, "data")
        self.max_child_kb = 0
        self._seq = 0
        path = os.pathsep.join(p for p in (os.path.join(root, "src"),
                                           os.environ.get("PYTHONPATH")) if p)
        self.env = dict(os.environ, PYTHONPATH=path)
        self._launcher = subprocess.Popen(
            [sys.executable, os.path.join(BENCH, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def child(self, argv: list[str]):
        out, err = (os.path.join(self.work, n) for n in ("stdout", "stderr"))
        env = dict(self.env, CHAINREP_DATA_DIR=self.data_dir)
        self._launcher.stdin.write(json.dumps(
            {"argv": argv, "env": env, "cwd": self.root, "stdout": out,
             "stderr": err}) + "\n")
        self._launcher.stdin.flush()
        reply = self._launcher.stdout.readline()
        if not reply:
            raise RuntimeError("child launcher exited")
        rep = json.loads(reply)
        with open(out, encoding="utf-8", errors="replace") as fo, \
                open(err, encoding="utf-8", errors="replace") as fe:
            return wl.Child(rep["code"], fo.read(), fe.read(), rep["wall_s"],
                            rep["maxrss_kb"])

    def cli(self, args: list[str]):
        """One CLI command in a child; traced through spans.py when tracing."""
        if self.tracer is None:
            child = self.child([sys.executable, "-m", "chainrep.cli", *args])
        else:
            self._seq += 1
            spans = os.path.join(self.work, f"spans-{self._seq}.json")
            child = self.child([sys.executable, os.path.join(BENCH, "spans.py"),
                                spans, "--", *args])
            if os.path.exists(spans):
                with open(spans) as fh:
                    self.tracer.extend(json.load(fh))
                os.remove(spans)
        self.max_child_kb = max(self.max_child_kb, child.maxrss_kb)
        return child

    def import_time(self, module: str) -> float:
        return self.child([sys.executable, "-c", f"import {module}"]).wall_s

    def new_data_dir(self) -> None:
        shutil.rmtree(self.data_dir, ignore_errors=True)
        os.makedirs(self.data_dir)

    def data_bytes(self) -> int:
        return sum(os.path.getsize(os.path.join(d, f))
                   for d, _, files in os.walk(self.data_dir) for f in files)

    def close(self) -> None:
        self._launcher.stdin.close()
        self._launcher.wait(timeout=60)
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass


def build(name: str, api, ctx: Context, seed: int):
    """One set-up pass: generate inputs, write documents, warm up."""
    if name == "chain-kernels":
        ops, digest = wl.chain_kernels(api, seed)
        wl.chain_warmup(api)
    elif name == "law-invariant":
        ops, digest = wl.law_invariant(api, seed)
        wl.law_warmup(api)
    else:
        docs = wl.CliDocs(ctx, seed)
        ops, digest = docs.ops, docs.digest
        ctx.cli(["repro-table", "--no-persist"])
    return ops, digest


def reference() -> None:
    """Fixed pure-Python work, timed before every operation.

    The sandbox's speed drifts by 15-20 % over tens of seconds, which swamps
    wall-clock differences between runs. Each operation's wall time is
    divided by the reference time measured around it (median of 17
    neighbours) and multiplied by REFERENCE_S; the reference code does not
    depend on chainrep, so a change to the library moves only the numerator.
    """
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i % 7, i % 5 + 1)
        if acc > 1000:
            acc -= 1000
    values = list(range(256))
    x = 0
    for i in range(4000):
        x += values[i & 255] * 3 - i % 7


def timed_reference() -> float:
    start = time.perf_counter()
    reference()
    return time.perf_counter() - start


class Tally:
    def __init__(self):
        self.latencies: list[float] = []  # wall seconds per operation
        self.references: list[float] = []  # reference() seconds before each
        self.attempted = 0
        # (label, known defect or None) -> [count, first reason]
        self.failures: dict[tuple[str, str | None], list] = {}
        self.cycles = 0
        self.persist_bytes = 0

    def scaled(self) -> list[float]:
        """Latencies at reference speed."""
        refs = self.references
        return [x * REFERENCE_S / statistics.median(refs[max(0, i - 8):i + 9])
                for i, x in enumerate(self.latencies)]

    @property
    def failed(self) -> int:
        return sum(f[0] for f in self.failures.values())

    @property
    def unexpected(self) -> int:
        return sum(n for (_, defect), (n, _) in self.failures.items() if not defect)

    def count(self, label: str, reason: str, defect: str | None, n: int = 1) -> None:
        self.failures.setdefault((label, defect), [0, reason])[0] += n


def p90(latencies: list[float]) -> float:
    return statistics.quantiles(latencies, n=10)[8]


def run_cycles(ops, ctx: Context, tally: Tally, seconds: float | None = None,
               cycles: int | None = None) -> None:
    start = time.perf_counter()
    done = 0
    while True:
        ctx.new_data_dir()
        for op in ops:
            tally.references.append(timed_reference())
            if ctx.tracer:
                ctx.tracer.on = True
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # judged by the check like any output
                result = exc
            dt = time.perf_counter() - t0
            if ctx.tracer:
                ctx.tracer.on = False
            dt = getattr(result, "wall_s", dt)  # a CLI child: spawn to reap
            tally.latencies.append(dt)
            tally.attempted += 1
            try:
                reason = op.check(result)
            except Exception as exc:
                reason = (f"raised {result!r}" if isinstance(result, Exception)
                          else f"check failed: {exc!r}")
            if reason:
                known = op.defect and wl.KNOWN_DEFECTS[op.defect].matches(result)
                tally.count(op.label, reason, op.defect if known else None)
        tally.persist_bytes += ctx.data_bytes()
        done += 1
        elapsed = time.perf_counter() - start
        if cycles is not None:
            if done >= cycles:
                break
        elif elapsed + elapsed / done / 2 > seconds:
            break
    tally.cycles += done


def end_to_end(tally: Tally, ctx: Context, setup_s: float, cli: bool) -> dict:
    lat = tally.scaled()
    rss_kb = ctx.max_child_kb if cli else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_p90_s": (p90(lat), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(ctx: Context, tally: Tally, untraced_busy: float, startup: float) -> dict:
    """Per cycle self times and counters of the traced cycles, times at
    reference speed; ``untraced_busy`` is the untraced cycles' scaled time."""
    spans, counts, n = ctx.tracer.spans, ctx.tracer.counts, tally.cycles
    own = self_times(spans)
    layer_self = defaultdict(float)
    for s, o in zip(spans, own):
        layer_self[s[1]] += o

    def total(*names):
        return outermost(spans, names) / n

    def median_at(name, m):
        xs = [s[3] - s[2] for s in spans if s[0] == name and s[5] == m and s[6]]
        return statistics.median(xs) if xs else 0.0

    compute = sum(s[3] - s[2] for s in spans
                  if s[1] != "cli" and s[4] >= 0 and spans[s[4]][1] == "cli")
    out = {
        "cli.startup_s": (startup, "s"),
        "cli.parse_s": (total(*CLI_PHASES["parse"]), "s"),
        "cli.compute_s": (compute / n, "s"),
        "cli.emit_s": (total(*CLI_PHASES["emit"]), "s"),
        "cli.persist_s": (total(*CLI_PHASES["persist"]), "s"),
        "cli.persist_bytes": (tally.persist_bytes / n, "bytes"),
        "setfn.is_monotone_s": (total("is_monotone"), "s"),
        "setfn.exchange_s": (total("is_submodular", "is_supermodular"), "s"),
        "setfn.exchange_triples": (counts["setfn.exchange_triples"] / n, "count"),
        "setfn.dual_transform_s": (total("dual_transform"), "s"),
        "chains.subset_sums_s": (total("subset_sums"), "s"),
        "chains.subset_sums_calls": (counts["chains.subset_sums_calls"] / n, "count"),
        "chains.chains_swept": (counts["chains.chains_swept"] / n, "count"),
        "represent.verify_self_s": (sum(o for s, o in zip(spans, own)
                                        if s[0] in VERIFY) / n, "s"),
        "represent.local_core_attainment_s": (total("local_core_attainment"), "s"),
        "represent.sup_over_chains_s": (total("sup_over_chains", "inf_over_chains"), "s"),
        "represent.dp_cells": (counts["represent.dp_cells"] / n, "count"),
        "recursion.steps": (counts["recursion.steps"] / n, "count"),
        "choquet.choquet_s": (total("choquet"), "s"),
        "lawinv.rearrangements": (counts["lawinv.rearrangements"] / n, "count"),
        "lawinv.v_mu_set_function_s": (total("v_mu_set_function"), "s"),
        "lawinv.spectral_check_s": (total("spectral_decomposition_check"), "s"),
        "lawinv.domination_s": (total("domination_report"), "s"),
    }
    for m in (6, 7):
        out[f"represent.verify_s.m{m}"] = (
            statistics.median([median_at(v, m) for v in VERIFY]), "s")
        out[f"choquet.sup_representation_s.m{m}"] = (
            median_at("choquet_sup_representation", m), "s")
    for m in (7, 8):
        out[f"recursion.step_s.m{m}"] = (median_at("recursion_step", m), "s")
        out[f"lawinv.rearrangement_sup_s.m{m}"] = (median_at("rearrangement_sup", m), "s")
    for m in (12, 13, 14):
        out[f"setfn.is_submodular_s.m{m}"] = (median_at("is_submodular", m), "s")
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer] / n, "s")
    factor = REFERENCE_S / statistics.median(tally.references)
    out = {k: (v * factor if u == "s" else v, u) for k, (v, u) in out.items()}
    # Both sums are already at reference speed, so they are not scaled again.
    traced_busy = sum(tally.scaled())
    out["trace.overhead_s"] = ((traced_busy - untraced_busy) / n, "s")
    out["trace.overhead_share"] = (traced_busy / untraced_busy - 1, "ratio")
    return out


def environment(root: str) -> dict:
    commit = "unknown"
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(root, ".git", ref[5:])
            packed = os.path.join(root, ".git", "packed-refs")
            if os.path.exists(path):
                with open(path) as fh:
                    commit = fh.read().strip()
            elif os.path.exists(packed):
                with open(packed) as fh:
                    commit = next((line.split()[0] for line in fh
                                   if line.rstrip().endswith(" " + ref[5:])), ref)
    return {"python": platform.python_version(), "platform": platform.platform(),
            "commit": commit, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0))}


def import_library(root: str):
    src = os.path.join(root, "src")
    if not os.path.exists(os.path.join(src, "chainrep", "__init__.py")):
        raise SystemExit(f"error: no chainrep sources under {src}; run from a checkout root")
    sys.path.insert(0, src)
    import chainrep
    if not os.path.abspath(chainrep.__file__).startswith(os.path.join(src, "")):
        raise SystemExit(f"error: imported chainrep from {chainrep.__file__}, not {src}")
    return chainrep


# Per workload: the kind of operation to plant, and how to tell apart two
# operations of that kind whose expected answers differ.
_PLANTS = {
    "chain-kernels": ("verify_submodular_equivalence", lambda op: "generic" in op.label),
    "law-invariant": ("domination_report", lambda op: "m7" in op.label),
    "cli-docs": ("cli check", lambda op: "generic" in op.label),
}


def self_test(api, ctx: Context) -> int:
    """Check one operation's output against another's expected answer.

    The planted operation runs one input but is judged by the check built
    for a different input, so its expected answer is wrong; the run must
    count it as a failure. Each known-defect operation is also planted with
    another operation's command, which fails, but not the way the defect
    does; the run must count that failure as unexpected.
    """
    status = 0
    for name, (kind, other) in _PLANTS.items():
        ops, _ = build(name, api, ctx, seed=0)
        same = [op for op in ops if op.kind == kind and op.defect is None]
        a = next(op for op in same if not other(op))
        b = next(op for op in same if other(op))
        planted = wl.Op(f"{a.label} judged as {b.label}", kind, a.call, b.check)
        tally = Tally()
        run_cycles([a, planted], ctx, tally, cycles=1)
        ok = tally.failed == 1 and (planted.label, None) in tally.failures
        print(f"self-test {name}: {planted.label}: "
              f"{'counted as a failure' if ok else 'NOT counted as a failure'}")
        status |= not ok
        for d in (op for op in ops if op.defect):
            planted = wl.Op(f"{d.label} failing as {b.label}", d.kind, b.call,
                            d.check, d.defect)
            tally = Tally()
            run_cycles([planted], ctx, tally, cycles=1)
            ok = tally.unexpected == 1
            print(f"self-test {name}: {planted.label}: "
                  f"{'counted as unexpected' if ok else 'NOT counted as unexpected'}")
            status |= not ok
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=("chain-kernels", "law-invariant", "cli-docs"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args(argv)
    if not args.self_test and not args.workload:
        p.error("--workload is required")
    root = os.getcwd()
    api = import_library(root)
    ctx = Context(root)
    try:
        if args.self_test:
            return self_test(api, ctx)
        return run(args, api, ctx, root)
    finally:
        ctx.close()


def run(args, api, ctx: Context, root: str) -> int:
    cli = args.workload == "cli-docs"
    setups, setup_refs = [], []
    for _ in range(SETUP_REPEATS):
        refs = [timed_reference() for _ in range(3)]
        t0 = time.perf_counter()
        ctx.import_time("chainrep.cli" if cli else "chainrep")
        ops, digest = build(args.workload, api, ctx, args.seed)
        setups.append(time.perf_counter() - t0)
        refs += [timed_reference() for _ in range(3)]
        setup_refs.append(statistics.median(refs))
    # Each pass at reference speed, by the reference loop timed around it.
    setup_s = statistics.median(wall * REFERENCE_S / ref
                                for wall, ref in zip(setups, setup_refs))

    tally = Tally()
    if args.trace:
        run_cycles(ops, ctx, tally, seconds=args.seconds / 2)
        startup = statistics.median(ctx.import_time("chainrep.cli") for _ in range(5)) \
            if cli else 0.0
        ctx.tracer = Tracer()
        uninstall = ctx.tracer.install()
        traced = Tally()
        try:
            run_cycles(ops, ctx, traced, cycles=tally.cycles)
        finally:
            uninstall()
        metrics = per_layer(ctx, traced, sum(tally.scaled()), startup)
        tally.attempted += traced.attempted
        for (label, defect), (n, reason) in traced.failures.items():
            tally.count(label, reason, defect, n)
    else:
        run_cycles(ops, ctx, tally, seconds=args.seconds)
        metrics = end_to_end(tally, ctx, setup_s, cli)

    lat = tally.latencies
    cut = p90(lat)
    env = environment(root)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"inputs sha256 {digest}")
    print(f"environment: python {env['python']}  {env['platform']}  "
          f"commit {env['commit']}  nproc {env['nproc']}  "
          f"usable cpus {env['usable_cpus']}")
    print(f"{tally.cycles} untraced cycles of {len(ops)} operations: {len(lat)} samples, "
          f"{sum(x > cut for x in lat)} above p90; setup passes "
          + " ".join(f"{wall:.3f}" for wall in setups) + " s wall")
    print(f"wall clock: {len(lat) / sum(lat):.4g} ops/s, p50 {statistics.median(lat):.4g} s, "
          f"p90 {cut:.4g} s; reference loop median "
          f"{statistics.median(tally.references) * 1e3:.4g} ms (scaled to "
          f"{REFERENCE_S * 1e3:g} ms in the metrics)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    print(f"  {'error_rate':40s} {tally.failed / tally.attempted:14.6g} share "
          f"({tally.failed} of {tally.attempted})")
    for (label, defect), (count, reason) in sorted(tally.failures.items(),
                                                   key=lambda kv: kv[0][0]):
        print(f"  FAILED x{count} {label}: {reason}"
              + (f"  [known defect: {defect}]" if defect else "  [unexpected]"))
    print(json.dumps({
        "correct": tally.unexpected == 0, "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
