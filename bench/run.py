"""sepcat benchmark: one workload, one seed, one closed-loop client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. One client issues one op at a time, in this
process, with no threads: CLI verbs go through sepcat.cli.main in-process
(exit code and stdout captured), library-only paths call the public
functions. Set-up (a fresh import of sepcat plus writing every input file)
is repeated and its median reported. Passes over the workload's ops repeat
until --seconds have elapsed. Every op is checked against bench/oracle.py,
which shares no code with sepcat, and every pass must produce the same
digest of outputs and artifacts.

--trace 0 prints the end-to-end metrics; --trace 1 adds a traced pass and
prints the per-layer metrics (see bench/NOTES.md). The last line of stdout
is one JSON object: correct, attempted, failed, metrics. A readable summary
goes to bench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from collections import Counter, defaultdict

import workloads
from tracing import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 15
PROBE_EVERY_S = 0.25
# About the probe time on a fast 2-vCPU VM with Python 3.11; see Speed.
PROBE_REF_S = 0.003

END_TO_END = [("pass_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]
VERBS = [
    "sep_check", "sep_verify", "module_split", "zelinsky", "criterion",
    "cohomology", "obstruction", "les", "random_coeff", "coeff_cohomology", "coeff_section",
]
SELF_PCT = [
    "exactalg.matmul", "exactalg.solve", "exactalg.kernel", "exactalg.kron",
    "cmod.random_bimodule", "cmod.random_left_module", "cmod.tensor_square", "cmod.kernel_of",
    "cmod.validate_module", "separability.system", "separability.solve", "separability.verify",
    "separability.reduce", "separability.module_section", "separability.zelinsky",
    "cohomology.build", "cohomology.dims", "cohomology.obstruction", "cohomology.les",
    "interchange.load", "interchange.dump", "lincat.validate", "lincat.linearize", "cli",
]
PER_LAYER = (
    [(f"exactalg.rref.{b}.{k}", u) for b in ("Q", "Fp")
     for k, u in (("calls", "count"), ("self_pct", "%"), ("cells", "count"), ("nnz", "count"), ("cache_hits", "count"))]
    + [(f"{name}.self_pct", "%") for name in SELF_PCT]
    + [
        ("exactalg.matmul.calls", "count"), ("exactalg.matmul.mults", "count"),
        ("exactalg.solve.calls", "count"), ("exactalg.kernel.calls", "count"),
        ("cmod.random_bimodule.calls", "count"), ("cmod.random_bimodule.incl_pct", "%"),
        ("cmod.random.draws", "count"), ("cmod.random.accept_ratio", "ratio"),
        ("cmod.random.total_dim", "count"), ("cmod.random.zero_count", "count"),
        ("separability.system.calls", "count"), ("separability.system.rows", "count"),
        ("separability.system.cols", "count"), ("separability.system.calls_per_check", "ratio"),
        ("separability.verify.calls_per_op", "ratio"),
        ("cohomology.ddcheck_pct", "%"), ("cohomology.cochain_cols", "count"),
        ("cohomology.diff_cells", "count"), ("cohomology.diff_nnz", "count"),
        ("lincat.linearize.setup_pct", "%"),
    ]
    + [(f"verb.{v}_pct", "%") for v in VERBS]
    + [("trace.pass_s", "s"), ("trace.overhead_pct", "%")]
)
GENERATORS = ("cmod.random_bimodule", "cmod.random_left_module")
OP_SPANS = ("cli", "op")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


class Speed:
    """Machine-speed calibration of measured times.

    A shared 2-vCPU VM can switch between a fast and a slow state, up to 2x
    apart, within seconds: a fixed exact elimination took 10 ms or 20 ms,
    with process time equal to wall time. No number of passes averages that
    away. So every time reported is scaled by PROBE_REF_S / probe, where
    probe is the best of three runs of a fixed exact elimination over Q and
    F_7 (bench/oracle.py, no sepcat code).

    While active, a SIGALRM interval timer runs the probe every
    PROBE_EVERY_S, also in the middle of an op. clock() excludes the time
    the probes take. A piece of work is scaled by the mean factor of the
    probes from PROBE_EVERY_S before it starts to PROBE_EVERY_S after it
    ends, each probe first replaced by the median of itself and its
    neighbours, so one slow probe is ignored. A change to sepcat cannot
    move the probe, so it moves calibrated times as it moves wall times.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (perf_counter, PROBE_REF_S / probe)
        self._stolen = 0.0
        self._old_handler = None

    def __enter__(self):
        self._sample()
        self._old_handler = signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old_handler)
        return False

    def clock(self) -> float:
        """perf_counter without the time spent in probes."""
        while True:  # retry if a probe ran while reading the two values
            stolen = self._stolen
            now = time.perf_counter()
            if stolen == self._stolen:
                return now - stolen

    def _sample(self) -> None:
        t0 = time.perf_counter()
        probe = min(self._probe() for _ in range(3))
        t1 = time.perf_counter()
        self.samples.append((t1, PROBE_REF_S / probe))
        self._stolen += t1 - t0

    def factor(self, start: float, end: float) -> float:
        """Mean smoothed factor of the probes near [start, end] (perf_counter
        times); the nearest probe when none is that close."""
        f = [x for _, x in self.samples]
        smooth = [statistics.median(f[max(k - 1, 0) : k + 2]) for k in range(len(f))]
        near = [
            x for (t, _), x in zip(self.samples, smooth)
            if start - PROBE_EVERY_S <= t <= end + PROBE_EVERY_S
        ]
        if near:
            return statistics.fmean(near)
        return min(zip(self.samples, smooth), key=lambda s: abs(s[0][0] - start))[1]

    @staticmethod
    def _probe() -> float:
        import oracle

        t0 = time.perf_counter()
        oracle.rank(_PROBE_MATRIX, 0)
        oracle.rank(_PROBE_MATRIX, 7)
        return time.perf_counter() - t0


_PROBE_RNG = random.Random(20)
_PROBE_MATRIX = [[_PROBE_RNG.randint(-9, 9) for _ in range(14)] for _ in range(14)]


def set_up(workload_fn, workdir, seed, speed, tracer=None):
    """Fresh import of sepcat plus every input file. Returns (ops, sepcat,
    (start, end, seconds)): perf_counter bounds and probe-free seconds."""
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    gc.collect()
    p0, c0 = time.perf_counter(), speed.clock()
    sepcat = workloads.import_sepcat()
    if tracer is None:
        ops = workload_fn(workdir, seed)
    else:
        tracer.install()
        try:
            with tracer.span("setup"):
                ops = workload_fn(workdir, seed)
        finally:
            tracer.remove()
    return ops, sepcat, (p0, time.perf_counter(), speed.clock() - c0)


def run_pass(ops, on_result, speed, tracer=None):
    """Run every op once, in order, calling on_result(index, (code, output,
    artifact)) after each, outside its timing. Returns each op's
    (start, end, seconds): perf_counter bounds and probe-free seconds."""
    gc.collect()
    times = []
    for i, op in enumerate(ops):
        p0, c0 = time.perf_counter(), speed.clock()
        try:
            if tracer is None:
                op.run()
            else:
                with tracer.span(op.kind, instance=op.instance, verb=op.verb, label=op.label):
                    op.run()
            c1 = speed.clock()
            result = op.output()
        except Exception as exc:  # an op that crashes is a failed op, not a crashed benchmark
            c1 = speed.clock()
            result = (-1, f"{type(exc).__name__}: {exc}", b"")
        times.append((p0, time.perf_counter(), c1 - c0))
        on_result(i, result)
    return times


def calibrated(speed, timing) -> float:
    start, end, seconds = timing
    return seconds * speed.factor(start, end)


def digest(result) -> str:
    code, out, art = result
    h = hashlib.sha256()
    h.update(str(code).encode() + b"\0" + out.encode() + b"\0" + art)
    return h.hexdigest()


class Checker:
    """Oracle verdicts and the determinism digest, per op execution.

    The first execution of an op fixes its reference digest; a later one
    that differs is a failure. Verdicts are cached by digest, so an output
    seen before is not checked twice."""

    def __init__(self, ops):
        self.ops = ops
        self.reference: list = [None] * len(ops)
        self.verdicts: dict = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, i, result, what="output"):
        op = self.ops[i]
        d = digest(result)
        errors = []
        if self.reference[i] is None:
            self.reference[i] = d
        elif d != self.reference[i]:
            errors.append(f"{what} differs from the first run of this op")
        if (i, d) not in self.verdicts:
            self.verdicts[(i, d)] = op.check(*result)
        errors += self.verdicts[(i, d)]
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors += [f"{op.instance} | {op.label} | {e}" for e in errors]


def layer_metrics(spans, traced_s, untraced_s, verb_s, setup_spans, ops):
    """Per-layer numbers from one traced pass. Shares are of the traced pass's
    own span time; traced_s and untraced_s are calibrated pass times."""
    span_total = sum(s.duration for s in spans if s.name in OP_SPANS and s.parent is None)
    pct = lambda v: 100.0 * v / span_total
    m = {name: 0 for name, _ in PER_LAYER}
    selfs, calls = defaultdict(float), Counter()
    for s in spans:
        selfs[s.name] += s.self_time
        calls[s.name] += 1
        a = s.attrs
        if s.name == "exactalg.rref" and "backend" in a:
            b = a["backend"]
            m[f"exactalg.rref.{b}.calls"] += 1
            m[f"exactalg.rref.{b}.self_pct"] += pct(s.self_time)
            if a["cache_hit"]:
                m[f"exactalg.rref.{b}.cache_hits"] += 1
            else:
                m[f"exactalg.rref.{b}.cells"] += a["shape"][0] * a["shape"][1]
                m[f"exactalg.rref.{b}.nnz"] += a["nnz"]
        elif s.name == "exactalg.matmul":
            m["exactalg.matmul.mults"] += a.get("mults", 0)
            if s.parent is not None and s.parent.name == "cohomology.build":
                m["cohomology.ddcheck_pct"] += pct(s.duration)
        elif s.name == "cohomology.build":
            for key in ("cochain_cols", "diff_cells", "diff_nnz"):
                m[f"cohomology.{key}"] += a.get(key, 0)
        elif s.name == "separability.system":
            rows, cols = a.get("shape", (0, 0))
            m["separability.system.rows"] += rows
            m["separability.system.cols"] += cols
        elif s.name == "cmod.random_bimodule":
            m["cmod.random_bimodule.incl_pct"] += pct(s.duration)
            m["cmod.random.total_dim"] += sum(a.get("dims", ()))
            m["cmod.random.zero_count"] += not any(a.get("dims", ()))
        elif s.name in ("cmod.kernel_of", "cmod.left_kernel") and s.ancestor(GENERATORS):
            m["cmod.random.draws"] += 1
            m["cmod.random.accept_ratio"] += max(a.get("dims", ()), default=0) <= workloads.DIM_CAP
    if m["cmod.random.draws"]:
        m["cmod.random.accept_ratio"] /= m["cmod.random.draws"]
    for name in SELF_PCT:
        m[f"{name}.self_pct"] = pct(selfs[name])
    for name in ("exactalg.matmul", "exactalg.solve", "exactalg.kernel", "cmod.random_bimodule", "separability.system"):
        m[f"{name}.calls"] = calls[name]
    verbs = Counter(op.verb for op in ops)
    within = Counter()
    for s in spans:
        if s.name in ("separability.system", "separability.verify"):
            op = s.ancestor(OP_SPANS)
            within[(s.name, op.attrs["verb"] if op else None)] += 1
    if verbs["sep_check"]:
        m["separability.system.calls_per_check"] = within[("separability.system", "sep_check")] / verbs["sep_check"]
    verify_ops = verbs["module_split"] + verbs["zelinsky"]
    if verify_ops:
        m["separability.verify.calls_per_op"] = (
            within[("separability.verify", "module_split")] + within[("separability.verify", "zelinsky")]
        ) / verify_ops
    linearize = sum(s.self_time for s in setup_spans if s.name == "lincat.linearize")
    setup_total = sum(s.duration for s in setup_spans if s.name == "setup")
    m["lincat.linearize.setup_pct"] = 100.0 * linearize / setup_total
    for v in VERBS:
        m[f"verb.{v}_pct"] = 100.0 * verb_s.get(v, 0.0) / untraced_s
    m["trace.pass_s"] = traced_s
    m["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return m


def slowest_stages(spans):
    """The library span with the largest self time under each instance's ops."""
    best = {}
    for s in spans:
        if s.name in OP_SPANS:
            continue
        op = s.ancestor(OP_SPANS)
        if op is None:
            continue
        inst = op.attrs["instance"]
        if inst not in best or s.self_time > best[inst][0].self_time:
            best[inst] = (s, op)
    return {
        inst: {
            "stage": s.name,
            "self_s": s.self_time,
            "op": op.attrs["label"],
            **{k: v for k, v in s.attrs.items() if k in ("backend", "shape", "nnz", "mults")},
        }
        for inst, (s, op) in best.items()
    }


def rank_gap(spans, probe_spans):
    """Largest Q rref under the Z5 degree-3 op against the largest F_p rref of the probe."""
    def largest(candidates):
        rrefs = [s for s in candidates if s.name == "exactalg.rref" and s.attrs.get("cache_hit") is False]
        return max(rrefs, key=lambda s: s.attrs["shape"][0] * s.attrs["shape"][1], default=None)

    def is_z5_degree3(s):
        op = s.ancestor(OP_SPANS)
        return op is not None and op.attrs["instance"] == "Z5" and "canonical --max-degree 3" in op.attrs["label"]

    q = largest(s for s in spans if is_z5_degree3(s))
    fp = largest(probe_spans)
    if q is None or fp is None:
        return None
    return {"shape": q.attrs["shape"], "Q_s": q.self_time, "Fp_s": fp.self_time, "ratio": q.self_time / fp.self_time}


def environment(sepcat, seed):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "scalar_backend": type(sepcat.QQ.one).__name__,
        "python": platform.python_version(),
        "nproc": nproc,
        "seed": seed,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sepcat", "__init__.py")):
        print(f"sepcat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    workdir = os.path.join(OUT, "work", f"{args.workload}-{os.getpid()}")
    try:
        return run(args, build, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, build, workdir, speed):
    """Set-up, passes and the optional traced pass; None if sepcat came from
    outside the checkout."""
    setup_tracer = Tracer(speed.clock)
    if args.trace:
        set_up(build, workdir, args.seed, speed, setup_tracer)
    setup_timings = []
    for _ in range(SETUP_REPEATS):
        ops, sepcat, timing = set_up(build, workdir, args.seed, speed)
        setup_timings.append(timing)
    if not sepcat.__file__.startswith(SRC + os.sep):
        print(f"imported sepcat from {sepcat.__file__}, not from {SRC}", file=sys.stderr)
        return None

    checker = Checker(ops)
    budget = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    passes = []
    while not passes or time.perf_counter() - start < budget:
        passes.append(run_pass(ops, checker, speed))
    traced = None
    if args.trace:
        tracer = Tracer(speed.clock)
        tracer.install()
        try:
            traced = run_pass(ops, lambda i, r: checker(i, r, "traced output"), speed, tracer)
        finally:
            tracer.remove()
        probe_tracer = Tracer(speed.clock)
        if args.workload in workloads.PROBES:
            probe = workloads.PROBES[args.workload]()
            probe_tracer.install()
            try:
                probe()
            finally:
                probe_tracer.remove()

    # calibrate only now, so every op has probes on both sides
    cal = [[calibrated(speed, t) for t in p] for p in passes]
    setups = [calibrated(speed, t) for t in setup_timings]
    op_s = [statistics.median(p[i] for p in cal) for i in range(len(ops))]
    pass_s = sum(op_s)
    verb_s = defaultdict(float)
    for op, t in zip(ops, op_s):
        verb_s[op.verb] += t
    summary = {
        "workload": args.workload,
        "environment": environment(sepcat, args.seed),
        "passes": len(passes),
        "ops_per_pass": len(ops),
        "pass_s": pass_s,
        "setup_s_all": setups,
        "verb_s": dict(verb_s),
        "ops": [{"instance": op.instance, "label": op.label, "median_s": t} for op, t in zip(ops, op_s)],
        "raw_s": [[t[2] for t in p] for p in passes],
        "calibrated_s": cal,
        "probe_factors": [f for _, f in speed.samples],
    }
    if traced is None:
        metrics = {
            "pass_s": pass_s,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        return summary, metrics, dict(END_TO_END), checker, passes, ops
    traced_s = sum(calibrated(speed, t) for t in traced)
    if probe_tracer.spans:
        summary["rank_gap_z5_d3"] = rank_gap(tracer.spans, probe_tracer.spans)
    metrics = layer_metrics(tracer.spans, traced_s, pass_s, verb_s, setup_tracer.spans, ops)
    summary["slowest_stage"] = slowest_stages(tracer.spans)
    summary["layers_s"] = {
        name: sum(s.self_time for s in tracer.spans if s.name == name)
        for name in sorted({s.name for s in tracer.spans})
    }
    summary["tracing_overhead_s"] = traced_s - pass_s
    return summary, metrics, dict(PER_LAYER), checker, passes, ops


def run(args, build, workdir) -> int:
    with Speed() as speed:
        measured = measure(args, build, workdir, speed)
    if measured is None:
        return 2
    summary, metrics, units, checker, passes, ops = measured
    run_digest = hashlib.sha256("".join(checker.reference).encode()).hexdigest()
    summary["digest"] = run_digest
    errors = checker.errors + check_across_runs(args.workload, args.seed, run_digest)
    attempted, failed_ops = checker.attempted, checker.failed
    summary["errors"] = errors
    summary["error_rate"] = failed_ops / attempted
    write_summary(args, summary)

    print(f"# workload {args.workload}  seed {args.seed}  passes {len(passes)}  ops/pass {len(ops)}  "
          f"backend {summary['environment']['scalar_backend']}  python {summary['environment']['python']}  "
          f"nproc {summary['environment']['nproc']}")
    print(f"# error_rate {failed_ops}/{attempted}  digest {run_digest[:16]}")
    for e in errors[:20]:
        print(f"# error: {e}")
    for v, seconds in summary["verb_s"].items():
        print(f"# verb {v:<17} {seconds:.4f} s")
    for inst, rec in summary.get("slowest_stage", {}).items():
        print(f"# slowest {inst:<14} {rec['stage']:<28} {rec['self_s']:.4f} s  {rec.get('backend', '')} "
              f"{rec.get('shape', '')} nnz={rec.get('nnz', '')}")
    if args.trace:
        print(f"# tracing overhead {summary['tracing_overhead_s']:.3f} s ({metrics['trace.overhead_pct']:.1f}% of the untraced pass)")
        if metrics["cmod.random_bimodule.calls"]:
            print(f"# random_bimodule {metrics['cmod.random_bimodule.incl_pct']:.1f}% of the traced pass (inclusive), "
                  f"draws {metrics['cmod.random.draws']}, accepted {metrics['cmod.random.accept_ratio']:.2f}, "
                  f"zero bimodules {metrics['cmod.random.zero_count']}/{metrics['cmod.random_bimodule.calls']}, "
                  f"total dim {metrics['cmod.random.total_dim']}")
    if summary.get("rank_gap_z5_d3"):
        g = summary["rank_gap_z5_d3"]
        print(f"# Z5 d^3 rref {g['shape']}: Q {g['Q_s']:.3f} s, F7 {g['Fp_s']:.3f} s, ratio {g['ratio']:.1f}")
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


def check_across_runs(workload, seed, run_digest):
    """A second run of the same workload and seed must reproduce the digest."""
    path = os.path.join(OUT, "digests", f"{workload}-seed{seed}.sha256")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            if fh.read().strip() != run_digest:
                return [f"run: digest differs from an earlier run with seed {seed}"]
        return []
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(run_digest + "\n")
    return []


def write_summary(args, summary):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, default=str)


if __name__ == "__main__":
    sys.exit(main())
