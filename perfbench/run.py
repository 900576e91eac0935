"""Benchmark of the ptcs package: four closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload verify-suite --seed 1 --seconds 20 --trace 0

Workloads: verify-suite, states-dim120, states-dim2000, cli-mix (see
README.md).  One process, one client: the next operation starts when the
previous one has finished.  Every operation's output is checked, outside
the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
input twice, untraced and then with every public ``ptcs`` function wrapped
(see tracer.py); it reports per-layer self time, call counts and computed
bytes per operation, the tracing overhead, and fails the run if a traced
output differs from the untraced one.

The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

import argparse
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 5
WORKLOADS = ("verify-suite", "states-dim120", "states-dim2000", "cli-mix")
CHECK_NAMES = (
    "displacement-equivalence", "cn-triple-agreement", "pi-recursion", "cn-ode",
    "kp-identity", "kp-reconstruction", "gk-measure-index", "gk-identity",
    "gk-action", "temporal-stability",
)
IMPORT_PROBE = "import time; t = time.perf_counter(); import ptcs; print(time.perf_counter() - t)"

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"),
)


# per-layer metric -> how it is computed from the traced operations; every
# value is per operation (mean over the traced operations)
PER_LAYER = {
    "specfun.self_ms": ("layer", "specfun"),
    "specfun.bessel_k.calls": ("calls", "specfun.bessel_k"),
    "specfun.bessel_k.self_ms": ("self", "specfun.bessel_k"),
    "specfun.log_gamma.calls": ("calls", "specfun.log_gamma"),
    "specfun.log_gamma.self_ms": ("self", "specfun.log_gamma"),
    "specfun.bessel_i.calls": ("calls", "specfun.bessel_i"),
    "specfun.bessel_i.self_ms": ("self", "specfun.bessel_i"),
    "specfun.jacobi_fn_ss.self_ms": ("self", "specfun.jacobi_fn_ss"),
    "specfun.jacobi_poly_all.self_ms": ("self", "specfun.jacobi_poly_all"),
    "operators.self_ms": ("layer", "operators"),
    "operators.build_matrices.calls": ("calls", "operators.build_matrices"),
    "operators.build_matrices.self_ms": ("self", "operators.build_matrices"),
    "operators.build_matrices.bytes": ("bytes", "operators.build_matrices"),
    "operators.variance_pair.self_ms": ("self", "operators.variance_pair"),
    "states.self_ms": ("layer", "states"),
    "states.kp_coefficients.self_ms": ("self", "states.kp_coefficients"),
    "states.gk_coefficients.self_ms": ("self", "states.gk_coefficients"),
    "states.is_coefficients.self_ms": ("self", "states.is_coefficients"),
    "states.gk_annihilation_residual.self_ms": ("self", "states.gk_annihilation_residual"),
    "states.evolve_coefficients.self_ms": ("self", "states.evolve_coefficients"),
    "states.flagged_frac": ("outcome", "flagged_frac"),
    "position.self_ms": ("layer", "position"),
    "position.eigenfunction_table.self_ms": ("self", "position.eigenfunction_table"),
    "position.eigenfunction_table.bytes": ("bytes", "position.eigenfunction_table"),
    "position.norm_constant.calls": ("calls", "position.norm_constant"),
    "position.gauss_legendre_grid.self_ms": ("self", "position.gauss_legendre_grid"),
    "verify.self_ms": ("layer", "verify"),
    **{f"verify.check.{name}.ms": ("check", name) for name in CHECK_NAMES},
    "verify.pi_table.calls": ("calls", "verify.pi_table"),
    "verify.pi_table.self_ms": ("self", "verify.pi_table"),
    "verify.cn_series.calls": ("calls", "verify.cn_series"),
    "verify.gk_moment_oracle.calls": ("calls", "verify.gk_moment_oracle"),
    "verify.taylor_expm_apply.self_ms": ("self", "verify.taylor_expm_apply"),
    "verify.checks_failed": ("outcome", "checks_failed"),
    "cli.interpreter_ms": ("self", "child.interpreter"),
    "cli.import_ms": ("self", "child.import"),
    "cli.self_ms": ("layer", "cli"),
    "cli.output_bytes": ("bytes", "child.output"),
    "bench.self_ms": ("layer", "bench"),
    "trace.op_ms": ("trace", "op_ms"),
    "trace.overhead_ms": ("trace", "overhead_ms"),
}
LAYERS = ("specfun", "operators", "states", "position", "verify", "cli")


def _single_thread_blas():
    """One BLAS thread, inherited by child processes too.

    With one thread per core, OpenBLAS's spinning workers compete with the
    load generator and made the dim-2000 timings about twice as noisy.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def _blas_threads(np):
    """Threads of numpy's bundled OpenBLAS, or the requested count if unreadable."""
    import ctypes

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return fn()
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
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
    return "unknown (not a git checkout)"


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted((SRC / "ptcs").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _percentile(latencies, pct):
    """Linear interpolation between order statistics, as the median uses."""
    xs = sorted(latencies)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])


def _setup_once(wl, workloads, child_env):
    """Import (timed in a fresh interpreter), input generation and warm-up."""
    probe = workloads.run_child([sys.executable, "-c", IMPORT_PROBE], str(ROOT), child_env)
    if probe.returncode != 0:
        raise RuntimeError(f"import ptcs failed: {probe.stderr.decode()[-500:]}")
    t0 = time.perf_counter()
    wl.prepare()
    wl.warm_up()
    return float(probe.stdout) + time.perf_counter() - t0


class LoopResult:
    def __init__(self):
        self.latencies = []
        self.digests = []  # paired_loop only
        self.profiles = []
        self.errors = []  # (op index, why it failed)
        self.built = 0  # checked ops that build a state
        self.flagged = 0  # ... of which report under-truncation
        self.checks_failed = 0  # verify checks that did not pass
        self.max_child_rss_kb = 0
        self.elapsed = 0.0


def closed_loop(wl, seconds, run):
    """Run operations back to back for `seconds` of timed work, checking each.

    Input generation and output checks pause the clock.  The loop stops
    only at the end of a block of inputs, so every run sees the balanced
    mix the blocks are drawn to have.
    """
    res = LoopResult()
    clock = time.perf_counter
    paused = 0.0
    start = clock()
    i = 0
    while True:
        if i % wl.block == 0 and i > 0 and clock() - start - paused >= seconds:
            break
        g0 = clock()
        inp = wl.input(i)
        t0 = clock()
        paused += t0 - g0
        try:
            out = run(inp)
        except Exception as exc:  # a failed operation is counted, not fatal
            t1 = clock()
            res.errors.append((i, f"raised {exc!r}"))
        else:
            t1 = clock()
            res.max_child_rss_kb = max(res.max_child_rss_kb, getattr(out, "maxrss_kb", 0))
            _check(wl, res, i, inp, out)
        res.latencies.append(t1 - t0)
        paused += clock() - t1
        i += 1
    res.elapsed = clock() - start - paused
    return res


def paired_loop(wl, seconds, tracer):
    """Run each input untraced and then traced, for `seconds` of timed work.

    Both runs of an input see the same host load, so the difference of
    their medians is the tracing overhead.  Only the untraced output is
    checked; the traced one must have the same digest.
    """
    plain, traced = LoopResult(), LoopResult()
    clock = time.perf_counter
    i = 0
    while i % wl.block or i == 0 or plain.elapsed + traced.elapsed < seconds:
        inp = wl.input(i)
        for res, tracing in ((plain, False), (traced, True)):
            if tracing:
                tracer.install()
            t0 = clock()
            try:
                out, profiles = wl.traced_op(inp, tracer) if tracing else (wl.op(inp), ())
            except Exception as exc:  # a failed operation is counted, not fatal
                t1 = clock()
                res.errors.append((i, f"raised {exc!r}"))
                out, profiles = None, ()
            else:
                t1 = clock()
            if tracing:
                tracer.uninstall()
            res.latencies.append(t1 - t0)
            res.elapsed += t1 - t0
            res.profiles.extend(profiles)
            res.digests.append(None if out is None else wl.digest(out))
            if out is not None and not tracing:
                _check(wl, res, i, inp, out)
        i += 1
    return plain, traced


def _check(wl, res, i, inp, out):
    try:
        outcome = wl.check(inp, out)
    except Exception as exc:  # a check that cannot run fails the op
        res.errors.append((i, f"check raised {exc!r}"))
        return
    if not outcome.ok:
        res.errors.append((i, outcome.why))
    if wl.builds_state(inp):
        res.built += 1
        res.flagged += outcome.flagged
    res.checks_failed += outcome.checks_failed


def end_to_end(wl, res, setup_times):
    n = len(res.latencies)
    tail = _percentile(res.latencies, wl.tail_pct)
    if wl.in_process:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        rss_kb = res.max_child_rss_kb
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(res.latencies) / res.elapsed,
        "op_p50_ms": statistics.median(res.latencies) * 1e3,
        "op_tail_ms": tail * 1e3,
        "peak_rss_mb": rss_kb / 1024.0,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} set-ups",
        "ops_per_s": f"{len(res.latencies)} ops in {res.elapsed:.3f} s",
        "op_p50_ms": f"n={len(res.latencies)}",
        "op_tail_ms": f"p{wl.tail_pct:g}, n={n}, {sum(x > tail for x in res.latencies)} samples beyond",
        "peak_rss_mb": "largest child process" if not wl.in_process else "this process",
    }
    return metrics, notes


def per_layer(wl, untraced, traced):
    n = max(len(traced.profiles), 1)
    totals = {}
    check_s = {name: 0.0 for name in CHECK_NAMES}
    op_s = 0.0
    for prof in traced.profiles:
        op_s += prof.op_s
        for name, (calls, self_s, nbytes) in prof.by_name.items():
            acc = totals.setdefault(name, [0, 0.0, 0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += nbytes
        if wl.name == "verify-suite":  # one run_suite span per check, in suite order
            runs = [dur for name, dur in prof.top if name == "verify.run_suite"]
            for name, dur in zip(CHECK_NAMES, runs):
                check_s[name] += dur
    layer_s = {layer: sum(v[1] for k, v in totals.items() if k.startswith(layer + "."))
               for layer in LAYERS + ("bench",)}
    derived = {
        "flagged_frac": untraced.flagged / untraced.built if untraced.built else 0.0,
        "checks_failed": untraced.checks_failed / len(untraced.latencies),
    }
    overhead_ms = 1e3 * (statistics.median(traced.latencies) - statistics.median(untraced.latencies))
    metrics = {}
    for metric, (kind, key) in PER_LAYER.items():
        if kind == "layer":
            value = layer_s[key] * 1e3 / n
        elif kind == "calls":
            value = totals.get(key, [0, 0.0, 0])[0] / n
        elif kind == "self":
            value = totals.get(key, [0, 0.0, 0])[1] * 1e3 / n
        elif kind == "bytes":
            value = totals.get(key, [0, 0.0, 0])[2] / n
        elif kind == "check":
            value = check_s[key] * 1e3 / n
        elif kind == "outcome":
            value = derived[key]
        elif key == "op_ms":
            value = op_s * 1e3 / n
        else:
            value = overhead_ms
        metrics[metric] = value
    attributed = sum(layer_s.values()) + totals.get("child.interpreter", [0, 0.0])[1] \
        + totals.get("child.import", [0, 0.0])[1]
    problems = []
    if abs(attributed - op_s) > 1e-6 * max(op_s, 1.0):
        problems.append(f"self times add up to {attributed:.6f} s, traced ops took {op_s:.6f} s")
    for name in wl.must_call:
        if totals.get(name, [0])[0] == 0:
            problems.append(f"{name} was never called on {wl.name}")
    for name in wl.must_not_call:
        if totals.get(name, [0])[0] != 0:
            problems.append(f"{name} was called on {wl.name}")
    return metrics, problems, (attributed, op_s)


def _unit(metric):
    if metric.endswith("_ms") or metric.endswith(".ms"):
        return "ms"
    if metric.endswith(".bytes") or metric.endswith("_bytes"):
        return "bytes"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "ptcs" / "__init__.py").is_file():
        print(f"perfbench: no ptcs package under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    _single_thread_blas()
    sys.path.insert(0, str(SRC))
    child_env = dict(os.environ)
    child_env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))

    import numpy as np

    import workloads
    from tracer import Tracer

    ptcs = None
    import_s = None
    if args.workload != "cli-mix":
        t0 = time.perf_counter()
        import ptcs

        import_s = time.perf_counter() - t0
        if Path(ptcs.__file__).resolve().parent != SRC / "ptcs":
            print(f"perfbench: imported ptcs from {ptcs.__file__}, not {SRC}", file=sys.stderr)
            return 2
    wl = workloads.make(args.workload, ROOT, args.seed, ptcs, child_env)

    setup_times = [_setup_once(wl, workloads, child_env) for _ in range(SETUP_REPS)]
    problems = list(wl.determinism_failures()) if not wl.in_process else []

    if args.trace == 0:
        untraced = closed_loop(wl, args.seconds, wl.op)
        traced = None
        metrics, notes = end_to_end(wl, untraced, setup_times)
        attempted = len(untraced.latencies)
        failed = len(untraced.errors)
    else:
        untraced, traced = paired_loop(wl, args.seconds, Tracer())
        common = len(traced.latencies)
        mismatched = [i for i in range(common) if traced.digests[i] != untraced.digests[i]]
        problems += [f"op {i}: traced output differs from untraced output" for i in mismatched]
        metrics, trace_problems, (attributed, op_s) = per_layer(wl, untraced, traced)
        problems += trace_problems
        attempted = 2 * common
        failed = len(untraced.errors) + len(traced.errors) + len(mismatched)

    env = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "ops": len(untraced.latencies) + (len(traced.latencies) if traced else 0),
        "timed_s": untraced.elapsed + (traced.elapsed if traced else 0.0),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": _blas_threads(np),
        "git_commit": _git_commit(),
        "src_sha256": _source_sha256(),
        "in_process_import_s": import_s,
        "load": "closed loop, 1 client, 1 load-generating process",
        "machine_settings": "no CPU pinning or frequency control; machine settings are not changed",
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(f"setup_s per set-up: {', '.join(f'{s:.4f}' for s in setup_times)}")
    error_rate = failed / attempted
    if args.trace == 0:
        for name, unit in END_TO_END:
            print(f"{name:<14} {metrics[name]:>14.6f} {unit:<4} ({notes[name]})")
        print(f"{'error_rate':<14} {error_rate:>14.6f} {'':<4} ({failed} failed / {attempted} attempted)")
    else:
        for name, value in metrics.items():
            print(f"{name:<44} {value:>16.6f} {_unit(name)}")
        print(f"traced op_p50_ms {1e3 * statistics.median(traced.latencies):.4f}, untraced "
              f"{1e3 * statistics.median(untraced.latencies):.4f} over the same {common} ops")
        print(f"self times attributed {1e3 * attributed:.4f} ms of {1e3 * op_s:.4f} ms traced "
              f"({len(traced.profiles)} ops)")
        print(f"error_rate {error_rate:.6f} ({failed} failed / {attempted} attempted)")
    for i, why in (untraced.errors + (traced.errors if traced else []))[:10]:
        print(f"failure: op {i}: {why}")
    for why in problems[:10]:
        print(f"failure: {why}")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": _unit(name) if args.trace else dict(END_TO_END)[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
