"""Measurement loop, correctness gate, metrics and the run record."""

from __future__ import annotations

import ctypes
import functools
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import tracer as tr

SETUP_REPEATS = 3
MIN_JOBS = 2


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas_threads_in_use():
    """Ask the OpenBLAS that NumPy loaded for its thread count."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: Path):
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(root: Path, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "priorad").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": blas_threads,
        "blas_threads_in_use": _blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(root),
        "source_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# the timed unit of work
# ---------------------------------------------------------------------------


class OpTimer:
    """Times every call of the workload's unit of work and checks its result.

    Samples are kept apart for untraced and traced jobs.
    """

    def __init__(self, check):
        self.check = check
        self.samples = {False: [], True: []}
        self.failed = 0
        self.traced = False

    def wrap(self, fn):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            self.samples[self.traced].append((perf_counter() - t0) * 1e3)
            if not self.check(out):
                self.failed += 1
            return out
        return timed


# ---------------------------------------------------------------------------
# per-layer metrics of the traced jobs
# ---------------------------------------------------------------------------


def layer_metrics(setup_t: tr.Tracer, job_t: tr.Tracer, n_jobs: int,
                  quality: dict, overhead: dict) -> dict:
    total, selfs = job_t.totals_ms()
    s_total, _ = setup_t.totals_ms()
    c = job_t.counters
    steps = job_t.count("training.step")

    def per_job(x):
        return x / n_jobs

    def per_step(x):
        return x / steps if steps else 0.0

    def ns(key):
        return c[key] / 1e6

    op_ms = sum(ns("op_ns." + op) for op in tr.OPS)
    m = {
        "autodiff.backward_ms": per_step(total["autodiff.backward"]),
        "autodiff.bookkeeping_ms": per_step(
            total["autodiff.backward"] - op_ms - ns("counting_ns")),
        "autodiff.adam_ms": per_step(total["autodiff.adam"]),
        "autodiff.nodes_per_pass": c["nodes"] / c["passes"] if c["passes"] else 0.0,
        "autodiff.tape_bytes": c["tape_bytes"] / c["passes"] if c["passes"] else 0.0,
        "autodiff.wasted_grad_share": (c["wasted_grad_bytes"] / c["grad_bytes"]
                                       if c["grad_bytes"] else 0.0),
    }
    for op in tr.OPS:
        m[f"autodiff.op_bwd_ms.{op}"] = per_step(ns("op_ns." + op))
    for comp in tr.MODEL_COMPONENTS:
        m[f"model.{comp}.fwd_ms"] = per_job(total[f"model.{comp}"])
        m[f"model.{comp}.bwd_ms"] = per_step(ns(f"bwd_ns.model.{comp}"))
    m["model.forward_ms"] = per_job(total["model.forward"])
    m["model.forward.self_ms"] = per_job(selfs["model.forward"])
    m["model.forward.self_bwd_ms"] = per_step(ns("bwd_ns.model.forward"))

    losses = [f"training.{name}" for name in tr.LOSSES]
    m["training.train_ms"] = per_job(total["training.train"])
    m["training.step_ms"] = per_step(total["training.step"])
    m["training.step.self_ms"] = per_step(selfs["training.step"])
    m["training.losses_ms"] = per_step(sum(total[n] for n in losses))
    m["training.losses.bwd_ms"] = per_step(
        sum(ns("bwd_ns." + n) for n in losses + ["training.step"]))
    for name in ("validation", "hurst_target", "load_checkpoint"):
        m[f"training.{name}_ms"] = per_job(total[f"training.{name}"])
    m["training.val_recon"] = quality.get("val_recon", 0.0)

    fwd = c["windows_forwarded"]
    m["scoring.windows_forwarded"] = per_job(fwd)
    m["scoring.useful_forward_share"] = c["windows_useful"] / fwd if fwd else 0.0
    m["scoring.forward_ms"] = per_job(
        job_t.total_under("model.forward", "scoring.window_streams"))
    for name in ("detect", "mismatch", "fit_norm", "score_series",
                 "threshold", "write_csv"):
        m[f"scoring.{name}_ms"] = per_job(total[f"scoring.{name}"])

    # data work sits mostly in set-up: one traced set-up plus one job
    for name in ("synth", "read_csv", "windows", "standardize"):
        key = f"data.{name}"
        m[f"{key}_ms"] = s_total[key] + per_job(total[key])

    m["python.gc_ms"] = per_job(total["python.gc"])
    m["evaluation.point_adjust_ms"] = per_job(
        total["evaluation.point_adjust"])
    m["evaluation.metrics_ms"] = per_job(total["evaluation.metrics"])
    m["evaluation.pa_f1"] = quality.get("pa_f1", 0.0)
    m["evaluation.pw_f1"] = quality.get("pw_f1", 0.0)
    m["cli.score_ms"] = per_job(total["cli.score"])
    m["cli.score.self_ms"] = per_job(selfs["cli.score"])
    # tracing cost inside training steps, from per-wrapper costs measured
    # around no-ops: every span, node record and timed node backward
    cost = tr.wrapper_costs_ns()
    m["trace.estimated_overhead_step_ms"] = per_step((
        job_t.count_within("training.step") * cost["span"]
        + c["nodes"] * (cost["record"] + cost["backward"])
        + c["counting_ns"]) / 1e6)
    m.update(overhead)
    return m


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _set_up(args, wl, workdir, tracer):
    """Set up at least SETUP_REPEATS times and for at least a second,
    so that a set-up of a few milliseconds still gives a steady median.
    With tracing on, the first set-up is traced."""
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < 1.0:
        traced = args.trace and not times
        if traced:
            tracer.install()
        try:
            t0 = perf_counter()
            state = wl.setup(args.seed, workdir)
            times.append(perf_counter() - t0)
        finally:
            if traced:
                tracer.restore()
    return state, times


def _run_jobs(args, wl, state, timer, tracer):
    """Repeat the job; with tracing on, every second job is traced.

    Returns ([(traced, JobResult)], attempted, failed).
    """
    jobs = []
    attempted = failed = 0
    t_start = perf_counter()
    # start another job only while it should end within --seconds
    while len(jobs) < MIN_JOBS or (perf_counter() - t_start) * (
            len(jobs) + 1) / len(jobs) <= args.seconds:
        traced = bool(args.trace) and len(jobs) % 2 == 1
        timer.traced = traced
        if traced:
            tracer.install()
        try:
            res = wl.job(state)
        except Exception:
            traceback.print_exc()
            return jobs, attempted + 1, failed + 1
        finally:
            if traced:
                tracer.restore()
        res.checks["quality bitwise equal across jobs"] = (
            res.quality == (jobs[0][1] if jobs else res).quality)
        for name, ok in res.checks.items():
            if not ok:
                print(f"check failed in job {len(jobs)}: {name}",
                      file=sys.stderr)
        attempted += len(res.phases) + len(res.checks)
        failed += sum(not ok for ok in res.checks.values())
        jobs.append((traced, res))
    return jobs, attempted, failed


def run(args, wl, root: Path, out: Path, blas_threads: int) -> int:
    env = environment(root, blas_threads)
    workdir = out / "work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    setup_tracer, job_tracer = tr.Tracer(), tr.Tracer()
    state, setup_s = _set_up(args, wl, workdir, setup_tracer)

    timer = OpTimer(wl.op_check)
    undo = []
    tr.replace(wl.op_owner, wl.op_attr, timer.wrap, undo)
    try:
        jobs, attempted, failed = _run_jobs(args, wl, state, timer,
                                            job_tracer)
    finally:
        tr.restore(undo)
    shutil.rmtree(workdir, ignore_errors=True)
    ops = timer.samples[False] + timer.samples[True]
    attempted += len(ops)
    failed += timer.failed

    plain = [r for t, r in jobs if not t]
    traced_jobs = [r for t, r in jobs if t]
    op_plain = timer.samples[False]
    e2e = {
        "setup_s": _median(setup_s),
        "job_s": _median([sum(r.phases.values()) for r in plain]),
        "op_ms_p50": _median(op_plain),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        overhead = {
            "trace.overhead_job_ms": 1e3 * (
                _median([sum(r.phases.values()) for r in traced_jobs])
                - e2e["job_s"]) if traced_jobs else 0.0,
            "trace.overhead_op_ms": (_median(timer.samples[True])
                                     - e2e["op_ms_p50"])
                                    if timer.samples[True] else 0.0,
        }
        metrics = layer_metrics(setup_tracer, job_tracer,
                                max(len(traced_jobs), 1),
                                jobs[0][1].quality if jobs else {}, overhead)
    else:
        metrics = e2e
    # BENCHMARK.json declares the metrics and their units
    units = _declared_units(root, "per_layer" if args.trace else "end_to_end")
    if set(units) != set(metrics):
        print("error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        failed += 1
    correct = failed == 0 and bool(jobs)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"jobs {len(jobs)}  {wl.op_name}: {len(ops)}")
    print("env " + json.dumps(env, sort_keys=True))
    if correct:
        if not args.trace:
            for name, (value, unit) in _phase_metrics(plain, op_plain,
                                                      wl).items():
                shown = "n/a" if value is None else f"{value:.6g}"
                print(f"  {name:<36} {shown:>14} {unit}")
        for name, value in metrics.items():
            print(f"  {name:<36} {value:>14.6g} {units[name]}")
    print(f"  {'failed_share':<36} {failed / max(attempted, 1):>14.6g} "
          f"({failed}/{attempted})")

    record = {"args": vars(args), "env": env, "correct": correct,
              "attempted": attempted, "failed": failed, "setup_s": setup_s,
              "jobs": [{"traced": t, "phases": r.phases, "quality": r.quality}
                       for t, r in jobs],
              "op": {"name": wl.op_name,
                     "tail_percentile": wl.tail_percentile,
                     "samples_ms": timer.samples},
              "metrics": metrics}
    if args.trace:
        record["spans"] = {"setup": setup_tracer.spans,
                           "jobs": job_tracer.spans}
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, sort_keys=True))

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": ({k: {"value": v, "unit": units[k]}
                           for k, v in metrics.items()} if correct else {})}
    print(json.dumps(result))
    return 0 if correct else 1


def _declared_units(root: Path, kind: str) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _phase_metrics(jobs, op_ms, wl) -> dict:
    """Figures printed but not gated: the op tail, whose run-to-run spread
    exceeds any allowed bound on a shared machine, and the per-phase
    throughputs and quality, None where a workload lacks the phase."""

    def rate(count, phase):
        vals = [getattr(r, count) / r.phases[phase]
                for r in jobs if phase in r.phases and getattr(r, count)]
        return _median(vals) if vals else None

    q = jobs[0].quality if jobs else {}
    p = wl.tail_percentile
    return {
        f"op_ms_p{p} ({len(op_ms)} ops)": (
            float(np.percentile(op_ms, p)) if op_ms else None, "ms"),
        "train_windows_per_s": (rate("train_windows", "train"), "windows/s"),
        "detect_points_per_s": (rate("test_points", "detect"), "points/s"),
        "score_points_per_s": (rate("test_points", "score"), "points/s"),
        "pa_f1": (q.get("pa_f1"), "%"),
        "pw_f1": (q.get("pw_f1"), "%"),
        "val_recon": (q.get("val_recon"), "mse"),
    }
