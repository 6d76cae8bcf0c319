"""End-to-end benchmark of the partitioning library: four workloads, exact checks.

Usage (from the repository root)::

    python benchmarks/e2e/run.py [--workload W ...] [--seed N] [--seconds S]
                                 [--runs K] [--trace 0|1]
    python benchmarks/e2e/run.py --prepare        # fill and verify the PIC cache
    python benchmarks/e2e/run.py --write-golden   # regenerate golden.json

Each workload runs in its own child process, one at a time, pinned to at
most two CPUs with one BLAS thread and every ``REPRO_*`` variable unset
except ``REPRO_CACHE``.  The child is a closed loop with one client: it
repeats passes over the workload's ops, in cycles of one cold pass (empty
stores) and the warm passes that replay it, as many cycles as take
``--seconds`` at the nominal host speed; it checks every output and
reports times at that speed (see ``HostSpeed`` in ``workloads.py``).

The workloads, metric names, units and the default ``--seconds`` come from
``BENCHMARK.json`` at the repository root.

Output: ``workload metric value unit`` lines, then one JSON line
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs with outside-in span wrappers and
reports the per-layer metrics, writing the spans to
``.bench_build/e2e/trace-<workload>.json``.  The exit status is
non-zero on any correctness failure.

Build outputs, the instance cache and traces live under ``.bench_build/e2e``
of the checkout; nothing is read or written outside it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "e2e"
CACHE = BUILD / "cache"
GOLDEN = HERE / "golden.json"

DEFAULT_SEED = 11
SETUPS = 5

#: the declared benchmark: workloads, metric names and units, run length
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = tuple(w["name"] for w in SPEC["workloads"])
RUN_SECONDS = SPEC["run_seconds"]
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: solver families with per-layer metrics (the packages of the six heuristics)
FAMILIES = ("jagged", "hierarchical", "rectilinear")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def pass_count(seconds: float, cycle: int, cycle_s: float, trace: bool) -> int:
    """Passes a run makes: the whole cycles that take ``seconds`` at the
    nominal host speed, so that every commit does the same work however
    fast it runs.  At least one cycle and two passes; two cycles when
    traced, which alternate traced and untraced cycles for the overhead."""
    cycles = max(round(seconds / cycle_s), 2 if trace or cycle == 1 else 1)
    return cycles * cycle


def warm_passes(passes: list[dict], stores: bool) -> list[dict]:
    """The passes that replay a cold one; all of them on a workload without
    stores, which does the same work in every pass."""
    return [p for p in passes if not p["cold"] or not stores]


def at_nominal_speed(p: dict, host: Any) -> tuple[float, dict[str, float]]:
    """A pass's wall time and its sampled op latencies at the nominal host
    speed: each op scaled by the host's speed around it, the time between
    ops by its speed over the pass."""
    between = max(0.0, p["wall"] - sum(dt for _, dt, _ in p["spans"]))
    wall = between * host.speed(p["t0"], p["t1"])
    latencies = {}
    for t0, dt, key in p["spans"]:
        scaled = dt * host.speed(t0, t0 + dt)
        wall += scaled
        if key is not None:
            latencies[key] = scaled
    return wall, latencies


def end_to_end_metrics(
    passes: list[dict], setup_s: float, stores: bool, host: Any
) -> dict[str, float]:
    """The user-visible metrics of one untraced run.

    The host is shared: its speed drifts by tens of percent over seconds to
    minutes, and a burst can slow any op.  So every time is taken at the
    nominal host speed (see ``HostSpeed``) and is a best-of over the run.
    The cold pass is the fastest one; every other timing comes from each
    op's fastest latency over the warm passes: the service rate is the ops
    over the sum of those bests, and the latency percentiles are taken over
    them.
    """
    import numpy as np

    for p in passes:
        p["nominal_wall"], p["nominal_latencies"] = at_nominal_speed(p, host)
    warm = [p["nominal_latencies"] for p in warm_passes(passes, stores)]
    best = np.array([min(lat[key] for lat in warm) for key in warm[0]])
    return {
        "setup_s": setup_s,
        "cold_pass_s": min(p["nominal_wall"] for p in passes if p["cold"]),
        "ops_per_s": len(best) / float(best.sum()),
        "op_p50_ms": 1e3 * float(np.percentile(best, 50)),
        "op_p95_ms": 1e3 * float(np.percentile(best, 95)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def layer_of(name: str, workload: str) -> str:
    """Layer a span name belongs to; the root's self time is unattributed."""
    if name == "op":
        return "runtime" if workload == "stream_dynamic" else "unattributed"
    for prefix in ("perf.kernels", "experiments.rawstore", "sweep.store", "dynamic"):
        if name.startswith(prefix + "."):
            return prefix
    return name


def per_layer_metrics(
    passes: list[dict], gen_s: float, workload: str, stores: bool
) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Counts come from the first cycle (fixed work, so they repeat exactly);
    time shares are self (or inclusive) seconds over the op wall time of
    every traced pass; the overhead compares traced with untraced warm passes.
    The kernel and figure metrics follow the library's own registries, so a
    kernel or figure added there shows up as a metric BENCHMARK.json lacks.
    """
    from tracing import family

    from repro.core.registry import ALGORITHMS
    from repro.experiments.cli import ALL_RUNNABLE
    from repro.perf.kernels import KERNELS

    unknown = set(FAMILIES) - {family(fn) for fn in ALGORITHMS.values()}
    if unknown:
        raise LookupError(f"no registry algorithm lives in {sorted(unknown)}")
    recorded = [p for p in passes if p["trace"] is not None and p["trace"]["recorded"]]
    counted = [p["trace"] for p in recorded]
    timed = [p["trace"] for p in passes if p["trace"] is not None]
    op_wall = sum(sum(t["op_walls"].values()) for t in timed)

    def match(name: str, prefix: str) -> bool:
        return name == prefix or name.startswith(prefix + ".")

    def calls(prefix: str) -> int:
        return sum(n for t in counted for k, n in t["calls"].items() if match(k, prefix))

    def count(key: str) -> int:
        return sum(t["counts"].get(key, 0) for t in counted)

    def share(prefix: str, kind: str = "self_s") -> float:
        return sum(s for t in timed for k, s in t[kind].items() if match(k, prefix)) / op_wall

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    warm = warm_passes(passes, stores)
    traced_warm = min(p["wall"] for p in warm if p["traced"])
    plain_warm = min(p["wall"] for p in warm if not p["traced"])
    out: dict[str, float] = {
        "trace.overhead_frac": traced_warm / plain_warm - 1.0,
        "trace.unattributed_frac": share("op"),
        "trace.spans": sum(sum(t["calls"].values()) for t in counted),
        "instances.gen_s": gen_s,
    }
    for layer in ("core.prefix", "core.sparse"):
        out[f"{layer}.builds"] = calls(layer)
        out[f"{layer}.bytes"] = count(f"{layer}.bytes")
        out[f"{layer}.self_frac"] = share(layer)
    queries, hits = count("proj_queries"), count("proj_hits")
    out.update(
        {
            "core.load_queries": count("load_queries"),
            "core.metrics.calls": calls("core.metrics"),
            "core.metrics.self_frac": share("core.metrics"),
            "perf.cache.proj_queries": queries,
            "perf.cache.proj_hits": hits,
            "perf.cache.hit_ratio": ratio(hits, queries),
        }
    )
    for k in KERNELS:
        out[f"perf.kernels.{k}.calls"] = calls(f"perf.kernels.{k}")
    for k in KERNELS:
        out[f"perf.kernels.{k}.self_frac"] = share(f"perf.kernels.{k}")
    out["perf.kernels.searchsorted_calls"] = count("searchsorted_calls")
    out["perf.kernels.searchsorted_items"] = count("searchsorted_items")
    out["oned.probe_calls"] = count("probe_calls")
    out["oned.probe_steps"] = count("probe_steps")
    for fam in FAMILIES:
        out[f"{fam}.calls"] = calls(fam)
        out[f"{fam}.incl_frac"] = share(fam, "incl_s")
        out[f"{fam}.self_frac"] = share(fam)
    out["hierarchical.cut_calls"] = count("cut_calls")
    solves = calls("dynamic.solve")
    reparts = count("dynamic.repartitions")
    stream = workload == "stream_dynamic"
    out.update(
        {
            "sweep.store.loads": calls("sweep.store.load"),
            "sweep.store.flushes": calls("sweep.store.flush"),
            "sweep.store.seeded": count("sweep.store.seeded"),
            "sweep.store.bytes": count("sweep.store.bytes"),
            "sweep.store.self_frac": share("sweep.store"),
            "dynamic.decide_calls": calls("dynamic.decide"),
            "dynamic.solve_calls": solves,
            "dynamic.repartitions": reparts,
            "dynamic.install_ratio": ratio(reparts, solves),
            "dynamic.self_frac": share("dynamic"),
            "runtime.steps": sum(len(p["latencies"]) for p in recorded) if stream else 0,
            "runtime.self_frac": share("op") if stream else 0.0,
        }
    )
    raw = {key: count(f"experiments.rawstore.{key}") for key in ("hits", "misses", "invalid")}
    out.update({f"experiments.rawstore.{k}": v for k, v in raw.items()})
    out["experiments.rawstore.writes"] = calls("experiments.rawstore.store")
    out["experiments.rawstore.hit_ratio"] = ratio(raw["hits"], raw["hits"] + raw["misses"])
    out["experiments.rawstore.self_frac"] = share("experiments.rawstore")
    cold = passes[0]["trace"]["op_walls"]
    cold_wall = sum(cold.values())
    for fig in ALL_RUNNABLE:
        out[f"experiments.figures.{fig}.cold_frac"] = (
            cold.get(fig, 0.0) / cold_wall if workload == "figure_farm" else 0.0
        )
    out["parallel.pool.calls"] = calls("parallel.pool")
    out["parallel.pool.self_frac"] = share("parallel.pool")
    return out


def top_layers(traces: list[dict], workload: str, k: int = 8) -> list[list[Any]]:
    """``[layer, self seconds, share]`` of the ``k`` layers with most self time."""
    acc: dict[str, float] = {}
    for t in traces:
        for name, s in t["self_s"].items():
            layer = layer_of(name, workload)
            acc[layer] = acc.get(layer, 0.0) + s
    total = sum(acc.values()) or 1.0
    ranked = sorted(acc.items(), key=lambda kv: -kv[1])[:k]
    return [[layer, round(s, 6), round(s / total, 4)] for layer, s in ranked]


# ----------------------------------------------------------------------
# one workload run (in the child process)
# ----------------------------------------------------------------------
def import_seconds(probes: int) -> float:
    """Median wall time of a fresh interpreter importing the library."""
    code = "import repro.experiments.cli, repro.runtime, repro.dynamic, repro.sweep"
    walls = []
    for _ in range(probes):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        walls.append(perf_counter() - t0)
    return statistics.median(walls)


def golden_errors(name: str, view: dict, golden: dict, fraction: float) -> list[str]:
    """Differences between a pass-0 fingerprint view and ``golden.json``."""
    pinned = golden.get(name)
    if pinned is None:
        return []
    errs = []
    for key, want in pinned.items():
        if key in view:
            if view[key] != want:
                errs.append(f"{name} {key}: {view[key]!r} != golden {want!r}")
        elif fraction >= 1.0:
            errs.append(f"{name} {key}: missing (golden {want!r})")
    if fraction >= 1.0:
        errs += [f"{name} {key}: not in golden.json" for key in view if key not in pinned]
    return errs[:20]


def execute(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    fraction: float = 1.0,
    golden: dict | None = None,
    probes: int = SETUPS,
    workdir: Path | None = None,
    trace_out: Path | None = None,
) -> dict[str, Any]:
    """Run one workload in this process; the result document."""
    import tracing
    from workloads import WORKLOADS, HostSpeed, Ops, pic_digests

    golden = {} if golden is None else golden
    workdir = workdir or BUILD / "work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    digests = pic_digests()  # generates the PIC cache on first use, untimed
    gold_errs = []
    if "pic_digests" in golden and digests != golden["pic_digests"]:
        gold_errs.append("PIC snapshot digests differ from golden.json")

    host = None if trace else HostSpeed()
    t_setup = perf_counter()
    import_s = import_seconds(probes) if probes else 0.0
    wl = WORKLOADS[name](seed, workdir, fraction)
    setups, gens = [], []
    for _ in range(SETUPS):
        if host is not None:
            host.sample()
        t0 = perf_counter()
        wl.setup()
        setups.append(perf_counter() - t0)
        gens.append(wl.gen_s)
    if host is not None:
        host.sample()
        setup_s = (import_s + statistics.median(setups)) * host.speed(t_setup, perf_counter())
    wl.prepare_checks()

    tracer = tracing.Tracer() if trace else None
    passes: list[dict] = []
    attempted = failed = 0
    errors: list[str] = []
    first_fp = None
    took: list[float] = []  # each pass's wall time, checks included
    # a traced run traces the first cycle (the counts come from it), then
    # alternates untraced and traced cycles (the overhead)
    count = pass_count(seconds, wl.cycle, wl.cycle_s, trace)
    for k in range(count):
        t_pass = perf_counter()
        cold = k % wl.cycle == 0
        traced = tracer is not None and (k // wl.cycle) % 2 == 0
        if cold:
            wl.reset_stores()
        ops = Ops(tracer if traced else None, host)
        restore = None
        if traced:
            tracer.start_pass(record=k < wl.cycle)
            restore = tracing.install(tracer)
        t0 = perf_counter()
        try:
            fp = wl.run_pass(ops, k)
        except Exception as exc:  # reported as a failed op; the run stops
            traceback.print_exc()
            fp = None
            ops.fail(f"pass {k}: {type(exc).__name__}: {exc}")
        finally:
            t1 = perf_counter()
            wall = t1 - t0 - ops.untimed_s
            if restore is not None:
                restore()
        passes.append(
            {
                "wall": wall,
                "t0": t0,
                "t1": t1,
                "cold": cold,
                "latencies": ops.latencies,
                "spans": ops.spans,
                "traced": traced,
                "trace": tracer.end_pass() if traced else None,
            }
        )
        attempted += ops.attempted
        failed += ops.failed
        errors += ops.errors
        if fp is None:
            break
        if first_fp is None:
            first_fp = cold_fp = fp
        elif cold:
            cold_fp = fp
            if wl.repeatable(fp) != wl.repeatable(first_fp):
                failed += 1
                errors.append(f"cold pass {k} outputs differ from pass 0")
        elif fp != cold_fp:
            failed += 1
            errors.append(f"warm pass {k} outputs differ from the cold pass before it")
        took.append(perf_counter() - t_pass)

    view = wl.golden_view(first_fp) if first_fp is not None else {}
    gold_errs += golden_errors(name, view, golden, fraction)
    complete = len(took) == count
    metrics: dict[str, float] = {}
    layers: dict[str, Any] = {}
    if complete and host is not None:
        metrics = end_to_end_metrics(passes, setup_s, wl.stores, host)
    elif complete:
        metrics = per_layer_metrics(passes, statistics.median(gens), name, wl.stores)
        traces = [p["trace"] for p in passes if p["trace"] is not None]
        layers = {
            "top_layers": top_layers(traces, name),
            "cold_top_layers": top_layers(traces[:1], name),
        }
        if trace_out is not None:
            doc = {"workload": name, "seed": seed, **layers, "passes": traces, **tracer.to_json()}
            trace_out.parent.mkdir(parents=True, exist_ok=True)
            trace_out.write_text(json.dumps(doc))
    declared = PER_LAYER if trace else END_TO_END
    if complete and set(metrics) != set(declared):
        drift = sorted(set(metrics) ^ set(declared))
        errors.append(f"metrics differ from those BENCHMARK.json declares: {drift}")
    shutil.rmtree(workdir, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "correct": complete and not errors and not gold_errs and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "golden_errors": gold_errs,
        "metrics": metrics,
        "host_speed": host.speed(t_setup, perf_counter()) if host is not None else None,
        "pass_s": took,
        "golden_view": view,
        "pic_digests": digests,
        **layers,
    }


def child_main(args: argparse.Namespace) -> int:
    """Entry point of the pinned child process."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpus[:2])
    sys.path[:0] = [str(HERE), str(SRC)]
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() and not args.write_golden else {}
    if args.prepare:
        from workloads import pic_digests

        digests = pic_digests()
        ok = args.write_golden or digests == golden.get("pic_digests")
        Path(args.out).write_text(json.dumps({"pic_digests": digests, "ok": ok}))
        return 0
    trace_out = BUILD / f"trace-{args.child}.json" if args.trace else None
    res = execute(
        args.child, args.seed, args.seconds, bool(args.trace), golden=golden, trace_out=trace_out
    )
    res["env"] = {
        "python": sys.version.split()[0],
        "numpy": __import__("numpy").__version__,
        "nproc": len(os.sched_getaffinity(0)),
    }
    Path(args.out).write_text(json.dumps(res))
    return 0


# ----------------------------------------------------------------------
# the parent: one child per workload run
# ----------------------------------------------------------------------
def child_env() -> dict[str, str]:
    """The pinned environment of a workload child."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        REPRO_CACHE=str(CACHE),
        PYTHONPATH=str(SRC),
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        NUMEXPR_NUM_THREADS="1",
    )
    return env


def run_child(
    name: str, seed: int, seconds: float, trace: bool, *, prepare: bool = False,
    write_golden: bool = False,
) -> dict[str, Any] | None:
    """Run one workload in a pinned child; its result, or None if it crashed."""
    BUILD.mkdir(parents=True, exist_ok=True)
    out = BUILD / f"result-{name}-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--child", name, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--out", str(out),
    ]
    cmd += ["--prepare"] if prepare else []
    cmd += ["--write-golden"] if write_golden else []
    try:
        proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, timeout=900 + 4 * seconds)
    except subprocess.TimeoutExpired:
        print(f"{name}: child timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.exists():
        print(f"{name}: child failed with status {proc.returncode}", file=sys.stderr)
        return None
    res = json.loads(out.read_text())
    out.unlink()
    return res


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" outside a git clone (git never
    looks above the checkout for a repository)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def _fmt(value: float) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", nargs="+", choices=WORKLOAD_NAMES, default=list(WORKLOAD_NAMES)
    )
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds N, N+1, ...")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--prepare", action="store_true", help="fill and verify the PIC cache")
    parser.add_argument("--write-golden", action="store_true", help="regenerate golden.json")
    parser.add_argument("--child", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no library sources under {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    if args.prepare or args.write_golden:
        res = run_child("figure_farm", DEFAULT_SEED, 0, False, prepare=True,
                        write_golden=args.write_golden)
        if res is None or not res["ok"]:
            print("PIC cache does not match golden.json", file=sys.stderr)
            return 1
        print(f"PIC cache ready under {CACHE}")
        if args.write_golden:
            return write_golden(res["pic_digests"])
        return 0

    units = PER_LAYER if args.trace else END_TO_END
    print(f"# env commit={git_commit()} seed={args.seed} runs={args.runs} "
          f"seconds={args.seconds} trace={args.trace}")
    correct = True
    attempted = failed = 0
    summary: dict[str, dict[str, Any]] = {}
    for name in args.workload:
        values: dict[str, list[float]] = {m: [] for m in units}
        for r in range(args.runs):
            res = run_child(name, args.seed + r, args.seconds, bool(args.trace))
            if res is None:
                return 1
            if r == 0:
                print(f"# env python={res['env']['python']} numpy={res['env']['numpy']} "
                      f"nproc={res['env']['nproc']}")
            for msg in res["errors"] + res["golden_errors"]:
                print(f"{name}: CHECK FAILED: {msg}", file=sys.stderr)
            correct = correct and res["correct"]
            attempted += res["attempted"]
            failed += res["failed"]
            for metric in units:
                if metric in res["metrics"]:
                    values[metric].append(res["metrics"][metric])
            print(f"# {name} seed={args.seed + r} host_speed={res['host_speed']} "
                  f"pass_s={[round(t, 2) for t in res['pass_s']]}")
            if args.trace:
                print(f"# {name} top layers by self time: {res['top_layers']}")
                print(f"# {name} pass-0 top layers: {res['cold_top_layers']}")
        for metric, unit in units.items():
            vals = values[metric]
            if not vals:
                continue
            med = statistics.median(vals)
            line = f"{name} {metric} {_fmt(med)} {unit}"
            if len(vals) > 1:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                line += f" q1={_fmt(q1)} q3={_fmt(q3)}"
            print(line)
            summary.setdefault(name, {})[metric] = {"value": med, "unit": unit}
    if len(args.workload) == 1:
        metrics = summary.get(args.workload[0], {})
    else:
        metrics = {f"{w}.{m}": v for w, ms in summary.items() for m, v in ms.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def write_golden(digests: dict[str, str]) -> int:
    """Run every workload at the default seed and pin its pass-0 outputs."""
    doc: dict[str, Any] = {"pic_digests": digests}
    for name in WORKLOAD_NAMES:
        res = run_child(name, DEFAULT_SEED, 0, False, write_golden=True)
        if res is None or res["errors"]:
            print(f"{name}: not pinned, the run failed", file=sys.stderr)
            return 1
        doc[name] = res["golden_view"]
    GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
