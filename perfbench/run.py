#!/usr/bin/env python3
"""Layered benchmark of dfw: one workload per run, from the repository root.

    python3 perfbench/run.py --workload check-suites --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload derived-rank6 --seed 1 --seconds 20 --trace 1

The plain run (--trace 0) sets the workload up, runs whole rounds of ops
for --seconds, checks every result, and prints the end-to-end metrics.  The
traced run (--trace 1) does the same plain phase, then replays the first
rounds twice from the post-set-up cache state, plain and with every dfw
layer wrapped in spans (see spans.py), requires the replayed results to
equal the plain ones, and prints the per-layer metrics with the tracing
overhead.
The metric names and units come from BENCHMARK.json at the repository
root.  The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the full record, with run metadata, goes to
perfbench/out/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from calib import REF_UNIT_S, Calibration  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 8  # set-ups repeated in child processes; setup_s is the median with this run's own
clock = time.perf_counter


def import_dfw() -> float:
    """Put the repository's sources first on the path and import dfw.cli,
    which imports every layer; returns the import time in seconds.

    The bytecode is written first (only stale files are compiled), so that
    imports here and in cli-eval children load it as an installed package
    would, whether or not the environment sets PYTHONDONTWRITEBYTECODE."""
    src = ROOT / "src"
    if not (src / "dfw" / "cli.py").is_file():
        sys.exit(f"perfbench: no dfw sources under {src}")
    import compileall

    compileall.compile_dir(str(src / "dfw"), quiet=1)
    sys.path.insert(0, str(src))
    t = clock()
    import dfw.cli  # noqa: F401

    return clock() - t


def git_sha() -> str:
    """HEAD of the repository, read from .git without running git; the
    benchmark may run in a checkout that is no git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, p):
    """Nearest-rank percentile of a sorted list."""
    return values[max(0, math.ceil(p / 100 * len(values)) - 1)]


def run_rounds(rounds, count, seconds, cal, wrap=None):
    """Run rounds(0), rounds(1), ... until `count` rounds are done and the
    summed round walls reach `seconds`, calibrating between ops.

    Returns per-round results, per-op (kind, latency) at reference speed,
    the summed round walls at reference speed and raw, and the ops
    attempted and failed.  Calibration time is in no wall."""
    results, ops, rounds_done = [], [], []
    wall = 0.0
    attempted = failed = 0
    for _ in range(5):
        cal.sample()
    i = 0
    while i < count or wall < seconds:
        todo = rounds(i)  # builds the round's inputs; not timed
        res = []
        first_op = len(ops)
        spent = cal.spent
        t0 = clock()
        for kind, op in todo:
            attempted += 1
            call = wrap(op) if wrap else op
            ts = clock()
            try:
                result, own = call()
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
                res.append(None)
            else:
                ops.append((kind, own if own is not None else clock() - ts, ts))
                res.append(result)
            cal.maybe()
        round_wall = clock() - t0 - (cal.spent - spent)
        rounds_done.append((t0, round_wall, first_op, len(ops)))
        wall += round_wall
        results.append(res)
        i += 1
    for _ in range(5):
        cal.sample()
    lat = [(kind, t * cal.factor(at)) for kind, t, at in ops]
    wall_ref = 0.0
    for t0, w, a, b in rounds_done:
        in_ops = sum(t for _, t, _ in ops[a:b])
        wall_ref += sum(t for _, t in lat[a:b]) + (w - in_ops) * cal.factor(t0)
    return results, lat, wall_ref, wall, attempted, failed


def setup_at_reference(raw_s):
    """Scale a set-up time by the machine speed measured right after it."""
    cal = Calibration()
    for _ in range(10):
        cal.sample()
    return raw_s * REF_UNIT_S / statistics.median(cal.unit_s)


def setup_samples(args, own):
    samples = [own]
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def cache_snapshot():
    from dfw import linalg

    return {
        "column_echelon": linalg.column_echelon.cache_info()._asdict(),
        "smith_diagonal": linalg.smith_diagonal.cache_info()._asdict(),
    }


def cache_delta(before, after):
    return {
        k: {f: after[k][f] - before[k][f] for f in ("hits", "misses")}
        for k in after
    }


def layer_metrics(st, cache, cli):
    """The per-layer metrics named in BENCHMARK.json from merged span stats,
    linalg cache counts and the cli timings (medians over child processes;
    zero where the workload does not go through the command line)."""
    calls, incl, layer = st.get("calls", {}), st.get("incl_s", {}), st.get("layer_self_s", {})
    cnt, mx = st.get("counters", {}), st.get("maxima", {})
    c = lambda n: calls.get(n, 0)  # noqa: E731
    s = lambda n: incl.get(n, 0.0)  # noqa: E731
    return {
        "kernels.hermite_cols.calls": c("kernels.hermite_cols"),
        "kernels.hermite_cols.s": s("kernels.hermite_cols"),
        "kernels.hermite_cols.cells": cnt.get("kernels.hermite_cols.cells", 0),
        "kernels.smith.calls": c("kernels.smith"),
        "kernels.smith.s": s("kernels.smith"),
        "kernels.smith.cells": cnt.get("kernels.smith.cells", 0),
        "kernels.mat_mul.calls": c("kernels.mat_mul"),
        "kernels.mat_mul.s": s("kernels.mat_mul"),
        "kernels.out_bits_max": mx.get("kernels.out_bits_max", 0),
        "linalg.self_s": layer.get("linalg", 0.0),
        "linalg.intmatrix.calls": c("linalg.IntMatrix.__init__"),
        "linalg.intmatrix.s": s("linalg.IntMatrix.__init__"),
        "linalg.column_echelon.hits": cache["column_echelon"]["hits"],
        "linalg.column_echelon.misses": cache["column_echelon"]["misses"],
        "linalg.smith_diagonal.hits": cache["smith_diagonal"]["hits"],
        "linalg.smith_diagonal.misses": cache["smith_diagonal"]["misses"],
        "linalg.kernel_basis.calls": c("linalg.kernel_basis"),
        "linalg.kernel_basis.out_bits_max": mx.get("linalg.kernel_basis.out_bits_max", 0),
        "linalg.solve_matrix.calls": c("linalg.solve_matrix"),
        "linalg.solve_matrix.s": s("linalg.solve_matrix"),
        "linalg.smith_diagonal.s": s("linalg.smith_diagonal"),
        "abelian.self_s": layer.get("abelian", 0.0),
        "abelian.hom_checked.calls": cnt.get("abelian.hom_checked.calls", 0),
        "abelian.kernel.calls": c("abelian.kernel"),
        "abelian.kernel.s": s("abelian.kernel"),
        "abelian.canonical.calls": c("abelian.PresentedGroup.canonical"),
        "functors.self_s": layer.get("functors", 0.0),
        "functors.koszul_sp.calls": c("functors.koszul_sp"),
        "functors.koszul_sp.s": s("functors.koszul_sp"),
        "functors.induced_map.s": s("functors.induced_map"),
        "functors.complex_check.s": s("functors.FreeComplex.__post_init__"),
        "derived.self_s": layer.get("derived", 0.0),
        "derived.middle_homology.calls": c("derived.middle_homology"),
        "derived.middle_homology.s": s("derived.middle_homology"),
        "derived.homology_map.calls": c("derived._homology_map"),
        "theorems.self_s": layer.get("theorems", 0.0),
        "theorems.thm31.s": s("theorems.check_thm_3_1"),
        "theorems.thm32.s": s("theorems.check_thm_3_2"),
        "theorems.exact4.s": s("theorems.check_exact4"),
        "theorems.crosseffect.s": s("theorems.check_cross_effect"),
        "theorems.presindep.s": s("theorems.check_presentation_independence"),
        "cli.import_ms": cli["import_ms"],
        "cli.main_ms": cli["main_ms"],
        "expr.evaluate.ms": cli["evaluate_ms"],
    }


def replay(wl, rounds, tracer=None):
    """Reset the caches and run the first `rounds` rounds again, wrapped in
    `tracer` when one is given.  Returns results, latencies, ops attempted
    and failed, and the linalg cache counts of the replay."""
    wl.reset()
    built = [wl.round(i) for i in range(rounds)]  # inputs are built before tracing starts
    before = cache_snapshot()
    wrap = None
    if tracer is not None:
        if wl.traced_in_children:
            wl.trace = True
        else:
            tracer.install()
            wrap = lambda op: tracer.span("bench.op", op)  # noqa: E731
    try:
        results, lat, _, _, attempted, failed = run_rounds(
            built.__getitem__, rounds, 0.0, Calibration(), wrap)
    finally:
        if tracer is not None:
            tracer.uninstall()
            wl.trace = False
    return results, lat, attempted, failed, cache_delta(before, cache_snapshot())


def traced_replay(wl, rounds, plain_results, import_s):
    """Replay the first `rounds` rounds twice from the same cache state,
    plain and then with every layer wrapped; returns the per-layer metrics
    (the overhead is traced over plain replay time), the ops attempted and
    failed, a list of problems (results that differ from the plain phase),
    the span stats and the spans file."""
    base_results, base_lat, base_att, base_failed, _ = replay(wl, rounds)
    tracer = spans.Tracer()
    results, lat, attempted, failed, cache = replay(wl, rounds, tracer)
    attempted += base_att
    failed += base_failed
    problems = [
        f"replayed round {i} differs from the plain run"
        for res in (base_results, results)
        for i, (a, b) in enumerate(zip(res, plain_results)) if a != b
    ]
    overhead = sum(t for _, t in lat) / sum(t for _, t in base_lat)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"{wl.name}-seed{wl.seed}.spans.tsv"
    with open(spans_path, "w", encoding="utf-8") as fh:
        fh.write("op\tindex\tparent\tname\tstart_s\tend_s\n")
        if wl.traced_in_children:
            st, cache = {}, {"column_echelon": {"hits": 0, "misses": 0},
                             "smith_diagonal": {"hits": 0, "misses": 0}}
            for n, rep in enumerate(r for t, r in wl.reports if t):
                spans.merge(st, rep["stats"])
                for k in cache:
                    for f in ("hits", "misses"):
                        cache[k][f] += rep["cache"][k][f]
                for i, (name, a, b, p) in enumerate(rep["spans"]):
                    fh.write(f"{n}\t{i}\t{p}\t{name}\t{a:.7f}\t{b:.7f}\n")
            plain = [r for t, r in wl.reports if not t]
            traced = [r for t, r in wl.reports if t]
            cli = {
                "import_ms": statistics.median(r["import_ms"] for r in plain),
                "main_ms": statistics.median(r["main_ms"] for r in plain),
                "evaluate_ms": statistics.median(
                    r["stats"]["incl_s"].get("expr.evaluate", 0.0) * 1e3 for r in traced),
            }
        else:
            st = tracer.stats()
            tracer.write_spans(fh)
            cli = {"import_ms": import_s * 1e3, "main_ms": 0.0, "evaluate_ms": 0.0}
    metrics = layer_metrics(st, cache, cli)
    metrics["trace.overhead"] = overhead
    return metrics, attempted, failed, problems, st, spans_path


def main() -> int:
    ap = argparse.ArgumentParser(description="layered benchmark of dfw")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up time and exit (used for repeated set-ups)")
    args = ap.parse_args()
    if not 0 <= args.seed < 2**32:
        ap.error("--seed must be in 0..2^32-1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_s = import_dfw()
    wl = WORKLOADS[args.workload]()
    wl.setup(args.seed)
    own_setup_raw = clock() - T_START
    own_setup = setup_at_reference(own_setup_raw)
    if args.setup_only:
        wl.close()
        print(json.dumps({"setup_s": own_setup, "raw_s": own_setup_raw}))
        return 0

    cal = Calibration()
    try:
        results, lat, wall, raw_wall, attempted, failed = run_rounds(
            wl.round, wl.replay_rounds, args.seconds, cal)
        peak_rss = wl.peak_rss_mb()
        problems = wl.check(results)
        record = {}
        if args.trace:
            metrics, r_att, r_failed, r_problems, st, spans_path = traced_replay(
                wl, wl.replay_rounds, results, import_s)
            attempted += r_att
            failed += r_failed
            problems += r_problems
            wanted = spec["per_layer"]
            record["span_stats"] = st
            record["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            times = sorted(t for _, t in lat)
            setups = setup_samples(args, own_setup)
            metrics = {
                "setup_s": statistics.median(setups),
                "ops_per_s": len(lat) / wall,
                "op_p50_ms": statistics.median(times) * 1e3,
                "op_tail_ms": percentile(times, wl.tail_percentile) * 1e3,
                "peak_rss_mb": peak_rss,
            }
            wanted = spec["end_to_end"]
            record["setup_samples_s"] = setups
            record["setup_raw_s"] = own_setup_raw
            by_kind = {}
            for kind, t in lat:
                by_kind.setdefault(kind, []).append(t)
            record["op_ms_by_kind"] = {
                k: {"ops": len(v), "p50": statistics.median(v) * 1e3, "max": max(v) * 1e3}
                for k, v in by_kind.items()
            }
            record["tail"] = {"percentile": wl.tail_percentile,
                              "ops_beyond": len(times) - math.ceil(wl.tail_percentile / 100 * len(times))}
            record["op_ms_percentiles"] = {
                str(p): percentile(times, p) * 1e3 for p in (50, 90, 95, 98, 99, 99.5, 99.8, 100)}
    finally:
        wl.close()

    out_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    summary = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": out_metrics}
    from dfw import _kernels

    record.update({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "backend": _kernels.BACKEND,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "rounds": len(results),
        "timed_wall_s": {"raw": raw_wall, "at_reference_speed": wall},
        "ops_per_s_raw": len(lat) / raw_wall,
        "calibration": {
            "ref_unit_s": REF_UNIT_S,
            "samples": len(cal.unit_s),
            "unit_s_median": statistics.median(cal.unit_s),
            "unit_s_min": min(cal.unit_s),
            "unit_s_max": max(cal.unit_s),
            "seconds_spent": cal.spent,
        },
        "problems": problems[:50],
        "result": summary,
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} rounds {len(results)} "
          f"attempted {attempted} failed {failed} correct {not problems}")
    for name, m in out_metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  record: {path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
