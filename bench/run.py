"""scatterpoly benchmark.

    python3 bench/run.py --workload campaigns|kernel-sweep|curve-audit
                         --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`./src`, and the run fails without a result when it is missing.  Each
repetition is a fresh child process (`bench/child.py`) with one thread for
numpy's libraries, so no field, embedding or suite cache carries over; child
processes run one after another, never at the same time.

`--trace 0` measures the end-to-end metrics over repetitions, started until
the next one would end after `--seconds` (at least one):

- setup_s       median set-up time (import plus every table and embedding)
- wall_s        median time of the timed phase, all items with tables warm
- peak_rss_mib  median `ru_maxrss` of the children
- ok_frac       items whose output was right and which raised nothing, over
                items attempted (1 - failed_frac, which can be 0)

The run record also holds `item_p50_ms`, the lower median item time over
every item of every repetition (always one measured item; the plain median
of an even count averages two middle items that on campaigns are two suites
three times apart), with the item count.  It is not printed as an
end-to-end metric: short items sample the host's speed at single moments,
and between runs it spread by up to a third of its median on a shared
2-core host, beyond the largest bound a metric may have.

`--trace 1` runs one untraced and one traced repetition and reports the
per-layer metrics of `spans.py`, with the tracing overhead as traced minus
untraced `wall_s`.  End-to-end numbers always come from untraced children.

`failed` counts items whose output contradicts the expectation stored in
the instance, or which raised; an item listed with a known defect that
raises exactly that exception is recorded as `known_defect`, kept out of
`failed`, and still lowers `ok_frac`.  The run record, with the
environment, the generated instances and every item, goes to
`.bench_out/<workload>-seed<N>-trace<T>.json`; traced spans go next to it.
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

import numpy as np

import spans

HERE = Path(__file__).resolve().parent
WORKLOADS = ("campaigns", "kernel-sweep", "curve-audit")
RUN_LIMIT_S = 170.0  # a run must end within 180 s

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("ok_frac", "ratio"),
]

GRID_BLOCK_CELLS = 1 << 20  # cells per block of the curve grid count


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(args, root: Path, out_dir: Path, tag: str, trace: int, deadline: float) -> dict:
    out = out_dir / ("rep-%s.json" % tag)
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace), "--out", str(out)]
    if trace:
        cmd += ["--spans", str(out_dir / ("%s-seed%d-spans.npz" % (args.workload, args.seed)))]
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("no time left for repetition %s" % tag)
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), timeout=remaining,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("repetition %s timed out" % tag) from None
    if proc.returncode != 0:
        raise BenchError("repetition %s exited %d:\n%s" % (tag, proc.returncode, proc.stderr[-2000:]))
    with open(out) as fh:
        record = json.load(fh)
    out.unlink()
    return record


def read_text(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment() -> dict:
    cpu = None
    for line in (read_text("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        if not idx.startswith("index"):
            continue
        level = read_text(os.path.join(base, idx, "level"))
        kind = read_text(os.path.join(base, idx, "type"))
        size = read_text(os.path.join(base, idx, "size"))
        if kind != "Instruction":
            caches["L%s" % level] = size
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "cache_per_core": caches,
        "platform": platform.platform(),
    }


def computed_sizes(workload: str, field, l2: str | None) -> dict:
    """Table and grid-block sizes derived from the field parameters, not
    measured: the workload's largest field's tables, and for the curve audit
    the int16 digit accumulator and int64 product of one grid block."""
    p, e, d = field
    order, n_p = p ** (e * d), e * d
    out = {
        "label": "computed",
        "largest_field": "%d^%d^%d" % (p, e, d),
        "log_table_bytes": order * 8,
        "exp_table_bytes": (order - 1) * 8,
        "digit_table_bytes": order * n_p,
        "l2_per_core": l2,
    }
    if workload == "curve-audit":
        cells = max(1, GRID_BLOCK_CELLS // order) * order
        out["grid_block_cells"] = cells
        out["grid_block_acc_bytes"] = cells * n_p * 2
        out["grid_block_product_bytes"] = cells * 8
    return out


def tally(reps: list[dict]) -> tuple[int, int, int]:
    attempted = failed = ok = 0
    for rep in reps:
        for item in rep["items"]:
            attempted += 1
            failed += item["status"] in ("error", "wrong")
            ok += item["status"] == "ok"
    return attempted, failed, ok


def curve_rates(reps: list[dict]) -> dict:
    """ns per grid cell-term of the curve items of each field, from untraced
    item times (curve build and points at infinity included)."""
    fields = {inst["id"]: inst["field"] for inst in reps[0]["instances"]}
    seconds: dict = {}
    cell_terms: dict = {}
    for rep in reps:
        for item in rep["items"]:
            p, e, d = fields[item["id"]]
            key = "%d^%d^%d" % (p, e, d)
            seconds[key] = seconds.get(key, 0.0) + item["seconds"]
            cell_terms[key] = cell_terms.get(key, 0) + p ** (2 * e * d) * item["output"]["terms"]
    return {key: 1e9 * seconds[key] / cell_terms[key] for key in seconds}


def measure(args, root: Path, out_dir: Path, deadline: float) -> tuple[dict, dict]:
    start = time.monotonic()
    reps = []
    while True:
        t0 = time.monotonic()
        reps.append(run_child(args, root, out_dir, "timed%d" % len(reps), 0, deadline))
        now = time.monotonic()
        if now - start + (now - t0) > args.seconds:
            break
    attempted, _, ok = tally(reps)
    values = {
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "wall_s": statistics.median(rep["wall_s"] for rep in reps),
        "peak_rss_mib": statistics.median(rep["peak_rss_mib"] for rep in reps),
        "ok_frac": ok / attempted,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    detail = {
        "item_p50_ms": 1000.0 * statistics.median_low(it["seconds"] for rep in reps for it in rep["items"]),
        "items_per_rep": len(reps[0]["items"]),
        "reps": reps,
    }
    if args.workload == "curve-audit" and all(it["status"] == "ok" for rep in reps for it in rep["items"]):
        detail["curve_ns_per_cell_term"] = curve_rates(reps)
    return metrics, detail


def measure_traced(args, root: Path, out_dir: Path, deadline: float) -> tuple[dict, dict]:
    plain = run_child(args, root, out_dir, "untraced", 0, deadline)
    traced = run_child(args, root, out_dir, "traced", 1, deadline)
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.metric_specs()}
    return metrics, {"reps": [plain, traced], "accounting": traced["accounting"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "scatterpoly" / "__init__.py").is_file():
        sys.stderr.write("error: no scatterpoly sources under %s/src; run from a checkout root\n" % root)
        return 2
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    try:
        if args.trace:
            metrics, detail = measure_traced(args, root, out_dir, deadline)
        else:
            metrics, detail = measure(args, root, out_dir, deadline)
    except BenchError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 1

    reps = detail["reps"]
    attempted, failed, _ = tally(reps)
    same_inputs = all(rep["instances"] == reps[0]["instances"] for rep in reps)
    correct = failed == 0 and same_inputs
    if "accounting" in detail:
        correct &= abs(detail["accounting"]["residual_s"]) < 1e-6
    env = environment()
    record = {
        "args": vars(args),
        "environment": env,
        "computed": computed_sizes(args.workload, reps[0]["largest_field"], env["cache_per_core"].get("L2")),
        "instances": reps[0]["instances"],
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        **{k: v for k, v in detail.items() if k != "reps"},
        "reps": [{k: v for k, v in rep.items() if k != "instances"} for rep in reps],
    }
    name = "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)
    with open(out_dir / name, "w") as fh:
        json.dump(record, fh, indent=1)
    for rep in reps:
        for item in rep["items"]:
            if item["status"] != "ok":
                sys.stderr.write("%s %s: %s\n" % (item["status"], item["id"],
                                                  item.get("error") or item.get("reason")))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
