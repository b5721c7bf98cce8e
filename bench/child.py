"""One repetition of a workload in a fresh process.

    python3 bench/child.py --workload NAME --seed N --trace 0|1
                           --out RECORD.json [--spans SPANS.npz]

Set-up (import, then every field, table and embedding through public calls)
is timed from the top of this file.  The instance list is then generated
from the seed, every item runs once with tables warm, and the outputs are
checked after the timed phase.  With `--trace 1` the public functions are
wrapped from set-up to the end of the timed phase and the per-layer metrics
go into the record.  The record is written as JSON.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import scatterpoly  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(scatterpoly.__file__).startswith(src + os.sep):
        sys.stderr.write("scatterpoly was imported from %s, not from %s\n" % (scatterpoly.__file__, src))
        return 2

    wl = workloads.WORKLOADS[args.workload]
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
        tracer.mark("setup")
    workloads.build_tables(wl.fields, wl.embeds)
    setup_s = time.perf_counter() - T_START
    if tracer:
        tracer.mark("generate")
    insts = wl.instances(args.seed)
    prepared = [wl.prepare(inst) for inst in insts]
    if tracer:
        tracer.mark("timed")
    items = []
    outs = []
    clock = time.perf_counter
    t0 = clock()
    for inst, prep in zip(insts, prepared):
        ti = clock()
        try:
            out, err = wl.run(prep), None
        except Exception as exc:  # an item that raises is recorded, not fatal
            out, err = None, exc
        items.append({"id": inst["id"], "seconds": clock() - ti})
        outs.append((out, err))
    wall_s = clock() - t0
    record = {"setup_s": setup_s, "wall_s": wall_s, "items": items, "instances": insts,
              "largest_field": max(wl.fields, key=lambda f: f[0] ** (f[1] * f[2]))}
    if tracer:
        tracer.uninstall()
        record["layers"], record["accounting"] = tracer.layer_metrics(wall_s)
        if args.spans:
            tracer.save(args.spans)
    for inst, item, (out, err) in zip(insts, items, outs):
        if err is not None:
            item["error"] = "%s: %s" % (type(err).__name__, err)
            known = inst.get("known_defect") == type(err).__name__
            item["status"] = "known_defect" if known else "error"
            continue
        item["output"] = out
        try:
            reason = wl.check(inst, out)
        except Exception as exc:  # a malformed output fails its item
            reason = "check raised %s: %s" % (type(exc).__name__, exc)
        item["status"] = "ok" if reason is None else "wrong"
        if reason is not None:
            item["reason"] = reason
    record["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.out, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
