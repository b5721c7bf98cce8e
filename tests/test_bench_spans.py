"""The benchmark's span tracer wraps scatterpoly functions by name; every
name it lists must still exist, or a traced run fails with a KeyError."""

import importlib
import importlib.util
from pathlib import Path

from scatterpoly import gf

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_span_groups_name_existing_functions():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for _, modname, fnames, *_ in spans.GROUPS:
        module = importlib.import_module("scatterpoly." + modname)
        for fname in fnames:
            if "." in fname:
                cls_name, attr = fname.split(".")
                ok = attr in vars(getattr(gf, cls_name))
            else:
                ok = callable(getattr(module, fname, None))
            if not ok:
                missing.append(modname + "." + fname)
    assert missing == []
