"""Spans around calls into gskit's public functions, recorded from outside.

Each traced name is wrapped where its callers look it up: the module
attribute (``kernels.ray_crossings`` is reached through the ``kernels``
module), every gskit module that imported the function by name
(``dynamics`` imports ``equilibria``/``classify`` that way), and the class
dict for methods.  Nothing inside the package changes.  Spans are kept in
memory and written when the pass ends; a span's self time is its duration
minus the durations of its wrapped children.
"""
from __future__ import annotations

import importlib
import json
import sys
import time
from collections import Counter

# (module, function) pairs wrapped by name in every gskit module binding them.
FUNCTIONS = [
    ("kernels", "integrate"), ("kernels", "ray_crossings"), ("kernels", "monodromy"),
    ("dynamics", "probe_region"), ("dynamics", "section_frame"),
    ("dynamics", "return_map"), ("dynamics", "limit_cycle_census"),
    ("dynamics", "cycle_at_radius"), ("dynamics", "integrate"),
    ("dynamics", "render_portrait"), ("dynamics", "manifold_from_infinity"),
    ("mapping", "region_map"), ("mapping", "map_to_csv"),
    ("continuation", "lpc_curve"), ("continuation", "continue_curve"),
    ("continuation", "homoclinic_F"), ("continuation", "separatrix_splitting"),
    ("bautin", "l2_gh_exact"), ("bautin", "gh_locate"), ("bautin", "l1_clw"),
    ("bautin", "l2_kuz"), ("bt", "bt_nondegeneracy"), ("poly", "resultant"),
    ("normalform", "poincare_normal_form"),
    ("equilibria", "equilibria"), ("equilibria", "classify"),
]
METHODS = [("svgplot", "SvgCanvas", "polyline"), ("svgplot", "SvgCanvas", "render")]

KERNEL_STATUS = {0: "OK", 1: "MAX_STEPS", 2: "UNDERFLOW", 4: "BOX_EXIT"}
PROBE_LABELS = ("outside", "1", "2", "3", "4", "5", "x")
PROBE_ERRORS = ("DomainError", "NoReturn", "StepUnderflow", "NotAnEquilibrium", "other")


def unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


class Tracer:
    def __init__(self):
        self.spans = []          # (id, parent, name, start, end, self_s, note)
        self.stack = []          # open spans: [id, name, start, child_s]
        self.counts = Counter()  # per-call facts observed at the boundary
        self.nested = Counter()  # (ancestor, name) -> calls made inside ancestor
        self._next = 0

    def call(self, name, fn, args, kwargs):
        sid = self._next
        self._next += 1
        parent = self.stack[-1][0] if self.stack else None
        for anc in {frame[1] for frame in self.stack}:
            self.nested[(anc, name)] += 1
        frame = [sid, name, time.perf_counter(), 0.0]
        self.stack.append(frame)
        note = None
        try:
            result = fn(*args, **kwargs)
            note = self._observe(name, result)
            return result
        except BaseException as exc:
            note = "raised:" + type(exc).__name__
            self._observe_error(name, exc)
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            dur = end - frame[2]
            if self.stack:
                self.stack[-1][3] += dur
            self.spans.append((sid, parent, name, frame[2], end, dur - frame[3], note))

    def _observe(self, name, result):
        c = self.counts
        if name == "kernels.ray_crossings":
            status, hits = result
            c[name + ".hits"] += len(hits)
            c[name + ".status." + KERNEL_STATUS.get(status, str(status))] += 1
            return status
        if name == "kernels.integrate":
            c[name + ".samples"] += len(result[4])
            return result[0]
        if name == "kernels.monodromy":
            return result[0]
        if name == "dynamics.probe_region":
            return "label:" + result.id
        if name in ("continuation.lpc_curve", "continuation.continue_curve"):
            c[name + ".points"] += len(result.points)
        return None

    def _observe_error(self, name, exc):
        if name == "dynamics.probe_region":
            kind = type(exc).__name__
            self.counts["dynamics.probe_region.raised."
                        + (kind if kind in PROBE_ERRORS else "other")] += 1

    def write(self, path):
        with open(path, "w") as fh:
            for sid, parent, name, start, end, self_s, note in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": start, "end": end, "self_s": self_s,
                                     "note": note}) + "\n")

    def layer_metrics(self) -> dict:
        calls, self_s, incl = Counter(), Counter(), Counter()
        labels_n, labels_s = Counter(), Counter()
        for _, _, name, start, end, s, note in self.spans:
            calls[name] += 1
            self_s[name] += s
            incl[name] += end - start
            if name == "dynamics.probe_region" and note and note.startswith("label:"):
                labels_n[note[6:]] += 1
                labels_s[note[6:]] += end - start
        c = self.counts
        m = {}

        def per(num, den):
            return num / den if den else 0.0

        for fn in ("ray_crossings", "monodromy", "integrate"):
            name = "kernels." + fn
            m[name + ".calls"] = calls[name]
            m[name + ".self_s"] = self_s[name]
            m[name + ".us_per_call"] = 1e6 * per(self_s[name], calls[name])
        rc = "kernels.ray_crossings"
        m[rc + ".hits_per_call"] = per(c[rc + ".hits"], calls[rc])
        for status in ("OK", "MAX_STEPS", "UNDERFLOW", "BOX_EXIT"):
            m[rc + ".status." + status] = c[rc + ".status." + status]
        m["kernels.integrate.samples_per_call"] = per(c["kernels.integrate.samples"],
                                                      calls["kernels.integrate"])
        pr = "dynamics.probe_region"
        m[pr + ".calls"] = calls[pr]
        m[pr + ".self_s"] = self_s[pr]
        for lab in PROBE_LABELS:
            m[f"{pr}.label.{lab}.calls"] = labels_n[lab]
            m[f"{pr}.label.{lab}.s"] = labels_s[lab]
        for kind in PROBE_ERRORS:
            m[f"{pr}.raised.{kind}"] = c[f"{pr}.raised.{kind}"]
        for fn in ("section_frame", "return_map", "limit_cycle_census",
                   "cycle_at_radius", "integrate", "render_portrait",
                   "manifold_from_infinity"):
            m[f"dynamics.{fn}.calls"] = calls["dynamics." + fn]
            m[f"dynamics.{fn}.self_s"] = self_s["dynamics." + fn]
        census = "dynamics.limit_cycle_census"
        m[census + ".return_maps_per_call"] = per(
            self.nested[(census, "dynamics.return_map")], calls[census])
        m["mapping.region_map.self_s"] = self_s["mapping.region_map"]
        m["mapping.map_to_csv.self_s"] = self_s["mapping.map_to_csv"]
        lpc = "continuation.lpc_curve"
        m[lpc + ".self_s"] = self_s[lpc]
        m[lpc + ".points"] = c[lpc + ".points"]
        m[lpc + ".return_maps_per_point"] = per(
            self.nested[(lpc, "dynamics.return_map")], c[lpc + ".points"])
        m[lpc + ".section_frames_per_point"] = per(
            self.nested[(lpc, "dynamics.section_frame")], c[lpc + ".points"])
        cc = "continuation.continue_curve"
        m[cc + ".calls"] = calls[cc]
        m[cc + ".self_s"] = self_s[cc]
        m[cc + ".points"] = c[cc + ".points"]
        hom = "continuation.homoclinic_F"
        m[hom + ".calls"] = calls[hom]
        m[hom + ".self_s"] = self_s[hom]
        m[hom + ".splittings_per_call"] = per(
            self.nested[(hom, "continuation.separatrix_splitting")], calls[hom])
        m["continuation.separatrix_splitting.self_s"] = \
            self_s["continuation.separatrix_splitting"]
        for fn in ("l2_gh_exact", "gh_locate", "l1_clw", "l2_kuz"):
            m[f"bautin.{fn}.calls"] = calls["bautin." + fn]
            m[f"bautin.{fn}.self_s"] = self_s["bautin." + fn]
        m["bt.bt_nondegeneracy.self_s"] = self_s["bt.bt_nondegeneracy"]
        for name in ("poly.resultant", "normalform.poincare_normal_form",
                     "equilibria.equilibria", "equilibria.classify"):
            m[name + ".calls"] = calls[name]
            m[name + ".self_s"] = self_s[name]
        for meth in ("polyline", "render"):
            name = "svgplot.SvgCanvas." + meth
            m[name + ".self_s"] = self_s[name]
        return m


def install(tracer: Tracer) -> None:
    """Wrap every traced name in every loaded gskit module that binds it."""
    for mod, _ in FUNCTIONS:
        importlib.import_module("gskit." + mod)
    modules = [m for n, m in sys.modules.items()
               if m is not None and (n == "gskit" or n.startswith("gskit."))]
    for mod, attr in FUNCTIONS:
        fn = getattr(importlib.import_module("gskit." + mod), attr)
        wrapper = _wrapper(tracer, f"{mod}.{attr}", fn)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is fn:
                    setattr(m, key, wrapper)
    for mod, cls_name, meth in METHODS:
        cls = getattr(importlib.import_module("gskit." + mod), cls_name)
        setattr(cls, meth, _wrapper(tracer, f"{mod}.{cls_name}.{meth}",
                                    getattr(cls, meth)))


def _wrapper(tracer, name, fn):
    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs)
    traced.__name__ = getattr(fn, "__name__", name)
    traced.__wrapped__ = fn
    return traced
