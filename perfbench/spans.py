"""Span recorder for the traced benchmark run.

The recorder wraps library functions from outside the package, at the
module attribute where their callers look them up (`avcodes.decoder.c_map`
is the name `decode` calls, `avcodes.codes.c_map` the one the encoders
call).  Each span keeps its name, parent, start and end, and the field
operations counted in its own `count_ops` scope.  Scopes nest and shadow,
so a span's counts are its own work and the sum over an operation's spans
is the operation's exact total.  Spans stay in memory until the run ends.

A span's self time is its duration minus the durations of its children;
the run is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager

from avcodes.field import count_ops

# module -> names looked up there by the library or by the benchmark
WRAP_SITES = {
    "avcodes.field": ("build_field",),
    "avcodes.codes": (
        "make_code",
        "feng_rao_bound",
        "encode_systematic",
        "encode_dual_nonsystematic",
        "parity_check",
        "c_inverse",
        "c_map",
        "dft",
        "vanishing_ideal_gb",
    ),
    "avcodes.decoder": (
        "decode",
        "erasure_locator",
        "bms",
        "syndrome_array",
        "solve_affine",
        "c_map",
        "dft",
        "parity_check",
        "vanishing_ideal_gb",
        "reduce_basis",
        "feng_rao_bound",
    ),
    "avcodes.recurrence": ("extend", "idft"),
}

OP_KINDS = ("setup", "encode", "decode")

# (name, unit, better) of every per-layer metric the traced run reports
PER_LAYER = (
    ("decode.decoder.erasure_locator.self_ms", "ms", "lower"),
    ("decode.decoder.bms.self_ms", "ms", "lower"),
    ("decode.decoder.solve_affine.calls", "count", "lower"),
    ("decode.decoder.solve_affine.self_ms", "ms", "lower"),
    ("decode.groebner.vanishing_ideal_gb.calls", "count", "lower"),
    ("decode.groebner.vanishing_ideal_gb.self_ms", "ms", "lower"),
    ("decode.groebner.reduce_basis.self_ms", "ms", "lower"),
    ("decode.decoder.syndrome_array.self_ms", "ms", "lower"),
    ("decode.decoder.decode.self_ms", "ms", "lower"),
    ("decode.transform.dft.self_ms", "ms", "lower"),
    ("decode.transform.idft.self_ms", "ms", "lower"),
    ("decode.recurrence.extend.self_ms", "ms", "lower"),
    ("decode.recurrence.c_map.self_ms", "ms", "lower"),
    ("decode.recurrence.c_inverse.self_ms", "ms", "lower"),
    ("decode.codes.parity_check.self_ms", "ms", "lower"),
    ("encode.recurrence.extend.self_ms", "ms", "lower"),
    ("encode.transform.idft.self_ms", "ms", "lower"),
    ("encode.transform.dft.self_ms", "ms", "lower"),
    ("encode.codes.encode_systematic.self_ms", "ms", "lower"),
    ("decode.field.addsub", "count", "lower"),
    ("decode.field.muldiv", "count", "lower"),
    ("encode.field.addsub", "count", "lower"),
    ("encode.field.muldiv", "count", "lower"),
    ("setup.field.build_field.s", "s", "lower"),
    ("setup.groebner.vanishing_ideal_gb.s", "s", "lower"),
    ("setup.codes.feng_rao_bound.s", "s", "lower"),
    ("setup.codes.make_code.self_s", "s", "lower"),
    ("decode.erasure_share", "frac", "higher"),
    ("trace.overhead_frac", "frac", "lower"),
)


def span_name(fn) -> str:
    """`<module>.<function>` of the defining module, e.g. `recurrence.c_map`."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def span_names() -> set[str]:
    """Names of every span the wrappers can record."""
    return {
        span_name(getattr(importlib.import_module(modname), attr))
        for modname, attrs in WRAP_SITES.items()
        for attr in attrs
    }


class Recorder:
    """Spans of one traced run; records only while `recording` is set."""

    def __init__(self):
        # [name, parent index, start, end, addsub, muldiv]; -1 marks a root
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.recording = False

    @contextmanager
    def span(self, name: str):
        if not self.recording:
            yield
            return
        idx = len(self.spans)
        rec = [name, self._stack[-1] if self._stack else -1, 0.0, 0.0, 0, 0]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            with count_ops() as ops:
                rec[2] = time.perf_counter()
                try:
                    yield
                finally:
                    rec[3] = time.perf_counter()
            rec[4], rec[5] = ops.addsub, ops.muldiv
        finally:
            self._stack.pop()

    @contextmanager
    def paused(self):
        """Run library calls (the output checks) without recording them."""
        was, self.recording = self.recording, False
        try:
            yield
        finally:
            self.recording = was

    def _wrap(self, fn):
        name = span_name(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    @contextmanager
    def installed(self):
        """Wrap every site in WRAP_SITES and record; restore on exit."""
        saved = []
        try:
            for modname, attrs in WRAP_SITES.items():
                mod = importlib.import_module(modname)
                for attr in attrs:
                    fn = getattr(mod, attr)
                    saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(fn))
            self.recording = True
            yield self
        finally:
            self.recording = False
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def self_times(self) -> list[float]:
        out = [end - start for _n, _p, start, end, _a, _m in self.spans]
        for _n, parent, start, end, _a, _m in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def roots(self) -> list[int]:
        """Root index of every span (the operation it belongs to)."""
        out = []
        for i, (_n, parent, *_rest) in enumerate(self.spans):
            out.append(i if parent < 0 else out[parent])
        return out

    def stats(self) -> dict:
        """Per-operation totals keyed `<op>.<module>.<function>.<stat>`.

        Stats are calls, self_ms, self_s and s (inclusive seconds), each
        divided by the number of operations of that kind, plus
        `<op>.field.addsub` and `<op>.field.muldiv`.
        """
        selfs = self.self_times()
        roots = self.roots()
        nops = {kind: 0 for kind in OP_KINDS}
        sums: dict[str, float] = {}

        def add(key, v):
            sums[key] = sums.get(key, 0) + v

        for i, (name, parent, start, end, addsub, muldiv) in enumerate(self.spans):
            kind = self.spans[roots[i]][0]
            if parent < 0:
                nops[kind] += 1
            else:
                add(f"{kind}.{name}.calls", 1)
                add(f"{kind}.{name}.self_s", selfs[i])
                add(f"{kind}.{name}.s", end - start)
            add(f"{kind}.field.addsub", addsub)
            add(f"{kind}.field.muldiv", muldiv)
        out = {}
        for key, v in sums.items():
            n = nops[key.split(".", 1)[0]]
            out[key] = v / n
            if key.endswith(".self_s"):
                out[key[: -len("_s")] + "_ms"] = 1000 * v / n
        return out

    def dump(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                {"fields": ["name", "parent", "start", "end", "addsub", "muldiv"],
                 "spans": self.spans},
                fh,
                separators=(",", ":"),
            )

