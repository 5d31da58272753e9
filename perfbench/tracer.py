"""Spans and counters recorded from outside fracpot.

Nothing in fracpot is instrumented.  The tracer replaces functions by timed
wrappers in every ``fracpot`` module namespace that binds them: a
``from .riesz import riesz_potential_field`` in ``fracpot.solver`` binds the
name at import time, so the wrapper must be installed in the calling module,
not only in the defining one.  A target that no longer exists is recorded as
missing and skipped; its metrics then read as zero work.

Real-FFT entry points of ``numpy.fft`` and ``scipy.fft`` are wrapped by
counters (no spans, to keep the overhead low).  They must be installed
before fracpot is imported, so that ``from numpy.fft import rfftn`` style
imports bind the counting wrapper too.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

# span name -> (defining module, attribute path)
SPAN_TARGETS = {
    "riesz.potential_field": ("fracpot.riesz", "riesz_potential_field"),
    "riesz.gradient_field": ("fracpot.riesz", "riesz_gradient_field"),
    "riesz.potential_measure": ("fracpot.riesz", "riesz_potential_measure"),
    "riesz.gradient_measure": ("fracpot.riesz", "riesz_gradient_measure"),
    "capacity.wolff_ratio": ("fracpot.capacity", "wolff_ratio"),
    "capacity.scale_measure_admissible": ("fracpot.capacity", "scale_measure_admissible"),
    "capacity.estimate": ("fracpot.capacity", "estimate_ball_capacity"),
    "solver.picard_solve": ("fracpot.solver", "picard_solve"),
    "solver.representation_residual": ("fracpot.solver", "representation_residual"),
    "solver.sandwich_check": ("fracpot.solver", "sandwich_check"),
    "solver.gradient_bound_check": ("fracpot.solver", "gradient_bound_check"),
    "fraclap.weak_residual": ("fracpot.fraclap", "weak_residual"),
    "cli.solve": ("fracpot.cli", "cmd_solve"),
    "cli.verify": ("fracpot.cli", "cmd_verify"),
    "cli.diagnostics": ("fracpot.cli", "cmd_diagnostics"),
    "cli.capacity": ("fracpot.cli", "cmd_capacity"),
    "cli.check_results": ("fracpot.cli", "_check_results"),
    "diagnostics.report": ("fracpot.diagnostics", "diagnostics_report"),
    "diagnostics.quasinorm": ("fracpot.diagnostics", "marcinkiewicz_quasinorm"),
    "diagnostics.sensitivity": ("fracpot.diagnostics", "marcinkiewicz_sensitivity"),
    "diagnostics.decay_fit": ("fracpot.diagnostics", "decay_fit"),
    "io.write_field": ("fracpot.io", "write_field"),
    "io.read_field": ("fracpot.io", "read_field"),
    "core.as_density": ("fracpot.core", "Measure.as_density"),
}

# a-posteriori checks that picard_solve runs after its iteration loop
PICARD_CHECKS = {
    "solver.representation_residual",
    "solver.sandwich_check",
    "solver.gradient_bound_check",
    "fraclap.weak_residual",
}
# the convolutions of the iteration loop itself
PICARD_STEP_CHILDREN = {"riesz.potential_field", "riesz.gradient_field"}

FFT_FORWARD = ("rfft", "rfft2", "rfftn")
FFT_INVERSE = ("irfft", "irfft2", "irfftn")


def _resolve(module_name: str, attr_path: str):
    """(owner, attribute name, object) for a dotted attribute, or None."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = attr_path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, parts[-1], None)
    if not callable(obj):
        return None
    return owner, parts[-1], obj


def replace_everywhere(module_name: str, attr_path: str, make_wrapper) -> bool:
    """Swap a fracpot function for make_wrapper(fn) in every binding of it.

    Returns False, changing nothing, when the target does not exist.
    """
    found = _resolve(module_name, attr_path)
    if found is None:
        return False
    owner, name, fn = found
    wrapper = make_wrapper(fn)
    if inspect.isclass(owner):
        setattr(owner, name, wrapper)
        return True
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fracpot" or mod_name.startswith("fracpot.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is fn:
                setattr(mod, attr, wrapper)
    return True


def _param_names(fn) -> list[str]:
    try:
        return list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return []


def _arg(args, kwargs, names, index):
    if index < len(args):
        return args[index]
    if index < len(names):
        return kwargs.get(names[index])
    return None


def _transform_points(fn_name: str, args, kwargs, result) -> int:
    """Points M of the full-length transform, for the 5 M log2 M flop count."""
    inverse = fn_name.startswith("i")
    a = args[0] if args else kwargs.get("a", kwargs.get("x"))
    out = result if inverse else a
    shape = getattr(out, "shape", ())
    ndim = len(shape)
    if ndim == 0:
        return 0
    if fn_name.endswith("n") or fn_name.endswith("2"):
        sizes = args[1] if len(args) > 1 else kwargs.get("s")
        axes = args[2] if len(args) > 2 else kwargs.get("axes")
        if axes is None:
            if fn_name.endswith("2"):
                axes = (-2, -1)
            elif sizes is not None:
                axes = tuple(range(-len(sizes), 0))
            else:
                axes = tuple(range(ndim))
        if sizes is not None and not inverse:
            return math.prod(int(v) for v in sizes)
        return math.prod(int(shape[ax]) for ax in axes)
    size = args[1] if len(args) > 1 else kwargs.get("n")
    axis = args[2] if len(args) > 2 else kwargs.get("axis", -1)
    if size is not None and not inverse:
        return int(size)
    return int(shape[axis])


class Tracer:
    """In-memory spans (name, start, end, parent, key) and counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    # -- FFT counters -------------------------------------------------------

    def count_ffts(self) -> None:
        """Wrap the real-FFT entry points of numpy.fft and scipy.fft."""
        for mod_name in ("numpy.fft", "scipy.fft"):
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                self.missing.append(mod_name)
                continue
            for fn_name in FFT_FORWARD + FFT_INVERSE:
                fn = getattr(mod, fn_name, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{fn_name}")
                    continue
                setattr(mod, fn_name, self._fft_wrapper(mod_name, fn_name, fn))

    def _fft_wrapper(self, mod_name: str, fn_name: str, fn):
        counts = self.counts
        direction = "fft.inverse" if fn_name in FFT_INVERSE else "fft.forward"
        backend = f"fft.calls.{mod_name}"
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            t0 = clock()
            result = fn(*args, **kwargs)
            counts["fft.s"] += clock() - t0
            counts[direction] += 1
            counts[backend] += 1
            m = _transform_points(fn_name, args, kwargs, result)
            if m > 1:
                counts["fft.flop"] += 5.0 * m * math.log2(m)
            return result

        return counted

    # -- spans ----------------------------------------------------------------

    def install(self) -> None:
        for name, (module_name, attr) in SPAN_TARGETS.items():
            after = self._after_hook(name)
            if not replace_everywhere(
                module_name, attr, lambda fn, n=name, a=after: self._span_wrapper(n, fn, a)
            ):
                self.missing.append(f"{module_name}.{attr}")

    def _after_hook(self, name: str):
        counts = self.counts
        if name in ("riesz.potential_field", "riesz.gradient_field"):
            # the plan cache is keyed by grid and order; remember both so
            # the first (cold) call per key can be told from warm ones
            def key(span, names, args, kwargs, result):
                field = _arg(args, kwargs, names, 0)
                grid = getattr(field, "grid", None)
                order = _arg(args, kwargs, names, 1)
                span[4] = (name, repr(grid), repr(order))
            return key
        if name == "solver.picard_solve":
            def iterations(span, names, args, kwargs, result):
                report = result[-1] if isinstance(result, tuple) else None
                counts["solver.iterations"] += int(getattr(report, "iterations", 0) or 0)
            return iterations
        if name in ("io.write_field", "io.read_field"):
            counter = "io.bytes_written" if name == "io.write_field" else "io.bytes_read"

            def nbytes(span, names, args, kwargs, result):
                index = names.index("path") if "path" in names else (1 if name == "io.write_field" else 0)
                path = _arg(args, kwargs, names, index)
                try:
                    counts[counter] += os.path.getsize(path)
                except (OSError, TypeError):
                    pass
            return nbytes
        return None

    def _span_wrapper(self, name: str, fn, after):
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter
        names = _param_names(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(span, names, args, kwargs, result)
            return result

        return traced

    # -- summary ----------------------------------------------------------------

    def summary(self) -> dict:
        """Per-process totals; summing these over processes is meaningful."""
        spans = self.spans
        calls: Counter = Counter()
        inclusive: Counter = Counter()
        self_time: Counter = Counter()
        children: dict[int, list[int]] = defaultdict(list)
        for i, (name, t0, t1, parent, _key) in enumerate(spans):
            calls[name] += 1
            self_time[name] += t1 - t0
            if parent >= 0:
                children[parent].append(i)
                self_time[spans[parent][0]] -= t1 - t0
        for i, (name, t0, t1, parent, _key) in enumerate(spans):
            # a recursive call is already inside its outermost span
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                inclusive[name] += t1 - t0

        picard_step = 0.0
        checks = 0.0
        capacity_potential_calls = 0
        for i, (name, t0, t1, parent, _key) in enumerate(spans):
            if name == "solver.picard_solve":
                picard_step += t1 - t0
                for c in children[i]:
                    c_name, c0, c1 = spans[c][:3]
                    if c_name not in PICARD_STEP_CHILDREN:
                        picard_step -= c1 - c0
                    if c_name in PICARD_CHECKS:
                        checks += c1 - c0
            elif name == "riesz.potential_field":
                p = parent
                while p >= 0 and spans[p][0] != "capacity.estimate":
                    p = spans[p][3]
                capacity_potential_calls += p >= 0

        by_key: dict[tuple, list[float]] = defaultdict(list)
        for name, t0, t1, _parent, key in spans:
            if key is not None:
                by_key[key].append(t1 - t0)
        plan_build = 0.0
        for durations in by_key.values():
            if len(durations) > 1:
                plan_build += durations[0] - statistics.median(durations[1:])

        out = {
            "calls": dict(calls),
            "inclusive_s": dict(inclusive),
            "self_s": dict(self_time),
            "picard_step_total_s": picard_step,
            "picard_checks_s": checks,
            "capacity_potential_calls": capacity_potential_calls,
            "plan_build_s": plan_build,
            "spans": len(spans),
            "missing": list(self.missing),
        }
        out.update({k: v for k, v in self.counts.items()})
        return out
