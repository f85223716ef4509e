"""Per-layer timing from outside the program.

The traced run replaces each public function listed in ``TARGETS`` by a
wrapper at every ``qmrand`` module attribute that holds it (for example both
``qmrand.cli.solve_primal`` and ``qmrand.sdp.solve_primal``), so the wrapper
is what each caller resolves.  A wrapper records a span (name, start, end,
parent span, item id, status) in memory; the spans are written out when the
benchmark ends.  The wrappers are installed only for the traced passes and
removed after each, so untraced passes run the program unmodified.

A span's self time is its duration minus the durations of its direct child
spans; the program is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple


def _solve_attrs(result):
    return (result.iterations, result.restored, result.gap)


def _p_secr_attrs(result):
    return (result.converged,)


# (module under qmrand, function, what to keep from its result)
TARGETS = (
    ("cli", "main", None),
    ("jsonio", "povm_from_json", None),
    ("jsonio", "dumps", None),
    ("closed_form", "pguess_star_certified", None),
    ("sdp", "solve_primal", _solve_attrs),
    ("sdp", "minimize_over_states", None),
    ("sdp", "verify_dual_certificate", None),
    ("sdp", "build_dual_certificate_noisy_projective", None),
    ("sdp", "complementary_slackness_residual", None),
    ("entropy", "p_secr", _p_secr_attrs),
    ("entropy", "conditional_min_entropy", None),
    ("entropy", "conditional_vn_entropy", None),
    ("entropy", "eve_ensemble_from_decomposition", None),
    ("decompositions", "sqrt_decomposition_qudit", None),
    ("decompositions", "verify_decomposition", None),
    ("linalg", "matrix_sqrt", None),
    ("linalg", "fidelity", None),
)

# The per-layer metrics, in the order of BENCHMARK.json: (name, unit, better).
PER_LAYER = (
    ("sdp.solve_primal.calls", "count", "lower"),
    ("sdp.solve_primal.self_s", "s", "lower"),
    ("sdp.solve_primal.newton_steps", "count", "lower"),
    ("sdp.solve_primal.s_per_newton_step", "s", "lower"),
    ("sdp.solve_primal.failed", "count", "lower"),
    ("sdp.solve_primal.restored", "count", "lower"),
    ("sdp.solve_primal.gap_max", "1", "lower"),
    ("sdp.minimize_over_states.calls", "count", "lower"),
    ("sdp.minimize_over_states.self_s", "s", "lower"),
    ("sdp.solves_per_search", "count", "lower"),
    ("sdp.verify_dual_certificate.self_s", "s", "lower"),
    ("sdp.build_dual_certificate_noisy_projective.self_s", "s", "lower"),
    ("sdp.complementary_slackness_residual.self_s", "s", "lower"),
    ("entropy.p_secr.calls", "count", "lower"),
    ("entropy.p_secr.self_s", "s", "lower"),
    ("entropy.p_secr.unconverged", "count", "lower"),
    ("entropy.conditional_vn_entropy.self_s", "s", "lower"),
    ("entropy.eve_ensemble_from_decomposition.self_s", "s", "lower"),
    ("linalg.matrix_sqrt.calls", "count", "lower"),
    ("linalg.matrix_sqrt.self_s", "s", "lower"),
    ("linalg.fidelity.calls", "count", "lower"),
    ("decompositions.sqrt_decomposition_qudit.self_s", "s", "lower"),
    ("decompositions.verify_decomposition.self_s", "s", "lower"),
    ("closed_form.pguess_star_certified.self_s", "s", "lower"),
    ("jsonio.povm_from_json.self_s", "s", "lower"),
    ("jsonio.dumps.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    item: str
    status: str
    attrs: tuple | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.passes: list[tuple[int, int]] = []   # span index range of each traced pass
        self.item = ""
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn, annotate):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = Span(name, start, end, parent, self.item, type(exc).__name__, None)
                raise
            end = time.perf_counter()
            stack.pop()
            attrs = annotate(result) if annotate else None
            spans[sid] = Span(name, start, end, parent, self.item, "ok", attrs)
            return result

        return traced

    def _install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "qmrand" or n.startswith("qmrand.")]
        for module, function, annotate in TARGETS:
            fn = getattr(sys.modules[f"qmrand.{module}"], function)
            wrapper = self._wrap(f"{module}.{function}", fn, annotate)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        self._patched.append((mod, attr, fn))
                        setattr(mod, attr, wrapper)

    def _uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    @contextmanager
    def tracing(self):
        """Trace the calls made inside the block as one pass."""
        first = len(self.spans)
        self._install()
        try:
            yield
        finally:
            self._uninstall()
            self.passes.append((first, len(self.spans)))

    def write_csv(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,name,start_s,end_s,parent,item,status\n")
            for sid, s in enumerate(self.spans):
                fh.write(f"{sid},{s.name},{s.start - origin:.9f},{s.end - origin:.9f},"
                         f"{s.parent},{s.item},{s.status}\n")

    def _pass_metrics(self, first: int, last: int) -> dict[str, float]:
        spans = self.spans
        child = defaultdict(float)
        for s in spans[first:last]:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        calls, self_s = Counter(), defaultdict(float)
        for sid in range(first, last):
            s = spans[sid]
            calls[s.name] += 1
            self_s[s.name] += (s.end - s.start) - child[sid]

        def in_search(s: Span) -> bool:
            while s.parent >= 0:
                s = spans[s.parent]
                if s.name == "sdp.minimize_over_states":
                    return True
            return False

        solves = [s for s in spans[first:last] if s.name == "sdp.solve_primal"]
        solved = [s for s in solves if s.status == "ok"]
        steps = sum(s.attrs[0] for s in solved)
        searches = calls["sdp.minimize_over_states"]
        metrics = {
            "sdp.solve_primal.newton_steps": steps,
            "sdp.solve_primal.s_per_newton_step": self_s["sdp.solve_primal"] / steps if steps else 0.0,
            "sdp.solve_primal.failed": len(solves) - len(solved),
            "sdp.solve_primal.restored": sum(1 for s in solved if s.attrs[1]),
            "sdp.solve_primal.gap_max": max((s.attrs[2] for s in solved), default=0.0),
            "sdp.solves_per_search": (
                sum(1 for s in solves if in_search(s)) / searches if searches else 0.0
            ),
            "entropy.p_secr.unconverged": sum(
                1 for s in spans[first:last]
                if s.name == "entropy.p_secr" and s.status == "ok" and not s.attrs[0]
            ),
        }
        for name, _, _ in PER_LAYER:
            layer_fn, _, stat = name.rpartition(".")
            if stat == "calls":
                metrics[name] = calls[layer_fn]
            elif stat == "self_s":
                metrics[name] = self_s[layer_fn]
        return metrics

    def layer_metrics(self) -> dict[str, float]:
        """Lower median over the traced passes of each per-layer metric.

        Counts are identical in every pass of a run (the program is
        deterministic), so this is the count of any one pass.
        """
        per_pass = [self._pass_metrics(first, last) for first, last in self.passes]
        return {name: statistics.median_low(m[name] for m in per_pass) for name in per_pass[0]}
