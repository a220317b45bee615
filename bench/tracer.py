"""Outside-in span tracer for the ariki_koike layers.

`Tracer.install()` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent) and the layer's counters, in
every ariki_koike module that holds the function by name.  `uninstall()`
puts the originals back.  Nothing under src/ is edited: the spans sit at the
boundaries the benchmark can reach from its own files.

Spans are kept in memory.  `layer_metrics()` turns the spans of one job into
per-layer numbers; self time is a span's duration minus the time covered by
its direct children (spans nest, because the program runs on one thread).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

PACKAGE = "ariki_koike"

LINALG_FUNCTIONS = (
    "solve", "nullspace", "rank", "inverse", "row_echelon",
    "row_space_basis", "in_row_space", "determinant",
)
SPECHT_FUNCTIONS = (
    "specht_module", "gram_matrix", "composition_factors", "spin", "module_fingerprint",
)
# Every MoritaSuite.verify_* check; each gets a `morita.<check>.s` metric.
MORITA_CHECKS = (
    "counting", "intertwining", "annihilation", "kernel_vanishing",
    "leading_terms", "bases", "filtration", "hom_vanishing", "end_basis",
    "regular_decomposition", "theta_map", "bimodule", "faithfulness",
    "free_decomposition", "pair_bijection", "factorization",
)


class Tracer:
    """Wraps the layer entry points and records spans while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: dict = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    # -- wrapping ---------------------------------------------------------------

    def _wrap(self, name: str, fn, count=None):
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if count is not None:
                count(tracer, name, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_function(self, home: str, attr: str, name: str, count=None,
                        include_home: bool = True) -> None:
        """Wrap `home.attr` wherever a package module holds it, under any alias."""
        original = getattr(sys.modules[home], attr)
        traced = self._wrap(name, original, count)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            if mod_name == home and not include_home:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, traced)

    def _patch_method(self, cls, attr: str, name: str, count=None) -> None:
        if attr not in vars(cls):
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._patch(cls, attr, self._wrap(name, vars(cls)[attr], count))

    def install(self) -> None:
        """Wrap every traced entry point of the imported package."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        algebra = sys.modules[PACKAGE + ".algebra"]
        morita = sys.modules[PACKAGE + ".morita"]
        self.missing = []

        Element = algebra.Element
        traced_mul = self._wrap("algebra.mul", Element.__mul__, _count_terms)
        plain_mul = Element.__mul__

        def mul(a, b):
            # Element * scalar is a rescale, not a product of the engine.
            return traced_mul(a, b) if isinstance(b, Element) else plain_mul(a, b)

        self._patch(Element, "__mul__", mul)
        self._patch_method(algebra.ArikiKoikeAlgebra, "left_mult_matrix",
                           "algebra.left_mult_matrix")
        transition = algebra.TransitionMatrix
        self._patch_method(transition, "__init__", "algebra.transition.build")
        self._patch_method(transition, "inverse", "algebra.transition.inverse")
        self._patch_method(transition, "express", "algebra.transition.express")

        # Calls inside linalg are not calls into the layer: wrap the importers only.
        for fn in LINALG_FUNCTIONS:
            self._patch_function(PACKAGE + ".linalg", fn, "linalg." + fn,
                                 _matrix_size, include_home=False)
        for fn in SPECHT_FUNCTIONS:
            count = _count_factors if fn == "composition_factors" else None
            self._patch_function(PACKAGE + ".specht", fn, "specht." + fn, count)
        self._patch_function(PACKAGE + ".schur", "hom_space", "schur.hom_space")

        suite = morita.MoritaSuite
        self._patch_method(suite, "splitting_complement", "morita.splitting_complement")
        for check in MORITA_CHECKS:
            self._patch_method(suite, "verify_" + check, "morita." + check)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reduction --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers for the spans recorded since the last reset."""
        return layer_metrics(self.spans, self.counts)


def _matrix_size(tracer: Tracer, name: str, args, result) -> None:
    counts, m = tracer.counts, args[0]
    rows = len(m)
    counts[name + ".cells"] += rows * (len(m[0]) if rows else 0)
    counts[name + ".rows_max"] = max(counts[name + ".rows_max"], rows)


def _count_terms(tracer: Tracer, name: str, args, result) -> None:
    a, b = args
    tracer.counts[name + ".terms_in"] += len(a.terms) * len(b.terms)
    tracer.counts[name + ".terms_out"] += len(result.terms)


def _count_factors(tracer: Tracer, name: str, args, result) -> None:
    # The chop recurses; count the factors of the outermost call only.
    if all(tracer.spans[i][0] != name for i in tracer._stack):
        tracer.counts["specht.chop.factors"] += len(result)


def self_times(spans: list[list]) -> list[float]:
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _) in enumerate(spans)]


def layer_metrics(spans: list[list], counts: dict) -> dict[str, float]:
    calls: dict = defaultdict(int)
    total: dict = defaultdict(float)
    own: dict = defaultdict(float)
    for (name, start, end, _), s in zip(spans, self_times(spans)):
        calls[name] += 1
        own[name] += s
        total[name] += end - start
    out: dict[str, float] = {}

    def span_metrics(name: str, *kinds: str) -> None:
        values = {"calls": calls[name], "self_s": own[name], "s": total[name]}
        for kind in kinds:
            out[f"{name}.{kind}"] = values[kind]

    span_metrics("algebra.mul", "calls", "self_s")
    out["algebra.mul.terms_in"] = counts["algebra.mul.terms_in"]
    out["algebra.mul.terms_out"] = counts["algebra.mul.terms_out"]
    span_metrics("algebra.left_mult_matrix", "calls", "self_s")
    out["algebra.transition.build_s"] = total["algebra.transition.build"]
    out["algebra.transition.inverse_s"] = total["algebra.transition.inverse"]
    span_metrics("algebra.transition.express", "calls", "self_s")
    for fn in LINALG_FUNCTIONS:
        name = "linalg." + fn
        span_metrics(name, "calls", "self_s")
        out[name + ".cells"] = counts[name + ".cells"]
        out[name + ".rows_max"] = counts[name + ".rows_max"]
    for fn in SPECHT_FUNCTIONS:
        span_metrics("specht." + fn, "calls", "self_s")
    out["specht.chop.factors"] = counts["specht.chop.factors"]
    span_metrics("schur.hom_space", "calls", "self_s")
    span_metrics("morita.splitting_complement", "calls", "self_s")
    for check in MORITA_CHECKS:
        span_metrics("morita." + check, "calls", "s")
    return out


def combine(per_job: list[dict[str, float]]) -> dict[str, float]:
    """Sum the metrics of several jobs; maxima stay maxima, ratios are rederived."""
    out: dict[str, float] = {}
    for metrics in per_job:
        for key, value in metrics.items():
            if key.endswith(".rows_max"):
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    spins = out.get("specht.spin.calls", 0)
    out["specht.chop.useful_ratio"] = out.get("specht.chop.factors", 0) / spins if spins else 0.0
    return out
