"""Span tracer for the benchmark's traced runs.

Spans are recorded around the calls into each gammasym layer by wrapping
the package's public functions and methods from outside; nothing inside
``src/`` is changed.  A function is replaced in every gammasym module that
holds it, because ``cli`` and ``metrics`` import their collaborators by
name and wrapping only the defining module would miss those calls.

A span is ``[id, name, parent, op, start, end]`` with ``time.perf_counter``
stamps.  On Linux that clock is CLOCK_MONOTONIC, shared by every process,
so spans recorded in a child interpreter line up with the parent's.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import time

SPAN_FIELDS = ("id", "name", "parent", "op", "start", "end")


class Tracer:
    """Collects spans and per-op counters for one interpreter."""

    def __init__(self, op: int | None = None):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op = op
        self.counts: dict[str, int] = {}
        self.max_bits = 0

    def add(self, name: str, start: float, end: float, parent: int | None = None) -> list:
        """Record a span whose bounds were measured elsewhere."""
        span = [len(self.spans), name, parent, self.op, start, end]
        self.spans.append(span)
        return span

    def begin(self, name: str) -> list:
        parent = self.stack[-1][0] if self.stack else None
        span = self.add(name, time.perf_counter(), None, parent)
        self.stack.append(span)
        return span

    def end(self, span: list) -> None:
        span[5] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, k: int = 1) -> None:
        if self.op is not None:
            self.counts[name] = self.counts.get(name, 0) + k

    def spanned(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(tracer, args, result)`` runs on return."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if after is not None:
                after(self, args, result)
            return result

        return wrapper


def _bits(tracer: Tracer, args, result) -> None:
    rows = result if result and isinstance(result[0], list) else [result]
    for row in rows:
        for x in row:
            b = max(x.numerator.bit_length(), x.denominator.bit_length())
            if b > tracer.max_bits:
                tracer.max_bits = b


def _rendered(tracer: Tracer, args, result) -> None:
    if isinstance(result, str):
        tracer.count("serialize.bytes", len(result.encode("utf-8")))


def _signature(tracer: Tracer, args, result) -> None:
    tracer.count("linalg.signature_calls")


def _built(tracer: Tracer, args, result) -> None:
    table = args[0].structure_constants()
    tracer.count("liealg.table_terms", sum(len(t) for t in table.values()))


def install(tracer: Tracer) -> None:
    """Wrap every traced gammasym entry point; call once per process."""
    import gammasym
    from gammasym import cli, geometry, grading, liealg, linalg, metrics, serialize

    modules = (gammasym, cli, geometry, grading, liealg, linalg, metrics, serialize)

    def replace(orig, wrapped) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapped)

    functions = [
        (grading.verify_grading, "grading.verify", None),
        (grading.holonomy_span, "grading.holonomy", None),
        (metrics.invariant_family, "metrics.invariant_family", None),
        (metrics.naturally_reductive_subfamily, "metrics.refine", None),
        (metrics.is_adapted, "metrics.is_adapted", None),
        (metrics.lorentzian_search, "metrics.lorentz", None),
        (metrics.killing_metric_operator, "metrics.beta", None),
        (linalg.congruence_signature, "linalg.signature", _signature),
        (linalg.solve_matrix, "linalg.solve", _bits),
        (linalg.char_poly, "linalg.charpoly", _bits),
        (geometry.ambrose_singer_check, "geometry.ambrose", None),
        (geometry.sectional_table, "geometry.sectional", None),
        (geometry.geodesic_curve, "geometry.geodesic", None),
        (geometry.matrix_exp_numeric, "geometry.oracle", None),
        (cli.main, "cli", None),
    ]
    functions += [
        (getattr(serialize, name), "serialize.render", _rendered)
        for name in vars(serialize)
        if name == "dumps" or name.endswith(("_doc", "_text", "_csv"))
    ]
    for fn, name, after in functions:
        replace(fn, tracer.spanned(name, fn, after))

    lie = liealg.LieAlgebra
    lie.__init__ = tracer.spanned("liealg.build", lie.__init__, _built)
    lie.killing_form = tracer.spanned("liealg.killing", lie.killing_form)
    curve = geometry.GeodesicCurve
    curve.at = tracer.spanned("geometry.geodesic", curve.at)

    insert = linalg.RowReducer.insert

    @functools.wraps(insert)
    def counted_insert(self, row):
        pivot = insert(self, row)
        tracer.count("linalg.rows_inserted")
        if pivot is not None:
            tracer.count("linalg.pivots")
        return pivot

    linalg.RowReducer.insert = counted_insert

    scan = metrics.signature_scan

    @functools.wraps(scan)
    def counted_scan(family):
        for report in scan(family):
            tracer.count("metrics.lorentz_forms_tried")
            yield report

    replace(scan, counted_scan)


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import seconds from a ``python -X importtime`` log.

    ``total`` sums the cumulative time of every top-level import;
    ``numpy_scipy`` sums the outermost numpy or scipy subtrees.  The log is
    in post-order (children before their parent), indented two spaces per
    level.
    """
    stack: list[tuple[int, str, int, list]] = []
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].split(":")[1].strip().isdigit():
            continue
        cum = int(parts[1])
        field = parts[2][1:]
        name = field.lstrip()
        depth = (len(field) - len(name)) // 2
        children = []
        while stack and stack[-1][0] > depth:
            children.append(stack.pop())
        stack.append((depth, name, cum, children))

    def heavy(node) -> int:
        _, name, cum, children = node
        if name.split(".")[0] in ("numpy", "scipy"):
            return cum
        return sum(heavy(c) for c in children)

    return {
        "total": sum(node[2] for node in stack) / 1e6,
        "numpy_scipy": sum(heavy(node) for node in stack) / 1e6,
    }


def self_times(spans: list[list]) -> dict[str, list[float]]:
    """Per span name: [self seconds, calls].  Self time is the span's
    duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[2] is not None:
            child[s[2]] += s[5] - s[4]
    out: dict[str, list[float]] = {}
    for s in spans:
        row = out.setdefault(s[1], [0.0, 0])
        row[0] += s[5] - s[4] - child[s[0]]
        row[1] += 1
    return out
