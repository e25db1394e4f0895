"""Per-layer metrics from the spans of the traced items.

Counts and seconds are per traced item, so runs of different length compare.
``.s`` is inclusive time of the outermost span of that name (nested calls of
the same function are not counted twice); ``.self_s`` is span duration minus
the time its child spans cover.  Flop and byte figures of the spectral kernels
are computed from the matrix sizes with the dense LAPACK operation counts of
Golub and Van Loan (Matrix Computations, 4th ed., table 8.6.1): they are
computed, not measured.
"""

from __future__ import annotations

import math
import statistics

from tracing import LAYER_MODULES, SPECTRAL_PREFIX

ITEM = "bench.item"
PROCESS = "cli.process"
JSON_LOADS = "documents.json_loads"
# spans the benchmark itself opens; the rest wrap library functions
BENCH_SPANS = frozenset((ITEM, PROCESS, JSON_LOADS))
REINDEX = frozenset(f"operators.{f}" for f in (
    "vec", "mat", "partial_vec", "partial_mat", "partial_trace",
    "partial_transpose", "permute_systems", "kron"))
EMIT = frozenset(("documents.save_document", "documents.document_from_object",
                  "documents.document_bytes"))
PARSE = frozenset(("documents.load_document", "documents.object_from_document",
                   JSON_LOADS))
FUNCTION_CALLS = ("channels.link_product", "channels.validate_channel",
                  "breaking.ppt_test")
FUNCTION_SELF = ("channels.link_product", "channels.validate_channel",
                 "superchannels.validate_superchannel")
FUNCTION_INCLUSIVE = (
    "operators.psd_decompose", "operators.numeric_rank",
    "superchannels.gour_from_choi", "superchannels.memory_cost",
    "superchannels.realize", "superchannels.n_operators",
    "superchannels.f_theta_channel", "superchannels.apply_to_channel",
    "breaking.superchannel_breaking_report")
SELF_LAYERS = LAYER_MODULES + ("bench",)
# a traced item may cover its child spans only up to clock resolution
NESTING_SLACK_S = 1e-6
# the self times must explain at least this share of the traced items' wall
# time, measured outside the tracer; the rest is the tracer entering and
# leaving each item
MIN_COVERAGE = 0.99


def _flops_and_bytes(kernel, a):
    """Computed operation count and bytes touched of one kernel call."""
    m, n = a["m"], a["n"]
    k, big = min(m, n), max(m, n)
    item = 16 if a["complex"] else 8
    if kernel == "eigvalsh":
        flops, out = 4 * n ** 3 / 3, 8 * n
    elif kernel == "eigh":
        flops, out = 9 * n ** 3, 8 * n + item * n * n
    elif not a["vectors"]:
        flops, out = 4 * big * k * k - 4 * k ** 3 / 3, 8 * k
    elif a["full"]:
        flops = 4 * big * big * k + 8 * big * k * k + 9 * k ** 3
        out = 8 * k + item * (m * m + n * n)
    else:
        flops, out = 14 * big * k * k + 8 * k ** 3, 8 * k + item * k * (m + n)
    complex_factor = 4 if a["complex"] else 1
    return complex_factor * flops, item * m * n + out


def percentile(values, pct):
    """Nearest-rank percentile (``pct`` 100 is the maximum), as (value,
    number of samples above it)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100.0 - 1e-9))
    return ordered[rank - 1], len(ordered) - rank


def tail(values, at_least_beyond=10):
    """Highest of p90/p75 with ``at_least_beyond`` samples above it, as
    (value, percentile, samples beyond); the maximum when neither qualifies.

    Higher percentiles are left out: on library_small p99 is a handful of the
    largest dim tuples and moved by 0.23 to 0.42 of its median between runs.
    """
    for pct in (90.0, 75.0):
        value, beyond = percentile(values, pct)
        if beyond >= at_least_beyond:
            return value, pct, beyond
    return max(values), 100.0, 0


def analyse(spans, traced_wall_s):
    """Per-layer metric values from the spans of all traced items.

    ``traced_wall_s`` is the wall time of those items, measured outside the
    tracer.  Every span must lie inside its parent, every root span must be
    an item, no self time may be negative, and the self times must add up to
    between ``MIN_COVERAGE`` and all of ``traced_wall_s``.
    """
    n = len(spans)
    dur = [rec[2] - rec[1] for rec in spans]
    covered = [0.0] * n
    for i, rec in enumerate(spans):
        parent = rec[3]
        if parent >= 0:
            p = spans[parent]
            if rec[1] < p[1] - NESTING_SLACK_S or rec[2] > p[2] + NESTING_SLACK_S:
                raise RuntimeError(f"span {rec[0]} is not inside {p[0]}")
            covered[parent] += dur[i]
        elif rec[0] != ITEM:
            raise RuntimeError(f"span {rec[0]} is outside every item")
    self_s = [dur[i] - covered[i] for i in range(n)]
    for i, own in enumerate(self_s):
        if own < -NESTING_SLACK_S:
            raise RuntimeError(f"span {spans[i][0]} has self time {own:.3g} s: "
                               "its children overlap")
    n_items = sum(rec[0] == ITEM for rec in spans)
    if not n_items:
        raise RuntimeError("no traced items")

    def outermost(i, names):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return False
            parent = spans[parent][3]
        return True

    calls, inclusive, own = {}, {}, {}
    layer_self = dict.fromkeys(SELF_LAYERS, 0.0)
    spectral_calls = spectral_self = flops = nbytes = 0.0
    reindex_calls = reindex_self = 0.0
    emit_s = parse_s = written = read = 0.0
    public_calls = 0
    item = -1
    inputs = set()  # (item, content hash) of every spectral kernel input
    process, handler = {}, {}
    exit_nonzero = 0
    for i, rec in enumerate(spans):
        name, _, _, parent, attrs = rec
        if name == ITEM:
            item = i
        layer_self[name.split(".", 1)[0]] += self_s[i]
        calls[name] = calls.get(name, 0) + 1
        own[name] = own.get(name, 0.0) + self_s[i]
        if outermost(i, (name,)):
            inclusive[name] = inclusive.get(name, 0.0) + dur[i]
        if (parent >= 0 and spans[parent][0] in (ITEM, PROCESS)
                and name not in BENCH_SPANS):
            public_calls += 1
        if name.startswith(SPECTRAL_PREFIX):
            spectral_calls += 1
            spectral_self += self_s[i]
            f, b = _flops_and_bytes(name[len(SPECTRAL_PREFIX):], attrs)
            flops += f
            nbytes += b
            inputs.add((item, attrs["hash"]))
        elif name in REINDEX:
            reindex_calls += 1
            reindex_self += self_s[i]
        if name in EMIT and outermost(i, EMIT):
            emit_s += dur[i]
        if name in PARSE and outermost(i, PARSE):
            parse_s += dur[i]
        if name == "documents.document_bytes":
            written += attrs["bytes"]
        elif name in ("documents.load_document", JSON_LOADS):
            read += attrs["bytes"]
        if name == PROCESS:
            process[i] = dur[i]
            exit_nonzero += attrs["exit"] != 0
        elif name == "cli.main":
            handler[parent] = dur[i]

    self_total = sum(layer_self.values())
    coverage = self_total / traced_wall_s
    if not MIN_COVERAGE <= coverage <= 1.0 + 1e-9:
        raise RuntimeError(
            f"self times add up to {self_total:.6f} s, traced wall time is "
            f"{traced_wall_s:.6f} s")

    per = 1.0 / n_items
    mib = float(1 << 20)
    out = {f"{layer}.self_s": layer_self[layer] * per for layer in SELF_LAYERS}
    out.update({
        "operators.spectral.calls": spectral_calls * per,
        "operators.spectral.self_s": spectral_self * per,
        "operators.spectral.flops_computed": flops * per,
        "operators.spectral.bytes_computed": nbytes * per,
        "operators.spectral.distinct_ratio":
            len(inputs) / spectral_calls if spectral_calls else 0.0,
        "operators.reindex.calls": reindex_calls * per,
        "operators.reindex.self_s": reindex_self * per,
        "superchannels.validate_superchannel.calls_per_public_call":
            calls.get("superchannels.validate_superchannel", 0) / public_calls
            if public_calls else 0.0,
        "documents.save.s": emit_s * per,
        "documents.load.s": parse_s * per,
        "documents.bytes_written": written * per,
        "documents.bytes_read": read * per,
        "documents.emit_mib_per_s": written / mib / emit_s if emit_s else 0.0,
        "documents.parse_mib_per_s": read / mib / parse_s if parse_s else 0.0,
        "cli.commands": len(process) * per,
        "cli.exit_nonzero": exit_nonzero * per,
        "trace.self_time_coverage": coverage,
    })
    for name in FUNCTION_CALLS:
        out[f"{name}.calls"] = calls.get(name, 0) * per
    for name in FUNCTION_SELF:
        out[f"{name}.self_s"] = own.get(name, 0.0) * per
    for name in FUNCTION_INCLUSIVE:
        out[f"{name}.s"] = inclusive.get(name, 0.0) * per
    process_tail = None
    if process:
        inside = [handler.get(i, 0.0) for i in process]
        wall = list(process.values())
        value, pct, beyond = tail(wall)
        process_tail = (pct, beyond)
        out["cli.process_s.p50"] = statistics.median(wall)
        out["cli.process_s.tail"] = value
        out["cli.startup_s.p50"] = statistics.median(
            [w - h for w, h in zip(wall, inside)])
        out["cli.handler_s.p50"] = statistics.median(inside)
    else:
        for key in ("cli.process_s.p50", "cli.process_s.tail",
                    "cli.startup_s.p50", "cli.handler_s.p50"):
            out[key] = 0.0
    return out, {"n_items": n_items, "spans": n,
                 "cli_process_tail": process_tail}
