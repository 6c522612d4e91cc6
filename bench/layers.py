"""The traced layers of distid and the per-layer metrics computed from their spans.

Layers are distid's modules.  `graphs` is not traced: only the `lemma`
subcommand reaches it, and no benchmark workload runs `lemma`.
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from tracing import Layer, Span, self_times, union_ns

PACKAGE = "distid"


def _is_identity(mapping) -> bool:
    return bool(np.array_equal(mapping, np.arange(len(mapping))))


def tied_matrices(counts) -> tuple[int, int]:
    """(count matrices with two identical rows, count matrices).

    counts has shape (..., rows, m).  In a tied matrix every assignment
    among the identical rows scores the same.
    """
    counts = np.asarray(counts)
    rows, m = counts.shape[-2:]
    flat = counts.reshape(-1, rows, m)
    upper = np.triu(np.ones((rows, rows), dtype=bool), k=1)
    tied = 0
    for lo in range(0, len(flat), 256):   # bounds the (chunk, rows, rows, m) temporary
        chunk = flat[lo:lo + 256]
        same = (chunk[:, :, None, :] == chunk[:, None, :, :]).all(axis=-1)
        tied += int((same & upper).any(axis=(1, 2)).sum())
    return tied, len(flat)


LAYERS = (
    Layer("cli", "main", "cli.main"),
    Layer("distributions", "make_family", "distributions.make_family"),
    Layer("distributions", "distance_matrix", "distributions.distance_matrix"),
    Layer("decoder", "loglik_from_counts", "decoder.loglik_from_counts", keep=True),
    Layer("decoder", "ml_decode", "decoder.ml_decode", keep=True),
    Layer("bounds", "pairwise_sum", "bounds.pairwise_sum"),
    Layer("bounds", "BoundReport.from_family", "bounds.BoundReport.from_family"),
    Layer("bounds", "identifiability_trend", "bounds.identifiability_trend"),
    Layer("mc", "estimate_error_prob", "mc.estimate_error_prob"),
    Layer("mc", "permutation_cycles", "mc.permutation_cycles"),
    Layer("mc", "pairwise_error_exponent", "mc.pairwise_error_exponent"),
)


def _p99(values: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def layer_metrics(spans: list[Span], wall_ns: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced CLI call, as name -> (value, unit).

    Fractions whose base is empty (no decodes, no count matrices) read 0.
    """
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {layer.span: [] for layer in LAYERS}
    for s in spans:
        by_name[s.name].append(s)

    def total_s(name):
        return sum(s.end - s.start for s in by_name[name]) / 1e9

    def self_s(name):
        return sum(own[s.sid] for s in by_name[name]) / 1e9

    def calls(name):
        return len(by_name[name])

    decodes = by_name["decoder.ml_decode"]
    decode_us = [(s.end - s.start) / 1e3 for s in decodes]
    logliks = by_name["decoder.loglik_from_counts"]
    tied = matrices = 0
    for s in logliks:
        t, n = tied_matrices(s.kept[0][0])
        tied += t
        matrices += n
    return {
        "decoder.ml_decode_s": (total_s("decoder.ml_decode"), "s"),
        "decoder.ml_decode_calls": (calls("decoder.ml_decode"), "count"),
        "decoder.ml_decode_us.p50": (statistics.median(decode_us) if decodes else 0.0, "us"),
        "decoder.ml_decode_us.p99": (_p99(decode_us) if decodes else 0.0, "us"),
        "decoder.wall_share": (union_ns((s.start, s.end) for s in decodes) / wall_ns,
                               "fraction"),
        "decoder.identity_frac": (sum(_is_identity(s.kept[1]) for s in decodes)
                                  / len(decodes) if decodes else 0.0, "fraction"),
        "decoder.tied_input_frac": (tied / matrices if matrices else 0.0, "fraction"),
        "decoder.loglik_s": (total_s("decoder.loglik_from_counts"), "s"),
        "decoder.loglik_calls": (calls("decoder.loglik_from_counts"), "count"),
        "decoder.loglik_out_mb": (max((s.kept[1].nbytes for s in logliks), default=0)
                                  / 2**20, "MiB"),
        "distributions.make_family_s": (total_s("distributions.make_family"), "s"),
        "distributions.make_family_calls": (calls("distributions.make_family"), "count"),
        "distributions.distance_matrix_s": (total_s("distributions.distance_matrix"), "s"),
        "distributions.distance_matrix_calls": (calls("distributions.distance_matrix"),
                                                "count"),
        "bounds.pairwise_sum_s": (total_s("bounds.pairwise_sum"), "s"),
        "bounds.pairwise_sum_calls": (calls("bounds.pairwise_sum"), "count"),
        "bounds.bound_report_s": (total_s("bounds.BoundReport.from_family"), "s"),
        "bounds.identifiability_trend_self_s": (self_s("bounds.identifiability_trend"), "s"),
        "mc.estimate_error_prob_s": (total_s("mc.estimate_error_prob"), "s"),
        "mc.estimate_error_prob_self_s": (self_s("mc.estimate_error_prob"), "s"),
        "mc.permutation_cycles_s": (total_s("mc.permutation_cycles"), "s"),
        "mc.permutation_cycles_calls": (calls("mc.permutation_cycles"), "count"),
        "mc.pairwise_error_exponent_s": (total_s("mc.pairwise_error_exponent"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
    }


def largest_self_span(spans: list[Span]) -> str:
    """Name of the layer with the largest summed self time."""
    own = self_times(spans)
    totals: dict[str, int] = {}
    for s in spans:
        totals[s.name] = totals.get(s.name, 0) + own[s.sid]
    return max(totals, key=totals.get)


def first_score_block(spans: list[Span]):
    """The output of the earliest loglik_from_counts call, or None."""
    logliks = [s for s in spans if s.name == "decoder.loglik_from_counts"]
    return min(logliks, key=lambda s: s.start).kept[1] if logliks else None
