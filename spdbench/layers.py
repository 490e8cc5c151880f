"""Which program functions the traced run wraps, and the per-layer metrics
derived from their spans.

Span names are ``<module>.<function>``; the metric names in BENCHMARK.json
are built from them.  The README maps each metric to the end-to-end metric
it should move.
"""

from __future__ import annotations

from tracing import Target

SUITE_FUNCTIONS = (
    ("golden", "suite_counterexample_goldens"),
    ("means", "suite_mean_identities"),
    ("logmaj", "suite_log_majorization"),
    ("compound", "suite_compound"),
    ("chain", "suite_chain"),
    ("orbit", "suite_orbit"),
    ("kostant", "suite_kostant"),
    ("gradcheck", "suite_gradient_check"),
    ("loewner", "suite_loewner"),
    ("realization", "suite_realization"),
)


def _eig_tag(m, *args, **kwargs) -> str:
    size = "n_gt_8" if m.mat.shape[0] > 8 else "n_le_8"
    cached = getattr(m, "_eig", None) is not None
    return f"{size}/{'hit' if cached else 'miss'}"


def _count_solve(tracer, sol) -> None:
    tracer.count("orbit.solve.iterations", sol.iterations)
    tracer.count("orbit.solve.restarts", sol.restarts)


def _plain(module: str, *functions: str) -> list:
    short = module.rpartition(".")[2]
    return [Target(module, fn, f"{short}.{fn}") for fn in functions]


TARGETS = (
    [
        Target("spdmeans.linalg", "eig_hermitian", "linalg.eig_hermitian", tag=_eig_tag),
        *_plain("spdmeans.linalg", "mat_pow", "polar", "spectrum"),
        Target("spdmeans.means", "_MeanPair.sharp", "means.sharp"),
        Target("spdmeans.means", "_MeanPair.natural", "means.natural"),
        Target("spdmeans.means", "_MeanPair.cross", "means.cross"),
        Target("spdmeans.means", "_IdentityContext.evaluate", "means.identity_evaluate"),
        *_plain(
            "spdmeans.means",
            "geometric_mean",
            "spectral_mean",
            "spectral_mean_unitary",
            "loewner_leq",
        ),
        *_plain(
            "spdmeans.sampling",
            "random_unitary",
            "random_orthogonal",
            "random_spd",
            "random_hermitian",
            "random_real_symmetric_traceless",
            "random_invertible",
        ),
        *_plain(
            "spdmeans.majorization",
            "compound",
            "log_majorization_report",
            "check_compound_mean_identities",
        ),
        *_plain("spdmeans.kostant", "hyperbolic_spectrum", "group_chain_report"),
        *_plain("spdmeans.gtchain", "scan_chain", "evaluate_chain"),
        *_plain("spdmeans.orbit", "build_target", "verify_membership"),
        Target("spdmeans.orbit", "solve", "orbit.solve", after=_count_solve),
        *_plain("spdmeans.realizations", "run_suites_on_realization"),
    ]
    + [Target("spdmeans.suites", fn, f"suites.{name}") for name, fn in SUITE_FUNCTIONS]
    + [Target("spdmeans.suites", "write_report", "suites.write_report")]
)

# (name, unit, better) for every per-layer metric, in output order.
PER_LAYER = (
    [
        ("linalg.eig_hermitian.self_s.n_gt_8", "s", "lower"),
        ("linalg.eig_hermitian.self_s.n_le_8", "s", "lower"),
        ("linalg.eig_hermitian.calls", "count", "lower"),
        ("linalg.eig_hermitian.cached_frac", "frac", "higher"),
        ("linalg.mat_pow.self_s", "s", "lower"),
        ("means.sharp.calls", "count", "lower"),
        ("means.natural.calls", "count", "lower"),
        ("means.self_s", "s", "lower"),
        ("means.identity_evaluate.self_s", "s", "lower"),
        ("linalg.polar.calls", "count", "lower"),
        ("linalg.polar.self_s", "s", "lower"),
        ("sampling.self_s", "s", "lower"),
        ("linalg.spectrum.calls", "count", "lower"),
        ("linalg.spectrum.self_s", "s", "lower"),
        ("kostant.hyperbolic_spectrum.self_s", "s", "lower"),
        ("kostant.group_chain_report.self_s", "s", "lower"),
        ("majorization.compound.calls", "count", "lower"),
        ("majorization.compound.self_s", "s", "lower"),
        ("majorization.log_majorization_report.calls", "count", "lower"),
        ("majorization.log_majorization_report.self_s", "s", "lower"),
        ("gtchain.scan_chain.self_s", "s", "lower"),
        ("gtchain.evaluate_chain.self_s", "s", "lower"),
        ("orbit.build_target.self_s", "s", "lower"),
        ("orbit.solve.self_s", "s", "lower"),
        ("orbit.verify_membership.self_s", "s", "lower"),
        ("orbit.solve.iterations", "count", "lower"),
        ("orbit.solve.restarts", "count", "lower"),
        ("realizations.run_suites_on_realization.wall_s", "s", "lower"),
    ]
    + [(f"suites.{name}.wall_s", "s", "lower") for name, _ in SUITE_FUNCTIONS]
    + [
        ("suites.write_report.wall_s", "s", "lower"),
        ("setup.sampling.wall_s", "s", "lower"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.spans", "count", "lower"),
    ]
)


def per_layer_values(summary: dict, counters: dict) -> dict:
    """Per-layer metric values from a tracer summary and its counters.

    ``*.calls`` counts spans, ``*.self_s`` sums self time and ``*.wall_s``
    sums inclusive time, all over the traced round; ``means.self_s`` and
    ``sampling.self_s`` cover every traced function of that module except
    the identity-suite evaluation, which has its own metric.
    """

    def total(col: int, keep) -> float:
        return sum(row[col] for (span, tag), row in summary.items() if keep(span, tag))

    def calls(span: str) -> int:
        return int(total(0, lambda s, t: s == span))

    def self_s(span: str) -> float:
        return total(2, lambda s, t: s == span)

    eig = "linalg.eig_hermitian"
    eig_calls = calls(eig)
    eig_hits = total(0, lambda s, t: s == eig and t.endswith("/hit"))
    values = {
        f"{eig}.self_s.n_gt_8": total(2, lambda s, t: s == eig and t.startswith("n_gt_8")),
        f"{eig}.self_s.n_le_8": total(2, lambda s, t: s == eig and t.startswith("n_le_8")),
        f"{eig}.calls": eig_calls,
        f"{eig}.cached_frac": eig_hits / eig_calls if eig_calls else 0.0,
        "means.self_s": total(
            2, lambda s, t: s.startswith("means.") and s != "means.identity_evaluate"
        ),
        "sampling.self_s": total(2, lambda s, t: s.startswith("sampling.")),
        "orbit.solve.iterations": int(counters.get("orbit.solve.iterations", 0)),
        "orbit.solve.restarts": int(counters.get("orbit.solve.restarts", 0)),
        "trace.spans": int(total(0, lambda s, t: True)),
    }
    for name, _unit, _better in PER_LAYER:
        if name in values or name in ("trace.overhead_pct", "setup.sampling.wall_s"):
            continue
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls(span)
        elif kind == "self_s":
            values[name] = self_s(span)
        else:
            values[name] = total(1, lambda s, t, span=span: s == span)
    return values
