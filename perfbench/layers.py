"""Which ``blab`` functions the traced run wraps, and the per-layer metrics
computed from the spans and counters they record.

Span names are ``<layer>.<what>``; the layer is one of geom, basis, kernel,
zeros and lab, after the ``blab`` modules.  ``geom.cells``,
``basis.gram.cell_pairs`` and ``basis.gram.bytes`` are computed from array
sizes, not measured.
"""

from __future__ import annotations

import os

from spans import EXPERIMENT, OP, Recorder, Span, Target, coverage, \
    outermost, self_time_by

LAYERS = ("geom", "basis", "kernel", "zeros", "lab")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _cells(rec, args, kwargs, dom):
    rec.add("geom.cells", dom.cell_count)


def _gram(rec, args, kwargs, gram):
    n = len(_arg(args, kwargs, 0, "basis"))
    cells = _arg(args, kwargs, 1, "U").cell_count
    rec.add("basis.gram.calls")
    rec.add("basis.gram.cell_pairs", cells * n * (n + 1) // 2)
    rec.add("basis.gram.bytes", cells * n * 16)
    rec.maximum("basis.gram.terms_max", n)
    rec.maximum("basis.cond_max", gram.conditioning)


def _eval_many(rec, args, kwargs, values):
    n = len(values)
    rec.add("kernel.eval_many.calls")
    rec.add("kernel.eval_many.points", n)
    err = rec.innermost("kernel.error")
    if err is None:
        return
    rec.add("kernel.error.pairs", n)
    # one kernel_error call pairs a fixed z lattice with one w per call:
    # the first call in the span brings n + 1 distinct probes, later ones 1
    rec.add("kernel.error.probes", 1 if err.attrs.get("probed") else n + 1)
    err.attrs["probed"] = True


def _whiten(rec, args, kwargs, out):
    points = out.size // len(out)
    rec.add("kernel.whiten.calls")
    rec.add("kernel.whiten.points", points)
    if rec.innermost("kernel.error") is not None:
        rec.add("kernel.error.whitened", points)


def _verdict(rec, args, kwargs, verdict):
    rec.add("zeros.verdict.calls")


def _scan(rec, args, kwargs, scan):
    rec.add("zeros.scan.points", scan.n_scanned)


def _winding(rec, args, kwargs, count):
    rec.add("zeros.winding.calls")


def _certify(rec, args, kwargs, cert):
    rec.add("zeros.certify.calls")
    rec.add("zeros.certify.certificates", cert is not None)


def _write(rec, args, kwargs, paths):
    rec.add("lab.write.bytes", sum(os.path.getsize(p) for p in paths))


def targets(geom, basis, kernel, zeros, lab) -> list[Target]:
    """The public calls timed in each layer."""
    return [
        Target(geom, "make_domain", "geom.make_domain", _cells),
        Target(geom, "distance_field", "geom.distance_field"),
        Target(geom, "rho1_parts", "geom.rho1"),
        Target(geom, "rho2_parts", "geom.rho2"),
        Target(geom, "interior_exhaustion", "geom.sequence"),
        Target(geom, "barbell_sequence", "geom.sequence"),
        Target(geom, "domain_union", "geom.sequence"),
        Target(geom, "extract_sets", "geom.extract_sets"),
        Target(geom, "is_logconvex_profile", "geom.logconvex"),
        Target(basis, "gram_matrix", "basis.gram", _gram),
        Target(basis, "term_matrix", "basis.term_matrix"),
        Target(basis, "factorize", "basis.factorize"),
        Target(kernel, "fit_kernel", "kernel.fit"),
        Target(kernel, "kernel_error", "kernel.error"),
        Target(kernel, "closed_form", "kernel.closed_form"),
        Target(kernel.KernelModel, "eval_many", "kernel.eval_many", _eval_many),
        Target(basis.GramFactor, "whiten", "kernel.whiten", _whiten),
        Target(zeros, "lu_qi_keng_verdict", "zeros.verdict", _verdict),
        Target(zeros, "default_probes", "zeros.probes"),
        Target(zeros, "scan_min_modulus", "zeros.scan", _scan),
        Target(zeros, "refine_minimum", "zeros.refine"),
        Target(zeros, "winding_count", "zeros.winding", _winding,
               zeros.ContourError, "zeros.winding.contour_errors"),
        Target(zeros, "certify_zero", "zeros.certify", _certify),
        Target(lab, "run_experiment", EXPERIMENT),
        Target(lab.ExperimentReport, "write", "lab.write", _write),
    ]


# spans whose time per op is reported as <name>.s
TIMED = ("geom.make_domain", "geom.distance_field", "geom.rho1", "geom.rho2",
         "geom.sequence", "basis.gram", "basis.term_matrix", "basis.factorize",
         "kernel.fit", "kernel.error", "kernel.whiten", "zeros.verdict",
         "zeros.scan", "zeros.refine", "zeros.winding", "lab.run", "lab.write")
COUNTED = ("geom.cells", "basis.gram.calls", "basis.gram.cell_pairs",
           "basis.gram.bytes", "kernel.error.pairs", "kernel.eval_many.calls",
           "kernel.eval_many.points", "kernel.whiten.calls",
           "kernel.whiten.points", "zeros.verdict.calls", "zeros.scan.points",
           "zeros.winding.calls", "zeros.winding.contour_errors",
           "zeros.certify.calls", "lab.write.bytes")
MAXIMA = ("basis.gram.terms_max", "basis.cond_max")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(rec: Recorder, overhead_share: float) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times and counts are per traced op (totals divided by the op count),
    maxima are over the run, and ratios are taken over the run's totals.
    """
    spans: list[Span] = rec.spans
    n_ops = sum(1 for s in spans if s.name == OP)
    out: dict[str, float] = {}
    totals: dict[str, float] = {}
    for s in outermost(spans):
        totals[s.name] = totals.get(s.name, 0.0) + s.seconds
    for name in TIMED:
        out[f"{name}.s"] = totals.get(name, 0.0) / n_ops
    for name in COUNTED:
        out[name] = rec.counters.get(name, 0) / n_ops
    for name in MAXIMA:
        out[name] = rec.maxima.get(name, 0.0)
    c = rec.counters
    out["kernel.error.whiten_ratio"] = _ratio(c.get("kernel.error.whitened", 0),
                                              c.get("kernel.error.probes", 0))
    out["zeros.certify.yield"] = _ratio(c.get("zeros.certify.certificates", 0),
                                        c.get("zeros.certify.calls", 0))
    by_layer = self_time_by(spans, lambda s: s.layer)
    for layer in LAYERS[:-1]:
        out[f"{layer}.self.s"] = by_layer.get(layer, 0.0) / n_ops
    by_name = self_time_by(spans, lambda s: s.name)
    out["lab.self.s"] = by_name.get(EXPERIMENT, 0.0) / n_ops
    out["trace.coverage"] = coverage(spans)
    out["trace.overhead_share"] = overhead_share
    return out
