"""Outside-in tracing of nodal_kit for the per-layer metrics.

`Tracer.install` replaces, from outside the package, every public function
of each nodal_kit module (in every namespace that bound it at import, such
as ``mf.kernel_basis``) and the hot methods below with wrappers;
`Tracer.uninstall` puts the originals back.  Layer calls get spans (name,
start, end, parent, job id) kept in memory.  Ring arithmetic is too hot for
spans and is only counted, by the ring kind of the receiving element; nested
kinds count at each level, since a dual-number product calls its base ring.
"""

from __future__ import annotations

import gzip
import time
import types
from collections import Counter, defaultdict

from timing import self_times

LAYERS = ("rings", "mpoly", "series", "normal_form", "dp_ring", "linalg", "mf", "stabilize", "cli", "reporting")

RING_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
            "__neg__", "__pow__", "__truediv__", "inv", "try_invert")

# (module, class, method) -> span key; an alias such as __rmul__ shares its key.
METHOD_SPANS = {
    ("mpoly", "MPoly", "__mul__"): "mpoly.mul",
    ("mpoly", "MPoly", "__rmul__"): "mpoly.mul",
    ("series", "Series2", "__mul__"): "series.mul",
    ("series", "Series2", "__rmul__"): "series.mul",
    ("series", "Series2", "substitute"): "series.substitute",
    ("dp_ring", "DPElem", "__mul__"): "dp_ring.mul",
    ("dp_ring", "DPElem", "__rmul__"): "dp_ring.mul",
    ("dp_ring", "DPRing", "reduce"): "dp_ring.reduce",
    ("dp_ring", "DPRing", "reduce_with_multiplier"): "dp_ring.reduce",
    ("reporting", "Report", "to_json"): "reporting.to_json",
}

NF_ITERATION = "normal_form.normal_form_iteration"


def freeze(value):
    """A hashable image of a ring element value, polynomial or scalar."""
    if hasattr(value, "ring") and hasattr(value, "val"):
        return freeze(value.val)
    if hasattr(value, "terms") and isinstance(value.terms, dict):
        return frozenset((e, freeze(c)) for e, c in value.terms.items())
    if isinstance(value, tuple):
        return tuple(freeze(v) for v in value)
    if isinstance(value, dict):
        return frozenset((k, freeze(v)) for k, v in value.items())
    return value


def _dp_key(dp):
    return (dp.ring, freeze(dp.q.gamma), freeze(dp.q.delta), freeze(dp.s), freeze(dp.t), dp.degree_bound)


def _nonzero(seq):
    return sum(1 for c in seq if not c.is_zero)


def _bits(elem):
    v = getattr(elem, "val", None)
    if hasattr(v, "denominator"):
        return max(abs(v.numerator).bit_length(), v.denominator.bit_length())
    return 0


class Tracer:
    def __init__(self, nk):
        """`nk` maps each layer name, and "package", to the imported nodal_kit module."""
        self.nk = nk
        self.kinds = {
            nk["rings"].Rationals: "q",
            nk["rings"].PrimeField: "fp",
            nk["rings"].DualNumbers: "dual",
            nk["rings"].LocalTruncation: "loc",
        }
        self.spans = []  # [name, key, layer, start, end, parent, job, top_in_key]
        self.stack = []
        self.open_keys = Counter()
        self.open_layers = Counter()
        self.ring_ops = Counter()
        self.ring_depth = [0]
        self.inv_calls = [0]
        self.errors = Counter()
        self.stats = Counter()
        self.linalg_time = Counter()
        self.max_q_bits = 0
        self.job = None
        self._nf_limit = None
        self._seen = defaultdict(set)
        self._patches = []

    # --- installation ------------------------------------------------------

    def begin_job(self, job_id):
        self.job = job_id
        self._seen = defaultdict(set)

    def install(self):
        nk = self.nk
        modules = list(nk.values())
        hooks = self._hooks()
        for layer in LAYERS:
            mod = nk[layer]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__:
                    continue
                span_name = f"{layer}.{name}"
                wrapper = self._span(fn, span_name, span_name, layer, *hooks.get(span_name, (None, None)))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, attr, wrapper)
        for (layer, cls_name, meth), key in METHOD_SPANS.items():
            cls = getattr(nk[layer], cls_name)
            fn = vars(cls)[meth]
            name = f"{layer}.{cls_name}.{meth}"
            self._patch(cls, meth, self._span(fn, name, key, layer, *hooks.get(key, (None, None))))
        elem = nk["rings"].RingElem
        for meth in RING_OPS:
            self._patch(elem, meth, self._count(vars(elem)[meth], meth == "inv"))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    # --- wrappers ----------------------------------------------------------

    def _span(self, fn, name, key, layer, pre, post):
        spans, stack = self.spans, self.stack
        open_keys, open_layers, errors = self.open_keys, self.open_layers, self.errors
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            ctx = pre(args, kwargs) if pre else None
            parent = stack[-1] if stack else None
            rec = [name, key, layer, 0.0, 0.0, parent, self.job, open_keys[key] == 0]
            stack.append(len(spans))
            spans.append(rec)
            open_keys[key] += 1
            open_layers[layer] += 1
            rec[3] = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if parent is None or spans[parent][2] != layer:
                    errors[layer] += 1
                raise
            finally:
                rec[4] = perf()
                stack.pop()
                open_keys[key] -= 1
                open_layers[layer] -= 1
            if post:
                post(ctx, args, result, rec)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, is_inv):
        ops, depth, inv_calls, errors = self.ring_ops, self.ring_depth, self.inv_calls, self.errors

        def wrapper(elem, *args):
            ops[type(elem.ring)] += 1
            if is_inv:
                inv_calls[0] += 1
            depth[0] += 1
            try:
                return fn(elem, *args)
            except BaseException:
                if depth[0] == 1:
                    errors["rings"] += 1
                raise
            finally:
                depth[0] -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    # --- per-call counters ---------------------------------------------------

    def _hooks(self):
        nk, stats, open_keys, open_layers = self.nk, self.stats, self.open_keys, self.open_layers
        MPoly, Series2 = nk["mpoly"].MPoly, nk["series"].Series2

        def mpoly_mul(args, kwargs):
            a, b = args
            stats["mpoly.mul.term_products"] += len(a.terms) * (len(b.terms) if isinstance(b, MPoly) else 1)

        def series_mul(args, kwargs):
            a, b = args
            limit = self._nf_limit if open_keys[NF_ITERATION] else None
            useful = total = 0
            if isinstance(b, Series2):
                precs = [p for p in (a.precision, b.precision) if p is not None]
                prec = min(precs) if precs else None
                nb = [(n, _nonzero(v)) for n, v in b.parts.items()]
                for n1, v1 in a.parts.items():
                    k1 = _nonzero(v1)
                    for n2, k2 in nb:
                        n = n1 + n2
                        if prec is None or n <= prec:
                            total += k1 * k2
                            if limit is not None and n <= limit:
                                useful += k1 * k2
            else:
                for n, v in a.parts.items():
                    k = _nonzero(v)
                    total += k
                    if limit is not None and n <= limit:
                        useful += k
            stats["series.mul.coeff_products"] += total
            if limit is not None:
                stats["normal_form.products"] += total
                stats["normal_form.useful_products"] += useful

        def nf_iteration(args, kwargs):
            n_steps = args[2] if len(args) > 2 else kwargs["n_steps"]
            self._nf_limit = n_steps + 2
            stats["normal_form.steps"] += n_steps

        def reduce_pre(args, kwargs):
            if open_keys["dp_ring.reduce"]:
                return
            dp, poly = args[0], args[1]
            self._repeat("dp_ring.reduce", (_dp_key(dp), freeze(poly)))

        def reduce_post(ctx, args, result, rec):
            if isinstance(result, tuple):  # reduce_with_multiplier: (elem, h)
                stats["dp_ring.reduce.division_steps"] += len(result[1].terms)

        def factorization(args, kwargs):
            self._repeat("mf.build_factorization", _dp_key(args[0]))

        def charts(args, kwargs):
            ring, q, s, t = args[:4]
            self._repeat("stabilize.build_charts", (ring, freeze(q.gamma), freeze(q.delta), freeze(s), freeze(t)))

        def linalg_pre(args, kwargs):
            if open_layers["linalg"]:
                return None
            ring, rows, ncols = args[0], args[1], args[2]
            rhs = args[3] if len(args) > 3 else []
            # solve takes one right-hand side, consistent_many a list of them
            rhs_cols = [rhs] if rhs and not isinstance(rhs[0], list) else list(rhs)
            nonzero = sum(_nonzero(r) for r in rows) + sum(_nonzero(c) for c in rhs_cols)
            kind = self.kinds.get(type(ring), "other")
            if kind == "q":
                self._note_bits(rows)
            return self.inv_calls[0], len(rows), ncols + len(rhs_cols), nonzero, kind

        def linalg_post(ctx, args, result, rec):
            if ctx is None:
                return
            inv_before, m, width, nonzero, kind = ctx
            rank = self.inv_calls[0] - inv_before  # one pivot inversion per rank step
            stats["linalg.calls"] += 1
            stats["linalg.rows"] += m
            stats["linalg.cells"] += m * width
            stats["linalg.nonzero"] += nonzero
            stats["linalg.rank"] += rank
            stats["linalg.dense_ops"] += rank * m * width
            self.linalg_time[kind, rec[6]] += rec[4] - rec[3]
            if kind == "q":
                self._note_bits(result)

        def to_json_post(ctx, args, result, rec):
            stats["cli.report_bytes"] += len(result.encode())

        linalg = (linalg_pre, linalg_post)
        out = {
            "mpoly.mul": (mpoly_mul, None),
            "series.mul": (series_mul, None),
            NF_ITERATION: (nf_iteration, None),
            "dp_ring.reduce": (reduce_pre, reduce_post),
            "mf.build_factorization": (factorization, None),
            "stabilize.build_charts": (charts, None),
            "reporting.to_json": (None, to_json_post),
        }
        for name in ("rref", "rank", "kernel_basis", "solve", "consistent_many", "span_dimension"):
            out[f"linalg.{name}"] = linalg
        return out

    def _repeat(self, metric, key):
        """Count a call, and count it again as a repeat when its input was seen earlier in the job."""
        seen = self._seen[metric]
        self.stats[f"{metric}.seen_calls"] += 1
        if key in seen:
            self.stats[f"{metric}.repeats"] += 1
        else:
            seen.add(key)

    def _note_bits(self, value):
        if isinstance(value, (list, tuple)):
            for v in value:
                self._note_bits(v)
        else:
            b = _bits(value)
            if b > self.max_q_bits:
                self.max_q_bits = b

    # --- results -------------------------------------------------------------

    def job_self_total(self, job_id):
        """Summed self time of all spans of one job (raw seconds)."""
        recs = [(r[3], r[4], r[5]) for r in self.spans]
        return sum(s for s, r in zip(self_times(recs), self.spans) if r[6] == job_id)

    def metrics(self, job_scale):
        """Per-layer metrics; `job_scale[job]` turns a job's raw seconds into reference seconds."""
        spans = self.spans
        selfs = self_times([(r[3], r[4], r[5]) for r in spans])
        calls, time_s, self_s, layer_self = Counter(), Counter(), Counter(), Counter()
        for rec, own in zip(spans, selfs):
            name, key, layer, start, end, _, job, top = rec
            k = job_scale[job]
            self_s[key] += own * k
            layer_self[layer] += own * k
            if top:
                calls[key] += 1
                time_s[key] += (end - start) * k
        linalg_time = Counter()
        for (kind, job), seconds in self.linalg_time.items():
            linalg_time[kind] += seconds * job_scale[job]
        st = self.stats
        ops = Counter()
        for ring_type, n in self.ring_ops.items():
            ops[self.kinds.get(ring_type, "other")] += n

        def ratio(a, b):
            return st[a] / st[b] if st[b] else 0.0

        out = {}
        for kind in ("q", "fp", "dual", "loc"):
            out[f"rings.{kind}.ops"] = (ops[kind], "count")
        out.update({
            "mpoly.mul.calls": (calls["mpoly.mul"], "count"),
            "mpoly.mul.time_s": (time_s["mpoly.mul"], "s"),
            "mpoly.mul.term_products": (st["mpoly.mul.term_products"], "count"),
            "series.mul.calls": (calls["series.mul"], "count"),
            "series.mul.time_s": (time_s["series.mul"], "s"),
            "series.mul.coeff_products": (st["series.mul.coeff_products"], "count"),
            "series.substitute.calls": (calls["series.substitute"], "count"),
            "series.substitute.time_s": (time_s["series.substitute"], "s"),
            "normal_form.iteration.calls": (calls[NF_ITERATION], "count"),
            "normal_form.iteration.time_s": (time_s[NF_ITERATION], "s"),
            "normal_form.iteration.self_s": (self_s[NF_ITERATION], "s"),
            "normal_form.steps": (st["normal_form.steps"], "count"),
            "normal_form.useful_coeff_ratio": (ratio("normal_form.useful_products", "normal_form.products"), "ratio"),
            "normal_form.right_inverse.time_s": (time_s["normal_form.solve_linearized_increment"], "s"),
            "dp_ring.mul.calls": (calls["dp_ring.mul"], "count"),
            "dp_ring.mul.time_s": (time_s["dp_ring.mul"], "s"),
            "dp_ring.reduce.calls": (calls["dp_ring.reduce"], "count"),
            "dp_ring.reduce.time_s": (time_s["dp_ring.reduce"], "s"),
            "dp_ring.reduce.division_steps": (st["dp_ring.reduce.division_steps"], "count"),
            "dp_ring.reduce.repeat_ratio": (ratio("dp_ring.reduce.repeats", "dp_ring.reduce.seen_calls"), "ratio"),
            "dp_ring.nzd.time_s": (time_s["dp_ring.v_shift_nonzerodivisor"], "s"),
            "linalg.calls": (st["linalg.calls"], "count"),
            "linalg.fp.time_s": (linalg_time["fp"], "s"),
            "linalg.q.time_s": (linalg_time["q"], "s"),
            "linalg.cells": (st["linalg.cells"], "count"),
            "linalg.nonzero_ratio": (ratio("linalg.nonzero", "linalg.cells"), "ratio"),
            "linalg.rank_ratio": (ratio("linalg.rank", "linalg.rows"), "ratio"),
            "linalg.dense_ops": (st["linalg.dense_ops"], "count"),
            "linalg.q.max_entry_bits": (self.max_q_bits, "bits"),
        })
        for short, fn in (("exactness", "two_periodic_exactness"), ("hom_space", "hom_pair_space"),
                          ("quotient_iso", "dual_quotient_iso")):
            out[f"mf.{short}.time_s"] = (time_s[f"mf.{fn}"], "s")
            out[f"mf.{short}.self_s"] = (self_s[f"mf.{fn}"], "s")
        out.update({
            "mf.build_factorization.repeat_ratio": (
                ratio("mf.build_factorization.repeats", "mf.build_factorization.seen_calls"), "ratio"),
            "stabilize.build_charts.calls": (calls["stabilize.build_charts"], "count"),
            "stabilize.build_charts.repeat_ratio": (
                ratio("stabilize.build_charts.repeats", "stabilize.build_charts.seen_calls"), "ratio"),
            "stabilize.reduce_chart0.calls": (calls["stabilize.reduce_chart0"], "count"),
            "stabilize.reduce_chart0.time_s": (time_s["stabilize.reduce_chart0"], "s"),
            "stabilize.flatness.time_s": (time_s["stabilize.flatness_basis_certificate"], "s"),
            "stabilize.split_tangent_roots.time_s": (time_s["stabilize.split_tangent_roots"], "s"),
            "cli.run.self_s": (layer_self["cli"], "s"),
            "reporting.to_json.time_s": (time_s["reporting.to_json"], "s"),
            "cli.report_bytes": (st["cli.report_bytes"], "bytes"),
        })
        for layer in LAYERS:
            out[f"{layer}.errors"] = (self.errors[layer], "count")
        return out

    def write_spans(self, path):
        """Write every span as a tab-separated line: name, job, start, end, parent."""
        with gzip.open(path, "wt") as fh:
            fh.write("name\tjob\tstart_s\tend_s\tparent\n")
            for rec in self.spans:
                parent = "" if rec[5] is None else rec[5]
                fh.write(f"{rec[0]}\t{rec[6]}\t{rec[3]:.9f}\t{rec[4]:.9f}\t{parent}\n")
