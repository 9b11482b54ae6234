"""Per-layer tracing that wraps the calls into each shorsim module.

The layers are the package's modules: numtheory, spectrum, pipeline,
auditor and cli. ``Tracer.install`` replaces the module and class attributes
through which the layers call each other with timing wrappers, and
``uninstall`` restores the originals; nothing under ``src/`` is touched.

Spans are aggregated in memory by name: call count, inclusive time, and the
part of that time covered by nested wrapped calls, so a layer's self time
is inclusive minus nested. Counters are recorded at the same boundaries.
"""

import resource
import time
from collections import Counter

from shorsim import auditor, cli, pipeline, spectrum
from shorsim import numtheory as nt

# Spans reported as a call count (".calls") and an inclusive time (".s").
TIMED = (
    "numtheory.order_oracle",
    "numtheory.recover_rational",
    "numtheory.mod_pow",
    "numtheory.euler_phi",
    "spectrum.instance",
    "spectrum.build",
    "spectrum.joint",
    "spectrum.verify_bounds",
    "pipeline.recover",
    "auditor.audit",
    "auditor.pair_count",
)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _fraction_count(n: int) -> int:
    """Reduced fractions d/r in [0, 1) with r < n, by a totient sieve."""
    phi = list(range(n))
    for p in range(2, n):
        if phi[p] == p:
            for m in range(p, n, p):
                phi[m] -= phi[m] // p
    return 1 + sum(phi[2:])


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_ns = Counter()
        self.nested_ns = Counter()
        self.counts = Counter()
        self._stack = []
        self._restore = []
        self._built = set()
        self._verify_depth = 0
        self._c_seen = set()
        self._fractions = {}

    def _wrap(self, name, fn, pre=None, post=None):
        stack, perf = self._stack, time.perf_counter_ns
        calls, total, nested = self.calls, self.total_ns, self.nested_ns

        def wrapper(*args, **kwargs):
            state = pre(args) if pre else None
            stack.append(0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                calls[name] += 1
                total[name] += dt
                nested[name] += stack.pop()
                if stack:
                    stack[-1] += dt
            if post:
                post(state, args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # Counters recorded at the layer boundaries.

    def _after_build(self, rss_before, args, table):
        instance, q = args
        key = (instance.n, instance.x, q)
        c = self.counts
        c["build.q_total"] += q
        c["build.retained_bytes"] += (
            table.marginals.nbytes + table.signed_residues.nbytes
            + table.good_flags.nbytes
        )
        c["build.rss_delta_kb"] += _maxrss_kb() - rss_before
        c["build.duplicate"] += key in self._built
        self._built.add(key)
        if self._verify_depth:
            c["verify_bounds.good_c"] += int(table.good_flags.sum())

    def _enter_verify(self, args):
        self._verify_depth += 1

    def _leave_verify(self, state, args, report):
        self._verify_depth -= 1

    def _enter_trials(self, args):
        self._c_seen = set()

    def _after_trials(self, state, args, traces):
        c = self.counts
        c["trials"] += args[2]
        c["distinct_c"] += len(self._c_seen)
        c["factors"] += sum(t.factors is not None for t in traces)

    def _after_recover(self, state, args, result):
        self._c_seen.add(args[0])
        self.counts["recover.none"] += result is None

    def _after_cf(self, state, args, expansion):
        self.counts["cf_terms"] += len(expansion.partial_quotients)

    def _after_pair_count(self, state, args, pairs):
        n, q = args
        if q < n * n:
            if n not in self._fractions:
                self._fractions[n] = _fraction_count(n)
            self.counts["pair_count.scanned"] += 1
            self.counts["pair_count.fractions"] += self._fractions[n]

    def _rows(self, table):
        count = 0
        try:
            for row in self._orig_rows(table):
                count += 1
                yield row
        finally:
            self.counts["rows"] += count

    def install(self):
        w = self._wrap
        for attr in ("order_oracle", "recover_rational", "continued_fraction",
                     "mod_pow", "euler_phi"):
            post = self._after_cf if attr == "continued_fraction" else None
            self._patch(nt, attr, w(f"numtheory.{attr}", getattr(nt, attr),
                                    post=post))

        create = spectrum.FactoringInstance.__dict__["create"].__func__
        self._patch(spectrum.FactoringInstance, "create",
                    classmethod(w("spectrum.instance", create)))
        build = w("spectrum.build", spectrum.build_spectrum,
                  pre=lambda args: _maxrss_kb(), post=self._after_build)
        for module in (spectrum, pipeline, cli):
            self._patch(module, "build_spectrum", build)
        self._patch(spectrum.SpectrumTable, "joint",
                    w("spectrum.joint", spectrum.SpectrumTable.joint))
        self._orig_rows = spectrum.SpectrumTable.rows
        self._patch(spectrum.SpectrumTable, "rows",
                    lambda table: self._rows(table))
        verify = w("spectrum.verify_bounds", spectrum.verify_bounds,
                   pre=self._enter_verify, post=self._leave_verify)
        for module in (cli, auditor):
            self._patch(module, "verify_bounds", verify)

        self._patch(pipeline, "run_trials",
                    w("pipeline.run_trials", pipeline.run_trials,
                      pre=self._enter_trials, post=self._after_trials))
        self._patch(pipeline, "estimate_success",
                    w("pipeline.estimate_success", pipeline.estimate_success))
        self._patch(pipeline, "recover_order",
                    w("pipeline.recover", pipeline.recover_order,
                      post=self._after_recover))

        self._patch(auditor, "audit", w("auditor.audit", auditor.audit))
        self._patch(auditor, "count_indistinguishable_pairs",
                    w("auditor.pair_count",
                      auditor.count_indistinguishable_pairs,
                      post=self._after_pair_count))
        self._patch(auditor, "count_fractions",
                    w("auditor.count_fractions", auditor.count_fractions))
        self._patch(auditor, "bound_argument_applicability",
                    w("auditor.applicability",
                      auditor.bound_argument_applicability))

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def run_op(self, main, argv):
        """Run one CLI operation under a root span named after its command."""
        self._built = set()
        self._verify_depth = 0
        return self._wrap("op." + argv[0], main)(argv)

    def reset(self):
        for c in (self.calls, self.total_ns, self.nested_ns, self.counts):
            c.clear()

    def metrics(self, out_bytes: int, out_rows: int) -> dict:
        """Per-layer metrics of everything run since the last reset."""
        s = Counter({k: v / 1e9 for k, v in self.total_ns.items()})
        self_s = Counter({k: (v - self.nested_ns[k]) / 1e9
                          for k, v in self.total_ns.items()})
        c = self.counts
        m = {}
        for span in TIMED:
            m[span + ".calls"] = self.calls[span]
            m[span + ".s"] = s[span]
        trials = c["trials"]
        ops = [k for k in s if k.startswith("op.")]
        wall = sum(s[k] for k in ops)
        m.update({
            "numtheory.cf_terms": c["cf_terms"],
            "spectrum.build.q_total": c["build.q_total"],
            "spectrum.build.retained_bytes": c["build.retained_bytes"],
            "spectrum.build.rss_delta_mb": c["build.rss_delta_kb"] / 1024,
            "spectrum.build.duplicate": c["build.duplicate"],
            "spectrum.build.share_of_wall":
                s["spectrum.build"] / wall if wall else 0.0,
            "spectrum.verify_bounds.good_c": c["verify_bounds.good_c"],
            "spectrum.rows.count": c["rows"],
            "pipeline.trials": trials,
            "pipeline.run_trials.s": s["pipeline.run_trials"],
            "pipeline.self_s": self_s["pipeline.run_trials"]
            + self_s["pipeline.estimate_success"],
            "pipeline.recover.none": c["recover.none"],
            "pipeline.distinct_c_ratio":
                c["distinct_c"] / trials if trials else 0.0,
            "pipeline.factor_ratio": c["factors"] / trials if trials else 0.0,
            "auditor.pair_count.scanned": c["pair_count.scanned"],
            "auditor.pair_count.fractions": c["pair_count.fractions"],
            "auditor.pair_count.share_of_audit_cmd":
                s["auditor.pair_count"] / s["op.audit"]
                if s["op.audit"] else 0.0,
            "auditor.count_fractions.s": s["auditor.count_fractions"],
            "auditor.applicability.s": s["auditor.applicability"],
            "cli.self_s": sum(self_s[k] for k in ops),
            "cli.out_bytes": out_bytes,
            "cli.out_rows": out_rows,
        })
        return m
