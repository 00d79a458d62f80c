"""Span tracing of bihomlie from outside the package.

``Tracer.install`` replaces every binding of the functions and methods in
TARGETS with a wrapper, in every loaded ``bihomlie`` module (a function
imported by name into another module is bound there too, and a missed
binding would hide its calls); ``uninstall`` puts every original back.

A "span" target records (name, start, end, parent span) per call. A "count"
target only increments a counter: it is for constructors and inner-loop
helpers, where a span per call would cost more than the call itself; their
time lands in the self time of the enclosing span. Spans stay in memory
until ``write`` saves them. A span's self time is its duration minus the
time its child spans cover.
"""

import inspect
import sys
import time

C, F, H = "catalog-replay", "fp3-exhaustive", "heisenberg-sweep"

# (dotted name under bihomlie, kind, workloads built to exercise it)
TARGETS = (
    ("fields.FpElement.__init__", "count", (F,)),
    ("linalg.Matrix.__init__", "count", (C, F, H)),
    ("linalg.rref", "span", (C, F, H)),
    ("linalg.nullspace_basis", "span", (C, F, H)),
    ("linalg.rank", "span", (C, F, H)),
    ("linalg.is_invertible", "span", (F,)),
    ("linalg.invert", "span", (F,)),
    ("linalg.char_poly", "span", (F, H)),
    ("derivations.derivation_space", "span", (C, F, H)),
    ("derivations.verify_derivation", "span", (C, F, H)),
    ("derivations.twist_power", "span", (C, F, H)),
    ("derivations.count_members_fp", "span", (F,)),
    ("derivations.centroid", "span", (C,)),
    ("algebra.BiHomLieAlgebra.check_all", "span", (C, F, H)),
    ("algebra.BiHomLieAlgebra.bracket", "count", (C, F, H)),
    ("algebra.heisenberg", "span", (F, H)),
    ("algebra.yau_twist", "span", (F, H)),
    ("structure.is_characteristically_nilpotent", "span", (C,)),
    ("structure.is_small_centroid", "span", (C,)),
    ("structure.center", "span", (C, F, H)),
    ("structure.derived_subalgebra", "span", (C, F, H)),
    ("structure.lower_central_series", "span", (F, H)),
    ("structure.derived_series", "span", (F, H)),
    ("catalog.build", "span", (C, F)),
    ("catalog.coerce_params", "span", (C, F)),
    ("catalog.eval_expr", "span", (C, F)),
    ("catalog.guard_matches", "span", (C,)),
    ("catalog.pattern_space", "span", (C,)),
    ("catalog.verify_entry", "span", (C,)),
    ("isomorphism.fingerprint", "span", (F, H)),
    ("isomorphism.reduce_mod_p", "span", (F,)),
    ("isomorphism.transport", "span", (F,)),
    ("isomorphism.brute_force_iso", "span", (F,)),
    ("isomorphism.verify_isomorphism", "span", (F,)),
)

FLAGS = ("structure.is_characteristically_nilpotent",
         "structure.is_small_centroid")


class TraceError(RuntimeError):
    """Wrapping or restoring a binding went wrong; the trace is unusable."""


def _resolve(package, dotted):
    """(owner, attribute, original) for a module function or class method."""
    parts = dotted.split(".")
    owner = sys.modules["%s.%s" % (package, parts[0])]
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    original = (owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr))
    return owner, attr, original


def _package_modules(package):
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == package
                                  or name.startswith(package + "."))]


def _scalar_key(x):
    # FpElement compares equal to its int residue but hashes differently
    return getattr(x, "value", x)


class Tracer:

    def __init__(self, package="bihomlie"):
        self.package = package
        self.names = [t[0] for t in TARGETS]
        self.spans = []          # (name index, start, end, parent index)
        self.counts = dict.fromkeys(self.names, 0)
        self.counts["linalg.rref_cells"] = 0
        self.solve_keys = []
        self.flag_algebras = set()
        self.marks = []          # (label, span index, counts, solve keys)
        self.bindings = {}       # dotted name -> [(owner, attr)]
        self._originals = {}
        self._wrappers = {}      # id -> wrapper, kept alive for the checks
        self._stack = []
        self.mark("start")

    # --- install / uninstall -------------------------------------------------

    def install(self):
        modules = _package_modules(self.package)
        for idx, (dotted, kind, _) in enumerate(TARGETS):
            owner, attr, original = _resolve(self.package, dotted)
            self._originals[dotted] = original
            hook = self._hook(dotted, original)
            if kind == "span":
                wrapper = self._span_wrapper(idx, original, hook)
            else:
                wrapper = self._count_wrapper(dotted, original)
            self._wrappers[id(wrapper)] = wrapper
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [(m, name) for m in modules
                         for name, value in vars(m).items()
                         if value is original]
            for site_owner, site_attr in sites:
                setattr(site_owner, site_attr, wrapper)
            self.bindings[dotted] = sites
        leftover = [(m.__name__, name) for m in modules
                    for name, value in vars(m).items()
                    if any(value is o for o in self._originals.values())]
        if leftover:
            self.uninstall()
            raise TraceError("unwrapped bindings remain: %r" % leftover)

    def uninstall(self):
        for dotted, sites in self.bindings.items():
            for owner, attr in sites:
                setattr(owner, attr, self._originals[dotted])
        for dotted, sites in self.bindings.items():
            original = self._originals[dotted]
            for owner, attr in sites:
                current = (owner.__dict__[attr] if isinstance(owner, type)
                           else getattr(owner, attr))
                if current is not original:
                    raise TraceError("%s not restored at %r.%s"
                                     % (dotted, owner, attr))
        stray = [(m.__name__, name)
                 for m in _package_modules(self.package)
                 for name, value in vars(m).items()
                 if id(value) in self._wrappers]
        if stray:
            raise TraceError("wrappers left behind: %r" % stray)

    def binding_names(self):
        """Dotted target -> every "module.name" it was wrapped at."""
        return {dotted: sorted(
                    "%s.%s.%s" % (owner.__module__, owner.__qualname__, attr)
                    if isinstance(owner, type)
                    else "%s.%s" % (owner.__name__, attr)
                    for owner, attr in sites)
                for dotted, sites in self.bindings.items()}

    def _span_wrapper(self, idx, original, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args, kwargs)
            me = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(me)
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[me] = (idx, start, end, parent)
        return wrapper

    def _count_wrapper(self, dotted, original):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[dotted] += 1
            return original(*args, **kwargs)
        return wrapper

    def _hook(self, dotted, original):
        if dotted == "linalg.rref":
            counts = self.counts

            def hook(args, kwargs):
                m = args[0] if args else kwargs["m"]
                counts["linalg.rref_cells"] += m.rows * m.cols
            return hook
        if dotted == "derivations.derivation_space":
            signature = inspect.signature(original)
            keys = self.solve_keys

            def hook(args, kwargs):
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                a = bound.arguments
                keys.append((a["L"], _scalar_key(a["lam"]),
                             _scalar_key(a["mu"]), _scalar_key(a["gamma"]),
                             a["k"], a["l"]))
            return hook
        if dotted in FLAGS:
            seen = self.flag_algebras

            def hook(args, kwargs):
                seen.add(args[0] if args else kwargs["L"])
            return hook
        return None

    # --- marks and analysis --------------------------------------------------

    def mark(self, label):
        """Start a labelled part; call only between items (no open span)."""
        self.marks.append((label, len(self.spans), dict(self.counts),
                           len(self.solve_keys)))

    def parts(self):
        """Label -> list of (span range, counts delta, solve key range)."""
        ends = self.marks[1:] + [("end", len(self.spans), dict(self.counts),
                                  len(self.solve_keys))]
        out = {}
        for (label, s0, c0, k0), (_, s1, c1, k1) in zip(self.marks, ends):
            delta = {key: c1[key] - c0[key] for key in c1}
            out.setdefault(label, []).append(((s0, s1), delta, (k0, k1)))
        return out

    def summarize(self, selection=None):
        """Per-layer figures over the marked parts named in ``selection``
        (all of them when None)."""
        parts = self.parts()
        chosen = [p for label, ps in parts.items()
                  if selection is None or label in selection for p in ps]
        n = len(self.names)
        calls = [0] * n
        self_time = [0.0] * n
        counts = dict.fromkeys(self.counts, 0)
        keys = []
        covered = {}
        by_parent = {}
        for (s0, s1), delta, (k0, k1) in chosen:
            for key, value in delta.items():
                counts[key] += value
            keys.extend(self.solve_keys[k0:k1])
            for i in range(s0, s1):
                idx, start, end, parent = self.spans[i]
                covered[parent] = covered.get(parent, 0.0) + (end - start)
        for (s0, s1), _, _ in chosen:
            for i in range(s0, s1):
                idx, start, end, parent = self.spans[i]
                calls[idx] += 1
                self_time[idx] += (end - start) - covered.get(i, 0.0)
                if parent >= 0:
                    pair = (self.names[self.spans[parent][0]], self.names[idx])
                    by_parent[pair] = by_parent.get(pair, 0) + 1
        for i, name in enumerate(self.names):
            if TARGETS[i][1] == "span":
                counts[name] = calls[i]
        return {"counts": counts,
                "self_s": dict(zip(self.names, self_time)),
                "by_parent": by_parent,
                "distinct_solves": len(set(keys))}

    def unexercised(self, workload):
        """Targets meant for this workload that recorded no call."""
        totals = self.summarize()["counts"]
        return [dotted for dotted, _, workloads in TARGETS
                if workload in workloads and totals[dotted] == 0]

    def write(self, path):
        """Spans as tab-separated lines: index, name, start, end, parent."""
        with open(path, "w", encoding="ascii") as out:
            out.write("index\tname\tstart_s\tend_s\tparent\n")
            for label, s0, _, _ in self.marks:
                out.write("# mark %s at span %d\n" % (label, s0))
            for i, (idx, start, end, parent) in enumerate(self.spans):
                out.write("%d\t%s\t%.9f\t%.9f\t%d\n"
                          % (i, self.names[idx], start, end, parent))
