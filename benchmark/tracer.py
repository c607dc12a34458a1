"""Out-of-program tracer: wraps dirhom's layer entry points from outside.

`Tracer.install()` replaces the public module-level functions of each
layer module, the click command callbacks of `dirhom.cli`, and the
methods and private helpers the per-layer metrics need, with wrappers
that record one span per call: (name, start, end, parent span, job id,
info).  A name bound elsewhere by `from .exactla import ...` is rebound in
every loaded `dirhom` module; methods are wrapped on their class.
`uninstall()` puts every original back.  Spans stay in memory until the
run writes them out.  `layer_metrics` turns the spans into per-job means.
"""

from __future__ import annotations

import json
import sys
import types
from time import perf_counter

MODULES = ("precubical", "cubechain", "exactla", "homology", "scalars",
           "exactseq", "ez")

# Wrapped beyond the public module-level functions: (module, owner, names),
# owner None for module-level names.
EXTRA = (
    ("exactla", None, ("_rref",)),
    ("exactla", "Matrix", ("__matmul__",)),
    ("exactla", "Subspace", ("__init__", "span", "contains")),
    ("cubechain", "GradedComplex", ("check_boundary_square",)),
    ("homology", "HomologyTable", ("__init__",)),
    ("homology", "PairHomology", ("class_vector",)),
    ("scalars", "ResolvedBimodule", ("dim", "_reduce")),
    ("exactseq", None, ("_mv_connecting",)),
    ("exactseq", "QuotientComplex", ("__init__",)),
    ("exactseq", "_LeftQuotient", ("__init__",)),
    ("ez", "TensorSetting", ("build",)),
)


def _nnz(rows, zero) -> int:
    return sum(1 for r in rows for v in r if v != zero)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.spans: list = []
        self.stack: list[int] = []
        self.job = -1
        self.keepalive: list = []
        self._restore: list = []
        self._infos = self._info_hooks()

    # -- recording ----------------------------------------------------------

    def start_job(self, job_id: int) -> None:
        self.job = job_id

    def end_job(self) -> None:
        self.keepalive.clear()

    def _wrap(self, name: str, fn):
        idx = self._index.get(name)
        if idx is None:
            idx = self._index[name] = len(self.names)
            self.names.append(name)
        before, after = self._infos.get(name, (None, None))
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            state = before(args) if before else None
            parent = stack[-1] if stack else -1
            i = len(spans)
            spans.append(None)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[i] = (idx, t0, t1, parent, self.job, None)
            if after:
                spans[i] = (idx, t0, t1, parent, self.job, after(args, result, state))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _info_hooks(self) -> dict:
        """Counters taken at the call boundaries, keyed by span name."""

        def rref_info(args, result, state):
            rows, ncols, zero = args[0], args[1], args[2]
            return (len(rows) * ncols, _nnz(rows, zero))

        def matmul_info(args, result, state):
            a, b = args
            z = a.field.zero
            return (a.rows * a.cols + b.rows * b.cols,
                    _nnz(a.data, z) + _nnz(b.data, z))

        def catalog_before(args):
            from dirhom import cubechain
            x = args[0]
            key = (id(x), args[1] if len(args) > 1 else None)
            hit = cubechain._catalog_cache.get(key)
            return hit is not None and hit["ref"] is x

        def catalog_info(args, result, cached):
            return 0 if cached else sum(len(v) for v in result.values())

        def homology_of_info(args, result, state):
            cx, i, pair = args[:3]
            self.keepalive.append(cx)
            return (id(cx), i, pair)

        def reduce_before(args):
            res, s, e = args
            return (s, e) in res._rref

        def reduce_info(args, result, cached):
            return 0 if cached else 1

        def nodes_info(args, result, state):
            return len(result.nodes)

        return {
            "exactla._rref": (None, rref_info),
            "exactla.Matrix.__matmul__": (None, matmul_info),
            "cubechain.chain_catalog": (catalog_before, catalog_info),
            "homology.homology_of": (None, homology_of_info),
            "scalars.ResolvedBimodule._reduce": (reduce_before, reduce_info),
            "exactseq.verify_exact": (None, nodes_info),
        }

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        import dirhom.cli

        mods = {m: sys.modules[f"dirhom.{m}"] for m in MODULES}
        replace: dict[int, object] = {}
        for m, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    replace[id(obj)] = self._wrap(f"{m}.{name}", obj)
        for m, owner, names in EXTRA:
            mod = mods[m]
            if owner is None:
                for name in names:
                    replace[id(getattr(mod, name))] = self._wrap(
                        f"{m}.{name}", getattr(mod, name))
                continue
            cls = getattr(mod, owner)
            for name in names:
                raw = cls.__dict__[name]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(f"{m}.{owner}.{name}", raw.__func__))
                else:
                    new = self._wrap(f"{m}.{owner}.{name}", raw)
                self._set(cls, name, new)
        loaded = [mod for key, mod in list(sys.modules.items())
                  if key == "dirhom" or key.startswith("dirhom.")]
        for mod in loaded:
            for name, obj in list(vars(mod).items()):
                new = replace.get(id(obj))
                if new is not None and new.__wrapped__ is obj:
                    self._set(mod, name, new)
        for verb, cmd in dirhom.cli.main.commands.items():
            self._set(cmd, "callback", self._wrap(f"cli.{verb}", cmd.callback))

    def _set(self, obj, name: str, value) -> None:
        self._restore.append((obj, name, vars(obj)[name]))
        setattr(obj, name, value)

    def uninstall(self) -> None:
        while self._restore:
            obj, name, old = self._restore.pop()
            setattr(obj, name, old)

    def write(self, path) -> None:
        """One JSON line per span: name, start, end, parent, job, info."""
        with open(path, "w", encoding="utf-8") as fh:
            for idx, t0, t1, parent, job, info in self.spans:
                fh.write(json.dumps([self.names[idx], t0, t1, parent, job, info]) + "\n")


# -- per-layer metrics -------------------------------------------------------------

ELIM = ("exactla.rank", "exactla.kernel_basis", "exactla.image_basis",
        "exactla.solve_in_image", "exactla.invert", "exactla.quotient_map",
        "exactla.induced_on_quotient", "exactla.Subspace.__init__",
        "exactla.Subspace.span", "exactla.Subspace.contains")

# metric name -> span names whose outermost calls it times
GROUPS = {
    "precubical.load_s": ("precubical.load",),
    "precubical.tensor_s": ("precubical.tensor",),
    "cubechain.enum_s": ("cubechain.chain_catalog",),
    "cubechain.dd_check_s": ("cubechain.GradedComplex.check_boundary_square",),
    "exactla.elim_s": ELIM,
    "exactla.matmul_s": ("exactla.Matrix.__matmul__",),
    "homology.table_s": ("homology.HomologyTable.__init__",),
    "homology.class_vector_s": ("homology.PairHomology.class_vector",),
    "scalars.reduce_s": ("scalars.ResolvedBimodule.dim",
                         "scalars.ResolvedBimodule._reduce"),
    "scalars.present_s": ("scalars.present_chain_module", "scalars.present_homology",
                          "scalars.re_present", "scalars.extend_presented"),
    "exactseq.pair_check_s": ("exactseq.check_relative_pair",),
    "exactseq.quotient_s": ("exactseq.QuotientComplex.__init__",
                            "exactseq._LeftQuotient.__init__"),
    "exactseq.connecting_s": ("exactseq.connecting_map", "exactseq._mv_connecting"),
    "exactseq.verify_exact_s": ("exactseq.verify_exact",),
    "ez.setting_s": ("ez.TensorSetting.build",),
    "ez.comparison_s": ("ez.tensor_comparison_report",),
    "ez.kunneth_s": ("ez.kunneth_report",),
}


def layer_metrics(names: list[str], spans: list, jobs: int) -> dict[str, float]:
    """Per-job means of the per-layer times and counts.

    A group's time is the summed duration of its outermost spans, so a call
    nested in another call of the same group counts once.
    """
    bit = {}
    for g, members in enumerate(GROUPS.values()):
        for n in members:
            bit[n] = bit.get(n, 0) | (1 << g)
    own = [bit.get(n, 0) for n in names]
    totals = [0.0] * len(GROUPS)
    mask = [0] * len(spans)
    count = {n: 0 for n in names}
    for i, (idx, t0, t1, parent, job, info) in enumerate(spans):
        inherited = mask[parent] if parent >= 0 else 0
        mask[i] = inherited | own[idx]
        fresh = own[idx] & ~inherited
        g = 0
        while fresh:
            if fresh & 1:
                totals[g] += t1 - t0
            fresh >>= 1
            g += 1
        count[names[idx]] += 1
    out = {k: totals[g] for g, k in enumerate(GROUPS)}

    def name(i):
        return names[spans[i][0]]

    build = "cubechain.build_complex"
    table = "homology.HomologyTable.__init__"
    assembly = action = 0.0
    chains = elim_calls = elim_entries = elim_nnz = 0
    mm_entries = mm_nnz = pairs_reduced = nodes = 0
    keys: set = set()
    for i, (idx, t0, t1, parent, job, info) in enumerate(spans):
        n = names[idx]
        if n == build:
            assembly += t1 - t0
        elif n == table:
            action += t1 - t0
        if parent >= 0:
            pn = name(parent)
            if pn == build and n in ("cubechain.chain_catalog",
                                     "cubechain.GradedComplex.check_boundary_square"):
                assembly -= t1 - t0
            elif pn == table and n == "homology.homology_of":
                action -= t1 - t0
        if n == "cubechain.chain_catalog":
            chains += info
        elif n == "exactla._rref" and (parent < 0 or name(parent)
                                       != "scalars.ResolvedBimodule._reduce"):
            elim_calls += 1
            elim_entries += info[0]
            elim_nnz += info[1]
        elif n == "exactla.Matrix.__matmul__":
            mm_entries += info[0]
            mm_nnz += info[1]
        elif n == "homology.homology_of":
            keys.add((job,) + info)
        elif n == "scalars.ResolvedBimodule._reduce":
            pairs_reduced += info
        elif n == "exactseq.verify_exact":
            nodes += info
    hcalls = count.get("homology.homology_of", 0)
    out.update({
        "cubechain.assembly_s": assembly,
        "cubechain.chains": chains,
        "cubechain.build_calls": count.get(build, 0),
        "exactla.elim_calls": elim_calls,
        "exactla.elim_entries": elim_entries,
        "exactla.matmul_calls": count.get("exactla.Matrix.__matmul__", 0),
        "homology.action_check_s": action,
        "homology.homology_of_calls": hcalls,
        "homology.class_vector_calls": count.get("homology.PairHomology.class_vector", 0),
        "scalars.pairs_reduced": pairs_reduced,
        "exactseq.exact_nodes": nodes,
    })
    out = {k: v / jobs for k, v in out.items()}
    out["exactla.density"] = elim_nnz / elim_entries if elim_entries else 0.0
    out["exactla.matmul_density"] = mm_nnz / mm_entries if mm_entries else 0.0
    out["homology.recompute_ratio"] = hcalls / len(keys) if keys else 0.0
    return out


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    own = [t1 - t0 for (_, t0, t1, _, _, _) in spans]
    for (_, t0, t1, parent, _, _) in spans:
        if parent >= 0:
            own[parent] -= t1 - t0
    return own
