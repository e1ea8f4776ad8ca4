"""Per-layer tracing of hcdirac, installed from outside the package.

The layers are the hcdirac modules.  Coarse functions get a span (name,
start, end, parent); hot ones, such as Scalar arithmetic and Matrix.matvec,
only get a call counter.  A wrapper replaces the original object in every
hcdirac module namespace that holds it, because modules bind each other's
functions by name: patching hcdirac.modules.induced_module alone would miss
the calls made through hcdirac.cohomology and hcdirac.cli.

Spans stay in memory until the pass ends.  A span's self time is its
duration minus the durations of its direct children; single-threaded calls
nest, so the children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict

# Spans: (span name, module, qualified name).  The span name's prefix is the
# layer; the per-layer metrics below add self times up by span name.
SPANS = [
    ("weyl.reduced_word", "weyl", "RootSystemCtx.reduced_word"),
    ("weyl.build_words", "weyl", "RootSystemCtx._build_words"),
    ("weyl.elements", "weyl", "RootSystemCtx.elements"),
    ("engine.multiply", "engine", "Algebra.multiply"),
    ("engine.relations", "engine", "defining_relations"),
    ("engine.eval_relation", "engine", "eval_relation_tokens"),
    ("engine.relation_closure", "engine", "check_relations_in_engine"),
    ("engine.associativity", "engine", "check_pbw_consistency"),
    ("dirac.element", "dirac", "dirac_element"),
    ("dirac.casimirs", "dirac", "casimirs"),
    ("dirac.identities", "dirac", "verify_identities"),
    ("modules.induced", "modules", "induced_module"),
    ("modules.steinberg", "modules", "steinberg_module"),
    ("modules.relcheck", "modules", "check_module_relations"),
    ("modules.act", "modules", "ModuleRep.act"),
    ("linalg.matmul", "linalg", "Matrix.__mul__"),
    ("linalg.kernel", "linalg", "Subspace.kernel"),
    ("linalg.image", "linalg", "Subspace.image"),
    ("linalg.intersect", "linalg", "Subspace.intersect"),
    ("linalg.invariant", "linalg", "Subspace.is_invariant"),
    ("linalg.quotient", "linalg", "quotient_matrix"),
    ("cohomology.vogan", "cohomology", "verify_vogan"),
    ("cohomology.dirac_cohomology", "cohomology", "dirac_cohomology"),
    ("centers.center", "centers", "seg_even_center"),
    ("centers.zeta_surjective", "centers", "verify_zeta_surjective"),
    ("centers.zeta_dirac", "centers", "zeta_on_dirac"),
    ("cli.main", "cli", "main"),
]

# Counters without a span: (counter name, module, qualified name).
COUNTERS = [
    ("scalars.mul_calls", "scalars", "Scalar.__mul__"),
    ("scalars.mul_calls", "scalars", "Scalar.__rmul__"),
    ("scalars.add_calls", "scalars", "Scalar.__add__"),
    ("scalars.add_calls", "scalars", "Scalar.__radd__"),
    ("scalars.inverse_calls", "scalars", "Scalar.inverse"),
    ("scalars.bool_calls", "scalars", "Scalar.__bool__"),
    ("weyl.ctx_builds", "weyl", "RootSystemCtx.__init__"),
    ("linalg.matvec_calls", "linalg", "Matrix.matvec"),
]

# Per-layer metric -> (unit, kind, source), where kind and source are
#   "count", name: a counter or the call count of a span
#   "self", names: the summed self time of the spans
#   "value", name: a value recorded by a hook
LAYER_METRICS = {
    "scalars.mul_calls": ("count", "count", "scalars.mul_calls"),
    "scalars.add_calls": ("count", "count", "scalars.add_calls"),
    "scalars.inverse_calls": ("count", "count", "scalars.inverse_calls"),
    "scalars.bool_calls": ("count", "count", "scalars.bool_calls"),
    "weyl.ctx_builds": ("count", "count", "weyl.ctx_builds"),
    "weyl.reduced_word_calls": ("count", "count", "weyl.reduced_word"),
    "weyl.self_s": ("s", "self", ["weyl.reduced_word", "weyl.build_words", "weyl.elements"]),
    "engine.multiply_calls": ("count", "count", "engine.multiply"),
    "engine.multiply_s": ("s", "self", ["engine.multiply"]),
    "engine.self_s": ("s", "self", ["engine.multiply", "engine.relations", "engine.eval_relation",
                                             "engine.relation_closure", "engine.associativity"]),
    "dirac.element_s": ("s", "self", ["dirac.element", "dirac.casimirs"]),
    "dirac.identities_s": ("s", "self", ["dirac.identities"]),
    "modules.build_s": ("s", "self", ["modules.induced", "modules.steinberg"]),
    "modules.relcheck_s": ("s", "self", ["modules.relcheck"]),
    "modules.relcheck_calls": ("count", "count", "modules.relcheck"),
    "modules.act_s": ("s", "self", ["modules.act"]),
    "modules.act_calls": ("count", "count", "modules.act"),
    "modules.dim_max": ("count", "value", "modules.dim_max"),
    "modules.d_nnz": ("count", "value", "modules.d_nnz"),
    "linalg.matmul_calls": ("count", "count", "linalg.matmul"),
    "linalg.matmul_s": ("s", "self", ["linalg.matmul"]),
    "linalg.matvec_calls": ("count", "count", "linalg.matvec_calls"),
    "linalg.kernel_calls": ("count", "count", "linalg.kernel"),
    "linalg.kernel_s": ("s", "self", ["linalg.kernel"]),
    "linalg.kernel_hit_ratio": ("1", "value", "linalg.kernel_hit_ratio"),
    "linalg.image_s": ("s", "self", ["linalg.image"]),
    "linalg.intersect_s": ("s", "self", ["linalg.intersect"]),
    "linalg.invariant_s": ("s", "self", ["linalg.invariant"]),
    "linalg.quotient_s": ("s", "self", ["linalg.quotient"]),
    "cohomology.self_s": ("s", "self", ["cohomology.vogan", "cohomology.dirac_cohomology"]),
    "centers.center_s": ("s", "self", ["centers.center"]),
    "centers.zeta_s": ("s", "self", ["centers.zeta_surjective", "centers.zeta_dirac"]),
    "cli.self_s": ("s", "self", ["cli.main"]),
}

# Computed by run.py from a traced and an untraced pass of the same run.
OVERHEAD_METRIC = ("trace.overhead_ratio", "1")

# Hooks run after their span has closed, inside a span of this name, which
# belongs to no layer: their cost is kept out of every layer's self time.
HOOK_SPAN = "trace.hook"


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "hcdirac" or name.startswith("hcdirac."))]


def _resolve(module: str, qualname: str):
    """(owner, attribute, raw value) of hcdirac.<module>.<qualname>."""
    owner = sys.modules[f"hcdirac.{module}"]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


def replace(module: str, qualname: str, make_wrapper) -> None:
    """Wrap one function or method at its definition and at every import site."""
    owner, attr, raw = _resolve(module, qualname)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make_wrapper(raw.__func__)))
        return
    wrapper = make_wrapper(raw)
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for mod in _package_modules():
        for name, value in list(vars(mod).items()):
            if value is raw:
                setattr(mod, name, wrapper)


def probe_module_dims(dims: list[int]) -> None:
    """Record the dimension of every module that induced_module/steinberg_module return.

    This is the only wrapping an untraced pass installs: one call per case.
    """
    def make(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            module = func(*args, **kwargs)
            dims.append(module.dim)
            return module
        return wrapper

    for qualname in ("induced_module", "steinberg_module"):
        replace("modules", qualname, make)


class Tracer:
    """Spans and counters for one traced pass."""

    def __init__(self, module_dims: list[int]):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list[list] = []  # [name id, start, end, parent index or -1]
        self._stack: list[list] = []  # [span index, start, time covered by children]
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.values: dict[str, float] = {"modules.dim_max": 0, "modules.d_nnz": 0}
        self.module_dims = module_dims
        self._kernels = [0, 0]  # [kernels with dim > 0, kernels]
        self._dirac_elements: list = []
        self._is_nonzero = None

    # -- recording ----------------------------------------------------------

    def _enter(self, name: str) -> None:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        parent = self._stack[-1][0] if self._stack else -1
        start = time.perf_counter()
        self.spans.append([nid, start, 0.0, parent])
        self._stack.append([len(self.spans) - 1, start, 0.0])

    def _exit(self) -> None:
        end = time.perf_counter()
        index, start, covered = self._stack.pop()
        span = self.spans[index]
        span[2] = end
        duration = end - start
        self.self_s[self.names[span[0]]] += duration - covered
        if self._stack:
            self._stack[-1][2] += duration

    def spanned(self, name: str, after=None):
        """Wrapper factory: a span per call, then the optional hook."""
        counts = self.counts

        def make(func):
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                self._enter(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    self._exit()
                if after is not None:
                    self._enter(HOOK_SPAN)
                    try:
                        after(result, args)
                    finally:
                        self._exit()
                return result
            return wrapper
        return make

    def counted(self, name: str):
        counts = self.counts

        def make(func):
            @functools.wraps(func)
            def wrapper(*args):
                counts[name] += 1
                return func(*args)
            return wrapper
        return make

    # -- hooks --------------------------------------------------------------

    def _after_module(self, module, _args) -> None:
        self.module_dims.append(module.dim)
        self.values["modules.dim_max"] = max(self.values["modules.dim_max"], module.dim)

    def _after_dirac_element(self, elem, _args) -> None:
        self._dirac_elements.append(elem)

    def _after_act(self, matrix, args) -> None:
        elem = args[1]
        if any(elem is d for d in self._dirac_elements):
            nonzero = self._is_nonzero  # the unwrapped Scalar.__bool__: not counted
            self.values["modules.d_nnz"] += sum(1 for row in matrix.rows for a in row if nonzero(a))

    def _after_kernel(self, space, _args) -> None:
        self._kernels[0] += space.dim > 0
        self._kernels[1] += 1

    # -- installation and results -------------------------------------------

    def install(self) -> None:
        """Wrap every traced hcdirac function; hcdirac must already be imported."""
        self._is_nonzero = _resolve("scalars", "Scalar.__bool__")[2]
        hooks = {
            "modules.induced": self._after_module,
            "modules.steinberg": self._after_module,
            "dirac.element": self._after_dirac_element,
            "modules.act": self._after_act,
            "linalg.kernel": self._after_kernel,
        }
        for name, module, qualname in COUNTERS:
            replace(module, qualname, self.counted(name))
        for name, module, qualname in SPANS:
            replace(module, qualname, self.spanned(name, hooks.get(name)))

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric of LAYER_METRICS, by name."""
        hits, kernels = self._kernels
        values = dict(self.values, **{"linalg.kernel_hit_ratio": hits / kernels if kernels else 0.0})
        out = {}
        for metric, (_unit, kind, arg) in LAYER_METRICS.items():
            if kind == "count":
                out[metric] = self.counts[arg]
            elif kind == "self":
                out[metric] = sum(self.self_s[name] for name in arg)
            else:
                out[metric] = values[arg]
        return out

    def write(self, path) -> None:
        """Write every span as [name, start, end, parent index] to a JSON file."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh, separators=(",", ":"))
