"""Spans around the public functions of ncgb's modules, from outside the library.

``Tracer.install`` replaces every public function of the layer modules in
the namespace where its callers look it up: a name brought in with
``from .x import y`` is wrapped in the importing module, so
``ncgb.completion.meet`` and ``ncgb.reduction.meet`` record separate spans.
``ReductionOperator.__init__`` is wrapped as a span too, and
``Polynomial.__init__`` only counts constructions.  ``uninstall`` puts
every original object back.

Spans live in flat arrays while the run goes and are reduced to self times
(duration minus the time covered by child spans) at the end.  Counts taken
from arguments and results run in their own ``trace.count`` span, so they
are not charged to any layer.
"""

from __future__ import annotations

import functools
import time
import types
from array import array
from collections import Counter, defaultdict

import ncgb
from ncgb import completion, fileformat, linalg, presentation, reduction, words

LAYERS = {
    "words": words,
    "linalg": linalg,
    "reduction": reduction,
    "presentation": presentation,
    "completion": completion,
    "fileformat": fileformat,
}

# Spans are named by the function's definition, summed over every place it
# is looked up, except at these sites: the completion loop calls the same
# function there for another phase (the final meet, not the meet inside the
# complement), so they are kept apart.
SITE_KEYED = {"completion.meet", "completion.critical_branchings"}

ROOT = "bench.op"
COUNT = "trace.count"


def _short(module_name: str) -> str:
    return module_name.rpartition(".")[2]


def _disallowed(args, out):
    A, allowed = args[0], args[1]
    support = set()
    for v in A:
        support |= v.support()
    return (len(support - set(allowed)),)


# Counts taken at a function's boundary, keyed by its definition: the names
# of the counts, and a function of (arguments, result) that gives them.
HOOKS = {
    "presentation.critical_branchings": (("found",), lambda a, out: (len(out),)),
    "completion.normalisation": (
        ("seeds_in", "family_out"),
        lambda a, out: (len(a[0]), len(out)),
    ),
    "reduction.complement": (
        ("rules_out", "family_in"),
        lambda a, out: (len(out.rules), len(a[0])),
    ),
    "linalg.reduced_basis": (("rows_in", "rank_out"), lambda a, out: (len(a[0]), len(out))),
    "linalg.coordinate_subspace_intersection": (("cols_disallowed",), _disallowed),
    "presentation.normal_form": (("terms_out",), lambda a, out: (len(out.support()),)),
}


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise,
    so checks run between operations are not traced."""

    def __init__(self) -> None:
        self.active = False
        self.keys: list[str] = []  # span key per site index
        self.layers: list[str] = []  # defining module per site index
        self.site_names: list[str] = []
        self.definitions: set[str] = set()  # every wrapped function
        self._site_index: dict[str, int] = {}
        self.site = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.constructed = 0
        self._saved: list[tuple[object, str, object]] = []
        self._count_site = self._site(COUNT, COUNT, "trace")
        self._root_site = self._site(ROOT, ROOT, "bench")

    def _site(self, site: str, key: str, layer: str) -> int:
        if site not in self._site_index:
            self._site_index[site] = len(self.keys)
            self.keys.append(key)
            self.layers.append(layer)
            self.site_names.append(site)
        return self._site_index[site]

    # -- recording -----------------------------------------------------

    def _open(self, site: int) -> int:
        sid = len(self.site)
        self.site.append(site)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def op(self, fn, *args):
        """Run one benchmark operation inside a root span, recording only
        while it runs."""
        self.active = True
        sid = self._open(self._root_site)
        try:
            return fn(*args)
        finally:
            self._close(sid)
            self.active = False

    def _wrap(self, fn, site: str, key: str, layer: str, definition: str):
        index = self._site(site, key, layer)
        self.definitions.add(definition)
        fields, hook = HOOKS.get(definition, ((), None))
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._open(index)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(sid)
            if hook is not None:
                cid = tracer._open(tracer._count_site)
                for field, n in zip(fields, hook(args, out)):
                    tracer.counts[f"{definition}.{field}"] += n
                tracer._close(cid)
            return out

        return wrapper

    # -- installation --------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> "Tracer":
        namespaces = [("ncgb", ncgb)] + list(LAYERS.items())
        for short, module in namespaces:
            for name, obj in list(vars(module).items()):
                if (
                    name.startswith("_")
                    or not isinstance(obj, types.FunctionType)
                    or _short(obj.__module__) not in LAYERS
                ):
                    continue
                layer = _short(obj.__module__)
                site, definition = f"{short}.{name}", f"{layer}.{obj.__name__}"
                key = site if site in SITE_KEYED else definition
                self._replace(module, name, self._wrap(obj, site, key, layer, definition))
        init = reduction.ReductionOperator.__init__
        name = "reduction.ReductionOperator.init"
        self._replace(
            reduction.ReductionOperator, "__init__", self._wrap(init, name, name, "reduction", name)
        )
        poly_init = linalg.Polynomial.__init__
        tracer = self

        @functools.wraps(poly_init)
        def counting_init(obj, terms=None):
            if tracer.active:
                tracer.constructed += 1
            poly_init(obj, terms)

        self._replace(linalg.Polynomial, "__init__", counting_init)
        return self

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        """Drop recorded spans and counts; the installed wrappers stay."""
        for arr in (self.site, self.parent, self.start, self.end):
            del arr[:]
        self.counts.clear()
        self.constructed = 0

    # -- reduction to self times ---------------------------------------

    def self_times(self) -> list[float]:
        n = len(self.site)
        covered = [0.0] * n
        parent, start, end = self.parent, self.start, self.end
        for sid in range(n):
            p = parent[sid]
            if p >= 0:
                covered[p] += end[sid] - start[sid]
        return [end[sid] - start[sid] - covered[sid] for sid in range(n)]

    def root_wall(self) -> float:
        """Total duration of the root spans: the traced wall time."""
        return sum(
            self.end[sid] - self.start[sid]
            for sid in range(len(self.site))
            if self.parent[sid] < 0
        )

    def summary(self) -> dict[str, dict[str, dict[str, float]]]:
        """Calls and self time per span key, per layer and per lookup site."""
        by_key: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        by_layer: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        by_site: dict = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for sid, s in enumerate(self.self_times()):
            i = self.site[sid]
            for table, name in (
                (by_key, self.keys[i]),
                (by_layer, self.layers[i]),
                (by_site, self.site_names[i]),
            ):
                table[name]["calls"] += 1
                table[name]["self_s"] += s
        return {"keys": dict(by_key), "layers": dict(by_layer), "sites": dict(by_site)}
