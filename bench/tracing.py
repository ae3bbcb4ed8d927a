"""Per-layer spans recorded from outside the program.

``Tracer.install`` replaces each layer's public functions -- in the module
that defines them and in every ``motivic`` module that imported them by name
-- and a few class methods with wrappers that record a span (layer, start,
end, parent, job) in memory.  ``uninstall`` puts the originals back, so an
untraced pass in the same process runs the program's own code unchanged.

A layer's self time is its span's duration minus its direct children's
durations; summed over one job's spans it telescopes to the job's wall time.
"""
from __future__ import annotations

import importlib
import math
import sys
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = "cli"


def _lcm_moduli(cond) -> int:
    from motivic.presburger import And, Mod, Not, Or

    if isinstance(cond, Mod):
        return cond.modulus
    if isinstance(cond, (And, Or)):
        out = 1
        for c in cond.children:
            out = math.lcm(out, _lcm_moduli(c))
        return out
    if isinstance(cond, Not):
        return _lcm_moduli(cond.child)
    return 1


def _count_jets(counts, args, result):
    counts["jets.enumerate.jets"] += result


def _count_survivors(counts, args, result):
    counts["jets.stabilized.N_n"] += result.N_n
    counts["jets.stabilized.level_n"] += result.counts[0]


def _count_cones(counts, args, result):
    counts["polyhedra.partition.cones"] += len(result)


def _count_genfun(counts, args, result):
    counts["presburger.genfun.num_terms"] += len(result.num)
    P = args[0]
    counts["presburger.residue_classes"] += _lcm_moduli(P.condition) ** P.m


def _count_coeffs(counts, args, result):
    counts["series.expand.coeffs"] += len(result)


# (module, attribute path, layer, counter).  The layers are the modules of
# the package; each entry is a public name or an arithmetic dunder.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("motivic.models", "parse_model", "models.parse", None),
    ("motivic.parsing", "parse_motclass", "parsing.parse", None),
    ("motivic.parsing", "format_motclass", "parsing.format", None),
    ("motivic.parsing", "format_hodge", "parsing.format", None),
    ("motivic.presburger", "format_ratfunc", "parsing.format", None),
    ("motivic.grring", "MotClass.__add__", "grring.add", None),
    ("motivic.grring", "MotClass.__mul__", "grring.mul", None),
    ("motivic.grring", "LaurentPoly.divexact", "grring.divexact", None),
    ("motivic.grring", "chi_realize", "grring.realize", None),
    ("motivic.grring", "hodge_realize", "grring.realize", None),
    ("motivic.series", "expand", "series.expand", _count_coeffs),
    ("motivic.series", "limit_of_coefficients", "series.limit", None),
    ("motivic.series", "compare_counts", "series.compare", None),
    ("motivic.polyhedra", "linearity_partition", "polyhedra.partition", _count_cones),
    ("motivic.polyhedra", "z_of_delta", "polyhedra.zdelta", None),
    ("motivic.presburger", "genfun", "presburger.genfun", _count_genfun),
    ("motivic.presburger", "genfun_image", "presburger.genfun", _count_genfun),
    ("motivic.presburger", "RatFunc.__add__", "presburger.ratfunc_add", None),
    ("motivic.motvol", "volume_from_resolution", "motvol.volume", None),
    ("motivic.motvol", "volume_with_ideal", "motvol.volume", None),
    ("motivic.motvol", "kontsevich_invariant", "motvol.volume", None),
    ("motivic.motvol", "volume_from_polyhedra", "motvol.volume", None),
    ("motivic.motvol", "realize_volume", "motvol.volume", None),
    ("motivic.jets", "enumerate_jets", "jets.enumerate", _count_jets),
    ("motivic.jets", "stabilized_count", "jets.stabilized", _count_survivors),
    ("motivic.jets", "poincare_table", "jets.table", None),
    ("motivic.jets", "oesterle_sequence", "jets.table", None),
    ("motivic.jets", "count_semialg", "jets.semialg", None),
]

LAYERS = [ROOT] + sorted({t[2] for t in TARGETS})
COUNTED_CALLS = ("grring.add", "grring.mul", "grring.divexact",
                 "presburger.ratfunc_add", "jets.stabilized")
COUNTERS = ("jets.enumerate.jets", "jets.stabilized.N_n", "jets.stabilized.level_n",
            "polyhedra.partition.cones", "presburger.genfun.num_terms",
            "presburger.residue_classes", "series.expand.coeffs")

# Every per-layer metric a traced run reports: (name, unit).
METRICS: List[Tuple[str, str]] = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.calls", "count") for layer in COUNTED_CALLS]
    + [("jets.enumerate.jets", "count"), ("jets.stabilized.survivor_ratio", "ratio"),
       ("jets.budget_exceeded", "count"), ("polyhedra.partition.cones", "count"),
       ("presburger.genfun.num_terms", "count"), ("presburger.residue_classes", "count"),
       ("series.expand.coeffs", "count"), ("trace.overhead_frac", "fraction")])


class Tracer:
    """Spans of one traced pass, kept in parallel lists until written out."""

    def __init__(self):
        self.layer: List[str] = []
        self.start: List[float] = []
        self.end: List[float] = []
        self.parent: List[int] = []
        self.job: List[int] = []
        self.stack: List[int] = [-1]
        self.job_id = -1
        self.counts: Dict[str, int] = {k: 0 for k in COUNTERS}
        self._restore: List[Tuple[object, str, object]] = []

    def span(self, layer: str, fn: Callable, counter: Optional[Callable] = None):
        def wrapper(*args, **kwargs):
            idx = len(self.layer)
            self.layer.append(layer)
            self.parent.append(self.stack[-1])
            self.job.append(self.job_id)
            self.end.append(0.0)
            self.stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = time.perf_counter()
                self.stack.pop()
            if counter is not None:
                counter(self.counts, args, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "motivic" or name.startswith("motivic.")]
        for modname, path, layer, counter in TARGETS:
            owner = importlib.import_module(modname)
            if "." in path:  # a method: patch the class
                cls_name, attr = path.split(".")
                owner = getattr(owner, cls_name)
                original = owner.__dict__[attr]
                self._patch(owner, attr, self.span(layer, original, counter))
                continue
            original = getattr(owner, path)
            wrapper = self.span(layer, original, counter)
            for m in modules:  # the defining module and every importer
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, wrapper)

    def _patch(self, target, name: str, value) -> None:
        self._restore.append((target, name, getattr(target, name)))
        setattr(target, name, value)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._restore):
            setattr(target, name, original)
        self._restore.clear()

    def call_job(self, job_id: int, fn: Callable, *args):
        """Run one job under a root span; returns fn's result."""
        self.job_id = job_id
        return self.span(ROOT, fn)(*args)


def self_times(start: Sequence[float], end: Sequence[float],
               parent: Sequence[int]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def job_walls(start, end, parent, job) -> Dict[int, float]:
    return {job[i]: end[i] - start[i] for i, p in enumerate(parent) if p < 0}


def summarize(tr: Tracer, budget_exceeded: int) -> Tuple[Dict[str, float], float]:
    """Per-layer totals of one pass, and the largest gap between a job's wall
    time and the sum of its spans' self times."""
    own = self_times(tr.start, tr.end, tr.parent)
    out: Dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    out.update({f"{layer}.calls": 0 for layer in COUNTED_CALLS})
    per_job: Dict[int, float] = {}
    for name, t, j in zip(tr.layer, own, tr.job):
        out[f"{name}.self_s"] += t
        if name in COUNTED_CALLS:
            out[f"{name}.calls"] += 1
        per_job[j] = per_job.get(j, 0.0) + t
    walls = job_walls(tr.start, tr.end, tr.parent, tr.job)
    gap = max((abs(per_job[j] - w) for j, w in walls.items()), default=0.0)
    c = tr.counts
    out.update({k: c[k] for k in ("jets.enumerate.jets", "polyhedra.partition.cones",
                                  "presburger.genfun.num_terms",
                                  "presburger.residue_classes", "series.expand.coeffs")})
    level = c["jets.stabilized.level_n"]
    out["jets.stabilized.survivor_ratio"] = c["jets.stabilized.N_n"] / level if level else 0.0
    out["jets.budget_exceeded"] = budget_exceeded
    return out, gap


def write_spans(tr: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("span\tparent\tjob\tlayer\tstart_s\tend_s\n")
        t0 = tr.start[0] if tr.start else 0.0
        for i, (layer, s, e, p, j) in enumerate(zip(tr.layer, tr.start, tr.end,
                                                     tr.parent, tr.job)):
            fh.write(f"{i}\t{p}\t{j}\t{layer}\t{s - t0:.9f}\t{e - t0:.9f}\n")
