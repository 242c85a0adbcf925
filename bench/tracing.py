"""Per-layer and per-stage tracing from outside the package.

While installed, every public function of each quograph module, plus
RowBasis.add and RowBasis.contains, is replaced by a wrapper at each place
the package binds it. A wrapper charges time to a stack of layers (a layer is
a module), counts calls that cross from one layer into another, counts the
exceptions that cross back, and opens a stage span when it is the outermost
call of a pipeline stage. Kernel work counts are computed from argument
shapes, so they repeat exactly from run to run. Nothing under src/ changes;
a function a refactor removed or renamed is simply not wrapped, and its
stage is reported as absent.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("formats", "graphs", "exact", "partitions", "quotient", "spectral",
          "schemes", "orbits", "report")

# Outermost calls that make up each stage of one op (ROADMAP aim 1).
STAGES = {
    "parse": ("parse_graph_spec", "parse_graph6"),
    "distances": ("distances",),
    "ladder": ("adjacency_power_ladder",),
    "partition": ("global_partition",),
    "qp": ("decide_quotient_polynomial",),
    "spectrum": ("spectral_decomposition",),
    "spectrum_partition": ("spectrum_partition",),
    "dp": ("is_distance_polynomial",),
    "drg": ("is_distance_regular",),
    "h_punctual": ("is_h_punctually_walk_regular",),
    "scheme": ("build_scheme",),
    "scheme_check": ("generates_scheme_check",),
    "witness": ("scheme_via_solve", "qp_implies_dp",
                "extended_partition_stable"),
    "orbits": ("automorphisms", "orbit_partition", "is_orbit_polynomial"),
    "serialize": ("report_to_json",),
}
STAGE_OF = {fn: stage for stage, fns in STAGES.items() for fn in fns}


def _kernel_counts(name, args, counts, stage):
    """Work counts of the exact kernels, from argument shapes only."""
    if name == "mat_mul":
        a, b = args[0], args[1]
        madds = len(a) * len(b) * len(b[0])
        counts["exact.mat_mul.calls"] += 1
        counts["exact.mat_mul.madds"] += madds
        if stage:
            counts[f"stage.{stage}.madds"] += madds
    elif name == "solve":
        a, b = args[0], args[1]
        cells = len(a) * (len(a[0]) + len(b[0]))
        counts["exact.solve.calls"] += 1
        counts["exact.solve.cells"] += cells
        counts["exact.solve.rows"] += len(a)
        if stage:
            counts[f"stage.{stage}.solve_cells"] += cells
    elif name == "combine_powers":
        coeffs, powers = args[0], args[1]
        counts["exact.combine_powers.cells"] += (
            min(len(coeffs), len(powers)) * len(powers[0]) ** 2)
    elif name in ("add", "contains"):
        counts["exact.rowbasis.rows"] += 1


def _guarded(count, *args):
    """Counts read argument and result shapes; after a refactor changes a
    signature, skip the count rather than fail the op."""
    try:
        count(*args)
    except (LookupError, TypeError):
        pass


class Tracer:
    def __init__(self, package):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.counts: Counter = Counter()
        self.stage_s: dict[str, float] = defaultdict(float)
        self.ladder_kept = self.ladder_tested = 0
        self.member_rows = self.member_pairs = 0
        self._stack = ["bench"]
        self._stage = None
        self._last = time.perf_counter()
        self._paused = 0.0       # probe time seen while installed
        self._installed = False
        self._bindings = self._find_bindings(package.__name__)
        wrapped = {name for _, _, name, _, _ in self._bindings}
        self.absent = sorted(stage for stage, fns in STAGES.items()
                             if not wrapped & set(fns))

    def _wrap_targets(self, pkg: str) -> dict:
        """id -> (layer, name, function) for each function to trace."""
        targets = {}
        for layer in LAYERS:
            mod = sys.modules.get(f"{pkg}.{layer}")
            if mod is None:
                continue
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    targets[id(fn)] = (layer, name, fn)
            basis = getattr(mod, "RowBasis", None)
            if inspect.isclass(basis) and basis.__module__ == mod.__name__:
                for meth in ("add", "contains"):
                    fn = vars(basis).get(meth)
                    if fn is not None:
                        targets[id(fn)] = (layer, meth, fn)
        return targets

    def _find_bindings(self, pkg: str) -> list:
        """(owner, attribute, function name, original, wrapper) for every
        place the package binds a traced function: its modules and the
        classes they define."""
        targets = self._wrap_targets(pkg)
        wrappers = {k: self._wrap(*v) for k, v in targets.items()}
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == pkg or name.startswith(pkg + ".")]
        owners = modules + [c for m in modules for c in vars(m).values()
                            if inspect.isclass(c) and c.__module__ == m.__name__]
        out = []
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                if id(obj) in targets and targets[id(obj)][2] is obj:
                    out.append((owner, attr, targets[id(obj)][1], obj,
                                wrappers[id(obj)]))
        return out

    def install(self):
        for owner, attr, _, _, wrapper in self._bindings:
            setattr(owner, attr, wrapper)
        self._stack = ["bench"]
        self._last = time.perf_counter()
        self._installed = True

    def uninstall(self):
        self._switch()
        self._installed = False
        for owner, attr, _, orig, _ in self._bindings:
            setattr(owner, attr, orig)

    def on_probe(self, start: float, end: float):
        """Charge no layer and no stage for a calibration probe."""
        if self._installed:
            self.self_s[self._stack[-1]] += start - self._last
            self._last = end
            self._paused += end - start

    def _ladder_done(self, ladder, rows0):
        self.ladder_kept += len(ladder)
        self.ladder_tested += self.counts["exact.rowbasis.rows"] - rows0

    def _membership_done(self, args, solved0):
        self.member_pairs += len(args[1]) ** 2
        self.member_rows += self.counts["exact.solve.rows"] - solved0

    def _switch(self):
        now = time.perf_counter()
        self.self_s[self._stack[-1]] += now - self._last
        self._last = now

    def _wrap(self, layer, name, fn):
        stage_name = STAGE_OF.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cross = tracer._stack[-1] != layer
            if cross:
                tracer.calls[layer] += 1
            tracer._switch()
            tracer._stack.append(layer)
            opened = stage_name is not None and tracer._stage is None
            if opened:
                tracer._stage = stage_name
                t0, p0 = tracer._last, tracer._paused
            if layer == "exact":
                _guarded(_kernel_counts, name, args, tracer.counts, tracer._stage)
            rows0 = tracer.counts["exact.rowbasis.rows"]
            solved0 = tracer.counts["exact.solve.rows"]
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if cross:
                    tracer.errors[layer] += 1
                raise
            finally:
                tracer._switch()
                tracer._stack.pop()
                if opened:
                    tracer.stage_s[stage_name] += (
                        tracer._last - t0 - (tracer._paused - p0))
                    tracer._stage = None
            if name == "adjacency_power_ladder":
                _guarded(tracer._ladder_done, result, rows0)
            elif name == "algebra_membership":
                _guarded(tracer._membership_done, args, solved0)
            return result

        return wrapper
