"""Per-function counters and self times for the traced benchmark run.

``Tracer.install`` replaces each target function of the matchbij package by
a wrapper, in every ``matchbij.*`` module namespace that binds it, and
``Tracer.uninstall`` puts the originals back. Wrappers keep one aggregate per
function instead of a span per call, because the per-item functions run
millions of times in one job.

Self time is a call's duration minus the time spent in wrapped callees: each
active call keeps a slot on a stack into which finishing callees add their
duration. A generator is timed inside each ``next()``, and every yielded
value counts as an item.
"""

import inspect
import sys
import time

# (module, functions) of the package that the benchmark reports on.
TARGETS = {
    "core": ("stats", "nestings", "crossings", "alignments", "nep", "nc",
             "lr_sequence", "edges", "is_noncrossing"),
    "enumeration": ("all_matchings", "noncrossing_matchings", "ncn_elements"),
    "lp": ("find_inflated_hairpin", "enumerate_lp", "is_lp"),
    "bijections": ("swap_left", "swap_sequence", "phi", "phi_inv", "tau",
                   "tau_inv", "sigma", "sigma_inv"),
    "similarity": ("class_key", "census", "ns_representatives", "ns_stream"),
    "formats": ("parse_input", "parse_ncn", "emit_matching", "emit_ncn"),
    "render": ("render",),
    "verify": ("run_suite",),
    "cli": ("run",),
}
# Classes whose __post_init__ calls count as validations.
VALIDATED = {"core": ("Matching", "LabeledMatching")}
# Predicates whose true results are counted as well as their calls.
PREDICATES = {"lp.is_lp"}


class Stat:
    """Aggregate of every call to one wrapped function."""

    __slots__ = ("calls", "raised", "items", "accepted", "self_s", "total_s")

    def __init__(self):
        self.calls = self.raised = self.items = self.accepted = 0
        self.self_s = self.total_s = 0.0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__slots__}


class Tracer:
    """Installs timing wrappers into the loaded matchbij modules."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack = [0.0]  # child time of each active wrapped call
        self._undo: list = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "matchbij" or name.startswith("matchbij.")]
        for mod, names in TARGETS.items():
            module = sys.modules[f"matchbij.{mod}"]
            for name in names:
                original = getattr(module, name)
                self._rebind(modules, original, self._wrap(f"{mod}.{name}", original))
        for mod, classes in VALIDATED.items():
            for cls_name in classes:
                cls = getattr(sys.modules[f"matchbij.{mod}"], cls_name)
                original = cls.__dict__["__post_init__"]
                cls.__post_init__ = self._timed(self._stat(f"{mod}.{cls_name}"), original)
                self._undo.append(lambda c=cls, f=original: setattr(c, "__post_init__", f))
        # run_suite reads its checks from the SUITES lists, not from globals.
        for suite, checks in sys.modules["matchbij.verify"].SUITES.items():
            stat = self._stat(f"verify.suite.{suite}")
            for i, entry in enumerate(checks):
                checks[i] = (entry[0], self._timed(stat, entry[1]))
                self._undo.append(lambda c=checks, i=i, e=entry: c.__setitem__(i, e))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _rebind(self, modules, original, wrapper) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    self._undo.append(lambda m=module, a=attr, f=original: setattr(m, a, f))

    def _stat(self, key: str) -> Stat:
        return self.stats.setdefault(key, Stat())

    def _wrap(self, key: str, fn):
        stat = self._stat(key)
        if inspect.isgeneratorfunction(fn):
            return self._timed_generator(stat, fn)
        timed = self._timed(stat, fn)
        if key not in PREDICATES:
            return timed

        def predicate(*args, **kwargs):
            result = timed(*args, **kwargs)
            stat.accepted += bool(result)
            return result

        return predicate

    def _timed(self, stat: Stat, fn):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stat.calls += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                elapsed = clock() - start
                stat.self_s += elapsed - stack.pop()
                stat.total_s += elapsed
                stack[-1] += elapsed

        return wrapper

    def _timed_generator(self, stat: Stat, fn):
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stat.calls += 1
            iterator = fn(*args, **kwargs)
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                except BaseException:
                    stat.raised += 1
                    raise
                finally:
                    elapsed = clock() - start
                    stat.self_s += elapsed - stack.pop()
                    stat.total_s += elapsed
                    stack[-1] += elapsed
                stat.items += 1
                yield item

        return wrapper
