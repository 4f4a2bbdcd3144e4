"""Per-layer tracing of the qps modules from outside the package.

Every public function of the seven modules (each module's ``__all__``,
plus the ``cmd_*`` entry points of ``qps.cli``) is replaced, in every qps
namespace that holds it, by a wrapper that records calls, self time and,
for ``lru_cache`` tables, cache-miss build time.  Uninstalling restores
the original objects, so an untraced phase runs the unmodified package.
"""

import contextlib
import copy
import importlib
import time

LAYERS = ("lattice", "theta", "schwinger", "quasiprob", "tomography", "teleport", "cli")
# private cached helpers whose hit counts and build times are reported
PRIVATE = {"schwinger": ("_t_family",), "teleport": ("_bell_seed",)}


def _public_names(mod, layer):
    if layer == "cli":
        names = [n for n in vars(mod) if n.startswith("cmd_")]
    else:
        names = list(mod.__all__)
    names += PRIVATE.get(layer, ())
    return [n for n in names if callable(getattr(mod, n)) and not isinstance(getattr(mod, n), type)]


class FnStats:
    __slots__ = ("calls", "self_s", "builds", "build_s", "build_bytes")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.builds = 0
        self.build_s = 0.0
        self.build_bytes = 0


class Tracer:
    """Wraps the qps layers; one instance per process."""

    def __init__(self):
        self.package = importlib.import_module("qps")
        self.modules = {layer: importlib.import_module(f"qps.{layer}") for layer in LAYERS}
        self.namespaces = [self.package, *self.modules.values()]
        self.originals = {}  # "layer.name" -> original callable
        for layer, mod in self.modules.items():
            for name in _public_names(mod, layer):
                self.originals[f"{layer}.{name}"] = getattr(mod, name)
        self.caches = {k: f for k, f in self.originals.items() if hasattr(f, "cache_info")}
        self.stats = {k: FnStats() for k in self.originals}
        self.cache_delta = {k: [0, 0] for k in self.caches}  # [hits, misses]
        self._cache_mark = None
        self._stack = []  # child-time accumulators of the open spans
        self._names = []
        self.radon_in_tomo = 0
        self.tomo_cmds = 0
        self.installed = False
        self.paused_depth = 0
        self._wrappers = {k: self._wrap(k, f) for k, f in self.originals.items()}

    def _cache_counts(self):
        return {k: f.cache_info() for k, f in self.caches.items()}

    def _wrap(self, key, fn):
        stats = self.stats[key]
        stack, names = self._stack, self._names
        cached = hasattr(fn, "cache_info")
        radon = key in ("tomography.radon_q", "tomography.radon_r")
        is_tomo = key == "cli.cmd_tomo"
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.paused_depth:
                return fn(*args, **kwargs)
            if radon and "cli.cmd_tomo" in names:
                tracer.radon_in_tomo += 1
            if is_tomo:
                tracer.tomo_cmds += 1
            misses = fn.cache_info().misses if cached else 0
            stack.append(0.0)
            names.append(key)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                names.pop()
                child = stack.pop()
                stats.calls += 1
                stats.self_s += dt - child
                if stack:
                    stack[-1] += dt
                if cached and fn.cache_info().misses > misses:
                    stats.builds += 1
                    stats.build_s += dt
                    if key == "schwinger._t_family":
                        stats.build_bytes += int(args[1]) ** 4 * 16

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", key)
        return wrapper

    def _swap(self, table):
        for key, orig in self.originals.items():
            name = key.split(".", 1)[1]
            repl = table[key]
            for ns in self.namespaces:
                cur = vars(ns).get(name)
                if cur is orig or getattr(cur, "__wrapped__", None) is orig:
                    setattr(ns, name, repl)

    def install(self):
        if self.installed:
            return
        self._swap(self._wrappers)
        self._cache_mark = self._cache_counts()
        self.installed = True

    def uninstall(self):
        if not self.installed:
            return
        self._accumulate_cache()
        self._swap(self.originals)
        self.installed = False

    def _accumulate_cache(self):
        now = self._cache_counts()
        for k, info in now.items():
            old = self._cache_mark[k]
            self.cache_delta[k][0] += info.hits - old.hits
            self.cache_delta[k][1] += info.misses - old.misses
        self._cache_mark = now

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark-side code (gates) without recording it.

        Calls made while paused are not counted, and cache hits and misses
        they cause are excluded from the cache deltas.
        """
        if not self.installed:
            yield
            return
        self._accumulate_cache()
        self.paused_depth += 1
        try:
            yield
        finally:
            self.paused_depth -= 1
            self._cache_mark = self._cache_counts()

    def take(self):
        """Return what was recorded so far and start a fresh recording."""
        if self.installed:
            self._accumulate_cache()
        taken = {
            "stats": {k: copy.copy(v) for k, v in self.stats.items()},
            "cache": {k: tuple(v) for k, v in self.cache_delta.items()},
            "radon_in_tomo": self.radon_in_tomo,
            "tomo_cmds": self.tomo_cmds,
        }
        for v in self.stats.values():
            v.__init__()
        self.cache_delta = {k: [0, 0] for k in self.caches}
        self.radon_in_tomo = 0
        self.tomo_cmds = 0
        return taken
