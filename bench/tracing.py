"""Per-layer tracing by wrapping iqpsim's public functions from outside.

Every public function defined in a layer module is replaced, in every
iqpsim namespace that holds it (including names imported with
``from .xprogram import walsh_hadamard``), by a wrapper that records a
span: a call count and self time, which is the span's thread CPU time
minus that of the spans nested in it. Thread CPU time keeps the waiting
of a thread pool's caller out of its self time. ``BitVector``
constructions are counted without a span. Wrappers are installed only
around traced cycles, so untraced calls run the unmodified code.
"""

from __future__ import annotations

import importlib
import inspect
import threading
from collections import defaultdict
from time import thread_time

LAYERS = ("cli", "gf2", "codes", "clifford", "xprogram", "marginals", "tutte", "oracle")
PACKAGE = "iqpsim"
SAMPLE = "marginals.MarginalSampler.sample"
METHODS = (("marginals", "MarginalSampler", "sample"), ("marginals", "MarginalSampler", "__init__"))


class _ThreadState:
    def __init__(self):
        self.stack: list[float] = []  # CPU time of finished children, per open span
        self.sampling = 0
        # (phase, key) -> [calls, self seconds, extra]
        self.records: dict = defaultdict(lambda: [0, 0.0, 0])


class Tracer:
    def __init__(self):
        self.phase = ""
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object, object]] = []
        self._plan()

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "state", None)
        if st is None:
            st = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(st)
        return st

    # --- wrapping -------------------------------------------------------

    def _span(self, key: str, fn):
        tracer = self
        after = _AFTER.get(key)
        nests_builds = key == SAMPLE

        def wrapper(*args, **kwargs):
            st = tracer._state()
            stack = st.stack
            stack.append(0.0)
            if nests_builds:
                st.sampling += 1
            start = thread_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                spent = thread_time() - start
                if nests_builds:
                    st.sampling -= 1
                child = stack.pop()
                if stack:
                    stack[-1] += spent
                rec = st.records[(tracer.phase, key)]
                rec[0] += 1
                rec[1] += spent - child
            if after is not None:
                after(tracer, st, rec, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _plan(self) -> None:
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj.__module__ == module.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._span(f"{layer}.{name}", obj)
        namespaces = [importlib.import_module(PACKAGE), *modules.values()]
        for ns in namespaces:
            for name, obj in list(vars(ns).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((ns, name, obj, wrappers[obj]))
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[attr]
            self._patches.append(
                (cls, attr, original, self._span(f"{layer}.{cls_name}.{attr}", original))
            )
        bitvector = modules["gf2"].BitVector
        original_init = bitvector.__dict__["__init__"]
        tracer = self

        def counting_init(obj, *args, **kwargs):
            tracer._state().records[(tracer.phase, "gf2.BitVector")][0] += 1
            original_init(obj, *args, **kwargs)

        self._patches.append((bitvector, "__init__", original_init, counting_init))

    def install(self, phase: str) -> None:
        self.phase = phase
        for owner, name, _, wrapper in self._patches:
            setattr(owner, name, wrapper)

    def uninstall(self) -> None:
        for owner, name, original, _ in self._patches:
            setattr(owner, name, original)

    # --- reading --------------------------------------------------------

    def totals(self) -> dict:
        """(phase, key) -> [calls, self seconds, extra], over all threads."""
        out: dict = defaultdict(lambda: [0, 0.0, 0])
        with self._lock:
            states = list(self._states)
        for st in states:
            for k, rec in list(st.records.items()):
                acc = out[k]
                for i in range(3):
                    acc[i] += rec[i]
        return out


def _after_enum(tracer, st, rec, args, result):
    rec[2] += 1 << result.rank


def _after_wht(tracer, st, rec, args, result):
    rec[2] += len(args[0])
    if st.sampling:
        st.records[(tracer.phase, "marginals.builds")][0] += 1


_AFTER = {
    "codes.weight_enumerator": _after_enum,
    "xprogram.walsh_hadamard": _after_wht,
}


def layer_metrics(totals: dict, rounds: int, out_bytes: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, normalized per traced round."""

    def pick(keys, field, phases=None) -> float:
        keys = set(keys)
        return sum(
            rec[field]
            for (phase, key), rec in totals.items()
            if key in keys and (phases is None or phase in phases)
        )

    def layer_keys(prefix):
        return [key for _, key in totals if key.startswith(prefix + ".")]

    def calls(*keys, phases=None):
        return pick(keys, 0, phases)

    def self_s(*keys):
        return pick(keys, 1)

    dist_phases = {"dist", "dist_threaded"}
    draws = calls(SAMPLE)
    builds = calls("marginals.builds")
    dists = calls("xprogram.full_distribution", phases=dist_phases)
    raw = {
        "cli.calls": (calls("cli.main"), "count"),
        "cli.self_s": (self_s(*layer_keys("cli")), "s"),
        "cli.parse_s": (
            self_s("cli.parse_matrix_file", "cli.parse_matrix_text", "cli.parse_angle", "cli.parse_bits"),
            "s",
        ),
        "cli.out_bytes": (out_bytes, "B"),
        "gf2.calls": (calls(*[k for k in layer_keys("gf2") if k != "gf2.BitVector"]), "count"),
        "gf2.self_s": (self_s(*layer_keys("gf2")), "s"),
        "gf2.bitvectors": (calls("gf2.BitVector"), "count"),
        "codes.enum_calls": (calls("codes.weight_enumerator"), "count"),
        "codes.enum_words": (pick({"codes.weight_enumerator"}, 2), "count"),
        "codes.enum_s": (self_s("codes.weight_enumerator"), "s"),
        "codes.alpha_calls": (calls("codes.alpha", "codes.alpha_exact_fourth_root"), "count"),
        "codes.alpha_s": (self_s("codes.alpha", "codes.alpha_exact_fourth_root"), "s"),
        "codes.subprogram_s": (self_s("codes.project", "codes.affinify"), "s"),
        "clifford.gauss_calls": (calls("clifford.wenum_from_generators"), "count"),
        "clifford.gauss_s": (self_s("clifford.wenum_from_generators", "clifford.wenum_at_fourth_root"), "s"),
        "clifford.support_s": (
            self_s("clifford.clifford_support", "clifford.clifford_probability", "clifford.clifford_sample"),
            "s",
        ),
        "xprogram.beta_calls": (calls("xprogram.beta"), "count"),
        "xprogram.dist_s": (self_s("xprogram.full_distribution"), "s"),
        "xprogram.wht_points": (pick({"xprogram.walsh_hadamard"}, 2), "count"),
        "xprogram.wht_s": (self_s("xprogram.walsh_hadamard"), "s"),
        "xprogram.reduce_s": (self_s("xprogram.reduce_rows"), "s"),
        "marginals.projector_s": (self_s("marginals.make_projector", "marginals.diagonal_projector"), "s"),
        "marginals.transform_s": (
            self_s(
                "marginals.marginal_distribution",
                "marginals.marginal_pi8",
                "marginals.marginal_sparse",
                "marginals.marginal_graphic",
            ),
            "s",
        ),
        "marginals.draws": (draws, "count"),
        "marginals.sample_s": (
            self_s(SAMPLE, "marginals.MarginalSampler.__init__", "marginals.sample_marginal"),
            "s",
        ),
        "marginals.builds": (builds, "count"),
        "tutte.eval_calls": (calls("tutte.tutte_eval"), "count"),
        "tutte.eval_s": (self_s("tutte.tutte_eval"), "s"),
        "tutte.subset_s": (self_s("tutte.tutte_subset_sum"), "s"),
        "tutte.greene_s": (self_s("tutte.greene_alpha"), "s"),
        "oracle.s": (self_s(*layer_keys("oracle")), "s"),
    }
    out = {name: (value / rounds, f"{unit}/round") for name, (value, unit) in raw.items()}
    out["xprogram.beta_per_dist"] = (
        calls("xprogram.beta", phases=dist_phases) / dists if dists else 0.0,
        "ratio",
    )
    out["marginals.builds_per_draw"] = (builds / draws if draws else 0.0, "ratio")
    return out
