"""Spans around asymlab's public functions, installed from outside ``src/``.

A wrapper is placed where each caller looks a function up: the module
attribute another module imported by name (``asymlab.asymmetry.jacobian``),
the module attribute reached through a module object
(``asymlab.tensorio.save_json``), or the class attribute for methods
(``GeneratorSpec.__call__``).  Some sites are a module's own globals, such
as the certification checks calling one another or the tensorio writers
calling ``atomic_write_bytes``, so calls nested inside one layer are spans
too.  Names that a later version of asymlab no longer has are skipped:
their metrics then read zero.

Spans (name, start, end, parent) and counts stay in memory and are written
once, when the run ends.  A span's self time is its duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import importlib
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# (layer, module whose attribute is replaced, attribute path, span name).
# The span name is the function's home: one function reached from several
# modules gives one span name.
SITES: list[tuple[str, str, str, str]] = []


def _sites(layer: str, home: str, names: list[str], lookups: list[str]) -> None:
    for name in names:
        for mod in lookups:
            SITES.append((layer, mod, name, f"{home}.{name}"))


_A = "asymlab."
_sites("derivatives", "derivatives",
       ["jacobian", "cross_partial", "derivative_by_multiindex", "estimate_derivative_tensor"],
       [_A + "asymmetry", _A + "experiments", _A + "metrics"])
_sites("generators", "generators",
       ["GeneratorSpec.__call__", "EquivalentGenerator.__call__",
        "ComposedPair.model", "ComposedPair.h_inverse"],
       [_A + "generators"])
_sites("generators", "generators",
       ["preset_generator", "top_order_cross_nonzero", "random_equivalence",
        "apply_equivalence", "compose_slotwise"],
       [_A + "experiments", _A + "asymmetry"])
_sites("asymmetry", "asymmetry",
       ["check_no_interaction", "check_order_at_most_n", "check_within_slot_order",
        "check_interaction_asymmetry", "sufficient_independence_check"],
       [_A + "asymmetry", _A + "experiments"])
_sites("multiindex", "multiindex",
       ["validate_multiindex", "mi_power", "interaction_indices",
        "multiindices_within_block", "split_interaction_indices", "all_multiindices"],
       [_A + "generators", _A + "derivatives", _A + "asymmetry", _A + "experiments"])
_sites("experiments", "experiments",
       ["fit_linear", "sample_graph_band", "sample_graph_band_cpe"],
       [_A + "experiments"])
_sites("sprites", "sprites", ["make_dataset"], [_A + "experiments", _A + "sprites"])
_sites("autoencoder", "autoencoder",
       ["encode", "loss_and_gradients", "train"],
       [_A + "autoencoder", _A + "experiments"])
_sites("attention", "attention",
       ["cross_attention_forward", "decoder_backward", "aggregate_attention",
        "l_interact", "l_interact_grad", "analytic_slot_jacobian"],
       [_A + "autoencoder", _A + "experiments", _A + "metrics"])
_sites("metrics", "metrics",
       ["j_ari", "jis", "slot_jacobian_norms", "ari", "assignment_from_masks"],
       [_A + "experiments", _A + "metrics"])
_sites("tensorio", "tensorio",
       ["save_json", "save_csv", "save_tensor", "save_ppm",
        "atomic_write_text", "atomic_write_bytes"],
       [_A + "tensorio"])

# groups of span names whose outermost time a metric reports
GENERATOR_CALL = "generators.GeneratorSpec.__call__"
INVERSE = ("generators.ComposedPair.h_inverse",)
FIT = ("experiments.fit_linear",)
SAMPLE = ("experiments.sample_graph_band", "experiments.sample_graph_band_cpe")
CPE_SAMPLER = "experiments.sample_graph_band_cpe"
BAND_SAMPLER = "experiments.sample_graph_band"
DATASET = ("sprites.make_dataset",)
ENCODE = ("autoencoder.encode",)
FORWARD = ("attention.cross_attention_forward",)
BACKWARD = ("attention.decoder_backward",)
PENALTY = ("attention.aggregate_attention", "attention.l_interact", "attention.l_interact_grad")
JACOBIAN = ("attention.analytic_slot_jacobian",)
SCORE = ("metrics.j_ari", "metrics.jis", "metrics.slot_jacobian_norms", "metrics.ari",
         "metrics.assignment_from_masks")
JACOBIAN_NORMS = "metrics.slot_jacobian_norms"
CHECKS = tuple(f"asymmetry.{n}" for n in (
    "check_no_interaction", "check_order_at_most_n", "check_within_slot_order",
    "check_interaction_asymmetry", "sufficient_independence_check"))
WRITE_BYTES = "tensorio.atomic_write_bytes"


class Tracer:
    """In-memory span recorder.  Single-threaded: the open spans form a stack."""

    def __init__(self, capture_generator_points: bool = False):
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {}
        self.capture_generator_points = capture_generator_points
        # (spec, points, outputs) of generator calls made at plain points,
        # with no derivative or certification span open
        self.captured: list[tuple[object, np.ndarray, np.ndarray]] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of[name] = layer
        return self._ids[name]

    def count(self, key: str, n: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def wrap(self, fn, name: str, layer: str):
        nid = self._id(name, layer)
        tracer = self
        measure = _MEASURES.get(name)

        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.start.append(perf_counter())
            tracer.end.append(0.0)
            tracer._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
            if measure is not None:
                measure(tracer, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def open_layers(self) -> set[str]:
        return {self.layer_of[self.names[self.name_id[i]]] for i in self._stack}

    # -- installation ----------------------------------------------------
    def install(self) -> "Tracer":
        """Replace every site that exists; one wrapper per original object,
        so a function reached from several modules is wrapped once."""
        wrapped: dict[int, object] = {}
        for layer, mod_name, attr, span in SITES:
            try:
                mod = importlib.import_module(mod_name)
            except ImportError:
                continue
            owner, _, leaf = attr.rpartition(".")
            target = getattr(mod, owner, None) if owner else mod
            if target is None or leaf not in vars(target):
                continue
            orig = vars(target)[leaf]
            if id(orig) not in wrapped:
                wrapped[id(orig)] = self.wrap(orig, span, layer)
            self._undo.append((target, leaf, orig))
            setattr(target, leaf, wrapped[id(orig)])
        return self

    def uninstall(self) -> None:
        for target, leaf, orig in reversed(self._undo):
            setattr(target, leaf, orig)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results ---------------------------------------------------------
    def arrays(self):
        return (np.array(self.name_id, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def save(self, path: Path) -> None:
        name_id, parent, start, end = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, names=np.array(self.names), name_id=name_id, parent=parent,
                 start=start, end=end,
                 count_keys=np.array(sorted(self.counts)),
                 count_values=np.array([self.counts[k] for k in sorted(self.counts)]))


def _points(tracer: Tracer, args, kwargs, out) -> None:
    spec, z = args[0], np.asarray(args[1] if len(args) > 1 else kwargs["z"], dtype=float)
    d = spec.partition.latent_dim
    tracer.count("generators.calls")
    tracer.count("generators.points", z.size // d)
    if tracer.capture_generator_points and not tracer.open_layers() & {"derivatives", "asymmetry"}:
        tracer.captured.append((spec, z.reshape(-1, d).copy(),
                                np.asarray(out, dtype=float).reshape(z.size // d, -1).copy()))


def _cpe_returned(tracer: Tracer, args, kwargs, out) -> None:
    tracer.count("experiments.cpe_returned", len(out))


def _bytes_written(tracer: Tracer, args, kwargs, out) -> None:
    data = args[1] if len(args) > 1 else kwargs["data"]
    tracer.count("tensorio.bytes", len(data))


def _band_rows(tracer: Tracer, args, kwargs, out) -> None:
    if any(tracer.names[tracer.name_id[i]] == CPE_SAMPLER for i in tracer._stack):
        tracer.count("experiments.cpe_band_rows", len(out))


_MEASURES = {
    GENERATOR_CALL: _points,
    CPE_SAMPLER: _cpe_returned,
    BAND_SAMPLER: _band_rows,
    WRITE_BYTES: _bytes_written,
}


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span itself (children may overlap when spans come from
    several threads)."""
    parent = np.asarray(parent)
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    own = end - start
    covered = np.zeros(len(start))
    kids = np.nonzero(parent >= 0)[0]
    order = kids[np.lexsort((start[kids], parent[kids]))].tolist()
    par, beg, fin = parent.tolist(), start.tolist(), end.tolist()
    cur_p, cur_s, cur_e = -1, 0.0, 0.0
    for c in order:
        p = par[c]
        s, e = max(beg[c], beg[p]), min(fin[c], fin[p])
        if e <= s:
            continue
        if p != cur_p or s > cur_e:
            if cur_p >= 0:
                covered[cur_p] += cur_e - cur_s
            cur_p, cur_s, cur_e = p, s, e
        else:
            cur_e = max(cur_e, e)
    if cur_p >= 0:
        covered[cur_p] += cur_e - cur_s
    return own - covered


def covered_time(names: list[str], name_id: np.ndarray, start: np.ndarray,
                 end: np.ndarray, group: tuple[str, ...]) -> float:
    """Wall time during which at least one span of the group was open, so a
    call nested inside another call of the group is not counted twice."""
    ids = [i for i, n in enumerate(names) if n in group]
    mask = np.isin(name_id, ids)
    total, cur_s, cur_e = 0.0, 0.0, -np.inf
    for s, e in sorted(zip(start[mask].tolist(), end[mask].tolist())):
        if s > cur_e:
            total += max(cur_e - cur_s, 0.0)
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    return total + max(cur_e - cur_s, 0.0)


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, float]:
    """Per-layer metrics per workload round."""
    names = tracer.names
    name_id, parent, start, end = tracer.arrays()
    selft = self_times(parent, start, end)
    layer_self: dict[str, float] = {}
    span_self: dict[str, float] = {}
    span_calls: dict[str, int] = {}
    for i, n in enumerate(names):
        mask = name_id == i
        span_self[n] = float(np.sum(selft[mask]))
        span_calls[n] = int(np.sum(mask))
        layer = tracer.layer_of[n]
        layer_self[layer] = layer_self.get(layer, 0.0) + span_self[n]

    def outer(group):
        return covered_time(names, name_id, start, end, group)

    def calls_in_layer(layer):
        return sum(c for n, c in span_calls.items() if tracer.layer_of[n] == layer)

    c = tracer.counts
    # the CPE sampler recombines two band draws into one candidate row, so
    # the band rows drawn inside it are twice the candidates it tried
    band_rows = c.get("experiments.cpe_band_rows", 0)
    m = {
        "derivatives.calls": calls_in_layer("derivatives"),
        "derivatives.self_s": layer_self.get("derivatives", 0.0),
        "generators.calls": c.get("generators.calls", 0),
        "generators.points": c.get("generators.points", 0),
        "generators.self_s": layer_self.get("generators", 0.0),
        "generators.inverse_s": outer(INVERSE),
        "asymmetry.checks": sum(span_calls.get(n, 0) for n in CHECKS),
        "asymmetry.self_s": layer_self.get("asymmetry", 0.0),
        "multiindex.calls": calls_in_layer("multiindex"),
        "multiindex.self_s": layer_self.get("multiindex", 0.0),
        "experiments.fit_s": outer(FIT),
        "experiments.sample_s": outer(SAMPLE),
        "experiments.cpe_accept_ratio":
            c.get("experiments.cpe_returned", 0) / (band_rows / 2) if band_rows else 0.0,
        "sprites.dataset_s": outer(DATASET),
        "autoencoder.encode_s": outer(ENCODE),
        "autoencoder.encoder_backward_s": span_self.get("autoencoder.loss_and_gradients", 0.0),
        "autoencoder.optimizer_s": span_self.get("autoencoder.train", 0.0),
        "attention.forward_s": outer(FORWARD),
        "attention.backward_s": outer(BACKWARD),
        "attention.penalty_s": outer(PENALTY),
        "attention.jacobian_s": outer(JACOBIAN),
        "metrics.jacobian_calls": span_calls.get(JACOBIAN_NORMS, 0),
        "metrics.score_s": sum(span_self.get(n, 0.0) for n in SCORE),
        "tensorio.bytes": c.get("tensorio.bytes", 0),
        "tensorio.self_s": layer_self.get("tensorio", 0.0),
    }
    ratios = {"experiments.cpe_accept_ratio"}
    return {k: (v if k in ratios else v / rounds) for k, v in m.items()}


# units of the per-layer metrics; every time and count is per workload round
LAYER_UNITS = {
    "derivatives.calls": "count", "derivatives.self_s": "s",
    "generators.calls": "count", "generators.points": "count",
    "generators.self_s": "s", "generators.inverse_s": "s",
    "asymmetry.checks": "count", "asymmetry.self_s": "s",
    "multiindex.calls": "count", "multiindex.self_s": "s",
    "experiments.fit_s": "s", "experiments.sample_s": "s",
    "experiments.cpe_accept_ratio": "ratio",
    "sprites.dataset_s": "s",
    "autoencoder.encode_s": "s", "autoencoder.encoder_backward_s": "s",
    "autoencoder.optimizer_s": "s",
    "attention.forward_s": "s", "attention.backward_s": "s",
    "attention.penalty_s": "s", "attention.jacobian_s": "s",
    "metrics.jacobian_calls": "count", "metrics.score_s": "s",
    "tensorio.bytes": "bytes", "tensorio.self_s": "s",
    "trace.overhead_pct": "%",
}
