"""Per-layer instrumentation of abas, installed from outside, and its metrics.

Spans recorded (all from wrappers in this package; ``src/`` is untouched):

- ``layer``: ``Conv1d``/``TConv1d``/``GatedConvLayer.__call__``, tagged with
  the layer's group (parameter-name prefix with digits stripped).
- ``op.<name>``: every public autodiff op and ``nn.spectral_normalize``,
  tagged with the enclosing layer's group and, for conv kinds, its cost.
- ``bwd.<name>``: each backward closure, wrapped through ``Tape.record`` and
  timed when ``Tape.backward`` calls it. For conv kinds it also counts the
  subnormal elements among the gradients the closure returns: subnormal
  weight gradients are the visible trace of subnormal products in its GEMMs.
- train, model, dsp, wavio and metrics entry points under their own names.

Per-layer metrics average over the ``bench.op`` phase (per train step or per
vocode call); ``train.corpus_ms`` and ``train.checkpoint_save_ms`` average
over ``bench.setup`` repetitions.
"""

from __future__ import annotations

import re
from collections import Counter, defaultdict

import numpy as np

from .flops import CONV_KINDS, conv_cost
from .patching import Patches
from .tracing import Tracer, phases, self_times

GROUPS = (
    "G.enc.down", "G.enc.compress", "G.dec.expand", "G.dec.gated",
    "G.up.stage.tconv", "G.up.stage.gated", "G.up.noise", "G.out", "D.layer",
)
OP_FUNCTIONS = (
    "conv1d", "tconv1d", "gated_conv_pair", "reflect_pad", "channel_softmax",
    "tanh_", "sigmoid_", "prelu_", "leaky_relu_", "relu_", "mul_", "add_", "sub_",
    "concat_channels_", "scale_", "shift_", "abs_mean_", "mean_",
)
PHASE_SETUP, PHASE_WARMUP, PHASE_OP = "bench.setup", "bench.warmup", "bench.op"
PHASES = (PHASE_SETUP, PHASE_WARMUP, PHASE_OP)


def group_of(layer_name: str) -> str:
    return re.sub(r"\d+", "", layer_name)


def subnormal_count(a: np.ndarray) -> int:
    if a.dtype.kind != "f":
        return 0
    tiny = np.finfo(a.dtype).tiny
    return int(np.count_nonzero(np.abs(a) < tiny) - np.count_nonzero(a == 0))


def _layer_name(layer) -> str:
    name = getattr(layer, "name", None)
    if name is None:  # GatedConvLayer names its two convs "<name>.filter"/"<name>.gate"
        name = layer.filter.name.rsplit(".", 1)[0]
    return name


def _on_tape(x, w, ad) -> bool:
    """Mirror of autodiff's rule for whether a weight receives a gradient."""
    if x.tape is None:
        return False
    if isinstance(w, ad.Tensor):
        return w.tape is not None
    return isinstance(w, ad.Parameter)


def install(patches: Patches, tracer: Tracer, abas):
    """Wrap every instrumented callable; ``patches`` undoes it."""
    ad, nn, model, train = abas.autodiff, abas.nn, abas.model, abas.train

    def spanned(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                s = tracer.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer.end(s)
            return wrapper
        return make

    def layer_call(fn):
        def call(self, x):
            s = tracer.begin("layer", group=group_of(_layer_name(self)))
            try:
                return fn(self, x)
            finally:
                tracer.end(s)
        return call

    def op(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                layer = tracer.innermost("layer")
                s = tracer.begin("op." + name, group=layer.attrs["group"] if layer else None)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer.end(s)
                if name in CONV_KINDS:
                    x, w = args[0], args[1]
                    wd = w.data if isinstance(w, (ad.Tensor, ad.Parameter)) else np.asarray(w)
                    s.attrs["cost"] = conv_cost(name, x.data.shape, wd.shape, out.data.shape,
                                                _on_tape(x, w, ad))
                return out
            return wrapper
        return make

    def record(fn):
        def wrapper(self, name, out_data, backward_fn):
            op_span = tracer.innermost("op.")
            group = op_span.attrs["group"] if op_span else None

            def bwd(g):
                s = tracer.begin("bwd." + name, group=group, op=op_span)
                try:
                    grads = backward_fn(g)
                finally:
                    tracer.end(s)
                if name in CONV_KINDS:  # counted after the span closes, so untimed
                    s.attrs["subnormal"] = sum(subnormal_count(a) for _, a in grads)
                    s.attrs["elems"] = sum(a.size for _, a in grads)
                return grads

            return fn(self, name, out_data, bwd)
        return wrapper

    for name in OP_FUNCTIONS:
        patches.function(ad, name, op(name))
    patches.function(nn, "spectral_normalize", op("spectral_normalize"))
    patches.method(ad.Tape, "record", record)
    patches.method(ad.Tape, "backward", spanned("autodiff.tape_backward"))
    for cls in (nn.Conv1d, nn.TConv1d, nn.GatedConvLayer):
        patches.method(cls, "__call__", layer_call)
    patches.method(model.Generator, "generate", spanned("model.generate"))
    patches.method(model.Discriminator, "discriminate", spanned("model.discriminate"))
    for cls in (model.Generator, model.Discriminator):
        patches.method(cls, "advance_spectral_norm", spanned("train.sn_advance"))
    for mod, names in (
        (train, ("train_step", "adam_amsgrad_step", "load_checkpoint", "save_checkpoint",
                 "load_corpus", "residuals_for")),
        (abas.dsp, ("lpc_analyze", "cross_synthesize")),
        (abas.wavio, ("read_wav", "write_wav")),
        (abas.metrics, ("ssnr", "l1_distance", "log_spectral_distance")),
    ):
        for name in names:
            patches.function(mod, name, spanned(f"{mod.__name__.split('.')[-1]}.{name}"))


# ---------------------------------------------------------------------------
# aggregation

SPAN_MS = {
    "train.sn_advance": "train.sn_advance_ms",
    "train.adam_amsgrad_step": "train.adam_ms",
    "train.load_checkpoint": "train.checkpoint_load_ms",
    "model.generate": "model.generate_ms",
    "autodiff.tape_backward": "autodiff.tape_backward_ms",
    "dsp.cross_synthesize": "dsp.cross_synthesize_ms",
    "wavio.read_wav": "wavio.read_ms",
    "wavio.write_wav": "wavio.write_ms",
    "metrics.ssnr": "metrics.eval_ms",
    "metrics.l1_distance": "metrics.eval_ms",
    "metrics.log_spectral_distance": "metrics.eval_ms",
}
SETUP_MS = {
    "train.checkpoint_save_ms": ("train.save_checkpoint",),
    "train.corpus_ms": ("train.load_corpus", "train.residuals_for"),
}


def layer_metrics(tracer: Tracer, n_ops: int, n_setups: int) -> tuple[dict, Counter]:
    """Per-layer metric values, and how often each GEMM shape ran in bench.op."""
    spans = tracer.spans
    selfs = self_times(spans)
    phase = phases(spans, PHASES)
    ms = defaultdict(float)
    flops = defaultdict(float)  # conv FLOPs per autodiff kind / model group
    conv_s = defaultdict(float)  # conv-kind op seconds (fwd self + bwd) per kind / group
    sub = defaultdict(int)
    elems = defaultdict(int)
    nbytes = 0
    gemms: Counter = Counter()

    for s, self_s, ph in zip(spans, selfs, phase):
        name = s.name
        if ph == PHASE_SETUP:
            for metric, names in SETUP_MS.items():
                if name in names:
                    ms[metric] += s.duration
            continue
        if ph != PHASE_OP:
            continue
        group = s.attrs.get("group")
        if name == "layer":
            ms[f"model.{group}.fwd_ms"] += s.duration
        elif name.startswith(("op.", "bwd.")):
            direction, kind = name.split(".", 1)
            d = "fwd" if direction == "op" else "bwd"
            t = self_s if d == "fwd" else s.duration
            if kind == "spectral_normalize":
                ms[f"nn.spectral_normalize.{d}_ms"] += t
            else:
                ms[f"autodiff.{kind if kind in CONV_KINDS else 'other'}.{d}_ms"] += t
            if d == "bwd" and group is not None:
                ms[f"model.{group}.bwd_ms"] += s.duration
            op_attrs = s.attrs if d == "fwd" else getattr(s.attrs["op"], "attrs", {})
            cost = op_attrs.get("cost")
            if cost is not None:
                f = cost.fwd_flops if d == "fwd" else cost.bwd_flops
                nbytes += cost.fwd_bytes if d == "fwd" else cost.bwd_bytes
                gemms.update([cost.fwd_gemm] if d == "fwd" else cost.bwd_gemms())
                for key in (kind, group):
                    flops[key] += f
                    conv_s[key] += t
                if d == "bwd" and group is not None:
                    sub[group] += s.attrs["subnormal"]
                    elems[group] += s.attrs["elems"]
        elif name == "dsp.lpc_analyze":
            parent = spans[s.parent].name if s.parent >= 0 else None
            if parent != "dsp.cross_synthesize":  # that one is inside cross_synthesize_ms
                ms["dsp.lpc_analyze_ms"] += s.duration
        elif name == "train.train_step":
            ms["train.step_self_ms"] += self_s
        elif name in SPAN_MS:
            ms[SPAN_MS[name]] += s.duration

    out: dict[str, float] = {}
    for g in GROUPS:
        for d in ("fwd", "bwd"):
            out[f"model.{g}.{d}_ms"] = 1e3 * ms[f"model.{g}.{d}_ms"] / n_ops
        out[f"model.{g}.gflops"] = _rate(flops[g], conv_s[g])
        out[f"model.{g}.subnormal_frac"] = sub[g] / elems[g] if elems[g] else 0.0
    for kind in CONV_KINDS + ("other",):
        for d in ("fwd", "bwd"):
            out[f"autodiff.{kind}.{d}_ms"] = 1e3 * ms[f"autodiff.{kind}.{d}_ms"] / n_ops
        if kind != "other":
            out[f"autodiff.{kind}.gflops"] = _rate(flops[kind], conv_s[kind])
    out["autodiff.flops_per_step"] = sum(flops[k] for k in CONV_KINDS) / n_ops
    out["autodiff.bytes_per_step"] = nbytes / n_ops
    for d in ("fwd", "bwd"):
        out[f"nn.spectral_normalize.{d}_ms"] = 1e3 * ms[f"nn.spectral_normalize.{d}_ms"] / n_ops
    for metric in sorted(set(SPAN_MS.values())) + ["dsp.lpc_analyze_ms", "train.step_self_ms"]:
        out[metric] = 1e3 * ms[metric] / n_ops
    for metric in SETUP_MS:
        out[metric] = 1e3 * ms[metric] / n_setups
    return out, gemms


def _rate(flop: float, seconds: float) -> float:
    return flop / seconds / 1e9 if seconds > 0 else 0.0
