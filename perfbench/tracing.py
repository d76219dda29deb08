"""Per-layer timing of sarunet from outside: wrappers around public calls.

``Tracer.install()`` replaces module attributes and class methods of an
imported ``sarunet`` with timing wrappers; nothing in the package itself
changes. Every wrapper is a span on one stack, so a span's self time is its
duration minus the spans directly beneath it (used for ``cli.self_s``).

Layers and what is wrapped:

* ``ops``: every public op in ``sarunet.ops`` (forward time, by op kind) and
  the backward closures each op hands to ``make_result`` (backward time, by
  op kind and by model scope).
* ``model``: forward time per scope of ``Model.trace_names()``, cut at the
  return of each scope's module, so the pooling that feeds a level counts in
  that level's block and a decoder level includes its reduce, upsample and
  concat; checkpoint section reads and writes.
* ``tensor``: ``Tape.backward`` time, ops and bytes held per tape, most tapes
  alive at once (weak references).
* ``train``, ``data``, ``cli``, ``metrics``, ``gradcam``: the functions named
  in ``_SPANS``.
"""

from __future__ import annotations

import time
import weakref
from collections import defaultdict

SCOPES = ([f"enc{d}.{part}" for d in range(5) for part in ("block", "cbam")]
          + [f"dec{d}.block" for d in (3, 2, 1, 0)] + ["out"])

_RESAMPLE = {"max_pool2", "upsample_bilinear2"}
_REDUCE_PREFIXES = ("global_pool", "sum_all", "mean_all")

# (module, attribute, metric key) for plain function spans.
_SPANS = [
    ("data", "load_nwds", "data.load_s"),
    ("data", "select_rainy", "data.windows_s"),
    ("data", "make_windows", "data.windows_s"),
    ("data", "save_nwds", "data.save_s"),
    ("gradcam", "save_nwds", "data.save_s"),
    ("data", "synth_generate", "data.synth_s"),
    ("cli", "_sha256", "cli.sha256_s"),
    ("metrics", "binarize", "metrics.score_s"),
    ("metrics", "confusion", "metrics.score_s"),
    ("gradcam", "write_ppm", "gradcam.render_s"),
    ("gradcam", "explain_suite", "gradcam.suite_s"),
    ("model", "write_checkpoint_section", "model.ckpt_save_s"),
    ("train", "write_checkpoint_section", "model.ckpt_save_s"),
    ("model", "read_checkpoint_section", "model.ckpt_load_s"),
    ("train", "read_checkpoint_section", "model.ckpt_load_s"),
    ("train", "mse_loss", "train.fwd_s"),
    ("train", "_split_mse", "train.val_s"),
]


def op_kind(name: str, inputs) -> str:
    """Kind of one recorded op, from its name and (for convs) the weight."""
    if name == "conv2d":
        _, cin_g, kh, _ = inputs[1].shape
        if kh == 3 and cin_g == 1:
            return "conv_dw3"
        if kh == 1:
            return "conv_pw1"
        return "conv_dense7"
    if name == "batch_norm":
        return "batch_norm"
    if name in _RESAMPLE:
        return "resample"
    if name.startswith(_REDUCE_PREFIXES):
        return "reduce"
    return "elementwise"


def _conv_kind(x, weight, *args, **kwargs) -> str:
    return op_kind("conv2d", (x, weight))


def _array_bytes(obj, seen: set) -> int:
    """Bytes of the buffers behind ``obj``, each counted once: an array, or
    a Tensor4's data and gradient buffer."""
    if hasattr(obj, "requires_grad"):
        return _array_bytes(obj.data, seen) + _array_bytes(obj.grad, seen)
    arr = obj
    if not hasattr(arr, "nbytes") or not hasattr(arr, "base"):
        return 0
    while arr.base is not None and hasattr(arr.base, "nbytes"):
        arr = arr.base
    if id(arr) in seen:
        return 0
    seen.add(id(arr))
    return int(arr.nbytes)


def tape_bytes(tape) -> int:
    """Bytes held by a tape's recorded outputs and by the arrays (or tensors)
    captured in the closures of their backward functions."""
    seen: set = set()
    total = 0
    for rec in tape.ops:
        total += _array_bytes(rec.output, seen)
        fn = getattr(rec.backward_fn, "traced_fn", rec.backward_fn)
        for cell in fn.__closure__ or ():
            try:
                total += _array_bytes(cell.cell_contents, seen)
            except ValueError:          # empty cell
                pass
    return total


class Tracer:
    """Accumulates per-layer seconds and counts while installed."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)
        self._stack: list[list[float]] = []
        self._scope_of = weakref.WeakKeyDictionary()
        self._scope_next = 0
        self._segment_start = 0.0
        self._in_fit = False
        self._tapes = weakref.WeakSet()

    # -- spans -------------------------------------------------------------

    def _enter(self) -> float:
        self._stack.append([0.0])
        return time.perf_counter()

    def _leave(self, t0: float) -> tuple[float, float]:
        dt = time.perf_counter() - t0
        children = self._stack.pop()[0]
        if self._stack:
            self._stack[-1][0] += dt
        return dt, children

    def span(self, key: str, fn, count_key: str | None = None):
        def wrapper(*args, **kwargs):
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt, _ = self._leave(t0)
                self.seconds[key] += dt
                if count_key:
                    self.counts[count_key] += 1
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self) -> "Tracer":
        import importlib
        mods = {name: importlib.import_module(f"sarunet.{name}") for name in
                ("blocks", "cli", "data", "gradcam", "metrics", "model", "ops",
                 "tensor", "train")}
        for mod, attr, key in _SPANS:
            owner = mods[mod]
            setattr(owner, attr, self.span(key, getattr(owner, attr)))
        self._install_cli(mods["cli"])
        self._install_data(mods["data"])
        self._install_metrics(mods["metrics"])
        self._install_train(mods["train"])
        self._install_ops(mods["ops"])
        self._install_tensor(mods["tensor"])
        self._install_model(mods["model"], mods["blocks"])
        return self

    def _install_cli(self, cli) -> None:
        main = cli.main

        def traced_main(argv=None):
            t0 = self._enter()
            try:
                return main(argv)
            finally:
                dt, children = self._leave(t0)
                self.seconds["cli.self_s"] += dt - children
        cli.main = traced_main

    def _install_data(self, data) -> None:
        load = data.load_nwds

        def counted_load(path):
            series = load(path)
            self.counts["data.frames_loaded"] += len(series)
            return series
        data.load_nwds = counted_load
        data.WindowDataset.batch = self.span("data.batch_s", data.WindowDataset.batch)

    def _install_metrics(self, metrics) -> None:
        make = metrics._model_predictor

        def timed_predictor(model):
            return self.span("metrics.predict_s", make(model))
        metrics._model_predictor = timed_predictor

    def _install_train(self, train) -> None:
        train.adam_step = self.span("train.adam_s", train.adam_step, count_key="train.steps")
        fit = train.fit

        def traced_fit(*args, **kwargs):
            self._in_fit = True
            try:
                return fit(*args, **kwargs)
            finally:
                self._in_fit = False
        train.fit = traced_fit

    def _install_ops(self, ops) -> None:
        for name in ops.__all__:
            fn = getattr(ops, name)
            if name == "conv2d":
                kind_of = _conv_kind
            else:
                kind = op_kind(name, ())
                kind_of = (lambda k: lambda *a, **kw: k)(kind)
            setattr(ops, name, self._timed_op(fn, kind_of))
        make_result = ops.make_result

        def traced_make_result(data, name, inputs, backward_fn):
            kind = op_kind(name, inputs)
            scope = SCOPES[self._scope_next] if self._scope_next < len(SCOPES) else None

            def timed_backward(gout):
                t0 = time.perf_counter()
                try:
                    return backward_fn(gout)
                finally:
                    dt = time.perf_counter() - t0
                    self.seconds[f"ops.{kind}.bwd_s"] += dt
                    if scope is not None:
                        self.seconds[f"model.{scope}.bwd_s"] += dt
            timed_backward.traced_fn = backward_fn
            return make_result(data, name, inputs, timed_backward)
        ops.make_result = traced_make_result

    def _timed_op(self, fn, kind_of):
        def wrapper(*args, **kwargs):
            kind = kind_of(*args, **kwargs)
            t0 = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt, _ = self._leave(t0)
                self.seconds[f"ops.{kind}.fwd_s"] += dt
                self.counts[f"ops.{kind}.calls"] += 1
        return wrapper

    def _install_tensor(self, tensor) -> None:
        Tape = tensor.Tape
        init = Tape.__init__
        backward = Tape.backward

        def traced_init(tape, *args, **kwargs):
            init(tape, *args, **kwargs)
            self._tapes.add(tape)
            self.maxima["tensor.tapes_alive_max"] = max(
                self.maxima["tensor.tapes_alive_max"], len(self._tapes))

        def traced_backward(tape, loss):
            self.maxima["tensor.tape_ops"] = max(self.maxima["tensor.tape_ops"],
                                                 len(tape.ops))
            self.maxima["tensor.tape_mib"] = max(self.maxima["tensor.tape_mib"],
                                                 tape_bytes(tape) / 2 ** 20)
            t0 = self._enter()
            try:
                return backward(tape, loss)
            finally:
                dt, _ = self._leave(t0)
                self.seconds["tensor.backward_s"] += dt
                if self._in_fit:
                    self.seconds["train.bwd_s"] += dt
        Tape.__init__ = traced_init
        Tape.backward = traced_backward

    def _install_model(self, model_mod, blocks) -> None:
        Model = model_mod.Model
        init = Model.__init__
        forward = Model.forward

        def traced_init(model, *args, **kwargs):
            init(model, *args, **kwargs)
            for d in range(5):
                self._scope_of[model.enc_blocks[d]] = f"enc{d}.block"
                self._scope_of[model.enc_cbams[d]] = f"enc{d}.cbam"
            for d in range(4):
                self._scope_of[model.dec_blocks[d]] = f"dec{d}.block"
            self._scope_of[model.out_conv] = "out"

        def traced_forward(model, x, train=False, *args, **kwargs):
            self._scope_next = 0
            t0 = self._enter()
            self._segment_start = t0
            try:
                return forward(model, x, train, *args, **kwargs)
            finally:
                dt, _ = self._leave(t0)
                self._scope_next = len(SCOPES)
                if train:
                    self.seconds["train.fwd_s"] += dt
        Model.__init__ = traced_init
        Model.forward = traced_forward
        for cls in (blocks.ResidualDscBlock, blocks.DoubleDscBlock, blocks.Cbam,
                    blocks.Conv2dLayer):
            cls.forward = self._scoped(cls.forward)

    def _scoped(self, fn):
        """Close the current forward segment when a scope's module returns."""
        def wrapper(module, *args, **kwargs):
            out = fn(module, *args, **kwargs)
            scope = self._scope_of.get(module)
            if scope is not None:
                now = time.perf_counter()
                self.seconds[f"model.{scope}.fwd_s"] += now - self._segment_start
                self._segment_start = now
                self._scope_next = SCOPES.index(scope) + 1
            return out
        return wrapper

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        out: dict[str, float] = {}
        out.update(self.seconds)
        out.update({k: float(v) for k, v in self.counts.items()})
        out.update(self.maxima)
        return out
