"""Outside-in tracing of ditlab's public functions and methods.

`Tracer.install()` replaces each traced function with a wrapper, in every
ditlab module that holds it under any name (so `from .x import f` aliases
are traced too), and each traced method on its class. A wrapper
records one span: name, parent span, start and end. Counters are taken at the
same boundaries. Spans stay in memory until `write_csv()`; `uninstall()` puts
every original back.
"""

from __future__ import annotations

import csv
import sys
import time
from collections import defaultdict

# (module, qualified name, span name)
SPANS = (
    ("schedule", "sample", "schedule.sample"),
    ("training", "train_backbone", "training.train_backbone"),
    ("training", "train_feedback", "training.train_feedback"),
    ("training", "feedback_train_step", "training.feedback_train_step"),
    ("dit", "DiT.__init__", "dit.DiT.init"),
    ("dit", "DiT.forward", "dit.DiT.forward"),
    ("dit", "DiTBlock.run", "dit.block"),
    ("dit", "DiT.embed_condition", "dit.embed_condition"),
    ("dit", "DiT.patchify", "dit.patchify"),
    ("dit", "DiT.final_layer", "dit.final_layer"),
    ("schedule", "ddim_step", "schedule.ddim_step"),
    ("feedback", "ilf_forward", "feedback.ilf_forward"),
    ("caching", "cached_forward", "caching.cached_forward"),
    ("caching", "cached_run_block", "caching.cached_run_block"),
    ("autodiff", "matmul", "autodiff.matmul"),
    ("autodiff", "scaled_dot_attention", "autodiff.scaled_dot_attention"),
    ("autodiff", "layer_norm", "autodiff.layer_norm"),
    ("autodiff", "gelu", "autodiff.gelu"),
    ("autodiff", "softmax", "autodiff.softmax"),
    ("autodiff", "backward", "autodiff.backward"),
    ("optim", "Adam.step", "optim.Adam.step"),
    ("data", "gen_shapes", "data.gen_shapes"),
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._name_id: dict = {}
        # one entry per span, in start order
        self.name_of: list = []
        self.parent: list = []
        self.start: list = []
        self.end: list = []
        self.counts = defaultdict(int)
        self._stack: list = []
        self._undo: list = []

    # -- recording ------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def _nid(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def span_wrapper(self, name: str, fn):
        nid = self._nid(name)
        tracer = self
        count_cache = name == "caching.cached_run_block"

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if count_cache:
                tracer.counts["caching.refreshes" if out[1] else "caching.hits"] += 1
            return out

        return traced

    # -- installing -------------------------------------------------------------

    def _patch(self, owner, attr: str, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, original, new):
        """Rebind every ditlab module attribute that is `original`."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ditlab" or mod_name.startswith("ditlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, new)

    def install(self):
        import ditlab.autodiff as autodiff
        import ditlab.data as data

        for mod_name, qual, name in SPANS:
            mod = sys.modules[f"ditlab.{mod_name}"]
            if "." in qual:
                cls_name, meth = qual.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self.span_wrapper(name, getattr(cls, meth)))
            else:
                fn = getattr(mod, qual)
                self._patch_everywhere(fn, self.span_wrapper(name, fn))

        counts = self.counts
        tensor_init = autodiff.Tensor.__init__

        def counted_init(obj, *args, **kwargs):
            counts["autodiff.tensors_created"] += 1
            tensor_init(obj, *args, **kwargs)

        self._patch(autodiff.Tensor, "__init__", counted_init)

        make = autodiff._make

        def counted_make(data_, parents, vjp):
            out = make(data_, parents, vjp)
            if out._parents:
                counts["autodiff.tape_nodes"] += 1
            return out

        self._patch(autodiff, "_make", counted_make)

        batches = data.batches
        batch_id = self._nid("data.batches")

        def timed_batches(*args, **kwargs):
            it = batches(*args, **kwargs)
            while True:
                idx = self._open(batch_id)
                try:
                    item = next(it)
                finally:
                    self._close(idx)
                yield item

        self._patch_everywhere(batches, timed_batches)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reading ----------------------------------------------------------------

    def self_times(self) -> list:
        """Per span: its duration minus its direct children's durations (ns)."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for idx, par in enumerate(self.parent):
            if par >= 0:
                own[par] -= self.end[idx] - self.start[idx]
        return own

    def summary(self) -> dict:
        """name -> {calls, total_ns, self_ns}, plus `inside` totals of
        dit.DiT.forward spans under a training.feedback_train_step."""
        own = self.self_times()
        out = {n: {"calls": 0, "total_ns": 0, "self_ns": 0} for n in self.names}
        step_id = self._name_id.get("training.feedback_train_step")
        fwd_id = self._name_id.get("dit.DiT.forward")
        teacher_ns = 0
        for idx, nid in enumerate(self.name_of):
            row = out[self.names[nid]]
            dur = self.end[idx] - self.start[idx]
            row["calls"] += 1
            row["total_ns"] += dur
            row["self_ns"] += own[idx]
            if nid == fwd_id and self._has_ancestor(idx, step_id):
                teacher_ns += dur
        out["training.teacher_forward"] = {"calls": 0, "total_ns": teacher_ns, "self_ns": 0}
        return out

    def _has_ancestor(self, idx: int, nid) -> bool:
        par = self.parent[idx]
        while par >= 0:
            if self.name_of[par] == nid:
                return True
            par = self.parent[par]
        return False

    def write_csv(self, path: str):
        own = self.self_times()
        t0 = self.start[0] if self.start else 0
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(("span", "parent", "name", "start_us", "end_us", "self_us"))
            for idx, nid in enumerate(self.name_of):
                w.writerow((idx, self.parent[idx], self.names[nid],
                            f"{(self.start[idx] - t0) / 1e3:.3f}",
                            f"{(self.end[idx] - t0) / 1e3:.3f}",
                            f"{own[idx] / 1e3:.3f}"))
