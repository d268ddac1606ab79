"""Hooks around the program's public functions: operation timing and tracing.

The program under test is not modified. Every hook replaces an attribute
that the program looks up at call time: a module function that
``trainer.forward``, ``trainer.train`` or ``trainer.predict`` calls through
its module (``align.project``, ``losses.saliency_pairs``, ...), a method on a
class (``Tensor.backward``, ``Adam.step``), or a function the benchmark itself
calls through its module (``data.load_dataset``, ``trainer.save_checkpoint``).
``Probe.close`` puts every original back.

Two levels:

* always: the few hooks that mark where a training step starts and ends,
  keep each step's loss breakdown, and timestamp each ``forward`` return so
  that a ``predict`` call can be cut into per-query latencies. Each costs a
  clock read per step or per sample, far below a step's milliseconds.
* traced (``trace=True``): a span around every stage function below, with
  name, start, end and parent kept in memory, plus counts of autodiff graph
  nodes, GRU steps and the clip pairs saliency sampling draws from. Spans
  are written out at the end.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass

from mrhd import align, cooperate, data, losses, metrics, refine, trainer
from mrhd import tensor as T

# (owner, attribute, span name) of every timed function. The owner is a
# module or a class; the span name is the per-layer metric prefix.
SPANNED = (
    (T.Tensor, "backward", "tensor.backward"),
    (align, "project", "align.project"),
    (align, "local_loss", "align.local_loss"),
    (align, "global_loss", "align.global_loss"),
    (refine, "cross_similarity", "refine.cross_similarity"),
    (refine, "bidirectional_attend", "refine.bidirectional_attend"),
    (refine, "fuse", "refine.fuse"),
    (refine, "cross_attention_fusion", "refine.cross_attention_fusion"),
    (cooperate, "highlight_head", "cooperate.highlight_head"),
    (cooperate, "hd2mr", "cooperate.hd2mr"),
    (cooperate, "moment_decoder", "cooperate.moment_decoder"),
    (cooperate, "decode_spans", "cooperate.decode_spans"),
    (cooperate, "mr2hd", "cooperate.mr2hd"),
    (losses, "span_cost_and_loss", "losses.span_cost_and_loss"),
    (losses, "hungarian_match", "losses.hungarian_match"),
    (losses, "saliency_pairs", "losses.saliency_pairs"),
    (losses, "saliency_loss", "losses.saliency_loss"),
    (losses, "total_loss", "losses.total_loss"),
    (trainer, "forward", "trainer.forward"),
    (trainer, "batch_total", "trainer.batch_total"),
    (trainer, "clip_gradients", "trainer.clip_gradients"),
    (trainer.Adam, "step", "trainer.Adam.step"),
    (trainer, "save_checkpoint", "trainer.save_checkpoint"),
    (trainer, "load_checkpoint", "trainer.load_checkpoint"),
    (trainer, "read_predictions", "trainer.read_predictions"),
    (metrics, "evaluate", "metrics.evaluate"),
    (data, "synth_generate", "data.synth_generate"),
    (data, "write_dataset", "data.write_dataset"),
    (data, "load_dataset", "data.load_dataset"),
)

# Stages whose graph-node count per call is reported as ``<name>.nodes``.
NODE_COUNTED = tuple(
    name for _, _, name in SPANNED if name.split(".")[0] in ("align", "refine", "cooperate", "losses")
)


def self_times(spans: list[tuple[float, float, int]]) -> list[float]:
    """Self time of each ``(start, end, parent)`` span: its duration minus the
    part of its interval that its child spans cover.

    ``parent`` is the index of the enclosing span, or -1. Overlapping
    children are merged before subtracting, and a child's interval is
    clipped to its parent's, so the result never goes below zero.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (start, end, _) in enumerate(spans):
        covered = 0.0
        run_lo = run_hi = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if run_hi is None or lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = lo, hi
            else:
                run_hi = max(run_hi, hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((end - start) - covered)
    return out


@dataclass
class Step:
    """One training step: from ``zero_grad`` to the end of ``Adam.step``."""

    start: float
    end: float
    nodes: int  # graph nodes recorded in the step (traced runs only)


class Probe:
    """Installs the hooks on construction; ``close`` (or leaving the ``with``
    block) restores the program's attributes."""

    def __init__(self, trace: bool):
        self.steps: list[Step] = []
        self.breakdowns: list = []  # LossBreakdown of every batch_total call
        self.forward_exits: list[float] = []
        self.names: list[str] = []
        # [name index, start, end, parent index, graph nodes created inside]
        self.spans: list[list] = []
        self.nodes = 0
        self.gru_calls = 0
        self.clip_pairs = 0  # sum of L x L over saliency_pairs calls
        self._stack: list[int] = []
        self._step_start: tuple[float, int] | None = None
        self._saved: list[tuple[object, str, object]] = []
        try:
            if trace:
                for owner, attr, name in SPANNED:
                    self._patch(owner, attr, self._spanned(getattr(owner, attr), name))
                self._patch(T, "_record", self._counted_record(T._record))
                self._patch(cooperate, "gru_cell", self._counted_gru(cooperate.gru_cell))
                self._patch(losses, "saliency_pairs", self._counted_pairs(losses.saliency_pairs))
            self._patch(trainer, "zero_grad", self._step_opener(trainer.zero_grad))
            self._patch(trainer.Adam, "step", self._step_closer(trainer.Adam.step))
            self._patch(trainer, "batch_total", self._breakdown_keeper(trainer.batch_total))
            self._patch(trainer, "forward", self._exit_stamper(trainer.forward))
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, self.nodes]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                span[4] = self.nodes - span[4]
                stack.pop()

        return wrapper

    def _counted_record(self, fn):
        def record(out_data, parents, backward):
            out = fn(out_data, parents, backward)
            if out._backward is not None:
                self.nodes += 1
            return out

        return record

    def _counted_gru(self, fn):
        def gru_cell(*args, **kwargs):
            self.gru_calls += 1
            return fn(*args, **kwargs)

        return gru_cell

    def _counted_pairs(self, fn):
        def saliency_pairs(sample, *args, **kwargs):
            self.clip_pairs += sample.num_clips**2
            return fn(sample, *args, **kwargs)

        return saliency_pairs

    def _step_opener(self, fn):
        def zero_grad(*args, **kwargs):
            self._step_start = (time.perf_counter(), self.nodes)
            return fn(*args, **kwargs)

        return zero_grad

    def _step_closer(self, fn):
        def step(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self._step_start is not None:
                start, nodes = self._step_start
                self.steps.append(Step(start, time.perf_counter(), self.nodes - nodes))
                self._step_start = None
            return out

        return step

    def _breakdown_keeper(self, fn):
        def batch_total(*args, **kwargs):
            total, breakdown = fn(*args, **kwargs)
            self.breakdowns.append(breakdown)
            return total, breakdown

        return batch_total

    def _exit_stamper(self, fn):
        def forward(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.forward_exits.append(time.perf_counter())
            return out

        return forward

    # -- summaries ---------------------------------------------------------

    def mark(self) -> dict[str, int]:
        """Sizes of the span and step lists and the counters, to cut a part
        of the run out of the counts with ``counts``."""
        return {"spans": len(self.spans), "steps": len(self.steps), "gru_calls": self.gru_calls}

    def span_table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls and total self seconds."""
        selfs = self_times([(s[1], s[2], s[3]) for s in self.spans])
        table = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for span, own in zip(self.spans, selfs):
            row = table[self.names[span[0]]]
            row["calls"] += 1
            row["self_s"] += own
        return table

    def counts(self, cut: tuple[dict, dict]) -> dict:
        """Calls and graph nodes per span name, training steps, and the
        counters, leaving out what happened between the two ``mark``s."""
        lo, hi = cut
        kept = self.spans[: lo["spans"]] + self.spans[hi["spans"] :]
        per_name = {name: {"calls": 0, "nodes": 0} for name in self.names}
        for span in kept:
            row = per_name[self.names[span[0]]]
            row["calls"] += 1
            row["nodes"] += span[4]
        return {
            "gru_calls": self.gru_calls - (hi["gru_calls"] - lo["gru_calls"]),
            "spans": per_name,
            "steps": self.steps[: lo["steps"]] + self.steps[hi["steps"] :],
        }

    def window_split(self, windows: list[tuple[float, float]]) -> dict[str, float]:
        """Totals over operation windows: their traced duration, the self time
        of the spans inside them (also by span name), and the untraced
        remainder. The self times plus the remainder add up to the duration
        by construction; the check is that no span straddles a window edge
        and the remainder is >= 0."""
        selfs = self_times([(s[1], s[2], s[3]) for s in self.spans])
        starts = [s[1] for s in self.spans]
        by_name = dict.fromkeys(self.names, 0.0)
        duration = 0.0
        straddling = 0
        for lo, hi in windows:
            duration += hi - lo
            first = bisect.bisect_left(starts, lo)
            last = bisect.bisect_right(starts, hi)
            for k in range(first, last):
                if self.spans[k][2] <= hi:
                    by_name[self.names[self.spans[k][0]]] += selfs[k]
                else:
                    straddling += 1
        inside = sum(by_name.values())
        return {
            "ops": len(windows),
            "traced_s": duration,
            "self_s": inside,
            "remainder_s": duration - inside,
            "straddling_spans": straddling,
            "self_s_by_name": by_name,
        }

    def dump(self) -> dict:
        """Spans as plain lists for the trace file."""
        return {
            "names": self.names,
            "fields": ["name", "start_s", "end_s", "parent", "nodes"],
            "spans": self.spans,
        }
