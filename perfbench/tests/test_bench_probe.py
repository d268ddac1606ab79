"""Self-time arithmetic on synthetic span trees, and the probe's hooks."""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from probe import SPANNED, Probe, self_times  # noqa: E402
from mrhd import cooperate, tensor, trainer  # noqa: E402
from mrhd.data import SynthConfig, synth_generate  # noqa: E402


def test_self_times_subtract_children_once():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 3.0, 0),  # child, covers 1-3
        (2.0, 5.0, 0),  # child overlapping the first: together 1-5
        (1.5, 2.5, 1),  # grandchild
        (9.0, 12.0, 0),  # child running past the root's end: 9-10 counts
        (20.0, 21.0, -1),  # second root, no children
    ]
    assert self_times(spans) == pytest.approx([10 - 4 - 1, 2 - 1, 3, 1, 3, 1])


def test_self_times_of_a_tree_add_up_to_the_roots():
    spans = [(0.0, 8.0, -1), (1.0, 4.0, 0), (1.5, 2.0, 1), (2.5, 3.5, 1), (5.0, 7.0, 0), (9.0, 9.5, -1)]
    assert sum(self_times(spans)) == pytest.approx(8.0 + 0.5)


def test_window_split_adds_self_time_and_remainder():
    with Probe(trace=False) as probe:
        probe.names = ["tensor.backward"]
        probe.spans = [[0, 1.0, 3.0, -1, 0], [0, 1.5, 2.0, 0, 0], [0, 4.0, 6.0, -1, 0], [0, 6.5, 9.0, -1, 0]]
        split = probe.window_split([(0.5, 3.5), (3.5, 7.0)])
    # the last span ends after the second window: it is not counted inside
    assert split.pop("self_s_by_name") == pytest.approx({"tensor.backward": 4.0})
    assert split == pytest.approx(
        {"ops": 2, "traced_s": 6.5, "self_s": 4.0, "remainder_s": 2.5, "straddling_spans": 1}
    )


def test_probe_restores_every_attribute():
    before = [owner.__dict__[attr] for owner, attr, _ in SPANNED]
    extra = [tensor._record, cooperate.gru_cell, trainer.zero_grad, trainer.forward]
    probe = Probe(trace=True)
    assert trainer.__dict__["forward"] is not extra[3]
    probe.close()
    assert [owner.__dict__[attr] for owner, attr, _ in SPANNED] == before
    assert [tensor._record, cooperate.gru_cell, trainer.zero_grad, trainer.forward] == extra


def test_traced_forward_records_nested_spans_and_nodes():
    ds = synth_generate(SynthConfig(num_samples=1, num_clips=6, num_tokens=3, d_v=8, d_t=8), 0)
    config = trainer.TrainConfig(d=8, num_queries=3, decoder_layers=1, heads=2)
    params = trainer.init_model(np.random.default_rng(0), 8, 8, config)
    with Probe(trace=True) as probe:
        trainer.forward(*ds.samples[0], params, config, "infer")
        once = probe.mark()
        trainer.forward(*ds.samples[0], params, config, "infer")
        cut = (once, probe.mark())
        trainer.forward(*ds.samples[0], params, config, "infer")
    table = probe.span_table()
    counts = probe.counts(cut)
    assert table["trainer.forward"]["calls"] == table["align.project"]["calls"] == 3
    assert table["losses.saliency_loss"]["calls"] == 0  # infer mode has no losses
    # the cut leaves out the second forward
    assert counts["spans"]["trainer.forward"]["calls"] == 2
    assert 3 * counts["spans"]["trainer.forward"]["nodes"] == 2 * probe.nodes > 0
    assert counts["gru_calls"] == 2 * once["gru_calls"] > 0
    forward = next(i for i, s in enumerate(probe.spans) if probe.names[s[0]] == "trainer.forward")
    children = {probe.names[s[0]] for s in probe.spans if s[3] == forward}
    assert {"align.project", "cooperate.mr2hd", "cooperate.decode_spans"} <= children
    assert counts["spans"]["cooperate.decode_spans"]["nodes"] == 0
