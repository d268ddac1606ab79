"""End-to-end assembly: config, forward pass, the Adam loop, checkpoints,
prediction emission, and the alignment-weight sweep.

The forward pass threads one sample through every stage in a fixed order:
feature projection, local/global alignment terms, cross-modal refinement,
joint fusion, highlight scoring, score-conditioned re-encoding, moment
decoding, and the GRU hand-back that refines the highlight scores with the
top retrieved span. Batches are processed sample by sample (no padding);
only the batch-contrastive term consumes the whole batch at once.
"""

from __future__ import annotations

import json
import logging
import math
import struct
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import align, cooperate, losses, metrics, refine
from . import tensor as T
from .data import ConfigError, Dataset, FeatureBundle, QuerySample, clip_labels, load_dataset
from .tensor import Tensor

log = logging.getLogger(__name__)

GRAD_CLIP_NORM = 0.1
_CKPT_MAGIC = b"MRHDCKP1"


class CheckpointFormatError(ValueError):
    """Checkpoint file is malformed or inconsistent with its header."""


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; message carries the step and breakdown."""


# ---------------------------------------------------------------------------
# configuration


@dataclass
class TrainConfig:
    """Everything a training run needs, JSON round-trippable.

    ``raw_fusion_attention`` switches the fusion stage to emit the plain
    attention mixture with no residual or normalization, for ablations.
    """

    seed: int = 0
    batch_size: int = 32
    epochs: int = 200
    learning_rate: float = 1e-4
    lambda_lg: float = 0.3
    d: int = 256
    num_queries: int = 10
    decoder_layers: int = 2
    heads: int = 4
    weights: losses.LossWeights = field(default_factory=losses.LossWeights)
    data_dir: str | None = None
    raw_fusion_attention: bool = False
    temperature: float = 1.0

    def validate(self) -> None:
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (self.lambda_lg >= 0.0 and math.isfinite(self.lambda_lg)):
            raise ConfigError(f"lambda_lg must be finite and >= 0, got {self.lambda_lg}")
        if self.d <= 0:
            raise ConfigError(f"d must be positive, got {self.d}")
        if self.heads < 1 or self.d % self.heads != 0:
            raise ConfigError(f"heads must divide d, got d={self.d} heads={self.heads}")
        if self.num_queries < 1:
            raise ConfigError("num_queries must be >= 1")
        if self.decoder_layers < 1:
            raise ConfigError("decoder_layers must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be >= 0")
        if self.temperature <= 0:
            raise ConfigError(f"temperature must be positive, got {self.temperature}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "weights" in d:
            try:
                d["weights"] = losses.LossWeights(**d["weights"])
            except TypeError as e:
                raise ConfigError(f"bad loss weights: {e}") from None
        try:
            cfg = cls(**d)
        except TypeError as e:
            raise ConfigError(f"bad config: {e}") from None
        cfg.validate()
        return cfg

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "TrainConfig":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        if not isinstance(d, dict):
            raise ConfigError("config JSON must be an object")
        return cls.from_dict(d)


# ---------------------------------------------------------------------------
# model assembly


def feature_dims(dataset: Dataset) -> tuple[int, int]:
    if not dataset.samples:
        raise ConfigError("dataset is empty")
    _, bundle = dataset.samples[0]
    return bundle.effective_visual().shape[1], bundle.text.shape[1]


def init_model(
    rng: np.random.Generator, d_v: int, d_t: int, config: TrainConfig
) -> dict[str, Tensor]:
    config.validate()
    params: dict[str, Tensor] = {}
    align.init_project_params(params, rng, d_v, d_t, config.d)
    refine.init_refine_params(params, rng, config.d)
    cooperate.init_cooperate_params(
        params, rng, config.d, config.num_queries, config.decoder_layers
    )
    return params


# ---------------------------------------------------------------------------
# forward


@dataclass
class SampleLosses:
    """Per-sample loss pieces kept as graph nodes for batch assembly."""

    mom: Tensor
    high: Tensor
    local: Tensor
    pooled_v: Tensor
    pooled_t: Tensor


@dataclass
class ForwardResult:
    prediction: cooperate.MomentPrediction
    total: Tensor | None = None
    breakdown: losses.LossBreakdown | None = None
    parts: SampleLosses | None = None


def forward(
    sample: QuerySample,
    bundle: FeatureBundle,
    params: dict[str, Tensor],
    config: TrainConfig,
    mode: str = "train",
    saliency_seed: int | None = None,
) -> ForwardResult:
    """One sample through the whole pipeline.

    Train mode returns the loss graph alongside the prediction; infer mode
    skips losses entirely. Reported highlight scores are always the
    moment-refined ones. ``saliency_seed`` picks the ranking-pair subset;
    the training loop varies it per step so the 16-pair cap still covers
    every valid pair over time.
    """
    if mode not in ("train", "infer"):
        raise ConfigError(f"mode must be 'train' or 'infer', got {mode!r}")

    p = align.project(bundle, params)
    positioned = align.ProjectedFeatures(
        v_hat=refine.add_positions(p.v_hat), t_hat=p.t_hat
    )
    sim = refine.cross_similarity(positioned, params)
    f_v2q, f_q2v = refine.bidirectional_attend(sim, positioned)
    f_v_bar = refine.fuse(positioned, f_v2q, f_q2v, params)
    joint = refine.cross_attention_fusion(
        f_v_bar, p.t_hat, params, raw_attention=config.raw_fusion_attention
    )
    h = cooperate.highlight_head(joint, params, config.heads)
    z_hat = cooperate.hd2mr(joint, h, params, config.heads)
    decoded = cooperate.moment_decoder(z_hat, params, config.heads, config.decoder_layers)
    spans = cooperate.decode_spans(decoded, sample.duration)
    h_bar = cooperate.mr2hd(p.v_hat, joint, z_hat, spans[0][:2], sample.clip_len, params)
    prediction = cooperate.MomentPrediction(spans=spans, highlight=h_bar.data.copy())
    if mode == "infer":
        return ForwardResult(prediction=prediction)

    _, _, mom = losses.span_cost_and_loss(
        decoded, sample.relevant_windows, sample.duration, config.weights
    )
    seed = config.seed if saliency_seed is None else saliency_seed
    high = T.scale(
        losses.saliency_loss(h, h_bar, sample, seed), config.weights.saliency
    )
    _, s_hat = align.local_similarity(p)
    local = align.local_loss(s_hat, clip_labels(sample))
    pooled_v, pooled_t = align.pooled_globals(p)
    glob = align.global_loss(pooled_v, pooled_t, config.temperature)
    total, breakdown = losses.total_loss(mom, high, local, glob, config.lambda_lg)
    parts = SampleLosses(mom=mom, high=high, local=local, pooled_v=pooled_v, pooled_t=pooled_t)
    return ForwardResult(prediction=prediction, total=total, breakdown=breakdown, parts=parts)


def _mean_scalars(terms: list[Tensor]) -> Tensor:
    acc = terms[0]
    for t in terms[1:]:
        acc = T.add(acc, t)
    return T.scale(acc, 1.0 / len(terms))


def batch_total(
    parts: list[SampleLosses], config: TrainConfig
) -> tuple[Tensor, losses.LossBreakdown]:
    """Batch loss: per-sample means plus the batch-wide contrastive term."""
    mom = _mean_scalars([p.mom for p in parts])
    high = _mean_scalars([p.high for p in parts])
    local = _mean_scalars([p.local for p in parts])
    pooled_v = T.concat([p.pooled_v for p in parts], axis=0)
    pooled_t = T.concat([p.pooled_t for p in parts], axis=0)
    glob = align.global_loss(pooled_v, pooled_t, config.temperature)
    return losses.total_loss(mom, high, local, glob, config.lambda_lg)


def dataset_breakdown(
    params: dict[str, Tensor], config: TrainConfig, dataset: Dataset
) -> losses.LossBreakdown:
    """Loss over the whole dataset treated as a single batch (no updates)."""
    parts = [forward(s, b, params, config, "train").parts for s, b in dataset.samples]
    _, breakdown = batch_total(parts, config)
    return breakdown


# ---------------------------------------------------------------------------
# optimizer


def zero_grad(params: dict[str, Tensor]) -> None:
    for p in params.values():
        p.grad = None


def clip_gradients(params: dict[str, Tensor], max_norm: float) -> float:
    """Scale all gradients so their global L2 norm is at most max_norm."""
    total = 0.0
    for name in sorted(params):
        g = params[name].grad
        if g is not None:
            total += float(np.sum(g * g))
    norm = math.sqrt(total)
    if norm > max_norm > 0:
        factor = max_norm / norm
        for p in params.values():
            if p.grad is not None:
                p.grad = p.grad * factor
    return norm


def learning_rate_at(step: int, total_steps: int, base: float) -> float:
    """Step size for ``step`` (0-based) of a ``total_steps`` run.

    A linear warm-up over the first tenth of the run, then ``base`` up to
    two thirds of it, then a tenth of ``base`` (DETR's 10x drop at epoch
    200 of 300). At a constant step size the set-prediction losses never
    settle: the matched spans keep swinging by seconds from step to step,
    so the returned weights depend on where in that swing the run stops.
    The warm-up guards the first steps, where Adam moves every parameter
    by about the full step size whatever its gradient; one such step can
    push the span head's sigmoid so far into saturation that it never
    recovers.
    """
    lr = base * min(1.0, 10 * (step + 1) / total_steps)
    return lr if 3 * step < 2 * total_steps else 0.1 * lr


class Adam:
    """Plain Adam with bias correction; moments keyed like the params."""

    def __init__(
        self,
        params: dict[str, Tensor],
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self, params: dict[str, Tensor]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name in sorted(params):
            p = params[name]
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * g * g
            p.data = p.data - self.learning_rate * (self.m[name] / bc1) / (
                np.sqrt(self.v[name] / bc2) + self.eps
            )


# ---------------------------------------------------------------------------
# checkpoints


@dataclass
class Checkpoint:
    params: dict[str, Tensor]
    config: TrainConfig
    step: int
    adam_m: dict[str, np.ndarray]
    adam_v: dict[str, np.ndarray]
    adam_t: int = 0


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    """Single file: magic, u64 header length, JSON header, float64 blobs."""
    arrays: list[tuple[str, str, np.ndarray]] = []
    for name in sorted(ckpt.params):
        arrays.append((name, "param", ckpt.params[name].data))
    for name in sorted(ckpt.adam_m):
        arrays.append((name, "adam_m", ckpt.adam_m[name]))
    for name in sorted(ckpt.adam_v):
        arrays.append((name, "adam_v", ckpt.adam_v[name]))
    header = {
        "config": ckpt.config.to_dict(),
        "step": ckpt.step,
        "adam_t": ckpt.adam_t,
        "arrays": [
            {"name": n, "kind": k, "shape": list(a.shape)} for n, k, a in arrays
        ],
    }
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for _, _, a in arrays:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_checkpoint(path) -> Checkpoint:
    raw = Path(path).read_bytes()
    if len(raw) < len(_CKPT_MAGIC) + 8 or raw[: len(_CKPT_MAGIC)] != _CKPT_MAGIC:
        raise CheckpointFormatError(f"{path}: not a checkpoint file")
    off = len(_CKPT_MAGIC)
    (hlen,) = struct.unpack_from("<Q", raw, off)
    off += 8
    if off + hlen > len(raw):
        raise CheckpointFormatError(f"{path}: truncated header")
    try:
        header = json.loads(raw[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointFormatError(f"{path}: bad header: {e}") from None
    off += hlen
    config = TrainConfig.from_dict(header["config"])
    stores = {"param": {}, "adam_m": {}, "adam_v": {}}
    for entry in header["arrays"]:
        shape = tuple(entry["shape"])
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if off + nbytes > len(raw):
            raise CheckpointFormatError(f"{path}: truncated blob for {entry['name']}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=off).reshape(shape)
        stores[entry["kind"]][entry["name"]] = arr.astype(np.float64)
        off += nbytes
    if off != len(raw):
        raise CheckpointFormatError(f"{path}: {len(raw) - off} trailing bytes")
    params = {
        name: Tensor(arr, requires_grad=True) for name, arr in stores["param"].items()
    }
    return Checkpoint(
        params=params,
        config=config,
        step=int(header["step"]),
        adam_m=stores["adam_m"],
        adam_v=stores["adam_v"],
        adam_t=int(header["adam_t"]),
    )


# ---------------------------------------------------------------------------
# training loop


def train(config: TrainConfig, dataset: Dataset | None = None) -> Checkpoint:
    """Seeded full training run; deterministic for a fixed config.

    Each step clips the global gradient norm to ``GRAD_CLIP_NORM`` and
    takes an Adam step whose size ``learning_rate_at`` derives from
    ``config.learning_rate`` and the run length, ``epochs`` x batches.
    """
    config.validate()
    if dataset is None:
        if config.data_dir is None:
            raise ConfigError("no dataset given and config.data_dir is unset")
        root = Path(config.data_dir)
        dataset = load_dataset(root / "annotations.jsonl", root)
    if not dataset.samples:
        raise ConfigError("dataset is empty")

    rng = np.random.default_rng(config.seed)
    d_v, d_t = feature_dims(dataset)
    params = init_model(rng, d_v, d_t, config)
    opt = Adam(params, config.learning_rate)

    n = len(dataset.samples)
    total_steps = config.epochs * math.ceil(n / config.batch_size)
    step = 0
    for epoch in range(config.epochs):
        order = rng.permutation(n)
        epoch_total = 0.0
        batches = 0
        for start in range(0, n, config.batch_size):
            chosen = order[start : start + config.batch_size]
            zero_grad(params)
            parts = [
                forward(
                    *dataset.samples[i], params, config, "train",
                    saliency_seed=config.seed + step,
                ).parts
                for i in chosen
            ]
            total, breakdown = batch_total(parts, config)
            if not math.isfinite(breakdown.total):
                raise TrainingDivergedError(
                    f"non-finite loss at step {step}: {breakdown}"
                )
            total.backward()
            clip_gradients(params, GRAD_CLIP_NORM)
            opt.learning_rate = learning_rate_at(step, total_steps, config.learning_rate)
            opt.step(params)
            step += 1
            epoch_total += breakdown.total
            batches += 1
        log.info("epoch %d: mean batch loss %.6f", epoch, epoch_total / max(batches, 1))
    return Checkpoint(
        params=params, config=config, step=step, adam_m=opt.m, adam_v=opt.v, adam_t=opt.t
    )


# ---------------------------------------------------------------------------
# prediction and evaluation


def _check_dims(ckpt: Checkpoint, dataset: Dataset) -> None:
    d_v, d_t = feature_dims(dataset)
    want_v = ckpt.params["proj_v.l0.w"].shape[0]
    want_t = ckpt.params["proj_t.l0.w"].shape[0]
    if (d_v, d_t) != (want_v, want_t):
        raise ConfigError(
            f"feature dims ({d_v}, {d_t}) do not match checkpoint ({want_v}, {want_t})"
        )


def predict(ckpt: Checkpoint, dataset: Dataset, out_path=None) -> list[dict]:
    """Emit one JSON record per query; also write JSON-Lines when asked."""
    _check_dims(ckpt, dataset)
    records = []
    for sample, bundle in dataset.samples:
        res = forward(sample, bundle, ckpt.params, ckpt.config, mode="infer")
        records.append(
            {
                "qid": sample.qid,
                "pred_relevant_windows": [
                    [float(s), float(e), float(c)] for s, e, c in res.prediction.spans
                ],
                "pred_saliency_scores": [float(x) for x in res.prediction.highlight],
            }
        )
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            for rec in records:
                fh.write(json.dumps(rec) + "\n")
    return records


def read_predictions(path) -> list[dict]:
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise CheckpointFormatError(f"{path} line {lineno}: {e}") from None
            for key in ("qid", "pred_relevant_windows", "pred_saliency_scores"):
                if key not in rec:
                    raise CheckpointFormatError(f"{path} line {lineno}: missing {key}")
            records.append(rec)
    return records


def evaluate_checkpoint(ckpt: Checkpoint, dataset: Dataset) -> metrics.EvalReport:
    return evaluate_predictions(predict(ckpt, dataset), dataset)


def evaluate_predictions(records: list[dict], dataset: Dataset) -> metrics.EvalReport:
    """Score exactly one record per dataset query; a partial or repeated
    record list would report metrics over some other query set."""
    by_qid = {sample.qid: sample for sample, _ in dataset.samples}
    results = []
    for rec in records:
        if rec["qid"] not in by_qid:
            raise ConfigError(f"prediction qid {rec['qid']} not in dataset")
        sample = by_qid[rec["qid"]]
        spans = [tuple(w) for w in rec["pred_relevant_windows"]]
        results.append((sample, spans, list(rec["pred_saliency_scores"])))
    counts = Counter(rec["qid"] for rec in records)
    missing = sorted(by_qid.keys() - counts.keys())
    duplicated = sorted(qid for qid, n in counts.items() if n > 1)
    if missing or duplicated:
        raise ConfigError(
            f"predictions must cover every dataset qid once: missing qids {missing},"
            f" duplicated qids {duplicated}"
        )
    return metrics.evaluate(results)


# ---------------------------------------------------------------------------
# lambda sweep


def sweep_lambda(
    config: TrainConfig,
    values: list[float],
    dataset: Dataset | None = None,
    eval_dataset: Dataset | None = None,
) -> list[dict]:
    """Train one model per alignment weight (same seed) and tabulate metrics.

    Each row records the trained model's evaluation report plus the
    alignment term's contribution to the final whole-set loss, which is an
    exact zero when the weight is zero.
    """
    for v in values:
        if not (math.isfinite(v) and v >= 0):
            raise ConfigError(f"sweep values must be finite and >= 0, got {v}")
    rows = []
    for v in values:
        cfg = replace(config, lambda_lg=float(v))
        ckpt = train(cfg, dataset)
        train_ds = dataset
        if train_ds is None:
            root = Path(cfg.data_dir)
            train_ds = load_dataset(root / "annotations.jsonl", root)
        breakdown = dataset_breakdown(ckpt.params, cfg, train_ds)
        report = evaluate_checkpoint(ckpt, eval_dataset if eval_dataset is not None else train_ds)
        rows.append(
            {
                "lambda_lg": float(v),
                "align_loss": breakdown.lambda_lg * (breakdown.local + breakdown.global_),
                "report": report.to_dict(),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# end-to-end gradient probe


def end_to_end_check(
    seed: int,
    h: float = 1e-5,
    num_params: int = 5,
    num_clips: int = 6,
    num_tokens: int = 3,
    d: int = 8,
    num_queries: int = 3,
) -> float:
    """Finite-difference check of the full pipeline's total loss.

    Builds a tiny synthetic sample, backpropagates once, then probes a
    few randomly chosen parameter entries with central differences.
    Returns the worst scaled error.
    """
    from .data import SynthConfig, synth_generate

    synth = SynthConfig(
        num_samples=1,
        num_clips=num_clips,
        num_tokens=num_tokens,
        d_v=d,
        d_t=d,
        noise=0.3,
    )
    ds = synth_generate(synth, seed)
    sample, bundle = ds.samples[0]
    config = TrainConfig(
        seed=seed,
        d=d,
        num_queries=num_queries,
        decoder_layers=1,
        heads=2,
        lambda_lg=0.3,
    )
    rng = np.random.default_rng(seed + 1)
    params = init_model(rng, d, d, config)

    def total_value() -> float:
        return forward(sample, bundle, params, config, "train").total.item()

    zero_grad(params)
    forward(sample, bundle, params, config, "train").total.backward()
    grads = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for k, p in params.items()}

    names = sorted(params)
    worst = 0.0
    for _ in range(num_params):
        name = names[int(rng.integers(len(names)))]
        flat = params[name].data.reshape(-1)
        idx = int(rng.integers(flat.size))
        keep = flat[idx]
        flat[idx] = keep + h
        up = total_value()
        flat[idx] = keep - h
        down = total_value()
        flat[idx] = keep
        numeric = (up - down) / (2.0 * h)
        analytic = float(grads[name].reshape(-1)[idx])
        err = abs(analytic - numeric) / max(1.0, abs(analytic), abs(numeric))
        worst = max(worst, err)
    return worst
