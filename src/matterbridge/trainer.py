"""Two-stage training: bridge pretraining and instruction finetuning.

Stage one trains the bridge on frozen atom features with the combined
alignment objective (contrastive + conditional token prediction +
pair-match classification).  Stage two trains the bridge, its projection
into the language model included, on answer-token cross entropy, and
the language model with it when ``lm_trainable`` is set.  The overfit
release gate (configs/overfit.json) sets it: the character LM is a
random draw that knows no language, so a frozen one leaves the prefix
alone to produce well-formed answers, and a gate run with the LM frozen
parsed none of its 192 classification answers.  Both stages run the
same optimizer-step loop, ``_train_stage``; they differ only in the
micro-batch loss they hand it.  The loop pauses the cyclic garbage
collector until the stage ends, as a tape holds no cycle (see ``tensor``).

Determinism contract: every random draw (epoch shuffles, hard-negative
sampling, caption template picks) comes from a stateless stream derived
from (run seed, stream name), so repeated runs produce bit-identical
loss traces and checkpoints.
"""

from __future__ import annotations

import csv
import gc
import json
import math
import os
import warnings
import zlib
from dataclasses import dataclass

import numpy as np

from .bridge import (BridgeParams, bridge_forward, init_bridge, lm_prefix,
                     match_score, text_logits)
from .config import config_from_dict, config_hash
from .crystal import build_graph
from .encoder import EncoderParams, encode_atoms, init_encoder
from .errors import CheckpointError, ContractError, ValidationError
from .ioutil import atomic_write, canonical_json
from .lm import LmParams, Vocab, default_vocab, init_lm, lm_forward
from .objectives import (association_loss, contrastive_loss, finetune_loss,
                         hard_negative_sample, lm_token_loss, sim_matrix)
from .templates import get_templates, render_answer
from .tensor import Tensor, concat

CHECKPOINT_FORMAT = "bridge-checkpoint-v1"
MANIFEST_KEYS = ("format", "stage", "step", "config_hash", "config", "vocab",
                 "tensors")
STAGES = ("pretrain", "finetune")


def stream_seed(seed, name):
    """Derive a child seed for a named random stream of a run."""
    return np.random.SeedSequence([int(seed), zlib.crc32(name.encode())])


def stream_rng(seed, name):
    return np.random.default_rng(stream_seed(seed, name))


# ---------------------------------------------------------------------------
# model bundle


@dataclass
class Models:
    encoder: EncoderParams
    bridge: BridgeParams
    lm: LmParams
    vocab: Vocab


def build_models(cfg, seed=None):
    """Initialize all three components from a single run seed.

    Component seeds are derived, not shared, so changing one dimension
    never reflows the random draws of the other components.
    """
    cfg.validate()
    if seed is None:
        seed = cfg.seed
    vocab = default_vocab()
    enc_seed = int(stream_rng(seed, "init-encoder").integers(2**31))
    br_seed = int(stream_rng(seed, "init-bridge").integers(2**31))
    lm_seed = int(stream_rng(seed, "init-lm").integers(2**31))
    encoder = init_encoder(enc_seed, d_enc=cfg.d_enc, L_enc=cfg.L_enc,
                           cutoff=cfg.cutoff)
    bridge = init_bridge(br_seed, vocab_size=len(vocab.symbols), d_b=cfg.d_b,
                         n_q=cfg.n_q, L_b=cfg.L_b, n_heads=cfg.n_heads,
                         d_enc=cfg.d_enc, d_lm=cfg.d_lm, max_text=cfg.max_text)
    lm = init_lm(lm_seed, vocab=vocab, d_lm=cfg.d_lm, L_lm=cfg.L_lm,
                 n_heads=cfg.lm_heads, max_len=cfg.max_len,
                 trainable=cfg.lm_trainable)
    return Models(encoder=encoder, bridge=bridge, lm=lm, vocab=vocab)


def encode_structure(structure, models):
    """Frozen per-atom features (n_atoms, d_enc) of one structure."""
    graph = build_graph(structure, cutoff=models.encoder.cutoff)
    return encode_atoms(graph, models.encoder)


def all_tensors(models):
    """Every parameter array in the bundle under a dotted, prefixed name."""
    return {f"{part}.{k}": t.data for part in ("encoder", "bridge", "lm")
            for k, t in getattr(models, part).params.items()}


def trainable_tensors(models):
    """The parameters that train: those whose requires_grad is set."""
    return {f"{part}.{k}": t for part in ("encoder", "bridge", "lm")
            for k, t in getattr(models, part).params.items()
            if t.requires_grad}


# ---------------------------------------------------------------------------
# optimizer


def lr_schedule(step, total_steps, warmup_steps, stage, cfg):
    """Learning rate at an optimizer step.

    Linear warmup from the shared start rate to the stage peak over
    warmup_steps, then cosine decay to the stage floor at total_steps.
    Endpoints are exact: step 0 gives the start rate, step warmup_steps
    the peak, step total_steps the floor.
    """
    if stage == "pretrain":
        peak, floor = cfg.pretrain_peak_lr, cfg.pretrain_floor_lr
    elif stage == "finetune":
        peak, floor = cfg.finetune_peak_lr, cfg.finetune_floor_lr
    else:
        raise ContractError(f"unknown stage {stage!r}")
    if not 0 <= step <= total_steps:
        raise ValidationError(f"step {step} outside [0, {total_steps}]")
    if step < warmup_steps:
        frac = step / warmup_steps
        return cfg.warmup_start_lr + (peak - cfg.warmup_start_lr) * frac
    if total_steps == warmup_steps:
        return peak
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return floor + (peak - floor) * 0.5 * (1.0 + np.cos(np.pi * progress))


def warmup_steps_for(total_steps, cfg):
    return int(np.ceil(cfg.warmup_frac * total_steps))


def steps_per_epoch(n_items, batch_size, accum):
    return int(np.ceil(n_items / (batch_size * accum)))


def init_optim_state(params):
    return {
        name: {"m": np.zeros_like(t.data), "v": np.zeros_like(t.data)}
        for name, t in params.items()
    }


def adamw_step(params, state, step, lr, cfg):
    """One decoupled-weight-decay Adam update, in place.

    step is 1-based for bias correction.  A parameter with no gradient
    this window contributes a zero gradient: its moments decay and it
    still receives weight decay.
    """
    if step < 1:
        raise ValidationError("optimizer step index is 1-based")
    b1, b2 = cfg.beta1, cfg.beta2
    c1 = 1.0 - b1 ** step
    c2 = 1.0 - b2 ** step
    for name in sorted(params):
        t = params[name]
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        st = state[name]
        st["m"] = b1 * st["m"] + (1.0 - b1) * g
        st["v"] = b2 * st["v"] + (1.0 - b2) * g * g
        m_hat = st["m"] / c1
        v_hat = st["v"] / c2
        t.data = (t.data
                  - lr * m_hat / (np.sqrt(v_hat) + cfg.eps)
                  - lr * cfg.weight_decay * t.data)


def zero_grads(params):
    for t in params.values():
        t.grad = None


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path, models, cfg, stage, step):
    """Write a self-contained checkpoint.

    Layout: an 8-byte little-endian uint64 manifest length, the
    canonical-JSON manifest, then each tensor as little-endian float64
    bytes at the offsets the manifest records.
    """
    if stage not in STAGES:
        raise ContractError(f"unknown stage {stage!r}")
    tensors = all_tensors(models)
    records = []
    offset = 0
    blobs = []
    for name in sorted(tensors):
        data = tensors[name]
        blob = np.ascontiguousarray(data, dtype="<f8").tobytes()
        records.append({
            "name": name,
            "shape": list(data.shape),
            "offset": offset,
            "nbytes": len(blob),
        })
        blobs.append(blob)
        offset += len(blob)
    manifest = {
        "format": CHECKPOINT_FORMAT,
        "stage": stage,
        "step": int(step),
        "config_hash": config_hash(cfg),
        "config": cfg.to_dict(),
        "vocab": list(models.vocab.symbols),
        "tensors": records,
    }
    payload = canonical_json(manifest).encode()
    with atomic_write(path) as fh:
        fh.write(np.array(len(payload), dtype="<u8").tobytes())
        fh.write(payload)
        for blob in blobs:
            fh.write(blob)
    return path


@dataclass
class Checkpoint:
    manifest: dict
    arrays: dict

    @property
    def stage(self):
        return self.manifest["stage"]

    @property
    def step(self):
        return self.manifest["step"]


def load_checkpoint(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < 8:
        raise CheckpointError(f"{path}: file shorter than the length header")
    (n_manifest,) = np.frombuffer(raw[:8], dtype="<u8")
    n_manifest = int(n_manifest)
    if len(raw) < 8 + n_manifest:
        raise CheckpointError(f"{path}: manifest truncated")
    try:
        manifest = json.loads(raw[8:8 + n_manifest].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: manifest is not valid JSON: {e}") from None
    tag = manifest.get("format") if isinstance(manifest, dict) else None
    if tag != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path}: unrecognized format tag {tag!r}")
    missing = [key for key in MANIFEST_KEYS if key not in manifest]
    if missing or not (isinstance(manifest["vocab"], list)
                       and isinstance(manifest["tensors"], list)
                       and isinstance(manifest["config_hash"], str)
                       and manifest["stage"] in STAGES
                       and type(manifest["step"]) is int
                       and manifest["step"] >= 0):
        raise CheckpointError(f"{path}: manifest needs the keys "
                              f"{list(MANIFEST_KEYS)}, vocab/tensors lists, "
                              f"a str config_hash, stage in {STAGES}, step>=0")
    body = raw[8 + n_manifest:]
    arrays = {}
    for rec in manifest["tensors"]:
        try:
            name, shape = rec["name"], tuple(rec["shape"])
            lo, nbytes = rec["offset"], rec["nbytes"]
            sizes = (lo, nbytes) + shape
            valid = (isinstance(name, str)
                     and all(type(v) is int and v >= 0 for v in sizes)
                     and nbytes == 8 * math.prod(shape))
        except (KeyError, TypeError):
            valid = False
        if not valid:
            raise CheckpointError(f"{path}: malformed tensor record {rec!r}")
        if name in arrays:
            raise CheckpointError(f"{path}: duplicate tensor {name!r}")
        hi = lo + nbytes
        if hi > len(body):
            raise CheckpointError(
                f"{path}: blob for tensor {name!r} is truncated "
                f"(needs bytes [{lo}, {hi}), file has {len(body)})")
        arr = np.frombuffer(body[lo:hi], dtype="<f8").reshape(shape)
        if not np.isfinite(arr).all():
            raise CheckpointError(
                f"{path}: tensor {name!r} holds a NaN or infinite value")
        arrays[name] = arr.copy()
    return Checkpoint(manifest=manifest, arrays=arrays)


def as_checkpoint(ckpt):
    """The given Checkpoint, or the one loaded from a path."""
    if isinstance(ckpt, Checkpoint):
        return ckpt
    if isinstance(ckpt, (str, os.PathLike)):
        return load_checkpoint(ckpt)
    raise ContractError(
        f"expected a Checkpoint or a path, got {type(ckpt).__name__}")


def restore_models(ckpt, cfg=None):
    """Rebuild a model bundle and overwrite every array from a checkpoint.

    ckpt may be a Checkpoint or a path.
    """
    ckpt = as_checkpoint(ckpt)
    if cfg is None:
        cfg = config_from_dict(ckpt.manifest["config"])
    models = build_models(cfg)
    if list(models.vocab.symbols) != list(ckpt.manifest["vocab"]):
        raise CheckpointError("checkpoint vocabulary does not match")
    tensors = all_tensors(models)
    missing = sorted(set(tensors) - set(ckpt.arrays))
    extra = sorted(set(ckpt.arrays) - set(tensors))
    if missing or extra:
        raise CheckpointError(
            f"tensor names do not match (missing {missing}, extra {extra})")
    for name, target in tensors.items():
        arr = ckpt.arrays[name]
        if arr.shape != target.shape:
            raise CheckpointError(
                f"tensor {name!r} has shape {arr.shape}, expected {target.shape}")
        target[...] = arr
    return models


def check_resume_config(ckpt, cfg, allow_config_mismatch=False):
    stored = ckpt.manifest["config_hash"]
    current = config_hash(cfg)
    if stored == current:
        return
    if not allow_config_mismatch:
        raise ContractError(
            f"checkpoint config hash {stored} does not match current config "
            f"{current}; pass allow_config_mismatch=True to resume anyway")
    warnings.warn(
        f"resuming across a config change ({stored} -> {current})",
        stacklevel=2)


# ---------------------------------------------------------------------------
# shared batch plumbing


class _LossLog:
    """CSV loss log, one row per optimizer step."""

    FIELDS = ("step", "stage", "lr", "loss", "contrastive", "prediction",
              "association")

    def __init__(self, path):
        self._fh = None
        self._writer = None
        if path is not None:
            self._fh = open(path, "w", newline="", encoding="utf-8")
            self._writer = csv.writer(self._fh)
            self._writer.writerow(self.FIELDS)

    def add(self, step, stage, lr, loss, parts):
        row = (step, stage, *(repr(float(v)) for v in (lr, loss, *parts)))
        if self._writer is not None:
            self._writer.writerow(row)
            self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()


def caption_for(record, seed):
    """Pretraining caption: a composition answer sentence for the material.

    The template index is a deterministic per-material draw from the run
    seed, so the caption never changes between epochs or runs.
    """
    group = get_templates("formula")
    rng = stream_rng(seed, "caption-" + record.material_id)
    idx = int(rng.integers(len(group.answers)))
    return render_answer(record, "formula", idx)


def _bridge_text_ids(vocab, caption):
    return [vocab.bos_id] + vocab.tokenize(caption)


def _epoch_order(n, seed, stage, epoch):
    rng = stream_rng(seed, f"{stage}-epoch-{epoch}")
    return rng.permutation(n)


def _save_stage(ckpt_dir, tag, models, cfg, stage, step):
    """Save <stage>-<tag>.ckpt into ckpt_dir and return its path.

    Without a ckpt_dir nothing is saved and the models are returned.
    """
    if ckpt_dir is None:
        return models
    path = os.path.join(ckpt_dir, f"{stage}-{tag}.ckpt")
    return save_checkpoint(path, models, cfg, stage, step)


def _nan_abort(loss_value, stage, step):
    if not np.isfinite(loss_value):
        raise ContractError(
            f"non-finite loss at {stage} step {step}: {loss_value!r}")


def _train_stage(stage, items, micro_loss, models, cfg, seed, log_path,
                 ckpt_dir):
    """The optimizer-step loop both training stages run.

    Each epoch visits ``items`` in a seeded shuffle, in windows of
    batch_size * <stage>_accum items, and takes one AdamW step per
    window.  ``micro_loss(micro, step, k, n_micro)`` returns the loss
    tensor of the micro-batch at offset k of the window (one of n_micro)
    and its three detached parts; gradients, losses and parts are summed
    over the window.  Returns the final checkpoint path when ckpt_dir is
    given, else the trained bundle.  Pauses GC until then: tapes are acyclic.
    """
    accum, epochs = {
        "pretrain": (cfg.pretrain_accum, cfg.pretrain_epochs),
        "finetune": (cfg.finetune_accum, cfg.finetune_epochs),
    }[stage]
    params = trainable_tensors(models)
    state = init_optim_state(params)
    window = cfg.batch_size * accum
    total_steps = epochs * steps_per_epoch(len(items), cfg.batch_size, accum)
    warmup = warmup_steps_for(total_steps, cfg)
    log = _LossLog(log_path)
    step = 0
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for epoch in range(epochs):
            order = _epoch_order(len(items), seed, stage, epoch)
            for lo in range(0, len(items), window):
                idx = order[lo:lo + window]
                step += 1
                lr = lr_schedule(step - 1, total_steps, warmup, stage, cfg)
                zero_grads(params)
                n_micro = int(np.ceil(len(idx) / cfg.batch_size))
                window_loss = 0.0
                window_parts = np.zeros(3)
                for k in range(0, len(idx), cfg.batch_size):
                    micro = [items[i] for i in idx[k:k + cfg.batch_size]]
                    loss, parts = micro_loss(micro, step, k, n_micro)
                    loss.backward()
                    window_loss += float(loss.data)
                    window_parts += parts
                _nan_abort(window_loss, stage, step)
                adamw_step(params, state, step, lr, cfg)
                log.add(step, stage, lr, window_loss, window_parts)
                if step % cfg.checkpoint_interval == 0:
                    _save_stage(ckpt_dir, f"step{step}", models, cfg, stage,
                                step)
            _save_stage(ckpt_dir, f"epoch{epoch + 1}", models, cfg, stage,
                        step)
    finally:
        log.close()
        if gc_was_enabled:
            gc.enable()
    return _save_stage(ckpt_dir, "final", models, cfg, stage, step)


# ---------------------------------------------------------------------------
# stage one


def _pretrain_micro_loss(batch, models, cfg, neg_seed):
    """Combined alignment loss for one micro-batch of (atoms, ids) pairs.

    Returns the loss tensor plus its three detached components.
    """
    vocab = models.vocab
    n = len(batch)
    query_feats, text_feats, pred_losses = [], [], []
    for atoms, ids in batch:
        out = bridge_forward(atoms, ids, "correlation", models.bridge)
        query_feats.append(out["query_out"])
        text_feats.append(out["text_out"][0:1])
        pred = bridge_forward(atoms, ids, "prediction", models.bridge)
        logits = text_logits(pred["text_out"], models.bridge)
        targets = np.array(ids[1:] + [vocab.eos_id], dtype=np.int64)
        pred_losses.append(lm_token_loss(logits, targets))
    loss_pred = sum(pred_losses[1:], pred_losses[0])
    sim_tensor = sim_matrix(query_feats, concat(text_feats, axis=0))
    loss_con = contrastive_loss(sim_tensor, tau=cfg.tau,
                                symmetric=cfg.symmetric_contrastive)

    sims = sim_tensor.data
    if n < 2:
        loss_assoc = Tensor(np.zeros(()))
    elif not np.all(np.isfinite(sims)):
        # poison the total instead of crashing mid-window so the
        # step-boundary check can report the step index
        loss_assoc = Tensor(np.full((), np.nan))
    else:
        text_negs, graph_negs = hard_negative_sample(sims, neg_seed)
        # (graph, text, label): positives, text negatives, graph negatives
        triples = ([(i, i, 1.0) for i in range(n)]
                   + [(i, text_negs[i], 0.0) for i in range(n)]
                   + [(graph_negs[i], i, 0.0) for i in range(n)])
        scores = []
        for g, t, _ in triples:
            out = bridge_forward(batch[g][0], batch[t][1], "association",
                                 models.bridge)
            scores.append(match_score(out["query_out"], models.bridge)
                          .reshape((1,)))
        loss_assoc = association_loss(concat(scores),
                                      np.array([y for _, _, y in triples]))

    total = loss_con + loss_pred + loss_assoc
    parts = (float(loss_con.data), float(loss_pred.data),
             float(loss_assoc.data))
    return total, parts


def pretrain(records, models, cfg, seed=None, log_path=None, ckpt_dir=None):
    """Stage-one training of the bridge against frozen atom features.

    records: property records with structures.  Returns the final
    checkpoint path when ckpt_dir is given, else the trained bundle.
    """
    if seed is None:
        seed = cfg.seed
    if not records:
        raise ValidationError("pretraining corpus is empty")
    vocab = models.vocab
    pairs = []
    for rec in records:
        atoms = encode_structure(rec.structure, models)
        ids = _bridge_text_ids(vocab, caption_for(rec, seed))
        if len(ids) > models.bridge.max_text:
            raise ValidationError(
                f"caption for {rec.material_id} exceeds max_text")
        pairs.append((atoms, ids))

    def micro_loss(micro, step, k, n_micro):
        neg_seed = int(stream_rng(seed, f"hardneg-{step}-{k}").integers(2**31))
        return _pretrain_micro_loss(micro, models, cfg, neg_seed)

    return _train_stage("pretrain", pairs, micro_loss, models, cfg, seed,
                        log_path, ckpt_dir)


# ---------------------------------------------------------------------------
# stage two


def finetune_sequences(sample, vocab):
    """Token-level views of one instruction sample.

    Returns (input_ids, targets, answer_mask): inputs are
    [bos] prompt [sep] answer, targets the same sequence shifted left
    with [eos] appended, and the mask selects the answer tokens plus the
    closing [eos] so the loss ignores the prompt.
    """
    prompt_ids = vocab.prompt_ids(sample.prompt)
    seq = prompt_ids + vocab.tokenize(sample.answer) + [vocab.eos_id]
    inputs = seq[:-1]
    targets = np.array(seq[1:], dtype=np.int64)
    mask = np.zeros(len(inputs), dtype=bool)
    mask[len(prompt_ids) - 1:] = True
    return inputs, targets, mask


def _finetune_sample_terms(entry, models):
    atoms, inputs, targets, mask = entry
    logits = lm_forward(lm_prefix(atoms, models.bridge), inputs, models.lm)
    return logits, targets, mask


def finetune(samples, records, ckpt, cfg, seed=None, log_path=None,
             ckpt_dir=None, allow_config_mismatch=False):
    """Stage-two training on instruction samples from a stage-one checkpoint.

    records supply the structures the samples reference by material id.
    ckpt may be a Checkpoint or a path and must come from the
    pretraining stage.
    """
    ckpt = as_checkpoint(ckpt)
    if ckpt.stage != "pretrain":
        raise ContractError(
            f"finetuning must start from a pretrain checkpoint, "
            f"got stage {ckpt.stage!r}")
    check_resume_config(ckpt, cfg, allow_config_mismatch)
    models = restore_models(ckpt, cfg)
    if seed is None:
        seed = cfg.seed
    if not samples:
        raise ValidationError("finetuning corpus is empty")
    by_id = {r.material_id: r for r in records}
    vocab = models.vocab
    entries = []
    atom_cache = {}
    for s in samples:
        key = s.material_id
        if key not in by_id:
            raise ValidationError(f"sample references unknown material {key}")
        if key not in atom_cache:
            atom_cache[key] = encode_structure(by_id[key].structure, models)
        inputs, targets, mask = finetune_sequences(s, vocab)
        if models.bridge.n_q + len(inputs) > models.lm.max_len:
            raise ValidationError(
                f"sample for {s.material_id} exceeds the LM context")
        entries.append((atom_cache[key], inputs, targets, mask))

    def micro_loss(micro, step, k, n_micro):
        terms = [_finetune_sample_terms(e, models) for e in micro]
        return finetune_loss(terms) * (1.0 / n_micro), (float("nan"),) * 3

    return _train_stage("finetune", entries, micro_loss, models, cfg, seed,
                        log_path, ckpt_dir)


def read_loss_log(path):
    """Load a CSV loss log as a list of dicts with numeric fields."""
    kinds = (int, str) + (float,) * (len(_LossLog.FIELDS) - 2)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return [{k: kind(row[k]) for k, kind in zip(_LossLog.FIELDS, kinds)}
                for row in csv.DictReader(fh)]
