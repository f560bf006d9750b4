"""Run configuration: model dimensions, optimizer settings, stage schedules.

A config is a flat JSON document, decoded field by field against the
annotations below (``ioutil.fields_from_json``).  Its canonical-JSON
SHA-256 prefix is the config hash stored in checkpoints, so resuming
detects silently changed settings.

``Config.validate`` holds every rule that a config's own values decide;
config loading and ``trainer.build_models`` run it.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass

from .errors import ValidationError
from .ioutil import canonical_json, fields_from_json, load_json, write_jsonl


@dataclass
class Config:
    # model dimensions
    seed: int = 42
    d_enc: int = 32
    L_enc: int = 2
    cutoff: float = 6.0
    d_b: int = 32
    n_q: int = 32
    L_b: int = 4
    n_heads: int = 4
    d_lm: int = 64
    L_lm: int = 2
    lm_heads: int = 4
    max_len: int = 320
    max_text: int = 256
    # objectives
    tau: float = 0.07
    symmetric_contrastive: bool = False
    lm_trainable: bool = False
    # optimizer
    warmup_start_lr: float = 1e-6
    pretrain_peak_lr: float = 2e-4
    pretrain_floor_lr: float = 0.0
    finetune_peak_lr: float = 1e-4
    finetune_floor_lr: float = 1e-5
    weight_decay: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # schedule
    batch_size: int = 8
    pretrain_accum: int = 5
    finetune_accum: int = 16
    pretrain_epochs: int = 2
    finetune_epochs: int = 2
    warmup_frac: float = 0.05
    checkpoint_interval: int = 300

    def validate(self):
        for name in ("seed", "pretrain_floor_lr", "weight_decay",
                     "pretrain_epochs", "finetune_epochs"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be >= 0")
        positive = (
            "d_enc", "L_enc", "cutoff", "d_b", "n_q", "L_b", "n_heads",
            "d_lm", "L_lm", "lm_heads", "max_len", "max_text", "tau",
            "warmup_start_lr", "pretrain_peak_lr", "finetune_peak_lr",
            "finetune_floor_lr", "eps", "batch_size", "pretrain_accum",
            "finetune_accum", "checkpoint_interval",
        )
        for name in positive:
            if not getattr(self, name) > 0:
                raise ValidationError(f"{name} must be > 0")
        for heads, width in (("n_heads", "d_b"), ("lm_heads", "d_lm")):
            if getattr(self, width) % getattr(self, heads):
                raise ValidationError(f"{heads} must divide {width}")
        if self.pretrain_floor_lr >= self.pretrain_peak_lr:
            raise ValidationError("pretrain floor must be below peak")
        if self.finetune_floor_lr >= self.finetune_peak_lr:
            raise ValidationError("finetune floor must be below peak")
        for name in ("beta1", "beta2", "warmup_frac"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ValidationError(f"{name} must be in [0, 1)")
        return self

    def to_dict(self):
        return dataclasses.asdict(self)


def config_from_dict(obj):
    return Config(**fields_from_json(Config, obj)).validate()


def load_config(path):
    return config_from_dict(load_json(path))


def save_config(path, cfg):
    write_jsonl(path, [cfg.to_dict()])


def config_hash(cfg):
    return hashlib.sha256(canonical_json(cfg.to_dict()).encode()).hexdigest()[:16]
