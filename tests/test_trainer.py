"""Optimizer, schedule, checkpoint, and training-loop behavior."""

import gc
import hashlib
import os
import tracemalloc

import numpy as np
import pytest

from helpers import (collector_paused, joint_finetune_step,
                     joint_pretrain_loss, joint_pretrain_step)
from matterbridge.config import (Config, config_from_dict, config_hash,
                                 load_config, save_config)
from matterbridge.datasetgen import (build_instruction_corpus,
                                     generate_synthetic_records)
from matterbridge.errors import (CheckpointError, ContractError,
                                 MatterBridgeError, ValidationError)
from matterbridge import lm
from matterbridge.evaluate import generate_answer
from matterbridge.objectives import finetune_loss
from matterbridge.rag import model_fingerprint
from matterbridge.tensor import Tensor
from matterbridge import trainer as tr

PERF_DATA = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "data")
FROZEN_CKPT = os.path.join(PERF_DATA, "frozen.ckpt")
TRAIN_CONFIG = os.path.join(PERF_DATA, "train_config.json")


def small_config(**overrides):
    base = dict(
        d_enc=16, L_enc=1, d_b=16, n_q=8, L_b=2, n_heads=2,
        d_lm=32, L_lm=1, lm_heads=2, max_len=320,
        batch_size=4, pretrain_accum=1, finetune_accum=1,
        pretrain_epochs=1, finetune_epochs=1,
    )
    base.update(overrides)
    return Config(**base).validate()


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = Config(batch_size=3, tau=0.2)
        path = tmp_path / "cfg.json"
        save_config(path, cfg)
        again = load_config(path)
        assert again == cfg

    def test_failed_save_leaves_previous_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        save_config(path, Config(batch_size=3))
        before = path.read_bytes()
        with pytest.raises(ValueError):
            save_config(path, Config(tau=float("nan")))  # not JSON
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["cfg.json"]
        assert load_config(path) == Config(batch_size=3)

    def test_hash_stable_and_sensitive(self):
        a = Config()
        b = Config()
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(Config(tau=0.08))

    def test_rejects_bad_values(self):
        with pytest.raises(ValidationError):
            Config(pretrain_peak_lr=0.0).validate()
        with pytest.raises(ValidationError):
            Config(finetune_floor_lr=1e-4, finetune_peak_lr=1e-4).validate()
        with pytest.raises(ValidationError):
            Config(batch_size=0).validate()
        with pytest.raises(ValidationError):
            Config(warmup_frac=1.0).validate()
        with pytest.raises(ValidationError):
            config_from_dict({"no_such_key": 1})

    def test_invalid_dims_rejected(self):
        dims = ("d_enc", "L_enc", "d_b", "n_q", "L_b", "n_heads", "d_lm",
                "L_lm", "lm_heads", "max_len", "max_text")
        for name in dims + ("cutoff", "tau", "checkpoint_interval"):
            for bad in (0, -1):
                with pytest.raises(ValidationError, match=name):
                    Config(**{name: bad}).validate()

    def test_heads_must_divide_their_width(self):
        with pytest.raises(ValidationError, match="n_heads must divide d_b"):
            Config(n_heads=3, d_b=8).validate()
        with pytest.raises(ValidationError,
                           match="lm_heads must divide d_lm"):
            Config(lm_heads=5, d_lm=64).validate()
        Config(n_heads=8, d_b=8, lm_heads=1, d_lm=7).validate()

    def test_epoch_counts_may_be_zero_not_negative(self):
        Config(pretrain_epochs=0, finetune_epochs=0).validate()
        for name in ("pretrain_epochs", "finetune_epochs"):
            with pytest.raises(ValidationError, match="epoch"):
                Config(**{name: -1}).validate()

    def test_build_models_validates_a_python_config(self):
        for bad in (Config(lm_heads=0), Config(n_heads=3),
                    Config(d_enc=0), Config(cutoff=0.0)):
            with pytest.raises(ValidationError):
                tr.build_models(bad)

    def test_integer_floats_load_as_floats(self):
        cfg = config_from_dict({"tau": 1, "weight_decay": 0})
        assert type(cfg.tau) is float and type(cfg.weight_decay) is float
        assert config_hash(cfg) == config_hash(Config(tau=1.0,
                                                      weight_decay=0.0))

    def test_defaults(self):
        cfg = Config()
        assert cfg.pretrain_peak_lr == 2e-4
        assert cfg.finetune_peak_lr == 1e-4
        assert cfg.finetune_floor_lr == 1e-5
        assert cfg.warmup_start_lr == 1e-6
        assert cfg.weight_decay == 0.05
        assert (cfg.beta1, cfg.beta2, cfg.eps) == (0.9, 0.999, 1e-8)
        assert cfg.pretrain_accum == 5
        assert cfg.finetune_accum == 16
        assert cfg.warmup_frac == 0.05


class TestSchedule:
    def test_endpoints_exact(self):
        cfg = Config()
        total, warm = 1000, 50
        assert tr.lr_schedule(0, total, warm, "pretrain", cfg) == 1e-6
        assert tr.lr_schedule(warm, total, warm, "pretrain", cfg) == 2e-4
        assert tr.lr_schedule(total, total, warm, "pretrain", cfg) == 0.0
        assert tr.lr_schedule(0, total, warm, "finetune", cfg) == 1e-6
        assert tr.lr_schedule(warm, total, warm, "finetune", cfg) == 1e-4
        assert tr.lr_schedule(total, total, warm, "finetune", cfg) == 1e-5

    def test_warmup_is_linear(self):
        cfg = Config()
        lr = tr.lr_schedule(25, 1000, 50, "pretrain", cfg)
        assert lr == pytest.approx(1e-6 + (2e-4 - 1e-6) * 0.5, rel=1e-12)

    def test_continuous_at_junction(self):
        cfg = Config()
        before = tr.lr_schedule(49, 1000, 50, "pretrain", cfg)
        at = tr.lr_schedule(50, 1000, 50, "pretrain", cfg)
        after = tr.lr_schedule(51, 1000, 50, "pretrain", cfg)
        assert before < at
        assert after < at
        assert at - before < 5e-6
        assert at - after < 5e-7

    def test_cosine_midpoint(self):
        cfg = Config()
        mid = tr.lr_schedule(525, 1000, 50, "finetune", cfg)
        assert mid == pytest.approx(1e-5 + (1e-4 - 1e-5) * 0.5, rel=1e-12)

    def test_monotone_decay_after_warmup(self):
        cfg = Config()
        lrs = [tr.lr_schedule(s, 200, 10, "pretrain", cfg)
               for s in range(10, 201)]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_warmup_step_count(self):
        cfg = Config()
        assert tr.warmup_steps_for(1000, cfg) == 50
        assert tr.warmup_steps_for(30, cfg) == 2
        assert tr.steps_per_epoch(100, 8, 5) == 3
        assert tr.steps_per_epoch(40, 8, 5) == 1
        assert tr.steps_per_epoch(41, 8, 5) == 2

    def test_bad_inputs(self):
        cfg = Config()
        with pytest.raises(ContractError):
            tr.lr_schedule(0, 10, 1, "warmupstage", cfg)
        with pytest.raises(ValidationError):
            tr.lr_schedule(11, 10, 1, "pretrain", cfg)


class TestAdamW:
    def test_single_step_hand_value(self):
        # with eps = 0 the first update of theta=1, g=1, lr=0.1, wd=0.05
        # is exactly 1 - 0.1 - 0.1 * 0.05 = 0.895
        cfg = Config(eps=0.0)
        cfg.weight_decay = 0.05
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        p["w"].grad = np.array([1.0])
        state = tr.init_optim_state(p)
        tr.adamw_step(p, state, step=1, lr=0.1, cfg=cfg)
        assert abs(p["w"].data[0] - 0.895) < 1e-12

    def test_decoupled_decay_only(self):
        # zero gradient, nonzero decay: pure shrink by lr * wd
        cfg = Config()
        p = {"w": Tensor(np.array([2.0]), requires_grad=True)}
        p["w"].grad = np.array([0.0])
        state = tr.init_optim_state(p)
        tr.adamw_step(p, state, step=1, lr=0.1, cfg=cfg)
        assert p["w"].data[0] == pytest.approx(2.0 - 0.1 * 0.05 * 2.0,
                                               rel=1e-14)

    def test_no_decay_no_grad_is_identity(self):
        cfg = Config()
        cfg.weight_decay = 0.0
        p = {"w": Tensor(np.array([1.5, -2.5]), requires_grad=True)}
        state = tr.init_optim_state(p)
        tr.adamw_step(p, state, step=1, lr=0.1, cfg=cfg)
        np.testing.assert_array_equal(p["w"].data, [1.5, -2.5])

    def test_moments_track_two_steps(self):
        cfg = Config(eps=0.0)
        cfg.weight_decay = 0.0
        p = {"w": Tensor(np.array([0.0]), requires_grad=True)}
        state = tr.init_optim_state(p)
        p["w"].grad = np.array([1.0])
        tr.adamw_step(p, state, step=1, lr=0.1, cfg=cfg)
        # first step moves by exactly -lr regardless of betas
        assert p["w"].data[0] == pytest.approx(-0.1, abs=1e-15)
        p["w"].grad = np.array([1.0])
        tr.adamw_step(p, state, step=2, lr=0.1, cfg=cfg)
        m = 0.9 * 0.1 + 0.1 * 1.0
        v = 0.999 * 0.001 + 0.001 * 1.0
        expect = -0.1 - 0.1 * (m / (1 - 0.9**2)) / np.sqrt(v / (1 - 0.999**2))
        assert p["w"].data[0] == pytest.approx(expect, rel=1e-12)

    def test_step_index_is_one_based(self):
        cfg = Config()
        p = {"w": Tensor(np.array([1.0]), requires_grad=True)}
        with pytest.raises(ValidationError):
            tr.adamw_step(p, tr.init_optim_state(p), step=0, lr=0.1, cfg=cfg)


class TestAccumulation:
    def setup_method(self):
        self.cfg = small_config()
        self.records = generate_synthetic_records(seed=31, n=8)

    def _pretrain_grads(self, split):
        models = tr.build_models(self.cfg, seed=5)
        pairs = []
        for rec in self.records:
            atoms = tr.encode_structure(rec.structure, models)
            ids = tr._bridge_text_ids(models.vocab,
                                      tr.caption_for(rec, 5))
            pairs.append((atoms, ids))
        params = tr.trainable_tensors(models)
        tr.zero_grads(params)
        if split:
            for half in (pairs[:4], pairs[4:]):
                tr._pretrain_micro_step(half, models, self.cfg, 3)
        else:
            la, _ = joint_pretrain_loss(pairs[:4], models, self.cfg, 3)
            lb, _ = joint_pretrain_loss(pairs[4:], models, self.cfg, 3)
            (la + lb).backward()
        return {k: t.grad.copy() for k, t in params.items()
                if t.grad is not None}

    def test_pretrain_split_equals_joint_backward(self):
        a = self._pretrain_grads(split=True)
        b = self._pretrain_grads(split=False)
        assert set(a) == set(b)
        for k in a:
            np.testing.assert_allclose(a[k], b[k], rtol=0, atol=1e-10)

    def test_finetune_split_equals_concatenated_mean(self):
        cfg = self.cfg
        models = tr.build_models(cfg, seed=5)
        samples = build_instruction_corpus(self.records[:1], seed=2)[:8]
        by_id = {r.material_id: r for r in self.records}
        entries = []
        for s in samples:
            atoms = tr.encode_structure(by_id[s.material_id].structure,
                                        models)
            inputs, targets, mask = tr.finetune_sequences(s, models.vocab)
            entries.append((atoms, inputs, targets, mask))
        params = tr.trainable_tensors(models)

        tr.zero_grads(params)
        for chunk in (entries[:4], entries[4:]):
            tr._finetune_micro_step(chunk, models, 2)
        split = {k: t.grad.copy() for k, t in params.items()
                 if t.grad is not None}

        tr.zero_grads(params)
        terms = [tr._finetune_sample_terms(e, models) for e in entries]
        finetune_loss(terms).backward()
        joint = {k: t.grad.copy() for k, t in params.items()
                 if t.grad is not None}

        assert set(split) == set(joint)
        for k in split:
            np.testing.assert_allclose(split[k], joint[k], rtol=0, atol=1e-10)


class TestCheckpoint:
    def setup_method(self):
        self.cfg = small_config()
        self.models = tr.build_models(self.cfg, seed=9)

    def test_round_trip_byte_identical(self, tmp_path):
        p1 = tmp_path / "a.ckpt"
        p2 = tmp_path / "b.ckpt"
        tr.save_checkpoint(p1, self.models, self.cfg, "pretrain", 7)
        ck = tr.load_checkpoint(p1)
        restored = tr.restore_models(ck, self.cfg)
        tr.save_checkpoint(p2, restored, self.cfg, ck.stage, ck.step)
        assert p1.read_bytes() == p2.read_bytes()

    def test_manifest_contents(self, tmp_path):
        path = tmp_path / "a.ckpt"
        tr.save_checkpoint(path, self.models, self.cfg, "finetune", 12)
        ck = tr.load_checkpoint(path)
        assert ck.stage == "finetune"
        assert ck.step == 12
        assert ck.manifest["config_hash"] == config_hash(self.cfg)
        assert ck.manifest["vocab"] == list(self.models.vocab.symbols)
        names = {r["name"] for r in ck.manifest["tensors"]}
        assert any(n.startswith("encoder.") for n in names)
        assert any(n.startswith("bridge.") for n in names)
        assert any(n.startswith("lm.") for n in names)

    def test_restored_arrays_match(self, tmp_path):
        path = tmp_path / "a.ckpt"
        tr.save_checkpoint(path, self.models, self.cfg, "pretrain", 0)
        restored = tr.restore_models(tr.load_checkpoint(path), self.cfg)
        ours = tr.all_tensors(self.models)
        theirs = tr.all_tensors(restored)
        assert set(ours) == set(theirs)
        for name in ours:
            np.testing.assert_array_equal(ours[name], theirs[name])

    def test_restore_from_path_equals_restore_from_checkpoint(self, tmp_path):
        path = tmp_path / "a.ckpt"
        tr.save_checkpoint(path, self.models, self.cfg, "finetune", 3)
        from_ckpt = tr.all_tensors(tr.restore_models(tr.load_checkpoint(path)))
        for arg in (path, str(path)):
            from_path = tr.all_tensors(tr.restore_models(arg))
            assert set(from_path) == set(from_ckpt)
            for name, arr in from_path.items():
                assert arr.tobytes() == from_ckpt[name].tobytes(), name

    @pytest.mark.parametrize("bad", [None, 3, {"stage": "finetune"}, b"a.ckpt"])
    def test_restore_rejects_non_checkpoint(self, bad):
        with pytest.raises(MatterBridgeError):
            tr.restore_models(bad)

    def test_truncated_blob_names_tensor(self, tmp_path):
        path = tmp_path / "a.ckpt"
        tr.save_checkpoint(path, self.models, self.cfg, "pretrain", 0)
        raw = path.read_bytes()
        clipped = tmp_path / "clip.ckpt"
        clipped.write_bytes(raw[:-16])
        with pytest.raises(CheckpointError) as err:
            tr.load_checkpoint(clipped)
        ck = tr.load_checkpoint(path)
        last = max(ck.manifest["tensors"], key=lambda r: r["offset"])
        assert last["name"] in str(err.value)

    def test_bad_header_and_format(self, tmp_path):
        short = tmp_path / "short.ckpt"
        short.write_bytes(b"\x01\x02")
        with pytest.raises(CheckpointError):
            tr.load_checkpoint(short)
        junk = tmp_path / "junk.ckpt"
        junk.write_bytes(np.array(4, dtype="<u8").tobytes() + b"nope")
        with pytest.raises(CheckpointError):
            tr.load_checkpoint(junk)

    def test_unknown_stage_rejected(self, tmp_path):
        with pytest.raises(ContractError):
            tr.save_checkpoint(tmp_path / "x.ckpt", self.models, self.cfg,
                               "deploy", 0)

    def test_config_mismatch_needs_override(self, tmp_path):
        path = tmp_path / "a.ckpt"
        tr.save_checkpoint(path, self.models, self.cfg, "pretrain", 0)
        ck = tr.load_checkpoint(path)
        other = small_config(tau=0.2)
        with pytest.raises(ContractError):
            tr.check_resume_config(ck, other)
        with pytest.warns(UserWarning):
            tr.check_resume_config(ck, other, allow_config_mismatch=True)
        tr.check_resume_config(ck, self.cfg)  # matching hash is silent


class TestPretrainLoop:
    def test_initial_loss_matches_closed_form(self):
        cfg = Config().validate()
        records = generate_synthetic_records(seed=7, n=8)
        models = tr.build_models(cfg, seed=11)
        pairs = []
        n_targets = 0
        for rec in records:
            atoms = tr.encode_structure(rec.structure, models)
            ids = tr._bridge_text_ids(models.vocab, tr.caption_for(rec, 11))
            n_targets += len(ids)
            pairs.append((atoms, ids))
        loss, _ = tr._pretrain_micro_step(pairs, models, cfg, neg_seed=5)
        n = len(pairs)
        v = len(models.vocab.symbols)
        estimate = (n * np.log(n) + n_targets * np.log(v)
                    + 3 * n * np.log(2))
        assert abs(loss - estimate) / estimate < 0.10

    def test_loss_decreases_and_frozen_parts_stay_frozen(self, tmp_path):
        cfg = small_config(pretrain_epochs=25,
                           pretrain_peak_lr=2e-3, warmup_start_lr=1e-5)
        records = generate_synthetic_records(seed=3, n=4)
        models = tr.build_models(cfg, seed=17)
        enc_before = {k: t.data.copy()
                      for k, t in models.encoder.params.items()}
        lm_before = {k: t.data.copy() for k, t in models.lm.params.items()}
        log_path = tmp_path / "loss.csv"
        tr.pretrain(records, models, cfg, seed=17, log_path=log_path)
        rows = tr.read_loss_log(log_path)
        assert len(rows) == 25
        first = np.mean([r["loss"] for r in rows[:3]])
        last = np.mean([r["loss"] for r in rows[-3:]])
        assert last < first
        for k, t in models.encoder.params.items():
            np.testing.assert_array_equal(t.data, enc_before[k])
        for k, t in models.lm.params.items():
            np.testing.assert_array_equal(t.data, lm_before[k])

    def test_two_runs_identical(self, tmp_path):
        cfg = small_config(pretrain_epochs=3)
        records = generate_synthetic_records(seed=3, n=4)
        paths = []
        for tag in ("a", "b"):
            models = tr.build_models(cfg, seed=17)
            log = tmp_path / f"{tag}.csv"
            tr.pretrain(records, models, cfg, seed=17, log_path=log)
            paths.append(log)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_nan_aborts_with_step_index(self):
        cfg = small_config()
        records = generate_synthetic_records(seed=3, n=4)
        models = tr.build_models(cfg, seed=17)
        models.bridge.params["queries"].data[0, 0] = np.nan
        with pytest.raises(ContractError, match="step 1"):
            tr.pretrain(records, models, cfg, seed=17)
        assert gc.isenabled()

    def test_log_columns(self, tmp_path):
        cfg = small_config()
        records = generate_synthetic_records(seed=3, n=4)
        models = tr.build_models(cfg, seed=17)
        log = tmp_path / "loss.csv"
        tr.pretrain(records, models, cfg, seed=17, log_path=log)
        header = log.read_text().splitlines()[0]
        assert header.split(",") == [
            "step", "stage", "lr", "loss", "contrastive", "prediction",
            "association"]
        row = tr.read_loss_log(log)[0]
        assert row["loss"] == pytest.approx(
            row["contrastive"] + row["prediction"] + row["association"],
            rel=1e-9)
        assert row["lr"] == cfg.warmup_start_lr

    def test_checkpoint_files_written(self, tmp_path):
        cfg = small_config(pretrain_epochs=2, checkpoint_interval=1)
        records = generate_synthetic_records(seed=3, n=4)
        models = tr.build_models(cfg, seed=17)
        final = tr.pretrain(records, models, cfg, seed=17,
                            ckpt_dir=tmp_path)
        names = sorted(os.listdir(tmp_path))
        assert "pretrain-final.ckpt" in names
        assert "pretrain-epoch1.ckpt" in names
        assert "pretrain-step1.ckpt" in names
        ck = tr.load_checkpoint(final)
        assert ck.stage == "pretrain"
        assert ck.step == 2

    def test_empty_corpus_rejected(self):
        cfg = small_config()
        models = tr.build_models(cfg, seed=17)
        with pytest.raises(ValidationError):
            tr.pretrain([], models, cfg, seed=17)


class TestFinetuneLoop:
    def setup_method(self):
        self.cfg = small_config()
        self.records = generate_synthetic_records(seed=3, n=4)
        self.samples = build_instruction_corpus(self.records, seed=2)[:8]

    def _pretrain_ckpt(self, tmp_path):
        models = tr.build_models(self.cfg, seed=17)
        return tr.pretrain(self.records, models, self.cfg, seed=17,
                           ckpt_dir=tmp_path)

    def test_requires_pretrain_stage(self, tmp_path):
        models = tr.build_models(self.cfg, seed=17)
        wrong = tmp_path / "wrong.ckpt"
        tr.save_checkpoint(wrong, models, self.cfg, "finetune", 0)
        with pytest.raises(ContractError, match="stage"):
            tr.finetune(self.samples, self.records, wrong, self.cfg, seed=17)

    def test_runs_and_resumes_identically(self, tmp_path):
        ckpt = self._pretrain_ckpt(tmp_path)
        logs = []
        for tag in ("a", "b"):
            log = tmp_path / f"ft-{tag}.csv"
            tr.finetune(self.samples, self.records, ckpt, self.cfg,
                        seed=17, log_path=log)
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]

    def test_unknown_material_rejected(self, tmp_path):
        ckpt = self._pretrain_ckpt(tmp_path)
        with pytest.raises(ValidationError, match="unknown material"):
            tr.finetune(self.samples, self.records[1:], ckpt, self.cfg,
                        seed=17)

    def test_sequences_and_mask(self):
        models = tr.build_models(self.cfg, seed=17)
        vocab = models.vocab
        sample = self.samples[0]
        inputs, targets, mask = tr.finetune_sequences(sample, vocab)
        n_p = len(vocab.tokenize(sample.prompt))
        n_a = len(vocab.tokenize(sample.answer))
        assert len(inputs) == len(targets) == len(mask) == n_p + n_a + 2
        assert inputs[0] == vocab.bos_id
        assert inputs[n_p + 1] == vocab.sep_id
        assert targets[-1] == vocab.eos_id
        assert mask.sum() == n_a + 1
        assert not mask[:n_p + 1].any()
        # masked targets spell the answer plus the end marker
        answer_ids = [int(t) for t in targets[mask]][:-1]
        assert vocab.detokenize(answer_ids) == sample.answer

    def test_finetune_loss_decreases(self, tmp_path):
        # overfit setting: the char model is random, so prefix-only
        # steering has nothing to exploit; train it too
        cfg = small_config(finetune_epochs=60, finetune_peak_lr=1e-2,
                           warmup_start_lr=1e-5, lm_trainable=True)
        models = tr.build_models(cfg, seed=17)
        ckpt_path = tmp_path / "pre.ckpt"
        tr.save_checkpoint(ckpt_path, models, cfg, "pretrain", 0)
        log = tmp_path / "ft.csv"
        tr.finetune(self.samples[:4], self.records, ckpt_path, cfg, seed=17,
                    log_path=log)
        rows = tr.read_loss_log(log)
        assert rows[-1]["loss"] < 0.1 * rows[0]["loss"]


class TestCollectorPause:
    """Training pauses the cyclic garbage collector and restores it."""

    def setup_method(self):
        self.cfg = small_config()
        self.records = generate_synthetic_records(seed=3, n=4)
        self.samples = build_instruction_corpus(self.records, seed=2)[:8]

    def _both_stages(self, tmp_path, entry_state):
        models = tr.build_models(self.cfg, seed=17)
        ckpt = tr.pretrain(self.records, models, self.cfg, seed=17,
                           ckpt_dir=tmp_path)
        assert gc.isenabled() == entry_state
        tr.finetune(self.samples, self.records, ckpt, self.cfg, seed=17)
        assert gc.isenabled() == entry_state

    def test_off_inside_a_micro_batch_and_on_after(self, tmp_path,
                                                   monkeypatch):
        seen = []
        micro_step = tr._pretrain_micro_step

        def spy(*args, **kwargs):
            seen.append(gc.isenabled())
            return micro_step(*args, **kwargs)

        monkeypatch.setattr(tr, "_pretrain_micro_step", spy)
        assert gc.isenabled()
        self._both_stages(tmp_path, entry_state=True)
        assert seen and not any(seen)

    def test_stays_off_when_off_and_leaves_no_cyclic_garbage(self, tmp_path):
        with collector_paused():
            self._both_stages(tmp_path, entry_state=False)
            assert gc.collect() == 0


class TestWindowArithmetic:
    """Both stages through the shared loop with batch 2 and accumulation
    2 over 9 items: windows of 4, 4 and 1, so 3 steps per epoch."""

    def setup_method(self):
        self.cfg = small_config(batch_size=2, pretrain_accum=2,
                                finetune_accum=2, pretrain_epochs=2,
                                finetune_epochs=2, checkpoint_interval=2)
        self.records = generate_synthetic_records(seed=3, n=9)
        self.samples = build_instruction_corpus(self.records[:2], seed=2)[:9]
        self.models = tr.build_models(self.cfg, seed=17)

    def check_steps(self, log):
        rows = tr.read_loss_log(log)
        per_epoch = tr.steps_per_epoch(9, 2, 2)
        assert per_epoch == 3
        assert [r["step"] for r in rows] == list(range(1, 2 * per_epoch + 1))
        return rows

    def test_pretrain_steps_and_first_window_loss(self, tmp_path):
        models = self.models
        pairs = [(tr.encode_structure(r.structure, models),
                  tr._bridge_text_ids(models.vocab, tr.caption_for(r, 17)))
                 for r in self.records]
        order = tr._epoch_order(len(pairs), 17, "pretrain", 0)
        want = 0.0
        for k in (0, 2):
            neg_seed = int(tr.stream_rng(17, f"hardneg-1-{k}")
                           .integers(2**31))
            loss, _ = tr._pretrain_micro_step(
                [pairs[i] for i in order[k:k + 2]], models, self.cfg,
                neg_seed)
            want += loss
        log = tmp_path / "pre.csv"
        tr.pretrain(self.records, models, self.cfg, seed=17, log_path=log)
        assert self.check_steps(log)[0]["loss"] == want

    def test_finetune_checkpoints_steps_and_first_window_loss(self,
                                                              tmp_path):
        models = self.models
        pre = tmp_path / "pre.ckpt"
        tr.save_checkpoint(pre, models, self.cfg, "pretrain", 0)
        by_id = {r.material_id: r for r in self.records}
        entries = [(tr.encode_structure(by_id[s.material_id].structure,
                                        models),
                    *tr.finetune_sequences(s, models.vocab))
                   for s in self.samples]
        order = tr._epoch_order(len(entries), 17, "finetune", 0)
        want = 0.0
        for k in (0, 2):
            terms = [tr._finetune_sample_terms(entries[i], models)
                     for i in order[k:k + 2]]
            want += float((finetune_loss(terms) * 0.5).data)
        out = tmp_path / "ft"
        out.mkdir()
        log = tmp_path / "ft.csv"
        final = tr.finetune(self.samples, self.records, pre, self.cfg,
                            seed=17, log_path=log, ckpt_dir=str(out))
        assert self.check_steps(log)[0]["loss"] == want
        written = {"step2": 2, "step4": 4, "step6": 6, "epoch1": 3,
                   "epoch2": 6, "final": 6}
        assert sorted(os.listdir(out)) == sorted(
            f"finetune-{tag}.ckpt" for tag in written)
        assert final == str(out / "finetune-final.ckpt")
        for tag, step in written.items():
            ck = tr.load_checkpoint(out / f"finetune-{tag}.ckpt")
            assert (ck.stage, ck.step) == ("finetune", step)


def pretrain_pairs(models, records, seed):
    return [(tr.encode_structure(r.structure, models),
             tr._bridge_text_ids(models.vocab, tr.caption_for(r, seed)))
            for r in records]


def finetune_entries(models, records, samples):
    by_id = {r.material_id: r for r in records}
    return [(tr.encode_structure(by_id[s.material_id].structure, models),
             *tr.finetune_sequences(s, models.vocab)) for s in samples]


def run_from_zero_grads(step, models):
    """``step()``'s (loss, parts) and the gradients it left, from zero."""
    params = tr.trainable_tensors(models)
    tr.zero_grads(params)
    result = step()
    return result, {k: t.grad for k, t in params.items() if t.grad is not None}


class TestStreamingMicroStep:
    """A micro-batch step takes each term's gradient as soon as the term
    is built.  Its gradients, loss and parts are bitwise those of one
    backward through the joint micro-batch loss (the helpers' oracle)."""

    @staticmethod
    def check_bitwise(streamed, joint):
        (loss_s, parts_s), grads_s = streamed
        (loss_j, parts_j), grads_j = joint
        assert (np.array([loss_s, *parts_s]).tobytes()
                == np.array([loss_j, *parts_j]).tobytes())
        assert grads_s and grads_s.keys() == grads_j.keys()
        for k in grads_s:
            assert grads_s[k].tobytes() == grads_j[k].tobytes(), k

    @pytest.mark.parametrize("n, symmetric, poison", [
        (4, False, False), (1, False, False), (4, True, False),
        (4, False, True)], ids=["batch", "one-item", "symmetric",
                                "non-finite-sims"])
    def test_pretrain(self, n, symmetric, poison):
        cfg = small_config(symmetric_contrastive=symmetric)
        models = tr.build_models(cfg, seed=5)
        pairs = pretrain_pairs(
            models, generate_synthetic_records(seed=31, n=n), 5)
        if poison:
            pairs[1] = (np.full_like(pairs[1][0], np.nan), pairs[1][1])
        streamed = run_from_zero_grads(
            lambda: tr._pretrain_micro_step(pairs, models, cfg, 3), models)
        joint = run_from_zero_grads(
            lambda: joint_pretrain_step(pairs, models, cfg, 3), models)
        assert np.isnan(streamed[0][0]) == poison
        self.check_bitwise(streamed, joint)

    @pytest.mark.parametrize("size, n_micro", [(4, 2), (3, 1)])
    def test_finetune(self, size, n_micro):
        cfg = small_config(lm_trainable=True)
        models = tr.build_models(cfg, seed=5)
        records = generate_synthetic_records(seed=31, n=4)
        samples = build_instruction_corpus(records, seed=2)[::6][:size]
        micro = finetune_entries(models, records, samples)
        self.check_bitwise(
            run_from_zero_grads(
                lambda: tr._finetune_micro_step(micro, models, n_micro),
                models),
            run_from_zero_grads(
                lambda: joint_finetune_step(micro, models, n_micro), models))

    def test_accumulation_window_runs_match_the_oracle(self, tmp_path,
                                                       monkeypatch):
        # batch 2, accumulation 2 over 7 items: micro-batches of 2, 2 | 2, 1
        cfg = small_config(batch_size=2, pretrain_accum=2, finetune_accum=2,
                           pretrain_epochs=2, checkpoint_interval=2,
                           lm_trainable=True)
        records = generate_synthetic_records(seed=3, n=7)
        samples = build_instruction_corpus(records[:2], seed=2)[:7]

        def both_stages(out):
            out.mkdir()
            models = tr.build_models(cfg, seed=17)
            pre = tr.pretrain(records, models, cfg, seed=17,
                              log_path=out / "pre.csv", ckpt_dir=out)
            tr.finetune(samples, records, pre, cfg, seed=17,
                        log_path=out / "ft.csv", ckpt_dir=out)
            return {p.name: p.read_bytes() for p in out.iterdir()}

        streamed = both_stages(tmp_path / "streamed")
        monkeypatch.setattr(tr, "_pretrain_micro_step", joint_pretrain_step)
        monkeypatch.setattr(tr, "_finetune_micro_step", joint_finetune_step)
        joint = both_stages(tmp_path / "joint")
        assert len(streamed) == 10 and streamed == joint

    def test_non_finite_sims_abort_at_the_same_step(self, monkeypatch):
        cfg = small_config(batch_size=2)
        records = generate_synthetic_records(seed=3, n=8)
        # the poisoned material falls in the third window
        order = tr._epoch_order(len(records), 17, "pretrain", 0)
        bad = records[order[5]].structure.material_id
        encode = tr.encode_structure

        def poisoned(structure, models):
            atoms = encode(structure, models)
            return atoms * np.nan if structure.material_id == bad else atoms

        monkeypatch.setattr(tr, "encode_structure", poisoned)
        messages = []
        for step in (tr._pretrain_micro_step, joint_pretrain_step):
            monkeypatch.setattr(tr, "_pretrain_micro_step", step)
            with pytest.raises(ContractError) as caught:
                tr.pretrain(records, tr.build_models(cfg, seed=17), cfg,
                            seed=17)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert messages[0] == "non-finite loss at pretrain step 3: nan"


def traced_peak(step):
    """Peak bytes numpy and Python allocate while ``step()`` runs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        step()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMicroStepMemory:
    """At the benchmark's train sizes a streamed micro-batch holds a
    fraction of the joint tape's memory: one sample's tape in
    finetuning, the correlation block in pretraining."""

    cfg = load_config(TRAIN_CONFIG)
    records = generate_synthetic_records(seed=5, n=cfg.batch_size)

    def peaks(self, streamed, joint, models):
        streamed()  # untraced: the first GELU's scipy import is not a tape
        params = tr.trainable_tensors(models)
        tr.zero_grads(params)
        low = traced_peak(streamed)
        tr.zero_grads(params)
        return low, traced_peak(joint)

    def test_finetune_holds_a_quarter(self):
        models = tr.build_models(self.cfg, seed=5)
        samples = build_instruction_corpus(self.records, seed=5)[::11][:8]
        micro = finetune_entries(models, self.records, samples)
        assert len(micro) == self.cfg.batch_size
        low, high = self.peaks(
            lambda: tr._finetune_micro_step(micro, models, 1),
            lambda: joint_finetune_step(micro, models, 1), models)
        assert low <= high / 4

    def test_pretrain_holds_a_half(self):
        models = tr.build_models(self.cfg, seed=5)
        pairs = pretrain_pairs(models, self.records, 5)
        low, high = self.peaks(
            lambda: tr._pretrain_micro_step(pairs, models, self.cfg, 3),
            lambda: joint_pretrain_step(pairs, models, self.cfg, 3), models)
        assert low <= high / 2


class TestStreams:
    def test_stream_rng_deterministic_and_namespaced(self):
        a = tr.stream_rng(5, "x").integers(2**31)
        b = tr.stream_rng(5, "x").integers(2**31)
        c = tr.stream_rng(5, "y").integers(2**31)
        d = tr.stream_rng(6, "x").integers(2**31)
        assert a == b
        assert a != c
        assert a != d

    def test_caption_is_a_formula_sentence(self):
        records = generate_synthetic_records(seed=3, n=4)
        cap1 = tr.caption_for(records[0], 11)
        cap2 = tr.caption_for(records[0], 11)
        assert cap1 == cap2
        assert records[0].reduced_formula in cap1

    def test_build_models_seed_isolation(self):
        cfg = small_config()
        a = tr.build_models(cfg, seed=1)
        b = tr.build_models(cfg, seed=1)
        c = tr.build_models(cfg, seed=2)
        np.testing.assert_array_equal(a.bridge.params["queries"].data,
                                      b.bridge.params["queries"].data)
        assert not np.array_equal(a.bridge.params["queries"].data,
                                  c.bridge.params["queries"].data)




def tensors_digest(tensors):
    """sha256 over sorted names, shapes and little-endian float64 bytes."""
    digest = hashlib.sha256()
    for name in sorted(tensors):
        digest.update(f"{name} {tensors[name].shape}\n".encode())
        digest.update(np.ascontiguousarray(tensors[name], "<f8").tobytes())
    return digest.hexdigest()


class TestModelTables:
    @pytest.mark.parametrize("lm_trainable", [False, True])
    def test_trainable_tensors_are_the_requires_grad_set(self, lm_trainable):
        models = tr.build_models(small_config(lm_trainable=lm_trainable))
        params = tr.trainable_tensors(models)
        tables = {"encoder": models.encoder, "bridge": models.bridge,
                  "lm": models.lm}
        want = {f"{part}.{k}": t for part, m in tables.items()
                for k, t in m.params.items() if t.requires_grad}
        assert params.keys() == want.keys()
        assert all(params[k] is want[k] for k in want)
        assert not any(k.startswith("encoder.") for k in params)
        assert any(k.startswith("bridge.") for k in params)
        assert any(k.startswith("lm.") for k in params) == lm_trainable

    def test_init_draws_match_the_recorded_digest(self):
        # a changed draw order or init rule moves this digest
        models = tr.build_models(Config())
        assert tensors_digest(tr.all_tensors(models)) == (
            "9c9d44c2e898b44cada70ba35b343024e934bbea64a451dcb5d6685f893f4d8a")

    def test_fingerprint_reads_an_int_cutoff_as_a_float(self):
        assert (model_fingerprint(tr.build_models(Config(cutoff=6)))
                == model_fingerprint(tr.build_models(Config(cutoff=6.0))))

    def test_frozen_checkpoint_fingerprint_is_recorded(self):
        models = tr.restore_models(FROZEN_CKPT)
        assert model_fingerprint(models) == (
            "131df3ecd9858cf4fc326e908e240391e8f828d4267e8112b6b97711ce8d8532")

    def test_training_and_decoding_share_the_prompt_layout(self, monkeypatch):
        models = tr.build_models(small_config())
        vocab = models.vocab
        sample = build_instruction_corpus(
            generate_synthetic_records(seed=3, n=1), seed=2)[0]
        ids = vocab.prompt_ids(sample.prompt)
        assert ids == ([vocab.bos_id] + vocab.tokenize(sample.prompt)
                       + [vocab.sep_id])
        inputs, _, mask = tr.finetune_sequences(sample, vocab)
        assert inputs[:len(ids)] == ids
        assert not mask[:len(ids) - 1].any() and mask[len(ids) - 1:].all()

        fed = []
        forward = lm.lm_forward

        def spy(prefix, token_ids, lp, cache=None):
            fed.append(np.asarray(token_ids))
            return forward(prefix, token_ids, lp, cache)

        monkeypatch.setattr(lm, "lm_forward", spy)
        prefixes = np.zeros((2, models.bridge.cfg.n_q, models.lm.cfg.d_lm))
        generate_answer(models, prefixes, sample.prompt, max_new=2)
        assert fed[0].tolist() == [ids, ids]
