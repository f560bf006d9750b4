"""Optimizer, schedule, checkpoint, and training-loop behavior."""

import os

import numpy as np
import pytest

from matterbridge.config import (Config, config_from_dict, config_hash,
                                 load_config, save_config)
from matterbridge.datasetgen import (build_instruction_corpus,
                                     generate_synthetic_records)
from matterbridge.errors import (CheckpointError, ContractError,
                                 MatterBridgeError, ValidationError)
from matterbridge.objectives import finetune_loss
from matterbridge.tensor import Tensor
from matterbridge import trainer as tr


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
                loss, _ = tr._pretrain_micro_loss(half, models, self.cfg, 3)
                loss.backward()
        else:
            la, _ = tr._pretrain_micro_loss(pairs[:4], models, self.cfg, 3)
            lb, _ = tr._pretrain_micro_loss(pairs[4:], models, self.cfg, 3)
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
            terms = [tr._finetune_sample_terms(e, models) for e in chunk]
            (finetune_loss(terms) * 0.5).backward()
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
            a = ours[name].data if isinstance(ours[name], Tensor) else ours[name]
            b = (theirs[name].data if isinstance(theirs[name], Tensor)
                 else theirs[name])
            np.testing.assert_array_equal(a, b)

    def test_restore_from_path_equals_restore_from_checkpoint(self, tmp_path):
        path = tmp_path / "a.ckpt"
        tr.save_checkpoint(path, self.models, self.cfg, "finetune", 3)
        from_ckpt = tr.all_tensors(tr.restore_models(tr.load_checkpoint(path)))
        for arg in (path, str(path)):
            from_path = tr.all_tensors(tr.restore_models(arg))
            assert set(from_path) == set(from_ckpt)
            for name, t in from_path.items():
                a = t.data if isinstance(t, Tensor) else t
                b = (from_ckpt[name].data if isinstance(from_ckpt[name], Tensor)
                     else from_ckpt[name])
                assert a.tobytes() == b.tobytes(), name

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
        loss, _ = tr._pretrain_micro_loss(pairs, models, cfg, neg_seed=5)
        n = len(pairs)
        v = len(models.vocab.symbols)
        estimate = (n * np.log(n) + n_targets * np.log(v)
                    + 3 * n * np.log(2))
        assert abs(float(loss.data) - estimate) / estimate < 0.10

    def test_loss_decreases_and_frozen_parts_stay_frozen(self, tmp_path):
        cfg = small_config(pretrain_epochs=25,
                           pretrain_peak_lr=2e-3, warmup_start_lr=1e-5)
        records = generate_synthetic_records(seed=3, n=4)
        models = tr.build_models(cfg, seed=17)
        enc_before = {k: v.copy()
                      for k, v in models.encoder.state_dict().items()}
        lm_before = {k: t.data.copy() for k, t in models.lm.params.items()}
        log_path = tmp_path / "loss.csv"
        tr.pretrain(records, models, cfg, seed=17, log_path=log_path)
        rows = tr.read_loss_log(log_path)
        assert len(rows) == 25
        first = np.mean([r["loss"] for r in rows[:3]])
        last = np.mean([r["loss"] for r in rows[-3:]])
        assert last < first
        for k, v in models.encoder.state_dict().items():
            np.testing.assert_array_equal(v, enc_before[k])
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
        assert row["lr"] == 1e-5 if cfg.warmup_start_lr == 1e-5 else True

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
