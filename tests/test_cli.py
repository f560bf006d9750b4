"""Command-line surface: flags, exit codes, seed fallback, pipelines."""

import contextlib
import io
import json
import os
import shutil
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matterbridge import evaluate, trainer
from matterbridge.cli import _structure_from_file, run_cli
from matterbridge.config import Config, load_config, save_config
from matterbridge.crystal import build_graph, structure_to_json
from matterbridge.datasetgen import (generate_synthetic_records,
                                     load_instruction_samples,
                                     load_property_records,
                                     write_instruction_samples,
                                     write_property_records)
from matterbridge.errors import MatterBridgeError
from matterbridge.evaluate import parse_answer_value, read_eval_report
from matterbridge.fixtures import build_fixture_corpus
from matterbridge.rag import EmbeddingStore, embed_material, model_fingerprint
from matterbridge.templates import TASKS, get_templates
from matterbridge.trainer import (build_models, load_checkpoint,
                                  restore_models, save_checkpoint)

FROZEN_CKPT = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench", "data", "frozen.ckpt")


@pytest.fixture()
def small_config_path(tmp_path):
    cfg = Config(d_enc=16, L_enc=1, d_b=16, n_q=8, L_b=2, n_heads=2,
                 d_lm=32, L_lm=1, lm_heads=2, batch_size=4,
                 pretrain_accum=1, finetune_accum=1,
                 pretrain_epochs=1, finetune_epochs=1)
    path = str(tmp_path / "config.json")
    save_config(path, cfg)
    return path


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def infer_rag(ckpt, records_path, record, task, tmp, capsys):
    """Labeled output lines of `infer --rag` for one stored material."""
    store = str(tmp / "rag-store")
    assert run_cli(["embed", "--ckpt", str(ckpt),
                    "--records", str(records_path), "--out", store]) == 0
    struct_path = str(tmp / "rag-query.json")
    with open(struct_path, "w", encoding="utf-8") as fh:
        fh.write(structure_to_json(record.structure))
    capsys.readouterr()
    assert run_cli(["infer", "--ckpt", str(ckpt), "--structure", struct_path,
                    "--task", task, "--max-new", "16", "--rag",
                    "--store", store, "--records", str(records_path),
                    "--id", record.material_id]) == 0
    out = capsys.readouterr().out
    return dict(line.split(": ", 1) for line in out.strip().splitlines())


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run_cli([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert run_cli(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert run_cli(["gen-data", "--out", "x", "--bogus"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert run_cli(["pretrain", "--out", "x"]) == 2
        capsys.readouterr()

    def test_missing_file_reports_error(self, tmp_path, capsys):
        rc = run_cli(["pretrain", "--records", str(tmp_path / "nope.jsonl"),
                      "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error" in capsys.readouterr().err


class TestSeedFallback:
    def test_env_seed_matches_flag_seed(self, tmp_path, monkeypatch, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        monkeypatch.delenv("MATTERBRIDGE_SEED", raising=False)
        assert run_cli(["gen-data", "--out", str(a), "--n", "10",
                        "--seed", "123"]) == 0
        monkeypatch.setenv("MATTERBRIDGE_SEED", "123")
        assert run_cli(["gen-data", "--out", str(b), "--n", "10"]) == 0
        capsys.readouterr()
        assert read_bytes(a / "records.jsonl") == read_bytes(b / "records.jsonl")

    def test_flag_beats_env(self, tmp_path, monkeypatch, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        monkeypatch.setenv("MATTERBRIDGE_SEED", "999")
        assert run_cli(["gen-data", "--out", str(a), "--n", "10",
                        "--seed", "123"]) == 0
        monkeypatch.setenv("MATTERBRIDGE_SEED", "123")
        assert run_cli(["gen-data", "--out", str(b), "--n", "10"]) == 0
        capsys.readouterr()
        assert read_bytes(a / "records.jsonl") == read_bytes(b / "records.jsonl")

    def test_bad_env_seed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MATTERBRIDGE_SEED", "not-a-number")
        rc = run_cli(["gen-data", "--out", str(tmp_path / "x"), "--n", "10"])
        assert rc == 1
        assert "MATTERBRIDGE_SEED" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "env", "config"])
    def test_negative_seed(self, tmp_path, monkeypatch, capsys, source):
        monkeypatch.delenv("MATTERBRIDGE_SEED", raising=False)
        argv = ["gen-data", "--out", str(tmp_path / "x"), "--n", "10"]
        if source == "flag":
            argv += ["--seed", "-1"]
        elif source == "env":
            monkeypatch.setenv("MATTERBRIDGE_SEED", "-3")
        else:
            save_config(str(tmp_path / "config.json"), Config(seed=-1))
            argv += ["--config", str(tmp_path / "config.json")]
        assert run_cli(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "seed must be >= 0" in err


class TestGenData:
    def test_writes_corpus_and_split(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert run_cli(["gen-data", "--out", str(out), "--n", "12",
                        "--seed", "7"]) == 0
        capsys.readouterr()
        for name in ("records.jsonl", "records_train.jsonl",
                     "records_test.jsonl", "samples_train.jsonl",
                     "samples_test.jsonl"):
            assert (out / name).exists()
        records = load_property_records(str(out / "records.jsonl"))
        train = load_property_records(str(out / "records_train.jsonl"))
        test = load_property_records(str(out / "records_test.jsonl"))
        assert len(records) == 12
        assert len(train) == 10
        assert len(test) == 2

    def test_small_corpus_skips_split(self, tmp_path, capsys):
        out = tmp_path / "tiny"
        assert run_cli(["gen-data", "--out", str(out), "--n", "6",
                        "--seed", "7"]) == 0
        note = capsys.readouterr().out
        assert "split skipped" in note
        assert not (out / "records_train.jsonl").exists()
        assert (out / "samples_train.jsonl").exists()

    def test_two_runs_are_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run_cli(["gen-data", "--out", str(out), "--n", "12",
                            "--seed", "5"]) == 0
        capsys.readouterr()
        for name in ("records.jsonl", "samples_train.jsonl"):
            assert read_bytes(a / name) == read_bytes(b / name)


class TestPipeline:
    @pytest.fixture()
    def workspace(self, tmp_path, small_config_path, capsys):
        data = tmp_path / "data"
        assert run_cli(["gen-data", "--out", str(data), "--n", "10",
                        "--seed", "7", "--config", small_config_path]) == 0
        pre = tmp_path / "pre"
        assert run_cli(["pretrain", "--records",
                        str(data / "records_train.jsonl"),
                        "--out", str(pre), "--seed", "7",
                        "--config", small_config_path]) == 0
        ft = tmp_path / "ft"
        assert run_cli(["finetune", "--records",
                        str(data / "records_train.jsonl"),
                        "--samples", str(data / "samples_train.jsonl"),
                        "--ckpt", str(pre / "pretrain-final.ckpt"),
                        "--out", str(ft), "--seed", "7",
                        "--config", small_config_path]) == 0
        capsys.readouterr()
        return {"data": data, "ckpt": ft / "finetune-final.ckpt",
                "tmp": tmp_path, "config": small_config_path}

    def test_train_infer_eval_store_flow(self, workspace, capsys):
        data = workspace["data"]
        ckpt = str(workspace["ckpt"])
        tmp = workspace["tmp"]
        records = load_property_records(str(data / "records_train.jsonl"))
        struct_path = str(tmp / "query.json")
        with open(struct_path, "w", encoding="utf-8") as fh:
            fh.write(structure_to_json(records[0].structure))

        assert run_cli(["infer", "--ckpt", ckpt, "--structure", struct_path,
                        "--task", "is_metal", "--max-new", "16"]) == 0
        answer = capsys.readouterr().out.strip()
        assert answer

        report_path = str(tmp / "report.json")
        assert run_cli(["eval", "--ckpt", ckpt,
                        "--records", str(data / "records_train.jsonl"),
                        "--samples", str(data / "samples_train.jsonl"),
                        "--out", report_path, "--max-new", "16"]) == 0
        capsys.readouterr()
        report = read_eval_report(report_path)
        assert report.rag is False
        assert report.n_samples > 0

        store = str(tmp / "store")
        assert run_cli(["embed", "--ckpt", ckpt,
                        "--records", str(data / "records_train.jsonl"),
                        "--out", store]) == 0
        capsys.readouterr()
        assert os.path.exists(os.path.join(store, "store.bin"))

        assert run_cli(["retrieve", "--store", store,
                        "--query-id", records[0].material_id,
                        "--k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        dists = [float(line.split()[1]) for line in lines]
        assert dists == sorted(dists)
        assert records[0].material_id not in [line.split()[0] for line in lines]

        coords_path = str(tmp / "coords.csv")
        assert run_cli(["project", "--store", store,
                        "--out", coords_path]) == 0
        capsys.readouterr()
        rows = open(coords_path, encoding="utf-8").read().strip().splitlines()
        assert rows[0] == "material_id,x,y"
        assert len(rows) == len(records) + 1
        for row in rows[1:]:
            _, x, y = row.split(",")
            assert np.isfinite(float(x)) and np.isfinite(float(y))

    def test_infer_rag_lines_and_fallback(self, workspace, capsys):
        data = workspace["data"]
        ckpt = str(workspace["ckpt"])
        tmp = workspace["tmp"]
        records = load_property_records(str(data / "records_train.jsonl"))
        struct_path = str(tmp / "query.json")
        with open(struct_path, "w", encoding="utf-8") as fh:
            fh.write(structure_to_json(records[0].structure))
        store = str(tmp / "store2")
        assert run_cli(["embed", "--ckpt", ckpt,
                        "--records", str(data / "records_train.jsonl"),
                        "--out", store]) == 0
        capsys.readouterr()
        assert run_cli(["infer", "--ckpt", ckpt, "--structure", struct_path,
                        "--task", "is_metal", "--max-new", "16",
                        "--rag", "--store", store,
                        "--records", str(data / "records_train.jsonl"),
                        "--id", records[0].material_id]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("self: ")
        assert out[1].startswith("retrieved: ")
        assert out[2].startswith("final: ")
        retrieved = out[1].split(": ", 1)[1].split(",")
        assert len(retrieved) == 2
        assert records[0].material_id not in retrieved

    def test_infer_rag_description_task_repeats_own_answer(self, workspace,
                                                           capsys):
        # a free-text task has no value to aggregate
        data = workspace["data"]
        records = load_property_records(str(data / "records_train.jsonl"))
        lines = infer_rag(workspace["ckpt"], data / "records_train.jsonl",
                          records[0], "formula", workspace["tmp"], capsys)
        assert set(lines) == {"self", "retrieved", "final"}
        assert len(lines["retrieved"].split(",")) == 2
        assert lines["final"] == lines["self"]

    def test_infer_rag_unparsed_own_answer_is_final(self, tmp_path, capsys):
        cfg = Config(d_enc=8, L_enc=1, d_b=8, n_q=2, L_b=1, n_heads=1,
                     d_lm=8, L_lm=1, lm_heads=1)
        ckpt = str(tmp_path / "untrained.ckpt")
        save_checkpoint(ckpt, build_models(cfg, seed=3), cfg, "pretrain", 0)
        records_path = tmp_path / "records.jsonl"
        records = generate_synthetic_records(4, 6)
        write_property_records(records_path, records)
        lines = infer_rag(ckpt, records_path, records[0], "is_metal",
                          tmp_path, capsys)
        with pytest.raises(MatterBridgeError):
            parse_answer_value(lines["self"], "is_metal")
        assert set(lines) == {"self", "retrieved", "final"}
        assert len(lines["retrieved"].split(",")) == 2
        assert lines["final"] == lines["self"]

    def test_infer_max_new_past_the_context_stops_there(self, tmp_path,
                                                        capsys):
        # an untrained model writes no EOS, so 400 symbols overrun the
        # 320-position context; the answer stops when it is full
        cfg = Config()
        ckpt = str(tmp_path / "untrained.ckpt")
        save_checkpoint(ckpt, build_models(cfg, seed=3), cfg, "pretrain", 0)
        struct_path = str(tmp_path / "query.json")
        with open(struct_path, "w", encoding="utf-8") as fh:
            fh.write(structure_to_json(
                generate_synthetic_records(4, 1)[0].structure))
        argv = ["infer", "--ckpt", ckpt, "--structure", struct_path,
                "--task", "is_metal", "--max-new"]
        capsys.readouterr()
        assert run_cli(argv + ["400"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert len(out) > 200
        assert run_cli(argv + [str(len(out) - 1)]) == 0
        assert capsys.readouterr().out == out

    def test_embed_store_equals_per_record_vectors(self, tmp_path):
        # embed batches the bridge by atom count; the oracle embeds the
        # fixture one record at a time
        records = build_fixture_corpus()[0]
        counts = [r.structure.n_atoms for r in records]
        assert max(counts.count(n) for n in counts) > 1
        records_path = str(tmp_path / "records.jsonl")
        write_property_records(records_path, records)
        got = tmp_path / "got"
        assert run_cli(["embed", "--ckpt", FROZEN_CKPT, "--records",
                        records_path, "--out", str(got)]) == 0
        models = restore_models(load_checkpoint(FROZEN_CKPT))
        want = EmbeddingStore(
            [r.material_id for r in records],
            np.stack([embed_material(r.structure, models) for r in records]),
            model_fingerprint(models))
        want.save(str(tmp_path / "want"))
        for name in ("store.bin", "store.json"):
            assert read_bytes(got / name) == read_bytes(tmp_path / "want" / name)

    def test_plain_infer_prints_the_rag_self_answer(self, tmp_path, capsys):
        # plain infer decodes its structure alone (B = 1), infer --rag
        # together with its neighbours; one query per task
        records = build_fixture_corpus()[0]
        records_path = str(tmp_path / "records.jsonl")
        write_property_records(records_path, records)
        store = str(tmp_path / "store")
        assert run_cli(["embed", "--ckpt", FROZEN_CKPT, "--records",
                        records_path, "--out", store]) == 0
        for i, task in enumerate(TASKS):
            record = records[2 * i]
            struct_path = str(tmp_path / f"{record.material_id}.json")
            with open(struct_path, "w", encoding="utf-8") as fh:
                fh.write(structure_to_json(record.structure))
            template = i % len(get_templates(task).instructions)
            argv = ["infer", "--ckpt", FROZEN_CKPT, "--structure",
                    struct_path, "--task", task,
                    "--template-index", str(template)]
            capsys.readouterr()
            assert run_cli(argv) == 0
            plain = capsys.readouterr().out
            assert run_cli(argv + ["--rag", "--store", store, "--records",
                                   records_path,
                                   "--id", record.material_id]) == 0
            lines = capsys.readouterr().out.splitlines(keepends=True)
            assert lines[0] == f"self: {plain}", task

    def test_infer_rag_query_id_defaults_to_the_file_material_id(
            self, tmp_path, capsys):
        # without --id the structure's own material_id is the query, so
        # a stored query never retrieves itself
        records = build_fixture_corpus()[0]
        records_path = str(tmp_path / "records.jsonl")
        write_property_records(records_path, records)
        store = str(tmp_path / "store")
        assert run_cli(["embed", "--ckpt", FROZEN_CKPT, "--records",
                        records_path, "--out", store]) == 0
        record = records[0]
        struct_path = str(tmp_path / "query.json")
        with open(struct_path, "w", encoding="utf-8") as fh:
            fh.write(structure_to_json(record.structure))
        argv = ["infer", "--ckpt", FROZEN_CKPT, "--structure", struct_path,
                "--task", "bandgap", "--rag", "--store", store]
        capsys.readouterr()
        assert run_cli(argv) == 0
        got = capsys.readouterr().out
        retrieved = dict(line.split(": ", 1)
                         for line in got.splitlines())["retrieved"]
        assert record.material_id not in retrieved.split(",")
        assert run_cli(argv + ["--id", record.material_id]) == 0
        assert capsys.readouterr().out == got
        # an explicit --id still wins
        assert run_cli(argv + ["--id", records[1].material_id]) == 0
        other = dict(line.split(": ", 1)
                     for line in capsys.readouterr().out.splitlines())
        assert record.material_id in other["retrieved"].split(",")

    def test_infer_rag_encodes_each_material_once(self, tmp_path, capsys,
                                                  monkeypatch):
        # k=2: only the query is encoded, the two neighbours' prefixes
        # are their store rows; all three decode in one batch
        cfg = Config(d_enc=8, L_enc=1, d_b=8, n_q=2, L_b=1, n_heads=1,
                     d_lm=8, L_lm=1, lm_heads=1)
        ckpt = str(tmp_path / "untrained.ckpt")
        save_checkpoint(ckpt, build_models(cfg, seed=3), cfg, "pretrain", 0)
        records_path = str(tmp_path / "records.jsonl")
        records = generate_synthetic_records(4, 6)
        write_property_records(records_path, records)
        store = str(tmp_path / "store")
        assert run_cli(["embed", "--ckpt", ckpt, "--records", records_path,
                        "--out", store]) == 0
        struct_path = str(tmp_path / "query.json")
        with open(struct_path, "w", encoding="utf-8") as fh:
            fh.write(structure_to_json(records[0].structure))
        encoded, decoded = [], []
        original, answer = trainer.encode_structure, evaluate.generate_answer

        def encode(structure, models):
            encoded.append(structure)
            return original(structure, models)

        def generate(models, prefix, prompt, max_new=None):
            decoded.append(prefix.shape)
            return answer(models, prefix, prompt, max_new)

        for module in list(sys.modules.values()):
            if getattr(module, "encode_structure", None) is original:
                monkeypatch.setattr(module, "encode_structure", encode)
        monkeypatch.setattr(evaluate, "generate_answer", generate)
        assert run_cli(["infer", "--ckpt", ckpt, "--structure", struct_path,
                        "--task", "is_metal", "--rag", "--store", store,
                        "--records", records_path, "--k", "2",
                        "--id", records[0].material_id]) == 0
        assert len(encoded) == 1
        assert decoded == [(3, cfg.n_q, cfg.d_lm)]

    @pytest.mark.parametrize("how", ["missing-file", "loader-raises"])
    def test_infer_rag_reads_no_records(self, tmp_path, capsys, monkeypatch,
                                        how):
        records = build_fixture_corpus()[0]
        records_path = str(tmp_path / "records.jsonl")
        write_property_records(records_path, records)
        store = str(tmp_path / "store")
        assert run_cli(["embed", "--ckpt", FROZEN_CKPT, "--records",
                        records_path, "--out", store]) == 0
        record = records[5]
        struct_path = str(tmp_path / "query.json")
        with open(struct_path, "w", encoding="utf-8") as fh:
            fh.write(structure_to_json(record.structure))
        argv = ["infer", "--ckpt", FROZEN_CKPT, "--structure", struct_path,
                "--task", "bandgap", "--rag", "--store", store,
                "--id", record.material_id, "--records"]
        capsys.readouterr()
        assert run_cli(argv + [records_path]) == 0
        want = capsys.readouterr().out
        if how == "missing-file":
            argv.append(str(tmp_path / "no-such-records.jsonl"))
        else:
            def refuse(path):
                raise AssertionError(f"infer --rag read {path}")
            argv.append(records_path)
            for module in list(sys.modules.values()):
                if getattr(module, "load_property_records", None) \
                        is load_property_records:
                    monkeypatch.setattr(module, "load_property_records",
                                        refuse)
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == want
        assert len(want.splitlines()) == 3

    def test_a_loaded_store_survives_its_replacement(self, tmp_path):
        # embed replaces store.bin; a store loaded before keeps its rows
        records = build_fixture_corpus()[0]
        store = str(tmp_path / "store")
        halves = []
        for part in (records[:8], records[8:16]):
            path = str(tmp_path / f"records-{len(halves)}.jsonl")
            write_property_records(path, part)
            halves.append(path)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(["embed", "--ckpt", FROZEN_CKPT, "--records",
                            halves[0], "--out", store]) == 0
            old = EmbeddingStore.load(store)
            rows = old.matrix.copy()
            assert run_cli(["embed", "--ckpt", FROZEN_CKPT, "--records",
                            halves[1], "--out", store]) == 0
        new = EmbeddingStore.load(store)
        assert new.ids == [r.material_id for r in records[8:16]]
        assert not np.array_equal(new.matrix, rows)
        assert old.ids == [r.material_id for r in records[:8]]
        assert np.array_equal(old.matrix, rows)

    def test_eval_rag_store_wider_than_records(self, tmp_path, capsys):
        # neighbours missing from --records decode from their store rows,
        # bitwise as they would from their structures
        records, samples = build_fixture_corpus()
        full = str(tmp_path / "records.jsonl")
        write_property_records(full, records)
        store = str(tmp_path / "store")
        assert run_cli(["embed", "--ckpt", FROZEN_CKPT, "--records", full,
                        "--out", store]) == 0
        few = records[:3]
        subset = str(tmp_path / "records-few.jsonl")
        write_property_records(subset, few)
        samples_path = str(tmp_path / "samples.jsonl")
        write_instruction_samples(samples_path, [
            s for s in samples if s.material_id in {r.material_id for r in few}
            and s.task in ("is_metal", "bandgap", "stability")])
        reports = []
        for records_path in (full, subset):
            out = tmp_path / f"report-{len(reports)}.json"
            assert run_cli(["eval", "--ckpt", FROZEN_CKPT, "--records",
                            records_path, "--samples", samples_path,
                            "--rag", "--store", store, "--out", str(out)]) == 0
            reports.append(read_bytes(out))
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["n_samples"] == 9

    @pytest.mark.parametrize("command", ["infer", "eval"])
    @pytest.mark.parametrize("flags", [["--rag"], ["--store", "store"]],
                             ids=["rag-alone", "store-alone"])
    def test_rag_without_store_is_an_error(self, workspace, capsys, command,
                                           flags):
        # --rag and --store go together; either one alone is an error
        data = workspace["data"]
        ckpt = str(workspace["ckpt"])
        tmp = workspace["tmp"]
        records = load_property_records(str(data / "records_train.jsonl"))
        if command == "infer":
            struct_path = str(tmp / "query.json")
            with open(struct_path, "w", encoding="utf-8") as fh:
                fh.write(structure_to_json(records[0].structure))
            argv = ["infer", "--ckpt", ckpt, "--structure", struct_path,
                    "--task", "is_metal"]
        else:
            argv = ["eval", "--ckpt", ckpt,
                    "--records", str(data / "records_train.jsonl"),
                    "--samples", str(data / "samples_train.jsonl"),
                    "--out", str(tmp / "report.json")]
        rc = run_cli(argv + ["--max-new", "4"] + flags)
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--store" in err
        assert not (tmp / "report.json").exists()

    def test_unknown_task_is_an_error(self, workspace, capsys):
        tmp = workspace["tmp"]
        data = workspace["data"]
        records = load_property_records(str(data / "records_train.jsonl"))
        struct_path = str(tmp / "query.json")
        with open(struct_path, "w", encoding="utf-8") as fh:
            fh.write(structure_to_json(records[0].structure))
        rc = run_cli(["infer", "--ckpt", str(workspace["ckpt"]),
                      "--structure", struct_path, "--task", "nonsense"])
        assert rc == 1
        assert "unknown task" in capsys.readouterr().err


class TestSimilarityCommand:
    def test_csv_output(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli(["gen-data", "--out", str(data), "--n", "6",
                        "--seed", "3"]) == 0
        capsys.readouterr()
        records = load_property_records(str(data / "records.jsonl"))
        ids = ",".join(r.material_id for r in records[:2])
        out_path = str(tmp_path / "sim.csv")
        assert run_cli(["similarity", "--records", str(data / "records.jsonl"),
                        "--ids", ids, "--n-max", "3", "--l-max", "2",
                        "--out", out_path]) == 0
        capsys.readouterr()
        rows = open(out_path, encoding="utf-8").read().strip().splitlines()
        assert rows[0] == "id_a,id_b,similarity"
        assert len(rows) == 4
        values = {}
        for row in rows[1:]:
            a, b, v = row.split(",")
            values[(a, b)] = float(v)
        for r in records[:2]:
            key = (r.material_id, r.material_id)
            assert abs(values[key] - 1.0) < 1e-9

    @pytest.mark.parametrize("flag, value, message", [
        ("--sigma", "1e-200", "sigma must be positive and finite"),
        ("--sigma", "inf", "sigma must be positive and finite"),
        ("--r-cut", "1e-300", "radial basis Gram matrix is not positive"),
        ("--r-cut", "inf", "r_cut must be positive and finite"),
        ("--l-max", "100000", "l_max must be between 1 and 12"),
        ("--n-max", "100000000", "n_max must be between 1 and 10"),
        ("--alpha", "inf", "alpha must be positive and finite"),
        # accepted settings that fail later still name themselves
        ("--sigma", "1e-10", "sigma 1e-10"),
        ("--r-cut", "1e-100", "r_cut 1e-100"),
        ("--alpha", "1e-5", "alpha 1e-05"),
        ("--sigma", "0.01", "sigma 0.01 is too narrow for the radial grid"),
    ], ids=["sigma-1e-200", "sigma-inf", "r_cut-1e-300", "r_cut-inf",
            "l_max-100000", "n_max-1e8", "alpha-inf", "sigma-1e-10",
            "r_cut-1e-100", "alpha-1e-5", "sigma-0.01"])
    def test_bad_setting_is_one_error_line(self, tmp_path, capsys, flag,
                                           value, message):
        records = str(tmp_path / "records.jsonl")
        write_property_records(records, generate_synthetic_records(3, 3))
        out_path = str(tmp_path / "sim.csv")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run_cli(["similarity", "--records", records, flag, value,
                          "--out", out_path])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert len(captured.err.splitlines()) == 1
        assert not os.path.exists(out_path)

    def test_unknown_id_rejected(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli(["gen-data", "--out", str(data), "--n", "6",
                        "--seed", "3"]) == 0
        capsys.readouterr()
        rc = run_cli(["similarity", "--records", str(data / "records.jsonl"),
                      "--ids", "missing-id"])
        assert rc == 1
        assert "unknown material ids" in capsys.readouterr().err

    @pytest.mark.parametrize("pick", [(0, 0), (0, 1, 0)],
                             ids=["a,a", "a,b,a"])
    def test_repeated_id_rejected(self, tmp_path, capsys, pick):
        records = str(tmp_path / "records.jsonl")
        write_property_records(records, generate_synthetic_records(3, 3))
        ids = [r.material_id for r in load_property_records(records)]
        out_path = str(tmp_path / "sim.csv")
        rc = run_cli(["similarity", "--records", records, "--ids",
                      ",".join(ids[i] for i in pick), "--out", out_path])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert repr(ids[0]) in captured.err
        assert repr(ids[1]) not in captured.err
        assert not os.path.exists(out_path)


def _manifest_split(raw):
    """A checkpoint's manifest bytes and the tensor bytes after them."""
    n = int(np.frombuffer(raw[:8], dtype="<u8")[0])
    return raw[8:8 + n], raw[8 + n:]


def _first_tensor(manifest, **changes):
    manifest["tensors"][0].update(changes)
    return manifest


def _every_7th_float(value):
    """A change of a checkpoint's tensor bytes: every 7th float set to
    ``value``."""
    def change(body):
        floats = np.frombuffer(body, dtype="<f8").copy()
        floats[::7] = value
        return floats.tobytes()
    return change


def _first_with(lines, **changes):
    return json.dumps({**json.loads(lines[0]), **changes})


def _first_structure_with(lines, **changes):
    structure = json.loads(lines[0])["structure"]
    return _first_with(lines, structure={**structure, **changes})


def _json_with(text, **changes):
    return json.dumps({**json.loads(text), **changes})


def _store_meta(change):
    """A change of the embedded store's store.json object."""
    def apply(files):
        path = files["rag-store"] / "store.json"
        path.write_text(json.dumps(change(json.loads(path.read_text()))))
    return apply


def _embedded_by_seed(seed):
    """The embedded store rebuilt by a model of the same config drawn
    with another seed."""
    def apply(files):
        cfg = load_config(str(files["config"]))
        other = str(files["tmp"] / "other.ckpt")
        save_checkpoint(other, build_models(cfg, seed=seed), cfg,
                        "pretrain", 0)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(["embed", "--ckpt", other, "--records",
                            str(files["records"]),
                            "--out", str(files["rag-store"])]) == 0
    return apply


_CIF_WITHOUT_FRACT_Y = """data_nacl
_cell_length_a 5.64
_cell_length_b 5.64
_cell_length_c 5.64
_cell_angle_alpha 90
_cell_angle_beta 90
_cell_angle_gamma 90
loop_
_atom_site_type_symbol
_atom_site_fract_x
_atom_site_fract_z
Na 0.0 0.0
Cl 0.5 0.5
"""


# name -> (file kind, corruption); each corrupts one valid file
CORRUPTIONS = {
    "ckpt-without-tensors":
        ("ckpt", lambda m: {k: v for k, v in m.items() if k != "tensors"}),
    "ckpt-list-manifest": ("ckpt", lambda m: [m]),
    "ckpt-nbytes-not-shape": ("ckpt", lambda m: _first_tensor(m, nbytes=8)),
    "ckpt-negative-offset": ("ckpt", lambda m: _first_tensor(m, offset=-8)),
    "ckpt-vocab-not-a-list": ("ckpt", lambda m: {**m, "vocab": 5}),
    "ckpt-config-hash-not-a-string":
        ("ckpt", lambda m: {**m, "config_hash": 5}),
    "ckpt-stage-unknown": ("ckpt", lambda m: {**m, "stage": 5}),
    "ckpt-step-not-an-integer": ("ckpt", lambda m: {**m, "step": "a"}),
    "ckpt-step-a-bool": ("ckpt", lambda m: {**m, "step": True}),
    "ckpt-step-negative": ("ckpt", lambda m: {**m, "step": -1}),
    # ckpt-body: the tensor bytes after the manifest
    "ckpt-body-nan": ("ckpt-body", _every_7th_float(np.nan)),
    "ckpt-body-inf": ("ckpt-body", _every_7th_float(-np.inf)),
    "store-without-count":
        ("store", lambda text: text.replace('"count":', '"uncounted":')),
    "store-not-utf8": ("store", lambda text: "\udcff" + text),
    "samples-bad-json": ("samples", lambda lines: lines + ["{not json"]),
    "samples-missing-key": ("samples", lambda lines: lines + ['{"task": 1}']),
    "samples-prompt-not-string":
        ("samples", lambda lines: lines + [_first_with(lines, prompt=5)]),
    "samples-bool-target": ("samples", lambda lines: lines + [
        _first_with(lines, numeric_target=True)]),
    "samples-nan-target": ("samples", lambda lines: lines + [
        _first_with(lines, numeric_target=float("nan"))]),
    "samples-unknown-key":
        ("samples", lambda lines: lines + [_first_with(lines, note="x")]),
    "records-material-id-not-string":
        ("records", lambda lines: lines + [_first_with(lines, material_id=5)]),
    "store-id-not-string":
        ("store", lambda text: text.replace('"ids":["a"', '"ids":[5')),
    "store-duplicate-ids":
        ("store", lambda text: text.replace('"ids":["a","b"]',
                                            '"ids":["a","a"]')),
    "store-ids-a-string":
        ("store", lambda text: text.replace('"ids":["a","b"]', '"ids":"ab"')),
    "store-stride-not-integer":
        ("store", lambda text: text.replace('"stride":2', '"stride":2.5')),
    "store-count-a-string":
        ("store", lambda text: text.replace('"count":2', '"count":"2"')),
    # rag-store: a store embedded by the checkpoint, read by --rag
    "rag-store-other-seed": ("rag-store", _embedded_by_seed(4)),
    "rag-store-without-fingerprint": ("rag-store", _store_meta(
        lambda meta: {k: v for k, v in meta.items() if k != "fingerprint"})),
    "rag-store-fingerprint-not-a-string":
        ("rag-store", _store_meta(lambda meta: {**meta, "fingerprint": 5})),
    "records-missing-structure":
        ("records", lambda lines: lines + ['{"material_id": "x"}']),
    "records-not-utf8": ("records", lambda lines: lines + ["\udcff{}"]),
    "config-not-utf8": ("config", lambda lines: ["\udcff"] + lines),
    "config-lr-a-string":
        ("config", lambda lines: [_first_with(lines, warmup_start_lr="x")]),
    "config-d_b-a-float":
        ("config", lambda lines: [_first_with(lines, d_b=2.5)]),
    "config-flag-an-int":
        ("config", lambda lines: [_first_with(lines, lm_trainable=1)]),
    "config-tau-nan":
        ("config", lambda lines: [_first_with(lines, tau=float("nan"))]),
    "config-checkpoint-interval-zero":
        ("config", lambda lines: [_first_with(lines, checkpoint_interval=0)]),
    "config-lm-heads-zero":
        ("config", lambda lines: [_first_with(lines, lm_heads=0)]),
    "config-heads-do-not-divide":
        ("config", lambda lines: [_first_with(lines, n_heads=3, d_b=8)]),
    "config-pretrain-epochs-negative":
        ("config", lambda lines: [_first_with(lines, pretrain_epochs=-1)]),
    "records-lattice-not-numeric": ("records", lambda lines: lines + [
        _first_structure_with(lines, lattice="abc")]),
    # numpy would read "4" as 4.0 and true as 1.0
    "records-lattice-strings": ("records", lambda lines: [
        _first_structure_with(lines, lattice=[["4", "0", "0"], ["0", "4", "0"],
                                              ["0", "0", "4"]])] + lines[1:]),
    "records-frac-coords-bools": ("records", lambda lines: [
        _first_structure_with(lines, frac_coords=[[True, False, 0.5]])]
        + lines[1:]),
    # a new record id; its structure keeps the first record's
    "records-structure-id-differs": ("records", lambda lines: lines + [
        _first_with(lines, material_id="another-id")]),
    # a JSON integer past the float64 range
    "records-frac-coords-overflow": ("records", lambda lines: [
        _first_structure_with(lines, frac_coords=[[2 ** 1100, 0, 0]])]
        + lines[1:]),
    # struct: (file name, text) of the --structure file
    "struct-json-not-utf8":
        ("struct", lambda text: ("q.json", "\udcff" + text)),
    "struct-cif-not-utf8":
        ("struct", lambda text: ("q.cif", "\udcff" + _CIF_WITHOUT_FRACT_Y)),
    "struct-lattice-not-numeric":
        ("struct", lambda text: ("q.json", _json_with(text, lattice="abc"))),
    "struct-lattice-overflow":
        ("struct", lambda text: ("q.json", _json_with(text, lattice=2 ** 1100))),
    "struct-ragged-frac-coords": ("struct", lambda text: (
        "q.json", _json_with(text, frac_coords=[[0.0, 0.0, 0.0], [0.5]]))),
    "struct-species-not-list":
        ("struct", lambda text: ("q.json", _json_with(text, species=5))),
    "struct-species-element-a-list":
        ("struct", lambda text: ("q.json", _json_with(
            text, species=[[s] for s in json.loads(text)["species"]]))),
    "struct-cif-without-fract-y":
        ("struct", lambda text: ("q.cif", _CIF_WITHOUT_FRACT_Y)),
    "struct-material-id-not-string":
        ("struct", lambda text: ("q.json", _json_with(text, material_id=5))),
    "struct-unknown-key":
        ("struct", lambda text: ("q.json", _json_with(text, note="x"))),
    # determinant 1.6e309 overflows to inf
    "struct-determinant-overflow": ("struct", lambda text: (
        "q.json", _json_with(text, lattice=[[1e308, 0, 0], [0, 4, 0],
                                            [0, 0, 4]]))),
    # determinant 1.6e-7 passes, but a 6 A search needs 3e10 images
    "struct-thin-cell": ("struct", lambda text: (
        "q.json", _json_with(text, lattice=[[4, 0, 0], [0, 4, 0],
                                            [0, 0, 1e-8]]))),
}


class TestCorruptInputs:
    """A malformed file fails its loader with a MatterBridgeError only,
    and the command reading it exits 1 with an error line."""

    @pytest.fixture()
    def files(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli(["gen-data", "--out", str(data), "--n", "4",
                        "--seed", "2"]) == 0
        cfg = Config(d_enc=8, L_enc=1, d_b=8, n_q=2, L_b=1, n_heads=1,
                     d_lm=8, L_lm=1, lm_heads=1)
        ckpt = tmp_path / "model.ckpt"
        save_checkpoint(str(ckpt), build_models(cfg, seed=3), cfg,
                        "pretrain", 0)
        EmbeddingStore(["a", "b"], np.array([[0.0, 0.0], [1.0, 1.0]])).save(
            str(tmp_path / "store"))
        struct = tmp_path / "query.json"
        records = load_property_records(str(data / "records.jsonl"))
        struct.write_text(structure_to_json(records[0].structure))
        config = tmp_path / "config.json"
        save_config(str(config), cfg)
        assert run_cli(["embed", "--ckpt", str(ckpt), "--records",
                        str(data / "records.jsonl"),
                        "--out", str(tmp_path / "rag-store")]) == 0
        capsys.readouterr()
        return {"ckpt": ckpt, "ckpt-body": ckpt,
                "store": tmp_path / "store", "struct": struct,
                "rag-store": tmp_path / "rag-store",
                "rag-id": records[0].material_id,
                "config": config,
                "samples": data / "samples_train.jsonl",
                "records": data / "records.jsonl", "tmp": tmp_path}

    @staticmethod
    def corrupt(files, kind, change):
        if kind == "ckpt":
            manifest, body = _manifest_split(files["ckpt"].read_bytes())
            payload = json.dumps(change(json.loads(manifest))).encode()
            files["ckpt"].write_bytes(np.array(len(payload), dtype="<u8")
                                      .tobytes() + payload + body)
        elif kind == "ckpt-body":
            raw = files["ckpt"].read_bytes()
            _, body = _manifest_split(raw)
            files["ckpt"].write_bytes(raw[:len(raw) - len(body)] + change(body))
        elif kind == "struct":
            name, text = change(files["struct"].read_text())
            files["struct"] = files["tmp"] / name
            files["struct"].write_text(text, encoding="utf-8",
                                       errors="surrogateescape")
        elif kind == "rag-store":
            change(files)
        elif kind == "store":
            path = files["store"] / "store.json"
            path.write_text(change(path.read_text()), encoding="utf-8",
                            errors="surrogateescape")
        else:
            path = files[kind]
            lines = path.read_text().splitlines()
            path.write_text("\n".join(change(lines)) + "\n",
                            encoding="utf-8", errors="surrogateescape")

    @staticmethod
    def rag_reads(files):
        """`infer --rag` and `eval --rag` of the embedded store."""
        return [["infer", "--ckpt", str(files["ckpt"]), "--structure",
                 str(files["struct"]), "--task", "is_metal", "--max-new", "4",
                 "--rag", "--store", str(files["rag-store"]),
                 "--id", files["rag-id"]],
                ["eval", "--ckpt", str(files["ckpt"]),
                 "--records", str(files["records"]),
                 "--samples", str(files["samples"]), "--max-new", "4",
                 "--out", str(files["tmp"] / "report.json"),
                 "--rag", "--store", str(files["rag-store"])]]

    @pytest.mark.parametrize("command,change", [
        ("pretrain", {"checkpoint_interval": 0}),
        ("finetune", {"lm_heads": 0}),
    ])
    def test_training_with_an_invalid_config_is_one_error_line(
            self, files, capsys, command, change):
        self.corrupt(files, "config",
                     lambda lines: [_first_with(lines, **change)])
        out = str(files["tmp"] / "out")
        argv = {"pretrain": ["pretrain", "--records", str(files["records"]),
                             "--out", out],
                "finetune": ["finetune", "--records", str(files["records"]),
                             "--samples", str(files["samples"]),
                             "--ckpt", str(files["ckpt"]), "--out", out,
                             "--allow-config-mismatch"]}[command]
        assert run_cli(argv + ["--config", str(files["config"])]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
        assert not os.path.exists(out)

    def test_rag_reads_of_the_embedded_store_succeed(self, files):
        # the control for the rag-store cases
        for argv in self.rag_reads(files):
            assert run_cli(argv) == 0

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_only_matterbridge_errors_escape(self, files, case, capsys):
        kind, change = CORRUPTIONS[case]
        self.corrupt(files, kind, change)
        ckpt = (load_checkpoint,
                ["infer", "--ckpt", str(files["ckpt"]), "--structure",
                 str(files["struct"]), "--task", "is_metal"])
        loader, *argvs = {
            "ckpt": ckpt,
            "ckpt-body": ckpt,
            "struct": (lambda path: build_graph(
                           _structure_from_file(path, None)),
                       ["infer", "--ckpt", str(files["ckpt"]), "--structure",
                        str(files["struct"]), "--task", "is_metal"]),
            "store": (EmbeddingStore.load,
                      ["retrieve", "--store", str(files["store"]),
                       "--query-id", "a", "--k", "1"]),
            "samples": (load_instruction_samples,
                        ["eval", "--ckpt", str(files["ckpt"]),
                         "--records", str(files["records"]),
                         "--samples", str(files["samples"]),
                         "--out", str(files["tmp"] / "report.json")]),
            "records": (load_property_records,
                        ["similarity", "--records", str(files["records"])]),
            "config": (load_config,
                       ["gen-data", "--config", str(files["config"]),
                        "--out", str(files["tmp"] / "data2"), "--n", "2"]),
            # the check is where store rows become prefixes
            "rag-store": (lambda path: evaluate.predict_samples(
                              restore_models(str(files["ckpt"])), {}, [],
                              EmbeddingStore.load(path)),
                          *self.rag_reads(files)),
        }[kind]
        with pytest.raises(MatterBridgeError):
            loader(str(files[kind]))
        for argv in argvs:
            assert run_cli(argv) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: ")
            assert captured.out == ""


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6)
    # JSON integers are unbounded: these overflow a float64
    | st.integers(min_value=2 ** 1024, max_value=2 ** 1100),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)


# a word of a CIF line: numbers past float64, CIF keywords, any text
_CIF_WORDS = st.sampled_from(
    [b"nan", b"inf", b"-1e400", b"1e-320", b"0", b"-90", b"180", b"1(",
     b"loop_", b"data_", b"_atom_site_fract_x", b"#"]
) | st.text(max_size=6).map(str.encode)


@st.composite
def _mutated_line(draw, line, keep=(), words=False):
    """One line truncated, with a byte inserted, or with one part
    replaced: one word by a CIF-like word if ``words``, else one JSON
    field (at any depth of nested objects and lists) by an arbitrary JSON
    value; no field under a top-level key in ``keep`` is replaced."""
    how = draw(st.sampled_from(["truncate", "insert", "replace"]))
    if how == "truncate":
        return line[:draw(st.integers(0, len(line) - 1))]
    if how == "insert":
        at = draw(st.integers(0, len(line)))
        return line[:at] + bytes([draw(st.integers(0, 255))]) + line[at:]
    if words:
        parts = line.split()
        parts[draw(st.integers(0, len(parts) - 1))] = draw(_CIF_WORDS)
        return b" ".join(parts)
    obj = node = json.loads(line)
    key = draw(st.sampled_from(sorted(set(node) - set(keep))))
    while (isinstance(node[key], (dict, list)) and node[key]
           and draw(st.booleans())):
        node = node[key]
        key = draw(st.sampled_from(
            sorted(node) if isinstance(node, dict) else range(len(node))))
    node[key] = draw(_JSON_VALUES)
    return json.dumps(obj).encode()


_CIF = b"""data_gan
_cell_length_a 3.2
_cell_length_b 3.2
_cell_length_c 5.2
_cell_angle_alpha 90
_cell_angle_beta 90
_cell_angle_gamma 120
loop_
_atom_site_type_symbol
_atom_site_fract_x
_atom_site_fract_y
_atom_site_fract_z
Ga 0.3333 0.6667 0.0
N 0.3333 0.6667 0.375
"""


class TestCorruptJsonlLines:
    """One mutated line of a records or samples file, of a config or a
    checkpoint manifest (one line of JSON each), of a store's
    store.json, or of a CIF-subset structure: the loader returns or
    raises a MatterBridgeError, and the command reading the file ends
    with exit 0, or with exit 1 and an error line, never a traceback."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("jsonl")
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli(["gen-data", "--out", str(root), "--n", "4",
                            "--seed", "2"]) == 0
        cfg = Config(d_enc=8, L_enc=1, d_b=8, n_q=2, L_b=1, n_heads=1,
                     d_lm=8, L_lm=1, lm_heads=1)
        ckpt = str(root / "model.ckpt")
        save_checkpoint(ckpt, build_models(cfg, seed=3), cfg, "pretrain", 0)
        save_config(str(root / "config.json"), cfg)
        records = load_property_records(str(root / "records.jsonl"))
        (root / "query.json").write_text(
            structure_to_json(records[0].structure))
        (root / "query.cif").write_bytes(_CIF)
        EmbeddingStore(["a", "b", "c"], np.arange(6.0).reshape(3, 2),
                       "0" * 64).save(str(root / "store"))
        return {"root": root, "ckpt": ckpt,
                "records": root / "records.jsonl",
                "samples": root / "samples_train.jsonl",
                "config": root / "config.json",
                "cif": root / "query.cif",
                "store": root / "store"}

    @staticmethod
    def lines(corpus, kind):
        if kind == "ckpt":
            with open(corpus["ckpt"], "rb") as fh:
                return [_manifest_split(fh.read())[0]]
        if kind == "store":
            return (corpus["store"] / "store.json").read_bytes().splitlines()
        return corpus[kind].read_bytes().splitlines()

    @staticmethod
    def write(corpus, kind, lines):
        """The mutated file (a directory for a store) and the command
        that reads it."""
        root = corpus["root"]
        text = b"\n".join(lines) + b"\n"
        if kind == "ckpt":
            path = root / "mutated.ckpt"
            with open(corpus["ckpt"], "rb") as fh:
                body = _manifest_split(fh.read())[1]
            (manifest,) = lines
            path.write_bytes(np.array(len(manifest), dtype="<u8").tobytes()
                             + manifest + body)
            return path, load_checkpoint, [
                "infer", "--ckpt", str(path), "--structure",
                str(root / "query.json"), "--task", "is_metal",
                "--max-new", "4"]
        if kind == "store":
            path = root / "mutated-store"
            path.mkdir(exist_ok=True)
            shutil.copy(corpus["store"] / "store.bin", path / "store.bin")
            (path / "store.json").write_bytes(text)
            return path, EmbeddingStore.load, [
                "retrieve", "--store", str(path), "--query-id", "a",
                "--k", "1"]
        if kind == "cif":
            path = root / "mutated.cif"
            path.write_bytes(text)
            return path, lambda p: build_graph(_structure_from_file(p, None)), [
                "infer", "--ckpt", corpus["ckpt"], "--structure", str(path),
                "--task", "is_metal", "--max-new", "4"]
        path = root / f"mutated-{kind}.jsonl"
        path.write_bytes(text)
        if kind == "records":
            return path, load_property_records, [
                "similarity", "--records", str(path)]
        if kind == "config":
            return path, load_config, [
                "gen-data", "--config", str(path),
                "--out", str(root / "gen"), "--n", "2"]
        return path, load_instruction_samples, [
            "eval", "--ckpt", corpus["ckpt"],
            "--records", str(corpus["records"]),
            "--samples", str(path), "--max-new", "4",
            "--out", str(root / "report.json")]

    @pytest.mark.parametrize("kind", ["records", "samples", "config", "ckpt",
                                      "store", "cif"])
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_one_bad_line(self, corpus, kind, data):
        lines = self.lines(corpus, kind)
        i = data.draw(st.integers(0, len(lines) - 1))
        # a replaced config field can ask build_models for an allocation
        # of any size, so no config field is replaced; a one-byte edit
        # can at most turn an integer into one ten times as large
        keep = ("config",) if kind == "ckpt" else ()
        lines[i] = data.draw(_mutated_line(lines[i], keep, kind == "cif"))
        path, loader, argv = self.write(corpus, kind, lines)
        try:
            loader(str(path))
            loaded = True
        except MatterBridgeError:
            loaded = False
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = run_cli(argv)
        assert rc in ((0, 1) if loaded else (1,))
        if rc:
            assert err.getvalue().startswith("error: ")
