"""Command-line surface: flags, exit codes, seed fallback, pipelines."""

import json
import os

import numpy as np
import pytest

from matterbridge.cli import run_cli
from matterbridge.config import Config, save_config
from matterbridge.crystal import structure_to_json
from matterbridge.datasetgen import (generate_synthetic_records,
                                     load_instruction_samples,
                                     load_property_records,
                                     write_property_records)
from matterbridge.errors import MatterBridgeError
from matterbridge.evaluate import parse_answer_value, read_eval_report
from matterbridge.rag import EmbeddingRecord, EmbeddingStore
from matterbridge.trainer import build_models, load_checkpoint, save_checkpoint


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

    def test_rag_without_store_is_an_error(self, workspace, capsys):
        data = workspace["data"]
        ckpt = str(workspace["ckpt"])
        tmp = workspace["tmp"]
        records = load_property_records(str(data / "records_train.jsonl"))
        struct_path = str(tmp / "query.json")
        with open(struct_path, "w", encoding="utf-8") as fh:
            fh.write(structure_to_json(records[0].structure))
        rc = run_cli(["infer", "--ckpt", ckpt, "--structure", struct_path,
                      "--task", "is_metal", "--rag"])
        assert rc == 1
        assert "--store" in capsys.readouterr().err

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

    def test_unknown_id_rejected(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert run_cli(["gen-data", "--out", str(data), "--n", "6",
                        "--seed", "3"]) == 0
        capsys.readouterr()
        rc = run_cli(["similarity", "--records", str(data / "records.jsonl"),
                      "--ids", "missing-id"])
        assert rc == 1
        assert "unknown material ids" in capsys.readouterr().err


def _first_tensor(manifest, **changes):
    manifest["tensors"][0].update(changes)
    return manifest


# name -> (file kind, corruption); each corrupts one valid file
CORRUPTIONS = {
    "ckpt-without-tensors":
        ("ckpt", lambda m: {k: v for k, v in m.items() if k != "tensors"}),
    "ckpt-list-manifest": ("ckpt", lambda m: [m]),
    "ckpt-nbytes-not-shape": ("ckpt", lambda m: _first_tensor(m, nbytes=8)),
    "ckpt-negative-offset": ("ckpt", lambda m: _first_tensor(m, offset=-8)),
    "store-without-count":
        ("store", lambda text: text.replace('"count":', '"uncounted":')),
    "store-not-utf8": ("store", lambda text: "\udcff" + text),
    "samples-bad-json": ("samples", lambda lines: lines + ["{not json"]),
    "samples-missing-key": ("samples", lambda lines: lines + ['{"task": 1}']),
    "records-missing-structure":
        ("records", lambda lines: lines + ['{"material_id": "x"}']),
    "records-not-utf8": ("records", lambda lines: lines + ["\udcff{}"]),
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
        store = EmbeddingStore(2)
        store.add(EmbeddingRecord("a", np.zeros(2), {}))
        store.add(EmbeddingRecord("b", np.ones(2), {}))
        store.save(str(tmp_path / "store"))
        struct = tmp_path / "query.json"
        records = load_property_records(str(data / "records.jsonl"))
        struct.write_text(structure_to_json(records[0].structure))
        capsys.readouterr()
        return {"ckpt": ckpt, "store": tmp_path / "store", "struct": struct,
                "samples": data / "samples_train.jsonl",
                "records": data / "records.jsonl", "tmp": tmp_path}

    @staticmethod
    def corrupt(files, kind, change):
        if kind == "ckpt":
            raw = files["ckpt"].read_bytes()
            n = int(np.frombuffer(raw[:8], dtype="<u8")[0])
            payload = json.dumps(change(json.loads(raw[8:8 + n]))).encode()
            files["ckpt"].write_bytes(np.array(len(payload), dtype="<u8")
                                      .tobytes() + payload + raw[8 + n:])
        elif kind == "store":
            path = files["store"] / "store.json"
            path.write_text(change(path.read_text()), encoding="utf-8",
                            errors="surrogateescape")
        else:
            path = files[kind]
            lines = path.read_text().splitlines()
            path.write_text("\n".join(change(lines)) + "\n",
                            encoding="utf-8", errors="surrogateescape")

    @pytest.mark.parametrize("case", sorted(CORRUPTIONS))
    def test_only_matterbridge_errors_escape(self, files, case, capsys):
        kind, change = CORRUPTIONS[case]
        self.corrupt(files, kind, change)
        loader, argv = {
            "ckpt": (load_checkpoint,
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
        }[kind]
        with pytest.raises(MatterBridgeError):
            loader(str(files[kind]))
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.out == ""
