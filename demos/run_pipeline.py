"""Walk the full desk-scale pipeline in a scratch directory.

Generates a small synthetic corpus, pretrains the bridge, finetunes on
instruction samples, scores the held-out split, and finishes with an
embedding store, a retrieval query, and one answered prompt.  Everything
runs through the same command surface the ``matterbridge`` console
script exposes, so this file doubles as working CLI documentation.

Run from the repository root:

    python3 demos/run_pipeline.py
"""

import json
import tempfile
from pathlib import Path

from matterbridge.cli import run_cli
from matterbridge.config import Config, save_config


def sh(argv):
    print("\n$ matterbridge " + " ".join(argv))
    rc = run_cli(argv)
    if rc != 0:
        raise SystemExit(f"command failed with exit code {rc}")


def main():
    root = Path(tempfile.mkdtemp(prefix="matterbridge-demo-"))
    print(f"working in {root}")

    # a configuration small enough to train in about a minute on one core
    cfg = Config(d_enc=12, L_enc=1, d_b=16, n_q=4, L_b=2, n_heads=2,
                 d_lm=32, L_lm=1, lm_heads=2, batch_size=4,
                 pretrain_accum=1, finetune_accum=1,
                 pretrain_epochs=1, finetune_epochs=2)
    cfg_path = root / "config.json"
    save_config(cfg_path, cfg)
    base = ["--config", str(cfg_path), "--seed", "7"]

    data = root / "data"
    ckpts = root / "ckpts"
    sh(["gen-data", "--out", str(data), "--n", "14"] + base)
    sh(["pretrain", "--records", str(data / "records_train.jsonl"),
        "--out", str(ckpts)] + base)
    sh(["finetune", "--records", str(data / "records_train.jsonl"),
        "--samples", str(data / "samples_train.jsonl"),
        "--ckpt", str(ckpts / "pretrain-final.ckpt"),
        "--out", str(ckpts)] + base)
    sh(["eval", "--ckpt", str(ckpts / "finetune-final.ckpt"),
        "--records", str(data / "records_test.jsonl"),
        "--samples", str(data / "samples_test.jsonl"),
        "--out", str(root / "report.json")] + base)

    # export an embedding store over the training materials and look up
    # the nearest neighbors of the first one
    sh(["embed", "--ckpt", str(ckpts / "finetune-final.ckpt"),
        "--records", str(data / "records_train.jsonl"),
        "--out", str(root / "store")] + base)
    first_id = json.loads(
        (data / "records_train.jsonl").read_text().splitlines()[0]
    )["material_id"]
    sh(["retrieve", "--store", str(root / "store"),
        "--query-id", first_id, "--k", "3"] + base)

    # answer one prompt for one structure; the structure file is just the
    # serialized form a record carries
    record = json.loads((data / "records_train.jsonl").read_text().splitlines()[0])
    structure_path = root / "query.json"
    structure_path.write_text(json.dumps(record["structure"]))
    sh(["infer", "--ckpt", str(ckpts / "finetune-final.ckpt"),
        "--structure", str(structure_path), "--task", "formula"] + base)

    print(f"\nartifacts kept in {root}")


if __name__ == "__main__":
    main()
