"""Regenerate the frozen inference checkpoint used by the eval and infer workloads.

Trains with the repository's own ``pretrain`` and ``finetune`` commands at
``configs/overfit.json`` on the bundled 32-material fixture corpus (seed 42),
copies ``finetune-final.ckpt`` to ``perfbench/data/frozen.ckpt`` and writes its
SHA-256 to ``perfbench/data/frozen.ckpt.sha256``.  Takes several minutes on
one core.  Run from the repository root:

    python3 perfbench/make_checkpoint.py

Replacing the checkpoint changes how much decode work the eval and infer
workloads do, so it is a benchmark change, never part of a speed-up.
"""

import hashlib
import os
import shutil
import sys
import tempfile

os.environ["OPENBLAS_NUM_THREADS"] = "1"
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from matterbridge.cli import run_cli  # noqa: E402

CONFIG = os.path.join(ROOT, "configs", "overfit.json")
FIXTURES = os.path.join(ROOT, "src", "matterbridge", "data", "fixtures")
OUT = os.path.join(ROOT, "perfbench", "data", "frozen.ckpt")
WORK = os.path.join(ROOT, ".bench_work")


def main():
    base = ["--config", CONFIG, "--seed", "42"]
    records = os.path.join(FIXTURES, "records.jsonl")
    os.makedirs(WORK, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        if run_cli(["pretrain", "--records", records, "--out", tmp] + base):
            return 1
        if run_cli(["finetune", "--records", records,
                    "--samples", os.path.join(FIXTURES, "samples.jsonl"),
                    "--ckpt", os.path.join(tmp, "pretrain-final.ckpt"),
                    "--out", tmp] + base):
            return 1
        shutil.copyfile(os.path.join(tmp, "finetune-final.ckpt"), OUT)
    with open(OUT, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    with open(OUT + ".sha256", "w", encoding="utf-8") as fh:
        fh.write(f"{digest}  frozen.ckpt\n")
    print(f"{OUT}: sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
