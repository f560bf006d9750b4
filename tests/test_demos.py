"""Each demo script runs end to end through its ``main()``."""

import os
import runpy
import tempfile

DEMOS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "demos")


def run_demo(name):
    runpy.run_path(os.path.join(DEMOS, name))["main"]()


def test_run_pipeline(tmp_path, monkeypatch, capsys):
    # the demo keeps its artifacts under tempfile.mkdtemp()
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    run_demo("run_pipeline.py")
    (root,) = tmp_path.glob("matterbridge-demo-*")
    assert (root / "report.json").is_file()
    assert capsys.readouterr().out.endswith(f"artifacts kept in {root}\n")


def test_similarity_map(capsys):
    run_demo("similarity_map.py")
    assert "most alike:" in capsys.readouterr().out
