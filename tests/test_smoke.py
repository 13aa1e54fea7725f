"""End-to-end smoke test at tiny scale: the reproduction entry point
runs every §8 experiment and emits five sane result dicts. Detailed
behaviour is covered by the per-module test files; this exists so a
pipeline-level breakage fails fast."""
import json
import sys

from jobs import reproduce


def test_reproduce_smoke(spark, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["reproduce.py", "0.05"])
    reproduce.main()
    results = [
        json.loads(line) for line in capsys.readouterr().out.splitlines()
        if line.startswith("{")
    ]
    assert len(results) == 5
    assert [r["dataset"] for r in results[:2]] == ["lyft", "internal"]
    for table3 in results[:2]:
        assert table3["fixy_p10"] is not None
        assert 0.0 <= table3["fixy_p10"] <= 1.0
