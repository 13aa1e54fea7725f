"""The reproduction entry point: ``jobs/reproduce.py [scale]`` prints
every §8 result dict and, at paper scale only, records each one as
``benchmarks/results/<name>.json``.

The experiments are replaced by canned dicts here; the real five-result
pass at reduced scale runs once, in ``test_layout_invariance.py``
(``test_default_results_shape``)."""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from jobs import reproduce

CANNED = [
    ("table3_lyft", {"dataset": "lyft", "fixy_p10": np.float64(0.5)}),
    ("table3_internal", {"dataset": "internal", "fixy_p10": np.float32(0.25)}),
    ("recall", {"n_injected": 24}),
    ("missing_obs", {"rank": None}),
    ("model_errors", {"fixy_p10": 0.75}),
]


def _run_main(monkeypatch, tmp_path, argv):
    scales = []

    def canned(spark, scale):
        scales.append(scale)
        return iter(CANNED)

    monkeypatch.setattr(reproduce, "results", canned)
    monkeypatch.setattr(reproduce, "RESULTS_DIR", str(tmp_path))
    monkeypatch.setattr(sys, "argv", ["reproduce.py", *argv])
    reproduce.main()
    return scales


def test_reproduce_smoke(spark, monkeypatch, tmp_path, capsys):
    assert _run_main(monkeypatch, tmp_path, ["0.05"]) == [0.05]
    printed = [
        json.loads(line) for line in capsys.readouterr().out.splitlines()
        if line.startswith("{")
    ]
    assert printed == [json.loads(json.dumps(d, default=float)) for _, d in CANNED]
    assert list(tmp_path.iterdir()) == []


def test_paper_scale_records_results(spark, monkeypatch, tmp_path):
    assert _run_main(monkeypatch, tmp_path, []) == [1.0]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        f"{name}.json" for name, _ in CANNED
    )
    for name, result in CANNED:
        # The committed results files: indent 2, no trailing newline.
        expected = json.dumps(result, indent=2, default=float)
        assert (tmp_path / f"{name}.json").read_text() == expected


def test_reproduce_imports_from_any_directory(tmp_path):
    """The entry point finds ``jobs`` from its own location, so it runs
    from any working directory (``main`` is not called here)."""
    script = Path(reproduce.__file__).resolve()
    code = f"import runpy; runpy.run_path({str(script)!r}, run_name='reproduce')"
    env = {**os.environ, "PYTHONPATH": str(script.parents[1] / "src")}
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
