"""The package's import contract: ``import airalloc`` loads the solvers,
the environment and the learner, while the experiment harness, the metrics
and PyYAML load on first use.  Each check runs in a fresh interpreter,
because the test session has already imported everything."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(SRC)}, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_leaves_the_harness_unloaded():
    out = _run("""
        import sys
        import airalloc
        print(sorted(m for m in ("airalloc.experiments", "airalloc.metrics", "airalloc.cli",
                                 "yaml") if m in sys.modules))
    """)
    assert out.strip() == "[]"


def test_every_public_name_resolves_to_its_defining_object():
    _run("""
        import importlib
        import airalloc

        for name in airalloc.__all__:
            value = getattr(airalloc, name)
            owner = importlib.import_module(value.__module__)
            assert getattr(owner, name) is value, name
        assert airalloc.experiments is importlib.import_module("airalloc.experiments")
        assert airalloc.metrics is importlib.import_module("airalloc.metrics")
    """)


def test_dir_and_star_import_cover_all():
    _run("""
        import airalloc

        assert set(airalloc.__all__) <= set(dir(airalloc))
        names = {}
        exec("from airalloc import *", names)
        missing = [n for n in airalloc.__all__ if names.get(n) is not getattr(airalloc, n)]
        assert not missing, missing
    """)


def test_unknown_name_raises_attribute_error():
    out = _run("""
        import airalloc

        try:
            airalloc.no_such_name
        except AttributeError as exc:
            print(exc)
    """)
    assert "no_such_name" in out


def test_yaml_loads_only_to_read_a_config(tmp_path):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"experiment: task_sweep\nseed: 0\noutput_dir: {tmp_path}\n", encoding="utf-8")
    _run(f"""
        import sys
        from airalloc import cli

        assert cli.main(["solve", "--servers", "1"]) == cli.EXIT_OK
        assert "yaml" not in sys.modules
        from airalloc.experiments import load_config

        load_config({str(cfg)!r})
        assert "yaml" in sys.modules
    """)
