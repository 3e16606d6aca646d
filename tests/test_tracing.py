"""The benchmark tracer's self-check, so that a changed oracle, validate or LMO call count
fails the tests and not only a traced benchmark run."""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_self_check(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv("FWFLOW_OUTPUT_DIR", raising=False)  # it would redirect every CSV
    import tracing

    assert tracing.self_check(tmp_path) == []
