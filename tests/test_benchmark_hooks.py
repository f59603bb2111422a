"""The benchmark's traced run (``qicbench/run.py --trace 1``) rebinds qic
functions by name and reads dataset attributes off their arguments. A
refactor that renames a traced function or changes what Pipeline takes
fails here rather than only in the traced benchmark run."""

from pathlib import Path

from qic import cli

ROOT = Path(__file__).resolve().parents[1]


def test_traced_table2_run_reaches_every_data_and_encoding_hook(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT))
    from qicbench.trace import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(["reproduce", "--table", "2", "--reps", "2", "--seed", "7",
                       "-o", str(tmp_path / "table2.csv")])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert tracer.counts["encoding.rows"] > 0
    called = {span[0] for span in tracer.spans}
    assert {"cli.main", "data.split", "data.run_benchmark",
            "encoding.Pipeline.fit_transform", "encoding.Pipeline.transform"} <= called
