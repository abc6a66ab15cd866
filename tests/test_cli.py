"""CLI: generate / stats / validate / route / taxonomy / obs, the docs and
dead-surface gates, and the import surface macrobench relies on."""

import os
import subprocess
import sys

import pytest

from repro.cli import main


@pytest.fixture
def map_file(tmp_path):
    path = tmp_path / "city.json"
    assert main(["generate", "--kind", "city", "--seed", "3",
                 "--size", "3", "--out", str(path)]) == 0
    return path


class TestCli:
    def test_generate_city(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        assert main(["generate", "--kind", "city", "--seed", "3",
                     "--size", "2", "--out", str(path)]) == 0
        assert "wrote" in capsys.readouterr().out
        assert path.exists()

    def test_generate_highway(self, tmp_path):
        path = tmp_path / "hw.json"
        assert main(["generate", "--kind", "highway", "--size", "2",
                     "--out", str(path)]) == 0
        assert path.exists()

    def test_generate_sampled(self, tmp_path):
        path = tmp_path / "s.json"
        assert main(["generate", "--kind", "sampled", "--seed", "1",
                     "--out", str(path)]) == 0

    def test_stats(self, map_file, capsys):
        assert main(["stats", str(map_file)]) == 0
        out = capsys.readouterr().out
        assert "lane length" in out
        assert "junction degree" in out

    def test_validate_clean_map(self, map_file, capsys):
        assert main(["validate", str(map_file)]) == 0
        assert "0 error(s)" in capsys.readouterr().out

    def test_validate_broken_map_exits_nonzero(self, tmp_path):
        from repro.core import HDMap, Lane
        from repro.core.ids import ElementId
        from repro.geometry.polyline import straight
        from repro.storage import save_map

        hdmap = HDMap("bad")
        hdmap.create(Lane, centerline=straight([0, 0], [50, 0]),
                     left_boundary=ElementId("boundary", 99))
        path = tmp_path / "bad.json"
        save_map(hdmap, path)
        assert main(["validate", str(path)]) == 1

    def test_route_with_guidance(self, map_file, capsys):
        assert main(["route", str(map_file), "--from", "30,30",
                     "--to", "350,250"]) == 0
        out = capsys.readouterr().out
        assert "route:" in out
        assert "depart" in out and "arrive" in out

    def test_route_bad_point_format(self, map_file):
        with pytest.raises(SystemExit):
            main(["route", str(map_file), "--from", "30",
                  "--to", "350,250"])

    def test_taxonomy(self, capsys):
        assert main(["taxonomy"]) == 0
        out = capsys.readouterr().out
        assert "TABLE I" in out
        assert "Localization" in out

    def test_missing_file_is_one_line_error(self, capsys):
        assert main(["stats", "/nonexistent.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro stats: error: ")
        assert "/nonexistent.json" in err
        assert len(err.strip().splitlines()) == 1  # no traceback

    def test_not_a_map_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "feature.json"
        path.write_text('{"type": "Feature"}')
        assert main(["validate", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == "repro validate: error: not a FeatureCollection " \
                      "document\n"

    def test_not_json_is_one_line_error(self, tmp_path, capsys):
        path = tmp_path / "notes.txt"
        path.write_text("lane 1: 3.5 m\n")
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"repro stats: error: {path}: not a JSON map")
        assert len(err.strip().splitlines()) == 1  # no traceback

    def test_zero_tile_size_is_rejected_by_the_parser(self, tmp_path,
                                                      capsys):
        path = tmp_path / "city.json"
        main(["generate", "--kind", "city", "--size", "1", "--out",
              str(path)])
        capsys.readouterr()
        with pytest.raises(SystemExit) as exit_info:
            main(["stats", str(path), "--tiles", "--tile-size", "0"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        # argparse's usage line, then one error line; no traceback
        assert err.splitlines()[-1] == "repro stats: error: argument " \
            "--tile-size: must be positive, got '0'"
        assert "Traceback" not in err

    def test_reproducible_generation(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        main(["generate", "--kind", "city", "--seed", "9", "--out", str(a)])
        main(["generate", "--kind", "city", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()


class TestObsCli:
    @pytest.fixture(autouse=True)
    def _reset_obs(self):
        yield
        from repro.obs import EVENT_LOG, TRACER
        TRACER.configure(enabled=False, reset=True)
        EVENT_LOG.clear()

    def test_obs_export_prometheus_covers_every_subsystem(self, map_file,
                                                          capsys):
        from repro.obs import EVENT_LOG, validate_prometheus_text

        # The log's counters are process-wide: earlier tests' errors
        # count too, so the export must show exactly the errors logged
        # before this run, i.e. the run itself logged none.
        errors_before = EVENT_LOG.counts_by_level["error"].value
        assert main(["obs", "export", str(map_file),
                     "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert validate_prometheus_text(out) == []
        # serve, ingest, perf kernels, and log counters in ONE export
        assert "serve_latency_SpatialQuery_bucket" in out
        assert "ingest_freshness_bucket" in out
        assert "perf_grid_query_box_calls" in out
        assert f"log_events_error {errors_before}\n" in out
        assert "# TYPE serve_freshness histogram" in out

    def test_obs_export_json(self, map_file, capsys):
        import json

        assert main(["obs", "export", str(map_file),
                     "--format", "json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["ingest.batches.processed"] >= 1
        assert snap["serve.freshness"]["count"] >= 0

    def test_obs_smoke_gate_passes(self, map_file, capsys):
        assert main(["obs", "smoke", str(map_file)]) == 0
        assert "obs smoke passed" in capsys.readouterr().out

    def test_trace_roundtrip_obs_export_spans(self, map_file, tmp_path,
                                              capsys):
        from repro.obs import load_spans_jsonl

        assert main(["obs", "export", str(map_file),
                     "--format", "spans"]) == 0
        spans = tmp_path / "spans.jsonl"
        spans.write_text(capsys.readouterr().out)
        dump = load_spans_jsonl(str(spans))
        fleet = next(s["trace_id"] for s in dump
                     if s["name"].startswith("fleet.request"))

        assert main(["obs", "trace", "--input", str(spans)]) == 0
        assert f"{len(dump)} span(s) total" in capsys.readouterr().out
        assert main(["obs", "trace", "--input", str(spans),
                     "--trace-id", fleet]) == 0
        out = capsys.readouterr().out
        assert "fleet.request" in out
        assert "serve.request" in out

        assert main(["obs", "top", "--input", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "fleet.request" in out and "count" in out

        assert main(["obs", "trace", "--input", str(spans),
                     "--trace-id", "nope"]) == 1

    def test_obs_trace_cluster_filters_a_merged_dump(self, tmp_path,
                                                     capsys):
        """``obs trace --cluster`` on a merged 2-shard process dump keeps
        the cross-process trace and drops the router-only one."""
        import numpy as np

        from repro.cluster import ClusterRouter
        from repro.obs import TRACER, configure_tracing
        from repro.serve.api import GetTile
        from repro.world import generate_grid_city

        city = generate_grid_city(np.random.default_rng(3), 2, 2,
                                  block_size=150.0)
        configure_tracing(enabled=True, sample_rate=1.0, reset=True)
        router = ClusterRouter(city, n_shards=2, tile_size=120.0,
                               transport="process")
        try:
            tile = sorted(router.tiles())[0]
            assert router.request(GetTile(tile=tile, encoded=True)).ok
            router.harvest_telemetry()
        finally:
            router.close()
        with TRACER.start_trace("cli.local_only"):
            pass  # a trace that never left the router process
        spans = tmp_path / "cluster-spans.jsonl"
        with open(spans, "w", encoding="utf-8") as out:
            TRACER.recorder.dump_jsonl(out)
        TRACER.configure(enabled=False)

        assert main(["obs", "trace", "--input", str(spans)]) == 0
        assert capsys.readouterr().out.endswith(
            f"2 trace(s), {len(TRACER.recorder.spans())} span(s) total\n")
        assert main(["obs", "trace", "--cluster", "--input",
                     str(spans)]) == 0
        out = capsys.readouterr().out
        assert "cluster.request.GetTile" in out and "shard.serve" in out
        assert "cli.local_only" not in out
        assert out.startswith("trace ") and "1 trace(s)" in out


def _load_tool(name: str):
    """Import ``tools/<name>.py`` (the tools are scripts, not a package)."""
    import importlib.util
    import os

    path = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "tools", f"{name}.py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocsConsistency:
    def test_handbooks_name_only_live_metrics_knobs_and_flags(self):
        """``tools/check_docs.py`` in-process: a handbook naming a deleted
        metric, constructor argument or CLI flag fails tier-1, not only
        the CI lint job."""
        assert _load_tool("check_docs").main() == 0  # stale refs printed

    def test_metric_names_and_types_are_pinned(self):
        """Every metric name a deployment exports, with its Prometheus
        ``# TYPE``, equals ``tests/data/metric_names.txt``: renaming,
        dropping or retyping a metric is a deliberate edit of that file."""
        pinned = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "data", "metric_names.txt")
        with open(pinned, encoding="utf-8") as fh:
            want = dict(line.split() for line in fh if line.strip())
        assert _load_tool("check_docs")._metric_universe() == want

    def test_doc_naming_a_retired_subcommand_fails(self, tmp_path):
        """The CLI check runs both ways: a doc that tells a reader to run
        a subcommand the parser does not register is a stale reference."""
        tool = _load_tool("check_docs")
        (tmp_path / "docs").mkdir()
        (tmp_path / "README.md").write_text(
            "python -m repro generate ... python -m repro obs smoke\n")
        (tmp_path / "docs" / "RUNBOOK.md").write_text(
            "Run `python -m repro cluster-bench city.json --shards 1,2`.\n")
        errors = []
        tool.check_cli_docs(errors, root=str(tmp_path))
        assert os.path.join("docs", "RUNBOOK.md") + \
            ": `python -m repro cluster-bench` is not a registered " \
            "subcommand" in errors
        assert not any("`generate`" in e or "`obs`" in e for e in errors)


class TestDeadSurface:
    """``tools/check_dead.py`` in-process, plus re-added dead surface it
    must catch (each mutation edits an in-memory copy of the tree)."""

    @pytest.fixture(scope="class")
    def tool(self):
        tool = _load_tool("check_dead")
        yield tool
        # the per-file caches hold every parsed tree; later tests should
        # not pay for them in garbage collection
        for cached in (tool._parse_one, tool._references, tool._file_calls,
                       tool._used_names):
            cached.cache_clear()

    @staticmethod
    def _hits(tool, path, old, new):
        files = tool.load_tree()
        assert old in files[path]
        files[path] = files[path].replace(old, new, 1)
        return tool.failures(files)

    def test_tree_has_no_dead_surface(self, tool):
        assert tool.main() == 0  # hits are printed
        assert len(tool.ALLOW) + len(tool.SEAMS) < 20

    def test_readded_breaker_for_fails(self, tool):
        hits = self._hits(
            tool, "src/repro/ingest/breaker.py", "class CircuitBreaker:",
            "def breaker_for(stage):\n"
            "    return CircuitBreaker(stage)\n\n\n"
            "class CircuitBreaker:")
        assert any("dead definition repro.ingest.breaker.breaker_for" in h
                   for h in hits), hits

    def test_readded_unused_clock_option_fails(self, tool):
        hits = self._hits(
            tool, "src/repro/serve/service.py",
            "service_latency_s: float = 0.0) -> None:",
            "service_latency_s: float = 0.0,\n"
            "                 clock=time.monotonic) -> None:")
        assert any("MapService(clock=)" in h for h in hits), hits

    def test_readded_unused_import_fails(self, tool):
        hits = self._hits(tool, "src/repro/serve/api.py",
                          "import enum\n", "import enum\nimport shelve\n")
        assert any("unused import shelve" in h for h in hits), hits


def test_macrobench_imports_resolve():
    """macrobench's modules import against this tree: renaming or removing
    anything they import fails here, not in the benchmark run. Nothing is
    built; a subprocess keeps macrobench's top-level module names off this
    interpreter's path."""
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    code = ("import sys; sys.path[:0] = sys.argv[1:]; "
            "import tapes, workloads, layers")
    subprocess.run([sys.executable, "-c", code,
                    os.path.join(repo, "src"),
                    os.path.join(repo, "macrobench")],
                   check=True, timeout=120)
