"""CLI: generate / stats / validate / route / taxonomy."""

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
        from repro.obs import validate_prometheus_text

        assert main(["obs", "export", str(map_file),
                     "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert validate_prometheus_text(out) == []
        # serve, ingest, perf kernels, and log counters in ONE export
        assert "serve_latency_SpatialQuery_bucket" in out
        assert "ingest_freshness_bucket" in out
        assert "perf_grid_query_box_calls" in out
        assert "log_events_error 0" in out
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

    def test_trace_sample_roundtrip_serve_bench(self, map_file, tmp_path,
                                                capsys):
        spans = tmp_path / "spans.jsonl"
        assert main(["serve-bench", str(map_file), "--workers", "1",
                     "--vehicles", "2", "--route", "300",
                     "--trace-sample", str(spans),
                     "--trace-sample-rate", "0.5"]) == 0
        assert "wrote" in capsys.readouterr().out
        assert spans.exists()

        assert main(["obs", "trace", "--input", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "fleet.request" in out
        assert "serve.request" in out

        assert main(["obs", "top", "--input", str(spans)]) == 0
        out = capsys.readouterr().out
        assert "fleet.request" in out and "count" in out

        assert main(["obs", "trace", "--input", str(spans),
                     "--trace-id", "nope"]) == 1


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
            "registry: Optional[MetricsRegistry] = None) -> None:",
            "registry: Optional[MetricsRegistry] = None,\n"
            "                 clock=time.monotonic) -> None:")
        assert any("MapService(clock=)" in h for h in hits), hits

    def test_readded_unused_import_fails(self, tool):
        hits = self._hits(tool, "src/repro/serve/api.py",
                          "import enum\n", "import enum\nimport shelve\n")
        assert any("unused import shelve" in h for h in hits), hits
