"""CLI smoke and behaviour tests (each subcommand end to end)."""

import pytest

from repro.cli import main


class TestListing:
    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        for name in ("vopd", "mpeg4", "dsp", "netproc"):
            assert name in out

    def test_topologies(self, capsys):
        assert main(["topologies", "--cores", "12"]) == 0
        out = capsys.readouterr().out
        assert "mesh-3x4" in out
        assert "butterfly-4ary2fly" in out

    def test_topologies_reports_unavailable(self, capsys):
        assert main(["topologies", "--cores", "16"]) == 0
        out = capsys.readouterr().out
        assert "octagon" in out and "not available" in out

    def test_library(self, capsys):
        assert main(["library", "--max-radix", "5"]) == 0
        out = capsys.readouterr().out
        assert "area mm2" in out and "5x" in out


class TestMapAndSelect:
    def test_map_dsp_mesh(self, capsys):
        assert main([
            "map", "--app", "dsp", "--topology", "mesh",
            "--capacity", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "assignment:" in out
        assert "arm" in out

    def test_select_dsp(self, capsys):
        assert main([
            "select", "--app", "dsp", "--capacity", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "best:" in out
        assert "butterfly" in out

    def test_select_with_fallback(self, capsys):
        assert main([
            "select", "--app", "dsp", "--fallback",
        ]) == 0
        out = capsys.readouterr().out
        assert "attempted" in out

    def test_bad_app_rejected_by_argparse(self):
        with pytest.raises(SystemExit):
            main(["select", "--app", "doom"])

    def test_map_requires_topology_or_file(self, capsys):
        assert main(["map", "--app", "dsp"]) == 1
        assert "--topology" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["sqlite:", "bogus:x"])
    def test_bad_cache_spec_is_one_error_line(
        self, capsys, tmp_path, monkeypatch, spec
    ):
        # Neither a silent cold run nor a stray store on disk.
        monkeypatch.chdir(tmp_path)
        assert main(["select", "--app", "dsp", "--cache", spec]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: invalid cache backend")
        assert captured.err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


class TestSynthesize:
    def test_synthesize_dsp(self, capsys):
        assert main(["synthesize", "--app", "dsp"]) == 0
        out = capsys.readouterr().out
        assert "syn-" in out
        assert "best:" in out

    def test_synthesize_save_and_reuse(self, capsys, tmp_path):
        path = tmp_path / "fabric.json"
        assert main([
            "synthesize", "--app", "vopd", "--save-topology", str(path),
            "--strategies", "greedy", "--concentrations", "4",
            "--degrees", "4",
        ]) == 0
        assert path.exists()
        capsys.readouterr()
        # The saved fabric maps and generates without re-synthesis.
        assert main([
            "map", "--app", "vopd", "--topology-file", str(path),
        ]) == 0
        assert "assignment:" in capsys.readouterr().out
        assert main([
            "generate", "--app", "vopd", "--topology-file", str(path),
        ]) == 0
        assert "sc_main" in capsys.readouterr().out

    def test_select_synthesize_races_library(self, capsys):
        assert main([
            "select", "--app", "vopd", "--synthesize", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "mesh-3x4" in out  # library still in the table
        assert "syn-" in out      # synthesized candidates race it

    def test_select_topology_file_joins_library(self, capsys, tmp_path):
        path = tmp_path / "fabric.json"
        assert main([
            "synthesize", "--app", "dsp", "--save-topology", str(path),
        ]) == 0
        capsys.readouterr()
        assert main([
            "select", "--app", "dsp", "--capacity", "1000",
            "--topology-file", str(path),
        ]) == 0
        out = capsys.readouterr().out
        assert "butterfly" in out and "syn-" in out


class TestSimulateAndGenerate:
    def test_simulate(self, capsys):
        assert main([
            "simulate", "--app", "netproc", "--topology", "clos",
            "--rate", "0.1", "--cycles", "800", "--warmup", "200",
            "--drain", "800",
        ]) == 0
        out = capsys.readouterr().out
        assert "avg latency" in out

    def test_simulate_named_pattern(self, capsys):
        assert main([
            "simulate", "--app", "netproc", "--topology", "mesh",
            "--rate", "0.05", "--pattern", "uniform",
            "--cycles", "600", "--warmup", "200", "--drain", "600",
        ]) == 0
        assert "mesh" in capsys.readouterr().out

    def test_simulate_campaign(self, capsys):
        assert main([
            "simulate", "--app", "dsp", "--topology", "mesh",
            "--rates", "0.1,0.4", "--patterns", "app,uniform",
            "--seeds", "1", "--cycles", "600", "--warmup", "200",
            "--drain", "600", "--jobs", "2",
        ]) == 0
        out = capsys.readouterr().out
        assert "campaign: dsp-filter" in out
        assert "saturation rates" in out

    def test_simulate_campaign_markdown(self, capsys):
        assert main([
            "simulate", "--app", "dsp", "--topology", "mesh",
            "--rates", "0.1", "--patterns", "uniform,adversarial",
            "--cycles", "400", "--warmup", "100", "--drain", "400",
            "--markdown",
        ]) == 0
        out = capsys.readouterr().out
        assert "| pattern |" in out
        assert "bit_reverse" in out  # mesh's adversarial permutation

    def test_simulate_campaign_bad_rates(self, capsys):
        code = main([
            "simulate", "--app", "dsp", "--topology", "mesh",
            "--rates", "0.4,0.1",
        ])
        assert code == 1
        assert "increasing" in capsys.readouterr().err

    def test_simulate_campaign_malformed_rates(self, capsys):
        code = main([
            "simulate", "--app", "dsp", "--topology", "mesh",
            "--rates", "0.1,abc",
        ])
        assert code == 1
        assert "comma-separated" in capsys.readouterr().err

    def test_simulate_campaign_adversarial_alias_deduped(self, capsys):
        # On mesh, 'adversarial' resolves to bit_reverse; listing both
        # must not double-count the pattern.
        assert main([
            "simulate", "--app", "dsp", "--topology", "mesh",
            "--rates", "0.1", "--patterns", "bit_reverse,adversarial",
            "--cycles", "400", "--warmup", "100", "--drain", "400",
        ]) == 0
        out = capsys.readouterr().out
        assert out.count("bit_reverse ") == 1  # one curve row, not two

    def test_generate_to_file(self, capsys, tmp_path):
        out_file = tmp_path / "dsp.cpp"
        assert main([
            "generate", "--app", "dsp", "--topology", "butterfly",
            "--capacity", "1000", "--output", str(out_file),
        ]) == 0
        assert out_file.exists()
        text = out_file.read_text()
        assert "sc_main" in text

    def test_generate_infeasible_returns_error(self, capsys):
        code = main([
            "generate", "--app", "mpeg4", "--topology", "butterfly",
            "--capacity", "500",
        ])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_explore_dsp(self, capsys):
        assert main([
            "explore", "--app", "dsp", "--topology", "mesh",
            "--capacity", "1000",
        ]) == 0
        out = capsys.readouterr().out
        assert "DO" in out and "SA" in out
        assert "Pareto" in out
