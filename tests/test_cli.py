"""Tests for the command-line interface."""

import json

import pytest

from repro.api.service import ProtectionService
from repro.cli import build_parser, main
from repro.graph.builders import GraphBuilder
from repro.graph.serialization import load_graph, save_graph
from repro.server.encoding import build_policy, decode_protection_request, result_payload
from repro.workloads.social import figure1_graph

#: Policy specs that cannot be read: a structured error, never a traceback.
MALFORMED_POLICIES = {
    "lattice-not-an-object": {"lattice": [1, 2]},
    "dominates-not-a-list": {"lattice": {"Confidential": 5}},
    "dominates-a-string": {"lattice": {"Confidential": "Public"}},
}


class TestParser:
    def test_known_commands(self):
        parser = build_parser()
        for command in ("table1", "figure7", "figure8", "figure9", "figure10", "all", "motifs"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_protect_arguments(self):
        parser = build_parser()
        args = parser.parse_args(
            ["protect", "in.json", "out.json", "--strategy", "hide", "--protect-edge", "a,b"]
        )
        assert args.strategy == "hide"
        assert args.protect_edge == ["a,b"]

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "command", ["table1", "figure7", "figure8", "figure9", "figure10", "all", "serve"]
    )
    def test_no_command_takes_a_workers_flag(self, command, capsys):
        # Every command runs on the one serial path; no flag selects another.
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--workers", "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


class TestCommands:
    def test_table1_output(self, capsys):
        assert main(["table1"]) == 0
        output = capsys.readouterr().out
        assert "Table 1" in output and "naive" in output

    def test_figure7_output(self, capsys):
        assert main(["figure7"]) == 0
        output = capsys.readouterr().out
        assert "bipartite" in output

    def test_motifs_listing(self, capsys):
        assert main(["motifs"]) == 0
        output = capsys.readouterr().out
        assert "star" in output and "protected_edge" in output

    def test_figure10_small(self, capsys):
        assert main(["figure10", "--nodes", "40"]) == 0
        output = capsys.readouterr().out
        assert "protect_via_surrogate" in output


class TestProtectCommand:
    def test_protect_round_trip(self, tmp_path, capsys):
        source = tmp_path / "original.json"
        target = tmp_path / "protected.json"
        save_graph(figure1_graph(), source)
        exit_code = main(
            [
                "protect",
                str(source),
                str(target),
                "--strategy",
                "surrogate",
                "--protect-edge",
                "f,g",
                "--report",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "protected account written" in output
        assert "path_utility" in output
        protected = load_graph(target)
        assert not protected.has_edge("f", "g")
        assert protected.has_edge("f", "j"), "surrogate edge should bridge past the protected link"

    def test_protect_rejects_malformed_edge(self, tmp_path, capsys):
        source = tmp_path / "original.json"
        save_graph(figure1_graph(), source)
        exit_code = main(["protect", str(source), str(tmp_path / "out.json"), "--protect-edge", "oops"])
        assert exit_code == 2
        assert "error" in capsys.readouterr().out

    def test_protect_json_output(self, tmp_path, capsys):
        source = tmp_path / "original.json"
        target = tmp_path / "protected.json"
        save_graph(figure1_graph(), source)
        exit_code = main(
            ["protect", str(source), str(target), "--protect-edge", "f,g", "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["output"] == str(target)
        assert payload["strategy"] == "surrogate"
        assert payload["account"]["surrogate_edges"] >= 1
        assert 0.0 <= payload["scores"]["path_utility"] <= 1.0
        assert "generate" in payload["timings_ms"]
        assert load_graph(target).has_edge("f", "j")

    def test_protect_unknown_node_is_structured_error(self, tmp_path, capsys):
        source = tmp_path / "original.json"
        save_graph(figure1_graph(), source)
        exit_code = main(
            ["protect", str(source), str(tmp_path / "out.json"), "--protect-edge", "zzz,g"]
        )
        assert exit_code == 1
        output = capsys.readouterr().out
        assert output.startswith("error:")
        assert "zzz" in output

    def test_protect_unknown_node_json_error(self, tmp_path, capsys):
        source = tmp_path / "original.json"
        save_graph(figure1_graph(), source)
        exit_code = main(
            ["protect", str(source), str(tmp_path / "out.json"), "--protect-edge", "zzz,g", "--json"]
        )
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"]["kind"] == "NodeNotFoundError"
        assert "zzz" in payload["error"]["message"]

    def test_protect_missing_input_file(self, tmp_path, capsys):
        exit_code = main(
            ["protect", str(tmp_path / "nope.json"), str(tmp_path / "out.json")]
        )
        assert exit_code == 1
        assert "error" in capsys.readouterr().out

    def test_protect_unwritable_output_is_structured_error(self, tmp_path, capsys):
        source = tmp_path / "original.json"
        save_graph(figure1_graph(), source)
        target = tmp_path / "missing-dir-file"
        target.write_text("")  # a plain file used as a directory below
        exit_code = main(
            ["protect", str(source), str(target / "out.json"), "--json"]
        )
        assert exit_code == 1
        payload = json.loads(capsys.readouterr().out)
        assert "cannot write" in payload["error"]["message"]


class TestEditCommand:
    def write_inputs(self, tmp_path, edits, *, script_extra=None):
        source = tmp_path / "graph.json"
        save_graph(figure1_graph(), source)
        script = {"edits": edits}
        if script_extra:
            script.update(script_extra)
        script_path = tmp_path / "edits.json"
        script_path.write_text(json.dumps(script))
        return source, script_path

    def test_edit_replays_script_through_the_delta_path(self, tmp_path, capsys):
        source, script = self.write_inputs(
            tmp_path,
            [
                {"op": "add_edge", "source": "a1", "target": "g"},
                {"op": "remove_edge", "source": "a1", "target": "g"},
                {"op": "set_node_features", "node": "g", "features": {"note": "x"}},
            ],
        )
        output = tmp_path / "account.json"
        exit_code = main(["edit", str(source), str(script), "--output", str(output)])
        assert exit_code == 0
        text = capsys.readouterr().out
        assert "delta_apply" in text and "recompile_fallback" in text
        assert "protected account written" in text
        assert load_graph(output).node_count() > 0

    def test_edit_json_reports_per_edit_scores_and_maintenance(self, tmp_path, capsys):
        source, script = self.write_inputs(
            tmp_path,
            [
                {"op": "remove_edge", "source": "f", "target": "g"},
                {"op": "remove_node", "node": "j"},
            ],
        )
        exit_code = main(["edit", str(source), str(script), "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["edits"]) == 2
        first, second = payload["edits"]
        assert first["recompile_fallback_ms"] == 0.0 and first["delta_apply_ms"] > 0.0
        assert second["recompile_fallback_ms"] > 0.0  # node removal falls back
        for row in payload["edits"]:
            assert 0.0 <= row["path_utility"] <= 1.0
            assert 0.0 <= row["average_opacity"] <= 1.0
        assert "edit_session" in payload["maintenance"]

    def test_edit_bare_list_script_and_lattice_options(self, tmp_path, capsys):
        source = tmp_path / "graph.json"
        save_graph(figure1_graph(), source)
        script_path = tmp_path / "edits.json"
        script_path.write_text(
            json.dumps([{"op": "add_edge", "source": "b", "target": "g"}])
        )
        assert main(["edit", str(source), str(script_path)]) == 0
        assert "edits: 1" in capsys.readouterr().out

    def test_edit_rejects_bad_op(self, tmp_path, capsys):
        source, script = self.write_inputs(tmp_path, [{"op": "explode"}])
        assert main(["edit", str(source), str(script)]) == 2
        assert "unknown edit op" in capsys.readouterr().out

    def test_edit_missing_graph_is_structured_error(self, tmp_path, capsys):
        script_path = tmp_path / "edits.json"
        script_path.write_text("[]")
        assert main(["edit", str(tmp_path / "missing.json"), str(script_path)]) == 1
        assert "error" in capsys.readouterr().out

    def test_edit_maintenance_counts_are_per_run(self, tmp_path, capsys):
        # Regression: counters are process-global; a second invocation must
        # report only its own run, not the accumulated totals.
        source, script = self.write_inputs(
            tmp_path, [{"op": "remove_edge", "source": "f", "target": "g"}]
        )
        assert main(["edit", str(source), str(script), "--json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert main(["edit", str(source), str(script), "--json"]) == 0
        second = json.loads(capsys.readouterr().out)
        assert first["maintenance"]["edit_session"] == {"delta_applied": 1}
        assert second["maintenance"]["edit_session"] == {"delta_applied": 1}

    @pytest.mark.parametrize("case", sorted(MALFORMED_POLICIES))
    def test_edit_malformed_policy_is_a_structured_error(self, tmp_path, capsys, case):
        source, script = self.write_inputs(
            tmp_path, [{"op": "add_edge", "source": "b", "target": "g"}],
            script_extra=MALFORMED_POLICIES[case],
        )
        assert main(["edit", str(source), str(script)]) == 1
        output = capsys.readouterr().out
        assert output.startswith("error: ") and output.count("\n") == 1
        assert main(["edit", str(source), str(script), "--json"]) == 1
        assert json.loads(capsys.readouterr().out)["error"]["kind"] == "BadRequestError"


class TestServeBatchCommand:
    SPEC = {
        "lattice": {"Confidential": ["Public"]},
        "lowest": {"g": "Confidential"},
        "requests": [
            {"graph": "figure1", "privilege": "Public"},
            {"graph": "figure1", "privileges": ["Public"], "strategy": "hide"},
            {"graph": "chain", "privilege": "Confidential", "protect_edges": [["b", "c"]]},
        ],
    }

    def write_spec(self, tmp_path, **changes):
        graphs = {"figure1": figure1_graph(), "chain": GraphBuilder("chain").chain("abcd").build()}
        spec = dict(self.SPEC, graphs={}, **changes)
        for name, graph in graphs.items():
            save_graph(graph, tmp_path / f"{name}.json")
            spec["graphs"][name] = str(tmp_path / f"{name}.json")
        path = tmp_path / "batch.json"
        path.write_text(json.dumps(spec))
        return path, spec

    def test_repeat_serves_every_request_from_the_cache(self, tmp_path, capsys):
        path, _spec = self.write_spec(tmp_path)
        assert main(["serve-batch", str(path), "--repeat", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert all("cache_hit=1" in line for line in lines[:3])
        assert lines[3].startswith("cache: 3 hits / 3 misses")

    def test_json_results_equal_in_process_payloads(self, tmp_path, capsys):
        path, spec = self.write_spec(tmp_path)
        assert main(["serve-batch", str(path), "--json"]) == 0
        results = json.loads(capsys.readouterr().out)["results"]
        graphs = {name: load_graph(file) for name, file in spec["graphs"].items()}
        service = ProtectionService(None, build_policy(spec))
        expected = service.protect_many(
            [decode_protection_request(entry, graphs[entry["graph"]]) for entry in spec["requests"]]
        )
        for served, result in zip(results, expected):
            del served["timings_ms"]
            assert served == json.loads(json.dumps(result_payload(result), default=str))
        assert len(results) == len(expected) == 3

    @pytest.mark.parametrize(
        "entry",
        [
            {"graph": "figure1", "privilege": "Public", "frobnicate": True},
            {"graph": "figure1"},
            {"graph": "nowhere", "privilege": "Public"},
            {"graph": ["figure1"], "privilege": "Public"},
            {"graph": "figure1", "privilege": "Public", "strategy": "shred"},
        ],
        ids=[
            "unknown-field",
            "missing-privilege",
            "unknown-graph",
            "graph-not-a-name",
            "unknown-strategy",
        ],
    )
    def test_bad_request_entries_exit_2(self, tmp_path, capsys, entry):
        path, _spec = self.write_spec(tmp_path, requests=[entry])
        assert main(["serve-batch", str(path)]) == 2
        assert capsys.readouterr().out.startswith("error: bad batch request")


class TestServeCommand:
    def test_serve_check_probes_health_and_exits(self, capsys):
        # --port 0 binds an ephemeral port; --check probes /v1/health,
        # prints it, drains and returns 0 on an ok/degraded status.
        exit_code = main(
            ["serve", "--port", "0", "--tenant", "acme=sekrit", "--check"]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "serving check ok" in output
        assert "status=ok" in output

    def test_serve_check_json_reports_port_and_health(self, capsys):
        exit_code = main(
            [
                "serve",
                "--port", "0",
                "--tenant", "acme=sekrit",
                "--tenant", "globex",
                "--max-requests", "5",
                "--threads", "2",
                "--check",
                "--json",
            ]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["port"] > 0
        assert payload["health"]["status"] == "ok"
        assert set(payload["health"]["tenants"]) == {"acme", "globex"}

    def test_serve_rejects_empty_tenant_name(self, capsys):
        exit_code = main(["serve", "--port", "0", "--tenant", "=token"])
        assert exit_code == 2
        assert "NAME[=TOKEN]" in capsys.readouterr().out
