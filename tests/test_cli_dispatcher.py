"""Tests for the unified CLI surface (``python -m repro``) and the placer
registry facade.

Every subcommand must be reachable both through the top-level dispatcher
and through its historical ``python -m repro.<subsystem>`` alias, with
identical behaviour under a fixed seed; the shared flags must spell the
same everywhere; and malformed parameters must fail with actionable
messages, not stack traces.
"""

import json

import pytest

import repro
from repro.cli import main as repro_main
from repro.cli import parse_params, parse_placer_params, parse_value
from repro.errors import ExperimentError, ServiceError
from repro.experiments.cli import main as experiments_main
from repro.experiments.placers import (
    PlacerSpec,
    list_placers,
    placer_names,
    resolve_placer,
)
from repro.service.__main__ import main as service_main


class TestDispatcherRoundTrips:
    def test_experiments_list_identical_via_both_entries(self, capsys):
        assert experiments_main(["list", "--json"]) == 0
        via_alias = capsys.readouterr().out
        assert repro_main(["experiments", "list", "--json"]) == 0
        via_dispatcher = capsys.readouterr().out
        assert via_alias == via_dispatcher
        payload = json.loads(via_dispatcher)
        assert "smoke" in [s["name"] for s in payload["scenarios"]]

    def test_experiments_run_identical_under_fixed_seed(self, tmp_path, capsys):
        argv = [
            "run", "--scenario", "smoke", "--trials", "1", "--seed", "7",
            "--placers", "greedy,random",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert experiments_main(argv + ["--output", str(a)]) == 0
        assert repro_main(["experiments"] + argv + ["--output", str(b)]) == 0
        capsys.readouterr()

        def canonical(path):
            payload = json.loads(path.read_text())
            # Wall-clock fields legitimately differ between runs.
            for record in payload["records"]:
                for key in list(record):
                    if key.endswith("_wall_s") or key == "solver_stats":
                        record.pop(key)
            payload.pop("summary", None)
            return payload

        assert canonical(a) == canonical(b)

    def test_workers_spelling_still_accepted(self, tmp_path, capsys):
        code = experiments_main(
            ["run", "--scenario", "smoke", "--trials", "1", "--workers", "1",
             "--placers", "random", "--output", str(tmp_path / "r.json")]
        )
        capsys.readouterr()
        assert code == 0

    def test_service_identical_via_both_entries(self, tmp_path, capsys):
        argv = [
            "run", "--param", "n_vms=4", "--param", "hours=2",
            "--param", "max_tasks=3", "--seed", "11", "--no-oracle",
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert service_main(argv + ["--output", str(a)]) == 0
        assert repro_main(["service"] + argv + ["--output", str(b)]) == 0
        capsys.readouterr()

        def canonical(path):
            payload = json.loads(path.read_text())
            for key in ("placement_wall_s", "session_wall_s"):
                payload["report"].pop(key, None)
            return payload

        assert canonical(a) == canonical(b)

    def test_service_param_overrides_match_dedicated_flags(self, tmp_path, capsys):
        flags = [
            "run", "--n-vms", "4", "--hours", "2", "--max-tasks", "3",
            "--seed", "11", "--no-oracle", "--output", str(tmp_path / "a.json"),
        ]
        params = [
            "run", "--param", "n_vms=4", "--param", "hours=2",
            "--param", "max_tasks=3", "--seed", "11", "--no-oracle",
            "--output", str(tmp_path / "b.json"),
        ]
        assert service_main(flags) == 0
        assert service_main(params) == 0
        capsys.readouterr()
        a = json.loads((tmp_path / "a.json").read_text())
        b = json.loads((tmp_path / "b.json").read_text())
        assert a["report"]["apps"] == b["report"]["apps"]

    def test_dispatcher_requires_a_subsystem(self, capsys):
        with pytest.raises(SystemExit):
            repro_main([])
        capsys.readouterr()


class TestParamHelpers:
    def test_parse_value_casts(self):
        assert parse_value("true") is True
        assert parse_value("7") == 7
        assert parse_value("0.5") == 0.5
        assert parse_value("hose") == "hose"

    def test_parse_params_error_names_flag_and_shows_shape(self):
        with pytest.raises(ExperimentError) as excinfo:
            parse_params(["oops"])
        message = str(excinfo.value)
        assert "--param" in message and "KEY=VALUE" in message and "oops" in message

    def test_parse_placer_params_error_points_at_param_for_session_keys(self):
        with pytest.raises(ExperimentError) as excinfo:
            parse_placer_params(["time_limit_s=5"])
        message = str(excinfo.value)
        assert "PLACER:KEY=VALUE" in message
        assert "--param" in message  # redirects the common mix-up

    def test_parse_placer_params_canonicalises_aliases(self):
        parsed = parse_placer_params(
            ["choreo-optimal:time_limit_s=5", "optimal:mip_rel_gap=0.01"]
        )
        assert parsed == {"ilp": {"time_limit_s": 5, "mip_rel_gap": 0.01}}

    def test_service_rejects_unknown_session_param(self, capsys):
        code = service_main(["run", "--param", "n_vmz=4"])
        assert code == 2
        err = capsys.readouterr().err
        assert "n_vmz" in err and "n_vms" in err and "--placer-param" in err

    def test_service_rejects_placer_params_for_other_placers(self, capsys):
        code = service_main(
            ["run", "--placer", "greedy", "--placer-param", "ilp:time_limit_s=5"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "ilp" in err and "greedy" in err

    def test_service_threads_placer_params_into_the_session(self, tmp_path, capsys):
        code = service_main(
            ["run", "--param", "n_vms=4", "--param", "hours=1",
             "--max-tasks", "3", "--no-oracle",
             "--placer", "ilp", "--placer-param", "choreo-optimal:time_limit_s=5",
             "--output", str(tmp_path / "r.json")]
        )
        capsys.readouterr()
        assert code == 0

    def test_greedy_refuses_placer_params_by_name(self, capsys):
        code = service_main(
            ["run", "--placer", "greedy", "--placer-param", "greedy:n_clusters=4"]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "'greedy' takes no parameters" in err and "n_clusters" in err


class TestPlacerFacade:
    def test_resolve_placer_canonicalises_aliases(self):
        assert resolve_placer("choreo-optimal").name == "ilp"
        assert resolve_placer("choreo-greedy").name == "greedy"
        assert resolve_placer("greedy").name == "greedy"

    def test_resolve_placer_unknown_name_lists_registry(self):
        with pytest.raises(ExperimentError) as excinfo:
            resolve_placer("nope")
        message = str(excinfo.value)
        assert "greedy" in message and "choreo-optimal" in message

    def test_list_placers_covers_registry_in_order(self):
        specs = list_placers()
        assert [spec.name for spec in specs] == placer_names()
        assert all(isinstance(spec, PlacerSpec) for spec in specs)

    def test_repro_package_reexports_facade_lazily(self):
        assert repro.resolve_placer is resolve_placer
        assert "resolve_placer" in repro.__all__
        assert "GreedyPlacer" in dir(repro)
        with pytest.raises(AttributeError):
            repro.no_such_symbol

    def test_curated_all_resolves_completely(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestServiceErrorType:
    def test_session_param_errors_are_service_errors(self):
        with pytest.raises(ServiceError):
            from repro.service.__main__ import _apply_session_overrides

            class Args:
                param = ["bogus=1"]

            _apply_session_overrides(Args())
