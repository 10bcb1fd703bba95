import copy
import csv
import itertools
import json
import re
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from adaptive_lqr import (
    AdaptiveLqError,
    DisturbanceModel,
    DomainError,
    ExcitationSchedule,
    Gain,
    PlantModel,
    QMatrix,
    Scenario,
    ValueMatrix,
    admissible_rho,
    alpha_of,
    consistent_start,
    contraction_rho_root,
    corollary_bound_check,
    simulate,
)
from adaptive_lqr import certificates, cli, riccati
from adaptive_lqr.cli import main

PHI = (1.0 + np.sqrt(5.0)) / 2.0
# B B' of entries 1e304 makes the doubling solve singular in doubles.
BIG_PLANT = {"A": [[1e152, 0.0], [0.0, 1e152]], "B": [[1e152], [1e152]]}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSolveCommand:
    def test_golden_ratio_plant(self, tmp_path):
        cfg = write_config(tmp_path, {"command": "solve",
                                      "plant": {"A": [[1.0]], "B": [[1.0]]},
                                      "beta": 2.1})
        assert main(["solve", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert abs(summary["p"][0][0] - PHI) < 1e-9
        assert abs(summary["k"][0][0] + 1.0 / PHI) < 1e-9
        assert summary["member"] is True

    def test_summary_reports_the_error_estimate(self, tmp_path):
        # The golden-ratio plant's true relative error is within twice the
        # reported first-order estimate, which is within tol.
        cfg = write_config(tmp_path, {"plant": {"A": [[1.0]], "B": [[1.0]]}, "tol": 1e-3})
        assert main(["solve", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        err = abs(summary["p"][0][0] - PHI) / PHI
        assert 0.0 < err <= 2.0 * summary["error_estimate"] + 1e-14
        assert summary["error_estimate"] <= 1e-3

    def test_zero_plant(self, tmp_path):
        cfg = write_config(tmp_path, {"plant": {"A": [[0.0]], "B": [[1.0]]}})
        assert main(["solve", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["p"] == [[1.0]]
        assert summary["k"] == [[0.0]]

    def test_large_input_plant_is_a_member(self, tmp_path):
        # lambda_min(Q) is 1 exactly, and eigvalsh gives it only to about
        # eps lambda_max = 3e-8 here; the verdict reads only lambda_max.
        cfg = write_config(tmp_path, {"plant": {"A": [[0.5, 0.1], [0.0, 0.3]],
                                                "B": [[1e4], [7e3]]}, "beta": 1e9})
        assert main(["solve", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        assert json.loads((tmp_path / "out" / "summary.json").read_text())["member"] is True

    def test_not_stabilizable_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"plant": {"A": [[2.0]], "B": [[0.0]]}})
        assert main(["solve", cfg, "--out-dir", str(tmp_path / "out")]) == 2

    def test_plant_past_square_max_exit_2(self, tmp_path, capsys):
        # 1e154 squares past the largest double: the doubling solve ends in
        # NotStabilizable, never in an SVD or overflow traceback.
        cfg = write_config(tmp_path, {"plant": {"A": [[1e154]], "B": [[1.0]]}})
        assert main(["solve", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "not stabilizable" in err and "Traceback" not in err

    def test_q_that_overflows_exit_2(self, tmp_path, capsys):
        # P = 1 solves, but Q holds B'PB = 1e320: an error summary, no NaN.
        cfg = write_config(tmp_path, {"plant": {"A": [[0.5]], "B": [[1e160]]}})
        assert main(["solve", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary == {"error": "Overflow: Q = I + [A B]' P [A B] overflows"}
        assert "Traceback" not in capsys.readouterr().err

    def test_plant_solved_once(self, tmp_path, monkeypatch):
        calls = []
        solve = riccati.solve_dare

        def counting(plant, *args, **kwargs):
            calls.append(kwargs.get("p0"))
            return solve(plant, *args, **kwargs)

        monkeypatch.setattr(riccati, "solve_dare", counting)
        monkeypatch.setattr(cli, "solve_dare", counting)
        cfg = write_config(tmp_path, {"plant": {"A": [[0.5, 0.1], [0.0, 0.4]],
                                                "B": [[1.0], [0.2]]}})
        assert main(["solve", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        assert calls == [None]

    def test_round_trip_into_types(self, tmp_path):
        cfg = write_config(tmp_path, {"plant": {"A": [[0.5, 0.1], [0.0, 0.4]],
                                                "B": [[1.0], [0.2]]}})
        assert main(["solve", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        P = ValueMatrix(np.asarray(summary["p"]))
        q = QMatrix(np.asarray(summary["q"]), n=2, m=1)
        k = Gain(np.asarray(summary["k"]))
        assert np.array_equal(P.P, np.asarray(summary["p"]))
        assert np.array_equal(q.Q, np.asarray(summary["q"]))
        assert k.K.shape == (1, 2)


class TestConfigValidation:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"plant": {"A": [[0.0]], "B": [[1.0]]},
                                      "horizons": 10})
        assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 1
        assert "horizons" in capsys.readouterr().err

    def test_malformed_json_line_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "command": "solve",\n  broken\n}')
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert "line 3" in err

    @pytest.mark.parametrize("content, needle", [
        (None, "cannot read config"),
        ("[1, 2]", "config must be a JSON object"),
    ], ids=["unreadable", "not_an_object"])
    def test_unusable_config_exits_1(self, tmp_path, capsys, content, needle):
        path = tmp_path / "config.json"
        if content is None:
            path.mkdir()
        else:
            path.write_text(content)
        assert main(["solve", str(path)]) == 1
        err = capsys.readouterr().err
        assert needle in err and "Traceback" not in err

    def test_command_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"command": "solve",
                                      "plant": {"A": [[0.0]], "B": [[1.0]]}})
        assert main(["simulate", cfg]) == 1

    def test_missing_plant(self, tmp_path):
        cfg = write_config(tmp_path, {"horizon": 10})
        assert main(["simulate", cfg]) == 1

    def test_certify_gamma_below_beta(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"beta": 2.0, "gamma": 1.0, "instances": 1})
        assert main(["certify", cfg]) == 1
        assert "DomainError" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("field, disturbance", [
        ("sequence", {"kind": "external_sequence", "sequence": [[0.1, 0.1, 0.1]] * 5}),
        ("delta_a", {"kind": "linear_unmodeled", "delta_a": [[0.1]], "delta_b": [[0.0]]}),
        ("delta_b", {"kind": "filtered_unmodeled", "delta_a": [[0.1, 0.0], [0.0, 0.1]],
                     "delta_b": [[0.0, 0.0], [0.0, 0.0]], "pole": 0.5}),
    ])
    def test_disturbance_shape_against_plant(self, tmp_path, capsys, command, field, disturbance):
        payload = {"plant": {"A": [[0.5, 0.0], [0.0, 0.5]], "B": [[1.0], [0.0]]},
                   "horizon": 20, "disturbance": disturbance}
        if command == "sweep":
            payload["sweep"] = {"beta": [1.5, 2.0]}
        cfg = write_config(tmp_path, payload)
        assert main([command, cfg, "--out-dir", str(tmp_path / "out")]) == 1
        assert f"disturbance.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("field, value", [("amplitude", float("inf")),
                                              ("amplitude", float("nan")),
                                              ("decay_rate", 1.5)])
    def test_excitation_scalar_out_of_range(self, tmp_path, capsys, command, field, value):
        excitation = {"amplitude": 1.0, "decay_rate": 0.9, field: value}
        payload = {"plant": {"A": [[0.5]], "B": [[1.0]]}, "horizon": 20,
                   "excitation": excitation}
        if command == "sweep":
            payload["sweep"] = {"excitation_amplitude": [1.0]}
        cfg = write_config(tmp_path, payload)
        assert main([command, cfg, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        # A non-finite number is rejected by the parser, which names the field
        # path; a finite out-of-range one by the schedule, inside 'excitation'.
        expected = f"'excitation.{field}'" if not np.isfinite(value) else "'excitation'"
        assert expected in err and field in err and "Traceback" not in err

    @pytest.mark.parametrize("command, payload, argv, needle", [
        ("certify", {"instances": 1, "rho": -1.0}, [], "'rho'"),
        ("certify", {"instances": 1, "rho_scale": -0.5}, [], "'rho_scale'"),
        ("certify", {"instances": 1}, ["--seed", "-1"], "'seed'"),
        ("certify", {"instances": 1, "n": 0}, [], "'n'"),
        ("certify", {"instances": 1, "m": -1}, [], "'m'"),
        ("certify", {"instances": 1, "beta": 1.001, "n": 3}, [], "beta = 1.001"),
        ("solve", {"tol": float("nan")}, [], "'tol'"),
        ("simulate", {"controller_tol": float("nan")}, [], "unknown key 'controller_tol'"),
        ("simulate", {"fallback_gain": [[1.0, 2.0]]}, [], "fallback_gain"),
        ("simulate", {"excitation": {"amplitude": 1.0, "seed": 3}}, [],
         "unknown key 'seed' in 'excitation'"),
        ("sweep", {"sweep": {"disturbance_magnitude": [1e308, float("inf")]}}, [],
         "'sweep.disturbance_magnitude[1]'"),
        ("sweep", {"sweep": {"excitation_amplitude": [-1.0]}}, [],
         "'sweep.excitation_amplitude[0]'"),
        ("sweep", {"seed": -3}, [], "'seed'"),
        ("simulate", {"disturbance": {"kind": "fooo", "delta_a": [[0.1]]}}, [],
         "'disturbance': kind must be one of"),
        ("simulate", {"disturbance": {"kind": "external_sequence"}}, [],
         "'disturbance': sequence is required"),
        ("solve", {"max_iter": 100}, [], "unknown key 'max_iter'"),
        ("simulate", {"excitation": {"kind": "decaying", "amplitude": 1.0}}, [],
         "unknown key 'kind' in 'excitation'"),
        ("certify", {"instances": 1, "rho": 0.1, "rho_scale": 0.5}, [],
         "at most one of 'rho' and 'rho_scale'"),
        ("simulate", {"horizon": 0}, [], "'horizon'"),
        ("simulate", {"x0": [1, 2]}, [], "'x0'"),
    ], ids=["certify_rho_negative", "certify_rho_scale_negative", "certify_seed_negative",
            "certify_n_zero", "certify_m_negative", "certify_sampler_budget", "solve_tol_nan",
            "simulate_controller_tol_nan", "simulate_fallback_gain_shape",
            "simulate_excitation_seed_unknown", "sweep_magnitude_infinite",
            "sweep_amplitude_negative", "sweep_seed_negative", "simulate_disturbance_kind",
            "simulate_disturbance_sequence_missing", "solve_max_iter_unknown",
            "simulate_excitation_kind_unknown",
            "certify_rho_and_rho_scale",
            "simulate_horizon_zero", "simulate_x0_length"])
    def test_malformed_input_exits_1_naming_the_field(self, tmp_path, capsys, monkeypatch,
                                                      command, payload, argv, needle):
        # Only the sampler-budget case reaches the search; keep it short.
        monkeypatch.setattr(certificates, "MAX_SAMPLE_TRIES", 5)
        if command != "certify":
            payload = {"plant": {"A": [[0.5]], "B": [[1.0]]}, **payload}
        if command in ("simulate", "sweep"):
            payload = {"horizon": 5, **payload}
        cfg = write_config(tmp_path, payload)
        assert main([command, cfg, "--out-dir", str(tmp_path / "out"), *argv]) == 1
        err = capsys.readouterr().err
        assert needle in err and "Traceback" not in err

    @pytest.mark.parametrize("command, payload, code, needle", [
        ("solve", {"plant": BIG_PLANT}, 2, "not stabilizable"),
        ("solve", {"beta": 1e155}, 1, "'beta'"),
        ("certify", {"instances": 1, "beta": 1e155}, 1, "'beta'"),
        ("sweep", {"sweep": {"beta": [2.0, 1e155]}}, 1, "'sweep.beta[1]'"),
        ("certify", {"instances": 3, "rho": 1e50}, 1, "'rho'"),
        ("certify", {"instances": 3, "rho": 1e150}, 1, "'rho'"),
        ("certify", {"instances": 1, "rho": 1e155}, 1, "'rho'"),
        ("certify", {"instances": 1, "rho_scale": 1e100}, 1, "'rho_scale'"),
    ], ids=["solve_singular_doubling", "solve_beta", "certify_beta", "sweep_beta",
            "certify_rho_1e50", "certify_rho_1e150", "certify_rho_1e155",
            "certify_rho_scale"])
    def test_huge_numbers_end_in_a_typed_exit(self, tmp_path, capsys, command, payload,
                                              code, needle):
        if command != "certify" and "plant" not in payload:
            payload = {"plant": {"A": [[0.5]], "B": [[1.0]]}, **payload}
        if command == "sweep":
            payload = {"horizon": 5, **payload}
        cfg = write_config(tmp_path, payload)
        assert main([command, cfg, "--out-dir", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert needle in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("field, value", [("lambda", 2.0), ("lambda", 0.0),
                                              ("sigma0_scale", -1.0), ("controller_tol", "1e-11"),
                                              ("beta", 5.0), ("gamma", 50.0)])
    def test_scenario_scalar_exits_1_naming_the_field(self, tmp_path, capsys, command,
                                                      field, value):
        # A lambda outside (0, 1] used to fail only inside simulate; sweep then
        # exited 0 with the error in every row.  A scenario key that changes
        # nothing (the controller's solve tolerance, a top-level beta or gamma;
        # a sweep takes beta and gamma from its grid) is an unknown key.
        cfg = write_config(tmp_path, {"plant": {"A": [[0.5]], "B": [[1.0]]}, "horizon": 5,
                                      field: value})
        assert main([command, cfg, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        kind = "unknown key" if field in ("controller_tol", "beta", "gamma") else "DomainError"
        assert f"'{field}'" in err and kind in err and "Traceback" not in err
        assert not (tmp_path / "out" / "sweep.csv").exists()

    @pytest.mark.parametrize("scale", [1e-170, 1e200, 1e308])
    def test_extreme_sigma0_scale_logs_finite_residuals(self, tmp_path, capsys, scale):
        # |Sigma Q Sigma| underflows to 0 (1e-170) or overflows (1e200, 1e308) on
        # the first steps; the relative residual is then taken on rescaled data.
        # At 1e308, Sigma0 + Sigma0' overflows too, but Sigma0 is symmetric and valid.
        cfg = write_config(tmp_path, {
            "plant": {"A": [[0.9, 0.2], [0.0, 0.8]], "B": [[1.0], [0.5]]}, "horizon": 30,
            "sigma0_scale": scale, "seed": 3,
            "excitation": {"amplitude": 1.0}})
        assert main(["simulate", cfg, "--out-dir", str(tmp_path / "sim")]) == 0
        rows = read_rows(tmp_path / "sim" / "trajectory.csv")
        solved = [float(r["eq6_residual"]) for r in rows if r["fallback"] == "0"]
        assert solved and np.all(np.isfinite(solved))
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "sweep")]) == 0
        rows = read_rows(tmp_path / "sweep" / "sweep.csv")
        assert rows and all(r["error"] == "" for r in rows)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    @pytest.mark.parametrize("disturbance, key", [
        ({"kind": "zero", "sequence": [[0.1]]}, "sequence"),
        ({"kind": "zero", "delta_a": [[0.1]]}, "delta_a"),
        ({"kind": "zero", "delta_b": [[0.1]]}, "delta_b"),
        ({"kind": "external_sequence", "sequence": [[0.1]], "delta_a": [[0.1]]}, "delta_a"),
        ({"kind": "linear_unmodeled", "delta_a": [[0.1]], "delta_b": [[0.0]],
          "sequence": [[0.1]]}, "sequence"),
    ], ids=["zero_sequence", "zero_delta_a", "zero_delta_b", "external_delta_a",
            "linear_sequence"])
    def test_disturbance_array_the_kind_does_not_read_exits_1(self, tmp_path, capsys, command,
                                                              disturbance, key):
        cfg = write_config(tmp_path, {"plant": {"A": [[0.5]], "B": [[1.0]]}, "horizon": 5,
                                      "disturbance": disturbance})
        assert main([command, cfg, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{key} is not read by kind '{disturbance['kind']}'" in err
        assert "'disturbance'" in err and "Traceback" not in err

    @pytest.mark.parametrize("key, value", [("instances", 50), ("n", 3), ("m", 2)])
    def test_certify_sampling_key_beside_plant_exits_1(self, tmp_path, capsys, key, value):
        cfg = write_config(tmp_path, {"plant": {"A": [[0.5]], "B": [[1.0]]}, key: value})
        assert main(["certify", cfg, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"'{key}'" in err and "'plant'" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "reports.json").exists()

    @pytest.mark.parametrize("payload, needle", [
        ({"plant": {"A": [[0.5, 0.0], [0.0]], "B": [[1.0], [0.0]]}}, "'plant.A'"),
        ({"x0": ["one"]}, "x0"),
        ({"disturbance": {"kind": "external_sequence", "sequence": [[0.1], [0.2, 0.3]]}},
         "'disturbance.sequence'"),
    ], ids=["ragged_plant_a", "string_in_x0", "ragged_sequence"])
    def test_malformed_array_exits_1_naming_the_field(self, tmp_path, capsys, payload, needle):
        payload = {"plant": {"A": [[0.5]], "B": [[1.0]]}, "horizon": 5, **payload}
        cfg = write_config(tmp_path, payload)
        assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert needle in err and "Traceback" not in err


# Small valid configs; the fuzz replaces one field of one of them.
FUZZ_BASES = {
    "solve": {"command": "solve", "seed": 0, "beta": 2.0, "tol": 1e-10,
              "plant": {"A": [[0.5, 0.1], [0.0, 0.4]], "B": [[1.0], [0.2]]}},
    "simulate": {"plant": {"A": [[0.5]], "B": [[1.0]]}, "horizon": 5, "x0": [1.0],
                 "lambda": 0.99, "fallback_gain": [[0.0]],
                 "excitation": {"amplitude": 1.0, "decay_rate": 0.9},
                 "disturbance": {"kind": "external_sequence", "sequence": [[0.1], [0.2]]}},
    "certify": {"seed": 3, "instances": 1, "n": 1, "m": 1, "beta": 2.0, "gamma": 20.0,
                "rho_scale": 0.5, "checks": ["theorem1", "lemma1", "lyapunov"]},
    "sweep": {"plant": {"A": [[0.5]], "B": [[1.0]]}, "horizon": 5, "t0": "auto",
              "disturbance": {"kind": "linear_unmodeled", "delta_a": [[0.1]], "delta_b": [[0.0]]},
              "sweep": {"beta": [2.0], "rho_scale": [0.5], "excitation_amplitude": [1.0]}},
}


def _field_paths(node, prefix=()):
    """Paths to every value in a config, nested objects and list entries included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


FUZZ_FIELDS = [(command, path) for command, base in FUZZ_BASES.items()
               for path in _field_paths(base)]
# Integers stay small, so a drawn horizon, instance count or size runs quickly.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6)


class TestConfigFuzz:
    @settings(derandomize=True, max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(FUZZ_FIELDS), JSON_VALUES)
    def test_any_field_value_ends_in_an_exit_code(self, tmp_path, monkeypatch, field, value):
        # A drawn n or m reaches the membership sampler; keep its budget short.
        monkeypatch.setattr(certificates, "MAX_SAMPLE_TRIES", 5)
        command, path = field
        cfg = copy.deepcopy(FUZZ_BASES[command])
        node = cfg
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        code = main([command, write_config(tmp_path, cfg), "--out-dir", str(tmp_path / "out")])
        assert code in (0, 1, 2, 3, 4)


class TestSimulateCommand:
    def test_readme_config_runs(self, tmp_path):
        # The config reference's simulate example lists only keys the parser accepts.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("`simulate` (and the scenario base of `sweep`):", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        cfg = write_config(tmp_path, json.loads(block))
        assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 0

    def test_readme_sweep_rows_share_one_trajectory(self, tmp_path):
        # README's simulate block under README's sweep grids: the rows differ only in beta,
        # which never enters the simulation, so every row certifies one trajectory.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        sim = readme.split("`simulate` (and the scenario base of `sweep`):", 1)[1]
        grids = readme.split("`sweep`: the scenario base above", 1)[1]
        cfg = json.loads(re.search(r"```json\n(.*?)```", sim, re.S).group(1))
        cfg.update(json.loads("{" + re.search(r"```json\n(.*?)```", grids, re.S).group(1) + "}"))
        out = tmp_path / "out"
        assert main(["sweep", write_config(tmp_path, cfg), "--out-dir", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == len(cfg["sweep"]["beta"]) > 1
        assert len({r["realized_cost"] for r in rows}) == 1

    @pytest.mark.parametrize("seed", [0, 5, 2**70])
    def test_run_seed_is_the_excitation_seed(self, tmp_path, seed):
        # The trajectory is the library's for an excitation schedule with the run seed.
        cfg = write_config(tmp_path, {"plant": {"A": [[0.9, 0.2], [0.0, 0.8]],
                                                "B": [[1.0], [0.5]]}, "horizon": 70,
                                      "excitation": {"amplitude": 3.0, "decay_rate": 0.95},
                                      "seed": seed})
        assert main(["simulate", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        plant = PlantModel([[0.9, 0.2], [0.0, 0.8]], [[1.0], [0.5]])
        exc = ExcitationSchedule(1, amplitude=3.0, decay_rate=0.95, seed=seed)
        simulate(Scenario(plant=plant, disturbance=DisturbanceModel.zero(), x0=[1.0, 1.0],
                          horizon=70, sigma0=1e-3 * np.eye(3), excitation=exc)
                 ).to_csv(tmp_path / "library.csv")
        assert ((tmp_path / "out" / "trajectory.csv").read_bytes()
                == (tmp_path / "library.csv").read_bytes())

    def test_seed_flag_changes_the_trajectory(self, tmp_path):
        # This config set excitation.seed, which pinned the excitation whatever --seed said.
        cfg = write_config(tmp_path, {"plant": {"A": [[0.5]], "B": [[1.0]]}, "horizon": 30,
                                      "excitation": {"amplitude": 1.0}})
        traces = []
        for seed in ("5", "7"):
            out = tmp_path / seed
            assert main(["simulate", cfg, "--seed", seed, "--out-dir", str(out)]) == 0
            traces.append((out / "trajectory.csv").read_bytes())
        assert traces[0] != traces[1]

    def test_noiseless_gain_convergence_summary(self, tmp_path):
        cfg = write_config(tmp_path, {
            "plant": {"A": [[0.5]], "B": [[1.0]]},
            "horizon": 1000,
            "x0": [1.0],
            "excitation": {"amplitude": 10000.0, "decay_rate": 0.9},
            "seed": 3,
        })
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["gain_error"] <= 1e-6
        assert summary["final_state_norm"] <= 1e-6
        assert not summary["overflowed"]
        assert (out / "trajectory.csv").exists()

    def test_zero_initial_state_zero_columns(self, tmp_path):
        cfg = write_config(tmp_path, {
            "plant": {"A": [[0.5]], "B": [[1.0]]},
            "horizon": 20,
            "x0": [0.0],
        })
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
        rows = read_rows(out / "trajectory.csv")
        assert all(float(r["x_0"]) == 0.0 and float(r["u_0"]) == 0.0 for r in rows)

    def test_plant_too_large_to_solve_has_no_gain_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"plant": BIG_PLANT, "horizon": 5, "x0": [0.0, 0.0]})
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["gain_error"] is None
        assert "Traceback" not in capsys.readouterr().err

    def test_plant_whose_q_overflows_has_no_gain_error(self, tmp_path):
        # The plant solves (P near 1), but Q = I + [A B]' P [A B] overflows at B = 1e160.
        cfg = write_config(tmp_path, {"plant": {"A": [[0.5]], "B": [[1e160]]}, "horizon": 20})
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["simulate", cfg, "--out-dir", str(out)]) == 0
        assert json.loads((out / "summary.json").read_text())["gain_error"] is None

    def test_destabilizing_disturbance_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, {
            "plant": {"A": [[0.5]], "B": [[1.0]]},
            "horizon": 300,
            "disturbance": {"kind": "linear_unmodeled",
                            "delta_a": [[2.0]], "delta_b": [[-1.0]]},
            "excitation": {"amplitude": 1.0, "decay_rate": 0.9},
            "seed": 5,
        })
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["overflowed"]
        rows = read_rows(out / "trajectory.csv")
        assert len(rows) < 300

    @pytest.mark.parametrize("payload", [
        {"plant": {"A": [[0.9, 0.2], [0.0, 0.8]], "B": [[1.0], [0.5]]}, "horizon": 70,
         "excitation": {"amplitude": 3.0, "decay_rate": 0.95}, "seed": 5},
        {"plant": {"A": [[1e200]], "B": [[1.0]]}, "x0": [1.0], "horizon": 5},
        {"plant": {"A": [[1e-100, 0.0], [0.0, 1e-100]], "B": [[0.0], [0.0]]}, "horizon": 3},
    ], ids=["settles", "overflows", "underflows"])
    def test_final_state_norm_is_numpys_norm(self, tmp_path, monkeypatch, payload):
        # sqrt(x.x), the formula np.linalg.norm uses for a vector: the same bits,
        # inf once the square overflows, 0 once it underflows, and no warning.
        logs = []
        monkeypatch.setattr(cli, "simulate", lambda sc: logs.append(simulate(sc)) or logs[-1])
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            main(["simulate", write_config(tmp_path, payload), "--out-dir", str(out)])
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(logs[0].x_final))
        assert json.loads((out / "summary.json").read_text())["final_state_norm"] == norm

    @pytest.mark.parametrize("plant, x0", [
        ({"A": [[1e308, 1e308], [0, 0.5]], "B": [[1.0], [0.0]]}, [2.0, -2.0]),
        ({"A": [[1e200]], "B": [[1.0]]}, [1.0]),
    ], ids=["state_overflows", "norm_overflows"])
    def test_state_beyond_the_double_range_exit_3(self, tmp_path, capsys, plant, x0):
        cfg = write_config(tmp_path, {"plant": plant, "x0": x0, "horizon": 5})
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["overflowed"] and summary["steps"] == 1
        assert not summary["final_state_norm"] <= 1e12
        assert "Warning" not in capsys.readouterr().err


class TestCertifyCommand:
    def test_random_instances_all_pass(self, tmp_path):
        cfg = write_config(tmp_path, {
            "checks": ["theorem1"],
            "instances": 100,
            "beta": 2.0,
            "rho": 0.01,
            "n": 2,
            "m": 1,
            "seed": 10,
        })
        out = tmp_path / "out"
        assert main(["certify", cfg, "--out-dir", str(out)]) == 0
        payload = json.loads((out / "reports.json").read_text())
        reports = payload["reports"]
        assert len(reports) == 100
        assert all(d["hypotheses_hold"] for d in reports)
        assert all(d["margins"]["conclusion"] >= -1e-8 for d in reports)

    def test_explicit_tightness_instance(self, tmp_path):
        cfg = write_config(tmp_path, {
            "plant": {"A": [[0.5]], "B": [[1.0]]},
            "checks": ["theorem1", "lyapunov"],
            "beta": 2.0,
            "rho": 0.0,
            "seed": 1,
        })
        out = tmp_path / "out"
        assert main(["certify", cfg, "--out-dir", str(out)]) == 0
        payload = json.loads((out / "reports.json").read_text())
        margins = {d["name"]: d["margins"]["conclusion"] for d in payload["reports"]}
        assert abs(margins["theorem1"]) <= 1e-8
        assert abs(margins["lyapunov_decay"]) <= 1e-8

    def test_explicit_plant_not_stabilizable_names_the_field(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"plant": {"A": [[2.0]], "B": [[0.0]]}, "rho": 0.01})
        assert main(["certify", cfg, "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "'plant'" in err and "not stabilizable" in err and "Traceback" not in err

    def test_rho_scale_sets_every_rho(self, tmp_path):
        cfg = write_config(tmp_path, {"instances": 4, "beta": 3.0, "rho_scale": 0.5,
                                      "checks": ["theorem1", "lemma1"], "seed": 6})
        out = tmp_path / "out"
        assert main(["certify", cfg, "--out-dir", str(out)]) == 0
        reports = json.loads((out / "reports.json").read_text())["reports"]
        assert len(reports) == 8
        assert all(r["details"]["rho"] == 0.5 * contraction_rho_root(3.0) for r in reports)

    @pytest.mark.parametrize("checks, rho, alpha", [
        (["theorem1", "lemma1", "lyapunov"], 0.01, True),
        (["lemma1"], 0.5, False),
    ], ids=["defined", "undefined"])
    def test_gamma_records_alpha_where_it_is_defined(self, tmp_path, checks, rho, alpha):
        # At beta = 2, rho = 0.5 breaks 2 beta^2 rho (rho+2) < 1: no alpha, still exit 0.
        cfg = write_config(tmp_path, {"instances": 2, "checks": checks, "rho": rho,
                                      "gamma": 10.0, "seed": 4})
        out = tmp_path / "out"
        assert main(["certify", cfg, "--out-dir", str(out)]) == 0
        reports = json.loads((out / "reports.json").read_text())["reports"]
        assert len(reports) == 2 * len(checks)
        if alpha:
            assert all(r["details"]["alpha"] == alpha_of(2.0, rho, 10.0) for r in reports)
        else:
            assert all("alpha" not in r["details"] for r in reports)

    def test_falsified_conclusion_exit_4(self, tmp_path, monkeypatch):
        # The inequality cannot actually be falsified; fake a violating report
        # to exercise the exit contract.
        import adaptive_lqr.cli as cli_mod
        from adaptive_lqr import CertificateReport

        def fake_margin(plant, P, kt, beta, rho, sigma=None, sigma_hat=None):
            return CertificateReport(name="theorem1", hypotheses={},
                                     hypotheses_hold=True, conclusion_margin=-1.0)

        monkeypatch.setattr(cli_mod, "theorem1_margin", fake_margin)
        cfg = write_config(tmp_path, {"checks": ["theorem1"], "instances": 1, "seed": 0})
        assert main(["certify", cfg, "--out-dir", str(tmp_path / "out")]) == 4


def sweep_config(tmp_path, **overrides):
    payload = {
        "plant": {"A": [[0.5]], "B": [[1.0]]},
        "horizon": 250,
        "x0": [1.0],
        "excitation": {"amplitude": 50.0, "decay_rate": 0.9},
        "sweep": {
            "beta": [2.0],
            "rho_scale": [0.7],
            "gamma": [40.0],
            "excitation_amplitude": [50.0],
            "disturbance_magnitude": [0.0],
        },
        "seed": 8,
    }
    payload.update(overrides)
    return write_config(tmp_path, payload)


class TestSweepCommand:
    def test_row_matches_direct_evaluation(self, tmp_path):
        cfg = sweep_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", cfg, "--out-dir", str(out)]) == 0
        row, = read_rows(out / "sweep.csv")
        beta, gamma = 2.0, 40.0
        rho = 0.7 * admissible_rho(beta)
        assert float(row["alpha"]) == alpha_of(beta, rho, gamma)
        assert float(row["rho_star"]) == admissible_rho(beta)
        assert row["hypotheses_hold"] == "1"
        assert float(row["corollary_margin"]) > 0.0
        assert row["error"] == ""

    def test_alpha_positive_across_beta_grid(self, tmp_path):
        cfg = sweep_config(tmp_path, sweep={
            "beta": [1.2, 2.0, 5.0],
            "rho_scale": [0.5],
            "gamma": [100.0],
            "excitation_amplitude": [50.0],
            "disturbance_magnitude": [0.0],
        })
        out = tmp_path / "out"
        assert main(["sweep", cfg, "--out-dir", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 3
        assert all(float(r["alpha"]) > 0.0 for r in rows)

    def test_no_excitation_with_disturbance_breaks_hypotheses(self, tmp_path):
        cfg = sweep_config(tmp_path,
                           disturbance={"kind": "external_sequence",
                                        "sequence": [[0.05]] * 250},
                           sweep={
                               "beta": [2.0],
                               "rho_scale": [0.7],
                               "gamma": [40.0],
                               "excitation_amplitude": [0.0],
                               "disturbance_magnitude": [1.0],
                           })
        out = tmp_path / "out"
        assert main(["sweep", cfg, "--out-dir", str(out)]) == 0
        row, = read_rows(out / "sweep.csv")
        rho = 0.7 * admissible_rho(2.0)
        assert float(row["max_rho_t"]) > rho
        assert row["hypotheses_hold"] == "0"

    def test_t0_found_column(self, tmp_path):
        # rho = 0 is never reached, so that row certifies from t0 = 0 with
        # t0_found 0; a row whose disturbance overflows has no run and no t0.
        cfg = sweep_config(tmp_path,
                           disturbance={"kind": "external_sequence", "sequence": [[10.0]]},
                           sweep={"beta": [2.0], "rho_scale": [0.7, 0.0], "gamma": [40.0],
                                  "disturbance_magnitude": [0.0, 1e308]})
        out = tmp_path / "out"
        assert main(["sweep", cfg, "--out-dir", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert list(rows[0])[7:9] == ["t0", "t0_found"]
        assert [(r["t0"] != "", r["t0_found"]) for r in rows] == [
            (True, "1"), (False, ""), (True, "0"), (False, "")]
        assert rows[2]["t0"] == "0" and rows[2]["hypotheses_hold"] == "0"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = sweep_config(tmp_path, sweep={
            "beta": [1.5, 2.0],
            "rho_scale": [0.5, 0.7],
            "gamma": [40.0],
            "excitation_amplitude": [10.0, 50.0],
            "disturbance_magnitude": [0.0],
        })
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", cfg, "--out-dir", str(out_a)]) == 0
        assert main(["sweep", cfg, "--out-dir", str(out_b)]) == 0
        assert (out_a / "sweep.csv").read_bytes() == (out_b / "sweep.csv").read_bytes()

    def test_sweep_without_grids_reproduces_simulate(self, tmp_path):
        cfg = write_config(tmp_path, {"plant": {"A": [[0.5]], "B": [[1.0]]}, "horizon": 300,
                                      "excitation": {"amplitude": 5.0, "decay_rate": 0.9},
                                      "seed": 4})
        assert main(["simulate", cfg, "--out-dir", str(tmp_path / "sim")]) == 0
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "sweep")]) == 0
        summary = json.loads((tmp_path / "sim" / "summary.json").read_text())
        row, = read_rows(tmp_path / "sweep" / "sweep.csv")
        assert float(row["realized_cost"]) == summary["total_cost"]

    @pytest.mark.parametrize("seed", [3, 8])
    def test_run_seed_is_each_rows_excitation_seed(self, tmp_path, seed):
        cfg = sweep_config(tmp_path, seed=seed, sweep={"excitation_amplitude": [10.0, 50.0]})
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        rows = read_rows(tmp_path / "out" / "sweep.csv")
        plant = PlantModel([[0.5]], [[1.0]])
        for row, amp in zip(rows, [10.0, 50.0]):
            exc = ExcitationSchedule(1, amplitude=amp, decay_rate=0.9, seed=seed)
            log = simulate(Scenario(plant=plant, disturbance=DisturbanceModel.zero(),
                                    x0=[1.0], horizon=250, sigma0=1e-3 * np.eye(2),
                                    excitation=exc))
            assert row["realized_cost"] == format(log.state_input_cost(), ".17g")
            assert row["max_rho_t"] == format(np.max(log.rho[int(row["t0"]):]), ".17g")

    def test_integer_t0_used_as_given(self, tmp_path):
        cfg = sweep_config(tmp_path, t0=3, sweep={"beta": [2.0], "rho_scale": [0.7],
                                                  "gamma": [40.0],
                                                  "excitation_amplitude": [10.0, 50.0]})
        out = tmp_path / "out"
        assert main(["sweep", cfg, "--out-dir", str(out)]) == 0
        rows = read_rows(out / "sweep.csv")
        assert len(rows) == 2
        plant = PlantModel([[0.5]], [[1.0]])
        rho = 0.7 * admissible_rho(2.0)
        for idx, (row, amp) in enumerate(zip(rows, [10.0, 50.0])):
            exc = ExcitationSchedule.decaying(1, amplitude=amp, decay_rate=0.9,
                                              seed=8)
            log = simulate(Scenario(plant=plant, disturbance=DisturbanceModel.zero(),
                                    x0=[1.0], horizon=250, excitation=exc))
            t0 = min(3, len(log) - 1)
            assert int(row["t0"]) == t0
            report = corollary_bound_check(log, plant, t0, 40.0, 2.0, rho)
            assert float(row["corollary_margin"]) == report.conclusion_margin

    def test_failing_row_does_not_abort_the_sweep(self, tmp_path, capsys):
        cfg = sweep_config(tmp_path,
                           disturbance={"kind": "external_sequence", "sequence": [[10.0]]},
                           sweep={"beta": [2.0], "gamma": [40.0, 1e160],
                                  "disturbance_magnitude": [1.0, 1e308]})
        out = tmp_path / "out"
        assert main(["sweep", cfg, "--out-dir", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        rows = read_rows(out / "sweep.csv")
        assert [r["error"] != "" for r in rows] == [False, True, True, True]
        assert "disturbance magnitude" in rows[1]["error"]
        assert "gamma" in rows[2]["error"] and rows[2]["t0"] != ""
        assert rows[3]["t0"] == "" and rows[3]["realized_cost"] == "nan"

    def test_both_rho_forms_rejected(self, tmp_path):
        cfg = sweep_config(tmp_path, sweep={
            "beta": [2.0],
            "rho": [0.01],
            "rho_scale": [0.5],
            "gamma": [40.0],
            "excitation_amplitude": [1.0],
            "disturbance_magnitude": [0.0],
        })
        assert main(["sweep", cfg, "--out-dir", str(tmp_path / "out")]) == 1

    def test_row_agrees_with_library_path(self, tmp_path):
        cfg_path = sweep_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep", cfg_path, "--out-dir", str(out)]) == 0
        row, = read_rows(out / "sweep.csv")
        # Rebuild the scenario the sweep ran and evaluate the certificate directly.
        plant = PlantModel([[0.5]], [[1.0]])
        exc = ExcitationSchedule.decaying(1, amplitude=50.0, decay_rate=0.9,
                                          seed=8)
        scenario = Scenario(plant=plant, disturbance=DisturbanceModel.zero(),
                            x0=[1.0], horizon=250, excitation=exc,
                            beta=2.0, gamma=40.0)
        log = simulate(scenario)
        rho = 0.7 * admissible_rho(2.0)
        t0 = consistent_start(log, rho)
        report = corollary_bound_check(log, plant, t0, 40.0, 2.0, rho)
        assert float(row["corollary_margin"]) == report.conclusion_margin
        assert int(row["t0"]) == t0

    @staticmethod
    def reference_rows(cfg, plant, scenario_base):
        """sweep.csv's rows computed one grid point at a time: a simulate per row."""
        fmt = cli._fmt
        rows = []
        for beta, rho_scale, gamma, amp, mag in itertools.product(
                *(cfg["sweep"][key] for key in ("beta", "rho_scale", "gamma",
                                                "excitation_amplitude",
                                                "disturbance_magnitude"))):
            rho_star = admissible_rho(beta)
            rho = rho_scale * rho_star
            error, alpha = "", np.nan
            margin = max_rho_t = cost = np.nan
            t0, found, holds, overflowed = "", "", False, False
            try:
                alpha = alpha_of(beta, rho, gamma)
                if not alpha > 0.0:
                    error = f"alpha: alpha = {alpha!r} must be a finite number in (0, inf)"
                    alpha = np.nan
            except DomainError as exc:
                error = f"alpha: {exc}"
            try:
                log = simulate(replace(
                    scenario_base, disturbance=scenario_base.disturbance.scaled(mag),
                    excitation=replace(scenario_base.excitation, amplitude=amp)))
                cost, overflowed = log.state_input_cost(), log.overflowed
                start = consistent_start(log, rho)
                t0, found = min(start or 0, len(log) - 1), str(int(start is not None))
                max_rho_t = float(np.max(log.rho[t0:]))
                if not error:
                    report = corollary_bound_check(log, plant, t0, gamma, beta, rho)
                    margin, holds = report.conclusion_margin, report.hypotheses_hold
                    holds = holds and not log.overflowed
            except AdaptiveLqError as exc:
                error = str(exc)
            rows.append([fmt(beta), fmt(rho), fmt(gamma), fmt(amp), fmt(mag), fmt(alpha),
                         fmt(rho_star), str(t0), found, fmt(max_rho_t), str(int(holds)),
                         fmt(margin), fmt(cost), str(int(overflowed)), error])
        return rows

    @pytest.mark.parametrize("amps, runs", [([0.0, 50.0], 2), ([0.0, -0.0], 2)],
                             ids=["amplitudes", "signed_zero_amplitudes"])
    def test_one_simulation_per_distinct_amplitude_and_magnitude(self, tmp_path, monkeypatch,
                                                                 amps, runs):
        # 2 betas x 2 gammas (one below a beta, so alpha fails) x 2 amplitudes x 2
        # magnitudes, one of which overflows the payload: the rows are those of a
        # simulate per row, byte for byte, from one simulate per (amplitude, magnitude)
        # that runs; -0.0 and 0.0 are two runs.
        disturbance = {"kind": "linear_unmodeled", "delta_a": [[0.1]], "delta_b": [[2.0]]}
        sweep = {"beta": [1.5, 2.0], "rho_scale": [0.5], "gamma": [1.8, 40.0],
                 "excitation_amplitude": amps, "disturbance_magnitude": [0.5, 1e308]}
        payload = {"plant": {"A": [[0.5]], "B": [[1.0]]}, "horizon": 200, "x0": [1.0],
                   "excitation": {"amplitude": 100.0, "decay_rate": 0.9},
                   "disturbance": disturbance, "sweep": sweep, "seed": 3}
        calls = []
        monkeypatch.setattr(cli, "simulate", lambda sc: calls.append(sc) or simulate(sc))
        out = tmp_path / "out"
        assert main(["sweep", write_config(tmp_path, payload), "--out-dir", str(out)]) == 0
        assert len(calls) == runs
        assert [str(sc.excitation.amplitude) for sc in calls] == [str(a) for a in amps]
        scenario = cli._parse_scenario(payload, 3)
        expected = self.reference_rows(payload, scenario.plant, scenario)
        with open(out / "sweep.csv", newline="") as fh:
            written = list(csv.reader(fh))[1:]
        assert written == expected
        errors = {row[-1].split(" ")[0] for row in written}
        assert {"alpha:", "disturbance", ""} <= errors and "alpha" not in errors
        # (1.5, 1.8) passes alpha_of with a negative alpha, which is an alpha error.
        assert any(row[-1].startswith("alpha: alpha = -") and row[5] == "nan" for row in written)
