import csv
import json

import numpy as np
import pytest

from adaptive_lqr import (
    CertificateReport,
    DisturbanceModel,
    ExcitationSchedule,
    Gain,
    PlantModel,
    QMatrix,
    Scenario,
    ValueMatrix,
    admissible_rho,
    alpha_of,
    consistent_start,
    corollary_bound_check,
    simulate,
)
from adaptive_lqr.cli import main

PHI = (1.0 + np.sqrt(5.0)) / 2.0


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

    def test_zero_plant(self, tmp_path):
        cfg = write_config(tmp_path, {"plant": {"A": [[0.0]], "B": [[1.0]]}})
        assert main(["solve", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["p"] == [[1.0]]
        assert summary["k"] == [[0.0]]

    def test_not_stabilizable_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"plant": {"A": [[2.0]], "B": [[0.0]]}})
        assert main(["solve", cfg, "--out-dir", str(tmp_path / "out")]) == 2

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


class TestSimulateCommand:
    def test_noiseless_gain_convergence_summary(self, tmp_path):
        cfg = write_config(tmp_path, {
            "plant": {"A": [[0.5]], "B": [[1.0]]},
            "horizon": 1000,
            "x0": [1.0],
            "excitation": {"kind": "decaying", "amplitude": 10000.0, "decay_rate": 0.9},
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

    def test_destabilizing_disturbance_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, {
            "plant": {"A": [[0.5]], "B": [[1.0]]},
            "horizon": 300,
            "disturbance": {"kind": "linear_unmodeled",
                            "delta_a": [[2.0]], "delta_b": [[-1.0]]},
            "excitation": {"kind": "decaying", "amplitude": 1.0, "decay_rate": 0.9},
            "seed": 5,
        })
        out = tmp_path / "out"
        assert main(["simulate", cfg, "--out-dir", str(out)]) == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["overflowed"]
        rows = read_rows(out / "trajectory.csv")
        assert len(rows) < 300


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
        reports = [CertificateReport.from_json_dict(d) for d in payload["reports"]]
        assert len(reports) == 100
        assert all(r.hypotheses_hold for r in reports)
        assert all(r.conclusion_margin >= -1e-8 for r in reports)

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

    def test_reports_round_trip(self, tmp_path):
        cfg = write_config(tmp_path, {"instances": 3, "seed": 2})
        out = tmp_path / "out"
        assert main(["certify", cfg, "--out-dir", str(out)]) == 0
        payload = json.loads((out / "reports.json").read_text())
        for d in payload["reports"]:
            back = CertificateReport.from_json_dict(d)
            assert back.to_json_dict() == d

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
        "excitation": {"kind": "decaying", "amplitude": 50.0, "decay_rate": 0.9},
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
        from adaptive_lqr.cli import _derive_seed
        plant = PlantModel([[0.5]], [[1.0]])
        exc = ExcitationSchedule.decaying(1, amplitude=50.0, decay_rate=0.9,
                                          seed=_derive_seed(8, 0))
        scenario = Scenario(plant=plant, disturbance=DisturbanceModel.zero(),
                            x0=[1.0], horizon=250, excitation=exc,
                            beta=2.0, gamma=40.0, seed=_derive_seed(8, 0))
        log = simulate(scenario)
        rho = 0.7 * admissible_rho(2.0)
        t0 = consistent_start(log, rho)
        report = corollary_bound_check(log, plant, t0, 40.0, 2.0, rho)
        assert float(row["corollary_margin"]) == report.conclusion_margin
        assert int(row["t0"]) == t0
