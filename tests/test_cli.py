"""Config parsing, CSV emission, reports and exit codes."""

import numpy as np
import pytest

from jungckit.cli import (
    ConfigParseError,
    ConfigValidationError,
    main,
    parse_config_text,
    read_jungck_csv,
    run_experiment,
)

MINIMAL_JUNGCK = """
scenario: jungck
jungck:
  s: {name: scale, dim: 1, value: 2.0}
  t: {name: scale, dim: 1, value: 0.5}
  a: {form: constant, value: 0.5}
  b: {form: constant, value: 0.5}
  z0: [1.0]
  steps: 50
"""

VENTER = """
scenario: venter
venter:
  alpha: {form: inv, k: 2}
  x0: 1.0
  steps: 500
  eps: 1.0e-2
"""


class TestParsing:
    def test_minimal_jungck_config(self):
        cfg = parse_config_text(MINIMAL_JUNGCK)
        assert cfg.scenario == "jungck"
        assert cfg.jungck.cfg.steps == 50
        assert cfg.jungck.cfg.pair.t_norm == pytest.approx(0.5)

    def test_yaml_syntax_error_reports_location(self):
        with pytest.raises(ConfigParseError, match="line"):
            parse_config_text("scenario: [unclosed")

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigValidationError, match="unknown key"):
            parse_config_text(MINIMAL_JUNGCK + "\nbogus: 1\n")

    def test_unknown_nested_key(self):
        text = MINIMAL_JUNGCK.replace("steps: 50", "steps: 50\n  extra_knob: 3")
        with pytest.raises(ConfigValidationError, match="extra_knob"):
            parse_config_text(text)

    def test_blend_value_outside_clamp_rejected(self):
        text = MINIMAL_JUNGCK.replace("b: {form: constant, value: 0.5}",
                                      "b: {form: constant, value: 1.5}")
        with pytest.raises(ConfigValidationError, match="outside clamp"):
            parse_config_text(text)

    def test_negative_sigma_rejected(self):
        text = VENTER + "  sigma: -1.0\n"
        with pytest.raises(ConfigValidationError, match="sigma"):
            parse_config_text(text)

    def test_scenario_block_must_exist(self):
        with pytest.raises(ConfigValidationError, match="no matching config block"):
            parse_config_text("scenario: venter\njungck:\n  s: {name: identity, dim: 1}\n"
                              "  t: {name: identity, dim: 1}\n  a: {form: constant, value: 0.5}\n"
                              "  b: {form: constant, value: 0.5}\n  z0: [1.0]\n  steps: 5\n")

    def test_singular_s_is_config_error(self):
        text = MINIMAL_JUNGCK.replace("s: {name: scale, dim: 1, value: 2.0}",
                                      "s: {name: zero, dim: 1}")
        with pytest.raises(ConfigValidationError, match="minimum modulus"):
            parse_config_text(text)

    def test_matrix_operator_and_gate_list(self):
        cfg = parse_config_text("""
scenario: jungck
jungck:
  s: {matrix: [[2.0, 0.0], [0.0, 2.0]]}
  t: {matrix: [[0.1, 0.2], [0.05, 0.1]]}
  a: {form: one-minus-inv, k: 3}
  b: {form: list, values: [0.5, 0.6, 0.7, 0.8, 0.9]}
  gate_z: {mode: list, values: [1, 0, 1]}
  gate_y: {mode: threshold, tau: 1.0e-6}
  z0: [1.0, 0.5]
  steps: 5
""")
        assert cfg.jungck.cfg.dim == 2
        assert cfg.jungck.cfg.gates_z.values == (1, 0, 1)


class TestJungckRun:
    def test_artifacts_and_hand_value(self, tmp_path):
        cfg = parse_config_text(MINIMAL_JUNGCK)
        code = run_experiment(cfg, output_dir=tmp_path, quiet=True)
        assert code == 0
        report = (tmp_path / "report.txt").read_text()
        assert "PASS identity-residual" in report
        assert not any(line.startswith("FAIL") for line in report.splitlines())
        cols = read_jungck_csv(tmp_path / "trace.csv")
        assert cols["z[0]"][1] == 0.4375
        assert cols["Sz[0]"][2] == 0.177734375

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = parse_config_text(MINIMAL_JUNGCK)
        run_experiment(cfg, output_dir=tmp_path / "a", quiet=True)
        run_experiment(parse_config_text(MINIMAL_JUNGCK), output_dir=tmp_path / "b", quiet=True)
        assert (tmp_path / "a" / "trace.csv").read_bytes() == (tmp_path / "b" / "trace.csv").read_bytes()
        assert (tmp_path / "a" / "report.txt").read_bytes() == (tmp_path / "b" / "report.txt").read_bytes()

    def test_csv_round_trip_is_exact(self, tmp_path):
        from jungckit import run as run_engine

        cfg = parse_config_text(MINIMAL_JUNGCK)
        run_experiment(cfg, output_dir=tmp_path, quiet=True)
        trace = run_engine(cfg.jungck.cfg)
        cols = read_jungck_csv(tmp_path / "trace.csv")
        assert cols["z[0]"] == trace.z[:, 0].tolist()
        assert cols["Sy[0]"] == trace.sy[:, 0].tolist()
        accel_cells = [v for v in cols["ASz[0]"] if v is not None]
        assert accel_cells == trace.asz[:, 0].tolist()

    def test_empty_cells_past_correction_window(self, tmp_path):
        cfg = parse_config_text(MINIMAL_JUNGCK)
        run_experiment(cfg, output_dir=tmp_path, quiet=True)
        cols = read_jungck_csv(tmp_path / "trace.csv")
        assert cols["ASz[0]"][-1] is None and cols["ASz[0]"][-2] is None
        assert cols["identity_residual"][-1] is None


class TestOtherScenarios:
    def test_venter_run_passes(self, tmp_path):
        cfg = parse_config_text(VENTER)
        assert run_experiment(cfg, output_dir=tmp_path, quiet=True) == 0
        report = (tmp_path / "report.txt").read_text()
        assert "PASS telescoping identity" in report
        assert "PASS decay-to-zero" in report

    def test_venter_runtime_violation_fails(self, tmp_path):
        cfg = parse_config_text("""
scenario: venter
venter:
  alpha: {form: list, values: [0.5, 0.0, 0.5]}
  x0: 1.0
  steps: 3
""")
        assert run_experiment(cfg, output_dir=tmp_path, quiet=True) == 1
        assert "FAIL run aborted" in (tmp_path / "report.txt").read_text()

    def test_aitken_only_geometric(self, tmp_path):
        cfg = parse_config_text("""
scenario: aitken-only
aitken:
  sequence: {kind: geometric, limit: 3.0, coeff: 2.0, ratio: 0.5, length: 20}
""")
        assert run_experiment(cfg, output_dir=tmp_path, quiet=True) == 0
        assert "PASS geometric exactness" in (tmp_path / "report.txt").read_text()

    def test_scan_scenario(self, tmp_path):
        cfg = parse_config_text("""
scenario: stability-scan
scan: {count: 10, dim: 3, steps: 60, horizon: 60, seed: 11}
""")
        assert run_experiment(cfg, output_dir=tmp_path, quiet=True) == 0
        report = (tmp_path / "report.txt").read_text()
        assert "PASS certificate soundness: 0 violation(s)" in report
        body = (tmp_path / "trace.csv").read_text().splitlines()
        assert len(body) == 11  # header + one row per config


class TestMain:
    def write(self, tmp_path, text, name="cfg.yaml"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_exit_zero_on_pass(self, tmp_path):
        path = self.write(tmp_path, MINIMAL_JUNGCK)
        assert main(["--config", path, "--output", str(tmp_path / "out"), "--quiet"]) == 0

    def test_exit_two_on_parse_error(self, tmp_path):
        path = self.write(tmp_path, "scenario: [nope")
        assert main(["--config", path, "--quiet"]) == 2

    def test_exit_two_on_validation_error(self, tmp_path):
        path = self.write(tmp_path, MINIMAL_JUNGCK + "\nwat: true\n")
        assert main(["--config", path, "--quiet"]) == 2

    def test_exit_two_on_missing_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "missing.yaml"), "--quiet"]) == 2

    def test_steps_override(self, tmp_path):
        path = self.write(tmp_path, MINIMAL_JUNGCK)
        out = tmp_path / "out"
        assert main(["--config", path, "--output", str(out), "--steps", "10", "--quiet"]) == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 11

    def test_scenario_override_needs_block(self, tmp_path):
        path = self.write(tmp_path, MINIMAL_JUNGCK)
        assert main(["--config", path, "--scenario", "venter", "--quiet"]) == 2

    def test_tolerance_override_venter(self, tmp_path):
        path = self.write(tmp_path, VENTER)
        out = tmp_path / "out"
        # eps tightened below the reachable decay: the verdict must flip to FAIL
        assert main(["--config", path, "--output", str(out), "--tolerance", "1e-9", "--quiet"]) == 1
        assert "FAIL decay-to-zero" in (out / "report.txt").read_text()

    def test_tolerance_override_jungck_rebuilds_pair(self, tmp_path):
        path = self.write(tmp_path, MINIMAL_JUNGCK)
        out = tmp_path / "out"
        assert main(["--config", path, "--output", str(out), "--tolerance", "1e-8", "--quiet"]) == 0
        assert len((out / "trace.csv").read_text().splitlines()) == 51
        # s = 2 has minimum modulus 2: a tolerance above it makes the pair singular
        assert main(["--config", path, "--tolerance", "3.0", "--quiet"]) == 2

    def test_nan_schedule_parameter_exits_two(self, tmp_path):
        text = MINIMAL_JUNGCK.replace("a: {form: constant, value: 0.5}", "a: {form: inv-pow, p: .nan}")
        assert main(["--config", self.write(tmp_path, text), "--quiet"]) == 2

    def test_power_mode_is_an_unknown_key(self, tmp_path, capsys):
        path = self.write(tmp_path, MINIMAL_JUNGCK + "  power_mode: matrix-cached\n")
        assert main(["--config", path, "--quiet"]) == 2
        assert "unknown key(s) ['power_mode']" in capsys.readouterr().err
