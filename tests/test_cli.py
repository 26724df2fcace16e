"""Config parsing, CSV emission, reports and exit codes."""

import copy
import csv
import functools
import math
import operator
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import assume, example, given, strategies as st

import jungckit
from jungckit import GatePolicy, Schedule, cli, diagnostics, engine, floattext, venter
from jungckit.aitken import BLOCK_ELEMENTS, accelerate_sequence
from jungckit.cli import (
    ConfigParseError,
    ConfigValidationError,
    GeometricSequence,
    main,
    parse_config_text,
    run_experiment,
    write_csv,
)
from jungckit.errors import ConfigError, InvalidArgumentError, JungckitError, NotConvergingError, SequenceTooShortError
from jungckit.model import exact_row_norms
from jungckit.scan import run_scan
from conftest import fixed_or_fresh, traced_peak
from trace_csv import read_jungck_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
JUNGCK_SCALAR = (CONFIGS / "jungck_scalar.yaml").read_text()

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

SCAN = """
scenario: stability-scan
scan: {count: 10, dim: 3, steps: 60, horizon: 60, seed: 11}
"""

AITKEN_VALUES = """
scenario: aitken-only
aitken:
  sequence: {kind: values, values: [1.0, 0.5, 0.25, 0.125, 0.0625]}
"""

VENTER_ALL_SKIPPED = """
scenario: venter
venter:
  alpha: {form: constant, value: 0.5}
  gamma: {form: constant, value: 0.5}
  sigma: 0.1
  x0: 1.0
  steps: 50
"""

DIVERGING = """
scenario: jungck
jungck:
  s: {name: identity, dim: 1}
  t: {name: scale, dim: 1, value: 1.0e+200}
  a: {form: constant, value: 0.5}
  b: {form: constant, value: 0.5}
  z0: [1.0e-250]
  steps: 10
"""

TWO_STEP_GATES_OFF = """
scenario: jungck
jungck:
  s: {name: scale, dim: 2, value: 2.0}
  t: {name: scale, dim: 2, value: 0.5}
  a: {form: constant, value: 0.5}
  b: {form: constant, value: 0.5}
  gate_z: {mode: always-off}
  gate_y: {mode: always-off}
  z0: [1.0, -0.5]
  steps: 2
"""


@pytest.fixture(params=["libyaml", "pure"])
def yaml_loader(request, monkeypatch):
    """The loader parse_config_text picks: libyaml's, or the pure-Python one
    that it falls back to when PyYAML was built without libyaml."""
    if request.param == "pure":
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    elif not hasattr(yaml, "CSafeLoader"):
        pytest.skip("PyYAML was built without libyaml")
    return request.param


#: broken documents, each ending in a line break, and where both loaders place the problem
BROKEN_YAML = [
    ("scenario: [unclosed\n", "line 2, column 1"),
    ("a: 1\n b: 2\n", "line 2, column 3"),
    ("a: 1\nb: [1, 2\nc: 3\n", "line 3, column 2"),
    ("a:\n\t- 1\n", "line 2, column 1"),
    ("key: value: other\n", "line 1, column 11"),
    ("a: [1, 2]]\n", "line 1, column 10"),
]


class TestParsing:
    def test_minimal_jungck_config(self):
        cfg = parse_config_text(MINIMAL_JUNGCK)
        assert cfg.scenario == "jungck"
        assert cfg.jungck.cfg.steps == 50
        assert cfg.jungck.cfg.pair.t_norm == pytest.approx(0.5)

    def test_yaml_syntax_error_reports_location(self):
        with pytest.raises(ConfigParseError, match="line"):
            parse_config_text("scenario: [unclosed")

    @pytest.mark.parametrize("text,where", BROKEN_YAML)
    def test_yaml_syntax_error_location_is_the_loaders_mark(self, yaml_loader, text, where):
        with pytest.raises(ConfigParseError, match=re.escape(f"config is not valid YAML ({where}): ")):
            parse_config_text(text)

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

    def test_geometric_miss_whose_square_overflows_is_finite(self, tmp_path):
        # the squares of a miss near 1e185 overflow; the norm read inf and the check failed
        text = (CONFIGS / "aitken_geometric.yaml").read_text()
        old = "limit: 3.0, coeff: 2.0, ratio: 0.5"
        assert old in text
        cfg = parse_config_text(text.replace(old, "limit: 1.0e+200, coeff: 1.0e+200, ratio: 0.7"))
        assert run_experiment(cfg, output_dir=tmp_path, quiet=True) == 0
        line = next(ln for ln in (tmp_path / "report.txt").read_text().splitlines() if "geometric exactness" in ln)
        worst = float(re.search(r"worst \|Ax - L\| = (\S+) ", line).group(1))
        assert line.startswith("PASS ") and math.isfinite(worst) and worst > 0

    def test_venter_expansion_identity_is_checked(self, tmp_path, monkeypatch):
        cfg = parse_config_text(VENTER)
        assert run_experiment(cfg, output_dir=tmp_path, quiet=True) == 0
        assert "PASS geometric-expansion identity: residual " in (tmp_path / "report.txt").read_text()
        # a final iterate off by one part in 1e6 breaks the identity
        real = venter.venter_run

        def perturbed(cfg):
            trace = real(cfg)
            trace.x = trace.x.copy()
            trace.x[-1] *= 1.0 + 1e-6
            return trace

        monkeypatch.setattr(venter, "venter_run", perturbed)
        assert run_experiment(cfg, output_dir=tmp_path, quiet=True) == 1
        assert "FAIL geometric-expansion identity: residual " in (tmp_path / "report.txt").read_text()

    @fixed_or_fresh(100)
    @given(st.integers(1, 60), st.integers(3, 400), st.integers(0, 2**32 - 1), st.floats(0.0, 0.999))
    def test_geometric_terms_match_the_per_row_powers(self, d, length, seed, top):
        rng = np.random.default_rng(seed)
        ratio = rng.uniform(-top, top, size=d)
        ratio[rng.random(d) < 0.1] = rng.choice([0.0, -0.0, 0.5, 5e-324])  # exact and subnormal ratios
        limit, coeff = rng.uniform(-5, 5, size=d), rng.uniform(-2, 2, size=d)
        want = np.array([limit + coeff * ratio ** n for n in range(length)])
        assert GeometricSequence(limit, coeff, ratio, length)[:].tobytes() == want.tobytes()

    @fixed_or_fresh(200)
    @given(st.integers(1, 8), st.integers(3, 2000), st.integers(0, 2**32 - 1))
    def test_geometric_terms_at_edge_values_match_the_per_row_powers(self, d, length, seed):
        # limits, coefficients and ratios where the rows that skip pow could go wrong
        rng = np.random.default_rng(seed)
        limit = rng.choice([0.0, -0.0, 1.0, -2.0, 0.5, 2.0 ** -1022, -(2.0 ** 1023), 5e-324, 1e-300, 1e300,
                            1.7976931348623157e308, rng.uniform(-5, 5)], size=d)
        coeff = rng.choice([0.0, -0.0, 1.0, -2.0, 1e300, -1e-300, 5e-324, rng.uniform(-2, 2)], size=d)
        ratio = rng.choice([0.0, -0.0, 0.5, -0.5, 5e-324, -0.999, 0.9999, rng.uniform(-0.999, 0.999)], size=d)
        with np.errstate(over="ignore", invalid="ignore"):  # a huge coeff over a huge limit is inf
            want = np.array([limit + coeff * ratio ** n for n in range(length)])
            got = GeometricSequence(limit, coeff, ratio, length)[:]
        assert got.tobytes() == want.tobytes()

    def test_geometric_terms_skip_pow_once_every_term_is_its_limit(self):
        # the benchmark's aitken-only shape: about 150 of 3000 rows need pow
        rng = np.random.default_rng(1)
        limit, coeff, ratio = rng.uniform(-5, 5, 50), rng.uniform(-2, 2, 50), rng.uniform(0.1, 0.8, 50)
        assert cli._settled_row(limit, coeff, ratio, 3000) < 200
        assert cli._settled_row(np.append(limit, 0.0), np.append(coeff, 1.0), np.append(ratio, 0.5), 3000) == 3000

    def test_aitken_run_holds_one_block_beyond_its_trace(self, tmp_path):
        # d=50 as in the benchmark's aitken op: the sequence is made, corrected,
        # written and checked one row block at a time, so the parse and the run
        # together hold about 0.7 MB at any length (3.4 MB at 3000 terms and 26 MB
        # at 30000 while they held the sequence, its corrected terms and gates)
        rng = np.random.default_rng(6)
        doc = {"scenario": "aitken-only", "aitken": {
            "sequence": {"kind": "geometric", "limit": rng.uniform(-5, 5, 50).tolist(),
                         "coeff": rng.uniform(-2, 2, 50).tolist(), "ratio": rng.uniform(0.1, 0.8, 50).tolist()},
            "gate": {"mode": "threshold", "tau": 1e-12}}}

        def working(length):
            doc["aitken"]["sequence"]["length"] = length
            text = yaml.safe_dump(doc)
            peak, code = traced_peak(lambda: run_experiment(parse_config_text(text), output_dir=tmp_path, quiet=True))
            assert code == 0
            return peak

        short = working(3000)
        assert working(30000) <= 1.1 * short and short < 800_000

    def test_scan_scenario(self, tmp_path):
        cfg = parse_config_text(SCAN)
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

    def test_a_utf8_config_runs_under_an_ascii_locale(self, tmp_path):
        # YAML is UTF-8: a config with a non-ASCII comment runs where the locale's codec is ASCII,
        # and trace.csv and report.txt come out as they do in this process
        path = tmp_path / "cfg.yaml"
        path.write_bytes("# \u03bc: the step size\n".encode() + MINIMAL_JUNGCK.encode())
        # the child prints its locale's codec, runs the CLI, then writes a non-ASCII cell
        child = ("import codecs, locale, pathlib, sys; from jungckit.cli import main, write_csv; "
                 "print(codecs.lookup(locale.getpreferredencoding(False)).name); code = main(sys.argv[1:]); "
                 "write_csv([('x', ['\\u03bc'])], pathlib.Path(sys.argv[4]) / 'mu.csv'); sys.exit(code)")
        env = {k: v for k, v in os.environ.items() if not k.startswith(("LC_", "LANG", "PYTHONUTF8", "PYTHONIOENCODING"))}
        env.update(LC_ALL="C", PYTHONPATH=str(Path(jungckit.__file__).resolve().parent.parent))
        done = subprocess.run([sys.executable, "-X", "utf8=0", "-c", child, "--config", str(path),
                               "--output", str(tmp_path / "child"), "--quiet"],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stdout + done.stderr
        assert done.stdout.splitlines()[0] == "ascii"
        assert main(["--config", str(path), "--output", str(tmp_path / "here"), "--quiet"]) == 0
        for name in ("trace.csv", "report.txt"):
            assert (tmp_path / "child" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()
        assert (tmp_path / "child" / "mu.csv").read_bytes() == "x\n\u03bc\n".encode()

    def test_ill_conditioned_s_is_noted_in_the_report(self, tmp_path):
        text = (MINIMAL_JUNGCK.replace("s: {name: scale, dim: 1, value: 2.0}", "s: {matrix: [[10000.0, 0.0], [0.0, 1.0]]}")
                .replace("t: {name: scale, dim: 1, value: 0.5}", "t: {name: scale, dim: 2, value: 0.5}")
                .replace("z0: [1.0]", "z0: [1.0, 1.0]"))
        out = tmp_path / "out"
        main(["--config", self.write(tmp_path, text), "--output", str(out), "--quiet"])
        notes = [line for line in (out / "report.txt").read_text().splitlines() if "solve accuracy" in line]
        assert len(notes) == 1 and notes[0].startswith("INFO solve accuracy: cond(s)=1.000e+04")
        main(["--config", self.write(tmp_path, MINIMAL_JUNGCK), "--output", str(out), "--quiet"])
        assert "solve accuracy" not in (out / "report.txt").read_text()

    @pytest.mark.parametrize("text,read", [
        # every maximum sits at t^0, and ||t|| < 1 bounds every later power below it
        ((CONFIGS / "positivity_demo.yaml").read_text(), "formed 1 of 201 powers of t, ran 0 SVDs"),
        (MINIMAL_JUNGCK.replace("dim: 1,", "dim: 60,").replace("z0: [1.0]", f"z0: {[1.0] * 60}")
         + "  stability: {horizon: 300}\n", "formed 1 of 301 powers of t, ran 0 SVDs"),
        # k2 = max (1 - 1/(n + 2)) ||t^n|| peaks at t^300: one SVD for its seed, one for t^300
        (MINIMAL_JUNGCK.replace("t: {name: scale, dim: 1, value: 0.5}", "t: {matrix: [[0.9999999, 0.0], [0.0, 0.9999998]]}")
         .replace("s: {name: scale, dim: 1,", "s: {name: scale, dim: 2,").replace("z0: [1.0]", "z0: [1.0, 1.0]")
         .replace("b: {form: constant, value: 0.5}", "b: {form: one-minus-inv, k: 2}")
         + "  stability: {horizon: 300}\n", "formed 301 of 301 powers of t, ran 2 SVDs"),
    ], ids=["positivity-demo", "contractive-d60", "near-unit-d2"])
    def test_report_counts_the_powers_the_constants_read(self, tmp_path, text, read):
        out = tmp_path / "out"
        assert main(["--config", self.write(tmp_path, text), "--output", str(out), "--quiet"]) == 0
        lines = (out / "report.txt").read_text().splitlines()
        assert [line for line in lines if "constants" in line] == [f"INFO certificate constants: {read}"]

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

    def test_diverged_run_fails(self, tmp_path):
        path = self.write(tmp_path, DIVERGING)
        out = tmp_path / "out"
        assert main(["--config", path, "--output", str(out), "--quiet"]) == 1
        report = (out / "report.txt").read_text()
        assert "FAIL run diverged and was truncated: power 2 of the update map overflowed" in report
        assert len((out / "trace.csv").read_text().splitlines()) == 3  # header + rows 0 and 1

    @pytest.mark.parametrize("z0", ["1.0e+300", "1.0e-300"])
    def test_identity_residual_is_relative_to_the_iterate(self, tmp_path, z0):
        text = (CONFIGS / "jungck_scalar.yaml").read_text().replace("z0: [1.0]", f"z0: [{z0}]")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["--config", self.write(tmp_path, text), "--output", str(out), "--quiet"]) == 0
        assert "PASS identity-residual: max relative " in (out / "report.txt").read_text()

    @pytest.mark.parametrize("p", ["400.0", "-2000.0"])
    @pytest.mark.parametrize("text,old,new", [
        (MINIMAL_JUNGCK, "a: {form: constant, value: 0.5}", "a: {form: inv-pow, k: 2, p: P}"),
        (VENTER, "x0: 1.0", "gamma: {form: inv-pow, k: 2, p: P}\n  x0: 1.0"),
    ], ids=["jungck-a", "venter-gamma"])
    def test_inv_pow_overflow_aborts_the_run(self, tmp_path, text, old, new, p):
        path = self.write(tmp_path, text.replace(old, new.replace("P", p)))
        out = tmp_path / "out"
        assert main(["--config", path, "--output", str(out), "--quiet"]) == 1
        report = (out / "report.txt").read_text()
        assert "FAIL run aborted: inv-pow schedule" in report
        assert f"(k=2, p={float(p)!r})" in report

    @pytest.mark.parametrize("text,old,new,where", [
        (MINIMAL_JUNGCK, "a: {form: constant, value: 0.5}", "a: {form: constant, value: 0.5, clamp: [[0], 1]}",
         "jungck.a.clamp[0]"),
        (MINIMAL_JUNGCK, "a: {form: constant, value: 0.5}", "a: {form: constant, value: 0.5, clamp: [true, 1]}",
         "jungck.a.clamp[0]"),
        (SCAN, "seed: 11", "seed: 11, mu_range: [null, 2]", "scan.mu_range[0]"),
        (MINIMAL_JUNGCK, "a: {form: constant, value: 0.5}", 'a: {form: list, values: [0.5, "x"]}',
         "jungck.a.values[1]"),
        (MINIMAL_JUNGCK, "z0: [1.0]", "z0: [true]", "jungck.z0[0]"),
        (AITKEN_VALUES, "0.25, 0.125", "0.25, true", "aitken.sequence.values[3]"),
        (AITKEN_VALUES, "[1.0, 0.5, 0.25, 0.125, 0.0625]", "[[1.0, 2.0], [0.5, 1.0], [0.25, true]]",
         "aitken.sequence.values[2][1]"),
        (AITKEN_VALUES, "kind: values, values: [1.0, 0.5, 0.25, 0.125, 0.0625]",
         "kind: geometric, limit: [1.0, true], length: 5", "aitken.sequence.limit[1]"),
    ], ids=["clamp-list", "clamp-bool", "mu-range-null", "values-string", "z0-bool", "aitken-values-bool",
            "aitken-values-nested-bool", "aitken-limit-bool"])
    def test_non_numbers_exit_two(self, tmp_path, capsys, text, old, new, where):
        text = text.replace(old, new, 1)
        with pytest.raises(ConfigValidationError, match=re.escape(f"{where}: expected a number")):
            parse_config_text(text)
        assert main(["--config", self.write(tmp_path, text), "--quiet"]) == 2
        assert f"config error: {where}: expected a number" in capsys.readouterr().err

    @pytest.mark.parametrize("old,new,message", [
        ("t: {name: scale, dim: 1, value: 0.5}", "t: {matrix: [[true]]}",
         "jungck.t.matrix[0][0]: expected a number, got True"),
        ("s: {name: scale, dim: 1, value: 2.0}", 's: {matrix: [[2.0, 0.0], [0.0, "2"]]}',
         "jungck.s.matrix[1][1]: expected a number, got '2'"),
        ("z0: [1.0]", "z0: [1.0]\n  gate_z: {mode: list, values: [true, false, 1.0, 0]}",
         "jungck.gate_z.values[0]: expected an integer, got True"),
        ("z0: [1.0]", "z0: [1.0]\n  gate_y: {mode: list, values: [1, 0, 1.0, 0]}",
         "jungck.gate_y.values[2]: expected an integer, got 1.0"),
    ], ids=["matrix-bool", "matrix-string", "gate-bool", "gate-float"])
    def test_matrix_and_gate_entries_exit_two(self, tmp_path, capsys, old, new, message):
        text = MINIMAL_JUNGCK.replace(old, new, 1)
        with pytest.raises(ConfigValidationError, match=re.escape(message)):
            parse_config_text(text)
        assert main(["--config", self.write(tmp_path, text), "--quiet"]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("text,old,new,message", [
        (MINIMAL_JUNGCK, "scenario: jungck", "scenario: []", "config.scenario: expected one of"),
        (MINIMAL_JUNGCK, "value: 2.0", "value: .nan", "jungck.s.value: operator matrix has non-finite entries"),
        (VENTER, "x0: 1.0", "x0: .nan", "venter: x0 must be finite and >= 0"),
        (VENTER, "x0: 1.0", "x0: 1.0\n  sigma: .inf", "venter: sigma must be finite and >= 0"),
        (AITKEN_VALUES, "0.25, 0.125", "0.25, .nan", "aitken.sequence: every term must be finite"),
        (AITKEN_VALUES, "[1.0, 0.5, 0.25, 0.125, 0.0625]", "[[1.0], [0.5, 1.0], [0.25]]",
         "aitken.sequence.values: setting an array element with a sequence"),
        (AITKEN_VALUES, "kind: values, values: [1.0, 0.5, 0.25, 0.125, 0.0625]",
         "kind: geometric, limit: [1.0, 2.0], ratio: [0.5, 0.5, 0.5]",
         "aitken.sequence: limit, coeff and ratio must be numbers or lists of one length"),
        (AITKEN_VALUES, "kind: values, values: [1.0, 0.5, 0.25, 0.125, 0.0625]",
         "kind: geometric, limit: [[], 0.5]", "aitken.sequence: setting an array element with a sequence"),
        (SCAN, "seed: 11", "seed: -1", "scan: seed must be >= 0"),
        (JUNGCK_SCALAR, "horizon: 200", "horizon: 200\n    tail_start: 500",
         "jungck.stability.tail_start: need 0 <= tail_start <= horizon - 10, where horizon = "
         "max(stability.horizon, steps) = 200; got 500"),
        (JUNGCK_SCALAR, "horizon: 200", "horizon: 200\n    tail_start: -3",
         "jungck.stability.tail_start: need 0 <= tail_start <= horizon - 10, where horizon = "
         "max(stability.horizon, steps) = 200; got -3"),
        (JUNGCK_SCALAR, "steps: 50\n  stability:\n    horizon: 200", "steps: 8\n  stability:\n    horizon: 5",
         "jungck.stability.tail_start: need 0 <= tail_start <= horizon - 10, where horizon = "
         "max(stability.horizon, steps) = 8; got 0"),
        (JUNGCK_SCALAR, "horizon: 200", "horizon: 200\n    tail_tol: .nan",
         "jungck.stability.tail_tol: must be finite and >= 0, got nan"),
        (JUNGCK_SCALAR, "horizon: 200", "horizon: 200\n    tail_tol: -0.5",
         "jungck.stability.tail_tol: must be finite and >= 0, got -0.5"),
        (JUNGCK_SCALAR, "horizon: 200", "horizon: 200\n    tail_tol: .inf",
         "jungck.stability.tail_tol: must be finite and >= 0, got inf"),
        (MINIMAL_JUNGCK, "steps: 50", "steps: 50\n  floor_scale: .nan", "jungck: floor_scale must be positive, got nan"),
        (MINIMAL_JUNGCK, "steps: 50", "steps: 50\n  floor_scale: -1.0", "jungck: floor_scale must be positive, got -1.0"),
        (AITKEN_VALUES, "aitken:", "aitken:\n  floor_scale: .nan", "aitken.floor_scale: must be > 0, got nan"),
        (AITKEN_VALUES, "aitken:", "aitken:\n  floor_scale: -1.0", "aitken.floor_scale: must be > 0, got -1.0"),
        (VENTER, "eps: 1.0e-2", "eps: .nan", "venter.eps: must be finite and > 0, got nan"),
        (VENTER, "eps: 1.0e-2", "eps: 0.0", "venter.eps: must be finite and > 0, got 0.0"),
        (VENTER, "eps: 1.0e-2", "eps: .inf", "venter.eps: must be finite and > 0, got inf"),
        (SCAN, "seed: 11", "seed: 11, tail_tol: .nan", "scan: tail_tol must be finite and >= 0, got nan"),
        (SCAN, "seed: 11", "seed: 11, mu_range: [.nan, 1.0]",
         "scan: mu_range must be finite with 0 < low <= high, got (nan, 1.0)"),
        (SCAN, "seed: 11", "seed: 11, mu_range: [2.0, 1.0]",
         "scan: mu_range must be finite with 0 < low <= high, got (2.0, 1.0)"),
        (SCAN, "seed: 11", "seed: 11, mu_range: [0.0, 1.0]",
         "scan: mu_range must be finite with 0 < low <= high, got (0.0, 1.0)"),
        (SCAN, "seed: 11", "seed: 11, t_norm_range: [.inf, .inf]",
         "scan: t_norm_range must be finite with 0 <= low <= high, got (inf, inf)"),
        (SCAN, "seed: 11", "seed: 11, t_norm_range: [-0.1, 0.5]",
         "scan: t_norm_range must be finite with 0 <= low <= high, got (-0.1, 0.5)"),
        (AITKEN_VALUES, "[1.0, 0.5, 0.25, 0.125, 0.0625]", "[[], [], []]",
         "aitken.sequence.values: expected numbers or non-empty rows of numbers"),
    ], ids=["scenario-list", "scale-nan", "venter-x0-nan", "venter-sigma-inf", "aitken-values-nan",
            "aitken-values-ragged", "aitken-lengths", "aitken-limit-ragged", "scan-seed-negative",
            "tail-start-past-horizon", "tail-start-negative", "horizon-below-ten", "tail-tol-nan",
            "tail-tol-negative", "tail-tol-inf", "jungck-floor-nan", "jungck-floor-negative", "aitken-floor-nan",
            "aitken-floor-negative", "venter-eps-nan", "venter-eps-zero", "venter-eps-inf", "scan-tail-tol-nan",
            "scan-mu-range-nan", "scan-mu-range-reversed", "scan-mu-range-zero", "scan-t-norm-range-inf",
            "scan-t-norm-range-negative", "aitken-values-empty-rows"])
    def test_fuzzed_inputs_exit_two(self, tmp_path, capsys, text, old, new, message):
        # each raised an untyped error or ran to a non-finite trace before
        text = text.replace(old, new, 1)
        with pytest.raises(ConfigValidationError, match=re.escape(message)):
            parse_config_text(text)
        assert main(["--config", self.write(tmp_path, text), "--quiet"]) == 2
        assert f"config error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "-1"])
    @pytest.mark.parametrize("text,message", [
        (MINIMAL_JUNGCK, "jungck: solve_tol must be positive"),
        (VENTER, "venter.eps: must be finite and > 0, got {}"),
        (AITKEN_VALUES, "aitken.floor_scale: must be > 0, got {}"),
        (SCAN, "scan: tail_tol must be finite and >= 0, got {}"),
    ], ids=["jungck", "venter", "aitken", "scan"])
    def test_tolerance_override_meets_the_config_checks(self, tmp_path, capsys, text, message, tol):
        assert main(["--config", self.write(tmp_path, text), "--tolerance", tol, "--quiet"]) == 2
        assert capsys.readouterr().err == f"config error: {message.format(float(tol))}\n"

    def test_an_infinite_venter_eps_is_refused(self, tmp_path, capsys):
        # any finite x_N is below inf, so such a PASS would mean nothing
        assert main(["--config", self.write(tmp_path, VENTER), "--tolerance", "inf", "--quiet"]) == 2
        assert capsys.readouterr().err == "config error: venter.eps: must be finite and > 0, got inf\n"

    def test_an_infinite_scan_tail_tol_is_refused(self, tmp_path, capsys):
        # every schedule's tail is within inf of 1, so iv and v would hold for any schedule
        args = ["--config", str(CONFIGS / "stability_scan.yaml"), "--output", str(tmp_path / "out")]
        assert main([*args, "--tolerance", "inf", "--quiet"]) == 2
        assert capsys.readouterr().err == "config error: scan: tail_tol must be finite and >= 0, got inf\n"

    def test_steps_override_rechecks_the_tail_start(self, tmp_path, capsys):
        text = JUNGCK_SCALAR.replace("horizon: 200", "horizon: 20\n    tail_start: 30")
        out = tmp_path / "out"
        assert main(["--config", self.write(tmp_path, text), "--output", str(out), "--quiet"]) == 0
        assert main(["--config", self.write(tmp_path, text), "--steps", "39", "--quiet"]) == 2
        assert capsys.readouterr().err == (
            "config error: jungck.stability.tail_start: need 0 <= tail_start <= horizon - 10, "
            "where horizon = max(stability.horizon, steps) = 39; got 30\n")

    def test_venter_overflow_aborts_the_run(self, tmp_path):
        path = self.write(tmp_path, VENTER.replace("x0: 1.0", "gamma: {form: constant, value: 0.5}\n  x0: 1.0")
                          .replace("steps: 500", "steps: 2000"))
        out = tmp_path / "out"
        assert main(["--config", path, "--output", str(out), "--quiet"]) == 1
        assert ("FAIL run aborted: venter recursion overflowed: x is non-finite from n=1763"
                in (out / "report.txt").read_text())
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("text", [VENTER_ALL_SKIPPED, AITKEN_VALUES], ids=["venter", "aitken-values"])
    def test_run_without_checks_fails(self, tmp_path, text):
        out = tmp_path / "out"
        assert main(["--config", self.write(tmp_path, text), "--output", str(out), "--quiet"]) == 1
        lines = (out / "report.txt").read_text().splitlines()
        assert all(line.startswith("INFO ") for line in lines[:-1])
        assert lines[-1].startswith("FAIL no check ran: ")

    @pytest.mark.parametrize("sigma,gamma", [("0.1", "0.5"), ("0.0", "0.6"), ("0.1", "0.0")])
    def test_venter_skips_quote_the_verifiers(self, tmp_path, sigma, gamma):
        text = (VENTER_ALL_SKIPPED.replace("sigma: 0.1", f"sigma: {sigma}")
                .replace("gamma: {form: constant, value: 0.5}", f"gamma: {{form: constant, value: {gamma}}}"))
        out = tmp_path / "out"
        main(["--config", self.write(tmp_path, text), "--output", str(out), "--quiet"])
        skips = [line for line in (out / "report.txt").read_text().splitlines() if "skipped (" in line]
        expected = {"telescoping identity: skipped (needs sigma = 0)": sigma != "0.0",
                    "decay-to-zero: skipped (needs sigma = 0 and gamma = 0)": True,
                    "uniform bound: skipped (needs inf(alpha - gamma) > 0)": gamma != "0.0"}
        assert skips == [f"INFO {line}" for line, skipped in expected.items() if skipped]

    def test_yaml11_exponent_names_the_float_form(self, tmp_path, capsys):
        path = self.write(tmp_path, VENTER.replace("eps: 1.0e-2", "eps: 1e-6"))
        assert main(["--config", path, "--quiet"]) == 2
        assert "venter.eps: expected a number, got '1e-6'" in (err := capsys.readouterr().err)
        assert "write 1.0e-6" in err


_JUNGCK_HEAD = ["INFO jungck run", "INFO operator data", "PASS identity-residual", "INFO certificate constants",
                *(f"INFO certificate {p}" for p in ("i", "ii", "iii", "iv", "v")),
                "INFO certificate prediction", "PASS certificate cross-check"]
_JUNGCK_LIMIT = ["INFO limit of Sz (last-term)", "INFO acceleration ratios |ASz-L|/|Sz-L|",
                 "PASS limit equivalence Sz vs ASz (tol 1e-06)"]
#: the label of each report line of each shipped config: its status and its text up to the first ":"
SHIPPED_REPORT_LABELS = {
    "aitken_geometric.yaml": ["INFO aitken run", "PASS geometric exactness", "INFO acceleration ratios",
                              "INFO gates applied"],
    "jungck_scalar.yaml": _JUNGCK_HEAD + _JUNGCK_LIMIT,
    "positivity_demo.yaml": _JUNGCK_HEAD + ["PASS positivity constraint 1", "PASS positivity constraint on a",
                                            "PASS positivity constraint 3", "PASS nonnegative orthant"]
                            + _JUNGCK_LIMIT,
    "stability_scan.yaml": ["INFO scan", "INFO certified counts", "INFO configs with any certificate",
                            "PASS certificate soundness"],
    "venter_bound.yaml": ["INFO venter run", "INFO cesaro mean K_hat at horizon", "INFO telescoping identity",
                          "INFO decay-to-zero", "PASS uniform bound"],
    "venter_decay.yaml": ["INFO venter run", "INFO cesaro mean K_hat at horizon",
                          "INFO K_hat exceeds 0.99; contraction-style bounds are near-vacuous",
                          "PASS telescoping identity", "PASS decay-to-zero",
                          "PASS geometric-expansion identity", "PASS uniform bound"],
}


def test_a_jungck_run_evaluates_each_schedule_value_once(tmp_path, monkeypatch):
    # the certificate constants' fold is set up before the run and evaluates
    # the first horizon + 1 values; run, the certificates, the cross-check
    # and the positivity constraints read them without evaluating any again
    evaluated = []
    real = Schedule._evaluate

    def counted(sched, start, stop):
        evaluated.append((sched, start, stop))
        return real(sched, start, stop)

    monkeypatch.setattr(Schedule, "_evaluate", counted)
    path = CONFIGS / "positivity_demo.yaml"
    doc = yaml.safe_load(path.read_text())["jungck"]
    assert doc["stability"]["positivity"] is True
    assert main(["--config", str(path), "--output", str(tmp_path), "--quiet"]) == 0
    steps, horizon = doc["steps"], max(doc["stability"]["horizon"], doc["steps"])
    a, b = {id(sched): sched for sched, _, _ in evaluated}.values()
    for sched in (a, b):
        assert [(start, stop) for s, start, stop in evaluated if s is sched] == [(0, horizon + 1)]


def test_a_jungck_trace_holds_views_of_the_one_kept_schedule_array(tmp_path, monkeypatch):
    # each schedule keeps one array of horizon + 1 values, and the trace's
    # a_vals and b_vals are views of it, not of a shorter array it outgrew
    runs = []
    real = engine.run

    def kept(cfg, **kwargs):
        trace = real(cfg, **kwargs)
        runs.append((cfg, trace))
        return trace

    monkeypatch.setattr(engine, "run", kept)
    path = CONFIGS / "positivity_demo.yaml"
    doc = yaml.safe_load(path.read_text())["jungck"]
    assert main(["--config", str(path), "--output", str(tmp_path), "--quiet"]) == 0
    horizon = max(doc["stability"]["horizon"], doc["steps"])
    (cfg, trace), = runs
    assert trace.n_raw == doc["steps"] < horizon
    for sched, values in ((cfg.a, trace.a_vals), (cfg.b, trace.b_vals)):
        assert values.base is sched.prefix(horizon + 1).base and values.base.size == horizon + 1


@pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.yaml")))
def test_shipped_config_report_lines(tmp_path, name):
    # every line is a check or a run fact: none of them lacks a verdict by design
    assert main(["--config", str(CONFIGS / name), "--output", str(tmp_path), "--quiet"]) == 0
    lines = (tmp_path / "report.txt").read_text().splitlines()
    assert [line.split(":")[0] for line in lines] == SHIPPED_REPORT_LABELS[name]
    assert not any("no verdict" in line for line in lines)


# ---------------------------------------------------------------------------
# the four per-scenario writers that write_csv replaced, kept as its reference


def ref_fmt(x) -> str:
    return repr(float(x))


def ref_vector_headers(prefix: str, dim: int) -> list:
    return [f"{prefix}[{i}]" for i in range(dim)]


def ref_write_jungck_csv(trace, path):
    d = trace.dim
    header = (
        ["n"]
        + ref_vector_headers("z", d) + ref_vector_headers("y", d)
        + ref_vector_headers("Sz", d) + ref_vector_headers("Sy", d)
        + ref_vector_headers("ASz", d) + ref_vector_headers("ASy", d)
        + ref_vector_headers("gate_z", d) + ref_vector_headers("gate_y", d)
        + ["identity_residual"]
    )
    residuals = engine.identity_residuals(trace)
    with path.open("w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for n in range(trace.n_raw):
            row = [str(n)]
            for arr in (trace.z, trace.y, trace.sz, trace.sy):
                row.extend(ref_fmt(v) for v in arr[n])
            if n < trace.n_accel:
                for arr in (trace.asz, trace.asy):
                    row.extend(ref_fmt(v) for v in arr[n])
                for arr in (trace.gates_z, trace.gates_y):
                    row.extend(str(int(v)) for v in arr[n])
            else:
                row.extend([""] * (4 * d))
            row.append(ref_fmt(residuals[n]) if n < len(residuals) else "")
            writer.writerow(row)


def ref_write_venter_csv(trace, path):
    header = ["n", "x", "k_hat", "alpha", "gamma", "omega",
              "sum_alpha_x", "sum_gamma_x", "sum_omega", "sum_x"]
    n_steps = trace.steps
    with path.open("w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for n in range(n_steps + 1):
            row = [str(n), ref_fmt(trace.x[n])]
            if n < n_steps:
                row += [ref_fmt(trace.k_hat[n]), ref_fmt(trace.alpha_vals[n]), ref_fmt(trace.gamma_vals[n]),
                        ref_fmt(trace.omega_vals[n]), ref_fmt(trace.sum_alpha_x[n]),
                        ref_fmt(trace.sum_gamma_x[n]), ref_fmt(trace.sum_omega[n])]
            else:
                row += [""] * 7
            row.append(ref_fmt(trace.sum_x[n]))
            writer.writerow(row)


def ref_write_aitken_csv(values, accel, gates, path):
    d = values.shape[1]
    header = ["n"] + ref_vector_headers("x", d) + ref_vector_headers("Ax", d) + ref_vector_headers("gate", d)
    with path.open("w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for n in range(values.shape[0]):
            row = [str(n)] + [ref_fmt(v) for v in values[n]]
            if n < accel.shape[0]:
                row += [ref_fmt(v) for v in accel[n]]
                row += [str(int(g)) for g in gates[n]]
            else:
                row += [""] * (2 * d)
            writer.writerow(row)


def ref_write_scan_csv(result, path):
    header = ["index", "certified", "predicted", "simulation_agrees", "monotone_ok", "final_ratio"]
    with path.open("w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for o in result.outcomes:
            writer.writerow([
                str(o.index),
                "+".join(o.certified) if o.certified else "none",
                o.predicted,
                "" if o.simulation_agrees is None else str(o.simulation_agrees).lower(),
                "" if o.monotone_ok is None else str(o.monotone_ok).lower(),
                "" if o.final_ratio is None else ref_fmt(o.final_ratio),
            ])


def ref_write(cfg, path):
    scn = cfg.active()
    if cfg.scenario == "jungck":
        ref_write_jungck_csv(engine.run(scn.cfg), path)
    elif cfg.scenario == "venter":
        ref_write_venter_csv(venter.venter_run(scn.cfg), path)
    elif cfg.scenario == "aitken-only":
        values = scn.terms[:]
        accel, gates = accelerate_sequence(values, scn.gate, scn.floor_scale)
        ref_write_aitken_csv(values, accel, gates, path)
    else:
        ref_write_scan_csv(run_scan(scn), path)


def aitken_config(dim: int, length: int) -> str:
    ratios = [0.999 - 0.1 * i for i in range(dim)]
    return ("scenario: aitken-only\naitken:\n"
            f"  sequence: {{kind: geometric, limit: 1.0, coeff: 2.0, ratio: {ratios}, length: {length}}}\n"
            "  gate: {mode: threshold, tau: 1.0e-12}\n")


def _block_rows(dim: int) -> int:
    return BLOCK_ELEMENTS // (1 + 3 * dim)  # columns n, x[...], Ax[...], gate[...]


class TestWriterMatchesReference:
    """trace.csv is byte-identical to the per-scenario writers it replaced."""

    def check(self, tmp_path, text) -> int:
        cfg = parse_config_text(text)
        status = run_experiment(cfg, output_dir=tmp_path, quiet=True)
        ref_write(parse_config_text(text), tmp_path / "ref.csv")
        assert (tmp_path / "trace.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
        return status

    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.yaml")))
    def test_shipped_config(self, tmp_path, name):
        assert self.check(tmp_path, (CONFIGS / name).read_text()) == 0

    def test_diverged_jungck_trace(self, tmp_path):
        self.check(tmp_path, DIVERGING)

    def test_two_step_trace_without_corrected_rows(self, tmp_path):
        self.check(tmp_path, TWO_STEP_GATES_OFF)
        cols = read_jungck_csv(tmp_path / "trace.csv")
        assert cols["ASz[0]"] == cols["gate_y[1]"] == [None, None]

    @pytest.mark.parametrize("dim,length", [
        (1, 2 * _block_rows(1) + 2),                       # Ax ends exactly on a block boundary
        (3, 3 * _block_rows(3) + 2),
        (1, 2 * _block_rows(1) + _block_rows(1) // 2 + 2),  # Ax ends mid-block
        (3, _block_rows(3) + 7),
    ])
    def test_aitken_longer_than_one_block(self, tmp_path, dim, length):
        assert length > _block_rows(dim)
        self.check(tmp_path, aitken_config(dim, length))


# ---------------------------------------------------------------------------
# the streamed aitken-only run against the whole-sequence run it replaced


def ref_run_aitken(doc: dict, outdir: Path) -> int:
    """The aitken-only scenario as it ran on whole arrays: the sequence (a
    geometric one term by term, as ``ratio ** n`` gives each), its corrected
    terms and gates, all made before a row is written, then the checks over
    the whole arrays.  Returns the exit code, 2 for a refused sequence."""
    node, seq = doc["aitken"], doc["aitken"]["sequence"]
    if seq["kind"] == "geometric":
        limit, coeff, ratio = (np.array(seq[key], dtype=float) for key in ("limit", "coeff", "ratio"))
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.array([limit + coeff * ratio ** n for n in range(seq["length"])])
        lim = limit
    else:
        values, lim = np.array(seq["values"], dtype=float), None
    if not np.isfinite(values).all():
        return 2
    gate = cli.parse_gate(node["gate"], "aitken.gate")
    report = cli.Report()
    try:
        accel, gates = accelerate_sequence(values, gate, node.get("floor_scale", 1e-12))
        ref_write_aitken_csv(values, accel, gates, outdir / "trace.csv")
        report.add("INFO", f"aitken run: {values.shape[0]} terms, dim={values.shape[1]}")
        if lim is not None:
            tol = 1e-10 * (1.0 + float(exact_row_norms(lim[None])[0]))
            with np.errstate(over="ignore"):
                worst = float(np.max(exact_row_norms(accel - lim)))
            report.ok(worst <= tol, f"geometric exactness: worst |Ax - L| = {worst:.3e} (tol {tol:.3e})")
        else:
            try:
                est = diagnostics.estimate_limit(values)
                report.add("INFO", f"limit estimate ({est.method}): {np.array2string(est.value, precision=8)}")
                lim = est.value
            except (NotConvergingError, SequenceTooShortError) as exc:
                report.add("INFO", f"limit estimate skipped: {exc}")
        if lim is not None:
            ratios = diagnostics.acceleration_ratio(values, accel, lim)
            if ratios:
                report.add("INFO", f"acceleration ratios: first={ratios[0]:.3e} last={ratios[-1]:.3e}")
        report.add("INFO", f"gates applied: {int(np.sum(gates))} of {gates.size} components")
    except JungckitError as exc:
        report.add("FAIL", f"run aborted: {exc}")
    if not report.checked:
        report.add("FAIL", "no check ran: every check of this aitken-only run was skipped or does not apply")
    (outdir / "report.txt").write_text(report.render(), encoding="utf-8")
    return 1 if report.failed else 0


@st.composite
def aitken_cases(draw):
    """An aitken-only config of 3 terms up to about three of the run's row
    blocks (one for a values sequence), whose windows end 0-2 rows from a
    block edge or are 1 to 3.  A
    geometric sequence's columns settle (every later term is the limit) a
    row before, at or after an edge, or never, or have a random ratio, or
    terms that overflow or nearly do; a values sequence may end in rows of
    zeros.  Gates of every mode, a list one window short among them."""
    d = draw(st.integers(1, 8))
    rows = cli._aitken_block_rows(d)
    geometric = draw(st.booleans())
    edges = [0, 1, 2, 3] if geometric else [0, 1]  # a long values list costs seconds of YAML
    windows = max(1, draw(st.sampled_from(edges)) * rows + draw(st.integers(-2, 2)))
    length = windows + 2
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if geometric:
        limit, coeff, ratio = rng.uniform(-5, 5, d), rng.uniform(0.5, 2, d) * rng.choice([-1, 1], d), np.zeros(d)
        # every column settles in half the cases, so that the sequence does
        kinds = ["settles"] if draw(st.booleans()) else ["settles", "never", "random", "huge"]
        for i in range(d):
            kind = draw(st.sampled_from(kinds))
            if kind == "settles":  # |coeff| r^n falls below a quarter spacing of the limit near row `at`
                at = max(3, draw(st.sampled_from([1, 2])) * rows + draw(st.integers(-1, 1)))
                quarter = np.spacing(abs(limit[i])) / 4
                ratio[i] = (quarter / (2 * abs(coeff[i]))) ** (1 / at) * rng.choice([-1, 1])
            elif kind == "never":
                limit[i], ratio[i] = 0.0, rng.uniform(0.5, 0.999)
            elif kind == "random":
                ratio[i] = rng.uniform(-0.9, 0.9)
            else:  # the first term overflows with like signs, and nearly does with unlike ones
                limit[i], coeff[i], ratio[i] = 1.7e308 * rng.choice([-1, 1]), 1e308 * rng.choice([-1, 1]), 0.5
        sequence = {"kind": "geometric", "limit": limit.tolist(), "coeff": coeff.tolist(), "ratio": ratio.tolist(),
                    "length": length}
    else:
        values = rng.uniform(1, 2, d) + rng.uniform(-1, 1, d) * rng.uniform(-0.9, 0.9, d) ** np.arange(length)[:, None]
        values[length - draw(st.sampled_from([0, 0, 1, 2, length // 2])):] = 0.0
        sequence = {"kind": "values", "values": values.tolist()}
    mode = draw(st.sampled_from(["always-on", "always-off", "threshold", "list", "short-list"]))
    gate = {"mode": mode}
    if mode == "threshold":
        gate["tau"] = draw(st.sampled_from([0.0, 1e-12, 1e-3]))
    elif mode.endswith("list"):
        short = mode == "short-list" and windows > 1  # a list is never empty
        gate = {"mode": "list", "values": rng.integers(0, 2, windows - short).tolist()}
    doc = {"scenario": "aitken-only", "aitken": {"sequence": sequence, "gate": gate}}
    if draw(st.booleans()):
        doc["aitken"]["floor_scale"] = draw(st.sampled_from([1e-12, 1e-3]))
    return doc


def settling_doc(d: int, at: int, windows: int, gate: dict) -> dict:
    """An aitken-only config of ``windows + 2`` geometric terms whose columns
    all settle (every later term is the limit) at about row ``at``."""
    limit, coeff = 1.0 + np.arange(d), np.full(d, 1.5)
    ratio = (np.spacing(limit) / 4 / (2 * coeff)) ** (1 / at)
    return {"scenario": "aitken-only", "aitken": {"gate": gate, "sequence": {
        "kind": "geometric", "limit": limit.tolist(), "coeff": coeff.tolist(), "ratio": ratio.tolist(),
        "length": windows + 2}}}


def flooring_doc(at: int, windows: int) -> dict:
    """An aitken-only config of ``windows + 2`` terms ``ratio ** n`` of one
    column, limit 0, whose first term at the acceleration ratios' floor
    (``diagnostics.RATIO_FLOOR_SCALE``) is row ``at``: the ratio puts that
    floor half a row past ``at - 1``, far beyond the rounding of a term."""
    ratio = diagnostics.RATIO_FLOOR_SCALE ** (1 / (at - 0.5))
    return {"scenario": "aitken-only", "aitken": {"gate": {"mode": "always-on"}, "sequence": {
        "kind": "geometric", "limit": [0.0], "coeff": [1.0], "ratio": [ratio], "length": windows + 2}}}


ROWS1 = cli._aitken_block_rows(1)  # the windows in a run block of a 1-column sequence
ROWS3 = cli._aitken_block_rows(3)  # the windows in a run block of a 3-column sequence


@fixed_or_fresh(40)
@given(aitken_cases())
# settled a row before, at and after the first block edge, in a run of a block and two rows
@example(settling_doc(3, ROWS3 - 2, ROWS3 + 2, {"mode": "always-on"}))
@example(settling_doc(3, ROWS3 - 1, ROWS3 + 2, {"mode": "threshold", "tau": 1e-12}))
@example(settling_doc(3, ROWS3, ROWS3 + 2, {"mode": "list", "values": [1, 0] * (ROWS3 // 2 + 2)}))
# a gate list one window short of a two-block run, refused before a row is written
@example(settling_doc(3, ROWS3 + 1, ROWS3 + 1, {"mode": "list", "values": [1] * ROWS3}))
# the first raw row at the ratios' floor is the first row of the second block
@example(flooring_doc(ROWS1, ROWS1 + 10))
# values over two blocks, ending in rows of zeros, with a gate list one window short
@example({"scenario": "aitken-only", "aitken": {"gate": {"mode": "list", "values": [0, 1] * (ROWS3 // 2) + [1]},
                                                "sequence": {"kind": "values", "values": np.concatenate(
                                                    [1.0 + 0.5 ** np.arange(ROWS3 - 1)[:, None] * [1.0, -2.0, 3.0],
                                                     np.zeros((4, 3))]).tolist()}}})
def test_streamed_aitken_run_matches_the_whole_sequence_run(doc):
    with tempfile.TemporaryDirectory() as tmp:
        got, want = Path(tmp) / "got", Path(tmp) / "want"
        want.mkdir()
        path = Path(tmp) / "cfg.yaml"
        path.write_text(yaml.dump(doc, Dumper=getattr(yaml, "CSafeDumper", yaml.SafeDumper)))
        code = main(["--config", str(path), "--output", str(got), "--quiet"])
        assert code == ref_run_aitken(doc, want)
        for name in ("trace.csv", "report.txt"):
            assert (got / name).exists() == (want / name).exists()
            if (want / name).exists():
                assert (got / name).read_bytes() == (want / name).read_bytes(), name


def test_the_flooring_example_reaches_the_floor_at_the_second_block():
    seq = cli.parse_config_text(yaml.safe_dump(flooring_doc(ROWS1, ROWS1 + 10))).aitken.terms
    errors = np.abs(seq[:].ravel())  # limit 0
    floor = diagnostics.RATIO_FLOOR_SCALE
    assert np.flatnonzero(errors <= floor)[0] == ROWS1 and errors[ROWS1 - 1] > floor


# ---------------------------------------------------------------------------
# write_csv against the csv-module writer it replaced


def ref_write_csv(columns, path: Path) -> None:
    """write_csv as it was: one ``str`` per cell, rows through ``csv.writer``."""
    header, flat = [], []
    for name, values in columns:
        if getattr(values, "ndim", 1) == 2:
            header += [f"{name}[{i}]" for i in range(values.shape[1])]
            flat += list(values.T)
        else:
            header.append(name)
            flat.append(values)
    n_rows = max((len(v) for v in flat), default=0)
    step = max(1, BLOCK_ELEMENTS // len(flat))
    with path.open("w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for lo in range(0, n_rows, step):
            hi = min(lo + step, n_rows)
            writer.writerows(zip(*(ref_cells(v[lo:hi], hi - lo) for v in flat)))


def ref_cells(part, count: int) -> list:
    if isinstance(part, np.ndarray):
        part = part.tolist()
    cells = list(map(str, part))
    return cells + [""] * (count - len(cells))


FLOAT_EDGES = np.array([0.0, math.inf, math.nan, 5e-324, 2.2250738585072014e-308, 1e16, 9999999999999998.0,
                        1e-5, 1e-4, 1.7976931348623157e308, 0.1, 1.0, 123456.789])
FLOAT_EDGES = np.concatenate([FLOAT_EDGES, -FLOAT_EDGES])
PLAIN_WORDS = ["none", "i+ii+v", "true", "false", "", "a b", "x"]
QUOTED_WORDS = ["a,b", 'say "x"', "two\nlines", "cr\rcell", ","]
KINDS = ("float", "float2", "int", "int2", "bool", "bool2", "str", "intlist", "range")


def _column(kind: str, length: int, width: int, words: list, rng: np.random.Generator):
    shape = (length, width) if kind.endswith("2") else (length,)
    if kind.startswith("float"):  # half edge cases, half random bit patterns (any exponent, nan payloads)
        bits = rng.integers(0, 2**64, size=shape, dtype=np.uint64).view(np.float64)
        return np.where(rng.random(shape) < 0.5, rng.choice(FLOAT_EDGES, size=shape), bits)
    if kind.startswith("int"):
        big = rng.integers(-2**63, 2**63, size=shape, dtype=np.int64)
        values = np.where(rng.random(shape) < 0.5, big, rng.integers(-3, 300, size=shape))
        return values.tolist() if kind == "intlist" else values
    if kind.startswith("bool"):
        return rng.random(shape) < 0.5
    if kind == "str":
        return [words[i] for i in rng.integers(0, len(words), size=length)]
    return range(length)


@st.composite
def ragged_columns(draw):
    """(name, values) columns of mixed kinds and lengths, some of them ending
    on, just before or just after a block boundary, and whether write_csv must
    refuse them (a string cell that would need quoting)."""
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=5))
    widths = [draw(st.integers(0, 3)) if kind.endswith("2") else 1 for kind in kinds]
    assume(sum(widths) > 0)
    step = max(1, BLOCK_ELEMENTS // sum(widths))  # rows per block
    lengths = [draw(st.sampled_from([0, 1, 2, step - 1, step, step + 1, 2 * step + 1])) for _ in kinds]
    words = PLAIN_WORDS + (QUOTED_WORDS if draw(st.booleans()) else [])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = [(f"c{i}", _column(kind, length, width, words, rng))
               for i, (kind, length, width) in enumerate(zip(kinds, lengths, widths))]
    cells = [cell for kind, (_, values) in zip(kinds, columns) if kind == "str" for cell in values]
    refuse = any(set(cell) & set(',"\r\n') for cell in cells) or (sum(widths) == 1 and "" in cells)
    return columns, refuse


class TestWriterMatchesCsvModule:
    @fixed_or_fresh(60)
    @given(ragged_columns())
    def test_bytes_match_or_the_cells_are_refused(self, case):
        columns, refuse = case
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            if refuse:
                with pytest.raises(ValueError, match="needs CSV quoting"):
                    write_csv(columns, got)
                return
            write_csv(columns, got)
            ref_write_csv(columns, want)
            assert got.read_bytes() == want.read_bytes()

    @pytest.mark.parametrize("cell", ["a,b", 'a"b', "a\nb", "a\rb"])
    def test_a_string_cell_that_needs_quoting_is_refused(self, tmp_path, cell):
        columns = [("index", [0, 1]), ("certified", ["i", "ii"]), ("predicted", ["converges", cell])]
        with pytest.raises(ValueError, match=f"column 'predicted': cell {re.escape(repr(cell))} needs CSV quoting"):
            write_csv(columns, tmp_path / "trace.csv")

    def test_a_lone_empty_cell_and_a_quoted_name_are_refused(self, tmp_path):
        with pytest.raises(ValueError, match="column 'verdict': cell '' needs CSV quoting"):
            write_csv([("verdict", ["true", ""])], tmp_path / "trace.csv")
        write_csv([("verdict", ["true", ""]), ("n", range(2))], tmp_path / "trace.csv")
        assert (tmp_path / "trace.csv").read_text() == "verdict,n\ntrue,0\n,1\n"
        with pytest.raises(ValueError, match="the header: cell 'x,y' needs CSV quoting"):
            write_csv([("x,y", np.zeros(2))], tmp_path / "trace.csv")

    def test_a_block_of_values_repeated_across_groups(self, tmp_path):
        # each distinct float of a block is written once, keyed by its bits: 0.0 and -0.0
        # compare equal yet print differently, and a NaN of any payload equals nothing
        nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001, 0x7FF4DEADBEEF0000],
                        dtype=np.uint64).view(np.float64)
        pool = np.concatenate([[0.0, -0.0, math.inf, -math.inf, 5e-324, -1e-310, 2.2250738585072014e-308,
                                0.5, 0.1, 1.0 / 3.0], nans])
        # float32 values, NaNs with payloads (one signaling) among them, each widened to float64
        pool32 = np.concatenate([np.array([0.0, -0.0, math.inf, 1e-45, 0.5, 0.1], dtype=np.float32),
                                 np.array([0x7FC00000, 0xFFC00001, 0x7F800001], dtype=np.uint32).view(np.float32)])
        rng = np.random.default_rng(12)
        rows = 60
        columns = [("n", range(rows)),
                   ("z", rng.choice(pool, size=(rows, 3))),
                   ("f32", rng.choice(pool32, size=(rows, 2))),
                   ("short", rng.choice(pool, size=rows // 2 + 1)),  # ends mid-block
                   ("gate", rng.integers(0, 2, size=(rows, 2))),
                   ("x", pool[rng.integers(0, pool.size, size=rows)].tolist())]
        assert rows * 10 < BLOCK_ELEMENTS  # one block
        write_csv(columns, tmp_path / "got.csv")
        ref_write_csv(columns, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_text()
        assert got == (tmp_path / "want.csv").read_text()
        cells = set(got.replace("\n", ",").split(","))
        assert {"0.0", "-0.0", "nan", "inf", "-inf", "5e-324", "-1e-310", "0.1", "0.10000000149011612",
                "1.401298464324817e-45"} <= cells

    def test_a_float_wider_than_8_bytes_is_written_as_str_writes_it(self, tmp_path):
        # a np.longdouble scalar reprs as np.longdouble('...'); 0.0 and -0.0 stay apart
        wide = np.array([0.1, -0.0, 0.0, 1.0 / 3.0, math.inf, -math.inf, math.nan, 1e-5], dtype=np.longdouble)
        columns = [("n", range(wide.size)), ("w", wide), ("w2", np.stack([wide[::-1], wide], axis=1)),
                   ("x", wide.astype(float))]
        write_csv(columns, tmp_path / "got.csv")
        ref_write_csv(columns, tmp_path / "want.csv")
        got = (tmp_path / "got.csv").read_text()
        assert got == (tmp_path / "want.csv").read_text()
        assert "longdouble" not in got and got.splitlines()[2].startswith(f"1,-0.0,{wide[6]},-0.0,")

    @fixed_or_fresh(30)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 100, 3000]))
    def test_integer_groups_of_every_dtype_among_floats(self, seed, rows):
        # each integer dtype at its iinfo edges and at random, one-byte and bool groups,
        # a range that starts past 0, and floats between them, over one or more blocks
        rng = np.random.default_rng(seed)
        columns = [("n", range(7, 7 + rows))]
        for dtype in (np.int8, np.uint8, np.int16, np.uint16, np.int32, np.uint32, np.int64, np.uint64, bool):
            info = np.iinfo(dtype) if dtype is not bool else None
            if info is None:
                values = rng.random((rows, 2)) < 0.5
            else:
                edges = np.array([v for v in (info.min, info.max, 0, -1) if info.min <= v <= info.max], dtype=dtype)
                values = np.where(rng.random((rows, 2)) < 0.3, rng.choice(edges, size=(rows, 2)),
                                  rng.integers(info.min, info.max, size=(rows, 2), dtype=dtype, endpoint=True))
            columns += [(np.dtype(dtype).name, values), (f"x_{np.dtype(dtype).name}", rng.normal(size=rows // 2 + 1))]
        with tempfile.TemporaryDirectory() as tmp:
            got, want = Path(tmp) / "got.csv", Path(tmp) / "want.csv"
            write_csv(columns, got)
            ref_write_csv(columns, want)
            assert got.read_bytes() == want.read_bytes()

    def test_other_shapes_are_refused(self, tmp_path):
        for values in (np.zeros((2, 2, 2)), np.array([["a", "b"]])):
            with pytest.raises(ValueError, match="expected a 1-D column or a 2-D array of numbers"):
                write_csv([("x", values)], tmp_path / "trace.csv")


def jungck_columns(rng: np.random.Generator, d: int = 20, rows: int = 1000) -> list:
    """A jungck trace's columns: corrected columns and gates end two rows early,
    the identity residual one row early, and gated-off corrected cells repeat
    their raw ones."""
    decay = 0.97 ** np.arange(rows)[:, None]
    z, y = rng.normal(size=(1, d)) * decay, rng.normal(size=(1, d)) * decay
    sz, sy = 1.03 * z, 1.03 * y
    gz, gy = rng.integers(0, 2, size=(rows - 2, d)), rng.integers(0, 2, size=(rows - 2, d))
    asz = np.where(gz == 1, np.round(sz[:-2], 3), sz[:-2])
    asy = np.where(gy == 1, 0.0, sy[:-2])
    residual = np.where(rng.random(rows - 1) < 0.5, 0.0, rng.random(rows - 1) * 1e-16)
    return [("n", range(rows)), ("z", z), ("y", y), ("Sz", sz), ("Sy", sy), ("ASz", asz), ("ASy", asy),
            ("gate_z", gz), ("gate_y", gy), ("identity_residual", residual)]


def aitken_columns(rng: np.random.Generator, d: int = 50, rows: int = 3000) -> list:
    """An aitken-only trace: a geometric sequence, its corrected terms (the limit,
    repeated) and integer gates."""
    values = (rng.uniform(-5, 5, size=d) + rng.uniform(-2, 2, size=d)
              * rng.uniform(0.1, 0.8, size=d) ** np.arange(rows)[:, None])
    accel, gates = accelerate_sequence(values, GatePolicy.threshold(1e-12), 1e-12)
    return [("n", range(rows)), ("x", values), ("Ax", accel), ("gate", gates)]


def venter_columns(steps: int = 20_000) -> list:
    """A venter trace: a ``range`` column, per-step columns one row short and
    all-zero gamma and omega columns."""
    trace = venter.venter_run(venter.VenterConfig(alpha=Schedule.inv_pow(k=3, p=0.7),
                                                  gamma=Schedule.constant(0.0), omega=Schedule.constant(0.0),
                                                  steps=steps))
    return [("n", range(trace.steps + 1)), ("x", trace.x), ("k_hat", trace.k_hat),
            ("alpha", trace.alpha_vals), ("gamma", trace.gamma_vals), ("omega", trace.omega_vals),
            ("sum_alpha_x", trace.sum_alpha_x), ("sum_gamma_x", trace.sum_gamma_x),
            ("sum_omega", trace.sum_omega), ("sum_x", trace.sum_x)]


class TestWriterAtBenchmarkShapes:
    """Many-block tables at the shapes of the long generated traces: jungck
    d=20 with 1000 rows, aitken-only d=50 with 3000 rows, venter with 20001."""

    @pytest.mark.parametrize("build", [lambda: jungck_columns(np.random.default_rng(3)),
                                       lambda: aitken_columns(np.random.default_rng(4)),
                                       venter_columns], ids=["jungck", "aitken", "venter"])
    def test_bytes_match_the_csv_module(self, tmp_path, build):
        columns = build()
        width = sum(v.shape[1] if getattr(v, "ndim", 1) == 2 else 1 for _, v in columns)
        assert max(len(v) for _, v in columns) > 10 * max(1, BLOCK_ELEMENTS // width)  # many blocks
        write_csv(columns, tmp_path / "got.csv")
        ref_write_csv(columns, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_peak_memory_does_not_grow_with_the_row_count(self, tmp_path):
        # 162 float columns, as wide as a d=20 jungck trace; the peak is one
        # block's codes and texts, whatever the number of rows.  The floats
        # come from a pool of 256, since every traced repr slows the run.
        pool = np.random.default_rng(5).normal(size=256)

        def peak(rows: int) -> int:
            rng = np.random.default_rng(rows)
            columns = [("n", range(rows)), ("v", rng.choice(pool, size=(rows, 160))), ("r", rng.choice(pool, rows))]
            return traced_peak(lambda: write_csv(columns, tmp_path / "trace.csv"))[0]

        assert peak(8000) <= 1.1 * peak(1000)

    def test_peak_memory_with_distinct_floats(self, tmp_path):
        # every float distinct, as wide as a d=20 jungck trace: the formatter's
        # temporaries are one block's, whatever the number of rows
        def peak(rows: int) -> int:
            rng = np.random.default_rng(rows)
            columns = [("n", range(rows)), ("v", rng.normal(size=(rows, 160))), ("r", rng.normal(size=rows))]
            return traced_peak(lambda: write_csv(columns, tmp_path / "trace.csv"))[0]

        # and stay below 4 MB: about 0.73 MB, under the 1.89 MB at which the
        # benchmark's jungck op (d=20, 1000 steps) peaks with its trace held
        assert peak(8000) <= 1.1 * peak(1000) < 4_000_000

    def test_working_set_is_one_block_of_cells_and_one_kernel_call(self, tmp_path):
        # every float distinct, as wide as a d=20 jungck trace: beyond its inputs,
        # write_csv holds at most one block's cell matrix (a text and a comma a cell)
        # plus what one float_texts call on the block's distinct floats takes, since
        # the cells are taken from the table in row chunks, the block before's float
        # texts are freed first, and float_texts runs the kernel on CHUNK floats a call
        rng = np.random.default_rng(7)
        rows = 1000
        columns = [("n", range(rows)), ("v", rng.normal(size=(rows, 160))), ("r", rng.normal(size=rows))]
        step = BLOCK_ELEMENTS // 162
        keys = np.unique(np.concatenate([columns[1][1][:step].ravel(), columns[2][1][:step]]))
        floattext.float_texts(keys)  # numpy's first-use allocations happen outside the measurement
        kernel, texts = traced_peak(lambda: floattext.float_texts(keys))
        cells = step * 162 * (texts.shape[1] + 1)
        write_csv(columns, tmp_path / "trace.csv")
        peak, _ = traced_peak(lambda: write_csv(columns, tmp_path / "trace.csv"))
        # 0.73 <= 0.79 MB; with the kernel on all 8,050 floats in one call, float_texts
        # took 1.33 MB and the writer 1.47 MB, under a bound of 1.53 MB
        assert peak <= cells + kernel

    def test_the_working_set_is_the_same_for_200_and_1000_rows(self, tmp_path):
        # what the writer holds is one block's, so five times the rows hold what
        # one fifth of them holds (732,809 and 732,797 bytes)
        def peak(rows: int) -> int:
            rng = np.random.default_rng(7)
            columns = [("n", range(rows)), ("v", rng.normal(size=(rows, 160))), ("r", rng.normal(size=rows))]
            write_csv(columns, tmp_path / "trace.csv")
            return traced_peak(lambda: write_csv(columns, tmp_path / "trace.csv"))[0]

        short, long = peak(200), peak(1000)
        assert abs(long - short) <= 0.01 * short

    def test_page_faults_do_not_depend_on_what_was_freed_before(self):
        # glibc serves an allocation above its mmap threshold with fresh pages, and
        # raises the threshold to the largest block a process has freed, so a writer
        # whose temporaries grow past the threshold faults on them until something
        # larger was freed.  A jungck-shaped write, whose kernel calls take 1024
        # floats, faults 0 or 1 times a call either way.  A fresh interpreter, so
        # that no earlier test has moved the threshold.
        script = (
            "import json, resource, sys\n"
            "import numpy as np\n"
            "from pathlib import Path\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from test_cli import jungck_columns\n"
            "from jungckit.cli import write_csv\n"
            "cols, out = jungck_columns(np.random.default_rng(3)), Path(sys.argv[2])\n"
            "def faults():\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    write_csv(cols, out)\n"
            "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before\n"
            "write_csv(cols, out)\n"
            "alone = [faults() for _ in range(10)]\n"
            "big = np.ones(150_000)\n"
            "del big\n"
            "print(json.dumps([alone, [faults() for _ in range(10)]]))\n"
        )
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run([sys.executable, "-c", script, str(Path(__file__).parent), str(Path(tmp) / "t.csv")],
                                  capture_output=True, text=True, timeout=120,
                                  env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
        assert proc.returncode == 0, proc.stderr
        alone, after = __import__("json").loads(proc.stdout)
        assert max(alone) <= 16 and max(after) <= 16, (alone, after)

    def test_an_empty_stream_of_row_blocks_is_refused_before_the_file_is_opened(self, tmp_path):
        def blocks():
            return
            yield

        for stream in (iter([]), blocks()):
            with pytest.raises(InvalidArgumentError, match="at least one row block"):
                write_csv(stream, tmp_path / "trace.csv")
        assert not (tmp_path / "trace.csv").exists()

    def test_blocks_take_over_the_float_texts_of_the_block_before(self, tmp_path):
        # a block whose floats are all among the last float texts' keys takes those
        # texts over, whether blocks without floats came between or not; any other
        # block makes its own
        rng = np.random.default_rng(11)
        pool = np.array([1.0, 2.0, -0.0, 0.0, math.nan, 0.1, 1e300, -2.5])
        blocks = []
        for size in (6, 6, 0, 6, 2, 0, 0, 6, 3, 6):
            v = rng.choice(pool[:rng.integers(1, 5)], size=size) if size else np.empty(0)
            blocks.append([("v", v), ("w", rng.choice(pool, size=(size // 2, 2))), ("n", range(4))])
        blocks[1][0] = ("v", blocks[0][0][1].copy())  # the same floats twice in a row
        blocks[3][0] = ("v", blocks[0][0][1].copy())  # and again after a block without floats
        write_csv(iter(blocks), tmp_path / "got.csv")
        lines = []
        for block in blocks:
            ref_write_csv(block, tmp_path / "want.csv")
            lines += (tmp_path / "want.csv").read_text().splitlines(keepends=True)[1:]
        assert (tmp_path / "got.csv").read_text() == "v,w[0],w[1],n\n" + "".join(lines)

    def test_a_stream_of_row_blocks_writes_the_table_of_its_columns(self, tmp_path):
        columns = aitken_columns(np.random.default_rng(4), d=3, rows=500)
        cuts = [0, 1, 2, 137, 138, 499, 500]  # Ax and gate end two rows before n and x, in the fifth block
        blocks = ([(name, values[lo:hi]) for name, values in columns] for lo, hi in zip(cuts, cuts[1:]))
        write_csv(blocks, tmp_path / "got.csv")
        write_csv(columns, tmp_path / "want.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
        other = iter([columns, columns[:-1]])
        with pytest.raises(ValueError, match="a row block's columns differ from the first block's"):
            write_csv(other, tmp_path / "got.csv")

    def test_one_byte_gates_write_as_eight_byte_ones(self, tmp_path):
        columns = aitken_columns(np.random.default_rng(4))
        name, gates = columns[-1]
        assert gates.dtype == np.int8
        write_csv(columns, tmp_path / "int8.csv")
        write_csv(columns[:-1] + [(name, gates.astype(np.int64))], tmp_path / "int64.csv")
        assert (tmp_path / "int8.csv").read_bytes() == (tmp_path / "int64.csv").read_bytes()

    @pytest.mark.parametrize("build", [lambda: jungck_columns(np.random.default_rng(3)), venter_columns],
                             ids=["jungck", "venter"])
    def test_few_floats_go_through_repr(self, build):
        # the formatter's kernel writes all but a few of a trace's distinct floats itself
        floats = [np.asarray(v, dtype=np.float64).ravel() for _, v in build()
                  if isinstance(v, np.ndarray) and v.dtype.kind == "f"]
        keys = np.unique(np.concatenate(floats).view(np.uint64)).view(np.float64)
        assert len(keys) > 50_000 and floattext._shortest(keys)[1].mean() < 0.001


# ---------------------------------------------------------------------------
# parser fuzzing: a mutated shipped config ends in exit 2 or in a checked run

#: the shipped configs, the scan cut from 40 configs to 4 to keep each example short,
#: and a jungck config that spells out every optional key, so that mutations reach them
FUZZ_BASES = {p.name: yaml.safe_load(p.read_text()) for p in CONFIGS.glob("*.yaml")}
FUZZ_BASES["stability_scan.yaml"]["scan"]["count"] = 4
FUZZ_BASES["every_jungck_key"] = {"scenario": "jungck", "output": "out", "jungck": {
    "s": {"matrix": [[2.0, 0.5], [0.0, 1.5]]},
    "t": {"name": "scale", "dim": 2, "value": 0.5},
    "a": {"form": "inv-pow", "k": 3, "p": 2.0, "clamp": [0.0, 1.0]},
    "b": {"form": "one-minus-inv", "k": 2, "clamp": [0.0, 1.0]},
    "gate_z": {"mode": "threshold", "tau": 1.0e-9},
    "gate_y": {"mode": "list", "values": [1, 0] * 15},
    "z0": [1.0, 0.5],
    "steps": 30,
    "solve_tol": 1.0e-10,
    "floor_scale": 1.0e-12,
    "nonneg_domain": True,
    "stability": {"horizon": 40, "tail_start": 5, "tail_tol": 0.01, "positivity": True},
}}

#: what a mutation writes in place of a value; DROP deletes the key or list entry
DROP = object()
MUTANTS = (DROP, math.nan, True, False, "1e-6", None, "x", [], {}, 0, -1, 0.5, 2, [1.0], [0.5, 0.5], [[1.0]],
           1.0e300)


def _paths(node, prefix=()):
    """The path of every mapping key and list entry under ``node``."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_configs(draw):
    """A shipped config with one to three values dropped or replaced."""
    doc = FUZZ_BASES[draw(st.sampled_from(sorted(FUZZ_BASES)))]
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(doc))
        if not paths:
            break
        path, value = draw(st.sampled_from(paths)), draw(st.sampled_from(MUTANTS))
        doc = copy.deepcopy(doc)
        parent = functools.reduce(operator.getitem, path[:-1], doc)
        if value is DROP:
            del parent[path[-1]]
        else:
            parent[path[-1]] = copy.deepcopy(value)
    return yaml.safe_dump(doc)


def _is_finite_cell(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return True  # empty, a verdict or a certificate list


#: a finite seed whose residuals, near 1e290, square past the largest float
HUGE_SEED = (CONFIGS / "jungck_scalar.yaml").read_text().replace("z0: [1.0]", "z0: [1.0e+300]")
#: a positivity run whose iterates underflow to 0 while ||t|| = 2.01 keeps the
#: certificate constants reading every power of t
OVERFLOWING_RATIO = (CONFIGS / "positivity_demo.yaml").read_text().replace("[[0.25, 0.1], [0.1, 0.2]]",
                                                                           "[[0.0, 2.0], [0.1, 0.2]]")


#: cond(s) = 2e300: the inverse's accuracy bound 4*d*eps*cond(s)^2 is past the float range
HUGE_COND = yaml.safe_dump({**FUZZ_BASES["every_jungck_key"], "jungck": {
    **FUZZ_BASES["every_jungck_key"]["jungck"], "s": {"matrix": [[2.0, 0.5], [1.0e300, 1.5]]}}})
#: ||t|| near 1e300: the certificate constants' rounding excess is past the float range
HUGE_T = (CONFIGS / "positivity_demo.yaml").read_text().replace("[[0.25, 0.1], [0.1, 0.2]]",
                                                                "[[0.25, 1.0e+300], [0.1, 0.2]]")
#: a weight of 5 on ||t|| = 1e308: the weighted norm in the certificate constants is past the float range
HUGE_WEIGHT = HUGE_T.replace("1.0e+300", "1.0e+308").replace(
    "a: {form: constant, value: 1.0}", "a: {form: constant, value: 5.0, clamp: [0.0, 10.0]}")


@fixed_or_fresh(40)
@given(mutated_configs())
@example(HUGE_SEED)
@example(OVERFLOWING_RATIO)
@example(HUGE_COND)
@example(HUGE_T)
@example(HUGE_WEIGHT)
@example((CONFIGS / "aitken_geometric.yaml").read_text().replace("limit: 3.0", "limit: 1.0e+300"))
def test_mutated_shipped_configs_exit_two_or_check(text):
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "cfg.yaml", Path(tmp) / "out"
        path.write_text(text)
        status = main(["--config", str(path), "--output", str(out), "--quiet"])
        if status == 2:
            with pytest.raises(ConfigError):
                parse_config_text(text)
            return
        assert status in (0, 1)
        report = (out / "report.txt").read_text()
        assert not re.search(r"\bnan\b", report)
        lines = report.splitlines()
        assert any(line.startswith(("PASS ", "FAIL ")) for line in lines)
        if not (out / "trace.csv").exists():  # a typed error stopped the run before its trace
            assert any(line.startswith("FAIL run aborted: ") for line in lines)
            return
        with (out / "trace.csv").open(newline="") as fh:
            assert all(_is_finite_cell(cell) for row in list(csv.reader(fh))[1:] for cell in row)


# ---------------------------------------------------------------------------
# libyaml's loader against the pure-Python one: the same documents


needs_libyaml = pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML was built without libyaml")


def _load_both(text: str):
    return yaml.load(text, Loader=yaml.CSafeLoader), yaml.load(text, Loader=yaml.SafeLoader)


def _generated_jungck(d: int, rng: np.random.Generator) -> str:
    """A d-dimensional jungck document of nested float lists, as a program would dump it."""
    return yaml.safe_dump({"scenario": "jungck", "jungck": {
        "s": {"matrix": (rng.normal(size=(d, d)) + 3 * np.eye(d)).tolist()},
        "t": {"matrix": (rng.normal(size=(d, d)) * rng.choice([1e-300, 1e-5, 1.0, 1e300])).tolist()},
        "a": {"form": "constant", "value": float(rng.uniform())},
        "b": {"form": "one-minus-inv", "k": int(rng.integers(2, 8))},
        "gate_z": {"mode": "threshold", "tau": 1e-9},
        "z0": (rng.normal(size=d) * 10.0 ** rng.integers(-300, 300, size=d)).tolist(),
        "steps": 1000,
    }}, sort_keys=False)


@needs_libyaml
class TestLoadersAgree:
    @pytest.mark.parametrize("name", sorted(p.name for p in CONFIGS.glob("*.yaml")))
    def test_shipped_config(self, name):
        c_doc, py_doc = _load_both((CONFIGS / name).read_text())
        assert c_doc == py_doc and repr(c_doc) == repr(py_doc)

    @pytest.mark.parametrize("seed", range(3))
    def test_generated_jungck_document(self, seed):
        text = _generated_jungck(20, np.random.default_rng(seed))
        assert len(text) > 20_000
        c_doc, py_doc = _load_both(text)
        assert c_doc == py_doc and repr(c_doc) == repr(py_doc)

    @fixed_or_fresh(100)
    @given(mutated_configs())
    @example(HUGE_COND)
    def test_mutated_config(self, text):
        # repr, since a mutation may write nan, which == never matches; repr also tells
        # 1 from 1.0 and True, and 0.0 from -0.0
        c_doc, py_doc = _load_both(text)
        assert repr(c_doc) == repr(py_doc)
