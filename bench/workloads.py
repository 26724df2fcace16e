"""Seeded inputs, operations and output checks for the benchmark workloads.

Each workload has two kinds of input.  The benchmark's own inputs (random
matrices, seeds, YAML files) are made with numpy from the workload seed in
``__init__`` and are never timed.  The program-side inputs (the jungckit
objects an operation consumes) are made by ``build``, which is what the
set-up probe times together with ``import jungckit``.

Every workload is a closed loop with one client.  ``schedule(i)`` names the
input of the i-th operation of the timed loop, and the loop only stops after
an operation count that is a multiple of ``round_len``.  Output checks use
invariants the repository already gates on, and the first output of every
input is kept as a digest so that a repeated input must reproduce it.
"""

from __future__ import annotations

import hashlib
import json
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

#: relative step-identity tolerance, as in the CLI's identity-residual check
IDENTITY_TOL = 1e-9

#: scan_d5's vetted candidate sweeps, written by bench/vet_sweeps.py
SWEEPS_PATH = Path(__file__).resolve().parent / "scan_sweeps.json"
#: candidate sweep seeds; fixed, so that they are vetted once, not per run
SWEEP_CANDIDATES = 480
SWEEP_CANDIDATE_SEED = 20131024


@dataclass
class Outcome:
    """Result of checking one operation's output."""

    ok: bool
    digest: str
    reason: str = ""
    counts: dict | None = None


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def candidate_sweep_seeds() -> list[int]:
    """The fixed list scan_d5 draws its sweep seeds from."""
    return _seeds(np.random.default_rng(SWEEP_CANDIDATE_SEED), SWEEP_CANDIDATES)


def _quota(sizes: dict, total: int) -> dict:
    """Split ``total`` over the classes in proportion to their sizes (largest remainder)."""
    n = sum(sizes.values())
    exact = {c: total * k / n for c, k in sizes.items()}
    quota = {c: int(x) for c, x in exact.items()}
    for c in sorted(exact, key=lambda c: quota[c] - exact[c])[:total - sum(quota.values())]:
        quota[c] += 1
    return {c: q for c, q in quota.items() if q}


class Ledger:
    """Checks every operation's output and keeps the first digest per input."""

    def __init__(self, workload):
        self.workload = workload
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []
        self.tracebacks: list = []

    def record(self, idx: int, result, error):
        self.attempted += 1
        if error is not None:
            outcome = Outcome(False, "", f"raised {type(error).__name__}: {error}")
            self.tracebacks.append("".join(traceback.format_exception(error)))
        else:
            try:
                outcome = self.workload.check(idx, result)
            except OSError as exc:
                outcome = Outcome(False, "", f"output unreadable: {exc}")
            first = self.digests.setdefault(idx, outcome.digest)
            if outcome.ok and outcome.digest != first:
                outcome = Outcome(False, outcome.digest, "output differs from an earlier run of the same input",
                                  outcome.counts)
        if not outcome.ok:
            self.failed += 1
            self.reasons.append(f"input {idx}: {outcome.reason}")
        return outcome


# ---------------------------------------------------------------------------
# scan_d5


class ScanWorkload:
    """One op = one ``run_scan`` sweep of K seeded d=5 configs.

    Every op gets its own sweep seed, drawn by the run seed from a fixed list
    of candidates.  The candidates that report the false certificate
    violation of open item 1 are left out (bench/vet_sweeps.py lists them),
    so that no op fails on that known defect; the check itself is unchanged.

    Only certified configs are simulated, so an op's cost is set by how many
    of its K configs certify.  Drawn freely, a 30 s run's mix of those
    counts, and with it op_p50_ms, varied from seed to seed by more than the
    bound.  The ops therefore come in rounds of ROUND sweeps whose certified
    counts are in the candidates' proportions; the run seed picks which
    sweeps fill each class and the order within a round.  The memory pass
    runs input 0 before the timed loop, whose first op repeats it.
    """

    name = "scan_d5"
    K = 5
    DIM, STEPS, HORIZON = 5, 1000, 1000
    ROUND = 10
    round_len = 1
    trace_block = 3
    memory_ops = (0,)

    def __init__(self, seed: int, workdir: Path, root: Path):
        vetted = json.loads(SWEEPS_PATH.read_text())
        excluded = {e["seed"] for e in vetted["excluded"]}
        classes: dict = {}
        for s, certified in zip(candidate_sweep_seeds(), vetted["certified"]):
            if s not in excluded:
                classes.setdefault(certified, []).append(s)
        quota = _quota({c: len(m) for c, m in classes.items()}, self.ROUND)
        self.quota = dict(sorted(quota.items()))
        rng = np.random.default_rng(seed)
        for members in classes.values():
            rng.shuffle(members)
        self.seeds: list = []
        while all(len(classes[c]) >= q for c, q in quota.items()):
            batch = [classes[c].pop() for c, q in quota.items() for _ in range(q)]
            rng.shuffle(batch)
            self.seeds += batch
        self.inputs: list = []

    def sizes(self) -> dict:
        return {"dim": self.DIM, "steps": self.STEPS, "horizon": self.HORIZON, "K": self.K,
                "round": {f"{c} certified": q for c, q in self.quota.items()},
                "op": "scan.run_scan(ScanSpec(dim, steps, horizon, count=K, seed))"}

    def build(self, jk) -> None:
        self.inputs = [
            jk.scan.ScanSpec(count=self.K, dim=self.DIM, steps=self.STEPS, horizon=self.HORIZON, seed=s)
            for s in self.seeds
        ]

    def schedule(self, i: int) -> int:
        return i % len(self.seeds)

    def run_op(self, jk, idx: int):
        return jk.scan.run_scan(self.inputs[idx])

    def known_defects(self, jk) -> list[str]:
        """Re-run open item 1's reproduction; it is not one of the ops."""
        spec = jk.scan.ScanSpec(count=1, dim=self.DIM, steps=self.STEPS, horizon=self.HORIZON, seed=202139719)
        notes = [n for o in jk.scan.run_scan(spec).violations for n in o.notes if "VIOLATED" in n]
        return [f"open item 1 reproduces, {spec}: {'; '.join(notes)}"] if notes else []

    def check(self, idx: int, result) -> Outcome:
        rows = [(o.certified, o.predicted, o.simulation_agrees, o.monotone_ok, o.final_ratio)
                for o in result.outcomes]
        digest = _digest(rows)
        if len(rows) != self.K:
            return Outcome(False, digest, f"{len(rows)} outcomes, expected {self.K}")
        if result.violations:
            return Outcome(False, digest, f"{len(result.violations)} certificate violation(s)")
        return Outcome(True, digest)


# ---------------------------------------------------------------------------
# dense_d300


class DenseWorkload:
    """One op = run, certify, cross_validate and a convergence report at d=300.

    Configs are drawn from the families of ``scan.sample_config``: ``s``
    with singular values in (0.8, 2.5) and one of four schedule families.
    ``t`` is scaled to a norm in (0.3, 0.9) rather than (0.05, 0.9): below
    about 0.2 the powers T^n underflow into subnormal numbers within 300
    steps and one op takes 3-4x longer, so the cost of a run would hinge on
    a single draw.  That slowdown is reported in NOTES.md as an open item.
    """

    name = "dense_d300"
    DIM, STEPS, HORIZON = 300, 300, 300
    POOL = 3
    round_len = 1
    trace_block = 1
    memory_ops = (0,)

    def __init__(self, seed: int, workdir: Path, root: Path):
        rng = np.random.default_rng(seed)
        self.raw = [self._draw(rng) for _ in range(self.POOL)]
        self.inputs: list = []

    def _draw(self, rng: np.random.Generator) -> dict:
        d = self.DIM
        raw = rng.normal(size=(d, d))
        t = raw * (rng.uniform(0.3, 0.9) / np.linalg.norm(raw, 2))
        q1, _ = np.linalg.qr(rng.normal(size=(d, d)))
        q2, _ = np.linalg.qr(rng.normal(size=(d, d)))
        s = q1 @ np.diag(rng.uniform(0.8, 2.5, size=d)) @ q2.T
        kind = int(rng.integers(0, 4))
        if kind == 0:
            a, b = ("constant", rng.uniform(0, 1)), ("constant", rng.uniform(0.8, 1.0))
        elif kind == 1:
            a, b = ("constant", rng.uniform(0, 1)), ("one-minus-inv", int(rng.integers(2, 8)))
        elif kind == 2:
            a, b = ("one-minus-inv", int(rng.integers(2, 8))), ("constant", rng.uniform(0, 1))
        else:
            a, b = ("constant", rng.uniform(0, 1)), ("constant", rng.uniform(0, 1))
        return {"s": s, "t": t, "a": a, "b": b, "z0": rng.normal(size=d)}

    def sizes(self) -> dict:
        return {"dim": self.DIM, "steps": self.STEPS, "horizon": self.HORIZON, "pool": self.POOL,
                "op": "engine.run, stability.certify, stability.cross_validate, "
                      "diagnostics.build_convergence_report(sz, asz)"}

    def build(self, jk) -> None:
        def schedule(spec):
            form, value = spec
            if form == "constant":
                return jk.model.Schedule.constant(float(value))
            return jk.model.Schedule.one_minus_inv(k=value)

        self.inputs = []
        for r in self.raw:
            pair = jk.model.make_operator_pair(jk.model.Operator.from_matrix(r["s"]),
                                               jk.model.Operator.from_matrix(r["t"]))
            self.inputs.append(jk.engine.JungckConfig(
                pair=pair, a=schedule(r["a"]), b=schedule(r["b"]),
                gates_z=jk.model.GatePolicy.always_on(), gates_y=jk.model.GatePolicy.always_on(),
                z0=r["z0"], steps=self.STEPS,
            ))

    def schedule(self, i: int) -> int:
        return i % self.POOL

    def known_defects(self, jk) -> list[str]:
        return []

    def run_op(self, jk, idx: int):
        cfg = self.inputs[idx]
        trace = jk.engine.run(cfg)
        report = jk.stability.certify(cfg, horizon=self.HORIZON)
        report = jk.stability.cross_validate(report, trace)
        conv = jk.diagnostics.build_convergence_report(trace.sz, trace.asz)
        return trace, report, conv

    def check(self, idx: int, result) -> Outcome:
        trace, report, conv = result
        margins = sorted((k, v.applies, v.margin) for k, v in report.properties.items())
        digest = _digest(trace.z, trace.y, trace.sz, trace.sy, trace.asz, trace.asy,
                         trace.gates_z, trace.gates_y, margins, report.predicted,
                         report.simulation_agrees, conv.estimated_limit, conv.limit_method,
                         len(conv.step_ratios), len(conv.accel_ratios))
        if report.simulation_agrees is False:
            return Outcome(False, digest, "cross_validate returned False")
        if not (np.all(np.isfinite(trace.asz)) and np.all(np.isfinite(trace.asy))):
            return Outcome(False, digest, "corrected rows are not finite")
        if trace.n_raw >= 2:
            a, b = trace.a_vals[:-1, None], trace.b_vals[:-1, None]
            lhs = b * trace.sz[1:] + (1.0 - a) * (1.0 - b) * trace.sz[:-1]
            rhs = (1.0 - a) * trace.sy[:-1] + a * b * trace.ty[:-1]
            rel = np.linalg.norm(lhs - rhs, axis=1) / (1.0 + np.linalg.norm(trace.sz[1:], axis=1))
            worst = float(np.max(rel))
            if not worst <= IDENTITY_TOL:
                return Outcome(False, digest, f"identity residual {worst:.3e} > {IDENTITY_TOL:g}")
        return Outcome(True, digest)


# ---------------------------------------------------------------------------
# cli_configs

#: the shipped configs run verbatim; stability_scan.yaml is scan_d5's traffic
SHIPPED = ("aitken_geometric.yaml", "jungck_scalar.yaml", "positivity_demo.yaml",
           "venter_bound.yaml", "venter_decay.yaml")


def _symmetric(rng: np.random.Generator, eigenvalues: np.ndarray) -> np.ndarray:
    """Symmetric matrix with the given eigenvalues and a random eigenbasis."""
    d = len(eigenvalues)
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (q * eigenvalues) @ q.T


def _expected_rows(doc: dict) -> int:
    """Data rows trace.csv must hold for a config that runs to completion."""
    scenario = doc["scenario"]
    if scenario == "jungck":
        return doc["jungck"]["steps"]
    if scenario == "venter":
        return doc["venter"]["steps"] + 1
    if scenario == "aitken-only":
        return doc["aitken"]["sequence"]["length"]
    raise ValueError(f"no row rule for scenario {scenario!r}")


class CliWorkload:
    """One op = one in-process ``cli.main`` call on a config file.

    A round runs the five shipped configs five times, interleaved with four
    generated long-trace configs: two jungck runs, one aitken-only pass and
    one venter recursion.  Shipped configs are 25 of the 29 ops, so the
    median is the fixed cost of one invocation; the jungck configs appear
    twice per round, so the 10 slowest ops of a run stay within one kind
    whatever the number of rounds, and ``op_tail_ms`` does not jump between
    kinds when a run completes one round more or less.
    """

    name = "cli_configs"
    JUNGCK_DIM, JUNGCK_STEPS = 20, 1000
    AITKEN_DIM, AITKEN_LENGTH = 50, 3000
    VENTER_STEPS = 20000
    trace_block = 29

    def __init__(self, seed: int, workdir: Path, root: Path):
        rng = np.random.default_rng(seed)
        cfg_dir = workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.paths: list[Path] = []
        self.expected: list[int] = []
        for name in SHIPPED:
            self._add(root / "configs" / name, yaml.safe_load((root / "configs" / name).read_text()))
        generated = {
            "jungck0": self._jungck(rng), "jungck1": self._jungck(rng),
            "aitken": self._aitken(rng), "venter": self._venter(rng),
        }
        ids = {}
        for name, doc in generated.items():
            path = cfg_dir / f"{name}.yaml"
            # the emitter writes every float in a form YAML 1.1 resolves as a float
            path.write_text(yaml.safe_dump(doc, sort_keys=False))
            ids[name] = self._add(path, doc)
        shipped = list(range(len(SHIPPED)))
        self.round = (shipped + [ids["jungck0"]] + shipped + [ids["aitken"]] + shipped
                      + [ids["jungck1"]] + shipped + [ids["venter"]] + shipped)
        self.round_len = len(self.round)
        self.memory_ops = tuple(shipped + [ids["jungck0"], ids["aitken"], ids["venter"]])
        self.inputs: list = []

    def _add(self, path: Path, doc: dict) -> int:
        self.paths.append(path)
        self.expected.append(_expected_rows(doc))
        return len(self.paths) - 1

    def _jungck(self, rng: np.random.Generator, m: float | None = None) -> dict:
        d = self.JUNGCK_DIM
        # t just inside the unit ball and s with minimum modulus m in (1.02, 1.05):
        # iterates decay like m^-n, slowly, so traces stay long and nothing
        # underflows.  Below m of about 1.01 the certified promise
        # ||z_N|| < 1e-6 ||z_0|| fails by step 1000 and the CLI reports FAIL
        # (NOTES.md, open item 2); the range stops short of that so that no op
        # fails on the known defect, and known_defects() shows it instead.
        m = rng.uniform(1.02, 1.05) if m is None else m
        s_eigenvalues = np.append(m, rng.uniform(m, 1.05, size=d - 1))
        return {"scenario": "jungck", "jungck": {
            "s": {"matrix": _symmetric(rng, s_eigenvalues).tolist()},
            "t": {"matrix": _symmetric(rng, rng.uniform(1.0 - 1e-6, 1.0 - 1e-7, size=d)).tolist()},
            "a": {"form": "constant", "value": float(rng.uniform(0.3, 0.9))},
            "b": {"form": "one-minus-inv", "k": int(rng.integers(2, 8))},
            "gate_z": {"mode": "threshold", "tau": 1e-9},
            "gate_y": {"mode": "threshold", "tau": 1e-9},
            "z0": rng.normal(size=d).tolist(),
            "steps": self.JUNGCK_STEPS,
            "stability": {"horizon": self.JUNGCK_STEPS},
        }}

    def _aitken(self, rng: np.random.Generator) -> dict:
        d = self.AITKEN_DIM
        return {"scenario": "aitken-only", "aitken": {
            "sequence": {"kind": "geometric", "limit": rng.uniform(-5, 5, size=d).tolist(),
                         "coeff": rng.uniform(-2, 2, size=d).tolist(),
                         "ratio": rng.uniform(0.1, 0.8, size=d).tolist(),
                         "length": self.AITKEN_LENGTH},
            "gate": {"mode": "threshold", "tau": 1e-12},
        }}

    def _venter(self, rng: np.random.Generator) -> dict:
        return {"scenario": "venter", "venter": {
            "alpha": {"form": "inv-pow", "k": int(rng.integers(2, 6)), "p": float(rng.uniform(0.6, 0.9))},
            "gamma": {"form": "constant", "value": 0.0},
            "omega": {"form": "constant", "value": 0.0},
            "sigma": 0.0, "x0": 1.0, "steps": self.VENTER_STEPS,
        }}

    def sizes(self) -> dict:
        return {"shipped": list(SHIPPED), "jungck": {"dim": self.JUNGCK_DIM, "steps": self.JUNGCK_STEPS,
                                                     "gates": "threshold 1e-9", "stability": True},
                "aitken": {"dim": self.AITKEN_DIM, "length": self.AITKEN_LENGTH, "gates": "threshold 1e-12"},
                "venter": {"steps": self.VENTER_STEPS},
                "round": [self.paths[i].stem for i in self.round]}

    def build(self, jk) -> None:
        self.inputs = [str(p) for p in self.paths]

    def schedule(self, i: int) -> int:
        return self.round[i % self.round_len]

    def out_dir(self, idx: int) -> Path:
        return self.workdir / "out" / str(idx)

    def run_op(self, jk, idx: int):
        return jk.cli.main(["--config", self.inputs[idx], "--output", str(self.out_dir(idx)), "--quiet"])

    def known_defects(self, jk) -> list[str]:
        """Run open item 2's reproduction, minimum modulus 1.001; it is not one of the ops."""
        path = self.workdir / "configs" / "open_item_2.yaml"
        path.write_text(yaml.safe_dump(self._jungck(np.random.default_rng(2), m=1.001), sort_keys=False))
        out = self.workdir / "out" / "open_item_2"
        code = jk.cli.main(["--config", str(path), "--output", str(out), "--quiet"])
        fails = [ln for ln in (out / "report.txt").read_text().splitlines() if ln.startswith("FAIL ")]
        return [f"open item 2 reproduces, exit code {code}: {'; '.join(fails)}"] if fails else []

    def check(self, idx: int, result) -> Outcome:
        out = self.out_dir(idx)
        report = (out / "report.txt").read_bytes()
        trace = (out / "trace.csv").read_bytes()
        digest = _digest(hashlib.sha256(trace).hexdigest(), hashlib.sha256(report).hexdigest())
        lines = report.decode().splitlines()
        passes = sum(1 for ln in lines if ln.startswith("PASS "))
        fail_lines = [ln for ln in lines if ln.startswith("FAIL ")]
        fails = len(fail_lines)
        counts = {"cli.checks": passes + fails, "cli.checks_failed": fails}
        rows = trace.count(b"\n") - 1
        if result != 0:
            first = fail_lines[0][:160] if fail_lines else "no FAIL line"
            return Outcome(False, digest, f"exit code {result}, {self.paths[idx].name}: {first}", counts)
        if fails or not passes:
            return Outcome(False, digest, f"report has {passes} PASS and {fails} FAIL lines", counts)
        if rows != self.expected[idx]:
            return Outcome(False, digest, f"trace.csv has {rows} rows, expected {self.expected[idx]}", counts)
        return Outcome(True, digest, counts=counts)


WORKLOADS = {w.name: w for w in (ScanWorkload, DenseWorkload, CliWorkload)}
