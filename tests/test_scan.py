"""Randomized certificate sweep."""

import dataclasses
import weakref

import numpy as np
import pytest

from jungckit import ScanSpec, aitken, certify, cross_validate, engine, model, run, run_scan, scan, stability
from jungckit.errors import InvalidArgumentError
from jungckit.scan import sample_config, sample_operators
from conftest import traced_peak


class TestSampling:
    def test_operator_ranges_respected(self):
        spec = ScanSpec(count=1, dim=4, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(10):
            s_op, t_op = sample_operators(rng, spec)
            svals = np.linalg.svd(s_op.matrix, compute_uv=False)
            lo, hi = spec.mu_range
            assert lo - 1e-9 <= svals[-1] <= hi + 1e-9
            tn = np.linalg.norm(t_op.matrix, 2)
            assert spec.t_norm_range[0] - 1e-9 <= tn <= spec.t_norm_range[1] + 1e-9

    def test_config_is_runnable(self):
        spec = ScanSpec(count=1, dim=3, steps=20, horizon=30, seed=2)
        cfg = sample_config(np.random.default_rng(2), spec)
        assert cfg.steps == 20 and cfg.dim == 3


class TestSweep:
    def test_sweep_is_sound_and_deterministic(self):
        spec = ScanSpec(count=20, dim=3, steps=120, horizon=120, seed=99)
        r1 = run_scan(spec)
        r2 = run_scan(spec)
        assert not r1.violations
        assert r1.certified_count >= 5
        assert [o.certified for o in r1.outcomes] == [o.certified for o in r2.outcomes]
        assert [o.final_ratio for o in r1.outcomes] == [o.final_ratio for o in r2.outcomes]

    def test_counts_partition(self):
        spec = ScanSpec(count=15, dim=3, steps=60, horizon=60, seed=4)
        result = run_scan(spec)
        counts = result.counts_by_property()
        assert counts["none"] + result.certified_count == spec.count

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            ScanSpec(count=0)
        with pytest.raises(ValueError):
            ScanSpec(steps=2)

    @pytest.mark.parametrize("field,bad", [
        ("mu_range", (float("nan"), 1.0)), ("mu_range", (0.5, float("inf"))), ("mu_range", (2.0, 1.0)),
        ("mu_range", (0.0, 1.0)), ("mu_range", (-1.0, 1.0)),
        ("t_norm_range", (float("inf"), float("inf"))), ("t_norm_range", (0.1, float("nan"))),
        ("t_norm_range", (0.9, 0.1)), ("t_norm_range", (-0.1, 0.5)),
        ("mu_range", (1.0,)), ("mu_range", (0.5, 1.0, 2.0)), ("mu_range", "ab"),
        ("t_norm_range", (0.5,)), ("t_norm_range", (0.1, 0.2, 0.3)), ("t_norm_range", "ab"),
    ])
    def test_bad_sampling_range_rejected(self, field, bad):
        # rng.uniform raised an untyped OverflowError for these, or sampled
        # nonsense; a pair of the wrong length or of strings raised an untyped
        # ValueError or TypeError from unpacking or comparing it
        with pytest.raises(InvalidArgumentError, match=f"^{field} must be finite"):
            ScanSpec(**{field: bad})

    def test_edge_sampling_ranges_accepted(self):
        spec = ScanSpec(count=1, dim=2, steps=20, horizon=20, mu_range=(1.0, 1.0), t_norm_range=(0.0, 0.0))
        assert run_scan(spec).spec is spec

    @pytest.mark.parametrize("count, seed", [(1, 202139719), (5, 574699369), (5, 1022609264),
                                             (5, 1310565892), (5, 341885161)])
    def test_underflowing_iterates_are_no_violation(self, count, seed):
        # the first four collapse to about 1e-162, where squared entries underflow:
        # an unscaled norm reported ||y_n|| == ||z_n|| although y_n is smaller.
        # The last reaches single subnormals, where a scaled norm alone gave
        # ||y_33|| = 2 ||z_33|| from rounding noise
        assert not run_scan(ScanSpec(count=count, dim=5, steps=1000, horizon=1000, seed=seed)).violations

    def test_sweep_holds_one_trace_at_a_time(self):
        # all four configs certify and are simulated; holding the previous
        # trace through the next run peaked at about 1.6x one run
        spec = ScanSpec(count=4, dim=5, steps=300, horizon=300, seed=1)
        rng = np.random.default_rng(spec.seed)
        cfgs = [sample_config(rng, spec) for _ in range(spec.count)]

        largest_run = max(traced_peak(lambda c=c: run(c))[0] for c in cfgs)
        assert run_scan(spec).certified_count == spec.count
        assert traced_peak(lambda: run_scan(spec))[0] <= 1.2 * largest_run

    def test_no_earlier_trace_is_alive_when_a_run_starts(self, monkeypatch):
        # the property the bound above stands for, without sizes: every trace
        # the sweep made before is gone, by reference count, when run is called
        spec = ScanSpec(count=4, dim=5, steps=300, horizon=300, seed=1)
        made = []

        def recording_run(cfg, *args, **kwargs):
            assert [ref() for ref in made] == [None] * len(made)
            trace = run(cfg, *args, **kwargs)
            made.append(weakref.ref(trace))
            return trace

        monkeypatch.setattr(scan, "run", recording_run)
        assert run_scan(spec).certified_count == spec.count == len(made)

    def test_working_memory_does_not_grow_with_steps(self):
        # a d=5 config that certifies (i and iv) and whose state is 0 from
        # row 40 on (sz_40 holds -0 entries, so +0 from row 41); the run
        # stops there and stores rows 0..40 alone, so
        # run's peak stays flat, and run plus cross_validate grows only by
        # the length-steps norms of z, not by rows of the trace, nor by the
        # norms of y, nor by schedule values: certify evaluated them, and run
        # and cross_validate read the values it keeps
        spec = ScanSpec(count=1, dim=5, steps=1000, horizon=1000, seed=1)
        base = sample_config(np.random.default_rng(spec.seed), spec)
        fields = ("z", "y", "sz", "sy", "ty")

        def peaks(steps):
            cfg = dataclasses.replace(base, steps=steps)
            report = certify(cfg, horizon=steps)
            run(cfg)  # numpy's first-use allocations happen outside the measurement
            run_peak, trace = traced_peak(lambda: run(cfg))
            # the trace is held while cross_validate reads it
            both_peak, checked = traced_peak(lambda: cross_validate(report, run(cfg)))
            assert checked.simulation_agrees
            assert trace.n_live == 41 and trace.n_raw == steps
            assert not (trace.a_vals.flags.writeable or trace.b_vals.flags.writeable)  # the kept values
            # the public arrays are built on this read, after the measurements
            assert not trace.z[40:].any() and trace.z[39].any()
            public = sum(getattr(trace, name).nbytes for name in fields)
            return run_peak, both_peak, public

        run_short, both_short, public_short = peaks(100)
        run_long, both_long, public_long = peaks(1000)
        # a run that allocated every row grew by 900 rows of 5 * d floats,
        # and cross_validate by the norms of y and temporaries over every row
        assert run_long <= 1.1 * run_short
        assert both_long - both_short <= 900 * 8
        assert public_long - public_short == 900 * 5 * spec.dim * 8

    def test_each_schedule_is_evaluated_once_per_config(self, monkeypatch):
        # certify asks for the horizon's values first; its checks, run and
        # cross_validate read the ones it keeps
        spec = ScanSpec(count=6, dim=5, steps=300, horizon=300, seed=3)
        evaluated = []
        real = model.Schedule._evaluate

        def counted(sched, start, stop):
            evaluated.append((start, stop))
            return real(sched, start, stop)

        monkeypatch.setattr(model.Schedule, "_evaluate", counted)
        result = run_scan(spec)
        assert result.certified_count >= 3
        assert evaluated == [(0, spec.horizon + 1)] * (2 * spec.count)

    @pytest.mark.parametrize("seed", [3, 574699369])
    def test_the_sweep_never_runs_the_corrector(self, monkeypatch, seed):
        # the checks read raw iterate norms alone, so no trace is corrected;
        # an eager sweep that reads every simulated trace's corrected rows
        # runs the corrector twice a trace and reports the same outcomes
        spec = ScanSpec(count=5, dim=5, steps=1000, horizon=1000, seed=seed)
        calls = []

        def counted(*args, real=aitken.accelerate_sequence):
            calls.append(len(args[0]))
            return real(*args)

        monkeypatch.setattr(aitken, "accelerate_sequence", counted)
        got = run_scan(spec)
        assert calls == []
        live = []

        def eager(cfg, real=run):
            trace = real(cfg)
            trace.asz  # noqa: B018 -- the read corrects both sequences
            live.append(trace.n_live)
            return trace

        monkeypatch.setattr(scan, "run", eager)
        want = run_scan(spec)
        assert want.certified_count >= 1 and len(live) == want.certified_count
        # each sequence is corrected over its stored rows and the two +0 rows after them
        assert calls == [n + 2 for n in live for _ in ("sz", "sy")]
        assert max(calls) < spec.steps
        assert repr(got.outcomes) == repr(want.outcomes)

    def test_z_norms_are_computed_once_per_simulated_config(self, monkeypatch):
        # the scan's monotone and final-ratio checks and the certificate
        # cross-check read one ||z_n|| array; the cross-check also takes
        # ||y_n||; both are taken over the trace's stored rows alone
        spec = ScanSpec(count=6, dim=5, steps=300, horizon=300, seed=3)
        want = run_scan(spec)
        computed, live = [], []

        def counted(rows, real=model.safe_row_norms):
            computed.append(rows.shape)
            return real(rows)

        def recorded(cfg, real=run):
            trace = real(cfg)
            live.append(trace.n_live)
            return trace

        for module in (model, engine, scan, stability):
            monkeypatch.setattr(module, "safe_row_norms", counted, raising=False)
        monkeypatch.setattr(scan, "run", recorded)
        got = run_scan(spec)
        assert want.certified_count >= 3 and len(live) == want.certified_count
        assert computed == [(n, spec.dim) for n in live for _ in ("z", "y")]
        assert max(live) < spec.steps
        assert repr(got.outcomes) == repr(want.outcomes)
