"""Fast checks of the benchmark itself, on tiny instances of each workload."""

import itertools
import json
import signal
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import pytest

import calibrate
import run
import tracer
import workloads
from walgebra import gl, linalg, pbw, structure


def _traced_pass(name):
    trace = tracer.Tracer()
    wall = 0.0
    outputs = []
    for job in workloads.make_jobs(name, 0, workloads.TINY):
        state = job.prepare()
        with trace:
            t0 = perf_counter()
            out = job.run(state)
            wall += perf_counter() - t0
        outputs.append((job, state, out))
    return trace, wall, outputs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
@pytest.mark.parametrize("seed", [0, 1])
def test_tiny_workloads_pass_their_certificates(name, seed):
    runner = run.Runner(workloads.make_jobs(name, seed, workloads.TINY), {})
    runner.one_pass()
    runner.one_pass()
    assert runner.attempted == 2 * len(runner.jobs)
    assert runner.failed == 0
    # Nothing is recorded for tiny instances, so every output counts as
    # changed; the count stays apart from the failures.
    assert runner.outputs_changed() == len(runner.jobs)


def test_seed_gives_same_jobs():
    for name in workloads.WORKLOADS:
        a = [j.key for j in workloads.make_jobs(name, 5, workloads.TINY)]
        b = [j.key for j in workloads.make_jobs(name, 5, workloads.TINY)]
        assert a == b


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_self_times_add_up_and_walgebra_is_restored(name):
    trace, wall, _ = _traced_pass(name)
    assert not tracer.is_patched()
    metrics = trace.layer_metrics(wall)
    span_self = sum(st.self_s for st in trace.stats.values())
    assert span_self + metrics["trace.count_s"] + metrics["bench.self_s"] \
        == pytest.approx(wall, rel=1e-9)
    layers = sum(metrics[f"{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers == pytest.approx(span_self, rel=1e-9)


def test_self_times_add_up_with_speed_sampling(monkeypatch):
    # Bursts every 5 ms land inside spans; the tracer's clock must keep
    # them out of every self time, as the pass's wall time does.
    monkeypatch.setattr(run, "SAMPLE_EVERY_S", 0.005)
    runner = run.Runner(workloads.make_jobs("brst", 0, workloads.TINY), {})
    trace = tracer.Tracer()
    times = runner.one_pass(trace)
    assert times["samples"] > 0
    metrics = trace.layer_metrics(times["wall"])
    span_self = sum(st.self_s for st in trace.stats.values())
    assert span_self + metrics["trace.count_s"] + metrics["bench.self_s"] \
        == pytest.approx(times["wall"], rel=1e-9)
    assert 0 <= metrics["bench.self_s"] < 0.01 * times["wall"]


def test_predicted_layers_are_hit():
    calls = {name: _traced_pass(name)[0].layer_metrics(1.0)
             for name in workloads.WORKLOADS}
    assert calls["wspace"]["linalg.kernel_basis.calls"] > 0
    assert calls["straighten"]["pbw.multiply.calls"] > 0
    assert calls["brst"]["brst.multiply.calls"] > 0
    assert calls["sweep"]["polytope.common_m_for_adjacent.calls"] > 0
    for name in ("wspace", "straighten", "sweep"):
        assert calls[name]["brst.calls"] == 0
    for name in ("straighten", "brst"):
        assert calls[name]["linalg.kernel_basis.calls"] == 0


def test_tracer_rebinds_aliases_and_restores_them():
    originals = (linalg.kernel_basis, pbw.kernel_basis, structure.bracket,
                 vars(pbw.PbwContext)["from_pyramid"])
    with tracer.Tracer():
        assert pbw.kernel_basis is linalg.kernel_basis
        assert pbw.kernel_basis is not originals[0]
        assert structure.bracket.__wrapped__ is originals[2]
        assert tracer.is_patched()
    assert (linalg.kernel_basis, pbw.kernel_basis, structure.bracket,
            vars(pbw.PbwContext)["from_pyramid"]) == originals
    assert not tracer.is_patched()


def test_missing_traced_name_fails_loudly():
    spans = (("linalg.rank", "linalg", "rank"),
             ("linalg.gone", "linalg", "no_such_function"))
    with pytest.raises(RuntimeError, match="no_such_function"):
        tracer.Tracer(spans).install()
    assert not tracer.is_patched()


def test_benchmark_spec_metrics_are_produced():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    produced = set(_traced_pass("sweep")[0].layer_metrics(1.0))
    produced |= {"bench.calls", "trace.wall_s", "trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} <= produced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert spec["paths"] == [Path(__file__).parent.name]


def test_monomial_counts_match_brute_force():
    degrees, top = [1, 2, 2, 3], 7
    brute = {}
    for expo in itertools.product(range(top + 1), repeat=len(degrees)):
        d = sum(e * g for e, g in zip(expo, degrees))
        if d <= top:
            brute[d] = brute.get(d, 0) + 1
    assert workloads.monomial_counts(degrees, top) == brute


def test_certificates_reject_wrong_outputs():
    jobs = {j.key: j for name in ("wspace", "straighten")
            for j in workloads.make_jobs(name, 0, workloads.TINY)}
    job = jobs["wspace(2, 1)@3"]
    ctx = job.prepare()
    basis = job.run(ctx)
    top = max(basis)
    assert not job.certify(ctx, {**basis, top: basis[top][1:]})
    q = next(s for s in ctx.complement_indices if ctx.symbols[s].kind == "c")
    wrong = {d: [w + ctx.symbol_element(q) if d == top else w for w in ws]
             for d, ws in basis.items()}
    assert not job.certify(ctx, wrong)

    job = jobs["straighten gl2 E21^3*E12^3"]
    state = job.prepare()
    prod = job.run(state)
    assert not job.certify(state, prod + state[0].scalar(Fraction(1)))
    # (D - 3)(D - 6) with D = E11 + E22 acts on a monomial as (deg - 3) *
    # (deg - 6): zero on degrees k = 3 and 2k = 6, not on degrees 0..2k.
    ctx = state[0]
    d = ctx.from_gl(gl.GlElement.unit(2, 0, 0) + gl.GlElement.unit(2, 1, 1))
    wrong = ctx.multiply(d - 3, d - 6)
    sample = [e for e in workloads.monomials_up_to(2, 6) if sum(e) in (3, 6)]
    assert workloads.acts_equal(ctx, wrong + 1, [], sample)  # acts as 0
    assert not job.certify(state, prod + wrong)


def test_monomials_up_to_counts_every_monomial():
    got = workloads.monomials_up_to(3, 4)
    assert len(got) == len(set(got)) == 35  # binomial(4 + 3, 3)
    assert all(sum(e) <= 4 for e in got)


def test_speed_sampler_samples_while_measuring_and_disarms():
    with calibrate.SpeedSampler(0.005) as sampler:
        end = perf_counter() + 0.05
        while perf_counter() < end:  # not measuring: no samples
            pass
        assert sampler.speeds == []
        with sampler.measuring():
            end = perf_counter() + 0.05
            while perf_counter() < end:
                pass
    assert sampler.speeds and sampler.spent > 0
    assert all(s > 0 for s in sampler.speeds)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_setup_probe_reports_positive_times():
    raw, ref = run.measure_setup("straighten", 0)
    assert raw > 0 and ref > 0
