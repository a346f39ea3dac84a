import concurrent.futures
import io

import pytest

from liftfg import (benchgen, parse_model, run_cp, run_lifg, serialize_model, validate)
from liftfg.benchgen import (Aggregate, BenchRecord, CSV_HEADER, GenParams,
                             aggregate_records, derive_seed, generate_instance,
                             remove_potentials, run_benchmark, run_instance)
from liftfg.lifg import all_signatures


def test_derive_seed_stable():
    assert derive_seed(42, "gen", 4) == derive_seed(42, "gen", 4)
    assert derive_seed(42, "gen", 4) != derive_seed(42, "gen", 8)
    assert derive_seed(42, "gen", 4) != derive_seed(43, "gen", 4)


def test_generate_is_deterministic():
    a, _ = generate_instance(GenParams(d=4, seed=9))
    b, _ = generate_instance(GenParams(d=4, seed=9))
    assert serialize_model(a) == serialize_model(b)


def test_generate_seed_changes_structure():
    texts = {serialize_model(generate_instance(GenParams(d=4, seed=s))[0])
             for s in range(6)}
    assert len(texts) > 1


def test_generate_respects_ranges():
    for d in (2, 4, 8, 16):
        for seed in range(4):
            g, cohorts = generate_instance(GenParams(d=d, seed=seed))
            n = len(g.rvs)
            assert 2 * d <= n <= 3 * d
            assert n <= len(g.factors) <= 2 * n
            assert validate(g) == []
            member_cohorts = [m for label, m in cohorts.groups.items()
                              if label.startswith("cohort")]
            assert 3 <= len(member_cohorts) <= 5
            assert all(rv.evidence is None for rv in g.rvs.values())
            assert all(len(rv.range) == 2 for rv in g.rvs.values())
            assert all(v > 0 for f in g.factors.values() for v in f.table.values)


def test_generate_biggest_cohort_is_about_half():
    g, cohorts = generate_instance(GenParams(d=16, seed=0))
    member_sizes = sorted((len(m) for label, m in cohorts.groups.items()
                           if label.startswith("cohort")), reverse=True)
    pool = sum(member_sizes)
    assert member_sizes[0] in (pool // 2, (pool + 1) // 2)


def test_generate_recovers_planted_partition():
    for seed in range(5):
        g, cohorts = generate_instance(GenParams(d=8, seed=seed))
        assert run_cp(g).rv_groups == cohorts.as_partition_blocks()


def test_generated_lifting_has_distinct_superfactor_slots():
    for seed in range(5):
        params = GenParams(d=8, seed=seed)
        g, _ = generate_instance(params)
        removed = remove_potentials(g, params)
        res = run_lifg(removed.graph, theta=0.0)
        assert res.lifted is not None
        for sf in res.lifted.superfactors:
            assert len(set(sf.args)) == len(sf.args)


def test_removal_fraction_and_constraint():
    for d, seed in [(4, 0), (8, 3), (16, 11)]:
        params = GenParams(d=d, seed=seed)
        g, _ = generate_instance(params)
        removal = remove_potentials(g, params)
        n_factors = len(g.factors)
        assert not removal.truncated
        assert len(removal.removed) >= 1
        # the requested fraction rounds to a whole factor count
        assert 0.05 - 1 / n_factors <= removal.fraction <= 0.10 + 1 / n_factors
        sigs = all_signatures(removal.graph)
        for name in removal.removed:
            assert removal.graph.factors[name].is_unknown
            peers = [other for other, f in removal.graph.factors.items()
                     if other != name and not f.is_unknown
                     and sigs[other] == sigs[name]]
            assert peers, f"{name} lost every known structural peer"


def test_removal_deterministic():
    params = GenParams(d=8, seed=2)
    g, _ = generate_instance(params)
    assert remove_potentials(g, params).removed == remove_potentials(g, params).removed


def test_removal_rejects_unknowns():
    params = GenParams(d=2, seed=0)
    g, _ = generate_instance(params)
    removed = remove_potentials(g, params)
    with pytest.raises(ValueError, match="fully-known"):
        remove_potentials(removed.graph, params)


def test_removal_truncates_when_constraint_binds():
    # every signature class is a singleton, so nothing is ever eligible
    g = parse_model("""
    randvar A x y
    randvar B x y
    randvar C x y
    factor f1 A B | 1 2 3 4
    factor f2 B C | 5 6 7 8
    factor u1 A | 1 2
    """)
    removal = remove_potentials(g, GenParams(d=2, seed=1))
    assert removal.truncated
    assert removal.removed == ()


def test_run_instance_complete_and_deterministic():
    a = run_instance(GenParams(d=4, seed=5), instance=0, reps=1)
    b = run_instance(GenParams(d=4, seed=5), instance=0, reps=1)
    assert a.complete
    assert a.kl_values == b.kl_values
    assert a.kl_max <= 1e-12   # transfers recover the exact tables
    assert a.n_rvs == b.n_rvs and a.n_unknown == b.n_unknown


def test_run_benchmark_shape_and_csv(tmp_path):
    battery = [GenParams(d=2, seed=42), GenParams(d=4, seed=42)]
    out = tmp_path / "bench.csv"
    records, aggregates = run_benchmark(battery, instances_per_d=2, out=out, reps=1)
    assert len(records) == 4
    assert len(aggregates) == 2
    text = out.read_text()
    lines = text.strip().splitlines()
    assert lines[0] == CSV_HEADER
    data = [ln for ln in lines[1:] if not ln.startswith("#")]
    agg = [ln for ln in lines[1:] if ln.startswith("# aggregate")]
    assert len(data) == 4 and len(agg) == 2
    first = data[0].split(",")
    assert first[0] == "2" and first[-1] == "1"   # d column, complete flag


def mask_timings(csv_text):
    rows = []
    for line in csv_text.splitlines():
        if line.startswith("#"):
            rows.append(" ".join(tok for tok in line.split()
                                 if not tok.startswith("t_")))
        elif line and not line.startswith("d,"):
            cols = line.split(",")
            cols[10] = cols[11] = "X"
            rows.append(",".join(cols))
        else:
            rows.append(line)
    return "\n".join(rows)


def test_run_benchmark_deterministic_modulo_timings():
    battery = [GenParams(d=2, seed=7)]
    buf_a, buf_b = io.StringIO(), io.StringIO()
    run_benchmark(battery, instances_per_d=3, out=buf_a, reps=1)
    run_benchmark(battery, instances_per_d=3, out=buf_b, reps=1)
    assert mask_timings(buf_a.getvalue()) == mask_timings(buf_b.getvalue())


def test_run_benchmark_kl_cap_skips_exact_columns():
    records, _ = run_benchmark([GenParams(d=4, seed=1)], instances_per_d=1,
                               reps=1, kl_cap_d=2)
    r, = records
    assert r.complete
    assert r.kl_values == ()
    assert r.kl_mean is None
    assert ",,," in r.csv_row()   # empty kl columns


def test_run_benchmark_worker_pool_matches_serial():
    battery = [GenParams(d=2, seed=13)]
    serial, _ = run_benchmark(battery, instances_per_d=2, reps=1)
    pooled, _ = run_benchmark(battery, instances_per_d=2, reps=1, workers=2)
    assert [(r.d, r.instance, r.kl_values, r.n_factors) for r in serial] == \
           [(r.d, r.instance, r.kl_values, r.n_factors) for r in pooled]


@pytest.mark.parametrize("cpus, pool_size", [(64, 3), (2, 2), (1, None), (None, None)])
def test_run_benchmark_pool_never_exceeds_jobs_or_cpus(monkeypatch, cpus, pool_size):
    sizes = []

    class InlineExecutor:
        """Stands in for ProcessPoolExecutor: records its size, runs jobs inline."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(benchgen.concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    monkeypatch.setattr(benchgen.os, "cpu_count", lambda: cpus)
    records, _ = run_benchmark([GenParams(d=2, seed=13)], instances_per_d=3, reps=1,
                               kl_cap_d=0, workers=10 ** 6)
    assert sizes == ([] if pool_size is None else [pool_size])
    assert [r.instance for r in records] == [0, 1, 2]


def test_aggregate_records_stats():
    rows = [
        BenchRecord(2, 1, 0, 6, 10, 1, 5, 8, (0.0, 0.5), 10, 5, True),
        BenchRecord(2, 1, 1, 6, 10, 1, 5, 8, (1.0,), 20, 10, True),
        BenchRecord(2, 1, 2, 6, 10, 1, 5, 8, (), 0, 0, False),
    ]
    agg, = aggregate_records(rows)
    assert agg.n_instances == 3 and agg.n_complete == 2
    assert agg.kl_mean == pytest.approx(0.5)
    assert agg.mean_rv_groups == pytest.approx(5.0)
    assert "mean_rv_groups" in agg.csv_comment()
    assert isinstance(agg, Aggregate)
