"""Config parsing, result tables, determinism and the sweep protocols."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphdpp import experiments as experiments_module
from graphdpp import wilson as wilson_module
from graphdpp.errors import InvalidParams, ParseError
from graphdpp.experiments import (
    ExperimentConfig,
    ResultRow,
    _aggregate,
    emit_csv,
    parse_config,
    parse_result_csv,
    run_experiment_known_basis,
    run_experiment_unknown_basis,
    run_scalability_check,
    stream,
)


class TestConfig:
    def test_minimal_file_is_default_filled(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("seed = 3\n")
        cfg = parse_config(path)
        assert cfg.seed == 3
        assert cfg.n == 100 and cfg.sweep == "epsilon"

    def test_unknown_key_named_in_error(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("bogus_knob = 1\n")
        with pytest.raises(ParseError, match="bogus_knob"):
            parse_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("n = lots\n")
        with pytest.raises(ParseError, match="n"):
            parse_config(path)

    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(
            n=60, sweep="gamma", grid=(1e-7, 1e-5, 1e2), eps_frac=0.1,
            graphs_per_point=2, signals_per_graph=3, estimated_weights=True, seed=11,
        )
        path = tmp_path / "cfg.txt"
        path.write_text(
            "n = 60\nsweep = gamma\ngrid = 1e-7, 1e-5, 100\neps_frac = 0.1\n"
            "graphs_per_point = 2\nsignals_per_graph = 3\nestimated_weights = yes\nseed = 11\n"
        )
        assert parse_config(path) == cfg

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "cfg.txt"
        path.write_text("# a comment\n\nseed = 5  # trailing\n")
        assert parse_config(path).seed == 5

    @pytest.mark.parametrize("key", ["tune_runs", "tune_tol"])
    def test_retired_tuning_keys_named_in_error(self, tmp_path, key):
        # q is solved from the spectrum, so a config that still sets the
        # walk tuner's probe count or band fails instead of being ignored
        path = tmp_path / "cfg.txt"
        path.write_text(f"sweep = m\n{key} = 16\n")
        with pytest.raises(ParseError, match=key):
            parse_config(path)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidParams):
            ExperimentConfig(grid=())

    def test_unknown_sweep_rejected(self):
        with pytest.raises(InvalidParams):
            ExperimentConfig(sweep="q")

    @pytest.mark.parametrize(
        "sweep,grid",
        [("epsilon", (0.1, 0.2, 0.1)), ("m", (3.0, 3.0)), ("gamma", (1e-5, 1e-5))],
    )
    def test_repeated_grid_value_rejected(self, sweep, grid):
        # a repeated value would be one sweep point run, and counted, twice
        with pytest.raises(InvalidParams, match="repeats"):
            ExperimentConfig(sweep=sweep, grid=grid, signals_per_graph=2)


class TestResultTable:
    def test_emit_parse_bit_exact(self, tmp_path):
        table = []
        rng = np.random.default_rng(0)
        for i in range(4):
            e = sorted(rng.random(3))
            table.append(
                ResultRow(
                    sweep_value=float(rng.random()),
                    sampler=f"s{i}",
                    mean_error=e[1],
                    p10=e[0],
                    p90=e[2],
                    mean_samples=float(rng.random() * 5),
                    trials=int(rng.integers(1, 100)),
                )
            )
        path = tmp_path / "out.csv"
        emit_csv(table, path)
        back = parse_result_csv(path)
        assert back == table

    def test_percentile_order_enforced(self, tmp_path):
        with pytest.raises(InvalidParams):
            ResultRow(0.0, "x", 0.5, p10=0.9, p90=0.1, mean_samples=1, trials=1)
        path = tmp_path / "out.csv"
        path.write_text(
            "sweep_value,sampler,mean_error,p10,p90,mean_samples,trials\n"
            "0.0,x,0.5,0.9,0.1,1.0,1\n"
        )
        with pytest.raises(InvalidParams):
            parse_result_csv(path)


@settings(max_examples=200, deadline=None)
@given(
    errors=st.lists(
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]) | st.floats(0.0, 10.0), min_size=1, max_size=300
    )
)
@example(errors=[7.0])
@example(errors=[0.5, 0.25, 0.5, 0.5, 1.0, 0.25, 0.5, 3.0, 0.5, 0.5])
def test_percentiles_are_nearest_rank(errors):
    # p10 and p90 are the ceil(p n / 100)-th smallest errors
    rows = []
    _aggregate(rows, 0.1, "s", errors, [1] * len(errors))
    ordered = sorted(errors)
    n = len(errors)
    assert rows[0].p10 == ordered[-(-10 * n // 100) - 1]
    assert rows[0].p90 == ordered[-(-90 * n // 100) - 1]


class TestSeedStreams:
    def test_reproducible(self):
        a = stream(5, 1, 2, 3).random(4)
        b = stream(5, 1, 2, 3).random(4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_paths_differ(self):
        a = stream(5, 1, 2, 3).random(4)
        b = stream(5, 1, 2, 4).random(4)
        assert not np.array_equal(a, b)


def tiny_known_cfg(**over):
    base = dict(
        n=60, c=8.0, bandlimit=2, sweep="epsilon", grid=(0.1,),
        graphs_per_point=2, signals_per_graph=3, seed=1,
    )
    base.update(over)
    return ExperimentConfig(**base)


def tiny_unknown_cfg(**over):
    base = dict(
        n=60, c=8.0, bandlimit=2, sweep="m", grid=(2.0,), eps_frac=0.2,
        graphs_per_point=2, signals_per_graph=3, seed=2,
    )
    base.update(over)
    return ExperimentConfig(**base)


class TestKnownBasisExperiment:
    def test_smoke_row_structure(self):
        table = run_experiment_known_basis(tiny_known_cfg())
        samplers = {r.sampler for r in table}
        assert samplers == {"dpp-ideal", "greedy-wce", "greedy-mse", "greedy-mv", "maxvol"}
        assert all(r.trials == 6 for r in table)
        assert all(r.p10 <= r.p90 for r in table)
        assert all(r.mean_samples == 2.0 for r in table)

    def test_noiseless_is_exact_for_all_samplers(self):
        table = run_experiment_known_basis(tiny_known_cfg(noise_sigma=0.0))
        assert all(r.mean_error < 1e-9 for r in table)

    def test_low_epsilon_errors_stay_small_under_noise(self):
        cfg = tiny_known_cfg(
            n=100, c=16.0, grid=(0.1,), graphs_per_point=10, signals_per_graph=10,
        )
        table = run_experiment_known_basis(cfg)
        assert len(table) == 5
        assert all(r.mean_error < 0.1 for r in table)

    def test_deterministic_csv(self, tmp_path):
        cfg = tiny_known_cfg()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment_known_basis(cfg), a)
        emit_csv(run_experiment_known_basis(cfg), b)
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_wrong_sweep(self):
        with pytest.raises(InvalidParams):
            run_experiment_known_basis(tiny_unknown_cfg())


class TestUnknownBasisExperiment:
    def test_smoke_m_sweep(self):
        table = run_experiment_unknown_basis(tiny_unknown_cfg())
        assert {r.sampler for r in table} == {"wilson", "iid"}
        by = {r.sampler: r for r in table}
        assert by["wilson"].mean_samples == by["iid"].mean_samples  # paired sizes

    def test_smoke_gamma_sweep(self):
        cfg = tiny_unknown_cfg(sweep="gamma", grid=(1e-5, 1e1))
        table = run_experiment_unknown_basis(cfg)
        assert len(table) == 4
        values = sorted({r.sweep_value for r in table})
        assert values == [1e-5, 1e1]

    def test_estimated_weights_path(self):
        table = run_experiment_unknown_basis(tiny_unknown_cfg(estimated_weights=True))
        assert len(table) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.4])
    def test_m_grid_must_round_to_a_count(self, bad):
        with pytest.raises(InvalidParams):
            run_experiment_unknown_basis(tiny_unknown_cfg(grid=(bad, 2.0)))

    def test_deterministic(self):
        cfg = tiny_unknown_cfg()
        t1 = run_experiment_unknown_basis(cfg)
        t2 = run_experiment_unknown_basis(cfg)
        assert t1 == t2

    @pytest.mark.parametrize("sweep,grid", [("gamma", (1e-5, 1e1)), ("m", (2.0, 3.0))])
    def test_sweeps_never_tune_by_walks(self, monkeypatch, sweep, grid):
        def refuse(*args, **kwargs):
            raise AssertionError("tune_q ran in a sweep")

        monkeypatch.setattr(wilson_module, "tune_q", refuse)
        monkeypatch.setattr(experiments_module, "tune_q", refuse, raising=False)
        cfg = tiny_unknown_cfg(sweep=sweep, grid=grid, graphs_per_point=1, signals_per_graph=2)
        assert len(run_experiment_unknown_basis(cfg)) == 4

    def test_one_walk_and_one_iid_draw_per_graph(self, monkeypatch):
        # a graph's walks run on disjoint copies of it, one per signal, and its
        # i.i.d. draws are one draw of the walks' total size
        calls = {"wilson_sample": 0, "iid_leverage_sample": 0}

        def counted(module, name):
            orig = getattr(module, name)

            def run(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)

            monkeypatch.setattr(module, name, run)

        counted(wilson_module, "wilson_sample")
        counted(experiments_module, "wilson_sample")
        counted(experiments_module, "iid_leverage_sample")
        cfg = tiny_unknown_cfg(grid=(2.0, 3.0), graphs_per_point=3, signals_per_graph=5)
        table = run_experiment_unknown_basis(cfg)
        assert calls == {"wilson_sample": 6, "iid_leverage_sample": 6}
        assert all(r.trials == 15 for r in table)

    def test_walk_sizes_average_to_the_target(self):
        # q is exact for each graph, so every draw has mean size m; a DPP
        # size has variance at most its mean, so the mean of 200 draws lies
        # within 4 standard errors sqrt(m / 200) of m. At this seed a q tuned
        # by walk probes (+/- 15% band) put the m = 6 mean at 6.875
        cfg = tiny_unknown_cfg(
            grid=(2.0, 6.0), graphs_per_point=4, signals_per_graph=50, seed=3
        )
        rows = [r for r in run_experiment_unknown_basis(cfg) if r.sampler == "wilson"]
        assert len(rows) == 2
        for row in rows:
            assert row.trials == 200
            assert abs(row.mean_samples - row.sweep_value) <= 4 * np.sqrt(row.sweep_value / 200)


class TestDegenerateCutoff:
    def test_repeated_eigenvalue_at_bandlimit_warns(self):
        from graphdpp.errors import DegenerateCutoffWarning

        # three components at eps = 0: zero eigenvalue has multiplicity 3,
        # so a bandlimit of 2 sits inside the repeated eigenvalue
        cfg = tiny_known_cfg(n=60, k_comm=3, c=5.0, grid=(0.0,), graphs_per_point=1,
                             signals_per_graph=1, noise_sigma=0.0)
        with pytest.warns(DegenerateCutoffWarning):
            run_experiment_known_basis(cfg)


class TestEstimationFloor:
    def test_zero_probability_floored_with_warning(self):
        from graphdpp.estimation import ZERO_PROBABILITY_FLOOR, floor_zero_probabilities

        pi = np.array([0.5, 0.0, 0.2])
        with pytest.warns(UserWarning, match="flooring"):
            w = floor_zero_probabilities(pi, [0, 1])
        assert w[0] == 0.5
        assert w[1] == ZERO_PROBABILITY_FLOOR

    def test_fractional_node_rejected(self):
        from graphdpp.estimation import floor_zero_probabilities

        with pytest.raises(InvalidParams):
            floor_zero_probabilities(np.array([0.5, 0.2]), [0.5])


class TestScalability:
    def test_desk_scale_run(self):
        mean_size, mean_seconds = run_scalability_check(1000, 5e-4, runs=3, seed=0)
        assert mean_seconds < 1.0
        assert 1.0 <= mean_size <= 1000

    @pytest.mark.parametrize("runs", [0, -1])
    def test_no_runs_rejected(self, runs):
        # runs = 0 returned (nan, nan) with two RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidParams):
                run_scalability_check(200, 0.5, runs=runs)

    def test_huge_q_returns_everything(self):
        mean_size, _ = run_scalability_check(200, 1e6, runs=2, seed=1)
        assert mean_size == 200.0
