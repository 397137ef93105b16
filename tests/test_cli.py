"""End-to-end command-line pipelines on temp files."""

import numpy as np
import pytest

from graphdpp import (
    Measurement,
    SamplingSet,
    eigendecompose,
    fourier_basis_k,
    laplacian,
    recover_known_basis,
)
from graphdpp.cli import main
from graphdpp.experiments import parse_result_csv
from graphdpp.serialization import (
    load_graph,
    load_probabilities,
    load_sampling,
    load_signal,
    save_sampling,
    save_signal,
)


def run(*args):
    assert main([str(a) for a in args]) == 0


class TestGenerateGraph:
    def test_writes_graph_and_labels(self, tmp_path):
        out = tmp_path / "g.mtx"
        labels = tmp_path / "labels.csv"
        run(
            "generate-graph", "--n", 40, "--k-comm", 2, "--c", 6, "--eps-frac", 0.2,
            "--seed", 1, "--out", out, "--labels-out", labels,
        )
        g = load_graph(out, labels_path=labels)
        assert g.n == 40
        assert set(g.communities.tolist()) == {0, 1}

    def test_requires_some_eps(self, tmp_path, capsys):
        code = main(["generate-graph", "--n", "10", "--c", "3",
                     "--out", str(tmp_path / "g.mtx")])
        assert code == 1
        assert "eps" in capsys.readouterr().err


class TestKnownBasisPipeline:
    @pytest.mark.parametrize("method", ["greedy-mv", "greedy-wce", "maxvol", "dpp-ideal"])
    def test_sample_measure_recover(self, tmp_path, method):
        g, x, s, y, rec = (tmp_path / n for n in ("g.mtx", "x.csv", "s.csv", "y.csv", "rec.csv"))
        run("generate-graph", "--n", 60, "--c", 8, "--eps-frac", 0.1, "--seed", 2, "--out", g)
        run("generate-signal", "--graph", g, "--k", 2, "--seed", 3, "--out", x)
        run("sample", "--graph", g, "--method", method, "--k", 2, "--seed", 4, "--out", s)
        run("measure", "--signal", x, "--sampling", s, "--noise-sigma", 0, "--seed", 5, "--out", y)
        run("recover", "--graph", g, "--sampling", s, "--measurement", y,
            "--known-basis", "--k", 2, "--out", rec, "--seed", 0)
        orig = load_signal(x)
        got = load_signal(rec)
        assert np.linalg.norm(got - orig) <= 1e-8


class TestUnknownBasisPipeline:
    def test_wilson_sample_and_regularized_recovery(self, tmp_path):
        g, x, s, y, rec = (tmp_path / n for n in ("g.mtx", "x.csv", "s.csv", "y.csv", "rec.csv"))
        run("generate-graph", "--n", 60, "--c", 8, "--eps-frac", 0.1, "--seed", 6, "--out", g)
        run("generate-signal", "--graph", g, "--k", 2, "--seed", 7, "--out", x)
        run("sample", "--graph", g, "--method", "wilson", "--target-k", 3,
            "--weights", "exact", "--seed", 8, "--out", s)
        sampling = load_sampling(s)
        assert sampling.weights is not None and np.all(sampling.weights > 0)
        run("measure", "--signal", x, "--sampling", s, "--noise-sigma", 1e-4,
            "--seed", 9, "--out", y)
        run("recover", "--graph", g, "--sampling", s, "--measurement", y,
            "--gamma", 1e-5, "--r", 4, "--out", rec, "--seed", 0)
        got = load_signal(rec)
        assert got.shape == (60,)
        assert np.all(np.isfinite(got))

    def test_wilson_flags_mutually_exclusive(self, tmp_path, capsys):
        g = tmp_path / "g.mtx"
        run("generate-graph", "--n", 20, "--c", 4, "--eps-frac", 0.2, "--seed", 0, "--out", g)
        code = main(["sample", "--graph", str(g), "--method", "wilson",
                     "--q", "0.5", "--target-k", "2", "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "exactly one" in capsys.readouterr().err

    def test_iid_sample(self, tmp_path):
        g, s = tmp_path / "g.mtx", tmp_path / "s.csv"
        run("generate-graph", "--n", 30, "--c", 5, "--eps-frac", 0.3, "--seed", 1, "--out", g)
        run("sample", "--graph", g, "--method", "iid", "--k", 2, "--m", 6,
            "--seed", 2, "--out", s)
        sampling = load_sampling(s)
        assert len(sampling) == 6

    def test_iid_zero_draws_rejected(self, tmp_path, capsys):
        g = tmp_path / "g.mtx"
        run("generate-graph", "--n", 30, "--c", 5, "--eps-frac", 0.3, "--seed", 1, "--out", g)
        code = main(["sample", "--graph", str(g), "--method", "iid", "--k", "2", "--m", "0",
                     "--out", str(tmp_path / "s.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("method,flags,named", [
        ("maxvol", ["--k", "2", "--q", "0.5", "--target-k", "3"], "--q, --target-k"),
        ("dpp-ideal", ["--k", "2", "--m", "3"], "--m"),
        ("greedy-wce", ["--k", "2", "--target-k", "3"], "--target-k"),
        ("iid", ["--k", "2", "--q", "0.5"], "--q"),
        ("wilson", ["--q", "0.5", "--k", "7", "--m", "3"], "--k, --m"),
    ])
    def test_sample_unread_flags_rejected(self, tmp_path, capsys, method, flags, named):
        g, s = tmp_path / "g.mtx", tmp_path / "s.csv"
        run("generate-graph", "--n", 20, "--c", 4, "--eps-frac", 0.2, "--seed", 0, "--out", g)
        code = main(["sample", "--graph", str(g), "--method", method, *flags, "--out", str(s)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"does not read {named}" in err
        assert not s.exists()


class TestMeasureCommand:
    def test_node_outside_signal_rejected(self, tmp_path, capsys):
        x, s = tmp_path / "x.csv", tmp_path / "s.csv"
        save_signal(np.zeros(3), x)
        save_sampling(SamplingSet(nodes=np.array([0, 5]), method="t"), s)
        code = main(["measure", "--signal", str(x), "--sampling", str(s),
                     "--out", str(tmp_path / "y.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRecoverCommand:
    @pytest.mark.parametrize("basis_args", [["--known-basis", "--k", "2"], []])
    def test_empty_sampling_rejected(self, tmp_path, capsys, basis_args):
        g, s, y = tmp_path / "g.mtx", tmp_path / "s.csv", tmp_path / "y.csv"
        run("generate-graph", "--n", 20, "--c", 4, "--eps-frac", 0.2, "--seed", 3, "--out", g)
        save_sampling(SamplingSet(nodes=np.array([], dtype=np.int64), method="t"), s)
        save_signal(np.zeros(0), y)
        rec = tmp_path / "rec.csv"
        code = main(["recover", "--graph", str(g), "--sampling", str(s), "--measurement", str(y),
                     *basis_args, "--out", str(rec)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err and "sampling set is empty" in err
        assert not rec.exists()

    def test_known_basis_without_weights_matches_plain_solve(self, tmp_path):
        # a weightless sampling file gets unit weights, and the weighted
        # solve with unit weights is the plain one, bit for bit
        g, s, y, rec = (tmp_path / n for n in ("g.mtx", "s.csv", "y.csv", "rec.csv"))
        run("generate-graph", "--n", 40, "--c", 6, "--eps-frac", 0.2, "--seed", 3, "--out", g)
        sampling = SamplingSet(nodes=np.array([3, 17, 29, 8]), method="t")
        save_sampling(sampling, s)
        save_signal(np.array([0.3, -1.2, 0.7, 2.5]), y)
        run("recover", "--graph", g, "--sampling", s, "--measurement", y,
            "--known-basis", "--k", 3, "--out", rec)
        # the same basis as the command's: the 4 lowest pairs
        u_k = fourier_basis_k(eigendecompose(laplacian(load_graph(g)), 3), 3)
        meas = Measurement(y=load_signal(y), sampling=load_sampling(s))
        assert meas.sampling.weights is None
        np.testing.assert_array_equal(load_signal(rec), recover_known_basis(u_k, meas))


class TestEstimatePi:
    def test_writes_probabilities(self, tmp_path):
        g, pi = tmp_path / "g.mtx", tmp_path / "pi.csv"
        run("generate-graph", "--n", 50, "--c", 6, "--eps-frac", 0.2, "--seed", 3, "--out", g)
        run("estimate-pi", "--graph", g, "--q", 0.3, "--seed", 4, "--out", pi)
        vals = load_probabilities(pi)
        assert vals.shape == (50,)
        assert np.all(vals >= 0)


    @pytest.mark.parametrize("q", ["nan", "inf"])
    def test_non_finite_q_rejected(self, tmp_path, capsys, q):
        g = tmp_path / "g.mtx"
        run("generate-graph", "--n", 20, "--c", 4, "--eps-frac", 0.2, "--seed", 3, "--out", g)
        code = main(["estimate-pi", "--graph", str(g), "--q", q, "--out", str(tmp_path / "pi.csv")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestExperimentCommand:
    def test_epsilon_sweep_with_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "sweep = epsilon\ngrid = 0.1\nn = 60\nc = 8\n"
            "graphs_per_point = 1\nsignals_per_graph = 2\nseed = 1\n"
        )
        out = tmp_path / "out.csv"
        run("experiment", "fig1a", "--config", cfg, "--out", out)
        table = parse_result_csv(out)
        assert len(table) == 5

    def test_m_sweep_with_config(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "sweep = m\ngrid = 2\nn = 60\nc = 8\neps_frac = 0.2\n"
            "graphs_per_point = 1\nsignals_per_graph = 2\nseed = 2\n"
        )
        out = tmp_path / "out.csv"
        run("experiment", "fig1c", "--config", cfg, "--out", out)
        assert len(parse_result_csv(out)) == 2

    def test_missing_out_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("sweep = epsilon\ngraphs_per_point = 1\nsignals_per_graph = 1\n")
        code = main(["experiment", "fig1a", "--config", str(cfg)])
        assert code == 1
        assert "--out" in capsys.readouterr().err

    def test_sweep_mismatch_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("sweep = epsilon\n")
        code = main(["experiment", "fig1b", "--config", str(cfg),
                     "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "sweeps gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_m_grid_rejected(self, tmp_path, capsys, bad):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"sweep = m\ngrid = {bad}, 2\ngraphs_per_point = 1\nsignals_per_graph = 1\n")
        code = main(["experiment", "fig1c", "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("protocol,sweep,grid", [
        ("fig1a", "epsilon", "0.1, 0.1"),
        ("fig1b", "gamma", "1e-5, 1e-3, 1e-5"),
        ("fig1c", "m", "3, 3"),
    ])
    def test_repeated_grid_value_rejected(self, tmp_path, capsys, protocol, sweep, grid):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"sweep = {sweep}\ngrid = {grid}\ngraphs_per_point = 1\nsignals_per_graph = 2\n")
        code = main(["experiment", protocol, "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "repeats a value" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("protocol,sweep", [("fig1a", "epsilon"), ("fig1b", "gamma"), ("fig1c", "m")])
    def test_bad_noise_sigma_rejected(self, tmp_path, capsys, protocol, sweep, sigma):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"sweep = {sweep}\nnoise_sigma = {sigma}\ngraphs_per_point = 1\nsignals_per_graph = 1\n")
        code = main(["experiment", protocol, "--config", str(cfg), "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert "noise_sigma" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("protocol,flags,named", [
        ("fig1a", ["--n", "500"], "--n"),
        ("fig1b", ["--q", "0.1"], "--q"),
        ("fig1c", ["--n", "500", "--q", "0.1"], "--n, --q"),
        ("scale", ["--full"], "--full"),
        ("scale", ["--config", "cfg.txt", "--n", "500"], "--config"),
    ])
    def test_unread_flags_rejected(self, tmp_path, capsys, protocol, flags, named):
        code = main(["experiment", protocol, *flags, "--out", str(tmp_path / "o.csv")])
        assert code == 1
        assert f"does not read {named}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_scale_protocol(self, tmp_path):
        out = tmp_path / "scale.csv"
        run("experiment", "scale", "--n", 500, "--q", 0.001, "--out", out)
        header, row = out.read_text().strip().split("\n")
        assert header == "n,q,mean_samples,mean_seconds"
        assert row.startswith("500,")

    def test_seed_changes_output(self, tmp_path):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(
            "sweep = epsilon\ngrid = 0.2\nn = 60\nc = 8\n"
            "graphs_per_point = 1\nsignals_per_graph = 2\n"
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("experiment", "fig1a", "--config", cfg, "--seed", 1, "--out", a)
        run("experiment", "fig1a", "--config", cfg, "--seed", 2, "--out", b)
        assert a.read_bytes() != b.read_bytes()
