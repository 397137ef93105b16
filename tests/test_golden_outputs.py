"""Byte-identical command-line outputs.

A tiny end-to-end CLI chain writes every file kind the package produces;
each file's sha256 must equal the constant below. A change that alters
an output on purpose updates its constant and says why.
"""

import hashlib

from graphdpp.cli import main

FIG1A_CONFIG = (
    "sweep = epsilon\ngrid = 0.1,0.5\nn = 40\nc = 6\nbandlimit = 2\n"
    "graphs_per_point = 1\nsignals_per_graph = 2\nseed = 1\n"
)
FIG1B_CONFIG = (
    "sweep = gamma\ngrid = 1e-5,1e-1\nn = 40\nc = 6\nbandlimit = 2\ntarget_m = 4\n"
    "estimated_weights = true\ngraphs_per_point = 1\nsignals_per_graph = 2\nseed = 2\n"
)
FIG1C_CONFIG = (
    "sweep = m\ngrid = 3,5\nn = 40\nc = 6\nbandlimit = 2\n"
    "graphs_per_point = 1\nsignals_per_graph = 2\nseed = 3\n"
)

# the fig1b preset's whole gamma grid on the FIG1B_CONFIG chain
FIG1B_GRID_CONFIG = FIG1B_CONFIG.replace(
    "grid = 1e-5,1e-1", "grid = 1e-7,1e-6,1e-5,1e-3,1e-1,1e1,1e2"
)
FIG1B_GRID_SHA256 = "e68da74a59a7f7fc5fee8a5cce426a6cbf04d2ae54bb61ddecc37b43b2901f16"

GOLDEN = {
    "fig1a.csv": "93c1cdbafc491c82cb91044fdddc758efab0e9980fbb2943146fd99ff466f715",
    "fig1b.csv": "a3e19d023f31655d455b6f2a68962082c03bb418a135e6ac51544e2edb87d18c",
    "fig1c.csv": "2e79424aae65440be5e03cfbcebe1833926612bcfa383dd5f7c194e0c4c41e92",
    "g.mtx": "8e26abbcf3b55248581922948e2f6236325718b624a1a826153b53d4adacbb52",
    "labels.csv": "218ea8d6ba0c2d3ccd92c2d12afc7b287e4ba5e629f0e9e77d51072d36a1da4a",
    "pi.csv": "ca8192db77a81c8dd75a4e2d115c28103e6b5eae9eb3f2eea22d5c91130f34d3",
    "rec_known.csv": "bfce7f187b2ba945350fa1952504ef7f42ae6355d951f87e86b9b639d2723f2f",
    "rec_wilson_exact.csv": "13973c474a9e74283652128789dd7e5373dcfd80e8e9e11613c91e7cd56584c9",
    "rec_wilson_none.csv": "0d8f707c84bfc4fd7b7217ecdb558917a3a1d1d09a60702491b6677e496e08e2",
    "s_dpp.csv": "558282ba6845b60d892a093e96d4eab33c408dda9bd65a6ecf2f01db118b38bd",
    "s_greedy.csv": "fe36e1fac372cf1ed3aa9820a7bf3633b9498fa49bfe79c5de0cd274613be3fa",
    "s_iid.csv": "e8833ab6bacd72c9bcaba505c1d7cc07ccaeae713fbcec14c39fa52377070c50",
    "s_wilson_estimated.csv": "4b9f0b67246ddb8381434240a08ae9a72acf2a048bc446ac40afb9b9a65717bc",
    "s_wilson_exact.csv": "51de6de009d4b9566642328632d7dfe0204b6949541fea4249795a5ef8a3e43a",
    "s_wilson_none.csv": "a65b6d12602e74ad1ebb44b0a553e535ffbcca6a61193129b0cd379c9c91a22e",
    "x.csv": "f3fd32d1728a1490f910bf7092613424ce92a6085c102eeeb353c7d32484873f",
    "y_dpp.csv": "f100e5ed5dc7dbd4d47a18256766a945405fe669b3a35f1a441aae9b52b59240",
    "y_wilson_exact.csv": "eee1553656c13f489e1d244355754792d61eb72504c3e126a72a96fec8a2aea8",
    "y_wilson_none.csv": "a34a347b12d5707ff87d8a1f2e0d9d74872de34faaadf6c620ef90e3c62601d2",
}


def run_chain(d):
    """Run the chain in directory `d`; return {file name: sha256 hex}."""

    def run(*args):
        assert main([str(a) for a in args]) == 0

    g = d / "g.mtx"
    run("generate-graph", "--n", 40, "--k-comm", 2, "--c", 6, "--eps-frac", 0.2,
        "--seed", 1, "--out", g, "--labels-out", d / "labels.csv")
    run("generate-signal", "--graph", g, "--k", 2, "--seed", 2, "--out", d / "x.csv")
    run("sample", "--graph", g, "--method", "wilson", "--target-k", 4, "--runs", 16,
        "--weights", "exact", "--seed", 3, "--out", d / "s_wilson_exact.csv")
    for weights in ("estimated", "none"):
        run("sample", "--graph", g, "--method", "wilson", "--q", 1.5,
            "--weights", weights, "--seed", 3, "--out", d / f"s_wilson_{weights}.csv")
    run("sample", "--graph", g, "--method", "dpp-ideal", "--k", 3, "--seed", 4,
        "--out", d / "s_dpp.csv")
    run("sample", "--graph", g, "--method", "iid", "--k", 2, "--m", 5, "--seed", 5,
        "--out", d / "s_iid.csv")
    run("sample", "--graph", g, "--method", "greedy-wce", "--k", 3,
        "--out", d / "s_greedy.csv")
    for name in ("dpp", "wilson_exact", "wilson_none"):
        run("measure", "--signal", d / "x.csv", "--sampling", d / f"s_{name}.csv",
            "--noise-sigma", 1e-3, "--seed", 6, "--out", d / f"y_{name}.csv")
    run("recover", "--graph", g, "--sampling", d / "s_dpp.csv",
        "--measurement", d / "y_dpp.csv", "--known-basis", "--k", 2,
        "--out", d / "rec_known.csv")
    for name in ("wilson_exact", "wilson_none"):
        run("recover", "--graph", g, "--sampling", d / f"s_{name}.csv",
            "--measurement", d / f"y_{name}.csv", "--gamma", 1e-5, "--r", 4,
            "--out", d / f"rec_{name}.csv")
    run("estimate-pi", "--graph", g, "--q", 0.3, "--seed", 7, "--out", d / "pi.csv")
    for protocol, text in (("fig1a", FIG1A_CONFIG), ("fig1b", FIG1B_CONFIG),
                           ("fig1c", FIG1C_CONFIG)):
        cfg = d / f"{protocol}.cfg"
        cfg.write_text(text, encoding="utf-8")
        run("experiment", protocol, "--config", cfg, "--out", d / f"{protocol}.csv")
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(d.iterdir())
        if p.suffix != ".cfg"
    }


def test_cli_outputs_are_byte_identical(tmp_path):
    assert run_chain(tmp_path) == GOLDEN


def test_fig1b_full_gamma_grid_is_byte_identical(tmp_path):
    cfg = tmp_path / "fig1b_grid.cfg"
    cfg.write_text(FIG1B_GRID_CONFIG, encoding="utf-8")
    out = tmp_path / "fig1b_grid.csv"
    assert main(["experiment", "fig1b", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == FIG1B_GRID_SHA256
