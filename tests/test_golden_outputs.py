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
FIG1B_GRID_SHA256 = "1ba60bb4af3a80caa7eb7f80eff2ebc35c70dbc61b4932f24f193481be99b5a0"

GOLDEN = {
    "fig1a.csv": "c46739e24ad1842649dba9d05ab992d9e7005f884c35ccff17ac82e5954d4395",
    "fig1b.csv": "4e3493dee23e887830faad4dd2c062aee7d7dcd5e4de2d060c78ed9bd460ad39",
    "fig1c.csv": "1c3edb6435389e08472447812b7b2a4bbfb69f12948f90821cffc9afeb681102",
    "g.mtx": "8e26abbcf3b55248581922948e2f6236325718b624a1a826153b53d4adacbb52",
    "labels.csv": "218ea8d6ba0c2d3ccd92c2d12afc7b287e4ba5e629f0e9e77d51072d36a1da4a",
    "pi.csv": "041ede595c73c86785145f2c273e87efc5cc556715bc231cd4c6e2c87fbb734f",
    "rec_known.csv": "bfce7f187b2ba945350fa1952504ef7f42ae6355d951f87e86b9b639d2723f2f",
    "rec_wilson_exact.csv": "cbdc240d4e831739945a769eec8ee64c46c74e1b27a9d2fe3939dad446081e0b",
    "rec_wilson_none.csv": "bc780661dd12ba325cd704e9167488a2f4fb1c445ed1ac26726ef034a4d3a2c2",
    "s_dpp.csv": "558282ba6845b60d892a093e96d4eab33c408dda9bd65a6ecf2f01db118b38bd",
    "s_greedy.csv": "fe36e1fac372cf1ed3aa9820a7bf3633b9498fa49bfe79c5de0cd274613be3fa",
    "s_iid.csv": "e8833ab6bacd72c9bcaba505c1d7cc07ccaeae713fbcec14c39fa52377070c50",
    "s_wilson_estimated.csv": "942064b1161d411e2ca9ce5bfc6a19aed7ec74e80ea78e5faa9e8220f0a8ee74",
    "s_wilson_exact.csv": "3c7ef80172f89c1fdf7a882e6995ec4ca2f238968ef1bad1b5d98a100a05ef5c",
    "s_wilson_none.csv": "c10f8af5c513b0f3311707b4b88701ece91f8239119a949343590061d0e4e6b3",
    "x.csv": "f3fd32d1728a1490f910bf7092613424ce92a6085c102eeeb353c7d32484873f",
    "y_dpp.csv": "f100e5ed5dc7dbd4d47a18256766a945405fe669b3a35f1a441aae9b52b59240",
    "y_wilson_exact.csv": "eae999a89798a9b88d2b49c07c3c4f81084a902909f164f9317d1a772bc92ca5",
    "y_wilson_none.csv": "e6237f899a3cc755abb06aedef5f3563a61223e88a9daa90489046883ddcee3a",
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
