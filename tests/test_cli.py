"""Tests for the application command-line drivers."""

from __future__ import annotations

import pytest

from repro.apps.scf.__main__ import main as scf_main
from repro.apps.tce.__main__ import main as tce_main
from repro.apps.uts.__main__ import main as uts_main


class TestUtsCli:
    def test_default_run(self, capsys):
        rc = uts_main(["--nprocs", "4", "--gen-mx", "8", "--root-seed", "6"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Mnodes/s" in out
        assert "tree:" in out

    def test_mpi_impl(self, capsys):
        rc = uts_main(["--nprocs", "3", "--impl", "mpi", "--gen-mx", "8",
                       "--root-seed", "6"])
        assert rc == 0
        assert "mpi on 3" in capsys.readouterr().out

    def test_binomial_and_flags(self, capsys):
        rc = uts_main([
            "--nprocs", "3", "--tree", "binomial", "--b0", "10",
            "--q", "0.1", "--m", "4", "--no-split",
        ])
        assert rc == 0

    def test_wait_free_flag(self, capsys):
        rc = uts_main(["--nprocs", "3", "--gen-mx", "8", "--root-seed", "6",
                       "--wait-free"])
        assert rc == 0


class TestScfCli:
    def test_verified_run(self, capsys):
        rc = scf_main(["--nprocs", "3", "--nblocks", "8", "--blocksize", "4",
                       "--iters", "2", "--verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "matches sequential reference: True" in out

    def test_original_scheduler(self, capsys):
        rc = scf_main(["--nprocs", "2", "--nblocks", "8", "--blocksize", "4",
                       "--iters", "1", "--scheduler", "original"])
        assert rc == 0
        assert "original" in capsys.readouterr().out


class TestTceCli:
    def test_verified_run(self, capsys):
        rc = tce_main(["--nprocs", "3", "--nblocks", "6", "--blocksize", "8",
                       "--verify"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "matches dense reference: True" in out

    def test_counter_scheduler_reports_claims(self, capsys):
        rc = tce_main(["--nprocs", "2", "--nblocks", "6", "--blocksize", "8",
                       "--scheduler", "original"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "counter claims 2" in out or "counter claims" in out

    def test_roundrobin_placement(self, capsys):
        rc = tce_main(["--nprocs", "3", "--nblocks", "6", "--blocksize", "8",
                       "--placement", "roundrobin"])
        assert rc == 0


def _obs_main(argv):
    from repro.obs.__main__ import main

    return main(argv)


def _analyze_main(argv):
    from repro.analyze.__main__ import main

    return main(argv)


def _check_main(argv):
    from repro.check.__main__ import main

    return main(argv)


#: (entry point, argv) -> the flag argparse must name; every value is
#: out of range, and none of these may reach the code behind the flag.
_OUT_OF_RANGE = [
    (_obs_main, ["run", "uts-tiny", "--nprocs", "0"], "--nprocs"),
    (_obs_main, ["critpath", "uts-tiny", "--nprocs", "-1"], "--nprocs"),
    (_obs_main, ["whatif", "uts-tiny", "--nprocs", "0"], "--nprocs"),
    (_obs_main, ["verify", "--nprocs", "0"], "--nprocs"),
    (_obs_main, ["run", "uts-tiny", "--timeline", "--width", "0"], "--width"),
    (_obs_main, ["summarize", "x.json", "--width", "0"], "--width"),
    (_obs_main, ["summarize", "x.json", "--top", "0"], "--top"),
    (_obs_main, ["critpath", "uts-tiny", "--top", "0"], "--top"),
    (_obs_main, ["run", "uts-tiny", "--live", "f", "--live-interval", "0"],
     "--live-interval"),
    (_obs_main, ["run", "uts-tiny", "--live-interval", "-1"], "--live-interval"),
    (_obs_main, ["top", "f.jsonl", "--poll", "0"], "--poll"),
    (_obs_main, ["diff", "x.json", "x.json", "--threshold", "-1"], "--threshold"),
    (_obs_main, ["diff", "x.json", "x.json", "--threshold", "nan"], "--threshold"),
    (uts_main, ["--nprocs", "0"], "--nprocs"),
    (uts_main, ["--chunk", "0"], "--chunk"),
    (uts_main, ["--tree", "binomial", "--q", "0.5", "--m", "4"], "--q"),
    (uts_main, ["--tree", "binomial", "--q", "nan"], "--q"),
    (uts_main, ["--b0", "nan"], "--b0"),
    (uts_main, ["--b0", "inf"], "--b0"),
    (uts_main, ["--b0", "-1"], "--b0"),
    (uts_main, ["--gen-mx", "-3"], "--gen-mx"),
    (uts_main, ["--tree", "binomial", "--m", "-2"], "--m"),
    (uts_main, ["--tree", "binomial", "--q", "-1"], "--q"),
    (uts_main, ["--root-seed", "-1"], "--root-seed"),
    (scf_main, ["--nprocs", "0"], "--nprocs"),
    (scf_main, ["--iters", "0"], "--iters"),
    (scf_main, ["--nblocks", "0"], "--nblocks"),
    (scf_main, ["--blocksize", "0"], "--blocksize"),
    (tce_main, ["--nprocs", "-3"], "--nprocs"),
    (tce_main, ["--nblocks", "0"], "--nblocks"),
    (tce_main, ["--blocksize", "0"], "--blocksize"),
    (tce_main, ["--density", "1.5"], "--density"),
    (tce_main, ["--density", "0"], "--density"),
    (tce_main, ["--density", "nan"], "--density"),
    # every flag that becomes Engine(seed=) takes an integer >= 0
    (uts_main, ["--seed", "-1"], "--seed"),
    (scf_main, ["--seed", "-1"], "--seed"),
    (tce_main, ["--seed", "-1"], "--seed"),
    (_obs_main, ["run", "uts-tiny", "--seed", "-1"], "--seed"),
    (_obs_main, ["verify", "--seed", "-1"], "--seed"),
    (_analyze_main, ["race", "--engine-seed", "-1"], "--engine-seed"),
    (_check_main, ["--engine-seed", "-1"], "--engine-seed"),
]


@pytest.mark.parametrize(
    "main,argv,flag", _OUT_OF_RANGE, ids=[" ".join(a) for _, a, _ in _OUT_OF_RANGE]
)
def test_out_of_range_value_exits_2_naming_the_flag(main, argv, flag, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}" in capsys.readouterr().err
