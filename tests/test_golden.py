"""Golden artifacts: the sha256 of every file the subcommands write.

The hashes were recorded from the code before the package was refactored
around ``RouteGroup``, the shared CSV log and the dataclass codec. A rerun
comparing only with itself cannot see a changed RNG draw order or a reordered
JSON key; these pins can. A legitimate change of an artifact must update the
hash here on purpose, with the reason in its commit.
"""

import hashlib
from pathlib import Path

import pytest

from acdroute.cli import main

SCENARIOS = Path(__file__).resolve().parent.parent / "demos" / "scenarios"

SIM_FILES = (
    "acd_vendors.csv",
    "cdrs.csv",
    "decisions.csv",
    "interval_history.json",
    "interval_table.csv",
    "interval_table.html",
    "interval_table.json",
    "summary.json",
)

GOLDEN = {
    "simulate_honest_vs_fas": {
        "acd_vendors.csv": "c2967de30e9963cb74b84f0e7c4e0f16480fdedeb1a4fb979182d98dfc704b99",
        "cdrs.csv": "dc6ca0edbc40976c10b8f37a005f5926e4974530ec89502535878ef76574de78",
        "decisions.csv": "d2cc73617f139afbf6ee518519dbb8356953440d95d5cdb047b50cb836c010c1",
        "interval_history.json": "a5fe08bbc70f9abb1088c3536aa1215983e9278987d63f74a3165731662de7ca",
        "interval_table.csv": "e06b5c6cf2cc94a1b888874d100788a029b7df9ad894325558ca26f42891ce18",
        "interval_table.html": "c1045150920ff77a02fd750982787833ee02cb10e3db2c62fa4f7260385a7b59",
        "interval_table.json": "48b3a5efca36c5012e68733553f421b2ed46a2383df1d2204323919d36965d60",
        "summary.json": "25d9dbf7d0a98928b80018e1326e8ea665e76201416b5948879d9c4ba03ac10f",
    },
    "simulate_preferred_honest": {
        "acd_vendors.csv": "eaa52bfbd560945ca86233e64f2d9c3defc259abfc493d2947d2b21f253221f5",
        "cdrs.csv": "919aaa93cfc4f2925cd17dab8427a256c0e4ae49e073f66315959b4cfbcea3b6",
        "decisions.csv": "0dd252a532a40af28233dd083921de6264ad6cb0f7bb673cb842b413ec663bcd",
        "interval_history.json": "e257326a127724e1282b58f01eeeade3a83a41bdcb6f2dbc624aedc7c8dcbd3d",
        "interval_table.csv": "cd2db6b113892bc9bc99d278ce3916325409ec1247477a09aaa7a4031bddb60b",
        "interval_table.html": "97ff7fa446332b07fa678835a6685a80b0e78f79adbd69f28fbb1162d27f2b8b",
        "interval_table.json": "c26c4e4aa35c5ef3b4e60aba89bf4034b082bab30c936754192c5112b0ff0e8e",
        "summary.json": "eff375d8b079bdb5c2c4ad045df529648f76bd41acac6b648b708f264e196517",
    },
    "simulate_pure_fas_control": {
        "acd_vendors.csv": "257cf8ddccdd9e69aebacd268b522ebddb4c30dd2519329895ce50c5088b38fb",
        "cdrs.csv": "a2b5f2a4cc8fbe5494d5cdcb88beda37763eb2c080b056f74d522a3a6ad6bf2c",
        "decisions.csv": "75df4f99e9235fac0daf4710842d9ee11c4cfb9c900dbac747c399ef146b0d9d",
        "interval_history.json": "761c563b0422368a3ca7633fab026b0b4a819b2d5e4bd5b710b9de3db528c5d9",
        "interval_table.csv": "0333634b67298d82733a31c31d4bd4300a800106b5131ebc42ffc8e6e3bcc4f7",
        "interval_table.html": "49a0b8eb98019424d68e0758b0d982319bfefa5b7e7438632cf45b4819c69cf5",
        "interval_table.json": "9b18555392ade2ffd1098f94a601c41b19adc5c8df4477d970cace2113fcbc68",
        "summary.json": "53de03f74101097cad1dc00eaac85f1707dec50ce8785c2cdcc6224128f5e081",
    },
    "simulate_pure_fas_control_seed5_disabled": {
        "acd_vendors.csv": "59e25f4997fee2b792c7b80e2c9f4651d98ce691db5d1d469f8c0ff075246205",
        "cdrs.csv": "ae42850ea4085c1c4bb217c91cf9e317587e981e328a49347695be624bcb4dc3",
        "decisions.csv": "55f312e2762ab51fe0692970ec7834cae5db7df3247d63adabbadfbe8c770bf7",
        "interval_history.json": "4933c6ef1757fe212395b017266e37aff776679bd59489ea58bae39cdf46c70c",
        "interval_table.csv": "84b1bcb22d959877f6117270be6ffbec5adf2b450d0653b87dc6e746cbe7a91f",
        "interval_table.html": "fcbdbe495d7a77796eca00452c9d9d87c6bc189a57f6d52899e0eda32cd499e2",
        "interval_table.json": "b93975c20df7cada6eb1bf286363ce8fa4633079f20bc6749f262815833cb86f",
        "summary.json": "2f1b3dc69b695bc02f80348a4eb4b975e80659ebf5dfb5abdb75e6f5e673b176",
    },
    "aggregate_preferred_honest": {
        "acd_vendors.csv": "b25eb67f0e58e265b2b6f8ee790beba2b51cb44168d8887723def2860a792652",
        "interval_history.json": "f75ed9734ad46ad852260135078de612962bb02ad568ea8f6cee4e015ca78f69",
        "interval_table.csv": "df17d8d0a586d3ffe97687e4a31bf53c7283224b0ccb205ecf18ff3abfdfda52",
        "interval_table.html": "156d6bd8f7f84982145e07394954d11d575db86af263e83c011ccf39b58d0783",
        "interval_table.json": "854ae314edd7268d79b0b55808695a4063d43a1f4df1e792de0e12296d53c08b",
    },
    "report_honest_vs_fas": {
        "interval_table.csv": "e06b5c6cf2cc94a1b888874d100788a029b7df9ad894325558ca26f42891ce18",
        "interval_table.html": "c1045150920ff77a02fd750982787833ee02cb10e3db2c62fa4f7260385a7b59",
        "interval_table.json": "48b3a5efca36c5012e68733553f421b2ed46a2383df1d2204323919d36965d60",
    },
    "compute_reference": {
        "calc.html": "6b4b71786e1a6d01a17b7b0fc47f18b254517e95807c2ca7a59fec8702f0f050",
        "calc.txt": "ab60b8e22a80a8b93e7f4ddc860d1240e7a90531e75a4778e8a3f88b256a3140",
    },
}


def sha256_dir(path: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(path.iterdir())
        if p.is_file()
    }


def run(args, out: Path) -> dict:
    assert main(args + ["--out", str(out)]) == 0
    return sha256_dir(out)


def simulate(tmp_path: Path, name: str, *extra: str) -> dict:
    return run(["simulate", "--scenario", str(SCENARIOS / f"{name}.json"), *extra],
               tmp_path / name)


@pytest.mark.parametrize("name", ["honest_vs_fas", "preferred_honest", "pure_fas_control"])
def test_simulate_bundled_scenarios(tmp_path, capsys, name):
    hashes = simulate(tmp_path, name)
    capsys.readouterr()
    assert set(hashes) == set(SIM_FILES)
    assert hashes == GOLDEN[f"simulate_{name}"]


def test_simulate_overrides(tmp_path, capsys):
    # --seed and --disable-admission rebuild the config through the codec
    hashes = simulate(tmp_path, "pure_fas_control", "--seed", "5", "--disable-admission")
    capsys.readouterr()
    assert hashes == GOLDEN["simulate_pure_fas_control_seed5_disabled"]


@pytest.mark.parametrize("name, extra", [
    ("honest_vs_fas", ()), ("preferred_honest", ()), ("pure_fas_control", ()),
    ("pure_fas_control", ("--seed", "5", "--disable-admission")),
], ids=["honest_vs_fas", "preferred_honest", "pure_fas_control", "seed5_disabled"])
def test_simulate_on_each_row_writer(tmp_path, capsys, row_writer, name, extra):
    # simulate renders its two logs in a forked writer process or in its own
    # process, by the host's CPUs: either way, every file is the golden one
    hashes = simulate(tmp_path, name, *extra)
    capsys.readouterr()
    assert hashes == GOLDEN[f"simulate_{name}" + ("_seed5_disabled" if extra else "")]


def test_aggregate_simulated_cdrs(tmp_path, capsys):
    sim = tmp_path / "preferred_honest"
    simulate(tmp_path, "preferred_honest")
    hashes = run(["aggregate", "--cdr", str(sim / "cdrs.csv"), "--prefs", "9,8"],
                 tmp_path / "agg")
    capsys.readouterr()
    assert hashes == GOLDEN["aggregate_preferred_honest"]


def test_report_saved_history(tmp_path, capsys):
    sim = tmp_path / "honest_vs_fas"
    simulate(tmp_path, "honest_vs_fas")
    hashes = run(["report", "--history", str(sim / "interval_history.json")],
                 tmp_path / "rep")
    capsys.readouterr()
    assert hashes == GOLDEN["report_honest_vs_fas"]


def test_compute_calc_files(tmp_path, capsys):
    hashes = run(["compute", "--acd", "8.67,0.6", "--pref", "9,8"], tmp_path / "calc")
    capsys.readouterr()
    assert hashes == GOLDEN["compute_reference"]
