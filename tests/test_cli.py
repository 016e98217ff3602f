import csv
import os

import numpy as np
import pytest

from mmwsel import cli
from mmwsel.cli import ExperimentConfig, load_config, main, noise_power_from_snr_db


def write_config(path, **overrides):
    base = {
        "n_tx": 16, "rows_m": 4, "cols_n": 4, "n_users": 4, "n_select": 2,
        "seed": 3, "n_samples": 60, "snr_label_db": 10.0,
        "epochs": 1, "batch_size": 10, "trials": 5,
        "snr_db": "0,10", "xi": "1.0,0.7",
    }
    base.update(overrides)
    with open(path, "w") as fh:
        fh.write("# test configuration\n\n")
        for key, value in base.items():
            fh.write(f"{key} = {value}\n")
    return str(path)


def read_csv_rows(path):
    with open(path) as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# ---------------------------------------------------------------------------
# config parsing


def test_config_defaults_and_types(tmp_path):
    path = write_config(tmp_path / "c.cfg", learning_rate=0.5)
    cfg = load_config(path)
    assert cfg.n_users == 4
    assert cfg.learning_rate == 0.5
    assert cfg.snr_db == (0.0, 10.0)
    assert cfg.xi == (1.0, 0.7)
    assert cfg.precision == "float32"  # untouched default


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("no_such_key = 1\n")
    with pytest.raises(cli.UsageError):
        load_config(path)


def test_config_override_wins(tmp_path):
    path = write_config(tmp_path / "c.cfg")
    cfg = load_config(path, overrides={"seed": 99})
    assert cfg.seed == 99


def test_noise_conversion():
    assert noise_power_from_snr_db(10.0) == pytest.approx(0.1)
    assert noise_power_from_snr_db(0.0) == 1.0


# ---------------------------------------------------------------------------
# subcommands (driven through main() for exit-code coverage)


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(
        tmp_path / "exp.cfg",
        dataset=str(tmp_path / "d.mmws"),
        checkpoint=str(tmp_path / "m.ckpt"),
    )
    return tmp_path, str(cfg_path)


def test_gen_dataset_and_force(workspace, capsys):
    tmp, cfg = workspace
    assert main(["gen-dataset", "--config", cfg]) == 0
    assert (tmp / "d.mmws").exists()
    out = capsys.readouterr().out
    assert "n_samples = 60" in out
    # refuses to overwrite without --force
    assert main(["gen-dataset", "--config", cfg]) == 1
    assert main(["gen-dataset", "--config", cfg, "--force"]) == 0


def test_gen_dataset_deterministic(workspace):
    tmp, cfg = workspace
    main(["gen-dataset", "--config", cfg])
    first = (tmp / "d.mmws").read_bytes()
    main(["gen-dataset", "--config", cfg, "--force"])
    assert (tmp / "d.mmws").read_bytes() == first


def test_train_and_metrics(workspace):
    tmp, cfg = workspace
    main(["gen-dataset", "--config", cfg])
    assert main(["train", "--config", cfg]) == 0
    assert (tmp / "m.ckpt").exists()
    rows = read_csv_rows(tmp / "m.ckpt.metrics.csv")
    assert len(rows) == 1  # one epoch
    assert set(rows[0]) == {"epoch", "train_loss", "train_acc", "test_acc"}


def test_train_missing_dataset_is_data_error(workspace):
    _, cfg = workspace
    assert main(["train", "--config", cfg]) == 2


def test_train_corrupt_dataset_is_data_error(workspace):
    tmp, cfg = workspace
    main(["gen-dataset", "--config", cfg])
    blob = bytearray((tmp / "d.mmws").read_bytes())
    blob[:4] = b"XXXX"
    (tmp / "d.mmws").write_bytes(bytes(blob))
    assert main(["train", "--config", cfg]) == 2


def test_eval_rate_outputs(workspace):
    tmp, cfg = workspace
    main(["gen-dataset", "--config", cfg])
    main(["train", "--config", cfg])
    out = tmp / "rates.csv"
    assert main(["eval-rate", "--config", cfg, "--out", str(out)]) == 0
    rows = read_csv_rows(out)
    assert len(rows) == 2 * 4  # two SNR points x four methods
    by_method = {(r["snr_db"], r["method"]): float(r["mean_rate"]) for r in rows}
    for snr in ("0.0", "10.0"):
        for method in ("Greedy", "BPSO", "CNN"):
            assert by_method[(snr, "ES")] >= by_method[(snr, method)]
    # config echo present as comments
    text = out.read_text()
    assert "# n_users = 4" in text


def test_eval_rate_es_not_dominant_is_data_error(workspace, monkeypatch):
    tmp, cfg = workspace
    main(["gen-dataset", "--config", cfg])
    main(["train", "--config", cfg])
    monkeypatch.setattr(cli, "exhaustive_search",
                        lambda h, n_select, noise: (np.arange(n_select), -1.0))
    assert main(["eval-rate", "--config", cfg, "--out", str(tmp / "rates.csv")]) == 2
    assert not (tmp / "rates.csv").exists()


def test_csi_sweep_xi_one_matches_eval_rate_cnn(workspace):
    tmp, cfg = workspace
    main(["gen-dataset", "--config", cfg])
    main(["train", "--config", cfg])
    rates_csv = tmp / "r.csv"
    sweep_csv = tmp / "s.csv"
    main(["eval-rate", "--config", cfg, "--out", str(rates_csv)])
    main(["csi-sweep", "--config", cfg, "--out", str(sweep_csv)])
    eval_rows = {r["snr_db"]: float(r["mean_rate"])
                 for r in read_csv_rows(rates_csv) if r["method"] == "CNN"}
    sweep_rows = {r["snr_db"]: float(r["mean_rate"])
                  for r in read_csv_rows(sweep_csv) if r["xi"] == "1.0"}
    assert sweep_rows == pytest.approx(eval_rows)


def test_complexity_full_scale_numbers(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg_path = write_config(tmp_path / "full.cfg", n_tx=144, rows_m=12,
                            cols_n=12, n_users=10, n_select=6)
    assert main(["complexity", "--config", cfg_path]) == 0
    rows = {r["method"]: int(r["operations"])
            for r in read_csv_rows(tmp_path / "complexity.csv")}
    assert rows == {"ES": 156_764_160, "BPSO": 74_649_600,
                    "Greedy": 7_464_960, "CNN": 5_827_584}


def test_complexity_scaling(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    counts = {}
    for n_tx, rows_m, cols_n in ((16, 4, 4), (32, 4, 8)):
        cfg_path = write_config(tmp_path / f"{n_tx}.cfg", n_tx=n_tx,
                                rows_m=rows_m, cols_n=cols_n)
        main(["complexity", "--config", cfg_path, "--out",
              str(tmp_path / f"{n_tx}.csv")])
        counts[n_tx] = {r["method"]: int(r["operations"])
                        for r in read_csv_rows(tmp_path / f"{n_tx}.csv")}
    # the classical solvers all carry the n_tx^2 determinant cost
    for method in ("ES", "BPSO", "Greedy"):
        assert counts[32][method] == 4 * counts[16][method]


def test_usage_errors_exit_one(tmp_path):
    assert main(["gen-dataset", "--config", str(tmp_path / "missing.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("whatever = 3\n")
    assert main(["complexity", "--config", str(bad)]) == 1
    assert main(["no-such-command"]) == 1


def test_seed_flag_changes_dataset(workspace):
    tmp, cfg = workspace
    main(["gen-dataset", "--config", cfg])
    first = (tmp / "d.mmws").read_bytes()
    main(["gen-dataset", "--config", cfg, "--seed", "77", "--force"])
    assert (tmp / "d.mmws").read_bytes() != first
