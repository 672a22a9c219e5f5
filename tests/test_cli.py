"""Config parsing, seed derivation and the experiment runner."""

from __future__ import annotations

import csv
import os
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from stressgrid import cli, consumption, engine
from stressgrid.cli import (
    ConfigError,
    ExperimentSpec,
    _worker_count,
    cell_config,
    derive_seed,
    main,
    parse_config,
    run_sweep,
)
from stressgrid.consumption import read_samples_file
from stressgrid.corpus import write_synthetic_corpus
from stressgrid.engine import SimConfig

TINY = """
[simulation]
horizon_hours = 2
runs = 2
seed = 42

[topology]
homes = 20
feeders = 5
group_size = 5
homes_per_transformer = 5

[supply]
gaps = 20

[sweep]
aps = 0.9
"""


def tiny_with_data_dir(data_dir: Path) -> str:
    return TINY.replace("[topology]", f"[topology]\ndata_dir = {data_dir}")


def corpus_ini(edit):
    """An INI builder: TINY on a synthetic corpus under tmp_path, changed
    by `edit(class_b_dir)`."""

    def build(tmp_path: Path) -> str:
        root = write_synthetic_corpus(tmp_path / "corpus")
        edit(root / "class_b")
        return tiny_with_data_dir(root)

    return build


def _append(path: Path, line: str) -> None:
    path.write_text(path.read_text() + line)


def _keep_header(path: Path) -> None:
    path.write_text(path.read_text().splitlines()[0] + "\n")


def _set_header(path: Path, header: str) -> None:
    lines = path.read_text().splitlines()
    path.write_text("\n".join([header] + lines[1:]) + "\n")


def write_config(tmp_path: Path, text: str | bytes) -> Path:
    p = tmp_path / "exp.ini"
    p.write_bytes(text.encode() if isinstance(text, str) else text)
    return p


class TestParseConfig:
    def test_all_defaults_without_file(self):
        spec = parse_config(None)
        assert spec.policies == ["baseline", "distributed", "centralized"]
        assert spec.gaps_percent == [10.0, 20.0, 30.0, 40.0]
        assert spec.aps == [0.3, 0.6, 0.9]
        assert spec.runs == 10
        assert spec.base.n_homes == 1000
        assert spec.base.supply.mode == "fractional_gap"
        # every CLI default equals the value types' own; 42 is the CLI's base seed
        assert spec == ExperimentSpec(base=replace(SimConfig(), seed=42))

    def test_readme_config_block_is_the_defaults(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_config(write_config(tmp_path, block)) == parse_config(None)

    def test_empty_file_equals_defaults(self, tmp_path):
        spec = parse_config(write_config(tmp_path, ""))
        assert spec.gaps_percent == [10.0, 20.0, 30.0, 40.0]

    def test_four_gaps_make_four_cells_per_policy_ap(self, tmp_path):
        spec = parse_config(write_config(tmp_path, "[supply]\ngaps = 10,20,30,40\n"))
        assert len(spec.cells()) == 3 * 4 * 3

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[weather\]"):
            parse_config(write_config(tmp_path, "[weather]\nrain = yes\n"))

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown key 'homez' in section \[topology\]"):
            parse_config(write_config(tmp_path, "[topology]\nhomez = 10\n"))

    def test_dp_sum_error_message(self, tmp_path):
        with pytest.raises(ConfigError, match="distribution profile must sum to 1"):
            parse_config(write_config(tmp_path, "[policy]\ndp = 0.5,0.3,0.3\n"))

    def test_dp_needs_three_entries(self, tmp_path):
        with pytest.raises(ConfigError, match="three fractions"):
            parse_config(write_config(tmp_path, "[policy]\ndp = 0.5,0.5\n"))

    def test_class_mix_sum_enforced(self, tmp_path):
        with pytest.raises(ConfigError, match="class mix must sum to 1"):
            parse_config(write_config(tmp_path, "[topology]\nclass_mix = 0.5,0.4,0.2\n"))

    def test_fixed_capacity_requires_value(self, tmp_path):
        with pytest.raises(ConfigError, match="missing required key 'capacity_w'"):
            parse_config(write_config(tmp_path, "[supply]\nmode = fixed_capacity\n"))

    def test_gap_range_enforced(self, tmp_path):
        with pytest.raises(ConfigError, match="outside"):
            parse_config(write_config(tmp_path, "[supply]\ngaps = 100\n"))

    def test_ap_range_enforced(self, tmp_path):
        with pytest.raises(ConfigError, match="outside"):
            parse_config(write_config(tmp_path, "[sweep]\naps = 1.5\n"))

    def test_unknown_policy_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown policy"):
            parse_config(write_config(tmp_path, "[policy]\npolicies = psychic\n"))

    def test_bad_integer_named(self, tmp_path):
        with pytest.raises(ConfigError, match="bad integer for homes"):
            parse_config(write_config(tmp_path, "[topology]\nhomes = many\n"))

    def test_inline_comments_allowed(self, tmp_path):
        spec = parse_config(write_config(tmp_path, "[supply]\ngaps = 15  # tight\n"))
        assert spec.gaps_percent == [15.0]

    def test_values_are_literal(self, tmp_path):
        spec = parse_config(write_config(tmp_path, "[output]\nout_dir = results_100%\n"))
        assert spec.out_dir == "results_100%"

    def test_default_section_rejected_beside_others(self, tmp_path):
        with pytest.raises(ConfigError, match=r"unknown section \[DEFAULT\]"):
            parse_config(write_config(tmp_path, TINY + "\n[DEFAULT]\nhomes = 10\n"))


class TestSeedDerivation:
    def test_frozen_values(self):
        # stable across releases; these anchor the derivation formula
        assert derive_seed(42, 0.9, 0) == 6529959253061596705
        assert derive_seed(42, 0.9, 1) == 9496334644172244187
        assert derive_seed(42, 0.6, 0) == 1648260645494005857
        assert derive_seed(7, 0.3, 4) == 13570474210570006706

    def test_cells_and_runs_distinct(self):
        """Distinct across AP and run index; equal across the policies and
        gaps of one (AP, run), which run on common random numbers."""
        spec = parse_config(None)
        seeds = {}
        for policy in ("baseline", "distributed", "centralized"):
            for gap in (10.0, 20.0):
                for ap in (0.3, 0.9):
                    for run in range(5):
                        seed = cell_config(spec, policy, gap, ap, run).seed
                        seeds.setdefault((ap, run), set()).add(seed)
        assert all(len(per_policy_and_gap) == 1 for per_policy_and_gap in seeds.values())
        assert len(set.union(*seeds.values())) == 2 * 5

    def test_cell_config_carries_cell_parameters(self):
        spec = parse_config(None)
        c = cell_config(spec, "centralized", 30.0, 0.6, 4)
        assert c.policy == "centralized"
        assert c.ap == 0.6
        assert c.supply.gap_fraction == pytest.approx(0.3)
        assert c.seed == derive_seed(42, 0.6, 4)


class TestWorkerCount:
    def test_env_caps_workers(self, monkeypatch):
        monkeypatch.setenv("STRESSGRID_THREADS", "1")
        assert _worker_count(8) == 1

    def test_never_exceeds_jobs(self, monkeypatch):
        monkeypatch.setenv("STRESSGRID_THREADS", "64")
        assert _worker_count(3) == 3

    def test_non_integer_env_means_one_worker(self, monkeypatch):
        monkeypatch.setenv("STRESSGRID_THREADS", "two")
        assert _worker_count(8) == 1

    def test_default_is_the_cpus_the_process_may_run_on(self, monkeypatch):
        monkeypatch.delenv("STRESSGRID_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert _worker_count(8) == 3
        assert _worker_count(2) == 2

    def test_default_without_affinity_is_the_cpu_count(self, monkeypatch):
        monkeypatch.delenv("STRESSGRID_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert _worker_count(8) == 1
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert _worker_count(8) == 4


class TestMain:
    def test_validate_good_config(self, tmp_path, capsys):
        code = main(["--config", str(write_config(tmp_path, TINY)), "--validate"])
        assert code == 0
        assert "config ok" in capsys.readouterr().out

    def test_missing_config_is_io_error(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.ini")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "nope.ini" in err

    def test_out_under_a_file_is_io_error(self, tmp_path, capsys, monkeypatch):
        """An unwritable output directory is found before any run."""
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        p = write_config(tmp_path, TINY.replace("runs = 2", "runs = 1"))
        swept, sweep = [], cli.run_sweep
        monkeypatch.setattr(cli, "run_sweep", lambda spec, quiet: swept.append(spec) or sweep(spec, quiet))
        assert main(["--config", str(p), "--out", str(blocker / "results"), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("i/o error:") and "Traceback" not in err
        assert swept == []

    def test_bad_config_is_config_error(self, tmp_path):
        p = write_config(tmp_path, "[policy]\ndp = 0.9,0.3,0.3\n")
        assert main(["--config", str(p), "--validate"]) == 1

    def test_tiny_sweep_writes_expected_files(self, tmp_path):
        p = write_config(tmp_path, TINY)
        out = tmp_path / "results"
        code = main(["--config", str(p), "--out", str(out), "--quiet"])
        assert code == 0
        runs = sorted(q.name for q in (out / "runs").glob("*.csv"))
        assert len(runs) == 3 * 2  # three policies, two seeds
        s0 = derive_seed(42, 0.9, 0)
        assert f"run_baseline_20_90_s{s0}.csv" in runs
        summaries = sorted(q.name for q in out.glob("summary_*.csv"))
        assert summaries == [
            "summary_baseline_20_90.csv",
            "summary_centralized_20_90.csv",
            "summary_distributed_20_90.csv",
        ]
        matrices = sorted(q.name for q in out.glob("matrix_*.csv"))
        assert len(matrices) == 8  # 2 non-baseline policies x 4 metrics

    def test_progress_ends_with_the_files_written(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("STRESSGRID_THREADS", "1")
        p = write_config(tmp_path, TINY.replace("runs = 2", "runs = 1"))
        out = tmp_path / "results"
        assert main(["--config", str(p), "--out", str(out)]) == 0
        files = [q for q in out.rglob("*") if q.is_file()]
        assert len(files) == 3 + 3 + 2 * 4  # run CSVs, summaries, matrices
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["group 1/1 complete", f"wrote {len(files)} files under {out}"]

    def test_fixed_capacity_runs_share_their_cell(self, tmp_path):
        text = TINY.replace("gaps = 20", "mode = fixed_capacity\ncapacity_w = 5000")
        out = tmp_path / "results"
        assert main(["--config", str(write_config(tmp_path, text)), "--out", str(out), "--quiet"]) == 0
        assert len(list((out / "runs").glob("*.csv"))) == 3 * 2
        summaries = sorted(out.glob("summary_*.csv"))
        assert [q.name for q in summaries] == [
            "summary_baseline_nan_90.csv",
            "summary_centralized_nan_90.csv",
            "summary_distributed_nan_90.csv",
        ]
        for q in summaries:
            with q.open(newline="") as fh:
                assert {row["runs"] for row in csv.DictReader(fh)} == {"2"}
        with (out / "matrix_distributed_sci.csv").open(newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[1:] and [r[0] for r in rows[1:]] == ["nan"]

    def test_single_cell_reproduces_sweep_files(self, tmp_path):
        p = write_config(tmp_path, TINY)
        full, single = tmp_path / "full", tmp_path / "single"
        assert main(["--config", str(p), "--out", str(full), "--quiet"]) == 0
        assert main([
            "--config", str(p), "--out", str(single), "--quiet",
            "--single", "--policy", "distributed", "--gap", "20", "--ap", "0.9",
        ]) == 0
        for j in range(2):
            name = f"run_distributed_20_90_s{derive_seed(42, 0.9, j)}.csv"
            a = (full / "runs" / name).read_bytes()
            b = (single / "runs" / name).read_bytes()
            assert a == b

    def test_single_cell_validates_overrides(self, tmp_path):
        p = write_config(tmp_path, TINY)
        code = main(["--config", str(p), "--single", "--gap", "150", "--validate"])
        assert code == 1

    @pytest.mark.parametrize("validate", [[], ["--validate"]], ids=["run", "validate"])
    @pytest.mark.parametrize("ini, args", [
        pytest.param("[supply]\nmode = fixed_capacity\ncapacity_w = -5\n", [], id="capacity-negative"),
        pytest.param("[supply]\nmode = fixed_capacity\ncapacity_w = lots\n", [], id="capacity-word"),
        pytest.param("[topology]\ngrid_stations = 5\n", [], id="grid-stations-key"),
        pytest.param("[simulation]\nruns = 0\n", [], id="runs-zero-ini"),
        pytest.param("[sweep]\naps =\n", [], id="aps-empty"),
        pytest.param("", ["--seed", "-1"], id="seed-negative"),
        pytest.param(TINY, ["--runs", "0"], id="runs-zero"),
        pytest.param(TINY, ["--single", "--gap", "150"], id="single-gap"),
        pytest.param(TINY, ["--single", "--ap", "1.5"], id="single-ap"),
        pytest.param("[topology]\ndata_dir = no-such-corpus\n", [], id="data-dir-missing"),
        pytest.param("[supply]\nmode = fixed_capacity\ncapacity_w = 5000\ngaps = 20\n", [],
                     id="fixed-capacity-gaps"),
        pytest.param(TINY.replace("gaps = 20", "mode = fixed_capacity\ncapacity_w = 5000"),
                     ["--single", "--gap", "20"], id="fixed-capacity-single-gap"),
        pytest.param(TINY.replace("gaps = 20", "gaps = 20\ncapacity_w = 5000"), [],
                     id="capacity-under-fractional-gap"),
        pytest.param(corpus_ini(lambda d: _append(d / "refrigerator.txt", "ten\n")), [],
                     id="corpus-bad-reading"),
        pytest.param(corpus_ini(lambda d: _append(d / "refrigerator.txt", "nan\n")), [],
                     id="corpus-non-finite-reading"),
        pytest.param(corpus_ini(lambda d: _append(d / "refrigerator.txt", "-5.0\n")), [],
                     id="corpus-negative-reading"),
        pytest.param(corpus_ini(lambda d: _keep_header(d / "refrigerator.txt")), [],
                     id="corpus-no-readings"),
        pytest.param(corpus_ini(lambda d: (d / "refrigerator.txt").unlink()), [],
                     id="corpus-missing-file"),
        pytest.param(corpus_ini(lambda d: _append(d / "manifest.txt", "refrigerator.txt\n")), [],
                     id="corpus-extra-appliance"),
        pytest.param(corpus_ini(shutil.rmtree), [], id="corpus-missing-class"),
        pytest.param(corpus_ini(lambda d: (d / "refrigerator.txt").write_text(
                         "appliance,refrigerator\n" + "1e15\n" * 50)), [],
                     id="corpus-readings-too-large"),
        pytest.param(corpus_ini(lambda d: _set_header(d / "refrigerator.txt", "appliance,")), [],
                     id="corpus-empty-appliance-name"),
        pytest.param(corpus_ini(lambda d: _set_header(d / "manifest.txt", "B")), [],
                     id="corpus-manifest-without-class-header"),
        pytest.param(TINY.replace("[topology]", "[topology]\nclass_mix = 0.5,0.5"), [],
                     id="class-mix-two-fractions"),
        pytest.param(TINY, ["--runs", "abc"], id="runs-word"),
        pytest.param(TINY, ["--seed", "1.5"], id="seed-fraction"),
        pytest.param(TINY, ["--policy", "foo"], id="policy-unknown"),
        pytest.param(TINY, ["--gap", "x"], id="gap-word"),
        pytest.param(TINY, ["--gap", "150", "--ap", "7"], id="bad-cell-flags-without-single"),
        pytest.param(TINY.replace("gaps = 20", "gaps = 20, 20"), [], id="gaps-duplicate"),
        pytest.param(TINY.replace("aps = 0.9", "aps = 0.9, 0.9000001"), [], id="aps-near-duplicate"),
        pytest.param(TINY.replace("aps = 0.9", "aps = 0.30001, 0.30002"), [], id="aps-one-seed"),
        pytest.param(TINY.replace("gaps = 20", "gaps = 0, -0"), [], id="gaps-signed-zero"),
        pytest.param(TINY + "\n[policy]\npolicies = baseline, centralized, baseline\n", [],
                     id="policies-duplicate"),
        pytest.param(TINY.replace("feeders = 5", "feeders = %(homes)s"), [], id="interpolation"),
        pytest.param("[DEFAULT]\nhomes = 10\n", [], id="default-section"),
        pytest.param(b"\xff\xfe[simulation]\n", [], id="not-utf-8"),
    ])
    def test_bad_settings_are_config_errors(self, tmp_path, capsys, ini, args, validate):
        p = write_config(tmp_path, ini(tmp_path) if callable(ini) else ini)
        out = tmp_path / "results"
        assert main(["--config", str(p), "--out", str(out), "--quiet", *args, *validate]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("validate", [[], ["--validate"]], ids=["run", "validate"])
    def test_gaps_a_thousandth_apart_are_two_cells(self, tmp_path, capsys, validate):
        """A seed does not key on the gap, so gaps a thousandth of a percent
        apart are two cells on one grid, not a config error."""
        p = write_config(tmp_path, TINY.replace("gaps = 20", "gaps = 7.001, 7.002"))
        out = tmp_path / "results"
        assert main(["--config", str(p), "--out", str(out), "--quiet", *validate]) == 0
        if validate:
            assert "config ok: 6 cells x 2 runs" in capsys.readouterr().out
            assert not out.exists()
            return
        assert sorted(q.name for q in out.glob("summary_baseline_*.csv")) == [
            "summary_baseline_7.001_90.csv",
            "summary_baseline_7.002_90.csv",
        ]

    @pytest.mark.parametrize("args, key_before, key_after", [
        pytest.param(["--seed", "7"], "seed = 42", "seed = 7", id="seed"),
        pytest.param(["--runs", "3"], "runs = 2", "runs = 3", id="runs"),
        pytest.param(["--out", "elsewhere"], "out_dir = results", "out_dir = elsewhere", id="out"),
        pytest.param(["--single", "--policy", "centralized"], "policies = distributed",
                     "policies = centralized", id="policy"),
        pytest.param(["--single", "--gap", "30"], "gaps = 20", "gaps = 30", id="gap"),
        pytest.param(["--single", "--ap", "0.6"], "aps = 0.9", "aps = 0.6", id="ap"),
    ])
    def test_flag_sets_the_key_it_overrides(self, tmp_path, monkeypatch, args, key_before, key_after):
        """A flag runs exactly the spec of the file that sets its key instead."""
        monkeypatch.chdir(tmp_path)  # main creates out_dir/runs before the stubbed sweep
        ini = TINY + "\n[policy]\npolicies = distributed\n\n[output]\nout_dir = results\n"
        assert key_before in ini
        run = []
        monkeypatch.setattr(cli, "run_sweep", lambda spec, quiet: run.append(spec) or [])
        monkeypatch.setattr(cli, "write_report", lambda logs, out_dir: [])
        assert main(["--config", str(write_config(tmp_path, ini)), "--quiet", *args]) == 0
        assert run == [parse_config(write_config(tmp_path, ini.replace(key_before, key_after)))]

    @pytest.mark.parametrize("single, flag, value, key_before, key_after", [
        pytest.param(["--single"], "--gap", "20,30", "gaps = 20", "gaps = 20,30", id="single-gap-list"),
        pytest.param([], "--policy", "distributed,centralized", "policies = distributed",
                     "policies = distributed,centralized", id="policy-list"),
        pytest.param([], "--gap", "30", "gaps = 20", "gaps = 30", id="gap-without-single"),
    ])
    def test_list_flag_runs_as_its_key(self, tmp_path, monkeypatch, single, flag, value, key_before, key_after):
        """A flag's list value gives the run logs of the same list in the file."""
        ini = TINY.replace("runs = 2", "runs = 1") + "\n[policy]\npolicies = distributed\n"
        logs = []
        monkeypatch.setattr(cli, "run_sweep", lambda spec, quiet: logs.append(run_sweep(spec, quiet)) or logs[-1])
        by_flag = ["--config", str(write_config(tmp_path, ini)), "--out", str(tmp_path / "a"), flag, value]
        assert main([*by_flag, "--quiet", *single]) == 0
        by_key = ["--config", str(write_config(tmp_path, ini.replace(key_before, key_after)))]
        assert main([*by_key, "--out", str(tmp_path / "b"), "--quiet", *single]) == 0
        assert len(logs) == 2 and logs[0] and repr(logs[0]) == repr(logs[1])

    def test_readme_flag_table_is_the_flag_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `(--[a-z]+)[^|]*\| sets `\[(\w+)\] (\w+)`", readme, re.MULTILINE)
        assert {flag: (section, key) for flag, section, key in rows} == cli.FLAGS
        assert len(rows) == len(cli.FLAGS)

    def test_flag_replaces_ini_value_unparsed(self, tmp_path):
        p = write_config(tmp_path, TINY.replace("runs = 2", "runs = many"))
        out = tmp_path / "results"
        assert main(["--config", str(p), "--out", str(out), "--quiet", "--single", "--runs", "1"]) == 0
        assert len(list((out / "runs").glob("*.csv"))) == 1

    @pytest.mark.parametrize("validate", [[], ["--validate"]], ids=["run", "validate"])
    def test_data_dir_without_manifests_is_config_error(self, tmp_path, capsys, validate):
        corpus = tmp_path / "corpus"
        (corpus / "class_a").mkdir(parents=True)
        p = write_config(tmp_path, tiny_with_data_dir(corpus))
        assert main(["--config", str(p), "--quiet", *validate]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: data_dir") and "Traceback" not in err

    @pytest.mark.parametrize("validate", [[], ["--validate"]], ids=["run", "validate"])
    def test_two_manifests_of_one_class_are_config_error(self, tmp_path, capsys, validate):
        corpus = write_synthetic_corpus(tmp_path / "corpus")
        copy = shutil.copytree(corpus / "class_a", corpus / "class_z")
        (copy / "refrigerator.txt").write_text("appliance,refrigerator\n" + "5000.0\n" * 50)
        p = write_config(tmp_path, tiny_with_data_dir(corpus))
        out = tmp_path / "results"
        assert main(["--config", str(p), "--out", str(out), "--quiet", *validate]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: data_dir") and "Traceback" not in err
        assert str(corpus / "class_a" / "manifest.txt") in err and str(copy / "manifest.txt") in err
        assert not out.exists()

    def test_corpus_needs_only_the_classes_homes_get(self, tmp_path, capsys):
        corpus = write_synthetic_corpus(tmp_path / "corpus")
        shutil.rmtree(corpus / "class_b")
        shutil.rmtree(corpus / "class_c")
        ini = tiny_with_data_dir(corpus).replace("[topology]", "[topology]\nclass_mix = 1,0,0")
        p = write_config(tmp_path, ini)
        assert main(["--config", str(p), "--validate"]) == 0
        assert capsys.readouterr().out.startswith("config ok")
        out = tmp_path / "results"
        assert main(["--config", str(p), "--out", str(out), "--quiet", "--single", "--runs", "1"]) == 0

    def test_corpus_data_dir_validates_by_fitting(self, tmp_path, capsys, monkeypatch):
        corpus = write_synthetic_corpus(tmp_path / "corpus")
        p = write_config(tmp_path, tiny_with_data_dir(corpus))
        monkeypatch.setattr(engine, "_MODEL_CACHE", {})
        assert main(["--config", str(p), "--validate"]) == 0
        assert capsys.readouterr().out.startswith("config ok")
        assert str(corpus) in engine._MODEL_CACHE

    def test_corpus_read_once_to_check_and_fit(self, tmp_path, monkeypatch):
        """The check's fit reads each sample file once, and the run reuses it."""
        corpus = write_synthetic_corpus(tmp_path / "corpus")
        p = write_config(tmp_path, tiny_with_data_dir(corpus))
        reads = []

        def counting_read(path):
            reads.append(path)
            return read_samples_file(path)

        monkeypatch.setattr(consumption, "read_samples_file", counting_read)
        monkeypatch.setattr(engine, "_MODEL_CACHE", {})
        monkeypatch.setenv("STRESSGRID_THREADS", "1")
        args = ["--config", str(p), "--out", str(tmp_path / "results"), "--quiet"]
        assert main([*args, "--single", "--runs", "1"]) == 0
        assert sorted(reads) == sorted(set(corpus.glob("*/*.txt")) - set(corpus.glob("*/manifest.txt")))


class TestRunSweep:
    def test_logs_cover_every_cell_and_run(self, tmp_path):
        spec = parse_config(write_config(tmp_path, TINY))
        logs = run_sweep(spec, quiet=True)
        assert len(logs) == 3 * 2
        keys = {(lg.policy, lg.gap_percent, lg.ap, lg.seed) for lg in logs}
        assert len(keys) == 6

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_logs_equal_solo_runs_in_config_order(self, tmp_path, monkeypatch, capsys, threads):
        spec = parse_config(write_config(tmp_path, TINY.replace("gaps = 20", "gaps = 10, 40")))
        monkeypatch.setenv("STRESSGRID_THREADS", threads)
        logs = run_sweep(spec)
        solo = [engine.run(config) for config in spec.configs()]
        assert [repr(log) for log in logs] == [repr(log) for log in solo]
        groups = spec.runs  # one per (AP, run); its policies and gaps share it
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"group {i}/{groups} complete" for i in range(1, groups + 1)]

    def test_runs_without_a_pool_load_no_pool_modules(self, tmp_path):
        """`--validate` and a one-worker sweep, in a fresh interpreter, never
        import the process-pool stack, which costs about 2 MB of peak memory
        and 12 ms. The pool path runs in the test above, with 2 threads."""
        p = write_config(tmp_path, TINY)
        script = (
            "import sys\n"
            "from stressgrid import cli\n"
            f"assert cli.main(['--config', {str(p)!r}, '--validate']) == 0\n"
            f"assert len(cli.run_sweep(cli.parse_config({str(p)!r}), quiet=True)) == 6\n"
            "print(sorted({'multiprocessing', 'concurrent.futures.process'} & set(sys.modules)))\n"
        )
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "STRESSGRID_THREADS": "1",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
        assert done.stdout.splitlines() == ["config ok: 3 cells x 2 runs", "[]"]

    def test_seed_override_changes_runs(self, tmp_path):
        spec = parse_config(write_config(tmp_path, TINY))
        c0 = cell_config(spec, "baseline", 20.0, 0.9, 0)
        spec2 = parse_config(write_config(tmp_path, TINY.replace("seed = 42", "seed = 43")))
        c1 = cell_config(spec2, "baseline", 20.0, 0.9, 0)
        assert c0.seed != c1.seed


def test_spec_cells_order():
    spec = ExperimentSpec(base=parse_config(None).base, policies=["a", "b"],
                          gaps_percent=[10.0], aps=[0.5], runs=1)
    assert spec.cells() == [("a", 10.0, 0.5), ("b", 10.0, 0.5)]


@pytest.mark.parametrize("fields", [
    pytest.param({"runs": 0}, id="runs-zero"),
    pytest.param({"policies": []}, id="policies-empty"),
    pytest.param({"gaps_percent": []}, id="gaps-empty"),
    pytest.param({"aps": []}, id="aps-empty"),
    pytest.param({"policies": ["baseline", "baseline"]}, id="policies-duplicate"),
    pytest.param({"gaps_percent": [20.0, 20.0000001]}, id="gaps-one-report-name"),
    pytest.param({"aps": [0.9, 0.9000001]}, id="aps-one-report-name"),
])
def test_spec_rejects_sweeps_without_runs_or_cell_names(fields):
    """An ExperimentSpec checks its own ranges: a sweep of no runs, or of an
    empty list of policies, gaps or APs, has no run to make, and two values
    that the report names alike would write one cell's files."""
    with pytest.raises(ValueError):
        ExperimentSpec(base=SimConfig(), **fields)
