import os
import subprocess
import sys
from pathlib import Path

import pytest

from dmmobench import cli, reporting
from dmmobench.cli import main, parse_problems, parse_seeds
from dmmobench.optimizers import OPTIMIZERS


CONFIG = """\
# reduced-budget profile for fast functional checks
evals_per_dim = 40
environments = 4
"""


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(CONFIG)
    return str(path)


def test_parse_problems_forms():
    assert parse_problems("all") == [f"P{n}" for n in range(1, 25)]
    assert parse_problems("P1-P3") == ["P1", "P2", "P3"]
    assert parse_problems("p5,P5,p7") == ["P5", "P7"]
    assert parse_problems("9-10") == ["P9", "P10"]
    for bad in ("P0", "P25", "x", "P3-P1,"):
        with pytest.raises(ValueError):
            parse_problems(bad)


def test_parse_seeds_forms():
    assert parse_seeds("1-3") == [1, 2, 3]
    assert parse_seeds("5") == [5]
    assert parse_seeds("3,1,3") == [3, 1]
    with pytest.raises(ValueError):
        parse_seeds("-2")
    with pytest.raises(ValueError):
        parse_seeds("two")


def run_cli(args):
    return main([str(a) for a in args])


def test_run_writes_reproducible_outputs(tmp_path, config_path, capsys):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        code = run_cli(["run", "--problems", "P1", "--seeds", "1-2",
                        "--config", config_path, "--out-dir", out])
        assert code == 0
    stdout = capsys.readouterr().out
    assert "P1" in stdout
    assert "pr_1e-03" in stdout
    for name in ("results.txt", "results.csv", "records_P1.csv"):
        assert (out_a / name).is_file()
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class Idle:
    """An optimizer that returns without evaluating anything."""

    name = "idle"

    def __init__(self, config):
        pass

    def optimize(self, instance, rng):
        return instance.snapshots


def test_run_exits_1_when_an_optimizer_returns_early(
        tmp_path, config_path, capsys, monkeypatch):
    monkeypatch.setitem(OPTIMIZERS, "idle", Idle)
    code = run_cli(["run", "--problems", "P1", "--seeds", "1",
                    "--optimizer", "idle", "--config", config_path,
                    "--out-dir", tmp_path])
    assert code == 1
    err = capsys.readouterr().err
    assert "run failed: P1 seed 1" in err
    assert "0 of 4 environments sealed" in err


def test_parallel_runs_match_serial(tmp_path, config_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base = ["run", "--problems", "P1,P5", "--seeds", "1-2",
            "--config", config_path]
    assert run_cli(base + ["--out-dir", serial]) == 0
    assert run_cli(base + ["--out-dir", parallel, "--jobs", "2"]) == 0
    for name in ("results.csv", "records_P1.csv", "records_P5.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


SERIAL_PROCESS = """\
import sys
from dmmobench.cli import main
from dmmobench.config import BenchmarkSettings
from dmmobench.reporting import run_benchmark
out, config = sys.argv[1:]
settings = BenchmarkSettings(evals_per_dim=20, environments=3)
report = run_benchmark(["P1"], [1], settings=settings, out_dir=out,
                       save_snapshots=True)
assert report.failures == []
common = ["--config", config, "--out-dir", out]
assert main(["dump", "--problems", "P1", "--seeds", "1"] + common) == 0
assert main(["grid", "--problems", "P5", "--dim", "2"] + common) == 0
assert main(["score"] + common) == 0
pool = ["concurrent.futures", "concurrent.futures.process",
        "multiprocessing"]
print([name for name in pool if name in sys.modules])
"""


def test_serial_run_and_offline_verbs_never_load_the_pool(tmp_path):
    # in a fresh interpreter: pytest itself may load multiprocessing
    config = tmp_path / "bench.cfg"
    config.write_text("evals_per_dim = 20\nenvironments = 3\n")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", SERIAL_PROCESS, str(tmp_path / "out"),
         str(config)], env=env, capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


def test_dump_verb_tracks_active_counts(tmp_path, config_path, capsys):
    code = run_cli(["dump", "--problems", "P16", "--seeds", "1",
                    "--config", config_path, "--out-dir", tmp_path])
    assert code == 0
    path = tmp_path / "dump_P16_seed1.txt"
    assert str(path) in capsys.readouterr().out
    counts = [int(line.split()[1])
              for line in path.read_text().splitlines()
              if line.startswith("g ")]
    assert len(counts) == 4
    assert counts[0] == 8  # everything starts active
    assert all(2 <= g <= 8 for g in counts)


def test_grid_verb_samples_the_landscape(tmp_path, config_path):
    code = run_cli(["grid", "--problems", "P2", "--seeds", "1",
                    "--config", config_path, "--out-dir", tmp_path,
                    "--resolution", "101", "--dim", "2"])
    assert code == 0
    lines = (tmp_path / "grid_P2_seed1_env1.txt").read_text().splitlines()
    rows = [line for line in lines if line.startswith("row ")]
    assert len(rows) == 101
    values = [float(v) for line in rows for v in line.split()[2:]]
    assert len(values) == 101 * 101
    # the fixed diagonal optima sit exactly on the 0.1-step grid
    assert max(values) == pytest.approx(75.0, abs=1e-9)
    optima = [line for line in lines if line.startswith("optimum ")]
    assert len(optima) == 4


def test_grid_verb_tiny_resolution(tmp_path, config_path):
    code = run_cli(["grid", "--problems", "P5", "--seeds", "1",
                    "--config", config_path, "--out-dir", tmp_path,
                    "--resolution", "3", "--dim", "2"])
    assert code == 0
    lines = (tmp_path / "grid_P5_seed1_env1.txt").read_text().splitlines()
    values = [float(v) for line in lines if line.startswith("row ")
              for v in line.split()[2:]]
    assert len(values) == 9
    assert max(values) <= 1e-6


@pytest.mark.parametrize("dim", ["0", "1"])
def test_grid_verb_rejects_a_dimension_below_2(tmp_path, config_path, capsys,
                                               dim):
    code = run_cli(["grid", "--problems", "P1", "--seeds", "1",
                    "--config", config_path, "--out-dir", tmp_path,
                    "--dim", dim])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and "at least 2" in err
    assert "Traceback" not in err
    assert not (tmp_path / "grid_P1_seed1_env1.txt").exists()


def test_score_verb_reproduces_the_run_table(tmp_path, config_path, capsys):
    out = tmp_path / "runout"
    assert run_cli(["run", "--problems", "P2", "--seeds", "1-2",
                    "--config", config_path, "--out-dir", out,
                    "--save-snapshots"]) == 0
    run_table = (out / "results.txt").read_text()
    capsys.readouterr()
    assert run_cli(["score", "--config", config_path,
                    "--out-dir", out]) == 0
    assert capsys.readouterr().out == run_table


def test_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("evals_per_dim = -5\n")
    code = run_cli(["run", "--problems", "P1", "--seeds", "1",
                    "--config", bad, "--out-dir", tmp_path / "o"])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    code = run_cli(["run", "--problems", "P1", "--seeds", "1",
                    "--config", missing, "--out-dir", tmp_path / "o"])
    assert code == 2
    assert f"error: cannot read config {missing}" in capsys.readouterr().err


def test_unknown_config_key_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("surprise = 1\n")
    code = run_cli(["dump", "--problems", "P1", "--seeds", "1",
                    "--config", bad, "--out-dir", tmp_path / "o"])
    assert code == 2
    err = capsys.readouterr().err
    assert "surprise" in err


def test_unknown_problem_exits_2(tmp_path, capsys):
    code = run_cli(["run", "--problems", "P99", "--seeds", "1",
                    "--out-dir", tmp_path / "o"])
    assert code == 2
    assert "P99" in capsys.readouterr().err


def test_score_without_snapshots_exits_2(tmp_path, config_path, capsys):
    os.makedirs(tmp_path / "empty", exist_ok=True)
    code = run_cli(["score", "--config", config_path,
                    "--out-dir", tmp_path / "empty"])
    assert code == 2
    assert "snapshot" in capsys.readouterr().err.lower()


def test_score_rejects_an_environment_outside_the_run(tmp_path, config_path,
                                                      capsys):
    out = tmp_path / "snaps"
    os.makedirs(out)
    (out / "snapshots_P1_seed1.txt").write_text(
        "problem P1\nseed 1\nenvironments 4\nenv 0\n"
        "individual 0 0 0 0 0 fitness 0\n")
    code = run_cli(["score", "--config", config_path, "--out-dir", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "snapshots_P1_seed1.txt" in err and "env 0 outside 1..4" in err
    assert "Traceback" not in err


def test_score_rejects_a_malformed_line(tmp_path, config_path, capsys):
    out = tmp_path / "snaps"
    os.makedirs(out)
    (out / "snapshots_P1_seed1.txt").write_text(
        "problem P1\nseed 1\nenvironments 4\nenv 1\nenv\n")
    code = run_cli(["score", "--config", config_path, "--out-dir", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "snapshots_P1_seed1.txt" in err
    assert "line 5: malformed line 'env'" in err
    assert "Traceback" not in err


def test_score_refuses_two_files_for_one_run(tmp_path, config_path, capsys):
    out = tmp_path / "snaps"
    os.makedirs(out)
    text = "problem P2\nseed 1\nenvironments 4\n" + "".join(
        f"env {env}\n" for env in range(1, 5))
    (out / "snapshots_P2_seed1.txt").write_text(text)
    (out / "snapshots_P2_seed1_rerun.txt").write_text(text)
    code = run_cli(["score", "--config", config_path, "--out-dir", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "snapshots_P2_seed1.txt" in err
    assert "snapshots_P2_seed1_rerun.txt" in err
    assert "Traceback" not in err


def test_score_accuracy_overrides_the_scored_levels(tmp_path, config_path,
                                                    capsys):
    out = tmp_path / "runout"
    assert run_cli(["run", "--problems", "P2", "--seeds", "1",
                    "--config", config_path, "--out-dir", out,
                    "--save-snapshots"]) == 0
    capsys.readouterr()
    assert run_cli(["score", "--config", config_path, "--out-dir", out,
                    "--accuracy", "1e-3,1e-4"]) == 0
    header = capsys.readouterr().out.splitlines()[0].split()
    assert [h for h in header if h.startswith("pr_")] == [
        "pr_1e-03", "pr_1e-04"]


#: A key of the problem definition, which no config may set.
FIXED_KEY = "min_peak_distance = 0.1\n"

#: Arguments every verb must refuse before doing any work, with a word
#: the message must contain and, for some, lines added to the config.
BAD_ARGUMENTS = [
    (["run", "--problems", "P1", "--seeds", "1", "--jobs", "0"], "jobs"),
    (["run", "--problems", "P1", "--seeds", "1", "--accuracy", "0"],
     "accuracy"),
    (["run", "--problems", "P1", "--seeds", "1", "--accuracy", ""],
     "accuracy"),
    (["score", "--accuracy", "1e-3,x"], "accuracy"),
    (["run", "--problems", "P1", "--seeds", "1", "--accuracy", "1e-3,1e-3"],
     "repeats"),
    (["score", "--accuracy", "1e-3,1e-3"], "repeats"),
    (["dump", "--problems", "P1", "--seeds", "5-1"], "5-1"),
    (["dump", "--problems", "P0", "--seeds", "1"], "P0"),
    (["grid", "--problems", "P1", "--seeds", "1", "--env", "0"],
     "environment 0"),
    (["grid", "--problems", "P1", "--seeds", "1", "--resolution", "1"],
     "resolution"),
    (["grid", "--problems", "P1", "--seeds", "1", "--dim", "1"],
     "at least 2"),
    (["dump", "--problems", "P1", "--seeds", "1"], "min_peak_distance",
     FIXED_KEY),
    (["grid", "--problems", "P5", "--seeds", "1"], "min_peak_distance",
     FIXED_KEY),
    (["run", "--problems", "P1,P2", "--seeds", "1-2", "--optimizer", "nope"],
     "nope"),
]


@pytest.mark.parametrize("case", BAD_ARGUMENTS,
                         ids=[" ".join(case[0]) for case in BAD_ARGUMENTS])
def test_bad_arguments_exit_2(tmp_path, config_path, capsys, case):
    args, word, *config = case
    with open(config_path, "a", encoding="utf-8") as handle:
        handle.writelines(config)
    out = tmp_path / "out"
    code = run_cli(args + ["--config", config_path, "--out-dir", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and word in err
    assert "Traceback" not in err
    assert not out.exists()


UNUSABLE_OUT_DIRS = [
    (["score"], "missing"),
    (["score"], "file"),
    (["dump", "--problems", "P1", "--seeds", "1"], os.path.join("file", "x")),
    (["grid", "--problems", "P1", "--seeds", "1"], os.path.join("file", "x")),
]


def _unreachable(*args, **kwargs):
    raise AssertionError("a text was made before --out-dir was")


@pytest.mark.parametrize("case", UNUSABLE_OUT_DIRS,
                         ids=[f"{case[0][0]} --out-dir {case[1]}"
                              for case in UNUSABLE_OUT_DIRS])
def test_an_unusable_out_dir_exits_2(tmp_path, config_path, capsys,
                                     monkeypatch, case):
    args, target = case
    # refused before any dump or grid is made
    monkeypatch.setattr(reporting, "dump_environments_text", _unreachable)
    monkeypatch.setattr(cli, "export_landscape_grid", _unreachable)
    (tmp_path / "file").write_text("")
    out = tmp_path / target
    code = run_cli(args + ["--config", config_path, "--out-dir", out])
    assert code == 2
    err = capsys.readouterr().err
    assert "error:" in err and str(out) in err
    assert "Traceback" not in err
