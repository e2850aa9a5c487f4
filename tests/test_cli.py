import csv
import json
import os
import time

import numpy as np
import pytest

from svrb.cases import assemble_problem, uniform4_case
from svrb.cli import main, speedup_ratio
from svrb.config import ConfigError, ExperimentConfig
from svrb.fem import CoercivityLost
from svrb.svgd import draw_prior


def write_config(path, **overrides):
    cfg = {
        "schema_version": 1,
        "case": {"name": "uniform4", "n": 8},
        "particles": 4,
        "max_steps": 2,
        "svgd_tol": 1e-9,
        "seed": 1,
        "backend": {"kind": "hifi"},
        "output_dir": str(path.parent / "out"),
    }
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh)
    return path


class TestConfig:
    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"particless": 3})

    def test_unknown_case_key(self):
        for case in ({"name": "uniform4", "nn": 8}, {"solver": "cg"}):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict({"case": case})

    def test_unknown_backend_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"backend": {"kind": "hifi", "bogus": 1}})

    def test_unknown_backend_kind(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"backend": {"kind": "magic"}})

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json("/nonexistent/config.json")

    def test_schema_version_checked(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"schema_version": 99})

    def test_roundtrip(self):
        cfg = ExperimentConfig.from_dict({
            "case": {"name": "gaussian9", "n": 9},
            "backend": {"kind": "rb-adaptive", "eps0": 0.5, "update_every": 3},
        })
        again = ExperimentConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()


class TestRun:
    def test_hifi_run_writes_artifacts(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        for name in ("runlog.jsonl", "particles.csv", "history.csv", "config.json"):
            assert (out / name).is_file()
        with open(out / "runlog.jsonl") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 1 + 2  # meta + one record per iteration
        stamps = [json.loads(line)["timestamp"] for line in lines[1:]]
        assert stamps == sorted(stamps)

    def test_zero_steps_emits_prior_only(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", max_steps=0)
        assert main(["run", "--config", str(cfg)]) == 0
        with open(tmp_path / "out" / "particles.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["l"] for r in rows} == {"0"}
        p = assemble_problem(uniform4_case(8))
        prior = draw_prior(p.prior, 4, 1)
        got = np.array([[float(r[f"theta_{j+1}"]) for j in range(4)] for r in rows])
        assert np.array_equal(got, prior)

    def test_adaptive_run_certifies(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            case={"name": "gaussian9", "n": 9},
            particles=8,
            max_steps=4,
            backend={"kind": "rb-adaptive", "eps0": 0.01, "update_every": 2},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        with open(tmp_path / "out" / "runlog.jsonl") as fh:
            records = [json.loads(line) for line in fh.read().splitlines()[1:]]
        updates = [r for r in records if r["certified_max_indicator"] is not None]
        assert updates
        for r in updates:
            if not r["flags"]:
                assert r["certified_max_indicator"] <= r["eps_r"] * (1 + 1e-12)
        assert (tmp_path / "out" / "rb.npz").is_file()

    def test_flag_overrides(self, tmp_path):
        out = tmp_path / "flagout"
        code = main([
            "run", "--case", "uniform4", "--mesh", "8", "--particles", "3",
            "--max-steps", "1", "--seed", "2", "--backend", "hifi",
            "--output-dir", str(out),
        ])
        assert code == 0
        with open(out / "config.json") as fh:
            stored = json.load(fh)
        assert stored["particles"] == 3
        assert stored["seed"] == 2

    @pytest.mark.parametrize("flags", [
        ["--particles", "0"],
        ["--svgd-tol", "-1"],
        ["--eps0", "-1"],
        ["--K", "0"],
        ["--mesh", "0"],
        ["--tol", "-1"],
    ], ids=["particles", "svgd-tol", "eps0", "K", "mesh", "tol"])
    def test_bad_flag_values_are_config_errors(self, tmp_path, capsys, flags):
        cfg = write_config(tmp_path / "c.json",
                           backend={"kind": "rb-adaptive", "eps0": 0.1, "update_every": 2})
        assert main(["run", "--config", str(cfg)] + flags) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_dump_matrices(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", max_steps=0, dump_matrices=True)
        assert main(["run", "--config", str(cfg)]) == 0
        mdir = tmp_path / "out" / "matrices"
        assert (mdir / "A_0.mtx").is_file()
        assert (mdir / "gram.mtx").is_file()
        assert (mdir / "obs.mtx").is_file()

    def test_numerical_abort_exit_code(self, tmp_path):
        p = assemble_problem(uniform4_case(8))
        bad_seed = None
        for seed in range(40):
            try:
                for theta in draw_prior(p.prior, 64, seed):
                    p.check_coercive(theta)
            except CoercivityLost:
                bad_seed = seed
                break
        assert bad_seed is not None
        cfg = write_config(tmp_path / "c.json", particles=64, seed=bad_seed)
        assert main(["run", "--config", str(cfg)]) == 3

    def test_plain_bug_is_not_a_numerical_abort(self, tmp_path, monkeypatch, capsys):
        import svrb.cli

        def broken(*args, **kwargs):
            raise RuntimeError("a programming error")

        monkeypatch.setattr(svrb.cli, "svgd_run", broken)
        cfg = write_config(tmp_path / "c.json")
        with pytest.raises(RuntimeError, match="a programming error"):
            main(["run", "--config", str(cfg)])
        assert "numerical abort" not in capsys.readouterr().err

    def test_save_and_load_rb(self, tmp_path):
        rb_path = str(tmp_path / "saved_rb.npz")
        cfg = write_config(
            tmp_path / "c.json",
            particles=6,
            max_steps=2,
            backend={"kind": "rb-adaptive", "eps0": 0.1, "update_every": 2},
            save_rb=rb_path,
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert os.path.isfile(rb_path)
        cfg2 = write_config(
            tmp_path / "c2.json",
            particles=6,
            max_steps=1,
            backend={"kind": "rb-fixed"},
            load_rb=rb_path,
            output_dir=str(tmp_path / "out2"),
        )
        assert main(["run", "--config", str(cfg2)]) == 0

    @pytest.mark.parametrize("case", [{"name": "uniform4", "n": 32},
                                      {"name": "gaussian9", "n": 9}],
                             ids=["finer-mesh", "other-case"])
    def test_load_rb_built_for_another_problem(self, tmp_path, capsys, case):
        rb_path = str(tmp_path / "rb8.npz")
        cfg = write_config(tmp_path / "c.json", particles=4, max_steps=0,
                           backend={"kind": "rb-fixed", "tol": 1e-3}, save_rb=rb_path)
        assert main(["run", "--config", str(cfg)]) == 0
        cfg2 = write_config(tmp_path / "c2.json", case=case, max_steps=1,
                            backend={"kind": "rb-fixed"}, load_rb=rb_path,
                            output_dir=str(tmp_path / "out2"))
        assert main(["run", "--config", str(cfg2)]) == 2
        assert "built for another problem" in capsys.readouterr().err


    @pytest.mark.parametrize("content", [None, b"not an npz archive\n"],
                             ids=["missing", "not-npz"])
    def test_load_rb_unreadable(self, tmp_path, capsys, content):
        rb_path = tmp_path / "rb.npz"
        if content is not None:
            rb_path.write_bytes(content)
        cfg = write_config(tmp_path / "c.json", max_steps=1, backend={"kind": "rb-fixed"},
                           load_rb=str(rb_path))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "cannot read reduced model" in capsys.readouterr().err


class TestDeterminism:
    def test_particle_csv_bytes_identical(self, tmp_path):
        paths = []
        for tag in ("a", "b"):
            cfg = write_config(
                tmp_path / f"{tag}.json",
                case={"name": "gaussian9", "n": 9},
                particles=6,
                max_steps=3,
                backend={"kind": "rb-adaptive", "eps0": 0.1, "update_every": 2},
                output_dir=str(tmp_path / tag),
            )
            assert main(["run", "--config", str(cfg)]) == 0
            paths.append(tmp_path / tag / "particles.csv")
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestAnalyze:
    def test_missing_run_dir(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope")]) == 2

    def test_analyze_outputs(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            particles=6,
            max_steps=2,
            backend={"kind": "rb-adaptive", "eps0": 0.1, "update_every": 2},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        written = (out / "history.csv").read_bytes()
        (out / "history.csv").unlink()
        assert main(["analyze", str(out)]) == 0
        assert (out / "history.csv").read_bytes() == written  # rebuilt from runlog.jsonl
        assert (out / "scatter.csv").is_file()
        with open(out / "decay.csv") as fh:
            rows = list(csv.DictReader(fh))
        from svrb.reduced import ReducedModel

        rm = ReducedModel.load(out / "rb.npz")
        assert len(rows) == len(rm.provenance)

    def test_rb_of_another_problem_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", particles=4, max_steps=0,
                           backend={"kind": "rb-fixed", "tol": 1e-3})
        assert main(["run", "--config", str(cfg)]) == 0
        other = write_config(tmp_path / "o.json", particles=4, max_steps=0,
                             case={"name": "uniform4", "n": 8, "noise_seed": 99},
                             backend={"kind": "rb-fixed", "tol": 1e-3},
                             output_dir=str(tmp_path / "other"))
        assert main(["run", "--config", str(other)]) == 0
        os.replace(tmp_path / "other" / "rb.npz", tmp_path / "out" / "rb.npz")
        assert main(["analyze", str(tmp_path / "out")]) == 2
        assert "built for another problem" in capsys.readouterr().err

    def test_unreadable_rb_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", particles=4, max_steps=0,
                           backend={"kind": "rb-fixed", "tol": 1e-3})
        assert main(["run", "--config", str(cfg)]) == 0
        (tmp_path / "out" / "rb.npz").write_bytes(b"PK\x03\x04 truncated")
        assert main(["analyze", str(tmp_path / "out")]) == 2
        assert "cannot read reduced model" in capsys.readouterr().err

    def test_snapshot_only_model_gives_zero_error_rows(self, tmp_path):
        # zero sampler steps, tiny tolerance: the initial sweep turns every
        # prior particle into a snapshot, so final-stage errors vanish
        cfg = write_config(
            tmp_path / "c.json",
            particles=4,
            max_steps=0,
            backend={"kind": "rb-adaptive", "eps0": 1e-9, "update_every": 2},
        )
        assert main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        assert main(["analyze", str(out)]) == 0
        with open(out / "decay.csv") as fh:
            rows = list(csv.DictReader(fh))
        final = rows[-1]
        assert float(final["mean_abs_e_eta"]) < 1e-8
        assert float(final["mean_abs_e_delta"]) < 1e-8


class TestBench:
    def test_ratio_formula(self):
        assert speedup_ratio(1800.0, 4.4, 4.4) == pytest.approx(1800.0 / 8.8)
        assert abs(speedup_ratio(1800.0, 4.4, 4.4) - 203) / 203 < 0.02

    def test_self_speedup_is_one(self):
        t = 7.3
        assert speedup_ratio(t, 0.0, t) == 1.0

    def test_bench_command_runs(self, tmp_path):
        cfg = write_config(
            tmp_path / "c.json",
            particles=4,
            max_steps=1,
            backend={"kind": "rb-adaptive", "eps0": 1.0, "update_every": 5},
        )
        assert main(["bench", "--config", str(cfg)]) == 0
        with open(tmp_path / "out" / "bench.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["pipeline"] for r in rows] == ["hifi", "rb-adaptive"]
        assert float(rows[0]["speedup"]) == 1.0

    def test_run_and_bench_map_the_config_alike(self, tmp_path, monkeypatch):
        import svrb.adaptive

        class Captured(Exception):
            pass

        seen = []

        def capture(problem, svgd_config, adaptive_config, **kwargs):
            seen.append((svgd_config, adaptive_config))
            raise Captured

        monkeypatch.setattr(svrb.adaptive, "run_svrb", capture)
        cfg = write_config(
            tmp_path / "c.json",
            particles=4,
            max_steps=1,
            backend={"kind": "rb-adaptive", "eps0": 0.5, "eps_min": 1e-3, "max_basis": 7},
        )
        for command in ("run", "bench"):
            with pytest.raises(Captured):
                main([command, "--config", str(cfg)])
        (scfg_run, acfg_run), (scfg_bench, acfg_bench) = seen
        assert (acfg_run.eps_min, acfg_run.max_basis) == (1e-3, 7)
        assert acfg_bench == acfg_run
        assert scfg_bench == scfg_run


class TestVerify:
    def test_quick_suite_passes_within_budget(self, capsys):
        start = time.perf_counter()
        code = main(["verify", "--quick"])
        elapsed = time.perf_counter() - start
        captured = capsys.readouterr()
        assert code == 0, captured.out
        assert "PASS" in captured.out
        assert "FAIL" not in captured.out
        assert elapsed < 60.0
