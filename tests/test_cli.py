import contextlib
import csv
import io
import json
import os
import re
import shutil
import tempfile
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from svrb.cases import assemble_problem, uniform4_case
from svrb.cli import main, speedup_ratio
from svrb.config import ConfigError, ExperimentConfig
from svrb.reduced import ReducedModel
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


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def as_schema_1(rb_path):
    """Rewrite a stored reduced model as one written before the dofs were
    renumbered (its fingerprint carries schema 1)."""
    with np.load(rb_path) as data:
        arrays = dict(data)
    meta = json.loads(str(arrays["meta"]))
    meta["problem"]["schema"] = 1
    arrays["meta"] = json.dumps(meta)
    np.savez(rb_path, **arrays)


def _documented_configs():
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"```json\n(.*?)```", fh.read(), re.S)
    with open(os.path.join(ROOT, "perfbench", "spec.json")) as fh:
        workloads = json.load(fh)["workloads"]
    return [json.loads(b) for b in blocks] + [w["config"] for w in workloads.values()]


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

    @pytest.mark.parametrize("bad", [
        {"particles": "x"}, {"particles": 2.5}, {"particles": True},
        {"svgd_tol": "1e-3"}, {"seed": -1}, {"save_rb": 5},
        {"case": {"n": "a"}}, {"case": {"n": 2.5}}, {"case": {"obs_grid": 0}},
        {"case": {"noise_seed": -5}}, {"case": {"coercivity_floor": "x"}},
        {"case": {"theta_data": [1, 2]}}, {"case": "uniform4"}, [1, 2],
        {"alpha_init": -1}, {"max_backtracks": -3}, {"case": {"data_noise": "no"}},
        {"case": {"name": "custom", "module": "/nonexistent/case.py"}},
        {"schema_version": True},
    ], ids=lambda bad: json.dumps(bad))
    def test_malformed_value_exits_2(self, tmp_path, capsys, bad):
        path = tmp_path / "c.json"
        if isinstance(bad, dict):
            case = bad.get("case")
            if isinstance(case, dict):
                bad = dict(bad, case={"name": "uniform4", "n": 8, **case})
            write_config(path, **bad)
        else:
            path.write_text(json.dumps(bad))
        assert main(["run", "--config", str(path)]) == 2
        assert "configuration error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("raw", _documented_configs())
    def test_documented_configs_load(self, raw):
        cfg = ExperimentConfig.from_dict(raw)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg


# every value a fuzzed run can accept keeps it tiny: n <= 6, particles <= 3, max_steps <= 1
_FUZZ_CASE = st.fixed_dictionaries({}, optional={
    "name": st.sampled_from(["uniform4", "gaussian9", "custom", "bogus"]),
    "n": st.integers(-1, 6),
    "obs_grid": st.integers(0, 4),
    "noise_scale": st.sampled_from([-0.1, 0, 0.01, 1.0]),
    "noise_sigma": st.sampled_from([None, 0.0, 0.01, -1.0]),
    "noise_seed": st.integers(-2, 5),
    "data_noise": st.booleans(),
    "theta_ref": st.lists(st.floats(-1.5, 1.5), max_size=5),
    "theta_data": st.lists(st.floats(-1.5, 1.5), max_size=5),
    "coercivity_floor": st.sampled_from([-1.0, 0.0, 1e-8, 0.5]),
    "module": st.just("/nonexistent/case.py"),
})
_FUZZ_BACKEND = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(["hifi", "rb-fixed", "rb-adaptive", "magic"]),
    "tol": st.sampled_from([-1.0, 0.0, 1e-3, 1.0]),
    "eps0": st.sampled_from([-1.0, 0.0, 0.01, 1.0]),
    "update_every": st.sampled_from([None, 0, 1, 2]),
    "rule": st.sampled_from(["normalized", "absolute", "bogus"]),
    "eps_min": st.sampled_from([-1.0, 0.0, 1e-12]),
    "max_basis": st.integers(0, 50),
})
_FUZZ_CONFIG = st.fixed_dictionaries({}, optional={
    "case": _FUZZ_CASE,
    "backend": _FUZZ_BACKEND,
    "particles": st.integers(-1, 3),
    "max_steps": st.integers(-1, 1),
    "svgd_tol": st.sampled_from([-1.0, 0.0, 1e-3, 10.0]),
    "alpha_init": st.sampled_from([-1.0, 0.0, 0.5, 64.0]),
    "max_backtracks": st.integers(-3, 3),
    "seed": st.integers(-1, 3),
    "dump_matrices": st.booleans(),
    "load_rb": st.just("/nonexistent/rb.npz"),
})
# at most one key, at any level, replaced by a value of the wrong kind
_FUZZ_JUNK = st.one_of(st.none(), st.tuples(
    st.sampled_from(["", "case", "backend", "schema_version", "bogus", "output_dir",
                     "particles", "svgd_tol", "case.n", "case.data_noise", "case.theta_ref",
                     "case.bogus", "backend.kind", "backend.update_every", "backend.bogus"]),
    st.sampled_from(["x", True, None, 2.5, -1, [1, 2], {}])))


@settings(max_examples=50, deadline=None)
@given(_FUZZ_CONFIG, _FUZZ_JUNK)
def test_random_configs_exit_0_2_or_3(fuzz, junk):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = dict(fuzz, case={"name": "uniform4", "n": 4, **fuzz.get("case", {})},
                   particles=fuzz.get("particles", 2), max_steps=fuzz.get("max_steps", 1),
                   output_dir=os.path.join(tmp, "out"))
        if junk is not None:
            where, value = junk
            *parent, key = where.split(".")
            if not key:
                cfg = value
            else:
                (cfg.setdefault(parent[0], {}) if parent else cfg)[key] = value
        path = os.path.join(tmp, "c.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh)
        # a junk relative output_dir ("x") is written inside the temporary directory
        with contextlib.chdir(tmp), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(["run", "--config", path]) in (0, 2, 3)


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

    @pytest.mark.parametrize("backend", [{"kind": "hifi"},
                                         {"kind": "rb-adaptive", "eps0": 0.1, "update_every": 2}],
                             ids=lambda b: b["kind"])
    def test_runlog_meta(self, tmp_path, backend):
        cfg = write_config(tmp_path / "c.json", backend=backend)
        assert main(["run", "--config", str(cfg)]) == 0
        with open(tmp_path / "out" / "runlog.jsonl") as fh:
            meta = json.loads(fh.readline())["meta"]
        keys = {"backend", "seed", "config", "dofs", "dofs_raw", "sigma", "noise_seed",
                "evaluations"}
        if backend["kind"] == "rb-adaptive":
            keys |= {"rb_offline_seconds", "timers"}  # timers: the pre-loop seconds
        assert set(meta) == keys
        assert meta["config"] == ExperimentConfig.from_json(cfg).to_dict()
        assert meta["backend"] == backend["kind"]

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
        free = np.loadtxt(mdir / "free_dofs.txt", dtype=int)
        assert np.array_equal(free, assemble_problem(uniform4_case(8)).free_dofs)

    def test_dump_matrices_flag(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", max_steps=0)
        assert "dump_matrices" not in json.loads(cfg.read_text())
        assert main(["run", "--config", str(cfg), "--dump-matrices"]) == 0
        assert (tmp_path / "out" / "matrices" / "A_0.mtx").is_file()

    def test_numerical_abort_exit_code(self, tmp_path):
        p = assemble_problem(uniform4_case(8))
        bad_seed = next(seed for seed in range(40)
                        if not p.coercive_rows(draw_prior(p.prior, 64, seed)).all())
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


    def test_load_rb_of_schema_1_exits_2(self, tmp_path, capsys):
        rb_path = str(tmp_path / "rb8.npz")
        cfg = write_config(tmp_path / "c.json", particles=4, max_steps=0,
                           backend={"kind": "rb-fixed", "tol": 1e-3}, save_rb=rb_path)
        assert main(["run", "--config", str(cfg)]) == 0
        as_schema_1(rb_path)
        cfg2 = write_config(tmp_path / "c2.json", max_steps=1, backend={"kind": "rb-fixed"},
                            load_rb=rb_path, output_dir=str(tmp_path / "out2"))
        assert main(["run", "--config", str(cfg2)]) == 2
        assert "built for another problem" in capsys.readouterr().err

    def test_load_rb_with_a_truncated_block_exits_2(self, tmp_path, capsys):
        rb_path = str(tmp_path / "rb8.npz")
        cfg = write_config(tmp_path / "c.json", particles=4, max_steps=0,
                           backend={"kind": "rb-fixed", "tol": 1e-3}, save_rb=rb_path)
        assert main(["run", "--config", str(cfg)]) == 0
        with np.load(rb_path) as data:
            arrays = dict(data)
        arrays["Au"] = arrays["Au"][:, :-1, :-1]  # beside bases of one more column
        np.savez(rb_path, **arrays)
        cfg2 = write_config(tmp_path / "c2.json", max_steps=1, backend={"kind": "rb-fixed"},
                            load_rb=rb_path, output_dir=str(tmp_path / "out2"))
        assert main(["run", "--config", str(cfg2)]) == 2
        err = capsys.readouterr().err
        assert "cannot read reduced model" in err and "Au has shape" in err

    def test_load_rb_without_a_snapshot_exits_2(self, tmp_path, capsys):
        rb_path = str(tmp_path / "empty.npz")
        ReducedModel.empty(assemble_problem(uniform4_case(8))).save(rb_path)
        cfg = write_config(tmp_path / "c.json", max_steps=1, backend={"kind": "rb-fixed"},
                           load_rb=rb_path)
        assert main(["run", "--config", str(cfg)]) == 2
        assert f"reduced model {rb_path} holds no snapshot" in capsys.readouterr().err

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


class TestBadInputExits2:
    @pytest.mark.parametrize("filename, source, message", [
        ("case.py", "def build_case(:\n", "SyntaxError"),
        ("case.py", "import svrb_no_such_module\n", "ModuleNotFoundError"),
        ("case.py", "def build_case():\n    return 3\n", "returned 3, not a CaseConfig"),
        (None, None, "custom case requires a 'module' path"),
        ("case.txt", "def build_case():\n    pass\n", "cannot import custom case module"),
        ("case.py", "CASE = None\n", "has no build_case()"),
    ], ids=["syntax-error", "failing-import", "not-a-case", "no-module", "not-a-module-path",
            "no-build-case"])
    def test_bad_custom_case_module(self, tmp_path, capsys, filename, source, message):
        case = {"name": "custom"}
        if filename is not None:  # a case.txt is no file Python can import as a module
            module = tmp_path / filename
            module.write_text(source)
            case["module"] = str(module)
        cfg = write_config(tmp_path / "c.json", case=case)
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("source", [
        "import dataclasses\nfrom svrb.cases import uniform4_case\n\n\ndef build_case():\n"
        "    return dataclasses.replace(uniform4_case(6), prior=None)\n",
        "from svrb.cases import custom_case\n\n\ndef build_case():\n"
        "    return custom_case(6, diffusion=[1.0], load=[1.0], prior=None, dim=1)\n",
    ], ids=["case-config", "custom-case"])
    def test_custom_case_without_a_prior(self, tmp_path, capsys, source):
        module = tmp_path / "case.py"
        module.write_text(source)
        cfg = write_config(tmp_path / "c.json", case={"name": "custom", "module": str(module)})
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and str(module) in err and "prior" in err
        assert not (tmp_path / "out").exists()

    def test_error_inside_build_case_surfaces(self, tmp_path):
        module = tmp_path / "case.py"
        module.write_text("def build_case():\n    raise ZeroDivisionError('in the case')\n")
        cfg = write_config(tmp_path / "c.json", case={"name": "custom", "module": str(module)})
        with pytest.raises(ZeroDivisionError, match="in the case"):
            main(["run", "--config", str(cfg)])

    @pytest.mark.parametrize("name", ["uniform4", "gaussian9"])
    def test_module_key_on_a_built_in_case(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path / "c.json",
                           case={"name": name, "n": 8, "module": "/nonexistent.py"})
        with pytest.raises(ConfigError, match="'module'"):
            ExperimentConfig.from_json(cfg).build_case()
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and "'module'" in err
        assert not (tmp_path / "out").exists()

    def test_output_dir_that_cannot_be_created(self, tmp_path, capsys):
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"
        cfg = write_config(tmp_path / "c.json", output_dir=str(out))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "cannot create output directory" in capsys.readouterr().err


CUSTOM_MODULE = """from svrb.cases import UniformBox, custom_case


def build_case():
    return custom_case(6, diffusion=[1.0], load=[1.0], prior=UniformBox([-1.0], [1.0]), dim=1)
"""


class TestCustomCaseSettings:
    """The ``case`` keys beside ``name`` and ``module`` override the custom
    module's settings, as they do for a built-in case."""

    def test_settings_apply(self, tmp_path):
        module = tmp_path / "case.py"
        module.write_text(CUSTOM_MODULE)
        plain = ExperimentConfig.from_dict({"case": {"name": "custom", "module": str(module)}})
        assert (plain.build_case().n, plain.build_case().obs_grid) == (6, 7)
        cfg = write_config(tmp_path / "c.json", max_steps=1, case={
            "name": "custom", "module": str(module), "n": 9, "noise_scale": 0.5, "obs_grid": 3})
        case = ExperimentConfig.from_json(cfg).build_case()
        assert (case.n, case.noise_scale, case.obs_grid) == (9, 0.5, 3)
        assert main(["run", "--config", str(cfg)]) == 0
        with open(tmp_path / "out" / "runlog.jsonl") as fh:
            meta = json.loads(fh.readline())["meta"]
        assert meta["dofs_raw"] == 10 * 10

    def test_setting_the_case_cannot_take_exits_2(self, tmp_path, capsys):
        module = tmp_path / "case.py"
        module.write_text(CUSTOM_MODULE)
        cfg = write_config(tmp_path / "c.json", case={
            "name": "custom", "module": str(module), "theta_ref": [1.0, 2.0]})
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err and "theta_ref" in err
        assert not (tmp_path / "out").exists()


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


class TestEvaluationCounts:
    def test_records_history_and_meta_agree(self, tmp_path):
        cfg = write_config(tmp_path / "c.json", max_steps=3)
        assert main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        with open(out / "runlog.jsonl") as fh:
            lines = [json.loads(line) for line in fh]
        per_iteration = [rec["evaluations"] for rec in lines[1:]]
        # a hifi iteration factorizes at every particle, then for the line search
        assert all(n >= 2 * 4 for n in per_iteration)
        assert lines[0]["meta"]["evaluations"] == sum(per_iteration)
        with open(out / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["evaluations"]) for r in rows] == per_iteration
        backtracks = [rec["backtracks"] for rec in lines[1:]]
        assert all(isinstance(k, int) and k >= 0 for k in backtracks)
        assert [int(r["backtracks"]) for r in rows] == backtracks

    def test_analyze_reads_a_log_without_counts(self, tmp_path):
        cfg = write_config(tmp_path / "c.json")
        assert main(["run", "--config", str(cfg)]) == 0
        out = tmp_path / "out"
        with open(out / "runlog.jsonl") as fh:
            lines = [json.loads(line) for line in fh]
        del lines[0]["meta"]["evaluations"]
        for rec in lines[1:]:
            del rec["evaluations"], rec["backtracks"]
        (out / "runlog.jsonl").write_text("".join(json.dumps(x) + "\n" for x in lines))
        assert main(["analyze", str(out)]) == 0
        with open(out / "history.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert all(r["evaluations"] == r["backtracks"] == "" for r in rows)


@pytest.fixture(scope="module")
def hifi_run_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("hifi_run")
    assert main(["run", "--config", str(write_config(tmp / "c.json"))]) == 0
    return tmp / "out"


def _unknown_key(text):
    meta, first, *rest = text.splitlines()
    return "\n".join([meta, json.dumps(dict(json.loads(first), bogus=1)), *rest]) + "\n"


def _drop_theta(text):
    rows = list(csv.DictReader(io.StringIO(text)))
    keep = [k for k in rows[0] if not k.startswith("theta_")]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=keep, extrasaction="ignore")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


class TestAnalyze:
    def test_missing_run_dir(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize("name, damage", [
        ("runlog.jsonl", None),
        ("runlog.jsonl", lambda text: text[:len(text) // 2]),
        ("runlog.jsonl", lambda text: ""),
        ("runlog.jsonl", _unknown_key),
        ("particles.csv", None),
        ("particles.csv", lambda text: ""),
        ("particles.csv", _drop_theta),
    ], ids=["runlog-missing", "runlog-truncated", "runlog-empty", "runlog-unknown-key",
            "particles-missing", "particles-empty", "particles-no-theta"])
    def test_damaged_run_dir_exits_2(self, hifi_run_dir, tmp_path, capsys, name, damage):
        out = tmp_path / "out"
        shutil.copytree(hifi_run_dir, out)
        if damage is None:
            (out / name).unlink()
        else:
            (out / name).write_text(damage((out / name).read_text()))
        assert main(["analyze", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error: cannot read" in err and name in err

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
        with open(out / "phases.csv") as fh:
            phases = {r["phase"]: (float(r["seconds"]), float(r["share"]))
                      for r in csv.DictReader(fh)}
        from svrb.adaptive import SWEEP_PARTS
        from svrb.svgd import PHASES

        loop = ["initialize", "initial_sweep", *PHASES]
        assert list(phases) == loop + ["total"] + [f"sweep_{part}" for part in SWEEP_PARTS]
        assert phases["total"][0] == pytest.approx(sum(phases[p][0] for p in loop))
        assert phases["total"][1] == 1.0
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

    def test_schema_1_rb_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", particles=4, max_steps=0,
                           backend={"kind": "rb-fixed", "tol": 1e-3})
        assert main(["run", "--config", str(cfg)]) == 0
        as_schema_1(tmp_path / "out" / "rb.npz")
        assert main(["analyze", str(tmp_path / "out")]) == 2
        assert "built for another problem" in capsys.readouterr().err

    def test_unreadable_rb_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.json", particles=4, max_steps=0,
                           backend={"kind": "rb-fixed", "tol": 1e-3})
        assert main(["run", "--config", str(cfg)]) == 0
        (tmp_path / "out" / "rb.npz").write_bytes(b"PK\x03\x04 truncated")
        assert main(["analyze", str(tmp_path / "out")]) == 2
        assert "cannot read reduced model" in capsys.readouterr().err

    @pytest.mark.parametrize("cut, message", [
        (lambda prov: prov[:0], "holds no snapshot"),
        (lambda prov: prov[:, :3], "provenance has shape")],  # uniform4 parameters have 4
        ids=["no-snapshot", "provenance-dim"])
    def test_rb_with_a_provenance_that_does_not_fit_is_a_config_error(self, tmp_path, capsys,
                                                                       cut, message):
        cfg = write_config(tmp_path / "c.json", particles=4, max_steps=0,
                           backend={"kind": "rb-fixed", "tol": 1e-3})
        assert main(["run", "--config", str(cfg)]) == 0
        rb_path = tmp_path / "out" / "rb.npz"
        with np.load(rb_path) as data:
            arrays = dict(data)
        arrays["provenance"] = cut(arrays["provenance"])
        np.savez(rb_path, **arrays)
        assert main(["analyze", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"reduced model {rb_path}" in err and message in err

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

    def test_bench_command_runs(self, tmp_path, capsys):
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
        hifi_solves, rb_solves = (int(r["hifi_solves"]) for r in rows)
        # a hifi iteration factorizes at every particle, then for the line search
        assert hifi_solves >= 2 * 4
        assert 1 <= int(rows[1]["n_rb"]) <= rb_solves  # one snapshot each, some may deflate
        assert float(rows[0]["solve_ratio"]) == 1.0
        assert float(rows[1]["solve_ratio"]) == hifi_solves / rb_solves
        header = capsys.readouterr().out.splitlines()[0].split()
        assert header == list(rows[0])  # the printed table has the csv's columns

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
