"""CLI contract: subcommands, config file, exit codes, byte-identical output."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gibbscert.cli import ConfigError, _read_config_file, main
from gibbscert.verify import McReport

ARGS_N4 = ["--x", "2", "--b", "3", "--a", "1,2,3,4,5"]
ARGS_N3 = ["--x", "1", "--b", "2", "--a", "1,2,3,4"]
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("GIBBSCERT_SEED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "gibbscert.cli", *args],
        capture_output=True, text=True, env=env,
    )


class TestModes:
    def test_constants_csv(self):
        res = run_cli(["constants", *ARGS_N4])
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "constant,value"
        values = dict(line.split(",") for line in lines[1:])
        assert values["beta"] == repr(7 / 9)
        assert values["eta"] == repr(10.028846153846153)

    def test_constants_text_format(self):
        res = run_cli(["constants", *ARGS_N3, "--format", "text"])
        assert res.returncode == 0
        assert "beta" in res.stdout and "," not in res.stdout.splitlines()[0]

    def test_bound_curve_nonincreasing(self):
        res = run_cli(["bound", *ARGS_N4, "--t-grid", "0,5,10,50,100,500"])
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "t,wall_clock_t,bound,clamped_bound"
        bounds = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(b <= a for a, b in zip(bounds, bounds[1:]))
        clamped = [float(line.split(",")[3]) for line in lines[1:]]
        assert all(c <= 1.0 for c in clamped)

    def test_min_t(self):
        res = run_cli(["min-t", *ARGS_N4, "--theorem", "equilibrium_start",
                       "--e-r0-minus-1", "31065", "--e-j0", "59", "--epsilon", "1e-5"])
        assert res.returncode == 0
        row = res.stdout.strip().splitlines()[1].split(",")
        assert row[0] == "equilibrium_start"
        assert row[2] == "1083527"

    def test_simulate_with_trajectory_dump(self, tmp_path):
        dump = tmp_path / "traj.csv"
        res = run_cli(["simulate", *ARGS_N4, "--replicas", "200", "--horizon", "20",
                       "--seed", "5", "--dump-trajectory", str(dump),
                       "--output", str(tmp_path / "sim.csv")])
        assert res.returncode == 0
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "t,u2,u4,w2,w4,v2,v4,R,Q,K1,K2,J,D"
        assert len(lines) == 22

    def test_estimate_pi(self):
        res = run_cli(["estimate-pi", *ARGS_N4, "--burn-in", "500",
                       "--n-samples", "5000", "--thinning", "2", "--seed", "4"])
        assert res.returncode == 0
        lines = res.stdout.strip().splitlines()
        assert lines[0] == "functional,estimate,se,ci99_lo,ci99_hi"
        c_pi = float(lines[1].split(",")[1])
        c_j = float(lines[2].split(",")[1])
        assert c_pi >= 1.0 and c_j >= 2.0

    def test_all_modes_run_on_both_examples(self, tmp_path):
        # the six modes work for the n=4 and the n=3 example parameter sets
        for model in (ARGS_N4, ARGS_N3):
            common = [*model, "--seed", "3"]
            assert run_cli(["constants", *common]).returncode == 0
            assert run_cli(["bound", *common, "--t-grid", "0,10"]).returncode == 0
            assert run_cli(["min-t", *common, "--epsilon", "1e-3"]).returncode == 0
            dump = tmp_path / f"traj_{len(model)}.csv"
            assert run_cli(["simulate", *common, "--replicas", "300", "--horizon", "15",
                            "--dump-trajectory", str(dump)]).returncode == 0
            header = dump.read_text().splitlines()[0]
            expected = "t,u2,u4,w2,w4,v2,v4,R,Q,K1,K2,J,D" if model is ARGS_N4 else "t,u,w,R,K1,K2,J"
            assert header == expected
            assert run_cli(["estimate-pi", *common, "--burn-in", "200",
                            "--n-samples", "2000", "--thinning", "2"]).returncode == 0
            assert run_cli(["verify", *common, "--quick", "--replicas", "300",
                            "--horizon", "20", "--t-grid", "2,5"]).returncode == 0

    def test_verify_quick_passes(self):
        res = run_cli(["verify", *ARGS_N4, "--quick", "--replicas", "500",
                       "--horizon", "30", "--t-grid", "2,5", "--seed", "6"])
        assert res.returncode == 0, res.stdout + res.stderr
        header = res.stdout.splitlines()[0]
        assert header == "check,estimate,ci_halfwidth,target,passed,n,note"

    def test_verify_csv_byte_identical_reruns(self, tmp_path):
        args = ["verify", *ARGS_N4, "--quick", "--replicas", "400", "--horizon", "25",
                "--t-grid", "2,5", "--seed", "8"]
        a, b = tmp_path / "v1.csv", tmp_path / "v2.csv"
        assert run_cli([*args, "--workers", "1", "--output", str(a)]).returncode == 0
        assert run_cli([*args, "--workers", "2", "--output", str(b)]).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_n3_quick(self):
        res = run_cli(["verify", *ARGS_N3, "--quick", "--replicas", "500",
                       "--t-grid", "2,5", "--seed", "6"])
        assert res.returncode == 0, res.stdout + res.stderr


class TestConfigHandling:
    def test_config_file_roundtrip(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n=4\nx=2.0\nb=3.0\na=1,2,3,4,5\nseed=42\nreplicas=100000\nhorizon=1000\n")
        res = run_cli(["constants", "--config", str(cfgfile)])
        assert res.returncode == 0

    def test_flags_override_file(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("x=2.0\nb=3.0\na=1,2,3,4,5\n")
        res_file = run_cli(["constants", "--config", str(cfgfile)])
        res_flag = run_cli(["constants", "--config", str(cfgfile), "--x", "5.0"])
        assert res_file.stdout != res_flag.stdout
        direct = run_cli(["constants", "--x", "5", "--b", "3", "--a", "1,2,3,4,5"])
        assert res_flag.stdout == direct.stdout

    def test_unknown_key_exit_2(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("x=2.0\nbogus_key=7\n")
        res = run_cli(["constants", "--config", str(cfgfile)])
        assert res.returncode == 2
        assert "bogus_key" in res.stderr

    def test_invalid_model_exit_2_names_condition(self):
        res = run_cli(["constants", "--x", "2", "--b", "3", "--a", "0.2,0.2,0.2,0.2,0.2"])
        assert res.returncode == 2
        assert "a1+a4 <= 1" in res.stderr

    def test_unknown_theorem_in_config_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("x=2.0\nb=3.0\na=1,2,3,4,5\ntheorem=bogus\n")
        assert main(["bound", "--config", str(cfgfile)]) == 2
        assert "unknown theorem 'bogus'" in capsys.readouterr().err

    def test_env_seed_override(self):
        base = run_cli(["estimate-pi", *ARGS_N4, "--burn-in", "100", "--n-samples", "2000",
                        "--thinning", "2", "--seed", "4"])
        override = run_cli(["estimate-pi", *ARGS_N4, "--burn-in", "100", "--n-samples", "2000",
                            "--thinning", "2", "--seed", "4"], env_extra={"GIBBSCERT_SEED": "9"})
        explicit = run_cli(["estimate-pi", *ARGS_N4, "--burn-in", "100", "--n-samples", "2000",
                            "--thinning", "2", "--seed", "9"])
        assert base.stdout != override.stdout
        assert override.stdout == explicit.stdout

    def test_missing_params_exit_2(self):
        res = run_cli(["constants", "--x", "2", "--b", "3"])
        assert res.returncode == 2
        assert "a" in res.stderr

    def test_io_error_exit_3(self, tmp_path):
        res = run_cli(["constants", *ARGS_N4, "--output", str(tmp_path / "no_dir" / "out.csv")])
        assert res.returncode == 3

    def test_config_parser_rejects_malformed(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("just some text\n")
        with pytest.raises(ConfigError, match="malformed"):
            _read_config_file(str(f))


class TestExitCodes:
    def test_verification_failure_exit_1(self, monkeypatch, capsys):
        import gibbscert.cli as cli_mod
        failing = [McReport(name="fake", estimate=1.0, ci_halfwidth=0.0, target=0.0,
                            passed=False, n=1, runtime_s=0.0)]
        monkeypatch.setattr(cli_mod, "verify_suite", lambda *a, **k: failing)
        rc = main(["verify", *ARGS_N4, "--quick"])
        assert rc == 1
        assert "fake" in capsys.readouterr().err

    def test_argparse_usage_error_exit_2(self):
        res = run_cli(["unknown-mode"])
        assert res.returncode == 2

    @pytest.mark.parametrize("argv, named", [
        (["bound", *ARGS_N4, "--u0", "0,1"], "u0 must be strictly positive and finite, got '0,1'"),
        (["simulate", *ARGS_N4, "--u0", "0,1"], "u0 must be strictly positive and finite, got '0,1'"),
        (["min-t", *ARGS_N4, "--epsilon", "0"], "epsilon must be in (0, 1], got 0.0"),
        (["simulate", *ARGS_N4, "--replicas", "10"], "n_replicas must be at least 100 for CI-based checks, got 10"),
        (["constants", "--x", "inf", "--b", "3", "--a", "1,2,3,4,5"], "x must be finite, got inf"),
        (["verify", *ARGS_N4, "--horizon", "0"], "horizon must be at least 1, got 0"),
        (["estimate-pi", *ARGS_N4, "--thinning", "0"], "thinning must be at least 1, got 0"),
        (["simulate", "--x", "2", "--b", "3", "--a", "0.1,0.1,2,2,2"], "a1+a2 <= 1/3"),
        (["bound", *ARGS_N4, "--t-grid=-3,2"], "t-grid entries must be non-negative integers, got -3"),
        (["bound", *ARGS_N4, "--t-grid", "0,2.7"], "t-grid entries must be non-negative integers, got 2.7"),
        (["verify", *ARGS_N4, "--quick", "--t-grid=-5,3"], "t-grid entries must be non-negative integers, got -5"),
        (["verify", *ARGS_N4, "--quick", "--t-grid", "2.5,5"],
         "t-grid entries must be non-negative integers, got 2.5"),
        (["verify", *ARGS_N3, "--quick", "--t-grid", ""],
         "verify needs at least two strictly increasing t-grid points, got []"),
        (["verify", *ARGS_N4, "--quick", "--t-grid", "5"],
         "verify needs at least two strictly increasing t-grid points, got [5]"),
        (["verify", *ARGS_N4, "--quick", "--t-grid", "10,5"],
         "verify needs at least two strictly increasing t-grid points, got [10, 5]"),
        (["min-t", *ARGS_N4, "--theorem", "fixed_start_small_j0", "--u0", "50,50", "--w0", "100,100"],
         "fixed_start_small_j0 requires j0 <= eta = 10.028846153846153, got 100.01"),
        (["min-t", *ARGS_N4, "--theorem", "n3"], "theorem n3 does not apply to an n=4 model"),
        (["min-t", *ARGS_N3, "--theorem", "fixed_start_small_j0"],
         "theorem fixed_start_small_j0 does not apply to an n=3 model"),
        (["bound", *ARGS_N4, "--theorem", "equilibrium_start", "--e-r0-minus-1", "-5", "--e-j0", "-1"],
         "e_r0_minus_1 must be non-negative and finite, got -5.0"),
        (["bound", *ARGS_N4, "--theorem", "equilibrium_start", "--e-r0-minus-1", "5", "--e-j0", "1.5"],
         "e_j0 must be at least 2 and finite, got 1.5"),
        (["constants", "--x", "nan", "--b", "3", "--a", "1,2,3,4,5"], "x must be finite, got nan"),
        (["simulate", *ARGS_N4, "--workers", "0"], "workers must be at least 1, got 0"),
        (["verify", *ARGS_N4, "--quick", "--workers", "-3"], "workers must be at least 1, got -3"),
        (["estimate-pi", *ARGS_N4, "--burn-in", "-1"], "burn_in must be non-negative, got -1"),
        (["estimate-pi", *ARGS_N4, "--n-samples", "0"], "n_samples must be at least 1, got 0"),
    ])
    def test_bad_value_exit_2_names_it(self, argv, named, capsys):
        assert main(argv) == 2
        assert named in capsys.readouterr().err

    def test_pathwise_violation_is_a_failed_row(self, monkeypatch, tmp_path):
        import gibbscert.verify as verify_mod
        real = verify_mod.check_pathwise

        def one_replica_fails(rec_t, rec_t1, g, p):
            # replica 7 fails at step 3 of every checked sweep
            checks = real(rec_t, rec_t1, g, p)
            if rec_t.t == 3:
                checks["order_chain"] = checks["order_chain"].copy()
                checks["order_chain"][7] = False
            return checks

        monkeypatch.setattr(verify_mod, "check_pathwise", one_replica_fails)
        out = tmp_path / "verify.csv"
        rc = main(["verify", *ARGS_N4, "--quick", "--replicas", "300", "--horizon", "10",
                   "--t-grid", "2,5", "--workers", "1", "--output", str(out)])
        assert rc == 1
        rows = {line.split(",", 1)[0]: line.split(",", 6) for line in out.read_text().splitlines()}
        for name, n in (("pathwise_suite", "3000"), ("excursion_counts", "300"), ("ratio_decay_curve", "300")):
            _, estimate, _, _, passed, rows_n, note = rows[name]
            assert (estimate, passed, rows_n) == ("1.0", "False", n), name
            assert "'check': 'order_chain', 't': 3, 'replicas': [7]" in note, name


class TestReproducibility:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", *ARGS_N4, "--replicas", "600", "--horizon", "40", "--seed", "123"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli([*args, "--workers", "1", "--output", str(out1)]).returncode == 0
        assert run_cli([*args, "--workers", "2", "--output", str(out2)]).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_changes_output(self, tmp_path):
        args = ["simulate", *ARGS_N4, "--replicas", "300", "--horizon", "10"]
        a = run_cli([*args, "--seed", "1"])
        b = run_cli([*args, "--seed", "2"])
        assert a.stdout != b.stdout
