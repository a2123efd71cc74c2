import json
import os
import re
from dataclasses import fields

import pytest

from edgefail.cli import main
from edgefail.config import DEFAULTS, ExperimentConfig, parse_config_file
from edgefail.errors import ConfigError
from edgefail.experiment import FLOAT_FORMAT, compare, run

FAST = {
    "horizon": 12,
    "attack.every": 6,
    "mobility.vehicles": 60,
    "mobility.p_request": 0.5,
    "seed": 9,
}


def fast_args(out, extra=()):
    return [
        "run",
        "--dataset", "synthetic",
        "--horizon", "12",
        "--attack-every", "6",
        "--seed", "9",
        "--out", str(out),
        *extra,
    ]


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class TestConfig:
    def test_defaults_validate(self):
        cfg = ExperimentConfig.from_sources()
        assert cfg.horizon == 600
        assert cfg.policy_list() == ["lb-psvm", "psvm", "br"]

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_sources(overrides={"nope.key": 1})

    def test_horizon_zero_invalid(self):
        with pytest.raises(ConfigError, match="horizon"):
            ExperimentConfig.from_sources(overrides={"horizon": 0})

    def test_more_instances_than_nodes_invalid(self):
        # a 1x3 grid holds three instances of a service on distinct nodes, not four
        grid = {"grid.rows": 1, "grid.cols": 3, "services.count": 2}
        ExperimentConfig.from_sources(overrides={**grid, "placement.instances_per_service": 3})
        with pytest.raises(ConfigError, match="placement.instances_per_service"):
            ExperimentConfig.from_sources(
                overrides={**grid, "placement.instances_per_service": 4})

    def test_instances_beyond_node_capacity_invalid(self):
        # two instances of services 0 and 1 need 2*10 + 2*12 = 44 units;
        # two nodes of 22 hold them exactly, two of 21.5 fall one unit short
        small = {"grid.rows": 2, "grid.cols": 1, "services.count": 2,
                 "placement.instances_per_service": 2}
        ExperimentConfig.from_sources(overrides={**small, "node.capacity": 22})
        with pytest.raises(ConfigError, match="node.capacity: aggregate demand 44"):
            ExperimentConfig.from_sources(overrides={**small, "node.capacity": 21.5})

    def test_file_parsing_with_line_numbers(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("horizon = 20\n# comment\nmobility.vehicles = 50\n")
        values = parse_config_file(path)
        assert values == {"horizon": 20, "mobility.vehicles": 50}
        bad = tmp_path / "bad.conf"
        bad.write_text("horizon = 20\nwat\n")
        with pytest.raises(ConfigError, match="bad.conf:2"):
            parse_config_file(bad)
        unknown = tmp_path / "unknown.conf"
        unknown.write_text("horizont = 20\n")
        with pytest.raises(ConfigError, match="unknown.conf:1"):
            parse_config_file(unknown)

    def test_every_key_round_trips(self, tmp_path):
        # each field is a key, its first "_" written as "."
        assert len(DEFAULTS) == len(fields(ExperimentConfig))
        path = tmp_path / "all.conf"
        path.write_text("".join(
            f"{key} = {'' if value is None else value}\n" for key, value in DEFAULTS.items()
        ))
        values = parse_config_file(path)
        cfg = ExperimentConfig.from_sources(file=path)
        for f in fields(ExperimentConfig):
            key = f.name.replace("_", ".", 1)
            for got in (values[key], getattr(cfg, f.name)):
                assert got == f.default and type(got) is type(f.default), key
        stale = tmp_path / "stale.conf"
        stale.write_text("horizon = 20\nplacement.strategy = greedy\n")
        with pytest.raises(ConfigError, match=r"stale.conf:2: unknown key 'placement.strategy'"):
            parse_config_file(stale)
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_sources(overrides={"placement.strategy": "greedy"})

    def test_br_enabled_is_an_unknown_key(self, tmp_path, capsys):
        # br always reserves; the runs br.enabled = false gave are --policies psvm
        path = tmp_path / "br.conf"
        path.write_text("br.enabled = false\n")
        with pytest.raises(ConfigError, match=r"br\.conf:1: unknown key 'br\.enabled'"):
            parse_config_file(path)
        with pytest.raises(ConfigError, match=r"^unknown config key 'br\.enabled'$"):
            ExperimentConfig.from_sources(overrides={"br.enabled": False})
        assert main(fast_args(tmp_path / "o", extra=["--config", str(path)])) == 2
        assert capsys.readouterr().err == f"error: {path}:1: unknown key 'br.enabled'\n"

    OPTIONAL = {"out", "trace.bbox", "lbpsvm.k1", "lbpsvm.k2", "attack.schedule",
                "attack.quarantine"}

    @pytest.mark.parametrize("value", ["", "none"])
    def test_only_optional_keys_may_be_empty(self, tmp_path, capsys, value):
        path = tmp_path / "one.conf"
        for key in DEFAULTS:
            path.write_text(f"{key} = {value}\n")
            if key in self.OPTIONAL:
                assert parse_config_file(path) == {key: None}
                cfg = ExperimentConfig.from_sources(file=path, overrides={key: value})
                assert getattr(cfg, key.replace(".", "_", 1)) is None
                continue
            with pytest.raises(ConfigError, match=rf"one.conf:1: {re.escape(key)}: "):
                parse_config_file(path)
            for override in (value, None):
                with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
                    ExperimentConfig.from_sources(overrides={key: override})
            assert main(["run", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
            assert key in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_replace_coerces_like_overrides(self):
        cfg = ExperimentConfig.from_sources()
        assert cfg.replace(horizon="5", lbpsvm_k1="none").horizon == 5
        for key in ("horizon", "dataset", "mobility.p_request"):
            with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: "):
                cfg.replace(**{key: None})

    def test_precedence_cli_over_file_over_defaults(self, tmp_path):
        path = tmp_path / "exp.conf"
        path.write_text("horizon = 20\nseed = 3\n")
        cfg = ExperimentConfig.from_sources(file=path, overrides={"horizon": 7})
        assert cfg.horizon == 7  # CLI wins
        assert cfg.seed == 3  # file beats default
        assert cfg.attack_every == DEFAULTS["attack.every"]

    def test_hash_ignores_policies_and_output(self):
        a = ExperimentConfig.from_sources(overrides={"policies": "psvm"})
        b = ExperimentConfig.from_sources(overrides={"policies": "lb-psvm,br"})
        c = ExperimentConfig.from_sources(overrides={"seed": 1})
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_trace_dataset_needs_bbox(self):
        with pytest.raises(ConfigError, match="bbox"):
            ExperimentConfig.from_sources(overrides={"dataset": "trace:/tmp/x.csv"})


class TestRun:
    def test_artifacts_and_row_counts(self, tmp_path):
        cfg = ExperimentConfig.from_sources(
            overrides={**FAST, "policies": "lb-psvm,psvm"}
        )
        art = run(cfg, out=str(tmp_path / "o"))
        lines = read(art.metrics_path).strip().split("\n")
        assert len(lines) == 1 + 12 * 2  # header + horizon rows per policy
        header = lines[0].split(",")
        assert header[:4] == ["t", "state", "policy", "avg_delay_ms"]
        assert header[-3:] == ["avg_elf_pct", "fairness", "q_value"]
        assert sum(1 for ln in lines[1:] if ",lb-psvm," in ln) == 12
        summary = read(art.summary_path).strip().split("\n")
        assert summary[0] == "policy,avg_delay_ms,avg_elf_attack_pct,mean_fairness"
        assert len(summary) == 3
        manifest = json.loads(read(art.manifest_path))
        assert manifest["config_hash"] == cfg.config_hash()
        assert manifest["policies"] == ["lb-psvm", "psvm"]
        assert os.path.exists(os.path.join(art.out_dir, "plots.gp"))

    def test_states_match_state_machine(self, tmp_path):
        cfg = ExperimentConfig.from_sources(overrides={**FAST, "policies": "psvm"})
        art = run(cfg, out=str(tmp_path / "o"))
        rows = [ln.split(",") for ln in read(art.metrics_path).strip().split("\n")[1:]]
        states = {int(r[0]): r[1] for r in rows}
        assert states[6] == "Attack" and states[12] == "Attack"
        assert states[7] == "Recovered"
        assert states[5] == "PreAttack"

    @pytest.mark.parametrize("x", [-0.0, 0.0, 5e-324, 1e16, 0.1 + 0.2, 1 / 3, 123456789.5,
                                   1e-5, 2.5e-7, float("inf"), float("nan"), -1e300])
    def test_float_format_is_format_9g(self, x):
        assert FLOAT_FORMAT % x == format(x, ".9g")

    def test_rows_are_format_9g_of_the_columns(self, tmp_path):
        cfg = ExperimentConfig.from_sources(overrides=FAST)
        art = run(cfg, out=str(tmp_path / "o"))
        lines = read(art.metrics_path).strip().split("\n")[1:]
        want = []
        for policy in cfg.policy_list():
            table = art.records[policy]
            columns = [table.column(c).tolist() for c in (
                "time", "state", "avg_delay", "per_service_delay", "avg_elf", "fairness",
                "q_value")]
            for t, state, avg, per_service, *tail in zip(*columns):
                floats = [avg, *per_service, *tail]
                want.append(",".join([str(t), state.value, policy]
                                     + [format(v, ".9g") for v in floats]))
        assert lines == want

    def test_byte_identical_reproduction(self, tmp_path):
        cfg = ExperimentConfig.from_sources(overrides=FAST)
        a = run(cfg, out=str(tmp_path / "a"))
        b = run(cfg, out=str(tmp_path / "b"))
        assert read(a.metrics_path) == read(b.metrics_path)
        assert read(a.summary_path) == read(b.summary_path)

    def test_trace_dataset_roundtrip(self, tmp_path):
        trace = tmp_path / "trace.csv"
        rows = ["vehicle_id,timestamp,lat,lon"]
        for v in range(30):
            for t in range(12):
                rows.append(f"cab{v},{t * 60},{37.0 + (v % 10) * 0.05},{-122.9 + (v % 7) * 0.1}")
        trace.write_text("\n".join(rows) + "\n")
        cfg = ExperimentConfig.from_sources(overrides={
            **FAST,
            "dataset": f"trace:{trace}",
            "trace.bbox": "37.0,38.0,-123.0,-122.0",
            "policies": "lb-psvm",
        })
        art = run(cfg, out=str(tmp_path / "o"))
        lines = read(art.metrics_path).strip().split("\n")
        assert len(lines) == 13


class TestCompare:
    def make_summaries(self, tmp_path, seeds=(9, 9)):
        paths = []
        for i, seed in enumerate(seeds):
            cfg = ExperimentConfig.from_sources(overrides={**FAST, "seed": seed})
            art = run(cfg, out=str(tmp_path / f"r{i}"))
            paths.append(art.summary_path)
        return paths

    def test_identical_runs_zero_deltas(self, tmp_path):
        paths = self.make_summaries(tmp_path)
        cmp = compare(paths)
        policies = ExperimentConfig.from_sources(overrides=FAST).policy_list()
        assert len(cmp.values) == 2 * len(policies)
        for p in policies:
            assert cmp.values[("r0", p)] == cmp.values[("r1", p)], p

    def test_winner_flags(self, tmp_path):
        paths = self.make_summaries(tmp_path)
        cmp = compare(paths)
        assert cmp.winners["mean_fairness"][1] in ("lb-psvm", "br")
        text = cmp.to_text()
        assert "avg_delay_ms" in text and "*" in text

    def test_mismatched_configs_refused_with_diff(self, tmp_path):
        paths = self.make_summaries(tmp_path, seeds=(9, 10))
        with pytest.raises(ConfigError, match="seed"):
            compare(paths)

    def test_needs_two_runs(self, tmp_path):
        (path,) = self.make_summaries(tmp_path, seeds=(9,))
        with pytest.raises(ConfigError):
            compare([path])

    def test_same_basename_dirs_disambiguated(self, tmp_path):
        cfg = ExperimentConfig.from_sources(overrides={**FAST, "policies": "psvm"})
        paths = []
        for sub in ("x", "y"):
            art = run(cfg, out=str(tmp_path / sub / "out"))
            paths.append(art.summary_path)
        cmp = compare(paths)
        assert len(cmp.values) == 2


class TestCliEntry:
    def test_run_exit_zero(self, tmp_path, capsys):
        assert main(fast_args(tmp_path / "o")) == 0
        out = capsys.readouterr().out
        assert "metrics.csv" in out and "lb-psvm" in out

    def test_flag_overrides_config_file(self, tmp_path):
        # a flag beats the file's key, which beats the default
        cfgfile = tmp_path / "exp.conf"
        cfgfile.write_text("attack.every = 50\n")
        assert ExperimentConfig.from_sources(file=cfgfile, overrides={"attack_every": 20}
                                             ).attack_every == 20
        for flags, every in (([], 50), (["--attack-every", "20"], 20)):
            out = tmp_path / f"o{every}"
            assert main(["run", "--config", str(cfgfile), *flags, "--horizon", "5",
                         "--policies", "psvm", "--out", str(out)]) == 0
            assert json.loads(read(out / "manifest.json"))["config"]["attack.every"] == every

    def test_invalid_horizon_exit_2(self, tmp_path, capsys):
        code = main(fast_args(tmp_path / "o", extra=["--horizon", "0"]))
        assert code == 2
        assert "horizon" in capsys.readouterr().err

    def test_infeasible_placement_exit_2(self, tmp_path, capsys):
        # a config no placement can meet fails before set-up, not at t=1
        cfgfile = tmp_path / "exp.conf"
        cfgfile.write_text("grid.rows = 2\ngrid.cols = 1\nplacement.instances_per_service = 3\n")
        assert main(fast_args(tmp_path / "o", extra=["--config", str(cfgfile)])) == 2
        assert "placement.instances_per_service" in capsys.readouterr().err
        cfgfile.write_text("node.capacity = 40\n")
        assert main(fast_args(tmp_path / "o", extra=["--config", str(cfgfile)])) == 2
        assert "node.capacity" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("delay.alpha_ms_per_km", "-1"),
        ("delay.base_ms", "-1"),
        ("mobility.speed_min_kmh", "0"),
        ("mobility.speed_min_kmh", "70"),  # above speed_max_kmh
        ("trace.time_unit_s", "0"),
        ("lbpsvm.k1", "-1"),
        ("lbpsvm.k2", "-1"),
        ("attack.schedule", "10:99"),  # no node 99
        ("attack.schedule", "10:-1"),
        ("attack.schedule", "10:1,10:2"),  # two attacks at one time
        ("attack.schedule", "0:3"),  # before the first unit
        ("attack.schedule", "10:4,30:0,55:8"),  # 30:0 and 55:8 inside a quarantine
        ("queue.ms_per_unit", "-1"),  # negative queue delays
        ("lbpsvm.k1", "nan"),  # the split solver never returns
        ("delay.base_ms", "nan"),
        ("service.capacity", "inf"),
        ("solver.max_iters", "0"),  # splits that miss the affected count
        ("lbpsvm.kkt_tol", "-1"),  # a stationarity warning on every split
    ])
    def test_value_later_layers_reject_exit_2(self, tmp_path, capsys, key, value):
        # each of these used to pass validate() and then crash, or drop an
        # attack, during the run; the schedule case needs the default
        # attack.every, which sets the quarantine
        every = DEFAULTS["attack.every"]
        with pytest.raises(ConfigError, match=re.escape(key)):
            ExperimentConfig.from_sources(overrides={**FAST, "attack.every": every, key: value})
        cfgfile = tmp_path / "exp.conf"
        cfgfile.write_text(f"{key} = {value}\n")
        extra = ["--config", str(cfgfile), "--attack-every", str(every)]
        assert main(fast_args(tmp_path / "o", extra=extra)) == 2
        assert f"error: {key}" in capsys.readouterr().err

    @pytest.mark.parametrize("bbox", [
        "1,0,0,1",  # degenerate
        "0,1,nan,1",
        "a,b,c,d",
        "-inf,inf,-inf,inf",  # used to fail on the delay matrices
        "0,inf,0,1",  # used to run with every vehicle at y = 0
    ])
    def test_malformed_bbox_exit_2(self, tmp_path, capsys, bbox):
        trace = tmp_path / "trace.csv"
        trace.write_text("vehicle_id,timestamp,lat,lon\nv1,0,0.5,0.5\nv1,60,0.6,0.5\n")
        cfgfile = tmp_path / "exp.conf"
        cfgfile.write_text(f"trace.bbox = {bbox}\n")
        extra = ["--dataset", f"trace:{trace}", "--config", str(cfgfile)]
        assert main(fast_args(tmp_path / "o", extra=extra)) == 2
        assert "error: trace.bbox: " in capsys.readouterr().err

    def test_repeated_policy_exit_2(self, tmp_path, capsys):
        # psvm,psvm used to write each psvm row twice
        with pytest.raises(ConfigError, match="policies"):
            ExperimentConfig.from_sources(overrides={**FAST, "policies": "psvm,br,psvm"})
        assert main(fast_args(tmp_path / "o", extra=["--policies", "psvm,psvm"])) == 2
        assert "error: policies" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_config_file_exit_2(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.conf"
        cfgfile.write_text("horizon = banana\n")
        code = main(fast_args(tmp_path / "o", extra=["--config", str(cfgfile)]))
        assert code == 2

    def test_non_utf8_config_exit_2(self, tmp_path, capsys):
        # the file and line of the bad byte, not a UnicodeDecodeError traceback;
        # lines split as in text mode, so a CRLF file counts its lines alike
        cfgfile = tmp_path / "exp.conf"
        for data, want in ((b"horizon = 5\r\n# caf\xe9\r\n", r"exp\.conf:2: not UTF-8 text"),
                           (b"horizon = 5\r\n\r\nbanana\r\n", r"exp\.conf:3: expected 'key")):
            cfgfile.write_bytes(data)
            assert main(fast_args(tmp_path / "o", extra=["--config", str(cfgfile)])) == 2
            assert re.match(rf"error: .*{want}", capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("path, reason", [
        ("missing.conf", "No such file or directory"), (".", "Is a directory")],
        ids=["missing", "directory"])
    def test_unreadable_config_path_exit_2(self, tmp_path, capsys, path, reason):
        # a config path that names no readable file is an input error, as a
        # missing trace is, not a runtime failure
        path = str(tmp_path / path)
        assert main(fast_args(tmp_path / "o", extra=["--config", path])) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: cannot read the config file ({reason})\n")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("name, edit, want", [
        ("manifest.json", lambda text: text[:40],
         r"manifest\.json: not a run manifest \(JSONDecodeError\(.*line \d+"),
        ("manifest.json", lambda text: text.replace('"config_hash"', '"hash"'),
         r"manifest\.json: not a run manifest \(KeyError\('config_hash'\)\)"),
        ("summary.csv", lambda text: re.sub(r"^psvm,[^,]*", "psvm,abc", text, flags=re.M),
         r"summary\.csv:3: not a summary row \(could not convert string to float: 'abc'\)"),
        ("summary.csv", lambda text: re.sub(r"^(lb-psvm,.*),[^,\n]*$", r"\1", text, flags=re.M),
         r"summary\.csv:2: not a summary row"),
        ("summary.csv", lambda text: text.splitlines(keepends=True)[0],
         r"summary\.csv: not a summary file \(the header, then a row per policy\)"),
        ("summary.csv", lambda text: text + text.splitlines(keepends=True)[1],
         r"summary\.csv:5: a second row for policy 'lb-psvm'"),
    ], ids=["truncated-manifest", "manifest-without-hash", "summary-cell", "short-summary-row",
            "header-only-summary", "policy-row-twice"])
    def test_damaged_compare_input_exit_2(self, tmp_path, capsys, name, edit, want):
        # compare names the damaged file, and its line where it has one
        for run_dir in ("a", "b"):
            assert main(fast_args(tmp_path / run_dir)) == 0
        damaged = tmp_path / "b" / name
        damaged.write_text(edit(read(damaged)))
        capsys.readouterr()
        code = main(["compare", str(tmp_path / "a" / "summary.csv"),
                     str(tmp_path / "b" / "summary.csv")])
        err = capsys.readouterr().err
        assert code == 2
        assert re.match(rf"error: {re.escape(str(tmp_path / 'b'))}/{want}", err), err

    def test_same_summary_twice_exit_2(self, tmp_path, capsys):
        # one file, under one path or two spellings of it, is one run, not two
        assert main(fast_args(tmp_path / "a")) == 0
        capsys.readouterr()
        path = f"{tmp_path}/a/summary.csv"
        for again in (path, f"{tmp_path}/a/./summary.csv"):
            assert main(["compare", path, again]) == 2
            assert capsys.readouterr().err == f"error: {again}: the same file as {path}\n"

    def test_missing_summary_next_to_manifest_exit_2(self, tmp_path, capsys):
        for run_dir in ("a", "b"):
            assert main(fast_args(tmp_path / run_dir)) == 0
        (tmp_path / "b" / "summary.csv").unlink()
        capsys.readouterr()
        code = main(["compare", str(tmp_path / "a" / "summary.csv"),
                     str(tmp_path / "b" / "summary.csv")])
        assert code == 2
        assert capsys.readouterr().err == f"error: {tmp_path}/b/summary.csv: no such summary file\n"

    def test_manifest_directory_exit_2(self, tmp_path, capsys):
        # a manifest.json that cannot be read is an input error, as a missing one is
        for run_dir in ("a", "b"):
            assert main(fast_args(tmp_path / run_dir)) == 0
        manifest = tmp_path / "b" / "manifest.json"
        manifest.unlink()
        manifest.mkdir()
        capsys.readouterr()
        code = main(["compare", str(tmp_path / "a" / "summary.csv"),
                     str(tmp_path / "b" / "summary.csv")])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {manifest}: cannot read the manifest (Is a directory)\n")

    def test_missing_trace_exit_2(self, tmp_path):
        code = main([
            "run", "--dataset", "trace:/does/not/exist.csv",
            "--horizon", "5", "--out", str(tmp_path / "o"),
        ])
        assert code == 2

    def test_solver_failure_exit_3(self, tmp_path, capsys):
        # demand that cannot fit on the placed instances surfaces as a
        # runtime failure, not a config error
        cfgfile = tmp_path / "exp.conf"
        cfgfile.write_text(
            "service.capacity = 2\nmobility.vehicles = 400\n"
            "mobility.p_request = 1.0\nservices.count = 2\n"
        )
        code = main(fast_args(tmp_path / "o", extra=["--config", str(cfgfile)]))
        assert code == 3
        assert "demand" in capsys.readouterr().err

    def test_compare_subcommand(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert main(fast_args(tmp_path / name)) == 0
        capsys.readouterr()
        code = main([
            "compare",
            str(tmp_path / "a" / "summary.csv"),
            str(tmp_path / "b" / "summary.csv"),
        ])
        assert code == 0
        assert "avg_delay_ms" in capsys.readouterr().out

    def test_env_var_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("EDGEFAIL_OUT_DIR", str(tmp_path / "envout"))
        args = fast_args(tmp_path)[:-2]  # drop --out
        assert main(args) == 0
        assert (tmp_path / "envout" / "metrics.csv").exists()
