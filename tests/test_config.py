"""Configuration layering: defaults, file, environment, flag overrides."""
import pytest

from aksvd import config
from aksvd.errors import ConfigError


def build(**overrides):
    return config.build_config(environ={}, overrides=overrides)


class TestDefaults:
    def test_core_defaults(self):
        cfg = build()
        assert cfg["rank"] == 4
        assert cfg["kernel.family"] == "sne"
        assert cfg["kernel.gamma"] is None
        assert cfg["solver"] == "exact"
        assert cfg["dataset.format"] == "synth"
        assert cfg["center"] is True
        assert cfg["out"] == "aksvd_out"
        assert cfg["nystrom.epsilon"] == 0.1

    def test_every_key_has_an_env_name(self):
        names = {config.env_name(k) for k in config.KNOWN}
        assert len(names) == len(config.KNOWN)
        assert config.env_name("kernel.gamma") == "AKSVD_KERNEL_GAMMA"

    def test_manifest_is_sorted_and_complete(self):
        manifest = build().manifest()
        assert list(manifest) == sorted(config.KNOWN)

    def test_get_falls_back_when_none(self):
        cfg = build(seed="7")
        assert cfg.get("solver.seed", "seed") == 7
        cfg = build(**{"seed": "7", "solver.seed": "3"})
        assert cfg.get("solver.seed", "seed") == 3


class TestFile:
    def test_file_values_override_defaults(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rank = 7\nkernel.family = rbf  # inline comment\n"
                        "\n# full-line comment\nkernel.gamma = 0.25\n")
        cfg = config.build_config(config_path=path, environ={})
        assert cfg["rank"] == 7
        assert cfg["kernel.family"] == "rbf"
        assert cfg["kernel.gamma"] == 0.25

    def test_unknown_key_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rank = 7\nwrong.key = 1\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2.*wrong\.key"):
            config.build_config(config_path=path, environ={})

    def test_missing_equals_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:1"):
            config.build_config(config_path=path, environ={})

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            config.build_config(config_path=tmp_path / "absent.cfg",
                                environ={})

    def test_bad_value_type(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rank = lots\n")
        with pytest.raises(ConfigError, match="rank"):
            config.build_config(config_path=path, environ={})


class TestEnv:
    def test_env_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("rank = 7\n")
        cfg = config.build_config(config_path=path,
                                  environ={"AKSVD_RANK": "9"})
        assert cfg["rank"] == 9

    def test_flags_override_env(self):
        cfg = config.build_config(environ={"AKSVD_RANK": "9"},
                                  overrides={"rank": "11"})
        assert cfg["rank"] == 11

    def test_unrecognized_env_var_errors(self):
        with pytest.raises(ConfigError, match="AKSVD_NO_SUCH"):
            config.build_config(environ={"AKSVD_NO_SUCH": "1"})

    def test_foreign_env_vars_ignored(self):
        cfg = config.build_config(environ={"PATH": "/bin", "HOME": "/root"})
        assert cfg["rank"] == 4

    def test_env_parses_types(self):
        cfg = config.build_config(environ={
            "AKSVD_KERNEL_GAMMA": "0.5",
            "AKSVD_DATASET_ZSCORE": "true",
            "AKSVD_COMPAT_SEED": "none",
        })
        assert cfg["kernel.gamma"] == 0.5
        assert cfg["dataset.zscore"] is True
        assert cfg["compat.seed"] is None


class TestValidation:
    def test_choices_enforced(self):
        with pytest.raises(ConfigError, match="kernel.family"):
            build(**{"kernel.family": "cubic"})

    def test_bool_values(self):
        for raw, expected in (("1", True), ("off", False), ("Yes", True)):
            assert build(center=raw)["center"] is expected
        with pytest.raises(ConfigError):
            build(center="sometimes")

    def test_rank_positive(self):
        with pytest.raises(ConfigError, match="rank"):
            build(rank="0")

    def test_threads_key_is_rejected(self):
        # removed keys are refused, not ignored. BLAS threads are set through
        # OMP_NUM_THREADS and friends before launch; a config key could not
        # change them once numpy is loaded. Sampled sne rows always use the
        # M/m-scaled normalizer, so nystrom.full_denominator has no choice
        # left to make; no library function takes a fold count, so
        # eval.folds has nothing to set
        for key, value in (("threads", "2"),
                           ("nystrom.full_denominator", "true"),
                           ("eval.folds", "5")):
            with pytest.raises(ConfigError,
                               match=f"unknown config key '{key}'"):
                build(**{key: value})

    def test_nonsynth_requires_dataset_path(self):
        with pytest.raises(ConfigError, match="dataset.path"):
            build(**{"dataset.format": "edge_list"})

    def test_dataset_path_must_exist(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            build(**{"dataset.format": "csv",
                     "dataset.path": str(tmp_path / "gone.csv")})

    def test_labels_path_must_exist(self, tmp_path):
        with pytest.raises(ConfigError, match="label file"):
            build(**{"dataset.labels": str(tmp_path / "gone.labels")})

    def test_unknown_override_key(self):
        with pytest.raises(ConfigError, match="whatever"):
            build(whatever="1")


class TestListHelpers:
    def test_parse_floats(self):
        assert config.parse_floats("0.1, 0.2,0.3", "k") == (0.1, 0.2, 0.3)
        with pytest.raises(ConfigError, match="numbers"):
            config.parse_floats("a,b", "k")
        with pytest.raises(ConfigError, match="empty"):
            config.parse_floats(" , ", "k")

    def test_parse_names(self):
        choices = ("tsvd", "rsvd")
        assert config.parse_names("rsvd, tsvd", "k", choices) == \
            ("rsvd", "tsvd")
        with pytest.raises(ConfigError, match="entries"):
            config.parse_names("magic", "k", choices)
