"""Tests for configuration defaults, validation, and file parsing."""

import math
from dataclasses import replace

import pytest

from beliefminer.config import Config, ConfigError, load_config
from beliefminer.ingest import DEFAULT_EXTENSIONS


def test_defaults():
    cfg = Config()
    cfg.validate()
    assert cfg.extensions == tuple(sorted(DEFAULT_EXTENSIONS))
    assert cfg.keyword_file is None
    assert cfg.extend_keywords is False
    assert cfg.post_days == 182
    assert cfg.period_days == 14
    assert cfg.decay_rate == pytest.approx(math.log(2))
    assert cfg.min_files == 3
    assert cfg.min_observations == 4
    assert cfg.alpha == 0.01
    assert cfg.support_threshold == 0.40
    assert cfg.trend_threshold == 0.40
    assert cfg.bootstrap_iterations == 512
    assert cfg.a12_threshold == 0.56
    assert cfg.seed == 0
    assert cfg.replication_mode is False


@pytest.mark.parametrize(
    "kwargs,key",
    [
        ({"extensions": ()}, "extensions"),
        ({"post_days": 0}, "post_days"),
        ({"period_days": 0}, "period_days"),
        ({"decay_rate": 0.0}, "decay_rate"),
        ({"min_files": 0}, "min_files"),
        ({"min_observations": 1}, "min_observations"),
        ({"alpha": 0.0}, "alpha"),
        ({"alpha": 1.0}, "alpha"),
        ({"support_threshold": 0.0}, "support_threshold"),
        ({"trend_threshold": -0.4}, "trend_threshold"),
        ({"bootstrap_iterations": 99}, "bootstrap_iterations"),
        ({"a12_threshold": 0.0}, "a12_threshold"),
        ({"a12_threshold": 1.1}, "a12_threshold"),
        ({"decay_rate": math.inf}, "decay_rate"),
        ({"support_threshold": math.inf}, "support_threshold"),
        ({"trend_threshold": math.inf}, "trend_threshold"),
        ({"seed": 2**63}, "seed"),
        ({"seed": -(2**63) - 1}, "seed"),
        ({"bootstrap_iterations": 10001}, "bootstrap_iterations"),
        ({"post_days": 36_501}, "post_days"),
    ],
)
def test_validate_names_offending_key(kwargs, key):
    with pytest.raises(ConfigError) as excinfo:
        Config(**kwargs).validate()
    assert key in str(excinfo.value)


@pytest.mark.parametrize("days", [1, 36_500])
def test_validate_accepts_post_days_at_bounds(days):
    assert Config(post_days=days).post_days == days


@pytest.mark.parametrize("iterations", [100, 10_000])
def test_validate_accepts_bootstrap_iterations_at_bounds(iterations):
    assert Config(bootstrap_iterations=iterations).bootstrap_iterations == iterations


@pytest.mark.parametrize("seed", [-(2**63), 2**63 - 1])
def test_validate_accepts_seed_at_64_bit_bounds(seed):
    assert Config(seed=seed).seed == seed


def test_load_config_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# tuning\n"
        "alpha = 0.05\n"
        "seed=7\n"
        "replication_mode = yes  # pins the published median\n"
        "extensions = py, .rs ,GO\n"
        "keyword_file = extra.txt\n"
        "\n",
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert cfg.alpha == 0.05
    assert cfg.seed == 7
    assert cfg.replication_mode is True
    assert cfg.extensions == ("py", "rs", "go")
    assert cfg.keyword_file == "extra.txt"
    # untouched keys keep their defaults
    assert cfg.post_days == 182


def test_load_config_respects_base(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 0.02\n", encoding="utf-8")
    base = Config(seed=99)
    cfg = load_config(path, base=base)
    assert cfg.seed == 99
    assert cfg.alpha == 0.02


def test_load_config_unknown_key(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 0.05\nmystery = 3\n", encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    message = str(excinfo.value)
    assert "mystery" in message
    assert ":2" in message  # line number


def test_load_config_bad_values(tmp_path):
    for body, key in [
        ("post_days = soon", "post_days"),
        ("alpha = high", "alpha"),
        ("replication_mode = maybe", "replication_mode"),
        ("extensions = ,", "extensions"),
        ("extensions = py, tar.gz", "extensions: 'tar.gz' "),
        ("extensions = .py/x", "extensions: 'py/x' "),
        ("extensions = c\\h", "extensions: 'c\\\\h' "),
        ("just a line", "key = value"),
        ("alpha = 0.05\nseed = 3\nalpha = 0.01", ":3: duplicate key 'alpha'"),
    ]:
        path = tmp_path / "run.cfg"
        path.write_text(body + "\n", encoding="utf-8")
        with pytest.raises(ConfigError) as excinfo:
            load_config(path)
        assert key in str(excinfo.value)


def test_load_config_validates_result(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 2.0\n", encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert "alpha" in str(excinfo.value)


@pytest.mark.parametrize("entry", ["PY", "Go", "tar.gz", ".py", "src/py", "c\\h"])
def test_config_rejects_an_extension_no_lowercased_path_can_have(entry):
    with pytest.raises(ConfigError) as excinfo:
        Config(extensions=("py", entry))
    assert str(excinfo.value).startswith(f"extensions: {entry!r} ")


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_replace_revalidates():
    with pytest.raises(ConfigError) as excinfo:
        replace(Config(), alpha=2.0)
    assert "alpha" in str(excinfo.value)
    assert isinstance(excinfo.value, ValueError)


def test_load_config_bad_value_names_line(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("alpha = 0.05\n\nmin_files = few\n", encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert f"{path}:3: min_files" in str(excinfo.value)


def test_load_config_undecodable_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_bytes(b"alpha = 0.05 \xff\n")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_hash_inside_value_is_kept(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "keyword_file = /tmp/c#sharp/stems.txt\n"
        "alpha = 0.05 # a trailing comment after a space\n"
        "seed = 3\t# after a tab\n"
        "   # an indented comment line\n",
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert cfg.keyword_file == "/tmp/c#sharp/stems.txt"
    assert cfg.alpha == 0.05
    assert cfg.seed == 3


def test_load_config_hash_after_value_without_space_is_part_of_it(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("seed = 3#note\n", encoding="utf-8")
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert "3#note" in str(excinfo.value)
