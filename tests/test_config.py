"""Tests for ZHTConfig validation (repro.core.config)."""

import ast
import dataclasses
import textwrap
from pathlib import Path

import pytest

from repro.core.config import DEFAULT_CONFIG, ReplicationMode, ZHTConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


class TestValidation:
    def test_defaults_valid(self):
        cfg = ZHTConfig()
        assert cfg.num_partitions == 1024
        assert cfg.num_replicas == 0
        assert cfg.replication_mode == ReplicationMode.ASYNC

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_partitions": 0},
            {"num_partitions": -4},
            {"num_replicas": -1},
            {"replication_mode": "sometimes"},
            {"hash_name": "md5"},
            {"request_timeout": 0},
            {"backoff_factor": 0.5},
            {"max_retries": -1},
            {"gc_dead_ratio": 1.5},
            {"transport": "carrier-pigeon"},
            {"instances_per_node": 0},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ZHTConfig(**kwargs)

    def test_replace_returns_new_config(self):
        cfg = ZHTConfig()
        cfg2 = cfg.replace(num_replicas=2)
        assert cfg2.num_replicas == 2
        assert cfg.num_replicas == 0

    def test_replace_validates(self):
        with pytest.raises(ValueError):
            ZHTConfig().replace(num_partitions=-1)

    def test_frozen(self):
        with pytest.raises(Exception):
            ZHTConfig().num_replicas = 3  # type: ignore[misc]

    def test_all_replication_modes_accepted(self):
        for mode in ReplicationMode.ALL:
            assert ZHTConfig(replication_mode=mode).replication_mode == mode

    def test_default_config_singleton_valid(self):
        assert DEFAULT_CONFIG.num_partitions > 0


# ---------------------------------------------------------------------------
# Every field is read somewhere: a knob nothing reads is dead config.
# ---------------------------------------------------------------------------


def _is_config_receiver(expr: ast.expr) -> bool:
    """The tree's naming convention for a ZHTConfig: a ``config`` /
    ``cfg`` name or any ``*.config`` attribute."""
    if isinstance(expr, ast.Name):
        return expr.id in ("config", "cfg")
    return isinstance(expr, ast.Attribute) and expr.attr == "config"


def unread_config_fields(root: Path, fields: list[str]) -> list[str]:
    """The *fields* no ``.py`` file under *root* reads from a config
    receiver, as ``config.X`` or ``getattr(config, "X")``."""
    read: set[str] = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and _is_config_receiver(node.value):
                read.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and _is_config_receiver(node.args[0])
                and isinstance(node.args[1], ast.Constant)
            ):
                read.add(node.args[1].value)
    return [name for name in fields if name not in read]


def test_every_config_field_is_read():
    fields = [f.name for f in dataclasses.fields(ZHTConfig)]
    assert unread_config_fields(SRC, fields) == []


def test_an_unread_config_field_is_named(tmp_path):
    (tmp_path / "mod.py").write_text(
        textwrap.dedent(
            """
            def use(config, server):
                fresh = config.replace(timeout=2.0, unused_knob=1)
                return config.timeout + server.unused_knob
            """
        ),
        encoding="utf-8",
    )
    fields = ["timeout", "unused_knob"]
    assert unread_config_fields(tmp_path, fields) == ["unused_knob"]


def test_a_literal_getattr_counts_as_a_read(tmp_path):
    (tmp_path / "mod.py").write_text(
        textwrap.dedent(
            """
            def dynamic(self, cfg, name):
                return getattr(cfg, "timeout"), getattr(self.config, "retries")
            """
        ),
        encoding="utf-8",
    )
    fields = ["timeout", "retries", "other"]
    assert unread_config_fields(tmp_path, fields) == ["other"]
