"""Unit tests for repro.dwm.config."""

import pytest

from repro.dwm.config import DWMConfig, PortPolicy, uniform_port_offsets
from repro.dwm.dbc import HeadModel
from repro.errors import ConfigError


class TestPortPolicy:
    def test_parse_string_lazy(self):
        assert PortPolicy.parse("lazy") is PortPolicy.LAZY

    def test_parse_string_eager(self):
        assert PortPolicy.parse("EAGER") is PortPolicy.EAGER

    def test_parse_passthrough(self):
        assert PortPolicy.parse(PortPolicy.LAZY) is PortPolicy.LAZY

    def test_parse_unknown_raises(self):
        with pytest.raises(ConfigError, match="unknown port policy"):
            PortPolicy.parse("bouncy")


class TestUniformPortOffsets:
    def test_single_port_centred(self):
        assert uniform_port_offsets(64, 1) == (32,)

    def test_two_ports(self):
        assert uniform_port_offsets(64, 2) == (16, 48)

    def test_four_ports(self):
        offsets = uniform_port_offsets(64, 4)
        assert len(offsets) == 4
        assert offsets == tuple(sorted(offsets))
        assert all(0 <= p < 64 for p in offsets)

    def test_ports_equal_words(self):
        offsets = uniform_port_offsets(4, 4)
        assert sorted(offsets) == list(offsets)
        assert len(set(offsets)) == 4

    def test_more_ports_than_words_raises(self):
        with pytest.raises(ConfigError):
            uniform_port_offsets(2, 3)

    def test_zero_words_raises(self):
        with pytest.raises(ConfigError):
            uniform_port_offsets(0, 1)

    def test_zero_ports_raises(self):
        with pytest.raises(ConfigError):
            uniform_port_offsets(8, 0)


class TestDWMConfigValidation:
    def test_defaults(self):
        config = DWMConfig()
        assert config.words_per_dbc == 64
        assert config.num_dbcs == 16
        assert config.num_ports == 1
        assert config.port_policy is PortPolicy.LAZY

    def test_default_port_is_centred(self):
        config = DWMConfig(words_per_dbc=64)
        assert config.port_offsets == (32,)

    def test_negative_words_raises(self):
        with pytest.raises(ConfigError):
            DWMConfig(words_per_dbc=-1)

    def test_zero_dbcs_raises(self):
        with pytest.raises(ConfigError):
            DWMConfig(num_dbcs=0)

    def test_zero_bits_raises(self):
        with pytest.raises(ConfigError):
            DWMConfig(bits_per_word=0)

    def test_port_out_of_range_raises(self):
        with pytest.raises(ConfigError, match="outside DBC range"):
            DWMConfig(words_per_dbc=8, port_offsets=(8,))

    def test_duplicate_ports_raise(self):
        with pytest.raises(ConfigError, match="duplicate"):
            DWMConfig(words_per_dbc=8, port_offsets=(2, 2))

    def test_empty_ports_raise(self):
        with pytest.raises(ConfigError):
            DWMConfig(words_per_dbc=8, port_offsets=())

    def test_ports_sorted_on_construction(self):
        config = DWMConfig(words_per_dbc=16, port_offsets=(12, 3))
        assert config.port_offsets == (3, 12)

    def test_port_policy_string_coerced(self):
        config = DWMConfig(port_policy="eager")
        assert config.port_policy is PortPolicy.EAGER

    def test_negative_overhead_raises(self):
        with pytest.raises(ConfigError):
            DWMConfig(words_per_dbc=8, overhead_domains=-1)

    def test_default_overhead_covers_shift_range(self):
        config = DWMConfig(words_per_dbc=32)
        assert config.overhead_domains == 31


class TestDWMConfigDerived:
    def test_capacity_words(self):
        config = DWMConfig(words_per_dbc=8, num_dbcs=4)
        assert config.capacity_words == 32

    def test_capacity_bits(self):
        config = DWMConfig(words_per_dbc=8, num_dbcs=2, bits_per_word=16)
        assert config.capacity_bits == 256

    def test_physical_domains_per_tape(self):
        config = DWMConfig(words_per_dbc=8, overhead_domains=7)
        assert config.physical_domains_per_tape == 22

    def test_nearest_port_single(self):
        config = DWMConfig(words_per_dbc=8)  # port at 4
        assert config.nearest_port(0) == 4
        assert config.nearest_port(7) == 4

    def test_nearest_port_multi(self):
        config = DWMConfig(words_per_dbc=16, port_offsets=(2, 12))
        assert config.nearest_port(0) == 2
        assert config.nearest_port(15) == 12
        # Tie at offset 7 (distance 5 to both) breaks toward the lower port.
        assert config.nearest_port(7) == 2

    def test_nearest_port_out_of_range_raises(self):
        config = DWMConfig(words_per_dbc=8)
        with pytest.raises(ConfigError):
            config.nearest_port(8)

    def test_max_shift_distance(self):
        config = DWMConfig(words_per_dbc=8)
        assert config.max_shift_distance == 7
        # Eager goes out from rest and back: offset 0 under port 4 costs 8.
        one_port = DWMConfig(
            words_per_dbc=8, port_offsets=(4,), port_policy="eager"
        )
        assert one_port.max_shift_distance == 8
        two_ports = DWMConfig(
            words_per_dbc=8, port_offsets=(2, 6), port_policy="eager"
        )
        assert two_ports.max_shift_distance == 4

    @pytest.mark.parametrize("policy", ["lazy", "eager"])
    @pytest.mark.parametrize(
        "ports", [(0,), (4,), (7,), (2, 6), (0, 7), (1, 3, 6)]
    )
    def test_max_shift_distance_bounds_every_access(self, ports, policy):
        config = DWMConfig(
            words_per_dbc=8, port_offsets=ports, port_policy=policy
        )
        worst = 0
        for first in range(8):
            for second in range(8):
                model = HeadModel(config)
                worst = max(
                    worst,
                    model.access(first).shifts,
                    model.access(second).shifts,
                )
        assert worst <= config.max_shift_distance
        if policy == "eager":
            assert worst == config.max_shift_distance

    def test_describe_mentions_geometry(self):
        text = DWMConfig(words_per_dbc=8, num_dbcs=2).describe()
        assert "2 DBCs" in text
        assert "8 words" in text


class TestDWMConfigConstructors:
    def test_with_uniform_ports(self):
        config = DWMConfig.with_uniform_ports(
            words_per_dbc=32, num_dbcs=2, num_ports=2
        )
        assert config.num_ports == 2
        assert config.num_dbcs == 2

    def test_for_items_rounds_up(self):
        config = DWMConfig.for_items(65, words_per_dbc=64)
        assert config.num_dbcs == 2

    def test_for_items_exact_fit(self):
        config = DWMConfig.for_items(64, words_per_dbc=64)
        assert config.num_dbcs == 1

    def test_for_items_zero_raises(self):
        with pytest.raises(ConfigError):
            DWMConfig.for_items(0)

    def test_resized_rederives_ports(self):
        config = DWMConfig.with_uniform_ports(words_per_dbc=64, num_ports=2)
        resized = config.resized(words_per_dbc=32)
        assert resized.words_per_dbc == 32
        assert resized.num_ports == 2
        assert all(p < 32 for p in resized.port_offsets)

    def test_resized_keeps_explicit_ports(self):
        config = DWMConfig(words_per_dbc=16, port_offsets=(0, 15))
        resized = config.resized(num_dbcs=8)
        assert resized.port_offsets == (0, 15)
        assert resized.num_dbcs == 8

    def test_frozen(self):
        config = DWMConfig()
        with pytest.raises(AttributeError):
            config.words_per_dbc = 1  # type: ignore[misc]
