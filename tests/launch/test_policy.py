"""LaunchPolicy validation and the LEGACY preset."""

import pytest

from repro.launch import LEGACY, LaunchPolicy


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("max_retries", -1),
        ("per_daemon_timeout", -0.5),
        ("retry_backoff", -0.01),
        ("handshake_timeout", -1.0),
    ])
    def test_negative_knob_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            LaunchPolicy(**{field: value})

    @pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, 2.0,
                                          float("nan")])
    def test_min_daemon_fraction_outside_unit_interval_rejected(
            self, fraction):
        with pytest.raises(ValueError, match="min_daemon_fraction"):
            LaunchPolicy(min_daemon_fraction=fraction)

    def test_boundary_values_accepted(self):
        policy = LaunchPolicy(max_retries=0, per_daemon_timeout=0.0,
                              retry_backoff=0.0, handshake_timeout=0.0,
                              min_daemon_fraction=1.0)
        assert policy.min_daemons(8) == 8
        assert LaunchPolicy(min_daemon_fraction=1e-9).min_daemons(8) == 1


class TestLegacyPreset:
    def test_fields(self):
        assert LEGACY == LaunchPolicy(
            per_daemon_timeout=0.0, max_retries=0, min_daemon_fraction=1.0,
            blacklist_nodes=False, fail_fast=True)
