"""Unit tests for the calibrated cost model.

The relative-overhead assertions below encode the *shape* of the paper's
Table 2: Mvedsua-1 costs a few percent over native, Mvedsua-2 tens of
percent, and applications with more user-space compute per syscall see
lower relative MVE overheads.
"""

import dataclasses

import pytest

from repro.sim import NANOS_PER_SECOND
from repro.syscalls import ExecutionMode, PROFILES, op_cost


def ops_per_second(app, mode, **kwargs):
    return NANOS_PER_SECOND / op_cost(app, mode, **kwargs)


def overhead(app, mode, **kwargs):
    """Throughput drop vs native — the convention of the paper's Table 2."""
    native = op_cost(app, ExecutionMode.NATIVE, **kwargs)
    other = op_cost(app, mode, **kwargs)
    return 1.0 - native / other


class TestNativeCalibration:
    """Native throughput must land near the paper's Table 2 numbers."""

    def test_redis_native_near_73k(self):
        assert ops_per_second("redis", ExecutionMode.NATIVE) == pytest.approx(73_000, rel=0.05)

    def test_memcached_native_near_62k_per_thread(self):
        # 249k ops/s across 4 worker threads.
        per_thread = ops_per_second("memcached", ExecutionMode.NATIVE)
        assert 4 * per_thread == pytest.approx(249_000, rel=0.05)

    def test_vsftpd_small_native_near_2667(self):
        assert ops_per_second("vsftpd-small", ExecutionMode.NATIVE) == pytest.approx(2_667, rel=0.05)

    def test_vsftpd_large_native_near_118(self):
        assert ops_per_second(
            "vsftpd-large", ExecutionMode.NATIVE, n_bytes=10 * 1024 * 1024
        ) == pytest.approx(118, rel=0.08)


class TestOverheadShape:
    """Relative overheads must match the paper's reported bands."""

    @pytest.mark.parametrize("app,kwargs", [
        ("redis", {}),
        ("memcached", {}),
        ("vsftpd-small", {}),
        ("vsftpd-large", {"n_bytes": 10 * 1024 * 1024}),
    ])
    def test_mvedsua_single_is_3_to_9_percent(self, app, kwargs):
        assert 0.0 < overhead(app, ExecutionMode.MVEDSUA_SINGLE, **kwargs) < 0.10

    @pytest.mark.parametrize("app,kwargs", [
        ("redis", {}),
        ("memcached", {}),
        ("vsftpd-small", {}),
        ("vsftpd-large", {"n_bytes": 10 * 1024 * 1024}),
    ])
    def test_mvedsua_leader_is_20_to_55_percent(self, app, kwargs):
        assert 0.20 < overhead(app, ExecutionMode.MVEDSUA_LEADER, **kwargs) < 0.55

    @pytest.mark.parametrize("app,kwargs", [
        ("redis", {}),
        ("memcached", {}),
        ("vsftpd-small", {}),
        ("vsftpd-large", {"n_bytes": 10 * 1024 * 1024}),
    ])
    def test_kitsune_under_6_percent(self, app, kwargs):
        assert 0.0 <= overhead(app, ExecutionMode.KITSUNE, **kwargs) < 0.06

    def test_memcached_has_highest_mve_overhead(self):
        # Table 2: Memcached 52% > Redis 42% > Vsftpd 25%.
        mc = overhead("memcached", ExecutionMode.MVEDSUA_LEADER)
        rd = overhead("redis", ExecutionMode.MVEDSUA_LEADER)
        ftp = overhead("vsftpd-small", ExecutionMode.MVEDSUA_LEADER)
        assert mc > rd > ftp

    def test_mode_ordering_is_monotone(self):
        for app in ("redis", "memcached"):
            costs = [op_cost(app, mode) for mode in (
                ExecutionMode.NATIVE,
                ExecutionMode.MVEDSUA_SINGLE,
                ExecutionMode.MVEDSUA_LEADER,
            )]
            assert costs == sorted(costs)

    def test_mvedsua_adds_kitsune_on_top_of_varan(self):
        for app, mode_pair in (
            ("memcached", (ExecutionMode.VARAN_SINGLE, ExecutionMode.MVEDSUA_SINGLE)),
            ("memcached", (ExecutionMode.VARAN_LEADER, ExecutionMode.MVEDSUA_LEADER)),
        ):
            varan, mvedsua = mode_pair
            assert op_cost(app, mvedsua) >= op_cost(app, varan)


class TestModeFlags:
    def test_ring_buffer_modes(self):
        assert ExecutionMode.VARAN_LEADER.uses_ring_buffer
        assert ExecutionMode.MVEDSUA_LEADER.uses_ring_buffer
        assert not ExecutionMode.MVEDSUA_SINGLE.uses_ring_buffer

    def test_kitsune_modes(self):
        assert ExecutionMode.KITSUNE.includes_kitsune
        assert ExecutionMode.MVEDSUA_SINGLE.includes_kitsune
        assert not ExecutionMode.VARAN_SINGLE.includes_kitsune

    def test_varan_modes(self):
        assert not ExecutionMode.NATIVE.includes_varan
        assert not ExecutionMode.KITSUNE.includes_varan
        assert ExecutionMode.FOLLOWER.includes_varan


def test_profiles_expose_xform_costs_where_needed():
    # Figure 7 (Redis) and the Memcached fault experiments need these.
    assert PROFILES["redis"].xform_entry_ns is not None
    assert PROFILES["memcached"].xform_entry_ns is not None


def test_follower_replay_cheaper_than_leader_mode():
    leader = op_cost("redis", ExecutionMode.VARAN_LEADER)
    follower = op_cost("redis", ExecutionMode.FOLLOWER)
    assert follower < leader


class TestPerAppFactors:
    """The per-application Varan factor overrides (calibration knobs)."""

    def test_overrides_take_precedence_over_globals(self):
        from repro.syscalls.costs import AppProfile
        plain = AppProfile(name="p", compute_ns=1000, syscall_ns=100)
        tuned = AppProfile(name="t", compute_ns=1000, syscall_ns=100,
                           varan_leader_syscall_factor=10.0)
        assert tuned.factors(ExecutionMode.VARAN_LEADER).syscall_factor \
            == 10.0
        assert plain.factors(ExecutionMode.VARAN_LEADER).syscall_factor \
            == pytest.approx(2.80)

    def test_entries_per_op_defaults_to_syscalls(self):
        from repro.syscalls.costs import AppProfile
        plain = AppProfile(name="p", compute_ns=1, syscall_ns=1,
                           syscalls_per_op=7)
        assert plain.entries_per_op == 7
        tuned = AppProfile(name="t", compute_ns=1, syscall_ns=1,
                           syscalls_per_op=3, ring_entries_per_op=12)
        assert tuned.entries_per_op == 12

    def test_calibrated_profiles_have_entry_footprints(self):
        assert PROFILES["redis"].entries_per_op == 12
        assert PROFILES["memcached"].entries_per_op == 12
        assert PROFILES["vsftpd-small"].entries_per_op == 15

    def test_follower_mode_ignores_leader_overrides(self):
        follower = PROFILES["redis"].factors(ExecutionMode.FOLLOWER)
        assert follower.syscall_factor == pytest.approx(0.60)

    def test_iteration_cost_helper(self):
        profile = PROFILES["redis"]
        cost = profile.iteration_cost_ns(
            ExecutionMode.NATIVE, n_requests=2, n_syscalls=6)
        assert cost == 2 * profile.compute_ns + 6 * profile.syscall_ns


# ---------------------------------------------------------------------------
# The mode table vs. the formula it replaced
# ---------------------------------------------------------------------------

_RING = {ExecutionMode.VARAN_LEADER, ExecutionMode.MVEDSUA_LEADER}
_KITSUNE = {ExecutionMode.KITSUNE, ExecutionMode.MVEDSUA_SINGLE,
            ExecutionMode.MVEDSUA_LEADER}
_NO_VARAN = {ExecutionMode.NATIVE, ExecutionMode.KITSUNE}


def reference_factors(profile, mode):
    """The per-call derivation ``AppProfile.factors`` used to run, from
    scratch: mode sets spelled out, global defaults as literals."""
    compute = syscall = byte = 1.0
    if mode in _KITSUNE:
        compute *= profile.kitsune_compute_factor
    if mode is ExecutionMode.FOLLOWER:
        syscall *= 0.60
    elif mode in _RING:
        syscall *= profile.varan_leader_syscall_factor or 2.80
        byte *= profile.varan_leader_byte_factor or 1.18
    elif mode not in _NO_VARAN:
        syscall *= profile.varan_single_syscall_factor or 1.25
    return compute, syscall, byte


def reference_cost(profile, mode, n_requests, n_syscalls, n_bytes):
    compute, syscall, byte = reference_factors(profile, mode)
    return int(round(profile.compute_ns * compute * n_requests
                     + n_syscalls * profile.syscall_ns * syscall
                     + n_bytes * profile.byte_ns * byte))


def _profile_variants():
    for profile in PROFILES.values():
        yield profile
        yield dataclasses.replace(
            profile, varan_single_syscall_factor=None,
            varan_leader_syscall_factor=None,
            varan_leader_byte_factor=None)
        yield dataclasses.replace(
            profile, kitsune_compute_factor=1.37,
            varan_single_syscall_factor=1.91,
            varan_leader_syscall_factor=5.03,
            varan_leader_byte_factor=1.27, byte_ns=0.31)


class TestModeTable:
    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_predicates_match_the_mode_sets(self, mode):
        assert mode.uses_ring_buffer == (mode in _RING)
        assert mode.includes_kitsune == (mode in _KITSUNE)
        assert mode.includes_varan == (mode not in _NO_VARAN)
        assert ExecutionMode(mode.value) is mode

    @pytest.mark.parametrize("mode", list(ExecutionMode))
    def test_table_equals_the_reference_formula_exactly(self, mode):
        shapes = [(1, 3, 0), (2, 6, 128), (0, 1, 0), (7, 320, 10 << 20)]
        for profile in _profile_variants():
            f = profile.factors(mode)
            assert (f.compute_factor, f.syscall_factor, f.byte_factor) \
                == reference_factors(profile, mode)
            for n_requests, n_syscalls, n_bytes in shapes:
                assert profile.iteration_cost_ns(
                    mode, n_requests=n_requests, n_syscalls=n_syscalls,
                    n_bytes=n_bytes) == reference_cost(
                        profile, mode, n_requests, n_syscalls, n_bytes)
                assert profile.op_cost_ns(
                    mode, n_syscalls=n_syscalls, n_bytes=n_bytes) \
                    == reference_cost(profile, mode, 1, n_syscalls, n_bytes)
            assert profile.op_cost_ns(mode) == reference_cost(
                profile, mode, 1, profile.syscalls_per_op, 0)

    def test_replaced_profile_does_not_inherit_the_old_table(self):
        redis = PROFILES["redis"]
        tuned = dataclasses.replace(redis, varan_leader_syscall_factor=9.0)
        assert tuned.factors(ExecutionMode.VARAN_LEADER).syscall_factor \
            == 9.0
        assert redis.factors(ExecutionMode.VARAN_LEADER).syscall_factor \
            == 4.215
        # The table is not a field: equality and hashing ignore it.
        assert dataclasses.replace(redis) == redis
        assert hash(dataclasses.replace(redis)) == hash(redis)
