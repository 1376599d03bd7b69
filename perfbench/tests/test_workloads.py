"""Each workload's output checks fire on a deliberately damaged restore."""

import numpy as np
import pytest

import workloads
from repro.ckpt import manager as ckpt_manager
from repro.config import TemporalConfig
from repro.service.wire import ServiceClient


def small(cls, tmp_path, **sizes):
    wl = cls(tmp_path, seed=5)
    for key, value in sizes.items():
        setattr(wl, key, value)
    wl.setup()
    return wl


def test_seed_rolls_whole_haar_blocks_and_repeats():
    a = workloads.roll_offset(3, 1156)
    assert a == workloads.roll_offset(3, 1156)
    assert a % 8 == 0 and 0 <= a < 1156
    assert len({workloads.roll_offset(s, 1156) for s in range(20)}) > 1


@pytest.fixture
def nicam(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = small(workloads.NicamIndep, tmp_path, generations=2)
    yield wl
    wl.close()


def test_nicam_round_is_clean_and_repeats_its_bytes(nicam):
    first = nicam.round(None)
    second = nicam.round(None)
    assert first.problems == [] and first.failed == 0
    assert first.attempted == 4
    assert first.stored_bytes == second.stored_bytes
    assert first.rel_errs == second.rel_errs


def test_nicam_lowband_check_fires_on_a_damaged_restore(nicam, monkeypatch):
    real = ckpt_manager.deserialize_array

    def damaged(blob):
        out = real(blob).copy()
        out[:8, :8] += 1.0
        return out

    monkeypatch.setattr(ckpt_manager, "deserialize_array", damaged)
    res = nicam.round(None)
    assert any("low band" in p for p in res.problems)


# A round restores its generations after checkpointing all of them, so
# without the NaN fill the live arrays would still hold the last
# generation's input when it is restored, and a restore that wrote nothing
# would pass with zero error.  One generation makes the first restore the
# last one.


def test_nicam_check_fires_when_the_last_restore_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = small(workloads.NicamIndep, tmp_path, generations=1)
    monkeypatch.setattr(wl.registry, "restore", lambda arrays: None)
    res = wl.round(None)
    wl.close()
    assert res.attempted == 2 and res.failed == 0
    assert any(p.startswith("gen 0 ") and "low band" in p for p in res.problems)


def test_bulk_check_fires_when_the_last_restore_writes_nothing(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = small(workloads.BulkChunked, tmp_path, rows=256, cols=64, generations=1, workers=1)
    try:
        clean = wl.round(None)
        monkeypatch.setattr(wl.registry, "restore", lambda arrays: None)
        res = wl.round(None)
    finally:
        wl.close()
    assert clean.problems == [] and clean.attempted == 2
    assert any(p.startswith("gen 0:") and "low band" in p for p in res.problems)


def test_temporal_bound_check_fires_on_a_damaged_delta(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = small(workloads.NicamTemporal, tmp_path, generations=2)
    real = ckpt_manager.decode_delta

    def damaged(blob, prev):
        out = real(blob, prev).copy()
        out.flat[7] += 3 * TemporalConfig().error_bound
        return out

    monkeypatch.setattr(ckpt_manager, "decode_delta", damaged)
    res = wl.round(None)
    assert any("exceeds bound" in p for p in res.problems)


def test_service_identity_check_fires_on_a_flipped_byte(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    wl = small(workloads.ServiceIngest, tmp_path, distinct_gens=1, steps=1)
    clean = wl.round(None)
    assert clean.problems == [] and clean.attempted == 4
    real = ServiceClient.restore

    async def damaged(self, tenant, step=None):
        blobs = await real(self, tenant, step)
        name = sorted(blobs)[0]
        flipped = bytearray(blobs[name])
        flipped[-1] ^= 0x01
        blobs[name] = bytes(flipped)
        return blobs

    monkeypatch.setattr(ServiceClient, "restore", damaged)
    res = wl.round(None)
    assert any("differs from the bytes sent" in p for p in res.problems)


def test_reference_op_is_the_same_on_every_run():
    a, b = workloads.RefOp(), workloads.RefOp()
    assert np.array_equal(a.values, b.values)
    assert a() > 0
