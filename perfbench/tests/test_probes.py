import asyncio

import numpy as np
import pytest

from probes import UNATTRIBUTED, Probes, Span, TimingStore, layer_table, self_times, tree_of


def span(i, parent, start, end, layer="x", **attrs):
    return Span(i, parent, f"s{i}", layer, start, end, dict(attrs))


def root_span(i, start, end):
    return Span(i, None, "ckpt", "bench", start, end, {"root": True})


def test_self_time_of_nested_children():
    root = root_span(1, 0.0, 10.0)
    a = span(2, 1, 1.0, 6.0)
    b = span(3, 2, 2.0, 4.0)
    c = span(4, 1, 7.0, 9.0)
    got = self_times(root, [root, a, b, c])
    assert got == pytest.approx({1: 3.0, 2: 3.0, 3: 2.0, 4: 2.0})
    assert sum(got.values()) == pytest.approx(root.duration)


def test_self_time_of_overlapping_children_splits_the_overlap():
    root = root_span(1, 0.0, 10.0)
    a = span(2, 1, 1.0, 5.0)
    b = span(3, 1, 3.0, 7.0)
    got = self_times(root, [root, a, b])
    # the root keeps what neither child covers: 10 - |[1, 7]|
    assert got[1] == pytest.approx(4.0)
    assert got[2] == pytest.approx(2.0 + 1.0)
    assert got[3] == pytest.approx(1.0 + 2.0)
    assert sum(got.values()) == pytest.approx(10.0)


def test_overlapping_grandchildren_inside_nested_children():
    root = root_span(1, 0.0, 12.0)
    a = span(2, 1, 0.0, 10.0)
    b = span(3, 2, 1.0, 6.0)
    c = span(4, 2, 4.0, 9.0)
    d = span(5, 3, 2.0, 3.0)
    got = self_times(root, [root, a, b, c, d])
    assert got[1] == pytest.approx(2.0)
    assert got[2] == pytest.approx(10.0 - 8.0)
    assert got[5] == pytest.approx(1.0)
    assert got[3] + got[4] == pytest.approx(8.0 - 1.0)
    assert sum(got.values()) == pytest.approx(12.0)


def test_detached_work_is_charged_inside_the_waiting_client_span():
    root = root_span(1, 0.0, 10.0)
    client = span(2, 1, 1.0, 9.0, layer="service")
    server = span(3, None, 3.0, 5.0, layer="ckpt", detached=True)
    sync = span(4, 3, 3.5, 4.0, layer="store")
    elsewhere = span(5, None, 11.0, 12.0, layer="store", detached=True)
    other_root = root_span(6, 20.0, 21.0)
    other_child = span(7, 6, 20.0, 21.0)
    everything = [root, client, server, sync, elsewhere, other_root, other_child]
    members = tree_of(root, everything)
    assert {s.span_id for s in members} == {1, 2, 3, 4}
    got = self_times(root, members)
    assert got == pytest.approx({1: 2.0, 2: 6.0, 3: 1.5, 4: 0.5})
    table = layer_table(root, everything)
    assert table == pytest.approx(
        {UNATTRIBUTED: 2.0, "service": 6.0, "ckpt": 1.5, "store": 0.5}
    )
    assert sum(table.values()) == pytest.approx(root.duration)


def test_spans_are_clipped_to_the_root():
    root = root_span(1, 0.0, 4.0)
    late = span(2, None, 3.0, 8.0, detached=True)
    got = self_times(root, [root, late])
    assert got == pytest.approx({1: 3.0, 2: 1.0})


def test_recorder_parents_spans_through_context_and_tasks():
    probes = Probes()

    async def client():
        with probes.span("service.submit", "service"):
            await asyncio.sleep(0)

    async def main():
        with probes.root("ckpt"):
            await asyncio.gather(client(), client())
        with probes.span("store.put", "store"):
            pass

    asyncio.run(main())
    (root,) = probes.roots
    by_name = {}
    for s in probes.spans:
        by_name.setdefault(s.name, []).append(s)
    assert all(s.parent == root.span_id for s in by_name["service.submit"])
    (put,) = by_name["store.put"]
    assert put.parent is None and put.attrs.get("detached")


def test_install_rebinds_and_uninstall_restores_every_name():
    from repro.ckpt.manifest import ArrayEntry
    from repro.core import container, pipeline

    originals = {
        "wavelet_forward": pipeline.wavelet_forward,
        "read_body": container.read_body,
        "decompress": pipeline.WaveletCompressor.__dict__["decompress"],
        "checksum": ArrayEntry.__dict__["checksum"],
    }
    probes = Probes()
    with probes:
        assert pipeline.wavelet_forward is not originals["wavelet_forward"]
        arr = np.add.outer(np.sin(np.linspace(0, 3, 64)), np.cos(np.linspace(0, 2, 32)))
        with probes.root("ckpt"):
            blob = pipeline.WaveletCompressor().compress(arr)
        with probes.root("restore"):
            pipeline.WaveletCompressor.decompress(blob)
    assert pipeline.wavelet_forward is originals["wavelet_forward"]
    assert container.read_body is originals["read_body"]
    assert pipeline.WaveletCompressor.__dict__["decompress"] is originals["decompress"]
    assert ArrayEntry.__dict__["checksum"] is originals["checksum"]

    names = {s.name for s in probes.spans}
    assert {"core.compress", "core.wavelet", "core.quantize", "core.encode",
            "core.format", "lossless.deflate", "core.decompress", "core.unwrap",
            "lossless.inflate", "core.decode", "core.wavelet_inverse"} <= names
    for root in probes.roots:
        table = layer_table(root, probes.spans)
        assert sum(table.values()) == pytest.approx(root.duration, rel=1e-9, abs=1e-12)


def test_timing_store_forwards_and_records():
    from repro.ckpt.store import MemoryStore

    probes = Probes()
    store = TimingStore(MemoryStore(), probes, "mem")
    with probes.root("ckpt"):
        store.put("a/b", b"xyz")
        assert store.get("a/b") == b"xyz"
        assert store.exists("a/b")
        assert store.list_keys("a/") == ["a/b"]
        store.sync()
        store.delete("a/b")
    names = [s.name for s in probes.spans if not s.attrs.get("root")]
    assert names == [
        "store.put", "store.get", "store.exists", "store.list", "store.sync", "store.delete"
    ]
    listed = next(s for s in probes.spans if s.name == "store.list")
    assert listed.attrs["nkeys"] == 1
    put = next(s for s in probes.spans if s.name == "store.put")
    assert put.attrs["nbytes"] == 3 and put.attrs["store"] == "mem"
