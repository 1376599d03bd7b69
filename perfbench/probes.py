"""Layer probes for the traced run, and the self-time tree built from them.

The benchmark never edits ``src/``.  In a traced round it records its own
spans around calls into each layer through three kinds of wrapper:

* :class:`TimingStore`, a forwarding :class:`~repro.ckpt.store.Store`
  that times every store operation;
* :meth:`Probes.install`, which rebinds the public functions and methods
  each layer calls (``wavelet_forward``, ``encode_coefficients``,
  ``container.unwrap_envelope``, ``decode_delta``, the slab executor's
  map, the zlib codec, ...) to timing wrappers, and
  :meth:`Probes.uninstall`, which puts the originals back;
* client-side timing of the service calls, read beside the service's own
  metrics registry.

A span's parent is the innermost span open in the same
:mod:`contextvars` context, so asyncio tasks and ``asyncio.to_thread``
calls inherit it.  Work that runs where no benchmark span is open -- the
service's server tasks and drain threads -- is recorded as *detached* and
charged to the root whose interval it overlaps.

Self time (:func:`self_times`) sweeps a root's interval and gives each
instant to the deepest spans open at that instant, split evenly among
them; detached spans count as deeper than any span of the root's own
tree, because the client is waiting on them.  For nested spans in one
thread this is exactly "a span minus the part its children cover", and
for any trace the self times of one root sum to the root's wall time.
The root's own self time is the ``unattributed`` row.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.ckpt.store import Store

#: Depth given to detached spans: deeper than any real nesting.
DETACHED_DEPTH = 1_000_000

UNATTRIBUTED = "unattributed"


@dataclass
class Span:
    """One timed call: ``[start, end]`` on the ``perf_counter`` clock."""

    span_id: int
    parent: int | None
    name: str
    layer: str
    start: float
    end: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Probes:
    """Span recorder plus the function rebinding of the traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.roots: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            f"perfbench_span_{id(self)}", default=None
        )
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording -------------------------------------------------------------

    def _open(self, name: str, layer: str, parent: int | None) -> Span:
        with self._lock:
            span_id = next(self._ids)
        return Span(span_id, parent, name, layer, time.perf_counter())

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        with self._lock:
            self.spans.append(span)

    def root(self, name: str, **attrs: Any) -> "_SpanScope":
        """Open a root span (one timed operation of the benchmark)."""
        return _SpanScope(self, name, "bench", attrs, is_root=True)

    def span(self, name: str, layer: str, **attrs: Any) -> "_SpanScope":
        return _SpanScope(self, name, layer, attrs, is_root=False)

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.roots = []

    # -- function rebinding ----------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        annotate: Callable[[Span, tuple, dict, Any], None] | None = None,
        kind: str = "function",
    ) -> None:
        """Rebind ``owner.attr`` to a timing wrapper (undone by :meth:`uninstall`).

        ``kind`` is ``"function"`` for a module attribute or instance
        method, ``"static"`` for a staticmethod and ``"async"`` for a
        coroutine method.  ``annotate(span, args, kwargs, result)`` may
        attach counts such as byte sizes to the span.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        func = raw.__func__ if isinstance(raw, staticmethod) else raw
        probes = self

        if kind == "async":

            @functools.wraps(func)
            async def wrapper(*args: Any, **kwargs: Any) -> Any:
                with probes.span(name, layer) as sp:
                    result = await func(*args, **kwargs)
                    if annotate is not None:
                        annotate(sp, args, kwargs, result)
                    return result

        else:

            @functools.wraps(func)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                with probes.span(name, layer) as sp:
                    result = func(*args, **kwargs)
                    if annotate is not None:
                        annotate(sp, args, kwargs, result)
                    return result

        self._saved.append((owner, attr, raw))
        setattr(owner, attr, staticmethod(wrapper) if kind == "static" else wrapper)

    def install(self) -> None:
        """Wrap the public calls of every measured layer."""
        from repro.ckpt import manager as ckpt_manager
        from repro.ckpt.manifest import ArrayEntry
        from repro.ckpt.temporal import TemporalEngine
        from repro.core import container, pipeline
        from repro.lossless.zlib_codec import ZlibCodec
        from repro.parallel.executor import MultiprocessExecutor
        from repro.service import ingest
        from repro.service.wire import ServiceClient

        # repro.core: the four Fig. 1 stages and their inverses
        self.wrap(pipeline.WaveletCompressor, "compress_with_stats", "core.compress", "core")
        self.wrap(
            pipeline.WaveletCompressor, "decompress", "core.decompress", "core",
            kind="static",
        )
        self.wrap(pipeline, "wavelet_forward", "core.wavelet", "core")
        for quantizer in ("proposed_quantize", "simple_quantize", "bounded_quantize"):
            self.wrap(pipeline, quantizer, "core.quantize", "core")
        self.wrap(pipeline, "high_band_mask", "core.quantize", "core")
        self.wrap(pipeline, "encode_coefficients", "core.encode", "core")
        self.wrap(container, "write_body", "core.format", "core", _annotate_out_bytes)
        self.wrap(container, "read_body", "core.parse", "core")
        self.wrap(container, "wrap_envelope", "core.envelope", "core")
        self.wrap(container, "unwrap_envelope", "core.unwrap", "core")
        self.wrap(pipeline, "decode_coefficients", "core.decode", "core")
        self.wrap(pipeline, "wavelet_inverse", "core.wavelet_inverse", "core")
        self.wrap(ckpt_manager, "chunked_compress", "core.chunked", "core")
        self.wrap(ckpt_manager, "chunked_decompress", "core.chunked_inverse", "core")
        # repro.lossless: deflate and inflate
        self.wrap(ZlibCodec, "compress", "lossless.deflate", "lossless", _annotate_io_bytes)
        self.wrap(ZlibCodec, "decompress", "lossless.inflate", "lossless", _annotate_io_bytes)
        # repro.ckpt: manager, manifest CRCs, temporal engine, group commit
        self.wrap(ckpt_manager.CheckpointManager, "checkpoint", "ckpt.checkpoint", "ckpt")
        self.wrap(ckpt_manager.CheckpointManager, "restore", "ckpt.restore", "ckpt")
        self.wrap(ArrayEntry, "verify", "ckpt.crc", "ckpt")
        self.wrap(ArrayEntry, "checksum", "ckpt.crc", "ckpt", kind="static")
        self.wrap(TemporalEngine, "encode", "temporal.encode", "ckpt", _annotate_keyframe)
        self.wrap(ckpt_manager, "decode_delta", "temporal.decode", "ckpt")
        self.wrap(ingest, "group_seal", "ckpt.group_seal", "ckpt")
        # repro.parallel: the slab executor's map
        self.wrap(
            MultiprocessExecutor, "compress_slabs", "parallel.map", "parallel",
            _annotate_slabs,
        )
        # repro.service: client-side request timing
        self.wrap(ServiceClient, "submit", "service.submit", "service", kind="async")
        self.wrap(ServiceClient, "restore", "service.restore", "service", kind="async")

    def uninstall(self) -> None:
        """Put every rebound name back, newest first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Probes":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()


class _SpanScope:
    """Context manager opening one span under the context's current span."""

    def __init__(
        self, probes: Probes, name: str, layer: str, attrs: dict, is_root: bool
    ) -> None:
        self._probes = probes
        self._name = name
        self._layer = layer
        self._attrs = attrs
        self._is_root = is_root
        self._token: contextvars.Token | None = None
        self._span: Span | None = None

    def __enter__(self) -> Span:
        probes = self._probes
        parent = None if self._is_root else probes._current.get()
        span = probes._open(self._name, self._layer, parent)
        span.attrs.update(self._attrs)
        if self._is_root:
            span.attrs["root"] = True
        elif parent is None:
            span.attrs["detached"] = True
        self._span = span
        self._token = probes._current.set(span.span_id)
        return span

    def __exit__(self, *exc_info: object) -> None:
        assert self._span is not None and self._token is not None
        self._probes._current.reset(self._token)
        self._probes._close(self._span)
        if self._is_root:
            with self._probes._lock:
                self._probes.roots.append(self._span)


def _annotate_out_bytes(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["out_bytes"] = len(result)


def _annotate_io_bytes(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["in_bytes"] = len(args[1])
    span.attrs["out_bytes"] = len(result)


def _annotate_keyframe(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["keyframe"] = bool(result.is_keyframe)


def _annotate_slabs(span: Span, args: tuple, kwargs: dict, result: Any) -> None:
    span.attrs["slab_bytes"] = sum(int(s.nbytes) for s in args[1])
    span.attrs["blob_bytes"] = sum(len(blob) for blob, _ in result)
    span.attrs["formatted_bytes"] = sum(stats.formatted_bytes for _, stats in result)
    span.attrs["compute_seconds"] = sum(
        stats.total_compression_seconds for _, stats in result
    )
    stage_seconds: dict[str, float] = {}
    for _, stats in result:
        for stage, seconds in stats.timings.items():
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + seconds
    span.attrs["stage_seconds"] = stage_seconds
    span.attrs["workers"] = getattr(args[0], "workers", 1)


class TimingStore(Store):
    """Forwarding store that records one span per operation."""

    def __init__(self, inner: Store, probes: Probes, label: str = "") -> None:
        self.inner = inner
        self.probes = probes
        self.label = label

    def put(self, key: str, data: bytes) -> None:
        with self.probes.span("store.put", "store", store=self.label, key=key,
                              nbytes=len(data)):
            self.inner.put(key, data)

    def get(self, key: str) -> bytes:
        with self.probes.span("store.get", "store", store=self.label, key=key) as sp:
            data = self.inner.get(key)
            sp.attrs["nbytes"] = len(data)
            return data

    def exists(self, key: str) -> bool:
        with self.probes.span("store.exists", "store", store=self.label, key=key):
            return self.inner.exists(key)

    def delete(self, key: str) -> None:
        with self.probes.span("store.delete", "store", store=self.label, key=key):
            self.inner.delete(key)

    def list_keys(self, prefix: str = "") -> list[str]:
        with self.probes.span("store.list", "store", store=self.label) as sp:
            keys = self.inner.list_keys(prefix)
            sp.attrs["nkeys"] = len(keys)
            return keys

    def sync(self) -> None:
        with self.probes.span("store.sync", "store", store=self.label):
            self.inner.sync()


# -- self time -------------------------------------------------------------------


def tree_of(root: Span, spans: Iterable[Span]) -> list[Span]:
    """``root``, its descendants, and the detached spans overlapping it."""
    by_id = {s.span_id: s for s in spans}
    by_id[root.span_id] = root
    members: list[Span] = [root]
    for s in by_id.values():
        if s is root or s.attrs.get("root"):
            continue
        top = s
        while top.parent is not None and top.parent in by_id:
            top = by_id[top.parent]
        if top is root or (
            top.attrs.get("detached") and top.start < root.end and top.end > root.start
        ):
            members.append(s)
    return members


def _depths(root: Span, members: list[Span]) -> dict[int, int]:
    by_id = {s.span_id: s for s in members}
    depths: dict[int, int] = {root.span_id: 0}

    def depth(s: Span) -> int:
        if s.span_id in depths:
            return depths[s.span_id]
        if s.parent in by_id:
            d = depth(by_id[s.parent]) + 1
        else:
            d = DETACHED_DEPTH if s.attrs.get("detached") else 0
        depths[s.span_id] = d
        return d

    for s in members:
        depth(s)
    return depths


def self_times(root: Span, members: list[Span]) -> dict[int, float]:
    """Self time of every span in ``members`` (which must include ``root``).

    Each instant of the root's interval goes to the deepest spans open at
    that instant, split evenly among them, so the values sum to the
    root's duration.  Spans are clipped to the root's interval.
    """
    depths = _depths(root, members)
    lo, hi = root.start, root.end
    clipped = [
        (max(s.start, lo), min(s.end, hi), s.span_id)
        for s in members
        if min(s.end, hi) > max(s.start, lo) or s is root
    ]
    cuts = sorted({t for a, b, _ in clipped for t in (a, b)})
    out = {s.span_id: 0.0 for s in members}
    for t0, t1 in zip(cuts, cuts[1:]):
        if t1 <= t0:
            continue
        open_ids = [i for a, b, i in clipped if a <= t0 and b >= t1]
        if not open_ids:
            continue
        deepest = max(depths[i] for i in open_ids)
        winners = [i for i in open_ids if depths[i] == deepest]
        share = (t1 - t0) / len(winners)
        for i in winners:
            out[i] += share
    return out


def layer_table(root: Span, spans: Iterable[Span]) -> dict[str, float]:
    """Self seconds per layer for one root, with the root as ``unattributed``."""
    members = tree_of(root, spans)
    selfs = self_times(root, members)
    table: dict[str, float] = {}
    for s in members:
        layer = UNATTRIBUTED if s is root else s.layer
        table[layer] = table.get(layer, 0.0) + selfs[s.span_id]
    return table
