"""Per-layer metrics and self-time tables from a traced run.

Every metric named in ``BENCHMARK.json`` is reported on every workload.
A layer the workload does not pass through reads 0, which is the
prediction for it: the README maps each metric to the end-to-end metric
it should move and the workloads it should move on.

"Per generation" figures divide write-side sums by the checkpoints taken
and read-side sums by the restores made; figures that span both sides
divide by the checkpoints (each generation is written once and restored
once).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable

from probes import UNATTRIBUTED, Span, layer_table, self_times, tree_of
from stats import normalise, percentile, tail_percentile

LAYERS = ("ckpt", "core", "lossless", "parallel", "store", "service", UNATTRIBUTED)

#: The pipeline's own stage names (CompressionStats.timings), as measured
#: inside the slab executor's worker processes.
_WORKER_STAGES = {
    "core.wavelet": "wavelet",
    "core.quantize": "quantization",
    "core.encode": "encoding",
    "core.format": "formatting",
    "lossless.deflate": "backend",
}


@dataclass
class OpTrace:
    """The spans of every root of one kind (``ckpt`` or ``restore``)."""

    roots: list[Span]
    members: list[list[Span]]
    selfs: list[dict[int, float]]
    ops: int  # client operations the roots cover

    @classmethod
    def build(cls, kind: str, spans: list[Span], roots: list[Span], ops: int) -> "OpTrace":
        mine = [r for r in roots if r.name == kind]
        members = [tree_of(r, spans) for r in mine]
        selfs = [self_times(r, m) for r, m in zip(mine, members)]
        return cls(mine, members, selfs, ops)

    def spans(self, name: str | None = None) -> Iterable[tuple[Span, float]]:
        """``(span, self seconds)`` of every member named ``name``."""
        for members, selfs in zip(self.members, self.selfs):
            for s in members:
                if s.attrs.get("root"):
                    continue
                if name is None or s.name == name:
                    yield s, selfs[s.span_id]

    def self_ms(self, name: str) -> float:
        return 1e3 * sum(sec for _, sec in self.spans(name))

    def count(self, name: str) -> int:
        return sum(1 for _ in self.spans(name))

    def per_op(self, value: float) -> float:
        return value / self.ops if self.ops else 0.0

    def layer_totals(self) -> dict[str, float]:
        """Self seconds per layer summed over roots, plus the roots' wall time."""
        totals = {layer: 0.0 for layer in LAYERS}
        wall = 0.0
        for root, members in zip(self.roots, self.members):
            for layer, sec in layer_table(root, members).items():
                totals[layer] = totals.get(layer, 0.0) + sec
            wall += root.duration
        totals["_wall"] = wall
        return totals


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def _stage_ms(ck: OpTrace, stage: str) -> float:
    """Stage time measured in the executor's workers (bulk-chunked)."""
    return 1e3 * sum(
        s.attrs.get("stage_seconds", {}).get(stage, 0.0)
        for s, _ in ck.spans("parallel.map")
    )


def compute(
    spans: list[Span],
    roots: list[Span],
    traced: list,
    untraced: list,
) -> tuple[dict[str, float], dict[str, dict[str, float]]]:
    """Per-layer metric values and the per-op-kind layer tables."""
    n_ck = sum(len(r.ckpt_s) for r in traced)
    n_rs = sum(len(r.restore_s) for r in traced)
    ck = OpTrace.build("ckpt", spans, roots, n_ck)
    rs = OpTrace.build("restore", spans, roots, n_rs)
    m: dict[str, float] = {}

    def core_ms(name: str) -> float:
        stage = _WORKER_STAGES.get(name)
        extra = _stage_ms(ck, stage) if stage else 0.0
        return ck.per_op(ck.self_ms(name) + extra)

    m["core.wavelet_ms"] = core_ms("core.wavelet")
    m["core.quantize_ms"] = core_ms("core.quantize")
    m["core.encode_ms"] = core_ms("core.encode")
    m["core.format_ms"] = core_ms("core.format")
    m["core.decode_ms"] = rs.per_op(rs.self_ms("core.decode"))
    m["core.wavelet_inverse_ms"] = rs.per_op(rs.self_ms("core.wavelet_inverse"))
    body = sum(s.attrs.get("out_bytes", 0) for s, _ in ck.spans("core.format"))
    body += sum(s.attrs.get("formatted_bytes", 0) for s, _ in ck.spans("parallel.map"))
    m["core.body_bytes"] = ck.per_op(body)

    m["lossless.deflate_ms"] = core_ms("lossless.deflate")
    d_in = sum(s.attrs.get("in_bytes", 0) for s, _ in ck.spans("lossless.deflate"))
    d_out = sum(s.attrs.get("out_bytes", 0) for s, _ in ck.spans("lossless.deflate"))
    for s, _ in ck.spans("parallel.map"):
        d_in += s.attrs.get("formatted_bytes", 0)
        d_out += s.attrs.get("blob_bytes", 0)
    m["lossless.deflate_ratio"] = d_in / d_out if d_out else 0.0
    m["lossless.inflate_ms"] = rs.per_op(rs.self_ms("lossless.inflate"))
    blobs = rs.count("core.decompress") + rs.count("temporal.decode")
    m["lossless.inflates_per_array"] = (
        rs.count("lossless.inflate") / blobs if blobs else 0.0
    )

    m["ckpt.write_self_ms"] = ck.per_op(ck.self_ms("ckpt.checkpoint"))
    m["ckpt.read_self_ms"] = rs.per_op(rs.self_ms("ckpt.restore"))
    m["ckpt.crc_ms"] = ck.per_op(ck.self_ms("ckpt.crc") + rs.self_ms("ckpt.crc"))
    m["ckpt.keys_listed_per_restore"] = rs.per_op(
        sum(s.attrs.get("nkeys", 0) for s, _ in rs.spans("store.list"))
    )
    m["ckpt.manifest_reads_per_restore"] = rs.per_op(
        sum(
            1
            for s, _ in rs.spans("store.get")
            if str(s.attrs.get("key", "")).endswith("manifest.json")
        )
    )

    m["temporal.encode_ms"] = ck.per_op(ck.self_ms("temporal.encode"))
    m["temporal.decode_ms"] = rs.per_op(rs.self_ms("temporal.decode"))
    m["temporal.deltas_per_restore"] = rs.per_op(rs.count("temporal.decode"))
    keyframes = sum(1 for s, _ in ck.spans("temporal.encode") if s.attrs.get("keyframe"))
    m["temporal.keyframes"] = keyframes / len(traced) if traced else 0.0

    maps = [s for s, _ in ck.spans("parallel.map")]
    serial = [r.extra["serial_compress_s"] for r in traced if "serial_compress_s" in r.extra]
    map_median = _median([s.duration for s in maps])
    m["parallel.speedup"] = _median(serial) / map_median if maps and serial else 0.0
    m["parallel.overhead_ms"] = ck.per_op(
        1e3 * sum(
            s.duration - s.attrs["compute_seconds"] / max(1, s.attrs["workers"])
            for s in maps
        )
    )
    m["parallel.ipc_bytes"] = ck.per_op(
        sum(s.attrs["slab_bytes"] + s.attrs["blob_bytes"] for s in maps)
    )

    for op in ("put", "get", "sync", "list"):
        m[f"store.{op}_ms"] = ck.per_op(
            ck.self_ms(f"store.{op}") + rs.self_ms(f"store.{op}")
        )
    m["store.ops_per_ckpt"] = ck.per_op(
        sum(1 for s, _ in ck.spans() if s.layer == "store")
    )
    m["store.ops_per_restore"] = rs.per_op(
        sum(1 for s, _ in rs.spans() if s.layer == "store")
    )
    written = sum(
        s.attrs.get("nbytes", 0)
        for t in (ck, rs)
        for s, _ in t.spans("store.put")
    )
    m["store.bytes_written"] = ck.per_op(written)

    svc = [r for r in traced if "stats" in r.extra]
    if svc:
        client_submit_ms = 1e3 * _median([t for r in svc for t in r.ckpt_s])
        m["service.server_submit_p50_ms"] = 1e3 * _median(
            [r.extra["server_submit_p50_s"] for r in svc]
        )
        m["service.wire_ms"] = client_submit_ms - 1e3 * _median(
            [r.extra["server_request_p50_s"] for r in svc]
        )
        shard_puts = [
            (s, sec)
            for s, sec in ck.spans("store.put")
            if str(s.attrs.get("store", "")).startswith("shard")
        ]
        m["service.shard_put_ms"] = ck.per_op(1e3 * sum(sec for _, sec in shard_puts))
        m["service.restore_ms"] = 1e3 * _median([t for r in svc for t in r.restore_s])
        m["service.batch_mean"] = _median([r.extra["stats"]["mean_batch"] for r in svc])
        m["service.syncs_per_ack"] = ck.per_op(
            sum(
                1
                for s, _ in ck.spans("store.sync")
                if str(s.attrs.get("store", "")).startswith("shard")
            )
        )
        submitted = sum(r.extra["submitted_bytes"] for r in svc)
        ck_written = sum(s.attrs.get("nbytes", 0) for s, _ in ck.spans("store.put"))
        m["service.write_amplification"] = ck_written / submitted if submitted else 0.0
    else:
        for name in (
            "server_submit_p50_ms", "wire_ms", "shard_put_ms", "restore_ms",
            "batch_mean", "syncs_per_ack", "write_amplification",
        ):
            m[f"service.{name}"] = 0.0

    # Untimed-by-probes rounds of the same run: machine speed, raw times,
    # the submit tail, and the tracing overhead against the traced rounds.
    u_ck = [t for r in untraced for t in r.ckpt_s]
    u_rs = [t for r in untraced for t in r.restore_s]
    u_refs = [t for r in untraced for t in r.ckpt_ref_s + r.restore_ref_s]
    m["ref.op_ms"] = 1e3 * _median(u_refs)
    m["raw.ckpt_p50_ms"] = 1e3 * _median(u_ck)
    m["raw.restore_p50_ms"] = 1e3 * _median(u_rs)
    m["service.submit_p90_ref"] = 0.0
    if svc:
        norm = normalise(
            [t for r in untraced + traced for t in r.ckpt_s],
            [t for r in untraced + traced for t in r.ckpt_ref_s],
        )
        if tail_percentile(len(norm)) is not None and tail_percentile(len(norm)) >= 90:
            m["service.submit_p90_ref"] = percentile(norm, 90.0)

    def norm_median(rounds: list, kind: str) -> float:
        ops = [t for r in rounds for t in getattr(r, f"{kind}_s")]
        refs = [t for r in rounds for t in getattr(r, f"{kind}_ref_s")]
        return _median(normalise(ops, refs)) if ops else 0.0

    base = norm_median(untraced, "ckpt") + norm_median(untraced, "restore")
    with_probes = norm_median(traced, "ckpt") + norm_median(traced, "restore")
    m["obs.trace_overhead_pct"] = 100.0 * (with_probes / base - 1.0) if base else 0.0

    tables = {"ckpt": ck.layer_totals(), "restore": rs.layer_totals()}
    for kind, t in tables.items():
        t["_ops"] = float((ck if kind == "ckpt" else rs).ops)
        t["_roots"] = float(len((ck if kind == "ckpt" else rs).roots))
    return m, tables


def render_tables(tables: dict[str, dict[str, float]]) -> tuple[list[str], list[str]]:
    """Text rows of the self-time tables, and any row sums that do not add up."""
    lines = []
    problems = []
    for kind, t in tables.items():
        roots = int(t["_roots"])
        wall = t["_wall"]
        lines.append(f"self time per layer, {kind} ({roots} roots, {int(t['_ops'])} ops):")
        total = 0.0
        for layer in LAYERS:
            sec = t.get(layer, 0.0)
            total += sec
            share = 100.0 * sec / wall if wall else 0.0
            per_root = 1e3 * sec / roots if roots else 0.0
            lines.append(f"  {layer:<13} {per_root:10.3f} ms/root {share:6.2f} %")
        lines.append(f"  {'root wall':<13} {1e3 * wall / roots if roots else 0.0:10.3f} ms/root")
        if abs(total - wall) > 1e-9 * max(1.0, roots):
            problems.append(
                f"{kind}: layer rows sum to {total:.9f} s but roots span {wall:.9f} s"
            )
    return lines, problems
