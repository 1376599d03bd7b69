"""The four workloads: seeded inputs, timed rounds and output checks.

A round is a fixed list of operations on inputs made in set-up from the
run's seed, against an empty store, so every round of a run stores the
same bytes and makes the same errors.  The live arrays are filled with
NaN before each restore, so a restore that writes nothing fails its
checks instead of finding the last checkpoint's input.  Each timed
operation is followed by the reference op (:class:`RefOp`); the runner
divides one by the other.  Passing a :class:`~probes.Probes` to
:meth:`Workload.round` makes it a traced round: the store is wrapped in a
:class:`~probes.TimingStore` and every timed operation runs under a root
span.
"""

from __future__ import annotations

import asyncio
import contextlib
import multiprocessing
import os
import shutil
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.apps.climate import ClimateProxy
from repro.apps.fields import smooth_field
from repro.ckpt import ArrayRegistry, CheckpointManager, deserialize_array
from repro.ckpt.journal import CommitJournal
from repro.ckpt.store import DirectoryStore, MemoryStore, Store
from repro.config import CompressionConfig, TemporalConfig
from repro.core.pipeline import WaveletCompressor
from repro.obs.metrics import get_registry
from repro.service import (
    CheckpointIngestService,
    ServiceClient,
    ServiceServer,
    ShardedStore,
    TenantRegistry,
    TenantSpec,
)

import checks
from probes import Probes, TimingStore

NICAM_FIELDS = ("pressure", "temperature", "wind_u", "wind_v", "wind_w")

#: Bytes of the reference op's buffer: one NICAM field.
REF_BYTES = 1_572_864
REF_SEED = 0xEF


class RefOp:
    """The fixed reference operation every timing is divided by.

    zlib level-6 deflate and inflate, then a numpy sort, of a 1.5 MiB
    random walk of doubles: the same mix of deflate and memory traffic as
    the checkpoint path, measured apart from the program.  The walk is the
    same on every run: zlib's speed depends on the bytes it is given, and
    a walk drawn from the run seed moved the op by 40% between seeds.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(REF_SEED)
        self.values = np.cumsum(rng.standard_normal(REF_BYTES // 8))
        self.buf = self.values.tobytes()

    def __call__(self) -> float:
        t0 = time.perf_counter()
        packed = zlib.compress(self.buf, 6)
        unpacked = zlib.decompress(packed)
        ordered = np.sort(self.values)
        elapsed = time.perf_counter() - t0
        if len(unpacked) != len(self.buf) or ordered[0] > ordered[-1]:
            raise RuntimeError("reference op produced a wrong result")
        return elapsed


@dataclass
class RoundResult:
    """What one round measured and found."""

    ckpt_s: list[float] = field(default_factory=list)
    ckpt_ref_s: list[float] = field(default_factory=list)
    restore_s: list[float] = field(default_factory=list)
    restore_ref_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    stored_bytes: int = 0
    raw_bytes: int = 0
    rel_errs: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)


def dir_bytes(path: Path) -> int:
    """Bytes of every regular file under ``path``."""
    total = 0
    for dirpath, _dirs, files in os.walk(path):
        for name in files:
            total += os.path.getsize(os.path.join(dirpath, name))
    return total


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _vm_hwm_kb(pid: int) -> int:
    """Peak resident set of a live process, from ``/proc/<pid>/status``."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class Workload:
    """Base class: set-up, rounds, teardown."""

    name = ""

    def __init__(self, workdir: Path, seed: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.ref = RefOp()
        self.children_hwm_kb = 0

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, probes: Probes | None) -> RoundResult:
        raise NotImplementedError

    def close(self) -> None:
        """Stop everything the workload started."""

    def _timed(
        self,
        res: RoundResult,
        kind: str,
        probes: Probes | None,
        op: Callable[[], Any],
    ) -> Any:
        """Run one timed op, then the reference op; record both."""
        res.attempted += 1
        t0 = time.perf_counter()
        try:
            if probes is None:
                out = op()
            else:
                with probes.root(kind):
                    out = op()
        except Exception as exc:  # an op failure is counted, not fatal
            res.failed += 1
            res.problems.append(f"{kind} failed: {type(exc).__name__}: {exc}")
            return None
        elapsed = time.perf_counter() - t0
        ref = self.ref()
        getattr(res, f"{kind}_s").append(elapsed)
        getattr(res, f"{kind}_ref_s").append(ref)
        return out


#: Seed of the climate proxy's trajectory and of the bulk field.
MODEL_SEED = 0


def roll_offset(seed: int, rows: int) -> int:
    """Rows to roll the model's fields by for run seed ``seed``.

    The run seed rolls one fixed model state around its periodic leading
    axis by whole Haar blocks.  Every seed then compresses different bytes
    with the same spectrum, so the rate and error stay steady across seeds
    while the timings see different inputs; drawing a fresh random state
    per seed moved the mean error by half of its median between seeds.
    """
    block = 2 ** int(CompressionConfig().levels)
    rng = np.random.default_rng([seed, rows])
    return block * int(rng.integers(0, rows // block))


def nicam_generations(seed: int, count: int) -> list[dict[str, np.ndarray]]:
    """``count`` consecutive climate-proxy states, rolled for ``seed``."""
    app = ClimateProxy(seed=MODEL_SEED)
    shift = roll_offset(seed, app.shape[0])
    gens = []
    for _ in range(count):
        app.step()
        gens.append({f: np.roll(getattr(app, f), shift, axis=0) for f in NICAM_FIELDS})
    return gens


class NicamIndep(Workload):
    """The paper's path: five NICAM fields, default lossy config, batch store."""

    name = "nicam-indep"
    generations = 8

    def manager_kwargs(self) -> dict[str, Any]:
        return {}

    def setup(self) -> None:
        self.gens = nicam_generations(self.seed, self.generations)
        self.levels = int(CompressionConfig().levels)
        self.lowbands = [
            {f: checks.haar_lowband(g[f], self.levels) for f in NICAM_FIELDS}
            for g in self.gens
        ]
        self.registry = ArrayRegistry()
        self.buffers = {f: np.empty_like(self.gens[0][f]) for f in NICAM_FIELDS}
        for f, buf in self.buffers.items():
            self.registry.register(f, buf)
        # one discarded warm-up checkpoint and restore
        warm = fresh_dir(self.workdir / "warm")
        self._load(0)
        with CheckpointManager(
            self.registry, DirectoryStore(str(warm), durability="batch"),
            **self.manager_kwargs(),
        ) as mgr:
            mgr.checkpoint(0)
            mgr.restore(0)
        shutil.rmtree(warm)

    def _load(self, g: int) -> None:
        for f, buf in self.buffers.items():
            np.copyto(buf, self.gens[g][f])

    def _poison(self) -> None:
        """Fill the live arrays with NaN, so a restore that writes nothing fails."""
        for buf in self.buffers.values():
            buf.fill(np.nan)

    def check_restored(self, g: int, res: RoundResult) -> None:
        for f in NICAM_FIELDS:
            problem = checks.check_lowband(
                f"gen {g} {f}", self.lowbands[g][f], self.buffers[f], self.levels
            )
            if problem:
                res.problems.append(problem)
            res.rel_errs.append(checks.mean_rel_err(self.gens[g][f], self.buffers[f]))

    def round(self, probes: Probes | None) -> RoundResult:
        res = RoundResult()
        path = fresh_dir(self.workdir / "store")
        store: Store = DirectoryStore(str(path), durability="batch")
        if probes is not None:
            store = TimingStore(store, probes)
        with CheckpointManager(self.registry, store, **self.manager_kwargs()) as mgr:
            for g in range(self.generations):
                self._load(g)
                self._timed(res, "ckpt", probes, lambda: mgr.checkpoint(g))
            for g in range(self.generations):
                self._poison()
                if self._timed(res, "restore", probes, lambda: mgr.restore(g)):
                    self.check_restored(g, res)
        res.stored_bytes = dir_bytes(path)
        res.raw_bytes = self.generations * sum(a.nbytes for a in self.gens[0].values())
        return res


class NicamTemporal(NicamIndep):
    """The same generations through the temporal (delta) mode."""

    name = "nicam-temporal"

    def manager_kwargs(self) -> dict[str, Any]:
        return {"temporal": TemporalConfig()}

    def check_restored(self, g: int, res: RoundResult) -> None:
        cfg = TemporalConfig()
        bound = cfg.error_bound * (1.0 + cfg.drift_slack)
        for f in NICAM_FIELDS:
            problem = checks.check_error_bound(
                f"gen {g} {f}", self.gens[g][f], self.buffers[f], bound
            )
            if problem:
                res.problems.append(problem)
            res.rel_errs.append(checks.mean_rel_err(self.gens[g][f], self.buffers[f]))


class BulkChunked(Workload):
    """One large smooth array through the chunked container and 2 workers."""

    name = "bulk-chunked"
    rows, cols = 3072, 1024  # 24 MiB of float64
    generations = 3
    workers = 2

    def setup(self) -> None:
        field = smooth_field(
            (self.rows, self.cols), MODEL_SEED, amplitude=25.0, noise=0.002
        )
        self.base = np.roll(field, roll_offset(self.seed, self.rows), axis=0)
        self.levels = int(CompressionConfig().levels)
        self.lowbands = [
            checks.haar_lowband(self._gen(g), self.levels)
            for g in range(self.generations)
        ]
        self.buffer = np.empty_like(self.base)
        self.registry = ArrayRegistry()
        self.registry.register("field", self.buffer)
        self.path = fresh_dir(self.workdir / "store")
        self.store = DirectoryStore(str(self.path), durability="batch")
        # One manager for the whole run keeps its worker pool warm; each
        # round deletes its generations, so every round starts empty.
        self.mgr = CheckpointManager(self.registry, self.store, workers=self.workers)
        self._load(0)
        self.mgr.checkpoint(0)  # discarded warm-up; starts the pool
        self.mgr.restore(0)
        self.mgr.delete(0)

    def _gen(self, g: int) -> np.ndarray:
        return self.base * (1.0 + 0.01 * g) + g

    def _load(self, g: int) -> None:
        np.copyto(self.buffer, self._gen(g))

    def round(self, probes: Probes | None) -> RoundResult:
        res = RoundResult()
        mgr = self.mgr
        if probes is not None:
            mgr.store = TimingStore(self.store, probes)
            mgr.journal = CommitJournal(mgr.store)
        try:
            for g in range(self.generations):
                self._load(g)
                self._timed(res, "ckpt", probes, lambda: mgr.checkpoint(g))
            for g in range(self.generations):
                self.buffer.fill(np.nan)  # a restore that writes nothing fails
                if self._timed(res, "restore", probes, lambda: mgr.restore(g)):
                    self._check(g, res)
            res.stored_bytes = dir_bytes(self.path)
            res.raw_bytes = self.generations * self.base.nbytes
            self._record_children()
            for g in mgr.steps():
                mgr.delete(g)
        finally:
            mgr.store = self.store
            mgr.journal = CommitJournal(self.store)
        if probes is not None:
            res.extra["serial_compress_s"] = self._serial_compress_seconds()
        return res

    def _check(self, g: int, res: RoundResult) -> None:
        problem = checks.check_lowband(
            f"gen {g}", self.lowbands[g], self.buffer, self.levels
        )
        if problem:
            res.problems.append(problem)
        res.rel_errs.append(checks.mean_rel_err(self._gen(g), self.buffer))

    def _serial_compress_seconds(self) -> float:
        """Serial ``chunked_compress`` of generation 0, for the speed-up."""
        from repro.core.chunked import chunked_compress

        arr = self._gen(0)
        t0 = time.perf_counter()
        chunked_compress(arr, self.mgr.config, chunk_rows=self.mgr.chunk_rows)
        return time.perf_counter() - t0

    def _record_children(self) -> None:
        """Add the workers' peak RSS while they are still alive."""
        hwm = sum(_vm_hwm_kb(p.pid) for p in multiprocessing.active_children())
        self.children_hwm_kb = max(self.children_hwm_kb, hwm)

    def close(self) -> None:
        mgr = getattr(self, "mgr", None)
        if mgr is not None:
            self._record_children()
            mgr.close()


class ServiceIngest(Workload):
    """Two tenants submitting pre-compressed generations over the wire."""

    name = "service-ingest"
    tenants = ("t0", "t1")
    distinct_gens = 4
    steps = 8
    shards = 4
    replication = 2
    socket_name = "svc.sock"  # relative: AF_UNIX paths are short

    def setup(self) -> None:
        self.gens = nicam_generations(self.seed, self.distinct_gens)
        compressor = WaveletCompressor(CompressionConfig())
        self.blobs = [
            {f: compressor.compress(g[f]) for f in NICAM_FIELDS} for g in self.gens
        ]
        self.raw_per_gen = sum(a.nbytes for a in self.gens[0].values())
        self._decoded: dict[bytes, np.ndarray] = {}
        asyncio.run(self._session(None, RoundResult(), steps=1))

    def round(self, probes: Probes | None) -> RoundResult:
        res = RoundResult()
        asyncio.run(self._session(probes, res, steps=self.steps))
        return res

    def _decode(self, blob: bytes) -> np.ndarray:
        """Decode a restored blob; identical bytes decode identically."""
        key = bytes(blob)
        if key not in self._decoded:
            self._decoded[key] = deserialize_array(key)
        return self._decoded[key]

    async def _session(
        self, probes: Probes | None, res: RoundResult, *, steps: int
    ) -> None:
        # In-memory shards stand in for a memory-backed filesystem: on the
        # shared disk, file creation and fsync moved the median submit by
        # 12-28% between runs; in memory it moves by about 2%.
        inners: list[MemoryStore] = []

        def store_at(name: str) -> Store:
            inners.append(MemoryStore())
            return inners[-1] if probes is None else TimingStore(inners[-1], probes, name)

        store = ShardedStore(
            {f"shard-{i:02d}": store_at(f"shard-{i:02d}") for i in range(self.shards)},
            placement=store_at("_placement"),
            replication=self.replication,
        )
        service = CheckpointIngestService(
            store, TenantRegistry([TenantSpec(t) for t in self.tenants])
        )
        sock = self.workdir / self.socket_name
        with contextlib.suppress(FileNotFoundError):
            sock.unlink()
        await service.start()
        server = ServiceServer(service, self.socket_name)
        clients: list[ServiceClient] = []
        try:
            await server.start()
            for _ in self.tenants:
                clients.append(await ServiceClient(self.socket_name).connect())
            if probes is not None:
                get_registry().reset()
            await self._submit_all(probes, res, clients, steps)
            await self._restore_all(probes, res, clients, steps)
            if probes is not None:
                res.extra["stats"] = service.stats()
                reg = get_registry()
                res.extra["server_submit_p50_s"] = reg.histogram(
                    "service.ingest_seconds"
                ).quantile(0.5)
                res.extra["server_request_p50_s"] = reg.histogram(
                    "service.request_seconds", op="submit"
                ).quantile(0.5)
        finally:
            for c in clients:
                await c.close()
            await server.close()
            await service.close()
        res.stored_bytes = sum(inner.total_bytes for inner in inners)
        res.raw_bytes = steps * len(self.tenants) * self.raw_per_gen
        res.extra["submitted_bytes"] = steps * len(self.tenants) * sum(
            len(b) for b in self.blobs[0].values()
        )

    async def _pair(
        self, probes: Probes | None, kind: str, calls: list[Callable[[], Any]]
    ) -> list[tuple[float, Any]]:
        """Run one closed-loop request per client concurrently, each timed."""

        async def one(call: Callable[[], Any]) -> tuple[float, Any]:
            t0 = time.perf_counter()
            try:
                out = await call()
            except Exception as exc:  # counted as a failed op
                return -1.0, exc
            return time.perf_counter() - t0, out

        if probes is None:
            return list(await asyncio.gather(*(one(c) for c in calls)))
        with probes.root(kind):
            return list(await asyncio.gather(*(one(c) for c in calls)))

    def _record(self, res: RoundResult, kind: str, results: list) -> list:
        # Measured between rounds of requests, with none in flight, so
        # the reference op never stalls the other client.
        ref = self.ref()
        ok = []
        for elapsed, out in results:
            res.attempted += 1
            if elapsed < 0:
                res.failed += 1
                res.problems.append(f"{kind} failed: {type(out).__name__}: {out}")
                ok.append(None)
                continue
            getattr(res, f"{kind}_s").append(elapsed)
            getattr(res, f"{kind}_ref_s").append(ref)
            ok.append(out)
        return ok

    async def _submit_all(self, probes, res, clients, steps) -> None:
        for s in range(steps):
            blobs = self.blobs[s % self.distinct_gens]
            calls = [
                (lambda c=c, t=t: c.submit(t, s, blobs))
                for c, t in zip(clients, self.tenants)
            ]
            self._record(res, "ckpt", await self._pair(probes, "ckpt", calls))

    async def _restore_all(self, probes, res, clients, steps) -> None:
        for s in range(steps):
            g = s % self.distinct_gens
            calls = [
                (lambda c=c, t=t: c.restore(t, s))
                for c, t in zip(clients, self.tenants)
            ]
            outs = self._record(
                res, "restore", await self._pair(probes, "restore", calls)
            )
            for t, got in zip(self.tenants, outs):
                if got is None:
                    continue
                label = f"{t} step {s}"
                problem = checks.check_identical(label, self.blobs[g], got)
                if problem:
                    res.problems.append(problem)
                    continue
                for f in NICAM_FIELDS:
                    decoded = self._decode(got[f])
                    problem = checks.check_shape(
                        f"{label} {f}", decoded, self.gens[g][f].shape
                    )
                    if problem:
                        res.problems.append(problem)
                        continue
                    res.rel_errs.append(checks.mean_rel_err(self.gens[g][f], decoded))


WORKLOADS: dict[str, type[Workload]] = {
    w.name: w for w in (NicamIndep, NicamTemporal, BulkChunked, ServiceIngest)
}
