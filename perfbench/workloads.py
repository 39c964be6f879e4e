"""The benchmark's workloads, and why each one exists.

Every workload is a fixed *suite* of batches.  A batch is one seeded
input, built by ``setup`` (timed as set-up) and run by ``execute`` (timed
as the measured phase).  Each batch builds everything from scratch, so
the routing cache starts cold the way it does for every user run.  The
runner workloads time the topology and the job trace as set-up;
``run_scheme_on_workload`` builds its routing table and control plane
itself, so that part (about 5 ms at 1024 hosts) lands in the measured
phase.  ``execute`` returns one :class:`OpResult` per operation; the
simulated-time results are deterministic for a given seed.

Layer -> end-to-end expectations, stated before measuring:

* ``routing.*`` moves ``ops_per_s`` on read-small-1024 most, less on
  read-contended-1024, least on dfs-mixed-64.  A path cache may raise
  ``peak_rss_mb`` and lower ``setup_s``.
* ``rate_engine.*``, ``fairshare.*``, ``simulator.*``, ``stats.*`` and
  ``sdn.flow_stats_*`` move ``ops_per_s`` on read-contended-1024 and
  little on read-small-1024.
* ``flowserver.*`` and ``cost.*`` move ``ops_per_s`` on read-small-1024
  and dfs-mixed-64.  The simulated-time metrics move only under a policy
  change.
* ``fs.*``, ``rpc.*``, ``kvstore.*`` and ``sim.step_self_s`` move
  ``ops_per_s``, the append latencies and ``read_p95_sim_s`` on
  dfs-mixed-64, and do no work on the other two workloads.

``consensus``, the coordinator/sharding code, ``telemetry``, ``faults``
and ``analysis`` do not run under the default configuration, so no
workload measures them.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.experiment import bootstrap_files
from repro.experiments.runner import SchemeRunConfig, run_scheme_on_workload
from repro.net.topology import three_tier
from repro.sim.randomness import RandomStreams
from repro.workload.generator import (
    LocalityDistribution,
    WorkloadConfig,
    generate_workload,
)
from repro.workload.zipf import ZipfSampler

MiB = 1024 * 1024
#: Every host's edge link; no read can beat it (all of a read's flows
#: end on the client's one downlink).
EDGE_BPS = 1e9


@dataclass(frozen=True)
class OpResult:
    """One operation's outcome, in simulated seconds."""

    op_id: str
    kind: str  # "read", "append", "create" or "stat"
    start: float  # when the operation was due
    end: float  # when it completed; NaN if it failed or never finished
    ok: bool
    #: Deterministic outcome summary (chosen replicas, new size, ...).
    detail: str


class Batch:
    """One prepared input: ``execute`` runs it, ``close`` tears it down."""

    def execute(self) -> List[OpResult]:
        raise NotImplementedError

    def check(self, results: List[OpResult]) -> List[str]:
        """Problems with the program's outputs (empty when correct)."""
        return []

    def close(self) -> None:
        """Release what set-up created (never timed)."""


@dataclass(frozen=True)
class Workload:
    name: str
    #: Batches in the suite; the simulated-time metrics pool all of them.
    batches: int
    #: Batches the traced run traces (a fixed count, so counts repeat).
    traced_batches: int
    #: Builds one batch from its seed: (sub_seed, scale, scratch dir).
    setup: Callable[[int, float, Path], Batch]
    #: The layers that should hold the largest traced self time, if the
    #: workload predicts one.
    dominant: Tuple[str, ...]
    #: Whether the workload runs the filesystem stack (fs, rpc, kvstore);
    #: the others must leave it idle.
    full_stack: bool


# ----------------------------------------------------------------------
# Analytic runner: repro.experiments.runner.run_scheme_on_workload
# ----------------------------------------------------------------------

PAPER_LOCALITY = LocalityDistribution(0.5, 0.3, 0.2)


class RunnerBatch(Batch):
    """A read trace through the ``mayflower`` scheme on 1024 hosts."""

    def __init__(self, seed: int, read_bytes: int, jobs: int) -> None:
        self.seed = seed
        self.read_bits = read_bytes * 8.0
        topology = three_tier(pods=16, racks_per_pod=16)
        self.config = SchemeRunConfig(topology=topology)
        self.workload = generate_workload(
            topology,
            WorkloadConfig(
                num_files=500,
                file_size_bytes=read_bytes,
                read_bytes=read_bytes,
                locality=PAPER_LOCALITY,
                arrival_rate_per_server=0.07,
                num_jobs=jobs,
            ),
            seed,
        )

    def execute(self) -> List[OpResult]:
        try:
            records = run_scheme_on_workload(
                "mayflower", self.workload, self.config, seed=self.seed
            )
        except RuntimeError as err:  # saturated: no job is reported done
            nan = float("nan")
            return [
                OpResult(job.job_id, "read", job.arrival_time, nan, False,
                         type(err).__name__)
                for job in self.workload.jobs
            ]
        return [
            OpResult(r.job_id, "read", r.arrival_time, r.completion_time, True,
                     f"{'+'.join(r.replica_choices)}/{r.flows}")
            for r in records
        ]

    def check(self, results: List[OpResult]) -> List[str]:
        problems = []
        if sorted(r.op_id for r in results) != sorted(
            job.job_id for job in self.workload.jobs
        ):
            problems.append(f"seed {self.seed}: job records do not match the trace")
        floor = self.read_bits / EDGE_BPS
        fast = [r.op_id for r in results if r.ok and r.end - r.start < floor * (1 - 1e-9)]
        if fast:
            problems.append(
                f"seed {self.seed}: {len(fast)} reads beat the {floor:.6f} s "
                f"line-rate floor, first {fast[0]}"
            )
        return problems


def runner_setup(read_bytes: int, jobs: int) -> Callable[[int, float, Path], Batch]:
    def setup(seed: int, scale: float, scratch: Path) -> Batch:
        return RunnerBatch(seed, read_bytes, max(1, round(jobs * scale)))

    return setup


# ----------------------------------------------------------------------
# Full stack: repro.cluster.Cluster on the paper's 64-host testbed
# ----------------------------------------------------------------------

MIXED_READ_BYTES = 16 * MiB
MIXED_APPEND_BYTES = 4 * MiB
#: Open-loop Poisson arrivals, operations per simulated second.
MIXED_RATE = 100.0
#: Operation mix (cumulative thresholds over one uniform draw).
MIXED_MIX = (("read", 0.25), ("append", 0.40), ("create", 0.60), ("stat", 1.0))
MIXED_READ_FILES = 64
MIXED_APPEND_FILES = 16
#: Simulated-time horizon after which unfinished operations count as failed.
MIXED_HORIZON_S = 3600.0


@dataclass(frozen=True)
class MixedOp:
    op_id: str
    kind: str
    due: float
    host: str
    target: str


class ClusterBatch(Batch):
    """Reads, appends, creates and stats against a full ``Cluster``.

    Set-up builds the cluster (with its nameserver database in a
    directory the benchmark owns), preloads the files with
    :func:`bootstrap_files` and draws the operation stream.  Execution
    feeds the arrivals one at a time, so the harness keeps a single
    pending arrival on the event heap.
    """

    def __init__(self, seed: int, ops: int, scratch: Path) -> None:
        self.seed = seed
        self.db_dir = scratch / f"db-{seed}"
        shutil.rmtree(self.db_dir, ignore_errors=True)
        self.db_dir.mkdir(parents=True)
        self.cluster = Cluster(
            ClusterConfig(scheme="mayflower", seed=seed, db_directory=self.db_dir)
        )
        files = bootstrap_files(
            self.cluster, MIXED_READ_FILES + MIXED_APPEND_FILES, MIXED_READ_BYTES
        )
        self.read_files = [f.name for f in files[:MIXED_READ_FILES]]
        self.append_files = [f.name for f in files[MIXED_READ_FILES:]]
        self.ops = self._draw_ops(seed, ops)

    def _draw_ops(self, seed: int, count: int) -> List[MixedOp]:
        rng = RandomStreams(seed).stream("perfbench-mixed")
        popularity = ZipfSampler(len(self.read_files), 1.1)
        hosts = sorted(self.cluster.topology.hosts)
        ops: List[MixedOp] = []
        now = 0.0
        for j in range(count):
            now += rng.expovariate(MIXED_RATE)
            draw = rng.random()
            kind = next(name for name, upper in MIXED_MIX if draw < upper)
            host = hosts[rng.randrange(len(hosts))]
            if kind == "append":
                target = self.append_files[rng.randrange(len(self.append_files))]
            elif kind == "create":
                target = f"new{j:06d}"
            else:
                target = self.read_files[popularity.sample(rng)]
            ops.append(MixedOp(f"op{j:06d}", kind, now, host, target))
        return ops

    def execute(self) -> List[OpResult]:
        cluster = self.cluster
        loop = cluster.loop
        clients: Dict[str, object] = {}
        done: Dict[str, OpResult] = {}

        def body(op: MixedOp):
            client = clients.get(op.host)
            if client is None:
                client = clients[op.host] = cluster.client(op.host)
            try:
                if op.kind == "read":
                    result = yield from client.read(
                        op.target, offset=0, length=MIXED_READ_BYTES, job_id=op.op_id
                    )
                    detail = f"{result.length}:" + "+".join(
                        sorted({t.replica for t in result.transfers})
                    )
                elif op.kind == "append":
                    size = yield from client.append(
                        op.target, MIXED_APPEND_BYTES, job_id=op.op_id
                    )
                    detail = str(size)
                elif op.kind == "create":
                    metadata = yield from client.create(op.target)
                    detail = "+".join(metadata.replicas)
                else:
                    metadata = yield from client.stat(op.target)
                    detail = str(metadata.size_bytes)
            except Exception as err:  # noqa: BLE001 - counted as failed
                done[op.op_id] = OpResult(op.op_id, op.kind, op.due, float("nan"),
                                          False, type(err).__name__)
                return
            done[op.op_id] = OpResult(op.op_id, op.kind, op.due, loop.now, True, detail)

        def arrive(index: int) -> None:
            op = self.ops[index]
            cluster.spawn(body(op), name=op.op_id)
            if index + 1 < len(self.ops):
                loop.call_at(self.ops[index + 1].due, arrive, index + 1)

        if self.ops:
            loop.call_at(self.ops[0].due, arrive, 0)
        while len(done) < len(self.ops) and loop.peek_time() is not None:
            if loop.now > MIXED_HORIZON_S:
                break
            loop.step()
        nan = float("nan")
        return [
            done.get(op.op_id) or OpResult(op.op_id, op.kind, op.due, nan, False,
                                           "unfinished")
            for op in self.ops
        ]

    def check(self, results: List[OpResult]) -> List[str]:
        problems = []
        floor = MIXED_READ_BYTES * 8.0 / EDGE_BPS
        # A read served by the client's own host moves no bytes over the
        # network; every other read ends on the client's one downlink.
        fast = [r.op_id for op, r in zip(self.ops, results)
                if r.ok and r.kind == "read"
                and op.host not in r.detail.split(":")[1].split("+")
                and r.end - r.start < floor * (1 - 1e-9)]
        if fast:
            problems.append(f"seed {self.seed}: {len(fast)} remote reads beat "
                            f"line rate, first {fast[0]}")
        nameserver = self.cluster.nameserver
        appended: Dict[str, int] = {name: 0 for name in self.append_files}
        for op, result in zip(self.ops, results):
            if not result.ok:
                continue
            if op.kind == "append":
                appended[op.target] += 1
            elif op.kind == "create" and nameserver.lookup(op.target)["size_bytes"] != 0:
                problems.append(f"seed {self.seed}: created {op.target} is not empty")
            elif op.kind == "stat" and result.detail != str(MIXED_READ_BYTES):
                problems.append(f"seed {self.seed}: stat {op.target} -> {result.detail}")
        for name, count in appended.items():
            want = MIXED_READ_BYTES + count * MIXED_APPEND_BYTES
            got = nameserver.lookup(name)["size_bytes"]
            if got != want:
                problems.append(f"seed {self.seed}: {name} is {got} bytes, want {want}")
        return problems

    def close(self) -> None:
        try:
            self.cluster.shutdown()
        finally:
            shutil.rmtree(self.db_dir, ignore_errors=True)


def cluster_setup(ops: int) -> Callable[[int, float, Path], Batch]:
    def setup(seed: int, scale: float, scratch: Path) -> Batch:
        return ClusterBatch(seed, max(1, round(ops * scale)), scratch)

    return setup


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # 8 MiB reads finish in about 67 ms, so few flows coexist and
        # nearly every job asks routing for a host pair it has not seen:
        # loads routing and Eq. 2 scoring; bypasses fs, rpc and kvstore.
        Workload(
            name="read-small-1024",
            batches=24,
            traced_batches=4,
            setup=runner_setup(8 * MiB, 150),
            dominant=("routing",),
            full_stack=False,
        ),
        # 256 MiB reads keep hundreds of flows sharing the core switches,
        # so rate components merge: loads the water-fill solver, the
        # dirty-component BFS, progress accounting and the stats polls of
        # 256 edge switches; bypasses fs, rpc and kvstore.
        Workload(
            name="read-contended-1024",
            batches=14,
            traced_batches=1,
            setup=runner_setup(256 * MiB, 200),
            dominant=("rate_engine", "fairshare", "stats", "sdn"),
            full_stack=False,
        ),
        # Open-loop reads, appends, creates and stats on the full 64-host
        # cluster: the only workload that runs sim processes, fs, rpc and
        # kvstore.  Writes share links and the Flowserver with reads, so an
        # append-path change that slows reads (or the reverse) shows here.
        # Routing is a small share.
        Workload(
            name="dfs-mixed-64",
            batches=6,
            traced_batches=1,
            setup=cluster_setup(1000),
            dominant=(),
            full_stack=True,
        ),
    )
}


def sub_seed(seed: int, index: int) -> int:
    """Seed of batch ``index`` of a run seeded with ``seed``."""
    return seed * 1000 + index
