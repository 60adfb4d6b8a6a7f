"""MATRIX — distributed many-task execution framework (§V.C).

Two runtimes over the same work-stealing policy:

* :class:`MatrixSimulation` — DES: N executors with local queues, adaptive
  work stealing between them, and per-task ZHT interactions (submit,
  status update on start, status update on completion) charged at the
  calibrated ZHT latency for the deployment scale.  Used for the
  Figure 18/19 reproductions, where throughput "tracked well the increase
  in ZHT performance".
* :class:`MatrixOnZHT` — real execution: tasks run as Python callables on
  a thread pool per executor, with task state genuinely stored in and
  monitored through a live ZHT deployment (the integration the paper
  describes: "ZHT to submit tasks and monitor the task execution progress
  by the clients").
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque

from ..api import ZHT, LocalCluster
from ..baselines.falkon import SchedulerResult
from ..sim.analytic import predicted_latency_s
from ..sim.engine import Environment
from .task import Task, TaskState
from .work_stealing import StealPolicy, execute_steal, pick_most_loaded


class MatrixSimulation:
    """DES model of MATRIX on an HEC machine.

    Parameters
    ----------
    num_executors:
        Compute nodes running MATRIX executors (the paper uses 1 executor
        per node, 4 cores each on the Blue Gene/P).
    cores_per_executor:
        Concurrent tasks per executor.
    zht_ops_per_task:
        ZHT round trips on a task's critical path (submit + running-state
        update + completion update = 3).
    zht_latency_s:
        Per-ZHT-op latency; defaults to the calibrated model at this
        scale.
    task_overhead_s:
        Fixed executor-side cost per task (fork/exec, logging) — the C
        prototype's measured constant.
    """

    def __init__(
        self,
        num_executors: int,
        *,
        cores_per_executor: int = 4,
        zht_ops_per_task: int = 3,
        zht_latency_s: float | None = None,
        task_overhead_s: float = 0.0,
        steal_victims: int = 2,
        seed: int = 0,
    ):
        if num_executors <= 0:
            raise ValueError("num_executors must be positive")
        self.num_executors = num_executors
        self.cores_per_executor = cores_per_executor
        self.zht_ops_per_task = zht_ops_per_task
        self.zht_latency_s = (
            zht_latency_s
            if zht_latency_s is not None
            else predicted_latency_s(num_executors)
        )
        self.task_overhead_s = task_overhead_s
        self.steal_victims = steal_victims
        self.seed = seed
        self.steals_attempted = 0
        self.steals_successful = 0
        self.tasks_stolen = 0

    def run(
        self,
        num_tasks: int,
        task_duration_s: float = 0.0,
        *,
        submit_to: str = "round-robin",  # or "one" (all tasks on node 0)
    ) -> SchedulerResult:
        env = Environment()
        queues: list[deque] = [deque() for _ in range(self.num_executors)]
        remaining = [num_tasks]

        # Submission: "the client could submit tasks to arbitrary node, or
        # to all the nodes in a balanced distribution".
        if submit_to == "round-robin":
            for i in range(num_tasks):
                queues[i % self.num_executors].append(task_duration_s)
        elif submit_to == "one":
            for _ in range(num_tasks):
                queues[0].append(task_duration_s)
        else:
            raise ValueError(f"unknown submission mode {submit_to!r}")

        def executor(eid: int):
            policy = StealPolicy(
                eid,
                self.num_executors,
                num_victims=self.steal_victims,
                rng=random.Random((self.seed << 16) ^ eid),
            )
            my_queue = queues[eid]
            while remaining[0] > 0:
                if my_queue:
                    batch = []
                    for _ in range(min(self.cores_per_executor, len(my_queue))):
                        batch.append(my_queue.popleft())
                    # ZHT traffic for the batch's tasks is concurrent with
                    # execution on other cores; charge the critical path
                    # of one task's ZHT ops plus the longest task.
                    yield env.timeout(
                        self.zht_ops_per_task * self.zht_latency_s
                        + self.task_overhead_s
                    )
                    yield env.timeout(max(batch))
                    remaining[0] -= len(batch)
                    policy.on_steal_success()
                    continue
                # Idle: try to steal.
                victims = policy.choose_victims()
                self.steals_attempted += 1
                # Probing victims costs one ZHT-scale round trip each.
                yield env.timeout(self.zht_latency_s * max(1, len(victims)))
                lengths = {v: len(queues[v]) for v in victims}
                victim = pick_most_loaded(lengths)
                if victim is None:
                    backoff = policy.on_steal_failure()
                    yield env.timeout(backoff)
                    continue
                moved = execute_steal(queues[victim], my_queue)
                if moved:
                    self.steals_successful += 1
                    self.tasks_stolen += moved
                    policy.on_steal_success()

        for eid in range(self.num_executors):
            env.process(executor(eid))
        env.run()
        return SchedulerResult(
            system="matrix",
            num_workers=self.num_executors * self.cores_per_executor,
            tasks=num_tasks,
            task_duration_s=task_duration_s,
            makespan_s=env.now,
        )


class MatrixOnZHT:
    """Real MATRIX: callables executed on threads, state kept in ZHT.

    Built on a :class:`~repro.api.LocalCluster` (or any object exposing
    ``client() -> ZHT``); every task's lifecycle is recorded under
    ``task:<id>`` with :meth:`~repro.matrix.task.Task.status_record`, so
    any client can monitor progress with plain lookups.
    """

    def __init__(self, cluster: LocalCluster, num_executors: int = 4, *, seed: int = 0):
        if num_executors <= 0:
            raise ValueError("num_executors must be positive")
        self.cluster = cluster
        self.num_executors = num_executors
        self.queues: list[deque[Task]] = [deque() for _ in range(num_executors)]
        self._locks = [threading.Lock() for _ in range(num_executors)]
        self._submit_client = cluster.client(seed=seed)
        self._rr = 0
        self.completed: list[Task] = []
        self._completed_lock = threading.Lock()

    # -- client API --------------------------------------------------------

    def submit(self, task: Task) -> None:
        """Submit to the next executor round-robin; record state in ZHT."""
        task.state = TaskState.WAITING
        task.submitted_at = time.time()
        self._submit_client.insert(f"task:{task.task_id}", task.status_record())
        eid = self._rr % self.num_executors
        self._rr += 1
        with self._locks[eid]:
            self.queues[eid].append(task)

    def status(self, task_id: str) -> dict:
        """Look the task's state up in ZHT (the monitoring path)."""
        return Task.parse_status(self._submit_client.lookup(f"task:{task_id}"))

    # -- execution ------------------------------------------------------------

    def run_to_completion(self, total_tasks: int) -> list[Task]:
        """Run executor threads until *total_tasks* tasks have finished."""
        threads = [
            threading.Thread(target=self._executor_loop, args=(eid, total_tasks))
            for eid in range(self.num_executors)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return self.completed

    def _executor_loop(self, eid: int, total_tasks: int) -> None:
        zht = self.cluster.client(seed=1000 + eid)
        policy = StealPolicy(
            eid, self.num_executors, rng=random.Random(eid * 7919)
        )
        while True:
            with self._completed_lock:
                if len(self.completed) >= total_tasks:
                    return
            task = self._pop_local(eid)
            if task is None:
                if not self._try_steal(eid, policy):
                    time.sleep(policy.on_steal_failure())
                continue
            self._execute(task, eid, zht)

    def _pop_local(self, eid: int) -> Task | None:
        with self._locks[eid]:
            if self.queues[eid]:
                return self.queues[eid].popleft()
        return None

    def _try_steal(self, eid: int, policy: StealPolicy) -> bool:
        victims = policy.choose_victims()
        lengths = {}
        for v in victims:
            with self._locks[v]:
                lengths[v] = len(self.queues[v])
        victim = pick_most_loaded(lengths)
        if victim is None:
            return False
        first, second = sorted((eid, victim))
        # Distinct _locks[i] members, taken in executor-id order.
        with self._locks[first], self._locks[second]:
            moved = execute_steal(self.queues[victim], self.queues[eid])
        if moved:
            policy.on_steal_success()
            return True
        return False

    def _execute(self, task: Task, eid: int, zht: ZHT) -> None:
        task.state = TaskState.RUNNING
        task.worker = eid
        task.started_at = time.time()
        zht.insert(f"task:{task.task_id}", task.status_record())
        try:
            if callable(task.payload):
                task.result = task.payload()
            elif task.duration_s > 0:
                time.sleep(task.duration_s)
            task.state = TaskState.FINISHED
        except Exception as exc:  # task failure is a result, not a crash
            task.result = exc
            task.state = TaskState.FAILED
        task.finished_at = time.time()
        zht.insert(f"task:{task.task_id}", task.status_record())
        with self._completed_lock:
            self.completed.append(task)
