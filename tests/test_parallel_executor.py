"""The shared parallel-executor layer (``repro.parallel``): batch
fan-out determinism and diagnostics, consistent hashing, and the
long-running worker machinery the daemon shards run on."""

import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro

from repro.parallel import (
    ShardRing,
    Worker,
    WorkerCrash,
    WorkerPool,
    default_jobs,
    fan_out,
    pool_size,
    validate_jobs,
)


class TestValidateJobs:
    @pytest.mark.parametrize("jobs", [1, 2, 64])
    def test_accepts_positive_ints(self, jobs):
        validate_jobs(jobs)

    @pytest.mark.parametrize("jobs", [0, -1, -9])
    def test_rejects_nonpositive(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            validate_jobs(jobs)

    @pytest.mark.parametrize("jobs", [1.5, "2", None, True])
    def test_rejects_non_integers(self, jobs):
        with pytest.raises(ValueError, match="positive integer"):
            validate_jobs(jobs)

    def test_default_jobs_is_a_positive_int(self):
        jobs = default_jobs()
        assert isinstance(jobs, int) and jobs >= 1

    def test_pool_size_never_exceeds_items(self):
        assert pool_size(8, items=3) == 3
        assert pool_size(2, items=10) == 2
        assert pool_size(4, items=0) == 1


def _double(n):
    return n * 2


def _slow_identity(n):
    # finish order deliberately differs from submit order
    import time

    time.sleep(0.05 if n == 0 else 0.0)
    return n


def _boom(n):
    if n == 3:
        raise ValueError(f"boom on {n}")
    return n


def _exit_hard(n):
    if n == 1:
        os._exit(137)
    time.sleep(0.2)  # keeps the sibling in flight when item 1 dies
    return n


class TestFanOut:
    def test_results_in_item_order(self):
        items = list(range(6))
        assert fan_out(_slow_identity, items, (), 3, "t") == items

    def test_single_pickled_call_shape(self):
        assert fan_out(_double, [1, 2, 3], (), 2, "t") == [2, 4, 6]

    def test_failure_names_the_item_with_custom_describe(self):
        with pytest.raises(
            RuntimeError, match="t worker for item 3 failed"
        ) as ei:
            fan_out(
                _boom,
                list(range(5)),
                (),
                2,
                "t",
                describe=lambda n: f"item {n}",
            )
        assert isinstance(ei.value.__cause__, ValueError)

    def test_process_death_names_the_item(self):
        """Every item without a result is named — the dying item 1
        always among them, whether or not its sibling had finished."""
        with pytest.raises(RuntimeError, match="t worker process for item") as ei:
            fan_out(
                _exit_hard, [0, 1], (), 2, "t", describe=lambda n: f"item {n}"
            )
        message = str(ei.value)
        named = message.split("worker process for ", 1)[1].split(" died", 1)[0]
        assert "item 1" in named.split(" or ")
        assert "jobs=1" in message


class TestShardRing:
    def test_single_shard_takes_everything(self):
        ring = ShardRing(1)
        assert {ring.shard_of(f"s{i}") for i in range(50)} == {0}

    def test_assignment_is_stable_across_instances(self):
        keys = [f"session-{i}" for i in range(200)]
        a = ShardRing(4)
        b = ShardRing(4)
        assert [a.shard_of(k) for k in keys] == [b.shard_of(k) for k in keys]

    def test_every_shard_gets_work(self):
        ring = ShardRing(4)
        assigned = ring.assign(f"session-{i}" for i in range(400))
        counts = [0, 0, 0, 0]
        for shard in assigned.values():
            counts[shard] += 1
        assert all(count > 0 for count in counts)
        # the ring should spread sessions, not pile them on one shard
        assert max(counts) < 400 * 0.6

    def test_growing_the_ring_moves_only_some_sessions(self):
        keys = [f"session-{i}" for i in range(300)]
        before = ShardRing(3).assign(keys)
        after = ShardRing(4).assign(keys)
        moved = sum(1 for k in keys if before[k] != after[k])
        assert 0 < moved < len(keys) * 0.6  # consistent, not rehash-all

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ShardRing(0)
        with pytest.raises(ValueError):
            ShardRing(2, vnodes=0)


# -- long-running worker fixtures (module level: the child imports us) --


def _acc_init(name):
    return {"name": name, "values": []}


def _acc_handle(state, msg):
    if msg == "explode":
        raise ValueError("handler exploded")
    state["values"].append(msg)


def _acc_finish(state):
    return list(state["values"])


class TestWorker:
    def test_messages_survive_until_drain(self):
        worker = Worker("acc-0", _acc_init, _acc_handle, _acc_finish)
        for i in range(10):
            worker.send(i)
        result, profile = worker.drain()
        assert result == list(range(10))
        assert profile.messages == 10
        assert profile.name == "acc-0"
        assert profile.pid != os.getpid()

    def test_handler_crash_is_named_and_carries_traceback(self):
        worker = Worker("acc-1", _acc_init, _acc_handle, _acc_finish)
        worker.send("explode")
        with pytest.raises(WorkerCrash, match="'acc-1'") as ei:
            worker.drain()
        assert ei.value.worker == "acc-1"
        assert "handler exploded" in (ei.value.detail or "")

    def test_send_after_drain_is_refused(self):
        worker = Worker("acc-2", _acc_init, _acc_handle, _acc_finish)
        worker.request_drain()
        with pytest.raises(RuntimeError, match="already drained"):
            worker.send(1)
        worker.collect()

    def test_queue_size_validated(self):
        with pytest.raises(ValueError, match="queue_size"):
            Worker("acc-3", _acc_init, _acc_handle, _acc_finish, queue_size=0)

    def test_process_exits_after_a_worker_dies_with_a_full_inbox(self, tmp_path):
        """A worker that dies with messages still in its pipe must not
        hang the parent at interpreter exit, where multiprocessing
        joins each queue's feeder thread."""
        script = tmp_path / "die_with_full_inbox.py"
        script.write_text(textwrap.dedent('''
            import os

            from repro.parallel import Worker, WorkerCrash

            def init(name):
                return None

            def handle(state, msg):
                os._exit(1)

            def finish(state):
                return None

            if __name__ == "__main__":
                worker = Worker("doomed", init, handle, finish)
                try:
                    # far more than a pipe holds: the feeder thread is
                    # left blocked writing to the dead worker
                    for _ in range(8):
                        worker.send(b"x" * (1 << 20))
                    worker.drain()
                except WorkerCrash as exc:
                    print("crash:", exc.worker)
        '''))
        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, str(script)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "crash: doomed"


class TestWorkerPool:
    def test_routes_by_index_and_drains_in_worker_order(self):
        pool = WorkerPool(2, _acc_init, _acc_handle, _acc_finish, name="acc")
        pool.send(0, "a")
        pool.send(1, "b")
        pool.send(0, "c")
        outcomes = pool.drain()
        assert [result for result, _profile in outcomes] == [["a", "c"], ["b"]]
        assert [p.name for _r, p in outcomes] == ["acc-0", "acc-1"]

    def test_count_validated(self):
        with pytest.raises(ValueError, match="count"):
            WorkerPool(0, _acc_init, _acc_handle, _acc_finish)
