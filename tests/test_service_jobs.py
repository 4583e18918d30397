"""The daemon's job-lifecycle table, driven with plain numbers: coalescing
and the stamps followers inherit, admission refusals, drain shedding, and
the failure breaker's closed -> open -> half-open -> closed cycle.
Queue positions are in ``tests/test_service_concurrency.py``."""

import pytest

from repro.service.jobs import SHED_DETAIL, JobTable, Now, Rejected


def at(t):
    """Both clocks at ``t`` (the unix clock offset, as on a real host)."""
    return Now(1e9 + t, t)


def submit(table, key, t=0.0, **kwargs):
    return table.submit({"git_sha": key}, key, at(t), **kwargs)


def succeed(table, job, t, cells=4):
    job["artifact"] = {"artifact": job["id"]}
    job["stats"] = {"cells": cells, "hits": 1, "misses": cells - 1,
                    "compile_calls": 7, "cells_executed": cells - 1}
    return table.finish(job, at(t))


def fail(table, job, t, kind="error"):
    return table.finish(job, at(t), {"kind": kind, "detail": f"{kind} at {t}"})


class TestCoalescing:
    def test_followers_inherit_the_primarys_stamps_and_artifact(self):
        table = JobTable()
        primary = submit(table, "k", 1.0)
        queued_follower = submit(table, "k", 2.0)
        assert queued_follower["coalesced_with"] == primary["id"]
        assert queued_follower["status"] == "queued"
        assert primary["followers"] == [queued_follower["id"]]
        assert table.pending == [primary["id"]]

        assert table.start(at(3.0)) is primary
        assert table.inflight == 1
        for job in (primary, queued_follower):
            assert job["status"] == "running"
            assert job["started_monotonic"] == 3.0
            assert job["started_unix"] == 1e9 + 3.0
        # a follower of a running primary is running from its own submit
        running_follower = submit(table, "k", 4.0)
        assert running_follower["status"] == "running"
        assert running_follower["started_monotonic"] == 4.0

        assert succeed(table, primary, 9.0) is False
        assert table.inflight == 0
        for follower in (queued_follower, running_follower):
            assert follower["status"] == "done"
            assert follower["finished_monotonic"] == 9.0
            assert follower["finished_unix"] == 1e9 + 9.0
            assert follower["artifact"] is primary["artifact"]
            # served entirely from the primary: nothing of its own
            assert follower["stats"] == {
                "cells": 4, "hits": 4, "misses": 0,
                "compile_calls": 0, "cells_executed": 0,
            }
        assert primary["stats"]["compile_calls"] == 7
        view = table.view(running_follower, 20.0)
        assert view["queue_wait_seconds"] == 0.0
        assert view["run_seconds"] == 5.0
        assert view["queue_position"] is None

        # the finished primary no longer absorbs identical submissions
        again = submit(table, "k", 10.0)
        assert again["coalesced_with"] is None
        assert table.pending == [again["id"]]

    def test_followers_of_a_failed_primary_fail_naming_it(self):
        table = JobTable()
        primary = submit(table, "k")
        follower = submit(table, "k")
        table.start(at(1.0))
        fail(table, primary, 2.0)
        assert primary["failure"] == {"kind": "error", "detail": "error at 2.0"}
        assert primary["error"] == "error at 2.0"
        assert follower["status"] == "failed"
        assert follower["error"] == (
            f"coalesced with job {primary['id']}, which failed: error at 2.0"
        )
        assert follower["failure"] is None
        assert follower["finished_monotonic"] == 2.0

    def test_coalescing_skips_admission(self):
        table = JobTable(max_queue=1)
        primary = submit(table, "k")
        # a full queue and a memo-only daemon refuse new work, but not an
        # identical in-flight submission: it executes nothing
        follower = submit(table, "k", refuse_cold="breaker",
                          warm=lambda: pytest.fail("warm check ran"))
        assert follower["coalesced_with"] == primary["id"]
        assert follower["memo_only"] is False


class TestAdmission:
    def test_full_queue_is_rejected_without_a_record(self):
        table = JobTable(max_queue=2)
        submit(table, "a")
        submit(table, "b")
        with pytest.raises(Rejected) as err:
            submit(table, "c")
        assert err.value.status == 429
        assert err.value.reason == "queue_full"
        assert err.value.fields == {"queue_depth": 2, "max_queue": 2}
        assert str(err.value) == "job queue is full (2/2 queued)"
        assert sorted(table.jobs) == [1, 2]
        # running jobs do not count against the bound
        table.start(at(1.0))
        assert submit(table, "c")["id"] == 3

    def test_memo_only_admits_warm_and_refuses_cold(self):
        table = JobTable()
        warm = submit(table, "w", refuse_cold="lease", warm=lambda: True)
        assert warm["memo_only"] is True
        with pytest.raises(Rejected) as err:
            submit(table, "c", refuse_cold="lease", warm=lambda: False)
        assert (err.value.status, err.value.reason) == (503, "lease")
        assert err.value.fields == {"memo_only": True}
        assert list(table.jobs) == [warm["id"]]


class TestDrainShedding:
    def test_shed_all_fails_queued_jobs_and_closes_admission(self):
        table = JobTable()
        running = submit(table, "run")
        table.start(at(1.0))
        queued = submit(table, "q1", 2.0)
        follower = submit(table, "q1", 2.5)
        behind = submit(table, "q2", 3.0)

        shed = table.shed_all(at(5.0))
        assert shed == [queued, behind]
        assert table.pending == [] and table.draining
        for job in (queued, behind):
            assert job["status"] == "failed"
            assert job["failure"] == {"kind": "shed", "detail": SHED_DETAIL}
            assert job["error"] == SHED_DETAIL
            assert job["finished_monotonic"] == 5.0
            assert job["started_monotonic"] is None
        assert follower["status"] == "failed"
        assert f"coalesced with job {queued['id']}" in follower["error"]
        # the running job is the drain's to bound, not the table's
        assert running["status"] == "running"
        assert table.inflight == 1
        assert table.inflight_keys == {"run": running["id"]}

        with pytest.raises(Rejected) as err:
            submit(table, "late", 6.0)
        assert (err.value.status, err.value.reason) == (503, "draining")
        assert table.start(at(6.0)) is None
        assert succeed(table, running, 7.0) is False
        assert table.inflight == 0
        assert table.by_status() == {
            "queued": 0, "running": 0, "done": 1, "failed": 3,
        }

    def test_shed_jobs_leave_the_breaker_alone(self):
        table = JobTable(breaker_threshold=1)
        submit(table, "a")
        table.shed_all(at(1.0))
        assert table.breaker_failures == 0
        assert table.breaker_state(1.0) == "closed"


class TestBreaker:
    def _cold(self, table, t):
        job = submit(table, f"cold-{t}", t)
        assert table.start(at(t)) is job
        return job

    def test_open_half_open_closed_and_reopen_on_failed_probe(self):
        table = JobTable(breaker_threshold=2, breaker_cooldown=10.0)
        assert fail(table, self._cold(table, 0.0), 0.5) is False
        assert table.breaker_state(0.5) == "closed"
        # the threshold-th consecutive failure trips it
        assert fail(table, self._cold(table, 1.0), 1.5, "worker-death") is True
        assert table.breaker_state(1.5) == "open"
        assert table.breaker_state(11.49) == "open"
        # after the cooldown, probes are admitted; a failed one re-opens
        # the breaker (not a new trip) and restarts the cooldown
        assert table.breaker_state(11.5) == "half-open"
        assert fail(table, self._cold(table, 12.0), 13.0) is False
        assert table.breaker_opened == 13.0
        assert table.breaker_state(22.99) == "open"
        assert table.breaker_state(23.0) == "half-open"
        # a successful probe closes it and clears the failure count
        assert succeed(table, self._cold(table, 24.0), 25.0) is False
        assert table.breaker_state(25.0) == "closed"
        assert table.breaker_failures == 0
        assert table.breaker_opened is None

    def test_only_worker_path_failures_of_cold_jobs_count(self):
        table = JobTable(breaker_threshold=1)
        for kind in ("deadline", "drain", "shed", "lease-lost"):
            assert fail(table, self._cold(table, 1.0), 2.0, kind) is False
        memo = submit(table, "memo", 3.0, refuse_cold="degraded",
                      warm=lambda: True)
        table.start(at(3.0))
        assert fail(table, memo, 4.0) is False
        assert table.breaker_failures == 0
        assert table.breaker_state(4.0) == "closed"

    def test_zero_threshold_never_trips(self):
        table = JobTable(breaker_threshold=0)
        for t in range(3):
            assert fail(table, self._cold(table, float(t)), t + 0.5) is False
        assert table.breaker_state(5.0) == "closed"
