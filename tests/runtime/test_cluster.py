"""Real-process cluster: launch, serve, SIGKILL, shut down clean.

These tests start actual site processes and talk to them over real
localhost TCP — the full runtime stack.  The first test drives
everything: smoke traffic, the kill -9 chaos injection with reads
surviving, the KV front-end API, and an orphan-free shutdown.  Later
tests gate the 1-3-5 tree's operation success under mixed traffic and
through a leaf SIGKILL, and check that no forked process outlives its
cluster — whether the start timed out or the driver itself was killed.
"""

import asyncio
import os
import signal
import subprocess
import sys
import textwrap
import time

import pytest

from repro.runtime import siteserver
from repro.runtime.cluster import (
    ForkedSite,
    KVFrontend,
    LocalCluster,
    SiteProcess,
    _site_env,
    kv_request,
    percentile,
    run_traffic,
)


def _running(pid: int) -> bool:
    """The pid names a live (not reaped) process."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _traffic_on_fresh_1_3_5(**traffic):
    """One ``run_traffic`` call on a freshly started 1-3-5 cluster."""
    async def main():
        cluster = LocalCluster(spec="1-3-5", timeout=1.0, max_attempts=4)
        await cluster.start()
        try:
            report = await run_traffic(cluster, keys=4, seed=0, **traffic)
        finally:
            await cluster.stop()
        assert cluster.orphans() == []
        return report

    return asyncio.run(asyncio.wait_for(main(), 90.0))


def test_cluster_serves_sigkill_survives_and_shuts_down_clean():
    async def main():
        cluster = LocalCluster(spec="1-3", timeout=1.0, max_attempts=4)
        await cluster.start()
        try:
            # -- basic KV semantics over real TCP --------------------
            put = await cluster.put("greeting", "hello")
            assert put.success and put.timestamp.version == 1
            got = await cluster.get("greeting")
            assert got.success and got.value == "hello"

            # -- front-end API (external-client frames) --------------
            frontend = KVFrontend(cluster)
            await frontend.start()
            results = await kv_request(
                "127.0.0.1", frontend.port,
                [
                    {"kind": "put", "id": 1, "key": "fk", "value": "fv"},
                    {"kind": "get", "id": 2, "key": "fk"},
                    {"kind": "get", "id": 3, "key": "missing"},
                ],
            )
            await frontend.stop()
            assert [r["ok"] for r in results] == [True, True, True]
            assert results[1]["value"] == "fv"
            assert results[1]["version"] == 1
            assert results[2]["value"] is None  # never written

            # -- smoke traffic with a mid-run SIGKILL ----------------
            # Read-only measured loop: the kill gate is about READ
            # availability (1-3 write quorums need all three sites).
            report = await run_traffic(
                cluster, operations=30, read_fraction=1.0, keys=4,
                seed=5, kill_after_ops=10,
            )
            assert report.killed_site == 2
            assert not cluster.sites[2].alive  # SIGKILL landed
            assert report.reads == 30 and report.read_failures == 0
            assert report.post_kill_reads == 20
            assert report.post_kill_read_failures == 0
            assert report.ops_per_sec > 0
            summary = report.summary()
            assert summary["read_p99_ms"] >= summary["read_p50_ms"] >= 0

            # -- writes are honestly unavailable without their quorum
            lost = await cluster.put("greeting", "goodbye")
            assert not lost.success
            still = await cluster.get("greeting")
            assert still.success and still.value == "hello"
        finally:
            return_codes = await cluster.stop()
        assert cluster.orphans() == []  # nothing left running
        assert all(rc is not None for rc in return_codes)
        assert return_codes[2] == -9  # the SIGKILLed site

    asyncio.run(asyncio.wait_for(main(), 90.0))


def test_large_cluster_starts_serves_and_stops_clean():
    # 15 sites outnumber the default executor's threads on a small host,
    # so start-up must not wait on executor threads.
    async def main():
        cluster = LocalCluster(spec="1-3-5-7", timeout=1.0, max_attempts=4)
        await cluster.start()
        try:
            assert cluster.n == 15
            put = await cluster.put("k", "v")
            assert put.success
            got = await cluster.get("k")
            assert got.success and got.value == "v"
        finally:
            await cluster.stop()
        assert cluster.orphans() == []

    asyncio.run(asyncio.wait_for(main(), 90.0))


def test_spawn_timeout_names_the_silent_sites(monkeypatch):
    async def silent(self, reader):
        await asyncio.Event().wait()

    spawn = SiteProcess.spawn
    monkeypatch.setattr(SiteProcess, "_announced_port", silent)
    monkeypatch.setattr(
        SiteProcess, "spawn", lambda self: spawn(self, timeout=0.2)
    )

    async def main():
        cluster = LocalCluster(spec="1-3")
        with pytest.raises(TimeoutError, match=r"sites \[0, 1, 2\]"):
            await cluster.start()
        assert cluster.orphans() == []

    asyncio.run(asyncio.wait_for(main(), 60.0))


def test_silent_site_timeout_leaves_no_forked_process_running(monkeypatch):
    # Judged by pid, not by ``alive``: every site the launcher forked,
    # announced or not, and the launcher itself must be gone.
    async def silent(self, reader):
        await asyncio.Event().wait()

    spawn = SiteProcess.spawn
    monkeypatch.setattr(SiteProcess, "_announced_port", silent)
    monkeypatch.setattr(
        SiteProcess, "spawn", lambda self: spawn(self, timeout=0.2)
    )

    async def main():
        cluster = LocalCluster(spec="1-3")
        with pytest.raises(TimeoutError):
            await cluster.start()
        return cluster

    cluster = asyncio.run(asyncio.wait_for(main(), 60.0))
    assert all(site.proc is not None for site in cluster.sites)
    pids = [site.proc.pid for site in cluster.sites] + [cluster.launcher.pid]
    assert [pid for pid in pids if _running(pid)] == []


def test_kill_site_after_a_reported_exit_signals_nothing(monkeypatch):
    # Once the launcher has reaped a site its pid may be reused.
    sent = []
    monkeypatch.setattr(os, "kill", lambda *args: sent.append(args))

    async def main():
        cluster = LocalCluster(spec="1-3")
        cluster.sites = [SiteProcess(sid) for sid in range(cluster.n)]
        cluster.sites[2].proc = ForkedSite(pid=os.getpid(), returncode=-9)
        cluster.kill_site(2)
        cluster.sites[2].kill(signal.SIGTERM)

    asyncio.run(main())
    assert sent == []


def test_reap_reports_every_site_when_a_sigchld_run_nests(monkeypatch):
    # The launcher reaps from its SIGCHLD handler, and one run can start
    # inside another: here the inner run reaps the last site while the
    # outer still holds the one it just reaped, so waitpid says ECHILD.
    exited = [(101, signal.SIGKILL), (102, signal.SIGKILL)]  # wait statuses
    children = {101: 0, 102: 1}
    reports = []

    def waitpid(pid, flags):
        if not exited:
            raise ChildProcessError
        reaped = exited.pop(0)
        if len(exited) == 1:  # SIGCHLD for the second site lands here
            siteserver._reap(children, os.WNOHANG)
        return reaped

    monkeypatch.setattr(siteserver.os, "waitpid", waitpid)
    monkeypatch.setattr(siteserver, "_report", reports.append)
    siteserver._reap(children, os.WNOHANG)
    assert children == {}
    assert sorted(reports) == [
        "REPRO-EXIT sid=0 pid=101 rc=-9", "REPRO-EXIT sid=1 pid=102 rc=-9",
    ]


_DRIVER = textwrap.dedent("""
    import asyncio
    from repro.runtime.cluster import LocalCluster

    async def main():
        cluster = LocalCluster(spec="1-3")
        await cluster.start()
        print(*(site.proc.pid for site in cluster.sites), flush=True)
        await asyncio.Event().wait()

    asyncio.run(main())
""")


def test_sites_die_with_a_sigkilled_driver():
    driver = subprocess.Popen(
        [sys.executable, "-c", _DRIVER], env=_site_env(),
        stdout=subprocess.PIPE, text=True,
    )
    try:
        pids = [int(pid) for pid in driver.stdout.readline().split()]
    finally:
        driver.kill()
        driver.wait()
        driver.stdout.close()
    assert len(pids) == 3
    deadline = time.monotonic() + 5.0
    while (left := [pid for pid in pids if _running(pid)]) and (
        time.monotonic() < deadline
    ):
        time.sleep(0.05)
    for pid in left:  # never leak sites, even when the check fails
        os.kill(pid, signal.SIGKILL)
    assert left == []


@pytest.mark.parametrize("read_fraction", [0.9, 0.5, 0.1])
def test_healthy_1_3_5_cluster_fails_no_operation(read_fraction):
    report = _traffic_on_fresh_1_3_5(
        operations=60, read_fraction=read_fraction
    )
    assert report.operations == 60 and report.ops_per_sec > 0
    assert report.read_failures == 0
    assert report.write_failures == 0


def test_1_3_5_reads_survive_a_deepest_leaf_sigkill():
    report = _traffic_on_fresh_1_3_5(
        operations=60, read_fraction=1.0, kill_after_ops=20
    )
    assert report.killed_site == 7
    assert report.post_kill_reads == 40
    assert report.read_failures == 0


def test_percentile_nearest_rank():
    samples = [float(value) for value in range(1, 101)]
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 99) == 99.0
    assert percentile(samples, 100) == 100.0
    assert percentile([], 50) == 0.0
    assert percentile([42.0], 99) == 42.0
