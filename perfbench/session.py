"""The benchmark's pinned Spark session, read from outside the program.

Every knob is fixed here and no environment variable is consulted, so a
change in a measured number can only come from program code. The SQL
settings are those of ``jobs/_common.get_spark``; master and driver
memory are pinned too. All scratch space (Spark local dirs, the JVM's
and Python's temp dirs, the warehouse) lives under the run's work
directory inside the checkout.

Also here: Spark counters read from the status store (per-stage task
metrics, and the executor summary), and per-process peak-RSS reset and
read via ``/proc``.
"""
from __future__ import annotations

import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

#: ``nproc``: the CPUs this process may run on.
CORES = len(os.sched_getaffinity(0))
MASTER = f"local[{CORES}]"
DRIVER_MEMORY = "2g"
#: The heap is committed and touched at launch, so the JVM's share of
#: ``peak_rss_mb`` does not depend on when its garbage collector ran.
JAVA_OPTIONS = f"-Xms{DRIVER_MEMORY} -XX:+AlwaysPreTouch"
#: jobs/_common.get_spark's per-session SQL settings (env overrides ignored).
SQL_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
}


def configure(work: Path) -> None:
    """Pin the JVM launch arguments and scratch dirs; call before pyspark
    is imported. Makes ``repro`` importable here and in Python workers."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ.pop("SPARK_LOCAL_DIRS", None)
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} "
        f"--driver-java-options {shlex.quote(f'{JAVA_OPTIONS} -Djava.io.tmpdir={tmp}')} "
        "--conf spark.driver.host=127.0.0.1 "
        "--conf spark.ui.enabled=false "
        "--conf spark.ui.showConsoleProgress=false "
        f"--conf spark.local.dir={work / 'spark-local'} "
        f"--conf spark.sql.warehouse.dir={work / 'warehouse'} "
        f"--conf spark.hadoop.hadoop.tmp.dir={work / 'hadoop'} "
        "pyspark-shell"
    )


def start():
    """Create the pinned SparkSession (this launches the JVM)."""
    from pyspark.sql import SparkSession

    builder = SparkSession.builder.appName("perfbench")
    for key, value in SQL_CONF.items():
        builder = builder.config(key, value)
    spark = builder.getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def jvm_pid(spark) -> int:
    return spark.sparkContext._gateway.proc.pid


def shutdown(spark) -> None:
    """Stop the session and the JVM it runs in, and wait for the JVM."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    spark.stop()
    if gateway is None:
        return
    proc = gateway.proc
    gateway.shutdown()
    # The gateway JVM exits when its stdin closes; its Python workers
    # follow it.
    proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    SparkContext._gateway = None
    SparkContext._jvm = None


def stage_window(spark):
    """Start counting Spark stages submitted from now on. The returned
    function, called once they are done, sums their task metrics:
    tasks run, failed tasks, task run time (ms, summed over tasks, so it
    counts every busy core) and shuffle bytes read and written."""
    from py4j.protocol import Py4JJavaError

    sc = spark.sparkContext._jsc.sc()
    first = sc.dagScheduler().nextStageId()

    def finish() -> dict:
        sc.listenerBus().waitUntilEmpty()
        store = sc.statusStore()
        out = dict(tasks=0, failed_tasks=0, task_ms=0, shuffle_read=0, shuffle_write=0)
        for stage_id in range(first, sc.dagScheduler().nextStageId()):
            try:
                s = store.lastStageAttempt(stage_id)
            except Py4JJavaError:  # no longer retained by the status store
                continue
            out["tasks"] += s.numCompleteTasks() + s.numFailedTasks()
            out["failed_tasks"] += s.numFailedTasks()
            out["task_ms"] += s.executorRunTime()
            out["shuffle_read"] += s.shuffleReadBytes()
            out["shuffle_write"] += s.shuffleWriteBytes()
        return out

    return finish


def session_counters(spark) -> tuple[int, float]:
    """Failed tasks and JVM GC seconds since the session started, from the
    executor summary (``statusStore().executorList``, which works with the
    UI disabled)."""
    sc = spark.sparkContext._jsc.sc()
    sc.listenerBus().waitUntilEmpty()
    summaries = sc.statusStore().executorList(False)
    failed = gc_ms = 0
    for i in range(summaries.size()):
        e = summaries.apply(i)
        failed += e.failedTasks()
        gc_ms += e.totalGCTime()
    return failed, gc_ms / 1000


def reset_peak_rss(pids: list[int]) -> None:
    """Reset each process's VmHWM to its current RSS."""
    for pid in pids:
        with open(f"/proc/{pid}/clear_refs", "w") as f:
            f.write("5")


def peak_rss_mb(pids: list[int]) -> float:
    """Sum of the processes' peak resident set sizes since the last reset."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
                    break
    return total_kb / 1024
