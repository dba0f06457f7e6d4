"""tools/profile_l0.py ranks the kernel rung's profile by cumulative
time by default, or by self time with ``--sort tottime``."""

import importlib.util
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

spec = importlib.util.spec_from_file_location("profile_l0", REPO_ROOT / "tools" / "profile_l0.py")
profile_l0 = importlib.util.module_from_spec(spec)
spec.loader.exec_module(profile_l0)

pytestmark = pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="one cProfile per thread needs Python 3.11 or older"
)


@pytest.mark.parametrize(
    "argv, title, order",
    [
        ([], "top 3 by cumulative time", "Ordered by: cumulative time"),
        (["--sort", "tottime"], "top 3 by self time", "Ordered by: internal time"),
    ],
)
def test_sort_order(tmp_path, capsys, argv, title, order):
    out = tmp_path / "profile.txt"
    assert profile_l0.main(["--requests", "20", "--top", "3", "--out", str(out), *argv]) == 0
    text = out.read_text()
    assert text == capsys.readouterr().out
    assert title in text.splitlines()[0]
    assert order in text


def test_absent_may_be_given_more_than_once(capsys):
    """``--absent`` fails if any of the names it was given was called."""
    absent = ["--absent", "no_such_function", "--absent", "also_not_called"]
    assert profile_l0.main(["--requests", "5", "--top", "1", *absent]) == 0
    assert capsys.readouterr().err == ""
    assert profile_l0.main(["--requests", "5", "--top", "1", *absent, "--absent", "drive"]) == 1
    assert capsys.readouterr().err.startswith("profile L0: drive was called ")


def test_served_prints_gc_collections(capsys):
    """``--served`` prints, under the context switches, the collector's
    runs per generation per 1 000 requests and the objects it freed per
    request; above them, the mean orders per item the replay left."""
    assert profile_l0.main(["--served", "mem_uniform", "--requests", "30", "--top", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-3].startswith("mean orders per item at the end")
    mean = float(lines[-3].split(": ", 1)[1].split(" ")[0])
    assert 8.0 < mean < 8.0 + 60 / 64  # 8 built per item; at most 60 places over 64 items
    assert lines[-2].startswith("context switches per request")
    assert lines[-1].startswith("gc collections per 1 000 requests")
    assert "gen0 " in lines[-1] and "gen2 " in lines[-1]
    assert "objects collected per request" in lines[-1]


def test_served_cluster_prints_each_shards_cpu_and_fsyncs(capsys):
    """For a cluster, ``--served`` prints one profile table per shard
    process under the router process's table, and each shard process's
    CPU per request and its WAL forces per request under the gc line."""
    assert profile_l0.main(["--served", "cluster_2pc", "--requests", "30", "--top", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    titles = [i for i, line in enumerate(lines) if line.startswith("Shard ")]
    assert [lines[i].split(" ")[:3] for i in titles] == [
        ["Shard", "0", "process"],
        ["Shard", "1", "process"],
    ]
    # Each shard's table counts the calls its threads made and their CPU time.
    for start, end in zip(titles, titles[1:] + [len(lines)]):
        calls = next(line for line in lines[start:end] if "function calls" in line)
        assert int(calls.split()[0]) > 0 and float(calls.split()[-2]) > 0
    assert titles[0] > 0 and lines[0].startswith("Served profile: cluster_2pc")
    assert lines[-3].startswith("gc collections per 1 000 requests")
    cpu, syncs = lines[-2], lines[-1]
    assert cpu.startswith("shard CPU per request (/proc/<pid>/stat utime + stime")
    assert syncs.startswith("shard WAL forces per request")
    for line, unit in ((cpu, " ms"), (syncs, "")):
        readings = line.split(": ", 1)[1].split(", ")
        assert [r.split(" ")[:2] for r in readings] == [["shard", "0"], ["shard", "1"]]
        assert all(float(r.split(" ")[2]) >= 0 and r.endswith(unit) for r in readings)
    # Most cluster_2pc requests write, and a write forces at least once.
    assert sum(float(r.split(" ")[2]) for r in syncs.split(": ", 1)[1].split(", ")) > 0.3


@pytest.mark.parametrize("workload", ["mem_uniform", "mem_hot", "wire_durable", "cluster_2pc"])
def test_served_defaults_to_the_workloads_size(monkeypatch, workload):
    """Without ``--requests``, ``--served`` replays the workload's own
    size per client: its ``ops_per_rep`` over its clients."""
    from perfbench.workloads import CLIENTS, WORKLOADS

    asked: list[int] = []

    class Asked(Exception):
        pass

    def record(name, seed, n):
        asked.append(n)
        raise Asked

    monkeypatch.setattr(profile_l0, "profile_served", record)
    with pytest.raises(Asked):
        profile_l0.main(["--served", workload])
    with pytest.raises(Asked):
        profile_l0.main(["--served", workload, "--requests", "30"])
    assert asked == [WORKLOADS[workload].ops_per_rep // CLIENTS, 30]
    assert asked[0] == (700 if workload == "mem_uniform" else 520)
