"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
import threading
import types
from pathlib import Path

import pytest

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
import sfbcsim  # noqa: E402

PRESETS = ROOT / "src" / "sfbcsim" / "presets"
TINY = {"snr_db": "0, 4"}  # two low-SNR points per sweep: a few trials each


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _tiny_pass(tmp_path, workload, n_jobs=None):
    paths = workloads.write_scenarios(workload, 7, PRESETS, tmp_path / "cfg", TINY)
    out = tmp_path / "out"
    out.mkdir(exist_ok=True)
    n_jobs = workload.n_jobs if n_jobs is None else n_jobs
    return paths, workloads.run_pass(sfbcsim, paths, out, n_jobs)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_smoke_run_of_each_workload(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    paths, untraced = _tiny_pass(tmp_path, workload)
    with spans.Tracer() as tracer:
        _, traced = _tiny_pass(tmp_path, workload)
    reference = _tiny_pass(tmp_path, workload, n_jobs=1)[1] if workload.same_bytes_as else None

    problems = workloads.check_passes(workload, 7, sfbcsim, paths, [untraced, traced],
                                      reference, digests={})
    assert problems == {p.stem: None for p in paths}
    assert untraced.points == {p.stem: 2 for p in paths}
    busy, calls = spans.self_times(tracer.spans)
    assert calls["harness.run_sweep"] == calls["cli.emit_csv"] == len(paths)
    assert calls["sfbc.sfbc_encode"] == 14 * calls["modem.generate_bits"]
    assert calls["modem.generate_bits"] >= traced.total_trials
    assert all(t >= 0 for t in busy.values())


def test_corrupted_csv_is_reported_as_failure(tmp_path):
    workload = workloads.WORKLOADS["flat_estimated"]
    paths, good = _tiny_pass(tmp_path, workload)
    name = paths[0].stem
    digests = {n: workloads.sha256(data) for n, data in good.csv.items()}
    assert workloads.check_passes(workload, workloads.DEFAULT_SEED, sfbcsim, paths, [good],
                                  None, digests) == {p.stem: None for p in paths}

    bad = workloads.PassResult(**vars(good))
    bad.csv = dict(good.csv)
    bad.csv[name] = good.csv[name].replace(b",", b";", 3)  # corrupt one row
    assert workloads.csv_problem(bad.csv[name], sfbcsim.load_config(paths[0]))
    problems = workloads.check_passes(workload, 7, sfbcsim, paths, [bad], None, {})
    assert problems[name] and all(problems[p.stem] is None for p in paths[1:])
    assert workloads.failed_points([bad], problems) == good.points[name]

    wrong = dict(digests, **{name: "0" * 64})
    problems = workloads.check_passes(workload, workloads.DEFAULT_SEED, sfbcsim, paths,
                                      [good], None, wrong)
    assert problems[name] == "CSV SHA-256 differs from the recorded digest"
    problems = workloads.check_passes(workload, 7, sfbcsim, paths, [good, bad], None, {})
    assert problems[name].startswith("CSV bytes differ between passes")


def test_printed_metric_names_appear_in_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        run = _bench("--workload", "multipath_perfect_wideband", "--seed", "3",
                     "--seconds", "0", "--trace", str(trace))
        assert run.returncode == 0, run.stderr
        result = json.loads(run.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == declared


def test_digest_mismatch_fails_the_command(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    digests_file = tmp_path / "perfbench" / "digests.json"
    digests = json.loads(digests_file.read_text())
    digests["table5_rural_area_qam16"] = "0" * 64
    digests_file.write_text(json.dumps(digests))

    run = _bench("--workload", "multipath_perfect_wideband", "--seconds", "0",
                 cwd=tmp_path)
    assert run.returncode == 1
    provenance = json.loads(run.stdout.strip().splitlines()[-2])["provenance"]
    result = json.loads(run.stdout.strip().splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == provenance["sweeps"]["table5_rural_area_qam16"]["points"]
    assert provenance["failed_ratio"] == result["failed"] / result["attempted"]


def test_without_the_package_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    run = _bench("--workload", "flat_estimated", cwd=tmp_path)
    assert run.returncode == 2
    assert '"correct"' not in run.stdout


def _fake_module():
    module = types.ModuleType("perfbench_fake_layer")

    def leaf(x):
        return x + 1

    def node(x):
        return module.leaf(x) + module.leaf(x)

    def fan_out(x):
        workers = [threading.Thread(target=module.node, args=(x,)) for _ in range(2)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=10)
        assert not any(w.is_alive() for w in workers)
        return module.node(x)

    module.leaf, module.node, module.fan_out = leaf, node, fan_out
    return module


def test_tracer_parents_spans_and_restores_originals(monkeypatch):
    module = _fake_module()
    monkeypatch.setitem(sys.modules, module.__name__, module)
    originals = (module.leaf, module.node, module.fan_out)
    targets = tuple((f"fake.{f}", module.__name__, f) for f in ("leaf", "node", "fan_out"))
    with spans.Tracer(targets) as tracer:
        assert module.fan_out(1) == 4
    assert (module.leaf, module.node, module.fan_out) == originals

    by_id = {s[0]: s for s in tracer.spans}
    root = [s for s in tracer.spans if s[1] == "fake.fan_out"]
    assert len(root) == 1 and root[0][2] is None
    # worker-thread nodes hang under the blocked owner span
    assert all(s[2] == root[0][0] for s in tracer.spans if s[1] == "fake.node")
    assert all(by_id[s[2]][1] == "fake.node" for s in tracer.spans if s[1] == "fake.leaf")
    busy, calls = spans.self_times(tracer.spans)
    assert calls == {"fake.fan_out": 1, "fake.node": 3, "fake.leaf": 6}
    assert all(t >= 0 for t in busy.values())

    module.leaf = lambda x: x
    with pytest.raises(RuntimeError, match="not restored"):
        tracer.assert_restored()


def test_self_time_subtracts_the_union_of_children():
    # parent 0..10 with children 1..4 and 3..6 on two threads, and 8..9
    trace = [(0, "p", None, 0.0, 10.0, 1), (1, "c", 0, 1.0, 4.0, 2),
             (2, "c", 0, 3.0, 6.0, 3), (3, "c", 0, 8.0, 9.0, 1)]
    busy, calls = spans.self_times(trace)
    assert busy["p"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert busy["c"] == pytest.approx(3.0 + 3.0 + 1.0)
    assert calls == {"p": 1, "c": 3}
