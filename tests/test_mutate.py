"""Mutation analysis engine: operators, isolation, cache, cascade."""

from __future__ import annotations

import ast
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.analysis import mutate
from repro.analysis.common import (
    EXIT_CLEAN,
    EXIT_REGRESSION,
    EXIT_STALE_BASELINE,
    EXIT_USAGE,
)
from repro.analysis.lint import _hot_lines, is_hot_def, main
from repro.analysis.mutops import (
    OPERATORS,
    SiteNotFound,
    apply_to_module,
    build_mutation,
    proposals_for,
    sites_for_function,
)
from repro.analysis.mutate import (
    MutationCache,
    build_report,
    install_mutant,
    run_cascade,
    sample_ids,
    select_sites,
    _fork_run,
)
from repro.exec.jobs import WorkJob

REPO_ROOT = Path(__file__).resolve().parents[1]
PIPELINE = REPO_ROOT / "src" / "repro" / "pipeline"


# ----------------------------------------------------------------------
# operator library
# ----------------------------------------------------------------------
SNIPPET = """
def issue(self, width):
    picked = 0
    with self._lock:
        for slot in self.slots:
            if picked < width:
                picked += 1
    with self._iq_lock, self._rob_lock:
        if len(self.q) >= 8:
            self.stats.iq_full_stalls += 1
    head = (self.head + 1) % len(self.slots)
    return min(picked, width), head
"""


def _sites():
    tree = ast.parse(SNIPPET)
    return sites_for_function(tree.body[0], "pkg/mod.py", "pkg.mod", "issue")


def test_operator_enumeration_covers_the_fault_classes():
    ops = {s.op for s in _sites()}
    assert {"cmp-boundary", "cmp-swap", "const-nudge", "stat-drop",
            "stat-double", "mod-shift", "minmax-swap", "lock-drop"} <= ops
    assert ops <= set(OPERATORS)


def test_sites_are_deterministic_and_content_addressed():
    a, b = _sites(), _sites()
    assert [s.spec() for s in a] == [s.spec() for s in b]
    ids = [s.mutant_id for s in a]
    assert len(ids) == len(set(ids))
    assert all(i.startswith("m") and len(i) == 13 for i in ids)


@pytest.mark.parametrize("op", sorted(OPERATORS))
def test_every_operator_produces_compilable_distinct_code(op):
    matching = [s for s in _sites() if s.op == op]
    assert matching, f"snippet exercises no {op} site"
    original = ast.parse(SNIPPET)
    for site in matching:
        mutated = apply_to_module(ast.parse(SNIPPET), site.spec())
        compile(mutated, "<mutant>", "exec")
        assert ast.unparse(mutated) != ast.unparse(original)


def test_apply_rejects_a_drifted_site():
    site = _sites()[0]
    spec = dict(site.spec())
    spec["span"] = [999, 0, 999, 4]
    with pytest.raises(SiteNotFound):
        apply_to_module(ast.parse(SNIPPET), spec)


def test_build_mutation_leaves_the_original_untouched():
    tree = ast.parse("x = a % b")
    node = tree.body[0].value
    before = ast.dump(node)
    build_mutation(node, "mod-shift", 0)
    assert ast.dump(node) == before


def test_stat_increment_detection_requires_counter_shape():
    plain = ast.parse("self.cursor += 1").body[0]
    counter = ast.parse("self.stats.cycles += 1").body[0]
    stall = ast.parse("unit.dab_stall_cycles += n").body[0]
    assert proposals_for(plain) == []
    assert ("stat-drop", 0) in proposals_for(counter)
    assert ("stat-double", 0) in proposals_for(stall)


# ----------------------------------------------------------------------
# site selection from the TARGETS table
# ----------------------------------------------------------------------
def test_select_sites_targets_the_hot_closure():
    sites = select_sites([PIPELINE])
    assert len(sites) > 50
    assert all(s.path.startswith("src/repro/pipeline/") for s in sites)
    assert any(s.path.endswith("smt_core.py") for s in sites)
    # Determinism: same tree, same enumeration.
    again = select_sites([PIPELINE])
    assert [s.spec() for s in sites] == [s.spec() for s in again]


def _has_stage_contract(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
        and d.func.id == "stage_contract"
        for d in node.decorator_list
    )


def test_targets_pin_the_committed_site_universe():
    """TARGETS spans exactly the committed baseline's universe, and
    lists every hot or stage-contract function of the pipeline."""
    baseline = json.loads(
        (REPO_ROOT / "results" / "mutation_baseline.json")
        .read_text(encoding="utf-8")
    )
    sites = select_sites([PIPELINE])
    assert len(sites) == baseline["total"]
    assert sorted({s.path for s in sites}) == baseline["targets"]
    listed = {(rel, qual) for rel, quals in mutate.TARGETS.items()
              for qual in quals}
    missing = []
    for path in sorted(PIPELINE.rglob("*.py")):
        rel = path.relative_to(REPO_ROOT).as_posix()
        source = path.read_text(encoding="utf-8")
        hot = _hot_lines(source)
        for qual, node in mutate._defs_by_qual(ast.parse(source)).items():
            if ((is_hot_def(node, hot) or _has_stage_contract(node))
                    and (rel, qual) not in listed):
                missing.append(f"{rel}::{qual}")
    assert not missing, f"add to mutate.TARGETS: {missing}"


def test_a_root_without_targets_has_no_sites(capsys):
    core = REPO_ROOT / "src" / "repro" / "core"
    assert select_sites([core]) == []
    assert main(["mutate", str(core), "--no-cache"]) == EXIT_USAGE
    assert "no mutation sites" in capsys.readouterr().err


def test_sample_is_deterministic_and_seed_sensitive():
    ids = [s.mutant_id for s in select_sites([PIPELINE])]
    a = sample_ids(ids, 10, 2006)
    assert a == sample_ids(ids, 10, 2006)
    assert len(a) == 10
    assert a != sample_ids(ids, 10, 7)
    assert set(a) <= set(ids)


# ----------------------------------------------------------------------
# in-memory application: the working tree is never touched
# ----------------------------------------------------------------------
def _tree_hashes() -> dict[str, str]:
    return {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((REPO_ROOT / "src").rglob("*.py"))
        if "__pycache__" not in p.parts
    }


def test_install_mutant_serves_mutated_code_without_disk_writes():
    sites = select_sites([PIPELINE])
    site = next(s for s in sites if s.op == "stat-drop")
    before = _tree_hashes()

    def body():
        install_mutant(site.spec())
        import importlib

        module = importlib.import_module(site.module)
        source = Path(module.__file__).read_text(encoding="utf-8")
        # The module on disk still contains the original statement...
        return {"on_disk_intact": site.before in source}

    status, value = _fork_run(body, 60.0)
    assert status == "ok", value
    assert value["on_disk_intact"] is True
    assert _tree_hashes() == before


def test_fork_run_reports_errors_and_timeouts():
    def boom():
        raise RuntimeError("kaput")

    status, value = _fork_run(boom, 30.0)
    assert status == "error"
    assert "RuntimeError" in value and "kaput" in value

    def wedge():
        while True:
            pass

    status, value = _fork_run(wedge, 0.5)
    assert status == "timeout"


# ----------------------------------------------------------------------
# cascade + cache (one real mutant end to end)
# ----------------------------------------------------------------------
def test_cascade_kills_a_cycle_counter_drop_and_warm_rerun_is_free(tmp_path):
    sites = select_sites([PIPELINE])
    target = next(
        s for s in sites
        if s.op == "stat-drop" and s.before == "self.stats.cycles += 1"
        and s.path.endswith("smt_core.py")
    )
    cache = MutationCache(tmp_path / "mutation")
    before = _tree_hashes()
    outcomes, executed, cached = run_cascade(
        [PIPELINE], [target], jobs=1, timeout=90.0, cache=cache
    )
    assert _tree_hashes() == before, "mutation run modified the tree"
    out = outcomes[target.mutant_id]
    assert out["outcome"] == "killed"
    # Dropping the master cycle counter survives the sanitizer layer
    # but cannot survive a stats comparison.
    assert out["killed_by"] == "stats"
    assert executed > 0 and cached == 0

    report_cold = build_report([PIPELINE], [target], outcomes, None, 0)
    outcomes2, executed2, cached2 = run_cascade(
        [PIPELINE], [target], jobs=1, timeout=90.0, cache=cache
    )
    assert executed2 == 0, "warm cache re-run executed mutant jobs"
    assert cached2 > 0
    report_warm = build_report([PIPELINE], [target], outcomes2, None, 0)
    assert report_cold == report_warm
    # Exactly one (the first detecting) layer is credited.
    assert sum(report_cold["kill_matrix"].values()) == 1


def test_report_attributes_each_kill_to_exactly_one_layer():
    sites = select_sites([PIPELINE])[:3]
    outcomes = {
        sites[0].mutant_id: {"outcome": "killed", "killed_by": "sanitizer",
                             "detail": ""},
        sites[1].mutant_id: {"outcome": "killed", "killed_by": "timeout",
                             "detail": ""},
        sites[2].mutant_id: {"outcome": "survived", "killed_by": None,
                             "detail": ""},
    }
    report = build_report([PIPELINE], sites, outcomes, None, 0)
    assert report["total"] == 3
    assert report["killed"] == 2
    assert sum(report["kill_matrix"].values()) == report["killed"]
    assert report["survivors"] == [sites[2].mutant_id]
    assert report["kill_matrix"]["timeout"] == 1


def test_every_layer_job_is_keyed_on_the_tree():
    """A cached outcome must not outlive a change elsewhere in the
    package: in the analysers, or in code the mutated function calls."""
    site = _sites()[0]

    def job_hash(layer: str, tree_sha: str) -> str:
        context = {
            "source_shas": {site.path: "src"}, "tree_sha": tree_sha,
            "tests_sha": "tests", "timeout": 1.0, "golden": {},
        }
        payload = mutate._layer_payload(layer, site, context)
        return WorkJob(entry="repro.analysis.mutate:run_layer_job",
                       payload=payload, kind="mutate").content_hash()

    for layer in mutate.LAYERS:
        assert job_hash(layer, "a") != job_hash(layer, "b"), layer


def test_mutation_cache_round_trips_and_tolerates_corruption(tmp_path):
    cache = MutationCache(tmp_path)
    assert cache.get("deadbeef") is None
    cache.put("deadbeef", {"outcome": "killed", "killed_by": "stats"})
    assert cache.get("deadbeef")["killed_by"] == "stats"
    path = cache._path("deadbeef")
    path.write_text("{torn", encoding="utf-8")
    assert cache.get("deadbeef") is None


def test_mutation_cache_put_survives_a_second_writer_of_the_key(
        tmp_path, monkeypatch):
    """Two mutate runs sharing a store may put one key at once: a
    second put landing inside the first one's os.replace must not
    take the first writer's temp file."""
    cache = MutationCache(tmp_path)
    real_replace = os.replace
    interleaved = []

    def replace(src, dst):
        if not interleaved:
            interleaved.append(src)
            cache.put("deadbeef", {"writer": 2})
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    cache.put("deadbeef", {"writer": 1})
    assert interleaved, "the second writer never ran"
    assert cache.get("deadbeef") == {"writer": 1}  # the last replace wins
    assert [p.name for p in cache._path("deadbeef").parent.iterdir()] \
        == ["deadbeef.json"]


def test_a_stale_site_fails_the_first_layer_job():
    """A site that no longer matches its source fails the first
    layer's job outright; it must not fall through the sandbox to a
    stats "crash" kill."""
    site = next(s for s in select_sites([PIPELINE])
                if s.path.endswith("smt_core.py"))
    spec = dict(site.spec())
    spec["span"] = [99999, 0, 99999, 4]
    first = mutate._KERNELS[mutate.LAYERS[0]]
    with pytest.raises(ValueError, match="stale mutation site"):
        first({"layer": mutate.LAYERS[0], "mutant": spec,
               "scenarios": [], "timeout": 5.0})


def test_committed_mutation_baseline_matches_the_current_site_universe():
    """Every id recorded in the committed baseline still enumerates."""
    baseline = json.loads(
        (REPO_ROOT / "results" / "mutation_baseline.json")
        .read_text(encoding="utf-8")
    )
    ids = {s.mutant_id for s in select_sites([PIPELINE])}
    recorded = {str(s["id"]) for s in baseline["survivors"]}
    recorded |= set(baseline["allowlist"])
    assert recorded <= ids, sorted(recorded - ids)
    # Smoke-gate invariant: whatever the pinned CI sample draws, a
    # surviving mutant is always explicitly allowlisted.
    assert set(str(s["id"]) for s in baseline["survivors"]) \
        <= set(baseline["allowlist"])


def test_rebaseline_carries_allowlist_reasons_to_moved_mutants():
    """Deleting lines above a survivor changes its id. Its reason must
    follow it to the mutant with the same (path, qual, op, before,
    after), and two survivors sharing that key pair up in line order."""

    def site(line, qual="SMTProcessor._dispatch", before="budget <= 0"):
        return {"path": "src/repro/pipeline/smt_core.py", "line": line,
                "qual": qual, "op": "cmp-boundary", "before": before,
                "after": before.replace("<=", "<")}

    baseline = {
        "allowlist": {"m_old_hi": "second", "m_old_lo": "first",
                      "m_kept": "unmoved", "m_gone": "deleted code"},
        "survivors": [
            {"id": "m_old_hi", **site(558)},
            {"id": "m_old_lo", **site(542)},
            {"id": "m_kept", **site(273, qual="SMTProcessor._commit")},
            {"id": "m_gone", **site(363, before="n <= 0")},
        ],
    }
    report = {
        "mutants": {
            "m_new_hi": site(520), "m_new_lo": site(504),
            "m_kept": site(273, qual="SMTProcessor._commit"),
            "m_fresh": site(700, before="k <= 0"),
        },
        "survivors": ["m_fresh", "m_kept", "m_new_hi", "m_new_lo"],
    }
    allowlist, carried = mutate.carry_allowlist(report, baseline)
    assert allowlist == {"m_new_lo": "first", "m_new_hi": "second",
                         "m_kept": "unmoved"}
    assert carried == [("m_old_lo", "m_new_lo", "first"),
                       ("m_old_hi", "m_new_hi", "second")]


# ----------------------------------------------------------------------
# the CLI gate against a baseline (canned outcomes, no mutant runs)
# ----------------------------------------------------------------------
class TestBaselineGate:
    """``run_mutate_cli``'s decisions, with ``run_cascade`` replaced by
    canned outcomes: three real sites may survive, the rest die."""

    @pytest.fixture
    def gate(self, tmp_path, monkeypatch):
        a, b, c = (s.mutant_id for s in select_sites([PIPELINE])[:3])
        survivors: set[str] = set()

        def run_cascade(paths, sites, jobs, timeout, cache):
            outcomes = {}
            for site in sites:
                mid = site.mutant_id
                outcomes[mid] = (
                    {"outcome": "survived", "killed_by": None,
                     "detail": "", "mutant": mid}
                    if mid in survivors else
                    {"outcome": "killed", "killed_by": "stats",
                     "detail": "canned", "mutant": mid}
                )
            return outcomes, 0, len(sites)

        monkeypatch.setattr(mutate, "run_cascade", run_cascade)
        baseline = tmp_path / "mutation_baseline.json"

        def run(survive, *flags):
            survivors.clear()
            survivors.update(survive)
            return main(["mutate", str(PIPELINE), "--no-cache",
                         "--baseline", str(baseline), *flags])

        def record(survive, allowlist=()):
            assert run(survive, "--update-baseline") == EXIT_CLEAN
            body = json.loads(baseline.read_text(encoding="utf-8"))
            body["allowlist"] = {mid: "canned" for mid in allowlist}
            baseline.write_text(json.dumps(body), encoding="utf-8")

        return a, b, c, run, record

    def test_new_survivor_exits_one_with_its_repro_command(self, gate,
                                                           capsys):
        a, b, _, run, record = gate
        record({a})
        capsys.readouterr()
        assert run({a, b}) == EXIT_REGRESSION
        err = capsys.readouterr().err
        assert f"mutate {PIPELINE} --only {b} --json" in err
        assert f"--only {a}" not in err

    def test_recorded_survivor_now_killed_is_a_stale_baseline(self, gate,
                                                              capsys):
        a, b, _, run, record = gate
        record({a, b})
        capsys.readouterr()
        assert run({a}) == EXIT_STALE_BASELINE
        err = capsys.readouterr().err
        assert "stale baseline" in err and b in err
        assert f"mutate {PIPELINE} --update-baseline" in err

    def test_require_all_killed_forgives_only_allowlisted_survivors(
            self, gate, capsys):
        a, b, c, run, record = gate
        record({a, b}, allowlist={a, b})
        assert run({a, b}, "--require-all-killed") == EXIT_CLEAN
        capsys.readouterr()
        assert run({a, c}, "--require-all-killed") == EXIT_REGRESSION
        err = capsys.readouterr().err
        assert f"--only {c}" in err and f"--only {a}" not in err


# ----------------------------------------------------------------------
# lock-drop × the runtime pin of the pool's lock
# ----------------------------------------------------------------------
class TestConcurrencyOperators:
    PIN = ("tests/test_exec.py::TestLiveWorkerRegistry::"
           "test_registry_is_touched_only_under_its_lock")

    def test_pool_lock_drop_mutants_fail_the_runtime_pin(self):
        """Deleting any of the pool's lock guards fails the pin, run
        through the ``tests`` oracle layer exactly as mutate runs it."""
        rel = "src/repro/exec/pool.py"
        tree = ast.parse((REPO_ROOT / rel).read_text(encoding="utf-8"))
        specs = [
            {"id": f"{rel}:{node.lineno}", "path": rel,
             "module": "repro.exec.pool", "op": op, "slot": slot,
             "span": [node.lineno, node.col_offset,
                      node.end_lineno, node.end_col_offset]}
            for node in ast.walk(tree)
            for op, slot in proposals_for(node) if op == "lock-drop"
        ]
        assert len(specs) == 5
        for spec in specs:
            out = mutate.run_layer_job({
                "layer": "tests", "mutant": spec, "tests": [self.PIN],
                "timeout": 120.0,
            })
            assert out["killed_by"] == "tests", (spec["id"], out)
            # FAILED, not ERROR: the pin ran and failed; it did not
            # just fail to import.
            assert "FAILED tests/test_exec.py" in out["detail"], out
