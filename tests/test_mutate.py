"""Mutation analysis engine: operators, isolation, cache, cascade."""

from __future__ import annotations

import ast
import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis import mutate
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
# site selection over the flow closure
# ----------------------------------------------------------------------
def test_select_sites_targets_the_hot_closure():
    sites = select_sites([PIPELINE])
    assert len(sites) > 50
    assert all(s.path.startswith("src/repro/pipeline/") for s in sites)
    assert any(s.path.endswith("smt_core.py") for s in sites)
    # Determinism: same tree, same enumeration.
    again = select_sites([PIPELINE])
    assert [s.spec() for s in sites] == [s.spec() for s in again]


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
    # Dropping the master cycle counter survives the static and
    # sanitizer layers but cannot survive a stats comparison.
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
        sites[0].mutant_id: {"outcome": "killed", "killed_by": "static",
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
            "tests_sha": "tests", "timeout": 1.0, "pkg_root_rel": "pkg",
            "static_base": {site.path: []}, "golden": {},
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
