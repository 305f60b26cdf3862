"""Tests for the whole-program flow pass (``repro.analysis.flow``).

Each interprocedural rule (RPR009-RPR012) gets a small fixture tree
that must trigger it, a near-miss that must not, and a suppression
check; plus call-graph resolution tests, the static/runtime contract
consistency check, the baseline mechanism, the CLI, and an end-to-end
check that the shipped ``src/repro`` tree is clean against the
committed baseline.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import repro
import repro.frontend.fetch  # noqa: F401 — populates STAGE_CONTRACTS
import repro.pipeline.smt_core  # noqa: F401 — populates STAGE_CONTRACTS
from repro.analysis.contracts import (
    RESOURCES,
    STAGE_CALLABLES,
    STAGE_CONTRACTS,
)
from repro.analysis.flow import (
    FLOW_RULES,
    build_project,
    default_baseline_path,
    encode_baseline,
    flow_paths,
    load_baseline,
)
from repro.analysis.lint import main
from repro.util.encoding import stable_dumps


def write_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialise a fixture package tree under ``root / 'proj'``."""
    proj = root / "proj"
    for rel, source in files.items():
        path = proj / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return proj


def flow(root: Path, files: dict[str, str], baseline=None):
    return flow_paths([write_tree(root, files)], baseline=baseline)


def codes(violations) -> list[str]:
    return [v.code for v in violations]


# ----------------------------------------------------------------------
# RPR009 — transitive hot closure
# ----------------------------------------------------------------------
class TestRPR009:
    FILES = {
        "pipeline/loop.py": """\
            def run(core):  # repro: hot
                return helper(core)


            def helper(core):
                buf = [0, 1]
                return buf
            """,
    }

    def test_callee_allocation_flagged(self, tmp_path):
        violations = flow(tmp_path, self.FILES)
        assert codes(violations) == ["RPR009"]
        v = violations[0]
        assert v.path.endswith("pipeline/loop.py")
        assert "helper()" in v.message
        assert "hot via run -> helper" in v.message

    def test_cross_module_closure(self, tmp_path):
        violations = flow(tmp_path, {
            "pipeline/loop.py": """\
                from util.helpers import make

                def run(core):  # repro: hot
                    return make(core)
                """,
            "util/helpers.py": """\
                def make(core):
                    return {"a": 1}
                """,
        })
        assert codes(violations) == ["RPR009"]
        assert violations[0].path.endswith("util/helpers.py")

    def test_hot_function_itself_is_rpr008_territory(self, tmp_path):
        # Allocations in the marker-carrying function belong to the
        # per-file pass (RPR008); the flow pass only covers callees.
        violations = flow(tmp_path, {
            "pipeline/loop.py": """\
                def run(core):  # repro: hot
                    return [0, 1]
                """,
        })
        assert violations == []

    def test_noqa_on_allocation_line_suppresses(self, tmp_path):
        violations = flow(tmp_path, {
            "pipeline/loop.py": """\
                def run(core):  # repro: hot
                    return helper(core)


                def helper(core):
                    return [0, 1]  # repro: noqa[RPR009]
                """,
        })
        assert violations == []

    def test_noqa_on_call_edge_prunes_closure(self, tmp_path):
        violations = flow(tmp_path, {
            "pipeline/loop.py": """\
                def run(core):  # repro: hot
                    return helper(core)  # repro: noqa[RPR009]


                def helper(core):
                    return [0, 1]
                """,
        })
        assert violations == []


# ----------------------------------------------------------------------
# call-graph resolution details the rules depend on
# ----------------------------------------------------------------------
class TestCallGraph:
    def test_instance_attr_callable_resolves(self, tmp_path):
        # self._tick = self.real_tick in the class body: the cached
        # stage-callable idiom the pipeline itself uses.
        violations = flow(tmp_path, {
            "pipeline/engine.py": """\
                class Engine:
                    def __init__(self):
                        self._tick = self.real_tick

                    def run(self):  # repro: hot
                        self._tick()

                    def real_tick(self):
                        return {1: 2}
                """,
        })
        assert codes(violations) == ["RPR009"]
        assert "Engine.real_tick()" in violations[0].message

    def test_generic_method_on_plain_container_not_cha_resolved(
            self, tmp_path):
        # cache.get(...) on a local dict must not resolve to the
        # project's ResultCache.get (type-guided CHA).
        violations = flow(tmp_path, {
            "pipeline/loop.py": """\
                def run(core, cache):  # repro: hot
                    return cache.get(1)
                """,
            "util/store.py": """\
                class ResultCache:
                    def get(self, key):
                        return [key]
                """,
        })
        assert violations == []

    def test_cha_follows_matching_receiver_resource(self, tmp_path):
        # core.iq.insert(...) resolves to IssueQueue.insert because the
        # receiver's resource (iq) matches the class's resource.
        violations = flow(tmp_path, {
            "pipeline/loop.py": """\
                def run(core):  # repro: hot
                    core.iq.insert(1)
                """,
            "core/iq.py": """\
                class IssueQueue:
                    def insert(self, entry):
                        self.slots.append([entry])
                """,
        })
        assert codes(violations) == ["RPR009"]
        assert "IssueQueue.insert()" in violations[0].message

    def test_sibling_nested_call_resolves(self, tmp_path):
        # The pool's shape: a nested helper called only from its
        # sibling, so the name lives in the enclosing def's scope.
        project = build_project([write_tree(tmp_path, {
            "app.py": """\
                def outer():
                    def close():
                        pass

                    def finish():
                        close()

                    finish()
                """,
        })])
        finish = project.funcs["app.py:outer.<locals>.finish"]
        assert [callee.uid for callee, _line in finish.edges] == [
            "app.py:outer.<locals>.close"
        ]


# ----------------------------------------------------------------------
# RPR010 — determinism taint
# ----------------------------------------------------------------------
class TestRPR010:
    def files(self, source_line: str) -> dict[str, str]:
        return {
            "util/clock.py": f"""\
                import time  # repro: noqa[RPR001]


                def stamp():
                    return {source_line}
                """,
            "pipeline/loop.py": """\
                from util.clock import stamp


                def step(core):
                    return stamp()
                """,
        }

    def test_taint_reaches_sim_code(self, tmp_path):
        violations = flow(
            tmp_path,
            self.files("time.time()  # repro: noqa[RPR001]"),
        )
        assert codes(violations) == ["RPR010"]
        v = violations[0]
        assert v.path.endswith("pipeline/loop.py")
        assert "step() reaches a nondeterministic source" in v.message
        assert "stamp() calls time.time()" in v.message

    def test_noqa_rpr001_does_not_launder_taint(self, tmp_path):
        # The fixture above already suppresses RPR001 on every line;
        # the taint still flows. This is the laundering guarantee.
        violations = flow(
            tmp_path,
            self.files("time.time()  # repro: noqa[RPR001]"),
        )
        assert codes(violations) == ["RPR010"]

    def test_noqa_rpr010_on_source_kills_seed(self, tmp_path):
        violations = flow(
            tmp_path,
            self.files("time.time()  # repro: noqa[RPR010] — audited"),
        )
        assert violations == []

    def test_nonsim_caller_not_flagged(self, tmp_path):
        violations = flow(tmp_path, {
            "util/clock.py": """\
                import time  # repro: noqa[RPR001]


                def stamp():
                    return time.time()  # repro: noqa[RPR001]
                """,
            "util/report.py": """\
                from util.clock import stamp


                def banner():
                    return stamp()
                """,
        })
        assert violations == []

    def test_entropy_sources_seed_taint(self, tmp_path):
        violations = flow(tmp_path, {
            "util/ids.py": """\
                import uuid


                def fresh_id():
                    return uuid.uuid4()
                """,
            "pipeline/loop.py": """\
                from util.ids import fresh_id


                def step(core):
                    return fresh_id()
                """,
        })
        assert codes(violations) == ["RPR010"]
        assert "uuid.uuid4()" in violations[0].message


# ----------------------------------------------------------------------
# RPR011 — stage access contracts
# ----------------------------------------------------------------------
class TestRPR011:
    FILES = {
        "pipeline/stage.py": """\
            from repro.analysis.contracts import stage_contract


            class Core:
                @stage_contract("commit", reads=("config",),
                                writes=("rob",))
                def _commit(self, cycle):
                    self.rob.pop()
                    self.iq.free_slots = 1
                    self.fu.busy
                    self.bump()

                def bump(self):
                    self.watchdog.tick()
            """,
    }

    def test_undeclared_accesses_flagged(self, tmp_path):
        violations = flow(tmp_path, self.FILES)
        assert codes(violations) == ["RPR011"] * 3
        messages = "\n".join(v.message for v in violations)
        assert "stage 'commit' writes 'iq'" in messages
        assert "stage 'commit' reads 'fu'" in messages
        # The breach in the *callee* is attributed to the stage whose
        # closure reached it.
        assert "stage 'commit' writes 'watchdog'" in messages
        assert "Core.bump()" in messages

    def test_declared_accesses_clean(self, tmp_path):
        violations = flow(tmp_path, {
            "pipeline/stage.py": """\
                from repro.analysis.contracts import stage_contract


                class Core:
                    @stage_contract("commit", reads=("config",),
                                    writes=("rob",))
                    def _commit(self, cycle):
                        self.rob.pop()
                        return self.cfg.width
                """,
        })
        assert violations == []

    def test_noqa_on_access_suppresses(self, tmp_path):
        files = dict(self.FILES)
        files["pipeline/stage.py"] = files["pipeline/stage.py"].replace(
            "self.iq.free_slots = 1",
            "self.iq.free_slots = 1  # repro: noqa[RPR011]",
        )
        messages = "\n".join(v.message for v in flow(tmp_path, files))
        assert "writes 'iq'" not in messages
        assert "reads 'fu'" in messages

    def test_noqa_on_call_edge_prunes_stage_closure(self, tmp_path):
        files = dict(self.FILES)
        files["pipeline/stage.py"] = files["pipeline/stage.py"].replace(
            "self.bump()",
            "self.bump()  # repro: noqa[RPR011]",
        )
        messages = "\n".join(v.message for v in flow(tmp_path, files))
        assert "watchdog" not in messages
        assert "writes 'iq'" in messages


# ----------------------------------------------------------------------
# RPR012 — fork/pickle safety of worker payloads
# ----------------------------------------------------------------------
class TestRPR012:
    HEADER = "from repro.exec import SimJob, execute_jobs\n\n\n"

    def one(self, tmp_path, body: str):
        return flow(tmp_path, {"util/launch.py": self.HEADER + body})

    def test_lambda_payload_flagged(self, tmp_path):
        violations = self.one(
            tmp_path, "job = SimJob(fn=lambda: 1)\n"
        )
        assert codes(violations) == ["RPR012"]
        assert "a lambda" in violations[0].message

    def test_nested_function_closure_flagged(self, tmp_path):
        violations = self.one(tmp_path, textwrap.dedent("""\
            def build():
                def inner():
                    return 2
                return SimJob(inner)
            """))
        assert codes(violations) == ["RPR012"]
        assert "nested function 'inner'" in violations[0].message

    def test_handle_holding_object_flagged(self, tmp_path):
        violations = self.one(
            tmp_path, 'job = SimJob(open("trace.bin"))\n'
        )
        assert codes(violations) == ["RPR012"]
        assert "handle-holding open() object" in violations[0].message

    def test_module_level_function_payload_clean(self, tmp_path):
        violations = self.one(tmp_path, textwrap.dedent("""\
            def worker_entry(spec):
                return spec


            def build(spec):
                return SimJob(worker_entry, spec)
            """))
        assert violations == []

    def test_progress_callback_stays_in_parent(self, tmp_path):
        # Only the job list crosses the fork boundary; the progress
        # callback runs in the parent and may close over anything.
        violations = self.one(tmp_path, textwrap.dedent("""\
            def run(jobs):
                return execute_jobs(jobs, progress=lambda s: None)
            """))
        assert violations == []

    def test_jobs_argument_is_checked(self, tmp_path):
        violations = self.one(tmp_path, textwrap.dedent("""\
            def run():
                return execute_jobs(jobs=[lambda: 3])
            """))
        assert codes(violations) == ["RPR012"]

    def test_noqa_suppresses(self, tmp_path):
        violations = self.one(
            tmp_path,
            "job = SimJob(fn=lambda: 1)  # repro: noqa[RPR012]\n",
        )
        assert violations == []


# ----------------------------------------------------------------------
# RPR000 — parse errors surface through the flow pass too
# ----------------------------------------------------------------------
def test_syntax_error_reported(tmp_path):
    violations = flow(tmp_path, {"util/broken.py": "def broken(:\n"})
    assert codes(violations) == ["RPR000"]


# ----------------------------------------------------------------------
# static declarations == runtime registry
# ----------------------------------------------------------------------
class TestContractConsistency:
    def test_every_stage_callable_has_a_contract(self):
        assert set(STAGE_CONTRACTS) == set(STAGE_CALLABLES.values())
        for contract in STAGE_CONTRACTS.values():
            assert contract.reads <= set(RESOURCES)
            assert contract.writes <= set(RESOURCES)

    def test_static_parse_matches_runtime_registry(self):
        # The flow pass reads the decorators from source; the sanitizer
        # reads them from STAGE_CONTRACTS at import time. One
        # declaration, two enforcement layers — they must agree.
        project = build_project([Path(repro.__file__).parent])
        static = {
            fn.contract[0]: fn.contract
            for fn in project.funcs.values()
            if fn.contract is not None
        }
        assert set(static) == set(STAGE_CONTRACTS)
        for stage, (_name, reads, writes) in static.items():
            contract = STAGE_CONTRACTS[stage]
            assert reads == contract.reads, stage
            assert writes == contract.writes, stage


# ----------------------------------------------------------------------
# baseline mechanism
# ----------------------------------------------------------------------
class TestBaseline:
    FILES = {
        "pipeline/loop.py": """\
            def run(core):  # repro: hot
                return helper(core)


            def helper(core):
                return [0, 1]
            """,
    }

    def test_baselined_findings_filtered(self, tmp_path):
        root = write_tree(tmp_path, self.FILES)
        found = flow_paths([root])
        assert codes(found) == ["RPR009"]
        baseline = encode_baseline(found)
        assert flow_paths([root], baseline=baseline) == []

    def test_fingerprints_are_line_free(self, tmp_path):
        root = write_tree(tmp_path, self.FILES)
        baseline = encode_baseline(flow_paths([root]))
        # Shift every line down: the finding moves but its fingerprint
        # (path, code, message) does not, so the baseline still holds.
        target = root / "pipeline/loop.py"
        target.write_text(
            "# a new leading comment\n" + target.read_text(),
            encoding="utf-8",
        )
        assert flow_paths([root], baseline=baseline) == []

    def test_new_findings_still_surface(self, tmp_path):
        root = write_tree(tmp_path, self.FILES)
        baseline = encode_baseline(flow_paths([root]))
        target = root / "pipeline/loop.py"
        target.write_text(
            target.read_text() + "\n\ndef extra(core):\n    return {}\n"
            "\n\ndef run2(core):  # repro: hot\n    return extra(core)\n",
            encoding="utf-8",
        )
        fresh = flow_paths([root], baseline=baseline)
        assert codes(fresh) == ["RPR009"]
        assert "extra()" in fresh[0].message


# ----------------------------------------------------------------------
# CLI (python -m repro.analysis flow)
# ----------------------------------------------------------------------
class TestCli:
    CLEAN = {"util/ok.py": "def fine():\n    return 1\n"}
    DIRTY = TestBaseline.FILES

    def test_exit_zero_when_clean(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.CLEAN)
        assert main(["flow", str(root), "--no-baseline"]) == 0
        assert capsys.readouterr().out == ""

    def test_exit_one_on_findings(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.DIRTY)
        assert main(["flow", str(root), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "RPR009" in out
        assert "1 violation(s) found" in out

    def test_json_output_is_byte_stable(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.DIRTY)
        assert main(["flow", str(root), "--no-baseline", "--json"]) == 1
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["rules"] == FLOW_RULES
        assert [v["code"] for v in payload["violations"]] == ["RPR009"]
        # Same contract as every committed JSON artifact: re-encoding
        # the decoded payload reproduces the bytes exactly.
        assert out == stable_dumps(payload)

    def test_update_then_check_roundtrip(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.DIRTY)
        baseline = tmp_path / "flow_baseline.json"
        assert main([
            "flow", str(root), "--baseline", str(baseline),
            "--update-baseline",
        ]) == 0
        assert "wrote 1 finding(s)" in capsys.readouterr().out
        body = json.loads(baseline.read_text(encoding="utf-8"))
        assert body["version"] == 1
        assert [f["code"] for f in body["findings"]] == ["RPR009"]
        assert main([
            "flow", str(root), "--baseline", str(baseline),
        ]) == 0

    def test_missing_baseline_is_usage_error(self, tmp_path, capsys):
        root = write_tree(tmp_path, self.CLEAN)
        missing = tmp_path / "nope.json"
        assert main(["flow", str(root), "--baseline", str(missing)]) == 2
        assert "no such baseline" in capsys.readouterr().err


# ----------------------------------------------------------------------
# the shipped tree is clean
# ----------------------------------------------------------------------
def test_shipped_tree_is_clean_against_committed_baseline(monkeypatch):
    repo_root = Path(repro.__file__).resolve().parents[2]
    monkeypatch.chdir(repo_root)
    baseline_path = default_baseline_path()
    assert baseline_path.exists(), "results/flow_baseline.json missing"
    violations = flow_paths(
        [Path("src/repro")], baseline=load_baseline(baseline_path)
    )
    assert violations == [], "\n".join(v.render() for v in violations)
