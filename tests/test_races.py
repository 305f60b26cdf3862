"""Tests for the static concurrency pass (``repro.analysis.races``).

Each rule (RPR014-RPR016) gets an injected-violation fixture, a
near-miss that must stay clean, and a suppression check; plus
execution-context inference units (thread/async/fork/signal roots),
lockset joins over branches, a lock-order cycle of length 3, the
baseline mechanism (round-trip + line-shift stability), the CLI exit
codes, a runtime regression hammer for the exec fix this pass
motivated, and an end-to-end check that the shipped ``src/repro`` tree
is clean against the committed baseline.
"""

from __future__ import annotations

import textwrap
import threading
from pathlib import Path

from repro.analysis.flow import build_project, encode_baseline, load_baseline
from repro.analysis.lint import main
from repro.analysis.races import (
    RACES_RULES,
    default_races_baseline_path,
    infer_contexts,
    races_paths,
)
from repro.util.encoding import stable_dumps


def write_tree(root: Path, files: dict[str, str]) -> Path:
    """Materialise a fixture package tree under ``root / 'proj'``."""
    proj = root / "proj"
    for rel, source in files.items():
        path = proj / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return proj


def races(root: Path, files: dict[str, str], baseline=None):
    return races_paths([write_tree(root, files)], baseline=baseline)


def codes(violations) -> list[str]:
    return [v.code for v in violations]


# ----------------------------------------------------------------------
# execution-context inference
# ----------------------------------------------------------------------
class TestContextInference:
    FILES = {
        "app.py": """\
            import atexit
            import signal
            import threading
            from multiprocessing import Process

            def worker_thread():
                tick()

            def worker_child():
                pass

            def cleanup():
                pass

            def on_signal(signum, frame):
                pass

            def tick():
                pass

            async def handler():
                tick()

            def main():
                threading.Thread(target=worker_thread).start()
                Process(target=worker_child).start()
                atexit.register(cleanup)
                signal.signal(signal.SIGTERM, on_signal)
                bystander()

            def bystander():
                pass
            """,
    }

    def _contexts(self, tmp_path):
        project = build_project([write_tree(tmp_path, self.FILES)])
        return project, infer_contexts(project)

    def test_thread_root_from_thread_target(self, tmp_path):
        _, ctx = self._contexts(tmp_path)
        assert "app.py:worker_thread" in ctx.roots["thread"]

    def test_fork_root_from_process_target(self, tmp_path):
        _, ctx = self._contexts(tmp_path)
        assert "app.py:worker_child" in ctx.roots["fork"]

    def test_handler_roots_from_atexit_and_signal(self, tmp_path):
        _, ctx = self._contexts(tmp_path)
        assert "app.py:cleanup" in ctx.roots["handler"]
        assert "app.py:on_signal" in ctx.roots["handler"]

    def test_async_root_from_coroutine_def(self, tmp_path):
        _, ctx = self._contexts(tmp_path)
        assert "app.py:handler" in ctx.roots["async"]

    def test_context_kinds_flow_through_call_edges(self, tmp_path):
        _, ctx = self._contexts(tmp_path)
        # tick() is called from the thread root and the coroutine, and
        # from nothing in the main context.
        assert ctx.kinds["app.py:tick"] == frozenset({"thread", "async"})
        assert ctx.kinds["app.py:bystander"] == frozenset({"main"})

    def test_registered_roots_are_not_main_entry_points(self, tmp_path):
        _, ctx = self._contexts(tmp_path)
        assert "app.py:worker_thread" not in ctx.roots["main"]
        assert "app.py:main" in ctx.roots["main"]

    def test_sync_call_of_coroutine_does_not_propagate(self, tmp_path):
        project = build_project([write_tree(tmp_path, {
            "app.py": """\
                async def coro():
                    helper()

                def helper():
                    pass

                def harness():
                    coro()
                """,
        })])
        ctx = infer_contexts(project)
        # harness() only *creates* the coroutine; the body runs on the
        # loop, so neither coro nor helper picks up the main context.
        assert ctx.kinds["app.py:coro"] == frozenset({"async"})
        assert ctx.kinds["app.py:helper"] == frozenset({"async"})
        assert ctx.kinds["app.py:harness"] == frozenset({"main"})

    def test_sibling_nested_call_inherits_context(self, tmp_path):
        # The pool's shape: a nested helper called only from its
        # sibling, inside a function that runs on another context.
        project = build_project([write_tree(tmp_path, {
            "app.py": """\
                import threading

                def outer():
                    def close():
                        pass

                    def finish():
                        close()

                    finish()

                def main():
                    threading.Thread(target=outer).start()
                """,
        })])
        ctx = infer_contexts(project)
        assert ctx.kinds.get("app.py:outer.<locals>.finish") == \
            frozenset({"thread"})
        assert ctx.kinds.get("app.py:outer.<locals>.close") == \
            frozenset({"thread"})

    def test_self_method_registration_marks_class_escaping(self, tmp_path):
        project = build_project([write_tree(tmp_path, {
            "app.py": """\
                import threading

                class Owner:
                    def __init__(self):
                        self.items = []
                        threading.Thread(target=self._run).start()

                    def _run(self):
                        pass

                class Plain:
                    def __init__(self):
                        self.items = []
                """,
        })])
        ctx = infer_contexts(project)
        assert ("app.py", "Owner") in ctx.escaping
        assert ("app.py", "Plain") not in ctx.escaping


# ----------------------------------------------------------------------
# RPR014 — lockset consistency
# ----------------------------------------------------------------------
class TestRPR014:
    FILES = {
        "store.py": """\
            import threading

            class Store:
                def __init__(self):
                    self.items = []
                    self._lock = threading.Lock()
                    threading.Thread(target=self._drain).start()

                def _drain(self):
                    while True:
                        with self._lock:
                            self.items.pop()

                def push(self, x):
                    self.items.append(x)
            """,
    }

    def test_inconsistent_lockset_flagged(self, tmp_path):
        violations = races(tmp_path, self.FILES)
        assert codes(violations) == ["RPR014"]
        v = violations[0]
        assert "Store.items" in v.message
        assert "main+thread" in v.message
        assert "Store.push" in v.message

    def test_consistent_lockset_is_clean(self, tmp_path):
        violations = races(tmp_path, {
            "store.py": self.FILES["store.py"].replace(
                "self.items.append(x)",
                "with self._lock:\n"
                "                        self.items.append(x)",
            ),
        })
        assert violations == []

    def test_single_context_state_is_clean(self, tmp_path):
        violations = races(tmp_path, {
            "store.py": """\
                import threading

                class Store:
                    def __init__(self):
                        self.items = []
                        threading.Thread(target=self._drain).start()

                    def _drain(self):
                        self.items.pop()
                """,
        })
        # Only the thread context ever writes items after __init__.
        assert violations == []

    def test_init_writes_do_not_count(self, tmp_path):
        violations = races(tmp_path, {
            "store.py": """\
                import threading

                class Store:
                    def __init__(self):
                        self.items = [1, 2]
                        threading.Thread(target=self._drain).start()

                    def _drain(self):
                        self.items.pop()
                """,
        })
        assert violations == []

    def test_noqa_on_access_line_suppresses(self, tmp_path):
        violations = races(tmp_path, {
            "store.py": self.FILES["store.py"].replace(
                "self.items.append(x)",
                "self.items.append(x)  # repro: noqa[RPR014] — "
                "callers serialise pushes",
            ),
        })
        assert violations == []

    def test_lockset_join_over_branches(self, tmp_path):
        violations = races(tmp_path, {
            "joiner.py": """\
                import threading

                class Joiner:
                    def __init__(self, flag):
                        self.flag = flag
                        self.count = 0
                        self._lock = threading.Lock()
                        threading.Thread(target=self.tick).start()

                    def tick(self):
                        if self.flag:
                            self._lock.acquire()
                        self.count += 1
                        if self.flag:
                            self._lock.release()

                    def bump(self):
                        with self._lock:
                            self.count += 1
                """,
        })
        # The acquire happens on only one branch: after the join the
        # must-set is empty, so the increment is unguarded.
        assert codes(violations) == ["RPR014"]
        assert "Joiner.count" in violations[0].message

    def test_unconditional_acquire_joins_clean(self, tmp_path):
        violations = races(tmp_path, {
            "joiner.py": """\
                import threading

                class Joiner:
                    def __init__(self):
                        self.count = 0
                        self._lock = threading.Lock()
                        threading.Thread(target=self.tick).start()

                    def tick(self):
                        self._lock.acquire()
                        self.count += 1
                        self._lock.release()

                    def bump(self):
                        with self._lock:
                            self.count += 1
                """,
        })
        assert violations == []

    def test_module_global_written_from_two_contexts(self, tmp_path):
        violations = races(tmp_path, {
            "reg.py": """\
                import atexit

                LIVE: set = set()

                def spawn(proc):
                    LIVE.add(proc)

                def _sweep():
                    for proc in list(LIVE):
                        LIVE.discard(proc)

                atexit.register(_sweep)
                """,
        })
        assert codes(violations) == ["RPR014"]
        assert "proj.reg.LIVE" in violations[0].message
        assert "handler+main" in violations[0].message

    def test_entry_locksets_flow_through_calls(self, tmp_path):
        violations = races(tmp_path, {
            "store.py": """\
                import threading

                class Store:
                    def __init__(self):
                        self.items = []
                        self._lock = threading.Lock()
                        threading.Thread(target=self._drain).start()

                    def _drain(self):
                        with self._lock:
                            self._pop_locked()

                    def _pop_locked(self):
                        self.items.pop()

                    def push(self, x):
                        with self._lock:
                            self.items.append(x)
                """,
        })
        # _pop_locked's only caller holds the lock: the entry-lockset
        # fixpoint must credit it, leaving every access guarded.
        assert violations == []


# ----------------------------------------------------------------------
# RPR015 — lock-order cycles
# ----------------------------------------------------------------------
class TestRPR015:
    FILES = {
        "trio.py": """\
            import threading

            class Trio:
                def __init__(self):
                    self.lock_a = threading.Lock()
                    self.lock_b = threading.Lock()
                    self.lock_c = threading.Lock()

                def ab(self):
                    with self.lock_a:
                        with self.lock_b:
                            pass

                def bc(self):
                    with self.lock_b:
                        with self.lock_c:
                            pass

                def ca(self):
                    with self.lock_c:
                        with self.lock_a:
                            pass
            """,
    }

    def test_cycle_of_length_three_flagged(self, tmp_path):
        violations = races(tmp_path, self.FILES)
        assert codes(violations) == ["RPR015"]
        msg = violations[0].message
        assert ("Trio.lock_a -> Trio.lock_b -> Trio.lock_c -> "
                "Trio.lock_a") in msg

    def test_consistent_order_is_clean(self, tmp_path):
        violations = races(tmp_path, {
            "trio.py": self.FILES["trio.py"].replace(
                "with self.lock_c:\n"
                "                        with self.lock_a:",
                "with self.lock_a:\n"
                "                        with self.lock_c:",
            ),
        })
        assert violations == []

    def test_noqa_on_acquisition_drops_the_edge(self, tmp_path):
        violations = races(tmp_path, {
            "trio.py": self.FILES["trio.py"].replace(
                "with self.lock_c:\n"
                "                        with self.lock_a:",
                "with self.lock_c:\n"
                "                        with self.lock_a:  "
                "# repro: noqa[RPR015] — "
                "ca() never runs concurrently with ab()",
            ),
        })
        assert violations == []

    def test_ctor_typed_locks_need_no_lockish_name(self, tmp_path):
        violations = races(tmp_path, {
            "pair.py": """\
                import threading

                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def one(self):
                        with self._a:
                            with self._b:
                                pass

                    def two(self):
                        with self._b:
                            with self._a:
                                pass
                """,
        })
        assert codes(violations) == ["RPR015"]
        assert "Pair._a -> Pair._b -> Pair._a" in violations[0].message

    def test_order_edges_cross_call_boundaries(self, tmp_path):
        violations = races(tmp_path, {
            "pair.py": """\
                import threading

                class Pair:
                    def __init__(self):
                        self._a = threading.Lock()
                        self._b = threading.Lock()

                    def outer(self):
                        with self._a:
                            self.inner()

                    def inner(self):
                        with self._b:
                            pass

                    def flipped(self):
                        with self._b:
                            with self._a:
                                pass
                """,
        })
        # inner() acquires _b while its caller may hold _a: the
        # may-entry lockset supplies the a -> b edge interprocedurally.
        assert codes(violations) == ["RPR015"]


# ----------------------------------------------------------------------
# RPR016 — fork safety
# ----------------------------------------------------------------------
class TestRPR016:
    def test_fork_under_lock_flagged(self, tmp_path):
        violations = races(tmp_path, {
            "forky.py": """\
                import os
                import threading

                _lock = threading.Lock()

                def spawn():
                    with _lock:
                        pid = os.fork()
                    return pid
                """,
        })
        assert codes(violations) == ["RPR016"]
        assert "os.fork()" in violations[0].message
        assert "_lock" in violations[0].message

    def test_fork_outside_lock_is_clean(self, tmp_path):
        violations = races(tmp_path, {
            "forky.py": """\
                import os
                import threading

                _lock = threading.Lock()

                def spawn():
                    with _lock:
                        pass
                    return os.fork()
                """,
        })
        assert violations == []

    def test_fork_while_caller_holds_lock_flagged(self, tmp_path):
        violations = races(tmp_path, {
            "forky.py": """\
                import os
                import threading

                _lock = threading.Lock()

                def outer():
                    with _lock:
                        return spawn()

                def spawn():
                    return os.fork()
                """,
        })
        # The lock is held by the *caller*; the may-entry lockset must
        # carry it into spawn().
        assert codes(violations) == ["RPR016"]

    def test_lock_holding_attr_inherited_by_child_flagged(self, tmp_path):
        violations = races(tmp_path, {
            "owner.py": """\
                import threading
                from multiprocessing import Process

                class Owner:
                    def __init__(self):
                        self.guard = threading.Lock()

                    def launch(self, fn):
                        proc = Process(target=fn, args=(self.guard,))
                        proc.start()
                        return proc
                """,
        })
        assert codes(violations) == ["RPR016"]
        assert "self.guard" in violations[0].message
        assert "threading.Lock" in violations[0].message

    def test_plain_payload_is_clean(self, tmp_path):
        violations = races(tmp_path, {
            "owner.py": """\
                from multiprocessing import Process

                def launch(fn, job):
                    proc = Process(target=fn, args=(job, 3, "name"))
                    proc.start()
                    return proc
                """,
        })
        assert violations == []

    def test_local_handle_inherited_by_child_flagged(self, tmp_path):
        violations = races(tmp_path, {
            "owner.py": """\
                from multiprocessing import Process

                def launch(fn, path):
                    handle = open(path)
                    proc = Process(target=fn, args=(handle,))
                    proc.start()
                    return proc
                """,
        })
        assert codes(violations) == ["RPR016"]
        assert "handle" in violations[0].message

    def test_noqa_on_fork_site_suppresses(self, tmp_path):
        violations = races(tmp_path, {
            "forky.py": """\
                import os
                import threading

                _lock = threading.Lock()

                def spawn():
                    with _lock:
                        pid = os.fork()  # repro: noqa[RPR016] — child execs immediately
                    return pid
                """,
        })
        assert violations == []


# ----------------------------------------------------------------------
# baseline mechanism
# ----------------------------------------------------------------------
class TestBaseline:
    def test_round_trip_suppresses_recorded_findings(self, tmp_path):
        violations = races(tmp_path, TestRPR014.FILES)
        assert codes(violations) == ["RPR014"]
        baseline = encode_baseline(violations)
        again = races_paths([tmp_path / "proj"], baseline=baseline)
        assert again == []

    def test_fingerprints_survive_line_shifts(self, tmp_path):
        violations = races(tmp_path, TestRPR014.FILES)
        baseline = encode_baseline(violations)
        proj = tmp_path / "proj"
        (proj / "store.py").write_text(
            "# a comment pushing every line down\n\n"
            + textwrap.dedent(TestRPR014.FILES["store.py"]),
            encoding="utf-8",
        )
        again = races_paths([proj], baseline=baseline)
        assert again == []

    def test_new_findings_surface_past_the_baseline(self, tmp_path):
        violations = races(tmp_path, TestRPR014.FILES)
        baseline = encode_baseline(violations)
        grown = textwrap.dedent(
                """\

                    class Second:
                        def __init__(self):
                            self.seen = set()
                            threading.Thread(target=self.watch).start()

                        def watch(self):
                            self.seen.clear()

                        def note(self, x):
                            self.seen.add(x)
                """)
        proj = tmp_path / "proj"
        (proj / "store.py").write_text(
            textwrap.dedent(TestRPR014.FILES["store.py"]) + grown,
            encoding="utf-8",
        )
        fresh = races_paths([proj], baseline=baseline)
        assert codes(fresh) == ["RPR014"]
        assert "Second.seen" in fresh[0].message


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_violations_exit_code_and_rendering(self, tmp_path, capsys):
        proj = write_tree(tmp_path, TestRPR014.FILES)
        assert main(["races", str(proj), "--no-baseline"]) == 1
        out = capsys.readouterr().out
        assert "RPR014" in out
        assert "1 violation(s) found" in out

    def test_clean_tree_exits_zero(self, tmp_path):
        proj = write_tree(tmp_path, {
            "calm.py": "def nothing():\n    return 0\n",
        })
        assert main(["races", str(proj), "--no-baseline"]) == 0

    def test_json_output_is_stable_dumps(self, tmp_path, capsys):
        proj = write_tree(tmp_path, TestRPR014.FILES)
        assert main(["races", str(proj), "--no-baseline",
                     "--json"]) == 1
        out = capsys.readouterr().out
        violations = races_paths([proj])
        assert out == stable_dumps({
            "violations": [v.as_dict() for v in violations],
            "count": len(violations),
            "rules": RACES_RULES,
            "baseline": None,
            "stale_baseline": [],
        })

    def test_ignore_narrows_reporting(self, tmp_path):
        proj = write_tree(tmp_path, TestRPR014.FILES)
        assert main(["races", str(proj), "--no-baseline",
                     "--ignore", "RPR014"]) == 0

    def test_missing_baseline_is_usage_error(self, tmp_path):
        proj = write_tree(tmp_path, TestRPR014.FILES)
        assert main(["races", str(proj), "--baseline",
                     str(tmp_path / "nope.json")]) == 2

    def test_update_baseline_then_stale_detection(self, tmp_path,
                                                  capsys):
        proj = write_tree(tmp_path, TestRPR014.FILES)
        baseline = tmp_path / "races.json"
        assert main(["races", str(proj), "--baseline", str(baseline),
                     "--update-baseline"]) == 0
        assert load_baseline(baseline)["findings"]
        assert main(["races", str(proj), "--baseline",
                     str(baseline)]) == 0
        # Pay down the debt: guard the push. The recorded finding no
        # longer occurs, so the full view must report the baseline
        # stale (exit 3).
        (proj / "store.py").write_text(textwrap.dedent(
            TestRPR014.FILES["store.py"]).replace(
                "def push(self, x):\n"
                "        self.items.append(x)",
                "def push(self, x):\n"
                "        with self._lock:\n"
                "            self.items.append(x)",
        ), encoding="utf-8")
        capsys.readouterr()
        assert main(["races", str(proj), "--baseline",
                     str(baseline)]) == 3
        assert "stale baseline" in capsys.readouterr().out


# ----------------------------------------------------------------------
# runtime regression for the exec fix this pass motivated
# ----------------------------------------------------------------------
class _FakeProc:
    """Stands in for a multiprocessing.Process in registry hammers."""

    def __init__(self, *args, **kwargs) -> None:
        self.started = False

    def start(self) -> None:
        self.started = True

    def is_alive(self) -> bool:
        return False

    def join(self, timeout=None) -> None:
        return None

    def terminate(self) -> None:
        return None

    def kill(self) -> None:
        return None


class TestRuntimeRegressions:
    def test_live_worker_registry_survives_concurrent_churn(self):
        from repro.exec import pool

        stop = threading.Event()
        failures: list[BaseException] = []

        def churn() -> None:
            try:
                while not stop.is_set():
                    procs = [_FakeProc() for _ in range(50)]
                    with pool._LIVE_LOCK:
                        pool._LIVE_WORKERS.update(procs)
                    with pool._LIVE_LOCK:
                        pool._LIVE_WORKERS.difference_update(procs)
            except BaseException as exc:  # pragma: no cover
                failures.append(exc)

        writer = threading.Thread(target=churn)
        writer.start()
        try:
            # Pre-fix these readers iterated the live set directly and
            # died with "Set changed size during iteration".
            for _ in range(300):
                pool.live_worker_count()
                pool._reap_orphans()
        finally:
            stop.set()
            writer.join()
        assert not failures
        assert pool.live_worker_count() == 0


# ----------------------------------------------------------------------
# the shipped tree
# ----------------------------------------------------------------------
def test_shipped_tree_is_clean_against_committed_baseline(monkeypatch):
    repo = Path(__file__).resolve().parents[1]
    monkeypatch.chdir(repo)
    baseline_path = default_races_baseline_path()
    assert baseline_path.exists(), "results/races_baseline.json missing"
    baseline = load_baseline(baseline_path)
    violations = races_paths([repo / "src" / "repro"],
                             baseline=baseline)
    assert violations == [], [v.render() for v in violations]
