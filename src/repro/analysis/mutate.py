"""Mutation analysis: measure the detection power of the oracles.

The repo's runtime oracles — the sanitizer with its stage contracts,
the golden stats digests and the tier-1 test suite — need something
that measures what semantic faults they actually catch. This engine
injects microarchitecture-aware faults (see :mod:`repro.analysis.mutops`
for the operator table) into the load-bearing core of the simulator
and reports which oracle layer, if any, notices. The static RPR rules
are no layer: every mutant compiles, and none of the operators'
rewrites (comparisons, counter increments, integer literals,
``min``/``max``, lock guards) is anything a rule flags.

Pipeline:

1. **Site selection.** Mutation targets are the functions the
   :data:`TARGETS` table names, restricted to the files under the
   requested roots: the per-cycle stages and hot helpers, and the few
   paths around them whose faults the oracles must also see. A test
   keeps every ``# repro: hot`` and ``@stage_contract`` function of the
   pipeline in the table, so mutants land in code that runs every
   simulated cycle — not dead code.
2. **Mutant identity.** Each site gets a deterministic content-hash id
   over ``(path, node span, operator)``, stable across checkouts.
3. **Execution.** Each ``(mutant, oracle layer)`` pair becomes a
   content-hashed :class:`repro.exec.WorkJob` riding the existing farm
   (LJF scheduling, per-job timeout, hung-worker watchdog, journal).
   Mutants are applied by **in-memory AST rewrite + import hook** in a
   forked sandbox — no source file is ever modified on disk. Outcomes
   are cached content-addressed, so a warm re-run executes nothing.
4. **Oracle cascade.** Layers run as waves over the still-alive
   mutants, so every kill is attributed to exactly one (the first)
   layer::

       sanitizer a sanitized short simulation raises
                 SanitizerViolation (invariants + stage contracts)
       stats     PipelineStats digests of short simulations diverge
                 from the cached golden run, or the mutant crashes
       tests     the pinned tier-1 test subset fails
       timeout   the mutant wedges and is reaped (sandbox deadline or
                 the pool watchdog)

5. **Report.** A per-layer kill matrix, a per-operator breakdown, and
   a surviving-mutant list with minimized repro commands, gated
   against the committed byte-stable ``results/mutation_baseline.json``.

Usage::

    python -m repro.analysis mutate src/repro/pipeline --jobs 8
    python -m repro.analysis mutate src/repro/pipeline --json
    python -m repro.analysis mutate src/repro/pipeline --only m0123abcd4567
    python -m repro.analysis mutate src/repro/pipeline \\
        --sample 25 --seed 2006 --require-all-killed   # the CI smoke
    python -m repro.analysis mutate src/repro/pipeline --update-baseline
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import select
import signal
import subprocess
import sys
from pathlib import Path
from time import monotonic as _monotonic  # repro: noqa[RPR001]

from repro.analysis.common import (
    EXIT_CLEAN,
    EXIT_REGRESSION,
    EXIT_STALE_BASELINE,
    EXIT_USAGE,
)
from repro.analysis.mutops import (
    OPERATORS,
    MutationSite,
    SiteNotFound,
    apply_to_module,
    sites_for_function,
)
from repro.exec.jobs import WorkJob, hash_payload
from repro.exec.journal import journal_dir_from_env
from repro.exec.pool import ExecutorConfig, execute_jobs
from repro.util.atomic import atomic_write
from repro.util.encoding import stable_dumps

#: Oracle layers, in cascade order. ``timeout`` is not a wave of its
#: own: any layer's job that wedges attributes its kill here.
LAYERS: tuple[str, ...] = ("sanitizer", "stats", "tests")

#: Per-mutant sandbox deadline (seconds) unless ``--timeout`` says
#: otherwise. The pool-level timeout backstops it at 2x + slack, so a
#: wedged *worker* (not just a wedged mutant) is still reaped.
DEFAULT_TIMEOUT = 120.0

#: Short simulations driven by the sanitizer and stats kernels: both
#: schedulers, a 2-thread and a 4-thread mix, small machines. Budgets
#: are tiny — the point is hitting every pipeline mechanism, not
#: statistical confidence.
SCENARIOS: tuple[dict[str, object], ...] = (
    {"name": "trad-2t", "scheduler": "traditional", "iq": 16,
     "mix": ["gcc", "mcf"], "max_insns": 1200, "seed": 0},
    {"name": "2op-2t", "scheduler": "2op_ooo", "iq": 16,
     "mix": ["gcc", "mcf"], "max_insns": 1200, "seed": 0},
    {"name": "2op-4t", "scheduler": "2op_ooo", "iq": 8,
     "mix": ["gzip", "art", "swim", "crafty"], "max_insns": 800,
     "seed": 1,
     "config": {"int_phys_regs": 192, "fp_phys_regs": 192}},
)

#: Pinned tier-1 subset for the ``tests`` layer: the fast,
#: pipeline-semantics-heavy files. Deliberately not the whole suite —
#: the cascade already killed most mutants by now and this layer pays
#: a fresh interpreter per mutant.
PINNED_TESTS: tuple[str, ...] = (
    "tests/test_iq.py",
    "tests/test_dispatch_policies.py",
    "tests/test_smt_core.py",
    "tests/test_fetch.py",
    "tests/test_rename.py",
    "tests/test_stats.py",
    "tests/test_stat_accounting.py",
)

#: The functions mutated, by repository-relative file: the per-cycle
#: stages and hot helpers, the flush and forwarding paths they call,
#: and the construction checks and warm-state memo (tests pin the
#: memo's lock-drop mutants). Qualnames are top-level functions or
#: ``Class.method``; nested defs are mutated as part of their parent.
TARGETS: dict[str, tuple[str, ...]] = {
    "src/repro/pipeline/fu.py": (
        "FunctionalUnitPool.available",
        "FunctionalUnitPool.try_claim",
    ),
    "src/repro/pipeline/lsq.py": (
        "LoadStoreQueue.__init__",
        "LoadStoreQueue.can_forward",
    ),
    "src/repro/pipeline/rob.py": (
        "ReorderBuffer.__init__",
        "ReorderBuffer.first_order_violation",
    ),
    "src/repro/pipeline/smt_core.py": (
        "SMTProcessor.__init__",
        "SMTProcessor.step",
        "SMTProcessor._commit",
        "SMTProcessor._apply_events",
        "SMTProcessor._start_execution",
        "SMTProcessor._issue",
        "SMTProcessor._dispatch",
        "SMTProcessor._sample_hdi",
        "SMTProcessor._rename",
        "SMTProcessor._flush_all",
        "SMTProcessor._warm_start",
        "_remember",
    ),
    "src/repro/pipeline/thread.py": (
        "ThreadState.flush_inflight",
    ),
}

#: Relative job costs for longest-job-first ordering.
_LAYER_COST = {"sanitizer": 3, "stats": 3, "tests": 10}


def _repo_root() -> Path:
    """Repository root in a source checkout (three levels up)."""
    return Path(__file__).resolve().parents[3]


def _package_root(path: Path) -> Path:
    """Ascend from a target to the top of its package (e.g. src/repro)."""
    p = path.resolve()
    if p.is_file():
        p = p.parent
    while (p.parent / "__init__.py").exists():
        p = p.parent
    return p


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# in-memory mutant application (import hook)
# ----------------------------------------------------------------------
class _MutantLoader:
    def __init__(self, code: object) -> None:
        self._code = code

    def create_module(self, spec: object):  # default semantics
        return None

    def exec_module(self, module: object) -> None:
        exec(self._code, module.__dict__)


class _MutantFinder:
    """Meta-path finder serving exactly one mutated module."""

    def __init__(self, fullname: str, code: object, origin: str) -> None:
        self._fullname = fullname
        self._code = code
        self._origin = origin

    def find_spec(self, name: str, path: object, target: object = None):
        if name != self._fullname:
            return None
        import importlib.util

        spec = importlib.util.spec_from_loader(
            name, _MutantLoader(self._code), origin=self._origin
        )
        # Keep ``module.__file__`` pointing at the real (unmutated)
        # source so tracebacks and coverage stay navigable.
        spec.has_location = True
        return spec


def install_mutant(spec: dict[str, object],
                   repo_root: Path | None = None) -> None:
    """Serve the mutated module to all future imports of this process.

    Compiles the mutated AST directly (never touching the disk), puts
    a meta-path finder for the one target module in front, and purges
    every already-imported ``repro`` module so nothing stale survives.
    Call only in a sacrificial process — a forked sandbox child or a
    dedicated pytest run — never in a process that will do anything
    else afterwards.
    """
    root = repo_root if repo_root is not None else _repo_root()
    abs_path = root / str(spec["path"])
    tree = ast.parse(abs_path.read_text(encoding="utf-8"))
    mutated = apply_to_module(tree, spec)
    code = compile(mutated, str(abs_path), "exec")
    sys.meta_path.insert(
        0, _MutantFinder(str(spec["module"]), code, str(abs_path))
    )
    for name in list(sys.modules):
        if name == "repro" or name.startswith("repro."):
            del sys.modules[name]


def install_mutant_from_env() -> None:
    """conftest.py hook: install the mutant named by ``REPRO_MUTANT``.

    The ``tests`` oracle layer runs the pinned pytest subset in a fresh
    interpreter with ``REPRO_MUTANT`` set to the mutant's JSON spec;
    the repo-root ``conftest.py`` calls this before any test module is
    imported. A no-op when the variable is unset.
    """
    blob = os.environ.get("REPRO_MUTANT")
    if not blob:
        return
    install_mutant(json.loads(blob))


# ----------------------------------------------------------------------
# forked sandbox: a mutant never runs in a long-lived process
# ----------------------------------------------------------------------
def _fork_run(fn, timeout_s: float) -> tuple[str, object]:
    """Run ``fn()`` in a forked child; (status, value) with status in
    ``ok`` / ``error`` / ``timeout``.

    Plain ``os.fork`` rather than multiprocessing: the pool's workers
    are daemonic and may not spawn multiprocessing children, but the
    sandbox must exist even there — a mutant import poisons whatever
    process performs it. The child reports a JSON blob over a pipe and
    exits; past the deadline it is SIGKILLed and reported as a
    timeout. Stdout/stderr are routed to /dev/null so mutant noise
    cannot corrupt the worker protocol.
    """
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 0
        try:
            os.close(r)
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, 1)
            os.dup2(devnull, 2)
            out: dict[str, object] = {"ok": fn()}
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            out = {"error": f"{type(exc).__name__}: {exc}"}
            status = 1
        try:
            os.write(w, json.dumps(out).encode("utf-8"))
        except Exception:  # repro: noqa[RPR007] — parent gone; just exit
            pass
        os._exit(status)
    os.close(w)
    deadline = _monotonic() + timeout_s
    chunks: list[bytes] = []
    timed_out = False
    try:
        while True:
            remaining = deadline - _monotonic()
            if remaining <= 0.0:
                timed_out = True
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:  # repro: noqa[RPR007] — child already exited; timeout stands
                    pass
                break
            ready, _, _ = select.select([r], [], [], min(remaining, 0.25))
            if not ready:
                continue
            chunk = os.read(r, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    finally:
        os.close(r)
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # repro: noqa[RPR007] — already reaped elsewhere
            pass
    if timed_out:
        return "timeout", None
    if not chunks:
        return "error", "mutant child died without reporting"
    try:
        out = json.loads(b"".join(chunks).decode("utf-8"))
    except ValueError:
        return "error", "mutant child wrote a torn result"
    if "ok" in out:
        return "ok", out["ok"]
    return "error", str(out.get("error", "unknown"))


# ----------------------------------------------------------------------
# simulation scenarios + stats digests
# ----------------------------------------------------------------------
def _scenario_config(scen: dict[str, object], sanitize: bool):
    from repro.config.presets import small_machine

    extra: dict[str, object] = dict(scen.get("config", {}))
    if sanitize:
        extra.update(sanitize=True, sanitize_interval=16)
    return small_machine(
        iq_size=int(scen["iq"]), scheduler=str(scen["scheduler"]), **extra
    )


def _run_scenario(scen: dict[str, object], sanitize: bool):
    from repro.experiments.runner import simulate_mix

    return simulate_mix(
        tuple(str(b) for b in scen["mix"]),
        _scenario_config(scen, sanitize),
        max_insns=int(scen["max_insns"]),
        seed=int(scen["seed"]),
    )


def _result_digest(result) -> str:
    """Exact digest of a SimResult; floats via repr, so bit-exact."""
    return hash_payload({
        "benchmarks": list(result.benchmarks),
        "scheduler": result.scheduler,
        "iq_size": result.iq_size,
        "cycles": result.cycles,
        "committed": list(result.committed),
        "extras": {k: repr(float(v))
                   for k, v in sorted(result.extras.items())},
    })


def _scenario_digests(sanitize: bool = False) -> dict[str, str]:
    return {
        str(scen["name"]): _result_digest(_run_scenario(scen, sanitize))
        for scen in SCENARIOS
    }


# ----------------------------------------------------------------------
# oracle-layer kernels (WorkJob entry points; run inside pool workers)
# ----------------------------------------------------------------------
def _kill(layer: str, detail: str) -> dict[str, object]:
    return {"outcome": "killed", "killed_by": layer, "detail": detail}


_SURVIVED: dict[str, object] = {
    "outcome": "survived", "killed_by": None, "detail": "",
}


def _kernel_sanitizer(payload: dict[str, object]) -> dict[str, object]:
    spec = payload["mutant"]
    # The first layer fails the job on a site that no longer matches
    # its source; inside the sandbox it would fall through to a stats
    # "crash" kill.
    source = (_repo_root() / str(spec["path"])).read_text(encoding="utf-8")
    try:
        apply_to_module(ast.parse(source), spec)
    except SiteNotFound as exc:
        raise ValueError(f"stale mutation site: {exc}") from exc

    def body() -> dict[str, object]:
        install_mutant(spec)
        for scen in payload["scenarios"]:
            _run_scenario(scen, sanitize=True)
        return {}

    status, value = _fork_run(body, float(payload["timeout"]))
    if status == "timeout":
        return _kill("timeout", "sanitized run wedged; sandbox deadline")
    if status == "error" and "SanitizerViolation" in str(value):
        return _kill("sanitizer", str(value)[:200])
    # Other crashes fall through: the stats layer owns them, so the
    # attribution stays "what the sanitizer specifically caught".
    return dict(_SURVIVED)


def _kernel_stats(payload: dict[str, object]) -> dict[str, object]:
    spec = payload["mutant"]

    def body() -> dict[str, object]:
        install_mutant(spec)
        return {str(scen["name"]): _result_digest(_run_scenario(scen, False))
                for scen in payload["scenarios"]}

    status, value = _fork_run(body, float(payload["timeout"]))
    if status == "timeout":
        return _kill("timeout", "simulation wedged; sandbox deadline")
    if status == "error":
        return _kill("stats", f"mutant crashed: {str(value)[:200]}")
    golden = dict(payload["golden"])
    diverged = sorted(
        name for name, digest in dict(value).items()
        if golden.get(name) != digest
    )
    if diverged:
        return _kill(
            "stats",
            "PipelineStats diverged on scenario(s): " + ", ".join(diverged),
        )
    return dict(_SURVIVED)


def _kernel_tests(payload: dict[str, object]) -> dict[str, object]:
    repo_root = _repo_root()
    spec = payload["mutant"]
    env = dict(os.environ)
    src = str(repo_root / "src")
    pythonpath = env.get("PYTHONPATH", "")
    if src not in pythonpath.split(os.pathsep):
        env["PYTHONPATH"] = (f"{src}{os.pathsep}{pythonpath}"
                             if pythonpath else src)
    env["REPRO_MUTANT"] = json.dumps(spec, sort_keys=True)
    cmd = [sys.executable, "-m", "pytest", "-x", "-q",
           "-p", "no:cacheprovider", *payload["tests"]]
    try:
        proc = subprocess.run(
            cmd, cwd=repo_root, env=env, capture_output=True, text=True,
            timeout=float(payload["timeout"]),
        )
    except subprocess.TimeoutExpired:
        return _kill("timeout", "pinned test subset wedged")
    if proc.returncode != 0:
        tail = (proc.stdout or proc.stderr).strip().splitlines()
        return _kill("tests", "; ".join(tail[-3:])[:240])
    return dict(_SURVIVED)


_KERNELS = {
    "sanitizer": _kernel_sanitizer,
    "stats": _kernel_stats,
    "tests": _kernel_tests,
}


def run_layer_job(payload: dict[str, object]) -> dict[str, object]:
    """WorkJob entry point: one (mutant, oracle layer) evaluation."""
    out = _KERNELS[str(payload["layer"])](payload)
    out["mutant"] = dict(payload["mutant"])["id"]
    out["layer"] = payload["layer"]
    return out


# ----------------------------------------------------------------------
# outcome cache (content-addressed, WorkJob hash -> outcome dict)
# ----------------------------------------------------------------------
class MutationCache:
    """Tiny JSON-per-entry store; the warm-rerun-zero-work invariant.

    Keys are :meth:`WorkJob.content_hash` values, which cover the
    mutant spec, the target file's content hash and the tree hash —
    any source change invalidates exactly the affected entries.
    """

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> dict[str, object] | None:
        path = self._path(key)
        try:
            return json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):  # repro: noqa[RPR007] — absent/corrupt entry is a cache miss
            return None

    def put(self, key: str, outcome: dict[str, object]) -> None:
        # Two runs sharing the store may put one key at once.
        blob = stable_dumps(outcome).encode("utf-8")
        atomic_write(self._path(key), lambda fh: fh.write(blob))


def default_mutation_cache_dir() -> Path:
    return Path("results") / "cache" / "mutation"


def default_baseline_path() -> Path:
    return _repo_root() / "results" / "mutation_baseline.json"


# ----------------------------------------------------------------------
# site selection from the TARGETS table
# ----------------------------------------------------------------------
def _defs_by_qual(tree: ast.Module) -> dict[str, ast.AST]:
    """Top-level functions by name and class methods as ``Class.name``."""
    defs: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            defs[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defs[f"{node.name}.{sub.name}"] = sub
    return defs


def select_sites(paths: list[Path]) -> list[MutationSite]:
    """Enumerate the mutation sites of the :data:`TARGETS` functions
    whose file lives under one of ``paths``."""
    repo_root = _repo_root()
    wanted = [Path(p).resolve() for p in paths]
    sites: list[MutationSite] = []
    for rel, quals in TARGETS.items():
        path = repo_root / rel
        if not any(path == w or w in path.parents for w in wanted):
            continue
        defs = _defs_by_qual(ast.parse(path.read_text(encoding="utf-8")))
        module = rel.removeprefix("src/").removesuffix(".py")
        for qual in quals:
            if qual not in defs:
                raise ValueError(
                    f"mutate.TARGETS names {qual!r}, which {rel} "
                    "does not define"
                )
            sites.extend(sites_for_function(
                defs[qual], rel, module.replace("/", "."), qual
            ))
    return sorted(sites, key=lambda s: (s.path, s.span, s.op, s.slot))


def sample_ids(ids: list[str], sample: int, seed: int) -> list[str]:
    """Deterministic pseudo-random sample: sort by a seeded hash."""
    ranked = sorted(
        ids, key=lambda i: _sha256(f"{seed}:{i}")
    )
    return sorted(ranked[:sample])


def _tree_sha(pkg_root: Path) -> str:
    """Digest over every source file of the package, so a change to
    code a mutated function calls invalidates its cached outcomes."""
    entries = []
    for path in sorted(pkg_root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        entries.append([
            path.relative_to(pkg_root).as_posix(),
            _sha256(path.read_text(encoding="utf-8")),
        ])
    return hash_payload({"files": entries})


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def _layer_payload(layer: str, site: MutationSite, context: dict,
                   ) -> dict[str, object]:
    payload: dict[str, object] = {
        "layer": layer,
        "mutant": site.spec(),
        "source_sha": context["source_shas"][site.path],
        "tree_sha": context["tree_sha"],
        "timeout": context["timeout"],
    }
    if layer in ("sanitizer", "stats"):
        payload["scenarios"] = [dict(s) for s in SCENARIOS]
        if layer == "stats":
            payload["golden"] = context["golden"]
    elif layer == "tests":
        payload["tests"] = list(PINNED_TESTS)
        payload["tests_sha"] = context["tests_sha"]
    return payload


def _pinned_tests_sha(repo_root: Path) -> str:
    """Digest of the pinned test files themselves, so strengthening a
    test invalidates cached ``survived`` outcomes for the tests layer
    (the tree_sha only covers the mutated package)."""
    return hash_payload({
        "files": [
            [rel, _sha256((repo_root / rel).read_text(encoding="utf-8"))]
            for rel in PINNED_TESTS
        ],
    })


def _build_context(paths: list[Path], sites: list[MutationSite],
                   timeout: float, cache: MutationCache | None,
                   ) -> dict[str, object]:
    """Per-run invariants shared by every job payload.

    The golden stats digests are themselves cached content-addressed,
    so warm re-runs skip even these.
    """
    repo_root = _repo_root()
    tree_sha = _tree_sha(_package_root(Path(paths[0])))
    source_shas = {
        rel: _sha256((repo_root / rel).read_text(encoding="utf-8"))
        for rel in sorted({s.path for s in sites})
    }
    golden_key = hash_payload({
        "kind": "golden", "tree_sha": tree_sha,
        "scenarios": [dict(s) for s in SCENARIOS],
    })
    hit = cache.get(golden_key) if cache is not None else None
    if hit is not None:
        golden = dict(hit["digests"])
    else:
        golden = _scenario_digests(sanitize=False)
        if cache is not None:
            cache.put(golden_key, {"digests": golden})
    return {
        "tree_sha": tree_sha,
        "tests_sha": _pinned_tests_sha(repo_root),
        "source_shas": source_shas,
        "golden": golden,
        "timeout": timeout,
    }


def run_cascade(paths: list[Path], sites: list[MutationSite],
                jobs: int, timeout: float,
                cache: MutationCache | None,
                ) -> tuple[dict[str, dict[str, object]], int, int]:
    """Run the oracle cascade; (outcomes by mutant id, executed, cached).

    Each wave evaluates one layer over the mutants still alive, via
    content-hashed WorkJobs on the executor farm. A job that fails at
    the *infrastructure* level is folded into the cascade: timed-out /
    hung workers are timeout kills (that is the wedged-mutant path);
    any other worker death is a kill attributed to the current layer.
    """
    context = _build_context(paths, sites, timeout, cache)
    by_id = {s.mutant_id: s for s in sites}
    alive = sorted(by_id)
    outcomes: dict[str, dict[str, object]] = {}
    executed = 0
    cached = 0
    for layer in LAYERS:
        if not alive:
            break
        work: list[tuple[str, WorkJob]] = []
        for mid in alive:
            payload = _layer_payload(layer, by_id[mid], context)
            job = WorkJob(
                entry="repro.analysis.mutate:run_layer_job",
                payload=payload, cost=_LAYER_COST[layer], kind="mutate",
            )
            work.append((mid, job))
        pending: list[tuple[str, WorkJob]] = []
        for mid, job in work:
            hit = cache.get(job.content_hash()) if cache is not None else None
            if hit is not None:
                outcomes[mid] = hit
                cached += 1
            else:
                pending.append((mid, job))
        if pending:
            cfg = ExecutorConfig(
                jobs=jobs,
                timeout=timeout * 2 + 30.0,
                retries=0,
                tolerate_failures=True,
                journal_dir=journal_dir_from_env(),
            )
            results, report = execute_jobs(
                [job for _, job in pending], cfg
            )
            executed += len(pending)
            failed_by_hash = {
                f.job.content_hash(): f.message
                for f in report.job_failures
            }
            for (mid, job), result in zip(pending, results):
                if result is None:
                    message = failed_by_hash.get(
                        job.content_hash(), "worker died"
                    )
                    wedged = ("timed out" in message or "hung" in message)
                    outcome = (
                        _kill("timeout", f"reaped by the pool: {message}")
                        if wedged else
                        _kill(layer, f"worker crashed: {message[:200]}")
                    )
                    outcome["mutant"] = mid
                    outcome["layer"] = layer
                else:
                    outcome = dict(result)
                outcomes[mid] = outcome
                if cache is not None:
                    cache.put(job.content_hash(), outcome)
        alive = sorted(
            mid for mid in alive
            if outcomes[mid]["outcome"] == "survived"
        )
    for mid in alive:
        outcomes[mid] = dict(_SURVIVED)
        outcomes[mid]["mutant"] = mid
    return outcomes, executed, cached


# ----------------------------------------------------------------------
# report + baseline
# ----------------------------------------------------------------------
def build_report(paths: list[Path], sites: list[MutationSite],
                 outcomes: dict[str, dict[str, object]],
                 sample: int | None, seed: int) -> dict[str, object]:
    """Assemble the deterministic report body.

    Deliberately free of execution provenance (executed/cached counts,
    timings): a cold run and a warm re-run of the same tree must emit
    byte-identical JSON.
    """
    by_id = {s.mutant_id: s for s in sites}
    matrix = {layer: 0 for layer in (*LAYERS, "timeout")}
    operators: dict[str, dict[str, int]] = {
        op: {"killed": 0, "total": 0} for op in OPERATORS
    }
    mutants: dict[str, dict[str, object]] = {}
    survivors = []
    for mid in sorted(by_id):
        site = by_id[mid]
        out = outcomes[mid]
        operators[site.op]["total"] += 1
        entry: dict[str, object] = {
            "path": site.path, "line": site.line, "qual": site.qual,
            "op": site.op, "before": site.before, "after": site.after,
            "outcome": out["outcome"], "killed_by": out["killed_by"],
            "detail": str(out.get("detail", ""))[:240],
        }
        mutants[mid] = entry
        if out["outcome"] == "killed":
            matrix[str(out["killed_by"])] += 1
            operators[site.op]["killed"] += 1
        else:
            survivors.append(mid)
    total = len(by_id)
    killed = total - len(survivors)
    return {
        "schema": 1,
        "targets": sorted({s.path for s in sites}),
        "sample": sample,
        "seed": seed,
        "total": total,
        "killed": killed,
        "survived": len(survivors),
        "score": (round(killed / total, 4) if total else 1.0),
        "kill_matrix": matrix,
        "operators": operators,
        "survivors": survivors,
        "mutants": mutants,
    }


def encode_baseline(report: dict[str, object],
                    allowlist: dict[str, str]) -> dict[str, object]:
    """Committed-baseline body (byte-stable via ``stable_dumps``), with
    the allowlist :func:`carry_allowlist` made for ``report``."""
    mutants = report["mutants"]
    return {
        "version": 1,
        "targets": report["targets"],
        "total": report["total"],
        "killed": report["killed"],
        "score": report["score"],
        "kill_matrix": report["kill_matrix"],
        "allowlist": allowlist,
        "survivors": [
            {
                "id": mid,
                "path": mutants[mid]["path"],
                "line": mutants[mid]["line"],
                "qual": mutants[mid]["qual"],
                "op": mutants[mid]["op"],
                "before": mutants[mid]["before"],
                "after": mutants[mid]["after"],
            }
            for mid in report["survivors"]
        ],
    }


def _site_key(entry: dict[str, object]) -> tuple:
    return (entry["path"], entry["qual"], entry["op"], entry["before"],
            entry["after"])


def carry_allowlist(report: dict[str, object],
                    baseline: dict[str, object],
                    ) -> tuple[dict[str, str], list[tuple[str, str, str]]]:
    """The baseline's allowlist re-keyed to this report's mutant ids.

    Ids hash the source span, so an edit above a survivor gives it a
    new id. A reason whose id no longer enumerates moves to the
    unallowlisted survivor with the same (path, qual, op, before,
    after); survivors sharing that key pair up in line order. Returns
    the allowlist and the ``(old id, new id, reason)`` moves made.
    """
    mutants = report["mutants"]
    allowlist = baseline.get("allowlist", {})
    kept = {mid: reason for mid, reason in allowlist.items()
            if mid in mutants}
    moved: dict[tuple, list[tuple[int, str]]] = {}
    for entry in baseline.get("survivors", ()):
        mid = entry["id"]
        if mid in allowlist and mid not in mutants:
            moved.setdefault(_site_key(entry), []).append(
                (entry["line"], mid))
    unlisted: dict[tuple, list[tuple[int, str]]] = {}
    for mid in report["survivors"]:
        if mid not in kept:
            entry = mutants[mid]
            unlisted.setdefault(_site_key(entry), []).append(
                (entry["line"], mid))
    carried = []
    for key, old in sorted(moved.items()):
        for (_, old_id), (_, new_id) in zip(sorted(old),
                                            sorted(unlisted.get(key, ()))):
            kept[new_id] = allowlist[old_id]
            carried.append((old_id, new_id, allowlist[old_id]))
    return kept, carried


def load_baseline(path: Path) -> dict[str, object]:
    return json.loads(path.read_text(encoding="utf-8"))


def _repro_command(paths: list[Path], mid: str) -> str:
    shown = " ".join(str(p) for p in paths)
    return f"python -m repro.analysis mutate {shown} --only {mid} --json"


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def add_mutate_args(p: argparse.ArgumentParser) -> None:
    """Flags of the ``mutate`` subcommand (called from lint.main)."""
    p.add_argument("paths", nargs="+", type=Path,
                   help="mutation targets (e.g. src/repro/pipeline)")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes for mutant execution")
    p.add_argument("--json", dest="as_json", action="store_true",
                   help="emit the full byte-stable report as JSON")
    p.add_argument("--list", dest="list_only", action="store_true",
                   help="enumerate mutation sites without executing")
    p.add_argument("--only", default=None, metavar="ID[,ID...]",
                   help="restrict to specific mutant ids (repro runs)")
    p.add_argument("--sample", type=int, default=None, metavar="N",
                   help="deterministic N-mutant sample (with --seed)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for --sample selection")
    p.add_argument("--timeout", type=float, default=DEFAULT_TIMEOUT,
                   help="per-mutant sandbox deadline in seconds")
    p.add_argument("--cache-dir", type=Path, default=None,
                   help="outcome cache root (default "
                        "results/cache/mutation)")
    p.add_argument("--no-cache", action="store_true",
                   help="ignore and do not write the outcome cache")
    p.add_argument("--baseline", type=Path, default=None,
                   help="baseline file (default "
                        "results/mutation_baseline.json)")
    p.add_argument("--no-baseline", action="store_true",
                   help="do not gate against any baseline")
    p.add_argument("--update-baseline", action="store_true",
                   help="rewrite the baseline from this run "
                        "(allowlist reasons follow moved mutants)")
    p.add_argument("--require-all-killed", action="store_true",
                   help="fail unless every mutant is killed or "
                        "allowlisted (the CI smoke gate)")


def run_mutate_cli(args: argparse.Namespace) -> int:
    paths = [Path(p) for p in args.paths]
    sites = select_sites(paths)
    if args.only:
        only = {tok.strip() for tok in args.only.split(",") if tok.strip()}
        sites = [s for s in sites if s.mutant_id in only]
        missing = only - {s.mutant_id for s in sites}
        if missing:
            print("error: unknown mutant id(s): "
                  + ", ".join(sorted(missing)), file=sys.stderr)
            return EXIT_USAGE
    if args.sample is not None:
        chosen = set(sample_ids(
            [s.mutant_id for s in sites], args.sample, args.seed
        ))
        sites = [s for s in sites if s.mutant_id in chosen]
    if args.list_only:
        for s in sites:
            print(f"{s.mutant_id}  {s.path}:{s.line}  {s.op:12s} "
                  f"{s.qual}(): {s.before}  ->  {s.after}")
        print(f"{len(sites)} mutation site(s)")
        return EXIT_CLEAN
    if not sites:
        print("no mutation sites under the given paths", file=sys.stderr)
        return EXIT_USAGE

    cache: MutationCache | None = None
    if not args.no_cache:
        cache = MutationCache(args.cache_dir or default_mutation_cache_dir())
    outcomes, executed, cached = run_cascade(
        paths, sites, jobs=max(1, args.jobs), timeout=args.timeout,
        cache=cache,
    )
    report = build_report(paths, sites, outcomes, args.sample, args.seed)
    print(f"mutate: {executed} job(s) executed, {cached} cached",
          file=sys.stderr)

    baseline_path = args.baseline or default_baseline_path()
    baseline: dict[str, object] | None = None
    if not args.no_baseline and baseline_path.exists():
        baseline = load_baseline(baseline_path)
    allowlist: dict[str, str] = {}
    if baseline is not None:
        allowlist = {
            str(k): str(v)
            for k, v in dict(baseline.get("allowlist", {})).items()
        }

    if args.update_baseline:
        allowlist, carried = carry_allowlist(report, baseline or {})
        for old_id, new_id, reason in carried:
            print(f"carried {old_id} -> {new_id}: {reason}")
        body = encode_baseline(report, allowlist)
        baseline_path.parent.mkdir(parents=True, exist_ok=True)
        baseline_path.write_text(stable_dumps(body), encoding="utf-8")
        print(f"wrote baseline for {report['total']} mutant(s) "
              f"({report['survived']} survivor(s), "
              f"{len(body['allowlist'])} allowlisted) to {baseline_path}")
        return EXIT_CLEAN

    if args.as_json:
        sys.stdout.write(stable_dumps(report))
    else:
        _print_report(report, paths, allowlist)

    rebaseline = ("python -m repro.analysis mutate "
                  + " ".join(str(p) for p in args.paths)
                  + " --update-baseline")
    survivors = [str(m) for m in report["survivors"]]
    unforgiven = [m for m in survivors if m not in allowlist]

    if args.require_all_killed:
        if unforgiven:
            print(f"\n{len(unforgiven)} surviving mutant(s) are neither "
                  "killed nor allowlisted:", file=sys.stderr)
            for mid in unforgiven:
                print(f"  {mid}  "
                      f"{_repro_command(paths, mid)}", file=sys.stderr)
            print("allowlist deliberately (with a reason) in "
                  f"{baseline_path}, or add a test that kills them",
                  file=sys.stderr)
            return EXIT_REGRESSION
        return EXIT_CLEAN

    # Full-run baseline gate: only meaningful when comparing the same
    # universe of mutants (no --sample/--only narrowing).
    if baseline is not None and args.sample is None and not args.only:
        known = {str(s["id"]) for s in baseline.get("survivors", ())}
        known |= set(allowlist)
        new = [m for m in survivors if m not in known]
        if new:
            print(f"\n{len(new)} new surviving mutant(s) — the oracle "
                  "layers lost detection power:", file=sys.stderr)
            for mid in new:
                print(f"  {mid}  {_repro_command(paths, mid)}",
                      file=sys.stderr)
            print("accept deliberately (refreshes the baseline):\n  "
                  f"{rebaseline}", file=sys.stderr)
            return EXIT_REGRESSION
        current_ids = {s.mutant_id for s in sites}
        stale = sorted(
            mid for mid in known
            if mid in current_ids and mid not in survivors
        )
        if stale:
            print(f"\nstale baseline: {len(stale)} recorded survivor(s) "
                  "are now killed:", file=sys.stderr)
            for mid in stale:
                print(f"  {mid}", file=sys.stderr)
            print(f"refresh it:\n  {rebaseline}", file=sys.stderr)
            return EXIT_STALE_BASELINE
    return EXIT_CLEAN


def _print_report(report: dict[str, object], paths: list[Path],
                  allowlist: dict[str, str]) -> None:
    print(f"{report['total']} mutant(s) over "
          f"{len(report['targets'])} file(s): "
          f"{report['killed']} killed, {report['survived']} survived "
          f"(score {report['score']:.2%})")
    print("kill matrix:")
    for layer, count in report["kill_matrix"].items():
        print(f"  {layer:10s} {count}")
    ops = report["operators"]
    print("operators:")
    for op in sorted(ops):
        if ops[op]["total"]:
            print(f"  {op:14s} {ops[op]['killed']}/{ops[op]['total']}")
    survivors = report["survivors"]
    if survivors:
        print("survivors:")
        mutants = report["mutants"]
        for mid in survivors:
            m = mutants[mid]
            note = (f"  [allowlisted: {allowlist[mid]}]"
                    if mid in allowlist else "")
            print(f"  {mid}  {m['path']}:{m['line']} {m['op']} "
                  f"{m['before']} -> {m['after']}{note}")
            print(f"      {_repro_command(paths, mid)}")
