"""The three benchmark workloads.  Each pass runs its workload once and
checks every output it produced.

``census``  the CLI census at n = 6, then n = 7 with --long-run and a fresh
            checkpoint, each in a fresh process with --jobs 1.
``ascent``  greedy_ascent over seeded cases at orders 10..13, plus the
            order-17 case on which the start sampler gives up.
``exact``   exact characteristic polynomials, Sturm brackets, eigensolves,
            quotient containment and switching isomorphism at n = 5..40.

Library functions are looked up on their module at call time, never bound
at import, so a traced pass sees the wrappers that ``tracing.install`` put
there.
"""

from __future__ import annotations

import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
TRACING_SCRIPT = os.path.join(HERE, "tracing.py")
CHILD_TIMEOUT_S = 150.0


@dataclass
class Pass:
    """One run of a workload: measured values, operation counts, problems.

    An operation fails when it raises, exits nonzero or gives an output
    that fails a check; only the last kind makes it ``wrong``.  ``counts``
    holds exact tallies the traced run turns into ratios, and
    ``trace_rows`` the stats written by traced child processes.
    """

    values: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    notes: list[str] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    trace_rows: list = field(default_factory=list)

    def record(self, problems: list[str], raised: bool = False) -> None:
        """Count one operation, failed if it raised or has any problem."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.wrong += not raised
            self.notes.extend(problems)


@dataclass
class Context:
    """What a pass needs: the checkout, the imported package, and whether
    the pass is traced (the census then runs its processes under
    ``tracing.py``; in-process work is traced by wrappers already installed).
    """

    root: str
    env: dict[str, str]
    tmpdir: str
    seed: int
    ss: object
    traced: bool = False


def _peak_rss_mb(ru_maxrss_kib: int) -> float:
    return ru_maxrss_kib * 1024 / 1e6


def extremal_cubic(n: int, x):
    """x^3 + (5-n)x^2 + (5-2n)x + (n-5), whose root in (n-3, n-2) is the
    extremal index; x may be a float or a Fraction."""
    return ((x + (5 - n)) * x + (5 - 2 * n)) * x + (n - 5)


def extremal_cubic_root(n: int) -> float:
    """The extremal cubic's root in (n-3, n-2), by bisection."""
    lo, hi = float(n - 3), float(n - 2)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if extremal_cubic(n, mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# -- census ----------------------------------------------------------------------


@dataclass(frozen=True)
class CensusStep:
    """One CLI census and the counts its report must carry.

    The underlying-graph counts are OEIS A000088.
    """

    n: int
    underlying: int
    classes: int
    eligible: int
    long_run: bool


CENSUS_STEPS = (
    CensusStep(6, underlying=156, classes=4562, eligible=150, long_run=False),
    CensusStep(7, underlying=1044, classes=197629, eligible=1347, long_run=True),
)


# verify exits 0 on a true verdict and 3 on a false one; other codes are errors
VERIFY_EXITS = (0, 3)


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    peak_rss_mb: float


def run_child(argv: list[str], ctx: Context) -> Child:
    """Run a process to its end; time it and take its own peak RSS.

    The process is reaped with wait4 so that its rusage is its own, not
    the maximum over every child so far.  A timer kills it after
    CHILD_TIMEOUT_S.
    """
    out_path = os.path.join(ctx.tmpdir, "child.out")
    err_path = os.path.join(ctx.tmpdir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ctx.env, cwd=ctx.root)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Child(proc.returncode, stdout, stderr, wall, _peak_rss_mb(usage.ru_maxrss))


def check_census_report(step: CensusStep, child: Child) -> list[str]:
    """Problems with one CLI census: exit code, verdict, counts, maximum."""
    tag = f"verify --n {step.n}"
    if child.returncode not in VERIFY_EXITS:
        tail = child.stderr.strip().splitlines()[-1:] or [""]
        return [f"{tag}: exit {child.returncode} {tail[0]}"]
    try:
        report = json.loads(child.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return [f"{tag}: no JSON report on stdout"]
    problems = []
    expected = {
        "n": step.n,
        "verdict": True,
        "underlying_count": step.underlying,
        "class_count": step.classes,
        "eligible_count": step.eligible,
    }
    for key, want in expected.items():
        if report.get(key) != want:
            problems.append(f"{tag}: {key} = {report.get(key)!r}, expected {want!r}")
    root = extremal_cubic_root(step.n)
    lam = report.get("max_lambda1")
    if not isinstance(lam, float) or abs(lam - root) > 1e-9:
        problems.append(f"{tag}: max_lambda1 = {lam!r}, extremal cubic root {root!r}")
    if not report.get("witness_sg"):
        problems.append(f"{tag}: no witness")
    return problems


def census_pass(ctx: Context, steps) -> Pass:
    result = Pass()
    total_s = 0.0
    classes = eligible = 0
    for step in steps:
        args = ["verify", "--n", str(step.n), "--jobs", "1"]
        checkpoint = None
        if step.long_run:
            checkpoint = os.path.join(ctx.tmpdir, f"census-{step.n}.ckpt")
            args += ["--long-run", "--checkpoint", checkpoint]
        stats_path = os.path.join(ctx.tmpdir, f"trace-{step.n}.json")
        if ctx.traced:
            argv = [sys.executable, TRACING_SCRIPT, stats_path, *args]
        else:
            argv = [sys.executable, "-m", "signedspectra.cli", *args]
        child = run_child(argv, ctx)
        problems = check_census_report(step, child)
        result.record(problems, raised=child.returncode not in VERIFY_EXITS)
        if not problems:
            classes += step.classes
            eligible += step.eligible
        total_s += child.wall_s
        result.values[f"census_n{step.n}_s"] = child.wall_s
        if ctx.traced and os.path.exists(stats_path):
            with open(stats_path, encoding="utf-8") as fh:
                result.trace_rows.append(json.load(fh))
        if checkpoint is not None and os.path.exists(checkpoint):
            result.counts["checkpoint_bytes"] = os.path.getsize(checkpoint)
            os.remove(checkpoint)
        # memory of the last, largest census
        result.values["census_peak_rss_mb"] = child.peak_rss_mb
        result.values["peak_rss_mb"] = child.peak_rss_mb
    result.values["wall_s"] = total_s
    result.counts["classes"] = classes
    result.counts["eligible"] = eligible
    return result


# -- ascent ----------------------------------------------------------------------

# Many short cases: an ascent's cost at fixed order varies by about 20%
# with its seed, and the sum over many cases varies far less.
ASCENT_ORDERS = (10,) * 10 + (11,) * 6 + (12,) * 3 + (13,) * 2
# The start sampler's outcome at order 17 depends on the seed (seed 2
# succeeds after ~21 s); seed 1 is the reported reproducer that gives up
# after 10^5 tries, so the known failure shows in every run.
ASCENT_PINNED = ((17, 1),)


def ascent_cases(seed: int, orders, pinned):
    """(order, seed) cases: seeds for ``orders`` drawn from the workload seed."""
    rng = random.Random(seed)
    return [(n, rng.randrange(1 << 31)) for n in orders] + list(pinned)


def check_ascent(ss, n: int, res) -> list[str]:
    tag = f"greedy_ascent({n})"
    traj = res.trajectory
    problems = []
    if res.graph.n != n:
        problems.append(f"{tag}: final graph has order {res.graph.n}")
    if len(traj) != res.steps + 1:
        problems.append(f"{tag}: {len(traj)} trajectory points for {res.steps} steps")
    if any(b <= a for a, b in zip(traj, traj[1:])):
        problems.append(f"{tag}: trajectory not strictly increasing")
    if ss.is_balanced(res.graph).balanced:
        problems.append(f"{tag}: final graph is balanced")
    if not ss.is_ck_negative_free(res.graph, 4):
        problems.append(f"{tag}: final graph has a negative 4-cycle")
    return problems


def ascent_pass(ctx: Context, cases) -> Pass:
    ss = ctx.ss
    result = Pass()
    ok_s = 0.0
    steps = 0
    t_pass = time.perf_counter()
    for n, case_seed in cases:
        t0 = time.perf_counter()
        try:
            res = ss.greedy_ascent(n, case_seed)
        except Exception as exc:  # a case that raises is a failed operation
            result.record([f"greedy_ascent({n}, {case_seed}): {type(exc).__name__}: {exc}"], raised=True)
            continue
        dt = time.perf_counter() - t0
        problems = check_ascent(ss, n, res)
        result.record(problems)
        if not problems:
            ok_s += dt
            steps += res.steps
    total_s = time.perf_counter() - t_pass
    result.values["ascent_s"] = total_s
    result.values["ascent_steps_per_s"] = steps / ok_s if ok_s else 0.0
    result.values["wall_s"] = total_s
    result.values["peak_rss_mb"] = _peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    result.counts["steps"] = steps
    return result


# -- exact -----------------------------------------------------------------------

EXACT_ORDERS = range(5, 41)
QUOTIENT_MAX_ORDER = 20
BRACKET_WIDTH = Fraction(1, 10**15)


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def extremal_charpoly(n: int) -> list[int]:
    """Coefficients, constant first, of (x+1)^(n-4) (x-1) times the cubic."""
    p = [n - 5, 5 - 2 * n, 5 - n, 1]
    p = _poly_mul(p, [-1, 1])
    for _ in range(n - 4):
        p = _poly_mul(p, [1, 1])
    return p


def check_exact_order(ss, n: int, rng: random.Random) -> list[str]:
    """Identity, localization, ordering, containment and isomorphism at n."""
    tag = f"exact n={n}"
    problems = []
    ext, near = ss.extremal_graph(n), ss.near_extremal_graph(n)
    p_ext, p_near = ss.char_poly_exact(ext), ss.char_poly_exact(near)
    if list(p_ext.coeffs) != extremal_charpoly(n):
        problems.append(f"{tag}: extremal char poly breaks the (x+1)^(n-4)(x-1)*cubic identity")
    lo1, hi1 = ss.polynomial.largest_real_root_interval(p_ext, BRACKET_WIDTH)
    lo2, hi2 = ss.polynomial.largest_real_root_interval(p_near, BRACKET_WIDTH)
    if hi1 - lo1 > BRACKET_WIDTH or hi2 - lo2 > BRACKET_WIDTH:
        problems.append(f"{tag}: bracket wider than {BRACKET_WIDTH}")
    if not (extremal_cubic(n, lo1) <= 0 <= extremal_cubic(n, hi1)):
        problems.append(f"{tag}: extremal bracket misses the cubic's root")
    if not (n - 3 < lo1 and hi1 < n - 2):
        problems.append(f"{tag}: extremal index outside (n-3, n-2)")
    if not hi2 < lo1:
        problems.append(f"{tag}: near-extremal index not below the extremal one")
    if n >= 7 and not hi2 < n - 3:
        problems.append(f"{tag}: near-extremal index not below n-3")
    lam1 = ss.eigenvalues_sym(ext.adjacency_matrix()).lambda1
    lam2 = ss.eigenvalues_sym(near.adjacency_matrix()).lambda1
    if abs(lam1 - float((lo1 + hi1) / 2)) > 1e-9 or abs(lam2 - float((lo2 + hi2) / 2)) > 1e-9:
        problems.append(f"{tag}: eigensolve index off the exact root by more than 1e-9")
    if not lam2 < lam1:
        problems.append(f"{tag}: eigensolve ordering fails")
    if n <= QUOTIENT_MAX_ORDER:
        for g, part, closed in (
            (ext, ss.extremal_partition(n), ss.extremal_quotient_matrix(n)),
            (near, ss.near_extremal_partition(n), ss.near_extremal_quotient_matrix(n)),
        ):
            A = g.adjacency_matrix()
            Q = ss.quotient_matrix(A, part).matrix
            if Q is None or not (Q == closed).all():
                problems.append(f"{tag}: quotient matrix differs from the closed form")
            elif not ss.check_quotient_containment(A, Q, tol=1e-8):
                problems.append(f"{tag}: quotient eigenvalues not in the spectrum")
    perm = list(range(n))
    rng.shuffle(perm)
    moved = ss.switch(ext.relabel(perm), [v for v in range(n) if rng.random() < 0.5])
    found, pi = ss.switching_isomorphic(moved, ext)
    if not found or not ss.switching_equivalent(moved.relabel(pi), ext):
        problems.append(f"{tag}: relabelled and switched extremal graph not matched back")
    return problems


def exact_pass(ctx: Context, orders) -> Pass:
    ss = ctx.ss
    rng = random.Random(ctx.seed)
    result = Pass()
    t0 = time.perf_counter()
    for n in orders:
        try:
            problems = check_exact_order(ss, n, rng)
        except Exception as exc:  # an order that raises is a failed operation
            result.record([f"exact n={n}: {type(exc).__name__}: {exc}"], raised=True)
        else:
            result.record(problems)
    wall = time.perf_counter() - t0
    result.values["exact_s"] = wall
    result.values["wall_s"] = wall
    result.values["peak_rss_mb"] = _peak_rss_mb(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return result
