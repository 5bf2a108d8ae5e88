"""The three workloads: closed-roof, oracle-roof and cli.

Each workload builds its inputs from the seed, runs whole rounds of the same
operations until the next round would end past the run length, then checks
every output against :mod:`references` or a property the method must have.
A workload returns a :class:`Result`; ``traced`` runs one round under a
:class:`tracing.Tracer` and returns per-layer figures instead of timings.

The program is reached only through ``oneroot``'s public functions and its
CLI; module attributes are looked up at round start so that a tracer's
wrappers are the ones called.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import references as ref

# twelve (class, traced qubit) cells whose marginals are one-root
POSITIVE_CELLS = ((4, 1), (4, 2), (4, 3), (4, 4), (5, 2), (5, 4),
                  (7, 2), (7, 3), (7, 4), (8, 2), (8, 3), (8, 4))

# state kinds of closed-roof, each drawn PER_KIND times per seed
KINDS = ("family2", "family3", "marginal4", "generic2", "generic3")
PER_KIND = 300
DECOMP_SAMPLE = 10      # granted states per kind checked with own decompositions
DECOMPS_PER_STATE = 5
# a marginal4 draw is redrawn while every coefficient of omega -> Det(phi0 +
# omega phi1) on its span is below this: about 0.3% of draws. Closer to the
# tangle's zero set certify fails on some seeds (see CHANGES.md, FOUND), first
# at coefficients of 1e-5, so such draws would make failures depend on the seed
NEAR_ZERO_SET = 1e-4

# oracle-roof: the generic two-qubit state is drawn once from this seed; each
# run presents it in a seeded local Pauli frame (see _pauli_frame)
ORACLE_PANEL_SEED = 151203326
_PAULI = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
          np.diag([1, -1]))
_SWAP = np.eye(4)[[0, 2, 1, 3]]

# cli session
GRID = 200              # bloch-grid --ntheta and --nphi
SCAN_DRAWS = 20         # scan --draws; 16 cells x draws rows
# scan --seed, the same in every run: the scan aborts on 6 of the base seeds
# 0..399 (see CHANGES.md, FOUND), and this one is not among them
SCAN_SEED = 0
CLI_TIMEOUT_S = 120


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    details: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems

    def check(self, ok: bool, message: str) -> None:
        if not ok and len(self.problems) < 50:
            self.problems.append(message)

    def fail(self, message: str) -> None:
        """An operation that raised or crashed: counted, not checked."""
        self.failed += 1
        errors = self.details.setdefault("errors", [])
        if len(errors) < 50:
            errors.append(message)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


@dataclass
class Rounds:
    first: object            # the first round's outputs
    round_s: list[float]     # wall time of each round
    best_times: np.ndarray   # each operation's fastest time over the rounds
    summaries: list          # summarize(times) of each round
    peak_rss_mb: float = 0.0  # read as the last round ends, before any check


def _rounds(run_round, seconds: float, same, summarize, rss_who: int, res: Result) -> Rounds:
    """Call run_round() -> (outputs, times) until the next call would end
    after ``seconds``. Keeps the first round's outputs, checks every later
    round's against them with same(), and keeps each operation's fastest time."""
    t_start = perf_counter()
    rounds = None
    while True:
        t0 = perf_counter()
        outputs, times = run_round()
        dt = perf_counter() - t0
        if rounds is None:
            rounds = Rounds(outputs, [], np.array(times, dtype=float), [])
        else:
            res.check(same(outputs, rounds.first), "a later round gave different outputs")
            np.minimum(rounds.best_times, times, out=rounds.best_times)
        rounds.round_s.append(dt)
        rounds.summaries.append(summarize(times))
        if perf_counter() - t_start + dt > seconds:
            rounds.peak_rss_mb = resource.getrusage(rss_who).ru_maxrss / 1024.0
            return rounds


def _percentiles(x) -> dict:
    x = np.asarray(x, dtype=float)
    return {"n": int(x.size), "p50": float(np.median(x)),
            "p90": float(np.quantile(x, 0.9)), "p99": float(np.quantile(x, 0.99)),
            "p999": float(np.quantile(x, 0.999)), "max": float(x.max())}


def _median_over_rounds(summaries: list[dict]) -> dict:
    """Median over rounds of each figure of the rounds' _percentiles."""
    return {key: (_median_over_rounds([x[key] for x in summaries])
                  if isinstance(summaries[0][key], dict)
                  else float(np.median([x[key] for x in summaries])))
            for key in summaries[0]}


def _random_span(rng: np.random.Generator, m: int):
    """Generic rank-2 state: QR of a complex Gaussian pair, random Bloch vector."""
    from oneroot.qstate import bloch_vector, make_rank_two, pure_state
    basis, _ = np.linalg.qr(rng.standard_normal((2 ** m, 2))
                            + 1j * rng.standard_normal((2 ** m, 2)))
    return make_rank_two(pure_state(basis[:, 0]), pure_state(basis[:, 1]),
                         bloch_vector(rng.uniform(0.2, 0.95), rng.uniform(0.0, np.pi),
                                      rng.uniform(0.0, 2.0 * np.pi)))


def _class_params(mu: int, rng: np.random.Generator):
    """Class parameters away from the degeneracy loci (margin 0.1)."""
    while True:
        a = complex(rng.uniform(0.15, 1.2), rng.uniform(-0.4, 0.4))
        b = complex(rng.uniform(0.15, 1.2), rng.uniform(-0.4, 0.4))
        if mu == 4 and min(abs(a), abs(b), abs(a - b), abs(a + b)) > 0.1:
            return (a, b)
        if mu == 5 and abs(a) > 0.1:
            return (a,)
        if mu in (7, 8):
            return ()


def _pauli_frame(rng: np.random.Generator) -> np.ndarray:
    """A local Pauli on each of two qubits, then a qubit swap or not.

    Every entry is 0, +-1 or +-i, so the 32 frames permute the amplitudes and
    change their signs and phases exactly; the concurrence polynomial changes
    by an exact factor +-1 or +-i. Rounding still differs, as in the state's
    renormalisation, and Powell's path follows it: the work moves by +-1.3%
    (125k-128k objective evaluations). A Haar local unitary moves it by +-6%
    and a fresh generic state by +-15%.
    """
    a, b = rng.integers(4, size=2)
    u = np.kron(_PAULI[a], _PAULI[b])
    return _SWAP @ u if rng.integers(2) else u


def own_density(state) -> np.ndarray:
    b = state.bloch
    return ref.density_from_span(state.phi0.amps, state.phi1.amps, b.r, b.theta, b.phi)


def _end_to_end(setup_s: float, rounds: Rounds) -> dict:
    """Throughput and median latency over each operation's fastest time; see README."""
    best = rounds.best_times
    return {"setup_s": (setup_s, "s"),
            "ops_per_s": (best.size / float(best.sum()), "1/s"),
            "op_p50_ms": (float(np.median(best)) * 1e3, "ms"),
            "peak_rss_mb": (rounds.peak_rss_mb, "MB")}


# ---- closed-roof ----


@dataclass
class Item:
    kind: str
    state: object
    measure: object
    expect: bool             # how the state was built: one-root or not
    reference: float | None  # analytic family value, where there is one


def closed_roof_population(seed: int) -> list[Item]:
    """PER_KIND states of each kind, interleaved by a seeded permutation."""
    import oneroot.families as fam
    from oneroot.measures import CONCURRENCE, SQRT_THREE_TANGLE

    rngs = {kind: _rng(seed, 10 + i) for i, kind in enumerate(KINDS)}
    items = []
    for _ in range(PER_KIND):
        f2 = fam.random_two_qubit_family(rngs["family2"])
        items.append(Item("family2", fam.two_qubit_state(f2), CONCURRENCE, True,
                          fam.two_qubit_concurrence(f2)))
        f3 = fam.random_three_qubit_family(rngs["family3"])
        items.append(Item("family3", fam.three_qubit_state(f3), SQRT_THREE_TANGLE, True,
                          fam.sqrt_tangle_formula(f3)))
        r4 = rngs["marginal4"]
        while True:
            mu, k = POSITIVE_CELLS[r4.integers(len(POSITIVE_CELLS))]
            params = _class_params(mu, r4)
            marginal = fam.slocc_marginal(mu, params, fam.random_slocc(r4), k)
            c = ref.span_hyperdeterminant_coefficients(marginal.phi0.amps, marginal.phi1.amps)
            if np.abs(c).max() >= NEAR_ZERO_SET:
                break
        items.append(Item("marginal4", marginal, SQRT_THREE_TANGLE, True, None))
        items.append(Item("generic2", _random_span(rngs["generic2"], 2),
                          CONCURRENCE, False, None))
        items.append(Item("generic3", _random_span(rngs["generic3"], 3),
                          SQRT_THREE_TANGLE, False, None))
    order = _rng(seed, 19).permutation(len(items))
    return [items[i] for i in order]


def _closed_round(items: list[Item], res: Result):
    """certify, then closed_form when granted; returns (verdicts, values, times).

    A verdict is 1 (granted), 0 (refused) or -1 (the operation raised).
    """
    import oneroot.convexroof as cr
    import oneroot.zeropolytope as zp
    certify, closed_form = zp.certify, cr.closed_form
    verdicts = np.full(len(items), -1, dtype=np.int8)
    values = np.full(len(items), np.nan)
    times = np.empty(len(items))
    for i, it in enumerate(items):
        t0 = perf_counter()
        try:
            cert = certify(it.state, it.measure)
            if cert.one_root:
                values[i] = closed_form(it.state, cert).value
            verdicts[i] = cert.one_root
        except Exception as exc:  # any error of the program is a failed operation
            res.fail(f"{it.kind}: {exc!r}")
        times[i] = perf_counter() - t0
    res.attempted += len(items)
    return verdicts, values, times


def _check_closed(items: list[Item], verdicts, values, seed: int, res: Result):
    rng = _rng(seed, 29)
    sampled = dict.fromkeys(KINDS, 0)
    for it, verdict, v in zip(items, verdicts, values):
        if verdict < 0:
            continue
        granted = bool(verdict)
        res.check(granted == it.expect,
                  f"{it.kind}: verdict {granted}, built to be {it.expect}")
        if not (granted and it.expect):
            continue
        rho = own_density(it.state)
        measure = ref.measure_for(it.state.m)
        if it.reference is not None:
            res.check(abs(v - it.reference) <= 1e-10,
                      f"{it.kind}: closed form {v!r} vs family value {it.reference!r}")
        if it.kind == "family2":
            w = ref.wootters_concurrence(rho)
            res.check(abs(v - w) <= 1e-9, f"family2: closed form {v!r} vs Wootters {w!r}")
        eig_avg = ref.eigen_ensemble_average(rho, measure)
        res.check(0.0 <= v <= eig_avg + 1e-9,
                  f"{it.kind}: closed form {v!r} outside [0, eigen-ensemble {eig_avg!r}]")
        if sampled[it.kind] < DECOMP_SAMPLE:
            sampled[it.kind] += 1
            for _ in range(DECOMPS_PER_STATE):
                nu = int(rng.integers(2, 7))
                avg = ref.random_ensemble_average(rho, measure, nu, rng)
                res.check(abs(avg - v) <= 1e-8,
                          f"{it.kind}: nu={nu} ensemble average {avg!r} vs {v!r}")


def closed_roof(seed: int, seconds: float, since_start) -> Result:
    res = Result()
    items = closed_roof_population(seed)
    setup_s = since_start()
    kinds = np.array([it.kind for it in items])

    def same(a, b):
        return np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1], equal_nan=True)

    def summarize(times):
        return {"all": _percentiles(times * 1e3),
                **{k: _percentiles(times[kinds == k] * 1e3) for k in KINDS}}

    def one_round():
        verdicts, values, times = _closed_round(items, res)
        return (verdicts, values), times

    rounds = _rounds(one_round, seconds, same, summarize, resource.RUSAGE_SELF, res)
    verdicts, values = rounds.first
    _check_closed(items, verdicts, values, seed, res)

    res.metrics = _end_to_end(setup_s, rounds)
    state_ms = _median_over_rounds(rounds.summaries)
    res.details.update({
        "round_s": rounds.round_s, "states_per_round": len(items),
        "granted_per_round": int((verdicts == 1).sum()),
        "state_ms": state_ms.pop("all"), "state_ms_by_kind": state_ms,
    })
    return res


# ---- oracle-roof ----


def oracle_panel(seed: int) -> list[Item]:
    """One generic two-qubit state (rugged, degree 2; reference: Wootters) and
    one three-qubit family state (flat, degree 4; reference: family value)."""
    import oneroot.families as fam
    from oneroot.measures import CONCURRENCE, SQRT_THREE_TANGLE
    from oneroot.qstate import make_rank_two, pure_state

    base = _random_span(np.random.default_rng(ORACLE_PANEL_SEED), 2)
    rng = _rng(seed, 20)
    u = _pauli_frame(rng)
    g2 = make_rank_two(pure_state(u @ base.phi0.amps), pure_state(u @ base.phi1.amps),
                       base.bloch)
    f3 = fam.random_three_qubit_family(rng)
    return [Item("generic2", g2, CONCURRENCE, False, None),
            Item("family3", fam.three_qubit_state(f3), SQRT_THREE_TANGLE, True,
                 fam.sqrt_tangle_formula(f3))]


def _oracle_round(panel: list[Item], res: Result):
    """oracle_minimize at the default OptimizerConfig; returns (results, times)."""
    import oneroot.convexroof as cr
    oracle_minimize = cr.oracle_minimize
    out, times = [], []
    for it in panel:
        t0 = perf_counter()
        try:
            out.append(oracle_minimize(it.state, it.measure))
        except Exception as exc:  # any error of the program is a failed operation
            res.fail(f"{it.kind}: {exc!r}")
            out.append(None)
        times.append(perf_counter() - t0)
    res.attempted += len(panel)
    return out, times


def _check_oracle(panel: list[Item], results, res: Result):
    for it, r in zip(panel, results):
        if r is None:
            continue
        v, reference = r.value, it.reference
        if reference is None:  # computed here, not in set-up
            reference = ref.wootters_concurrence(own_density(it.state))
        res.check(abs(v - reference) <= 1e-5,
                  f"{it.kind}: oracle {v!r} vs reference {reference!r}")
        res.check(v >= reference - 1e-12,
                  f"{it.kind}: oracle {v!r} below reference {reference!r}")
        dec = r.oracle.decomposition
        rho = own_density(it.state)
        recon = sum(w * np.outer(s.amps, s.amps.conj())
                    for w, s in zip(dec.weights, dec.states))
        err = float(np.abs(recon - rho).max())
        res.check(err <= 1e-10, f"{it.kind}: decomposition reconstructs rho to {err:.2e}")
        measure = ref.measure_for(it.state.m)
        avg = float(sum(w * measure(s.amps) for w, s in zip(dec.weights, dec.states)))
        res.check(abs(avg - v) <= 1e-10, f"{it.kind}: own ensemble average {avg!r} vs {v!r}")


def oracle_roof(seed: int, seconds: float, since_start) -> Result:
    res = Result()
    panel = oracle_panel(seed)
    setup_s = since_start()

    def values(results):
        return [r.value if r else None for r in results]

    rounds = _rounds(lambda: _oracle_round(panel, res), seconds,
                     lambda a, b: values(a) == values(b), list, resource.RUSAGE_SELF, res)
    _check_oracle(panel, rounds.first, res)

    res.metrics = _end_to_end(setup_s, rounds)
    res.details.update({"round_s": rounds.round_s,
                        "state_s": {it.kind: [t[i] for t in rounds.summaries]
                                    for i, it in enumerate(panel)},
                        "values": dict(zip([it.kind for it in panel], values(rounds.first)))})
    return res


# ---- cli ----


@dataclass
class Command:
    name: str            # CLI subcommand, the key of its per-layer figure
    args: list[str]
    expect_code: int
    check: object        # check(stdout, res) -> None


def _cli_env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _run_process(argv: list[str], env: dict, cwd: str):
    t0 = perf_counter()
    proc = subprocess.run(argv, env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=CLI_TIMEOUT_S)
    return perf_counter() - t0, proc


def cli_session(seed: int, workdir: str) -> list[Command]:
    """Write the session's state files and return its fixed command list."""
    import oneroot.families as fam
    from oneroot.stateio import save_state

    rng = _rng(seed, 30)
    f2 = fam.random_two_qubit_family(rng)
    f3 = fam.random_three_qubit_family(rng)
    fam2, fam3 = fam.two_qubit_state(f2), fam.three_qubit_state(f3)
    gen2, gen3 = _random_span(rng, 2), _random_span(rng, 3)
    files = {"fam2": fam2, "fam3": fam3, "gen2": gen2, "gen3": gen3,
             "dm_gen2": gen2.density(), "dm_fam2": fam2.density()}
    path = {}
    for name, state in files.items():
        path[name] = os.path.join(workdir, f"{name}.json")
        save_state(state, path[name])
    c2, t3 = fam.two_qubit_concurrence(f2), fam.sqrt_tangle_formula(f3)

    def certificate(granted):
        def check(out, res):
            res.check(json.loads(out)["one_root"] is granted, "certify: one_root flag")
        return check

    def roof_value(want):
        def check(out, res):
            v = json.loads(out)["value"]
            res.check(abs(v - want) <= 1e-10, f"roof: {v!r} vs reference {want!r}")
        return check

    def printed(reference):
        def check(out, res):
            v, want = float(out), reference()
            res.check(abs(v - want) <= 1e-11, f"measure: {v!r} vs reference {want!r}")
        return check

    def grid(out, res):
        rows = np.array([[float(x) for x in line.split(",")]
                         for line in out.splitlines() if not line.startswith(("#", "theta"))])
        vals = rows[:, 2].reshape(GRID, GRID)  # theta-major
        rings = np.ptp(vals, axis=1)
        res.check(rows.shape[0] == GRID * GRID, f"bloch-grid: {rows.shape[0]} points")
        res.check(float(rings.max()) < 1e-9, f"bloch-grid: ring spread {rings.max():.2e}")
        res.check(int(np.argmin(vals.min(axis=1))) == 0, "bloch-grid: minimum off the root pole")
        res.check(int(np.argmax(vals.max(axis=1))) == GRID - 1,
                  "bloch-grid: maximum off the antipode")

    def scan(out, res):
        rows = [line for line in out.splitlines()[1:] if line.strip()]
        res.check(len(rows) == 16 * SCAN_DRAWS, f"scan: {len(rows)} rows")

    conc, tangle = ["-M", "concurrence"], ["-M", "sqrt_three_tangle"]
    return [
        Command("certify", ["certify", path["fam2"], *conc], 0, certificate(True)),
        Command("certify", ["certify", path["fam3"], *tangle], 0, certificate(True)),
        Command("certify", ["certify", path["gen2"], *conc], 1, certificate(False)),
        Command("certify", ["certify", path["gen3"], *tangle], 1, certificate(False)),
        Command("roof", ["roof", path["fam2"], *conc, "--method", "closed"], 0, roof_value(c2)),
        Command("roof", ["roof", path["fam3"], *tangle, "--method", "closed"], 0,
                roof_value(t3)),
        Command("measure", ["measure", path["dm_gen2"], *conc], 0, printed(
            lambda: ref.wootters_concurrence(own_density(gen2)))),
        Command("measure", ["measure", path["dm_fam2"], *conc], 0, printed(lambda: c2)),
        Command("bloch-grid", ["bloch-grid", path["fam2"], *conc, "--ntheta", str(GRID),
                               "--nphi", str(GRID)], 0, grid),
        Command("scan", ["scan", "--with-slocc", "--draws", str(SCAN_DRAWS),
                         "--seed", str(SCAN_SEED)], 0, scan),
    ]


def _cli_round(commands: list[Command], env: dict, root: str, res: Result):
    times, outs = [], []
    for cmd in commands:
        dt, proc = _run_process([sys.executable, "-m", "oneroot.cli", *cmd.args], env, root)
        times.append(dt)
        if proc.returncode in (0, 1):
            res.check(proc.returncode == cmd.expect_code,
                      f"{cmd.name} {cmd.args[1:2]}: exit {proc.returncode}, "
                      f"expected {cmd.expect_code}")
            outs.append(proc.stdout)
        else:  # an error exit (2-5) or a crash is a failed operation
            res.fail(f"{cmd.name} {cmd.args[1:2]}: exit {proc.returncode}: "
                     f"{proc.stderr.strip()[-300:]}")
            outs.append(None)
    res.attempted += len(commands)
    return outs, times


def _workdir(root: str) -> str:
    path = os.path.join(root, "perfbench", "out", f"states-{os.getpid()}")
    os.makedirs(path, exist_ok=True)
    return path


def cli(seed: int, seconds: float, since_start, root: str) -> Result:
    res = Result()
    workdir = _workdir(root)
    try:
        commands = cli_session(seed, workdir)
        env = _cli_env(root)
        setup_s = since_start()
        rounds = _rounds(lambda: _cli_round(commands, env, root, res), seconds,
                         lambda a, b: a == b, list, resource.RUSAGE_CHILDREN, res)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for cmd, out in zip(commands, rounds.first):
        if out is not None:
            cmd.check(out, res)

    res.metrics = _end_to_end(setup_s, rounds)
    names = [c.name for c in commands]
    res.details.update({
        "session_s": rounds.round_s, "commands": [" ".join(c.args) for c in commands],
        "command_s": rounds.summaries,
        "command_ms": {n: _percentiles([t * 1e3 for ts in rounds.summaries
                                        for t, m in zip(ts, names) if m == n])
                       for n in dict.fromkeys(names)}})
    return res


# ---- set-up probe ----


def setup(name: str, seed: int, root: str) -> None:
    """Build a workload's inputs the way its run does, and nothing more."""
    if name == "closed-roof":
        closed_roof_population(seed)
    elif name == "oracle-roof":
        oracle_panel(seed)
    else:
        workdir = _workdir(root)
        try:
            cli_session(seed, workdir)
            _cli_env(root)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


# ---- traced run ----


def _us(x) -> float:
    return float(np.median(x)) * 1e6 if len(x) else 0.0


def traced(seed: int, root: str) -> Result:
    """One round of each workload under a Tracer; per-layer figures only.

    Every per-layer figure comes from the workload that exercises the layer,
    so this runs all three whatever workload was named. Spans go to
    perfbench/out/trace-<workload>-seed<seed>.json.
    """
    from tracing import Tracer

    res = Result()
    m = {}
    spans = {}

    # closed-roof: slocc_marginal while the population is built, then one round
    with Tracer() as tr:
        tr.wrap("oneroot.families", "slocc_marginal")
        items = closed_roof_population(seed)
        tr.phase = "round"
        for mod, attr in (("zeropolytope", "certify"), ("zeropolytope", "pole_safe_basis"),
                          ("zeropolytope", "build_polynomial"), ("zeropolytope", "find_roots"),
                          ("convexroof", "closed_form"), ("qstate", "density_matrix"),
                          ("qstate", "trace_distance")):
            tr.wrap(f"oneroot.{mod}", attr)
        verdicts, values, closed_times = _closed_round(items, res)
    _check_closed(items, verdicts, values, seed, res)
    certify_calls = tr.count("zeropolytope.certify")
    granted = int((verdicts == 1).sum())
    children = {"zeropolytope.pole_safe_basis", "zeropolytope.build_polynomial",
                "zeropolytope.find_roots"}
    closed_calls = tr.count("convexroof.closed_form")
    res.check(closed_calls == granted,
              f"closed_form ran {closed_calls} times for {granted} granted certificates")
    m.update({
        "zeropolytope.certify.calls": (certify_calls, "count"),
        "zeropolytope.certify.p50_us": (_us(tr.durations("zeropolytope.certify")), "us"),
        "zeropolytope.certify.self_us": (_us(tr.self_times("zeropolytope.certify", children)),
                                         "us"),
        "zeropolytope.pole_safe_basis.p50_us":
            (_us(tr.durations("zeropolytope.pole_safe_basis")), "us"),
        "zeropolytope.build_polynomial.p50_us":
            (_us(tr.durations("zeropolytope.build_polynomial")), "us"),
        "zeropolytope.find_roots.p50_us": (_us(tr.durations("zeropolytope.find_roots")), "us"),
        "zeropolytope.build_polynomial.calls_per_certify":
            (tr.count("zeropolytope.build_polynomial") / certify_calls, "ratio"),
        "zeropolytope.granted_per_certify": (granted / certify_calls, "ratio"),
        "convexroof.closed_form.calls": (closed_calls, "count"),
        "convexroof.closed_form.p50_us": (_us(tr.durations("convexroof.closed_form")), "us"),
        "qstate.density_matrix.calls_per_state":
            (tr.count("qstate.density_matrix", "round") / len(items), "ratio"),
        "qstate.trace_distance.calls": (tr.count("qstate.trace_distance"), "count"),
        "families.slocc_marginal.p50_us": (_us(tr.durations("families.slocc_marginal")), "us"),
    })
    spans["closed-roof"] = tr

    # oracle-roof: one round with the objective, restarts and gradients counted
    panel = oracle_panel(seed)
    with Tracer() as tr:
        tr.phase = "round"
        tr.wrap_oracle()
        results, oracle_times = _oracle_round(panel, res)
    _check_oracle(panel, results, res)
    oracle_s = tr.durations("convexroof.oracle_minimize")
    res.check(tr.objective_evals == tr.powell_nfev + tr.fd_evals,
              f"objective evaluations {tr.objective_evals} != summed nfev "
              f"{tr.powell_nfev} + finite-difference probes {tr.fd_evals}")
    restarts = [x for run in tr.restart_minima for x in run]
    near = sum(sum(x - min(run) <= 1e-9 for x in run) for run in tr.restart_minima)
    m.update({
        "convexroof.oracle_minimize.p50_ms": (float(np.median(oracle_s)) * 1e3, "ms"),
        "convexroof.objective.evals": (tr.objective_evals, "count"),
        "convexroof.objective.busy_s": (tr.objective_busy, "s"),
        "convexroof.objective.mean_us": (tr.objective_busy / tr.objective_evals * 1e6, "us"),
        "convexroof.fd_gradient_norm.busy_s":
            (float(tr.durations("convexroof.fd_gradient_norm").sum()), "s"),
        "convexroof.powell.self_s": (float(oracle_s.sum()) - tr.objective_busy, "s"),
        "convexroof.restarts_near_best": (near / len(restarts), "ratio"),
    })
    spans["oracle-roof"] = tr

    # cli: interpreter and import probes, one session, in-process load_state
    env = _cli_env(root)
    workdir = _workdir(root)
    try:
        commands = cli_session(seed, workdir)
        start = [_run_process([sys.executable, "-c", "pass"], env, root)[0]
                 for _ in range(5)]
        imp = [_run_process([sys.executable, "-c", "import oneroot.cli"], env, root)[0]
               for _ in range(3)]
        outs, times = _cli_round(commands, env, root, res)
        with Tracer() as tr:
            tr.phase = "round"
            tr.wrap("oneroot.stateio", "load_state")
            import oneroot.stateio as sio
            for _ in range(20):
                for name in sorted(os.listdir(workdir)):
                    sio.load_state(os.path.join(workdir, name))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for cmd, out in zip(commands, outs):
        if out is not None:
            cmd.check(out, res)
    m.update({
        "stateio.load_state.p50_us": (_us(tr.durations("stateio.load_state")), "us"),
        "cli.python_start_ms": (float(np.median(start)) * 1e3, "ms"),
        "cli.import_ms": (float(np.median(imp)) * 1e3, "ms"),
    })
    for name in dict.fromkeys(c.name for c in commands):
        m[f"cli.{name}.p50_ms"] = (float(np.median([t for t, c in zip(times, commands)
                                                    if c.name == name])) * 1e3, "ms")
    spans["cli"] = tr

    os.makedirs(os.path.join(root, "perfbench", "out"), exist_ok=True)
    for name, tracer in spans.items():
        tracer.dump(os.path.join(root, "perfbench", "out", f"trace-{name}-seed{seed}.json"))
    res.metrics = m
    # traced wall times, to compare with untraced rounds (tracing overhead)
    res.details.update({"closed_round_s": float(closed_times.sum()),
                        "oracle_state_s": dict(zip([it.kind for it in panel], oracle_times)),
                        "cli_command_s": times})
    return res
