"""Library workloads, run in a fresh interpreter per run by run.py.

Usage: python perfbench/libworker.py CONFIG_JSON

CONFIG_JSON holds workload, seed, seconds, size, trace, expected (path to
the frozen digests) and result (path the result document is written to).
The worker imports gammasym, runs one untimed warm-up op, then times whole
rounds of ops until another round would overrun ``seconds``.  Each op's
output is checked outside its timed region; a wrong output or an exception
marks the op failed.
"""

import time

T0 = time.perf_counter()

import hashlib  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from itertools import product  # noqa: E402

import reference  # noqa: E402

import tracing  # noqa: E402

SWEEP_N = {"full": 8, "tiny": 4}
KILLING = {"full": (13, (3, 3, 3, 4)), "tiny": (7, (2, 2, 2, 1))}
GEODESIC_T = (0.1, 1.0, 3.141592653589793, 5.0)
GEODESIC_TOL = 1e-12


def compositions(n: int) -> list[tuple[int, ...]]:
    """Every ordered partition of n into four nonnegative blocks."""
    return [p for p in product(range(n + 1), repeat=4) if sum(p) == n]


def partition_key(part) -> str:
    return ",".join(map(str, part))


# -- partition sweep ----------------------------------------------------------


def analyse(gs, n: int, part) -> dict:
    """The full library pipeline on one block grading: the timed op."""
    g = gs.block_grading(n, part)
    verified = gs.verify_grading(g) is None
    family = gs.invariant_family(g)
    refined = gs.naturally_reductive_subfamily(family)
    b_m = gs.SymmetricForm.identity(len(g.complement_indices))
    b_e = gs.SymmetricForm.identity(len(g.fixed_indices))
    out = {
        "verified": verified,
        "family": family,
        "refined_dim": refined.dimension,
        "adapted": gs.is_adapted(b_m, g),
        "lorentz": gs.lorentzian_search(family),
        "holonomy_dim": gs.holonomy_span(g).total_dim,
        "table": gs.sectional_table(g, b_m, b_e),
        "ambrose": gs.ambrose_singer_check(g, b_m),
        "geodesic": [],
    }
    if g.complement_indices:
        e = g.algebra.basis_matrix(g.complement_indices[0])
        curve = gs.geodesic_curve(e)
        out["geodesic"] = [(curve.at(t), gs.matrix_exp_numeric(e, t)) for t in GEODESIC_T]
    return out


def digest(result: dict) -> str:
    """sha256 over every exact output of ``analyse``."""
    family, lor, asr = result["family"], result["lorentz"], result["ambrose"]
    doc = {
        "verified": result["verified"],
        "family_dim": family.dimension,
        "names": family.names,
        "refined_dim": result["refined_dim"],
        "adapted": result["adapted"],
        "lorentz": None
        if lor is None
        else {
            "values": [[v.numerator, v.denominator] for v in lor.parameter_values],
            "inertia": list(lor.inertia),
        },
        "contraction_vanishes": asr.contraction_vanishes,
        "totally_skew": asr.totally_skew,
        "holonomy_dim": result["holonomy_dim"],
        "sectional": result["table"].csv_rows(),
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def geodesic_ok(result: dict) -> bool:
    return all(
        float(abs(closed - oracle).max()) <= GEODESIC_TOL for closed, oracle in result["geodesic"]
    )


def sweep_rounds(gs, size: str, seed: int, expected: dict):
    n = SWEEP_N[size]
    want = expected["sweep"][str(n)]
    parts = compositions(n)
    rng = random.Random(seed)
    while True:
        rng.shuffle(parts)
        yield [
            (
                partition_key(p),
                lambda p=p: analyse(gs, n, p),
                lambda r, p=p: digest(r) == want[partition_key(p)] and geodesic_ok(r),
            )
            for p in parts
        ]


# -- Killing operator ---------------------------------------------------------


def beta_ok(op, b_rows, n: int) -> bool:
    """B . beta = K, with K = -2(n-2) I, the Killing form of so(n) on the
    orthogonal E_ij basis (K(X, Y) = (n-2) tr(XY)); plus commutation and the
    leading characteristic polynomial coefficients."""
    beta, d = op.matrix, len(b_rows)
    k = Fraction(-2 * (n - 2))
    for i in range(d):
        for j in range(d):
            s = sum((b_rows[i][t] * beta[t][j] for t in range(d)), Fraction(0))
            if s != (k if i == j else 0):
                return False
    trace = sum((beta[i][i] for i in range(d)), Fraction(0))
    cp = op.char_poly
    return op.commutes is True and len(cp) == d + 1 and cp[0] == 1 and cp[1] == -trace


def killing_rounds(gs, size: str, seed: int, expected: dict):
    from gammasym.groups import enumerate_group

    n, part = KILLING[size]
    g = gs.block_grading(n, part)
    family = gs.invariant_family(g)
    carrier = g.complement_indices
    comps = []
    for gamma in enumerate_group(2)[1:]:
        idx = g.component(gamma).indices
        if idx:
            comps.append((gamma, [carrier.index(k) for k in idx]))
    rng = random.Random(seed)

    def member(pos):
        """A seeded family member that is non-degenerate on ``pos``, and its block there."""
        while True:
            values = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(family.dimension)]
            form = gs.evaluate_family(family, values)
            block = form.restrict(pos).rows()
            if reference.rank(block) == len(block):
                return form, block

    # every op draws its own member: the cost of an op depends on the
    # member's bit sizes, and a run then averages over many members
    while True:
        batch = []
        for gamma, pos in comps:
            form, block = member(pos)
            batch.append(
                (
                    gamma.label,
                    lambda gamma=gamma, form=form: gs.killing_metric_operator(g, form, gamma),
                    lambda op, b=block: beta_ok(op, b, n),
                )
            )
        yield batch


ROUNDS = {"partition-sweep-n8": sweep_rounds, "killing-beta-n13": killing_rounds}


def run_op(op_id: int, label: str, call, check, tracer, warm: bool = False) -> dict:
    if tracer is not None:
        tracer.op = op_id
        span = tracer.begin("op")
    start, cpu = time.perf_counter(), time.thread_time()
    error = None
    try:
        result = call()
    except Exception as exc:  # a crashing op is a failed op, not a crashed run
        error = repr(exc)
    cpu, wall = time.thread_time() - cpu, time.perf_counter() - start
    if tracer is not None:
        tracer.end(span)
        tracer.op = None
    ok = False
    if error is None:
        try:
            ok = bool(check(result))
        except Exception as exc:
            error = repr(exc)
    return {"op": op_id, "label": label, "s": cpu, "wall": wall, "ok": ok, "warm": warm, "error": error}


def main(cfg: dict) -> None:
    start = time.perf_counter()
    import gammasym as gs

    imported = time.perf_counter()
    tracer = None
    if cfg["trace"]:
        tracer = tracing.Tracer()
        tracer.add("import", start, imported)
    with open(cfg["expected"]) as f:
        expected = json.load(f)
    rounds = ROUNDS[cfg["workload"]](gs, cfg["size"], cfg["seed"], expected)
    warm = next(rounds)[0]
    ops = [run_op(0, *warm, None, warm=True)]
    before = reference.sample(ops[0]["s"])
    if tracer is not None:
        tracing.install(tracer)
    loop_start = time.perf_counter()
    round_s: list[float] = []
    for batch in rounds:
        r0 = time.perf_counter()
        for label, call, check in batch:
            op = run_op(len(ops), label, call, check, tracer)
            after = reference.sample(op["s"])
            op["ref"] = statistics.median(before + after)
            before = after
            ops.append(op)
        now = time.perf_counter()
        round_s.append(now - r0)
        if now - loop_start + sum(round_s) / len(round_s) > cfg["seconds"]:
            break
    loop_s = time.perf_counter() - loop_start
    doc = {"t0": T0, "ops": ops, "loop_s": loop_s}
    if tracer is not None:
        doc.update(spans=tracer.spans, counts=tracer.counts, max_bits=tracer.max_bits)
    with open(cfg["result"], "w") as f:
        json.dump(doc, f)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
