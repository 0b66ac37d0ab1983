"""Job lists and known answers for the four benchmark workloads.

A run of a workload is a sequence of passes. Pass i is a list of jobs built
from (seed, i), so a longer run covers more distinct inputs and the same seed
always gives the same inputs. Every job carries the answer it must return,
worked out here from how its input was built, never by asking the library.
The library only receives the generated inputs.
"""

from __future__ import annotations

import functools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, replace

from superhopf import dgxrep, hopfcore
from superhopf.chargroup import GroupDescriptor, LieFunctional
from superhopf.fields import GF, QQ, FunctionField, QuadraticField

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
GOLDEN = os.path.join(HERE, "golden")
LAUNCH = os.path.join(HERE, "launch.py")

# Samples per verify_hopf_axioms call, as in acceptance criterion 01.
AXIOM_SAMPLES = 500


@dataclass(frozen=True)
class Job:
    name: str
    run: object  # () -> answer
    expected: object


def check(job: Job, answer) -> bool:
    return answer == job.expected


def with_wrong_answer(job: Job) -> Job:
    """The same job with an expected answer it cannot return."""
    want = job.expected
    if isinstance(want, bool):
        wrong = not want
    elif isinstance(want, list):
        wrong = want + ["S(0)"]
    else:
        code, out = want
        wrong = (code, out + b"\n")
    return replace(job, expected=wrong)


def child_env():
    """Environment for every process the benchmark starts: the checkout's
    sources, and a fixed string-hash seed so that set iteration order, and
    with it every operation count, repeats from run to run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PERFBENCH_TRACE_OUT", None)
    return env


# ---------------------------------------------------------------------------
# axiom_sweep


def _sweep_cases(field):
    """The six base/structure cases of acceptance criterion 01."""
    Gm = GroupDescriptor(1, ())
    Ga = GroupDescriptor(0, (), 1)
    mu3 = GroupDescriptor(0, (3,))
    mu4 = GroupDescriptor(0, (4,))
    GaGm = GroupDescriptor(1, (), 1)
    return [
        ("Gm_1_y", Gm, Gm.identity(), LieFunctional(Gm, field, free=[1])),
        ("Gm_t_0", Gm, Gm.character([1]), LieFunctional.zero(Gm, field)),
        ("Ga_1_y", Ga, Ga.identity(), LieFunctional(Ga, field, additive=[1])),
        ("mu3_t_0", mu3, mu3.character([1]), LieFunctional.zero(mu3, field)),
        ("mu4_t2_0", mu4, mu4.character([2]), LieFunctional.zero(mu4, field)),
        ("GaGm_1_ab", GaGm, GaGm.identity(), LieFunctional(GaGm, field, free=[2], additive=[3])),
    ]


def _tampered_delta_z(field, base, g, variant, rng):
    """A coproduct on z that breaks a counit law: Delta(z) = 1(x)z + z(x)g
    with the z(x)g term rescaled, dropped, or joined by a 1(x)1 term."""
    zeros_c, zeros_t = (0,) * base.ncoords, (0,) * base.additive_rank
    one_m, z_m, g_m = (zeros_c, zeros_t, 0), (zeros_c, zeros_t, 1), (g.exps, zeros_t, 0)
    one = field.one()
    if variant == "scaled":
        return {(one_m, z_m): one, (z_m, g_m): field.from_int(rng.choice((2, 3, 4)))}
    if variant == "dropped":
        return {(one_m, z_m): one}
    return {(one_m, z_m): one, (z_m, g_m): one, (one_m, one_m): one}


def _run_axioms(field, base, g, x, override, seed):
    if override is None:
        alg = hopfcore.build_algebra(field, base, g, x)
    else:
        alg = hopfcore.MonomialHopfSuperalgebra(field, base, g, x, delta_z_override=override)
    return hopfcore.verify_hopf_axioms(alg, samples=AXIOM_SAMPLES, seed=seed).passed


def axiom_sweep(rng):
    """Each of the twelve cases twice: once valid, which must pass, and once
    with a tampered Delta(z), which must fail. The seed picks the tampering
    and the sampled monomials. Each job builds its algebra, so its caches
    start cold."""
    jobs = []
    for tag, field in (("Q", QQ()), ("F5", GF(5))):
        for name, base, g, x in _sweep_cases(field):
            run = functools.partial(_run_axioms, field, base, g, x, None, rng.randrange(10**6))
            jobs.append(Job(f"{name}/{tag}", run, True))
            variant = rng.choice(("scaled", "dropped", "extra"))
            override = _tampered_delta_z(field, base, g, variant, rng)
            run = functools.partial(_run_axioms, field, base, g, x, override, rng.randrange(10**6))
            jobs.append(Job(f"{name}/{tag}/tampered-{variant}", run, False))
    return jobs


# ---------------------------------------------------------------------------
# decompose_fp and decompose_exact


def _mu4_algebras(field):
    """mu4 with g = 1 and with g = chi^2; x = 0 is forced outside char 2."""
    mu4 = GroupDescriptor(0, (4,))
    zero = LieFunctional.zero(mu4, field)
    return [hopfcore.build_algebra(field, mu4, g, zero) for g in (mu4.identity(), mu4.character([2]))]


def _label_text(label):
    # With x = 0 every label is already canonical once its character is
    # reduced mod 4, which the generator guarantees.
    text = f"{label.kind}({label.char[0]})"
    return "Pi" + text if label.shifted else text


def _random_labels(dim, rng):
    """Summands adding up to `dim`: dim // 4 copies of L and the rest S, the
    S lines split evenly between the parities, and the characters dealt
    round-robin from a shuffled list of all four. The seed picks characters,
    parities and order; the shape is fixed per dimension because at equal
    dimension a lopsided shape (one parity, or one character, holding most
    of the sum) costs several times more, and the seed would then set the
    cost of the run."""
    n_l = dim // 4
    kinds = [("L", rng.random() < 0.5) for _ in range(n_l)]
    kinds += [("S", i % 2 == 1) for i in range(dim - 2 * n_l)]
    chars = rng.sample(range(4), 4)
    labels = [dgxrep.IndecompLabel(kind, (chars[i % 4],), shifted)
              for i, (kind, shifted) in enumerate(kinds)]
    rng.shuffle(labels)
    return labels


def _scrambled_sum(alg, labels, entry, rng):
    """A direct sum of standard objects under a random parity-preserving
    change of basis."""
    m = None
    for label in labels:
        block = dgxrep.standard_object(alg, label)
        m = block if m is None else m.direct_sum(block)
    n, zero = m.dim, alg.field.zero()
    while True:
        mat = [[entry(rng) if m.parities[i] == m.parities[j] else zero for j in range(n)]
               for i in range(n)]
        try:
            return m.change_basis(mat)
        except dgxrep.DecompositionError:
            continue


def _decompose_labels(m):
    return dgxrep.decompose(m).label_multiset()


def _decompose_job(alg, dim, entry, tag, rng):
    labels = _random_labels(dim, rng)
    m = _scrambled_sum(alg, labels, entry, rng)
    run = functools.partial(_decompose_labels, m)
    return Job(f"decompose {tag} dim {dim}", run, sorted(_label_text(l) for l in labels))


def decompose_fp(rng):
    """Two jobs per dimension 4..16, one over F_5 and one over F_101, with
    g = 1 and g = chi^2 alternating, so every pass has the same mix."""
    algebras = {p: _mu4_algebras(GF(p)) for p in (5, 101)}
    jobs = []
    for dim in range(4, 17):
        for k, p in enumerate((5, 101)):
            g = (dim + k) % 2
            entry = functools.partial(_residue, algebras[p][g].field, p)
            alg = algebras[p][g]
            jobs.append(_decompose_job(alg, dim, entry, f"F{p} g={('1', 'chi2')[g]}", rng))
    return jobs


def _residue(field, p, rng):
    return field.from_int(rng.randrange(p))


def decompose_exact(rng):
    """Two jobs per dimension 4..8 over each of Q, Q(sqrt(-1)) and F_5(t),
    one with g = 1 and one with g = chi^2."""
    Q, Qi, F5t = QQ(), QuadraticField(-1), FunctionField(5)
    i_unit, t = Qi.generator(), F5t.generator()
    entries = {
        "Q": (Q, lambda r: Q.from_int(r.randint(-3, 3))),
        "Q(sqrt(-1))": (Qi, lambda r: Qi.from_int(r.randint(-2, 2)) + i_unit * r.randint(-2, 2)),
        "F5(t)": (F5t, lambda r: F5t.from_int(r.randrange(5)) + t * r.randrange(5)),
    }
    jobs = []
    for tag, (field, entry) in entries.items():
        for alg, g in zip(_mu4_algebras(field), ("1", "chi2")):
            for dim in range(4, 9):
                jobs.append(_decompose_job(alg, dim, entry, f"{tag} g={g}", rng))
    return jobs


# ---------------------------------------------------------------------------
# cli_batch


def run_cli(argv, trace_file=None):
    """One subcommand in its own process; returns (exit code, stdout bytes)."""
    env = child_env()
    if trace_file is not None:
        env["PERFBENCH_TRACE_OUT"] = trace_file
    proc = subprocess.run([sys.executable, LAUNCH, *argv], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, timeout=120)
    return proc.returncode, proc.stdout


def _manifest():
    with open(os.path.join(GOLDEN, "manifest.json")) as fh:
        return json.load(fh)


def cli_subcommands():
    return [case["name"] for case in _manifest()]


def cli_batch(rng):
    """Every subcommand once on its golden fixture. The fixtures are fixed;
    the seed only orders the pass."""
    jobs = []
    for case in _manifest():
        with open(os.path.join(GOLDEN, case["stdout"]), "rb") as fh:
            stdout = fh.read()
        run = functools.partial(run_cli, case["argv"])
        jobs.append(Job(case["name"], run, (case["exit_code"], stdout)))
    return jobs


def build(workload, seed, index):
    """(warm-up job, pass `index`) for a workload. The pass is in a seeded
    order; the warm-up is the builder's first job, one of the cheapest."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    jobs = WORKLOADS[workload](rng)
    order = list(jobs)
    rng.shuffle(order)
    return jobs[0], order


WORKLOADS = {
    "axiom_sweep": axiom_sweep,
    "decompose_fp": decompose_fp,
    "decompose_exact": decompose_exact,
    "cli_batch": cli_batch,
}
