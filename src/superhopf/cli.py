"""Command-line front end: JSON in, JSON report out.

Exit codes: 0 for accepted / true verdicts, 1 for rejected / false verdicts,
2 for errors (including malformed input, which names the offending JSON
path). Reports are deterministic for fixed inputs and seed. Each handler
imports the engine modules it calls, so a subcommand loads only those.
"""

from __future__ import annotations

import argparse
import json
import sys

from .fields import Field, FieldError

SCHEMA_VERSION = 1


class ParseError(Exception):
    pass


def _field_from_flag(flag: str) -> Field:
    parts = flag.split(":")
    kind = parts[0]
    try:
        if kind == "Q":
            return Field.from_json({"kind": "Q"})
        if kind == "Fp":
            return Field.from_json({"kind": "Fp", "p": int(parts[1])})
        if kind == "Fpt":
            var = parts[2] if len(parts) > 2 else "t"
            return Field.from_json({"kind": "Fpt", "p": int(parts[1]), "var": var})
        if kind == "Qsqrt":
            return Field.from_json({"kind": "Qsqrt", "d": int(parts[1])})
    except (IndexError, ValueError) as exc:
        raise ParseError(f"bad --field value {flag!r}: {exc}") from exc
    raise ParseError(f"unknown field kind {kind!r} (use Q, Fp:p, Fpt:p[:var], Qsqrt:d)")


def _load(path):
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"{path}: top-level value must be a JSON object")
    return data


def _require(data, key, path):
    if key not in data:
        raise ParseError(f"missing key {path}.{key}")
    return data[key]


def _gx_from_json(data, path="$"):
    from .hopfcore import GXData
    try:
        return GXData.from_json(data)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: bad structure data ({exc})") from exc
    except FieldError as exc:
        raise ParseError(f"{path}.field: {exc}") from exc


def _emit(report, args, exit_code):
    text = json.dumps(report, indent=2, sort_keys=True)
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return exit_code


def _verdict_exit(flag: bool) -> int:
    return 0 if flag else 1


# ---------------------------------------------------------------------------
# subcommand handlers


def cmd_build_ggx(args):
    from . import hopfcore
    data = _load(args.input)
    gx = _gx_from_json(data)
    verdict = hopfcore.validate_gx(gx.base, gx.g, gx.x)
    report = {
        "schema_version": SCHEMA_VERSION,
        "validation": verdict.to_json(),
    }
    if verdict.accepted:
        alg = hopfcore.build_algebra(gx.field, gx.base, gx.g, gx.x)
        report["algebra"] = alg.structure_json()
        report["input"] = gx.to_json()
    return _emit(report, args, _verdict_exit(verdict.accepted))


def cmd_verify_hopf(args):
    from . import hopfcore
    data = _load(args.input)
    gx = _gx_from_json(data)
    alg = hopfcore.build_algebra(gx.field, gx.base, gx.g, gx.x)
    rep = hopfcore.verify_hopf_axioms(alg, samples=args.samples, seed=args.seed)
    report = {
        "schema_version": SCHEMA_VERSION,
        "axioms": rep.to_json(),
        "pairing_xg_zero": gx.x.pair(gx.g).is_zero(),
    }
    return _emit(report, args, _verdict_exit(rep.passed))


def cmd_check_pair(args):
    from . import hcp
    pair = hcp.HarishChandraPair.from_json(_load(args.input))
    verdict = hcp.check_pair(pair)
    report = {"schema_version": SCHEMA_VERSION, "check": verdict.to_json()}
    return _emit(report, args, _verdict_exit(verdict.ok))


def _pair_and_sub(args):
    from .hcp import HarishChandraPair, SubPair
    data = _load(args.input)
    pair = HarishChandraPair.from_json(_require(data, "pair", "$"))
    sub = SubPair.from_json(pair, _require(data, "sub", "$"))
    return pair, sub


def cmd_check_normal(args):
    from . import hcp
    pair, sub = _pair_and_sub(args)
    verdict = hcp.check_normal(pair, sub)
    report = {"schema_version": SCHEMA_VERSION, "normal": verdict.to_json()}
    return _emit(report, args, _verdict_exit(verdict.ok))


def cmd_quotient(args):
    from . import hcp
    pair, sub = _pair_and_sub(args)
    try:
        quotient = hcp.quotient_pair(pair, sub)
    except hcp.NotNormal as exc:
        report = {"schema_version": SCHEMA_VERSION, "error": f"not normal: {exc}"}
        return _emit(report, args, 1)
    recheck = hcp.check_pair(quotient)
    report = {
        "schema_version": SCHEMA_VERSION,
        "quotient": quotient.to_json(),
        "quotient_is_pair": recheck.ok,
    }
    return _emit(report, args, _verdict_exit(recheck.ok))


def cmd_super_diag(args):
    from . import hcp
    pair = hcp.HarishChandraPair.from_json(_load(args.input))
    ok, cert = hcp.super_diagonalizable(pair)
    report = {"schema_version": SCHEMA_VERSION, "super_diagonalizable": ok, "certificate": cert}
    return _emit(report, args, _verdict_exit(ok))


def cmd_normal_chain(args):
    from . import hcp
    pair = hcp.HarishChandraPair.from_json(_load(args.input))
    result = hcp.normal_chain(pair)
    report = {"schema_version": SCHEMA_VERSION, "chain": result.to_json()}
    return _emit(report, args, 0)


def cmd_iso_ggx(args):
    from . import hcp
    from .chargroup import GroupDescriptor, LieFunctional
    data = _load(args.input)
    field = Field.from_json(_require(data, "field", "$"))
    base = GroupDescriptor.from_json(_require(data, "group", "$"))
    d1 = hcp.GXData(field, base, base.character(_require(data, "g1", "$")),
                    LieFunctional.from_json(base, field, _require(data, "x1", "$")))
    d2 = hcp.GXData(field, base, base.character(_require(data, "g2", "$")),
                    LieFunctional.from_json(base, field, _require(data, "x2", "$")))
    verdict, alpha = hcp.classify_iso(d1, d2)
    report = {
        "schema_version": SCHEMA_VERSION,
        "verdict": verdict,
        "alpha": None if alpha is None else str(alpha),
    }
    if verdict == "undecidable":
        return _emit(report, args, 2)
    return _emit(report, args, _verdict_exit(verdict == "isomorphic"))


def cmd_nilpotency(args):
    from . import hcp
    gx = _gx_from_json(_load(args.input))
    verdict = hcp.is_nilpotent(gx)
    report = {"schema_version": SCHEMA_VERSION, "nilpotent": verdict}
    return _emit(report, args, _verdict_exit(verdict))


def cmd_center(args):
    from . import hcp
    gx = _gx_from_json(_load(args.input))
    report = {"schema_version": SCHEMA_VERSION, "center_even": hcp.center_even(gx)}
    return _emit(report, args, 0)


def cmd_thm64(args):
    from . import hcp
    gx = _gx_from_json(_load(args.input))
    conditions = hcp.nilpotency_conditions(gx)
    all_hold = all(
        conditions[k] for k in conditions if isinstance(conditions[k], bool)
    )
    report = {"schema_version": SCHEMA_VERSION, "conditions": conditions}
    return _emit(report, args, _verdict_exit(all_hold))


def cmd_counterexample_71(args):
    from . import hcp
    field = _field_from_flag(args.field)
    try:
        rep = hcp.splitting_counterexample(field, args.alpha, args.beta)
    except FieldError as exc:
        raise ParseError(f"--alpha/--beta: {exc}") from exc
    report = {"schema_version": SCHEMA_VERSION, **rep.to_json()}
    return _emit(report, args, _verdict_exit(rep.splits))


def _algebra_input(data):
    from .hopfcore import build_algebra
    gx = _gx_from_json(_require(data, "algebra", "$"), "$.algebra")
    return build_algebra(gx.field, gx.base, gx.g, gx.x)


def _comodule_input(args):
    from .dgxrep import Supercomodule
    data = _load(args.input)
    alg = _algebra_input(data)
    return alg, Supercomodule.from_json(alg, _require(data, "comodule", "$"))


def cmd_decompose(args):
    from . import dgxrep
    alg, m = _comodule_input(args)
    failures = m.validate()
    if failures:
        report = {"schema_version": SCHEMA_VERSION, "error": f"invalid comodule: {failures[:3]}"}
        return _emit(report, args, 2)
    result = dgxrep.decompose(m)
    report = {"schema_version": SCHEMA_VERSION, "decomposition": result.to_json()}
    return _emit(report, args, 0)


def cmd_socle(args):
    from . import dgxrep
    alg, m = _comodule_input(args)
    soc, basis = dgxrep.socle(m)
    report = {
        "schema_version": SCHEMA_VERSION,
        "socle": soc.to_json(),
        "socle_dim": soc.dim,
        "basis": [[str(c) for c in vec] for vec in basis],
    }
    return _emit(report, args, 0)


def cmd_ext1(args):
    from . import dgxrep
    data = _load(args.input)
    alg = _algebra_input(data)
    s = dgxrep.IndecompLabel.from_json(_require(data, "S", "$"))
    t = dgxrep.IndecompLabel.from_json(_require(data, "T", "$"))
    dim, rep, rep_label = dgxrep.ext1(alg, s, t)
    report = {
        "schema_version": SCHEMA_VERSION,
        "dimension": dim,
        "representative": None if rep is None else rep.to_json(),
        "representative_label": None if rep_label is None else rep_label.to_json(),
    }
    return _emit(report, args, 0)


def cmd_duality(args):
    from . import dgxrep
    data = _load(args.input)
    alg = _algebra_input(data)
    h = alg.group.character(_require(data, "h", "$"))
    rep = dgxrep.dual_pairing(alg, h)
    ok = rep["is_morphism"] and rep["nondegenerate"]
    report = {"schema_version": SCHEMA_VERSION, "pairing": _stringify(rep)}
    return _emit(report, args, _verdict_exit(ok))


def _presentation_from_json(data):
    from . import smoothcheck
    if data.get("family") == "square_zero_extension":
        return smoothcheck.hochschild_extension_presentation(
            _require(data, "p", "$"), _require(data, "alpha", "$")
        )
    field = Field.from_json(_require(data, "field", "$"))
    ring = _require(data, "even_ring", "$")
    corrections = None
    raw_corr = data.get("corrections")
    if raw_corr is not None:
        corrections = {}
        for i, j, value in raw_corr:
            corrections[(i, j)] = value
    return smoothcheck.SuperAlgebraPresentation(
        field,
        tuple(ring.get("vars", ())),
        list(ring.get("relations", ())),
        tuple(data.get("odd", ())),
        tuple(data.get("nu", ())),
        corrections,
    )


def cmd_smooth(args):
    from . import smoothcheck
    pres = _presentation_from_json(_load(args.input))
    rep = smoothcheck.is_smooth(pres)
    report = {"schema_version": SCHEMA_VERSION, "smoothness": _stringify(rep.to_json())}
    return _emit(report, args, _verdict_exit(rep.smooth))


def cmd_regular(args):
    from . import smoothcheck
    pres = _presentation_from_json(_load(args.input))
    rep = smoothcheck.is_regular(pres)
    report = {"schema_version": SCHEMA_VERSION, "regularity": rep.to_json()}
    return _emit(report, args, _verdict_exit(bool(rep.regular)))


def cmd_hochschild(args):
    from . import smoothcheck
    res = smoothcheck.hochschild_ealpha(args.p, args.alpha)
    report = {"schema_version": SCHEMA_VERSION, **res.to_json()}
    return _emit(report, args, _verdict_exit(res.split))


def _stringify(obj):
    if isinstance(obj, dict):
        return {str(k): _stringify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_stringify(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    return str(obj)


# ---------------------------------------------------------------------------
# selftest: the curated worked-example suite


def cmd_selftest(args):
    from . import dgxrep, hcp, hopfcore, smoothcheck
    from .chargroup import GroupDescriptor, LieFunctional
    from .fields import GF, QQ
    results = []

    def check(name, flag):
        results.append({"check": name, "passed": bool(flag)})

    Q = QQ()
    F5 = GF(5)

    Gm = GroupDescriptor(1, ())
    Ga = GroupDescriptor(0, (), 1)
    mu4 = GroupDescriptor(0, (4,))

    alg = hopfcore.build_algebra(Q, Gm, Gm.identity(), LieFunctional(Gm, Q, free=[1]))
    check("hopf axioms over the multiplicative base",
          hopfcore.verify_hopf_axioms(alg, samples=40, seed=args.seed).passed)
    alg_a = hopfcore.build_algebra(Q, Ga, Ga.identity(), LieFunctional(Ga, Q, additive=[1]))
    check("hopf axioms over the additive base",
          hopfcore.verify_hopf_axioms(alg_a, samples=40, seed=args.seed).passed)
    check(
        "structure data rejected when the grouplike squares nontrivially",
        not hopfcore.validate_gx(Gm, Gm.character([1]), LieFunctional(Gm, Q, free=[1])).accepted,
    )

    def gx(lam, field):
        return hcp.GXData(field, Gm, Gm.identity(), LieFunctional(Gm, field, free=[lam]))

    check("classification: ratio 4 is a square", hcp.classify_iso(gx(1, Q), gx(4, Q))[0] == "isomorphic")
    check("classification: ratio 2 is not", hcp.classify_iso(gx(1, Q), gx(2, Q))[0] == "not_isomorphic")

    rep = hcp.splitting_counterexample(Q, 1, 1)
    check("counterexample family (1,1): nonsplit with additive radical",
          (not rep.splits) and rep.radical_is_additive_factor and rep.super_trigonalizable)
    rep = hcp.splitting_counterexample(Q, 0, 1)
    check("counterexample family (0,1): splits", rep.splits)

    d4 = hcp.GXData(Q, mu4, mu4.character([2]), LieFunctional.zero(mu4, Q))
    check("nilpotency requires a trivial grouplike", not hcp.is_nilpotent(d4))

    alg4 = hopfcore.build_algebra(F5, mu4, mu4.character([1]), LieFunctional.zero(mu4, F5))
    m = dgxrep.standard_object(alg4, dgxrep.IndecompLabel("L", (1,), False))
    soc, _ = dgxrep.socle(m)
    check("socle of a non-simple standard object is the expected line", soc.dim == 1)
    dim, _, _ = dgxrep.ext1(
        alg4,
        dgxrep.IndecompLabel("S", (1,), True),
        dgxrep.IndecompLabel("S", (0,), False),
    )
    check("unique extension between shift-adjacent lines", dim == 1)
    pairing = dgxrep.dual_pairing(alg4, mu4.character([1]))
    check("duality pairing is a nondegenerate morphism",
          pairing["is_morphism"] and pairing["nondegenerate"])

    check("square-zero extension splits for a divisible class",
          smoothcheck.hochschild_ealpha(3, "x").split)
    check("square-zero extension with unit class does not split",
          not smoothcheck.hochschild_ealpha(3, "1").split)
    mu5 = GroupDescriptor(0, (5,))
    a5 = hopfcore.build_algebra(F5, mu5, mu5.identity(), LieFunctional(mu5, F5, torsion=[1]))
    check("group algebra with p-torsion is not smooth",
          not smoothcheck.hopf_smooth_reduction(a5)["smooth"])

    passed = all(r["passed"] for r in results)
    report = {"schema_version": SCHEMA_VERSION, "passed": passed, "results": results}
    return _emit(report, args, _verdict_exit(passed))


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="superhopf",
        description=(
            "Exact computations with monomial Hopf superalgebras, "
            "Harish-Chandra pairs, their representation categories, and "
            "smoothness of super-commutative presentations."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--output", help="write the JSON report here instead of stdout")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        return p

    p = add("build-ggx", cmd_build_ggx, help="validate structure data and dump the algebra")
    p.add_argument("--input", required=True)

    p = add("verify-hopf", cmd_verify_hopf, help="run the Hopf axiom verifier")
    p.add_argument("--input", required=True)
    p.add_argument("--samples", type=int, default=200)

    for name, fn in [
        ("check-pair", cmd_check_pair),
        ("super-diag", cmd_super_diag),
        ("normal-chain", cmd_normal_chain),
    ]:
        p = add(name, fn)
        p.add_argument("--input", required=True)

    for name, fn in [("check-normal", cmd_check_normal), ("quotient", cmd_quotient)]:
        p = add(name, fn)
        p.add_argument("--input", required=True, help="JSON with 'pair' and 'sub'")

    p = add("iso-ggx", cmd_iso_ggx, help="classify two one-odd-dimension supergroups")
    p.add_argument("--input", required=True)

    for name, fn in [("nilpotency", cmd_nilpotency), ("center", cmd_center), ("thm64", cmd_thm64)]:
        p = add(name, fn)
        p.add_argument("--input", required=True)

    p = add("counterexample-71", cmd_counterexample_71,
            help="verdicts for the splitting counter-example family")
    p.add_argument("--field", default="Q")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)

    for name, fn in [("decompose", cmd_decompose), ("socle", cmd_socle)]:
        p = add(name, fn)
        p.add_argument("--input", required=True, help="JSON with 'algebra' and 'comodule'")

    p = add("ext1", cmd_ext1)
    p.add_argument("--input", required=True, help="JSON with 'algebra', 'S', 'T'")

    p = add("duality", cmd_duality)
    p.add_argument("--input", required=True, help="JSON with 'algebra' and 'h'")

    for name, fn in [("smooth", cmd_smooth), ("regular", cmd_regular)]:
        p = add(name, fn)
        p.add_argument("--input", required=True, help="presentation JSON")

    p = add("hochschild", cmd_hochschild, help="splitting of the square-zero extension family")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--alpha", required=True)

    add("selftest", cmd_selftest, help="run the curated worked-example suite")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ParseError as exc:
        print(json.dumps({"schema_version": SCHEMA_VERSION, "error": str(exc)}, indent=2))
        return 2
    except Exception as exc:
        print(
            json.dumps(
                {
                    "schema_version": SCHEMA_VERSION,
                    "error": f"{type(exc).__name__}: {exc}",
                },
                indent=2,
            )
        )
        return 2


if __name__ == "__main__":
    sys.exit(main())
