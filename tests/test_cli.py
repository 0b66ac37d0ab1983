import json

from superhopf.cli import main

MU4_GGX = {
    "field": {"kind": "Q"},
    "group": {"free_rank": 0, "torsion": [4], "additive_rank": 0},
    "g": [2],
    "x": {"free": [], "torsion": ["0"], "additive": []},
}

MU5_GGX = {
    "field": {"kind": "Fp", "p": 5},
    "group": {"free_rank": 0, "torsion": [5], "additive_rank": 0},
    "g": [0],
    "x": {"free": [], "torsion": ["1"], "additive": []},
}

PAIR_72 = {
    "field": {"kind": "Q"},
    "base": {"free_rank": 1, "torsion": [], "additive_rank": 0},
    "V": [{"weight": [0], "parity": "odd"}, {"weight": [0], "parity": "odd"}],
    "bracket": [[0, 1, {"free": ["1"], "torsion": [], "additive": []}]],
}


def run(tmp_path, capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_build_ggx_accept_and_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "ggx.json", MU4_GGX)
    code, report = run(tmp_path, capsys, ["build-ggx", "--input", path])
    assert code == 0
    assert report["validation"]["accepted"]
    # re-parse the emitted input block and rebuild: identical structure
    path2 = write(tmp_path, "ggx2.json", report["input"])
    code2, report2 = run(tmp_path, capsys, ["build-ggx", "--input", path2])
    assert code2 == 0
    assert report2["algebra"] == report["algebra"]


def test_build_ggx_reject(tmp_path, capsys):
    bad = dict(MU4_GGX)
    bad["g"] = [1]
    bad["x"] = {"free": [], "torsion": ["0"], "additive": []}
    # nonzero x needed for rejection; mu4 over Q forces zero torsion values,
    # so use the multiplicative base instead
    bad = {
        "field": {"kind": "Q"},
        "group": {"free_rank": 1, "torsion": [], "additive_rank": 0},
        "g": [1],
        "x": {"free": ["1"], "torsion": [], "additive": []},
    }
    path = write(tmp_path, "bad.json", bad)
    code, report = run(tmp_path, capsys, ["build-ggx", "--input", path])
    assert code == 1
    assert not report["validation"]["accepted"]


def test_verify_hopf(tmp_path, capsys):
    path = write(tmp_path, "ggx.json", MU5_GGX)
    code, report = run(tmp_path, capsys, ["verify-hopf", "--input", path, "--samples", "40"])
    assert code == 0
    assert report["axioms"]["passed"]
    assert report["pairing_xg_zero"]


def test_check_pair_and_super_diag(tmp_path, capsys):
    path = write(tmp_path, "pair.json", PAIR_72)
    code, report = run(tmp_path, capsys, ["check-pair", "--input", path])
    assert code == 0 and report["check"]["accepted"]
    code, report = run(tmp_path, capsys, ["super-diag", "--input", path])
    assert code == 0 and report["super_diagonalizable"]


def test_check_normal_and_quotient(tmp_path, capsys):
    pair_71 = {
        "field": {"kind": "Q"},
        "base": {"free_rank": 1, "torsion": [], "additive_rank": 1},
        "V": [{"weight": [0], "parity": "odd"}],
        "bracket": [[0, 0, {"free": ["2"], "torsion": [], "additive": ["2"]}]],
    }
    payload = {
        "pair": pair_71,
        "sub": {"ga_factors": [0], "annihilator": [[1]], "vectors": []},
    }
    path = write(tmp_path, "sub.json", payload)
    code, report = run(tmp_path, capsys, ["check-normal", "--input", path])
    assert code == 0 and report["normal"]["accepted"]
    code, report = run(tmp_path, capsys, ["quotient", "--input", path])
    assert code == 0
    assert report["quotient_is_pair"]
    assert report["quotient"]["base"] == {"free_rank": 1, "torsion": [], "additive_rank": 0}


def test_normal_chain(tmp_path, capsys):
    pair = {
        "field": {"kind": "Q"},
        "base": {"free_rank": 1, "torsion": [], "additive_rank": 0},
        "V": [{"weight": [0], "parity": "odd"}],
        "bracket": [[0, 0, {"free": ["2"], "torsion": [], "additive": []}]],
    }
    path = write(tmp_path, "pair.json", pair)
    code, report = run(tmp_path, capsys, ["normal-chain", "--input", path])
    assert code == 0
    assert [f["kind"] for f in report["chain"]["factors"]] == ["Ga_minus"]


def test_iso_ggx_exit_codes(tmp_path, capsys):
    base = {
        "field": {"kind": "Q"},
        "group": {"free_rank": 1, "torsion": [], "additive_rank": 0},
        "g1": [0],
        "x1": {"free": ["1"], "torsion": [], "additive": []},
        "g2": [0],
        "x2": {"free": ["4"], "torsion": [], "additive": []},
    }
    path = write(tmp_path, "iso.json", base)
    code, report = run(tmp_path, capsys, ["iso-ggx", "--input", path])
    assert code == 0 and report["verdict"] == "isomorphic" and report["alpha"] == "1/2"
    base["x2"] = {"free": ["2"], "torsion": [], "additive": []}
    path = write(tmp_path, "iso2.json", base)
    code, report = run(tmp_path, capsys, ["iso-ggx", "--input", path])
    assert code == 1 and report["verdict"] == "not_isomorphic"


def test_nilpotency_center_conditions(tmp_path, capsys):
    path = write(tmp_path, "ggx.json", MU4_GGX)
    code, report = run(tmp_path, capsys, ["nilpotency", "--input", path])
    assert code == 1 and not report["nilpotent"]
    code, report = run(tmp_path, capsys, ["center", "--input", path])
    assert code == 0
    assert report["center_even"]["kernel_of_g"]["torsion"] == [2]
    code, report = run(tmp_path, capsys, ["thm64", "--input", path])
    assert code == 1
    nil = dict(MU4_GGX)
    nil["g"] = [0]
    path = write(tmp_path, "nil.json", nil)
    code, report = run(tmp_path, capsys, ["nilpotency", "--input", path])
    assert code == 0 and report["nilpotent"]
    code, report = run(tmp_path, capsys, ["thm64", "--input", path])
    assert code == 0


def test_counterexample_71_shell_contract(tmp_path, capsys):
    code, report = run(tmp_path, capsys,
                       ["counterexample-71", "--field", "Q", "--alpha", "1", "--beta", "1"])
    assert code == 1  # exit keyed on the splits verdict
    assert report["splits"] is False
    assert report["radical_is_Ga"] is True
    assert report["super_trigonalizable_but_nonsplit"] is True
    code, report = run(tmp_path, capsys,
                       ["counterexample-71", "--field", "Fp:5", "--alpha", "0", "--beta", "1"])
    assert code == 0 and report["splits"] is True


def _comodule_payload():
    return {
        "algebra": MU5_GGX,
        "comodule": {
            "dims": {"even": 1, "odd": 1},
            "coaction": [
                [0, [[0, "1", [1], 0], [1, "1", [1], 1]]],
                [1, [[0, "1", [1], 1], [1, "1", [1], 0]]],
            ],
        },
    }


def test_decompose_socle_roundtrip(tmp_path, capsys):
    path = write(tmp_path, "com.json", _comodule_payload())
    code, report = run(tmp_path, capsys, ["decompose", "--input", path])
    assert code == 0
    assert report["decomposition"]["label_multiset"] == ["L(1)"]
    code, report = run(tmp_path, capsys, ["socle", "--input", path])
    assert code == 0 and report["socle_dim"] == 2


def test_ext1_and_duality(tmp_path, capsys):
    payload = {
        "algebra": MU4_GGX,
        "S": {"kind": "S", "char": [3], "shifted": True},
        "T": {"kind": "S", "char": [1], "shifted": False},
    }
    path = write(tmp_path, "ext.json", payload)
    code, report = run(tmp_path, capsys, ["ext1", "--input", path])
    assert code == 0 and report["dimension"] == 1
    assert report["representative_label"] == {"kind": "L", "char": [1], "shifted": False}
    dual = {"algebra": MU4_GGX, "h": [1]}
    path = write(tmp_path, "dual.json", dual)
    code, report = run(tmp_path, capsys, ["duality", "--input", path])
    assert code == 0 and report["pairing"]["is_morphism"]


def test_smooth_and_regular(tmp_path, capsys):
    pres = {
        "field": {"kind": "Q"},
        "even_ring": {"vars": ["t"], "relations": ["t^2"]},
        "odd": ["z"],
    }
    path = write(tmp_path, "pres.json", pres)
    code, report = run(tmp_path, capsys, ["smooth", "--input", path])
    assert code == 1 and not report["smoothness"]["smooth"]
    code, report = run(tmp_path, capsys, ["regular", "--input", path])
    assert code == 1 and report["regularity"]["regular"] is False
    family = {"family": "square_zero_extension", "p": 3, "alpha": "x"}
    path = write(tmp_path, "fam.json", family)
    code, report = run(tmp_path, capsys, ["regular", "--input", path])
    assert code == 0 and report["regularity"]["regular"] is True


def test_hochschild_cli(tmp_path, capsys):
    code, report = run(tmp_path, capsys, ["hochschild", "--p", "3", "--alpha", "x"])
    assert code == 0 and report["split"] and report["section_verified"]
    code, report = run(tmp_path, capsys, ["hochschild", "--p", "3", "--alpha", "1"])
    assert code == 1 and not report["split"]


def test_hochschild_alpha_field_constants_cli(tmp_path, capsys):
    """--alpha may divide by a field constant or invert one: x/2 reports as
    2^-1*x and 2*x over F_3(t), t^-1*x as x/t; x/y and x^-1 still exit 2."""
    reports = {}
    for alpha in ("x/2", "2^-1*x", "2*x", "t^-1*x", "x/t"):
        code, reports[alpha] = run(tmp_path, capsys, ["hochschild", "--p", "3", "--alpha", alpha])
        assert code == 0 and reports[alpha]["split"] and reports[alpha]["section_verified"]
    assert reports["x/2"] == reports["2^-1*x"] == reports["2*x"]
    assert reports["t^-1*x"] == reports["x/t"] != reports["x/2"]
    for alpha in ("x/y", "x^-1"):
        code, report = run(tmp_path, capsys, ["hochschild", "--p", "3", "--alpha", alpha])
        assert code == 2 and report["error"].startswith("Unsupported")


def test_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, report = run(tmp_path, capsys, ["verify-hopf", "--input", str(path)])
    assert code == 2 and "invalid JSON" in report["error"]
    missing = write(tmp_path, "missing_key.json", {"pair": PAIR_72})
    code, report = run(tmp_path, capsys, ["check-normal", "--input", missing])
    assert code == 2 and "$.sub" in report["error"]
    code, report = run(tmp_path, capsys,
                       ["counterexample-71", "--field", "Fp:4", "--alpha", "0", "--beta", "0"])
    assert code == 2


def test_malformed_input_exit_2(tmp_path, capsys):
    bad_g = write(tmp_path, "bad_g.json", dict(MU4_GGX, g=[2, 5]))
    code, report = run(tmp_path, capsys, ["build-ggx", "--input", bad_g])
    assert code == 2 and "GroupMismatch" in report["error"]
    not_object = write(tmp_path, "list.json", [1, 2])
    code, report = run(tmp_path, capsys, ["smooth", "--input", not_object])
    assert code == 2 and "JSON object" in report["error"]
    bad_relation = write(tmp_path, "rel.json", {"field": {"kind": "Q"},
                                                 "even_ring": {"vars": ["t"], "relations": ["t^^2"]},
                                                 "odd": ["z"]})
    code, report = run(tmp_path, capsys, ["smooth", "--input", bad_relation])
    assert code == 2 and report["error"].startswith("ExprError")
    payload = _comodule_payload()
    payload["comodule"]["coaction"][0][1][0][0] = 99
    bad_target = write(tmp_path, "target.json", payload)
    code, report = run(tmp_path, capsys, ["decompose", "--input", bad_target])
    assert code == 2 and report["error"].startswith("InvalidLabel")
    no_char = write(tmp_path, "nochar.json", {"algebra": MU4_GGX, "S": {"kind": "S"},
                                              "T": {"kind": "S", "char": [1]}})
    code, report = run(tmp_path, capsys, ["ext1", "--input", no_char])
    assert code == 2 and report["error"].startswith("KeyError")
    ggx = write(tmp_path, "ggx.json", MU4_GGX)
    code, report = run(tmp_path, capsys, ["verify-hopf", "--input", ggx, "--samples", "-7"])
    assert code == 2 and report["error"].startswith("ValueError")


def test_negative_exponent_exit_2(tmp_path, capsys):
    """x^-1 is refused, not read as x^0 = 1."""
    pres = write(tmp_path, "pres.json", {"field": {"kind": "Q"},
                                         "even_ring": {"vars": ["x"], "relations": ["x^2 - x^-1"]},
                                         "odd": ["z"]})
    code, report = run(tmp_path, capsys, ["smooth", "--input", pres])
    assert code == 2 and report["error"].startswith("Unsupported")
    code, report = run(tmp_path, capsys, ["hochschild", "--p", "3", "--alpha", "x^-1"])
    assert code == 2 and report["error"].startswith("Unsupported")


def test_json_index_out_of_range_or_repeated_exit_2(tmp_path, capsys):
    """A negative or repeated index must not alias another entry."""
    cases = []
    for row, target in ((-1, None), (0, None), (2, None), (1, -1), (1, 2)):
        payload = _comodule_payload()
        entry = payload["comodule"]["coaction"][1]
        entry[0] = row
        if target is not None:
            entry[1][0][0] = target
        cases.append(("socle", "InvalidLabel", payload))
    for i, j in ((0, -1), (-2, 1), (0, 2)):
        pair = json.loads(json.dumps(PAIR_72))
        pair["bracket"][0][:2] = [i, j]
        cases.append(("check-pair", "InvalidSubPair", pair))
    for command, error, payload in cases:
        path = write(tmp_path, "bad.json", payload)
        code, report = run(tmp_path, capsys, [command, "--input", path])
        assert code == 2 and report["error"].startswith(error), payload


def test_selftest_and_determinism(tmp_path, capsys):
    code, first = run(tmp_path, capsys, ["selftest", "--seed", "7"])
    assert code == 0 and first["passed"]
    code, second = run(tmp_path, capsys, ["selftest", "--seed", "7"])
    assert first == second


def test_output_file_byte_identical(tmp_path, capsys):
    path = write(tmp_path, "ggx.json", MU5_GGX)
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify-hopf", "--input", path, "--samples", "30",
                 "--seed", "3", "--output", str(out1)]) == 0
    assert main(["verify-hopf", "--input", path, "--samples", "30",
                 "--seed", "3", "--output", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
