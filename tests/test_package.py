import importlib
import json
import os
import pathlib
import subprocess
import sys
import warnings

import pytest

import superhopf

PACKAGE_DIR = pathlib.Path(superhopf.__file__).parent
SOURCES = sorted(PACKAGE_DIR.glob("*.py"))
ROOT = pathlib.Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "perfbench" / "golden" / "manifest.json").read_text())
GOLDEN = {case["name"]: case for case in MANIFEST}

# every public name of the package, by the submodule that defines it
EXPORTS = {
    "fields": ["Field", "FieldElement", "FunctionField", "GF", "QQ", "QuadraticField"],
    "chargroup": ["Character", "GroupDescriptor", "LieFunctional", "Subgroup", "subgroup_kernel"],
    "hopfcore": [
        "GXData", "MonomialHopfSuperalgebra", "build_algebra", "coradical", "find_grouplikes",
        "group_algebra", "validate_gx", "verify_hopf_axioms",
    ],
    "hcp": [
        "HarishChandraPair", "SubPair", "abelian_normal_form", "center_even", "check_normal",
        "check_pair", "classify_iso", "is_nilpotent", "nilpotency_conditions", "normal_chain",
        "quotient_pair", "splitting_counterexample", "super_diagonalizable",
        "unipotent_radical_trivial",
    ],
    "dgxrep": [
        "IndecompLabel", "Supercomodule", "decompose", "dual_pairing", "ext1", "socle",
        "standard_object",
    ],
    "smoothcheck": [
        "SuperAlgebraPresentation", "compute_gr", "hochschild_ealpha", "hopf_smooth_reduction",
        "is_regular", "is_smooth",
    ],
}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_sources_compile_without_warnings(path):
    """Invalid escape sequences warn on import and fail under `python -W error`."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compile(path.read_text(), str(path), "exec")


def test_package_exports_every_public_name():
    names = [name for names in EXPORTS.values() for name in names]
    assert len(names) == 46
    assert sorted(superhopf.__all__) == sorted(names)


def test_exports_are_the_submodule_objects():
    for module, names in EXPORTS.items():
        sub = importlib.import_module(f"superhopf.{module}")
        for name in names:
            assert getattr(superhopf, name) is getattr(sub, name), name


def test_unknown_name_is_missing():
    assert not hasattr(superhopf, "does_not_exist")
    with pytest.raises(ImportError):
        from superhopf import does_not_exist  # noqa: F401


def _loaded_submodules(code):
    """The superhopf submodules a fresh interpreter has loaded after running `code`."""
    report = "import sys; print(*(m for m in sys.modules if m.startswith('superhopf.')))"
    path = [str(PACKAGE_DIR.parent), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run([sys.executable, "-c", f"{code}\n{report}"], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True).stdout
    return set(out.split())


def _cli_run(name):
    return ("import contextlib, io\nfrom superhopf.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({GOLDEN[name]['argv']!r}) == {GOLDEN[name]['exit_code']}\n")


def test_bare_import_loads_no_submodule():
    assert _loaded_submodules("import superhopf") == set()


def test_smooth_loads_only_what_it_calls():
    assert _loaded_submodules(_cli_run("smooth")) == {
        "superhopf._expr", "superhopf.cli", "superhopf.fields", "superhopf.smoothcheck"}


def test_check_pair_skips_comodules_and_smoothness():
    loaded = _loaded_submodules(_cli_run("check-pair"))
    assert "superhopf.hcp" in loaded
    assert not loaded & {"superhopf.dgxrep", "superhopf.smoothcheck"}


@pytest.mark.parametrize("name", ["build-ggx", "verify-hopf", "decompose", "socle", "ext1",
                                  "duality"])
def test_structure_data_commands_skip_pairs(name):
    """These commands read structure data (`GXData`) but call no pair verdict."""
    assert "superhopf.hcp" not in _loaded_submodules(_cli_run(name))
