"""The lazy package: the same exports as eager imports, and no numpy for design commands."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mrpgen

ROOT = Path(__file__).resolve().parents[1]

# Every name the package exports, under the submodule that defines it.
EXPORTS = {
    "analytics": ("chi_square_uniformity", "fit_limb_count", "mrp_failure_bound",
                  "seg_failure_prob", "solve_p_r_max"),
    "costmodel": ("CostParams", "CostReport", "build_cost_report", "central_wiring_power",
                  "distributed_wiring_power", "per_axis_bandwidth_density",
                  "required_throughput"),
    "errors": ("DomainFailure", "FormatError", "GenerationFailure", "MrpgenError",
               "ParamsError", "RetryExhausted", "UnknownName"),
    "formats": ("load_params", "read_mrp", "save_params", "verify_mrp_file", "write_mrp"),
    "primes": ("CatalogFilter", "ModuliCatalog", "PrimeRecord", "enumerate_supported",
               "histogram", "hw_naf", "is_ntt_friendly", "is_prime",
               "sample_rejection_prob", "size_bucket"),
    "sampling": ("GenParams", "Limb", "MultiResiduePolynomial", "Permutation",
                 "RetryResult", "Segment", "client_generate_with_retry", "compute_threshold",
                 "generate_limb", "generate_mrp", "generate_segment", "permute",
                 "seed_source_from_rng"),
    "xof": ("Seed", "derive_polynomial_seed", "encode_domain_input", "encode_domain_inputs",
            "split_words", "xof_expand", "xof_expand_many"),
}
SUBMODULES = ("analytics", "cli", "costmodel", "errors", "formats", "keccak", "primes",
              "profiles", "sampling", "xof")
DESIGN_COMMANDS = (
    ["table1"],
    ["fit-table1", "--lmax", "64", "--no-len4-check"],
    ["enum-primes", "--n", "8", "--w", "20"],
    ["analyze", "--len", "32", "--nseg", "2048", "--L", "64", "--pr", "0.01"],
    ["cost", "--R", "64", "--w", "32", "--f", "1", "--gamma", "1/8", "--d", "15",
     "--E", "40"],
)


def _python(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True).stdout


@pytest.mark.parametrize("module,name", [(m, n) for m, names in EXPORTS.items()
                                         for n in names])
def test_export_is_the_submodule_object(module, name):
    assert getattr(mrpgen, name) is getattr(importlib.import_module(f"mrpgen.{module}"), name)
    assert name in mrpgen.__all__
    assert name in dir(mrpgen)


def test_all_lists_only_resolvable_names():
    assert mrpgen.__all__ == sorted(set(mrpgen.__all__))
    assert mrpgen.__all__ == sorted(n for names in EXPORTS.values() for n in names)
    for name in mrpgen.__all__:
        assert hasattr(mrpgen, name), name


def test_bare_import_reaches_every_submodule():
    got = _python("import mrpgen\n"
                  f"for name in {SUBMODULES!r}:\n"
                  "    assert getattr(mrpgen, name).__name__ == 'mrpgen.' + name, name\n"
                  "print('ok')")
    assert got.strip() == "ok"


def test_bare_import_loads_no_submodule():
    got = _python("import sys, mrpgen; print(sorted(m for m in sys.modules "
                  "if m.startswith('mrpgen') or m == 'numpy'))")
    assert got.strip() == "['mrpgen']"


def test_unknown_name_keeps_the_attribute_protocol():
    assert not hasattr(mrpgen, "nope")
    with pytest.raises(mrpgen.UnknownName) as err:
        mrpgen.nope
    assert isinstance(err.value, AttributeError)
    assert isinstance(err.value, mrpgen.ParamsError)
    with pytest.raises(ImportError):
        from mrpgen import nope  # noqa: F401


def test_analytics_loads_neither_numpy_nor_primes():
    got = _python("import sys, mrpgen.analytics\n"
                  "print(sorted(m for m in ('numpy', 'mrpgen.primes', 'mrpgen.sampling') "
                  "if m in sys.modules))")
    assert got.strip() == "[]"


def test_design_commands_never_load_numpy():
    got = _python("import contextlib, io, sys\n"
                  "from mrpgen import cli\n"
                  f"for argv in {DESIGN_COMMANDS!r}:\n"
                  "    with contextlib.redirect_stdout(io.StringIO()):\n"
                  "        assert cli.main(['--canonical', *argv]) == 0, argv\n"
                  "print('numpy' in sys.modules, 'datetime' in sys.modules)")
    assert got.strip() == "False False"


def test_catalog_and_analysis_commands_load_no_dataclasses():
    # fit-table1 runs its len-4 check, which enumerates the catalog; cost is
    # left out, because costmodel keeps its dataclasses
    commands = [["table1"], ["fit-table1", "--lmax", "64"], *DESIGN_COMMANDS[2:4]]
    got = _python("import contextlib, io, sys\n"
                  "from mrpgen import cli\n"
                  f"for argv in {commands!r}:\n"
                  "    with contextlib.redirect_stdout(io.StringIO()):\n"
                  "        assert cli.main(['--canonical', *argv]) == 0, argv\n"
                  "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    assert got.strip() == "[]"


def test_generator_commands_load_no_design_module(tmp_path):
    # numpy's own extension module imports datetime, so only the design
    # commands above can show that a canonical report does not
    mrpgen.save_params(mrpgen.GenParams(N=256, w=32, seg_len=32, n_seg=8,
                                        base=(7681, 10753)), tmp_path / "desk.params")
    out_file = tmp_path / "x.mrp"
    got = _python("import contextlib, io, json, sys\n"
                  "from mrpgen import cli\n"
                  "report = io.StringIO()\n"
                  "with contextlib.redirect_stdout(report):\n"
                  "    assert cli.main(['--canonical', '--format', 'json', 'retry-gen', "
                  f"'--params', {str(tmp_path / 'desk.params')!r}, "
                  f"'--out', {str(out_file)!r}]) == 0\n"
                  "seed = json.loads(report.getvalue())['result']['seed']\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  f"    assert cli.main(['--canonical', 'verify', '--mrp', {str(out_file)!r}, "
                  "'--seed', seed]) == 0\n"
                  "print(sorted(m for m in ('mrpgen.analytics', 'mrpgen.costmodel') "
                  "if m in sys.modules))")
    assert got.strip() == "[]"


def test_generator_modules_load_no_thread_pool_or_logging():
    got = _python("import sys\n"
                  "import mrpgen.sampling, mrpgen.formats\n"
                  "print(sorted(m for m in ('concurrent.futures', 'logging') "
                  "if m in sys.modules))")
    assert got.strip() == "[]"
