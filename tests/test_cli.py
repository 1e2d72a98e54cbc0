import json
import os
import random
import subprocess
import sys
import time

import pytest

import ordcopies

from ordcopies import (
    cs_full,
    cube_to_json,
    layered_to_json,
    LayeredSet,
    FinCof,
    parse_ordinal,
    poset_to_text,
    chain,
    antichain,
    poset_from_text,
)
from ordcopies import cli, verify
from ordcopies.cli import run
from ordcopies.verify import random_fusion_instance


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def write_json(tmp_path, name, obj):
    return write(tmp_path, name, json.dumps(obj))


class TestOrdCommands:
    def test_add(self):
        result = run(["ord", "add", "w+1", "w"])
        assert (result.exit_code, result.stdout, result.stderr) == (0, "w*2\n", "")

    def test_mul_pow_cmp(self):
        assert run(["ord", "mul", "2", "w"]).stdout == "w\n"
        assert run(["ord", "pow", "2", "w"]).stdout == "w\n"
        assert run(["ord", "cmp", "w", "w+1"]).stdout == "LT\n"
        assert run(["ord", "cmp", "w", "w"]).stdout == "EQ\n"

    def test_classify(self):
        result = run(["ord", "classify", "w^(2)+3"])
        assert result.exit_code == 0
        assert result.stdout == "kind: successor\nindecomposable: false\ngamma: w^(2)\nr: 3\n"
        assert run(["ord", "classify", "0"]).stdout == "kind: zero\nindecomposable: false\n"

    def test_parse_error_exits_2(self):
        result = run(["ord", "add", "w +", "w"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "error" in result.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["ord", "add", "\u00b2", "1"],  # SUPERSCRIPT TWO
            ["ord", "add", "\u0663", "1"],  # ARABIC-INDIC DIGIT THREE, int() reads it as 3
            pytest.param(
                ["ord", "add", "w*" + "1" * 5000, "1"],
                marks=pytest.mark.skipif(
                    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
                    reason="needs the default int-string limit",
                ),
            ),
            ["factorize", "w^(\u00b2)"],
        ],
    )
    def test_digits_outside_ascii_or_the_int_limit_exit_2(self, argv):
        result = run(argv)
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    @pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 4301,
        reason="needs the default int-string limit",
    )
    @pytest.mark.parametrize(
        "argv",
        [
            ["ord", "pow", "10", "4300"],
            ["ord", "mul", "7" + "0" * 2999, "3" + "0" * 2999],
            ["ord", "mul", "w*1" + "0" * 2999, "1" + "0" * 2999],
        ],
    )
    def test_a_result_past_the_int_limit_exits_1(self, argv):
        result = run(argv)
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == "error: a number of more than 4300 digits is too long to print\n"

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
        reason="needs the default int-string limit",
    )
    @pytest.mark.parametrize("exponent", ["99999999999", "w+99999999999"])
    def test_a_natural_power_past_the_int_limit_is_refused_before_it_is_computed(self, exponent):
        start = time.process_time()
        result = run(["ord", "pow", "9", exponent])
        elapsed = time.process_time() - start
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == "error: a number of more than 4300 digits is too long to print\n"
        assert elapsed < 0.1

    @pytest.mark.skipif(
        getattr(sys, "get_int_max_str_digits", lambda: 0)() != 4300,
        reason="needs the default int-string limit",
    )
    def test_a_natural_power_at_the_int_limit_prints(self):
        # 10^4299 has 4300 digits, the most the limit allows.
        result = run(["ord", "pow", "10", "4299"])
        assert (result.exit_code, result.stdout) == (0, "1" + "0" * 4299 + "\n")


class TestSetCommands:
    def test_type_of_full_dim2(self, tmp_path):
        path = write_json(tmp_path, "full_dim2.json", cube_to_json(cs_full(2)))
        result = run(["set", "type", "--file", path])
        assert (result.exit_code, result.stdout) == (0, "w^(2)\n")

    def test_member(self, tmp_path):
        path = write_json(tmp_path, "full.json", cube_to_json(cs_full(2)))
        assert run(["set", "member", "--file", path, "[3,5]"]).stdout == "true\n"

    def test_ideal(self, tmp_path):
        path = write_json(tmp_path, "full.json", cube_to_json(cs_full(2)))
        assert run(["set", "ideal", "--file", path]).stdout == "false\n"
        finite = {"dim": 1, "prefix": [1, 1], "cycle": [0]}
        path = write_json(tmp_path, "finite.json", finite)
        assert run(["set", "ideal", "--file", path]).stdout == "true\n"

    def test_select_and_copy(self, tmp_path):
        path = write_json(tmp_path, "full.json", cube_to_json(cs_full(2)))
        assert run(["set", "select", "--file", path, "w*2+3"]).stdout == "[2, 3]\n"
        assert run(["set", "copy", "--file", path, "w^(2)"]).stdout == "true\n"

    @pytest.mark.skipif(
        not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
        reason="needs the default int-string limit",
    )
    def test_select_past_the_int_limit_exits_1(self, tmp_path):
        # The index is within the digit cap; the selected coordinate, about
        # three times the index on a set with one member in three, is not.
        limit = sys.get_int_max_str_digits()
        path = write_json(tmp_path, "thirds.json", {"dim": 1, "prefix": [], "cycle": [1, 0, 0]})
        result = run(["set", "select", "--file", path, "9" * limit])
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == f"error: a number of more than {limit} digits is too long to print\n"

    def test_domain_error_exits_1(self, tmp_path):
        path = write_json(tmp_path, "empty.json", {"dim": 1, "prefix": [], "cycle": [0]})
        result = run(["set", "select", "--file", path, "0"])
        assert result.exit_code == 1
        assert result.stdout == ""

    def test_bad_json_exits_2(self, tmp_path):
        path = write(tmp_path, "bad.json", "{not json")
        assert run(["set", "type", "--file", path]).exit_code == 2

    def test_boolean_dim_exits_2(self, tmp_path):
        path = write_json(tmp_path, "bool_dim.json", {"dim": True, "prefix": [], "cycle": [1]})
        result = run(["set", "type", "--file", path])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "error: dim must be a positive integer, got True\n"

    def test_missing_file_exits_2(self):
        result = run(["set", "type", "--file", "/nonexistent.json"])
        assert result.exit_code == 2
        assert result.stderr == "error: [Errno 2] No such file or directory: '/nonexistent.json'\n"

    def test_directory_exits_2(self, tmp_path):
        result = run(["set", "type", "--file", str(tmp_path)])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_non_utf8_file_exits_2(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"\xff\xfe2\n")
        for command in (["set", "type"], ["poset", "sq"]):
            result = run(command + ["--file", str(path)])
            assert (result.exit_code, result.stdout) == (2, "")
            assert result.stderr.startswith(f"error: {path}: ")
            assert result.stderr.count("\n") == 1

    def test_json_past_the_int_limit_or_nested_too_deep_exits_2(self, tmp_path):
        big = write(tmp_path, "big.json", '{"dim": 1, "prefix": [' + "1" * 5000 + '], "cycle": [0]}')
        deep = write(tmp_path, "deep.json", "[" * 1500 + "]" * 1500)
        for path in (big, deep):
            result = run(["set", "type", "--file", path])
            assert (result.exit_code, result.stdout) == (2, "")
            assert result.stderr.startswith(f"error: {path}: ")
            assert result.stderr.count("\n") == 1

    def test_point_past_the_int_limit_or_nested_too_deep_exits_2(self, tmp_path):
        path = write_json(tmp_path, "full.json", cube_to_json(cs_full(2)))
        for point in ("[" + "1" * 5000 + "]", "[" * 1500 + "]" * 1500):
            result = run(["set", "member", "--file", path, point])
            assert (result.exit_code, result.stdout) == (2, "")
            assert result.stderr.startswith("error: point: ")
            assert result.stderr.count("\n") == 1


class TestLayerCommands:
    def test_sset_supp_ideal_type(self, tmp_path):
        path = write_json(tmp_path, "full.json", layered_to_json(LayeredSet.full()))
        assert json.loads(run(["layer", "sset", "--file", path, "2"]).stdout) == {
            "kind": "cofinite",
            "exceptions": [0, 1],
        }
        assert json.loads(run(["layer", "supp", "--file", path]).stdout) == {
            "kind": "cofinite",
            "exceptions": [],
        }
        assert run(["layer", "ideal", "--file", path]).stdout == "false\n"
        assert run(["layer", "type", "--file", path]).stdout == "w^(w)\n"

    def test_subset(self, tmp_path):
        full = write_json(tmp_path, "full.json", layered_to_json(LayeredSet.full()))
        minus = write_json(
            tmp_path,
            "minus.json",
            layered_to_json(LayeredSet.make(["full", "empty"], "full")),
        )
        assert run(["layer", "subset", "--file", full, "--other", minus]).stdout == "true\n"

    def test_non_ascii_level_exits_2(self, tmp_path):
        path = write_json(tmp_path, "full.json", layered_to_json(LayeredSet.full()))
        result = run(["layer", "sset", "--file", path, "\u0663"])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "usage error: argument m: invalid int value: '\u0663'\n"
        result = run(["layer", "sset", "--file", path, "abc"])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "usage error: argument m: invalid int value: 'abc'\n"

    def test_fusion(self, tmp_path):
        full = write_json(tmp_path, "full.json", layered_to_json(LayeredSet.full()))
        index = write_json(tmp_path, "s.json", FinCof.cofinite(range(2)).to_json())
        result = run(["layer", "fusion", "--file", full, "--file", full, "--s", index])
        assert result.exit_code == 0
        assert json.loads(result.stdout) == {"prefix": ["empty", "empty"], "tail": "full"}

    def test_fusion_refuses_a_result_over_the_prefix_cap(self, tmp_path):
        full = write_json(tmp_path, "full.json", layered_to_json(LayeredSet.full()))
        index = write_json(tmp_path, "s.json", FinCof.cofinite([1, 3, 5, 7, 9, 11]).to_json())
        result = run(["layer", "fusion", "--file", full, "--s", index])
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == "error: prefix length 12 exceeds the cap 8\n"

    def test_fusion_refuses_a_long_prefix_before_building_it(self, tmp_path):
        full = write_json(tmp_path, "full.json", layered_to_json(LayeredSet.full()))
        index = write_json(tmp_path, "s.json", {"kind": "cofinite", "exceptions": [2000000]})
        start = time.process_time()
        result = run(["layer", "fusion", "--file", full, "--s", index])
        elapsed = time.process_time() - start
        assert (result.exit_code, result.stdout) == (1, "")
        assert result.stderr == "error: prefix length 2000001 exceeds the cap 8\n"
        assert elapsed < 0.5

    def test_fusion_output_reads_back(self, tmp_path):
        rng = random.Random("fusion-round-trip")
        for k in range(50):
            sets, index = random_fusion_instance(rng)
            files = []
            for n, a in enumerate(sets):
                files += ["--file", write_json(tmp_path, f"a{k}_{n}.json", layered_to_json(a))]
            index_json = index.to_json() if isinstance(index, FinCof) else cube_to_json(index)
            s = write_json(tmp_path, f"s{k}.json", index_json)
            fused = run(["layer", "fusion", *files, "--s", s])
            assert fused.exit_code == 0, fused.stderr
            out = write(tmp_path, f"out{k}.json", fused.stdout)
            result = run(["layer", "type", "--file", out])
            assert result.exit_code == 0, result.stderr

    def test_unhashable_exception_exits_2(self, tmp_path):
        full = write_json(tmp_path, "full.json", layered_to_json(LayeredSet.full()))
        for exceptions in ([[1]], [{"a": 1}]):
            index = write_json(tmp_path, "s.json", {"kind": "cofinite", "exceptions": exceptions})
            result = run(["layer", "fusion", "--file", full, "--s", index])
            assert (result.exit_code, result.stdout) == (2, "")
            assert result.stderr == f"error: exceptions must be naturals, got {exceptions[0]!r}\n"

    def test_tail_outside_the_schema_exits_2(self, tmp_path):
        for tail in (5, None, 1.5, True, [True], [], [["full"]]):
            path = write_json(tmp_path, "a.json", {"prefix": [], "tail": tail})
            result = run(["layer", "type", "--file", path])
            assert (result.exit_code, result.stdout) == (2, ""), tail
            assert result.stderr == "error: tail must be empty/full or a pattern of them\n"

    def test_fusion_precondition_exits_1(self, tmp_path):
        full = write_json(tmp_path, "full.json", layered_to_json(LayeredSet.full()))
        finite = write_json(tmp_path, "s.json", FinCof.finite({1}).to_json())
        result = run(["layer", "fusion", "--file", full, "--s", finite])
        assert result.exit_code == 1


class TestPosetCommands:
    def test_sm_of_chain(self, tmp_path):
        path = write(tmp_path, "chain.txt", poset_to_text(chain(3)))
        result = run(["poset", "sm", "--file", path])
        assert (result.exit_code, result.stdout) == (0, "3\n111\n111\n111\n")

    def test_sq_of_chain(self, tmp_path):
        path = write(tmp_path, "chain.txt", poset_to_text(chain(3)))
        result = run(["poset", "sq", "--file", path])
        assert result.exit_code == 0
        assert poset_from_text(result.stdout).size == 1

    def test_sep(self, tmp_path):
        path = write(tmp_path, "anti.txt", poset_to_text(antichain(2)))
        assert run(["poset", "sep", "--file", path]).stdout == "true\n"

    def test_product_and_iso(self, tmp_path):
        a = write(tmp_path, "a.txt", poset_to_text(antichain(2)))
        b = write(tmp_path, "b.txt", poset_to_text(antichain(2)))
        product = run(["poset", "product", "--file", a, "--other", b])
        assert poset_from_text(product.stdout) == antichain(4)
        iso = run(["poset", "iso", "--file", a, "--other", b])
        assert iso.stdout.strip() in ("0 1", "1 0")
        c = write(tmp_path, "c.txt", poset_to_text(chain(2)))
        assert run(["poset", "iso", "--file", a, "--other", c]).stdout == "none\n"

    def test_bad_format_exits_2(self, tmp_path):
        path = write(tmp_path, "bad.txt", "2\n11\n")
        assert run(["poset", "sq", "--file", path]).exit_code == 2

    def test_non_ascii_size_exits_2(self, tmp_path):
        path = tmp_path / "arabic.txt"
        path.write_bytes("\u0663\n100\n010\n001\n".encode("utf-8"))
        result = run(["poset", "sep", "--file", str(path)])
        assert (result.exit_code, result.stdout) == (2, "")
        assert result.stderr == "error: first line must be the size, got '\u0663'\n"


class TestFactorizeCommand:
    def test_text_output(self):
        result = run(["factorize", "w^(2)"])
        assert (result.exit_code, result.stdout) == (0, "(rp(P(w)/fin))^+\n")

    def test_formats(self):
        assert run(["factorize", "--format", "latex", "w"]).stdout == "(P(\\omega)/\\mathrm{Fin})^+\n"
        doc = json.loads(run(["factorize", "--format", "json", "w"]).stdout)
        assert doc == {"kind": "positive", "inner": {"kind": "quotient", "gamma": "1"}}

    def test_iterate(self):
        result = run(["factorize", "--iterate", "w*2"])
        assert result.stdout == "(P(w)/fin)^+ * ω₁-closed separative atomless π\n"

    def test_finite_alpha_exits_1(self):
        assert run(["factorize", "5"]).exit_code == 1


class TestVerifyCommand:
    def test_single_suite(self):
        result = run(["verify", "--suite", "factorizer"])
        assert result.exit_code == 0
        assert "ok   factorizer.goldens" in result.stdout
        assert result.stdout.endswith("all checks passed\n")

    def test_unknown_suite_exits_2(self):
        assert run(["verify", "--suite", "nonsense"]).exit_code == 2

    def test_suite_names_match_the_suites(self):
        assert cli.SUITE_NAMES == tuple(sorted(verify.SUITES))


class TestDispatch:
    def test_unknown_command_exits_2(self):
        result = run(["frobnicate"])
        assert result.exit_code == 2
        assert result.stdout == ""

    def test_printed_ordinals_reparse(self, tmp_path):
        outputs = [
            run(["ord", "add", "w^(2)*2+w", "w*4+1"]).stdout,
            run(["ord", "mul", "w+3", "w^(2)+2"]).stdout,
            run(["ord", "pow", "w+1", "3"]).stdout,
        ]
        path = write_json(tmp_path, "full.json", cube_to_json(cs_full(3)))
        outputs.append(run(["set", "type", "--file", path]).stdout)
        for text in outputs:
            parse_ordinal(text.strip())


# A fresh interpreter runs one command and prints the modules it loaded.
_FOOTPRINT = """
import json, sys
from ordcopies.cli import main
status = main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)))
sys.exit(status)
"""


def _loaded_modules(code, *argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(ordcopies.__file__)))
    done = subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, check=True
    )
    return set(json.loads(done.stdout.splitlines()[-1]))


class TestImportFootprint:
    """Each command loads only the modules it needs; only `poset` loads numpy."""

    def test_bare_import_loads_no_submodule(self):
        code = "import json, sys, ordcopies; print(json.dumps(sorted(sys.modules)))"
        loaded = _loaded_modules(code)
        assert "ordcopies" in loaded
        assert not [name for name in loaded if name.startswith("ordcopies.")]
        assert "numpy" not in loaded

    @pytest.mark.parametrize(
        "command, modules",
        [
            (["ord", "add", "w+1", "w"], {"ordinals"}),
            (["factorize", "w^(2)"], {"ordinals", "forcing"}),
            (["set", "type", "--file", "{cube}"], {"ordinals", "config", "cubesets"}),
            (["layer", "type", "--file", "{layered}"], {"ordinals", "config", "cubesets", "layered"}),
        ],
    )
    def test_command_loads_neither_numpy_nor_verify(self, tmp_path, command, modules):
        files = {
            "cube": write_json(tmp_path, "full.json", cube_to_json(cs_full(2))),
            "layered": write_json(tmp_path, "layered.json", layered_to_json(LayeredSet.full())),
        }
        loaded = _loaded_modules(_FOOTPRINT, *(arg.format(**files) for arg in command))
        assert "numpy" not in loaded
        assert "ordcopies.verify" not in loaded
        expected = {"ordcopies", "ordcopies.cli", "ordcopies.errors"}
        expected |= {f"ordcopies.{name}" for name in modules}
        assert {name for name in loaded if name.startswith("ordcopies")} == expected

    def test_poset_still_loads_numpy(self, tmp_path):
        path = write(tmp_path, "chain.txt", poset_to_text(chain(3)))
        loaded = _loaded_modules(_FOOTPRINT, "poset", "sq", "--file", path)
        assert "numpy" in loaded
        assert "ordcopies.verify" not in loaded
