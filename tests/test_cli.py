import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import shutil
import struct
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import numpy as np
from conftest import ntt_primes
from mrpgen import (GenerationFailure, GenParams, Permutation, Seed, analytics, cli, formats,
                    generate_mrp, profiles, read_mrp, sampling, save_params, write_mrp)
from mrpgen.cli import main
from schedules import caller_waits_for_helper, dying_helper, within

SRC = Path(__file__).resolve().parents[1] / "src"

ZERO_SEED = "0" * 72
ANALYZE = ["analyze", "--len", "4", "--nseg", "8", "--L", "2", "--pr", "0.1"]
ENUM_PRIMES = ["enum-primes", "--n", "3", "--w", "7"]
COST = ["cost", "--R", "16", "--w", "32", "--f", "1", "--gamma", "1/8", "--d", "15",
        "--E", "40"]


@pytest.fixture
def params_file(tmp_path, desk_params):
    path = tmp_path / "desk.params"
    save_params(desk_params, path)
    return path


@pytest.fixture
def hard_params_file(tmp_path):
    # q just above 2^31 rejects about half the words: 32 of 42 almost never pass
    q = ntt_primes(64, 1, q_min=2 ** 31, q_max=2 ** 32)[0]
    path = tmp_path / "hard.params"
    save_params(GenParams(N=64, w=32, seg_len=32, n_seg=2, base=(q,)), path)
    return path, q


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerateCommands:
    def test_gen_mrp_then_verify(self, capsys, tmp_path, params_file):
        out_file = tmp_path / "p.mrp"
        code, out, _ = run(capsys, "gen-mrp", "--seed", ZERO_SEED,
                           "--params", params_file, "--out", out_file)
        assert code == 0 and out_file.exists()
        code, out, _ = run(capsys, "verify", "--mrp", out_file, "--seed", ZERO_SEED)
        assert code == 0
        assert "match = True" in out

    def test_verify_mismatch_exits_one(self, capsys, tmp_path, params_file):
        out_file = tmp_path / "p.mrp"
        run(capsys, "gen-mrp", "--seed", ZERO_SEED, "--params", params_file,
            "--out", out_file)
        blob = bytearray(out_file.read_bytes())
        blob[-1] ^= 1
        out_file.write_bytes(bytes(blob))
        code, out, err = run(capsys, "verify", "--mrp", out_file, "--seed", ZERO_SEED)
        assert code == 1
        assert "match = False" in out
        assert "code=verify-mismatch" in err

    def test_gen_limb_matches_mrp_digest(self, capsys, params_file):
        code, out, _ = run(capsys, "--format", "json", "gen-mrp",
                           "--seed", ZERO_SEED, "--params", params_file)
        mrp_digests = json.loads(out)["result"]["limb_sha256"]
        code, out, _ = run(capsys, "--format", "json", "gen-limb",
                           "--seed", ZERO_SEED, "--params", params_file, "--q", "7681")
        limb = json.loads(out)["result"]
        assert code == 0
        assert limb["sha256"] == mrp_digests["7681"]

    def test_gen_limb_forks_no_row_helper(self, capsys, split, params_file):
        # one limb cannot pay for the row helper's fork
        code, out, _ = run(capsys, "--format", "json", "gen-limb",
                           "--seed", ZERO_SEED, "--params", params_file, "--q", "7681")
        assert code == 0 and sampling._helper is None

    def test_gen_seg_reports_words(self, capsys, params_file):
        code, out, _ = run(capsys, "--format", "json", "gen-seg",
                           "--seed", ZERO_SEED, "--params", params_file,
                           "--q", "7681", "--id", "0")
        result = json.loads(out)["result"]
        assert code == 0
        assert result["complete"] is True
        assert len(result["values"]) == 32

    def test_gen_seg_short_exits_one(self, capsys, hard_params_file):
        path, q = hard_params_file
        code, out, err = run(capsys, "gen-seg", "--seed", ZERO_SEED,
                             "--params", path, "--q", str(q), "--id", "0")
        assert code == 1
        assert "code=generation-failure" in err
        assert f"q={q}" in err

    def test_gen_limb_failure_names_segment(self, capsys, hard_params_file):
        path, q = hard_params_file
        code, _, err = run(capsys, "gen-limb", "--seed", ZERO_SEED,
                           "--params", path, "--q", str(q))
        assert code == 1
        assert "code=generation-failure" in err and "id_seg=" in err

    def test_retry_gen_is_replayable(self, capsys, params_file):
        code, out1, _ = run(capsys, "--canonical", "retry-gen", "--params",
                            params_file, "--rng-seed", "42")
        code2, out2, _ = run(capsys, "--canonical", "retry-gen", "--params",
                             params_file, "--rng-seed", "42")
        assert code == code2 == 0
        assert out1 == out2
        assert "attempts = 1" in out1

    def test_common_poly_id_seed_form(self, capsys, params_file):
        code, out, _ = run(capsys, "--format", "json", "gen-mrp",
                           "--common", "00" * 32, "--poly-id", "0",
                           "--params", params_file)
        assert code == 0
        assert json.loads(out)["result"]["seed"] == ZERO_SEED


class TestWriteAndHash:
    """gen-mrp and retry-gen hash each limb, and with --out write it at its
    offset, in the process that made it; verify preads each stored row."""

    @pytest.mark.parametrize("argv", [["gen-mrp", "--seed", ZERO_SEED], ["retry-gen"]],
                             ids=["gen-mrp", "retry-gen"])
    def test_summaries_are_the_rows_of_the_written_file(self, capsys, tmp_path, forked,
                                                        argv):
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=tuple(ntt_primes(256, 5)))
        save_params(params, tmp_path / "five.params")
        out_file = tmp_path / "out.mrp"
        code, out, err = run(capsys, "--format", "json", *argv,
                             "--params", tmp_path / "five.params", "--out", out_file)
        assert (code, err) == (0, "")
        assert len(forked) == 1
        assert threading.active_count() == 1
        stored, _ = read_mrp(out_file)
        assert json.loads(out)["result"]["limb_sha256"] == {
            str(q): hashlib.sha256(row.tobytes()).hexdigest()
            for q, row in zip(params.base, stored)}

    def test_no_command_builds_the_polynomial(self, capsys, tmp_path, monkeypatch, forked):
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=tuple(ntt_primes(256, 5)))
        save_params(params, tmp_path / "five.params")
        shapes, real = [], sampling._shared_array

        def shared_array(shape, dtype):
            shapes.append(shape)
            return real(shape, dtype)

        def no_read_mrp(path):
            raise AssertionError("verify read the whole container")

        monkeypatch.setattr(sampling, "_shared_array", shared_array)
        monkeypatch.setattr(formats, "read_mrp", no_read_mrp)
        common = ["--params", tmp_path / "five.params"]
        for argv in (["gen-mrp", "--seed", ZERO_SEED, *common, "--out", tmp_path / "g.mrp"],
                     ["retry-gen", *common, "--out", tmp_path / "r.mrp"],
                     ["retry-gen", *common],
                     ["verify", "--seed", ZERO_SEED, "--mrp", tmp_path / "g.mrp"]):
            del shapes[:]
            assert run(capsys, *argv)[0] == 0, argv
            assert (5, 256) not in shapes and shapes, (argv, shapes)
        assert len(forked) == 4

    @pytest.mark.parametrize("backend", ["shake128", "kangarootwelve"])
    @pytest.mark.parametrize("layout", ["identity", "reverse", "explicit"])
    def test_the_streamed_file_is_the_written_polynomial(self, capsys, tmp_path, monkeypatch,
                                                         forked, layout, backend):
        # the helper makes rows 4, 3 and 2 and dies; this process waits for
        # it, then makes rows 0 and 1
        mapping = {"identity": np.arange(256), "reverse": np.arange(256)[::-1],
                   "explicit": np.random.default_rng(7).permutation(256)}[layout]
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=tuple(ntt_primes(256, 5)),
                           layout=Permutation(mapping), backend=backend)
        save_params(params, tmp_path / "five.params")
        made_here = []
        monkeypatch.setattr(sampling, "generate_limb", dying_helper(3))
        monkeypatch.setattr(sampling, "generate_limb",
                            caller_waits_for_helper(forked, made_here))
        code, out, err = run(capsys, "--format", "json", "gen-mrp", "--seed", ZERO_SEED,
                             "--params", tmp_path / "five.params",
                             "--out", tmp_path / "streamed.mrp")
        assert (code, err) == (0, "")
        assert made_here == list(params.base[:2])
        mrp = generate_mrp(Seed(bytes(36)), params)
        write_mrp(tmp_path / "written.mrp", mrp, params)
        assert ((tmp_path / "streamed.mrp").read_bytes()
                == (tmp_path / "written.mrp").read_bytes())
        assert json.loads(out)["result"]["limb_sha256"] == {
            str(q): hashlib.sha256(row.astype("<u4").tobytes()).hexdigest()
            for q, row in zip(params.base, mrp.coeffs)}

    @staticmethod
    def _short_first_seed(tmp_path):
        # p_r near 1/2: 32 acceptances among 84 words fail about once in 70
        # segments, and the first seed of --rng-seed 23 has a short one
        params = GenParams(N=64, w=16, seg_len=32, n_seg=2,
                           base=tuple(ntt_primes(64, 5, q_min=1 << 15, q_max=1 << 16)))
        save_params(params, tmp_path / "prone.params")
        source = sampling.seed_source_from_rng(random.Random(23))
        with pytest.raises(GenerationFailure):
            generate_mrp(source(), params)
        return params, source()

    def test_a_retry_leaves_only_its_own_file(self, capsys, tmp_path, forked):
        params, second = self._short_first_seed(tmp_path)
        del forked[:]
        code, out, err = run(capsys, "--format", "json", "retry-gen", "--rng-seed", "23",
                             "--params", tmp_path / "prone.params",
                             "--out", tmp_path / "out.mrp")
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert (result["attempts"], result["seed"]) == (2, second.hex())
        assert len(forked) == 2
        write_mrp(tmp_path / "expected.mrp", generate_mrp(second, params), params)
        assert (tmp_path / "out.mrp").read_bytes() == (tmp_path / "expected.mrp").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "expected.mrp", "out.mrp", "prone.params"]

    def test_retry_exhaustion_keeps_the_old_out(self, capsys, tmp_path, forked):
        self._short_first_seed(tmp_path)
        del forked[:]
        (tmp_path / "out.mrp").write_bytes(b"old")
        code, out, err = run(capsys, "retry-gen", "--rng-seed", "23", "--max-attempts", "1",
                             "--params", tmp_path / "prone.params",
                             "--out", tmp_path / "out.mrp")
        assert (code, out) == (1, "")
        assert err.startswith("error code=retry-exhausted no valid seed found in 1 attempts")
        assert len(forked) == 1
        assert (tmp_path / "out.mrp").read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.mrp", "prone.params"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_a_failed_run_writes_nothing_to_a_fifo(self, capsys, tmp_path, hard_params_file):
        # every attempt fails: the reader gets EOF and no byte (an old regular
        # file is kept: test_retry_exhaustion_keeps_the_old_out)
        path, _ = hard_params_file
        fifo, got = tmp_path / "out.mrp", []
        os.mkfifo(fifo)
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        with within(30):
            code, out, err = run(capsys, "retry-gen", "--params", path,
                                 "--max-attempts", "2", "--out", fifo)
        reader.join(timeout=10)
        assert (code, out) == (1, "")
        assert err.startswith("error code=retry-exhausted no valid seed found in 2 attempts")
        assert not reader.is_alive() and got == [b""]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hard.params", "out.mrp"]


class TestExitWithoutCollection:
    """main() run as the program freezes the heap, so the interpreter's final
    collection skips it; main([...]) leaves gc as it found it."""

    @pytest.mark.parametrize("argv", [
        ["gen-mrp", "--seed", ZERO_SEED, "--params", "{params}", "--out", "{tmp}/x.mrp"],
        ["verify", "--seed", ZERO_SEED, "--mrp", "{tmp}/x.mrp"],
        ["gen-mrp", "--params", "{params}"],
        ["table1"],
    ], ids=["gen-mrp", "verify", "params-error", "table1"])
    def test_an_in_process_call_keeps_the_gc_state(self, capsys, tmp_path, params_file,
                                                   argv):
        run(capsys, "gen-mrp", "--seed", ZERO_SEED, "--params", params_file,
            "--out", tmp_path / "x.mrp")
        before = gc.get_freeze_count(), gc.isenabled()
        run(capsys, "--canonical", *(a.format(params=params_file, tmp=tmp_path) for a in argv))
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_the_program_freezes_the_heap_on_exit(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["mrpgen", "--canonical", "table1"])
        try:
            assert main() == 0
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert "all_match = True" in capsys.readouterr().out

    def test_every_written_file_is_closed(self, capsys, tmp_path, params_file):
        """With the heap frozen at exit, a file caught in a reference cycle is
        never finalized; -X dev reports an unclosed file as a ResourceWarning,
        made an error here."""
        commands = {
            "gen-mrp.mrp": ["gen-mrp", "--seed", ZERO_SEED, "--params", params_file],
            "retry-gen.mrp": ["retry-gen", "--params", params_file],
            "gen-limb.bin": ["gen-limb", "--seed", ZERO_SEED, "--params", params_file,
                             "--q", "7681"],
        }
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        for name, argv in commands.items():
            expected, got = tmp_path / f"in-process-{name}", tmp_path / name
            assert run(capsys, "--canonical", *argv, "--out", expected)[0] == 0
            proc = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-m",
                 "mrpgen.cli", "--canonical", *map(str, argv), "--out", str(got)],
                capture_output=True, text=True, env=env, timeout=120)
            assert (proc.returncode, proc.stderr) == (0, ""), name
            assert got.read_bytes() == expected.read_bytes(), name


class TestCatalogCommands:
    def test_enum_primes_csv(self, capsys):
        code, out, _ = run(capsys, "--canonical", "enum-primes", "--n", "3",
                           "--w", "7", "--hwnaf-max", "7", "--pr-max", "0.5")
        assert code == 0
        lines = out.splitlines()
        assert "q,bucket,hw_naf,p_r_num,p_r_den" in lines
        data_lines = [ln for ln in lines if ln.startswith(("17,", "97,", "113,"))]
        assert len(data_lines) == 3
        assert "count = 3" in lines

    def test_canonical_reports_are_byte_identical(self, capsys):
        args = ["--canonical", "enum-primes", "--n", "4", "--w", "16",
                "--hwnaf-max", "4", "--pr-max", "0.25"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_non_canonical_carries_timestamp(self, capsys):
        _, out, _ = run(capsys, "enum-primes", "--n", "3", "--w", "7",
                        "--hwnaf-max", "7", "--pr-max", "0.5")
        assert "generated_at = " in out


class TestAnalyticsCommands:
    def test_analyze_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "analyze", "--len", "32",
                           "--nseg", "2048", "--L", "64", "--pr", "0.01")
        result = json.loads(out)["result"]
        assert code == 0
        assert 0 < result["mrp_failure_bound"] < 1
        assert result["p_seg"] == pytest.approx(1 - result["seg_failure"])

    def test_cost_reference_numbers(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "cost", "--R", "16384",
                           "--w", "32", "--f", "1", "--gamma", "1/8",
                           "--d", "15", "--E", "40")
        result = json.loads(out)["result"]
        assert code == 0
        assert result["throughput_tbps"] == pytest.approx(65.536)
        assert result["central_power_w"] == pytest.approx(19.66, abs=0.01)
        assert result["per_axis_density_tbps_per_mm"] == pytest.approx(2.18, abs=0.01)

    def test_cost_saving_is_central_minus_distributed(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "cost", "--R", "16384",
                           "--w", "32", "--f", "1", "--gamma", "1/8",
                           "--d", "15", "--E", "40", "--local-hop", "0.5")
        result = json.loads(out)["result"]
        assert code == 0
        assert 0 < result["distributed_power_w"] < result["central_power_w"]
        assert result["saving_w"] == result["central_power_w"] - result["distributed_power_w"]

    def test_fit_table1_recovers_sixty_four_limbs(self, capsys):
        code, out, _ = run(capsys, "--canonical", "--format", "json", "fit-table1")
        result = json.loads(out)["result"]
        assert code == 0
        assert result["L"] == 64 and result["ok"] is True
        assert result["len4_check"]["ok"] is True

    def test_fit_table1_zero_tolerance_is_a_no_fit(self, capsys):
        code, out, err = run(capsys, "--format", "json", "fit-table1", "--tol", "0")
        assert code == 1 and "error code=no-fit" in err
        assert '"ok": false' in out and '"tolerance": 0.0' in out

    def test_fit_table1_residual_equal_to_the_tolerance_fits(self, capsys):
        argv = ("--format", "json", "fit-table1", "--no-len4-check")
        _, out, _ = run(capsys, *argv, "--tol", "0")
        residual = json.loads(out)["result"]["residual"]
        code, out, _ = run(capsys, *argv, "--tol", repr(residual))
        assert code == 0 and json.loads(out)["result"]["ok"] is True

    def test_stats_on_stored_mrp(self, capsys, tmp_path, params_file):
        out_file = tmp_path / "p.mrp"
        run(capsys, "gen-mrp", "--seed", ZERO_SEED, "--params", params_file,
            "--out", out_file)
        code, out, _ = run(capsys, "--format", "json", "stats", "--mrp", out_file,
                           "--bins", "16")
        result = json.loads(out)["result"]
        assert code == 0
        assert {entry["q"] for entry in result["limbs"]} == {7681, 10753}
        for entry in result["limbs"]:
            assert entry["dof"] == 15


class TestErrorTaxonomy:
    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen-mrp"])  # missing required --params
        assert err.value.code == 2

    def test_unknown_params_key_exits_two(self, capsys, tmp_path):
        path = tmp_path / "bad.params"
        path.write_text("N = 256\nw = 32\nlen = 32\nn_seg = 8\nbase = 7681\nzz = 1\n")
        code, _, err = run(capsys, "gen-mrp", "--seed", ZERO_SEED, "--params", path)
        assert code == 2
        assert "code=params-error" in err

    def test_bad_mrp_file_exits_two(self, capsys, tmp_path):
        path = tmp_path / "junk.mrp"
        path.write_bytes(b"JUNKJUNK")
        code, _, err = run(capsys, "verify", "--mrp", path, "--seed", ZERO_SEED)
        assert code == 2
        assert "code=format-error" in err

    def test_zero_segment_header_exits_two(self, capsys, tmp_path):
        from conftest import mrp_header
        path = tmp_path / "zero.mrp"
        path.write_bytes(mrp_header(256, 0) + bytes(4 * 256))
        code, _, err = run(capsys, "stats", "--mrp", path)
        assert code == 2
        assert "code=format-error" in err and "Traceback" not in err

    @pytest.mark.parametrize("r", [100, 1024, 2688])
    def test_a_params_file_r_outside_one_block_exits_two(self, capsys, tmp_path, r):
        # r = 1024 was a valid t = 32 profile while r was a profile field
        path = tmp_path / "r.params"
        path.write_text(f"N = 256\nw = 32\nr = {r}\nlen = 32\nn_seg = 8\nbase = 7681\n")
        code, out, err = run(capsys, "gen-mrp", "--seed", ZERO_SEED, "--params", path)
        assert (code, out) == (2, "")
        assert err.startswith("error code=params-error ") and "'r' must be 1344" in err

    def test_an_mrp_header_r_beyond_one_block_exits_two(self, capsys, tmp_path):
        from conftest import mrp_header
        for r in (2688, 1024):  # 1024 was read as a t = 32 profile while r was a field
            blob = bytearray(mrp_header(256, 8) + bytes(4 * 256))
            struct.pack_into("<I", blob, 16, r)  # magic, version, N, w, then r
            path = tmp_path / "r.mrp"
            path.write_bytes(bytes(blob))
            code, out, err = run(capsys, "verify", "--mrp", path, "--seed", ZERO_SEED)
            assert (code, out) == (2, "")
            assert err.startswith("error code=format-error ") and f"r = {r};" in err

    def test_missing_seed_exits_two(self, capsys, params_file):
        code, _, err = run(capsys, "gen-mrp", "--params", params_file)
        assert code == 2
        assert "code=params-error" in err

    @pytest.mark.parametrize("argv, code_name", [
        (["verify", "--mrp", "{mrp}", "--seed", "0" * 74], "params-error"),
        (["verify", "--mrp", "{mrp}", "--seed", "zz" * 36], "params-error"),
        (["gen-mrp", "--params", "{params}", "--common", "00" * 31, "--poly-id", "0"],
         "params-error"),
        (["gen-mrp", "--params", "{params}", "--common", "zz" * 32, "--poly-id", "0"],
         "params-error"),
        (["gen-mrp", "--params", "{params}", "--common", "00" * 32,
          "--poly-id", str(1 << 32)], "params-error"),
        (["gen-limb", "--params", "{params}", "--seed", ZERO_SEED, "--q", "97"],
         "params-error"),
        (["gen-seg", "--params", "{params}", "--seed", ZERO_SEED, "--q", "97", "--id", "0"],
         "params-error"),
        (["gen-seg", "--params", "{params}", "--seed", ZERO_SEED, "--q", "7681", "--id", "8"],
         "params-error"),
        (["stats", "--mrp", "{mrp}"], "params-error"),
        (["stats", "--mrp", "{mrp}", "--bins", "1"], "params-error"),
        (ANALYZE + ["--pr", "2"], "params-error"),
        (ANALYZE + ["--pr", "abc"], "params-error"),
        (ANALYZE + ["--L", "-3"], "params-error"),
        (ANALYZE + ["--nseg", "0"], "params-error"),
        (ANALYZE + ["--t", "-1"], "params-error"),
        (ANALYZE + ["--len", "-1"], "params-error"),
        (ENUM_PRIMES + ["--pr-max", "abc"], "params-error"),
        (ENUM_PRIMES + ["--n", "-1"], "params-error"),
        (ENUM_PRIMES + ["--qmin-bits", "-2"], "params-error"),
        (ENUM_PRIMES + ["--w", "0"], "params-error"),
        (ENUM_PRIMES + ["--w", "200", "--qmin-bits", "190"], "params-error"),
        (["retry-gen", "--params", "{params}", "--max-attempts", "0"], "params-error"),
        (COST + ["--R", "0"], "params-error"),
        (COST + ["--gamma", "abc"], "params-error"),
        (COST + ["--gamma", "2"], "params-error"),
        (COST + ["--local-hop", "-1"], "params-error"),
        (COST + ["--f", "nan"], "params-error"),
        (COST + ["--d", "inf"], "params-error"),
        (["gen-mrp", "--seed", ZERO_SEED, "--params", "{tmp}/missing.params"], "io-error"),
        (["stats", "--mrp", "{tmp}"], "io-error"),
        (["gen-mrp", "--seed", ZERO_SEED, "--params", "{params}",
          "--out", "{tmp}/missing/x.mrp"], "io-error"),
        (["gen-mrp", "--seed", ZERO_SEED, "--params", "{tmp}/binary.params"],
         "params-error"),
        (["fit-table1", "--tol", "-1"], "params-error"),
        (["fit-table1", "--tol", "nan"], "params-error"),
        (["fit-table1", "--tol", "inf"], "params-error"),
        (["fit-table1", "--tol=-1e-12"], "params-error"),  # argparse reads -1e-12 as an option
        (["enum-primes", "--n", "3", "--w", "48"], "params-error"),
        (ANALYZE + ["--t", "169"], "params-error"),
        (ANALYZE + ["--t", "10000"], "params-error"),
        (ANALYZE + ["--nseg", "65537"], "params-error"),
        (ANALYZE + ["--nseg", str(10 ** 400)], "params-error"),
        (ANALYZE + ["--L", str((1 << 32) + 1)], "params-error"),
        (ANALYZE + ["--pr", f"1/{(1 << 64) + 1}"], "params-error"),
        (["fit-table1", "--lmax", "0"], "params-error"),
        (["gen-mrp", "--params", "{params}", "--common", "00" * 32], "params-error"),
        (["gen-mrp", "--seed", ZERO_SEED, "--params", "{tmp}/base-float.params"],
         "params-error"),
        (["gen-mrp", "--seed", ZERO_SEED, "--params", "{tmp}/base-empty.params"],
         "params-error"),
        (["gen-mrp", "--seed", ZERO_SEED, "--params", "{tmp}/base-too-wide.params"],
         "params-error"),
        (["gen-mrp", "--seed", ZERO_SEED, "--params", "{tmp}/perm-2^63.params"],
         "params-error"),
        (COST + ["--R", str(10 ** 400)], "params-error"),
        (COST + ["--w", str(10 ** 400)], "params-error"),
        (ENUM_PRIMES + ["--n", "65"], "params-error"),
        (ENUM_PRIMES + ["--qmin-bits", "65"], "params-error"),
        (["gen-mrp", "--params", "{params}", "--seed", ZERO_SEED, "--common", "11" * 32,
          "--poly-id", "1"], "params-error"),
        (["gen-mrp", "--params", "{params}", "--seed", ZERO_SEED, "--poly-id", "5"],
         "params-error"),
        (["gen-mrp", "--params", "{params}", "--seed", "", "--common", "11" * 32,
          "--poly-id", "1"], "params-error"),
        (["enum-primes", "--n", "16", "--qmin-bits", "19", "--hwnaf-max", "-1"],
         "params-error"),
        (["enum-primes", "--n", "16", "--pr-max", "-1"], "params-error"),
    ], ids=["seed-length", "seed-not-hex", "common-length", "common-not-hex",
            "poly-id-range", "limb-q-not-in-base", "seg-q-not-in-base", "seg-id-range",
            "stats-too-few-samples", "stats-one-bin", "analyze-pr-2", "analyze-pr-abc",
            "analyze-L-3", "analyze-nseg-0", "analyze-t-1", "analyze-len-1",
            "enum-pr-max-abc", "enum-n-1", "enum-qmin-bits-2", "enum-w-0", "enum-w-200",
            "retry-max-attempts-0", "cost-R-0", "cost-gamma-abc", "cost-gamma-2",
            "cost-local-hop-1", "cost-f-nan", "cost-d-inf", "missing-params",
            "mrp-is-a-directory", "out-dir-missing", "binary-params", "fit-tol-1",
            "fit-tol-nan", "fit-tol-inf", "fit-tol-1e-12", "enum-w-48-unbounded-scan",
            "analyze-t-169", "analyze-t-10000", "analyze-nseg-65537", "analyze-nseg-10^400",
            "analyze-L-2^32+1", "analyze-pr-den-2^64+1", "fit-lmax-0",
            "common-without-poly-id", "base-float", "base-empty", "base-too-wide",
            "perm-index-2^63", "cost-R-10^400", "cost-w-10^400", "enum-n-65",
            "enum-qmin-bits-65", "seed-with-common", "seed-with-poly-id",
            "empty-seed-with-common", "enum-hwnaf-max-1", "enum-pr-max-1"])
    def test_bad_input_is_a_typed_error(self, capsys, tmp_path, params_file, argv,
                                        code_name):
        mrp = tmp_path / "p.mrp"
        run(capsys, "gen-mrp", "--seed", ZERO_SEED, "--params", params_file, "--out", mrp)
        (tmp_path / "binary.params").write_bytes(bytes(range(256)))
        (tmp_path / "p.perm").write_text(" ".join(map(str, [2 ** 63, *range(1, 16)])))
        for name, fields in (("base-float", "w = 32\nbase = 1.5"),
                             ("base-empty", "w = 32\nbase ="),
                             ("base-too-wide", "w = 8\nbase = 7681"),
                             ("perm-2^63", "w = 32\nbase = 7681\npermutation = p.perm")):
            text = f"N = 256\nlen = 32\nn_seg = 8\n{fields}\n"
            (tmp_path / f"{name}.params").write_text(text)
        argv = [a.format(params=params_file, mrp=mrp, tmp=tmp_path) for a in argv]
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith(f"error code={code_name} ") and err.count("\n") == 1
        assert "value-error" not in err and "Traceback" not in err
        assert out == ""

    @pytest.mark.parametrize("argv, device, code_name", [
        (["gen-mrp", "--seed", ZERO_SEED, "--params"], "/dev/zero", "params-error"),
        (["gen-mrp", "--seed", ZERO_SEED, "--params"], "/dev/null", "params-error"),
        (["verify", "--seed", ZERO_SEED, "--mrp"], "/dev/zero", "format-error"),
        (["verify", "--seed", ZERO_SEED, "--mrp"], "/dev/null", "format-error"),
        (["stats", "--mrp"], "/dev/zero", "format-error"),
    ], ids=["params-zero", "params-null", "verify-zero", "verify-null", "stats-zero"])
    def test_a_device_is_not_an_input_file(self, argv, device, code_name):
        # A reader of /dev/zero never reaches its end: the child runs under a
        # 1 GiB address-space cap and a timeout, so one that tried fails here
        # with a MemoryError instead of filling the machine's memory.
        script = ("import resource, sys; "
                  "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)); "
                  "from mrpgen.cli import main; sys.exit(main(sys.argv[1:]))")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script, *argv, device],
                              capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == f"error code={code_name} {device}: a device, not an input file\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_cost_that_overflows_a_float_exits_two(self, capsys, fmt):
        # the inputs are finite, but the central power is not
        code, out, err = run(capsys, "--format", fmt, "cost", "--R", "64", "--w", "32",
                             "--f", "1", "--gamma", "1/2", "--d", "1e308", "--E", "1e308")
        assert (code, out) == (2, "")
        assert err.startswith("error code=params-error central_power_w is not finite")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("extra, field, watts", [
        (["--d", "1e300", "--E", "1"], "central_power_w", 5.12e296),
        (["--d", "1", "--E", "1e-10", "--local-hop", "1e300"], "distributed_power_w",
         1.024e287),
    ], ids=["central", "distributed"])
    def test_a_finite_cost_whose_left_to_right_partial_overflows(self, capsys, fmt, extra,
                                                                 field, watts):
        # TP x distance overflows before the femtojoules bring it back down
        code, out, err = run(capsys, "--format", fmt, "cost", "--R", "64", "--w", "32",
                             "--f", "1", "--gamma", "1/2", *extra)
        assert (code, err) == (0, "")
        if fmt == "json":
            value = json.loads(out)["result"][field]
        else:
            value = float(dict(line.split(" = ") for line in out.splitlines()
                               if " = " in line)[field])
        assert value == pytest.approx(watts, rel=1e-15)

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("extra, fields", [
        (["--E", "-0"], ("central_power_w", "distributed_power_w")),
        (["--E", "40", "--local-hop", "-0"], ("distributed_power_w",)),
    ], ids=["energy", "local-hop"])
    def test_a_zero_power_is_positive_zero(self, capsys, fmt, extra, fields):
        code, out, err = run(capsys, "--format", fmt, "cost", "--R", "64", "--w", "32",
                             "--f", "1", "--gamma", "1/8", "--d", "15", *extra)
        assert (code, err) == (0, "")
        if fmt == "json":
            result = json.loads(out)["result"]
        else:
            result = dict(line.split(" = ") for line in out.splitlines() if " = " in line)
        assert [math.copysign(1, float(result[f])) for f in fields] == [1] * len(fields)
        assert "-0.0" not in out

    @pytest.mark.parametrize("argv, target", [
        (["gen-mrp", "--seed", ZERO_SEED], "{tmp}/missing/x.mrp"),
        (["gen-limb", "--seed", ZERO_SEED, "--q", "7681"], "missing/x.bin"),
        (["retry-gen"], "{tmp}/missing/x.mrp"),
    ], ids=["out-dir-missing", "limb-out-dir-missing-relative", "retry-out-dir-missing"])
    def test_an_out_error_names_the_target_as_given(self, capsys, monkeypatch, tmp_path,
                                                    params_file, argv, target):
        # --out goes through a temporary sibling; the error names the target
        monkeypatch.chdir(tmp_path)
        target = target.format(tmp=tmp_path)
        code, out, err = run(capsys, *argv, "--params", params_file, "--out", target)
        assert (code, out) == (2, "")
        assert err == f"error code=io-error [Errno 2] No such file or directory: {target!r}\n"
        assert ".tmp" not in err
        assert threading.active_count() == 1  # no handler starts a thread

    @pytest.mark.parametrize("argv", [
        ["gen-mrp", "--seed", ZERO_SEED],
        ["gen-limb", "--seed", ZERO_SEED, "--q", "7681"],
        ["retry-gen"],
    ], ids=["gen-mrp", "gen-limb", "retry-gen"])
    def test_an_empty_out_path_is_an_io_error(self, capsys, monkeypatch, tmp_path,
                                              params_file, argv):
        # an empty --out names no file: it is refused, not read as "no --out"
        monkeypatch.chdir(tmp_path)
        before = sorted(tmp_path.iterdir())
        code, out, err = run(capsys, *argv, "--params", params_file, "--out", "")
        assert (code, out) == (2, "")
        assert err.startswith("error code=io-error ") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before

    def test_retry_exhausted_exits_one(self, capsys, hard_params_file):
        path, q = hard_params_file
        code, _, err = run(capsys, "retry-gen", "--params", path, "--max-attempts", "2")
        assert code == 1
        assert err.startswith("error code=retry-exhausted no valid seed found in 2 attempts")
        assert f"q={q}" in err

    def test_no_fit_exits_one_after_its_report(self, capsys):
        code, out, err = run(capsys, "--canonical", "fit-table1", "--lmax", "10",
                             "--no-len4-check")
        assert code == 1
        assert "ok = False" in out
        assert err.startswith("error code=no-fit best L=10 residual=")

    def test_reference_mismatch_exits_one_after_its_report(self, capsys, monkeypatch):
        p_r, count, hist, seg_len, bound = profiles.REFERENCE_ROWS[0]
        monkeypatch.setattr(profiles, "REFERENCE_ROWS",
                            ((p_r, count + 1, hist, seg_len, bound),))
        code, out, err = run(capsys, "--canonical", "table1")
        assert code == 1
        assert "all_match = False" in out
        assert err == "error code=reference-mismatch supported-set statistics deviate\n"

    def test_unexpected_exception_is_an_internal_error(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "cmd_cost", broken)
        code, _, err = run(capsys, *COST)
        assert code == 3
        assert err == "error code=internal-error RuntimeError: boom\n"


def _p_r_fractions():
    return st.integers(1, analytics.MAX_DENOMINATOR).flatmap(
        lambda den: st.integers(0, den).map(lambda num: f"{num}/{den}"))


class TestBoundedModelWork:
    # Every in-range model input finishes in bounded time with a report or a
    # domain failure, never an internal error.  The worst analyze case (t =
    # len = 168, a 64-bit denominator) takes about 40 ms.
    @staticmethod
    def _timed_exit(argv):
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        return code, time.perf_counter() - start

    @settings(deadline=None, max_examples=60)
    @given(t=st.integers(0, analytics.MAX_T), seg_len=st.integers(0, analytics.MAX_T + 2),
           n_seg=st.integers(1, analytics.MAX_N_SEG), L=st.integers(1, analytics.MAX_L),
           p_r=_p_r_fractions())
    @example(t=168, seg_len=168, n_seg=65536, L=1 << 32,
             p_r=f"{(1 << 63) + 12345}/{(1 << 64) - 59}")
    def test_analyze(self, t, seg_len, n_seg, L, p_r):
        code, seconds = self._timed_exit(["analyze", "--t", str(t), "--len", str(seg_len),
                                          "--nseg", str(n_seg), "--L", str(L), "--pr", p_r])
        assert code == 0 and seconds < 1.0

    @settings(deadline=None, max_examples=30)
    @given(lmax=st.integers(1, 10 ** 6), tol=st.floats(0, 1))
    def test_fit_table1(self, lmax, tol):
        code, seconds = self._timed_exit(["fit-table1", "--lmax", str(lmax),
                                          "--no-len4-check", "--tol", repr(tol)])
        assert code in (0, 1) and seconds < 1.0


class TestReportEnvelope:
    def test_json_envelope_fields(self, capsys):
        _, out, _ = run(capsys, "--canonical", "--format", "json", "cost",
                        "--R", "1", "--w", "1", "--f", "1", "--gamma", "1",
                        "--d", "1", "--E", "1")
        env = json.loads(out)
        assert env["command"] == "cost"
        assert set(env) == {"command", "version", "input_digest", "result"}

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_json_never_prints_nan_or_infinity(self, capsys, value):
        args = cli.build_parser().parse_args(["--canonical", "--format", "json", "table1"])
        with pytest.raises(ValueError, match="JSON compliant"):
            cli._emit(args, {"x": value})
        assert capsys.readouterr().out == ""

    def test_digest_tracks_inputs(self, capsys):
        _, a, _ = run(capsys, "--canonical", "analyze", "--len", "8",
                      "--nseg", "8", "--L", "2", "--pr", "0.1")
        _, b, _ = run(capsys, "--canonical", "analyze", "--len", "8",
                      "--nseg", "8", "--L", "2", "--pr", "0.2")
        digest = [ln for ln in a.splitlines() if ln.startswith("input_digest")]
        other = [ln for ln in b.splitlines() if ln.startswith("input_digest")]
        assert digest and other and digest != other


# Every option of every subcommand draws its value from this pool, so an
# option added to the parser is covered without a test edit.  "{dir}" is a
# directory, "{empty}" an empty file and "{params}" a params file, which is
# also what an option that wants an MRP container gets when it draws it;
# "{truncated}" is the container "{mrp}" cut mid-row, "{trailing}" it
# with one byte more, and "{fifo}" a FIFO that no process reads or writes.
HOSTILE = ["0", "-1", str(2 ** 63), str(2 ** 64), "1e308", "nan", "inf", "1/0", "",
           "ünïcödé €", "{dir}", "{empty}", "{params}", "{truncated}", "{trailing}",
           "{fifo}"]
# A value an option may draw instead, by its destination, so that some argv
# get past the parser and the first checks to the generator, the reader and
# the writers.  The profile has N = 256, far too small for the helper to fork.
PLAUSIBLE = {"params": "{params}", "mrp": "{mrp}", "seed": ZERO_SEED, "common": "00" * 32,
             "poly_id": "1", "q": "7681", "id": "3", "out": "{dir}/out.bin", "n": "4",
             "w": "20", "qmin_bits": "12", "len": "4", "nseg": "8", "L": "2", "pr": "1/8",
             "pr_max": "1/4", "bins": "16", "max_attempts": "2", "R": "16", "gamma": "1/8",
             "format": "json"}


def _options(parser) -> list:
    return [action for action in parser._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)]


def _subcommands(parser) -> dict:
    return next(action for action in parser._actions
                if isinstance(action, argparse._SubParsersAction)).choices


@st.composite
def _hostile_argv(draw) -> list[str]:
    """argv for one subcommand.  Each option is present or not (a required
    one always), and a flag stands alone.  Half the time one value comes
    from the hostile pool and every other option with a plausible value
    takes it; otherwise each value is hostile or plausible at even odds."""
    parser = cli.build_parser()
    name = draw(st.sampled_from(sorted(_subcommands(parser))))
    actions = _options(parser) + [name] + _options(_subcommands(parser)[name])
    present = [a for a in actions if a is name or a.required or draw(st.booleans())]
    valued = [a for a in present if a is not name and a.nargs != 0]
    single = draw(st.sampled_from(valued)) if valued and draw(st.booleans()) else None
    argv = []
    for action in present:
        if action is name:
            argv.append(name)
            continue
        flag = action.option_strings[-1]
        plausible = PLAUSIBLE.get(action.dest)
        if action.nargs == 0:
            argv.append(flag)
        elif single not in (None, action) and plausible is not None:
            argv.append(f"{flag}={plausible}")
        else:
            even = single is None and plausible is not None
            pool = HOSTILE + [plausible] * len(HOSTILE) * even
            argv.append(f"{flag}={draw(st.sampled_from(pool))}")  # "=" keeps "-1" a value
    return argv


def _refuse_constant(name):
    raise ValueError(f"JSON output holds {name}")


class TestArgvSurface:
    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("argv")
        params = GenParams(N=256, w=32, seg_len=32, n_seg=8, base=(7681, 10753))
        save_params(params, root / "p.params")
        write_mrp(root / "p.mrp", generate_mrp(Seed(bytes(36)), params), params)
        container = (root / "p.mrp").read_bytes()
        (root / "truncated.mrp").write_bytes(container[:-4 * params.N - 6])
        (root / "trailing.mrp").write_bytes(container + b"\0")
        return root

    @pytest.mark.parametrize("container", ["truncated", "trailing"])
    @pytest.mark.parametrize("command", [["verify", "--seed", ZERO_SEED], ["stats"]],
                             ids=["verify", "stats"])
    def test_a_cut_or_padded_container_is_a_format_error(self, capsys, inputs, command,
                                                         container):
        code, out, err = run(capsys, *command, "--mrp", inputs / f"{container}.mrp")
        assert (code, out) == (2, "")
        assert err == ("error code=format-error " + {
            "truncated": "truncated MRP file", "trailing": "trailing bytes after the last limb",
        }[container] + "\n")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    @pytest.mark.parametrize("command, code, wait", [
        (["verify", "--seed", ZERO_SEED, "--mrp"], "format-error", None),
        (["stats", "--mrp"], "format-error", 0.1),
        (["gen-mrp", "--params"], "params-error", 0.1),
    ], ids=["verify", "stats", "gen-mrp"])
    def test_a_fifo_that_no_process_writes_is_refused(self, capsys, monkeypatch, tmp_path,
                                                      command, code, wait):
        # the open does not block, and the read waits FIFO_WAIT_S (the
        # module's own bound for verify) for a writer that never comes
        if wait is not None:
            monkeypatch.setattr(formats, "FIFO_WAIT_S", wait)
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        start = time.monotonic()
        with within(formats.FIFO_WAIT_S + 10):
            got = run(capsys, *command, fifo)
        assert time.monotonic() - start >= formats.FIFO_WAIT_S
        assert got == (2, "", f"error code={code} {fifo}: a FIFO that no process wrote to "
                              f"within {formats.FIFO_WAIT_S:g} s\n")

    @settings(deadline=None, max_examples=300)
    @given(_hostile_argv())
    def test_any_argv_exits_with_a_typed_code(self, inputs, argv):
        # exit 0, 1 or 2 and never a traceback; main prints exactly one
        # "error code=" line for 1 and 2, and exits 0 only with every --out
        # written; argparse refuses what it cannot parse with its own one
        # "error:" line and exit 2, before any handler
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
            for name in ("p.params", "p.mrp", "truncated.mrp", "trailing.mrp"):
                shutil.copy(inputs / name, tmp)
            Path(tmp, "empty").touch()
            os.mkfifo(Path(tmp, "fifo"))
            patch.setattr(formats, "FIFO_WAIT_S", 0.05)  # the refusal, not the wait
            argv = [arg.format(dir=tmp, empty=f"{tmp}/empty", params=f"{tmp}/p.params",
                               mrp=f"{tmp}/p.mrp", truncated=f"{tmp}/truncated.mrp",
                               trailing=f"{tmp}/trailing.mrp", fifo=f"{tmp}/fifo")
                    for arg in argv]
            out, err = io.StringIO(), io.StringIO()
            # a relative --out lands in the temporary directory
            with (within(10), contextlib.chdir(tmp), contextlib.redirect_stdout(out),
                  contextlib.redirect_stderr(err)):
                try:
                    code, parsed = main(argv), True
                except SystemExit as exc:
                    code, parsed = exc.code, False
            targets = [arg.partition("=")[2] for arg in argv if arg.startswith("--out=")]
            written = all(os.path.isfile(os.path.join(tmp, target)) for target in targets)
        out, err = out.getvalue(), err.getvalue()
        event(f"exit {code}" if parsed else "argparse")
        assert "Traceback" not in out + err
        assert threading.active_count() == 1
        if not parsed:
            assert code == 2 and out == ""
            assert err.splitlines()[-1].startswith(f"{cli.build_parser().prog}")
            assert ": error: " in err.splitlines()[-1]
            return
        assert code in (0, 1, 2)
        errors = [line for line in err.splitlines() if line.startswith("error code=")]
        assert len(errors) == (code != 0), err
        assert written or code != 0
        if code == 0 and "--format=json" in argv:
            json.loads(out, parse_constant=_refuse_constant)
