import pytest

import gen_fixtures

SMALL_FIXTURES = ["golden_k12_mrp.txt", "golden_k12_segment.txt", "golden_mrp.txt",
                  "golden_segment.txt", "xof_vectors.txt"]


def test_the_committed_fixtures_are_what_the_generator_writes(monkeypatch, tmp_path,
                                                               fixtures_dir):
    # gen_fixtures.py shares no code with the package; a fixture edited by
    # hand, or a generator changed without rewriting them, shows up here
    monkeypatch.setattr(gen_fixtures, "OUT", tmp_path)
    gen_fixtures.write_small_fixtures()
    assert sorted(path.name for path in tmp_path.iterdir()) == SMALL_FIXTURES
    for name in SMALL_FIXTURES:
        assert (tmp_path / name).read_bytes() == (fixtures_dir / name).read_bytes(), name


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_the_canonical_cli_reports_are_the_committed_ones(tmp_path, fixtures_dir, fmt):
    # stdout, stderr and exit code of every subcommand, byte for byte
    expected = (fixtures_dir / f"cli_{fmt}.txt").read_text()
    assert gen_fixtures.cli_report(fmt, tmp_path) == expected
