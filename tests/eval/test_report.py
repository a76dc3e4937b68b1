"""Report assembly: determinism, schema conformance, CLI, longitudinal.

The byte-determinism tests are the PR's contract: ``python -m
repro.eval report`` run twice over the same cache must produce
identical files, bit for bit, or "regenerate the report" stops being a
meaningful instruction.
"""

import hashlib
import json
import random
import tracemalloc

import pytest

from repro.errors import EvalError
from repro.eval import (
    build_report,
    cache_digests,
    diff_digests,
    discover_records,
    render_json,
    render_longitudinal,
    render_markdown,
    report_fingerprint,
    write_report,
)
from repro.eval.__main__ import main as eval_main
from repro.orchestrate import ResultCache
from repro.telemetry.schema import EVAL_REPORT_SCHEMA, check

from .conftest import MIXES, fake_key, make_summary


@pytest.fixture
def records(populate_cache):
    return discover_records(populate_cache())


class TestBuildReport:
    def test_covers_every_policy_against_the_baseline(self, records):
        report = build_report(records, resamples=200)
        assert [c["policy"] for c in report["comparisons"]] == [
            "inclusive/eci",
            "inclusive/qbs",
        ]
        assert report["baseline"] == "inclusive/none"
        assert report["num_runs"] == len(records)

    def test_slices_include_all_and_every_category(self, records):
        report = build_report(records, resamples=200)
        slices = {
            cell["slice"] for cell in report["comparisons"][0]["cells"]
        }
        assert "All" in slices
        assert len(slices) >= 2  # at least one category tag beyond All

    def test_validates_against_the_checked_in_schema(self, records):
        report = build_report(records, resamples=200)
        # Round-trip through JSON first: the schema governs the file.
        assert check(json.loads(render_json(report)), EVAL_REPORT_SCHEMA) == []

    def test_holm_adjusted_present_and_dominates_raw(self, records):
        report = build_report(records, resamples=200)
        for comparison in report["comparisons"]:
            for cell in comparison["cells"]:
                assert cell["p_adjusted"] >= cell["p_permutation"] - 1e-12

    def test_overlay_built_from_interval_telemetry(self, records):
        report = build_report(records, resamples=200)
        overlay = report["comparisons"][0]["overlay"]
        assert overlay["num_pairs"] == len(MIXES)
        assert len(overlay["baseline"]) == overlay["num_windows"]

    def test_overlay_absent_without_intervals(self, tmp_path):
        cache = ResultCache(str(tmp_path / "bare"))
        for mix, apps in MIXES:
            for tla in ("none", "qbs"):
                cache.store(
                    fake_key(mix, "inclusive", tla),
                    make_summary(mix, apps, "inclusive", tla,
                                 intervals=False),
                )
        report = build_report(
            discover_records(tmp_path / "bare"), resamples=200
        )
        assert report["comparisons"][0]["overlay"] is None

    def test_missing_baseline_raises(self, records):
        only_tla = [r for r in records if r.policy != "inclusive/none"]
        with pytest.raises(EvalError, match="baseline"):
            build_report(only_tla, resamples=200)

    def test_unknown_candidate_raises(self, records):
        with pytest.raises(EvalError, match="no cached runs"):
            build_report(
                records, policies=["inclusive/tlh-l1"], resamples=200
            )


class TestDeterminism:
    def test_rebuild_is_byte_identical(self, records):
        first = build_report(records, resamples=300)
        second = build_report(records, resamples=300)
        assert render_json(first) == render_json(second)
        assert render_markdown(first) == render_markdown(second)

    def test_record_order_does_not_matter(self, records):
        shuffled = list(records)
        random.Random(42).shuffle(shuffled)
        assert render_json(
            build_report(records, resamples=300)
        ) == render_json(build_report(shuffled, resamples=300))

    def test_default_report_bytes_are_pinned(self, records):
        """sha256 of the default (2000-resample) report over the
        conftest grid, recorded with the per-draw resampling loops:
        the bulk draws must leave every byte where it was."""
        report = build_report(records)
        assert report["resamples"] == 2000
        assert hashlib.sha256(render_json(report).encode()).hexdigest() == (
            "df147386490ca10e1021306ae45237eb06780c5ea3bd163c6195be56d366b688"
        )
        assert hashlib.sha256(
            render_markdown(report).encode()
        ).hexdigest() == (
            "f4d4415a70aca9e4b232a0c08961777d696cb875bc93a94f2789f6917df58f46"
        )

    def test_monte_carlo_report_bytes_are_pinned(self, mc_records):
        """sha256 of the default report over the 35-pair fixture,
        recorded with the stdlib resamplers: its ``All`` and 16-pair
        cells take the seeded sign-flip branch and its no-op policy
        the all-tie cells, which the 3-pair grid above never reaches."""
        report = build_report(mc_records)
        assert hashlib.sha256(render_json(report).encode()).hexdigest() == (
            "baf931d1c1104991c82aa50bb06b5f549ae627191cd374290ebd2731dda216b9"
        )
        assert hashlib.sha256(
            render_markdown(report).encode()
        ).hexdigest() == (
            "3b319227716a4773da77c8ec3e359aec8ac7a8589ba506e9488636b2738055fb"
        )

    def test_fingerprint_tracks_the_input_set(self, records):
        assert report_fingerprint(records) == report_fingerprint(
            list(reversed(records))
        )
        assert report_fingerprint(records) != report_fingerprint(
            records[:-1]
        )

    def test_cli_report_twice_produces_identical_files(
        self, populate_cache, tmp_path, capsys
    ):
        cache_dir = populate_cache()
        outputs = []
        for attempt in ("first", "second"):
            out = tmp_path / attempt
            code = eval_main(
                [
                    "report",
                    "--cache", str(cache_dir),
                    "--out", str(out),
                    "--resamples", "200",
                ]
            )
            assert code == 0
            outputs.append(
                (
                    (out / "eval-report.json").read_bytes(),
                    (out / "eval-report.md").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]
        # And the JSON on disk passes the schema gate CI applies.
        assert check(
            json.loads(outputs[0][0].decode()), EVAL_REPORT_SCHEMA
        ) == []


class TestMemory:
    def test_report_peak_stays_under_one_mib(self, mc_records):
        """Each cell seed's draws live only while its comparisons are
        resampled, and rows go through fixed-size blocks, so the
        report's traced peak (numpy reports its buffers too) stays
        small whatever the pair count."""
        build_report(mc_records, resamples=50)  # imports and caches warm
        tracemalloc.start()
        try:
            build_report(mc_records)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"peak {peak / 2**20:.2f} MiB"


class TestCli:
    def test_ab_prints_a_markdown_table(self, populate_cache, capsys):
        code = eval_main(
            [
                "ab",
                "--cache", str(populate_cache()),
                "--policy", "inclusive/qbs",
                "--resamples", "200",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "`inclusive/qbs` vs `inclusive/none`" in out
        assert "| metric | slice |" in out

    def test_slice_inventories_the_cache(self, populate_cache, capsys):
        assert eval_main(["slice", "--cache", str(populate_cache())]) == 0
        out = capsys.readouterr().out
        assert "9 cached runs, 3 policies" in out
        assert "| category |" in out

    def test_empty_cache_fails_cleanly(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        assert eval_main(["slice", "--cache", str(tmp_path / "empty")]) == 1

    def test_report_errors_exit_nonzero(self, tmp_path):
        assert (
            eval_main(["report", "--cache", str(tmp_path / "missing")]) == 1
        )


def bench_doc(**values):
    """A schema-valid ``BENCH_*.json`` artifact with the given rates."""
    return {
        "schema": 1,
        "fingerprint": {
            "python": "3.9.0",
            "platform": "test",
            "cpu_count": 1,
            "version": "1.0.0",
            "commit": "abc",
        },
        "scenarios": [
            {
                "name": name,
                "metric": "instructions_per_s",
                "work": 1,
                "value": value,
                "runs": [value],
            }
            for name, value in values.items()
        ],
    }


class TestLongitudinal:
    def test_digest_diff_detects_behaviour_drift(self, populate_cache,
                                                 tmp_path):
        directory = populate_cache()
        before = cache_digests(directory)
        # Same key, different simulated outcome: the golden tripwire.
        key = fake_key("MIX_A", "inclusive", "none")
        ResultCache(str(directory)).store(
            key, make_summary("MIX_A", ("ast", "bzi"), seed=99)
        )
        diff = diff_digests(before, cache_digests(directory))
        assert diff["changed"] == [key]
        assert diff["unchanged"] == len(before) - 1
        assert "drift" in render_longitudinal(diff)

    def test_cli_longitudinal_exit_codes(self, populate_cache, tmp_path,
                                         capsys):
        directory = populate_cache()
        same = populate_cache(directory=tmp_path / "same")
        assert eval_main(
            ["longitudinal", str(directory), str(same)]
        ) == 0
        old = tmp_path / "old.json"
        new = tmp_path / "new.json"
        old.write_text(json.dumps(bench_doc(s=100.0)))
        new.write_text(json.dumps(bench_doc(s=50.0)))
        assert eval_main(["longitudinal", str(old), str(new)]) == 1
        # Mixing a file with a directory is an operand error.
        assert eval_main(["longitudinal", str(old), str(directory)]) == 2

    def test_cli_longitudinal_unreadable_operand_exits_2(self, tmp_path):
        """An operand that is missing or not a bench artifact is a
        usage error (2, as ``repro.perf compare``), not a regression."""
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps(bench_doc(s=100.0)))
        missing = tmp_path / "missing.json"
        assert eval_main(["longitudinal", str(missing), str(bench)]) == 2
        assert eval_main(["longitudinal", str(bench), str(missing)]) == 2
        not_bench = tmp_path / "not-bench.json"
        not_bench.write_text(json.dumps({"workloads": []}))
        assert eval_main(["longitudinal", str(not_bench), str(bench)]) == 2


class TestWriteReport:
    def test_writes_both_artefacts(self, records, tmp_path):
        report = build_report(records, resamples=200)
        json_path, md_path = write_report(report, tmp_path / "out")
        assert json.loads(json_path.read_text())["kind"] == "eval-report"
        assert md_path.read_text().startswith("# Policy A/B evaluation")
