"""The golden conformance corpus: the committed digests stay valid, blessing
is deterministic, and drift/schema mismatches are reported usefully.
"""

import json

from repro import cli
from repro.verify.corpus import (
    ConformanceCorpus,
    conformance_specs,
    default_corpus_dir,
)
from repro.workload.trace import TRACE_SCHEMA_VERSION


class TestCommittedCorpus:
    def test_committed_corpus_exists(self):
        corpus = ConformanceCorpus()
        assert corpus.path == default_corpus_dir()
        names = {name for name, _ in conformance_specs()}
        files = {entry.stem for entry in corpus.entry_files()}
        assert files == names, (
            "tests/golden/ is out of sync with conformance_specs(); "
            "run `repro conformance bless` and commit the result"
        )

    def test_committed_digests_still_hold(self):
        # The tier-1 conformance gate: every blessed cell re-simulates to
        # its committed digest on the current code.
        report = ConformanceCorpus().run()
        assert report.ok, report.summary()
        assert report.checked == len(conformance_specs())

    def test_blessing_is_deterministic(self, tmp_path):
        corpus = ConformanceCorpus(tmp_path / "golden")
        corpus.bless()
        committed = {
            entry.stem: json.loads(entry.read_text())["digest"]
            for entry in ConformanceCorpus().entry_files()
        }
        fresh = {
            entry.stem: json.loads(entry.read_text())["digest"]
            for entry in corpus.entry_files()
        }
        assert fresh == committed


class TestCorpusFailureModes:
    def _blessed(self, tmp_path) -> ConformanceCorpus:
        corpus = ConformanceCorpus(tmp_path / "golden")
        corpus.bless()
        return corpus

    def test_empty_corpus_reports_missing(self, tmp_path):
        report = ConformanceCorpus(tmp_path / "nowhere").run()
        assert not report.ok
        assert report.failures[0].kind == "missing"

    def test_tampered_digest_is_caught(self, tmp_path):
        corpus = self._blessed(tmp_path)
        victim = corpus.entry_files()[0]
        entry = json.loads(victim.read_text())
        entry["digest"] = "0" * 64
        victim.write_text(json.dumps(entry))
        report = corpus.run()
        assert [f.kind for f in report.failures] == ["digest"]
        assert report.failures[0].name == victim.stem

    def test_schema_drift_requires_reblessing(self, tmp_path):
        corpus = self._blessed(tmp_path)
        victim = corpus.entry_files()[0]
        entry = json.loads(victim.read_text())
        entry["trace_schema"] = TRACE_SCHEMA_VERSION + 999
        victim.write_text(json.dumps(entry))
        report = corpus.run()
        assert [f.kind for f in report.failures] == ["schema"]
        assert "re-bless" in report.failures[0].detail

    def test_corrupt_entry_is_reported(self, tmp_path):
        corpus = self._blessed(tmp_path)
        corpus.entry_files()[0].write_text("{not json")
        report = corpus.run()
        assert [f.kind for f in report.failures] == ["corrupt"]

    def test_entry_failing_spec_validation_is_reported_corrupt(self, tmp_path):
        corpus = self._blessed(tmp_path)
        victim = corpus.entry_files()[0]
        entry = json.loads(victim.read_text())
        entry["spec"]["settings"]["warmup_fraction"] = 1.5
        victim.write_text(json.dumps(entry))
        report = corpus.run()
        assert [f.kind for f in report.failures] == ["corrupt"]
        assert "warmup_fraction" in report.failures[0].detail

    def test_bless_prunes_stale_entries_only(self, tmp_path):
        corpus = self._blessed(tmp_path)
        # A retired golden entry is pruned...
        stale = corpus.path / "retired-cell.json"
        survivor = corpus.entry_files()[0]
        stale.write_text(survivor.read_text())
        # ...but unrelated JSON in the directory is never deleted.
        bystander = corpus.path / "saved-results.json"
        bystander.write_text('{"records": []}')
        corpus.bless()
        assert not stale.exists()
        assert bystander.exists()


class TestConformanceCli:
    def test_run_and_bless_round_trip(self, tmp_path, capsys):
        corpus_dir = tmp_path / "golden"
        assert cli.main(["conformance", "bless", "--corpus", str(corpus_dir)]) == 0
        assert cli.main(["conformance", "run", "--corpus", str(corpus_dir)]) == 0
        out = capsys.readouterr().out
        assert "blessed" in out and "OK" in out

    def test_run_fails_on_drift(self, tmp_path, capsys):
        corpus_dir = tmp_path / "golden"
        corpus = ConformanceCorpus(corpus_dir)
        corpus.bless()
        victim = corpus.entry_files()[0]
        entry = json.loads(victim.read_text())
        entry["digest"] = "f" * 64
        victim.write_text(json.dumps(entry))
        assert cli.main(["conformance", "run", "--corpus", str(corpus_dir)]) == 1
        assert "FAILED" in capsys.readouterr().out

    def test_never_writes_user_result_cache(self, tmp_path, monkeypatch):
        # Satellite: $REPRO_RESULT_CACHE is honoured read-only; the cache
        # directory is not even created by verification commands.
        cache_dir = tmp_path / "user-cache"
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(cache_dir))
        corpus_dir = tmp_path / "golden"
        assert cli.main(["conformance", "bless", "--corpus", str(corpus_dir)]) == 0
        assert cli.main(["conformance", "run", "--corpus", str(corpus_dir)]) == 0
        assert not cache_dir.exists()

    def test_fuzz_cli_never_writes_user_result_cache(self, tmp_path, monkeypatch):
        cache_dir = tmp_path / "user-cache"
        monkeypatch.setenv("REPRO_RESULT_CACHE", str(cache_dir))
        report_dir = tmp_path / "fuzz-report"
        assert (
            cli.main(
                [
                    "fuzz",
                    "--budget",
                    "2",
                    "--seed",
                    "4",
                    "--quick",
                    "--report",
                    str(report_dir),
                ]
            )
            == 0
        )
        assert not cache_dir.exists()
        coverage = json.loads((report_dir / "coverage.json").read_text())
        assert coverage["cases_run"] == 2
        assert coverage["coverage_fraction"] > 0.0

    def test_fuzz_cli_rejects_malformed_budget(self, tmp_path, capsys):
        for bad in ("60m", "s", "-5", "0", "0s"):
            assert (
                cli.main(
                    ["fuzz", "--budget", bad, "--quick",
                     "--report", str(tmp_path / "r")]
                )
                == 2
            )
            assert "invalid --budget" in capsys.readouterr().err

    def test_fuzz_cli_min_coverage_gate(self, tmp_path):
        assert (
            cli.main(
                [
                    "fuzz",
                    "--budget",
                    "1",
                    "--seed",
                    "4",
                    "--quick",
                    "--min-coverage",
                    "0.99",
                    "--report",
                    str(tmp_path / "report"),
                ]
            )
            == 1
        )
