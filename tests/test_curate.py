"""Tests for the §3.4 dataset curation pipeline."""

import pytest

from repro.dataset import (
    PAPER_DATASET_SIZE,
    SyntaxDataset,
    SyntaxEntry,
    build_syntax_dataset,
    verilogeval,
)
from repro.diagnostics import ErrorCategory, compile_source


@pytest.fixture(scope="module")
def small_dataset():
    return build_syntax_dataset(
        verilogeval(), samples_per_problem=6, seed=0, target_size=60
    )


class TestBuildSyntaxDataset:
    def test_target_size_hit(self, small_dataset):
        assert len(small_dataset) == 60

    def test_default_target_is_paper_size(self):
        assert PAPER_DATASET_SIZE == 212

    def test_every_entry_fails_compilation(self, small_dataset):
        for entry in small_dataset:
            assert not compile_source(entry.code).ok, entry.problem_id

    def test_entries_have_module_text(self, small_dataset):
        for entry in small_dataset:
            assert "module" in entry.code
            assert entry.description

    def test_categories_recorded(self, small_dataset):
        for entry in small_dataset:
            assert entry.categories
            for category in entry.categories:
                ErrorCategory(category)  # a member of the taxonomy

    def test_category_diversity(self, small_dataset):
        hist = small_dataset.category_histogram()
        assert len(hist) >= 6  # many error classes represented

    def test_multiple_problems_represented(self, small_dataset):
        assert len({e.problem_id for e in small_dataset}) >= 15

    def test_stats_populated(self, small_dataset):
        stats = small_dataset.stats
        assert stats.sampled > 0
        assert stats.failing_kept > 0
        assert stats.clusters > 0
        assert stats.final == 60
        assert stats.compiled_ok > 0  # most samples compile

    def test_deterministic(self):
        a = build_syntax_dataset(verilogeval(), samples_per_problem=4, seed=5, target_size=30)
        b = build_syntax_dataset(verilogeval(), samples_per_problem=4, seed=5, target_size=30)
        assert [e.code for e in a] == [e.code for e in b]

    def test_different_seed_differs(self):
        a = build_syntax_dataset(verilogeval(), samples_per_problem=4, seed=5, target_size=30)
        b = build_syntax_dataset(verilogeval(), samples_per_problem=4, seed=6, target_size=30)
        assert [e.code for e in a] != [e.code for e in b]


class TestPersistence:
    def test_json_roundtrip(self, small_dataset):
        text = small_dataset.to_json()
        loaded = SyntaxDataset.from_json(text)
        assert len(loaded) == len(small_dataset)
        assert loaded.entries[0] == small_dataset.entries[0]

    def test_save_load(self, small_dataset, tmp_path):
        path = str(tmp_path / "ds.json")
        small_dataset.save(path)
        loaded = SyntaxDataset.load(path)
        assert [e.code for e in loaded] == [e.code for e in small_dataset]

    def test_entry_fields(self):
        entry = SyntaxEntry(
            problem_id="p", benchmark="human", description="d",
            code="module m; endmodule", categories=("missing-semicolon",),
        )
        assert ErrorCategory(entry.categories[0]) is ErrorCategory.MISSING_SEMICOLON
