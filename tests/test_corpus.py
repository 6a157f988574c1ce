"""Corpus sanity: every reference implementation must compile cleanly
and pass its own differential testbench."""

import pytest

from repro.dataset.corpus import verilogeval
from repro.dataset.rtllm import rtllm
from repro.diagnostics import compile_source
from repro.sim import run_differential

VERILOGEVAL = verilogeval()
RTLLM = rtllm()
ALL_PROBLEMS = list(VERILOGEVAL) + list(RTLLM)


@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: p.id)
def test_reference_compiles(problem):
    result = compile_source(problem.reference)
    assert result.ok, f"{problem.id}: {result.log}"


@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: p.id)
def test_reference_self_differential(problem):
    elab = compile_source(problem.reference).elaborated
    result = run_differential(elab, elab, samples=24, seed=1)
    assert result.passed, f"{problem.id}: {result.summary()}"


@pytest.mark.parametrize("problem", ALL_PROBLEMS, ids=lambda p: p.id)
def test_header_matches_reference(problem):
    # The header handed to the generator must be a prefix-compatible
    # declaration of the reference's top module.
    assert problem.header.startswith("module ")
    head_name = problem.header.split()[1].strip("(")
    assert head_name in problem.reference
    assert problem.human_desc and problem.machine_desc


class TestProblemSets:
    def test_verilogeval_size_and_split(self):
        assert len(VERILOGEVAL) >= 40
        easy = [p for p in VERILOGEVAL if p.difficulty == "easy"]
        hard = [p for p in VERILOGEVAL if p.difficulty == "hard"]
        assert len(easy) + len(hard) == len(VERILOGEVAL)
        assert len(easy) >= 15 and len(hard) >= 15

    def test_rtllm_has_hierarchical_designs(self):
        hier = [p for p in RTLLM if p.reference.count("module ") > 1]
        assert len(hier) >= 2

    def test_unique_ids(self):
        ids = [p.id for p in ALL_PROBLEMS]
        assert len(set(ids)) == len(ids)

    def test_get_and_missing(self):
        from repro.errors import DatasetError

        assert VERILOGEVAL.get("dff").kind == "seq"
        with pytest.raises(DatasetError):
            VERILOGEVAL.get("nope")
