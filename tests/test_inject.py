"""Tests for the error injector: every category transform must produce
code that actually fails compilation with (mostly) the intended class."""

import random

import pytest

from repro.dataset.corpus import verilogeval
from repro.dataset.inject import (
    TRANSFORMS,
    ErrorInjector,
    verify_injection,
)
from repro.dataset.rtllm import rtllm
from repro.diagnostics import ErrorCategory, compile_source

CORPUS = verilogeval()
RTLLM = rtllm()

SEQ_REF = CORPUS.get("counter4_reset").reference
COMB_LOOP_REF = CORPUS.get("vector_reverse32").reference
HIER_REF = RTLLM.get("rtllm_adder16_hier").reference


class TestIndividualTransforms:
    def test_drop_clk_port_yields_undeclared(self):
        injector = ErrorInjector(seed=1)
        injection = injector.inject(SEQ_REF, ErrorCategory.UNDECLARED_ID)
        assert injection is not None
        assert ErrorCategory.UNDECLARED_ID in injection.observed

    def test_index_overflow(self):
        injector = ErrorInjector(seed=1)
        injection = injector.inject(
            CORPUS.get("vector_reverse8").reference, ErrorCategory.INDEX_RANGE
        )
        assert injection is not None
        assert ErrorCategory.INDEX_RANGE in injection.observed

    def test_loop_bound_off_by_one(self):
        from repro.dataset.inject import loop_bound_off_by_one

        mutated = loop_bound_off_by_one(COMB_LOOP_REF, random.Random(0))
        assert mutated is not None
        assert ErrorCategory.INDEX_RANGE in verify_injection(mutated)

    def test_drop_output_reg(self):
        injector = ErrorInjector(seed=1)
        injection = injector.inject(SEQ_REF, ErrorCategory.INVALID_LVALUE)
        assert injection is not None
        assert ErrorCategory.INVALID_LVALUE in injection.observed

    def test_missing_semicolon(self):
        injector = ErrorInjector(seed=1)
        injection = injector.inject(SEQ_REF, ErrorCategory.MISSING_SEMICOLON)
        assert injection is not None
        assert injection.observed  # compiler flags *something*

    def test_unbalanced_block(self):
        injector = ErrorInjector(seed=1)
        injection = injector.inject(SEQ_REF, ErrorCategory.UNBALANCED_BLOCK)
        assert injection is not None
        assert ErrorCategory.UNBALANCED_BLOCK in injection.observed

    def test_bad_literal(self):
        injector = ErrorInjector(seed=1)
        injection = injector.inject(SEQ_REF, ErrorCategory.BAD_LITERAL)
        assert injection is not None
        assert ErrorCategory.BAD_LITERAL in injection.observed

    def test_port_mismatch_on_hierarchical(self):
        injector = ErrorInjector(seed=1)
        injection = injector.inject(HIER_REF, ErrorCategory.PORT_MISMATCH)
        assert injection is not None
        assert ErrorCategory.PORT_MISMATCH in injection.observed

    def test_port_mismatch_not_applicable_to_flat(self):
        injector = ErrorInjector(seed=1)
        assert injector.inject(
            CORPUS.get("andgate").reference, ErrorCategory.PORT_MISMATCH
        ) is None

    def test_duplicate_declaration(self):
        injector = ErrorInjector(seed=1)
        injection = injector.inject(
            CORPUS.get("edge_detect_rise").reference, ErrorCategory.DUPLICATE_DECL
        )
        assert injection is not None
        assert ErrorCategory.DUPLICATE_DECL in injection.observed

    def test_c_style(self):
        injector = ErrorInjector(seed=1)
        injection = injector.inject(COMB_LOOP_REF, ErrorCategory.C_STYLE_SYNTAX)
        assert injection is not None
        assert ErrorCategory.C_STYLE_SYNTAX in injection.observed

    def test_event_expr(self):
        injector = ErrorInjector(seed=1)
        injection = injector.inject(SEQ_REF, ErrorCategory.EVENT_EXPR)
        assert injection is not None
        assert injection.observed

    def test_syntax_near(self):
        injector = ErrorInjector(seed=1)
        injection = injector.inject(
            CORPUS.get("andgate").reference, ErrorCategory.SYNTAX_NEAR
        )
        assert injection is not None
        assert injection.observed


@pytest.mark.parametrize("category", list(TRANSFORMS), ids=lambda c: c.value)
def test_every_category_applicable_somewhere(category):
    injector = ErrorInjector(seed=7)
    pool = list(CORPUS) + list(RTLLM)
    hits = 0
    for problem in pool:
        injection = injector.inject(problem.reference, category)
        if injection is not None:
            hits += 1
            assert injection.observed, f"{problem.id}: injected code compiles"
    assert hits > 0, f"no corpus problem supports {category}"


class TestInjectRandom:
    def test_single_error(self):
        injector = ErrorInjector(seed=3)
        injection = injector.inject_random(SEQ_REF)
        assert injection.observed
        assert not compile_source(injection.code).ok

    def test_multiple_errors(self):
        injector = ErrorInjector(seed=3)
        injection = injector.inject_random(SEQ_REF, n_errors=2)
        assert "+" in injection.transform or injection.transform
        assert injection.observed

    def test_deterministic_with_seed(self):
        a = ErrorInjector(seed=11).inject_random(SEQ_REF)
        b = ErrorInjector(seed=11).inject_random(SEQ_REF)
        assert a.code == b.code
