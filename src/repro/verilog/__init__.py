"""Verilog front-end: lexer, preprocessor, parser and elaborator.

This package is the stand-in for the parsing/analysis half of iverilog
and Quartus in the paper's setup (see DESIGN.md).  Typical use goes
through :func:`repro.diagnostics.compile_source`, which wires these
stages together and renders diagnostics in a chosen compiler flavour.
"""

from .ast import Design, Module
from .elaborate import ElabDesign, ElabModule, const_eval, elaborate
from .lexer import Lexer, tokenize
from .limits import (
    DEFAULT_LIMITS,
    FUZZ_LIMITS,
    LIMIT_KINDS,
    LimitTracker,
    ResourceLimits,
)
from .literal import ParsedLiteral, parse_literal
from .parser import Parser, parse
from .preprocessor import PreprocessResult, preprocess
from .source import SourceFile, Span
from .symbols import Scope, Symbol
from .writer import write_design, write_expr, write_module, write_stmt

__all__ = [
    "DEFAULT_LIMITS",
    "Design",
    "ElabDesign",
    "ElabModule",
    "FUZZ_LIMITS",
    "LIMIT_KINDS",
    "Lexer",
    "LimitTracker",
    "Module",
    "ParsedLiteral",
    "Parser",
    "PreprocessResult",
    "ResourceLimits",
    "Scope",
    "SourceFile",
    "Span",
    "Symbol",
    "const_eval",
    "elaborate",
    "parse",
    "parse_literal",
    "preprocess",
    "tokenize",
    "write_design",
    "write_expr",
    "write_module",
    "write_stmt",
]
