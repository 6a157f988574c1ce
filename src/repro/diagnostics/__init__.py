"""Compiler diagnostics: error catalog, renderers, and the compile facade.

The two renderers reproduce the feedback-quality contrast at the heart
of the paper's ablation (Fig. 5): the same underlying analysis rendered
as a terse iverilog log or as a verbose, tagged Quartus log.
"""

from .codes import (
    CATALOG,
    IVERILOG_CATEGORIES,
    QUARTUS_CATEGORIES,
    QUARTUS_TAG_RE,
    QUARTUS_TAG_TO_CATEGORY,
    CategoryInfo,
    ErrorCategory,
    quartus_tag,
)
from .compiler import (
    SIMPLE_FEEDBACK,
    Compiler,
    CompilerFlavor,
    CompileResult,
    compile_source,
)
from .diagnostic import Diagnostic, Severity

__all__ = [
    "CATALOG",
    "CategoryInfo",
    "Compiler",
    "CompileResult",
    "CompilerFlavor",
    "Diagnostic",
    "ErrorCategory",
    "IVERILOG_CATEGORIES",
    "QUARTUS_CATEGORIES",
    "QUARTUS_TAG_RE",
    "QUARTUS_TAG_TO_CATEGORY",
    "SIMPLE_FEEDBACK",
    "Severity",
    "compile_source",
    "quartus_tag",
]
