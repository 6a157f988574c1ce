"""Rule-based pre-fixer.

The paper's setup applies "a simple rule-based syntax fixer ... to every
LLM-generated verilog code, which avoids simple errors such as misplaced
timescale derivatives".  This module implements that pass:

* extract the Verilog from markdown code fences / surrounding prose;
* keep only the region from the first ``module`` to the last
  ``endmodule`` (dropping trailing chatter);
* hoist any ```` `timescale ```` directive that appears *inside* a
  module body back to the top of the file;
* strip non-ASCII junk that some models emit.

It never attempts real repairs -- that is the agent's job.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

_FENCE_RE = re.compile(r"```(?:[a-zA-Z]*)\n(.*?)```", re.DOTALL)
_MODULE_DECL_RE = re.compile(r"\bmodule\s+\w+\s*(?:\(|;|#)")
_MODULE_RE = re.compile(r"\bmodule\b")


@dataclass(frozen=True)
class RuleFixResult:
    code: str
    #: True when a module declaration was found at all.
    has_module: bool
    extracted_from_markdown: bool = False
    moved_timescale: bool = False


def extract_code(raw: str) -> tuple[str, bool]:
    """Pull Verilog out of a chat-style answer.

    Returns (code, was_markdown).  Prefers fenced blocks containing a
    ``module``; otherwise slices from the first ``module`` keyword to the
    last ``endmodule``.
    """
    if "```" in raw:
        for fence in _FENCE_RE.findall(raw):
            if "module" in fence:
                return fence, True
    # Require a declaration-shaped occurrence so prose like "the module
    # below..." is not mistaken for code.
    match = _MODULE_DECL_RE.search(raw)
    if match is None:
        match = _MODULE_RE.search(raw)
    if match is None:
        return raw, False
    # Keep compiler directives (`timescale, `define...) that precede the
    # module declaration.
    directives = [
        line
        for line in raw[: match.start()].split("\n")
        if line.lstrip().startswith("`")
    ]
    prefix = "".join(d + "\n" for d in directives)
    end = raw.rfind("endmodule")
    if end == -1:
        return prefix + raw[match.start() :], False
    return prefix + raw[match.start() : end + len("endmodule")], False


def hoist_timescale(code: str) -> tuple[str, bool]:
    """Move a `timescale that appears after the first ``module`` keyword
    to the top of the file."""
    if "`timescale" not in code:
        return code, False
    module_pos = code.find("module")
    lines = code.split("\n")
    moved = False
    ts_lines = []
    offset = 0
    kept = []
    for line in lines:
        is_ts = line.lstrip().startswith("`timescale")
        if is_ts and module_pos != -1 and offset > module_pos:
            ts_lines.append(line.strip())
            moved = True
        else:
            kept.append(line)
        offset += len(line) + 1
    if not moved:
        return code, False
    return "\n".join(ts_lines + kept), True


def strip_non_ascii(code: str) -> str:
    """Drop non-ASCII characters some chat models emit."""
    return code.encode("ascii", "ignore").decode("ascii")


def rule_fix(raw: str) -> RuleFixResult:
    """Run the full rule-based pass over a raw LLM answer."""
    code, was_markdown = extract_code(raw)
    code = strip_non_ascii(code)
    code, moved = hoist_timescale(code)
    if not code.endswith("\n"):
        code += "\n"
    return RuleFixResult(
        code=code,
        has_module="module" in code,
        extracted_from_markdown=was_markdown,
        moved_timescale=moved,
    )


def validate_module_text(code: str) -> bool:
    """The §3.4 filter: a plausible module declaration with a non-empty
    body and a closing endmodule."""
    match = re.search(r"\bmodule\b.*?;(.*?)\bendmodule\b", code, re.DOTALL)
    if match is None:
        return False
    body = match.group(1).strip()
    return bool(body)
