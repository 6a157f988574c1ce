"""ReAct transcripts: Thought / Action / Observation traces (Fig. 2c).

The transcript is the repair engine's output format, shared by every
oracle/proposer configuration, so it lives with the engine rather than
with any one agent.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Turn:
    """One Thought-Action-Observation step."""

    index: int
    thought: str
    action: str  # "Compiler" | "Simulator" | "RAG" | "RuleFix" | "Finish"
    action_input: str
    observation: str


@dataclass
class Transcript:
    """The full interaction trace of one debugging session."""

    turns: list[Turn] = field(default_factory=list)

    def add(self, thought: str, action: str, action_input: str, observation: str) -> Turn:
        turn = Turn(
            index=len(self.turns) + 1,
            thought=thought,
            action=action,
            action_input=action_input,
            observation=observation,
        )
        self.turns.append(turn)
        return turn

    def __len__(self) -> int:
        return len(self.turns)

    def render(self, max_chars_per_field: int = 400) -> str:
        """Human-readable rendering in the paper's Fig. 2c style."""

        def clip(text: str) -> str:
            text = text.strip()
            if len(text) > max_chars_per_field:
                return text[: max_chars_per_field - 3] + "..."
            return text

        blocks = []
        for turn in self.turns:
            blocks.append(
                f"Thought {turn.index}: {clip(turn.thought)}\n"
                f"Action {turn.index}: {turn.action}[{clip(turn.action_input)}]\n"
                f"Observation {turn.index}: {clip(turn.observation) or '(compile passed)'}"
            )
        return "\n\n".join(blocks)
