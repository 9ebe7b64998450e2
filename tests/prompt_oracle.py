"""Reference prompt assembly the budgeted trim is held to."""

from __future__ import annotations

import math
from typing import Sequence

from coderag.errors import BudgetImpossible
from coderag.pipeline import APPROX_COUNT_MARGIN, SNIPPET_HEADER, token_counter


def linear_assemble_prompt(
    snippets: Sequence[tuple[str, str]], prefix: str, budget: int, generator, reserve: int
) -> str:
    """Drop snippets lowest rank first, then prefix lines one at a time
    from the top, recounting the whole prompt after each drop."""
    count, exact = token_counter(generator)
    effective = budget - reserve
    if not exact:
        effective = math.floor(effective * APPROX_COUNT_MARGIN)
    if effective < 1:
        raise BudgetImpossible(f"budget {budget} leaves no room after the reserve")

    def compose(blocks: Sequence[str], tail: str) -> str:
        if not blocks:
            return tail
        return "\n\n".join(blocks) + "\n\n" + tail

    kept = [SNIPPET_HEADER.format(path=path) + "\n" + text for path, text in snippets]
    while kept and count(compose(kept, prefix)) > effective:
        kept.pop()

    prompt = compose(kept, prefix)
    if count(prompt) <= effective:
        return prompt

    prefix_lines = prefix.split("\n")
    while len(prefix_lines) > 1 and count(compose(kept, "\n".join(prefix_lines))) > effective:
        prefix_lines.pop(0)
    prompt = compose(kept, "\n".join(prefix_lines))
    if count(prompt) > effective:
        raise BudgetImpossible("the cursor line alone exceeds the available budget")
    return prompt
