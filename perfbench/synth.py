"""Deterministic synthetic repositories and completion tasks.

Everything here is a pure function of the seed: the same seed gives the
same files byte for byte and the same tasks.  The program under test sees
only what this module writes to disk and the task objects it returns.

Repository shape: ``pkg_<p>/mod_<i>.py`` files, each holding two module
constants, some top-level functions and, optionally, one class with two
class variables and some methods.  With the defaults (six functions, five
methods) every file yields 15 knowledge items.

Task shape: the unfinished file ends inside a function whose last line
opens a call to one *target* function of the repository.  The target's
definition is the gold item.  Half of the tasks import the target, so the
dataflow path can reach it; the other half only share identifiers with
it (its name on the cursor line, its parameter names in the enclosing
function), so only the sparse and dense paths can find it.  Prefix
lengths are spread evenly over about 10 to 120 lines, in a seeded order,
so that probe-chunk counts vary from task to task while their spread is
the same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

FUNCS_PER_FILE = 6
METHODS_PER_CLASS = 5
MODULES_PER_PACKAGE = 25
PREFIX_LINES = (10, 120)
TASK_FILE_DIR = "app"  # tasks live outside the indexed tree

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class Function:
    """A generated top-level function and where it lives."""

    name: str
    params: tuple[str, str]
    module: str  # dotted module path, e.g. "pkg_0.mod_3"
    file_path: str  # repo-relative path


@dataclass(frozen=True)
class Task:
    """One completion case over a synthetic repository."""

    task_id: str
    file_path: str
    prefix: str
    ground_truth: str
    target: str  # name of the gold function


def random_words(rng: random.Random, size: int) -> list[str]:
    """``size`` distinct pronounceable words of two or three syllables."""
    words: set[str] = set()
    while len(words) < size:
        syllables = rng.randint(2, 3)
        words.add("".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(syllables)))
    return sorted(words)


class Vocabulary:
    """Identifiers built from a word list, and compound names that are
    unique among those in ``used``."""

    def __init__(self, rng: random.Random, words: list[str], used: set[str] | None = None):
        self.words = words
        self.rng = rng
        self._used = used if used is not None else set()

    def word(self) -> str:
        return self.rng.choice(self.words)

    def ident(self, parts: int = 2) -> str:
        return "_".join(self.word() for _ in range(parts))

    def unique(self, parts: int = 3) -> str:
        """A compound name never returned before by this vocabulary."""
        while True:
            name = self.ident(parts)
            if name not in self._used:
                self._used.add(name)
                return name


def function_source(vocab: Vocabulary, name: str, params: tuple[str, str], callee: str,
                    const: str, body_lines: int = 4) -> str:
    """A small top-level function that uses its parameters, a module
    constant and one sibling function; ``body_lines`` sets its length."""
    a, b = params
    local = vocab.ident()
    lines = [
        f"def {name}({a}, {b}):",
        f"    {local} = {a} + {const}",
    ]
    for _ in range(max(0, body_lines - 4)):
        extra = vocab.ident()
        lines.append(f"    {extra} = {local} * {vocab.rng.randint(2, 9)}")
        local = extra
    lines += [
        f"    if {local} > {vocab.rng.randint(10, 99)}:",
        f"        return {callee}({local}, {b})" if callee else f"        return {local} - {b}",
        f"    return {local} * {vocab.rng.randint(2, 9)} + {b}",
    ]
    return "\n".join(lines)


def module_source(vocab: Vocabulary, funcs: list[Function], methods: int,
                  body_lines: int = 4) -> str:
    """Source of one module; the last function gets ``body_lines``."""
    rng = vocab.rng
    consts = [vocab.ident().upper() for _ in range(2)]
    blocks = [
        f'"""{" ".join(vocab.word() for _ in range(6)).capitalize()}."""',
        f"{consts[0]} = {rng.randint(1, 500)}\n{consts[1]} = \"{vocab.word()}\"",
    ]
    for i, fn in enumerate(funcs):
        callee = funcs[i - 1].name if i else ""
        lines = body_lines if i == len(funcs) - 1 else 4
        blocks.append(function_source(vocab, fn.name, fn.params, callee, consts[0], lines))
    if methods:
        blocks.append(_class_source(vocab, methods))
    return "\n\n\n".join(blocks) + "\n"


def _class_source(vocab: Vocabulary, methods: int) -> str:
    rng = vocab.rng
    cls = vocab.ident().title().replace("_", "")
    members = [
        f"class {cls}:",
        f"    {vocab.ident()} = {rng.randint(0, 64)}",
        f"    {vocab.ident()} = \"{vocab.word()}\"",
    ]
    for _ in range(methods):
        arg, local = vocab.ident(), vocab.ident()
        members += [
            "",
            f"    def {vocab.ident()}(self, {arg}):",
            f"        {local} = self.{vocab.ident()}({arg})",
            f"        return {local} + {rng.randint(1, 9)}",
        ]
    return "\n".join(members)


def write_repo(root: Path, files: int, seed: int, funcs_per_file: int = FUNCS_PER_FILE,
               methods_per_class: int = METHODS_PER_CLASS) -> tuple[list[Function], list[str]]:
    """Write ``files`` modules under ``root``; returns every top-level
    function, in file order, and the repository's word list.  The word
    list grows with the repository so that identifier sharing stays
    comparable across sizes."""
    rng = random.Random(f"repo:{seed}:{files}:{funcs_per_file}:{methods_per_class}")
    vocab = Vocabulary(rng, random_words(rng, max(400, files // 2)))
    functions: list[Function] = []
    for i in range(files):
        package = f"pkg_{i // MODULES_PER_PACKAGE}"
        module = f"{package}.mod_{i % MODULES_PER_PACKAGE}"
        rel = module.replace(".", "/") + ".py"
        funcs = [
            Function(vocab.unique(), (vocab.ident(), vocab.ident()), module, rel)
            for _ in range(funcs_per_file)
        ]
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(module_source(vocab, funcs, methods_per_class), encoding="utf-8")
        functions.extend(funcs)
    for package in {f.module.split(".")[0] for f in functions}:
        (root / package / "__init__.py").write_text("", encoding="utf-8")
    return functions, vocab.words


def prefix_lengths(rng: random.Random, count: int) -> list[int]:
    """``count`` prefix lengths evenly spaced over ``PREFIX_LINES``, shuffled."""
    lo, hi = PREFIX_LINES
    lengths = [lo + (hi - lo) * k // max(1, count - 1) for k in range(count)]
    rng.shuffle(lengths)
    return lengths


def make_task(rng: random.Random, task_id: str, target: Function, imports_target: bool,
              others: list[Function], want: int) -> Task:
    """An unfinished file of about ``want`` lines whose cursor line opens
    a call to ``target``.

    Filler functions (built from other repository functions' names) pad
    the prefix; two distractor imports sit beside the target's import in
    every task.
    """
    vocab = Vocabulary(rng, random_words(rng, 400))
    distractors = rng.sample(others, 2)
    header = [f'"""{" ".join(vocab.word() for _ in range(5)).capitalize()}."""', ""]
    for fn in distractors + ([target] if imports_target else []):
        header.append(f"from {fn.module} import {fn.name}")
    header += ["", ""]

    a, b = target.params
    local = vocab.ident()
    tail = [
        f"def {vocab.ident()}({a}, {b}):",
        f"    {local} = {a} + {rng.randint(1, 9)}",
        f"    result = {target.name}(",
    ]
    filler: list[str] = []
    while len(header) + len(filler) + len(tail) + 7 <= want:
        fn = rng.choice(distractors)
        source = function_source(vocab, vocab.ident(3), fn.params, fn.name, str(rng.randint(1, 9)))
        filler += source.split("\n") + ["", ""]
    prefix = "\n".join(header + filler + tail)
    return Task(
        task_id=task_id,
        file_path=f"{TASK_FILE_DIR}/{task_id}.py",
        prefix=prefix,
        ground_truth=f"    result = {target.name}({local}, {b})",
        target=target.name,
    )


def make_tasks(functions: list[Function], count: int, seed: int) -> list[Task]:
    """``count`` tasks over distinct targets; even-numbered tasks import
    their target, odd-numbered ones do not."""
    rng = random.Random(f"tasks:{seed}:{len(functions)}")
    targets = rng.sample(functions, count)
    lengths = prefix_lengths(rng, count)
    return [
        make_task(rng, f"t{i:04d}", target, i % 2 == 0, functions, want)
        for i, (target, want) in enumerate(zip(targets, lengths))
    ]


@dataclass(frozen=True)
class Edit:
    """One rewrite of the edited file and the task that needs it."""

    function: Function  # the newly named function the rewrite introduces
    source: bytes  # the edited file's new content
    task: Task


def make_edits(functions: list[Function], words: list[str], count: int, seed: int,
               methods_per_class: int) -> list[Edit]:
    """``count`` rewrites of the file holding ``functions[-1]``, in a
    repository written with ``methods_per_class``.

    Rewrite ``i`` replaces that file's last function with a newly named
    one, named from the repository's ``words`` (so the repository keeps
    its size and vocabulary), whose body length, and hence
    line span and item id, varies from edit to edit.  Each rewrite comes
    with a task whose cursor line calls the new function; even-numbered
    tasks import it.
    """
    rng = random.Random(f"edits:{seed}:{len(functions)}")
    home = functions[-1]
    siblings = [f for f in functions if f.file_path == home.file_path][:-1]
    others = [f for f in functions if f.file_path != home.file_path]
    vocab = Vocabulary(rng, words, used={f.name for f in functions})
    lengths = prefix_lengths(rng, count)
    edits: list[Edit] = []
    for i in range(count):
        fn = Function(vocab.unique(), (vocab.ident(), vocab.ident()), home.module, home.file_path)
        source = module_source(vocab, siblings + [fn], methods_per_class, body_lines=4 + i % 3)
        task = make_task(rng, f"e{i:04d}", fn, i % 2 == 0, others, lengths[i])
        edits.append(Edit(fn, source.encode("utf-8"), task))
    return edits
