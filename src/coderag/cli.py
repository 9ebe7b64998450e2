"""Command-line entry point: index, complete, evaluate, distill, bench-timings.

Exit codes: 0 success, 1 runtime failure, 2 usage or input error.  Every
flag defaults to the tuned value from :class:`coderag.config.RunConfig`;
``--help`` shows them.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .config import RunConfig, load_config, make_clients
from .dataflow import build_dataflow_graph, to_dot
from .distill import (
    DEFAULT_SAMPLE_SIZES,
    build_distillation_data,
    load_query_lists,
    save_samples,
)
from .errors import CodeRagError, EmptyRepository, IndexFormatError, PickerUnavailable
from .evaluation import (
    ADAPTERS,
    evaluate,
    failed_tasks_line,
    format_report,
    load_tasks,
    require_ground_truth,
    save_report,
    task_from_json,
)
from .fanout import FANOUT_WIDTH
from .pipeline import CompletionResult, CompletionTask, RepoIndex, complete, dump_artifacts
from .retrieve import ALL_PATHS

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# One flag per RunConfig field; ``paths`` is a comma list, added by hand.
_OVERRIDE_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig) if f.name != "paths")


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    defaults = RunConfig()
    parser.add_argument("--config", metavar="FILE", help="JSON config file")
    group = parser.add_argument_group("pipeline parameters")
    for name in _OVERRIDE_FIELDS:
        default = getattr(defaults, name)
        flag = "--" + name.replace("_", "-")
        kind = type(default)
        group.add_argument(
            flag, dest=name, type=kind, default=None,
            help=f"default: {default!r}",
        )
    group.add_argument(
        "--paths",
        default=None,
        help=f"comma-separated retrieval paths to enable (default: {','.join(ALL_PATHS)})",
    )


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if getattr(args, "config", None) else RunConfig()
    overrides = {
        name: getattr(args, name)
        for name in _OVERRIDE_FIELDS
        if getattr(args, name, None) is not None
    }
    if getattr(args, "paths", None) is not None:
        overrides["paths"] = tuple(p for p in args.paths.split(",") if p)
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


def _load_index(kb_dir: str) -> RepoIndex:
    try:
        return RepoIndex.load(kb_dir)
    except FileNotFoundError as exc:
        raise SystemExit(
            f"error: no index at {kb_dir} ({exc}); run `coderag index <repo> --out {kb_dir}` first"
        ) from exc
    except IndexFormatError as exc:
        raise SystemExit(f"error: {exc}") from exc


def cmd_index(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    clients = make_clients(cfg)
    try:
        index = RepoIndex.build(args.repo, clients.embedder)
    except EmptyRepository as exc:
        print(f"error: no source files: {exc}", file=sys.stderr)
        return EXIT_USAGE
    index.save(args.out)
    counts = index.kb.counts_by_kind()
    for kind, count in counts.items():
        print(f"{kind}: {count}")
    print(f"total: {len(index.kb)} items from {len(index.kb.file_manifest)} files")
    if index.kb.parse_errors:
        print(f"parse errors: {len(index.kb.parse_errors)}", file=sys.stderr)
        for failure in index.kb.parse_errors:
            print(f"  {failure.file_path}: {failure.diagnostic}", file=sys.stderr)
    return EXIT_OK


def _read_task(path: str) -> CompletionTask:
    with open(path, encoding="utf-8") as fh:
        return task_from_json(json.load(fh))


def cmd_complete(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    task = _read_task(args.task)
    index = _load_index(args.kb_dir)
    clients = make_clients(cfg)
    result = complete(task, index, clients, cfg)
    if args.dataflow_dot:
        Path(args.dataflow_dot).write_text(
            to_dot(build_dataflow_graph(task.prefix)) + "\n", encoding="utf-8"
        )
    if args.dump_dir:
        dump_artifacts(result, task, args.dump_dir, cfg.to_dict())
    print(result.generated)
    return EXIT_OK


def _load_dataset(args: argparse.Namespace) -> list[CompletionTask]:
    tasks = load_tasks(args.dataset, adapter=args.adapter)
    if not tasks:
        raise SystemExit("error: dataset is empty")
    return tasks


def _task_runner(tasks, kb_dir: str | None, cfg: RunConfig):
    """The one function that turns a task into its ``complete`` result or
    the exception it raised; ``KeyboardInterrupt`` and ``SystemExit`` are
    not task outcomes and propagate."""
    clients = make_clients(cfg)
    if kb_dir:
        shared = _load_index(kb_dir)
        indexes = {task.repo_root: shared for task in tasks}
    else:
        indexes = {}
        for task in tasks:
            if task.repo_root not in indexes:
                indexes[task.repo_root] = RepoIndex.build(task.repo_root, clients.embedder)

    def run(task: CompletionTask) -> CompletionResult | Exception:
        try:
            return complete(task, indexes[task.repo_root], clients, cfg)
        except Exception as exc:
            return exc

    return run


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    tasks = _load_dataset(args)
    require_ground_truth(tasks)  # before any model call
    run = _task_runner(tasks, args.kb_dir, cfg)
    # Tasks overlap at the fan-out width.  Every client make_clients builds
    # allows concurrent calls; wire requests are capped at this width, so
    # more task threads would only queue; and stub tasks hold the GIL, so
    # 2 and 4 threads took the same time (300 tasks, 2-vCPU host).  The
    # pool is not the fan-out pool, whose calls a task waits on.
    with ThreadPoolExecutor(max_workers=FANOUT_WIDTH) as pool:
        results = list(pool.map(run, tasks))  # by position: ids need not be unique
    report = evaluate(
        tasks, [r if isinstance(r, Exception) else r.generated for r in results]
    )
    print(format_report(report))
    if args.report:
        save_report(report, args.report)
        print(f"report written to {args.report}")
    return EXIT_OK


def cmd_distill(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    clients = make_clients(cfg)
    pairs = load_query_lists(getattr(args, "in"))
    sizes = tuple(int(s) for s in args.sizes.split(",") if s)
    try:
        samples = build_distillation_data(pairs, clients.picker, sizes, rng_seed=cfg.seed)
    except PickerUnavailable as exc:
        partial = getattr(exc, "partial_samples", [])
        save_samples(partial, args.out)
        print(
            f"error: picker unavailable ({exc}); flushed {len(partial)} partial samples to {args.out}",
            file=sys.stderr,
        )
        return EXIT_RUNTIME
    save_samples(samples, args.out)
    print(f"{len(samples)} samples from {len(pairs)} retrieval lists -> {args.out}")
    return EXIT_OK


def cmd_bench_timings(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    tasks = _load_dataset(args)
    run = _task_runner(tasks, args.kb_dir, cfg)

    # One task at a time on this thread: stage times are wall times, which
    # overlapping tasks would inflate, and Ctrl-C must stop the command at
    # once rather than wait for a pool worker to finish its task.
    sums: dict[str, float] = {}  # stage -> seconds, in execution order
    failed = 0
    for task in tasks:
        result = run(task)
        if isinstance(result, Exception):
            print(f"error: task {task.task_id}: {result}", file=sys.stderr)
            failed += 1
            continue
        for stage, seconds in result.timings.items():
            sums[stage] = sums.get(stage, 0.0) + seconds

    completed = len(tasks) - failed
    print(f"mean seconds per stage over {completed} tasks:")
    for stage, total in sums.items():
        enabled = stage not in ALL_PATHS or stage in cfg.paths
        value = f"{total / completed:.6f}" if enabled else "skipped"
        print(f"  {stage:<20} {value}")
    if failed:
        print(failed_tasks_line(failed, len(tasks)))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coderag",
        description="Repository-aware code completion engine",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_index = sub.add_parser("index", help="build the index directory of a repository")
    p_index.add_argument("repo", help="repository root to index")
    p_index.add_argument("--out", required=True, help="output directory")
    _add_config_flags(p_index)
    p_index.set_defaults(fn=cmd_index)

    p_complete = sub.add_parser("complete", help="complete one task")
    p_complete.add_argument("--task", required=True, help="task JSON file")
    p_complete.add_argument("--kb-dir", required=True, help="index directory")
    p_complete.add_argument("--dump-dir", help="write per-task stage artifacts here")
    p_complete.add_argument("--dataflow-dot", help="write the def-use graph as DOT")
    _add_config_flags(p_complete)
    p_complete.set_defaults(fn=cmd_complete)

    p_eval = sub.add_parser("evaluate", help="score a dataset")
    p_eval.add_argument("--report", help="write the metrics report JSON here")
    p_eval.set_defaults(fn=cmd_evaluate)

    p_distill = sub.add_parser("distill", help="emit reranker distillation samples")
    p_distill.add_argument("--in", required=True, help="retrieval lists (JSONL)")
    p_distill.add_argument("--out", required=True, help="output samples (JSONL)")
    default_sizes = ",".join(map(str, DEFAULT_SAMPLE_SIZES))
    p_distill.add_argument(
        "--sizes", default=default_sizes, help=f"candidate-set sizes (default: {default_sizes})"
    )
    _add_config_flags(p_distill)
    p_distill.set_defaults(fn=cmd_distill)

    p_bench = sub.add_parser("bench-timings", help="mean wall time per stage")
    p_bench.set_defaults(fn=cmd_bench_timings)

    for p_dataset in (p_eval, p_bench):
        p_dataset.add_argument("--dataset", required=True, help="line-delimited JSON tasks")
        p_dataset.add_argument("--kb-dir", help="prebuilt index shared by all tasks")
        p_dataset.add_argument("--adapter", choices=sorted(ADAPTERS), default="native")
        _add_config_flags(p_dataset)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse usage errors and --help
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return EXIT_USAGE
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    # A path that is missing, of the wrong kind or not permitted is a usage
    # error; other OSErrors are runtime failures.
    except (
        FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError, PermissionError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (json.JSONDecodeError, ValueError, KeyError) as exc:
        print(f"error: bad input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CodeRagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
