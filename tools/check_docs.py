#!/usr/bin/env python3
"""Documentation consistency checker (CI docs job).

Scans README.md and docs/*.md for two classes of rot:

  * unbalanced code fences — an odd number of ``` markers means a fence
    was opened and never closed (everything after it renders as code);
  * dangling repo paths — any `inline code` span or [link](target) that
    looks like a repository path (starts with a known top-level directory
    or names a tracked top-level file) must exist on disk. Brace groups
    expand (src/core/x.{hpp,cpp} checks both), trailing :line suffixes
    and punctuation are stripped.

It also cross-checks the workload-generator registry: every name passed to
register_workload_generator("...") in src/workload/generator.cpp must
appear in docs/scenarios.md, so a new backend cannot ship undocumented.

Same idea for the real-time CLI surface: every --clock mode offered by
tools/speedqm_tool.cpp must be shown as `--clock <mode>` somewhere in the
docs, and every real-time flag the tool parses (--wall-scale, the
--governor* family, --watchdog-retries) must appear as `--<flag>`. Both
checks fail loudly if the source patterns stop matching, so a parser
refactor cannot make them pass vacuously.

And for the batch-kernel CLI surface: every --kernel mode offered by
tools/speedqm_tool.cpp (the multitask and serve subcommands both parse
it) must be shown as `--kernel <mode>` in README.md, docs/architecture.md
or docs/perf.md — the dispatch docs this PR family maintains. Vacuous-pass
guarded like the others.

And for the ingest front-end: every front-end/SLO flag the tool parses
(--frontend, --slo-out, --slo-target) must appear as `--<flag>` in the
docs, and the SLO artifact schema name declared in src/serve/frontend.hpp
(kSloArtifactSchema) must be documented in docs/scenarios.md so the
artifact's consumers can find its contract. Vacuous-pass guarded the same
way: if the source patterns stop matching, the check fails.

And in the reverse direction, for the whole CLI: every `--<flag>` that
README.md's subcommand table lists must be read by tools/speedqm_tool.cpp
(through get/has/parse_choice), so a deleted flag cannot outlive its code
in the docs. Vacuous-pass guarded: a missing table, a table without
flags, or a tool without flag reads fails the check.

Paths under runtime-artifact directories (build/, bench_out/) and obvious
non-path code spans (spaces, (), no '/') are ignored, so prose stays free
to show commands and identifiers without tripping the gate.

Usage: check_docs.py [--root REPO_ROOT]     (exit 1 on any finding)
"""

import argparse
import itertools
import pathlib
import re
import sys

# A doc reference is only treated as a repo path when it starts with one of
# these directories (or is one of the tracked top-level files below).
REPO_DIRS = ("src/", "docs/", "tools/", "tests/", "bench/", "examples/",
             ".github/")
TOP_LEVEL_FILES = {
    "README.md", "ROADMAP.md", "PAPER.md", "PAPERS.md", "SNIPPETS.md",
    "CHANGES.md", "CMakeLists.txt", "ISSUE.md",
}
# Runtime artifacts: referenced in prose, produced by running the tools.
IGNORED_PREFIXES = ("build/", "bench_out/", "http://", "https://")

CODE_SPAN = re.compile(r"`([^`\n]+)`")
LINK_TARGET = re.compile(r"\]\(([^)\s]+)\)")
BRACE_GROUP = re.compile(r"\{([^{}]+)\}")


def expand_braces(path):
    """src/core/x.{hpp,cpp} -> [src/core/x.hpp, src/core/x.cpp]."""
    match = BRACE_GROUP.search(path)
    if not match:
        return [path]
    alternatives = match.group(1).split(",")
    head, tail = path[: match.start()], path[match.end():]
    return list(
        itertools.chain.from_iterable(
            expand_braces(head + alt + tail) for alt in alternatives
        )
    )


def candidate_paths(text):
    """Path-shaped references in one markdown document."""
    for regex in (CODE_SPAN, LINK_TARGET):
        for raw in regex.findall(text):
            token = raw.strip().rstrip(".,;:")
            # Strip :line / :line:col suffixes (file.cpp:123).
            token = re.sub(r":\d+(?::\d+)?$", "", token)
            if " " in token or "(" in token or token.startswith("-"):
                continue
            # Placeholder templates and wildcards are documentation
            # notation, not paths (BENCH_<name>.json, docs/*.md).
            if any(c in token for c in "<>*"):
                continue
            if token.startswith(IGNORED_PREFIXES):
                continue
            if token in TOP_LEVEL_FILES or token.startswith(REPO_DIRS):
                yield from expand_braces(token)


def check_file(doc, root):
    problems = []
    text = doc.read_text(encoding="utf-8")

    fence_count = sum(
        1 for line in text.splitlines() if line.lstrip().startswith("```")
    )
    if fence_count % 2 != 0:
        problems.append(f"{doc.relative_to(root)}: unbalanced code fences "
                        f"({fence_count} ``` markers)")

    # Only check references outside fenced blocks for links; code fences
    # legitimately show shell output with fabricated names — but inline
    # spans inside fences are not parsed as spans anyway, so split fences
    # out first.
    outside = []
    in_fence = False
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if not in_fence:
            outside.append(line)
    for token in candidate_paths("\n".join(outside)):
        if not (root / token).exists():
            problems.append(f"{doc.relative_to(root)}: referenced path "
                            f"'{token}' does not exist")
    return problems


GENERATOR_REGISTRATION = re.compile(
    r'register_workload_generator\("([a-z0-9-]+)"'
)


def check_generator_docs(root):
    """Every registered workload-generator name must be documented."""
    source = root / "src" / "workload" / "generator.cpp"
    doc = root / "docs" / "scenarios.md"
    if not source.exists():
        return [f"{source.relative_to(root)}: missing (generator registry "
                "cross-check has nothing to scan)"]
    names = GENERATOR_REGISTRATION.findall(
        source.read_text(encoding="utf-8"))
    if not names:
        return [f"{source.relative_to(root)}: no "
                "register_workload_generator(\"...\") calls found — the "
                "registry cross-check would pass vacuously"]
    if not doc.exists():
        return [f"{doc.relative_to(root)}: missing, but "
                f"{len(names)} generator names need documenting"]
    text = doc.read_text(encoding="utf-8")
    return [
        f"docs/scenarios.md: workload generator '{name}' is registered in "
        f"src/workload/generator.cpp but never documented"
        for name in names
        if name not in text
    ]


# The tool's clock-mode choice list and its real-time flag reads. Scoped
# to the realtime flag families so unrelated `get(args, ...)` lookups
# (e.g. --tasks) stay out of this check's jurisdiction.
CLOCK_MODES = re.compile(
    r'parse_choice\(args,\s*"clock",\s*"[a-z]+",\s*\{([^}]*)\}'
)
REALTIME_FLAG = re.compile(
    r'(?:get|parse_choice)\(args,\s*'
    r'"((?:wall-scale|governor|watchdog)[a-z-]*)"'
)


def check_realtime_docs(root):
    """Every --clock mode and real-time flag must be documented."""
    source = root / "tools" / "speedqm_tool.cpp"
    if not source.exists():
        return [f"{source.relative_to(root)}: missing (real-time CLI "
                "cross-check has nothing to scan)"]
    text = source.read_text(encoding="utf-8")

    modes_match = CLOCK_MODES.search(text)
    if not modes_match:
        return ["tools/speedqm_tool.cpp: no --clock parse_choice found — "
                "the clock-mode cross-check would pass vacuously"]
    modes = [m.strip().strip('"')
             for m in modes_match.group(1).split(",") if m.strip()]
    flags = sorted(set(REALTIME_FLAG.findall(text)))
    if not flags:
        return ["tools/speedqm_tool.cpp: no real-time flag reads found — "
                "the flag cross-check would pass vacuously"]

    doc_paths = ("README.md", "docs/architecture.md", "docs/scenarios.md")
    docs_text = "\n".join(
        (root / p).read_text(encoding="utf-8")
        for p in doc_paths if (root / p).exists()
    )
    problems = []
    for mode in modes:
        if f"--clock {mode}" not in docs_text:
            problems.append(
                f"docs: clock mode '{mode}' is offered by speedqm_tool but "
                f"'--clock {mode}' never appears in {', '.join(doc_paths)}"
            )
    for flag in flags:
        if f"--{flag}" not in docs_text:
            problems.append(
                f"docs: real-time flag '--{flag}' is parsed by speedqm_tool "
                f"but never appears in {', '.join(doc_paths)}"
            )
    return problems


# The serve front-end / SLO CLI surface and the artifact schema constant.
# Scoped to the frontend/slo flag family, mirroring REALTIME_FLAG.
FRONTEND_FLAG = re.compile(
    r'(?:get|parse_choice)\(args,\s*"((?:frontend|slo)[a-z-]*)"'
)
SLO_SCHEMA = re.compile(
    r'kSloArtifactSchema\[\]\s*=\s*"([a-z0-9-]+)"'
)


def check_frontend_docs(root):
    """Every front-end/SLO flag and the artifact schema must be documented."""
    tool = root / "tools" / "speedqm_tool.cpp"
    header = root / "src" / "serve" / "frontend.hpp"
    if not tool.exists():
        return [f"{tool.relative_to(root)}: missing (front-end CLI "
                "cross-check has nothing to scan)"]
    if not header.exists():
        return [f"{header.relative_to(root)}: missing (SLO artifact schema "
                "cross-check has nothing to scan)"]

    flags = sorted(set(FRONTEND_FLAG.findall(
        tool.read_text(encoding="utf-8"))))
    if not flags:
        return ["tools/speedqm_tool.cpp: no front-end/SLO flag reads found "
                "— the front-end flag cross-check would pass vacuously"]
    schema_match = SLO_SCHEMA.search(header.read_text(encoding="utf-8"))
    if not schema_match:
        return ["src/serve/frontend.hpp: no kSloArtifactSchema constant "
                "found — the schema cross-check would pass vacuously"]
    schema = schema_match.group(1)

    doc_paths = ("README.md", "docs/architecture.md", "docs/scenarios.md")
    docs_text = "\n".join(
        (root / p).read_text(encoding="utf-8")
        for p in doc_paths if (root / p).exists()
    )
    problems = []
    for flag in flags:
        if f"--{flag}" not in docs_text:
            problems.append(
                f"docs: front-end flag '--{flag}' is parsed by speedqm_tool "
                f"but never appears in {', '.join(doc_paths)}"
            )
    scenarios = root / "docs" / "scenarios.md"
    scenarios_text = (scenarios.read_text(encoding="utf-8")
                      if scenarios.exists() else "")
    if schema not in scenarios_text:
        problems.append(
            f"docs/scenarios.md: SLO artifact schema '{schema}' "
            "(kSloArtifactSchema in src/serve/frontend.hpp) is never "
            "documented — artifact consumers have no contract to read"
        )
    return problems


# The batch-kernel choice lists (multitask + serve both parse --kernel).
# findall, not search: every call site contributes its modes, so a mode
# added to one subcommand but not the docs still fails.
KERNEL_MODES = re.compile(
    r'parse_choice\(\s*args,\s*"kernel",\s*"[a-z]+",\s*\{([^}]*)\}'
)


def check_kernel_docs(root):
    """Every --kernel mode offered by speedqm_tool must be documented."""
    source = root / "tools" / "speedqm_tool.cpp"
    if not source.exists():
        return [f"{source.relative_to(root)}: missing (kernel CLI "
                "cross-check has nothing to scan)"]
    groups = KERNEL_MODES.findall(source.read_text(encoding="utf-8"))
    if not groups:
        return ["tools/speedqm_tool.cpp: no --kernel parse_choice found — "
                "the kernel-mode cross-check would pass vacuously"]
    modes = sorted({m.strip().strip('"')
                    for group in groups
                    for m in group.split(",") if m.strip()})

    doc_paths = ("README.md", "docs/architecture.md", "docs/perf.md")
    docs_text = "\n".join(
        (root / p).read_text(encoding="utf-8")
        for p in doc_paths if (root / p).exists()
    )
    return [
        f"docs: kernel mode '{mode}' is offered by speedqm_tool but "
        f"'--kernel {mode}' never appears in {', '.join(doc_paths)}"
        for mode in modes
        if f"--kernel {mode}" not in docs_text
    ]


# Every flag the tool reads, and the `--flag` spans of the README's
# subcommand table (the rows after its `| subcommand |` header).
TOOL_FLAG_READ = re.compile(
    r'(?:get|has|parse_choice)\(\s*args,\s*"([a-z][a-z0-9-]*)"'
)
DOC_FLAG = re.compile(r"--([a-z][a-z0-9-]*)")


def check_readme_flags_read(root):
    """Every --flag in README.md's subcommand table must be read by the tool."""
    readme = root / "README.md"
    tool = root / "tools" / "speedqm_tool.cpp"
    if not readme.exists() or not tool.exists():
        return ["README.md or tools/speedqm_tool.cpp missing (README flag "
                "cross-check has nothing to scan)"]
    rows = []
    for line in readme.read_text(encoding="utf-8").splitlines():
        if rows and not line.startswith("|"):
            break
        if rows or line.startswith("| subcommand |"):
            rows.append(line)
    if not rows:
        return ["README.md: no '| subcommand |' table found — the README "
                "flag cross-check would pass vacuously"]
    flags = sorted(set(DOC_FLAG.findall("\n".join(rows))))
    if not flags:
        return ["README.md: the subcommand table lists no --flags — the "
                "README flag cross-check would pass vacuously"]
    read = set(TOOL_FLAG_READ.findall(tool.read_text(encoding="utf-8")))
    if not read:
        return ["tools/speedqm_tool.cpp: no get/has/parse_choice flag reads "
                "found — the README flag cross-check would pass vacuously"]
    return [
        f"README.md: the subcommand table lists '--{flag}' but "
        f"tools/speedqm_tool.cpp never reads it"
        for flag in flags
        if flag not in read
    ]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repo root (default: the script's parent's parent)")
    args = parser.parse_args()
    root = (pathlib.Path(args.root).resolve() if args.root
            else pathlib.Path(__file__).resolve().parent.parent)

    docs = sorted((root / "docs").glob("*.md")) if (root / "docs").is_dir() else []
    readme = root / "README.md"
    if readme.exists():
        docs.insert(0, readme)
    if not docs:
        print("error: no documentation files found", file=sys.stderr)
        return 1

    problems = []
    for doc in docs:
        problems.extend(check_file(doc, root))
    problems.extend(check_generator_docs(root))
    problems.extend(check_realtime_docs(root))
    problems.extend(check_frontend_docs(root))
    problems.extend(check_kernel_docs(root))
    problems.extend(check_readme_flags_read(root))

    for problem in problems:
        print(f"DOCS-FAIL: {problem}")
    if not problems:
        checked = ", ".join(str(d.relative_to(root)) for d in docs)
        print(f"DOCS-OK: {len(docs)} files checked ({checked})")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
