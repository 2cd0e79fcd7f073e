#!/usr/bin/env python3
"""Project-specific invariant lints the generic tools cannot express.

Companion to the compiler-level gates (clang -Werror=thread-safety,
clang-tidy, -Wconversion): these rules encode *repo* conventions, so they
run everywhere — python3 tools/lint_invariants.py — with no compiler
involved. CI runs this in the static-analysis job; rationale and the
how-to-extend guide live in docs/STATIC_ANALYSIS.md.

Rules:

  R1 raw-mmap      `mmap(`/`munmap(` calls only inside src/util/ — every
                   other layer goes through MappedFile, whose RAII +
                   bounds-checked spans are what the "validate before
                   alias" contract audits.
  R2 raw-mutex     no `std::mutex` / `std::condition_variable` /
                   `std::lock_guard` / `std::unique_lock` /
                   `std::scoped_lock` in src/ outside
                   src/util/thread_annotations.h. The clang thread-safety
                   analysis can only follow the annotated koko::Mutex /
                   MutexLock / CondVar wrappers; a raw std::mutex would be
                   invisible to the lock-discipline gate.
  R3 guarded-by    every `Mutex` member declared in src/ must have at
                   least one KOKO_GUARDED_BY(that_mutex) /
                   KOKO_REQUIRES(that_mutex) / KOKO_ACQUIRE(that_mutex)
                   in the same file — a mutex protecting nothing is either
                   dead or (worse) protecting something unannotated.
  R4 test-labels   every tests/*_test.cpp is registered in CMakeLists.txt
                   via koko_add_test(<name> LABELS <at least one>), so new
                   suites cannot silently miss the CI label matrix.
  R5 bench-schema  every BENCH json field name emitted by bench/*.cpp
                   (SetMeta keys and AddEntry value keys) is documented in
                   docs/BENCH_SCHEMA.md — the JSON artifacts are consumed
                   across PRs, so field names are a versioned contract.
  R6 memcpy-fixed  no `memcpy` whose destination is a fixed-size stack
                   array outside src/util/ — sized-buffer copies belong
                   behind the bounds-checked span/serde helpers.
  R7 bench-smoke   every paper-workload bench (the fig3-fig8/table1/table2,
                   Odin, NELL and SimilarTo reproductions and the
                   traffic-replay harness) is registered in CMakeLists.txt via
                   koko_add_bench_smoke(<name> LABELS ... ARGS ...) with
                   the `workloads` label, so `ctest -L workloads` executes
                   them — a bench that only compiles can silently rot.
  R8 tracked-artifacts  no build artifacts in the git index: tracked paths
                   must not live under a build*/ directory or be CMake
                   cache/generated files (CMakeCache.txt, CMakeFiles/,
                   CTestTestfile.cmake, cmake_install.cmake, *.o, *.a,
                   compile_commands.json). A committed build tree (the PR 9
                   regression) bloats every clone and pins one machine's
                   absolute paths into history. Skipped when git is absent.
  R9 one-codec     functions named (Put|Write|Read)U(8|16|32|64) are
                   defined only in src/storage/serde.h — its ByteWriter
                   and bounds-checked SpanReader are the one codec of wire
                   frames, document blobs and the index manifest, so a
                   second private copy cannot drift from it.

A line may opt out of R1/R2/R6 with a trailing justification comment:
    // lint:allow(<rule>): <reason>
Every suppression must carry a reason; bare `lint:allow` fails the lint.
Exits nonzero listing every violation. Standard library only.
"""

import re
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

ALLOW = re.compile(r"//\s*lint:allow\(([a-z0-9-]+)\):\s*\S")
BARE_ALLOW = re.compile(r"//\s*lint:allow\b(?!\([a-z0-9-]+\):\s*\S)")


def src_files(subdir="src", exts=(".h", ".cpp", ".cc")):
    root = REPO_ROOT / subdir
    return sorted(p for p in root.rglob("*") if p.suffix in exts)


def strip_line_comment(line):
    return line.split("//", 1)[0]


def allowed(line, rule):
    m = ALLOW.search(line)
    return m is not None and m.group(1) == rule


def rel(path):
    return str(path.relative_to(REPO_ROOT))


def check_raw_mmap():
    """R1: raw mmap/munmap only under src/util/."""
    errors = []
    pattern = re.compile(r"\b(?:::)?m(?:un)?map\s*\(")
    for path in src_files():
        if rel(path).startswith("src/util/"):
            continue
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(strip_line_comment(line)) and not allowed(
                line, "raw-mmap"
            ):
                errors.append(
                    f"{rel(path)}:{n}: [raw-mmap] raw mmap/munmap outside "
                    "src/util/ — use MappedFile"
                )
    return errors


def check_raw_mutex():
    """R2: std synchronization primitives only via thread_annotations.h."""
    errors = []
    pattern = re.compile(
        r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
        r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock)\b"
    )
    for path in src_files():
        if rel(path) == "src/util/thread_annotations.h":
            continue
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if pattern.search(strip_line_comment(line)) and not allowed(
                line, "raw-mutex"
            ):
                errors.append(
                    f"{rel(path)}:{n}: [raw-mutex] raw std sync primitive — "
                    "use koko::Mutex/MutexLock/CondVar so the thread-safety "
                    "analysis can see the lock"
                )
    return errors


def check_guarded_by():
    """R3: every Mutex member has a KOKO_GUARDED_BY neighbor in-file."""
    errors = []
    # `Mutex name_;` or `mutable Mutex name;` members (skip locals: heuristic
    # is the declaration position — members end with `_;` or live in files
    # where the same identifier appears inside KOKO_* annotations anyway, so
    # we simply require *some* annotation referencing each declared name).
    decl = re.compile(r"\b(?:mutable\s+)?(?:koko::)?Mutex\s+(\w+)\s*;")
    for path in src_files():
        if rel(path) == "src/util/thread_annotations.h":
            continue
        text = path.read_text()
        for m in decl.finditer(text):
            name = m.group(1)
            uses = re.findall(
                r"KOKO_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE|"
                rf"EXCLUDES)\(\s*{re.escape(name)}\s*\)",
                text,
            )
            if not uses:
                n = text[: m.start()].count("\n") + 1
                errors.append(
                    f"{rel(path)}:{n}: [guarded-by] Mutex `{name}` has no "
                    "KOKO_GUARDED_BY/KOKO_REQUIRES neighbor in this file — "
                    "annotate what it protects"
                )
    return errors


def check_test_labels():
    """R4: every tests/*_test.cpp registered with >=1 ctest label."""
    errors = []
    cmake = (REPO_ROOT / "CMakeLists.txt").read_text()
    registered = {
        m.group(1): m.group(2).split()
        for m in re.finditer(
            r"koko_add_test\(\s*(\w+)\s+LABELS\s+([^)]+)\)", cmake
        )
    }
    for path in sorted((REPO_ROOT / "tests").glob("*_test.cpp")):
        name = path.stem
        labels = registered.get(name)
        if labels is None:
            errors.append(
                f"tests/{path.name}: [test-labels] not registered via "
                "koko_add_test(...) in CMakeLists.txt"
            )
        elif not labels:
            errors.append(
                f"tests/{path.name}: [test-labels] registered without any "
                "ctest label"
            )
    for name in registered:
        if not (REPO_ROOT / "tests" / f"{name}.cpp").exists():
            errors.append(
                f"CMakeLists.txt: [test-labels] koko_add_test({name}) has no "
                f"tests/{name}.cpp"
            )
    return errors


def check_bench_schema():
    """R5: bench JSON field names match docs/BENCH_SCHEMA.md."""
    errors = []
    schema_path = REPO_ROOT / "docs" / "BENCH_SCHEMA.md"
    if not schema_path.exists():
        return ["docs/BENCH_SCHEMA.md: [bench-schema] schema doc missing"]
    documented = set(re.findall(r"`([a-z][a-z0-9_]*)`", schema_path.read_text()))
    # Field-name string literals: SetMeta("key", ...) and the first string of
    # every {"key", value} pair passed to AddEntry. Entry *names* (first
    # positional AddEntry argument) are free-form and not checked.
    meta_key = re.compile(r'SetMeta\(\s*"([a-z][a-z0-9_]*)"')
    pair_key = re.compile(r'\{\s*"([a-z][a-z0-9_]*)"\s*,')
    for path in sorted((REPO_ROOT / "bench").glob("*.cpp")):
        text = path.read_text()
        if "JsonEmitter" not in text:
            continue  # no JSON output from this bench, no schema to honor
        for n, line in enumerate(text.splitlines(), 1):
            for m in list(meta_key.finditer(line)) + list(pair_key.finditer(line)):
                key = m.group(1)
                if key not in documented:
                    errors.append(
                        f"bench/{path.name}:{n}: [bench-schema] JSON field "
                        f"`{key}` not documented in docs/BENCH_SCHEMA.md"
                    )
    return errors


def check_memcpy_fixed():
    """R6: no memcpy into a fixed-size stack array outside src/util/."""
    errors = []
    call = re.compile(r"\b(?:std::|__builtin_)?memcpy\s*\(\s*&?(\w+)")
    for path in src_files():
        if rel(path).startswith("src/util/"):
            continue
        text = path.read_text()
        lines = text.splitlines()
        for n, line in enumerate(lines, 1):
            m = call.search(strip_line_comment(line))
            if not m or allowed(line, "memcpy-fixed"):
                continue
            dest = m.group(1)
            # Fixed-size array declaration of the destination in this file:
            # `type name[123]` (ignore subscripted *uses* like name[i]).
            if re.search(rf"\b\w+\s+{re.escape(dest)}\s*\[\s*\d", text):
                errors.append(
                    f"{rel(path)}:{n}: [memcpy-fixed] memcpy into fixed-size "
                    f"buffer `{dest}` outside src/util/ — use the "
                    "bounds-checked serde/span helpers"
                )
    return errors


def check_bench_smokes():
    """R7: workload-class benches registered as labeled ctest smokes."""
    errors = []
    required = {
        "bench_fig3_cafe",
        "bench_fig4_wnut",
        "bench_fig5_descriptors",
        "bench_fig6_index_build",
        "bench_fig7_happydb",
        "bench_fig8_wiki",
        "bench_nell",
        "bench_odin",
        "bench_similarto",
        "bench_table1_gsp",
        "bench_table2_scaleup",
        "bench_workloads",
    }
    cmake = (REPO_ROOT / "CMakeLists.txt").read_text()
    registered = {}
    for m in re.finditer(
        r"koko_add_bench_smoke\(\s*(\w+)\s+LABELS\s+([^)]*)\)", cmake
    ):
        tokens = m.group(2).split()
        labels = tokens[: tokens.index("ARGS")] if "ARGS" in tokens else tokens
        registered[m.group(1)] = labels
    for name in sorted(required):
        labels = registered.get(name)
        if labels is None:
            errors.append(
                f"CMakeLists.txt: [bench-smoke] {name} has no "
                "koko_add_bench_smoke(...) registration"
            )
        elif "workloads" not in labels:
            errors.append(
                f"CMakeLists.txt: [bench-smoke] {name} smoke lacks the "
                "`workloads` label (ctest -L workloads must run it)"
            )
    for name in registered:
        if not (REPO_ROOT / "bench" / f"{name}.cpp").exists():
            errors.append(
                f"CMakeLists.txt: [bench-smoke] koko_add_bench_smoke({name}) "
                f"has no bench/{name}.cpp"
            )
    return errors


def check_tracked_artifacts():
    """R8: the git index contains no build trees or CMake artifacts."""
    try:
        proc = subprocess.run(
            ["git", "ls-files", "-z"],
            cwd=REPO_ROOT,
            capture_output=True,
            timeout=30,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        # Not a git checkout (e.g. a tarball export): nothing to check.
        return []
    tracked = [p for p in proc.stdout.decode().split("\0") if p]
    artifact = re.compile(
        r"(^|/)(build[^/]*/"  # any build tree, e.g. build-asan-local/
        r"|CMakeCache\.txt$"
        r"|CMakeFiles/"
        r"|CTestTestfile\.cmake$"
        r"|cmake_install\.cmake$"
        r"|compile_commands\.json$)"
    )
    binary_suffix = re.compile(r"\.(o|a|so|bin)$")
    errors = []
    for path in tracked:
        if artifact.search(path) or binary_suffix.search(path):
            errors.append(
                f"{path}: [tracked-artifacts] build artifact tracked by git "
                "— remove it (git rm -r --cached) and rely on .gitignore's "
                "build*/ pattern"
            )
    return errors


def check_one_codec():
    """R9: fixed-width integer codec helpers live only in serde.h."""
    errors = []
    # A definition or declaration: a type (or `class::`-qualified name)
    # right before the helper's name. Calls follow `.`, `->`, `(`, `=` or
    # a keyword such as `return`.
    definition = re.compile(
        r"(?:^|[\s(,;{])([\w:]+(?:<[^;()]*>)?[&*]?)\s+[&*]?"
        r"(?:\w+::)*((?:Put|Write|Read)U(?:8|16|32|64))\s*\("
    )
    keywords = {"return", "co_return", "else", "case", "throw", "new"}
    for path in src_files():
        if rel(path) == "src/storage/serde.h":
            continue
        for n, line in enumerate(path.read_text().splitlines(), 1):
            for m in definition.finditer(strip_line_comment(line)):
                if m.group(1) in keywords:
                    continue
                errors.append(
                    f"{rel(path)}:{n}: [one-codec] `{m.group(2)}` defined "
                    "outside src/storage/serde.h — encode with ByteWriter "
                    "and decode with SpanReader"
                )
    return errors


def check_bare_allows():
    """A lint:allow without rule+reason is itself a violation."""
    errors = []
    for path in src_files() + src_files("bench") + src_files("tests"):
        for n, line in enumerate(path.read_text().splitlines(), 1):
            if BARE_ALLOW.search(line):
                errors.append(
                    f"{rel(path)}:{n}: [allow-syntax] lint:allow must be "
                    "lint:allow(<rule>): <reason>"
                )
    return errors


CHECKS = [
    check_raw_mmap,
    check_raw_mutex,
    check_guarded_by,
    check_test_labels,
    check_bench_schema,
    check_memcpy_fixed,
    check_bench_smokes,
    check_tracked_artifacts,
    check_one_codec,
    check_bare_allows,
]


def main():
    errors = []
    for check in CHECKS:
        errors.extend(check())
    for error in errors:
        print(error, file=sys.stderr)
    print(
        f"lint_invariants: ran {len(CHECKS)} rule(s): "
        f"{'FAIL' if errors else 'OK'} ({len(errors)} violation(s))"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
