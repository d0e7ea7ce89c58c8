#!/usr/bin/env python3
"""Repo lint gates, promoted from ad-hoc CI grep loops.

Checks
------
frozen-names    Every metric name frozen in docs/observability.md (and the
                daemon_* catalogue in docs/serve_daemon.md) appears as a
                string literal somewhere under src/ — a silent rename breaks
                this gate, not dashboards.
metrics-json    With --metrics-json FILE (a live ``--metrics-json`` dump),
                every frozen registry name appears in the snapshot. This is
                the old CI grep loop, now sourced from the docs table so the
                workflow and the docs cannot drift apart.
daemon-json     With --daemon-json FILE (a live daemon scrape), every frozen
                daemon_* name — plus serve_requests_total, proving the serve
                registry rides along — appears in the snapshot.
shard-json      With --shard-json FILE (a scrape of a --shards N daemon),
                every name frozen in the shard/daemon-loop table of
                docs/observability.md — plus daemon_requests_total, proving
                the daemon families ride along — appears in the snapshot.
naked-mutex     No naked std::mutex / std::shared_mutex /
                std::condition_variable / std lock holders under src/
                outside util/thread_annotations.hpp: all locking goes
                through the Clang-Thread-Safety-annotated util wrappers.
naked-thread    No std::thread / std::jthread (or #include <thread>) under
                src/serve/ or src/net/: request-path concurrency rides the
                sanctioned substrates — util::NamedThreads for blocking
                loops (util/named_threads.hpp) and the decode ThreadPool —
                so threads stay named and joined. The substrates themselves
                (util/named_threads.hpp, util/thread_pool.hpp) and tests
                may spawn threads.
include-hygiene No #include <mutex> / <shared_mutex> / <condition_variable>
                under src/ outside the wrapper header, and every src header
                starts with #pragma once.

Exit status: 0 clean, 1 findings, 2 usage error.
``--self-test`` runs the checks against tests/lint_fixtures/ and verifies
the expected verdicts (used by the lint_selftest ctest).
"""

import argparse
import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# The one file allowed to name the std primitives: it wraps them.
WRAPPER = "util/thread_annotations.hpp"

NAKED_TOKENS = [
    "std::mutex",
    "std::shared_mutex",
    "std::recursive_mutex",
    "std::timed_mutex",
    "std::condition_variable",
    "std::scoped_lock",
    "std::unique_lock",
    "std::shared_lock",
    "std::lock_guard",
]

BANNED_INCLUDES = ["<mutex>", "<shared_mutex>", "<condition_variable>"]

# Directories where dedicated threads are banned outright: every daemon
# loop must run on util::NamedThreads, decode work on ThreadPool.
THREADLESS_DIRS = ("serve/", "net/")

THREAD_TOKENS = ["std::thread", "std::jthread"]

BACKTICK_NAME = re.compile(r"`([a-z][a-z0-9_]*)`")


def frozen_registry_names(repo: Path):
    """Metric names from the frozen table in docs/observability.md."""
    doc = repo / "docs" / "observability.md"
    names = []
    in_table = False
    for line in doc.read_text().splitlines():
        if line.startswith("| Family |"):
            in_table = True
            continue
        if in_table:
            if not line.startswith("|"):
                break
            names += BACKTICK_NAME.findall(line)
    return [n for n in names if not n.startswith("p")]  # drop p50/p90/...


def frozen_shard_names(repo: Path):
    """Names from the shard/daemon-loop table in docs/observability.md.

    A second frozen table with its own header: these families exist only
    on sharded (--shards N) daemons, so they are checked against a sharded
    scrape (--shard-json), never against the single-server snapshot the
    first table governs. Absent table (e.g. lint fixtures) -> no names.
    """
    doc = repo / "docs" / "observability.md"
    if not doc.exists():
        return []
    names = []
    in_table = False
    for line in doc.read_text().splitlines():
        if line.startswith("| Shard family |"):
            in_table = True
            continue
        if in_table:
            if not line.startswith("|"):
                break
            names += BACKTICK_NAME.findall(line)
    return names


def frozen_daemon_names(repo: Path):
    """daemon_* names from the catalogue in docs/serve_daemon.md."""
    doc = repo / "docs" / "serve_daemon.md"
    if not doc.exists():
        return []
    names = BACKTICK_NAME.findall(doc.read_text())
    return sorted({n for n in names if n.startswith("daemon_")})


def source_files(repo: Path):
    for ext in ("*.hpp", "*.cpp"):
        yield from sorted((repo / "src").rglob(ext))


def strip_comments(text: str) -> str:
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def check_frozen_names(repo: Path, findings):
    names = (frozen_registry_names(repo) + frozen_shard_names(repo) +
             frozen_daemon_names(repo))
    if not names:
        findings.append("frozen-names: no frozen metric names parsed from docs/")
        return
    blob = "\n".join(p.read_text() for p in source_files(repo))
    for name in names:
        if f'"{name}"' not in blob:
            findings.append(
                f"frozen-names: frozen metric '{name}' (docs/) not registered "
                f"anywhere under src/ — renamed without updating the docs?")


def check_snapshot(path: Path, names, label, findings):
    try:
        text = path.read_text()
        json.loads(text)
    except (OSError, ValueError) as e:
        findings.append(f"{label}: cannot read {path}: {e}")
        return
    for name in names:
        if f'"{name}"' not in text:
            findings.append(f"{label}: MISSING metric '{name}' in {path}")


def check_naked_mutex(repo: Path, findings):
    for path in source_files(repo):
        rel = path.relative_to(repo / "src").as_posix()
        if rel == WRAPPER:
            continue
        code = strip_comments(path.read_text())
        for token in NAKED_TOKENS:
            for m in re.finditer(re.escape(token) + r"\b", code):
                line = code.count("\n", 0, m.start()) + 1
                findings.append(
                    f"naked-mutex: src/{rel}:{line}: {token} — use the "
                    f"annotated util:: wrappers from {WRAPPER}")


def check_naked_thread(repo: Path, findings):
    for path in source_files(repo):
        rel = path.relative_to(repo / "src").as_posix()
        if not rel.startswith(THREADLESS_DIRS):
            continue
        text = path.read_text()
        code = strip_comments(text)
        for token in THREAD_TOKENS:
            for m in re.finditer(re.escape(token) + r"\b", code):
                line = code.count("\n", 0, m.start()) + 1
                findings.append(
                    f"naked-thread: src/{rel}:{line}: {token} — blocking "
                    f"loops run on util::NamedThreads, decode work on "
                    f"ThreadPool, not dedicated threads")
        if re.search(r"#\s*include\s*<thread>", text):
            findings.append(
                f"naked-thread: src/{rel}: #include <thread> — nothing in "
                f"{'/'.join(THREADLESS_DIRS)} may spawn or name OS threads")


def check_include_hygiene(repo: Path, findings):
    for path in source_files(repo):
        rel = path.relative_to(repo / "src").as_posix()
        if rel == WRAPPER:
            continue
        text = path.read_text()
        for inc in BANNED_INCLUDES:
            if re.search(r"#\s*include\s*" + re.escape(inc), text):
                findings.append(
                    f"include-hygiene: src/{rel}: #include {inc} — include "
                    f"\"{WRAPPER}\" instead")
        if path.suffix == ".hpp":
            first = next(
                (l for l in text.splitlines() if l.strip()), "")
            if first.strip() != "#pragma once":
                findings.append(
                    f"include-hygiene: src/{rel}: header does not start "
                    f"with #pragma once")


def run_checks(repo: Path, metrics_json=None, daemon_json=None,
               shard_json=None):
    findings = []
    check_frozen_names(repo, findings)
    check_naked_mutex(repo, findings)
    check_naked_thread(repo, findings)
    check_include_hygiene(repo, findings)
    if metrics_json is not None:
        check_snapshot(Path(metrics_json), frozen_registry_names(repo),
                       "metrics-json", findings)
    if daemon_json is not None:
        names = frozen_daemon_names(repo) + ["serve_requests_total"]
        check_snapshot(Path(daemon_json), names, "daemon-json", findings)
    if shard_json is not None:
        names = frozen_shard_names(repo) + ["daemon_requests_total"]
        check_snapshot(Path(shard_json), names, "shard-json", findings)
    return findings


def self_test(repo: Path) -> int:
    fixtures = repo / "tests" / "lint_fixtures"
    expected = {
        "clean": [],
        "renamed_metric": ["frozen-names"],
        "naked_mutex": ["naked-mutex", "include-hygiene"],
        "naked_thread": ["naked-thread"],
    }
    failures = 0
    for name, expect in sorted(expected.items()):
        findings = run_checks(fixtures / name)
        kinds = sorted({f.split(":", 1)[0] for f in findings})
        if kinds != sorted(expect):
            print(f"self-test FAIL [{name}]: expected {sorted(expect)}, "
                  f"got {kinds}")
            for f in findings:
                print(f"  {f}")
            failures += 1
        else:
            print(f"self-test ok [{name}]: {kinds or 'clean'}")
    # The real tree must be clean too — the fixtures prove the checks can
    # fail; this proves they pass where it matters.
    real = run_checks(repo)
    if real:
        print("self-test FAIL [repo]: live tree has findings:")
        for f in real:
            print(f"  {f}")
        failures += 1
    else:
        print("self-test ok [repo]: live tree clean")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repo", type=Path, default=REPO)
    ap.add_argument("--metrics-json", help="live registry snapshot to verify")
    ap.add_argument("--daemon-json", help="live daemon scrape to verify")
    ap.add_argument("--shard-json", help="sharded daemon scrape to verify")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return self_test(args.repo)
    findings = run_checks(args.repo, args.metrics_json, args.daemon_json,
                          args.shard_json)
    for f in findings:
        print(f)
    if findings:
        print(f"lint: {len(findings)} finding(s)")
        return 1
    print("lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
