#!/usr/bin/env python3
"""Repo-specific lint: project rules the C++ compiler cannot enforce.

Run from anywhere:  python3 tools/lint.py [--root <repo>] [--list-rules]

Exit status is 0 when clean, 1 when any rule fires. Output is one
`path:line: [rule] message` per violation, grep/IDE friendly.

Rules
-----
unit-literal   Powers-of-ten scale literals (1e3/1e6/1e9/1e12/1e15) are
               banned in src/ outside core/units.h and core/time.h. Silent
               8x (Gb vs GB) and 1000x (ms vs us) errors live in exactly
               these constants; units.h is the one audited home for them.

raw-seconds    Public headers must not traffic in `double <name>_s` /
               `double <name>_seconds`. Simulated time is integral TimeNs
               (core/time.h); float seconds across API boundaries is how
               two code paths that must coincide start to drift.

test-coverage  Every .cpp under src/ must be referenced from tests/ —
               either its header is included by some test, or its stem
               appears in test code. Untested translation units are where
               silent correctness drift accumulates.

pragma-once    Every header under src/ uses #pragma once.

shipped-header Every header under src/ is included by some file outside
               tests/ other than its own .cpp: by src/, bench/, tools/,
               examples/ or perfbench/ code. A header only tests include
               is a unit no shipped binary runs; delete it or give it a
               shipped caller.

ordered-digest Digest/report-emitting files (anything whose text mentions
               digests, JSONL or to_json) may not range-iterate unordered
               containers: iteration order is hash-layout-dependent, which
               is exactly how bit-identical determinism digests silently
               break between runs, platforms and libstdc++ versions.
               Everything under src/plan/ and src/net/fabric/ is held to
               this bar unconditionally — planner files feed the
               ranked-report digest and observatory files feed the fabric
               determinism digest even when the digest lives in a sibling
               TU.

ambient-entropy rand()/srand(), std::random_device, time(nullptr),
               system_clock, steady_clock and high_resolution_clock are
               banned outside the designated homes (core/rng.*, core/time.*,
               core/wallclock.*). All randomness routes through
               derive_seed() substreams; simulated time through TimeNs; host
               wall time through wallclock_ns() (core/wallclock.h), the one
               module allowed to touch the monotonic clock.

mutex-annotated Raw std::mutex/std::condition_variable/lock_guard etc. are
               banned outside core/mutex.h. Clang thread-safety analysis
               cannot see through unannotated std primitives; ms::Mutex /
               MutexLock / CondVar are the annotated capabilities.

unchecked-number-parse
               atoi/atol/atof, and strto* calls whose end pointer is
               nullptr, are banned in src/ and tools/. They read "x" as 0
               and "256x" as 256, which is how a typo in a flag or a
               corrupt artifact field became a silent default. Parse
               through core/flags (flags::parse_int/parse_uint/
               parse_double or a flags::Parser table) instead.

Self-test
---------
    python3 tools/lint.py --root <corpus> --expect <expected.txt>
runs the linter over a fixture tree and exits 0 only when the findings
(`path:line: [rule]`, message dropped) exactly match the expected file
(one finding per line; blank lines and # comments ignored).

Waivers
-------
Inline, same line or the line above the offender:
    // ms-lint: allow(<rule>): <justification>
Whole file, anywhere in the file:
    // ms-lint: allow-file(<rule>): <justification>
A justification is required; a bare waiver is itself a violation.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import sys

RULES = {
    "unit-literal": "no 1e3/1e6/1e9/1e12/1e15 scale literals outside core/units.h",
    "raw-seconds": "no `double *_s` / `double *_seconds` in public headers; use TimeNs",
    "test-coverage": "every src/**/*.cpp is referenced by a test",
    "pragma-once": "every header under src/ uses #pragma once",
    "shipped-header":
        "every src/ header is included outside tests/ by a file other than"
        " its own .cpp",
    "ordered-digest":
        "digest/report-emitting files (and all of src/plan/ and"
        " src/net/fabric/) may not range-iterate unordered containers",
    "ambient-entropy":
        "no rand()/random_device/time(nullptr)/system_clock/steady_clock"
        " outside core/rng.*, core/time.*, core/wallclock.*",
    "mutex-annotated":
        "no raw std::mutex/condition_variable/lock_guard outside core/mutex.h;"
        " use ms::Mutex/MutexLock/CondVar",
    "unchecked-number-parse":
        "no atoi/atol/atof or strto*(..., nullptr, ...) in src/ or tools/;"
        " parse numbers through core/flags",
}

UNIT_LITERAL_RE = re.compile(r"(?<![\w.])1e\+?(?:3|6|9|12|15)\b")
RAW_SECONDS_RE = re.compile(r"\bdouble\s+(\w+(?:_s|_sec|_seconds))\b")
# Marks a file as digest/report-emitting for the ordered-digest rule.
DIGEST_FILE_RE = re.compile(r"digest|jsonl|to_json", re.IGNORECASE)
UNORDERED_DECL_RE = re.compile(r"std::unordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;)]*:\s*(?:\w+(?:\.|->))*(\w+)\s*\)")
AMBIENT_ENTROPY_RE = re.compile(
    r"\brandom_device\b|\bsystem_clock\b|\bsteady_clock\b|"
    r"\bhigh_resolution_clock\b|(?<![\w:.>])s?rand\s*\(|"
    r"(?<![\w:.>])time\s*\(\s*(?:nullptr|NULL|0)\s*\)")
RAW_MUTEX_RE = re.compile(
    r"std::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock)\b")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
# Trees whose code ships in a binary (tests/ trees never count).
SHIPPED_DIRS = ("src", "bench", "tools", "examples", "perfbench")
NUMBER_PARSE_RE = re.compile(
    r"\b(?:ato(?:i|l|ll|f)|strto(?:l|ll|ul|ull|f|d|ld|imax|umax))\s*\(")
ALLOW_RE = re.compile(r"ms-lint:\s*allow\((?P<rule>[\w-]+)\)\s*:\s*\S")
ALLOW_FILE_RE = re.compile(r"ms-lint:\s*allow-file\((?P<rule>[\w-]+)\)\s*:\s*\S")
BARE_WAIVER_RE = re.compile(r"ms-lint:\s*allow(?:-file)?\([\w-]+\)\s*:?\s*$")

# Files exempt per rule (repo-relative, forward slashes). units.h/time.h
# are the designated homes of unit-conversion constants and the
# seconds<->TimeNs boundary, so both rules would be self-defeating there.
EXEMPT = {
    "unit-literal": {"src/core/units.h", "src/core/time.h"},
    "raw-seconds": {"src/core/time.h", "src/core/units.h"},
    # rng.* is where seeds become streams; time.* owns the seconds<->TimeNs
    # boundary; wallclock.* is the ONE module allowed to read the host's
    # monotonic clock (simulator self-profiling, real deadline waits).
    # Everything else derives.
    "ambient-entropy": {"src/core/rng.h", "src/core/rng.cpp",
                        "src/core/time.h", "src/core/time.cpp",
                        "src/core/wallclock.h", "src/core/wallclock.cpp"},
    # The annotated wrapper home: the std::mutex inside ms::Mutex IS the
    # wrapped capability.
    "mutex-annotated": {"src/core/mutex.h"},
    # flags.cpp is the strict parser the rule points everyone else to.
    # json.cpp's number_body has already matched the whole JSON number
    # grammar before it hands the token to strtod.
    "unchecked-number-parse": {"src/core/flags.cpp", "src/core/json.cpp"},
}


class Linter:
    def __init__(self, root: pathlib.Path):
        self.root = root
        self.violations: list[tuple[pathlib.Path, int, str, str]] = []

    def report(self, path: pathlib.Path, line_no: int, rule: str, msg: str):
        self.violations.append((path, line_no, rule, msg))

    # ---------------------------------------------------------- helpers

    def src_files(self, suffixes: tuple[str, ...]) -> list[pathlib.Path]:
        src = self.root / "src"
        return sorted(p for p in src.rglob("*") if p.suffix in suffixes)

    @staticmethod
    def file_waivers(lines: list[str]) -> set[str]:
        waived = set()
        for line in lines:
            m = ALLOW_FILE_RE.search(line)
            if m:
                waived.add(m.group("rule"))
        return waived

    @staticmethod
    def line_waived(lines: list[str], idx: int, rule: str) -> bool:
        for probe in (idx, idx - 1):
            if probe < 0:
                continue
            m = ALLOW_RE.search(lines[probe])
            if m and m.group("rule") == rule:
                return True
        return False

    @staticmethod
    def unordered_names(text: str) -> set[str]:
        """Identifiers declared as std::unordered_* containers.

        Balances template angle brackets (declarations may nest and span
        lines), then takes the first identifier after the closing `>`.
        Aliases (`using X = std::unordered_map<...>;`) yield no name; the
        rule is a heuristic, not a type checker.
        """
        names: set[str] = set()
        for m in UNORDERED_DECL_RE.finditer(text):
            i = m.end() - 1  # at the opening '<'
            depth = 0
            while i < len(text):
                if text[i] == "<":
                    depth += 1
                elif text[i] == ">":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
            dm = re.match(r"\s*&?\s*([A-Za-z_]\w*)", text[i + 1:i + 200])
            if dm:
                names.add(dm.group(1))
        return names

    @staticmethod
    def sibling(path: pathlib.Path) -> pathlib.Path:
        return path.with_suffix(".h" if path.suffix == ".cpp" else ".cpp")

    # ------------------------------------------------------------ rules

    def check_line_rules(self):
        for path in self.src_files((".h", ".cpp")):
            rel = path.relative_to(self.root).as_posix()
            lines = path.read_text().splitlines()
            waived_file = self.file_waivers(lines)
            for idx, line in enumerate(lines):
                if BARE_WAIVER_RE.search(line):
                    self.report(path, idx + 1, "waiver",
                                "waiver without a justification")
                code = line.split("//", 1)[0]

                rule = "unit-literal"
                if (rel not in EXEMPT[rule] and rule not in waived_file
                        and UNIT_LITERAL_RE.search(code)
                        and not self.line_waived(lines, idx, rule)):
                    self.report(
                        path, idx + 1, rule,
                        f"scale literal `{UNIT_LITERAL_RE.search(code).group()}`"
                        " outside core/units.h; use the units.h helpers")

                rule = "raw-seconds"
                if path.suffix == ".h" and rel not in EXEMPT[rule] \
                        and rule not in waived_file:
                    m = RAW_SECONDS_RE.search(code)
                    # `ops_per_sec`-style rates are doubles by nature; the
                    # rule targets durations.
                    if m and re.search(r"per_s(?:ec)?$", m.group(1)):
                        m = None
                    if m and not self.line_waived(lines, idx, rule):
                        self.report(
                            path, idx + 1, rule,
                            f"`double {m.group(1)}` in a public header; "
                            "simulated time crosses APIs as TimeNs")

                rule = "ambient-entropy"
                if (rel not in EXEMPT[rule] and rule not in waived_file
                        and AMBIENT_ENTROPY_RE.search(code)
                        and not self.line_waived(lines, idx, rule)):
                    self.report(
                        path, idx + 1, rule,
                        f"ambient entropy `{AMBIENT_ENTROPY_RE.search(code).group().strip()}`;"
                        " randomness routes through derive_seed() substreams"
                        " (core/rng.h), wall time through core/time.h")

                rule = "mutex-annotated"
                if (rel not in EXEMPT[rule] and rule not in waived_file
                        and RAW_MUTEX_RE.search(code)
                        and not self.line_waived(lines, idx, rule)):
                    self.report(
                        path, idx + 1, rule,
                        f"raw `{RAW_MUTEX_RE.search(code).group()}`; clang"
                        " thread-safety analysis cannot see std primitives —"
                        " use ms::Mutex/MutexLock/CondVar (core/mutex.h)")

    def check_ordered_digest(self):
        rule = "ordered-digest"
        for path in self.src_files((".h", ".cpp")):
            text = path.read_text()
            rel = path.relative_to(self.root).as_posix()
            # src/plan/ is digest-emitting by construction: every planner
            # file feeds the ranked-report digest (often through a sibling
            # TU), so the keyword heuristic is skipped there. Same for
            # src/net/fabric/: every observatory file feeds the fabric
            # determinism digest and the JSONL/sketch exports.
            if not rel.startswith(("src/plan/", "src/net/fabric/")) \
                    and not DIGEST_FILE_RE.search(text):
                continue
            lines = text.splitlines()
            if rule in self.file_waivers(lines):
                continue
            names = self.unordered_names(text)
            sib = self.sibling(path)
            if sib.is_file():
                names |= self.unordered_names(sib.read_text())
            if not names:
                continue
            for idx, line in enumerate(lines):
                code = line.split("//", 1)[0]
                m = RANGE_FOR_RE.search(code)
                if (m and m.group(1) in names
                        and not self.line_waived(lines, idx, rule)):
                    self.report(
                        path, idx + 1, rule,
                        f"range-for over unordered container `{m.group(1)}` in"
                        " a digest/report-emitting file; iteration order is"
                        " hash-layout-dependent — use an ordered container or"
                        " sort first")

    def check_number_parse(self):
        rule = "unchecked-number-parse"
        files = self.src_files((".h", ".cpp"))
        tools = self.root / "tools"
        if tools.is_dir():  # fixture corpora may omit tools/
            files += sorted(p for p in tools.rglob("*")
                            if p.suffix in (".h", ".cpp"))
        for path in files:
            rel = path.relative_to(self.root).as_posix()
            lines = path.read_text().splitlines()
            if rel in EXEMPT[rule] or rule in self.file_waivers(lines):
                continue
            # Comments stripped; calls may span lines, so match on the
            # joined text and map offsets back to line numbers.
            code = "\n".join(line.split("//", 1)[0] for line in lines)
            for m in NUMBER_PARSE_RE.finditer(code):
                name = m.group().rstrip("( \t")
                end_ptr = self.call_args(code, m.end())[1:2]
                if name.startswith("strto") and \
                        end_ptr not in (["nullptr"], ["NULL"]):
                    continue
                idx = code.count("\n", 0, m.start())
                if not self.line_waived(lines, idx, rule):
                    self.report(
                        path, idx + 1, rule,
                        f"`{name}` reads garbage as 0 and stops silently at"
                        " trailing junk; use flags::parse_int/parse_uint/"
                        "parse_double (core/flags.h)")

    @staticmethod
    def call_args(text: str, start: int) -> list[str]:
        """Top-level comma-separated arguments of the call whose '(' ends
        just before `start`, stripped."""
        args, depth, begin = [], 0, start
        for i in range(start, len(text)):
            c = text[i]
            if c in "([{":
                depth += 1
            elif c in ")]}":
                if depth == 0:
                    args.append(text[begin:i].strip())
                    return args
                depth -= 1
            elif c == "," and depth == 0:
                args.append(text[begin:i].strip())
                begin = i + 1
        return args

    def check_pragma_once(self):
        for path in self.src_files((".h",)):
            text = path.read_text()
            if "#pragma once" not in text:
                self.report(path, 1, "pragma-once", "header missing #pragma once")

    def check_shipped_header(self):
        rule = "shipped-header"
        includers: dict[str, set[pathlib.Path]] = {}
        for top in SHIPPED_DIRS:
            for path in sorted((self.root / top).rglob("*")):
                if path.suffix not in (".h", ".cpp") or \
                        "tests" in path.relative_to(self.root).parts:
                    continue
                for m in INCLUDE_RE.finditer(path.read_text()):
                    includers.setdefault(m.group(1), set()).add(path)
        for path in self.src_files((".h",)):
            rel = path.relative_to(self.root / "src").as_posix()
            if includers.get(rel, set()) - {self.sibling(path)}:
                continue
            if rule in self.file_waivers(path.read_text().splitlines()):
                continue
            self.report(
                path, 1, rule,
                f"only tests/ or its own .cpp include {rel}; no shipped"
                " binary runs it — delete it or give it a shipped caller")

    def check_test_coverage(self):
        tests_dir = self.root / "tests"
        if not tests_dir.is_dir():  # fixture corpora may omit tests/
            return
        corpus = "\n".join(
            p.read_text() for p in sorted(tests_dir.rglob("*.cpp")))
        for path in self.src_files((".cpp",)):
            rel = path.relative_to(self.root / "src").as_posix()
            header = rel[:-4] + ".h"
            stem = path.stem
            lines = path.read_text().splitlines()
            if "test-coverage" in self.file_waivers(lines):
                continue
            if f'#include "{header}"' in corpus:
                continue
            if re.search(rf"\b{re.escape(stem)}\b", corpus):
                continue
            self.report(
                path, 1, "test-coverage",
                f"no test includes {header} or mentions `{stem}`; add coverage"
                " or a justified ms-lint: allow-file(test-coverage)")

    # ------------------------------------------------------------ drive

    def run(self) -> int:
        self.check_line_rules()
        self.check_ordered_digest()
        self.check_number_parse()
        self.check_pragma_once()
        self.check_shipped_header()
        self.check_test_coverage()
        for path, line_no, rule, msg in self.violations:
            rel = path.relative_to(self.root).as_posix()
            print(f"{rel}:{line_no}: [{rule}] {msg}")
        n = len(self.violations)
        print(f"lint: {n} violation{'s' if n != 1 else ''}"
              f" across {len({v[0] for v in self.violations})} files"
              if n else "lint: clean")
        return 1 if n else 0

    def run_expect(self, expected_path: pathlib.Path) -> int:
        """Self-test mode: findings must exactly match `expected_path`."""
        self.check_line_rules()
        self.check_ordered_digest()
        self.check_number_parse()
        self.check_pragma_once()
        self.check_shipped_header()
        self.check_test_coverage()
        got = sorted(
            f"{path.relative_to(self.root).as_posix()}:{line_no}: [{rule}]"
            for path, line_no, rule, _ in self.violations)
        want = sorted(
            line.strip() for line in expected_path.read_text().splitlines()
            if line.strip() and not line.lstrip().startswith("#"))
        if got == want:
            print(f"lint-selftest: {len(got)} findings match expected")
            return 0
        for line in sorted(set(want) - set(got)):
            print(f"lint-selftest: MISSING  {line}")
        for line in sorted(set(got) - set(want)):
            print(f"lint-selftest: UNEXPECTED  {line}")
        # Exact multiset match: duplicates matter too.
        if set(got) == set(want):
            print("lint-selftest: duplicate-count mismatch")
        return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    default_root = pathlib.Path(__file__).resolve().parent.parent
    parser.add_argument("--root", type=pathlib.Path, default=default_root,
                        help="repository root (default: tools/..)")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--expect", type=pathlib.Path, default=None,
                        help="self-test: findings must exactly match this file"
                             " (path:line: [rule] per line)")
    args = parser.parse_args()
    if args.list_rules:
        for rule, desc in RULES.items():
            print(f"{rule}: {desc}")
        return 0
    linter = Linter(args.root.resolve())
    if args.expect is not None:
        return linter.run_expect(args.expect.resolve())
    return linter.run()


if __name__ == "__main__":
    sys.exit(main())
