#!/usr/bin/env python3
"""Project-specific lint rules for the vtrain tree.

Five rules, each targeting a defect class the compilers cannot (or
do not) catch:

  naked-mutex         std::mutex / std::lock_guard / std::unique_lock /
                      std::condition_variable outside src/util/.  Naked
                      std primitives carry no thread-safety annotations,
                      so everything they guard is invisible to clang's
                      -Wthread-safety analysis.  Use util::Mutex /
                      util::MutexLock / util::CondVar (util/mutex.h).
                      std::once_flag / std::call_once stay legal: they
                      need no annotations.

  missing-annotation  A util::Mutex member none of whose neighbours say
                      GUARDED_BY/REQUIRES/ACQUIRE on it (a lock that
                      provably protects nothing is either dead weight or
                      unannotated discipline), and `...Locked()` method
                      declarations without a REQUIRES(...) clause.

  file-naming         tests/*.cc must be <suite>_test.cc; bench sources
                      must be fig<N>_*/table<N>_*/perf_*/ablation_*/
                      *_common so CI's bench-smoke globs keep matching
                      every binary.

  wire-schema         Raw JSON payload assembly inside the HTTP
                      frontend's handlers.  Every /v1 payload must go
                      through serve/wire.h (the one versioned schema
                      surface), so a handler spelling out
                      json::Value::object()/array(), a legacy
                      toJsonValue/...FromJsonValue codec, a
                      non-wire error envelope (net::errorResponse,
                      jsonErrorBody), or a hand-assigned 4xx/5xx
                      status (`.status = 503`) is bypassing the
                      schema and will drift from the documented wire
                      format.  Error responses must come from
                      wire::v1::errorResponse / wire::healthzResponse
                      so the envelope, status, and Retry-After cannot
                      disagree.

  metric-naming       Metric names registered through MetricRegistry
                      (counter/gauge/histogram and their declare*
                      variants) must be vtrain_<subsystem>_<name>[_unit]
                      in snake_case, and counters must end in _total.
                      Prometheus cannot rename a series after the fact:
                      a misnamed metric either breaks dashboards or
                      lives forever.

Usage:
  scripts/lint.py [--root DIR]   lint the tree (exit 1 on findings)
  scripts/lint.py --self-test    run the seeded-violation fixtures
"""

import argparse
import os
import re
import sys
import tempfile

# Handler files that must speak serve/wire.h exclusively: any raw
# payload assembly here bypasses the versioned schema surface.
WIRE_CONTEXT_FILES = [
    os.path.join("src", "serve", "http_frontend.cc"),
]

WIRE_RAW_PATTERNS = [
    (re.compile(r"\bjson::Value::object\s*\("),
     "raw json::Value::object() in a /v1 handler; build the payload "
     "through serve/wire.h instead"),
    (re.compile(r"\bjson::Value::array\s*\("),
     "raw json::Value::array() in a /v1 handler; build the payload "
     "through serve/wire.h instead"),
    (re.compile(r"\btoJsonValue\s*\("),
     "legacy toJsonValue codec; the wire schema lives in serve/wire.h "
     "(wire::v1::encode)"),
    (re.compile(r"\b\w+FromJsonValue\s*\("),
     "legacy *FromJsonValue codec; the wire schema lives in "
     "serve/wire.h (wire::v1::decode)"),
    (re.compile(r"\bnet::errorResponse\s*\("),
     "net::errorResponse bypasses the structured error envelope; use "
     "wire::v1::errorResponse"),
    (re.compile(r"\bjsonErrorBody\s*\("),
     "ad-hoc error body; use wire::v1::errorResponse (the one "
     "structured error-envelope builder)"),
    (re.compile(r"\.\s*status\s*=\s*[45]\d\d\b"),
     "hand-rolled 4xx/5xx status in a /v1 handler; errors must come "
     "from wire::v1::errorResponse (or wire::healthzResponse) so the "
     "envelope, status, and Retry-After cannot disagree"),
]

NAKED_MUTEX_RE = re.compile(
    r"\bstd::(mutex|timed_mutex|recursive_mutex|recursive_timed_mutex|"
    r"shared_mutex|shared_timed_mutex|lock_guard|unique_lock|scoped_lock|"
    r"shared_lock|condition_variable|condition_variable_any)\b")

MUTEX_MEMBER_RE = re.compile(
    r"^\s*(?:mutable\s+)?(?:util::)?Mutex\s+(\w+)\s*;", re.MULTILINE)

LOCKED_METHOD_RE = re.compile(r"\b(\w+Locked)\s*\(")

# A MetricRegistry registration: method name, then a string-literal
# metric name as the first argument.
METRIC_CALL_RE = re.compile(
    r"\b(counter|gauge|histogram|declareCounter|declareGauge|"
    r"declareHistogram)\s*\(\s*\"([^\"]*)\"")
METRIC_NAME_RE = re.compile(r"^vtrain_[a-z0-9]+(?:_[a-z0-9]+)+$")

TEST_NAME_RE = re.compile(r"^[a-z0-9_]+_test\.cc$")
BENCH_CC_RE = re.compile(
    r"^(fig\d+_[a-z0-9_]+|table\d+_[a-z0-9_]+|perf_[a-z0-9_]+|"
    r"ablation_[a-z0-9_]+|[a-z0-9_]+_common)\.cc$")
BENCH_H_RE = re.compile(r"^[a-z0-9_]+_common\.h$")


class Finding:
    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "%s:%d: [%s] %s" % (self.path, self.line, self.rule,
                                   self.message)


def strip_comments(text, keep_strings=False):
    """Blanks out // and /* */ comments and (unless keep_strings)
    string/char literals, preserving line structure so reported line
    numbers stay exact."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(c if keep_strings else " ")
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c if keep_strings else " ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append(text[i:i + 2] if keep_strings else "  ")
                i += 2
                continue
            if c == quote:
                state = "code"
            if keep_strings:
                out.append(c)
            else:
                out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def iter_source_files(root, subdir, exts):
    base = os.path.join(root, subdir)
    for dirpath, dirnames, filenames in os.walk(base):
        dirnames[:] = [d for d in dirnames if not d.startswith(".")]
        for name in sorted(filenames):
            if os.path.splitext(name)[1] in exts:
                yield os.path.join(dirpath, name)


def relpath(root, path):
    return os.path.relpath(path, root)


def check_naked_mutex(root, findings):
    util_dir = os.path.join(root, "src", "util")
    for path in iter_source_files(root, "src", {".h", ".cc"}):
        if os.path.commonpath([util_dir, path]) == util_dir:
            continue  # the wrappers themselves live here
        code = strip_comments(read_text(path))
        for m in NAKED_MUTEX_RE.finditer(code):
            findings.append(Finding(
                relpath(root, path), line_of(code, m.start()),
                "naked-mutex",
                "std::%s is invisible to thread-safety analysis; use "
                "the annotated util:: wrappers from util/mutex.h"
                % m.group(1)))


def check_missing_annotation(root, findings):
    annotation_re_cache = {}
    for path in iter_source_files(root, "src", {".h"}):
        code = strip_comments(read_text(path))
        for m in MUTEX_MEMBER_RE.finditer(code):
            name = m.group(1)
            if name not in annotation_re_cache:
                annotation_re_cache[name] = re.compile(
                    r"(GUARDED_BY|PT_GUARDED_BY)\(\s*%s\s*\)|"
                    r"(REQUIRES|REQUIRES_SHARED|ACQUIRE|RELEASE|"
                    r"TRY_ACQUIRE|EXCLUDES|ASSERT_CAPABILITY|"
                    r"RETURN_CAPABILITY)\([^)]*\b%s\b"
                    % (re.escape(name), re.escape(name)))
            if not annotation_re_cache[name].search(code):
                findings.append(Finding(
                    relpath(root, path), line_of(code, m.start()),
                    "missing-annotation",
                    "mutex member '%s' guards nothing: no GUARDED_BY/"
                    "REQUIRES/EXCLUDES in this header names it" % name))
        for m in LOCKED_METHOD_RE.finditer(code):
            # A declaration runs to the next ';' or '{'; it must carry
            # REQUIRES so callers are checked.  (.cc definitions do not
            # repeat attributes, hence headers only.)
            end_semi = code.find(";", m.end())
            end_brace = code.find("{", m.end())
            ends = [e for e in (end_semi, end_brace) if e != -1]
            decl = code[m.start():min(ends)] if ends else code[m.start():]
            if "REQUIRES" not in decl:
                findings.append(Finding(
                    relpath(root, path), line_of(code, m.start()),
                    "missing-annotation",
                    "'%s()' assumes a held lock by convention but has "
                    "no REQUIRES(...) annotation" % m.group(1)))


def check_wire_schema(root, findings):
    for rel in WIRE_CONTEXT_FILES:
        path = os.path.join(root, rel)
        if not os.path.exists(path):
            continue
        code = strip_comments(read_text(path))
        for pattern, message in WIRE_RAW_PATTERNS:
            for m in pattern.finditer(code):
                findings.append(Finding(
                    rel, line_of(code, m.start()), "wire-schema",
                    message))


def check_file_naming(root, findings):
    tests_dir = os.path.join(root, "tests")
    if os.path.isdir(tests_dir):
        for name in sorted(os.listdir(tests_dir)):
            if name.endswith(".cc") and not TEST_NAME_RE.match(name):
                findings.append(Finding(
                    os.path.join("tests", name), 1, "file-naming",
                    "test sources must be named <suite>_test.cc"))
    bench_dir = os.path.join(root, "bench")
    if os.path.isdir(bench_dir):
        for name in sorted(os.listdir(bench_dir)):
            if name.endswith(".cc") and not BENCH_CC_RE.match(name):
                findings.append(Finding(
                    os.path.join("bench", name), 1, "file-naming",
                    "bench sources must be fig<N>_*/table<N>_*/perf_*/"
                    "ablation_*/*_common .cc"))
            if name.endswith(".h") and not BENCH_H_RE.match(name):
                findings.append(Finding(
                    os.path.join("bench", name), 1, "file-naming",
                    "bench headers must be named *_common.h"))


def check_metric_naming(root, findings):
    for path in iter_source_files(root, "src", {".h", ".cc"}):
        # Comments are stripped but string literals kept: the metric
        # name IS a string literal.
        code = strip_comments(read_text(path), keep_strings=True)
        for m in METRIC_CALL_RE.finditer(code):
            kind, name = m.group(1), m.group(2)
            if not METRIC_NAME_RE.match(name):
                findings.append(Finding(
                    relpath(root, path), line_of(code, m.start()),
                    "metric-naming",
                    "metric name '%s' must match "
                    "vtrain_<subsystem>_<name>[_unit] "
                    "(snake_case, vtrain_ prefix)" % name))
            elif (kind in ("counter", "declareCounter") and
                  not name.endswith("_total")):
                findings.append(Finding(
                    relpath(root, path), line_of(code, m.start()),
                    "metric-naming",
                    "counter '%s' must end in _total (Prometheus "
                    "counter convention)" % name))


def read_text(path):
    with open(path, encoding="utf-8", errors="replace") as f:
        return f.read()


def run_all(root):
    findings = []
    check_naked_mutex(root, findings)
    check_missing_annotation(root, findings)
    check_wire_schema(root, findings)
    check_file_naming(root, findings)
    check_metric_naming(root, findings)
    return findings


# --------------------------------------------------------------- self-test

FIXTURE_NAKED = """\
#include <mutex>
static std::mutex g_mu;
void f() { std::lock_guard<std::mutex> lock(g_mu); }
// std::mutex in a comment must NOT fire
static const char *s = "std::lock_guard in a string must NOT fire";
"""

FIXTURE_UNANNOTATED_H = """\
#include "util/mutex.h"
class Unannotated {
  public:
    void drainLocked();     // assumes mu_ held, says nothing
  private:
    util::Mutex mu_;        // guards nothing visibly
    int counter_ = 0;
};
"""

FIXTURE_ANNOTATED_H = """\
#include "util/mutex.h"
#include "util/thread_annotations.h"
class Annotated {
  public:
    void drainLocked() REQUIRES(mu_);
  private:
    util::Mutex mu_;
    int counter_ GUARDED_BY(mu_) = 0;
};
"""

FIXTURE_METRIC_NAMES = """\
#include "util/metrics.h"
void wire(vtrain::util::MetricRegistry &r) {
    r.counter("vtrain_http_requests_total")->inc();   // ok
    r.gauge("vtrain_pool_queue_depth")->set(0);       // ok
    r.histogram("vtrain_sim_phase_seconds");          // ok
    r.declareCounter("vtrain_service_drops_total");   // ok
    r.counter("http_requests_total");    // bad: missing vtrain_ prefix
    r.counter("vtrain_http_retries");    // bad: counter without _total
    r.gauge("vtrain_Pool_depth");        // bad: not snake_case
    // r.counter("BAD_in_comment") must NOT fire
}
"""

FIXTURE_WIRE_RAW = """\
net::HttpResponse Frontend::handleRaw() {
    json::Value body = json::Value::object();       // bad: raw payload
    body.set("results", json::Value::array());      // bad: raw payload
    body.set("plan", toJsonValue(plan));            // bad: legacy codec
    if (!simRequestFromJsonValue(body, &req))       // bad: legacy codec
        return net::errorResponse(400, "nope");     // bad: raw envelope
    return jsonErrorBody(422, "nope");              // bad: ad-hoc body
    response.status = 503;                          // bad: hand-rolled
    response.status = 200;                          // legal: success
    // json::Value::object() in a comment must NOT fire
    auto fine = wire::v1::errorResponse(400, "ok"); // legal
}
"""


def expect(cond, what, failures):
    if not cond:
        failures.append(what)


def self_test():
    failures = []
    with tempfile.TemporaryDirectory(prefix="vtrain-lint-") as root:
        for rel, content in [
            (os.path.join("src", "foo", "naked.cc"), FIXTURE_NAKED),
            (os.path.join("src", "foo", "unannotated.h"),
             FIXTURE_UNANNOTATED_H),
            (os.path.join("src", "foo", "annotated.h"),
             FIXTURE_ANNOTATED_H),
            (os.path.join("src", "util", "exempt.cc"),
             "#include <mutex>\nstd::mutex ok_here;\n"),
            (os.path.join("src", "serve", "http_frontend.cc"),
             FIXTURE_WIRE_RAW),
            (os.path.join("src", "foo", "metric_names.cc"),
             FIXTURE_METRIC_NAMES),
            (os.path.join("tests", "util_test.cc"), "// ok\n"),
            (os.path.join("tests", "BadName.cc"), "// bad\n"),
            (os.path.join("bench", "perf_widget.cc"), "// ok\n"),
            (os.path.join("bench", "scratch.cc"), "// bad\n"),
            (os.path.join("bench", "bench_common.h"), "// ok\n"),
        ]:
            path = os.path.join(root, rel)
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.write(content)

        findings = run_all(root)
        by_rule = {}
        for f in findings:
            by_rule.setdefault(f.rule, []).append(f)

        naked = by_rule.get("naked-mutex", [])
        # Line 3 fires twice: std::lock_guard and its std::mutex
        # template argument are each a banned token.
        expect(len(naked) == 3 and
               all(f.path.endswith("naked.cc") for f in naked),
               "naked-mutex: expected exactly the 3 seeded hits, got "
               "%s" % [str(f) for f in naked], failures)
        expect(naked and naked[0].line == 2,
               "naked-mutex: wrong line number", failures)

        missing = by_rule.get("missing-annotation", [])
        expect(len(missing) == 2 and
               all(f.path.endswith("unannotated.h") for f in missing),
               "missing-annotation: expected the 2 seeded hits "
               "(unannotated mutex + Locked method), got %s"
               % [str(f) for f in missing], failures)

        wire = by_rule.get("wire-schema", [])
        expect(len(wire) == 7 and
               all(f.path.endswith("http_frontend.cc") for f in wire),
               "wire-schema: expected the 7 seeded hits (object, "
               "array, toJsonValue, FromJsonValue, net::errorResponse, "
               "jsonErrorBody, .status = 5xx), got %s"
               % [str(f) for f in wire], failures)

        metric = by_rule.get("metric-naming", [])
        expect(len(metric) == 3 and
               all(f.path.endswith("metric_names.cc") for f in metric),
               "metric-naming: expected the 3 seeded hits (no prefix, "
               "counter sans _total, CamelCase), got %s"
               % [str(f) for f in metric], failures)
        expect(metric and metric[0].line == 7,
               "metric-naming: wrong line number, got %s"
               % [str(f) for f in metric], failures)

        naming = by_rule.get("file-naming", [])
        expect(sorted(f.path for f in naming) ==
               [os.path.join("bench", "scratch.cc"),
                os.path.join("tests", "BadName.cc")],
               "file-naming: expected BadName.cc + scratch.cc, got %s"
               % [str(f) for f in naming], failures)

    # A second, violation-free tree must come back clean.
    with tempfile.TemporaryDirectory(prefix="vtrain-lint-") as root:
        path = os.path.join(root, "src", "foo", "annotated.h")
        os.makedirs(os.path.dirname(path))
        with open(path, "w", encoding="utf-8") as f:
            f.write(FIXTURE_ANNOTATED_H)
        clean = run_all(root)
        expect(not clean, "clean tree produced findings: %s"
               % [str(f) for f in clean], failures)

    if failures:
        for failure in failures:
            print("SELF-TEST FAIL:", failure, file=sys.stderr)
        return 1
    print("lint.py self-test: all rules fire on seeded violations, "
          "clean tree stays clean")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=None,
                        help="repository root (default: the checkout "
                             "containing this script)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the seeded-violation fixtures")
    args = parser.parse_args()

    if args.self_test:
        return self_test()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    findings = run_all(root)
    for finding in findings:
        print(finding)
    if findings:
        print("\nlint.py: %d finding(s); see scripts/lint.py --help "
              "for the rules' rationale" % len(findings),
              file=sys.stderr)
        return 1
    print("lint.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
