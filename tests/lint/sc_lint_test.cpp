// sc_lint behaves as a contract: fixture files pin the exact diagnostics
// (file, line, rule), and the lexer/marker machinery is unit-tested against
// the corner cases that would silently disable a rule.
#include "lint/sc_lint.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

namespace {

using sc::lint::Diagnostic;
using sc::lint::lint_source;
using sc::lint::Options;

std::vector<Diagnostic> lint(std::string_view text, Options options = {}) {
    return lint_source("test.cpp", text, options);
}

std::string fixture_path(const std::string& name) {
    return std::string(SC_LINT_FIXTURE_DIR) + "/" + name;
}

// --- fixtures -------------------------------------------------------------

TEST(ScLintFixtures, KnownGoodIsClean) {
    const auto diags = sc::lint::lint_file(fixture_path("known_good.cpp"));
    ASSERT_TRUE(diags.has_value());
    EXPECT_TRUE(diags->empty()) << sc::lint::format(diags->front());
}

TEST(ScLintFixtures, KnownBadSeedsAreEachCaught) {
    const auto diags = sc::lint::lint_file(fixture_path("known_bad.cpp"));
    ASSERT_TRUE(diags.has_value());
    // (line, rule) for every seeded violation, in order.
    const std::vector<std::pair<unsigned, std::string>> expected = {
        {8, "raw-mutex"},           {11, "raw-mutex"},
        {15, "hotpath-alloc"},      {19, "hotpath-alloc"},
        {23, "eventloop-blocking"}, {24, "eventloop-blocking"},
        {28, "raw-counter-shift"},
        {32, "eventloop-blocking"}, {33, "eventloop-blocking"},
        {34, "eventloop-blocking"}, {35, "eventloop-blocking"},
        {36, "eventloop-blocking"}, {37, "eventloop-blocking"},
        {41, "eventloop-blocking"}, {42, "eventloop-blocking"},
        {43, "eventloop-blocking"}, {44, "eventloop-blocking"},
        {48, "raw-poll"},           {49, "raw-poll"},
        {50, "raw-poll"},           {54, "eventloop-blocking"},
        {61, "raw-decode"},         {62, "raw-decode"},
        {63, "raw-decode"},         {64, "raw-decode"},
        {68, "exhaustive-wire-switch"},
        {75, "waiver-sanity"},
    };
    ASSERT_EQ(diags->size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ((*diags)[i].line, expected[i].first) << sc::lint::format((*diags)[i]);
        EXPECT_EQ((*diags)[i].rule, expected[i].second) << sc::lint::format((*diags)[i]);
    }
}

TEST(ScLintFixtures, MissingFileIsAnError) {
    EXPECT_FALSE(sc::lint::lint_file(fixture_path("no_such_file.cpp")).has_value());
}

// --- diagnostic format ----------------------------------------------------

TEST(ScLintFormat, MatchesCompilerStyle) {
    const Diagnostic d{"a/b.cpp", 12, "raw-mutex", "boom"};
    EXPECT_EQ(sc::lint::format(d), "a/b.cpp:12: error: [raw-mutex] boom");
}

// --- raw-mutex ------------------------------------------------------------

TEST(ScLintRawMutex, FlagsEveryStdSyncType) {
    for (const char* t : {"mutex", "lock_guard", "unique_lock", "scoped_lock",
                          "condition_variable", "shared_mutex"}) {
        const auto diags = lint("std::" + std::string(t) + " x;");
        ASSERT_EQ(diags.size(), 1u) << t;
        EXPECT_EQ(diags[0].rule, "raw-mutex");
        EXPECT_EQ(diags[0].line, 1u);
    }
}

TEST(ScLintRawMutex, WrapperHeaderIsExempt) {
    EXPECT_TRUE(lint_source("src/util/thread_annotations.hpp",
                            "std::mutex mu_; std::condition_variable cv_;")
                    .empty());
}

TEST(ScLintRawMutex, ScWrappersAreClean) {
    EXPECT_TRUE(lint("sc::Mutex mu; const sc::MutexLock lock(mu);").empty());
}

TEST(ScLintRawMutex, CommentsAndStringsAreStripped) {
    EXPECT_TRUE(lint("// std::mutex here\n"
                     "/* std::lock_guard there */\n"
                     "const char* s = \"std::mutex\";\n"
                     "const char* r = R\"(std::condition_variable)\";\n")
                    .empty());
}

// --- marker scoping -------------------------------------------------------

TEST(ScLintHotPath, DeclarationIsNotABody) {
    EXPECT_TRUE(lint("SC_HOT_PATH bool probe(std::string_view key);\n"
                     "void elsewhere() { auto p = new int; }\n")
                    .empty());
}

TEST(ScLintHotPath, BodyEndsAtMatchingBrace) {
    const auto diags = lint("SC_HOT_PATH void f() { if (x) { y(); } }\n"
                            "void g() { auto p = new int; }\n");
    EXPECT_TRUE(diags.empty());  // the `new` is outside the marked body
}

TEST(ScLintHotPath, TheDefineItselfIsSkipped) {
    EXPECT_TRUE(lint("#define SC_HOT_PATH\n#define SC_EVENT_LOOP_ONLY\n").empty());
}

TEST(ScLintHotPath, WaiverOnPreviousLineSuppresses) {
    EXPECT_TRUE(lint("SC_HOT_PATH void f(Buf& out) {\n"
                     "    // sc_lint: allow(hotpath-alloc) inline buffer\n"
                     "    out.push_back(1);\n"
                     "}\n")
                    .empty());
}

TEST(ScLintHotPath, WaiverNamesTheRule) {
    const auto diags = lint("SC_HOT_PATH void f(Buf& out) {\n"
                            "    // sc_lint: allow(raw-mutex) wrong rule named\n"
                            "    out.push_back(1);\n"
                            "}\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "hotpath-alloc");
    EXPECT_EQ(diags[0].line, 3u);
}

TEST(ScLintHotPath, IdentifierMustBeACall) {
    // A member or local merely NAMED like a deny-listed call is fine...
    EXPECT_TRUE(lint("SC_HOT_PATH int f(S s) { return s.reserve; }\n").empty());
    // ...but calling it is not.
    EXPECT_EQ(lint("SC_HOT_PATH void f(S s) { s.reserve(4); }\n").size(), 1u);
}

TEST(ScLintEventLoop, BlockingCallsAreNamed) {
    const auto diags = lint(
        "SC_EVENT_LOOP_ONLY void step() {\n"
        "    conn.write_all(buf);\n"
        "    origin.connect(ep);\n"
        "}\n");
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].rule, "eventloop-blocking");
    EXPECT_NE(diags[0].message.find("write_all"), std::string::npos);
    EXPECT_NE(diags[1].message.find("connect"), std::string::npos);
}

TEST(ScLintEventLoop, FileIoIsBlocking) {
    // Disk work (the src/store tier) must stay on worker threads.
    const auto diags = lint(
        "SC_EVENT_LOOP_ONLY void touch() {\n"
        "    const int fd = open(path, 0);\n"
        "    pread(fd, buf, n, 0);\n"
        "    fdatasync(fd);\n"
        "}\n");
    ASSERT_EQ(diags.size(), 3u);
    for (const auto& d : diags) EXPECT_EQ(d.rule, "eventloop-blocking");
}

TEST(ScLintEventLoop, SummaryEncodingIsBlocking) {
    // Serializing a bitmap can be megabytes of work, and node_mu_ is held
    // across a whole encode-and-send; the loop must hand both to the worker
    // pool instead. The lock is flagged on any use, not only as a call.
    const auto diags = lint(
        "SC_EVENT_LOOP_ONLY void on_resync() {\n"
        "    const auto chunks = node_.encode_full_update_chunks();\n"
        "    const MutexLock lock(node_mu_);\n"
        "}\n");
    ASSERT_EQ(diags.size(), 2u);
    for (const auto& d : diags) EXPECT_EQ(d.rule, "eventloop-blocking");
    EXPECT_EQ(diags[1].line, 3u);
    EXPECT_NE(diags[1].message.find("node_mu_"), std::string::npos);
    // ...but ENQUEUEING the push is exactly what the loop should do.
    EXPECT_TRUE(lint("SC_EVENT_LOOP_ONLY void on_resync() {\n"
                     "    enqueue_task([this, id] { push_full_summary_to(id); });\n"
                     "}\n")
                    .empty());
}

TEST(ScLintEventLoop, FileIoOffTheLoopIsFine) {
    EXPECT_TRUE(lint("void flush(int fd) { fsync(fd); ftruncate(fd, 0); }\n").empty());
}

// --- raw-counter-shift ----------------------------------------------------

TEST(ScLintCounterShift, FlagsWidthShiftOutsideCounterMath) {
    const auto diags = lint("unsigned m = (1u << counter_bits) - 1u;");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "raw-counter-shift");
}

TEST(ScLintCounterShift, CounterMathHeaderIsExempt) {
    EXPECT_TRUE(lint_source("src/bloom/counter_math.hpp",
                            "return (1u << counter_bits) - 1u;")
                    .empty());
}

TEST(ScLintCounterShift, ShiftWithoutWidthIdentIsFine) {
    EXPECT_TRUE(lint("unsigned m = (1u << bits) - 1u; use(counter_bits_);").empty());
}

// --- raw-poll -------------------------------------------------------------

TEST(ScLintRawPoll, FlagsGlobalReadinessCalls) {
    for (const char* call : {"::poll(fds, n, 50)", "poll(fds, n, 50)",
                             "epoll_wait(ep, evs, 64, -1)",
                             "ppoll(fds, n, &ts, nullptr)",
                             "epoll_pwait(ep, evs, 64, -1, nullptr)"}) {
        const auto diags = lint("void f() { " + std::string(call) + "; }");
        ASSERT_EQ(diags.size(), 1u) << call;
        EXPECT_EQ(diags[0].rule, "raw-poll");
    }
}

TEST(ScLintRawPoll, NetLayerIsExempt) {
    EXPECT_TRUE(lint_source("src/net/event_backend.cpp",
                            "int n = ::poll(pfds_.data(), pfds_.size(), ms);")
                    .empty());
    EXPECT_TRUE(lint_source("src/net/fd_poll.hpp",
                            "if (::poll(&pfd, 1, timeout_ms) < 0) {}")
                    .empty());
}

TEST(ScLintRawPoll, MethodsAndWrappersAreNotRawCalls) {
    // Member calls and namespace-qualified wrappers are someone else's
    // abstraction, not a direct syscall.
    EXPECT_TRUE(lint("void f() { backend.poll(out); sel->epoll_wait(out); }").empty());
    EXPECT_TRUE(lint("void f() { mylib::poll(fds, n, 50); }").empty());
    // A member merely named like the syscall is fine too.
    EXPECT_TRUE(lint("int f(S s) { return s.poll; }").empty());
}

TEST(ScLintRawPoll, WaiverSuppresses) {
    EXPECT_TRUE(lint("void f() {\n"
                     "    // sc_lint: allow(raw-poll) startup probe, pre-loop\n"
                     "    ::poll(fds, n, 0);\n"
                     "}\n")
                    .empty());
}

// --- rule selection -------------------------------------------------------

TEST(ScLintOptions, RuleFilterRunsOnlyThatRule) {
    const std::string text =
        "std::mutex mu;\nunsigned m = (1u << counter_bits) - 1u;\n";
    Options only_mutex;
    only_mutex.rules = {"raw-mutex"};
    const auto diags = lint(text, only_mutex);
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "raw-mutex");
    EXPECT_EQ(lint(text).size(), 2u);
}

TEST(ScLintOptions, AllRulesListsEight) {
    EXPECT_EQ(sc::lint::all_rules().size(), 8u);
}

// --- raw-decode -----------------------------------------------------------

TEST(ScLintRawDecode, UnmarkedTuIsOutOfScope) {
    EXPECT_TRUE(lint("void f(Buf& b) { memcpy(dst, b.ptr, 4); }\n").empty());
}

TEST(ScLintRawDecode, MarkedTuDeniesRawReads) {
    const std::string prefix = "SC_UNTRUSTED_DECODE_TU;\n";
    for (const char* bad :
         {"memcpy(dst, src, 4)", "std::memcpy(dst, src, 4)",
          "sscanf(p, \"%u\", &v)", "strtoul(p, nullptr, 10)",
          "reinterpret_cast<const char*>(p)", "use(b.data() + off)"}) {
        const auto diags = lint(prefix + "void f() { " + bad + "; }\n");
        ASSERT_EQ(diags.size(), 1u) << bad;
        EXPECT_EQ(diags[0].rule, "raw-decode");
        EXPECT_EQ(diags[0].line, 2u);
    }
}

TEST(ScLintRawDecode, TheDefineItselfDoesNotMarkTheTu) {
    EXPECT_TRUE(
        lint("#define SC_UNTRUSTED_DECODE_TU static_assert(true, \"\")\n"
             "void f() { memcpy(dst, src, 4); }\n")
            .empty());
}

TEST(ScLintRawDecode, MethodsAndWrappersAreNotRawReads) {
    const std::string prefix = "SC_UNTRUSTED_DECODE_TU;\n";
    EXPECT_TRUE(lint(prefix + "void f(S s) { s.memcpy(p); codec->sscanf(p); }\n")
                    .empty());
    EXPECT_TRUE(lint(prefix + "void f() { mylib::memcpy(d, s, 4); }\n").empty());
    // data() without pointer math (e.g. passed whole to a checked API) is fine.
    EXPECT_TRUE(lint(prefix + "void f(Buf& b) { parse(b.data(), b.size()); }\n")
                    .empty());
}

TEST(ScLintRawDecode, ByteReaderHeadersAreExempt) {
    EXPECT_TRUE(lint_source("src/util/byte_reader.hpp",
                            "SC_UNTRUSTED_DECODE_TU;\n"
                            "auto* p = reinterpret_cast<const std::uint8_t*>(s);\n")
                    .empty());
    EXPECT_TRUE(lint_source("src/util/byte_writer.hpp",
                            "SC_UNTRUSTED_DECODE_TU;\n"
                            "auto* p = reinterpret_cast<std::uint8_t*>(s);\n")
                    .empty());
}

TEST(ScLintRawDecode, WaiverSuppresses) {
    EXPECT_TRUE(lint("SC_UNTRUSTED_DECODE_TU;\n"
                     "void f() {\n"
                     "    // sc_lint: allow(raw-decode) validated by re-encode\n"
                     "    sscanf(name, \"seg-%16llx.log\", &id);\n"
                     "}\n")
                    .empty());
}

// --- exhaustive-wire-switch -----------------------------------------------

TEST(ScLintWireSwitch, MissingEnumeratorsAreNamed) {
    const auto diags = lint(
        "int f(IcpOpcode op) {\n"
        "    switch (op) {\n"
        "        case IcpOpcode::query: return 1;\n"
        "        case IcpOpcode::hit: return 2;\n"
        "    }\n"
        "    return 0;\n"
        "}\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "exhaustive-wire-switch");
    EXPECT_EQ(diags[0].line, 2u);
    EXPECT_NE(diags[0].message.find("dirupdate"), std::string::npos);
    EXPECT_EQ(diags[0].message.find("query"), std::string::npos);
}

TEST(ScLintWireSwitch, DefaultArmIsTotal) {
    EXPECT_TRUE(lint("int f(IcpOpcode op) {\n"
                     "    switch (op) {\n"
                     "        case IcpOpcode::query: return 1;\n"
                     "        default: return 0;\n"
                     "    }\n"
                     "}\n")
                    .empty());
}

TEST(ScLintWireSwitch, FullCoverageIsTotal) {
    const std::string cases =
        "case SummaryApplyResult::applied: case SummaryApplyResult::partial:\n"
        "case SummaryApplyResult::duplicate: case SummaryApplyResult::stale:\n"
        "case SummaryApplyResult::gap: case SummaryApplyResult::need_bootstrap:\n"
        "case SummaryApplyResult::need_resync: case SummaryApplyResult::rejected:\n";
    EXPECT_TRUE(lint("int f(SummaryApplyResult r) {\n"
                     "    switch (r) {\n" + cases +
                     "        return 1;\n"
                     "    }\n"
                     "    return 0;\n"
                     "}\n")
                    .empty());
    // Dropping one enumerator breaks totality again.
    const auto diags = lint(
        "int f(SummaryApplyResult r) {\n"
        "    switch (r) {\n"
        "        case SummaryApplyResult::applied: return 1;\n"
        "    }\n"
        "    return 0;\n"
        "}\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_NE(diags[0].message.find("need_resync"), std::string::npos);
}

TEST(ScLintWireSwitch, OtherEnumsAreIgnored) {
    EXPECT_TRUE(lint("int f(Color c) {\n"
                     "    switch (c) { case Color::red: return 1; }\n"
                     "    return 0;\n"
                     "}\n")
                    .empty());
}

TEST(ScLintWireSwitch, NestedSwitchesAreIndependent) {
    // The inner switch is total (default); only the outer one is short.
    const auto diags = lint(
        "int f(IcpOpcode op, int k) {\n"
        "    switch (op) {\n"
        "        case IcpOpcode::query: {\n"
        "            switch (k) { default: return 9; }\n"
        "        }\n"
        "    }\n"
        "    return 0;\n"
        "}\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].line, 2u);
}

// --- waiver-sanity --------------------------------------------------------

TEST(ScLintWaiverSanity, UnknownRuleIsAViolation) {
    const auto diags = lint("void f() {\n"
                            "    // sc_lint: allow(no-such-rule) typo\n"
                            "    use(0);\n"
                            "}\n");
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "waiver-sanity");
    EXPECT_EQ(diags[0].line, 2u);
    EXPECT_NE(diags[0].message.find("no-such-rule"), std::string::npos);
}

TEST(ScLintWaiverSanity, KnownRuleWaiverIsNotAViolation) {
    EXPECT_TRUE(lint("void f() {\n"
                     "    // sc_lint: allow(raw-poll) pre-loop probe\n"
                     "    ::poll(fds, n, 0);\n"
                     "}\n")
                    .empty());
}

// --- unused-waiver notes --------------------------------------------------

TEST(ScLintNotes, UnusedWaiverProducesANote) {
    const auto report = sc::lint::lint_source_report(
        "test.cpp",
        "void f() {\n"
        "    // sc_lint: allow(raw-poll) nothing left to waive\n"
        "    use(0);\n"
        "}\n");
    EXPECT_TRUE(report.diagnostics.empty());
    ASSERT_EQ(report.notes.size(), 1u);
    EXPECT_EQ(report.notes[0].line, 2u);
    EXPECT_NE(report.notes[0].message.find("raw-poll"), std::string::npos);
}

TEST(ScLintNotes, UsedWaiverProducesNoNote) {
    const auto report = sc::lint::lint_source_report(
        "test.cpp",
        "void f() {\n"
        "    // sc_lint: allow(raw-poll) startup probe\n"
        "    ::poll(fds, n, 0);\n"
        "}\n");
    EXPECT_TRUE(report.diagnostics.empty());
    EXPECT_TRUE(report.notes.empty());
}

TEST(ScLintNotes, UnknownRuleWaiverIsNotAlsoAnUnusedNote) {
    const auto report = sc::lint::lint_source_report(
        "test.cpp", "// sc_lint: allow(no-such-rule) typo\nuse(0);\n");
    EXPECT_EQ(report.diagnostics.size(), 1u);  // waiver-sanity owns this
    EXPECT_TRUE(report.notes.empty());
}

TEST(ScLintNotes, NarrowedRunProducesNoNotes) {
    Options only_mutex;
    only_mutex.rules = {"raw-mutex"};
    const auto report = sc::lint::lint_source_report(
        "test.cpp",
        "// sc_lint: allow(raw-poll) rule not even running\nuse(0);\n",
        only_mutex);
    EXPECT_TRUE(report.diagnostics.empty());
    EXPECT_TRUE(report.notes.empty());
}

TEST(ScLintNotes, NoteFormatMatchesCompilerStyle) {
    const sc::lint::Note n{"a/b.cpp", 7, "unused sc_lint waiver"};
    EXPECT_EQ(sc::lint::format(n), "a/b.cpp:7: note: unused sc_lint waiver");
}

TEST(ScLintNotes, StaleWaiverFixtureYieldsExactlyOneNote) {
    const auto report = sc::lint::lint_file_report(fixture_path("stale_waiver.cpp"));
    ASSERT_TRUE(report.has_value());
    EXPECT_TRUE(report->diagnostics.empty());
    ASSERT_EQ(report->notes.size(), 1u);
    EXPECT_EQ(report->notes[0].line, 8u);
}

}  // namespace
