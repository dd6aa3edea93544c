// sc_lint — the repo's custom invariant checker (docs/STATIC_ANALYSIS.md).
//
// Clang's thread-safety analysis proves lock discipline, but these project
// invariants live outside any compiler's type system:
//
//   raw-mutex          std::mutex / std::lock_guard / std::unique_lock /
//                      std::condition_variable may only appear inside
//                      util/thread_annotations.hpp. Everywhere else must use
//                      the annotated sc::Mutex family, or the thread-safety
//                      analysis silently sees nothing.
//   hotpath-alloc      functions whose definition is marked SC_HOT_PATH must
//                      not heap-allocate (the Bloom probe path is the per-
//                      request cost the paper's scaling argument rests on).
//   eventloop-blocking functions marked SC_EVENT_LOOP_ONLY run on MiniProxy's
//                      single poll loop and must never issue a blocking
//                      socket call or sleep, or touch node_mu_ (held
//                      across a whole encode-and-send) — one blocked loop
//                      stalls every session.
//   raw-counter-shift  counter-width arithmetic ((1 << counter_bits) - 1 and
//                      friends) is how Section IV overflow bugs happen; it is
//                      only allowed inside bloom/counter_math.hpp, which
//                      everything else must call.
//   raw-poll           poll/ppoll/epoll_wait/epoll_pwait may only be issued
//                      from src/net/ — the readiness layer. Everything else
//                      goes through sc::net::EventBackend (event loops) or
//                      sc::net::wait_fd_readable (one-shot waits), so backend
//                      selection and wait accounting stay in one place.
//   raw-decode         a TU marked SC_UNTRUSTED_DECODE_TU parses attacker-
//                      controlled bytes; memcpy/sscanf-style raw reads,
//                      reinterpret_cast, and data()+offset pointer math are
//                      denied there — every read goes through
//                      sc::util::ByteReader (util/byte_reader.hpp, the one
//                      exempt header along with byte_writer.hpp).
//   exhaustive-wire-switch
//                      a switch over a wire-facing enum (IcpOpcode,
//                      SummaryApplyResult) must carry a default arm or cover
//                      every enumerator, so adding an opcode cannot leave a
//                      silent fall-through anywhere in the mesh.
//   waiver-sanity      an `allow(...)` comment naming a rule sc_lint does
//                      not know is a typo that silently disables nothing —
//                      it is itself a violation.
//
// The checker is a token-level scanner, not a compiler plugin: the toolchain
// image has no libclang, and these rules only need honest lexing (comments,
// string literals and raw strings stripped) plus brace matching to find
// marked function bodies.
//
// A finding can be waived at the offending line, or the line above, with:
//
//     // sc_lint: allow(<rule-id>) <reason>
//
// The reason is mandatory by convention (reviewers reject bare waivers).
// A waiver that suppresses nothing is reported as an informational note
// (exit code unaffected) so stale allows cannot rot silently.
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace sc::lint {

struct Diagnostic {
    std::string file;
    unsigned line = 0;
    std::string rule;
    std::string message;

    friend bool operator==(const Diagnostic&, const Diagnostic&) = default;
};

/// "<file>:<line>: error: [<rule>] <message>" — the format CI greps for.
[[nodiscard]] std::string format(const Diagnostic& d);

/// Informational finding (never affects the exit code): currently only
/// "unused waiver" hygiene reports.
struct Note {
    std::string file;
    unsigned line = 0;
    std::string message;

    friend bool operator==(const Note&, const Note&) = default;
};

/// "<file>:<line>: note: <message>" — printed to stderr by the CLI.
[[nodiscard]] std::string format(const Note& n);

/// Rule identifiers accepted by Options::rules, in report order.
[[nodiscard]] const std::vector<std::string>& all_rules();

struct Options {
    /// Rule ids to run; empty means all of them.
    std::vector<std::string> rules;
};

/// Full result of linting one translation unit. Notes are only produced on
/// an all-rules run (a narrowed --rule= run cannot tell a stale waiver from
/// one whose rule simply was not executed).
struct LintReport {
    std::vector<Diagnostic> diagnostics;
    std::vector<Note> notes;
};

/// Lint one translation unit's text. `path` is used for reporting and for
/// the path-based exemptions (thread_annotations.hpp, counter_math.hpp).
[[nodiscard]] LintReport lint_source_report(std::string_view path,
                                            std::string_view text,
                                            const Options& options = {});

/// Diagnostics-only convenience wrapper over lint_source_report.
[[nodiscard]] std::vector<Diagnostic> lint_source(std::string_view path,
                                                  std::string_view text,
                                                  const Options& options = {});

/// Lint a file from disk; nullopt if it cannot be read.
[[nodiscard]] std::optional<LintReport> lint_file_report(
    const std::filesystem::path& path, const Options& options = {});

/// Diagnostics-only convenience wrapper over lint_file_report.
[[nodiscard]] std::optional<std::vector<Diagnostic>> lint_file(
    const std::filesystem::path& path, const Options& options = {});

/// Expand files and directories (recursing for C++ sources) into the sorted
/// list of files sc_lint would visit.
[[nodiscard]] std::vector<std::filesystem::path> collect_sources(
    const std::vector<std::filesystem::path>& paths);

}  // namespace sc::lint
