#include "lint/sc_lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <fstream>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <utility>

namespace sc::lint {
namespace {

// ---------------------------------------------------------------------------
// Lexing: blank out comments and literals, keep line structure, and harvest
// `sc_lint: allow(<rule>)` waivers from the comment text as it goes by.
// ---------------------------------------------------------------------------

struct Stripped {
    /// Source text with every comment, string and char literal replaced by
    /// spaces — same length, same newlines, so columns and lines survive.
    std::string code;
    /// line -> rules waived on that line (by an allow() comment).
    std::map<unsigned, std::set<std::string>> waivers;
};

void harvest_waivers(std::string_view comment, unsigned line, Stripped& out) {
    static constexpr std::string_view kTag = "sc_lint: allow(";
    std::size_t at = 0;
    while ((at = comment.find(kTag, at)) != std::string_view::npos) {
        at += kTag.size();
        const std::size_t close = comment.find(')', at);
        if (close == std::string_view::npos) return;
        out.waivers[line].insert(std::string(comment.substr(at, close - at)));
        at = close;
    }
}

Stripped strip(std::string_view text) {
    enum class State { code, line_comment, block_comment, string, chr, raw_string };
    Stripped out;
    out.code.reserve(text.size());
    State state = State::code;
    unsigned line = 1;
    unsigned comment_line = 1;  // line the current comment started on
    std::string comment;        // text of the current comment
    std::string raw_close;      // )delim" that ends the active raw string

    for (std::size_t i = 0; i < text.size(); ++i) {
        const char c = text[i];
        const char next = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (state) {
            case State::code:
                if (c == '/' && next == '/') {
                    state = State::line_comment;
                    comment_line = line;
                    comment.clear();
                    out.code += "  ";
                    ++i;
                } else if (c == '/' && next == '*') {
                    state = State::block_comment;
                    comment_line = line;
                    comment.clear();
                    out.code += "  ";
                    ++i;
                } else if (c == '"') {
                    // R"delim( ... )delim" — the delimiter may be empty.
                    const bool raw = i > 0 && text[i - 1] == 'R' &&
                                     (i < 2 || !(std::isalnum(static_cast<unsigned char>(
                                                     text[i - 2])) ||
                                                 text[i - 2] == '_'));
                    if (raw) {
                        const std::size_t open = text.find('(', i + 1);
                        if (open != std::string_view::npos) {
                            raw_close = ")";
                            raw_close += text.substr(i + 1, open - i - 1);
                            raw_close += '"';
                            state = State::raw_string;
                            out.code += ' ';
                            break;
                        }
                    }
                    state = State::string;
                    out.code += ' ';
                } else if (c == '\'') {
                    state = State::chr;
                    out.code += ' ';
                } else {
                    out.code += c;
                }
                break;
            case State::line_comment:
                if (c == '\n') {
                    harvest_waivers(comment, comment_line, out);
                    state = State::code;
                    out.code += '\n';
                } else {
                    comment += c;
                    out.code += ' ';
                }
                break;
            case State::block_comment:
                if (c == '*' && next == '/') {
                    harvest_waivers(comment, comment_line, out);
                    state = State::code;
                    out.code += "  ";
                    ++i;
                } else {
                    comment += c;
                    out.code += c == '\n' ? '\n' : ' ';
                }
                break;
            case State::string:
                if (c == '\\' && next != '\0') {
                    out.code += "  ";
                    ++i;
                    if (next == '\n') {
                        out.code.back() = '\n';
                        ++line;
                    }
                } else if (c == '"') {
                    state = State::code;
                    out.code += ' ';
                } else {
                    out.code += c == '\n' ? '\n' : ' ';
                }
                break;
            case State::chr:
                if (c == '\\' && next != '\0') {
                    out.code += "  ";
                    ++i;
                } else if (c == '\'') {
                    state = State::code;
                    out.code += ' ';
                } else {
                    out.code += ' ';
                }
                break;
            case State::raw_string:
                if (c == raw_close.front() &&
                    text.substr(i, raw_close.size()) == raw_close) {
                    for (char rc : raw_close) out.code += rc == '\n' ? '\n' : ' ';
                    i += raw_close.size() - 1;
                    state = State::code;
                } else {
                    out.code += c == '\n' ? '\n' : ' ';
                }
                break;
        }
        if (c == '\n' && state != State::string) ++line;
    }
    if (state == State::line_comment) harvest_waivers(comment, comment_line, out);
    return out;
}

// ---------------------------------------------------------------------------
// Tokens
// ---------------------------------------------------------------------------

struct Token {
    std::string_view text;
    unsigned line = 0;
    bool ident = false;
};

std::vector<Token> tokenize(std::string_view code) {
    std::vector<Token> out;
    unsigned line = 1;
    std::size_t i = 0;
    const auto is_ident = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    while (i < code.size()) {
        const char c = code[i];
        if (c == '\n') {
            ++line;
            ++i;
        } else if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
        } else if (is_ident(c)) {
            std::size_t j = i;
            while (j < code.size() && is_ident(code[j])) ++j;
            out.push_back({code.substr(i, j - i), line, true});
            i = j;
        } else if ((c == '<' || c == '>') && i + 1 < code.size() &&
                   code[i + 1] == c) {
            out.push_back({code.substr(i, 2), line, false});
            i += 2;
        } else if (c == ':' && i + 1 < code.size() && code[i + 1] == ':') {
            out.push_back({code.substr(i, 2), line, false});
            i += 2;
        } else {
            out.push_back({code.substr(i, 1), line, false});
            ++i;
        }
    }
    return out;
}

bool path_ends_with(std::string_view path, std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.substr(path.size() - suffix.size()) == suffix;
}

struct Sink {
    std::string_view path;
    const Stripped& stripped;
    const Options& options;
    std::vector<Diagnostic>& out;
    /// (waiver line, rule) pairs that actually suppressed a finding — the
    /// complement feeds the unused-waiver notes.
    std::set<std::pair<unsigned, std::string>>& used_waivers;

    [[nodiscard]] bool enabled(std::string_view rule) const {
        return options.rules.empty() ||
               std::find(options.rules.begin(), options.rules.end(), rule) !=
                   options.rules.end();
    }

    void report(unsigned line, const std::string& rule, std::string message) {
        // A waiver covers the offending line or the line above it.
        for (const unsigned at : {line, line == 0 ? 0 : line - 1}) {
            const auto it = stripped.waivers.find(at);
            if (it != stripped.waivers.end() && it->second.count(rule)) {
                used_waivers.insert({at, rule});
                return;
            }
        }
        out.push_back({std::string(path), line, rule, std::move(message)});
    }
};

// ---------------------------------------------------------------------------
// Rule: raw-mutex
// ---------------------------------------------------------------------------

constexpr std::array kRawSyncTypes = {
    std::string_view("mutex"),          std::string_view("timed_mutex"),
    std::string_view("recursive_mutex"), std::string_view("shared_mutex"),
    std::string_view("lock_guard"),     std::string_view("unique_lock"),
    std::string_view("scoped_lock"),    std::string_view("shared_lock"),
    std::string_view("condition_variable"),
    std::string_view("condition_variable_any"),
};

void check_raw_mutex(const std::vector<Token>& tokens, Sink& sink) {
    if (!sink.enabled("raw-mutex")) return;
    // The wrapper header is the one place allowed to touch the raw types.
    if (path_ends_with(sink.path, "util/thread_annotations.hpp")) return;
    for (std::size_t i = 0; i + 2 < tokens.size(); ++i) {
        if (tokens[i].text != "std" || tokens[i + 1].text != "::") continue;
        const Token& name = tokens[i + 2];
        if (std::find(kRawSyncTypes.begin(), kRawSyncTypes.end(), name.text) ==
            kRawSyncTypes.end())
            continue;
        sink.report(name.line, "raw-mutex",
                    "raw std::" + std::string(name.text) +
                        "; use the annotated sc::Mutex / sc::MutexLock / "
                        "sc::CondVar from util/thread_annotations.hpp");
    }
}

// ---------------------------------------------------------------------------
// Rules: hotpath-alloc and eventloop-blocking (marker-scoped deny lists)
// ---------------------------------------------------------------------------

constexpr std::array kAllocCalls = {
    std::string_view("new"),          std::string_view("malloc"),
    std::string_view("calloc"),       std::string_view("realloc"),
    std::string_view("strdup"),       std::string_view("make_unique"),
    std::string_view("make_shared"),  std::string_view("push_back"),
    std::string_view("emplace_back"), std::string_view("emplace"),
    std::string_view("resize"),       std::string_view("reserve"),
    std::string_view("append"),       std::string_view("to_string"),
};

constexpr std::array kBlockingCalls = {
    std::string_view("connect"),       std::string_view("read_line"),
    std::string_view("read_exact"),    std::string_view("write_all"),
    std::string_view("wait_readable"), std::string_view("sleep_for"),
    std::string_view("sleep_until"),
    // One-shot readiness wait (src/net/fd_poll.hpp): fine on worker and
    // accept threads, but the event loop must multiplex via EventBackend.
    std::string_view("wait_fd_readable"),
    // File I/O: the disk store (src/store) runs on worker threads; none of
    // it may creep onto the poll loop (docs/STORAGE.md "Threading").
    std::string_view("open"),          std::string_view("openat"),
    std::string_view("pread"),         std::string_view("pwrite"),
    std::string_view("fsync"),         std::string_view("fdatasync"),
    std::string_view("ftruncate"),
    // Summary encoding: serializing a bitmap or a delta can be megabytes of
    // work — full-summary pushes belong on the worker pool
    // (MiniProxy::push_full_summary_to), never the poll loop.
    std::string_view("encode_full_update"),
    std::string_view("encode_full_update_chunks"),
    std::string_view("encode_pending_updates"),
};

/// Locks the poll loop must not touch at all, named as identifiers rather
/// than calls: MiniProxy's node_mu_ is held across a whole encode-and-send,
/// so waiting on it stalls every session.
constexpr std::array kEventLoopDeniedLocks = {
    std::string_view("node_mu_"),
};

/// Find the body of the marked function: tokens[i] is the marker. Returns
/// {body_begin, body_end} token indices (exclusive of braces), or nullopt if
/// the marker sits on a declaration (a `;` shows up before any top-level
/// `{`) or on the `#define` itself.
std::optional<std::pair<std::size_t, std::size_t>> marked_body(
    const std::vector<Token>& tokens, std::size_t i) {
    if (i > 0 && tokens[i - 1].text == "define") return std::nullopt;
    int parens = 0;
    std::size_t j = i + 1;
    for (; j < tokens.size(); ++j) {
        const auto t = tokens[j].text;
        if (t == "(")
            ++parens;
        else if (t == ")")
            --parens;
        else if (parens == 0 && t == ";")
            return std::nullopt;  // declaration: the definition carries the check
        else if (parens == 0 && t == "{")
            break;
    }
    if (j >= tokens.size()) return std::nullopt;
    int depth = 1;
    std::size_t k = j + 1;
    for (; k < tokens.size() && depth > 0; ++k) {
        if (tokens[k].text == "{") ++depth;
        if (tokens[k].text == "}") --depth;
    }
    return std::make_pair(j + 1, k > j ? k - 1 : j + 1);
}

/// Report deny-listed calls (`deny_calls`, followed by `(` or `<`) and any
/// use of a deny-listed lock (`deny_locks`) inside the marked bodies.
void check_marked(const std::vector<Token>& tokens, Sink& sink,
                  std::string_view marker, const std::string& rule,
                  std::span<const std::string_view> deny_calls, std::string_view what,
                  std::span<const std::string_view> deny_locks = {}) {
    if (!sink.enabled(rule)) return;
    if (path_ends_with(sink.path, "util/thread_annotations.hpp")) return;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (tokens[i].text != marker || !tokens[i].ident) continue;
        const auto body = marked_body(tokens, i);
        if (!body) continue;
        for (std::size_t k = body->first; k < body->second; ++k) {
            const Token& t = tokens[k];
            if (!t.ident) continue;
            if (std::find(deny_locks.begin(), deny_locks.end(), t.text) != deny_locks.end()) {
                sink.report(t.line, rule,
                            "lock '" + std::string(t.text) + "' inside " +
                                std::string(marker) + " function");
                continue;
            }
            if (std::find(deny_calls.begin(), deny_calls.end(), t.text) == deny_calls.end())
                continue;
            // Deny identifiers are calls (or `new`): require `(` or `<` next
            // so that e.g. a local named `reserve` does not trip the rule.
            if (t.text != "new" &&
                (k + 1 >= body->second ||
                 (tokens[k + 1].text != "(" && tokens[k + 1].text != "<")))
                continue;
            sink.report(t.line, rule,
                        std::string(what) + " '" + std::string(t.text) +
                            "' inside " + std::string(marker) + " function");
        }
    }
}

// ---------------------------------------------------------------------------
// Rule: raw-poll
// ---------------------------------------------------------------------------

constexpr std::array kRawReadinessCalls = {
    std::string_view("poll"),
    std::string_view("ppoll"),
    std::string_view("epoll_wait"),
    std::string_view("epoll_pwait"),
};

bool in_net_layer(std::string_view path) {
    // src/net/ is the one layer allowed to issue readiness syscalls; every
    // other file must go through sc::net::EventBackend / wait_fd_readable.
    return path.find("src/net/") != std::string_view::npos ||
           path.substr(0, 4) == "net/";
}

void check_raw_poll(const std::vector<Token>& tokens, Sink& sink) {
    if (!sink.enabled("raw-poll")) return;
    if (in_net_layer(sink.path)) return;
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        const Token& t = tokens[i];
        if (!t.ident || std::find(kRawReadinessCalls.begin(),
                                  kRawReadinessCalls.end(),
                                  t.text) == kRawReadinessCalls.end())
            continue;
        if (tokens[i + 1].text != "(") continue;  // must be a call
        if (i > 0) {
            const auto prev = tokens[i - 1].text;
            // `obj.poll(...)` / `obj->poll(...)` are method calls (the
            // tokenizer lexes `->` as `-` `>`), and `ns::epoll_wait(...)`
            // with a named namespace is a wrapper — only the global-scope
            // libc entry points are denied.
            if (prev == ".") continue;
            if (prev == ">" && i > 1 && tokens[i - 2].text == "-") continue;
            if (prev == "::" && i > 1 && tokens[i - 2].ident) continue;
        }
        sink.report(t.line, "raw-poll",
                    "raw '" + std::string(t.text) +
                        "' readiness call outside src/net/; use "
                        "sc::net::EventBackend (or sc::net::wait_fd_readable "
                        "for one-shot waits)");
    }
}

// ---------------------------------------------------------------------------
// Rule: raw-counter-shift
// ---------------------------------------------------------------------------

void check_counter_shift(const std::vector<Token>& tokens, Sink& sink) {
    if (!sink.enabled("raw-counter-shift")) return;
    // counter_math.hpp is the one place the width-to-mask shift may live.
    if (path_ends_with(sink.path, "bloom/counter_math.hpp")) return;
    // Flag any STATEMENT that both mentions a counter-width identifier and
    // shifts: that combination is the Section IV overflow-math smell.
    // (Statement = tokens between ; { } — coarse, but honest.)
    bool has_shift = false;
    const Token* width = nullptr;
    const auto flush = [&] {
        if (has_shift && width != nullptr)
            sink.report(width->line, "raw-counter-shift",
                        "shift arithmetic on counter width '" +
                            std::string(width->text) +
                            "'; use sc::counter_math (saturation_max et al.) "
                            "from bloom/counter_math.hpp");
        has_shift = false;
        width = nullptr;
    };
    for (const Token& t : tokens) {
        if (t.text == ";" || t.text == "{" || t.text == "}") {
            flush();
            continue;
        }
        if (t.text == "<<" || t.text == ">>") has_shift = true;
        if (t.ident && width == nullptr &&
            t.text.find("counter_bits") != std::string_view::npos)
            width = &t;
    }
    flush();
}

// ---------------------------------------------------------------------------
// Rule: raw-decode
// ---------------------------------------------------------------------------

constexpr std::array kRawDecodeCalls = {
    std::string_view("memcpy"),  std::string_view("memmove"),
    std::string_view("memchr"),  std::string_view("strcpy"),
    std::string_view("strncpy"), std::string_view("strcat"),
    std::string_view("strncat"), std::string_view("sscanf"),
    std::string_view("strtol"),  std::string_view("strtoul"),
    std::string_view("strtoull"), std::string_view("atoi"),
    std::string_view("atol"),    std::string_view("atoll"),
};

/// A TU opts into the decode discipline by placing the SC_UNTRUSTED_DECODE_TU
/// marker (the `#define` of the marker itself does not count).
bool tu_is_marked_decode(const std::vector<Token>& tokens) {
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (!tokens[i].ident || tokens[i].text != "SC_UNTRUSTED_DECODE_TU") continue;
        if (i > 0 && tokens[i - 1].text == "define") continue;
        return true;
    }
    return false;
}

void check_raw_decode(const std::vector<Token>& tokens, Sink& sink) {
    if (!sink.enabled("raw-decode")) return;
    // The checked cursor itself is where the one reinterpret_cast lives.
    if (path_ends_with(sink.path, "util/byte_reader.hpp") ||
        path_ends_with(sink.path, "util/byte_writer.hpp"))
        return;
    if (!tu_is_marked_decode(tokens)) return;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const Token& t = tokens[i];
        if (!t.ident) continue;
        if (t.text == "reinterpret_cast") {
            sink.report(t.line, "raw-decode",
                        "reinterpret_cast in a decode-marked TU; read through "
                        "sc::util::ByteReader (util/byte_reader.hpp)");
            continue;
        }
        // `buf.data() + off` — the classic unchecked cursor. ByteReader
        // carries the offset and the bounds check together.
        if (t.text == "data" && i + 3 < tokens.size() && tokens[i + 1].text == "(" &&
            tokens[i + 2].text == ")" && tokens[i + 3].text == "+") {
            sink.report(t.line, "raw-decode",
                        "pointer arithmetic on data() in a decode-marked TU; "
                        "read through sc::util::ByteReader");
            continue;
        }
        if (std::find(kRawDecodeCalls.begin(), kRawDecodeCalls.end(), t.text) ==
            kRawDecodeCalls.end())
            continue;
        if (i + 1 >= tokens.size() || tokens[i + 1].text != "(") continue;  // not a call
        if (i > 0) {
            const auto prev = tokens[i - 1].text;
            // Member calls and non-std namespace-qualified wrappers are
            // someone else's (checked) abstraction; only the libc entry
            // points — bare or std:: — are raw.
            if (prev == ".") continue;
            if (prev == ">" && i > 1 && tokens[i - 2].text == "-") continue;
            if (prev == "::" && i > 1 && tokens[i - 2].ident &&
                tokens[i - 2].text != "std")
                continue;
        }
        sink.report(t.line, "raw-decode",
                    "raw byte read '" + std::string(t.text) +
                        "' in a decode-marked TU; read through "
                        "sc::util::ByteReader");
    }
}

// ---------------------------------------------------------------------------
// Rule: exhaustive-wire-switch
// ---------------------------------------------------------------------------

struct WireEnum {
    std::string_view name;
    std::vector<std::string_view> enumerators;
};

/// Enums that cross a trust boundary (wire datagrams in, apply verdicts
/// out). Hard-coded on purpose: when an enumerator is added here, every
/// default-less switch over the enum fails the lint until it handles it.
const std::vector<WireEnum>& wire_enums() {
    static const std::vector<WireEnum> enums = {
        {"IcpOpcode",
         {"invalid", "query", "hit", "miss", "err", "secho", "decho",
          "miss_nofetch", "denied", "hit_obj", "dirupdate", "dirfull", "dirreq"}},
        {"SummaryApplyResult",
         {"applied", "partial", "duplicate", "stale", "gap", "need_bootstrap",
          "need_resync", "rejected"}},
    };
    return enums;
}

void check_wire_switch(const std::vector<Token>& tokens, Sink& sink) {
    if (!sink.enabled("exhaustive-wire-switch")) return;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (!tokens[i].ident || tokens[i].text != "switch") continue;
        // Skip the condition parens, then find the body brace.
        std::size_t j = i + 1;
        if (j >= tokens.size() || tokens[j].text != "(") continue;
        int parens = 1;
        for (++j; j < tokens.size() && parens > 0; ++j) {
            if (tokens[j].text == "(") ++parens;
            if (tokens[j].text == ")") --parens;
        }
        if (j >= tokens.size() || tokens[j].text != "{") continue;
        // Walk the body: case labels at depth 1 belong to THIS switch;
        // anything deeper is a nested statement's business.
        bool has_default = false;
        std::string_view enum_name;
        std::set<std::string_view> covered;
        int depth = 1;
        for (std::size_t k = j + 1; k < tokens.size() && depth > 0; ++k) {
            const Token& t = tokens[k];
            if (t.text == "{") ++depth;
            else if (t.text == "}") --depth;
            if (depth != 1 || !t.ident) continue;
            if (t.text == "default") {
                has_default = true;
            } else if (t.text == "case") {
                std::string_view label_enum, last_ident;
                for (std::size_t m = k + 1; m < tokens.size(); ++m) {
                    if (tokens[m].text == ":") {
                        k = m;
                        break;
                    }
                    if (!tokens[m].ident) continue;
                    for (const WireEnum& e : wire_enums())
                        if (tokens[m].text == e.name) label_enum = e.name;
                    last_ident = tokens[m].text;
                }
                if (!label_enum.empty()) {
                    enum_name = label_enum;
                    covered.insert(last_ident);
                }
            }
        }
        if (enum_name.empty() || has_default) continue;
        std::string missing;
        for (const WireEnum& e : wire_enums()) {
            if (e.name != enum_name) continue;
            for (const std::string_view en : e.enumerators)
                if (!covered.count(en)) {
                    if (!missing.empty()) missing += ", ";
                    missing += en;
                }
        }
        if (missing.empty()) continue;
        sink.report(tokens[i].line, "exhaustive-wire-switch",
                    "switch over " + std::string(enum_name) +
                        " has no default arm and misses: " + missing);
    }
}

// ---------------------------------------------------------------------------
// Rule: waiver-sanity
// ---------------------------------------------------------------------------

bool known_rule(const std::string& rule) {
    const auto& rules = all_rules();
    return std::find(rules.begin(), rules.end(), rule) != rules.end();
}

void check_waiver_sanity(Sink& sink) {
    if (!sink.enabled("waiver-sanity")) return;
    for (const auto& [line, rules] : sink.stripped.waivers)
        for (const std::string& rule : rules)
            if (!known_rule(rule))
                sink.report(line, "waiver-sanity",
                            "waiver names unknown rule '" + rule +
                                "' (see --list-rules); it suppresses nothing");
}

}  // namespace

std::string format(const Diagnostic& d) {
    std::ostringstream os;
    os << d.file << ':' << d.line << ": error: [" << d.rule << "] " << d.message;
    return os.str();
}

std::string format(const Note& n) {
    std::ostringstream os;
    os << n.file << ':' << n.line << ": note: " << n.message;
    return os.str();
}

const std::vector<std::string>& all_rules() {
    static const std::vector<std::string> rules = {
        "raw-mutex",  "hotpath-alloc", "eventloop-blocking",
        "raw-counter-shift", "raw-poll",      "raw-decode",
        "exhaustive-wire-switch", "waiver-sanity"};
    return rules;
}

LintReport lint_source_report(std::string_view path, std::string_view text,
                              const Options& options) {
    const Stripped stripped = strip(text);
    const std::vector<Token> tokens = tokenize(stripped.code);
    LintReport report;
    std::set<std::pair<unsigned, std::string>> used_waivers;
    Sink sink{path, stripped, options, report.diagnostics, used_waivers};
    check_raw_mutex(tokens, sink);
    check_marked(tokens, sink, "SC_HOT_PATH", "hotpath-alloc", kAllocCalls,
                 "heap-allocating call");
    check_marked(tokens, sink, "SC_EVENT_LOOP_ONLY", "eventloop-blocking",
                 kBlockingCalls, "blocking call", kEventLoopDeniedLocks);
    check_counter_shift(tokens, sink);
    check_raw_poll(tokens, sink);
    check_raw_decode(tokens, sink);
    check_wire_switch(tokens, sink);
    check_waiver_sanity(sink);
    std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                     [](const Diagnostic& a, const Diagnostic& b) {
                         return a.line < b.line;
                     });
    // Unused-waiver hygiene only makes sense when every rule ran: on a
    // narrowed --rule= pass, a waiver for an unexecuted rule is not stale.
    // Unknown-rule waivers are waiver-sanity's (hard) finding, not a note.
    if (options.rules.empty()) {
        for (const auto& [line, rules] : stripped.waivers)
            for (const std::string& rule : rules)
                if (known_rule(rule) && !used_waivers.count({line, rule}))
                    report.notes.push_back(
                        {std::string(path), line,
                         "unused sc_lint waiver for rule '" + rule +
                             "'; nothing on this or the next line trips it"});
    }
    return report;
}

std::vector<Diagnostic> lint_source(std::string_view path, std::string_view text,
                                    const Options& options) {
    return lint_source_report(path, text, options).diagnostics;
}

std::optional<LintReport> lint_file_report(const std::filesystem::path& path,
                                           const Options& options) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    if (!in.good() && !in.eof()) return std::nullopt;
    return lint_source_report(path.generic_string(), buf.str(), options);
}

std::optional<std::vector<Diagnostic>> lint_file(const std::filesystem::path& path,
                                                 const Options& options) {
    auto report = lint_file_report(path, options);
    if (!report) return std::nullopt;
    return std::move(report->diagnostics);
}

std::vector<std::filesystem::path> collect_sources(
    const std::vector<std::filesystem::path>& paths) {
    namespace fs = std::filesystem;
    const auto is_source = [](const fs::path& p) {
        const auto ext = p.extension().string();
        return ext == ".cpp" || ext == ".hpp" || ext == ".cc" || ext == ".h";
    };
    std::vector<fs::path> out;
    for (const fs::path& p : paths) {
        std::error_code ec;
        if (fs::is_directory(p, ec)) {
            for (fs::recursive_directory_iterator it(p, ec), end; it != end;
                 it.increment(ec)) {
                if (ec) break;
                if (it->is_regular_file(ec) && is_source(it->path()))
                    out.push_back(it->path());
            }
        } else {
            out.push_back(p);  // missing files surface as read errors later
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

}  // namespace sc::lint
