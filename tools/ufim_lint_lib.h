#ifndef UFIM_TOOLS_UFIM_LINT_LIB_H_
#define UFIM_TOOLS_UFIM_LINT_LIB_H_

#include <cstddef>
#include <string>
#include <vector>

/// ufim_lint — project-specific conventions the compiler cannot check.
///
/// The general-purpose layers of the PR-9 static-analysis stack (Clang
/// thread-safety annotations, [[nodiscard]] Status, clang-tidy) enforce
/// language-level properties. This checker enforces the *repo*
/// conventions that keep results deterministic and cancellation sound:
///
///   catch-run-aborted    `RunAbortedError` is the internal abort unwind;
///                        only the GuardMine facade boundary
///                        (src/core/miner.h) may catch it. A stray catch
///                        swallows cancellation and poisons the cleanup
///                        contract.
///   no-nondeterminism    No rand()/srand()/random_device/time()/clock()
///                        in library code: all randomness flows through
///                        seeded Rng, all timing through eval/stopwatch,
///                        so every mining result is a pure function of
///                        (dataset, parameters, seed).
///   unordered-iteration  No range-for over a variable declared as
///                        std::unordered_map/set: iteration order is
///                        unspecified, so anything emitted or accumulated
///                        from such a loop silently depends on hash
///                        seeding. Copy into a vector and sort first
///                        (or waive with a written order-independence
///                        argument).
///   missing-poll         Every src/algo file that fans work out through
///                        ParallelFor(n, threads, body(index, worker))
///                        must poll its RunContext somewhere, or
///                        cancellation/deadlines never reach that miner.
///   no-iostream          No <iostream> in src/: library code reports
///                        through Status/Result, never by printing.
///   raw-mutex            No std::mutex/lock_guard/unique_lock outside
///                        common/mutex.h: the annotated Mutex/MutexLock
///                        wrappers are what make the -Wthread-safety CI
///                        leg able to see locking at all.
///
/// Matching runs on comment- and string-stripped text, so prose and
/// string literals never trip a rule. A justified exception is waived
/// in-line:
///
///   // ufim-lint: allow(unordered-iteration)  <why it is safe>
///
/// on the offending line or the line directly above it.
namespace ufim::lint {

struct Diagnostic {
  std::string file;   ///< repo-relative path
  std::size_t line;   ///< 1-based
  std::string rule;   ///< e.g. "no-nondeterminism"
  std::string message;
};

/// One input file. `path` must be repo-relative with '/' separators —
/// rule scoping ("src/", "src/algo/", the miner.h exemption) keys on it.
struct SourceFile {
  std::string path;
  std::string content;
};

/// Replaces comments, string literals (raw strings included) and char
/// literals with spaces, preserving newlines and column positions —
/// diagnostics computed on the stripped text line up with the original.
/// Exposed for direct unit testing.
std::string StripCommentsAndStrings(const std::string& content);

/// Runs every rule over `files` and returns the surviving diagnostics,
/// ordered by (file, line). Cross-file state (the unordered-container
/// symbol table) is built over the whole set, so lint the tree in one
/// call rather than file by file.
std::vector<Diagnostic> Lint(const std::vector<SourceFile>& files);

/// "path:line: [rule] message" — the grep/IDE-clickable form the CLI
/// prints.
std::string FormatDiagnostic(const Diagnostic& d);

}  // namespace ufim::lint

#endif  // UFIM_TOOLS_UFIM_LINT_LIB_H_
