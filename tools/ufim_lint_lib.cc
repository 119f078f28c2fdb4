#include "ufim_lint_lib.h"

#include <algorithm>
#include <cctype>
#include <regex>
#include <unordered_set>

namespace ufim::lint {

namespace {

/// True when `path` starts with `prefix` ("src/", "src/algo/", ...).
bool HasPrefix(const std::string& path, const char* prefix) {
  return path.rfind(prefix, 0) == 0;
}

/// Splits `text` into lines without the trailing '\n'.
std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t nl = text.find('\n', start);
    if (nl == std::string::npos) {
      lines.push_back(text.substr(start));
      break;
    }
    lines.push_back(text.substr(start, nl - start));
    start = nl + 1;
  }
  return lines;
}

/// Per-line waiver set: `// ufim-lint: allow(rule-a, rule-b)` waives the
/// named rules on its own line and on the line below (so a waiver can
/// sit above the offending statement). Parsed from the RAW text — the
/// marker lives in a comment, which stripping erases.
class Waivers {
 public:
  explicit Waivers(const std::vector<std::string>& raw_lines) {
    static const std::regex kWaiver(
        R"(//\s*ufim-lint:\s*allow\(([A-Za-z0-9_,\- ]+)\))");
    for (std::size_t i = 0; i < raw_lines.size(); ++i) {
      std::smatch m;
      if (!std::regex_search(raw_lines[i], m, kWaiver)) continue;
      std::string rules = m[1].str();
      std::replace(rules.begin(), rules.end(), ',', ' ');
      std::size_t pos = 0;
      while (pos < rules.size()) {
        while (pos < rules.size() && rules[pos] == ' ') ++pos;
        std::size_t end = rules.find(' ', pos);
        if (end == std::string::npos) end = rules.size();
        if (end > pos) {
          const std::string rule = rules.substr(pos, end - pos);
          waived_.insert(Key(i + 1, rule));      // this line
          waived_.insert(Key(i + 2, rule));      // the line below
        }
        pos = end;
      }
    }
  }

  bool Waived(std::size_t line, const std::string& rule) const {
    return waived_.count(Key(line, rule)) > 0;
  }

 private:
  static std::string Key(std::size_t line, const std::string& rule) {
    return std::to_string(line) + ":" + rule;
  }
  std::unordered_set<std::string> waived_;
};

/// One file, preprocessed once: raw + stripped text, line-split both
/// ways, waivers parsed.
struct PreparedFile {
  const SourceFile* source = nullptr;
  std::vector<std::string> raw_lines;
  std::vector<std::string> stripped_lines;
  Waivers waivers;

  explicit PreparedFile(const SourceFile& file)
      : source(&file),
        raw_lines(SplitLines(file.content)),
        stripped_lines(SplitLines(StripCommentsAndStrings(file.content))),
        waivers(raw_lines) {}
};

void Emit(const PreparedFile& f, std::size_t line, const char* rule,
          std::string message, std::vector<Diagnostic>* out) {
  if (f.waivers.Waived(line, rule)) return;
  out->push_back(Diagnostic{f.source->path, line, rule, std::move(message)});
}

// --- rules -----------------------------------------------------------------

/// catch-run-aborted: the abort unwind may only be caught at the
/// GuardMine facade boundary. (ISSUE names miner.cc, but GuardMine is a
/// template and lives in the header — the header is the boundary.)
void CheckCatchRunAborted(const PreparedFile& f, std::vector<Diagnostic>* out) {
  const std::string& path = f.source->path;
  if (!HasPrefix(path, "src/") && !HasPrefix(path, "tools/")) return;
  if (path == "src/core/miner.h") return;
  static const std::regex kCatch(
      R"(\bcatch\s*\(\s*(?:const\s+)?(?:ufim\s*::\s*)?RunAbortedError\b)");
  for (std::size_t i = 0; i < f.stripped_lines.size(); ++i) {
    if (std::regex_search(f.stripped_lines[i], kCatch)) {
      Emit(f, i + 1, "catch-run-aborted",
           "RunAbortedError may only be caught by GuardMine "
           "(src/core/miner.h); catching it elsewhere swallows "
           "cancellation",
           out);
    }
  }
}

/// no-nondeterminism: unseeded randomness and wall-clock reads are
/// banned from library code.
void CheckNoNondeterminism(const PreparedFile& f,
                           std::vector<Diagnostic>* out) {
  if (!HasPrefix(f.source->path, "src/")) return;
  struct Pattern {
    std::regex regex;
    const char* what;
  };
  static const Pattern kPatterns[] = {
      {std::regex(R"(\b(?:std\s*::\s*)?s?rand\s*\()"), "rand()/srand()"},
      {std::regex(R"(\brandom_device\b)"), "std::random_device"},
      {std::regex(R"(\b(?:std\s*::\s*)?time\s*\()"), "time()"},
      {std::regex(R"(\b(?:std\s*::\s*)?clock\s*\()"), "clock()"},
  };
  for (std::size_t i = 0; i < f.stripped_lines.size(); ++i) {
    for (const Pattern& p : kPatterns) {
      if (std::regex_search(f.stripped_lines[i], p.regex)) {
        Emit(f, i + 1, "no-nondeterminism",
             std::string(p.what) +
                 " in library code: results must be a pure function of "
                 "(dataset, parameters, seed) — use the seeded Rng / "
                 "eval/stopwatch instead",
             out);
      }
    }
  }
}

/// unordered-iteration, pass 1: collect names declared with an
/// unordered container type, across the whole file set. Coarse on
/// purpose — a name is suspect everywhere once it is declared unordered
/// anywhere, which errs toward flagging (waive with an argument).
void CollectUnorderedNames(const PreparedFile& f,
                           std::unordered_set<std::string>* names) {
  static const std::regex kDecl(
      R"(\bunordered_(?:map|set|multimap|multiset)\s*<[^;{}]*>\s+(\w+)\s*[;={(])");
  for (const std::string& line : f.stripped_lines) {
    auto begin = std::sregex_iterator(line.begin(), line.end(), kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      names->insert((*it)[1].str());
    }
  }
}

/// unordered-iteration, pass 2: flag range-fors over those names.
void CheckUnorderedIteration(const PreparedFile& f,
                             const std::unordered_set<std::string>& names,
                             std::vector<Diagnostic>* out) {
  if (!HasPrefix(f.source->path, "src/")) return;
  static const std::regex kRangeFor(R"(\bfor\s*\([^;()]*:\s*(\w+)\s*\))");
  for (std::size_t i = 0; i < f.stripped_lines.size(); ++i) {
    const std::string& line = f.stripped_lines[i];
    auto begin = std::sregex_iterator(line.begin(), line.end(), kRangeFor);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      const std::string name = (*it)[1].str();
      if (names.count(name) == 0) continue;
      Emit(f, i + 1, "unordered-iteration",
           "range-for over unordered container '" + name +
               "': iteration order is unspecified, so emitting or "
               "accumulating from it is nondeterministic — sort into a "
               "vector first",
           out);
    }
  }
}

/// missing-poll: a src/algo file that fans out via ParallelFor (the one
/// parallel loop, body(index, worker)) must have a RunContext poll site,
/// or cancellation never reaches it.
void CheckMissingPoll(const PreparedFile& f, std::vector<Diagnostic>* out) {
  if (!HasPrefix(f.source->path, "src/algo/")) return;
  static const std::regex kFanOut(R"(\bParallelFor\w*\s*\()");
  static const std::regex kPoll(
      R"(\b(?:PollRunContext|PollOrThrow|CheckPoint)\s*\()");
  std::size_t first_fan_out = 0;
  bool fans_out = false, polls = false;
  for (std::size_t i = 0; i < f.stripped_lines.size(); ++i) {
    if (!fans_out && std::regex_search(f.stripped_lines[i], kFanOut)) {
      fans_out = true;
      first_fan_out = i + 1;
    }
    if (std::regex_search(f.stripped_lines[i], kPoll)) polls = true;
  }
  if (fans_out && !polls) {
    Emit(f, first_fan_out, "missing-poll",
         "this mining file fans out via ParallelFor but never polls a "
         "RunContext — cancellation, deadlines and memory budgets "
         "cannot stop it",
         out);
  }
}

/// no-iostream: library code reports through Status, never by printing.
void CheckNoIostream(const PreparedFile& f, std::vector<Diagnostic>* out) {
  if (!HasPrefix(f.source->path, "src/")) return;
  static const std::regex kInclude(R"(#\s*include\s*<iostream>)");
  for (std::size_t i = 0; i < f.stripped_lines.size(); ++i) {
    if (std::regex_search(f.stripped_lines[i], kInclude)) {
      Emit(f, i + 1, "no-iostream",
           "<iostream> in library code: report through Status/Result; "
           "printing belongs to the CLI and the tests",
           out);
    }
  }
}

/// raw-mutex: locking goes through the annotated common/mutex.h
/// wrappers so the -Wthread-safety build can see it.
void CheckRawMutex(const PreparedFile& f, std::vector<Diagnostic>* out) {
  const std::string& path = f.source->path;
  if (!HasPrefix(path, "src/")) return;
  if (path == "src/common/mutex.h") return;  // the wrapper itself
  static const std::regex kRaw(
      R"(\bstd\s*::\s*(?:mutex|lock_guard|unique_lock|scoped_lock)\b|#\s*include\s*<mutex>)");
  for (std::size_t i = 0; i < f.stripped_lines.size(); ++i) {
    if (std::regex_search(f.stripped_lines[i], kRaw)) {
      Emit(f, i + 1, "raw-mutex",
           "raw std::mutex/locks are invisible to the thread-safety "
           "analysis — use Mutex/MutexLock from common/mutex.h",
           out);
    }
  }
}

}  // namespace

std::string StripCommentsAndStrings(const std::string& content) {
  std::string out = content;
  enum class State {
    kCode,
    kLineComment,
    kBlockComment,
    kString,
    kRawString,
    kChar,
  };
  State state = State::kCode;
  std::string raw_delim;  // the )delim" terminator of the active raw string
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                                   content[i - 1])) &&
                               content[i - 1] != '_'))) {
          // Raw string R"delim( ... )delim": find the delimiter.
          std::size_t open = content.find('(', i + 2);
          if (open == std::string::npos) break;  // malformed; leave as-is
          raw_delim = ")" + content.substr(i + 2, open - (i + 2)) + "\"";
          for (std::size_t j = i; j <= open; ++j) {
            if (content[j] != '\n') out[j] = ' ';
          }
          i = open;
          state = State::kRawString;
        } else if (c == '"') {
          state = State::kString;
          out[i] = ' ';
        } else if (c == '\'') {
          state = State::kChar;
          out[i] = ' ';
        }
        break;
      case State::kLineComment:
        if (c == '\n') {
          state = State::kCode;
        } else {
          out[i] = ' ';
        }
        break;
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = out[i + 1] = ' ';
          state = State::kCode;
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kString:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kRawString:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          for (std::size_t j = 0; j < raw_delim.size(); ++j) out[i + j] = ' ';
          i += raw_delim.size() - 1;
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case State::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          out[i] = ' ';
          state = State::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<Diagnostic> Lint(const std::vector<SourceFile>& files) {
  std::vector<PreparedFile> prepared;
  prepared.reserve(files.size());
  for (const SourceFile& file : files) prepared.emplace_back(file);

  // Cross-file pass: the unordered-container symbol table (a member
  // declared in a header is iterated in a .cc).
  std::unordered_set<std::string> unordered_names;
  for (const PreparedFile& f : prepared) {
    CollectUnorderedNames(f, &unordered_names);
  }

  std::vector<Diagnostic> out;
  for (const PreparedFile& f : prepared) {
    CheckCatchRunAborted(f, &out);
    CheckNoNondeterminism(f, &out);
    CheckUnorderedIteration(f, unordered_names, &out);
    CheckMissingPoll(f, &out);
    CheckNoIostream(f, &out);
    CheckRawMutex(f, &out);
  }
  std::sort(out.begin(), out.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return out;
}

std::string FormatDiagnostic(const Diagnostic& d) {
  return d.file + ":" + std::to_string(d.line) + ": [" + d.rule + "] " +
         d.message;
}

}  // namespace ufim::lint
