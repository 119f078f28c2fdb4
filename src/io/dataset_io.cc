#include "io/dataset_io.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

namespace ufim {
namespace {

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/// The `isspace` set of the "C" locale, which `istream >> std::string`
/// splits on.
bool IsSpace(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Names the unit that starts at `p` and ends before the next space.
Status MalformedUnit(const char* what, const char* p, const char* end) {
  const char* q = p;
  while (q != end && !IsSpace(*q)) ++q;
  return Status::InvalidArgument(std::string(what) + " '" + std::string(p, q) + "'");
}

/// Parses the `item:prob` unit at `p`, which is not a space, up to the
/// next space or `end`, and moves `p` past it. The token is never
/// scanned twice: each number parse stops where its digits do, and
/// then the byte that stopped it is checked.
Status ParseUnit(const char*& p, const char* end, ProbItem& unit) {
  // from_chars takes no sign on an unsigned type, so a leading '-' or
  // '+' fails as "no digits" like any other non-digit.
  std::uint64_t item = 0;
  const auto [colon, item_ec] = std::from_chars(p, end, item);
  if (item_ec == std::errc::invalid_argument) {
    return MalformedUnit(*p == ':' ? "malformed unit (expected item:prob) in"
                                   : "malformed item id in",
                         p, end);
  }
  if (colon == end || *colon != ':') {
    return MalformedUnit(colon == end || IsSpace(*colon)
                             ? "malformed unit (expected item:prob) in"
                             : "malformed item id in",
                         p, end);
  }
  if (item_ec == std::errc::result_out_of_range ||
      item > std::numeric_limits<ItemId>::max()) {
    return MalformedUnit("item id out of range in", p, end);
  }
  // from_chars takes no '+' and no hex prefix, and reports over- and
  // underflow to zero as out of range. A subnormal result it returns as
  // is, so that case is rejected here.
  double prob = 0.0;
  const auto [stop, prob_ec] = std::from_chars(colon + 1, end, prob);
  if (prob_ec != std::errc() || (stop != end && !IsSpace(*stop)) ||
      std::fpclassify(prob) == FP_SUBNORMAL) {
    return MalformedUnit("malformed probability in", p, end);
  }
  // Written so that NaN fails too; infinities fall outside the range.
  if (!(prob >= 0.0 && prob <= 1.0)) {
    return MalformedUnit("probability out of [0,1] in", p, end);
  }
  unit = ProbItem{static_cast<ItemId>(item), prob};
  p = stop;
  return Status::OK();
}

/// The one `.udb` line parser: scans the units of `line` in place into
/// `units` (cleared first) and rejects a line that names an item twice.
Status ParseUnits(std::string_view line, std::vector<ProbItem>& units) {
  units.clear();
  const char* p = line.data();
  const char* const end = p + line.size();
  for (;;) {
    while (p != end && IsSpace(*p)) ++p;
    if (p == end) break;
    ProbItem unit;
    UFIM_RETURN_IF_ERROR(ParseUnit(p, end, unit));
    units.push_back(unit);
  }
  // Written files list items strictly increasing; only a line that is
  // not pays for the sorted search.
  const auto not_before = [](const ProbItem& a, const ProbItem& b) {
    return a.item >= b.item;
  };
  if (std::adjacent_find(units.begin(), units.end(), not_before) == units.end()) {
    return Status::OK();
  }
  std::vector<ItemId> items(units.size());
  std::transform(units.begin(), units.end(), items.begin(),
                 [](const ProbItem& u) { return u.item; });
  std::sort(items.begin(), items.end());
  const auto dup = std::adjacent_find(items.begin(), items.end());
  if (dup != items.end()) {
    return Status::InvalidArgument("duplicate item " + std::to_string(*dup));
  }
  return Status::OK();
}

/// Appends `t` as one line, without the '\n'.
void AppendTransactionLine(const Transaction& t, std::string& out) {
  // 10 digits, ':', and at most 24 bytes of %.17g.
  char buf[48];
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (i != 0) out += ' ';
    char* p = std::to_chars(buf, buf + sizeof(buf), t[i].item).ptr;
    *p++ = ':';
    // Equal, byte for byte, to printf's "%.17g".
    p = std::to_chars(p, buf + sizeof(buf), t[i].prob,
                      std::chars_format::general, 17).ptr;
    out.append(buf, p);
  }
}

}  // namespace

std::string FormatTransactionLine(const Transaction& t) {
  std::string out;
  AppendTransactionLine(t, out);
  return out;
}

Result<Transaction> ParseTransactionLine(std::string_view line) {
  std::vector<ProbItem> units;
  UFIM_RETURN_IF_ERROR(ParseUnits(line, units));
  return Transaction(std::move(units));
}

Status WriteDataset(const UncertainDatabase& db, const std::string& path) {
  File file(std::fopen(path.c_str(), "wb"));
  if (!file) return Status::IOError("cannot open '" + path + "' for writing");
  const Status write_failed = Status::IOError("write failed for '" + path + "'");
  std::string block;
  block.reserve(2 * kDatasetReadBlockBytes);
  const auto flush = [&] {
    const bool ok =
        std::fwrite(block.data(), 1, block.size(), file.get()) == block.size();
    block.clear();
    return ok;
  };
  for (const Transaction& t : db) {
    AppendTransactionLine(t, block);
    // An empty line is skipped on read; a lone space is an empty
    // transaction.
    if (t.empty()) block += ' ';
    block += '\n';
    if (block.size() >= kDatasetReadBlockBytes && !flush()) return write_failed;
  }
  if (!flush() || std::fclose(file.release()) != 0) return write_failed;
  return Status::OK();
}

Result<UncertainDatabase> ReadDataset(const std::string& path) {
  File file(std::fopen(path.c_str(), "rb"));
  if (!file) return Status::IOError("cannot open '" + path + "' for reading");
  std::vector<Transaction> txns;
  std::vector<ProbItem> units;  // scratch, reused by every line
  std::size_t line_no = 0;
  const auto take_line = [&](std::string_view line) -> Status {
    ++line_no;
    if (line.empty() || line[0] == '#') return Status::OK();
    if (Status s = ParseUnits(line, units); !s.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                     s.message());
    }
    txns.emplace_back(std::vector<ProbItem>(units.begin(), units.end()));
    return Status::OK();
  };
  // buf holds the unfinished tail of the previous block, then the next
  // block; it grows only while one line outgrows a block.
  std::vector<char> buf(kDatasetReadBlockBytes);
  std::size_t kept = 0;
  for (;;) {
    if (buf.size() < kept + kDatasetReadBlockBytes) {
      buf.resize(kept + kDatasetReadBlockBytes);
    }
    const std::size_t got =
        std::fread(buf.data() + kept, 1, kDatasetReadBlockBytes, file.get());
    const bool at_end = got < kDatasetReadBlockBytes;
    // A directory opens fine and fails here with EISDIR.
    if (at_end && std::ferror(file.get())) {
      return Status::IOError("read failed for '" + path + "'");
    }
    const char* const data = buf.data();
    const std::size_t end = kept + got;
    std::size_t begin = 0;
    // The carried bytes hold no '\n', so a long line is scanned once.
    std::size_t from = kept;
    while (const void* nl = std::memchr(data + from, '\n', end - from)) {
      const std::size_t stop = static_cast<const char*>(nl) - data;
      UFIM_RETURN_IF_ERROR(take_line(std::string_view(data + begin, stop - begin)));
      begin = from = stop + 1;
    }
    if (at_end) {
      // Like getline, a final line without '\n' still counts.
      if (begin < end) {
        UFIM_RETURN_IF_ERROR(take_line(std::string_view(data + begin, end - begin)));
      }
      break;
    }
    kept = end - begin;
    if (begin != 0) std::memmove(buf.data(), data + begin, kept);
  }
  return UncertainDatabase(std::move(txns));
}

}  // namespace ufim
