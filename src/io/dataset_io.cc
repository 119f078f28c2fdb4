#include "io/dataset_io.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

namespace ufim {

std::string FormatTransactionLine(const Transaction& t) {
  std::string out;
  char buf[64];
  for (std::size_t i = 0; i < t.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s%u:%.17g", i == 0 ? "" : " ",
                  t[i].item, t[i].prob);
    out += buf;
  }
  return out;
}

Result<Transaction> ParseTransactionLine(const std::string& line) {
  std::vector<ProbItem> units;
  std::istringstream in(line);
  std::string token;
  while (in >> token) {
    const std::size_t colon = token.find(':');
    if (colon == std::string::npos || colon == 0 || colon + 1 >= token.size()) {
      return Status::InvalidArgument("malformed unit '" + token +
                                     "' (expected item:prob)");
    }
    // strtoul would accept a sign (wrapping "-1") and values past
    // ItemId's range; item ids are plain decimal digits that fit ItemId.
    if (token[0] < '0' || token[0] > '9') {
      return Status::InvalidArgument("malformed item id in '" + token + "'");
    }
    errno = 0;
    char* end = nullptr;
    const unsigned long item = std::strtoul(token.c_str(), &end, 10);
    if (errno != 0 || end != token.c_str() + colon) {
      return Status::InvalidArgument("malformed item id in '" + token + "'");
    }
    if (item > std::numeric_limits<ItemId>::max()) {
      return Status::InvalidArgument("item id out of range in '" + token + "'");
    }
    errno = 0;
    const double prob = std::strtod(token.c_str() + colon + 1, &end);
    if (errno != 0 || end != token.c_str() + token.size()) {
      return Status::InvalidArgument("malformed probability in '" + token + "'");
    }
    // Written so that NaN fails too; infinities fall outside the range.
    if (!(prob >= 0.0 && prob <= 1.0)) {
      return Status::InvalidArgument("probability out of [0,1] in '" + token +
                                     "'");
    }
    units.push_back(ProbItem{static_cast<ItemId>(item), prob});
  }
  return Transaction(std::move(units));
}

Status WriteDataset(const UncertainDatabase& db, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "' for writing");
  for (const Transaction& t : db) {
    out << FormatTransactionLine(t) << '\n';
  }
  out.flush();
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

Result<UncertainDatabase> ReadDataset(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  std::vector<Transaction> txns;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    Result<Transaction> t = ParseTransactionLine(line);
    if (!t.ok()) {
      return Status::InvalidArgument("line " + std::to_string(line_no) + ": " +
                                     t.status().message());
    }
    txns.push_back(std::move(t).value());
  }
  return UncertainDatabase(std::move(txns));
}

}  // namespace ufim
