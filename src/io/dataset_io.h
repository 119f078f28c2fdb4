#ifndef UFIM_IO_DATASET_IO_H_
#define UFIM_IO_DATASET_IO_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"
#include "core/uncertain_database.h"

namespace ufim {

/// Text format for uncertain databases (`.udb`), one transaction per line:
///
///   item:prob item:prob ...
///
/// e.g. `0:0.8 1:0.2 2:0.9`. This is the interchange format for all
/// examples and tools. The accepted grammar is exact:
///
/// - Lines end at '\n'. A final line without one is still read.
/// - A line that is empty, or whose first byte is '#', is skipped. A '#'
///   anywhere else is an ordinary byte, so ` #x` is a malformed unit.
/// - Units are separated by runs of space, '\t', '\n', '\v', '\f' and
///   '\r'. A CR before the '\n' is therefore tolerated. A line of only
///   such bytes is an empty transaction.
/// - `item` is one or more decimal digits with a value of at most
///   UINT32_MAX (no sign).
/// - `prob` is a decimal number in [0, 1] in `strtod`'s decimal syntax
///   (`0.5`, `.5`, `5e-1`; `-0` is zero). A '+' sign, hexadecimal floats,
///   `nan`, `inf` and subnormal values are rejected.
/// - An item appears at most once per line; duplicates are rejected,
///   not merged.
/// - A unit with probability 0 is accepted and dropped (see
///   `Transaction`).
///
/// A line that breaks the grammar fails the whole read with
/// InvalidArgument, prefixed with `line N: `.

/// Bytes `ReadDataset` reads per block; a line longer than this is
/// carried across blocks.
inline constexpr std::size_t kDatasetReadBlockBytes = std::size_t{64} << 10;

/// Writes `db` to `path`. Overwrites an existing file. An empty
/// transaction is written as a line holding one space, so every
/// transaction survives a round trip through `ReadDataset`.
Status WriteDataset(const UncertainDatabase& db, const std::string& path);

/// Reads a database from `path`. Malformed units produce InvalidArgument
/// with a line number; I/O failures (including `path` being a directory)
/// produce IOError.
Result<UncertainDatabase> ReadDataset(const std::string& path);

/// Serializes/parses a single transaction line (exposed for tests). The
/// line is the text between two '\n', without the comment/blank rule.
std::string FormatTransactionLine(const Transaction& t);
Result<Transaction> ParseTransactionLine(std::string_view line);

}  // namespace ufim

#endif  // UFIM_IO_DATASET_IO_H_
