#ifndef UFIM_CORE_RESULT_IO_H_
#define UFIM_CORE_RESULT_IO_H_

#include <string>

#include "common/result.h"
#include "core/mining_result.h"

namespace ufim {

/// Text serialization of mining results, one itemset per line:
///
///   item,item,... esup variance [freq_prob]
///
/// Lines starting with '#' are comments. Doubles are emitted with %.17g
/// so a round-trip is bit-exact. `examples/catalog_insights.cpp` persists
/// and reloads results through it; the CLI prints its own listing and
/// does not write result files.
Status WriteResult(const MiningResult& result, const std::string& path);

Result<MiningResult> ReadResult(const std::string& path);

/// Single-line form (exposed for tests).
std::string FormatResultLine(const FrequentItemset& fi);
Result<FrequentItemset> ParseResultLine(const std::string& line);

}  // namespace ufim

#endif  // UFIM_CORE_RESULT_IO_H_
