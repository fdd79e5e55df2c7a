// Memo prewarm for the benchmark's traced replay.
//
// The library hashes words only through StringHasher::Hash, which probes
// the memo and computes the salted SHA-1 inline on a miss. The only
// callers of PrewarmHashMemo and of the engines' static
// CollectHashCandidates are the `core.prewarm` row of
// perfbench/replay.cpp; they go once the benchmark drops that row.
#pragma once

#include <cstddef>
#include <string_view>
#include <vector>

#include "core/string_hasher.h"

namespace confanon::obs {
class MetricsRegistry;
}  // namespace confanon::obs

namespace confanon::core {

/// Hashes every distinct word of `words` that is not yet in the memo and
/// returns how many that was. `metrics` is unused.
inline std::size_t PrewarmHashMemo(StringHasher& hasher,
                                   const std::vector<std::string_view>& words,
                                   obs::MetricsRegistry* /*metrics*/) {
  std::size_t hashed = 0;
  for (const std::string_view word : words) {
    if (hasher.Find(word) != nullptr) continue;
    hasher.Hash(word);
    ++hashed;
  }
  return hashed;
}

}  // namespace confanon::core
