// Salted string hashing with referential integrity (paper Section 4.1).
//
// Every word not cleared by the pass-list is replaced by a token derived
// from its salted SHA-1 digest. Hashing the *word*, not the line, is what
// preserves the "uses" relationship: `route-map UUNET-import` at a BGP
// neighbor and `route-map UUNET-import deny 10` elsewhere hash to the same
// replacement, so the reference still resolves after anonymization.
//
// Replacement tokens are "h" + 10 hex chars: a letter first keeps them
// valid IOS identifiers, and 40 bits of digest make collisions across a
// network's identifier population negligible (and detected: a collision
// between two distinct originals throws, since silently merging two
// identifiers would corrupt the config's structure).
//
// Thread safety: the memo is sharded — originals by their (unsalted)
// string hash, the token->original collision map by the token's first hex
// digit — with one mutex per shard, so pipeline workers anonymizing
// different files of one network can hash concurrently with low
// contention. The token for a word is a pure function of (salt, word), so
// the mapping itself is independent of thread interleaving; sharding only
// protects the memo/collision bookkeeping.
#pragma once

#include <array>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace confanon::core {

class StringHasher {
 public:
  explicit StringHasher(std::string_view salt) : salt_(salt) {}

  /// Returns the anonymized replacement for `word`. Deterministic; memoized.
  /// Throws std::runtime_error on a 40-bit digest collision between two
  /// distinct originals. Safe to call from multiple threads; the returned
  /// reference stays valid for the hasher's lifetime (node-based memo,
  /// never erased).
  const std::string& Hash(std::string_view word);

  /// Memo probe: the token for `word` if it has already been hashed,
  /// nullptr otherwise. Never computes a digest or installs anything.
  /// Thread-safe; the returned pointer stays valid for the hasher's
  /// lifetime.
  const std::string* Find(std::string_view word) const;

  /// Number of distinct originals hashed so far.
  std::size_t DistinctCount() const;

  /// Every original hashed so far (for the leak detector's grep pass).
  std::vector<std::string> Originals() const;

 private:
  static constexpr std::size_t kShards = 16;

  /// Transparent hash so the memo can be probed with a string_view
  /// without materializing a temporary std::string per lookup.
  /// Deliberately not noexcept: libstdc++ keeps each node's hash code
  /// only for a hash that may throw, and without kept codes every probe
  /// rehashes the keys it walks past.
  struct TransparentHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view text) const {
      return std::hash<std::string_view>{}(text);
    }
  };

  /// original -> token, sharded by std::hash of the original so the memo
  /// lookup (the hot path: repeated identifiers) takes only its shard's
  /// mutex.
  struct MemoShard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, std::string, TransparentHash,
                       std::equal_to<>>
        memo;
  };
  /// token -> original, sharded by the token's first hex digit. Collision
  /// detection must be global over tokens, and two colliding originals
  /// land in the same token shard by construction.
  struct ReverseShard {
    std::mutex mutex;
    std::unordered_map<std::string, std::string> reverse;
  };

  static std::size_t MemoShardOf(std::string_view word);
  static std::size_t ReverseShardOf(std::string_view token);

  /// Registers `token` for collision detection and memoizes word -> token.
  /// Returns the stable memo string (a racing thread may have installed
  /// the identical token first; its entry wins and is returned).
  const std::string& Install(std::string_view word, std::string token);

  std::string salt_;
  std::array<MemoShard, kShards> memo_shards_;
  std::array<ReverseShard, kShards> reverse_shards_;
};

}  // namespace confanon::core
