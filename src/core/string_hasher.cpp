#include "core/string_hasher.h"

#include <functional>
#include <stdexcept>

#include "util/sha1.h"

namespace confanon::core {

std::size_t StringHasher::MemoShardOf(std::string_view word) {
  return std::hash<std::string_view>{}(word) % kShards;
}

std::size_t StringHasher::ReverseShardOf(std::string_view token) {
  // token = "h" + hex digits; the first digit spreads uniformly (it is
  // the digest's top nibble).
  const char c = token.size() > 1 ? token[1] : '0';
  return static_cast<std::size_t>(
             c <= '9' ? c - '0' : 10 + (c - 'a')) %
         kShards;
}

const std::string* StringHasher::Find(std::string_view word) const {
  const MemoShard& shard = memo_shards_[MemoShardOf(word)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto it = shard.memo.find(word);
  return it == shard.memo.end() ? nullptr : &it->second;
}

const std::string& StringHasher::Install(std::string_view word,
                                         std::string token) {
  {
    ReverseShard& rev = reverse_shards_[ReverseShardOf(token)];
    std::lock_guard<std::mutex> lock(rev.mutex);
    const auto [rev_it, fresh] = rev.reverse.emplace(token, std::string(word));
    if (!fresh && rev_it->second != word) {
      // Two different identifiers landing on the same token would silently
      // merge two distinct config objects; refuse loudly instead.
      throw std::runtime_error("hash token collision between '" +
                               rev_it->second + "' and '" + std::string(word) +
                               "'");
    }
  }
  MemoShard& shard = memo_shards_[MemoShardOf(word)];
  std::lock_guard<std::mutex> lock(shard.mutex);
  const auto [memo_it, inserted] =
      shard.memo.emplace(std::string(word), std::move(token));
  // A racing thread may have inserted the same word first; emplace then
  // kept its (identical, deterministic) token.
  return memo_it->second;
}

const std::string& StringHasher::Hash(std::string_view word) {
  if (const std::string* token = Find(word)) return *token;

  // Miss: compute outside any lock (SHA-1 dominates the cost), then
  // register the token for collision detection and memoize.
  // Built via insert (not operator+ on the rvalue) to sidestep GCC 12's
  // bogus -Wrestrict diagnostic on `literal + std::string&&` (PR105651).
  std::string token = util::SaltedHexToken(salt_, word, 10);
  token.insert(0, 1, 'h');
  return Install(word, std::move(token));
}

std::size_t StringHasher::DistinctCount() const {
  std::size_t total = 0;
  for (const MemoShard& shard : memo_shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    total += shard.memo.size();
  }
  return total;
}

std::vector<std::string> StringHasher::Originals() const {
  std::vector<std::string> out;
  for (const MemoShard& shard : memo_shards_) {
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (const auto& [original, token] : shard.memo) {
      out.push_back(original);
    }
  }
  return out;
}

}  // namespace confanon::core
