// Prefix-preserving IP address anonymization (paper Section 4.3).
//
// The scheme is an extended version of Minshall's tcpdpriv "-a50"
// data-structure-based mapping: a binary trie over address bits where each
// node carries a random "flip" bit, and the anonymized address is produced
// by XORing each input bit with the flip bit of the trie node reached by the
// preceding bits. Any such map is automatically prefix-preserving and
// bijective. The paper's extensions, all implemented here:
//
//  * Class preserving: flip bits on the classful "spine" (paths "", "1",
//    "11", "111") are pinned to zero, so A/B/C inputs map within their
//    class and D/E leading patterns cannot be produced from non-D/E inputs.
//  * Special addresses pass through unchanged (netmasks, wildcard masks,
//    multicast, class E, loopback, 0/8 — see net/special.h).
//  * Collisions of a non-special input onto a special output are resolved
//    by recursively re-mapping the output until it is non-special
//    (cycle-walking a bijection, which terminates and stays injective).
//  * Subnet-address preservation: a node created while the remaining input
//    bits are all zero gets flip 0, so an address with an all-zero host
//    part maps to another such address. This is guaranteed when addresses
//    are preloaded (they are inserted in ascending order, so no zero-tail
//    node can have been created by an earlier address) and best-effort for
//    addresses first seen during streaming.
//
// Thread safety: lookups of already-mapped addresses take a shared lock on
// the memo; trie growth (first sight of an address) takes the exclusive
// lock. After a corpus-wide Preload the file-processing phase is
// effectively read-only — every Map() hits the memo — which is what makes
// the parallel corpus pipeline byte-identical to the sequential path: no
// RNG is consumed in any thread-interleaving-dependent order. A mapping
// once returned never changes (memo entries are never erased, and
// ImportMappings throws rather than rewrite a flip), so callers may keep
// their own memo of Map() results: each core::AnonymizerEngine does, and
// reaches the trie once per distinct address it sees.
#pragma once

#include <atomic>
#include <cstdint>
#include <istream>
#include <ostream>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/ipv4.h"
#include "util/rng.h"

namespace confanon::ipanon {

class IpAnonymizer {
 public:
  /// `salt` is the network owner's secret; it fully determines the mapping
  /// together with the set of addresses inserted and their insertion order.
  explicit IpAnonymizer(std::string_view salt);

  /// Inserts every address (sorted ascending, duplicates ignored) before
  /// any lookup, guaranteeing the subnet-address-preservation property for
  /// the whole set. Idempotent per address; safe to call per-file for
  /// streaming use.
  void Preload(std::vector<net::Ipv4Address> addresses);

  /// Maps one address: identity for special addresses, the trie bijection
  /// with cycle-walking otherwise. Inserts new trie paths on demand.
  /// Thread-safe.
  net::Ipv4Address Map(net::Ipv4Address address);

  /// The raw trie bijection without the special-address rules; exposed for
  /// tests and for the collision-walk implementation. Thread-safe.
  net::Ipv4Address MapRaw(net::Ipv4Address address);

  /// True if mapping `address` required at least one collision-resolution
  /// walk step (diagnostics; the experiments report how rare this is).
  /// Under concurrent Map() calls the value reflects *some* recent call.
  bool LastMapWalked() const {
    return last_map_walked_.load(std::memory_order_relaxed);
  }

  /// Number of trie nodes allocated (memory/DS-size diagnostics).
  std::size_t NodeCount() const;

  /// Instrumentation counters, maintained unconditionally (relaxed atomic
  /// increments on the paths that already pay a hash lookup or trie walk).
  /// The observability layer snapshots these into the metrics registry.
  struct Stats {
    std::uint64_t cache_hits = 0;    // lookups served by a memo (this
                                     // one's, or a caller's: CountHits)
    std::uint64_t cache_misses = 0;  // raw mappings that walked the trie
    std::uint64_t collision_walks = 0;  // cycle-walk steps taken by Map()
    std::uint64_t preloaded = 0;     // addresses inserted by Preload()
  };
  /// Snapshot of the counters (consistent enough for reporting; each
  /// field is read with relaxed ordering).
  Stats stats() const;

  /// Adds `hits` lookups that a caller's own memo of Map() results served
  /// to cache_hits, so the counter still covers every mapped lookup.
  void CountHits(std::uint64_t hits) {
    cache_hits_.fetch_add(hits, std::memory_order_relaxed);
  }

  /// Writes "input output" dotted-quad pairs, one per line, for every
  /// address mapped so far. Another instance can ImportMappings() them to
  /// reproduce the same mapping (e.g. to anonymize a second batch of files
  /// consistently).
  void ExportMappings(std::ostream& out) const;

  /// Replays exported pairs, forcing the trie's flip bits to agree. Throws
  /// std::runtime_error on malformed input or on pairs inconsistent with
  /// flips already fixed. The text form walks line views over the buffer
  /// (no per-line reads or copies — the fast path for file-backed maps);
  /// the stream form slurps the stream once and delegates to it.
  void ImportMappings(std::string_view text);
  void ImportMappings(std::istream& in);

 private:
  struct Node {
    std::int32_t child[2] = {-1, -1};
    std::uint8_t flip = 0;
  };

  /// Walks/extends the trie for `address`, returning the XOR mask of flip
  /// bits. `forced_output`, when non-negative, pins newly created flips so
  /// that address maps to that exact output (used by ImportMappings).
  /// Caller must hold the exclusive lock.
  std::uint32_t FlipMask(std::uint32_t address, std::int64_t forced_output);

  std::int32_t NewNode();

  /// Guards the trie, the raw-mapping memo, and the export log. Reads of
  /// already-memoized mappings take it shared; trie growth exclusive.
  mutable std::shared_mutex mutex_;
  std::vector<Node> nodes_;
  util::Rng rng_;
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> collision_walks_{0};
  std::atomic<std::uint64_t> preloaded_{0};
  std::atomic<bool> last_map_walked_{false};
  /// Raw mapping memo: avoids re-walking the trie for repeated addresses
  /// (configs repeat the same addresses heavily) and deduplicates the
  /// export log.
  std::unordered_map<std::uint32_t, std::uint32_t> raw_cache_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> mapped_log_;
};

}  // namespace confanon::ipanon
