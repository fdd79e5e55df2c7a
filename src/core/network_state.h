// The per-network anonymization state, factored out of the engines.
//
// One NetworkState == one network's secret-keyed mappings: the word-hash
// memo, the prefix-preserving IP trie, the ASN permutation, the community
// value permutation, and the regexp rewriters (with their shared memo).
// Referential integrity across files — and across *dialects*: a network
// whose corpus mixes IOS and JunOS configs gets one consistent mapping —
// comes from every engine instance holding the same NetworkState.
//
// Concurrency contract (what makes the parallel pipeline sound):
//   * hasher     — internally sharded + locked; Hash() is thread-safe.
//   * ip         — shared_mutex'd trie; Map() is thread-safe. Engines
//     keep their own memo of its results (a returned mapping never
//     changes), so a worker reaches it once per distinct address.
//   * asn_map, community_values — immutable after construction (a keyed
//     permutation is a pure function); concurrent Map() is trivially safe.
//   * community, aspath_rewriter, community_rewriter — const views over
//     the above; the rewriters' LRU memo is internally locked.
//   * preloaded  — set once by whichever engine/pipeline runs the
//     corpus-wide rule I7 pass; checked by AnonymizeFile to decide
//     whether a standalone single-file preload is still needed.
#pragma once

#include <atomic>
#include <string_view>

#include "asn/asn_map.h"
#include "asn/community.h"
#include "asn/regex_rewrite.h"
#include "core/string_hasher.h"
#include "ipanon/ip_anonymizer.h"

namespace confanon::core {

struct NetworkState {
  /// All mappings are keyed by the network owner's secret salt.
  explicit NetworkState(std::string_view salt);

  NetworkState(const NetworkState&) = delete;
  NetworkState& operator=(const NetworkState&) = delete;

  StringHasher hasher;
  ipanon::IpAnonymizer ip;
  asn::AsnMap asn_map;
  asn::Uint16Permutation community_values;
  asn::CommunityAnonymizer community;
  asn::AsnRegexRewriter aspath_rewriter;
  asn::CommunityRegexRewriter community_rewriter;

  /// True once a corpus-wide address preload (rule I7) has run. Engines
  /// processing files after that point never grow the trie with
  /// un-preloaded addresses, which is what makes parallel file
  /// processing byte-identical to sequential.
  std::atomic<bool> preloaded{false};
};

}  // namespace confanon::core
