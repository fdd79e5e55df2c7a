// Def/use reference resolution over config text.
//
// Router configs are symbol-rich: route-maps, ACLs, prefix-lists,
// community-lists, as-path lists, peer-groups, interfaces, key chains and
// NAT pools are defined in one place and referenced from others. The
// resolver extracts those definition and use sites from raw text (no
// anonymizer state), which serves two audits:
//
//  - single corpus: dangling uses (reference to a symbol never defined)
//    and dead definitions (symbol never referenced) — structural smells
//    that anonymization bugs commonly introduce by renaming a definition
//    and a use site inconsistently;
//  - pair mode: the def/use event sequence of a pre file and its post
//    counterpart must be isomorphic up to renaming; the first divergent
//    edge is reported with both file:line anchors.
//
// JunOS and IOS symbol spaces are unified (policy-statement == route-map,
// community == community-list) so the resolver reports one vocabulary.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "audit/canonical.h"

namespace confanon::audit {

enum class SymbolSpace : std::uint8_t {
  kAcl,
  kRouteMap,       // IOS route-map / JunOS policy-statement
  kPrefixList,
  kCommunityList,  // IOS ip community-list / JunOS community
  kAsPathList,     // IOS ip as-path access-list / JunOS as-path
  kPeerGroup,      // IOS peer-group / JunOS bgp group
  kInterface,
  kKeyChain,
  kNatPool,
};

const char* SymbolSpaceName(SymbolSpace space);

/// One definition or use site, in file order.
struct RefEvent {
  SymbolSpace space;
  bool is_def = false;
  std::string name;
  std::uint32_t line = 0;  // zero-based source line
};

/// Extracts the def/use event sequence of one split file.
std::vector<RefEvent> ExtractRefs(const TokenizedFile& text);

}  // namespace confanon::audit
