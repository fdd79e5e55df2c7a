// Single-corpus residue lint: identity-bearing leftovers in anonymized
// text.
//
// These rules encode what a correctly anonymized corpus must NOT contain:
// free-text payloads (AUD-R001), dotted-quads embedded inside larger
// tokens (AUD-R002), ASN-like digit runs fused into names (AUD-R003),
// non-hash hostnames (AUD-R004), and tokens the generic pass-list rule
// would have hashed (AUD-R005). The lint is meant to run over the OUTPUT
// of an anonymizer; on original text it simply reports everything that
// would have to change. Corpus-level rules (AUD-R006 dangling use,
// AUD-R007 dead definition) live in the audit driver, which owns the
// cross-file symbol table.
#pragma once

#include <vector>

#include "audit/canonical.h"
#include "audit/finding.h"

namespace confanon::audit {

/// Rule ids for the per-file residue lint.
inline constexpr const char* kRuleFreeText = "AUD-R001";
inline constexpr const char* kRuleEmbeddedAddress = "AUD-R002";
inline constexpr const char* kRuleAsnInName = "AUD-R003";
inline constexpr const char* kRuleHostnameResidue = "AUD-R004";
inline constexpr const char* kRulePassListFallthrough = "AUD-R005";
inline constexpr const char* kRuleDanglingUse = "AUD-R006";
inline constexpr const char* kRuleDeadDef = "AUD-R007";

/// Runs rules AUD-R001..AUD-R005 over one split file. `canonical` must
/// be the Canonicalize() result for the same file (the fallthrough rule
/// reuses its token classification).
std::vector<Finding> LintFileResidue(const TokenizedFile& text,
                                     const CanonicalFile& canonical);

}  // namespace confanon::audit
