// Language intersection over DFAs: emptiness proofs and witnesses.
//
// The static policy verifier (src/verify) must prove that the language a
// sensitive recognizer accepts (IPv4 literals, public ASNs, communities,
// hash tokens) shares no string with the pass-list's verbatim language.
// Both sides are DFAs, so the proof is a product walk: the intersection
// is empty iff no accepting product state is reachable, and a breadth-
// first walk yields a *shortest* witness when it is not — the string an
// operator sees in the finding, and the string the tests feed back
// through the real anonymizer to demonstrate the leak.
//
// Byte order within the BFS prefers digits, lowercase letters and common
// config punctuation so witnesses come out readable; the order affects
// only which same-length witness is reported, never emptiness or length.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "regex/dfa.h"

namespace confanon::regex {

/// A shortest string in L(a) ∩ L(b), or nullopt when the intersection is
/// empty. Ties at the shortest length resolve to the first string in the
/// witness byte order (digits, lowercase, punctuation, rest).
std::optional<std::string> ShortestIntersectionWitness(const Dfa& a,
                                                       const Dfa& b);

/// Compiles `pattern` (the IOS policy-regex dialect, '_' treated as a
/// literal) into a full-match DFA over raw, unframed subjects. Patterns
/// must not use '^'/'$' anchors — full match is implicit. Throws
/// ParseError on malformed patterns.
Dfa CompileFullMatchDfa(std::string_view pattern);

}  // namespace confanon::regex
