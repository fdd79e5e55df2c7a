// Converting automata back to regular expressions, and building automata
// for finite languages.
//
// This implements the extension the paper sketches in Section 4.4: instead
// of emitting the anonymized ASN language as a flat alternation
// (701|13|4451|...), build the minimal DFA for the finite language and
// convert it back to a compact regexp by state elimination. The bench
// harness compares the two output forms.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "regex/dfa.h"

namespace confanon::regex {

/// Builds a total DFA (trie plus dead state) accepting exactly `words`
/// (byte-for-byte; no metacharacters). The empty set yields a DFA with an
/// empty language. Intended for finite languages: a set of ASN decimal
/// strings, or the verifier's pass-list tokens (minimized by the caller).
Dfa BuildDfaFromStrings(const std::vector<std::string>& words);

/// Converts a DFA to an ERE matching exactly its language, by GNFA state
/// elimination. Returns nullopt for the empty language. The result can be
/// large for adversarial automata but is compact for minimized finite
/// languages. The empty string in the language renders as an optional
/// top-level group.
std::optional<std::string> DfaToRegex(const Dfa& dfa);

/// Escapes one byte for safe literal use inside an ERE.
std::string EscapeRegexChar(char c);

/// Renders a CharSet as a compact ERE snippet ("7", "[0-9]", "[a-cx]").
/// The set must be non-empty and must not contain sentinel bytes.
std::string CharSetToRegex(const CharSet& set);

}  // namespace confanon::regex
