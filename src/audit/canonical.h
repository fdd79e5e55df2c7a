// Structural fingerprint canonicalization for map-free pair auditing.
//
// Pair mode must verify that an anonymized corpus is isomorphic to its
// original "up to renaming" without any secret state. The anonymizer's
// per-class maps are all injective — the word hash is collision-checked,
// the ASN and community-value permutations are bijections, and the IP map
// is prefix-preserving and injective — so the *equality pattern* of
// renamed tokens is exactly what survives anonymization. This module
// reduces each config file to that pattern: every token is classified as
// verbatim (must match exactly), renamed within a class space (word /
// ASN / community / address — compared by first-occurrence numbering and
// a corpus-wide rename bimap), or opaque (rewritten regexp payloads,
// whose text legitimately changes shape).
//
// The classifier mirrors the default rule packs of core::Anonymizer and
// junos::JunosAnonymizer: the same context rules fire on both the
// original and the anonymized text because every trigger keyword is
// pass-listed and therefore survives. (Known limitation, documented in
// docs/AUDIT.md: identifiers that collide with dialect keywords would
// desynchronize the classifier — the anonymizer itself has the same
// ambiguity.)
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "net/prefix.h"

namespace confanon::audit {

enum class Dialect : std::uint8_t { kIos, kJunos };

enum class TokenClass : std::uint8_t {
  kVerbatim,  // must be byte-identical pre/post
  kWord,      // hashed-identifier space (injective word hash)
  kAsn,       // ASN space (public-range permutation, identity on private)
  kComm,      // community literal (ASN:VALUE or 32-bit numeric form)
  kAddr,      // IPv4 address space (prefix-preserving injective map)
  kRegex,     // rewritten regexp payload — opaque, shape-compared only
  kAsnList,   // quoted ASN sequence (JunOS as-path-prepend)
};

struct CanonToken {
  TokenClass cls = TokenClass::kVerbatim;
  /// Rename key (original token text) for renamed classes; literal text
  /// for kVerbatim; space-separated members for kAsnList; empty for
  /// kRegex.
  std::string key;
  /// Verbatim tail rendered after the placeholder (the "/len" of a CIDR
  /// token).
  std::string suffix;
  /// JunOS quoted-string tokens render inside quotes.
  bool quoted = false;
};

/// One emitted output line: its canonical tokens plus the source line it
/// came from (banner bodies are dropped, so output and source lines do
/// not correspond 1:1).
struct CanonLine {
  std::vector<CanonToken> tokens;
  std::uint32_t source_line = 0;  // zero-based
};

/// An address-bearing token occurrence, for the prefix-containment
/// lattice: CIDR tokens contribute their literal prefix, bare addresses
/// contribute /32, and IOS address+netmask pairs contribute the masked
/// subnet.
struct PrefixEvent {
  net::Prefix prefix;
  std::uint32_t source_line = 0;
};

struct CanonicalFile {
  std::string name;
  Dialect dialect = Dialect::kIos;
  /// True when the anonymizer would rename the file name (i.e. the name
  /// is not pass-listed); renamed names are compared through their own
  /// bimap space.
  bool name_renamed = false;
  std::vector<CanonLine> lines;
  std::vector<PrefixEvent> prefixes;
  /// Per-protocol line counts for the structural fingerprint summary.
  std::map<std::string, std::uint64_t> counts;
  std::size_t source_line_count = 0;
};

class TokenizedFile;

/// Canonicalizes one split file under its dialect's default rule pack.
CanonicalFile Canonicalize(const TokenizedFile& text);

/// Renders the shape lines with file-local first-occurrence numbering
/// (W1/A1/C1/IP1/RE placeholders). Used for the shape hash and for
/// first-divergence diffs between unpaired files.
std::vector<std::string> RenderShape(const CanonicalFile& file);

/// SHA-1 hex over the rendered shape — the pairing key between pre and
/// post corpora (output file names are hashed, so pairing by name is
/// impossible by design). Only pair mode needs it.
std::string ShapeHash(const CanonicalFile& file);

/// True for tokens of the anonymizer's hash alphabet: "h" + 10 lowercase
/// hex digits.
bool IsHashToken(std::string_view word);

}  // namespace confanon::audit
