#include "audit/lint.h"

#include <optional>
#include <span>
#include <string_view>

#include "audit/tokenized.h"
#include "junos/tokenizer.h"
#include "net/ipv4.h"
#include "net/special.h"
#include "util/charscan.h"
#include "util/strings.h"

namespace confanon::audit {

namespace {

constexpr std::size_t kNoPayload = ~std::size_t{0};

bool IsAsciiDigitChar(char c) { return c >= '0' && c <= '9'; }
bool IsAsciiAlphaChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z');
}

/// True if `word` is entirely an address or CIDR token — those are the
/// legitimate carriers of dotted-quads.
bool IsAddressToken(std::string_view word) {
  const std::size_t slash = word.find('/');
  if (slash != std::string_view::npos) {
    std::uint64_t length = 0;
    return net::Ipv4Address::Parse(word.substr(0, slash)).has_value() &&
           util::ParseUint(word.substr(slash + 1), 32, length);
  }
  return net::Ipv4Address::Parse(word).has_value();
}

/// AUD-R002: a dotted-quad embedded inside a larger token (the token
/// itself is not an address). Special values (netmasks, multicast, ...)
/// are not identity-bearing and are ignored.
std::optional<std::string> FindEmbeddedAddress(std::string_view word) {
  for (std::size_t start = 0; start < word.size(); ++start) {
    if (!IsAsciiDigitChar(word[start])) continue;
    if (start > 0 &&
        (IsAsciiDigitChar(word[start - 1]) || word[start - 1] == '.')) {
      continue;  // not the beginning of a dotted-quad candidate
    }
    // Greedily consume digits and dots: d{1,3}(.d{1,3}){3}
    std::size_t pos = start;
    int octets = 0;
    bool valid = true;
    while (octets < 4) {
      std::size_t digits = 0;
      std::uint32_t value = 0;
      while (pos < word.size() && IsAsciiDigitChar(word[pos]) && digits < 3) {
        value = value * 10 + static_cast<std::uint32_t>(word[pos] - '0');
        ++pos;
        ++digits;
      }
      if (digits == 0 || value > 255) {
        valid = false;
        break;
      }
      ++octets;
      if (octets < 4) {
        if (pos < word.size() && word[pos] == '.') {
          ++pos;
        } else {
          valid = false;
          break;
        }
      }
    }
    if (!valid) continue;
    // Boundary: the match must not continue into more digits or dots.
    if (pos < word.size() &&
        (IsAsciiDigitChar(word[pos]) || word[pos] == '.')) {
      continue;
    }
    const std::string_view quad = word.substr(start, pos - start);
    const auto address = net::Ipv4Address::Parse(quad);
    if (address && !net::IsSpecial(*address)) return std::string(quad);
  }
  return std::nullopt;
}

/// AUD-R003: a public-ASN-sized digit run fused directly against letters
/// (no separator), e.g. "as7018rtr". Separated forms like "aspath-50"
/// carry only the list number and stay below this rule's radar.
std::optional<std::string> FindFusedAsnRun(std::string_view word) {
  for (std::size_t start = 0; start < word.size(); ++start) {
    if (!IsAsciiDigitChar(word[start])) continue;
    if (start > 0 && IsAsciiDigitChar(word[start - 1])) continue;
    std::size_t end = start;
    while (end < word.size() && IsAsciiDigitChar(word[end])) ++end;
    const std::size_t run = end - start;
    const bool alpha_adjacent =
        (start > 0 && IsAsciiAlphaChar(word[start - 1])) ||
        (end < word.size() && IsAsciiAlphaChar(word[end]));
    if (run >= 3 && run <= 6 && alpha_adjacent) {
      std::uint64_t value = 0;
      if (util::ParseUint(word.substr(start, run), 0xFFFFFFFFull, value) &&
          value >= 1 && value <= 64511) {
        return std::string(word.substr(start, run));
      }
    }
    start = end;
  }
  return std::nullopt;
}

/// True when the source line is a hostname statement (IOS `hostname X`,
/// JunOS `host-name X;`), giving the more specific AUD-R004 rule id. The
/// head is the line's first blank-separated word in either dialect.
bool IsHostnameLine(std::string_view raw) {
  const std::size_t begin = util::FindNonBlank(raw, 0);
  const std::string_view head =
      raw.substr(begin, util::FindBlank(raw, begin) - begin);
  return EqualsLowercase(head, "hostname") ||
         EqualsLowercase(head, "host-name");
}

void ScanIosFreeText(const TokenizedFile& text, std::vector<Finding>& out) {
  const std::string& name = text.file().name();
  // Surviving banners are whole blocks of prose.
  for (const config::LineRegion& region : text.banners()) {
    out.push_back(Finding{
        kRuleFreeText, Severity::kError, Anchor{name, region.begin}, Anchor{},
        "banner block survived anonymization (banners must be stripped)"});
  }
  for (std::size_t index = 0; index < text.line_count(); ++index) {
    const std::span<const std::string_view> words = text.words(index);
    if (words.empty() || words[0].front() == '!') continue;
    const std::span<const std::string_view> lower = text.lower(index);

    std::size_t payload_from = kNoPayload;
    if (lower[0] == "description" || lower[0] == "title") {
      payload_from = 1;
    } else {
      for (std::size_t i = 0; i + 1 < lower.size(); ++i) {
        if (lower[i] == "remark" || lower[i] == "description") {
          payload_from = i + 1;
          break;
        }
      }
    }
    if (lower[0] == "snmp-server" && words.size() >= 3 &&
        (lower[1] == "contact" || lower[1] == "location" ||
         lower[1] == "chassis-id")) {
      payload_from = 2;
    }
    if (payload_from != kNoPayload && payload_from < words.size()) {
      out.push_back(Finding{
          kRuleFreeText, Severity::kError, Anchor{name, index}, Anchor{},
          "free-text payload survived after '" +
              std::string(lower[payload_from - 1]) + "'"});
    }
  }
}

void ScanJunosFreeText(const TokenizedFile& text, std::vector<Finding>& out) {
  const std::string& name = text.file().name();
  for (std::size_t index = 0; index < text.line_count(); ++index) {
    if (text.kind(index) == TokenizedFile::LineKind::kBlockComment) {
      // A comment with content beyond the markers is surviving prose.
      const std::string_view trimmed = util::Trim(text.raw(index));
      if (trimmed != "/* */" && trimmed.size() > 4) {
        out.push_back(Finding{kRuleFreeText, Severity::kError,
                              Anchor{name, index}, Anchor{},
                              "block comment content survived (expected a "
                              "bare '/* */' marker)"});
      }
      continue;
    }
    const std::span<const junos::Token> tokens = text.tokens(index);
    const std::span<const std::string_view> lower = text.lower(index);
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
      if (tokens[i].kind != junos::Token::Kind::kWord) continue;
      const std::string_view keyword = lower[i];
      if (keyword != "description" && keyword != "message") continue;
      const junos::Token& value = tokens[i + 1];
      if (value.kind == junos::Token::Kind::kString && value.text != "\"\"") {
        out.push_back(Finding{
            kRuleFreeText, Severity::kError, Anchor{name, index}, Anchor{},
            "free-text string survived after '" + std::string(keyword) +
                "'"});
      }
    }
    if (!tokens.empty() &&
        tokens.back().kind == junos::Token::Kind::kComment) {
      out.push_back(Finding{kRuleFreeText, Severity::kError,
                            Anchor{name, index}, Anchor{},
                            "trailing '#' comment survived anonymization"});
    }
  }
}

}  // namespace

std::vector<Finding> LintFileResidue(const TokenizedFile& text,
                                     const CanonicalFile& canonical) {
  const std::string& name = text.file().name();
  std::vector<Finding> out;

  // AUD-R001: free-text survivors, dialect-specific.
  if (text.dialect() == Dialect::kJunos) {
    ScanJunosFreeText(text, out);
  } else {
    ScanIosFreeText(text, out);
  }

  // Token-level rules ride on the canonical classification: every token
  // the canonicalizer marks as renameable (kWord) must already be a hash
  // token in anonymized output (AUD-R004/R005), and no surviving token
  // may embed a dotted-quad (AUD-R002) or a fused ASN-sized digit run
  // (AUD-R003).
  for (const CanonLine& line : canonical.lines) {
    for (const CanonToken& token : line.tokens) {
      const std::string& key = token.key;
      switch (token.cls) {
        case TokenClass::kWord: {
          if (IsHashToken(key)) break;
          const bool hostname =
              line.source_line < canonical.source_line_count &&
              IsHostnameLine(text.raw(line.source_line));
          out.push_back(Finding{
              hostname ? kRuleHostnameResidue : kRulePassListFallthrough,
              Severity::kError, Anchor{name, line.source_line},
              Anchor{},
              (hostname ? std::string("hostname '") : std::string("token '")) +
                  key +
                  "' is not an anonymized hash and is not pass-listed"});
          break;
        }
        case TokenClass::kVerbatim: {
          if (const auto quad = FindEmbeddedAddress(key)) {
            if (!IsAddressToken(key)) {
              out.push_back(Finding{
                  kRuleEmbeddedAddress, Severity::kError,
                  Anchor{name, line.source_line}, Anchor{},
                  "token '" + key + "' embeds dotted-quad " + *quad});
            }
          } else if (const auto run = FindFusedAsnRun(key)) {
            out.push_back(Finding{
                kRuleAsnInName, Severity::kWarning,
                Anchor{name, line.source_line}, Anchor{},
                "token '" + key + "' embeds ASN-like digit run " + *run});
          }
          break;
        }
        default:
          break;
      }
    }
  }
  return out;
}

}  // namespace confanon::audit
