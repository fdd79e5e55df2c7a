#include "core/anonymizer.h"

#include <algorithm>
#include <optional>

#include "config/tokenizer.h"
#include "net/prefix.h"
#include "net/special.h"
#include "util/charscan.h"
#include "util/sha1.h"
#include "util/strings.h"

namespace confanon::core {

using config::LineTokens;

namespace {

/// Renders words[from..] with their original inter-word gaps — used to
/// recover a policy regexp that may contain significant spaces.
std::string JoinTail(const LineTokens& tokens, std::size_t from) {
  std::string out;
  for (std::size_t i = from; i < tokens.words.size(); ++i) {
    if (i > from) out += tokens.gaps[i];
    out += tokens.words[i];
  }
  return out;
}

/// Replaces words[from..] with a single word, keeping the trailing gap.
/// `replacement` must be stable (arena- or memo-backed).
void ReplaceTail(LineTokens& tokens, std::size_t from,
                 std::string_view replacement) {
  tokens.words.resize(from);
  tokens.words.push_back(replacement);
  const std::string_view trailing = tokens.gaps.back();
  tokens.gaps.resize(from + 1);
  tokens.gaps.push_back(trailing);
}

/// Well-known community keywords that may appear where literals do.
bool IsCommunityKeyword(std::string_view lower_word) {
  return lower_word == "additive" || lower_word == "none" ||
         lower_word == "internet" || lower_word == "no-export" ||
         lower_word == "no-advertise" || lower_word == "local-as" ||
         lower_word == "exact" || lower_word == "exact-match";
}

/// Replaces the digits of a dial string with digits derived from its
/// salted hash, preserving length and any punctuation so the line stays a
/// syntactically valid dial string.
std::string PseudoDigits(std::string_view salt, std::string_view original) {
  const util::Sha1::Digest digest = util::SaltedDigest(salt, original);
  std::string out(original);
  std::size_t d = 0;
  for (char& c : out) {
    if (util::IsAsciiDigit(c)) {
      c = static_cast<char>('0' + digest[d % digest.size()] % 10);
      ++d;
    }
  }
  return out;
}

constexpr DialectTraits kIosTraits{
    .metric_prefix = "",
    .timing_prefix = "core.",
    .network_span = "anonymize-network",
    .preload_span = "preload.I7",
    .preload_rule = Rule::kSubnetPreload,
    .collect_addresses = &Anonymizer::CollectFileAddresses,
};

}  // namespace

void Anonymizer::LineCtx::SetWordRef(std::size_t i, std::string_view stable) {
  tokens.words[i] = stable;
  lower[i] = util::ToLowerArena(stable, *arena);
}

void Anonymizer::LineCtx::SetWord(std::size_t i, std::string_view value) {
  SetWordRef(i, arena->Store(value));
}

void Anonymizer::LineCtx::TruncateWords(std::size_t from) {
  tokens.words.resize(from);
  tokens.gaps.resize(from + 1);
  lower.resize(from);
  handled.resize(from);
}

void Anonymizer::LineCtx::ReplaceTailWith(std::size_t from,
                                          std::string_view replacement) {
  ReplaceTail(tokens, from, arena->Store(replacement));
  lower.resize(from);
  lower.push_back(util::ToLowerArena(tokens.words[from], *arena));
  handled.assign(tokens.words.size(), false);
  handled[from] = true;
}

Anonymizer::Anonymizer(AnonymizerOptions options)
    : Anonymizer(std::move(options), nullptr) {}

Anonymizer::Anonymizer(AnonymizerOptions options,
                       std::shared_ptr<NetworkState> state)
    : AnonymizerEngine(
          kIosTraits, options.salt, options.pass_list, options.extra_pass_list,
          std::move(state), RuleSetFromNames(options.disabled_rules)),
      options_(std::move(options)) {}

void Anonymizer::CollectFileAddresses(const config::ConfigFile& file,
                                      std::vector<net::Ipv4Address>& out) {
  for (const std::string_view line : file.lines()) {
    for (std::size_t begin = util::FindNonBlank(line, 0); begin < line.size();
         begin = util::FindNonBlank(line, begin)) {
      const std::size_t end = util::FindBlank(line, begin);
      const std::string_view word = line.substr(begin, end - begin);
      begin = end;
      // Ipv4Address::Parse rejects a word that does not start with a
      // digit; skip those without parsing.
      if (!util::IsAsciiDigit(word.front())) continue;
      // CIDR tokens keep their literal (possibly host-bearing) address.
      const std::size_t slash = word.find('/');
      const auto address = net::Ipv4Address::Parse(
          slash == std::string_view::npos ? word : word.substr(0, slash));
      if (address && !net::IsSpecial(*address)) {
        out.push_back(*address);
      }
    }
  }
}

void Anonymizer::CollectHashCandidates(const config::ConfigFile& file,
                                       const passlist::PassList& pass_list,
                                       std::vector<std::string_view>& out) {
  for (const std::string_view line : file.lines()) {
    for (std::string_view word : util::SplitWords(line)) {
      if (!pass_list.PassesWord(word)) out.push_back(word);
    }
  }
}

void Anonymizer::BeginFile(const config::ConfigFile& file) {
  in_banner_.assign(file.lines().size(), false);
  banner_start_.assign(file.lines().size(), false);
  if (!options_.strip_comments || !Enabled(Rule::kStripBanners)) return;
  for (const config::LineRegion& region : FindBannerRegions(file)) {
    for (std::size_t i = region.begin; i < region.end; ++i) {
      in_banner_[i] = true;
    }
    banner_start_[region.begin] = true;
  }
}

void Anonymizer::AnonymizeLine(const config::ConfigFile& file,
                               std::size_t index,
                               std::vector<std::string>& out_lines) {
  const std::string_view raw = file.lines()[index];
  ++report_.total_lines;
  LineCtx& ctx = line_ctx_;
  ctx.arena = &arena_;
  TimedTokenize([&] { config::TokenizeLineInto(raw, ctx.tokens); });
  report_.total_words += ctx.tokens.words.size();

  if (in_banner_[index]) {
    // Rule C3: the whole banner block is a comment; drop it, leaving a
    // bare '!' where it started so the block boundary stays visible.
    report_.comment_words_removed += ctx.tokens.words.size();
    Fire(Rule::kStripBanners);
    if (banner_start_[index]) out_lines.push_back("!");
    return;
  }

  if (!ApplyCommentRules(raw)) {
    // Line fully handled as a comment.
    const config::SplitLine split = config::SplitConfigLine(raw);
    report_.comment_words_removed +=
        split.words.empty() ? 0 : split.words.size() - 1;
    out_lines.push_back(std::string(static_cast<std::size_t>(split.indent),
                                    ' ') +
                        "!");
    return;
  }

  ctx.lower.clear();
  for (const std::string_view word : ctx.tokens.words) {
    ctx.lower.push_back(util::ToLowerArena(word, arena_));
  }
  ctx.handled.assign(ctx.tokens.words.size(), false);
  ApplyWordPasses(ctx);
  out_lines.push_back(ctx.tokens.Render());
}

void Anonymizer::HashWord(LineCtx& ctx, std::size_t i) {
  ctx.SetWordRef(i, state_->hasher.Hash(ctx.tokens.words[i]));
}

void Anonymizer::ApplyWordPasses(LineCtx& ctx) {
  // The former five independent passes, fused: one lowercase view
  // computed up front (each pass used to recompute it), the line-shaped
  // rule groups dispatched off it, then a single traversal applying the
  // per-token rules.
  ApplyFreeTextRules(ctx);
  ApplyAsnLineRules(ctx);
  ApplyMiscLineRules(ctx);
  ApplyTokenRules(ctx);
}

bool Anonymizer::ApplyCommentRules(std::string_view line) {
  if (!options_.strip_comments || !Enabled(Rule::kStripBangComments)) {
    return true;
  }
  // Rule C1: '!' full-line comments. A bare '!' is a section separator and
  // stays; anything after the '!' is free text and goes.
  const std::size_t start = util::FindNonBlank(line, 0);
  if (start == line.size() || line[start] != '!') return true;
  const std::size_t end = util::FindBlank(line, start);
  if (end - start == 1 && util::FindNonBlank(line, end) == line.size()) {
    return true;
  }
  Fire(Rule::kStripBangComments);
  return false;  // caller replaces with bare "!"
}

void Anonymizer::ApplyFreeTextRules(LineCtx& ctx) {
  if (!options_.strip_comments || !Enabled(Rule::kStripFreeText)) return;
  if (ctx.tokens.words.empty()) return;
  const std::vector<std::string_view>& lower = ctx.lower;

  // Rule C2: free-text payloads. `description ...` carries arbitrary prose
  // ("Foo Corp's LAX Main St offices"); `remark` inside ACLs likewise. The
  // arrangement of even pass-listed words can leak ("global crossing"), so
  // the whole payload is removed rather than hashed word-by-word.
  std::size_t payload_from = std::string::npos;
  if (lower[0] == "description" || lower[0] == "title") {
    payload_from = 1;
  } else {
    // `remark` and `description` can appear mid-line (`access-list 10
    // remark ...`, `ip prefix-list X description ...`); everything after
    // them is free text.
    for (std::size_t i = 0; i + 1 < lower.size(); ++i) {
      if (lower[i] == "remark" || lower[i] == "description") {
        payload_from = i + 1;
        break;
      }
    }
  }
  if (payload_from != std::string::npos &&
      payload_from < ctx.tokens.words.size()) {
    report_.comment_words_removed += ctx.tokens.words.size() - payload_from;
    Fire(Rule::kStripFreeText);
    ctx.TruncateWords(payload_from);
  }
}

std::string Anonymizer::MapAsnWord(std::string_view word) {
  std::uint64_t asn = 0;
  if (!util::ParseUint(word, asn::kMaxAsn, asn)) {
    return std::string(word);
  }
  RecordAsn(static_cast<std::uint32_t>(asn));
  const std::uint32_t mapped =
      state_->asn_map.Map(static_cast<std::uint32_t>(asn));
  if (mapped != asn) ++report_.asns_mapped;
  return std::to_string(mapped);
}

void Anonymizer::RecordAsn(std::uint32_t asn) {
  if (asn::IsPublicAsn(asn) && Enabled(Rule::kAsnAudit)) {
    // Rule A12: remember every public ASN seen so the leak detector can
    // grep the anonymized output for survivors (Section 6.1).
    leak_record_.public_asns.insert(std::to_string(asn));
    Fire(Rule::kAsnAudit);
  }
}

void Anonymizer::ApplyAsnLineRules(LineCtx& ctx) {
  auto& words = ctx.tokens.words;
  if (words.empty()) return;
  const std::vector<std::string_view>& lower = ctx.lower;
  auto& handled = ctx.handled;
  // Maps every all-digit word in [from, to) as an ASN, then counts `rule`.
  const auto map_asns = [&](Rule rule, std::size_t from, std::size_t to) {
    for (std::size_t i = from; i < to; ++i) {
      if (!util::IsAllDigits(words[i])) continue;
      ctx.SetWord(i, MapAsnWord(words[i]));
      handled[i] = true;
    }
    Fire(rule);
  };

  // Rule A1: `router bgp <asn>`.
  if (Enabled(Rule::kRouterBgp) && words.size() >= 3 &&
      lower[0] == "router" && lower[1] == "bgp" &&
      util::IsAllDigits(words[2])) {
    map_asns(Rule::kRouterBgp, 2, 3);
    return;
  }

  // Rules A2/A3: `neighbor <peer> remote-as|local-as <asn>`.
  if (words.size() >= 4 && lower[0] == "neighbor") {
    if (Enabled(Rule::kNeighborRemoteAs) && lower[2] == "remote-as" &&
        util::IsAllDigits(words[3])) {
      map_asns(Rule::kNeighborRemoteAs, 3, 4);
    } else if (Enabled(Rule::kNeighborLocalAs) && lower[2] == "local-as" &&
               util::IsAllDigits(words[3])) {
      map_asns(Rule::kNeighborLocalAs, 3, 4);
    }
    return;
  }

  // Rules A4/A5: confederation identifier / peer list.
  if (words.size() >= 4 && lower[0] == "bgp" && lower[1] == "confederation") {
    if (Enabled(Rule::kConfedIdentifier) && lower[2] == "identifier" &&
        util::IsAllDigits(words[3])) {
      map_asns(Rule::kConfedIdentifier, 3, 4);
    } else if (Enabled(Rule::kConfedPeers) && lower[2] == "peers") {
      map_asns(Rule::kConfedPeers, 3, words.size());
    }
    return;
  }

  // Rule A6: `ip as-path access-list <n> permit|deny <regex...>`. The
  // regex is the remainder of the line (it can contain spaces) and is
  // rewritten by language computation.
  if (Enabled(Rule::kAsPathRegex) && words.size() >= 5 && lower[0] == "ip" &&
      lower[1] == "as-path" && lower[2] == "access-list" &&
      (lower[4] == "permit" || lower[4] == "deny")) {
    const std::string pattern = JoinTail(ctx.tokens, 5);
    if (!pattern.empty()) {
      asn::RewriteResult result;
      result.pattern = pattern;
      try {
        result = state_->aspath_rewriter.Rewrite(pattern, options_.regex_form);
      } catch (const regex::ParseError&) {
        // Unparseable pattern (possible on exotic IOS syntax): leave it
        // in place — the conservative fallback is the Section 6.1 leak
        // grep, which flags any ASN that survives inside it.
      }
      RecordRewrite(result);
      // Every public ASN the pattern accepted is identity-bearing.
      for (std::uint32_t a : result.public_asns) RecordAsn(a);
      if (result.changed) {
        // The tail collapses to one rewritten word at index 5; the
        // leading keywords stay for the later passes (they are all
        // pass-listed or numeric).
        ctx.ReplaceTailWith(5, result.pattern);
        ++report_.aspath_regexps_rewritten;
        Fire(Rule::kAsPathRegex);
      } else {
        // Mark regex words handled so generic hashing leaves them alone.
        for (std::size_t i = 5; i < handled.size(); ++i) handled[i] = true;
      }
    }
    return;
  }

  // Rule A7: `set as-path prepend <asn> <asn> ...`.
  if (Enabled(Rule::kAsPathPrepend) && words.size() >= 4 &&
      lower[0] == "set" && lower[1] == "as-path" && lower[2] == "prepend") {
    map_asns(Rule::kAsPathPrepend, 3, words.size());
    return;
  }

  // Rules A8/A9: `ip community-list <n|name> permit|deny <items...>`.
  if (words.size() >= 4 && lower[0] == "ip" && lower[1] == "community-list") {
    std::size_t action = 0;
    for (std::size_t i = 2; i < lower.size(); ++i) {
      if (lower[i] == "permit" || lower[i] == "deny") {
        action = i;
        break;
      }
    }
    if (action != 0 && action + 1 < words.size()) {
      bool any_literal = false;
      for (std::size_t i = action + 1; i < words.size(); ++i) {
        if (IsCommunityKeyword(lower[i])) continue;
        const auto literal = asn::ParseCommunity(words[i]);
        if (literal && Enabled(Rule::kCommunityListLiteral)) {
          RecordAsn(literal->asn);
          ctx.SetWord(i, state_->community.Map(*literal).ToString());
          handled[i] = true;
          ++report_.communities_mapped;
          any_literal = true;
          continue;
        }
        if (!literal && Enabled(Rule::kCommunityListRegex)) {
          // Expanded community-list: the remainder is one regex.
          const std::string pattern = JoinTail(ctx.tokens, i);
          asn::RewriteResult result;
          result.pattern = pattern;
          try {
            result =
                state_->community_rewriter.Rewrite(pattern, options_.regex_form);
          } catch (const regex::ParseError&) {
            // As above: leave unparseable patterns for the leak grep.
          }
          RecordRewrite(result);
          if (result.changed) {
            ctx.ReplaceTailWith(i, result.pattern);
            ++report_.community_regexps_rewritten;
            Fire(Rule::kCommunityListRegex);
          } else {
            for (std::size_t j = i; j < handled.size(); ++j) {
              handled[j] = true;
            }
          }
          break;
        }
      }
      if (any_literal) Fire(Rule::kCommunityListLiteral);
    }
    return;
  }

  // Rule A10: `set community <c> <c> ... [additive]`.
  if (Enabled(Rule::kSetCommunity) && words.size() >= 3 && lower[0] == "set" &&
      lower[1] == "community") {
    bool fired = false;
    for (std::size_t i = 2; i < words.size(); ++i) {
      if (IsCommunityKeyword(lower[i])) continue;
      if (const auto literal = asn::ParseCommunity(words[i])) {
        RecordAsn(literal->asn);
        ctx.SetWord(i, state_->community.Map(*literal).ToString());
        handled[i] = true;
        ++report_.communities_mapped;
        fired = true;
      } else if (util::IsAllDigits(words[i])) {
        // Old-style 32-bit numeric community: anonymize the low 16 bits
        // via the value permutation, the high bits as an ASN.
        std::uint64_t value = 0;
        if (util::ParseUint(words[i], 0xFFFFFFFFull, value)) {
          const auto high = static_cast<std::uint32_t>(value >> 16);
          const auto low = static_cast<std::uint32_t>(value & 0xFFFF);
          RecordAsn(high);
          const std::uint64_t mapped =
              (static_cast<std::uint64_t>(state_->asn_map.Map(high)) << 16) |
              state_->community_values.Map(low);
          ctx.SetWord(i, std::to_string(mapped));
          handled[i] = true;
          ++report_.communities_mapped;
          fired = true;
        }
      }
    }
    if (fired) Fire(Rule::kSetCommunity);
    return;
  }

  // Rule A11: `set extcommunity rt|soo <asn:val> ...`.
  if (Enabled(Rule::kSetExtcommunity) && words.size() >= 4 &&
      lower[0] == "set" && lower[1] == "extcommunity") {
    bool fired = false;
    for (std::size_t i = 3; i < words.size(); ++i) {
      if (const auto literal = asn::ParseCommunity(words[i])) {
        RecordAsn(literal->asn);
        ctx.SetWord(i, state_->community.Map(*literal).ToString());
        handled[i] = true;
        ++report_.communities_mapped;
        fired = true;
      }
    }
    if (fired) Fire(Rule::kSetExtcommunity);
    return;
  }
}

void Anonymizer::ExportKnownEntities(std::ostream& out) {
  int index = 0;
  for (const AnonymizerOptions::KnownEntity& entity :
       options_.known_entities) {
    out << "entity " << index++ << ": asns";
    for (std::uint32_t asn : entity.asns) {
      out << ' ' << state_->asn_map.Map(asn);
    }
    out << " prefixes";
    for (const net::Prefix& prefix : entity.prefixes) {
      out << ' '
          << net::Prefix(state_->ip.Map(prefix.address()), prefix.length())
                 .ToString();
    }
    out << '\n';
  }
}

void Anonymizer::ApplyMiscLineRules(LineCtx& ctx) {
  auto& words = ctx.tokens.words;
  if (words.empty()) return;
  const std::vector<std::string_view>& lower = ctx.lower;
  auto& handled = ctx.handled;

  const auto force_hash = [&](std::size_t i, Rule rule) {
    if (i >= words.size() || handled[i]) return;
    if (!pass_list_->Contains(words[i])) {
      leak_record_.hashed_words.insert(std::string(words[i]));
    }
    HashWord(ctx, i);
    handled[i] = true;
    ++report_.words_hashed;
    Fire(rule);
  };

  // Rule M1: dial strings are phone numbers.
  if (Enabled(Rule::kDialerStrings) && words.size() >= 3 &&
      lower[0] == "dialer" &&
      (lower[1] == "string" || lower[1] == "called" || lower[1] == "caller")) {
    leak_record_.hashed_words.insert(std::string(words[2]));
    ctx.SetWord(2, PseudoDigits(options_.salt, words[2]));
    handled[2] = true;
    Fire(Rule::kDialerStrings);
    return;
  }

  // Rule M2: SNMP strings (community secrets, contact/location prose).
  if (lower[0] == "snmp-server" && words.size() >= 2 &&
      Enabled(Rule::kSnmpStrings)) {
    if (lower[1] == "community" && words.size() >= 3) {
      force_hash(2, Rule::kSnmpStrings);
      return;
    }
    if ((lower[1] == "contact" || lower[1] == "location" ||
         lower[1] == "chassis-id") &&
        words.size() >= 3 && options_.strip_comments) {
      report_.comment_words_removed += words.size() - 2;
      ctx.TruncateWords(2);
      Fire(Rule::kSnmpStrings);
      return;
    }
    if (lower[1] == "host" && words.size() >= 4) {
      // `snmp-server host <addr|name> <community>`: the trap community is
      // a secret; the host is handled by the IP pass or hashed below.
      force_hash(3, Rule::kSnmpStrings);
      return;
    }
  }

  // Rule M3: passwords and keys.
  if (Enabled(Rule::kSecrets)) {
    if (lower[0] == "enable" && words.size() >= 2 &&
        (lower[1] == "secret" || lower[1] == "password")) {
      force_hash(words.size() - 1, Rule::kSecrets);
      return;
    }
    if (lower[0] == "username" && words.size() >= 2) {
      force_hash(1, Rule::kSecrets);
      for (std::size_t i = 2; i + 1 < words.size(); ++i) {
        if (lower[i] == "password" || lower[i] == "secret") {
          force_hash(words.size() - 1, Rule::kSecrets);
          break;
        }
      }
      return;
    }
    if (lower[0] == "neighbor" && words.size() >= 4 &&
        lower[2] == "password") {
      force_hash(words.size() - 1, Rule::kSecrets);
      return;
    }
    if (lower[0] == "key-string" && words.size() >= 2) {
      force_hash(1, Rule::kSecrets);
      return;
    }
    if ((lower[0] == "tacacs-server" || lower[0] == "radius-server") &&
        words.size() >= 3 && lower[1] == "key") {
      force_hash(2, Rule::kSecrets);
      return;
    }
    if (lower[0] == "crypto" && words.size() >= 4 && lower[1] == "isakmp" &&
        lower[2] == "key") {
      // `crypto isakmp key SECRET address A.B.C.D`: the pre-shared key is
      // a secret; the peer address is handled by the IP pass.
      force_hash(3, Rule::kSecrets);
      return;
    }
    for (std::size_t i = 0; i + 1 < words.size(); ++i) {
      if (lower[i] == "md5" || lower[i] == "authentication-key" ||
          lower[i] == "key-chain") {
        force_hash(i + 1, Rule::kSecrets);
        return;
      }
    }
  }

  // Rule M4: name arguments — commands whose argument is a hostname or
  // domain name that must be anonymized even if its words are innocuous.
  if (Enabled(Rule::kNameArguments)) {
    if (lower[0] == "hostname" && words.size() >= 2) {
      force_hash(1, Rule::kNameArguments);
      return;
    }
    if (lower[0] == "ip" && words.size() >= 3 &&
        (lower[1] == "domain-name" ||
         (lower[1] == "domain" && words.size() >= 4 &&
          lower[2] == "name"))) {
      force_hash(words.size() - 1, Rule::kNameArguments);
      return;
    }
    if (lower[0] == "ip" && lower.size() >= 3 && lower[1] == "host") {
      force_hash(2, Rule::kNameArguments);
      return;
    }
    if (lower[0] == "ntp" && words.size() >= 3 && lower[1] == "server" &&
        !net::Ipv4Address::Parse(words[2])) {
      force_hash(2, Rule::kNameArguments);
      return;
    }
  }
}

void Anonymizer::ApplyTokenRules(LineCtx& ctx) {
  auto& words = ctx.tokens.words;
  if (words.empty()) return;
  const std::vector<std::string_view>& lower = ctx.lower;
  auto& handled = ctx.handled;

  // Context accounting for rules I4/I5/I6 (the mapping operation itself is
  // uniform; the context rules exist so the operator-facing report shows
  // which syntactic positions were handled). With a line's context rule
  // disabled, the addresses on that line stay as written.
  std::optional<Rule> context_rule;
  if (lower[0] == "ip" && lower.size() >= 2 &&
      (lower[1] == "address" || lower[1] == "route")) {
    context_rule = Rule::kAddressMaskPairs;
  } else if (lower[0] == "access-list" ||
             (lower[0] == "network" && words.size() >= 3)) {
    context_rule = Rule::kAddressWildcardPairs;
  } else if (lower[0] == "ntp" || lower[0] == "logging" ||
             lower[0] == "tacacs-server" || lower[0] == "radius-server" ||
             lower[0] == "snmp-server") {
    context_rule = Rule::kPlainAddressArgs;
  }
  const bool context_enabled = !context_rule || Enabled(*context_rule);
  const bool map_prefixes = context_enabled && Enabled(Rule::kMapPrefixes);
  const bool map_addresses = context_enabled && Enabled(Rule::kMapAddresses);
  // T1 and T2 are one transform: with either disabled, words no other
  // rule handled stay as written.
  const bool hash_words =
      Enabled(Rule::kSegmentWords) && Enabled(Rule::kPasslistHash);

  // Fused traversal: for each token, the IP rules run first; whatever
  // they leave unhandled falls through to generic hashing — the same
  // per-token outcome as the former two sequential whole-line loops,
  // since neither rule group reads any *other* token's rewrite.
  const std::uint64_t mapped_before = report_.addresses_mapped;
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (!handled[i]) {
      // --- IP rules (I1/I2/I3) ---
      // Rule I3: CIDR tokens ("a.b.c.d/len"). The literal address is
      // mapped (it may carry host bits, e.g. a JunOS-style interface
      // address) and the length is kept verbatim.
      const std::size_t slash =
          map_prefixes ? words[i].find('/') : std::string_view::npos;
      const auto prefix =
          slash == std::string_view::npos
              ? std::nullopt
              : net::Ipv4Address::Parse(words[i].substr(0, slash));
      std::uint64_t length = 0;
      if (prefix && util::ParseUint(words[i].substr(slash + 1), 32, length)) {
        handled[i] = true;
        if (net::IsSpecial(*prefix)) {
          ++report_.addresses_special;
          Fire(Rule::kSpecialPassthrough);
        } else {
          ctx.SetWordRef(i, StoreAddress(MapAddress(*prefix), length));
          ++report_.addresses_mapped;
          Fire(Rule::kMapPrefixes);
        }
      } else if (const auto address = net::Ipv4Address::Parse(words[i])) {
        // Rule I2: special addresses (netmasks, wildcard masks,
        // multicast, loopback, ...) pass through unchanged.
        if (net::IsSpecial(*address)) {
          if (Enabled(Rule::kSpecialPassthrough)) {
            handled[i] = true;
            ++report_.addresses_special;
            Fire(Rule::kSpecialPassthrough);
          }
        } else if (map_addresses) {
          // Rule I1: everything else is mapped through the
          // prefix-preserving trie.
          ctx.SetWordRef(i, StoreAddress(MapAddress(*address), std::nullopt));
          handled[i] = true;
          ++report_.addresses_mapped;
          Fire(Rule::kMapAddresses);
        }
      }
    }

    // --- Generic hashing (T1/T2) on whatever is still unhandled ---
    if (handled[i] || !hash_words) continue;
    const std::string_view word = words[i];
    if (word.empty() || config::IsNonAlphabetic(word)) continue;

    // Rule T1: segment the word into alphabetic cores and non-alphabetic
    // remainders; rule T2: the word passes only if every alphabetic
    // segment is on the pass-list.
    Fire(Rule::kSegmentWords);
    if (pass_list_->PassesWord(word)) {
      ++report_.words_passed;
      continue;
    }
    leak_record_.hashed_words.insert(std::string(word));
    HashWord(ctx, i);
    ++report_.words_hashed;
    Fire(Rule::kPasslistHash);
  }
  if (context_rule && report_.addresses_mapped != mapped_before) {
    Fire(*context_rule);
  }
}

}  // namespace confanon::core
