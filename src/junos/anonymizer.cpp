#include "junos/anonymizer.h"

#include <cstring>

#include "config/tokenizer.h"
#include "core/anonymizer.h"
#include "core/session.h"
#include "net/prefix.h"
#include "net/special.h"
#include "util/strings.h"

namespace confanon::junos {

namespace {

/// JunOS configuration keywords not already covered by the IOS corpus.
constexpr const char* kJunosWords[] = {
    "groups", "statement", "term", "accept", "reject", "members", "inet",
    "unit", "family", "lo", "so", "fe", "xe", "et", "mesh", "comm", "ext",
    "rib", "protocols", "interfaces", "neighbors", "units", "families",
};

bool IsQuoted(std::string_view text) {
  return text.size() >= 2 && text.front() == '"' && text.back() == '"';
}

std::string_view Unquote(std::string_view text) {
  if (IsQuoted(text)) return text.substr(1, text.size() - 2);
  return text;
}

/// Arena-backed quoting: the returned view lives until the next Reset().
std::string_view Quote(std::string_view text, util::Arena& arena) {
  char* out = arena.Allocate(text.size() + 2);
  out[0] = '"';
  if (!text.empty()) std::memcpy(out + 1, text.data(), text.size());
  out[text.size() + 1] = '"';
  return {out, text.size() + 2};
}

constexpr core::DialectTraits kJunosTraits{
    .metric_prefix = "junos.",
    .timing_prefix = "junos.",
    .network_span = "junos-anonymize-network",
    .preload_span = "junos-preload",
    .preload_rule = nullptr,
    .collect_addresses = &JunosAnonymizer::CollectFileAddresses,
};

}  // namespace

passlist::PassList JunosPassList() {
  passlist::PassList list = passlist::PassList::Builtin();
  for (const char* word : kJunosWords) {
    list.Add(word);
  }
  return list;
}

const std::shared_ptr<const passlist::PassList>& SharedJunosPassList() {
  static const std::shared_ptr<const passlist::PassList> list =
      std::make_shared<const passlist::PassList>(JunosPassList());
  return list;
}

JunosAnonymizerOptions JunosOptionsFrom(const core::AnonymizerOptions& options) {
  return JunosAnonymizerOptions{options.salt, options.regex_form,
                                options.strip_comments,
                                options.extra_pass_list};
}

JunosAnonymizer::JunosAnonymizer(JunosAnonymizerOptions options)
    : JunosAnonymizer(std::move(options), nullptr) {}

JunosAnonymizer::JunosAnonymizer(const core::ServiceContext& context,
                                 const core::Session& session)
    : JunosAnonymizer(JunosOptionsFrom(context.EngineOptions(session)),
                      session.state()) {}

JunosAnonymizer::JunosAnonymizer(JunosAnonymizerOptions options,
                                 std::shared_ptr<core::NetworkState> state)
    : core::AnonymizerEngine(kJunosTraits, options.salt, SharedJunosPassList(),
                             options.extra_pass_list, std::move(state),
                             /*preload_enabled=*/true),
      options_(std::move(options)) {}

void JunosAnonymizer::CollectFileAddresses(const config::ConfigFile& file,
                                           std::vector<net::Ipv4Address>& out) {
  JunosLine line;
  for (const std::string_view raw : file.lines()) {
    TokenizeJunosLineInto(raw, line);
    for (const Token& token : line.tokens) {
      if (token.kind != Token::Kind::kWord) continue;
      const std::string_view text = token.text;
      const std::size_t slash = text.find('/');
      const auto address = net::Ipv4Address::Parse(
          slash == std::string_view::npos ? text : text.substr(0, slash));
      if (address && !net::IsSpecial(*address)) {
        out.push_back(*address);
      }
    }
  }
}

void JunosAnonymizer::CollectHashCandidates(
    const config::ConfigFile& file, const passlist::PassList& pass_list,
    std::vector<std::string_view>& out) {
  JunosLine line;
  for (const std::string_view raw : file.lines()) {
    TokenizeJunosLineInto(raw, line);
    for (const Token& token : line.tokens) {
      if (token.kind != Token::Kind::kWord &&
          token.kind != Token::Kind::kString) {
        continue;
      }
      const std::string_view value = Unquote(token.text);
      if (value.empty() || config::IsNonAlphabetic(value)) continue;
      for (const config::Segment& segment : config::SegmentWord(value)) {
        if (segment.alpha && !pass_list.Contains(segment.text)) {
          out.push_back(value);
          break;
        }
      }
    }
  }
}

void JunosAnonymizer::BeginFile(const config::ConfigFile& /*file*/) {
  in_block_comment_ = false;
}

void JunosAnonymizer::AnonymizeLine(const config::ConfigFile& file,
                                    std::size_t index,
                                    std::vector<std::string>& out_lines) {
  const std::string_view raw = file.lines()[index];
  ++report_.total_lines;

  // '/* ... */' block comments (possibly multi-line): stripped whole.
  std::string_view text = raw;
  if (options_.strip_comments) {
    const bool opens =
        !in_block_comment_ &&
        util::Trim(text).substr(0, 2) == std::string_view("/*");
    if (opens || in_block_comment_) {
      const std::size_t close = text.find("*/");
      report_.total_words += util::SplitWords(text).size();
      report_.comment_words_removed += util::SplitWords(text).size();
      report_.CountRule("J.strip-block-comment");
      in_block_comment_ = close == std::string_view::npos;
      out_lines.push_back("/* */");
      return;
    }
  }

  JunosLine& line = line_buf_;
  TimedTokenize([&] { TokenizeJunosLineInto(raw, line); });
  report_.total_words += WordCount(line);
  ProcessLine(line);
  out_lines.push_back(line.Render());
}

void JunosAnonymizer::ForceHash(JunosLine& line, std::size_t index,
                                const char* rule) {
  if (index >= line.tokens.size()) return;
  Token& token = line.tokens[index];
  const std::string_view original = Unquote(token.text);
  if (original.empty()) return;
  if (!pass_list_->Contains(original)) {
    leak_record_.hashed_words.insert(std::string(original));
  }
  HashToken(token);
  ++report_.words_hashed;
  report_.CountRule(rule);
}

void JunosAnonymizer::HashToken(Token& token) {
  const std::string& hashed = state_->hasher.Hash(Unquote(token.text));
  token.text = token.kind == Token::Kind::kString ? Quote(hashed, arena_)
                                                  : std::string_view(hashed);
}

std::string JunosAnonymizer::MapAsnText(std::string_view text) {
  std::uint64_t asn = 0;
  if (!util::ParseUint(text, asn::kMaxAsn, asn)) return std::string(text);
  if (asn::IsPublicAsn(static_cast<std::uint32_t>(asn))) {
    leak_record_.public_asns.insert(std::string(text));
  }
  const std::uint32_t mapped =
      state_->asn_map.Map(static_cast<std::uint32_t>(asn));
  if (mapped != asn) ++report_.asns_mapped;
  return std::to_string(mapped);
}

void JunosAnonymizer::ProcessLine(JunosLine& line) {
  auto& tokens = line.tokens;
  if (tokens.empty()) return;

  // Trailing '#' comments.
  if (options_.strip_comments &&
      tokens.back().kind == Token::Kind::kComment) {
    report_.comment_words_removed +=
        util::SplitWords(tokens.back().text).size();
    report_.CountRule("J.strip-hash-comment");
    tokens.pop_back();
    if (tokens.empty()) return;
  }

  // Word-token indices (skipping punctuation) for context matching.
  std::vector<std::size_t> word_at;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i].kind == Token::Kind::kWord ||
        tokens[i].kind == Token::Kind::kString) {
      word_at.push_back(i);
    }
  }
  if (word_at.empty()) return;
  const auto word = [&](std::size_t w) -> std::string_view {
    return tokens[word_at[w]].text;
  };
  std::vector<bool> handled(tokens.size(), false);

  // JunOS allows several statements on one line ("group x { peer-as 701;
  // neighbor 4.4.4.4; }"), so context rules scan every word position, not
  // just the line head.
  for (std::size_t w = 0; w < word_at.size(); ++w) {
    // Already-rewritten tokens can never match a context keyword (hash
    // tokens are "h"+hex, mapped values are digits, rewritten strings
    // keep their quotes), so skipping them is behavior-preserving.
    if (handled[word_at[w]]) continue;
    const std::string_view keyword = util::ToLowerArena(word(w), arena_);
    const bool has_next = w + 1 < word_at.size();

    // --- free text: description / message strings are comments ---
    if (options_.strip_comments &&
        (keyword == "description" || keyword == "message") && has_next &&
        tokens[word_at[w + 1]].kind == Token::Kind::kString) {
      report_.comment_words_removed +=
          util::SplitWords(Unquote(word(w + 1))).size();
      tokens[word_at[w + 1]].text = "\"\"";
      handled[word_at[w + 1]] = true;
      report_.CountRule("J.strip-free-text");
      continue;
    }

    // --- names that must be hashed even if pass-listed ---
    if ((keyword == "host-name" || keyword == "domain-name") && has_next) {
      ForceHash(line, word_at[w + 1], "J.name-arguments");
      handled[word_at[w + 1]] = true;
      continue;
    }

    // --- ASN-bearing statements ---
    if ((keyword == "peer-as" || keyword == "autonomous-system") &&
        has_next && util::IsAllDigits(word(w + 1))) {
      tokens[word_at[w + 1]].text = arena_.Store(MapAsnText(word(w + 1)));
      handled[word_at[w + 1]] = true;
      report_.CountRule("J.asn-statement");
      continue;
    }

    // `as-path NAME "REGEX";` (a definition carries a quoted regex; a
    // `from as-path NAME;` reference does not).
    if (keyword == "as-path" && w + 2 < word_at.size() &&
        tokens[word_at[w + 2]].kind == Token::Kind::kString) {
      const std::string pattern(Unquote(word(w + 2)));
      try {
        const asn::RewriteResult result =
            state_->aspath_rewriter.Rewrite(pattern, options_.regex_form);
        RecordRewrite(result);
        for (std::uint32_t a : asn::EnumerateLanguage(pattern)->accepted) {
          if (asn::IsPublicAsn(a)) {
            leak_record_.public_asns.insert(std::to_string(a));
          }
        }
        if (result.changed) {
          tokens[word_at[w + 2]].text = Quote(result.pattern, arena_);
          ++report_.aspath_regexps_rewritten;
          report_.CountRule("J.as-path-regex");
        }
      } catch (const regex::ParseError&) {
        // Leave for the leak grep.
      }
      handled[word_at[w + 2]] = true;
      continue;
    }

    // `as-path-prepend "701 701";`
    if (keyword == "as-path-prepend" && has_next &&
        tokens[word_at[w + 1]].kind == Token::Kind::kString) {
      std::vector<std::string> mapped;
      const std::string_view inner = Unquote(word(w + 1));
      for (const auto asn_text : util::SplitWords(inner)) {
        mapped.push_back(MapAsnText(asn_text));
      }
      tokens[word_at[w + 1]].text = Quote(util::Join(mapped, " "), arena_);
      handled[word_at[w + 1]] = true;
      report_.CountRule("J.as-path-prepend");
      continue;
    }

    // `... members <literals | "regex">` (community definitions).
    if (keyword == "members") {
      for (std::size_t v = w + 1; v < word_at.size(); ++v) {
        Token& value = tokens[word_at[v]];
        if (value.kind == Token::Kind::kString) {
          const std::string pattern(Unquote(value.text));
          try {
            const asn::RewriteResult result =
                state_->community_rewriter.Rewrite(pattern, options_.regex_form);
            RecordRewrite(result);
            if (result.changed) {
              value.text = Quote(result.pattern, arena_);
              ++report_.community_regexps_rewritten;
              report_.CountRule("J.community-regex");
            }
          } catch (const regex::ParseError&) {
          }
          handled[word_at[v]] = true;
        } else if (const auto literal = asn::ParseCommunity(value.text)) {
          if (asn::IsPublicAsn(literal->asn)) {
            leak_record_.public_asns.insert(std::to_string(literal->asn));
          }
          value.text = arena_.Store(state_->community.Map(*literal).ToString());
          ++report_.communities_mapped;
          handled[word_at[v]] = true;
          report_.CountRule("J.community-literal");
        }
      }
      continue;
    }
  }

  // --- IP pass over word tokens ---
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (handled[i] || tokens[i].kind != Token::Kind::kWord) continue;
    Token& token = tokens[i];
    const std::size_t slash = token.text.find('/');
    if (slash != std::string_view::npos) {
      const auto address = net::Ipv4Address::Parse(token.text.substr(0, slash));
      std::uint64_t length = 0;
      if (address &&
          util::ParseUint(token.text.substr(slash + 1), 32, length)) {
        if (net::IsSpecial(*address)) {
          handled[i] = true;
          ++report_.addresses_special;
          report_.CountRule("J.special-passthrough");
          continue;
        }
        leak_record_.addresses.insert(address->ToString());
        token.text = arena_.Store(state_->ip.Map(*address).ToString() + "/" +
                                  std::to_string(length));
        handled[i] = true;
        ++report_.addresses_mapped;
        report_.CountRule("J.map-prefixes");
        continue;
      }
    }
    if (const auto address = net::Ipv4Address::Parse(token.text)) {
      if (net::IsSpecial(*address)) {
        handled[i] = true;
        ++report_.addresses_special;
        report_.CountRule("J.special-passthrough");
        continue;
      }
      leak_record_.addresses.insert(address->ToString());
      token.text = arena_.Store(state_->ip.Map(*address).ToString());
      handled[i] = true;
      ++report_.addresses_mapped;
      report_.CountRule("J.map-addresses");
    }
  }

  // --- generic pass-list hashing over remaining words ---
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (handled[i]) continue;
    if (tokens[i].kind != Token::Kind::kWord &&
        tokens[i].kind != Token::Kind::kString) {
      continue;
    }
    const std::string_view value = Unquote(tokens[i].text);
    if (value.empty() || config::IsNonAlphabetic(value)) continue;
    bool all_passed = true;
    for (const config::Segment& segment : config::SegmentWord(value)) {
      if (segment.alpha && !pass_list_->Contains(segment.text)) {
        all_passed = false;
        break;
      }
    }
    if (all_passed) {
      ++report_.words_passed;
      continue;
    }
    leak_record_.hashed_words.insert(std::string(value));
    HashToken(tokens[i]);
    ++report_.words_hashed;
    report_.CountRule("J.passlist-hash");
  }
}

}  // namespace confanon::junos
