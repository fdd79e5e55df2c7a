#include "junos/anonymizer.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "config/tokenizer.h"
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

JunosAnonymizer::JunosAnonymizer(JunosAnonymizerOptions options)
    : JunosAnonymizer(std::move(options), nullptr) {}

JunosAnonymizer::JunosAnonymizer(const core::ServiceContext& context,
                                 const core::Session& session)
    : JunosAnonymizer(
          [&] {
            core::AnonymizerOptions base = context.EngineOptions(session);
            return JunosAnonymizerOptions{base.salt, base.regex_form,
                                          base.strip_comments,
                                          std::move(base.extra_pass_list)};
          }(),
          session.state()) {}

JunosAnonymizer::JunosAnonymizer(JunosAnonymizerOptions options,
                                 std::shared_ptr<core::NetworkState> state)
    : options_(std::move(options)),
      pass_list_(passlist::WithExtras(SharedJunosPassList(),
                                      options_.extra_pass_list)),
      shared_state_(state != nullptr),
      state_(shared_state_
                 ? std::move(state)
                 : std::make_shared<core::NetworkState>(options_.salt)) {}

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

std::vector<config::ConfigFile> JunosAnonymizer::AnonymizeNetwork(
    const std::vector<config::ConfigFile>& files) {
  obs::ScopedTimer network_span(&tracer_, "junos-anonymize-network");
  network_span.AddArg("files", static_cast<std::int64_t>(files.size()));
  network_span.AddArg("phase", "anonymize");
  if (!state_->preloaded.load(std::memory_order_acquire)) {
    obs::ScopedTimer preload_span(&tracer_, "junos-preload");
    preload_span.AddArg("phase", "preload");
    std::vector<net::Ipv4Address> addresses;
    for (const config::ConfigFile& file : files) {
      CollectFileAddresses(file, addresses);
    }
    state_->ip.Preload(std::move(addresses));
    state_->preloaded.store(true, std::memory_order_release);
  }
  std::vector<config::ConfigFile> out;
  out.reserve(files.size());
  for (const config::ConfigFile& file : files) {
    out.push_back(AnonymizeFile(file));
  }
  SyncMetrics();
  return out;
}

config::ConfigFile JunosAnonymizer::AnonymizeFile(
    const config::ConfigFile& file) {
  // Standalone streaming use (no corpus-wide pass ran): preload this
  // file's own addresses so the subnet-address guarantee holds at least
  // file-locally. Within AnonymizeNetwork or the pipeline the corpus
  // preload already ran and this is skipped.
  if (!state_->preloaded.load(std::memory_order_acquire)) {
    std::vector<net::Ipv4Address> addresses;
    CollectFileAddresses(file, addresses);
    state_->ip.Preload(std::move(addresses));
  }

  std::vector<std::string> out_lines;
  out_lines.reserve(file.lines().size());
  in_block_comment_ = false;

  const bool observing =
      tracer_.enabled() || provenance_ != nullptr || metrics_ != nullptr;
  const std::int64_t file_start_us = tracer_.enabled() ? tracer_.NowUs() : 0;
  const auto file_start = std::chrono::steady_clock::now();
  std::map<std::string, std::uint64_t> rule_ns;

  for (std::size_t index = 0; index < file.lines().size(); ++index) {
    if (observing) {
      ObserveLine(file.name(), index, file.lines()[index], out_lines,
                  rule_ns);
    } else {
      AnonymizeLine(file.lines()[index], out_lines);
    }
  }
  // Every line has been rendered into an owned output string; no
  // arena-backed view survives past this point.
  arena_.Reset();

  if (observing) {
    const std::int64_t file_ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - file_start)
            .count();
    if (file_hist_ != nullptr) {
      file_hist_->Record(static_cast<std::uint64_t>(file_ns));
    }
    if (tracer_.enabled()) {
      const std::int64_t file_end_us =
          file_start_us + std::max<std::int64_t>(file_ns / 1000, 1);
      std::int64_t cursor = file_start_us;
      for (const auto& [rule, ns] : rule_ns) {
        std::int64_t duration = std::max<std::int64_t>(
            static_cast<std::int64_t>(ns) / 1000, 1);
        duration = std::min(duration,
                            std::max<std::int64_t>(file_end_us - cursor, 1));
        tracer_.Complete("rule:" + rule, cursor, duration, "anonymize");
        cursor = std::min(cursor + duration, file_end_us - 1);
      }
      tracer_.Complete("file:" + file.name(), file_start_us,
                       file_end_us - file_start_us, "anonymize");
    }
    SyncMetrics();
  }

  std::string out_name = file.name();
  if (!out_name.empty() && !pass_list_->Contains(out_name)) {
    out_name = state_->hasher.Hash(out_name);
  }
  return config::ConfigFile(out_name, std::move(out_lines));
}

void JunosAnonymizer::AnonymizeLine(std::string_view raw,
                                    std::vector<std::string>& out_lines) {
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
  if (tokenize_hist_ != nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    TokenizeJunosLineInto(raw, line);
    tokenize_hist_->Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  } else {
    TokenizeJunosLineInto(raw, line);
  }
  report_.total_words += WordCount(line);
  ProcessLine(line);
  out_lines.push_back(line.Render());
}

void JunosAnonymizer::ObserveLine(const std::string& file_name,
                                  std::size_t index, std::string_view raw,
                                  std::vector<std::string>& out_lines,
                                  std::map<std::string, std::uint64_t>& rule_ns) {
  const std::uint64_t words_before = report_.total_words;
  const std::size_t out_count = out_lines.size();
  const std::map<std::string, std::uint64_t> fires_before = report_.rule_fires;
  const auto t0 = std::chrono::steady_clock::now();

  AnonymizeLine(raw, out_lines);

  const std::uint64_t elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (line_hist_ != nullptr) line_hist_->Record(elapsed_ns);

  const auto tokens_before =
      static_cast<std::uint32_t>(report_.total_words - words_before);
  const auto tokens_after = static_cast<std::uint32_t>(
      out_lines.size() > out_count ? util::SplitWords(out_lines.back()).size()
                                   : 0);

  std::vector<const std::string*> fired;
  for (const auto& [name, count] : report_.rule_fires) {
    const auto before = fires_before.find(name);
    if (before == fires_before.end() || before->second != count) {
      fired.push_back(&name);
    }
  }
  if (fired.empty()) return;
  const std::uint64_t share = elapsed_ns / fired.size();
  for (const std::string* rule : fired) {
    if (tracer_.enabled()) rule_ns[*rule] += share;
    if (provenance_ != nullptr) {
      provenance_->Record(obs::ProvenanceEntry{
          file_name, static_cast<std::uint64_t>(index), *rule, tokens_before,
          tokens_after});
    }
  }
}

void JunosAnonymizer::install_hooks(const obs::Hooks& hooks) {
  hooks_ = hooks;
  ApplyHooks();
}

void JunosAnonymizer::ApplyHooks() {
  tracer_.set_sink(hooks_.trace);
  provenance_ = hooks_.provenance;
  metrics_ = hooks_.metrics;
  line_hist_ = metrics_ != nullptr
                   ? &metrics_->HistogramNamed("junos.line_ns")
                   : nullptr;
  file_hist_ = metrics_ != nullptr
                   ? &metrics_->HistogramNamed("junos.file_ns")
                   : nullptr;
  tokenize_hist_ = metrics_ != nullptr
                       ? &metrics_->HistogramNamed("junos.tokenize_ns")
                       : nullptr;
}

void JunosAnonymizer::ExportKnownEntities(std::ostream& out) { (void)out; }

void JunosAnonymizer::SyncMetrics() {
  if (metrics_ == nullptr) return;
  core::SyncReportDeltas(report_, synced_report_, *metrics_, "junos.");
  const auto sync = [&](const char* name, std::uint64_t current,
                        std::uint64_t& base) {
    if (current > base) {
      metrics_->CounterNamed(name).Add(current - base);
      base = current;
    }
  };
  // The arena is engine-local (one per worker), so its counters sync
  // here even under a shared NetworkState.
  sync("junos.arena.bytes", arena_.bytes_allocated(), synced_arena_bytes_);
  sync("junos.arena.resets", arena_.resets(), synced_arena_resets_);
  if (shared_state_) {
    // The trie belongs to the pipeline's shared NetworkState; per-worker
    // delta syncs would double count, so the pipeline syncs centrally.
    return;
  }
  const ipanon::IpAnonymizer::Stats ip_stats = state_->ip.stats();
  sync("junos.ipanon.cache_hits", ip_stats.cache_hits, synced_ip_.cache_hits);
  sync("junos.ipanon.cache_misses", ip_stats.cache_misses,
       synced_ip_.cache_misses);
  sync("junos.ipanon.collision_walks", ip_stats.collision_walks,
       synced_ip_.collision_walks);
  sync("junos.ipanon.preloaded_addresses", ip_stats.preloaded,
       synced_ip_.preloaded);
  metrics_->GaugeNamed("junos.ipanon.trie_nodes")
      .Set(static_cast<std::int64_t>(state_->ip.NodeCount()));
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
