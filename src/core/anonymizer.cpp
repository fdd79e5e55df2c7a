#include "core/anonymizer.h"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "config/tokenizer.h"
#include "core/session.h"
#include "net/prefix.h"
#include "net/special.h"
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

Anonymizer::Anonymizer(const ServiceContext& context, const Session& session)
    : Anonymizer(context.EngineOptions(session), session.state()) {}

Anonymizer::Anonymizer(AnonymizerOptions options,
                       std::shared_ptr<NetworkState> state)
    : options_(std::move(options)),
      pass_list_(
          passlist::WithExtras(options_.pass_list, options_.extra_pass_list)),
      enabled_{},
      shared_state_(state != nullptr),
      state_(shared_state_ ? std::move(state)
                           : std::make_shared<NetworkState>(options_.salt)) {
  const auto on = [&](const char* name) {
    return !options_.disabled_rules.contains(name);
  };
  enabled_.segment_words = on(rules::kSegmentWords);
  enabled_.passlist_hash = on(rules::kPasslistHash);
  enabled_.strip_bang_comments = on(rules::kStripBangComments);
  enabled_.strip_free_text = on(rules::kStripFreeText);
  enabled_.strip_banners = on(rules::kStripBanners);
  enabled_.dialer_strings = on(rules::kDialerStrings);
  enabled_.snmp_strings = on(rules::kSnmpStrings);
  enabled_.secrets = on(rules::kSecrets);
  enabled_.name_arguments = on(rules::kNameArguments);
  enabled_.router_bgp = on(rules::kRouterBgp);
  enabled_.neighbor_remote_as = on(rules::kNeighborRemoteAs);
  enabled_.neighbor_local_as = on(rules::kNeighborLocalAs);
  enabled_.confed_identifier = on(rules::kConfedIdentifier);
  enabled_.confed_peers = on(rules::kConfedPeers);
  enabled_.aspath_regex = on(rules::kAsPathRegex);
  enabled_.aspath_prepend = on(rules::kAsPathPrepend);
  enabled_.community_list_literal = on(rules::kCommunityListLiteral);
  enabled_.community_list_regex = on(rules::kCommunityListRegex);
  enabled_.set_community = on(rules::kSetCommunity);
  enabled_.set_extcommunity = on(rules::kSetExtcommunity);
  enabled_.asn_audit = on(rules::kAsnAudit);
  enabled_.map_addresses = on(rules::kMapAddresses);
  enabled_.special_passthrough = on(rules::kSpecialPassthrough);
  enabled_.map_prefixes = on(rules::kMapPrefixes);
  enabled_.address_mask_pairs = on(rules::kAddressMaskPairs);
  enabled_.address_wildcard_pairs = on(rules::kAddressWildcardPairs);
  enabled_.plain_address_args = on(rules::kPlainAddressArgs);
  enabled_.subnet_preload = on(rules::kSubnetPreload);
}

void Anonymizer::CollectFileAddresses(const config::ConfigFile& file,
                                      std::vector<net::Ipv4Address>& out) {
  for (const std::string_view line : file.lines()) {
    for (std::string_view word : util::SplitWords(line)) {
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
      if (word.empty() || config::IsNonAlphabetic(word)) continue;
      for (const config::Segment& segment : config::SegmentWord(word)) {
        if (segment.alpha && !pass_list.Contains(segment.text)) {
          out.push_back(word);
          break;
        }
      }
    }
  }
}

std::vector<config::ConfigFile> Anonymizer::AnonymizeNetwork(
    const std::vector<config::ConfigFile>& files) {
  obs::ScopedTimer network_span(&tracer_, "anonymize-network");
  network_span.AddArg("files", static_cast<std::int64_t>(files.size()));
  network_span.AddArg("phase", "anonymize");
  // Rule I7: preload the whole corpus's addresses in sorted order so the
  // subnet-address-preservation property holds network-wide.
  if (enabled_.subnet_preload &&
      !state_->preloaded.load(std::memory_order_acquire)) {
    obs::ScopedTimer preload_span(&tracer_, "preload.I7");
    preload_span.AddArg("phase", "preload");
    std::vector<net::Ipv4Address> addresses;
    for (const config::ConfigFile& file : files) {
      CollectFileAddresses(file, addresses);
    }
    preload_span.AddArg("addresses",
                        static_cast<std::int64_t>(addresses.size()));
    report_.CountRule(rules::kSubnetPreload, addresses.size());
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

config::ConfigFile Anonymizer::AnonymizeFile(const config::ConfigFile& file) {
  // Standalone streaming use (no corpus-wide pass ran): preload this
  // file's own addresses so rule I7's subnet-address guarantee holds at
  // least file-locally. Within AnonymizeNetwork or the pipeline the
  // corpus preload already ran and this is skipped.
  if (enabled_.subnet_preload &&
      !state_->preloaded.load(std::memory_order_acquire)) {
    std::vector<net::Ipv4Address> addresses;
    CollectFileAddresses(file, addresses);
    report_.CountRule(rules::kSubnetPreload, addresses.size());
    state_->ip.Preload(std::move(addresses));
  }

  const std::vector<config::LineRegion> banners = FindBannerRegions(file);
  std::vector<bool> in_banner(file.lines().size(), false);
  std::vector<bool> banner_start(file.lines().size(), false);
  if (options_.strip_comments && enabled_.strip_banners) {
    for (const config::LineRegion& region : banners) {
      for (std::size_t i = region.begin; i < region.end; ++i) {
        in_banner[i] = true;
      }
      banner_start[region.begin] = true;
    }
  }

  std::vector<std::string> out_lines;
  out_lines.reserve(file.lines().size());

  const bool observing =
      tracer_.enabled() || provenance_ != nullptr || metrics_ != nullptr;
  const std::int64_t file_start_us = tracer_.enabled() ? tracer_.NowUs() : 0;
  const auto file_start = std::chrono::steady_clock::now();
  // Per-rule processing time for this file (traced runs only): the cost
  // of each line is attributed to the rules that fired on it.
  std::map<std::string, std::uint64_t> rule_ns;

  for (std::size_t index = 0; index < file.lines().size(); ++index) {
    if (observing) {
      ObserveLine(file, index, in_banner, banner_start, out_lines, rule_ns);
    } else {
      AnonymizeLine(file, index, in_banner, banner_start, out_lines);
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
      // Per-rule spans, laid end-to-end inside the file span so viewers
      // nest them under it (timestamp containment). Positions within the
      // file are synthetic; durations are the measured aggregates.
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

  // File names are derived from hostnames; anonymize consistently.
  std::string out_name = file.name();
  if (!out_name.empty() && !pass_list_->Contains(out_name)) {
    out_name = state_->hasher.Hash(out_name);
  }
  return config::ConfigFile(out_name, std::move(out_lines));
}

void Anonymizer::AnonymizeLine(const config::ConfigFile& file,
                               std::size_t index,
                               const std::vector<bool>& in_banner,
                               const std::vector<bool>& banner_start,
                               std::vector<std::string>& out_lines) {
  const std::string_view raw = file.lines()[index];
  ++report_.total_lines;
  LineCtx& ctx = line_ctx_;
  ctx.arena = &arena_;
  if (tokenize_hist_ != nullptr) {
    const auto t0 = std::chrono::steady_clock::now();
    config::TokenizeLineInto(raw, ctx.tokens);
    tokenize_hist_->Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count()));
  } else {
    config::TokenizeLineInto(raw, ctx.tokens);
  }
  report_.total_words += ctx.tokens.words.size();

  if (in_banner[index]) {
    // Rule C3: the whole banner block is a comment; drop it, leaving a
    // bare '!' where it started so the block boundary stays visible.
    report_.comment_words_removed += ctx.tokens.words.size();
    report_.CountRule(rules::kStripBanners);
    if (banner_start[index]) out_lines.push_back("!");
    return;
  }

  if (!ApplyCommentRules(file, index, raw, in_banner)) {
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

void Anonymizer::ObserveLine(const config::ConfigFile& file, std::size_t index,
                             const std::vector<bool>& in_banner,
                             const std::vector<bool>& banner_start,
                             std::vector<std::string>& out_lines,
                             std::map<std::string, std::uint64_t>& rule_ns) {
  const std::uint64_t words_before = report_.total_words;
  const std::size_t out_count = out_lines.size();
  const std::map<std::string, std::uint64_t> fires_before = report_.rule_fires;
  const auto t0 = std::chrono::steady_clock::now();

  AnonymizeLine(file, index, in_banner, banner_start, out_lines);

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

  // Rules whose fire count advanced during this line.
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
          file.name(), static_cast<std::uint64_t>(index), *rule,
          tokens_before, tokens_after});
    }
  }
}

void Anonymizer::install_hooks(const obs::Hooks& hooks) {
  hooks_ = hooks;
  ApplyHooks();
}

void Anonymizer::ApplyHooks() {
  tracer_.set_sink(hooks_.trace);
  provenance_ = hooks_.provenance;
  metrics_ = hooks_.metrics;
  // Resolve every instrument eagerly (including the memo-hit counter, so
  // it appears in snapshots even before the first hit) and touch only
  // atomics on the hot paths.
  line_hist_ = metrics_ != nullptr ? &metrics_->HistogramNamed("core.line_ns")
                                   : nullptr;
  file_hist_ = metrics_ != nullptr ? &metrics_->HistogramNamed("core.file_ns")
                                   : nullptr;
  tokenize_hist_ = metrics_ != nullptr
                       ? &metrics_->HistogramNamed("core.tokenize_ns")
                       : nullptr;
  rewrite_hist_ = metrics_ != nullptr
                      ? &metrics_->HistogramNamed("asn.rewrite_ns")
                      : nullptr;
  dfa_states_total_ =
      metrics_ != nullptr ? &metrics_->CounterNamed("asn.rewrite_dfa_states")
                          : nullptr;
  rewrite_memo_hits_ =
      metrics_ != nullptr ? &metrics_->CounterNamed("asn.rewrite_memo_hits")
                          : nullptr;
}

void Anonymizer::RecordRewrite(const asn::RewriteResult& result) {
  if (result.memo_hit) {
    // The rewrite was served from the LRU memo: no NFA/DFA work happened,
    // so neither the latency histogram nor the DFA-state total moves.
    if (rewrite_memo_hits_ != nullptr) rewrite_memo_hits_->Add(1);
    return;
  }
  if (rewrite_hist_ != nullptr) rewrite_hist_->Record(result.elapsed_ns);
  if (dfa_states_total_ != nullptr) {
    dfa_states_total_->Add(result.dfa_states);
  }
}

void Anonymizer::SyncMetrics() {
  if (metrics_ == nullptr) return;
  SyncReportDeltas(report_, synced_report_, *metrics_, "");
  const auto sync = [&](const char* name, std::uint64_t current,
                        std::uint64_t& base) {
    if (current > base) {
      metrics_->CounterNamed(name).Add(current - base);
      base = current;
    }
  };
  // The arena is engine-local (one per worker), so its counters sync
  // here even under a shared NetworkState.
  sync("arena.bytes", arena_.bytes_allocated(), synced_arena_bytes_);
  sync("arena.resets", arena_.resets(), synced_arena_resets_);
  if (shared_state_) {
    // The trie/hasher belong to the pipeline's shared NetworkState;
    // per-worker delta syncs would double count, so the pipeline syncs
    // those centrally at join.
    return;
  }
  const ipanon::IpAnonymizer::Stats ip_stats = state_->ip.stats();
  sync("ipanon.cache_hits", ip_stats.cache_hits, synced_ip_.cache_hits);
  sync("ipanon.cache_misses", ip_stats.cache_misses, synced_ip_.cache_misses);
  sync("ipanon.collision_walks", ip_stats.collision_walks,
       synced_ip_.collision_walks);
  sync("ipanon.preloaded_addresses", ip_stats.preloaded, synced_ip_.preloaded);
  metrics_->GaugeNamed("ipanon.trie_nodes")
      .Set(static_cast<std::int64_t>(state_->ip.NodeCount()));
}

bool Anonymizer::ApplyCommentRules(const config::ConfigFile& file,
                                   std::size_t index, std::string_view line,
                                   const std::vector<bool>& in_banner) {
  (void)file;
  (void)index;
  (void)in_banner;
  if (!options_.strip_comments || !enabled_.strip_bang_comments) {
    return true;
  }
  // Rule C1: '!' full-line comments. A bare '!' is a section separator and
  // stays; anything after the '!' is free text and goes.
  const config::SplitLine split = config::SplitConfigLine(line);
  if (!split.words.empty() && split.words[0].front() == '!') {
    if (split.words.size() > 1 || split.words[0].size() > 1) {
      report_.CountRule(rules::kStripBangComments);
      return false;  // caller replaces with bare "!"
    }
  }
  return true;
}

void Anonymizer::ApplyFreeTextRules(LineCtx& ctx) {
  if (!options_.strip_comments || !enabled_.strip_free_text) return;
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
    report_.CountRule(rules::kStripFreeText);
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
  if (asn::IsPublicAsn(asn) && enabled_.asn_audit) {
    // Rule A12: remember every public ASN seen so the leak detector can
    // grep the anonymized output for survivors (Section 6.1).
    leak_record_.public_asns.insert(std::to_string(asn));
    report_.CountRule(rules::kAsnAudit);
  }
}

void Anonymizer::ApplyAsnLineRules(LineCtx& ctx) {
  auto& words = ctx.tokens.words;
  if (words.empty()) return;
  const std::vector<std::string_view>& lower = ctx.lower;
  auto& handled = ctx.handled;
  const auto mark = [&](std::size_t i) { handled[i] = true; };

  // Rule A1: `router bgp <asn>`.
  if (enabled_.router_bgp && words.size() >= 3 && lower[0] == "router" &&
      lower[1] == "bgp" && util::IsAllDigits(words[2])) {
    ctx.SetWord(2, MapAsnWord(words[2]));
    mark(2);
    report_.CountRule(rules::kRouterBgp);
    return;
  }

  // Rules A2/A3: `neighbor <peer> remote-as|local-as <asn>`.
  if (words.size() >= 4 && lower[0] == "neighbor") {
    if (enabled_.neighbor_remote_as && lower[2] == "remote-as" &&
        util::IsAllDigits(words[3])) {
      ctx.SetWord(3, MapAsnWord(words[3]));
      mark(3);
      report_.CountRule(rules::kNeighborRemoteAs);
    } else if (enabled_.neighbor_local_as && lower[2] == "local-as" &&
               util::IsAllDigits(words[3])) {
      ctx.SetWord(3, MapAsnWord(words[3]));
      mark(3);
      report_.CountRule(rules::kNeighborLocalAs);
    }
    return;
  }

  // Rules A4/A5: confederation identifier / peer list.
  if (words.size() >= 4 && lower[0] == "bgp" && lower[1] == "confederation") {
    if (enabled_.confed_identifier && lower[2] == "identifier" &&
        util::IsAllDigits(words[3])) {
      ctx.SetWord(3, MapAsnWord(words[3]));
      mark(3);
      report_.CountRule(rules::kConfedIdentifier);
    } else if (enabled_.confed_peers && lower[2] == "peers") {
      for (std::size_t i = 3; i < words.size(); ++i) {
        if (util::IsAllDigits(words[i])) {
          ctx.SetWord(i, MapAsnWord(words[i]));
          mark(i);
        }
      }
      report_.CountRule(rules::kConfedPeers);
    }
    return;
  }

  // Rule A6: `ip as-path access-list <n> permit|deny <regex...>`. The
  // regex is the remainder of the line (it can contain spaces) and is
  // rewritten by language computation.
  if (enabled_.aspath_regex && words.size() >= 5 && lower[0] == "ip" &&
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
      for (std::uint32_t a : AcceptedPublicAsns(pattern)) RecordAsn(a);
      if (result.changed) {
        // The tail collapses to one rewritten word at index 5; the
        // leading keywords stay for the later passes (they are all
        // pass-listed or numeric).
        ctx.ReplaceTailWith(5, result.pattern);
        ++report_.aspath_regexps_rewritten;
        report_.CountRule(rules::kAsPathRegex);
      } else {
        // Mark regex words handled so generic hashing leaves them alone.
        for (std::size_t i = 5; i < handled.size(); ++i) handled[i] = true;
      }
    }
    return;
  }

  // Rule A7: `set as-path prepend <asn> <asn> ...`.
  if (enabled_.aspath_prepend && words.size() >= 4 && lower[0] == "set" &&
      lower[1] == "as-path" && lower[2] == "prepend") {
    for (std::size_t i = 3; i < words.size(); ++i) {
      if (util::IsAllDigits(words[i])) {
        ctx.SetWord(i, MapAsnWord(words[i]));
        mark(i);
      }
    }
    report_.CountRule(rules::kAsPathPrepend);
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
        if (literal && enabled_.community_list_literal) {
          RecordAsn(literal->asn);
          ctx.SetWord(i, state_->community.Map(*literal).ToString());
          mark(i);
          ++report_.communities_mapped;
          any_literal = true;
          continue;
        }
        if (!literal && enabled_.community_list_regex) {
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
            report_.CountRule(rules::kCommunityListRegex);
          } else {
            for (std::size_t j = i; j < handled.size(); ++j) {
              handled[j] = true;
            }
          }
          break;
        }
      }
      if (any_literal) report_.CountRule(rules::kCommunityListLiteral);
    }
    return;
  }

  // Rule A10: `set community <c> <c> ... [additive]`.
  if (enabled_.set_community && words.size() >= 3 && lower[0] == "set" &&
      lower[1] == "community") {
    bool fired = false;
    for (std::size_t i = 2; i < words.size(); ++i) {
      if (IsCommunityKeyword(lower[i])) continue;
      if (const auto literal = asn::ParseCommunity(words[i])) {
        RecordAsn(literal->asn);
        ctx.SetWord(i, state_->community.Map(*literal).ToString());
        mark(i);
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
          mark(i);
          ++report_.communities_mapped;
          fired = true;
        }
      }
    }
    if (fired) report_.CountRule(rules::kSetCommunity);
    return;
  }

  // Rule A11: `set extcommunity rt|soo <asn:val> ...`.
  if (enabled_.set_extcommunity && words.size() >= 4 && lower[0] == "set" &&
      lower[1] == "extcommunity") {
    bool fired = false;
    for (std::size_t i = 3; i < words.size(); ++i) {
      if (const auto literal = asn::ParseCommunity(words[i])) {
        RecordAsn(literal->asn);
        ctx.SetWord(i, state_->community.Map(*literal).ToString());
        mark(i);
        ++report_.communities_mapped;
        fired = true;
      }
    }
    if (fired) report_.CountRule(rules::kSetExtcommunity);
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

std::vector<std::uint32_t> Anonymizer::AcceptedPublicAsns(
    std::string_view pattern) const {
  std::vector<std::uint32_t> result;
  try {
    const auto language = asn::EnumerateLanguage(pattern);
    for (std::uint32_t a : language->accepted) {
      if (asn::IsPublicAsn(a)) result.push_back(a);
    }
  } catch (const regex::ParseError&) {
    // Unparseable pattern: nothing to record; the rewrite left it alone
    // and the leak detector will flag any numeric survivors.
  }
  return result;
}

void Anonymizer::ApplyMiscLineRules(LineCtx& ctx) {
  auto& words = ctx.tokens.words;
  if (words.empty()) return;
  const std::vector<std::string_view>& lower = ctx.lower;
  auto& handled = ctx.handled;

  const auto force_hash = [&](std::size_t i, const char* rule) {
    if (i >= words.size() || handled[i]) return;
    if (!pass_list_->Contains(words[i])) {
      leak_record_.hashed_words.insert(std::string(words[i]));
    }
    HashWord(ctx, i);
    handled[i] = true;
    ++report_.words_hashed;
    report_.CountRule(rule);
  };

  // Rule M1: dial strings are phone numbers.
  if (enabled_.dialer_strings && words.size() >= 3 && lower[0] == "dialer" &&
      (lower[1] == "string" || lower[1] == "called" ||
       lower[1] == "caller")) {
    leak_record_.hashed_words.insert(std::string(words[2]));
    ctx.SetWord(2, PseudoDigits(options_.salt, words[2]));
    handled[2] = true;
    report_.CountRule(rules::kDialerStrings);
    return;
  }

  // Rule M2: SNMP strings (community secrets, contact/location prose).
  if (lower[0] == "snmp-server" && words.size() >= 2 &&
      enabled_.snmp_strings) {
    if (lower[1] == "community" && words.size() >= 3) {
      force_hash(2, rules::kSnmpStrings);
      return;
    }
    if ((lower[1] == "contact" || lower[1] == "location" ||
         lower[1] == "chassis-id") &&
        words.size() >= 3 && options_.strip_comments) {
      report_.comment_words_removed += words.size() - 2;
      ctx.TruncateWords(2);
      report_.CountRule(rules::kSnmpStrings);
      return;
    }
    if (lower[1] == "host" && words.size() >= 4) {
      // `snmp-server host <addr|name> <community>`: the trap community is
      // a secret; the host is handled by the IP pass or hashed below.
      force_hash(3, rules::kSnmpStrings);
      return;
    }
  }

  // Rule M3: passwords and keys.
  if (enabled_.secrets) {
    if (lower[0] == "enable" && words.size() >= 2 &&
        (lower[1] == "secret" || lower[1] == "password")) {
      force_hash(words.size() - 1, rules::kSecrets);
      return;
    }
    if (lower[0] == "username" && words.size() >= 2) {
      force_hash(1, rules::kSecrets);
      for (std::size_t i = 2; i + 1 < words.size(); ++i) {
        if (lower[i] == "password" || lower[i] == "secret") {
          force_hash(words.size() - 1, rules::kSecrets);
          break;
        }
      }
      return;
    }
    if (lower[0] == "neighbor" && words.size() >= 4 &&
        lower[2] == "password") {
      force_hash(words.size() - 1, rules::kSecrets);
      return;
    }
    if (lower[0] == "key-string" && words.size() >= 2) {
      force_hash(1, rules::kSecrets);
      return;
    }
    if ((lower[0] == "tacacs-server" || lower[0] == "radius-server") &&
        words.size() >= 3 && lower[1] == "key") {
      force_hash(2, rules::kSecrets);
      return;
    }
    if (lower[0] == "crypto" && words.size() >= 4 && lower[1] == "isakmp" &&
        lower[2] == "key") {
      // `crypto isakmp key SECRET address A.B.C.D`: the pre-shared key is
      // a secret; the peer address is handled by the IP pass.
      force_hash(3, rules::kSecrets);
      return;
    }
    for (std::size_t i = 0; i + 1 < words.size(); ++i) {
      if (lower[i] == "md5" || lower[i] == "authentication-key" ||
          lower[i] == "key-chain") {
        force_hash(i + 1, rules::kSecrets);
        return;
      }
    }
  }

  // Rule M4: name arguments — commands whose argument is a hostname or
  // domain name that must be anonymized even if its words are innocuous.
  if (enabled_.name_arguments) {
    if (lower[0] == "hostname" && words.size() >= 2) {
      force_hash(1, rules::kNameArguments);
      return;
    }
    if (lower[0] == "ip" && words.size() >= 3 &&
        (lower[1] == "domain-name" ||
         (lower[1] == "domain" && words.size() >= 4 &&
          lower[2] == "name"))) {
      force_hash(words.size() - 1, rules::kNameArguments);
      return;
    }
    if (lower[0] == "ip" && lower.size() >= 3 && lower[1] == "host") {
      force_hash(2, rules::kNameArguments);
      return;
    }
    if (lower[0] == "ntp" && words.size() >= 3 && lower[1] == "server" &&
        !net::Ipv4Address::Parse(words[2])) {
      force_hash(2, rules::kNameArguments);
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
  // which syntactic positions were handled).
  const char* context_rule = nullptr;
  if (lower[0] == "ip" && lower.size() >= 2 &&
      (lower[1] == "address" || lower[1] == "route")) {
    context_rule = rules::kAddressMaskPairs;
  } else if (lower[0] == "access-list" ||
             (lower[0] == "network" && words.size() >= 3)) {
    context_rule = rules::kAddressWildcardPairs;
  } else if (lower[0] == "ntp" || lower[0] == "logging" ||
             lower[0] == "tacacs-server" || lower[0] == "radius-server" ||
             lower[0] == "snmp-server") {
    context_rule = rules::kPlainAddressArgs;
  }

  // Fused traversal: for each token, the IP rules run first; whatever
  // they leave unhandled falls through to generic hashing — the same
  // per-token outcome as the former two sequential whole-line loops,
  // since neither rule group reads any *other* token's rewrite.
  bool fired_context = false;
  for (std::size_t i = 0; i < words.size(); ++i) {
    if (!handled[i]) {
      // --- IP rules (I1/I2/I3) ---
      // Rule I3: CIDR tokens ("a.b.c.d/len"). The literal address is
      // mapped (it may carry host bits, e.g. a JunOS-style interface
      // address) and the length is kept verbatim.
      bool ip_done = false;
      if (enabled_.map_prefixes) {
        const std::size_t slash = words[i].find('/');
        if (slash != std::string::npos) {
          const auto address =
              net::Ipv4Address::Parse(words[i].substr(0, slash));
          std::uint64_t length = 0;
          if (address &&
              util::ParseUint(words[i].substr(slash + 1), 32, length)) {
            if (net::IsSpecial(*address)) {
              handled[i] = true;
              ++report_.addresses_special;
              report_.CountRule(rules::kSpecialPassthrough);
              ip_done = true;
            } else {
              leak_record_.addresses.insert(address->ToString());
              ctx.SetWord(i, state_->ip.Map(*address).ToString() + "/" +
                                 std::to_string(length));
              handled[i] = true;
              ++report_.addresses_mapped;
              report_.CountRule(rules::kMapPrefixes);
              fired_context = true;
              ip_done = true;
            }
          }
        }
      }
      if (!ip_done) {
        if (const auto address = net::Ipv4Address::Parse(words[i])) {
          // Rule I2: special addresses (netmasks, wildcard masks,
          // multicast, loopback, ...) pass through unchanged.
          if (net::IsSpecial(*address)) {
            if (enabled_.special_passthrough) {
              handled[i] = true;
              ++report_.addresses_special;
              report_.CountRule(rules::kSpecialPassthrough);
            }
          } else if (enabled_.map_addresses) {
            // Rule I1: everything else is mapped through the
            // prefix-preserving trie.
            leak_record_.addresses.insert(address->ToString());
            ctx.SetWord(i, state_->ip.Map(*address).ToString());
            handled[i] = true;
            ++report_.addresses_mapped;
            report_.CountRule(rules::kMapAddresses);
            fired_context = true;
          }
        }
      }
    }

    // --- Generic hashing (T1/T2) on whatever is still unhandled ---
    if (handled[i]) continue;
    const std::string_view word = words[i];
    if (word.empty() || config::IsNonAlphabetic(word)) continue;

    // Rule T1: segment the word into alphabetic cores and non-alphabetic
    // remainders; rule T2: the word passes only if every alphabetic
    // segment is on the pass-list.
    bool all_passed = true;
    for (const config::Segment& segment : config::SegmentWord(word)) {
      if (segment.alpha && !pass_list_->Contains(segment.text)) {
        all_passed = false;
        break;
      }
    }
    report_.CountRule(rules::kSegmentWords);
    if (all_passed) {
      ++report_.words_passed;
      continue;
    }
    leak_record_.hashed_words.insert(std::string(word));
    HashWord(ctx, i);
    ++report_.words_hashed;
    report_.CountRule(rules::kPasslistHash);
  }
  if (fired_context && context_rule != nullptr) {
    report_.CountRule(context_rule);
  }
}

}  // namespace confanon::core
