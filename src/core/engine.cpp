#include "core/engine.h"

#include <algorithm>
#include <charconv>
#include <iterator>
#include <utility>

#include "util/strings.h"

namespace confanon::core {

void SyncTrieDeltas(const ipanon::IpAnonymizer& ip,
                    ipanon::IpAnonymizer::Stats& synced,
                    obs::MetricsRegistry& registry,
                    const std::string& prefix) {
  const ipanon::IpAnonymizer::Stats stats = ip.stats();
  obs::SyncCounter(registry, prefix, "ipanon.cache_hits", stats.cache_hits,
                   synced.cache_hits);
  obs::SyncCounter(registry, prefix, "ipanon.cache_misses",
                   stats.cache_misses, synced.cache_misses);
  obs::SyncCounter(registry, prefix, "ipanon.collision_walks",
                   stats.collision_walks, synced.collision_walks);
  obs::SyncCounter(registry, prefix, "ipanon.preloaded_addresses",
                   stats.preloaded, synced.preloaded);
  registry.GaugeNamed(prefix + "ipanon.trie_nodes")
      .Set(static_cast<std::int64_t>(ip.NodeCount()));
}

AnonymizerEngine::AnonymizerEngine(
    const DialectTraits& traits, std::string_view salt,
    std::shared_ptr<const passlist::PassList> baseline,
    const passlist::PassList& extras, std::shared_ptr<NetworkState> state,
    RuleSet disabled)
    : pass_list_(passlist::WithExtras(std::move(baseline), extras)),
      state_(state != nullptr ? state : std::make_shared<NetworkState>(salt)),
      traits_(traits),
      metric_prefix_(traits.metric_prefix),
      disabled_(disabled),
      preload_enabled_(!traits.preload_rule ||
                       !disabled[RuleIndex(*traits.preload_rule)]),
      shared_state_(state != nullptr) {}

std::vector<config::ConfigFile> AnonymizerEngine::AnonymizeNetwork(
    const std::vector<config::ConfigFile>& files) {
  obs::ScopedTimer network_span(&tracer_, traits_.network_span);
  network_span.AddArg("files", static_cast<std::int64_t>(files.size()));
  network_span.AddArg("phase", "anonymize");
  // Rule I7: preload the whole corpus's addresses in sorted order so the
  // subnet-address-preservation property holds network-wide.
  if (preload_enabled_ && !state_->preloaded.load(std::memory_order_acquire)) {
    obs::ScopedTimer preload_span(&tracer_, traits_.preload_span);
    preload_span.AddArg("phase", "preload");
    std::vector<net::Ipv4Address> addresses;
    for (const config::ConfigFile& file : files) {
      CollectPreload(file, addresses);
    }
    preload_span.AddArg("addresses",
                        static_cast<std::int64_t>(addresses.size()));
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

config::ConfigFile AnonymizerEngine::AnonymizeFile(
    const config::ConfigFile& file) {
  // Standalone streaming use (no corpus-wide pass ran): preload this
  // file's own addresses so rule I7's subnet-address guarantee holds at
  // least file-locally. Within AnonymizeNetwork or the pipeline the
  // corpus preload already ran and this is skipped.
  if (preload_enabled_ && !state_->preloaded.load(std::memory_order_acquire)) {
    std::vector<net::Ipv4Address> addresses;
    CollectPreload(file, addresses);
    state_->ip.Preload(std::move(addresses));
  }
  BeginFile(file);

  std::vector<std::string> out_lines;
  out_lines.reserve(file.lines().size());

  const bool observing =
      tracer_.enabled() || provenance_ != nullptr || metrics_ != nullptr;
  const std::int64_t file_start_us = tracer_.enabled() ? tracer_.NowUs() : 0;
  const auto file_start = std::chrono::steady_clock::now();
  // Per-rule processing time for this file (traced runs only): the cost
  // of each line is attributed to the rules that fired on it.
  RuleNs rule_ns{};
  RuleSet file_fired;

  for (std::size_t index = 0; index < file.lines().size(); ++index) {
    if (observing) {
      ObserveLine(file, index, out_lines, rule_ns, file_fired);
    } else {
      AnonymizeLine(file, index, out_lines);
    }
  }
  // Every line has been rendered into an owned output string; no
  // arena-backed view survives past this point.
  arena_.Reset();
  // One relaxed add per file keeps the trie's cache_hits counting every
  // mapped lookup, including those the engine's memo served.
  if (memo_hits_ != 0) state_->ip.CountHits(std::exchange(memo_hits_, 0));

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
      for (std::size_t i = 0; i < kRuleCount; ++i) {
        if (!file_fired[i]) continue;
        std::int64_t duration = std::max<std::int64_t>(
            static_cast<std::int64_t>(rule_ns[i]) / 1000, 1);
        duration = std::min(duration,
                            std::max<std::int64_t>(file_end_us - cursor, 1));
        tracer_.Complete("rule:" + std::string(kRuleTable[i].name), cursor,
                         duration, "anonymize");
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

void AnonymizerEngine::CollectPreload(const config::ConfigFile& file,
                                      std::vector<net::Ipv4Address>& out) {
  if (!preload_enabled_) return;
  const std::size_t before = out.size();
  traits_.collect_addresses(file, out);
  if (traits_.preload_rule) {
    report_.Fire(*traits_.preload_rule, out.size() - before);
  }
}

void AnonymizerEngine::ObserveLine(const config::ConfigFile& file,
                                   std::size_t index,
                                   std::vector<std::string>& out_lines,
                                   RuleNs& rule_ns, RuleSet& file_fired) {
  const std::uint64_t words_before = report_.total_words;
  const std::size_t out_count = out_lines.size();
  line_fired_.reset();
  const auto t0 = std::chrono::steady_clock::now();

  AnonymizeLine(file, index, out_lines);

  const std::uint64_t elapsed_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  if (line_hist_ != nullptr) line_hist_->Record(elapsed_ns);
  if (line_fired_.none()) return;

  if (tracer_.enabled()) {
    const std::uint64_t share = elapsed_ns / line_fired_.count();
    for (std::size_t i = 0; i < kRuleCount; ++i) {
      if (line_fired_[i]) rule_ns[i] += share;
    }
    file_fired |= line_fired_;
  }
  if (provenance_ != nullptr) {
    const auto tokens_before =
        static_cast<std::uint32_t>(report_.total_words - words_before);
    const auto tokens_after = static_cast<std::uint32_t>(
        out_lines.size() > out_count
            ? util::SplitWords(out_lines.back()).size()
            : 0);
    for (std::size_t i = 0; i < kRuleCount; ++i) {
      if (!line_fired_[i]) continue;
      provenance_->Record(obs::ProvenanceEntry{
          file.name(), static_cast<std::uint64_t>(index),
          std::string(kRuleTable[i].name), tokens_before, tokens_after});
    }
  }
}

void AnonymizerEngine::install_hooks(const obs::Hooks& hooks) {
  tracer_.set_sink(hooks.trace);
  provenance_ = hooks.provenance;
  metrics_ = hooks.metrics;
  // Resolve every instrument eagerly (including the memo-hit counter, so
  // it appears in snapshots even before the first hit) and touch only
  // atomics on the hot paths.
  const auto histogram = [&](const char* name) {
    return metrics_ != nullptr
               ? &metrics_->HistogramNamed(traits_.timing_prefix +
                                           std::string(name))
               : nullptr;
  };
  line_hist_ = histogram("line_ns");
  file_hist_ = histogram("file_ns");
  tokenize_hist_ = histogram("tokenize_ns");
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

void AnonymizerEngine::RecordRewrite(const asn::RewriteResult& result) {
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

net::Ipv4Address AnonymizerEngine::MapAddress(net::Ipv4Address original) {
  const auto cached = address_memo_.find(original.value());
  if (cached != address_memo_.end()) {
    ++memo_hits_;
    return net::Ipv4Address(cached->second);
  }
  leak_record_.addresses.insert(original.ToString());
  const net::Ipv4Address image = state_->ip.Map(original);
  address_memo_.emplace(original.value(), image.value());
  return image;
}

std::string_view AnonymizerEngine::StoreAddress(
    net::Ipv4Address address, std::optional<std::uint64_t> length) {
  char text[net::Ipv4Address::kMaxTextSize + 3];  // "/32" at most
  std::size_t size = address.FormatTo(text);
  if (length) {
    text[size++] = '/';
    size = static_cast<std::size_t>(
        std::to_chars(text + size, std::end(text), *length).ptr - text);
  }
  return arena_.Store(std::string_view(text, size));
}

void AnonymizerEngine::SyncMetrics() {
  if (metrics_ == nullptr) return;
  SyncReportDeltas(report_, synced_report_, *metrics_, metric_prefix_);
  // The arena is engine-local (one per worker), so its counters sync
  // here even under a shared NetworkState.
  obs::SyncCounter(*metrics_, metric_prefix_, "arena.bytes",
                   arena_.bytes_allocated(), synced_arena_bytes_);
  obs::SyncCounter(*metrics_, metric_prefix_, "arena.resets",
                   arena_.resets(), synced_arena_resets_);
  // A shared trie is synced once by its owner (the pipeline); per-engine
  // delta syncs would double count it.
  if (!shared_state_) {
    SyncTrieDeltas(state_->ip, synced_ip_, *metrics_, metric_prefix_);
  }
}

}  // namespace confanon::core
