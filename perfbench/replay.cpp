#include "replay.h"

#include <optional>
#include <stdexcept>

#include "config/tokenizer.h"
#include "core/anonymizer.h"
#include "core/hash_batcher.h"
#include "junos/anonymizer.h"
#include "junos/tokenizer.h"
#include "passlist/passlist.h"
#include "pipeline/pipeline.h"
#include "verify/verify.h"

namespace perfbench {

using namespace confanon;

void EmitLayerMetrics(const LayerValues& values, Result& result) {
  for (const auto& [name, value] : values) {
    bool known = false;
    for (const LayerMetric& metric : kLayerMetrics) {
      known = known || name == metric.name;
    }
    if (!known) throw std::logic_error("unlisted layer metric " + name);
  }
  for (const LayerMetric& metric : kLayerMetrics) {
    const auto it = values.find(metric.name);
    result.Add(metric.name, it == values.end() ? 0.0 : it->second,
               metric.unit);
  }
}

std::shared_ptr<core::ServiceContext> Replayer::MakeContext() {
  core::ServiceOptions options;
  options.threads = 1;
  options.verify_policy = false;
  std::shared_ptr<core::ServiceContext> context;
  {
    const SpanLog::Scope span(log_, "pipeline.context");
    context = pipeline::MakeServiceContext(std::move(options));
  }
  {
    const SpanLog::Scope span(log_, "verify.policy");
    const audit::AuditResult verdict =
        verify::VerifyEngineOptions(context->options().base);
    context->SetPolicyVerdict(verify::VerdictOf(verdict));
    const auto it = verdict.stats.find("verify.dfa_states");
    if (it != verdict.stats.end()) {
      dfa_states_ += static_cast<double>(it->second);
    }
  }
  ++contexts_;
  return context;
}

std::shared_ptr<core::Session> Replayer::CreateSession(
    const core::ServiceContext& context, std::string_view salt) {
  std::shared_ptr<core::Session> session;
  {
    const SpanLog::Scope span(log_, "pipeline.context");
    session = context.CreateSession(salt);
  }
  sessions_[session.get()].first = session;
  return session;
}

std::vector<config::ConfigFile> Replayer::AnonymizeCorpus(
    const core::ServiceContext& context, core::Session& session,
    const std::vector<config::ConfigFile>& files, core::LeakRecord* leaks) {
  using core::ConfigDialect;
  std::vector<ConfigDialect> dialects(files.size());
  {
    const SpanLog::Scope span(log_, "pipeline.route");
    for (std::size_t i = 0; i < files.size(); ++i) {
      dialects[i] = context.options().dialect == ConfigDialect::kAuto
                        ? core::DetectDialect(files[i])
                        : context.options().dialect;
    }
  }
  core::NetworkState& state = *session.state();
  std::vector<net::Ipv4Address> addresses;
  {
    const SpanLog::Scope span(log_, "ipanon.collect");
    for (std::size_t i = 0; i < files.size(); ++i) {
      if (dialects[i] == ConfigDialect::kJunos) {
        junos::JunosAnonymizer::CollectFileAddresses(files[i], addresses);
      } else {
        core::Anonymizer::CollectFileAddresses(files[i], addresses);
      }
    }
  }
  addresses_ += addresses.size();
  {
    const SpanLog::Scope span(log_, "ipanon.preload");
    state.ip.Preload(std::move(addresses));
    state.preloaded.store(true, std::memory_order_release);
  }
  // The pipeline builds both pass lists per call and drops them after
  // the prewarm; building and dropping both count as the passlist row.
  std::optional<passlist::PassList> ios_list;
  std::optional<passlist::PassList> junos_list;
  {
    const SpanLog::Scope span(log_, "passlist.build");
    ios_list.emplace(passlist::PassList::Builtin());
    junos_list.emplace(junos::JunosPassList());
  }
  passlist_builds_ += 2;
  {
    const SpanLog::Scope span(log_, "core.prewarm");
    std::vector<std::string_view> candidates;
    for (std::size_t i = 0; i < files.size(); ++i) {
      if (dialects[i] == ConfigDialect::kJunos) {
        junos::JunosAnonymizer::CollectHashCandidates(files[i], *junos_list,
                                                      candidates);
      } else {
        core::Anonymizer::CollectHashCandidates(files[i], *ios_list,
                                                candidates);
      }
    }
    prewarmed_ += core::PrewarmHashMemo(state.hasher, candidates, nullptr);
  }
  {
    const SpanLog::Scope span(log_, "passlist.build");
    ios_list.reset();
    junos_list.reset();
  }
  std::unique_ptr<core::AnonymizerEngine> ios;
  std::unique_ptr<core::AnonymizerEngine> junos;
  {
    const SpanLog::Scope span(log_, "core.engine_make");
    ios = context.MakeEngine(ConfigDialect::kIos, session);
    junos = context.MakeEngine(ConfigDialect::kJunos, session);
  }
  engines_ += 2;
  std::vector<config::ConfigFile> out(files.size());
  for (std::size_t i = 0; i < files.size(); ++i) {
    const bool is_junos = dialects[i] == ConfigDialect::kJunos;
    const SpanLog::Scope span(log_, is_junos ? "junos.anonymize"
                                             : "core.anonymize");
    out[i] = (is_junos ? junos : ios)->AnonymizeFile(files[i]);
    (is_junos ? junos_lines_ : ios_lines_) += files[i].LineCount();
  }
  core::LeakRecord merged;
  {
    const SpanLog::Scope span(log_, "pipeline.join");
    merged.Merge(ios->leak_record());
    merged.Merge(junos->leak_record());
  }
  auto& hashed = sessions_[&session].second;
  hashed.insert(merged.hashed_words.begin(), merged.hashed_words.end());
  for (const auto* engine : {ios.get(), junos.get()}) {
    asn_rewrites_ += engine->report().aspath_regexps_rewritten +
                     engine->report().community_regexps_rewritten;
  }
  {
    const SpanLog::Scope span(log_, "core.engine_make");
    ios.reset();
    junos.reset();
  }
  if (leaks != nullptr) *leaks = std::move(merged);
  return out;
}

void Replayer::Collect(double untraced_s, LayerValues& values) {
  values["pipeline.context_s"] = log_.TotalSeconds("pipeline.context");
  values["pipeline.contexts"] = static_cast<double>(contexts_);
  values["verify.policy_s"] = log_.TotalSeconds("verify.policy");
  values["verify.dfa_states"] = dfa_states_;
  values["pipeline.route_s"] = log_.TotalSeconds("pipeline.route");
  values["ipanon.collect_s"] = log_.TotalSeconds("ipanon.collect");
  values["ipanon.preload_s"] = log_.TotalSeconds("ipanon.preload");
  values["ipanon.addresses"] = static_cast<double>(addresses_);
  values["passlist.build_s"] = log_.TotalSeconds("passlist.build");
  values["passlist.builds"] = static_cast<double>(passlist_builds_);
  values["core.prewarm_s"] = log_.TotalSeconds("core.prewarm");
  values["core.engine_make_s"] = log_.TotalSeconds("core.engine_make");
  values["core.engines_made"] = static_cast<double>(engines_);
  values["pipeline.join_s"] = log_.TotalSeconds("pipeline.join");
  values["asn.rewrites"] = static_cast<double>(asn_rewrites_);

  std::uint64_t trie_nodes = 0, hits = 0, misses = 0, hashed = 0;
  for (const auto& [key, entry] : sessions_) {
    const auto stats = entry.first->state()->ip.stats();
    trie_nodes += entry.first->state()->ip.NodeCount();
    hits += stats.cache_hits;
    misses += stats.cache_misses;
    hashed += entry.second.size();
  }
  values["ipanon.trie_nodes"] = static_cast<double>(trie_nodes);
  values["ipanon.cache_hit_ratio"] =
      hits + misses == 0 ? 0.0
                         : static_cast<double>(hits) /
                               static_cast<double>(hits + misses);
  // Words prewarm ran through SHA-1, and the distinct words the rules
  // then actually hashed (words the prewarm did not cover count too).
  values["core.hash_candidates"] = static_cast<double>(prewarmed_);
  values["core.words_hashed"] = static_cast<double>(hashed);
  values["core.prewarm_useful_ratio"] =
      prewarmed_ == 0 ? 0.0
                      : static_cast<double>(hashed) /
                            static_cast<double>(prewarmed_);

  const auto engine_rows = [&](const char* span, const char* prefix,
                               std::uint64_t lines) {
    const std::string p(prefix);
    const double total = log_.TotalSeconds(span);
    const std::vector<double> files_us = log_.DurationsUs(span);
    values[p + ".anonymize_s"] = total;
    values[p + ".ns_per_line"] =
        lines == 0 ? 0.0 : total * 1e9 / static_cast<double>(lines);
    values[p + ".file_us_p50"] = Quantile(files_us, 0.5);
    values[p + ".file_us_p99"] = Quantile(files_us, 0.99);
  };
  engine_rows("core.anonymize", "core", ios_lines_);
  engine_rows("junos.anonymize", "junos", junos_lines_);

  double wall = log_.TotalSeconds(kRootSpan);
  double rows = 0;
  for (const char* row : kRowSpans) rows += log_.TotalSeconds(row);
  values["trace.other_s"] = wall - rows;
  values["trace.coverage_frac"] = wall > 0 ? rows / wall : 0.0;
  values["trace.overhead_frac"] =
      untraced_s > 0 ? (wall - untraced_s) / untraced_s : 0.0;
}

void TokenizePass(const std::vector<config::ConfigFile>& files,
                  LayerValues& values) {
  std::uint64_t ios_lines = 0, junos_lines = 0, sink = 0;
  double ios_s = 0, junos_s = 0;
  config::LineTokens ios_tokens;
  junos::JunosLine junos_tokens;
  for (const config::ConfigFile& file : files) {
    const bool junos = core::DetectDialect(file) == core::ConfigDialect::kJunos;
    const auto start = Clock::now();
    for (const std::string_view line : file.lines()) {
      if (junos) {
        junos::TokenizeJunosLineInto(line, junos_tokens);
        sink += junos_tokens.tokens.size();
      } else {
        config::TokenizeLineInto(line, ios_tokens);
        sink += ios_tokens.words.size();
      }
    }
    const double elapsed = SecondsBetween(start, Clock::now());
    (junos ? junos_s : ios_s) += elapsed;
    (junos ? junos_lines : ios_lines) += file.LineCount();
  }
  if (sink == 0) std::fprintf(stderr, "perfbench: tokenizer saw no tokens\n");
  values["config.tokenize_ns_per_line"] =
      ios_lines == 0 ? 0.0 : ios_s * 1e9 / static_cast<double>(ios_lines);
  values["junos.tokenize_ns_per_line"] =
      junos_lines == 0 ? 0.0
                       : junos_s * 1e9 / static_cast<double>(junos_lines);
}

}  // namespace perfbench
