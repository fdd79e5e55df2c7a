// Tests for the observability subsystem (src/obs/) and its integration
// with the anonymizers: JSON writer, metrics registry + histograms,
// trace sink framing, provenance log, and the metrics == report
// consistency guarantee.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "config/document.h"
#include "core/anonymizer.h"
#include "core/leak_detector.h"
#include "core/network_state.h"
#include "junos/anonymizer.h"
#include "obs/hooks.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"

namespace confanon {
namespace {

// --- JSON writer -------------------------------------------------------

TEST(JsonWriter, EscapesStrings) {
  EXPECT_EQ(obs::JsonQuote("plain"), "\"plain\"");
  EXPECT_EQ(obs::JsonQuote("a\"b"), "\"a\\\"b\"");
  EXPECT_EQ(obs::JsonQuote("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(obs::JsonQuote("a\nb\tc"), "\"a\\nb\\tc\"");
  EXPECT_EQ(obs::JsonQuote(std::string_view("\x01", 1)), "\"\\u0001\"");
}

TEST(JsonWriter, NestedStructures) {
  obs::JsonWriter out;
  out.BeginObject();
  out.Key("n").Value(std::uint64_t{42});
  out.Key("s").Value("hi");
  out.Key("f").Value(true);
  out.Key("list").BeginArray();
  out.Value(std::int64_t{-1});
  out.Null();
  out.EndArray();
  out.Key("inner").BeginObject();
  out.EndObject();
  out.EndObject();
  EXPECT_EQ(out.str(),
            "{\"n\":42,\"s\":\"hi\",\"f\":true,"
            "\"list\":[-1,null],\"inner\":{}}");
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
  obs::JsonWriter out;
  out.BeginArray();
  out.Value(1.5);
  out.Value(std::numeric_limits<double>::infinity());
  out.EndArray();
  EXPECT_EQ(out.str(), "[1.5,null]");
}

// --- Latency histogram -------------------------------------------------

TEST(LatencyHistogram, BucketLayout) {
  // Small values get exact buckets.
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(obs::LatencyHistogram::BucketIndex(v), static_cast<int>(v));
    EXPECT_EQ(obs::LatencyHistogram::BucketLowerBound(static_cast<int>(v)), v);
  }
  // BucketLowerBound is a left inverse of BucketIndex and strictly
  // increasing across the reachable range (the top bucket holds every
  // value whose MSB is bit 63, so indices above it are never produced).
  const int top = obs::LatencyHistogram::BucketIndex(~std::uint64_t{0});
  EXPECT_LT(top, obs::LatencyHistogram::kBucketCount);
  std::uint64_t prev = 0;
  for (int i = 1; i <= top; ++i) {
    const std::uint64_t bound = obs::LatencyHistogram::BucketLowerBound(i);
    EXPECT_GT(bound, prev) << "bucket " << i;
    EXPECT_EQ(obs::LatencyHistogram::BucketIndex(bound), i) << "bucket " << i;
    prev = bound;
  }
}

TEST(LatencyHistogram, PercentilesOnUniformDistribution) {
  obs::LatencyHistogram histogram;
  for (std::uint64_t v = 1; v <= 1000; ++v) histogram.Record(v);
  const obs::HistogramSnapshot snap = histogram.Snapshot();
  EXPECT_EQ(snap.count, 1000u);
  EXPECT_EQ(snap.sum, 500500u);
  EXPECT_EQ(snap.min, 1u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_DOUBLE_EQ(snap.Mean(), 500.5);
  // Log-bucket relative error is bounded by the sub-bucket width (12.5%).
  EXPECT_NEAR(snap.Percentile(50), 500.0, 500.0 * 0.125);
  EXPECT_NEAR(snap.Percentile(95), 950.0, 950.0 * 0.125);
  EXPECT_NEAR(snap.Percentile(99), 990.0, 990.0 * 0.125);
  // The top clamps to the observed max exactly; the bottom is within one
  // bucket width of the observed min.
  EXPECT_NEAR(snap.Percentile(0), 1.0, 1.0);
  EXPECT_DOUBLE_EQ(snap.Percentile(100), 1000.0);
}

TEST(LatencyHistogram, PercentileInterpolatesWithinBucket) {
  // Values below 8 land in exact single-value buckets, so percentile
  // answers there must be EXACT, not the bucket's upper edge: the
  // rank-th sample of a bucket sits at the start of its 1/n slice. A
  // former off-by-one reported a single-occupant bucket's upper bound
  // (p50 of {5, 1000} came back 6, a value nobody recorded).
  {
    obs::LatencyHistogram histogram;
    histogram.Record(5);
    histogram.Record(1000);
    const obs::HistogramSnapshot snap = histogram.Snapshot();
    EXPECT_DOUBLE_EQ(snap.Percentile(50), 5.0);
    EXPECT_DOUBLE_EQ(snap.Percentile(100), 1000.0);
  }
  {
    obs::LatencyHistogram histogram;
    histogram.Record(7);
    const obs::HistogramSnapshot snap = histogram.Snapshot();
    // Every percentile of a one-sample distribution is that sample.
    EXPECT_DOUBLE_EQ(snap.Percentile(0), 7.0);
    EXPECT_DOUBLE_EQ(snap.Percentile(50), 7.0);
    EXPECT_DOUBLE_EQ(snap.Percentile(100), 7.0);
  }
  {
    // Three samples in one bucket plus a far outlier: the bucket's first
    // occupant answers exactly at its lower bound, later occupants
    // interpolate within the bucket (never reaching the next one), and
    // p100 reports the true max, not the outlier's bucket edge.
    obs::LatencyHistogram histogram;
    for (int i = 0; i < 3; ++i) histogram.Record(4);
    histogram.Record(100000);
    const obs::HistogramSnapshot snap = histogram.Snapshot();
    EXPECT_DOUBLE_EQ(snap.Percentile(25), 4.0);
    EXPECT_GE(snap.Percentile(75), 4.0);
    EXPECT_LT(snap.Percentile(75), 5.0);
    EXPECT_DOUBLE_EQ(snap.Percentile(100), 100000.0);
  }
}

TEST(LatencyHistogram, EmptySnapshot) {
  const obs::HistogramSnapshot snap = obs::LatencyHistogram().Snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_DOUBLE_EQ(snap.Percentile(50), 0.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
}

TEST(HistogramSnapshot, MergeCombines) {
  obs::LatencyHistogram low, high;
  for (std::uint64_t v = 1; v <= 100; ++v) low.Record(v);
  for (std::uint64_t v = 901; v <= 1000; ++v) high.Record(v);
  obs::HistogramSnapshot merged = low.Snapshot();
  merged.Merge(high.Snapshot());
  EXPECT_EQ(merged.count, 200u);
  EXPECT_EQ(merged.min, 1u);
  EXPECT_EQ(merged.max, 1000u);
  EXPECT_EQ(merged.sum, low.Snapshot().sum + high.Snapshot().sum);
  // Half the samples are <= 100, so p50 resolves in the low cluster and
  // p75 in the high cluster.
  EXPECT_LT(merged.Percentile(50), 130.0);
  EXPECT_GT(merged.Percentile(75), 800.0);
}

// --- Registry and RunMetrics ------------------------------------------

TEST(MetricsRegistry, InstrumentsAreStableAndNamed) {
  obs::MetricsRegistry registry;
  obs::Counter& counter = registry.CounterNamed("hits");
  counter.Add(2);
  EXPECT_EQ(&registry.CounterNamed("hits"), &counter);
  registry.CounterNamed("hits").Add(3);
  registry.GaugeNamed("level").Set(-7);
  registry.HistogramNamed("lat").Record(16);

  const obs::RunMetrics snap = registry.Snapshot();
  EXPECT_EQ(snap.counters.at("hits"), 5u);
  EXPECT_EQ(snap.gauges.at("level"), -7);
  EXPECT_EQ(snap.histograms.at("lat").count, 1u);
}

TEST(RunMetrics, MergeSemantics) {
  obs::MetricsRegistry a_registry, b_registry;
  a_registry.CounterNamed("shared").Add(10);
  a_registry.CounterNamed("only_a").Add(1);
  a_registry.GaugeNamed("g_shared").Set(5);
  a_registry.GaugeNamed("g_only_a").Set(3);
  a_registry.HistogramNamed("h").Record(100);
  b_registry.CounterNamed("shared").Add(7);
  b_registry.CounterNamed("only_b").Add(2);
  b_registry.GaugeNamed("g_shared").Set(9);
  b_registry.HistogramNamed("h").Record(200);

  obs::RunMetrics merged = a_registry.Snapshot();
  merged.Merge(b_registry.Snapshot());
  EXPECT_EQ(merged.counters.at("shared"), 17u);  // counters add
  EXPECT_EQ(merged.counters.at("only_a"), 1u);
  EXPECT_EQ(merged.counters.at("only_b"), 2u);
  EXPECT_EQ(merged.gauges.at("g_shared"), 9);  // last writer wins
  EXPECT_EQ(merged.gauges.at("g_only_a"), 3);  // kept when absent in other
  EXPECT_EQ(merged.histograms.at("h").count, 2u);  // bucket-wise merge
  EXPECT_EQ(merged.histograms.at("h").min, 100u);
  EXPECT_EQ(merged.histograms.at("h").max, 200u);

  // Merging an empty RunMetrics is the identity.
  const obs::RunMetrics before = merged;
  merged.Merge(obs::RunMetrics{});
  EXPECT_EQ(merged.counters, before.counters);
  EXPECT_EQ(merged.gauges, before.gauges);

  // JSON rendering carries the percentile summary.
  const std::string json = merged.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"p95\""), std::string::npos);
}

// --- Trace sink / ScopedTimer -----------------------------------------

TEST(JsonlTraceSink, ArrayFramingAndEventShape) {
  std::ostringstream stream;
  {
    obs::JsonlTraceSink sink(stream);
    obs::Tracer tracer;
    tracer.set_sink(&sink);
    EXPECT_TRUE(tracer.enabled());
    tracer.Complete("phase:test", 10, 25);
    tracer.Instant("marker");
    tracer.CounterSample("trie_nodes", 42);
    EXPECT_EQ(sink.event_count(), 3u);
    sink.Close();
    sink.Close();  // idempotent
  }
  const std::string text = stream.str();
  EXPECT_EQ(text.substr(0, 2), "[\n");
  EXPECT_NE(text.find("{}]"), std::string::npos);
  EXPECT_NE(
      text.find("{\"name\":\"phase:test\",\"cat\":\"confanon\",\"ph\":\"X\","
                "\"ts\":10,\"dur\":25,\"pid\":1,\"tid\":1},"),
      std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"trie_nodes\""), std::string::npos);
  EXPECT_NE(text.find("\"value\":42"), std::string::npos);
}

TEST(ScopedTimer, IdleWithoutSinkOrHistogram) {
  obs::Tracer tracer;  // no sink
  obs::ScopedTimer span(&tracer, "never-armed");
  span.AddArg("k", std::int64_t{1});
  EXPECT_EQ(span.ElapsedNs(), 0);
  obs::ScopedTimer null_span(nullptr, "also-idle");
  EXPECT_EQ(null_span.ElapsedNs(), 0);
}

TEST(ScopedTimer, RecordsIntoHistogramWithoutTracer) {
  obs::LatencyHistogram histogram;
  { obs::ScopedTimer span(nullptr, "timed", &histogram); }
  EXPECT_EQ(histogram.Count(), 1u);
}

TEST(ScopedTimer, EmitsCompleteEventWithArgs) {
  std::ostringstream stream;
  obs::JsonlTraceSink sink(stream);
  obs::Tracer tracer;
  tracer.set_sink(&sink);
  {
    obs::ScopedTimer span(&tracer, "work");
    span.AddArg("files", std::int64_t{3});
    span.AddArg("mode", std::string("fast"));
  }
  EXPECT_EQ(sink.event_count(), 1u);
  sink.Close();
  const std::string text = stream.str();
  EXPECT_NE(text.find("\"name\":\"work\""), std::string::npos);
  EXPECT_NE(text.find("\"files\":3"), std::string::npos);
  EXPECT_NE(text.find("\"mode\":\"fast\""), std::string::npos);
}

// --- Provenance log ----------------------------------------------------

TEST(ProvenanceLog, QueriesAndJsonl) {
  obs::ProvenanceLog log;
  EXPECT_TRUE(log.empty());
  log.Record({"r1.cfg", 0, "C1.strip-comments", 5, 1});
  log.Record({"r1.cfg", 4, "I1.map-addresses", 3, 3});
  log.Record({"r2.cfg", 4, "I1.map-addresses", 2, 2});
  EXPECT_EQ(log.size(), 3u);

  EXPECT_EQ(log.ForRule("I1.map-addresses").size(), 2u);
  const auto on_line = log.ForLine("r1.cfg", 4);
  ASSERT_EQ(on_line.size(), 1u);
  EXPECT_EQ(on_line[0].rule, "I1.map-addresses");

  std::ostringstream stream;
  log.WriteJsonl(stream);
  const std::string text = stream.str();
  EXPECT_NE(text.find("{\"file\":\"r1.cfg\",\"line\":0,"
                      "\"rule\":\"C1.strip-comments\","
                      "\"tokens_before\":5,\"tokens_after\":1}"),
            std::string::npos);
  // Pure JSONL: three lines, no array framing.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(text.begin(), text.end(), '\n')),
            3u);
  EXPECT_EQ(text.front(), '{');

  log.Clear();
  EXPECT_TRUE(log.empty());
}

// --- Anonymizer integration -------------------------------------------

constexpr const char* kConfig =
    "! leaked comment\n"
    "hostname edge-router-1\n"
    "interface Serial0\n"
    " description to PAIX for customer FooCorp\n"
    " ip address 192.168.12.9 255.255.255.252\n"
    "router bgp 7018\n"
    " neighbor 10.2.3.4 remote-as 701\n"
    "ip as-path access-list 7 permit _701_\n"
    "banner motd ^C\n"
    "Unauthorized access prohibited, call NOC at 555-0100\n"
    "^C\n"
    "end\n";

TEST(ObservedAnonymizer, MetricsMatchReportAndTraceNests) {
  std::ostringstream trace_stream;
  obs::JsonlTraceSink sink(trace_stream);
  obs::MetricsRegistry registry;
  obs::ProvenanceLog provenance;

  core::AnonymizerOptions options;
  options.salt = "obs-test";
  core::Anonymizer anonymizer(std::move(options));
  anonymizer.install_hooks(obs::Hooks{&registry, &sink, &provenance});
  const auto post = anonymizer.AnonymizeNetwork(
      {config::ConfigFile::FromText("edge.cfg", kConfig)});
  ASSERT_EQ(post.size(), 1u);
  sink.Close();

  const core::AnonymizationReport& report = anonymizer.report();
  const obs::RunMetrics metrics = registry.Snapshot();

  // Every rule counter equals the report's fire count, and vice versa.
  for (const auto& [rule, fires] : report.rule_fires) {
    ASSERT_TRUE(metrics.counters.contains("rule." + rule)) << rule;
    EXPECT_EQ(metrics.counters.at("rule." + rule), fires) << rule;
  }
  for (const auto& [name, value] : metrics.counters) {
    if (name.rfind("rule.", 0) == 0) {
      EXPECT_EQ(report.rule_fires.at(name.substr(5)), value) << name;
    }
  }
  EXPECT_EQ(metrics.counters.at("report.total_lines"), report.total_lines);
  EXPECT_EQ(metrics.counters.at("report.words_hashed"), report.words_hashed);
  EXPECT_EQ(metrics.counters.at("report.addresses_mapped"),
            report.addresses_mapped);

  // Per-line latency histogram saw every input line.
  EXPECT_EQ(metrics.histograms.at("core.line_ns").count, report.total_lines);
  EXPECT_EQ(metrics.histograms.at("core.file_ns").count, 1u);
  EXPECT_GT(metrics.gauges.at("ipanon.trie_nodes"), 0);

  // Trace: network -> file -> per-rule spans, all complete events.
  const std::string trace = trace_stream.str();
  EXPECT_NE(trace.find("\"name\":\"anonymize-network\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"file:edge.cfg\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"rule:I1.map-addresses\""),
            std::string::npos);
  EXPECT_EQ(trace.substr(0, 2), "[\n");
  EXPECT_NE(trace.find("{}]"), std::string::npos);

  // Provenance: every entry names a rule the report counted, and the
  // comment-strip rule logged token removal.
  ASSERT_FALSE(provenance.empty());
  for (const auto& entry : provenance.entries()) {
    EXPECT_TRUE(report.rule_fires.contains(entry.rule)) << entry.rule;
    EXPECT_EQ(entry.file, "edge.cfg");
  }
  bool saw_removal = false;
  for (const auto& entry : provenance.ForRule("C1.strip-bang-comments")) {
    if (entry.tokens_after < entry.tokens_before) saw_removal = true;
  }
  EXPECT_TRUE(saw_removal);
}

TEST(ObservedAnonymizer, SilentWithoutInstrumentation) {
  core::AnonymizerOptions options;
  options.salt = "obs-test";
  core::Anonymizer plain(std::move(options));
  const auto post = plain.AnonymizeNetwork(
      {config::ConfigFile::FromText("edge.cfg", kConfig)});
  ASSERT_EQ(post.size(), 1u);
  EXPECT_FALSE(plain.report().rule_fires.empty());
}

TEST(ObservedAnonymizer, JunosMetricsUsePrefix) {
  obs::MetricsRegistry registry;
  obs::ProvenanceLog provenance;
  std::ostringstream trace_stream;
  obs::JsonlTraceSink sink(trace_stream);
  junos::JunosAnonymizerOptions options;
  options.salt = "obs-test";
  junos::JunosAnonymizer anonymizer(std::move(options));
  anonymizer.install_hooks(obs::Hooks{
      .metrics = &registry, .trace = &sink, .provenance = &provenance});
  anonymizer.AnonymizeNetwork({config::ConfigFile::FromText(
      "r0.conf",
      "/* core router */\n"
      "system {\n"
      "    host-name core-fra-1;\n"
      "}\n"
      "interfaces {\n"
      "    lo0 {\n"
      "        unit 0 {\n"
      "            family inet {\n"
      "                address 10.9.8.7/32;\n"
      "            }\n"
      "        }\n"
      "    }\n"
      "}\n"
      "routing-options {\n"
      "    autonomous-system 3320;\n"
      "}\n")});
  sink.Close();

  const obs::RunMetrics metrics = registry.Snapshot();
  EXPECT_EQ(metrics.counters.at("junos.report.total_lines"),
            anonymizer.report().total_lines);
  for (const auto& [rule, fires] : anonymizer.report().rule_fires) {
    EXPECT_EQ(metrics.counters.at("junos.rule." + rule), fires) << rule;
  }
  EXPECT_EQ(metrics.histograms.at("junos.line_ns").count,
            anonymizer.report().total_lines);
  EXPECT_EQ(metrics.histograms.at("junos.file_ns").count, 1u);
  EXPECT_GT(metrics.histograms.at("junos.tokenize_ns").count, 0u);
  EXPECT_GT(metrics.counters.at("junos.arena.bytes"), 0u);
  EXPECT_EQ(metrics.counters.at("junos.arena.resets"), 1u);
  // A standalone engine owns its trie and syncs it under the prefix.
  EXPECT_EQ(metrics.counters.at("junos.ipanon.preloaded_addresses"), 1u);
  EXPECT_GT(metrics.gauges.at("junos.ipanon.trie_nodes"), 0);
  // Nothing lands under the IOS names.
  for (const auto& [name, value] : metrics.counters) {
    EXPECT_TRUE(name.rfind("junos.", 0) == 0 || name.rfind("asn.", 0) == 0)
        << name;
  }
  for (const auto& [name, value] : metrics.histograms) {
    EXPECT_TRUE(name.rfind("junos.", 0) == 0 || name.rfind("asn.", 0) == 0)
        << name;
  }
  // The preload is not counted under the IOS rule I7.
  EXPECT_FALSE(
      anonymizer.report().rule_fires.contains(core::rules::kSubnetPreload));

  // Trace: the JunOS network and preload spans, the file span and
  // per-rule spans nested in it.
  const std::string trace = trace_stream.str();
  EXPECT_NE(trace.find("\"name\":\"junos-anonymize-network\""),
            std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"junos-preload\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"file:r0.conf\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"rule:J."), std::string::npos);
  EXPECT_EQ(trace.find("\"name\":\"anonymize-network\""), std::string::npos);
  EXPECT_EQ(trace.find("\"name\":\"preload.I7\""), std::string::npos);

  ASSERT_FALSE(provenance.empty());
  for (const auto& entry : provenance.entries()) {
    EXPECT_EQ(entry.rule.substr(0, 2), "J.") << entry.rule;
    EXPECT_EQ(entry.file, "r0.conf");
  }
}

TEST(ObservedAnonymizer, SharedStateEnginesSyncNoTrieMetrics) {
  // An IOS and a JunOS engine over one NetworkState: the trie is not
  // theirs, so neither syncs ipanon.* (its owner, the pipeline, does that
  // once); their own report and arena counters still sync.
  obs::MetricsRegistry registry;
  const auto state = std::make_shared<core::NetworkState>("obs-test");
  core::AnonymizerOptions ios_options;
  ios_options.salt = "obs-test";
  core::Anonymizer ios(std::move(ios_options), state);
  junos::JunosAnonymizerOptions junos_options;
  junos_options.salt = "obs-test";
  junos::JunosAnonymizer junos(std::move(junos_options), state);
  ios.install_hooks(obs::Hooks{.metrics = &registry});
  junos.install_hooks(obs::Hooks{.metrics = &registry});

  ios.AnonymizeNetwork({config::ConfigFile::FromText("edge.cfg", kConfig)});
  junos.AnonymizeFile(config::ConfigFile::FromText(
      "r0.conf",
      "interfaces {\n"
      "    lo0 {\n"
      "        unit 0 {\n"
      "            family inet {\n"
      "                address 10.9.8.7/32;\n"
      "            }\n"
      "        }\n"
      "    }\n"
      "}\n"));
  EXPECT_GT(state->ip.stats().preloaded, 0u);

  const obs::RunMetrics metrics = registry.Snapshot();
  for (const auto& [name, value] : metrics.counters) {
    EXPECT_NE(name.rfind("ipanon.", 0), 0u) << name;
    EXPECT_NE(name.rfind("junos.ipanon.", 0), 0u) << name;
  }
  for (const auto& [name, value] : metrics.gauges) {
    EXPECT_NE(name.rfind("ipanon.", 0), 0u) << name;
    EXPECT_NE(name.rfind("junos.ipanon.", 0), 0u) << name;
  }
  EXPECT_EQ(metrics.counters.at("report.total_lines"),
            ios.report().total_lines);
  EXPECT_EQ(metrics.counters.at("junos.report.total_lines"),
            junos.report().total_lines);
  EXPECT_EQ(metrics.counters.at("arena.resets"), 1u);
  EXPECT_EQ(metrics.counters.at("junos.arena.resets"), 1u);
}

TEST(ObservedAnonymizer, HotPathInstrumentsArenaAndTokenize) {
  // The zero-copy hot path reports its own health: tokenize latency per
  // line and the arena's allocation/reset counters at file boundaries.
  obs::MetricsRegistry registry;
  obs::Hooks hooks;
  hooks.metrics = &registry;

  core::AnonymizerOptions options;
  options.salt = "obs-test";
  core::Anonymizer anonymizer(std::move(options));
  anonymizer.install_hooks(hooks);
  const auto post = anonymizer.AnonymizeNetwork(
      {config::ConfigFile::FromText("edge.cfg", kConfig)});
  ASSERT_EQ(post.size(), 1u);

  const obs::RunMetrics metrics = registry.Snapshot();
  // One tokenize sample per non-banner line that reached the tokenizer.
  EXPECT_GT(metrics.histograms.at("core.tokenize_ns").count, 0u);
  EXPECT_LE(metrics.histograms.at("core.tokenize_ns").count,
            anonymizer.report().total_lines);
  // The sample config rewrites words (hashes, mapped addresses), so the
  // arena handed out bytes and was reset once per file.
  EXPECT_GT(metrics.counters.at("arena.bytes"), 0u);
  EXPECT_EQ(metrics.counters.at("arena.resets"), 1u);
}

TEST(ObservedAnonymizer, LeakScanRecordsMetrics) {
  core::AnonymizerOptions options;
  options.salt = "obs-test";
  core::Anonymizer anonymizer(std::move(options));
  const auto post = anonymizer.AnonymizeNetwork(
      {config::ConfigFile::FromText("edge.cfg", kConfig)});
  obs::MetricsRegistry registry;
  core::LeakDetector::Scan(post, anonymizer.leak_record(), &registry);
  const obs::RunMetrics metrics = registry.Snapshot();
  EXPECT_GT(metrics.counters.at("leak.lines_scanned"), 0u);
  EXPECT_TRUE(metrics.counters.contains("leak.findings"));
  EXPECT_EQ(metrics.histograms.at("leak.scan_ns").count, post.size());
}

}  // namespace
}  // namespace confanon
