// Parallel corpus pipeline tests.
//
// The load-bearing property is byte-identical output for any thread
// count: after the corpus-wide preload (rule I7), no randomness is left
// to consume, so worker interleaving cannot change a single output byte.
// These tests run the same corpora at 1/2/4/8 threads and compare whole
// texts — and they are the suite the TSan CI job runs, so the sharded
// hasher, shared trie, memo and trace sink are exercised under race
// detection, not just for equality.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "config/document.h"
#include "core/anonymizer.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "junos/anonymizer.h"
#include "junos/writer.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"

namespace confanon {
namespace {

std::vector<config::ConfigFile> IosCorpus(std::uint64_t seed, int routers) {
  gen::GeneratorParams params;
  params.seed = seed;
  params.router_count = routers;
  // Force the regex features on so the rewriters (and their memo) run.
  params.p_public_range_regex = 1.0;
  params.p_alternation_regex = 1.0;
  params.p_community_regex = 1.0;
  return gen::WriteNetworkConfigs(
      gen::GenerateNetwork(params, static_cast<int>(seed)));
}

std::vector<config::ConfigFile> JunosCorpus(std::uint64_t seed, int routers) {
  gen::GeneratorParams params;
  params.seed = seed;
  params.router_count = routers;
  return junos::WriteJunosNetworkConfigs(
      gen::GenerateNetwork(params, static_cast<int>(seed)));
}

/// A verified set context with a thread budget of `threads`.
std::shared_ptr<core::ServiceContext> SetContext(int threads) {
  core::ServiceOptions options;
  options.threads = threads;
  return pipeline::MakeServiceContext(std::move(options));
}

/// Interleaves an IOS and a JunOS network file-by-file.
std::vector<config::ConfigFile> MixedCorpus(std::uint64_t seed) {
  const auto ios = IosCorpus(seed, 10);
  const auto junos = JunosCorpus(seed + 1, 10);
  std::vector<config::ConfigFile> mixed;
  for (std::size_t i = 0; i < std::max(ios.size(), junos.size()); ++i) {
    if (i < ios.size()) mixed.push_back(ios[i]);
    if (i < junos.size()) mixed.push_back(junos[i]);
  }
  return mixed;
}

/// A batch pipeline: a verified context and a fresh session of it.
pipeline::CorpusPipeline MakePipeline(core::ServiceOptions options) {
  const auto context = pipeline::MakeServiceContext(std::move(options));
  return pipeline::CorpusPipeline(context, context->CreateSession());
}

std::vector<config::ConfigFile> RunPipeline(
    const std::vector<config::ConfigFile>& files, int threads) {
  core::ServiceOptions options;
  options.base.salt = "pipeline-test-salt";
  options.threads = threads;
  auto pipeline = MakePipeline(std::move(options));
  return pipeline.AnonymizeCorpus(files);
}

void ExpectSameTexts(const std::vector<config::ConfigFile>& a,
                     const std::vector<config::ConfigFile>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].name(), b[i].name()) << "file " << i;
    EXPECT_EQ(a[i].ToText(), b[i].ToText()) << a[i].name();
  }
}

// --- Dialect detection -------------------------------------------------

TEST(DetectDialect, ClassifiesBraceSyntax) {
  EXPECT_EQ(core::DetectDialect(config::ConfigFile::FromText(
                "r.cfg", "hostname edge-1\ninterface Serial0\n")),
            core::ConfigDialect::kIos);
  EXPECT_EQ(core::DetectDialect(config::ConfigFile::FromText(
                "r.conf", "system {\n    host-name core-1;\n}\n")),
            core::ConfigDialect::kJunos);
  // Empty files default to IOS.
  EXPECT_EQ(core::DetectDialect(config::ConfigFile::FromText("e", "")),
            core::ConfigDialect::kIos);
}

TEST(DetectDialect, GeneratedCorporaClassifyCorrectly) {
  for (const auto& file : IosCorpus(11, 6)) {
    EXPECT_EQ(core::DetectDialect(file), core::ConfigDialect::kIos)
        << file.name();
  }
  for (const auto& file : JunosCorpus(11, 6)) {
    EXPECT_EQ(core::DetectDialect(file), core::ConfigDialect::kJunos)
        << file.name();
  }
}

// --- Sequential equivalence --------------------------------------------

TEST(CorpusPipeline, SingleThreadMatchesSequentialIosEngine) {
  const auto files = IosCorpus(21, 12);

  core::AnonymizerOptions options;
  options.salt = "pipeline-test-salt";
  core::Anonymizer sequential(options);
  const auto expected = sequential.AnonymizeNetwork(files);

  core::ServiceOptions popts;
  popts.base = options;
  popts.threads = 1;
  auto pipeline = MakePipeline(popts);
  const auto actual = pipeline.AnonymizeCorpus(files);

  ExpectSameTexts(expected, actual);
  // The merged pipeline report equals the sequential engine's report.
  EXPECT_EQ(pipeline.report().ToJson(), sequential.report().ToJson());
}

TEST(CorpusPipeline, SingleThreadMatchesSequentialJunosEngine) {
  const auto files = JunosCorpus(22, 12);

  junos::JunosAnonymizerOptions joptions;
  joptions.salt = "pipeline-test-salt";
  junos::JunosAnonymizer sequential(joptions);
  const auto expected = sequential.AnonymizeNetwork(files);

  core::ServiceOptions popts;
  popts.base.salt = "pipeline-test-salt";
  popts.threads = 1;
  auto pipeline = MakePipeline(popts);
  const auto actual = pipeline.AnonymizeCorpus(files);

  ExpectSameTexts(expected, actual);
  EXPECT_EQ(pipeline.report().ToJson(), sequential.report().ToJson());
}

// --- Parallel determinism ----------------------------------------------

class PipelineDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(PipelineDeterminism, IosCorpusByteIdentical) {
  const auto files = IosCorpus(31, 16);
  const auto baseline = RunPipeline(files, 1);
  const auto parallel = RunPipeline(files, GetParam());
  ExpectSameTexts(baseline, parallel);
}

TEST_P(PipelineDeterminism, JunosCorpusByteIdentical) {
  const auto files = JunosCorpus(32, 16);
  const auto baseline = RunPipeline(files, 1);
  const auto parallel = RunPipeline(files, GetParam());
  ExpectSameTexts(baseline, parallel);
}

TEST_P(PipelineDeterminism, MixedCorpusByteIdentical) {
  const auto files = MixedCorpus(33);
  const auto baseline = RunPipeline(files, 1);
  const auto parallel = RunPipeline(files, GetParam());
  ExpectSameTexts(baseline, parallel);
}

TEST_P(PipelineDeterminism, ReportsMatchAcrossThreadCounts) {
  const auto files = MixedCorpus(34);

  core::ServiceOptions popts;
  popts.base.salt = "pipeline-test-salt";
  popts.threads = 1;
  auto baseline = MakePipeline(popts);
  baseline.AnonymizeCorpus(files);

  popts.threads = GetParam();
  auto parallel = MakePipeline(popts);
  parallel.AnonymizeCorpus(files);

  EXPECT_EQ(baseline.report().ToJson(), parallel.report().ToJson());
}

TEST_P(PipelineDeterminism, NetworkSetByteIdenticalAcrossThreads) {
  // Cross-network mode: three independent networks (IOS, JunOS, mixed),
  // each with its own salt, run through AnonymizeNetworkSet. The
  // per-network determinism guarantee composes, so the whole set must be
  // byte-identical at any thread budget — and outputs must land at their
  // task index.
  const auto build_tasks = [] {
    std::vector<pipeline::NetworkTask> tasks(3);
    tasks[0].options.base.salt = "netset-a";
    tasks[0].files = IosCorpus(41, 6);
    tasks[1].options.base.salt = "netset-b";
    tasks[1].files = JunosCorpus(42, 6);
    tasks[2].options.base.salt = "netset-c";
    tasks[2].files = MixedCorpus(43);
    return tasks;
  };
  const auto tasks = build_tasks();
  const auto baseline = pipeline::AnonymizeNetworkSet(tasks, *SetContext(1));
  const auto parallel =
      pipeline::AnonymizeNetworkSet(tasks, *SetContext(GetParam()));
  ASSERT_EQ(baseline.size(), tasks.size());
  ASSERT_EQ(parallel.size(), tasks.size());
  for (std::size_t n = 0; n < tasks.size(); ++n) {
    ExpectSameTexts(baseline[n].files, parallel[n].files);
    EXPECT_EQ(baseline[n].report.ToJson(), parallel[n].report.ToJson())
        << "network " << n;
  }
}

TEST(AnonymizeNetworkSet, MatchesStandalonePipelines) {
  // Each network's output equals what its own standalone CorpusPipeline
  // produces — the set adds scheduling, never changes a byte.
  std::vector<pipeline::NetworkTask> tasks(2);
  tasks[0].options.base.salt = "solo-a";
  tasks[0].files = IosCorpus(51, 5);
  tasks[1].options.base.salt = "solo-b";
  tasks[1].files = JunosCorpus(52, 5);

  const auto results = pipeline::AnonymizeNetworkSet(tasks, *SetContext(4));

  for (std::size_t n = 0; n < tasks.size(); ++n) {
    auto solo = MakePipeline(tasks[n].options);
    const auto expected = solo.AnonymizeCorpus(tasks[n].files);
    ExpectSameTexts(expected, results[n].files);
    EXPECT_EQ(solo.report().ToJson(), results[n].report.ToJson());
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PipelineDeterminism,
                         ::testing::Values(2, 4, 8),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "t" + std::to_string(info.param);
                         });

// --- Mixed-dialect referential integrity --------------------------------

TEST(CorpusPipeline, MixedCorpusSharesOneMapping) {
  // The same address and the same hostname word planted in an IOS file
  // and a JunOS file must map identically: both engines run over the ONE
  // shared NetworkState.
  const auto ios_file = config::ConfigFile::FromText(
      "edge.cfg",
      "hostname shared-leak-name\n"
      "interface Serial0\n"
      " ip address 10.77.88.99 255.255.255.0\n");
  const auto junos_file = config::ConfigFile::FromText(
      "core.conf",
      "system {\n"
      "    host-name shared-leak-name;\n"
      "}\n"
      "interfaces {\n"
      "    ge-0/0/0 {\n"
      "        unit 0 {\n"
      "            family inet {\n"
      "                address 10.77.88.99/24;\n"
      "            }\n"
      "        }\n"
      "    }\n"
      "}\n");

  core::ServiceOptions popts;
  popts.base.salt = "pipeline-test-salt";
  popts.threads = 2;
  auto pipeline = MakePipeline(popts);
  const auto post = pipeline.AnonymizeCorpus({ios_file, junos_file});
  ASSERT_EQ(post.size(), 2u);

  const std::string mapped_addr =
      pipeline.ip_anonymizer().Map(*net::Ipv4Address::Parse("10.77.88.99"))
          .ToString();
  EXPECT_NE(post[0].ToText().find(mapped_addr), std::string::npos)
      << "IOS output missing " << mapped_addr;
  EXPECT_NE(post[1].ToText().find(mapped_addr), std::string::npos)
      << "JunOS output missing " << mapped_addr;

  const std::string token = pipeline.string_hasher().Hash("shared-leak-name");
  EXPECT_NE(post[0].ToText().find(token), std::string::npos);
  EXPECT_NE(post[1].ToText().find(token), std::string::npos);
  // And the original never survives.
  EXPECT_EQ(post[0].ToText().find("shared-leak-name"), std::string::npos);
  EXPECT_EQ(post[1].ToText().find("shared-leak-name"), std::string::npos);
}

// --- Standalone AnonymizeFile preload regression ------------------------

TEST(AnonymizeFile, StandaloneCallPreloadsOwnAddresses) {
  // Rule I7 semantics for a single file: a bare AnonymizeFile call must
  // produce the same bytes as AnonymizeNetwork over that one file. Before
  // the preload fix the standalone path skipped the subnet preload, so
  // subnet (host-bits-zero) addresses could lose their structure.
  const auto file = config::ConfigFile::FromText(
      "edge.cfg",
      "hostname edge-1\n"
      "interface Serial0\n"
      " ip address 172.16.4.1 255.255.255.0\n"
      "router ospf 10\n"
      " network 172.16.4.0 0.0.0.255 area 0\n");

  core::AnonymizerOptions options;
  options.salt = "preload-regression";
  core::Anonymizer standalone(options);
  const auto direct = standalone.AnonymizeFile(file);

  core::Anonymizer reference(options);
  const auto via_network = reference.AnonymizeNetwork({file});
  ASSERT_EQ(via_network.size(), 1u);
  EXPECT_EQ(direct.ToText(), via_network[0].ToText());

  // The standalone path counts its preload under rule I7 too.
  EXPECT_GT(standalone.report().Fires(core::Rule::kSubnetPreload), 0u);
  EXPECT_EQ(standalone.report().Fires(core::Rule::kSubnetPreload),
            reference.report().Fires(core::Rule::kSubnetPreload));
}

TEST(AnonymizeFile, JunosStandaloneCallPreloadsOwnAddresses) {
  const auto file = config::ConfigFile::FromText(
      "core.conf",
      "interfaces {\n"
      "    ge-0/0/0 {\n"
      "        unit 0 {\n"
      "            family inet {\n"
      "                address 172.16.9.1/24;\n"
      "            }\n"
      "        }\n"
      "    }\n"
      "}\n");

  junos::JunosAnonymizerOptions options;
  options.salt = "preload-regression";
  junos::JunosAnonymizer standalone(options);
  const auto direct = standalone.AnonymizeFile(file);

  junos::JunosAnonymizer reference(options);
  const auto via_network = reference.AnonymizeNetwork({file});
  ASSERT_EQ(via_network.size(), 1u);
  EXPECT_EQ(direct.ToText(), via_network[0].ToText());
}

// --- Observability through the pipeline ---------------------------------

TEST(CorpusPipeline, HooksCoverMetricsTraceAndProvenance) {
  const auto files = MixedCorpus(41);

  obs::MetricsRegistry registry;
  obs::ProvenanceLog provenance;
  std::ostringstream trace_stream;
  obs::JsonlTraceSink sink(trace_stream);

  core::ServiceOptions popts;
  popts.base.salt = "pipeline-test-salt";
  popts.threads = 4;
  auto pipeline = MakePipeline(popts);
  pipeline.install_hooks(obs::Hooks{&registry, &sink, &provenance});
  const auto post = pipeline.AnonymizeCorpus(files);
  sink.Close();
  ASSERT_EQ(post.size(), files.size());

  const obs::RunMetrics metrics = registry.Snapshot();
  // Worker report deltas merged into the shared registry equal the merged
  // pipeline report (IOS under "report.*", JunOS under "junos.report.*").
  const auto& report = pipeline.report();
  EXPECT_EQ(metrics.counters.at("report.total_lines") +
                metrics.counters.at("junos.report.total_lines"),
            report.total_lines);
  // The shared trie's counters are synced exactly once (centrally).
  EXPECT_TRUE(metrics.counters.contains("ipanon.preloaded_addresses"));
  EXPECT_GT(metrics.gauges.at("ipanon.trie_nodes"), 0);
  // The memo-hit counter exists (eagerly registered) for BENCH reporting.
  EXPECT_TRUE(metrics.counters.contains("asn.rewrite_memo_hits"));
  // Rule I7 fired corpus-wide and landed under its sequential name.
  EXPECT_TRUE(metrics.counters.contains(
      "rule." + std::string(core::RuleName(core::Rule::kSubnetPreload))));

  // The shared trace sink took events from every worker without tearing.
  EXPECT_GT(sink.event_count(), 0u);

  // Provenance is concatenated in corpus order: file names appear in
  // non-decreasing corpus position.
  ASSERT_FALSE(provenance.empty());
  std::size_t last_index = 0;
  for (const auto& entry : provenance.entries()) {
    std::size_t index = files.size();
    for (std::size_t i = 0; i < files.size(); ++i) {
      if (files[i].name() == entry.file) {
        index = i;
        break;
      }
    }
    ASSERT_LT(index, files.size()) << entry.file;
    EXPECT_GE(index, last_index) << entry.file;
    last_index = index;
  }
}

TEST(CorpusPipeline, RewriteMemoCountsRepeatedPatterns) {
  // The same as-path regexp in several files: the first rewrite computes
  // the DFA, later ones hit the bounded memo.
  std::vector<config::ConfigFile> files;
  for (int i = 0; i < 6; ++i) {
    files.push_back(config::ConfigFile::FromText(
        "r" + std::to_string(i) + ".cfg",
        "hostname r" + std::to_string(i) +
            "\n"
            "ip as-path access-list 7 permit _701_\n"
            "ip as-path access-list 8 permit ^(64[0-9][0-9])$\n"));
  }

  obs::MetricsRegistry registry;
  core::ServiceOptions popts;
  popts.base.salt = "pipeline-test-salt";
  popts.threads = 2;
  auto pipeline = MakePipeline(popts);
  pipeline.install_hooks(obs::Hooks{.metrics = &registry});
  pipeline.AnonymizeCorpus(files);

  EXPECT_GT(pipeline.state()->aspath_rewriter.memo().hits(), 0u);
  const obs::RunMetrics metrics = registry.Snapshot();
  EXPECT_GT(metrics.counters.at("asn.rewrite_memo_hits"), 0u);

  // JunOS rewrites go through the same engine code and count the same way.
  std::vector<config::ConfigFile> junos_files;
  for (int i = 0; i < 6; ++i) {
    junos_files.push_back(config::ConfigFile::FromText(
        "j" + std::to_string(i) + ".conf",
        "policy-options {\n"
        "    as-path aspath-7 \"_701_\";\n"
        "}\n"));
  }
  obs::MetricsRegistry junos_registry;
  auto junos_pipeline = MakePipeline(popts);
  junos_pipeline.install_hooks(obs::Hooks{.metrics = &junos_registry});
  junos_pipeline.AnonymizeCorpus(junos_files);

  EXPECT_EQ(junos_pipeline.report().aspath_regexps_rewritten,
            junos_files.size());
  const obs::RunMetrics junos_metrics = junos_registry.Snapshot();
  EXPECT_GT(junos_metrics.counters.at("asn.rewrite_memo_hits"), 0u);
  EXPECT_GT(junos_metrics.counters.at("asn.rewrite_dfa_states"), 0u);
  EXPECT_GT(junos_metrics.histograms.at("asn.rewrite_ns").count, 0u);
}

TEST(CorpusPipeline, PhaseProfileCoversTheRun) {
  // At threads=1 the three phase windows (preload, anonymize, join)
  // tile AnonymizeCorpus exactly, so their wall total must track
  // the measured call duration — the acceptance check behind the
  // profiler's "self-times sum to wall time" claim. A generous absolute
  // slack absorbs scheduler noise on tiny corpora.
  const auto files = MixedCorpus(77);
  core::ServiceOptions options;
  options.base.salt = "pipeline-test-salt";
  options.threads = 1;
  auto pipeline = MakePipeline(std::move(options));

  obs::PhaseProfiler profiler({.enable_perf_counters = false});
  obs::Hooks hooks;
  hooks.profiler = &profiler;
  hooks.trace = &profiler;  // buffer engine spans for the folded profile
  pipeline.install_hooks(hooks);

  const auto start = std::chrono::steady_clock::now();
  pipeline.AnonymizeCorpus(files);
  const double wall_ns = static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());

  const obs::PhaseProfiler::Profile profile = profiler.Finish();
  std::vector<std::string> names;
  for (const auto& phase : profile.phases) names.push_back(phase.name);
  EXPECT_EQ(names,
            (std::vector<std::string>{"preload", "anonymize", "join"}));

  const double phase_ns = static_cast<double>(profile.PhaseWallNsTotal());
  const double slack = std::max(wall_ns * 0.10, 2e6);  // 10% or 2ms
  EXPECT_NEAR(phase_ns, wall_ns, slack);

  // The span stream folds under the same phase labels, with the file
  // spans rooted in the anonymize window.
  bool saw_anonymize_file = false;
  for (const auto& span : profile.spans) {
    if (span.path.rfind("anonymize;", 0) == 0 &&
        span.path.find("file:") != std::string::npos) {
      saw_anonymize_file = true;
    }
  }
  EXPECT_TRUE(saw_anonymize_file);
}

TEST(CorpusPipeline, ExportKnownEntitiesRendersSharedMappings) {
  core::ServiceOptions popts;
  popts.base.salt = "pipeline-test-salt";
  popts.base.known_entities.push_back(
      {"FOO-CORP", {701, 7018}, {net::Prefix(*net::Ipv4Address::Parse("12.0.0.0"), 8)}});
  popts.threads = 2;
  auto pipeline = MakePipeline(popts);
  pipeline.AnonymizeCorpus({config::ConfigFile::FromText(
      "r.cfg", "hostname foocorp-edge\n ip address 10.0.0.1 255.0.0.0\n")});
  std::ostringstream out;
  pipeline.ExportKnownEntities(out);
  // The grouping renders without the label, over the shared mappings.
  EXPECT_NE(out.str().find("entity 0: asns "), std::string::npos);
  EXPECT_EQ(out.str().find("FOO-CORP"), std::string::npos);
}

}  // namespace
}  // namespace confanon
