// Committed-golden byte identity for the full ingest -> anonymize ->
// egress path. tests/data/golden/ holds three small gen_corpus networks
// (IOS, JunOS, mixed) plus the anonymized output the CLI produced for
// them under salt "golden-salt" before the zero-copy I/O rework. The
// current pipeline must reproduce those bytes exactly at 1 and 4
// threads: any drift in the splitter, the engines, or the renderer shows
// up here as a byte diff, not a statistics change. The Hooked variants
// install a metrics registry, a JSONL trace sink and a provenance log,
// which routes every line through the engines' ObserveLine wrapper; the
// expected bytes are the same.
#include <algorithm>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "config/document.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "pipeline/pipeline.h"
#include "util/io.h"

namespace confanon {
namespace {

std::filesystem::path GoldenDir(const std::string& leaf) {
  return std::filesystem::path(CONFANON_TEST_DATA_DIR) / "golden" / leaf;
}

/// Loads every .cfg in `dir` (sorted by filename, matching the shell
/// glob order the golden CLI run used) through the zero-copy reader.
std::vector<config::ConfigFile> LoadCorpus(const std::filesystem::path& dir) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<config::ConfigFile> files;
  files.reserve(paths.size());
  for (const auto& path : paths) {
    std::string error;
    auto contents = util::ReadFileContents(path.string(), &error);
    EXPECT_TRUE(contents.has_value()) << error;
    files.push_back(config::ConfigFile::FromBacking(
        path.filename().string(), contents->view,
        std::move(contents->backing)));
  }
  return files;
}

void CheckGolden(const std::string& mode, int threads, bool hooked = false) {
  SCOPED_TRACE("mode=" + mode + " threads=" + std::to_string(threads) +
               (hooked ? " hooked" : ""));
  const std::vector<config::ConfigFile> inputs =
      LoadCorpus(GoldenDir("pre-" + mode));
  ASSERT_FALSE(inputs.empty());

  core::ServiceOptions options;
  options.base.salt = "golden-salt";
  options.threads = threads;
  obs::MetricsRegistry metrics;
  std::ostringstream trace_out;
  obs::JsonlTraceSink trace(trace_out);
  obs::ProvenanceLog provenance;
  const auto context = pipeline::MakeServiceContext(std::move(options));
  pipeline::CorpusPipeline pipeline(context, context->CreateSession());
  if (hooked) {
    pipeline.install_hooks(obs::Hooks{
        .metrics = &metrics, .trace = &trace, .provenance = &provenance});
  }
  const std::vector<config::ConfigFile> output =
      pipeline.AnonymizeCorpus(inputs);
  ASSERT_EQ(output.size(), inputs.size());

  if (hooked) {
    // Every input line went through ObserveLine in one of the engines.
    std::size_t input_lines = 0;
    for (const auto& file : inputs) input_lines += file.LineCount();
    const obs::RunMetrics snapshot = metrics.Snapshot();
    std::uint64_t observed_lines = 0;
    for (const char* name : {"core.line_ns", "junos.line_ns"}) {
      const auto it = snapshot.histograms.find(name);
      if (it != snapshot.histograms.end()) observed_lines += it->second.count;
    }
    EXPECT_EQ(observed_lines, input_lines);
    EXPECT_GT(trace.event_count(), 0u);
    EXPECT_FALSE(provenance.empty());
  }

  const std::filesystem::path post = GoldenDir("post-" + mode);
  std::size_t expected_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(post)) {
    (void)entry;
    ++expected_files;
  }
  ASSERT_EQ(output.size(), expected_files);

  for (const auto& file : output) {
    const std::filesystem::path golden = post / (file.name() + ".cfg");
    std::string error;
    const auto expected = util::ReadFileFully(golden.string(), &error);
    ASSERT_TRUE(expected.has_value())
        << "no golden for output " << file.name() << ": " << error;
    EXPECT_EQ(file.ToText(), *expected)
        << "byte drift vs " << golden.string();
  }
}

TEST(GoldenRoundTrip, IosSequential) { CheckGolden("ios", 1); }
TEST(GoldenRoundTrip, IosParallel) { CheckGolden("ios", 4); }
TEST(GoldenRoundTrip, JunosSequential) { CheckGolden("junos", 1); }
TEST(GoldenRoundTrip, JunosParallel) { CheckGolden("junos", 4); }
TEST(GoldenRoundTrip, MixedSequential) { CheckGolden("mixed", 1); }
TEST(GoldenRoundTrip, MixedParallel) { CheckGolden("mixed", 4); }
TEST(GoldenRoundTrip, IosSequentialHooked) { CheckGolden("ios", 1, true); }
TEST(GoldenRoundTrip, IosParallelHooked) { CheckGolden("ios", 4, true); }
TEST(GoldenRoundTrip, JunosSequentialHooked) {
  CheckGolden("junos", 1, true);
}
TEST(GoldenRoundTrip, JunosParallelHooked) { CheckGolden("junos", 4, true); }
TEST(GoldenRoundTrip, MixedSequentialHooked) {
  CheckGolden("mixed", 1, true);
}
TEST(GoldenRoundTrip, MixedParallelHooked) { CheckGolden("mixed", 4, true); }

}  // namespace
}  // namespace confanon
