// Committed-golden byte identity for the defended path: ingest ->
// anonymize -> defend. tests/data/golden/defended-{ios,junos,mixed} hold
// the output confanon_tool produced for the golden pre-corpora under
// salt "golden-salt" with --defend-k 2 --defend-seed 42. The current
// pipeline must reproduce those bytes exactly at 1 and 4 threads: the
// defend phase runs after the parallel join, so decoy placement must be
// as thread-independent as the anonymization itself.
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/fingerprint.h"
#include "config/document.h"
#include "pipeline/pipeline.h"
#include "util/io.h"

namespace confanon {
namespace {

std::filesystem::path GoldenDir(const std::string& leaf) {
  return std::filesystem::path(CONFANON_TEST_DATA_DIR) / "golden" / leaf;
}

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

void CheckDefendedGolden(const std::string& mode, int threads) {
  SCOPED_TRACE("mode=" + mode + " threads=" + std::to_string(threads));
  const std::vector<config::ConfigFile> inputs =
      LoadCorpus(GoldenDir("pre-" + mode));
  ASSERT_FALSE(inputs.empty());

  core::ServiceOptions options;
  options.base.salt = "golden-salt";
  options.threads = threads;
  options.defense.k = 2;
  options.defense.seed = 42;
  const auto context = pipeline::MakeServiceContext(std::move(options));
  pipeline::CorpusPipeline pipeline(context, context->CreateSession());
  const std::vector<config::ConfigFile> output =
      pipeline.AnonymizeCorpus(inputs);
  ASSERT_EQ(output.size(), inputs.size());

  // The fixture is itself k-anonymous at the target.
  EXPECT_GE(pipeline.defense_report().achieved_k, 2u);
  EXPECT_GE(analysis::MinFingerprintClassSize(
                analysis::ExtractRouterFingerprints(output)),
            2u);

  const std::filesystem::path golden_dir = GoldenDir("defended-" + mode);
  std::size_t expected_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(golden_dir)) {
    (void)entry;
    ++expected_files;
  }
  ASSERT_EQ(output.size(), expected_files);

  for (const auto& file : output) {
    const std::filesystem::path golden = golden_dir / (file.name() + ".cfg");
    std::string error;
    const auto expected = util::ReadFileFully(golden.string(), &error);
    ASSERT_TRUE(expected.has_value())
        << "no golden for output " << file.name() << ": " << error;
    EXPECT_EQ(file.ToText(), *expected)
        << "byte drift vs " << golden.string();
  }
}

TEST(GoldenDefended, IosSequential) { CheckDefendedGolden("ios", 1); }
TEST(GoldenDefended, IosParallel) { CheckDefendedGolden("ios", 4); }
TEST(GoldenDefended, JunosSequential) { CheckDefendedGolden("junos", 1); }
TEST(GoldenDefended, JunosParallel) { CheckDefendedGolden("junos", 4); }
TEST(GoldenDefended, MixedSequential) { CheckDefendedGolden("mixed", 1); }
TEST(GoldenDefended, MixedParallel) { CheckDefendedGolden("mixed", 4); }

}  // namespace
}  // namespace confanon
