// Committed-golden byte identity for the map-free auditor's reports.
// tests/data/golden/audit/ holds the text confanon_audit printed for the
// committed golden corpora:
//   lint-<corpus>.txt        residue lint of pre-*, post-* and defended-*;
//   pair-post-<mode>.txt     pre-<mode> against post-<mode>;
//   pair-defended-<mode>.txt pre-<mode> against defended-<mode> (plain
//                            pair mode, so the decoys show as findings).
// Corpora load the way the CLI loads a directory: sorted by file name,
// one trailing ".cfg" stripped. Findings, their order, the summary line
// and every stats counter must come out byte-identical at 1 and 4
// threads.
#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "config/document.h"
#include "util/io.h"

namespace confanon {
namespace {

std::filesystem::path GoldenDir(const std::string& leaf) {
  return std::filesystem::path(CONFANON_TEST_DATA_DIR) / "golden" / leaf;
}

std::vector<config::ConfigFile> LoadCorpus(const std::string& leaf) {
  std::vector<std::filesystem::path> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(GoldenDir(leaf))) {
    paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  std::vector<config::ConfigFile> files;
  for (const auto& path : paths) {
    std::string error;
    auto contents = util::ReadFileContents(path.string(), &error);
    EXPECT_TRUE(contents.has_value()) << error;
    std::string name = path.filename().string();
    if (name.size() > 4 && name.ends_with(".cfg")) name.resize(name.size() - 4);
    files.push_back(config::ConfigFile::FromBacking(
        std::move(name), contents->view, std::move(contents->backing)));
  }
  return files;
}

void ExpectGoldenText(const std::string& leaf, const std::string& actual) {
  const std::filesystem::path golden = GoldenDir("audit") / leaf;
  std::string error;
  const auto expected = util::ReadFileFully(golden.string(), &error);
  ASSERT_TRUE(expected.has_value()) << error;
  EXPECT_EQ(actual, *expected) << "audit report drift vs " << golden.string();
}

void CheckGoldenAudit(const std::string& mode, int threads) {
  SCOPED_TRACE("mode=" + mode + " threads=" + std::to_string(threads));
  audit::AuditOptions options;
  options.threads = threads;
  const std::vector<config::ConfigFile> pre = LoadCorpus("pre-" + mode);
  ASSERT_FALSE(pre.empty());
  for (const std::string side : {"pre", "post", "defended"}) {
    const std::string corpus = side + "-" + mode;
    ExpectGoldenText("lint-" + corpus + ".txt",
                     audit::LintCorpus(LoadCorpus(corpus), options).ToText());
  }
  for (const std::string side : {"post", "defended"}) {
    ExpectGoldenText(
        "pair-" + side + "-" + mode + ".txt",
        audit::ComparePair(pre, LoadCorpus(side + "-" + mode), options)
            .ToText());
  }
}

TEST(GoldenAudit, IosSequential) { CheckGoldenAudit("ios", 1); }
TEST(GoldenAudit, IosParallel) { CheckGoldenAudit("ios", 4); }
TEST(GoldenAudit, JunosSequential) { CheckGoldenAudit("junos", 1); }
TEST(GoldenAudit, JunosParallel) { CheckGoldenAudit("junos", 4); }
TEST(GoldenAudit, MixedSequential) { CheckGoldenAudit("mixed", 1); }
TEST(GoldenAudit, MixedParallel) { CheckGoldenAudit("mixed", 4); }

}  // namespace
}  // namespace confanon
