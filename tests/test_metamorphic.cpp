// Metamorphic properties of the anonymizer.
//
// Instead of asserting exact outputs, these tests assert relations
// BETWEEN runs — the properties that gate the word-hashing hot path:
//
//  1. Determinism: the same salt gives byte-identical output at any
//     thread count (worker interleaving, and so which worker first
//     hashes a word, must not leak into the bytes).
//  2. Salt independence of structure: two different salts give outputs
//     that are pair-isomorphic under the map-free audit — renames
//     change, the reference structure does not.
//  3. Pass-list fixed points: words on the pass list survive bit-exact;
//     hashing never touches them.
//  4. Leak closure under iteration: re-anonymizing anonymized output
//     introduces no new leak findings — the fixed point of the paper's
//     Section 6.1 grep-back loop.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "audit/audit.h"
#include "config/document.h"
#include "core/anonymizer.h"
#include "core/leak_detector.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "junos/anonymizer.h"
#include "junos/writer.h"
#include "passlist/passlist.h"
#include "pipeline/pipeline.h"

namespace confanon {
namespace {

std::vector<config::ConfigFile> IosCorpus(std::uint64_t seed, int routers) {
  gen::GeneratorParams params;
  params.seed = seed;
  params.router_count = routers;
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

std::vector<config::ConfigFile> MixedCorpus(std::uint64_t seed) {
  const auto ios = IosCorpus(seed, 8);
  const auto junos = JunosCorpus(seed + 1, 8);
  std::vector<config::ConfigFile> mixed;
  for (std::size_t i = 0; i < std::max(ios.size(), junos.size()); ++i) {
    if (i < ios.size()) mixed.push_back(ios[i]);
    if (i < junos.size()) mixed.push_back(junos[i]);
  }
  return mixed;
}

std::vector<config::ConfigFile> RunPipeline(
    const std::vector<config::ConfigFile>& files, const std::string& salt,
    int threads) {
  core::ServiceOptions options;
  options.base.salt = salt;
  options.threads = threads;
  const auto context = pipeline::MakeServiceContext(std::move(options));
  pipeline::CorpusPipeline pipeline(context, context->CreateSession());
  return pipeline.AnonymizeCorpus(files);
}

// --- 1. Same salt, any thread count: byte-identical ---------------------

TEST(Metamorphic, SameSaltIsByteIdenticalAcrossThreadCounts) {
  const auto files = MixedCorpus(101);
  const auto baseline = RunPipeline(files, "meta-salt", 1);
  for (const int threads : {4, 8}) {
    const auto parallel = RunPipeline(files, "meta-salt", threads);
    ASSERT_EQ(baseline.size(), parallel.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      EXPECT_EQ(baseline[i].name(), parallel[i].name())
          << "threads=" << threads << " file " << i;
      EXPECT_EQ(baseline[i].ToText(), parallel[i].ToText())
          << "threads=" << threads << " " << baseline[i].name();
    }
  }
}

// --- 2. Two salts: outputs are pair-isomorphic --------------------------

TEST(Metamorphic, DifferentSaltsProduceIsomorphicOutputs) {
  // The salt only selects WHICH tokens replace identifiers, never the
  // structure: outputs under two salts must pair file-for-file by shape
  // and agree on every reference edge. ComparePair needs no maps, so it
  // can compare the two outputs directly.
  const auto files = MixedCorpus(102);
  const auto salt_a = RunPipeline(files, "meta-salt-a", 2);
  const auto salt_b = RunPipeline(files, "meta-salt-b", 2);

  const audit::AuditResult result = audit::ComparePair(salt_a, salt_b);
  EXPECT_FALSE(result.HasErrors()) << result.ToText();
  EXPECT_EQ(result.files_scanned, salt_a.size() + salt_b.size());
}

// --- 3. Pass-list words are bit-exact fixed points ----------------------

TEST(Metamorphic, PassListWordsAreFixedPoints) {
  // Premise: these words really are on the built-in pass list.
  const passlist::PassList pass_list = passlist::PassList::Builtin();
  for (const char* word : {"interface", "router", "bgp", "ip", "permit"}) {
    ASSERT_TRUE(pass_list.Contains(word)) << word;
  }

  const auto file = config::ConfigFile::FromText(
      "fixed.cfg",
      "interface Serial0\n"
      " ip address 10.1.2.3 255.255.255.0\n"
      "router bgp 65001\n"
      "ip prefix-list cust-list permit 10.0.0.0/8\n");

  core::AnonymizerOptions options;
  options.salt = "fixed-point-salt";
  core::Anonymizer engine(options);
  const auto post = engine.AnonymizeNetwork({file});
  ASSERT_EQ(post.size(), 1u);
  const std::string text = post[0].ToText();

  // Every pass-listed keyword survives verbatim (with its own word
  // boundaries — "router bgp" survives as a phrase).
  EXPECT_NE(text.find("interface Serial0"), std::string::npos) << text;
  EXPECT_NE(text.find("router bgp"), std::string::npos) << text;
  EXPECT_NE(text.find(" ip address "), std::string::npos) << text;
  EXPECT_NE(text.find("permit"), std::string::npos) << text;
  // ...while the non-pass-listed name was hashed away.
  EXPECT_EQ(text.find("cust-list"), std::string::npos) << text;
}

TEST(Metamorphic, JunosPassListWordsAreFixedPoints) {
  const passlist::PassList pass_list = junos::JunosPassList();
  for (const char* word : {"interfaces", "unit", "family", "inet"}) {
    ASSERT_TRUE(pass_list.Contains(word)) << word;
  }

  const auto file = config::ConfigFile::FromText(
      "fixed.conf",
      "interfaces {\n"
      "    ge-0/0/0 {\n"
      "        unit 0 {\n"
      "            family inet {\n"
      "                address 10.4.5.6/24;\n"
      "            }\n"
      "        }\n"
      "    }\n"
      "}\n");

  junos::JunosAnonymizerOptions options;
  options.salt = "fixed-point-salt";
  junos::JunosAnonymizer engine(options);
  const auto post = engine.AnonymizeNetwork({file});
  ASSERT_EQ(post.size(), 1u);
  const std::string text = post[0].ToText();
  EXPECT_NE(text.find("interfaces {"), std::string::npos) << text;
  EXPECT_NE(text.find("unit 0 {"), std::string::npos) << text;
  EXPECT_NE(text.find("family inet {"), std::string::npos) << text;
  EXPECT_EQ(text.find("10.4.5.6"), std::string::npos) << text;
}

// --- 4. Re-anonymizing output adds no new leak findings -----------------

TEST(Metamorphic, ReanonymizedOutputHasNoNewLeaks) {
  // First pass over the raw corpus; scan its output against its own leak
  // record (the Section 6.1 grep-back) as the baseline.
  const auto files = IosCorpus(103, 10);
  core::AnonymizerOptions options;
  options.salt = "leak-closure-salt";
  core::Anonymizer first(options);
  const auto once = first.AnonymizeNetwork(files);
  const auto first_findings = core::LeakDetector::Scan(once, first.leak_record());

  // Second pass over the anonymized output with a different salt: every
  // identifier the second pass replaced must be gone from its output —
  // anonymized text is a fixed point of the leak-refinement loop.
  core::AnonymizerOptions again;
  again.salt = "leak-closure-salt-2";
  core::Anonymizer second(again);
  const auto twice = second.AnonymizeNetwork(once);
  const auto second_findings =
      core::LeakDetector::Scan(twice, second.leak_record());
  EXPECT_LE(second_findings.size(), first_findings.size());
  for (const auto& finding : second_findings) {
    ADD_FAILURE() << "new leak finding after re-anonymization: "
                  << finding.file << ":" << finding.line_number << " '"
                  << finding.matched << "' in: " << finding.line;
  }
}

TEST(Metamorphic, ReanonymizedJunosOutputHasNoNewLeaks) {
  const auto files = JunosCorpus(104, 10);
  junos::JunosAnonymizerOptions options;
  options.salt = "leak-closure-salt";
  junos::JunosAnonymizer first(options);
  const auto once = first.AnonymizeNetwork(files);

  junos::JunosAnonymizerOptions again;
  again.salt = "leak-closure-salt-2";
  junos::JunosAnonymizer second(again);
  const auto twice = second.AnonymizeNetwork(once);
  const auto findings = core::LeakDetector::Scan(twice, second.leak_record());
  for (const auto& finding : findings) {
    ADD_FAILURE() << "new leak finding after re-anonymization: "
                  << finding.file << ":" << finding.line_number << " '"
                  << finding.matched << "' in: " << finding.line;
  }
}

}  // namespace
}  // namespace confanon
