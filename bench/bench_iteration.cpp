// ITER — reproduces the iterative rule-refinement methodology of paper
// Section 6.1: "After anonymizing configs, we highlight for a human
// operator lines that seem likely to leak information ... lines they
// believe are dangerous are used to add more rules to the anonymizer.
// Our experience is that the iteration closes quickly, requiring fewer
// than 5 iterations over 3 months to anonymize 4.3 million lines."
//
// We start the anonymizer with six context rules missing, anonymize a
// corpus, run the leak detector (grep-back of recorded ASNs and names,
// exactly the paper's highlighter), and play the operator: each finding
// is mapped to the rule that would have handled its line, that rule is
// enabled, and the corpus is re-anonymized. The reproduction target is
// convergence to zero actionable findings in < 5 iterations.
//
// Also includes the pass-list coverage ablation: with a truncated
// pass-list nothing *leaks more* (hashing is the safe direction) but the
// fraction of structure destroyed (words hashed) rises.
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/anonymizer.h"
#include "core/leak_detector.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "util/strings.h"

namespace {

using namespace confanon;

/// The operator oracle: which rule would handle this leaking line?
std::optional<core::Rule> RuleForLine(const std::string& line) {
  const std::string lower = util::ToLower(line);
  if (lower.find("as-path access-list") != std::string::npos) {
    return core::Rule::kAsPathRegex;
  }
  if (lower.find("community-list") != std::string::npos) {
    return core::Rule::kCommunityListRegex;
  }
  if (lower.find("set community") != std::string::npos) {
    return core::Rule::kSetCommunity;
  }
  if (lower.find("confederation") != std::string::npos) {
    return core::Rule::kConfedPeers;
  }
  if (lower.find("router bgp") != std::string::npos) {
    return core::Rule::kRouterBgp;
  }
  if (lower.find("remote-as") != std::string::npos) {
    return core::Rule::kNeighborRemoteAs;
  }
  if (lower.find("dialer") != std::string::npos) {
    return core::Rule::kDialerStrings;
  }
  if (lower.find("snmp") != std::string::npos) {
    return core::Rule::kSnmpStrings;
  }
  return std::nullopt;
}

}  // namespace

int main() {
  using namespace confanon;

  // Corpus: a handful of networks with all policy features forced on so
  // every disabled rule has something to miss.
  std::vector<config::ConfigFile> pre;
  for (int i = 0; i < 6; ++i) {
    gen::GeneratorParams params;
    params.seed = 777 + static_cast<std::uint64_t>(i);
    params.router_count = 20;
    params.p_public_range_regex = 1.0;
    params.p_alternation_regex = 1.0;
    params.p_community_regex = 1.0;
    const auto network = gen::GenerateNetwork(params, i);
    for (auto& file : gen::WriteNetworkConfigs(network)) {
      pre.push_back(std::move(file));
    }
  }
  std::size_t total_lines = 0;
  for (const auto& file : pre) total_lines += file.LineCount();

  std::set<std::string> disabled;
  for (const core::Rule rule :
       {core::Rule::kRouterBgp, core::Rule::kAsPathRegex,
        core::Rule::kCommunityListRegex, core::Rule::kSetCommunity,
        core::Rule::kConfedPeers, core::Rule::kSnmpStrings}) {
    disabled.emplace(core::RuleName(rule));
  }

  std::printf("== ITER: leak-closure iteration (paper Section 6.1) ==\n");
  std::printf("corpus: %zu files, %zu lines; starting with %zu rules "
              "disabled\n\n",
              pre.size(), total_lines, disabled.size());

  int iterations = 0;
  std::size_t residual_actionable = 0;
  std::size_t residual_false_positives = 0;
  for (; iterations < 10; ++iterations) {
    core::AnonymizerOptions options;
    options.salt = "iter-salt";
    options.disabled_rules = disabled;
    core::Anonymizer anonymizer(std::move(options));
    const auto post = anonymizer.AnonymizeNetwork(pre);
    const auto findings =
        core::LeakDetector::Scan(post, anonymizer.leak_record());

    // The operator pass: a highlighted line is actionable if a known rule
    // would handle it AND that rule is currently off; the remaining
    // highlights are number collisions — anonymized values that happen to
    // equal some recorded original (the paper's Genuity AS-1 effect,
    // amplified here because rewritten regexps contain many integers).
    std::set<std::string> to_enable;
    std::size_t actionable = 0;
    for (const auto& finding : findings) {
      const std::optional<core::Rule> rule = RuleForLine(finding.line);
      if (!rule) continue;
      std::string name(core::RuleName(*rule));
      if (disabled.contains(name)) {
        ++actionable;
        to_enable.insert(std::move(name));
      }
    }
    residual_actionable = actionable;
    residual_false_positives = findings.size() - actionable;
    std::printf("iteration %d: %zu highlighted lines (%zu actionable), "
                "operator adds %zu rules\n",
                iterations + 1, findings.size(), actionable,
                to_enable.size());
    if (to_enable.empty()) break;
    for (const auto& rule : to_enable) disabled.erase(rule);
  }

  std::printf("\n%-40s %10s %10s\n", "metric", "paper", "measured");
  std::printf("%-40s %10s %10d\n", "iterations to close", "< 5",
              iterations + 1);
  std::printf("%-40s %10s %10zu\n", "residual actionable findings", "0",
              residual_actionable);
  std::printf("%-40s %10s %10zu\n",
              "residual false-positive highlights", "(some)",
              residual_false_positives);

  // --- pass-list coverage ablation ---
  std::printf("\n-- ablation: pass-list coverage vs structure destroyed --\n");
  std::printf("%-22s %16s %16s\n", "pass-list fraction", "words hashed",
              "words passed");
  bool monotone = true;
  std::uint64_t previous_hashed = 0;
  for (double keep : {1.0, 0.75, 0.5, 0.25}) {
    core::AnonymizerOptions options;
    options.salt = "ablate";
    options.pass_list = std::make_shared<const passlist::PassList>(
        passlist::PassList::SharedBuiltin()->Truncated(keep, 0xAB1A7E));
    core::Anonymizer anonymizer(std::move(options));
    anonymizer.AnonymizeNetwork(pre);
    const auto& report = anonymizer.report();
    std::printf("%-22.2f %16llu %16llu\n", keep,
                static_cast<unsigned long long>(report.words_hashed),
                static_cast<unsigned long long>(report.words_passed));
    if (report.words_hashed < previous_hashed) monotone = false;
    previous_hashed = report.words_hashed;
  }
  std::printf("hashing grows as coverage shrinks: %s\n",
              monotone ? "HOLDS" : "DOES NOT HOLD");

  const bool reproduced =
      iterations + 1 < 5 && residual_actionable == 0 && monotone;
  std::printf("\nresult: %s\n", reproduced ? "REPRODUCED" : "MISMATCH");
  return reproduced ? 0 : 1;
}
