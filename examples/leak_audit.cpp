// Leak audit demo (paper Section 6.1).
//
// Deliberately cripples the anonymizer (several context rules disabled),
// anonymizes a network, and shows the grep-back highlighter catching the
// survivors — the workflow the paper used to converge on its 28 rules.
#include <iostream>
#include <vector>

#include "core/anonymizer.h"
#include "core/leak_detector.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"

int main() {
  using namespace confanon;

  gen::GeneratorParams params;
  params.seed = 99;
  params.router_count = 14;
  params.p_community_regex = 1.0;
  const auto network = gen::GenerateNetwork(params, 0);
  const auto pre = gen::WriteNetworkConfigs(network);

  struct Scenario {
    const char* label;
    std::vector<core::Rule> disabled;
  };
  const Scenario scenarios[] = {
      {"full rule set", {}},
      {"A1 router-bgp disabled", {core::Rule::kRouterBgp}},
      {"A6 as-path-regex disabled", {core::Rule::kAsPathRegex}},
      {"A1+A6+A10 disabled",
       {core::Rule::kRouterBgp, core::Rule::kAsPathRegex,
        core::Rule::kSetCommunity}},
  };

  for (const Scenario& scenario : scenarios) {
    core::AnonymizerOptions options;
    options.salt = "audit-salt";
    for (const core::Rule rule : scenario.disabled) {
      options.disabled_rules.emplace(core::RuleName(rule));
    }
    core::Anonymizer anonymizer(std::move(options));
    const auto post = anonymizer.AnonymizeNetwork(pre);
    const auto findings =
        core::LeakDetector::Scan(post, anonymizer.leak_record());
    std::cout << scenario.label << ": " << findings.size()
              << " highlighted lines\n";
    std::size_t shown = 0;
    for (const auto& finding : findings) {
      if (++shown > 3) break;
      std::cout << "    [" << finding.matched << "] " << finding.line << "\n";
    }
  }
  std::cout << "\nThe operator maps each highlight to a missing rule and "
               "re-runs — the paper's\niteration 'closes quickly, requiring "
               "fewer than 5 iterations' (see bench_iteration).\n";
  return 0;
}
