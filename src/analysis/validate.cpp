#include "analysis/validate.h"

#include "analysis/characteristics.h"
#include "analysis/design_extract.h"
#include "net/special.h"

namespace confanon::analysis {

ValidationResult ValidateNetwork(const std::vector<config::ConfigFile>& pre,
                                 const std::vector<config::ConfigFile>& post,
                                 core::Anonymizer& anonymizer) {
  ValidationResult result;

  // Suite 1: independent characteristics.
  const NetworkCharacteristics pre_stats = ExtractCharacteristics(pre);
  const NetworkCharacteristics post_stats = ExtractCharacteristics(post);
  result.characteristics_diffs = pre_stats.DiffAgainst(post_stats);
  result.characteristics_match = result.characteristics_diffs.empty();

  // Suite 2: routing design, compared exactly under the anonymizer's maps.
  const NetworkDesign pre_design = ExtractDesign(pre);
  const NetworkDesign post_design = ExtractDesign(post);

  const auto name_map = [&](const std::string& name) -> std::string {
    // Replicates the anonymizer's word policy: a word survives iff all of
    // its alphabetic segments are pass-listed; hostnames never are in
    // practice (and are force-hashed by rule M4 regardless).
    if (anonymizer.pass_list().PassesWord(name)) return name;
    return anonymizer.string_hasher().Hash(name);
  };
  const auto addr_map = [&](net::Ipv4Address address) {
    return anonymizer.ip_anonymizer().Map(address);
  };
  const auto asn_map = [&](std::uint32_t asn) {
    return anonymizer.asn_map().Map(asn);
  };

  const NetworkDesign expected =
      MapDesign(pre_design, name_map, addr_map, asn_map);
  result.design_diffs = CompareDesigns(expected, post_design);
  result.design_match = result.design_diffs.empty();

  result.structural_diffs = CompareStructural(pre_design, post_design);
  result.structural_match = result.structural_diffs.empty();
  return result;
}

}  // namespace confanon::analysis
