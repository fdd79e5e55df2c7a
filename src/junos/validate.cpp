#include "junos/validate.h"

#include "junos/design_extract.h"

namespace confanon::junos {

analysis::ValidationResult ValidateJunosNetwork(
    const std::vector<config::ConfigFile>& pre,
    const std::vector<config::ConfigFile>& post,
    JunosAnonymizer& anonymizer) {
  analysis::ValidationResult result;

  const analysis::NetworkDesign pre_design = ExtractJunosDesign(pre);
  const analysis::NetworkDesign post_design = ExtractJunosDesign(post);

  const passlist::PassList& junos_words = *SharedJunosPassList();
  const auto name_map = [&](const std::string& name) -> std::string {
    if (junos_words.PassesWord(name)) return name;
    return anonymizer.string_hasher().Hash(name);
  };
  const auto addr_map = [&](net::Ipv4Address address) {
    return anonymizer.ip_anonymizer().Map(address);
  };
  const auto asn_map = [&](std::uint32_t asn) {
    return anonymizer.asn_map().Map(asn);
  };

  const analysis::NetworkDesign expected =
      analysis::MapDesign(pre_design, name_map, addr_map, asn_map);
  result.design_diffs = analysis::CompareDesigns(expected, post_design);
  result.design_match = result.design_diffs.empty();

  result.structural_diffs =
      analysis::CompareStructural(pre_design, post_design);
  result.structural_match = result.structural_diffs.empty();

  // Suite 1 (characteristics) is IOS-syntax-specific; derive the
  // equivalent invariants from the designs instead.
  result.characteristics_match =
      pre_design.routers.size() == post_design.routers.size() &&
      pre_design.links.size() == post_design.links.size() &&
      pre_design.bgp_sessions.size() == post_design.bgp_sessions.size();
  if (!result.characteristics_match) {
    result.characteristics_diffs.push_back(
        "router/link/session counts differ");
  }
  return result;
}

}  // namespace confanon::junos
