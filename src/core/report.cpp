#include "core/report.h"

#include <cstdio>
#include <sstream>

namespace confanon::core {

namespace {

/// The scalar fields in JSON order, by name: what Merge adds, WriteJson
/// writes and SyncReportDeltas exports as "report.<name>".
struct ScalarField {
  const char* name;
  std::uint64_t AnonymizationReport::*member;
};

constexpr ScalarField kScalarFields[] = {
    {"total_lines", &AnonymizationReport::total_lines},
    {"total_words", &AnonymizationReport::total_words},
    {"comment_words_removed", &AnonymizationReport::comment_words_removed},
    {"words_hashed", &AnonymizationReport::words_hashed},
    {"words_passed", &AnonymizationReport::words_passed},
    {"addresses_mapped", &AnonymizationReport::addresses_mapped},
    {"addresses_special", &AnonymizationReport::addresses_special},
    {"asns_mapped", &AnonymizationReport::asns_mapped},
    {"communities_mapped", &AnonymizationReport::communities_mapped},
    {"aspath_regexps_rewritten",
     &AnonymizationReport::aspath_regexps_rewritten},
    {"community_regexps_rewritten",
     &AnonymizationReport::community_regexps_rewritten},
};

}  // namespace

void AnonymizationReport::Merge(const AnonymizationReport& other) {
  for (std::size_t i = 0; i < kRuleCount; ++i) fires[i] += other.fires[i];
  for (const ScalarField& field : kScalarFields) {
    this->*field.member += other.*field.member;
  }
}

std::string AnonymizationReport::ToString() const {
  // Two-decimal percent; with no words at all (empty corpus) the fraction
  // is undefined, so render "n/a" rather than a misleading 0.00%.
  char percent[32];
  if (total_words == 0) {
    std::snprintf(percent, sizeof(percent), "n/a");
  } else {
    std::snprintf(percent, sizeof(percent), "%.2f%%",
                  CommentWordFraction() * 100.0);
  }
  std::ostringstream out;
  out << "lines=" << total_lines << " words=" << total_words
      << " comment_words_removed=" << comment_words_removed << " ("
      << percent << ")\n"
      << "words_hashed=" << words_hashed << " words_passed=" << words_passed
      << "\n"
      << "addresses_mapped=" << addresses_mapped
      << " addresses_special=" << addresses_special << "\n"
      << "asns_mapped=" << asns_mapped
      << " communities_mapped=" << communities_mapped << "\n"
      << "aspath_regexps_rewritten=" << aspath_regexps_rewritten
      << " community_regexps_rewritten=" << community_regexps_rewritten
      << "\n";
  for (const RuleInfo& rule : kRuleTable) {
    if (const std::uint64_t count = Fires(rule.id); count != 0) {
      out << "  rule " << rule.name << ": " << count << "\n";
    }
  }
  return out.str();
}

void AnonymizationReport::WriteJson(obs::JsonWriter& out) const {
  out.BeginObject();
  for (const ScalarField& field : kScalarFields) {
    out.Key(field.name).Value(this->*field.member);
    if (field.member == &AnonymizationReport::comment_words_removed) {
      out.Key("comment_word_fraction").Value(CommentWordFraction());
    }
  }
  out.Key("rule_fires").BeginObject();
  for (const RuleInfo& rule : kRuleTable) {
    if (const std::uint64_t count = Fires(rule.id); count != 0) {
      out.Key(rule.name).Value(count);
    }
  }
  out.EndObject();
  out.EndObject();
}

std::string AnonymizationReport::ToJson() const {
  obs::JsonWriter out;
  WriteJson(out);
  return out.Take();
}

void SyncReportDeltas(const AnonymizationReport& current,
                      AnonymizationReport& base,
                      obs::MetricsRegistry& registry,
                      const std::string& prefix) {
  const std::string report_prefix = prefix + "report.";
  for (const ScalarField& field : kScalarFields) {
    obs::SyncCounter(registry, report_prefix, field.name,
                     current.*field.member, base.*field.member);
  }
  const std::string rule_prefix = prefix + "rule.";
  for (const RuleInfo& rule : kRuleTable) {
    const std::size_t i = RuleIndex(rule.id);
    obs::SyncCounter(registry, rule_prefix, rule.name, current.fires[i],
                     base.fires[i]);
  }
}

}  // namespace confanon::core
