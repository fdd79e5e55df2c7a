// JunOS-mode anonymizer.
//
// Exercises the paper's claim (Section 1, footnote 2) that the IOS
// anonymization techniques "are directly applicable to JunOS and other
// router configuration languages": the same primitives — salted-SHA1
// hashing with referential integrity, the prefix-preserving IP map, the
// keyed ASN permutation, community anonymization and regexp language
// rewriting — are driven by a JunOS-specific rule pack over the
// hierarchical brace syntax:
//
//   * comments are '/* ... */' blocks and trailing '#' text, stripped;
//   * free text lives in quoted strings after `description` / `message`,
//     stripped;
//   * `host-name` / `domain-name` arguments are force-hashed;
//   * `peer-as N;` / `autonomous-system N;` carry ASNs;
//   * `as-path NAME "REGEX";` and `community NAME members "REGEX";` carry
//     policy regexps (rewritten by language computation);
//   * `members [ 701:120 ... ]` carries community literals;
//   * `as-path-prepend "N N";` carries ASNs inside a quoted string;
//   * addresses appear in CIDR form ("address 1.2.3.4/30;"), mapped by
//     the shared trie.
//
// JunosAnonymizer implements core::AnonymizerEngine over a
// core::NetworkState: construct it with the SAME state (or just the same
// salt) as an IOS engine and the mappings agree (tested) — which is how
// the pipeline routes a mixed IOS/JunOS corpus through one consistent
// mapping.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "asn/asn_map.h"
#include "asn/community.h"
#include "asn/regex_rewrite.h"
#include "config/document.h"
#include "core/engine.h"
#include "core/leak_detector.h"
#include "core/network_state.h"
#include "core/report.h"
#include "core/string_hasher.h"
#include "ipanon/ip_anonymizer.h"
#include "junos/tokenizer.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "passlist/passlist.h"
#include "util/arena.h"

namespace confanon::core {
class ServiceContext;
class Session;
}  // namespace confanon::core

namespace confanon::junos {

/// The embedded IOS corpus extended with JunOS keywords, as a fresh copy.
passlist::PassList JunosPassList();

/// The same list, built once per process and shared read-only: every
/// JunOS engine without extras borrows it.
const std::shared_ptr<const passlist::PassList>& SharedJunosPassList();

struct JunosAnonymizerOptions {
  std::string salt = "default-salt";
  asn::RewriteForm regex_form = asn::RewriteForm::kAlternation;
  bool strip_comments = true;
  /// Additional entries merged on top of JunosPassList() — the JunOS leg
  /// of core::AnonymizerOptions::extra_pass_list (tenant pass-lists).
  passlist::PassList extra_pass_list;
};

class JunosAnonymizer : public core::AnonymizerEngine {
 public:
  /// Standalone engine owning a fresh NetworkState.
  explicit JunosAnonymizer(JunosAnonymizerOptions options);
  /// Engine over an existing (possibly shared) NetworkState — the mixed-
  /// dialect / pipeline-worker form; see core::Anonymizer's counterpart.
  JunosAnonymizer(JunosAnonymizerOptions options,
                  std::shared_ptr<core::NetworkState> state);
  /// Session-API form (see core/session.h): an engine over `session`'s
  /// shared state, taking the JunOS-applicable subset of the context's
  /// engine options with the session's salt. Equivalent to what the
  /// context's kJunos factory (pipeline::MakeServiceContext) builds.
  JunosAnonymizer(const core::ServiceContext& context,
                  const core::Session& session);

  std::vector<config::ConfigFile> AnonymizeNetwork(
      const std::vector<config::ConfigFile>& files) override;
  /// Anonymizes a single file. When no corpus-wide preload has happened
  /// yet, this file's own addresses are preloaded first (the file-local
  /// form of the IOS rule I7 guarantee).
  config::ConfigFile AnonymizeFile(const config::ConfigFile& file) override;

  /// JunOS options declare no known entities; writes nothing.
  void ExportKnownEntities(std::ostream& out) override;

  const core::AnonymizationReport& report() const override { return report_; }
  const core::LeakRecord& leak_record() const override { return leak_record_; }
  const asn::AsnMap& asn_map() const { return state_->asn_map; }
  ipanon::IpAnonymizer& ip_anonymizer() { return state_->ip; }
  core::StringHasher& string_hasher() { return state_->hasher; }

  const std::shared_ptr<core::NetworkState>& state() const override {
    return state_;
  }

  /// Collects every non-special IP address literal in `file` under JunOS
  /// tokenization (for the corpus-wide preload pass).
  static void CollectFileAddresses(const config::ConfigFile& file,
                                   std::vector<net::Ipv4Address>& out);

  /// JunOS counterpart of core::Anonymizer::CollectHashCandidates:
  /// unquoted word/string tokens whose segments fail `pass_list`. Views
  /// alias the file's lines. Only the benchmark replay's memo prewarm
  /// calls this (see core/hash_batcher.h).
  static void CollectHashCandidates(const config::ConfigFile& file,
                                    const passlist::PassList& pass_list,
                                    std::vector<std::string_view>& out);

  // --- observability (optional, non-owning; see core::Anonymizer) ---
  // Metric names carry a "junos." prefix so a mixed IOS/JunOS run can
  // share one registry without colliding ("junos.report.*",
  // "junos.line_ns"); rule counters keep their globally unique "J." names
  // under "junos.rule.J.*".

  /// Installs all observability hooks in one shot.
  void install_hooks(const obs::Hooks& hooks) override;
  void SyncMetrics() override;

 private:
  void ApplyHooks();
  void ProcessLine(JunosLine& line);
  /// One raw input line end-to-end: block-comment handling, tokenization,
  /// rule pack, rendering.
  void AnonymizeLine(std::string_view raw,
                     std::vector<std::string>& out_lines);
  /// AnonymizeLine under timing + rule attribution (see core::Anonymizer).
  void ObserveLine(const std::string& file_name, std::size_t index,
                   std::string_view raw, std::vector<std::string>& out_lines,
                   std::map<std::string, std::uint64_t>& rule_ns);
  /// Force-hashes the word token at `index` (records it when unknown).
  void ForceHash(JunosLine& line, std::size_t index, const char* rule);
  /// Replaces `token` with its hash token (quoted for kString tokens).
  void HashToken(Token& token);
  std::string MapAsnText(std::string_view text);

  JunosAnonymizerOptions options_;
  /// SharedJunosPassList() itself, or a merged copy when there are extras.
  std::shared_ptr<const passlist::PassList> pass_list_;
  /// Whether state_ was handed in (pipeline worker / mixed-dialect run)
  /// rather than owned; shared trie counters are then synced centrally.
  bool shared_state_ = false;
  std::shared_ptr<core::NetworkState> state_;
  core::AnonymizationReport report_;
  core::LeakRecord leak_record_;
  bool in_block_comment_ = false;

  obs::Hooks hooks_;
  obs::Tracer tracer_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::ProvenanceLog* provenance_ = nullptr;
  obs::LatencyHistogram* line_hist_ = nullptr;
  obs::LatencyHistogram* file_hist_ = nullptr;
  obs::LatencyHistogram* tokenize_hist_ = nullptr;
  core::AnonymizationReport synced_report_;
  ipanon::IpAnonymizer::Stats synced_ip_;
  std::uint64_t synced_arena_bytes_ = 0;
  std::uint64_t synced_arena_resets_ = 0;

  /// Per-file scratch for rewritten/quoted token text; reset at file
  /// boundaries, after the file's lines have been rendered.
  util::Arena arena_;
  /// Reused across lines so tokenize allocates nothing in steady state.
  JunosLine line_buf_;
};

}  // namespace confanon::junos
