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
// JunosAnonymizer is that rule pack and nothing else: the file loop, the
// preload, line observation, the hooks and the metric sync belong to the
// shared line engine (core::AnonymizerEngine, core/engine.h), the same
// code that runs the IOS rules. Construct it over the SAME NetworkState (or
// just the same salt) as an IOS engine and the mappings agree (tested) —
// which is how the pipeline routes a mixed IOS/JunOS corpus through one
// consistent mapping.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "asn/regex_rewrite.h"
#include "config/document.h"
#include "core/engine.h"
#include "core/network_state.h"
#include "junos/tokenizer.h"
#include "passlist/passlist.h"

namespace confanon::core {
struct AnonymizerOptions;
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

/// The JunOS-applicable subset of a context's engine options: salt,
/// regexp form, comment stripping and extras. Rule toggles, the IOS
/// pass-list and known entities have no JunOS counterpart.
JunosAnonymizerOptions JunosOptionsFrom(const core::AnonymizerOptions& options);

/// The JunOS rule pack over the shared line engine (core/engine.h). Its
/// metrics carry a "junos." prefix so a mixed IOS/JunOS run can share one
/// registry without colliding ("junos.report.*", "junos.line_ns"); rule
/// counters keep their globally unique "J." names under "junos.rule.J.*".
/// Regexp rewrite costs land in the shared "asn.rewrite_*" metrics.
class JunosAnonymizer : public core::AnonymizerEngine {
 public:
  /// Standalone engine owning a fresh NetworkState.
  explicit JunosAnonymizer(JunosAnonymizerOptions options);
  /// Engine over an existing (possibly shared) NetworkState — the mixed-
  /// dialect / pipeline-worker form; see core::Anonymizer's counterpart.
  JunosAnonymizer(JunosAnonymizerOptions options,
                  std::shared_ptr<core::NetworkState> state);
  /// Session-API form (see core/session.h): an engine over `session`'s
  /// shared state, taking JunosOptionsFrom the context's engine options
  /// for the session. Equivalent to what the context's kJunos factory
  /// (pipeline::MakeServiceContext) builds.
  JunosAnonymizer(const core::ServiceContext& context,
                  const core::Session& session);

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

 private:
  /// Resets the block-comment state.
  void BeginFile(const config::ConfigFile& file) override;
  /// One raw input line end-to-end: block-comment handling, tokenization,
  /// rule pack, rendering.
  void AnonymizeLine(const config::ConfigFile& file, std::size_t index,
                     std::vector<std::string>& out_lines) override;
  void ProcessLine(JunosLine& line);
  /// Force-hashes the word token at `index` (records it when unknown).
  void ForceHash(JunosLine& line, std::size_t index, const char* rule);
  /// Replaces `token` with its hash token (quoted for kString tokens).
  void HashToken(Token& token);
  std::string MapAsnText(std::string_view text);

  JunosAnonymizerOptions options_;
  bool in_block_comment_ = false;
  /// Reused across lines so tokenize allocates nothing in steady state.
  JunosLine line_buf_;
};

}  // namespace confanon::junos
