// The configuration anonymizer — the paper's primary contribution.
//
// The anonymizer rewrites a network's config files so that every element
// that could tie the data to the owner is removed or transformed while the
// structure of the information survives:
//
//   * free text (comments, banners, description/remark payloads) is
//     stripped outright (Section 4.2);
//   * every word whose alphabetic segments are not all on the pass-list is
//     replaced by a salted-SHA1 token, consistently across all files of
//     the network (Section 4.1) — this preserves referential integrity of
//     route-map names, ACL names, hostnames and every other identifier;
//   * IP addresses go through the class-, subnet- and prefix-relationship-
//     preserving map of src/ipanon (Section 4.3), with netmasks and other
//     special addresses passed through;
//   * public ASNs go through a keyed random permutation, including ASNs
//     reachable only through regular expressions, which are rewritten via
//     language computation (Section 4.4);
//   * BGP communities are anonymized in both halves, in literals and in
//     regexps (Section 4.5).
//
// Mechanically, the anonymizer is an ordered list of 28 context rules
// (Section 4.2 counts them: 2 tokenization + 3 comment + 4 miscellaneous
// + 12 ASN-location + 7 IP/context rules) applied line by line, with no
// full grammar — by design, since no consistent grammar exists across the
// 200+ IOS versions the tool must survive (Section 3).
//
// All mapping state (hash memo, IP trie, ASN permutation) lives in a
// core::NetworkState shared by every engine of one network: one state ==
// one network. An Anonymizer constructed standalone owns a fresh state; a
// pipeline constructs several engines over one shared state so files can
// be anonymized in parallel (and across dialects) with full referential
// integrity.
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "asn/asn_map.h"
#include "asn/community.h"
#include "asn/regex_rewrite.h"
#include "config/document.h"
#include "config/tokenizer.h"
#include "core/engine.h"
#include "core/leak_detector.h"
#include "core/network_state.h"
#include "core/report.h"
#include "core/string_hasher.h"
#include "ipanon/ip_anonymizer.h"
#include "net/prefix.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "obs/provenance.h"
#include "obs/trace.h"
#include "passlist/passlist.h"
#include "util/arena.h"

namespace confanon::core {

struct AnonymizerOptions {
  /// The network owner's secret; drives every mapping.
  std::string salt = "default-salt";
  /// How rewritten policy regexps are rendered.
  asn::RewriteForm regex_form = asn::RewriteForm::kAlternation;
  /// Strip comments/banners/description payloads. On by default; the
  /// ablation benches turn it off to measure what leaks through.
  bool strip_comments = true;
  /// Rule names to disable, for the iterative-refinement experiment
  /// (Section 6.1) where an initially incomplete rule set is grown until
  /// the leak detector comes back clean.
  std::set<std::string> disabled_rules;
  /// The IOS pass-list to consult (never null). Defaults to the embedded
  /// corpus, built once per process and shared: copying the options or
  /// building an engine borrows the list instead of copying ~2k entries.
  /// The coverage ablation passes a Truncated() copy.
  std::shared_ptr<const passlist::PassList> pass_list =
      passlist::PassList::SharedBuiltin();
  /// Additional entries merged on top of the dialect baseline. Unlike
  /// `pass_list` (which *replaces* the IOS baseline and is ignored by the
  /// JunOS engine), extras apply in every dialect — this is the field the
  /// daemon's per-tenant pass-lists land in, and the one the static
  /// policy verifier (src/verify) checks before a session may be created.
  /// An engine with extras builds its own merged list; without them it
  /// borrows the shared baseline.
  passlist::PassList extra_pass_list;

  /// Known external entities (paper Section 5): "it might be well known
  /// that all addresses used by AS number X have prefix Y ... If the
  /// anonymizer is provided with the well known external information on
  /// which the implicit relationship is based, it can be extended to
  /// preserve these relationships as well." Each declared entity groups
  /// public ASNs and prefixes that belong to one real-world organization;
  /// the anonymizer emits the *anonymized* grouping (ExportKnownEntities)
  /// so researchers can re-link the two mechanisms without learning who
  /// the entity is.
  struct KnownEntity {
    std::string label;  // never emitted; operator-side bookkeeping only
    std::vector<std::uint32_t> asns;
    std::vector<net::Prefix> prefixes;
  };
  std::vector<KnownEntity> known_entities;
};

/// Stable rule names (also the keys in AnonymizationReport::rule_fires).
/// See Section 4.2's accounting of the 28 rules.
namespace rules {
// Tokenization (2)
inline constexpr char kSegmentWords[] = "T1.segment-words";
inline constexpr char kPasslistHash[] = "T2.passlist-hash";
// Comment stripping (3)
inline constexpr char kStripBangComments[] = "C1.strip-bang-comments";
inline constexpr char kStripFreeText[] = "C2.strip-free-text";
inline constexpr char kStripBanners[] = "C3.strip-banners";
// Miscellaneous (4)
inline constexpr char kDialerStrings[] = "M1.dialer-strings";
inline constexpr char kSnmpStrings[] = "M2.snmp-strings";
inline constexpr char kSecrets[] = "M3.secrets";
inline constexpr char kNameArguments[] = "M4.name-arguments";
// ASN location (12)
inline constexpr char kRouterBgp[] = "A1.router-bgp";
inline constexpr char kNeighborRemoteAs[] = "A2.neighbor-remote-as";
inline constexpr char kNeighborLocalAs[] = "A3.neighbor-local-as";
inline constexpr char kConfedIdentifier[] = "A4.confederation-identifier";
inline constexpr char kConfedPeers[] = "A5.confederation-peers";
inline constexpr char kAsPathRegex[] = "A6.as-path-regex";
inline constexpr char kAsPathPrepend[] = "A7.as-path-prepend";
inline constexpr char kCommunityListLiteral[] = "A8.community-list-literal";
inline constexpr char kCommunityListRegex[] = "A9.community-list-regex";
inline constexpr char kSetCommunity[] = "A10.set-community";
inline constexpr char kSetExtcommunity[] = "A11.set-extcommunity";
inline constexpr char kAsnAudit[] = "A12.asn-audit";
// IP handling (7)
inline constexpr char kMapAddresses[] = "I1.map-addresses";
inline constexpr char kSpecialPassthrough[] = "I2.special-passthrough";
inline constexpr char kMapPrefixes[] = "I3.map-cidr-prefixes";
inline constexpr char kAddressMaskPairs[] = "I4.address-mask-pairs";
inline constexpr char kAddressWildcardPairs[] = "I5.address-wildcard-pairs";
inline constexpr char kPlainAddressArgs[] = "I6.plain-address-args";
inline constexpr char kSubnetPreload[] = "I7.subnet-preload";
}  // namespace rules

class ServiceContext;
class Session;

class Anonymizer : public AnonymizerEngine {
 public:
  /// Standalone engine owning a fresh NetworkState.
  explicit Anonymizer(AnonymizerOptions options);
  /// Engine over an existing (possibly shared) NetworkState. Used by the
  /// parallel pipeline: each worker gets its own engine (own report, own
  /// observability buffers) over the one shared state. Engines sharing
  /// state do not sync the shared trie's counters into metrics — the
  /// pipeline does that once, centrally, to avoid double counting.
  Anonymizer(AnonymizerOptions options, std::shared_ptr<NetworkState> state);
  /// Session-API form (see core/session.h): an engine over `session`'s
  /// shared state with the context's engine options re-salted for the
  /// session. Equivalent to what the context's kIos factory builds.
  Anonymizer(const ServiceContext& context, const Session& session);

  /// Anonymizes all files of one network consistently. Performs the
  /// address-preload pass over the whole corpus first (rule I7), then
  /// rewrites each file.
  std::vector<config::ConfigFile> AnonymizeNetwork(
      const std::vector<config::ConfigFile>& files) override;

  /// Anonymizes a single file using (and extending) the shared state.
  /// When no corpus-wide preload has happened yet (standalone streaming
  /// use), this file's own addresses are preloaded first, so rule I7's
  /// subnet-address guarantee holds file-locally.
  config::ConfigFile AnonymizeFile(const config::ConfigFile& file) override;

  /// Writes the anonymized groupings of the declared known entities, one
  /// entity per line: "entity <n>: asns <a1> <a2> ... prefixes <p1> ...".
  /// All values are post-anonymization; labels are never written. This is
  /// the Section 5 extension: the implicit AS-X/prefix-Y relationship is
  /// preserved as an explicit, still-anonymous grouping.
  void ExportKnownEntities(std::ostream& out) override;

  const AnonymizationReport& report() const override { return report_; }
  const LeakRecord& leak_record() const override { return leak_record_; }

  // --- observability (all optional, all non-owning) ---
  //
  // With no hooks installed the per-line hot path pays a single branch;
  // the benches run in that mode.

  /// Installs all observability hooks in one shot:
  ///   * hooks.metrics — mirrors the report (per-rule fire counts,
  ///     word/address totals), the IP trie's hit/miss/size stats, the
  ///     arena's allocation counters ("arena.bytes", "arena.resets") and
  ///     per-phase latency histograms ("core.line_ns", "core.file_ns",
  ///     "core.tokenize_ns", "asn.rewrite_ns") into the registry, synced
  ///     at file boundaries;
  ///   * hooks.trace — emits Chrome-trace spans (network phase, one span
  ///     per file, per-rule spans nested inside each file span);
  ///   * hooks.provenance — records one ProvenanceEntry per (line, fired
  ///     rule) with before/after word counts (Section 6.1 leak triage).
  void install_hooks(const obs::Hooks& hooks) override;

  /// Pushes any unreported report/trie deltas into the registry. Called
  /// automatically at file boundaries; idempotent.
  void SyncMetrics() override;

  const std::shared_ptr<NetworkState>& state() const override {
    return state_;
  }

  const asn::AsnMap& asn_map() const { return state_->asn_map; }
  const asn::Uint16Permutation& community_values() const {
    return state_->community_values;
  }
  ipanon::IpAnonymizer& ip_anonymizer() { return state_->ip; }
  StringHasher& string_hasher() { return state_->hasher; }
  /// The effective list: the options' pass-list itself when there are no
  /// extras (so engines of one context share one object), else a merged
  /// copy.
  const passlist::PassList& pass_list() const { return *pass_list_; }

  /// Collects every non-special IP address literal in `file` (the
  /// operand of rule I7's preload). Exposed so the pipeline can run the
  /// corpus-wide preload across dialects without an engine instance.
  static void CollectFileAddresses(const config::ConfigFile& file,
                                   std::vector<net::Ipv4Address>& out);

  /// Collects every word in `file` the T1/T2 pass-list rules would hash
  /// (some alphabetic segment missing from `pass_list`). Views alias
  /// the file's lines. Over-approximates. Only the benchmark replay's
  /// memo prewarm calls this (see core/hash_batcher.h).
  static void CollectHashCandidates(const config::ConfigFile& file,
                                    const passlist::PassList& pass_list,
                                    std::vector<std::string_view>& out);

 private:
  /// Everything the five word passes need for one line, computed once.
  /// `lower` mirrors `tokens.words` lowercased and is kept in sync by
  /// every mutation — exactly the view each pass used to recompute.
  ///
  /// All views are zero-copy: tokens alias the input line, lowercase
  /// mirrors alias the word itself when it carries no uppercase, and
  /// every rewrite repoints the word at bytes owned by either the
  /// hasher's memo (stable for the network's lifetime) or the per-file
  /// arena (stable until the file's lines are rendered).
  struct LineCtx {
    config::LineTokens tokens;
    std::vector<std::string_view> lower;
    std::vector<bool> handled;
    util::Arena* arena = nullptr;

    /// Repoints words[i] at `stable` — bytes the caller guarantees
    /// outlive the line (hasher memo entries, string literals).
    void SetWordRef(std::size_t i, std::string_view stable);
    /// Copies `value` into the arena, then repoints words[i] at the
    /// copy. For computed strings (mapped addresses, permuted ASNs).
    void SetWord(std::size_t i, std::string_view value);
    /// Drops words[from..], keeping the trailing gap (free-text strips).
    void TruncateWords(std::size_t from);
    /// Collapses words[from..] to one arena-copied replacement word
    /// (regexp rewrites), resetting `handled` with only the replacement
    /// marked.
    void ReplaceTailWith(std::size_t from, std::string_view replacement);
  };

  /// The rule-enabled predicate, resolved once at construction so the
  /// per-token hot paths test a bool instead of probing a set<string>.
  struct EnabledRules {
    bool segment_words, passlist_hash;
    bool strip_bang_comments, strip_free_text, strip_banners;
    bool dialer_strings, snmp_strings, secrets, name_arguments;
    bool router_bgp, neighbor_remote_as, neighbor_local_as;
    bool confed_identifier, confed_peers, aspath_regex, aspath_prepend;
    bool community_list_literal, community_list_regex;
    bool set_community, set_extcommunity, asn_audit;
    bool map_addresses, special_passthrough, map_prefixes;
    bool address_mask_pairs, address_wildcard_pairs, plain_address_args;
    bool subnet_preload;
  };

  /// Re-resolves the cached metric instrument pointers and pushes the
  /// current hook set into the tracer/provenance members.
  void ApplyHooks();

  /// Processes one input line end-to-end: comment rules, then the fused
  /// single-dispatch word pass over the tokens. Appends the anonymized
  /// rendering to `out_lines` (or nothing, for banner continuation
  /// lines).
  void AnonymizeLine(const config::ConfigFile& file, std::size_t index,
                     const std::vector<bool>& in_banner,
                     const std::vector<bool>& banner_start,
                     std::vector<std::string>& out_lines);
  /// AnonymizeLine wrapped in timing + rule-fire attribution; accumulates
  /// per-rule nanoseconds into `rule_ns` and feeds the provenance log.
  void ObserveLine(const config::ConfigFile& file, std::size_t index,
                   const std::vector<bool>& in_banner,
                   const std::vector<bool>& banner_start,
                   std::vector<std::string>& out_lines,
                   std::map<std::string, std::uint64_t>& rule_ns);
  /// Records a regexp rewrite's cost into the registry, if installed.
  /// Memo-served results count toward "asn.rewrite_memo_hits" instead of
  /// re-adding DFA states / rewrite latency.
  void RecordRewrite(const asn::RewriteResult& result);

  /// Comment rules (C1). Returns false when the whole line collapses to
  /// a '!' comment.
  bool ApplyCommentRules(const config::ConfigFile& file, std::size_t index,
                         std::string_view line,
                         const std::vector<bool>& in_banner);
  /// The five word passes fused into one dispatch: line-shaped rules
  /// (free text, ASN locations, misc) run off the shared lowercase view,
  /// then one loop applies the per-token IP and generic-hashing rules to
  /// each word in a single traversal.
  void ApplyWordPasses(LineCtx& ctx);
  void ApplyFreeTextRules(LineCtx& ctx);
  void ApplyAsnLineRules(LineCtx& ctx);
  void ApplyMiscLineRules(LineCtx& ctx);
  /// Fused per-token pass: IP rules (I1/I2/I3 + I4/I5/I6 context
  /// accounting) and generic hashing (T1/T2) applied to token i before
  /// moving to token i+1.
  void ApplyTokenRules(LineCtx& ctx);

  /// Replaces words[i] with its hash token from the shared hasher.
  void HashWord(LineCtx& ctx, std::size_t i);

  /// Public ASNs accepted by a policy regexp (for the A12 audit record).
  std::vector<std::uint32_t> AcceptedPublicAsns(
      std::string_view pattern) const;

  std::string MapAsnWord(std::string_view word);
  void RecordAsn(std::uint32_t asn);

  AnonymizerOptions options_;
  std::shared_ptr<const passlist::PassList> pass_list_;
  EnabledRules enabled_;
  /// Whether state_ was handed in (pipeline worker) rather than owned.
  bool shared_state_ = false;
  std::shared_ptr<NetworkState> state_;
  AnonymizationReport report_;
  LeakRecord leak_record_;

  // Observability state. The histogram/counter pointers are resolved once
  // in ApplyHooks so instrumented paths touch only atomics.
  obs::Hooks hooks_;
  obs::Tracer tracer_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::ProvenanceLog* provenance_ = nullptr;
  obs::LatencyHistogram* line_hist_ = nullptr;
  obs::LatencyHistogram* file_hist_ = nullptr;
  obs::LatencyHistogram* tokenize_hist_ = nullptr;
  obs::LatencyHistogram* rewrite_hist_ = nullptr;
  obs::Counter* dfa_states_total_ = nullptr;
  obs::Counter* rewrite_memo_hits_ = nullptr;
  /// Last report/trie state already pushed to the registry (delta base).
  AnonymizationReport synced_report_;
  ipanon::IpAnonymizer::Stats synced_ip_;
  std::uint64_t synced_arena_bytes_ = 0;
  std::uint64_t synced_arena_resets_ = 0;

  /// Per-file scratch for rewritten words; reset at file boundaries.
  util::Arena arena_;
  /// Reused across lines so tokenize allocates nothing in steady state.
  LineCtx line_ctx_;
};

}  // namespace confanon::core
