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
// This file holds only the IOS rule pack: the rules, their per-line
// dispatch and the banner regions of a file. The file loop, the preload,
// line observation, the hooks and the metric sync belong to the shared
// line engine (core::AnonymizerEngine, core/engine.h), which the JunOS
// rule pack uses too.
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
#include <string_view>
#include <vector>

#include "asn/regex_rewrite.h"
#include "config/document.h"
#include "config/tokenizer.h"
#include "core/engine.h"
#include "core/network_state.h"
#include "net/prefix.h"
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
  /// Names of IOS rules to disable (see core/rules.h), for the
  /// iterative-refinement experiment (Section 6.1) where an initially
  /// incomplete rule set is grown until the leak detector comes back
  /// clean. Resolved to rule ids once per engine; JunOS rules cannot be
  /// disabled, and unknown names disable nothing.
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

/// The IOS rule pack over the shared line engine (core/engine.h).
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

  /// Writes the anonymized groupings of the declared known entities, one
  /// entity per line: "entity <n>: asns <a1> <a2> ... prefixes <p1> ...".
  /// All values are post-anonymization; labels are never written. This is
  /// the Section 5 extension: the implicit AS-X/prefix-Y relationship is
  /// preserved as an explicit, still-anonymous grouping.
  void ExportKnownEntities(std::ostream& out) override;

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

  /// Marks the banner regions rule C3 strips.
  void BeginFile(const config::ConfigFile& file) override;
  /// Processes one input line end-to-end: comment rules, then the fused
  /// single-dispatch word pass over the tokens. Appends the anonymized
  /// rendering to `out_lines` (or nothing, for banner continuation
  /// lines).
  void AnonymizeLine(const config::ConfigFile& file, std::size_t index,
                     std::vector<std::string>& out_lines) override;

  /// Comment rules (C1). Returns false when the whole line collapses to
  /// a '!' comment.
  bool ApplyCommentRules(std::string_view line);
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

  std::string MapAsnWord(std::string_view word);
  void RecordAsn(std::uint32_t asn);

  AnonymizerOptions options_;
  /// Rule C3's banner regions of the current file, one flag per line.
  std::vector<bool> in_banner_;
  std::vector<bool> banner_start_;
  /// Reused across lines so tokenize allocates nothing in steady state.
  LineCtx line_ctx_;
};

}  // namespace confanon::core
