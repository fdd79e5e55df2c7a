#include "audit/audit.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "audit/canonical.h"
#include "audit/lint.h"
#include "audit/refgraph.h"
#include "core/session.h"
#include "obs/profiler.h"
#include "pipeline/parallel_for.h"

namespace confanon::audit {

namespace {

constexpr std::size_t kNpos = ~std::size_t{0};

Dialect ResolveDialect(const config::ConfigFile& file, DialectMode mode) {
  switch (mode) {
    case DialectMode::kIos:
      return Dialect::kIos;
    case DialectMode::kJunos:
      return Dialect::kJunos;
    case DialectMode::kAuto:
      break;
  }
  return core::DetectDialect(file) == core::ConfigDialect::kJunos
             ? Dialect::kJunos
             : Dialect::kIos;
}

/// Everything the per-file parallel phase produces; corpus-level analysis
/// consumes these read-only.
struct FileScan {
  CanonicalFile canonical;
  std::vector<RefEvent> refs;
  std::vector<Finding> lint;
  std::uint64_t scan_ns = 0;
};

/// Fans canonicalization (and optionally the residue lint) out over the
/// pipeline worker pool. Each worker writes only to slots of its own
/// indices, so the result is scheduling-independent.
std::vector<FileScan> ScanFiles(const std::vector<config::ConfigFile>& files,
                                const AuditOptions& options, bool with_lint) {
  std::vector<FileScan> scans(files.size());
  const int threads =
      pipeline::ResolveWorkerCount(options.threads, files.size());
  pipeline::WorkQueue queue(files.size(), 4);
  obs::PhaseProfiler::ScopedPhase phase(options.profiler, nullptr, "audit");
  pipeline::RunWorkers(threads, [&](int) {
    std::size_t begin = 0;
    std::size_t end = 0;
    while (queue.Next(begin, end)) {
      for (std::size_t i = begin; i < end; ++i) {
        const auto start = std::chrono::steady_clock::now();
        FileScan& scan = scans[i];
        const Dialect dialect = ResolveDialect(files[i], options.dialect);
        scan.canonical = Canonicalize(files[i], dialect);
        scan.refs = ExtractRefs(files[i], dialect);
        if (with_lint) scan.lint = LintFileResidue(files[i], scan.canonical);
        scan.scan_ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start)
                .count());
      }
    }
  });
  if (options.metrics != nullptr) {
    options.metrics->CounterNamed("audit.files").Add(scans.size());
    auto& histogram = options.metrics->HistogramNamed("audit.scan_ns");
    for (const FileScan& scan : scans) histogram.Record(scan.scan_ns);
  }
  return scans;
}

void MergeStats(const CanonicalFile& canonical, AuditResult& result) {
  result.lines_scanned += canonical.source_line_count;
  for (const auto& [key, count] : canonical.counts) result.stats[key] += count;
}

void FinishResult(AuditResult& result, const AuditOptions& options) {
  const auto order = [](const Finding& a, const Finding& b) {
    if (a.anchor.file != b.anchor.file) return a.anchor.file < b.anchor.file;
    if (a.anchor.line != b.anchor.line) return a.anchor.line < b.anchor.line;
    return a.rule_id < b.rule_id;
  };
  std::stable_sort(result.findings.begin(), result.findings.end(), order);
  if (options.metrics != nullptr) {
    options.metrics->CounterNamed("audit.findings")
        .Add(result.findings.size());
  }
}

std::string Clip(std::string_view text) {
  constexpr std::size_t kMax = 60;
  if (text.size() <= kMax) return std::string(text);
  return std::string(text.substr(0, kMax - 3)) + "...";
}

// --- pair mode ---

/// One injective rename space (words, ASNs, communities, addresses, file
/// names). The anonymizer's per-class maps are bijective, so a consistent
/// anonymization binds every pre key to exactly one post key and vice
/// versa; any conflict is rule AUD-P003.
class RenameSpace {
 public:
  explicit RenameSpace(const char* label) : label_(label) {}

  /// Dry-run: counts agreements/conflicts against the established
  /// bindings without modifying them (used to disambiguate same-shape
  /// file groups).
  void Score(const std::string& pre, const std::string& post,
             std::size_t& agree, std::size_t& conflict) const {
    const auto fwd = forward_.find(pre);
    if (fwd != forward_.end()) (fwd->second.other == post ? agree : conflict)++;
    const auto rev = reverse_.find(post);
    if (rev != reverse_.end()) (rev->second.other == pre ? agree : conflict)++;
  }

  /// Binds pre<->post, appending an AUD-P003 finding per new conflict.
  void Bind(const std::string& pre, const std::string& post,
            const Anchor& pre_anchor, const Anchor& post_anchor,
            std::vector<Finding>& findings) {
    CheckDirection(forward_, pre, post, pre_anchor, post_anchor, "pre",
                   findings);
    CheckDirection(reverse_, post, pre, pre_anchor, post_anchor, "post",
                   findings);
  }

 private:
  struct Binding {
    std::string other;
    Anchor anchor;
  };

  void CheckDirection(std::map<std::string, Binding>& map,
                      const std::string& key, const std::string& value,
                      const Anchor& pre_anchor, const Anchor& post_anchor,
                      const char* side, std::vector<Finding>& findings) {
    const auto [it, inserted] = map.try_emplace(key, Binding{value, pre_anchor});
    if (inserted || it->second.other == value) return;
    const std::string conflict_key = std::string(side) + '\0' + key + '\0' + value;
    if (!reported_.insert(conflict_key).second) return;
    findings.push_back(Finding{
        kRuleRenameConflict, Severity::kError, pre_anchor, post_anchor,
        std::string("inconsistent ") + label_ + " renaming: " + side +
            "-side '" + key + "' maps to both '" + it->second.other +
            "' (first bound at " + it->second.anchor.ToString() + ") and '" +
            value + "'"});
  }

  const char* label_;
  std::map<std::string, Binding> forward_;
  std::map<std::string, Binding> reverse_;
  std::set<std::string> reported_;
};

struct PairState {
  RenameSpace words{"identifier"};
  RenameSpace asns{"ASN"};
  RenameSpace comms{"community"};
  RenameSpace addrs{"address"};
  RenameSpace names{"file-name"};
  /// AUD-P005 dedup: each surviving identifier is reported once.
  std::set<std::string> survived;
};

RenameSpace* SpaceFor(PairState& state, TokenClass cls) {
  switch (cls) {
    case TokenClass::kWord:
      return &state.words;
    case TokenClass::kAsn:
      return &state.asns;
    case TokenClass::kComm:
      return &state.comms;
    case TokenClass::kAddr:
      return &state.addrs;
    default:
      return nullptr;
  }
}

/// Splits a kAsnList key ("65000 65000 65001") into members.
std::vector<std::string> AsnListMembers(const std::string& key) {
  std::vector<std::string> members;
  std::size_t pos = 0;
  while (pos < key.size()) {
    const std::size_t space = key.find(' ', pos);
    const std::size_t end = space == std::string::npos ? key.size() : space;
    if (end > pos) members.push_back(key.substr(pos, end - pos));
    pos = end + 1;
  }
  return members;
}

/// Dry-run bimap agreement of a candidate same-shape pair. Shapes are
/// identical (same hash), so tokens align 1:1.
void ScorePair(const PairState& state, const CanonicalFile& pre,
               const CanonicalFile& post, std::size_t& agree,
               std::size_t& conflict) {
  state.names.Score(pre.name, post.name, agree, conflict);
  for (std::size_t li = 0; li < pre.lines.size() && li < post.lines.size();
       ++li) {
    const auto& a = pre.lines[li].tokens;
    const auto& b = post.lines[li].tokens;
    for (std::size_t ti = 0; ti < a.size() && ti < b.size(); ++ti) {
      if (a[ti].cls != b[ti].cls) continue;
      switch (a[ti].cls) {
        case TokenClass::kWord:
          state.words.Score(a[ti].key, b[ti].key, agree, conflict);
          break;
        case TokenClass::kAsn:
          state.asns.Score(a[ti].key, b[ti].key, agree, conflict);
          break;
        case TokenClass::kComm:
          state.comms.Score(a[ti].key, b[ti].key, agree, conflict);
          break;
        case TokenClass::kAddr:
          state.addrs.Score(a[ti].key, b[ti].key, agree, conflict);
          break;
        case TokenClass::kAsnList: {
          const auto pre_members = AsnListMembers(a[ti].key);
          const auto post_members = AsnListMembers(b[ti].key);
          for (std::size_t m = 0;
               m < pre_members.size() && m < post_members.size(); ++m) {
            state.asns.Score(pre_members[m], post_members[m], agree, conflict);
          }
          break;
        }
        default:
          break;
      }
    }
  }
}

/// Commits one matched pair: binds every renamed token into the corpus
/// bimaps (AUD-P003 on conflict) and flags surviving identifiers
/// (AUD-P005). Shape equality is already established via the hash.
void CommitPair(PairState& state, const CanonicalFile& pre,
                const CanonicalFile& post, std::vector<Finding>& findings) {
  const Anchor pre_file_anchor{pre.name, Anchor::kNoLine};
  const Anchor post_file_anchor{post.name, Anchor::kNoLine};
  if (pre.name_renamed) {
    if (pre.name == post.name && state.survived.insert("file:" + pre.name).second) {
      findings.push_back(Finding{
          kRuleIdentitySurvived, Severity::kError, pre_file_anchor,
          post_file_anchor,
          "original file name '" + pre.name + "' survived anonymization"});
    }
    state.names.Bind(pre.name, post.name, pre_file_anchor, post_file_anchor,
                     findings);
  } else if (pre.name != post.name) {
    state.names.Bind(pre.name, post.name, pre_file_anchor, post_file_anchor,
                     findings);
  }

  for (std::size_t li = 0; li < pre.lines.size() && li < post.lines.size();
       ++li) {
    const CanonLine& a = pre.lines[li];
    const CanonLine& b = post.lines[li];
    const Anchor pre_anchor{pre.name, a.source_line};
    const Anchor post_anchor{post.name, b.source_line};
    for (std::size_t ti = 0; ti < a.tokens.size() && ti < b.tokens.size();
         ++ti) {
      const CanonToken& pt = a.tokens[ti];
      const CanonToken& qt = b.tokens[ti];
      if (pt.cls != qt.cls) continue;  // impossible for equal shapes
      if (pt.cls == TokenClass::kAsnList) {
        const auto pre_members = AsnListMembers(pt.key);
        const auto post_members = AsnListMembers(qt.key);
        for (std::size_t m = 0;
             m < pre_members.size() && m < post_members.size(); ++m) {
          state.asns.Bind(pre_members[m], post_members[m], pre_anchor,
                          post_anchor, findings);
        }
        continue;
      }
      RenameSpace* space = SpaceFor(state, pt.cls);
      if (space == nullptr) continue;
      if (pt.cls == TokenClass::kWord && pt.key == qt.key &&
          !IsHashToken(pt.key) && state.survived.insert(pt.key).second) {
        findings.push_back(Finding{
            kRuleIdentitySurvived, Severity::kError, pre_anchor, post_anchor,
            "original identifier '" + pt.key + "' survived anonymization"});
      }
      space->Bind(pt.key, qt.key, pre_anchor, post_anchor, findings);
    }
  }
}

/// AUD-P004: the def/use event sequences must be isomorphic up to
/// renaming. Names are reduced to file-local first-occurrence ids, which
/// is exactly what an injective consistent renaming preserves.
void CompareRefGraphs(const CanonicalFile& pre_file,
                      const std::vector<RefEvent>& pre,
                      const CanonicalFile& post_file,
                      const std::vector<RefEvent>& post,
                      std::vector<Finding>& findings) {
  const auto ids = [](const std::vector<RefEvent>& events) {
    std::map<std::pair<std::uint8_t, std::string>, std::size_t> table;
    std::vector<std::size_t> out;
    out.reserve(events.size());
    for (const RefEvent& event : events) {
      out.push_back(table
                        .try_emplace({static_cast<std::uint8_t>(event.space),
                                      event.name},
                                     table.size() + 1)
                        .first->second);
    }
    return out;
  };
  const std::vector<std::size_t> pre_ids = ids(pre);
  const std::vector<std::size_t> post_ids = ids(post);
  const auto describe = [](const RefEvent& event, std::size_t id) {
    return std::string(event.is_def ? "def " : "use ") +
           SymbolSpaceName(event.space) + " #" + std::to_string(id) + " ('" +
           event.name + "')";
  };
  const std::size_t n = std::min(pre.size(), post.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (pre[i].space == post[i].space && pre[i].is_def == post[i].is_def &&
        pre_ids[i] == post_ids[i]) {
      continue;
    }
    findings.push_back(Finding{
        kRuleRefGraphDivergence, Severity::kError,
        Anchor{pre_file.name, pre[i].line}, Anchor{post_file.name, post[i].line},
        "reference graphs diverge at event " + std::to_string(i + 1) + ": " +
            describe(pre[i], pre_ids[i]) + " vs " +
            describe(post[i], post_ids[i])});
    return;  // first divergent edge only; the rest cascades
  }
  if (pre.size() != post.size()) {
    const bool pre_longer = pre.size() > post.size();
    const RefEvent& extra = pre_longer ? pre[n] : post[n];
    Finding finding{kRuleRefGraphDivergence, Severity::kError,
                    Anchor{pre_file.name, Anchor::kNoLine},
                    Anchor{post_file.name, Anchor::kNoLine},
                    std::string("reference graphs diverge: ") +
                        (pre_longer ? "pre" : "post") + " side has extra " +
                        describe(extra, pre_longer ? pre_ids[n] : post_ids[n])};
    (pre_longer ? finding.anchor : finding.related).line = extra.line;
    findings.push_back(std::move(finding));
  }
}

/// AUD-P006: the corpus-wide prefix-containment lattice. Because the IP
/// map preserves common-prefix lengths exactly, both the first-occurrence
/// pattern of (prefix, length) events and the immediate-parent relation
/// over distinct prefixes must be identical across the pair.
struct CorpusPrefixEvent {
  net::Prefix prefix;
  Anchor anchor;
};

void CompareLattices(const std::vector<CorpusPrefixEvent>& pre,
                     const std::vector<CorpusPrefixEvent>& post,
                     std::vector<Finding>& findings) {
  const auto ids = [](const std::vector<CorpusPrefixEvent>& events,
                      std::vector<net::Prefix>& distinct,
                      std::vector<Anchor>& first_anchor) {
    std::map<net::Prefix, std::size_t> table;
    std::vector<std::size_t> out;
    out.reserve(events.size());
    for (const CorpusPrefixEvent& event : events) {
      const auto [it, inserted] =
          table.try_emplace(event.prefix, table.size());
      if (inserted) {
        distinct.push_back(event.prefix);
        first_anchor.push_back(event.anchor);
      }
      out.push_back(it->second);
    }
    return out;
  };
  std::vector<net::Prefix> pre_distinct;
  std::vector<net::Prefix> post_distinct;
  std::vector<Anchor> pre_first;
  std::vector<Anchor> post_first;
  const std::vector<std::size_t> pre_ids = ids(pre, pre_distinct, pre_first);
  const std::vector<std::size_t> post_ids =
      ids(post, post_distinct, post_first);

  const std::size_t n = std::min(pre.size(), post.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (pre_ids[i] == post_ids[i] &&
        pre[i].prefix.length() == post[i].prefix.length()) {
      continue;
    }
    findings.push_back(Finding{
        kRuleLatticeDivergence, Severity::kError, pre[i].anchor,
        post[i].anchor,
        "prefix lattice diverges at event " + std::to_string(i + 1) +
            ": pre " + pre[i].prefix.ToString() + " (id " +
            std::to_string(pre_ids[i] + 1) + ") vs post " +
            post[i].prefix.ToString() + " (id " +
            std::to_string(post_ids[i] + 1) + ")"});
    return;
  }
  if (pre.size() != post.size()) {
    const bool pre_longer = pre.size() > post.size();
    const CorpusPrefixEvent& extra = pre_longer ? pre[n] : post[n];
    findings.push_back(Finding{
        kRuleLatticeDivergence, Severity::kError,
        pre_longer ? extra.anchor : Anchor{},
        pre_longer ? Anchor{} : extra.anchor,
        std::string("prefix lattice diverges: ") +
            (pre_longer ? "pre" : "post") + " side has extra event " +
            extra.prefix.ToString()});
    return;
  }

  // Immediate parents: for each distinct prefix, the longest proper
  // ancestor among the distinct set (kNpos when none). Containment is
  // preserved by the prefix-preserving map, so the parent id arrays must
  // match element-wise.
  const auto parents = [](const std::vector<net::Prefix>& distinct) {
    std::vector<std::size_t> out(distinct.size(), kNpos);
    for (std::size_t i = 0; i < distinct.size(); ++i) {
      int best_length = -1;
      for (std::size_t j = 0; j < distinct.size(); ++j) {
        if (i == j) continue;
        if (distinct[j].length() >= distinct[i].length()) continue;
        if (!distinct[j].Contains(distinct[i])) continue;
        if (distinct[j].length() > best_length) {
          best_length = distinct[j].length();
          out[i] = j;
        }
      }
    }
    return out;
  };
  const std::vector<std::size_t> pre_parents = parents(pre_distinct);
  const std::vector<std::size_t> post_parents = parents(post_distinct);
  for (std::size_t i = 0; i < pre_distinct.size(); ++i) {
    if (pre_parents[i] == post_parents[i]) continue;
    const auto name = [](const std::vector<net::Prefix>& distinct,
                         std::size_t parent) {
      return parent == kNpos ? std::string("none") : distinct[parent].ToString();
    };
    findings.push_back(Finding{
        kRuleLatticeDivergence, Severity::kError, pre_first[i], post_first[i],
        "containment parent of prefix id " + std::to_string(i + 1) +
            " diverges: pre " + pre_distinct[i].ToString() + " under " +
            name(pre_distinct, pre_parents[i]) + ", post " +
            post_distinct[i].ToString() + " under " +
            name(post_distinct, post_parents[i])});
    return;
  }
}

/// First index where the rendered shapes differ; kNpos when identical.
std::size_t FirstShapeDivergence(const std::vector<std::string>& a,
                                 const std::vector<std::string>& b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  return a.size() == b.size() ? kNpos : n;
}

}  // namespace

AuditResult LintCorpus(const std::vector<config::ConfigFile>& files,
                       const AuditOptions& options) {
  const std::vector<FileScan> scans = ScanFiles(files, options, true);
  AuditResult result;
  result.files_scanned = files.size();

  struct Symbol {
    std::size_t defs = 0;
    std::size_t uses = 0;
    Anchor first_def;
    Anchor first_use;
  };
  std::map<std::pair<std::uint8_t, std::string>, Symbol> symbols;
  for (std::size_t i = 0; i < scans.size(); ++i) {
    MergeStats(scans[i].canonical, result);
    result.findings.insert(result.findings.end(), scans[i].lint.begin(),
                           scans[i].lint.end());
    for (const RefEvent& event : scans[i].refs) {
      Symbol& symbol =
          symbols[{static_cast<std::uint8_t>(event.space), event.name}];
      if (event.is_def) {
        if (symbol.defs++ == 0) {
          symbol.first_def = Anchor{files[i].name(), event.line};
        }
      } else if (symbol.uses++ == 0) {
        symbol.first_use = Anchor{files[i].name(), event.line};
      }
    }
  }

  for (const auto& [key, symbol] : symbols) {
    const auto space = static_cast<SymbolSpace>(key.first);
    result.stats[std::string("sym.") + SymbolSpaceName(space) +
                 (symbol.defs > 0 ? ".defs" : ".dangling")]++;
    if (symbol.uses > 0 && symbol.defs == 0) {
      result.findings.push_back(Finding{
          kRuleDanglingUse, Severity::kWarning, symbol.first_use, Anchor{},
          std::string("reference to ") + SymbolSpaceName(space) + " '" +
              key.second + "' which is never defined in the corpus"});
    }
    // Interfaces are hardware-born: defining one without referencing it
    // elsewhere is normal, not a smell.
    if (symbol.defs > 0 && symbol.uses == 0 && space != SymbolSpace::kInterface) {
      result.findings.push_back(Finding{
          kRuleDeadDef, Severity::kNote, symbol.first_def, Anchor{},
          std::string(SymbolSpaceName(space)) + " '" + key.second +
              "' is defined but never referenced in the corpus"});
    }
  }

  FinishResult(result, options);
  return result;
}

AuditResult ComparePair(const std::vector<config::ConfigFile>& pre,
                        const std::vector<config::ConfigFile>& post,
                        const AuditOptions& options) {
  const std::vector<FileScan> pre_scans = ScanFiles(pre, options, false);
  const std::vector<FileScan> post_scans = ScanFiles(post, options, false);
  AuditResult result;
  result.files_scanned = pre.size() + post.size();
  for (const FileScan& scan : pre_scans) MergeStats(scan.canonical, result);
  for (const FileScan& scan : post_scans) {
    result.lines_scanned += scan.canonical.source_line_count;
  }

  // --- pairing by shape hash ---
  std::map<std::string, std::vector<std::size_t>> pre_by_hash;
  std::map<std::string, std::vector<std::size_t>> post_by_hash;
  for (std::size_t i = 0; i < pre_scans.size(); ++i) {
    pre_by_hash[pre_scans[i].canonical.shape_hash].push_back(i);
  }
  for (std::size_t i = 0; i < post_scans.size(); ++i) {
    post_by_hash[post_scans[i].canonical.shape_hash].push_back(i);
  }

  std::vector<std::pair<std::size_t, std::size_t>> pairs;
  std::vector<bool> pre_used(pre.size(), false);
  std::vector<bool> post_used(post.size(), false);
  PairState state;

  // Phase 1: unambiguous groups (exactly one file per side) pair
  // directly and seed the rename bimaps.
  for (const auto& [hash, pre_group] : pre_by_hash) {
    const auto it = post_by_hash.find(hash);
    if (it == post_by_hash.end()) continue;
    if (pre_group.size() != 1 || it->second.size() != 1) continue;
    pre_used[pre_group[0]] = true;
    post_used[it->second[0]] = true;
    pairs.emplace_back(pre_group[0], it->second[0]);
  }
  std::sort(pairs.begin(), pairs.end());
  for (const auto& [p, q] : pairs) {
    CommitPair(state, pre_scans[p].canonical, post_scans[q].canonical,
               result.findings);
  }

  // Phase 2: ambiguous groups (several structurally identical files on a
  // side). Any in-group assignment is shape-consistent; pick the one that
  // agrees most with the bimaps already established.
  for (const auto& [hash, pre_group] : pre_by_hash) {
    const auto it = post_by_hash.find(hash);
    if (it == post_by_hash.end()) continue;
    const std::vector<std::size_t>& post_group = it->second;
    if (pre_group.size() == 1 && post_group.size() == 1) continue;
    struct Candidate {
      std::size_t conflict;
      std::size_t agree;
      std::size_t p;
      std::size_t q;
    };
    std::vector<Candidate> candidates;
    for (const std::size_t p : pre_group) {
      for (const std::size_t q : post_group) {
        std::size_t agree = 0;
        std::size_t conflict = 0;
        ScorePair(state, pre_scans[p].canonical, post_scans[q].canonical,
                  agree, conflict);
        candidates.push_back(Candidate{conflict, agree, p, q});
      }
    }
    std::sort(candidates.begin(), candidates.end(),
              [](const Candidate& a, const Candidate& b) {
                if (a.conflict != b.conflict) return a.conflict < b.conflict;
                if (a.agree != b.agree) return a.agree > b.agree;
                if (a.p != b.p) return a.p < b.p;
                return a.q < b.q;
              });
    std::vector<std::pair<std::size_t, std::size_t>> group_pairs;
    for (const Candidate& candidate : candidates) {
      if (pre_used[candidate.p] || post_used[candidate.q]) continue;
      pre_used[candidate.p] = true;
      post_used[candidate.q] = true;
      group_pairs.emplace_back(candidate.p, candidate.q);
    }
    std::sort(group_pairs.begin(), group_pairs.end());
    for (const auto& [p, q] : group_pairs) {
      CommitPair(state, pre_scans[p].canonical, post_scans[q].canonical,
                 result.findings);
      pairs.emplace_back(p, q);
    }
  }

  // Phase 3: leftovers have no shape-identical counterpart. Pair the
  // closest shapes (latest first divergence) to produce an actionable
  // AUD-P002 diff; whatever still remains is AUD-P001.
  std::vector<std::size_t> pre_left;
  std::vector<std::size_t> post_left;
  for (std::size_t i = 0; i < pre.size(); ++i) {
    if (!pre_used[i]) pre_left.push_back(i);
  }
  for (std::size_t i = 0; i < post.size(); ++i) {
    if (!post_used[i]) post_left.push_back(i);
  }
  std::map<std::size_t, std::vector<std::string>> pre_shapes;
  std::map<std::size_t, std::vector<std::string>> post_shapes;
  const auto shape_of = [](const FileScan& scan,
                           std::map<std::size_t, std::vector<std::string>>& cache,
                           std::size_t index) -> const std::vector<std::string>& {
    const auto [it, inserted] = cache.try_emplace(index);
    if (inserted) it->second = RenderShape(scan.canonical);
    return it->second;
  };
  struct LeftCandidate {
    std::size_t divergence;
    std::size_t p;
    std::size_t q;
  };
  std::vector<LeftCandidate> left_candidates;
  for (const std::size_t p : pre_left) {
    for (const std::size_t q : post_left) {
      left_candidates.push_back(LeftCandidate{
          FirstShapeDivergence(shape_of(pre_scans[p], pre_shapes, p),
                               shape_of(post_scans[q], post_shapes, q)),
          p, q});
    }
  }
  std::sort(left_candidates.begin(), left_candidates.end(),
            [](const LeftCandidate& a, const LeftCandidate& b) {
              if (a.divergence != b.divergence) return a.divergence > b.divergence;
              if (a.p != b.p) return a.p < b.p;
              return a.q < b.q;
            });
  for (const LeftCandidate& candidate : left_candidates) {
    if (pre_used[candidate.p] || post_used[candidate.q]) continue;
    pre_used[candidate.p] = true;
    post_used[candidate.q] = true;
    const CanonicalFile& a = pre_scans[candidate.p].canonical;
    const CanonicalFile& b = post_scans[candidate.q].canonical;
    if (candidate.divergence == kNpos) {
      // Identical shapes after all (possible only across hash groups of
      // equal shape, i.e. never) — treat as a full pair.
      CommitPair(state, a, b, result.findings);
      pairs.emplace_back(candidate.p, candidate.q);
      continue;
    }
    const std::vector<std::string>& a_shape = pre_shapes[candidate.p];
    const std::vector<std::string>& b_shape = post_shapes[candidate.q];
    const std::size_t d = candidate.divergence;
    Anchor pre_anchor{a.name, d < a.lines.size() ? a.lines[d].source_line
                                                 : Anchor::kNoLine};
    Anchor post_anchor{b.name, d < b.lines.size() ? b.lines[d].source_line
                                                  : Anchor::kNoLine};
    const std::string pre_text =
        d < a_shape.size() ? "'" + Clip(a_shape[d]) + "'" : "end of file";
    const std::string post_text =
        d < b_shape.size() ? "'" + Clip(b_shape[d]) + "'" : "end of file";
    result.findings.push_back(Finding{
        kRuleShapeDivergence, Severity::kError, pre_anchor, post_anchor,
        "canonical shapes diverge at shape line " + std::to_string(d + 1) +
            ": " + pre_text + " vs " + post_text});
    result.stats["pairs.shape_divergent"]++;
  }
  for (std::size_t i = 0; i < pre.size(); ++i) {
    if (pre_used[i]) continue;
    result.findings.push_back(Finding{
        kRuleUnpairedFile, Severity::kError,
        Anchor{pre_scans[i].canonical.name, Anchor::kNoLine}, Anchor{},
        "pre-corpus file has no structural counterpart in the post corpus"});
  }
  for (std::size_t i = 0; i < post.size(); ++i) {
    if (post_used[i]) continue;
    result.findings.push_back(Finding{
        kRuleUnpairedFile, Severity::kError,
        Anchor{post_scans[i].canonical.name, Anchor::kNoLine}, Anchor{},
        "post-corpus file has no structural counterpart in the pre corpus"});
  }
  result.stats["pairs.matched"] += pairs.size();

  // --- reference graphs, per matched pair ---
  for (const auto& [p, q] : pairs) {
    CompareRefGraphs(pre_scans[p].canonical, pre_scans[p].refs,
                     post_scans[q].canonical, post_scans[q].refs,
                     result.findings);
  }

  // --- corpus-wide prefix lattice over the matched pairs ---
  std::vector<CorpusPrefixEvent> pre_events;
  std::vector<CorpusPrefixEvent> post_events;
  std::sort(pairs.begin(), pairs.end());
  for (const auto& [p, q] : pairs) {
    for (const PrefixEvent& event : pre_scans[p].canonical.prefixes) {
      pre_events.push_back(CorpusPrefixEvent{
          event.prefix, Anchor{pre_scans[p].canonical.name, event.source_line}});
    }
    for (const PrefixEvent& event : post_scans[q].canonical.prefixes) {
      post_events.push_back(CorpusPrefixEvent{
          event.prefix,
          Anchor{post_scans[q].canonical.name, event.source_line}});
    }
  }
  CompareLattices(pre_events, post_events, result.findings);

  FinishResult(result, options);
  return result;
}

}  // namespace confanon::audit
