// The map-free static auditor (src/audit/): pair-mode isomorphism over
// generator corpora, mutation detection, residue lint, SARIF output.
#include <cctype>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.h"
#include "audit/canonical.h"
#include "audit/lint.h"
#include "audit/sarif.h"
#include "config/document.h"
#include "gen/config_writer.h"
#include "gen/network_gen.h"
#include "junos/writer.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"

namespace confanon {
namespace {

enum class CorpusKind { kIos, kJunos, kMixed };

std::vector<config::ConfigFile> MakeCorpus(CorpusKind kind, int routers = 6,
                                           std::uint64_t seed = 7) {
  gen::GeneratorParams params;
  params.seed = seed;
  params.router_count = routers;
  const gen::NetworkSpec network = gen::GenerateNetwork(params, 0);
  std::vector<config::ConfigFile> files;
  for (std::size_t i = 0; i < network.routers.size(); ++i) {
    const bool junos = kind == CorpusKind::kJunos ||
                       (kind == CorpusKind::kMixed && i % 2 == 1);
    files.push_back(junos
                        ? junos::WriteJunosConfig(network.routers[i], network)
                        : gen::WriteConfig(network.routers[i], network));
  }
  return files;
}

std::vector<config::ConfigFile> Anonymize(
    const std::vector<config::ConfigFile>& files, int threads) {
  core::ServiceOptions options;
  options.base.salt = "audit-test-salt";
  options.threads = threads;
  const auto context = pipeline::MakeServiceContext(std::move(options));
  pipeline::CorpusPipeline pipe(context, context->CreateSession());
  return pipe.AnonymizeCorpus(files);
}

/// True if some finding carries a real line anchor naming `file` on
/// either side — the "file:line-anchored diagnostic" the audit promises.
bool AnchoredTo(const audit::AuditResult& result, const std::string& file) {
  for (const audit::Finding& finding : result.findings) {
    if (finding.anchor.file == file &&
        finding.anchor.line != audit::Anchor::kNoLine) {
      return true;
    }
    if (finding.related.file == file &&
        finding.related.line != audit::Anchor::kNoLine) {
      return true;
    }
  }
  return false;
}

bool HasRule(const audit::AuditResult& result, const std::string& rule) {
  for (const audit::Finding& finding : result.findings) {
    if (finding.rule_id == rule) return true;
  }
  return false;
}

/// Locates a hash token ("h" + 10 hex) in `line`; returns npos if none.
std::size_t FindHashToken(const std::string& line) {
  for (std::size_t i = 0; i + 11 <= line.size(); ++i) {
    if (!audit::IsHashToken(std::string_view(line).substr(i, 11))) continue;
    const bool left_ok = i == 0 || !std::isalnum(
        static_cast<unsigned char>(line[i - 1]));
    const bool right_ok =
        i + 11 == line.size() ||
        !std::isalnum(static_cast<unsigned char>(line[i + 11]));
    if (left_ok && right_ok) return i;
  }
  return std::string::npos;
}

// --- pair mode: clean corpora must audit clean ---

class PairCleanTest : public ::testing::TestWithParam<CorpusKind> {};

TEST_P(PairCleanTest, AnonymizedCorpusIsIsomorphicAtAnyThreadCount) {
  const std::vector<config::ConfigFile> pre = MakeCorpus(GetParam());
  for (const int threads : {1, 4}) {
    const std::vector<config::ConfigFile> post = Anonymize(pre, threads);
    audit::AuditOptions options;
    options.threads = threads;
    const audit::AuditResult result = audit::ComparePair(pre, post, options);
    EXPECT_TRUE(result.findings.empty())
        << "threads=" << threads << "\n"
        << result.ToText();
    EXPECT_EQ(result.files_scanned, pre.size() + post.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Dialects, PairCleanTest,
                         ::testing::Values(CorpusKind::kIos, CorpusKind::kJunos,
                                           CorpusKind::kMixed));

// --- pair mode: hand-mutated post corpora must fail with anchors ---

TEST(AuditPair, RenamedUseSiteIsCaught) {
  const std::vector<config::ConfigFile> pre = MakeCorpus(CorpusKind::kIos);
  std::vector<config::ConfigFile> post = Anonymize(pre, 1);

  // Rename one use site: swap the last hash token of one file for a
  // different (well-formed) hash token.
  bool mutated = false;
  for (std::size_t f = 0; f < post.size() && !mutated; ++f) {
    std::vector<std::string> lines(post[f].lines().begin(), post[f].lines().end());
    for (std::size_t i = lines.size(); i-- > 0 && !mutated;) {
      const std::size_t at = FindHashToken(lines[i]);
      if (at == std::string::npos) continue;
      const std::string original = lines[i].substr(at, 11);
      const std::string replacement =
          original == "h0123456789" ? "h9876543210" : "h0123456789";
      lines[i].replace(at, 11, replacement);
      post[f] = config::ConfigFile(post[f].name(), std::move(lines));
      mutated = true;
    }
  }
  ASSERT_TRUE(mutated);

  const audit::AuditResult result = audit::ComparePair(pre, post);
  EXPECT_TRUE(result.HasErrors()) << result.ToText();
}

TEST(AuditPair, DroppedDefinitionIsCaught) {
  const std::vector<config::ConfigFile> pre = MakeCorpus(CorpusKind::kIos);
  std::vector<config::ConfigFile> post = Anonymize(pre, 1);

  // Drop one definition line (a route-map or prefix-list header).
  std::string mutated_file;
  for (std::size_t f = 0; f < post.size() && mutated_file.empty(); ++f) {
    std::vector<std::string> lines(post[f].lines().begin(), post[f].lines().end());
    for (std::size_t i = 0; i < lines.size(); ++i) {
      if (lines[i].rfind("route-map ", 0) == 0 ||
          lines[i].rfind("ip prefix-list ", 0) == 0) {
        lines.erase(lines.begin() + static_cast<std::ptrdiff_t>(i));
        mutated_file = post[f].name();
        post[f] = config::ConfigFile(post[f].name(), std::move(lines));
        break;
      }
    }
  }
  ASSERT_FALSE(mutated_file.empty());

  const audit::AuditResult result = audit::ComparePair(pre, post);
  EXPECT_TRUE(result.HasErrors()) << result.ToText();
  EXPECT_TRUE(AnchoredTo(result, mutated_file)) << result.ToText();
}

TEST(AuditPair, ReinsertedOriginalIdentifierIsCaught) {
  const std::vector<config::ConfigFile> pre = MakeCorpus(CorpusKind::kIos);
  std::vector<config::ConfigFile> post = Anonymize(pre, 1);

  // Find the original hostname and the hash it became, then put the
  // original back everywhere in that file (shape-preserving, so the file
  // still pairs — only AUD-P005/P003 can catch it).
  std::string original;
  for (const std::string_view line : pre[0].lines()) {
    if (line.rfind("hostname ", 0) == 0) {
      original = line.substr(std::string("hostname ").size());
      break;
    }
  }
  ASSERT_FALSE(original.empty());
  std::string hashed;
  std::vector<std::string> lines(post[0].lines().begin(), post[0].lines().end());
  for (const std::string& line : lines) {
    if (line.rfind("hostname ", 0) == 0) {
      hashed = line.substr(std::string("hostname ").size());
      break;
    }
  }
  ASSERT_TRUE(audit::IsHashToken(hashed));
  for (std::string& line : lines) {
    for (std::size_t at = line.find(hashed); at != std::string::npos;
         at = line.find(hashed, at + original.size())) {
      line.replace(at, hashed.size(), original);
    }
  }
  post[0] = config::ConfigFile(post[0].name(), std::move(lines));

  const audit::AuditResult result = audit::ComparePair(pre, post);
  EXPECT_TRUE(result.HasErrors()) << result.ToText();
  EXPECT_TRUE(HasRule(result, audit::kRuleIdentitySurvived)) << result.ToText();
  bool anchored = false;
  for (const audit::Finding& finding : result.findings) {
    if (finding.rule_id == audit::kRuleIdentitySurvived &&
        finding.anchor.line != audit::Anchor::kNoLine &&
        finding.message.find(original) != std::string::npos) {
      anchored = true;
    }
  }
  EXPECT_TRUE(anchored) << result.ToText();
}

TEST(AuditPair, MissingFileIsReportedAsUnpaired) {
  const std::vector<config::ConfigFile> pre = MakeCorpus(CorpusKind::kIos, 4);
  std::vector<config::ConfigFile> post = Anonymize(pre, 1);
  post.pop_back();
  const audit::AuditResult result = audit::ComparePair(pre, post);
  EXPECT_TRUE(result.HasErrors());
  EXPECT_TRUE(HasRule(result, audit::kRuleUnpairedFile)) << result.ToText();
}

// --- residue lint ---

TEST(AuditLint, AnonymizedOutputHasNoErrorResidue) {
  for (const CorpusKind kind :
       {CorpusKind::kIos, CorpusKind::kJunos, CorpusKind::kMixed}) {
    const std::vector<config::ConfigFile> post =
        Anonymize(MakeCorpus(kind), 1);
    const audit::AuditResult result = audit::LintCorpus(post);
    EXPECT_EQ(result.ErrorCount(), 0u) << result.ToText();
  }
}

TEST(AuditLint, OriginalCorpusIsFullOfResidue) {
  const audit::AuditResult result =
      audit::LintCorpus(MakeCorpus(CorpusKind::kIos));
  EXPECT_TRUE(result.HasErrors());
  EXPECT_TRUE(HasRule(result, audit::kRuleHostnameResidue)) << result.ToText();
}

TEST(AuditLint, DanglingUseAndDeadDefinitionAreReported) {
  const std::vector<config::ConfigFile> corpus = {config::ConfigFile::FromText(
      "r1",
      "interface Loopback0\n"
      " ip address 10.0.0.1 255.255.255.255\n"
      "router ospf 10\n"
      " passive-interface Loopback9\n"
      "route-map unused-map permit 10\n"
      "!\n")};
  const audit::AuditResult result = audit::LintCorpus(corpus);
  EXPECT_TRUE(HasRule(result, audit::kRuleDanglingUse)) << result.ToText();
  EXPECT_TRUE(HasRule(result, audit::kRuleDeadDef)) << result.ToText();
  for (const audit::Finding& finding : result.findings) {
    if (finding.rule_id == audit::kRuleDanglingUse) {
      EXPECT_EQ(finding.severity, audit::Severity::kWarning);
      EXPECT_EQ(finding.anchor.line, 3u);  // zero-based passive-interface
    }
    if (finding.rule_id == audit::kRuleDeadDef) {
      EXPECT_EQ(finding.severity, audit::Severity::kNote);
      EXPECT_EQ(finding.anchor.line, 4u);
    }
  }
}

TEST(AuditLint, MetricsAreRecorded) {
  obs::MetricsRegistry metrics;
  audit::AuditOptions options;
  options.metrics = &metrics;
  const std::vector<config::ConfigFile> corpus = MakeCorpus(CorpusKind::kIos);
  const audit::AuditResult result = audit::LintCorpus(corpus, options);
  EXPECT_EQ(metrics.CounterNamed("audit.files").Value(), corpus.size());
  EXPECT_EQ(metrics.HistogramNamed("audit.scan_ns").Count(), corpus.size());
  EXPECT_EQ(metrics.CounterNamed("audit.findings").Value(),
            result.findings.size());
}

// --- SARIF ---

/// Minimal JSON syntax checker: enough to prove the SARIF log is
/// well-formed JSON without a JSON library in the test image.
class JsonChecker {
 public:
  explicit JsonChecker(std::string_view text) : text_(text) {}

  bool Valid() {
    SkipSpace();
    if (!Value()) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  bool Value() {
    if (pos_ >= text_.size()) return false;
    switch (text_[pos_]) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }
  bool Object() {
    ++pos_;  // '{'
    SkipSpace();
    if (Peek('}')) return true;
    for (;;) {
      SkipSpace();
      if (!String()) return false;
      SkipSpace();
      if (!Expect(':')) return false;
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek('}')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool Array() {
    ++pos_;  // '['
    SkipSpace();
    if (Peek(']')) return true;
    for (;;) {
      SkipSpace();
      if (!Value()) return false;
      SkipSpace();
      if (Peek(']')) return true;
      if (!Expect(',')) return false;
    }
  }
  bool String() {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      pos_ += text_[pos_] == '\\' ? 2 : 1;
    }
    return Expect('"');
  }
  bool Number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool Literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }
  bool Peek(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool Expect(char c) { return Peek(c); }
  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

TEST(AuditSarif, OutputIsWellFormedAndCarriesFindings) {
  // A result rich in findings: lint of an un-anonymized corpus.
  const audit::AuditResult result =
      audit::LintCorpus(MakeCorpus(CorpusKind::kIos));
  ASSERT_FALSE(result.findings.empty());
  const std::string sarif = audit::ToSarif(result);
  EXPECT_TRUE(JsonChecker(sarif).Valid()) << sarif.substr(0, 400);
  EXPECT_NE(sarif.find("\"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("confanon_audit"), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find(result.findings[0].rule_id), std::string::npos);
  // Every catalogued rule rides along in the driver descriptor.
  for (const audit::RuleInfo& rule : audit::RuleCatalog()) {
    EXPECT_NE(sarif.find(rule.id), std::string::npos) << rule.id;
  }
}

TEST(AuditSarif, EmptyResultIsStillValid) {
  const std::string sarif = audit::ToSarif(audit::AuditResult{});
  EXPECT_TRUE(JsonChecker(sarif).Valid());
  EXPECT_NE(sarif.find("\"results\""), std::string::npos);
}

}  // namespace
}  // namespace confanon
