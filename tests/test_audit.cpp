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

TEST(AuditPair, CommentBlocksPairWithTheirMarkers) {
  // The anonymizer replaces an IOS banner block with a bare "!" and each
  // line of a JunOS block comment with an empty marker; the canonical
  // form must drop the same lines on the pre side, or the files no
  // longer pair.
  const std::vector<config::ConfigFile> pre = {
      config::ConfigFile::FromText("r1",
                                   "hostname core-1\n"
                                   "banner motd ^C\n"
                                   "Property of ACME Corp\n"
                                   "interface Loopback0 is monitored\n"
                                   "^C\n"
                                   "interface Loopback0\n"
                                   " ip address 10.0.0.1 255.255.255.255\n"),
      config::ConfigFile::FromText("r2",
                                   "/* Managed by the ACME NOC */\n"
                                   "system {\n"
                                   "    /*\n"
                                   "     * core router, rack 12\n"
                                   "     */\n"
                                   "    host-name core-2;\n"
                                   "}\n")};
  const std::vector<config::ConfigFile> post = Anonymize(pre, 1);
  const audit::AuditResult result = audit::ComparePair(pre, post);
  EXPECT_TRUE(result.findings.empty()) << result.ToText();
  EXPECT_EQ(result.stats.at("pairs.matched"), 2u) << result.ToText();
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

// --- residue lint: one hand-written fixture per rule form ---
//
// Each case lints a small file that carries exactly one kind of residue
// and pins every finding of that rule (severity, zero-based anchor line,
// message), then lints its passing twin: the same file with the residue
// removed the way the anonymizer removes it.

struct Expected {
  audit::Severity severity;
  std::size_t line;
  std::string message;
};

audit::AuditResult LintText(const std::string& text,
                            audit::DialectMode dialect) {
  audit::AuditOptions options;
  options.dialect = dialect;
  return audit::LintCorpus({config::ConfigFile::FromText("r1", text)}, options);
}

/// Lints `text` and `twin` under `dialect`: `text` must report exactly
/// `expected` under `rule` (in report order), `twin` nothing under it.
void ExpectLintRule(audit::DialectMode dialect, const std::string& text,
                    const std::string& twin, const char* rule,
                    const std::vector<Expected>& expected) {
  const audit::AuditResult result = LintText(text, dialect);
  std::vector<const audit::Finding*> found;
  for (const audit::Finding& finding : result.findings) {
    if (finding.rule_id == rule) found.push_back(&finding);
  }
  ASSERT_EQ(found.size(), expected.size()) << result.ToText();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(found[i]->severity, expected[i].severity) << result.ToText();
    EXPECT_EQ(found[i]->anchor.file, "r1");
    EXPECT_EQ(found[i]->anchor.line, expected[i].line) << result.ToText();
    EXPECT_EQ(found[i]->message, expected[i].message);
    EXPECT_TRUE(found[i]->related.file.empty());
  }
  const audit::AuditResult twin_result = LintText(twin, dialect);
  for (const audit::Finding& finding : twin_result.findings) {
    EXPECT_NE(finding.rule_id, rule) << twin_result.ToText();
  }
}

constexpr auto kIos = audit::DialectMode::kIos;
constexpr auto kJunos = audit::DialectMode::kJunos;
constexpr auto kError = audit::Severity::kError;
constexpr auto kWarning = audit::Severity::kWarning;

TEST(AuditLint, IosDescriptionPayloadIsFreeText) {
  ExpectLintRule(kIos,
                 "interface Loopback0\n description Link to ACME Corp\n",
                 "interface Loopback0\n description\n", audit::kRuleFreeText,
                 {{kError, 1,
                   "free-text payload survived after 'description'"}});
}

TEST(AuditLint, IosRemarkPayloadIsFreeText) {
  ExpectLintRule(kIos, "access-list 10 remark allow the NOC in Dallas\n",
                 "access-list 10 remark\n", audit::kRuleFreeText,
                 {{kError, 0, "free-text payload survived after 'remark'"}});
}

TEST(AuditLint, IosTitlePayloadIsFreeText) {
  ExpectLintRule(kIos, "!\ntitle Core router of ACME\n", "!\ntitle\n",
                 audit::kRuleFreeText,
                 {{kError, 1, "free-text payload survived after 'title'"}});
}

TEST(AuditLint, IosSnmpContactLocationChassisIdAreFreeText) {
  ExpectLintRule(
      kIos,
      "snmp-server contact noc at acme dot com\n"
      "snmp-server location Building 4 Dallas\n"
      "snmp-server chassis-id ACME-CORE-1\n",
      "snmp-server contact\nsnmp-server location\nsnmp-server chassis-id\n",
      audit::kRuleFreeText,
      {{kError, 0, "free-text payload survived after 'contact'"},
       {kError, 1, "free-text payload survived after 'location'"},
       {kError, 2, "free-text payload survived after 'chassis-id'"}});
}

TEST(AuditLint, IosBannerBlockIsFreeText) {
  // The anonymizer replaces a whole banner block with a bare "!". A
  // prose line inside the banner that reads like a description is
  // reported on its own line as well.
  ExpectLintRule(kIos,
                 "hostname h0123456789\n"
                 "banner motd ^C\n"
                 "Authorized access only\n"
                 "see description of policy\n"
                 "^C\n"
                 "line vty 0 4\n",
                 "hostname h0123456789\n!\nline vty 0 4\n",
                 audit::kRuleFreeText,
                 {{kError, 1,
                   "banner block survived anonymization (banners must be "
                   "stripped)"},
                  {kError, 3,
                   "free-text payload survived after 'description'"}});
}

TEST(AuditLint, JunosDescriptionStringIsFreeText) {
  ExpectLintRule(kJunos,
                 "interfaces {\n"
                 "    ge-0/0/0 {\n"
                 "        description \"uplink to ACME\";\n"
                 "    }\n"
                 "}\n",
                 "interfaces {\n"
                 "    ge-0/0/0 {\n"
                 "        description \"\";\n"
                 "    }\n"
                 "}\n",
                 audit::kRuleFreeText,
                 {{kError, 2,
                   "free-text string survived after 'description'"}});
}

TEST(AuditLint, JunosMessageStringIsFreeText) {
  ExpectLintRule(kJunos,
                 "system {\n"
                 "    login {\n"
                 "        MESSAGE \"Authorized use only\";\n"
                 "    }\n"
                 "}\n",
                 "system {\n"
                 "    login {\n"
                 "        MESSAGE \"\";\n"
                 "    }\n"
                 "}\n",
                 audit::kRuleFreeText,
                 {{kError, 2, "free-text string survived after 'message'"}});
}

TEST(AuditLint, JunosBlockCommentWithContentIsFreeText) {
  // One-line and multi-line forms: the bare markers pass, any line with
  // prose between them does not.
  ExpectLintRule(kJunos,
                 "/* Managed by the ACME NOC */\n"
                 "system {\n"
                 "    /*\n"
                 "     * core router, rack 12\n"
                 "     */\n"
                 "    host-name h0123456789;\n"
                 "}\n",
                 "/* */\n"
                 "system {\n"
                 "    /* */\n"
                 "    /* */\n"
                 "    /* */\n"
                 "    host-name h0123456789;\n"
                 "}\n",
                 audit::kRuleFreeText,
                 {{kError, 0,
                   "block comment content survived (expected a bare '/* */' "
                   "marker)"},
                  {kError, 3,
                   "block comment content survived (expected a bare '/* */' "
                   "marker)"}});
}

TEST(AuditLint, JunosTrailingHashCommentIsFreeText) {
  ExpectLintRule(kJunos,
                 "system {\n"
                 "    host-name h0123456789; # core router in Dallas\n"
                 "}\n",
                 "system {\n"
                 "    host-name h0123456789;\n"
                 "}\n",
                 audit::kRuleFreeText,
                 {{kError, 1, "trailing '#' comment survived anonymization"}});
}

TEST(AuditLint, IosEmbeddedDottedQuadIsFlagged) {
  // A dotted quad inside a larger token is flagged; a special address
  // inside one (a netmask) is not, and neither is a CIDR token, which
  // the canonicalizer classifies as an address rather than a verbatim
  // token.
  ExpectLintRule(kIos,
                 "logging host 10.1.2.3:514\n"
                 "logging host 255.255.255.0:514\n"
                 "ip prefix-list h0123456789 seq 5 permit 10.1.2.0/24\n"
                 "ip prefix-list h0123456789 seq 10 permit 10.1.2.3/33\n",
                 "logging host 10.1.2.3\n"
                 "logging host 255.255.255.0:514\n"
                 "ip prefix-list h0123456789 seq 5 permit 10.1.2.0/24\n"
                 "ip prefix-list h0123456789 seq 10 permit 10.1.2.3/32\n",
                 audit::kRuleEmbeddedAddress,
                 {{kError, 0,
                   "token '10.1.2.3:514' embeds dotted-quad 10.1.2.3"},
                  {kError, 3,
                   "token '10.1.2.3/33' embeds dotted-quad 10.1.2.3"}});
}

TEST(AuditLint, JunosEmbeddedDottedQuadIsFlagged) {
  ExpectLintRule(kJunos,
                 "routing-options {\n"
                 "    static {\n"
                 "        route 10.1.2.0/24 next-hop 10.9.9.1;\n"
                 "    }\n"
                 "}\n"
                 "system {\n"
                 "    url \"10.1.2.3:8080\";\n"
                 "}\n",
                 "routing-options {\n"
                 "    static {\n"
                 "        route 10.1.2.0/24 next-hop 10.9.9.1;\n"
                 "    }\n"
                 "}\n"
                 "system {\n"
                 "    url \"224.0.0.5:8080\";\n"
                 "}\n",
                 audit::kRuleEmbeddedAddress,
                 {{kError, 6,
                   "token '\"10.1.2.3:8080\"' embeds dotted-quad 10.1.2.3"}});
}

TEST(AuditLint, IosFusedAsnRunIsFlaggedUpTo64511) {
  // 3-6 digit runs fused to letters, valued 1..64511 (the public 16-bit
  // ASN range); private ASNs, short and long runs, zero and separated
  // digits pass.
  ExpectLintRule(kIos,
                 "interface Vlan100\n"
                 "interface Vlan64510\n"
                 "interface Vlan64511\n"
                 "interface Vlan64512\n"
                 "interface Vlan99\n"
                 "interface Vlan1234567\n"
                 "interface Vlan000\n"
                 "interface Vlan-701\n",
                 "interface Vlan64512\n"
                 "interface Vlan99\n"
                 "interface Vlan1234567\n"
                 "interface Vlan000\n"
                 "interface Vlan-701\n",
                 audit::kRuleAsnInName,
                 {{kWarning, 0,
                   "token 'Vlan100' embeds ASN-like digit run 100"},
                  {kWarning, 1,
                   "token 'Vlan64510' embeds ASN-like digit run 64510"},
                  {kWarning, 2,
                   "token 'Vlan64511' embeds ASN-like digit run 64511"}});
}

TEST(AuditLint, JunosFusedAsnRunIsFlagged) {
  ExpectLintRule(kJunos,
                 "interfaces {\n"
                 "    vlan64511 {\n"
                 "        unit 0;\n"
                 "    }\n"
                 "}\n",
                 "interfaces {\n"
                 "    vlan64512 {\n"
                 "        unit 0;\n"
                 "    }\n"
                 "}\n",
                 audit::kRuleAsnInName,
                 {{kWarning, 1,
                   "token 'vlan64511' embeds ASN-like digit run 64511"}});
}

TEST(AuditLint, IosUnlistedNameIsPassListFallthrough) {
  ExpectLintRule(kIos,
                 "route-map ACMECORP-IN permit 10\n"
                 "router bgp 65000\n"
                 " neighbor 10.0.0.2 route-map ACMECORP-IN in\n",
                 "route-map h0123456789 permit 10\n"
                 "router bgp 65000\n"
                 " neighbor 10.0.0.2 route-map h0123456789 in\n",
                 audit::kRulePassListFallthrough,
                 {{kError, 0,
                   "token 'ACMECORP-IN' is not an anonymized hash and is not "
                   "pass-listed"},
                  {kError, 2,
                   "token 'ACMECORP-IN' is not an anonymized hash and is not "
                   "pass-listed"}});
}

TEST(AuditLint, JunosUnlistedNameIsPassListFallthrough) {
  ExpectLintRule(kJunos,
                 "policy-options {\n"
                 "    policy-statement ACMECORP-IN {\n"
                 "        then accept;\n"
                 "    }\n"
                 "}\n",
                 "policy-options {\n"
                 "    policy-statement h0123456789 {\n"
                 "        then accept;\n"
                 "    }\n"
                 "}\n",
                 audit::kRulePassListFallthrough,
                 {{kError, 1,
                   "token 'ACMECORP-IN' is not an anonymized hash and is not "
                   "pass-listed"}});
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
