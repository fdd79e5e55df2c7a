#include "passlist/passlist.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

namespace confanon::passlist {
namespace {

TEST(PassList, BuiltinContainsCoreKeywords) {
  const PassList list = PassList::Builtin();
  for (const char* keyword :
       {"interface", "ethernet", "serial", "loopback", "router", "bgp",
        "ospf", "rip", "eigrp", "neighbor", "network", "description",
        "hostname", "banner", "motd", "access", "list", "permit", "deny",
        "community", "route", "map", "match", "set", "address", "ip"}) {
    EXPECT_TRUE(list.Contains(keyword)) << keyword;
  }
}

TEST(PassList, BuiltinIsLarge) {
  // The scraped corpus must offer real coverage, not a toy list.
  EXPECT_GE(PassList::Builtin().Size(), 1000u);
}

TEST(PassList, DoesNotContainIdentityBearers) {
  const PassList list = PassList::Builtin();
  for (const char* name : {"uunet", "sprintlink", "foocorp", "globex",
                           "lax", "sfo", "nakatomi"}) {
    EXPECT_FALSE(list.Contains(name)) << name;
  }
}

TEST(PassList, PaperHazardWordsArePassListed) {
  // Section 4.2: "global and crossing are both in the pass-list, but the
  // string 'global crossing' in a comment must be anonymized" — handled by
  // comment stripping, not by the list.
  const PassList list = PassList::Builtin();
  EXPECT_TRUE(list.Contains("global"));
  EXPECT_TRUE(list.Contains("crossing"));
}

TEST(PassList, CaseInsensitive) {
  const PassList list = PassList::Builtin();
  EXPECT_TRUE(list.Contains("Ethernet"));
  EXPECT_TRUE(list.Contains("ETHERNET"));
  PassList custom;
  custom.Add("FooBar");
  EXPECT_TRUE(custom.Contains("foobar"));
  EXPECT_TRUE(custom.Contains("FOOBAR"));
}

TEST(PassList, ContainsFoldsMixedCase) {
  PassList list;
  list.Add("GigabitEthernet");
  EXPECT_TRUE(list.Contains("gigabitethernet"));
  EXPECT_TRUE(list.Contains("gIgAbItEtHeRnEt"));
  EXPECT_TRUE(list.Contains("GIGABITETHERNET"));
  EXPECT_FALSE(list.Contains("GigabitEthernet0"));
  EXPECT_FALSE(list.Contains("Gigabit"));
  EXPECT_FALSE(list.Contains(""));
}

TEST(PassList, ContainsTokensLongerThanTheLookupBuffer) {
  // Contains lowercases into a 64-byte stack buffer; longer tokens take
  // the allocating path and must answer the same.
  for (const std::size_t size : {std::size_t{63}, std::size_t{64},
                                 std::size_t{65}, std::size_t{300}}) {
    std::string token;
    for (std::size_t i = 0; i < size; ++i) {
      token += static_cast<char>('a' + i % 26);
    }
    PassList list;
    list.Add(token);
    std::string upper = token;
    for (char& c : upper) c = static_cast<char>(c - 'a' + 'A');
    EXPECT_TRUE(list.Contains(token)) << size;
    EXPECT_TRUE(list.Contains(upper)) << size;
    EXPECT_FALSE(list.Contains(token + "x")) << size;
    EXPECT_FALSE(list.Contains(token.substr(1))) << size;
    EXPECT_TRUE(list.PassesWord(upper + "-" + upper)) << size;
  }
}

TEST(PassList, AddAndMerge) {
  PassList a, b;
  a.Add("alpha");
  b.Add("beta");
  a.Merge(b);
  EXPECT_TRUE(a.Contains("alpha"));
  EXPECT_TRUE(a.Contains("beta"));
  EXPECT_EQ(a.Size(), 2u);
  a.Add("");  // no-op
  EXPECT_EQ(a.Size(), 2u);
}

TEST(PassList, TruncatedIsDeterministicSubset) {
  const PassList full = PassList::Builtin();
  const PassList half = full.Truncated(0.5, 42);
  const PassList again = full.Truncated(0.5, 42);
  EXPECT_EQ(half.Size(), again.Size());
  EXPECT_LT(half.Size(), full.Size());
  EXPECT_GT(half.Size(), full.Size() / 4);
  const PassList none = full.Truncated(0.0, 42);
  EXPECT_EQ(none.Size(), 0u);
  const PassList all = full.Truncated(1.0, 42);
  EXPECT_EQ(all.Size(), full.Size());
}

TEST(DocScraper, ExtractsAlphabeticTokens) {
  PassList list;
  DocScraper scraper(list);
  const std::size_t added = scraper.ScrapeText(
      "Use the neighbor command to configure a BGP peering session.");
  EXPECT_GT(added, 5u);
  EXPECT_TRUE(list.Contains("neighbor"));
  EXPECT_TRUE(list.Contains("peering"));
  EXPECT_TRUE(list.Contains("bgp"));
}

TEST(DocScraper, SkipsSingleLettersAndNumbers) {
  PassList list;
  DocScraper scraper(list);
  scraper.ScrapeText("a 1 22 b3b x");
  EXPECT_FALSE(list.Contains("a"));
  EXPECT_FALSE(list.Contains("x"));
  EXPECT_FALSE(list.Contains("22"));
  // b3b splits into single letters, none added.
  EXPECT_EQ(list.Size(), 0u);
}

TEST(DocScraper, CountsOnlyNewTokens) {
  PassList list;
  DocScraper scraper(list);
  EXPECT_EQ(scraper.ScrapeText("router router ROUTER"), 1u);
  EXPECT_EQ(scraper.ScrapeText("router"), 0u);
}

TEST(DocScraper, ScrapeStream) {
  PassList list;
  DocScraper scraper(list);
  std::istringstream doc("configure terminal\ninterface gigabitethernet");
  EXPECT_GT(scraper.ScrapeStream(doc), 0u);
  EXPECT_TRUE(list.Contains("gigabitethernet"));
}

}  // namespace
}  // namespace confanon::passlist
