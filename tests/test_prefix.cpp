#include "net/prefix.h"

#include <gtest/gtest.h>

#include "net/special.h"

namespace confanon::net {
namespace {

TEST(Prefix, CanonicalizesHostBits) {
  const Prefix p(*Ipv4Address::Parse("10.1.2.3"), 24);
  EXPECT_EQ(p.address().ToString(), "10.1.2.0");
  EXPECT_EQ(p.length(), 24);
  EXPECT_EQ(p.ToString(), "10.1.2.0/24");
}

TEST(Prefix, ParseValid) {
  const auto p = Prefix::Parse("1.1.1.0/24");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->ToString(), "1.1.1.0/24");
  EXPECT_EQ(Prefix::Parse("0.0.0.0/0")->length(), 0);
  EXPECT_EQ(Prefix::Parse("1.2.3.4/32")->ToString(), "1.2.3.4/32");
}

TEST(Prefix, ParseRejects) {
  EXPECT_FALSE(Prefix::Parse("1.1.1.0"));
  EXPECT_FALSE(Prefix::Parse("1.1.1.0/33"));
  EXPECT_FALSE(Prefix::Parse("1.1.1.0/"));
  EXPECT_FALSE(Prefix::Parse("1.1.1/24"));
  EXPECT_FALSE(Prefix::Parse("/24"));
  EXPECT_FALSE(Prefix::Parse("1.1.1.0/24/8"));
  EXPECT_FALSE(Prefix::Parse("1.1.1.0/2a"));
}

TEST(Prefix, FromAddressAndMask) {
  const auto p = Prefix::FromAddressAndMask(*Ipv4Address::Parse("1.1.1.1"),
                                            *Ipv4Address::Parse("255.255.255.0"));
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->ToString(), "1.1.1.0/24");
  EXPECT_FALSE(Prefix::FromAddressAndMask(*Ipv4Address::Parse("1.1.1.1"),
                                          *Ipv4Address::Parse("255.0.255.0")));
}

TEST(Prefix, ClassfulNetworkOf) {
  EXPECT_EQ(Prefix::ClassfulNetworkOf(*Ipv4Address::Parse("10.1.2.3"))
                ->ToString(),
            "10.0.0.0/8");
  EXPECT_EQ(Prefix::ClassfulNetworkOf(*Ipv4Address::Parse("172.16.1.1"))
                ->ToString(),
            "172.16.0.0/16");
  EXPECT_EQ(Prefix::ClassfulNetworkOf(*Ipv4Address::Parse("192.168.3.4"))
                ->ToString(),
            "192.168.3.0/24");
  EXPECT_FALSE(Prefix::ClassfulNetworkOf(*Ipv4Address::Parse("224.0.0.1")));
  EXPECT_FALSE(Prefix::ClassfulNetworkOf(*Ipv4Address::Parse("250.0.0.1")));
}

TEST(Prefix, ContainsAddress) {
  const Prefix p = *Prefix::Parse("10.1.0.0/16");
  EXPECT_TRUE(p.Contains(*Ipv4Address::Parse("10.1.0.0")));
  EXPECT_TRUE(p.Contains(*Ipv4Address::Parse("10.1.255.255")));
  EXPECT_FALSE(p.Contains(*Ipv4Address::Parse("10.2.0.0")));
  EXPECT_FALSE(p.Contains(*Ipv4Address::Parse("11.1.0.0")));
}

TEST(Prefix, ContainsPrefix) {
  const Prefix p = *Prefix::Parse("10.1.0.0/16");
  EXPECT_TRUE(p.Contains(*Prefix::Parse("10.1.4.0/24")));
  EXPECT_TRUE(p.Contains(p));
  EXPECT_FALSE(p.Contains(*Prefix::Parse("10.0.0.0/8")));  // less specific
  EXPECT_FALSE(p.Contains(*Prefix::Parse("10.2.0.0/24")));
}

TEST(Prefix, ZeroLengthContainsEverything) {
  const Prefix all = *Prefix::Parse("0.0.0.0/0");
  EXPECT_TRUE(all.Contains(*Ipv4Address::Parse("255.255.255.255")));
  EXPECT_TRUE(all.Contains(*Prefix::Parse("10.0.0.0/8")));
}

TEST(Prefix, IsSubnetAddressOf) {
  const Prefix p = *Prefix::Parse("10.1.2.0/24");
  EXPECT_TRUE(p.IsSubnetAddressOf(*Ipv4Address::Parse("10.1.2.0")));
  EXPECT_FALSE(p.IsSubnetAddressOf(*Ipv4Address::Parse("10.1.2.1")));
  EXPECT_FALSE(p.IsSubnetAddressOf(*Ipv4Address::Parse("10.1.3.0")));
}

TEST(Prefix, TrailingZeroBits) {
  EXPECT_EQ(TrailingZeroBits(*Ipv4Address::Parse("10.1.2.0")), 9);
  EXPECT_EQ(TrailingZeroBits(*Ipv4Address::Parse("10.1.0.0")), 16);
  EXPECT_EQ(TrailingZeroBits(*Ipv4Address::Parse("0.0.0.0")), 32);
  EXPECT_EQ(TrailingZeroBits(*Ipv4Address::Parse("1.2.3.5")), 0);
}

TEST(Prefix, LooksLikeSubnetAddress) {
  EXPECT_TRUE(LooksLikeSubnetAddress(*Ipv4Address::Parse("10.1.2.0")));
  EXPECT_TRUE(LooksLikeSubnetAddress(*Ipv4Address::Parse("10.1.2.4")));
  EXPECT_FALSE(LooksLikeSubnetAddress(*Ipv4Address::Parse("10.1.2.1")));
  EXPECT_TRUE(
      LooksLikeSubnetAddress(*Ipv4Address::Parse("10.0.0.0"), 24));
  EXPECT_FALSE(
      LooksLikeSubnetAddress(*Ipv4Address::Parse("10.1.0.0"), 24));
}

struct SpecialCase {
  const char* text;
  SpecialKind expected;
};
// Names each case by its text rather than by the struct's bytes, which hold
// a pointer and padding and would change the discovered test name every run.
void PrintTo(const SpecialCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(c.text);
}
class SpecialClassify : public ::testing::TestWithParam<SpecialCase> {};

TEST_P(SpecialClassify, Classifies) {
  const auto addr = Ipv4Address::Parse(GetParam().text);
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(ClassifySpecial(*addr), GetParam().expected) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Taxonomy, SpecialClassify,
    ::testing::Values(
        SpecialCase{"255.255.255.0", SpecialKind::kNetmaskLike},
        SpecialCase{"255.255.255.252", SpecialKind::kNetmaskLike},
        SpecialCase{"0.0.0.255", SpecialKind::kNetmaskLike},
        SpecialCase{"0.0.0.0", SpecialKind::kNetmaskLike},
        SpecialCase{"255.255.255.255", SpecialKind::kNetmaskLike},
        SpecialCase{"128.0.0.0", SpecialKind::kNetmaskLike},
        SpecialCase{"224.0.0.5", SpecialKind::kMulticast},
        SpecialCase{"239.1.2.3", SpecialKind::kMulticast},
        SpecialCase{"240.0.0.1", SpecialKind::kReservedE},
        SpecialCase{"127.0.0.1", SpecialKind::kLoopback},
        SpecialCase{"127.200.1.2", SpecialKind::kLoopback},
        SpecialCase{"0.1.2.3", SpecialKind::kThisNetwork},
        SpecialCase{"10.0.0.1", SpecialKind::kNotSpecial},
        SpecialCase{"192.168.1.1", SpecialKind::kNotSpecial},
        SpecialCase{"4.2.2.2", SpecialKind::kNotSpecial}));

TEST(Special, IsSpecialAgreesWithKind) {
  EXPECT_TRUE(IsSpecial(*Ipv4Address::Parse("255.0.0.0")));
  EXPECT_FALSE(IsSpecial(*Ipv4Address::Parse("12.34.56.78")));
}

TEST(Special, KindNamesDistinct) {
  EXPECT_NE(SpecialKindName(SpecialKind::kNetmaskLike),
            SpecialKindName(SpecialKind::kMulticast));
  EXPECT_EQ(SpecialKindName(SpecialKind::kNotSpecial), "not-special");
}

}  // namespace
}  // namespace confanon::net
