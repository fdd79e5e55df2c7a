#include "net/ipv4.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace confanon::net {
namespace {

TEST(Ipv4Address, ParseValid) {
  const auto addr = Ipv4Address::Parse("1.2.3.4");
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->value(), 0x01020304u);
  EXPECT_EQ(addr->ToString(), "1.2.3.4");
}

TEST(Ipv4Address, ParseBoundaries) {
  EXPECT_EQ(Ipv4Address::Parse("0.0.0.0")->value(), 0u);
  EXPECT_EQ(Ipv4Address::Parse("255.255.255.255")->value(), 0xFFFFFFFFu);
}

TEST(Ipv4Address, ParseLeadingZerosAccepted) {
  // Configs contain zero-padded octets; they must parse.
  EXPECT_EQ(Ipv4Address::Parse("010.001.000.001")->value(), 0x0A010001u);
}

struct BadAddressCase {
  const char* text;
};
// Names each case by its text. gtest's fallback prints the struct's bytes,
// so the discovered test name would carry a pointer and change every run.
void PrintTo(const BadAddressCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(c.text);
}
class Ipv4ParseRejects : public ::testing::TestWithParam<BadAddressCase> {};

TEST_P(Ipv4ParseRejects, Rejects) {
  EXPECT_FALSE(Ipv4Address::Parse(GetParam().text).has_value())
      << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, Ipv4ParseRejects,
    ::testing::Values(BadAddressCase{""}, BadAddressCase{"1.2.3"},
                      BadAddressCase{"1.2.3.4.5"}, BadAddressCase{"256.1.1.1"},
                      BadAddressCase{"1.2.3.256"}, BadAddressCase{"a.b.c.d"},
                      BadAddressCase{"1.2.3.4 "}, BadAddressCase{" 1.2.3.4"},
                      BadAddressCase{"1..3.4"}, BadAddressCase{"1.2.3."},
                      BadAddressCase{".1.2.3"}, BadAddressCase{"1.2.3.0405"},
                      BadAddressCase{"1,2,3,4"}, BadAddressCase{"1.2.3.4/24"}));

TEST(Ipv4Address, Octets) {
  const Ipv4Address addr(0xC0A80102u);  // 192.168.1.2
  EXPECT_EQ(addr.Octet(0), 192);
  EXPECT_EQ(addr.Octet(1), 168);
  EXPECT_EQ(addr.Octet(2), 1);
  EXPECT_EQ(addr.Octet(3), 2);
}

TEST(Ipv4Address, Bits) {
  const Ipv4Address addr(0x80000001u);
  EXPECT_TRUE(addr.Bit(0));
  EXPECT_FALSE(addr.Bit(1));
  EXPECT_TRUE(addr.Bit(31));
}

struct ClassCase {
  const char* text;
  AddrClass expected;
};
void PrintTo(const ClassCase& c, std::ostream* os) {
  *os << ::testing::PrintToString(c.text);
}
class Ipv4ClassTest : public ::testing::TestWithParam<ClassCase> {};

TEST_P(Ipv4ClassTest, Classifies) {
  const auto addr = Ipv4Address::Parse(GetParam().text);
  ASSERT_TRUE(addr.has_value());
  EXPECT_EQ(addr->GetClass(), GetParam().expected) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Classful, Ipv4ClassTest,
    ::testing::Values(ClassCase{"0.0.0.0", AddrClass::kA},
                      ClassCase{"10.0.0.1", AddrClass::kA},
                      ClassCase{"127.255.255.255", AddrClass::kA},
                      ClassCase{"128.0.0.0", AddrClass::kB},
                      ClassCase{"172.16.5.4", AddrClass::kB},
                      ClassCase{"191.255.0.0", AddrClass::kB},
                      ClassCase{"192.0.0.1", AddrClass::kC},
                      ClassCase{"223.255.255.255", AddrClass::kC},
                      ClassCase{"224.0.0.5", AddrClass::kD},
                      ClassCase{"239.255.255.255", AddrClass::kD},
                      ClassCase{"240.0.0.1", AddrClass::kE},
                      ClassCase{"255.255.255.255", AddrClass::kE}));

TEST(Ipv4Address, ClassfulNetworkBits) {
  EXPECT_EQ(ClassfulNetworkBits(AddrClass::kA), 8);
  EXPECT_EQ(ClassfulNetworkBits(AddrClass::kB), 16);
  EXPECT_EQ(ClassfulNetworkBits(AddrClass::kC), 24);
}

TEST(Netmask, RecognizesContiguousMasks) {
  for (int length = 0; length <= 32; ++length) {
    const Ipv4Address mask = PrefixLengthToNetmask(length);
    EXPECT_TRUE(IsNetmask(mask)) << length;
    EXPECT_EQ(NetmaskToPrefixLength(mask), length);
  }
}

TEST(Netmask, RejectsNonContiguous) {
  EXPECT_FALSE(IsNetmask(*Ipv4Address::Parse("255.0.255.0")));
  EXPECT_FALSE(IsNetmask(*Ipv4Address::Parse("255.255.255.1")));
  EXPECT_FALSE(IsNetmask(*Ipv4Address::Parse("1.2.3.4")));
  EXPECT_FALSE(NetmaskToPrefixLength(*Ipv4Address::Parse("1.2.3.4")));
}

TEST(WildcardMask, Recognizes) {
  EXPECT_TRUE(IsWildcardMask(*Ipv4Address::Parse("0.0.0.255")));
  EXPECT_TRUE(IsWildcardMask(*Ipv4Address::Parse("0.0.255.255")));
  EXPECT_TRUE(IsWildcardMask(*Ipv4Address::Parse("0.0.0.0")));
  EXPECT_TRUE(IsWildcardMask(*Ipv4Address::Parse("255.255.255.255")));
  EXPECT_TRUE(IsWildcardMask(*Ipv4Address::Parse("0.0.0.3")));
  EXPECT_FALSE(IsWildcardMask(*Ipv4Address::Parse("0.0.0.254")));
  EXPECT_FALSE(IsWildcardMask(*Ipv4Address::Parse("0.255.0.255")));
}

TEST(CommonPrefixLength, Basics) {
  const auto a = *Ipv4Address::Parse("10.0.0.0");
  EXPECT_EQ(CommonPrefixLength(a, a), 32);
  EXPECT_EQ(CommonPrefixLength(*Ipv4Address::Parse("10.0.0.0"),
                               *Ipv4Address::Parse("10.0.0.1")),
            31);
  EXPECT_EQ(CommonPrefixLength(*Ipv4Address::Parse("10.0.0.0"),
                               *Ipv4Address::Parse("10.1.0.0")),
            15);
  EXPECT_EQ(CommonPrefixLength(*Ipv4Address::Parse("0.0.0.0"),
                               *Ipv4Address::Parse("128.0.0.0")),
            0);
}

TEST(CommonPrefixLength, RandomPairsSymmetric) {
  util::Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    const Ipv4Address a(static_cast<std::uint32_t>(rng.Next()));
    const Ipv4Address b(static_cast<std::uint32_t>(rng.Next()));
    EXPECT_EQ(CommonPrefixLength(a, b), CommonPrefixLength(b, a));
  }
}

TEST(Ipv4Address, RoundTripRandom) {
  util::Rng rng(78);
  for (int i = 0; i < 500; ++i) {
    const Ipv4Address a(static_cast<std::uint32_t>(rng.Next()));
    const auto reparsed = Ipv4Address::Parse(a.ToString());
    ASSERT_TRUE(reparsed.has_value());
    EXPECT_EQ(*reparsed, a);
  }
}

}  // namespace
}  // namespace confanon::net
