#include "net/ipv4.h"

#include <bit>
#include <cassert>

#include "util/strings.h"

namespace confanon::net {

int ClassfulNetworkBits(AddrClass addr_class) {
  switch (addr_class) {
    case AddrClass::kA:
      return 8;
    case AddrClass::kB:
      return 16;
    case AddrClass::kC:
      return 24;
    case AddrClass::kD:
    case AddrClass::kE:
      break;
  }
  assert(false && "classes D/E have no network/host split");
  return 32;
}

std::optional<Ipv4Address> Ipv4Address::Parse(std::string_view text) {
  std::uint32_t value = 0;
  int octets = 0;
  std::size_t i = 0;
  while (i <= text.size()) {
    std::size_t start = i;
    while (i < text.size() && util::IsAsciiDigit(text[i])) ++i;
    const std::size_t digits = i - start;
    if (digits == 0 || digits > 3) return std::nullopt;
    std::uint64_t octet = 0;
    if (!util::ParseUint(text.substr(start, digits), 255, octet)) {
      return std::nullopt;
    }
    value = (value << 8) | static_cast<std::uint32_t>(octet);
    ++octets;
    if (i == text.size()) break;
    if (text[i] != '.' || octets == 4) return std::nullopt;
    ++i;  // consume the dot
  }
  if (octets != 4) return std::nullopt;
  return Ipv4Address(value);
}

namespace {

/// Writes `octet` in decimal without leading zeros; returns the end.
char* FormatOctet(unsigned octet, char* out) {
  if (octet >= 100) {
    *out++ = static_cast<char>('0' + octet / 100);
    octet %= 100;
    *out++ = static_cast<char>('0' + octet / 10);
  } else if (octet >= 10) {
    *out++ = static_cast<char>('0' + octet / 10);
  }
  *out++ = static_cast<char>('0' + octet % 10);
  return out;
}

}  // namespace

std::size_t Ipv4Address::FormatTo(char* out) const {
  char* end = FormatOctet(Octet(0), out);
  for (int i = 1; i < 4; ++i) {
    *end++ = '.';
    end = FormatOctet(Octet(i), end);
  }
  return static_cast<std::size_t>(end - out);
}

std::string Ipv4Address::ToString() const {
  char buf[kMaxTextSize];
  return std::string(buf, FormatTo(buf));
}

AddrClass Ipv4Address::GetClass() const {
  const std::uint8_t top = Octet(0);
  if ((top & 0x80u) == 0) return AddrClass::kA;         // 0xxxxxxx
  if ((top & 0xC0u) == 0x80u) return AddrClass::kB;     // 10xxxxxx
  if ((top & 0xE0u) == 0xC0u) return AddrClass::kC;     // 110xxxxx
  if ((top & 0xF0u) == 0xE0u) return AddrClass::kD;     // 1110xxxx
  return AddrClass::kE;                                 // 1111xxxx
}

bool IsNetmask(Ipv4Address address) {
  const std::uint32_t v = address.value();
  // A netmask is ones followed by zeros: ~v must be of form 2^k - 1, i.e.
  // ~v & (~v + 1) == 0.
  const std::uint32_t inverted = ~v;
  return (inverted & (inverted + 1)) == 0;
}

bool IsWildcardMask(Ipv4Address address) {
  const std::uint32_t v = address.value();
  // Zeros followed by ones: v must be 2^k - 1.
  return (v & (v + 1)) == 0;
}

std::optional<int> NetmaskToPrefixLength(Ipv4Address mask) {
  if (!IsNetmask(mask)) return std::nullopt;
  return std::popcount(mask.value());
}

Ipv4Address PrefixLengthToNetmask(int length) {
  assert(length >= 0 && length <= 32);
  if (length == 0) return Ipv4Address(0);
  return Ipv4Address(~std::uint32_t{0} << (32 - length));
}

int CommonPrefixLength(Ipv4Address a, Ipv4Address b) {
  const std::uint32_t diff = a.value() ^ b.value();
  if (diff == 0) return 32;
  return std::countl_zero(diff);
}

}  // namespace confanon::net
