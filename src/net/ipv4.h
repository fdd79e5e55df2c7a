// IPv4 address model.
//
// The anonymizer's IP handling (paper Section 4.3) needs more than raw
// 32-bit values: classful semantics (older commands such as RIP and EIGRP
// `network` statements implicitly assume address classes, so anonymization
// must be class-preserving), netmask recognition (netmasks must pass through
// unchanged), and strict parse/format round-tripping so rewritten configs
// remain valid.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace confanon::net {

/// Classful address classes. Classes D (multicast) and E (reserved) are
/// treated as special by the anonymizer and never rewritten.
enum class AddrClass { kA, kB, kC, kD, kE };

/// Number of leading network bits implied by a classful class, for classes
/// A (8), B (16), C (24). Classes D/E have no host/network split; callers
/// must not ask.
int ClassfulNetworkBits(AddrClass addr_class);

/// An IPv4 address as a host-order 32-bit value with value semantics.
class Ipv4Address {
 public:
  constexpr Ipv4Address() = default;
  constexpr explicit Ipv4Address(std::uint32_t value) : value_(value) {}

  constexpr std::uint32_t value() const { return value_; }

  /// Parses strict dotted-quad notation: exactly four decimal octets
  /// 0-255 separated by dots, no leading/trailing garbage. Leading zeros
  /// are accepted (configs contain them) but octets longer than 3 digits
  /// are not.
  static std::optional<Ipv4Address> Parse(std::string_view text);

  /// Length of the longest dotted quad, "255.255.255.255".
  static constexpr std::size_t kMaxTextSize = 15;

  /// Writes the dotted quad (octets in decimal, no leading zeros) to
  /// `out`, which must have room for kMaxTextSize bytes, and returns the
  /// number of bytes written. Allocates nothing.
  std::size_t FormatTo(char* out) const;

  /// Formats as dotted-quad.
  std::string ToString() const;

  AddrClass GetClass() const;

  constexpr std::uint8_t Octet(int index) const {
    return static_cast<std::uint8_t>(value_ >> (24 - 8 * index));
  }

  /// Bit i counting from the most significant (bit 0 = top bit).
  constexpr bool Bit(int i) const { return (value_ >> (31 - i)) & 1u; }

  friend constexpr auto operator<=>(Ipv4Address, Ipv4Address) = default;

 private:
  std::uint32_t value_ = 0;
};

/// True if the value reads as a contiguous-ones netmask (e.g.
/// 255.255.255.0, 255.0.0.0, 0.0.0.0, 255.255.255.255).
bool IsNetmask(Ipv4Address address);

/// True if the value reads as a contiguous wildcard (inverse) mask as used
/// by Cisco ACLs and OSPF network statements (e.g. 0.0.0.255).
bool IsWildcardMask(Ipv4Address address);

/// Prefix length of a netmask, if it is one.
std::optional<int> NetmaskToPrefixLength(Ipv4Address mask);

/// Netmask with `length` leading one bits (0 <= length <= 32).
Ipv4Address PrefixLengthToNetmask(int length);

/// Length of the longest common prefix of two addresses, in [0, 32].
int CommonPrefixLength(Ipv4Address a, Ipv4Address b);

}  // namespace confanon::net
