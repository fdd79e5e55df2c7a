// Character sets over the 8-bit alphabet used by the regex engine.
//
// The engine frames every subject string with sentinel bytes so that the
// anchors (^, $) and Cisco's `_` delimiter can be desugared into ordinary
// character classes; this file defines the alphabet and those sentinels.
#pragma once

#include <bitset>
#include <cstdint>
#include <string>
#include <string_view>

namespace confanon::regex {

/// Sentinel framing bytes. They never occur in config text (which is
/// printable ASCII), so using them as virtual begin/end markers is safe.
inline constexpr char kBeginSentinel = '\x02';
inline constexpr char kEndSentinel = '\x03';

/// A set of byte values with value semantics.
class CharSet {
 public:
  CharSet() = default;

  static CharSet Single(char c) {
    CharSet set;
    set.Add(c);
    return set;
  }

  /// Every byte value, including the sentinels. Used for the implicit
  /// leading/trailing ".*" that gives the engine search (substring)
  /// semantics.
  static CharSet Any();

  /// Every byte except the framing sentinels; this is what `.` and negated
  /// classes expand to, so that `.` cannot consume the virtual string
  /// boundaries.
  static CharSet AnyExceptSentinels();

  /// Cisco as-path `_`: matches a delimiter — space, comma, braces,
  /// parentheses — or the start/end of the string (the sentinels).
  static CharSet CiscoUnderscore();

  void Add(char c) { bits_.set(static_cast<unsigned char>(c)); }
  void AddRange(char lo, char hi);
  bool Contains(char c) const { return bits_.test(static_cast<unsigned char>(c)); }
  bool Empty() const { return bits_.none(); }
  std::size_t Count() const { return bits_.count(); }

  CharSet& operator|=(const CharSet& other) {
    bits_ |= other.bits_;
    return *this;
  }

  /// Complement within AnyExceptSentinels (negated classes must not match
  /// the virtual boundaries).
  CharSet NegatedWithinText() const;

  bool operator==(const CharSet& other) const = default;

  /// Hash of the member bytes, for keying sets in hash containers.
  std::size_t Hash() const { return std::hash<std::bitset<256>>{}(bits_); }

  /// Debug rendering, e.g. "[0-9a]".
  std::string ToString() const;

 private:
  std::bitset<256> bits_;
};

/// Frames `text` with the begin/end sentinels.
std::string FrameSubject(std::string_view text);

}  // namespace confanon::regex
