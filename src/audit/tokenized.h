// One config file, split into words once per audit scan.
//
// The audit's per-file consumers — the canonicalizer, the def/use
// extractor and the residue lint — all read each line's words and their
// lowercase forms, and all need the same per-file line structure (IOS
// banner blocks, JunOS '/* */' block comments). TokenizedFile does that
// work once per line, with the same tokenizers the engines use
// (config::TokenizeLineInto for IOS, junos::TokenizeJunosLineInto for
// JunOS), into flat per-file arrays. A scanner keeps one TokenizedFile
// per worker and refills it for every file, so steady-state scanning
// allocates nothing per line.
//
// Every view aliases either the file's lines or this object's lowercase
// copy of them: it stays valid until the next Reset() and as long as the
// ConfigFile lives.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "audit/canonical.h"
#include "config/document.h"
#include "config/tokenizer.h"
#include "junos/tokenizer.h"

namespace confanon::audit {

class TokenizedFile {
 public:
  enum class LineKind : std::uint8_t {
    kText,          // an ordinary line: words (IOS) or tokens (JunOS)
    kBannerStart,   // IOS: first line of a banner block
    kBannerBody,    // IOS: any later line of a banner block
    kBlockComment,  // JunOS: opens or continues a '/* */' comment; no tokens
  };

  /// Splits every line of `file` under `dialect`, reusing this object's
  /// buffers. `file` must outlive the views handed out.
  void Reset(const config::ConfigFile& file, Dialect dialect);

  const config::ConfigFile& file() const { return *file_; }
  Dialect dialect() const { return dialect_; }
  std::size_t line_count() const { return lines_.size(); }
  std::string_view raw(std::size_t line) const { return file_->lines()[line]; }
  LineKind kind(std::size_t line) const { return lines_[line].kind; }

  /// IOS: the line's blank-separated words (banner lines included).
  std::span<const std::string_view> words(std::size_t line) const {
    return Slice(words_, line);
  }
  /// JunOS: the line's tokens, trailing '#' comment included.
  std::span<const junos::Token> tokens(std::size_t line) const {
    return Slice(tokens_, line);
  }
  /// Lowercase twin of words(line) (IOS) or of each token's text (JunOS).
  std::span<const std::string_view> lower(std::size_t line) const {
    return Slice(lower_, line);
  }

  /// IOS: the banner blocks, as config::FindBannerRegions reports them.
  const std::vector<config::LineRegion>& banners() const { return banners_; }

 private:
  struct Line {
    std::uint32_t begin = 0;  // index of the first word/token
    std::uint32_t end = 0;
    LineKind kind = LineKind::kText;
  };

  template <typename T>
  std::span<const T> Slice(const std::vector<T>& items,
                           std::size_t line) const {
    const Line& range = lines_[line];
    return std::span<const T>(items).subspan(range.begin,
                                             range.end - range.begin);
  }

  void SplitIos();
  void SplitJunos();
  /// Appends line `line`'s raw text, lowercased, to lower_text_.
  void AppendLower(std::size_t line);
  /// The lowercase twin of `text`, a slice of line `line`'s raw text.
  std::string_view LowerOf(std::size_t line, std::string_view text) const;

  const config::ConfigFile* file_ = nullptr;
  Dialect dialect_ = Dialect::kIos;
  std::vector<Line> lines_;
  std::vector<std::string_view> words_;
  std::vector<junos::Token> tokens_;
  std::vector<std::string_view> lower_;
  /// Every tokenized line lowercased, back to back; line i starts at
  /// lower_offsets_[i].
  std::string lower_text_;
  std::vector<std::size_t> lower_offsets_;
  std::vector<config::LineRegion> banners_;
  config::LineTokens ios_buf_;
  junos::JunosLine junos_buf_;
};

/// ASCII case-insensitive equality against an all-lowercase `lower`,
/// without materializing a lowercase copy of `text`.
bool EqualsLowercase(std::string_view text, std::string_view lower);

}  // namespace confanon::audit
