#include "audit/tokenized.h"

#include "util/strings.h"

namespace confanon::audit {

void TokenizedFile::Reset(const config::ConfigFile& file, Dialect dialect) {
  file_ = &file;
  dialect_ = dialect;
  lines_.clear();
  words_.clear();
  tokens_.clear();
  lower_.clear();
  lower_text_.clear();
  lower_offsets_.clear();
  banners_.clear();
  lines_.resize(file.lines().size());
  if (dialect == Dialect::kJunos) {
    SplitJunos();
  } else {
    SplitIos();
  }
}

void TokenizedFile::SplitIos() {
  banners_ = config::FindBannerRegions(*file_);
  for (const config::LineRegion& region : banners_) {
    lines_[region.begin].kind = LineKind::kBannerStart;
    for (std::size_t i = region.begin + 1; i < region.end; ++i) {
      lines_[i].kind = LineKind::kBannerBody;
    }
  }
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    config::TokenizeLineInto(raw(i), ios_buf_);
    lines_[i].begin = static_cast<std::uint32_t>(words_.size());
    words_.insert(words_.end(), ios_buf_.words.begin(), ios_buf_.words.end());
    lines_[i].end = static_cast<std::uint32_t>(words_.size());
    AppendLower(i);
  }
  lower_.reserve(words_.size());
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    for (const std::string_view word : words(i)) {
      lower_.push_back(LowerOf(i, word));
    }
  }
}

void TokenizedFile::SplitJunos() {
  bool in_block_comment = false;
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    const std::string_view line = raw(i);
    lines_[i].begin = static_cast<std::uint32_t>(tokens_.size());
    if (in_block_comment || util::StartsWith(util::Trim(line), "/*")) {
      in_block_comment = line.find("*/") == std::string_view::npos;
      lines_[i].kind = LineKind::kBlockComment;
      lower_offsets_.push_back(lower_text_.size());
    } else {
      junos::TokenizeJunosLineInto(line, junos_buf_);
      tokens_.insert(tokens_.end(), junos_buf_.tokens.begin(),
                     junos_buf_.tokens.end());
      AppendLower(i);
    }
    lines_[i].end = static_cast<std::uint32_t>(tokens_.size());
  }
  lower_.reserve(tokens_.size());
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    for (const junos::Token& token : tokens(i)) {
      lower_.push_back(LowerOf(i, token.text));
    }
  }
}

void TokenizedFile::AppendLower(std::size_t line) {
  lower_offsets_.push_back(lower_text_.size());
  const std::size_t at = lower_text_.size();
  lower_text_.append(raw(line));
  for (std::size_t i = at; i < lower_text_.size(); ++i) {
    char& c = lower_text_[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
}

std::string_view TokenizedFile::LowerOf(std::size_t line,
                                        std::string_view text) const {
  const auto offset = static_cast<std::size_t>(text.data() - raw(line).data());
  return std::string_view(lower_text_)
      .substr(lower_offsets_[line] + offset, text.size());
}

bool EqualsLowercase(std::string_view text, std::string_view lower) {
  if (text.size() != lower.size()) return false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != lower[i]) return false;
  }
  return true;
}

}  // namespace confanon::audit
