// SourceFile: masking, suppression directives, tokenization.
#include "lint.hpp"

#include <algorithm>
#include <cctype>
#include <tuple>

namespace mocc::lint {

bool is_known_check(std::string_view name) {
  for (const auto known : kCheckNames) {
    if (name == known) return true;
  }
  return false;
}

bool operator<(const Diagnostic& a, const Diagnostic& b) {
  return std::tie(a.file, a.line, a.check, a.message) <
         std::tie(b.file, b.line, b.check, b.message);
}

bool operator==(const Diagnostic& a, const Diagnostic& b) {
  return std::tie(a.file, a.line, a.check, a.message) ==
         std::tie(b.file, b.line, b.check, b.message);
}

std::string to_string(const Diagnostic& diagnostic) {
  return diagnostic.file + ":" + std::to_string(diagnostic.line) + ": " +
         diagnostic.check + ": " + diagnostic.message;
}

// --- SourceFile ------------------------------------------------------

SourceFile SourceFile::from_string(std::string path, std::string text) {
  SourceFile file;
  file.path_ = std::move(path);
  file.text_ = std::move(text);
  file.index_lines();
  file.mask();
  file.finalize_regions();
  return file;
}

void SourceFile::index_lines() {
  line_starts_.push_back(0);
  for (std::size_t i = 0; i < text_.size(); ++i) {
    if (text_[i] == '\n' && i + 1 < text_.size()) line_starts_.push_back(i + 1);
  }
}

std::size_t SourceFile::line_of(std::size_t offset) const {
  const auto it =
      std::upper_bound(line_starts_.begin(), line_starts_.end(), offset);
  return static_cast<std::size_t>(it - line_starts_.begin());
}

namespace {

/// Blanks [begin, end) in `code`, preserving newlines so offsets and
/// line numbers survive masking.
void blank(std::string& code, std::size_t begin, std::size_t end) {
  for (std::size_t i = begin; i < end && i < code.size(); ++i) {
    if (code[i] != '\n') code[i] = ' ';
  }
}

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

}  // namespace

void SourceFile::mask() {
  code_ = text_;
  const std::string& t = text_;
  std::size_t i = 0;
  while (i < t.size()) {
    const char c = t[i];
    // Line comment.
    if (c == '/' && i + 1 < t.size() && t[i + 1] == '/') {
      std::size_t end = i;
      while (end < t.size() && t[end] != '\n') ++end;
      parse_directives(i, std::string_view(t).substr(i, end - i));
      blank(code_, i, end);
      i = end;
      continue;
    }
    // Block comment.
    if (c == '/' && i + 1 < t.size() && t[i + 1] == '*') {
      std::size_t end = t.find("*/", i + 2);
      end = end == std::string::npos ? t.size() : end + 2;
      parse_directives(i, std::string_view(t).substr(i, end - i));
      blank(code_, i, end);
      i = end;
      continue;
    }
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && i + 1 < t.size() && t[i + 1] == '"' &&
        (i == 0 || !ident_char(t[i - 1]))) {
      std::size_t delim_end = i + 2;
      while (delim_end < t.size() && t[delim_end] != '(') ++delim_end;
      const std::string closer =
          std::string(")").append(t, i + 2, delim_end - (i + 2)).append("\"");
      std::size_t end = t.find(closer, delim_end);
      end = end == std::string::npos ? t.size() : end + closer.size();
      literals_.push_back(
          {i + 1, t.substr(delim_end + 1, end - closer.size() - delim_end - 1)});
      blank(code_, i, end);
      i = end;
      continue;
    }
    // String literal.
    if (c == '"') {
      std::size_t end = i + 1;
      while (end < t.size() && t[end] != '"' && t[end] != '\n') {
        if (t[end] == '\\' && end + 1 < t.size()) ++end;
        ++end;
      }
      if (end < t.size() && t[end] == '"') ++end;
      literals_.push_back({i, t.substr(i + 1, end - i - (end > i + 1 ? 2 : 1))});
      blank(code_, i, end);
      i = end;
      continue;
    }
    // Character literal — but not a digit separator (1'000'000).
    if (c == '\'') {
      if (i > 0 && std::isalnum(static_cast<unsigned char>(t[i - 1])) != 0 &&
          i + 1 < t.size() &&
          std::isalnum(static_cast<unsigned char>(t[i + 1])) != 0) {
        ++i;  // digit separator, leave in place
        continue;
      }
      std::size_t end = i + 1;
      while (end < t.size() && t[end] != '\'' && t[end] != '\n') {
        if (t[end] == '\\' && end + 1 < t.size()) ++end;
        ++end;
      }
      if (end < t.size() && t[end] == '\'') ++end;
      blank(code_, i, end);
      i = end;
      continue;
    }
    ++i;
  }
}

namespace {

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())) != 0) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())) != 0) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

void SourceFile::parse_directives(std::size_t comment_offset,
                                  std::string_view comment) {
  static constexpr std::string_view kMarker = "mocc-lint:";
  std::size_t pos = comment.find(kMarker);
  while (pos != std::string_view::npos) {
    const std::size_t directive_offset = comment_offset + pos;
    const std::size_t line = line_of(directive_offset);
    std::string_view rest = trim(comment.substr(pos + kMarker.size()));

    // Directives the wire-kind fixture/header use for other purposes
    // ("mocc-lint: wire-range" style) are not suppressions; only the
    // allow family is parsed here.
    std::string_view verb;
    for (const std::string_view v : {"allow-begin", "allow-end", "allow"}) {
      if (rest.substr(0, v.size()) == v) {
        verb = v;
        break;
      }
    }
    if (verb.empty()) {
      pos = comment.find(kMarker, pos + kMarker.size());
      continue;
    }
    rest.remove_prefix(verb.size());
    rest = trim(rest);
    std::string check;
    std::string_view after_check;
    if (!rest.empty() && rest.front() == '(') {
      const std::size_t close = rest.find(')');
      if (close != std::string_view::npos) {
        check = std::string(trim(rest.substr(1, close - 1)));
        after_check = trim(rest.substr(close + 1));
      }
    }
    if (check.empty() || !is_known_check(check)) {
      suppression_diagnostics_.push_back(
          {"suppression", path_, line,
           "mocc-lint: " + std::string(verb) +
               " needs a known check name in parentheses (got '" + check +
               "')"});
    } else if (verb == "allow" || verb == "allow-begin") {
      // Justification required: "mocc-lint: allow(check): why".
      std::string_view justification = after_check;
      if (!justification.empty() && justification.front() == ':') {
        justification = trim(justification.substr(1));
      } else {
        justification = {};
      }
      if (justification.empty()) {
        suppression_diagnostics_.push_back(
            {"suppression", path_, line,
             "mocc-lint: " + std::string(verb) + "(" + check +
                 ") requires a justification after a colon"});
      } else if (verb == "allow") {
        // Covers its own line; a standalone comment also covers the next
        // line (the flagged declaration usually sits below it).
        allow_lines_[check].insert(line);
        const std::size_t line_begin = line_starts_[line - 1];
        bool code_before = false;
        for (std::size_t i = line_begin; i < comment_offset; ++i) {
          if (std::isspace(static_cast<unsigned char>(code_[i])) == 0) {
            code_before = true;
            break;
          }
        }
        if (!code_before) allow_lines_[check].insert(line + 1);
      } else {
        open_regions_[check].push_back(line);
      }
    } else {  // allow-end
      auto& open = open_regions_[check];
      if (open.empty()) {
        suppression_diagnostics_.push_back(
            {"suppression", path_, line,
             "mocc-lint: allow-end(" + check + ") without a matching begin"});
      } else {
        allow_regions_[check].push_back({open.back(), line});
        open.pop_back();
      }
    }
    pos = comment.find(kMarker, pos + kMarker.size());
  }
}

void SourceFile::finalize_regions() {
  for (auto& [check, begins] : open_regions_) {
    for (const std::size_t begin : begins) {
      suppression_diagnostics_.push_back(
          {"suppression", path_, begin,
           "mocc-lint: allow-begin(" + check + ") is never closed"});
    }
    begins.clear();
  }
}

bool SourceFile::allowed(std::string_view check, std::size_t line) const {
  if (const auto it = allow_lines_.find(check); it != allow_lines_.end()) {
    if (it->second.count(line) != 0) return true;
  }
  if (const auto it = allow_regions_.find(check); it != allow_regions_.end()) {
    for (const auto& [begin, end] : it->second) {
      if (line >= begin && line <= end) return true;
    }
  }
  return false;
}

// --- Tokenizer -------------------------------------------------------

std::vector<Token> tokenize(const SourceFile& file) {
  const std::string& code = file.code();
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < code.size()) {
    const char c = code[i];
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) != 0 || c == '_') {
      std::size_t end = i;
      while (end < code.size() && ident_char(code[end])) ++end;
      tokens.push_back({Token::Kind::kIdent,
                        std::string_view(code).substr(i, end - i), i});
      i = end;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      std::size_t end = i;
      while (end < code.size() &&
             (ident_char(code[end]) || code[end] == '\'' ||
              (code[end] == '.' && end + 1 < code.size() &&
               std::isdigit(static_cast<unsigned char>(code[end + 1])) != 0))) {
        ++end;
      }
      tokens.push_back({Token::Kind::kNumber,
                        std::string_view(code).substr(i, end - i), i});
      i = end;
      continue;
    }
    std::size_t len = 1;
    if (i + 1 < code.size()) {
      const char d = code[i + 1];
      if ((c == ':' && d == ':') || (c == '-' && d == '>')) len = 2;
    }
    tokens.push_back(
        {Token::Kind::kPunct, std::string_view(code).substr(i, len), i});
    i += len;
  }
  return tokens;
}

// --- Config ----------------------------------------------------------

Config Config::repo_default() {
  Config config;
  config.deterministic_paths = {"src/sim/",   "src/abcast/", "src/protocols/",
                                "src/fault/", "src/obs/",    "src/txn/",
                                "src/exec/",  "bench/experiments.cpp"};
  config.component_paths = {{"reliable_link", "src/fault/"},
                            {"abcast", "src/abcast/"},
                            {"protocols", "src/protocols/"}};
  config.production_paths = {"src/", "bench/"};
  config.sched_hook_paths = {"src/abcast/", "src/protocols/", "src/fault/"};
  config.atomics_paths = {"src/exec/"};
  config.registry_path = "src/sim/wire_kinds.hpp";
  config.trace_header_path = "src/obs/trace.hpp";
  config.trace_source_path = "src/obs/trace.cpp";
  config.trace_docs_path = "docs/observability.md";
  return config;
}

namespace {
bool has_prefix_in(std::string_view path, const std::vector<std::string>& set) {
  for (const auto& prefix : set) {
    if (path.substr(0, prefix.size()) == prefix) return true;
  }
  return false;
}
}  // namespace

bool Config::in_deterministic_subtree(std::string_view path) const {
  return has_prefix_in(path, deterministic_paths);
}

bool Config::in_production_tree(std::string_view path) const {
  return has_prefix_in(path, production_paths);
}

bool Config::in_sched_hook_tree(std::string_view path) const {
  return has_prefix_in(path, sched_hook_paths);
}

bool Config::in_atomics_tree(std::string_view path) const {
  return has_prefix_in(path, atomics_paths);
}

}  // namespace mocc::lint
