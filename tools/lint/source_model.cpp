// The shared file model: loading, comment/string stripping, include
// extraction, identifier helpers, and inline suppression markers.

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "tools/lint/lint.hpp"

namespace hublab::lint {

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool contains_identifier(const std::string& text, const std::string& ident) {
  std::size_t pos = 0;
  while ((pos = text.find(ident, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(text[pos - 1]);
    const std::size_t end = pos + ident.size();
    const bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) return true;
    pos = end;
  }
  return false;
}

std::string last_identifier(const std::string& expr) {
  std::size_t end = expr.size();
  while (end > 0 && std::isspace(static_cast<unsigned char>(expr[end - 1])) != 0) --end;
  // `adj_[u]` names adj_, not the index expression: peel trailing [...]
  // (and (...), for completeness) before reading the identifier.
  while (end > 0 && (expr[end - 1] == ']' || expr[end - 1] == ')')) {
    const char close = expr[end - 1];
    const char open = close == ']' ? '[' : '(';
    std::size_t depth = 0;
    std::size_t i = end;
    while (i > 0) {
      --i;
      if (expr[i] == close) ++depth;
      if (expr[i] == open && --depth == 0) break;
    }
    end = i;
    while (end > 0 && std::isspace(static_cast<unsigned char>(expr[end - 1])) != 0) --end;
  }
  std::size_t begin = end;
  while (begin > 0 && is_ident_char(expr[begin - 1])) --begin;
  return expr.substr(begin, end - begin);
}

namespace {

/// Strip // and /* */ comments (tracking block state across lines) and
/// string/char literals, so banned tokens inside either never count.
std::vector<std::string> stripped_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::string current;
  bool in_block = false;
  bool in_string = false;
  bool in_char = false;
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char next = i + 1 < text.size() ? text[i + 1] : '\0';
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
      in_string = in_char = false;  // unterminated literals never span lines here
      continue;
    }
    if (in_block) {
      if (c == '*' && next == '/') {
        in_block = false;
        ++i;
      }
      continue;
    }
    if (in_string) {
      if (c == '\\') ++i;
      else if (c == '"') in_string = false;
      continue;
    }
    if (in_char) {
      if (c == '\\') ++i;
      else if (c == '\'') in_char = false;
      continue;
    }
    if (c == '/' && next == '/') {
      while (i + 1 < text.size() && text[i + 1] != '\n') ++i;
      continue;
    }
    if (c == '/' && next == '*') {
      in_block = true;
      ++i;
      continue;
    }
    if (c == '"') {
      in_string = true;
      current += ' ';
      continue;
    }
    if (c == '\'' && !(i > 0 && is_ident_char(text[i - 1]))) {
      // A char literal; identifier-adjacent ' is a digit separator (1'000).
      in_char = true;
      continue;
    }
    current += c;
  }
  lines.push_back(current);
  return lines;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// Include targets are read from the RAW lines (string stripping blanks
/// the quoted target in `code`), but only where the stripped line still
/// starts with `#`, so commented-out includes never count.
std::vector<IncludeEdge> extract_includes(const std::vector<std::string>& raw,
                                          const std::vector<std::string>& code) {
  std::vector<IncludeEdge> edges;
  for (std::size_t i = 0; i < raw.size() && i < code.size(); ++i) {
    const std::size_t hash = code[i].find_first_not_of(" \t");
    if (hash == std::string::npos || code[i][hash] != '#') continue;
    if (code[i].find("include", hash) == std::string::npos) continue;
    const std::string& line = raw[i];
    const std::size_t inc = line.find("include");
    if (inc == std::string::npos) continue;
    const std::size_t open = line.find_first_of("\"<", inc);
    if (open == std::string::npos) continue;
    const char close_char = line[open] == '"' ? '"' : '>';
    const std::size_t close = line.find(close_char, open + 1);
    if (close == std::string::npos) continue;
    edges.push_back(IncludeEdge{line.substr(open + 1, close - open - 1), i + 1,
                                line[open] == '"'});
  }
  return edges;
}

std::string module_of(const std::string& rel) {
  const std::size_t slash = rel.find('/');
  const std::string top = slash == std::string::npos ? rel : rel.substr(0, slash);
  if (top != "src") return top;
  const std::size_t second = rel.find('/', slash + 1);
  if (second == std::string::npos) return top;
  return rel.substr(slash + 1, second - slash - 1);
}

}  // namespace

std::vector<SourceFile> load_tree(const fs::path& root) {
  std::vector<fs::path> paths;
  for (const char* dir : {"src", "tools", "tests", "bench"}) {
    const fs::path base = root / dir;
    if (!fs::exists(base)) continue;
    auto it = fs::recursive_directory_iterator(base);
    for (const auto& entry : it) {
      // Seeded violation trees (tests/lint_fixtures/...) are analyzer test
      // data, not repo code.
      if (entry.is_directory() && entry.path().filename() == "lint_fixtures") {
        it.disable_recursion_pending();
        continue;
      }
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext == ".cpp" || ext == ".hpp") paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());

  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const fs::path& path : paths) {
    SourceFile f;
    f.abs = path;
    f.rel = fs::relative(path, root).generic_string();
    f.module = module_of(f.rel);
    f.text = read_file(path);
    {
      std::istringstream stream(f.text);
      std::string raw;
      while (std::getline(stream, raw)) f.raw_lines.push_back(raw);
      if (f.raw_lines.empty()) f.raw_lines.emplace_back();
    }
    f.code = stripped_lines(f.text);
    for (std::size_t i = 0; i < f.code.size(); ++i) {
      for (std::size_t k = 0; k <= f.code[i].size(); ++k) f.flat_line.push_back(i + 1);
      f.flat += f.code[i];
      f.flat += '\n';
    }
    f.includes = extract_includes(f.raw_lines, f.code);
    f.is_header = path.extension() == ".hpp";
    f.in_src = f.rel.rfind("src/", 0) == 0;
    files.push_back(std::move(f));
  }
  return files;
}

bool inline_suppressed(const SourceFile& file, std::size_t line, const std::string& rule) {
  const std::string marker = std::string("hublab-lint-allow(") + rule + ")";
  const auto carries = [&](std::size_t idx) {
    return idx < file.raw_lines.size() && file.raw_lines[idx].find(marker) != std::string::npos;
  };
  if (line == 0) line = 1;
  return carries(line - 1) || (line >= 2 && carries(line - 2));
}

void Sink::add(const SourceFile& file, std::size_t line, const std::string& rule,
               std::string message) {
  if (inline_suppressed(file, line, rule)) {
    ++suppressed;
    return;
  }
  findings.push_back(Finding{file.rel, line, rule, std::move(message)});
}

void Sink::add_external(std::string file, std::size_t line, const std::string& rule,
                        std::string message) {
  findings.push_back(Finding{std::move(file), line, rule, std::move(message)});
}

}  // namespace hublab::lint
