#include "util/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

#include "util/check.hpp"

namespace aa::util {

namespace {

// The two-character escapes: kEscaped[i] is written as '\\' + kEscapeName[i].
constexpr std::string_view kEscaped = "\"\\\b\f\n\r\t";
constexpr std::string_view kEscapeName = "\"\\bfnrt";
constexpr std::string_view kWhitespace = " \t\n\r";
constexpr std::size_t kNone = std::string_view::npos;
constexpr int kMaxDepth = 256;

void append_string(std::string& out, std::string_view s) {
  out += '"';
  for (const char c : s) {
    const std::size_t k = kEscaped.find(c);
    if (k != kNone) {
      out += '\\';
      out += kEscapeName[k];
    } else if (const auto u = static_cast<unsigned char>(c); u < 0x20) {
      char buf[8];
      const int len = std::snprintf(buf, sizeof buf, "\\u%04x", unsigned{u});
      out.append(buf, static_cast<std::size_t>(len));
    } else {
      out += c;
    }
  }
  out += '"';
}

/// The whole of `text` as an integer of type T, or nullopt.
template <class T>
std::optional<T> parse_integer(std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const std::from_chars_result r = std::from_chars(text.data(), end, v);
  if (r.ec != std::errc{} || r.ptr != end) return std::nullopt;
  return v;
}

}  // namespace

Json::Json(double d) {
  if (!std::isfinite(d)) return;  // null
  char buf[32];
  const int len = std::snprintf(buf, sizeof buf, "%.17g", d);
  kind_ = Kind::kDouble;
  text_.assign(buf, static_cast<std::size_t>(len));
}

Json& Json::push(Json v) {
  if (kind_ == Kind::kNull) kind_ = Kind::kArray;
  AA_REQUIRE(kind_ == Kind::kArray, "Json::push: not an array");
  return items_.emplace_back(std::move(v));
}

Json& Json::operator[](std::string_view key) {
  if (kind_ == Kind::kNull) kind_ = Kind::kObject;
  AA_REQUIRE(kind_ == Kind::kObject, "Json::operator[]: not an object");
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return items_[i];
  }
  keys_.emplace_back(key);
  return items_.emplace_back();
}

const Json* Json::find(std::string_view key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (std::size_t i = 0; i < keys_.size(); ++i) {
    if (keys_[i] == key) return &items_[i];
  }
  return nullptr;
}

std::optional<std::int64_t> Json::as_int() const {
  if (kind_ != Kind::kInt) return std::nullopt;
  return parse_integer<std::int64_t>(text_);
}

std::optional<std::uint64_t> Json::as_uint() const {
  if (kind_ != Kind::kInt && kind_ != Kind::kUint) return std::nullopt;
  return parse_integer<std::uint64_t>(text_);  // nullopt when negative
}

void Json::dump_to(std::string& out, int depth) const {
  switch (kind_) {
    case Kind::kNull: out += "null"; return;
    case Kind::kString: append_string(out, text_); return;
    case Kind::kArray:
    case Kind::kObject: break;
    default: out += text_; return;  // a bool's or number's token
  }
  const bool obj = kind_ == Kind::kObject;
  bool multiline = depth == 0;
  for (const Json& v : items_) multiline |= v.kind_ == Kind::kObject;
  out += obj ? '{' : '[';
  for (std::size_t i = 0; i < items_.size(); ++i) {
    if (multiline) {
      out += i == 0 ? "\n" : ",\n";
      out.append(static_cast<std::size_t>(depth + 1) * 2, ' ');
    } else if (i != 0) {
      out += ", ";
    }
    if (obj) {
      append_string(out, keys_[i]);
      out += ": ";
    }
    items_[i].dump_to(out, depth + 1);
  }
  if (multiline && !items_.empty()) {
    out += '\n';
    out.append(static_cast<std::size_t>(depth) * 2, ' ');
  }
  out += obj ? '}' : ']';
}

std::string Json::dump() const {
  std::string out;
  dump_to(out, 0);
  out += '\n';
  return out;
}

namespace {

/// Recursive-descent reader over the RFC 8259 grammar; every step returns
/// false at the first violation.
struct Reader {
  std::string_view text;
  std::size_t pos = 0;

  bool value(Json& out, int depth) {
    ws();
    if (depth > kMaxDepth || pos == text.size()) return false;
    const char c = text[pos];
    if (c == '{' || c == '[') return container(out, depth, c == '{');
    if (c == '"') {
      std::string s;
      if (!string(s)) return false;
      out = Json(std::move(s));
    } else if (literal("true")) {
      out = Json(true);
    } else if (literal("false")) {
      out = Json(false);
    } else if (!literal("null")) {
      return number(out);
    }
    return true;
  }

  bool container(Json& out, int depth, bool obj) {
    const char close = obj ? '}' : ']';
    out = obj ? Json::object() : Json::array();
    ++pos;
    ws();
    if (eat(close)) return true;
    while (true) {
      Json* slot = nullptr;
      if (obj) {
        std::string key;
        ws();
        if (!string(key) || out.find(key) != nullptr) return false;
        ws();
        if (!eat(':')) return false;
        slot = &out[key];
      } else {
        slot = &out.push(Json());
      }
      if (!value(*slot, depth + 1)) return false;
      ws();
      if (eat(close)) return true;
      if (!eat(',')) return false;
    }
  }

  bool number(Json& out) {
    const std::size_t start = pos;
    eat('-');
    if (!eat('0') && !digits()) return false;
    const std::size_t integer_end = pos;
    if (eat('.') && !digits()) return false;
    if (eat('e') || eat('E')) {
      if (!eat('+')) eat('-');
      if (!digits()) return false;
    }
    if (pos == integer_end) {
      // Exact as int64 or uint64; only an integer outside both ranges
      // falls through to a double.
      const std::string_view token = text.substr(start, pos - start);
      if (const auto i = parse_integer<std::int64_t>(token)) {
        out = Json(*i);
        return true;
      }
      if (const auto u = parse_integer<std::uint64_t>(token)) {
        out = Json(*u);
        return true;
      }
    }
    double d = 0.0;
    const char* last = text.data() + pos;
    const std::from_chars_result r =
        std::from_chars(text.data() + start, last, d);
    out = Json(d);
    return r.ec == std::errc{} && r.ptr == last;
  }

  bool string(std::string& out) {
    if (!eat('"')) return false;
    while (pos < text.size()) {
      const char c = text[pos++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control
      if (c != '\\') {
        out += c;
        continue;
      }
      const char e = pos < text.size() ? text[pos++] : '\0';
      const std::size_t k = kEscapeName.find(e);
      if (k != kNone) {
        out += kEscaped[k];
      } else if (e == '/') {
        out += '/';
      } else if (e != 'u' || !unicode_escape(out)) {
        return false;  // bad escape
      }
    }
    return false;  // unterminated
  }

  /// The code point after "\u" (a surrogate pair spans two escapes),
  /// appended as UTF-8.
  bool unicode_escape(std::string& out) {
    std::uint32_t cp = 0;
    std::uint32_t lo = 0;
    if (!hex4(cp) || (cp >= 0xDC00 && cp <= 0xDFFF)) return false;
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (!eat('\\') || !eat('u') || !hex4(lo) || lo < 0xDC00 || lo > 0xDFFF) {
        return false;
      }
      cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
    }
    // A lead byte marking `extra` continuation bytes of 6 bits each.
    const int extra = cp < 0x80 ? 0 : cp < 0x800 ? 1 : cp < 0x10000 ? 2 : 3;
    const std::uint32_t lead = extra == 0 ? 0 : (0xFFu << (7 - extra)) & 0xFF;
    out += static_cast<char>(lead | (cp >> (6 * extra)));
    for (int k = extra - 1; k >= 0; --k) {
      out += static_cast<char>(0x80 | ((cp >> (6 * k)) & 0x3F));
    }
    return true;
  }

  bool hex4(std::uint32_t& v) {
    if (text.size() - pos < 4) return false;
    const char* p = text.data() + pos;
    pos += 4;
    return std::from_chars(p, p + 4, v, 16).ptr == p + 4;
  }

  bool literal(std::string_view word) {
    if (text.substr(pos, word.size()) != word) return false;
    pos += word.size();
    return true;
  }

  bool digits() {
    const std::size_t start = pos;
    while (pos < text.size() && text[pos] >= '0' && text[pos] <= '9') {
      ++pos;
    }
    return pos > start;
  }

  bool eat(char c) {
    if (pos == text.size() || text[pos] != c) return false;
    ++pos;
    return true;
  }

  void ws() {
    while (pos < text.size() && kWhitespace.find(text[pos]) != kNone) {
      ++pos;
    }
  }
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text) {
  Reader reader{text};
  Json out;
  if (!reader.value(out, 0)) return std::nullopt;
  reader.ws();
  if (reader.pos != text.size()) return std::nullopt;  // trailing bytes
  return out;
}

bool write_file_atomic(const std::string& path, std::string_view body) {
  const std::string tmp = path + ".tmp";
  bool ok = false;
  {
    // aa-lint: write-ok(the atomic-write primitive itself)
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    ok = out.write(body.data(), static_cast<std::streamsize>(body.size()))
             .flush()
             .good();
  }
  std::error_code ec;
  if (ok) std::filesystem::rename(tmp, path, ec);
  ok = ok && !ec;
  if (!ok) std::filesystem::remove(tmp, ec);
  return ok;
}

}  // namespace aa::util
