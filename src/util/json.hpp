// The one JSON module: an insertion-ordered value, one serializer, one
// strict reader and the one crash-safe file write. Every artifact (campaign
// cells, summary, timing and lens sidecars, BENCH_<name>.json) is a Json
// dump, and campaign resume reads its artifacts back with Json::parse.
//
// dump() has ONE layout rule: 2-space indent, `"key": value`, %.17g
// doubles (a non-finite double is null: JSON cannot spell it), full string
// escaping. The root, and any container that holds an object, print one
// member per line; every other container prints on one line, ", "-joined.
//
// A number is held as its canonical token, so integers never pass through
// a double: trial seeds span the whole uint64 range. An integral double
// prints without a fraction and so reads back as an integer. A container's
// keys and items live in a separate box, so a scalar node is one token
// string and a null pointer.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace aa::util {

class Json {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject
  };  // kInt: fits int64; kUint: above INT64_MAX

  Json() = default;  ///< null
  Json(const Json& other);
  Json(Json&&) noexcept = default;
  Json& operator=(const Json& other) { return *this = Json(other); }
  Json& operator=(Json&&) noexcept = default;
  Json(bool b) : kind_(Kind::kBool), text_(b ? "true" : "false") {}
  template <std::integral I>
    requires(!std::same_as<I, bool>)
  Json(I v)
      : kind_(std::cmp_greater(v, INT64_MAX) ? Kind::kUint : Kind::kInt),
        text_(std::to_string(v)) {}
  Json(double d);
  Json(std::string s) : kind_(Kind::kString), text_(std::move(s)) {}
  Json(const char* s) : Json(std::string(s)) {}
  [[nodiscard]] static Json array() { return Json(Kind::kArray); }
  [[nodiscard]] static Json object() { return Json(Kind::kObject); }

  /// Append to an array (null becomes an empty array first).
  Json& push(Json v);
  /// The member `key` of an object, appended as null if absent (null
  /// becomes an empty object first): `doc["config"]["n"] = 32`. Like
  /// push(), appending may move the other members: a reference into this
  /// value does not survive the next push() or new key.
  Json& operator[](std::string_view key);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  /// The member `key`, or nullptr if this is not an object or lacks it.
  [[nodiscard]] const Json* find(std::string_view key) const;
  /// Array elements or object member values, in order.
  [[nodiscard]] std::span<const Json> items() const noexcept {
    return box_ ? std::span<const Json>(box_->items) : std::span<const Json>();
  }
  [[nodiscard]] std::optional<std::int64_t> as_int() const;
  [[nodiscard]] std::optional<std::uint64_t> as_uint() const;

  /// Same kind, value, keys and order.
  [[nodiscard]] bool operator==(const Json& other) const;

  /// The document text (the layout rule above), newline-terminated.
  [[nodiscard]] std::string dump() const;

  /// Strict reader: one value, optionally surrounded by whitespace.
  /// nullopt on truncated input, trailing bytes, bad escapes or unpaired
  /// surrogates, raw control characters in strings, malformed numbers,
  /// missing separators, duplicate keys, or nesting deeper than 256.
  [[nodiscard]] static std::optional<Json> parse(std::string_view text);

 private:
  struct Box {
    std::vector<std::string> keys;  ///< object keys, parallel to items
    std::vector<Json> items;        ///< array elements / object values
    bool operator==(const Box&) const = default;
  };

  explicit Json(Kind k) : kind_(k) {}
  /// This container's box, made on first use.
  Box& box() { return box_ ? *box_ : *(box_ = std::make_unique<Box>()); }
  void dump_to(std::string& out, int depth) const;

  Kind kind_ = Kind::kNull;
  std::string text_;  ///< a string's value; a bool's or number's token
  std::unique_ptr<Box> box_;  ///< null for scalars and empty containers
};

/// Crash-safe file write: `body` goes to `<path>.tmp`, is flushed, then
/// renamed over `path`, so a reader sees the old or the new content and
/// never a torn file. Returns false (the temp file removed) on any I/O
/// error; the caller decides whether that is fatal.
[[nodiscard]] bool write_file_atomic(const std::string& path,
                                     std::string_view body);

}  // namespace aa::util
