#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "util/json.hpp"

namespace aa::util {
namespace {

Json round_trip(const Json& v) {
  const std::optional<Json> back = Json::parse(v.dump());
  EXPECT_TRUE(back.has_value()) << v.dump();
  return back.value_or(Json());
}

// ---- exact round trips -------------------------------------------------------

TEST(Json, IntegersRoundTripExactlyAcrossTheWholeSeedRange) {
  const std::uint64_t umax = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t above_2_53 = (std::uint64_t{1} << 53) + 1;
  const std::int64_t imin = std::numeric_limits<std::int64_t>::min();
  for (const Json& v : {Json(umax), Json(above_2_53), Json(imin),
                        Json(std::int64_t{-42}), Json(0)}) {
    EXPECT_EQ(round_trip(v), v) << v.dump();
  }
  EXPECT_EQ(Json(umax).dump(), "18446744073709551615\n");
  EXPECT_EQ(round_trip(Json(umax)).as_uint(), umax);
  EXPECT_EQ(round_trip(Json(above_2_53)).as_uint(), above_2_53);
  EXPECT_EQ(round_trip(Json(above_2_53)).as_int(),
            static_cast<std::int64_t>(above_2_53));
  EXPECT_EQ(round_trip(Json(imin)).as_int(), imin);
  EXPECT_FALSE(Json(umax).as_int().has_value());  // above INT64_MAX
  EXPECT_FALSE(Json(-1).as_uint().has_value());
  // One representation per integer, whatever type built it.
  EXPECT_EQ(Json(std::uint64_t{7}), Json(7));
}

TEST(Json, DoublesRoundTripBitExactAtSeventeenDigits) {
  for (const double d : {0.1, 1e300, -2.5e-300, 1.0 / 3.0, -0.75}) {
    const Json back = round_trip(Json(d));
    EXPECT_EQ(back.kind(), Json::Kind::kDouble);
    EXPECT_EQ(back, Json(d));
    EXPECT_EQ(std::stod(back.dump()), d);  // %.17g is bit-exact
  }
  EXPECT_EQ(Json(0.1).dump(), "0.10000000000000001\n");
  EXPECT_EQ(Json(1e300).dump(), "1.0000000000000001e+300\n");
  // Re-reading a number re-renders it canonically.
  EXPECT_EQ(Json::parse("0.10000000000000001000"), Json(0.1));
  EXPECT_EQ(Json::parse("-0"), Json(0));
  // %.17g prints an integral double without a fraction: it reads back as an
  // integer.
  EXPECT_EQ(Json(2.0).dump(), "2\n");
  EXPECT_EQ(round_trip(Json(2.0)), Json(2));
  // JSON cannot spell non-finite numbers.
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).dump(), "null\n");
}

TEST(Json, StringsEscapeAndRoundTrip) {
  const std::string nasty =
      std::string("quote\" backslash\\ newline\n tab\t cr\r ") + '\x01' +
      '\x1f' + " bell\a nul" + std::string(1, '\0') + " utf8 \xc3\xa9";
  EXPECT_EQ(round_trip(Json(nasty)), Json(nasty));
  EXPECT_EQ(Json("a\"b\\c\n\x01").dump(), "\"a\\\"b\\\\c\\n\\u0001\"\n");
  // \u escapes (a surrogate pair included) decode to UTF-8.
  EXPECT_EQ(Json::parse(R"("\u0041\u00e9\u20ac\ud83d\ude00\/")"),
            Json("A\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80/"));
}

TEST(Json, NestedDocumentRoundTripsInInsertionOrder) {
  Json doc;
  doc["zeta"] = 1;
  doc["alpha"]["nested"] = "x";
  doc["list"].push(true);
  doc["list"].push(Json());
  doc["list"].push(Json::object());
  doc["empty"] = Json::array();
  const Json back = round_trip(doc);
  EXPECT_EQ(back, doc);
  // Insertion order, not sorted.
  EXPECT_TRUE(back.dump().starts_with("{\n  \"zeta\": 1,\n  \"alpha\""));
  ASSERT_NE(back.find("alpha"), nullptr);
  EXPECT_EQ(*back.find("alpha")->find("nested"), Json("x"));
  EXPECT_EQ(back.find("missing"), nullptr);
  EXPECT_EQ(back.items().size(), 4u);
  // Order is part of the value.
  Json swapped;
  swapped["alpha"] = doc["alpha"];
  swapped["zeta"] = 1;
  swapped["list"] = doc["list"];
  swapped["empty"] = Json::array();
  EXPECT_NE(swapped, doc);
}

TEST(Json, CopiesAreDeepAndEqual) {
  Json doc;
  doc["list"].push(1);
  doc["obj"]["k"] = "v";
  Json copy = doc;
  EXPECT_EQ(copy, doc);
  copy["list"].push(2);
  copy["obj"]["k"] = "w";
  EXPECT_NE(copy, doc);
  EXPECT_EQ(doc.dump(), "{\n  \"list\": [1],\n  \"obj\": {\"k\": \"v\"}\n}\n");
  copy = doc;  // copy assignment over a non-empty value
  EXPECT_EQ(copy, doc);
  // An empty container equals one that has held nothing, box or no box.
  EXPECT_EQ(Json::parse("[]"), Json::array());
  EXPECT_NE(Json::array(), Json::object());
}

// ---- the one layout rule ------------------------------------------------------

TEST(Json, LayoutGoldenStrings) {
  // Root: one member per line; scalar-only containers inline with ", ".
  Json doc;
  doc["name"] = "cell";
  doc["n"] = 8;
  doc["mean"] = 0.5;
  doc["seeds"] = Json::array();
  doc["seeds"].push(3);
  doc["seeds"].push(5);
  doc["none"] = Json::array();
  doc["config"]["smoke"] = true;
  doc["config"]["t"] = 1;
  EXPECT_EQ(doc.dump(),
            "{\n"
            "  \"name\": \"cell\",\n"
            "  \"n\": 8,\n"
            "  \"mean\": 0.5,\n"
            "  \"seeds\": [3, 5],\n"
            "  \"none\": [],\n"
            "  \"config\": {\"smoke\": true, \"t\": 1}\n"
            "}\n");

  // A container that holds an object prints one member per line, at every
  // depth; the objects inside print inline when they hold none.
  Json rows;
  Json& list = rows["rows"] = Json::array();
  list.push(Json::object())["a"] = 1;
  Json& second = list.push(Json::object());
  second["b"] = Json::array();
  second["b"].push(2);
  second["c"]["d"] = Json();
  EXPECT_EQ(rows.dump(),
            "{\n"
            "  \"rows\": [\n"
            "    {\"a\": 1},\n"
            "    {\n"
            "      \"b\": [2],\n"
            "      \"c\": {\"d\": null}\n"
            "    }\n"
            "  ]\n"
            "}\n");

  EXPECT_EQ(Json::object().dump(), "{}\n");
  EXPECT_EQ(Json(-7).dump(), "-7\n");
}

// ---- strict reader -----------------------------------------------------------

TEST(Json, RejectsMalformedInput) {
  const char* const bad[] = {
      "",                       // empty
      "{\"a\": 1",              // truncated object
      "{\"a\": [1, 2",          // truncated array
      "{\"a\": 1}\n}",          // trailing bytes
      "1 2",                    // trailing value
      "{\"a\": \"abc}",         // unterminated string
      "\"bad \\x escape\"",     // bad escape
      "\"\\u12\"",              // short \u escape
      "\"\\ud800\"",            // unpaired high surrogate
      "\"\\udc00\"",            // lone low surrogate
      "\"raw\nnewline\"",       // raw control character
      "{\"a\": 1 \"b\": 2}",    // missing comma
      "[1 2]",                  // missing comma
      "{\"a\" 1}",              // missing colon
      "{\"a\": 1,}",            // trailing comma
      "[1,]",                   // trailing comma
      "{\"a\": 1, \"a\": 2}",   // duplicate key
      "{a: 1}",                 // unquoted key
      "01",                     // leading zero
      "-",                      // bare minus
      "1.",                     // empty fraction
      "1e",                     // empty exponent
      "+1",                     // leading plus
      "tru",                    // truncated literal
      "nul",                    // truncated literal
      "NaN",                    // not JSON
  };
  for (const char* text : bad) {
    EXPECT_FALSE(Json::parse(text).has_value()) << "accepted: " << text;
  }
  const std::string deep(300, '[');
  EXPECT_FALSE(Json::parse(deep + std::string(300, ']')).has_value());
}

TEST(Json, AcceptsWhitespaceAroundAnyToken) {
  const std::optional<Json> v =
      Json::parse(" \t\r\n{ \"a\" :\n[ 1 , -2.5e1 , true , null ] }\n\n");
  ASSERT_TRUE(v.has_value());
  const Json* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 4u);
  EXPECT_EQ(a->items()[1], Json(-25.0));
  EXPECT_EQ(a->items()[2], Json(true));
  EXPECT_EQ(a->items()[3], Json());
}

// ---- atomic write ------------------------------------------------------------

TEST(Json, WriteFileAtomicReplacesWholeFileAndReportsFailure) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "aa_json_atomic";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string path = (dir / "doc.json").string();
  ASSERT_TRUE(write_file_atomic(path, "old\n"));
  ASSERT_TRUE(write_file_atomic(path, "new\n"));
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), "new\n");
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  // A missing directory is an I/O failure, reported — not thrown.
  EXPECT_FALSE(write_file_atomic((dir / "no" / "such.json").string(), "x"));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace aa::util
